"""KV cache placement on the mesh: shift-based balancing vs. concat baseline.

One generated token produces one chunk (its K+V slice for that column's head
group) in every mesh column. Row 0 is the top of the mesh; chunks enter at the
bottom row and the oldest data shifts upward, so reading cores top-to-bottom
yields token order oldest-to-newest in both modes.

Concat mode stores every chunk on the bottom-row core, so capacity is a single
core's; shift mode keeps the per-core chunk counts within a spread of one, so
capacity is the whole column and the max-token ratio equals the row count.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .fabric import CapacityError, PlmrConfig, SimReport, StepCost


@dataclass
class KvMeshState:
    """Per-core ordered token chunks, one column per mesh column."""

    width: int
    height: int
    chunk_capacity: int  # chunks per core
    chunk_bytes: int  # serialized size of one K+V chunk
    # columns[x][y] = ordered token ids at core (x, y); row 0 = top = oldest
    columns: list[list[list[int]]] = field(default_factory=list)

    def __post_init__(self):
        if not self.columns:
            self.columns = [[[] for _ in range(self.height)] for _ in range(self.width)]

    @property
    def total_tokens(self) -> int:
        return sum(self.row_counts())

    def row_counts(self) -> list[int]:
        """Chunks per core down one column; every column holds the same ids."""
        return [len(cell) for cell in self.columns[0]]

    def tokens_at(self, x: int, y: int) -> list[int]:
        return list(self.columns[x][y])

    def counts_grid(self) -> np.ndarray:
        grid = np.zeros((self.height, self.width), dtype=int)
        for x in range(self.width):
            for y in range(self.height):
                grid[y, x] = len(self.columns[x][y])
        return grid

    def spread(self) -> int:
        counts = self.row_counts()
        return max(counts) - min(counts)

    def token_order(self, column: int = 0) -> list[int]:
        out: list[int] = []
        for y in range(self.height):
            out.extend(self.columns[column][y])
        return out


def kv_append_concat(cfg: PlmrConfig, state: KvMeshState, token: int) -> SimReport:
    """Concatenate the new chunk onto the bottom-row core of each column.

    Only that one core per column stores anything; it overflows even while
    the rest of the mesh sits empty.
    """
    report = SimReport(algorithm="kv_concat")
    bottom = state.height - 1
    for x in range(state.width):
        if len(state.columns[x][bottom]) >= state.chunk_capacity:
            raise CapacityError(
                f"core ({x},{bottom}): {state.chunk_capacity} chunks stored, "
                f"column capacity unused elsewhere"
            )
    for x in range(state.width):
        state.columns[x][bottom].append(token)
    report.meta["spread"] = state.spread()
    report.meta["tokens"] = state.total_tokens
    return report


def _target_counts(total: int, height: int) -> list[int]:
    """Balanced per-row counts: extras sit in the bottom rows."""
    base, extra = divmod(total, height)
    return [base + (1 if y >= height - extra else 0) for y in range(height)]


def kv_append_shift(cfg: PlmrConfig, state: KvMeshState, token: int) -> SimReport:
    """Insert at the bottom row, then shift oldest chunks upward to rebalance.

    All transfers are between vertically adjacent cores and run in parallel
    across columns, pipelined within the epoch: critical path is one hop plus
    the chunk serialization.
    """
    report = SimReport(algorithm="kv_shift")
    if state.total_tokens >= state.chunk_capacity * state.height:
        raise CapacityError(
            f"mesh KV capacity exhausted: {state.chunk_capacity * state.height} "
            f"chunks per column"
        )
    for x in range(state.width):
        state.columns[x][state.height - 1].append(token)

    target = _target_counts(state.total_tokens, state.height)
    transfers = 0
    for y in range(state.height - 1, 0, -1):
        # A surplus row passes its oldest chunk up; the chunk is newer than
        # everything above it, preserving top-to-bottom token order.
        if len(state.columns[0][y]) > target[y]:
            for x in range(state.width):
                moved = state.columns[x][y].pop(0)
                state.columns[x][y - 1].append(moved)
            transfers += 1
    if transfers:
        words = -(-state.chunk_bytes // 4)
        report.add_step(
            "shift",
            StepCost.of(cfg, 1, 0, transfers * state.width * state.chunk_bytes),
            compute_cycles=words,  # chunk serialization on the link
            overlap=False,
        )
    report.meta["spread"] = state.spread()
    report.meta["tokens"] = state.total_tokens
    report.meta["transfers"] = transfers
    return report


def kv_capacity_ratio(state: KvMeshState) -> int:
    """Shift-based max tokens over concat-based max tokens: the row count."""
    shift_max = state.chunk_capacity * state.height
    concat_max = state.chunk_capacity
    return shift_max // concat_max


def dump_counts_csv(state: KvMeshState, path: str) -> None:
    grid = state.counts_grid()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"col{x}" for x in range(state.width)])
        for y in range(state.height):
            writer.writerow([int(v) for v in grid[y]])
