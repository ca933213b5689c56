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
from itertools import islice

import numpy as np

from .fabric import CapacityError, PlmrConfig, SimReport, StepCost


@dataclass
class KvMeshState:
    """Per-core ordered token chunks on the mesh.

    Every mesh column holds its own head-group slice of the same tokens in the
    same order, so one column is stored: ``columns`` has ``width`` entries that
    are all that one list, and ``width`` only multiplies the transfer cost.
    """

    width: int
    height: int
    chunk_capacity: int  # chunks per core
    chunk_bytes: int  # serialized size of one K+V chunk
    # columns[x][y] = ordered token ids at core (x, y); row 0 = top = oldest
    columns: list[list[list[int]]] = field(default_factory=list)

    def __post_init__(self):
        column = self.columns[0] if self.columns else [[] for _ in range(self.height)]
        if self.columns and (len(self.columns) != self.width or len(column) != self.height
                             or any(c != column for c in self.columns)):
            raise ValueError(
                f"columns must be {self.width} identical columns of {self.height} cells"
            )
        self.columns = [column] * self.width

    @property
    def total_tokens(self) -> int:
        return sum(self.row_counts())

    def row_counts(self) -> list[int]:
        """Chunks per core down one column; every column holds the same ids."""
        return [len(cell) for cell in self.columns[0]]

    def tokens_at(self, x: int, y: int) -> list[int]:
        return list(self.columns[x][y])

    def counts_grid(self) -> np.ndarray:
        rows = np.array(self.row_counts(), dtype=int)
        return np.repeat(rows[:, None], self.width, axis=1)

    def spread(self) -> int:
        counts = self.row_counts()
        return max(counts) - min(counts)

    def token_order(self, column: int = 0) -> list[int]:
        return [t for cell in self.columns[column] for t in cell]

    def place(self, tokens: list[int]) -> None:
        """Fill an empty state as in-order ``kv_append_shift`` calls would:
        the token order cut into rows of ``_target_counts`` sizes."""
        _check_shift_capacity(self, len(tokens))
        cells = iter(tokens)
        self.columns[0][:] = [list(islice(cells, c))
                              for c in _target_counts(len(tokens), self.height)]


def kv_append_concat(cfg: PlmrConfig, state: KvMeshState, token: int) -> SimReport:
    """Concatenate the new chunk onto the bottom-row core of each column.

    Only that one core per column stores anything; it overflows even while
    the rest of the mesh sits empty.
    """
    report = SimReport(algorithm="kv_concat")
    bottom = state.columns[0][-1]
    if len(bottom) >= state.chunk_capacity:
        raise CapacityError(
            f"core (0,{state.height - 1}): {state.chunk_capacity} chunks stored, "
            f"column capacity unused elsewhere"
        )
    bottom.append(token)
    report.meta["spread"] = state.spread()
    report.meta["tokens"] = state.total_tokens
    return report


def _target_counts(total: int, height: int) -> list[int]:
    """Balanced per-row counts: extras sit in the bottom rows."""
    base, extra = divmod(total, height)
    return [base + (1 if y >= height - extra else 0) for y in range(height)]


def _check_shift_capacity(state: KvMeshState, total: int) -> None:
    capacity = state.chunk_capacity * state.height
    if total > capacity:
        raise CapacityError(f"mesh KV capacity exhausted: {capacity} chunks per column")


def kv_append_shift(cfg: PlmrConfig, state: KvMeshState, token: int) -> SimReport:
    """Insert at the bottom row, then shift oldest chunks upward to rebalance.

    All transfers are between vertically adjacent cores and run in parallel
    across columns, pipelined within the epoch: critical path is one hop plus
    the chunk serialization.
    """
    report = SimReport(algorithm="kv_shift")
    total = state.total_tokens + 1
    _check_shift_capacity(state, total)
    column = state.columns[0]
    column[-1].append(token)

    target = _target_counts(total, state.height)
    transfers = 0
    for y in range(state.height - 1, 0, -1):
        # A surplus row passes its oldest chunk up; the chunk is newer than
        # everything above it, preserving top-to-bottom token order.
        if len(column[y]) > target[y]:
            column[y - 1].append(column[y].pop(0))
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
    report.meta["tokens"] = total
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
