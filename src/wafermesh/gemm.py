"""Distributed GEMM algorithms on the mesh, with exact results and cost reports.

All variants run the same logical tile arithmetic (vectorized over an n x n
tile grid) and differ in how tile movement maps onto the physical mesh:

* mesh_gemm: compute-shift loop over interleaved rings; every shift is at
  most two hops of preconfigured pass-through, independent of n.
* cannon_gemm: unit-shift rings where the wrap link passes head-to-tail
  through the whole row/column: (n-1) hops per step, no routing stages.
* summa_gemm / allgather_gemm: per-step panel broadcast relayed core by core
  around the row/column ring: (n-1) hops plus (n-1) routing stages per step;
  each core would need n distinct paths, flagged when over budget.
* dist_gemm_t: C = A @ B^T without moving a transpose over the NoC; B shifts
  along Y on the interleaved ring and partial C blocks reduce along X.

Alignment (Cannon skew) runs as repeated ring shifts and is reported under
``align*`` step labels, separately from the ``step*`` compute-shift loop.

Ring hops and routing-path counts depend only on (cfg, n, embedding) and the
ring kind; they are computed in closed form once per key and memoized per
process in a bounded cache.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .collectives import build_ring
from .fabric import (
    ELEMENT_BYTES,
    CapacityError,
    PlmrConfig,
    SimReport,
    StepCost,
    max_cover,
)
from .tiles import ShapeError, pad_matrix


@dataclass(frozen=True)
class GemmProblem:
    a: np.ndarray  # (M, K)
    b: np.ndarray  # (K, N); dist_gemm_t reads it as (R, K), to be transposed
    n: int  # square grid side

    def __post_init__(self):
        if self.n < 1:
            raise ShapeError(f"grid side must be >= 1, got {self.n}")
        if np.asarray(self.a).ndim != 2 or np.asarray(self.b).ndim != 2:
            raise ShapeError("GEMM operands must be 2-D")


def dense_gemm_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Ground-truth triple-loop product; the reference for every variant."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"inner dims differ: {a.shape} x {b.shape}")
    m, k, nd = a.shape[0], a.shape[1], b.shape[1]
    c = np.zeros((m, nd), dtype=np.float64)
    for i in range(m):
        for j in range(nd):
            acc = 0.0
            for p in range(k):
                acc += a[i, p] * b[p, j]
            c[i, j] = acc
    return c


@dataclass(frozen=True)
class MeshEmbedding:
    """Logical square grid of side lcm(nh, nw) folded onto an nh x nw mesh.

    Each physical core hosts (side/nh) * (side/nw) logical tiles; transfers
    between logical cores hosted on the same physical core are zero-hop.
    """

    phys_h: int
    phys_w: int
    side: int

    @property
    def tiles_per_core(self) -> int:
        return (self.side // self.phys_h) * (self.side // self.phys_w)

    def phys_x(self, lx: int) -> int:
        return lx // (self.side // self.phys_w)

    def phys_y(self, ly: int) -> int:
        return ly // (self.side // self.phys_h)


def embed_nonsquare(nh: int, nw: int) -> MeshEmbedding:
    if nh < 1 or nw < 1:
        raise ShapeError(f"bad physical grid {nh}x{nw}")
    return MeshEmbedding(phys_h=nh, phys_w=nw, side=math.lcm(nh, nw))


def _split(m: np.ndarray, n: int) -> np.ndarray:
    """Pad and cut a matrix into an (n, n, tr, tc) tile grid."""
    padded = pad_matrix(np.asarray(m, dtype=np.float32), n, n)
    tr, tc = padded.shape[0] // n, padded.shape[1] // n
    return padded.reshape(n, tr, n, tc).transpose(0, 2, 1, 3).copy()

def _unsplit(tiles: np.ndarray, rows: int, cols: int) -> np.ndarray:
    n, _, tr, tc = tiles.shape
    full = tiles.transpose(0, 2, 1, 3).reshape(n * tr, n * tc)
    return full[:rows, :cols]


def _skew(a4: np.ndarray, b4: np.ndarray) -> None:
    """Cannon alignment: row i of A and column j of B rotate into position."""
    n = a4.shape[0]
    for i in range(1, n):
        a4[i] = np.roll(a4[i], n - i, axis=0)
        b4[:, i] = np.roll(b4[:, i], n - i, axis=0)


@functools.lru_cache(maxsize=256)
def _ring_routing(cfg: PlmrConfig, n: int, embedding: MeshEmbedding | None,
                  interleaved: bool) -> tuple[int, int, int]:
    """(X hops, Y hops, most paths demanded at one core) of the shift rings.

    Position i sends along its row and its column to the interleaved ring's
    ``send[i]`` (n >= 3), else to (i + 1) % n. A core's path demand is the rows
    it hosts times the X cover plus the columns it hosts times the Y cover.
    """
    send = build_ring(n).send if interleaved and n >= 3 else [(i + 1) % n for i in range(n)]
    emb = embedding or MeshEmbedding(n, n, n)
    xs = [(emb.phys_x(i), emb.phys_x(s)) for i, s in enumerate(send)]
    ys = [(emb.phys_y(i), emb.phys_y(s)) for i, s in enumerate(send)]
    demand = n // emb.phys_h * max_cover(xs) + n // emb.phys_w * max_cover(ys)
    hop_x, hop_y = (max(abs(a - b) for a, b in pairs) for pairs in (xs, ys))
    return hop_x, hop_y, demand


def _charge_ring_paths(cfg: PlmrConfig, report: SimReport, demand: int) -> None:
    """A core holds min(demand, budget) paths; a demand over the budget is flagged."""
    report.max_paths_per_core = min(demand, cfg.route_budget)
    if demand > cfg.route_budget:
        report.flag("R", f"{demand} paths/core demanded > budget {cfg.route_budget}")


def _tile_bytes(t4: np.ndarray) -> int:
    return t4.shape[2] * t4.shape[3] * ELEMENT_BYTES


def _check_gemm_budget(cfg: PlmrConfig, report: SimReport, peak: int,
                       raise_on_violation: bool, hosted: int = 1) -> None:
    peak *= hosted
    report.peak_mem_bytes = peak
    if peak > cfg.mem_per_core:
        if raise_on_violation:
            raise CapacityError(
                f"core (0,0): peak {peak} bytes exceeds budget {cfg.mem_per_core}"
            )
        report.flag("M", f"peak {peak} bytes/core > budget {cfg.mem_per_core}")


def _single_core(cfg: PlmrConfig, problem: GemmProblem, name: str,
                 transpose_b: bool) -> tuple[np.ndarray, SimReport]:
    a = np.asarray(problem.a, dtype=np.float32)
    b = np.asarray(problem.b, dtype=np.float32)
    c = a @ (b.T if transpose_b else b)
    report = SimReport(algorithm=name, notes=["fallback: single core (n=1)"])
    macs = a.shape[0] * a.shape[1] * c.shape[1]
    report.add_step("step0", StepCost.zero(), compute_cycles=-(-macs // cfg.macs_per_cycle))
    peak = (a.nbytes + b.nbytes + c.nbytes)
    _check_gemm_budget(cfg, report, peak, raise_on_violation=True)
    return c, report


def _shift_loop(cfg: PlmrConfig, problem: GemmProblem, name: str, *,
                interleaved: bool, skip_alignment: bool = False,
                embedding: MeshEmbedding | None = None) -> tuple[np.ndarray, SimReport]:
    """Shared compute-shift skeleton for mesh_gemm and cannon_gemm."""
    n = problem.n
    if embedding is None:
        cfg.check_grid(name, n, n)
    else:
        cfg.check_grid(name, embedding.phys_w, embedding.phys_h)
    if n == 1:
        return _single_core(cfg, problem, name, transpose_b=False)
    if problem.a.shape[1] != problem.b.shape[0]:
        raise ShapeError(f"inner dims differ: {problem.a.shape} x {problem.b.shape}")
    if embedding is not None and embedding.side != n:
        raise ShapeError(f"embedding side {embedding.side} != grid {n}")

    a4, b4 = _split(problem.a, n), _split(problem.b, n)
    ab, bb = _tile_bytes(a4), _tile_bytes(b4)
    cb = a4.shape[2] * b4.shape[3] * ELEMENT_BYTES
    report = SimReport(algorithm=name, meta={"n": n})
    hosted = embedding.tiles_per_core if embedding else 1
    _check_gemm_budget(cfg, report, 2 * ab + 2 * bb + cb, True, hosted)

    hop_x, hop_y, demand = _ring_routing(cfg, n, embedding, interleaved)
    _charge_ring_paths(cfg, report, demand)
    if interleaved and n == 2:
        report.notes.append("fallback: neighbor exchange ring (n=2)")

    if skip_alignment:
        report.notes.append("alignment skipped (validation hook)")
    else:
        _skew(a4, b4)
        for s in range(1, n):
            active = n - s  # rows/cols still rotating into place
            report.add_step(
                f"align{s}",
                StepCost.of(cfg, max(hop_x, hop_y), 0, active * n * (ab + bb)),
            )

    macs = a4.shape[2] * a4.shape[3] * b4.shape[3]
    compute = -(-macs // cfg.macs_per_cycle)
    c4 = np.zeros((n, n, a4.shape[2], b4.shape[3]), dtype=np.float32)
    for t in range(n):
        c4 += np.matmul(a4, b4)
        a4 = np.roll(a4, 1, axis=1)
        b4 = np.roll(b4, 1, axis=0)
        report.add_step(
            f"step{t}",
            StepCost.of(cfg, max(hop_x, hop_y), 0, n * n * (ab + bb)),
            compute_cycles=compute,
            overlap=True,
        )
    c = _unsplit(c4, problem.a.shape[0], problem.b.shape[1])
    return c, report


def mesh_gemm(cfg: PlmrConfig, problem: GemmProblem, *, skip_alignment: bool = False,
              embedding: MeshEmbedding | None = None) -> tuple[np.ndarray, SimReport]:
    """Compute-shift GEMM over interleaved rings: 2-hop critical path per step."""
    return _shift_loop(cfg, problem, "mesh_gemm", interleaved=True,
                       skip_alignment=skip_alignment, embedding=embedding)


def cannon_gemm(cfg: PlmrConfig, problem: GemmProblem) -> tuple[np.ndarray, SimReport]:
    """Unit-shift GEMM: (n-1)-hop head-to-tail critical path per step."""
    return _shift_loop(cfg, problem, "cannon_gemm", interleaved=False)


def _broadcast_loop(cfg: PlmrConfig, problem: GemmProblem, name: str,
                    keep_panels: bool) -> tuple[np.ndarray, SimReport]:
    """Shared skeleton for summa_gemm and allgather_gemm."""
    n = problem.n
    cfg.check_grid(name, n, n)
    if n == 1:
        return _single_core(cfg, problem, name, transpose_b=False)
    if problem.a.shape[1] != problem.b.shape[0]:
        raise ShapeError(f"inner dims differ: {problem.a.shape} x {problem.b.shape}")

    a4, b4 = _split(problem.a, n), _split(problem.b, n)
    ab, bb = _tile_bytes(a4), _tile_bytes(b4)
    cb = a4.shape[2] * b4.shape[3] * ELEMENT_BYTES
    report = SimReport(algorithm=name, meta={"n": n})

    if keep_panels:
        # Gathered row/column panels stay resident: O(1/n) of the global
        # tensors per core instead of O(1/n^2). Over-budget runs complete
        # with accounting only.
        peak = n * ab + n * bb + cb
        _check_gemm_budget(cfg, report, peak, raise_on_violation=False)
    else:
        _check_gemm_budget(cfg, report, 2 * ab + 2 * bb + cb, raise_on_violation=True)

    # Every core distinguishes broadcasts from n distinct roots per axis.
    report.max_paths_per_core = n
    if n > cfg.route_budget:
        report.flag("R", f"{n} paths/core demanded > budget {cfg.route_budget}")

    macs = a4.shape[2] * a4.shape[3] * b4.shape[3]
    compute = -(-macs // cfg.macs_per_cycle)
    c4 = np.zeros((n, n, a4.shape[2], b4.shape[3]), dtype=np.float32)
    for k in range(n):
        c4 += np.einsum("iab,jbc->ijac", a4[:, k], b4[k, :])
        # Panel broadcast relayed around the row/column ring: one software
        # forward at each of the n-1 receiving cores.
        report.add_step(
            f"step{k}",
            StepCost.of(cfg, n - 1, n - 1, n * n * (ab + bb)),
            compute_cycles=compute,
            overlap=True,
        )
    c = _unsplit(c4, problem.a.shape[0], problem.b.shape[1])
    return c, report


def summa_gemm(cfg: PlmrConfig, problem: GemmProblem) -> tuple[np.ndarray, SimReport]:
    """Broadcast-based GEMM: (alpha+beta)(n-1) critical path per step."""
    return _broadcast_loop(cfg, problem, "summa_gemm", keep_panels=False)


def allgather_gemm(cfg: PlmrConfig, problem: GemmProblem) -> tuple[np.ndarray, SimReport]:
    """Allgather-based GEMM: panels retained per core, memory grows with n."""
    return _broadcast_loop(cfg, problem, "allgather_gemm", keep_panels=True)


def allgather_peak_bytes(n: int, m: int, k: int, nd: int) -> int:
    """Accounting helper: per-core bytes for gathered A row and B column panels."""
    tr, tk = -(-m // n), -(-k // n)
    tn = -(-nd // n)
    return n * (tr * tk * ELEMENT_BYTES) + n * (tk * tn * ELEMENT_BYTES) + tr * tn * ELEMENT_BYTES


def dist_gemm_t(cfg: PlmrConfig, problem: GemmProblem) -> tuple[np.ndarray, SimReport]:
    """C = A @ B^T with B kept un-transposed on the grid.

    No alignment phase. Each of the n steps shifts B two hops along the
    interleaved Y-ring, computes local A_sub @ B_sub^T, and reduce-adds the
    partial C blocks along each row into the block's home column.
    """
    n = problem.n
    cfg.check_grid("dist_gemm_t", n, n)
    if n == 1:
        return _single_core(cfg, problem, "dist_gemm_t", transpose_b=True)
    a = np.asarray(problem.a)
    b = np.asarray(problem.b)
    if a.shape[1] != b.shape[1]:
        raise ShapeError(f"A and B^T inner dims differ: {a.shape} x {b.shape}^T")

    a4, b4 = _split(a, n), _split(b, n)
    if a4.shape[3] != b4.shape[3]:
        # Both operands tile the shared K dimension; equal padding by construction.
        raise ShapeError("inconsistent K tiling")
    ab, bb = _tile_bytes(a4), _tile_bytes(b4)
    cb = a4.shape[2] * b4.shape[2] * ELEMENT_BYTES
    report = SimReport(algorithm="dist_gemm_t", meta={"n": n})
    _check_gemm_budget(cfg, report, 2 * ab + 2 * bb + cb, raise_on_violation=True)

    _, hop_y, demand = _ring_routing(cfg, n, None, True)
    _charge_ring_paths(cfg, report, demand)
    if n == 2:
        report.notes.append("fallback: neighbor exchange ring (n=2)")

    macs = a4.shape[2] * a4.shape[3] * b4.shape[2]
    compute = -(-macs // cfg.macs_per_cycle)
    rows = np.arange(n)
    c4 = np.zeros((n, n, a4.shape[2], b4.shape[2]), dtype=np.float32)
    for t in range(n):
        partial = np.matmul(a4, b4.transpose(0, 1, 3, 2))  # (n, n, ar, br)
        c4[rows, (rows - t) % n] = partial.sum(axis=1)
        b4 = np.roll(b4, 1, axis=0)
        report.add_step(
            f"step{t}.shift",
            StepCost.of(cfg, hop_y, 0, n * n * bb),
            compute_cycles=compute,
            overlap=True,
        )
        # Row reduce into the home column: chain forwards from both row ends.
        report.add_step(
            f"step{t}.reduce",
            StepCost.of(cfg, n - 1, n - 1, n * (n - 1) * cb),
        )
    c = _unsplit(c4, a.shape[0], b.shape[0])
    return c, report
