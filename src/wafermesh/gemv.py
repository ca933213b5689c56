"""Distributed GEMV: local per-core products plus an allreduce along the
partition axis.

The input vector is partitioned along Y to match the matrix row tiling and
replicated along X; each core computes its local slice product, and column
groups aggregate with one of three disciplines (k-tree, pipeline, ring).
Per-column reductions run in parallel, so each row's partials across all
columns enter the collective as a single stacked tile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .collectives import ktree_allreduce, pipeline_allreduce, ring_allreduce
from .fabric import PlmrConfig, SimReport, StepCost
from .tiles import ShapeError, pad_matrix


@dataclass(frozen=True)
class GemvProblem:
    a: np.ndarray  # vector, length K
    b: np.ndarray  # (K, N)
    n: int  # square grid side

    def __post_init__(self):
        if self.n < 1:
            raise ShapeError(f"grid side must be >= 1, got {self.n}")
        a = np.asarray(self.a)
        b = np.asarray(self.b)
        if a.ndim != 1 or b.ndim != 2:
            raise ShapeError("GEMV expects a vector and a matrix")
        if a.shape[0] != b.shape[0]:
            raise ShapeError(f"inner dims differ: {a.shape} x {b.shape}")


def dense_gemv_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Ground-truth vector-matrix product, explicit accumulation."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or a.shape[0] != b.shape[0]:
        raise ShapeError(f"inner dims differ: {a.shape} x {b.shape}")
    out = np.zeros(b.shape[1], dtype=np.float64)
    for j in range(b.shape[1]):
        acc = 0.0
        for p in range(a.shape[0]):
            acc += a[p] * b[p, j]
        out[j] = acc
    return out


def _local_partials(problem: GemvProblem) -> tuple[list[np.ndarray], int]:
    """Per-row stacked partials: tiles[i] has shape (n, cols_per_core)."""
    n = problem.n
    b = pad_matrix(np.asarray(problem.b, dtype=np.float32), n, n)
    br, bc = b.shape[0] // n, b.shape[1] // n
    a = np.zeros(b.shape[0], dtype=np.float32)
    a[: problem.a.shape[0]] = problem.a
    b4 = b.reshape(n, br, n, bc).transpose(0, 2, 1, 3)
    a2 = a.reshape(n, br)
    partials = np.einsum("ib,ijbc->ijc", a2, b4)  # (n, n, bc)
    return [partials[i].copy() for i in range(n)], br * bc


def _finish(problem: GemvProblem, reduced: np.ndarray) -> np.ndarray:
    return reduced.reshape(-1)[: problem.b.shape[1]].copy()


def _run(cfg: PlmrConfig, problem: GemvProblem, reduce_fn, op: str,
         name: str) -> tuple[np.ndarray, SimReport]:
    cfg.check_grid(op, problem.n, problem.n)
    report = SimReport(algorithm=name, meta={"n": problem.n})
    if problem.n == 1:
        a = np.asarray(problem.a, dtype=np.float32)
        b = np.asarray(problem.b, dtype=np.float32)
        macs = a.shape[0] * b.shape[1]
        report.add_step("local_gemv", StepCost.zero(),
                        compute_cycles=-(-macs // cfg.macs_per_cycle), overlap=False)
        return a @ b, report
    tiles, macs_per_core = _local_partials(problem)
    report.add_step("local_gemv", StepCost.zero(),
                    compute_cycles=-(-macs_per_core // cfg.macs_per_cycle), overlap=False)
    out, sub = reduce_fn(tiles)
    report.merge(sub, prefix="allreduce.")
    return _finish(problem, out), report


def mesh_gemv(cfg: PlmrConfig, problem: GemvProblem, k: int = 2,
              broadcast: bool = False) -> tuple[np.ndarray, SimReport]:
    """Local GEMV followed by a k-tree allreduce along the partition axis.

    ``broadcast`` turns on continuous-GEMV mode: the aggregated result is
    sent back to every core in the group after the reduction.
    """

    def reduce_fn(tiles):
        values, sub, _tree = ktree_allreduce(cfg, tiles, k=k, broadcast=broadcast)
        return values[0], sub

    return _run(cfg, problem, reduce_fn, "mesh_gemv", f"mesh_gemv(k={k})")


def gemv_pipeline_baseline(cfg: PlmrConfig, problem: GemvProblem) -> tuple[np.ndarray, SimReport]:
    def reduce_fn(tiles):
        values, sub = pipeline_allreduce(cfg, tiles)
        return values[0], sub

    return _run(cfg, problem, reduce_fn, "gemv_pipeline_baseline", "gemv_pipeline")


def gemv_ring_baseline(cfg: PlmrConfig, problem: GemvProblem) -> tuple[np.ndarray, SimReport]:
    def reduce_fn(tiles):
        values, sub = ring_allreduce(cfg, tiles)
        return values[0], sub

    return _run(cfg, problem, reduce_fn, "gemv_ring_baseline", "gemv_ring")
