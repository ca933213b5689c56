"""Span tracer for the benchmark's traced pass.

Wraps public functions where their callers look them up (module attributes
and class methods), keeps every span in memory, derives self time, and writes
the spans as Chrome trace-event JSON, which Perfetto and chrome://tracing
open. Nothing is patched outside ``installed()``; the originals come back on
exit, also when a wrapped call raises.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from contextlib import contextmanager

from wafermesh import collectives, fabric, gemm, gemv, kvcache, plan

_GEMMS = ("mesh_gemm", "cannon_gemm", "summa_gemm", "allgather_gemm", "dist_gemm_t")
_GEMVS = ("mesh_gemv", "gemv_pipeline_baseline", "gemv_ring_baseline")

# (owner, attribute, span name). One function imported into several modules
# is wrapped at each site under one span name, except ktree_allreduce, whose
# two call sites are told apart: plan charges cost-only reductions on dummy
# tiles, gemv reduces real partial products.
SPANS = [
    (plan, "autotune", "plan.autotune"),
    (plan, "generate_dist", "plan.generate_dist"),
    (plan, "execute_prefill_layer", "plan.execute_prefill_layer"),
    (plan, "execute_decode_layer", "plan.execute_decode_layer"),
    (plan, "transition", "plan.transition"),
    (plan, "mesh_gemm", "gemm.mesh_gemm"),
    (plan, "dist_gemm_t", "gemm.dist_gemm_t"),
    (plan, "mesh_gemv", "gemv.mesh_gemv"),
    (plan, "ktree_allreduce", "collectives.ktree_allreduce.from_plan"),
    (plan, "kv_append_shift", "kvcache.kv_append_shift"),
    (gemv, "ktree_allreduce", "collectives.ktree_allreduce.from_gemv"),
    (gemv, "pipeline_allreduce", "collectives.pipeline_allreduce"),
    (gemv, "ring_allreduce", "collectives.ring_allreduce"),
    (gemm, "build_ring", "collectives.build_ring"),
    (collectives, "build_ring", "collectives.build_ring"),
    *[(gemm, name, f"gemm.{name}") for name in _GEMMS],
    *[(gemv, name, f"gemv.{name}") for name in _GEMVS],
    (kvcache, "kv_append_shift", "kvcache.kv_append_shift"),
    (fabric.RoutingLedger, "install_path", "fabric.RoutingLedger.install_path"),
    (fabric.SimReport, "merge", "fabric.SimReport.merge"),
    (kvcache.KvMeshState, "counts_grid", "kvcache.KvMeshState.counts_grid"),
    (kvcache.KvMeshState, "token_order", "kvcache.KvMeshState.token_order"),
]

# Counted, not timed: add_step runs once per simulated step, too often for a
# span to be cheap, and a count is all the per-step metric needs.
COUNTERS = [(fabric.SimReport, "add_step", "fabric.sim_steps")]


class Tracer:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(sid)
        self.spans[sid][1] = time.perf_counter()
        try:
            yield
        finally:
            self.spans[sid][2] = time.perf_counter()
            self._stack.pop()

    def _timed(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def _counted(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for targets, make in ((SPANS, self._timed), (COUNTERS, self._counted)):
                for owner, attr, name in targets:
                    # vars(), not getattr(): a method must be restored as the
                    # plain function the class defined.
                    original = vars(owner)[attr]
                    saved.append((owner, attr, original))
                    setattr(owner, attr, make(original, name))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, inclusive seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, tuple[int, float, float]] = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            calls, incl, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, incl + end - start, own + end - start - inner)
        return out

    def write_chrome(self, path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        events = [
            {"name": name, "cat": name.split(".")[0], "ph": "X", "pid": 1, "tid": 1,
             "ts": round((start - origin) * 1e6, 3), "dur": round((end - start) * 1e6, 3),
             "args": {"id": i, "parent": parent, "workload": self.workload}}
            for i, (name, start, end, parent) in enumerate(self.spans)
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh,
                      separators=(",", ":"))
