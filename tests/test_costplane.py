"""The cost plane: k-tree and ring-routing costs computed from shapes alone.

The SHA-256 pins below were generated with the implementation that derived
every cost by running numerics on real tiles and walking a RoutingLedger per
call; the memoized cost functions must reproduce those reports bit for bit.
"""

import hashlib

import numpy as np
import pytest

from wafermesh import collectives, fabric, gemm, gemv, kvcache, plan
from wafermesh.collectives import ktree_allreduce, ktree_cost
from wafermesh.fabric import ELEMENT_BYTES, PlmrConfig
from wafermesh.gemm import GemmProblem, cannon_gemm, embed_nonsquare, mesh_gemm

# route_budget=3 makes k=3 with broadcast (4 paths/core) an R violation.
KTREE_CFG = PlmrConfig(width=64, height=64, alpha=2, beta=5, route_budget=3)
KTREE_SHA = "ff440f36e0c3a279d0e6f62211c372632138f73978edfb722f0dcd44b45926e5"
RING_SHA = "816b83308d2bd7998d8e2786592370aedd214c276917a9cf6e76d2b1ff02185f"
EMBED_SHA = "c54f01a9c6729f8a5deab3d3a19b1152b47036d58a8463328bd9d89f558616a4"
# route_budget=4 denies paths (ring and Cannon both want 6 per core at n >= 3).
BUDGETS = (4, 32)


def report_lines(report):
    yield f"{report.algorithm}|{report.peak_mem_bytes}|{report.max_paths_per_core}"
    for s in report.steps:
        c = s.comm
        yield (f"{s.label}|{c.hops_critical}|{c.routing_stages_critical}|{c.latency_cycles}|"
               f"{c.bytes_moved}|{s.compute_cycles}|{int(s.overlap)}")
    yield from (f"V|{v}" for v in report.violations)
    yield from (f"N|{n}" for n in report.notes)


def sha(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


KTREE_KEYS = [(n, k, bc, elems) for n in range(1, 65) for k in (1, 2, 3)
              for bc in (False, True) for elems in (1, 7)]


def _ktree_digest(run) -> str:
    lines = []
    for n, k, bc, elems in KTREE_KEYS:
        report, tree = run(n, k, bc, elems)
        lines.append(f"{n}|{k}|{bc}|{elems}|{tree.group_width}|{tree.effective_phases}")
        lines.extend(report_lines(report))
    return sha(lines)


def test_ktree_allreduce_reports_are_pinned():
    def run(n, k, bc, elems):
        _, report, tree = ktree_allreduce(KTREE_CFG, [np.zeros(elems, np.float32)] * n,
                                          k=k, broadcast=bc)
        return report, tree

    assert _ktree_digest(run) == KTREE_SHA


def test_ktree_cost_matches_the_pinned_reports():
    def run(n, k, bc, elems):
        return ktree_cost(KTREE_CFG, n, elems * ELEMENT_BYTES, k, bc)

    assert _ktree_digest(run) == KTREE_SHA


def test_ring_and_cannon_paths_are_pinned():
    lines = []
    for budget in BUDGETS:
        cfg = PlmrConfig(width=64, height=64, route_budget=budget)
        for n in range(1, 65):
            ones = np.ones((n, n), np.float32)
            for fn in (mesh_gemm, cannon_gemm):
                _, report = fn(cfg, GemmProblem(ones, ones, n))
                lines.append(f"{budget}|{fn.__name__}|{n}|{report.max_paths_per_core}")
    assert sha(lines) == RING_SHA


def test_embedded_ring_paths_are_pinned():
    lines = []
    for budget in BUDGETS:
        cfg = PlmrConfig(width=8, height=8, route_budget=budget, mem_per_core=1 << 20)
        for nh in range(1, 9):
            for nw in range(1, 9):
                emb = embed_nonsquare(nh, nw)
                ones = np.ones((emb.side, emb.side), np.float32)
                _, report = mesh_gemm(cfg, GemmProblem(ones, ones, emb.side), embedding=emb)
                lines.append(f"{budget}|{nh}x{nw}|{report.max_paths_per_core}")
    assert sha(lines) == EMBED_SHA


def test_mutating_a_report_does_not_reach_the_cache():
    cfg = PlmrConfig(width=8, height=8, route_budget=3)
    before = list(report_lines(ktree_cost(cfg, 27, 12, k=3, broadcast=True)[0]))
    assert any(line.startswith("V|") for line in before)
    assert any(line.startswith("N|") for line in
               report_lines(ktree_cost(cfg, 4, 12, k=3, broadcast=True)[0]))

    report, tree = ktree_cost(cfg, 27, 12, k=3, broadcast=True)
    report.steps[0].label = "tampered"
    report.steps[0].compute_cycles = 99
    report.steps.append(report.steps[0])
    report.violations.append("R: tampered")
    report.violations[0] = "M: tampered"
    report.notes.append("tampered")
    report.max_paths_per_core = 0
    with pytest.raises(AttributeError):
        tree.phases = ()  # the shared grouping is frozen
    assert list(report_lines(ktree_cost(cfg, 27, 12, k=3, broadcast=True)[0])) == before

    noted, _ = ktree_cost(cfg, 4, 12, k=3, broadcast=True)
    noted.notes.clear()
    assert ktree_cost(cfg, 4, 12, k=3, broadcast=True)[0].notes

    _, via_tiles, _ = ktree_allreduce(cfg, [np.zeros(3, np.float32)] * 27, k=3, broadcast=True)
    via_tiles.steps.clear()
    assert list(report_lines(ktree_cost(cfg, 27, 12, k=3, broadcast=True)[0])) == before


def test_ktree_cost_rejects_empty_group():
    with pytest.raises(ValueError):
        ktree_cost(KTREE_CFG, 0, 4)


def test_every_cache_is_bounded():
    caches = [obj for mod in (collectives, fabric, gemm, gemv, kvcache, plan)
              for obj in vars(mod).values() if hasattr(obj, "cache_info")]
    assert len(caches) >= 4  # k-tree grouping and cost, ring routing, Cannon paths
    for cache in caches:
        maxsize = cache.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize <= 1024, cache


def test_routing_memo_skips_the_ledger_when_warm(monkeypatch):
    cfg = PlmrConfig(width=16, height=16)
    ones = np.ones((16, 16), np.float32)
    first = [fn(cfg, GemmProblem(ones, ones, 16))[1] for fn in (mesh_gemm, cannon_gemm)]
    calls = []
    original = fabric.RoutingLedger.install_path
    monkeypatch.setattr(fabric.RoutingLedger, "install_path",
                        lambda self, path: calls.append(path) or original(self, path))
    again = [fn(cfg, GemmProblem(ones, ones, 16))[1] for fn in (mesh_gemm, cannon_gemm)]
    assert calls == []
    assert [list(report_lines(r)) for r in again] == [list(report_lines(r)) for r in first]
