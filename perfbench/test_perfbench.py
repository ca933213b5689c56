"""Tests of the benchmark itself: its oracles, statistics, tracer and output."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wafermesh import fabric, kvcache, plan
from wafermesh.fabric import PlmrConfig, SimReport, StepCost

from run import per_layer_value
from tracer import SPANS, Tracer
from workloads import (check_exact, check_generation, check_kv, report_digest, run_phases,
                       sim_stats)

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _generate(n_mesh, out_len, prefill_n, decode_n, seq=32):
    cfg = PlmrConfig(width=n_mesh, height=n_mesh)
    shape = plan.ModelShape(embed=64, heads=8, head_dim=8, ffn=128, seq=seq)
    model = plan.make_toy_model(shape, vocab=64, n_layers=2, seed=0)
    prompt = [i % 64 for i in range(seq)]
    return model, prompt, plan.generate_dist(cfg, model, prompt, out_len, prefill_n, decode_n)


def test_reanchor_scenario_cycles_are_pinned():
    model, prompt, result = _generate(8, 32, 8, 8)
    run = result[2]
    assert (run.total_cycles, run.prefill.total_cycles, run.transition.total_cycles,
            sum(r.total_cycles for r in run.decode)) == (200_403, 43_363, 1_041, 155_999)
    stats = sim_stats(run_phases(run))
    assert stats["sim_cycles"] == 200_403
    assert stats["sim.ttft_cycles"] == 43_363
    assert stats["sim.transition_cycles"] == 1_041
    assert stats["sim.other_cycles"] == 0
    from wafermesh import reference
    assert check_generation(32, result, reference.generate(model, prompt, 32)) is None
    again = _generate(8, 32, 8, 8)[2][2]
    assert ([report_digest(r) for _, r in run_phases(run)]
            == [report_digest(r) for _, r in run_phases(again)])


def test_unknown_step_labels_land_in_other_cycles():
    cfg = PlmrConfig()
    rep = SimReport()
    rep.add_step("layer0.proj_q.step0", StepCost.of(cfg, 2, 0), compute_cycles=5)
    rep.add_step("layer0.renamed_op", StepCost.zero(), compute_cycles=7)
    rep.add_step("something_new", StepCost.of(cfg, 1, 1))
    stats = sim_stats([("decode", rep)])
    assert stats["sim.decode.gemm_cycles"] == 5
    assert stats["sim.other_cycles"] == 7 + 4
    assert stats["sim_cycles"] == rep.total_cycles


def test_digest_sees_costs_violations_and_notes():
    cfg = PlmrConfig()
    rep = SimReport()
    rep.add_step("a", StepCost.of(cfg, 1, 0))
    base = report_digest(rep)
    rep.notes.append("fallback: x")
    with_note = report_digest(rep)
    rep.flag("R", "too many paths")
    assert len({base, with_note, report_digest(rep)}) == 3
    rep.steps[0] = fabric.StepRecord("a", StepCost.of(cfg, 2, 0))
    assert report_digest(rep) not in {base, with_note}


def test_oracles_reject_wrong_results():
    a = np.arange(12, dtype=np.int64).reshape(3, 4)
    got = a.astype(np.float32)
    assert check_exact(got, a) is None
    got[1, 2] += 1
    assert "1 of 12" in check_exact(got, a)
    assert check_exact(got[:2], a) is not None

    cfg = PlmrConfig(width=3, height=3)
    tokens = [5, 9, 2, 7, 11, 4, 8]
    state = kvcache.KvMeshState(width=3, height=3, chunk_capacity=4, chunk_bytes=8)
    for t in tokens:
        kvcache.kv_append_shift(cfg, state, t)
    assert check_kv(state, tokens) is None
    state.columns[1][0].reverse()
    assert "out of order" in check_kv(state, tokens)
    lopsided = kvcache.KvMeshState(width=1, height=2, chunk_capacity=4, chunk_bytes=8,
                                   columns=[[[1, 2, 3], []]])
    assert "spread" in check_kv(lopsided, [1, 2, 3])

    ref = ([3, 1], [np.ones(4), np.ones(4)])
    assert check_generation(2, ([3, 1], [np.ones(4), np.ones(4)], None), ref) is None
    assert "token 1" in check_generation(2, ([3, 2], ref[1], None), ref)
    assert "relative error" in check_generation(2, ([3, 1], [np.ones(4), np.full(4, 1.01)],
                                                        None), ref)


def test_tracer_wraps_only_inside_and_derives_self_time():
    originals = [vars(owner)[attr] for owner, attr, _ in SPANS]
    tracer = Tracer("test")
    with tracer.installed():
        assert plan.generate_dist is not originals[1]
        _generate(4, 3, 2, 4, seq=4)
    assert [vars(owner)[attr] for owner, attr, _ in SPANS] == originals
    totals = tracer.totals()
    assert totals["plan.generate_dist"][0] == 1
    assert totals["plan.execute_decode_layer"][0] == 2 * 2
    calls, incl, own = totals["plan.generate_dist"]
    assert 0 < own < incl
    assert tracer.counts["fabric.sim_steps"] > 0
    assert per_layer_value("plan.execute_decode_layer.calls", {}, totals, 2) == 2


def test_per_layer_names_resolve():
    spans = {name for _, _, name in SPANS}
    direct = {"fabric.sim_steps", "fabric.host_us_per_step", "reference.generate.s",
              "check_s", "trace.host_s", "trace.overhead_s"}
    sim = set(sim_stats([]))
    for m in SPEC["per_layer"]:
        span, _, field = m["name"].rpartition(".")
        assert (m["name"] in direct or m["name"] in sim
                or (span in spans and field in {"calls", "s", "self_s", "us_per_call"})), m


def test_traced_run_prints_contract_line():
    root = HERE.parent
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "prefill_wide", "--seed", "3",
         "--seconds", "0", "--trace", "1"],
        cwd=root, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 3
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["plan.execute_prefill_layer.calls"] == 2
    assert metrics["gemm.mesh_gemm.calls"] > 0
    buckets = [k for k in metrics if k.startswith("sim.") and k.endswith("_cycles")
               and k not in ("sim.comm_cycles", "sim.compute_cycles", "sim.ttft_cycles",
                             "sim.tpot_cycles")]
    detail = json.loads((root / ".bench_out" / "result-prefill_wide-trace1.json").read_text())
    assert sum(metrics[k] for k in buckets) == detail["end_to_end"]["sim_cycles"] == 105_392
    assert {m["name"] for m in SPEC["end_to_end"]} <= set(detail["end_to_end"])


@pytest.mark.parametrize("bad", [["--workload", "nope"], ["--trace", "2"]])
def test_bad_arguments_fail(bad):
    out = subprocess.run([sys.executable, str(HERE / "run.py"), *bad],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""
