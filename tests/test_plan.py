import hashlib

import numpy as np
import pytest

from wafermesh import reference
from wafermesh.fabric import CapacityError, ConfigError, PlmrConfig
from wafermesh.plan import (
    KvValueStore,
    LayerWeights,
    ModelShape,
    PlanOp,
    autotune,
    execute_decode_layer,
    execute_prefill_layer,
    generate_dist,
    make_toy_model,
    new_kv_state,
    plan_decode,
    plan_prefill,
    select_best,
    transition,
)

CFG = PlmrConfig(width=16, height=16)
SHAPE = ModelShape(embed=32, heads=4, head_dim=8, ffn=64, seq=16)


def rel_err(got, want):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    return float(np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want))))


# The full notation dumps of both phases for SHAPE on 4x4, as first recorded.
PREFILL_DUMP = """\
prefill plan on 4x4 cores
  x: BL_yE_x
  wq: E_yH_x (pre-rotated)
  wk: E_yH_x (pre-rotated)
  wv: E_yH_x (pre-rotated)
  wo: H_yE_x (pre-rotated)
  win: E_yF_x (pre-rotated)
  wout: F_yE_x (pre-rotated)
  norm1: rmsnorm(x) -> xn
  proj_q: dist_gemm(xn, wq) -> q
  proj_k: dist_gemm(xn, wk) -> k
  proj_v: dist_gemm(xn, wv) -> v
  cache_kv: kv_append(k, v) -> kv
  score_h0: dist_gemm_t(q, k) -> s0
  probs_h0: softmax(s0) -> p0
  attn_h0: dist_gemm(p0, v) -> a0
  score_h1: dist_gemm_t(q, k) -> s1
  probs_h1: softmax(s1) -> p1
  attn_h1: dist_gemm(p1, v) -> a1
  score_h2: dist_gemm_t(q, k) -> s2
  probs_h2: softmax(s2) -> p2
  attn_h2: dist_gemm(p2, v) -> a2
  score_h3: dist_gemm_t(q, k) -> s3
  probs_h3: softmax(s3) -> p3
  attn_h3: dist_gemm(p3, v) -> a3
  concat: concat_heads(a0, a1, a2, a3) -> attn
  proj_o: dist_gemm(attn, wo) -> o
  res1: residual_add(x, o) -> x1
  norm2: rmsnorm(x1) -> x1n
  ffn_in: dist_gemm(x1n, win) -> ffn
  act: relu(ffn) -> ffn_r
  ffn_out: dist_gemm(ffn_r, wout) -> ffn2
  res2: residual_add(x1, ffn2) -> y"""

DECODE_DUMP = """\
decode plan on 4x4 cores
  x: BE_yL^x
  wq: E_yH_x
  wk: E_yH_x
  wv: E_yH_x
  wo: H_yE_x
  win: E_yF_x
  wout: F_yE_x
  norm1: rmsnorm(x) -> xn
  proj_q: dist_gemv(xn, wq) -> q
  proj_k: dist_gemv(xn, wk) -> k
  proj_v: dist_gemv(xn, wv) -> v
  cache_kv: kv_append(k, v) -> kv
  score_h0: cache_gemv_qk(q, kv) -> s0
  probs_h0: softmax(s0) -> p0
  attn_h0: cache_gemv_pv(p0, kv) -> a0
  score_h1: cache_gemv_qk(q, kv) -> s1
  probs_h1: softmax(s1) -> p1
  attn_h1: cache_gemv_pv(p1, kv) -> a1
  score_h2: cache_gemv_qk(q, kv) -> s2
  probs_h2: softmax(s2) -> p2
  attn_h2: cache_gemv_pv(p2, kv) -> a2
  score_h3: cache_gemv_qk(q, kv) -> s3
  probs_h3: softmax(s3) -> p3
  attn_h3: cache_gemv_pv(p3, kv) -> a3
  concat: concat_heads(a0, a1, a2, a3) -> attn
  proj_o: dist_gemv(attn, wo) -> o
  res1: residual_add(x, o) -> x1
  norm2: rmsnorm(x1) -> x1n
  ffn_in: dist_gemv(x1n, win) -> ffn
  act: relu(ffn) -> ffn_r
  ffn_out: dist_gemv(ffn_r, wout) -> ffn2
  res2: residual_add(x1, ffn2) -> y"""


class TestShapes:
    def test_embed_consistency(self):
        with pytest.raises(ValueError):
            ModelShape(embed=32, heads=4, head_dim=4, ffn=64, seq=8)

    def test_positive(self):
        with pytest.raises(ValueError):
            ModelShape(embed=0, heads=1, head_dim=0, ffn=1, seq=1)


class TestPlans:
    def test_prefill_layouts(self):
        plan = plan_prefill(CFG, SHAPE, 4)
        assert plan.tensors["x"].notation(batch_prefix=True) == "BL_yE_x"
        assert plan.tensors["win"].notation() == "E_yF_x"
        assert all(tp.variant == "skewed" for name, tp in plan.tensors.items() if name != "x")

    def test_decode_layouts(self):
        plan = plan_decode(CFG, SHAPE, 4)
        assert plan.tensors["x"].notation(batch_prefix=True) == "BE_yL^x"
        assert all(tp.variant == "aligned" for name, tp in plan.tensors.items() if name != "x")

    def test_transpose_freedom(self):
        for n in (2, 4, 8):
            for plan in (plan_prefill(CFG, SHAPE, n), plan_decode(CFG, SHAPE, n)):
                assert plan.transpose_ops() == []
        pre = plan_prefill(CFG, SHAPE, 4)
        assert any(op.kind == "dist_gemm_t" for op in pre.ops)
        dec = plan_decode(CFG, SHAPE, 4)
        proj_kinds = {op.kind for op in dec.ops if op.name.startswith(("proj", "ffn"))}
        assert proj_kinds == {"dist_gemv"}
        assert "dist_gemm" not in dec.op_kinds()

    def test_memory_infeasible_names_tensor(self):
        tight = PlmrConfig(width=16, height=16, mem_per_core=1024)
        with pytest.raises(CapacityError, match="tensor w"):
            plan_prefill(tight, SHAPE, 2)

    @pytest.mark.parametrize("planner", [plan_prefill, plan_decode])
    def test_grid_larger_than_mesh_is_a_config_error(self, planner):
        with pytest.raises(ConfigError, match=rf"^{planner.__name__}: 16x16 grid larger than the 8x8"):
            planner(PlmrConfig(width=8, height=8), SHAPE, 16)

    def test_grid_1x1_degenerates_to_dense(self):
        roomy = PlmrConfig(width=4, height=4, mem_per_core=1 << 20)
        plan = plan_prefill(roomy, SHAPE, 1)
        assert plan.grid == (1, 1)

    def test_notation_dump(self):
        assert plan_prefill(CFG, SHAPE, 4).notation_dump() == PREFILL_DUMP
        assert plan_decode(CFG, SHAPE, 4).notation_dump() == DECODE_DUMP


class TestExecutePrefill:
    def test_matches_dense_reference(self):
        shape = ModelShape(embed=32, heads=4, head_dim=8, ffn=64, seq=8)
        model = make_toy_model(shape, seed=3, n_layers=1)
        plan = plan_prefill(CFG, shape, 3)
        x = model.embed[np.arange(8) % model.vocab].astype(np.float32)
        state = new_kv_state(shape, 3, 16)
        store = KvValueStore(16, 32)
        y, report = execute_prefill_layer(CFG, plan, x, model.layers[0], state, store, 0)
        expected, k_ref, v_ref = reference.prefill_layer(x.astype(np.float64),
                                                         model.layers[0], shape.heads)
        assert rel_err(y, expected) <= 1e-4
        assert report.total_cycles > 0
        assert state.total_tokens == 8
        for t in range(8):
            assert rel_err(store.k[t], k_ref[t]) <= 1e-4

    def test_zero_weights_pass_input_through(self):
        shape = ModelShape(embed=8, heads=2, head_dim=4, ffn=8, seq=4)
        zeros = LayerWeights(
            wq=np.zeros((8, 8), np.float32), wk=np.zeros((8, 8), np.float32),
            wv=np.zeros((8, 8), np.float32), wo=np.zeros((8, 8), np.float32),
            win=np.zeros((8, 8), np.float32), wout=np.zeros((8, 8), np.float32),
            gamma1=np.ones(8, np.float32), gamma2=np.ones(8, np.float32),
        )
        plan = plan_prefill(CFG, shape, 2)
        x = np.random.default_rng(0).standard_normal((4, 8)).astype(np.float32)
        y, _ = execute_prefill_layer(CFG, plan, x, zeros, new_kv_state(shape, 2, 8),
                                     KvValueStore(8, 8), 0)
        assert np.array_equal(y, x)  # residuals only; attention output is zero

    def test_kv_store_overflow_is_a_capacity_error(self):
        shape = ModelShape(embed=8, heads=2, head_dim=4, ffn=8, seq=4)
        model = make_toy_model(shape, seed=0, n_layers=1)
        plan = plan_prefill(CFG, shape, 2)
        with pytest.raises(CapacityError, match="cache_kv: K/V store holds 3 tokens, need 4"):
            execute_prefill_layer(CFG, plan, model.embed[:4], model.layers[0],
                                  new_kv_state(shape, 2, 8), KvValueStore(3, 8), 0)


@pytest.mark.parametrize("phase, execute, planner", [
    ("prefill", execute_prefill_layer, plan_prefill),
    ("decode", execute_decode_layer, plan_decode),
])
def test_unknown_op_kind_is_rejected_naming_the_phase(phase, execute, planner):
    shape = ModelShape(embed=8, heads=2, head_dim=4, ffn=8, seq=4)
    model = make_toy_model(shape, seed=0, n_layers=1)
    plan = planner(CFG, shape, 2)
    plan.ops.insert(1, PlanOp("transpose", "flip", ("xn",), "xt"))
    x = model.embed[:4] if phase == "prefill" else model.embed[0]
    with pytest.raises(ValueError, match=f"^{phase} plan contains unexpected op kind 'transpose'"):
        execute(CFG, plan, x, model.layers[0], new_kv_state(shape, 2, 8), KvValueStore(8, 8), 0)


class TestExecuteDecode:
    def test_sequential_tokens_match_reference(self):
        shape = ModelShape(embed=32, heads=4, head_dim=8, ffn=64, seq=1)
        model = make_toy_model(shape, seed=4, n_layers=1)
        w = model.layers[0]
        plan = plan_decode(CFG, shape, 4)
        state = new_kv_state(shape, 4, 16)
        store = KvValueStore(16, 32)
        k_ref: list[np.ndarray] = []
        v_ref: list[np.ndarray] = []
        rng = np.random.default_rng(9)
        for t in range(8):
            x = rng.standard_normal(32).astype(np.float32)
            y, _ = execute_decode_layer(CFG, plan, x, w, state, store, token=t)
            expected = reference.decode_layer(x.astype(np.float64), w, shape.heads,
                                              k_ref, v_ref)
            assert rel_err(y, expected) <= 1e-4, t
            assert state.spread() <= 1


class TestTransition:
    def test_same_plan_zero_cost(self):
        model = make_toy_model(SHAPE, seed=0)
        plan_a = plan_decode(CFG, SHAPE, 4)
        plan_b = plan_decode(CFG, SHAPE, 4)
        states = [new_kv_state(SHAPE, 4, 8) for _ in model.layers]
        _, report = transition(CFG, model, plan_a, plan_b, states, 8)
        assert report.total_cycles == 0
        assert report.meta["bytes_moved"] == 0

    def test_prefill_to_decode_moves_weights(self):
        model = make_toy_model(SHAPE, seed=0)
        pre = plan_prefill(CFG, SHAPE, 4)
        dec = plan_decode(CFG, SHAPE, 4)
        states = [new_kv_state(SHAPE, 4, 8) for _ in model.layers]
        _, report = transition(CFG, model, pre, dec, states, 8)
        weight_bytes = sum(arr.nbytes for _, arr in model.layers[0].named()) * len(model.layers)
        assert report.meta["bytes_moved"] == weight_bytes

    def test_grid_change_replaces_kv_and_preserves_order(self):
        model = make_toy_model(SHAPE, seed=0)
        pre = plan_prefill(CFG, SHAPE, 4)
        dec = plan_decode(CFG, SHAPE, 2)
        states = [new_kv_state(SHAPE, 4, 12) for _ in model.layers]
        for t in range(6):
            from wafermesh.kvcache import kv_append_shift
            for st in states:
                kv_append_shift(CFG, st, t)
        new_states, report = transition(CFG, model, pre, dec, states, 12)
        for st in new_states:
            assert st.width == 2 and st.height == 2
            assert st.token_order() == list(range(6))
            assert st.spread() <= 1
        assert report.meta["bytes_moved"] > 0

    def test_cheaper_than_one_decode_step(self):
        model = make_toy_model(SHAPE, seed=0)
        prompt = [i % model.vocab for i in range(8)]
        _, _, run = generate_dist(CFG, model, prompt, 4, 4, 4)
        assert run.transition.total_cycles < run.decode[0].total_cycles


class TestGenerate:
    def test_token_for_token(self):
        model = make_toy_model(SHAPE, seed=0)
        prompt = [i % model.vocab for i in range(16)]
        tokens, hiddens, _ = generate_dist(CFG, model, prompt, 8, 4, 4)
        ref_tokens, ref_hiddens = reference.generate(model, prompt, 8)
        assert tokens == ref_tokens
        for h, rh in zip(hiddens, ref_hiddens):
            assert rel_err(h, rh) <= 1e-4

    def test_different_grids_same_tokens(self):
        model = make_toy_model(SHAPE, seed=1)
        prompt = [i % model.vocab for i in range(8)]
        ref_tokens, _ = reference.generate(model, prompt, 6)
        for np_, nd in [(2, 2), (4, 2), (8, 4)]:
            tokens, _, _ = generate_dist(CFG, model, prompt, 6, np_, nd)
            assert tokens == ref_tokens, (np_, nd)

    @pytest.mark.parametrize("out_len", [0, -3])
    def test_out_len_below_one_is_a_config_error(self, out_len):
        model = make_toy_model(SHAPE, seed=0)
        with pytest.raises(ConfigError, match=f"^out_len must be >= 1, got {out_len}$"):
            generate_dist(CFG, model, [0, 1], out_len, 2, 2)
        with pytest.raises(ConfigError, match=f"^out_len must be >= 1, got {out_len}$"):
            autotune(CFG, model, 2, out_len, [2])

    def test_seed_recorded(self):
        model = make_toy_model(SHAPE, seed=42)
        prompt = [0, 1, 2, 3]
        _, _, run = generate_dist(CFG, model, prompt, 2, 2, 2)
        assert run.seed == 42
        assert run.prefill.meta["seed"] == 42


class TestCostCurves:
    def test_prefill_decreases_then_flattens(self):
        model = make_toy_model(SHAPE, seed=0)
        prompt = [i % model.vocab for i in range(16)]
        cycles = {}
        for n in (2, 4, 8):
            _, _, run = generate_dist(CFG, model, prompt, 2, n, n)
            cycles[n] = run.prefill.total_cycles
        assert cycles[2] > cycles[4]
        assert abs(cycles[4] - cycles[8]) < (cycles[2] - cycles[4])

    def test_decode_inflection(self):
        model = make_toy_model(SHAPE, seed=0)
        prompt = [i % model.vocab for i in range(8)]
        cycles = {}
        for n in (4, 8, 16):
            _, _, run = generate_dist(CFG, model, prompt, 4, 4, n)
            cycles[n] = sum(r.total_cycles for r in run.decode)
        assert cycles[8] < cycles[4]  # first decreases
        assert cycles[16] > cycles[8]  # then communication wins


class TestAutotune:
    def test_single_candidate(self):
        model = make_toy_model(SHAPE, seed=0)
        result = autotune(CFG, model, 8, 4, [4])
        assert (result.prefill_n, result.decode_n) == (4, 4)
        assert len(result.entries) == 1

    def test_matches_exhaustive_sweep(self):
        model = make_toy_model(SHAPE, seed=0)
        result = autotune(CFG, model, 8, 4, [2, 4])
        best = min(result.entries, key=lambda e: (e[2], e[0] ** 2, e[1] ** 2))
        assert (result.prefill_n, result.decode_n) == (best[0], best[1])

    def test_tie_break_smaller_grid(self):
        entries = [(8, 8, 1000), (2, 4, 1000), (4, 2, 1000), (2, 4, 2000)]
        assert select_best(entries) == (2, 4, 1000)
        duplicated = [(4, 4, 500), (4, 4, 500)]
        assert select_best(duplicated) == (4, 4, 500)

    def test_infeasible_excluded_with_reason(self):
        tight = PlmrConfig(width=16, height=16, mem_per_core=3000)
        model = make_toy_model(SHAPE, seed=0)
        result = autotune(tight, model, 8, 2, [2, 8])
        assert 2 in result.infeasible
        assert "budget" in result.infeasible[2]
        assert result.prefill_n == 8

    def test_all_infeasible(self):
        tiny = PlmrConfig(width=16, height=16, mem_per_core=256)
        model = make_toy_model(SHAPE, seed=0)
        result = autotune(tiny, model, 8, 2, [2, 4])
        assert not result.feasible
        assert set(result.infeasible) == {2, 4}

    def test_grid_larger_than_mesh_is_an_error_not_infeasible(self):
        model = make_toy_model(SHAPE, seed=0)
        with pytest.raises(ConfigError, match="^plan_prefill: 16x16 grid larger than the 8x8"):
            autotune(PlmrConfig(width=8, height=8), model, 8, 2, [4, 16])

    def test_empty_candidates(self):
        model = make_toy_model(SHAPE, seed=0)
        with pytest.raises(ValueError):
            autotune(CFG, model, 8, 2, [])


class TestPinnedReport:
    # SHA-256 over every step (label, hops, stages, latency, bytes, compute,
    # overlap), peak memory, path count, violation and note of the re-anchor
    # scenario's prefill, transition and decode reports, as first recorded.
    REANCHOR_SHA = "1a1c834c0472e548d4abae6a6cc68c0803c24644ad91b542e6460e20d8a8bf37"

    @staticmethod
    def _lines(report):
        yield f"{report.algorithm}|{report.peak_mem_bytes}|{report.max_paths_per_core}"
        for s in report.steps:
            c = s.comm
            yield (f"{s.label}|{c.hops_critical}|{c.routing_stages_critical}|"
                   f"{c.latency_cycles}|{c.bytes_moved}|{s.compute_cycles}|{int(s.overlap)}")
        yield from (f"V|{v}" for v in report.violations)
        yield from (f"N|{n}" for n in report.notes)

    @classmethod
    def _run(cls, embed, heads, ffn, seq, out, prefill_n, decode_n):
        shape = ModelShape(embed=embed, heads=heads, head_dim=embed // heads, ffn=ffn, seq=seq)
        model = make_toy_model(shape, vocab=64, n_layers=2, seed=0)
        prompt = [i % 64 for i in range(seq)]
        _, _, run = generate_dist(PlmrConfig(width=8, height=8), model, prompt, out,
                                  prefill_n, decode_n)
        lines = [line for rep in [run.prefill, run.transition, *run.decode]
                 for line in cls._lines(rep)]
        totals = (run.total_cycles, run.prefill.total_cycles, run.transition.total_cycles)
        return totals, hashlib.sha256("\n".join(lines).encode()).hexdigest()

    def test_reanchor_scenario_full_report_is_pinned(self):
        totals, sha = self._run(64, 8, 128, 32, 32, 8, 8)
        assert totals == (200_403, 43_363, 1_041)
        assert sha == self.REANCHOR_SHA

    # Decode branches the re-anchor scenario misses, pinned the same way.
    @pytest.mark.parametrize("dims, totals, sha", [
        # cols_per_head = 2: each head's score runs the .xsum allreduce; the
        # grid changes between phases, so the KV cache is re-placed.
        ((32, 4, 64, 8, 8, 4, 8), (21_148, 10_076, 289),
         "0fbef47dcff3ead3ea6e908e3a7b8f6a75a7607989354f9722c2329496ef87e2"),
        # heads_per_col = 3 on a 3x3 grid that does not divide E = 64.
        ((64, 8, 128, 8, 6, 3, 3), (170_159, 74_220, 7_289),
         "69debbd5d575cc78a522b9956b3df02b6487fc002b721dd3df6a29bb79aa67ac"),
    ], ids=["cols_per_head_2", "heads_per_col_3"])
    def test_decode_branch_scenario_full_report_is_pinned(self, dims, totals, sha):
        assert self._run(*dims) == (totals, sha)
