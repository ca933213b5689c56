import numpy as np
import pytest

from wafermesh.collectives import group_width
from wafermesh.fabric import ConfigError, PlmrConfig
from wafermesh.gemv import (
    GemvProblem,
    dense_gemv_oracle,
    gemv_pipeline_baseline,
    gemv_ring_baseline,
    mesh_gemv,
)
from wafermesh.tiles import ShapeError

CFG = PlmrConfig(width=64, height=64)


def int_vec(rng, n):
    return rng.integers(-4, 5, size=n).astype(np.float32)


def int_mat(rng, r, c):
    return rng.integers(-4, 5, size=(r, c)).astype(np.float32)


class TestOracle:
    def test_one_hot_selects_row(self):
        rng = np.random.default_rng(0)
        b = int_mat(rng, 6, 6)
        e2 = np.zeros(6, dtype=np.float32)
        e2[2] = 1.0
        assert np.array_equal(dense_gemv_oracle(e2, b), b[2].astype(np.float64))

    def test_ones_identity(self):
        assert np.array_equal(dense_gemv_oracle(np.ones(2), np.eye(2)), np.ones(2))

    def test_second_implementation(self):
        rng = np.random.default_rng(1)
        a, b = int_vec(rng, 16), int_mat(rng, 16, 16)
        second = a.astype(np.float64) @ b.astype(np.float64)
        assert np.array_equal(dense_gemv_oracle(a, b), second)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            dense_gemv_oracle(np.ones(3), np.ones((4, 4)))


class TestEquivalence:
    def test_sweep(self):
        for n in (1, 4, 9, 16):
            rng = np.random.default_rng(n)
            a, b = int_vec(rng, 32), int_mat(rng, 32, 32)
            expected = dense_gemv_oracle(a, b)
            problem = GemvProblem(a, b, n)
            for run in (
                lambda p: mesh_gemv(CFG, p, k=2),
                lambda p: gemv_pipeline_baseline(CFG, p),
                lambda p: gemv_ring_baseline(CFG, p),
            ):
                c, _ = run(problem)
                assert np.array_equal(c.astype(np.float64), expected), n

    def test_broadcast_mode_same_result(self):
        rng = np.random.default_rng(2)
        a, b = int_vec(rng, 16), int_mat(rng, 16, 16)
        c1, rep1 = mesh_gemv(CFG, GemvProblem(a, b, 4), k=2, broadcast=False)
        c2, rep2 = mesh_gemv(CFG, GemvProblem(a, b, 4), k=2, broadcast=True)
        assert np.array_equal(c1, c2)
        assert rep2.comm_cycles > rep1.comm_cycles
        assert any(s.label.endswith("broadcast") for s in rep2.steps)
        assert not any(s.label.endswith("broadcast") for s in rep1.steps)


class TestCosts:
    def test_n16_stage_comparison(self):
        rng = np.random.default_rng(3)
        a, b = int_vec(rng, 16), int_mat(rng, 16, 16)
        _, tree_rep = mesh_gemv(CFG, GemvProblem(a, b, 16), k=2)
        _, pipe_rep = gemv_pipeline_baseline(CFG, GemvProblem(a, b, 16))
        assert tree_rep.total_routing_stages == 4
        assert pipe_rep.total_routing_stages == 16

    def test_ordering_beyond_16(self):
        for n in (16, 25, 36):
            rng = np.random.default_rng(n)
            a, b = int_vec(rng, n), int_mat(rng, n, n)
            _, t = mesh_gemv(CFG, GemvProblem(a, b, n), k=2)
            _, p = gemv_pipeline_baseline(CFG, GemvProblem(a, b, n))
            _, r = gemv_ring_baseline(CFG, GemvProblem(a, b, n))
            assert t.comm_cycles < p.comm_cycles
            assert t.comm_cycles < r.comm_cycles
            # and below the closed-form envelopes for the baselines
            assert t.comm_cycles < (2 * CFG.alpha + CFG.beta) * n
            assert t.comm_cycles < CFG.alpha * 2 * n + CFG.beta * n
            stage_bound = group_width(n, 2) + 1
            assert t.total_routing_stages <= stage_bound

    def test_path_budget(self):
        rng = np.random.default_rng(4)
        a, b = int_vec(rng, 64), int_mat(rng, 64, 64)
        for k in (1, 2, 3):
            _, rep = mesh_gemv(CFG, GemvProblem(a, b, 16), k=k, broadcast=True)
            assert rep.max_paths_per_core <= k + 1
            assert rep.max_paths_per_core <= CFG.route_budget

    def test_k1_single_phase(self):
        rng = np.random.default_rng(5)
        a, b = int_vec(rng, 8), int_mat(rng, 8, 8)
        c, rep = mesh_gemv(CFG, GemvProblem(a, b, 8), k=1)
        assert np.array_equal(c.astype(np.float64), dense_gemv_oracle(a, b))
        assert len(rep.steps_labeled("allreduce.phase")) == 1
        assert rep.total_routing_stages == -(-(8 - 1) // 2)

    def test_larger_k_not_always_better(self):
        # Some sizes favor k=3, others do not: both cases must exist.
        def latency(n, k):
            rng = np.random.default_rng(0)
            a, b = int_vec(rng, n), int_mat(rng, n, n)
            _, rep = mesh_gemv(CFG, GemvProblem(a, b, n), k=k)
            return rep.comm_cycles

        wins = [n for n in (4, 9, 16, 64) if latency(n, 3) < latency(n, 2)]
        not_wins = [n for n in (4, 9, 16, 64) if latency(n, 3) >= latency(n, 2)]
        assert wins and not_wins


class TestGridValidation:
    @pytest.mark.parametrize("algo", [mesh_gemv, gemv_pipeline_baseline, gemv_ring_baseline],
                             ids=lambda f: f.__name__)
    def test_grid_larger_than_mesh_names_the_op(self, algo):
        rng = np.random.default_rng(4)
        a, b = int_vec(rng, 16), int_mat(rng, 16, 16)
        small = PlmrConfig(width=2, height=2)
        with pytest.raises(ConfigError, match=rf"^{algo.__name__}: 8x8 grid larger than the 2x2"):
            algo(small, GemvProblem(a, b, 8))
        c, _ = algo(small, GemvProblem(a, b, 2))
        assert np.array_equal(c.astype(np.float64), dense_gemv_oracle(a, b))

    def test_one_short_side_is_enough_to_reject(self):
        rng = np.random.default_rng(4)
        a, b = int_vec(rng, 16), int_mat(rng, 16, 16)
        with pytest.raises(ConfigError, match="mesh_gemv"):
            mesh_gemv(PlmrConfig(width=8, height=4), GemvProblem(a, b, 8))
