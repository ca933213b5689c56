import numpy as np
import pytest

from wafermesh.fabric import CapacityError, ConfigError, PlmrConfig
from wafermesh.gemm import (
    GemmProblem,
    _split,
    _unsplit,
    allgather_gemm,
    allgather_peak_bytes,
    cannon_gemm,
    dense_gemm_oracle,
    dist_gemm_t,
    embed_nonsquare,
    mesh_gemm,
    summa_gemm,
)
from wafermesh.tiles import ShapeError

CFG = PlmrConfig(width=64, height=64)
ALGOS = [mesh_gemm, cannon_gemm, summa_gemm, allgather_gemm]


def int_matrix(rng, rows, cols):
    return rng.integers(-4, 5, size=(rows, cols)).astype(np.float32)


class TestOracle:
    def test_identity(self):
        x = np.arange(9, dtype=np.float32).reshape(3, 3)
        assert np.array_equal(dense_gemm_oracle(np.eye(3), x), x.astype(np.float64))

    def test_scalar(self):
        assert dense_gemm_oracle(np.array([[2.0]]), np.array([[3.0]]))[0, 0] == 6.0

    def test_against_second_implementation(self):
        rng = np.random.default_rng(0)
        a, b = int_matrix(rng, 8, 8), int_matrix(rng, 8, 8)
        second = np.einsum("ik,kj->ij", a.astype(np.float64), b.astype(np.float64))
        assert np.array_equal(dense_gemm_oracle(a, b), second)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            dense_gemm_oracle(np.ones((2, 3)), np.ones((2, 3)))


class TestOracleEquivalence:
    def test_sweep(self):
        for n in (1, 2, 3, 4, 5, 8):
            for mult in (1, 4):
                size = n * mult
                for seed in range(3):
                    rng = np.random.default_rng(seed)
                    a, b = int_matrix(rng, size, size), int_matrix(rng, size, size)
                    expected = dense_gemm_oracle(a, b)
                    for algo in ALGOS:
                        c, _ = algo(CFG, GemmProblem(a, b, n))
                        assert np.array_equal(c.astype(np.float64), expected), (algo, n, size, seed)
                    ct, _ = dist_gemm_t(CFG, GemmProblem(a, b, n))
                    assert np.array_equal(ct.astype(np.float64), dense_gemm_oracle(a, b.T))

    def test_rectangular_shapes(self):
        rng = np.random.default_rng(9)
        a, b = int_matrix(rng, 12, 8), int_matrix(rng, 8, 20)
        expected = dense_gemm_oracle(a, b)
        for algo in ALGOS:
            c, _ = algo(CFG, GemmProblem(a, b, 4))
            assert np.array_equal(c.astype(np.float64), expected)

    def test_float_tolerance(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((16, 16)).astype(np.float32)
        b = rng.standard_normal((16, 16)).astype(np.float32)
        expected = dense_gemm_oracle(a, b)
        for algo in ALGOS:
            c, _ = algo(CFG, GemmProblem(a, b, 4))
            rel = np.max(np.abs(c - expected)) / max(1.0, np.max(np.abs(expected)))
            assert rel <= 1e-5


class TestSplit:
    def test_unsplit_inverts_split(self):
        rng = np.random.default_rng(2)
        for n in range(1, 9):
            for shape in [(n, n), (4 * n, 2 * n), (n + 1, 2 * n - 1), (5, 7), (1, 9)]:
                m = rng.standard_normal(shape).astype(np.float32)
                assert np.array_equal(_unsplit(_split(m, n), *m.shape), m), (n, shape)


class TestStepCosts:
    def test_mesh_flat_two_hops(self):
        for n in (3, 5, 8, 16, 64):
            rng = np.random.default_rng(0)
            a, b = int_matrix(rng, n, n), int_matrix(rng, n, n)
            _, report = mesh_gemm(CFG, GemmProblem(a, b, n))
            for step in report.steps:
                assert step.comm.latency_cycles == 2 * CFG.alpha, (n, step.label)
            assert len(report.steps_labeled("step")) == n

    def test_cannon_linear_hops(self):
        for n in (3, 5, 8, 16):
            rng = np.random.default_rng(0)
            a, b = int_matrix(rng, n, n), int_matrix(rng, n, n)
            _, report = cannon_gemm(CFG, GemmProblem(a, b, n))
            for step in report.steps:
                assert step.comm.latency_cycles == CFG.alpha * (n - 1), (n, step.label)

    def test_summa_relay_cost(self):
        for n in (3, 5, 8, 16):
            rng = np.random.default_rng(0)
            a, b = int_matrix(rng, n, n), int_matrix(rng, n, n)
            _, report = summa_gemm(CFG, GemmProblem(a, b, n))
            for step in report.steps:
                assert step.comm.latency_cycles == (CFG.alpha + CFG.beta) * (n - 1)
            # no alignment phase in the broadcast algorithms
            assert not report.steps_labeled("align")

    def test_mesh_alignment_reported_separately(self):
        rng = np.random.default_rng(0)
        a, b = int_matrix(rng, 5, 5), int_matrix(rng, 5, 5)
        _, report = mesh_gemm(CFG, GemmProblem(a, b, 5))
        assert len(report.steps_labeled("align")) == 4
        assert len(report.steps_labeled("step")) == 5

    def test_mesh_vs_cannon_per_step_hops_n5(self):
        rng = np.random.default_rng(0)
        a, b = int_matrix(rng, 5, 5), int_matrix(rng, 5, 5)
        _, mesh_rep = mesh_gemm(CFG, GemmProblem(a, b, 5))
        _, cannon_rep = cannon_gemm(CFG, GemmProblem(a, b, 5))
        assert mesh_rep.steps_labeled("step")[0].comm.hops_critical == 2
        assert cannon_rep.steps_labeled("step")[0].comm.hops_critical == 4


class TestMemory:
    def test_shift_algorithms_near_floor(self):
        rng = np.random.default_rng(1)
        a, b = int_matrix(rng, 16, 16), int_matrix(rng, 16, 16)
        floor = 3 * (4 * 4 * 4)  # A_sub + B_sub + C_sub on a 4x4 grid
        for algo in (mesh_gemm, cannon_gemm):
            _, report = algo(CFG, GemmProblem(a, b, 4))
            assert report.peak_mem_bytes <= 2.5 * floor

    def test_allgather_grows_linearly(self):
        rng = np.random.default_rng(1)
        peaks = {}
        for n in (4, 8):
            size = 8 * n
            a, b = int_matrix(rng, size, size), int_matrix(rng, size, size)
            _, report = allgather_gemm(CFG, GemmProblem(a, b, n))
            floor = 3 * (8 * 8 * 4)
            peaks[n] = report.peak_mem_bytes / floor
        assert peaks[8] / peaks[4] > 1.5  # roughly linear in n against the floor

    def test_capacity_error_names_core(self):
        tight = PlmrConfig(width=8, height=8, mem_per_core=64)
        rng = np.random.default_rng(1)
        a, b = int_matrix(rng, 16, 16), int_matrix(rng, 16, 16)
        with pytest.raises(CapacityError, match=r"core \("):
            mesh_gemm(tight, GemmProblem(a, b, 2))

    def test_allgather_flags_instead_of_raising(self):
        tight = PlmrConfig(width=8, height=8, mem_per_core=1024)
        rng = np.random.default_rng(1)
        a, b = int_matrix(rng, 64, 64), int_matrix(rng, 64, 64)
        c, report = allgather_gemm(tight, GemmProblem(a, b, 8))
        assert report.has_violation("M")
        assert np.array_equal(c.astype(np.float64), dense_gemm_oracle(a, b))

    def test_allgather_accounting_at_paper_point(self):
        # 1024x1024 on 64x64 cores: two retained panels exceed 48 KiB.
        peak = allgather_peak_bytes(64, 1024, 1024, 1024)
        assert peak == 2 * 1024 * 16 * 4 + 16 * 16 * 4
        assert peak > 48 * 1024

    def test_allgather_m_violation_at_full_scale(self):
        rng = np.random.default_rng(0)
        a = rng.integers(-4, 5, (1024, 1024)).astype(np.float32)
        b = rng.integers(-4, 5, (1024, 1024)).astype(np.float32)
        c, report = allgather_gemm(CFG, GemmProblem(a, b, 64))
        assert report.has_violation("M")
        assert report.peak_mem_bytes == allgather_peak_bytes(64, 1024, 1024, 1024)
        # run still completes and stays correct under accounting-only budget
        expected = (a.astype(np.float64) @ b.astype(np.float64)).astype(np.float32)
        assert np.array_equal(c, expected)


class TestRouting:
    def test_shift_algorithms_constant_paths(self):
        rng = np.random.default_rng(2)
        for n in (3, 4, 5, 8, 16):
            a, b = int_matrix(rng, n, n), int_matrix(rng, n, n)
            for algo in (mesh_gemm, cannon_gemm):
                _, report = algo(CFG, GemmProblem(a, b, n))
                assert report.max_paths_per_core <= 6
                assert not report.has_violation("R")

    def test_broadcast_algorithms_flag_over_budget(self):
        rng = np.random.default_rng(2)
        a, b = int_matrix(rng, 40, 40), int_matrix(rng, 40, 40)
        for algo in (summa_gemm, allgather_gemm):
            c, report = algo(CFG, GemmProblem(a, b, 40))
            assert report.max_paths_per_core == 40
            assert report.has_violation("R")
            assert np.array_equal(c.astype(np.float64), dense_gemm_oracle(a, b))
        a16, b16 = int_matrix(rng, 16, 16), int_matrix(rng, 16, 16)
        _, report16 = summa_gemm(CFG, GemmProblem(a16, b16, 16))
        assert not report16.has_violation("R")

    @pytest.mark.parametrize("algo", [mesh_gemm, cannon_gemm, dist_gemm_t])
    def test_shift_algorithms_flag_demand_over_budget(self, algo):
        ones = np.ones((8, 8), np.float32)
        _, tight = algo(PlmrConfig(width=8, height=8, route_budget=4), GemmProblem(ones, ones, 8))
        assert tight.max_paths_per_core == 4
        assert tight.violations == ["R: 6 paths/core demanded > budget 4"]
        _, roomy = algo(PlmrConfig(width=8, height=8), GemmProblem(ones, ones, 8))
        assert roomy.max_paths_per_core == 6
        assert not roomy.violations


class TestAlignmentNegativeControl:
    def test_skipping_alignment_breaks_result(self):
        rng = np.random.default_rng(3)
        a, b = int_matrix(rng, 8, 8), int_matrix(rng, 8, 8)
        expected = dense_gemm_oracle(a, b)
        c, report = mesh_gemm(CFG, GemmProblem(a, b, 4), skip_alignment=True)
        assert not np.array_equal(c.astype(np.float64), expected)
        assert any("alignment skipped" in note for note in report.notes)


class TestDistGemmT:
    def test_symmetric_b_matches_mesh(self):
        rng = np.random.default_rng(4)
        a = int_matrix(rng, 8, 8)
        s = int_matrix(rng, 8, 8)
        b = s + s.T  # symmetric
        ct, _ = dist_gemm_t(CFG, GemmProblem(a, b, 4))
        cm, _ = mesh_gemm(CFG, GemmProblem(a, b, 4))
        assert np.array_equal(ct, cm)

    def test_identity_a_gives_b_transpose(self):
        rng = np.random.default_rng(4)
        b = int_matrix(rng, 8, 8)
        ct, _ = dist_gemm_t(CFG, GemmProblem(np.eye(8, dtype=np.float32), b, 4))
        assert np.array_equal(ct, b.T)

    def test_no_alignment_steps(self):
        rng = np.random.default_rng(4)
        a, b = int_matrix(rng, 8, 8), int_matrix(rng, 8, 8)
        _, report = dist_gemm_t(CFG, GemmProblem(a, b, 4))
        assert not report.steps_labeled("align")
        shifts = report.steps_labeled("step")
        assert any(s.label.endswith(".shift") for s in shifts)
        assert any(s.label.endswith(".reduce") for s in shifts)

    def test_rectangular(self):
        rng = np.random.default_rng(4)
        a = int_matrix(rng, 12, 8)
        b = int_matrix(rng, 20, 8)  # (R, K); result is 12 x 20
        ct, _ = dist_gemm_t(CFG, GemmProblem(a, b, 4))
        assert np.array_equal(ct.astype(np.float64), dense_gemm_oracle(a, b.T))


class TestEmbedding:
    def test_lcm_arithmetic(self):
        emb = embed_nonsquare(2, 3)
        assert emb.side == 6
        assert emb.tiles_per_core == 6
        assert embed_nonsquare(4, 6).side == 12
        ident = embed_nonsquare(4, 4)
        assert ident.side == 4 and ident.tiles_per_core == 1

    def test_mesh_gemm_on_embedded_grid(self):
        rng = np.random.default_rng(5)
        emb = embed_nonsquare(2, 3)
        big = PlmrConfig(width=8, height=8, mem_per_core=1 << 20)
        a, b = int_matrix(rng, 12, 12), int_matrix(rng, 12, 12)
        c, report = mesh_gemm(big, GemmProblem(a, b, emb.side), embedding=emb)
        assert np.array_equal(c.astype(np.float64), dense_gemm_oracle(a, b))
        # co-located logical neighbors keep the critical path at or under two hops
        for step in report.steps:
            assert step.comm.hops_critical <= 2
        assert report.peak_mem_bytes % emb.tiles_per_core == 0


class TestFallbacks:
    def test_n1_single_core(self):
        rng = np.random.default_rng(6)
        a, b = int_matrix(rng, 4, 4), int_matrix(rng, 4, 4)
        for algo in ALGOS:
            c, report = algo(CFG, GemmProblem(a, b, 1))
            assert np.array_equal(c.astype(np.float64), dense_gemm_oracle(a, b))
            assert any("single core" in note for note in report.notes)

    def test_n2_neighbor_exchange_noted(self):
        rng = np.random.default_rng(6)
        a, b = int_matrix(rng, 4, 4), int_matrix(rng, 4, 4)
        c, report = mesh_gemm(CFG, GemmProblem(a, b, 2))
        assert np.array_equal(c.astype(np.float64), dense_gemm_oracle(a, b))
        assert any("neighbor exchange" in note for note in report.notes)
        for step in report.steps:
            assert step.comm.hops_critical == 1


class TestDeterminism:
    def test_identical_runs_identical_reports(self):
        rng = np.random.default_rng(7)
        a, b = int_matrix(rng, 12, 12), int_matrix(rng, 12, 12)
        c1, r1 = mesh_gemm(CFG, GemmProblem(a, b, 4))
        c2, r2 = mesh_gemm(CFG, GemmProblem(a, b, 4))
        assert np.array_equal(c1, c2)
        assert [s.comm for s in r1.steps] == [s.comm for s in r2.steps]
        assert r1.total_cycles == r2.total_cycles


class TestGridValidation:
    SMALL = PlmrConfig(width=2, height=2)

    @pytest.mark.parametrize("algo", ALGOS + [dist_gemm_t], ids=lambda f: f.__name__)
    def test_grid_larger_than_mesh_names_the_op(self, algo):
        rng = np.random.default_rng(8)
        a, b = int_matrix(rng, 8, 8), int_matrix(rng, 8, 8)
        with pytest.raises(ConfigError, match=rf"^{algo.__name__}: 8x8 grid larger than the 2x2"):
            algo(self.SMALL, GemmProblem(a, b, 8))

    @pytest.mark.parametrize("algo", ALGOS + [dist_gemm_t], ids=lambda f: f.__name__)
    def test_grid_equal_to_mesh_runs(self, algo):
        rng = np.random.default_rng(8)
        a, b = int_matrix(rng, 4, 4), int_matrix(rng, 4, 4)
        c, _ = algo(self.SMALL, GemmProblem(a, b, 2))
        expect = dense_gemm_oracle(a, b.T if algo is dist_gemm_t else b)
        assert np.array_equal(c.astype(np.float64), expect)

    def test_embedding_checks_physical_grid(self):
        # A 2x3 physical grid folds a 6x6 logical grid: it fits 3x2 cores
        # wide by tall, not the logical side.
        rng = np.random.default_rng(9)
        emb = embed_nonsquare(2, 3)
        a, b = int_matrix(rng, 12, 12), int_matrix(rng, 12, 12)
        fits = PlmrConfig(width=3, height=2, mem_per_core=1 << 20)
        c, _ = mesh_gemm(fits, GemmProblem(a, b, emb.side), embedding=emb)
        assert np.array_equal(c.astype(np.float64), dense_gemm_oracle(a, b))
        narrow = PlmrConfig(width=2, height=3, mem_per_core=1 << 20)
        with pytest.raises(ConfigError, match=r"^mesh_gemm: 3x2 grid larger than the 2x3"):
            mesh_gemm(narrow, GemmProblem(a, b, emb.side), embedding=emb)
