import numpy as np
import pytest

from wafermesh.cli import (
    Scenario,
    compare,
    load_scenario,
    main,
    read_report,
    run_scenario,
    write_report,
)
from wafermesh.fabric import ConfigError, PlmrConfig


def scenario(workload, **kw):
    base = dict(name=f"{workload}_t", workload=workload,
                cfg=PlmrConfig(width=16, height=16), seed=7, grids=[4])
    base.update(kw)
    return Scenario(**base)


class TestGemmScenario:
    def test_four_algorithms_identical_checksums(self, tmp_path):
        sc = scenario("gemm", algos=["mesh", "cannon", "summa", "allgather"],
                      params={"size": "16"})
        assert run_scenario(sc, tmp_path) == 0
        rows = read_report(tmp_path / "gemm_t_report.csv")
        assert len(rows) == 4
        checksums = {r["checksum"] for r in rows}
        assert len(checksums) == 1
        assert all(r["violations"] == "" for r in rows)

    def test_reproducible_byte_identical(self, tmp_path):
        sc = scenario("gemm", params={"size": "12"})
        run_scenario(sc, tmp_path / "a")
        run_scenario(sc, tmp_path / "b")
        a = (tmp_path / "a" / "gemm_t_report.csv").read_bytes()
        b = (tmp_path / "b" / "gemm_t_report.csv").read_bytes()
        assert a == b


class TestGemvScenario:
    def test_sweep_row_count(self, tmp_path):
        sc = scenario("gemv", grids=[4, 8, 16], params={"size": "16"})
        assert run_scenario(sc, tmp_path) == 0
        rows = read_report(tmp_path / "gemv_t_report.csv")
        assert len(rows) == 9  # 3 algorithms x 3 grid sizes


class TestKvScenario:
    def test_balance_trace_emitted(self, tmp_path):
        sc = scenario("kvcache", params={"tokens": "50"})
        assert run_scenario(sc, tmp_path) == 0
        trace = (tmp_path / "kvcache_t_balance.csv").read_text().strip().splitlines()
        assert trace[0] == "token,spread"
        assert len(trace) == 51
        spreads = [int(line.split(",")[1]) for line in trace[1:]]
        assert max(spreads) <= 1
        assert (tmp_path / "kvcache_t_counts.csv").exists()


class TestLayerScenario:
    def test_layer_rows(self, tmp_path):
        sc = scenario("layer", params={"out": "4", "seq": "8"})
        assert run_scenario(sc, tmp_path) == 0
        rows = read_report(tmp_path / "layer_t_report.csv")
        assert {r["algorithm"] for r in rows} == {"prefill", "transition", "decode"}
        plans = (tmp_path / "layer_t_plans.txt").read_text()
        assert "BL_yE_x" in plans and "BE_yL^x" in plans


class TestAutotuneScenario:
    def test_entries_and_selection(self, tmp_path):
        sc = scenario("autotune", grids=[2, 4], params={"out": "2", "seq": "8"})
        assert run_scenario(sc, tmp_path) == 0
        rows = read_report(tmp_path / "autotune_t_report.csv")
        assert len(rows) == 4  # 2x2 candidate pairs
        assert sum(1 for r in rows if r["checksum"] == "selected") == 1


class TestCompare:
    def test_identity_diff(self, tmp_path):
        sc = scenario("gemm", params={"size": "8"})
        run_scenario(sc, tmp_path)
        path = tmp_path / "gemm_t_report.csv"
        text = compare(path, path)
        assert "+0" in text and "x1.00" in text

    def test_two_row_fixture_delta(self, tmp_path):
        row = {
            "scenario": "s", "algorithm": "a", "grid": "4x4", "dims": "d",
            "steps": 1, "comm_cycles": 10, "compute_cycles": 0, "total_cycles": 10,
            "hops_critical_max": 1, "routing_stages_max": 0, "peak_mem_bytes": 0,
            "max_paths_per_core": 1, "violations": "", "checksum": "x",
        }
        row_b = dict(row, total_cycles=25, violations="R: demo")
        write_report([row], tmp_path / "a.csv")
        write_report([row_b], tmp_path / "b.csv")
        text = compare(tmp_path / "a.csv", tmp_path / "b.csv")
        assert "10 -> 25 (+15" in text
        assert "flags" in text

    def test_schema_mismatch(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("# schema=other.v9\nscenario\n")
        sc = scenario("gemm", params={"size": "8"})
        run_scenario(sc, tmp_path)
        with pytest.raises(ConfigError):
            compare(tmp_path / "gemm_t_report.csv", bad)


class TestScenarioFile:
    def test_load_and_run(self, tmp_path):
        config = tmp_path / "demo.cfg"
        config.write_text(
            "[fabric]\nwidth = 8\nheight = 8\nalpha = 1\nbeta = 3\n"
            "route_budget = 32\nmem_per_core = 49152\nmacs_per_cycle = 1\n\n"
            "[scenario]\nname = demo\nworkload = gemm\nseed = 3\ngrids = 4\n"
            "algos = mesh,cannon\nsize = 8\n"
        )
        sc = load_scenario(str(config))
        assert sc.name == "demo"
        assert sc.cfg.width == 8
        assert sc.algos == ["mesh", "cannon"]
        assert run_scenario(sc, tmp_path) == 0
        rows = read_report(tmp_path / "demo_report.csv")
        assert len(rows) == 2

    def test_missing_workload(self, tmp_path):
        config = tmp_path / "broken.cfg"
        config.write_text("[scenario]\nname = x\n")
        with pytest.raises(ConfigError, match="workload"):
            load_scenario(str(config))

    def test_malformed_value(self, tmp_path):
        config = tmp_path / "broken.cfg"
        config.write_text("[fabric]\nwidth = notanumber\n[scenario]\nworkload = gemm\n")
        with pytest.raises(ConfigError, match="width"):
            load_scenario(str(config))


class TestMain:
    def test_gemm_command(self, tmp_path, capsys):
        rc = main(["gemm", "--grid", "4", "--seed", "5",
                   "--param", "size=8", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "gemm_report.csv").exists()
        assert "mesh" in capsys.readouterr().out

    def test_compare_command(self, tmp_path, capsys):
        main(["gemm", "--grid", "4", "--param", "size=8", "--out", str(tmp_path)])
        rc = main(["compare", str(tmp_path / "gemm_report.csv"),
                   str(tmp_path / "gemm_report.csv")])
        assert rc == 0
        assert "x1.00" in capsys.readouterr().out


class TestMainErrors:
    INVERTED = ("[fabric]\nwidth = 4\nheight = 4\nalpha = 5\nbeta = 2\n"
                "enforce_latency_order = false\n\n"
                "[scenario]\nname = inv\nworkload = gemm\nseed = 3\ngrids = 4\n"
                "algos = mesh,summa\nsize = 16\n")

    def test_inverted_latency_config_runs(self, tmp_path):
        config = tmp_path / "inv.cfg"
        config.write_text(self.INVERTED)
        assert main(["gemm", "--config", str(config), "--out", str(tmp_path)]) == 0
        rows = read_report(tmp_path / "inv_report.csv")
        summa = next(r for r in rows if r["algorithm"] == "summa")
        # four relayed panel broadcasts of 3 hops and 3 stages each
        assert int(summa["comm_cycles"]) == 4 * (5 * 3 + 2 * 3)

    def test_grid_larger_than_config_mesh_widens_and_keeps_latency_flag(self, tmp_path):
        config = tmp_path / "inv.cfg"
        config.write_text(self.INVERTED)
        rc = main(["gemm", "--config", str(config), "--grid", "8", "--out", str(tmp_path)])
        assert rc == 0
        rows = read_report(tmp_path / "inv_report.csv")
        assert {r["grid"] for r in rows} == {"8x8"}
        summa = next(r for r in rows if r["algorithm"] == "summa")
        assert int(summa["comm_cycles"]) == 8 * (5 * 7 + 2 * 7)

    @pytest.mark.parametrize("argv, cause", [
        (["gemm", "--grid", "4x8"], "square grids only"),
        (["gemm", "--grid", "0"], "positive integer"),
        (["gemm", "--grid", "four"], "positive integer"),
        (["gemm", "--grid", "2", "--param", "size=256", "--algo", "mesh"], "exceeds budget"),
        (["kvcache", "--param", "tokens=abc"], "tokens must be an integer >= 1, got 'abc'"),
        (["kvcache", "--param", "tokens=-5"], "tokens must be an integer >= 1, got '-5'"),
        (["kvcache", "--param", "chunk_bytes=0"], "chunk_bytes must be an integer >= 1"),
        (["gemm", "--param", "size=0"], "size must be an integer >= 1, got '0'"),
        (["gemv", "--param", "k=0"], "k must be an integer >= 1, got '0'"),
        (["layer", "--param", "heads=3"], "embed (32) != heads*head_dim (3*10)"),
        (["autotune", "--param", "seq=0"], "seq must be an integer >= 1, got '0'"),
        (["layer", "--param", "out=0"], "out must be an integer >= 1, got '0'"),
        (["gemm", "--grid", "\u00b2"], "positive integer"),
    ])
    def test_bad_input_is_one_line_without_traceback(self, tmp_path, capsys, argv, cause):
        rc = main(argv + ["--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc != 0
        assert err.count("\n") == 1 and err.startswith(f"wafermesh {argv[0]}: error: ")
        assert cause in err and "Traceback" not in err
