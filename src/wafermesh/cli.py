"""Command-line front end: scenario configs, benchmark sweeps, report emission.

Reports are CSV with a versioned schema line followed by a header row, plus a
plain-text summary table. Exit status is 1 when a correctness check failed
and 2 when a config or input is rejected (one line on stderr, no traceback);
cost-model violations (R/M) are flags in the rows, not failures.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import hashlib
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .fabric import CapacityError, ConfigError, PlmrConfig, SimReport, StepCost, load_config
from .gemm import (
    GemmProblem,
    allgather_gemm,
    cannon_gemm,
    dense_gemm_oracle,
    dist_gemm_t,
    mesh_gemm,
    summa_gemm,
)
from .gemv import GemvProblem, dense_gemv_oracle, gemv_pipeline_baseline, gemv_ring_baseline, mesh_gemv
from .kvcache import KvMeshState, dump_counts_csv, kv_append_concat, kv_append_shift
from .plan import ModelShape, autotune, generate_dist, make_toy_model, plan_decode, plan_prefill
from . import reference

SCHEMA_VERSION = "wafermesh.report.v1"
COLUMNS = [
    "scenario", "algorithm", "grid", "dims", "steps", "comm_cycles", "compute_cycles",
    "total_cycles", "hops_critical_max", "routing_stages_max", "peak_mem_bytes",
    "max_paths_per_core", "violations", "checksum",
]

GEMM_ALGOS = {
    "mesh": mesh_gemm,
    "cannon": cannon_gemm,
    "summa": summa_gemm,
    "allgather": allgather_gemm,
    "gemm_t": dist_gemm_t,
}
GEMV_ALGOS = {
    "mesh": mesh_gemv,
    "pipeline": gemv_pipeline_baseline,
    "ring": gemv_ring_baseline,
}


@dataclass
class Scenario:
    name: str
    workload: str  # gemm | gemv | kvcache | layer | autotune
    cfg: PlmrConfig
    seed: int = 0
    grids: list[int] = field(default_factory=lambda: [4])
    algos: list[str] = field(default_factory=list)
    params: dict = field(default_factory=dict)


def checksum(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr, dtype=np.float32).tobytes()).hexdigest()[:16]


def report_row(scenario: str, algorithm: str, grid: int, dims: str,
               report: SimReport, digest: str) -> dict:
    return {
        "scenario": scenario,
        "algorithm": algorithm,
        "grid": f"{grid}x{grid}",
        "dims": dims,
        "steps": len(report.steps),
        "comm_cycles": report.comm_cycles,
        "compute_cycles": report.compute_cycles,
        "total_cycles": report.total_cycles,
        "hops_critical_max": report.hops_critical_max,
        "routing_stages_max": report.routing_stages_max,
        "peak_mem_bytes": report.peak_mem_bytes,
        "max_paths_per_core": report.max_paths_per_core,
        "violations": ";".join(report.violations),
        "checksum": digest,
    }


def write_report(rows: list[dict], path: Path) -> None:
    rows = sorted(rows, key=lambda r: (r["scenario"], r["algorithm"], r["grid"], r["dims"]))
    with open(path, "w", newline="") as fh:
        fh.write(f"# schema={SCHEMA_VERSION}\n")
        writer = csv.DictWriter(fh, fieldnames=COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def read_report(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        first = fh.readline().strip()
        if first != f"# schema={SCHEMA_VERSION}":
            raise ConfigError(f"{path}: unknown report schema line {first!r}")
        reader = csv.DictReader(fh)
        if reader.fieldnames != COLUMNS:
            raise ConfigError(f"{path}: column mismatch: {reader.fieldnames}")
        return list(reader)


def write_summary(rows: list[dict], path: Path) -> None:
    cols = ["scenario", "algorithm", "grid", "dims", "total_cycles", "comm_cycles",
            "peak_mem_bytes", "max_paths_per_core", "violations"]
    widths = {c: max(len(c), *(len(str(r[c])) for r in rows)) if rows else len(c) for c in cols}
    lines = ["  ".join(c.ljust(widths[c]) for c in cols)]
    for r in sorted(rows, key=lambda r: (r["scenario"], r["algorithm"], r["grid"], r["dims"])):
        lines.append("  ".join(str(r[c]).ljust(widths[c]) for c in cols))
    path.write_text("\n".join(lines) + "\n")


def _int_fixture(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.integers(-4, 5, size=(rows, cols)).astype(np.float32)


def _parse_int(name: str, value, minimum: int) -> int:
    """An integer >= ``minimum`` from a file or the command line; anything else is rejected."""
    value = str(value).strip()
    if not value.isdecimal() or int(value) < minimum:
        raise ConfigError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _int_param(scenario: Scenario, key: str, default: int) -> int:
    """Integer workload parameter ``key``, at least 1."""
    return _parse_int(f"parameter {key}", scenario.params.get(key, default), 1)


def _check_algos(algos: list[str], known: dict) -> None:
    unknown = [a for a in algos if a not in known]
    if unknown:
        raise ConfigError(f"unknown algorithms {unknown}; choose from {sorted(known)}")


def run_gemm(scenario: Scenario) -> tuple[list[dict], bool]:
    rows, ok = [], True
    size = _int_param(scenario, "size", 16)
    algos = scenario.algos or list(GEMM_ALGOS)
    _check_algos(algos, GEMM_ALGOS)
    for n in scenario.grids:
        rng = np.random.default_rng(scenario.seed)
        a = _int_fixture(rng, size, size)
        b = _int_fixture(rng, size, size)
        oracle = dense_gemm_oracle(a, b)
        oracle_t = dense_gemm_oracle(a, b.T)
        for algo in algos:
            c, report = GEMM_ALGOS[algo](scenario.cfg, GemmProblem(a, b, n))
            expected = oracle_t if algo == "gemm_t" else oracle
            if not np.array_equal(c.astype(np.float64), expected):
                report.flag("CORRECTNESS", f"{algo} result differs from dense oracle")
                ok = False
            rows.append(report_row(scenario.name, algo, n, f"{size}x{size}x{size}",
                                   report, checksum(c)))
    return rows, ok


def run_gemv(scenario: Scenario) -> tuple[list[dict], bool]:
    rows, ok = [], True
    size = _int_param(scenario, "size", 16)
    k = _int_param(scenario, "k", 2)
    algos = scenario.algos or list(GEMV_ALGOS)
    _check_algos(algos, GEMV_ALGOS)
    for n in scenario.grids:
        rng = np.random.default_rng(scenario.seed)
        a = _int_fixture(rng, 1, size)[0]
        b = _int_fixture(rng, size, size)
        oracle = dense_gemv_oracle(a, b)
        for algo in algos:
            if algo == "mesh":
                c, report = mesh_gemv(scenario.cfg, GemvProblem(a, b, n), k=k)
            else:
                c, report = GEMV_ALGOS[algo](scenario.cfg, GemvProblem(a, b, n))
            if not np.array_equal(c.astype(np.float64), oracle):
                report.flag("CORRECTNESS", f"{algo} result differs from dense oracle")
                ok = False
            rows.append(report_row(scenario.name, algo, n, f"1x{size}x{size}",
                                   report, checksum(c)))
    return rows, ok


def run_kvcache(scenario: Scenario, out_dir: Path) -> tuple[list[dict], bool]:
    rows, ok = [], True
    tokens = _int_param(scenario, "tokens", 256)
    capacity = _int_param(scenario, "capacity", -(-tokens // scenario.grids[0]) + 1)
    chunk_bytes = _int_param(scenario, "chunk_bytes", 64)
    n = scenario.grids[0]

    shift_state = KvMeshState(n, n, capacity, chunk_bytes)
    shift_report = SimReport(algorithm="kv_shift")
    trace = []
    for t in range(tokens):
        sub = kv_append_shift(scenario.cfg, shift_state, t)
        shift_report.merge(sub, prefix=f"t{t}.")
        trace.append((t, shift_state.spread()))
    if shift_state.token_order() != list(range(tokens)):
        shift_report.flag("CORRECTNESS", "shift mode lost token order")
        ok = False
    if shift_state.spread() > 1:
        shift_report.flag("CORRECTNESS", f"spread {shift_state.spread()} > 1")
        ok = False
    rows.append(report_row(scenario.name, "kv_shift", n, f"tokens={tokens}", shift_report,
                           checksum(shift_state.counts_grid().astype(np.float32))))

    concat_state = KvMeshState(n, n, capacity, chunk_bytes)
    concat_report = SimReport(algorithm="kv_concat")
    stored = 0
    for t in range(tokens):
        try:
            sub = kv_append_concat(scenario.cfg, concat_state, t)
        except CapacityError as exc:
            concat_report.flag("M", str(exc))
            break
        concat_report.merge(sub, prefix=f"t{t}.")
        stored += 1
    if concat_state.token_order() != list(range(stored)):
        concat_report.flag("CORRECTNESS", "concat mode lost token order")
        ok = False
    rows.append(report_row(scenario.name, "kv_concat", n, f"tokens={stored}", concat_report,
                           checksum(concat_state.counts_grid().astype(np.float32))))

    with open(out_dir / f"{scenario.name}_balance.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["token", "spread"])
        writer.writerows(trace)
    dump_counts_csv(shift_state, str(out_dir / f"{scenario.name}_counts.csv"))
    return rows, ok


def _scenario_model(scenario: Scenario):
    embed, heads = _int_param(scenario, "embed", 32), _int_param(scenario, "heads", 4)
    shape = ModelShape(
        embed=embed,
        heads=heads,
        head_dim=_int_param(scenario, "head_dim", max(embed // heads, 1)),
        ffn=_int_param(scenario, "ffn", 64),
        seq=_int_param(scenario, "seq", 16),
    )
    return make_toy_model(shape, vocab=_int_param(scenario, "vocab", 64),
                          n_layers=_int_param(scenario, "layers", 2), seed=scenario.seed)


def run_layer(scenario: Scenario, out_dir: Path) -> tuple[list[dict], bool]:
    rows, ok = [], True
    model = _scenario_model(scenario)
    seq = model.shape.seq
    out_len = _int_param(scenario, "out", 8)
    prefill_n = scenario.grids[0]
    decode_n = scenario.grids[-1]
    prompt = [i % model.vocab for i in range(seq)]

    dumps = [plan_prefill(scenario.cfg, model.shape, prefill_n).notation_dump(),
             plan_decode(scenario.cfg, model.shape, decode_n).notation_dump()]
    (out_dir / f"{scenario.name}_plans.txt").write_text("\n\n".join(dumps) + "\n")

    tokens, hiddens, run = generate_dist(scenario.cfg, model, prompt, out_len,
                                         prefill_n, decode_n)
    ref_tokens, ref_hiddens = reference.generate(model, prompt, out_len)
    if tokens != ref_tokens:
        run.prefill.flag("CORRECTNESS", f"tokens {tokens} != reference {ref_tokens}")
        ok = False
    for h, rh in zip(hiddens, ref_hiddens):
        rel = np.max(np.abs(h.astype(np.float64) - rh)) / max(1.0, np.max(np.abs(rh)))
        if rel > 1e-4:
            run.prefill.flag("CORRECTNESS", f"hidden relative error {rel:.2e} > 1e-4")
            ok = False
            break

    dims = f"E={model.shape.embed},L={seq},out={out_len}"
    rows.append(report_row(scenario.name, "prefill", prefill_n, dims, run.prefill,
                           checksum(np.asarray(tokens, dtype=np.float32))))
    rows.append(report_row(scenario.name, "transition", decode_n, dims, run.transition,
                           checksum(np.asarray(tokens, dtype=np.float32))))
    decode_total = SimReport(algorithm="decode")
    for rep in run.decode:
        decode_total.merge(rep)
    rows.append(report_row(scenario.name, "decode", decode_n, dims, decode_total,
                           checksum(np.asarray(tokens, dtype=np.float32))))
    return rows, ok


def run_autotune(scenario: Scenario) -> tuple[list[dict], bool]:
    rows = []
    model = _scenario_model(scenario)
    seq = model.shape.seq
    out_len = _int_param(scenario, "out", 8)
    result = autotune(scenario.cfg, model, seq, out_len, scenario.grids)
    for np_, nd, cycles in result.entries:
        rep = SimReport(algorithm="autotune_entry")
        rep.add_step("total", StepCost(0, 0, cycles, 0))
        selected = result.prefill_n == np_ and result.decode_n == nd
        rep.notes.append("selected" if selected else "candidate")
        rows.append(report_row(scenario.name, f"pair_p{np_}_d{nd}", nd,
                               f"prefill={np_},decode={nd}", rep,
                               "selected" if selected else "-"))
    for n, reason in result.infeasible.items():
        rep = SimReport(algorithm="autotune_infeasible")
        rep.flag("M", reason)
        rows.append(report_row(scenario.name, f"infeasible_{n}", n, "-", rep, "-"))
    return rows, result.feasible


def run_scenario(scenario: Scenario, out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    if scenario.workload == "gemm":
        rows, ok = run_gemm(scenario)
    elif scenario.workload == "gemv":
        rows, ok = run_gemv(scenario)
    elif scenario.workload == "kvcache":
        rows, ok = run_kvcache(scenario, out_dir)
    elif scenario.workload == "layer":
        rows, ok = run_layer(scenario, out_dir)
    elif scenario.workload == "autotune":
        rows, ok = run_autotune(scenario)
    else:
        raise ConfigError(f"unknown workload {scenario.workload!r}")
    write_report(rows, out_dir / f"{scenario.name}_report.csv")
    write_summary(rows, out_dir / f"{scenario.name}_summary.txt")
    print((out_dir / f"{scenario.name}_summary.txt").read_text(), end="")
    return 0 if ok else 1


def compare(path_a: Path, path_b: Path) -> str:
    """Per-row cycle deltas and flag changes between two reports."""
    rows_a = {(r["scenario"], r["algorithm"], r["grid"], r["dims"]): r for r in read_report(path_a)}
    rows_b = {(r["scenario"], r["algorithm"], r["grid"], r["dims"]): r for r in read_report(path_b)}
    lines = []
    for key in sorted(set(rows_a) | set(rows_b)):
        if key not in rows_a:
            lines.append(f"{'/'.join(key)}: only in {path_b}")
        elif key not in rows_b:
            lines.append(f"{'/'.join(key)}: only in {path_a}")
        else:
            a, b = rows_a[key], rows_b[key]
            delta = int(b["total_cycles"]) - int(a["total_cycles"])
            ratio = (int(b["total_cycles"]) / int(a["total_cycles"])
                     if int(a["total_cycles"]) else float("nan"))
            line = f"{'/'.join(key)}: {a['total_cycles']} -> {b['total_cycles']} ({delta:+d}, x{ratio:.2f})"
            if a["violations"] != b["violations"]:
                line += f" flags: {a['violations'] or '-'} -> {b['violations'] or '-'}"
            lines.append(line)
    return "\n".join(lines)


def _parse_grid(text: str) -> list[int]:
    grids = []
    for part in text.split(","):
        part = part.strip().lower()
        w, sep, h = part.partition("x")
        if sep and w != h:
            raise ConfigError(f"square grids only, got {part}")
        if not w.isdecimal() or int(w) < 1:
            raise ConfigError(f"grid side must be a positive integer, got {part!r}")
        grids.append(int(w))
    return grids


def load_scenario(path: str) -> Scenario:
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise ConfigError(f"cannot read scenario file {path!r}")
    if not parser.has_section("scenario"):
        raise ConfigError(f"{path}: missing [scenario] section")
    cfg = load_config(path) if parser.has_section("fabric") else PlmrConfig()
    section = dict(parser["scenario"])
    name = section.pop("name", Path(path).stem)
    workload = section.pop("workload", None)
    if workload is None:
        raise ConfigError(f"{path}: [scenario] missing 'workload'")
    seed = _parse_int("seed", section.pop("seed", "0"), 0)
    grids = _parse_grid(section.pop("grids", section.pop("grid", "4")))
    algos = [a for a in section.pop("algos", "").split(",") if a.strip()]
    return Scenario(name=name, workload=workload, cfg=cfg, seed=seed,
                    grids=grids, algos=algos, params=section)


def _apply_flags(scenario: Scenario, args) -> Scenario:
    if args.seed is not None:
        scenario.seed = _parse_int("seed", args.seed, 0)
    if args.grid is not None:
        scenario.grids = _parse_grid(args.grid)
    if args.algo is not None:
        scenario.algos = [a.strip() for a in args.algo.split(",") if a.strip()]
    for extra in args.param or []:
        key, _, value = extra.partition("=")
        scenario.params[key] = value
    return scenario


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="wafermesh",
                                     description="mesh-fabric simulator benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run(name: str, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="scenario/fabric config file")
        p.add_argument("--out", default="reports", help="output directory")
        p.add_argument("--seed", default=None, help="integer >= 0")
        p.add_argument("--grid", default=None, help="e.g. 4x4 or 4,8,16")
        p.add_argument("--algo", default=None, help="comma-separated algorithm names")
        p.add_argument("--param", action="append", help="extra key=value workload parameter")
        return p

    for name, help_text in [
        ("gemm", "distributed GEMM sweep"),
        ("gemv", "distributed GEMV sweep"),
        ("kvcache", "KV cache balance/capacity run"),
        ("layer", "transformer layer prefill+decode vs dense reference"),
        ("autotune", "grid autotuning sweep"),
    ]:
        add_run(name, help_text)

    pc = sub.add_parser("compare", help="diff two report CSVs")
    pc.add_argument("report_a")
    pc.add_argument("report_b")

    args = parser.parse_args(argv)
    try:
        return _run_command(args)
    except (ConfigError, CapacityError) as exc:
        print(f"wafermesh {args.command}: error: {exc}", file=sys.stderr)
        return 2


def _run_command(args) -> int:
    if args.command == "compare":
        print(compare(Path(args.report_a), Path(args.report_b)))
        return 0

    if args.config:
        scenario = load_scenario(args.config)
        if scenario.workload != args.command:
            scenario.workload = args.command
    else:
        side = max(_parse_grid(args.grid or "4"))
        scenario = Scenario(name=args.command, workload=args.command,
                            cfg=PlmrConfig(width=side, height=side))
    scenario = _apply_flags(scenario, args)
    needed = max(scenario.grids)
    if scenario.cfg.width < needed or scenario.cfg.height < needed:
        scenario.cfg = dataclasses.replace(scenario.cfg, width=needed, height=needed)
    return run_scenario(scenario, Path(args.out))


if __name__ == "__main__":
    sys.exit(main())
