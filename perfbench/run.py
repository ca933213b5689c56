#!/usr/bin/env python3
"""The wafermesh benchmark: one workload per process, checked, timed, traced.

    python3 perfbench/run.py --workload decode_long --seed 0 --seconds 18 --trace 0
    python3 perfbench/run.py            # every workload, each in its own process

A run sets up (import, inputs, toy model, warm-up), then repeats the
workload's ops until ``--seconds`` of timed calls have passed, checking every
result against the oracles in ``workloads.py`` outside the timed region. With
``--trace 1`` a second, traced pass follows and the per-layer metrics are
reported instead of the end-to-end ones. The metric names and units come
from BENCHMARK.json. The last line of standard output is the JSON result;
details, report digests and the trace go to ``.bench_out/``.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
# Fresh processes that repeat the whole set-up; with the measuring process
# itself, setup_s is the median of five.
SETUP_PROBES = 4
# The traced pass only feeds per-layer metrics, which carry no bound.
TRACED_ITERATIONS = 2


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def setup(workload: str, seed: int):
    """Import the package from this checkout, build the inputs and warm up.

    Returns the workload and the set-up time at nominal machine speed."""
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import wafermesh
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import wafermesh from {ROOT / 'src'}: {exc}")
    if Path(wafermesh.__file__).resolve().parent != ROOT / "src" / "wafermesh":
        sys.exit(f"perfbench: imported wafermesh from {wafermesh.__file__}, not this checkout")
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](seed)
    wl.warm_up()
    raw = time.perf_counter() - start
    from calibration import normalized, unit_seconds

    # Set-up is a single short sample, so it gets a longer calibration.
    unit = unit_seconds(reps=5)
    return wl, normalized(raw, unit, unit)


def probe_setup(workload: str, seed: int) -> float:
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--probe-setup"],
        check=True, capture_output=True, text=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


class Pass:
    """Timings, check outcomes and first-repetition reports of one pass."""

    def __init__(self):
        self.samples: list[float] = []  # per iteration, at nominal machine speed
        self.raw: list[float] = []  # per iteration, wall seconds
        self.units: list[float] = []  # calibration unit seconds around the iterations
        self.attempted = 0
        self.failed = 0
        self.check_s = 0.0
        self.first: dict[str, tuple[str, dict]] = {}  # op -> (digest, sim stats)
        self.phases: dict[str, list] = {}  # op -> first repetition's (phase, report)


def measure(wl, seconds: float = 0.0, iterations: int = 0, tracer=None,
            reference: Pass | None = None) -> Pass:
    """Repeat the workload's ops until ``seconds`` of timed calls have passed
    and at least ``iterations`` (and one) iterations have run.

    Every result is checked; an exception, a wrong result, or a report that
    differs from the first repetition's (of this pass or of ``reference``)
    counts as a failed op."""
    from calibration import normalized, unit_seconds
    from workloads import sim_stats

    run = Pass()
    run.units.append(unit_seconds())
    firsts = reference.first if reference else run.first
    while sum(run.raw) < seconds or len(run.raw) < max(iterations, 1):
        results = []
        spans = tracer.installed() if tracer else nullcontext()
        start = time.perf_counter()
        with spans:
            for op in wl.ops():
                try:
                    with tracer.span("op." + op.name) if tracer else nullcontext():
                        results.append((op, op.call(), None))
                except Exception as exc:  # a failing op is a result, not the end of the run
                    results.append((op, None, exc))
        run.raw.append(time.perf_counter() - start)

        start = time.perf_counter()
        for op, res, exc in results:
            run.attempted += 1
            reason = f"raised {exc!r}" if exc else op.check(res)
            if reason is None:
                phases = op.phases(res)
                seen = (op.digest(res), sim_stats(phases))
                run.phases.setdefault(op.name, phases)
                if firsts.setdefault(op.name, seen) != seen:
                    reason = "reports differ from the first repetition"
            if reason:
                run.failed += 1
                print(f"FAIL {wl.name} {op.name}: {reason}", file=sys.stderr)
        run.check_s += time.perf_counter() - start
        run.units.append(unit_seconds())
        run.samples.append(normalized(run.raw[-1], run.units[-2], run.units[-1]))
    return run


def environment() -> dict:
    import numpy

    try:
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30).stdout.split()
    except OSError:
        git = []
    # A checkout nested in another repository must not report that one's commit.
    commit = git[1] if len(git) == 2 and Path(git[0]).resolve() == ROOT else ""
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "wafermesh").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit or "unknown (not a git checkout)",
        "src_sha256": src.hexdigest(),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
    }


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def per_layer_value(name: str, known: dict, totals: dict, iterations: int) -> float:
    """A per-layer metric: a value computed directly, or a span statistic
    (``<span>.calls``, ``.s``, ``.self_s``, ``.us_per_call``) per iteration."""
    if name in known:
        return known[name]
    span, _, field = name.rpartition(".")
    calls, incl, own = totals.get(span, (0, 0.0, 0.0))
    if field == "calls":
        return calls / iterations
    if field == "s":
        return incl / iterations
    if field == "self_s":
        return own / iterations
    if field == "us_per_call":
        return incl / calls * 1e6 if calls else 0.0
    raise KeyError(f"BENCHMARK.json names per-layer metric {name!r}, which run.py cannot derive")


def run_workload(args, spec: dict) -> int:
    wl, setup_main = setup(args.workload, args.seed)
    from tracer import Tracer
    from workloads import sim_stats

    setups = [setup_main] + [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]

    untraced = measure(wl, seconds=args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    host_s = statistics.median(untraced.samples)
    sim = sim_stats([p for phases in untraced.phases.values() for p in phases])
    digests = {op: first[0] for op, first in untraced.first.items()}
    attempted, failed = untraced.attempted, untraced.failed

    e2e = {
        "host_s": host_s,
        "setup_s": statistics.median(setups),
        "host_peak_rss_mb": rss_mb,
        "fail_ratio": failed / attempted,
        "sim_cycles": sim["sim_cycles"],
    }
    if any(p == "decode" for phases in untraced.phases.values() for p, _ in phases):
        e2e.update(sim_ttft_cycles=sim["sim.ttft_cycles"], sim_tpot_cycles=sim["sim.tpot_cycles"],
                   sim_transition_cycles=sim["sim.transition_cycles"])
    units = {"host_s": "s", "setup_s": "s", "host_peak_rss_mb": "MiB", "fail_ratio": "ratio"}

    env = environment()
    OUT.mkdir(exist_ok=True)
    print(f"perfbench {wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    q = quartiles(untraced.samples)
    print(f"host_s {host_s:.6f} s  at nominal speed, median of {len(untraced.samples)} "
          f"iterations, quartiles {q[0]:.6f} {q[2]:.6f}")
    q = quartiles(untraced.raw)
    print(f"host_raw_s {statistics.median(untraced.raw):.6f} s  wall, quartiles "
          f"{q[0]:.6f} {q[2]:.6f}; calibration unit median "
          f"{statistics.median(untraced.units):.6f} s")
    for name, value in e2e.items():
        if name != "host_s":
            print(f"{name} {value:g} {units.get(name, 'cycles')}")
    for op, digest in digests.items():
        print(f"digest {wl.name} {op} sha256={digest}")
    print(f"ops attempted={attempted} failed={failed}")

    if args.trace:
        tracer = Tracer(wl.name)
        traced = measure(wl, iterations=TRACED_ITERATIONS, tracer=tracer, reference=untraced)
        attempted += traced.attempted
        failed += traced.failed
        totals = tracer.totals()
        iterations = len(traced.samples)
        steps = tracer.counts["fabric.sim_steps"] / iterations
        trace_host = statistics.median(traced.samples)
        known = dict(sim)
        known.update({
            "fabric.sim_steps": steps,
            "fabric.host_us_per_step": host_s / steps * 1e6 if steps else 0.0,
            "reference.generate.s": wl.reference_s,
            "check_s": untraced.check_s / len(untraced.samples),
            "trace.host_s": trace_host,
            "trace.overhead_s": trace_host - host_s,
        })
        trace_path = OUT / f"trace-{wl.name}.json"
        tracer.write_chrome(trace_path)
        print(f"trace {trace_path.relative_to(ROOT)}: {len(tracer.spans)} spans over "
              f"{iterations} iterations; tracing overhead {trace_host - host_s:+.6f} s "
              f"per iteration ({trace_host:.6f} traced vs {host_s:.6f} untraced)")
        metrics = {m["name"]: {"value": per_layer_value(m["name"], known, totals, iterations),
                               "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(OUT / f"result-{wl.name}-trace{args.trace}.json", "w") as fh:
        json.dump({"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
                   "env": env, "digests": digests, "end_to_end": e2e,
                   "host_samples_s": untraced.samples, "host_raw_samples_s": untraced.raw,
                   "calibration_unit_s": untraced.units, "setup_samples_s": setups,
                   "sim": sim, "result": result}, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


def run_all(args, spec: dict) -> int:
    """Every workload in its own process, so no peak memory carries over."""
    status = 0
    for w in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
               "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd).returncode)
    return status


def main() -> int:
    # Pinned before numpy loads, and inherited by every child process: one
    # BLAS thread keeps the load single-threaded.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help="only set up, then print the set-up seconds (used by setup_s)")
    args = parser.parse_args()
    if args.probe_setup:
        print(setup(args.workload, args.seed)[1])
        return 0
    if args.workload == "all":
        return run_all(args, spec)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
