"""The benchmark's workloads, their independent oracles and report statistics.

Each workload builds its inputs from the workload seed alone, offers a cheap
warm-up that touches the same code paths, and yields one iteration of timed
ops. An op is one top-level public call whose result ``check`` verifies
against an oracle that lives here, not in the package under test. Calls go
through module attributes (``plan.generate_dist``, ``gemm.mesh_gemm``) so that
the tracer can wrap them at their import sites.
"""

from __future__ import annotations

import hashlib
import re
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from wafermesh import fabric, gemm, gemv, kvcache, plan, reference
from wafermesh.fabric import PlmrConfig

# Criterion 8's bound on the distributed hidden states against the float64
# reference.
HIDDEN_REL_TOL = 1e-4


# ---------------------------------------------------------------- reports


def report_digest(report: fabric.SimReport) -> str:
    """SHA-256 of everything a SimReport claims: step labels and costs,
    peak memory, path counts, violations and notes. ``meta`` is left out
    because it carries the model seed, not a simulated quantity."""
    h = hashlib.sha256()
    h.update(f"{report.algorithm}|{report.peak_mem_bytes}|{report.max_paths_per_core}\n".encode())
    for s in report.steps:
        c = s.comm
        h.update(f"{s.label}|{c.hops_critical}|{c.routing_stages_critical}|"
                 f"{c.latency_cycles}|{c.bytes_moved}|{s.compute_cycles}|{int(s.overlap)}\n"
                 .encode())
    for v in report.violations:
        h.update(f"V|{v}\n".encode())
    for n in report.notes:
        h.update(f"N|{n}\n".encode())
    return h.hexdigest()


def combined_digest(parts: list[str]) -> str:
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def run_phases(run) -> list[tuple[str, fabric.SimReport]]:
    """A generate_dist RunReport as (phase, report) pairs, in run order."""
    return ([("prefill", run.prefill), ("transition", run.transition)]
            + [("decode", r) for r in run.decode])


_GEMM_OPS = {"proj_q", "proj_k", "proj_v", "proj_o", "ffn_in", "ffn_out"}
_ATTN_OPS = re.compile(r"(score|probs|attn)_h\d+$|concat$")
_KV_OPS = re.compile(r"kv\d+$")
_ELEMWISE_OPS = {"norm1", "norm2", "res1", "res2", "act"}
_HEAD_OPS = {"embed_lookup", "final_norm", "lm_head", "argmax"}

PHASE_BUCKETS = ("gemm", "attn", "kv", "elemwise")
KERNEL_BUCKETS = ("gemm", "gemv", "kv")


def bucket_names() -> list[str]:
    names = [f"sim.{p}.{b}_cycles" for p in ("prefill", "decode") for b in PHASE_BUCKETS]
    names += ["sim.head_cycles", "sim.transition_cycles"]
    names += [f"sim.kernel.{b}_cycles" for b in KERNEL_BUCKETS]
    return names + ["sim.other_cycles"]


def _layer_op_kind(op: str) -> str | None:
    if op in _GEMM_OPS:
        return "gemm"
    if _ATTN_OPS.fullmatch(op):
        return "attn"
    if _KV_OPS.fullmatch(op):
        return "kv"
    if op in _ELEMWISE_OPS:
        return "elemwise"
    return None


def _bucket_of(phase: str, label: str) -> str:
    if phase.startswith("kernel."):
        return f"sim.{phase}_cycles"
    if phase == "transition":
        return "sim.transition_cycles"
    head, _, rest = label.partition(".")
    if head in _HEAD_OPS:
        return "sim.head_cycles"
    kind = _layer_op_kind(rest.split(".")[0]) if re.fullmatch(r"layer\d+", head) else None
    return f"sim.{phase}.{kind}_cycles" if kind else "sim.other_cycles"


def sim_stats(phases: list[tuple[str, fabric.SimReport]]) -> dict[str, int]:
    """Cycle buckets by step label plus aggregate report statistics.

    Unknown labels land in ``sim.other_cycles``, so the buckets always sum to
    the reports' total cycles whatever the plan calls its steps."""
    out = dict.fromkeys(bucket_names(), 0)
    total = 0
    stats = {"sim.comm_cycles": 0, "sim.compute_cycles": 0, "sim.peak_mem_bytes": 0,
             "sim.max_paths_per_core": 0, "sim.violations.R": 0, "sim.violations.M": 0,
             "sim.fallback_notes": 0}
    for phase, rep in phases:
        for s in rep.steps:
            out[_bucket_of(phase, s.label)] += s.cycles
        total += rep.total_cycles
        stats["sim.comm_cycles"] += rep.comm_cycles
        stats["sim.compute_cycles"] += rep.compute_cycles
        stats["sim.peak_mem_bytes"] = max(stats["sim.peak_mem_bytes"], rep.peak_mem_bytes)
        stats["sim.max_paths_per_core"] = max(stats["sim.max_paths_per_core"],
                                              rep.max_paths_per_core)
        stats["sim.violations.R"] += sum(v.startswith("R:") for v in rep.violations)
        stats["sim.violations.M"] += sum(v.startswith("M:") for v in rep.violations)
        stats["sim.fallback_notes"] += len(rep.notes)
    if sum(out.values()) != total:
        raise RuntimeError(f"cycle buckets sum to {sum(out.values())}, reports to {total}")
    decode = [r.total_cycles for p, r in phases if p == "decode"]
    prefill = [r.total_cycles for p, r in phases if p == "prefill"]
    out.update(stats)
    out["sim.ttft_cycles"] = sum(prefill)
    out["sim.tpot_cycles"] = int(statistics.median(decode)) if decode else 0
    out["sim_cycles"] = total
    return out


# ---------------------------------------------------------------- oracles


def check_generation(out_len: int, result, ref) -> str | None:
    """Tokens equal the float64 reference; hidden states within criterion 8."""
    tokens, hiddens, _ = result
    ref_tokens, ref_hiddens = ref
    if len(tokens) != out_len:
        return f"{len(tokens)} tokens generated, {out_len} asked"
    if tokens != ref_tokens:
        first = next(i for i, (a, b) in enumerate(zip(tokens, ref_tokens)) if a != b)
        return f"token {first} is {tokens[first]}, reference says {ref_tokens[first]}"
    worst = 0.0
    for h, rh in zip(hiddens, ref_hiddens):
        rel = float(np.max(np.abs(np.asarray(h, dtype=np.float64) - rh))
                    / max(1.0, float(np.max(np.abs(rh)))))
        worst = max(worst, rel)
    if worst > HIDDEN_REL_TOL:
        return f"hidden-state relative error {worst:.2e} > {HIDDEN_REL_TOL}"
    return None


def check_exact(got, expect: np.ndarray) -> str | None:
    """Integer fixtures: the product must be exact, element for element."""
    got = np.asarray(got)
    if got.shape != expect.shape:
        return f"shape {got.shape}, expected {expect.shape}"
    if not np.array_equal(got, expect):
        bad = int(np.count_nonzero(got != expect))
        return f"{bad} of {expect.size} elements differ from the int64 product"
    return None


def check_kv(state, tokens: list[int]) -> str | None:
    """Every column reads the tokens oldest-to-newest top to bottom, and the
    per-core chunk counts differ by at most one."""
    counts = []
    for x in range(state.width):
        column: list[int] = []
        for y in range(state.height):
            cell = state.tokens_at(x, y)
            counts.append(len(cell))
            column.extend(cell)
        if column != tokens:
            return f"column {x} holds tokens out of order"
    if max(counts) - min(counts) > 1:
        return f"chunk-count spread {max(counts) - min(counts)} > 1"
    return None


# ---------------------------------------------------------------- workloads


@dataclass
class Op:
    """One checked public call: ``call()`` is timed, the rest is not."""

    name: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]  # result -> failure reason, None when correct
    phases: Callable[[Any], list]  # result -> [(phase, SimReport)]
    digest: Callable[[Any], str]  # result -> digest of every report it returned


def _run_digest(result) -> str:
    return combined_digest([report_digest(r) for _, r in run_phases(result[2])])


class _Generation:
    """Shared shape of the generate_dist workloads."""

    name = ""
    mesh = prompt_len = out_len = prefill_n = decode_n = 0

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.cfg = PlmrConfig(width=self.mesh, height=self.mesh)
        shape = plan.ModelShape(embed=64, heads=8, head_dim=8, ffn=128, seq=self.prompt_len)
        self.model = plan.make_toy_model(shape, vocab=64, n_layers=2, seed=seed)
        self.prompt = [int(t) for t in rng.integers(0, self.model.vocab, self.prompt_len)]
        self._ref = None
        self.reference_s = 0.0

    def reference(self):
        if self._ref is None:
            start = time.perf_counter()
            self._ref = reference.generate(self.model, self.prompt, self.out_len)
            self.reference_s = time.perf_counter() - start
        return self._ref

    def ops(self) -> list[Op]:
        return [Op(
            "generate_dist",
            lambda: plan.generate_dist(self.cfg, self.model, self.prompt, self.out_len,
                                       self.prefill_n, self.decode_n),
            lambda res: check_generation(self.out_len, res, self.reference()),
            lambda res: run_phases(res[2]),
            _run_digest,
        )]


class DecodeLong(_Generation):
    """Per-token decode: plan, gemv, collectives and kvcache; little GEMM work."""

    name = "decode_long"
    mesh, prompt_len, out_len, prefill_n, decode_n = 16, 8, 128, 8, 16

    def warm_up(self):
        plan.generate_dist(self.cfg, self.model, self.prompt, 2, self.prefill_n, self.decode_n)


class PrefillWide(_Generation):
    """Wide prefill: GEMMs rebuilding routing-ledger paths, bulk KV re-shard."""

    name = "prefill_wide"
    mesh, prompt_len, out_len, prefill_n, decode_n = 32, 128, 2, 32, 8

    def warm_up(self):
        plan.generate_dist(self.cfg, self.model, self.prompt[:8], 2, 8, 8)


class AutotuneSweep:
    """Many short generate_dist runs on small grids, n=2 fallbacks included."""

    name = "autotune_sweep"
    candidates = [2, 4, 8, 16]
    prompt_len, out_len = 8, 4

    def __init__(self, seed: int):
        self.cfg = PlmrConfig(width=16, height=16)
        shape = plan.ModelShape(embed=32, heads=4, head_dim=8, ffn=64, seq=self.prompt_len)
        self.model = plan.make_toy_model(shape, vocab=64, n_layers=2, seed=seed)
        # autotune drives its own prompt; the oracle rebuilds it the same way.
        self.prompt = [i % self.model.vocab for i in range(self.prompt_len)]
        self._fresh: dict[tuple[int, int], tuple] = {}
        self.reference_s = 0.0

    def warm_up(self):
        plan.autotune(self.cfg, self.model, self.prompt_len, 2, [2, 4])

    def fresh_run(self, pn: int, dn: int):
        """Untimed rerun of the selected pair, checked against the reference."""
        if (pn, dn) not in self._fresh:
            res = plan.generate_dist(self.cfg, self.model, self.prompt, self.out_len, pn, dn)
            start = time.perf_counter()
            ref = reference.generate(self.model, self.prompt, self.out_len)
            self.reference_s = time.perf_counter() - start
            self._fresh[(pn, dn)] = (res, check_generation(self.out_len, res, ref))
        return self._fresh[(pn, dn)]

    def check(self, res) -> str | None:
        if not res.feasible or not res.entries:
            return f"no feasible pair; infeasible: {res.infeasible}"
        usable = [n for n in self.candidates if n not in res.infeasible]
        pairs = sorted((p, d) for p, d, _ in res.entries)
        if pairs != sorted((p, d) for p in usable for d in usable):
            return f"entries cover {pairs}, expected every pair of {usable}"
        best = min(c for _, _, c in res.entries)
        chosen = [c for p, d, c in res.entries if (p, d) == (res.prefill_n, res.decode_n)]
        if chosen != [best]:
            return f"selected ({res.prefill_n},{res.decode_n}) at {chosen}, argmin is {best}"
        fresh, reason = self.fresh_run(res.prefill_n, res.decode_n)
        if reason:
            return f"selected pair rerun: {reason}"
        if fresh[2].total_cycles != best:
            return f"selected pair reruns at {fresh[2].total_cycles} cycles, entry says {best}"
        return None

    def phases(self, res):
        return run_phases(self.fresh_run(res.prefill_n, res.decode_n)[0][2])

    @staticmethod
    def digest(res) -> str:
        return combined_digest([repr(sorted(res.entries)), repr(sorted(res.infeasible.items())),
                                f"{res.prefill_n},{res.decode_n}"])

    def ops(self) -> list[Op]:
        return [Op(
            "autotune",
            lambda: plan.autotune(self.cfg, self.model, self.prompt_len, self.out_len,
                                  self.candidates),
            self.check, self.phases, self.digest,
        )]


class KernelSweep64:
    """Paper-scale kernels and baselines, and KV appends on a 64x64 state."""

    name = "kernel_sweep_64"
    n = 64
    gemm_size = 256
    gemv_size = 1024
    # The per-append cost does not depend on the count; a short KV op keeps the
    # iteration near 1 s, so the calibration can follow the machine's speed.
    kv_tokens = 512
    reference_s = 0.0  # exact int64 products stand in for the float64 reference

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.cfg = PlmrConfig(width=self.n, height=self.n)

        def ints(*shape):
            return rng.integers(-4, 5, shape).astype(np.float32)

        self.a, self.b = ints(self.gemm_size, self.gemm_size), ints(self.gemm_size, self.gemm_size)
        self.vec, self.mat = ints(self.gemv_size), ints(self.gemv_size, self.gemv_size)
        # Token ids are labels only; a seeded permutation makes order checks bite.
        self.tokens = [int(t) for t in rng.permutation(4 * self.kv_tokens)[: self.kv_tokens]]
        self._expect: dict[str, np.ndarray] | None = None

    def expect(self) -> dict[str, np.ndarray]:
        """Exact int64 products, computed once, outside the timed calls."""
        if self._expect is None:
            a, b = self.a.astype(np.int64), self.b.astype(np.int64)
            self._expect = {"gemm": a @ b, "gemm_t": a @ b.T,
                            "gemv": self.vec.astype(np.int64) @ self.mat.astype(np.int64)}
        return self._expect

    def _kv_state(self, n: int, tokens: int) -> kvcache.KvMeshState:
        return kvcache.KvMeshState(width=n, height=n, chunk_capacity=-(-tokens // n) + 1,
                                   chunk_bytes=2 * 4)

    def _append_all(self, state, tokens):
        return state, [kvcache.kv_append_shift(self.cfg, state, t) for t in tokens]

    def warm_up(self):
        a, b = self.a[:32, :32], self.b[:32, :32]
        for fn in (gemm.mesh_gemm, gemm.cannon_gemm, gemm.summa_gemm, gemm.allgather_gemm,
                   gemm.dist_gemm_t):
            fn(self.cfg, gemm.GemmProblem(a, b, 8))
        for fn in (gemv.mesh_gemv, gemv.gemv_pipeline_baseline, gemv.gemv_ring_baseline):
            fn(self.cfg, gemv.GemvProblem(self.vec[:128], self.mat[:128, :128], 8))
        self._append_all(self._kv_state(8, 64), self.tokens[:64])

    def ops(self) -> list[Op]:
        ops = []
        # getattr at call time, so a wrapper installed on the module is the one called.
        for name, kind in (("mesh_gemm", "gemm"), ("cannon_gemm", "gemm"),
                           ("summa_gemm", "gemm"), ("allgather_gemm", "gemm"),
                           ("dist_gemm_t", "gemm_t")):
            ops.append(Op(
                name,
                lambda name=name: getattr(gemm, name)(
                    self.cfg, gemm.GemmProblem(self.a, self.b, self.n)),
                lambda res, kind=kind: check_exact(res[0], self.expect()[kind]),
                lambda res: [("kernel.gemm", res[1])],
                lambda res: report_digest(res[1]),
            ))
        for name in ("mesh_gemv", "gemv_pipeline_baseline", "gemv_ring_baseline"):
            ops.append(Op(
                name,
                lambda name=name: getattr(gemv, name)(
                    self.cfg, gemv.GemvProblem(self.vec, self.mat, self.n)),
                lambda res: check_exact(res[0], self.expect()["gemv"]),
                lambda res: [("kernel.gemv", res[1])],
                lambda res: report_digest(res[1]),
            ))
        ops.append(Op(
            "kv_append_shift",
            lambda: self._append_all(self._kv_state(self.n, self.kv_tokens), self.tokens),
            lambda res: check_kv(res[0], self.tokens),
            lambda res: [("kernel.kv", r) for r in res[1]],
            lambda res: combined_digest([report_digest(r) for r in res[1]]),
        ))
        return ops


WORKLOADS = {w.name: w for w in (DecodeLong, PrefillWide, AutotuneSweep, KernelSweep64)}
