"""Per-layer prefill/decode execution plans, phase transition, and autotuning.

A plan fixes the grid, every tensor's layout (in the subscript/superscript
axis notation), and the operator sequence for one transformer layer. Prefill
partitions activations as ``BL_yE_x`` and runs distributed GEMMs, with the
attention score computed by the transposed variant so no transpose operator
ever appears. Decode replicates the length-1 sequence axis (``BE_yL^x``) and
runs distributed GEMVs against weights pre-placed in GEMV orientation.

Execution is value-faithful: projections and attention scores flow through the
actual distributed GEMM/GEMV simulations. Elementwise numerics (softmax,
RMSNorm, residuals) are computed exactly, while their reductions ride the
collectives cost model, as do the cache-attention aggregations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import reference
# Costs come from ktree_cost alone; ktree_allreduce stays importable here because
# perfbench's tracer wraps plan.ktree_allreduce by name.
from .collectives import ktree_allreduce, ktree_cost
from .fabric import (
    ELEMENT_BYTES,
    CapacityError,
    ConfigError,
    PlmrConfig,
    SimReport,
    StepCost,
)
from .gemm import GemmProblem, dist_gemm_t, mesh_gemm
from .gemv import GemvProblem, mesh_gemv
# Shift costs come from kv_shift_cost alone; kv_append_shift stays importable here
# because perfbench's tracer wraps plan.kv_append_shift by name.
from .kvcache import kv_append_shift, kv_shift_cost


@dataclass(frozen=True)
class ModelShape:
    embed: int  # E
    heads: int
    head_dim: int  # H
    ffn: int  # F
    seq: int  # L, prefill length
    batch: int = 1

    def __post_init__(self):
        if min(self.embed, self.heads, self.head_dim, self.ffn, self.seq, self.batch) < 1:
            raise ConfigError("all model dimensions must be positive")
        if self.embed != self.heads * self.head_dim:
            raise ConfigError(
                f"embed ({self.embed}) != heads*head_dim ({self.heads}*{self.head_dim})"
            )


@dataclass
class LayerWeights:
    wq: np.ndarray  # (E, E)
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray  # (E, E)
    win: np.ndarray  # (E, F)
    wout: np.ndarray  # (F, E)
    gamma1: np.ndarray  # (E,)
    gamma2: np.ndarray

    def named(self):
        return [("wq", self.wq), ("wk", self.wk), ("wv", self.wv), ("wo", self.wo),
                ("win", self.win), ("wout", self.wout)]


@dataclass
class ToyModel:
    shape: ModelShape
    vocab: int
    embed: np.ndarray  # (V, E)
    layers: list[LayerWeights]
    final_gamma: np.ndarray
    lm_head: np.ndarray  # (E, V)
    seed: int


def make_toy_model(shape: ModelShape, vocab: int = 64, n_layers: int = 2,
                   seed: int = 0) -> ToyModel:
    rng = np.random.default_rng(seed)

    def w(r, c):
        return (rng.standard_normal((r, c)) / math.sqrt(r)).astype(np.float32)

    e, f = shape.embed, shape.ffn
    layers = [
        LayerWeights(
            wq=w(e, e), wk=w(e, e), wv=w(e, e), wo=w(e, e),
            win=w(e, f), wout=w(f, e),
            gamma1=np.ones(e, dtype=np.float32),
            gamma2=np.ones(e, dtype=np.float32),
        )
        for _ in range(n_layers)
    ]
    return ToyModel(
        shape=shape,
        vocab=vocab,
        embed=(rng.standard_normal((vocab, e)) * 0.5).astype(np.float32),
        layers=layers,
        final_gamma=np.ones(e, dtype=np.float32),
        lm_head=w(e, vocab),
        seed=seed,
    )


@dataclass(frozen=True)
class PlanOp:
    kind: str  # dist_gemm | dist_gemm_t | dist_gemv | cache_gemv_qk | cache_gemv_pv
    #            | softmax | rmsnorm | residual_add | relu | concat_heads | kv_append
    name: str
    inputs: tuple[str, ...]
    output: str
    head: int | None = None


@dataclass(frozen=True)
class TensorPlan:
    # Each dimension letter followed by its mesh axis: "_x" partitioned along
    # X, "^x" replicated along X. "E_yF_x" splits E over rows and F over columns.
    layout: str
    variant: str = "aligned"  # "skewed": pre-rotated for the compute-shift loop

    def notation(self, batch_prefix: bool = False) -> str:
        return ("B" + self.layout) if batch_prefix else self.layout


@dataclass
class LayerPlan:
    phase: str  # "prefill" | "decode"
    n: int  # square grid side
    shape: ModelShape
    tensors: dict[str, TensorPlan]
    ops: list[PlanOp]

    @property
    def grid(self) -> tuple[int, int]:
        return (self.n, self.n)

    def transpose_ops(self) -> list[PlanOp]:
        return [op for op in self.ops if op.kind == "transpose"]

    def op_kinds(self) -> set[str]:
        return {op.kind for op in self.ops}

    def notation_dump(self) -> str:
        lines = [f"{self.phase} plan on {self.n}x{self.n} cores"]
        for name, tp in self.tensors.items():
            suffix = " (pre-rotated)" if tp.variant == "skewed" else ""
            lines.append(f"  {name}: {tp.notation(batch_prefix=(name == 'x'))}{suffix}")
        for op in self.ops:
            lines.append(f"  {op.name}: {op.kind}({', '.join(op.inputs)}) -> {op.output}")
        return "\n".join(lines)


def _tile_bytes(rows: int, cols: int, n: int) -> int:
    return -(-rows // n) * -(-cols // n) * ELEMENT_BYTES


def _check_plan(cfg: PlmrConfig, shape: ModelShape, n: int, phase: str) -> None:
    """Reject a grid larger than the mesh (ConfigError) or over the per-core
    memory budget by a cumulative byte estimate (CapacityError naming the tensor)."""
    cfg.check_grid(f"plan_{phase}", n, n)
    e, f = shape.embed, shape.ffn
    ln = shape.seq if phase == "prefill" else 1
    # Weights are resident once; streamed activations carry a double buffer.
    budget_items = [
        ("wq", e, e, 1), ("wk", e, e, 1), ("wv", e, e, 1), ("wo", e, e, 1),
        ("win", e, f, 1), ("wout", f, e, 1),
        ("x", ln, e, 2), ("q", ln, e, 2), ("k", ln, e, 2), ("v", ln, e, 2),
        ("attn", ln, e, 2), ("ffn_hidden", ln, f, 2),
    ]
    if phase == "prefill":
        budget_items.append(("scores", ln, ln, 2))
    used = 0
    for name, rows, cols, copies in budget_items:
        used += copies * _tile_bytes(rows, cols, n)
        if used > cfg.mem_per_core:
            raise CapacityError(
                f"tensor {name}: cumulative {used} bytes/core exceeds budget "
                f"{cfg.mem_per_core} on {n}x{n} grid"
            )


# Both phases run one op sequence; only the kernels differ. Per phase: the
# projection/FFN kind, then the score and attention kinds with their K and V
# inputs (prefill reads this layer's K and V, decode the cache).
_PHASE_KERNELS = {
    "prefill": ("dist_gemm", ("dist_gemm_t", "k"), ("dist_gemm", "v")),
    "decode": ("dist_gemv", ("cache_gemv_qk", "kv"), ("cache_gemv_pv", "kv")),
}


def _plan_layer(cfg: PlmrConfig, shape: ModelShape, n: int, phase: str,
                x_layout: str) -> LayerPlan:
    _check_plan(cfg, shape, n, phase)
    proj, (score, k_in), (attn, v_in) = _PHASE_KERNELS[phase]
    tensors = {"x": TensorPlan(x_layout)}
    variant = "skewed" if phase == "prefill" else "aligned"
    for name, rows, cols in [("wq", "E", "H"), ("wk", "E", "H"), ("wv", "E", "H"),
                             ("wo", "H", "E"), ("win", "E", "F"), ("wout", "F", "E")]:
        tensors[name] = TensorPlan(f"{rows}_y{cols}_x", variant)

    ops = [
        PlanOp("rmsnorm", "norm1", ("x",), "xn"),
        PlanOp(proj, "proj_q", ("xn", "wq"), "q"),
        PlanOp(proj, "proj_k", ("xn", "wk"), "k"),
        PlanOp(proj, "proj_v", ("xn", "wv"), "v"),
        PlanOp("kv_append", "cache_kv", ("k", "v"), "kv"),
    ]
    for h in range(shape.heads):
        ops.append(PlanOp(score, f"score_h{h}", ("q", k_in), f"s{h}", head=h))
        ops.append(PlanOp("softmax", f"probs_h{h}", (f"s{h}",), f"p{h}", head=h))
        ops.append(PlanOp(attn, f"attn_h{h}", (f"p{h}", v_in), f"a{h}", head=h))
    ops += [
        PlanOp("concat_heads", "concat", tuple(f"a{h}" for h in range(shape.heads)), "attn"),
        PlanOp(proj, "proj_o", ("attn", "wo"), "o"),
        PlanOp("residual_add", "res1", ("x", "o"), "x1"),
        PlanOp("rmsnorm", "norm2", ("x1",), "x1n"),
        PlanOp(proj, "ffn_in", ("x1n", "win"), "ffn"),
        PlanOp("relu", "act", ("ffn",), "ffn_r"),
        PlanOp(proj, "ffn_out", ("ffn_r", "wout"), "ffn2"),
        PlanOp("residual_add", "res2", ("x1", "ffn2"), "y"),
    ]
    return LayerPlan(phase, n, shape, tensors, ops)


def plan_prefill(cfg: PlmrConfig, shape: ModelShape, n: int) -> LayerPlan:
    return _plan_layer(cfg, shape, n, "prefill", "L_yE_x")


def plan_decode(cfg: PlmrConfig, shape: ModelShape, n: int) -> LayerPlan:
    return _plan_layer(cfg, shape, n, "decode", "E_yL^x")


class KvValueStore:
    """One layer's K and V rows, append-only; ``count`` alone fixes the placement.

    Tokens are appended in id order and the shift keeps that order top to
    bottom, so the first ``count`` rows are the cache in token order.
    """

    def __init__(self, max_tokens: int, embed: int):
        self.k = np.zeros((max_tokens, embed), dtype=np.float32)
        self.v = np.zeros((max_tokens, embed), dtype=np.float32)
        self.count = 0


def _allreduce_cost(cfg: PlmrConfig, report: SimReport, label: str, group: int,
                    elems: int, k: int = 2, broadcast: bool = True) -> None:
    """Charge a k-tree allreduce over `group` positions of `elems`-wide tiles."""
    if group <= 1:
        return
    sub, _ = ktree_cost(cfg, group, max(elems, 1) * ELEMENT_BYTES, k, broadcast)
    report.merge(sub, prefix=label + ".")


def _kv_chunk_bytes(shape: ModelShape, n: int) -> int:
    return 2 * -(-shape.embed // n) * ELEMENT_BYTES


@dataclass
class _LayerRun:
    """One layer's inputs, its named tensors so far, and its report."""

    cfg: PlmrConfig
    plan: LayerPlan
    w: LayerWeights
    kv_store: KvValueStore
    k: int
    env: dict[str, np.ndarray]
    report: SimReport
    cache_rows: int = 0  # most cached tokens on one core, set by kv_append

    def head(self, op: PlanOp) -> slice:
        d = self.plan.shape.head_dim
        return slice(op.head * d, (op.head + 1) * d)

    def allreduce(self, label: str, group: int, elems: int) -> None:
        _allreduce_cost(self.cfg, self.report, label, group, elems, k=self.k)

    def compute(self, label: str, cycles: int) -> None:
        self.report.add_step(label, StepCost.zero(), cycles, overlap=False)

    def elemwise(self, label: str, elems: int) -> None:
        """Charge an elementwise pass spread evenly over the grid."""
        per_core = -(-elems // (self.plan.n * self.plan.n))
        self.compute(label, -(-per_core // self.cfg.macs_per_cycle))

    def cache_local(self, label: str) -> None:
        """Charge one column group's local pass over its cache slice."""
        shape, n = self.plan.shape, self.plan.n
        heads_per_col = max(1, -(-shape.heads // n))
        slice_dims = -(-shape.embed // n)
        self.compute(label, -(-heads_per_col * self.cache_rows * slice_dims
                               // self.cfg.macs_per_cycle))


# Op handlers: each reads its inputs from run.env, charges run.report and
# stores its output. Shared kinds first, then each phase's kernels.

def _rmsnorm(run: _LayerRun, op: PlanOp) -> None:
    src = run.env[op.inputs[0]]
    gamma = run.w.gamma1 if op.name == "norm1" else run.w.gamma2
    # The sum of squares reduces across n cores: L/n values each in prefill, E/n in decode.
    run.allreduce(op.name, run.plan.n, -(-src.shape[0] // run.plan.n))
    run.elemwise(op.name + ".scale", src.size)
    run.env[op.output] = reference.rmsnorm(src, gamma).astype(np.float32)


def _residual_add(run: _LayerRun, op: PlanOp) -> None:
    run.env[op.output] = run.env[op.inputs[0]] + run.env[op.inputs[1]]
    run.elemwise(op.name, run.env[op.output].size)


def _relu(run: _LayerRun, op: PlanOp) -> None:
    run.env[op.output] = np.maximum(run.env[op.inputs[0]], 0.0)
    run.elemwise(op.name, run.env[op.output].size)


def _concat_heads(run: _LayerRun, op: PlanOp) -> None:
    run.env[op.output] = np.concatenate([run.env[i] for i in op.inputs], axis=-1)


def _kv_append(run: _LayerRun, op: PlanOp) -> None:
    store, n = run.kv_store, run.plan.n
    k_rows, v_rows = (np.atleast_2d(run.env[i]) for i in op.inputs)
    start, end = store.count, store.count + k_rows.shape[0]
    if end > len(store.k):
        raise CapacityError(f"{op.name}: K/V store holds {len(store.k)} tokens, need {end}")
    store.k[start:end] = k_rows
    store.v[start:end] = v_rows
    store.count = end
    chunk_bytes = _kv_chunk_bytes(run.plan.shape, n)
    # The row appended onto `held` cached tokens moves held % n chunks up one row.
    for held in range(start, end):
        run.report.merge(kv_shift_cost(run.cfg, n, chunk_bytes, held % n), prefix=f"kv{held}.")
    run.cache_rows = -(-end // n)


def _dist_gemm(run: _LayerRun, op: PlanOp) -> None:
    a = run.env[op.inputs[0]]
    # A per-head op multiplies by that head's columns of V, the others by a weight.
    if op.head is None:
        b = getattr(run.w, op.inputs[1])
    else:
        b = run.env[op.inputs[1]][:, run.head(op)]
    c, sub = mesh_gemm(run.cfg, GemmProblem(a, b, run.plan.n))
    run.report.merge(sub, prefix=op.name + ".")
    run.env[op.output] = c


def _dist_gemm_t(run: _LayerRun, op: PlanOp) -> None:
    q, kk = (run.env[i][:, run.head(op)] for i in op.inputs)
    c, sub = dist_gemm_t(run.cfg, GemmProblem(q, kk, run.plan.n))
    run.report.merge(sub, prefix=op.name + ".")
    run.env[op.output] = c / math.sqrt(run.plan.shape.head_dim)


def _prefill_softmax(run: _LayerRun, op: PlanOp) -> None:
    s = run.env[op.inputs[0]].astype(np.float64)
    s = np.where(np.triu(np.ones(s.shape, dtype=bool), k=1), -np.inf, s)
    # Row max and row sum both ride the collectives along X.
    rows = -(-s.shape[0] // run.plan.n)
    run.allreduce(op.name + ".max", run.plan.n, rows)
    run.allreduce(op.name + ".sum", run.plan.n, rows)
    run.elemwise(op.name + ".exp", s.size)
    run.env[op.output] = reference.softmax(s).astype(np.float32)


def _dist_gemv(run: _LayerRun, op: PlanOp) -> None:
    a, b = run.env[op.inputs[0]], getattr(run.w, op.inputs[1])
    c, sub = mesh_gemv(run.cfg, GemvProblem(a, b, run.plan.n), k=run.k, broadcast=True)
    run.report.merge(sub, prefix=op.name + ".")
    run.env[op.output] = c


def _cache_gemv_qk(run: _LayerRun, op: PlanOp) -> None:
    shape, n = run.plan.shape, run.plan.n
    qh = run.env[op.inputs[0]][run.head(op)]
    kh = run.kv_store.k[:run.kv_store.count, run.head(op)]
    run.cache_local(op.name + ".local")
    cols_per_head = max(1, n // shape.heads)
    if cols_per_head > 1:
        run.allreduce(op.name + ".xsum", cols_per_head, run.cache_rows)
    run.env[op.output] = (kh @ qh) / math.sqrt(shape.head_dim)


def _decode_softmax(run: _LayerRun, op: PlanOp) -> None:
    s = run.env[op.inputs[0]]
    run.allreduce(op.name + ".max", run.plan.n, run.cache_rows)
    run.allreduce(op.name + ".sum", run.plan.n, run.cache_rows)
    run.compute(op.name + ".exp", -(-s.size // run.cfg.macs_per_cycle))
    run.env[op.output] = reference.softmax(s.astype(np.float64)).astype(np.float32)


def _cache_gemv_pv(run: _LayerRun, op: PlanOp) -> None:
    vh = run.kv_store.v[:run.kv_store.count, run.head(op)]
    run.cache_local(op.name + ".local")
    run.allreduce(op.name + ".ysum", run.plan.n, -(-run.plan.shape.embed // run.plan.n))
    run.env[op.output] = run.env[op.inputs[0]] @ vh


_SHARED_OPS = {"rmsnorm": _rmsnorm, "residual_add": _residual_add, "relu": _relu,
               "concat_heads": _concat_heads, "kv_append": _kv_append}
_OPS = {
    "prefill": {**_SHARED_OPS, "dist_gemm": _dist_gemm, "dist_gemm_t": _dist_gemm_t,
                "softmax": _prefill_softmax},
    "decode": {**_SHARED_OPS, "dist_gemv": _dist_gemv, "cache_gemv_qk": _cache_gemv_qk,
               "softmax": _decode_softmax, "cache_gemv_pv": _cache_gemv_pv},
}


def _run_layer(phase: str, cfg: PlmrConfig, plan: LayerPlan, x: np.ndarray,
               w: LayerWeights, kv_store: KvValueStore, k: int) -> tuple[np.ndarray, SimReport]:
    """Run the plan's ops in order through the phase's op table."""
    run = _LayerRun(cfg, plan, w, kv_store, k, {"x": x},
                    SimReport(algorithm=f"{phase}_layer", meta={"n": plan.n}))
    for op in plan.ops:
        handler = _OPS[phase].get(op.kind)
        if handler is None:
            raise ValueError(f"{phase} plan contains unexpected op kind {op.kind!r}")
        handler(run, op)
    return run.env["y"], run.report


def execute_prefill_layer(cfg: PlmrConfig, plan: LayerPlan, x: np.ndarray,
                          w: LayerWeights, kv_store: KvValueStore,
                          k: int = 2) -> tuple[np.ndarray, SimReport]:
    """Run one prefill layer: distributed GEMMs; appends every row to the cache."""
    return _run_layer("prefill", cfg, plan, np.asarray(x, dtype=np.float32), w,
                      kv_store, k)


def execute_decode_layer(cfg: PlmrConfig, plan: LayerPlan, x: np.ndarray,
                         w: LayerWeights, kv_store: KvValueStore,
                         k: int = 2) -> tuple[np.ndarray, SimReport]:
    """Run one decode step through the plan: GEMVs plus cache attention."""
    return _run_layer("decode", cfg, plan, np.asarray(x, dtype=np.float32).reshape(-1), w,
                      kv_store, k)


def transition(cfg: PlmrConfig, model: ToyModel, prefill_plan: LayerPlan,
               decode_plan: LayerPlan, tokens: int) -> SimReport:
    """Charge re-placing weights and ``tokens`` cached tokens per layer into
    the decode layouts.

    Identical source/target tensor plans on the same grid move nothing; every
    differing tensor is re-sharded as an all-to-all of its full byte size.
    Numeric state is preserved exactly (re-sharding moves tiles, not values),
    and the cache placement on the new grid follows from ``tokens`` alone.
    """
    report = SimReport(algorithm="transition")
    moved = 0
    same_grid = prefill_plan.n == decode_plan.n
    for name, arr in model.layers[0].named():
        if not same_grid or prefill_plan.tensors[name] != decode_plan.tensors[name]:
            moved += arr.nbytes * len(model.layers)

    if not same_grid:
        n = prefill_plan.n
        moved += len(model.layers) * tokens * n * _kv_chunk_bytes(model.shape, n)

    if moved:
        diameter = 2 * (max(prefill_plan.n, decode_plan.n) - 1)
        words_per_core = -(-moved // (ELEMENT_BYTES * decode_plan.n * decode_plan.n))
        report.add_step("replace", StepCost.of(cfg, max(diameter, 1), 1, moved),
                        compute_cycles=words_per_core, overlap=False)
    report.meta["bytes_moved"] = moved
    return report


@dataclass
class RunReport:
    prefill: SimReport
    transition: SimReport
    decode: list[SimReport]
    seed: int

    @property
    def total_cycles(self) -> int:
        return (self.prefill.total_cycles + self.transition.total_cycles
                + sum(r.total_cycles for r in self.decode))


def _final_head(cfg: PlmrConfig, report: SimReport, model: ToyModel, hidden_in: np.ndarray,
                n: int, k: int) -> tuple[np.ndarray, int]:
    """Final norm + LM head GEMV + greedy argmax; returns (hidden, token)."""
    e = model.shape.embed
    _allreduce_cost(cfg, report, "final_norm", n, -(-e // n), k=k)
    hidden = reference.rmsnorm(hidden_in, model.final_gamma).astype(np.float32)
    logits, sub = mesh_gemv(cfg, GemvProblem(hidden, model.lm_head, n), k=k)
    report.merge(sub, prefix="lm_head.")
    _allreduce_cost(cfg, report, "argmax", n, -(-model.vocab // n), k=k, broadcast=True)
    return hidden, int(np.argmax(logits))


def generate_dist(cfg: PlmrConfig, model: ToyModel, prompt: list[int], out_len: int,
                  prefill_n: int, decode_n: int, k: int = 2
                  ) -> tuple[list[int], list[np.ndarray], RunReport]:
    """Prefill the prompt, transition, then greedy-decode out_len tokens."""
    if out_len < 1:
        raise ConfigError(f"out_len must be >= 1, got {out_len}")
    shape = ModelShape(model.shape.embed, model.shape.heads, model.shape.head_dim,
                       model.shape.ffn, seq=len(prompt), batch=model.shape.batch)
    pplan = plan_prefill(cfg, shape, prefill_n)
    dplan = plan_decode(cfg, shape, decode_n)
    max_tokens = len(prompt) + out_len + 1

    prefill_report = SimReport(algorithm="prefill", meta={"seed": model.seed})
    kv_stores = [KvValueStore(max_tokens, shape.embed) for _ in model.layers]

    x = model.embed[np.asarray(prompt, dtype=int)].astype(np.float32)
    diameter = max(cfg.width + cfg.height - 2, 1)
    prefill_report.add_step("embed_lookup",
                            StepCost.of(cfg, diameter, 1, x.nbytes), overlap=False)
    for li, w in enumerate(model.layers):
        x, rep = execute_prefill_layer(cfg, pplan, x, w, kv_stores[li], k=k)
        prefill_report.merge(rep, prefix=f"layer{li}.")
    hidden, first = _final_head(cfg, prefill_report, model, x[-1], prefill_n, k)
    tokens = [first]
    hiddens = [hidden]

    transition_report = transition(cfg, model, pplan, dplan, len(prompt))

    decode_reports: list[SimReport] = []
    while len(tokens) < out_len:
        step_report = SimReport(algorithm="decode_step", meta={"seed": model.seed})
        xv = model.embed[tokens[-1]].astype(np.float32)
        step_report.add_step("embed_lookup",
                             StepCost.of(cfg, diameter, 1, xv.nbytes), overlap=False)
        for li, w in enumerate(model.layers):
            xv, rep = execute_decode_layer(cfg, dplan, xv, w, kv_stores[li], k=k)
            step_report.merge(rep, prefix=f"layer{li}.")
        hidden, nxt = _final_head(cfg, step_report, model, xv, decode_n, k)
        tokens.append(nxt)
        hiddens.append(hidden)
        decode_reports.append(step_report)

    return tokens, hiddens, RunReport(prefill_report, transition_report,
                                      decode_reports, seed=model.seed)


@dataclass
class AutotuneResult:
    prefill_n: int | None
    decode_n: int | None
    entries: list[tuple[int, int, int]]  # (prefill_n, decode_n, total_cycles)
    infeasible: dict[int, str]  # grid side -> memory budget it exceeds

    @property
    def feasible(self) -> bool:
        return self.prefill_n is not None


def select_best(entries: list[tuple[int, int, int]]) -> tuple[int, int, int]:
    """Argmin by simulated cycles; ties break toward smaller grids."""
    return min(entries, key=lambda e: (e[2], e[0] * e[0], e[1] * e[1], e[0], e[1]))


def autotune(cfg: PlmrConfig, model: ToyModel, prompt_len: int, out_len: int,
             candidates: list[int], k: int = 2) -> AutotuneResult:
    """Exhaustively simulate candidate (prefill, decode) grid pairs.

    A grid over the memory budget is set aside as infeasible; a grid larger
    than the mesh is a configuration error and raises ``ConfigError``.
    """
    if not candidates:
        raise ValueError("candidate grid list is empty")
    if out_len < 1:
        raise ConfigError(f"out_len must be >= 1, got {out_len}")
    prompt = [i % model.vocab for i in range(prompt_len)]
    shape = ModelShape(model.shape.embed, model.shape.heads, model.shape.head_dim,
                       model.shape.ffn, seq=prompt_len, batch=model.shape.batch)

    infeasible: dict[int, str] = {}
    usable: list[int] = []
    for n in candidates:
        if n in infeasible or n in usable:
            continue
        try:
            plan_prefill(cfg, shape, n)
            plan_decode(cfg, shape, n)
            usable.append(n)
        except CapacityError as exc:
            infeasible[n] = str(exc)

    entries: list[tuple[int, int, int]] = []
    for np_ in usable:
        for nd in usable:
            _, _, run = generate_dist(cfg, model, prompt, out_len, np_, nd, k=k)
            entries.append((np_, nd, run.total_cycles))
    if not entries:
        return AutotuneResult(None, None, [], infeasible)
    best = select_best(entries)
    return AutotuneResult(best[0], best[1], entries, infeasible)
