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
from dataclasses import dataclass, field

import numpy as np

from . import reference
# Costs come from ktree_cost alone; ktree_allreduce stays importable here because
# perfbench's tracer wraps plan.ktree_allreduce by name.
from .collectives import ktree_allreduce, ktree_cost
from .fabric import (
    ELEMENT_BYTES,
    CapacityError,
    PlmrConfig,
    SimReport,
    StepCost,
)
from .gemm import GemmProblem, dist_gemm_t, mesh_gemm
from .gemv import GemvProblem, mesh_gemv
from .kvcache import KvMeshState, kv_append_shift
from .tiles import Axis, Layout, partitioned, replicated


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
            raise ValueError("all model dimensions must be positive")
        if self.embed != self.heads * self.head_dim:
            raise ValueError(
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
    layout: Layout
    variant: str = "aligned"  # "skewed": pre-rotated for the compute-shift loop

    def notation(self, batch_prefix: bool = False) -> str:
        base = self.layout.notation()
        return ("B" + base) if batch_prefix else base


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


def _check_plan_memory(cfg: PlmrConfig, shape: ModelShape, n: int, phase: str) -> None:
    """Cumulative per-core byte estimate; raises naming the violating tensor."""
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


def _weight_tensor_plans(phase: str) -> dict[str, TensorPlan]:
    variant = "skewed" if phase == "prefill" else "aligned"
    return {
        "wq": TensorPlan(Layout((partitioned("E", Axis.Y), partitioned("H", Axis.X))), variant),
        "wk": TensorPlan(Layout((partitioned("E", Axis.Y), partitioned("H", Axis.X))), variant),
        "wv": TensorPlan(Layout((partitioned("E", Axis.Y), partitioned("H", Axis.X))), variant),
        "wo": TensorPlan(Layout((partitioned("H", Axis.Y), partitioned("E", Axis.X))), variant),
        "win": TensorPlan(Layout((partitioned("E", Axis.Y), partitioned("F", Axis.X))), variant),
        "wout": TensorPlan(Layout((partitioned("F", Axis.Y), partitioned("E", Axis.X))), variant),
    }


def plan_prefill(cfg: PlmrConfig, shape: ModelShape, n: int) -> LayerPlan:
    if n > min(cfg.width, cfg.height):
        raise CapacityError(f"grid {n}x{n} larger than mesh {cfg.width}x{cfg.height}")
    _check_plan_memory(cfg, shape, n, "prefill")
    tensors = {"x": TensorPlan(Layout((partitioned("L", Axis.Y), partitioned("E", Axis.X))))}
    tensors.update(_weight_tensor_plans("prefill"))

    ops = [
        PlanOp("rmsnorm", "norm1", ("x",), "xn"),
        PlanOp("dist_gemm", "proj_q", ("xn", "wq"), "q"),
        PlanOp("dist_gemm", "proj_k", ("xn", "wk"), "k"),
        PlanOp("dist_gemm", "proj_v", ("xn", "wv"), "v"),
        PlanOp("kv_append", "cache_kv", ("k", "v"), "kv"),
    ]
    for h in range(shape.heads):
        ops.append(PlanOp("dist_gemm_t", f"score_h{h}", ("q", "k"), f"s{h}", head=h))
        ops.append(PlanOp("softmax", f"probs_h{h}", (f"s{h}",), f"p{h}", head=h))
        ops.append(PlanOp("dist_gemm", f"attn_h{h}", (f"p{h}", "v"), f"a{h}", head=h))
    ops += [
        PlanOp("concat_heads", "concat", tuple(f"a{h}" for h in range(shape.heads)), "attn"),
        PlanOp("dist_gemm", "proj_o", ("attn", "wo"), "o"),
        PlanOp("residual_add", "res1", ("x", "o"), "x1"),
        PlanOp("rmsnorm", "norm2", ("x1",), "x1n"),
        PlanOp("dist_gemm", "ffn_in", ("x1n", "win"), "ffn"),
        PlanOp("relu", "act", ("ffn",), "ffn_r"),
        PlanOp("dist_gemm", "ffn_out", ("ffn_r", "wout"), "ffn2"),
        PlanOp("residual_add", "res2", ("x1", "ffn2"), "y"),
    ]
    return LayerPlan("prefill", n, shape, tensors, ops)


def plan_decode(cfg: PlmrConfig, shape: ModelShape, n: int) -> LayerPlan:
    if n > min(cfg.width, cfg.height):
        raise CapacityError(f"grid {n}x{n} larger than mesh {cfg.width}x{cfg.height}")
    _check_plan_memory(cfg, shape, n, "decode")
    tensors = {"x": TensorPlan(Layout((partitioned("E", Axis.Y), replicated("L", Axis.X))))}
    tensors.update(_weight_tensor_plans("decode"))

    ops = [
        PlanOp("rmsnorm", "norm1", ("x",), "xn"),
        PlanOp("dist_gemv", "proj_q", ("xn", "wq"), "q"),
        PlanOp("dist_gemv", "proj_k", ("xn", "wk"), "k"),
        PlanOp("dist_gemv", "proj_v", ("xn", "wv"), "v"),
        PlanOp("kv_append", "cache_kv", ("k", "v"), "kv"),
    ]
    for h in range(shape.heads):
        ops.append(PlanOp("cache_gemv_qk", f"score_h{h}", ("q", "kv"), f"s{h}", head=h))
        ops.append(PlanOp("softmax", f"probs_h{h}", (f"s{h}",), f"p{h}", head=h))
        ops.append(PlanOp("cache_gemv_pv", f"attn_h{h}", (f"p{h}", "kv"), f"a{h}", head=h))
    ops += [
        PlanOp("concat_heads", "concat", tuple(f"a{h}" for h in range(shape.heads)), "attn"),
        PlanOp("dist_gemv", "proj_o", ("attn", "wo"), "o"),
        PlanOp("residual_add", "res1", ("x", "o"), "x1"),
        PlanOp("rmsnorm", "norm2", ("x1",), "x1n"),
        PlanOp("dist_gemv", "ffn_in", ("x1n", "win"), "ffn"),
        PlanOp("relu", "act", ("ffn",), "ffn_r"),
        PlanOp("dist_gemv", "ffn_out", ("ffn_r", "wout"), "ffn2"),
        PlanOp("residual_add", "res2", ("x1", "ffn2"), "y"),
    ]
    return LayerPlan("decode", n, shape, tensors, ops)


@dataclass
class KvValueStore:
    """Global K/V vectors per token for one layer; placement lives in KvMeshState."""

    k: dict[int, np.ndarray] = field(default_factory=dict)
    v: dict[int, np.ndarray] = field(default_factory=dict)


def _allreduce_cost(cfg: PlmrConfig, report: SimReport, label: str, group: int,
                    elems: int, k: int = 2, broadcast: bool = True) -> None:
    """Charge a k-tree allreduce over `group` positions of `elems`-wide tiles."""
    if group <= 1:
        return
    sub, _ = ktree_cost(cfg, group, max(elems, 1) * ELEMENT_BYTES, k, broadcast)
    report.merge(sub, prefix=label + ".")


def _elemwise_cycles(cfg: PlmrConfig, elems: int, n: int) -> int:
    per_core = -(-elems // (n * n))
    return -(-per_core // cfg.macs_per_cycle)


def _head_slice(shape: ModelShape, h: int) -> slice:
    return slice(h * shape.head_dim, (h + 1) * shape.head_dim)


def _kv_chunk_bytes(shape: ModelShape, n: int) -> int:
    return 2 * -(-shape.embed // n) * ELEMENT_BYTES


def new_kv_state(shape: ModelShape, n: int, max_tokens: int) -> KvMeshState:
    capacity = -(-max_tokens // n) + 1
    return KvMeshState(width=n, height=n, chunk_capacity=capacity,
                       chunk_bytes=_kv_chunk_bytes(shape, n))


def _append_kv(cfg: PlmrConfig, report: SimReport, state: KvMeshState,
               store: KvValueStore, k_rows: np.ndarray, v_rows: np.ndarray,
               base_token: int) -> None:
    rows = np.atleast_2d(k_rows)
    vrows = np.atleast_2d(v_rows)
    for i in range(rows.shape[0]):
        token = base_token + i
        store.k[token] = rows[i].astype(np.float32)
        store.v[token] = vrows[i].astype(np.float32)
        sub = kv_append_shift(cfg, state, token)
        report.merge(sub, prefix=f"kv{token}.")


def execute_prefill_layer(cfg: PlmrConfig, plan: LayerPlan, x: np.ndarray,
                          w: LayerWeights, kv_state: KvMeshState,
                          kv_store: KvValueStore, base_token: int,
                          k: int = 2) -> tuple[np.ndarray, SimReport]:
    """Run one prefill layer through the plan's operator sequence."""
    shape = plan.shape
    n = plan.n
    report = SimReport(algorithm="prefill_layer", meta={"n": n})
    env: dict[str, np.ndarray] = {"x": np.asarray(x, dtype=np.float32)}
    weights = dict(w.named())
    ln = env["x"].shape[0]
    mask = np.triu(np.ones((ln, ln), dtype=bool), k=1)

    for op in plan.ops:
        if op.kind == "rmsnorm":
            src = env[op.inputs[0]]
            gamma = w.gamma1 if op.name == "norm1" else w.gamma2
            _allreduce_cost(cfg, report, op.name, n, -(-ln // n), k=k)
            report.add_step(op.name + ".scale", StepCost.zero(),
                            _elemwise_cycles(cfg, src.size, n), overlap=False)
            env[op.output] = reference.rmsnorm(src, gamma).astype(np.float32)
        elif op.kind == "dist_gemm":
            a = env[op.inputs[0]]
            b = weights.get(op.inputs[1], env.get(op.inputs[1]))
            if op.head is not None and op.inputs[1] == "v":
                b = env["v"][:, _head_slice(shape, op.head)]
            c, sub = mesh_gemm(cfg, GemmProblem(a, b, n))
            report.merge(sub, prefix=op.name + ".")
            env[op.output] = c
        elif op.kind == "dist_gemm_t":
            q = env[op.inputs[0]][:, _head_slice(shape, op.head)]
            kk = env[op.inputs[1]][:, _head_slice(shape, op.head)]
            c, sub = dist_gemm_t(cfg, GemmProblem(q, kk, n))
            report.merge(sub, prefix=op.name + ".")
            env[op.output] = c / math.sqrt(shape.head_dim)
        elif op.kind == "softmax":
            s = env[op.inputs[0]].astype(np.float64)
            s = np.where(mask, -np.inf, s)
            # Row max and row sum both ride the collectives along X.
            _allreduce_cost(cfg, report, op.name + ".max", n, -(-ln // n), k=k)
            _allreduce_cost(cfg, report, op.name + ".sum", n, -(-ln // n), k=k)
            report.add_step(op.name + ".exp", StepCost.zero(),
                            _elemwise_cycles(cfg, s.size, n), overlap=False)
            env[op.output] = reference.softmax(s).astype(np.float32)
        elif op.kind == "kv_append":
            _append_kv(cfg, report, kv_state, kv_store, env["k"], env["v"], base_token)
        elif op.kind == "concat_heads":
            env[op.output] = np.concatenate([env[i] for i in op.inputs], axis=1)
        elif op.kind == "residual_add":
            env[op.output] = env[op.inputs[0]] + env[op.inputs[1]]
            report.add_step(op.name, StepCost.zero(),
                            _elemwise_cycles(cfg, env[op.output].size, n), overlap=False)
        elif op.kind == "relu":
            env[op.output] = np.maximum(env[op.inputs[0]], 0.0)
            report.add_step(op.name, StepCost.zero(),
                            _elemwise_cycles(cfg, env[op.output].size, n), overlap=False)
        else:
            raise ValueError(f"prefill plan contains unexpected op kind {op.kind!r}")
    return env["y"], report


def _cache_arrays(state: KvMeshState, store: KvValueStore) -> tuple[np.ndarray, np.ndarray]:
    order = state.token_order()
    ks = np.stack([store.k[t] for t in order])
    vs = np.stack([store.v[t] for t in order])
    return ks, vs


def execute_decode_layer(cfg: PlmrConfig, plan: LayerPlan, x: np.ndarray,
                         w: LayerWeights, kv_state: KvMeshState,
                         kv_store: KvValueStore, token: int,
                         k: int = 2) -> tuple[np.ndarray, SimReport]:
    """Run one decode step through the plan: GEMVs plus cache attention."""
    shape = plan.shape
    n = plan.n
    report = SimReport(algorithm="decode_layer", meta={"n": n})
    env: dict[str, np.ndarray] = {"x": np.asarray(x, dtype=np.float32).reshape(-1)}
    weights = dict(w.named())
    slice_dims = -(-shape.embed // n)  # cache slice width per column
    heads_per_col = max(1, -(-shape.heads // n))
    cols_per_head = max(1, n // shape.heads)

    for op in plan.ops:
        if op.kind == "rmsnorm":
            src = env[op.inputs[0]]
            gamma = w.gamma1 if op.name == "norm1" else w.gamma2
            _allreduce_cost(cfg, report, op.name, n, -(-shape.embed // n), k=k)
            report.add_step(op.name + ".scale", StepCost.zero(),
                            _elemwise_cycles(cfg, src.size, n), overlap=False)
            env[op.output] = reference.rmsnorm(src, gamma).astype(np.float32)
        elif op.kind == "dist_gemv":
            a = env[op.inputs[0]]
            b = weights[op.inputs[1]]
            c, sub = mesh_gemv(cfg, GemvProblem(a, b, n), k=k, broadcast=True)
            report.merge(sub, prefix=op.name + ".")
            env[op.output] = c
        elif op.kind == "kv_append":
            _append_kv(cfg, report, kv_state, kv_store, env["k"], env["v"], token)
            # Every cache op of this step reads the same cache: build it once.
            ks, vs = _cache_arrays(kv_state, kv_store)
            max_tokens = max(kv_state.row_counts())
        elif op.kind == "cache_gemv_qk":
            qh = env["q"][_head_slice(shape, op.head)]
            kh = ks[:, _head_slice(shape, op.head)]
            report.add_step(op.name + ".local", StepCost.zero(),
                            -(-heads_per_col * max_tokens * slice_dims // cfg.macs_per_cycle),
                            overlap=False)
            if cols_per_head > 1:
                _allreduce_cost(cfg, report, op.name + ".xsum", cols_per_head,
                                max_tokens, k=k)
            env[op.output] = (kh @ qh) / math.sqrt(shape.head_dim)
        elif op.kind == "softmax":
            _allreduce_cost(cfg, report, op.name + ".max", n, max_tokens, k=k)
            _allreduce_cost(cfg, report, op.name + ".sum", n, max_tokens, k=k)
            report.add_step(op.name + ".exp", StepCost.zero(),
                            -(-env[op.inputs[0]].size // cfg.macs_per_cycle), overlap=False)
            env[op.output] = reference.softmax(env[op.inputs[0]].astype(np.float64)).astype(np.float32)
        elif op.kind == "cache_gemv_pv":
            vh = vs[:, _head_slice(shape, op.head)]
            report.add_step(op.name + ".local", StepCost.zero(),
                            -(-heads_per_col * max_tokens * slice_dims // cfg.macs_per_cycle),
                            overlap=False)
            _allreduce_cost(cfg, report, op.name + ".ysum", n, slice_dims, k=k)
            env[op.output] = env[op.inputs[0]] @ vh
        elif op.kind == "concat_heads":
            env[op.output] = np.concatenate([env[i] for i in op.inputs])
        elif op.kind == "residual_add":
            env[op.output] = env[op.inputs[0]] + env[op.inputs[1]]
            report.add_step(op.name, StepCost.zero(),
                            _elemwise_cycles(cfg, env[op.output].size, n), overlap=False)
        elif op.kind == "relu":
            env[op.output] = np.maximum(env[op.inputs[0]], 0.0)
            report.add_step(op.name, StepCost.zero(),
                            _elemwise_cycles(cfg, env[op.output].size, n), overlap=False)
        else:
            raise ValueError(f"decode plan contains unexpected op kind {op.kind!r}")
    return env["y"], report


def transition(cfg: PlmrConfig, model: ToyModel, prefill_plan: LayerPlan,
               decode_plan: LayerPlan, kv_states: list[KvMeshState],
               max_tokens: int) -> tuple[list[KvMeshState], SimReport]:
    """Re-place weights and KV cache into the decode layouts.

    Identical source/target tensor plans on the same grid move nothing; every
    differing tensor is re-sharded as an all-to-all of its full byte size.
    Numeric state is preserved exactly (re-sharding moves tiles, not values).
    """
    report = SimReport(algorithm="transition")
    moved = 0
    same_grid = prefill_plan.n == decode_plan.n
    for name, arr in model.layers[0].named():
        if not same_grid or prefill_plan.tensors[name] != decode_plan.tensors[name]:
            moved += arr.nbytes * len(model.layers)

    new_states = kv_states
    if not same_grid:
        new_states = []
        for state in kv_states:
            rebuilt = new_kv_state(model.shape, decode_plan.n, max_tokens)
            for t in state.token_order():
                kv_append_shift(cfg, rebuilt, t)
            new_states.append(rebuilt)
            moved += state.total_tokens * state.width * state.chunk_bytes

    if moved:
        diameter = 2 * (max(prefill_plan.n, decode_plan.n) - 1)
        words_per_core = -(-moved // (ELEMENT_BYTES * decode_plan.n * decode_plan.n))
        report.add_step("replace", StepCost.of(cfg, max(diameter, 1), 1, moved),
                        compute_cycles=words_per_core, overlap=False)
    report.meta["bytes_moved"] = moved
    return new_states, report


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
    shape = ModelShape(model.shape.embed, model.shape.heads, model.shape.head_dim,
                       model.shape.ffn, seq=len(prompt), batch=model.shape.batch)
    pplan = plan_prefill(cfg, shape, prefill_n)
    dplan = plan_decode(cfg, shape, decode_n)
    max_tokens = len(prompt) + out_len + 1

    prefill_report = SimReport(algorithm="prefill", meta={"seed": model.seed})
    kv_states = [new_kv_state(shape, prefill_n, max_tokens) for _ in model.layers]
    kv_stores = [KvValueStore() for _ in model.layers]

    x = model.embed[np.asarray(prompt, dtype=int)].astype(np.float32)
    diameter = max(cfg.width + cfg.height - 2, 1)
    prefill_report.add_step("embed_lookup",
                            StepCost.of(cfg, diameter, 1, x.nbytes), overlap=False)
    for li, w in enumerate(model.layers):
        x, rep = execute_prefill_layer(cfg, pplan, x, w, kv_states[li], kv_stores[li],
                                       base_token=0, k=k)
        prefill_report.merge(rep, prefix=f"layer{li}.")
    hidden, first = _final_head(cfg, prefill_report, model, x[-1], prefill_n, k)
    tokens = [first]
    hiddens = [hidden]

    kv_states, transition_report = transition(cfg, model, pplan, dplan, kv_states,
                                              max_tokens)

    decode_reports: list[SimReport] = []
    while len(tokens) < out_len:
        step_report = SimReport(algorithm="decode_step", meta={"seed": model.seed})
        xv = model.embed[tokens[-1]].astype(np.float32)
        step_report.add_step("embed_lookup",
                             StepCost.of(cfg, diameter, 1, xv.nbytes), overlap=False)
        token_id = len(prompt) + len(tokens) - 1
        for li, w in enumerate(model.layers):
            xv, rep = execute_decode_layer(cfg, dplan, xv, w, kv_states[li],
                                           kv_stores[li], token=token_id, k=k)
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
    infeasible: dict[int, str]

    @property
    def feasible(self) -> bool:
        return self.prefill_n is not None


def select_best(entries: list[tuple[int, int, int]]) -> tuple[int, int, int]:
    """Argmin by simulated cycles; ties break toward smaller grids."""
    return min(entries, key=lambda e: (e[2], e[0] * e[0], e[1] * e[1], e[0], e[1]))


def autotune(cfg: PlmrConfig, model: ToyModel, prompt_len: int, out_len: int,
             candidates: list[int], k: int = 2) -> AutotuneResult:
    """Exhaustively simulate candidate (prefill, decode) grid pairs."""
    if not candidates:
        raise ValueError("candidate grid list is empty")
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
