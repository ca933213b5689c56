"""Deterministic wafer-scale mesh fabric simulator with distributed GEMM/GEMV,
KV-cache management, and transformer layer planning."""

from .fabric import (
    CapacityError,
    ConfigError,
    CoreCoord,
    PlmrConfig,
    RoutePath,
    RoutingLedger,
    SimReport,
    StepCost,
    load_config,
    save_config,
)
from .collectives import (
    KTree,
    RingMap,
    build_ktree,
    build_ring,
    interleave,
    ktree_allreduce,
    pipeline_allreduce,
    ring_allreduce,
)
from .gemm import (
    GemmProblem,
    allgather_gemm,
    cannon_gemm,
    dense_gemm_oracle,
    dist_gemm_t,
    embed_nonsquare,
    mesh_gemm,
    summa_gemm,
)
from .gemv import GemvProblem, dense_gemv_oracle, gemv_pipeline_baseline, gemv_ring_baseline, mesh_gemv
from .kvcache import KvMeshState, kv_append_concat, kv_append_shift, kv_capacity_ratio
from .plan import (
    LayerPlan,
    ModelShape,
    autotune,
    generate_dist,
    make_toy_model,
    plan_decode,
    plan_prefill,
    transition,
)

__version__ = "0.1.0"
