"""Mesh fabric model: device parameters, XY routing, path budget, step costs.

The fabric is a width x height grid of cores. Moving a message one link costs
``alpha`` cycles; every software routing stage (header parse + forward at a
core) costs ``beta`` cycles. A pair of cores may install a preconfigured
pass-through path (alpha-only) as long as every traversed core has a free
routing-path slot; each core supports at most ``route_budget`` distinct paths.

Everything here is integer arithmetic: identical configs and inputs yield
bit-identical costs across runs.
"""

from __future__ import annotations

import configparser
from collections import Counter
from dataclasses import dataclass, field

ELEMENT_BYTES = 4  # 32-bit elements everywhere

DEFAULT_ALPHA = 1
DEFAULT_BETA = 3
DEFAULT_ROUTE_BUDGET = 32  # 5-bit path address space
DEFAULT_MEM_PER_CORE = 48 * 1024  # 48 KiB SRAM
DEFAULT_MACS_PER_CYCLE = 1


class ConfigError(ValueError):
    """Invalid device configuration or out-of-range coordinate."""


class CapacityError(RuntimeError):
    """A per-core or mesh-wide memory budget was exceeded."""


@dataclass(frozen=True)
class PlmrConfig:
    """Device description of a wafer-scale mesh accelerator."""

    width: int = 4  # cores on the X axis
    height: int = 4  # cores on the Y axis
    alpha: int = DEFAULT_ALPHA  # cycles per hop
    beta: int = DEFAULT_BETA  # cycles per software routing stage
    route_budget: int = DEFAULT_ROUTE_BUDGET  # distinct routing paths per core
    mem_per_core: int = DEFAULT_MEM_PER_CORE  # bytes of local SRAM
    macs_per_cycle: int = DEFAULT_MACS_PER_CYCLE
    # Hop latency below stage latency is the expected hardware regime; set
    # False only to experiment with inverted devices.
    enforce_latency_order: bool = field(default=True, compare=False)

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ConfigError(f"mesh must be at least 1x1, got {self.width}x{self.height}")
        if self.alpha < 0 or self.beta < 0:
            raise ConfigError("alpha and beta must be non-negative")
        if self.route_budget < 3:
            raise ConfigError("route_budget must be >= 3 (shift ring plus relay)")
        if self.mem_per_core < 1 or self.macs_per_cycle < 1:
            raise ConfigError("mem_per_core and macs_per_cycle must be positive")
        if self.enforce_latency_order and self.alpha > self.beta:
            raise ConfigError(
                f"alpha ({self.alpha}) > beta ({self.beta}); pass "
                "enforce_latency_order=False to permit this"
            )

    @property
    def cores(self) -> int:
        return self.width * self.height

    def check_grid(self, op: str, w: int, h: int) -> None:
        """Reject a w x h core grid for ``op`` that does not fit the mesh."""
        if w > self.width or h > self.height:
            raise ConfigError(
                f"{op}: {w}x{h} grid larger than the {self.width}x{self.height} mesh"
            )

    def check_coord(self, c: "CoreCoord") -> None:
        if not (0 <= c.x < self.width and 0 <= c.y < self.height):
            raise ConfigError(f"coordinate {c} outside {self.width}x{self.height} mesh")


@dataclass(frozen=True, order=True)
class CoreCoord:
    x: int
    y: int

    def __str__(self):
        return f"({self.x},{self.y})"


@dataclass(frozen=True)
class RoutePath:
    src: CoreCoord
    dst: CoreCoord


def xy_route(cfg: PlmrConfig, a: CoreCoord, b: CoreCoord) -> list[CoreCoord]:
    """Cores traversed from a to b, X first then Y, endpoints included."""
    cfg.check_coord(a)
    cfg.check_coord(b)
    route = [a]
    x, y = a.x, a.y
    step = 1 if b.x > x else -1
    while x != b.x:
        x += step
        route.append(CoreCoord(x, y))
    step = 1 if b.y > y else -1
    while y != b.y:
        y += step
        route.append(CoreCoord(x, y))
    return route


def max_cover(spans) -> int:
    """Most ``(lo, hi)`` line spans over one position; a span with lo == hi covers none."""
    cover = Counter(p for lo, hi in spans if lo != hi
                    for p in range(min(lo, hi), max(lo, hi) + 1))
    return max(cover.values(), default=0)


@dataclass
class Admission:
    admitted: bool
    blocked_at: CoreCoord | None = None

    @property
    def relay_required(self) -> bool:
        return not self.admitted


class RoutingLedger:
    """Per-core count of installed routing paths; denial is a result, not an error.

    Kernels count paths in closed form; tests check those counts against this.
    """

    def __init__(self, cfg: PlmrConfig):
        self.cfg = cfg
        self._counts: dict[CoreCoord, int] = {}

    def count(self, c: CoreCoord) -> int:
        return self._counts.get(c, 0)

    def max_count(self) -> int:
        return max(self._counts.values(), default=0)

    def install_path(self, path: RoutePath) -> Admission:
        """Admit a preconfigured path if every traversed core has a free slot.

        An admitted path consumes one slot at each core it traverses. When any
        core is already at the route budget, nothing is installed and the
        caller must model the transfer as relayed.
        """
        route = xy_route(self.cfg, path.src, path.dst)
        for c in route:
            if self.count(c) >= self.cfg.route_budget:
                return Admission(admitted=False, blocked_at=c)
        for c in route:
            self._counts[c] = self.count(c) + 1
        return Admission(admitted=True)


@dataclass(frozen=True)
class StepCost:
    hops_critical: int
    routing_stages_critical: int
    latency_cycles: int
    bytes_moved: int

    @staticmethod
    def zero() -> "StepCost":
        return StepCost(0, 0, 0, 0)

    @staticmethod
    def of(cfg: PlmrConfig, hops: int, stages: int, nbytes: int = 0) -> "StepCost":
        return StepCost(hops, stages, cfg.alpha * hops + cfg.beta * stages, nbytes)


@dataclass
class StepRecord:
    """One algorithm step: a communication pattern plus a compute phase."""

    label: str
    comm: StepCost
    compute_cycles: int = 0
    overlap: bool = True  # True: latency = max(comm, compute); False: sum

    @property
    def cycles(self) -> int:
        if self.overlap:
            return max(self.comm.latency_cycles, self.compute_cycles)
        return self.comm.latency_cycles + self.compute_cycles


@dataclass
class SimReport:
    """Per-step and aggregate metrics for one simulated run."""

    algorithm: str = ""
    steps: list[StepRecord] = field(default_factory=list)
    peak_mem_bytes: int = 0
    max_paths_per_core: int = 0
    violations: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def add_step(self, label, comm, compute_cycles=0, overlap=True):
        self.steps.append(StepRecord(label, comm, compute_cycles, overlap))

    def flag(self, kind: str, detail: str) -> None:
        self.violations.append(f"{kind}: {detail}")

    def has_violation(self, kind: str) -> bool:
        return any(v.startswith(kind + ":") for v in self.violations)

    def steps_labeled(self, prefix: str) -> list[StepRecord]:
        return [s for s in self.steps if s.label.startswith(prefix)]

    @property
    def total_cycles(self) -> int:
        return sum(s.cycles for s in self.steps)

    @property
    def comm_cycles(self) -> int:
        return sum(s.comm.latency_cycles for s in self.steps)

    @property
    def compute_cycles(self) -> int:
        return sum(s.compute_cycles for s in self.steps)

    @property
    def total_hops(self) -> int:
        return sum(s.comm.hops_critical for s in self.steps)

    @property
    def total_routing_stages(self) -> int:
        return sum(s.comm.routing_stages_critical for s in self.steps)

    @property
    def hops_critical_max(self) -> int:
        return max((s.comm.hops_critical for s in self.steps), default=0)

    @property
    def routing_stages_max(self) -> int:
        return max((s.comm.routing_stages_critical for s in self.steps), default=0)

    @property
    def bytes_moved(self) -> int:
        return sum(s.comm.bytes_moved for s in self.steps)

    def merge(self, other: "SimReport", prefix: str = "") -> None:
        """Fold another report's steps and accounting into this one."""
        for s in other.steps:
            self.steps.append(
                StepRecord(prefix + s.label, s.comm, s.compute_cycles, s.overlap)
            )
        self.peak_mem_bytes = max(self.peak_mem_bytes, other.peak_mem_bytes)
        self.max_paths_per_core = max(self.max_paths_per_core, other.max_paths_per_core)
        self.violations.extend(other.violations)
        self.notes.extend(other.notes)


# Config file I/O: INI format with a [fabric] section, integer values, and an
# optional boolean enforce_latency_order. Round-trippable via save_config.

_FABRIC_KEYS = (
    "width", "height", "alpha", "beta", "route_budget", "mem_per_core", "macs_per_cycle",
)


def load_config(path: str) -> PlmrConfig:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    if not parser.has_section("fabric"):
        raise ConfigError(f"{path}: missing [fabric] section")
    section = parser["fabric"]
    kwargs = {}
    for key in _FABRIC_KEYS:
        if key in section:
            try:
                kwargs[key] = section.getint(key)
            except ValueError as exc:
                raise ConfigError(f"{path}: [fabric] {key}: {exc}") from exc
    if "enforce_latency_order" in section:
        kwargs["enforce_latency_order"] = section.getboolean("enforce_latency_order")
    return PlmrConfig(**kwargs)


def save_config(cfg: PlmrConfig, path: str) -> None:
    parser = configparser.ConfigParser()
    parser["fabric"] = {key: str(getattr(cfg, key)) for key in _FABRIC_KEYS}
    parser["fabric"]["enforce_latency_order"] = str(cfg.enforce_latency_order).lower()
    with open(path, "w") as fh:
        parser.write(fh)
