"""Communication building blocks: interleaved rings and allreduce disciplines.

The interleave permutation maps a logical shift ring onto a physical line of
N >= 3 cores so that every logical neighbor is at most two physical hops away;
two hops is the minimum any circular arrangement can achieve on a line.

Three allreduce disciplines are provided, all producing identical sums with a
fixed reduction order (ascending position within a group):

* pipeline: partial sums forwarded core-by-core to a line-end root, then one
  multicast broadcast back. Charged 2N hops and N routing stages total.
* ring: reduce-scatter + allgather over the interleaved two-hop ring,
  2(N-1) steps of (2 alpha + beta) each.
* k-tree: K phases of grouped reductions with ceil(N^(1/K))-wide contiguous
  groups rooted at their lowest position; each group shares one routing-path
  segment per phase, so any core holds at most K+1 paths.

The k-tree cost depends only on (cfg, group size, tile bytes, k, broadcast):
``ktree_cost`` computes the report from those alone and memoizes it per
process in a bounded cache, and ``ktree_allreduce`` adds only the sums.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .fabric import ELEMENT_BYTES, PlmrConfig, SimReport, StepCost


def interleave(index: int, n: int) -> tuple[int, int]:
    """Send/recv physical neighbor indices for one position of the shift ring.

    Even positions jump +2 forward and -2 back (clamped to the line ends),
    odd positions the reverse; the two line ends are then patched according
    to the parity of n so the send map forms a single n-cycle.
    """
    if n < 3:
        raise ValueError(f"interleave requires n >= 3, got {n}")
    if not 0 <= index < n:
        raise ValueError(f"index {index} out of range for n={n}")
    if index % 2 == 0:
        recv_index = max(index - 2, 0)
        send_index = min(index + 2, n - 1)
    else:
        recv_index = min(index + 2, n - 1)
        send_index = max(index - 2, 0)
    if index == 0:
        recv_index = 1
    if index == n - 1:
        if n % 2 == 0:
            recv_index = n - 2
        else:
            send_index = n - 2
    return send_index, recv_index


@dataclass(frozen=True)
class RingMap:
    """Logical-to-physical shift ring with two-hop-bounded neighbor distance."""

    send: tuple[int, ...]  # physical index each position sends to
    recv: tuple[int, ...]  # physical index each position receives from

    @property
    def n(self) -> int:
        return len(self.send)

    def max_distance(self) -> int:
        return max(abs(i - s) for i, s in enumerate(self.send))

    def cycle(self, start: int = 0) -> list[int]:
        """Physical indices in logical ring order starting from ``start``."""
        order = [start]
        cur = self.send[start]
        while cur != start:
            order.append(cur)
            cur = self.send[cur]
        return order


def build_ring(n: int) -> RingMap:
    """Interleaved ring over n >= 3 positions; send is a single n-cycle."""
    pairs = [interleave(i, n) for i in range(n)]
    send = tuple(p[0] for p in pairs)
    recv = tuple(p[1] for p in pairs)
    ring = RingMap(send, recv)
    if len(ring.cycle()) != n:
        raise AssertionError(f"interleave map for n={n} is not a single cycle")
    for i in range(n):
        if send[recv[i]] != i:
            raise AssertionError(f"interleave send/recv maps disagree at {i} for n={n}")
    return ring


def _sum_chain(tiles: list[np.ndarray]) -> np.ndarray:
    """Right-folded chain sum: tiles[0] + (tiles[1] + (... + tiles[-1]))."""
    acc = tiles[-1].astype(np.float32, copy=True)
    for i in range(len(tiles) - 2, -1, -1):
        acc = tiles[i] + acc
    return acc


def _check_shapes(tiles: list[np.ndarray]) -> int:
    shape = tiles[0].shape
    for t in tiles[1:]:
        if t.shape != shape:
            raise ValueError(f"allreduce tiles differ in shape: {shape} vs {t.shape}")
    return int(np.prod(shape)) * ELEMENT_BYTES


def pipeline_allreduce(cfg: PlmrConfig, tiles: list[np.ndarray]) -> tuple[list[np.ndarray], SimReport]:
    """Step-by-step reduction toward position 0, then multicast broadcast."""
    report = SimReport(algorithm="pipeline_allreduce")
    n = len(tiles)
    if n == 1:
        return [tiles[0].astype(np.float32, copy=True)], report
    tile_bytes = _check_shapes(tiles)
    total = _sum_chain(tiles)
    # One hop plus one software stage per participating core on the reduce
    # chain (line-end fabric ingest included), n hops for the broadcast path.
    for i in range(n):
        report.add_step(f"reduce{i}", StepCost.of(cfg, 1, 1, tile_bytes))
    report.add_step("broadcast", StepCost.of(cfg, n, 0, (n - 1) * tile_bytes))
    report.max_paths_per_core = 2  # reduce segment + broadcast segment
    return [total.copy() for _ in range(n)], report


def ring_allreduce(cfg: PlmrConfig, tiles: list[np.ndarray]) -> tuple[list[np.ndarray], SimReport]:
    """Reduce-scatter + allgather over the interleaved ring."""
    report = SimReport(algorithm="ring_allreduce")
    n = len(tiles)
    if n == 1:
        return [tiles[0].astype(np.float32, copy=True)], report
    tile_bytes = _check_shapes(tiles)
    if n == 2:
        # Reduce-scatter and allgather collapse into one full-tile exchange.
        total = _sum_chain(tiles)
        report.add_step("exchange", StepCost.of(cfg, 1, 1, 2 * tile_bytes))
        report.max_paths_per_core = 2
        return [total.copy(), total.copy()], report

    ring = build_ring(n)
    order = ring.cycle()  # physical index of each logical position
    shape = tiles[0].shape
    flats = [tiles[order[p]].astype(np.float32).reshape(-1).copy() for p in range(n)]
    bounds = np.linspace(0, flats[0].size, n + 1).astype(int)
    chunks = [slice(bounds[i], bounds[i + 1]) for i in range(n)]

    hop = 2  # interleaved ring keeps every logical neighbor within two hops
    for step in range(n - 1):  # reduce-scatter
        updates = []
        for pos in range(n):
            src = (pos - 1) % n
            sl = chunks[(src - step) % n]
            updates.append((pos, sl, flats[src][sl].copy()))
        for pos, sl, data in updates:
            flats[pos][sl] += data
        report.add_step(f"rs{step}", StepCost.of(cfg, hop, 1, tile_bytes))
    for step in range(n - 1):  # allgather
        updates = []
        for pos in range(n):
            src = (pos - 1) % n
            sl = chunks[(src - step + 1) % n]
            updates.append((pos, sl, flats[src][sl].copy()))
        for pos, sl, data in updates:
            flats[pos][sl] = data
        report.add_step(f"ag{step}", StepCost.of(cfg, hop, 1, tile_bytes))

    report.max_paths_per_core = 3  # own send + incoming + one pass-through
    out: list[np.ndarray] = [np.empty(0)] * n
    for p in range(n):
        out[order[p]] = flats[p].reshape(shape)
    return out, report


@dataclass(frozen=True)
class KTreeGroup:
    members: tuple[int, ...]
    root: int


@dataclass(frozen=True)
class KTree:
    """Grouping of N line positions into K phases of contiguous reductions."""

    n: int
    k: int
    group_width: int  # ceil(n ** (1/k))
    phases: tuple[tuple[KTreeGroup, ...], ...] = ()

    @property
    def effective_phases(self) -> int:
        return len(self.phases)

    def paths_per_core(self) -> dict[int, int]:
        """Routing-path slots per position: one shared segment per phase joined."""
        counts: dict[int, int] = {}
        for groups in self.phases:
            for g in groups:
                if len(g.members) < 2:
                    continue
                lo, hi = min(g.members), max(g.members)
                for pos in range(lo, hi + 1):
                    counts[pos] = counts.get(pos, 0) + 1
        return counts


def group_width(n: int, k: int) -> int:
    """Smallest g with g**k >= n, i.e. ceil(n^(1/k)) computed exactly."""
    if k < 1:
        raise ValueError("k must be >= 1")
    g = 1
    while g ** k < n:
        g += 1
    return g


@functools.lru_cache(maxsize=256)
def build_ktree(n: int, k: int) -> KTree:
    """Memoized: cached costs that share (n, k) share one frozen tree."""
    g = group_width(n, k)
    phases = []
    participants = list(range(n))
    while len(participants) > 1:
        groups = tuple(
            KTreeGroup(tuple(participants[i : i + g]), participants[i])
            for i in range(0, len(participants), g)
        )
        phases.append(groups)
        participants = [grp.root for grp in groups]
        if len(phases) > k:
            raise AssertionError(f"k-tree for n={n}, k={k} needed more than {k} phases")
    return KTree(n=n, k=k, group_width=g, phases=tuple(phases))


@dataclass(frozen=True)
class _KTreeCost:
    """Immutable k-tree report contents, safe to share from the cache."""

    steps: tuple[tuple[str, StepCost], ...]
    max_paths_per_core: int
    violations: tuple[str, ...]
    notes: tuple[str, ...]
    tree: KTree


@functools.lru_cache(maxsize=1024)
def _ktree_cost(cfg: PlmrConfig, n: int, tile_bytes: int, k: int,
                broadcast: bool) -> _KTreeCost:
    if n == 1:
        return _KTreeCost((), 0, (), (), KTree(1, k, 1))
    tree = build_ktree(n, k)
    notes = ()
    if tree.effective_phases < k:
        notes = (f"k={k} degenerates to {tree.effective_phases} effective phases for n={n}",)
    steps = []
    for phase_idx, groups in enumerate(tree.phases):
        max_span = 0
        max_size = 1
        moved = 0
        for grp in groups:
            if len(grp.members) < 2:
                continue
            max_span = max(max_span, max(grp.members) - grp.root)
            max_size = max(max_size, len(grp.members))
            moved += (len(grp.members) - 1) * tile_bytes
        stages = math.ceil((max_size - 1) / 2)
        steps.append((f"phase{phase_idx}", StepCost.of(cfg, max_span, stages, moved)))
    if broadcast:
        steps.append(("broadcast", StepCost.of(cfg, n, 0, (n - 1) * tile_bytes)))

    paths = max(tree.paths_per_core().values(), default=0) + (1 if broadcast else 0)
    violations = ()
    if paths > cfg.route_budget:
        violations = (f"R: {paths} paths/core > budget {cfg.route_budget}",)
    return _KTreeCost(tuple(steps), paths, violations, notes, tree)


def ktree_cost(cfg: PlmrConfig, n: int, tile_bytes: int, k: int = 2,
               broadcast: bool = False) -> tuple[SimReport, KTree]:
    """Report and grouping of a k-tree allreduce over n positions, from shape alone.

    Per phase, each group's members feed one shared path segment into the
    group root; arrivals pipeline through the root's ingress, charged one
    software stage per two arrivals on the critical path. The cost is
    memoized; every call returns a fresh report, so callers may mutate it.
    """
    if n < 1:
        raise ValueError(f"k-tree needs at least one position, got n={n}")
    cost = _ktree_cost(cfg, n, tile_bytes, k, broadcast)
    report = SimReport(algorithm=f"ktree_allreduce(k={k})",
                       max_paths_per_core=cost.max_paths_per_core,
                       violations=list(cost.violations), notes=list(cost.notes))
    for label, comm in cost.steps:
        report.add_step(label, comm)
    return report, cost.tree


def ktree_allreduce(cfg: PlmrConfig, tiles: list[np.ndarray], k: int = 2,
                    broadcast: bool = False) -> tuple[list[np.ndarray], SimReport, KTree]:
    """Grouped K-phase reduction to position 0, optionally broadcast back.

    The report comes from ``ktree_cost``. Without broadcast only the tree
    root holds the full sum; other positions keep partials.
    """
    report, tree = ktree_cost(cfg, len(tiles), _check_shapes(tiles), k, broadcast)
    values = [t.astype(np.float32, copy=True) for t in tiles]
    for groups in tree.phases:
        for grp in groups:
            if len(grp.members) >= 2:
                values[grp.root] = _sum_chain([values[m] for m in grp.members])
    if broadcast:
        for pos in range(1, len(tiles)):
            values[pos] = values[0].copy()
    return values, report, tree
