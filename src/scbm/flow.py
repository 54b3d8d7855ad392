"""Coalescing Brownian motions on a time grid, with optional barriers.

Finitely many paths evolve by independent Gaussian increments and stick
together permanently once they meet.  Meeting between grid points is resolved
with the Brownian-bridge correction: an adjacent pair at gaps d0 (step start)
and d1 (step end) merges with probability exp(-d0*d1/dt), since the pair
difference is a Brownian motion of variance 2 per unit time.  Barriers are
handled the same way (crossing, or a bridge hit against the barrier), with
absorbed paths frozen in place and reflected paths folded back onto their
side.  Single-path marginals at grid points are exact; joint laws for the
reflected coalescing case are grid approximations, refined by the step size.

Independent replicas run as one system: each cluster carries a replica id and
a position local to its replica, clusters are sorted by (replica, position),
pairs never merge across replicas and barriers act on local positions.  One
step over many replicas amortizes the fixed cost of a step, and a system with
one replica is the plain flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .branching import BranchingParams, sample_transition

__all__ = [
    "FlowBoundary",
    "ReplicaFlow",
    "step_positions",
]


@dataclass(frozen=True)
class FlowBoundary:
    """Barrier points for the continuum flow: absorbing freezes, reflecting folds."""

    kind: str
    points: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.kind not in ("absorbing", "reflecting"):
            raise ValueError(f"unknown boundary kind {self.kind!r}")
        if not 1 <= len(self.points) <= 2:
            raise ValueError("boundary takes one or two barrier points")
        if any(a >= b for a, b in zip(self.points, self.points[1:])):
            raise ValueError("barrier points must be strictly increasing")


def _region_ids(values: np.ndarray, points: tuple[float, ...]) -> np.ndarray:
    """Count of barriers strictly below each value (barrier itself belongs to neither side)."""
    return np.sum(values[:, None] > np.asarray(points)[None, :], axis=1).astype(np.int64)


def _fold(values: np.ndarray, regions: np.ndarray, points: tuple[float, ...]) -> np.ndarray:
    """Fold proposals back into their reflecting region (exact one-step marginals)."""
    out = values.copy()
    lo_pts = [-math.inf] + list(points)
    hi_pts = list(points) + [math.inf]
    for rid in np.unique(regions):
        sel = regions == rid
        lo, hi = lo_pts[rid], hi_pts[rid]
        v = out[sel]
        if lo == -math.inf:
            v = hi - np.abs(hi - v)
        elif hi == math.inf:
            v = lo + np.abs(v - lo)
        else:
            period = 2.0 * (hi - lo)
            z = np.mod(v - lo, period)
            v = lo + np.minimum(z, period - z)
        out[sel] = v
    return out


def step_positions(
    values: np.ndarray,
    frozen: np.ndarray,
    dt: float,
    rng: np.random.Generator,
    boundary: FlowBoundary | None = None,
    coalesce: bool = True,
    replica: np.ndarray | None = None,
):
    """Advance one grid step and resolve coalescence.

    ``values`` are cluster positions local to each cluster's replica, sorted by
    (``replica``, value) and strictly increasing within a replica; ``replica``
    holds the replica ids (None: one replica), and pairs never merge across
    replicas.  ``frozen`` holds the absorbing barrier a cluster is stuck at,
    NaN when free.  Returns ``(new_values, new_frozen, cluster_ids,
    new_replica)``: ``cluster_ids`` maps each input cluster to its (merged)
    output cluster index in order, ``new_replica`` gives each output cluster's
    replica id.
    """
    k = len(values)
    if replica is None:
        replica = np.zeros(k, dtype=np.int64)
    free = np.isnan(frozen)
    noise = rng.normal(0.0, math.sqrt(dt), int(free.sum()))
    if len(noise) == k:  # nothing frozen: skip the masked update
        proposals = values + noise
    else:
        proposals = values.copy()
        proposals[free] += noise
    new_frozen = frozen.copy()

    if boundary is not None and boundary.kind == "reflecting":
        regions = _region_ids(values, boundary.points)
        proposals = _fold(proposals, regions, boundary.points)
    elif boundary is not None and boundary.kind == "absorbing":
        regions = _region_ids(values, boundary.points)
        # barrier hits: certain on crossing, else a bridge draw; if both
        # barriers register in one step (rare double crossing) the one nearer
        # the step start wins
        hit_dist = np.full(k, np.inf)
        hit_at = np.full(k, np.nan)
        for bpt in boundary.points:
            e0 = np.abs(values - bpt)
            e1 = np.abs(proposals - bpt)
            crossed = (values - bpt) * (proposals - bpt) <= 0.0
            with np.errstate(over="ignore"):
                bridge = np.exp(-2.0 * e0 * e1 / dt)
            hit = free & (crossed | (rng.random(k) < bridge))
            better = hit & (e0 < hit_dist)
            hit_dist[better] = e0[better]
            hit_at[better] = bpt
        newly = free & ~np.isnan(hit_at)
        new_frozen[newly] = hit_at[newly]
        proposals[newly] = hit_at[newly]
        proposals[~free] = frozen[~free]

    if not coalesce or k <= 1:
        return proposals, new_frozen, np.arange(k), replica

    # pair decisions between adjacent clusters of one replica, one bridge draw per pair
    d0 = values[1:] - values[:-1]
    d1 = proposals[1:] - proposals[:-1]
    same = replica[1:] == replica[:-1]
    free_pair = same & np.isnan(new_frozen[1:]) & np.isnan(new_frozen[:-1])
    if boundary is not None:
        free_pair &= regions[1:] == regions[:-1]
    with np.errstate(over="ignore"):
        bridge = np.exp(-d0 * np.maximum(d1, 0.0) / dt)
    merge = np.where(
        free_pair,
        (d1 <= 0.0) | (rng.random(k - 1) < bridge),
        same & (proposals[1:] == proposals[:-1]),
    )

    return _resolve_clusters(proposals, new_frozen, merge, replica)


def _resolve_clusters(proposals: np.ndarray, frozen: np.ndarray, merge: np.ndarray, replica: np.ndarray):
    """Union adjacent merge decisions, set cluster values, repair inversions within each replica."""
    while True:
        starts = np.concatenate(([True], ~merge))
        ids = np.cumsum(starts) - 1
        boundaries = np.flatnonzero(starts)
        lo = np.minimum.reduceat(proposals, boundaries)
        hi = np.maximum.reduceat(proposals, boundaries)
        baked = np.fmin.reduceat(frozen, boundaries)  # fmin skips NaN
        vals = np.where(np.isnan(baked), 0.5 * (lo + hi), baked)
        reps = replica[boundaries]
        inverted = (vals[1:] < vals[:-1]) & (reps[1:] == reps[:-1])
        if not np.any(inverted):
            return vals, baked, ids, reps
        # force-merge offending cluster pairs and resolve again
        bad_pairs = np.flatnonzero(inverted)  # cluster index c and c+1
        pair_index = boundaries[bad_pairs + 1] - 1  # original adjacent pair position
        merge = merge.copy()
        merge[pair_index] = True


class ReplicaFlow:
    """Clusters of ``count`` independent replicas, stepped as one coalescing system.

    Every cluster carries its replica id (0 to ``count - 1``) and a position
    local to its replica; clusters stay sorted by (replica, position), so one
    :func:`step_positions` call serves all replicas with their own barriers.
    Starts that coincide within a replica are one cluster from the start, and
    an absorbing start on a barrier is frozen there.  Two read-outs are
    optional: ``mass`` (cluster masses under ``params``) and ``member`` (the
    cluster of each start, for path read-out; only for systems without
    masses).

    Masses are sampled at observation time.  Positions never depend on
    masses, and by the branching property the mass of a merged cluster at a
    later time is one transition from the sum of its members' masses, so
    :meth:`step` only moves positions, adds the masses of merged clusters and
    accumulates the elapsed time; :meth:`observe` then makes one branching
    transition over that time and drops dead clusters.  Call it right before
    reading ``mass`` or :meth:`charged`.  Until then clusters that have died
    since the last observation ride along in the flow.
    """

    def __init__(
        self,
        positions,
        replica,
        count: int,
        boundary: FlowBoundary | None = None,
        masses=None,
        params: BranchingParams | None = None,
        members: bool = False,
    ):
        pos = np.asarray(positions, dtype=float)
        rep = np.asarray(replica, dtype=np.int64)
        if boundary is not None and boundary.kind == "reflecting" and np.any(np.isin(pos, boundary.points)):
            raise ValueError("reflecting start on a barrier has an ambiguous side")
        order = np.lexsort((pos, rep))
        pos, rep = pos[order], rep[order]
        first = np.ones(len(pos), dtype=bool)
        first[1:] = (pos[1:] != pos[:-1]) | (rep[1:] != rep[:-1])
        cluster = np.cumsum(first) - 1
        self.count = count
        self.boundary = boundary
        self.params = params
        self.pos = pos[first]
        self.replica = rep[first]
        self.frozen = np.full(len(self.pos), np.nan)
        if boundary is not None and boundary.kind == "absorbing":
            on_bar = np.isin(self.pos, boundary.points)
            self.frozen[on_bar] = self.pos[on_bar]
        self.mass = None
        self.pending = 0.0  # time elapsed since the masses were last sampled
        if masses is not None:
            self.mass = np.bincount(cluster, weights=np.asarray(masses, dtype=float)[order], minlength=len(self.pos))
        self.member = None
        if members:
            self.member = np.empty(len(order), dtype=np.int64)
            self.member[order] = cluster

    def step(self, dt: float, rng: np.random.Generator) -> None:
        """Move the clusters over ``dt``; merged clusters add their (unsampled) masses."""
        if self.mass is not None:
            self.pending += dt
        if not len(self.pos):
            return
        self.pos, self.frozen, ids, self.replica = step_positions(
            self.pos, self.frozen, dt, rng, boundary=self.boundary, replica=self.replica
        )
        if self.member is not None:
            self.member = ids[self.member]
        if self.mass is not None:
            self.mass = np.bincount(ids, weights=self.mass)

    def observe(self, rng: np.random.Generator) -> None:
        """Sample the masses over the time stepped since the last observation; drop dead clusters."""
        if self.mass is None or self.pending == 0.0:
            return
        if self.params.gamma > 0 and len(self.mass):
            self.mass = sample_transition(self.params, self.pending, self.mass, rng)
        self.pending = 0.0
        keep = self.mass > 0
        self.pos, self.frozen, self.replica = self.pos[keep], self.frozen[keep], self.replica[keep]
        self.mass = self.mass[keep]

    def charged(self, lo: float, hi: float) -> np.ndarray:
        """Per replica: whether any cluster sits in the closed window [lo, hi].

        With masses this needs a prior :meth:`observe`: a cluster whose mass
        is pending may be dead.
        """
        if self.pending:
            raise RuntimeError("masses are pending: call observe() before charged()")
        inside = (self.pos >= lo) & (self.pos <= hi)
        return np.bincount(self.replica[inside], minlength=self.count) > 0
