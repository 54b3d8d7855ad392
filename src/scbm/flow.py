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

Only an absorbing barrier freezes clusters, so a step reads the ``frozen``
array only under one; without it every cluster is free and the step skips
the frozen bookkeeping.  At the 10^2-10^3 clusters per call that the checks
step, a step's cost is mostly the fixed cost of its numpy calls rather than
work per cluster, which is why the free path makes as few of them as it can.

Clusters may carry one additive weight, the start mass of their members; the
flow never samples branching, and its readers integrate it out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FlowBoundary",
    "ReplicaFlow",
    "coalescing_pair",
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
    for rid in range(len(points) + 1):
        sel = regions == rid
        if not sel.any():
            continue
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
    NaN when free; it is read only under an absorbing barrier, and without
    one every cluster is free and the returned ``new_frozen`` is a view of
    ``frozen`` (all NaN) cut to the output length.  Returns ``(new_values,
    new_frozen, cluster_ids, new_replica)``: ``cluster_ids`` maps each input
    cluster to its (merged) output cluster index in order, ``new_replica``
    gives each output cluster's replica id.

    At the 10^2-10^3 clusters the checks step, a call costs mostly the fixed
    cost of its numpy calls.  The draws, in order: one normal per free
    cluster, under an absorbing barrier one uniform per cluster and barrier
    point, then one uniform per adjacent pair.
    """
    k = len(values)
    if replica is None:
        replica = np.zeros(k, dtype=np.int64)
    absorbing = boundary is not None and boundary.kind == "absorbing"
    new_frozen = frozen
    if not absorbing:
        proposals = values + rng.normal(0.0, math.sqrt(dt), k)
    else:
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
    elif absorbing:
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

    # pair decisions between adjacent clusters of one replica, one bridge draw
    # per pair: merge with probability exp(-d0 * max(d1, 0) / dt)
    d1 = proposals[1:] - proposals[:-1]
    same = replica[1:] == replica[:-1]
    with np.errstate(over="ignore"):  # -d0 > 0 only across replicas
        bridge = values[:-1] - values[1:]  # -d0, bit for bit
        bridge *= np.maximum(d1, 0.0)
        bridge /= dt
        np.exp(bridge, out=bridge)
    merge = rng.random(k - 1) < bridge
    merge |= d1 <= 0.0
    if boundary is None:
        merge &= same
    else:
        # a pair that straddles a barrier, or has a frozen member, merges only
        # when both sit at one point
        free_pair = same & (regions[1:] == regions[:-1])
        if absorbing:
            free_pair &= np.isnan(new_frozen[1:]) & np.isnan(new_frozen[:-1])
        merge = np.where(free_pair, merge, same & (proposals[1:] == proposals[:-1]))
    if absorbing:
        return _resolve_clusters(proposals, new_frozen, merge, replica)
    vals, _, ids, reps = _resolve_clusters(proposals, None, merge, replica)
    return vals, frozen[: len(vals)], ids, reps


def coalescing_pair(lo: float, hi: float, t: float, rng: np.random.Generator, size: int):
    """Positions ``(x, y)`` at time ``t`` of ``size`` coalescing pairs from ``lo`` <= ``hi``, in one exact step.

    X runs free, and Y free until it meets X: the pair merged (``y == x``) iff
    Y'_t <= X_t or U < exp(-(hi - lo)(Y'_t - X_t)/t).  The draws, 2 * ``size``
    normals then ``size`` uniforms, do not depend on ``lo`` and ``hi``, so
    under the same draws a wider pair ends wider and merges only if the narrower one does.
    """
    x, y = rng.normal(0.0, math.sqrt(t), (2, size))
    x += lo
    y += hi
    gap = y - x
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing gap bridges with probability 0
        bridge = np.exp(-(hi - lo) * gap / t)
    merged = (rng.random(size) < bridge) | (gap <= 0.0)
    return x, np.where(merged, x, y)


def _resolve_clusters(proposals: np.ndarray, frozen: np.ndarray | None, merge: np.ndarray, replica: np.ndarray):
    """Union adjacent merge decisions, set cluster values, repair inversions within each replica.

    ``frozen`` None means no cluster is frozen; the returned cluster
    ``frozen`` is then None as well.
    """
    starts = np.empty(len(proposals), dtype=bool)
    starts[0] = True
    while True:
        np.logical_not(merge, out=starts[1:])
        ids = starts.cumsum()
        ids -= 1
        boundaries = starts.nonzero()[0]
        vals = np.minimum.reduceat(proposals, boundaries)
        vals += np.maximum.reduceat(proposals, boundaries)
        vals *= 0.5
        baked = None
        if frozen is not None:
            baked = np.fmin.reduceat(frozen, boundaries)  # fmin skips NaN
            vals = np.where(np.isnan(baked), vals, baked)
        reps = replica[boundaries]
        inverted = vals[1:] < vals[:-1]
        inverted &= reps[1:] == reps[:-1]
        if not inverted.any():
            return vals, baked, ids, reps
        # force-merge offending cluster pairs and resolve again
        bad_pairs = inverted.nonzero()[0]  # cluster index c and c+1
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
    optional: ``mass`` (the start masses of each cluster's members, added on
    every merge) and ``member`` (the cluster of each start, for path
    read-out; only for systems whose clusters are never dropped).

    Given the flow, each start is an independent branching process, so a
    cluster's mass at time t is one transition over t from ``mass``.
    """

    def __init__(
        self,
        positions,
        replica,
        count: int,
        boundary: FlowBoundary | None = None,
        masses=None,
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
        self.pos = pos[first]
        self.replica = rep[first]
        self.frozen = np.full(len(self.pos), np.nan)
        if boundary is not None and boundary.kind == "absorbing":
            on_bar = np.isin(self.pos, boundary.points)
            self.frozen[on_bar] = self.pos[on_bar]
        self.mass = None
        if masses is not None:
            self.mass = np.bincount(cluster, weights=np.asarray(masses, dtype=float)[order], minlength=len(self.pos))
        self.member = None
        if members:
            self.member = np.empty(len(order), dtype=np.int64)
            self.member[order] = cluster

    def step(self, dt: float, rng: np.random.Generator) -> None:
        """Move the clusters over ``dt``; merged clusters add their masses."""
        if not len(self.pos):
            return
        self.pos, self.frozen, ids, self.replica = step_positions(
            self.pos, self.frozen, dt, rng, boundary=self.boundary, replica=self.replica
        )
        if self.member is not None:
            self.member = ids[self.member]
        if self.mass is not None:
            self.mass = np.bincount(ids, weights=self.mass)

    def charged(self, lo: float, hi: float) -> np.ndarray:
        """Per replica: whether any cluster sits in the closed window [lo, hi]."""
        inside = (self.pos >= lo) & (self.pos <= hi)
        return np.bincount(self.replica[inside], minlength=self.count) > 0

    def window_mass(self, lo: float, hi: float, drop: bool = False) -> np.ndarray:
        """Per replica: the ``mass`` of the clusters in the closed window [lo, hi]; ``drop`` removes those clusters.

        Dropping keeps the law of the rest: a subset of coalescing paths is
        again a coalescing system.
        """
        inside = (self.pos >= lo) & (self.pos <= hi)
        seen = np.bincount(self.replica[inside], weights=self.mass[inside], minlength=self.count)
        if drop:
            keep = ~inside
            self.pos, self.frozen, self.replica, self.mass = (
                self.pos[keep], self.frozen[keep], self.replica[keep], self.mass[keep]
            )
        return seen
