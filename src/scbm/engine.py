"""Measure-valued engine: branching masses riding on coalescing Brownian paths.

The process X is built from the excursions of a critical stable branching
process riding Arratia's coalescing Brownian flow.  Each excursion is a
cluster of a :class:`~scbm.flow.ReplicaFlow`: it has a position that moves as
a coalescing Brownian motion (optionally absorbed at barriers) and a mass.
Clusters that meet merge for good and their masses add; by the branching
property the merged mass goes on as one branching process, so the law of the
total mass does not see the coalescence.  Positions never depend on masses,
so the flow carries only the start mass of each cluster's members, and the
readers integrate the branching out given the flow: a cluster of start mass
m is extinct by time t with probability exp(-m u_t(inf)).

:func:`init_ensemble` builds many independent copies of X at time 0 on a
lattice.  The excursions born in a basin B, taken together, have at time t
the law of one branching transition from mu(B); so each lattice cell starts
as one cluster carrying the measure of its cell.  The only approximation is
the spatial lattice, which shrinks with the spacing; the total-mass law is
exact at every spacing.  Interval edges are lattice points, so barrier hits
of the extremal paths are not displaced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .flow import FlowBoundary, ReplicaFlow

__all__ = ["LATTICE_POINTS", "MeasureSpec", "init_ensemble"]

# Lattice points one batch of replicas may start with.  A step keeps several float arrays per point, 32 MiB each
# at 2**22 points: a tiny spacing or a wide measure is refused before anything is allocated.
LATTICE_POINTS = 2**22


@dataclass(frozen=True)
class MeasureSpec:
    """Initial measure: disjoint intervals carrying Lebesgue mass plus point atoms."""

    intervals: tuple[tuple[float, float], ...] = ()
    atoms: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        for lo, hi in self.intervals:
            if hi <= lo:
                raise ValueError(f"interval ({lo}, {hi}) must have positive length")
        for (_, hi), (lo2, _) in zip(self.intervals, self.intervals[1:]):
            if lo2 < hi:
                raise ValueError("intervals must be sorted and disjoint")
        if any(m <= 0 for _, m in self.atoms):
            raise ValueError("atom masses must be positive")

    @property
    def total_mass(self) -> float:
        return self.lebesgue_mass + sum(m for _, m in self.atoms)

    @property
    def lebesgue_mass(self) -> float:
        return sum(hi - lo for lo, hi in self.intervals)

    def mass_in(self, u, v):
        """Measure of the closed interval [u, v]; elementwise over arrays."""
        u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
        if np.any(v < u):
            raise ValueError("interval must be ordered")
        total = np.zeros(np.broadcast(u, v).shape)
        for lo, hi in self.intervals:
            total = total + np.maximum(0.0, np.minimum(hi, v) - np.maximum(lo, u))
        total = total + sum(m * ((u <= loc) & (loc <= v)) for loc, m in self.atoms)
        return float(total) if total.ndim == 0 else total


def init_ensemble(
    mu: MeasureSpec,
    spacing: float,
    count: int,
    boundary: FlowBoundary | None = None,
) -> ReplicaFlow:
    """``count`` independent populations started at time 0 from ``mu`` on a lattice, as one replica flow.

    Every interval contributes equally spaced points, both edges included, at
    most ``spacing`` apart; point atoms pass through.  Each point carries the
    measure of its own cell as its ``mass``: h inside an interval, h/2 at its
    edges, the atom's mass for an atom.
    """
    if not (0 < spacing and 0 < spacing * spacing < math.inf):  # the first step lasts spacing**2 (harness._lattice_grid)
        raise ValueError("spacing must be positive with a positive finite square")
    parts = [np.linspace(lo, hi, max(2, int(math.ceil((hi - lo) / spacing)) + 1)) for lo, hi in mu.intervals]
    points = np.concatenate(parts + [np.array([loc for loc, _ in mu.atoms], dtype=float)])
    cells = [np.diff(p, prepend=p[0]) / 2 + np.diff(p, append=p[-1]) / 2 for p in parts]
    masses = np.tile(np.concatenate(cells + [np.array([m for _, m in mu.atoms], dtype=float)]), count)
    replica = np.repeat(np.arange(count), len(points))
    return ReplicaFlow(np.tile(points, count), replica, count, boundary=boundary, masses=masses)
