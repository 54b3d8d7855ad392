"""Measure-valued engine: branching masses riding on coalescing Brownian paths.

The process X is built from the excursions of a critical stable branching
process riding Arratia's coalescing Brownian flow.  Each excursion is a
cluster of a :class:`~scbm.flow.ReplicaFlow`: it has a position that moves as
a coalescing Brownian motion (optionally absorbed at barriers) and a mass.
Clusters that meet merge for good and their masses add; by the branching
property the merged mass goes on as one branching process, so the law of the
total mass does not see the coalescence.  A cluster whose mass hits zero is
gone.  Masses are sampled when a reader observes them, never per step (see
:class:`~scbm.flow.ReplicaFlow`).

:func:`init_ensemble` builds many independent copies of X from a diffuse
initial measure mu, started at a small burn-in age t0: each copy holds a
Poisson(mu(R) u_t0(inf)) number of excursions alive at t0, born at
mu-distributed points, with masses from the entrance law at age t0.  Spatial
coalescence before t0 is ignored; that bias shrinks with t0, while the total
mass law is exact for every t0 (the entrance law chains through the
transition semigroup).  Without branching (gamma = 0) there is no entrance law
and :func:`atomize_measure` discretizes the measure deterministically, with
points exactly at interval edges so that barrier hits of the extremal paths
are not displaced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .branching import BranchingParams, cumulant_limit, sample_entrance_mass
from .flow import FlowBoundary, ReplicaFlow

__all__ = ["MeasureSpec", "init_ensemble", "atomize_measure"]


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

    def mass_in(self, u: float, v: float) -> float:
        """Measure of the closed interval [u, v]."""
        if v < u:
            raise ValueError("interval must be ordered")
        total = sum(max(0.0, min(hi, v) - max(lo, u)) for lo, hi in self.intervals)
        total += sum(m for loc, m in self.atoms if u <= loc <= v)
        return total

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Locations i.i.d. from the normalized measure."""
        if self.total_mass <= 0:
            raise ValueError("cannot sample from a null measure")
        weights = [hi - lo for lo, hi in self.intervals] + [m for _, m in self.atoms]
        probs = np.asarray(weights) / self.total_mass
        which = rng.choice(len(weights), size=size, p=probs)
        out = np.empty(size)
        for idx in range(len(self.intervals)):
            sel = which == idx
            lo, hi = self.intervals[idx]
            out[sel] = rng.uniform(lo, hi, int(sel.sum()))
        for k, (loc, _) in enumerate(self.atoms):
            out[which == len(self.intervals) + k] = loc
        return out


def init_ensemble(
    mu: MeasureSpec,
    t0: float,
    params: BranchingParams,
    rng: np.random.Generator,
    count: int,
    boundary: FlowBoundary | None = None,
) -> ReplicaFlow:
    """``count`` independent populations alive at burn-in age ``t0``, as one replica flow.

    Replica r holds a Poisson(mu(R) u_t0(inf)) number of clusters at
    mu-distributed points, each with an entrance-law mass at age ``t0`` that
    branches under ``params`` (sampled by :meth:`~scbm.flow.ReplicaFlow.observe`).
    """
    per = rng.poisson(mu.total_mass * cumulant_limit(params, t0), count)
    total = int(per.sum())
    locations = mu.sample(rng, total) if total else np.empty(0)
    masses = sample_entrance_mass(params, t0, rng, size=total) if total else np.empty(0)
    replica = np.repeat(np.arange(count), per)
    return ReplicaFlow(locations, replica, count, boundary=boundary, masses=masses, params=params)


def atomize_measure(mu: MeasureSpec, spacing: float) -> np.ndarray:
    """Sorted start points of the deterministic discretization used without branching (gamma = 0).

    Every interval contributes equally spaced points including both edges, and
    point atoms pass through.  Without branching only positions drive the
    events of interest, and the edge placement keeps extremal paths exact.
    """
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    parts = [np.linspace(lo, hi, max(2, int(math.ceil((hi - lo) / spacing)) + 1)) for lo, hi in mu.intervals]
    parts.append(np.array([loc for loc, _ in mu.atoms], dtype=float))
    return np.sort(np.concatenate(parts))
