"""Measure-valued engine: branching masses riding on coalescing Brownian paths.

A population of atoms is created from an initial measure, each carrying a
birth location and a mass.  Locations evolve as coalescing Brownian motions
(optionally absorbed at barriers); masses evolve as independent critical
stable branching processes.  When atoms meet, their masses add and the sum
continues branching as one atom; an atom whose mass hits zero is gone.  The
law of the total mass is unaffected by coalescence (additivity of the
branching semigroup), which several tests exploit.

Masses are sampled at observation time only (:class:`~scbm.flow.ReplicaFlow`):
positions never depend on masses, and by the branching property a cluster's
mass at a later time is one transition from the sum of its members' masses,
so a reader that looks at masses at a few times pays for a few transitions,
not one per grid step.  This is exact in law wherever the transition sampler
is (beta = 1) and, for beta < 1, draws far fewer table fragments.

Construction from a diffuse measure observes the excursions alive at a small
burn-in age t0: a Poisson number of atoms with entrance-law masses.  Spatial
coalescence before t0 is ignored; the bias shrinks with t0 while the total
mass law stays exact for every t0 (the entrance law chains through the
transition semigroup).  Without branching (gamma = 0) there is no entrance
law and the measure is discretized deterministically instead, with atoms
placed exactly at interval edges so that barrier-hit events of the extremal
paths are not displaced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .branching import BranchingParams, cumulant_limit, sample_entrance_mass
from .flow import FlowBoundary, ReplicaFlow

__all__ = [
    "MeasureSpec",
    "ExcursionAtom",
    "AtomicMeasure",
    "init_atoms",
    "init_ensemble",
    "atomize_measure",
    "evolve_scbm",
    "window_mass",
    "occupation_time",
    "extinction_time",
]


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


@dataclass
class ExcursionAtom:
    """One surviving excursion: where it was born and its current mass."""

    birth_location: float
    mass: float
    alive: bool = True


@dataclass(frozen=True)
class AtomicMeasure:
    """Purely atomic measure snapshot; zero-mass atoms are never stored."""

    locations: np.ndarray = field(default_factory=lambda: np.empty(0))
    masses: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self) -> None:
        if len(self.locations) != len(self.masses):
            raise ValueError("locations and masses must align")
        if np.any(self.masses <= 0):
            raise ValueError("atom masses must be positive")

    @property
    def total(self) -> float:
        return float(self.masses.sum())

    def mass_in(self, u: float, v: float) -> float:
        if v < u:
            raise ValueError("interval must be ordered")
        sel = (self.locations >= u) & (self.locations <= v)
        return float(self.masses[sel].sum())


def init_atoms(mu: MeasureSpec, t0: float, params: BranchingParams, rng: np.random.Generator) -> list[ExcursionAtom]:
    """Atoms alive at burn-in age ``t0``: Poisson count, measure-distributed births, entrance-law masses."""
    if t0 <= 0:
        raise ValueError(f"burn-in age must be > 0, got {t0}")
    if mu.total_mass == 0:
        return []
    count = int(rng.poisson(mu.total_mass * cumulant_limit(params, t0)))
    if count == 0:
        return []
    locations = np.sort(mu.sample(rng, count))
    masses = sample_entrance_mass(params, t0, rng, size=count)
    return [ExcursionAtom(birth_location=float(a), mass=float(m)) for a, m in zip(locations, masses)]


def init_ensemble(
    mu: MeasureSpec,
    t0: float,
    params: BranchingParams,
    rng: np.random.Generator,
    count: int,
    boundary: FlowBoundary | None = None,
) -> ReplicaFlow:
    """``count`` independent populations as :func:`init_atoms` builds them, as one replica flow."""
    per = rng.poisson(mu.total_mass * cumulant_limit(params, t0), count)
    total = int(per.sum())
    locations = mu.sample(rng, total) if total else np.empty(0)
    masses = sample_entrance_mass(params, t0, rng, size=total) if total else np.empty(0)
    replica = np.repeat(np.arange(count), per)
    return ReplicaFlow(locations, replica, count, boundary=boundary, masses=masses, params=params)


def atomize_measure(mu: MeasureSpec, spacing: float) -> list[ExcursionAtom]:
    """Deterministic discretization for the no-branching pathway (gamma = 0).

    Every interval contributes equally spaced atoms including both edges, each
    carrying the interval mass divided by the atom count; point atoms pass
    through.  Masses are frozen under gamma = 0, so only positions drive the
    events of interest and the edge placement keeps extremal paths exact.
    """
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    out = []
    for lo, hi in mu.intervals:
        npts = max(2, int(math.ceil((hi - lo) / spacing)) + 1)
        locs = np.linspace(lo, hi, npts)
        m = (hi - lo) / npts
        out.extend(ExcursionAtom(birth_location=float(a), mass=m) for a in locs)
    out.extend(ExcursionAtom(birth_location=float(a), mass=float(m)) for a, m in mu.atoms)
    out.sort(key=lambda atom: atom.birth_location)
    return out


def evolve_scbm(
    atoms: list[ExcursionAtom],
    grid,
    params: BranchingParams,
    rng: np.random.Generator,
    flow_boundary: FlowBoundary | None = None,
) -> list[AtomicMeasure]:
    """Evolve atoms along ``grid`` (starting at the burn-in time) and snapshot each time.

    Per step: positions advance with coalescence and masses of merged
    clusters add; since every step is snapshotted, the masses are then
    observed (one branching transition over the step) and dead clusters are
    dropped.  Absorbed clusters keep branching in place.
    """
    times = np.asarray(grid, dtype=float)
    if len(times) == 0 or np.any(np.diff(times) <= 0):
        raise ValueError("grid must be a strictly increasing time sequence")
    flow = ReplicaFlow(
        [a.birth_location for a in atoms],
        np.zeros(len(atoms), dtype=np.int64),
        1,
        boundary=flow_boundary,
        masses=[a.mass for a in atoms],
        params=params,
    )
    snapshots = [AtomicMeasure(locations=flow.pos.copy(), masses=flow.mass.copy())]
    for step in range(1, len(times)):
        flow.step(times[step] - times[step - 1], rng)
        flow.observe(rng)
        snapshots.append(AtomicMeasure(locations=flow.pos.copy(), masses=flow.mass.copy()))
    return snapshots


def window_mass(measure: AtomicMeasure, interval: tuple[float, float]) -> float:
    """Mass carried in the closed interval [u, v]."""
    u, v = interval
    if u > v:
        raise ValueError("interval must be ordered")
    return measure.mass_in(u, v)


def occupation_time(
    measures: list[AtomicMeasure],
    grid,
    interval: tuple[float, float],
    up_to: float | None = None,
) -> tuple[float, bool]:
    """Trapezoidal time integral of the window mass, plus a never-charged flag.

    The flag reports whether the window mass was zero at every grid time up to
    ``up_to`` (grid end by default); excursions between grid points are
    invisible to it, which matters only for the boundary-free reading.
    """
    times = np.asarray(grid, dtype=float)
    if len(times) != len(measures):
        raise ValueError("grid and snapshots must align")
    horizon = times[-1] if up_to is None else up_to
    sel = times <= horizon + 1e-12
    vals = np.array([window_mass(m, interval) for m, keep in zip(measures, sel) if keep])
    ts = times[sel]
    value = float(np.trapezoid(vals, ts)) if len(ts) > 1 else 0.0
    return value, bool(np.all(vals == 0.0))


def extinction_time(measures: list[AtomicMeasure], grid, g) -> tuple[float, bool]:
    """Last grid time the measure charges the moving window [-g(t), g(t)].

    Returns 0 when the window is never charged; the censored flag is set when
    the final grid time still carries window mass (the true last time lies
    beyond the grid).
    """
    times = np.asarray(grid, dtype=float)
    if len(times) != len(measures):
        raise ValueError("grid and snapshots must align")
    last = 0.0
    for t, m in zip(times, measures):
        radius = float(g(t))
        if radius >= 0 and m.mass_in(-radius, radius) > 0:
            last = float(t)
    censored = bool(last == times[-1] and len(times) > 0 and last > 0.0)
    return last, censored
