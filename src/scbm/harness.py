"""Monte Carlo comparison harness for the duality identities.

Each check estimates its two sides (or one side against a closed form) with
independent replica streams and reports a z-score.  Equality checks pass at
|z| <= 3; inequality checks pass when the lower-bounded side clears the bound
minus three pooled standard errors.  Every check is deterministic given
(config, seed): replica batch i draws from a generator keyed by
(seed, stream, i), and batches have a fixed composition, so thread counts and
scheduling cannot change results.

Every check runs its replicas in batches.  The replicas of one batch evolve as
one segmented :class:`~scbm.flow.ReplicaFlow`: each cluster carries its
replica id, pairs never merge across replicas and barriers act on each
replica's local positions, so the replicas stay exactly independent while the
fixed cost of a step is paid once per batch.  The batch size changes speed,
not the law of a replica (it does change which random numbers a replica draws).

Every measure-valued side starts at time 0 from :func:`~scbm.engine.init_ensemble`:
one cluster per lattice cell of width ``spacing``, carrying the measure of its
cell, stepped on :func:`_lattice_grid`.  The checks without branching start
from the same lattice without masses.

The closed forms read the normal law through ``math.erf`` and ``math.erfc``,
so importing the harness loads no scipy.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .branching import BranchingParams, cumulant, cumulant_limit
from .engine import MeasureSpec, init_ensemble
from .flow import FlowBoundary, ReplicaFlow

__all__ = [
    "MCEstimate",
    "ComparisonReport",
    "hybrid_grid",
    "reflected_gap_vacancy_exact",
    "LaplaceDualityConfig",
    "laplace_duality_check",
    "AbsorbingExtinctionConfig",
    "absorbing_extinction_check",
    "OccupationDualityConfig",
    "occupation_duality_check",
    "VacancyBoundConfig",
    "interval_vacancy_bound_check",
    "ReflectedLaplaceConfig",
    "reflected_laplace_smoke",
]

_BATCH = 64


@dataclass(frozen=True)
class MCEstimate:
    """Replica mean with its standard error (sample sd / sqrt(n))."""

    mean: float
    stderr: float
    n: int
    seed: int


@dataclass(frozen=True)
class ComparisonReport:
    """Outcome of one identity check."""

    label: str
    lhs: MCEstimate
    rhs: MCEstimate | float
    z_score: float
    verdict: str  # consistent | inconsistent | one_sided_ok
    approx: bool = False

    @property
    def rhs_mean(self) -> float:
        return self.rhs.mean if isinstance(self.rhs, MCEstimate) else float(self.rhs)

    @property
    def rhs_stderr(self) -> float:
        return self.rhs.stderr if isinstance(self.rhs, MCEstimate) else 0.0

    @property
    def passed(self) -> bool:
        return self.verdict in ("consistent", "one_sided_ok")


def _replica_rng(seed: int, stream: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream, index)))


def _batch_run(batch_fn, seed: int, stream: int, index: int, count: int) -> np.ndarray:
    return batch_fn(_replica_rng(seed, stream, index), count)


def _run_batches(batch_fn, n: int, seed: int, stream: int, threads: int = 1, batch: int = _BATCH) -> np.ndarray:
    """Evaluate ``n`` replicas with a function that runs a whole batch at once.

    Batch i (fixed composition, independent of thread count) uses the stream
    (seed, stream, i); per-replica values are concatenated in batch order.
    """
    counts = [batch] * (n // batch)
    if n % batch:
        counts.append(n % batch)
    runner = partial(_batch_run, batch_fn, seed, stream)
    if threads <= 1:
        parts = [runner(i, c) for i, c in enumerate(counts)]
    else:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(runner, range(len(counts)), counts))
    return np.concatenate(parts)


def _mc_batched(batch_fn, n: int, seed: int, stream: int, threads: int = 1, batch: int = _BATCH) -> MCEstimate:
    """Estimate the mean of ``n`` replicas of ``batch_fn(rng, count)``, run in batches (see :func:`_run_batches`)."""
    if n < 2:
        raise ValueError("need at least two replicas")
    values = _run_batches(batch_fn, n, seed, stream, threads, batch)
    return MCEstimate(mean=float(values.mean()), stderr=float(values.std(ddof=1) / math.sqrt(n)), n=n, seed=seed)


def _check_step(dt: float) -> None:
    if not (0 < dt < math.inf):
        raise ValueError(f"time step must be positive and finite, got {dt}")


def hybrid_grid(start: float, t_end: float, dt: float, ratio: float = 1.25) -> np.ndarray:
    """Times from ``start`` growing geometrically by ``ratio``, easing into uniform steps of ``dt``."""
    if not (0 < start < t_end):
        raise ValueError("need 0 < start < t_end")
    _check_step(dt)
    times = [start]
    while times[-1] < t_end:
        times.append(min(times[-1] + min(dt, times[-1] * (ratio - 1.0)), t_end))
    return np.asarray(times)


def _lattice_grid(spacing: float, first_read: float, t_end: float, dt: float) -> np.ndarray:
    """Steps from a lattice start at time 0: first min(spacing^2, first_read / 10), then :func:`hybrid_grid`."""
    return np.concatenate(([0.0], hybrid_grid(min(spacing**2, first_read / 10.0), t_end, dt)))


def _uniform_grid(t_end: float, dt: float) -> np.ndarray:
    _check_step(dt)
    return np.linspace(0.0, t_end, max(2, int(round(t_end / dt)) + 1))


def _report(label, lhs, rhs, one_sided=False, approx=False) -> ComparisonReport:
    """z of lhs - rhs over the pooled standard error.

    An equality passes at |z| <= 3; a one-sided bound (lhs >= rhs) passes
    unless lhs falls more than three pooled standard errors below rhs.
    """
    rhs_mean = rhs.mean if isinstance(rhs, MCEstimate) else float(rhs)
    spread = math.sqrt(lhs.stderr**2 + (rhs.stderr**2 if isinstance(rhs, MCEstimate) else 0.0))
    diff = lhs.mean - rhs_mean
    z = 0.0 if diff == 0 else (math.copysign(math.inf, diff) if spread == 0 else diff / spread)
    if one_sided:
        verdict = "one_sided_ok" if diff >= -3.0 * spread else "inconsistent"
    else:
        verdict = "consistent" if abs(z) <= 3.0 else "inconsistent"
    return ComparisonReport(label=label, lhs=lhs, rhs=rhs, z_score=z, verdict=verdict, approx=approx)


# ---------------------------------------------------------------------------
# Laplace-functional duality (free flow)
# ---------------------------------------------------------------------------


def _check_step_function(pairs, coefficients) -> None:
    if len(pairs) != len(coefficients):
        raise ValueError("one coefficient per interval pair")
    if any(hi < lo for lo, hi in pairs):
        raise ValueError("interval pairs must be ordered (lo <= hi)")
    if any(c < 0 for c in coefficients):
        raise ValueError("coefficients must be >= 0")


def _levels(points, pairs, coefficients) -> np.ndarray:
    """h = sum_j c_j 1{lo_j < x <= hi_j} at ``points``; ``pairs`` has shape (K, 2), or (rows, K, 2) per row."""
    pairs = np.asarray(pairs, dtype=float)
    total = np.zeros(np.shape(points))
    for j, c in enumerate(coefficients):
        total = total + c * ((points > pairs[..., j, 0, None]) & (points <= pairs[..., j, 1, None]))
    return total


def _level_integrals(params: BranchingParams, t: float, pairs: np.ndarray, coefficients, mu: MeasureSpec) -> np.ndarray:
    """<mu, u_t(h)> per row of ``pairs`` (shape (rows, K, 2)), h the step function of that row.

    On each interval [a, b] of mu, the pieces between a, the row's level points clipped to [a, b], and b
    add cumulant(level) times their length; zero-length pieces add exactly 0.
    """
    rows = len(pairs)
    cuts = np.sort(pairs.reshape(rows, -1), axis=1)
    total = np.zeros(rows)
    for a, b in mu.intervals:
        edges = np.column_stack((np.full(rows, a), np.clip(cuts, a, b), np.full(rows, b)))
        mids = 0.5 * (edges[:, :-1] + edges[:, 1:])
        total += np.sum(cumulant(params, t, _levels(mids, pairs, coefficients)) * np.diff(edges, axis=1), axis=1)
    for loc, m in mu.atoms:
        total += m * cumulant(params, t, _levels(np.full((rows, 1), loc), pairs, coefficients))[:, 0]
    return total


def _level_paths(starts, count: int, t: float, dt: float, rng, boundary: FlowBoundary | None = None) -> np.ndarray:
    """The (count, k) finals at ``t`` of coalescing paths from ``starts``, shape (k,) or (count, k)."""
    starts = np.broadcast_to(starts, (count, np.shape(starts)[-1]))
    paths = ReplicaFlow(starts.ravel(), np.repeat(np.arange(count), starts.shape[1]), count, boundary=boundary, members=True)
    for step in np.diff(_uniform_grid(t, dt)):
        paths.step(float(step), rng)
    return paths.pos[paths.member].reshape(starts.shape)


@dataclass(frozen=True)
class LaplaceDualityConfig:
    """Two independent pathways for the same Laplace functional.

    Left: evolve the measure-valued process to ``t`` and average
    exp(-<X_t, h0>).  Right: evolve the level paths, push the evolved step
    function through the cumulant, integrate against the initial measure and
    average the exponential.  ``rhs_gamma_scale`` perturbs the right side's
    branching rate (negative control).
    """

    params: BranchingParams
    t: float
    mu: MeasureSpec
    pairs: tuple[tuple[float, float], ...]
    coefficients: tuple[float, ...]
    n: int
    spacing: float = 0.05
    dt: float = 0.01
    rhs_gamma_scale: float = 1.0

    def __post_init__(self) -> None:
        _check_step_function(self.pairs, self.coefficients)


def _laplace_lhs_batch(cfg, rng: np.random.Generator, count: int, boundary: FlowBoundary | None = None) -> np.ndarray:
    """exp(-<X_t, h0>) per replica; ``cfg`` is a Laplace or reflected Laplace config."""
    system = init_ensemble(cfg.mu, cfg.spacing, count, cfg.params, boundary=boundary)
    for dt in np.diff(_lattice_grid(cfg.spacing, cfg.t, cfg.t, cfg.dt)):
        system.step(float(dt), rng)
    system.observe(rng)
    h0 = _levels(system.pos, cfg.pairs, cfg.coefficients)
    return np.exp(-np.bincount(system.replica, weights=system.mass * h0, minlength=count))


def _laplace_rhs_batch(
    cfg, params: BranchingParams, rng: np.random.Generator, count: int, boundary: FlowBoundary | None = None
) -> np.ndarray:
    """exp(-<mu, u_t(h_t)>) per replica, h_t the step function on the evolved level paths."""
    finals = _level_paths(np.ravel(cfg.pairs), count, cfg.t, cfg.dt, rng, boundary)  # lo_1, hi_1, lo_2, ...
    return np.exp(-_level_integrals(params, cfg.t, finals.reshape(count, -1, 2), cfg.coefficients, cfg.mu))


def laplace_duality_check(cfg: LaplaceDualityConfig, seed: int, threads: int = 1) -> ComparisonReport:
    lhs = _mc_batched(partial(_laplace_lhs_batch, cfg), cfg.n, seed, stream=0, threads=threads)
    rhs_params = replace(cfg.params, gamma=cfg.params.gamma * cfg.rhs_gamma_scale)
    rhs = _mc_batched(partial(_laplace_rhs_batch, cfg, rhs_params), cfg.n, seed, stream=1, threads=threads)
    return _report("laplace_duality", lhs, rhs, approx=cfg.params.beta < 1.0)


# ---------------------------------------------------------------------------
# Window extinction against reflected endpoints (absorbing flow, no branching)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AbsorbingExtinctionConfig:
    """Vacancy of the barrier window at time t, dual to two one-sided reflections.

    The initial measure is Lebesgue outside [a - c, b + c], truncated
    ``margin`` beyond the gap edges; mass enters [a, b] only by absorption at
    a or b, so the left side is the probability that no extremal path is
    absorbed.  The dual reading has no branching, making the closed form
    (2 Phi(c / sqrt(t)) - 1)^2 exact.
    """

    barriers: tuple[float, float]
    c: float
    t: float
    n: int
    margin: float = 6.0
    spacing: float = 0.5
    dt: float = 0.01

    def measure(self) -> MeasureSpec:
        a, b = self.barriers
        return MeasureSpec(
            intervals=((a - self.c - self.margin, a - self.c), (b + self.c, b + self.c + self.margin))
        )


def _absorbing_lhs(cfg: AbsorbingExtinctionConfig, rng: np.random.Generator, count: int) -> np.ndarray:
    flow = init_ensemble(cfg.measure(), cfg.spacing, count, boundary=FlowBoundary("absorbing", cfg.barriers))
    for dt in np.diff(_uniform_grid(cfg.t, cfg.dt)):
        flow.step(float(dt), rng)
    return (~flow.charged(*cfg.barriers)).astype(float)


def reflected_gap_vacancy_exact(c: float, t: float) -> float:
    """P(both one-sided reflections stay within c of their anchors up to t): (2 Phi(c / sqrt(t)) - 1)**2.

    2 Phi(x) - 1 = erf(x / sqrt(2)).
    """
    if c < 0:
        raise ValueError("gap half-width must be >= 0")
    return math.erf(c / math.sqrt(2.0 * t)) ** 2


def truncation_escape_bound(margin: float, t: float) -> float:
    """Bound on the chance an extremal path outruns the measure truncation by t.

    A Brownian path started at the far edge reaches past the margin with
    probability 2 (1 - Phi(margin / sqrt(t))) = erfc(margin / sqrt(2 t)); below
    this bound the truncation cannot influence window events.  ``erfc`` keeps
    its relative accuracy in the far tail, where 1 - Phi cancels to 0.
    """
    if margin < 0 or t <= 0:
        raise ValueError("need margin >= 0 and t > 0")
    return math.erfc(margin / math.sqrt(2.0 * t))


def absorbing_extinction_check(cfg: AbsorbingExtinctionConfig, seed: int, threads: int = 1) -> ComparisonReport:
    lhs = _mc_batched(partial(_absorbing_lhs, cfg), cfg.n, seed, stream=0, threads=threads)
    rhs = reflected_gap_vacancy_exact(cfg.c, cfg.t)
    return _report("absorbing_extinction", lhs, rhs)


# ---------------------------------------------------------------------------
# Occupation-time vacancy bound (equality without branching)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OccupationDualityConfig:
    """Zero occupation of [y1, y2] up to t against the reflected-endpoint form.

    Without branching the two sides agree exactly and the left side runs the
    absorbed system (ever occupying equals being absorbed by t, which the
    bridge-corrected hits capture without grid bias).  With branching the
    relation is an inequality and the left side is the plain process with the
    grid occupation indicator.  Without branching only the two edge points of
    the measure can reach the window, so that law does not depend on
    ``spacing``.
    """

    params: BranchingParams
    window: tuple[float, float]
    c: float
    t: float
    n: int
    margin: float = 6.0
    spacing: float = 0.05
    dt: float = 0.01

    def measure(self) -> MeasureSpec:
        y1, y2 = self.window
        return MeasureSpec(
            intervals=((y1 - self.c - self.margin, y1 - self.c), (y2 + self.c, y2 + self.c + self.margin))
        )


def _never_charged(flow: ReplicaFlow, grid: np.ndarray, window: tuple[float, float], rng) -> np.ndarray:
    """Per replica: 1.0 when the window holds no live cluster at any grid time."""
    charged = flow.charged(*window)
    for dt in np.diff(grid):
        flow.step(float(dt), rng)
        flow.observe(rng)
        charged |= flow.charged(*window)
    return (~charged).astype(float)


def _occupation_lhs_no_branching(cfg: OccupationDualityConfig, rng: np.random.Generator, count: int) -> np.ndarray:
    flow = init_ensemble(cfg.measure(), cfg.spacing, count, boundary=FlowBoundary("absorbing", cfg.window))
    return _never_charged(flow, _uniform_grid(cfg.t, cfg.dt), cfg.window, rng)


def _occupation_lhs_branch_batch(cfg: OccupationDualityConfig, rng: np.random.Generator, count: int) -> np.ndarray:
    system = init_ensemble(cfg.measure(), cfg.spacing, count, cfg.params)
    return _never_charged(system, _lattice_grid(cfg.spacing, cfg.t, cfg.t, cfg.dt), cfg.window, rng)


def occupation_duality_check(cfg: OccupationDualityConfig, seed: int, threads: int = 1) -> ComparisonReport:
    rhs = reflected_gap_vacancy_exact(cfg.c, cfg.t)
    if cfg.params.gamma == 0.0:
        lhs = _mc_batched(partial(_occupation_lhs_no_branching, cfg), cfg.n, seed, stream=0, threads=threads)
        return _report("occupation_duality_equality", lhs, rhs)
    lhs = _mc_batched(partial(_occupation_lhs_branch_batch, cfg), cfg.n, seed, stream=0, threads=threads)
    return _report("occupation_duality_bound", lhs, rhs, one_sided=True, approx=cfg.params.beta < 1.0)


# ---------------------------------------------------------------------------
# Vacancy of a fixed window over a whole time interval (lower bound)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VacancyBoundConfig:
    """P(window [-a, a] empty throughout (s1, s2]) against the reflected bound.

    The bound draws the half-normal displacements of two one-sided
    reflections run for s2 - s1, starts a coalescing pair at (-x - a, a + y),
    runs it for s1 and averages exp(-rate * initial-measure mass between the
    endpoints).
    """

    params: BranchingParams
    a: float
    s1: float
    s2: float
    mu: MeasureSpec
    n: int
    spacing: float = 0.05
    dt: float = 0.01


def _vacancy_lhs_batch(cfg: VacancyBoundConfig, rng: np.random.Generator, count: int) -> np.ndarray:
    system = init_ensemble(cfg.mu, cfg.spacing, count, cfg.params)
    grid = _lattice_grid(cfg.spacing, cfg.s1, cfg.s2, cfg.dt)
    charged = np.zeros(count, dtype=bool)
    for k, dt in enumerate(np.diff(grid)):
        system.step(float(dt), rng)
        if cfg.s1 < grid[k + 1] <= cfg.s2:
            system.observe(rng)
            charged |= system.charged(-cfg.a, cfg.a)
    return (~charged).astype(float)


def _vacancy_rhs_batch(cfg: VacancyBoundConfig, rng: np.random.Generator, count: int) -> np.ndarray:
    gap_t = cfg.s2 - cfg.s1
    x = np.abs(rng.normal(0.0, math.sqrt(gap_t), count))
    y = np.abs(rng.normal(0.0, math.sqrt(gap_t), count))
    theta = cumulant_limit(cfg.params, cfg.s1)
    finals = _level_paths(np.column_stack((-x - cfg.a, cfg.a + y)), count, cfg.s1, cfg.dt, rng)
    return np.exp(-theta * cfg.mu.mass_in(finals[:, 0], finals[:, 1]))


def interval_vacancy_bound_check(cfg: VacancyBoundConfig, seed: int, threads: int = 1) -> ComparisonReport:
    if cfg.s1 >= cfg.s2:
        raise ValueError("need s1 < s2")
    lhs = _mc_batched(partial(_vacancy_lhs_batch, cfg), cfg.n, seed, stream=0, threads=threads)
    rhs = _mc_batched(partial(_vacancy_rhs_batch, cfg), cfg.n, seed, stream=1, threads=threads)
    return _report("interval_vacancy_bound", lhs, rhs, one_sided=True, approx=cfg.params.beta < 1.0)


# ---------------------------------------------------------------------------
# Laplace duality with absorbing barriers and reflected level paths (smoke)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReflectedLaplaceConfig:
    """Barrier version of the Laplace duality.

    The reflected coalescing side exists only as the fold-map grid
    approximation, so this is a smoke check; its exact counterpart is the
    lattice generator identity.
    """

    params: BranchingParams
    barriers: tuple[float, float]
    t: float
    mu: MeasureSpec
    pairs: tuple[tuple[float, float], ...]
    coefficients: tuple[float, ...]
    n: int
    spacing: float = 0.05
    dt: float = 5e-3

    def __post_init__(self) -> None:
        _check_step_function(self.pairs, self.coefficients)


def reflected_laplace_smoke(cfg: ReflectedLaplaceConfig, seed: int, threads: int = 1) -> ComparisonReport:
    if any(v in cfg.barriers for pair in cfg.pairs for v in pair):
        raise ValueError("level points must avoid the barriers")
    lhs_fn = partial(_laplace_lhs_batch, cfg, boundary=FlowBoundary("absorbing", cfg.barriers))
    rhs_fn = partial(_laplace_rhs_batch, cfg, cfg.params, boundary=FlowBoundary("reflecting", cfg.barriers))
    lhs = _mc_batched(lhs_fn, cfg.n, seed, stream=0, threads=threads)
    rhs = _mc_batched(rhs_fn, cfg.n, seed, stream=1, threads=threads)
    return _report("reflected_laplace_smoke", lhs, rhs, approx=True)
