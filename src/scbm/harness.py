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
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np
from scipy.stats import norm

from .branching import BranchingParams, cumulant, cumulant_limit
from .engine import MeasureSpec, atomize_measure, init_ensemble
from .flow import FlowBoundary, ReplicaFlow, StepFunction, step_integral_lebesgue

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


def _effective_t0(t0: float, first_time: float) -> float:
    # burn-in default: never later than a tenth of the first observation time
    return min(t0, first_time / 10.0)


def hybrid_grid(t0: float, t_end: float, dt: float, ratio: float = 1.25) -> np.ndarray:
    """Geometric refinement near ``t0`` easing into uniform steps of ``dt``."""
    if not (0 <= t0 < t_end):
        raise ValueError("need 0 <= t0 < t_end")
    _check_step(dt)
    times = [t0]
    current = t0
    while current < t_end:
        step = min(dt, max(current * (ratio - 1.0), 1e-9 + t0 * (ratio - 1.0)))
        current = min(current + step, t_end)
        times.append(current)
    return np.asarray(times)


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
    z = 0.0 if diff == 0 else (math.inf if spread == 0 else diff / spread)
    if one_sided:
        verdict = "one_sided_ok" if diff >= -3.0 * spread else "inconsistent"
    else:
        verdict = "consistent" if abs(z) <= 3.0 else "inconsistent"
    return ComparisonReport(label=label, lhs=lhs, rhs=rhs, z_score=z, verdict=verdict, approx=approx)


def _copies(starts, count: int, boundary: FlowBoundary | None = None, members: bool = False) -> ReplicaFlow:
    """``count`` replicas of the path system started from ``starts``."""
    starts = np.asarray(starts, dtype=float)
    return ReplicaFlow(
        np.tile(starts, count), np.repeat(np.arange(count), len(starts)), count, boundary=boundary, members=members
    )


# ---------------------------------------------------------------------------
# Laplace-functional duality (free flow)
# ---------------------------------------------------------------------------


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
    t0: float = 0.01
    dt: float = 0.01
    rhs_gamma_scale: float = 1.0


def _laplace_lhs_batch(cfg, rng: np.random.Generator, count: int, boundary: FlowBoundary | None = None) -> np.ndarray:
    """exp(-<X_t, h0>) per replica; ``cfg`` is a Laplace or reflected Laplace config."""
    h0 = StepFunction(pairs=cfg.pairs, coefficients=cfg.coefficients)
    t0 = _effective_t0(cfg.t0, cfg.t)
    system = init_ensemble(cfg.mu, t0, cfg.params, rng, count, boundary=boundary)
    for dt in np.diff(hybrid_grid(t0, cfg.t, cfg.dt)):
        system.step(float(dt), rng)
    system.observe(rng)
    return np.exp(-np.bincount(system.replica, weights=system.mass * h0(system.pos), minlength=count))


def _laplace_rhs_batch(
    cfg, params: BranchingParams, rng: np.random.Generator, count: int, boundary: FlowBoundary | None = None
) -> np.ndarray:
    """exp(-<mu, u_t(h_t)>) per replica, h_t the step function on the evolved level paths."""
    starts = [v for pair in cfg.pairs for v in pair]  # pair order; the flow sorts and maps members
    paths = _copies(starts, count, boundary=boundary, members=True)
    for dt in np.diff(_uniform_grid(cfg.t, cfg.dt)):
        paths.step(float(dt), rng)
    finals = paths.pos[paths.member].reshape(count, len(starts))
    out = np.empty(count)
    for r in range(count):
        row = finals[r]
        pairs_t = tuple((float(row[2 * j]), float(row[2 * j + 1])) for j in range(len(cfg.pairs)))
        sf_t = StepFunction(pairs=pairs_t, coefficients=cfg.coefficients)
        total = step_integral_lebesgue(params, cfg.t, sf_t, cfg.mu.intervals)
        for loc, m in cfg.mu.atoms:
            total += m * cumulant(params, cfg.t, sf_t(loc))
        out[r] = math.exp(-total)
    return out


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


def _absorbed_atoms(measure: MeasureSpec, spacing: float, barriers: tuple[float, float], count: int) -> ReplicaFlow:
    """Replicas of the atomized measure under absorption (masses stay positive without branching)."""
    return _copies(atomize_measure(measure, spacing), count, boundary=FlowBoundary("absorbing", barriers))


def _absorbing_lhs(cfg: AbsorbingExtinctionConfig, rng: np.random.Generator, count: int) -> np.ndarray:
    flow = _absorbed_atoms(cfg.measure(), cfg.spacing, cfg.barriers, count)
    for dt in np.diff(_uniform_grid(cfg.t, cfg.dt)):
        flow.step(float(dt), rng)
    return (~flow.charged(*cfg.barriers)).astype(float)


def reflected_gap_vacancy_exact(c: float, t: float) -> float:
    """P(both one-sided reflections stay within c of their anchors up to t)."""
    if c < 0:
        raise ValueError("gap half-width must be >= 0")
    return float((2.0 * norm.cdf(c / math.sqrt(t)) - 1.0) ** 2)


def truncation_escape_bound(margin: float, t: float) -> float:
    """Bound on the chance an extremal path outruns the measure truncation by t.

    A Brownian path started at the far edge reaches past the margin with
    probability 2 (1 - Phi(margin / sqrt(t))); below this bound the truncation
    cannot influence window events.
    """
    if margin < 0 or t <= 0:
        raise ValueError("need margin >= 0 and t > 0")
    return float(2.0 * (1.0 - norm.cdf(margin / math.sqrt(t))))


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
    grid occupation indicator.
    """

    params: BranchingParams
    window: tuple[float, float]
    c: float
    t: float
    n: int
    margin: float = 6.0
    spacing: float = 0.5
    t0: float = 0.01
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
    flow = _absorbed_atoms(cfg.measure(), cfg.spacing, cfg.window, count)
    return _never_charged(flow, _uniform_grid(cfg.t, cfg.dt), cfg.window, rng)


def _occupation_lhs_branch_batch(cfg: OccupationDualityConfig, rng: np.random.Generator, count: int) -> np.ndarray:
    t0 = _effective_t0(cfg.t0, cfg.t)
    system = init_ensemble(cfg.measure(), t0, cfg.params, rng, count)
    return _never_charged(system, hybrid_grid(t0, cfg.t, cfg.dt), cfg.window, rng)


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
    t0: float = 0.01
    dt: float = 0.01


def _vacancy_lhs_batch(cfg: VacancyBoundConfig, rng: np.random.Generator, count: int) -> np.ndarray:
    t0 = _effective_t0(cfg.t0, cfg.s1)
    system = init_ensemble(cfg.mu, t0, cfg.params, rng, count)
    grid = hybrid_grid(t0, cfg.s2, cfg.dt)
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
    starts = np.column_stack((-x - cfg.a, cfg.a + y)).ravel()
    pairs = ReplicaFlow(starts, np.repeat(np.arange(count), 2), count, members=True)
    for dt in np.diff(_uniform_grid(cfg.s1, cfg.dt)):
        pairs.step(float(dt), rng)
    finals = pairs.pos[pairs.member].reshape(count, 2)
    return np.array([math.exp(-theta * cfg.mu.mass_in(float(lo), float(hi))) for lo, hi in finals])


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
    t0: float = 0.01
    dt: float = 5e-3


def _reflected_lhs(cfg: ReflectedLaplaceConfig, rng: np.random.Generator, count: int) -> np.ndarray:
    return _laplace_lhs_batch(cfg, rng, count, boundary=FlowBoundary("absorbing", cfg.barriers))


def _reflected_rhs(cfg: ReflectedLaplaceConfig, rng: np.random.Generator, count: int) -> np.ndarray:
    return _laplace_rhs_batch(cfg, cfg.params, rng, count, boundary=FlowBoundary("reflecting", cfg.barriers))


def reflected_laplace_smoke(cfg: ReflectedLaplaceConfig, seed: int, threads: int = 1) -> ComparisonReport:
    if any(v in cfg.barriers for pair in cfg.pairs for v in pair):
        raise ValueError("level points must avoid the barriers")
    lhs = _mc_batched(partial(_reflected_lhs, cfg), cfg.n, seed, stream=0, threads=threads)
    rhs = _mc_batched(partial(_reflected_rhs, cfg), cfg.n, seed, stream=1, threads=threads)
    return _report("reflected_laplace_smoke", lhs, rhs, approx=True)
