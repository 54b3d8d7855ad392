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
A free right side steps no flow: it reads one coalescing pair per replica,
drawn exactly in one step by :func:`~scbm.flow.coalescing_pair`.

Every measure-valued side starts at time 0 from :func:`~scbm.flow.init_ensemble`:
one cluster per lattice cell of width ``spacing``, carrying the measure of its
cell, stepped on :func:`_lattice_grid`.  The sides with branching draw no
branching numbers: each replica returns the conditional expectation of its
indicator given the flow (Rao-Blackwell), so the mean keeps its law.

The closed forms read the normal law through ``math.erf`` and ``math.erfc``.
"""

from __future__ import annotations

import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .branching import BranchingParams, cumulant, cumulant_limit
from .flow import FlowBoundary, MeasureSpec, ReplicaFlow, coalescing_pair, init_ensemble

__all__ = [
    "MCEstimate",
    "ComparisonReport",
    "reflected_gap_vacancy_exact",
    "LaplaceDualityConfig",
    "laplace_duality_check",
    "GapConfig",
    "absorbing_extinction_check",
    "occupation_duality_check",
    "VacancyBoundConfig",
    "interval_vacancy_bound_check",
]

_BATCH = 64
# Grid steps one flow run may take: a config asking for more is refused before anything runs.
FLOW_STEPS = 2**20


@dataclass(frozen=True)
class MCEstimate:
    """Replica mean with its standard error (sample sd / sqrt(n))."""

    mean: float
    stderr: float


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
    return MCEstimate(mean=float(values.mean()), stderr=float(values.std(ddof=1) / math.sqrt(n)))


def _check_step(dt: float) -> None:
    if not (0 < dt < math.inf):
        raise ValueError(f"time step must be positive and finite, got {dt}")


def _lattice_grid(spacing: float, first_read: float, t_end: float, dt: float) -> np.ndarray:
    """Times from a lattice start at 0: first min(spacing^2, first_read / 10), then growing by 1.25 into steps of ``dt``.

    The first step is at least the smallest normal float, on which the geometric growth cannot stall; a
    ``t_end`` below that is one step.
    """
    _check_step(dt)
    times = [0.0, min(max(min(spacing**2, first_read / 10.0), sys.float_info.min), t_end)]
    while times[-1] < t_end:
        times.append(min(times[-1] + min(dt, times[-1] * 0.25), t_end))
    return np.asarray(times)


def _uniform_grid(t_end: float, dt: float) -> np.ndarray:
    _check_step(dt)
    return np.linspace(0.0, t_end, max(2, int(round(t_end / dt)) + 1))


def z_score(diff: float, spread: float) -> float:
    """diff / spread; 0 when diff is 0, and infinite with the sign of diff when only the spread is 0."""
    return 0.0 if diff == 0 else (math.copysign(math.inf, diff) if spread == 0 else diff / spread)


def _report(label, lhs, rhs, one_sided=False, approx=False) -> ComparisonReport:
    """z of lhs - rhs over the pooled standard error.

    An equality passes at |z| <= 3; a one-sided bound (lhs >= rhs) passes
    unless lhs falls more than three pooled standard errors below rhs.
    """
    rhs_mean = rhs.mean if isinstance(rhs, MCEstimate) else float(rhs)
    spread = math.sqrt(lhs.stderr**2 + (rhs.stderr**2 if isinstance(rhs, MCEstimate) else 0.0))
    diff = lhs.mean - rhs_mean
    z = z_score(diff, spread)
    if one_sided:
        verdict = "one_sided_ok" if diff >= -3.0 * spread else "inconsistent"
    else:
        verdict = "consistent" if abs(z) <= 3.0 else "inconsistent"
    return ComparisonReport(label=label, lhs=lhs, rhs=rhs, z_score=z, verdict=verdict, approx=approx)


# ---------------------------------------------------------------------------
# Laplace-functional duality (free flow, or a barred smoke)
# ---------------------------------------------------------------------------


def _level_paths(pair, count: int, t: float, dt: float, rng, boundary: FlowBoundary | None = None) -> np.ndarray:
    """The (count, 2) finals at ``t`` of ``count`` coalescing pairs from ``pair``, stepped on a grid of ``dt``."""
    paths = ReplicaFlow(np.tile(pair, count), np.repeat(np.arange(count), 2), count, boundary=boundary, members=True)
    for step in np.diff(_uniform_grid(t, dt)):
        paths.step(float(step), rng)
    return paths.pos[paths.member].reshape(count, 2)


@dataclass(frozen=True)
class LaplaceDualityConfig:
    """Two independent pathways for the same Laplace functional, of h0 = c 1{lo < x <= hi}.

    Left: evolve the flow of the measure-valued process to ``t`` and average
    E[exp(-<X_t, h0>) | flow].  Right: by duality the level pair (lo, hi)
    moves as two coalescing paths, to (L, R) at ``t`` (one exact
    :func:`~scbm.flow.coalescing_pair` step without barriers); average
    exp(-u_t(c) mu([L, R])), 1 for a merged pair.  ``rhs_gamma_scale``
    perturbs the right side's branching rate (negative control).

    With ``barriers`` the flow is absorbed at them and the level paths reflect
    off them.  The reflected coalescing side exists only as the fold-map grid
    approximation, so a barred check is a smoke check, always flagged
    ``approx``; its exact counterpart is the lattice generator identity.
    """

    params: BranchingParams
    t: float
    mu: MeasureSpec
    pair: tuple[float, float]
    coefficient: float
    n: int
    spacing: float = 0.05
    dt: float = 0.01
    rhs_gamma_scale: float = 1.0
    barriers: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if self.pair[1] < self.pair[0] or self.coefficient < 0:
            raise ValueError("need an ordered pair (lo <= hi) and a coefficient >= 0")
        if self.barriers is not None and any(v in self.barriers for v in self.pair):
            raise ValueError("level points must avoid the barriers")

    def boundary(self, kind: str) -> FlowBoundary | None:
        return None if self.barriers is None else FlowBoundary(kind, self.barriers)

    def level(self, points) -> np.ndarray:
        """h0 = c 1{lo < x <= hi} at ``points``."""
        lo, hi = self.pair
        return self.coefficient * ((points > lo) & (points <= hi))


def _laplace_lhs_batch(cfg: LaplaceDualityConfig, rng: np.random.Generator, count: int) -> np.ndarray:
    """E[exp(-<X_t, h0>) | flow] = exp(-sum_c M_c u_t(h0(x_c))) per replica."""
    system = init_ensemble(cfg.mu, cfg.spacing, count, boundary=cfg.boundary("absorbing"))
    for dt in np.diff(_lattice_grid(cfg.spacing, cfg.t, cfg.t, cfg.dt)):
        system.step(float(dt), rng)
    u = cumulant(cfg.params, cfg.t, cfg.level(system.pos))
    return np.exp(-np.bincount(system.replica, weights=system.mass * u, minlength=count))


def _laplace_rhs_batch(cfg: LaplaceDualityConfig, params: BranchingParams, rng: np.random.Generator, count: int) -> np.ndarray:
    """exp(-u_t(c) mu([L, R])) per replica, (L, R) the level pair at ``t``."""
    if cfg.barriers is None:
        left, right = coalescing_pair(*cfg.pair, cfg.t, rng, count)
    else:
        left, right = _level_paths(cfg.pair, count, cfg.t, cfg.dt, rng, cfg.boundary("reflecting")).T
    return np.exp(-cumulant(params, cfg.t, cfg.coefficient) * cfg.mu.mass_in(left, right))


def laplace_duality_check(cfg: LaplaceDualityConfig, seed: int, threads: int = 1) -> ComparisonReport:
    lhs = _mc_batched(partial(_laplace_lhs_batch, cfg), cfg.n, seed, stream=0, threads=threads)
    rhs_params = replace(cfg.params, gamma=cfg.params.gamma * cfg.rhs_gamma_scale)
    rhs = _mc_batched(partial(_laplace_rhs_batch, cfg, rhs_params), cfg.n, seed, stream=1, threads=threads)
    if cfg.barriers is not None:
        return _report("reflected_laplace_smoke", lhs, rhs, approx=True)
    return _report("laplace_duality", lhs, rhs, approx=cfg.params.beta < 1.0)


# ---------------------------------------------------------------------------
# Vacancy of a window flanked by a gap (absorbing flow, or branching read at every grid time)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GapConfig:
    """Window [a, b] up to time t, from Lebesgue measure outside [a - c, b + c], truncated ``margin`` beyond.

    Both readers compare with two one-sided reflections, (2 Phi(c / sqrt(t)) - 1)^2.  Without branching
    (:func:`absorbing_extinction_check`) the flow is absorbed at a and b and the identity is exact: ever
    occupying equals being absorbed, which the bridge-corrected hits catch without grid bias, and only the
    two edge points can reach the window, so the law does not depend on ``spacing``.  With branching
    (:func:`occupation_duality_check`) the plain process is read at every grid time, through its vacancy
    probability given the flow, and the relation is an inequality.
    """

    window: tuple[float, float]
    c: float
    t: float
    n: int
    margin: float = 6.0
    spacing: float = 0.05
    dt: float = 0.01

    def measure(self) -> MeasureSpec:
        a, b = self.window
        return MeasureSpec(
            intervals=((a - self.c - self.margin, a - self.c), (b + self.c, b + self.c + self.margin))
        )


def _absorbing_lhs(cfg: GapConfig, rng: np.random.Generator, count: int) -> np.ndarray:
    flow = init_ensemble(cfg.measure(), cfg.spacing, count, boundary=FlowBoundary("absorbing", cfg.window))
    for dt in np.diff(_uniform_grid(cfg.t, cfg.dt)):
        flow.step(float(dt), rng)
    return (flow.window_mass(*cfg.window) == 0).astype(float)  # every lattice cell carries positive mass


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


def absorbing_extinction_check(
    cfg: GapConfig, seed: int, threads: int = 1, label: str = "absorbing_extinction"
) -> ComparisonReport:
    lhs = _mc_batched(partial(_absorbing_lhs, cfg), cfg.n, seed, stream=0, threads=threads)
    rhs = reflected_gap_vacancy_exact(cfg.c, cfg.t)
    return _report(label, lhs, rhs)


def _never_charged(system: ReplicaFlow, grid, reads, window, params: BranchingParams, rng) -> np.ndarray:
    """Per replica: P(the window holds no live cluster at any read time | flow) = exp(-exposure).

    ``system`` steps along ``grid`` and is read where ``reads`` is set.  A start dead at its first read in the window
    stays dead, so at a read at time t the clusters in the window add mass * u_t(inf) to the exposure and leave.
    """
    exposure = np.zeros(system.count)
    for k, t in enumerate(grid):
        if k:
            system.step(float(t - grid[k - 1]), rng)
        if reads[k]:
            seen = system.window_mass(*window, drop=True)
            hit = seen > 0  # a replica with nothing in the window adds 0, never inf * 0
            exposure[hit] += seen[hit] * (math.inf if t == 0 else cumulant_limit(params, float(t)))
    return np.exp(-exposure)


def _occupation_lhs_batch(cfg: GapConfig, params: BranchingParams, rng: np.random.Generator, count: int) -> np.ndarray:
    grid = _lattice_grid(cfg.spacing, cfg.t, cfg.t, cfg.dt)
    system = init_ensemble(cfg.measure(), cfg.spacing, count)
    return _never_charged(system, grid, np.ones(len(grid), dtype=bool), cfg.window, params, rng)


def occupation_duality_check(cfg: GapConfig, params: BranchingParams, seed: int, threads: int = 1) -> ComparisonReport:
    lhs = _mc_batched(partial(_occupation_lhs_batch, cfg, params), cfg.n, seed, stream=0, threads=threads)
    rhs = reflected_gap_vacancy_exact(cfg.c, cfg.t)
    return _report("occupation_duality_bound", lhs, rhs, one_sided=True, approx=params.beta < 1.0)


# ---------------------------------------------------------------------------
# Vacancy of a fixed window over a whole time interval (lower bound)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VacancyBoundConfig:
    """P(window [-a, a] empty throughout (s1, s2]) against the reflected bound.

    The bound draws the half-normal displacements of two one-sided
    reflections run for s2 - s1, starts a coalescing pair at (-x - a, a + y),
    runs it for s1 in one exact :func:`~scbm.flow.coalescing_pair` step and
    averages exp(-rate * initial-measure mass between the endpoints).
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
    grid = _lattice_grid(cfg.spacing, cfg.s1, cfg.s2, cfg.dt)
    system = init_ensemble(cfg.mu, cfg.spacing, count)
    reads = (grid > cfg.s1) & (grid <= cfg.s2)
    return _never_charged(system, grid, reads, (-cfg.a, cfg.a), cfg.params, rng)


def _vacancy_rhs_batch(cfg: VacancyBoundConfig, rng: np.random.Generator, count: int) -> np.ndarray:
    gap_t = cfg.s2 - cfg.s1
    x = np.abs(rng.normal(0.0, math.sqrt(gap_t), count))
    y = np.abs(rng.normal(0.0, math.sqrt(gap_t), count))
    theta = cumulant_limit(cfg.params, cfg.s1)
    left, right = coalescing_pair(-x - cfg.a, cfg.a + y, cfg.s1, rng, count)
    return np.exp(-theta * cfg.mu.mass_in(left, right))


def interval_vacancy_bound_check(cfg: VacancyBoundConfig, seed: int, threads: int = 1) -> ComparisonReport:
    if cfg.s1 >= cfg.s2:
        raise ValueError("need s1 < s2")
    lhs = _mc_batched(partial(_vacancy_lhs_batch, cfg), cfg.n, seed, stream=0, threads=threads)
    rhs = _mc_batched(partial(_vacancy_rhs_batch, cfg), cfg.n, seed, stream=1, threads=threads)
    return _report("interval_vacancy_bound", lhs, rhs, one_sided=True, approx=cfg.params.beta < 1.0)

