"""Growth-window experiments: integral test diagnostics and survival ensembles.

The long-run behavior of the window process is governed by whether
``integral of g(y) * y**(-1-1/beta) over [1, inf)`` converges.  This module
evaluates that integral with a convergence diagnostic, the matching
discrete series ``4 g(t_{n+1}) u_{t_n}(inf)`` along the exponential time
ladder, the tripling-time sequences with their interval invariants, the
closed-form survival probability of one annular block, and finite-horizon
window-survival ensembles of the full measure-valued process.
Survival ensembles read the flow through its dual, a coalescing pair run
backward from the window's edges, and report P(window charged | the pair).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .branching import FRAGMENTS_RULE, BranchingParams, cumulant_limit, fragments_fit, sample_transition
from .flow import coalescing_pair
from .harness import MCEstimate, _mc_batched, _run_batches

__all__ = [
    "GrowthFunction",
    "PowerGrowth",
    "ConstantGrowth",
    "StaircaseGrowth",
    "CappedExponentialGrowth",
    "parse_growth",
    "IntegralDiagnostics",
    "integral_partial",
    "SeriesDiagnostics",
    "series_eval",
    "comparison_constant",
    "SequenceTriple",
    "build_sequences",
    "block_survival_closed_form",
    "block_survival_mc",
    "EscapeBounds",
    "escape_probability_bounds",
    "SurvivalConfig",
    "SurvivalResult",
    "survival_experiment",
]


# ---------------------------------------------------------------------------
# Growth functions (nonnegative, nondecreasing, right continuous)
# ---------------------------------------------------------------------------


class GrowthFunction:
    """Base for window radius functions; subclasses define value and left limit."""

    label = "growth"

    def __call__(self, t: float) -> float:
        raise NotImplementedError

    def left_limit(self, t: float) -> float:
        """g(t-); equals g(t) for continuous families."""
        return self(t)

    def breakpoints(self, lo: float, hi: float) -> list[float]:
        """Discontinuity points inside (lo, hi), for piecewise quadrature."""
        return []

    def validate(self, lo: float = 0.0, hi: float = 100.0, points: int = 64) -> None:
        grid = np.linspace(lo, hi, points)
        vals = [self(float(t)) for t in grid]
        if any(v < 0 for v in vals):
            raise ValueError("growth function must be nonnegative")
        if any(a > b + 1e-12 for a, b in zip(vals, vals[1:])):
            raise ValueError("growth function must be nondecreasing")


@dataclass(frozen=True)
class PowerGrowth(GrowthFunction):
    exponent: float
    coefficient: float = 1.0

    def __post_init__(self) -> None:
        if self.exponent < 0 or self.coefficient < 0:
            raise ValueError("power growth needs nonnegative exponent and coefficient")

    def __call__(self, t: float) -> float:
        try:
            return self.coefficient * t**self.exponent
        except OverflowError:  # past the largest float
            return math.inf

    @property
    def label(self) -> str:
        return f"power:{self.exponent:g}"


@dataclass(frozen=True)
class ConstantGrowth(GrowthFunction):
    value: float

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError("constant growth must be nonnegative")

    def __call__(self, t: float) -> float:
        return self.value

    @property
    def label(self) -> str:
        return f"constant:{self.value:g}"


@dataclass(frozen=True)
class StaircaseGrowth(GrowthFunction):
    """Right-continuous step function: value ``values[i]`` on [times[i], times[i+1])."""

    times: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.times) != len(self.values) or not self.times:
            raise ValueError("need matching nonempty times and values")
        if any(a >= b for a, b in zip(self.times, self.times[1:])):
            raise ValueError("staircase times must be strictly increasing")
        if any(a > b for a, b in zip(self.values, self.values[1:])) or self.values[0] < 0:
            raise ValueError("staircase values must be nonnegative and nondecreasing")

    def __call__(self, t: float) -> float:
        idx = int(np.searchsorted(self.times, t, side="right")) - 1
        return self.values[max(idx, 0)]

    def left_limit(self, t: float) -> float:
        idx = int(np.searchsorted(self.times, t, side="left")) - 1
        return self.values[max(idx, 0)]

    def breakpoints(self, lo: float, hi: float) -> list[float]:
        return [t for t in self.times if lo < t < hi]

    @property
    def label(self) -> str:
        return "staircase:" + ",".join(f"{t:g}:{v:g}" for t, v in zip(self.times, self.values))


@dataclass(frozen=True)
class CappedExponentialGrowth(GrowthFunction):
    """min(base**t, cap): exponential growth truncated at a ceiling."""

    cap: float
    base: float = 3.0

    def __post_init__(self) -> None:
        if self.cap <= 0 or self.base <= 1:
            raise ValueError("need cap > 0 and base > 1")

    def __call__(self, t: float) -> float:
        if t * math.log(self.base) > 700.0:
            return self.cap
        return min(self.base**t, self.cap)

    @property
    def label(self) -> str:
        return f"cappedexp:{self.cap:g}"


def parse_growth(spec: str) -> GrowthFunction:
    """Parse 'power:P', 'constant:C', 'cappedexp:CAP' or 'staircase:t:v,t:v,...'."""
    kind, _, rest = spec.partition(":")
    try:
        if kind == "power":
            return PowerGrowth(exponent=float(rest))
        if kind == "constant":
            return ConstantGrowth(value=float(rest))
        if kind == "cappedexp":
            return CappedExponentialGrowth(cap=float(rest))
        if kind == "staircase":
            steps = [piece.split(":") for piece in rest.split(",")]
            times = tuple(float(t) for t, _ in steps)
            values = tuple(float(v) for _, v in steps)
            return StaircaseGrowth(times=times, values=values)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"bad growth spec {spec!r}: {exc}") from exc
    raise ValueError(f"unknown growth family {kind!r}")


# ---------------------------------------------------------------------------
# Integral test and series
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntegralDiagnostics:
    """Partial integral with its doubling diagnostic and classification.

    The values at T, 2T and 4T determine a geometric extrapolation: when the
    doubling increments decay at ratio r < 1, the tail beyond 4T sums to
    d2 * r / (1 - r) (exact when the integrand tail is a pure power).
    """

    value: float
    value_2t: float
    value_4t: float
    classification: str  # convergent | divergent
    limit_estimate: float | None


def _tail_quad(g: GrowthFunction, beta: float, lo: float, hi: float) -> float:
    from scipy import integrate  # loaded by the integral test alone, not on import

    cuts = g.breakpoints(lo, hi)
    edges = [lo] + cuts + [hi]
    total = 0.0
    for a, b in zip(edges, edges[1:]):
        val, _ = integrate.quad(lambda y: g(y) * y ** (-1.0 - 1.0 / beta), a, b, epsrel=1e-8, limit=300)
        total += val
    return total


def integral_partial(g: GrowthFunction, beta: float, T: float) -> IntegralDiagnostics:
    """Quadrature of the classification integral over [1, T] plus diagnostics."""
    if T <= 1:
        raise ValueError("horizon must exceed 1")
    if not (0 < beta <= 1):
        raise ValueError("beta must be in (0, 1]")
    v1 = _tail_quad(g, beta, 1.0, T)
    v2 = v1 + _tail_quad(g, beta, T, 2.0 * T)
    v4 = v2 + _tail_quad(g, beta, 2.0 * T, 4.0 * T)
    d1, d2 = v2 - v1, v4 - v2
    scale = max(abs(v4), 1.0)
    if d2 <= 1e-12 * scale:
        return IntegralDiagnostics(v1, v2, v4, "convergent", v4)
    ratio = d2 / d1 if d1 > 0 else 1.0
    if ratio < 0.99:
        return IntegralDiagnostics(v1, v2, v4, "convergent", v4 + d2 * ratio / (1.0 - ratio))
    return IntegralDiagnostics(v1, v2, v4, "divergent", None)


def comparison_constant(params: BranchingParams) -> float:
    """The constant relating the discrete series to the integral: (1/beta) * ((1+beta)/(gamma beta))**(1/beta)."""
    b = params.beta
    if params.gamma <= 0:
        raise ValueError("needs a positive branching rate")
    return (1.0 / b) * ((1.0 + b) / (params.gamma * b)) ** (1.0 / b)


@dataclass(frozen=True)
class SeriesDiagnostics:
    """Terms 4 g(t_{n+1}) u_{t_n}(inf) on the ladder t_n = e^n, with tail bounds."""

    times: np.ndarray
    terms: np.ndarray
    partial_sums: np.ndarray
    tail_terms: np.ndarray  # Gaussian escape bounds exp(-t_n^(2 delta - 1) / 2)
    comparison: float
    bounded: bool


def series_eval(g: GrowthFunction, params: BranchingParams, N: int, delta: float = 0.75) -> SeriesDiagnostics:
    if N < 1:
        raise ValueError("need at least one term")
    if not (0.5 < delta < 1.0):
        raise ValueError("delta must be in (1/2, 1)")
    times = np.exp(np.arange(1, N + 1, dtype=float))
    terms = np.array([4.0 * g(float(math.e * t)) * cumulant_limit(params, float(t)) for t in times])
    tails = np.exp(-(times ** (2.0 * delta - 1.0)) / 2.0)
    sums = np.cumsum(terms)
    if np.all(terms == 0.0):
        bounded = True
    elif len(terms) >= 2 and terms[-2] > 0:
        bounded = bool(terms[-1] / terms[-2] < 0.99)
    else:
        bounded = False
    return SeriesDiagnostics(
        times=times,
        terms=terms,
        partial_sums=sums,
        tail_terms=tails,
        comparison=comparison_constant(params),
        bounded=bounded,
    )


# ---------------------------------------------------------------------------
# Tripling-time sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SequenceTriple:
    """Times where g triples, with the annular block radii and invariant flags.

    ``lower[n]`` and ``upper[n]`` frame the block for index n >= 1
    (lower[0] is NaN: it would need the previous time).  The flags record the
    bracketing invariant g(t_n) <= g(t_{n+1}-) <= 3 g(t_n), the width bound
    upper - lower >= (g(t_{n+1}-) - g(t_n-)) / 10, and window nonemptiness.
    """

    times: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    eqng_ok: np.ndarray
    intervaldiff_ok: np.ndarray
    window_ok: np.ndarray
    terminated: bool


def _first_time_reaching(g: GrowthFunction, start: float, target: float, tol: float, t_max: float):
    """First t >= start with g(t) >= target, plus the left limit g(t-).

    Returns ``(t, left_value)`` or ``None`` when g never reaches the target.
    The left limit is read off the final bisection bracket (g is constant or
    continuous just below the crossing), and jump crossings snap exactly onto
    a declared breakpoint.
    """
    if g(start) >= target:
        return start, g.left_limit(start)
    hi = max(2.0 * start, start + 1.0)
    while g(hi) < target:
        hi *= 2.0
        if hi > t_max:
            return None
    lo = start
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # bracket already at float resolution
        if g(mid) >= target:
            hi = mid
        else:
            lo = mid
    left_value = g(lo)
    cuts = [c for c in g.breakpoints(lo - tol, hi + tol) if lo < c <= hi + tol and g(c) >= target]
    if cuts:
        return min(cuts), left_value
    return hi, left_value


def build_sequences(g: GrowthFunction, N: int, tol: float = 1e-10, t_max: float = 1e15) -> SequenceTriple:
    """Times t_0 = 1, t_{n+1} = first time g reaches 3 g(t_n), plus block radii.

    Radii: upper[n] = 0.9 g(t_n), lower[n] = (31/30) g(t_{n-1}).  If g never
    triples again the triple ends early with ``terminated`` set.
    """
    if g(1.0) <= 0.0:
        raise ValueError("growth must be positive at time 1")
    times = [1.0]
    left_values = [g.left_limit(1.0)]
    terminated = False
    for _ in range(N):
        found = _first_time_reaching(g, times[-1], 3.0 * g(times[-1]), tol, t_max)
        if found is None:
            terminated = True
            break
        nxt, left = found
        times.append(nxt)
        left_values.append(left)
    tarr = np.asarray(times)
    k = len(tarr)
    upper = 0.9 * np.array([g(float(t)) for t in tarr])
    lower = np.full(k, np.nan)
    if k > 1:
        lower[1:] = (31.0 / 30.0) * np.array([g(float(t)) for t in tarr[:-1]])
    eqng = np.zeros(k, dtype=bool)
    diffok = np.zeros(k, dtype=bool)
    winok = np.zeros(k, dtype=bool)
    slack = 1e-6
    for n in range(k - 1):
        gl = left_values[n + 1]
        gn = g(float(tarr[n]))
        eqng[n] = gn <= gl * (1 + slack) + slack and gl <= 3.0 * gn * (1 + slack) + slack
        if n >= 1:
            width = upper[n] - lower[n]
            bound = 0.1 * (gl - left_values[n])
            diffok[n] = width >= bound - slack * max(1.0, abs(bound))
            winok[n] = lower[n] < upper[n]
    return SequenceTriple(
        times=tarr,
        lower=lower,
        upper=upper,
        eqng_ok=eqng,
        intervaldiff_ok=diffok,
        window_ok=winok,
        terminated=terminated,
    )


def block_survival_closed_form(params: BranchingParams, index: int, triple: SequenceTriple) -> tuple[float, bool]:
    """P(annular block mass alive at its time): 1 - exp(-2 (r - l) u_t(inf)).

    Returns (probability, empty_window_flag); an empty block (l >= r) has
    survival probability zero by convention.
    """
    if not 1 <= index < len(triple.times):
        raise ValueError("index must point at a block with both radii defined")
    width = triple.upper[index] - triple.lower[index]
    if width <= 0:
        return 0.0, True
    t = float(triple.times[index])
    return 1.0 - math.exp(-2.0 * width * cumulant_limit(params, t)), False


def _block_batch(params: BranchingParams, t: float, x0: float, rng: np.random.Generator, count: int) -> np.ndarray:
    return sample_transition(params, t, x0, rng, size=count) > 0


def block_survival_mc(
    params: BranchingParams, index: int, triple: SequenceTriple, n: int, seed: int, threads: int = 1
) -> MCEstimate:
    """Branching-only companion estimate of the block survival probability."""
    width = float(triple.upper[index] - triple.lower[index])
    if width <= 0:
        return MCEstimate(mean=0.0, stderr=0.0, n=n, seed=seed)
    t = float(triple.times[index])
    return _mc_batched(partial(_block_batch, params, t, 2.0 * width), n, seed, stream=0, threads=threads)


@dataclass(frozen=True)
class EscapeBounds:
    """Numeric values of the Gaussian confinement bounds along the sequence.

    ``block[n]`` bounds the chance the block's extremal paths leave the window
    by its time, 2 exp(-g(t_n)^2 / (100 t_n)); ``coupling[n]`` (n >= 1) bounds
    the chance neighbouring blocks interact,
    4 exp(-g(t_n)^2 / (100 t_n)) + 4 exp(-g(t_{n-1})^2 / (100 t_n)).  Both are
    asymptotic devices: values above 1 are vacuous at small times and the
    interesting diagnostic is their summability.  ``envelope_ok`` reports the
    growth envelope t^(1/2+eps) <= g(t) <= 3^t at each sequence time.
    """

    block: np.ndarray
    coupling: np.ndarray
    envelope_ok: np.ndarray

    @property
    def summable_tail(self) -> float:
        return float(np.sum(np.minimum(self.block, 1.0)) + np.nansum(np.minimum(self.coupling, 1.0)))


def escape_probability_bounds(g: GrowthFunction, triple: SequenceTriple, eps: float = 0.1) -> EscapeBounds:
    """Evaluate the path-confinement probability bounds on the built sequence."""
    if not (0.0 < eps < 0.5):
        raise ValueError("eps must be in (0, 1/2)")
    times = triple.times
    gvals = np.array([g(float(t)) for t in times])
    block = 2.0 * np.exp(-(gvals**2) / (100.0 * times))
    coupling = np.full(len(times), np.nan)
    if len(times) > 1:
        coupling[1:] = 4.0 * np.exp(-(gvals[1:] ** 2) / (100.0 * times[1:])) + 4.0 * np.exp(
            -(gvals[:-1] ** 2) / (100.0 * times[1:])
        )
    with np.errstate(over="ignore"):
        upper_env = np.array([math.inf if t * math.log(3.0) > 700.0 else 3.0**t for t in times])
    envelope = (gvals >= times ** (0.5 + eps)) & (gvals <= upper_env)
    return EscapeBounds(block=block, coupling=coupling, envelope_ok=envelope)


# ---------------------------------------------------------------------------
# Survival ensembles
# ---------------------------------------------------------------------------


def _need(ok: bool, key: str, need: str) -> None:
    if not ok:
        raise ValueError(f"bad value for {key!r}: need {need}")


@dataclass(frozen=True)
class SurvivalConfig:
    """Ensemble of processes from Lebesgue mass on [-L, L], read through moving windows."""

    params: BranchingParams
    g: GrowthFunction
    truncation: float = 50.0
    horizons: tuple[float, ...] = (4.0, 16.0, 64.0)
    replicas: int = 2000
    batch: int = 32

    def __post_init__(self) -> None:
        h = self.horizons
        _need(self.params.gamma > 0, "gamma", "gamma > 0: survival ensembles read branching masses")
        _need(0 <= self.truncation < math.inf, "truncation", "a finite truncation >= 0")
        ok = bool(h) and 0 < h[0] and h[-1] < math.inf and all(a < b for a, b in zip(h, h[1:]))
        _need(ok, "horizons", "strictly increasing positive finite horizons")
        _need(self.replicas >= 2, "replicas", "at least two replicas")
        _need(self.batch >= 1, "batch", "batch >= 1")
        fits = partial(fragments_fit, self.params, x=2 * self.truncation, size=min(self.batch, self.replicas))
        key = "horizons" if fits(SurvivalConfig.horizons[-1]) else "truncation"  # too much mass even at the default
        _need(fits(h[-1]), key, f"a truncation and last horizon whose alive_at_end draws keep within {FRAGMENTS_RULE}")


@dataclass(frozen=True)
class SurvivalResult:
    horizons: tuple[float, ...]
    fractions: tuple[float, ...]
    stderrs: tuple[float, ...]
    alive_at_end: int
    g_label: str


def _survival_batch(cfg: SurvivalConfig, rng: np.random.Generator, count: int) -> np.ndarray:
    """Per replica: 1 - exp(-u_h(inf) M_h) per horizon h, M_h the start mass in the window, and an alive flag.

    The starts carried into [-g(h), g(h)] by time h span the interval between
    a coalescing pair run backward over h from -g(h) and g(h) (empty once it
    merged); M_h is its length within [-L, L].  The total mass stays 2L.
    """
    L = cfg.truncation
    out = np.empty((count, len(cfg.horizons) + 1))
    for i, h in enumerate(cfg.horizons):
        radius = float(cfg.g(h))
        lo, hi = coalescing_pair(-radius, radius, h, rng, count)
        mass = np.maximum(np.minimum(hi, L) - np.maximum(lo, -L), 0.0)
        out[:, i] = -np.expm1(-cumulant_limit(cfg.params, h) * mass)
    out[:, -1] = sample_transition(cfg.params, float(cfg.horizons[-1]), np.full(count, 2.0 * L), rng) > 0
    return out


def survival_experiment(cfg: SurvivalConfig, seed: int, threads: int = 1) -> SurvivalResult:
    """Window-survival fractions per horizon over a replica ensemble.

    Each fraction averages P(window charged | flow), with one backward pair
    step per replica and horizon.  Deterministic given (config, seed): batch
    i uses the stream (seed, 0, i), and neither g nor the branching law
    changes a draw, so with a shared seed a wider window charges at least as
    often in every replica (pointwise monotonicity carries to the fractions).
    """
    cfg.g.validate(0.0, float(cfg.horizons[-1]))
    table = _run_batches(partial(_survival_batch, cfg), cfg.replicas, seed, 0, threads, cfg.batch)
    n = cfg.replicas
    fractions = table[:, :-1].mean(axis=0)
    stderrs = table[:, :-1].std(axis=0, ddof=1) / math.sqrt(n)
    return SurvivalResult(
        horizons=tuple(float(h) for h in cfg.horizons),
        fractions=tuple(float(f) for f in fractions),
        stderrs=tuple(float(s) for s in stderrs),
        alive_at_end=int(table[:, -1].sum()),
        g_label=cfg.g.label,
    )
