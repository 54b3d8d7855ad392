"""Growth-window experiments: integral test diagnostics and survival ensembles.

The long-run behavior of the window process is governed by whether ``integral of g(y) * y**(-1-1/beta) over
[1, inf)`` converges.  This module evaluates that integral with a convergence diagnostic, the matching discrete
series ``4 g(t_{n+1}) u_{t_n}(inf)`` along the exponential time ladder with the exact chance the window is charged
at each ladder time, the tripling-time sequences with their interval invariants, the closed-form survival
probability of one annular block, and finite-horizon window-survival ensembles.  Both the charge and the ensembles
read the flow through its dual, a coalescing pair run backward from the window's edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from .branching import FRAGMENTS_RULE, BranchingParams, cumulant_limit, fragments_fit, sample_transition
from .flow import coalescing_pair
from .harness import _run_batches

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
    "window_charge",
    "SequenceTriple",
    "build_sequences",
    "block_survival_closed_form",
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
        """Points inside (lo, hi) where g jumps or kinks, for piecewise quadrature."""
        return []

    def validate(self, lo: float = 0.0, hi: float = 100.0, points: int = 64) -> None:
        grid = np.linspace(lo / 2, hi / 2, points) * 2  # halved, so that no step overflows up to the largest float
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
        if not (self.exponent >= 0 and self.coefficient >= 0):
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
        if not self.value >= 0:
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
        if any(map(math.isnan, self.times)) or not all(a < b for a, b in zip(self.times, self.times[1:])):
            raise ValueError("staircase times must be strictly increasing numbers")
        if not (self.values[0] >= 0 and all(a <= b for a, b in zip(self.values, self.values[1:]))):
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
        if not (self.cap > 0 and self.base > 1):
            raise ValueError("need cap > 0 and base > 1")

    def __call__(self, t: float) -> float:
        if t * math.log(self.base) > 700.0:
            return self.cap
        return min(self.base**t, self.cap)

    def breakpoints(self, lo: float, hi: float) -> list[float]:
        kink = math.log(self.cap) / math.log(self.base)
        return [kink] if lo < kink < hi else []

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


@cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:  # 20 nodes and weights on [-1, 1]
    from numpy.polynomial.legendre import leggauss  # loaded by the integral test alone, not on import
    return leggauss(20)


def _tail_quad(g: GrowthFunction, beta: float, lo: float, hi: float) -> float:
    """The integral of g(y) y^(-1-1/beta) over [lo, hi], as that of f(s) = g(e^s) e^(-s/beta) over s = log y.

    Composite 20-node Gauss-Legendre on panels at most 1 wide in s that break at g's breakpoints, so that
    f is smooth on every panel, however wide the range.  A panel where log f may swing by more than 8 (a small
    beta or a steep g) is cut into equal parts that each swing by about 8, as far as f may still hold more than
    e^-40 of the panel's integral; one part takes the rest.
    """
    nodes, weights = _gauss_legendre()
    ends = [math.log(y) for y in [lo, *g.breakpoints(lo, hi), hi]]
    left = np.concatenate([np.linspace(a, b, math.ceil(b - a) + 1)[:-1] for a, b in zip(ends, ends[1:])])
    width = np.diff(np.append(left, ends[-1]))
    with np.errstate(divide="ignore", invalid="ignore"):  # g = 0 reads log 0 = -inf
        g_lo = np.log([g(y) for y in np.exp(left).tolist()])
        g_hi = np.log([g.left_limit(y) for y in np.exp(left + width).tolist()])
        # g is nondecreasing: log f rises by at most `rise` and falls by width / beta on a panel, and past
        # (rise + 40 + log(width / beta)) beta from its left end f is below e^-40 beta f(left) / width
        rise = np.where(g_hi > g_lo, g_hi - g_lo, 0.0)
        cover = (rise + 40.0 + np.log(np.maximum(width / beta, 1.0))) * beta / width
    even = np.ceil(np.nan_to_num(np.maximum(rise + width / beta, 8.0), posinf=8.0) / 8.0)
    kept = np.minimum(even, np.ceil(cover * even) + 1.0)
    parts = (kept + (kept < even)).astype(int)
    panel = np.repeat(np.arange(len(left)), parts)
    j = np.arange(len(panel)) - np.repeat(np.cumsum(parts) - parts, parts)
    step = (width / even)[panel]
    half = np.where(j < kept[panel], step, width[panel] - kept[panel] * step)[:, None] / 2.0
    s = (left[panel, None] + (j * step)[:, None] + half * (1.0 + nodes)).ravel()
    values = np.array([g(y) for y in np.exp(s).tolist()]) * np.exp(-s / beta)
    # each weight takes its half-width first: a panel's weights sum to its width, at most 1, so no sum overflows
    return float((half * weights).ravel() @ values)


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
    # 4 * (g u) rather than (4 g) u: the factor 4 is exact, and a finite term never overflows through 4 g
    terms = np.array([4.0 * (g(float(math.e * t)) * cumulant_limit(params, float(t))) for t in times])
    tails = np.exp(-(times ** (2.0 * delta - 1.0)) / 2.0)
    with np.errstate(over="ignore"):  # a partial sum past the largest float reads inf
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


def window_charge(params: BranchingParams, r: float, h: float) -> float:
    """P(X_h([-r, r]) > 0) from Lebesgue measure: 1 - E exp(-u_h(inf) D), D the gap at h of coalescing paths from +-r.

    Unmerged, D has density phi_2h(D - 2r) (1 - exp(-2rD/h)).  In s = (D - 2r)/sqrt(2h) the integrand is
    (1 - exp(-a x)) (1 - exp(-2u x)) phi(s), x = u + s, u = 2r/sqrt(2h), a = u_h(inf) sqrt(2h): its factors lie in
    [0, 1], so nothing cancels.  Gauss-Legendre runs on unit panels over s in [max(-u, -40), 40], halved towards
    the lower end down to the scale 1/max(a, 2u) of its steps; the sum is clipped at 1 against rounding.
    """
    nodes, weights = _gauss_legendre()
    u = r / math.sqrt(h / 2.0)  # not 2r / sqrt(2h): 2r overflows for r near the largest float
    a = cumulant_limit(params, h) * math.sqrt(2.0 * h)
    if a == 0.0:  # the first factor is 0 at every finite gap
        return 0.0
    lo = max(-u, -40.0)
    halvings = max(0, math.ceil(math.log2(min(max(a, 2.0 * u), 2.0**1000))))
    # panel ends as offsets t from s = lo, where x = (u + lo) + t is exact at the lower end
    ends = np.concatenate(([0.0], 2.0 ** -np.arange(halvings, 0, -1.0), np.arange(1.0, 40.0 - lo), [40.0 - lo]))
    half = np.diff(ends)[:, None] / 2.0
    t = (ends[:-1, None] + half * (1.0 + nodes)).ravel()
    s, x = lo + t, (u + lo) + t
    with np.errstate(over="ignore"):  # a gap past the largest float charges with probability 1
        f = -np.expm1(-a * x) * -np.expm1(-2.0 * u * x) * np.exp(-s * s / 2.0)
    return min(float((half * weights).ravel() @ f) / math.sqrt(2.0 * math.pi), 1.0)


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
            with np.errstate(invalid="ignore"):  # radii past the largest float leave inf - inf, which fails both checks
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


def escape_probability_bounds(g: GrowthFunction, triple: SequenceTriple, eps: float = 0.1) -> EscapeBounds:
    """Evaluate the path-confinement probability bounds on the built sequence."""
    if not (0.0 < eps < 0.5):
        raise ValueError("eps must be in (0, 1/2)")
    times = triple.times
    gvals = np.array([g(float(t)) for t in times])
    coupling = np.full(len(times), np.nan)
    with np.errstate(over="ignore"):  # g**2 past the largest float reads inf, and exp(-inf) = 0 is the bound
        block = 2.0 * np.exp(-(gvals**2) / (100.0 * times))
        if len(times) > 1:
            coupling[1:] = 4.0 * np.exp(-(gvals[1:] ** 2) / (100.0 * times[1:])) + 4.0 * np.exp(
                -(gvals[:-1] ** 2) / (100.0 * times[1:])
            )
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
