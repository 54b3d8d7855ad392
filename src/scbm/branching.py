"""Critical (1+beta)-stable continuous-state branching: exact semigroup evaluation and sampling.

The transition semigroup of the branching process is characterized by its
cumulant map ``u_t(z)`` (Laplace exponent): ``E[exp(-z X_t) | X_0 = x] =
exp(-x u_t(z))``.  For the critical stable mechanism with rate ``gamma`` and
exponent ``beta`` the cumulant has the closed form

    u_t(z) = z * ((1+beta) / (1+beta + gamma*beta*t*z**beta)) ** (1/beta)

with finite large-z limit ``u_t(inf) = ((1+beta)/(gamma*beta*t))**(1/beta)``.
Because that limit is finite, the time-t transition from mass ``x`` is compound
Poisson: a Poisson(x * u_t(inf)) number of fragments, each drawn from the
normalized one-sided entrance law.  For ``beta == 1`` the fragment law is
exponential and the sampler is exact; for ``beta < 1`` fragments are drawn by
inverse transform from a tabulated CDF (numerical Laplace inversion), so every
result is tagged approximate.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "BranchingParams",
    "cumulant",
    "cumulant_limit",
    "extinction_prob",
    "sample_transition",
    "sample_entrance_mass",
    "csbp_path",
    "entrance_table",
    "EntranceTable",
]


@dataclass(frozen=True)
class BranchingParams:
    """Branching mechanism parameters: rate ``gamma`` >= 0 and exponent ``beta`` in (0, 1].

    ``gamma == 0`` (no branching, masses frozen) is constructible because the
    measure-valued engine needs it, but the entrance law and extinction rate
    are undefined there and raise.
    """

    gamma: float
    beta: float = 1.0

    def __post_init__(self) -> None:
        if not (self.gamma >= 0.0) or not math.isfinite(self.gamma):
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")
        if not (0.0 < self.beta <= 1.0):
            raise ValueError(f"beta must be in (0, 1], got {self.beta}")

    @property
    def exact(self) -> bool:
        """True when transition sampling is exact (beta == 1 or no branching)."""
        return self.beta == 1.0 or self.gamma == 0.0


def cumulant(params: BranchingParams, t: float, z):
    """Evaluate the cumulant map u_t(z).  Accepts scalar or array ``z``.

    u_0(z) = z, u is nondecreasing in z, and u_s(u_t(z)) = u_{s+t}(z).
    ``z = inf`` returns the finite limit (requires gamma > 0, t > 0).
    """
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    zarr = np.asarray(z, dtype=float)
    if np.any(zarr < 0):
        raise ValueError("z must be >= 0")
    if t == 0 or params.gamma == 0:
        return z if np.isscalar(z) else zarr.copy()
    b = params.beta
    with np.errstate(invalid="ignore"):
        out = zarr * ((1.0 + b) / (1.0 + b + params.gamma * b * t * zarr**b)) ** (1.0 / b)
    # inf * 0 from the prefactor: substitute the closed-form limit
    if np.any(np.isinf(zarr)):
        lim = cumulant_limit(params, t)
        out = np.where(np.isinf(zarr), lim, out)
    return float(out) if np.isscalar(z) else out


def cumulant_limit(params: BranchingParams, t: float) -> float:
    """The finite limit of u_t(z) as z -> inf; strictly decreasing in t."""
    if t <= 0:
        raise ValueError(f"time must be > 0, got {t}")
    if params.gamma == 0:
        raise ValueError("cumulant limit is infinite without branching (gamma = 0)")
    b = params.beta
    return ((1.0 + b) / (params.gamma * b * t)) ** (1.0 / b)


def extinction_prob(params: BranchingParams, t: float, x: float) -> float:
    """P(X_t = 0 | X_0 = x) = exp(-x * u_t(inf))."""
    if x < 0:
        raise ValueError(f"mass must be >= 0, got {x}")
    if x == 0:
        return 1.0
    return math.exp(-x * cumulant_limit(params, t))


# ---------------------------------------------------------------------------
# Entrance-law tabulation for beta < 1
# ---------------------------------------------------------------------------


def _standard_fragment_laplace(s: complex, beta: float) -> complex:
    # Laplace transform of the scale-free fragment law (unit mean):
    # L(s) = 1 - s * (1 + s**beta) ** (-1/beta)
    return 1.0 - s * (1.0 + s**beta) ** (-1.0 / beta)


def _talbot_cdf(y: float, beta: float, nodes: int = 48) -> float:
    # Fixed-Talbot inversion of L(s)/s, the ordinary Laplace transform of the CDF.
    r = 2.0 * nodes / (5.0 * y)
    total = 0.5 * (_standard_fragment_laplace(r, beta) / r).real * math.exp(r * y)
    for k in range(1, nodes):
        theta = k * math.pi / nodes
        cot = math.cos(theta) / math.sin(theta)
        s = r * theta * (cot + 1j)
        sigma = theta + (theta * cot - 1.0) * cot
        total += (cmath.exp(y * s) * (_standard_fragment_laplace(s, beta) / s) * (1 + 1j * sigma)).real
    return total * r / nodes


@dataclass(frozen=True)
class EntranceTable:
    """Tabulated CDF of the scale-free entrance fragment law for one beta.

    Samples carry a Pareto tail of index 1 + beta beyond the table range
    (matched continuously), so the heavy tail is not truncated.
    """

    beta: float
    grid: np.ndarray
    cdf: np.ndarray
    tolerance: float
    tail_start_u: float  # CDF value where the Pareto extension takes over

    @property
    def approx(self) -> bool:
        return True

    def sample(self, rng: np.random.Generator, size=None) -> np.ndarray:
        u = rng.random(size)
        out = np.interp(u, self.cdf, self.grid)
        tail = u > self.tail_start_u
        if np.any(tail):
            y_max = self.grid[-1]
            survival = 1.0 - self.tail_start_u
            out = np.where(
                tail,
                y_max * (survival / np.maximum(1.0 - u, 1e-300)) ** (1.0 / (1.0 + self.beta)),
                out,
            )
        return out


@lru_cache(maxsize=16)
def entrance_table(beta: float, tolerance: float = 1e-6) -> EntranceTable:
    """Build (and cache) the standardized entrance-law CDF table for ``beta``.

    The law is scale free: a fragment at extinction rate theta is a table draw
    divided by theta.  Tabulation error is checked against the exponential
    closed form at beta = 1 in the test suite and stays below ``tolerance``.
    """
    if not (0.0 < beta <= 1.0):
        raise ValueError(f"beta must be in (0, 1], got {beta}")
    grid = np.geomspace(1e-8, 1e7, 3500)
    cdf = np.array([_talbot_cdf(y, beta) for y in grid])
    cdf = np.clip(np.maximum.accumulate(cdf), 0.0, 1.0)
    return EntranceTable(
        beta=beta,
        grid=grid,
        cdf=cdf,
        tolerance=tolerance,
        tail_start_u=float(cdf[-1]),
    )


def sample_entrance_mass(params: BranchingParams, r: float, rng: np.random.Generator, size=None):
    """Draw from the normalized entrance law at age ``r``.

    The normalized law has Laplace transform 1 - u_r(z)/u_r(inf) and mean
    1/u_r(inf).  For beta = 1 that is exactly Exponential(rate u_r(inf)); for
    beta < 1 it is a scaled table draw (approximate, tolerance in the table).
    """
    if r <= 0:
        raise ValueError(f"age must be > 0, got {r}")
    theta = cumulant_limit(params, r)
    if params.beta == 1.0:
        return rng.exponential(1.0 / theta, size)
    return entrance_table(params.beta).sample(rng, size) / theta


def _compound_step(theta: float, x, beta: float, rng: np.random.Generator):
    """One transition at extinction rate ``theta`` = u_t(inf) via the compound-Poisson decomposition."""
    xarr = np.asarray(x, dtype=float)
    counts = rng.poisson(xarr * theta)
    if beta == 1.0:
        # sum of N exponential(theta) fragments is Gamma(N, 1/theta); shape 0 yields 0
        return rng.gamma(counts, 1.0 / theta)
    flat = counts.ravel()
    total = int(flat.sum())
    out = np.zeros(flat.shape, dtype=float)
    if total:
        draws = entrance_table(beta).sample(rng, total) / theta
        segment = np.repeat(np.arange(len(flat)), flat)
        out = np.bincount(segment, weights=draws, minlength=len(flat))
    return out.reshape(counts.shape)


def sample_transition(params: BranchingParams, t: float, x, rng: np.random.Generator, size=None):
    """Draw from the time-t transition law started at mass ``x``.

    Exact for beta = 1 (Poisson number of exponential fragments, i.e. the
    Poisson-gamma mixture whose Laplace transform reproduces exp(-x u_t(z))).
    For beta < 1 the same decomposition runs with table-sampled fragments;
    results are approximate at the table tolerance.  One call covers any
    ``t``: the decomposition holds for every time, and the fragment count
    Poisson(x u_t(inf)) falls as ``t`` grows.  ``x`` may be a scalar or
    array; with scalar ``x``, ``size`` requests that many independent draws.
    """
    if t <= 0:
        raise ValueError(f"time must be > 0, got {t}")
    scalar = np.isscalar(x) and size is None
    if np.isscalar(x):
        xarr = np.full(1 if size is None else size, float(x))
    else:
        xarr = np.asarray(x, dtype=float)
    if np.any(xarr < 0):
        raise ValueError("mass must be >= 0")
    if params.gamma == 0.0:
        out = xarr.copy()
    else:
        out = _compound_step(cumulant_limit(params, t), xarr, params.beta, rng)
    return float(out[0]) if scalar else out


def csbp_path(params: BranchingParams, x0: float, grid, rng: np.random.Generator) -> np.ndarray:
    """Sample the branching process at the strictly increasing times ``grid``.

    The path starts from ``x0`` at time 0 and is chained through exact (or, for
    beta < 1, approximate) one-step transitions, so the marginal at each grid
    time t has the time-t transition law.  Zero is absorbing.
    """
    times = np.asarray(grid, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise ValueError("grid must be a nonempty 1-d time sequence")
    if np.any(np.diff(times) <= 0) or times[0] < 0:
        raise ValueError("grid must be strictly increasing and nonnegative")
    if x0 < 0:
        raise ValueError("x0 must be >= 0")
    out = np.empty(len(times))
    current = float(x0)
    prev = 0.0
    for i, t in enumerate(times):
        if t > prev and current > 0:
            current = float(sample_transition(params, t - prev, current, rng))
        out[i] = current
        prev = t
    return out
