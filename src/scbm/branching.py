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
exponential; for ``beta < 1`` fragments are drawn exactly from Kanter's
representation of the stable law (see :func:`_fragments`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BranchingParams",
    "cumulant",
    "cumulant_limit",
    "extinction_prob",
    "sample_transition",
    "sample_entrance_mass",
    "entrance_transform",
    "FRAGMENTS",
    "FRAGMENTS_RULE",
    "fragments_fit",
]

# Expected fragments one sample_transition call may draw below beta = 1: a draw keeps several float arrays per
# fragment, 32 MiB each at 2**22.  At beta = 1 one gamma draw sums the fragments of a transition, so only numpy's
# bound on a Poisson mean (about 9.2e18) applies.
FRAGMENTS = 2**22
FRAGMENTS_RULE = f"a Poisson mean of at most 1e18 per draw at beta = 1, {FRAGMENTS} fragments per call below"


@dataclass(frozen=True)
class BranchingParams:
    """Branching mechanism parameters: a finite rate ``gamma`` > 0 and exponent ``beta`` in (0, 1]."""

    gamma: float
    beta: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 < self.gamma < math.inf):
            raise ValueError(f"gamma must be finite and > 0, got {self.gamma}")
        if not (0.0 < self.beta <= 1.0):
            raise ValueError(f"beta must be in (0, 1], got {self.beta}")


def cumulant(params: BranchingParams, t: float, z):
    """Evaluate the cumulant map u_t(z).  Accepts scalar or array ``z``.

    u_0(z) = z, u is nondecreasing in z, and u_s(u_t(z)) = u_{s+t}(z).
    ``z = inf`` returns the finite limit (requires t > 0).
    """
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    zarr = np.asarray(z, dtype=float)
    if np.any(zarr < 0):
        raise ValueError("z must be >= 0")
    if t == 0:
        return z if np.isscalar(z) else zarr.copy()
    b = params.beta
    with np.errstate(over="ignore", invalid="ignore"):
        rate = params.gamma * b * t * zarr**b
        out = zarr * ((1.0 + b) / (1.0 + b + rate)) ** (1.0 / b)
    # a rate past the largest float (z = inf too) leaves inf * 0 or 0: the limit is within (1 + b) / (b rate) relative
    if not np.all(np.isfinite(rate)):
        out = np.where(np.isfinite(rate), out, cumulant_limit(params, t))
    return float(out) if np.isscalar(z) else out


def cumulant_limit(params: BranchingParams, t: float) -> float:
    """The finite limit of u_t(z) as z -> inf; strictly decreasing in t."""
    if t <= 0:
        raise ValueError(f"time must be > 0, got {t}")
    b = params.beta
    try:
        return ((1.0 + b) / (params.gamma * b * t)) ** (1.0 / b)
    except (OverflowError, ZeroDivisionError):  # beyond the largest float, as numpy reads it
        return math.inf


def fragments_fit(params: BranchingParams, t: float, x: float, size: int) -> bool:
    """Whether ``size`` transitions over ``t`` from mass ``x`` keep within :data:`FRAGMENTS_RULE`."""
    mean = x * cumulant_limit(params, t)
    return mean <= 1e18 if params.beta == 1.0 else size * mean <= FRAGMENTS


def extinction_prob(params: BranchingParams, t: float, x: float) -> float:
    """P(X_t = 0 | X_0 = x) = exp(-x * u_t(inf))."""
    if x < 0:
        raise ValueError(f"mass must be >= 0, got {x}")
    if x == 0:
        return 1.0
    return math.exp(-x * cumulant_limit(params, t))


def _kanter(v, beta: float):
    """Kanter's function K(v) = sin(beta v) sin((1-beta) v)^((1-beta)/beta) / sin(v)^(1/beta) on (0, pi)."""
    return np.sin(beta * v) * np.sin((1.0 - beta) * v) ** ((1.0 - beta) / beta) / np.sin(v) ** (1.0 / beta)


def _fragments(beta: float, rng: np.random.Generator, size=None):
    """Exact draws of the unit-mean fragment law for ``beta < 1``; ``size=None`` returns a float.

    The fragment law has Laplace transform L(s) = 1 - s (1 + s^beta)^(-1/beta),
    so P(Y > y) has transform (1 + s^beta)^(-1/beta): it is the density of
    W = S_beta G^(1/beta), with G ~ Gamma(1/beta) and S_beta positive stable
    with transform e^(-s^beta), the generalized Mittag-Leffler law (Pillai,
    1990).  So W = U Yhat, U uniform and Yhat the size-biased Y, and since
    Gamma(a) = U^(1/a) Gamma(a + 1) in law, Yhat = S_beta Gamma(1 + 1/beta)^(1/beta).
    With Kanter's S_beta = K(V) E^(-(1-beta)/beta), V uniform on (0, pi) and
    E ~ Exp(1) (Kanter, 1975), undoing the size bias tilts each independent
    factor by its own inverse: V gets density proportional to 1/K,
    E^(-(1-beta)/beta) becomes G^(-(1-beta)/beta) and Gamma(1 + 1/beta)^(1/beta)
    becomes E^(1/beta).  Hence Y = K(V) G^(-(1-beta)/beta) E^(1/beta), E at beta = 1.

    K increases on (0, pi) from K(0+) = beta (1-beta)^((1-beta)/beta), so V is
    drawn by rejection: propose V uniform and accept when U K(V) <= K(0+).  K at
    the left edge of each of 64 cells bounds K in the cell from below, so most
    rejections need no evaluation of K.
    """
    n = 1 if size is None else int(np.prod(size))
    floor = beta * (1.0 - beta) ** ((1.0 - beta) / beta)
    edge = np.append(floor, _kanter(np.arange(1, 65) * (np.pi / 64), beta))
    k = np.empty(0)
    while len(k) < n:
        v = np.pi * (1.0 - rng.random(2 * (n - len(k)) + 16))  # in (0, pi]
        u = rng.random(len(v))
        near = u * edge[(v * (64 / np.pi)).astype(np.intp)] <= floor
        kv = _kanter(v[near], beta)
        k = np.concatenate((k, kv[u[near] * kv <= floor]))
    y = k[:n] * rng.standard_gamma(1.0 / beta, n) ** (-(1.0 - beta) / beta) * rng.standard_exponential(n) ** (1.0 / beta)
    return float(y[0]) if size is None else y.reshape(size)


def sample_entrance_mass(params: BranchingParams, r: float, rng: np.random.Generator, size=None):
    """Draw from the normalized entrance law at age ``r``.

    The normalized law has Laplace transform 1 - u_r(z)/u_r(inf) and mean
    1/u_r(inf).  For beta = 1 that is Exponential(rate u_r(inf)); for
    beta < 1 it is an exact fragment draw (:func:`_fragments`) scaled by
    1/u_r(inf).
    """
    if r <= 0:
        raise ValueError(f"age must be > 0, got {r}")
    theta = cumulant_limit(params, r)
    if params.beta == 1.0:
        return rng.exponential(1.0 / theta, size)
    return _fragments(params.beta, rng, size) / theta


def entrance_transform(params: BranchingParams, r: float, z: float) -> tuple[float, float]:
    """E exp(-z Y) = 1 - u_r(z)/u_r(inf) for Y of the normalized entrance law at age ``r``, and u_r(z)/u_r(inf).

    The ratio is (1 + q)^(-1/beta), q = (1+beta) / (gamma beta r z^beta): read through log1p and expm1, each of
    the two keeps its relative precision where it is small.
    """
    b = params.beta
    rate = params.gamma * b * r * z**b
    a = math.inf if rate == 0 else math.log1p((1.0 + b) / rate) / b
    return -math.expm1(-a), math.exp(-a)


def _compound_step(theta: float, x, beta: float, rng: np.random.Generator):
    """One transition at extinction rate ``theta`` = u_t(inf) via the compound-Poisson decomposition."""
    xarr = np.asarray(x, dtype=float)
    counts = rng.poisson(xarr * theta)
    if theta == 0.0:  # u_t(inf) underflowed: no fragment, every mass is extinct
        return np.zeros(counts.shape)
    if beta == 1.0:
        # sum of N exponential(theta) fragments is Gamma(N, 1/theta); shape 0 yields 0
        return rng.gamma(counts, 1.0 / theta)
    flat = counts.ravel()
    if not flat.any():  # np.bincount would return integers
        return np.zeros(counts.shape)
    draws = _fragments(beta, rng, int(flat.sum())) / theta
    segment = np.repeat(np.arange(len(flat)), flat)
    return np.bincount(segment, weights=draws, minlength=len(flat)).reshape(counts.shape)


def sample_transition(params: BranchingParams, t: float, x, rng: np.random.Generator, size=None):
    """Draw from the time-t transition law started at mass ``x``.

    A Poisson(x u_t(inf)) number of fragments from the normalized entrance
    law, exact at every beta: at beta = 1 their sum is the Poisson-gamma
    mixture whose Laplace transform reproduces exp(-x u_t(z)), and for
    beta < 1 the fragments come from :func:`_fragments`.  One call covers any
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
    out = _compound_step(cumulant_limit(params, t), xarr, params.beta, rng)
    return float(out[0]) if scalar else out
