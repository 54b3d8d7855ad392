"""Exact finite-state verification of the coalescing-walk duality.

Builds truncated rate matrices for the absorbed and reflected coalescing
walks, computes transient laws by uniformization with certified series and
truncation error, and checks two facts exactly:

* the generator identity behind the absorbed/reflected duality, exhaustively
  over all window states and all indicator-basis functions of the binary
  crossing array;
* equality in law of the forward array (absorbed walk against fixed levels)
  and the backward array (fixed points against the reflected walk), as a
  total-variation distance with an explicit error budget.

Both read the crossing array through one encoder, ``lattice._pattern_codes``:
the slot of each point among the levels, #{j : y_j < x_i} - 1, one-hot in
row i when it lies in 0..n-2 and an empty row otherwise.  The array laws are
indexed by its bit-packed view, the generator identity by one base-n digit
per particle over a slot table built once per case.

Uniformization and the window radius read the Poisson law from one private
helper, ``_poisson``: its pmf is exp(k log mu - lgamma(k + 1) - mu) and its
upper tails are summed from the far end of a support sized from the
tolerance asked for, so far-out tails keep their relative accuracy.  No
enumeration may hold more than ``ORACLE_STATES`` window states; the count is
taken with ``math.comb`` before anything is enumerated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .lattice import BoundarySpec, _blocks_of, _pattern_codes, state_moves

__all__ = [
    "RateMatrix",
    "TransientLaw",
    "ArrayLawResult",
    "build_generator",
    "transient_law",
    "check_generator_duality",
    "array_law_exact",
    "window_radius",
    "window_states",
    "array_law_states",
    "ORACLE_STATES",
]

_CHUNK_CELLS = 1 << 17  # dense residual cells summed per chunk of x states: 1 MB

# Window states one enumeration may hold (defaults: at most 1,771).  transient_law keeps dense ns x ns float64
# matrices, 128 MiB each at 4096 states, and the generator identity sums nx * ny * n**m cells: a larger window is
# refused from its count, before anything is enumerated.
ORACLE_STATES = 4096

# Longest Poisson support _poisson sums (8 MiB per array).  Poisson(mu) needs about mu terms, so a larger mean is
# refused before its terms are allocated.
_POISSON_TERMS = 1 << 20


@dataclass(frozen=True)
class RateMatrix:
    """Truncated generator over the enumerated window states.

    Off-diagonal entries are jump rates between in-window states; rates into
    out-of-window states accumulate in ``leak`` per row, so every row sums to
    ``-leak[i]`` (zero for interior states).
    """

    boundary: BoundarySpec
    lattice: str
    states: tuple[tuple[float, ...], ...]
    rates: np.ndarray
    leak: np.ndarray

    def index(self, positions) -> int:
        key = tuple(float(v) for v in positions)
        try:
            return self.states.index(key)
        except ValueError:
            raise KeyError(f"state {key} outside the enumerated window") from None


@dataclass(frozen=True)
class TransientLaw:
    """Distribution over window states at one time, with certified error parts."""

    probs: np.ndarray
    series_remainder: float
    lost_mass: float  # truncation leak plus series remainder actually lost


def _sites(window: tuple[float, float], lattice: str) -> list[float]:
    off = 0.5 if lattice == "half_integers" else 0.0
    return [v + off for v in range(math.ceil(window[0] - off), math.floor(window[1] - off) + 1)]


def window_states(window: tuple[float, float], lattice: str, particles: int) -> int:
    """Canonical ``particles``-particle states on the sites of ``window``, counted without enumerating them."""
    off = 0.5 if lattice == "half_integers" else 0.0
    sites = max(0, math.floor(window[1] - off) - math.ceil(window[0] - off) + 1)
    return math.comb(sites + particles - 1, particles)


def _check_states(window: tuple[float, float], lattice: str, particles: int) -> None:
    count = window_states(window, lattice, particles)
    if count > ORACLE_STATES:
        raise ValueError(f"{count} {particles}-particle states in window {window}: more than {ORACLE_STATES}")


def _rows_and_rates(boundary: BoundarySpec, states):
    """Each state followed by its move targets, with the source index and the generator's rate of each."""
    rows, src, rates = [], [], []
    for i, s in enumerate(states):
        moves, outflow = state_moves(boundary, s, _blocks_of(s))
        rows += [s] + [new for new, _ in moves]
        src += [i] * (1 + len(moves))
        rates += [-outflow] + [rate for _, rate in moves]
    return np.array(rows), np.array(src), np.array(rates)


def build_generator(boundary: BoundarySpec, m: int, window: tuple[float, float]) -> RateMatrix:
    """Enumerate canonical m-particle states in ``window`` and their jump rates."""
    lattice = "half_integers" if boundary.kind == "reflecting" else "integers"
    lo, hi = window
    if boundary.points and not (lo <= min(boundary.points) - 1 and hi >= max(boundary.points) + 1):
        raise ValueError("window must contain every barrier with margin >= 1")
    _check_states(window, lattice, m)
    sites = _sites(window, lattice)
    if not sites:
        raise ValueError("window is empty")
    states = tuple(combinations_with_replacement(sites, m))
    index = {s: i for i, s in enumerate(states)}
    rows, src, row_rate = _rows_and_rates(boundary, states)
    dest = np.array([index.get(tuple(r), -1) for r in rows.tolist()])
    inside = dest >= 0
    rates = np.zeros((len(states), len(states)))
    np.add.at(rates, (src[inside], dest[inside]), row_rate[inside])
    leak = np.bincount(src[~inside], row_rate[~inside], minlength=len(states))
    return RateMatrix(boundary=boundary, lattice=lattice, states=states, rates=rates, leak=leak)


def transient_law(Q: RateMatrix, init: int, t: float, tol: float = 1e-8) -> TransientLaw:
    """Distribution at time ``t`` from state index ``init`` by uniformization.

    The Poisson series is truncated once its tail is below ``tol``; mass that
    leaks out of the window is dropped and reported in ``lost_mass``, clamped
    at 0 where rounding makes the summed law exceed 1.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if t < 0:
        raise ValueError("time must be >= 0")
    ns = len(Q.states)
    v = np.zeros(ns)
    v[init] = 1.0
    lam = float(np.max(-np.diag(Q.rates)))
    if t == 0 or lam == 0:
        return TransientLaw(probs=v, series_remainder=0.0, lost_mass=0.0)
    P = np.eye(ns) + Q.rates / lam
    weights, tails = _poisson(lam * t, tol)
    dist = weights[0] * v
    for k in range(1, len(weights)):
        v = v @ P
        dist = dist + weights[k] * v
    return TransientLaw(probs=dist, series_remainder=float(tails[-1]), lost_mass=max(0.0, float(1.0 - dist.sum())))


def _poisson(mu: float, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Poisson(mu) pmf and upper tails P(N > k) for k = 0 .. K, K the first k with P(N > k) <= tol.

    The pmf is exp(k log mu - lgamma(k + 1) - mu), the formula of ``scipy.stats.poisson``.  The tails are
    summed from the far end, the first k past mu whose term is below tol * e**-45, instead of taken as
    1 - cdf, which cancels to 0 far out.  The terms beyond the far end would add at most tol * e**-45 * mu
    to any tail.
    """
    if mu == 0.0 or tol >= 1.0:  # P(N > 0) = 1 - exp(-mu) <= tol already
        return np.array([math.exp(-mu)]), np.array([-math.expm1(-mu)])
    floor = math.log(tol or math.ulp(0.0)) - 45.0  # a tolerance that underflowed to 0 reads as the least float
    size = int(mu + 10.0 * math.sqrt(mu)) + 64
    while True:
        if size > _POISSON_TERMS:
            raise ValueError(f"Poisson({mu:g}) needs more than {_POISSON_TERMS} terms")
        k = np.arange(size)
        logpmf = k * math.log(mu) - np.fromiter(map(math.lgamma, range(1, size + 1)), float, size) - mu
        far = np.flatnonzero((k > mu) & (logpmf < floor))
        if far.size:
            break
        size *= 2
    pmf = np.exp(logpmf[: far[0] + 1])
    tails = np.append(np.cumsum(pmf[:0:-1])[::-1], 0.0)
    last = int(np.argmax(tails <= tol))
    return pmf[: last + 1], tails[: last + 1]


def window_radius(t: float, particles: int, tol: float) -> int:
    """Smallest radius whose escape probability bound is below tol/10.

    A rate-1 walk needs at least W jumps to move W sites, so the chance any of
    the particles leaves a margin of W by time t is at most
    particles * P(Poisson(t) >= W), read from the tails of ``_poisson``.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    return len(_poisson(t, tol / (10.0 * particles))[1])


def _bit_codes(slots: np.ndarray, n: int) -> np.ndarray:
    """Bit-packed crossing array: particle i sets bit i(n-1) + slot_i when its row is not empty."""
    valid = (slots >= 0) & (slots <= n - 2)
    shift = np.where(valid, np.arange(slots.shape[-1]) * (n - 1) + slots, 0)
    return np.where(valid, np.left_shift(1, shift, dtype=np.int64), 0).sum(axis=-1)


def check_generator_duality(
    m: int,
    n: int,
    barriers: tuple[float, float] = (0.0, 4.0),
    window: tuple[float, float] | None = None,
    radius: float = 8.0,
    negative_control: bool = False,
) -> float:
    """Max residual of the absorbed/reflected generator identity.

    For every in-window pair of an absorbed m-particle state x and a reflected
    n-particle state y, and for every indicator-basis function g of the binary
    crossing array, the absorbed generator applied to g(array(., y)) at x must
    equal the reflected generator applied to g(array(x, .)) at y.  Working in
    the indicator basis means accumulating signed rates per array pattern,
    which covers all 2^(m(n-1)) basis functions at once.

    Each row of the array is one-hot or empty, so a pattern is indexed by one
    base-n digit per particle, (slot_i + 1) n^i with digit 0 for an empty
    row: n^m cells per (x, y) pair, one-to-one with the reachable patterns.
    The digits of every site an x particle can reach, against every y state
    and every y-move target, are tabulated once; the signed rates of a chunk
    of x states then go into one ``np.bincount`` over (x, y, pattern).

    ``negative_control=True`` replaces the reflected generator by a second
    absorbed one (inert on the half-integer lattice), which must break the
    identity.
    """
    a, b = barriers
    if window is None:
        window = (a - radius, b + radius)
    _check_states(window, "integers", m)
    _check_states(window, "half_integers", n)
    sites = np.array(_sites((window[0] - 1.0, window[1] + 1.0), "integers"))
    x_states = tuple(combinations_with_replacement(_sites(window, "integers"), m))
    y_states = tuple(combinations_with_replacement(_sites(window, "half_integers"), n))
    nx, ny, npat = len(x_states), len(y_states), n**m

    # absorbed x states and their moves as site indices; reflected y states and
    # their moves as level rows, whose rates enter the residual with sign -1
    x_rows, x_src, x_rate = _rows_and_rates(BoundarySpec("absorbing", barriers), x_states)
    x_rows = (x_rows - sites[0]).astype(np.intp)
    x_first = np.searchsorted(x_src, np.arange(nx + 1))  # row of each x state itself; nx closes the last
    y_kind = "absorbing" if negative_control else "reflecting"
    y_rows, y_src, y_rate = _rows_and_rates(BoundarySpec(y_kind, barriers), y_states)
    digit = _pattern_codes(sites, y_rows).T
    digit += 1
    digit %= n  # slot + 1, or 0 for an empty row (slot -1 or n - 1)
    digit = np.ascontiguousarray(digit, dtype=np.int16)  # (site, y row)
    own = digit[:, np.searchsorted(y_src, np.arange(ny))]  # each y state's own levels

    chunk = max(1, _CHUNK_CELLS // (ny * (npat + 2 * (m + n + 1))))
    residual = 0.0
    for lo in range(0, nx, chunk):
        hi = min(lo + chunk, nx)
        # left side: x rows of this chunk against each y state's own levels
        sel = slice(x_first[lo], x_first[hi])
        pat_x = sum(np.multiply(own[x_rows[sel, i]], n**i, dtype=np.intp) for i in range(m))
        cell_x = ((x_src[sel, None] - lo) * ny + np.arange(ny)) * npat + pat_x
        # right side: each x state of this chunk against every y row
        xs = x_rows[x_first[lo:hi]]
        pat_y = sum(np.multiply(digit[xs[:, i]], n**i, dtype=np.intp) for i in range(m))
        cell_y = ((np.arange(hi - lo)[:, None]) * ny + y_src) * npat + pat_y
        weights = np.concatenate((np.repeat(x_rate[sel], ny), np.tile(-y_rate, hi - lo)))
        acc = np.bincount(np.concatenate((cell_x.ravel(), cell_y.ravel())), weights, minlength=(hi - lo) * ny * npat)
        residual = max(residual, float(np.abs(acc).max()))
    return residual


def _array_window(x0, y0, barriers: tuple[float, float], radius: float) -> tuple[float, float]:
    """The window of ``array_law_exact``: points, levels and barriers widened by ``radius``."""
    return min(min(x0), min(y0), barriers[0]) - radius, max(max(x0), max(y0), barriers[1]) + radius


def array_law_states(x0, y0, barriers: tuple[float, float], radius: float) -> int:
    """States of the larger of the two chains ``array_law_exact`` enumerates at window radius ``radius``."""
    window = _array_window(x0, y0, barriers, radius)
    return max(window_states(window, "integers", len(x0)), window_states(window, "half_integers", len(y0)))


@dataclass(frozen=True)
class ArrayLawResult:
    """Forward and backward crossing-array laws with their distance and budget."""

    forward: np.ndarray
    backward: np.ndarray
    tv_distance: float
    error_budget: float


def array_law_exact(
    m: int,
    n: int,
    x0: tuple[float, ...],
    y0: tuple[float, ...],
    barriers: tuple[float, float],
    t: float,
    tol: float = 1e-6,
) -> ArrayLawResult:
    """Exact laws of the forward and backward crossing arrays at time ``t``.

    Forward: evolve the absorbed walk from ``x0`` and read the array against
    the fixed initial levels ``y0``.  Backward: evolve the reflected walk from
    ``y0`` and read the array of the fixed points ``x0`` against it.  Both
    laws are computed over a window sized so the certified truncation plus
    series error stays within the budget.
    """
    if any(v in barriers for v in y0):
        raise ValueError("levels must avoid the barriers")
    lo, hi = _array_window(x0, y0, barriers, window_radius(t, max(m, n), tol))
    npat = 1 << (m * (n - 1))

    absorbed = build_generator(BoundarySpec("absorbing", barriers), m, (lo, hi))
    law_f = transient_law(absorbed, absorbed.index(x0), t, tol)
    forward = np.bincount(_bit_codes(_pattern_codes(absorbed.states, y0), n), law_f.probs, minlength=npat)

    reflected = build_generator(BoundarySpec("reflecting", barriers), n, (lo, hi))
    law_b = transient_law(reflected, reflected.index(y0), t, tol)
    backward = np.bincount(_bit_codes(_pattern_codes(x0, reflected.states), n), law_b.probs, minlength=npat)

    tv = 0.5 * float(np.abs(forward - backward).sum())
    budget = law_f.lost_mass + law_b.lost_mass + law_f.series_remainder + law_b.series_remainder
    return ArrayLawResult(forward=forward, backward=backward, tv_distance=tv, error_budget=float(budget))

