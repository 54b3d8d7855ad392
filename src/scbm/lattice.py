"""Simple coalescing random walks on the integers and half-integers.

A walk state is a nondecreasing tuple of positions.  Particles that have met
share a position and stay together: the maximal runs of equal positions,
``_blocks_of(positions)``, are the blocks, and the lowest index of a block
acts as its free representative.  Three boundary regimes are supported:

* ``free``       - every representative jumps +1/-1 at rate 1/2 each;
* ``absorbing``  - walks live on the integers; a representative sitting on a
  barrier never moves again;
* ``reflecting`` - walks live on the half-integers, barriers on the integers;
  a move that would carry a representative across a barrier is suppressed,
  so a representative adjacent to a barrier moves away at rate 1/2 and its
  total jump rate drops from 1 to 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "BoundarySpec",
    "state_moves",
    "generator_apply",
    "simulate_walk",
    "indicator_array",
]


@dataclass(frozen=True)
class BoundarySpec:
    """Boundary regime and its barrier points (at most two, on the integers)."""

    kind: str
    points: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("free", "absorbing", "reflecting"):
            raise ValueError(f"unknown boundary kind {self.kind!r}")
        if self.kind == "free":
            if self.points:
                raise ValueError("free boundary takes no barrier points")
            return
        if not 1 <= len(self.points) <= 2:
            raise ValueError("barriers must be one or two points")
        if any(not float(p).is_integer() for p in self.points):
            raise ValueError("barriers live on the integers")
        if any(a >= b for a, b in zip(self.points, self.points[1:])):
            raise ValueError("barriers must be strictly increasing")
        if self.kind == "reflecting" and len(self.points) == 2 and self.points[1] - self.points[0] < 2:
            # with barriers closer than 2 the between-region rates are not
            # defined by the case list; such configurations are rejected
            raise ValueError("reflecting barriers must satisfy b - a >= 2")


FREE = BoundarySpec("free")


def _blocks_of(positions: Sequence[float]) -> tuple[tuple[int, int], ...]:
    """Maximal runs of equal positions, as inclusive (start, stop) index ranges."""
    blocks = []
    start = 0
    for i in range(1, len(positions)):
        if positions[i] != positions[start]:
            blocks.append((start, i - 1))
            start = i
    if positions:
        blocks.append((start, len(positions) - 1))
    return tuple(blocks)


def _validate_against_boundary(boundary: BoundarySpec, positions: tuple[float, ...]) -> None:
    if any(a > b for a, b in zip(positions, positions[1:])):
        raise ValueError(f"positions must be nondecreasing, got {positions}")
    if boundary.kind == "reflecting":
        # half-integers are off the barriers, which sit on the integers
        if any(v % 1 != 0.5 for v in positions):
            raise ValueError(f"reflected walks live on the half-integers, got {positions}")
    elif boundary.kind == "absorbing":
        if any(v % 1 != 0 for v in positions):
            raise ValueError(f"absorbed walks live on the integers, got {positions}")


def state_moves(boundary: BoundarySpec, positions: tuple[float, ...], blocks: tuple[tuple[int, int], ...]):
    """Enumerate jump moves from the state ``positions`` with blocks ``blocks``.

    Returns ``(moves, outflow)`` where each move is ``(new_positions, rate)``
    with rate 1/2 and ``outflow`` is the total jump rate out of the state.
    Suppressions: absorbed representatives have no moves; reflected
    representatives lose the move that would cross a barrier.
    """
    barriers = set(boundary.points)
    moves = []
    for start, stop in blocks:
        p = positions[start]
        if boundary.kind == "absorbing" and p in barriers:
            continue
        for delta in (1.0, -1.0):
            if boundary.kind == "reflecting" and (p + delta / 2.0) in barriers:
                continue
            new = positions[:start] + tuple(p + delta for _ in range(start, stop + 1)) + positions[stop + 1:]
            moves.append((new, 0.5))
    return moves, 0.5 * len(moves)


def generator_apply(boundary: BoundarySpec, f: Callable[[tuple[float, ...]], float], positions: tuple[float, ...]) -> float:
    """Apply the walk generator for the given boundary to ``f`` at the state ``positions``."""
    _validate_against_boundary(boundary, positions)
    moves, outflow = state_moves(boundary, positions, _blocks_of(positions))
    return sum(rate * f(new) for new, rate in moves) - outflow * f(positions)


def simulate_walk(boundary: BoundarySpec, positions: tuple[float, ...], t: float, rng: np.random.Generator) -> tuple[float, ...]:
    """Exact event-driven draw of the walk at time ``t`` started from the state ``positions``.

    One exponential clock drives the whole system (total rate = sum of active
    representative rates); after every jump equal positions form one block,
    which is permanent.
    """
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    _validate_against_boundary(boundary, positions)
    remaining = t
    while True:
        moves, outflow = state_moves(boundary, positions, _blocks_of(positions))
        if outflow <= 0.0:
            return positions
        wait = rng.exponential(1.0 / outflow)
        if wait > remaining:
            return positions
        remaining -= wait
        # all moves carry equal rate 1/2: pick uniformly
        positions, _ = moves[rng.integers(len(moves))]


def _pattern_codes(xs, ys) -> np.ndarray:
    """Slot of each point among nondecreasing levels: the one crossing-array encoder.

    Row i of the crossing array has entry j = 1 iff y_j < x_i <= y_{j+1}, so it
    is one-hot in column slot_i = #{j : y_j < x_i} - 1 when that lies in
    0..n-2 and empty otherwise; exact for tied levels too.  Broadcasts over
    leading axes: ``xs`` (..., m), ``ys`` (..., n) -> (..., m).
    """
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    return np.count_nonzero(y[..., None, :] < x[..., :, None], axis=-1) - 1


def indicator_array(xs: Sequence[float], ys: Sequence[float]) -> np.ndarray:
    """Binary m x (n-1) array with entry (i, j) = 1 iff y_j < x_i <= y_{j+1}: the one-hot view of the slots."""
    y = np.asarray(ys, dtype=float)
    if y.ndim != 1 or len(y) < 2:
        raise ValueError("ys must hold at least two ordered values")
    if np.any(np.diff(y) < 0):
        raise ValueError("ys must be nondecreasing")
    slots = _pattern_codes(xs, y)
    return (slots[:, None] == np.arange(len(y) - 1)).astype(int)
