"""Simple coalescing random walks on the integers and half-integers.

States are canonical: positions are a nondecreasing m-tuple and the interval
partition groups exactly the maximal runs of equal positions (particles that
have met stay together, the lowest index of a run acting as the free
representative).  Three boundary regimes are supported:

* ``free``       - every representative jumps +1/-1 at rate 1/2 each;
* ``absorbing``  - a representative sitting on a barrier never moves again;
* ``reflecting`` - walks live on the half-integers, barriers on the integers;
  a move that would carry a representative across a barrier is suppressed,
  so a representative adjacent to a barrier moves away at rate 1/2 and its
  total jump rate drops from 1 to 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "IntervalPartition",
    "LatticeState",
    "BoundarySpec",
    "coalesce_state",
    "partition_project",
    "partition_lift",
    "state_moves",
    "generator_apply",
    "simulate_walk",
    "indicator_array",
]

INTEGERS = "integers"
HALF_INTEGERS = "half_integers"


def _is_half_integer(v: float) -> bool:
    return (v - math.floor(v)) == 0.5


@dataclass(frozen=True)
class IntervalPartition:
    """Partition of indices {0, ..., m-1} into consecutive blocks.

    ``blocks`` holds inclusive (start, stop) index ranges in order.  The
    number of blocks is the partition length; block minima are the free
    representatives.
    """

    blocks: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        expected = 0
        for start, stop in self.blocks:
            if start != expected or stop < start:
                raise ValueError(f"blocks must be consecutive and exhaustive, got {self.blocks}")
            expected = stop + 1

    @property
    def length(self) -> int:
        return len(self.blocks)

    @property
    def size(self) -> int:
        return self.blocks[-1][1] + 1 if self.blocks else 0

    def representatives(self) -> tuple[int, ...]:
        return tuple(start for start, _ in self.blocks)


@dataclass(frozen=True)
class LatticeState:
    """Canonical walk state: lattice tag, ordered positions, run partition."""

    lattice: str
    positions: tuple[float, ...]
    partition: IntervalPartition

    def __post_init__(self) -> None:
        if self.lattice not in (INTEGERS, HALF_INTEGERS):
            raise ValueError(f"unknown lattice {self.lattice!r}")
        if any(a > b for a, b in zip(self.positions, self.positions[1:])):
            raise ValueError(f"positions must be nondecreasing, got {self.positions}")
        if self.partition.size != len(self.positions):
            raise ValueError("partition does not cover the positions")
        for start, stop in self.partition.blocks:
            if self.positions[start] != self.positions[stop]:
                raise ValueError("partition block spans unequal positions")
        ok = (lambda v: float(v).is_integer()) if self.lattice == INTEGERS else _is_half_integer
        if not all(ok(v) for v in self.positions):
            raise ValueError(f"positions {self.positions} not on lattice {self.lattice}")

    @property
    def m(self) -> int:
        return len(self.positions)


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


def coalesce_state(positions: Sequence[float], lattice: str = INTEGERS) -> LatticeState:
    """Canonicalize ordered positions into a state; ties form shared blocks."""
    pos = tuple(float(v) for v in positions)
    if any(a > b for a, b in zip(pos, pos[1:])):
        raise ValueError(f"positions must be nondecreasing, got {positions}")
    return LatticeState(lattice=lattice, positions=pos, partition=IntervalPartition(_blocks_of(pos)))


def partition_project(state: LatticeState) -> tuple[float, ...]:
    """Positions of the free representatives (one value per block)."""
    return tuple(state.positions[r] for r in state.partition.representatives())


def partition_lift(partition: IntervalPartition, projected: Sequence[float], lattice: str = INTEGERS) -> LatticeState:
    """Inverse of :func:`partition_project`: rebuild the full state."""
    if len(projected) != partition.length:
        raise ValueError("projected length must equal partition length")
    full = [0.0] * partition.size
    for (start, stop), value in zip(partition.blocks, projected):
        for i in range(start, stop + 1):
            full[i] = float(value)
    return LatticeState(lattice=lattice, positions=tuple(full), partition=partition)


def _validate_against_boundary(boundary: BoundarySpec, state: LatticeState) -> None:
    if boundary.kind == "reflecting":
        if state.lattice != HALF_INTEGERS:
            raise ValueError("reflected walks live on the half-integers")
        if any(p in boundary.points for p in state.positions):
            raise ValueError("reflected particle sits on a barrier")
    elif boundary.kind == "absorbing":
        if state.lattice != INTEGERS:
            raise ValueError("absorbed walks live on the integers")


def state_moves(boundary: BoundarySpec, positions: tuple[float, ...], blocks: tuple[tuple[int, int], ...]):
    """Enumerate jump moves from a canonical state.

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


def generator_apply(boundary: BoundarySpec, f: Callable[[tuple[float, ...]], float], state: LatticeState) -> float:
    """Apply the walk generator for the given boundary to ``f`` at ``state``."""
    _validate_against_boundary(boundary, state)
    moves, outflow = state_moves(boundary, state.positions, state.partition.blocks)
    fx = f(state.positions)
    return sum(rate * f(new) for new, rate in moves) - outflow * fx


def simulate_walk(boundary: BoundarySpec, init: LatticeState, t: float, rng: np.random.Generator) -> LatticeState:
    """Exact event-driven draw of the walk at time ``t`` started from ``init``.

    One exponential clock drives the whole system (total rate = sum of active
    representative rates); after every jump equal positions are merged, which
    is permanent.
    """
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    _validate_against_boundary(boundary, init)
    positions = init.positions
    blocks = init.partition.blocks
    remaining = t
    while True:
        moves, outflow = state_moves(boundary, positions, blocks)
        if outflow <= 0.0:
            break
        wait = rng.exponential(1.0 / outflow)
        if wait > remaining:
            break
        remaining -= wait
        # all moves carry equal rate 1/2: pick uniformly
        new, _ = moves[rng.integers(len(moves))]
        positions = new
        blocks = _blocks_of(new)
    return LatticeState(lattice=init.lattice, positions=positions, partition=IntervalPartition(blocks))


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
