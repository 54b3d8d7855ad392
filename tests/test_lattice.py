import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scbm.lattice import (
    FREE,
    BoundarySpec,
    _blocks_of,
    generator_apply,
    indicator_array,
    simulate_walk,
    state_moves,
)

ABS0 = BoundarySpec("absorbing", (0.0,))
ABS04 = BoundarySpec("absorbing", (0.0, 4.0))
REFL0 = BoundarySpec("reflecting", (0.0,))
REFL04 = BoundarySpec("reflecting", (0.0, 4.0))


class TestCoalesceState:
    # a state is its positions; its blocks are the maximal runs of equal positions
    def test_tie_forms_block(self):
        assert _blocks_of((0.0, 0.0, 1.0)) == ((0, 1), (2, 2))

    def test_strictly_increasing_gives_singletons(self):
        assert _blocks_of((1.0, 2.0, 5.0)) == ((0, 0), (1, 1), (2, 2))

    def test_all_equal_single_block(self):
        assert _blocks_of((5.0, 5.0, 5.0)) == ((0, 2),)

    def test_decreasing_rejected(self):
        with pytest.raises(ValueError):
            generator_apply(FREE, lambda x: 0.0, (1.0, 0.0))
        with pytest.raises(ValueError):
            simulate_walk(FREE, (1.0, 0.0), 1.0, np.random.default_rng(0))

    def test_tied_particles_stay_together(self):
        # a tie is one block: it jumps as one, so (x0 - x1)^2 neither grows in law nor in any draw
        f = lambda x: (x[0] - x[1]) ** 2
        assert generator_apply(FREE, f, (0.0, 0.0)) == 0.0
        out = simulate_walk(FREE, (0.0, 0.0), 5.0, np.random.default_rng(0))
        assert out[0] == out[1]


class TestPartitionValidation:
    def test_half_lattice_enforced(self):
        with pytest.raises(ValueError):
            generator_apply(REFL0, lambda x: 0.0, (0.5, 1.0))

    def test_absorbed_walk_on_integers(self):
        with pytest.raises(ValueError):
            simulate_walk(ABS0, (0.5,), 1.0, np.random.default_rng(0))


class TestGenerator:
    def test_free_linear_is_zero(self):
        val = generator_apply(FREE, lambda x: x[0], (3.0,))
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_free_square_is_one(self):
        val = generator_apply(FREE, lambda x: x[0] ** 2, (3.0,))
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_reflecting_adjacent_below(self):
        # single particle at a - 1/2: only the down-move survives
        f = lambda x: math.sin(x[0])
        val = generator_apply(REFL0, f, (-0.5,))
        assert val == pytest.approx(0.5 * (math.sin(-1.5) - math.sin(-0.5)), abs=1e-12)

    def test_reflecting_doubly_occupied(self):
        # particles hugging the barrier from both sides each keep one move
        f = lambda x: x[0] * x[1]
        expected = 0.5 * ((-1.5) * 0.5 + (-0.5) * 1.5) - 1.0 * (-0.25)
        assert generator_apply(REFL0, f, (-0.5, 0.5)) == pytest.approx(expected, abs=1e-12)

    def test_absorbed_particle_contributes_nothing(self):
        assert generator_apply(ABS0, lambda x: x[0] ** 2, (0.0,)) == 0.0

    def test_absorbed_mixed_state(self):
        # one frozen at the barrier, one free at 2
        f = lambda x: x[0] + 10.0 * x[1]
        expected = 0.5 * (10.0 * 3.0 + 10.0 * 1.0) - 1.0 * (10.0 * 2.0)
        assert generator_apply(ABS0, f, (0.0, 2.0)) == pytest.approx(expected, abs=1e-12)

    def test_merged_block_moves_together(self):
        moves, outflow = state_moves(FREE, (1.0, 1.0), ((0, 1),))
        assert outflow == 1.0
        assert sorted(m[0] for m in moves) == [(0.0, 0.0), (2.0, 2.0)]

    def test_reflected_state_on_wrong_lattice_rejected(self):
        with pytest.raises(ValueError):
            generator_apply(REFL0, lambda x: 0.0, (1.0,))

    def test_narrow_reflecting_window_rejected(self):
        with pytest.raises(ValueError):
            BoundarySpec("reflecting", (0.0, 1.0))


class TestSimulate:
    def test_time_zero_identity(self):
        out = simulate_walk(FREE, (0.0, 5.0), 0.0, np.random.default_rng(0))
        assert out == (0.0, 5.0)

    def test_displacement_variance(self):
        # rate-1 symmetric walk: Var(X_t) = t
        rng = np.random.default_rng(101)
        t, n = 1.0, 100_000
        disp = np.array([simulate_walk(FREE, (0.0,), t, rng)[0] for _ in range(n)])
        var = disp.var(ddof=1)
        # variance of the sample variance for a Poisson-number of +-1 jumps
        se = math.sqrt((disp**2).var(ddof=1) / n)
        assert abs(var - t) <= 3 * se

    def test_coalescence_permanent_and_order_preserved(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            state = (0.0, 1.0, 3.0)
            lengths = [len(set(state))]
            for _ in range(10):
                state = simulate_walk(FREE, state, 0.3, rng)
                assert all(a <= b for a, b in zip(state, state[1:]))
                lengths.append(len(set(state)))
            assert all(a >= b for a, b in zip(lengths, lengths[1:]))

    def test_merged_stay_equal(self):
        rng = np.random.default_rng(13)
        hits = 0
        for _ in range(200):
            state = (0.0, 1.0)
            merged_at = None
            for step in range(12):
                state = simulate_walk(FREE, state, 0.5, rng)
                if merged_at is None and state[0] == state[1]:
                    merged_at = step
                if merged_at is not None:
                    hits += 1
                    assert state[0] == state[1]
        assert hits > 0

    def test_absorbing_invariant(self):
        rng = np.random.default_rng(17)
        for _ in range(400):
            state = (1.0,)
            frozen_value = None
            for _ in range(12):
                state = simulate_walk(ABS04, state, 0.4, rng)
                p = state[0]
                if frozen_value is not None:
                    assert p == frozen_value
                elif p in (0.0, 4.0):
                    frozen_value = p

    def test_reflecting_side_invariant(self):
        rng = np.random.default_rng(19)
        for _ in range(5_000):
            assert simulate_walk(REFL0, (-0.5,), 1.0, rng)[0] <= -0.5
            assert simulate_walk(REFL0, (0.5,), 1.0, rng)[0] >= 0.5

    def test_reflecting_between_barriers_stays(self):
        rng = np.random.default_rng(23)
        for _ in range(2_000):
            s = simulate_walk(REFL04, (1.5, 2.5), 1.0, rng)
            assert all(0.5 <= p <= 3.5 for p in s)


def _first_event_generator_estimate(boundary, state, f, h, n, rng):
    """Empirical (E f(X_h) - f(x))/h via the first-event decomposition.

    Replicas with no event in [0, h] contribute exactly zero, so only the
    Binomial(n, 1 - exp(-R h)) replicas with an early event are simulated.
    """
    moves, outflow = state_moves(boundary, state, _blocks_of(state))
    if outflow == 0.0:
        return 0.0, 0.0
    p_event = 1.0 - math.exp(-outflow * h)
    n_events = rng.binomial(n, p_event)
    f0 = f(state)
    vals = np.zeros(n)
    for i in range(n_events):
        u = rng.random()
        tau = -math.log(1.0 - u * p_event) / outflow
        new, _ = moves[rng.integers(len(moves))]
        final = simulate_walk(boundary, new, h - tau, rng)
        vals[i] = (f(final) - f0) / h
    mean = vals.mean()
    se = vals.std(ddof=1) / math.sqrt(n)
    return mean, se


class TestGeneratorConsistency:
    # empirical finite-difference of the semigroup against the generator,
    # h = 1e-3, 1e6 replicas, 4 standard errors
    @pytest.mark.parametrize(
        "boundary,positions",
        [
            (FREE, (0.0, 3.0)),
            (ABS04, (0.0, 2.0)),
            (REFL04, (-0.5, 0.5)),
        ],
    )
    def test_semigroup_derivative(self, boundary, positions):
        rng = np.random.default_rng(29)
        f = lambda x: math.sin(x[0]) + math.cos(2.0 * x[1])
        exact = generator_apply(boundary, f, positions)
        est, se = _first_event_generator_estimate(boundary, positions, f, 1e-3, 1_000_000, rng)
        assert abs(est - exact) <= 4 * se


class TestIndicatorArray:
    def test_hand_case(self):
        arr = indicator_array((0.0,), (-0.5, 0.5))
        assert arr.tolist() == [[1]]

    def test_below_all(self):
        arr = indicator_array((-5.0,), (-0.5, 0.5, 1.5))
        assert arr.tolist() == [[0, 0]]

    def test_right_closed(self):
        # x exactly at the upper endpoint is counted
        arr = indicator_array((1.5,), (0.5, 1.5))
        assert arr.tolist() == [[1]]
        arr = indicator_array((0.5,), (0.5, 1.5))
        assert arr.tolist() == [[0]]

    def test_tied_levels_leave_their_column_empty(self):
        # coalesced levels: y_0 < x <= y_1 cannot hold when y_0 == y_1
        assert indicator_array((1.0, 0.5), (0.5, 0.5, 1.5)).tolist() == [[0, 1], [0, 0]]

    def test_unordered_rejected(self):
        with pytest.raises(ValueError):
            indicator_array((0.0,), (1.5, 0.5))

    @settings(max_examples=100, deadline=None)
    @given(
        xs=st.lists(st.integers(-5, 5), min_size=1, max_size=4),
        ys=st.lists(st.integers(-5, 5), min_size=2, max_size=5, unique=True),
    )
    def test_rows_have_at_most_one_hit(self, xs, ys):
        arr = indicator_array([float(v) for v in xs], sorted(float(v) + 0.5 for v in ys))
        assert arr.shape == (len(xs), len(ys) - 1)
        assert np.all(arr.sum(axis=1) <= 1)
