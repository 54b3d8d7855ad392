import math
from collections import Counter
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scbm.lattice import HALF_INTEGERS, BoundarySpec, coalesce_state, indicator_array, simulate_walk, state_moves
from scbm.oracle import (
    _bit_codes,
    _pattern_codes,
    array_law_exact,
    build_generator,
    check_generator_duality,
    transient_law,
    window_radius,
)

FREE = BoundarySpec("free")
ABS04 = BoundarySpec("absorbing", (0.0, 4.0))


def _reference_residual(m, n, barriers, lo, hi, negative_control=False):
    """The generator identity by a loop over state pairs, reading the array from its definition."""

    def array(x, y):
        return tuple(tuple(y[j] < xi <= y[j + 1] for j in range(n - 1)) for xi in x)

    x_kind = BoundarySpec("absorbing", barriers)
    y_kind = BoundarySpec("absorbing" if negative_control else "reflecting", barriers)
    x_states = list(combinations_with_replacement([float(v) for v in range(lo, hi + 1)], m))
    y_states = list(combinations_with_replacement([v + 0.5 for v in range(lo, hi)], n))
    worst = 0.0
    for x in x_states:
        x_moves, x_out = state_moves(x_kind, x, coalesce_state(x).partition.blocks)
        for y in y_states:
            y_moves, y_out = state_moves(y_kind, y, coalesce_state(y, HALF_INTEGERS).partition.blocks)
            acc = Counter({array(x, y): y_out - x_out})
            for new, rate in x_moves:
                acc[array(new, y)] += rate
            for new, rate in y_moves:
                acc[array(x, new)] -= rate
            worst = max(worst, max(abs(v) for v in acc.values()))
    return worst


class TestBuildGenerator:
    def test_rows_are_generator_rows(self):
        Q = build_generator(FREE, 2, (-3.0, 3.0))
        off = Q.rates - np.diag(np.diag(Q.rates))
        assert np.all(off >= 0)
        sums = Q.rates.sum(axis=1)
        assert np.all(sums <= 1e-12)
        assert np.allclose(sums, -Q.leak, atol=1e-12)

    def test_interior_single_particle_row(self):
        Q = build_generator(FREE, 1, (-3.0, 3.0))
        i = Q.index((0.0,))
        row = Q.rates[i].copy()
        assert row[Q.index((1.0,))] == 0.5
        assert row[Q.index((-1.0,))] == 0.5
        assert row[i] == -1.0
        row[[Q.index((1.0,)), Q.index((-1.0,)), i]] = 0.0
        assert np.all(row == 0.0)

    def test_absorbed_state_zero_row(self):
        Q = build_generator(ABS04, 1, (-2.0, 6.0))
        i = Q.index((0.0,))
        assert np.all(Q.rates[i] == 0.0)
        assert Q.leak[i] == 0.0

    def test_window_must_cover_barriers(self):
        with pytest.raises(ValueError):
            build_generator(ABS04, 1, (0.0, 4.0))

    def test_leak_at_window_edge(self):
        Q = build_generator(FREE, 1, (-2.0, 2.0))
        assert Q.leak[Q.index((2.0,))] == 0.5


class TestTransientLaw:
    def test_time_zero_point_mass(self):
        Q = build_generator(FREE, 1, (-3.0, 3.0))
        i = Q.index((0.0,))
        law = transient_law(Q, i, 0.0)
        assert law.probs[i] == 1.0
        assert law.probs.sum() == 1.0

    def test_mass_accounting(self):
        Q = build_generator(FREE, 2, (-6.0, 6.0))
        law = transient_law(Q, Q.index((-1.0, 1.0)), 0.5, tol=1e-10)
        assert law.probs.sum() <= 1.0 + 1e-12
        assert law.probs.sum() >= 1.0 - law.lost_mass - 1e-12
        assert law.lost_mass < 1e-6

    def test_against_simulation(self):
        # m=2 free walk at t=0.5: empirical state frequencies vs uniformization
        rng = np.random.default_rng(211)
        window = (-8.0, 8.0)
        Q = build_generator(FREE, 2, window)
        start = (0.0, 1.0)
        law = transient_law(Q, Q.index(start), 0.5, tol=1e-10)
        n = 100_000
        counts = np.zeros(len(Q.states))
        init = coalesce_state(start)
        for _ in range(n):
            out = simulate_walk(FREE, init, 0.5, rng)
            counts[Q.index(out.positions)] += 1
        freq = counts / n
        for idx in np.flatnonzero(law.probs > 1e-4):
            p = law.probs[idx]
            se = math.sqrt(p * (1 - p) / n)
            assert abs(freq[idx] - p) <= 3 * se + 1e-9

    def test_bad_tol(self):
        Q = build_generator(FREE, 1, (-2.0, 2.0))
        with pytest.raises(ValueError):
            transient_law(Q, 0, 1.0, tol=0.0)


class TestGeneratorDuality:
    @pytest.mark.parametrize("m,n", [(1, 2), (2, 2), (2, 3), (3, 2), (3, 3)])
    def test_identity_holds(self, m, n):
        residual = check_generator_duality(m, n, barriers=(0.0, 4.0), window=(-6.0, 10.0))
        assert residual <= 1e-9

    def test_negative_control_breaks(self):
        residual = check_generator_duality(
            1, 2, barriers=(0.0, 4.0), window=(-6.0, 10.0), negative_control=True
        )
        assert residual > 0.1
        assert residual == 1.0  # exact: every rate is a multiple of 1/2

    @pytest.mark.parametrize(
        "m,n,control", [(1, 2, False), (2, 3, False), (3, 2, False), (1, 2, True), (2, 2, True), (1, 3, True)]
    )
    def test_matches_reference_loop(self, m, n, control):
        # every rate is a multiple of 1/2, so both sums are exact and must agree exactly
        got = check_generator_duality(m, n, barriers=(0.0, 4.0), window=(-2.0, 6.0), negative_control=control)
        assert got == _reference_residual(m, n, (0.0, 4.0), -2, 6, negative_control=control)

    @pytest.mark.parametrize("control", [False, True])
    def test_chunking_does_not_change_the_residual(self, monkeypatch, control):
        whole = check_generator_duality(2, 2, barriers=(0.0, 4.0), window=(-2.0, 6.0), negative_control=control)
        monkeypatch.setattr("scbm.oracle._CHUNK_CELLS", 1)  # one x state per chunk
        assert check_generator_duality(2, 2, barriers=(0.0, 4.0), window=(-2.0, 6.0), negative_control=control) == whole


class TestEncoder:
    @settings(max_examples=200, deadline=None)
    @given(
        levels=st.lists(st.integers(-4, 4), min_size=1, max_size=5),
        points=st.lists(st.integers(-7, 7), min_size=1, max_size=4),
    )
    def test_bit_code_packs_indicator_array(self, levels, points):
        # half-integer levels, ties allowed (coalesced y states); integer points
        # between and outside the levels, and a last point equal to a level
        y = sorted(v + 0.5 for v in levels)
        x = [float(v) for v in points[:-1]] + [y[points[-1] % len(y)]]
        n = len(y)
        code = int(_bit_codes(_pattern_codes(x, y), n))
        if n == 1:
            assert code == 0
            return
        arr = indicator_array(x, y)
        assert arr.tolist() == [[int(y[j] < xi <= y[j + 1]) for j in range(n - 1)] for xi in x]
        packed = sum(int(arr[i, j]) << (i * (n - 1) + j) for i in range(len(x)) for j in range(n - 1))
        assert code == packed

    def test_broadcasts_over_states(self):
        states = np.array([(-1.0, 1.0), (1.0, 3.0), (3.0, 3.0)])
        levels = (0.5, 2.5)
        codes = _bit_codes(_pattern_codes(states, levels), 2)
        assert codes.tolist() == [int(_bit_codes(_pattern_codes(s, levels), 2)) for s in states]
        assert codes.tolist() == [2, 1, 0]


class TestArrayLaw:
    def test_time_zero_equal_and_deterministic(self):
        res = array_law_exact(1, 2, (1.0,), (-0.5, 2.5), (0.0, 3.0), 0.0)
        assert res.tv_distance <= 1e-12
        assert np.sum(res.forward > 0) == 1
        assert np.sum(res.backward > 0) == 1

    def test_example_config(self):
        res = array_law_exact(1, 2, (1.0,), (-0.5, 2.5), (0.0, 3.0), 0.5, tol=1e-6)
        assert res.tv_distance <= 2 * (1e-6 + res.error_budget)
        assert res.error_budget < 1e-4

    def test_laws_sum_to_one(self):
        res = array_law_exact(2, 2, (1.0, 3.0), (0.5, 2.5), (0.0, 4.0), 0.5)
        assert res.forward.sum() == pytest.approx(1.0, abs=1e-5)
        assert res.backward.sum() == pytest.approx(1.0, abs=1e-5)

    def test_levels_on_barrier_rejected(self):
        with pytest.raises(ValueError):
            array_law_exact(1, 2, (1.0,), (0.0, 2.5), (0.0, 3.0), 0.5)


class TestWindowRadius:
    def test_monotone_in_tol(self):
        assert window_radius(1.0, 2, 1e-3) <= window_radius(1.0, 2, 1e-6)

    @pytest.mark.parametrize("tol", [0.0, -1e-6])
    def test_nonpositive_tol_rejected(self, tol):
        with pytest.raises(ValueError):
            window_radius(1.0, 2, tol)

    def test_bound_honored(self):
        from scipy import stats

        w = window_radius(1.0, 2, 1e-6)
        assert 2 * stats.poisson.sf(w - 1, 1.0) < 1e-7
