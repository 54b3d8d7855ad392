import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from scbm.branching import BranchingParams, cumulant, cumulant_limit
from scbm.engine import MeasureSpec
from scbm.harness import (
    AbsorbingExtinctionConfig,
    LaplaceDualityConfig,
    MCEstimate,
    OccupationDualityConfig,
    ReflectedLaplaceConfig,
    VacancyBoundConfig,
    _absorbing_lhs,
    _laplace_rhs_batch,
    _level_paths,
    _mc_batched,
    _report,
    _uniform_grid,
    _vacancy_rhs_batch,
    absorbing_extinction_check,
    hybrid_grid,
    interval_vacancy_bound_check,
    laplace_duality_check,
    occupation_duality_check,
    reflected_gap_vacancy_exact,
    reflected_laplace_smoke,
    truncation_escape_bound,
)

P21 = BranchingParams(gamma=2.0, beta=1.0)

LAPLACE_BASE = LaplaceDualityConfig(
    params=P21,
    t=1.0,
    mu=MeasureSpec(intervals=((-2.0, 2.0),)),
    pairs=((-1.0, 1.0),),
    coefficients=(1.0,),
    n=4000,
)


def _const(value, rng, count):
    return np.full(count, value)


def _gauss(rng, count):
    return rng.normal(size=count)


class TestMCEstimate:
    """The batched replica driver ``_mc_batched``."""

    def test_constant_functional(self):
        est = _mc_batched(partial(_const, 3.5), 100, seed=1, stream=0)
        assert est.mean == 3.5
        assert est.stderr == 0.0

    def test_stderr_scaling(self):
        a = _mc_batched(_gauss, 2000, seed=2, stream=0)
        b = _mc_batched(_gauss, 8000, seed=3, stream=0)
        assert b.stderr == pytest.approx(a.stderr / 2.0, rel=0.2)

    def test_deterministic(self):
        a = _mc_batched(_gauss, 500, seed=42, stream=0)
        b = _mc_batched(_gauss, 500, seed=42, stream=0)
        assert a == b

    def test_thread_count_invariant(self):
        a = _mc_batched(_gauss, 400, seed=42, stream=0, threads=1)
        b = _mc_batched(_gauss, 400, seed=42, stream=0, threads=2)
        assert a.mean == b.mean and a.stderr == b.stderr

    def test_needs_two_replicas(self):
        with pytest.raises(ValueError):
            _mc_batched(_gauss, 1, seed=0, stream=0)


class TestReports:
    def test_swap_flips_z_sign(self):
        lhs = MCEstimate(mean=0.5, stderr=0.01, n=100, seed=0)
        rhs = MCEstimate(mean=0.52, stderr=0.01, n=100, seed=0)
        fwd = _report("x", lhs, rhs)
        rev = _report("x", rhs, lhs)
        assert fwd.z_score == pytest.approx(-rev.z_score)
        assert fwd.verdict == rev.verdict

    def test_zero_spread_z_keeps_the_sign(self):
        below = _report("x", MCEstimate(mean=0.0, stderr=0.0, n=2, seed=0), 0.5)
        above = _report("x", MCEstimate(mean=1.0, stderr=0.0, n=2, seed=0), 0.5)
        assert below.z_score == -math.inf and above.z_score == math.inf
        assert below.verdict == above.verdict == "inconsistent"
        assert _report("x", MCEstimate(mean=0.5, stderr=0.0, n=2, seed=0), 0.5).z_score == 0.0

    def test_one_sided_verdict_at_three_spreads_below(self):
        # a one-sided bound fails only when lhs sits more than 3 pooled SE below rhs
        rhs = MCEstimate(mean=0.5, stderr=0.03, n=100, seed=0)
        for offset, verdict in ((-0.149, "one_sided_ok"), (-0.151, "inconsistent"), (0.4, "one_sided_ok")):
            lhs = MCEstimate(mean=0.5 + offset, stderr=0.04, n=100, seed=0)
            rep = _report("x", lhs, rhs, one_sided=True)
            assert rep.verdict == verdict
            assert rep.z_score == pytest.approx(offset / 0.05)
            assert rep.z_score == _report("x", lhs, rhs).z_score

    def test_exact_rhs_formula(self):
        # hand value: (2 Phi(1) - 1)^2
        assert reflected_gap_vacancy_exact(1.0, 1.0) == pytest.approx(0.4660649426, abs=1e-9)
        assert reflected_gap_vacancy_exact(0.0, 1.0) == 0.0
        assert reflected_gap_vacancy_exact(10.0, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_negative_gap_rejected(self):
        with pytest.raises(ValueError):
            reflected_gap_vacancy_exact(-1.0, 1.0)

    @pytest.mark.parametrize(
        "x, exact",  # 2 (1 - Phi(x)) to 20 digits
        [(6.0, 1.9731752900753962814e-9), (8.0, 1.2441921148543568247e-15), (10.0, 1.5239706048321052132e-23)],
    )
    def test_truncation_bound_keeps_the_far_tail(self, x, exact):
        # taken as 2 (1 - norm.cdf(x)) the bound loses 6e-9 of its value at x = 6, 7% at x = 8 and all of it from 8.5
        for margin, t in ((x, 1.0), (x / 2.0, 0.25)):
            got = truncation_escape_bound(margin, t)
            assert got > 0.0
            assert got == pytest.approx(math.erfc(x / math.sqrt(2.0)), rel=1e-14, abs=0.0)
            assert got == pytest.approx(exact, rel=1e-13, abs=0.0)


class TestHybridGrid:
    def test_monotone_and_covers(self):
        g = hybrid_grid(0.01, 2.0, 0.05)
        assert g[0] == 0.01 and g[-1] == 2.0
        assert np.all(np.diff(g) > 0)
        assert np.max(np.diff(g)) <= 0.05 + 1e-12

    @pytest.mark.parametrize("dt", [0.0, -0.1, math.inf, math.nan])
    def test_bad_step_rejected(self, dt):
        with pytest.raises(ValueError, match="time step"):
            hybrid_grid(0.01, 2.0, dt)


class TestUniformGrid:
    def test_covers(self):
        g = _uniform_grid(1.0, 0.01)
        assert g[0] == 0.0 and g[-1] == 1.0 and len(g) == 101

    @pytest.mark.parametrize("dt", [0.0, -0.1, math.inf, math.nan])
    def test_bad_step_rejected(self, dt):
        with pytest.raises(ValueError, match="time step"):
            _uniform_grid(1.0, dt)


class TestLaplaceDuality:
    def test_zero_coefficients_give_unity(self):
        cfg = replace(LAPLACE_BASE, coefficients=(0.0,), n=50)
        rep = laplace_duality_check(cfg, seed=5)
        assert rep.lhs.mean == 1.0
        assert rep.rhs_mean == 1.0
        assert rep.verdict == "consistent"

    def test_degenerate_pair_contributes_nothing(self):
        cfg = replace(LAPLACE_BASE, pairs=((0.5, 0.5),), n=50)
        rep = laplace_duality_check(cfg, seed=7)
        assert rep.lhs.mean == 1.0
        assert rep.rhs_mean == 1.0

    def test_main_config_consistent(self):
        rep = laplace_duality_check(LAPLACE_BASE, seed=101)
        assert rep.verdict == "consistent", f"z={rep.z_score}"

    def test_overlapping_pairs_keep_their_grouping(self):
        # the level paths of each pair are read back in pair order, not
        # regrouped from the sorted endpoints
        cfg = replace(LAPLACE_BASE, t=0.2, pairs=((-1.5, 0.5), (-0.5, 1.5)), coefficients=(1.0, 1.0), n=2000)
        rep = laplace_duality_check(cfg, seed=107)
        assert abs(rep.z_score) < 3.0, f"z={rep.z_score}"

    def test_negative_control_detected(self):
        cfg = replace(LAPLACE_BASE, n=20_000, rhs_gamma_scale=1.2)
        rep = laplace_duality_check(cfg, seed=103)
        assert abs(rep.z_score) > 3.0
        assert rep.verdict == "inconsistent"

    def test_deterministic(self):
        cfg = replace(LAPLACE_BASE, n=200)
        a = laplace_duality_check(cfg, seed=11)
        b = laplace_duality_check(cfg, seed=11)
        assert a == b

    def test_thread_invariant(self):
        cfg = replace(LAPLACE_BASE, n=200)
        a = laplace_duality_check(cfg, seed=11, threads=1)
        b = laplace_duality_check(cfg, seed=11, threads=2)
        assert a == b

    def test_two_intervals_and_an_atom_consistent(self):
        mu = MeasureSpec(intervals=((-2.0, -0.5), (0.5, 2.0)), atoms=((0.0, 0.5),))
        rep = laplace_duality_check(replace(LAPLACE_BASE, mu=mu), seed=109)
        assert rep.verdict == "consistent", f"z={rep.z_score}"


def _scalar_rhs(params, t, row, coefficients, mu):
    """exp(-<mu, u_t(h)>) for one row of evolved level points, in plain Python piece by piece."""
    pairs = [(row[2 * j], row[2 * j + 1]) for j in range(len(coefficients))]

    def h(x):
        return sum(c for (lo, hi), c in zip(pairs, coefficients) if lo < x <= hi)

    total = 0.0
    for a, b in mu.intervals:
        edges = [a] + sorted(x for x in set(row) if a < x < b) + [b]
        for e0, e1 in zip(edges, edges[1:]):
            total += cumulant(params, t, h(0.5 * (e0 + e1))) * (e1 - e0)
    for loc, m in mu.atoms:
        total += m * cumulant(params, t, h(loc))
    return math.exp(-total)


class TestBatchedRightSides:
    """The right sides of a whole batch at once against a per-replica evaluation of the same draws."""

    def test_laplace_rhs_matches_scalar(self):
        cfg = LaplaceDualityConfig(
            params=BranchingParams(gamma=2.0, beta=0.5),
            t=0.5,
            mu=MeasureSpec(intervals=((-3.0, -0.5), (0.2, 2.5)), atoms=((0.1, 0.7), (1.0, 0.3))),
            pairs=((-1.5, 0.5), (-0.5, 1.5), (0.0, 0.0)),
            coefficients=(1.0, 2.0, 3.0),
            n=10,
        )
        for seed in range(5):
            values = _laplace_rhs_batch(cfg, cfg.params, np.random.default_rng(seed), 64)
            finals = _level_paths(np.ravel(cfg.pairs), 64, cfg.t, cfg.dt, np.random.default_rng(seed))
            expected = [_scalar_rhs(cfg.params, cfg.t, list(row), cfg.coefficients, cfg.mu) for row in finals]
            assert np.max(np.abs(values - expected)) <= 1e-15

    def test_vacancy_rhs_matches_scalar(self):
        mu = MeasureSpec(intervals=((-3.0, -0.2), (0.1, 3.0)), atoms=((0.0, 0.5), (2.0, 0.2)))
        cfg = VacancyBoundConfig(params=P21, a=0.5, s1=0.3, s2=0.6, mu=mu, n=10)
        values = _vacancy_rhs_batch(cfg, np.random.default_rng(3), 256)
        rng = np.random.default_rng(3)
        x = np.abs(rng.normal(0.0, math.sqrt(0.3), 256))
        y = np.abs(rng.normal(0.0, math.sqrt(0.3), 256))
        finals = _level_paths(np.column_stack((-x - 0.5, 0.5 + y)), 256, 0.3, cfg.dt, rng)
        theta = cumulant_limit(P21, 0.3)
        expected = [math.exp(-theta * mu.mass_in(float(lo), float(hi))) for lo, hi in finals]
        assert np.max(np.abs(values - expected)) <= 1e-15


class TestAbsorbingExtinction:
    def test_zero_gap(self):
        # support touches the barriers: an edge atom is frozen immediately
        cfg = AbsorbingExtinctionConfig(barriers=(0.0, 3.0), c=0.0, t=1.0, n=50)
        rep = absorbing_extinction_check(cfg, seed=13)
        assert rep.rhs_mean == 0.0
        assert rep.lhs.mean == 0.0

    def test_wide_gap(self):
        cfg = AbsorbingExtinctionConfig(barriers=(0.0, 3.0), c=10.0, t=1.0, n=50, margin=2.0)
        rep = absorbing_extinction_check(cfg, seed=17)
        assert rep.lhs.mean == 1.0
        assert rep.rhs_mean == pytest.approx(1.0, abs=1e-10)

    def test_unit_gap_consistent(self):
        cfg = AbsorbingExtinctionConfig(barriers=(0.0, 3.0), c=1.0, t=1.0, n=2500)
        rep = absorbing_extinction_check(cfg, seed=19)
        assert rep.verdict == "consistent", f"z={rep.z_score}"

    def test_deterministic(self):
        cfg = AbsorbingExtinctionConfig(barriers=(0.0, 3.0), c=1.0, t=0.5, n=100)
        assert absorbing_extinction_check(cfg, seed=3) == absorbing_extinction_check(cfg, seed=3)

    def test_batch_size_changes_speed_not_law(self):
        # a batch of one replica, the default batch and one large batch all
        # estimate the same vacancy probability
        cfg = AbsorbingExtinctionConfig(barriers=(0.0, 3.0), c=1.0, t=1.0, n=0)
        exact = reflected_gap_vacancy_exact(1.0, 1.0)
        ests = [
            _mc_batched(partial(_absorbing_lhs, cfg), n, seed=61, stream=0, batch=batch)
            for batch, n in ((1, 500), (64, 4096), (4096, 4096))
        ]
        for est in ests:
            assert abs(est.mean - exact) <= 3 * est.stderr
        for a, b in zip(ests, ests[1:] + ests[:1]):
            assert abs(a.mean - b.mean) <= 3 * math.hypot(a.stderr, b.stderr)


class TestOccupationDuality:
    def test_no_branching_equality(self):
        cfg = OccupationDualityConfig(
            params=BranchingParams(gamma=0.0), window=(-1.0, 1.0), c=1.0, t=1.0, n=2500
        )
        rep = occupation_duality_check(cfg, seed=23)
        assert rep.verdict == "consistent", f"z={rep.z_score}"

    def test_branching_one_sided(self):
        cfg = OccupationDualityConfig(params=P21, window=(-1.0, 1.0), c=1.0, t=1.0, n=2500)
        rep = occupation_duality_check(cfg, seed=29)
        assert rep.verdict == "one_sided_ok"
        assert rep.lhs.mean >= rep.rhs_mean

    def test_short_horizon_both_full(self):
        cfg = OccupationDualityConfig(params=P21, window=(-1.0, 1.0), c=1.0, t=0.01, n=400)
        rep = occupation_duality_check(cfg, seed=31)
        assert rep.lhs.mean > 0.99
        assert rep.rhs_mean > 0.99


class TestVacancyBound:
    def test_empty_measure(self):
        cfg = VacancyBoundConfig(params=P21, a=1.0, s1=0.5, s2=1.0, mu=MeasureSpec(), n=50)
        rep = interval_vacancy_bound_check(cfg, seed=37)
        assert rep.lhs.mean == 1.0
        assert rep.rhs_mean <= 1.0
        assert rep.verdict == "one_sided_ok"

    def test_stated_config_one_sided(self):
        cfg = VacancyBoundConfig(
            params=P21, a=1.0, s1=1.0, s2=2.0, mu=MeasureSpec(intervals=((-4.0, 4.0),)), n=2500
        )
        rep = interval_vacancy_bound_check(cfg, seed=41)
        assert rep.verdict == "one_sided_ok"

    def test_rhs_in_unit_interval(self):
        cfg = VacancyBoundConfig(
            params=P21, a=1.0, s1=1.0, s2=2.0, mu=MeasureSpec(intervals=((-4.0, 4.0),)), n=500
        )
        rep = interval_vacancy_bound_check(cfg, seed=43)
        assert 0.0 <= rep.rhs_mean <= 1.0

    def test_bad_interval(self):
        cfg = VacancyBoundConfig(params=P21, a=1.0, s1=2.0, s2=1.0, mu=MeasureSpec(), n=50)
        with pytest.raises(ValueError):
            interval_vacancy_bound_check(cfg, seed=0)


class TestReflectedSmoke:
    def test_runs_and_flagged_approximate(self):
        cfg = ReflectedLaplaceConfig(
            params=P21,
            barriers=(-3.0, 3.0),
            t=1.0,
            mu=MeasureSpec(intervals=((-2.0, 2.0),)),
            pairs=((-1.0, 1.0),),
            coefficients=(1.0,),
            n=1500,
        )
        rep = reflected_laplace_smoke(cfg, seed=47)
        assert rep.approx
        # smoke tolerance: grid-approximate joint law on the reflected side
        assert abs(rep.z_score) <= 5.0

    def test_levels_on_barrier_rejected(self):
        cfg = ReflectedLaplaceConfig(
            params=P21,
            barriers=(-1.0, 1.0),
            t=1.0,
            mu=MeasureSpec(intervals=((-2.0, 2.0),)),
            pairs=((-1.0, 1.0),),
            coefficients=(1.0,),
            n=100,
        )
        with pytest.raises(ValueError):
            reflected_laplace_smoke(cfg, seed=0)
