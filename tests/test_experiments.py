import math

import numpy as np
import pytest

from scbm.branching import BranchingParams, cumulant_limit
from scbm.engine import MeasureSpec, init_ensemble
from scbm.experiments import (
    CappedExponentialGrowth,
    ConstantGrowth,
    PowerGrowth,
    SequenceTriple,
    StaircaseGrowth,
    SurvivalConfig,
    _survival_batch,
    block_survival_closed_form,
    block_survival_mc,
    build_sequences,
    comparison_constant,
    integral_partial,
    parse_growth,
    series_eval,
    survival_experiment,
)
from scbm.harness import _lattice_grid

P21 = BranchingParams(gamma=2.0, beta=1.0)


class TestGrowthFamilies:
    def test_parse_round_trip(self):
        for spec in ("power:0.3", "constant:1", "cappedexp:30", "staircase:0:1,2:3,5:9"):
            g = parse_growth(spec)
            g.validate(0.0, 20.0)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_growth("cubic:2")
        with pytest.raises(ValueError):
            parse_growth("power:xyz")

    def test_staircase_right_continuity(self):
        g = StaircaseGrowth(times=(0.0, 2.0, 5.0), values=(1.0, 3.0, 9.0))
        assert g(1.999) == 1.0
        assert g(2.0) == 3.0
        assert g.left_limit(2.0) == 1.0
        assert g.left_limit(3.0) == 3.0

    def test_capped_exponential(self):
        g = CappedExponentialGrowth(cap=30.0)
        assert g(1.0) == 3.0
        assert g(10.0) == 30.0
        assert g(1e6) == 30.0

    def test_monotonicity_validation(self):
        with pytest.raises(ValueError):
            StaircaseGrowth(times=(0.0, 1.0), values=(2.0, 1.0))


class TestIntegralPartial:
    def test_power_anchor_against_antiderivative(self):
        # integral of y^{0.3 - 2} over [1, T] is (1 - T^{-0.7}) / 0.7 by hand
        T = 1e4
        diag = integral_partial(PowerGrowth(exponent=0.3), 1.0, T)
        exact = (1.0 - T**-0.7) / 0.7
        assert diag.value == pytest.approx(exact, abs=1e-8)
        assert diag.classification == "convergent"
        assert diag.limit_estimate == pytest.approx(1.0 / 0.7, abs=1e-6)

    def test_linear_growth_diverges_like_log(self):
        T = 1e4
        diag = integral_partial(PowerGrowth(exponent=1.0), 1.0, T)
        assert diag.value == pytest.approx(math.log(T), rel=1e-8)
        assert diag.classification == "divergent"
        assert diag.limit_estimate is None

    def test_zero_growth(self):
        diag = integral_partial(ConstantGrowth(0.0), 1.0, 100.0)
        assert diag.value == 0.0
        assert diag.classification == "convergent"
        assert diag.limit_estimate == 0.0

    def test_staircase_segments(self):
        g = StaircaseGrowth(times=(0.0, 10.0), values=(1.0, 2.0))
        diag = integral_partial(g, 1.0, 100.0)
        exact = (1.0 - 1.0 / 10.0) + 2.0 * (1.0 / 10.0 - 1.0 / 100.0)
        assert diag.value == pytest.approx(exact, rel=1e-8)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            integral_partial(ConstantGrowth(1.0), 1.0, 1.0)


class TestSeries:
    def test_linear_growth_constant_terms(self):
        series = series_eval(PowerGrowth(exponent=1.0), P21, 10)
        assert np.allclose(series.terms, 4.0 * math.e, atol=1e-12)
        assert not series.bounded
        assert series.partial_sums[-1] == pytest.approx(40.0 * math.e, abs=1e-10)

    def test_slow_growth_geometric_decay(self):
        series = series_eval(PowerGrowth(exponent=0.3), P21, 10)
        ratios = series.terms[1:] / series.terms[:-1]
        assert np.allclose(ratios, math.exp(-0.7), rtol=1e-10)
        assert series.bounded

    def test_zero_growth(self):
        series = series_eval(ConstantGrowth(0.0), P21, 5)
        assert np.all(series.terms == 0.0)
        assert series.bounded

    def test_tail_terms(self):
        series = series_eval(ConstantGrowth(1.0), P21, 4, delta=0.75)
        expected = np.exp(-np.sqrt(np.exp(np.arange(1, 5))) / 2.0)
        assert np.allclose(series.tail_terms, expected, rtol=1e-12)

    def test_comparison_constant(self):
        assert comparison_constant(P21) == pytest.approx(1.0, abs=1e-15)
        assert comparison_constant(BranchingParams(gamma=1.0, beta=0.5)) == pytest.approx(18.0, abs=1e-10)


class TestSequences:
    def test_linear_growth_exact_tripling(self):
        triple = build_sequences(PowerGrowth(exponent=1.0), 8)
        expected = 3.0 ** np.arange(9)
        assert np.allclose(triple.times, expected, rtol=1e-8)
        assert np.allclose(triple.upper, 0.9 * expected, rtol=1e-8)
        assert np.allclose(triple.lower[1:], (31.0 / 30.0) * expected[:-1], rtol=1e-8)
        assert not triple.terminated
        assert np.all(triple.eqng_ok[:-1])
        assert np.all(triple.intervaldiff_ok[1:-1])
        assert np.all(triple.window_ok[1:-1])

    @pytest.mark.parametrize(
        "g",
        [
            PowerGrowth(exponent=1.0),
            PowerGrowth(exponent=2.0),
            CappedExponentialGrowth(cap=2000.0),
            StaircaseGrowth(times=(0.0, 2.0, 5.0, 9.0, 20.0), values=(1.0, 3.5, 11.0, 40.0, 130.0)),
        ],
    )
    def test_invariants_hold_for_family(self, g):
        triple = build_sequences(g, 6)
        k = len(triple.times)
        assert np.all(triple.eqng_ok[: k - 1])
        if k > 2:
            assert np.all(triple.intervaldiff_ok[1 : k - 1])
            assert np.all(triple.window_ok[1 : k - 1])

    def test_constant_growth_terminates(self):
        triple = build_sequences(ConstantGrowth(1.0), 5)
        assert len(triple.times) == 1
        assert triple.terminated

    def test_zero_at_one_rejected(self):
        with pytest.raises(ValueError):
            build_sequences(ConstantGrowth(0.0), 3)


def _synthetic_triple():
    # block at time 3 with radii gap 0.75
    return SequenceTriple(
        times=np.array([1.0, 3.0]),
        lower=np.array([np.nan, 1.0]),
        upper=np.array([np.nan, 1.75]),
        eqng_ok=np.array([True, True]),
        intervaldiff_ok=np.array([True, True]),
        window_ok=np.array([True, True]),
        terminated=False,
    )


class TestBlockSurvival:
    def test_anchor_value(self):
        # 1 - exp(-2 * 0.75 * (1/3)) = 1 - e^{-1/2}
        prob, empty = block_survival_closed_form(P21, 1, _synthetic_triple())
        assert not empty
        assert prob == pytest.approx(1.0 - math.exp(-0.5), abs=1e-12)

    def test_probability_range(self):
        triple = build_sequences(PowerGrowth(exponent=1.0), 6)
        for idx in range(1, len(triple.times) - 1):
            p, empty = block_survival_closed_form(P21, idx, triple)
            assert 0.0 <= p <= 1.0 and not empty

    def test_empty_window(self):
        triple = SequenceTriple(
            times=np.array([1.0, 3.0]),
            lower=np.array([np.nan, 2.0]),
            upper=np.array([np.nan, 1.5]),
            eqng_ok=np.array([True, True]),
            intervaldiff_ok=np.array([True, True]),
            window_ok=np.array([True, False]),
            terminated=False,
        )
        prob, empty = block_survival_closed_form(P21, 1, triple)
        assert prob == 0.0 and empty

    def test_mc_companion_agrees(self):
        triple = _synthetic_triple()
        prob, _ = block_survival_closed_form(P21, 1, triple)
        est = block_survival_mc(P21, 1, triple, 10_000, seed=99)
        assert abs(est.mean - prob) <= 3 * est.stderr


class TestSurvival:
    def test_zero_measure_gives_zero_fractions(self):
        cfg = SurvivalConfig(
            params=P21, g=ConstantGrowth(1.0), truncation=0.0, horizons=(1.0, 2.0), replicas=20
        )
        res = survival_experiment(cfg, seed=1)
        assert res.fractions == (0.0, 0.0)
        assert res.alive_at_end == 0

    def test_deterministic_and_thread_invariant(self):
        cfg = SurvivalConfig(
            params=P21, g=ConstantGrowth(1.0), truncation=5.0, horizons=(1.0, 3.0), replicas=60
        )
        a = survival_experiment(cfg, seed=7)
        b = survival_experiment(cfg, seed=7)
        c = survival_experiment(cfg, seed=7, threads=2)
        assert a == b == c

    def test_trends_and_domination(self):
        horizons = (2.0, 8.0)
        base = dict(params=P21, truncation=10.0, horizons=horizons, replicas=400)
        small = survival_experiment(SurvivalConfig(g=ConstantGrowth(1.0), **base), seed=31)
        large = survival_experiment(SurvivalConfig(g=PowerGrowth(exponent=1.0), **base), seed=31)
        # shared seed: identical paths, so window monotonicity is pointwise
        assert all(hi >= lo for lo, hi in zip(small.fractions, large.fractions))
        assert small.fractions[0] > small.fractions[1]

    def test_bad_horizons(self):
        with pytest.raises(ValueError):
            SurvivalConfig(params=P21, g=ConstantGrowth(1.0), truncation=1.0, horizons=(2.0, 1.0), replicas=10)

    @pytest.mark.parametrize("beta", [1.0, 0.5])
    def test_alive_at_end_matches_exact_extinction(self, beta):
        # a replica's total mass is one transition from 2L: alive at T with
        # probability 1 - exp(-2L u_T(inf))
        params = BranchingParams(gamma=2.0, beta=beta)
        cfg = SurvivalConfig(params=params, g=ConstantGrowth(1.0), truncation=4.0, horizons=(1.0, 4.0), replicas=2000)
        res = survival_experiment(cfg, seed=17)
        p = 1.0 - math.exp(-8.0 * cumulant_limit(params, 4.0))
        se = math.sqrt(p * (1.0 - p) / cfg.replicas)
        assert abs(res.alive_at_end / cfg.replicas - p) <= 3 * se, f"z={(res.alive_at_end / cfg.replicas - p) / se:+.2f}"

    @pytest.mark.parametrize("beta", [1.0, 0.5])
    def test_rows_match_the_closed_form(self, beta):
        # the defaults (L = 50, horizons 4, 16, 64, 2000 replicas): the truncation is over 4 SD of
        # the pair's spread away, so each row is 1 - E exp(-u_h(inf) D) with D the untruncated gap
        params = BranchingParams(gamma=2.0, beta=beta)
        res = survival_experiment(SurvivalConfig(params=params, g=ConstantGrowth(1.0)), seed=2201)
        for h, frac, se in zip(res.horizons, res.fractions, res.stderrs):
            exact = _charged_exact(cumulant_limit(params, h), 2.0, h)
            assert abs(frac - exact) <= 3.0 * se, f"h={h}: z={(frac - exact) / se:+.2f}"

    def test_rows_match_the_forward_lattice_reader(self):
        # the end-to-end check of the measure-valued process: the lattice flow forward from
        # Lebesgue mass on [-4, 4] (spacing 0.05, dt 0.1), read through window_mass
        horizons, n = (1.0, 2.0), 4000
        rng = np.random.default_rng(2202)
        grid = np.unique(np.concatenate((_lattice_grid(0.05, horizons[0], horizons[-1], 0.1), horizons)))
        flow = init_ensemble(MeasureSpec(intervals=((-4.0, 4.0),)), 0.05, n)
        forward = []
        for dt, t in zip(np.diff(grid), grid[1:]):
            flow.step(float(dt), rng)
            if t in horizons:
                forward.append(-np.expm1(-cumulant_limit(P21, float(t)) * flow.window_mass(-1.0, 1.0)))
        cfg = SurvivalConfig(params=P21, g=ConstantGrowth(1.0), truncation=4.0, horizons=horizons, replicas=20_000)
        res = survival_experiment(cfg, seed=2203)
        for h, values, frac, se in zip(horizons, forward, res.fractions, res.stderrs):
            pooled = math.hypot(values.std(ddof=1) / math.sqrt(n), se)
            assert abs(frac - values.mean()) <= 3.0 * pooled, f"h={h}: z={(frac - values.mean()) / pooled:+.2f}"

    def test_domination_is_pointwise(self):
        # a window barely wider, under the same draws: no replica charges it less often
        base = dict(params=P21, truncation=10.0, horizons=(1.0, 4.0, 16.0))
        narrow = _survival_batch(SurvivalConfig(g=ConstantGrowth(1.0), **base), np.random.default_rng(2204), 5000)
        wide = _survival_batch(SurvivalConfig(g=ConstantGrowth(1.001), **base), np.random.default_rng(2204), 5000)
        assert np.all(wide >= narrow)
        assert np.any(wide[:, :-1] > narrow[:, :-1])
        assert np.array_equal(wide[:, -1], narrow[:, -1])


def _charged_exact(lam: float, d: float, h: float) -> float:
    """1 - E exp(-lam D), D the gap at h of coalescing paths started d apart (0 once merged).

    P(merged) = erfc(d / (2 sqrt h)); unmerged, D has density phi_2h(D - d) - phi_2h(D + d) on D > 0.
    Direct form, fine while lam^2 h stays moderate.
    """
    s = math.sqrt(2.0 * h)

    def cdf(x):
        return 0.5 * math.erfc(-x / math.sqrt(2.0))

    vacant = math.erfc(d / (2.0 * math.sqrt(h))) + math.exp(lam * lam * h) * (
        math.exp(-lam * d) * cdf((d - 2.0 * lam * h) / s) - math.exp(lam * d) * cdf(-(d + 2.0 * lam * h) / s)
    )
    return 1.0 - vacant


class TestSeriesIntegralConsistency:
    # bounded partial sums of the ladder series iff the classification
    # integral converges, across the power family
    @pytest.mark.parametrize("p", [0.3, 0.6, 1.0, 1.5])
    def test_power_family(self, p):
        g = PowerGrowth(exponent=p)
        series = series_eval(g, P21, 14)
        diag = integral_partial(g, 1.0, 1e4)
        assert series.bounded == (diag.classification == "convergent")
        # the integral converges exactly when p < 1 at beta = 1
        assert series.bounded == (p < 1.0)


class TestEscapeBounds:
    def test_hand_values_linear_growth(self):
        from scbm.experiments import escape_probability_bounds

        triple = build_sequences(PowerGrowth(exponent=1.0), 4)
        bounds = escape_probability_bounds(PowerGrowth(exponent=1.0), triple)
        # block bound at t_1 = 3: 2 exp(-9 / 300)
        assert bounds.block[1] == pytest.approx(2.0 * math.exp(-0.03), rel=1e-12)
        # coupling bound at t_1: 4 exp(-9/300) + 4 exp(-1/300)
        expected = 4.0 * math.exp(-0.03) + 4.0 * math.exp(-1.0 / 300.0)
        assert bounds.coupling[1] == pytest.approx(expected, rel=1e-12)
        assert math.isnan(bounds.coupling[0])

    def test_bounds_decay_for_fast_growth(self):
        from scbm.experiments import escape_probability_bounds

        triple = build_sequences(PowerGrowth(exponent=1.0), 8)
        bounds = escape_probability_bounds(PowerGrowth(exponent=1.0), triple)
        # g(t) = t gives bound exponent -t/100: eventually decaying terms
        assert bounds.block[-1] < bounds.block[2]
        assert np.all(bounds.envelope_ok)

    def test_envelope_violation_flagged(self):
        from scbm.experiments import escape_probability_bounds

        triple = build_sequences(PowerGrowth(exponent=1.0), 3)
        slow = PowerGrowth(exponent=0.2)  # below t^{1/2+eps}
        bounds = escape_probability_bounds(slow, triple, eps=0.1)
        assert not np.all(bounds.envelope_ok)

    def test_bad_eps(self):
        from scbm.experiments import escape_probability_bounds

        triple = build_sequences(PowerGrowth(exponent=1.0), 2)
        with pytest.raises(ValueError):
            escape_probability_bounds(PowerGrowth(exponent=1.0), triple, eps=0.7)
