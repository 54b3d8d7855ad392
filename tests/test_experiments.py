import math
import sys
from functools import partial

import numpy as np
import pytest

from scbm.branching import BranchingParams, cumulant_limit
from scbm.experiments import (
    CappedExponentialGrowth,
    ConstantGrowth,
    PowerGrowth,
    SequenceTriple,
    StaircaseGrowth,
    SurvivalConfig,
    _survival_batch,
    block_survival_closed_form,
    build_sequences,
    comparison_constant,
    integral_partial,
    parse_growth,
    series_eval,
    survival_experiment,
    window_charge,
)
from scbm.flow import MeasureSpec, coalescing_pair, init_ensemble
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


def _power_closed_form(p, beta, x):
    k = p - 1.0 / beta
    return math.log(x) if k == 0 else math.expm1(k * math.log(x)) / k


def _staircase_closed_form(g, beta, x):
    # a step of value v on [a, b] adds v * beta * (a^(-1/beta) - b^(-1/beta))
    ends = [*g.times[1:], math.inf]
    return sum(
        v * beta * (max(a, 1.0) ** (-1.0 / beta) - min(b, x) ** (-1.0 / beta))
        for a, b, v in zip(g.times, ends, g.values)
        if a < x and b > 1.0
    )


STAIRCASE = StaircaseGrowth(times=(0.5, 1.2, 10.0, 1e3, 1e30), values=(1.0, 2.0, 5.0, 6.0, 9.0))
CLOSED_FORMS = {
    **{f"power:{p:g}": (PowerGrowth(p), partial(_power_closed_form, p)) for p in (0.0, 0.3, 1.0, 2.0)},
    "constant:7": (ConstantGrowth(7.0), lambda beta, x: -7.0 * beta * math.expm1(-math.log(x) / beta)),
    "staircase": (STAIRCASE, partial(_staircase_closed_form, STAIRCASE)),
}


class TestIntegralClosedForms:
    """integral_partial at T, 2T and 4T against the closed forms, within 1e-12 relative, out to T = 1e100."""

    HORIZONS = (1.5, 10.0, 1e4, 1e6, 1e8, 1e20, 1e100)

    @pytest.mark.parametrize("beta", [1.0, 0.5, 0.25, 0.01])
    @pytest.mark.parametrize("family", sorted(CLOSED_FORMS))
    def test_partial_matches_closed_form(self, family, beta):
        g, exact = CLOSED_FORMS[family]
        for T in self.HORIZONS:
            diag = integral_partial(g, beta, T)
            for value, x in ((diag.value, T), (diag.value_2t, 2 * T), (diag.value_4t, 4 * T)):
                assert value == pytest.approx(exact(beta, x), rel=1e-12, abs=0), (T, x)

    @pytest.mark.parametrize(
        "p, beta, horizons",
        [
            # log f climbs by 149 per unit of s: 40^150 = 1e240 is the last g the horizon 10 reads
            (150.0, 1.0, (1.5, 2.0, 5.0, 10.0)),
            (150.0, 0.5, (1.5, 2.0, 5.0, 10.0)),
            # log f falls by 1e8 or 1e200 per unit of s: the mass sits within a few beta of each panel's start
            (0.3, 1e-8, (1.5, 1e4, 1e100)),
            (2.0, 1e-200, (1.5, 1e4, 1e100)),
        ],
    )
    def test_steep_integrands_match_closed_form(self, p, beta, horizons):
        for T in horizons:
            diag = integral_partial(PowerGrowth(p), beta, T)
            for value, x in ((diag.value, T), (diag.value_2t, 2 * T), (diag.value_4t, 4 * T)):
                assert value == pytest.approx(_power_closed_form(p, beta, x), rel=1e-12, abs=0), (T, x)

    @pytest.mark.parametrize("beta", [1.0, 0.5])
    @pytest.mark.parametrize("cap", [100.0, 2000.0, 1e6])
    def test_capped_exponential_matches_panelled_quad(self, cap, beta):
        # the reference splits [1, X] at the kink and at every power of e, so that each adaptive pass sees
        # one smooth piece of moderate width
        integrate = pytest.importorskip("scipy.integrate")
        g = CappedExponentialGrowth(cap=cap)

        def reference(x):
            powers = (math.e**k for k in range(1, int(math.log(x)) + 1))
            cuts = sorted({1.0, x, *(c for c in (math.log(cap) / math.log(3.0), *powers) if 1.0 < c < x)})
            pieces = [
                integrate.quad(lambda y: g(y) * y ** (-1.0 - 1.0 / beta), a, b, epsabs=0, epsrel=1e-13, limit=200)[0]
                for a, b in zip(cuts, cuts[1:])
            ]
            return math.fsum(pieces)

        for T in (10.0, 1e4, 1e8):
            diag = integral_partial(g, beta, T)
            for value, x in ((diag.value, T), (diag.value_2t, 2 * T), (diag.value_4t, 4 * T)):
                assert value == pytest.approx(reference(x), rel=1e-12, abs=0), (T, x)

    def test_capped_exponential_breaks_at_its_kink(self):
        g = CappedExponentialGrowth(cap=100.0)
        kink = math.log(100.0) / math.log(3.0)
        assert g.breakpoints(1.0, 10.0) == [kink]
        assert g.breakpoints(kink, 10.0) == [] and g.breakpoints(1.0, 4.0) == []


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


class TestWindowCharge:
    """``window_charge``: P(X_h([-r, r]) > 0) from Lebesgue measure, 1 - E exp(-u_h(inf) D) by quadrature."""

    @pytest.mark.parametrize("r, h", [(1.0, 4.0), (1.0, 64.0), (10.0, 1e4), (1e3, 1e6)])
    def test_matches_coalescing_pair_draws(self, r, h):
        # D is the gap at h of a coalescing pair run from -r and r, drawn in one exact step
        lo, hi = coalescing_pair(-r, r, h, np.random.default_rng(3101), 400_000)
        charged = -np.expm1(-cumulant_limit(P21, h) * (hi - lo))
        se = charged.std(ddof=1) / math.sqrt(len(charged))
        z = (charged.mean() - window_charge(P21, r, h)) / se
        assert abs(z) <= 3.0, f"z={z:+.2f}"

    def test_matches_the_direct_form_on_the_default_ladder(self):
        # r = g(t_n) at g = power:0.3, h = t_n = e^n: lam^2 h = 1/h stays small, where the direct form holds
        for n in range(1, 13):
            h = math.exp(n)
            r = h**0.3
            exact = _charged_exact(cumulant_limit(P21, h), 2.0 * r, h)
            assert window_charge(P21, r, h) == pytest.approx(exact, rel=0, abs=1e-10), n

    @pytest.mark.parametrize("gamma", [1e-2, 1e-4, 1e-6])
    @pytest.mark.parametrize("r, h", [(1.0, 3.0), (0.05, 3.0), (10.0, 1e4), (1e3, 1e6)])
    def test_steep_lower_end_matches_adaptive_quadrature(self, gamma, r, h):
        # a small gamma makes u_h(inf) sqrt(2h) large: 1 - exp(-lam D) steps up within a sliver of D = 0, where
        # unit panels alone miss by up to 1e-6 relative; scipy's adaptive quad, with a break at the step, holds 3e-11
        integrate = pytest.importorskip("scipy.integrate")
        params = BranchingParams(gamma=gamma, beta=1.0)
        lam, d, sd = cumulant_limit(params, h), 2.0 * r, math.sqrt(2.0 * h)

        def density(D):  # 1 - exp(-lam D) times the killed density of the gap, phi_2h(D - d) (1 - exp(-dD/h))
            gauss = math.exp(-(((D - d) / sd) ** 2) / 2) / (sd * math.sqrt(2 * math.pi))
            return -math.expm1(-lam * D) * -math.expm1(-d * D / h) * gauss

        points = sorted([1.0 / lam, 10.0 / lam, d, d + sd])
        exact, _ = integrate.quad(density, 0.0, d + 40.0 * sd, points=points, epsabs=0, epsrel=1e-13, limit=500)
        assert window_charge(params, r, h) == pytest.approx(exact, rel=1e-10)

    def test_small_charge_bracket(self):
        # 1 - exp(-x) lies between x - x^2/2 and x, with E D = 2r and E D^2 = 4r^2 + 2 E[h ^ tau], where
        # E[h ^ tau] = int_0^h erf(r / sqrt s) ds <= 4r sqrt(h / pi): so 1 - lam (r + 2 sqrt(h/pi)) <= P/(2r lam) <= 1
        cases = 0
        for beta in (1.0, 0.5, 0.25):
            params = BranchingParams(gamma=2.0, beta=beta)
            for p in (0.0, 0.3, 0.49, 1.0):
                for n in range(1, 709):
                    h = math.exp(n)
                    r, lam = PowerGrowth(exponent=p)(h), cumulant_limit(params, h)
                    slack = lam * (r + 2.0 * math.sqrt(h / math.pi))
                    if slack < 1e-3 and 2.0 * r * lam > 1e-290:
                        ratio = window_charge(params, r, h) / (2.0 * r * lam)
                        assert 1.0 - slack - 1e-13 <= ratio <= 1.0 + 1e-13, (beta, p, n, ratio)
                        cases += 1
        assert cases == 4180

    @pytest.mark.parametrize("beta", [1.0, 0.5, 0.25])
    @pytest.mark.parametrize("spec", ["power:0.3", "constant:1", "power:1", "constant:1e308"])
    def test_below_jensen_and_half_the_series_term(self, beta, spec):
        # P = 1 - E exp(-lam D) <= 1 - exp(-lam E D) = 1 - exp(-2 g(t) lam) <= 2 g(e t) lam, half the series term
        params, g = BranchingParams(gamma=2.0, beta=beta), parse_growth(spec)
        series = series_eval(g, params, 708)
        for t, term in zip(series.times.tolist(), series.terms.tolist()):
            jensen = -math.expm1(-2.0 * (g(t) * cumulant_limit(params, t)))
            # below 2.2e-308 a float is subnormal, with an absolute resolution of 5e-324
            assert window_charge(params, g(t), t) <= jensen * (1.0 + 1e-12) + 1e-320 and jensen <= term / 2.0, t

    def test_finite_in_the_unit_interval_at_the_extremes(self):
        for beta in (1.0, 0.5, 1e-8):
            params = BranchingParams(gamma=2.0, beta=beta)
            for h in (1e-300, 1e-10, 1.0, 1e10, 1e300):
                for r in (0.0, 5e-324, 1.0, 1e300, sys.float_info.max):
                    assert 0.0 <= window_charge(params, r, h) <= 1.0, (beta, h, r)
        assert window_charge(P21, 0.0, 1.0) == 0.0
        # the raw sum reads 1 + 2.2e-16 here, and the charge is clipped at 1
        assert window_charge(P21, sys.float_info.max, 1.0) == 1.0


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
