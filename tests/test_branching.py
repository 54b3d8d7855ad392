import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from scbm.branching import (
    BranchingParams,
    _fragments,
    _kanter,
    cumulant,
    cumulant_limit,
    entrance_transform,
    extinction_prob,
    sample_entrance_mass,
    sample_transition,
)

P21 = BranchingParams(gamma=2.0, beta=1.0)
P_HALF = BranchingParams(gamma=1.0, beta=0.5)


class TestParams:
    def test_valid(self):
        BranchingParams(gamma=0.5, beta=0.25)

    @pytest.mark.parametrize("gamma,beta", [(-1.0, 1.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.5), (math.nan, 1.0)])
    def test_invalid(self, gamma, beta):
        with pytest.raises(ValueError):
            BranchingParams(gamma=gamma, beta=beta)


class TestCumulant:
    def test_hand_value_beta_one(self):
        # z * (1+b)/(1+b+gamma*b*t*z^b) at gamma=2, b=1, t=1, z=1: 2/4
        assert cumulant(P21, 1.0, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_hand_value_beta_half(self):
        # (1.5 / 2)^2 by hand
        assert cumulant(P_HALF, 1.0, 1.0) == pytest.approx(0.5625, abs=1e-15)

    def test_time_zero_identity(self):
        for z in (0.0, 0.3, 7.0):
            assert cumulant(P21, 0.0, z) == z

    def test_infinite_z_gives_limit(self):
        assert cumulant(P21, 1.0, math.inf) == cumulant_limit(P21, 1.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_finite_z_gives_limit(self):
        # gamma * beta * t * z**beta overflows at z = 1e308: u_1 there is u_1(inf) = 1 within about 1e-308
        assert cumulant(P21, 1.0, 1e308) == 1.0
        assert cumulant(P21, 1.0, np.array([1.0, 1e308, math.inf])).tolist() == [0.5, 1.0, 1.0]
        assert cumulant(P21, 1.0, 1e300) == pytest.approx(1.0, rel=1e-15)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            cumulant(P21, -0.1, 1.0)
        with pytest.raises(ValueError):
            cumulant(P21, 1.0, -1.0)

    def test_flow_anchor_exact(self):
        # one-step-of-two composition equals direct two-step value, 1/3
        inner = cumulant(P21, 1.0, 1.0)
        assert abs(cumulant(P21, 1.0, inner) - 1.0 / 3.0) < 1e-15
        assert abs(cumulant(P21, 2.0, 1.0) - 1.0 / 3.0) < 1e-15

    @settings(max_examples=150, deadline=None)
    @given(
        s=st.floats(0.0, 4.0),
        t=st.floats(0.0, 4.0),
        z=st.floats(0.0, 4.0),
        gamma=st.sampled_from([0.5, 1.0, 2.0]),
        beta=st.sampled_from([0.25, 0.5, 1.0]),
    )
    def test_flow_property(self, s, t, z, gamma, beta):
        p = BranchingParams(gamma=gamma, beta=beta)
        assert abs(cumulant(p, s, cumulant(p, t, z)) - cumulant(p, s + t, z)) <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(
        t=st.floats(0.01, 4.0),
        z1=st.floats(0.0, 10.0),
        z2=st.floats(0.0, 10.0),
        gamma=st.sampled_from([0.5, 2.0]),
        beta=st.sampled_from([0.25, 1.0]),
    )
    def test_monotone_and_bounded(self, t, z1, z2, gamma, beta):
        p = BranchingParams(gamma=gamma, beta=beta)
        lo, hi = sorted((z1, z2))
        assert cumulant(p, t, lo) <= cumulant(p, t, hi) + 1e-14
        if hi > 0:
            assert cumulant(p, t, hi) <= min(hi, cumulant_limit(p, t)) + 1e-14

    def test_nonincreasing_in_time(self):
        vals = [cumulant(P21, t, 2.0) for t in (0.5, 1.0, 2.0, 4.0)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestCumulantLimit:
    def test_hand_values(self):
        assert cumulant_limit(P21, 1.0) == pytest.approx(1.0, abs=1e-15)
        assert cumulant_limit(P21, 2.0) == pytest.approx(0.5, abs=1e-15)
        assert cumulant_limit(P_HALF, 1.0) == pytest.approx(9.0, abs=1e-12)

    def test_strictly_decreasing(self):
        ts = [0.1, 0.5, 1.0, 3.0, 10.0]
        vals = [cumulant_limit(P21, t) for t in ts]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            cumulant_limit(P21, 0.0)


class TestExtinctionProb:
    def test_hand_value(self):
        assert extinction_prob(P21, 1.0, 1.0) == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_zero_mass(self):
        assert extinction_prob(P21, 1.0, 0.0) == 1.0

    def test_increases_to_one_in_time(self):
        vals = [extinction_prob(P21, t, 0.7) for t in (1.0, 10.0, 100.0, 1e4)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 0.999

    def test_domain_error(self):
        with pytest.raises(ValueError):
            extinction_prob(P21, -1.0, 1.0)


class TestTransitionSampler:
    def test_mixture_laplace_matches_cumulant(self):
        # analytic transform of the Poisson-gamma mixture vs the closed form,
        # 20 z-points, beta = 1
        t, x = 0.7, 1.3
        theta = cumulant_limit(P21, t)
        for z in np.linspace(0.05, 8.0, 20):
            mixture = math.exp(-x * theta * z / (z + theta))
            direct = math.exp(-x * cumulant(P21, t, z))
            assert abs(mixture - direct) < 1e-12

    def test_trap_at_zero(self):
        rng = np.random.default_rng(0)
        assert sample_transition(P21, 1.0, 0.0, rng) == 0.0
        assert np.all(sample_transition(P21, 1.0, 0.0, rng, size=100) == 0.0)

    def test_extinction_fraction(self):
        rng = np.random.default_rng(7)
        n = 100_000
        draws = sample_transition(P21, 1.0, 1.0, rng, size=n)
        frac = np.mean(draws == 0.0)
        target = math.exp(-1.0)
        se = math.sqrt(target * (1 - target) / n)
        assert abs(frac - target) <= 3 * se

    def test_mean_preserved(self):
        rng = np.random.default_rng(11)
        n = 100_000
        draws = sample_transition(P21, 0.5, 2.0, rng, size=n)
        se = draws.std(ddof=1) / math.sqrt(n)
        assert abs(draws.mean() - 2.0) <= 3 * se

    def test_empirical_laplace(self):
        rng = np.random.default_rng(13)
        n = 100_000
        draws = sample_transition(P21, 1.0, 1.0, rng, size=n)
        for z in (0.5, 1.0, 2.0):
            vals = np.exp(-z * draws)
            target = math.exp(-cumulant(P21, 1.0, z))
            se = vals.std(ddof=1) / math.sqrt(n)
            assert abs(vals.mean() - target) <= 3 * se

    def test_additivity_beta_one(self):
        # law at x1 + x2 equals law of independent sum: compare zero mass and
        # the positive parts separately (the law has an atom at zero)
        rng = np.random.default_rng(17)
        n = 10_000
        a = sample_transition(P21, 1.0, 0.7, rng, size=n)
        b = sample_transition(P21, 1.0, 0.5, rng, size=n)
        c = sample_transition(P21, 1.0, 1.2, rng, size=n)
        s = a + b
        pz_s, pz_c = np.mean(s == 0), np.mean(c == 0)
        se = math.sqrt(pz_s * (1 - pz_s) / n + pz_c * (1 - pz_c) / n)
        assert abs(pz_s - pz_c) <= 3 * se
        ks = stats.ks_2samp(s[s > 0], c[c > 0])
        assert ks.pvalue > 0.01

    def test_beta_half_laplace_identity(self):
        # approximate sampler must still satisfy the transform identity
        rng = np.random.default_rng(23)
        n = 60_000
        t, x = 1.0, 1.0
        draws = sample_transition(P_HALF, t, x, rng, size=n)
        for z in (0.5, 2.0):
            vals = np.exp(-z * draws)
            target = math.exp(-x * cumulant(P_HALF, t, z))
            se = vals.std(ddof=1) / math.sqrt(n)
            assert abs(vals.mean() - target) <= 4 * se

    @pytest.mark.parametrize("lam, n", [(1.0, 40_000), (1e2, 20_000), (1e4, 1_000)])
    def test_beta_half_laplace_identity_across_fragment_counts(self, lam, n):
        # lambda = x u_t(inf) is the mean fragment count of one draw; with x = 1
        # and u_t(inf) = 9 / t^2 at gamma = 1, beta = 1/2, t sets lambda
        x, t = 1.0, 3.0 / math.sqrt(lam)
        assert x * cumulant_limit(P_HALF, t) == pytest.approx(lam)
        rng = np.random.default_rng(29)
        chunk = min(n, 100)  # bounds the fragments held at once
        draws = np.concatenate([sample_transition(P_HALF, t, x, rng, size=chunk) for _ in range(n // chunk)])
        for z in (0.5, 2.0):
            vals = np.exp(-z * draws)
            target = math.exp(-x * cumulant(P_HALF, t, z))
            se = vals.std(ddof=1) / math.sqrt(n)
            assert abs(vals.mean() - target) <= 3 * se

    def test_domain_error(self):
        with pytest.raises(ValueError):
            sample_transition(P21, 0.0, 1.0, np.random.default_rng(0))


class TestEntranceTransform:
    @pytest.mark.parametrize("beta", [1.0, 0.5, 0.25])
    @pytest.mark.parametrize("z", [1e-3, 0.5, 1.0, 2.0, 1e3])
    def test_matches_the_cumulant_ratio(self, beta, z):
        params = BranchingParams(gamma=2.0, beta=beta)
        ratio = cumulant(params, 1.5, z) / cumulant_limit(params, 1.5)
        transform, complement = entrance_transform(params, 1.5, z)
        assert transform == pytest.approx(1.0 - ratio, rel=1e-12)
        assert complement == pytest.approx(ratio, rel=1e-12)

    def test_small_ends_keep_their_precision(self):
        # at beta = 1 the transform is 1 / (1 + z) and the complement z / (1 + z), with u_1(inf) = 1
        assert entrance_transform(P21, 1.0, 1e20)[0] == pytest.approx(1e-20, rel=1e-14)
        assert entrance_transform(P21, 1.0, 1e-20)[1] == pytest.approx(1e-20, rel=1e-14)
        assert entrance_transform(P21, 1.0, math.inf) == (0.0, 1.0)
        assert entrance_transform(P21, 1.0, 5e-324)[0] == 1.0


class TestEntranceSampler:
    def test_exponential_case_moments(self):
        rng = np.random.default_rng(3)
        n = 100_000
        draws = sample_entrance_mass(P21, 1.0, rng, size=n)
        # rate is cumulant_limit = 1, so mean 1
        se = draws.std(ddof=1) / math.sqrt(n)
        assert abs(draws.mean() - 1.0) <= 3 * se
        assert np.all(draws > 0)

    def test_exponential_case_transform(self):
        rng = np.random.default_rng(5)
        n = 100_000
        theta = cumulant_limit(P21, 1.0)
        draws = sample_entrance_mass(P21, 1.0, rng, size=n)
        vals = np.exp(-theta * draws)
        se = vals.std(ddof=1) / math.sqrt(n)
        assert abs(vals.mean() - 0.5) <= 3 * se

    def test_ks_against_exponential(self):
        rng = np.random.default_rng(29)
        draws = sample_entrance_mass(P21, 1.0, rng, size=10_000)
        res = stats.kstest(draws, "expon", args=(0, 1.0))
        assert res.pvalue > 0.01

    def test_scalar_without_size(self):
        rng = np.random.default_rng(0)
        assert isinstance(sample_entrance_mass(P_HALF, 1.0, rng), float)
        assert isinstance(sample_entrance_mass(P21, 1.0, rng), float)

    def test_beta_half_transform_identity(self):
        rng = np.random.default_rng(31)
        n = 60_000
        r = 1.0
        theta = cumulant_limit(P_HALF, r)
        draws = sample_entrance_mass(P_HALF, r, rng, size=n)
        assert np.all(draws > 0)
        for z in (0.5 * theta, theta, 2.0 * theta):
            vals = np.exp(-z * draws)
            target = 1.0 - cumulant(P_HALF, r, z) / theta
            se = vals.std(ddof=1) / math.sqrt(n)
            assert abs(vals.mean() - target) <= 4 * se

    def test_beta_half_mean(self):
        # normalized entrance law has mean 1/theta for every beta
        rng = np.random.default_rng(37)
        n = 200_000
        draws = sample_entrance_mass(P_HALF, 1.0, rng, size=n)
        # heavy tail (index 1+beta): the mean converges but slowly; allow 5 se
        se = draws.std(ddof=1) / math.sqrt(n)
        assert abs(draws.mean() - 1.0 / 9.0) <= 5 * se

    def test_domain_error(self):
        with pytest.raises(ValueError):
            sample_entrance_mass(P21, 0.0, np.random.default_rng(0))


def _laplace_z(draws, s, beta):
    """z of the empirical transform at s against L(s) = 1 - s (1 + s^beta)^(-1/beta)."""
    vals = np.exp(-s * draws)
    return (vals.mean() - (1.0 - s * (1.0 + s**beta) ** (-1.0 / beta))) / (vals.std(ddof=1) / math.sqrt(len(vals)))


def _kanter_untilted(beta, rng, n):
    """K(V) with V uniform on (0, pi): Kanter's factor of the positive stable law, before any tilt."""
    return _kanter(np.pi * (1.0 - rng.random(n)), beta)


class TestFragmentLaw:
    """The exact beta < 1 fragment law Y: unit mean, P(Y > y) the density of W = S_beta Gamma(1/beta)^(1/beta)."""

    @pytest.mark.parametrize("beta", [0.5, 0.75, 0.9, 0.999])
    def test_laplace_transform(self, beta):
        draws = _fragments(beta, np.random.default_rng(53), 2_000_000)
        for s in (0.1, 1.0, 10.0):
            assert abs(_laplace_z(draws, s, beta)) <= 3

    @pytest.mark.parametrize("beta", [0.5, 0.75, 0.9, 0.999])
    def test_bounded_identity(self, beta):
        # E[min(Y, w)] is the integral of P(Y > y) over [0, w], which is P(W <= w);
        # W comes from Kanter's representation of the stable law, untilted
        rng = np.random.default_rng(59)
        n = 1_000_000
        y = _fragments(beta, rng, n)
        stable = _kanter_untilted(beta, rng, n) * rng.exponential(size=n) ** (-(1.0 - beta) / beta)
        w_draws = stable * rng.gamma(1.0 / beta, size=n) ** (1.0 / beta)
        for w in (0.1, 1.0, 10.0):
            lhs, rhs = np.minimum(y, w), (w_draws <= w).astype(float)
            se = math.sqrt(lhs.var(ddof=1) / n + rhs.var(ddof=1) / n)
            assert abs(lhs.mean() - rhs.mean()) <= 3 * se

    def test_untilted_angle_fails(self):
        # negative control: the same product with V uniform, without the 1/K tilt
        beta, n = 0.5, 2_000_000
        rng = np.random.default_rng(61)
        wrong = (
            _kanter_untilted(beta, rng, n)
            * rng.gamma(1.0 / beta, size=n) ** (-(1.0 - beta) / beta)
            * rng.exponential(size=n) ** (1.0 / beta)
        )
        for s in (0.1, 1.0, 10.0):
            assert abs(_laplace_z(wrong, s, beta)) > 10

    def test_kanter_increases_from_the_rejection_bound(self):
        # the rejection step needs K(v) >= K(0+) = beta (1-beta)^((1-beta)/beta) on (0, pi),
        # and its cell bounds need K increasing
        v = np.linspace(0.0, np.pi, 200_001)[1:-1]
        for beta in np.linspace(0.05, 0.99, 95):
            floor = beta * (1.0 - beta) ** ((1.0 - beta) / beta)
            k = _kanter(v, beta)
            assert np.all(k >= floor * (1.0 - 1e-12))
            assert np.all(np.diff(k) > 0)
            assert k[0] == pytest.approx(floor, rel=1e-6)


def _chain(params, x0, times, rng, size):
    """``size`` paths from ``x0`` at the increasing ``times``, chained through one-step transitions."""
    current = np.full(size, float(x0))
    out, prev = [], 0.0
    for t in times:
        current = sample_transition(params, t - prev, current, rng)
        out.append(current)
        prev = t
    return np.array(out)


class TestPath:
    """Paths chained through ``sample_transition``: zero traps, and the semigroup composes."""

    def test_zero_start_stays_zero(self):
        rng = np.random.default_rng(0)
        path = _chain(P21, 0.0, [0.5, 1.0, 2.0], rng, 1)
        assert np.all(path == 0.0)

    def test_absorbing(self):
        rng = np.random.default_rng(41)
        paths = _chain(P21, 0.4, np.linspace(0.2, 3.0, 12), rng, 200).T
        assert np.all(paths >= 0)
        for path in paths:
            dead = np.flatnonzero(path == 0.0)
            if len(dead):
                assert np.all(path[dead[0]:] == 0.0)

    def test_single_step_marginal_matches_transition(self):
        rng = np.random.default_rng(43)
        n = 10_000
        paths = _chain(P21, 1.0, [0.8], rng, n)[0]
        direct = sample_transition(P21, 0.8, 1.0, rng, size=n)
        pz_p, pz_d = np.mean(paths == 0), np.mean(direct == 0)
        se = math.sqrt(pz_p * (1 - pz_p) / n + pz_d * (1 - pz_d) / n)
        assert abs(pz_p - pz_d) <= 3 * se
        assert stats.ks_2samp(paths[paths > 0], direct[direct > 0]).pvalue > 0.01

    def test_chapman_kolmogorov_beta_one(self):
        rng = np.random.default_rng(47)
        n = 10_000
        t = 1.0
        via_half = _chain(P21, 1.0, [t / 2, t], rng, n)[-1]
        direct = _chain(P21, 1.0, [t], rng, n)[-1]
        pz_h, pz_d = np.mean(via_half == 0), np.mean(direct == 0)
        se = math.sqrt(pz_h * (1 - pz_h) / n + pz_d * (1 - pz_d) / n)
        assert abs(pz_h - pz_d) <= 3 * se
        assert stats.ks_2samp(via_half[via_half > 0], direct[direct > 0]).pvalue > 0.01
