import math

import numpy as np
import pytest
from scipy import stats

from scbm.branching import BranchingParams, cumulant, extinction_prob, sample_transition
from scbm.engine import MeasureSpec, atomize_measure, init_ensemble
from scbm.flow import FlowBoundary, ReplicaFlow

P21 = BranchingParams(gamma=2.0, beta=1.0)
P0 = BranchingParams(gamma=0.0)


class TestMeasureSpec:
    def test_masses(self):
        mu = MeasureSpec(intervals=((-1.0, 1.0), (2.0, 3.0)), atoms=((5.0, 0.5),))
        assert mu.total_mass == pytest.approx(3.5)
        assert mu.mass_in(0.0, 2.5) == pytest.approx(1.5)
        assert mu.mass_in(4.0, 6.0) == pytest.approx(0.5)

    def test_overlapping_intervals_rejected(self):
        with pytest.raises(ValueError):
            MeasureSpec(intervals=((0.0, 2.0), (1.0, 3.0)))

    def test_sampling_distribution(self):
        rng = np.random.default_rng(5)
        mu = MeasureSpec(intervals=((0.0, 1.0),), atoms=((9.0, 1.0),))
        draws = mu.sample(rng, 20_000)
        frac_atom = np.mean(draws == 9.0)
        assert abs(frac_atom - 0.5) <= 3 * math.sqrt(0.25 / 20_000)
        inside = draws[draws != 9.0]
        assert np.all((inside >= 0.0) & (inside <= 1.0))


class TestInitAtoms:
    """Populations built by ``init_ensemble``, one per replica."""

    def test_empty_measure(self):
        flow = init_ensemble(MeasureSpec(), 1.0, P21, np.random.default_rng(0), 5)
        assert len(flow.pos) == 0 and len(flow.mass) == 0
        assert not np.any(flow.charged(-math.inf, math.inf))

    def test_poisson_mean_count(self):
        # Lebesgue on [-1, 1] at t0 = 1 with extinction rate 1: mean count 2 per replica
        rng = np.random.default_rng(7)
        count = 3000
        flow = init_ensemble(MeasureSpec(intervals=((-1.0, 1.0),)), 1.0, P21, rng, count)
        counts = np.bincount(flow.replica, minlength=count)
        mean = float(np.mean(counts))
        se = float(np.std(counts, ddof=1) / math.sqrt(count))
        assert abs(mean - 2.0) <= 3 * se

    def test_masses_positive_and_sorted_births(self):
        rng = np.random.default_rng(11)
        flow = init_ensemble(MeasureSpec(intervals=((-1.0, 1.0),)), 0.05, P21, rng, 50)
        assert len(flow.pos) > 50
        assert np.all(flow.mass > 0)
        assert np.all(np.diff(flow.replica) >= 0)
        same = flow.replica[1:] == flow.replica[:-1]
        assert np.all(np.diff(flow.pos)[same] > 0)

    def test_bad_burn_in(self):
        with pytest.raises(ValueError):
            init_ensemble(MeasureSpec(intervals=((0.0, 1.0),)), 0.0, P21, np.random.default_rng(0), 4)


class TestAtomize:
    def test_edges_present(self):
        locs = atomize_measure(MeasureSpec(intervals=((-2.0, -1.0), (1.0, 2.0))), spacing=0.25)
        for edge in (-2.0, -1.0, 1.0, 2.0):
            assert edge in locs
        assert np.all(np.diff(locs) > 0)


def _single_clusters(count, masses=1.0, boundary=None, params=P21):
    """``count`` replicas of one cluster at 0 carrying ``masses``."""
    return ReplicaFlow(
        np.zeros(count), np.arange(count), count, boundary=boundary, masses=np.full(count, masses), params=params
    )


def _totals(flow):
    return np.bincount(flow.replica, weights=flow.mass, minlength=flow.count)


class TestEvolve:
    """Masses riding the flow, observed along a grid, over many replicas in one system."""

    def test_single_atom_mass_law_matches_branching_path(self):
        # one unit atom observed at 0.4 and 0.8: extinct with probability
        # exp(-u_0.8(inf)), and distributed as one transition over 0.8
        rng = np.random.default_rng(13)
        n = 10_000
        flow = _single_clusters(n)
        for dt in (0.4, 0.4):
            flow.step(dt, rng)
            flow.observe(rng)
        finals = _totals(flow)
        direct = sample_transition(P21, 0.8, 1.0, rng, size=n)
        pz = np.mean(finals == 0)
        target = extinction_prob(P21, 0.8, 1.0)
        assert abs(pz - target) <= 3 * math.sqrt(target * (1 - target) / n)
        assert stats.ks_2samp(finals[finals > 0], direct[direct > 0]).pvalue > 0.01

    def test_atom_count_nonincreasing(self):
        rng = np.random.default_rng(17)
        count = 50
        flow = init_ensemble(MeasureSpec(intervals=((-1.0, 1.0),)), 0.05, P21, rng, count)
        before = np.bincount(flow.replica, minlength=count)
        for dt in np.diff(np.linspace(0.05, 1.0, 20)):
            flow.step(float(dt), rng)
            flow.observe(rng)
            after = np.bincount(flow.replica, minlength=count)
            assert np.all(after <= before)
            before = after

    def test_total_mass_laplace_identity(self):
        # coalescence cannot change the total-mass law: E exp(-z M_t) =
        # exp(-mu(domain) * u_t(z)) regardless of the flow
        rng = np.random.default_rng(19)
        mu = MeasureSpec(intervals=((-1.0, 1.0),))
        t, z, n = 0.5, 1.0, 4000
        t0 = 0.01
        grid = np.concatenate((np.geomspace(t0, 0.1, 12), np.linspace(0.12, t, 12)))
        flow = init_ensemble(mu, t0, P21, rng, n)
        for dt in np.diff(grid):
            flow.step(float(dt), rng)
        flow.observe(rng)
        vals = np.exp(-z * _totals(flow))
        target = math.exp(-2.0 * cumulant(P21, t, z))
        se = vals.std(ddof=1) / math.sqrt(n)
        assert abs(vals.mean() - target) <= 3 * se

    def test_gamma_zero_mass_constant_under_merges(self):
        rng = np.random.default_rng(23)
        starts = atomize_measure(MeasureSpec(intervals=((-1.0, 1.0),)), spacing=0.1)
        flow = ReplicaFlow(starts, np.zeros(len(starts)), 1, masses=np.full(len(starts), 0.1), params=P0)
        total0 = 0.1 * len(starts)
        for dt in np.diff(np.linspace(0.0, 2.0, 40)):
            flow.step(float(dt), rng)
            flow.observe(rng)
            assert flow.mass.sum() == pytest.approx(total0, rel=1e-12)
        assert len(flow.mass) < len(starts)  # merges happened

    def test_absorbed_atoms_keep_branching(self):
        rng = np.random.default_rng(29)
        count = 200
        flow = _single_clusters(count, boundary=FlowBoundary("absorbing", (0.0,)))
        for dt in (0.5, 0.5):
            flow.step(dt, rng)
            flow.observe(rng)
            assert np.all(flow.pos == 0.0)
        totals = _totals(flow)
        assert np.sum((totals != 0.0) & (totals != 1.0)) > 100

    def test_ordering_preserved(self):
        rng = np.random.default_rng(31)
        count = 50
        flow = ReplicaFlow(
            np.tile([-1.0, 0.0, 2.0], count), np.repeat(np.arange(count), 3), count, masses=np.ones(3 * count), params=P21
        )
        for dt in np.diff(np.linspace(0.0, 1.0, 20)):
            flow.step(float(dt), rng)
            flow.observe(rng)
            same = flow.replica[1:] == flow.replica[:-1]
            assert np.all(np.diff(flow.pos)[same] > 0)
