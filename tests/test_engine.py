import math
from functools import partial

import numpy as np
import pytest

from scbm.branching import BranchingParams, cumulant
from scbm.engine import MeasureSpec, init_ensemble
from scbm.flow import FlowBoundary, ReplicaFlow, _resolve_clusters
from scbm.harness import LaplaceDualityConfig, ReflectedLaplaceConfig, _laplace_lhs_batch, _lattice_grid, _mc_batched

P21 = BranchingParams(gamma=2.0, beta=1.0)


class TestMeasureSpec:
    def test_masses(self):
        mu = MeasureSpec(intervals=((-1.0, 1.0), (2.0, 3.0)), atoms=((5.0, 0.5),))
        assert mu.total_mass == pytest.approx(3.5)
        assert mu.mass_in(0.0, 2.5) == pytest.approx(1.5)
        assert mu.mass_in(4.0, 6.0) == pytest.approx(0.5)

    def test_mass_in_elementwise(self):
        mu = MeasureSpec(intervals=((-1.0, 1.0), (2.0, 3.0)), atoms=((5.0, 0.5), (2.5, 0.25)))
        u = np.array([-2.0, 0.0, 5.0, 1.0, 2.5, 6.0])
        v = np.array([6.0, 2.5, 5.0, 2.0, 2.5, 7.0])
        got = mu.mass_in(u, v)
        assert got.tolist() == [mu.mass_in(float(a), float(b)) for a, b in zip(u, v)]
        # atoms sit in the closed interval: on either endpoint, or on both
        assert got[2] == 0.5 and got[4] == 0.25
        assert mu.mass_in(0.0, 5.0) == pytest.approx(2.75)
        assert MeasureSpec().mass_in(u, v).tolist() == [0.0] * 6
        with pytest.raises(ValueError):
            mu.mass_in(np.array([0.0, 1.0]), np.array([1.0, 0.5]))

    def test_overlapping_intervals_rejected(self):
        with pytest.raises(ValueError):
            MeasureSpec(intervals=((0.0, 2.0), (1.0, 3.0)))



class TestInitAtoms:
    """Populations built by ``init_ensemble``: one lattice cluster per cell, the same in every replica."""

    def test_empty_measure(self):
        flow = init_ensemble(MeasureSpec(), 0.05, 5)
        assert len(flow.pos) == 0 and len(flow.mass) == 0
        assert not np.any(flow.charged(-math.inf, math.inf))

    def test_cell_masses(self):
        # the cell width inside an interval, half of it at the edges, the atom's
        # own mass, and an atom on a lattice point adds to that point's cell
        mu = MeasureSpec(intervals=((0.0, 0.4), (1.0, 2.0)), atoms=((-1.0, 0.3), (2.0, 0.25)))
        flow = init_ensemble(mu, 0.15, 3)
        h, k = 0.4 / 3, 1.0 / 7  # widths at most 0.15 that tile each interval
        first = flow.replica == 0
        assert flow.pos[first] == pytest.approx([-1.0, 0.0, h, 2 * h, 0.4] + list(1.0 + k * np.arange(8)))
        assert flow.mass[first] == pytest.approx([0.3, h / 2, h, h, h / 2, k / 2] + [k] * 6 + [k / 2 + 0.25])
        assert np.bincount(flow.replica, weights=flow.mass) == pytest.approx([mu.total_mass] * 3, rel=1e-12)
        assert np.array_equal(flow.pos, np.tile(flow.pos[first], 3))

    def test_masses_positive_and_sorted_births(self):
        flow = init_ensemble(MeasureSpec(intervals=((-1.0, 1.0),)), 0.05, 50)
        assert len(flow.pos) == 50 * 41
        assert np.all(flow.mass > 0)
        assert np.all(np.diff(flow.replica) >= 0)
        same = flow.replica[1:] == flow.replica[:-1]
        assert np.all(np.diff(flow.pos)[same] > 0)

    # 1e-300 and 1e200: the first lattice step, spacing**2, underflows to 0 or overflows
    @pytest.mark.parametrize("spacing", [0.0, -0.1, math.inf, math.nan, 1e-300, 1e200])
    def test_bad_spacing(self, spacing):
        with pytest.raises(ValueError, match="spacing"):
            init_ensemble(MeasureSpec(intervals=((0.0, 1.0),)), spacing, 4)

    def test_absorbing_start_on_barrier_frozen(self):
        # an absorbing barrier on an edge freezes that start, which keeps its cell mass
        boundary = FlowBoundary("absorbing", (1.0, 3.0))
        flow = init_ensemble(MeasureSpec(intervals=((-1.0, 1.0),)), 0.5, 2, boundary=boundary)
        assert flow.mass.tolist() == [0.25, 0.5, 0.5, 0.5, 0.25] * 2
        assert np.array_equal(flow.pos, np.tile([-1.0, -0.5, 0.0, 0.5, 1.0], 2))
        assert np.array_equal(np.isnan(flow.frozen), flow.pos != 1.0)


class TestAtomize:
    def test_edges_present(self):
        locs = init_ensemble(MeasureSpec(intervals=((-2.0, -1.0), (1.0, 2.0))), 0.25, 1).pos
        for edge in (-2.0, -1.0, 1.0, 2.0):
            assert edge in locs
        assert np.all(np.diff(locs) > 0)


def _single_clusters(count, masses=1.0, boundary=None):
    """``count`` replicas of one cluster at 0 carrying ``masses``."""
    return ReplicaFlow(np.zeros(count), np.arange(count), count, boundary=boundary, masses=np.full(count, masses))


def _totals(flow):
    return np.bincount(flow.replica, weights=flow.mass, minlength=flow.count)


class TestEvolve:
    """Start masses riding the flow over many replicas in one system, and the readers that integrate the branching."""

    def test_atom_count_nonincreasing(self):
        rng = np.random.default_rng(17)
        count = 50
        flow = init_ensemble(MeasureSpec(intervals=((-1.0, 1.0),)), 0.05, count)
        before = np.bincount(flow.replica, minlength=count)
        for dt in np.diff(np.linspace(0.0, 1.0, 20)):
            flow.step(float(dt), rng)
            after = np.bincount(flow.replica, minlength=count)
            assert np.all(after <= before)
            before = after

    def test_total_mass_laplace_identity(self):
        # coalescence cannot change the total-mass law: every replica keeps
        # start mass mu(R) = 2, so the Laplace reader of h = z on the support
        # gives exp(-mu(R) * u_t(z)) for every flow
        rng = np.random.default_rng(19)
        t, z = 0.5, 1.0
        cfg = LaplaceDualityConfig(
            params=P21, t=t, mu=MeasureSpec(intervals=((-1.0, 1.0),)), pairs=((-50.0, 50.0),), coefficients=(z,), n=2
        )
        vals = _laplace_lhs_batch(cfg, rng, 400)
        assert vals == pytest.approx(np.full(400, math.exp(-2.0 * cumulant(P21, t, z))), rel=1e-12)

    def test_gamma_zero_mass_constant_under_merges(self):
        rng = np.random.default_rng(23)
        flow = init_ensemble(MeasureSpec(intervals=((-1.0, 1.0),)), 0.1, 1)
        starts = len(flow.pos)
        for dt in np.diff(np.linspace(0.0, 2.0, 40)):
            flow.step(float(dt), rng)
            assert flow.mass.sum() == pytest.approx(2.0, rel=1e-12)
        assert len(flow.mass) < starts  # merges happened

    def test_absorbed_atoms_keep_branching(self):
        # absorbed clusters stay on the barrier with their mass, and the
        # smoke reader reads that mass through the branching law there
        rng = np.random.default_rng(29)
        count = 200
        flow = _single_clusters(count, boundary=FlowBoundary("absorbing", (0.0,)))
        for dt in (0.5, 0.5):
            flow.step(dt, rng)
            assert np.all(flow.pos == 0.0)
        assert np.all(_totals(flow) == 1.0)
        cfg = ReflectedLaplaceConfig(
            params=P21,
            barriers=(0.0, 5.0),
            t=1.0,
            mu=MeasureSpec(atoms=((0.0, 1.0),)),
            pairs=((-1.0, 1.0),),
            coefficients=(2.0,),
            n=2,
        )
        vals = _laplace_lhs_batch(cfg, rng, count, boundary=FlowBoundary("absorbing", cfg.barriers))
        assert vals == pytest.approx(np.full(count, math.exp(-cumulant(P21, 1.0, 2.0))), rel=1e-12)

    def test_ordering_preserved(self):
        rng = np.random.default_rng(31)
        count = 50
        flow = ReplicaFlow(np.tile([-1.0, 0.0, 2.0], count), np.repeat(np.arange(count), 3), count, masses=np.ones(3 * count))
        for dt in np.diff(np.linspace(0.0, 1.0, 20)):
            flow.step(float(dt), rng)
            same = flow.replica[1:] == flow.replica[:-1]
            assert np.all(np.diff(flow.pos)[same] > 0)


def _variance_one_step(flow, dt, rng):
    """A free flow step whose bridge merges with exp(-2 d0 d1 / dt): the mistake of a pair difference of variance 1."""
    proposals = flow.pos + rng.normal(0.0, math.sqrt(dt), len(flow.pos))
    d0, d1 = np.diff(flow.pos), np.diff(proposals)
    same = flow.replica[1:] == flow.replica[:-1]
    merge = same & ((d1 <= 0.0) | (rng.random(len(d0)) < np.exp(-2.0 * d0 * np.maximum(d1, 0.0) / dt)))
    flow.pos, flow.frozen, _, flow.replica = _resolve_clusters(proposals, flow.frozen, merge, flow.replica)


def _clusters_in_window(spacing, t, control, rng, count):
    """Per replica: clusters in [-1, 1) at ``t`` of the flow started from the lattice on [-4, 4]."""
    flow = init_ensemble(MeasureSpec(intervals=((-4.0, 4.0),)), spacing, count)
    for dt in np.diff(_lattice_grid(spacing, t, t, 0.01)):
        if control:
            _variance_one_step(flow, float(dt), rng)
        else:
            flow.step(float(dt), rng)
    inside = (flow.pos >= -1.0) & (flow.pos < 1.0)
    return np.bincount(flow.replica[inside], minlength=count).astype(float)


class TestArratiaDensity:
    """Coalescing Brownian motions from every point of R have 1/sqrt(pi t) clusters per unit length (Arratia, 1979).

    The lattice start on [-4, 4] stands in for R: at t <= 0.25 the window
    [-1, 1) lies 6 standard deviations inside.  At 2000 replicas the standard
    error of the count is about 0.5% of it at t = 0.05 and 0.8% at t = 0.25;
    at 8000 replicas the count at t = 0.05 reads a few tenths of a percent
    high, below this resolution.  The control's bridge misses merges and
    leaves 5-11% more clusters.
    """

    CASES = [(0.05, 0.05), (0.05, 0.25), (0.02, 0.05), (0.02, 0.25)]

    @pytest.mark.parametrize("spacing, t", CASES)
    def test_density(self, spacing, t):
        est = _mc_batched(partial(_clusters_in_window, spacing, t, False), 2000, seed=5, stream=0, batch=256)
        exact = 2.0 / math.sqrt(math.pi * t)
        assert abs(est.mean - exact) <= 3 * est.stderr, f"z={(est.mean - exact) / est.stderr:+.2f}"

    @pytest.mark.parametrize("spacing, t", CASES)
    def test_variance_one_bridge_fires(self, spacing, t):
        est = _mc_batched(partial(_clusters_in_window, spacing, t, True), 2000, seed=5, stream=0, batch=256)
        exact = 2.0 / math.sqrt(math.pi * t)
        assert (est.mean - exact) / est.stderr > 3.0
