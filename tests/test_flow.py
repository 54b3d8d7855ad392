import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from scbm.branching import BranchingParams, cumulant, cumulant_limit
from scbm.engine import MeasureSpec
from scbm.flow import FlowBoundary, ReplicaFlow, step_positions
from scbm.harness import LaplaceDualityConfig, ReflectedLaplaceConfig, _level_integrals, _levels

P21 = BranchingParams(gamma=2.0, beta=1.0)


def _paths(starts, count, rng, steps, t, boundary=None):
    """Values of ``count`` replicas of the paths from ``starts`` at each of ``steps`` grid times after 0.

    Returns ``(values, merged)``: values[k, r, i] is path i of replica r
    after step k (k = 0 holds the starts) and merged[k, r, i] tells whether
    paths i and i + 1 of replica r share a cluster then.
    """
    m = len(starts)
    flow = ReplicaFlow(np.tile(starts, count), np.repeat(np.arange(count), m), count, boundary=boundary, members=True)
    values, merged = [], []
    for k in range(steps + 1):
        if k:
            flow.step(t / steps, rng)
        member = flow.member.reshape(count, m)
        values.append(flow.pos[member])
        merged.append(member[:, 1:] == member[:, :-1])
    return np.array(values), np.array(merged)


class TestCoalescingPaths:
    """Coalescing paths read through the member map of ``ReplicaFlow(members=True)``."""

    def test_grid_zero_returns_starts(self):
        flow = ReplicaFlow((0.0, 1.0), (0, 0), 1, members=True)
        assert np.array_equal(flow.pos[flow.member], [0.0, 1.0])

    def test_pair_merge_probability(self):
        # difference of two free paths is a variance-2 Brownian motion, so
        # P(merged by t) = 2 (1 - Phi(d / sqrt(2 t))); one replica per pair
        rng = np.random.default_rng(523)
        d, t = 1.0, 1.0
        total = 20_000
        _, merged = _paths((0.0, d), total, rng, 50, t)
        target = 2.0 * (1.0 - norm.cdf(d / math.sqrt(2.0 * t)))
        se = math.sqrt(target * (1.0 - target) / total)
        assert abs(merged[-1].mean() - target) <= 3.5 * se

    def test_monotone_and_merge_permanent(self):
        rng = np.random.default_rng(17)
        values, merged = _paths((-1.0, -0.5, 0.2, 1.5), 100, rng, 40, 1.0)
        assert np.all(np.diff(values, axis=2) >= 0.0)
        assert np.all(merged[1:] >= merged[:-1])
        gaps = np.diff(values, axis=2)
        assert np.all(gaps[merged] == 0.0)

    def test_equal_starts_merge_at_zero(self):
        values, merged = _paths((0.0, 0.0, 1.0), 1, np.random.default_rng(3), 10, 0.5)
        assert np.all(merged[:, 0, 0])
        assert np.all(values[:, 0, 0] == values[:, 0, 1])

    def test_absorbing_frozen_after_hit(self):
        rng = np.random.default_rng(29)
        bnd = FlowBoundary("absorbing", (0.0, 4.0))
        values, _ = _paths((1.0, 3.0), 200, rng, 80, 2.0, boundary=bnd)
        frozen_seen = 0
        for path in values.reshape(81, -1).T:
            hits = np.flatnonzero(np.isin(path, (0.0, 4.0)))
            if len(hits):
                frozen_seen += 1
                assert np.all(path[hits[0]:] == path[hits[0]])
        assert frozen_seen > 100

    def test_absorbing_start_on_barrier_frozen(self):
        bnd = FlowBoundary("absorbing", (0.0,))
        values, _ = _paths((0.0,), 1, np.random.default_rng(1), 20, 1.0, boundary=bnd)
        assert np.all(values == 0.0)

    def test_reflecting_sides_preserved(self):
        rng = np.random.default_rng(31)
        bnd = FlowBoundary("reflecting", (0.0, 4.0))
        values, _ = _paths((-1.0, 1.0, 3.0, 5.0), 100, rng, 50, 1.0, boundary=bnd)
        assert np.all(values[:, :, 0] <= 0.0)
        assert np.all((values[:, :, 1:3] >= 0.0) & (values[:, :, 1:3] <= 4.0))
        assert np.all(values[:, :, 3] >= 4.0)

    def test_reflecting_start_on_barrier_rejected(self):
        bnd = FlowBoundary("reflecting", (0.0,))
        with pytest.raises(ValueError):
            ReplicaFlow((0.0, 1.0), (0, 0), 1, boundary=bnd, members=True)

    def test_cross_barrier_pair_never_merges(self):
        rng = np.random.default_rng(37)
        bnd = FlowBoundary("reflecting", (0.0,))
        _, merged = _paths((-0.2, 0.2), 200, rng, 50, 1.0, boundary=bnd)
        assert not np.any(merged)


class TestReplicaIsolation:
    """Replicas stacked in one system by replica id stay independent."""

    def test_identical_replicas_never_merge_with_each_other(self):
        # every replica starts from the same local points under the same
        # barriers; adjacent replicas' edge clusters sit at equal or inverted
        # local positions, and frozen clusters share barrier values
        rng = np.random.default_rng(53)
        starts = np.array([-0.3, 0.2, 0.6, 1.4])
        for bnd in (None, FlowBoundary("absorbing", (0.0, 1.0)), FlowBoundary("reflecting", (0.0, 1.0))):
            flow = ReplicaFlow(np.tile(starts, 8), np.repeat(np.arange(8), 4), 8, boundary=bnd, members=True)
            for _ in range(200):
                flow.step(0.01, rng)
                assert np.array_equal(np.unique(flow.replica), np.arange(8))
                assert np.array_equal(flow.replica[flow.member], np.repeat(np.arange(8), 4))

    def test_frozen_clusters_of_two_replicas_stay_apart(self):
        bnd = FlowBoundary("absorbing", (0.0,))
        values = np.array([0.0, 0.0])
        rng = np.random.default_rng(0)
        out = step_positions(values, values.copy(), 0.1, rng, boundary=bnd, replica=np.array([0, 1]))
        assert np.array_equal(out[0], [0.0, 0.0])
        assert np.array_equal(out[3], [0, 1])

    def test_barriers_act_on_local_positions(self):
        rng = np.random.default_rng(59)
        absorbing = ReplicaFlow(np.full(50, 0.02), np.arange(50), 50, boundary=FlowBoundary("absorbing", (0.0,)))
        for _ in range(100):
            absorbing.step(0.01, rng)
        # every replica starts next to its own barrier: nearly all are frozen at it
        assert np.sum(absorbing.frozen == 0.0) >= 45
        assert np.all(absorbing.pos[absorbing.frozen == 0.0] == 0.0)

        starts = np.tile([-0.1, 0.1], 50)
        bnd = FlowBoundary("reflecting", (0.0,))
        reflecting = ReplicaFlow(starts, np.repeat(np.arange(50), 2), 50, boundary=bnd, members=True)
        for _ in range(100):
            reflecting.step(0.01, rng)
            paths = reflecting.pos[reflecting.member].reshape(50, 2)
            assert np.all(paths[:, 0] <= 0.0) and np.all(paths[:, 1] >= 0.0)

    def test_output_replica_is_that_of_the_members(self):
        rng = np.random.default_rng(61)
        for _ in range(200):
            count = int(rng.integers(1, 6))
            replica = np.sort(rng.integers(0, count, 12))
            values = np.concatenate([np.sort(rng.normal(0.0, 0.3, int(np.sum(replica == r)))) for r in range(count)])
            new_values, _, ids, new_replica = step_positions(values, np.full(12, np.nan), 0.05, rng, replica=replica)
            assert np.array_equal(new_replica[ids], replica)
            for r in range(count):
                assert np.all(np.diff(new_values[new_replica == r]) > 0)


class TestObservedMasses:
    """Masses ride the flow unsampled and make one transition per observation."""

    def test_extinction_and_mean_after_many_steps(self):
        # three clusters of total mass x per replica, stepped k times, observed
        # once: by additivity the replica total is one time-T transition from x
        rng = np.random.default_rng(71)
        count, k, dt, x = 20_000, 10, 0.05, 1.0
        flow = ReplicaFlow(
            np.tile([-0.5, 0.0, 0.5], count),
            np.repeat(np.arange(count), 3),
            count,
            masses=np.tile([0.2, 0.3, 0.5], count),
            params=P21,
        )
        for _ in range(k):
            flow.step(dt, rng)
        flow.observe(rng)
        totals = np.bincount(flow.replica, weights=flow.mass, minlength=count)
        dead = np.mean(totals == 0.0)
        target = math.exp(-x * cumulant_limit(P21, k * dt))
        assert abs(dead - target) <= 3 * math.sqrt(target * (1 - target) / count)
        assert abs(totals.mean() - x) <= 3 * totals.std(ddof=1) / math.sqrt(count)

    def test_masses_add_across_merges(self):
        # two clusters a hair apart merge in one long step with near certainty
        rng = np.random.default_rng(73)
        count = 200
        flow = ReplicaFlow(
            np.tile([-1e-6, 1e-6], count),
            np.repeat(np.arange(count), 2),
            count,
            masses=np.tile([0.3, 0.7], count),
            params=P21,
        )
        flow.step(1.0, rng)
        merged = np.bincount(flow.replica, minlength=count) == 1
        assert merged.sum() >= count - 2
        assert np.allclose(flow.mass[merged[flow.replica]], 1.0)
        assert np.allclose(np.bincount(flow.replica, weights=flow.mass, minlength=count), 1.0)

    def test_dead_clusters_dropped_only_by_observe(self):
        # small masses over a long time: nearly every cluster dies, but only
        # the observation removes them
        rng = np.random.default_rng(79)
        starts = np.linspace(-20.0, 20.0, 41)
        flow = ReplicaFlow(starts, np.zeros(41, dtype=np.int64), 1, masses=np.full(41, 0.01), params=P21)
        for _ in range(20):
            before = len(flow.pos)
            flow.step(0.5, rng)
            assert np.all(flow.mass > 0)
            assert flow.mass.sum() == pytest.approx(0.41)
            assert len(flow.pos) <= before
        alive = len(flow.pos)
        flow.observe(rng)
        assert len(flow.pos) < alive
        assert len(flow.pos) == len(flow.mass) == len(flow.replica) == len(flow.frozen)
        assert np.all(flow.mass > 0)
        assert flow.pending == 0.0

    def test_charged_raises_while_masses_pending(self):
        rng = np.random.default_rng(83)
        flow = ReplicaFlow([0.0, 1.0], [0, 0], 1, masses=[1.0, 1.0], params=P21)
        flow.charged(-1.0, 1.0)
        flow.step(0.1, rng)
        with pytest.raises(RuntimeError, match="observe"):
            flow.charged(-1.0, 1.0)
        flow.observe(rng)
        flow.charged(-1.0, 1.0)
        # without masses nothing is pending
        paths = ReplicaFlow([0.0, 1.0], [0, 0], 1)
        paths.step(0.1, rng)
        paths.charged(-1.0, 1.0)


class TestStepFunction:
    """The step function h = sum_j c_j 1{lo_j < x <= hi_j} that the level paths carry, as the harness evaluates it."""

    def test_half_open_convention(self):
        h = _levels(np.array([0.0, 0.5, 1.0, 1.5]), ((0.0, 1.0),), (2.0,))
        assert h.tolist() == [0.0, 2.0, 2.0, 0.0]

    def test_collapsed_pair_is_empty(self):
        assert _levels(np.array([1.0]), ((1.0, 1.0),), (3.0,)).tolist() == [0.0]

    def test_overlap_stacks(self):
        assert _levels(np.array([1.5]), ((0.0, 2.0), (1.0, 3.0)), (1.0, 2.0)).tolist() == [3.0]

    def test_negative_coefficient_rejected(self):
        # the checks run when a config that carries a step function is built
        mu = MeasureSpec(intervals=((-2.0, 2.0),))
        bad = (
            (((0.0, 1.0),), (-1.0,)),  # negative coefficient
            (((1.0, 0.0),), (1.0,)),  # unordered pair
            (((0.0, 1.0), (0.5, 1.5)), (1.0,)),  # one coefficient for two pairs
        )
        for pairs, coefficients in bad:
            with pytest.raises(ValueError):
                LaplaceDualityConfig(params=P21, t=1.0, mu=mu, pairs=pairs, coefficients=coefficients, n=10)
            with pytest.raises(ValueError):
                ReflectedLaplaceConfig(
                    params=P21, barriers=(-3.0, 3.0), t=1.0, mu=mu, pairs=pairs, coefficients=coefficients, n=10
                )

    def test_rows_carry_their_own_pairs(self):
        # one step function per row of points, as for a batch of evolved level paths
        pairs = np.array([[[0.0, 1.0]], [[2.0, 3.0]]])
        h = _levels(np.array([[0.5, 2.5], [0.5, 2.5]]), pairs, (4.0,))
        assert h.tolist() == [[4.0, 0.0], [0.0, 4.0]]


def _integral(pairs, coefficients, intervals, atoms=()):
    """<mu, u_1(h)> under P21 for one step function, through the batched right side."""
    mu = MeasureSpec(intervals=tuple(intervals), atoms=tuple(atoms))
    return float(_level_integrals(P21, 1.0, np.array([pairs], dtype=float).reshape(1, -1, 2), coefficients, mu)[0])


class TestStepIntegral:
    def test_zero_coefficients(self):
        assert _integral(((0.0, 1.0),), (0.0,), [(-5.0, 5.0)]) == 0.0

    def test_single_pair_hand_value(self):
        # one interval of length 2 inside the domain at level 1
        expected = cumulant(P21, 1.0, 1.0) * 2.0
        assert _integral(((-1.0, 1.0),), (1.0,), [(-5.0, 5.0)]) == pytest.approx(expected, abs=1e-12)

    def test_merged_pair_contributes_nothing(self):
        assert _integral(((0.5, 0.5),), (4.0,), [(-5.0, 5.0)], atoms=[(0.5, 1.0)]) == 0.0

    def test_partial_overlap_with_domain(self):
        expected = cumulant(P21, 1.0, 1.0) * 1.0  # only [0, 1] inside
        assert _integral(((-1.0, 1.0),), (1.0,), [(0.0, 5.0)]) == pytest.approx(expected, abs=1e-12)

    def test_atoms_read_the_closed_right_end(self):
        # an atom at hi is inside ]lo, hi], one at lo is not
        expected = 0.5 * cumulant(P21, 1.0, 2.0)
        assert _integral(((-1.0, 1.0),), (2.0,), [], atoms=[(-1.0, 3.0), (1.0, 0.5)]) == expected

    @settings(max_examples=60, deadline=None)
    @given(
        points=st.lists(st.floats(-3.0, 4.0), min_size=2, max_size=6),
        coeffs=st.lists(st.floats(0.0, 3.0), min_size=3, max_size=3),
    )
    def test_against_riemann_oracle(self, points, coeffs):
        pts = sorted(points)
        pairs = []
        i = 0
        while i + 1 < len(pts):
            pairs.append((pts[i], pts[i + 1]))
            i += 2
        coefficients = tuple(coeffs[: len(pairs)])
        exact = _integral(pairs, coefficients, [(-3.5, 4.5)])
        xs = np.linspace(-3.5 + 5e-5, 4.5 - 5e-5, 80_000)
        riemann = float(np.sum(cumulant(P21, 1.0, _levels(xs, pairs, coefficients))) * (8.0 / 80_000))
        assert exact == pytest.approx(riemann, abs=2e-3)


class TestDiffusiveScaling:
    def test_lattice_merge_times_converge_to_brownian(self):
        # two lattice walkers at continuum gap 1, jump rate k, space / sqrt(k):
        # the merge-time law approaches the Brownian pair's first-meeting law
        k = 400
        lattice_gap = int(round(math.sqrt(k)))  # continuum distance 1.0
        rate = 2.0 * k  # difference walk jump rate
        replicas, horizon = 10_000, 1.0
        rng = np.random.default_rng(4019)
        max_jumps = 1400
        taus = np.full(replicas, np.inf)
        chunk = 2000
        for lo in range(0, replicas, chunk):
            m = min(chunk, replicas - lo)
            steps = rng.choice(np.array([-1, 1], dtype=np.int8), size=(m, max_jumps))
            walk = np.cumsum(steps, axis=1, dtype=np.int32)
            hit = walk <= -lattice_gap
            any_hit = hit.any(axis=1)
            first = np.argmax(hit, axis=1) + 1
            jumps = first[any_hit]
            taus[lo : lo + m][any_hit] = rng.gamma(jumps, 1.0 / rate)
        finite = np.sort(taus[taus <= horizon])
        ecdf_grid = np.concatenate((finite, [horizon]))
        brownian_cdf = 2.0 * (1.0 - norm.cdf(1.0 / np.sqrt(2.0 * ecdf_grid)))
        empirical_hi = np.concatenate((np.arange(1, len(finite) + 1), [len(finite)])) / replicas
        empirical_lo = np.concatenate((np.arange(0, len(finite)), [len(finite)])) / replicas
        ks = max(
            float(np.max(np.abs(empirical_hi - brownian_cdf))),
            float(np.max(np.abs(empirical_lo - brownian_cdf))),
        )
        assert ks < 0.05
