import math

import numpy as np
import pytest
from scipy.stats import norm

from scbm.branching import BranchingParams
from scbm.flow import (
    FlowBoundary,
    MeasureSpec,
    ReplicaFlow,
    _region_ids,
    _resolve_clusters,
    coalescing_pair,
    step_positions,
)
from scbm.harness import LaplaceDualityConfig

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


class TestCoalescingPair:
    """One exact step of two coalescing paths, against its law and against the grid flow."""

    def test_merge_probability_and_mean_gap(self):
        # P(merged by t) = erfc(d / (2 sqrt t)), and the gap, 0 once merged, is a martingale: E = d
        d, t, n = 1.0, 1.0, 100_000
        x, y = coalescing_pair(-0.5, 0.5, t, np.random.default_rng(2101), n)
        gap = y - x
        p = math.erfc(d / (2.0 * math.sqrt(t)))
        assert abs((gap == 0.0).mean() - p) <= 3.0 * math.sqrt(p * (1.0 - p) / n)
        assert abs(gap.mean() - d) <= 3.0 * gap.std(ddof=1) / math.sqrt(n)
        assert np.all(gap >= 0.0)

    def test_agrees_with_the_grid_flow(self):
        # two clusters stepped by step_positions at dt = t / 200: merged share, mean gap and
        # P(gap > d) within 3 combined SE of the one-step pair, whose draws are cheap enough
        # to make it the near-noiseless side
        d, t, n = 1.0, 1.0, 20_000
        values, _ = _paths((-0.5, 0.5), n, np.random.default_rng(2102), 200, t)
        grid = values[-1, :, 1] - values[-1, :, 0]
        x, y = coalescing_pair(-0.5, 0.5, t, np.random.default_rng(2103), 50 * n)
        exact = y - x
        for read in (lambda g: g == 0.0, lambda g: g, lambda g: g > d):
            a, b = read(grid).astype(float), read(exact).astype(float)
            se = math.hypot(a.std(ddof=1) / math.sqrt(len(a)), b.std(ddof=1) / math.sqrt(len(b)))
            assert abs(a.mean() - b.mean()) <= 3.0 * se, (a.mean() - b.mean()) / se

    @pytest.mark.parametrize("r, wider", [(1.0, 1.001), (0.5, 3.0), (0.0, 1e-9), (2.0, 2.0)])
    def test_wider_start_never_ends_narrower(self, r, wider):
        # common draws: the wider pair contains the narrower one, and merges only if it does
        n, t = 50_000, 4.0
        x, y = coalescing_pair(-r, r, t, np.random.default_rng(2104), n)
        xw, yw = coalescing_pair(-wider, wider, t, np.random.default_rng(2104), n)
        assert np.all(yw - xw >= y - x)
        assert np.all((y > x) <= (xw <= x) & (yw >= y))
        assert np.all((yw == xw) <= (y == x))

    def test_draws_do_not_depend_on_the_starts(self):
        a, b = np.random.default_rng(5), np.random.default_rng(5)
        coalescing_pair(-1.0, 1.0, 2.0, a, 10)
        coalescing_pair(-7.0, 30.0, 2.0, b, 10)
        assert a.random() == b.random()

    def test_constant_array_starts_equal_the_scalar_call(self):
        scalar = coalescing_pair(-0.5, 1.5, 2.0, np.random.default_rng(2105), 1000)
        arrays = coalescing_pair(np.full(1000, -0.5), np.full(1000, 1.5), 2.0, np.random.default_rng(2105), 1000)
        for a, b in zip(scalar, arrays):
            assert np.array_equal(a, b)

    def test_array_starts_merge_per_gap(self):
        # one pair per start gap, interleaved: each gap's merged share is erfc(d / (2 sqrt t))
        gaps, t, n = np.array([0.25, 1.0, 2.5]), 1.0, 40_000
        d = np.tile(gaps, n)
        lo = np.tile([-3.0, 0.0, 7.0], n)
        x, y = coalescing_pair(lo, lo + d, t, np.random.default_rng(2106), len(d))
        merged = (x == y).reshape(n, len(gaps))
        for k, gap in enumerate(gaps):
            p = math.erfc(gap / (2.0 * math.sqrt(t)))
            assert abs(merged[:, k].mean() - p) <= 3.0 * math.sqrt(p * (1.0 - p) / n), gap

    def test_equal_starts_merge_and_huge_gaps_do_not(self):
        rng = np.random.default_rng(6)
        x, y = coalescing_pair(0.0, 0.0, 1.0, rng, 1000)
        assert np.array_equal(x, y)
        x, y = coalescing_pair(-1e300, 1e300, 1.0, rng, 1000)
        assert np.all(y - x > 1e300)


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
        out = step_positions(values, 0.1, rng, boundary=bnd, replica=np.array([0, 1]))
        assert np.array_equal(out[0], [0.0, 0.0])
        assert np.array_equal(out[2], [0, 1])

    def test_barriers_act_on_local_positions(self):
        rng = np.random.default_rng(59)
        absorbing = ReplicaFlow(np.full(50, 0.02), np.arange(50), 50, boundary=FlowBoundary("absorbing", (0.0,)))
        for _ in range(100):
            absorbing.step(0.01, rng)
        # every replica starts next to its own barrier: nearly all are frozen at it, and the rest stay above it
        assert np.sum(np.isin(absorbing.pos, (0.0,))) >= 45
        assert np.all(absorbing.pos >= 0.0)

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
            new_values, ids, new_replica = step_positions(values, 0.05, rng, replica=replica)
            assert np.array_equal(new_replica[ids], replica)
            for r in range(count):
                assert np.all(np.diff(new_values[new_replica == r]) > 0)


def _reference_step_positions(values, frozen, dt, rng, boundary=None, replica=None):
    """The step as it was before the free path skipped the frozen bookkeeping, kept as the reference."""
    k = len(values)
    if replica is None:
        replica = np.zeros(k, dtype=np.int64)
    free = np.isnan(frozen)
    noise = rng.normal(0.0, math.sqrt(dt), int(free.sum()))
    if len(noise) == k:
        proposals = values + noise
    else:
        proposals = values.copy()
        proposals[free] += noise
    new_frozen = frozen.copy()

    if boundary is not None and boundary.kind == "reflecting":
        regions = _region_ids(values, boundary.points)
        out = proposals.copy()
        lo_pts = [-math.inf] + list(boundary.points)
        hi_pts = list(boundary.points) + [math.inf]
        for rid in np.unique(regions):
            sel = regions == rid
            lo, hi = lo_pts[rid], hi_pts[rid]
            v = out[sel]
            if lo == -math.inf:
                v = hi - np.abs(hi - v)
            elif hi == math.inf:
                v = lo + np.abs(v - lo)
            else:
                period = 2.0 * (hi - lo)
                z = np.mod(v - lo, period)
                v = lo + np.minimum(z, period - z)
            out[sel] = v
        proposals = out
    elif boundary is not None and boundary.kind == "absorbing":
        regions = _region_ids(values, boundary.points)
        hit_dist = np.full(k, np.inf)
        hit_at = np.full(k, np.nan)
        for bpt in boundary.points:
            e0 = np.abs(values - bpt)
            e1 = np.abs(proposals - bpt)
            crossed = (values - bpt) * (proposals - bpt) <= 0.0
            with np.errstate(over="ignore"):
                bridge = np.exp(-2.0 * e0 * e1 / dt)
            hit = free & (crossed | (rng.random(k) < bridge))
            better = hit & (e0 < hit_dist)
            hit_dist[better] = e0[better]
            hit_at[better] = bpt
        newly = free & ~np.isnan(hit_at)
        new_frozen[newly] = hit_at[newly]
        proposals[newly] = hit_at[newly]
        proposals[~free] = frozen[~free]

    if k <= 1:
        return proposals, new_frozen, np.arange(k), replica

    d0 = values[1:] - values[:-1]
    d1 = proposals[1:] - proposals[:-1]
    same = replica[1:] == replica[:-1]
    free_pair = same & np.isnan(new_frozen[1:]) & np.isnan(new_frozen[:-1])
    if boundary is not None:
        free_pair &= regions[1:] == regions[:-1]
    with np.errstate(over="ignore"):
        bridge = np.exp(-d0 * np.maximum(d1, 0.0) / dt)
    merge = np.where(
        free_pair,
        (d1 <= 0.0) | (rng.random(k - 1) < bridge),
        same & (proposals[1:] == proposals[:-1]),
    )
    return _reference_resolve_clusters(proposals, new_frozen, merge, replica)


def _reference_resolve_clusters(proposals, frozen, merge, replica):
    while True:
        starts = np.concatenate(([True], ~merge))
        ids = np.cumsum(starts) - 1
        boundaries = np.flatnonzero(starts)
        lo = np.minimum.reduceat(proposals, boundaries)
        hi = np.maximum.reduceat(proposals, boundaries)
        baked = np.fmin.reduceat(frozen, boundaries)
        vals = np.where(np.isnan(baked), 0.5 * (lo + hi), baked)
        reps = replica[boundaries]
        inverted = (vals[1:] < vals[:-1]) & (reps[1:] == reps[:-1])
        if not np.any(inverted):
            return vals, baked, ids, reps
        bad_pairs = np.flatnonzero(inverted)
        pair_index = boundaries[bad_pairs + 1] - 1
        merge = merge.copy()
        merge[pair_index] = True


def _random_system(rng, boundary):
    """Clusters of 1-6 replicas, 2 to about 5,000 in all, sorted by (replica, position).

    Every replica draws its own positions, so neighbours across replicas
    mostly have negative gaps; under an absorbing barrier some clusters start
    frozen on it.
    """
    count = int(rng.integers(1, 7))
    total = int(np.exp(rng.uniform(np.log(2), np.log(5000))))
    sizes = np.bincount(rng.integers(0, count, total), minlength=count)
    spread = float(rng.choice([0.05, 1.0, 4.0]))
    values, replica = [], []
    for r, size in enumerate(sizes):
        pos = rng.normal(0.0, spread, size)
        if boundary is not None:
            pos = pos[~np.isin(pos, boundary.points)]
            if boundary.kind == "absorbing":
                pos = np.concatenate((pos, [p for p in boundary.points if rng.random() < 0.5]))
        pos = np.unique(pos)
        values.append(pos)
        replica.append(np.full(len(pos), r, dtype=np.int64))
    values, replica = np.concatenate(values), np.concatenate(replica)
    frozen = np.full(len(values), np.nan)
    if boundary is not None and boundary.kind == "absorbing":
        on_bar = np.isin(values, boundary.points)
        frozen[on_bar] = values[on_bar]
    return values, frozen, replica


@pytest.mark.filterwarnings("error")  # an overflow warning means a guard was lost
class TestStepMatchesReference:
    """``step_positions`` and ``_resolve_clusters`` give the reference's outputs and draws, bit for bit.

    The reference carries a ``frozen`` array; at every step its frozen clusters are exactly the output
    clusters on an absorbing barrier, sitting there.
    """

    BOUNDARIES = [
        None,
        FlowBoundary("reflecting", (0.0,)),
        FlowBoundary("reflecting", (-0.5, 0.7)),
        FlowBoundary("absorbing", (0.0,)),
        FlowBoundary("absorbing", (-0.5, 0.7)),
    ]

    @staticmethod
    def _assert_same(new, ref, boundary=None):
        """``new`` is (values, ids, replica); ``ref`` adds the reference's frozen array after the values."""
        assert len(new) == 3
        for a, b in zip(new, (ref[0], ref[2], ref[3])):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        points = boundary.points if boundary is not None and boundary.kind == "absorbing" else ()
        on_barrier = np.isin(new[0], points)
        assert np.array_equal(~np.isnan(ref[1]), on_barrier)
        assert np.array_equal(ref[1][on_barrier], new[0][on_barrier])

    @pytest.mark.parametrize("boundary", BOUNDARIES, ids=lambda b: f"{b.kind}{len(b.points)}" if b else "free")
    def test_steps_match(self, boundary):
        pick = np.random.default_rng(811)
        for trial in range(40):
            values, frozen, replica = _random_system(pick, boundary)
            dt = float(pick.choice([1e-4, 0.01, 0.25]))
            rng, rng_ref = np.random.default_rng(trial), np.random.default_rng(trial)
            state, state_ref = (values, replica), (values.copy(), frozen, replica.copy())
            for _ in range(3):
                (v, r), (v_ref, f_ref, r_ref) = state, state_ref
                out = step_positions(v, dt, rng, boundary=boundary, replica=r)
                ref = _reference_step_positions(v_ref, f_ref, dt, rng_ref, boundary=boundary, replica=r_ref)
                self._assert_same(out, ref, boundary)
                state, state_ref = (out[0], out[2]), (ref[0], ref[1], ref[3])
            assert rng.bit_generator.state == rng_ref.bit_generator.state

    def test_one_replica_without_replica_ids(self):
        for boundary in self.BOUNDARIES:
            values = np.sort(np.random.default_rng(5).normal(0.0, 1.0, 300))
            values = values[~np.isin(values, boundary.points)] if boundary is not None else values
            frozen = np.full(len(values), np.nan)
            rng, rng_ref = np.random.default_rng(6), np.random.default_rng(6)
            self._assert_same(
                step_positions(values, 0.01, rng, boundary=boundary),
                _reference_step_positions(values, frozen, 0.01, rng_ref, boundary=boundary),
                boundary,
            )
            assert rng.bit_generator.state == rng_ref.bit_generator.state

    def test_resolve_clusters_matches(self):
        # random merges over unsorted proposals force the inversion repair, with and without stuck members
        rng = np.random.default_rng(97)
        for _ in range(100):
            k = int(rng.integers(2, 2000))
            replica = np.sort(rng.integers(0, 4, k))
            proposals = rng.normal(0.0, 1.0, k)
            merge = rng.random(k - 1) < 0.3
            stuck = np.where(rng.random(k) < 0.1, proposals, np.nan)
            none = np.full(k, np.nan)
            for new, ref in ((None, none), (none, none), (stuck, stuck)):
                got = _resolve_clusters(proposals, new, merge, replica)
                want = _reference_resolve_clusters(proposals, ref, merge, replica)
                assert len(got) == 3
                for a, b in zip(got, (want[0], want[2], want[3])):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestObservedMasses:
    """The masses the readers observe: the start mass of each cluster's members, added on every merge."""

    def test_masses_add_across_merges(self):
        # two clusters a hair apart merge in one long step with near certainty
        rng = np.random.default_rng(73)
        count = 200
        flow = ReplicaFlow(
            np.tile([-1e-6, 1e-6], count),
            np.repeat(np.arange(count), 2),
            count,
            masses=np.tile([0.3, 0.7], count),
        )
        flow.step(1.0, rng)
        merged = np.bincount(flow.replica, minlength=count) == 1
        assert merged.sum() >= count - 2
        assert np.allclose(flow.mass[merged[flow.replica]], 1.0)
        assert np.allclose(np.bincount(flow.replica, weights=flow.mass, minlength=count), 1.0)

    def test_window_mass_reads_and_drops(self):
        flow = ReplicaFlow([-2.0, 0.0, 1.0, 0.5, 3.0], [0, 0, 0, 2, 2], 3, masses=[0.1, 0.2, 0.4, 0.8, 1.6])
        assert flow.window_mass(0.0, 1.0).tolist() == pytest.approx([0.6, 0.0, 0.8])
        assert len(flow.pos) == 5  # reading alone keeps every cluster
        assert flow.window_mass(0.0, 1.0, drop=True).tolist() == pytest.approx([0.6, 0.0, 0.8])
        assert flow.pos.tolist() == [-2.0, 3.0] and flow.replica.tolist() == [0, 2]
        assert flow.mass.tolist() == [0.1, 1.6]
        assert flow.window_mass(0.0, 1.0).tolist() == [0.0, 0.0, 0.0]


class TestStepFunction:
    """The step function h0 = c 1{lo < x <= hi} that the Laplace left side reads, as the config evaluates it."""

    MU = MeasureSpec(intervals=((-2.0, 2.0),))

    def test_half_open_convention(self):
        cfg = LaplaceDualityConfig(params=P21, t=1.0, mu=self.MU, pair=(0.0, 1.0), coefficient=2.0, n=10)
        assert cfg.level(np.array([0.0, 0.5, 1.0, 1.5])).tolist() == [0.0, 2.0, 2.0, 0.0]

    def test_collapsed_pair_is_empty(self):
        cfg = LaplaceDualityConfig(params=P21, t=1.0, mu=self.MU, pair=(1.0, 1.0), coefficient=3.0, n=10)
        assert cfg.level(np.array([1.0])).tolist() == [0.0]

    def test_negative_coefficient_rejected(self):
        # the checks run when a config that carries a step function is built
        bad = (
            ((0.0, 1.0), -1.0),  # negative coefficient
            ((1.0, 0.0), 1.0),  # unordered pair
        )
        for pair, coefficient in bad:
            with pytest.raises(ValueError):
                LaplaceDualityConfig(params=P21, t=1.0, mu=self.MU, pair=pair, coefficient=coefficient, n=10)
            with pytest.raises(ValueError):
                LaplaceDualityConfig(
                    params=P21, t=1.0, mu=self.MU, pair=pair, coefficient=coefficient, n=10, barriers=(-3.0, 3.0)
                )


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
