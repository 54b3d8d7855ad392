import math
import time
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from scbm.branching import BranchingParams, cumulant, cumulant_limit, sample_transition
from scbm.flow import MeasureSpec, ReplicaFlow, coalescing_pair, init_ensemble
from scbm.harness import (
    GapConfig,
    LaplaceDualityConfig,
    MCEstimate,
    VacancyBoundConfig,
    _absorbing_lhs,
    _laplace_lhs_batch,
    _laplace_rhs_batch,
    _lattice_grid,
    _level_paths,
    _mc_batched,
    _never_charged,
    _report,
    _uniform_grid,
    _vacancy_rhs_batch,
    absorbing_extinction_check,
    interval_vacancy_bound_check,
    laplace_duality_check,
    occupation_duality_check,
    reflected_gap_vacancy_exact,
    truncation_escape_bound,
)

P21 = BranchingParams(gamma=2.0, beta=1.0)
P_HALF = BranchingParams(gamma=2.0, beta=0.5)

LAPLACE_BASE = LaplaceDualityConfig(
    params=P21,
    t=1.0,
    mu=MeasureSpec(intervals=((-2.0, 2.0),)),
    pair=(-1.0, 1.0),
    coefficient=1.0,
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
        lhs = MCEstimate(mean=0.5, stderr=0.01)
        rhs = MCEstimate(mean=0.52, stderr=0.01)
        fwd = _report("x", lhs, rhs)
        rev = _report("x", rhs, lhs)
        assert fwd.z_score == pytest.approx(-rev.z_score)
        assert fwd.verdict == rev.verdict

    def test_zero_spread_z_keeps_the_sign(self):
        below = _report("x", MCEstimate(mean=0.0, stderr=0.0), 0.5)
        above = _report("x", MCEstimate(mean=1.0, stderr=0.0), 0.5)
        assert below.z_score == -math.inf and above.z_score == math.inf
        assert below.verdict == above.verdict == "inconsistent"
        assert _report("x", MCEstimate(mean=0.5, stderr=0.0), 0.5).z_score == 0.0

    def test_one_sided_verdict_at_three_spreads_below(self):
        # a one-sided bound fails only when lhs sits more than 3 pooled SE below rhs
        rhs = MCEstimate(mean=0.5, stderr=0.03)
        for offset, verdict in ((-0.149, "one_sided_ok"), (-0.151, "inconsistent"), (0.4, "one_sided_ok")):
            lhs = MCEstimate(mean=0.5 + offset, stderr=0.04)
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
    """The lattice grid: geometric steps out of the first one, easing into uniform steps of ``dt``."""

    def test_monotone_and_covers(self):
        g = _lattice_grid(0.1, 1.0, 2.0, 0.05)
        assert g[0] == 0.0 and g[1] == pytest.approx(0.01) and g[-1] == 2.0
        assert np.all(np.diff(g) > 0)
        assert np.max(np.diff(g)) <= 0.05 + 1e-12
        assert np.diff(g)[1] == pytest.approx(0.25 * g[1])  # geometric growth out of the first step

    def test_end_before_the_first_step_is_one_step(self):
        assert _lattice_grid(0.1, 1.0, 0.004, 0.05).tolist() == [0.0, 0.004]

    @pytest.mark.parametrize("dt", [0.0, -0.1, math.inf, math.nan])
    def test_bad_step_rejected(self, dt):
        with pytest.raises(ValueError, match="time step"):
            _lattice_grid(0.1, 1.0, 2.0, dt)


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
        cfg = replace(LAPLACE_BASE, coefficient=0.0, n=50)
        rep = laplace_duality_check(cfg, seed=5)
        assert rep.lhs.mean == 1.0
        assert rep.rhs_mean == 1.0
        assert rep.verdict == "consistent"

    def test_degenerate_pair_contributes_nothing(self):
        cfg = replace(LAPLACE_BASE, pair=(0.5, 0.5), n=50)
        rep = laplace_duality_check(cfg, seed=7)
        assert rep.lhs.mean == 1.0
        assert rep.rhs_mean == 1.0

    def test_main_config_consistent(self):
        rep = laplace_duality_check(LAPLACE_BASE, seed=101)
        assert rep.verdict == "consistent", f"z={rep.z_score}"

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

    def test_three_intervals_consistent(self):
        mu = MeasureSpec(intervals=((-2.0, -0.5), (-0.25, 0.25), (0.5, 2.0)))
        rep = laplace_duality_check(replace(LAPLACE_BASE, mu=mu), seed=109)
        assert rep.verdict == "consistent", f"z={rep.z_score}"


def _scalar_rhs(params, t, pair, coefficient, mu):
    """exp(-<mu, u_t(h)>) for one evolved level pair, in plain Python piece by piece."""

    def h(x):
        return coefficient if pair[0] < x <= pair[1] else 0.0

    total = 0.0
    for a, b in mu.intervals:
        edges = [a] + sorted(x for x in set(pair) if a < x < b) + [b]
        for e0, e1 in zip(edges, edges[1:]):
            total += cumulant(params, t, h(0.5 * (e0 + e1))) * (e1 - e0)
    return math.exp(-total)


def _two_sample_z(a, b):
    se = math.hypot(a.std(ddof=1) / math.sqrt(len(a)), b.std(ddof=1) / math.sqrt(len(b)))
    return (a.mean() - b.mean()) / se


class TestBatchedRightSides:
    """The right sides of a whole batch at once against a per-replica evaluation of the same draws."""

    def test_laplace_rhs_matches_scalar(self):
        cfg = LaplaceDualityConfig(
            params=BranchingParams(gamma=2.0, beta=0.5),
            t=0.5,
            mu=MeasureSpec(intervals=((-3.0, -0.5), (0.05, 0.15), (0.2, 2.5))),
            pair=(-0.5, 1.5),
            coefficient=2.0,
            n=10,
        )
        for seed in range(5):
            values = _laplace_rhs_batch(cfg, cfg.params, np.random.default_rng(seed), 64)
            finals = zip(*coalescing_pair(*cfg.pair, cfg.t, np.random.default_rng(seed), 64))
            expected = [_scalar_rhs(cfg.params, cfg.t, row, cfg.coefficient, cfg.mu) for row in finals]
            assert np.max(np.abs(values - expected)) <= 1e-15

    def test_vacancy_rhs_matches_scalar(self):
        mu = MeasureSpec(intervals=((-3.0, -0.2), (-0.1, 0.05), (0.1, 3.0)))
        cfg = VacancyBoundConfig(params=P21, a=0.5, s1=0.3, s2=0.6, mu=mu, n=10)
        values = _vacancy_rhs_batch(cfg, np.random.default_rng(3), 256)
        rng = np.random.default_rng(3)
        x = np.abs(rng.normal(0.0, math.sqrt(0.3), 256))
        y = np.abs(rng.normal(0.0, math.sqrt(0.3), 256))
        finals = zip(*coalescing_pair(-x - 0.5, 0.5 + y, 0.3, rng, 256))
        theta = cumulant_limit(P21, 0.3)
        expected = [math.exp(-theta * mu.mass_in(float(lo), float(hi))) for lo, hi in finals]
        assert np.max(np.abs(values - expected)) <= 1e-15


class TestExactRightSides:
    """The free right sides read one exact coalescing pair: against the exact value, and against the grid flow."""

    def test_laplace_rhs_at_cli_defaults_reads_the_exact_value(self):
        # the one-pair right side at the scbm-duality defaults, by quadrature over the unmerged pair's law
        est = _mc_batched(partial(_laplace_rhs_batch, LAPLACE_BASE, P21), 100_000, seed=99, stream=1, batch=1024)
        assert abs(est.mean - 0.474305) <= 3 * est.stderr, (est.mean - 0.474305) / est.stderr

    @pytest.mark.parametrize("seed", [5, 6])
    def test_laplace_rhs_matches_the_grid_flow(self, seed):
        cfg, n = replace(LAPLACE_BASE, t=0.5, mu=MeasureSpec(intervals=((-2.0, 0.5), (1.0, 3.0)))), 10_000
        exact = _laplace_rhs_batch(cfg, P21, np.random.default_rng(seed), n)
        left, right = _level_paths(cfg.pair, n, cfg.t, cfg.dt, np.random.default_rng(seed + 100)).T
        grid = np.exp(-cumulant(P21, cfg.t, cfg.coefficient) * cfg.mu.mass_in(left, right))
        assert abs(_two_sample_z(exact, grid)) <= 3.0

    @pytest.mark.parametrize("seed", [7, 8])
    def test_vacancy_rhs_matches_the_grid_flow(self, seed):
        # the grid side draws the same half-normal starts, then steps each pair from its own starts
        cfg = VacancyBoundConfig(params=P21, a=0.5, s1=0.5, s2=1.0, mu=MeasureSpec(intervals=((-3.0, 3.0),)), n=10)
        n = 10_000
        exact = _vacancy_rhs_batch(cfg, np.random.default_rng(seed), n)
        rng = np.random.default_rng(seed + 100)
        x, y = np.abs(rng.normal(0.0, math.sqrt(cfg.s2 - cfg.s1), (2, n)))
        starts = np.column_stack((-x - cfg.a, cfg.a + y)).ravel()
        paths = ReplicaFlow(starts, np.repeat(np.arange(n), 2), n, members=True)
        for step in np.diff(_uniform_grid(cfg.s1, cfg.dt)):
            paths.step(float(step), rng)
        left, right = paths.pos[paths.member].reshape(n, 2).T
        grid = np.exp(-cumulant_limit(P21, cfg.s1) * cfg.mu.mass_in(left, right))
        assert abs(_two_sample_z(exact, grid)) <= 3.0


class TestAbsorbingExtinction:
    def test_zero_gap(self):
        # support touches the barriers: an edge point is frozen immediately
        cfg = GapConfig(window=(0.0, 3.0), c=0.0, t=1.0, n=50, spacing=0.5)
        rep = absorbing_extinction_check(cfg, seed=13)
        assert rep.rhs_mean == 0.0
        assert rep.lhs.mean == 0.0

    def test_wide_gap(self):
        cfg = GapConfig(window=(0.0, 3.0), c=10.0, t=1.0, n=50, margin=2.0, spacing=0.5)
        rep = absorbing_extinction_check(cfg, seed=17)
        assert rep.lhs.mean == 1.0
        assert rep.rhs_mean == pytest.approx(1.0, abs=1e-10)

    def test_unit_gap_consistent(self):
        cfg = GapConfig(window=(0.0, 3.0), c=1.0, t=1.0, n=2500, spacing=0.5)
        rep = absorbing_extinction_check(cfg, seed=19)
        assert rep.verdict == "consistent", f"z={rep.z_score}"

    def test_deterministic(self):
        cfg = GapConfig(window=(0.0, 3.0), c=1.0, t=0.5, n=100, spacing=0.5)
        assert absorbing_extinction_check(cfg, seed=3) == absorbing_extinction_check(cfg, seed=3)

    def test_batch_size_changes_speed_not_law(self):
        # a batch of one replica, the default batch and one large batch all
        # estimate the same vacancy probability
        cfg = GapConfig(window=(0.0, 3.0), c=1.0, t=1.0, n=0, spacing=0.5)
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
        # without branching the occupation equality is the absorbing reading on the window
        cfg = GapConfig(window=(-1.0, 1.0), c=1.0, t=1.0, n=2500)
        rep = absorbing_extinction_check(cfg, seed=23, label="occupation_duality_equality")
        assert rep.label == "occupation_duality_equality"
        assert rep.verdict == "consistent", f"z={rep.z_score}"

    def test_branching_one_sided(self):
        cfg = GapConfig(window=(-1.0, 1.0), c=1.0, t=1.0, n=2500)
        rep = occupation_duality_check(cfg, P21, seed=29)
        assert rep.verdict == "one_sided_ok"
        assert rep.lhs.mean >= rep.rhs_mean

    def test_short_horizon_both_full(self):
        cfg = GapConfig(window=(-1.0, 1.0), c=1.0, t=0.01, n=400)
        rep = occupation_duality_check(cfg, P21, seed=31)
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
    """The Laplace check with barriers: absorbed flow against reflected level paths."""

    def test_runs_and_flagged_approximate(self):
        cfg = replace(LAPLACE_BASE, n=1500, dt=5e-3, barriers=(-3.0, 3.0))
        rep = laplace_duality_check(cfg, seed=47)
        assert rep.label == "reflected_laplace_smoke" and rep.approx
        # smoke tolerance: grid-approximate joint law on the reflected side
        assert abs(rep.z_score) <= 5.0

    def test_levels_on_barrier_rejected(self):
        with pytest.raises(ValueError, match="barriers"):
            replace(LAPLACE_BASE, n=100, barriers=(-1.0, 1.0))


class _ScriptedFlow(ReplicaFlow):
    """A flow whose k-th step puts the clusters still in it at ``moves[k]``."""

    def __init__(self, moves, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.moves = iter(moves)

    def step(self, dt, rng):
        self.pos = np.asarray(next(self.moves), dtype=float)


class _CellFlow(ReplicaFlow):
    """A flow that records which start cells the exposure reader drops at each read, keeping the member map."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, members=True, **kwargs)
        self.dropped = []

    def window_mass(self, lo, hi, drop=False):
        inside = (self.pos >= lo) & (self.pos <= hi)
        alive = self.member >= 0
        cells = alive & inside[np.maximum(self.member, 0)]
        self.dropped.append(np.flatnonzero(cells))
        seen = super().window_mass(lo, hi, drop)
        renumber = np.cumsum(~inside) - 1
        self.member = np.where(alive & ~cells, renumber[np.maximum(self.member, 0)], -1)
        return seen

    def step(self, dt, rng):
        gone = self.member < 0
        self.member[gone] = 0  # any live index: step maps it, and it is reset below
        super().step(dt, rng)
        self.member[gone] = -1


class TestConditionalReaders:
    """The readers return the conditional expectation of the old sampled indicator given the flow."""

    def test_exposure_by_hand(self):
        # replica 0: clusters of start mass 0.3 and 0.7 enter [-1, 1] at the
        # reads at 0.5 and 2 (the read at 1.5 is skipped); replica 1 never does
        moves = ([0.0, 9.0, -7.0], [0.5, -7.0], [0.5, -7.0])
        flow = _ScriptedFlow(moves, [5.0, 9.0, -7.0], [0, 0, 1], 2, masses=[0.3, 0.7, 2.0])
        grid = np.array([0.0, 0.5, 1.5, 2.0])
        got = _never_charged(flow, grid, np.array([True, True, False, True]), (-1.0, 1.0), P_HALF, None)
        exposure = 0.3 * cumulant_limit(P_HALF, 0.5) + 0.7 * cumulant_limit(P_HALF, 2.0)
        assert got.tolist() == np.exp(-np.array([exposure, 0.0])).tolist()
        assert len(flow.pos) == 1  # both read clusters left the flow

    def test_cluster_in_window_at_start_gives_zero(self):
        flow = ReplicaFlow([0.0, 5.0], [0, 1], 2, masses=[0.1, 0.1])
        got = _never_charged(flow, np.array([0.0, 0.1]), np.ones(2, dtype=bool), (-1.0, 1.0), P21, np.random.default_rng(3))
        assert got[0] == 0.0 and not np.isnan(got[1])

    def test_exposure_matches_sampled_cells(self):
        # one seeded flow path; each dropped cell is dead at its first read in
        # the window with probability exp(-m u_T(inf)): K draws of every cell
        # form the old indicator, whose mean the reader must match
        mu = MeasureSpec(intervals=((-3.5, -1.5), (1.5, 3.5)))
        grid = _lattice_grid(0.1, 1.0, 1.0, 0.01)
        base = init_ensemble(mu, 0.1, 1)
        flow = _CellFlow(base.pos, base.replica, 1, masses=base.mass)
        mass = flow.mass[flow.member]
        p = _never_charged(flow, grid, np.ones(len(grid), dtype=bool), (-1.0, 1.0), P21, np.random.default_rng(11))[0]
        assert 0.05 < p < 0.95
        rng, k = np.random.default_rng(12), 20_000
        dead = np.ones(k, dtype=bool)
        for t, cells in zip(grid, flow.dropped):
            if len(cells):
                draws = sample_transition(P21, float(t), np.repeat(mass[cells], k), rng).reshape(len(cells), k)
                dead &= np.all(draws == 0.0, axis=0)
        assert sum(len(c) for c in flow.dropped) > 0
        assert abs(dead.mean() - p) <= 3 * math.sqrt(p * (1 - p) / k), f"sampled {dead.mean():.4f} reader {p:.4f}"

    @pytest.mark.parametrize("params", [P21, P_HALF])
    def test_laplace_matches_sampled_cells(self, params):
        cfg = replace(LAPLACE_BASE, params=params, spacing=0.1, n=2)
        value = _laplace_lhs_batch(cfg, np.random.default_rng(13), 1)[0]
        # the same flow path again, read per start cell through the member map
        base = init_ensemble(cfg.mu, cfg.spacing, 1)
        flow = ReplicaFlow(base.pos, base.replica, 1, masses=base.mass, members=True)
        rng = np.random.default_rng(13)
        for dt in np.diff(_lattice_grid(cfg.spacing, cfg.t, cfg.t, cfg.dt)):
            flow.step(float(dt), rng)
        h0 = cfg.level(flow.pos[flow.member])
        assert np.sum(base.mass * cumulant(params, cfg.t, h0)) == pytest.approx(-math.log(value), rel=1e-12)
        k = 20_000
        draws = sample_transition(params, cfg.t, np.repeat(base.mass, k), np.random.default_rng(14))
        sampled = np.exp(-(draws.reshape(len(base.mass), k) * h0[:, None]).sum(axis=0))
        se = sampled.std(ddof=1) / math.sqrt(k)
        assert abs(sampled.mean() - value) <= 3 * se, f"sampled {sampled.mean():.4f} reader {value:.4f}"


class TestBetaHalfReaders:
    def test_occupation_bound_and_vacancy_run_at_small_n(self):
        # beta < 1 reads the branching law in closed form: no fragment is drawn
        start = time.perf_counter()
        occ = GapConfig(window=(-1.0, 1.0), c=1.0, t=1.0, n=200)
        vac = VacancyBoundConfig(params=P_HALF, a=1.0, s1=1.0, s2=2.0, mu=MeasureSpec(intervals=((-4.0, 4.0),)), n=200)
        reports = (occupation_duality_check(occ, P_HALF, seed=51), interval_vacancy_bound_check(vac, seed=52))
        elapsed = time.perf_counter() - start
        for rep in reports:
            assert rep.verdict == "one_sided_ok" and rep.approx, rep
        assert elapsed < 20.0
