"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every tolerance is fixed
here; the Monte Carlo criteria use pre-registered seeds.
"""

import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from scbm.branching import BranchingParams, cumulant, cumulant_limit, sample_entrance_mass, sample_transition
from scbm.cli import main as cli_main
from scbm.cli import flow_property_residual
from scbm.experiments import (
    ConstantGrowth,
    PowerGrowth,
    SequenceTriple,
    SurvivalConfig,
    block_survival_closed_form,
    build_sequences,
    integral_partial,
    series_eval,
    survival_experiment,
    window_charge,
)
from scbm.flow import MeasureSpec, coalescing_pair
from scbm.harness import (
    GapConfig,
    LaplaceDualityConfig,
    VacancyBoundConfig,
    absorbing_extinction_check,
    interval_vacancy_bound_check,
    laplace_duality_check,
    occupation_duality_check,
    reflected_gap_vacancy_exact,
)
from scbm.oracle import array_law_exact, check_generator_duality

P21 = BranchingParams(gamma=2.0, beta=1.0)
THREADS = 2


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} {name}: {status}" + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {number} {name}: {detail}"


class TestAcceptance:
    def test_01_generator_duality(self):
        start = time.time()
        worst = 0.0
        for m, n in ((1, 2), (2, 2), (2, 3), (3, 2)):
            worst = max(worst, check_generator_duality(m, n, barriers=(0.0, 4.0), radius=8.0))
        control = check_generator_duality(1, 2, barriers=(0.0, 4.0), radius=8.0, negative_control=True)
        elapsed = time.time() - start
        ok = worst <= 1e-9 and control > 0.1 and elapsed < 60.0
        _report(1, "generator duality", ok, f"residual={worst:.2e} control={control:.3f} {elapsed:.1f}s")

    def test_02_array_law_distributional(self):
        start = time.time()
        worst_tv, worst_budget = 0.0, 0.0
        for t in (0.25, 0.5, 1.0):
            res = array_law_exact(2, 2, (1.0, 3.0), (0.5, 2.5), (0.0, 4.0), t, tol=1e-6)
            worst_tv = max(worst_tv, res.tv_distance)
            worst_budget = max(worst_budget, res.error_budget)
        elapsed = time.time() - start
        ok = worst_tv <= 1e-3 and worst_budget <= 1e-3 and elapsed < 120.0
        _report(2, "crossing-array law", ok, f"tv={worst_tv:.2e} budget={worst_budget:.2e} {elapsed:.1f}s")

    def test_03_flow_property(self):
        residual = flow_property_residual((0.5, 1.0, 2.0), (0.25, 0.5, 1.0), 4.0, 9)
        anchor = abs(cumulant(P21, 1.0, cumulant(P21, 1.0, 1.0)) - 1.0 / 3.0)
        ok = residual <= 1e-12 and anchor <= 1e-15
        _report(3, "cumulant flow property", ok, f"grid residual={residual:.2e} anchor={anchor:.2e}")

    def test_04_exact_transition_sampler(self):
        start = time.time()
        n = 100_000
        rng = np.random.default_rng(np.random.SeedSequence(entropy=20250101, spawn_key=(4,)))
        draws = sample_transition(P21, 1.0, 1.0, rng, size=n)

        frac = float(np.mean(draws == 0.0))
        target = math.exp(-1.0)
        ok_ext = abs(frac - target) <= 3 * math.sqrt(target * (1 - target) / n)

        se_mean = draws.std(ddof=1) / math.sqrt(n)
        ok_mean = abs(draws.mean() - 1.0) <= 3 * se_mean

        ok_lap = True
        details = []
        for z in (0.5, 1.0, 2.0):
            vals = np.exp(-z * draws)
            t_lap = math.exp(-cumulant(P21, 1.0, z))
            zsc = (vals.mean() - t_lap) / (vals.std(ddof=1) / math.sqrt(n))
            details.append(f"z({z:g})={zsc:+.2f}")
            ok_lap &= abs(zsc) <= 3
        elapsed = time.time() - start
        ok = ok_ext and ok_mean and ok_lap and elapsed < 30.0
        _report(4, "exact transition sampler", ok, f"{' '.join(details)} {elapsed:.1f}s")

    def test_05_entrance_law_ks(self):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=20250101, spawn_key=(5,)))
        sample = sample_entrance_mass(P21, 1.0, rng, size=10_000)
        # extinction rate at (gamma=2, r=1) is 1, so the law is Exponential(1)
        assert cumulant_limit(P21, 1.0) == 1.0
        pvalue = float(stats.kstest(sample, "expon", args=(0.0, 1.0)).pvalue)
        _report(5, "entrance law", pvalue > 0.01, f"KS p={pvalue:.4f}")

    def test_06_extinction_duality(self):
        start = time.time()
        cfg = GapConfig(window=(0.0, 3.0), c=1.0, t=1.0, n=10_000, spacing=0.5)
        rep = absorbing_extinction_check(cfg, seed=606, threads=THREADS)
        elapsed = time.time() - start
        exact = reflected_gap_vacancy_exact(1.0, 1.0)
        ok = abs(rep.lhs.mean - exact) <= 3 * rep.lhs.stderr and elapsed < 600.0
        assert abs(exact - 0.46607) < 1e-5  # re-derived closed form matches the quoted value
        _report(6, "extinction duality", ok, f"lhs={rep.lhs.mean:.5f} exact={exact:.5f} z={rep.z_score:+.2f} {elapsed:.0f}s")

    def test_07_laplace_duality_with_control(self):
        cfg = LaplaceDualityConfig(
            params=P21,
            t=1.0,
            mu=MeasureSpec(intervals=((-2.0, 2.0),)),
            pair=(-1.0, 1.0),
            coefficient=1.0,
            n=10_000,
        )
        rep = laplace_duality_check(cfg, seed=707, threads=THREADS)
        control_cfg = replace(cfg, n=100_000, rhs_gamma_scale=1.2)
        control = laplace_duality_check(control_cfg, seed=708, threads=THREADS)
        ok = abs(rep.z_score) <= 3.0 and abs(control.z_score) > 3.0
        _report(7, "laplace duality", ok, f"z={rep.z_score:+.2f} control z={control.z_score:+.1f}")

    def test_08_occupation_and_vacancy(self):
        gap = GapConfig(window=(-1.0, 1.0), c=1.0, t=1.0, n=10_000)
        # without branching the equality is the absorbing reading on the window
        eq = absorbing_extinction_check(gap, seed=808, threads=THREADS, label="occupation_duality_equality")
        one = occupation_duality_check(gap, P21, seed=809, threads=THREADS)

        vac_cfg = VacancyBoundConfig(
            params=P21, a=1.0, s1=1.0, s2=2.0, mu=MeasureSpec(intervals=((-4.0, 4.0),)), n=10_000
        )
        vac = interval_vacancy_bound_check(vac_cfg, seed=810, threads=THREADS)

        ok = eq.verdict == "consistent" and one.verdict == "one_sided_ok" and vac.verdict == "one_sided_ok"
        _report(
            8,
            "occupation duality",
            ok,
            f"equality z={eq.z_score:+.2f}; bound lhs={one.lhs.mean:.3f}>=rhs={one.rhs_mean:.3f}; "
            f"interval lhs={vac.lhs.mean:.3f} rhs={vac.rhs_mean:.3f}",
        )

    def test_09_integral_machinery(self):
        T = 1e4
        diag = integral_partial(PowerGrowth(exponent=0.3), 1.0, T)
        hand_partial = (1.0 - T**-0.7) / 0.7
        ok_partial = abs(diag.value - hand_partial) <= 1e-6
        ok_limit = diag.limit_estimate is not None and abs(diag.limit_estimate - 1.0 / 0.7) <= 1e-3

        lin = integral_partial(PowerGrowth(exponent=1.0), 1.0, T)
        ok_log = abs(lin.value - math.log(T)) <= 1e-6 * math.log(T) and lin.classification == "divergent"

        series = series_eval(PowerGrowth(exponent=1.0), P21, 12)
        ok_series = bool(np.all(np.abs(series.terms - 4.0 * math.e) <= 1e-12))

        triple = build_sequences(PowerGrowth(exponent=1.0), 10)
        expected = 3.0 ** np.arange(11)
        ok_seq = (
            bool(np.all(np.abs(triple.times / expected - 1.0) <= 1e-8))
            and bool(np.all(triple.eqng_ok[:-1]))
            and bool(np.all(triple.intervaldiff_ok[1:-1]))
        )

        anchor_triple = SequenceTriple(
            times=np.array([1.0, 3.0]),
            lower=np.array([np.nan, 1.0]),
            upper=np.array([np.nan, 1.75]),
            eqng_ok=np.array([True, True]),
            intervaldiff_ok=np.array([True, True]),
            window_ok=np.array([True, True]),
            terminated=False,
        )
        prob, _ = block_survival_closed_form(P21, 1, anchor_triple)
        ok_anchor = abs(prob - (1.0 - math.exp(-0.5))) <= 1e-12
        # the charge of [-1, 1] at h = 4 against 10^5 exact coalescing pairs run backward from its edges
        charge = window_charge(P21, 1.0, 4.0)
        lo, hi = coalescing_pair(-1.0, 1.0, 4.0, np.random.default_rng(909), 100_000)
        drawn = -np.expm1(-cumulant_limit(P21, 4.0) * (hi - lo))
        z_charge = (drawn.mean() - charge) / (drawn.std(ddof=1) / math.sqrt(len(drawn)))
        ok_mc = abs(z_charge) <= 3

        ok = ok_partial and ok_limit and ok_log and ok_series and ok_seq and ok_anchor and ok_mc
        _report(
            9,
            "integral machinery",
            ok,
            f"partial_err={abs(diag.value - hand_partial):.1e} limit_err={abs((diag.limit_estimate or 0) - 1 / 0.7):.1e} "
            f"ladder_charge={charge:.4f} z={z_charge:+.2f}",
        )

    def test_10_survival_trends(self):
        start = time.time()
        base = dict(params=P21, truncation=50.0, horizons=(4.0, 16.0, 64.0), replicas=2000)
        flat = survival_experiment(SurvivalConfig(g=ConstantGrowth(1.0), **base), seed=1010, threads=THREADS)
        linear = survival_experiment(SurvivalConfig(g=PowerGrowth(exponent=1.0), **base), seed=1010, threads=THREADS)
        elapsed = time.time() - start
        decreasing = all(a > b for a, b in zip(flat.fractions, flat.fractions[1:]))
        dominates = all(hi >= lo for lo, hi in zip(flat.fractions, linear.fractions))
        ok = decreasing and dominates and elapsed < 1800.0
        _report(
            10,
            "survival trends",
            ok,
            f"flat={['%.3f' % f for f in flat.fractions]} linear={['%.3f' % f for f in linear.fractions]} {elapsed:.0f}s",
        )

    def test_11_cli_determinism(self, tmp_path):
        configs = {
            "verify-duality": "[verify-duality]\ncases = 1x2\nradius = 4\narray_times = 0.25\n",
            "csbp-check": "[csbp-check]\nsampler_n = 20000\nentrance_n = 4000\nflow_points = 5\n",
            "scbm-duality": (
                "[scbm-duality]\nlaplace_n = 400\nabsorbing_n = 400\noccupation_n = 400\n"
                "vacancy_n = 400\nrun_control = false\nrun_smoke = false\n"
            ),
            "integral-test": "[integral-test]\nseries_n = 5\nseq_n = 4\nhorizon = 100\n",
            "survival": "[survival]\ntruncation = 4\nhorizons = 1,2\nreplicas = 40\n",
        }
        ok = True
        details = []
        for command, body in configs.items():
            cfg = tmp_path / f"{command}.ini"
            cfg.write_text("[run]\nseed = 2025\n" + body, encoding="utf-8")
            out1 = tmp_path / command / "run1"
            out2 = tmp_path / command / "run2"
            code1 = cli_main([command, "--config", str(cfg), "--out", str(out1)])
            code2 = cli_main([command, "--config", str(cfg), "--out", str(out2)])
            same = (
                Path(out1, f"{command}.csv").read_bytes() == Path(out2, f"{command}.csv").read_bytes()
            )
            ok &= same and code1 == code2 and code1 in (0, 3)
            details.append(f"{command}:{'=' if same else '!='}")
        _report(11, "CLI determinism", ok, " ".join(details))
