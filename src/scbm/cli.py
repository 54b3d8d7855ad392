"""Experiment command line: duality verification, sampler checks, integral tests, survival runs.

Every subcommand reads an optional config file (flat ``key = value`` sections,
unknown keys are errors), runs deterministically from its seed, and writes one
CSV with the fixed header

    experiment,seed,replica_or_index,param_name,param_value,horizon_or_n,value,stderr,flag

plus an optional SVG chart.  Exit codes: 0 success, 2 configuration error,
3 at least one failed check.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .branching import BranchingParams, cumulant, cumulant_limit, sample_entrance_mass, sample_transition
from .config import ConfigError, apply_schema, load_config
from .engine import MeasureSpec
from .experiments import (
    SurvivalConfig,
    block_survival_closed_form,
    block_survival_mc,
    build_sequences,
    comparison_constant,
    escape_probability_bounds,
    integral_partial,
    parse_growth,
    series_eval,
    survival_experiment,
)
from .harness import (
    AbsorbingExtinctionConfig,
    LaplaceDualityConfig,
    OccupationDualityConfig,
    ReflectedLaplaceConfig,
    VacancyBoundConfig,
    absorbing_extinction_check,
    interval_vacancy_bound_check,
    laplace_duality_check,
    occupation_duality_check,
    reflected_laplace_smoke,
    truncation_escape_bound,
)
from .oracle import (
    ORACLE_STATES,
    array_law_exact,
    array_law_states,
    check_generator_duality,
    window_radius,
    window_states,
)
from .svgplot import line_chart

CSV_HEADER = "experiment,seed,replica_or_index,param_name,param_value,horizon_or_n,value,stderr,flag"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FAILED = 3


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _row(experiment, seed, index, param_name, param_value, horizon, value, stderr, flag) -> str:
    return ",".join(_fmt(v) for v in (experiment, seed, index, param_name, param_value, horizon, value, stderr, flag))


def _stream(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(k,)))


def _require(section: str, key: str, ok: bool, need: str) -> None:
    """Raise a config error naming ``key`` unless ``ok``."""
    if not ok:
        raise ConfigError(f"bad value for {key!r} in section [{section}]: need {need}")


def _params_from(settings, gamma_key="gamma", beta_key="beta") -> BranchingParams:
    try:
        return BranchingParams(gamma=settings[gamma_key], beta=settings[beta_key])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# verify-duality
# ---------------------------------------------------------------------------

VERIFY_SCHEMA = {
    "cases": ("str", "1x2,2x2,2x3,3x2"),
    "barrier_lo": ("float", 0.0),
    "barrier_hi": ("float", 4.0),
    "radius": ("float", 8.0),
    "residual_tol": ("float", 1e-9),
    "control_min": ("float", 0.1),
    "array_times": ("floats", (0.25, 0.5, 1.0)),
    "array_x": ("floats", (1.0, 3.0)),
    "array_y": ("floats", (0.5, 2.5)),
    "array_tol": ("float", 1e-6),
    "tv_tol": ("float", 1e-3),
    "budget_tol": ("float", 1e-3),
}


def _verify_settings(settings) -> list[tuple[int, int]]:
    """Check the [verify-duality] values, naming the key at fault; parse 'MxN,MxN,...' into particle counts."""
    section = "verify-duality"
    lo, hi = settings["barrier_lo"], settings["barrier_hi"]
    _require(section, "barrier_lo", lo.is_integer(), "an integer barrier")
    _require(section, "barrier_hi", hi.is_integer() and hi - lo >= 2, "an integer barrier at least 2 above barrier_lo")
    _require(section, "radius", 1 <= settings["radius"] < math.inf, "a finite radius >= 1, the barrier margin")
    _require(section, "control_min", 0 <= settings["control_min"] < math.inf, "a finite residual threshold >= 0")
    for key in ("residual_tol", "array_tol", "tv_tol", "budget_tol"):
        _require(section, key, 0 < settings[key] < math.inf, "a positive finite tolerance")
    _require(section, "array_times", all(0 <= t < math.inf for t in settings["array_times"]), "finite times >= 0")
    for key, lattice, offset in (("array_x", "integers", 0.0), ("array_y", "half-integers", 0.5)):
        v = settings[key]
        ok = bool(v) and list(v) == sorted(v) and all(p % 1 == offset for p in v)
        _require(section, key, ok, f"nondecreasing {lattice}")
    cases = []
    for case in settings["cases"].split(","):
        m_str, _, n_str = case.strip().partition("x")
        try:
            m, n = int(m_str), int(n_str)
        except ValueError:
            m = n = 0
        need = f"comma-separated MxN with M, N >= 1, got {case.strip()!r}"
        _require(section, "cases", m >= 1 and n >= 1, need)
        cases.append((m, n))
    _oracle_budget(settings, cases)
    return cases


def _oracle_budget(settings, cases) -> None:
    """Refuse, from counts alone, any window of more than ``ORACLE_STATES`` states the run would enumerate.

    A case names ``radius``; array points that do not fit at the default tolerance and the shortest
    time, default or asked for, name ``array_x`` or ``array_y``; an array time names ``array_tol`` when
    it would fit at the default tolerance, and ``array_times`` otherwise.
    """
    section = "verify-duality"
    barriers = (settings["barrier_lo"], settings["barrier_hi"])
    x0, y0, tol = settings["array_x"], settings["array_y"], settings["array_tol"]
    particles = max(len(x0), len(y0))

    def refuse_above(count, key, what):
        size = f"{count:,}" if count < 10**12 else "more than 10**12"
        need = f"windows of at most {ORACLE_STATES} lattice states; {what} would have {size}"
        _require(section, key, count <= ORACLE_STATES, need)

    def array_states(t, tol):
        return array_law_states(x0, y0, barriers, window_radius(t, particles, tol))

    window = (barriers[0] - settings["radius"], barriers[1] + settings["radius"])
    for m, n in cases + [(1, 2)]:  # (1, 2): the negative control
        count = max(window_states(window, "integers", m), window_states(window, "half_integers", n))
        refuse_above(count, "radius", f"case {m}x{n}")
    default_tol = VERIFY_SCHEMA["array_tol"][1]
    first = min(*VERIFY_SCHEMA["array_times"][1], *settings["array_times"])
    what = f"the array points at time {first:g} and the default array_tol"
    refuse_above(array_states(first, default_tol), "array_x" if len(x0) >= len(y0) else "array_y", what)
    for t in settings["array_times"]:
        # below array_tol = 5 * particles the radius passes the median of Poisson(t), so it is at least
        # floor(t): a long time is refused before its Poisson support is summed (for a larger tolerance,
        # which certifies nothing, this bound is conservative)
        least = array_law_states(x0, y0, barriers, max(1, math.floor(t)))
        refuse_above(least, "array_times", f"time {t:g} at any array_tol below {5 * particles}")
        key = "array_tol" if array_states(t, max(tol, default_tol)) <= ORACLE_STATES else "array_times"
        refuse_above(array_states(t, tol), key, f"time {t:g} at array_tol = {tol:g}")


def _run_verify_duality(settings, seed, threads):
    cases = _verify_settings(settings)
    barriers = (settings["barrier_lo"], settings["barrier_hi"])
    rows, failed = [], False
    for m, n in cases:
        residual = check_generator_duality(m, n, barriers=barriers, radius=settings["radius"])
        ok = residual <= settings["residual_tol"]
        failed |= not ok
        rows.append(_row("verify-duality", seed, "", "generator_residual", f"{m}x{n}", "", residual, "", "pass" if ok else "fail"))
    control = check_generator_duality(1, 2, barriers=barriers, radius=settings["radius"], negative_control=True)
    ok = control > settings["control_min"]
    failed |= not ok
    rows.append(_row("verify-duality", seed, "", "negative_control_residual", "1x2", "", control, "", "pass" if ok else "fail"))
    x0 = tuple(settings["array_x"])
    y0 = tuple(settings["array_y"])
    for t in settings["array_times"]:
        res = array_law_exact(len(x0), len(y0), x0, y0, barriers, t, tol=settings["array_tol"])
        ok = res.tv_distance <= settings["tv_tol"] and res.error_budget <= settings["budget_tol"]
        failed |= not ok
        shape = f"m{len(x0)}n{len(y0)}"
        rows.append(_row("verify-duality", seed, "", "array_tv", shape, t, res.tv_distance, "", "pass" if ok else "fail"))
        rows.append(_row("verify-duality", seed, "", "array_budget", shape, t, res.error_budget, "", ""))
    return rows, failed, None


# ---------------------------------------------------------------------------
# csbp-check
# ---------------------------------------------------------------------------

CSBP_SCHEMA = {
    "gamma": ("float", 2.0),
    "beta": ("float", 1.0),
    "flow_gammas": ("floats", (0.5, 1.0, 2.0)),
    "flow_betas": ("floats", (0.25, 0.5, 1.0)),
    "flow_max": ("float", 4.0),
    "flow_points": ("int", 9),
    "flow_tol": ("float", 1e-12),
    "anchor_tol": ("float", 1e-15),
    "sampler_n": ("int", 100_000),
    "sampler_t": ("float", 1.0),
    "sampler_x": ("float", 1.0),
    "laplace_z": ("floats", (0.5, 1.0, 2.0)),
    "entrance_n": ("int", 10_000),
    "entrance_r": ("float", 1.0),
    "ks_pmin": ("float", 0.01),
}


def flow_property_residual(gammas, betas, upper, points) -> float:
    """Max composition defect of the cumulant map over the parameter grid."""
    svals = np.linspace(0.0, upper, points)
    zvals = np.linspace(0.0, upper, points)
    worst = 0.0
    for gma in gammas:
        for beta in betas:
            p = BranchingParams(gamma=gma, beta=beta)
            for s in svals:
                for t in svals:
                    inner = cumulant(p, t, zvals)
                    gap = np.abs(cumulant(p, s, inner) - cumulant(p, s + t, zvals))
                    worst = max(worst, float(gap.max()))
    return worst


def _csbp_params(settings) -> BranchingParams:
    """Check the [csbp-check] values, naming the key at fault; return the branching parameters."""
    section = "csbp-check"
    params = _params_from(settings)
    _require(section, "gamma", params.gamma > 0, "gamma > 0: the checks sample the branching process")
    gammas, betas = settings["flow_gammas"], settings["flow_betas"]
    _require(section, "flow_gammas", bool(gammas) and all(0 <= g < math.inf for g in gammas), "finite rates >= 0")
    _require(section, "flow_betas", bool(betas) and all(0 < b <= 1 for b in betas), "exponents in (0, 1]")
    _require(section, "flow_max", 0 < settings["flow_max"] < math.inf, "a positive finite grid end")
    _require(section, "flow_points", settings["flow_points"] >= 2, "at least two grid points")
    for key in ("flow_tol", "anchor_tol"):
        _require(section, key, 0 < settings[key] < math.inf, "a positive finite tolerance")
    for key in ("sampler_n", "entrance_n"):
        _require(section, key, settings[key] >= 2, "at least two draws")
    for key in ("sampler_t", "sampler_x", "entrance_r"):
        _require(section, key, 0 < settings[key] < math.inf, "a positive finite value")
    _require(section, "laplace_z", all(0 < z < math.inf for z in settings["laplace_z"]), "positive finite arguments")
    _require(section, "ks_pmin", 0 < settings["ks_pmin"] < 1, "a p-value threshold in (0, 1)")
    return params


def _run_csbp_check(settings, seed, threads):
    rows, failed = [], False
    params = _csbp_params(settings)
    residual = flow_property_residual(
        settings["flow_gammas"], settings["flow_betas"], settings["flow_max"], settings["flow_points"]
    )
    ok = residual <= settings["flow_tol"]
    failed |= not ok
    rows.append(_row("csbp-check", seed, "", "flow_residual", "", "", residual, "", "pass" if ok else "fail"))

    anchor_params = BranchingParams(gamma=2.0, beta=1.0)
    anchor = abs(cumulant(anchor_params, 1.0, cumulant(anchor_params, 1.0, 1.0)) - 1.0 / 3.0)
    ok = anchor <= settings["anchor_tol"]
    failed |= not ok
    rows.append(_row("csbp-check", seed, "", "flow_anchor_error", "", "", anchor, "", "pass" if ok else "fail"))

    n, t, x = settings["sampler_n"], settings["sampler_t"], settings["sampler_x"]
    draws = sample_transition(params, t, x, _stream(seed, 1), size=n)
    frac = float(np.mean(draws == 0.0))
    target = math.exp(-x * cumulant_limit(params, t))
    se = math.sqrt(max(target * (1 - target), 1e-300) / n)
    z = (frac - target) / se
    ok = abs(z) <= 3
    failed |= not ok
    rows.append(_row("csbp-check", seed, "", "extinction_z", f"t={t:g}", "", z, se, "pass" if ok else "fail"))

    se_mean = float(draws.std(ddof=1) / math.sqrt(n))
    z = (float(draws.mean()) - x) / se_mean
    ok = abs(z) <= 3
    failed |= not ok
    rows.append(_row("csbp-check", seed, "", "mean_z", f"x={x:g}", "", z, se_mean, "pass" if ok else "fail"))

    for zpt in settings["laplace_z"]:
        vals = np.exp(-zpt * draws)
        target = math.exp(-x * cumulant(params, t, zpt))
        se = float(vals.std(ddof=1) / math.sqrt(n))
        zsc = (float(vals.mean()) - target) / se
        ok = abs(zsc) <= 3
        failed |= not ok
        rows.append(_row("csbp-check", seed, "", "laplace_z", f"z={zpt:g}", "", zsc, se, "pass" if ok else "fail"))

    r = settings["entrance_r"]
    theta = cumulant_limit(params, r)
    sample = sample_entrance_mass(params, r, _stream(seed, 2), size=settings["entrance_n"])
    from scipy import stats  # the KS p-value is csbp-check's only use of scipy; other commands start without it

    pvalue = float(stats.kstest(sample, "expon", args=(0.0, 1.0 / theta)).pvalue)
    ok = pvalue > settings["ks_pmin"] if params.beta == 1.0 else True
    failed |= not ok
    flag = ("pass" if ok else "fail") if params.beta == 1.0 else "approx"
    rows.append(_row("csbp-check", seed, "", "entrance_ks_pvalue", f"r={r:g}", "", pvalue, "", flag))
    return rows, failed, None


# ---------------------------------------------------------------------------
# scbm-duality
# ---------------------------------------------------------------------------

DUALITY_SCHEMA = {
    "gamma": ("float", 2.0),
    "beta": ("float", 1.0),
    "laplace_t": ("float", 1.0),
    "laplace_mu_lo": ("float", -2.0),
    "laplace_mu_hi": ("float", 2.0),
    "laplace_pair_lo": ("float", -1.0),
    "laplace_pair_hi": ("float", 1.0),
    "laplace_coeff": ("float", 1.0),
    "laplace_n": ("int", 10_000),
    "run_control": ("bool", True),
    "control_n": ("int", 100_000),
    "control_scale": ("float", 1.2),
    "absorbing_a": ("float", 0.0),
    "absorbing_b": ("float", 3.0),
    "absorbing_c": ("float", 1.0),
    "absorbing_t": ("float", 1.0),
    "absorbing_n": ("int", 10_000),
    "occupation_y1": ("float", -1.0),
    "occupation_y2": ("float", 1.0),
    "occupation_c": ("float", 1.0),
    "occupation_t": ("float", 1.0),
    "occupation_n": ("int", 10_000),
    "vacancy_a": ("float", 1.0),
    "vacancy_s1": ("float", 1.0),
    "vacancy_s2": ("float", 2.0),
    "vacancy_L": ("float", 4.0),
    "vacancy_n": ("int", 10_000),
    "run_smoke": ("bool", True),
    "smoke_n": ("int", 2_000),
    "smoke_barrier_lo": ("float", -3.0),
    "smoke_barrier_hi": ("float", 3.0),
}


def _report_row(seed, report, extra_flag=""):
    flag = report.verdict if not extra_flag else f"{report.verdict};{extra_flag}"
    if report.approx:
        flag += ";approx"
    return _row(
        "scbm-duality",
        seed,
        "",
        report.label,
        f"lhs={report.lhs.mean:.6g};rhs={report.rhs_mean:.6g}",
        "",
        report.z_score,
        math.sqrt(report.lhs.stderr**2 + report.rhs_stderr**2),
        flag,
    )


def _duality_configs(settings):
    """Every scbm-duality check config, built and validated before any check runs."""
    for key in DUALITY_SCHEMA:
        if key.endswith("_n"):
            _require("scbm-duality", key, settings[key] >= 2, "at least two replicas")
    for key in ("laplace_t", "absorbing_t", "occupation_t", "vacancy_s1"):
        _require("scbm-duality", key, 0 < settings[key] < math.inf, "a positive finite time")
    s1, s2 = settings["vacancy_s1"], settings["vacancy_s2"]
    _require("scbm-duality", "vacancy_s2", s1 < s2 < math.inf, "a finite time above vacancy_s1")
    params = _params_from(settings)
    _require("scbm-duality", "gamma", params.gamma > 0, "gamma > 0: the checks sample the branching process")
    for lo, hi in (
        ("laplace_mu_lo", "laplace_mu_hi"),
        ("laplace_pair_lo", "laplace_pair_hi"),
        ("absorbing_a", "absorbing_b"),
        ("occupation_y1", "occupation_y2"),
        ("smoke_barrier_lo", "smoke_barrier_hi"),
    ):
        _require("scbm-duality", lo, math.isfinite(settings[lo]), "a finite value")
        _require("scbm-duality", hi, settings[lo] < settings[hi] < math.inf, f"a finite value above {lo}")
    for key in ("laplace_coeff", "control_scale", "vacancy_a", "vacancy_L"):
        _require("scbm-duality", key, 0 < settings[key] < math.inf, "a positive finite value")
    for key in ("absorbing_c", "occupation_c"):
        _require("scbm-duality", key, 0 <= settings[key] < math.inf, "a finite half-width >= 0")
    levels = (settings["laplace_pair_lo"], settings["laplace_pair_hi"])
    for key in ("smoke_barrier_lo", "smoke_barrier_hi"):
        _require("scbm-duality", key, settings[key] not in levels, "a barrier off the Laplace pair points")
    try:
        lap = LaplaceDualityConfig(
            params=params,
            t=settings["laplace_t"],
            mu=MeasureSpec(intervals=((settings["laplace_mu_lo"], settings["laplace_mu_hi"]),)),
            pairs=((settings["laplace_pair_lo"], settings["laplace_pair_hi"]),),
            coefficients=(settings["laplace_coeff"],),
            n=settings["laplace_n"],
        )
        occ = dict(
            window=(settings["occupation_y1"], settings["occupation_y2"]),
            c=settings["occupation_c"],
            t=settings["occupation_t"],
            n=settings["occupation_n"],
        )
        return dict(
            laplace=lap,
            control=replace(lap, n=settings["control_n"], rhs_gamma_scale=settings["control_scale"]),
            absorbing=AbsorbingExtinctionConfig(
                barriers=(settings["absorbing_a"], settings["absorbing_b"]),
                c=settings["absorbing_c"],
                t=settings["absorbing_t"],
                n=settings["absorbing_n"],
            ),
            occupation_eq=OccupationDualityConfig(params=BranchingParams(gamma=0.0), spacing=0.5, **occ),
            occupation_bound=OccupationDualityConfig(params=params, **occ),
            vacancy=VacancyBoundConfig(
                params=params,
                a=settings["vacancy_a"],
                s1=settings["vacancy_s1"],
                s2=settings["vacancy_s2"],
                mu=MeasureSpec(intervals=((-settings["vacancy_L"], settings["vacancy_L"]),)),
                n=settings["vacancy_n"],
            ),
            smoke=ReflectedLaplaceConfig(
                params=params,
                barriers=(settings["smoke_barrier_lo"], settings["smoke_barrier_hi"]),
                t=settings["laplace_t"],
                mu=lap.mu,
                pairs=lap.pairs,
                coefficients=lap.coefficients,
                n=settings["smoke_n"],
            ),
        )
    except ValueError as exc:
        raise ConfigError(f"bad value in section [scbm-duality]: {exc}") from exc


def _run_scbm_duality(settings, seed, threads):
    rows, failed = [], False
    cfgs = _duality_configs(settings)

    report = laplace_duality_check(cfgs["laplace"], seed, threads)
    failed |= not report.passed
    rows.append(_report_row(seed, report))

    if settings["run_control"]:
        control = laplace_duality_check(cfgs["control"], seed + 1, threads)
        detected = abs(control.z_score) > 3.0
        failed |= not detected
        rows.append(
            _row(
                "scbm-duality",
                seed,
                "",
                "laplace_negative_control",
                f"scale={settings['control_scale']:g}",
                "",
                control.z_score,
                "",
                "detected" if detected else "missed",
            )
        )

    absorbing = cfgs["absorbing"]
    report = absorbing_extinction_check(absorbing, seed + 10, threads)
    failed |= not report.passed
    rows.append(_report_row(seed, report))
    rows.append(
        _row(
            "scbm-duality",
            seed,
            "",
            "absorbing_truncation_bound",
            f"margin={absorbing.margin:g}",
            "",
            truncation_escape_bound(absorbing.margin, absorbing.t),
            "",
            "",
        )
    )

    for key, check, offset in (
        ("occupation_eq", occupation_duality_check, 20),
        ("occupation_bound", occupation_duality_check, 30),
        ("vacancy", interval_vacancy_bound_check, 40),
    ):
        report = check(cfgs[key], seed + offset, threads)
        failed |= not report.passed
        rows.append(_report_row(seed, report))

    if settings["run_smoke"]:
        report = reflected_laplace_smoke(cfgs["smoke"], seed + 50, threads)
        rows.append(_report_row(seed, report, extra_flag="smoke"))
    return rows, failed, None


# ---------------------------------------------------------------------------
# integral-test
# ---------------------------------------------------------------------------

INTEGRAL_SCHEMA = {
    "g": ("str", "power:0.3"),
    "gamma": ("float", 2.0),
    "beta": ("float", 1.0),
    "horizon": ("float", 1e4),
    "series_n": ("int", 12),
    "delta": ("float", 0.75),
    "seq_n": ("int", 10),
    "block_index": ("int", 1),
    "block_n": ("int", 10_000),
    "envelope_eps": ("float", 0.1),
}


def _run_integral_test(settings, seed, threads):
    rows, failed = [], False
    params = _params_from(settings)
    try:
        g = parse_growth(settings["g"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    section = "integral-test"
    _require(section, "gamma", params.gamma > 0, "gamma > 0: the block survival law needs branching")
    _require(section, "g", g(1.0) > 0, "a growth function positive at time 1")
    _require(section, "horizon", 1 < settings["horizon"] < math.inf, "a finite horizon > 1")
    _require(section, "series_n", settings["series_n"] >= 1, "at least one term")
    _require(section, "delta", 0.5 < settings["delta"] < 1, "delta in (1/2, 1)")
    _require(section, "seq_n", settings["seq_n"] >= 1, "seq_n >= 1")
    _require(section, "block_index", 1 <= settings["block_index"] <= settings["seq_n"], "a block index in 1..seq_n")
    _require(section, "block_n", settings["block_n"] >= 2, "at least two replicas")
    _require(section, "envelope_eps", 0 < settings["envelope_eps"] < 0.5, "envelope_eps in (0, 1/2)")

    diag = integral_partial(g, params.beta, settings["horizon"])
    rows.append(_row("integral-test", seed, "", "integral_partial", g.label, settings["horizon"], diag.value, "", diag.classification))
    rows.append(_row("integral-test", seed, "", "integral_partial", g.label, 2 * settings["horizon"], diag.value_2t, "", ""))
    rows.append(_row("integral-test", seed, "", "integral_partial", g.label, 4 * settings["horizon"], diag.value_4t, "", ""))
    if diag.limit_estimate is not None:
        rows.append(_row("integral-test", seed, "", "integral_limit", g.label, "", diag.limit_estimate, "", ""))

    series = series_eval(g, params, settings["series_n"], settings["delta"])
    for i, (term, psum, tail) in enumerate(zip(series.terms, series.partial_sums, series.tail_terms), start=1):
        rows.append(_row("integral-test", seed, i, "series_term", g.label, i, term, "", ""))
        rows.append(_row("integral-test", seed, i, "series_partial_sum", g.label, i, psum, "", ""))
        rows.append(_row("integral-test", seed, i, "series_tail_bound", g.label, i, tail, "", ""))
    rows.append(_row("integral-test", seed, "", "series_bounded", g.label, "", series.bounded, "", ""))
    rows.append(_row("integral-test", seed, "", "comparison_constant", "", "", series.comparison, "", ""))

    triple = build_sequences(g, settings["seq_n"])
    k = len(triple.times)
    for n in range(k):
        flags = []
        if n < k - 1:
            flags.append("eqng_ok" if triple.eqng_ok[n] else "eqng_fail")
            if not triple.eqng_ok[n]:
                failed = True
        if 1 <= n < k - 1:
            flags.append("diff_ok" if triple.intervaldiff_ok[n] else "diff_fail")
            flags.append("window_ok" if triple.window_ok[n] else "window_empty")
            if not triple.intervaldiff_ok[n]:
                failed = True
        rows.append(_row("integral-test", seed, n, "sequence_time", g.label, n, triple.times[n], "", ";".join(flags)))
        if n >= 1:
            rows.append(_row("integral-test", seed, n, "sequence_lower", g.label, n, triple.lower[n], "", ""))
        rows.append(_row("integral-test", seed, n, "sequence_upper", g.label, n, triple.upper[n], "", ""))
    if triple.terminated:
        rows.append(_row("integral-test", seed, "", "sequence_terminated", g.label, "", True, "", "growth_exhausted"))

    bounds = escape_probability_bounds(g, triple, settings["envelope_eps"])
    for n in range(k):
        env = "env_ok" if bounds.envelope_ok[n] else "env_violated"
        rows.append(_row("integral-test", seed, n, "escape_block_bound", g.label, n, bounds.block[n], "", env))
        if n >= 1:
            rows.append(_row("integral-test", seed, n, "escape_coupling_bound", g.label, n, bounds.coupling[n], "", ""))

    idx = settings["block_index"]
    if idx >= k:  # the growth stopped tripling before block idx; the value is the last sequence index
        rows.append(_row("integral-test", seed, idx, "block_survival_skipped", g.label, idx, k - 1, "", "growth_exhausted"))
    else:
        prob, empty = block_survival_closed_form(params, idx, triple)
        rows.append(_row("integral-test", seed, idx, "block_survival_closed_form", g.label, idx, prob, "", "empty" if empty else ""))
        if not empty:
            est = block_survival_mc(params, idx, triple, settings["block_n"], seed, threads)
            z = 0.0 if est.stderr == 0 else (est.mean - prob) / est.stderr
            ok = abs(z) <= 3
            failed |= not ok
            rows.append(_row("integral-test", seed, idx, "block_survival_mc_z", g.label, idx, z, est.stderr, "pass" if ok else "fail"))

    svg = None
    if len(series.partial_sums) >= 2:
        svg = line_chart(
            [("partial sums", list(range(1, len(series.partial_sums) + 1)), list(series.partial_sums))],
            f"series partial sums ({g.label})",
            "term index",
            "partial sum",
        )
    return rows, failed, svg


# ---------------------------------------------------------------------------
# survival
# ---------------------------------------------------------------------------

SURVIVAL_SCHEMA = {
    "gamma": ("float", 2.0),
    "beta": ("float", 1.0),
    "truncation": ("float", 50.0),
    "horizons": ("floats", (4.0, 16.0, 64.0)),
    "replicas": ("int", 2000),
    "g": ("str", "constant:1"),
    "g_alt": ("str", ""),
    "dt": ("float", 0.1),
    "spacing": ("float", 0.05),
    "batch": ("int", 32),
    "expect_decreasing": ("bool", False),
    "expect_domination": ("bool", False),
}


def _run_survival(settings, seed, threads):
    rows, failed = [], False
    params = _params_from(settings)
    try:
        g_main = parse_growth(settings["g"])
        g_alt = parse_growth(settings["g_alt"]) if settings["g_alt"] else None
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    h = settings["horizons"]
    _require("survival", "expect_decreasing", not settings["expect_decreasing"] or len(h) >= 2, "at least two horizons")
    _require("survival", "expect_domination", not settings["expect_domination"] or g_alt is not None, "a g_alt to compare")
    try:  # SurvivalConfig checks every other key, naming it
        cfgs = [
            SurvivalConfig(
                params=params,
                g=g,
                truncation=settings["truncation"],
                horizons=tuple(h),
                replicas=settings["replicas"],
                spacing=settings["spacing"],
                dt=settings["dt"],
                batch=settings["batch"],
            )
            for g in [g_main] + ([g_alt] if g_alt is not None else [])
        ]
    except ValueError as exc:
        raise ConfigError(f"section [survival]: {exc}") from exc

    results = []
    for cfg in cfgs:
        res = survival_experiment(cfg, seed, threads)
        results.append(res)
        for i, (horizon, frac, se) in enumerate(zip(res.horizons, res.fractions, res.stderrs)):
            flag = "approx" if params.beta < 1 else ""
            if i == len(res.horizons) - 1:
                flag = (flag + ";" if flag else "") + f"alive_at_end={res.alive_at_end}"
            rows.append(_row("survival", seed, "", "survival_fraction", res.g_label, horizon, frac, se, flag))

    if settings["expect_decreasing"]:
        fr = results[0].fractions
        ok = all(a > b for a, b in zip(fr, fr[1:]))
        failed |= not ok
        rows.append(_row("survival", seed, "", "decreasing_trend", results[0].g_label, "", ok, "", "pass" if ok else "fail"))
    if settings["expect_domination"]:
        ok = all(b >= a for a, b in zip(results[0].fractions, results[1].fractions))
        failed |= not ok
        rows.append(
            _row("survival", seed, "", "domination", f"{results[1].g_label}>={results[0].g_label}", "", ok, "", "pass" if ok else "fail")
        )

    svg = line_chart(
        [(res.g_label, list(res.horizons), list(res.fractions)) for res in results],
        "window survival fractions",
        "horizon",
        "fraction surviving",
    )
    return rows, failed, svg


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

RUN_SCHEMA = {
    "seed": ("int", 12345),
    "threads": ("int", 1),
    "out": ("str", "out"),
    "svg": ("bool", False),
}

SUBCOMMANDS = {
    "verify-duality": (VERIFY_SCHEMA, _run_verify_duality),
    "csbp-check": (CSBP_SCHEMA, _run_csbp_check),
    "scbm-duality": (DUALITY_SCHEMA, _run_scbm_duality),
    "integral-test": (INTEGRAL_SCHEMA, _run_integral_test),
    "survival": (SURVIVAL_SCHEMA, _run_survival),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="scbm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--svg", action="store_true", default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        sections = load_config(args.config) if args.config else {}
        run = apply_schema("run", sections.get("run", {}), RUN_SCHEMA)
        if args.seed is not None:
            run["seed"] = args.seed
        if args.threads is not None:
            run["threads"] = args.threads
        if args.out is not None:
            run["out"] = args.out
        if args.svg is not None:
            run["svg"] = True
        _require("run", "seed", run["seed"] >= 0, "a seed >= 0")
        _require("run", "threads", run["threads"] >= 1, "threads >= 1")
        schema, handler = SUBCOMMANDS[args.command]
        settings = apply_schema(args.command, sections.get(args.command, {}), schema)
        known = set(SUBCOMMANDS) | {"run", ""}
        for name in sections:
            if name not in known:
                raise ConfigError(f"unknown config section [{name}]")
        rows, failed, svg = handler(settings, run["seed"], run["threads"])
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = Path(run["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{args.command}.csv"
    csv_path.write_text(CSV_HEADER + "\n" + "".join(r + "\n" for r in rows), encoding="utf-8")
    if run["svg"] and svg is not None:
        (out_dir / f"{args.command}.svg").write_text(svg, encoding="utf-8")
    print(f"wrote {csv_path}" + (" (checks failed)" if failed else ""))
    return EXIT_FAILED if failed else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
