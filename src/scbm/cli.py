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

from .branching import (
    FRAGMENTS_RULE,
    BranchingParams,
    cumulant,
    cumulant_limit,
    entrance_transform,
    extinction_prob,
    fragments_fit,
    sample_entrance_mass,
    sample_transition,
)
from .config import ANY, BETA, GAMMA, NONNEGATIVE, POSITIVE, REPLICAS, ConfigError, Domain, apply_schema, load_config, need
from .experiments import (
    SurvivalConfig,
    block_survival_closed_form,
    build_sequences,
    escape_probability_bounds,
    integral_partial,
    parse_growth,
    series_eval,
    survival_experiment,
    window_charge,
)
from .flow import LATTICE_POINTS, MeasureSpec
from .harness import (
    _BATCH,
    FLOW_STEPS,
    GapConfig,
    LaplaceDualityConfig,
    VacancyBoundConfig,
    absorbing_extinction_check,
    interval_vacancy_bound_check,
    laplace_duality_check,
    occupation_duality_check,
    truncation_escape_bound,
    z_score,
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


class Rows:
    """The CSV rows of one run: :meth:`add` writes a plain row, :meth:`verdict` a checked one and records a failure."""

    def __init__(self, command: str, seed: int):
        self.command, self.seed = command, seed
        self.lines: list[str] = []
        self.failed = False

    def add(self, name, param="", value="", stderr="", flag="", index="", horizon="") -> None:
        fields = (self.command, self.seed, index, name, param, horizon, value, stderr, flag)
        self.lines.append(",".join(_fmt(v) for v in fields))

    def verdict(self, ok: bool, name, param="", value="", stderr="", flag=None, **where) -> None:
        """A row that fails the run unless ``ok``; its flag is pass or fail unless given."""
        self.failed |= not ok
        self.add(name, param, value, stderr, ("pass" if ok else "fail") if flag is None else flag, **where)


def _stream(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(k,)))


# ---------------------------------------------------------------------------
# verify-duality
# ---------------------------------------------------------------------------


def _cases(text: str):
    """Parse 'MxN,MxN,...' into particle counts; None unless every case has M, N >= 1."""
    cases = []
    for case in text.split(","):
        m, _, n = case.strip().partition("x")
        try:
            cases.append((int(m), int(n)))
        except ValueError:
            return None
    return cases if all(m >= 1 and n >= 1 for m, n in cases) else None


INTEGER = Domain(lambda v: v.is_integer(), "an integer barrier")

VERIFY_SCHEMA = {
    "cases": ("str", "1x2,2x2,2x3,3x2", Domain(lambda v: _cases(v) is not None, "comma-separated MxN with M, N >= 1")),
    "barrier_lo": ("float", 0.0, INTEGER),
    "barrier_hi": ("float", 4.0, INTEGER),
    "radius": ("float", 8.0, Domain(lambda v: 1 <= v < math.inf, "a finite radius >= 1, the barrier margin")),
    "residual_tol": ("float", 1e-9, POSITIVE),
    "control_min": ("float", 0.1, NONNEGATIVE),
    "array_times": ("floats", (0.25, 0.5, 1.0), NONNEGATIVE),
    "array_x": ("floats", (1.0, 3.0), Domain(lambda v: v % 1 == 0, "integers")),
    "array_y": ("floats", (0.5, 2.5), Domain(lambda v: v % 1 == 0.5, "half-integers")),
    "array_tol": ("float", 1e-6, POSITIVE),
    "tv_tol": ("float", 1e-3, POSITIVE),
    "budget_tol": ("float", 1e-3, POSITIVE),
}


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
        need(section, key, count <= ORACLE_STATES, f"windows of at most {ORACLE_STATES} lattice states; {what} would have {size}")

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


def _run_verify_duality(settings, rows, threads):
    section = "verify-duality"
    barriers = (settings["barrier_lo"], settings["barrier_hi"])
    need(section, "barrier_hi", barriers[1] - barriers[0] >= 2, "an integer barrier at least 2 above barrier_lo")
    for key, lattice in (("array_x", "integers"), ("array_y", "half-integers")):
        need(section, key, list(settings[key]) == sorted(settings[key]), f"nondecreasing {lattice}")
    cases = _cases(settings["cases"])
    _oracle_budget(settings, cases)
    for m, n in cases:
        residual = check_generator_duality(m, n, barriers=barriers, radius=settings["radius"])
        rows.verdict(residual <= settings["residual_tol"], "generator_residual", f"{m}x{n}", residual)
    control = check_generator_duality(1, 2, barriers=barriers, radius=settings["radius"], negative_control=True)
    rows.verdict(control > settings["control_min"], "negative_control_residual", "1x2", control)
    x0 = tuple(settings["array_x"])
    y0 = tuple(settings["array_y"])
    for t in settings["array_times"]:
        res = array_law_exact(len(x0), len(y0), x0, y0, barriers, t, tol=settings["array_tol"])
        ok = res.tv_distance <= settings["tv_tol"] and res.error_budget <= settings["budget_tol"]
        shape = f"m{len(x0)}n{len(y0)}"
        rows.verdict(ok, "array_tv", shape, res.tv_distance, horizon=t)
        rows.add("array_budget", shape, res.error_budget, horizon=t)


# ---------------------------------------------------------------------------
# csbp-check
# ---------------------------------------------------------------------------

CSBP_SCHEMA = {
    "gamma": ("float", 2.0, GAMMA),
    "beta": ("float", 1.0, BETA),
    "flow_gammas": ("floats", (0.5, 1.0, 2.0), POSITIVE),
    "flow_betas": ("floats", (0.25, 0.5, 1.0), BETA),
    "flow_max": ("float", 4.0, POSITIVE),
    "flow_points": ("int", 9, Domain(lambda v: v >= 2, "at least two grid points")),
    "flow_tol": ("float", 1e-12, POSITIVE),
    "anchor_tol": ("float", 1e-15, POSITIVE),
    "sampler_n": ("int", 100_000, REPLICAS),
    "sampler_t": ("float", 1.0, POSITIVE),
    "sampler_x": ("float", 1.0, POSITIVE),
    "laplace_z": ("floats", (0.5, 1.0, 2.0), POSITIVE),
    "entrance_n": ("int", 10_000, REPLICAS),
    "entrance_r": ("float", 1.0, POSITIVE),
}


def flow_property_residual(gammas, betas, upper, points) -> float:
    """Max composition defect of the cumulant map over the parameter grid."""
    # times as Python floats: their sums and products past the largest float read inf quietly
    svals = np.linspace(0.0, upper, points).tolist()
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


def _run_csbp_check(settings, rows, threads):
    params = BranchingParams(gamma=settings["gamma"], beta=settings["beta"])
    n, t, x, r = settings["sampler_n"], settings["sampler_t"], settings["sampler_x"], settings["entrance_r"]
    need("csbp-check", "sampler_x", fragments_fit(params, t, x, n), f"sampler_x * u(sampler_t) within {FRAGMENTS_RULE}")
    theta = cumulant_limit(params, r)
    need("csbp-check", "entrance_r", theta > 0, "an age at which u_r(inf) stays a positive float")
    residual = flow_property_residual(
        settings["flow_gammas"], settings["flow_betas"], settings["flow_max"], settings["flow_points"]
    )
    rows.verdict(residual <= settings["flow_tol"], "flow_residual", "", residual)

    anchor_params = BranchingParams(gamma=2.0, beta=1.0)
    anchor = abs(cumulant(anchor_params, 1.0, cumulant(anchor_params, 1.0, 1.0)) - 1.0 / 3.0)
    rows.verdict(anchor <= settings["anchor_tol"], "flow_anchor_error", "", anchor)

    draws = sample_transition(params, t, x, _stream(rows.seed, 1), size=n)
    frac = float(np.mean(draws == 0.0))
    target = extinction_prob(params, t, x)
    se = math.sqrt(max(target * (1 - target), 1e-300) / n)
    z = z_score(frac - target, se)
    rows.verdict(abs(z) <= 3, "extinction_z", f"t={t:g}", z, se)

    def transition(zpt):  # E exp(-z X) = exp(-x u_t(z)), and its complement
        a = x * cumulant(params, t, zpt)
        return math.exp(-a), -math.expm1(-a)

    # the entrance law is checked like the transition law; below beta = 1 its rows stay approx
    entrance = sample_entrance_mass(params, r, _stream(rows.seed, 2), size=settings["entrance_n"])
    below_one = "" if params.beta == 1.0 else ";approx"
    laws = (
        ("laplace_z", draws, transition, ""),
        ("entrance_laplace_z", entrance, lambda zpt: entrance_transform(params, r, zpt), below_one),
    )
    for name, sample, transform, suffix in laws:
        for zpt in settings["laplace_z"]:
            with np.errstate(over="ignore"):  # a huge z times a draw overflows to -inf, and exp(-inf) = 0
                vals = np.exp(-zpt * sample)
            # the spread from the law's second moment E exp(-2zX), not the sample's, which a large z underflows to
            # none; it reads from the transform where that is small and from its complement otherwise
            (mean, comp), (mean2, comp2) = transform(zpt), transform(2.0 * zpt)
            var = mean2 - mean * mean if mean <= 0.5 else comp * (2.0 - comp) - comp2
            se = math.sqrt(max(var, 0.0) / len(sample))
            zsc = z_score(float(vals.mean()) - mean, se)
            ok = abs(zsc) <= 3
            rows.verdict(ok, name, f"z={zpt:g}", zsc, se, ("pass" if ok else "fail") + suffix)


# ---------------------------------------------------------------------------
# scbm-duality
# ---------------------------------------------------------------------------

# a position the flow can still step: at 1e9 a float resolves 1.2e-7, far below the smallest step's sd of 0.07
POSITION = Domain(lambda v: abs(v) <= 1e9, "a position within +-1e9")
HALF_WIDTH = Domain(lambda v: 0 <= v <= 1e9, "a half-width in [0, 1e9]")

DUALITY_SCHEMA = {
    "gamma": ("float", 2.0, GAMMA),
    "beta": ("float", 1.0, BETA),
    "laplace_t": ("float", 1.0, POSITIVE),
    "laplace_mu_lo": ("float", -2.0, POSITION),
    "laplace_mu_hi": ("float", 2.0, POSITION),
    "laplace_pair_lo": ("float", -1.0, POSITION),
    "laplace_pair_hi": ("float", 1.0, POSITION),
    "laplace_coeff": ("float", 1.0, POSITIVE),
    "laplace_n": ("int", 10_000, REPLICAS),
    "run_control": ("bool", True, ANY),
    "control_n": ("int", 100_000, REPLICAS),
    "control_scale": ("float", 1.2, POSITIVE),
    "absorbing_a": ("float", 0.0, POSITION),
    "absorbing_b": ("float", 3.0, POSITION),
    "absorbing_c": ("float", 1.0, HALF_WIDTH),
    "absorbing_t": ("float", 1.0, POSITIVE),
    "absorbing_n": ("int", 10_000, REPLICAS),
    "occupation_y1": ("float", -1.0, POSITION),
    "occupation_y2": ("float", 1.0, POSITION),
    "occupation_c": ("float", 1.0, HALF_WIDTH),
    "occupation_t": ("float", 1.0, POSITIVE),
    "occupation_n": ("int", 10_000, REPLICAS),
    "vacancy_a": ("float", 1.0, Domain(lambda v: 0 < v <= 1e9, "a half-width in (0, 1e9]")),
    "vacancy_s1": ("float", 1.0, POSITIVE),
    "vacancy_s2": ("float", 2.0, POSITIVE),
    "vacancy_L": ("float", 4.0, POSITIVE),
    "vacancy_n": ("int", 10_000, REPLICAS),
    "run_smoke": ("bool", True, ANY),
    "smoke_n": ("int", 2_000, REPLICAS),
    "smoke_barrier_lo": ("float", -3.0, POSITION),
    "smoke_barrier_hi": ("float", 3.0, POSITION),
}


def _report_row(rows: Rows, report, extra_flag="", counts=True) -> None:
    """One check's row; it fails the run unless ``counts`` is off."""
    flag = report.verdict if not extra_flag else f"{report.verdict};{extra_flag}"
    if report.approx:
        flag += ";approx"
    param = f"lhs={report.lhs.mean:.6g};rhs={report.rhs_mean:.6g}"
    pooled = math.sqrt(report.lhs.stderr**2 + report.rhs_stderr**2)
    rows.verdict(report.passed or not counts, report.label, param, report.z_score, pooled, flag)


def _duality_configs(settings):
    """Every scbm-duality check config, with the rules that tie keys together checked before any check runs."""
    section, s = "scbm-duality", settings
    for lo, hi in (
        ("laplace_mu_lo", "laplace_mu_hi"),
        ("laplace_pair_lo", "laplace_pair_hi"),
        ("absorbing_a", "absorbing_b"),
        ("occupation_y1", "occupation_y2"),
        ("smoke_barrier_lo", "smoke_barrier_hi"),
    ):
        need(section, hi, s[lo] < s[hi], f"a value above {lo}")
    need(section, "vacancy_s2", s["vacancy_s1"] < s["vacancy_s2"], "a time above vacancy_s1")
    need(section, "control_scale", 0 < s["gamma"] * s["control_scale"] < math.inf, "a positive finite gamma * control_scale")
    for key in ("smoke_barrier_lo", "smoke_barrier_hi"):
        need(section, key, s[key] not in (s["laplace_pair_lo"], s["laplace_pair_hi"]), "a barrier off the Laplace pair points")
    params = BranchingParams(gamma=s["gamma"], beta=s["beta"])
    lap = LaplaceDualityConfig(
        params=params,
        t=s["laplace_t"],
        mu=MeasureSpec(intervals=((s["laplace_mu_lo"], s["laplace_mu_hi"]),)),
        pair=(s["laplace_pair_lo"], s["laplace_pair_hi"]),
        coefficient=s["laplace_coeff"],
        n=s["laplace_n"],
    )
    occupation = GapConfig((s["occupation_y1"], s["occupation_y2"]), s["occupation_c"], s["occupation_t"], s["occupation_n"])
    cfgs = dict(
        laplace=lap,
        control=replace(lap, n=s["control_n"], rhs_gamma_scale=s["control_scale"]),
        # without branching only the edge points of a gap's measure reach its window: a coarse lattice serves
        absorbing=GapConfig(
            (s["absorbing_a"], s["absorbing_b"]), s["absorbing_c"], s["absorbing_t"], s["absorbing_n"], spacing=0.5
        ),
        occupation_eq=replace(occupation, spacing=0.5),
        occupation_bound=occupation,
        vacancy=VacancyBoundConfig(
            params=params,
            a=s["vacancy_a"],
            s1=s["vacancy_s1"],
            s2=s["vacancy_s2"],
            mu=MeasureSpec(intervals=((-s["vacancy_L"], s["vacancy_L"]),)),
            n=s["vacancy_n"],
        ),
        smoke=replace(lap, n=s["smoke_n"], dt=5e-3, barriers=(s["smoke_barrier_lo"], s["smoke_barrier_hi"])),
    )
    for key, cfg, t_end in (
        ("laplace_t", cfgs["smoke"], lap.t),
        ("absorbing_t", cfgs["absorbing"], s["absorbing_t"]),
        ("occupation_t", cfgs["occupation_bound"], s["occupation_t"]),
        ("vacancy_s2", cfgs["vacancy"], s["vacancy_s2"]),
    ):
        need(section, key, t_end / cfg.dt <= FLOW_STEPS, f"at most {FLOW_STEPS} flow steps of {cfg.dt:g}")
    for key, cfg in (("laplace_mu_hi", lap), ("vacancy_L", cfgs["vacancy"])):
        lo, hi = cfg.mu.intervals[0]
        points = ((hi - lo) / cfg.spacing + 2) * _BATCH
        need(section, key, points <= LATTICE_POINTS, f"at most {LATTICE_POINTS} lattice points per batch of {_BATCH}")
    return cfgs


def _run_scbm_duality(settings, rows, threads):
    seed = rows.seed
    cfgs = _duality_configs(settings)
    _report_row(rows, laplace_duality_check(cfgs["laplace"], seed, threads))

    if settings["run_control"]:
        control = laplace_duality_check(cfgs["control"], seed + 1, threads)
        detected = abs(control.z_score) > 3.0
        flag = ("detected" if detected else "missed") + (";approx" if control.approx else "")
        rows.verdict(detected, "laplace_negative_control", f"scale={settings['control_scale']:g}", control.z_score, flag=flag)

    absorbing = cfgs["absorbing"]
    _report_row(rows, absorbing_extinction_check(absorbing, seed + 10, threads))
    rows.add("absorbing_truncation_bound", f"margin={absorbing.margin:g}", truncation_escape_bound(absorbing.margin, absorbing.t))
    # the occupation equality is the absorbing reading on the occupation window
    _report_row(rows, absorbing_extinction_check(cfgs["occupation_eq"], seed + 20, threads, "occupation_duality_equality"))
    _report_row(rows, occupation_duality_check(cfgs["occupation_bound"], cfgs["laplace"].params, seed + 30, threads))
    _report_row(rows, interval_vacancy_bound_check(cfgs["vacancy"], seed + 40, threads))

    if settings["run_smoke"]:
        _report_row(rows, laplace_duality_check(cfgs["smoke"], seed + 50, threads), extra_flag="smoke", counts=False)


# ---------------------------------------------------------------------------
# integral-test
# ---------------------------------------------------------------------------


def _growth(spec: str):
    """The growth function of ``spec``, or None when it does not parse."""
    try:
        return parse_growth(spec)
    except ValueError:
        return None


GROWTH = Domain(lambda v: _growth(v) is not None, "power:P, constant:C, cappedexp:CAP or staircase:t:v,t:v,...")

INTEGRAL_SCHEMA = {
    "g": ("str", "power:0.3", GROWTH),
    "gamma": ("float", 2.0, GAMMA),
    "beta": ("float", 1.0, BETA),
    "horizon": ("float", 1e4, Domain(lambda v: 1 < v and math.isfinite(4 * v), "a horizon > 1 with 4 * horizon finite")),
    # term n reads g at e^(n+1), which overflows past n = 708
    "series_n": ("int", 12, Domain(lambda v: 1 <= v <= 708, "between 1 and 708 terms")),
    "delta": ("float", 0.75, Domain(lambda v: 0.5 < v < 1, "delta in (1/2, 1)")),
    "seq_n": ("int", 10, Domain(lambda v: v >= 1, "seq_n >= 1")),
    "block_index": ("int", 1, Domain(lambda v: v >= 1, "a block index in 1..seq_n")),
    "envelope_eps": ("float", 0.1, Domain(lambda v: 0 < v < 0.5, "envelope_eps in (0, 1/2)")),
}


def _run_integral_test(settings, rows, threads):
    section = "integral-test"
    params = BranchingParams(gamma=settings["gamma"], beta=settings["beta"])
    g = parse_growth(settings["g"])
    # u_t(inf) decreases in t, and no time the command reads lies below 1
    need(section, "gamma", math.isfinite(cumulant_limit(params, 1.0)), "a rate at which u_1(inf) stays finite")
    need(section, "g", g(1.0) > 0, "a growth function positive at time 1")
    need(section, "g", math.isfinite(g(4 * settings["horizon"])), "a growth function finite up to 4 * horizon")
    need(section, "block_index", settings["block_index"] <= settings["seq_n"], "a block index in 1..seq_n")
    triple = build_sequences(g, settings["seq_n"])
    k, idx = len(triple.times), settings["block_index"]

    diag = integral_partial(g, params.beta, settings["horizon"])
    rows.add("integral_partial", g.label, diag.value, flag=diag.classification, horizon=settings["horizon"])
    rows.add("integral_partial", g.label, diag.value_2t, horizon=2 * settings["horizon"])
    rows.add("integral_partial", g.label, diag.value_4t, horizon=4 * settings["horizon"])
    if diag.limit_estimate is not None:
        rows.add("integral_limit", g.label, diag.limit_estimate)

    series = series_eval(g, params, settings["series_n"], settings["delta"])
    ladder = zip(series.times.tolist(), series.terms, series.partial_sums, series.tail_terms)
    for i, (t, term, psum, tail) in enumerate(ladder, start=1):
        rows.add("series_term", g.label, term, index=i, horizon=i)
        rows.add("series_partial_sum", g.label, psum, index=i, horizon=i)
        rows.add("series_tail_bound", g.label, tail, index=i, horizon=i)
        # P(X_t([-g(t), g(t)]) > 0), at most 1 - exp(-2 g(t) u_t(inf)): half the term or less
        rows.add("ladder_charge", g.label, window_charge(params, g(t), t), index=i, horizon=i)
    rows.add("series_bounded", g.label, series.bounded)
    rows.add("comparison_constant", "", series.comparison)

    for n in range(k):
        ok, flags = True, []
        if n < k - 1:
            ok = triple.eqng_ok[n]
            flags.append("eqng_ok" if ok else "eqng_fail")
        if 1 <= n < k - 1:
            ok = ok and triple.intervaldiff_ok[n]
            flags.append("diff_ok" if triple.intervaldiff_ok[n] else "diff_fail")
            flags.append("window_ok" if triple.window_ok[n] else "window_empty")
        rows.verdict(ok, "sequence_time", g.label, triple.times[n], flag=";".join(flags), index=n, horizon=n)
        if n >= 1:
            rows.add("sequence_lower", g.label, triple.lower[n], index=n, horizon=n)
        rows.add("sequence_upper", g.label, triple.upper[n], index=n, horizon=n)
    if triple.terminated:
        rows.add("sequence_terminated", g.label, True, flag="growth_exhausted")

    bounds = escape_probability_bounds(g, triple, settings["envelope_eps"])
    for n in range(k):
        env = "env_ok" if bounds.envelope_ok[n] else "env_violated"
        rows.add("escape_block_bound", g.label, bounds.block[n], flag=env, index=n, horizon=n)
        if n >= 1:
            rows.add("escape_coupling_bound", g.label, bounds.coupling[n], index=n, horizon=n)

    if idx >= k:  # the growth stopped tripling before block idx; the value is the last sequence index
        rows.add("block_survival_skipped", g.label, k - 1, flag="growth_exhausted", index=idx, horizon=idx)
    else:
        prob, empty = block_survival_closed_form(params, idx, triple)
        rows.add("block_survival_closed_form", g.label, prob, flag="empty" if empty else "", index=idx, horizon=idx)

    if len(series.partial_sums) >= 2:
        return (
            [("partial sums", list(range(1, len(series.partial_sums) + 1)), list(series.partial_sums))],
            f"series partial sums ({g.label})",
            "term index",
            "partial sum",
        )
    return None


# ---------------------------------------------------------------------------
# survival
# ---------------------------------------------------------------------------

SURVIVAL_SCHEMA = {
    "gamma": ("float", 2.0, GAMMA),
    "beta": ("float", 1.0, BETA),
    "truncation": ("float", SurvivalConfig.truncation, NONNEGATIVE),
    "horizons": ("floats", SurvivalConfig.horizons, POSITIVE),
    "replicas": ("int", SurvivalConfig.replicas, REPLICAS),
    "g": ("str", "constant:1", GROWTH),
    "g_alt": ("str", "", Domain(lambda v: v == "" or _growth(v) is not None, "empty, or a g spec")),
    "batch": ("int", SurvivalConfig.batch, Domain(lambda v: v >= 1, "batch >= 1")),
    "expect_decreasing": ("bool", False, ANY),
    "expect_domination": ("bool", False, ANY),
}


def _run_survival(settings, rows, threads):
    params = BranchingParams(gamma=settings["gamma"], beta=settings["beta"])
    g_main = parse_growth(settings["g"])
    g_alt = parse_growth(settings["g_alt"]) if settings["g_alt"] else None
    h = settings["horizons"]
    for key, g in (("g", g_main), ("g_alt", g_alt)):
        need("survival", key, g is None or math.isfinite(g(h[-1])), "a growth function finite up to the last horizon")
    need("survival", "expect_decreasing", not settings["expect_decreasing"] or len(h) >= 2, "at least two horizons")
    need("survival", "expect_domination", not settings["expect_domination"] or g_alt is not None, "a g_alt to compare")
    try:  # SurvivalConfig checks the rules that tie keys together, naming the key
        cfgs = [
            SurvivalConfig(
                params=params,
                g=g,
                truncation=settings["truncation"],
                horizons=tuple(h),
                replicas=settings["replicas"],
                batch=settings["batch"],
            )
            for g in [g_main] + ([g_alt] if g_alt is not None else [])
        ]
    except ValueError as exc:
        raise ConfigError(f"section [survival]: {exc}") from exc

    results = []
    for cfg in cfgs:
        res = survival_experiment(cfg, rows.seed, threads)
        results.append(res)
        for i, (horizon, frac, se) in enumerate(zip(res.horizons, res.fractions, res.stderrs)):
            flag = "approx" if params.beta < 1 else ""
            if i == len(res.horizons) - 1:
                flag = (flag + ";" if flag else "") + f"alive_at_end={res.alive_at_end}"
            rows.add("survival_fraction", res.g_label, frac, se, flag, horizon=horizon)

    if settings["expect_decreasing"]:
        fr = results[0].fractions
        ok = all(a > b for a, b in zip(fr, fr[1:]))
        rows.verdict(ok, "decreasing_trend", results[0].g_label, ok)
    if settings["expect_domination"]:
        ok = all(b >= a for a, b in zip(results[0].fractions, results[1].fractions))
        rows.verdict(ok, "domination", f"{results[1].g_label}>={results[0].g_label}", ok)

    return (
        [(res.g_label, list(res.horizons), list(res.fractions)) for res in results],
        "window survival fractions",
        "horizon",
        "fraction surviving",
    )


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

RUN_SCHEMA = {
    "seed": ("int", 12345, Domain(lambda v: v >= 0, "a seed >= 0")),
    "threads": ("int", 1, Domain(lambda v: v >= 1, "threads >= 1")),
    "out": ("str", "out", ANY),
    "svg": ("bool", False, ANY),
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
        raw = dict(sections.get("run", {}))  # flags override the file and meet the same domains
        raw.update({key: str(getattr(args, key)) for key in ("seed", "threads", "out") if getattr(args, key) is not None})
        if args.svg is not None:
            raw["svg"] = "true"
        run = apply_schema("run", raw, RUN_SCHEMA)
        schema, handler = SUBCOMMANDS[args.command]
        settings = apply_schema(args.command, sections.get(args.command, {}), schema)
        known = set(SUBCOMMANDS) | {"run", ""}
        for name in sections:
            if name not in known:
                raise ConfigError(f"unknown config section [{name}]")
        rows = Rows(args.command, run["seed"])
        # a handler returns the arguments of its line_chart, or None; the chart is drawn only when svg is on
        chart = handler(settings, rows, run["threads"])
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = Path(run["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{args.command}.csv"
    csv_path.write_text(CSV_HEADER + "\n" + "".join(r + "\n" for r in rows.lines), encoding="utf-8")
    if run["svg"] and chart is not None:
        (out_dir / f"{args.command}.svg").write_text(line_chart(*chart), encoding="utf-8")
    print(f"wrote {csv_path}" + (" (checks failed)" if rows.failed else ""))
    return EXIT_FAILED if rows.failed else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
