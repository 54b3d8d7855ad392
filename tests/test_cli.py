import hashlib
import math
import re
from pathlib import Path

import pytest

from scbm.branching import cumulant_limit, sample_entrance_mass
from scbm.cli import CSV_HEADER, SUBCOMMANDS, main
from scbm.config import ANY, ConfigError, apply_schema, parse_config
from scbm.svgplot import _scale, line_chart

FAST_VERIFY = """
[run]
seed = 7
[verify-duality]
cases = 1x2
radius = 4
array_times = 0.25
"""

FAST_INTEGRAL = """
[run]
seed = 11
[integral-test]
g = power:1
series_n = 5
seq_n = 4
horizon = 100
"""

FAST_SURVIVAL = """
[run]
seed = 3
[survival]
truncation = 4
horizons = 1,2
replicas = 40
g = constant:1
g_alt = power:1
expect_domination = true
"""


FAST_DUALITY = """
[run]
seed = 5
[scbm-duality]
laplace_n = 100
control_n = 100
absorbing_n = 100
occupation_n = 100
vacancy_n = 100
smoke_n = 20
"""

# every series term is finite, and every partial sum past the first overflows
GROWTH_1E308 = "[run]\nseed = 7\n[integral-test]\ng = constant:1e308\n"

# keys a section no longer has: a config that sets one exits 2 naming it as unknown
DELETED_KEYS = {("survival", "dt"), ("survival", "spacing"), ("csbp-check", "ks_pmin"), ("integral-test", "block_n")}


def _write(tmp_path: Path, text: str) -> str:
    path = tmp_path / "config.ini"
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestConfigParsing:
    def test_sections_and_comments(self):
        sections = parse_config("# top\n[a]\nx = 1 # trailing\ny = two\n[b]\nz = 3\n")
        assert sections["a"] == {"x": "1", "y": "two"}
        assert sections["b"] == {"z": "3"}

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[a]\nx = 1\nx = 2\n")

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="mystery"):
            apply_schema("s", {"mystery": "1"}, {"known": ("int", 0, ANY)})

    def test_bad_value_reported(self):
        with pytest.raises(ConfigError, match="known"):
            apply_schema("s", {"known": "abc"}, {"known": ("int", 0, ANY)})


class TestCliRuns:
    def test_minimal_verify_duality(self, tmp_path):
        cfg = _write(tmp_path, FAST_VERIFY)
        out = tmp_path / "out"
        code = main(["verify-duality", "--config", cfg, "--out", str(out)])
        assert code == 0
        content = (out / "verify-duality.csv").read_text()
        assert content.splitlines()[0] == CSV_HEADER
        assert "generator_residual" in content

    @pytest.mark.parametrize("tol", ["1e-20", "1e-40"])
    def test_tiny_array_tol_runs(self, tmp_path, tol):
        # the series length cannot come from inverting the Poisson cdf at 1 - tol, which rounds to 1 below 1e-17
        cfg = _write(tmp_path, FAST_VERIFY + f"array_tol = {tol}\n")
        assert main(["verify-duality", "--config", cfg, "--out", str(tmp_path / "out")]) == 0

    def test_array_budget_never_negative(self, tmp_path):
        # at array_tol = 1e-20 the lost mass is below rounding, and 1 - sum(law) reads -2.2e-16 at t = 0.5 and 1
        cfg = _write(tmp_path, "[run]\nseed = 7\n[verify-duality]\ncases = 1x2\narray_tol = 1e-20\n")
        assert main(["verify-duality", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        rows = [line.split(",") for line in (tmp_path / "out" / "verify-duality.csv").read_text().splitlines()]
        budgets = [float(row[6]) for row in rows if row[3] == "array_budget"]
        assert len(budgets) == 3 and min(budgets) >= 0.0

    def test_integral_test_and_determinism(self, tmp_path):
        cfg = _write(tmp_path, FAST_INTEGRAL)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["integral-test", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["integral-test", "--config", cfg, "--out", str(out2)]) == 0
        a = (out1 / "integral-test.csv").read_bytes()
        b = (out2 / "integral-test.csv").read_bytes()
        assert a == b

    def test_integral_test_draws_nothing(self, tmp_path):
        # no row reads a random draw: seeds and thread counts change the seed column alone
        tables = []
        for seed, threads in ((7, 1), (8, 1), (7, 2), (8, 2)):
            out = tmp_path / f"s{seed}t{threads}"
            assert main(["integral-test", "--seed", str(seed), "--threads", str(threads), "--out", str(out)]) == 0
            rows = [r.split(",") for r in (out / "integral-test.csv").read_text().splitlines()[1:]]
            assert {r[1] for r in rows} == {str(seed)}
            tables.append([r[:1] + r[2:] for r in rows])
        assert all(table == tables[0] for table in tables)
        charges = [r for r in tables[0] if r[2] == "ladder_charge"]
        assert [r[1] for r in charges] == [str(i) for i in range(1, 13)]

    def test_survival_with_svg_and_domination(self, tmp_path):
        cfg = _write(tmp_path, FAST_SURVIVAL)
        out = tmp_path / "out"
        code = main(["survival", "--config", cfg, "--out", str(out), "--svg"])
        assert code == 0
        csv = (out / "survival.csv").read_text()
        assert "domination" in csv and "pass" in csv
        svg = (out / "survival.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_survival_byte_identical_rerun(self, tmp_path):
        cfg = _write(tmp_path, FAST_SURVIVAL)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["survival", "--config", cfg, "--out", str(out1), "--svg"]) == 0
        assert main(["survival", "--config", cfg, "--out", str(out2), "--svg"]) == 0
        assert (out1 / "survival.csv").read_bytes() == (out2 / "survival.csv").read_bytes()
        assert (out1 / "survival.svg").read_bytes() == (out2 / "survival.svg").read_bytes()

    def test_survival_thread_count_invariant_with_close_windows(self, tmp_path):
        # g_alt barely above g: shared draws still give the wider window at least the same fraction
        cfg = _write(tmp_path, FAST_SURVIVAL.replace("g_alt = power:1", "g_alt = constant:1.001"))
        out1, out2 = tmp_path / "t1", tmp_path / "t2"
        assert main(["survival", "--config", cfg, "--out", str(out1), "--threads", "1"]) == 0
        assert main(["survival", "--config", cfg, "--out", str(out2), "--threads", "2"]) == 0
        csv = (out1 / "survival.csv").read_bytes()
        assert csv == (out2 / "survival.csv").read_bytes()
        assert b",domination,constant:1.001>=constant:1,,true,,pass" in csv

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("horizons", ["1,1e15", "9007199254740992", "1,1e300", "1.7976931348623157e+308"])
    def test_survival_takes_long_horizons(self, tmp_path, horizons):
        # one exact pair step per horizon: no time grid, so no step budget, and any positive finite horizon runs;
        # the growth check's grid steps up to the last horizon in halves, so no step overflows past the largest float
        cfg = _write(tmp_path, f"[run]\nseed = 3\n[survival]\nhorizons = {horizons}\nreplicas = 20\n")
        assert main(["survival", "--config", cfg, "--out", str(tmp_path / "out"), "--svg"]) == 0
        rows = [r.split(",") for r in (tmp_path / "out" / "survival.csv").read_text().splitlines()[1:]]
        assert float(rows[-1][5]) == pytest.approx(float(horizons.split(",")[-1]), rel=1e-9)
        assert 0.0 <= float(rows[-1][6]) < 1e-6

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_series_terms_at_growth_1e308_stay_finite(self, tmp_path):
        # each term is 4 * (g u): 4 g would overflow first, and every term read inf; g**2 overflows in the
        # escape bounds, whose rows read exp(-inf) = 0 without a warning
        out = tmp_path / "out"
        assert main(["integral-test", "--config", _write(tmp_path, GROWTH_1E308), "--out", str(out)]) == 0
        rows = [r.split(",") for r in (out / "integral-test.csv").read_text().splitlines()[1:]]
        terms = [r for r in rows if r[3] == "series_term"]
        assert (terms[0][2], terms[0][6]) == ("1", "1.47151776469e+308")
        assert all(math.isfinite(float(r[6])) for r in terms)
        assert [r[6] for r in rows if r[3] == "series_bounded"] == ["true"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_laplace_row_at_a_huge_finite_z_passes(self, tmp_path):
        # at z = 1e308, u_t(z) is u_t(inf) and exp(-z X) is 1{X = 0}: the row reads the extinction law, quietly
        cfg = _write(tmp_path, "[run]\nseed = 12345\n[csbp-check]\nlaplace_z = 0.5,1e308\nsampler_n = 2000\nentrance_n = 200\n")
        out = tmp_path / "out"
        assert main(["csbp-check", "--config", cfg, "--out", str(out)]) == 0
        rows = [r.split(",") for r in (out / "csbp-check.csv").read_text().splitlines()[1:]]
        row = next(r for r in rows if r[3] == "laplace_z" and r[4] == "z=1e+308")
        assert abs(float(row[6])) <= 3.0 and row[8] == "pass"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_csbp_check_at_the_largest_flow_max_is_quiet(self, tmp_path):
        # the flow grid's sums s + t and the rates gamma beta t pass the largest float: they read inf quietly
        cfg = _write(tmp_path, "[csbp-check]\nflow_max = 1e308\nsampler_n = 100\nentrance_n = 20\n")
        out = tmp_path / "out"
        assert main(["csbp-check", "--config", cfg, "--out", str(out)]) == 0
        rows = {r.split(",")[3]: r.split(",") for r in (out / "csbp-check.csv").read_text().splitlines()[1:]}
        assert rows["flow_residual"][8] == "pass" and rows["flow_anchor_error"][8] == "pass"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "sampler_x, zpt",
        [
            # exp(-z X) underflows for every draw of a law without mass at 0: the entrance law's, and the
            # transition law's from x = 50, where P(X = 0) = e^-50
            (1.0, 1e6),
            (50.0, 1e6),
            # both transforms lie within 1e-8 of 1: the variance reads from their complements
            (1.0, 1e-9),
        ],
    )
    def test_laplace_rows_take_their_spread_from_the_law(self, tmp_path, sampler_x, zpt):
        cfg = _write(tmp_path, f"[run]\nseed = 7\n[csbp-check]\nsampler_x = {sampler_x}\nlaplace_z = {zpt}\nflow_points = 2\n")
        out = tmp_path / "out"
        assert main(["csbp-check", "--config", cfg, "--out", str(out)]) == 0
        rows = [r.split(",") for r in (out / "csbp-check.csv").read_text().splitlines()[1:]]
        laplace = [r for r in rows if r[3].endswith("laplace_z")]
        assert len(laplace) == 2 and all(float(r[7]) > 0 and abs(float(r[6])) <= 3 for r in laplace)

    def test_beta_half_at_the_default_seed_passes(self, tmp_path):
        # below beta = 1 the transition law has infinite variance, so a z-score of its sample mean has no normal
        # law (it read -5.07 here); the Laplace rows pin the whole law, and read as they did beside that row
        cfg = _write(tmp_path, "[csbp-check]\nbeta = 0.5\n")
        out = tmp_path / "out"
        assert main(["csbp-check", "--config", cfg, "--out", str(out)]) == 0
        rows = [r.split(",") for r in (out / "csbp-check.csv").read_text().splitlines()[1:]]
        assert [r[3] for r in rows] == ["flow_residual", "flow_anchor_error", "extinction_z"] + ["laplace_z"] * 3 + [
            "entrance_laplace_z"
        ] * 3
        assert [r[6] for r in rows[3:]] == [
            "1.6238486271",
            "1.22853616228",
            "0.905392237402",
            "-0.935592408095",
            "-1.13692890112",
            "-1.47956394425",
        ]

    @pytest.mark.parametrize("beta", [1.0, 0.5])
    @pytest.mark.parametrize("seed", [7, 8, 9, 12345])
    def test_entrance_laplace_rows_pass(self, tmp_path, seed, beta):
        # the entrance rows read stream 2 alone: a small transition sample and flow grid leave them as at defaults
        cfg = _write(tmp_path, f"[run]\nseed = {seed}\n[csbp-check]\nbeta = {beta}\nsampler_n = 2000\nflow_points = 2\n")
        out = tmp_path / "out"
        assert main(["csbp-check", "--config", cfg, "--out", str(out)]) in (0, 3)
        rows = [r.split(",") for r in (out / "csbp-check.csv").read_text().splitlines()[1:]]
        entrance = [r for r in rows if r[3] == "entrance_laplace_z"]
        assert [r[4] for r in entrance] == ["z=0.5", "z=1", "z=2"]
        assert all(r[8] == ("pass" if beta == 1.0 else "pass;approx") for r in entrance)

    @pytest.mark.parametrize(
        "beta, mutant",
        [
            # draws 20% too large
            (1.0, lambda params, r, rng, size: 1.2 * sample_entrance_mass(params, r, rng, size)),
            # the exponential law of beta = 1, at the right mean
            (0.5, lambda params, r, rng, size: rng.exponential(1.0 / cumulant_limit(params, r), size)),
        ],
    )
    def test_entrance_laplace_rows_fail_a_mutant_sampler(self, tmp_path, monkeypatch, beta, mutant):
        monkeypatch.setattr("scbm.cli.sample_entrance_mass", mutant)
        cfg = _write(tmp_path, f"[run]\nseed = 7\n[csbp-check]\nbeta = {beta}\nsampler_n = 2000\nflow_points = 2\n")
        out = tmp_path / "out"
        assert main(["csbp-check", "--config", cfg, "--out", str(out)]) == 3
        rows = [r.split(",") for r in (out / "csbp-check.csv").read_text().splitlines()[1:]]
        entrance = [r for r in rows if r[3] == "entrance_laplace_z"]
        assert len(entrance) == 3 and all(r[8].split(";")[0] == "fail" for r in entrance)

    @pytest.mark.parametrize("growth, last", [("constant:1", 0), ("cappedexp:100", 3)])
    def test_block_rows_skipped_when_growth_exhausted(self, tmp_path, growth, last):
        cfg = _write(tmp_path, f"[integral-test]\ng = {growth}\nblock_index = 5\nseries_n = 3\n")
        out = tmp_path / "out"
        assert main(["integral-test", "--config", cfg, "--out", str(out)]) == 0
        rows = [r.split(",") for r in (out / "integral-test.csv").read_text().splitlines()[1:]]
        skipped = [r for r in rows if r[3] == "block_survival_skipped"]
        assert len(skipped) == 1
        assert (skipped[0][2], skipped[0][6], skipped[0][8]) == ("5", str(last), "growth_exhausted")
        assert not any(r[3].startswith("block_survival_") and r[3] != "block_survival_skipped" for r in rows)

    def test_duality_thread_count_invariant(self, tmp_path):
        cfg = _write(tmp_path, FAST_DUALITY)
        out1, out2 = tmp_path / "t1", tmp_path / "t2"
        assert main(["scbm-duality", "--config", cfg, "--out", str(out1), "--threads", "1"]) in (0, 3)
        assert main(["scbm-duality", "--config", cfg, "--out", str(out2), "--threads", "2"]) in (0, 3)
        assert (out1 / "scbm-duality.csv").read_bytes() == (out2 / "scbm-duality.csv").read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = _write(tmp_path, FAST_SURVIVAL)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["survival", "--config", cfg, "--out", str(out1)])
        main(["survival", "--config", cfg, "--out", str(out2), "--seed", "99"])
        a = (out1 / "survival.csv").read_text()
        b = (out2 / "survival.csv").read_text()
        assert a != b
        assert ",99," in b


class TestFlatChartAxis:
    # constant:1e20 makes every series partial sum equal: the chart's axis is flat at a value past 2**53
    FLAT = "[run]\nseed = 7\n[integral-test]\ng = constant:1e20\nbeta = 0.02\n"

    @pytest.mark.parametrize("flags", [[], ["--svg"]])
    def test_flat_series_at_1e20_writes_its_csv(self, tmp_path, flags):
        out = tmp_path / "out"
        assert main(["integral-test", "--config", _write(tmp_path, self.FLAT), "--out", str(out), *flags]) == 0
        assert (out / "integral-test.csv").read_text().startswith(CSV_HEADER)
        assert (out / "integral-test.svg").exists() == bool(flags)

    @pytest.mark.parametrize("v", [3.0, 1e20, 1e308, -1e308])
    def test_flat_axis_scales_to_finite_pixels(self, v):
        to_pix, vmin, vmax = _scale([v, v], 0, 100)
        assert vmin < v < vmax
        assert math.isfinite(to_pix(v)) and math.isfinite(to_pix(vmin)) and math.isfinite(to_pix(vmax))


def _polyline_points(svg: str) -> list[str]:
    return re.search(r'<polyline [^>]*points="([^"]*)"', svg).group(1).split()


class TestFiniteChart:
    """A chart frames and draws the points whose coordinates are both finite: no ``nan`` or ``inf`` reaches the SVG."""

    @pytest.mark.parametrize(
        "ys",
        [
            [1.0, math.inf, 2.0],
            [-math.inf, 1.0, 3.0],
            [1.0, math.nan, 2.0],
            [math.nan, math.inf, -math.inf],
            [-1e308, 1e308, 0.0],
            None,  # the integral-test chart at g = constant:1e308: its partial sums overflow from the second term
        ],
    )
    def test_no_nan_or_inf_token(self, tmp_path, ys):
        if ys is None:
            out = tmp_path / "out"
            assert main(["integral-test", "--config", _write(tmp_path, GROWTH_1E308), "--out", str(out), "--svg"]) == 0
            svg, drawn = (out / "integral-test.svg").read_text(), 1
        else:
            svg, drawn = line_chart([("s", [1.0, 2.0, 3.0], ys)], "t", "x", "y"), sum(map(math.isfinite, ys))
        assert not re.search(r"nan|inf", svg, re.IGNORECASE)
        assert len(_polyline_points(svg)) == drawn

    def test_span_past_the_largest_float(self):
        to_pix, vmin, vmax = _scale([-1e308, 1e308], 0, 100)
        assert math.isfinite(vmin) and math.isfinite(vmax)
        assert to_pix(0.0) == 50.0 and 0 < to_pix(-1e308) < to_pix(1e308) < 100


# the perfbench workload settings, copied verbatim, every command at its defaults, and scbm-duality at
# beta = 0.5 with the duality workload's replica counts (which pins the approx flags the checks derive), and
# integral-test at g = constant:1e308, with the sha256 of the CSV each writes at seed 7 on one thread; the
# workloads were recorded at 019d37c, integral-test at g = constant:1e308 at ee2ae7c, the rest at f564ae3, and
# both scbm-duality digests again when the free right sides became one exact pair step, csbp-check and
# integral-test at g = constant:1e308 again when the entrance law was read through its Laplace transform, both
# laws' Laplace rows took their standard errors from the law's second moment and the classification integral
# was read through log-scale Gauss-Legendre, and both integral-test digests and csbp-check again when the ladder
# charge rows replaced the block Monte Carlo row and the sample-mean row went, with numpy 2.4.6 on x86-64.  A
# change that moves a row says so and records it anew
GOLDEN = {
    "duality": (
        "scbm-duality",
        "laplace_n = 200\ncontrol_n = 1000\ncontrol_scale = 2\nabsorbing_n = 100\n"
        "occupation_n = 100\nvacancy_n = 200\nsmoke_n = 20\n",
        "7299eee7fb96a4181d4fa71df8e1d41c6ab41ea33652a1592ca6195ec9480e76",
    ),
    "survival-beta1": (
        "survival",
        "replicas = 320\nexpect_decreasing = true\n",
        "d24da3bfdc2db6ae6cfc9fcf9c6e2cd5005de57d15e70b83672c9598e9b64661",
    ),
    "survival-beta05": (
        "survival",
        "beta = 0.5\ntruncation = 4\nhorizons = 1,2\nreplicas = 4\nbatch = 4\n",
        "ea79a06b9c31605c59887bf5850a92ea83632da33d71fbdc24ad7f7415597522",
    ),
    "oracle": (
        "verify-duality",
        "cases = 1x2,2x2,2x3,3x2,3x3\n",
        "150249ea1eaf179fe538a6dc5bf98ef1377b325736a490c3705e42a1b1a5f4ca",
    ),
    "verify-duality-defaults": (
        "verify-duality",
        "",
        "653f9563b5ade0c4b768a6adcdfd34d5b7a8f96ece16221180639242088727f8",
    ),
    "csbp-check-defaults": (
        "csbp-check",
        "",
        "9600401436ae28dd4285cfec501e7a0cde93c36e5a7ae6658f0338be707dfa88",
    ),
    "integral-test-defaults": (
        "integral-test",
        "",
        "3ace31539c6c0f4c3c481ee905ab3a2239d1122a52dfd1619347d08e463fbed6",
    ),
    "survival-defaults": (
        "survival",
        "",
        "996ff3b96b573bddb593cbc14b7b949ef3a9ee7d3381af6766944d2aac97642a",
    ),
    "duality-beta05": (
        "scbm-duality",
        "beta = 0.5\nlaplace_n = 200\ncontrol_n = 1000\ncontrol_scale = 2\nabsorbing_n = 100\n"
        "occupation_n = 100\nvacancy_n = 200\nsmoke_n = 20\n",
        "f9bd9b5f15a8038887ef0ff4b73851840bf3d3f6309537ca65a01e1723e0d506",
    ),
    "integral-test-growth-1e308": (
        "integral-test",
        "g = constant:1e308\n",
        "1bf87e58bd82832f3fc77ec5a461c0b36fe19e1653fdf104351599d4c7aa1ad1",
    ),
}


class TestGoldenCsv:
    @pytest.mark.parametrize("workload", sorted(GOLDEN))
    def test_workload_csv_bytes(self, tmp_path, workload):
        command, settings, digest = GOLDEN[workload]
        cfg = _write(tmp_path, f"[run]\nseed = 7\nthreads = 1\n\n[{command}]\n{settings}")
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        assert hashlib.sha256((out / f"{command}.csv").read_bytes()).hexdigest() == digest


FAST_SURVIVAL_HALF = """
[run]
seed = 13
[survival]
beta = 0.5
truncation = 1
horizons = 0.5,1
replicas = 8
batch = 4
"""


class TestCliBetaHalf:
    def test_survival_runs_through_engine_flagged_approx(self, tmp_path):
        cfg = _write(tmp_path, FAST_SURVIVAL_HALF)
        out = tmp_path / "out"
        assert main(["survival", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "survival.csv").read_text().splitlines()[1:]
        assert len(rows) == 2
        for row in rows:
            fields = row.split(",")
            assert 0.0 <= float(fields[6]) <= 1.0
            assert "approx" in fields[8].split(";")


    def test_scbm_duality_runs_with_branching_rows_flagged_approx(self, tmp_path):
        # the replica counts of the perfbench duality workload
        cfg = _write(
            tmp_path,
            "[run]\nseed = 5\n[scbm-duality]\nbeta = 0.5\nlaplace_n = 200\ncontrol_n = 1000\ncontrol_scale = 2\n"
            "absorbing_n = 100\noccupation_n = 100\nvacancy_n = 200\nsmoke_n = 20\n",
        )
        out = tmp_path / "out"
        assert main(["scbm-duality", "--config", cfg, "--out", str(out)]) in (0, 3)
        rows = [row.split(",") for row in (out / "scbm-duality.csv").read_text().splitlines()[1:]]
        flags = {fields[3]: fields[8].split(";") for fields in rows}
        branching = (
            "laplace_duality",
            "laplace_negative_control",
            "occupation_duality_bound",
            "interval_vacancy_bound",
            "reflected_laplace_smoke",
        )
        for name in branching:
            assert "approx" in flags[name], name
        assert set(flags) == set(branching) | {"absorbing_extinction", "absorbing_truncation_bound", "occupation_duality_equality"}


class TestCliErrors:
    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = _write(tmp_path, "[survival]\nwidgets = 3\n")
        code = main(["survival", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "widgets" in capsys.readouterr().err

    def test_negative_gamma_exits_2(self, tmp_path):
        cfg = _write(tmp_path, "[survival]\ngamma = -2\nreplicas = 10\nhorizons = 1,2\n")
        assert main(["survival", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_unknown_section_exits_2(self, tmp_path, capsys):
        cfg = _write(tmp_path, "[mystery]\nx = 1\n")
        code = main(["survival", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "mystery" in capsys.readouterr().err

    def test_bad_growth_spec_exits_2(self, tmp_path):
        cfg = _write(tmp_path, "[survival]\ng = cubic:3\nreplicas = 10\nhorizons = 1,2\n")
        assert main(["survival", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_malformed_line_exits_2(self, tmp_path):
        cfg = _write(tmp_path, "[survival]\nthis line has no equals\n")
        assert main(["survival", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "command, line, key",
        [
            ("survival", "batch = 0", "batch"),
            ("survival", "replicas = 1", "replicas"),
            # keys of the deleted survival lattice flow, even at their old defaults: refused as unknown keys
            ("survival", "dt = 0.1", "dt"),
            ("survival", "spacing = 0.05", "spacing"),
            ("survival", "dt = 0", "dt"),
            ("survival", "dt = -0.1", "dt"),
            ("survival", "dt = 1e-9", "dt"),
            ("survival", "spacing = 0", "spacing"),
            ("survival", "spacing = inf", "spacing"),
            ("survival", "spacing = -0.05", "spacing"),
            ("survival", "spacing = 1e-300", "spacing"),
            ("survival", "spacing = 1e200", "spacing"),
            ("survival", "spacing = 1e-9", "spacing"),
            # the alive_at_end draws of 32 replicas would hold about 4e10 fragments: the truncation is too
            # large at the default horizons, and the horizon too short at the default truncation
            ("survival", "truncation = 1e12\nbeta = 0.5", "truncation"),
            ("survival", "horizons = 0.01\nbeta = 0.5", "horizons"),
            ("survival", "expect_domination = true", "expect_domination"),
            ("survival", "expect_decreasing = true\nhorizons = 4", "expect_decreasing"),
            ("survival", "[run]\nseed = -1", "seed"),
            ("verify-duality", "[run]\nseed = -1", "seed"),
            ("survival", "[run]\nthreads = 0", "threads"),
            ("survival", "[run]\nthreads = -1", "threads"),
            ("survival", "gamma = 0", "gamma"),
            ("scbm-duality", "laplace_n = 1", "laplace_n"),
            ("scbm-duality", "smoke_n = 0", "smoke_n"),
            ("scbm-duality", "laplace_mu_lo = 5", "scbm-duality"),
            ("scbm-duality", "laplace_t = 0", "laplace_t"),
            ("scbm-duality", "vacancy_s1 = 3\nvacancy_s2 = 2", "vacancy_s1"),
            ("scbm-duality", "vacancy_s2 = 1", "vacancy_s2"),
            ("verify-duality", "cases = 1x", "cases"),
            ("verify-duality", "cases = 2x2,0x1", "cases"),
            ("verify-duality", "array_tol = 0", "array_tol"),
            ("verify-duality", "barrier_hi = 1", "barrier_hi"),
            ("verify-duality", "barrier_lo = 0.5", "barrier_lo"),
            ("verify-duality", "array_y = 0.5,4", "array_y"),
            ("verify-duality", "array_x = 1.5,3", "array_x"),
            ("verify-duality", "array_times = -1", "array_times"),
            ("verify-duality", "radius = -1", "radius"),
            ("verify-duality", "residual_tol = 0", "residual_tol"),
            ("verify-duality", "tv_tol = -0.1", "tv_tol"),
            ("verify-duality", "budget_tol = 0", "budget_tol"),
            ("survival", "truncation = inf", "truncation"),
            ("survival", "horizons = 1,nan", "horizons"),
            ("integral-test", "horizon = 0.5", "horizon"),
            ("integral-test", "delta = 1", "delta"),
            ("integral-test", "gamma = 0", "gamma"),
            ("integral-test", "block_index = 0", "block_index"),
            ("integral-test", "block_index = -3", "block_index"),
            ("integral-test", "block_index = 11", "block_index"),
            ("scbm-duality", "gamma = 0", "gamma"),
            ("csbp-check", "gamma = 0", "gamma"),
            ("csbp-check", "sampler_t = 0", "sampler_t"),
            ("csbp-check", "entrance_r = 0", "entrance_r"),
            ("csbp-check", "sampler_x = -1", "sampler_x"),
            ("csbp-check", "sampler_x = 0", "sampler_x"),
            ("csbp-check", "flow_max = -1", "flow_max"),
            ("csbp-check", "flow_gammas = -1", "flow_gammas"),
            ("csbp-check", "flow_gammas = 0.5,0", "flow_gammas"),
            ("csbp-check", "flow_betas = 2", "flow_betas"),
            ("csbp-check", "laplace_z = -1", "laplace_z"),
            ("csbp-check", "sampler_n = 0", "sampler_n"),
            ("csbp-check", "sampler_n = 1", "sampler_n"),
            ("csbp-check", "entrance_n = 0", "entrance_n"),
            ("csbp-check", "flow_points = 0", "flow_points"),
            ("csbp-check", "flow_tol = 0", "flow_tol"),
            ("csbp-check", "anchor_tol = -1", "anchor_tol"),
            ("csbp-check", "ks_pmin = 1", "ks_pmin"),
            ("integral-test", "block_n = 1", "block_n"),
            ("integral-test", "block_n = 10000", "block_n"),
            ("scbm-duality", "laplace_mu_lo = nan", "laplace_mu_lo"),
            ("scbm-duality", "laplace_mu_lo = -inf", "laplace_mu_lo"),
            ("scbm-duality", "laplace_mu_hi = nan", "laplace_mu_hi"),
            ("scbm-duality", "laplace_mu_hi = inf", "laplace_mu_hi"),
            ("scbm-duality", "vacancy_L = nan", "vacancy_L"),
            ("scbm-duality", "vacancy_L = inf", "vacancy_L"),
            ("scbm-duality", "vacancy_L = -inf", "vacancy_L"),
            ("scbm-duality", "control_scale = nan", "control_scale"),
            ("scbm-duality", "control_scale = inf", "control_scale"),
            ("scbm-duality", "control_scale = -inf", "control_scale"),
            # gamma * control_scale underflows to 0: a control without branching
            ("scbm-duality", "gamma = 5e-324\ncontrol_scale = 0.5", "control_scale"),
            ("scbm-duality", "absorbing_a = nan", "absorbing_a"),
            ("scbm-duality", "absorbing_a = -inf", "absorbing_a"),
            ("scbm-duality", "absorbing_a = inf", "absorbing_a"),
            ("scbm-duality", "absorbing_b = nan", "absorbing_b"),
            ("scbm-duality", "absorbing_b = inf", "absorbing_b"),
            ("scbm-duality", "absorbing_c = nan", "absorbing_c"),
            ("scbm-duality", "absorbing_c = inf", "absorbing_c"),
            ("scbm-duality", "absorbing_c = -inf", "absorbing_c"),
            ("scbm-duality", "occupation_y1 = nan", "occupation_y1"),
            ("scbm-duality", "occupation_y1 = -inf", "occupation_y1"),
            ("scbm-duality", "occupation_y1 = inf", "occupation_y1"),
            ("scbm-duality", "occupation_y2 = nan", "occupation_y2"),
            ("scbm-duality", "occupation_y2 = inf", "occupation_y2"),
            ("scbm-duality", "occupation_c = nan", "occupation_c"),
            ("scbm-duality", "occupation_c = inf", "occupation_c"),
            ("scbm-duality", "occupation_c = -inf", "occupation_c"),
            ("scbm-duality", "laplace_pair_lo = inf", "laplace_pair_lo"),
            ("scbm-duality", "laplace_pair_lo = nan", "laplace_pair_lo"),
            ("scbm-duality", "laplace_pair_lo = -inf", "laplace_pair_lo"),
            ("scbm-duality", "laplace_pair_hi = -inf", "laplace_pair_hi"),
            ("scbm-duality", "laplace_pair_hi = nan", "laplace_pair_hi"),
            ("scbm-duality", "laplace_pair_hi = inf", "laplace_pair_hi"),
            ("scbm-duality", "laplace_coeff = -inf", "laplace_coeff"),
            ("scbm-duality", "laplace_coeff = nan", "laplace_coeff"),
            ("scbm-duality", "laplace_coeff = inf", "laplace_coeff"),
            ("scbm-duality", "vacancy_a = -inf", "vacancy_a"),
            ("scbm-duality", "vacancy_a = nan", "vacancy_a"),
            ("scbm-duality", "vacancy_a = inf", "vacancy_a"),
            ("scbm-duality", "smoke_barrier_lo = inf", "smoke_barrier_lo"),
            ("scbm-duality", "smoke_barrier_lo = nan", "smoke_barrier_lo"),
            ("scbm-duality", "smoke_barrier_lo = -inf", "smoke_barrier_lo"),
            ("scbm-duality", "smoke_barrier_hi = -inf", "smoke_barrier_hi"),
            ("scbm-duality", "smoke_barrier_hi = nan", "smoke_barrier_hi"),
            ("scbm-duality", "smoke_barrier_hi = inf", "smoke_barrier_hi"),
            ("scbm-duality", "smoke_barrier_lo = -1", "smoke_barrier_lo"),
            ("scbm-duality", "smoke_barrier_hi = 1", "smoke_barrier_hi"),
            ("verify-duality", "control_min = nan", "control_min"),
            ("verify-duality", "control_min = inf", "control_min"),
            ("verify-duality", "control_min = -inf", "control_min"),
            ("integral-test", "seq_n = 0", "seq_n"),
            # oracle windows above ORACLE_STATES, refused from their state counts before anything is enumerated
            ("verify-duality", "array_times = 100", "array_times"),
            ("verify-duality", "array_times = 30", "array_times"),
            ("verify-duality", "array_times = 1e300", "array_times"),
            ("verify-duality", "array_tol = 1e-300", "array_tol"),
            ("verify-duality", "radius = 1e6", "radius"),
            ("verify-duality", "radius = 1e300", "radius"),
            ("verify-duality", "cases = 1x2,4x4", "radius"),
            ("verify-duality", "array_x = 1,1,1,1,1,1,1,1,1,1", "array_x"),
            ("verify-duality", "array_y = 0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,2.5", "array_y"),
            ("verify-duality", "array_x = 1,1,1,3", "array_x"),
            # flow runs above FLOW_STEPS grid steps or LATTICE_POINTS start points, refused before any check runs
            ("scbm-duality", "laplace_t = 1e300", "laplace_t"),
            ("scbm-duality", "vacancy_s2 = 1e300", "vacancy_s2"),
            ("scbm-duality", "absorbing_t = 1e12", "absorbing_t"),
            ("scbm-duality", "occupation_t = 1e12", "occupation_t"),
            ("scbm-duality", "laplace_mu_lo = -1e300", "laplace_mu_lo"),
            ("scbm-duality", "vacancy_L = 1e9", "vacancy_L"),
            # values that overflowed or raised inside a check
            ("csbp-check", "sampler_x = 1e300", "sampler_x"),
            ("scbm-duality", "absorbing_c = 1e300", "absorbing_c"),
            ("scbm-duality", "occupation_c = 1e300", "occupation_c"),
            ("survival", "g = power:1e300", "g"),
            # a NaN anywhere in a growth spec
            ("survival", "g = cappedexp:nan", "g"),
            ("survival", "g = staircase:nan:1", "g"),
            ("survival", "g = staircase:1:1,nan:2", "g"),
            ("integral-test", "g = cappedexp:nan", "g"),
            ("integral-test", "g = staircase:nan:1", "g"),
            ("integral-test", "g = staircase:1:1,nan:2", "g"),
            ("integral-test", "series_n = 709", "series_n"),
            # the integral test reads g up to 4 * horizon: here 4 * horizon, then g there, pass the largest float
            ("integral-test", "horizon = 1e308", "horizon"),
            ("integral-test", "g = power:2\nhorizon = 1e200", "g"),
            ("integral-test", "series_n = 710", "series_n"),
            # u_1(inf) past the largest float: no block or series term is finite
            ("integral-test", "gamma = 5e-324", "gamma"),
            ("integral-test", "series_n = 1000000000", "series_n"),
            ("survival", "beta = 0", "beta"),
            ("survival", "beta = 2", "beta"),
            ("survival", "gamma = nan", "gamma"),
            ("csbp-check", "beta = 0", "beta"),
            ("csbp-check", "beta = 2", "beta"),
            ("csbp-check", "gamma = nan", "gamma"),
            ("integral-test", "beta = 0", "beta"),
            ("integral-test", "beta = 2", "beta"),
            ("integral-test", "gamma = nan", "gamma"),
        ],
    )
    def test_bad_value_exits_2_naming_key(self, tmp_path, capsys, command, line, key):
        cfg = _write(tmp_path, f"[{command}]\n{line}\n")
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert key in err
        if (command, key) in DELETED_KEYS:
            assert f"unknown config key '{key}'" in err
        elif command != "scbm-duality":
            assert f"for '{key}'" in err
        assert not (tmp_path / "o").exists()


    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_growth_refused_quietly(self, tmp_path, capsys):
        # g past the largest float from the first block on: no inf - inf warning before the refusal names g
        cfg = _write(tmp_path, "[integral-test]\ng = power:1e300\n")
        assert main(["integral-test", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "for 'g'" in capsys.readouterr().err

    @pytest.mark.parametrize("line, key", [("beta = 0", "beta"), ("beta = 2", "beta"), ("gamma = nan", "gamma")])
    def test_duality_branching_value_names_key(self, tmp_path, capsys, line, key):
        # the case list above accepts any scbm-duality message holding the key; these must name it as the key
        cfg = _write(tmp_path, f"[scbm-duality]\n{line}\n")
        assert main(["scbm-duality", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f"for '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, key", [(["--seed", "-1"], "seed"), (["--threads", "0"], "threads"), (["--threads", "-1"], "threads")]
    )
    def test_bad_run_flag_exits_2_naming_key(self, tmp_path, capsys, flags, key):
        for command in ("survival", "verify-duality"):
            assert main([command, "--out", str(tmp_path / "o")] + flags) == 2
            assert f"for '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


def _schema_default(type_name, default) -> str:
    if type_name == "floats":
        return ",".join(f"{v:g}" for v in default)
    if type_name == "float":
        return f"{default:g}"
    return str(default) if default != "" else "(empty)"


def _schema_table(command: str) -> str:
    """The README table of one config section, rebuilt from its schema dict."""
    lines = [f"Section `[{command}]`:", "", "| key | type | default | domain |", "|-----|------|---------|--------|"]
    for key, (type_name, default, domain) in SUBCOMMANDS[command][0].items():
        lines.append(f"| `{key}` | {type_name} | `{_schema_default(type_name, default)}` | {domain.what} |")
    return "\n".join(lines) + "\n"


class TestReadmeSchema:
    @pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
    def test_table_matches_schema(self, command):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = _schema_table(command)
        assert table in readme, f"README table out of date; expected:\n{table}"
