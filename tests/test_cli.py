from pathlib import Path

import pytest

from scbm.cli import CSV_HEADER, SUBCOMMANDS, main
from scbm.config import ConfigError, apply_schema, parse_config

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
block_n = 500
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
            apply_schema("s", {"mystery": "1"}, {"known": ("int", 0)})

    def test_bad_value_reported(self):
        with pytest.raises(ConfigError, match="known"):
            apply_schema("s", {"known": "abc"}, {"known": ("int", 0)})


class TestCliRuns:
    def test_minimal_verify_duality(self, tmp_path):
        cfg = _write(tmp_path, FAST_VERIFY)
        out = tmp_path / "out"
        code = main(["verify-duality", "--config", cfg, "--out", str(out)])
        assert code == 0
        content = (out / "verify-duality.csv").read_text()
        assert content.splitlines()[0] == CSV_HEADER
        assert "generator_residual" in content

    def test_integral_test_and_determinism(self, tmp_path):
        cfg = _write(tmp_path, FAST_INTEGRAL)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["integral-test", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["integral-test", "--config", cfg, "--out", str(out2)]) == 0
        a = (out1 / "integral-test.csv").read_bytes()
        b = (out2 / "integral-test.csv").read_bytes()
        assert a == b

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


FAST_SURVIVAL_HALF = """
[run]
seed = 13
[survival]
beta = 0.5
truncation = 1
t0 = 0.05
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
            ("survival", "dt = 0", "dt"),
            ("survival", "dt = -0.1", "dt"),
            ("survival", "batch = 0", "batch"),
            ("survival", "replicas = 1", "replicas"),
            ("survival", "t0 = 0", "t0"),
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
        ],
    )
    def test_bad_value_exits_2_naming_key(self, tmp_path, capsys, command, line, key):
        cfg = _write(tmp_path, f"[{command}]\n{line}\n")
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert key in err
        if command != "scbm-duality":
            assert f"for '{key}'" in err
        assert not (tmp_path / "o").exists()


def _schema_default(type_name, default) -> str:
    if type_name == "floats":
        return ",".join(f"{v:g}" for v in default)
    if type_name == "float":
        return f"{default:g}"
    return str(default) if default != "" else "(empty)"


def _schema_table(command: str) -> str:
    """The README table of one config section, rebuilt from its schema dict."""
    lines = [f"Section `[{command}]`:", "", "| key | type | default |", "|-----|------|---------|"]
    for key, (type_name, default) in SUBCOMMANDS[command][0].items():
        lines.append(f"| `{key}` | {type_name} | `{_schema_default(type_name, default)}` |")
    return "\n".join(lines) + "\n"


class TestReadmeSchema:
    @pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
    def test_table_matches_schema(self, command):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = _schema_table(command)
        assert table in readme, f"README table out of date; expected:\n{table}"
