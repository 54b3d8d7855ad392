"""The config contract: every default lies in its domain, and no value near a domain's edge hangs or crashes.

The fuzz takes one key at a time, with every replica count held tiny, and draws its value from the edges of
the key's domain (the points of a fixed ladder where the domain starts or stops holding), from NaN and from
+-1e300.  Each call must exit 0, 2 or 3 within ``CALL_SECONDS``.
"""

import contextlib
import io
import math
import signal
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scbm.cli import RUN_SCHEMA, SUBCOMMANDS, main

CALL_SECONDS = 10.0

TINY = {
    "verify-duality": "",
    "csbp-check": "sampler_n = 2\nentrance_n = 2\n",
    "scbm-duality": "".join(f"{key} = 2\n" for key in SUBCOMMANDS["scbm-duality"][0] if key.endswith("_n")),
    "integral-test": "",
    "survival": "replicas = 2\n",
}

# sorted, so that neighbours where a domain flips are its edges: just outside and just inside
FLOAT_LADDER = [
    -math.inf, -sys.float_info.max, -1e300, math.nextafter(-1e9, -math.inf), -1e9, -1.0, -0.5, -5e-324, 0.0,
    5e-324, math.nextafter(0.5, 0.0), 0.5, math.nextafter(0.5, 1.0), math.nextafter(1.0, 0.0), 1.0,
    math.nextafter(1.0, 2.0), 2.0, 1e9, math.nextafter(1e9, math.inf), 1e300, sys.float_info.max, math.inf,
]
INT_LADDER = [-1, 0, 1, 2, 3, 709, 710]
STRINGS = {
    "cases": ["1x2", "0x1", "1x", "x", "1x2,", "2x2,1x0"],
    "g": ["power:0", "power:-1", "power:1e300", "constant:0", "constant:1e300", "cappedexp:1", "cappedexp:1e300",
          "staircase:1:1,2:1e300", "staircase:2:1,1:2", "power:nan", "cubic:3", ""],
}
STRINGS["g_alt"] = STRINGS["g"]
BOOLS = ["true", "false", "maybe"]


def _edges(ladder, domain) -> list:
    inside = [domain.ok(v) for v in ladder]
    return [v for i, v in enumerate(ladder) if any(inside[j] != inside[i] for j in (i - 1, i + 1) if 0 <= j < len(ladder))]


def _draws(type_name, key, domain) -> list[str]:
    """Values for one key: its domain's edges on the ladder, NaN and +-1e300."""
    if type_name == "bool":
        return BOOLS
    if type_name == "str":
        return STRINGS[key]
    ladder = INT_LADDER if type_name == "int" else FLOAT_LADDER
    return sorted({repr(v) for v in _edges(ladder, domain)} | {"nan", "1e300", "-1e300"})


# every key but [run] out, which names the directory written to
KEYS = [
    (command, key, value)
    for command, (schema, _) in SUBCOMMANDS.items()
    for key, (type_name, _, domain) in schema.items()
    for value in _draws(type_name, key, domain)
] + [
    ("survival", f"run:{key}", value)
    for key in ("seed", "threads")
    for value in _draws(RUN_SCHEMA[key][0], key, RUN_SCHEMA[key][2])
]


def _config(command, key, value) -> str:
    if key.startswith("run:"):
        return f"[run]\n{key[4:]} = {value}\n[{command}]\n{TINY[command]}"
    tiny = "".join(line + "\n" for line in TINY[command].splitlines() if not line.startswith(f"{key} ="))
    return f"[{command}]\n{tiny}{key} = {value}\n"


def _alarm(signum, frame):
    raise TimeoutError(f"call ran past {CALL_SECONDS} s")


def run_contract_case(command, key, value) -> tuple[int, float]:
    """Exit code and wall time of one CLI call on the drawn value; a hang raises TimeoutError."""
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/config.ini"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_config(command, key, value))
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, 3 * CALL_SECONDS)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main([command, "--config", path, "--out", f"{tmp}/out"])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        return code, time.perf_counter() - start


class TestContract:
    @pytest.mark.parametrize("command", sorted(SUBCOMMANDS) + ["run"])
    def test_defaults_lie_in_their_domains(self, command):
        schema = RUN_SCHEMA if command == "run" else SUBCOMMANDS[command][0]
        for key, (type_name, default, domain) in schema.items():
            values = default if type_name == "floats" else (default,)
            assert all(domain.ok(v) for v in values), key

    def test_every_key_draws_outside_its_domain(self):
        for command, (schema, _) in SUBCOMMANDS.items():
            for key, (type_name, _, domain) in schema.items():
                if type_name in ("int", "float", "floats"):
                    assert not all(domain.ok(float(v)) for v in _draws(type_name, key, domain)), (command, key)

    # Hypothesis stops once it has drawn every case, well before 1000 examples
    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(case=st.sampled_from(KEYS))
    def test_no_value_hangs_or_crashes(self, case):
        code, seconds = run_contract_case(*case)
        assert code in (0, 2, 3), case
        assert seconds <= CALL_SECONDS, (case, seconds)
