"""The scbm benchmark: time ``scbm`` CLI workloads end to end, or trace them per layer.

Run from the root of a source checkout (the ``scbm`` package is taken from
``src/``)::

    python3 perfbench/run.py --workload duality --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--seconds`` defaults to ``run_seconds`` of BENCHMARK.json.

``--trace 0`` repeats the workload's CLI call, each time in a fresh serial child
process with a seed derived from ``--seed``, while a typical call still ends
within ``--seconds`` (at least three calls), and reports the medians of ``wall_s`` (the CLI call),
``setup_s`` (process start until ``scbm`` is imported and the workload's lazy
set-up has run) and ``peak_rss_mb``.  No tracer is loaded in these children.
Between calls the benchmark times a fixed reference computation
(``reference_s``); each call's ``wall_s`` and ``setup_s`` are rescaled by the
mean reference time around it to the speed at which the reference takes
``REFERENCE_NOMINAL_S``, so that the drift of a shared machine's speed cancels.
The raw times are printed for every call and their medians in the info line.

``--trace 1`` makes one untraced and two traced calls with the same seed and
reports the per-layer metrics of ``tracer.py``.  The traced CSVs must be
byte-identical to the untraced one and every count must repeat exactly.

Every CSV is checked: the fixed header, nine fields per row, the verdict rows
the CLI counts toward exit 3 (and, for beta < 1, the ``approx`` flag on every
row), and an exit code that agrees with those verdicts.  Operations are those
rows; a failed verdict, a missing flag, or a call that crashed, exited 2 or
timed out counts as failed operations.  ``correct`` is false when an output is
malformed, a call did not finish with exit 0 or 3, or a trace self-test broke.
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

from child import MARKER
from tracer import ABSENT_METRIC, OVERHEAD_METRIC, layer_metrics, metric_units, stats_from_report
from workloads import WORKLOADS

CSV_HEADER = "experiment,seed,replica_or_index,param_name,param_value,horizon_or_n,value,stderr,flag"
PASS_FLAGS = {"pass", "consistent", "one_sided_ok", "detected"}
FAIL_FLAGS = {"fail", "inconsistent", "missed"}
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SCALED = ("wall_s", "setup_s")  # reported at the reference speed, see reference_s
REFERENCE_NOMINAL_S = 0.3  # reference_s on the baseline machine at its usual speed
MIN_CALLS = 3
RUN_LIMIT_S = 150.0  # a run never starts a call it could not finish by then
WORK_DIR = ".perfbench"
CHILD = Path(__file__).resolve().parent / "child.py"
SERIAL_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


# ---------------------------------------------------------------------------
# machine stamp: numbers compare only on the same machine
# ---------------------------------------------------------------------------


def machine_stamp(root: Path) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "scbm").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        **versions,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# machine speed: on a shared 2-core host the CPU time of the same calls drifted
# by up to 1.7x within an hour, far more than any bound a benchmark could keep
# ---------------------------------------------------------------------------


def reference_s() -> float:
    """Seconds taken by a fixed computation shaped like the workloads' work.

    It mixes interpreter work, numpy calls on tiny arrays (the per-call cost of
    the per-replica paths) and numpy kernels on cache-sized arrays (the batched
    paths), about 0.1 s each.  It uses no ``scbm`` code, so no change to the
    package moves it; it moves only with the speed of the machine.
    """
    rng = np.random.default_rng(0)
    tiny = rng.random(32)
    block = rng.random(1 << 16)
    start = time.perf_counter()
    counts = {}
    for i in range(600_000):
        counts[i & 1023] = counts.get(i & 1023, 0) + i
    for _ in range(10_000):
        order = np.argsort(tiny)
        np.searchsorted(tiny[order], tiny)
        np.cumsum(tiny[order])
    for _ in range(8):
        np.interp(block, np.sort(block), block)
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# one CLI call
# ---------------------------------------------------------------------------


def check_csv(path: Path, workload, exit_code: int) -> dict:
    """Classify the operations of one CSV and check that it is well formed."""
    expected = workload.operations
    if not path.is_file():
        return {"correct": False, "attempted": expected, "failed": expected, "problem": "no CSV written"}
    data = path.read_bytes()
    lines = data.decode("utf-8").splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return {"correct": False, "attempted": expected, "failed": expected, "problem": "wrong CSV header"}
    rows = [line.split(",") for line in lines[1:]]
    if any(len(row) != 9 for row in rows):
        return {"correct": False, "attempted": expected, "failed": expected, "problem": "row without 9 fields"}
    ops, verdict_failed = [], False
    for row in rows:
        flags = set(row[8].split(";"))
        if "smoke" in flags:  # reported but never counted toward exit 3
            continue
        verdict = flags & (PASS_FLAGS | FAIL_FLAGS)
        ok = not (flags & FAIL_FLAGS)
        verdict_failed |= not ok
        if workload.approx_rows:
            ok &= "approx" in flags
        if verdict or workload.approx_rows:
            ops.append({"name": row[3], "param": row[4], "value": row[6], "flag": row[8], "ok": ok})
    failed = sum(not op["ok"] for op in ops) + max(0, expected - len(ops))
    problem = None
    if len(ops) < expected:
        problem = f"{expected - len(ops)} operation rows missing"
    elif (exit_code == 3) != verdict_failed:
        problem = f"exit code {exit_code} disagrees with the verdict rows"
    return {
        "correct": problem is None,
        "attempted": max(expected, len(ops)),
        "failed": failed,
        "problem": problem,
        "ops": ops,
        "sha256": hashlib.sha256(data).hexdigest(),
    }


def run_call(workload, scbm_seed: int, trace: bool, work: Path, root: Path, timeout: float) -> dict:
    """Run one CLI call in a fresh child process and check its CSV."""
    work.mkdir(parents=True)
    config = work / "config.ini"
    config.write_text(workload.config(scbm_seed), encoding="utf-8")
    spec = {
        "src": str(root / "src"),
        "argv": [workload.command, "--config", str(config), "--out", str(work)],
        "setup": [list(s) for s in workload.setup],
        "trace": trace,
    }
    env = {**os.environ, **SERIAL_ENV}
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), json.dumps(spec)],
        cwd=root,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    timed_out = False
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        timed_out = True
        proc.kill()
        out, err = proc.communicate()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    call = {"seed": scbm_seed, "exit": proc.returncode, "timed_out": timed_out}
    lines = [line for line in out.splitlines() if line.startswith(MARKER)]
    if timed_out or proc.returncode not in (0, 3) or not lines:
        problem = "timed out" if timed_out else f"exit {proc.returncode}"
        n = workload.operations
        call.update(correct=False, attempted=n, failed=n, problem=problem, stderr_tail=err.splitlines()[-5:])
        return call
    report = json.loads(lines[-1][len(MARKER):])
    call.update(
        wall_s=report["wall_s"],
        cpu_s=report["cpu_s"],
        setup_s=report["ready"] - spawned,
        peak_rss_mb=report["peak_rss_mb"],
        setup_skipped=report["setup_skipped"],
        trace=report["trace"],
    )
    call.update(check_csv(work / f"{workload.command}.csv", workload, proc.returncode))
    return call


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def _totals(calls) -> dict:
    return {
        "correct": all(c["correct"] for c in calls),
        "attempted": sum(c["attempted"] for c in calls),
        "failed": sum(c["failed"] for c in calls),
    }


def _median(calls, key) -> float:
    """Median over calls; the times in SCALED are rescaled to the reference speed."""
    return statistics.median([c[key] * (c["speed"] if key in SCALED else 1.0) for c in calls if key in c] or [0.0])


def timed_run(workload, seed: int, seconds: float, root: Path) -> tuple[dict, list]:
    work = root / WORK_DIR / workload.name
    shutil.rmtree(work, ignore_errors=True)
    start = time.monotonic()
    calls, laps, references = [], [], [reference_s()]  # references: before the first call and after each
    # after MIN_CALLS, start a call only if a typical one still ends within ``seconds``
    while len(calls) < MIN_CALLS or time.monotonic() - start + statistics.median(laps) <= seconds:
        used = time.monotonic() - start
        if laps and used + max(laps) > RUN_LIMIT_S:
            break
        rep = len(calls)
        call = run_call(workload, workload.scbm_seed(seed, rep), False, work / f"call{rep}", root, RUN_LIMIT_S - used)
        references.append(reference_s())
        call["speed"] = REFERENCE_NOMINAL_S / statistics.fmean(references[-2:])
        calls.append(call)
        laps.append(time.monotonic() - start - used)
    metrics = {name: {"value": _median(calls, name), "unit": unit} for name, unit in END_TO_END.items()}
    return {**_totals(calls), "metrics": metrics}, calls


def traced_run(workload, seed: int, root: Path) -> tuple[dict, list, list]:
    """One untraced and two traced calls of the same seed; per-layer metrics and self-tests."""
    work = root / WORK_DIR / workload.name
    shutil.rmtree(work, ignore_errors=True)
    scbm_seed = workload.scbm_seed(seed, 0)
    start = time.monotonic()
    calls = []
    for tag, trace in (("untraced", False), ("traced0", True), ("traced1", True)):
        left = RUN_LIMIT_S - (time.monotonic() - start)
        calls.append(run_call(workload, scbm_seed, trace, work / tag, root, left))
    totals = _totals(calls)
    problems = []
    if len({c.get("sha256") for c in calls}) != 1:
        problems.append("traced and untraced CSVs differ")
    traced = [c["trace"] for c in calls[1:] if c.get("trace")]
    units = metric_units()
    values = dict.fromkeys(units, 0.0)
    if len(traced) == 2 and "wall_s" in calls[0]:
        counts = [{k: (s["calls"], s["counts"]) for k, s in t["spans"].items()} for t in traced]
        if counts[0] != counts[1]:
            problems.append("counts differ between the two traced runs")
        per_run = [layer_metrics(stats_from_report(t["spans"])) for t in traced]
        for name, value in per_run[0].items():
            values[name] = value if units[name] == "count" else statistics.fmean(run[name] for run in per_run)
        values[OVERHEAD_METRIC[0]] = statistics.fmean(c["wall_s"] for c in calls[1:]) - calls[0]["wall_s"]
        values[ABSENT_METRIC[0]] = len(traced[0]["absent"])
    else:
        problems.append("a call did not report")
    totals["correct"] &= not problems
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return {**totals, "metrics": metrics}, calls, problems


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def describe_call(tag: str, call: dict) -> str:
    parts = [f"{tag} seed={call['seed']} exit={call['exit']}"]
    for key, unit in {**END_TO_END, "cpu_s": "s"}.items():
        if key in call:
            parts.append(f"{key}={call[key]:.4f} {unit}")
    if "speed" in call:
        parts.append(f"speed={call['speed']:.4f}")
    parts.append(f"operations={call['attempted']} failed={call['failed']}")
    if call.get("problem"):
        parts.append(f"PROBLEM: {call['problem']}")
    if call.get("stderr_tail"):
        parts.append("stderr: " + " | ".join(call["stderr_tail"]))
    if call.get("setup_skipped"):
        parts.append("set-up absent: " + ", ".join(call["setup_skipped"]))
    if _failed_ops(call):
        parts.append("failed: " + "; ".join(_failed_ops(call)))
    return "  ".join(parts)


def _failed_ops(call: dict) -> list:
    return [f"{op['name']}({op['param']})={op['value']} [{op['flag']}]" for op in call.get("ops", []) if not op["ok"]]


def _fail_frac(result: dict) -> float:
    return result["failed"] / result["attempted"]


def read_benchmark_file(root: Path) -> tuple[dict | None, str | None]:
    """BENCHMARK.json, whose metric and workload names must be the ones declared here."""
    path = root / "BENCHMARK.json"
    if not path.is_file():
        return None, "BENCHMARK.json not found"
    spec = json.loads(path.read_text(encoding="utf-8"))
    declared = (
        [w["name"] for w in spec["workloads"]],
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )
    if declared != (list(WORKLOADS), END_TO_END, metric_units()):
        return None, "BENCHMARK.json does not match the workloads and metrics of perfbench"
    return spec, None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that run_call kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "scbm" / "cli.py").is_file():
        print("perfbench: run from the root of an scbm checkout (src/scbm/cli.py not found)", file=sys.stderr)
        return 2
    spec, mismatch = read_benchmark_file(root)
    if mismatch:
        print(f"perfbench: {mismatch}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    stamp = machine_stamp(root)
    print("# machine " + json.dumps(stamp), flush=True)

    if args.workload == "all":
        results = {}
        for workload in WORKLOADS.values():
            result, calls = timed_run(workload, args.seed, args.seconds, root)
            for i, call in enumerate(calls):
                print(f"# {workload.name} " + describe_call(f"call{i}", call), flush=True)
            results[workload.name] = result
        print(f"{'workload':<17}" + "".join(f"{f'{k} [{u}]':>20}" for k, u in END_TO_END.items()) + f"{'fail_frac':>12}")
        for name, result in results.items():
            cells = "".join(f"{result['metrics'][k]['value']:>20.4f}" for k in END_TO_END)
            print(f"{name:<17}{cells}{_fail_frac(result):>12.4f}" + ("" if result["correct"] else "  INCORRECT"))
        print(json.dumps(results))
        return 0

    workload = WORKLOADS[args.workload]
    if args.trace:
        result, calls, problems = traced_run(workload, args.seed, root)
        tags = ("untraced", "traced0", "traced1")
    else:
        result, calls = timed_run(workload, args.seed, args.seconds, root)
        problems = []
        tags = [f"call{i}" for i in range(len(calls))]
    for tag, call in zip(tags, calls):
        print("# " + describe_call(tag, call), flush=True)
    for problem in problems:
        print(f"# PROBLEM: {problem}", flush=True)
    info = {
        "workload": workload.name,
        "seed": args.seed,
        "config_example": workload.config(workload.scbm_seed(args.seed, 0)),
        "fail_frac": _fail_frac(result),
        "csv_sha256": {str(c["seed"]) + ("" if not args.trace else f"/{t}"): c.get("sha256") for t, c in zip(tags, calls)},
        "failed_verdicts": {str(c["seed"]): _failed_ops(c) for c in calls if _failed_ops(c)},
    }
    if not args.trace:
        info["raw_medians"] = {key: statistics.median([c[key] for c in calls if key in c] or [0.0]) for key in SCALED}
    if args.trace and calls[1].get("trace"):
        info["absent"] = calls[1]["trace"]["absent"]
        info["broken_counters"] = calls[1]["trace"]["broken"]
        info["spans"] = calls[1]["trace"]["spans"]
    print("# info " + json.dumps(info), flush=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
