"""Measure the benchmark's baseline and its run-to-run spread; write ``perfbench/baseline.json``.

Run from the root of a source checkout::

    python3 perfbench/baseline.py

It runs every workload with seeds 11 to 20, each run as long as BENCHMARK.json's
``run_seconds``.

For every workload this makes one timed run per seed and one traced run, each
as its own ``run.py`` process, the way the benchmark is driven.  For each
end-to-end metric it reports the median of the runs, their first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median, next to the metric's bound;
for the rescaled times also the same figures before rescaling.
The JSON also holds each workload's config generator, rationale and ROADMAP
item, the failed verdicts with their z-scores, and the traced run's per-layer
metrics.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SEEDS = list(range(11, 21))


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, dict]:
    """One ``run.py`` process: its result, its ``# info`` line and its machine stamp."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"run.py {workload} seed {seed} trace {trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
    tagged = {line.split(" ", 2)[1]: json.loads(line.split(" ", 2)[2]) for line in lines if line.startswith(("# info ", "# machine "))}
    return json.loads(lines[-1]), tagged["info"], tagged["machine"]


def spread_stats(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    out = {"machine": None, "run_seconds": seconds, "seeds": SEEDS, "workloads": {}}
    for name, workload in WORKLOADS.items():
        values, raw, attempted, failed, correct, failures = {}, {}, 0, 0, True, {}
        for seed in SEEDS:
            result, info, machine = run(name, seed, seconds, 0)
            out["machine"] = out["machine"] or machine
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            failures.update(info["failed_verdicts"])
            for metric, value in result["metrics"].items():
                values.setdefault(metric, []).append(value["value"])
            for metric, value in info["raw_medians"].items():
                raw.setdefault(metric, []).append(value)
            print(f"# {name} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} " + " ".join(f"{k}={v[-1]:.4f}" for k, v in values.items()), flush=True)
        traced, _, _ = run(name, SEEDS[0], seconds, 1)
        e2e = {metric: spread_stats(v) for metric, v in values.items()}
        for metric, st in e2e.items():
            line = f"{name:<17}{metric:<13} median {st['median']:10.4f}  spread {st['spread']:.4f}  bound {bounds[metric]}"
            if metric in raw:
                st["unscaled"] = spread_stats(raw[metric])
                line += f"  (unscaled: median {st['unscaled']['median']:.4f}, spread {st['unscaled']['spread']:.4f})"
            print(line)
        print(f"{name:<17}fail_frac {failed / attempted:.4f} ({failed}/{attempted}); traced run correct={traced['correct']}", flush=True)
        out["workloads"][name] = {
            "command": workload.command,
            "config_generator": f"perfbench/workloads.py: WORKLOADS[{name!r}].config(scbm_seed)",
            "config_example": workload.config(workload.scbm_seed(SEEDS[0], 0)),
            "why": workload.why,
            "roadmap": workload.roadmap,
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "fail_frac": failed / attempted,
            "failed_verdicts": failures,
            "end_to_end": e2e,
            "traced": {"seed": SEEDS[0], "correct": traced["correct"],
                       "per_layer": {k: v["value"] for k, v in traced["metrics"].items()}},
        }
    (HERE / "baseline.json").write_text(json.dumps(out, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
