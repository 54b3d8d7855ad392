"""Span and count tracer for the scbm layers, installed from outside the package.

Each target names a function or method by its home module and attribute.  At
install time the tracer resolves that object and replaces every binding of the
same object in every loaded ``scbm`` module, so a function imported by name
into another module (``step_positions`` into ``engine`` and ``harness``, the
check functions into ``cli``) is traced wherever it is called from.  A target
that no longer exists is reported as absent and its metrics read 0; the run
goes on.  Nothing here is imported by an untraced run.

A span's self time is its duration minus the durations of the traced spans it
called.  Spans are aggregated per key in memory and reported when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable


# what a counter or label raises when a refactor changed a traced signature
_SIGNATURE_ERRORS = (AttributeError, IndexError, KeyError, TypeError)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _size(value) -> int:
    return int(getattr(value, "size", 1))


def _nonzero(value) -> int:
    return int((value != 0).sum()) if hasattr(value, "size") else int(value != 0)


@dataclass(frozen=True)
class Target:
    key: str  # span key; the label, if any, is appended after a dot
    module: str  # home module under ``scbm``
    attr: str  # ``name`` or ``Class.method``
    count: Callable | None = None  # (args, kwargs, result) -> {counter: int}
    label: Callable | None = None  # (args, kwargs) -> span key suffix


def _laplace_label(args, kwargs):
    cfg = _arg(args, kwargs, 0, "cfg")
    return "control" if getattr(cfg, "rhs_gamma_scale", 1.0) != 1.0 else "laplace"


def _occupation_label(args, kwargs):
    cfg = _arg(args, kwargs, 0, "cfg")
    return "occupation_eq" if cfg.params.gamma == 0.0 else "occupation_bound"


TARGETS = (
    Target("cli.main", "cli", "main"),
    Target("harness.check", "harness", "laplace_duality_check", label=_laplace_label),
    Target("harness.check", "harness", "absorbing_extinction_check", label=lambda a, k: "absorbing"),
    Target("harness.check", "harness", "occupation_duality_check", label=_occupation_label),
    Target("harness.check", "harness", "interval_vacancy_bound_check", label=lambda a, k: "vacancy"),
    Target("harness.check", "harness", "reflected_laplace_smoke", label=lambda a, k: "smoke"),
    Target("harness.mc_estimate", "harness", "mc_estimate", count=lambda a, k, r: {"replicas": _arg(a, k, 1, "n")}),
    Target("harness.mc_batched", "harness", "_mc_batched", count=lambda a, k, r: {"replicas": _arg(a, k, 1, "n")}),
    Target("harness.flat_ensemble.step", "harness", "_FlatEnsemble.step"),
    Target("harness.flat_ensemble.init", "harness", "_FlatEnsemble.__init__"),
    Target(
        "experiments.survival_experiment",
        "experiments",
        "survival_experiment",
        count=lambda a, k, r: {"replicas": _arg(a, k, 0, "cfg").replicas},
    ),
    Target(
        "engine.evolve_scbm",
        "engine",
        "evolve_scbm",
        count=lambda a, k, r: {"steps": len(_arg(a, k, 1, "grid")) - 1, "snapshots": len(r)},
    ),
    Target("engine.init_atoms", "engine", "init_atoms"),
    Target("engine.atomize_measure", "engine", "atomize_measure"),
    Target(
        "flow.step_positions",
        "flow",
        "step_positions",
        count=lambda a, k, r: {
            "clusters_in": len(_arg(a, k, 0, "values")),
            "merges": len(_arg(a, k, 0, "values")) - len(r[0]),
        },
    ),
    Target("flow.resolve_clusters", "flow", "_resolve_clusters"),
    Target("flow.sample_coalescing_paths", "flow", "sample_coalescing_paths"),
    Target("flow.step_integral_lebesgue", "flow", "step_integral_lebesgue"),
    Target(
        "branching.sample_transition",
        "branching",
        "sample_transition",
        count=lambda a, k, r: {"masses_in": _size(r), "survived": _nonzero(r)},
    ),
    Target("branching.fragment_sample", "branching", "EntranceTable.sample", count=lambda a, k, r: {"fragments": _size(r)}),
    Target("branching.sample_entrance_mass", "branching", "sample_entrance_mass"),
    Target("branching.entrance_table", "branching", "entrance_table"),
    Target("oracle.check_generator_duality", "oracle", "check_generator_duality"),
    Target("oracle.pattern_codes", "oracle", "_pattern_codes", count=lambda a, k, r: {"rows": len(r)}),
    Target("oracle.pattern_codes", "oracle", "_pattern_codes_states", count=lambda a, k, r: {"rows": len(r)}),
    Target("oracle.build_generator", "oracle", "build_generator", count=lambda a, k, r: {"states": len(r.states)}),
    Target("oracle.transient_law", "oracle", "transient_law"),
    Target("oracle.array_law_exact", "oracle", "array_law_exact"),
    Target("lattice.state_moves", "lattice", "state_moves", count=lambda a, k, r: {"moves": len(r[0])}),
)


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counts: dict = field(default_factory=dict)


def _ratio(num, den, scale=1.0):
    return num * scale / den if den else 0.0


def _get(stats, key, attr):
    st = stats.get(key)
    if st is None:
        return 0
    return getattr(st, attr) if attr in ("calls", "total_s", "self_s") else st.counts.get(attr, 0)


# per-layer metrics: (name, unit, span key, Stat field or counter, or a function of all stats)
_CHECKS = ("laplace", "control", "absorbing", "occupation_eq", "occupation_bound", "vacancy", "smoke")
METRICS = (
    *((f"harness.check.{c}_s", "s", f"harness.check.{c}", "total_s") for c in _CHECKS),
    ("harness.mc_estimate.replicas", "count", "harness.mc_estimate", "replicas"),
    ("harness.mc_batched.replicas", "count", "harness.mc_batched", "replicas"),
    ("harness.flat_ensemble.step.calls", "count", "harness.flat_ensemble.step", "calls"),
    ("harness.flat_ensemble.step.self_s", "s", "harness.flat_ensemble.step", "self_s"),
    ("harness.flat_ensemble.init_s", "s", "harness.flat_ensemble.init", "total_s"),
    ("experiments.survival_experiment.s", "s", "experiments.survival_experiment", "total_s"),
    (
        "experiments.survival_experiment.replicas_per_s",
        "1/s",
        "experiments.survival_experiment",
        lambda s: _ratio(_get(s, "experiments.survival_experiment", "replicas"), _get(s, "experiments.survival_experiment", "total_s")),
    ),
    ("engine.evolve_scbm.calls", "count", "engine.evolve_scbm", "calls"),
    ("engine.evolve_scbm.steps", "count", "engine.evolve_scbm", "steps"),
    ("engine.evolve_scbm.snapshots", "count", "engine.evolve_scbm", "snapshots"),
    ("engine.evolve_scbm.self_s", "s", "engine.evolve_scbm", "self_s"),
    ("engine.init_atoms.s", "s", "engine.init_atoms", "total_s"),
    ("engine.atomize_measure.s", "s", "engine.atomize_measure", "total_s"),
    ("flow.step_positions.calls", "count", "flow.step_positions", "calls"),
    ("flow.step_positions.clusters_in", "count", "flow.step_positions", "clusters_in"),
    ("flow.step_positions.merges", "count", "flow.step_positions", "merges"),
    ("flow.step_positions.self_s", "s", "flow.step_positions", "self_s"),
    (
        "flow.step_positions.us_per_call",
        "us",
        "flow.step_positions",
        lambda s: _ratio(_get(s, "flow.step_positions", "total_s"), _get(s, "flow.step_positions", "calls"), 1e6),
    ),
    (
        "flow.step_positions.ns_per_cluster",
        "ns",
        "flow.step_positions",
        lambda s: _ratio(_get(s, "flow.step_positions", "total_s"), _get(s, "flow.step_positions", "clusters_in"), 1e9),
    ),
    ("flow.resolve_clusters.calls", "count", "flow.resolve_clusters", "calls"),
    ("flow.resolve_clusters.self_s", "s", "flow.resolve_clusters", "self_s"),
    ("flow.sample_coalescing_paths.self_s", "s", "flow.sample_coalescing_paths", "self_s"),
    ("flow.step_integral_lebesgue.calls", "count", "flow.step_integral_lebesgue", "calls"),
    ("flow.step_integral_lebesgue.self_s", "s", "flow.step_integral_lebesgue", "self_s"),
    ("branching.sample_transition.calls", "count", "branching.sample_transition", "calls"),
    ("branching.sample_transition.masses_in", "count", "branching.sample_transition", "masses_in"),
    (
        "branching.sample_transition.survived_frac",
        "frac",
        "branching.sample_transition",
        lambda s: _ratio(_get(s, "branching.sample_transition", "survived"), _get(s, "branching.sample_transition", "masses_in")),
    ),
    ("branching.sample_transition.self_s", "s", "branching.sample_transition", "self_s"),
    ("branching.fragments", "count", "branching.fragment_sample", "fragments"),
    ("branching.fragment_sample.self_s", "s", "branching.fragment_sample", "self_s"),
    ("branching.sample_entrance_mass.self_s", "s", "branching.sample_entrance_mass", "self_s"),
    # built once, in set-up; later calls are cache hits of microseconds
    ("branching.entrance_table.build_s", "s", "branching.entrance_table", "total_s"),
    ("oracle.check_generator_duality.self_s", "s", "oracle.check_generator_duality", "self_s"),
    ("oracle.pattern_codes.calls", "count", "oracle.pattern_codes", "calls"),
    ("oracle.pattern_codes.rows", "count", "oracle.pattern_codes", "rows"),
    ("oracle.pattern_codes.self_s", "s", "oracle.pattern_codes", "self_s"),
    ("oracle.build_generator.states", "count", "oracle.build_generator", "states"),
    ("oracle.build_generator.self_s", "s", "oracle.build_generator", "self_s"),
    ("oracle.transient_law.self_s", "s", "oracle.transient_law", "self_s"),
    ("oracle.array_law_exact.s", "s", "oracle.array_law_exact", "total_s"),
    ("lattice.state_moves.calls", "count", "lattice.state_moves", "calls"),
    ("lattice.state_moves.moves", "count", "lattice.state_moves", "moves"),
    ("lattice.state_moves.self_s", "s", "lattice.state_moves", "self_s"),
    ("cli.main.self_s", "s", "cli.main", "self_s"),
)

# metrics the benchmark computes itself from a traced and an untraced run
OVERHEAD_METRIC = ("trace.overhead_s", "s")
ABSENT_METRIC = ("trace.absent", "count")


def metric_units() -> dict:
    units = {name: unit for name, unit, _, _ in METRICS}
    units.update((OVERHEAD_METRIC, ABSENT_METRIC))
    return units


def layer_metrics(stats: dict) -> dict:
    """Per-layer metric values from aggregated span stats (``Stat`` objects by key)."""
    return {name: (how(stats) if callable(how) else _get(stats, key, how)) for name, _, key, how in METRICS}


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.stats: dict[str, Stat] = {}
        self.absent: list[str] = []
        self.broken: set[str] = set()  # targets whose arguments or result no longer fit a counter
        self._stack: list[float] = []  # child time accumulated by each open span

    def install(self) -> None:
        import scbm

        for info in pkgutil.iter_modules(scbm.__path__):
            importlib.import_module(f"scbm.{info.name}")
        modules = [m for name, m in sys.modules.items() if name == "scbm" or name.startswith("scbm.")]
        for target in self.targets:
            owner_name, _, attr = target.attr.rpartition(".")
            owner = sys.modules.get(f"scbm.{target.module}")
            if owner is not None and owner_name:
                owner = getattr(owner, owner_name, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.absent.append(f"{target.module}.{target.attr}")
                continue
            wrapper = self._wrap(original, target)
            if owner_name:
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)

    def _wrap(self, fn, target: Target):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = target.key
            if target.label is not None:
                try:
                    key = f"{target.key}.{target.label(args, kwargs)}"
                except _SIGNATURE_ERRORS:
                    self.broken.add(f"{target.module}.{target.attr}")
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stat = self.stats.setdefault(key, Stat())
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - child
            if target.count is not None:
                try:
                    counts = target.count(args, kwargs, result)
                except _SIGNATURE_ERRORS:
                    self.broken.add(f"{target.module}.{target.attr}")
                    counts = {}
                for name, value in counts.items():
                    stat.counts[name] = stat.counts.get(name, 0) + int(value)
            return result

        return wrapper

    def report(self) -> dict:
        return {
            "absent": self.absent,
            "broken": sorted(self.broken),
            "spans": {
                key: {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s, "counts": s.counts}
                for key, s in sorted(self.stats.items())
            },
        }


def stats_from_report(spans: dict) -> dict:
    return {key: Stat(**fields) for key, fields in spans.items()}
