"""In-memory span tracing around the public entry points of ``repro``.

The tracer wraps functions and methods *from outside* the library: each
patch replaces a name where its callers look it up (a module global or a
class attribute), records a span per call and restores the original on
:meth:`Tracer.uninstall`.  Nothing under ``src/`` is modified, so an untraced
run executes exactly the library code.

A span is ``(op, parent, name, start, end, items)``; ``op`` is the index of
the benchmark operation that caused it (the trace id) and ``parent`` the
index of the enclosing span.  Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
from collections import defaultdict
from time import perf_counter
from typing import Callable

#: Layer spans, as ``(metric prefix, [(module, attribute path), ...], items)``.
#: The locations listed for one prefix are the defining module and the
#: modules the workloads' ops call the name through.  ``items`` maps
#: ``(args, result)`` to a work count.
LAYER_PATCHES: list[tuple[str, list[tuple[str, str]], Callable]] = [
    (
        "datasets.load_dataset",
        [
            ("repro.datasets.registry", "load_dataset"),
            ("repro.analysis.mitigation_analysis", "load_dataset"),
        ],
        lambda args, result: len(result),
    ),
    *[
        (
            f"nn.{cls}.{method}",
            [(module, f"{cls}.{method}")],
            lambda args, result: int(getattr(args[1], "size", 0)),
        )
        for module, cls in [
            ("repro.nn.layers.conv", "Conv2D"),
            ("repro.nn.layers.pooling", "MaxPool2D"),
            ("repro.nn.layers.linear", "Linear"),
            ("repro.nn.layers.activations", "ReLU"),
            ("repro.nn.layers.noise", "GaussianNoise"),
        ]
        for method in ("forward", "backward")
    ],
    (
        "mitigation.train_variant_grid_stacked",
        [
            ("repro.mitigation.robust_training", "train_variant_grid_stacked"),
            ("repro.analysis.mitigation_analysis", "train_variant_grid_stacked"),
        ],
        lambda args, result: len(result),
    ),
    (
        "attacks.corrupted_state_batch",
        [
            ("repro.attacks.injection", "corrupted_state_batch"),
            ("repro.accelerator.inference", "corrupted_state_batch"),
        ],
        lambda args, result: len(args[2]),
    ),
    (
        "accelerator.accuracy_under_attacks",
        [("repro.accelerator.inference", "AttackedInferenceEngine.accuracy_under_attacks")],
        lambda args, result: len(result),
    ),
    (
        "thermal.GridThermalSolver.solve",
        [("repro.thermal.grid_solver", "GridThermalSolver.solve")],
        lambda args, result: int(result.size),
    ),
    (
        "photonics.monte_carlo",
        [("repro.photonics.bank_array", "BankArrayPair.monte_carlo")],
        lambda args, result: int(result.shape[0]),
    ),
    (
        "engine.campaign",
        [("repro.engine.campaign", "Campaign.run")],
        lambda args, result: len(result.records),
    ),
    (
        "engine.experiment_run",
        [("repro.engine.executor", "execute_run")],
        lambda args, result: int(result.ok),
    ),
    (
        "engine.ResultCache.get",
        [("repro.engine.cache", "ResultCache.get")],
        lambda args, result: int(result is not None),
    ),
    (
        "engine.ResultCache.put",
        [("repro.engine.cache", "ResultCache.put")],
        lambda args, result: 1,
    ),
]

#: ``sample_outcome`` spans are named per attack kind.
SAMPLE_OUTCOME_SITES = [
    ("repro.attacks.scenario", "sample_outcome"),
    ("repro.analysis.mitigation_analysis", "sample_outcome"),
]

#: Call counters that open no span: ``(counter name, [(module, attribute)])``.
COUNTER_PATCHES = [
    # One LU factorization of the thermal conduction matrix per call.
    ("thermal.factorizations", [("repro.thermal.grid_solver", "factorized")]),
    # One stacked pass over the test set per scenario chunk.
    ("accelerator.stacked_forwards", [("repro.accelerator.inference", "stacked_state")]),
]

#: Attack kinds of the sampled grids; each gets its own sample_outcome metrics.
ATTACK_KINDS = ("actuation", "hotspot", "crosstalk", "laser_power")


def _resolve(module_name: str, path: str):
    """Return ``(owner, attribute)`` for ``module:path`` (``Class.method``)."""
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute


class Tracer:
    """Records spans and counters while installed; inert otherwise."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float, int]] = []
        self.counters: dict[tuple[int, str], int] = defaultdict(int)
        self.op = -1
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------- patching
    def install(self, op: int) -> None:
        """Patch every entry point; spans are attributed to ``op``."""
        if self._originals:
            raise RuntimeError("tracer already installed")
        self.op = op
        for name, sites, items in LAYER_PATCHES:
            for module, path in sites:
                self._patch(module, path, lambda fn, name=name, items=items: self._spanned(fn, name, items))
        for module, path in SAMPLE_OUTCOME_SITES:
            self._patch(module, path, self._spanned_sample_outcome)
        for name, sites in COUNTER_PATCHES:
            for module, path in sites:
                self._patch(module, path, lambda fn, name=name: self._counted(fn, name))

    def uninstall(self) -> None:
        """Restore every patched name (in reverse patch order)."""
        for owner, attribute, original in reversed(self._originals):
            setattr(owner, attribute, original)
        self._originals.clear()
        self._stack.clear()

    def _patch(self, module: str, path: str, make_wrapper: Callable) -> None:
        owner, attribute = _resolve(module, path)
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        self._originals.append((owner, attribute, original))
        setattr(owner, attribute, make_wrapper(original))

    # ------------------------------------------------------------- wrappers
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((self.op, parent, name, perf_counter(), 0.0, 0))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int, items: int) -> None:
        end = perf_counter()
        self._stack.pop()
        op, parent, name, start, _, _ = self.spans[index]
        self.spans[index] = (op, parent, name, start, end, items)

    def _spanned(self, fn: Callable, name: str, items: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(index, items(args, result) if result is not None else 0)

        return wrapper

    def _spanned_sample_outcome(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(scenario, *args, **kwargs):
            index = self._open(f"attacks.sample_outcome.{scenario.spec.kind}")
            outcome = None
            try:
                outcome = fn(scenario, *args, **kwargs)
                return outcome
            finally:
                mrs = sum(outcome.attacked_mrs.values()) if outcome is not None else 0
                self._close(index, int(mrs))

        return wrapper

    def _counted(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counters[(self.op, name)] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -------------------------------------------------------------- reading
    @contextlib.contextmanager
    def root(self, name: str):
        """Open the root span of the current op."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index, 1)

    def aggregate(self, scales: dict[int, float]) -> dict[str, dict[str, float]]:
        """Per span name: self seconds, calls and items summed over all ops.

        Each op's self times are multiplied by its entry in ``scales`` (the
        factor to reference host speed).
        """
        child_time = [0.0] * len(self.spans)
        for _, parent, _, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"s": 0.0, "calls": 0, "items": 0}
        )
        for (op, _, name, start, end, items), children in zip(self.spans, child_time):
            entry = totals[name]
            entry["s"] += ((end - start) - children) * scales[op]
            entry["calls"] += 1
            entry["items"] += items
        return dict(totals)

    def counter_totals(self) -> dict[str, int]:
        totals: dict[str, int] = defaultdict(int)
        for (_, name), count in self.counters.items():
            totals[name] += count
        return dict(totals)

    def to_json(self) -> dict:
        """Spans with parent links, for writing out at the end of a run."""
        return {
            "fields": ["op", "parent", "name", "start_s", "end_s", "items"],
            "spans": [list(span) for span in self.spans],
            "counters": [[op, name, count] for (op, name), count in sorted(self.counters.items())],
        }


#: Span names reported as ``<name>.{s,calls,items}`` (self time per op).
SPAN_METRICS = [
    name for name, _, _ in LAYER_PATCHES if name not in ("engine.campaign", "engine.experiment_run")
] + [f"attacks.sample_outcome.{kind}" for kind in ATTACK_KINDS]


def layer_metrics(
    tracer: Tracer,
    scales: dict[int, float],
    traced_durations: list[float],
    durations: list[float],
    shares: dict,
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``, averaged per traced op.

    Times are scaled to reference host speed like the end-to-end ones.  A
    layer the workload never reaches reads 0; ratios with no denominator
    read 0 as well.
    """
    ops = max(len(traced_durations), 1)
    totals = tracer.aggregate(scales)
    counters = tracer.counter_totals()
    empty = {"s": 0.0, "calls": 0, "items": 0}
    metrics: dict[str, tuple[float, str]] = {}
    for name in SPAN_METRICS:
        entry = totals.get(name, empty)
        metrics[f"{name}.s"] = (entry["s"] / ops, "s")
        metrics[f"{name}.calls"] = (entry["calls"] / ops, "count")
        metrics[f"{name}.items"] = (entry["items"] / ops, "count")
    for name, _ in COUNTER_PATCHES:
        metrics[name] = (counters.get(name, 0) / ops, "count")
    solves = totals.get("thermal.GridThermalSolver.solve", empty)["calls"]
    factorizations = counters.get("thermal.factorizations", 0)
    gets = totals.get("engine.ResultCache.get", empty)
    metrics.update({
        "thermal.factorization_reuse": (solves / factorizations if factorizations else 0.0, "ratio"),
        "engine.experiment_run.s": (totals.get("engine.experiment_run", empty)["s"] / ops, "s"),
        "engine.campaign_self.s": (totals.get("engine.campaign", empty)["s"] / ops, "s"),
        "engine.cache_hit_ratio": (gets["items"] / gets["calls"] if gets["calls"] else 0.0, "ratio"),
        "input.shared_trunk_share": (shares["shared_trunk_share"], "ratio"),
        "input.thermal_kind_share": (shares["thermal_kind_share"], "ratio"),
        "trace.unattributed.s": (totals.get("op", empty)["s"] / ops, "s"),
        "trace.overhead_ratio": (
            statistics.median(traced_durations) / statistics.median(durations)
            if traced_durations and durations else 0.0,
            "ratio",
        ),
    })
    return metrics
