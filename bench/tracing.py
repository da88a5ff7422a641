"""Traced runs: spans around tsvlab's public functions and the per-layer metrics.

:func:`install` wraps every public function of each layer module and
rebinds the wrapper wherever a tsvlab module holds the original name, so a
call from one layer into another (``cli`` calling ``tsv.abl_probabilities``,
``tsv`` calling ``qcore.evolve_forward``) opens a child span. Constructors
of ``Operator``, ``Ket`` and ``Bra`` are wrapped on their classes. Spans
live in memory for one op at a time; :class:`LayerStats` folds them into
self times (a span's duration minus its direct children's) and counts.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
import tracemalloc
from collections import Counter, defaultdict
from typing import NamedTuple

LAYERS = ("problemfile", "qcore", "tsv", "measure", "scenarios", "cli")
#: classes whose construction is qcore work; the span is named after the class
QCORE_CLASSES = ("Operator", "Ket", "Bra")

MB = 1024.0 * 1024.0


class Span(NamedTuple):
    id: int
    parent: int | None
    layer: str
    name: str
    start: float
    end: float
    raised: bool


class Tracer:
    """Records one span per wrapped call; ``counts`` collects hook counters."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.counts: Counter = Counter()
        self._next_id = 0

    def wrap(self, layer: str, name: str, fn, hook=None):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            raised = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end = clock()
                stack.pop()
                spans.append(Span(sid, parent, layer, name, start, end, raised))
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return traced

    def take(self) -> list:
        spans = list(self.spans)
        self.spans.clear()
        return spans


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_load(counts, args, kwargs, result):
    counts["problemfile.bytes_in"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _count_decompose(counts, args, kwargs, result):
    counts["qcore.eigenspaces"] += len(result.eigenvalues)


def _count_evolve(counts, args, kwargs, result):
    counts["qcore.evolve_segments"] += len(_arg(args, kwargs, 1, "schedule").segments)


def _count_mc(counts, args, kwargs, result):
    counts["measure.mc_samples"] += _arg(args, kwargs, 3, "n_samples")
    counts["measure.mc_kept"] += result.samples_postselected


def _count_pointer(counts, args, kwargs, result):
    counts["measure.pointer_points"] += _arg(args, kwargs, 2, "cfg").points


def _count_scenario(counts, args, kwargs, result):
    counts["scenarios.checks"] += len(result.results)


def _count_exit(counts, args, kwargs, result):
    counts["cli.nonzero_exits"] += result != 0


HOOKS = {
    ("problemfile", "load"): _count_load,
    ("qcore", "spectral_decompose"): _count_decompose,
    ("qcore", "evolve_forward"): _count_evolve,
    ("qcore", "evolve_backward"): _count_evolve,
    ("measure", "monte_carlo_abl"): _count_mc,
    ("measure", "weak_measure_pointer"): _count_pointer,
    ("scenarios", "run_scenario"): _count_scenario,
    ("cli", "main"): _count_exit,
}


def public_functions(module):
    for name, obj in vars(module).items():
        if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


class Patch:
    """Rebinds attributes and puts the originals back on :meth:`undo`."""

    def __init__(self):
        self._saved = []

    def set(self, target, attr, value):
        self._saved.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def rebind_everywhere(self, modules, original, replacement):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)

    def undo(self):
        for target, attr, value in reversed(self._saved):
            setattr(target, attr, value)
        self._saved.clear()


def tsvlab_modules(tl) -> dict:
    return {layer: importlib.import_module(f"{tl.__name__}.{layer}") for layer in LAYERS}


def install(tracer: Tracer, tl) -> Patch:
    """Wrap every layer's public functions, wherever tsvlab binds them."""
    layers = tsvlab_modules(tl)
    everywhere = [tl, *layers.values()]
    patch = Patch()
    for layer, module in layers.items():
        for name, fn in list(public_functions(module)):
            wrapped = tracer.wrap(layer, name, fn, HOOKS.get((layer, name)))
            patch.rebind_everywhere(everywhere, fn, wrapped)
    qcore = layers["qcore"]
    for name in QCORE_CLASSES:
        cls = getattr(qcore, name)
        patch.set(cls, "__post_init__", tracer.wrap("qcore", name, cls.__dict__["__post_init__"]))
    patch.set(qcore.HamiltonianSchedule, "split_at",
              tracer.wrap("qcore", "split_at", qcore.HamiltonianSchedule.split_at))
    return patch


def install_peak_probes(tl, peaks: dict) -> Patch:
    """Record the tracemalloc peak of each Monte Carlo and pointer call.

    tracemalloc must already be tracing. The peak is taken over the call,
    relative to the memory traced when it starts, in MB.
    """
    layers = tsvlab_modules(tl)
    everywhere = [tl, *layers.values()]
    patch = Patch()
    for fn_name, key in (("monte_carlo_abl", "measure.mc_peak_mb"),
                         ("weak_measure_pointer", "measure.pointer_peak_mb")):
        fn = getattr(layers["measure"], fn_name)

        def probed(*args, _fn=fn, _key=key, **kwargs):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return _fn(*args, **kwargs)
            finally:
                peak = (tracemalloc.get_traced_memory()[1] - base) / MB
                peaks[_key] = max(peaks.get(_key, 0.0), peak)

        patch.rebind_everywhere(everywhere, fn, functools.wraps(fn)(probed))
    return patch


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(spans) -> dict:
    """Self seconds per (layer, name): each span minus its direct children."""
    children = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            children[s.parent] += s.end - s.start
    out = defaultdict(float)
    for s in spans:
        out[(s.layer, s.name)] += (s.end - s.start) - children[s.id]
    return out


def top_level_time(spans) -> float:
    return sum(s.end - s.start for s in spans if s.parent is None)


def layer_errors(spans) -> Counter:
    """Exceptions per layer, counted where they leave the layer."""
    layer_of = {s.id: s.layer for s in spans}
    return Counter(s.layer for s in spans
                   if s.raised and layer_of.get(s.parent) != s.layer)


# Which span names each self-time metric sums; None means every span of the layer.
SELF_TIME_METRICS = {
    "problemfile.load_s": ("problemfile", None),
    "qcore.decompose_s": ("qcore", ("spectral_decompose",)),
    "qcore.operator_new_s": ("qcore", ("Operator",)),
    "qcore.evolve_s": ("qcore", ("evolve_forward", "evolve_backward")),
    "qcore.self_s": ("qcore", None),
    "tsv.abl_s": ("tsv", ("abl_probabilities", "abl_probabilities_generalized", "abl_at_time")),
    "tsv.weak_s": ("tsv", ("weak_value", "weak_value_generalized")),
    "tsv.reality_s": ("tsv", ("element_of_reality", "product_rule_report")),
    "tsv.kernel_s": ("tsv", ("two_time_joint",)),
    "tsv.ancilla_s": ("tsv", ("gtsv_from_ancilla",)),
    "tsv.self_s": ("tsv", None),
    "measure.mc_s": ("measure", ("monte_carlo_abl",)),
    "measure.pointer_s": ("measure", ("weak_measure_pointer", "pointer_bump_masses")),
    "measure.ideal_s": ("measure", ("ideal_measure",)),
    "measure.oracle_s": ("measure", ("exact_conditional_oracle",)),
    "measure.self_s": ("measure", None),
    "scenarios.build_s": ("scenarios", ("get_scenario",)),
    "cli.self_s": ("cli", None),
}
CALL_METRICS = {
    "problemfile.load_calls": ("problemfile", ("load",)),
    "qcore.decompose_calls": ("qcore", ("spectral_decompose",)),
    "qcore.operator_new_calls": ("qcore", ("Operator",)),
    "tsv.abl_calls": ("tsv", ("abl_probabilities", "abl_probabilities_generalized")),
    "tsv.weak_calls": ("tsv", ("weak_value", "weak_value_generalized")),
    "measure.ideal_calls": ("measure", ("ideal_measure",)),
}


class LayerStats:
    """Accumulates span self times, call counts and errors over many ops."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.errors = Counter()
        self.bench_self_s = 0.0
        self.op_time_s = 0.0
        self.ops = 0

    def add_op(self, spans, op_seconds: float) -> None:
        for key, seconds in self_times(spans).items():
            self.self_s[key] += seconds
        self.calls.update((s.layer, s.name) for s in spans)
        self.errors.update(layer_errors(spans))
        self.bench_self_s += op_seconds - top_level_time(spans)
        self.op_time_s += op_seconds
        self.ops += 1

    def layer_self(self, layer: str) -> float:
        return sum(v for (lay, _), v in self.self_s.items() if lay == layer)

    def _sum(self, table, layer, names) -> float:
        return sum(v for (lay, name), v in table.items()
                   if lay == layer and (names is None or name in names))

    def metrics(self, counts: Counter) -> dict:
        out = {k: self._sum(self.self_s, *spec) for k, spec in SELF_TIME_METRICS.items()}
        out["scenarios.run_s"] = self.layer_self("scenarios") - out["scenarios.build_s"]
        out.update({k: float(self._sum(self.calls, *spec)) for k, spec in CALL_METRICS.items()})
        for key in ("problemfile.bytes_in", "qcore.eigenspaces", "qcore.evolve_segments",
                    "measure.mc_samples", "measure.mc_kept", "measure.pointer_points",
                    "scenarios.checks", "cli.nonzero_exits"):
            out[key] = float(counts[key])
        out["measure.mc_accept_ratio"] = (counts["measure.mc_kept"] / counts["measure.mc_samples"]
                                          if counts["measure.mc_samples"] else 0.0)
        out["problemfile.errors"] = float(self.errors["problemfile"])
        out["tsv.errors"] = float(self.errors["tsv"])
        out["bench.self_s"] = self.bench_self_s
        out["trace.op_time_s"] = self.op_time_s
        accounted = sum(self.layer_self(layer) for layer in LAYERS) + self.bench_self_s
        out["trace.accounted_frac"] = accounted / self.op_time_s if self.op_time_s else 0.0
        return out
