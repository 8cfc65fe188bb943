"""Span recorder for the traced run, and the per-layer metrics derived from it.

The recorder wraps the public functions of each qbounds module by rebinding
module attributes in the benchmark process, including the names other
modules imported (``bounds.solve_tridiagonal``, ``cli.obb_variational``,
``core.composite_simpson``, the ``cli._RUNNERS`` table, ...). The program's
source is untouched. Each span records name, start, end and parent; spans
stay in memory until the run ends. Counts come from call arguments and
returned arrays, measured inside ``trace.count`` spans so that the counting
itself is excluded from every layer's self time.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from collections import defaultdict
from typing import NamedTuple

LAYERS = ("cli", "models", "core", "bounds", "numerics", "estimation")
# Private helpers traced as well: the cli's model dispatch and row checks.
_PRIVATE = {"cli": ("_build", "_check_row")}
BUILDERS = ("models.noon_model", "models.dephasing_model",
            "models.interferometer_problem", "models.field_model")
COUNT_SPAN = "trace.count"
LIVE_FRACTION = 1e-16  # a likelihood cell is live at >= this x its column max


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the same pass, -1 at top level


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the part of it its children cover."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(span)
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for child in sorted(children[i], key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def _traced_functions(layer: str, module):
    """The module's public functions (``__all__``, else no leading ``_``)."""
    public = getattr(module, "__all__", None)
    if public is None:
        public = [n for n in vars(module) if not n.startswith("_")]
    for name in [*public, *_PRIVATE.get(layer, ())]:
        obj = getattr(module, name)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


# Counters: (counts, args, result) -> None, keyed by span name.
def _count_tridiag(counts, args, result):
    counts["numerics.tridiag.rows"] += len(result)


def _count_pmf_table(counts, args, result):
    counts["numerics.pmf_table.cells"] += result.size
    counts["numerics.pmf_table.peak_mb"] = max(
        counts["numerics.pmf_table.peak_mb"], result.nbytes / 1e6)


def _count_likelihood(counts, args, result):
    counts["estimation.like_cells"] += result.size
    live = result >= LIVE_FRACTION * result.max(axis=0, keepdims=True)
    counts["estimation.live_cells"] += int(live.sum())


def _count_moments(counts, args, result):
    counts["estimation.outcomes"] += len(result.zero_evidence)
    counts["estimation.zero_outcomes"] += int(result.zero_evidence.sum())


def _count_rows(counts, args, result):
    counts["cli.rows"] += len(args[1])


COUNTERS = {
    "numerics.solve_tridiagonal": _count_tridiag,
    "numerics.log_binomial_pmf_vector": _count_pmf_table,
    "estimation.likelihood_table": _count_likelihood,
    "estimation.mmse_mse": _count_moments,
    "cli.render_csv": _count_rows,
}


class Recorder:
    """Records spans around the qbounds functions while installed."""

    def __init__(self):
        self.passes: list[tuple[list[Span], dict]] = []
        self._spans: list[Span] = []
        self._counts: dict = defaultdict(int)
        self._stack: list[int] = []
        self._undo: list = []
        self._wrappers = self._make_wrappers()

    def _make_wrappers(self) -> dict:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"qbounds.{layer}")
            for name, fn in _traced_functions(layer, module):
                wrappers[fn] = self._wrap(f"{layer}.{name}", fn,
                                          COUNTERS.get(f"{layer}.{name}"))
        return wrappers

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = self._spans, self._stack
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = Span(name, start, end, parent)
            if counter is not None:
                counter(self._counts, args, result)
                spans.append(Span(COUNT_SPAN, end, time.perf_counter(), parent))
            return result
        return wrapper

    def begin_pass(self) -> None:
        """Start a fresh span list and rebind every traced name."""
        self._spans, self._counts, self._stack = [], defaultdict(int), []
        self._undo = rebind(self._wrappers)

    def end_pass(self) -> None:
        """Restore every rebound name and keep the pass's spans and counts."""
        restore(self._undo)
        self.passes.append((self._spans, dict(self._counts)))


def rebind(wrappers: dict) -> list:
    """Replace each function in ``wrappers`` wherever qbounds binds it.

    Covers module attributes, the names modules imported from each other and
    module-level dicts such as ``cli._RUNNERS``. Returns what ``restore``
    needs to undo it.
    """
    namespaces = []
    for name, module in list(sys.modules.items()):
        if name == "qbounds" or name.startswith("qbounds."):
            ns = vars(module)
            namespaces.append(ns)
            namespaces += [v for v in ns.values() if type(v) is dict]
    undo = []
    for ns in namespaces:
        for key, value in list(ns.items()):
            wrapper = wrappers.get(value) if inspect.isfunction(value) else None
            if wrapper is not None:
                ns[key] = wrapper
                undo.append((ns, key, value))
    return undo


def restore(undo: list) -> None:
    for ns, key, value in reversed(undo):
        ns[key] = value


# Per-layer metrics whose value is a sum of self times over these spans.
SELF_TIME_METRICS = {
    "numerics.tridiag_s": ("numerics.solve_tridiagonal",),
    "bounds.assemble_s": ("bounds.solve_optimal_bias",),
    "bounds.residual_s": ("bounds.bias_ode_residual",),
    "bounds.functional_s": ("bounds.bound_functional",),
    "bounds.qcrb_s": ("bounds.bayesian_qcrb",),
    "core.validate_s": ("core.validate_problem",),
    "numerics.simpson_s": ("numerics.composite_simpson",),
    "numerics.pmf_table_s": ("numerics.log_binomial_pmf_vector",),
    "estimation.moments_s": ("estimation.mmse_mse", "estimation.mmse_estimates"),
    "cli.render_s": ("cli.render_csv",),
    "cli.config_s": ("cli.build_config",),
    "models.build_s": BUILDERS,
}
CALL_METRICS = {
    "bounds.residual.calls": ("bounds.bias_ode_residual",),
    "core.validate.calls": ("core.validate_problem",),
    "numerics.simpson.calls": ("numerics.composite_simpson",),
    "models.build.calls": BUILDERS,
}


def pass_metrics(spans: list[Span], counts: dict, wall: float) -> dict:
    """Per-layer metrics of one traced pass that took ``wall`` seconds."""
    selfs = self_times(spans)
    by_name = defaultdict(float)
    calls = defaultdict(int)
    for span, t in zip(spans, selfs):
        by_name[span.name] += t
        calls[span.name] += 1
    out = {m: sum(by_name[n] for n in names) for m, names in SELF_TIME_METRICS.items()}
    out.update({m: sum(calls[n] for n in names) for m, names in CALL_METRICS.items()})
    out["cli.self_s"] = sum(t for n, t in by_name.items() if n.startswith("cli.")) \
        - out["cli.render_s"] - out["cli.config_s"]
    rows = counts.get("numerics.tridiag.rows", 0)
    out["numerics.tridiag.rows"] = rows
    out["numerics.tridiag.mflops"] = (
        8.0 * rows / out["numerics.tridiag_s"] / 1e6 if rows else 0.0)
    out["numerics.pmf_table.cells"] = counts.get("numerics.pmf_table.cells", 0)
    out["numerics.pmf_table.peak_mb"] = counts.get("numerics.pmf_table.peak_mb", 0.0)
    out["estimation.live_ratio"] = _ratio(counts, "estimation.live_cells",
                                          "estimation.like_cells")
    out["estimation.zero_evidence_ratio"] = _ratio(counts, "estimation.zero_outcomes",
                                                   "estimation.outcomes")
    out["cli.rows"] = counts.get("cli.rows", 0)
    top = sum(s.end - s.start for s in spans if s.parent == -1)
    out["trace.coverage"] = top / wall
    return out


def _ratio(counts: dict, num: str, den: str) -> float:
    return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0


def median_metrics(per_pass: list[dict]) -> dict:
    """Median of each metric over the traced passes."""
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}


def invocation_render_share(spans: list[Span]) -> list[tuple[float, float]]:
    """(duration, cli.render_csv self time) of each top-level span, in order."""
    selfs = self_times(spans)
    roots, out = [], {}
    for i, span in enumerate(spans):
        root = i if span.parent == -1 else roots[span.parent]
        roots.append(root)
        if span.parent == -1:
            out[i] = [span.end - span.start, 0.0]
        if span.name == "cli.render_csv":
            out[root][1] += selfs[i]
    return [tuple(v) for v in out.values()]
