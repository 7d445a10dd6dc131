"""Spans and counts recorded around ergmkit's module boundaries, from outside.

``Tracer.install`` replaces each public function or method in ``BOUNDARIES``
with a wrapper that records a span (name, start, end, parent, op id) and,
where the table says so, a count read off the call's arguments or result.
Functions are replaced in every ergmkit module that imported them by name,
so calls made inside the package are traced too. Nothing under ``src/``
changes; ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    op: int
    sid: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0


def _sample_counts(args, kwargs, result, counts):
    g0, cfg = args[0], args[4] if len(args) > 4 else kwargs["cfg"]
    burn, thin = cfg.resolve(g0.n)
    counts["sampler.proposals"] += burn + thin * cfg.sample_count
    counts["sampler.sample_calls"] += 1
    counts.chains.append(result[1].copy())


def _design_counts(args, kwargs, result, counts):
    counts["model.design_rows"] += result[0].shape[0]


def _logistic_counts(args, kwargs, result, counts):
    counts["logistic.rows"] += len(args[1])
    counts["logistic.iterations"] += result.iterations


def _forest_counts(args, kwargs, result, counts):
    counts["forest.trees_grown"] += args[0].config.trees


def _bump(name):
    def hook(args, kwargs, result, counts):
        counts[name] += 1

    return hook


def _mcmle_counts(args, kwargs, result, counts):
    counts["fit.mcmle_rounds"] += int(result.diagnostics["iterations"])
    # the confirmation sample's covariance is the inverse of the reported one
    sd = np.sqrt(np.diag(np.linalg.inv(result.covariance)))
    gap = np.abs(np.asarray(result.diagnostics["moment_gap"])) / sd
    counts.mcmle_gaps.append(float(gap.max()))


def _diagnostic(name, key):
    def hook(args, kwargs, result, counts):
        counts[name] += int(result.diagnostics[key])

    return hook


# (module, attribute, span name, count hook). "Class.method" patches the class.
BOUNDARIES = [
    ("pipeline", "load_config", "pipeline.load_config", None),
    ("pipeline", "run", "pipeline.run", None),
    ("dataio", "load_schema", "dataio.load", None),
    ("dataio", "load_network", "dataio.load", None),
    ("graph", "Graph.__init__", "graph.build", _bump("graph.builds")),
    ("netstats", "network_summary", "netstats.summary", None),
    ("netstats", "mean_betweenness", "netstats.betweenness", None),
    ("model", "CompiledModel.__init__", "model.compile", _bump("model.compile_calls")),
    ("model", "CompiledModel.design_matrix", "model.design_matrix", _design_counts),
    ("model", "CompiledModel.statistics", "model.statistics", _bump("model.statistics_calls")),
    ("logistic", "fit_logistic", "logistic.fit", _logistic_counts),
    ("fit", "fit_mple", "fit.mple", None),
    ("fit", "fit_mcmle", "fit.mcmle", _mcmle_counts),
    ("fit", "screen_univariate", "fit.screen", None),
    ("fit", "gof", "fit.gof", None),
    ("sampler", "ChainState.__init__", "sampler.chain_init", None),
    ("sampler", "sample", "sampler.sample", _sample_counts),
    ("imputation", "impute_psm", "imputation.psm", None),
    (
        "imputation",
        "impute_missforest",
        "imputation.missforest",
        _diagnostic("imputation.missforest_rounds", "iterations"),
    ),
    ("forest", "RandomForest.fit", "forest.fit", _forest_counts),
    ("forest", "RandomForest.predict", "forest.predict", None),
]

SPAN_NAMES = sorted({b[2] for b in BOUNDARIES})
COUNT_NAMES = [
    "sampler.proposals",
    "sampler.sample_calls",
    "model.design_rows",
    "model.compile_calls",
    "model.statistics_calls",
    "logistic.rows",
    "logistic.iterations",
    "fit.mcmle_rounds",
    "imputation.missforest_rounds",
    "forest.trees_grown",
    "graph.builds",
]


class Counts(dict):
    """Exact counts of one op, plus the statistic matrix of every chain run
    and, per MC-MLE fit, the largest moment gap of its confirmation sample
    in standard deviations."""

    def __init__(self):
        super().__init__({name: 0 for name in COUNT_NAMES})
        self.chains: list = []
        self.mcmle_gaps: list[float] = []


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[int, Counts] = {}
        self._stack: list[Span] = []
        self._op = -1
        self._patched: list[tuple[object, str, object]] = []

    def op(self, op_id: int):
        """Context manager for one workload operation: the root span."""
        self._op = op_id
        self.counts[op_id] = Counts()
        return self._span("op")

    @contextmanager
    def _span(self, name: str):
        parent = self._stack[-1].sid if self._stack else None
        span = Span(self._op, len(self.spans), parent, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = time.perf_counter()

    def _wrap(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer._span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(args, kwargs, result, tracer.counts[tracer._op])
            return result

        return wrapper

    def install(self) -> None:
        for module_name, attr, name, hook in BOUNDARIES:
            module = sys.modules[f"ergmkit.{module_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                self._replace(owner, meth, self._wrap(getattr(owner, meth), name, hook))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(original, name, hook)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("ergmkit") and getattr(mod, attr, None) is original:
                    self._replace(mod, attr, wrapped)

    def _replace(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def layer_times(spans: list[Span], op_id: int) -> tuple[dict[str, float], dict[str, float]]:
    """Per span name, the seconds of one op spent in its outermost spans
    (inclusive) and in its spans minus their children (self). The
    inclusive table also holds ``pipeline.self``: self time of the op root
    and the pipeline spans. Siblings never overlap (one thread), so a
    parent's covered time is the sum of its children's durations."""
    mine = [s for s in spans if s.op == op_id]
    by_id = {s.sid: s for s in mine}
    child_time = {s.sid: 0.0 for s in mine}
    for s in mine:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    inclusive = {name: 0.0 for name in SPAN_NAMES}
    self_time = dict(inclusive)
    pipeline_self = 0.0
    for s in mine:
        own = (s.end - s.start) - child_time[s.sid]
        if s.name == "op" or s.name.startswith("pipeline."):
            pipeline_self += own
        if s.name == "op":
            continue
        self_time[s.name] += own
        ancestor = s.parent
        while ancestor is not None and by_id[ancestor].name != s.name:
            ancestor = by_id[ancestor].parent
        if ancestor is None:
            inclusive[s.name] += s.end - s.start
    inclusive["pipeline.self"] = pipeline_self
    return inclusive, self_time


def top_level_time(spans: list[Span], op_id: int) -> float:
    """Seconds in spans whose nearest non-pipeline ancestor is the op root."""
    mine = [s for s in spans if s.op == op_id]
    pipeline_ids = {s.sid for s in mine if s.name == "op" or s.name.startswith("pipeline.")}
    return sum(
        s.end - s.start
        for s in mine
        if s.sid not in pipeline_ids and s.parent in pipeline_ids
    )
