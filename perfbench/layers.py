"""Per-layer spans recorded from outside the program.

The benchmark attributes time to the repository's layers without
editing them: :func:`install` replaces each public function or method
named in :data:`TARGETS` with a wrapper that records a span (name,
start, end, parent) into a :class:`SpanRecorder`.  Spans stay in memory
and are written out once, when the run ends.

Only functions called at most ~10^5 times per run are wrapped: the
analytic objective (``per_instruction_time``, ~10^6 calls per run)
would cost more time under a wrapper than it measures.

Totals per span name:

- ``calls`` and ``incl_s`` count *outermost* calls only, so a function
  that recurses or nests (``brent_minimize`` inside ``area_split``'s
  outer ``brent_minimize``) is counted once per top-level call;
- ``self_s`` is each span's duration minus the time its child spans
  cover, summed over every span of that name.

Timestamps are ``time.perf_counter()``, which on Linux reads the
system-wide monotonic clock, so spans of the server process line up
with the client's timestamps.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from pathlib import Path

__all__ = ["TARGETS", "SpanRecorder", "install", "layer_metrics",
           "PER_LAYER_UNITS"]

#: (span name, "module:Qualified.attr") — every wrapped call site.
TARGETS = (
    ("dse.ann.fit", "repro.dse.ann:MLPRegressor.fit"),
    ("dse.ann.predict", "repro.dse.ann:MLPRegressor.predict"),
    ("dse.ann.search", "repro.dse.ann:ANNPredictorSearch.search"),
    ("dse.space.as_features", "repro.dse.space:DesignSpace.as_features"),
    ("dse.space.sample", "repro.dse.space:DesignSpace.sample"),
    ("dse.rsm.search", "repro.dse.rsm:response_surface_search"),
    ("dse.ga.search", "repro.dse.ga:genetic_search"),
    ("dse.evaluate.surrogate",
     "repro.dse.evaluate:SurrogateEvaluator.evaluate_batch"),
    ("dse.evaluate.surrogate",
     "repro.dse.evaluate:SurrogateEvaluator.evaluate_grid"),
    ("dse.evaluate.budget",
     "repro.dse.evaluate:BudgetedEvaluator.evaluate_batch"),
    ("dse.aps.skeleton", "repro.dse.aps:APSExplorer.analytic_skeleton"),
    ("core.optimizer.optimize",
     "repro.core.optimizer:C2BoundOptimizer.optimize"),
    ("core.optimizer.area_split",
     "repro.core.optimizer:C2BoundOptimizer.area_split"),
    ("solvers.brent", "repro.solvers.scalar:brent_minimize"),
    ("solvers.newton", "repro.solvers.newton:newton_solve"),
    ("sim.run", "repro.sim.cmp:CMPSimulator.run"),
    ("workloads.streams", "repro.workloads.base:Workload.streams"),
    ("camat.analyze", "repro.camat.analyzer:TraceAnalyzer.analyze"),
    ("sim.cache.get", "repro.sim.cache_store:SimCacheStore.get"),
    ("sim.cache.put", "repro.sim.cache_store:SimCacheStore.put"),
    ("resilience.checkpoint.append",
     "repro.resilience.checkpoint:CheckpointJournal.append_eval"),
    ("resilience.checkpoint.append",
     "repro.resilience.checkpoint:CheckpointJournal.append_evals"),
    ("resilience.job_registry.append",
     "repro.resilience.job_registry:JobRegistry.append_submit"),
    ("resilience.job_registry.append",
     "repro.resilience.job_registry:JobRegistry.append_done"),
    ("resilience.job_registry.append",
     "repro.resilience.job_registry:JobRegistry.append_cancel"),
    ("service.submit", "repro.service.state:ServiceState.submit"),
    ("service.run_job", "repro.dse.jobs:run_job"),
    ("dse.pool.chunk",
     "repro.dse.batch:ParallelEvaluator._record_chunk_timing"),
    ("dse.pool.chunk",
     "repro.dse.fabric:FabricEvaluator._record_unit_timing"),
)


class SpanRecorder:
    """In-memory span log plus per-name totals (thread-safe)."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.totals: dict[str, list] = {}   # name -> [calls, incl_s, self_s]
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def wrap(self, name: str, fn, attrs=None):
        """``fn`` wrapped so each call records one span named ``name``.

        ``attrs(args, kwargs)``, when given, returns a dict stored with
        the span (the service uses it to tag ``run_job`` with its job).
        """
        local, spans, ids, lock = (self._local, self.spans, self._ids,
                                   self._lock)
        total = self.totals.setdefault(name, [0, 0.0, 0.0])
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                frames = local.frames
            except AttributeError:
                frames = local.frames = []
            parent = frames[-1] if frames else None
            frame = [name, next(ids), 0.0]      # name, id, child seconds
            frames.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                dur = end - start
                outermost = True
                for other in frames:
                    if other[0] == name:
                        outermost = False
                        break
                if parent is not None:
                    parent[2] += dur
                spans.append((name, frame[1], parent[1] if parent else None,
                              start, end,
                              attrs(args, kwargs) if attrs else None))
                with lock:
                    if outermost:
                        total[0] += 1
                        total[1] += dur
                    total[2] += dur - frame[2]

        traced.__wrapped_by_perfbench__ = True
        return traced

    def self_time(self) -> float:
        """Summed self time of every recorded layer span."""
        return sum(t[2] for t in self.totals.values())

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (name, id, parent, start, end)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for name, sid, parent, start, end, attrs in self.spans:
                rec = {"name": name, "id": sid, "parent": parent,
                       "start": start, "end": end}
                if attrs:
                    rec["attrs"] = attrs
                out.write(json.dumps(rec) + "\n")


def _job_of(args, kwargs) -> dict:
    """``run_job``'s job id: the name of its checkpoint's directory."""
    path = kwargs.get("checkpoint_path")
    return {"job": Path(path).parent.name} if path is not None else {}


def _wrap_method(recorder: SpanRecorder, name: str, cls, attr: str) -> None:
    """Wrap ``cls.attr`` and every subclass's own override of it."""
    raw = cls.__dict__.get(attr)
    if raw is not None and not getattr(raw, "__wrapped_by_perfbench__", False):
        setattr(cls, attr, recorder.wrap(name, raw))
    for sub in cls.__subclasses__():
        _wrap_method(recorder, name, sub, attr)


def _wrap_function(recorder: SpanRecorder, name: str, module, attr: str,
                   attrs=None) -> None:
    """Wrap a module-level function in every ``repro`` module bound to it
    (``from x import f`` copies the reference into the importer)."""
    original = getattr(module, attr)
    traced = recorder.wrap(name, original, attrs)
    for mod_name, mod in list(sys.modules.items()):
        if (mod_name == "repro" or mod_name.startswith("repro.")) and \
                getattr(mod, attr, None) is original:
            setattr(mod, attr, traced)


def install(recorder: SpanRecorder) -> None:
    """Wrap every target.  Call after the program's modules are imported,
    so that every importer's copy of a wrapped function is replaced."""
    for name, target in TARGETS:
        mod_name, qual = target.split(":")
        module = importlib.import_module(mod_name)
        if "." in qual:
            cls_name, attr = qual.split(".")
            _wrap_method(recorder, name, getattr(module, cls_name), attr)
        else:
            _wrap_function(recorder, name, module, qual,
                           _job_of if name == "service.run_job" else None)


#: Every per-layer metric and its unit, in report order.
PER_LAYER_UNITS = {
    "dse.ann.fit_s": "s",
    "dse.ann.fit_calls": "count",
    "dse.ann.predict_s": "s",
    "dse.ann.search_self_s": "s",
    "dse.space.as_features_s": "s",
    "dse.space.as_features_calls": "count",
    "dse.space.sample_s": "s",
    "dse.rsm.search_self_s": "s",
    "dse.ga.search_self_s": "s",
    "dse.evaluate.surrogate_s": "s",
    "dse.evaluate.budget_self_s": "s",
    "dse.evaluations": "count",
    "dse.aps.skeleton_s": "s",
    "core.optimizer.optimize_s": "s",
    "core.optimizer.area_split_s": "s",
    "core.optimizer.area_split_calls": "count",
    "solvers.brent_calls": "count",
    "solvers.newton_calls": "count",
    "sim.run_s": "s",
    "sim.runs": "count",
    "sim.mem_ops": "count",
    "sim.mem_ops_per_s": "1/s",
    "sim.kernel.fallbacks": "count",
    "workloads.streams_s": "s",
    "camat.analyze_s": "s",
    "sim.cache.get_s": "s",
    "sim.cache.put_s": "s",
    "sim.cache.hits": "count",
    "sim.cache.misses": "count",
    "sim.cache.hit_ratio": "fraction",
    "resilience.checkpoint.append_s": "s",
    "resilience.checkpoint.records": "count",
    "resilience.job_registry.append_s": "s",
    "service.submit_s": "s",
    "service.submit_p50_ms": "ms",
    "service.queue_wait_p50_ms": "ms",
    "service.run_job_p50_ms": "ms",
    "service.overhead_p50_ms": "ms",
    "dse.pool.chunks": "count",
    "obs.trace_overhead_s": "s",
    "obs.layer_coverage": "fraction",
}


def layer_metrics(totals: dict, counters: dict) -> dict:
    """The per-layer metrics one process contributes.

    ``totals`` is :attr:`SpanRecorder.totals`; ``counters`` the metrics
    registry's counter snapshot from the same process.  The service
    metrics that need the client's clock are added by the caller.
    """
    def t(name: str) -> "tuple[int, float, float]":
        calls, incl, self_s = totals.get(name, (0, 0.0, 0.0))
        return calls, incl, self_s

    hits = counters.get("sim.cache.hits", 0)
    misses = counters.get("sim.cache.misses", 0)
    sim_s = t("sim.run")[1]
    mem_ops = counters.get("sim.mem_ops", 0)
    return {
        "dse.ann.fit_s": t("dse.ann.fit")[1],
        "dse.ann.fit_calls": t("dse.ann.fit")[0],
        "dse.ann.predict_s": t("dse.ann.predict")[1],
        "dse.ann.search_self_s": t("dse.ann.search")[2],
        "dse.space.as_features_s": t("dse.space.as_features")[1],
        "dse.space.as_features_calls": t("dse.space.as_features")[0],
        "dse.space.sample_s": t("dse.space.sample")[1],
        "dse.rsm.search_self_s": t("dse.rsm.search")[2],
        "dse.ga.search_self_s": t("dse.ga.search")[2],
        "dse.evaluate.surrogate_s": t("dse.evaluate.surrogate")[1],
        "dse.evaluate.budget_self_s": t("dse.evaluate.budget")[2],
        "dse.evaluations": counters.get("dse.evaluations", 0),
        "dse.aps.skeleton_s": t("dse.aps.skeleton")[1],
        "core.optimizer.optimize_s": t("core.optimizer.optimize")[1],
        "core.optimizer.area_split_s": t("core.optimizer.area_split")[1],
        "core.optimizer.area_split_calls": t("core.optimizer.area_split")[0],
        "solvers.brent_calls": t("solvers.brent")[0],
        "solvers.newton_calls": t("solvers.newton")[0],
        "sim.run_s": sim_s,
        "sim.runs": counters.get("sim.runs", 0),
        "sim.mem_ops": mem_ops,
        "sim.mem_ops_per_s": mem_ops / sim_s if sim_s > 0 else 0.0,
        "sim.kernel.fallbacks": counters.get("sim.kernel.fallbacks", 0),
        "workloads.streams_s": t("workloads.streams")[1],
        "camat.analyze_s": t("camat.analyze")[1],
        "sim.cache.get_s": t("sim.cache.get")[1],
        "sim.cache.put_s": t("sim.cache.put")[1],
        "sim.cache.hits": hits,
        "sim.cache.misses": misses,
        "sim.cache.hit_ratio":
            hits / (hits + misses) if hits + misses else 0.0,
        "resilience.checkpoint.append_s":
            t("resilience.checkpoint.append")[1],
        "resilience.checkpoint.records":
            counters.get("resilience.checkpoint.appended", 0),
        "resilience.job_registry.append_s":
            t("resilience.job_registry.append")[1],
        "service.submit_s": t("service.submit")[1],
        "dse.pool.chunks": t("dse.pool.chunk")[0],
    }
