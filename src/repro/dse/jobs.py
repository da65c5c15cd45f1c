"""Job-shaped entrypoints over the shared batch/search path.

The job server (:mod:`repro.service`) does not call searches directly:
it speaks *job specs* — plain JSON dicts naming a design space, an
evaluator and a search method — and this module turns one spec into one
deterministic, checkpointed, deadline-bounded search run:

- :func:`build_space` / :func:`build_evaluator` — spec → live objects,
  with validation errors raised as
  :class:`~repro.errors.InvalidParameterError` (the server maps them to
  400s);
- :func:`run_job` — execute a spec through
  :class:`~repro.dse.evaluate.BudgetedEvaluator` over the shared batch
  path, journaled into a per-job ``c2bound.checkpoint/1`` file so a
  SIGKILL'd server re-runs the job with a warm ledger and lands on
  bit-identical results with exactly-once budget accounting;
- :class:`JobGuard` — the between-batch hook that enforces the job's
  :class:`~repro.resilience.policy.Deadline` (raising
  :class:`~repro.errors.DeadlineExceededError`) and streams progress
  events in the ``c2bound.trace/1`` format;
- :class:`DegradedSimEvaluator` — the degradation ladder's bottom rung:
  when the simulator tier is circuit-broken, answer from
  :class:`~repro.sim.cache_store.SimCacheStore` hits where possible and
  from the analytic surrogate otherwise, marking the result
  ``degraded``.

Determinism contract: a job result is a pure function of its spec (and
the evaluator's model version), never of the server's schedule — which
is what makes crash/restart resume testable by byte comparison.
"""

from __future__ import annotations

import multiprocessing
from typing import Callable, Sequence

import numpy as np

from repro.core.params import ApplicationProfile, MachineParameters
from repro.dse.brute import brute_force_search
from repro.dse.evaluate import (
    BudgetedEvaluator,
    SimulatorEvaluator,
    SurrogateEvaluator,
    batch_evaluate,
    is_feasible,
)
from repro.dse.fabric import FabricEvaluator
from repro.dse.space import DesignSpace, Parameter
from repro.errors import DeadlineExceededError, InvalidParameterError
from repro.laws.gfunction import PowerLawG
from repro.obs import get_registry
from repro.resilience.policy import Deadline

__all__ = ["RESULT_SCHEMA", "JobGuard", "DegradedSimEvaluator",
           "build_space", "build_evaluator", "run_job"]

RESULT_SCHEMA = "c2bound.job-result/1"

_WORKLOADS = ("tmm", "stencil", "spmv", "fft", "gups")


def build_space(spec: dict) -> DesignSpace:
    """A :class:`~repro.dse.space.DesignSpace` from its wire form.

    Wire form: ``{"params": [{"name": "a0", "values": [1.0, 2.0]}, …]}``.
    """
    params = spec.get("params")
    if not isinstance(params, list) or not params:
        raise InvalidParameterError(
            "space spec needs a non-empty 'params' list")
    out = []
    for item in params:
        if not isinstance(item, dict) or "name" not in item:
            raise InvalidParameterError(
                f"space parameter {item!r} needs 'name' and 'values'")
        values = item.get("values")
        if not isinstance(values, list) or not values:
            raise InvalidParameterError(
                f"space parameter {item['name']!r} needs non-empty 'values'")
        out.append(Parameter(str(item["name"]), tuple(values)))
    return DesignSpace(tuple(out))


def _build_app(spec: "dict | None") -> ApplicationProfile:
    spec = dict(spec) if spec else {}
    g_exp = float(spec.pop("g_exponent", 1.0))
    g_name = str(spec.pop("g_name", "job"))
    allowed = {"name", "f_seq", "f_mem", "concurrency", "overlap_ratio",
               "ic0", "base_working_set_kib"}
    unknown = set(spec) - allowed
    if unknown:
        raise InvalidParameterError(
            f"unknown app fields {sorted(unknown)}")
    return ApplicationProfile(g=PowerLawG(g_exp, name=g_name), **spec)


def _build_machine(spec: "dict | None") -> MachineParameters:
    spec = dict(spec) if spec else {}
    allowed = {"total_area", "shared_area", "pollack_k0", "pollack_phi0",
               "cycle_time"}
    unknown = set(spec) - allowed
    if unknown:
        raise InvalidParameterError(
            f"unknown machine fields {sorted(unknown)}")
    return MachineParameters(**spec)


def _build_workload(name: str, args: "dict | None"):
    from repro.workloads import (
        BandSpMV,
        FFTWorkload,
        GUPS,
        Stencil1D,
        TiledMatMul,
    )

    factories: "dict[str, Callable]" = {
        "tmm": TiledMatMul, "stencil": Stencil1D, "spmv": BandSpMV,
        "fft": FFTWorkload, "gups": GUPS}
    factory = factories.get(name)
    if factory is None:
        raise InvalidParameterError(
            f"unknown workload {name!r}; known: {sorted(factories)}")
    try:
        return factory(**(args or {}))
    except TypeError as exc:
        raise InvalidParameterError(
            f"bad workload arguments for {name!r}: {exc}") from exc


def build_evaluator(spec: dict, *, degraded: bool = False):
    """The evaluator a job spec names.

    ``{"type": "surrogate", "app": {…}, "machine": {…}, "noise": 0.0}``
    builds the analytic surrogate; ``{"type": "simulator", "workload":
    "tmm", "workload_args": {…}, "seed": 1234, "cache": <path|None>}``
    the event-driven simulator.  With ``degraded=True`` the simulator
    path is replaced by :class:`DegradedSimEvaluator` (cache hits +
    analytic fallback); the surrogate path is unaffected — it *is* the
    analytic tier.
    """
    if not isinstance(spec, dict):
        raise InvalidParameterError("evaluator spec must be an object")
    kind = spec.get("type", "surrogate")
    if kind == "surrogate":
        return SurrogateEvaluator(
            _build_app(spec.get("app")), _build_machine(spec.get("machine")),
            noise=float(spec.get("noise", 0.0)),
            objective=str(spec.get("objective", "auto")))
    if kind == "simulator":
        sim = SimulatorEvaluator(
            _build_workload(str(spec.get("workload", "tmm")),
                            spec.get("workload_args")),
            seed=int(spec.get("seed", 1234)),
            cache=spec.get("cache", "default"))
        if not degraded:
            return sim
        fallback = SurrogateEvaluator(
            _build_app(spec.get("app")), _build_machine(spec.get("machine")),
            noise=0.0)
        return DegradedSimEvaluator(sim, fallback)
    raise InvalidParameterError(
        f"unknown evaluator type {kind!r} (surrogate|simulator)")


class DegradedSimEvaluator:
    """Cache-or-analytical stand-in for a circuit-broken simulator tier.

    ``evaluate`` first consults the simulator's
    :class:`~repro.sim.cache_store.SimCacheStore` by content key — a
    hit is the *exact* simulation answer (``service.degraded.cache_hits``)
    — and otherwise falls back to the analytic surrogate
    (``service.degraded.analytical``).  Results produced through this
    evaluator are approximate whenever any fallback fired, which is why
    job results carry an explicit ``degraded`` marker instead of
    pretending.
    """

    def __init__(self, sim: SimulatorEvaluator,
                 fallback: SurrogateEvaluator) -> None:
        self.sim = sim
        self.fallback = fallback
        registry = get_registry()
        self._ctr_cache = registry.counter("service.degraded.cache_hits")
        self._ctr_analytical = registry.counter("service.degraded.analytical")

    def is_feasible(self, config: dict) -> bool:
        """The analytic area budget — checkable without simulating."""
        return is_feasible(self.fallback, config)

    def evaluate(self, config: dict) -> float:
        store = self.sim.cache
        if store is not None:
            cost = store.get(self.sim.cache_key_for(config))
            if cost is not None:
                self._ctr_cache.inc()
                return float(cost)
        self._ctr_analytical.inc()
        return float(self.fallback.evaluate(config))


class JobGuard:
    """Deadline + progress wrapper the job's batches flow through.

    Sits between :class:`~repro.dse.evaluate.BudgetedEvaluator` and the
    real evaluator (above the job's process pool, when it has one, so
    the checks and the callback run in this process): before every
    batch it checks the job's
    :class:`~repro.resilience.policy.Deadline` (raising
    :class:`~repro.errors.DeadlineExceededError` so retries and sweeps
    cannot outlive the job) and after every batch it reports progress
    through ``on_progress(evaluations_so_far)`` — the server streams
    those as ``c2bound.trace/1`` events.
    """

    def __init__(self, inner, *, deadline: "Deadline | None" = None,
                 on_progress: "Callable[[int], None] | None" = None) -> None:
        self.inner = inner
        self.deadline = deadline
        self.on_progress = on_progress
        self.evaluated = 0

    def _check(self) -> None:
        if self.deadline is not None and self.deadline.expired:
            raise DeadlineExceededError(
                "job deadline expired mid-sweep",
                timeout_s=self.deadline.timeout_s
                if self.deadline.timeout_s is not None else float("nan"))

    def _progress(self, n: int) -> None:
        self.evaluated += n
        if self.on_progress is not None:
            self.on_progress(self.evaluated)

    def is_feasible(self, config: dict) -> bool:
        return is_feasible(self.inner, config)

    def evaluate(self, config: dict) -> float:
        self._check()
        cost = float(self.inner.evaluate(config))
        self._progress(1)
        return cost

    def evaluate_batch(self, configs: Sequence[dict]) -> np.ndarray:
        self._check()
        costs = batch_evaluate(self.inner, configs)
        self._progress(len(costs))
        return costs


def _canonical_config(config: dict) -> dict:
    """A config dict in sorted-key order with JSON-stable values."""
    out = {}
    for key in sorted(config):
        value = config[key]
        out[key] = float(value) if isinstance(value, float) else value
    return out


def run_job(spec: dict, *, checkpoint_path=None, resume: bool = False,
            workers: int = 1, deadline: "Deadline | None" = None,
            degraded: bool = False,
            on_progress: "Callable[[int], None] | None" = None) -> dict:
    """Execute one job spec; returns the canonical result document.

    Parameters
    ----------
    spec:
        The job's wire spec: ``kind`` (only ``"sweep"`` today),
        ``space``, ``evaluator``, optional ``batch_size``.
    checkpoint_path:
        Per-job ``c2bound.checkpoint/1`` journal.  With ``resume=True``
        an existing journal is replayed first, so re-running after a
        crash charges each evaluation exactly once and reproduces the
        interrupted run bit-for-bit.
    workers:
        Process-pool width for the evaluation tier (1 = inline).
    deadline:
        The job's overall time budget, enforced between batches and
        propagated into the retry layer so backoffs cannot outlive it.
    degraded:
        Serve the degradation ladder instead of the simulator tier
        (see :class:`DegradedSimEvaluator`); stamped into the result.
    """
    kind = spec.get("kind", "sweep")
    if kind != "sweep":
        raise InvalidParameterError(
            f"unknown job kind {kind!r} (only 'sweep' is implemented)")
    space = build_space(spec.get("space") or {})
    evaluator = build_evaluator(spec.get("evaluator") or {},
                                degraded=degraded)
    ev_type = (spec.get("evaluator") or {}).get("type", "surrogate")
    pooled = None
    if workers > 1:
        # The pool sits *under* the guard: only the picklable evaluator
        # crosses the process boundary, while the deadline check and the
        # progress callback stay in this process.  The server runs jobs
        # on executor threads, so workers come from a forkserver rather
        # than a fork of this threaded process.
        pooled = evaluator = FabricEvaluator(
            evaluator, workers=workers, deadline=deadline,
            mp_context=multiprocessing.get_context("forkserver"))
    guard = JobGuard(evaluator, deadline=deadline, on_progress=on_progress)
    budget = BudgetedEvaluator(guard, method=str(spec.get("method", "brute")),
                               checkpoint=checkpoint_path, resume=resume)
    batch_size = spec.get("batch_size")
    try:
        result = brute_force_search(
            space, budget,
            batch_size=int(batch_size) if batch_size else None)
    finally:
        budget.close()
        if pooled is not None:
            pooled.close()
    return {
        "schema": RESULT_SCHEMA,
        "kind": kind,
        "best_config": _canonical_config(result.best_config),
        "best_cost": repr(float(result.best_cost)),
        "evaluations": int(result.evaluations),
        "skipped_infeasible": int(result.skipped_infeasible),
        "space_size": int(space.size),
        "evaluator": str(ev_type),
        "degraded": bool(degraded),
    }
