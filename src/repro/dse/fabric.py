"""The sweep fabric: the one process-pool evaluator DSE sweeps ride on.

Fixed-size ordered chunks let one slow chunk serialize the tail of a
sweep — the exact straggler pathology the paper's own
concurrency-over-capacity lens (C-AMAT) warns about in memory systems.
:class:`FabricEvaluator` schedules by *ownership plus stealing*:

1. **Deterministic sharding** — every configuration hashes to one of
   the :data:`~repro.sim.cache_store.SHARD_COUNT` shards
   (:func:`config_shard`).  When the inner evaluator exposes
   ``cache_key_for`` (the simulator path) the shard is the *store's own*
   hash prefix, so fabric ownership coincides with disk-shard ownership:
   each worker slot owns a contiguous shard range
   (:func:`owner_of_shard`) and is the only writer of those shard
   directories — single-writer by construction, no cross-process locks.
2. **Work-stealing** — each slot drains its own backlog in input order;
   an idle slot steals the *tail half* of the largest remaining backlog
   (``dse.fabric.steals`` counter, ``dse.fabric.steal`` trace events),
   so a straggler shard is finished by everyone instead of serializing
   the sweep.
3. **Ordered reassembly** — results land by original batch index, so
   costs are bit-identical for any steal schedule, worker count, or
   crash/recovery sequence (every evaluator is a pure function of the
   configuration).  ``tests/dse/test_fabric.py`` and
   ``scripts/fabric_equivalence_check.py`` prove workers=1 ≡ workers=N ≡
   forced-steal ≡ crash-recovery ≡ kill-and-resume.

Tiered-cache integration: each slot receives the inner evaluator with
its store re-scoped (:meth:`~repro.sim.cache_store.SimCacheStore.scoped`)
to ``owned_shards`` of that slot plus write-behind buffering, and the
worker task flushes the buffer before returning.  Results a thief
computed for shards it does not own are persisted by the *parent* after
reassembly (``dse.fabric.reconciled``) — the parent is owner of last
resort, still a single writer per entry at a time.

Fault tolerance: a lost unit (worker crash, per-unit timeout, transient
error) is re-queued at the front of its owner's backlog on a rebuilt
pool up to ``retry_policy.max_attempts`` attempts, then degrades to
exact serial in-parent evaluation; :class:`~repro.errors.FatalError`
propagates at once.  An optional :class:`~repro.resilience.policy.Deadline`
clamps every recovery backoff and stops recovery at expiry with
:class:`~repro.errors.DeadlineExceededError`.  Every step lands on the
``resilience.*`` counters (``tests/resilience/test_parallel_recovery.py``).

Budget accounting stays in the parent: a
:class:`~repro.dse.evaluate.BudgetedEvaluator` wrapping the fabric
deduplicates and charges configurations *before* dispatch, so workers
only ever see configurations that are genuinely being paid for.
(Worker-side ``sim.*`` registry metrics accumulate in the worker
processes and are not merged back.)
"""

from __future__ import annotations

import copy
import hashlib
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor
from concurrent.futures import ProcessPoolExecutor, wait
from multiprocessing.context import BaseContext
from typing import Callable, Sequence

import numpy as np

from repro.dse.evaluate import batch_evaluate, canonical_key, is_feasible
from repro.errors import (
    DeadlineExceededError,
    DesignSpaceError,
    FatalError,
    ReproError,
    TransientError,
)
from repro.obs import get_registry, get_tracer
from repro.resilience.policy import Deadline, RetryPolicy, retry_call
from repro.sim.cache_store import (
    SHARD_COUNT,
    SHARD_PREFIX_LEN,
    SimCacheStore,
    shard_of_key,
)

__all__ = ["FabricEvaluator", "config_shard", "owner_of_shard",
           "owned_shards_of"]


def config_shard(evaluator, config: dict) -> int:
    """Deterministic shard index of a configuration under an evaluator.

    Prefers the evaluator's own content address (``cache_key_for``, the
    simulator path) so fabric ownership and disk-shard ownership agree.
    Evaluators without the hook fall back to hashing the canonical
    configuration key — just as deterministic, merely unrelated to any
    on-disk layout.
    """
    hook = getattr(evaluator, "cache_key_for", None)
    if hook is not None:
        return shard_of_key(hook(config))
    payload = repr(canonical_key(config)).encode()
    return int(hashlib.sha256(payload).hexdigest()[:SHARD_PREFIX_LEN], 16)


def owner_of_shard(shard: int, workers: int) -> int:
    """The worker slot owning a shard: contiguous ranges, load-balanced.

    Slot ``w`` owns shards ``[ceil(w*S/W), ceil((w+1)*S/W))`` — every
    shard has exactly one owner for any worker count.
    """
    return shard * workers // SHARD_COUNT


def owned_shards_of(slot: int, workers: int) -> "frozenset[int]":
    """The shard range a worker slot owns (inverse of
    :func:`owner_of_shard`)."""
    return frozenset(s for s in range(SHARD_COUNT)
                     if owner_of_shard(s, workers) == slot)


def _evaluate_unit(evaluator,
                   configs: list) -> "tuple[list[float], float, float]":
    """Worker-side unit of work: scalar-evaluate in order, then flush.

    Module-level so the pool can pickle it.  The trailing flush matters:
    slot evaluators carry a write-behind store whose buffer would die
    with the task otherwise.

    Returns ``(costs, t_start, exec_s)``: ``t_start`` is the worker's
    ``perf_counter`` reading when it picked the task up and ``exec_s``
    the pure evaluation time.  On Linux ``perf_counter`` is
    ``CLOCK_MONOTONIC`` — comparable across processes — which lets the
    parent split submit-to-result latency into queue-wait, execute and
    IPC components (clamped to zero where the clocks disagree).
    """
    t_start = time.perf_counter()
    costs = [float(evaluator.evaluate(c)) for c in configs]
    store = getattr(evaluator, "cache", None)
    flush = getattr(store, "flush", None)
    if flush is not None:
        flush()
    return costs, t_start, time.perf_counter() - t_start


class FabricEvaluator:
    """Shard-owned, work-stealing process-pool evaluator.

    Parameters
    ----------
    inner:
        The wrapped evaluator (pickled with each unit; must be picklable
        when ``workers > 1``).
    workers:
        Worker-slot count.  With one worker batches run inline (no pool,
        no shards — still bit-identical).
    unit_size:
        Configurations per pool task.  ``None`` picks
        ``ceil(len(batch) / (16 * workers))`` — small units keep steals
        meaningful.  ``1`` forces maximal stealing (the differential
        suite's adversarial leg).
    write_behind:
        Write-behind buffer size handed to each slot's scoped store
        (``0`` restores write-through in the workers).
    retry_policy:
        Governs unit resubmission after worker crashes, timeouts and
        transient errors (default
        :class:`~repro.resilience.policy.RetryPolicy`).
    chunk_timeout:
        Per-unit deadline in seconds; a unit that does not complete in
        time is lost (``resilience.chunk_timeouts``), the pool is killed
        and rebuilt — running tasks cannot be cancelled — and the unit
        is requeued.  ``None`` waits forever.
    sleep:
        Backoff hook between recovery rounds — injectable so tests run
        instantly while recording the deterministic schedule.
    deadline:
        Optional overall time budget (a job's, when the server runs
        sweeps): recovery backoffs are clamped to it and recovery stops
        at expiry with :class:`~repro.errors.DeadlineExceededError`
        instead of sleeping past it.
    mp_context:
        ``multiprocessing`` context the pool is built from (``None`` =
        the platform default).  A threaded parent such as the job
        server passes ``get_context("forkserver")``: forking a process
        that has other live threads can copy a held lock into the child.

    The pool is created lazily on the first parallel batch and reused
    until :meth:`close` (also a context manager).
    """

    def __init__(self, inner, *, workers: int = 1,
                 unit_size: "int | None" = None,
                 write_behind: int = 64,
                 retry_policy: "RetryPolicy | None" = None,
                 chunk_timeout: "float | None" = None,
                 sleep: Callable[[float], None] = time.sleep,
                 deadline: "Deadline | None" = None,
                 mp_context: "BaseContext | None" = None) -> None:
        if workers < 1:
            raise DesignSpaceError(f"workers must be >= 1, got {workers}")
        if unit_size is not None and unit_size < 1:
            raise DesignSpaceError(
                f"unit size must be >= 1, got {unit_size}")
        if write_behind < 0:
            raise DesignSpaceError(
                f"write_behind must be >= 0, got {write_behind}")
        if chunk_timeout is not None and chunk_timeout <= 0:
            raise DesignSpaceError(
                f"chunk timeout must be > 0 or None, got {chunk_timeout}")
        self.inner = inner
        self.workers = int(workers)
        self.unit_size = unit_size
        self.write_behind = int(write_behind)
        self.retry_policy = (retry_policy if retry_policy is not None
                             else RetryPolicy())
        self.chunk_timeout = chunk_timeout
        self.deadline = deadline
        self._sleep = sleep
        self._mp_context = mp_context
        self._pool: "ProcessPoolExecutor | None" = None
        self._slot_evaluators: dict = {}
        registry = get_registry()
        self._ctr_steals = registry.counter("dse.fabric.steals")
        self._ctr_units = registry.counter("dse.fabric.units")
        self._ctr_reconciled = registry.counter("dse.fabric.reconciled")
        self._ctr_timeouts = registry.counter("resilience.chunk_timeouts")
        self._ctr_crashes = registry.counter("resilience.worker_crashes")
        self._ctr_rebuilds = registry.counter("resilience.pool_rebuilds")
        self._ctr_serial = registry.counter("resilience.serial_fallbacks")
        self._ctr_retries = registry.counter("resilience.retries")

    # ---- evaluator protocol ----------------------------------------------

    def evaluate(self, config: dict) -> float:
        """Scalar pass-through (no pool round-trip for one point).

        Transient failures retry in-process under the evaluator's
        policy; fatal ones propagate.
        """
        return self._retry(lambda: float(self.inner.evaluate(config)),
                           "scalar evaluation")

    def is_feasible(self, config: dict) -> bool:
        """Delegates to the wrapped evaluator's design-rule check."""
        return is_feasible(self.inner, config)

    def evaluate_batch(self, configs: Sequence[dict]) -> np.ndarray:
        """Costs of ``configs`` in input order, fabric-scheduled."""
        configs = list(configs)
        if not configs:
            return np.empty(0, dtype=float)
        if self.workers == 1:
            return self._retry(lambda: batch_evaluate(self.inner, configs),
                               "inline fabric batch")
        shards = [config_shard(self.inner, c) for c in configs]
        return self._run_fabric(configs, shards)

    def _retry(self, fn, what: str):
        """In-parent call with transient-failure retries."""
        return retry_call(fn, policy=self.retry_policy, sleep=self._sleep,
                          deadline=self.deadline, what=what)

    # ---- scheduling core --------------------------------------------------

    def _run_fabric(self, configs: list, shards: "list[int]") -> np.ndarray:
        policy = self.retry_policy
        tracer = get_tracer()
        n = len(configs)
        out = np.empty(n, dtype=float)
        unit = self.unit_size
        if unit is None:
            unit = max(1, -(-n // (16 * self.workers)))
        backlogs: "list[deque[int]]" = [deque() for _ in range(self.workers)]
        for i, shard in enumerate(shards):
            backlogs[owner_of_shard(shard, self.workers)].append(i)
        attempts = [0] * n
        serial_queue: "list[int]" = []
        executed: "list[tuple[int, list[int]]]" = []
        free = set(range(self.workers))
        inflight: dict = {}
        t_done: dict = {}
        round_no = 0
        pool = self._ensure_pool()
        while True:
            for slot in sorted(free):
                indices = self._next_unit(slot, backlogs, unit, tracer)
                if not indices:
                    continue
                t_submit = time.perf_counter()
                fut = pool.submit(_evaluate_unit, self._slot_evaluator(slot),
                                  [configs[i] for i in indices])
                fut.add_done_callback(
                    lambda f: t_done.setdefault(f, time.perf_counter()))
                inflight[fut] = (slot, indices, t_submit)
                free.discard(slot)
                self._ctr_units.inc()
            if not inflight:
                break
            done, _pending = wait(list(inflight),
                                  timeout=self._wait_timeout(inflight),
                                  return_when=FIRST_COMPLETED)
            lost: "list[list[int]]" = []
            need_rebuild = False
            for fut in self._timed_out(inflight, done):
                slot, indices, _t_submit = inflight.pop(fut)
                free.add(slot)
                self._ctr_timeouts.inc()
                tracer.event("resilience.chunk_lost", chunk=slot,
                             reason="timeout")
                lost.append(indices)
                need_rebuild = True
            for fut in done:
                slot, indices, t_submit = inflight.pop(fut)
                free.add(slot)
                try:
                    costs, t_start, exec_s = fut.result()
                except BrokenExecutor:
                    self._ctr_crashes.inc()
                    tracer.event("resilience.chunk_lost", chunk=slot,
                                 reason="crash")
                    lost.append(indices)
                    need_rebuild = True
                    continue
                except TransientError:
                    tracer.event("resilience.chunk_lost", chunk=slot,
                                 reason="transient")
                    lost.append(indices)
                    continue
                except FatalError:
                    raise
                for i, cost in zip(indices, costs):
                    out[i] = cost
                executed.append((slot, indices))
                self._record_unit_timing(slot, len(indices), t_submit,
                                         t_done.get(fut), t_start, exec_s)
            if need_rebuild:
                self._teardown_pool(kill=True)
                self._ctr_rebuilds.inc()
                pool = self._ensure_pool()
                # Units still in flight died with the old pool: requeue
                # them too, charged an attempt collaterally (the bound
                # still holds because the fallback is exact serial
                # evaluation).
                for slot, indices, _t_submit in inflight.values():
                    free.add(slot)
                    lost.append(indices)
                inflight.clear()
            if lost:
                round_no += 1
                requeued = 0
                for indices in lost:
                    for i in indices:
                        attempts[i] += 1
                    retry_idx = [i for i in indices
                                 if attempts[i] < policy.max_attempts]
                    serial_queue.extend(
                        i for i in indices
                        if attempts[i] >= policy.max_attempts)
                    # Lost work goes back to the FRONT of its owner's
                    # backlog (reversed extendleft preserves order), so
                    # recovery never reorders evaluation within a shard.
                    for i in reversed(retry_idx):
                        backlogs[owner_of_shard(
                            shards[i], self.workers)].appendleft(i)
                    requeued += len(retry_idx)
                if requeued:
                    self._ctr_retries.inc()
                    self._backoff(round_no, requeued, tracer)
        if serial_queue:
            order = sorted(set(serial_queue))
            self._ctr_serial.inc()
            tracer.event("resilience.serial_fallback", chunk=-1,
                         attempts=policy.max_attempts)
            costs = self._retry(
                lambda: batch_evaluate(self.inner,
                                       [configs[i] for i in order]),
                "fabric serial fallback")
            for i, cost in zip(order, costs):
                out[i] = cost
        self._reconcile(configs, shards, executed, out)
        return out

    def _wait_timeout(self, inflight: dict) -> "float | None":
        """Seconds until the oldest in-flight unit's ``chunk_timeout``."""
        if self.chunk_timeout is None:
            return None
        oldest = min(t_submit for _slot, _indices, t_submit
                     in inflight.values())
        return max(0.0, oldest + self.chunk_timeout - time.perf_counter())

    def _timed_out(self, inflight: dict, done) -> list:
        """In-flight units past ``chunk_timeout`` that have not landed."""
        if self.chunk_timeout is None:
            return []
        now = time.perf_counter()
        return [fut for fut, (_slot, _indices, t_submit) in inflight.items()
                if fut not in done and not fut.done()
                and now - t_submit >= self.chunk_timeout]

    def _backoff(self, round_no: int, requeued: int, tracer) -> None:
        """Sleep before recovery round ``round_no + 1``, within the
        deadline: the delay is clamped to the time left, and an expired
        deadline stops the workers and raises instead of sleeping."""
        delay = self.retry_policy.delay(round_no)
        if self.deadline is not None:
            if self.deadline.expired:
                self._teardown_pool(kill=True)
                timeout_s = self.deadline.timeout_s
                raise DeadlineExceededError(
                    f"job deadline expired with {requeued} configuration(s) "
                    "still recovering",
                    timeout_s=timeout_s if timeout_s is not None
                    else float("nan"))
            remaining = self.deadline.remaining()
            if remaining is not None:
                delay = min(delay, remaining)
        with tracer.span("resilience.backoff", round=round_no,
                         chunks=requeued):
            self._sleep(delay)

    def _next_unit(self, slot: int, backlogs: "list[deque[int]]",
                   unit: int, tracer) -> "list[int]":
        """Pop the next unit for a slot, stealing first when idle.

        Stealing takes the *tail* half of the largest backlog (ties →
        lowest victim slot), so the victim keeps draining its head in
        input order while the thief works the far end.
        """
        own = backlogs[slot]
        if not own:
            victim = -1
            largest = 0
            for v, backlog in enumerate(backlogs):
                if v != slot and len(backlog) > largest:
                    largest = len(backlog)
                    victim = v
            if victim >= 0:
                move = max(1, largest // 2)
                stolen = [backlogs[victim].pop() for _ in range(move)]
                stolen.reverse()
                own.extend(stolen)
                self._ctr_steals.inc()
                tracer.event("dse.fabric.steal", thief=slot, victim=victim,
                             moved=move)
        take = min(unit, len(own))
        return [own.popleft() for _ in range(take)]

    def _slot_evaluator(self, slot: int):
        """The inner evaluator as shipped to one worker slot.

        When the inner evaluator carries a
        :class:`~repro.sim.cache_store.SimCacheStore`, the slot gets a
        shallow copy whose store is scoped to the slot's owned shards
        with write-behind buffering — the tiered cache's single-writer
        discipline.  Other evaluators ship as-is.
        """
        cached = self._slot_evaluators.get(slot)
        if cached is not None:
            return cached
        evaluator = self.inner
        store = getattr(evaluator, "cache", None)
        if isinstance(store, SimCacheStore):
            evaluator = copy.copy(evaluator)
            evaluator.cache = store.scoped(
                owned_shards=owned_shards_of(slot, self.workers),
                write_behind=self.write_behind)
            # tag the view with its slot so a sanitizer finding
            # (C2BOUND_SANITIZE=1) names the offending worker
            evaluator.cache.sanitize_slot = slot
        self._slot_evaluators[slot] = evaluator
        return evaluator

    def _reconcile(self, configs: list, shards: "list[int]",
                   executed: "list[tuple[int, list[int]]]",
                   out: np.ndarray) -> None:
        """Persist stolen-work results the executing slot could not.

        A thief's scoped store refuses disk writes outside its owned
        shards (``sim.cache.shard_denied``), so the cost came back to
        the parent unpersisted.  The parent re-puts it here — after
        reassembly, off every worker's critical path — as the owner of
        last resort (atomic + idempotent, so a concurrent future owner
        write is harmless).
        """
        store = getattr(self.inner, "cache", None)
        key_for = getattr(self.inner, "cache_key_for", None)
        if not isinstance(store, SimCacheStore) or key_for is None:
            return
        provenance_hook = getattr(self.inner, "cache_provenance", None)
        provenance = provenance_hook() if provenance_hook is not None else {}
        reconciled = 0
        for slot, indices in executed:
            owned = owned_shards_of(slot, self.workers)
            for i in indices:
                if shards[i] not in owned and np.isfinite(out[i]):
                    store.put(key_for(configs[i]), float(out[i]),
                              **provenance)
                    reconciled += 1
        if reconciled:
            self._ctr_reconciled.inc(reconciled)

    def _record_unit_timing(self, slot: int, size: int, t_submit: float,
                            t_done: "float | None", t_start: float,
                            exec_s: float) -> None:
        """Attribute one completed unit's latency to three spans.

        ``dse.chunk.queue_wait`` (submit to worker pick-up),
        ``dse.chunk.execute`` (worker-side evaluation) and
        ``dse.chunk.ipc`` (the remainder of submit-to-result: task and
        result pickling plus result-queue transit), each tagged with the
        executing slot as ``chunk``.  All three are parented under the
        live ``dse.batch`` span; no-ops while tracing is disabled.
        """
        tracer = get_tracer()
        if not tracer.enabled:
            return
        queue_wait = max(0.0, t_start - t_submit)
        exec_s = max(0.0, exec_s)
        tracer.record_span("dse.chunk.queue_wait", queue_wait,
                           chunk=slot, size=size)
        tracer.record_span("dse.chunk.execute", exec_s,
                           chunk=slot, size=size)
        if t_done is not None:
            ipc = max(0.0, (t_done - t_submit) - queue_wait - exec_s)
            tracer.record_span("dse.chunk.ipc", ipc,
                               chunk=slot, size=size)

    # ---- pool lifecycle ---------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers,
                                             mp_context=self._mp_context)
        return self._pool

    def _teardown_pool(self, *, kill: bool = False) -> None:
        """Shut the current pool down, hard-stopping workers if asked.

        ``ProcessPoolExecutor`` cannot cancel a running task, so after a
        timeout the only way to reclaim the worker is to terminate it;
        ``shutdown`` then reaps processes and queue threads so nothing
        leaks across rebuilds.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        if kill:
            procs = getattr(pool, "_processes", None) or {}
            for proc in list(procs.values()):
                if proc.is_alive():
                    proc.terminate()
        try:
            pool.shutdown(wait=True, cancel_futures=True)
        except (OSError, RuntimeError):
            # A pool whose workers died mid-shutdown can raise while
            # reaping; the processes are gone either way.
            pass

    def close(self) -> None:
        """Shut the pool down and flush the inner evaluator's cache
        buffer (idempotent, broken-pool safe) — a graceful stop must
        not strand write-behind entries in memory."""
        self._teardown_pool()
        store = getattr(self.inner, "cache", None)
        flush = getattr(store, "flush", None)
        if flush is not None:
            flush()

    def __enter__(self) -> "FabricEvaluator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC-time best effort
        try:
            self.close()
        except (ReproError, OSError, RuntimeError):
            # Interpreter teardown: modules may be half-gone; anything
            # else (e.g. KeyboardInterrupt) should surface.
            pass
