"""The pooled executor under injected faults: recovery must be invisible.

:class:`~repro.dse.fabric.FabricEvaluator` is the one process-pool
evaluator.  A sweep that loses workers, times out units, or sees
transient failures must hand back results bit-identical to a fault-free
run, with exactly-once budget charging on the wrapping
``BudgetedEvaluator``; a job deadline must stop recovery instead of
sleeping past it.
"""

from __future__ import annotations

import pytest

from repro.dse.evaluate import BudgetedEvaluator, batch_evaluate
from repro.dse.fabric import FabricEvaluator
from repro.errors import DeadlineExceededError, FatalError
from repro.resilience import (
    Deadline,
    Fault,
    FaultPlan,
    FaultyEvaluator,
    RetryPolicy,
    config_token,
)

NO_JITTER = RetryPolicy(max_attempts=3, base_delay=0.01, jitter=0.0)


@pytest.fixture
def sweep(configs):
    """A deterministic 48-point sweep: several units per slot."""
    return configs[:48]


def _plan(tmp_path, *faults) -> FaultPlan:
    return FaultPlan(seed=5, state_dir=str(tmp_path / "fuse"),
                     faults=tuple(faults))


def _fabric(inner, **kwargs) -> FabricEvaluator:
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("unit_size", 8)
    kwargs.setdefault("retry_policy", NO_JITTER)
    kwargs.setdefault("sleep", lambda s: None)
    return FabricEvaluator(inner, **kwargs)


class TestWorkerCrashRecovery:
    def test_broken_pool_mid_sweep_is_bit_identical(
            self, tmp_path, surrogate, sweep, fresh_registry):
        want = batch_evaluate(surrogate, sweep)
        victim = sweep[17]
        plan = _plan(tmp_path, Fault(kind="crash",
                                     token=config_token(victim),
                                     worker_only=True))
        parallel = _fabric(FaultyEvaluator(surrogate, plan))
        budget = BudgetedEvaluator(parallel)
        try:
            got = budget.evaluate_batch(sweep)
        finally:
            parallel.close()
        assert (got == want).all()
        # Exactly-once: every point charged once, none lost or doubled.
        assert budget.evaluations == len(sweep)
        assert budget.evaluations_cached == 0
        counters = fresh_registry.snapshot()["counters"]
        assert counters["dse.evaluations"] == len(sweep)
        assert counters["resilience.worker_crashes"] >= 1
        assert counters["resilience.pool_rebuilds"] >= 1

    def test_persistent_crasher_degrades_to_serial(
            self, tmp_path, surrogate, sweep, fresh_registry):
        want = batch_evaluate(surrogate, sweep)
        victim = sweep[9]
        # times=None: the unit can never survive a pool attempt.
        plan = _plan(tmp_path, Fault(kind="crash",
                                     token=config_token(victim),
                                     times=None, worker_only=True))
        policy = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)
        parallel = _fabric(FaultyEvaluator(surrogate, plan),
                           retry_policy=policy)
        try:
            got = parallel.evaluate_batch(sweep)
        finally:
            parallel.close()
        assert (got == want).all()
        counters = fresh_registry.snapshot()["counters"]
        assert counters["resilience.serial_fallbacks"] >= 1
        assert counters["resilience.worker_crashes"] >= 2

    def test_close_survives_a_broken_pool(self, tmp_path, surrogate,
                                          sweep):
        parallel = _fabric(surrogate)
        parallel.evaluate_batch(sweep)   # spin the pool up
        pool = parallel._pool
        assert pool is not None
        for proc in pool._processes.values():
            proc.terminate()
        parallel.close()                 # must not raise
        parallel.close()                 # idempotent


class TestTransientAndTimeout:
    def test_transient_chunk_retried_without_rebuild(
            self, tmp_path, surrogate, sweep, fresh_registry):
        want = batch_evaluate(surrogate, sweep)
        victim = sweep[5]
        plan = _plan(tmp_path, Fault(kind="transient",
                                     token=config_token(victim), times=2))
        sleeps: list[float] = []
        parallel = _fabric(FaultyEvaluator(surrogate, plan),
                           sleep=sleeps.append)
        try:
            got = parallel.evaluate_batch(sweep)
        finally:
            parallel.close()
        assert (got == want).all()
        counters = fresh_registry.snapshot()["counters"]
        assert counters["resilience.retries"] == 2
        assert counters.get("resilience.pool_rebuilds", 0) == 0
        # Backoff follows the policy's deterministic schedule.
        assert sleeps == [NO_JITTER.delay(1), NO_JITTER.delay(2)]

    def test_chunk_timeout_recovers(self, tmp_path, surrogate, sweep,
                                    fresh_registry):
        want = batch_evaluate(surrogate, sweep)
        victim = sweep[3]
        plan = _plan(tmp_path, Fault(kind="delay",
                                     token=config_token(victim),
                                     delay_s=30.0))
        parallel = _fabric(FaultyEvaluator(surrogate, plan),
                           chunk_timeout=1.0)
        try:
            got = parallel.evaluate_batch(sweep)
        finally:
            parallel.close()
        assert (got == want).all()
        counters = fresh_registry.snapshot()["counters"]
        assert counters["resilience.chunk_timeouts"] >= 1
        assert counters["resilience.pool_rebuilds"] >= 1

    def test_fatal_fault_propagates(self, tmp_path, surrogate, sweep):
        plan = _plan(tmp_path, Fault(kind="fatal",
                                     token=config_token(sweep[0])))
        parallel = _fabric(FaultyEvaluator(surrogate, plan))
        try:
            with pytest.raises(FatalError):
                parallel.evaluate_batch(sweep)
        finally:
            parallel.close()


class TestDeadline:
    """Recovery never outlives the job's time budget (injected clock)."""

    def test_expired_deadline_raises_instead_of_sleeping(
            self, tmp_path, surrogate, sweep):
        now = [0.0]
        deadline = Deadline(5.0, clock=lambda: now[0])
        plan = _plan(tmp_path, Fault(kind="transient",
                                     token=config_token(sweep[5])))
        sleeps: list[float] = []
        parallel = _fabric(FaultyEvaluator(surrogate, plan),
                           sleep=sleeps.append, deadline=deadline)
        now[0] = 6.0    # the budget runs out before recovery starts
        try:
            with pytest.raises(DeadlineExceededError):
                parallel.evaluate_batch(sweep)
        finally:
            parallel.close()
        assert sleeps == []

    def test_backoff_clamped_to_remaining_budget(
            self, tmp_path, surrogate, sweep):
        want = batch_evaluate(surrogate, sweep)
        now = [0.0]
        deadline = Deadline(1.0, clock=lambda: now[0])
        plan = _plan(tmp_path, Fault(kind="transient",
                                     token=config_token(sweep[5])))
        sleeps: list[float] = []

        def sleep(seconds: float) -> None:
            sleeps.append(seconds)
            now[0] += seconds

        policy = RetryPolicy(max_attempts=3, base_delay=0.5, jitter=0.0)
        parallel = _fabric(FaultyEvaluator(surrogate, plan),
                           retry_policy=policy, sleep=sleep,
                           deadline=deadline)
        now[0] = 0.75   # 0.25 s left, less than the 0.5 s backoff
        try:
            got = parallel.evaluate_batch(sweep)
        finally:
            parallel.close()
        assert (got == want).all()
        assert sleeps == [pytest.approx(0.25)]


class TestSerialPaths:
    def test_workers_1_batch_retries_inline(self, tmp_path, surrogate,
                                            sweep, fresh_registry):
        want = batch_evaluate(surrogate, sweep[:8])
        plan = _plan(tmp_path, Fault(kind="transient",
                                     token=config_token(sweep[2])))
        sleeps: list[float] = []
        parallel = _fabric(FaultyEvaluator(surrogate, plan), workers=1,
                           sleep=sleeps.append)
        got = parallel.evaluate_batch(sweep[:8])
        parallel.close()
        assert (got == want).all()
        assert sleeps == [NO_JITTER.delay(1)]
        assert fresh_registry.snapshot()["counters"][
            "resilience.retries"] == 1

    def test_scalar_evaluate_retries(self, tmp_path, surrogate, sweep):
        config = sweep[0]
        plan = _plan(tmp_path, Fault(kind="transient",
                                     token=config_token(config)))
        parallel = _fabric(FaultyEvaluator(surrogate, plan), workers=1)
        assert parallel.evaluate(config) == float(
            surrogate.evaluate(config))
        parallel.close()
