"""Differential wall around the sweep fabric: scheduling changes wall
time only.

The fabric's contract mirrors the batch engine's: for any worker count,
steal schedule, unit size, or crash/recovery sequence, costs come back
bit-identical to a sequential loop, and budget accounting on a wrapping
:class:`~repro.dse.evaluate.BudgetedEvaluator` is exactly-once.  These
tests pin every leg — workers=1 ≡ workers=4 ≡ forced-steal ≡
crash-recovery ≡ journaled kill-and-resume — including
``dse.evaluations``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.params import ApplicationProfile, MachineParameters
from repro.dse import BudgetedEvaluator, SurrogateEvaluator, batch_evaluate
from repro.dse.evaluate import SimulatorEvaluator, canonical_key
from repro.dse.fabric import (
    FabricEvaluator,
    config_shard,
    owned_shards_of,
    owner_of_shard,
)
from repro.errors import FatalError
from repro.laws.gfunction import PowerLawG
from repro.obs import MetricsRegistry, set_registry
from repro.resilience import (
    Fault,
    FaultPlan,
    FaultyEvaluator,
    RetryPolicy,
    config_token,
    load_journal,
)
from repro.sim.cache_store import SHARD_COUNT, SimCacheStore, shard_of_key

NO_JITTER = RetryPolicy(max_attempts=3, base_delay=0.01, jitter=0.0)


@pytest.fixture(autouse=True)
def fresh_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)


@pytest.fixture
def surrogate() -> SurrogateEvaluator:
    app = ApplicationProfile(f_seq=0.02, f_mem=0.35, concurrency=4.0,
                             g=PowerLawG(1.0))
    machine = MachineParameters(total_area=400.0, shared_area=40.0)
    return SurrogateEvaluator(app, machine)


@pytest.fixture
def sweep(random_space_factory, random_config_batch_factory) -> list:
    space = random_space_factory(11)
    return random_config_batch_factory(space, 11, size=48)


class TestShardMath:
    def test_owner_partition_is_exact(self):
        for workers in (1, 2, 3, 4, 5, 7, 8, 16):
            seen: dict[int, int] = {}
            for slot in range(workers):
                for shard in owned_shards_of(slot, workers):
                    assert shard not in seen
                    seen[shard] = slot
            assert len(seen) == SHARD_COUNT
            # Inverse relation holds shard by shard.
            for shard, slot in seen.items():
                assert owner_of_shard(shard, workers) == slot

    def test_owner_ranges_are_contiguous(self):
        for workers in (2, 3, 4, 7):
            owners = [owner_of_shard(s, workers) for s in range(SHARD_COUNT)]
            assert owners == sorted(owners)

    def test_config_shard_deterministic_and_in_range(self, surrogate, sweep):
        shards = [config_shard(surrogate, c) for c in sweep]
        assert shards == [config_shard(surrogate, c) for c in sweep]
        assert all(0 <= s < SHARD_COUNT for s in shards)

    def test_config_shard_prefers_cache_key_hook(self):
        class Keyed:
            def cache_key_for(self, config):
                return "ab" + "0" * 62

            def evaluate(self, config):
                return 0.0

        assert config_shard(Keyed(), {"x": 1}) == shard_of_key("ab")
        assert config_shard(Keyed(), {"x": 1}) == 0xAB


class TestFabricEquivalence:
    """Every scheduling of the fabric returns identical costs."""

    def test_all_legs_bit_identical(self, surrogate, sweep, fresh_registry):
        want = batch_evaluate(surrogate, sweep)
        legs = {
            "inline": dict(workers=1),
            "fanned": dict(workers=4),
            "forced-steal": dict(workers=4, unit_size=1),
        }
        for name, kwargs in legs.items():
            fresh_registry.reset()
            with FabricEvaluator(surrogate, **kwargs) as fabric:
                got = fabric.evaluate_batch(sweep)
            assert np.array_equal(got, want), name
            steals = fresh_registry.snapshot()["counters"].get(
                "dse.fabric.steals", 0)
            if name == "forced-steal":
                assert steals > 0
            if name == "inline":
                assert steals == 0

    def test_budget_accounting_identical_under_fabric(self, surrogate,
                                                      sweep):
        results = {}
        for workers in (1, 4):
            with FabricEvaluator(surrogate, workers=workers,
                                 unit_size=3) as fabric:
                budget = BudgetedEvaluator(fabric)
                costs = budget.evaluate_batch(sweep + sweep[:5])
                results[workers] = (costs, budget.evaluations,
                                    budget.evaluations_cached)
        costs1, fresh1, cached1 = results[1]
        costs4, fresh4, cached4 = results[4]
        assert np.array_equal(costs1, costs4)
        assert fresh1 == fresh4
        assert cached1 == cached4

    def test_scalar_passthrough_and_empty_batch(self, surrogate, sweep):
        with FabricEvaluator(surrogate, workers=4) as fabric:
            assert fabric.evaluate(sweep[0]) == float(
                surrogate.evaluate(sweep[0]))
            assert fabric.evaluate_batch([]).shape == (0,)
            assert fabric.is_feasible(sweep[0]) in (True, False)


class TestFabricRecovery:
    def _plan(self, tmp_path, *faults) -> FaultPlan:
        return FaultPlan(seed=5, state_dir=str(tmp_path / "fuse"),
                         faults=tuple(faults))

    def test_worker_crash_mid_sweep_is_bit_identical(
            self, tmp_path, surrogate, sweep, fresh_registry):
        want = batch_evaluate(surrogate, sweep)
        victim = sweep[17]
        plan = self._plan(tmp_path, Fault(kind="crash",
                                          token=config_token(victim),
                                          worker_only=True))
        fabric = FabricEvaluator(FaultyEvaluator(surrogate, plan),
                                 workers=2, unit_size=4,
                                 retry_policy=NO_JITTER,
                                 sleep=lambda s: None)
        budget = BudgetedEvaluator(fabric)
        try:
            got = budget.evaluate_batch(sweep)
        finally:
            fabric.close()
        assert (got == want).all()
        distinct = len({canonical_key(c) for c in sweep})
        assert budget.evaluations == distinct
        counters = fresh_registry.snapshot()["counters"]
        assert counters["dse.evaluations"] == distinct
        assert counters["resilience.worker_crashes"] >= 1
        assert counters["resilience.pool_rebuilds"] >= 1

    def test_persistent_crasher_degrades_to_serial(
            self, tmp_path, surrogate, sweep, fresh_registry):
        want = batch_evaluate(surrogate, sweep)
        victim = sweep[9]
        plan = self._plan(tmp_path, Fault(kind="crash",
                                          token=config_token(victim),
                                          times=None, worker_only=True))
        policy = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)
        fabric = FabricEvaluator(FaultyEvaluator(surrogate, plan),
                                 workers=2, unit_size=4,
                                 retry_policy=policy, sleep=lambda s: None)
        try:
            got = fabric.evaluate_batch(sweep)
        finally:
            fabric.close()
        assert (got == want).all()
        counters = fresh_registry.snapshot()["counters"]
        assert counters["resilience.serial_fallbacks"] >= 1
        assert counters["resilience.worker_crashes"] >= 2

    def test_fatal_fault_propagates(self, tmp_path, surrogate, sweep):
        plan = self._plan(tmp_path, Fault(kind="fatal",
                                          token=config_token(sweep[0])))
        fabric = FabricEvaluator(FaultyEvaluator(surrogate, plan),
                                 workers=2, unit_size=4,
                                 retry_policy=NO_JITTER,
                                 sleep=lambda s: None)
        try:
            with pytest.raises(FatalError):
                fabric.evaluate_batch(sweep)
        finally:
            fabric.close()


class TestFabricTieredCache:
    """Shard ownership + reconcile leave the disk tier complete."""

    @pytest.fixture
    def sim_setup(self, tmp_path):
        from repro.workloads import parsec_like
        workload = parsec_like("blackscholes", n_ops=300)
        store = SimCacheStore(tmp_path / "sim-cache")
        evaluator = SimulatorEvaluator(workload, seed=3, cache=store)
        configs = [{"n": n, "issue_width": iw, "rob_size": 32,
                    "l1_kib": 16.0, "l2_kib": 128.0}
                   for n in (1, 2) for iw in (2, 4)]
        return evaluator, store, configs

    def test_cold_sweep_persists_every_shard(self, sim_setup,
                                             fresh_registry):
        evaluator, store, configs = sim_setup
        with FabricEvaluator(evaluator, workers=2, unit_size=1,
                             write_behind=2) as fabric:
            cold = fabric.evaluate_batch(configs)
        # Every result reached the disk tier — owners directly, stolen
        # shards through the parent reconcile.
        for config in configs:
            key = evaluator.cache_key_for(config)
            assert store.get(key) is not None

        # A warm rerun answers entirely from the store: zero sim runs.
        fresh_registry.reset()
        with FabricEvaluator(evaluator, workers=1) as fabric:
            warm = fabric.evaluate_batch(configs)
        assert np.array_equal(warm, cold)
        counters = fresh_registry.snapshot()["counters"]
        assert counters.get("sim.runs", 0) == 0

    def test_matches_inline_simulation(self, sim_setup):
        evaluator, _store, configs = sim_setup
        want = np.array([evaluator.evaluate(c) for c in configs])
        with FabricEvaluator(evaluator, workers=2, unit_size=1) as fabric:
            got = fabric.evaluate_batch(configs)
        assert np.array_equal(got, want)


class TestLedgerResume:
    """Kill-and-resume through a checkpoint journal is exactly-once."""

    def test_interrupted_sweep_resumes_bit_identically(
            self, tmp_path, surrogate, sweep, fresh_registry):
        distinct = len({canonical_key(c) for c in sweep})
        want = batch_evaluate(surrogate, sweep)

        # Uninterrupted reference run, fabric + journal.
        with FabricEvaluator(surrogate, workers=2, unit_size=4) as fabric:
            budget = BudgetedEvaluator(fabric, method="aps",
                                       checkpoint=tmp_path / "ref.jsonl")
            ref_costs = budget.evaluate_batch(sweep)
            ref_evals = budget.evaluations
            budget.close()
        assert np.array_equal(ref_costs, want)
        assert ref_evals == distinct

        # Interrupted run: first half only, then the process "dies".
        ledger = tmp_path / "ledger.jsonl"
        half = sweep[:len(sweep) // 2]
        with FabricEvaluator(surrogate, workers=2, unit_size=4) as fabric:
            budget = BudgetedEvaluator(fabric, method="aps",
                                       checkpoint=ledger)
            budget.evaluate_batch(half)
            budget.close()
        assert load_journal(ledger)[1]  # the half actually journaled

        # Resume: restore the journal, replay the whole sweep.
        fresh_registry.reset()
        with FabricEvaluator(surrogate, workers=2, unit_size=1) as fabric:
            budget = BudgetedEvaluator(fabric, method="aps",
                                       checkpoint=ledger, resume=True)
            got = budget.evaluate_batch(sweep)
            # Budget counters end exactly where the uninterrupted run's
            # did — replayed charges count as the fresh charges they
            # were, nothing double-charged.
            assert budget.evaluations == ref_evals
            assert np.array_equal(got, want)
            budget.close()
        counters = fresh_registry.snapshot()["counters"]
        assert counters["dse.evaluations"] == ref_evals

        # The journal holds each charged key exactly once.
        keys = [k for k, _ in load_journal(ledger)[1]]
        assert len(keys) == len(set(keys)) == distinct
