"""Perf-smoke: the sweep fabric and the tiered cache earn their keep.

Two claims, two benchmarks:

1. **Straggler sweep** — a 256-point space whose first 16 points are
   ~40 ms stragglers (all hashing to shard 0, so fixed chunking *and*
   shard ownership both hand them to one worker).  A fixed-chunk
   reference (:func:`_fixed_chunk_sweep`: ``ProcessPoolExecutor.map``
   over ``ceil(n / (4 * workers))``-point chunks) serializes the slow
   block on a single worker; the work-stealing fabric
   (:class:`~repro.dse.fabric.FabricEvaluator`) spreads it across all
   four.  Both must return bit-identical costs and the fabric must be
   at least 1.5× faster (typically ~2.5-3×; the floor absorbs CI
   jitter) with at least one recorded steal.

2. **Cache front vs disk** — warm :meth:`SimCacheStore.get` hits served
   by the in-memory LRU front must be at least 5× faster per call than
   the same keys read through the disk tier (typically 20-60×: a dict
   lookup vs open+read+parse).  Both tiers must return bit-identical
   costs.

Wall times, speedups and steal counts fold into the harness records,
``results/BENCH_test_fabric_sweep_speedup.json`` and
``results/BENCH_test_cache_front_speedup.json``.
"""

from __future__ import annotations

import hashlib
import time
from concurrent.futures import ProcessPoolExecutor
from itertools import repeat

import numpy as np
from conftest import run_once, update_bench_record

from repro.dse.batch import chunked
from repro.dse.fabric import FabricEvaluator
from repro.obs import get_registry
from repro.sim.cache_store import SHARD_PREFIX_LEN, SimCacheStore

MIN_FABRIC_SPEEDUP = 1.5
MIN_FRONT_SPEEDUP = 5.0

WORKERS = 4
N_SLOW = 16
N_FAST = 240
SLOW_S = 0.04


class StragglerSurrogate:
    """Pure function of the config with a deliberately skewed profile.

    The ``slow`` points burn a fixed sleep (a stand-in for an expensive
    simulation) and all hash to shard 0 via :meth:`cache_key_for`, so
    the fabric assigns every one of them to worker slot 0 — the
    adversarial case work-stealing exists for.  Fast points spread over
    shards 64-255 (slots 1-3).  Costs are arithmetic in the config, so
    every scheduling of the batch is bit-identical.
    """

    def evaluate(self, config: dict) -> float:
        if config["slow"]:
            time.sleep(SLOW_S)
        return 0.5 * config["idx"] + (100.0 if config["slow"] else 0.0)

    def cache_key_for(self, config: dict) -> str:
        shard = 0 if config["slow"] else 64 + (7 * config["idx"]) % 192
        digest = hashlib.sha256(
            f"straggler-{config['idx']}".encode()).hexdigest()
        return f"{shard:02x}" + digest[SHARD_PREFIX_LEN:]


def _evaluate_chunk(evaluator, configs: "list[dict]") -> "list[float]":
    return [float(evaluator.evaluate(c)) for c in configs]


def _fixed_chunk_sweep(pool: ProcessPoolExecutor, evaluator,
                       configs: "list[dict]") -> np.ndarray:
    """The fixed-chunking reference: ordered ``ceil(n / (4 * workers))``
    -point chunks, one pool task each, no stealing."""
    size = -(-len(configs) // (4 * WORKERS))
    chunks = list(chunked(configs, size))
    parts = pool.map(_evaluate_chunk, repeat(evaluator), chunks)
    return np.array([cost for part in parts for cost in part])


def _straggler_space() -> "list[dict]":
    """Slow block first, exactly one fixed chunk wide.

    With 256 points and 4 workers the reference chunking is
    ``ceil(256 / 16) = 16`` — the slow block fills chunk 0 end to end,
    so one worker eats every straggler while the rest go idle.
    """
    configs = [{"idx": i, "slow": True} for i in range(N_SLOW)]
    configs += [{"idx": N_SLOW + i, "slow": False} for i in range(N_FAST)]
    return configs


def test_fabric_sweep_speedup(benchmark, results_dir):
    configs = _straggler_space()
    surrogate = StragglerSurrogate()
    expected = np.array([0.5 * c["idx"] + (100.0 if c["slow"] else 0.0)
                         for c in configs])
    warmup = [{"idx": 10_000 + i, "slow": False} for i in range(2 * WORKERS)]

    with ProcessPoolExecutor(max_workers=WORKERS) as pool, \
            FabricEvaluator(surrogate, workers=WORKERS,
                            unit_size=2) as fabric:
        # Spawn both pools before any timing window opens.
        _fixed_chunk_sweep(pool, surrogate, warmup)
        fabric.evaluate_batch(warmup)

        # Best-of-N per leg, same rationale as the sim-hotpath bench: a
        # load burst on one short window must not fail (or pass) the
        # comparison on its own.
        pool_s = fabric_s = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            pool_costs = _fixed_chunk_sweep(pool, surrogate, configs)
            pool_s = min(pool_s, time.perf_counter() - t0)

            t0 = time.perf_counter()
            fabric_costs = fabric.evaluate_batch(configs)
            fabric_s = min(fabric_s, time.perf_counter() - t0)
            if pool_s / fabric_s >= MIN_FABRIC_SPEEDUP:
                break

        # One more fabric pass under the harness for the canonical
        # metrics record (steal counters land in its snapshot).
        harness_costs = run_once(benchmark, fabric.evaluate_batch, configs)

    steals = get_registry().counter("dse.fabric.steals").value
    assert steals > 0, "straggler shard was never stolen from"

    # Scheduling changes wall time only — every leg is bit-identical.
    assert np.array_equal(pool_costs, expected)
    assert np.array_equal(fabric_costs, expected)
    assert np.array_equal(np.asarray(harness_costs), expected)

    speedup = pool_s / fabric_s
    path = update_bench_record(
        benchmark.name,
        n_configs=len(configs),
        n_slow=N_SLOW,
        slow_s=SLOW_S,
        workers=WORKERS,
        pool_s=pool_s,
        fabric_s=fabric_s,
        speedup=speedup,
        min_speedup=MIN_FABRIC_SPEEDUP,
        steals=steals,
    )
    print(f"\npool {pool_s:.3f}s  fabric {fabric_s:.3f}s  "
          f"speedup {speedup:.1f}x  steals {steals}  -> {path}")

    assert speedup >= MIN_FABRIC_SPEEDUP, (
        f"fabric sweep only {speedup:.1f}x faster than fixed chunking "
        f"(floor {MIN_FABRIC_SPEEDUP}x); see {path}")


N_KEYS = 64
FRONT_ROUNDS = 400      # 25,600 front gets
DISK_ROUNDS = 40        # 2,560 disk gets (each ~an order slower)


def _timed_gets(store: SimCacheStore, keys: "list[str]",
                rounds: int) -> float:
    t0 = time.perf_counter()
    for _ in range(rounds):
        for key in keys:
            store.get(key)
    return time.perf_counter() - t0


def test_cache_front_speedup(benchmark, results_dir, tmp_path):
    keys = [hashlib.sha256(f"bench-key-{i}".encode()).hexdigest()
            for i in range(N_KEYS)]
    root = tmp_path / "tier-bench"
    front = SimCacheStore(root, memory_entries=4 * N_KEYS)
    for i, key in enumerate(keys):
        front.put(key, 1.0 + 0.25 * i, origin="bench")

    # Same disk tier, but a one-entry front: cycling 64 distinct keys
    # evicts on every get, so every lookup pays the file round-trip.
    disk = SimCacheStore(root, memory_entries=1)

    # Bit-identical costs whichever tier answers.
    assert [disk.get(k) for k in keys] == [front.get(k) for k in keys]

    # Untimed warm cycle each (page cache, branch predictors).
    _timed_gets(front, keys, 1)
    _timed_gets(disk, keys, 1)

    front_s = run_once(benchmark, _timed_gets, front, keys, FRONT_ROUNDS)
    disk_s = _timed_gets(disk, keys, DISK_ROUNDS)

    front_gets = N_KEYS * FRONT_ROUNDS
    disk_gets = N_KEYS * DISK_ROUNDS
    # The timed windows hit the tiers they claim to.
    assert front.front_hits >= front_gets
    assert disk.front_hits <= N_KEYS          # only the key it just kept
    assert disk.hits - disk.front_hits >= disk_gets

    front_us = 1e6 * front_s / front_gets
    disk_us = 1e6 * disk_s / disk_gets
    speedup = disk_us / front_us
    path = update_bench_record(
        benchmark.name,
        n_keys=N_KEYS,
        front_gets=front_gets,
        disk_gets=disk_gets,
        front_us_per_get=front_us,
        disk_us_per_get=disk_us,
        speedup=speedup,
        min_speedup=MIN_FRONT_SPEEDUP,
    )
    print(f"\nfront {front_us:.2f}us/get  disk {disk_us:.2f}us/get  "
          f"speedup {speedup:.1f}x  -> {path}")

    assert speedup >= MIN_FRONT_SPEEDUP, (
        f"memory front only {speedup:.1f}x faster than the disk tier "
        f"(floor {MIN_FRONT_SPEEDUP}x); see {path}")
