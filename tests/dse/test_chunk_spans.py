"""Chunk-timing spans: queue-wait, execute and IPC recorded separately.

The profiler cannot attribute pool time honestly if a chunk's
wall-clock is lumped into one span: waiting behind busy workers,
in-worker simulation and pickling round-trips call for three different
fixes.  `FabricEvaluator` therefore records three externally-timed
spans per completed unit (``dse.chunk.queue_wait`` / ``execute`` /
``ipc``) — these tests pin their presence and attrs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dse import FabricEvaluator, SimulatorEvaluator
from repro.obs import configure_tracing, disable_tracing
from repro.obs.stream import SpanRollup, TraceReader
from repro.workloads import parsec_like

CHUNK_SPANS = ("dse.chunk.queue_wait", "dse.chunk.execute",
               "dse.chunk.ipc")


@pytest.fixture
def traced(tmp_path):
    path = tmp_path / "trace.jsonl"
    configure_tracing(path)
    try:
        yield path
    finally:
        disable_tracing()


@pytest.fixture(scope="module")
def sim_evaluator() -> SimulatorEvaluator:
    return SimulatorEvaluator(parsec_like("blackscholes", n_ops=300),
                              seed=1)


def _configs(n: int) -> "list[dict]":
    return [{"n": 1 + (i % 2), "issue_width": 2, "rob_size": 64,
             "a1": 0.5, "a2": 8.0} for i in range(n)]


def _rollup(path) -> SpanRollup:
    rollup = SpanRollup()
    for event in TraceReader(path).read_all():
        rollup.handle(event)
    return rollup


class TestChunkSpans:
    def test_pool_run_emits_all_three_per_chunk(self, traced,
                                                sim_evaluator):
        configs = _configs(8)
        # One configuration per unit: the unit count is fixed whatever
        # the steal schedule.
        with FabricEvaluator(sim_evaluator, workers=2,
                             unit_size=1) as pool:
            costs = pool.evaluate_batch(configs)
        assert np.all(np.isfinite(costs))
        rollup = _rollup(traced)
        n_chunks = len(configs)
        for name in CHUNK_SPANS:
            assert name in rollup.aggregates, name
            count, total, _self = rollup.aggregates[name]
            assert count == n_chunks, (name, count)
            assert total >= 0.0
        # Execute time is real work, not epsilon bookkeeping.
        assert rollup.aggregates["dse.chunk.execute"][1] > 0.0

    def test_chunk_spans_carry_chunk_and_size_attrs(self, traced,
                                                    sim_evaluator):
        with FabricEvaluator(sim_evaluator, workers=2,
                             unit_size=3) as pool:
            pool.evaluate_batch(_configs(6))
        by_name: "dict[str, list[dict]]" = {}
        for event in TraceReader(traced).read_all():
            if event.get("name") in CHUNK_SPANS:
                by_name.setdefault(event["name"], []).append(event)
        for name in CHUNK_SPANS:
            # ``chunk`` names the executing slot; sizes cover the batch.
            assert {e["attrs"]["chunk"] for e in by_name[name]} <= {0, 1}
            assert all(1 <= e["attrs"]["size"] <= 3 for e in by_name[name])
            assert sum(e["attrs"]["size"] for e in by_name[name]) == 6

    def test_serial_inline_path_emits_no_chunk_spans(self, traced,
                                                     sim_evaluator):
        with FabricEvaluator(sim_evaluator, workers=1) as pool:
            pool.evaluate_batch(_configs(4))
        rollup = _rollup(traced)
        for name in CHUNK_SPANS:
            assert name not in rollup.aggregates
        # The inline path still simulates under sim.run as before.
        assert "sim.run" in rollup.aggregates

    def test_disabled_tracer_records_nothing(self, tmp_path,
                                             sim_evaluator):
        disable_tracing()
        with FabricEvaluator(sim_evaluator, workers=2,
                             unit_size=2) as pool:
            costs = pool.evaluate_batch(_configs(4))
        assert np.all(np.isfinite(costs))
