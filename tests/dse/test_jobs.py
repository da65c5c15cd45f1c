"""Job-shaped entrypoints: spec building, deadlines, degradation,
checkpointed resume identity."""

from __future__ import annotations

import pytest

from repro.dse.jobs import (
    RESULT_SCHEMA,
    DegradedSimEvaluator,
    JobGuard,
    build_evaluator,
    build_space,
    run_job,
)
from repro.errors import DeadlineExceededError, InvalidParameterError
from repro.resilience import Deadline

SPACE = {"params": [
    {"name": "a0", "values": [2, 4, 8]},
    {"name": "a1", "values": [1, 2]},
    {"name": "a2", "values": [1, 2]},
    {"name": "n", "values": [4, 8, 16]},
]}

SWEEP = {"kind": "sweep", "space": SPACE,
         "evaluator": {"type": "surrogate"}}


class TestBuilders:
    def test_build_space(self):
        space = build_space(SPACE)
        assert space.size == 3 * 2 * 2 * 3

    @pytest.mark.parametrize("spec", [
        {},
        {"params": []},
        {"params": [{"name": "x"}]},
        {"params": [{"values": [1]}]},
        {"params": [{"name": "x", "values": []}]},
    ])
    def test_bad_space_rejected(self, spec):
        with pytest.raises(InvalidParameterError):
            build_space(spec)

    def test_build_surrogate_with_app_fields(self):
        evaluator = build_evaluator(
            {"type": "surrogate", "app": {"f_mem": 0.4, "g_exponent": 1.2},
             "machine": {"total_area": 256.0}})
        assert evaluator.app.f_mem == 0.4
        assert evaluator.machine.total_area == 256.0

    @pytest.mark.parametrize("spec", [
        {"type": "mystery"},
        {"type": "surrogate", "app": {"bogus_field": 1}},
        {"type": "surrogate", "machine": {"bogus": 1}},
        {"type": "simulator", "workload": "unheard-of"},
        "not a dict",
    ])
    def test_bad_evaluator_rejected(self, spec):
        with pytest.raises(InvalidParameterError):
            build_evaluator(spec)

    def test_degraded_simulator_wraps(self):
        evaluator = build_evaluator({"type": "simulator", "cache": None},
                                    degraded=True)
        assert isinstance(evaluator, DegradedSimEvaluator)


class TestRunJob:
    def test_result_document(self, tmp_path):
        result = run_job(dict(SWEEP))
        assert result["schema"] == RESULT_SCHEMA
        assert result["evaluations"] > 0
        assert isinstance(result["best_cost"], str)
        assert float(result["best_cost"]) > 0
        assert result["degraded"] is False

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidParameterError):
            run_job({"kind": "train", "space": SPACE})

    def test_resume_is_bit_identical(self, tmp_path):
        fresh = run_job(dict(SWEEP),
                        checkpoint_path=tmp_path / "a.jsonl", resume=True)
        resumed = run_job(dict(SWEEP),
                          checkpoint_path=tmp_path / "a.jsonl", resume=True)
        assert resumed == fresh
        # The warm ledger means the resume charged nothing new…
        assert resumed["evaluations"] == fresh["evaluations"]
        # …and matches a checkpoint-free run exactly.
        assert run_job(dict(SWEEP)) == fresh

    def test_deadline_expiry_raises(self):
        deadline = Deadline(1e-9)
        with pytest.raises(DeadlineExceededError):
            run_job(dict(SWEEP), deadline=deadline)

    def test_progress_stream_monotonic(self):
        seen = []
        spec = dict(SWEEP)
        spec["batch_size"] = 8
        run_job(spec, on_progress=seen.append)
        assert seen == sorted(seen)
        assert seen[-1] > 0

    def test_pooled_job_matches_inline_and_reports_progress(self):
        from repro.service.wire import canonical_json

        spec = dict(SWEEP)
        spec["batch_size"] = 8
        inline = run_job(spec, workers=1)
        seen: list = []

        def on_progress(evaluated: int) -> None:
            # A closure, as the server passes: it must stay in the
            # parent while only the evaluator crosses the pool.
            seen.append(evaluated)

        pooled = run_job(spec, workers=2, on_progress=on_progress)
        assert canonical_json(pooled) == canonical_json(inline)
        assert seen == sorted(seen)
        assert seen[-1] == pooled["evaluations"]


class TestJobGuard:
    class Flat:
        def evaluate(self, config):
            return 1.0

        def evaluate_batch(self, configs):
            import numpy as np
            return np.ones(len(configs))

    def test_counts_and_reports(self):
        seen = []
        guard = JobGuard(self.Flat(), on_progress=seen.append)
        guard.evaluate({"x": 1})
        guard.evaluate_batch([{"x": 1}, {"x": 2}])
        assert guard.evaluated == 3
        assert seen == [1, 3]

    def test_deadline_checked_before_work(self):
        clock = [0.0]
        deadline = Deadline(1.0, clock=lambda: clock[0])
        guard = JobGuard(self.Flat(), deadline=deadline)
        guard.evaluate({"x": 1})
        clock[0] = 2.0
        with pytest.raises(DeadlineExceededError):
            guard.evaluate({"x": 1})
        with pytest.raises(DeadlineExceededError):
            guard.evaluate_batch([{"x": 1}])
