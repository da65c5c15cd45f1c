"""CI check: the sweep fabric never changes a swept cost, anywhere.

Runs one fixed design sweep through every scheduling regime the fabric
supports — serial loop, fabric with stealing, stealing forced
(``unit_size=1``), a mid-sweep worker crash, and a journaled
kill-then-resume round trip — and asserts every cost array is
bit-identical (``np.array_equal`` on
raw float64, no tolerance) with identical ``dse.evaluations``
accounting.  The steal schedule, crash recovery and resume replay must
all be invisible in the results (``docs/DSE_PERFORMANCE.md``).

Usage::

    PYTHONPATH=src python scripts/fabric_equivalence_check.py [--workers N]

Exit code 0 on equivalence; 1 with a diff summary otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.core.params import ApplicationProfile, MachineParameters
from repro.dse.evaluate import (
    BudgetedEvaluator,
    SurrogateEvaluator,
    canonical_key,
)
from repro.dse.fabric import FabricEvaluator
from repro.dse.space import DesignSpace, Parameter
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

NO_JITTER = RetryPolicy(max_attempts=3, base_delay=0.01, jitter=0.0)


def _space() -> DesignSpace:
    return DesignSpace([
        Parameter("a0", (0.25, 0.5, 1.0, 2.0)),
        Parameter("a1", (0.1, 0.25, 0.5, 1.0)),
        Parameter("a2", (0.5, 1.0, 2.0, 4.0)),
        Parameter("n", (2, 8, 32, 64)),
        Parameter("issue_width", (1, 2, 4, 8)),
        Parameter("rob_size", (32, 128, 512)),
    ])


def _surrogate() -> SurrogateEvaluator:
    app = ApplicationProfile(f_seq=0.02, f_mem=0.35, concurrency=4.0,
                             g=PowerLawG(1.0))
    machine = MachineParameters(total_area=400.0, shared_area=40.0)
    return SurrogateEvaluator(app, machine)


def _configs() -> "list[dict]":
    space = _space()
    return [space.config_at(i) for i in range(0, space.size, 7)][:96]


def _leg(builder, configs) -> "tuple[np.ndarray, int, dict]":
    """Run one scheduling regime under a fresh metrics registry.

    Returns (costs, budget evaluations, counter snapshot); every leg
    wraps its evaluator in a BudgetedEvaluator so the exactly-once
    charging contract is part of what gets compared.
    """
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        with builder() as pool:
            budget = BudgetedEvaluator(pool)
            costs = budget.evaluate_batch(configs)
            evals = budget.evaluations
            budget.close()
        return costs, evals, registry.snapshot()["counters"]
    finally:
        set_registry(previous)


def check_legs(state_dir: Path, workers: int) -> "tuple[np.ndarray, int, bool]":
    configs = _configs()
    surrogate = _surrogate()
    plan = FaultPlan(seed=5, state_dir=str(state_dir / "fuse"), faults=(
        Fault(kind="crash", token=config_token(configs[17]),
              worker_only=True),))
    crashy = FaultyEvaluator(surrogate, plan)

    legs = {
        "serial": lambda: FabricEvaluator(surrogate, workers=1),
        "fabric stealing": lambda: FabricEvaluator(
            surrogate, workers=workers),
        "fabric steal forced": lambda: FabricEvaluator(
            surrogate, workers=workers, unit_size=1),
        "fabric worker crash": lambda: FabricEvaluator(
            crashy, workers=workers, unit_size=8,
            retry_policy=NO_JITTER, sleep=lambda s: None),
    }

    reference = evals_ref = None
    failed = False
    for label, builder in legs.items():
        costs, evals, counters = _leg(builder, configs)
        if reference is None:
            reference, evals_ref = costs, evals
        ok = (np.array_equal(costs, reference) and evals == evals_ref
              and counters["dse.evaluations"] == evals_ref)
        detail = ""
        if "forced" in label:
            steals = counters.get("dse.fabric.steals", 0)
            detail = f" (steals={steals})"
            ok = ok and steals > 0
        elif "crash" in label:
            detail = (f" (crashes="
                      f"{counters.get('resilience.worker_crashes', 0)})")
            ok = ok and counters.get("resilience.worker_crashes")
        print(f"  {label}: {'OK' if ok else 'DIVERGED'}{detail}")
        if not ok:
            failed = True
            for i, (a, b) in enumerate(zip(costs, reference)):
                if a != b:
                    print(f"    config {configs[i]}: {a!r} != {b!r}")
            if evals != evals_ref:
                print(f"    charged {evals} evaluations, expected "
                      f"{evals_ref}")
    return reference, evals_ref, failed


def check_kill_and_resume(state_dir: Path, workers: int,
                          reference: np.ndarray, evals_ref: int) -> bool:
    """Journaled fabric sweep killed halfway, then resumed exactly-once."""
    configs = _configs()
    surrogate = _surrogate()
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        journal = state_dir / "brute.jsonl"
        journal.unlink(missing_ok=True)
        half = configs[:len(configs) // 2]
        with FabricEvaluator(surrogate, workers=workers) as fabric:
            budget = BudgetedEvaluator(fabric, method="brute",
                                       checkpoint=journal)
            budget.evaluate_batch(half)
            budget.close()  # the "corpse" leaves its journal behind

        registry.reset()
        restored = load_journal(journal)[1]
        if not restored:
            print("  kill-and-resume: DIVERGED (interrupted half "
                  "journaled nothing)")
            return True
        with FabricEvaluator(surrogate, workers=workers,
                             unit_size=1) as fabric:
            budget = BudgetedEvaluator(fabric, method="brute",
                                       checkpoint=journal, resume=True)
            costs = budget.evaluate_batch(configs)
            evals = budget.evaluations
            budget.close()
        counters = registry.snapshot()["counters"]

        keys = [k for k, _ in load_journal(journal)[1]]
        distinct = len({canonical_key(c) for c in configs})
        ok = (np.array_equal(costs, reference)
              and evals == evals_ref
              and counters["dse.evaluations"] == evals_ref
              and len(keys) == len(set(keys)) == distinct)
        print(f"  kill-and-resume: {'OK' if ok else 'DIVERGED'} "
              f"(restored={len(restored)}, journaled={len(keys)})")
        if not ok and evals != evals_ref:
            print(f"    resumed run charged {evals} evaluations, "
                  f"uninterrupted charged {evals_ref}")
        return not ok
    finally:
        set_registry(previous)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=4,
                        help="fabric slots for the parallel legs "
                             "(default 4)")
    parser.add_argument("state_dir", nargs="?", default=None,
                        help="scratch directory for the journal round "
                             "trip (default: a fresh temp dir)")
    args = parser.parse_args(argv)
    state_dir = (Path(args.state_dir) if args.state_dir
                 else Path(tempfile.mkdtemp(prefix="fabric-eq-")))
    state_dir.mkdir(parents=True, exist_ok=True)

    reference, evals_ref, failed = check_legs(state_dir, args.workers)
    failed |= check_kill_and_resume(state_dir, args.workers,
                                    reference, evals_ref)
    digest = hashlib.sha256(np.asarray(reference).tobytes()).hexdigest()
    print(f"{len(_configs())} design points, {evals_ref} evaluations, "
          f"costs sha256[:16]={digest[:16]}")
    if failed:
        print("fabric equivalence FAILED", file=sys.stderr)
        return 1
    print("all legs bit-identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
