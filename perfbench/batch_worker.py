"""One batch workload in a fresh process: ``fig12``, ``simulate`` or
``analytic``.  Spawned by ``run.py``; not meant to be run by hand.

Protocol: after its imports the worker prints ``ready`` on stdout (the
parent's clock stops ``setup_s`` there).  With ``--setup-only`` it then
exits.  Otherwise it runs every experiment of the workload, checks
each result table, and writes one JSON document to ``--out``: the wall
time from the first experiment call to the last return, peak RSS, the
metrics registry's counters, per-experiment check results and, with
``--trace``, the per-layer span totals (spans go to ``--spans``).

The three workloads together are exactly ``c2bound all``:

- ``fig12``    — fig12;
- ``simulate`` — aps-accuracy, fig13, validation, mechanisms,
  calibration (the simulator-bound experiments);
- ``analytic`` — fig1, table1, fig7, fig8-fig11, capacity,
  ablation-factors, ablation-miss-curve (the analytic model).
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import math
import os
import time
from pathlib import Path

import numpy as np

WORKLOADS = {
    "fig12": ("fig12",),
    "simulate": ("aps-accuracy", "fig13", "validation", "mechanisms",
                 "calibration"),
    "analytic": ("fig1", "table1", "fig7", "fig8", "fig9", "fig10", "fig11",
                 "capacity", "ablation-factors", "ablation-miss-curve"),
}


def aps_seed(seed: int) -> int:
    """The ``run_aps_accuracy`` seed for benchmark seed ``seed``: the
    function's own default (the one ``c2bound all`` uses) plus ``seed``."""
    from repro.experiments import run_aps_accuracy
    default = inspect.signature(run_aps_accuracy).parameters["seed"].default
    return default + seed


def run_experiment(key: str, seed: int):
    """``(table, extra)`` for one experiment; ``extra`` feeds its checks.

    The seed reaches ``aps-accuracy`` only, as an offset from the
    program's own default seed (:func:`aps_seed`), so at the benchmark's
    seed 0 every experiment runs exactly as ``c2bound all`` runs it.
    ``fig12`` runs at the CLI's seed 0 for every benchmark seed: its ANN
    trains until a CV-error target is met, so its work (and wall time) is
    a function of the seed (474 to 657 ANN simulations over seeds 0-6).
    """
    from repro.experiments import (
        run_aps_accuracy,
        run_capacity_bound,
        run_fig1,
        run_fig7,
        run_fig12,
        run_fig13,
        run_scaling_figure,
        run_table1,
    )
    from repro.experiments.ablation import (
        run_factor_ablation,
        run_miss_curve_ablation,
    )
    from repro.experiments.calibration import run_calibration
    from repro.experiments.mechanisms import run_mechanism_sweep
    from repro.experiments.validation import run_model_validation

    if key == "fig12":
        return run_fig12()
    if key == "aps-accuracy":
        return run_aps_accuracy(seed=aps_seed(seed))
    if key == "fig13":
        return run_fig13(), None
    if key == "validation":
        return run_model_validation()
    if key == "mechanisms":
        return run_mechanism_sweep(), None
    if key == "calibration":
        return run_calibration()
    if key == "fig1":
        return run_fig1(), None
    if key == "table1":
        return run_table1(), None
    if key == "fig7":
        return run_fig7(), None
    if key in ("fig8", "fig9", "fig10", "fig11"):
        f_mem = 0.3 if key in ("fig8", "fig10") else 0.9
        quantity = "WT" if key in ("fig8", "fig9") else "throughput"
        return run_scaling_figure(f_mem=f_mem, quantity=quantity), None
    if key == "capacity":
        return run_capacity_bound(), None
    if key == "ablation-factors":
        return run_factor_ablation(), None
    if key == "ablation-miss-curve":
        return run_miss_curve_ablation(), None
    raise KeyError(key)


def _plain(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def table_digest(table) -> str:
    """sha256 of a result table's columns and exact cell values."""
    doc = [list(table.columns), [[_plain(v) for v in row]
                                 for row in table.rows]]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def invariants(key: str, table, extra) -> "list[str]":
    """Seed-independent properties of an experiment's output.

    The simulator has no hardware reference in this repository: APS's
    error against the full sweep is checked here as an output property,
    never reported as the model's accuracy.
    """
    problems = []
    if len(table) == 0:
        problems.append("empty table")
    for row in table.rows:
        for v in row:
            if isinstance(v, (float, np.floating)) and not math.isfinite(v):
                problems.append(f"non-finite cell in row {row!r}")
    if key == "fig12":
        o = extra
        if o.aps_sims != 100:
            problems.append(f"APS sims {o.aps_sims} != 100")
        if not o.aps_sims < o.ann_sims < o.full_sims:
            problems.append(f"not APS < ANN < full sweep: {o}")
        if o.full_sims != 10 ** 6:
            problems.append(f"space size {o.full_sims} != 10^6")
    elif key == "aps-accuracy":
        a = extra
        if a.simulator_error < 0 or a.surrogate_error < 0:
            problems.append("APS beat the exhaustive sweep's optimum")
        if a.simulator_sims >= a.simulator_space:
            problems.append("APS simulated the whole reduced space")
    elif key in ("validation", "calibration"):
        if not -1.0 <= extra <= 1.0:
            problems.append(f"rank correlation {extra} outside [-1, 1]")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    # Set-up ends when the program is imported.
    import repro.experiments.ablation  # noqa: F401
    import repro.experiments.calibration  # noqa: F401
    import repro.experiments.mechanisms  # noqa: F401
    import repro.experiments.validation  # noqa: F401
    from repro.obs import get_registry
    from repro.sim.cache_store import set_default_store

    # The simulation cache stays off: $C2BOUND_SIM_CACHE must not leak in.
    set_default_store(None)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    # Anything printed from here on goes to the log, not the parent's pipe.
    os.dup2(2, 1)

    recorder = None
    if args.trace:
        from layers import SpanRecorder, install
        recorder = SpanRecorder()
        install(recorder)

    results = {}
    t0 = time.perf_counter()
    for key in WORKLOADS[args.workload]:
        table, extra = run_experiment(key, args.seed)
        results[key] = (table, extra)
    wall = time.perf_counter() - t0

    checks = {key: {"digest": table_digest(table),
                    "problems": invariants(key, table, extra)}
              for key, (table, extra) in results.items()}
    doc = {
        "wall_s": wall,
        "counters": get_registry().snapshot().get("counters", {}),
        "checks": checks,
    }
    if recorder is not None:
        doc["totals"] = recorder.totals
        doc["self_s"] = recorder.self_time()
        if args.spans is not None:
            recorder.write(args.spans)
    args.out.write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
