"""CI check: the epoch kernel never changes a swept cost, anywhere.

Runs a small fixed-seed design sweep through the real simulator four
ways — epoch kernel on and off, serially and across a process pool —
and asserts every cost array is bit-identical (``np.array_equal`` on
the raw float64 values, no tolerance).  The kernel toggle travels to
pool workers through the ``C2BOUND_SIM_KERNEL`` environment variable,
so this also proves the toggle is honored in forked workers, and that
worker fan-out cannot reorder or perturb results.

Usage::

    PYTHONPATH=src python scripts/kernel_equivalence_check.py [--workers N]

Exit code 0 on equivalence; 1 with a diff summary otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from dataclasses import replace

import numpy as np

from repro.dse.evaluate import SimulatorEvaluator
from repro.dse.fabric import FabricEvaluator
from repro.sim.config import SimulatedChip
from repro.sim.kernel import ENV_KERNEL
from repro.workloads.parsec import parsec_like

SEED = 2024

CONFIGS = [{"n": n, "issue_width": iw, "rob_size": rob,
            "l1_kib": 16.0, "l2_kib": 128.0}
           for n in (1, 2)
           for iw in (2, 4)
           for rob in (32, 64)]


def _sweep(kernel: str, workers: int) -> np.ndarray:
    """Cost the fixed sweep with the given kernel toggle and workers."""
    os.environ[ENV_KERNEL] = kernel
    workload = parsec_like("fluidanimate", n_ops=1_500)
    inner = SimulatorEvaluator(workload, seed=SEED,
                               base_chip=replace(SimulatedChip(), n_cores=2),
                               cache=None)
    if workers == 1:
        return np.asarray([inner.evaluate(c) for c in CONFIGS])
    with FabricEvaluator(inner, workers=workers) as pool:
        return pool.evaluate_batch(CONFIGS)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=4,
                        help="pool size for the parallel legs (default 4)")
    args = parser.parse_args(argv)

    legs = {(kernel, workers): _sweep(kernel, workers)
            for kernel in ("1", "0")
            for workers in (1, args.workers)}
    reference_key = ("1", 1)
    reference = legs[reference_key]
    digest = hashlib.sha256(reference.tobytes()).hexdigest()[:16]
    failed = False
    for key, costs in legs.items():
        ok = np.array_equal(costs, reference)
        label = f"kernel={key[0]} workers={key[1]}"
        print(f"  {label}: {'OK' if ok else 'DIVERGED'}")
        if not ok:
            failed = True
            for i, (a, b) in enumerate(zip(costs, reference)):
                if a != b:
                    print(f"    config {CONFIGS[i]}: {a!r} != {b!r}")
    print(f"{len(CONFIGS)} design points, costs sha256[:16]={digest}")
    if failed:
        print("kernel/worker equivalence FAILED", file=sys.stderr)
        return 1
    print("all legs bit-identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
