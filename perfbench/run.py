"""The repository's benchmark: wall time a user waits for, by workload.

    python3 perfbench/run.py --workload fig12|simulate|analytic|service|all \\
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout (it runs the program from ``src/``).

Workloads (each unit runs in a fresh process; see NOTES.md for why):

- ``fig12``, ``simulate``, ``analytic`` — the three batch workloads;
  together they are exactly ``c2bound all`` (see ``batch_worker.py``).
- ``service`` — two closed-loop clients against ``c2bound serve``
  (see ``service_load.py``).
- ``all`` — each of the four in turn, in its own process.

A run repeats whole units (a worker process running the workload, or a
fresh server taking the full job list) at least :data:`MIN_UNITS` times
and until ``--seconds`` have passed, and reports medians.  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
runs one untraced and one traced unit and prints the per-layer metrics.
Every output is checked (result-table digests, experiment invariants,
job results against an inline ``run_job``); the last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exact work
counts are printed and compared with the ones recorded in
``expected.json`` at the default seed; a difference is flagged, and the
line before the last is one JSON object with the counts and the flags.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import service_load
from batch_worker import WORKLOADS as BATCH_GROUPS
from layers import PER_LAYER_UNITS, layer_metrics
from procs import program_env, reap

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
OUT = ROOT / ".perfbench_out"     # scratch: server state, worker output, spans
BATCH = tuple(BATCH_GROUPS)
WORKLOADS = BATCH + ("service",)
SETUP_PROBES = 6          # set-up-only spawns per batch run (setup_s median)
#: Fewest units per run, whatever ``--seconds`` says: a median over
#: more units holds better against the host's drifting speed.  fig12
#: (~35 s a unit) and simulate (~13 s) get one, or a gating session's
#: 92 runs would not fit their time budget (NOTES.md).
MIN_UNITS = {"fig12": 1, "simulate": 1, "analytic": 4, "service": 2}
SERVICE_PROBES = 4        # throwaway server starts per service run
WORKER_LIMIT_S = 150.0
END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
}
#: Printed but not gated (NOTES.md): ``submit_p50_ms`` and
#: ``job_server_p50_ms`` are too noisy on a shared 2-CPU host, and
#: ``jobs_per_s`` is the fixed job count of a round over its ``wall_s``.
INFO_UNITS = {"jobs_per_s": "1/s", "job_server_p50_ms": "ms",
              "submit_p50_ms": "ms"}


def spans_path(workload: str, seed: int) -> Path:
    return OUT / f"{workload}-seed{seed}.spans.jsonl"


def work_counts(counters: dict, totals: "dict | None") -> dict:
    """The work counts that must repeat exactly across runs at one seed."""
    out = {
        "dse.evaluations": counters.get("dse.evaluations", 0),
        "sim.runs": counters.get("sim.runs", 0),
        "sim.mem_ops": counters.get("sim.mem_ops", 0),
        "sim.cache.hits": counters.get("sim.cache.hits", 0),
        "sim.cache.misses": counters.get("sim.cache.misses", 0),
        "resilience.checkpoint.records":
            counters.get("resilience.checkpoint.appended", 0),
    }
    if totals is not None:
        out["solvers.brent_calls"] = totals.get("solvers.brent", [0])[0]
    return out


class Run:
    """What one benchmark run measured and checked."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.counts: list[dict] = []
        self.metrics: dict = {}

    def fail(self, n: int, problem: str) -> None:
        self.failed += n
        self.problems.append(problem)


# ---- batch workloads ------------------------------------------------------

def spawn_worker(workload: str, seed: int, work: Path, *, tag: str,
                 trace: bool = False, setup_only: bool = False):
    """One worker process: ``(setup_s, exit code, peak RSS MiB, doc)``."""
    out = work / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "batch_worker.py"),
           "--workload", workload, "--seed", str(seed), "--out", str(out)]
    if trace:
        cmd += ["--trace", "--spans", str(spans_path(workload, seed))]
    if setup_only:
        cmd.append("--setup-only")
    with open(work / f"{tag}.log", "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=program_env(ROOT), cwd=ROOT,
                                stdout=subprocess.PIPE, stderr=log)
        first = proc.stdout.readline()
        setup = time.perf_counter() - t0
        peak_mib = reap(proc, t0 + WORKER_LIMIT_S)
        proc.stdout.close()
    doc = None
    if first.strip() == b"ready" and not setup_only and out.exists():
        doc = json.loads(out.read_text())
    ok = first.strip() == b"ready" and proc.returncode == 0
    return setup if ok else None, proc.returncode, peak_mib, doc


def check_unit(run: Run, workload: str, seed: int, rc: int, doc,
               expected: "dict | None") -> None:
    keys = BATCH_GROUPS[workload]
    run.attempted += len(keys)
    if rc != 0 or doc is None:
        run.fail(len(keys), f"{workload} worker exited with code {rc}")
        return
    for key in keys:
        check = doc["checks"][key]
        if check["problems"]:
            run.fail(1, f"{key}: {'; '.join(check['problems'])}")
            continue
        if expected is None:
            continue
        if key in expected["seeded"] and seed != expected["default_seed"]:
            continue
        if check["digest"] != expected["digests"][key]:
            run.fail(1, f"{key}: result table digest {check['digest'][:12]} "
                        f"!= recorded {expected['digests'][key][:12]}")
    run.counts.append(work_counts(doc["counters"], doc.get("totals")))


def run_batch(workload: str, seed: int, seconds: float, trace: bool,
              work: Path, expected) -> Run:
    run = Run()
    if trace:
        # One untraced unit (the overhead baseline), then the traced one.
        _s, rc, _rss, plain = spawn_worker(workload, seed, work, tag="plain")
        check_unit(run, workload, seed, rc, plain, expected)
        _s, rc, _rss, doc = spawn_worker(workload, seed, work, tag="traced",
                                         trace=True)
        check_unit(run, workload, seed, rc, doc, expected)
        if doc is None or plain is None:
            return run
        m = layer_metrics(doc["totals"], doc["counters"])
        m["obs.trace_overhead_s"] = doc["wall_s"] - plain["wall_s"]
        m["obs.layer_coverage"] = doc["self_s"] / doc["wall_s"]
        m.update(service_load.stage_metrics([], {}))  # no jobs: zeros
        m["service.submit_p50_ms"] = 0.0
        run.metrics = m
        return run

    setups = []

    def probe(i: int) -> bool:
        setup, rc, _rss, _ = spawn_worker(workload, seed, work,
                                          tag=f"probe{i}", setup_only=True)
        if setup is None:
            run.attempted += 1
            run.fail(1, f"setup probe exited with code {rc}")
            return False
        setups.append(setup)
        return True

    # Half the probes before the units and half after: the host's speed
    # drifts over tens of seconds, and the median then spans the run.
    if not all(probe(i) for i in range(SETUP_PROBES // 2)):
        return run
    walls, rss = [], []
    t_start = time.perf_counter()
    while (len(walls) < MIN_UNITS[workload]
           or time.perf_counter() - t_start < seconds):
        setup, rc, peak, doc = spawn_worker(workload, seed, work,
                                            tag=f"unit{len(walls)}")
        check_unit(run, workload, seed, rc, doc, expected)
        if setup is None or doc is None:
            return run
        setups.append(setup)
        walls.append(doc["wall_s"])
        rss.append(peak)
    if not all(probe(i) for i in range(SETUP_PROBES // 2, SETUP_PROBES)):
        return run
    wall = statistics.median(walls)
    # Every workload reports every end-to-end metric, so the job latency
    # quantiles are reported here too; a batch run is one "job" per unit,
    # too few for a p90, and both restate wall_s exactly (NOTES.md).
    run.metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mib": max(rss),
        "job_p50_ms": wall * 1e3,
        "job_p90_ms": wall * 1e3,
    }
    return run


# ---- service workload -----------------------------------------------------

def service_round(run: Run, pool, sequences, work: Path, *, trace: bool,
                  seed: int, expected_results) -> "tuple[list, dict, object]":
    spans = spans_path("service", seed) if trace else None
    server = service_load.Server(ROOT, work, trace=trace, spans=spans)
    try:
        records = service_load.run_round(server, pool, sequences, seed)
    finally:
        dump = server.stop()
    service_load.add_terminal_stamps(records, dump)
    run.attempted += len(records)
    for rec in records:
        if rec["status"] == "done" and "t_done" not in rec:
            run.fail(1, f"job for spec {rec['spec']}: no terminal stamp")
        elif rec["status"] != "done":
            run.fail(1, f"job for spec {rec['spec']}: {rec['status']} "
                        f"{rec.get('error', '')}".strip())
        elif (service_load.result_digest(rec["result"])
              != expected_results[rec["spec"]]):
            run.fail(1, f"job for spec {rec['spec']}: result differs from "
                        f"the inline run_job result")
    run.counts.append(work_counts(dump.get("counters", {}),
                              dump.get("totals") if trace else None))
    return records, dump, server


def run_service(seed: int, seconds: float, trace: bool, work: Path,
                expected) -> Run:
    run = Run()
    pool, sequences = service_load.job_mix(seed)
    if expected is not None and seed == expected["default_seed"]:
        expected_results = expected["service_results"]
    else:
        expected_results = service_load.inline_digests(pool)
    if trace:
        plain, _d, _s = service_round(run, pool, sequences, work / "plain",
                                      trace=False, seed=seed,
                                      expected_results=expected_results)
        records, dump, _s = service_round(run, pool, sequences,
                                          work / "traced", trace=True,
                                          seed=seed,
                                          expected_results=expected_results)
        m = layer_metrics(dump.get("totals", {}), dump.get("counters", {}))
        m.update(service_load.stage_metrics(records, dump.get("jobs", {})))
        m["service.submit_p50_ms"] = (
            service_load.latency_metrics(records)["submit_p50_ms"])
        traced_wall = service_load.round_wall(records)
        m["obs.trace_overhead_s"] = (
            traced_wall - service_load.round_wall(plain))
        m["obs.layer_coverage"] = dump.get("self_s", 0.0) / traced_wall
        run.metrics = m
        return run

    setups = []

    def probe(i: int) -> None:
        server = service_load.Server(ROOT, work / f"probe{i}", trace=False)
        server.stop()
        setups.append(server.setup_s)

    for i in range(SERVICE_PROBES // 2):
        probe(i)
    rounds, rss = [], []
    t_start = time.perf_counter()
    while (len(rounds) < MIN_UNITS["service"]
           or time.perf_counter() - t_start < seconds):
        records, _dump, server = service_round(
            run, pool, sequences, work / f"round{len(rounds)}", trace=False,
            seed=seed, expected_results=expected_results)
        setups.append(server.setup_s)
        rss.append(server.peak_rss_mib or float("nan"))
        rounds.append(records)
    for i in range(SERVICE_PROBES // 2, SERVICE_PROBES):
        probe(i)
    walls = [service_load.round_wall(r) for r in rounds]
    done = [sum("t_done" in rec for rec in r) for r in rounds]
    run.metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": max(rss),
        "jobs_per_s": statistics.median(n / w for n, w in zip(done, walls)),
        # Quantiles over every job of the run, all rounds pooled.
        **service_load.latency_metrics(
            [rec for records in rounds for rec in records]),
    }
    return run


# ---- reporting ------------------------------------------------------------

def load_expected():
    return json.loads(EXPECTED.read_text()) if EXPECTED.exists() else None


def count_flags(run: Run, workload: str, seed: int, expected) -> "list[str]":
    """Work-count differences between units, and against the record.

    Keys only a traced unit has (``solvers.brent_calls``) are compared
    where both sides have them.
    """
    def diff(a: dict, b: dict) -> "list[str]":
        return [f"{k} = {a[k]}, expected {b[k]}" for k in a
                if k in b and a[k] != b[k]]

    flags = []
    for i, counts in enumerate(run.counts[1:], start=1):
        flags += [f"unit {i}: {d}" for d in diff(counts, run.counts[0])]
    if (run.counts and expected is not None
            and seed == expected["default_seed"]):
        for i, counts in enumerate(run.counts):
            flags += [f"unit {i}: {d} (recorded)"
                      for d in diff(counts, expected["counts"][workload])]
    return flags


def report(workload: str, seed: int, trace: bool, run: Run, expected) -> dict:
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    print(f"# workload={workload} seed={seed} trace={int(trace)} "
          f"python={sys.version.split()[0]} cpus={os.cpu_count()}")
    if workload == "service":
        print(f"# {service_load.CLIENTS} closed-loop clients x "
              f"{service_load.JOBS_PER_CLIENT} jobs, polling every "
              f"{service_load.POLL_S * 500:g}-{service_load.POLL_S * 1500:g}"
              f" ms (uniform), --job-workers 1")
    run.metrics = {k: v for k, v in run.metrics.items() if math.isfinite(v)}
    for name, unit in units.items():
        if name in run.metrics:
            print(f"{name:36s} {run.metrics[name]:>16.6f} {unit}")
    for name, unit in INFO_UNITS.items():
        if name in run.metrics and not trace:
            print(f"{name:36s} {run.metrics[name]:>16.6f} {unit} (not gated)")
    rate = run.failed / run.attempted if run.attempted else 1.0
    print(f"{'error_rate':36s} {rate:>16.6f} fraction "
          f"({run.failed} failed of {run.attempted})")
    for problem in run.problems:
        print(f"FAILED: {problem}")
    if run.counts:
        print("work counts: " + " ".join(
            f"{k}={v}" for k, v in run.counts[-1].items()))
    drift = count_flags(run, workload, seed, expected)
    for flag in drift:
        print(f"WORK-COUNT DRIFT: {flag}")
    # The last line may carry only the four keys below, so the counts
    # and any drift go, machine-readable, on the line before it.
    print(json.dumps({"work_counts": run.counts[-1] if run.counts else {},
                      "work_count_drift": drift}))
    correct = (run.failed == 0 and run.attempted > 0
               and set(units) <= set(run.metrics))
    return {"correct": correct, "attempted": max(run.attempted, 1),
            "failed": run.failed if run.attempted else 1,
            "metrics": {name: {"value": run.metrics[name], "unit": unit}
                        for name, unit in units.items()
                        if name in run.metrics}}


def run_all(args) -> int:
    """Each workload in its own process; sums the outcome."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            return 1
        doc = json.loads(lines[-1])
        total["correct"] &= doc["correct"]
        total["attempted"] += doc["attempted"]
        total["failed"] += doc["failed"]
        for name, metric in doc["metrics"].items():
            total["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}; run from "
              f"the root of a checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    expected = load_expected()
    work = OUT / f"tmp-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.workload == "service":
            run = run_service(args.seed, args.seconds, bool(args.trace),
                              work, expected)
        else:
            run = run_batch(args.workload, args.seed, args.seconds,
                            bool(args.trace), work, expected)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(report(args.workload, args.seed, bool(args.trace), run,
                            expected)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
