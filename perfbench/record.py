"""Record ``expected.json``: what the benchmark checks its runs against.

    python3 perfbench/record.py

Runs every workload once at the default seed, traced, and stores the
result-table digest of each experiment, each workload's exact work
counts, and each service job spec's result digest from an inline
``run_job``.  Re-record only in a change that alters results or the
simulated work on purpose, and say so in that change.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import service_load

DEFAULT_SEED = 0


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    work = run.OUT / "record"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    expected = {"default_seed": DEFAULT_SEED, "seeded": ["aps-accuracy"],
                "digests": {}, "counts": {}}
    for workload in run.BATCH:
        _setup, rc, _rss, doc = run.spawn_worker(workload, DEFAULT_SEED, work,
                                                 tag=workload, trace=True)
        problems = {k: c["problems"] for k, c in (doc or {}).get(
            "checks", {}).items() if c["problems"]}
        if rc != 0 or doc is None or problems:
            print(f"{workload}: exit {rc}, problems {problems}")
            return 1
        expected["digests"].update(
            {k: c["digest"] for k, c in doc["checks"].items()})
        expected["counts"][workload] = run.work_counts(doc["counters"],
                                                   doc["totals"])
    pool, sequences = service_load.job_mix(DEFAULT_SEED)
    expected["service_results"] = service_load.inline_digests(pool)
    result = run.Run()
    run.service_round(result, pool, sequences, work / "service", trace=True,
                      seed=DEFAULT_SEED,
                      expected_results=expected["service_results"])
    if result.failed:
        print("service:", result.problems)
        return 1
    expected["counts"]["service"] = result.counts[0]
    run.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True)
                            + "\n")
    print(f"wrote {run.EXPECTED}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
