"""Launcher for the ``service`` workload's server process.

Runs ``repro.service.cli.main`` — the code ``c2bound serve`` dispatches
to — with the arguments after ``--``.  It always stamps the moment each
job turns terminal (``ServiceState.complete``/``fail`` return; one
``perf_counter`` call per job); with ``--trace`` it also wraps the
layers (see ``layers.py``).  When the server has stopped (SIGTERM), it
writes the terminal stamps, the metrics registry's counters and, when
traced, the span totals and each job's ``run_job`` interval to
``--dump``.

    python3 perfbench/serve.py --dump D.json [--trace --spans S.jsonl] \\
        -- --state-dir DIR --port 0 --job-workers 1 --sim-cache CACHE
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.obs import get_registry
from repro.service.cli import main as serve_main
from repro.service.state import ServiceState

from layers import SpanRecorder, install


def stamp_terminal(stamps: dict) -> None:
    """Record ``stamps[job_id]`` = ``perf_counter()`` when a job has been
    made terminal and journaled."""
    for name in ("complete", "fail"):
        original = getattr(ServiceState, name)

        def stamped(self, job_id, *args, _original=original, **kwargs):
            job = _original(self, job_id, *args, **kwargs)
            stamps[job_id] = time.perf_counter()
            return job

        setattr(ServiceState, name, stamped)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser()
    parser.add_argument("--dump", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv[:split])

    stamps: dict = {}
    stamp_terminal(stamps)
    recorder = None
    if args.trace:
        recorder = SpanRecorder()
        install(recorder)
    try:
        return serve_main(argv[split + 1:])
    finally:
        doc = {"terminal": stamps,
               "counters": get_registry().snapshot().get("counters", {})}
        if recorder is not None:
            doc["totals"] = recorder.totals
            doc["self_s"] = recorder.self_time()
            doc["jobs"] = {s[5]["job"]: [s[3], s[4]] for s in recorder.spans
                           if s[0] == "service.run_job" and s[5]}
            if args.spans is not None:
                recorder.write(args.spans)
        args.dump.write_text(json.dumps(doc))


if __name__ == "__main__":
    raise SystemExit(main())
