"""The ``service`` workload: closed-loop clients against ``c2bound serve``.

A fresh server (``serve.py``, ``--job-workers 1``, a fresh
``--state-dir`` and ``--sim-cache``) takes :data:`CLIENTS` closed-loop
clients: each submits its next job only after the previous one reached
a terminal state, which it learns by polling every :data:`POLL_S`
seconds on average (each wait drawn uniformly from [0.5, 1.5] x
:data:`POLL_S`, so two clients do not lock into one relative phase).

A job's latency runs from the client's submit to the poll that sees it
terminal (``t_seen``).  A cache hit takes a few ms of server work, less
than the first poll's wait, so for a hit that latency is mostly the
poll wait and cannot see the hit path.  ``serve.py`` therefore also
stamps the moment the server makes each job terminal (``t_done``, on
the server's clock; both clocks are ``time.perf_counter()``, the
system-wide monotonic clock on Linux), and :func:`latency_metrics`
reports submit-to-stamp as ``job_server_p50_ms``.  Polling every few
ms instead would load the server: the polls compete with the jobs for
its interpreter lock and slow what they measure.

Every job is a simulator sweep (2 core counts x 2 issue widths) over a
small ``tmm``, ``gups`` or ``stencil`` workload.  The specs come from
one pool drawn from the seed and dealt to the clients; each client
submits each of its :data:`DISTINCT` specs once, then repeats them.
A first occurrence misses the simulation cache (simulate,
``SimCacheStore.put``, journal) and a repeat hits it (``get`` only).
Because no spec is shared between clients, and a client's repeat
always follows its first occurrence, the hit and miss counts are exact
whatever the interleaving.

The mix is synthetic: no recorded usage of the service exists.  The
miss share, :data:`DISTINCT` / :data:`JOBS_PER_CLIENT` = 20%, puts
``job_p50_ms`` in the middle of the hit mode and ``job_p90_ms`` in the
middle of the miss mode (the 108th of 120 latencies is the 12th of 24
misses), so neither quantile sits on a mode boundary, where it would
flip from run to run.  Sharing specs between clients would make the
hit and miss counts depend on the interleaving (two clients simulating
one spec at once both miss), and those counts must repeat exactly.
Surrogate-only sweeps are left out: their latency forms a third mode
between hits and misses, and a quantile sitting on a mode boundary
flips from run to run.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from procs import program_env, reap

CLIENTS = 2
DISTINCT = 12
JOBS_PER_CLIENT = 60
POLL_S = 0.030
JOB_TIMEOUT_S = 60.0
TERMINAL = ("done", "failed", "timeout", "cancelled")

#: Per workload kind, the fixed problem size (the seed varies the
#: simulation seed and ROB size, not the amount of simulated work).
KINDS = {
    "tmm": {"n": 16, "tile": 8},
    "gups": {"updates": 4000, "table_kib": 4096},
    "stencil": {"n": 1536, "iterations": 2},
}


def job_mix(seed: int) -> "tuple[list[dict], list[list[int]]]":
    """``(pool, per-client sequences of pool indices)`` for one seed.

    Each client first submits its :data:`DISTINCT` new specs (misses),
    then :data:`JOBS_PER_CLIENT` - :data:`DISTINCT` repeats drawn from
    them (hits).  The clients' i-th new specs are of the same kind, so
    they simulate side by side; a hit never shares the interpreter lock
    with the other client's simulation except around the phase change.
    """
    rng = random.Random(seed)
    kinds = [kind for kind in KINDS for _ in range(DISTINCT // len(KINDS))]
    rng.shuffle(kinds)
    pool = []   # pool[i * CLIENTS + c] is client c's i-th new spec
    for kind in kinds:
        for _client in range(CLIENTS):
            pool.append({
                "kind": "sweep",
                "space": {"params": [
                    {"name": "n", "values": [2, 4]},
                    {"name": "issue_width", "values": [2, 4]},
                    {"name": "rob_size",
                     "values": [rng.choice((32, 64, 128))]}]},
                "evaluator": {"type": "simulator", "workload": kind,
                              "workload_args": dict(KINDS[kind]),
                              "seed": rng.randrange(1, 2 ** 31)}})
    sequences = []
    for client in range(CLIENTS):
        mine = list(range(client, len(pool), CLIENTS))
        sequences.append(mine + [rng.choice(mine) for _ in
                                 range(JOBS_PER_CLIENT - DISTINCT)])
    return pool, sequences


def result_digest(result: dict) -> str:
    """sha256 of a job result's canonical JSON encoding."""
    from repro.service.wire import canonical_json
    return hashlib.sha256(canonical_json(result).encode()).hexdigest()


def inline_digests(pool: "list[dict]") -> "list[str]":
    """Each pool spec's result from an inline ``run_job`` (no cache)."""
    from repro.dse.jobs import run_job
    out = []
    for spec in pool:
        inline = json.loads(json.dumps(spec))
        inline["evaluator"]["cache"] = None
        out.append(result_digest(run_job(inline)))
    return out


def _request(port: int, method: str, path: str, body: "bytes | None" = None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        resp = conn.getresponse()
        data = resp.read()
        return resp.status, (json.loads(data) if data else None)
    finally:
        conn.close()


class Server:
    """One benchmark-owned server process and how long it took to be ready."""

    def __init__(self, root: Path, work: Path, *, trace: bool,
                 spans: "Path | None" = None) -> None:
        work.mkdir(parents=True)
        self.work = work
        self.dump = work / "dump.json"
        cmd = [sys.executable, str(root / "perfbench" / "serve.py"),
               "--dump", str(self.dump)]
        if trace:
            cmd += ["--trace"] + (["--spans", str(spans)] if spans else [])
        cmd += ["--", "--state-dir", str(work / "state"), "--port", "0",
                "--job-workers", "1", "--sim-cache", str(work / "cache")]
        self.log = open(work / "server.log", "wb")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, env=program_env(root), cwd=root,
                                     stdout=self.log, stderr=self.log)
        self.peak_rss_mib = None
        try:
            self.port = self._wait_ready(work / "state" / "server.json")
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            self.log.close()
            raise
        self.setup_s = time.perf_counter() - t0

    def _wait_ready(self, discovery: Path, limit_s: float = 60.0) -> int:
        deadline = time.perf_counter() + limit_s
        port = None
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited early (code "
                                   f"{self.proc.returncode}); see "
                                   f"{self.work / 'server.log'}")
            if port is None and discovery.exists():
                try:
                    port = int(json.loads(discovery.read_text())["port"])
                except (ValueError, KeyError):
                    port = None
            if port is not None:
                try:
                    if _request(port, "GET", "/readyz")[0] == 200:
                        return port
                except OSError:
                    pass
            time.sleep(0.002)
        raise RuntimeError("server not ready within "
                           f"{limit_s:.0f} s")

    def stop(self, limit_s: float = 30.0) -> dict:
        """SIGTERM, reap (recording peak RSS) and read the dump."""
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
            self.peak_rss_mib = reap(self.proc,
                                     time.perf_counter() + limit_s)
        self.log.close()
        try:
            return json.loads(self.dump.read_text())
        except (OSError, ValueError):
            return {}


def _client(port: int, tenant: str, pool, seq, records: list,
            rng: random.Random) -> None:
    for index in seq:
        body = json.dumps({"schema": "c2bound.job/1", "tenant": tenant,
                           "job": pool[index]}).encode()
        rec = {"spec": index, "status": "refused", "result": None}
        records.append(rec)
        rec["t_submit"] = time.perf_counter()
        try:
            status, doc = _request(port, "POST", "/v1/jobs", body)
        except OSError as exc:
            rec["error"] = repr(exc)
            continue
        rec["t_accepted"] = time.perf_counter()
        if status != 202:
            rec["error"] = f"HTTP {status}: {doc}"
            continue
        rec["job"] = doc["job_id"]
        deadline = rec["t_accepted"] + JOB_TIMEOUT_S
        while True:
            time.sleep(POLL_S * (0.5 + rng.random()))
            try:
                _status, doc = _request(port, "GET", f"/v1/jobs/{rec['job']}")
            except OSError:
                doc = None
            if doc is not None and doc.get("status") in TERMINAL:
                rec["t_seen"] = time.perf_counter()
                rec["status"] = doc["status"]
                rec["result"] = doc.get("result")
                break
            if time.perf_counter() > deadline:
                rec["status"] = "client-timeout"
                break


def run_round(server: Server, pool, sequences, seed: int) -> "list[dict]":
    """Drive the clients to completion; returns one record per job.

    A record's ``t_done`` (the server's terminal stamp) is added by
    :func:`add_terminal_stamps` once the server has stopped.
    """
    per_client = [[] for _ in sequences]
    threads = [threading.Thread(target=_client,
                                args=(server.port, f"client{c}", pool, seq,
                                      per_client[c],
                                      random.Random(seed * CLIENTS + c)))
               for c, seq in enumerate(sequences)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return [rec for recs in per_client for rec in recs]


def add_terminal_stamps(records: "list[dict]", dump: dict) -> None:
    """Set each finished record's ``t_done`` from the server's stamps."""
    stamps = dump.get("terminal", {})
    for rec in records:
        if "t_seen" in rec and rec.get("job") in stamps:
            rec["t_done"] = stamps[rec["job"]]


def p90(values) -> float:
    return statistics.quantiles(values, n=10)[8]


def round_wall(records: "list[dict]") -> float:
    """First submit to last terminal job of one round."""
    return (max(r.get("t_seen", r["t_submit"]) for r in records)
            - min(r["t_submit"] for r in records))


def latency_metrics(records: "list[dict]") -> dict:
    """Job latency quantiles (submit to the client seeing the job
    terminal), the median submit to the server's terminal stamp, and the
    median POST-to-202 time.

    Jobs that never completed count as failed, not as latencies.
    """
    latencies = [(r["t_seen"] - r["t_submit"]) * 1e3 for r in records
                 if "t_done" in r]
    server = [(r["t_done"] - r["t_submit"]) * 1e3 for r in records
              if "t_done" in r]
    submits = [(r["t_accepted"] - r["t_submit"]) * 1e3 for r in records
               if "t_accepted" in r]
    nan = float("nan")
    return {
        "job_p50_ms": statistics.median(latencies) if latencies else nan,
        "job_p90_ms": p90(latencies) if len(latencies) > 1 else nan,
        "job_server_p50_ms": statistics.median(server) if server else nan,
        "submit_p50_ms": statistics.median(submits) if submits else nan,
    }


def stage_metrics(records: "list[dict]", jobs: dict) -> dict:
    """Per-stage medians from the client's clock and the traced server's
    ``run_job`` intervals (same monotonic clock, same host).

    ``queue_wait`` runs from the 202 to ``run_job`` entry and can be
    slightly negative when the scheduler starts a job before its 202
    reaches the client; ``overhead`` is what is left of the latency:
    the POST, and the time from ``run_job`` return until the client's
    poll sees the terminal state.
    """
    waits, runs, overheads = [], [], []
    for r in records:
        span = jobs.get(r.get("job"))
        if span is None or "t_done" not in r:
            continue
        start, end = span
        waits.append((start - r["t_accepted"]) * 1e3)
        runs.append((end - start) * 1e3)
        overheads.append(((r["t_seen"] - r["t_submit"]) * 1e3)
                         - waits[-1] - runs[-1])
    return {
        "service.queue_wait_p50_ms":
            statistics.median(waits) if waits else 0.0,
        "service.run_job_p50_ms": statistics.median(runs) if runs else 0.0,
        "service.overhead_p50_ms":
            statistics.median(overheads) if overheads else 0.0,
    }
