"""CI service chaos gate: the job server must lose nothing to SIGKILL
and shed load explicitly under saturation (``docs/SERVICE.md``).

Three end-to-end checks against a **real** server subprocess:

1. **SIGKILL + restart** — submit four multi-tenant jobs, wait until
   at least three are simultaneously in flight, SIGKILL the server,
   restart it on the same state directory, and assert every job
   resumes (``resumed: true``) to a result **bit-identical** to its
   uninterrupted twin — verified through ``c2bound diff`` (exit 0 on
   a per-job run directory pair) — with per-tenant evaluation budgets
   charged exactly once across the crash.
2. **Saturating burst** — 1000 synthetic clients against a
   queue-depth-4 server: every shed submission gets ``429`` with a
   machine-readable reason and a ``Retry-After`` header, every
   accepted job completes, and the server survives to shut down
   gracefully on SIGTERM.
3. **Pooled jobs** — a ``--job-workers 2`` server runs ten 36-point
   surrogate sweeps on per-job process pools; every result must be
   byte-identical (canonical JSON) to the inline ``--job-workers 1``
   path.

Exits non-zero with a diagnostic on any violation.  Usage::

    PYTHONPATH=src python scripts/service_chaos_check.py [state-dir]
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

from repro.dse.jobs import run_job
from repro.obs.report import diff_command
from repro.service.wire import canonical_json

SRC = Path(__file__).resolve().parents[1] / "src"

#: ~27k-point space: a few seconds per job with batch_size=1, so the
#: kill reliably lands with jobs mid-sweep.
BIG_SPACE = {"params": [
    {"name": "a0", "values": [0.25, 0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0]},
    {"name": "a1", "values": [0.1, 0.2, 0.4, 0.8, 1.2, 1.6]},
    {"name": "a2", "values": [0.5, 1.0, 2.0, 3.0, 4.0, 6.0]},
    {"name": "n", "values": [2, 4, 8, 16, 32, 64, 128, 256]},
    {"name": "issue_width", "values": [1, 2, 4, 8]},
    {"name": "rob_size", "values": [32, 128, 512]},
]}

TINY_SPACE = {"params": [
    {"name": "a0", "values": [2, 4]},
    {"name": "a1", "values": [1]},
    {"name": "a2", "values": [1]},
    {"name": "n", "values": [4, 8]},
]}

#: 36 points: the pooled-job leg's sweep.
POOL_SPACE = {"params": [
    {"name": "a0", "values": [2, 4, 8]},
    {"name": "a1", "values": [1, 2]},
    {"name": "a2", "values": [1, 2]},
    {"name": "n", "values": [4, 8, 16]},
]}

SHED_REASONS = {"queue_full", "memory_watermark", "tenant_quota",
                "budget_exhausted"}


def _fail(message: str) -> None:
    print(f"FAIL: {message}")
    sys.exit(1)


def http(port: int, method: str, path: str, payload=None):
    """One request → (status, headers, parsed JSON body)."""
    data = (json.dumps(payload).encode() if payload is not None else None)
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=data, method=method,
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, dict(response.headers), \
                json.loads(response.read() or b"{}")
    except urllib.error.HTTPError as err:
        body = err.read()
        try:
            doc = json.loads(body) if body else {}
        except json.JSONDecodeError:
            doc = {"raw": body.decode("latin-1")}
        return err.code, dict(err.headers), doc


def start_server(state_dir: Path, *extra: str) -> "tuple[subprocess.Popen, int]":
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    discovery = state_dir / "server.json"
    if discovery.exists():
        discovery.unlink()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--state-dir", str(state_dir), "--port", "0", *extra],
        env=env)
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            _fail(f"server exited {proc.returncode} during startup")
        if discovery.exists():
            try:
                port = json.loads(discovery.read_text())["port"]
                status, _, _ = http(port, "GET", "/healthz")
                if status == 200:
                    return proc, port
            except (OSError, json.JSONDecodeError, KeyError):
                pass
        time.sleep(0.1)
    proc.kill()
    _fail("server did not become healthy within 60 s")
    raise AssertionError  # unreachable


def job_spec(index: int) -> dict:
    """Per-job spec: distinct ``a0`` tails so each job has its own
    twin result (a copy-paste mixup would be caught, not masked)."""
    space = {"params": [dict(p) for p in BIG_SPACE["params"]]}
    space["params"][0] = {
        "name": "a0",
        "values": BIG_SPACE["params"][0]["values"][: 5 + index]}
    return {"kind": "sweep", "space": space, "batch_size": 1}


def write_run_dir(run_dir: Path, result: dict) -> None:
    """Render a job result as a run directory ``c2bound diff`` groks:
    one CSV, one row per field, values in canonical JSON."""
    run_dir.mkdir(parents=True, exist_ok=True)
    rows = "".join(f"{key},{canonical_json(result[key])}\n"
                   for key in sorted(result))
    (run_dir / "result.csv").write_text("field,value\n" + rows)


def check_kill_and_resume(base: Path) -> None:
    state_dir = base / "kill"
    tenants = ["alice", "bob", "alice", "bob"]
    proc, port = start_server(state_dir, "--max-running", "3",
                              "--default-concurrency", "2")

    ids = []
    for index, tenant in enumerate(tenants):
        status, _, doc = http(port, "POST", "/v1/jobs", {
            "schema": "c2bound.job/1", "tenant": tenant,
            "priority": index % 3, "job": job_spec(index)})
        if status != 202:
            proc.kill()
            _fail(f"submission {index} rejected: {status} {doc}")
        ids.append(doc["job_id"])

    deadline = time.monotonic() + 30
    in_flight = 0
    while time.monotonic() < deadline:
        _, _, health = http(port, "GET", "/healthz")
        in_flight = health["running"]
        if in_flight >= 3:
            break
        time.sleep(0.02)
    if in_flight < 3:
        proc.kill()
        _fail(f"never saw >=3 in-flight jobs (got {in_flight}); "
              "grow BIG_SPACE")
    proc.send_signal(signal.SIGKILL)
    proc.wait(timeout=30)
    print(f"killed the server with {in_flight} jobs in flight")

    twins = [run_job(job_spec(index)) for index in range(len(tenants))]

    proc, port = start_server(state_dir, "--max-running", "3",
                              "--default-concurrency", "2")
    try:
        docs = []
        for job_id in ids:
            wait_until = time.monotonic() + 300
            while True:
                _, _, doc = http(port, "GET", f"/v1/jobs/{job_id}")
                if doc["status"] not in ("queued", "running"):
                    break
                if time.monotonic() > wait_until:
                    _fail(f"job {job_id} never finished after restart")
                time.sleep(0.1)
            docs.append(doc)

        for index, doc in enumerate(docs):
            if doc["status"] != "done":
                _fail(f"job {index} ended {doc['status']!r} after "
                      f"restart: {doc.get('error')}")
            if doc["resumed"] is not True:
                _fail(f"job {index} completed without resuming")
            twin_dir = base / "twin" / str(index)
            resumed_dir = base / "resumed" / str(index)
            write_run_dir(twin_dir, twins[index])
            write_run_dir(resumed_dir, doc["result"])
            if diff_command([str(twin_dir), str(resumed_dir),
                             "--quiet"]) != 0:
                diff_command([str(twin_dir), str(resumed_dir)])
                _fail(f"job {index} resumed result is not bit-identical "
                      "to its uninterrupted twin (c2bound diff above)")
            if doc["charged"] != twins[index]["evaluations"]:
                _fail(f"job {index} charged {doc['charged']}, twin "
                      f"evaluated {twins[index]['evaluations']}")

        expected = {tenant: 0 for tenant in tenants}
        for tenant, twin in zip(tenants, twins):
            expected[tenant] += twin["evaluations"]
        _, _, health = http(port, "GET", "/healthz")
        charged = {name: snap["charged"]
                   for name, snap in health["tenants"].items()}
        if charged != expected:
            _fail(f"per-tenant budgets drifted across the crash: "
                  f"charged {charged}, expected {expected}")
    finally:
        proc.terminate()
        proc.wait(timeout=30)
    print(f"kill-and-resume OK: {len(ids)} jobs bit-identical via "
          f"c2bound diff, budgets {expected} charged exactly once")


def check_burst(base: Path) -> None:
    state_dir = base / "burst"
    proc, port = start_server(
        state_dir, "--max-running", "2", "--queue-depth", "4",
        "--default-queued", "2000")
    clients, per_client = 20, 50  # the 1000-client burst
    accepted: "list[str]" = []
    shed: "list[dict]" = []
    errors: "list[str]" = []
    lock = threading.Lock()

    def client(worker: int) -> None:
        for i in range(per_client):
            status, headers, doc = http(port, "POST", "/v1/jobs", {
                "schema": "c2bound.job/1",
                "tenant": f"burst-{worker}", "priority": 5,
                "job": {"kind": "sweep", "space": TINY_SPACE}})
            with lock:
                if status == 202:
                    accepted.append(doc["job_id"])
                elif status == 429:
                    if doc.get("reason") not in SHED_REASONS:
                        errors.append(f"429 without a reason: {doc}")
                    if "Retry-After" not in headers:
                        errors.append("429 without Retry-After")
                    shed.append(doc)
                else:
                    errors.append(f"unexpected status {status}: {doc}")

    threads = [threading.Thread(target=client, args=(w,))
               for w in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    try:
        if errors:
            _fail("burst anomalies:\n" + "\n".join(errors[:10]))
        if not shed:
            _fail(f"burst of {clients * per_client} submissions was "
                  "never shed — the queue gates are not engaging")
        if not accepted:
            _fail("burst shed everything — admission never succeeded")
        if proc.poll() is not None:
            _fail(f"server died under the burst (exit {proc.returncode})")

        deadline = time.monotonic() + 300
        pending = set(accepted)
        while pending and time.monotonic() < deadline:
            job_id = next(iter(pending))
            _, _, doc = http(port, "GET", f"/v1/jobs/{job_id}")
            if doc["status"] == "done":
                pending.discard(job_id)
            elif doc["status"] not in ("queued", "running"):
                _fail(f"accepted job {job_id} ended {doc['status']!r}: "
                      f"{doc.get('error')}")
            else:
                time.sleep(0.05)
        if pending:
            _fail(f"{len(pending)} accepted jobs never completed")
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            _fail("graceful SIGTERM shutdown hung")
    if proc.returncode != 0:
        _fail(f"graceful shutdown exited {proc.returncode}")
    print(f"burst OK: {len(accepted)} accepted (all completed), "
          f"{len(shed)} shed with 429 + Retry-After, "
          "graceful SIGTERM shutdown")


def wait_done(port: int, job_id: str, timeout: float = 300) -> dict:
    """Poll one job to a terminal state; fail unless it is ``done``."""
    wait_until = time.monotonic() + timeout
    while True:
        _, _, doc = http(port, "GET", f"/v1/jobs/{job_id}")
        if doc["status"] not in ("queued", "running"):
            break
        if time.monotonic() > wait_until:
            _fail(f"job {job_id} never finished")
        time.sleep(0.05)
    if doc["status"] != "done":
        _fail(f"job {job_id} ended {doc['status']!r}: {doc.get('error')}")
    return doc


def check_pooled_jobs(base: Path, runs: int = 10) -> None:
    spec = {"kind": "sweep", "space": POOL_SPACE, "batch_size": 8}
    want = canonical_json(run_job(spec, workers=1))
    proc, port = start_server(base / "pooled", "--job-workers", "2")
    try:
        ids = []
        for index in range(runs):
            status, _, doc = http(port, "POST", "/v1/jobs", {
                "schema": "c2bound.job/1", "tenant": f"pool-{index}",
                "priority": 5, "job": spec})
            if status != 202:
                _fail(f"pooled submission {index} rejected: {status} {doc}")
            ids.append(doc["job_id"])
        for index, job_id in enumerate(ids):
            got = canonical_json(wait_done(port, job_id)["result"])
            if got != want:
                _fail(f"pooled job {index} differs from the inline run:\n"
                      f"  {got}\n  {want}")
    finally:
        proc.terminate()
        proc.wait(timeout=30)
    print(f"pooled jobs OK: {runs}/{runs} --job-workers 2 results "
          "byte-identical to --job-workers 1")


def main(argv: "list[str]") -> int:
    base = (Path(argv[1]) if len(argv) > 1
            else Path(tempfile.mkdtemp(prefix="service-chaos-")))
    base.mkdir(parents=True, exist_ok=True)
    check_kill_and_resume(base)
    check_burst(base)
    check_pooled_jobs(base)
    print("service chaos OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
