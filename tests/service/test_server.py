"""End-to-end tests of the asyncio HTTP shell (no third-party client:
a minimal stream-based HTTP/1.1 helper drives the real server on an
ephemeral port)."""

from __future__ import annotations

import asyncio
import json
import threading

from repro.dse.jobs import run_job
from repro.errors import WorkerCrashError
from repro.service import JobRequest, ServiceConfig, ServiceState, TenantQuota
from repro.service.server import JobServer
from repro.service.wire import canonical_json

SPACE = {"params": [
    {"name": "a0", "values": [2, 4, 8]},
    {"name": "a1", "values": [1, 2]},
    {"name": "a2", "values": [1, 2]},
    {"name": "n", "values": [4, 8, 16]},
]}


def payload(tenant="alice", priority=5, deadline_s=None, evaluator=None):
    body = {"schema": "c2bound.job/1", "tenant": tenant,
            "priority": priority,
            "job": {"kind": "sweep", "space": SPACE}}
    if deadline_s is not None:
        body["deadline_s"] = deadline_s
    if evaluator is not None:
        body["job"]["evaluator"] = evaluator
    return body


async def http(port, method, path, body=None):
    """One request against 127.0.0.1:port → (status, headers, bytes)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    data = json.dumps(body).encode() if body is not None else b""
    head = (f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {len(data)}\r\nConnection: close\r\n\r\n")
    writer.write(head.encode() + data)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    header_blob, _, payload_bytes = raw.partition(b"\r\n\r\n")
    lines = header_blob.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, payload_bytes


async def wait_terminal(port, job_id, timeout=60.0):
    loop = asyncio.get_running_loop()
    end = loop.time() + timeout
    while loop.time() < end:
        _, _, raw = await http(port, "GET", f"/v1/jobs/{job_id}")
        doc = json.loads(raw)
        if doc["status"] not in ("queued", "running"):
            return doc
        await asyncio.sleep(0.02)
    raise AssertionError(f"job {job_id} never finished")


def run_with_server(coro_fn, tmp_path, config=None, **server_kwargs):
    """Start a JobServer, run ``coro_fn(server)``, stop it."""
    async def main():
        state = ServiceState(tmp_path / "state", config)
        server = JobServer(state, port=0, **server_kwargs)
        await server.start()
        try:
            return await coro_fn(server)
        finally:
            await server.stop()
    return asyncio.run(main())


class TestRoutes:
    def test_health_ready_and_discovery(self, tmp_path):
        async def scenario(server):
            status, _, raw = await http(server.port, "GET", "/healthz")
            assert status == 200
            doc = json.loads(raw)
            assert doc["ok"] and "queue" in doc and "breaker" in doc
            status, _, raw = await http(server.port, "GET", "/readyz")
            assert status == 200 and json.loads(raw) == {"ready": True}
            disc = json.loads(
                (server.state.state_dir / "server.json").read_text())
            assert disc["port"] == server.port

        run_with_server(scenario, tmp_path)

    def test_submit_run_result_trace(self, tmp_path):
        async def scenario(server):
            status, _, raw = await http(server.port, "POST", "/v1/jobs",
                                        payload())
            assert status == 202
            job_id = json.loads(raw)["job_id"]
            doc = await wait_terminal(server.port, job_id)
            assert doc["status"] == "done"
            assert doc["charged"] == doc["result"]["evaluations"] > 0
            assert doc["result"]["degraded"] is False
            status, _, raw = await http(server.port, "GET",
                                        f"/v1/jobs/{job_id}/trace")
            assert status == 200
            lines = [json.loads(l) for l in raw.decode().splitlines()]
            assert lines[0]["type"] == "run"
            assert lines[-1]["type"] == "span"
            assert lines[-1]["attrs"]["status"] == "done"

        run_with_server(scenario, tmp_path)

    def test_rejections(self, tmp_path):
        async def scenario(server):
            status, _, _ = await http(server.port, "GET", "/nope")
            assert status == 404
            status, _, _ = await http(server.port, "DELETE", "/v1/jobs/x")
            assert status == 404
            status, _, raw = await http(server.port, "POST", "/v1/jobs",
                                        {"schema": "bogus"})
            assert status == 400
            status, _, _ = await http(server.port, "POST", "/v1/jobs",
                                      payload(priority=99))
            assert status == 400

        run_with_server(scenario, tmp_path)

    def test_backpressure_is_429_with_retry_after(self, tmp_path,
                                                  monkeypatch):
        # Hold every job at the gate until all submissions are in: a
        # surrogate sweep finishes in about a millisecond, so without
        # the gate the running slots could drain between requests and
        # the depth cap might never be reached.
        from repro.dse.jobs import run_job as real_run_job

        release = threading.Event()

        def gated_run_job(spec, **kwargs):
            assert release.wait(timeout=60.0), "gate never released"
            return real_run_job(spec, **kwargs)

        monkeypatch.setattr("repro.service.server.run_job", gated_run_job)
        config = ServiceConfig(max_depth=1)

        async def scenario(server):
            accepted, shed = [], []
            try:
                await submit_all(server, accepted, shed)
            finally:
                release.set()
            assert shed, "queue never filled — depth gate untested"
            assert "queue_full" in shed
            # Every accepted job still completes.
            for job_id in accepted:
                doc = await wait_terminal(server.port, job_id)
                assert doc["status"] == "done"

        async def submit_all(server, accepted, shed):
            for _ in range(30):
                status, headers, raw = await http(
                    server.port, "POST", "/v1/jobs", payload(priority=9))
                if status == 202:
                    accepted.append(json.loads(raw)["job_id"])
                else:
                    assert status == 429
                    assert float(headers["retry-after"]) > 0
                    shed.append(json.loads(raw)["reason"])

        run_with_server(scenario, tmp_path, config=config)

    def test_cancel_queued_job(self, tmp_path):
        config = ServiceConfig(
            quotas={"alice": TenantQuota(max_concurrency=1,
                                         max_queued=16)})

        async def scenario(server):
            ids = []
            for _ in range(4):
                _, _, raw = await http(server.port, "POST", "/v1/jobs",
                                       payload())
                ids.append(json.loads(raw)["job_id"])
            status, _, raw = await http(server.port, "DELETE",
                                        f"/v1/jobs/{ids[-1]}")
            if status == 200:
                assert json.loads(raw)["status"] == "cancelled"
            else:
                assert status == 409  # it already started — legal race
            for job_id in ids[:-1]:
                await wait_terminal(server.port, job_id)

        run_with_server(scenario, tmp_path, config=config)

    def test_deadline_times_out(self, tmp_path):
        async def scenario(server):
            _, _, raw = await http(server.port, "POST", "/v1/jobs",
                                   payload(deadline_s=1e-6))
            doc = await wait_terminal(server.port, json.loads(raw)["job_id"])
            assert doc["status"] == "timeout"
            assert doc["charged"] == 0

        run_with_server(scenario, tmp_path)

    def test_pooled_job_workers_match_inline(self, tmp_path):
        """``job_workers=2`` runs each job on a process pool; the result
        is byte-identical to the inline run and progress still streams
        into the job's trace."""
        body = payload()
        body["job"]["batch_size"] = 8
        want = canonical_json(run_job(body["job"], workers=1))

        async def scenario(server):
            status, _, raw = await http(server.port, "POST", "/v1/jobs",
                                        body)
            assert status == 202
            job_id = json.loads(raw)["job_id"]
            doc = await wait_terminal(server.port, job_id)
            assert doc["status"] == "done", doc
            assert canonical_json(doc["result"]) == want
            _, _, raw = await http(server.port, "GET",
                                   f"/v1/jobs/{job_id}/trace")
            progress = [json.loads(l) for l in raw.decode().splitlines()
                        if '"service.job.progress"' in l]
            assert progress
            assert (progress[-1]["attrs"]["evaluated"]
                    == doc["result"]["evaluations"])

        run_with_server(scenario, tmp_path, job_workers=2)


class TestDegradation:
    def test_breaker_trips_and_degrades(self, tmp_path, monkeypatch):
        """Simulator jobs that keep crashing trip the breaker; once
        tripped, the tier serves analytic answers marked degraded."""
        from repro.dse.jobs import run_job as real_run_job

        def flaky_run_job(spec, **kwargs):
            if (spec.get("evaluator") or {}).get("type") == "simulator":
                if not kwargs.get("degraded"):
                    raise WorkerCrashError("simulated tier outage")
                clone = dict(spec)
                clone["evaluator"] = {"type": "surrogate"}
                result = real_run_job(clone, **kwargs)
                result["evaluator"] = "simulator"
                return result
            return real_run_job(spec, **kwargs)

        monkeypatch.setattr("repro.service.server.run_job", flaky_run_job)
        config = ServiceConfig(breaker_threshold=2, breaker_reset_s=3600.0)

        async def scenario(server):
            sim = {"type": "simulator", "cache": None}
            docs = []
            for _ in range(3):
                _, _, raw = await http(server.port, "POST", "/v1/jobs",
                                       payload(evaluator=sim))
                docs.append(await wait_terminal(
                    server.port, json.loads(raw)["job_id"]))
            # First failure: breaker still closed → surfaced as failed.
            assert docs[0]["status"] == "failed"
            # Second failure trips it → that very job degrades in place.
            assert docs[1]["status"] == "done"
            assert docs[1]["result"]["degraded"] is True
            # Breaker now open → straight to the ladder, tier untouched.
            assert docs[2]["status"] == "done"
            assert docs[2]["result"]["degraded"] is True
            assert server.state.breaker.trips == 1

        run_with_server(scenario, tmp_path, config=config)


class TestRestartRecovery:
    def test_inflight_jobs_resume_and_charge_once(self, tmp_path):
        """Submit three jobs, 'crash' before any run, restart: every
        job completes with the uninterrupted result and each tenant is
        charged exactly once."""
        from repro.dse.jobs import run_job

        state_dir = tmp_path / "state"
        crashed = ServiceState(state_dir)
        ids = [crashed.submit(JobRequest(
            tenant="alice" if i % 2 == 0 else "bob", priority=i % 3,
            deadline_s=None, spec={"kind": "sweep", "space": SPACE})
        ).job_id for i in range(3)]
        crashed.registry.close()  # SIGKILL analogue: nothing else runs

        expected = run_job({"kind": "sweep", "space": SPACE})

        async def scenario():
            state = ServiceState(state_dir)
            server = JobServer(state, port=0, max_running=2)
            await server.start()
            try:
                for job_id in ids:
                    doc = await wait_terminal(server.port, job_id)
                    assert doc["status"] == "done"
                    assert doc["resumed"] is True
                    assert doc["result"] == expected
                per_job = expected["evaluations"]
                assert state.accounts.charged["alice"] == 2 * per_job
                assert state.accounts.charged["bob"] == per_job
            finally:
                await server.stop()

        asyncio.run(scenario())
