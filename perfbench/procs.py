"""The benchmark's child processes: their environment, and reaping them."""

from __future__ import annotations

import os
import time
from pathlib import Path


def program_env(root: Path) -> dict:
    """Environment for a child running the program: ``src/`` importable,
    and no simulation cache inherited from ``$C2BOUND_SIM_CACHE``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("C2BOUND_SIM_CACHE", None)
    return env


def reap(proc, deadline: float) -> float:
    """Wait for ``proc`` until ``deadline`` (``time.perf_counter``), then
    kill it.  Sets ``proc.returncode``; returns its peak RSS in MiB."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.perf_counter() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.01)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024.0
