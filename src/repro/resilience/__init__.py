"""Fault tolerance for long-horizon DSE runs (``docs/ROBUSTNESS.md``).

The paper's workload — APS narrowing a 10^6-point space to ~10^2
simulations — is exactly the kind of hours-long sweep that must survive
a crashed pool worker, a hung simulation, a corrupt cache file or a
SIGTERM without losing work *or* determinism.  This package supplies
the three layers that make that true:

- :mod:`repro.resilience.policy` — deterministic retry/backoff/timeout
  primitives (:class:`RetryPolicy`, :class:`Deadline`,
  :func:`retry_call`) over the
  :class:`~repro.errors.TransientError` / :class:`~repro.errors.FatalError`
  taxonomy, with injectable clock and sleep so retries are reproducible;
- :mod:`repro.resilience.checkpoint` — append-only JSONL journals
  (schema ``c2bound.checkpoint/1``) of every charged evaluation, and
  the replay-based resume every search method inherits through
  :class:`~repro.dse.evaluate.BudgetedEvaluator`;
- :mod:`repro.resilience.job_registry` — the job server's durable
  ledger (schema ``c2bound.jobs/1``): admitted jobs and their terminal
  outcomes, replayed on restart so in-flight jobs resume with their
  original admission order and budgets are charged exactly once;
- :mod:`repro.resilience.faults` — the seeded fault-injection harness
  (worker crashes, delays, transient/fatal raises, cache corruption)
  behind ``tests/resilience`` and the chaos CI job.

The consumers are :class:`repro.dse.fabric.FabricEvaluator` (unit
resubmission, pool rebuilds, serial fallback) and the CLI
(``--checkpoint DIR`` / ``--resume``).  Every retry, failover and
restore is published as a ``resilience.*`` metric and lands in run
manifests.
"""

from repro.resilience.policy import (
    Deadline,
    RetryPolicy,
    deterministic_unit,
    retry_call,
)
from repro.resilience.checkpoint import (
    CHECKPOINT_SCHEMA,
    CheckpointDefaults,
    CheckpointJournal,
    checkpoint_hash,
    get_checkpoint_defaults,
    journal_for_method,
    load_journal,
    new_run_id,
    read_journal_headers,
    set_checkpoint_defaults,
)
from repro.resilience.job_registry import (
    JOBS_SCHEMA,
    JobRegistry,
    RegistryReplay,
    replay_registry,
)
from repro.resilience.faults import (
    CRASH_EXIT_STATUS,
    ExitAfter,
    Fault,
    FaultInjector,
    FaultPlan,
    FaultyEvaluator,
    config_token,
    corrupt_cache_entries,
)

__all__ = [
    "RetryPolicy",
    "Deadline",
    "retry_call",
    "deterministic_unit",
    "CHECKPOINT_SCHEMA",
    "CheckpointJournal",
    "CheckpointDefaults",
    "checkpoint_hash",
    "load_journal",
    "new_run_id",
    "read_journal_headers",
    "get_checkpoint_defaults",
    "set_checkpoint_defaults",
    "journal_for_method",
    "JOBS_SCHEMA",
    "JobRegistry",
    "RegistryReplay",
    "replay_registry",
    "CRASH_EXIT_STATUS",
    "Fault",
    "FaultPlan",
    "FaultInjector",
    "FaultyEvaluator",
    "ExitAfter",
    "config_token",
    "corrupt_cache_entries",
]
