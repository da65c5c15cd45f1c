"""Checkpoint/resume journals for long-running design-space searches.

Schema ``c2bound.checkpoint/1``: an append-only JSONL file whose first
line is a header and whose remaining lines are records::

    {"type": "header", "schema": "c2bound.checkpoint/1", "run_id": "…",
     "method": "aps", "meta": {…}}
    {"type": "eval", "k": [["a0", 1.0], …], "c": "0.0123…"}
    {"type": "state", "tag": "generation", "data": {…}}

- **eval** records are the evaluation ledger: one line per *charged*
  (fresh) evaluation, written by
  :class:`~repro.dse.evaluate.BudgetedEvaluator` the moment the budget
  is spent.  Keys are the canonical configuration items
  (:func:`~repro.dse.evaluate.canonical_key`); costs are ``repr(float)``
  strings, which round-trip IEEE-754 doubles exactly.
- **state** records carry optional search-side snapshots (RNG state,
  generation counters); searches that replay deterministically do not
  need them, but the schema reserves the slot.

Crash safety: lines are written whole and flushed; a crash can only
tear the *final* line, and :meth:`CheckpointJournal.load` tolerates
exactly that (a torn tail is dropped; a torn *middle* line means
tampering and raises :class:`~repro.errors.CheckpointError`).

Resume model — **replay with a warm ledger**: every search in
:mod:`repro.dse` is a deterministic function of its seed, so a resumed
run re-executes the search from the start while the restored ledger
answers already-paid evaluations from cache with their exact recorded
costs *and* restores the budget counters.  The resumed run therefore
reproduces the interrupted run's trajectory bit-for-bit and ends in the
state an uninterrupted run would have reached — same best
configuration, same cost, same total evaluation count
(``tests/resilience`` enforces this; knobs in ``docs/ROBUSTNESS.md``).

:func:`set_checkpoint_defaults` is the process-wide wiring used by the
CLI's ``--checkpoint DIR`` / ``--resume`` flags: once set, every
:class:`~repro.dse.evaluate.BudgetedEvaluator` journals itself into the
directory (one file per search method) with no search-code changes.
"""

from __future__ import annotations

import hashlib
import json
import os
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterator

from repro.errors import CheckpointError
from repro.obs import get_registry

__all__ = ["CHECKPOINT_SCHEMA", "CheckpointJournal", "checkpoint_hash",
           "load_journal", "CheckpointDefaults", "get_checkpoint_defaults",
           "set_checkpoint_defaults", "journal_for_method",
           "read_journal_headers", "new_run_id"]

CHECKPOINT_SCHEMA = "c2bound.checkpoint/1"


def new_run_id() -> str:
    """A fresh run identifier (hex, collision-free for our purposes)."""
    return uuid.uuid4().hex[:16]


def checkpoint_hash(path: "str | Path") -> "str | None":
    """SHA-256 over a journal's bytes (``None`` when it doesn't exist).

    Recorded in resumed runs' manifests so the exact ledger a run
    restarted from is auditable.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError:
        return None
    return hashlib.sha256(data).hexdigest()


def _encode_key(key: tuple) -> list:
    """Canonical-key tuple → JSON array (floats exact via repr)."""
    out = []
    for name, value in key:
        if isinstance(value, float):
            out.append([name, "f", repr(value)])
        else:
            out.append([name, "v", value])
    return out


def _decode_key(items: list) -> tuple:
    """Inverse of :func:`_encode_key`."""
    decoded = []
    for name, tag, value in items:
        decoded.append((name, float(value) if tag == "f" else value))
    return tuple(decoded)


class CheckpointJournal:
    """One search's append-only evaluation ledger.

    Use :meth:`create` for a fresh journal (truncates any existing
    file) or :meth:`open_resume` to append to an existing one after
    reading its records back.  Not constructed directly.
    """

    def __init__(self, path: Path, header: dict, handle: "IO[str]") -> None:
        self.path = path
        self.header = header
        self._handle = handle
        self._ctr_appended = get_registry().counter(
            "resilience.checkpoint.appended")

    # ---- constructors -----------------------------------------------------

    @classmethod
    def create(cls, path: "str | Path", *, method: "str | None" = None,
               run_id: "str | None" = None,
               meta: "dict | None" = None) -> "CheckpointJournal":
        """Start a fresh journal at ``path`` (truncating any old one)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "type": "header",
            "schema": CHECKPOINT_SCHEMA,
            "run_id": run_id if run_id is not None else new_run_id(),
            "method": method,
            "meta": dict(meta) if meta else {},
        }
        handle = open(path, "w")
        handle.write(json.dumps(header, sort_keys=True) + "\n")
        handle.flush()
        return cls(path, header, handle)

    @classmethod
    def open_resume(cls, path: "str | Path", *,
                    method: "str | None" = None) -> "tuple[CheckpointJournal, list[tuple[tuple, float]], list[dict]]":
        """Open an existing journal for appending.

        Returns ``(journal, evals, states)`` where ``evals`` is the
        restored ledger (canonical key, exact cost) in append order and
        ``states`` the raw state records.  When ``method`` is given it
        must match the header's.

        A missing file degenerates to :meth:`create` with empty
        restores — resuming a run that never checkpointed is just a
        fresh run.
        """
        path = Path(path)
        if not path.exists():
            return cls.create(path, method=method), [], []
        header, records = _parse_journal(path)
        evals, states = _split_records(path, records)
        if method is not None and header.get("method") not in (None, method):
            raise CheckpointError(
                f"checkpoint {path} was written by method "
                f"{header.get('method')!r}, not {method!r}")
        # Re-write the surviving prefix (in original order) so a torn
        # tail from the crashed writer is healed before we append.
        tmp = path.with_suffix(path.suffix + ".resume-tmp")
        with open(tmp, "w") as out:
            out.write(json.dumps(header, sort_keys=True) + "\n")
            for record in records:
                out.write(json.dumps(record, sort_keys=True) + "\n")
        os.replace(tmp, path)
        handle = open(path, "a")
        return cls(path, header, handle), evals, states

    # ---- writing ----------------------------------------------------------

    def append_eval(self, key: tuple, cost: float) -> None:
        """Ledger one charged evaluation (flushed immediately)."""
        self._handle.write(_eval_line(key, cost))
        self._handle.flush()
        self._ctr_appended.inc()

    def append_evals(self, entries: "list[tuple[tuple, float]]") -> None:
        """Ledger a batch of charged evaluations with one flush."""
        if not entries:
            return
        self._handle.write(
            "".join(_eval_line(key, cost) for key, cost in entries))
        self._handle.flush()
        self._ctr_appended.inc(len(entries))

    def append_state(self, tag: str, data: dict) -> None:
        """Record an optional search-state snapshot."""
        record = {"type": "state", "tag": tag, "data": data}
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()

    def close(self) -> None:
        """Flush and close the underlying file (idempotent)."""
        if not self._handle.closed:
            self._handle.flush()
            self._handle.close()

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def _eval_line(key: tuple, cost: float) -> str:
    record = {"type": "eval", "k": _encode_key(key), "c": repr(float(cost))}
    return json.dumps(record, sort_keys=True) + "\n"


def _parse_journal(path: Path) -> "tuple[dict, list[dict]]":
    """Parse a journal into ``(header, body records)``.

    Tolerates a torn final line (the only tear an append-only writer
    can produce); anything else malformed raises
    :class:`~repro.errors.CheckpointError`.
    """
    try:
        text = path.read_text()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    lines = text.split("\n")
    # A well-formed file ends with "\n" → last element is "".  Anything
    # after the final newline is a torn tail and is dropped.
    torn = lines.pop() if lines else ""
    if torn:
        get_registry().counter("resilience.checkpoint.torn_tail").inc()
    records: list[dict] = []
    for lineno, line in enumerate(lines, start=1):
        if not line:
            continue
        try:
            records.append(json.loads(line))
        except ValueError as exc:
            raise CheckpointError(
                f"checkpoint {path} line {lineno} is corrupt "
                "(not a torn tail — refusing to resume)") from exc
    if not records:
        raise CheckpointError(f"checkpoint {path} has no header")
    header = records[0]
    if header.get("type") != "header" or header.get("schema") != CHECKPOINT_SCHEMA:
        raise CheckpointError(
            f"checkpoint {path} has an invalid header "
            f"(schema {header.get('schema')!r})")
    return header, records[1:]


def _split_records(path: Path,
                   records: "list[dict]") -> "tuple[list[tuple[tuple, float]], list[dict]]":
    """Body records → (evaluation ledger, state snapshots)."""
    evals: list[tuple[tuple, float]] = []
    states: list[dict] = []
    for record in records:
        kind = record.get("type")
        if kind == "eval":
            try:
                evals.append((_decode_key(record["k"]),
                              float(record["c"])))
            except (KeyError, TypeError, ValueError) as exc:
                raise CheckpointError(
                    f"checkpoint {path} has a malformed eval record") from exc
        elif kind == "state":
            states.append(record)
        else:
            raise CheckpointError(
                f"checkpoint {path} has an unknown record type {kind!r}")
    return evals, states


def load_journal(path: "str | Path") -> "tuple[dict, list[tuple[tuple, float]], list[dict]]":
    """Read a journal back: ``(header, evals, states)``."""
    path = Path(path)
    header, records = _parse_journal(path)
    evals, states = _split_records(path, records)
    return header, evals, states


def read_journal_headers(directory: "str | Path") -> "list[dict]":
    """Headers of every journal in a checkpoint directory.

    Used for manifest lineage: the ``run_id`` of each journal names the
    run that *created* it (resumes append, so the header survives).
    Unreadable or header-less files are skipped — lineage reporting
    must never fail a run.
    """
    headers: list[dict] = []
    for path in sorted(Path(directory).glob("*.jsonl")):
        try:
            with open(path) as handle:
                first = handle.readline().strip()
            header = json.loads(first)
        except (OSError, ValueError):
            continue
        if (isinstance(header, dict) and header.get("type") == "header"
                and header.get("schema") == CHECKPOINT_SCHEMA):
            header = dict(header)
            header["path"] = str(path)
            headers.append(header)
    return headers


# ---- process-wide defaults (the CLI's --checkpoint/--resume wiring) -------

@dataclass
class CheckpointDefaults:
    """Process-wide checkpoint wiring.

    Attributes
    ----------
    directory:
        Journal directory; ``None`` (the default) disables journaling.
    resume:
        Restore existing journals instead of truncating them.
    run_id:
        Identifier stamped into journals this process creates.
    """

    directory: "Path | None" = None
    resume: bool = False
    run_id: "str | None" = None


_defaults = CheckpointDefaults()
_claimed_paths: "set[str]" = set()


def get_checkpoint_defaults() -> CheckpointDefaults:
    """The live defaults object."""
    return _defaults


def set_checkpoint_defaults(*, directory: "str | Path | None" = None,
                            resume: bool = False,
                            run_id: "str | None" = None) -> CheckpointDefaults:
    """Install process-wide checkpoint wiring (CLI / test harness).

    Passing ``directory=None`` turns journaling off.  Claim bookkeeping
    for per-method file names resets on every call, so consecutive runs
    in one process map methods to the same file names.
    """
    _defaults.directory = Path(directory) if directory is not None else None
    _defaults.resume = bool(resume)
    _defaults.run_id = run_id
    _claimed_paths.clear()
    return _defaults


def _candidate_stems(method: "str | None") -> "Iterator[str]":
    stem = method if method else "search"
    yield stem
    i = 2
    while True:
        yield f"{stem}-{i}"
        i += 1


def journal_for_method(method: "str | None"):
    """Open this process's journal for a search method, per the defaults.

    Returns ``None`` when journaling is off, otherwise
    ``(journal, restored_evals)``.  Each call claims the next free name
    for the method (``aps.jsonl``, ``aps-2.jsonl``, …) — deterministic
    across runs, so a resumed process maps the same searches to the
    same journals it wrote before dying.
    """
    defaults = _defaults
    if defaults.directory is None:
        return None
    for stem in _candidate_stems(method):
        path = defaults.directory / f"{stem}.jsonl"
        key = str(path)
        if key in _claimed_paths:
            continue
        _claimed_paths.add(key)
        if defaults.resume:
            journal, evals, _states = CheckpointJournal.open_resume(
                path, method=method)
            return journal, evals
        return CheckpointJournal.create(
            path, method=method, run_id=defaults.run_id), []
    raise AssertionError("unreachable")  # pragma: no cover
