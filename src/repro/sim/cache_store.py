"""Persistent content-addressed store for simulation results.

:func:`repro.sim.cmp.simulate_chip_cost` is a pure function of
``(chip, workload, seed)`` — streams are drawn from a generator seeded
per call, so the same triple produces the same cost in every process on
every machine.  That purity makes the result *content-addressable*: this
module hashes a canonical fingerprint of the triple (salted with
:data:`SIM_MODEL_VERSION`) and keeps the cost in an on-disk store, so a
re-run of a design-space experiment pays only for configurations it has
never seen.

Store layout (two-level fan-out keeps directories small)::

    <root>/ab/abcdef....json   {"cost": "<repr>", "model_version": "...", ...}

The hex prefix is also the store's *shard* identity: keys are SHA-256
hex digests, so the first :data:`SHARD_PREFIX_LEN` characters partition
the key space into :data:`SHARD_COUNT` uniform shards
(:func:`shard_of_key`).  The sweep fabric
(:mod:`repro.dse.fabric`) assigns each worker a contiguous shard range
and passes ``owned_shards`` so only the owner ever writes a shard's
directory — single-writer by construction, no cross-process locking on
any path.

Tiers (hot to cold):

1. **memory front** — per-process LRU (``memory_entries`` capacity);
   hits cost a dict lookup, no file I/O, no locks
   (``sim.cache.front_hits``);
2. **write-behind buffer** — with ``write_behind > 0``, ``put`` only
   buffers; entries reach disk in batched :meth:`flush` calls
   (``sim.cache.flush`` spans) so persistence leaves the simulation
   critical path;
3. **disk back tier** — content-addressed JSON entries, shared by every
   process, written atomically.

Guarantees:

- **exactness** — costs are stored as ``repr(float)`` and parsed back
  with ``float()``, which round-trips IEEE-754 doubles bit-for-bit, so a
  warm-cache run is bit-identical to a cold one;
- **concurrency safety** — writes go to a temp file in the same
  directory followed by :func:`os.replace` (atomic on POSIX), so the
  process-pool workers of :class:`repro.dse.fabric.FabricEvaluator` can
  share one store without locks (double writes of the same key are
  idempotent by construction);
- **invalidation by versioning** — :data:`SIM_MODEL_VERSION` is folded
  into every key.  Any intentional change to simulator semantics must
  bump it (alongside regenerating ``tests/data/sim_golden.json``), which
  orphans — rather than corrupts — stale entries.

Hits/misses/stores and in-memory evictions are published as
``sim.cache.*`` counters in the process-wide metrics registry.
"""

from __future__ import annotations

import atexit
import hashlib
import json
import os
import signal
import tempfile
import weakref
from collections import OrderedDict
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np

from repro.analysis.sanitizer import check_shard_write, sanitize_enabled
from repro.errors import InvalidParameterError, ReproError
from repro.obs import get_registry, get_tracer

__all__ = ["SIM_MODEL_VERSION", "FINGERPRINT_SCHEMA", "SHARD_PREFIX_LEN",
           "SHARD_COUNT", "SimCacheStore", "shard_of_key",
           "sim_cache_key", "fingerprint", "cached_simulate_chip_cost",
           "verify_fingerprint_schema", "set_default_store",
           "get_default_store", "resolve_store", "flush_all_stores",
           "install_signal_flush"]

#: Salt folded into every cache key.  Bump on ANY intentional change to
#: simulator semantics (i.e. whenever ``tests/data/sim_golden.json`` is
#: legitimately regenerated) so persisted costs from older model
#: versions can never be returned for the new model.
SIM_MODEL_VERSION = "2026.08-1"

#: The declared cache-key surface: every configuration dataclass in
#: :mod:`repro.sim.config` and the exact fields :func:`fingerprint`
#: covers for it (via the generic ``dataclasses.fields`` walk).  This
#: manifest exists so drift is *detectable*: the ``C2L002`` lint rule
#: cross-checks it against the dataclass definitions on every run, and
#: :func:`verify_fingerprint_schema` re-checks it at runtime in the test
#: suite.  Adding a field to a chip dataclass therefore fails the lint
#: until the field is added here — and any such change to fingerprinted
#: semantics must also bump :data:`SIM_MODEL_VERSION`, which orphans
#: stale persisted entries instead of silently returning wrong costs.
FINGERPRINT_SCHEMA: "dict[str, tuple[str, ...]]" = {
    "CacheConfig": ("size_kib", "assoc", "line_bytes", "hit_latency",
                    "mshr_entries", "banks", "prefetch", "prefetch_degree"),
    "CoreMicroConfig": ("issue_width", "rob_size", "smt_threads"),
    "DRAMConfig": ("banks", "row_hit", "row_miss", "row_conflict",
                   "row_bytes", "bus_cycles"),
    "NoCConfig": ("hop_latency", "router_latency"),
    "SimulatedChip": ("n_cores", "core", "l1", "l2_slice", "dram", "noc"),
}


def verify_fingerprint_schema() -> None:
    """Assert :data:`FINGERPRINT_SCHEMA` matches the live dataclasses.

    Raises :class:`~repro.errors.InvalidParameterError` naming every
    drifted class/field.  This is the runtime twin of the ``C2L002``
    static rule; ``tests/analysis`` runs it so the manifest can never go
    stale while tests pass.
    """
    import repro.sim.config as simconfig

    problems: list[str] = []
    for name, declared in FINGERPRINT_SCHEMA.items():
        cls = getattr(simconfig, name, None)
        if cls is None or not is_dataclass(cls):
            problems.append(f"{name}: not a dataclass in repro.sim.config")
            continue
        actual = tuple(f.name for f in fields(cls))
        if set(actual) != set(declared):
            missing = sorted(set(actual) - set(declared))
            stale = sorted(set(declared) - set(actual))
            problems.append(
                f"{name}: schema missing {missing}, stale {stale} "
                "(update FINGERPRINT_SCHEMA and bump SIM_MODEL_VERSION)")
    for name in getattr(simconfig, "__all__", ()):
        cls = getattr(simconfig, name, None)
        if (isinstance(cls, type) and is_dataclass(cls)
                and name not in FINGERPRINT_SCHEMA):
            problems.append(
                f"{name}: config dataclass absent from FINGERPRINT_SCHEMA")
    if problems:
        raise InvalidParameterError(
            "fingerprint schema drift: " + "; ".join(problems))

#: Environment variable enabling the default store for a whole process
#: tree (the CLI flag takes precedence).
ENV_VAR = "C2BOUND_SIM_CACHE"


def fingerprint(obj):
    """Canonical JSON-able structure identifying a parameter object.

    Deterministic across processes and platforms: dataclasses are taken
    by qualified name + field values, generic objects (workloads) by
    qualified name + sorted instance attributes, arrays by
    dtype/shape/content hash, floats by ``repr`` (exact).  Raises for
    types without a stable identity (e.g. lambdas, open files).
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, (float, np.floating)):
        # float(...) first: repr(np.float64(x)) is "np.float64(x)".
        return ["f", repr(float(obj))]
    if isinstance(obj, (np.integer, np.bool_)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        data = np.ascontiguousarray(obj)
        return ["nd", str(data.dtype), list(data.shape),
                hashlib.sha256(data.tobytes()).hexdigest()]
    if is_dataclass(obj) and not isinstance(obj, type):
        return ["dc", type(obj).__qualname__,
                [[f.name, fingerprint(getattr(obj, f.name))]
                 for f in fields(obj)]]
    if isinstance(obj, (list, tuple)):
        return ["l", [fingerprint(x) for x in obj]]
    if isinstance(obj, dict):
        return ["d", [[str(k), fingerprint(v)]
                      for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))]]
    if isinstance(obj, (set, frozenset)):
        return ["s", sorted(fingerprint(x) for x in obj)]
    attrs = getattr(obj, "__dict__", None)
    if attrs is not None:
        return ["obj", type(obj).__qualname__,
                [[k, fingerprint(v)] for k, v in sorted(attrs.items())
                 if not k.startswith("_")]]
    raise InvalidParameterError(
        f"cannot fingerprint {type(obj).__qualname__} for the simulation "
        "cache (no stable identity)")


def sim_cache_key(chip, workload, seed: int) -> str:
    """Content hash addressing one ``simulate_chip_cost`` result."""
    payload = json.dumps(
        ["simulate_chip_cost", SIM_MODEL_VERSION, fingerprint(chip),
         fingerprint(workload), int(seed)],
        separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


#: Hex characters of a key that name its disk shard (and directory).
#: ``sim_cache_key`` returns SHA-256 *hex*, so a prefix of this width is
#: uniform over ``16 ** SHARD_PREFIX_LEN`` values; the ``C2L002`` lint
#: rule pins the prefix <-> shard mapping to this literal.
SHARD_PREFIX_LEN = 2

#: Number of disk shards, ``16 ** SHARD_PREFIX_LEN``.  Shard identity is
#: ownership currency for the sweep fabric: a worker owning shard ``s``
#: is the only writer of the ``<root>/<s:02x>/`` directory.
SHARD_COUNT = 256


def shard_of_key(key: str) -> int:
    """Shard index owning ``key``: the integer value of its hex prefix.

    The shard is *derived from the key*, never stored, so the mapping
    can only drift if :func:`sim_cache_key` stops producing hex digests
    — which the ``C2L002`` lint rule guards against statically.
    """
    return int(key[:SHARD_PREFIX_LEN], 16)


# ----- flush-on-exit safety net --------------------------------------------
#
# A write-behind store that is never explicitly closed (a process that
# exits through ``sys.exit``, a SIGTERM'd server) would silently drop
# its buffered entries.  Every write-behind store registers itself in a
# weak set; a one-time ``atexit`` hook — plus an opt-in SIGTERM chain
# for long-lived processes — drains whatever is still buffered.  Entries
# are recomputable and re-``put`` is idempotent, so this is a cost
# optimization, not a correctness requirement; losing it only on
# SIGKILL is the contract.
_live_stores: "weakref.WeakSet" = weakref.WeakSet()
_atexit_installed = False


def flush_all_stores() -> int:
    """Flush every live write-behind buffer; returns entries written.

    The ``atexit``/SIGTERM safety net calls this, and tests may call it
    directly.  A store whose flush fails (filesystem gone mid-teardown)
    is skipped — exit paths must not raise.
    """
    written = 0
    for store in list(_live_stores):
        try:
            written += store.flush()
        except (ReproError, OSError, RuntimeError):
            continue
    return written


def _register_store(store: "SimCacheStore") -> None:
    global _atexit_installed
    _live_stores.add(store)
    if not _atexit_installed:
        atexit.register(flush_all_stores)
        _atexit_installed = True


def install_signal_flush(*signums: int) -> None:
    """Chain a buffer flush onto termination signals (SIGTERM default).

    For long-lived processes (the job server, sweep CLIs under a
    supervisor) whose graceful stop arrives as a signal rather than a
    normal interpreter exit.  The previous handler is chained: a
    callable handler runs after the flush; the default disposition is
    re-raised so the process still terminates.
    """
    if not signums:
        signums = (signal.SIGTERM,)
    for signum in signums:
        previous = signal.getsignal(signum)

        def _handler(num, frame, _previous=previous):
            flush_all_stores()
            if callable(_previous):
                _previous(num, frame)
            else:
                signal.signal(num, signal.SIG_DFL)
                os.kill(os.getpid(), num)

        signal.signal(signum, _handler)


class SimCacheStore:
    """On-disk content-addressed cost store with an in-memory LRU front.

    Parameters
    ----------
    root:
        Directory holding the store (created on first write).
    memory_entries:
        Capacity of the in-memory front; reads served from memory never
        touch the filesystem.  Disk entries are never evicted by the
        store itself (use :meth:`clear`).
    write_behind:
        ``0`` (the default) keeps the historical write-through behavior:
        every :meth:`put` persists immediately.  ``> 0`` buffers puts
        and flushes them to disk in batches of this size (and on
        :meth:`flush`/:meth:`close`), taking file I/O off the simulation
        critical path.  A crash loses only buffered entries — costs, not
        correctness, since entries are recomputable and re-``put`` is
        idempotent.
    owned_shards:
        ``None`` (the default) writes any shard.  A set of shard indices
        restricts *disk* writes to those shards: a ``put`` outside the
        owned range updates the memory front only and is counted as
        ``sim.cache.shard_denied``.  Reads are never restricted.
    """

    def __init__(self, root, *, memory_entries: int = 4096,
                 write_behind: int = 0,
                 owned_shards: "frozenset[int] | None" = None) -> None:
        if memory_entries < 1:
            raise InvalidParameterError(
                f"memory_entries must be >= 1, got {memory_entries}")
        if write_behind < 0:
            raise InvalidParameterError(
                f"write_behind must be >= 0, got {write_behind}")
        self.root = Path(root)
        self.memory_entries = memory_entries
        self.write_behind = int(write_behind)
        self.owned_shards = (None if owned_shards is None
                             else frozenset(int(s) for s in owned_shards))
        self._mem: OrderedDict[str, float] = OrderedDict()
        self._pending: "OrderedDict[str, tuple[float, dict]]" = OrderedDict()
        self.hits = 0
        self.front_hits = 0
        self.misses = 0
        self.corrupt = 0
        self.denied = 0
        self.flushed = 0
        #: worker-slot tag for sanitizer findings (set by the fabric)
        self.sanitize_slot: "int | None" = None
        # env read once per store; the per-write cost of a disabled
        # sanitizer is this cached boolean
        self._sanitize = sanitize_enabled()
        self._bind_counters()
        if self.write_behind:
            _register_store(self)

    def _bind_counters(self) -> None:
        registry = get_registry()
        self._ctr_hits = registry.counter("sim.cache.hits")
        self._ctr_front_hits = registry.counter("sim.cache.front_hits")
        self._ctr_misses = registry.counter("sim.cache.misses")
        self._ctr_stores = registry.counter("sim.cache.stores")
        self._ctr_evictions = registry.counter("sim.cache.evictions")
        self._ctr_corrupt = registry.counter("sim.cache.corrupt")
        self._ctr_denied = registry.counter("sim.cache.shard_denied")

    # Pickling ships only the configuration (for process-pool workers);
    # each worker rebuilds its own LRU front and registry counters.
    # Buffered write-behind entries are flushed by the owner before the
    # task returns, never pickled.
    def __getstate__(self) -> dict:
        return {"root": str(self.root), "memory_entries": self.memory_entries,
                "write_behind": self.write_behind,
                "owned_shards": (None if self.owned_shards is None
                                 else sorted(self.owned_shards)),
                "sanitize_slot": self.sanitize_slot}

    def __setstate__(self, state: dict) -> None:
        self.root = Path(state["root"])
        self.memory_entries = state["memory_entries"]
        self.write_behind = state.get("write_behind", 0)
        owned = state.get("owned_shards")
        self.owned_shards = None if owned is None else frozenset(owned)
        self._mem = OrderedDict()
        self._pending = OrderedDict()
        self.hits = 0
        self.front_hits = 0
        self.misses = 0
        self.corrupt = 0
        self.denied = 0
        self.flushed = 0
        self.sanitize_slot = state.get("sanitize_slot")
        # re-read the env in the unpickling process: pool workers
        # inherit the parent's environment, so arming the parent arms
        # every worker-side clone
        self._sanitize = sanitize_enabled()
        self._bind_counters()
        if self.write_behind:
            _register_store(self)

    def scoped(self, *, owned_shards: "frozenset[int] | None" = None,
               write_behind: "int | None" = None) -> "SimCacheStore":
        """A new view over the same root with different tier knobs.

        The sweep fabric hands each worker slot
        ``scoped(owned_shards=..., write_behind=...)`` so every slot
        shares the disk tier but owns a disjoint writable shard range.
        """
        return SimCacheStore(
            self.root, memory_entries=self.memory_entries,
            write_behind=(self.write_behind if write_behind is None
                          else write_behind),
            owned_shards=(self.owned_shards if owned_shards is None
                          else owned_shards))

    def path_for(self, key: str) -> Path:
        """On-disk location of a key's entry (inside its shard dir)."""
        return self.root / key[:SHARD_PREFIX_LEN] / f"{key}.json"

    def _remember(self, key: str, cost: float) -> None:
        mem = self._mem
        if key in mem:
            mem.move_to_end(key)
            return
        mem[key] = cost
        if len(mem) > self.memory_entries:
            mem.popitem(last=False)
            self._ctr_evictions.inc()

    def quarantine_dir(self) -> Path:
        """Where corrupt entries are moved (outside the ``??/`` fan-out,
        so :meth:`stats`/:meth:`clear` globs never see them)."""
        return self.root / ".quarantine"

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry aside so it is never parsed again.

        ``os.replace`` keeps the bytes for post-mortem inspection; if
        even that fails the entry is deleted — a corrupt file must not
        stay on the lookup path either way.
        """
        qdir = self.quarantine_dir()
        try:
            qdir.mkdir(parents=True, exist_ok=True)
            os.replace(path, qdir / path.name)
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass

    def get(self, key: str) -> "float | None":
        """Stored cost for ``key``, or ``None`` on a miss.

        A corrupt entry (unparsable JSON, missing or non-numeric
        ``cost``) is counted (``sim.cache.corrupt``), quarantined under
        ``.quarantine/`` and reported as a miss — the caller re-runs the
        simulation and the atomic :meth:`put` writes a sound entry.
        """
        mem = self._mem
        if key in mem:
            # Memory hits skip the span on purpose: they are not I/O,
            # and a span per hot-path hit would swamp the trace.
            mem.move_to_end(key)
            self.hits += 1
            self.front_hits += 1
            self._ctr_hits.inc()
            self._ctr_front_hits.inc()
            return mem[key]
        pending = self._pending
        if key in pending:
            # Buffered but evicted from the LRU front: still no file
            # I/O, so it counts as a front hit (and re-promotes).
            cost = pending[key][0]
            self._remember(key, cost)
            self.hits += 1
            self.front_hits += 1
            self._ctr_hits.inc()
            self._ctr_front_hits.inc()
            return cost
        path = self.path_for(key)
        with get_tracer().span("sim.cache.lookup") as span:
            try:
                data = path.read_bytes()
            except OSError:
                # Missing (or unreadable) file: a plain miss.
                span.set_attr(outcome="miss")
                self.misses += 1
                self._ctr_misses.inc()
                return None
            try:
                entry = json.loads(data)
                cost = float(entry["cost"])
            except (KeyError, TypeError, ValueError):
                span.set_attr(outcome="corrupt")
                self.corrupt += 1
                self._ctr_corrupt.inc()
                self._quarantine(path)
                self.misses += 1
                self._ctr_misses.inc()
                return None
            span.set_attr(outcome="hit")
        self._remember(key, cost)
        self.hits += 1
        self._ctr_hits.inc()
        return cost

    def _persist(self, key: str, cost: float, provenance: dict) -> None:
        """Atomic disk write of one entry (concurrent writers are safe).

        This is the single choke point every disk write funnels through
        (write-through ``put``, batched ``flush``), which is what makes
        the sanitizer check here sufficient: the public ``put`` path
        denies foreign shards *before* reaching this, so an armed check
        that fires means ownership was bypassed for real.
        """
        if self._sanitize:
            check_shard_write(self, key, shard_of_key(key))
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {"cost": repr(cost),
                 "model_version": SIM_MODEL_VERSION}
        entry.update(provenance)
        payload = json.dumps(entry, sort_keys=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def put(self, key: str, cost: float, **provenance) -> None:
        """Record a cost.

        Write-through by default (atomic persist under a
        ``sim.cache.store`` span).  With ``write_behind > 0`` the entry
        is buffered and reaches disk in the next batched :meth:`flush`.
        A key outside ``owned_shards`` updates the memory front only
        (``sim.cache.shard_denied``) — the shard's owner (or the fabric
        parent reconciling stolen work) persists it instead.
        """
        cost = float(cost)
        if (self.owned_shards is not None
                and shard_of_key(key) not in self.owned_shards):
            self._remember(key, cost)
            self.denied += 1
            self._ctr_denied.inc()
            return
        if self.write_behind:
            self._pending[key] = (cost, dict(provenance))
            self._remember(key, cost)
            if len(self._pending) >= self.write_behind:
                self.flush()
            return
        with get_tracer().span("sim.cache.store"):
            self._persist(key, cost, provenance)
        self._remember(key, cost)
        self._ctr_stores.inc()

    def flush(self) -> int:
        """Drain the write-behind buffer to disk; returns entries written.

        One ``sim.cache.flush`` span covers the whole batch — the point
        of the buffer is that per-entry I/O (and its tracing) leaves the
        simulation critical path.
        """
        pending = self._pending
        if not pending:
            return 0
        n = len(pending)
        with get_tracer().span("sim.cache.flush", entries=n):
            while pending:
                key, (cost, provenance) = pending.popitem(last=False)
                self._persist(key, cost, provenance)
                self._ctr_stores.inc()
        self.flushed += n
        return n

    def close(self) -> None:
        """Flush buffered writes (idempotent; also the context exit)."""
        self.flush()

    def __enter__(self) -> "SimCacheStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def stats(self) -> dict:
        """Store summary with a per-tier breakdown.

        Disk-tier totals (``entries``/``bytes``/``shards_populated``)
        plus this instance's hit/miss split across the memory front
        (``front_hits``) and disk (``disk_hits``), the write-behind
        buffer state and the shard-ownership scope.
        """
        entries = 0
        total_bytes = 0
        shard_dirs: set[str] = set()
        if self.root.is_dir():
            for path in self.root.glob("??/*.json"):
                entries += 1
                shard_dirs.add(path.parent.name)
                try:
                    total_bytes += path.stat().st_size
                except OSError:
                    pass
        quarantined = 0
        qdir = self.quarantine_dir()
        if qdir.is_dir():
            quarantined = sum(1 for _ in qdir.glob("*.json"))
        return {"root": str(self.root), "entries": entries,
                "bytes": total_bytes, "memory_entries": len(self._mem),
                "hits": self.hits, "misses": self.misses,
                "corrupt": self.corrupt, "quarantined": quarantined,
                "front_capacity": self.memory_entries,
                "front_hits": self.front_hits,
                "disk_hits": self.hits - self.front_hits,
                "pending_writes": len(self._pending),
                "write_behind": self.write_behind,
                "flushed": self.flushed,
                "shards_populated": len(shard_dirs),
                "shard_count": SHARD_COUNT,
                "owned_shards": (-1 if self.owned_shards is None
                                 else len(self.owned_shards)),
                "shard_denied": self.denied,
                "model_version": SIM_MODEL_VERSION}

    def clear(self) -> int:
        """Delete every persisted entry; returns how many were removed.

        Buffered (unflushed) entries are dropped too — ``clear`` means
        the store forgets everything it has not already served.
        """
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("??/*.json"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        self._mem.clear()
        self._pending.clear()
        return removed


# ----- process-wide default store -----------------------------------------
_default_store: "SimCacheStore | None" = None
_default_configured = False


def set_default_store(store) -> "SimCacheStore | None":
    """Set the process-wide default store.

    ``store`` may be a :class:`SimCacheStore`, a directory path, or
    ``None`` to disable caching (overriding :data:`ENV_VAR`).  Returns
    the installed store.
    """
    global _default_store, _default_configured
    if store is not None and not isinstance(store, SimCacheStore):
        store = SimCacheStore(store)
    _default_store = store
    _default_configured = True
    return _default_store


def get_default_store() -> "SimCacheStore | None":
    """The process-wide default store (``None`` when caching is off).

    Resolution order: :func:`set_default_store` if it was ever called,
    else the :data:`ENV_VAR` environment variable, else ``None``.
    """
    global _default_store, _default_configured
    if not _default_configured:
        env = os.environ.get(ENV_VAR)
        if env:
            _default_store = SimCacheStore(env)
        _default_configured = True
    return _default_store


def resolve_store(cache) -> "SimCacheStore | None":
    """Normalize a user-facing cache argument to a store (or ``None``).

    ``"default"`` resolves against :func:`get_default_store` **now** —
    evaluators call this at construction so the resolved store (a plain
    root path after pickling) travels with them into pool workers.
    """
    if cache == "default":
        return get_default_store()
    if cache is None or isinstance(cache, SimCacheStore):
        return cache
    return SimCacheStore(cache)


def cached_simulate_chip_cost(chip, workload, seed: int,
                              store: "SimCacheStore | None" = None) -> float:
    """:func:`~repro.sim.cmp.simulate_chip_cost` through a store.

    With ``store=None`` the default store is consulted; with no store
    configured at all this is exactly the uncached call.
    """
    from repro.sim.cmp import simulate_chip_cost

    if store is None:
        store = get_default_store()
    if store is None:
        return simulate_chip_cost(chip, workload, seed)
    key = sim_cache_key(chip, workload, seed)
    cost = store.get(key)
    if cost is None:
        cost = simulate_chip_cost(chip, workload, seed)
        store.put(key, cost, seed=int(seed),
                  workload=type(workload).__qualname__)
    return cost
