"""The CMP simulator: globally time-ordered multi-core execution.

Cores are advanced one memory operation at a time through a min-heap
keyed on each core's next issue time, so requests reach the shared L2
slices and DRAM banks in (approximately) chronological order and
contention is modeled faithfully.  The result bundles per-core traces,
per-layer traces and the aggregate statistics consumed by the C2-Bound
validation experiments (Figs. 12-13).
"""

from __future__ import annotations

import gc
import heapq
from dataclasses import dataclass

import numpy as np

from repro.camat.analyzer import TraceAnalyzer, TraceStatistics
from repro.camat.trace import AccessTrace
from repro.errors import SimulationError
from repro.metrics.apc import APCMeasurement, LayerAPC
from repro.obs import get_registry, get_tracer
from repro.sim.config import SimulatedChip
from repro.sim.core import CoreModel, CoreResult
from repro.sim.hierarchy import MemoryHierarchy
from repro.sim.kernel import (KernelStats, kernel_eligible, kernel_enabled,
                              run_epoch_kernel)

__all__ = ["CMPSimulator", "SimulationResult", "simulate_chip_cost"]


def simulate_chip_cost(chip: SimulatedChip, workload, seed: int) -> float:
    """Cycles per instruction of ``workload`` on ``chip`` — one design point.

    A module-level entry (not a method or closure) so a process pool can
    pickle the ``(chip, workload, seed)`` triple and fan design points
    across workers: this is the unit of work
    :class:`repro.dse.fabric.FabricEvaluator` dispatches.  Streams are
    drawn from a generator seeded per call, so the cost of a
    configuration is a pure function of its arguments — identical in
    every process.
    """
    rng = np.random.default_rng(seed)
    result = CMPSimulator(chip).run(workload.streams(chip.n_cores, rng))
    instructions = result.total_instructions
    if instructions == 0:
        return float("inf")
    return result.exec_cycles / instructions


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one CMP simulation.

    Attributes
    ----------
    chip:
        The simulated configuration.
    cores:
        Per-core results (length ``n_cores``).
    exec_cycles:
        Chip-level execution time: the slowest core's finish cycle.
    l2_trace, dram_trace:
        Cycle-level traces of the shared layers (``None`` if unused).
    """

    chip: SimulatedChip
    cores: tuple[CoreResult, ...]
    exec_cycles: int
    l2_trace: "AccessTrace | None"
    dram_trace: "AccessTrace | None"
    l1_writebacks: int = 0
    invalidations: int = 0
    upgrades: int = 0
    dram_writes: int = 0

    @property
    def total_instructions(self) -> int:
        """Instructions summed over cores."""
        return sum(c.instructions for c in self.cores)

    @property
    def ipc(self) -> float:
        """Chip-level instructions per cycle."""
        if self.exec_cycles == 0:
            return 0.0
        return self.total_instructions / self.exec_cycles

    def core_trace(self, core_id: int) -> AccessTrace:
        """L1-level access trace of one core."""
        return self.cores[core_id].trace()

    def summary(self):
        """One-glance result table (chip stats + per-core highlights)."""
        from repro.io.results import ResultTable
        table = ResultTable(["metric", "value"],
                            title="Simulation summary")
        table.add_row("cores", self.chip.n_cores)
        table.add_row("instructions", self.total_instructions)
        table.add_row("cycles", self.exec_cycles)
        table.add_row("IPC", self.ipc)
        mem_ops = sum(c.mem_ops for c in self.cores)
        table.add_row("memory ops", mem_ops)
        if mem_ops:
            misses = sum(c.l1_misses for c in self.cores)
            table.add_row("L1 miss rate", misses / mem_ops)
        table.add_row("L1 writebacks", self.l1_writebacks)
        table.add_row("coherence invalidations", self.invalidations)
        table.add_row("coherence upgrades", self.upgrades)
        table.add_row("DRAM writes", self.dram_writes)
        return table

    def core_stats(self, core_id: int) -> TraceStatistics:
        """Full C-AMAT statistics of one core's trace (memoized)."""
        cache = self.__dict__.get("_stats_cache")
        if cache is None:
            cache = {}
            # Frozen dataclass: stash the memo dict past __setattr__.
            object.__setattr__(self, "_stats_cache", cache)
        stats = cache.get(core_id)
        if stats is None:
            stats = TraceAnalyzer().analyze(self.core_trace(core_id))
            cache[core_id] = stats
        return stats

    def layer_apc(self) -> LayerAPC:
        """APC for L1 / LLC / DRAM (the paper's Fig. 13 measurement).

        L1 counts all processor accesses across cores; active cycles are
        measured per core and summed (each core's L1 is a separate
        device, matching the per-layer APC definition).  The per-core
        analyzer pass is shared with :meth:`core_stats` — each trace is
        analyzed at most once per result, and the final measurement is
        memoized.
        """
        cached = self.__dict__.get("_layer_apc_cache")
        if cached is not None:
            return cached
        analyzer = TraceAnalyzer()
        # Same collector pause as CMPSimulator.run: the analyzer sweep
        # allocates only arrays that stay live until the measurement is
        # assembled, so mid-analysis passes free nothing.
        enabled = gc.isenabled()
        if enabled:
            gc.disable()
        try:
            l1_acc = 0
            l1_active = 0
            for core_id in range(len(self.cores)):
                stats = self.core_stats(core_id)
                l1_acc += stats.accesses
                l1_active += stats.memory_active_wall_cycles
            def layer(trace: "AccessTrace | None") -> APCMeasurement:
                if trace is None:
                    return APCMeasurement(accesses=0, active_cycles=0)
                stats = analyzer.analyze(trace)
                return APCMeasurement(
                    accesses=stats.accesses,
                    active_cycles=stats.memory_active_wall_cycles)
            result = LayerAPC(
                l1=APCMeasurement(accesses=l1_acc, active_cycles=l1_active),
                llc=layer(self.l2_trace),
                dram=layer(self.dram_trace),
            )
        finally:
            if enabled:
                gc.enable()
        object.__setattr__(self, "_layer_apc_cache", result)
        return result


class CMPSimulator:
    """Run per-core instruction streams through a shared hierarchy.

    Parameters
    ----------
    chip:
        The configuration to simulate.
    coherent:
        Whether the per-core L1s join the MSI-lite directory.
    use_kernel:
        Force the batched epoch kernel (:mod:`repro.sim.kernel`) on or
        off; ``None`` (default) follows the ambient
        :func:`repro.sim.kernel.kernel_enabled` toggle.  Results are
        bit-identical either way (pinned by the golden differential
        tests); the flag therefore never enters ``SimCacheStore``
        fingerprints.  Ineligible configurations (SMT, prefetch) run
        the scalar loop regardless and count a
        ``sim.kernel.bypass_runs``.
    """

    def __init__(self, chip: SimulatedChip, *, coherent: bool = True,
                 use_kernel: "bool | None" = None) -> None:
        self.chip = chip
        self.coherent = coherent
        self.use_kernel = use_kernel
        # Flat per-layer counters of the most recent run() — the same
        # dict the metrics publication uses, minus the kernel.* keys
        # (so it digests identically with the kernel on or off).
        self.last_layer_stats: dict = {}

    def run(self, streams: "list[tuple]") -> SimulationResult:
        """Simulate the chip on per-core streams.

        Each stream is ``(addresses, gaps)`` or
        ``(addresses, gaps, writes)`` with a boolean write mask.  With
        single-threaded cores the list supplies one stream per core;
        with SMT (``chip.core.smt_threads > 1``) it supplies
        ``n_cores * smt_threads`` streams, grouped consecutively per
        core.  With ``coherent=True`` (default) the per-core L1s
        participate in the MSI-lite directory at the shared L2 (the
        paper's "coherent ... L2 cache" variant).

        The collector is paused for the whole run (and restored on
        return, even on error): a simulation allocates hundreds of
        thousands of small record tuples that all stay reachable until
        the result is built, so generational passes mid-run are pure
        overhead — they scan the entire live heap and free nothing.
        """
        enabled = gc.isenabled()
        if enabled:
            gc.disable()
        try:
            return self._run(streams)
        finally:
            if enabled:
                gc.enable()

    def _run(self, streams: "list[tuple]") -> SimulationResult:
        smt = self.chip.core.smt_threads
        expected = self.chip.n_cores * smt
        if len(streams) != expected:
            raise SimulationError(
                f"need {expected} streams "
                f"({self.chip.n_cores} cores x {smt} threads), "
                f"got {len(streams)}")
        hierarchy = MemoryHierarchy(self.chip)
        if smt == 1:
            cores = [
                CoreModel(i, self.chip.core, self.chip.l1, *stream)
                for i, stream in enumerate(streams)
            ]
        else:
            from repro.sim.smt import SMTCoreModel
            cores = [
                SMTCoreModel(i, self.chip.core, self.chip.l1,
                             streams[i * smt:(i + 1) * smt])
                for i in range(self.chip.n_cores)
            ]
        if self.coherent:
            hierarchy.register_l1s([core.l1 for core in cores])
        requested = (self.use_kernel if self.use_kernel is not None
                     else kernel_enabled())
        kernel_stats: "KernelStats | None" = None
        bypassed = False
        with get_tracer().span("sim.run", cores=self.chip.n_cores,
                               smt=smt, coherent=self.coherent):
            if requested and kernel_eligible(self.chip):
                kernel_stats = run_epoch_kernel(cores, hierarchy)
            else:
                bypassed = requested
                heap: list[tuple[int, int]] = []
                for core in cores:
                    if not core.done:
                        heapq.heappush(
                            heap, (core.peek_issue_time(), core.core_id))
                heappush = heapq.heappush
                heappop = heapq.heappop
                while heap:
                    _, cid = heappop(heap)
                    nxt = cores[cid].advance(hierarchy)
                    if nxt is not None:
                        heappush(heap, (nxt, cid))
        results = tuple(core.result() for core in cores)
        exec_cycles = max((r.finish_cycle for r in results), default=0)
        self.last_layer_stats = self._publish_metrics(
            cores, results, hierarchy, exec_cycles, kernel_stats, bypassed)
        return SimulationResult(
            chip=self.chip,
            cores=results,
            exec_cycles=exec_cycles,
            l2_trace=hierarchy.l2_trace(),
            dram_trace=hierarchy.dram_trace(),
            l1_writebacks=sum(core.l1.writebacks for core in cores),
            invalidations=hierarchy.invalidations,
            upgrades=hierarchy.upgrades,
            dram_writes=hierarchy.dram_writes,
        )

    @staticmethod
    def _publish_metrics(cores, results, hierarchy, exec_cycles,
                         kernel_stats: "KernelStats | None",
                         bypassed: bool) -> dict:
        """Publish this run's per-layer counters under the ``sim.``
        namespace (cumulative over a process; one batch per run, so the
        cost is independent of the instruction count).  Returns the
        layer-counter dict *without* the ``kernel.*`` keys — the
        kernel-invariant view the golden digests pin."""
        registry = get_registry()
        stats: dict[str, float] = {
            "runs": 1,
            "instructions": sum(r.instructions for r in results),
            "mem_ops": sum(r.mem_ops for r in results),
            "cycles": exec_cycles,
            "l1.hits": sum(r.l1_hits for r in results),
            "l1.misses": sum(r.l1_misses for r in results),
            "l1.writebacks": sum(core.l1.writebacks for core in cores),
            "prefetches.issued": sum(r.prefetches_issued for r in results),
            "prefetches.useful": sum(r.prefetches_useful for r in results),
        }
        for core in cores:
            for name, value in core.mshr.stats().items():
                key = f"l1.mshr_{name}"
                stats[key] = stats.get(key, 0) + value
        stats.update(hierarchy.stats())
        layer_stats = dict(stats)
        if kernel_stats is not None:
            stats.update(kernel_stats.as_dict())
        if bypassed:
            stats["kernel.bypass_runs"] = 1
        for name, value in stats.items():
            if value:
                registry.counter(f"sim.{name}").inc(value)
        return layer_stats
