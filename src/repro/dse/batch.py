"""Batch slicing and the process-wide batch size for DSE searches.

Every search method rides on the ``evaluate_batch`` protocol; this
module holds the two pieces they share:

- :func:`chunked` — deterministic batch slicing (input order preserved).
- :class:`BatchDefaults` — the process-wide ``--batch-size`` knob the
  CLI sets and the search methods resolve against when a call site does
  not pass an explicit value.

Pooled evaluation lives in :mod:`repro.dse.fabric`
(:class:`~repro.dse.fabric.FabricEvaluator`).

Determinism contract: every evaluator is a pure function of the
configuration, so batch size and worker count change *wall time only* —
costs, best configurations and budget counts are identical for any
``batch_size >= 1`` and any ``workers >= 1``
(``tests/dse/test_batch_equivalence.py`` enforces this differentially).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator

from repro.dse.fabric import FabricEvaluator
from repro.errors import DesignSpaceError

__all__ = ["BatchDefaults", "chunked", "get_batch_defaults",
           "set_batch_defaults", "resolve_batch_size"]

#: The same class object as :class:`~repro.dse.fabric.FabricEvaluator`,
#: kept under its old name only because the benchmark's layer tracer
#: (``perfbench/layers.py``) resolves
#: ``repro.dse.batch:ParallelEvaluator``.
ParallelEvaluator = FabricEvaluator


def chunked(items: Iterable, size: int) -> Iterator[list]:
    """Yield consecutive chunks of at most ``size`` items, in order.

    Streams lazily, so a 10^6-point design-space iterator is never
    materialized whole — peak memory is one chunk.
    """
    if size < 1:
        raise DesignSpaceError(f"chunk size must be >= 1, got {size}")
    it = iter(items)
    while True:
        chunk = list(islice(it, size))
        if not chunk:
            return
        yield chunk


@dataclass
class BatchDefaults:
    """Process-wide fallback for the batch engine's knob.

    Attributes
    ----------
    batch_size:
        Configurations per :meth:`BudgetedEvaluator.evaluate_batch` call
        when a search is not told otherwise.  Bounds peak memory of the
        vectorized surrogate path; large enough that NumPy dominates.
    """

    batch_size: int = 2048


_defaults = BatchDefaults()


def get_batch_defaults() -> BatchDefaults:
    """The live defaults object (mutated by :func:`set_batch_defaults`)."""
    return _defaults


def set_batch_defaults(*, batch_size: "int | None" = None) -> BatchDefaults:
    """Update the process-wide batch size (the CLI's ``--batch-size``).

    ``None`` leaves it unchanged; sizes must be >= 1.  Returns the
    defaults object for convenience.
    """
    if batch_size is not None:
        _defaults.batch_size = resolve_batch_size(batch_size)
    return _defaults


def resolve_batch_size(batch_size: "int | None") -> int:
    """An explicit batch size, or the process-wide default."""
    if batch_size is None:
        return _defaults.batch_size
    if batch_size < 1:
        raise DesignSpaceError(f"batch size must be >= 1, got {batch_size}")
    return int(batch_size)
