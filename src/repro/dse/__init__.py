"""Design-space exploration (paper Sections III-D, IV).

- :mod:`repro.dse.space` — discrete design spaces (the paper's 6
  parameters x 10 values = 10^6 points).
- :mod:`repro.dse.evaluate` — evaluators ("simulators") with budget
  accounting: the real :class:`repro.sim.CMPSimulator` and a calibrated
  analytic surrogate standing in for the paper's 128-Xeon/4-week full
  sweep.
- :mod:`repro.dse.aps` — the APS (Analysis Plus Simulation) algorithm of
  Fig. 6: analytic solve for ``(A0, A1, A2, N)``, simulation only for the
  remaining microarchitecture parameters.
- :mod:`repro.dse.ann` — the Ipek-style artificial-neural-network
  predictor (a from-scratch NumPy MLP) used as the paper's comparison
  baseline.
- :mod:`repro.dse.ga` / :mod:`repro.dse.rsm` — the related-work
  genetic-algorithm and response-surface baselines.
- :mod:`repro.dse.brute` — exhaustive sweep.
- :mod:`repro.dse.batch` — batch slicing and the ``--batch-size``
  default every search method rides on (``evaluate_batch`` protocol);
  contract in ``docs/DSE_PERFORMANCE.md``.
- :mod:`repro.dse.fabric` — the one process-pool evaluator: the
  sharded work-stealing sweep fabric, with deterministic shard
  ownership over the simulation store's hash ranges, idle-worker
  stealing for stragglers, crash/timeout/deadline-aware recovery, and
  bit-identical results under any schedule.
"""

from repro.dse.space import DesignSpace, Parameter
from repro.dse.evaluate import (
    BatchEvaluator,
    BudgetedEvaluator,
    Evaluator,
    SimulatorEvaluator,
    SurrogateEvaluator,
    batch_evaluate,
    canonical_key,
    is_feasible,
)
from repro.dse.batch import (
    BatchDefaults,
    chunked,
    get_batch_defaults,
    resolve_batch_size,
    set_batch_defaults,
)
from repro.dse.fabric import FabricEvaluator, config_shard
from repro.dse.brute import brute_force_search
from repro.dse.aps import APSExplorer, APSResult
from repro.dse.ann import ANNPredictorSearch, MLPRegressor
from repro.dse.ga import genetic_search
from repro.dse.rsm import response_surface_search

__all__ = [
    "DesignSpace",
    "Parameter",
    "Evaluator",
    "BatchEvaluator",
    "BudgetedEvaluator",
    "SimulatorEvaluator",
    "SurrogateEvaluator",
    "FabricEvaluator",
    "BatchDefaults",
    "batch_evaluate",
    "canonical_key",
    "chunked",
    "config_shard",
    "get_batch_defaults",
    "set_batch_defaults",
    "resolve_batch_size",
    "is_feasible",
    "brute_force_search",
    "APSExplorer",
    "APSResult",
    "ANNPredictorSearch",
    "MLPRegressor",
    "genetic_search",
    "response_surface_search",
]
