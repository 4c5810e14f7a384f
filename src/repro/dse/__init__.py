"""Multi-objective design-space exploration over the SRLR models.

The subsystem that turns the repo's one-off trade-off checks (Fig. 8
frontier membership, Section II sizing sweeps) into a general search
engine:

* :mod:`repro.dse.space` — declarative parameter spaces (continuous /
  log / discrete, bounds, constraint expressions);
* :mod:`repro.dse.objectives` — picklable adapters exposing existing
  evaluators (link energy, bandwidth density, sensing margin, Monte
  Carlo yield) as named min/max objectives;
* :mod:`repro.dse.pareto` — dominance, non-dominated sorting, crowding
  distance, hypervolume;
* :mod:`repro.dse.strategies` — grid (shared with ``analysis.sweep``),
  Latin-hypercube and NSGA-II searches, all deterministic per seed;
* :mod:`repro.dse.engine` — :func:`run_dse`, the ask/evaluate/tell
  loop: content-addressed per-candidate seeds, result-cache reuse, and
  parallel, checkpointed batch evaluation through the shared
  :func:`repro.runtime.run_checkpointed` task loop;
* :mod:`repro.dse.studies` — the paper's Fig. 8 and Section II claims
  re-cast as DSE studies;
* :mod:`repro.dse.report` — front tables and run summaries.

Entry points: ``scripts/run_dse.py`` on the command line,
:func:`run_dse` / the study functions as a library.  Semantics
(determinism across worker counts, resume equivalence, cache
interaction) are specified in docs/DSE.md.
"""

from repro.dse.engine import (
    DseResult,
    EvalRecord,
    candidate_key,
    candidate_seed,
    run_dse,
)
from repro.dse.objectives import (
    DseBatchConfig,
    Fig8Evaluator,
    InfeasibleDesign,
    NocTopologyEvaluator,
    NocWorkloadEvaluator,
    Objective,
    EVALUATORS,
    SizingEvaluator,
    Zdt1Evaluator,
    make_evaluator,
    infeasible_vector,
    signed_vector,
)
from repro.dse.pareto import (
    crowding_distance,
    dominates,
    hypervolume,
    non_dominated_sort,
    pareto_front_indices,
)
from repro.dse.report import format_front, format_report, format_summary
from repro.dse.space import (
    ParamSpace,
    Parameter,
    continuous,
    discrete,
    log,
    space_from_spec,
)
from repro.dse.strategies import (
    GridStrategy,
    LhsStrategy,
    Nsga2Strategy,
    SearchStrategy,
    make_strategy,
)
from repro.dse.studies import (
    Fig8Outcome,
    fig8_space,
    fig8_study,
    sizing_space,
    sizing_study,
)

__all__ = [
    "DseResult",
    "EvalRecord",
    "Fig8Evaluator",
    "Fig8Outcome",
    "GridStrategy",
    "InfeasibleDesign",
    "LhsStrategy",
    "NocTopologyEvaluator",
    "NocWorkloadEvaluator",
    "Nsga2Strategy",
    "Objective",
    "ParamSpace",
    "Parameter",
    "SearchStrategy",
    "EVALUATORS",
    "DseBatchConfig",
    "SizingEvaluator",
    "Zdt1Evaluator",
    "make_evaluator",
    "candidate_key",
    "candidate_seed",
    "continuous",
    "crowding_distance",
    "discrete",
    "dominates",
    "fig8_space",
    "fig8_study",
    "format_front",
    "format_report",
    "format_summary",
    "hypervolume",
    "infeasible_vector",
    "log",
    "make_strategy",
    "non_dominated_sort",
    "pareto_front_indices",
    "run_dse",
    "signed_vector",
    "sizing_space",
    "sizing_study",
    "space_from_spec",
]
