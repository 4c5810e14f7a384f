"""The campaign service: a queue-backed experiment database.

The multi-user, multi-machine generalization of the single-process
execution stack: campaigns (Monte Carlo runs, parameter-grid sweeps,
fault campaigns, DSE candidate batches) land as task rows in a shared
SQLite database (WAL mode), N independent worker processes lease and
execute them under a heartbeat + lease-expiry protocol, and a thin CLI
submits work and merges results.

Layers:

* :mod:`repro.service.db` — the store: campaigns with content-hash
  configuration identity (resubmitting an identical config is a no-op;
  a changed config refuses to attach), atomically leased task rows,
  worker heartbeat accounting;
* :mod:`repro.service.adapters` — existing workloads re-expressed as
  task generators + mergers whose output is bitwise identical to the
  in-process drivers (``run_monte_carlo``, ``sweep_grid``,
  ``run_fault_campaign``, DSE candidate evaluation);
* :mod:`repro.service.worker` — the lease/execute/commit loop, each
  task under the :mod:`repro.runtime.resilience` task policy, with an
  optional shared :class:`repro.runtime.ResultCache`;
* :mod:`repro.service.cli` — ``submit | status | results |
  retry-failed`` (``scripts/service.py``; workers start via
  ``scripts/run_worker.py``).

Determinism contract: every task payload is a pure function of
(campaign config, task spec) with content-addressed RNG seeds, and
completion is guarded so racing workers can never both commit — a
campaign executed by 1 worker or 8 crashing workers merges to results
bitwise identical to the single-process path.  See docs/SERVICE.md.
"""

from repro.service.adapters import (
    ADAPTERS,
    CampaignAdapter,
    DESIGNS,
    DseBatchAdapter,
    FaultCampaignAdapter,
    GRID_EVALUATORS,
    MonteCarloAdapter,
    SweepGridAdapter,
    TaskSpec,
    get_adapter,
)
from repro.service.db import (
    CONFIG_NAMESPACE,
    CampaignDB,
    CampaignStatus,
    LeasedTask,
    SCHEMA_VERSION,
    SubmitReceipt,
    TASK_STATUSES,
    WorkerStatus,
    campaign_config_key,
    canonical_config_json,
    default_worker_id,
)
from repro.service.worker import (
    WorkerReport,
    execute_task,
    run_worker,
    task_cache_key,
)

__all__ = [
    "ADAPTERS",
    "CONFIG_NAMESPACE",
    "CampaignAdapter",
    "CampaignDB",
    "CampaignStatus",
    "DESIGNS",
    "DseBatchAdapter",
    "FaultCampaignAdapter",
    "GRID_EVALUATORS",
    "LeasedTask",
    "MonteCarloAdapter",
    "SCHEMA_VERSION",
    "SubmitReceipt",
    "SweepGridAdapter",
    "TASK_STATUSES",
    "TaskSpec",
    "WorkerReport",
    "WorkerStatus",
    "campaign_config_key",
    "canonical_config_json",
    "default_worker_id",
    "execute_task",
    "get_adapter",
    "run_worker",
    "task_cache_key",
]
