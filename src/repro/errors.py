"""Exception hierarchy for the SRLR reproduction library."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library-specific errors."""


class ConfigurationError(ReproError):
    """A model was configured with physically or logically invalid parameters."""


class SimulationError(ReproError):
    """A simulation could not be carried out (not a signaling failure)."""


class ExecutionError(ReproError):
    """The parallel runtime could not complete a task (not a physics failure)."""


class TaskTimeoutError(ExecutionError):
    """A task exceeded its per-task wall-clock budget.

    Raised inside the worker by the soft (``SIGALRM``) timeout."""


class CheckpointError(ConfigurationError):
    """A checkpoint store refuses an unsafe operation (config mismatch,
    clobbering an existing run, records without a header, ...)."""


class WorkloadConfigError(ConfigurationError):
    """A campaign config combined workload/traffic fields that do not
    apply together (a trace replay given synthetic-generator knobs,
    burst parameters without the bursty workload, ...).  Mirrors the
    topology-flag guards in :func:`repro.noc.topology.build_topology`:
    fields that would otherwise be silently ignored refuse loudly,
    naming the offending combination."""


class NocError(ReproError):
    """Base class for NoC simulator errors."""


class RoutingError(NocError):
    """A packet could not be routed (bad destination, broken topology)."""


class ProtocolError(NocError):
    """Flow-control protocol invariant violated (credit underflow, VC misuse)."""


class LivelockError(ProtocolError):
    """The network stopped making forward progress (retransmission storm,
    disabled-link partition, saturation livelock).  Subclasses
    :class:`ProtocolError` so callers that treated failure-to-drain as a
    protocol failure keep working; the message carries a per-component
    diagnostic of where traffic is stuck."""


class ServiceError(ReproError):
    """Base class for campaign-service (:mod:`repro.service`) errors."""


class CampaignMismatchError(ServiceError):
    """A submission tried to attach to an existing campaign name with a
    different configuration.  Mirrors the refusal semantics of
    :class:`CheckpointError`: identity is the content hash of the
    canonical config, so a byte-identical resubmission is a no-op while
    any change refuses loudly instead of silently mixing task rows."""
