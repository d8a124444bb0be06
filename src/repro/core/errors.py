"""Exception hierarchy for the repro package."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ModelError(ReproError):
    """Invalid model data (bad job, platform, or instance parameters)."""


class CheckpointError(ModelError):
    """A cell checkpoint cannot be resumed: it is corrupt, or it was
    written by a different sweep.  Raised before any cell runs."""


class ScheduleError(ReproError):
    """A schedule violates the constraints of the edge-cloud model."""

    def __init__(self, message: str, *, job: int | None = None):
        super().__init__(message)
        #: Index of the offending job, when a single job is at fault.
        self.job = job


class SimulationError(ReproError):
    """Internal inconsistency detected while running the event engine."""


class DecisionError(ReproError):
    """A scheduler returned a malformed or illegal decision."""


class CellTimeoutError(ReproError):
    """A sweep cell exceeded its per-cell wall-clock timeout budget.

    Raised inside a worker by the harness's alarm guard; the driver
    catches it like any other cell failure and applies the configured
    ``--on-cell-error`` policy (fail, skip, or retry).
    """
