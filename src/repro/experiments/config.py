"""Experiment specifications: what to sweep, which policies, how many reps.

An :class:`ExperimentSpec` is fully declarative: a list of sweep points,
each able to draw an instance (and optionally a cloud-availability
pattern) from a seeded generator, plus the scheduler roster.  The runner
(:mod:`repro.experiments.runner`) turns a spec into result rows; seeds
are derived per (point, replication) with ``SeedSequence.spawn`` so
every row is independently reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.errors import ModelError
from repro.core.instance import Instance
from repro.faults.trace import FaultTrace
from repro.schedulers.base import BaseScheduler
from repro.schedulers.registry import make_scheduler
from repro.sim.availability import CloudAvailability
from repro.sim.checkpoint import CheckpointPolicy

#: Builds a fresh scheduler; receives a generator for stochastic policies.
SchedulerFactory = Callable[[np.random.Generator], BaseScheduler]

#: Draws one instance for a sweep point.
InstanceFactory = Callable[[np.random.Generator], Instance]

#: Draws the cloud-availability pattern for one run (None = always on).
AvailabilityFactory = Callable[[Instance, np.random.Generator], CloudAvailability]

#: Draws the fault trace for one run (None = fault-free).
FaultFactory = Callable[[Instance, np.random.Generator], FaultTrace]


@dataclass(frozen=True)
class SchedulerSpec:
    """A labeled scheduler factory.

    ``checkpoint`` opts this roster entry's runs into the
    checkpoint/restart execution model (:mod:`repro.sim.checkpoint`);
    None (the default) keeps the historical from-scratch rule.  The
    policy rides the spec (not the experiment) so a roster can compare
    checkpointed and uncheckpointed variants on the same cells.
    """

    label: str
    factory: SchedulerFactory
    checkpoint: CheckpointPolicy | None = None

    @classmethod
    def named(
        cls,
        name: str,
        *,
        label: str | None = None,
        checkpoint: CheckpointPolicy | None = None,
        **kwargs,
    ) -> "SchedulerSpec":
        """Spec for a registry scheduler; kwargs go to its constructor."""
        if label is None:
            label = name
        if name == "random":
            return cls(
                label,
                lambda rng: make_scheduler(name, seed=rng, **kwargs),
                checkpoint,
            )
        return cls(label, lambda rng: make_scheduler(name, **kwargs), checkpoint)


@dataclass(frozen=True)
class SweepPoint:
    """One x-value of a sweep and its instance distribution.

    ``cost_hint`` is an optional unitless relative cost of one cell of
    this point (only the ordering across points matters); the parallel
    harness dispatches expensive cells first
    (:mod:`repro.experiments.dispatch`).  None predicts uniform cost.
    """

    x: float
    make_instance: InstanceFactory
    make_availability: AvailabilityFactory | None = None
    make_faults: FaultFactory | None = None
    cost_hint: float | None = None


@dataclass(frozen=True)
class ExperimentSpec:
    """A complete experiment: sweep points x schedulers x replications."""

    name: str
    x_label: str
    points: tuple[SweepPoint, ...]
    schedulers: tuple[SchedulerSpec, ...]
    n_reps: int = 10
    seed: int = 0
    description: str = ""

    def __post_init__(self) -> None:
        if self.n_reps <= 0:
            raise ModelError(f"n_reps must be positive, got {self.n_reps}")
        if not self.points:
            raise ModelError("an experiment needs at least one sweep point")
        if not self.schedulers:
            raise ModelError("an experiment needs at least one scheduler")
        labels = [s.label for s in self.schedulers]
        if len(set(labels)) != len(labels):
            raise ModelError(f"duplicate scheduler labels: {labels}")
