"""Fault-degradation study: max-stretch vs resource reliability.

Sweeps the mean time between failures (MTBF) of every resource class
and measures how gracefully each heuristic degrades as crashes and link
outages force re-executions — the robustness companion to the paper's
fault-free comparison (the paper's model already prices re-execution
via its attempt counter; here the attempts are forced by the platform
instead of chosen by the scheduler).

Every sweep point shares the instance distribution and differs only in
the fault model: failures arrive as a seeded renewal process
(:func:`repro.faults.model.instance_fault_trace`) whose horizon
covers the whole run, with a fixed mean time to repair, so smaller MTBF
means strictly more downtime.  Instance, availability, and fault
streams are drawn in a fixed order from the cell's generator, so the
x-axis varies reliability and nothing else.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.instance import Instance
from repro.experiments.config import ExperimentSpec, SchedulerSpec, SweepPoint
from repro.faults.model import instance_fault_trace
from repro.faults.trace import FaultTrace
from repro.run_options import RunOptions
from repro.workloads.random_uniform import (
    RandomInstanceConfig,
    generate_random_instance,
    paper_random_platform,
)


def _make_faults(mtbf: float, group_size: int, groups):
    def factory(instance: Instance, rng) -> FaultTrace:
        return instance_fault_trace(
            instance, mtbf=mtbf, seed=rng, group_size=group_size, groups=groups
        )

    return factory


def degradation_mtbf(
    *,
    mtbf_values: Sequence[float] = (25.0, 50.0, 100.0, 200.0, 400.0),
    n_jobs: int = 100,
    n_reps: int = 10,
    ccr: float = 1.0,
    load: float = 0.5,
    seed: int = 20210601,
    options: RunOptions = RunOptions(),
) -> ExperimentSpec:
    """Max-stretch degradation as resources get less reliable.

    x is the per-resource MTBF in time units (smaller = failures more
    frequent); MTTR is pinned at
    :data:`~repro.faults.model.MTTR_FRACTION` of the MTBF so the
    long-run unavailable fraction is constant and the x-axis isolates
    failure *frequency* (how often work is lost) rather than capacity.

    ``options`` (:class:`~repro.run_options.RunOptions`) extends the
    study.  ``failure_aware`` adds the ``ssf-edf-fa``, ``srpt-fa`` and
    ``fcfs-fa`` variants to the roster (all schedule from the run's
    shared *discounted* capacity outlook, see :mod:`repro.capacity`)
    for a fault-oblivious vs failure-aware comparison on identical fault
    realizations.  ``correlation`` is the correlated-failure group size:
    consecutive resources in groups of that size share their fault
    windows (1 = independent); ``fault_groups`` instead takes a
    topology-driven group spec (``"edge:0-4;link:0-4"``, see
    :func:`repro.faults.model.parse_fault_groups`).  Adding a roster
    entry does not perturb the shared instance/fault streams, so the
    baseline columns are unchanged.

    ``checkpoint_interval`` / ``checkpoint_cost`` / ``retry_budget``
    enable the checkpoint/restart variant: two extra roster entries —
    ``ssf-edf-fa+ckpt`` and the rework-pricing ``ssf-edf-fa-rework+ckpt``
    — run with a periodic :class:`~repro.sim.checkpoint.CheckpointPolicy`
    on the *same* cells, so checkpointed and from-scratch execution are
    compared on identical fault realizations.  The literal
    ``checkpoint_interval="auto"`` defers the interval to each cell: the
    engine derives the Young/Daly optimum
    :func:`~repro.sim.checkpoint.young_daly_interval` from the cell's
    own fault rates, so every sweep point commits at *its* MTBF's
    optimal cadence rather than one hand-picked constant.
    """
    group_size, groups = options.fault_layout()
    points = tuple(
        SweepPoint(
            x=mtbf,
            make_instance=(
                lambda rng: generate_random_instance(
                    RandomInstanceConfig(n_jobs=n_jobs, ccr=ccr, load=load),
                    platform=paper_random_platform(),
                    seed=rng,
                )
            ),
            make_faults=_make_faults(mtbf, group_size, groups),
            # Lower MTBF means more fault-killed attempts re-executed,
            # so a cell's work grows as its MTBF shrinks; the hint only
            # orders dispatch (docs/HARNESS.md), it never affects rows.
            cost_hint=1.0 / mtbf,
        )
        for mtbf in mtbf_values
    )
    schedulers = [
        SchedulerSpec.named("fcfs"),
        SchedulerSpec.named("greedy"),
        SchedulerSpec.named("ssf-edf"),
    ]
    if options.failure_aware:
        schedulers.append(SchedulerSpec.named("ssf-edf-fa"))
        schedulers.append(SchedulerSpec.named("srpt-fa"))
        schedulers.append(SchedulerSpec.named("fcfs-fa"))
    policy = options.checkpoint_policy()
    if policy is not None:
        schedulers.append(
            SchedulerSpec.named("ssf-edf-fa", label="ssf-edf-fa+ckpt", checkpoint=policy)
        )
        schedulers.append(
            SchedulerSpec.named(
                "ssf-edf-fa-rework", label="ssf-edf-fa-rework+ckpt", checkpoint=policy
            )
        )
    return ExperimentSpec(
        name="degradation_mtbf",
        x_label="MTBF",
        points=points,
        schedulers=tuple(schedulers),
        n_reps=n_reps,
        seed=seed,
        description="max-stretch degradation vs mean time between failures",
    )
