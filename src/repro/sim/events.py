"""Event types of the event-based algorithms (Section V).

The paper's algorithms reconsider decisions only when one of at most
``4n`` events occurs, for job :math:`J_i`:

1. the job is released at its edge unit            (``Release``);
2. the job completes execution                      (``ComputeDone``);
3. the job completes an uplink communication        (``UplinkDone``);
4. the job completes a downlink communication       (``DownlinkDone``).

``JobDone`` fires when the job leaves the system (it coincides with
``ComputeDone`` for edge jobs and ``DownlinkDone`` for cloud jobs and is
provided for scheduler convenience).  Preemptions do not create events:
they are *decisions* taken at events.

Extensions add further kinds: ``AvailabilityChange`` for planned cloud
windows (§VII), and the fault events of :mod:`repro.faults` —
``ResourceDown``/``ResourceUp`` when an edge unit or cloud processor
crashes/recovers (carrying the :class:`~repro.core.resources.Resource`),
``LinkDown``/``LinkUp`` when an edge unit's access link drops/returns
(carrying the unit as the resource), and ``AttemptAborted`` for every
attempt a crash killed (carrying the job), so schedulers can react to
lost work without inspecting the per-job state.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.resources import Resource


class EventKind(enum.Enum):
    """The kinds of simulation events."""

    RELEASE = "release"
    UPLINK_DONE = "uplink_done"
    COMPUTE_DONE = "compute_done"
    DOWNLINK_DONE = "downlink_done"
    JOB_DONE = "job_done"
    AVAILABILITY_CHANGE = "availability_change"
    RESOURCE_DOWN = "resource_down"
    RESOURCE_UP = "resource_up"
    LINK_DOWN = "link_down"
    LINK_UP = "link_up"
    ATTEMPT_ABORTED = "attempt_aborted"
    CHECKPOINT_COMMITTED = "checkpoint_committed"
    JOB_ABANDONED = "job_abandoned"


@dataclass(frozen=True)
class Event:
    """One simulation event: what happened, to which job, and when.

    ``resource`` is set only on fault events (which resource crashed,
    recovered, or lost its link); job-lifecycle events leave it None.
    """

    kind: EventKind
    time: float
    job: int | None = None
    resource: Resource | None = None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        who = f" J{self.job}" if self.job is not None else ""
        where = f" {self.resource}" if self.resource is not None else ""
        return f"{self.kind.value}@{self.time:g}{who}{where}"


def release(time: float, job: int) -> Event:
    """A job-release event."""
    return Event(EventKind.RELEASE, time, job)


def uplink_done(time: float, job: int) -> Event:
    """An uplink-completion event."""
    return Event(EventKind.UPLINK_DONE, time, job)


def compute_done(time: float, job: int) -> Event:
    """A computation-completion event."""
    return Event(EventKind.COMPUTE_DONE, time, job)


def downlink_done(time: float, job: int) -> Event:
    """A downlink-completion event."""
    return Event(EventKind.DOWNLINK_DONE, time, job)


def job_done(time: float, job: int) -> Event:
    """A job-leaves-the-system event."""
    return Event(EventKind.JOB_DONE, time, job)


def availability_change(time: float) -> Event:
    """A cloud availability window opened or closed (extension)."""
    return Event(EventKind.AVAILABILITY_CHANGE, time, None)


def resource_down(time: float, resource: Resource) -> Event:
    """An edge unit or cloud processor crashed (fault extension)."""
    return Event(EventKind.RESOURCE_DOWN, time, None, resource)


def resource_up(time: float, resource: Resource) -> Event:
    """A crashed edge unit or cloud processor recovered."""
    return Event(EventKind.RESOURCE_UP, time, None, resource)


def link_down(time: float, unit: Resource) -> Event:
    """The access link of edge ``unit`` went down (fault extension)."""
    return Event(EventKind.LINK_DOWN, time, None, unit)


def link_up(time: float, unit: Resource) -> Event:
    """The access link of edge ``unit`` came back up."""
    return Event(EventKind.LINK_UP, time, None, unit)


def attempt_aborted(time: float, job: int, resource: Resource) -> Event:
    """A crash aborted ``job``'s in-progress attempt on ``resource``."""
    return Event(EventKind.ATTEMPT_ABORTED, time, job, resource)


def checkpoint_committed(time: float, job: int, resource: Resource | None) -> Event:
    """``job``'s progress watermark advanced durably on ``resource``
    (checkpoint extension, :mod:`repro.sim.checkpoint`)."""
    return Event(EventKind.CHECKPOINT_COMMITTED, time, job, resource)


def job_abandoned(time: float, job: int) -> Event:
    """``job`` exhausted its retry budget and left the system
    uncompleted (checkpoint extension)."""
    return Event(EventKind.JOB_ABANDONED, time, job)
