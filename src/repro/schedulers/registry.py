"""Name → scheduler factory registry.

The experiment harness and CLI refer to schedulers by name; factories
(rather than instances) are registered because schedulers are stateful
and each simulation run needs a fresh one.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.core.errors import ModelError
from repro.schedulers.base import BaseScheduler
from repro.schedulers.cloud_only import CloudOnlyScheduler
from repro.schedulers.edge_only import EdgeOnlyScheduler
from repro.schedulers.fcfs import FcfsScheduler
from repro.schedulers.greedy import GreedyScheduler
from repro.schedulers.random_alloc import RandomScheduler
from repro.schedulers.srpt import SrptScheduler
from repro.schedulers.ssf_edf import SsfEdfScheduler

SchedulerFactory = Callable[[], BaseScheduler]

_REGISTRY: dict[str, SchedulerFactory] = {
    "edge-only": EdgeOnlyScheduler,
    "greedy": GreedyScheduler,
    "greedy-fa": lambda **kw: GreedyScheduler(failure_aware=True, **kw),
    "greedy-unguarded": lambda **kw: GreedyScheduler(guarded=False, **kw),
    "srpt": SrptScheduler,
    "srpt-fa": lambda **kw: SrptScheduler(failure_aware=True, **kw),
    "srpt-norestart": lambda **kw: SrptScheduler(allow_restart=False, **kw),
    "ssf-edf": SsfEdfScheduler,
    "ssf-edf-fa": lambda **kw: SsfEdfScheduler(failure_aware=True, **kw),
    "ssf-edf-fa-rework": lambda **kw: SsfEdfScheduler(
        failure_aware=True, rework_pricing=True, **kw
    ),
    "fcfs": FcfsScheduler,
    "fcfs-fa": lambda **kw: FcfsScheduler(failure_aware=True, **kw),
    "cloud-only": CloudOnlyScheduler,
    "random": RandomScheduler,
}

#: The four policies evaluated in the paper's Section VI.
PAPER_SCHEDULERS = ("edge-only", "greedy", "srpt", "ssf-edf")

#: ``--failure-aware``: the failure-aware variant of each policy that has
#: one.  Failure-aware policies map to themselves.
FAILURE_AWARE_VARIANT = {
    "ssf-edf": "ssf-edf-fa",
    "greedy": "greedy-fa",
    "srpt": "srpt-fa",
    "fcfs": "fcfs-fa",
    **{
        fa: fa
        for fa in ("ssf-edf-fa", "ssf-edf-fa-rework", "greedy-fa", "srpt-fa", "fcfs-fa")
    },
}


def available_schedulers() -> tuple[str, ...]:
    """Registered scheduler names, sorted."""
    return tuple(sorted(_REGISTRY))


def make_scheduler(name: str, **kwargs) -> BaseScheduler:
    """Instantiate a fresh scheduler by name."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ModelError(
            f"unknown scheduler {name!r}; available: {', '.join(available_schedulers())}"
        ) from None
    return factory(**kwargs)


def register_scheduler(name: str, factory: SchedulerFactory, *, overwrite: bool = False) -> None:
    """Register a custom scheduler factory under ``name``."""
    if name in _REGISTRY and not overwrite:
        raise ModelError(f"scheduler {name!r} already registered")
    _REGISTRY[name] = factory
