"""The run options ``repro-simulate`` and ``repro-experiments`` share.

Six options extend a run past the paper's model: failure-aware
scheduling, correlated fault groups, and checkpoint/restart with a
retry budget.  :class:`RunOptions` is their one definition:

* :func:`add_run_options` adds the one argparse group both CLIs use,
  and :meth:`RunOptions.from_args` turns a bad value into a usage error;
* construction validates, once, by building the fault layout and the
  :class:`~repro.sim.checkpoint.CheckpointPolicy` the run will use, so
  the messages are the ones the fault model and the engine raise;
* :meth:`RunOptions.to_overrides` is the flat dict a sweep ships to its
  workers (which rebuild their spec with :meth:`RunOptions.from_overrides`)
  and pins in its checkpoint header.

:func:`output_paths_ok` is the one check both CLIs run on their output
file paths before any work starts.

At import this module loads only standard-library modules; the fault
model and the checkpoint policy are imported when a value needs them.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, fields


def _interval_arg(text: str) -> float | str:
    """``--checkpoint-interval`` value: work units, or ``auto`` (Young/Daly)."""
    if text == "auto":
        return "auto"
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number of work units or 'auto', got {text!r}"
        ) from None


@dataclass(frozen=True)
class RunOptions:
    """Fault and checkpoint options of one run; the defaults change nothing.

    ``failure_aware`` runs failure-aware scheduler variants.
    ``correlation`` is the correlated-failure group size (1 =
    independent failures); ``fault_groups`` instead names topology fault
    groups in :func:`~repro.faults.model.parse_fault_groups` syntax, and
    the two exclude each other.  ``checkpoint_interval`` (work units, or
    ``"auto"`` for Young/Daly) with ``checkpoint_cost`` (work per
    commit) and ``retry_budget`` (fault-aborted attempts before a job
    is abandoned) make up the checkpoint policy.

    A bad value raises :class:`~repro.core.errors.ModelError` here.
    """

    failure_aware: bool = False
    correlation: int = 1
    fault_groups: str | None = None
    checkpoint_interval: float | str | None = None
    checkpoint_cost: float = 0.0
    retry_budget: int | None = None

    def __post_init__(self) -> None:
        from repro.core.errors import ModelError

        if self.fault_groups is not None and self.correlation != 1:
            raise ModelError("--fault-groups and --fault-correlation are mutually exclusive")
        if self.checkpoint_cost != 0.0 and self.checkpoint_interval is None:
            raise ModelError("--checkpoint-cost requires --checkpoint-interval")
        if self.correlation < 1:
            raise ModelError(f"group_size must be >= 1, got {self.correlation}")
        self.fault_layout()
        self.checkpoint_policy()

    def fault_layout(self) -> tuple[int, tuple | None]:
        """``(group_size, groups)`` for :func:`~repro.faults.model.exponential_fault_trace`."""
        if self.fault_groups is None:
            return self.correlation, None
        from repro.faults.model import parse_fault_groups

        return 1, parse_fault_groups(self.fault_groups)

    def checkpoint_policy(self, *, phase_boundaries: bool = False):
        """The :class:`~repro.sim.checkpoint.CheckpointPolicy` of the run, or None.

        ``phase_boundaries`` (``repro-simulate --checkpoint-phases``)
        also commits at each uplink/compute boundary.
        """
        if (
            self.checkpoint_interval is None
            and self.retry_budget is None
            and not phase_boundaries
        ):
            return None
        from repro.sim.checkpoint import CheckpointPolicy

        auto = self.checkpoint_interval == "auto"
        return CheckpointPolicy(
            interval=None if auto else self.checkpoint_interval,
            commit_cost=self.checkpoint_cost,
            phase_boundaries=phase_boundaries,
            retry_budget=self.retry_budget,
            auto_interval=auto,
        )

    def to_overrides(self, **sweep) -> dict:
        """``sweep`` plus the options that differ from their defaults, flat.

        This is the dict a sweep ships to its workers and pins in its
        checkpoint header.  Default options add no keys, so a default
        sweep keeps the header it had before these options existed.
        """
        return {
            **sweep,
            **{
                f.name: getattr(self, f.name)
                for f in fields(self)
                if getattr(self, f.name) != f.default
            },
        }

    @classmethod
    def from_overrides(cls, overrides: dict) -> RunOptions:
        """The options in a sweep's overrides dict; other keys are ignored."""
        return cls(**{f.name: overrides[f.name] for f in fields(cls) if f.name in overrides})

    @classmethod
    def from_args(cls, parser: argparse.ArgumentParser, args) -> RunOptions:
        """The options :func:`add_run_options` parsed; a bad value is a usage error."""
        from repro.core.errors import ModelError

        try:
            return cls(**{f.name: getattr(args, f.name) for f in fields(cls)})
        except ModelError as exc:
            parser.error(str(exc))


def add_run_options(parser: argparse.ArgumentParser, scope: str) -> None:
    """Add the six run options to ``parser`` as one group.

    ``scope`` says where the options apply (it heads the group's help).
    """
    group = parser.add_argument_group("fault and checkpoint options", scope)
    group.add_argument(
        "--failure-aware",
        action="store_true",
        help="run the failure-aware variant of each policy that has one "
        "(ssf-edf -> ssf-edf-fa, greedy -> greedy-fa, srpt -> srpt-fa, "
        "fcfs -> fcfs-fa; they schedule from the discounted capacity outlook)",
    )
    group.add_argument(
        "--fault-correlation",
        dest="correlation",
        type=int,
        default=1,
        metavar="G",
        help="correlated-failure group size: consecutive resources in "
        "groups of G share their fault windows (default 1 = independent)",
    )
    group.add_argument(
        "--fault-groups",
        default=None,
        metavar="SPEC",
        help="topology-driven correlated fault groups, e.g. "
        "'edge:0-4;link:0-4;cloud:0,1': each listed group shares one "
        "failure renewal sequence and memberships may overlap "
        "(excludes --fault-correlation)",
    )
    group.add_argument(
        "--checkpoint-interval",
        type=_interval_arg,
        default=None,
        metavar="WORK|auto",
        help="checkpoint/restart: commit compute progress every WORK work "
        "units, so an aborted or re-placed attempt resumes from the last "
        "commit instead of from scratch; 'auto' derives the Young/Daly "
        "optimum sqrt(2*MTBF*cost) from the run's fault rates (needs a "
        "positive --checkpoint-cost)",
    )
    group.add_argument(
        "--checkpoint-cost",
        type=float,
        default=0.0,
        metavar="WORK",
        help="extra work burned per checkpoint commit (needs "
        "--checkpoint-interval; default 0)",
    )
    group.add_argument(
        "--retry-budget",
        type=int,
        default=None,
        metavar="K",
        help="graceful degradation: abandon a job after K fault-aborted "
        "attempts instead of retrying forever",
    )


def output_paths_ok(*paths: str | None) -> bool:
    """False, after one ``error:`` line on stderr, when an output file
    path cannot be created: its directory is missing, or it is one."""
    for path in filter(None, paths):
        directory = os.path.dirname(path) or "."
        problem = (
            f"no such directory: {directory}" if not os.path.isdir(directory)
            else "is a directory" if os.path.isdir(path) else None
        )
        if problem:
            print(f"error: {path}: {problem}", file=sys.stderr)
            return False
    return True
