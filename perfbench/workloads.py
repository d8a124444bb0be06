"""The benchmark's workloads: inputs from a seed, timed passes, output checks.

Every workload builds its inputs from the ``--seed`` alone and hands the
program only those inputs.  A *pass* is the unit the benchmark times:

* ``anchor-ssf-edf`` / ``anchor-fa-faults`` — one ``simulate()`` call on
  each instance of a small batch (the seed's own instance plus
  ``ANCHOR_BATCH - 1`` instances drawn from seeds derived from it), so the
  figure a pass gives is less tied to one instance's luck;
* ``sweep-mtbf`` — one whole pooled sweep of the pinned MTBF grid.

An *operation* is one ``simulate()`` call or one sweep cell.  It fails if
it raised, was quarantined, or its output differs from the expected one:
the pinned fingerprint for the default seed and size, otherwise an
in-process serial reference (the non-incremental SSF-EDF kernel for the
anchors, the serial runner for the sweep).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import multiprocessing
import os
import sys
import time
import traceback

import numpy as np

from repro.experiments import cli as experiments_cli
from repro.experiments import parallel
from repro.experiments.config import ExperimentSpec, SchedulerSpec, SweepPoint
from repro.experiments.runner import aggregate, run_experiment
from repro.faults import model as fault_model
from repro.obs.harness import HarnessStats
from repro.obs.monitors import DEFAULT_TELEMETRY_HOOKS
from repro.schedulers.registry import make_scheduler
from repro.sim.engine import simulate
from repro.workloads import random_uniform

ANCHOR_N_JOBS = 100
ANCHOR_BATCH = 32
ANCHOR_SEED = 20210005
ANCHOR_MTBF = 100.0
ANCHOR_MTTR = 10.0

SWEEP_MTBFS = (25.0, 50.0, 100.0, 200.0, 400.0)
SWEEP_N_JOBS = 12
SWEEP_REPS = 9
SWEEP_SEED = 20210608
SWEEP_WORKERS = 2
SWEEP_MTTR_FRACTION = 0.1
SWEEP_SCHEDULERS = ("fcfs", "greedy", "ssf-edf")

#: The keys of an anchor fingerprint (see ``anchor_fingerprint``).
FINGERPRINT_KEYS = ("max_stretch", "n_events", "n_decisions", "n_reexecutions",
                    "completion_sha")

#: Fingerprints of anchor runs, keyed by (policy, n_jobs, instance seed).
#: The n=2000 entries are the historical anchor figures; only the keys a
#: pin lists are compared.
ANCHOR_PINS: dict[tuple[str, int, int], dict] = {
    ("ssf-edf", 2000, 20210005): {
        "max_stretch": 5.229584918834113, "n_events": 9340,
        "n_decisions": 7339, "n_reexecutions": 29937,
    },
    ("ssf-edf-fa", 2000, 20210005): {
        "max_stretch": 41.03251671780076, "n_events": 19791,
        "n_decisions": 9997, "n_reexecutions": 1652089,
    },
}

#: The default batch at the default seed, keyed by (policy, instance seed):
#: the ``FINGERPRINT_KEYS`` values in order.
_DEFAULT_BATCH_PINS: dict[tuple[str, int], tuple] = {
    ("ssf-edf", 20210005): (2.633327600754067, 466, 365, 272, "ffab8277846c2675"),
    ("ssf-edf", 1079787215): (1.9505096849575652, 451, 350, 247, "1bf20d74248f48ad"),
    ("ssf-edf", 294648159): (2.484368162541063, 463, 362, 222, "eb89648686ec4b48"),
    ("ssf-edf", 1510578375): (2.2637412244317145, 474, 373, 317, "1c8f130224f2928c"),
    ("ssf-edf", 201624353): (2.5796994377083537, 454, 353, 233, "2c517cb32da5c04d"),
    ("ssf-edf", 1000823316): (2.160551613499534, 456, 355, 282, "c848343934290ca1"),
    ("ssf-edf", 4129912713): (2.287237862783589, 460, 359, 334, "84549591db5e1b85"),
    ("ssf-edf", 1182960636): (2.3806293538487373, 474, 373, 263, "ae7e73cd19058bbd"),
    ("ssf-edf", 382215533): (2.3144601153951867, 463, 362, 321, "42fbcbfe4be33728"),
    ("ssf-edf", 2907965383): (2.348290573790336, 452, 351, 305, "738b12f482e22bea"),
    ("ssf-edf", 1963808893): (2.156202171048106, 469, 368, 247, "f02510a8bc84f8f7"),
    ("ssf-edf", 2554406575): (2.3283632834656482, 460, 359, 189, "7ecb8f511dbc6e1f"),
    ("ssf-edf", 4217432069): (2.3736683541142716, 471, 370, 304, "a1c0144064d6a160"),
    ("ssf-edf", 61296276): (2.011431419325385, 468, 367, 265, "4552ccb6107c3adf"),
    ("ssf-edf", 3232813296): (2.318067914864202, 471, 370, 212, "5f5a0bdee5ba2330"),
    ("ssf-edf", 3260205516): (2.202303274982468, 480, 379, 261, "7759ecb5e630fb24"),
    ("ssf-edf", 4177410843): (2.0400592000228364, 454, 353, 245, "2e6fad8f0f060a80"),
    ("ssf-edf", 2747664853): (2.2619406923283276, 475, 374, 333, "c27a03a6dc46962a"),
    ("ssf-edf", 2456802431): (2.607989784440558, 466, 365, 271, "5deae2a6c5cb1a07"),
    ("ssf-edf", 3565559176): (2.35173200550159, 465, 364, 236, "0fff916b94a4d8f3"),
    ("ssf-edf", 2252585702): (2.324194415817897, 476, 375, 214, "ad3535fa8c5963c0"),
    ("ssf-edf", 3220957896): (2.4120097135336813, 469, 368, 245, "dc9c33ddaec18843"),
    ("ssf-edf", 2770294783): (2.713165893672982, 472, 371, 296, "a9ae070716dafa44"),
    ("ssf-edf", 2750645837): (2.188049320481657, 477, 376, 374, "4fe735dfafee6f3c"),
    ("ssf-edf", 1998733831): (2.33078523570479, 460, 359, 230, "25fe4deba7ac5a65"),
    ("ssf-edf", 2201195808): (2.446564019194355, 474, 373, 323, "31c18aa964b662a8"),
    ("ssf-edf", 2063366220): (2.3077993391015337, 472, 371, 299, "7417bb9f956a4d26"),
    ("ssf-edf", 169609010): (2.544003922267435, 455, 354, 271, "ddc391ba7774dff2"),
    ("ssf-edf", 2051731119): (2.433335127281084, 467, 366, 293, "e706b241eeeee369"),
    ("ssf-edf", 87762312): (2.1109914413971476, 457, 356, 247, "c5fbc8da8262a415"),
    ("ssf-edf", 2383042442): (2.719338192590123, 475, 374, 326, "eb67035a6d2f368a"),
    ("ssf-edf", 1119275880): (2.426157521340828, 464, 363, 327, "3146d8237e248e2e"),
    ("ssf-edf-fa", 20210005): (5.782041223735091, 786, 610, 744, "00cd1a4e7cc1c537"),
    ("ssf-edf-fa", 1079787215): (4.677083694085171, 666, 511, 713, "1e8c71047f939ef3"),
    ("ssf-edf-fa", 294648159): (5.962706551089433, 760, 597, 778, "57a8bb0ce1a5a512"),
    ("ssf-edf-fa", 1510578375): (5.160064067647994, 787, 624, 902, "37539a7a318a8984"),
    ("ssf-edf-fa", 201624353): (10.03436996007237, 802, 634, 1005, "f5932bfb8b57cf67"),
    ("ssf-edf-fa", 1000823316): (5.729935626588624, 718, 551, 805, "8473437320eb85ba"),
    ("ssf-edf-fa", 4129912713): (8.188982920061115, 784, 623, 833, "970d8c9e528723f7"),
    ("ssf-edf-fa", 1182960636): (5.409236968335523, 737, 580, 911, "47ef66cf6ffd0c59"),
    ("ssf-edf-fa", 382215533): (9.073490933127461, 965, 776, 1092, "fb219710a714f855"),
    ("ssf-edf-fa", 2907965383): (5.550442871243861, 709, 557, 704, "1ca52e145b886f40"),
    ("ssf-edf-fa", 1963808893): (5.784301812568033, 741, 579, 1206, "ac9c6c4fd2c687f3"),
    ("ssf-edf-fa", 2554406575): (5.555897324541021, 749, 598, 704, "65615b1b3668fd8a"),
    ("ssf-edf-fa", 4217432069): (8.834398451634424, 760, 591, 913, "022080796cf2a384"),
    ("ssf-edf-fa", 61296276): (4.952397625683206, 777, 612, 1030, "f6b51f831fe9afb2"),
    ("ssf-edf-fa", 3232813296): (10.976281501449614, 867, 715, 623, "08d57285027aed7e"),
    ("ssf-edf-fa", 3260205516): (8.400544907476249, 954, 740, 1363, "0bcc9d450a6ccd40"),
    ("ssf-edf-fa", 4177410843): (4.873792352899939, 691, 539, 760, "089dd13a2f20da13"),
    ("ssf-edf-fa", 2747664853): (6.107757728883015, 822, 633, 1202, "3e9deb44ee7806a0"),
    ("ssf-edf-fa", 2456802431): (8.396727796499707, 773, 618, 772, "f65cb3a740a87ab2"),
    ("ssf-edf-fa", 3565559176): (7.014501020207747, 903, 697, 1114, "045e4a7d97f1a65b"),
    ("ssf-edf-fa", 2252585702): (9.16111430139535, 988, 810, 1144, "7b47aa1bcec113c9"),
    ("ssf-edf-fa", 3220957896): (6.808340625204924, 833, 657, 914, "d52618c3b3d78d93"),
    ("ssf-edf-fa", 2770294783): (6.850393301023972, 904, 716, 1033, "88dd88e98335da61"),
    ("ssf-edf-fa", 2750645837): (5.593389774470464, 767, 600, 1253, "26575987185c0565"),
    ("ssf-edf-fa", 1998733831): (4.685617002741247, 658, 521, 722, "58103471f1ba31f8"),
    ("ssf-edf-fa", 2201195808): (9.354827898359927, 981, 778, 1054, "1891f0edd91f4191"),
    ("ssf-edf-fa", 2063366220): (7.598187293898509, 876, 692, 946, "2d3214553c2582e0"),
    ("ssf-edf-fa", 169609010): (8.162296281230851, 844, 669, 1126, "9d3eb3b8ddac2700"),
    ("ssf-edf-fa", 2051731119): (6.347821645290534, 793, 613, 1075, "70a84c3ec8456e1b"),
    ("ssf-edf-fa", 87762312): (9.890143055815996, 738, 564, 995, "a365b88975503bf6"),
    ("ssf-edf-fa", 2383042442): (6.723927989093631, 816, 666, 794, "f42a6f4c425c0383"),
    ("ssf-edf-fa", 1119275880): (6.183838427830073, 805, 645, 910, "0ea661c59c7517da"),
}
ANCHOR_PINS.update(
    ((policy, ANCHOR_N_JOBS, seed), dict(zip(FINGERPRINT_KEYS, pin)))
    for (policy, seed), pin in _DEFAULT_BATCH_PINS.items()
)

#: Rows and aggregates fingerprints of the pinned sweep, keyed by
#: (n_jobs, reps, seed).
SWEEP_PINS: dict[tuple[int, int, int], tuple[str, str]] = {
    (12, 9, 20210608): (
        "488ac5a10e3efb3c5dd2558df6c5aed46ce1ec6784b7658088fa19a11aa057d4",
        "59832536502cf3ebdbba91fbc0ebfdd87ece1870ae36137dd31be76407f3394d",
    ),
}


def _sha(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _report_failure(what: str) -> None:
    print(f"perfbench: {what} failed:\n{traceback.format_exc()}", file=sys.stderr)


def reap_children(timeout_s: float = 60.0) -> None:
    """Wait until every child process has exited and been reaped.

    The pooled sweep shuts its pool down without waiting; reaping here
    makes the children's CPU time visible to ``os.times()`` and leaves no
    process behind.
    """
    deadline = time.monotonic() + timeout_s
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            for child in multiprocessing.active_children():
                child.kill()
                child.join()
            return
        time.sleep(0.002)


def random_instance(n_jobs: int, load: float, seed):
    """A paper-platform random instance (ccr=1.0)."""
    return random_uniform.generate_random_instance(
        random_uniform.RandomInstanceConfig(n_jobs=n_jobs, ccr=1.0, load=load),
        platform=random_uniform.paper_random_platform(),
        seed=seed,
    )


def fault_trace(instance, mtbf: float, mttr: float, seed):
    """Exponential MTBF/MTTR faults on edge, cloud and links until every
    job could have run back to back after the last release."""
    params = fault_model.FaultClassParams(mtbf=mtbf, mttr=mttr)
    return fault_model.exponential_fault_trace(
        n_edge=instance.platform.n_edge,
        n_cloud=instance.platform.n_cloud,
        horizon=float(instance.release.max() + instance.min_time.sum()),
        seed=seed,
        edge=params,
        cloud=params,
        link=params,
    )


# -- anchors ------------------------------------------------------------------


def batch_seeds(seed: int, batch: int) -> list[int]:
    """The seed itself, then ``batch - 1`` seeds derived from it."""
    derived = np.random.SeedSequence(seed).generate_state(max(batch - 1, 0), np.uint32)
    return [seed] + [int(s) for s in derived]


def anchor_fingerprint(result) -> dict:
    return {
        "max_stretch": result.max_stretch,
        "n_events": result.n_events,
        "n_decisions": result.n_decisions,
        "n_reexecutions": result.n_reexecutions,
        "completion_sha": hashlib.sha256(result.completion.tobytes()).hexdigest()[:16],
    }


def fingerprints_match(got: dict | None, expected: dict | None) -> bool:
    """True when ``got`` agrees with every key ``expected`` lists."""
    if got is None or expected is None:
        return False
    return all(got.get(k) == v for k, v in expected.items())


class AnchorWorkload:
    """``simulate(record_trace=False)`` of one policy over a seeded batch."""

    layers = ("engine", "ledger", "scheduler", "placement", "outlook", "hooks")
    #: The timed calls run in this process.
    pooled = False

    def __init__(self, name: str, policy: str, faulted: bool, seed: int,
                 n_jobs: int = ANCHOR_N_JOBS):
        self.name = name
        self.policy = policy
        self.faulted = faulted
        self.seed = seed
        self.n_jobs = n_jobs
        self.seeds = batch_seeds(seed, ANCHOR_BATCH)
        self.inputs: list = []
        self.scheduler = None
        self.ops_per_pass = ANCHOR_BATCH
        self.jobs_per_pass = n_jobs * ANCHOR_BATCH

    def setup(self) -> dict[str, float]:
        """Generate the batch and the scheduler; returns setup-layer seconds."""
        inputs = []
        instance_s = faults_s = 0.0
        for s in self.seeds:
            t0 = time.perf_counter()
            instance = random_instance(self.n_jobs, 1.0, s)
            t1 = time.perf_counter()
            faults = fault_trace(instance, ANCHOR_MTBF, ANCHOR_MTTR, s) if self.faulted else None
            faults_s += time.perf_counter() - t1
            instance_s += t1 - t0
            inputs.append((instance, faults))
        self.inputs = inputs
        self.scheduler = make_scheduler(self.policy)
        return {"setup.instance_s": instance_s, "setup.faults_s": faults_s}

    def run_one(self, index: int, scheduler=None) -> dict | None:
        instance, faults = self.inputs[index]
        try:
            result = simulate(instance, scheduler or self.scheduler, faults=faults,
                              record_trace=False)
        except Exception:
            _report_failure(f"{self.name} simulate() on instance {index}")
            return None
        return anchor_fingerprint(result)

    def calls(self) -> list:
        """The timed calls of one pass: one ``simulate()`` per instance."""
        return [functools.partial(self.run_one, i) for i in range(len(self.inputs))]

    def expected(self) -> list[dict]:
        """Pinned fingerprint per instance, else the non-incremental reference."""
        out = []
        for index, s in enumerate(self.seeds):
            pin = ANCHOR_PINS.get((self.policy, self.n_jobs, s))
            if pin is None:
                pin = self.run_one(index, make_scheduler(self.policy, incremental=False))
            out.append(pin)
        return out

    def count_failed(self, passes: list[list[dict | None]], expected: list[dict]) -> int:
        return sum(
            not fingerprints_match(fp, exp)
            for outputs in passes
            for fp, exp in zip(outputs, expected)
        )


# -- the pooled sweep ---------------------------------------------------------


def _sweep_instance(n_jobs: int, rng):
    return random_instance(n_jobs, 0.5, rng)


def _sweep_faults(mtbf: float, instance, rng):
    return fault_trace(instance, mtbf, SWEEP_MTTR_FRACTION * mtbf, rng)


def sweep_spec(n_jobs: int = SWEEP_N_JOBS, n_reps: int = SWEEP_REPS,
               seed: int = SWEEP_SEED) -> ExperimentSpec:
    """The pinned degradation-style grid: 5 MTBFs x reps cells x 3 schedulers."""
    return ExperimentSpec(
        name="bench_sweep_harness",
        description="pinned heterogeneous degradation-style grid",
        x_label="MTBF",
        points=tuple(
            SweepPoint(
                x=mtbf,
                make_instance=functools.partial(_sweep_instance, n_jobs),
                make_faults=functools.partial(_sweep_faults, mtbf),
                cost_hint=1.0 / mtbf,
            )
            for mtbf in SWEEP_MTBFS
        ),
        schedulers=tuple(SchedulerSpec.named(s) for s in SWEEP_SCHEDULERS),
        n_reps=n_reps,
        seed=seed,
    )


def _row_payload(row) -> dict:
    return {**row.as_dict(), "wall_time": None, "telemetry": row.telemetry, "trace": row.trace}


def rows_fingerprints(rows) -> tuple[str, str]:
    """Rows and aggregates fingerprints: every field but the wall clocks."""
    aggregates = [{**dataclasses.asdict(a), "wall_time_mean": None} for a in aggregate(rows)]
    return _sha([_row_payload(r) for r in rows]), _sha(aggregates)


def cell_fingerprints(rows) -> dict[tuple[float, int], str]:
    """One fingerprint per (MTBF, rep) cell."""
    cells: dict[tuple[float, int], list] = {}
    for row in rows:
        cells.setdefault((row.x, row.rep), []).append(_row_payload(row))
    return {cell: _sha(payload) for cell, payload in cells.items()}


class SweepWorkload:
    """The pinned grid through ``run_named_experiment_resilient`` on a pool."""

    layers = ("engine", "ledger", "scheduler", "placement", "outlook", "hooks", "setup")
    #: The timed calls run in pool workers.
    pooled = True

    def __init__(self, name: str, seed: int, out_dir: str,
                 n_jobs: int = SWEEP_N_JOBS, reps: int = SWEEP_REPS):
        self.name = name
        self.seed = seed
        self.n_jobs = n_jobs
        self.reps = reps
        self.checkpoint_path = os.path.join(out_dir, f"{name}-{seed}-cells.jsonl")
        self.builder = f"perfbench-sweep-mtbf-n{n_jobs}"
        self.spec = None
        self._reference = None
        self.ops_per_pass = len(SWEEP_MTBFS) * reps
        self.jobs_per_pass = n_jobs * len(SWEEP_SCHEDULERS) * self.ops_per_pass

    def setup(self) -> dict[str, float]:
        # Pool workers are forked and rebuild the spec by builder name.
        experiments_cli._BUILDERS.setdefault(
            self.builder, functools.partial(sweep_spec, self.n_jobs))
        self.spec = experiments_cli.build_spec(
            self.builder, n_reps=self.reps, n_jobs=None, seed=self.seed)
        return {}

    def calls(self) -> list:
        """The timed calls of one pass: one whole pooled sweep."""
        return [self.run_pooled]

    def run_pooled(self, stats: HarnessStats | None = None):
        """One pooled sweep; returns ``(cell fingerprints, whole fingerprints)``."""
        try:
            outcome = parallel.run_named_experiment_resilient(
                self.builder,
                n_workers=SWEEP_WORKERS,
                n_reps=self.reps,
                seed=self.seed,
                instrument=DEFAULT_TELEMETRY_HOOKS,
                on_error="skip",
                checkpoint_path=self.checkpoint_path,
                stats=stats,
            )
        except Exception:
            _report_failure(f"{self.name} pooled sweep")
            return {}, None
        finally:
            reap_children()
        for cell in outcome.quarantined:
            print(f"perfbench: quarantined cell {cell}", file=sys.stderr)
        return cell_fingerprints(outcome.rows), rows_fingerprints(outcome.rows)

    def run_serial(self):
        """One in-process serial run over the same grid."""
        rows = run_experiment(self.spec, instrument=DEFAULT_TELEMETRY_HOOKS)
        return cell_fingerprints(rows), rows_fingerprints(rows)

    def reference(self):
        """The untraced serial run, made once and kept as the oracle."""
        if self._reference is None:
            self._reference = self.run_serial()
        return self._reference

    def expected(self):
        """``(cell fingerprints or None, whole fingerprints)`` to compare against.

        At the pinned seed and size the whole fingerprints are pinned and
        the per-cell reference is computed only if a pass disagrees.
        """
        pin = SWEEP_PINS.get((self.n_jobs, self.reps, self.seed))
        if pin is not None:
            return None, pin
        return self.reference()

    def count_failed(self, passes, expected) -> int:
        cells, whole = expected
        failed = 0
        for [(got_cells, got_whole)] in passes:
            if got_whole == whole:
                continue
            if cells is None:
                cells, serial_whole = self.reference()
                if serial_whole != whole:
                    # The serial runner itself no longer reproduces the
                    # pin: every cell's output changed.
                    cells = {}
            if cells:
                failed += sum(got_cells.get(c) != fp for c, fp in cells.items())
            else:
                failed += self.ops_per_pass
        return failed
