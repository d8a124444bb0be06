"""``instance_fault_trace``: the one place a run's fault horizon and MTTR come from."""

import numpy as np
import pytest

from repro import simulate_cli
from repro.core.errors import ModelError
from repro.experiments import cli as experiments_cli
from repro.faults.model import (
    MTTR_FRACTION,
    FaultClassParams,
    exponential_fault_trace,
    instance_fault_trace,
)
from repro.workloads.random_uniform import RandomInstanceConfig, generate_random_instance


def _instance(n_jobs=12, seed=4):
    return generate_random_instance(RandomInstanceConfig(n_jobs=n_jobs), seed=seed)


def _by_hand(instance, mtbf, mttr, seed, **kw):
    """The documented horizon and MTTR, spelled out by hand."""
    params = FaultClassParams(mtbf=mtbf, mttr=mttr)
    return exponential_fault_trace(
        n_edge=instance.platform.n_edge,
        n_cloud=instance.platform.n_cloud,
        horizon=float(instance.release.max() + instance.min_time.sum()),
        seed=seed,
        edge=params,
        cloud=params,
        link=params,
        **kw,
    )


class TestInstanceFaultTrace:
    def test_default_mttr_is_a_tenth_of_mtbf(self):
        instance = _instance()
        trace = instance_fault_trace(instance, mtbf=40.0, seed=3)
        assert MTTR_FRACTION == 0.1
        assert trace.rates.edge.mttr == 0.1 * 40.0
        assert trace == _by_hand(instance, 40.0, 4.0, 3)

    def test_explicit_mttr_and_groups_pass_through(self):
        instance = _instance()
        groups = (("edge", (0, 1, 2)), ("link", (0, 1)))
        trace = instance_fault_trace(
            instance, mtbf=25.0, mttr=7.5, seed=np.random.default_rng(9), groups=groups
        )
        expected = _by_hand(
            instance, 25.0, 7.5, np.random.default_rng(9), groups=groups
        )
        assert trace == expected
        assert trace.rates.cloud.mttr == 7.5

    def test_empty_instance_is_a_model_error(self):
        with pytest.raises(ModelError, match="empty instance"):
            instance_fault_trace(_instance(n_jobs=0), mtbf=40.0, seed=0)


class TestEmptyInstanceOnTheClis:
    def test_simulate_reports_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            simulate_cli.main(
                ["--generate", "random", "--n-jobs", "0", "--fault-mtbf", "40"]
            )
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "repro-simulate: error: cannot inject faults into an empty instance" in err

    def test_degradation_sweep_names_the_empty_instance(self):
        with pytest.raises(ModelError, match="empty instance"):
            experiments_cli.main(
                ["degradation_mtbf", "--reps", "1", "--n-jobs", "0", "--quiet"]
            )
