"""The runner's production engines against the per-event reference chain.

The runner has one engine per stage (batch classifier, columnar
interpretation and power, event-driven SM simulator).  Its timing and
power must equal what the per-event engines produce for the same
benchmark: ``classify_trace`` -> ``process_classified`` -> the cycle-level
``SmSimulator`` -> ``PowerAccountant.account``.
"""

import pytest

from repro.experiments.runner import ExperimentRunner, matrix_architectures

from tests.oracles import reference_timing_and_power


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(scale="tiny")


@pytest.mark.parametrize("abbr", ("BP", "HS"))
@pytest.mark.parametrize("arch", matrix_architectures(), ids=lambda arch: arch.name)
def test_runner_matches_reference_chain(runner, abbr, arch):
    timing, power = reference_timing_and_power(runner, abbr, arch)
    assert runner.timing(abbr, arch) == timing
    assert runner.power(abbr, arch) == power
