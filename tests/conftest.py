import functools
import os
from importlib.resources import files

import pytest

from nowcastsim import population, scenario, taxben


@pytest.fixture(scope="session")
def data_dir():
    return str(files("nowcastsim") / "data")


@pytest.fixture(scope="session")
def policy_dir(data_dir):
    return os.path.join(data_dir, "policy")


@pytest.fixture(scope="session")
def tables(data_dir):
    return scenario.load_data_tables(data_dir)


@pytest.fixture(scope="session")
def schedules(policy_dir):
    return taxben.load_policy(policy_dir)


@pytest.fixture(scope="session")
def small_pop():
    return population.generate_synthetic(population.SynthConfig(households=400), 7)


@pytest.fixture(scope="session")
def default_scenario(data_dir):
    return scenario.parse_scenario(os.path.join(data_dir, "scenario.cfg"))


def run_spied(pop, plan, *args, **kwargs) -> tuple:
    """`scenario.run_scenario(pop, plan, ...)` with `scenario.apply_wave`
    spied on, as (BaselineState, the WaveResults in `plan`'s order,
    summaries). The spy keeps each result under its wave's label; the date
    threads of a run at threads > 1 store concurrently, one dict store each,
    which the GIL makes atomic. A wave applied twice, or not at all, fails."""
    results, inner = {}, scenario.apply_wave

    @functools.wraps(inner)
    def apply_wave(*args, **kwargs):
        result = inner(*args, **kwargs)
        if results.setdefault(result.label, result) is not result:
            raise AssertionError(f"wave {result.label!r} was applied twice")
        return result
    scenario.apply_wave = apply_wave
    try:
        base, _, summaries = scenario.run_scenario(pop, plan, *args, **kwargs)
    finally:
        scenario.apply_wave = inner
    assert sorted(results) == sorted(w.label for w in plan.waves)
    return base, [results[w.label] for w in plan.waves], summaries


@pytest.fixture(scope="session")
def wave_spy():
    """`run_spied`, the one way tests read a run's WaveResults: as
    `apply_wave` computed them, every cents array in int64. `run_scenario`
    returns them only for the benchmark's launcher, as the int32 copies it
    keeps of each date whose values all fit."""
    return run_spied
