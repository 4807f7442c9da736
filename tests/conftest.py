import dataclasses
import time

import pytest

import tofclock as tc
from tofclock import analysis, oracles
from tofclock.presets import get_preset
from tofclock.propagators import run_experiment

ACCEPTANCE_GRID = tc.SpatialGrid(-250.0, 150.0, 2**12)


@pytest.fixture(scope="session")
def fig1_cont_run():
    cfg = dataclasses.replace(get_preset("fig1-continuous"), grid=ACCEPTANCE_GRID)
    t0 = time.perf_counter()
    result = run_experiment(cfg)
    wall = time.perf_counter() - t0
    return result, wall


@pytest.fixture(scope="session")
def fig1_cont_series(fig1_cont_run):
    result, _ = fig1_cont_run
    return analysis.state_tof_distribution(result.final_state, 1024)


@pytest.fixture(scope="session")
def fig1_kicked_run():
    cfg = dataclasses.replace(get_preset("fig1-kicked-T1"), grid=ACCEPTANCE_GRID,
                              boundary_mass_tol=0.05)
    return run_experiment(cfg)


@pytest.fixture(scope="session")
def fig1_kicked_series(fig1_kicked_run):
    return analysis.state_tof_distribution(fig1_kicked_run.final_state, 1024)


@pytest.fixture(scope="session")
def fig1_ideal_series():
    return oracles.ideal_reading(get_preset("fig1-continuous"))
