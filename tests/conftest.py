import mpmath as mp
import numpy as np
import pytest

from cumasim.analytic import ChannelStats
from cumasim.geometry import correlation_matrix, preset_grid
from cumasim.montecarlo import SimConfig

# every mpmath oracle works at 50 digits, whichever test modules are collected
mp.mp.dps = 50


@pytest.fixture(scope="session")
def case1_grid():
    return preset_grid("6GHz-NC")


@pytest.fixture(scope="session")
def case1_stats(case1_grid):
    return ChannelStats.from_grid(case1_grid, users=20)


@pytest.fixture(scope="session")
def case1_corr(case1_grid):
    return correlation_matrix(case1_grid)


@pytest.fixture(scope="session")
def case1_config(case1_corr):
    return SimConfig(corr=case1_corr, users=20)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240611)
