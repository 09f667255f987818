import numpy as np
import pytest

from ldplab.problems import load_problem
from ldplab.zvonkin import find_lambda0


@pytest.fixture(scope="session")
def dini_problem():
    return load_problem("dini-tanhlog-1d")


@pytest.fixture(scope="session")
def dini_lambda0(dini_problem):
    return find_lambda0(dini_problem, resolution=257)


@pytest.fixture(scope="session")
def dini_map(dini_lambda0):
    return dini_lambda0.map


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(key=1234))
