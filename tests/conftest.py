import os

import numpy as np
import pytest

import sympberry
from sympberry import _random


@pytest.fixture
def rng():
    return np.random.default_rng(20240814)


@pytest.fixture
def random_symmetric():
    return _random.random_symmetric


@pytest.fixture
def random_symplectic():
    return _random.random_symplectic


@pytest.fixture
def random_generator():
    return _random.random_generator


@pytest.fixture
def child_env():
    """Environment for a child interpreter that imports this sympberry package,
    with every warning raised as an error, as in this suite."""
    src = os.path.dirname(os.path.dirname(sympberry.__file__))
    env = dict(os.environ, PYTHONWARNINGS="error")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env
