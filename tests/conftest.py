import os

import pytest

import chamberwalks
from chamberwalks import hecke, weyl


@pytest.fixture(scope="session")
def package_env():
    """Environment for a subprocess that imports this copy of the package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(chamberwalks.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.fixture(scope="session")
def field2():
    return hecke.ScalarField(2)


@pytest.fixture(scope="session")
def field3():
    return hecke.ScalarField(3)


@pytest.fixture(scope="session")
def ball8():
    return weyl.ball(8)


@pytest.fixture(scope="session")
def ball6():
    return weyl.ball(6)


@pytest.fixture(scope="session")
def ball4():
    return weyl.ball(4)
