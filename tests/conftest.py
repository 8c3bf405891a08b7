import numpy as np
import pytest

from inlslab.grid import RadialGrid
from inlslab.groundstate import solve_fixedpoint, solve_shooting
from inlslab.params import ModelParams


@pytest.fixture(scope="session")
def params_330():
    return ModelParams(3, 2.0, 0.3)


@pytest.fixture(scope="session")
def grid_330():
    return RadialGrid(J=256 * 16, h=1 / 256, N=3)


@pytest.fixture(scope="session")
def gs_330(params_330, grid_330):
    """Fixed-point ground state at (N, alpha, b) = (3, 2, 0.3), h = 1/256."""
    return solve_fixedpoint(params_330, grid_330)


@pytest.fixture(scope="session")
def gs_330_shooting(params_330, grid_330):
    return solve_shooting(params_330, grid_330)


@pytest.fixture(scope="session")
def sech_pair():
    """The (N=1, alpha=2, b=0) ground state, outside the command line's scope
    gate but not the solvers'; exact solution sqrt(2) sech r."""
    p = ModelParams(1, 2.0, 0.0)
    g = RadialGrid(J=1024 * 20, h=1 / 1024, N=1)
    exact = np.sqrt(2.0) / np.cosh(g.nodes)
    return p, g, exact
