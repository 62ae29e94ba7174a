import numpy as np
import pytest
from hypothesis import settings

from ncfem.mesh import l_shape_mesh, unit_square_mesh


@pytest.fixture(scope="session")
def square2():
    return unit_square_mesh(2)


@pytest.fixture(scope="session")
def lshape1():
    return l_shape_mesh(1)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


# property tests check the same examples on every run, in bounded time
settings.register_profile("ncfem", derandomize=True, max_examples=30, deadline=None,
                          database=None)
settings.load_profile("ncfem")
