import numpy as np
import pytest
from hypothesis import settings

from nullsim.beamforming import ArrayGeometry
from nullsim.phy_grid import LteGrid, WifiGrid, build_rb_sc_map, build_sc_rb_map

# the whole-run reference check of tests/test_oracle.py with a larger budget
# than a local tier-1 run spends: pytest --hypothesis-profile=oracle
settings.register_profile("oracle", max_examples=1000, deadline=None)


@pytest.fixture(scope="session")
def lte():
    return LteGrid()


@pytest.fixture(scope="session")
def wifi():
    return WifiGrid()


@pytest.fixture(scope="session")
def rb_map(lte, wifi):
    return build_rb_sc_map(lte, wifi)


@pytest.fixture(scope="session")
def sc_rb(lte, wifi):
    return build_sc_rb_map(lte, wifi)


@pytest.fixture(scope="session")
def geom4():
    return ArrayGeometry(k_antennas=4)


@pytest.fixture(scope="session")
def geom8():
    return ArrayGeometry(k_antennas=8)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
