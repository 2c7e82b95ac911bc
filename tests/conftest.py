import numpy as np
import pytest
from hypothesis import settings

from nullsim.beamforming import ArrayGeometry

# the whole-run reference check of tests/test_oracle.py with a larger budget
# than a local tier-1 run spends: pytest --hypothesis-profile=oracle
settings.register_profile("oracle", max_examples=1000, deadline=None)
# the screened rank checks of tests/test_rank_screen.py against the full SVD,
# ten times their tier-1 budget: pytest --hypothesis-profile=screen
settings.register_profile("screen", max_examples=2500, deadline=None)


@pytest.fixture(scope="session")
def geom4():
    return ArrayGeometry(k_antennas=4)


@pytest.fixture(scope="session")
def geom8():
    return ArrayGeometry(k_antennas=8)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
