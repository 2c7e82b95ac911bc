import numpy as np
import pytest
from hypothesis import settings

from nullsim import campaign, coexsim, nullsearch
from nullsim.beamforming import ArrayGeometry

# the whole-run reference check of tests/test_oracle.py with a larger budget
# than a local tier-1 run spends: pytest --hypothesis-profile=oracle
settings.register_profile("oracle", max_examples=1000, deadline=None)
# the screened rank checks of tests/test_rank_screen.py against the full SVD,
# ten times their tier-1 budget: pytest --hypothesis-profile=screen
settings.register_profile("screen", max_examples=2500, deadline=None)
# the measurement's bit-identity properties of tests/test_measurement_bits.py,
# ten to twenty times their tier-1 budget: pytest --hypothesis-profile=bits
settings.register_profile("bits", max_examples=400, deadline=None)


def clear_caches():
    """Empty every process-wide cache, so the next run starts as a fresh
    process's does: the tree layouts and trees, the exported configs' text
    and the kept channel calibration.  A scenario's own tree and hash stay
    in the instance; a fresh copy (``dataclasses.replace(s)``) has neither."""
    nullsearch._shared_tree.cache_clear()
    nullsearch._tree_layout.cache_clear()
    nullsearch._grid_layout.cache_clear()
    campaign._config_json.cache_clear()
    coexsim._last_calibration = ((), None)


@pytest.fixture(scope="session")
def geom4():
    return ArrayGeometry(k_antennas=4)


@pytest.fixture(scope="session")
def geom8():
    return ArrayGeometry(k_antennas=8)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
