"""The channel plan's grids and their two cross-grid maps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nullsim import phy_grid
from nullsim.phy_grid import (
    CENTER_FREQ_HZ,
    N_RB,
    N_SC,
    RB_BANDWIDTH_HZ,
    RB_CENTERS_HZ,
    RB_TO_SC,
    SC_BANDWIDTH_HZ,
    SC_CENTERS_HZ,
    SC_TO_RB,
    build_rb_sc_map,
    build_sc_rb_map,
)


# Independent oracles for the maps and the channel's subcarrier phases: each
# slot's center from the grid's definition, one slot at a time, and a plain
# nearest scan over those centers.


def slot_center_freq(i: int, n: int, bw_hz: int) -> int:
    """Center frequency of slot ``i`` of ``n`` slots of ``bw_hz``, evenly
    spaced and symmetric about the channel's center, in integer hertz."""
    if not 0 <= i < n:
        raise IndexError(f"slot {i} out of range 0..{n - 1}")
    return CENTER_FREQ_HZ + (2 * i - (n - 1)) * bw_hz // 2


def rrb_center_freq(r: int) -> int:
    """Center frequency of resource block ``r`` in integer hertz."""
    return slot_center_freq(r, N_RB, RB_BANDWIDTH_HZ)


def sc_center_freq(s: int) -> int:
    """Center frequency of subcarrier ``s`` in integer hertz."""
    return slot_center_freq(s, N_SC, SC_BANDWIDTH_HZ)


def nearest_rrb(freq_hz: int) -> int:
    """Index of the block whose center is nearest ``freq_hz``; ties go low."""
    return min(range(N_RB), key=lambda r: (abs(freq_hz - rrb_center_freq(r)), r))


def test_middle_rrb_of_odd_grid_is_band_center():
    assert slot_center_freq(50, 101, RB_BANDWIDTH_HZ) == CENTER_FREQ_HZ


def test_edge_rrbs_are_equidistant_from_center():
    lo = rrb_center_freq(0)
    hi = rrb_center_freq(N_RB - 1)
    assert CENTER_FREQ_HZ - lo == hi - CENTER_FREQ_HZ


def test_rrb_spacing_is_the_block_bandwidth():
    assert rrb_center_freq(1) - rrb_center_freq(0) == 180_000


def test_middle_subcarrier_of_odd_grid_is_band_center():
    assert slot_center_freq(31, 63, 312_500 * 2) == CENTER_FREQ_HZ


def test_subcarrier_spacing():
    assert sc_center_freq(1) - sc_center_freq(0) == 312_500


@pytest.mark.parametrize("r", [-1, 100])
def test_rrb_index_out_of_range(r):
    with pytest.raises(IndexError):
        rrb_center_freq(r)


@pytest.mark.parametrize("s", [-1, 64])
def test_sc_index_out_of_range(s):
    with pytest.raises(IndexError):
        sc_center_freq(s)


def test_the_plan_is_100_blocks_and_64_subcarriers_at_2412_mhz():
    assert (CENTER_FREQ_HZ, N_RB, N_SC) == (2_412_000_000, 100, 64)
    assert RB_CENTERS_HZ.tolist() == [rrb_center_freq(r) for r in range(N_RB)]
    assert SC_CENTERS_HZ.tolist() == [sc_center_freq(s) for s in range(N_SC)]
    assert RB_CENTERS_HZ.dtype == SC_CENTERS_HZ.dtype == np.int64


# ---------------------------------------------------------------------------
# rb -> sc map


def test_map_matches_brute_force_argmin():
    """Independent exhaustive argmin, ties toward the lower subcarrier."""
    for r in range(N_RB):
        fr = rrb_center_freq(r)
        dists = [abs(fr - sc_center_freq(s)) for s in range(N_SC)]
        best = min(range(N_SC), key=lambda s: (dists[s], s))
        assert RB_TO_SC[r] == best


def test_map_is_monotone_and_in_range():
    entries = RB_TO_SC.tolist()
    assert len(entries) == N_RB
    assert all(0 <= s < N_SC for s in entries)
    assert all(b >= a for a, b in zip(entries, entries[1:]))


def test_map_mirror_symmetry():
    # co-centered grids: the reversed map mirrors, except at exact ties
    for r in range(N_RB):
        mirrored = (N_SC - 1) - RB_TO_SC[N_RB - 1 - r]
        if mirrored == RB_TO_SC[r]:
            continue
        fr = rrb_center_freq(r)
        d_chosen = abs(fr - sc_center_freq(RB_TO_SC[r]))
        d_mirrored = abs(fr - sc_center_freq(mirrored))
        assert d_chosen == d_mirrored


def test_known_map_entry():
    # frozen spot check of the 100x64 mapping
    assert RB_TO_SC[50] == 32


def test_single_slot_grids_map_to_each_other():
    one_block = np.array([rrb_center_freq(0)])
    one_subcarrier = np.array([sc_center_freq(0)])
    assert phy_grid._nearest(one_block, one_subcarrier).tolist() == [0]
    assert phy_grid._nearest(one_subcarrier, one_block).tolist() == [0]


@settings(max_examples=50, deadline=None)
@given(
    n_rrb=st.integers(min_value=1, max_value=12),
    n_sc=st.integers(min_value=1, max_value=12),
    rrb_bw=st.sampled_from([2, 4, 180_000]),
    sc_bw=st.sampled_from([2, 6, 312_500]),
)
def test_map_optimality_for_small_grids(n_rrb, n_sc, rrb_bw, sc_bw):
    """The nearest-slot kernel both maps are built with picks, on any small
    pair of grids, a subcarrier no other sits strictly closer to, the
    lower one on a tie."""
    fr = np.array([slot_center_freq(r, n_rrb, rrb_bw) for r in range(n_rrb)])
    fs = np.array([slot_center_freq(s, n_sc, sc_bw) for s in range(n_sc)])
    m = phy_grid._nearest(fr, fs)
    for r in range(n_rrb):
        assert m[r] == min(range(n_sc), key=lambda s: (abs(fr[r] - fs[s]), s))


def test_maps_match_the_per_slot_scan():
    """Both maps equal a plain nearest scan, ties to the lower index."""
    assert RB_TO_SC.tolist() == [
        min(range(N_SC), key=lambda s: (abs(rrb_center_freq(r) - sc_center_freq(s)), s))
        for r in range(N_RB)
    ]
    assert SC_TO_RB.tolist() == [nearest_rrb(sc_center_freq(s)) for s in range(N_SC)]


def test_the_blocks_map_to_58_distinct_subcarriers():
    """A corrected weight matrix corrects one block per distinct subcarrier."""
    assert len(np.unique(RB_TO_SC)) == 58


def test_the_plan_is_read_only():
    built = build_rb_sc_map(), build_sc_rb_map()
    assert np.array_equal(built[0], RB_TO_SC) and np.array_equal(built[1], SC_TO_RB)
    for table in (RB_TO_SC, SC_TO_RB, RB_CENTERS_HZ, SC_CENTERS_HZ, *built):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1


# ---------------------------------------------------------------------------
# sc -> rb inverse


def test_inverse_map_is_nearest_rrb():
    assert len(SC_TO_RB) == N_SC
    for s in range(N_SC):
        fs = sc_center_freq(s)
        dists = [abs(fs - rrb_center_freq(r)) for r in range(N_RB)]
        assert dists[SC_TO_RB[s]] == min(dists)
        assert SC_TO_RB[s] == nearest_rrb(fs)


def test_nearest_rrb_tie_breaks_low():
    # exactly between blocks r and r+1: 90 kHz from each center
    midpoint = rrb_center_freq(40) + 90_000
    assert nearest_rrb(midpoint) == 40
