"""Grid geometry and the cross-grid nearest-neighbour maps."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nullsim.phy_grid import (
    LteGrid,
    RbScMap,
    WifiGrid,
    build_rb_sc_map,
    build_sc_rb_map,
)


# Independent oracles for the maps and the channel's subcarrier phases: each
# slot's center from the grid's definition, one slot at a time, and a plain
# nearest scan over those centers.


def rrb_center_freq(grid: LteGrid, r: int) -> int:
    """Center frequency of resource block ``r`` in integer hertz."""
    if not 0 <= r < grid.n_rrb:
        raise IndexError(f"resource block {r} out of range 0..{grid.n_rrb - 1}")
    return grid.center_freq_hz + (2 * r - (grid.n_rrb - 1)) * grid.rrb_bandwidth_hz // 2


def sc_center_freq(grid: WifiGrid, s: int) -> int:
    """Center frequency of subcarrier ``s`` in integer hertz."""
    if not 0 <= s < grid.n_sc:
        raise IndexError(f"subcarrier {s} out of range 0..{grid.n_sc - 1}")
    return grid.center_freq_hz + (2 * s - (grid.n_sc - 1)) * grid.sc_bandwidth_hz // 2


def nearest_rrb(lte: LteGrid, freq_hz: int) -> int:
    """Index of the block whose center is nearest ``freq_hz``; ties go low."""
    return min(range(lte.n_rrb), key=lambda r: (abs(freq_hz - rrb_center_freq(lte, r)), r))


def test_middle_rrb_of_odd_grid_is_band_center():
    grid = LteGrid(n_rrb=101)
    assert rrb_center_freq(grid, 50) == grid.center_freq_hz


def test_edge_rrbs_are_equidistant_from_center(lte):
    lo = rrb_center_freq(lte, 0)
    hi = rrb_center_freq(lte, lte.n_rrb - 1)
    assert lte.center_freq_hz - lo == hi - lte.center_freq_hz


def test_rrb_spacing_is_the_block_bandwidth(lte):
    assert rrb_center_freq(lte, 1) - rrb_center_freq(lte, 0) == 180_000


def test_middle_subcarrier_of_odd_grid_is_band_center():
    grid = WifiGrid(n_sc=63, sc_bandwidth_hz=312_500 * 2)
    assert sc_center_freq(grid, 31) == grid.center_freq_hz


def test_subcarrier_spacing(wifi):
    assert sc_center_freq(wifi, 1) - sc_center_freq(wifi, 0) == 312_500


@pytest.mark.parametrize("r", [-1, 100])
def test_rrb_index_out_of_range(lte, r):
    with pytest.raises(IndexError):
        rrb_center_freq(lte, r)


@pytest.mark.parametrize("s", [-1, 64])
def test_sc_index_out_of_range(wifi, s):
    with pytest.raises(IndexError):
        sc_center_freq(wifi, s)


def test_odd_slot_bandwidth_rejected():
    with pytest.raises(ValueError):
        LteGrid(rrb_bandwidth_hz=180_001)


def test_empty_grid_rejected():
    with pytest.raises(ValueError):
        WifiGrid(n_sc=0)


# ---------------------------------------------------------------------------
# rb -> sc map


def test_single_slot_grids_map_to_each_other():
    lte = LteGrid(n_rrb=1)
    wifi = WifiGrid(n_sc=1)
    assert build_rb_sc_map(lte, wifi).rb_to_sc == (0,)


def test_map_matches_brute_force_argmin(lte, wifi, rb_map):
    """Independent exhaustive argmin, ties toward the lower subcarrier."""
    for r in range(lte.n_rrb):
        fr = rrb_center_freq(lte, r)
        dists = [abs(fr - sc_center_freq(wifi, s)) for s in range(wifi.n_sc)]
        best = min(range(wifi.n_sc), key=lambda s: (dists[s], s))
        assert rb_map[r] == best


def test_map_is_monotone_and_in_range(lte, wifi, rb_map):
    entries = rb_map.rb_to_sc
    assert len(entries) == lte.n_rrb
    assert all(0 <= s < wifi.n_sc for s in entries)
    assert all(b >= a for a, b in zip(entries, entries[1:]))


def test_map_mirror_symmetry(lte, wifi, rb_map):
    # co-centered grids: the reversed map mirrors, except at exact ties
    for r in range(lte.n_rrb):
        mirrored = (wifi.n_sc - 1) - rb_map[lte.n_rrb - 1 - r]
        if mirrored == rb_map[r]:
            continue
        fr = rrb_center_freq(lte, r)
        d_chosen = abs(fr - sc_center_freq(wifi, rb_map[r]))
        d_mirrored = abs(fr - sc_center_freq(wifi, mirrored))
        assert d_chosen == d_mirrored


def test_known_map_entry(rb_map):
    # frozen spot check of the default 100x64 mapping
    assert rb_map[50] == 32


def test_excluded_subcarriers_never_appear(lte):
    wifi = WifiGrid(excluded=(31, 32))
    mapped = set(build_rb_sc_map(lte, wifi).rb_to_sc)
    assert mapped.isdisjoint({31, 32})


def test_cannot_exclude_everything():
    with pytest.raises(ValueError):
        WifiGrid(n_sc=2, excluded=(0, 1))


def test_non_overlapping_grids_rejected():
    lte = LteGrid(center_freq_hz=2_412_000_000)
    wifi = WifiGrid(center_freq_hz=5_500_000_000)
    with pytest.raises(ValueError):
        build_rb_sc_map(lte, wifi)


def test_decreasing_map_rejected():
    with pytest.raises(ValueError):
        RbScMap((3, 2))


@settings(max_examples=50, deadline=None)
@given(
    n_rrb=st.integers(min_value=1, max_value=12),
    n_sc=st.integers(min_value=1, max_value=12),
)
def test_map_optimality_for_small_grids(n_rrb, n_sc):
    """No subcarrier sits strictly closer than the mapped one."""
    lte = LteGrid(n_rrb=n_rrb)
    wifi = WifiGrid(n_sc=n_sc)
    m = build_rb_sc_map(lte, wifi)
    for r in range(n_rrb):
        fr = rrb_center_freq(lte, r)
        d = abs(fr - sc_center_freq(wifi, m[r]))
        for s in range(n_sc):
            assert abs(fr - sc_center_freq(wifi, s)) >= d


@settings(max_examples=60, deadline=None)
@given(
    n_rrb=st.integers(min_value=1, max_value=30),
    n_sc=st.integers(min_value=2, max_value=30),
    rrb_bw=st.sampled_from([2, 4, 180_000]),
    sc_bw=st.sampled_from([2, 6, 312_500]),
    offset=st.integers(min_value=-3, max_value=3),
    data=st.data(),
)
def test_maps_match_the_per_slot_scan(n_rrb, n_sc, rrb_bw, sc_bw, offset, data):
    """Both maps equal a plain nearest scan, ties to the lower index, exclusions skipped."""
    excluded = tuple(data.draw(st.sets(st.integers(0, n_sc - 1), max_size=n_sc - 1)))
    lte = LteGrid(n_rrb=n_rrb, rrb_bandwidth_hz=rrb_bw)
    wifi = WifiGrid(center_freq_hz=lte.center_freq_hz + offset, n_sc=n_sc,
                    sc_bandwidth_hz=sc_bw, excluded=excluded)
    try:
        rb_map, sc_rb = build_rb_sc_map(lte, wifi), build_sc_rb_map(lte, wifi)
    except ValueError:
        return  # grids without overlap
    usable = [s for s in range(n_sc) if s not in excluded]
    for r in range(n_rrb):
        fr = rrb_center_freq(lte, r)
        assert rb_map[r] == min(usable, key=lambda s: (abs(fr - sc_center_freq(wifi, s)), s))
    for s in range(n_sc):
        fs = sc_center_freq(wifi, s)
        assert sc_rb[s] == min(range(n_rrb), key=lambda r: (abs(fs - rrb_center_freq(lte, r)), r))


def test_maps_are_cached_per_grid_pair():
    rb_map = build_rb_sc_map(LteGrid(), WifiGrid())
    assert build_rb_sc_map(LteGrid(), WifiGrid()) is rb_map
    assert build_sc_rb_map(LteGrid(), WifiGrid()) is build_sc_rb_map(LteGrid(), WifiGrid())
    assert isinstance(build_sc_rb_map(LteGrid(), WifiGrid()), tuple)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rb_map.rb_to_sc = ()
    guarded = build_rb_sc_map(LteGrid(), WifiGrid(excluded=(31, 32)))
    assert guarded is not rb_map and guarded != rb_map
    assert build_rb_sc_map(LteGrid(), WifiGrid(excluded=(31, 32))) is guarded


# ---------------------------------------------------------------------------
# sc -> rb inverse


def test_inverse_map_is_nearest_rrb(lte, wifi, sc_rb):
    assert len(sc_rb) == wifi.n_sc
    for s in range(wifi.n_sc):
        fs = sc_center_freq(wifi, s)
        dists = [abs(fs - rrb_center_freq(lte, r)) for r in range(lte.n_rrb)]
        assert dists[sc_rb[s]] == min(dists)
        assert sc_rb[s] == nearest_rrb(lte, fs)


def test_nearest_rrb_tie_breaks_low(lte):
    # exactly between blocks r and r+1: 90 kHz from each center
    midpoint = rrb_center_freq(lte, 40) + 90_000
    assert nearest_rrb(lte, midpoint) == 40
    # a one-subcarrier grid centered there maps to the lower block too
    wifi = WifiGrid(center_freq_hz=midpoint, n_sc=1, sc_bandwidth_hz=2)
    assert build_sc_rb_map(lte, wifi) == (40,)
