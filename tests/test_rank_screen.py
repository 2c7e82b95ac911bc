"""A tree's projection-screened check against the full SVD rank test.

The oracle is the former check: every node's constraint matrix through
``degenerate_rows`` (``tests/oracle.py``), the SVD rank test with no screen.  The
screened check must find exactly the same failing nodes with the same
messages, so a tree raises from the same node with the same message, on
trees of any shape and on scan grids, near rank loss above all.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import degenerate_rows

from nullsim import nullsearch
from nullsim.beamforming import (
    SPEED_OF_LIGHT_MPS,
    ArrayGeometry,
    DegenerateConstraintsError,
    steering_vector,
)
from nullsim.nullsearch import ROOT_SECTOR, build_tree, default_null_schedule, grid_tree


def full_svd_failing(geom, beam, nodes):
    """The former ``_check_constraints``, as a map of failing nodes."""
    by_width = {}
    for cfg in nodes.values():
        by_width.setdefault(len(cfg.null_angles_deg), []).append(cfg)
    failing = {}
    for cfgs in by_width.values():
        null_sets = [cfg.null_angles_deg for cfg in cfgs]
        for i, message in degenerate_rows(geom, beam, null_sets).items():
            failing[cfgs[i].node_id] = message
    return failing


def _near(angle, offset):
    return min(90.0, max(-90.0, angle + offset))


def _aliases(angle, spacing_wavelengths):
    """Directions whose steering vectors equal ``angle``'s (grating lobes)."""
    out = []
    for k in (-2, -1, 1, 2):
        s = math.sin(math.radians(angle)) + k / spacing_wavelengths
        if -1.0 <= s <= 1.0:
            out.append(math.degrees(math.asin(s)))
    return out


@st.composite
def beams_near(draw, nulls, spacing_wavelengths):
    """A free beam, one exactly on a null or on a null's alias, or one
    1e-12 to 1e-2 deg off either."""
    targets = sorted(set(nulls))
    targets += [a for n in targets for a in _aliases(n, spacing_wavelengths)]
    target = draw(st.sampled_from(targets))
    offset = 10.0 ** draw(st.floats(-12.0, -2.0)) * draw(st.sampled_from([-1.0, 1.0]))
    return draw(
        st.one_of(
            st.floats(-90.0, 90.0, allow_nan=False),
            st.just(target),
            st.just(_near(target, offset)),
        )
    )


@st.composite
def arrays(draw, min_k):
    k = draw(st.integers(min_k, 16))
    # spacings past half a wavelength alias some directions onto others
    spacing_wavelengths = draw(st.floats(0.3, 2.0))
    return ArrayGeometry(
        k_antennas=k,
        spacing_m=spacing_wavelengths * SPEED_OF_LIGHT_MPS / ArrayGeometry.carrier_freq_hz,
    )


@st.composite
def tree_cases(draw):
    geom = draw(arrays(min_k=3))
    k = geom.k_antennas
    fanout = draw(st.integers(2, 4))
    depth = draw(st.integers(1, 4))
    inner = draw(
        st.none() | st.lists(st.integers(1, k - 2), min_size=depth - 1, max_size=depth - 1)
    )
    schedule = default_null_schedule(k, depth) if inner is None else tuple(inner) + (1,)
    sector = draw(st.sampled_from([ROOT_SECTOR, (-60.0, 60.0), (-30.0, 75.0)]))
    layout = nullsearch._tree_layout(
        geom, fanout, depth, schedule, tuple(map(nullsearch._exact, sector))
    )
    nulls = [a for cfg in layout.values() for a in cfg.null_angles_deg]
    beam = draw(beams_near(nulls, geom.spacing_wavelengths))
    return geom, beam, layout, (fanout, depth, schedule, sector)


@st.composite
def grid_cases(draw):
    geom = draw(arrays(min_k=2))
    pool = draw(st.lists(st.floats(-90.0, 90.0, allow_nan=False), min_size=1, max_size=12))
    # repeated angles, in any order
    grid = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=30))
    beam = draw(beams_near(grid, geom.spacing_wavelengths))
    return geom, beam, grid


# a tier-1 run draws 250 examples of each screened check; a profile with a
# larger budget raises it (CI runs them with --hypothesis-profile=screen)
SCREENED_EXAMPLES = max(250, settings.default.max_examples)


def _raised(build):
    try:
        build()
    except DegenerateConstraintsError as exc:
        return str(exc)
    return None


@settings(max_examples=SCREENED_EXAMPLES, deadline=None)
@given(case=tree_cases())
def test_screened_tree_check_equals_the_full_svd(case):
    geom, beam, layout, (fanout, depth, schedule, sector) = case
    expected = full_svd_failing(geom, beam, layout)
    assert nullsearch._failing(geom, beam, layout, steering_vector(geom, beam)) == expected
    nullsearch._shared_tree.cache_clear()
    raised = _raised(
        lambda: build_tree(
            geom, beam, fanout=fanout, depth=depth, nulls_per_level=schedule,
            root_sector=sector,
        )
    )
    assert raised == (expected[min(expected)] if expected else None)


@settings(max_examples=SCREENED_EXAMPLES, deadline=None)
@given(case=grid_cases())
def test_screened_grid_check_equals_the_full_svd(case):
    geom, beam, grid = case
    layout = nullsearch._grid_layout(geom, np.asarray(grid, dtype=float).tobytes())
    expected = full_svd_failing(geom, beam, layout)
    assert nullsearch._failing(geom, beam, layout, steering_vector(geom, beam)) == expected
    raised = _raised(lambda: grid_tree(geom, grid, beam))
    if expected:
        first = min(expected)
        assert raised == f"scan angle {grid[first[0]]}: {expected[first]}"
    else:
        assert raised is None


def _held_arrays(obj, seen):
    """Every numpy buffer ``obj`` holds, through attributes, containers and
    views; a view yields the array that owns its buffer."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        while isinstance(obj.base, np.ndarray):
            obj = obj.base
        yield obj
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _held_arrays(v, seen)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _held_arrays(v, seen)
    elif hasattr(obj, "__dict__"):
        yield from _held_arrays(vars(obj), seen)


@pytest.mark.parametrize(
    "k, fanout, depth, schedule",
    # the widest layout validation admits (1980 nodes), about 4.6 MiB, and
    # the deepest (1022 nodes), about 31.6 MiB
    [
        (64, 44, 2, (62, 1)),
        (8, 3, 4, (6, 4, 2, 1)),
        (4, 4, 3, (2, 1, 1)),
        (64, 2, 9, (62,) * 8 + (1,)),
    ],
)
def test_a_layout_holds_the_bytes_its_nodes_own_null_counts_need(k, fanout, depth, schedule):
    """Per node of m nulls: its angles (8 m bytes), the basis of its null
    columns (16 K m) and its sigma_min (8), with no padding to a wider
    node, and nothing more once a beam's check has read them."""
    geom = ArrayGeometry(k_antennas=k)
    sector = tuple(map(nullsearch._exact, ROOT_SECTOR))
    layout = nullsearch._tree_layout(geom, fanout, depth, schedule, sector)
    nullsearch._failing(geom, 21.4, layout, steering_vector(geom, 21.4))
    counts = [len(cfg.null_angles_deg) for cfg in layout.values()]
    need = sum(8 * m + 16 * k * m + 8 for m in counts)
    held = {id(arr): arr.nbytes for arr in _held_arrays(layout, set())}
    assert sum(held.values()) == need


def test_a_beam_on_a_null_raises_without_warnings():
    """On a null the projection leaves no residual; the bound is 0 there,
    with no division by it."""
    geom = ArrayGeometry(k_antennas=4)
    leaf_null = build_tree(geom, 21.4).nodes[(1, 1, 1, 0)].null_angles_deg[0]
    nullsearch._shared_tree.cache_clear()
    with np.errstate(all="raise"):
        with pytest.raises(DegenerateConstraintsError, match="coincides with the beam"):
            build_tree(geom, leaf_null)
        with pytest.raises(DegenerateConstraintsError, match="^scan angle 10.0: null at 10.0"):
            grid_tree(geom, (-5.0, 10.0, 10.0), 10.0)
