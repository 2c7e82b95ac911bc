"""Whole runs against the reference run of ``tests/oracle.py``.

Over random valid scenarios in tree, linear and multi-user mode, with and
without power correction and jitter, a run must test the reference's
nodes level by level, descend into its winners, deploy its nulls (after
its fallback, or stop at its DOF limit) and measure every INR to within
``INR_TOL_DB`` of it.  A decision whose reference margin is under
``INR_TOL_DB`` could flip on rounding alone: it exempts what follows it
and is counted as a hypothesis event (``--hypothesis-show-statistics``).
So does a level that tests a config near rank loss, or a joint config
near it: no float64 solve pins such a config's INR to ``INR_TOL_DB``
(``oracle.NEAR_RANK_LOSS``), so its INR is not compared either.  The
solve's accuracy there is the kernel property's to check
(``tests/test_frontier.py``).

Each scenario runs once on cleared caches and once on caches warmed by
another beam on the same shape or grid, the negated beam among them, so a
cache key that confused two beams would show.  The warm run also follows
a sibling run on the same channel, with power correction or the duty
cycle flipped, so it reuses the sibling's channel calibration and the
comparison with the reference run covers that reuse.  Angles lie on the
0.1 deg grid of the presets and the benchmark workloads.

Locally the property draws ``LOCAL_EXAMPLES`` scenarios per cache state;
the ``oracle`` hypothesis profile (``tests/conftest.py``) draws its own,
larger budget.
"""

from dataclasses import replace
from unittest.mock import patch

import pytest
from hypothesis import HealthCheck, assume, event, given, settings
from hypothesis import strategies as st
from oracle import db, reference_run

from nullsim import coexsim, nullsearch
from nullsim.beamforming import DegenerateConstraintsError
from nullsim.coexsim import run_full_protocol
from nullsim.nullsearch import DofExhaustedError, build_tree, grid_tree
from nullsim.scenario import ScenarioError, scenario_from_dict

INR_TOL_DB = 1e-9
LOCAL_EXAMPLES = 40
ORACLE_PROFILE = "oracle"


def _examples() -> int:
    if settings.get_current_profile_name() == ORACLE_PROFILE:
        return settings().max_examples
    return LOCAL_EXAMPLES


# angles on the 0.1 deg grid
angles = st.integers(-900, 900).map(lambda i: i / 10)


@st.composite
def oracle_cases(draw):
    """A valid scenario and another beam to warm the caches with."""
    mode = draw(st.sampled_from(["tree", "linear", "multiuser"]))
    k = draw(st.sampled_from([3, 4, 8]))
    depth = draw(st.integers(1, 4))
    schedule = draw(
        st.none()
        | st.lists(st.integers(1, k - 2), min_size=depth - 1, max_size=depth - 1).map(
            lambda inner: inner + [1]
        )
    )
    users = draw(st.integers(2, 4)) if mode == "multiuser" else 1
    grid = draw(st.none() | st.lists(angles, min_size=1, max_size=12))
    raw = {
        "seed": draw(st.integers(0, 2**31 - 1)),
        "ue_angle_deg": draw(angles),
        "user_angles_deg": draw(st.lists(angles, min_size=users, max_size=users)),
        "geometry": {"k_antennas": k},
        "channel": {
            "preset": draw(st.sampled_from(["flat", "two-ray", "orbit-like"])),
            "baseline_inr_db": draw(st.sampled_from([30.0, 15.0, None])),
        },
        "sim": {"noise_jitter": draw(st.sampled_from([0.0, 0.5, 4.0]))},
        "search": {
            "mode": mode,
            "fanout": draw(st.integers(2, 3)),
            "depth": depth,
            "nulls_per_level": schedule,
            "power_correction": draw(st.booleans()),
            "linear_grid": grid,
        },
    }
    try:
        s = scenario_from_dict(raw)
    except ScenarioError:
        assume(False)
    beam = s.ue_angle_deg
    other = draw(st.sampled_from([-beam, round(beam + 0.1, 1), round(beam - 0.1, 1)]) | angles)
    if draw(st.sampled_from(["correction", "duty"])) == "correction":
        flipped = {"search": replace(s.search, power_correction=not s.search.power_correction)}
    else:
        flipped = {"duty": replace(s.duty, duty=0.5 if s.duty.duty != 0.5 else 0.2)}
    return s, other, replace(s, **flipped)


def _clear_caches():
    nullsearch._shared_tree.cache_clear()
    nullsearch._tree_layout.cache_clear()
    nullsearch._grid_layout.cache_clear()
    coexsim._calibrations.clear()


def _warm(s, beam):
    """Cache the tree of ``beam`` on ``s``'s shape or grid, every node solved."""
    if not -90.0 <= beam <= 90.0:
        return
    search = s.search
    try:
        if search.mode == "linear":
            tree = grid_tree(s.geometry, s.scan_angles, beam)
        else:
            tree = build_tree(
                s.geometry, beam, search.fanout, search.depth, search.nulls_per_level
            )
    except DegenerateConstraintsError:
        return
    for level in range(1, tree.depth + 1):
        tree.stack(tree.level_ids(level))


def _run(s):
    """The run's finished states and tested unions, its result, or the
    users its DOF limit left out."""
    descents = []
    real = nullsearch.descend

    def recording(*args):
        descents.append(real(*args))
        return descents[-1]

    with patch.object(nullsearch, "descend", recording), patch.object(
        coexsim, "descend", recording
    ):
        try:
            result, excluded = run_full_protocol(s), []
        except DofExhaustedError as exc:
            result, excluded = None, exc.excluded
    ((states, visited),) = descents
    return states, visited, result, excluded


def _close(a: float, b: float) -> bool:
    return abs(db(a) - db(b)) <= INR_TOL_DB


@pytest.mark.parametrize("cache", ["cold", "warm"])
@settings(
    max_examples=_examples(),
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(case=oracle_cases())
def test_a_run_makes_the_reference_runs_decisions_and_measurements(cache, case):
    s, other, sibling = case
    _clear_caches()
    if cache == "warm":
        _warm(s, other)
        try:
            run_full_protocol(sibling)
        except DofExhaustedError:
            pass
        assert len(coexsim._calibrations) == 1
    ref = reference_run(s)
    states, visited, result, excluded = _run(s)
    # one calibration is kept: a warm run shared its sibling's
    assert len(coexsim._calibrations) == 1
    event(f"mode {s.search.mode}, {'DOF limit' if ref.excluded else 'served'}")

    exempt = next((name for name, margin in ref.margins if margin < INR_TOL_DB), None)
    event(f"exempt: {exempt or 'none'}")
    # the nodes of a level are fixed by the decisions before it, so they
    # are checked up to and including the first exempt level
    levels = len(ref.levels)
    if exempt is not None and exempt.startswith("level"):
        levels = int(exempt.split()[1])
    assert visited[:levels] == ref.levels[:levels]
    for st_, trace in zip(states, ref.traces, strict=True):
        tested = st_.tested
        n = sum(len({*level} & {node for node, _ in trace}) for level in ref.levels[:levels])
        assert [cfg.node_id for cfg, _ in tested[:n]] == [node for node, _ in trace[:n]]
        for (cfg, a), (_, b) in zip(tested[:n], trace[:n]):
            assert cfg.null_angles_deg in ref.near_rank_loss or _close(a, b)
    if result is not None:
        for user, baseline in zip(result.users, ref.baselines, strict=True):
            assert _close(user.baseline.aggregate, baseline)
    if exempt is not None:
        return
    assert len(visited) == len(ref.levels)
    assert excluded == ref.excluded
    if ref.excluded:
        return
    assert result.joint_null_angles == ref.joint
    for user, final in zip(result.users, ref.finals, strict=True):
        assert user.nulls_used == len(ref.joint)
        assert _close(user.final.aggregate, final)
