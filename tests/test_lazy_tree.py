"""Node weights solved on first use, checked against an eager solve.

The oracle is the former eager build: one ``lcmv_weights`` solve per
node, depth first, before the tree is used.  A tree built without solving
must raise exactly when that loop raises, with the same message, hand out
the same bits otherwise, and a run must solve only the nodes it tests.
Solves are counted at ``min_norm_weights``, the kernel that ``lcmv_weights``
and a tree's node solves share.
"""

import math
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nullsim import beamforming, nullsearch, scenario as scenario_mod
from nullsim.beamforming import (
    ArrayGeometry,
    DegenerateConstraintsError,
    lcmv_weights,
    min_norm_weights,
    steering_vector,
    steering_vectors,
)
from nullsim.campaign import export_results, records_from_result
from nullsim.coexsim import run_full_protocol
from nullsim.nullsearch import (
    MAX_TREE_NODES,
    ROOT_SECTOR,
    DofExhaustedError,
    build_tree,
    default_null_schedule,
)
from nullsim.presets import (
    ORBIT_ENSEMBLE_SIZE,
    scenario_fig8_powercorr,
    scenario_fig10_multiuser,
)
from nullsim.scenario import ScenarioError, scenario_from_dict, scenario_to_dict

SPACING_WAVELENGTHS = ArrayGeometry().spacing_wavelengths  # ~0.578


def node_nulls(fanout, depth, schedule, root=ROOT_SECTOR):
    """Every node's null angles, depth first, by the tree's own arithmetic."""
    out = {}

    def grow(node_id, a, b):
        if node_id:
            n = schedule[len(node_id) - 1]
            step = (b - a) / n
            out[node_id] = tuple(a + step * (i + 0.5) for i in range(n))
        if len(node_id) < depth:
            w = (b - a) / fanout
            for i in range(fanout):
                grow(node_id + (i,), a + i * w, a + (i + 1) * w)

    grow((), *root)
    return out


def eager_weights(geom, beam, nulls):
    """The oracle: every node solved up front, depth first."""
    return {n: lcmv_weights(geom, beam, angles) for n, angles in nulls.items()}


def aliases(nulls, offsets):
    """Beams near the grating lobe of a null: sin shifted by one wavelength over d."""
    out = []
    for angle in nulls:
        for sign in (-1.0, 1.0):
            for off in offsets:
                s = math.sin(math.radians(angle)) + sign / SPACING_WAVELENGTHS + off
                if -1.0 <= s <= 1.0:
                    out.append(math.degrees(math.asin(s)))
    return out


@st.composite
def beams_for(draw, nulls, depth):
    """A free beam, or one exactly on an inner or leaf null, or near an alias."""
    inner = sorted({a for n, ns in nulls.items() if len(n) < depth for a in ns})
    leaf = sorted({a for n, ns in nulls.items() if len(n) == depth for a in ns})
    offsets = (0.0, 1e-12, -1e-10, 1e-9, -1e-8, 1e-6)
    near = aliases(inner + leaf, offsets)
    kinds = [st.floats(-90.0, 90.0, allow_nan=False), st.sampled_from(leaf)]
    kinds += [st.sampled_from(inner)] if inner else []
    kinds += [st.sampled_from(near)] if near else []
    return draw(st.one_of(kinds))


@st.composite
def tree_cases(draw):
    k = draw(st.sampled_from([4, 8]))
    depth = draw(st.integers(1, 4))
    fanout = draw(st.integers(2, 3))
    inner = draw(st.lists(st.integers(1, k - 2), min_size=depth - 1, max_size=depth - 1))
    schedule = tuple(inner) + (1,)
    nulls = node_nulls(fanout, depth, schedule)
    beam = draw(beams_for(nulls, depth))
    return ArrayGeometry(k_antennas=k), beam, fanout, depth, schedule, nulls


@settings(max_examples=80, deadline=None)
@given(case=tree_cases(), cold=st.booleans())
def test_tree_matches_the_eager_solve(case, cold):
    geom, beam, fanout, depth, schedule, nulls = case
    if cold:
        # no shared layout either: the tree's shape is laid out anew
        nullsearch._layout.cache_clear()
        nullsearch._shared_tree.cache_clear()
    try:
        eager = eager_weights(geom, beam, nulls)
    except DegenerateConstraintsError as exc:
        with pytest.raises(DegenerateConstraintsError) as err:
            build_tree(geom, beam, fanout=fanout, depth=depth, nulls_per_level=schedule)
        assert str(err.value) == str(exc)
        return
    tree = build_tree(geom, beam, fanout=fanout, depth=depth, nulls_per_level=schedule)
    assert list(tree.nodes) == list(nulls)
    assert {n: cfg.null_angles_deg for n, cfg in tree.nodes.items()} == nulls
    for level in range(1, depth + 1):
        ids = [n for n in nulls if len(n) == level]
        cfgs, weights = tree.stack(ids)
        assert [cfg.node_id for cfg in cfgs] == ids
        assert np.array_equal(weights, np.array([eager[n] for n in ids]))


def test_known_degenerate_beams_raise_the_solve_message():
    geom = ArrayGeometry(k_antennas=4)
    nulls = node_nulls(3, 4, default_null_schedule(4))
    inner, leaf = nulls[(0,)][1], nulls[(1, 1, 1, 0)][0]
    alias = aliases(nulls[(2,)], (0.0,))[0]  # the grating lobe of the 75 deg null
    for beam in (inner, leaf, alias):
        with pytest.raises(DegenerateConstraintsError) as eager_err:
            eager_weights(geom, beam, nulls)
        with pytest.raises(DegenerateConstraintsError) as err:
            build_tree(geom, beam)
        assert str(err.value) == str(eager_err.value)


def test_steering_vectors_have_the_bits_of_single_calls():
    geom = ArrayGeometry(k_antennas=5)
    angles = np.random.default_rng(3).uniform(-90.0, 90.0, size=(7, 3))
    rows = steering_vectors(geom, angles)
    assert rows.shape == (7, 3, 5)
    for idx in np.ndindex(angles.shape):
        assert np.array_equal(rows[idx], steering_vector(geom, float(angles[idx])))
    with pytest.raises(ValueError, match="outside"):
        steering_vectors(geom, [10.0, 95.0])


@pytest.fixture
def fresh_trees():
    """An empty tree cache: every tree is built, and every node solved, anew."""
    nullsearch._shared_tree.cache_clear()


def test_weights_are_read_only_and_solved_once(monkeypatch, fresh_trees):
    """Writing into an array that ``stack`` returned never changes what a
    later ``stack`` returns, and a node is solved once."""
    tree = build_tree(ArrayGeometry(k_antennas=8), 21.4)
    calls = []
    monkeypatch.setattr(
        nullsearch, "min_norm_weights", lambda c: calls.append(c) or min_norm_weights(c)
    )
    leaf = tree.leaf_ids[5]
    _, first = tree.stack([leaf])
    solved = first.copy()
    first[:] = 0.0
    assert np.array_equal(tree.stack([leaf])[1], solved)
    assert len(calls) == 1
    assert len(tree.nodes) == 120
    with pytest.raises(KeyError):
        tree.stack([(9,)])
    assert len(calls) == 1


def test_a_frontier_stack_solves_its_unsolved_nodes_in_one_call(monkeypatch, fresh_trees):
    geom = ArrayGeometry(k_antennas=8)
    tree = build_tree(geom, 21.4)
    calls = []
    monkeypatch.setattr(
        nullsearch, "min_norm_weights", lambda c: calls.append(c) or min_norm_weights(c)
    )
    level = tree.level_ids(2)
    _, first = tree.stack([level[4]])
    cfgs, weights = tree.stack(level)
    assert [c.node_id for c in cfgs] == level
    assert weights.shape == (len(level), 8)
    # the node read first is solved alone, the other eight in one stacked call
    assert [len(c) for c in calls] == [1, len(level) - 1]
    assert np.array_equal(weights[4], first[0])
    for node_id, w in zip(level, weights):
        expected = lcmv_weights(geom, 21.4, tree.nodes[node_id].null_angles_deg)
        assert np.array_equal(w, expected)
    tree.stack(level)
    assert len(calls) == 2


def test_a_stack_of_nodes_with_different_null_counts_names_the_rule_and_nodes(
    monkeypatch, fresh_trees
):
    tree = build_tree(ArrayGeometry(k_antennas=8), 21.4)
    calls = []
    monkeypatch.setattr(
        nullsearch, "min_norm_weights", lambda c: calls.append(c) or min_norm_weights(c)
    )
    with pytest.raises(ValueError) as err:
        tree.stack([(0,), (0, 0)])
    message = str(err.value)
    assert "must share one null count" in message
    assert "(0,): 6" in message and "(0, 0): 4" in message
    # refused before any solve, solved nodes or not
    tree.stack([(0,)])
    with pytest.raises(ValueError, match="must share one null count"):
        tree.stack([(0,), (0, 0)])
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# scenario validation accepts and rejects what it did with eager trees


def _check_constraints_eagerly(geom, beam, nodes):
    """The former tree check: every node solved, depth first."""
    eager_weights(geom, beam, {n: cfg.null_angles_deg for n, cfg in nodes.items()})


@st.composite
def tree_scenario_dicts(draw):
    k = draw(st.sampled_from([4, 8]))
    depth = draw(st.integers(1, 4))
    fanout = draw(st.integers(2, 3))
    mode = draw(st.sampled_from(["tree", "multiuser", "linear"]))
    length = draw(st.sampled_from([depth, depth, depth, depth + 1]))
    schedule = draw(
        st.none()
        | st.lists(st.integers(-1, k - 1), min_size=length, max_size=length)
    )
    resolved = schedule if schedule is not None else default_null_schedule(k, depth)
    if len(resolved) == depth and min(resolved) >= 1:
        beam = draw(beams_for(node_nulls(fanout, depth, resolved), depth))
    else:
        beam = draw(st.floats(-90.0, 90.0, allow_nan=False))
    users = [-20.0, 35.0] if mode == "multiuser" else [-20.0]
    return {
        "ue_angle_deg": beam,
        "user_angles_deg": users,
        "geometry": {"k_antennas": k},
        "search": {
            "mode": mode,
            "fanout": fanout,
            "depth": depth,
            "nulls_per_level": schedule,
        },
    }


def _rule(raw):
    try:
        scenario_from_dict(raw)
    except ScenarioError as exc:
        return exc.rule
    return None


@settings(max_examples=80, deadline=None)
@given(raw=tree_scenario_dicts())
def test_validation_accepts_and_rejects_as_with_eager_trees(raw):
    # a cached tree skips the check, so each side builds its tree anew
    nullsearch._shared_tree.cache_clear()
    rule = _rule(raw)
    nullsearch._shared_tree.cache_clear()
    with patch.object(nullsearch, "_check_constraints", _check_constraints_eagerly):
        rule_before = _rule(raw)
    assert rule == rule_before


def test_validation_checks_the_tree_the_run_builds(monkeypatch):
    sectors = []
    real = scenario_mod.build_tree
    monkeypatch.setattr(
        scenario_mod,
        "build_tree",
        lambda *a, **kw: sectors.append(kw["root_sector"]) or real(*a, **kw),
    )
    s = scenario_from_dict({"ue_angle_deg": 21.4})
    assert sectors == [s.tree_root_sector]


# ---------------------------------------------------------------------------
# solve counts: only visited nodes are solved, validation solves none


@pytest.fixture
def solves(monkeypatch, fresh_trees):
    """The rows each solve kernel call solves, one entry per call, whether
    ``lcmv_weights`` or a tree's node solve made it."""
    rows = []

    def counted(c):
        rows.append(len(c))
        return min_norm_weights(c)

    for module in (beamforming, nullsearch):
        monkeypatch.setattr(module, "min_norm_weights", counted)
    return rows


@pytest.fixture
def union_visited(monkeypatch):
    """Every node some user's frontier held when its results were recorded."""
    visited = set()
    real = nullsearch.record_results

    def recording(state, tree, reports):
        visited.update(state.frontier)
        return real(state, tree, reports)

    monkeypatch.setattr(nullsearch, "record_results", recording)
    return visited


def test_loading_a_tree_scenario_solves_nothing(solves):
    scenario_from_dict(scenario_to_dict(scenario_fig8_powercorr()))
    scenario_from_dict(scenario_to_dict(scenario_fig10_multiuser()))
    assert solves == []


def test_tree_run_solves_the_tested_nodes_and_the_baseline(solves):
    s = scenario_fig8_powercorr()
    result = run_full_protocol(s)
    assert sum(solves) == len(result.users[0].trace) + 1 == 13
    # the baseline, then one stacked solve per level
    assert len(solves) == s.search.depth + 1 == 5


def test_multi_user_run_solves_each_union_node_once(solves, union_visited):
    run_full_protocol(scenario_fig10_multiuser())
    # the no-null baseline, the union nodes, the joint configuration
    assert sum(solves) == 1 + len(union_visited) + 1


def test_multi_user_run_that_runs_out_of_freedom_skips_the_joint_solve(
    solves, union_visited
):
    s = replace(scenario_fig10_multiuser(), user_angles_deg=(-40.0, 35.6))
    with pytest.raises(DofExhaustedError):
        run_full_protocol(s)
    assert sum(solves) == 1 + len(union_visited)


# ---------------------------------------------------------------------------
# shared trees: one checked tree, and one set of solved nodes, per key


def test_equal_keys_share_one_tree_and_other_keys_do_not():
    geom = ArrayGeometry(k_antennas=8)
    tree = build_tree(geom, 21.4)
    assert build_tree(ArrayGeometry(k_antennas=8), 21.4) is tree
    assert build_tree(geom, 21.4, nulls_per_level=[6, 4, 2, 1]) is tree
    assert build_tree(geom, 21.4, 3, 4, (6, 4, 2, 1), (-90.0, 90.0)) is tree
    others = [
        build_tree(geom, 21.5),
        build_tree(geom, 21.4, nulls_per_level=(4, 4, 2, 1)),
        build_tree(geom, 21.4, root_sector=(-60.0, 60.0)),
        build_tree(ArrayGeometry(k_antennas=4), 21.4),
    ]
    assert all(other is not tree for other in others)
    assert len({id(t) for t in others}) == len(others)


def test_zero_beams_of_another_sign_or_type_get_their_own_tree():
    geom = ArrayGeometry(k_antennas=4)
    trees = [build_tree(geom, beam, fanout=2) for beam in (0.0, -0.0, 0)]
    assert len({id(t) for t in trees}) == 3
    assert [repr(t.beam_angle_deg) for t in trees] == ["0.0", "-0.0", "0"]


def test_the_shared_tree_is_read_only():
    tree = build_tree(ArrayGeometry(k_antennas=8), 21.4)
    leaf = tree.leaf_ids[0]
    with pytest.raises(TypeError):
        tree.nodes[leaf] = tree.nodes[tree.leaf_ids[1]]
    with pytest.raises(TypeError):
        del tree.nodes[leaf]
    # every stack is a fresh array, so no caller writes into another's rows
    _, mine = tree.stack([leaf])
    _, theirs = tree.stack([leaf])
    assert not np.shares_memory(mine, theirs)
    with pytest.raises(AttributeError):
        tree.beam_angle_deg = 0.0


def test_a_raising_key_is_not_kept_and_raises_the_same_message_again():
    geom = ArrayGeometry(k_antennas=4)
    before = nullsearch._shared_tree.cache_info().currsize
    messages = []
    for _ in range(2):
        with pytest.raises(DegenerateConstraintsError) as err:
            build_tree(geom, 0.0)  # 0 deg is a leaf null of the default tree
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert nullsearch._shared_tree.cache_info().currsize == before


def test_a_tree_past_the_node_cap_is_refused_before_it_is_built(monkeypatch):
    monkeypatch.setattr(nullsearch, "NullConfig", None)  # any build would fail
    with pytest.raises(ValueError, match=f"exceed {MAX_TREE_NODES} tree nodes"):
        build_tree(ArrayGeometry(k_antennas=8), 21.4, fanout=10, depth=8)
    with pytest.raises(ValueError, match="tree nodes"):
        build_tree(ArrayGeometry(k_antennas=8), 21.4, fanout=2, depth=10**9)


def test_loading_then_running_fig8_checks_its_tree_once(monkeypatch, fresh_trees):
    checks = []
    real = nullsearch._check_constraints
    monkeypatch.setattr(
        nullsearch, "_check_constraints", lambda *a: checks.append(a) or real(*a)
    )
    s = scenario_from_dict(scenario_to_dict(scenario_fig8_powercorr()))
    run_full_protocol(s)
    assert len(checks) == 1


def test_a_cold_tree_runs_the_rank_test_per_null_count_when_built_only(
    monkeypatch, fresh_trees
):
    nullsearch._layout.cache_clear()
    checked = []
    real = beamforming._degenerate
    monkeypatch.setattr(
        beamforming, "_degenerate", lambda c, *a: checked.append(len(c)) or real(c, *a)
    )
    tree = build_tree(ArrayGeometry(k_antennas=8), 21.4)
    # one stacked test per null count (6, 4, 2 and 1), over every node
    assert len(checked) == len(set(tree.nulls_per_level)) == 4
    assert sum(checked) == len(tree.nodes)
    # solving every frontier a descent can test runs no rank test again
    for level in range(1, tree.depth + 1):
        tree.stack(tree.level_ids(level))
    assert len(checked) == 4


def test_trees_of_one_shape_share_its_layout_and_signed_zero_sectors_do_not(
    fresh_trees,
):
    layouts = nullsearch._layout.cache_info
    nullsearch._layout.cache_clear()
    # two beams and two arrays of one shape: K=16 resolves to K=8's schedule
    trees = [
        build_tree(ArrayGeometry(k_antennas=8), 21.4),
        build_tree(ArrayGeometry(k_antennas=8), -33.3),
        build_tree(ArrayGeometry(k_antennas=16), 21.4),
    ]
    assert (layouts().misses, layouts().hits) == (1, 2)
    for tree in trees[1:]:
        for node_id, cfg in trees[0].nodes.items():
            assert tree.nodes[node_id].null_angles_deg is cfg.null_angles_deg
            assert tree.nodes[node_id].sector is cfg.sector
    geom = ArrayGeometry(k_antennas=4)
    signed = [build_tree(geom, 21.4, fanout=2, root_sector=(z, 90.0)) for z in (0.0, -0.0)]
    assert layouts().misses == 3
    assert [math.copysign(1.0, t.root_sector[0]) for t in signed] == [1.0, -1.0]


def test_a_fig8_ensemble_solves_each_visited_node_once(solves, union_visited):
    base = scenario_fig8_powercorr()
    for i in range(ORBIT_ENSEMBLE_SIZE):
        s = scenario_from_dict(scenario_to_dict(replace(base, seed=base.seed + i)))
        run_full_protocol(s)
    # the tree's visited nodes once across the ensemble, the no-null
    # baseline once per run
    assert sum(solves) == len(union_visited) + ORBIT_ENSEMBLE_SIZE


def _export(s, path):
    export_results(records_from_result(run_full_protocol(s), s), "json", str(path))
    return path.read_bytes()


@pytest.mark.parametrize(
    "first,then",
    [(0.0, -0.0), (-0.0, 0.0), (0.0, 0), (21.0, 21), (21, 21.0)],
)
def test_a_run_exports_the_bytes_of_a_fresh_process(first, then, tmp_path):
    """A cleared cache stands for a fresh process: the run on the beam
    ``then`` exports the same bytes after a run on the beam ``first``."""
    base = scenario_from_dict({"search": {"fanout": 2}})
    nullsearch._shared_tree.cache_clear()
    fresh = _export(replace(base, ue_angle_deg=then), tmp_path / "fresh.json")
    nullsearch._shared_tree.cache_clear()
    _export(replace(base, ue_angle_deg=first), tmp_path / "first.json")
    assert _export(replace(base, ue_angle_deg=then), tmp_path / "then.json") == fresh
