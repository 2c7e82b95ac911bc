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
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from nullsim import beamforming, coexsim, nullsearch, scenario as scenario_mod
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
    DEFAULT_LINEAR_GRID,
    MAX_TREE_NODES,
    ROOT_SECTOR,
    DofExhaustedError,
    build_tree,
    default_null_schedule,
    grid_tree,
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
        nullsearch._tree_layout.cache_clear()
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
        nullsearch, "min_norm_weights", lambda a, q: calls.append(q) or min_norm_weights(a, q)
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


def test_a_cold_tree_computes_its_beam_response_once(monkeypatch, fresh_trees):
    """The tree's check and every solve of a descent read one steering
    vector of the beam, computed when the tree is made."""
    calls = []
    monkeypatch.setattr(
        nullsearch,
        "steering_vector",
        lambda geom, theta: calls.append(theta) or steering_vector(geom, theta),
    )
    tree = build_tree(ArrayGeometry(k_antennas=8), 21.4)
    for level in range(1, tree.depth + 1):
        tree.stack(tree.level_ids(level)[:2])
    assert calls == [21.4]
    assert np.array_equal(tree._beam, steering_vector(tree.geometry, 21.4))
    assert not tree._beam.flags.writeable


def test_a_frontier_stack_solves_its_unsolved_nodes_in_one_call(monkeypatch, fresh_trees):
    geom = ArrayGeometry(k_antennas=8)
    tree = build_tree(geom, 21.4)
    calls = []
    monkeypatch.setattr(
        nullsearch, "min_norm_weights", lambda a, q: calls.append(q) or min_norm_weights(a, q)
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


@settings(max_examples=25, deadline=None)
@given(
    beam=st.floats(min_value=-90.0, max_value=90.0),
    order=st.permutations(range(len(DEFAULT_LINEAR_GRID))),
    first=st.integers(min_value=1, max_value=len(DEFAULT_LINEAR_GRID)),
)
def test_a_grid_stack_has_each_angles_lcmv_bits(beam, order, first):
    """A scan grid's 165 rows, stacked out of order after part of the
    block was solved, and stacked again, are each angle's own
    ``lcmv_weights`` bits, handed out as copies."""
    geom = ArrayGeometry(k_antennas=8)
    try:
        tree = grid_tree(geom, DEFAULT_LINEAR_GRID, beam)
    except DegenerateConstraintsError:
        reject()
    ids = [tree.level_ids(1)[i] for i in order]
    expected = np.array([lcmv_weights(geom, beam, tree.nodes[n].null_angles_deg) for n in ids])
    _, part = tree.stack(ids[:first])
    assert part.tobytes() == expected[:first].tobytes()
    part[:] = np.nan
    for _ in range(2):
        cfgs, weights = tree.stack(ids)
        assert [cfg.node_id for cfg in cfgs] == ids
        assert weights.shape == (len(ids), 8)
        assert weights.tobytes() == expected.tobytes()
        # a caller's writes never reach the tree's rows
        weights[:] = np.nan


def test_a_layout_built_row_by_row_has_the_bits_of_one_chunk(monkeypatch):
    """Chunking a layout's build and check bounds its transient memory and
    changes no basis bit, no sigma, and no decision or message."""
    geom = ArrayGeometry(k_antennas=8)
    configs = list(build_tree(geom, 21.4).nodes.values())
    beams = (21.4, configs[0].null_angles_deg[2], configs[-1].null_angles_deg[0])
    whole = nullsearch._Layout(configs, geom)
    assert all(len(nullsearch._chunks(b.basis)) == 1 for b in whole.blocks)
    checks = [
        nullsearch._failing(geom, beam, whole, steering_vector(geom, beam)) for beam in beams
    ]
    assert not checks[0] and all(checks[1:])
    monkeypatch.setattr(nullsearch, "CHUNK_BYTES", 1)
    rows = nullsearch._Layout(configs, geom)
    assert [len(nullsearch._chunks(b.basis)) for b in rows.blocks] == [
        len(b.ids) for b in rows.blocks
    ]
    for a, b in zip(whole.blocks, rows.blocks):
        assert a.ids == b.ids
        assert a.basis.tobytes() == b.basis.tobytes()
        assert a.s_min.tobytes() == b.s_min.tobytes()
    assert checks == [
        nullsearch._failing(geom, beam, rows, steering_vector(geom, beam)) for beam in beams
    ]


def test_a_stack_of_nodes_with_different_null_counts_names_the_rule_and_nodes(
    monkeypatch, fresh_trees
):
    tree = build_tree(ArrayGeometry(k_antennas=8), 21.4)
    calls = []
    monkeypatch.setattr(
        nullsearch, "min_norm_weights", lambda a, q: calls.append(q) or min_norm_weights(a, q)
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


def _check_constraints_eagerly(geom, beam, nodes, a):
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
    """Validation builds the scenario's tree once, and the run descends that
    very tree without building another, in every mode."""
    built, descended = [], []
    for builder in ("build_tree", "grid_tree"):
        monkeypatch.setattr(
            scenario_mod,
            builder,
            lambda *a, real=getattr(scenario_mod, builder), **kw: (
                built.append(real(*a, **kw)) or built[-1]
            ),
        )
    for module in (coexsim, nullsearch):
        monkeypatch.setattr(
            module,
            "descend",
            lambda tree, *a, real=module.descend: descended.append(tree) or real(tree, *a),
        )
    for raw in (
        {"ue_angle_deg": 21.4},
        {"user_angles_deg": [-20.0, 40.0], "search": {"mode": "multiuser"}},
        {"search": {"mode": "linear"}},
    ):
        built.clear()
        descended.clear()
        s = scenario_from_dict(raw)
        [validated] = built
        run_full_protocol(s)
        assert len(built) == 1
        assert len(descended) == 1 and descended[0] is validated


# ---------------------------------------------------------------------------
# solve counts: only visited nodes are solved, validation solves none


@pytest.fixture
def solves(monkeypatch, fresh_trees):
    """The rows each solve kernel call solves, one entry per call, whether
    ``lcmv_weights`` or a tree's node solve made it."""
    rows = []

    def counted(a, q):
        rows.append(len(q))
        return min_norm_weights(a, q)

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


@settings(max_examples=120, deadline=None)
@given(
    k=st.integers(min_value=2, max_value=64),
    spacing_m=st.floats(min_value=0.005, max_value=0.5),
    beam=st.sampled_from([0.0, -0.0, 90.0, -90.0]) | st.floats(min_value=-90, max_value=90),
)
def test_beam_weights_have_the_bits_of_the_no_null_solve(k, spacing_m, beam):
    geom = ArrayGeometry(k_antennas=k, spacing_m=spacing_m)
    try:
        tree = grid_tree(geom, (-45.0,), beam)
    except DegenerateConstraintsError:
        reject()
    w = tree.beam_weights
    assert not w.flags.writeable
    assert w.tobytes() == lcmv_weights(geom, beam, []).tobytes()


def test_beam_weights_are_solved_once_per_tree_and_never_at_load(monkeypatch, fresh_trees):
    """A fig8 ensemble on one beam solves its no-null baseline once, on first
    use, and never through ``lcmv_weights``."""
    empty_solves = []

    def counted(a, q):
        if not q.shape[-1]:
            empty_solves.append(len(q))
        return min_norm_weights(a, q)

    for module in (beamforming, nullsearch):
        monkeypatch.setattr(module, "min_norm_weights", counted)
    monkeypatch.setattr(coexsim, "lcmv_weights", None)  # a call would raise
    base = scenario_fig8_powercorr()
    scenarios = [
        scenario_from_dict(scenario_to_dict(replace(base, seed=base.seed + i)))
        for i in range(3)
    ]
    tree = scenarios[0].search_tree()
    assert all(s.search_tree() is tree for s in scenarios)
    assert empty_solves == [] and "beam_weights" not in vars(tree)
    for s in scenarios:
        run_full_protocol(s)
    assert empty_solves == [1]
    assert tree.beam_weights is tree.beam_weights


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
    # a scan grid is a depth-1 tree of one node per angle
    grid = np.linspace(-80.0, 80.0, MAX_TREE_NODES + 1).tolist()
    with pytest.raises(ValueError, match=f"{MAX_TREE_NODES + 1} angles exceeds"):
        grid_tree(ArrayGeometry(k_antennas=8), grid, 21.4)
    monkeypatch.undo()
    assert len(grid_tree(ArrayGeometry(k_antennas=8), grid[:-1], 21.4).nodes) == MAX_TREE_NODES


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
    nullsearch._tree_layout.cache_clear()
    checked = []
    real = nullsearch._degenerate
    monkeypatch.setattr(
        nullsearch,
        "_degenerate",
        lambda c, *a: checked.append((c.shape[-1] - 1, len(c))) or real(c, *a),
    )
    geom = ArrayGeometry(k_antennas=8)
    tree = build_tree(geom, 21.4)
    # at most one stacked test per null count, on the rows the projection
    # screen leaves: a few of the 120
    counts = [count for count, _ in checked]
    assert len(counts) == len(set(counts)) <= len(set(tree.nulls_per_level))
    assert 0 < sum(rows for _, rows in checked) <= len(tree.nodes) // 10
    # solving every frontier a descent can test runs no rank test again
    for level in range(1, tree.depth + 1):
        tree.stack(tree.level_ids(level))
    assert len(checked) == len(counts)


def test_the_screen_clears_only_nodes_far_above_the_rank_tolerance(monkeypatch):
    """A node the projection screen clears has an SVD sigma ratio of at
    least ``RANK_SCREEN_MARGIN * RANK_TOL`` (1e-3), at every beam here."""
    screened = []
    real = nullsearch._degenerate
    monkeypatch.setattr(
        nullsearch,
        "_degenerate",
        lambda c, nulls, beam: screened.extend(map(tuple, nulls)) or real(c, nulls, beam),
    )
    geom = ArrayGeometry(k_antennas=8)
    layout = nullsearch._tree_layout(
        geom, 3, 4, (6, 4, 2, 1), (nullsearch._exact(-90.0), nullsearch._exact(90.0))
    )
    floor = nullsearch.RANK_SCREEN_MARGIN * beamforming.RANK_TOL
    for beam in np.linspace(-60.0, 60.0, 13):
        screened.clear()
        nullsearch._failing(geom, float(beam), layout, steering_vector(geom, float(beam)))
        for cfg in layout.values():
            if cfg.null_angles_deg not in screened:
                c = beamforming.constraint_matrices(geom, float(beam), [cfg.null_angles_deg])
                sv = np.linalg.svd(c[0], compute_uv=False)
                assert sv[-1] >= floor * sv[0]


def test_trees_of_one_shape_share_its_layout_and_signed_zero_sectors_do_not(
    fresh_trees,
):
    layouts = nullsearch._tree_layout.cache_info
    nullsearch._tree_layout.cache_clear()
    # two beams on one array share its layout, configs and all; an array
    # of another size (K=16 resolves to K=8's schedule) gets its own
    trees = [
        build_tree(ArrayGeometry(k_antennas=8), 21.4),
        build_tree(ArrayGeometry(k_antennas=8), -33.3),
        build_tree(ArrayGeometry(k_antennas=16), 21.4),
    ]
    assert (layouts().misses, layouts().hits) == (2, 1)
    assert trees[1].nodes is trees[0].nodes
    for node_id, cfg in trees[0].nodes.items():
        assert trees[1].nodes[node_id] is cfg
        assert trees[2].nodes[node_id] == cfg
    geom = ArrayGeometry(k_antennas=4)
    signed = [build_tree(geom, 21.4, fanout=2, root_sector=(z, 90.0)) for z in (0.0, -0.0)]
    assert layouts().misses == 4
    assert [math.copysign(1.0, t.root_sector[0]) for t in signed] == [1.0, -1.0]
    assert signed[0].nodes is not signed[1].nodes


def test_a_fig8_ensemble_solves_each_visited_node_once(solves, union_visited):
    base = scenario_fig8_powercorr()
    for i in range(ORBIT_ENSEMBLE_SIZE):
        s = scenario_from_dict(scenario_to_dict(replace(base, seed=base.seed + i)))
        run_full_protocol(s)
    # the tree's visited nodes and its no-null baseline, each once across
    # the ensemble
    assert sum(solves) == len(union_visited) + 1


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


@pytest.mark.parametrize("first,then", [(0.0, -0.0), (-0.0, 0.0)])
def test_scan_grids_of_either_zero_sign_get_their_own_layout(first, then, tmp_path):
    """A grid with a ``-0.0`` angle never shares its layout, and so its
    configs, with a ``0.0`` one, and a run on it exports what a fresh
    process exports."""
    geom = ArrayGeometry(k_antennas=4)

    def grid(z):
        return (-40.0, z, 40.0)

    zero, minus_zero = (grid_tree(geom, grid(z), 21.4).nodes for z in (0.0, -0.0))
    assert zero is not minus_zero
    same = grid_tree(geom, list(grid(then)), 21.4).nodes
    assert same is grid_tree(geom, grid(then), 21.4).nodes
    base = scenario_from_dict(
        {"user_angles_deg": [0.0], "search": {"mode": "linear", "linear_grid": grid(first)}}
    )

    def on(z):
        return replace(base, search=replace(base.search, linear_grid=grid(z)))

    nullsearch._grid_layout.cache_clear()
    fresh = _export(on(then), tmp_path / "fresh.json")
    assert _export(on(first), tmp_path / "first.json") != fresh  # the sign shows
    nullsearch._grid_layout.cache_clear()
    _export(on(first), tmp_path / "first.json")
    assert _export(on(then), tmp_path / "then.json") == fresh
