"""Tree construction and the descent / linear / multi-user search drivers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nullsim.beamforming import (
    ArrayGeometry,
    DegenerateConstraintsError,
    normalize,
    steering_vector,
)
from nullsim.nullsearch import (
    DEFAULT_LINEAR_GRID,
    LINEAR_GRID_RANGE,
    LINEAR_GRID_SIZE,
    ROOT_SECTOR,
    DofExhaustedError,
    NullConfig,
    SearchState,
    TreeShapeError,
    build_tree,
    default_null_schedule,
    descend,
    grid_tree,
    linear_search,
    min_inr_index,
    multi_user_search,
    record_results,
)

LEAF_WIDTH = 180.0 / 81.0


@pytest.fixture(scope="module")
def tree8():
    return build_tree(ArrayGeometry(k_antennas=8), beam_angle_deg=21.4)


@pytest.fixture(scope="module")
def tree4():
    return build_tree(ArrayGeometry(k_antennas=4), beam_angle_deg=21.4)


def scripted_evaluator(tree, seed: int):
    """Fixed positive score per node, drawn once so reruns agree."""
    rng = np.random.default_rng(seed)
    scores = {n: float(rng.uniform(0.1, 100.0)) for n in sorted(tree.nodes)}
    calls: list = []

    def evaluate(cfgs, w):
        calls.extend(cfg.node_id for cfg in cfgs)
        return [[scores[cfg.node_id] for cfg in cfgs]]

    return evaluate, scores, calls


# ---------------------------------------------------------------------------
# null schedule and config


def test_default_schedule_by_array_size():
    assert default_null_schedule(8) == (6, 4, 2, 1)
    assert default_null_schedule(4) == (2, 2, 2, 1)
    assert default_null_schedule(3) == (1, 1, 1, 1)
    assert default_null_schedule(8, depth=1) == (1,)
    with pytest.raises(ValueError):
        default_null_schedule(2)
    with pytest.raises(ValueError):
        default_null_schedule(8, depth=0)


def test_config_rejects_null_outside_sector():
    with pytest.raises(ValueError):
        NullConfig((0,), (31.0,), sector=(-30.0, 30.0))
    with pytest.raises(ValueError):
        NullConfig((0,), (0.0,), sector=(30.0, -30.0))


def test_config_level_and_label():
    cfg = NullConfig((1, 0, 2, 1), (0.0,), sector=(-1.0, 1.0))
    assert cfg.level == 4
    assert cfg.label == "1.0.2.1"


# ---------------------------------------------------------------------------
# tree construction


def test_level_one_trisects_the_field_of_view(tree8):
    sectors = [tree8.nodes[n].sector for n in tree8.level_ids(1)]
    assert sectors == [(-90.0, -30.0), (-30.0, 30.0), (30.0, 90.0)]


def test_children_split_sectors_in_three(tree8):
    kids = tree8.children((1,))
    assert kids == [(1, 0), (1, 1), (1, 2)]
    assert [tree8.nodes[k].sector for k in kids] == [
        (-30.0, -10.0),
        (-10.0, 10.0),
        (10.0, 30.0),
    ]


def test_inner_nulls_are_evenly_inset(tree8):
    assert tree8.nodes[(1,)].null_angles_deg == pytest.approx(
        (-25.0, -15.0, -5.0, 5.0, 15.0, 25.0)
    )


def test_children_tile_their_parent_exactly(tree8):
    for node_id, cfg in tree8.nodes.items():
        kids = tree8.children(node_id)
        if not kids:
            continue
        edges = [tree8.nodes[k].sector for k in kids]
        assert edges[0][0] == cfg.sector[0]
        assert edges[-1][1] == cfg.sector[1]
        for (_, right), (left, _) in zip(edges, edges[1:]):
            assert right == left


def test_leaf_count_and_centered_leaf_nulls(tree8):
    leaves = tree8.leaf_ids
    assert len(leaves) == 81
    for n in leaves:
        cfg = tree8.nodes[n]
        a, b = cfg.sector
        assert b - a == pytest.approx(LEAF_WIDTH)
        assert cfg.null_angles_deg == (pytest.approx((a + b) / 2),)


def test_null_counts_follow_the_schedule(tree8):
    for node_id, cfg in tree8.nodes.items():
        assert len(cfg.null_angles_deg) == tree8.nulls_per_level[len(node_id) - 1]
    for level in range(1, tree8.depth + 1):
        cfgs, weights = tree8.stack(tree8.level_ids(level))
        assert weights.shape == (len(cfgs), 8)


def test_single_level_tree():
    tree = build_tree(ArrayGeometry(k_antennas=8), 21.4, depth=1)
    assert tree.leaf_ids == [(0,), (1,), (2,)]
    assert [tree.nodes[n].null_angles_deg for n in tree.leaf_ids] == [
        (-60.0,),
        (0.0,),
        (60.0,),
    ]


def test_build_tree_validation():
    geom = ArrayGeometry(k_antennas=8)
    with pytest.raises(ValueError):
        build_tree(geom, 21.4, fanout=1)
    with pytest.raises(ValueError):
        build_tree(geom, 21.4, nulls_per_level=(6, 4, 1))
    with pytest.raises(ValueError):
        build_tree(geom, 21.4, nulls_per_level=(6, 4, 2, 2))
    with pytest.raises(ValueError):
        build_tree(geom, 21.4, nulls_per_level=(6, 0, 2, 1))
    with pytest.raises(ValueError):
        build_tree(geom, 21.4, nulls_per_level=(7, 4, 2, 1))
    with pytest.raises(ValueError):
        build_tree(geom, 21.4, root_sector=(-91.0, 90.0))
    with pytest.raises(ValueError):
        build_tree(geom, 21.4, root_sector=(30.0, 30.0))


@pytest.mark.parametrize(
    "k,kwargs,rule",
    [
        (8, {"fanout": 10, "depth": 8}, "tree_too_large"),
        (2, {}, "nulls_exceed_dof"),
        (8, {"nulls_per_level": (6, 4, 1)}, "schedule_depth_mismatch"),
        (8, {"nulls_per_level": (7, 4, 2, 1)}, "nulls_exceed_dof"),
        (8, {"nulls_per_level": (6, 4, 2, 2)}, "leaf_level_not_single_null"),
        (8, {"nulls_per_level": (6, 0, 2, 1)}, "level_without_nulls"),
    ],
)
def test_build_tree_names_the_shape_rule_it_refuses(k, kwargs, rule):
    with pytest.raises(TreeShapeError) as err:
        build_tree(ArrayGeometry(k_antennas=k), 21.4, **kwargs)
    assert err.value.rule == rule


def test_beam_on_a_candidate_null_is_rejected():
    # 0 deg is a leaf center of the default tree
    with pytest.raises(DegenerateConstraintsError):
        build_tree(ArrayGeometry(k_antennas=4), beam_angle_deg=0.0)


# ---------------------------------------------------------------------------
# descent


def run_descent(tree, evaluate):
    """One user's full descent; the finished state."""
    (state,), _ = descend(tree, 1, evaluate)
    return state


def winner(state):
    """The node the last feedback picked: the lowest of the last level tested."""
    last = [(cfg, rep) for cfg, rep in state.tested if cfg.level == state.tested[-1][0].level]
    return min(last, key=lambda t: t[1])[0].node_id


def test_descent_tests_fanout_nodes_per_level(tree8):
    evaluate, scores, calls = scripted_evaluator(tree8, seed=5)
    state = run_descent(tree8, evaluate)
    assert state.frontier == []
    assert len(calls) == 12
    assert len(state.tested) == 12
    assert len(winner(state)) == 4


def test_best_is_the_minimum_over_everything_tested(tree8):
    evaluate, scores, _ = scripted_evaluator(tree8, seed=6)
    state = run_descent(tree8, evaluate)
    assert state.best is not None
    assert state.best[1] == min(inr for _, inr in state.tested)


def test_descent_follows_the_per_level_minimum(tree8):
    evaluate, scores, calls = scripted_evaluator(tree8, seed=7)
    state = run_descent(tree8, evaluate)
    parent = ()
    for level in range(4):
        frontier = calls[3 * level : 3 * level + 3]
        expected = tree8.children(parent) if parent else tree8.level_ids(1)
        assert frontier == expected
        parent = min(frontier, key=lambda n: scores[n])
    assert winner(state) == parent


def test_descent_is_deterministic(tree8):
    ev1, _, calls1 = scripted_evaluator(tree8, seed=8)
    ev2, _, calls2 = scripted_evaluator(tree8, seed=8)
    s1 = run_descent(tree8, ev1)
    s2 = run_descent(tree8, ev2)
    assert calls1 == calls2
    assert winner(s1) == winner(s2)
    assert s1.best[1] == s2.best[1]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_descent_depends_only_on_score_ranking(seed):
    """Any strictly increasing remap of the INRs leaves the path unchanged."""
    tree = _RANK_TREE
    ev_raw, scores, calls_raw = scripted_evaluator(tree, seed)
    calls_mapped: list = []

    def ev_mapped(cfgs, w):
        calls_mapped.extend(cfg.node_id for cfg in cfgs)
        return [[float(np.exp(scores[cfg.node_id] / 50.0)) for cfg in cfgs]]

    raw = run_descent(tree, ev_raw)
    mapped = run_descent(tree, ev_mapped)
    assert calls_raw == calls_mapped
    assert winner(raw) == winner(mapped)


_RANK_TREE = build_tree(ArrayGeometry(k_antennas=4), beam_angle_deg=21.4, depth=3)


def test_min_inr_index_breaks_ties_low():
    assert min_inr_index([2.0, 1.0, 1.0]) == 1
    assert min_inr_index([5.0, 5.0]) == 0


def test_record_results_keeps_the_first_of_tied_minima(tree8):
    state = SearchState(frontier=tree8.level_ids(1))
    record_results(state, tree8, [5.0, 2.0, 2.0])
    assert [(cfg.node_id, inr) for cfg, inr in state.tested] == [
        ((0,), 5.0), ((1,), 2.0), ((2,), 2.0)
    ]
    assert state.best == (tree8.nodes[(1,)], 2.0)
    # an equal INR at a later level never replaces the best
    state.frontier = tree8.children((2,))
    record_results(state, tree8, [3.0, 2.0, 2.0])
    assert state.best == (tree8.nodes[(1,)], 2.0)
    # a strictly lower one does, the first of its ties
    state.frontier = tree8.children((2, 1))
    record_results(state, tree8, [1.5, 1.0, 1.0])
    assert state.best == (tree8.nodes[(2, 1, 1)], 1.0)
    assert len(state.tested) == 9


@settings(max_examples=60, deadline=None)
@given(
    levels=st.lists(
        st.lists(st.integers(0, 3).map(float), min_size=3, max_size=3), min_size=1, max_size=4
    ),
    picks=st.lists(st.integers(0, 2), min_size=4, max_size=4),
)
def test_record_results_files_a_frontier_as_a_per_node_loop_does(levels, picks):
    """Few distinct INRs, so ties within and across levels are common."""
    tree = _RANK_TREE_K8
    state = SearchState(frontier=tree.level_ids(1))
    tested, best = [], None
    for reports, pick in zip(levels, picks):
        for node_id, inr in zip(state.frontier, reports):
            cfg = tree.nodes[node_id]
            tested.append((cfg, inr))
            if best is None or inr < best[1]:
                best = (cfg, inr)
        record_results(state, tree, reports)
        assert state.tested == tested
        assert state.best == best and state.best[0] is best[0]
        state.frontier = tree.children(state.frontier[pick])


_RANK_TREE_K8 = build_tree(ArrayGeometry(k_antennas=8), beam_angle_deg=21.4)


def test_state_transition_guards(tree8):
    """Misuse of the feedback loop is refused by ``descend``, and a finished
    descent returns instead of testing again."""
    evaluate, _, calls = scripted_evaluator(tree8, seed=9)

    def listed(n_lists, extra=0):
        """``n_lists`` report lists, the last one ``extra`` reports long or short."""
        def ev(cfgs, w):
            (reports,) = evaluate(cfgs, w)
            return [reports] * (n_lists - 1) + [(reports * 2)[: len(cfgs) + extra]]
        return ev

    with pytest.raises(ValueError, match="one report list per user: got 2 for 1 users"):
        descend(tree8, 1, listed(2))
    with pytest.raises(ValueError, match="user 1 got 2 reports for a frontier of 3 nodes"):
        descend(tree8, 2, listed(2, extra=-1))
    with pytest.raises(ValueError, match="user 0 got 4 reports for a frontier of 3 nodes"):
        descend(tree8, 1, listed(1, extra=1))
    with pytest.raises(ValueError, match="at least one user"):
        descend(tree8, 0, evaluate)
    calls.clear()
    states, visited = descend(tree8, 1, evaluate)
    assert [st.frontier for st in states] == [[]]
    assert len(visited) == tree8.depth
    assert len(calls) == 3 * tree8.depth


# ---------------------------------------------------------------------------
# linear baseline


def test_default_grid_shape():
    grid = DEFAULT_LINEAR_GRID
    assert all(type(g) is float for g in grid)
    assert grid == tuple(np.linspace(*LINEAR_GRID_RANGE, LINEAR_GRID_SIZE))
    assert len(grid) == LINEAR_GRID_SIZE
    assert (grid[0], grid[-1]) == LINEAR_GRID_RANGE
    steps = np.diff(grid)
    assert np.allclose(steps, steps[0])


def flat_ray_evaluator(geom, victims_deg, noise=1e-9):
    """Every user's flat-ray INRs, one victim angle per user."""
    svs = [steering_vector(geom, v) for v in victims_deg]

    def evaluate(cfgs, weights):
        return [
            [
                (abs(np.vdot(normalize(w), sv)) ** 2 + noise) / noise
                for cfg, w in zip(cfgs, weights)
            ]
            for sv in svs
        ]

    return evaluate


def test_linear_scan_lands_on_the_victim(geom8):
    state = linear_search(
        grid_tree(geom8, DEFAULT_LINEAR_GRID, 21.4), flat_ray_evaluator(geom8, [-20.0])
    )
    (best, inr), tested = state.best, state.tested
    assert len(tested) == LINEAR_GRID_SIZE
    assert best.null_angles_deg == (-20.0,)
    assert best.node_id == (82 - 20,)
    assert inr == min(r for _, r in tested)


def test_linear_scan_single_angle(geom8):
    state = linear_search(grid_tree(geom8, (15.0,), 21.4), flat_ray_evaluator(geom8, [-20.0]))
    (best, _), tested = state.best, state.tested
    assert best.null_angles_deg == (15.0,)
    assert len(tested) == 1


def test_linear_scan_rejects_empty_grid(geom8):
    with pytest.raises(ValueError):
        grid_tree(geom8, (), 21.4)


# ---------------------------------------------------------------------------
# multi-user


def test_colocated_users_share_every_slot(tree8):
    victims = [-20.0] * 4
    plan = multi_user_search(tree8, len(victims), flat_ray_evaluator(tree8.geometry, victims))
    assert sum(map(len, plan.visited_per_level)) == 12
    assert [len(v) for v in plan.visited_per_level] == [3, 3, 3, 3]
    assert plan.joint_null_angles == plan.states[0].best[0].null_angles_deg


def test_users_in_different_sectors_fork_after_level_one(tree8):
    victims = [-90.0 + 30.5 * LEAF_WIDTH, -90.0 + 56.5 * LEAF_WIDTH]
    plan = multi_user_search(tree8, len(victims), flat_ray_evaluator(tree8.geometry, victims))
    assert [len(v) for v in plan.visited_per_level] == [3, 6, 6, 6]
    assert sum(map(len, plan.visited_per_level)) == 21
    winners = [winner(st) for st in plan.states]
    assert winners[0][0] != winners[1][0]
    assert len(plan.joint_null_angles) == 2


def test_parallel_search_never_exceeds_sequential(tree8):
    w = LEAF_WIDTH
    victims = [-90.0 + 30.5 * w, -90.0 + 30.5 * w, -90.0 + 31.5 * w, -90.0 + 56.5 * w]
    plan = multi_user_search(tree8, len(victims), flat_ray_evaluator(tree8.geometry, victims))
    assert sum(map(len, plan.visited_per_level)) < 4 * 12
    for st in plan.states:
        assert st.frontier == []


def test_joint_nulls_run_out_of_freedom(tree4):
    victims = [-40.0, -20.0, 35.6]
    with pytest.raises(DofExhaustedError) as err:
        multi_user_search(tree4, len(victims), flat_ray_evaluator(tree4.geometry, victims))
    assert err.value.limit == 2
    assert err.value.accommodated == [0, 1]
    assert err.value.excluded == [2]


def test_multi_user_needs_users(tree8):
    with pytest.raises(ValueError):
        multi_user_search(tree8, 0, lambda cfgs, w: [])
    with pytest.raises(ValueError):
        # one report list for two users
        multi_user_search(tree8, 2, lambda cfgs, w: [[]])
