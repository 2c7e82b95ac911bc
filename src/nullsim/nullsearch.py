"""Feedback-driven search for null directions.

The search space is a ternary tree over the angular range [-90, 90].
Every node owns a sector and a set of candidate nulls spread evenly over
it (half-step inset, so sector edges are never nulled directly); leaves
carry the sector center as their single null.  Descending one level needs
one over-the-air feedback round, so a depth-4 tree costs 4 rounds of
fanout tests instead of scanning a whole angle grid.

Wide nulls at the top of the tree blanket a sector; each level narrows
the blanket until a single sharp null remains.  The candidate with the
lowest measured INR anywhere along the way is remembered, so the final
choice may be an inner node rather than a leaf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np

from .beamforming import (
    ArrayGeometry,
    DegenerateConstraintsError,
    constraint_matrices,
    degenerate_rows,
    min_norm_weights,
)
from .channel import InrReport

NodeId = tuple[int, ...]

ROOT_SECTOR = (-90.0, 90.0)

# distinct search trees kept per process, with their solved weights; an
# ensemble or a sweep on one array and beam shares a single tree.  As many
# node layouts are kept, one per tree shape, shared by every beam and array.
TREE_CACHE_SIZE = 32

# the most nodes a search tree may have.  The presets use 120 (fanout 3,
# depth 4) and the tests at most 340 (fanout 4, depth 4).  A node costs
# about 0.7 kB with its weights solved at K=8, so a cached tree at the cap
# pins under 1.5 MB; without a cap, fanout 10 and depth 8 would ask for
# 1.1e8 nodes, minutes and tens of GB before a single test slot.
MAX_TREE_NODES = 2000


class TreeShapeError(ValueError):
    """A search tree its arguments cannot build; ``rule`` names the broken rule."""

    def __init__(self, rule: str, message: str):
        self.rule = rule
        super().__init__(message)


class DofExhaustedError(RuntimeError):
    """Joint null set would exceed the array's degrees of freedom."""

    def __init__(self, accommodated: list[int], excluded: list[int], limit: int):
        self.accommodated = accommodated
        self.excluded = excluded
        self.limit = limit
        super().__init__(
            f"joint nulls exceed {limit} degrees of freedom; "
            f"accommodated users {accommodated}, could not serve {excluded}"
        )


@dataclass(frozen=True)
class NullConfig:
    """One candidate precoding: a beam plus a set of nulls inside a sector."""

    node_id: NodeId
    beam_angle_deg: float
    null_angles_deg: tuple[float, ...]
    sector: tuple[float, float]

    def __post_init__(self) -> None:
        a, b = self.sector
        if b < a:
            raise ValueError("sector bounds out of order")
        for x in self.null_angles_deg:
            if not a <= x <= b:
                raise ValueError(f"null {x} outside sector [{a}, {b}]")

    @property
    def level(self) -> int:
        return len(self.node_id)

    @property
    def label(self) -> str:
        return ".".join(map(str, self.node_id))


def default_null_schedule(k_antennas: int, depth: int = 4) -> tuple[int, ...]:
    """Nulls per level for a given array size.

    Inner levels get 2*(levels below) nulls capped at K-2 (one degree of
    freedom always stays with the beam), the leaf level exactly one.
    Gives (6, 4, 2, 1) for K=8 and (2, 2, 2, 1) for K=4.
    """
    if depth < 1:
        raise ValueError("tree depth must be at least 1")
    cap = k_antennas - 2
    if cap < 1:
        raise TreeShapeError(
            "nulls_exceed_dof", f"{k_antennas} antennas leave no freedom for nulls"
        )
    counts = [min(cap, 2 * (depth - 1 - lev)) for lev in range(depth - 1)]
    return tuple(counts) + (1,)


def _evenly_inset(a: float, b: float, n: int) -> tuple[float, ...]:
    step = (b - a) / n
    return tuple(a + step * (i + 0.5) for i in range(n))


@dataclass(frozen=True)
class SearchTree:
    """Candidate configs for every node of the search tree.

    The simulated protocol treats every node's weights as precomputed, so
    no solve eats into a 2 ms test slot.  On the host, a node is solved on
    first use, a frontier's unsolved nodes by one stacked call: a descent
    reads 12 of a default tree's 120 nodes.  A linear scan is a depth-1
    tree whose nodes are the grid angles.

    A tree is checked when it is made: a node whose constraints
    :func:`~nullsim.beamforming.lcmv_weights` would reject raises its
    :class:`DegenerateConstraintsError` here (see :func:`_check_constraints`),
    so no node's solve runs the rank test again.

    A tree is read-only: ``nodes`` is a read-only copy of the table it is
    given, and :meth:`stack`, the only way weights leave a tree, hands out
    copies of its solved rows, so :func:`build_tree` can hand one tree to
    every caller with the same key.
    """

    geometry: ArrayGeometry
    beam_angle_deg: float
    fanout: int
    depth: int
    nulls_per_level: tuple[int, ...]
    nodes: Mapping[NodeId, NullConfig] = field(repr=False)
    root_sector: tuple[float, float] = ROOT_SECTOR
    # each solved node's weights, kept for the tree's lifetime, so a descent
    # pays for the nodes it tests and every run sharing the tree reuses them
    _solved: dict[NodeId, np.ndarray] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        nodes = MappingProxyType(dict(self.nodes))
        _check_constraints(self.geometry, self.beam_angle_deg, nodes)
        object.__setattr__(self, "nodes", nodes)

    def stack(self, node_ids: Sequence[NodeId]) -> tuple[list[NullConfig], np.ndarray]:
        """The configs of ``node_ids`` and their weights, one row per node.

        The nodes must share a null count, as a frontier's nodes do; the
        ones not yet solved are solved by one stacked
        :func:`min_norm_weights` call on their constraint matrices, and the
        rank test is not run again.
        """
        cfgs = [self.nodes[n] for n in node_ids]
        if len({len(cfg.null_angles_deg) for cfg in cfgs}) > 1:
            counts = ", ".join(f"{cfg.node_id}: {len(cfg.null_angles_deg)}" for cfg in cfgs)
            raise ValueError(
                f"a stack's nodes must share one null count; nulls per node {counts}"
            )
        todo = [n for n in node_ids if n not in self._solved]
        if todo:
            null_sets = [self.nodes[n].null_angles_deg for n in todo]
            c = constraint_matrices(self.geometry, self.beam_angle_deg, null_sets)
            self._solved.update(zip(todo, min_norm_weights(c)))
        return cfgs, np.array([self._solved[n] for n in node_ids])

    def children(self, node_id: NodeId) -> list[NodeId]:
        if len(node_id) >= self.depth:
            return []
        return [node_id + (i,) for i in range(self.fanout)]

    def level_ids(self, level: int) -> list[NodeId]:
        if not 1 <= level <= self.depth:
            raise IndexError(f"level {level} outside 1..{self.depth}")
        return sorted(n for n in self.nodes if len(n) == level)

    @property
    def leaf_ids(self) -> list[NodeId]:
        return self.level_ids(self.depth)


def tree_node_count(fanout: int, depth: int) -> int:
    """Nodes below the root, fanout + fanout**2 + ... + fanout**depth.

    Counting stops once it passes :data:`MAX_TREE_NODES`, so an absurd
    depth costs a few steps, not a huge integer.
    """
    total, width = 0, 1
    for _ in range(depth):
        width *= fanout
        total += width
        if total > MAX_TREE_NODES:
            break
    return total


def _check_constraints(
    geom: ArrayGeometry, beam_angle_deg: float, nodes: Mapping[NodeId, NullConfig]
) -> None:
    """Raise what ``lcmv_weights`` would raise on some node, without solving.

    Nodes are grouped by null count (so per level, or fewer groups) and
    each group is checked by :func:`degenerate_rows`: one stacked rank test
    over the matrices ``lcmv_weights`` builds, with the same tolerance.  Of the
    failing nodes, the first in depth-first order raises, with the message
    its own solve would give.
    """
    by_width: dict[int, list[NullConfig]] = {}
    for cfg in nodes.values():
        by_width.setdefault(len(cfg.null_angles_deg), []).append(cfg)
    failing: dict[NodeId, str] = {}
    for cfgs in by_width.values():
        null_sets = [cfg.null_angles_deg for cfg in cfgs]
        for i, message in degenerate_rows(geom, beam_angle_deg, null_sets).items():
            failing[cfgs[i].node_id] = message
    if failing:
        raise DegenerateConstraintsError(failing[min(failing)])


def null_schedule(
    k_antennas: int, depth: int, nulls_per_level: Sequence[int] | None = None
) -> tuple[int, ...]:
    """Nulls per level: the default schedule, or ``nulls_per_level`` checked.

    The rules, in order: the array has freedom for the default schedule;
    one count per level; at most K-2 nulls per level (one degree of
    freedom stays with the beam); exactly one leaf null; at least one null
    per level.  A broken rule raises a :class:`TreeShapeError`.
    """
    if nulls_per_level is None:
        return default_null_schedule(k_antennas, depth)
    schedule = tuple(int(n) for n in nulls_per_level)
    if len(schedule) != depth:
        raise TreeShapeError(
            "schedule_depth_mismatch",
            f"nulls_per_level {schedule} does not match depth {depth}",
        )
    if max(schedule) > k_antennas - 2:
        raise TreeShapeError(
            "nulls_exceed_dof",
            f"schedule {schedule} exceeds K-2 = {k_antennas - 2} nulls "
            f"(one degree of freedom stays with the beam)",
        )
    if schedule[-1] != 1:
        raise TreeShapeError(
            "leaf_level_not_single_null",
            f"nulls_per_level {schedule} must end with exactly one leaf null",
        )
    if min(schedule) < 1:
        raise TreeShapeError(
            "level_without_nulls",
            f"nulls_per_level {schedule} leaves a level without nulls",
        )
    return schedule


def build_tree(
    geom: ArrayGeometry,
    beam_angle_deg: float,
    fanout: int = 3,
    depth: int = 4,
    nulls_per_level: Sequence[int] | None = None,
    root_sector: tuple[float, float] = ROOT_SECTOR,
) -> SearchTree:
    """The search tree for these arguments, its every node's constraints checked.

    A tree of more than :data:`MAX_TREE_NODES` nodes, checked first so no
    depth is ever expanded, or a schedule :func:`null_schedule` rejects
    raises a :class:`TreeShapeError` naming the rule; these are the only
    checks of a tree's shape.

    No weights are solved here: ``tree.stack`` solves a node the first
    time it is asked for.  A node whose constraints are degenerate (a beam
    exactly on a candidate null, or aliased directions) raises the same
    :class:`DegenerateConstraintsError` its solve would, before any node
    is used.

    Trees are shared process-wide: equal arguments, with the null schedule
    resolved (so ``None`` and the default schedule are one key), return
    the same read-only tree, whose solved weights serve every later run.
    Numbers are keyed by type and sign too, so ``0``, ``0.0`` and ``-0.0``
    never share a tree.  The last :data:`TREE_CACHE_SIZE` distinct trees
    are kept; a key that raises is not kept and raises again.  A new beam
    or array on a known shape reuses the shape's node layout, so a cold
    tree costs only its beam's configs and their check.
    """
    if fanout < 2:
        raise ValueError("fanout must be at least 2")
    if tree_node_count(fanout, depth) > MAX_TREE_NODES:
        raise TreeShapeError(
            "tree_too_large",
            f"fanout {fanout} and depth {depth} exceed {MAX_TREE_NODES} tree nodes",
        )
    schedule = null_schedule(geom.k_antennas, depth, nulls_per_level)
    lo, hi = root_sector
    if not (-90.0 <= lo < hi <= 90.0):
        raise ValueError("root sector must be a nonempty range inside [-90, 90]")
    return _shared_tree(
        geom, _exact(beam_angle_deg), fanout, depth, schedule, (_exact(lo), _exact(hi))
    )


def _exact(x: float) -> tuple:
    """``x`` as a cache key: equal keys hold the same number, type and sign."""
    return x, type(x), math.copysign(1.0, x)


# one node of a tree shape: its id, null angles and sector
_LaidOutNode = tuple[NodeId, tuple[float, ...], tuple[float, float]]


@lru_cache(maxsize=TREE_CACHE_SIZE)
def _layout(
    fanout: int, depth: int, schedule: tuple[int, ...], sector_key: tuple[tuple, tuple]
) -> tuple[_LaidOutNode, ...]:
    """The nodes of one tree shape, depth first, shared by every beam and array.

    Its root sector is keyed by :func:`_exact`, as trees are, so a root
    edge of ``-0.0`` never shares a layout with one of ``0.0``.
    """
    out: list[_LaidOutNode] = []

    def grow(node_id: NodeId, a: float, b: float) -> None:
        level = len(node_id)
        if level > 0:
            out.append((node_id, _evenly_inset(a, b, schedule[level - 1]), (a, b)))
        if level < depth:
            w = (b - a) / fanout
            for i in range(fanout):
                grow(node_id + (i,), a + i * w, a + (i + 1) * w)

    grow((), sector_key[0][0], sector_key[1][0])
    return tuple(out)


@lru_cache(maxsize=TREE_CACHE_SIZE)
def _shared_tree(
    geom: ArrayGeometry,
    beam_key: tuple,
    fanout: int,
    depth: int,
    schedule: tuple[int, ...],
    sector_key: tuple[tuple, tuple],
) -> SearchTree:
    """The checked tree of one :func:`build_tree` key: its shape's layout
    with the beam stamped onto every node."""
    beam_angle_deg = beam_key[0]
    nodes = {
        node_id: NullConfig(node_id, beam_angle_deg, nulls, sector)
        for node_id, nulls, sector in _layout(fanout, depth, schedule, sector_key)
    }
    return SearchTree(
        geometry=geom,
        beam_angle_deg=beam_angle_deg,
        fanout=fanout,
        depth=depth,
        nulls_per_level=schedule,
        nodes=nodes,
        root_sector=(sector_key[0][0], sector_key[1][0]),
    )


# ---------------------------------------------------------------------------
# tree traversal

# a frontier's measurements: ``evaluate(cfgs, weights)`` measures every user
# of the search against the same transmissions and returns one report list
# per user, each with one report per config, in order; ``weights`` stacks
# the configs' constraint-domain vectors, one per row.  Tree and linear
# search are the one-user case.
Evaluator = Callable[[Sequence[NullConfig], np.ndarray], list[list[InrReport]]]


@dataclass
class SearchState:
    """Progress of one user's descent.

    ``frontier`` lists the nodes to test next; ``pending`` is True until
    their measurements are recorded.  ``best`` tracks the lowest aggregate
    INR over everything tested so far, inner nodes included.
    """

    frontier: list[NodeId]
    pending: bool = True
    tested: list[tuple[NullConfig, InrReport]] = field(default_factory=list)
    best: tuple[NullConfig, InrReport] | None = None
    done: bool = False
    last_winner: NodeId | None = None


def start_search(tree: SearchTree) -> SearchState:
    return SearchState(frontier=tree.level_ids(1))


def record_results(
    state: SearchState, tree: SearchTree, reports: Sequence[InrReport]
) -> SearchState:
    """Attach the frontier's measurements to the state."""
    if state.done:
        raise RuntimeError("search already finished")
    if not state.pending:
        raise RuntimeError("frontier results were already recorded")
    if len(reports) != len(state.frontier):
        raise ValueError("one report per frontier node required")
    tested = list(state.tested)
    best = state.best
    for node_id, rep in zip(state.frontier, reports):
        cfg = tree.nodes[node_id]
        tested.append((cfg, rep))
        if best is None or rep.aggregate < best[1].aggregate:
            best = (cfg, rep)
    return replace(state, tested=tested, best=best, pending=False)


def advance(state: SearchState, tree: SearchTree, feedback: int) -> SearchState:
    """Descend into the frontier child named by the feedback index.

    ``feedback`` is the position, within the just-tested frontier, of the
    node with the lowest measured INR.  Only the ranking crosses the
    cross-technology channel, never the raw values.
    """
    if state.done:
        raise RuntimeError("search already finished")
    if state.pending:
        raise RuntimeError("frontier has not been tested yet")
    if not 0 <= feedback < len(state.frontier):
        raise IndexError(f"feedback {feedback} outside the tested frontier")
    winner = state.frontier[feedback]
    children = tree.children(winner)
    if not children:
        return replace(state, done=True, last_winner=winner, frontier=[])
    return replace(state, frontier=children, pending=True, last_winner=winner)


def min_inr_index(reports: Sequence[InrReport]) -> int:
    """Index of the lowest aggregate INR; ties break toward the lower index."""
    best, arg = None, 0
    for i, rep in enumerate(reports):
        if best is None or rep.aggregate < best:
            best, arg = rep.aggregate, i
    return arg


def descend(
    states: Sequence[SearchState], tree: SearchTree, evaluate: Evaluator
) -> tuple[list[SearchState], list[list[NodeId]]]:
    """The feedback loop every search mode runs: test, feed back, descend.

    Per level the union of the users' frontiers is solved and stacked once
    and measured once, for every user by one ``evaluate`` call.  Each user
    then records its own frontier's reports and descends into its winner.
    The users descend in step, one level per round, so they must start on
    one level and all finish together.  Returns the finished states and
    the union tested at each level.
    """
    states = list(states)
    visited_per_level: list[list[NodeId]] = []
    while True:
        done = [st.done for st in states]
        if all(done):
            return states, visited_per_level
        if any(done):
            raise ValueError("users must descend in step; some finished early")
        union = sorted({n for st in states for n in st.frontier})
        visited_per_level.append(union)
        cfgs, weights = tree.stack(union)
        per_user = evaluate(cfgs, weights)
        if len(per_user) != len(states):
            raise ValueError("need one report list per user")
        for u, (st, reports) in enumerate(zip(states, per_user)):
            measured = dict(zip(union, reports))
            reports = [measured[n] for n in st.frontier]
            st = record_results(st, tree, reports)
            states[u] = advance(st, tree, min_inr_index(reports))


# ---------------------------------------------------------------------------
# linear baseline

LINEAR_GRID_SIZE = 165
LINEAR_GRID_RANGE = (-82.0, 82.0)
# the scan grid of a scenario that declares none, built once
DEFAULT_LINEAR_GRID: tuple[float, ...] = tuple(
    np.linspace(*LINEAR_GRID_RANGE, LINEAR_GRID_SIZE).tolist()
)


def linear_search(
    geom: ArrayGeometry,
    grid_angles: Sequence[float],
    beam_angle_deg: float,
    evaluate: Evaluator,
) -> SearchState:
    """Exhaustive single-null scan over ``grid_angles``; the finished state.

    The baseline the tree is measured against: a depth-1 tree whose nodes
    are the grid angles, so the whole grid is one frontier, checked by one
    stacked rank test when the tree is made, solved by one stacked call
    and summarized by one feedback.  Ties break toward the lower grid index.
    """
    if not grid_angles:
        raise ValueError("linear search needs a nonempty grid")
    nodes = {
        (i,): NullConfig(
            node_id=(i,),
            beam_angle_deg=beam_angle_deg,
            null_angles_deg=(float(ang),),
            sector=(float(ang), float(ang)),
        )
        for i, ang in enumerate(grid_angles)
    }
    tree = SearchTree(
        geometry=geom,
        beam_angle_deg=beam_angle_deg,
        fanout=len(nodes),
        depth=1,
        nulls_per_level=(1,),
        nodes=nodes,
    )
    (state,), _ = descend([start_search(tree)], tree, evaluate)
    return state


# ---------------------------------------------------------------------------
# multi-user

@dataclass
class MultiUserPlan:
    """Outcome of a parallel search for several users on one tree."""

    states: list[SearchState]
    visited_per_level: list[list[NodeId]]
    joint_null_angles: tuple[float, ...]


def _join_nulls(
    bests: Sequence[tuple[NullConfig, InrReport]], limit: int
) -> tuple[float, ...]:
    joint: list[float] = []
    accommodated: list[int] = []
    for u, (cfg, _) in enumerate(bests):
        fresh = [a for a in cfg.null_angles_deg if a not in joint]
        if len(joint) + len(fresh) > limit:
            raise DofExhaustedError(
                accommodated=accommodated,
                excluded=list(range(u, len(bests))),
                limit=limit,
            )
        joint.extend(fresh)
        accommodated.append(u)
    return tuple(joint)


def multi_user_search(
    states: list[SearchState],
    tree: SearchTree,
    evaluate: Evaluator,
) -> MultiUserPlan:
    """Descend the tree for every user at once, sharing test slots.

    Per level the union of all users' frontiers is tested; a node shared
    by several users costs one slot because every node measures the same
    transmission, and one ``evaluate`` call measures it for every user.  The
    final joint configuration is the union of the per-user best null sets,
    users served in input order until the array runs out of freedom (the
    beam keeps one degree), in which case the error names who still fit.

    Power correction is unavailable here: one correction cannot equalize
    several users' channels at once, so plain weights are used throughout.
    """
    if not states:
        raise ValueError("need at least one user")
    states, visited_per_level = descend(states, tree, evaluate)
    bests = [st.best for st in states]
    if any(b is None for b in bests):
        raise RuntimeError("search ended with an untested user")
    joint = _join_nulls(bests, limit=tree.geometry.k_antennas - 2)
    return MultiUserPlan(
        states=states,
        visited_per_level=visited_per_level,
        joint_null_angles=joint,
    )
