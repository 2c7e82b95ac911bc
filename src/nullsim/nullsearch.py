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
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .beamforming import (
    RANK_TOL,
    ArrayGeometry,
    DegenerateConstraintsError,
    _degenerate,
    constraint_matrices,
    min_norm_weights,
    null_basis,
    steering_vector,
    steering_vectors,
)

NodeId = tuple[int, ...]

ROOT_SECTOR = (-90.0, 90.0)

# decimals of every float in result files, null angles included
FLOAT_DECIMALS = 6

# a node whose projection bound puts its sigma ratio this many times above
# the rank tolerance skips the rank SVD; the error of the bound's rho, not
# of the SVD, sets how small it may be (see _failing)
RANK_SCREEN_MARGIN = 1e3

# a layout is built and checked a chunk of rows at a time: each chunk's
# stack of null columns holds about this many bytes, so the transient
# stacks of its steering vectors, SVDs and constraint matrices stay near it
# whatever the layout's size (see _chunks)
CHUNK_BYTES = 1 << 22

# distinct search trees kept per process, with their solved weights; an
# ensemble or a sweep on one array and beam shares a single tree.  As many
# layouts of a tree shape or scan grid on an array are kept, each shared by
# every beam.
TREE_CACHE_SIZE = 32

# the most nodes a search tree may have.  The presets use 120 (fanout 3,
# depth 4) and the tests at most 340 (fanout 4, depth 4).  A layout keeps
# the basis of a node's null columns at its own null count m, about
# 16 K m bytes a node, and every leaf has one null, so the largest layout
# validation admits (K=64, fanout 2, depth 9, 62 nulls on each of its 510
# inner nodes) holds 31.6 MiB, and the widest (fanout 44, depth 2, 62
# nulls at the root: 1980 nodes) 4.6 MiB.  Without a cap, fanout 10 and
# depth 8 would ask for 1.1e8 nodes, minutes and tens of GB before a
# single test slot.  A scan grid is a depth-1 tree, one node per angle,
# under the same cap; a K=64 grid's layout holds 1 kB an angle.
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
    """One candidate precoding's nulls, inside a sector.

    A config holds no beam: its tree (or run) does, so one layout's
    configs serve every beam.  Its output text (:attr:`label`,
    :attr:`slot_label` and :attr:`null_angles_text`) is built on first use
    and kept, so it is built once per layout, not once per tested slot.
    """

    node_id: NodeId
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

    @cached_property
    def label(self) -> str:
        """The node id, dot-joined: ``"1.0.2"``."""
        return ".".join(map(str, self.node_id))

    @cached_property
    def slot_label(self) -> str:
        """The label of the config's test slot on a timeline."""
        return "config:" + self.label

    @cached_property
    def null_angles_text(self) -> str:
        """The null angles as result files write them: ``;``-joined, with
        :data:`FLOAT_DECIMALS` decimals."""
        return ";".join(map(f"{{:.{FLOAT_DECIMALS}f}}".format, self.null_angles_deg))


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
    reads 12 of a default tree's 120 nodes.  The solved rows are kept per
    layout block, one array of the rows solved so far and each block row's
    place in it, so a frontier is gathered, solved and copied out as one
    block.  A linear scan is a depth-1 tree whose nodes are the grid
    angles (see :func:`grid_tree`).

    A tree is a beam on a layout: ``nodes`` is the :class:`_Layout` of its
    shape (or scan grid) on its array, shared by every beam, and the beam
    is the tree's own.  A tree is checked when it is made: a node whose
    constraints :func:`~nullsim.beamforming.lcmv_weights` would reject
    raises its :class:`DegenerateConstraintsError` here (see
    :func:`_check_constraints`), so no node's solve runs the rank test
    again.

    A tree is read-only: ``nodes`` has no setters, :meth:`stack` hands out
    copies of its solved rows and :attr:`beam_weights` is a read-only
    array, so :func:`build_tree` can hand one tree to every caller with the
    same key.
    """

    geometry: ArrayGeometry
    beam_angle_deg: float
    fanout: int
    depth: int
    nulls_per_level: tuple[int, ...]
    nodes: _Layout = field(repr=False)
    root_sector: tuple[float, float] = ROOT_SECTOR
    # per layout block, its solved rows' weights (solved, K), in the order
    # they were solved, and each block row's place among them (-1 while
    # unsolved), kept for the tree's lifetime, so a descent pays for the
    # nodes it tests, holds only their rows, and every run sharing the tree
    # reuses them
    _solved: dict[_Block, tuple[np.ndarray, np.ndarray]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    # the beam's steering vector, computed once: the check and every
    # solve read it
    _beam: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        a = steering_vector(self.geometry, self.beam_angle_deg)
        a.flags.writeable = False
        object.__setattr__(self, "_beam", a)
        _check_constraints(self.geometry, self.beam_angle_deg, self.nodes, a)

    def stack(self, node_ids: Sequence[NodeId]) -> tuple[list[NullConfig], np.ndarray]:
        """The configs of ``node_ids`` and their weights, one row per node.

        The nodes must share a null count, as a frontier's nodes do, so
        they sit in one block of the layout.  The tree keeps each block's
        solved rows as one (solved, K) array with each block row's place in
        it; the nodes not yet solved are solved by one stacked
        :func:`~nullsim.beamforming.min_norm_weights` call, which projects
        the beam off their bases, and appended, and the rank test is not
        run again.  The weights come back gathered by one index, a copy, so
        no caller writes into the tree.  Each row has the bits of the
        node's own :func:`~nullsim.beamforming.lcmv_weights` call.  An
        empty ``node_ids`` has no block and raises a ValueError.
        """
        if not node_ids:
            raise ValueError("a stack needs at least one node id")
        cfgs = list(map(self.nodes.config, node_ids))
        blocks, rows = zip(*map(self.nodes.at.__getitem__, node_ids))
        block = blocks[0]
        if blocks.count(block) != len(blocks):
            counts = ", ".join(f"{cfg.node_id}: {len(cfg.null_angles_deg)}" for cfg in cfgs)
            raise ValueError(
                f"a stack's nodes must share one null count; nulls per node {counts}"
            )
        if block not in self._solved:
            empty = np.empty((0, self.geometry.k_antennas), dtype=complex)
            self._solved[block] = (empty, np.full(len(block.ids), -1))
        weights, place = self._solved[block]
        rows = np.array(rows)
        todo = rows[place[rows] < 0]
        if len(todo):
            place[todo] = np.arange(len(weights), len(weights) + len(todo))
            solved = min_norm_weights(self._beam[None], block.basis[todo])
            weights = np.concatenate((weights, solved))
            self._solved[block] = (weights, place)
        return cfgs, weights[place[rows]]

    @cached_property
    def beam_weights(self) -> np.ndarray:
        """The beam's weights without nulls, (K,) and read-only: the
        baseline of every run on the tree.

        Solved on first use by :func:`~nullsim.beamforming.min_norm_weights`
        on an empty null basis, with the bits of
        ``lcmv_weights(geometry, beam_angle_deg, [])``, and kept, so every
        run sharing the tree reuses it.
        """
        empty = np.empty((1, self.geometry.k_antennas, 0), dtype=complex)
        w = min_norm_weights(self._beam[None], empty)[0]
        w.flags.writeable = False
        return w

    def children(self, node_id: NodeId) -> list[NodeId]:
        if len(node_id) >= self.depth:
            return []
        return [node_id + (i,) for i in range(self.fanout)]

    def level_ids(self, level: int) -> list[NodeId]:
        if not 1 <= level <= self.depth:
            raise IndexError(f"level {level} outside 1..{self.depth}")
        return list(self.nodes.levels[level - 1])

    @property
    def leaf_ids(self) -> list[NodeId]:
        return self.level_ids(self.depth)


class _Block:
    """A layout's nodes of one null count m, ids depth first, and views of
    the layout's arrays at their rows: their null angles (n, m), an
    orthonormal basis Q of the span of their null columns B (n, K, m) from
    :func:`~nullsim.beamforming.null_basis`, as
    :func:`~nullsim.beamforming.lcmv_weights` computes it, and
    s = sigma_min(B) (n,).  Q and s are computed a chunk of rows at a time
    (:func:`_chunks`), so the steering columns and the SVD's discarded
    right singular vectors of a large block never exist for all its rows at
    once."""

    def __init__(
        self,
        configs: Sequence[NullConfig],
        geom: ArrayGeometry,
        nulls: np.ndarray,
        columns: np.ndarray,
        s_min: np.ndarray,
    ):
        self.ids = [cfg.node_id for cfg in configs]
        n, m = len(configs), len(configs[0].null_angles_deg)
        self.nulls = nulls.reshape(n, m)
        self.nulls[:] = [cfg.null_angles_deg for cfg in configs]
        self.basis = columns.reshape(n, m, geom.k_antennas).transpose(0, 2, 1)
        self.s_min = s_min
        for rows in _chunks(n, self.basis[0].nbytes):
            b = steering_vectors(geom, self.nulls[rows]).transpose(0, 2, 1)
            self.basis[rows], sv = null_basis(b)
            self.s_min[rows] = sv[:, -1]


def _chunks(n: int, row_bytes: int) -> list[slice]:
    """Slices of a stack's ``n`` rows of ``row_bytes`` each, about
    :data:`CHUNK_BYTES` a slice.

    Every stacked step of a layout's build and check has each row's bits
    of its own call, so a row's result does not depend on its chunk.
    """
    step = max(1, CHUNK_BYTES // max(row_bytes, 1))
    return [slice(i, i + step) for i in range(0, n, step)]


class _Layout(Mapping[NodeId, NullConfig]):
    """The configs of one tree shape or scan grid, and their null bases on
    one array: the beam-free half of every tree on them.

    It maps node ids to configs, depth first (a grid's in grid order);
    ``config`` is the same lookup as the dict's own method, so a map over a
    whole frontier makes no Python-level call per node, and ``levels``
    holds each level's ids, sorted.  A node's null basis does not depend on
    the beam, so the layout keeps every node's null angles and basis
    columns once, stacked node after node: ``nulls`` (one angle per
    column), ``columns`` (the columns of each node's basis Q, one K-vector
    a row) and ``s_min`` (one per node).  The nodes of one null count are consecutive
    there, and their :class:`_Block` holds views of its rows, with no
    padding; ``widths`` and ``sizes`` give each block's null count and node
    count, and ``at`` each node's (block, row).  A beam's check
    (:func:`_check_constraints`) then costs one product over ``columns``,
    and its solves one stacked projection per frontier (see
    :meth:`SearchTree.stack`).  A scan grid's layout names a failing node
    by its scan angle.
    """

    def __init__(
        self, configs: Sequence[NullConfig], geom: ArrayGeometry, scan_grid: bool = False
    ):
        self._configs = {cfg.node_id: cfg for cfg in configs}
        self.config = self._configs.__getitem__
        by_level: dict[int, list[NodeId]] = {}
        for n in sorted(self._configs):
            by_level.setdefault(len(n), []).append(n)
        self.levels = [tuple(by_level[lev]) for lev in sorted(by_level)]
        self.scan_grid = scan_grid
        by_count: dict[int, list[NullConfig]] = {}
        for cfg in configs:
            by_count.setdefault(len(cfg.null_angles_deg), []).append(cfg)
        self.widths = tuple(by_count)
        self.sizes = tuple(map(len, by_count.values()))
        n_columns = sum(m * n for m, n in zip(self.widths, self.sizes))
        self.nulls = np.empty(n_columns)
        self.columns = np.empty((n_columns, geom.k_antennas), dtype=complex)
        self.s_min = np.empty(len(configs))
        self.blocks = []
        col = node = 0
        for m, cfgs in by_count.items():
            cols = slice(col, col + m * len(cfgs))
            rows = slice(node, node + len(cfgs))
            self.blocks.append(
                _Block(cfgs, geom, self.nulls[cols], self.columns[cols], self.s_min[rows])
            )
            col, node = cols.stop, rows.stop
        self.at = {n: (block, row) for block in self.blocks for row, n in enumerate(block.ids)}

    def __getitem__(self, node_id: NodeId) -> NullConfig:
        return self._configs[node_id]

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._configs)

    def __len__(self) -> int:
        return len(self._configs)


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


def _failing(
    geom: ArrayGeometry, beam_angle_deg: float, nodes: _Layout, a: np.ndarray
) -> dict[NodeId, str]:
    """The nodes ``lcmv_weights`` would reject, each with its message.

    With a the beam's steering vector (norm sqrt K), c = Q^H a and
    rho = ||a - Q c||, a node's constraint matrix factors as
    C = [a B] = [Q u] [[c, R], [rho, 0]] for B = Q R and a unit u
    orthogonal to Q, so
        sigma_min(C) >= 1 / ((1 + sqrt(K) / s) / rho + 1 / s)
                      = rho s / (s + sqrt(K) + rho),
    and sigma_max(C) <= sqrt(K (m + 1)), every column having norm sqrt K.
    A node whose bound on the sigma ratio reaches RANK_SCREEN_MARGIN *
    RANK_TOL (1e-6) is cleared of the rank test.  The screen is one pass
    over the layout: one product gives conj(Q^H a) for the null columns of
    every node, and each node's rho^2 = ||a||^2 - ||c||^2 is a segment sum
    of it.

    The margin is set by rounding, with u = 2^-53 and p a modest
    polynomial in K and m (LAPACK's backward error):
      * the SVD test's singular values are off by at most p u sigma_max,
        so it rejects no node whose exact ratio exceeds RANK_TOL + p u;
      * s, and the span of Q, are off by at most p u sqrt(K m), which
        moves sigma_min(C) by no more.  The bound is below both s and rho,
        so a node that clears has both above 1e-6 sqrt(2 K): a relative
        error under p u / 1e-6, about 1e-10 p;
      * rho^2 cancels: its error is about p u K, against rho^2 above
        2e-12 K, a relative 5.5e-5 p, and half that on rho and the bound.
    So a node that clears has an exact ratio of at least 1e-6 (1 - 1e-4 p),
    a thousand times RANK_TOL for any p short of thousands, and the SVD
    test passes it.  The cancellation in rho^2 sets the margin: at 1e2 its
    relative error would be 5.5e-3 p, at 10 about p.

    Every other node, and every node with a null exactly on the beam
    (where rho is 0), goes through the rank test of its own solve: one
    constraint stack and one stacked SVD per null count (per chunk of it,
    :func:`_chunks`), so every decision and message is the SVD's.  At the
    benchmark's beams the screen leaves about one of a K=8 tree's 120
    nodes (about 7 at the former margin of 1e6).
    """
    k = geom.k_antennas
    m = np.repeat(nodes.widths, nodes.sizes)
    ends = np.cumsum(m)
    qa = nodes.columns @ a.conj()
    c2 = np.add.reduceat(qa.real**2 + qa.imag**2, ends - m)
    rho = np.sqrt(np.maximum(np.vdot(a, a).real - c2, 0.0))
    s = nodes.s_min
    floor = RANK_SCREEN_MARGIN * RANK_TOL * np.sqrt(k * (m + 1))
    clears = rho * s >= floor * (s + math.sqrt(k) + rho)
    on_beam = np.flatnonzero(nodes.nulls == beam_angle_deg)
    clears[np.searchsorted(ends, on_beam, side="right")] = False
    suspects = np.flatnonzero(~clears)
    failing: dict[NodeId, str] = {}
    if not len(suspects):
        return failing
    firsts = np.cumsum((0,) + nodes.sizes)
    per_block = np.split(suspects, np.searchsorted(suspects, firsts[1:-1]))
    for block, first, rows in zip(nodes.blocks, firsts, per_block):
        for part in _chunks(len(rows), 16 * k * (block.nulls.shape[1] + 1)):
            picked = rows[part] - first
            nulls = block.nulls[picked]
            c = constraint_matrices(geom, beam_angle_deg, nulls)
            for i, message in _degenerate(c, nulls, beam_angle_deg).items():
                failing[block.ids[picked[i]]] = message
    return failing


def _check_constraints(
    geom: ArrayGeometry, beam_angle_deg: float, nodes: _Layout, a: np.ndarray
) -> None:
    """Raise what ``lcmv_weights`` would raise on some node, without solving.

    ``a`` is the beam's steering vector.  Of the nodes :func:`_failing`
    finds, the first in depth-first order raises, with the message its own
    solve would give; a scan grid's message names the node's scan angle.
    """
    failing = _failing(geom, beam_angle_deg, nodes, a)
    if failing:
        node_id = min(failing)
        message = failing[node_id]
        if nodes.scan_grid:
            message = f"scan angle {nodes[node_id].null_angles_deg[0]}: {message}"
        raise DegenerateConstraintsError(message)


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
    are kept; a key that raises is not kept and raises again.  A tree
    shape's layout on an array (its configs and their null bases) is
    built once and shared by every beam, so a new beam on a known shape
    and array builds no config and pays only for one stacked projection per
    null count, plus the rank test of the few nodes it cannot clear.
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


@lru_cache(maxsize=TREE_CACHE_SIZE)
def _tree_layout(
    geom: ArrayGeometry,
    fanout: int,
    depth: int,
    schedule: tuple[int, ...],
    sector_key: tuple[tuple, tuple],
) -> _Layout:
    """One tree shape's layout on one array, nodes depth first, shared by
    every beam.

    Its root sector is keyed by :func:`_exact`, as trees are, so a root
    edge of ``-0.0`` never shares a layout with one of ``0.0``.
    """
    configs: list[NullConfig] = []

    def grow(node_id: NodeId, a: float, b: float) -> None:
        level = len(node_id)
        if level > 0:
            nulls = _evenly_inset(a, b, schedule[level - 1])
            configs.append(NullConfig(node_id, nulls, (a, b)))
        if level < depth:
            w = (b - a) / fanout
            for i in range(fanout):
                grow(node_id + (i,), a + i * w, a + (i + 1) * w)

    grow((), sector_key[0][0], sector_key[1][0])
    return _Layout(configs, geom)


@lru_cache(maxsize=TREE_CACHE_SIZE)
def _shared_tree(
    geom: ArrayGeometry,
    beam_key: tuple,
    fanout: int,
    depth: int,
    schedule: tuple[int, ...],
    sector_key: tuple[tuple, tuple],
) -> SearchTree:
    """The checked tree of one :func:`build_tree` key: its beam on its
    shape's layout."""
    return SearchTree(
        geometry=geom,
        beam_angle_deg=beam_key[0],
        fanout=fanout,
        depth=depth,
        nulls_per_level=schedule,
        nodes=_tree_layout(geom, fanout, depth, schedule, sector_key),
        root_sector=(sector_key[0][0], sector_key[1][0]),
    )


# ---------------------------------------------------------------------------
# tree traversal

# a frontier's measurements: ``evaluate(cfgs, weights)`` measures every user
# of the search against the same transmissions and returns one list of
# linear INRs per user, each with one INR per config, in order; ``weights``
# stacks the configs' constraint-domain vectors, one per row.  Tree and
# linear search are the one-user case.
Evaluator = Callable[[Sequence[NullConfig], np.ndarray], list[list[float]]]


@dataclass
class SearchState:
    """Progress of one user's descent.

    ``frontier`` lists the nodes to test next and is empty once the user
    has descended past a leaf.  ``best`` tracks the lowest INR over
    everything tested so far, inner nodes included.
    """

    frontier: list[NodeId]
    tested: list[tuple[NullConfig, float]] = field(default_factory=list)
    best: tuple[NullConfig, float] | None = None


def record_results(state: SearchState, tree: SearchTree, reports: Sequence[float]) -> None:
    """Attach the frontier's measurements, one INR per node, to the state.

    The whole frontier is filed in one pass.  Its lowest INR, the first in
    frontier order on a tie, becomes the best only if it is strictly lower
    than the best so far, so an equal INR at a later level never replaces
    an earlier best.
    """
    cfgs = list(map(tree.nodes.config, state.frontier))
    state.tested.extend(zip(cfgs, reports))
    low = min(reports)
    if state.best is None or low < state.best[1]:
        state.best = (cfgs[reports.index(low)], low)


def advance(state: SearchState, tree: SearchTree, feedback: int) -> None:
    """Descend into the frontier child named by the feedback index.

    ``feedback`` is the position, within the just-tested frontier, of the
    node with the lowest measured INR.  Only the ranking crosses the
    cross-technology channel, never the raw values.  Past a leaf the
    frontier is empty.
    """
    state.frontier = tree.children(state.frontier[feedback])


def min_inr_index(reports: Sequence[float]) -> int:
    """Index of the lowest INR; ties break toward the lower index."""
    return reports.index(min(reports))


def descend(
    tree: SearchTree, users: int, evaluate: Evaluator
) -> tuple[list[SearchState], list[list[NodeId]]]:
    """The feedback loop every search mode runs: test, feed back, descend.

    Every user starts on the tree's first level.  Per level the union of
    the users' frontiers is solved and stacked once and measured once, for
    every user by one ``evaluate`` call, which must return one INR per
    union node for each user.  Each user then records its own frontier's
    reports (:func:`record_results`) and descends into its winner
    (:func:`advance`).  Every leaf of a tree sits on its last level, so the
    users finish together.  Returns the users' finished states and the
    union tested at each level.
    """
    if users < 1:
        raise ValueError("need at least one user")
    first = tree.level_ids(1)
    states = [SearchState(frontier=list(first)) for _ in range(users)]
    visited_per_level: list[list[NodeId]] = []
    while states[0].frontier:
        # one user's frontier is its own union
        frontiers = [st.frontier for st in states]
        union = sorted(set().union(*frontiers) if users > 1 else frontiers[0])
        visited_per_level.append(union)
        cfgs, weights = tree.stack(union)
        per_user = evaluate(cfgs, weights)
        if len(per_user) != users:
            raise ValueError(
                f"need one report list per user: got {len(per_user)} for {users} users"
            )
        for u, (st, reports) in enumerate(zip(states, per_user)):
            if len(reports) != len(union):
                raise ValueError(
                    f"user {u} got {len(reports)} reports "
                    f"for a frontier of {len(union)} nodes"
                )
            if st.frontier != union:
                measured = dict(zip(union, reports))
                reports = [measured[n] for n in st.frontier]
            # both steps are looked up in this module's globals on every
            # call, where the benchmark's tracer rebinds them
            record_results(st, tree, reports)
            advance(st, tree, min_inr_index(reports))
    return states, visited_per_level


# ---------------------------------------------------------------------------
# linear baseline

LINEAR_GRID_SIZE = 165
LINEAR_GRID_RANGE = (-82.0, 82.0)
# the scan grid of a scenario that declares none, built once
DEFAULT_LINEAR_GRID: tuple[float, ...] = tuple(
    np.linspace(*LINEAR_GRID_RANGE, LINEAR_GRID_SIZE).tolist()
)


def grid_tree(
    geom: ArrayGeometry, grid_angles: Sequence[float], beam_angle_deg: float
) -> SearchTree:
    """The linear scan's tree: depth 1, one node per grid angle, nulled there.

    It is checked like any tree, in one pass over the grid, and a failing
    node's message names its scan angle.  The grid's layout on the array
    is shared, keyed by the bits of the grid's floats (so a ``-0.0`` grid
    never shares with a ``0.0`` one); the tree itself is not, because a
    scan's beams would crowd the trees out of the shared cache.  A grid of
    more than :data:`MAX_TREE_NODES` angles raises the
    :class:`TreeShapeError` a tree of too many nodes does.
    """
    if not grid_angles:
        raise ValueError("linear search needs a nonempty grid")
    if len(grid_angles) > MAX_TREE_NODES:
        raise TreeShapeError(
            "tree_too_large",
            f"a scan grid of {len(grid_angles)} angles exceeds {MAX_TREE_NODES} tree nodes",
        )
    layout = _grid_layout(geom, np.asarray(grid_angles, dtype=float).tobytes())
    return SearchTree(
        geometry=geom,
        beam_angle_deg=beam_angle_deg,
        fanout=len(layout),
        depth=1,
        nulls_per_level=(1,),
        nodes=layout,
    )


@lru_cache(maxsize=TREE_CACHE_SIZE)
def _grid_layout(geom: ArrayGeometry, grid_bits: bytes) -> _Layout:
    """One scan grid's layout on one array, shared by every beam."""
    angles = np.frombuffer(grid_bits).tolist()
    configs = [NullConfig((i,), (a,), (a, a)) for i, a in enumerate(angles)]
    return _Layout(configs, geom, scan_grid=True)


def linear_search(tree: SearchTree, evaluate: Evaluator) -> SearchState:
    """Exhaustive single-null scan over a :func:`grid_tree`; the finished state.

    The baseline the tree is measured against: the whole grid is one
    frontier, checked when the tree is made, solved by one stacked call and
    summarized by one feedback.  Ties break toward the lower grid index.
    """
    (state,), _ = descend(tree, 1, evaluate)
    return state


# ---------------------------------------------------------------------------
# multi-user

@dataclass
class MultiUserPlan:
    """Outcome of a parallel search for several users on one tree."""

    states: list[SearchState]
    visited_per_level: list[list[NodeId]]
    joint_null_angles: tuple[float, ...]


def _join_nulls(bests: Sequence[tuple[NullConfig, float]], limit: int) -> tuple[float, ...]:
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


def multi_user_search(tree: SearchTree, users: int, evaluate: Evaluator) -> MultiUserPlan:
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
    states, visited_per_level = descend(tree, users, evaluate)
    joint = _join_nulls([st.best for st in states], limit=tree.geometry.k_antennas - 2)
    return MultiUserPlan(
        states=states,
        visited_per_level=visited_per_level,
        joint_null_angles=joint,
    )
