"""A reference run of the protocol with none of the run's shortcuts.

It solves every config on its own with ``np.linalg.pinv``, builds each
subcarrier's precoder (power-corrected per block when the run corrects)
in a Python loop, draws each user's jitter config by config in the order
the protocol tests them, and builds its search tree from the tree
arithmetic each time, with no cache.  A run of the simulator must make
the same decisions and measure the same INRs to within rounding.

Every decision the reference makes (a level's winners, the deployed
config, the fallback) is recorded with its margin: how far, in dB, the
measurement that decided it lies from flipping it.  A config near rank
loss (sigma ratio under ``NEAR_RANK_LOSS``) has an INR that no float64
solve, this one included, pins to 1e-9 dB: a level that tests one, or a
joint config that is one, is recorded with no margin at all.

``degenerate_rows`` is the rank test of ``lcmv_weights`` on a stack of
null sets, every row through the SVD with nothing screened: the check the
per-row tests compare ``lcmv_weights``, a tree's screened check and the
stacked solves against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from nullsim.beamforming import (
    POWER_REPORT_FLOOR,
    RANK_TOL,
    constraint_matrices,
    steering_vector,
)
from nullsim.channel import MIN_MEASURABLE_POWER, channel_response
from nullsim.phy_grid import CENTER_FREQ_HZ, N_RB, N_SC, RB_BANDWIDTH_HZ, SC_BANDWIDTH_HZ


# A solve's INR error grows as eps / (sigma ratio): against a 40-digit
# solve of the same float64 constraints, pinv's reached 111 eps / ratio (and
# the projection's 49 eps / ratio) on 223 configs with ratios from 1e-9 to 1.
# Above this ratio that is under 2.5e-11 of the INR, a tenth of 1e-9 dB.
NEAR_RANK_LOSS = 1e-3


def db(x: float) -> float:
    return 10.0 * math.log10(max(x, MIN_MEASURABLE_POWER))


def _nearest(targets, centers):
    """Per target, the index of the nearest center; ties go to the lower one."""
    return [min(range(len(centers)), key=lambda i: (abs(t - centers[i]), i)) for t in targets]


def _centers(n: int, bw_hz: int) -> list[int]:
    return [CENTER_FREQ_HZ + (2 * i - (n - 1)) * bw_hz // 2 for i in range(n)]


def degenerate_rows(geom, beam: float, null_sets) -> dict[int, str]:
    """Which rows of an (n, m) stack of in-range null sets ``lcmv_weights``
    rejects, each with the message its own call raises: a null on the beam,
    or a constraint matrix whose SVD sigma ratio is under ``RANK_TOL``."""
    null_sets = np.asarray(null_sets, dtype=float).reshape(len(null_sets), -1)
    sv = np.linalg.svd(constraint_matrices(geom, beam, null_sets), compute_uv=False)
    failing = {}
    for i, row in enumerate(null_sets):
        on_beam = row == beam
        if on_beam.any():
            a = float(row[np.argmax(on_beam)])
            failing[i] = f"null at {a} deg coincides with the beam direction"
        elif sv[i, -1] < RANK_TOL * sv[i, 0]:
            ratio = sv[i, -1] / sv[i, 0]
            failing[i] = f"constraint directions are rank deficient (sigma ratio {ratio:.2e})"
    return failing


def pinv_weights(geom, beam: float, nulls) -> tuple[np.ndarray, float]:
    """The minimum-norm w with w^H a(beam) = 1 and w^H a(null) = 0, and the
    sigma ratio of the constraint matrix."""
    c = np.array([steering_vector(geom, a) for a in (beam, *nulls)]).T
    e1 = np.zeros(c.shape[1])
    e1[0] = 1.0
    sv = np.linalg.svd(c, compute_uv=False)
    return np.linalg.pinv(c.conj().T) @ e1, sv[-1] / sv[0]


def tree_nodes(s) -> dict[tuple[int, ...], tuple[float, ...]]:
    """Every node's nulls, depth first: the scan grid in linear mode."""
    if s.search.mode == "linear":
        return {(i,): (a,) for i, a in enumerate(s.scan_angles)}
    k, depth, fanout = s.geometry.k_antennas, s.search.depth, s.search.fanout
    schedule = s.search.nulls_per_level or tuple(
        [min(k - 2, 2 * (depth - 1 - lev)) for lev in range(depth - 1)] + [1]
    )
    nodes = {}

    def grow(node_id, a, b):
        if node_id:
            n = schedule[len(node_id) - 1]
            step = (b - a) / n
            nodes[node_id] = tuple(a + step * (i + 0.5) for i in range(n))
        if len(node_id) < depth:
            w = (b - a) / fanout
            for i in range(fanout):
                grow(node_id + (i,), a + i * w, a + (i + 1) * w)

    grow((), -90.0, 90.0)
    return nodes


@dataclass
class Reference:
    """What the reference run tested, decided and measured."""

    levels: list[list[tuple[int, ...]]] = field(default_factory=list)
    traces: list[list[tuple[tuple[int, ...], float]]] = field(default_factory=list)
    baselines: list[float] = field(default_factory=list)
    finals: list[float] = field(default_factory=list)
    joint: tuple[float, ...] = ()
    excluded: list[int] = field(default_factory=list)  # users past the DOF limit
    # (decision, margin in dB): "level 1", ..., "best", "fallback"; a
    # decision near rank loss says so and has no margin
    margins: list[tuple[str, float]] = field(default_factory=list)
    near_rank_loss: set[tuple[float, ...]] = field(default_factory=set)  # their nulls


def _margin(values: list[float], nulls: list[tuple[float, ...]], chosen: int) -> float:
    """How far the chosen (lowest) value lies below every other; a config
    with the chosen one's nulls is the same choice and does not count."""
    others = [v for v, n in zip(values, nulls) if n != nulls[chosen]]
    return min(db(v) - db(values[chosen]) for v in others) if others else math.inf


def reference_run(s) -> Reference:
    geom, k = s.geometry, s.geometry.k_antennas
    rb_freqs = _centers(N_RB, RB_BANDWIDTH_HZ)
    sc_freqs = _centers(N_SC, SC_BANDWIDTH_HZ)
    sc_to_rb, rb_to_sc = _nearest(sc_freqs, rb_freqs), _nearest(rb_freqs, sc_freqs)
    models = s.build_channels()
    h = [channel_response(m, geom) for m in models]
    corrected = s.search.mode == "tree" and s.search.power_correction
    report = np.maximum(np.abs(h[0]) ** 2, POWER_REPORT_FLOOR) if corrected else None

    def mean_power(w, hu, report=None):
        total = 0.0
        for sc in range(N_SC):
            wb = w
            if report is not None:
                p = report[:, rb_to_sc[sc_to_rb[sc]]]
                wb = w * np.sqrt(p[0] / p)
            wb = wb / np.linalg.norm(wb)
            total += s.tx_power * abs(np.vdot(wb, hu[:, sc])) ** 2
        return total / N_SC

    w0, _ = pinv_weights(geom, s.ue_angle_deg, ())
    noise = [s.channel.noise_power] * len(models)
    if s.channel.baseline_inr_db is not None:
        target = 10.0 ** (s.channel.baseline_inr_db / 10.0)
        noise = [mean_power(w0, hu) / (target - 1.0) for hu in h]
    rngs = [np.random.default_rng([s.seed, 2000 + u]) for u in range(len(models))]

    near_rank_loss = set()

    def measure(nulls, report=None) -> list[float]:
        """Every user's INR of one config, each user's draws in turn."""
        w, ratio = pinv_weights(geom, s.ue_angle_deg, nulls)
        if ratio < NEAR_RANK_LOSS:
            near_rank_loss.add(tuple(nulls))
        inrs = []
        for hu, n, rng in zip(h, noise, rngs):
            p_on = mean_power(w, hu, report) + n
            if s.sim.noise_jitter == 0.0:
                inrs.append(p_on / n)
                continue
            draws = p_on + s.sim.noise_jitter * n * rng.standard_normal(s.sim.sample_count)
            inrs.append(float(np.mean(np.maximum(draws, MIN_MEASURABLE_POWER) / n)))
        return inrs

    ref = Reference(baselines=measure(()), near_rank_loss=near_rank_loss)
    nodes = tree_nodes(s)
    users = len(models)
    frontiers = [[n for n in nodes if len(n) == 1] for _ in range(users)]
    ref.traces = [[] for _ in range(users)]
    while frontiers[0]:
        union = sorted({n for f in frontiers for n in f})
        ref.levels.append(union)
        measured = {n: measure(nodes[n], report) for n in union}
        margin = math.inf
        for u, frontier in enumerate(frontiers):
            values = [measured[n][u] for n in frontier]
            ref.traces[u] += [(n, measured[n][u]) for n in frontier]
            win = values.index(min(values))
            margin = min(margin, _margin(values, [nodes[n] for n in frontier], win))
            frontiers[u] = [n for n in nodes if n[:-1] == frontier[win]]
        name = f"level {len(ref.levels)}"
        if any(nodes[n] in near_rank_loss for n in union):
            name, margin = name + " near rank loss", 0.0
        ref.margins.append((name, margin))
    bests = []
    for trace in ref.traces:
        values = [v for _, v in trace]
        best = values.index(min(values))
        bests.append(trace[best])
        ref.margins.append(("best", _margin(values, [nodes[n] for n, _ in trace], best)))
    if s.search.mode == "multiuser":
        joint: list[float] = []
        for u, (n, _) in enumerate(bests):
            fresh = [a for a in nodes[n] if a not in joint]
            if len(joint) + len(fresh) > k - 2:
                ref.excluded = list(range(u, users))
                return ref
            joint += fresh
        ref.joint, ref.finals = tuple(joint), measure(joint)
        if ref.joint in near_rank_loss:
            ref.margins.append(("joint near rank loss", 0.0))
    else:
        ref.joint, ref.finals = nodes[bests[0][0]], [bests[0][1]]
    # the fallback fires if any user's gap is not positive; the smallest
    # gap decides it either way
    gap = min(db(b) - db(f) for f, b in zip(ref.finals, ref.baselines))
    ref.margins.append(("fallback", abs(gap)))
    if any(f >= b for f, b in zip(ref.finals, ref.baselines)):
        # a config that measures no better than no nulling is never deployed
        ref.joint, ref.finals = (), list(ref.baselines)
    return ref
