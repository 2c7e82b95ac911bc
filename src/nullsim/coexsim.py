"""Duty-cycled medium access and the reconfiguration-delay model.

The base station transmits for T_on = duty * T_csat out of every CSAT
period and must puncture 2 ms out of every full 20 ms of on-time (the
gap sits at the end of each 20 ms window, and a test slot never spans a
gap).  Candidate configurations are tested in tau_s slots inside the
on-phase; WiFi-side measurements return over a wired backhaul that costs
delta_b per feedback message.

Every timeline built here satisfies, exactly and in integer microseconds,

    total = power_cycles * T_csat + sum_levels(cycles_l * T_csat + delta_b)

where cycles_l = ceil(configs tested at level l / configs per cycle).
Phases start immediately when their feedback arrives; cycle counting is
relative to the phase start, not to a global CSAT alignment.  The
per-antenna power measurement report rides along with the first search
feedback, so it contributes cycles but no extra delta_b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .beamforming import ArrayGeometry, build_weight_matrix, lcmv_weights
from .channel import (
    InrReport,
    channel_response,
    rx_power,
    sampled_inr,
    with_noise_power,
)
from .nullsearch import (
    Evaluator,
    MultiUserPlan,
    NullConfig,
    SearchState,
    SearchTree,
    descend,
    linear_search,
    multi_user_search,
    start_search,
)
from .phy_grid import build_rb_sc_map, build_sc_rb_map

if TYPE_CHECKING:
    from .scenario import Scenario

US_PER_MS = 1000
PUNCTURE_WINDOW_US = 20 * US_PER_MS
ALLOWED_T_CSAT_MS = (40.0, 80.0, 160.0)


@dataclass(frozen=True)
class DutyCycleConfig:
    """CSAT period, on-fraction and the regulatory puncturing overhead."""

    t_csat_ms: float = 40.0
    duty: float = 0.2
    puncture_ms_per_20ms: float = 2.0

    def __post_init__(self) -> None:
        if self.t_csat_ms not in ALLOWED_T_CSAT_MS:
            raise ValueError(f"t_csat_ms must be one of {ALLOWED_T_CSAT_MS}")
        if not 0.0 < self.duty <= 1.0:
            raise ValueError("duty must be in (0, 1]")
        if not 2.0 <= self.puncture_ms_per_20ms < 20.0:
            raise ValueError("puncturing must be at least 2 ms per 20 ms window")

    @property
    def t_csat_us(self) -> int:
        return round(self.t_csat_ms * US_PER_MS)

    @property
    def t_on_us(self) -> int:
        return round(self.duty * self.t_csat_ms * US_PER_MS)

    @property
    def puncture_us(self) -> int:
        return round(self.puncture_ms_per_20ms * US_PER_MS)


@dataclass(frozen=True)
class BackhaulConfig:
    """Wired feedback path between the WiFi side and the base station."""

    delay_ms: float = 5.0

    def __post_init__(self) -> None:
        if self.delay_ms < 0:
            raise ValueError("backhaul delay cannot be negative")

    @property
    def delay_us(self) -> int:
        return round(self.delay_ms * US_PER_MS)


@dataclass(frozen=True)
class SimConfig:
    """Measurement-slot geometry and sampling parameters."""

    test_slot_ms: float = 2.0
    sample_rate_hz: float = 50_000.0
    sample_count: int = 100
    noise_jitter: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.test_slot_ms <= 0:
            raise ValueError("test slot must be positive")
        if not 5_000.0 <= self.sample_rate_hz <= 50_000.0:
            raise ValueError("sampling rate must be within 5..50 kHz")
        if self.sample_count < 1:
            raise ValueError("need at least one sample per slot")
        if self.sample_count / self.sample_rate_hz > self.test_slot_ms / 1000 + 1e-12:
            raise ValueError("sample_count does not fit the test slot at this rate")
        if self.noise_jitter < 0:
            raise ValueError("noise jitter cannot be negative")

    @property
    def slot_us(self) -> int:
        return round(self.test_slot_ms * US_PER_MS)


def slot_offsets_in_cycle(dc: DutyCycleConfig, sim: SimConfig) -> list[int]:
    """Start offsets (us, from cycle start) of every usable test slot.

    Slots pack each 20 ms window's usable stretch back to back; the
    puncture gap closes the window and no slot spans it.
    """
    offsets: list[int] = []
    w = 0
    while w * PUNCTURE_WINDOW_US < dc.t_on_us:
        stretch = min(
            dc.t_on_us - w * PUNCTURE_WINDOW_US,
            PUNCTURE_WINDOW_US - dc.puncture_us,
        )
        for j in range(stretch // sim.slot_us):
            offsets.append(w * PUNCTURE_WINDOW_US + j * sim.slot_us)
        w += 1
    return offsets


def configs_per_cycle(dc: DutyCycleConfig, sim: SimConfig) -> int:
    """How many configs one CSAT cycle can test."""
    return len(_cycle_slots(dc, sim))


def _cycle_slots(dc: DutyCycleConfig, sim: SimConfig) -> list[int]:
    """:func:`slot_offsets_in_cycle`, refusing a cycle with no test slot."""
    offsets = slot_offsets_in_cycle(dc, sim)
    if not offsets:
        raise ValueError("test slot does not fit the usable on-phase")
    return offsets


@dataclass(frozen=True)
class TimelineEvent:
    t_us: int
    kind: str
    label: str


@dataclass
class SimTimeline:
    """Event log plus the closed-form accounting it must match."""

    events: list[TimelineEvent] = field(default_factory=list)
    total_delay_us: int = 0
    power_cycles: int = 0
    level_cycles: list[int] = field(default_factory=list)
    t_csat_us: int = 0
    delta_b_us: int = 0

    def emit(self, t_us: int, kind: str, label: str) -> None:
        if self.events and t_us < self.events[-1].t_us:
            raise ValueError("timeline events must not go backwards")
        self.events.append(TimelineEvent(int(t_us), kind, label))

    @property
    def total_delay_ms(self) -> float:
        return self.total_delay_us / US_PER_MS

    def count(self, kind: str) -> int:
        return sum(1 for e in self.events if e.kind == kind)

    def identity_total_us(self) -> int:
        """The closed form every timeline must satisfy exactly."""
        search = sum(c * self.t_csat_us + self.delta_b_us for c in self.level_cycles)
        return self.power_cycles * self.t_csat_us + search


def _emit_test_cycles(
    tl: SimTimeline, start_us: int, labels: Sequence[str], offsets: Sequence[int]
) -> int:
    """Lay test slots into consecutive cycles of slots at ``offsets``; returns
    the phase's cycle count."""
    for i, label in enumerate(labels):
        cycle, slot = divmod(i, len(offsets))
        tl.emit(start_us + cycle * tl.t_csat_us + offsets[slot], "test_slot", label)
    return math.ceil(len(labels) / len(offsets))


def _emit_search(
    levels: Sequence[Sequence[NullConfig]],
    dc: DutyCycleConfig,
    backhaul: BackhaulConfig,
    sim: SimConfig,
    sounded_antennas: int = 0,
) -> SimTimeline:
    """The timeline of a search that tested ``levels``, one feedback each.

    With ``sounded_antennas`` the power-measurement phase comes first: each
    antenna transmits alone for one slot, and the WiFi node's power report
    rides with the level-1 feedback, so the phase costs cycles but no
    feedback of its own.  The caller emits the ``apply`` event once it has
    decided what to deploy.
    """
    tl = SimTimeline(t_csat_us=dc.t_csat_us, delta_b_us=backhaul.delay_us)
    t = 0
    tl.emit(t, "phase", "protocol_start")
    offsets = _cycle_slots(dc, sim)
    if sounded_antennas:
        tl.emit(t, "phase", "power_measurement")
        labels = [f"antenna:{k}" for k in range(sounded_antennas)]
        tl.power_cycles = _emit_test_cycles(tl, t, labels, offsets)
        t += tl.power_cycles * dc.t_csat_us
    for level, cfgs in enumerate(levels, start=1):
        tl.emit(t, "phase", f"tree_level_{level}")
        labels = [f"config:{cfg.label}" for cfg in cfgs]
        tl.level_cycles.append(_emit_test_cycles(tl, t, labels, offsets))
        end = t + tl.level_cycles[-1] * dc.t_csat_us
        note = f"level {level} feedback"
        if sounded_antennas and level == 1:
            note += " + power report"
        tl.emit(end, "ctc_send", note)
        t = end + backhaul.delay_us
        tl.emit(t, "ctc_recv", note)
    tl.total_delay_us = t
    return tl


def simulate_tree_search(
    tree: SearchTree,
    dc: DutyCycleConfig,
    backhaul: BackhaulConfig,
    sim: SimConfig,
    evaluate: Evaluator,
    power_correction: bool = True,
) -> tuple[SimTimeline, SearchState]:
    """Single-user descent with full timing.

    The power-measurement phase is present exactly when power correction
    is on (the report exists for no other reason); its feedback rides with
    the level-1 feedback.  The evaluator measures the one user and is
    expected to match: corrected weights when ``power_correction`` is set,
    plain ones otherwise.
    """
    (state,), visited = descend([start_search(tree)], tree, evaluate)
    tl = _emit_search(
        [[tree.nodes[n] for n in nodes] for nodes in visited],
        dc, backhaul, sim,
        sounded_antennas=tree.geometry.k_antennas if power_correction else 0,
    )
    return tl, state


def simulate_linear_search(
    grid_angles: Sequence[float],
    geom: ArrayGeometry,
    dc: DutyCycleConfig,
    backhaul: BackhaulConfig,
    sim: SimConfig,
    evaluate: Evaluator,
    beam_angle_deg: float,
) -> tuple[SimTimeline, SearchState]:
    """Exhaustive-scan baseline: every grid angle tested, one feedback."""
    state = linear_search(geom, grid_angles, beam_angle_deg, evaluate)
    tl = _emit_search([[cfg for cfg, _ in state.tested]], dc, backhaul, sim)
    return tl, state


def simulate_multi_user(
    states: list[SearchState],
    tree: SearchTree,
    dc: DutyCycleConfig,
    backhaul: BackhaulConfig,
    sim: SimConfig,
    evaluate: Evaluator,
) -> tuple[SimTimeline, MultiUserPlan]:
    """Parallel multi-user descent with shared test slots.

    All users measure the same transmissions, so a level costs the union
    of the users' frontiers, not their sum, one measurement of every user
    and one aggregated feedback.  No power correction exists in this mode.
    """
    plan = multi_user_search(states, tree, evaluate)
    tl = _emit_search(
        [[tree.nodes[n] for n in nodes] for nodes in plan.visited_per_level],
        dc, backhaul, sim,
    )
    return tl, plan


# ---------------------------------------------------------------------------
# full protocol


@dataclass
class UserOutcome:
    user: int
    baseline: InrReport
    final: InrReport
    nulls_used: int
    trace: list[tuple[NullConfig, InrReport]]

    @property
    def delta_inr_db(self) -> float:
        return self.baseline.aggregate_db - self.final.aggregate_db


@dataclass
class ProtocolResult:
    mode: str
    timeline: SimTimeline
    users: list[UserOutcome]
    joint_null_angles: tuple[float, ...]


def _calibrated_channels(scenario: "Scenario", geom, wifi, w0_matrix, sc_rb):
    """Per-user channels with noise set so the no-null INR hits the target.

    Returns the models and their responses, stacked (users, antennas,
    subcarriers); noise does not enter the response, so calibration reuses
    the one it measured with.
    """
    models = scenario.build_channels()
    responses = np.empty((len(models), geom.k_antennas, wifi.n_sc), dtype=complex)
    for u, model in enumerate(models):
        responses[u] = channel_response(model, geom, wifi)
    if scenario.channel.baseline_inr_db is None:
        return models, responses
    target = 10.0 ** (scenario.channel.baseline_inr_db / 10.0)
    p_sc = rx_power(responses, w0_matrix, sc_rb, scenario.tx_power)
    bases = np.mean(p_sc, axis=-1).tolist()
    if min(bases) <= 0:
        raise ValueError(
            "beam-only pattern has no power toward this user; "
            "cannot calibrate a baseline INR"
        )
    models = [
        with_noise_power(model, base / (target - 1.0))
        for model, base in zip(models, bases)
    ]
    return models, responses


def run_full_protocol(scenario: "Scenario") -> ProtocolResult:
    """Decision through reconfiguration for one scenario.

    Everything is derived from the scenario seed: channel draws and
    measurement noise use independent deterministic streams, so a rerun
    reproduces results bit for bit.
    """
    geom = scenario.geometry
    lte, wifi = scenario.lte_grid, scenario.wifi_grid
    rb_map = build_rb_sc_map(lte, wifi)
    sc_rb = build_sc_rb_map(lte, wifi)
    search = scenario.search

    w0 = lcmv_weights(geom, scenario.ue_angle_deg, [])
    w0_matrix = build_weight_matrix(
        geom, scenario.ue_angle_deg, [], lte.n_rrb, base=w0
    )
    models, responses = _calibrated_channels(scenario, geom, wifi, w0_matrix, sc_rb)
    meas_rngs = [
        np.random.default_rng([scenario.seed, 2000 + u]) for u in range(len(models))
    ]
    sim = scenario.sim
    dc, backhaul = scenario.duty, scenario.backhaul

    def measure(
        cfgs: Sequence[NullConfig],
        weights: np.ndarray,
        report: np.ndarray | None = None,
    ) -> list[list[InrReport]]:
        """Every user's reports for a frontier: one stacked weight-matrix
        build and one measurement of all users, each user's draws from its
        own rng."""
        wm = build_weight_matrix(
            geom,
            scenario.ue_angle_deg,
            tuple(cfg.null_angles_deg for cfg in cfgs),
            lte.n_rrb,
            report=report,
            rb_sc_map=rb_map if report is not None else None,
            base=weights,
        )
        return sampled_inr(
            responses,
            wm,
            sc_rb,
            models,
            scenario.tx_power,
            sim.sample_count,
            sim.noise_jitter,
            meas_rngs,
        )

    base_cfg = NullConfig((), scenario.ue_angle_deg, (), scenario.tree_root_sector)
    baselines = [reps[0] for reps in measure([base_cfg], w0[None])]

    if search.mode == "multiuser":
        tree = scenario.search_tree()
        timeline, plan = simulate_multi_user(
            [start_search(tree) for _ in models], tree, dc, backhaul, sim, measure
        )
        states, joint = plan.states, plan.joint_null_angles
        # every user measures the joint nulls afresh
        joint_cfg = NullConfig(
            (), scenario.ue_angle_deg, joint, scenario.tree_root_sector
        )
        w_joint = lcmv_weights(geom, scenario.ue_angle_deg, joint)
        finals = [reps[0] for reps in measure([joint_cfg], w_joint[None])]
    else:
        if search.mode == "tree":
            # the measurement phase's power report, |h|**2 of the response
            # calibration already computed
            report = np.abs(responses[0]) ** 2 if search.power_correction else None
            timeline, state = simulate_tree_search(
                scenario.search_tree(), dc, backhaul, sim,
                partial(measure, report=report),
                power_correction=search.power_correction,
            )
        else:
            timeline, state = simulate_linear_search(
                scenario.scan_angles, geom, dc, backhaul, sim,
                measure, scenario.ue_angle_deg,
            )
        cfg, rep = state.best
        states, joint, finals = [state], cfg.null_angles_deg, [rep]
    if any(f.aggregate >= b.aggregate for f, b in zip(finals, baselines)):
        # never deploy a config that measures worse than not nulling at all
        joint, finals = (), baselines
    outcomes = [
        UserOutcome(u, baselines[u], finals[u], len(joint), st.tested)
        for u, st in enumerate(states)
    ]
    timeline.emit(
        timeline.total_delay_us,
        "apply",
        "apply nulls:" + ";".join(f"{a:.2f}" for a in joint),
    )
    return ProtocolResult(search.mode, timeline, outcomes, joint)
