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
import threading
from dataclasses import dataclass, field
from functools import partial
from itertools import repeat
from operator import attrgetter
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from .beamforming import build_weight_matrix, lcmv_weights
from .channel import (
    InrReport,
    averaged_inr,
    channel_response,
    power_report,
    rx_power,
    sampled_inr,
)
from .nullsearch import (
    ROOT_SECTOR,
    Evaluator,
    MultiUserPlan,
    NullConfig,
    SearchState,
    SearchTree,
    _exact,
    descend,
    linear_search,
    multi_user_search,
)
from .phy_grid import N_SC

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


class TimelineEvent(NamedTuple):
    """One timeline entry: its time in integer microseconds, its kind
    (``phase``, ``test_slot``, ``ctc_send``, ``ctc_recv`` or ``apply``) and
    its label.  A plain named tuple, so a phase's test slots are laid out
    by one ``map`` over their times and labels."""

    t_us: int
    kind: str
    label: str


# a TimelineEvent from a (t_us, kind, label) tuple, made by tuple's own C
# constructor rather than the named tuple's Python-level __new__
_new_event = partial(tuple.__new__, TimelineEvent)


@dataclass
class SimTimeline:
    """Event log plus the closed-form accounting it must match."""

    events: list[TimelineEvent] = field(default_factory=list)
    total_delay_us: int = 0
    power_cycles: int = 0
    level_cycles: list[int] = field(default_factory=list)
    t_csat_us: int = 0
    delta_b_us: int = 0
    configs_tested: int = 0  # config test slots, not the antennas' sounding slots

    def emit(self, t_us: int, kind: str, label: str) -> None:
        self._check_from(t_us)
        self.events.append(TimelineEvent(int(t_us), kind, label))

    def _check_from(self, t_us: int) -> None:
        """Refuse an event at ``t_us`` before the last one."""
        if self.events and t_us < self.events[-1].t_us:
            raise ValueError("timeline events must not go backwards")

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
    the phase's cycle count.

    The offsets rise within a cycle, which they do not outlast, so the
    phase's slots rise and only its first is checked against the timeline.
    """
    cycles = math.ceil(len(labels) / len(offsets))
    times = [start_us + c * tl.t_csat_us + off for c in range(cycles) for off in offsets]
    if labels:
        tl._check_from(times[0])
    tl.events.extend(map(_new_event, zip(times, repeat("test_slot"), labels)))
    return cycles


_slot_label = attrgetter("slot_label")
_null_angles = attrgetter("null_angles_deg")


def _emit_search(
    levels: Sequence[Sequence[NullConfig]],
    dc: DutyCycleConfig,
    backhaul: BackhaulConfig,
    sim: SimConfig,
    sounded_antennas: int = 0,
) -> SimTimeline:
    """The timeline of a search that tested ``levels``, one feedback each,
    laid out with the same labels in every mode.

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
        labels = list(map(_slot_label, cfgs))
        tl.configs_tested += len(labels)
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
    (state,), visited = descend(tree, 1, evaluate)
    tl = _emit_search(
        [list(map(tree.nodes.config, nodes)) for nodes in visited],
        dc, backhaul, sim,
        sounded_antennas=tree.geometry.k_antennas if power_correction else 0,
    )
    return tl, state


def simulate_linear_search(
    tree: SearchTree,
    dc: DutyCycleConfig,
    backhaul: BackhaulConfig,
    sim: SimConfig,
    evaluate: Evaluator,
) -> tuple[SimTimeline, SearchState]:
    """Exhaustive-scan baseline on a :func:`~nullsim.nullsearch.grid_tree`:
    every grid angle tested, one feedback."""
    state = linear_search(tree, evaluate)
    tl = _emit_search([[cfg for cfg, _ in state.tested]], dc, backhaul, sim)
    return tl, state


def simulate_multi_user(
    tree: SearchTree,
    users: int,
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
    plan = multi_user_search(tree, users, evaluate)
    tl = _emit_search(
        [list(map(tree.nodes.config, nodes)) for nodes in plan.visited_per_level],
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
    trace: list[tuple[NullConfig, float]]

    @property
    def delta_inr_db(self) -> float:
        return self.baseline.aggregate_db - self.final.aggregate_db


@dataclass
class ProtocolResult:
    mode: str
    timeline: SimTimeline
    users: list[UserOutcome]
    joint_null_angles: tuple[float, ...]


# the last few channel calibrations, by their exact inputs, least recently
# used first; the lock guards their bookkeeping, not a calibration.  The cap
# is small on purpose: each entry holds its users' responses, and a stream
# of new channels misses at any cap
CALIBRATION_CACHE_SIZE = 4
_calibrations: dict[tuple, tuple[np.ndarray, np.ndarray, tuple[float, ...]]] = {}
_calibrations_lock = threading.Lock()


def _channel_key(scenario: "Scenario") -> tuple:
    """What a calibration reads of a scenario: its channel preset and
    baseline INR, then its seed, beam, transmit power, channel offset and
    noise power, array geometry and user angles, every number keyed by
    :func:`~nullsim.nullsearch._exact`, so by type and sign too."""
    ch, geom = scenario.channel, scenario.geometry
    return (
        ch.preset,
        None if ch.baseline_inr_db is None else _exact(ch.baseline_inr_db),
        *map(_exact, (
            scenario.seed,
            scenario.ue_angle_deg,
            scenario.tx_power,
            ch.angle_offset_deg,
            ch.noise_power,
            geom.k_antennas,
            geom.spacing_m,
            geom.carrier_freq_hz,
            *scenario.user_angles_deg,
        )),
    )


def _calibrated_channels(scenario: "Scenario", geom, w0_matrix):
    """Per-user channel responses, beam-only powers and noise powers, the
    noise set so the no-null INR hits the target.

    Returns the responses, stacked (users, antennas, subcarriers), each
    user's no-null received power averaged over the subcarriers, (users,),
    both read-only, and a tuple of one noise power per user: the
    scenario's without a target, otherwise each user's beam-only power
    over (target - 1).

    A run shares the calibration of any of the last
    :data:`CALIBRATION_CACHE_SIZE` distinct channel keys
    (:func:`_channel_key`), so runs that differ only in their search,
    duty cycle, backhaul or measurement build no channel; ``w0_matrix``,
    the beam's no-null matrix, follows from the key.  A calibration that
    raises is not kept and raises again.
    """
    key = _channel_key(scenario)
    with _calibrations_lock:
        calibration = _calibrations.pop(key, None)
    if calibration is None:
        calibration = _calibrate(scenario, geom, w0_matrix)
    with _calibrations_lock:
        _calibrations[key] = calibration
        if len(_calibrations) > CALIBRATION_CACHE_SIZE:
            del _calibrations[next(iter(_calibrations))]
    return calibration


def _calibrate(scenario: "Scenario", geom, w0_matrix):
    """:func:`_calibrated_channels`, computed."""
    models = scenario.build_channels()
    responses = np.empty((len(models), geom.k_antennas, N_SC), dtype=complex)
    for u, model in enumerate(models):
        responses[u] = channel_response(model, geom)
    beam_power = np.mean(rx_power(responses, w0_matrix, scenario.tx_power), axis=-1)
    responses.flags.writeable = False
    beam_power.flags.writeable = False
    if scenario.channel.baseline_inr_db is None:
        return responses, beam_power, (scenario.channel.noise_power,) * len(models)
    target = 10.0 ** (scenario.channel.baseline_inr_db / 10.0)
    bases = beam_power.tolist()
    if min(bases) <= 0:
        raise ValueError(
            "beam-only pattern has no power toward this user; "
            "cannot calibrate a baseline INR"
        )
    return responses, beam_power, tuple(base / (target - 1.0) for base in bases)


def run_full_protocol(scenario: "Scenario") -> ProtocolResult:
    """Decision through reconfiguration for one scenario.

    Everything is derived from the scenario seed: channel draws and
    measurement noise use independent deterministic streams, so a rerun
    reproduces results bit for bit.
    """
    geom = scenario.geometry
    search = scenario.search
    tree = scenario.search_tree()

    # the no-null beam's weight matrix, a stack of one; calibration's powers
    # on its row are the baseline's too
    w0_stack = build_weight_matrix(
        geom, scenario.ue_angle_deg, ((),), base=tree.beam_weights[None]
    )
    responses, beam_power, noise = _calibrated_channels(scenario, geom, w0_stack[0])
    sim = scenario.sim
    dc, backhaul = scenario.duty, scenario.backhaul
    # each user's measurement draws come from its own rng; without jitter
    # nothing is drawn, and no rng is made
    meas_rngs = None
    if sim.noise_jitter:
        meas_rngs = [
            np.random.default_rng([scenario.seed, 2000 + u]) for u in range(len(noise))
        ]

    def measure(
        cfgs: Sequence[NullConfig],
        weights: np.ndarray,
        report: np.ndarray | None = None,
    ) -> list[list[float]]:
        """Every user's INRs for a frontier, from one stacked weight-matrix
        build and one measurement of all users, each user's draws from its
        own rng."""
        wm = build_weight_matrix(
            geom,
            scenario.ue_angle_deg,
            tuple(map(_null_angles, cfgs)),
            report=report,
            base=weights,
        )
        return sampled_inr(
            responses,
            wm,
            noise,
            scenario.tx_power,
            sim.sample_count,
            sim.noise_jitter,
            meas_rngs,
        )

    # the baseline measures the no-null beam's powers, each user's draws
    # first from its rng
    baselines = [
        reps[0]
        for reps in averaged_inr(
            beam_power[:, None], noise, sim.sample_count, sim.noise_jitter, meas_rngs
        )
    ]

    if search.mode == "multiuser":
        timeline, plan = simulate_multi_user(tree, len(noise), dc, backhaul, sim, measure)
        states, joint = plan.states, plan.joint_null_angles
        # every user measures the joint nulls afresh, solved by the run's
        # only lcmv_weights call
        joint_cfg = NullConfig((), joint, ROOT_SECTOR)
        w_joint = lcmv_weights(geom, scenario.ue_angle_deg, joint)
        finals = [reps[0] for reps in measure([joint_cfg], w_joint[None])]
    else:
        if search.mode == "tree":
            # the measurement phase's power report, from the response
            # calibration already computed
            report = power_report(responses[0]) if search.power_correction else None
            timeline, state = simulate_tree_search(
                tree, dc, backhaul, sim,
                partial(measure, report=report),
                power_correction=search.power_correction,
            )
        else:
            timeline, state = simulate_linear_search(tree, dc, backhaul, sim, measure)
        cfg, inr = state.best
        states, joint, finals = [state], cfg.null_angles_deg, [inr]
    if any(f >= b for f, b in zip(finals, baselines)):
        # never deploy a config that measures worse than not nulling at all
        joint, finals = (), baselines
    # the only place a run wraps INRs in InrReport
    outcomes = [
        UserOutcome(u, InrReport(baselines[u]), InrReport(finals[u]), len(joint), st.tested)
        for u, st in enumerate(states)
    ]
    timeline.emit(
        timeline.total_delay_us,
        "apply",
        "apply nulls:" + ";".join(f"{a:.2f}" for a in joint),
    )
    return ProtocolResult(search.mode, timeline, outcomes, joint)
