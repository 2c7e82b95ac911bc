"""Duty-cycle timing, reconfiguration delay, and the full protocol driver."""

import traceback
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import nullsim
from nullsim.beamforming import (
    ArrayGeometry,
    DegenerateConstraintsError,
    normalize,
    steering_vector,
)
from nullsim.channel import InrReport
from nullsim.coexsim import (
    PUNCTURE_WINDOW_US,
    BackhaulConfig,
    DutyCycleConfig,
    SimConfig,
    SimTimeline,
    configs_per_cycle,
    run_full_protocol,
    simulate_linear_search,
    simulate_multi_user,
    simulate_tree_search,
    slot_offsets_in_cycle,
)
from nullsim.nullsearch import (
    DEFAULT_LINEAR_GRID,
    DofExhaustedError,
    build_tree,
    start_search,
)
from nullsim.scenario import CHANNEL_PRESETS, Scenario, ScenarioError, scenario_from_dict

SIM = SimConfig()


@pytest.fixture(scope="module")
def tree8():
    return build_tree(ArrayGeometry(k_antennas=8), beam_angle_deg=21.4)


@pytest.fixture(scope="module")
def tree4():
    return build_tree(ArrayGeometry(k_antennas=4), beam_angle_deg=21.4)


def report(value: float) -> InrReport:
    return InrReport(aggregate=value)


def scripted_evaluator(tree, seed: int):
    rng = np.random.default_rng(seed)
    scores = {n: float(rng.uniform(0.1, 100.0)) for n in sorted(tree.nodes)}
    return lambda cfgs, w: [[report(scores[cfg.node_id]) for cfg in cfgs]]


def flat_ray_evaluator(geom, victim_deg, noise=1e-9):
    sv = steering_vector(geom, victim_deg)

    def evaluate(cfgs, weights):
        return [
            [report((abs(np.vdot(normalize(w), sv)) ** 2 + noise) / noise) for w in weights]
        ]

    return evaluate


# ---------------------------------------------------------------------------
# config validation


def test_duty_cycle_validation():
    DutyCycleConfig(duty=1.0)
    with pytest.raises(ValueError):
        DutyCycleConfig(t_csat_ms=50.0)
    with pytest.raises(ValueError):
        DutyCycleConfig(duty=0.0)
    with pytest.raises(ValueError):
        DutyCycleConfig(duty=1.01)
    with pytest.raises(ValueError):
        DutyCycleConfig(puncture_ms_per_20ms=1.0)
    with pytest.raises(ValueError):
        DutyCycleConfig(puncture_ms_per_20ms=20.0)


def test_backhaul_and_sim_validation():
    assert BackhaulConfig(delay_ms=0.0).delay_us == 0
    with pytest.raises(ValueError):
        BackhaulConfig(delay_ms=-1.0)
    with pytest.raises(ValueError):
        SimConfig(test_slot_ms=0.0)
    with pytest.raises(ValueError):
        SimConfig(sample_rate_hz=4_000.0)
    with pytest.raises(ValueError):
        SimConfig(sample_rate_hz=60_000.0)
    with pytest.raises(ValueError):
        SimConfig(sample_count=0)
    with pytest.raises(ValueError):
        SimConfig(sample_count=101)  # 101 samples at 50 kHz overrun a 2 ms slot
    with pytest.raises(ValueError):
        SimConfig(noise_jitter=-0.1)


# ---------------------------------------------------------------------------
# slot packing


def test_full_duty_packs_nine_slots_per_window():
    dc = DutyCycleConfig(duty=1.0)
    offsets = slot_offsets_in_cycle(dc, SIM)
    assert len(offsets) == 18
    assert offsets[:9] == [j * 2000 for j in range(9)]
    assert offsets[9] == PUNCTURE_WINDOW_US


def test_no_slot_spans_the_puncture_gap():
    for duty in (0.05, 0.2, 0.5, 0.77, 1.0):
        for t_csat in (40.0, 80.0, 160.0):
            dc = DutyCycleConfig(t_csat_ms=t_csat, duty=duty)
            for off in slot_offsets_in_cycle(dc, SIM):
                assert off % PUNCTURE_WINDOW_US + SIM.slot_us <= (
                    PUNCTURE_WINDOW_US - dc.puncture_us
                )
                assert off + SIM.slot_us <= dc.t_on_us


def test_configs_per_cycle():
    assert configs_per_cycle(DutyCycleConfig(duty=0.05), SIM) == 1
    assert configs_per_cycle(DutyCycleConfig(duty=0.2), SIM) == 4
    assert configs_per_cycle(DutyCycleConfig(duty=1.0), SIM) == 18


def test_slot_must_fit_the_usable_on_phase():
    wide_slot = SimConfig(test_slot_ms=4.0, sample_count=100)
    with pytest.raises(ValueError):
        configs_per_cycle(DutyCycleConfig(duty=0.05), wide_slot)


# ---------------------------------------------------------------------------
# phase timelines


def sounding_phase(tl):
    """The events from the power-measurement phase up to level 1, and the
    level-1 phase event."""
    kinds = [(e.kind, e.label) for e in tl.events]
    start = kinds.index(("phase", "power_measurement"))
    level_1 = kinds.index(("phase", "tree_level_1"))
    return tl.events[start + 1 : level_1], tl.events[level_1]


def corrected_protocol(dc, k_antennas=4):
    """The timeline of a power-corrected K-antenna tree run."""
    scn = Scenario(geometry=ArrayGeometry(k_antennas=k_antennas), duty=dc)
    assert scn.search.mode == "tree" and scn.search.power_correction
    return run_full_protocol(scn).timeline


def test_power_measurement_fits_one_generous_cycle():
    dc = DutyCycleConfig(duty=0.2)
    tl = corrected_protocol(dc)
    assert tl.power_cycles == 1
    slots, level_1 = sounding_phase(tl)
    assert [e.label for e in slots] == [f"antenna:{k}" for k in range(4)]
    assert level_1.t_us == dc.t_csat_us


def test_power_measurement_at_low_duty_needs_a_cycle_per_antenna():
    dc = DutyCycleConfig(duty=0.05)
    tl = corrected_protocol(dc)
    assert tl.power_cycles == 4
    slots, level_1 = sounding_phase(tl)
    assert [e.label for e in slots] == [f"antenna:{k}" for k in range(4)]
    assert [e.t_us for e in slots] == [k * dc.t_csat_us for k in range(4)]
    assert level_1.t_us == 4 * dc.t_csat_us


def test_power_measurement_piggyback_defers_the_feedback():
    for duty in (0.2, 0.05):
        tl = corrected_protocol(DutyCycleConfig(duty=duty))
        slots, _ = sounding_phase(tl)
        assert {e.kind for e in slots} == {"test_slot"}
        sends = [e.label for e in tl.events if e.kind == "ctc_send"]
        assert sends[0] == "level 1 feedback + power report"
        assert len(sends) == len(tl.level_cycles)


def test_power_measurement_antenna_count():
    for k in (3, 4, 8):
        slots, _ = sounding_phase(corrected_protocol(DutyCycleConfig(), k_antennas=k))
        assert [e.label for e in slots] == [f"antenna:{j}" for j in range(k)]


def test_tree_timeline_with_correction(tree8):
    dc, bh = DutyCycleConfig(duty=0.2), BackhaulConfig(delay_ms=5.0)
    tl, state = simulate_tree_search(tree8, dc, bh, SIM, scripted_evaluator(tree8, 1))
    assert state.done
    assert tl.identity_total_us() == tl.total_delay_us
    assert tl.total_delay_ms == 260.0  # 2 sounding cycles + 4 levels
    slots = [e.label for e in tl.events if e.kind == "test_slot"]
    assert sum(1 for s in slots if s.startswith("antenna:")) == 8
    assert sum(1 for s in slots if s.startswith("config:")) == 12
    sends = [e.label for e in tl.events if e.kind == "ctc_send"]
    assert sends[0].endswith("+ power report")
    assert len(sends) == 4


def test_tree_timeline_without_correction(tree8):
    dc, bh = DutyCycleConfig(duty=0.2), BackhaulConfig(delay_ms=5.0)
    tl, _ = simulate_tree_search(
        tree8, dc, bh, SIM, scripted_evaluator(tree8, 1), power_correction=False
    )
    assert tl.power_cycles == 0
    assert tl.count("test_slot") == 12
    assert tl.identity_total_us() == tl.total_delay_us
    assert tl.total_delay_us == 4 * (dc.t_csat_us + bh.delay_us)
    assert not any("power report" in e.label for e in tl.events)


def delay_of(tree, duty, delay_ms, depth_tree=None):
    t = depth_tree or tree
    tl, _ = simulate_tree_search(
        t,
        DutyCycleConfig(duty=duty),
        BackhaulConfig(delay_ms=delay_ms),
        SIM,
        scripted_evaluator(t, 2),
        power_correction=False,
    )
    return tl.total_delay_us


def test_delay_monotone_in_duty_backhaul_and_depth(tree4):
    assert delay_of(tree4, 0.05, 5.0) >= delay_of(tree4, 0.2, 5.0)
    assert delay_of(tree4, 0.2, 5.0) >= delay_of(tree4, 1.0, 5.0)
    assert delay_of(tree4, 0.2, 105.0) >= delay_of(tree4, 0.2, 5.0)
    shallow = build_tree(tree4.geometry, 21.4, depth=3)
    assert delay_of(tree4, 0.2, 5.0) >= delay_of(shallow, 0.2, 5.0, depth_tree=shallow)


def test_linear_timeline_has_one_feedback(tree8):
    dc, bh = DutyCycleConfig(duty=0.05), BackhaulConfig(delay_ms=5.0)
    geom = tree8.geometry
    tl, state = simulate_linear_search(
        DEFAULT_LINEAR_GRID, geom, dc, bh, SIM,
        flat_ray_evaluator(geom, -20.0), beam_angle_deg=21.4,
    )
    assert tl.count("test_slot") == 165
    assert tl.count("ctc_send") == 1
    assert tl.identity_total_us() == tl.total_delay_us
    assert tl.total_delay_us == 165 * dc.t_csat_us + bh.delay_us
    assert state.best[0].null_angles_deg == (-20.0,)


@lru_cache(maxsize=None)
def tree_of(fanout: int, depth: int):
    """K=8 trees, built once per shape."""
    return build_tree(ArrayGeometry(k_antennas=8), 21.4, fanout=fanout, depth=depth)


@settings(max_examples=60, deadline=None)
@given(
    t_csat=st.sampled_from([40.0, 80.0, 160.0]),
    duty=st.floats(0.05, 1.0),
    slot_ms=st.sampled_from([1.0, 2.0, 3.0, 5.0]),
    fanout=st.integers(2, 4),
    depth=st.integers(1, 4),
    seed=st.integers(0, 2**16),
    distinct_scores=st.sampled_from([2, 10**6]),
)
def test_one_user_parallel_timing_equals_the_plain_descent(
    t_csat, duty, slot_ms, fanout, depth, seed, distinct_scores
):
    dc, bh = DutyCycleConfig(t_csat_ms=t_csat, duty=duty), BackhaulConfig(delay_ms=5.0)
    sim = SimConfig(test_slot_ms=slot_ms, sample_count=50)
    assume(slot_offsets_in_cycle(dc, sim))
    tree = tree_of(fanout, depth)
    rng = np.random.default_rng(seed)
    # few distinct scores make ties, which both searches break toward the lower index
    scores = {n: float(rng.integers(distinct_scores)) + 0.5 for n in sorted(tree.nodes)}

    def evaluate(cfgs, w):
        return [[report(scores[cfg.node_id]) for cfg in cfgs]]

    tl_tree, state = simulate_tree_search(
        tree, dc, bh, sim, evaluate, power_correction=False
    )
    tl_mu, plan = simulate_multi_user(
        [start_search(tree)], tree, dc, bh, sim, evaluate
    )
    assert [(e.t_us, e.kind) for e in tl_mu.events] == [
        (e.t_us, e.kind) for e in tl_tree.events
    ]
    assert tl_mu.level_cycles == tl_tree.level_cycles
    assert tl_mu.total_delay_us == tl_tree.total_delay_us == tl_tree.identity_total_us()
    (mu_state,) = plan.states
    assert [c.node_id for c, _ in mu_state.tested] == [c.node_id for c, _ in state.tested]
    bits = [np.float64(r.aggregate).tobytes() for _, r in state.tested]
    assert [np.float64(r.aggregate).tobytes() for _, r in mu_state.tested] == bits


def test_timeline_labels_are_the_same_in_every_mode():
    """One emitter: start, optional sounding, per level a phase, slots and
    one feedback, then the applied nulls."""
    s = Scenario(geometry=ArrayGeometry(k_antennas=8))
    runs = {
        "tree": s,
        "linear": replace(s, search=replace(s.search, mode="linear")),
        "multiuser": replace(
            s, user_angles_deg=(-20.0, -20.0), search=replace(s.search, mode="multiuser")
        ),
    }
    for mode, scn in runs.items():
        result = run_full_protocol(scn)
        tl = result.timeline
        levels = len(tl.level_cycles)
        phases = [e.label for e in tl.events if e.kind == "phase"]
        sounding = ["power_measurement"] if mode == "tree" else []
        assert phases == ["protocol_start"] + sounding + [
            f"tree_level_{n}" for n in range(1, levels + 1)
        ]
        sends = [e.label for e in tl.events if e.kind == "ctc_send"]
        assert [x.removesuffix(" + power report") for x in sends] == [
            f"level {n} feedback" for n in range(1, levels + 1)
        ]
        slots = [e.label for e in tl.events if e.kind == "test_slot"]
        assert all(x.startswith(("config:", "antenna:")) for x in slots)
        (apply,) = [e for e in tl.events if e.kind == "apply"]
        assert apply is tl.events[-1]
        assert apply.label.startswith("apply nulls:")


def test_timeline_rejects_backward_events():
    tl = SimTimeline()
    tl.emit(10, "phase", "a")
    with pytest.raises(ValueError):
        tl.emit(5, "phase", "b")


# ---------------------------------------------------------------------------
# full protocol


def test_default_scenario_reaches_the_noise_floor():
    result = run_full_protocol(Scenario())
    assert result.mode == "tree"
    user = result.users[0]
    assert user.baseline.aggregate_db == pytest.approx(30.0, abs=1e-9)
    assert user.delta_inr_db == pytest.approx(30.0, abs=1e-6)
    assert user.nulls_used == 1
    assert result.timeline.total_delay_ms == 220.0


def test_tree_holds_up_against_the_exhaustive_scan_on_multipath():
    """Greedy descent stays within a few dB of scanning every angle."""
    from dataclasses import replace

    from nullsim.presets import scenario_fig8_powercorr

    base = scenario_fig8_powercorr()
    deltas = {"tree": [], "linear": []}
    for seed in range(6):
        for mode in deltas:
            scn = replace(
                base, seed=seed, search=replace(base.search, mode=mode)
            )
            deltas[mode].append(run_full_protocol(scn).users[0].delta_inr_db)
    assert np.mean(deltas["tree"]) >= np.mean(deltas["linear"]) - 6.0


def test_protocol_keeps_the_baseline_when_nulling_cannot_help():
    # four antennas cannot steer a null here without losing more than they gain
    result = run_full_protocol(Scenario(user_angles_deg=(0.0,)))
    user = result.users[0]
    assert user.final.aggregate == user.baseline.aggregate
    assert user.delta_inr_db == 0.0
    assert user.nulls_used == 0
    assert result.joint_null_angles == ()
    # the timeline applies what was deployed, not the search's best
    (apply,) = [e for e in result.timeline.events if e.kind == "apply"]
    assert apply.label == "apply nulls:"


def valid_scenario(raw: dict) -> Scenario:
    """``raw`` as a scenario; a file the loader rejects is not drawn."""
    try:
        return scenario_from_dict(raw)
    except ScenarioError:
        assume(False)


@st.composite
def multiuser_scenarios(draw):
    angles = st.floats(-45.0, 45.0, allow_nan=False)
    return valid_scenario({
        "seed": draw(st.integers(0, 2**31 - 1)),
        "ue_angle_deg": draw(st.floats(-60.0, 60.0, allow_nan=False)),
        "user_angles_deg": draw(st.lists(angles, min_size=2, max_size=4)),
        "geometry": {"k_antennas": draw(st.sampled_from([4, 8]))},
        "channel": {"preset": draw(st.sampled_from(CHANNEL_PRESETS))},
        "sim": {"noise_jitter": draw(st.sampled_from([0.0, 0.5]))},
        "search": {"mode": "multiuser", "power_correction": False},
    })


@settings(max_examples=200, deadline=None)
@given(scenario=multiuser_scenarios())
def test_multiuser_runs_never_deploy_nulls_that_leave_a_user_worse(scenario):
    try:
        result = run_full_protocol(scenario)
    except DofExhaustedError:
        # the per-user nulls do not fit the array together; the run aborts
        return
    except DegenerateConstraintsError as exc:
        # the joint solve alone can meet a rank-deficient union: a beam a
        # hair off a tree null passes with that one null, not with several
        frames = [f.name for f in traceback.extract_tb(exc.__traceback__)]
        assert frames[-2:] == ["run_full_protocol", "lcmv_weights"]
        return
    joint = result.joint_null_angles
    assert len(joint) <= scenario.geometry.k_antennas - 2
    users = result.users
    assert [u.nulls_used for u in users] == [len(joint)] * len(users)
    below = all(u.final.aggregate < u.baseline.aggregate for u in users)
    kept = joint == () and all(u.final == u.baseline for u in users)
    assert below or kept
    (apply,) = [e for e in result.timeline.events if e.kind == "apply"]
    assert apply.label == "apply nulls:" + ";".join(f"{a:.2f}" for a in joint)


def test_a_rank_deficient_joint_union_raises_in_the_joint_solve_itself():
    """The one multi-user ``DegenerateConstraintsError`` that
    ``raised_by_joint_solve`` in ``perfbench/run.py`` lets through: its
    package frames are exactly ``run_full_protocol`` -> ``lcmv_weights``.

    The beam sits 5e-8 deg off the tree's 0 deg null, so every node passes
    the tree's check with that one null, but the two users' joint nulls do
    not.  A helper raising on the solve's behalf would add a frame.
    """
    s = scenario_from_dict({
        "seed": 5291,
        "ue_angle_deg": 5e-08,
        "user_angles_deg": [-0.4, -9.6],
        "geometry": {"k_antennas": 8},
        "channel": {"preset": "orbit-like"},
        "search": {"mode": "multiuser", "power_correction": False},
    })
    with pytest.raises(DegenerateConstraintsError) as err:
        run_full_protocol(s)
    assert type(err.value) is DegenerateConstraintsError
    assert str(err.value) == (
        "constraint directions are rank deficient (sigma ratio 4.60e-10)"
    )
    package = Path(nullsim.__file__).resolve().parent
    frames = [
        (Path(f.filename).name, f.name)
        for f in traceback.extract_tb(err.value.__traceback__)
        if Path(f.filename).resolve().parent == package
    ]
    assert frames == [("coexsim.py", "run_full_protocol"), ("beamforming.py", "lcmv_weights")]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    beam=st.floats(-60.0, 60.0, allow_nan=False),
    user=st.floats(-45.0, 45.0, allow_nan=False),
    k=st.sampled_from([4, 8]),
    preset=st.sampled_from(CHANNEL_PRESETS),
)
def test_one_user_multiuser_run_deploys_what_the_plain_tree_deploys(
    seed, beam, user, k, preset
):
    tree_run = valid_scenario({
        "seed": seed,
        "ue_angle_deg": beam,
        "user_angles_deg": [user],
        "geometry": {"k_antennas": k},
        "channel": {"preset": preset},
        "sim": {"noise_jitter": 0.0},
        "search": {"mode": "tree", "power_correction": False},
    })
    multi_run = replace(tree_run, search=replace(tree_run.search, mode="multiuser"))
    assert (
        run_full_protocol(multi_run).joint_null_angles
        == run_full_protocol(tree_run).joint_null_angles
    )
