"""Scenario schema: parsing, validation rules, and serialization."""

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nullsim import cli
from nullsim import scenario as scenario_mod
from nullsim.campaign import export_results, run_scenarios
from nullsim.channel import orbit_like_channel
from nullsim.coexsim import run_full_protocol
from nullsim.nullsearch import DEFAULT_LINEAR_GRID
from nullsim.scenario import (
    MAX_ANTENNAS,
    ChannelSpec,
    Scenario,
    ScenarioError,
    SearchSpec,
    load_scenario,
    scenario_from_dict,
    scenario_hash,
    scenario_to_dict,
    validate_scenario,
    with_overrides,
)


def rule_of(excinfo) -> str:
    return excinfo.value.rule


def test_defaults():
    s = Scenario()
    assert s.geometry.k_antennas == 4
    assert s.duty.t_csat_ms == 40.0
    assert s.channel.preset == "flat"
    assert s.ue_angle_deg == 21.4
    assert s.user_angles_deg == (-20.0,)
    assert s.search.mode == "tree"
    assert scenario_from_dict({}) == s


# ---------------------------------------------------------------------------
# schema strictness


def test_unknown_top_level_key():
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict({"bogus": 1})
    assert rule_of(err) == "unknown_key"


@pytest.mark.parametrize(
    "section", ["geometry", "channel", "duty_cycle", "backhaul", "sim", "search", "sweep"]
)
def test_unknown_section_key(section):
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict({section: {"bogus": 1}})
    assert rule_of(err) == "unknown_key"
    assert section in str(err.value)


def test_scenario_must_be_an_object():
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict([1, 2])
    assert rule_of(err) == "not_an_object"


def test_users_must_be_a_nonempty_list():
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict({"user_angles_deg": []})
    assert rule_of(err) == "users_empty"


def test_section_constructor_errors_name_the_section():
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict({"duty_cycle": {"duty": 1.5}})
    assert rule_of(err) == "invalid_duty_cycle"
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict({"geometry": {"k_antennas": 1}})
    assert rule_of(err) == "invalid_geometry"


def test_spec_dataclasses_name_their_own_rules():
    with pytest.raises(ScenarioError) as err:
        ChannelSpec(preset="ricean")
    assert rule_of(err) == "unknown_channel_preset"
    with pytest.raises(ScenarioError) as err:
        ChannelSpec(baseline_inr_db=0.0)
    assert rule_of(err) == "baseline_inr_not_positive"
    with pytest.raises(ScenarioError) as err:
        SearchSpec(mode="random")
    assert rule_of(err) == "unknown_search_mode"
    with pytest.raises(ScenarioError) as err:
        SearchSpec(fanout=1)
    assert rule_of(err) == "fanout_too_small"
    with pytest.raises(ScenarioError) as err:
        SearchSpec(depth=0)
    assert rule_of(err) == "depth_too_small"


# ---------------------------------------------------------------------------
# cross-field rules


@pytest.mark.parametrize(
    "raw,rule",
    [
        ({"tx_power": 0.0}, "tx_power_not_positive"),
        ({"ue_angle_deg": 95.0}, "ue_angle_out_of_range"),
        ({"user_angles_deg": [91.0]}, "user_angle_out_of_range"),
        ({"user_angles_deg": [0.0, 10.0]}, "mode_requires_single_user"),
        (
            {"sim": {"test_slot_ms": 4.0}, "duty_cycle": {"duty": 0.05}},
            "test_slot_exceeds_on_phase",
        ),
        ({"search": {"nulls_per_level": [2, 2, 1]}}, "schedule_depth_mismatch"),
        (
            {"search": {"nulls_per_level": [3, 1], "depth": 2}},
            "nulls_exceed_dof",
        ),
        ({"geometry": {"k_antennas": 2}}, "nulls_exceed_dof"),
        ({"ue_angle_deg": 0.0}, "beam_on_candidate_null"),
        (
            {"ue_angle_deg": 21.0, "search": {"mode": "linear"}},
            "beam_on_candidate_null",
        ),
        (
            {"search": {"mode": "linear", "linear_grid": [80.0, 95.0]}},
            "scan_angle_out_of_range",
        ),
        ({"sweep": {"duty": [1.5]}}, "duty_out_of_range"),
        ({"sweep": {"backhaul_ms": [-1.0]}}, "backhaul_negative"),
        ({"search": {"nulls_per_level": [2, 2, 2, 2]}}, "leaf_level_not_single_null"),
        ({"search": {"nulls_per_level": [2, 0, 2, 1]}}, "level_without_nulls"),
        (
            # the grating-lobe alias of the 60 deg beam at K=8
            {
                "ue_angle_deg": 60.0,
                "geometry": {"k_antennas": 8},
                "search": {"mode": "linear", "linear_grid": [-59.88976691395693, 0, 20]},
            },
            "beam_on_candidate_null",
        ),
        ({"seed": "x"}, "invalid_type"),
        ({"seed": True}, "invalid_type"),
        ({"tx_power": None}, "invalid_type"),
        ({"tx_power": False}, "invalid_type"),
        ({"geometry": {"k_antennas": 4.5}}, "invalid_type"),
        ({"search": {"fanout": 2.5}}, "invalid_type"),
        ({"geometry": [1]}, "invalid_type"),
        ({"user_angles_deg": ["a"]}, "invalid_type"),
        ({"user_angles_deg": -20.0}, "invalid_type"),
        ({"sweep": {"duty": ["a"]}}, "invalid_type"),
        ({"search": {"nulls_per_level": "21"}}, "invalid_type"),
        ({"search": {"nulls_per_level": [2, 2, 2.0, 1]}}, "invalid_type"),
        ({"search": {"power_correction": "no"}}, "invalid_type"),
        ({"search": {"power_correction": 1}}, "invalid_type"),
        ({"search": {"mode": None}}, "invalid_type"),
        ({"sim": {"sample_count": 2.5}}, "invalid_type"),
        ({"channel": {"noise_power": None}}, "invalid_type"),
        ({"channel": {"preset": 3}}, "invalid_type"),
        ({"search": {"fanout": 10, "depth": 8}}, "tree_too_large"),
        ({"search": {"fanout": 2, "depth": 10**9}}, "tree_too_large"),
        (
            {"user_angles_deg": [-40.0, 35.6], "geometry": {"k_antennas": 8},
             "search": {"mode": "multiuser", "fanout": 4, "depth": 6}},
            "tree_too_large",
        ),
        ({"tx_power": float("nan")}, "not_finite"),
        ({"ue_angle_deg": float("-inf")}, "not_finite"),
        ({"channel": {"noise_power": float("inf")}}, "not_finite"),
        ({"search": {"linear_grid": [0.5, float("nan")]}}, "not_finite"),
        ({"seed": 10**400}, "not_finite"),
        ({"backhaul": {"delay_ms": 1e306}}, "time_not_finite"),
        ({"sim": {"test_slot_ms": 1e306}}, "time_not_finite"),
        ({"sweep": {"backhaul_ms": [5.0, 1e306]}}, "time_not_finite"),
        ({"tx_power": 1e308}, "power_out_of_range"),
        ({"channel": {"baseline_inr_db": None, "noise_power": 1e-320}}, "power_out_of_range"),
        ({"tx_power": 1e-320}, "power_out_of_range"),
        ({"geometry": {"k_antennas": 2048}}, "too_many_antennas"),
        ({"geometry": {"k_antennas": MAX_ANTENNAS + 1}}, "too_many_antennas"),
        ({"channel": {"baseline_inr_db": 4000}}, "baseline_inr_out_of_range"),
        # 10 ** (1e-300 / 10) rounds to exactly 1: calibration divides by zero
        ({"channel": {"baseline_inr_db": 1e-300}}, "baseline_inr_out_of_range"),
        (
            {"channel": {"noise_power": 1e300, "baseline_inr_db": None},
             "sim": {"noise_jitter": 1e10}},
            "jitter_out_of_range",
        ),
        ({"channel": {"baseline_inr_db": None}, "sim": {"noise_jitter": 1e307}}, "jitter_out_of_range"),
        # a baseline just above 0 dB calibrates a huge noise power
        ({"channel": {"baseline_inr_db": 1e-10}, "sim": {"noise_jitter": 1e300}}, "jitter_out_of_range"),
        # numpy's default_rng takes non-negative seeds only
        ({"seed": -1}, "seed_negative"),
        # schedules that break several rules name the first in build_tree's
        # order: node cap, length, K-2, leaf, at least one per level
        (
            {"geometry": {"k_antennas": 8}, "search": {"depth": 3, "nulls_per_level": [7, 0, 1]}},
            "nulls_exceed_dof",
        ),
        (
            {"geometry": {"k_antennas": 8}, "search": {"depth": 3, "nulls_per_level": [7, 2]}},
            "schedule_depth_mismatch",
        ),
        (
            {"geometry": {"k_antennas": 8}, "search": {"depth": 3, "nulls_per_level": [2, 0, 2]}},
            "leaf_level_not_single_null",
        ),
        ({"geometry": {"k_antennas": 4}, "search": {"nulls_per_level": [3, 0, 2, 2]}}, "nulls_exceed_dof"),
        ({"search": {"fanout": 10, "depth": 8, "nulls_per_level": [7, 0, 1]}}, "tree_too_large"),
        (
            {"geometry": {"k_antennas": 2}, "search": {"depth": 2, "nulls_per_level": [0, 1]}},
            "nulls_exceed_dof",
        ),
        # a declared schedule meets the same rules in linear mode
        ({"search": {"mode": "linear", "nulls_per_level": [2, 2, 2, 2]}}, "leaf_level_not_single_null"),
        ({"search": {"mode": "linear", "nulls_per_level": [2, 0, 2, 1]}}, "level_without_nulls"),
        # every swept duty must hold a test slot, not only the scenario's own
        (
            {"sim": {"test_slot_ms": 4.0}, "duty_cycle": {"duty": 0.2}, "sweep": {"duty": [0.05, 0.2]}},
            "test_slot_exceeds_on_phase",
        ),
        # the steering phase 2*pi*(d/lambda)*(K-1) must be finite
        ({"geometry": {"spacing_m": 1e300}}, "spacing_out_of_range"),
        ({"geometry": {"spacing_m": 1e150, "carrier_freq_hz": 1e160}}, "spacing_out_of_range"),
        # a scan grid is a depth-1 tree under the same node cap
        (
            {
                "geometry": {"k_antennas": 64},
                "search": {"mode": "linear", "linear_grid": np.linspace(-80.0, 80.0, 2001).tolist()},
            },
            "tree_too_large",
        ),
        # every channel's direct path arrives at a user angle plus the offset
        (
            {"user_angles_deg": [80.0], "channel": {"preset": "flat", "angle_offset_deg": 20.0}},
            "user_angle_out_of_range",
        ),
        (
            {"user_angles_deg": [-20.0, -75.0], "search": {"mode": "multiuser"},
             "channel": {"preset": "two-ray", "angle_offset_deg": -15.5}},
            "user_angle_out_of_range",
        ),
    ],
)
def test_validation_rules(raw, rule):
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(raw)
    assert rule_of(err) == rule


@pytest.mark.parametrize(
    "raw,message",
    [
        (
            {"ue_angle_deg": 21.0},
            "scan angle 21.0: null at 21.0 deg coincides with the beam direction",
        ),
        (
            {"ue_angle_deg": 59.88976691395693, "geometry": {"k_antennas": 8}},
            "scan angle -60.0: constraint directions are rank deficient "
            "(sigma ratio 1.07e-15)",
        ),
    ],
)
def test_the_default_scan_grid_names_its_failing_angle(raw, message):
    raw = {**raw, "search": {"mode": "linear"}}
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(raw)
    assert str(err.value) == f"beam_on_candidate_null: {message}"


def test_a_scenario_without_a_grid_scans_the_shared_default_grid():
    s = Scenario(search=SearchSpec(mode="linear"))
    assert s.scan_angles is DEFAULT_LINEAR_GRID


def test_the_antenna_cap_admits_its_own_value():
    s = scenario_from_dict({"geometry": {"k_antennas": MAX_ANTENNAS}})
    assert s.geometry.k_antennas == MAX_ANTENNAS


@pytest.mark.parametrize(
    "raw",
    [
        {"channel": {"baseline_inr_db": 3000}},
        {"channel": {"baseline_inr_db": 1e-12}, "sim": {"noise_jitter": 0.5}},
        {"channel": {"baseline_inr_db": None}, "sim": {"noise_jitter": 1e5}},
    ],
)
def test_extreme_values_the_rules_admit_run_to_finite_results(raw):
    (user,) = run_full_protocol(scenario_from_dict(raw)).users
    assert np.isfinite([user.baseline.aggregate_db, user.final.aggregate_db]).all()


def test_nullable_fields_accept_null_and_numbers_accept_integers(tmp_path):
    s = scenario_from_dict(
        {
            "tx_power": 2,
            "channel": {"baseline_inr_db": None},
            "search": {"nulls_per_level": None, "linear_grid": None},
            "sweep": {"duty": [1]},
        }
    )
    assert s.channel.baseline_inr_db is None
    assert s.tx_power == 2.0
    assert s.sweep_duty == (1.0,)
    # a section's float field written as an integer is the same scenario,
    # with the same hash and the same exported bytes
    for section, key, value in [
        ("backhaul", "delay_ms", 5),
        ("geometry", "carrier_freq_hz", 2412000000),
    ]:
        as_int = scenario_from_dict({section: {key: value}})
        as_float = scenario_from_dict({section: {key: float(value)}})
        assert as_int == as_float
        assert type(scenario_to_dict(as_int)[section][key]) is float
        assert scenario_hash(as_int) == scenario_hash(as_float)
        exports = [
            Path(export_results(run_scenarios([scn]), "json", str(tmp_path / f"{n}.json"))[0])
            for n, scn in (("int", as_int), ("float", as_float))
        ]
        assert exports[0].read_bytes() == exports[1].read_bytes()


# any JSON value in any field: leaves, lists and objects, a bool among them
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 5)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5,
)


def _well_typed_like(default):
    """Values of the type the field's default has, small enough to build."""
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, int):
        return st.integers(-2, 5)
    if isinstance(default, float):
        return st.floats(-200.0, 200.0) | st.floats(allow_nan=False, allow_infinity=False)
    if isinstance(default, str):
        return st.sampled_from(
            ["flat", "two-ray", "orbit-like", "tree", "linear", "multiuser", ""]
        )
    # the list fields, and the fields that default to null
    return st.none() | st.lists(st.integers(-2, 5) | st.floats(-90.0, 90.0), max_size=5)


@st.composite
def fuzzed_scenario_dicts(draw):
    """The default scenario with some fields, or whole sections, replaced
    by values of their own type or by any JSON value."""
    raw = scenario_to_dict(Scenario())
    raw["sweep"] = {"backhaul_ms": [5.0], "duty": [0.2]}
    for key in list(raw):
        section = raw[key] if isinstance(raw[key], dict) else {key: raw[key]}
        target = section if isinstance(raw[key], dict) else raw
        for field, default in section.items():
            if draw(st.integers(0, 9)) == 0:
                anything = draw(st.integers(0, 3)) == 0
                target[field] = draw(JSON_VALUES if anything else _well_typed_like(default))
        if isinstance(raw[key], dict) and draw(st.integers(0, 19)) == 0:
            raw[key] = draw(JSON_VALUES)
    return raw


def test_a_spacing_that_overflows_the_steering_phase_breaks_a_named_rule(tmp_path):
    """A property run found this file: its steering phase overflows to
    infinity, every steering vector is NaN, and the tree's rank SVD raised
    ``LinAlgError`` out of validation."""
    raw = scenario_to_dict(Scenario())
    raw["geometry"].update(k_antennas=4, spacing_m=7.453122449677927e298)
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(raw)
    assert rule_of(err) == "spacing_out_of_range"
    path = tmp_path / "huge_spacing.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["validate", str(path)]) == cli.EXIT_VALIDATION
    # a huge spacing that keeps the phase finite still validates
    raw["geometry"]["spacing_m"] = 1e10
    scenario_from_dict(raw)


@settings(max_examples=300, deadline=None)
@given(raw=fuzzed_scenario_dicts())
def test_any_json_scenario_passes_or_breaks_a_named_rule(raw, tmp_path_factory):
    try:
        scenario_from_dict(raw)
        expected = cli.EXIT_OK
    except ScenarioError:
        expected = cli.EXIT_VALIDATION
    path = tmp_path_factory.mktemp("fuzzed") / "fuzzed_scenario.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["validate", str(path)]) == expected


# every number field of the schema, by section; "scenario" is the top level
NUMBER_FIELDS = [
    (section, key, kind)
    for section, fields in scenario_mod._FIELDS.items()
    for key, kind in fields.items()
    if kind in (float, int, [float], [int])
]
TIME_FIELDS = [
    ("backhaul", "delay_ms", float),
    ("sim", "test_slot_ms", float),
    ("sweep", "backhaul_ms", [float]),
]


@st.composite
def non_finite_scenario_dicts(draw):
    """The default scenario with NaN or an infinity in some number fields, or
    with a time of more milliseconds than a float can count in microseconds.

    Also returns the rules that may name the first bad field: a NaN or an
    infinity in an integer field is no integer.
    """
    raw = scenario_to_dict(Scenario())
    if draw(st.booleans()):
        bad = st.sampled_from([float("nan"), float("inf"), float("-inf")])
        fields = st.sampled_from(NUMBER_FIELDS)
    else:
        bad = st.floats(sys.float_info.max / 999, sys.float_info.max)
        fields = st.sampled_from(TIME_FIELDS)
    rules = {"not_finite", "time_not_finite"}
    chosen = draw(st.lists(fields, min_size=1, max_size=3, unique_by=lambda f: f[:2]))
    for section, key, kind in chosen:
        value = draw(bad)
        if isinstance(kind, list):
            value = draw(st.lists(st.integers(0, 90), max_size=2)) + [value]
        if kind in (int, [int]):
            rules.add("invalid_type")
        target = raw if section == "scenario" else raw.setdefault(section, {})
        target[key] = value
    return raw, rules


@settings(max_examples=150, deadline=None)
@given(case=non_finite_scenario_dicts())
def test_non_finite_numbers_exit_2_under_a_named_rule(case, tmp_path_factory):
    raw, rules = case
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(raw)
    assert rule_of(err) in rules
    path = tmp_path_factory.mktemp("non_finite") / "non_finite_scenario.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["validate", str(path)]) == cli.EXIT_VALIDATION


def test_multiuser_mode_accepts_several_users():
    s = scenario_from_dict(
        {"user_angles_deg": [-40.0, 35.6], "search": {"mode": "multiuser"},
         "geometry": {"k_antennas": 8}}
    )
    validate_scenario(s)
    assert len(s.user_angles_deg) == 2


# ---------------------------------------------------------------------------
# files and round trips


def test_load_scenario_reports_parse_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"seed": }')
    with pytest.raises(ScenarioError) as err:
        load_scenario(str(path))
    assert rule_of(err) == "parse_error"
    assert "broken.json:1:" in str(err.value)
    # a byte that is not UTF-8 is named by its offset in the file, past the
    # first chunk a text reader would decode
    path.write_bytes(b'{"seed": 1' + b" " * 9000 + b"\xff}")
    with pytest.raises(ScenarioError) as err:
        load_scenario(str(path))
    assert rule_of(err) == "parse_error"
    assert "broken.json: byte 9010 is not UTF-8" in str(err.value)


def test_round_trip_preserves_the_scenario(tmp_path):
    s = scenario_from_dict(
        {
            "seed": 3,
            "ue_angle_deg": 17.3,
            "user_angles_deg": [-40.0, 35.6],
            "geometry": {"k_antennas": 8},
            "channel": {"preset": "orbit-like", "baseline_inr_db": 25.0},
            "search": {"mode": "multiuser", "power_correction": False},
            "sweep": {"backhaul_ms": [5.0, 105.0], "duty": [0.05, 0.2]},
        }
    )
    back = scenario_from_dict(scenario_to_dict(s))
    assert back == s
    assert scenario_hash(back) == scenario_hash(s)

    path = tmp_path / "scn.json"
    path.write_text(json.dumps(scenario_to_dict(s)))
    assert load_scenario(str(path)) == s


def test_the_readme_scenario_block_holds_the_defaults():
    """The README's scenario file parses, is written back as it stands, and
    without its sweep is the default scenario, as the README says."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    block = readme.read_text(encoding="utf-8").split("```json\n", 1)[1].split("```", 1)[0]
    raw = json.loads(block)
    back = scenario_to_dict(scenario_from_dict(raw))
    assert json.dumps(back, sort_keys=True) == json.dumps(raw, sort_keys=True)
    del raw["sweep"]
    assert scenario_from_dict(raw) == Scenario()


def test_empty_nullable_lists_are_written_as_null():
    s = Scenario(search=SearchSpec(mode="linear", nulls_per_level=(), linear_grid=()))
    d = scenario_to_dict(s)
    assert d["search"]["nulls_per_level"] is None
    assert d["search"]["linear_grid"] is None
    assert "sweep" not in d
    assert scenario_hash(s) == scenario_hash(Scenario(search=SearchSpec(mode="linear")))


def test_hash_tracks_every_field():
    s = Scenario()
    assert scenario_hash(with_overrides(s, seed=1)) != scenario_hash(s)
    assert scenario_hash(with_overrides(s, tx_power=2.0)) != scenario_hash(s)
    assert scenario_hash(with_overrides(s, seed=0)) == scenario_hash(s)


def test_a_scenario_hashes_once_and_a_replaced_one_afresh(monkeypatch):
    dumps = []
    real = scenario_mod.scenario_to_dict
    monkeypatch.setattr(scenario_mod, "scenario_to_dict", lambda s: dumps.append(s) or real(s))
    s = Scenario()
    digest = scenario_hash(s)
    assert scenario_hash(s) == digest and dumps == [s]
    # the digest is kept where equality, hashing and repr never look
    assert s == Scenario() and hash(s) == hash(Scenario()) and "_scenario_hash" not in repr(s)
    other = replace(s, seed=1)
    assert scenario_hash(other) != digest
    assert scenario_hash(other) == scenario_hash(Scenario(seed=1))
    assert dumps == [s, other, Scenario(seed=1)]


def test_reruns_of_a_scenario_hash_it_once(monkeypatch):
    dumps = []
    real = scenario_mod.scenario_to_dict
    monkeypatch.setattr(scenario_mod, "scenario_to_dict", lambda s: dumps.append(s) or real(s))
    s = Scenario(seed=7)
    records = run_scenarios([s] * 3)
    assert len(dumps) == 1
    assert len({r.scenario_hash for r in records}) == 1


def test_with_overrides_validates():
    with pytest.raises(ScenarioError):
        with_overrides(Scenario(), tx_power=-1.0)


# ---------------------------------------------------------------------------
# channel construction


def test_flat_and_two_ray_channel_builds():
    s = scenario_from_dict({"channel": {"angle_offset_deg": 2.0}})
    (model,) = s.build_channels()
    assert model.mode == "flat"
    assert model.paths[0].angle_deg == -18.0
    s2 = scenario_from_dict({"channel": {"preset": "two-ray"}})
    (model2,) = s2.build_channels()
    assert len(model2.paths) == 2


def test_a_channel_offset_past_endfire_names_the_offset():
    raw = {"user_angles_deg": [80.0], "channel": {"angle_offset_deg": 10.0}}
    (model,) = scenario_from_dict(raw).build_channels()
    assert model.paths[0].angle_deg == 90.0
    raw["channel"]["angle_offset_deg"] = 10.5
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(raw)
    assert rule_of(err) == "user_angle_out_of_range"
    assert "user angle 80.0 plus channel.angle_offset_deg 10.5 is 90.5" in str(err.value)


def test_orbit_channel_streams_are_per_user_and_seeded():
    s = scenario_from_dict(
        {
            "seed": 7,
            "user_angles_deg": [-40.0, 35.6],
            "geometry": {"k_antennas": 8},
            "channel": {"preset": "orbit-like"},
            "search": {"mode": "multiuser"},
        }
    )
    models = s.build_channels()
    assert models == s.build_channels()  # rerun draws the same channels
    assert models[0] != models[1]
    expected = orbit_like_channel(np.random.default_rng([7, 1001]), 8, 35.6)
    assert models[1] == expected
