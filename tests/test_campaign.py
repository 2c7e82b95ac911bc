"""Campaign execution and result serialization round trips."""

import dataclasses
import json
import math
import os
import stat
import struct
import typing
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nullsim.beamforming import ArrayGeometry
from nullsim.campaign import (
    SUMMARY_COLUMNS,
    TRACE_COLUMNS,
    ResultsRecord,
    export_results,
    load_results,
    records_from_result,
    run_scenarios,
    sweep_points,
)
from nullsim import campaign
from nullsim.coexsim import run_full_protocol
from nullsim.nullsearch import DEFAULT_LINEAR_GRID, FLOAT_DECIMALS, build_tree, grid_tree
from nullsim.presets import PRESET_NAMES, run_repro, scenario_fig9_delay, scenario_fig10_multiuser
from nullsim.scenario import Scenario, SearchSpec, with_overrides


@pytest.fixture(scope="module")
def default_records():
    return run_scenarios([Scenario()])


def _linear(s):
    return dataclasses.replace(s, search=dataclasses.replace(s.search, mode="linear"))


def test_one_run_one_record(default_records):
    (rec,) = default_records
    assert rec.mode == "tree"
    assert rec.configs_tested == 12
    assert set(rec.summary_row()) == set(SUMMARY_COLUMNS)


def test_repeats_reproduce_identical_rows():
    rows = [r.summary_row() for r in run_scenarios([Scenario()], repeats=3)]
    assert [r["run_id"] for r in rows] == [0, 1, 2]
    for row in rows:
        row.pop("run_id")
    assert rows[0] == rows[1] == rows[2]


def test_repeats_must_be_positive():
    with pytest.raises(ValueError):
        run_scenarios([Scenario()], repeats=0)


def test_linear_override_tests_the_whole_grid():
    (rec,) = run_scenarios([_linear(Scenario())])
    assert rec.mode == "linear"
    assert rec.configs_tested == 165
    assert rec.power_phase_ms == 0.0


def test_phase_times_add_up(default_records):
    (rec,) = default_records
    assert rec.power_phase_ms + rec.search_ms == pytest.approx(rec.total_delay_ms)
    assert rec.power_phase_ms == 40.0  # one sounding cycle for four antennas


def test_sweep_iterates_duty_major():
    s = with_overrides(
        Scenario(), sweep_duty=(0.2, 1.0), sweep_backhaul_ms=(5.0, 50.0, 105.0)
    )
    records = run_scenarios(sweep_points(s))
    assert [r.run_id for r in records] == list(range(6))
    assert [(r.duty, r.backhaul_ms) for r in records] == [
        (0.2, 5.0),
        (0.2, 50.0),
        (0.2, 105.0),
        (1.0, 5.0),
        (1.0, 50.0),
        (1.0, 105.0),
    ]
    for r in records:
        assert r.delta_inr_db == pytest.approx(30.0, abs=1e-5)


def test_sweep_needs_grids():
    with pytest.raises(ValueError):
        sweep_points(Scenario())


def _positions(records):
    return [r.run_id + r.user for r in records]


def _rows_without_run_id(records):
    return [r.summary_row() | {"run_id": 0} for r in records]


@pytest.mark.parametrize("figure", PRESET_NAMES)
def test_run_id_plus_user_is_the_record_position_in_every_repro_table(figure):
    records, _ = run_repro(figure)
    assert _positions(records) == list(range(len(records)))


def test_multi_user_repeats_number_runs_by_record_offset():
    records = run_scenarios([scenario_fig10_multiuser()], repeats=2)
    assert [r.run_id for r in records] == [0] * 4 + [4] * 4
    assert _positions(records) == list(range(8))
    rows = _rows_without_run_id(records)
    assert rows[:4] == rows[4:]


def test_multi_user_sweep_numbers_runs_by_record_offset():
    s = with_overrides(scenario_fig10_multiuser(), sweep_duty=(0.05, 0.2))
    records = run_scenarios(sweep_points(s))
    assert [(r.run_id, r.duty) for r in records[::4]] == [(0, 0.05), (4, 0.2)]
    assert _positions(records) == list(range(8))


@pytest.mark.parametrize("repeats", [1, 3])
def test_each_scenario_is_validated_once_whatever_the_repeats(repeats, monkeypatch):
    validated = []
    monkeypatch.setattr(campaign, "validate_scenario", validated.append)
    scenarios = [Scenario(seed=seed) for seed in (1, 2, 3)]
    records = run_scenarios(scenarios, repeats=repeats)
    assert validated == scenarios
    assert [r.seed for r in records] == [s.seed for s in scenarios for _ in range(repeats)]
    assert [r.run_id for r in records] == list(range(3 * repeats))


def test_fig9_is_the_campaign_sweep_of_the_tree_then_the_linear_variant():
    records, _ = run_repro("fig9-delay")
    base = scenario_fig9_delay()
    swept = [
        r
        for mode in ("tree", "linear")
        for r in run_scenarios(
            sweep_points(
                dataclasses.replace(base, search=dataclasses.replace(base.search, mode=mode))
            )
        )
    ]
    assert [r.mode for r in records] == ["tree"] * 6 + ["linear"] * 6
    assert _rows_without_run_id(records) == _rows_without_run_id(swept)


# ---------------------------------------------------------------------------
# export / import


def _from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


@settings(max_examples=2000, deadline=None)
@given(
    x=st.floats()
    | st.integers(min_value=0, max_value=2**64 - 1).map(_from_bits)
    # values at and next to a tie of the seventh decimal
    | st.builds(
        lambda n, step: math.nextafter(n / 10**6 + 5e-7, step) if step else n / 10**6 + 5e-7,
        st.integers(min_value=-(10**12), max_value=10**12),
        st.sampled_from([0, -math.inf, math.inf]),
    )
)
def test_record_floats_have_the_bits_of_round(x):
    """A record's floats are rounded through their six-decimal text; every
    float but a NaN reads back with the bits of ``round(x, 6)``, and a NaN
    stays a NaN (neither export can tell one NaN from another)."""
    got, want = campaign._r(x), round(x, FLOAT_DECIMALS)
    if math.isnan(want):
        assert math.isnan(got)
    else:
        assert struct.pack("<d", got) == struct.pack("<d", want)


def test_json_round_trip(tmp_path, default_records):
    files = export_results(default_records, "json", str(tmp_path / "out.json"))
    assert len(files) == 1
    assert load_results(files[0]) == [r.summary_row() for r in default_records]


def test_csv_round_trip(tmp_path, default_records):
    files = export_results(default_records, "csv", str(tmp_path / "out.csv"))
    assert [f.rsplit("/", 1)[-1] for f in files] == ["out.csv", "out_trace.csv"]
    assert load_results(files[0]) == [r.summary_row() for r in default_records]


def test_the_summary_columns_are_the_record_fields_but_the_trace():
    fields = [f.name for f in dataclasses.fields(ResultsRecord)]
    assert SUMMARY_COLUMNS == [name for name in fields if name != "trace"]


def test_a_csv_export_reads_back_with_the_record_types(tmp_path, default_records):
    summary, trace = export_results(default_records, "csv", str(tmp_path / "out.csv"))
    types = typing.get_type_hints(ResultsRecord)
    (row,) = load_results(summary)
    assert {name: type(v) for name, v in row.items()} == {
        name: types[name] for name in SUMMARY_COLUMNS
    }
    for trace_row in load_results(trace):
        assert {name: type(v) for name, v in trace_row.items()} == campaign.TRACE_TYPES


def test_trace_rows_mirror_the_visited_nodes(tmp_path, default_records):
    files = export_results(default_records, "csv", str(tmp_path / "out.csv"))
    trace = load_results(files[1])
    assert len(trace) == default_records[0].configs_tested
    assert list(trace[0]) == TRACE_COLUMNS
    assert [row["level"] for row in trace] == [1] * 3 + [2] * 3 + [3] * 3 + [4] * 3


def test_exports_are_byte_identical_across_reruns(tmp_path):
    paths = []
    for tag in ("a", "b"):
        records = run_scenarios([Scenario()])
        paths.append(
            {
                fmt: export_results(records, fmt, str(tmp_path / f"{tag}.{fmt}"))
                for fmt in ("json", "csv")
            }
        )
    for fmt in ("json", "csv"):
        for fa, fb in zip(paths[0][fmt], paths[1][fmt]):
            assert Path(fa).read_bytes() == Path(fb).read_bytes()


def test_empty_export(tmp_path):
    (jpath,) = export_results([], "json", str(tmp_path / "empty.json"))
    assert load_results(jpath) == []
    cpath, tpath = export_results([], "csv", str(tmp_path / "empty.csv"))
    assert load_results(cpath) == []
    assert Path(tpath).read_text().strip() == ",".join(TRACE_COLUMNS)


def _export_bytes(records, fmt, path):
    return [Path(f).read_bytes() for f in export_results(records, fmt, str(path))]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_shorter_export_rewrites_a_longer_file_in_place(fmt, tmp_path, default_records):
    fresh = _export_bytes(default_records, fmt, tmp_path / f"fresh.{fmt}")
    path = tmp_path / f"out.{fmt}"
    files = export_results(default_records * 3, fmt, str(path))
    for f in files:
        os.chmod(f, 0o640)
    before = [os.stat(f) for f in files]
    assert [Path(f).read_bytes() for f in files] != fresh
    assert _export_bytes(default_records, fmt, path) == fresh  # no stale tail
    after = [os.stat(f) for f in files]
    assert [(s.st_ino, s.st_mode) for s in after] == [(s.st_ino, s.st_mode) for s in before]
    assert all(stat.S_IMODE(s.st_mode) == 0o640 for s in after)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_an_export_through_a_symlink_rewrites_its_target(fmt, tmp_path, default_records):
    fresh = _export_bytes(default_records, fmt, tmp_path / f"fresh.{fmt}")
    target = tmp_path / f"target.{fmt}"
    export_results(default_records * 3, fmt, str(target))
    link = tmp_path / f"link.{fmt}"
    link.symlink_to(target)
    export_results(default_records, fmt, str(link))
    assert link.is_symlink()
    assert os.readlink(link) == str(target)
    assert target.read_bytes() == fresh[0]


def test_a_failed_csv_export_leaves_the_old_files_alone(tmp_path, default_records):
    files = export_results(default_records * 3, "csv", str(tmp_path / "out.csv"))
    old = [Path(f).read_bytes() for f in files]
    (rec,) = default_records
    bad = dataclasses.replace(rec, trace=[dict(row, extra=1) for row in rec.trace])
    with pytest.raises(ValueError, match="extra"):
        export_results([bad], "csv", str(tmp_path / "out.csv"))
    assert [Path(f).read_bytes() for f in files] == old


def test_a_failed_json_export_leaves_the_old_file_alone(tmp_path, default_records):
    (path,) = export_results(default_records * 3, "json", str(tmp_path / "out.json"))
    old = Path(path).read_bytes()
    (rec,) = default_records
    bad = dataclasses.replace(rec, trace=[dict(row, extra=1) for row in rec.trace])
    with pytest.raises(ValueError, match="extra"):
        export_results([bad], "json", path)
    assert Path(path).read_bytes() == old


# each fault, as (the field it names, the row it makes of a good one)
TRACE_FAULTS = {
    "an extra field": ("extra", lambda row: dict(row, extra=1)),
    "a missing field": ("inr_db", lambda row: {k: v for k, v in row.items() if k != "inr_db"}),
    "a bool for an int": ("level", lambda row: dict(row, level=True)),
    "an int for a float": ("inr_db", lambda row: dict(row, inr_db=3)),
    "a float for a str": ("node", lambda row: dict(row, node=1.5)),
    "a None": ("user", lambda row: dict(row, user=None)),
}


@pytest.mark.parametrize("fault", TRACE_FAULTS)
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_both_formats_refuse_a_trace_row_before_opening_a_file(
    fmt, fault, tmp_path, default_records
):
    """Each trace row holds exactly the trace columns, each of its type.

    JSON would spell a bool ``true`` and an int in a float field without a
    decimal point, and CSV reads neither back, so both formats refuse the
    row, naming the field, and write no file.
    """
    name, spoil = TRACE_FAULTS[fault]
    (rec,) = default_records
    trace = [dict(row) for row in rec.trace]
    trace[5] = spoil(trace[5])
    bad = dataclasses.replace(rec, trace=trace)
    with pytest.raises(ValueError, match=repr(name)):
        export_results([bad], fmt, str(tmp_path / f"out.{fmt}"))
    assert list(tmp_path.iterdir()) == []


def _inline_node(cfg):
    return ".".join(map(str, cfg.node_id))


def _inline_nulls(cfg):
    return ";".join(map("{:.6f}".format, cfg.null_angles_deg))


WHOLE_RUNS = {
    "power-corrected tree": Scenario(),
    "linear on the default grid": _linear(Scenario()),
    "served multi-user": scenario_fig10_multiuser(),
}


@pytest.mark.parametrize("name", WHOLE_RUNS)
def test_a_whole_run_exports_as_json_dumps_with_the_inline_text(name, tmp_path):
    scenario = WHOLE_RUNS[name]
    result = run_full_protocol(scenario)
    records = records_from_result(result, scenario)
    assert result.joint_null_angles  # served: the run deploys nulls
    if name.startswith("linear"):
        assert scenario.scan_angles == DEFAULT_LINEAR_GRID
    (path,) = export_results(records, "json", str(tmp_path / "run.json"))
    payload = [dict(r.summary_row(), trace=r.trace) for r in records]
    expected = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert Path(path).read_bytes() == expected.encode("utf-8")
    for user, rec in zip(result.users, records):
        assert len(rec.trace) == len(user.trace)
        for row, (cfg, _) in zip(rec.trace, user.trace):
            assert row["node"] == _inline_node(cfg)
            assert row["null_angles_deg"] == _inline_nulls(cfg)


def _output_text(scenario):
    """Per tested node id: its trace row's two texts and its slot label."""
    result = run_full_protocol(scenario)
    (rec,) = records_from_result(result, scenario)
    slots = {
        e.label.removeprefix("config:"): e.label
        for e in result.timeline.events
        if e.label.startswith("config:")
    }
    return {
        row["node"]: (row["node"], row["null_angles_deg"], slots[row["node"]])
        for row in rec.trace
    }


@pytest.mark.parametrize("mode", ["tree", "linear"])
def test_two_beams_on_one_layout_share_each_configs_text(mode):
    """The text of a config is built once per layout: a second beam on the
    same array and tree shape (or scan grid) gets the same string objects."""
    geom = ArrayGeometry(k_antennas=8)
    base = Scenario(geometry=geom, search=SearchSpec(mode=mode, power_correction=False))
    first = _output_text(base)
    second = _output_text(dataclasses.replace(base, ue_angle_deg=-37.3))
    shared = first.keys() & second.keys()
    assert len(shared) == (165 if mode == "linear" else 12)  # both descend toward -20°
    for node in shared:
        assert all(a is b for a, b in zip(first[node], second[node]))


@pytest.mark.parametrize(
    "tree",
    [
        lambda: build_tree(ArrayGeometry(k_antennas=4), 21.4),
        lambda: build_tree(ArrayGeometry(k_antennas=8), 21.4),
        lambda: grid_tree(ArrayGeometry(k_antennas=8), DEFAULT_LINEAR_GRID, 21.4),
    ],
    ids=["K=4 tree", "K=8 tree", "default grid"],
)
def test_every_config_of_the_default_layouts_formats_as_the_inline_text(tree):
    configs = list(tree().nodes.values())
    assert len(configs) in (120, 165)
    for cfg in configs:
        assert cfg.label == _inline_node(cfg)
        assert cfg.null_angles_text == _inline_nulls(cfg)
        assert cfg.slot_label == "config:" + _inline_node(cfg)


def test_unknown_format(tmp_path, default_records):
    with pytest.raises(ValueError):
        export_results(default_records, "parquet", str(tmp_path / "x.pq"))


# ---------------------------------------------------------------------------
# the JSON writer is json.dumps with indent=2 and sorted keys, byte for byte

TEXTS = st.text() | st.sampled_from(
    ['"', "\\", "\n", "caf\u00e9 \u2603 \U0001f4e1", "},\n        {", '"trace": 0', ""]
)
VALUES = {
    "int": st.integers() | st.sampled_from([0, -1, 10**30, -(10**40)]),
    "float": st.floats() | st.sampled_from([-0.0, 5e-324, 1e-310, 1.7976931348623157e308]),
    "str": TEXTS,
}
# a trace row's fields and the types records_from_result gives them
TRACE_TYPES = {"run_id": "int", "user": "int", "node": "str", "level": "int",
               "null_angles_deg": "str", "inr_db": "float"}
TRACE_ROWS = st.fixed_dictionaries({k: VALUES[t] for k, t in TRACE_TYPES.items()})
RECORDS = st.builds(
    ResultsRecord,
    **{f.name: VALUES[f.type] for f in dataclasses.fields(ResultsRecord) if f.name != "trace"},
    trace=st.lists(TRACE_ROWS, max_size=4),
)


@settings(max_examples=100, deadline=None)
@given(records=st.lists(RECORDS, max_size=4))
def test_json_export_is_json_dumps_with_indent_two(records, tmp_path_factory):
    path = tmp_path_factory.mktemp("export") / "written.json"
    export_results(records, "json", str(path))
    payload = [dict(r.summary_row(), trace=r.trace) for r in records]
    expected = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert path.read_bytes() == expected.encode("utf-8")


SPECIAL_VALUES = {
    "inr_db": [
        float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e16, 1.7976931348623157e308
    ],
    "run_id": [0, -1, 10**30, -(10**40)],
    "node": ["", '"', "\\", "\n", "\x00\x1f\x7f", "caf\u00e9 \u2603 \U0001f4e1", "},\n        {"],
}


@pytest.mark.parametrize("name", SPECIAL_VALUES)
def test_the_trace_template_spells_special_values_as_json_does(name, tmp_path, default_records):
    (rec,) = default_records
    trace = [dict(rec.trace[0], **{name: v}) for v in SPECIAL_VALUES[name]]
    records = [dataclasses.replace(rec, trace=trace)]
    (path,) = export_results(records, "json", str(tmp_path / "special.json"))
    payload = [dict(r.summary_row(), trace=r.trace) for r in records]
    expected = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert Path(path).read_bytes() == expected.encode("utf-8")


def test_a_linear_run_exports_without_the_pure_python_encoder(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the pure-Python JSON encoder was used")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    records = run_scenarios([_linear(Scenario())])
    (path,) = export_results(records, "json", str(tmp_path / "linear.json"))
    assert load_results(path) == [r.summary_row() for r in records]
    with pytest.raises(AssertionError):
        json.dumps([{}], indent=2)
