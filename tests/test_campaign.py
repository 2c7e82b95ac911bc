"""Campaign execution and result serialization round trips."""

import csv
import dataclasses
import json
import math
import os
import re
import stat
import struct
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nullsim.beamforming import ArrayGeometry
from nullsim.channel import InrReport
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
from nullsim.nullsearch import (
    DEFAULT_LINEAR_GRID,
    FLOAT_DECIMALS,
    NullConfig,
    build_tree,
    grid_tree,
)
from nullsim.presets import PRESET_NAMES, run_repro, scenario_fig9_delay, scenario_fig10_multiuser
from nullsim.scenario import Scenario, ScenarioError, SearchSpec, with_overrides


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
    rows = [r.summary_row() for r in run_scenarios([Scenario()] * 3)]
    assert [r["run_id"] for r in rows] == [0, 1, 2]
    for row in rows:
        row.pop("run_id")
    assert rows[0] == rows[1] == rows[2]


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
    with pytest.raises(ScenarioError) as exc:
        sweep_points(Scenario())
    assert exc.value.rule == "no_sweep_grids"


def _positions(records):
    return [r.run_id + r.user for r in records]


def _rows_without_run_id(records):
    return [r.summary_row() | {"run_id": 0} for r in records]


@pytest.mark.parametrize("figure", PRESET_NAMES)
def test_run_id_plus_user_is_the_record_position_in_every_repro_table(figure):
    records, _ = run_repro(figure)
    assert _positions(records) == list(range(len(records)))


def test_multi_user_repeats_number_runs_by_record_offset():
    records = run_scenarios([scenario_fig10_multiuser()] * 2)
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
    """A scenario repeated by listing it ``repeats`` times in a row is
    validated once per listing and run in the listed order."""
    validated = []
    monkeypatch.setattr(campaign, "validate_scenario", validated.append)
    scenarios = [Scenario(seed=seed) for seed in (1, 2, 3) for _ in range(repeats)]
    records = run_scenarios(scenarios)
    assert validated == scenarios
    assert [r.seed for r in records] == [seed for seed in (1, 2, 3) for _ in range(repeats)]
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


def _with_entry(rec, i, entry):
    """``rec`` with its ``i``-th trace entry replaced by ``entry``."""
    trace = list(rec.trace)
    trace[i] = entry
    return dataclasses.replace(rec, trace=trace)


def test_a_failed_csv_export_leaves_the_old_files_alone(tmp_path, default_records):
    files = export_results(default_records * 3, "csv", str(tmp_path / "out.csv"))
    old = [Path(f).read_bytes() for f in files]
    (rec,) = default_records
    bad = _with_entry(rec, 0, (rec.trace[0][0], 3))
    with pytest.raises(ValueError, match="trace entry 0's INR"):
        export_results([bad], "csv", str(tmp_path / "out.csv"))
    assert [Path(f).read_bytes() for f in files] == old


def test_a_failed_json_export_leaves_the_old_file_alone(tmp_path, default_records):
    (path,) = export_results(default_records * 3, "json", str(tmp_path / "out.json"))
    old = Path(path).read_bytes()
    (rec,) = default_records
    bad = _with_entry(rec, 0, (rec.trace[0][0], 3))
    with pytest.raises(ValueError, match="trace entry 0's INR"):
        export_results([bad], "json", path)
    assert Path(path).read_bytes() == old


# each fault, as (the text its error names, the record it makes of a good
# one); a trace entry pairs a config with its INR, so the fields of a trace
# row can only be mistyped in the record's summary
TRACE_FAULTS = {
    "an extra field": ("trace entry 5 is", lambda rec: _with_entry(rec, 5, rec.trace[5] + (0,))),
    "a missing field": ("trace entry 5 is", lambda rec: _with_entry(rec, 5, rec.trace[5][:1])),
    "a bool for an int": ("'run_id'", lambda rec: dataclasses.replace(rec, run_id=True)),
    "an int for a float": (
        "trace entry 5's INR", lambda rec: _with_entry(rec, 5, (rec.trace[5][0], 3))
    ),
    "a float for a str": ("'mode'", lambda rec: dataclasses.replace(rec, mode=1.5)),
    "a None": ("'user'", lambda rec: dataclasses.replace(rec, user=None)),
    "an int duty": ("'duty'", lambda rec: dataclasses.replace(rec, duty=1)),
    "a tuple for the trace": (
        "the trace", lambda rec: dataclasses.replace(rec, trace=tuple(rec.trace))
    ),
    "a dict row for an entry": (
        "trace entry 5 is", lambda rec: _with_entry(rec, 5, rec.trace_rows()[5])
    ),
    "a list for a pair": ("trace entry 5 is", lambda rec: _with_entry(rec, 5, list(rec.trace[5]))),
    "a label for a config": (
        "trace entry 5's config", lambda rec: _with_entry(rec, 5, (rec.trace[5][0].label, 1.5))
    ),
    "a None config": ("trace entry 5's config", lambda rec: _with_entry(rec, 5, (None, 1.5))),
    "a bool for the INR": (
        "trace entry 5's INR", lambda rec: _with_entry(rec, 5, (rec.trace[5][0], False))
    ),
    "a numpy float for the INR": (
        "trace entry 5's INR",
        lambda rec: _with_entry(rec, 5, (rec.trace[5][0], np.float64(rec.trace[5][1]))),
    ),
}


@pytest.mark.parametrize("fault", TRACE_FAULTS)
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_both_formats_refuse_a_trace_row_before_opening_a_file(
    fmt, fault, tmp_path, default_records
):
    """Every field of a trace row holds exactly its type: each summary field
    holds its annotated type, and each trace entry is a pair of exactly a
    config and a float.

    JSON would spell a bool ``true``, an int in a float field without a
    decimal point and a numpy float by its repr, and CSV reads none of them
    back, so both formats refuse the record, naming the fault, and write no
    file.
    """
    named, spoil = TRACE_FAULTS[fault]
    (rec,) = default_records
    with pytest.raises(ValueError, match=re.escape(named)):
        export_results([rec, spoil(rec)], fmt, str(tmp_path / f"out.{fmt}"))
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
    assert Path(path).read_bytes() == _json_dumps(records)
    for user, rec in zip(result.users, records):
        assert len(rec.trace) == len(user.trace)
        for row, (cfg, inr_db), (tested, inr) in zip(rec.trace_rows(), rec.trace, user.trace):
            assert cfg is tested  # the layout's own config
            assert inr_db == campaign._r(InrReport(inr).aggregate_db)
            assert row["node"] == _inline_node(cfg)
            assert row["null_angles_deg"] == _inline_nulls(cfg)
            assert row["level"] == len(cfg.node_id)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.floats(min_value=0.0)
        | st.sampled_from([math.nan, -0.0, 1e-30, 1e-31, 5e-324, 1e-05, 1e16])
    )
)
def test_the_trace_db_conversion_is_aggregate_db_then_r(inrs):
    got = list(campaign._trace_db(inrs))
    want = [campaign._r(InrReport(x).aggregate_db) for x in inrs]
    assert list(map(repr, got)) == list(map(repr, want))


def _tested_configs(scenario):
    """The run's record and its tested configs by node id, with each
    config's row texts and its slot label."""
    result = run_full_protocol(scenario)
    (rec,) = records_from_result(result, scenario)
    slots = {
        e.label.removeprefix("config:"): e.label
        for e in result.timeline.events
        if e.label.startswith("config:")
    }
    texts = {
        row["node"]: (cfg, row["node"], row["null_angles_deg"], slots[row["node"]])
        for row, (cfg, _) in zip(rec.trace_rows(), rec.trace)
    }
    return rec, texts


@pytest.mark.parametrize("mode", ["tree", "linear"])
def test_two_beams_on_one_layout_share_each_configs_text(mode, tmp_path):
    """The text of a config is built once per layout: a second beam on the
    same array and tree shape (or scan grid) tests the same config objects,
    with the same string objects, and its JSON export builds no config's
    part of a trace row that the first beam's export built."""
    geom = ArrayGeometry(k_antennas=8)
    base = Scenario(geometry=geom, search=SearchSpec(mode=mode, power_correction=False))
    first_rec, first = _tested_configs(base)
    second_rec, second = _tested_configs(dataclasses.replace(base, ue_angle_deg=-37.3))
    shared = first.keys() & second.keys()
    assert len(shared) == (165 if mode == "linear" else 12)  # both descend toward -20°
    for node in shared:
        assert all(a is b for a, b in zip(first[node], second[node]))
    export_results([first_rec], "json", str(tmp_path / "first.json"))
    built = campaign._config_json.cache_info().misses
    export_results([second_rec], "json", str(tmp_path / "second.json"))
    assert second.keys() == shared
    assert campaign._config_json.cache_info().misses == built


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


def _json_dumps(records):
    """The bytes ``json.dumps`` writes for ``records``, trace rows inline."""
    payload = [dict(r.summary_row(), trace=r.trace_rows()) for r in records]
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")


TEXTS = st.text() | st.sampled_from(
    ['"', "\\", "\n", "caf\u00e9 \u2603 \U0001f4e1", "},\n        {", '"trace": 0', ""]
)
SPECIAL_INRS = [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e-05, 1e16]
VALUES = {
    "int": st.integers() | st.sampled_from([0, -1, 10**30, -(10**40)]),
    "float": st.floats() | st.sampled_from([-0.0, 5e-324, 1e-310, 1.7976931348623157e308]),
    "str": TEXTS,
}
# the configs of real layouts: two trees, the default scan grid and a grid
# of awkward angles
LAYOUT_CONFIGS = [
    cfg
    for tree in (
        build_tree(ArrayGeometry(k_antennas=4), 21.4),
        build_tree(ArrayGeometry(k_antennas=8), -7.25, fanout=2, depth=3),
        grid_tree(ArrayGeometry(k_antennas=8), DEFAULT_LINEAR_GRID, 21.4),
        grid_tree(ArrayGeometry(k_antennas=8), (-0.0, 1e-7, -33.3333335, 80.0000005), 21.4),
    )
    for cfg in tree.nodes.values()
]
TRACES = st.lists(
    st.tuples(
        st.sampled_from(LAYOUT_CONFIGS),
        st.floats() | st.sampled_from(SPECIAL_INRS),
    ),
    max_size=6,
)
RECORDS = st.builds(
    ResultsRecord,
    **{f.name: VALUES[f.type] for f in dataclasses.fields(ResultsRecord) if f.name != "trace"},
    trace=TRACES,
)


@settings(max_examples=100, deadline=None)
@given(records=st.lists(RECORDS, max_size=4))
def test_json_export_is_json_dumps_with_indent_two(records, tmp_path_factory):
    path = tmp_path_factory.mktemp("export") / "written.json"
    export_results(records, "json", str(path))
    assert path.read_bytes() == _json_dumps(records)


def _odd_config(node_id, nulls):
    return NullConfig(node_id, nulls, (-math.inf, math.inf))


# per case, the record it makes of a good one
SPECIAL_VALUES = {
    "inr_db": lambda rec: dataclasses.replace(
        rec, trace=[(rec.trace[0][0], x) for x in SPECIAL_INRS + [1.7976931348623157e308]]
    ),
    "run_id": lambda rec: dataclasses.replace(rec, run_id=-(10**40)),
    "user": lambda rec: dataclasses.replace(rec, user=10**30),
    # node ids whose text needs escaping, and null angles of awkward text
    "node": lambda rec: dataclasses.replace(
        rec,
        trace=[
            (_odd_config(node_id, nulls), 1.5)
            for node_id, nulls in [
                ((), ()),
                (('"',), (-0.0,)),
                (("\\", "\n"), (5e-324, -1e300)),
                (("\x00\x1f\x7f",), (math.inf,)),
                (("caf\u00e9 \u2603 \U0001f4e1", 10**30, -1), (-math.inf, 1e16)),
                (("},\n        {",), (0.1234565,)),
            ]
        ],
    ),
}


@pytest.mark.parametrize("name", SPECIAL_VALUES)
def test_the_trace_template_spells_special_values_as_json_does(name, tmp_path, default_records):
    (rec,) = default_records
    records = [SPECIAL_VALUES[name](rec)] * 2
    (path,) = export_results(records, "json", str(tmp_path / "special.json"))
    assert Path(path).read_bytes() == _json_dumps(records)


@pytest.mark.parametrize("name", WHOLE_RUNS)
def test_the_trace_csv_reads_back_as_the_trace_rows(name, tmp_path):
    """``<stem>_trace.csv``, each column typed by TRACE_TYPES, reads back as
    every record's ``trace_rows()``, value for value and type for type."""
    scenario = WHOLE_RUNS[name]
    records = run_scenarios([scenario] * 2)
    cfg = records[0].trace[0][0]
    records.append(dataclasses.replace(records[0], trace=[(cfg, x) for x in SPECIAL_INRS]))
    _, trace_path = export_results(records, "csv", str(tmp_path / "run.csv"))
    assert trace_path == str(tmp_path / "run_trace.csv")
    with open(trace_path, encoding="utf-8", newline="") as fh:
        rows = [
            {k: campaign.TRACE_TYPES[k](v) for k, v in row.items()}
            for row in csv.DictReader(fh)
        ]
    want = [row for r in records for row in r.trace_rows()]
    assert repr(rows) == repr(want)


def test_a_linear_run_exports_without_the_pure_python_encoder(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the pure-Python JSON encoder was used")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    records = run_scenarios([_linear(Scenario())])
    (path,) = export_results(records, "json", str(tmp_path / "linear.json"))
    assert load_results(path) == [r.summary_row() for r in records]
    with pytest.raises(AssertionError):
        json.dumps([{}], indent=2)
