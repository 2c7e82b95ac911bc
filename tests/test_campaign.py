"""Campaign execution and result serialization round trips."""

import dataclasses
import json
import os
import stat
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nullsim.campaign import (
    SUMMARY_COLUMNS,
    TRACE_COLUMNS,
    ResultsRecord,
    export_results,
    load_results,
    run_scenarios,
    sweep_points,
)
from nullsim import campaign
from nullsim.presets import PRESET_NAMES, run_repro, scenario_fig9_delay, scenario_fig10_multiuser
from nullsim.scenario import Scenario, with_overrides


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


def test_json_round_trip(tmp_path, default_records):
    files = export_results(default_records, "json", str(tmp_path / "out.json"))
    assert len(files) == 1
    assert load_results(files[0]) == [r.summary_row() for r in default_records]


def test_csv_round_trip(tmp_path, default_records):
    files = export_results(default_records, "csv", str(tmp_path / "out.csv"))
    assert [f.rsplit("/", 1)[-1] for f in files] == ["out.csv", "out_trace.csv"]
    assert load_results(files[0]) == [r.summary_row() for r in default_records]


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


def test_a_linear_run_exports_without_the_pure_python_encoder(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the pure-Python JSON encoder was used")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    records = run_scenarios([_linear(Scenario())])
    (path,) = export_results(records, "json", str(tmp_path / "linear.json"))
    assert load_results(path) == [r.summary_row() for r in records]
    with pytest.raises(AssertionError):
        json.dumps([{}], indent=2)
