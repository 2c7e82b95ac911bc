"""Runs, result records and their serialization.

One protocol run yields one record per served user.  Floats are rounded
to six decimals before serialization so CSV and JSON carry the same
values and reruns of the same scenario produce byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, field, replace
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from typing import Any, Iterable, get_type_hints

from .channel import MIN_MEASURABLE_POWER
from .coexsim import ProtocolResult, run_full_protocol
from .nullsearch import FLOAT_DECIMALS
from .scenario import Scenario, scenario_hash, validate_scenario

# a trace row's fields, in column order, and the type records_from_result
# gives each; an exported row holds exactly these (see _trace_columns)
TRACE_TYPES = {
    "run_id": int,
    "user": int,
    "node": str,
    "level": int,
    "null_angles_deg": str,
    "inr_db": float,
}
TRACE_COLUMNS = list(TRACE_TYPES)


# a float's text with FLOAT_DECIMALS decimals; read back, it has the bits
# of round(x, FLOAT_DECIMALS) for every float but a NaN (which comes back
# as the plain NaN), as both take their digits from the same correctly
# rounded conversion, and it costs less
_DECIMALS = f".{FLOAT_DECIMALS}f"


def _r(x: float) -> float:
    return float(format(x, _DECIMALS))


@dataclass
class ResultsRecord:
    run_id: int
    user: int
    scenario_hash: str
    mode: str
    seed: int
    k_antennas: int
    duty: float
    t_csat_ms: float
    backhaul_ms: float
    baseline_inr_db: float
    final_inr_db: float
    delta_inr_db: float
    nulls_used: int
    configs_tested: int
    power_phase_ms: float
    search_ms: float
    total_delay_ms: float
    trace: list[dict[str, Any]] = field(default_factory=list)

    def summary_row(self) -> dict[str, Any]:
        """The summary fields, in column order; the trace is left out."""
        return {name: getattr(self, name) for name in SUMMARY_COLUMNS}


# a summary row's columns, in order, and their types: the record's fields but
# the trace
_SUMMARY_TYPES = {
    name: kind for name, kind in get_type_hints(ResultsRecord).items() if name != "trace"
}
SUMMARY_COLUMNS = list(_SUMMARY_TYPES)
# the type of each column of either CSV table
_CSV_TYPES = {**_SUMMARY_TYPES, **TRACE_TYPES}


def records_from_result(
    result: ProtocolResult, scenario: Scenario, run_id: int = 0
) -> list[ResultsRecord]:
    tl = result.timeline
    power_ms = tl.power_cycles * tl.t_csat_us / 1000.0
    digest = scenario_hash(scenario)
    log10 = math.log10
    out = []
    for user in result.users:
        # each config's text is its own, built once per layout; the values
        # of cfg.level and of _r on the INR in dB, as InrReport.aggregate_db
        # gives it, inline
        trace = [
            {
                "run_id": run_id,
                "user": user.user,
                "node": cfg.label,
                "level": len(cfg.node_id),
                "null_angles_deg": cfg.null_angles_text,
                "inr_db": float(
                    format(10.0 * log10(max(inr, MIN_MEASURABLE_POWER)), _DECIMALS)
                ),
            }
            for cfg, inr in user.trace
        ]
        out.append(
            ResultsRecord(
                run_id=run_id,
                user=user.user,
                scenario_hash=digest,
                mode=result.mode,
                seed=scenario.seed,
                k_antennas=scenario.geometry.k_antennas,
                duty=_r(scenario.duty.duty),
                t_csat_ms=_r(scenario.duty.t_csat_ms),
                backhaul_ms=_r(scenario.backhaul.delay_ms),
                baseline_inr_db=_r(user.baseline.aggregate_db),
                final_inr_db=_r(user.final.aggregate_db),
                delta_inr_db=_r(user.delta_inr_db),
                nulls_used=user.nulls_used,
                configs_tested=tl.configs_tested,
                power_phase_ms=_r(power_ms),
                search_ms=_r(tl.total_delay_ms - power_ms),
                total_delay_ms=_r(tl.total_delay_ms),
                trace=trace,
            )
        )
    return out


def sweep_points(scenario: Scenario) -> list[Scenario]:
    """The scenario's declared grid, duty-major, one scenario per point.

    A missing grid holds the scenario's own value; the points carry no
    grids of their own.
    """
    if not scenario.sweep_backhaul_ms and not scenario.sweep_duty:
        raise ValueError("sweep mode needs sweep grids in the scenario")
    duties = scenario.sweep_duty or (scenario.duty.duty,)
    backhauls = scenario.sweep_backhaul_ms or (scenario.backhaul.delay_ms,)
    return [
        replace(
            scenario,
            duty=replace(scenario.duty, duty=duty),
            backhaul=replace(scenario.backhaul, delay_ms=bh),
            sweep_backhaul_ms=(),
            sweep_duty=(),
        )
        for duty in duties
        for bh in backhauls
    ]


def run_scenarios(scenarios: list[Scenario], repeats: int = 1) -> list[ResultsRecord]:
    """Validate each scenario once and run it ``repeats`` times, in order.

    A run's records get ``run_id`` = the number of records before them, so
    ``run_id + user`` is a record's position and the records of one run
    share their ``run_id``.  Repeats rerun the identical seed and must
    reproduce identical records.
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    records: list[ResultsRecord] = []
    for s in scenarios:
        validate_scenario(s)
        for _ in range(repeats):
            records.extend(records_from_result(run_full_protocol(s), s, run_id=len(records)))
    return records


# ---------------------------------------------------------------------------
# export / import

# The JSON export is ``json.dumps(payload, indent=2, sort_keys=True)``, byte
# for byte, without json's pure-Python encoder, which any indent selects.
# A record's summary is encoded by the C encoder (no indent), whose item
# separator carries the newline and indent of depth 2; a raw newline is
# always escaped inside a JSON string, so every ",\n" in the encoded summary
# is a separator, and the trace goes in at its sorted place.  Trace rows,
# which are most of a file, fill one template of their sorted fields with
# json's own spellings: int.__repr__, float.__repr__ (NaN, Infinity and
# -Infinity when not finite) and encode_basestring_ascii.  That holds for
# the exact types of TRACE_TYPES, which _trace_columns checks first.
_FIELD_SEP = ",\n    "  # between a record's fields, depth 2
_RECORD_ENCODER = json.JSONEncoder(sort_keys=True, separators=(_FIELD_SEP, ": "))
# summary fields that sort after "trace"; the trace goes in front of them
_AFTER_TRACE = sum(name > "trace" for name in SUMMARY_COLUMNS)
_SORTED_TRACE = sorted(TRACE_TYPES)
_sorted_values = itemgetter(*_SORTED_TRACE)
_ROW_SEP = ",\n      "  # between trace rows, depth 3
_ROW_JSON = (
    "{\n"
    + ",\n".join(f"        {encode_basestring_ascii(name)}: %s" for name in _SORTED_TRACE)
    + "\n      }"
)


def _float_json(x: float) -> str:
    """``x`` as json writes it."""
    if x != x:
        return "NaN"
    if x - x != 0.0:
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


def _spelled(kind: type, column: tuple) -> Iterable:
    """A column of one type as json spells its values."""
    if kind is float:
        return map(float.__repr__ if all(map(math.isfinite, column)) else _float_json, column)
    if kind is str:
        return map(encode_basestring_ascii, column)
    return column  # an int's %s is its int.__repr__


def _check_trace_row(row: dict[str, Any]) -> None:
    """Raise a ValueError naming the first field at fault in ``row``."""
    for name in row:
        if name not in TRACE_TYPES:
            raise ValueError(f"trace row has the field {name!r}, which is not a trace column")
    for name, kind in TRACE_TYPES.items():
        if name not in row:
            raise ValueError(f"trace row lacks the field {name!r}")
        if type(row[name]) is not kind:
            raise ValueError(
                f"trace field {name!r} holds {row[name]!r}, "
                f"a {type(row[name]).__name__} where a {kind.__name__} belongs"
            )


def _trace_columns(trace: list[dict[str, Any]]) -> list[tuple]:
    """The values of the trace's rows field by field, fields sorted.

    Every row must hold exactly the fields of TRACE_TYPES, each value of
    exactly its type (so a bool is no int), or a ValueError names the first
    field at fault.  CSV and JSON exports both check this before they
    open a file.
    """
    if not trace:
        return []
    try:
        columns = list(zip(*map(_sorted_values, trace)))
    except KeyError:
        columns = []
    if (
        columns
        and set(map(len, trace)) == {len(_SORTED_TRACE)}
        and all(
            set(map(type, col)) == {TRACE_TYPES[name]}
            for name, col in zip(_SORTED_TRACE, columns)
        )
    ):
        return columns
    for row in trace:
        _check_trace_row(row)
    raise AssertionError("a faulty trace passed every row check")


def _trace_json(trace: list[dict[str, Any]]) -> str:
    """A trace list of flat rows as ``json.dumps`` writes it at depth 2."""
    if not trace:
        return "[]"
    spelled = [
        _spelled(TRACE_TYPES[name], col) for name, col in zip(_SORTED_TRACE, _trace_columns(trace))
    ]
    rows = _ROW_SEP.join([_ROW_JSON] * len(trace)) % tuple(chain.from_iterable(zip(*spelled)))
    return "[\n      " + rows + "\n    ]"


def _record_json(record: ResultsRecord) -> str:
    """One record, trace inline, as ``json.dumps`` writes it at depth 1."""
    summary = _RECORD_ENCODER.encode(record.summary_row())
    fields = summary[1:-1].rsplit(_FIELD_SEP, _AFTER_TRACE)
    fields.insert(len(fields) - _AFTER_TRACE, '"trace": ' + _trace_json(record.trace))
    return "{\n    " + _FIELD_SEP.join(fields) + "\n  }"


def _write_text(path: Path, text: str, newline: str | None) -> None:
    """Write ``text`` over ``path`` in place: no truncation to zero first.

    The file keeps its inode, mode, links and symlink target, as with
    ``open(path, "w")``.  Writing the new text and then cutting the file at
    its end replaces any longer old content; unlike a truncate-to-zero
    rewrite, it starts no forced writeback on close (ext4 ``auto_da_alloc``).
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", encoding="utf-8", newline=newline) as fh:
        fh.write(text)
        fh.truncate()


def _csv_text(columns: list[str], rows: Iterable[dict[str, Any]]) -> str:
    buf = io.StringIO(newline="")
    w = csv.DictWriter(buf, fieldnames=columns)
    w.writeheader()
    w.writerows(rows)
    return buf.getvalue()


def export_results(records: list[ResultsRecord], fmt: str, path: str) -> list[str]:
    """Write records; returns the list of files written.

    JSON holds full records with inline traces, laid out as
    ``json.dumps(payload, indent=2, sort_keys=True)`` plus a newline.  CSV
    writes the summary table at ``path`` and the visited-node trace rows
    next to it as ``<stem>_trace.csv``.  Every file's text is built before
    any file is opened, so a record that fails to serialize leaves any old
    files untouched; an existing file is rewritten in place.
    """
    p = Path(path)
    if fmt == "json":
        body = ",\n  ".join(map(_record_json, records))
        text = "[\n  " + body + "\n]\n" if records else "[]\n"
        _write_text(p, text, None)
        return [str(p)]
    if fmt == "csv":
        _trace_columns([row for r in records for row in r.trace])
        trace_path = p.with_name(p.stem + "_trace.csv")
        summary = _csv_text(SUMMARY_COLUMNS, (r.summary_row() for r in records))
        trace = _csv_text(TRACE_COLUMNS, (row for r in records for row in r.trace))
        _write_text(p, summary, "")
        _write_text(trace_path, trace, "")
        return [str(p), str(trace_path)]
    raise ValueError(f"unknown export format {fmt!r}; use csv or json")


def load_results(path: str) -> list[dict[str, Any]]:
    """Read back an exported summary (either format) as plain dicts."""
    p = Path(path)
    if p.suffix == ".json":
        with open(p, encoding="utf-8") as fh:
            payload = json.load(fh)
        for rec in payload:
            rec.pop("trace", None)
        return payload
    with open(p, encoding="utf-8", newline="") as fh:
        return [{k: _CSV_TYPES[k](v) for k, v in row.items()} for row in csv.DictReader(fh)]
