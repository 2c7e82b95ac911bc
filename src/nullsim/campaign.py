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
from functools import lru_cache, partial
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from operator import attrgetter, itemgetter, mul
from pathlib import Path
from typing import Any, Iterable, Iterator, get_type_hints

from .channel import MIN_MEASURABLE_POWER
from .coexsim import ProtocolResult, run_full_protocol
from .nullsearch import FLOAT_DECIMALS, MAX_TREE_NODES, NullConfig
from .scenario import Scenario, ScenarioError, scenario_hash, validate_scenario

# a trace row's fields, in column order, and their types, as
# ResultsRecord.trace_rows gives them
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
    """One served user's outcome of one run.

    The fields but ``trace`` are the summary, each a plain ``int``,
    ``float`` or ``str`` as annotated.  ``trace`` lists the user's tested
    configs in test order, each paired with its measured INR in dB, rounded
    as the summary's floats are.  :meth:`summary_row` and
    :meth:`trace_rows` give both as the rows of the CSV tables.
    """

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
    trace: list[tuple[NullConfig, float]] = field(default_factory=list)

    def summary_row(self) -> dict[str, Any]:
        """The summary fields, in column order; the trace is left out."""
        return {name: getattr(self, name) for name in SUMMARY_COLUMNS}

    def trace_rows(self) -> list[dict[str, Any]]:
        """The trace as rows of :data:`TRACE_COLUMNS`, in test order."""
        return [
            {
                "run_id": self.run_id,
                "user": self.user,
                "node": cfg.label,
                "level": cfg.level,
                "null_angles_deg": cfg.null_angles_text,
                "inr_db": inr_db,
            }
            for cfg, inr_db in self.trace
        ]


# a summary row's columns, in order, and their types: the record's fields but
# the trace
_SUMMARY_TYPES = {
    name: kind for name, kind in get_type_hints(ResultsRecord).items() if name != "trace"
}
SUMMARY_COLUMNS = list(_SUMMARY_TYPES)
# the type of each column of either CSV table
_CSV_TYPES = {**_SUMMARY_TYPES, **TRACE_TYPES}

_first = itemgetter(0)
_second = itemgetter(1)


def _trace_db(inrs: Iterable[float]) -> Iterator[float]:
    """Linear INRs in dB, as ``_r(InrReport(...).aggregate_db)`` gives them.

    The chain of C calls spends no Python frame on a value.  It takes
    ``math.log10``, one call a value, and never ``np.log10``: numpy's
    vectorized log10 differs from ``math.log10`` in the last bit on about
    1 % of inputs (18,183 of 2,000,000 log-uniform values from 1e-12 to
    1e12 on an AVX-512 x86-64 host), and at a rounding boundary of the
    sixth decimal that bit moves the exported digits.
    """
    floored = map(max, inrs, repeat(MIN_MEASURABLE_POWER))
    db = map(partial(mul, 10.0), map(math.log10, floored))
    return map(float, map(format, db, repeat(_DECIMALS)))


def records_from_result(
    result: ProtocolResult, scenario: Scenario, run_id: int = 0
) -> list[ResultsRecord]:
    """One record per served user of ``result``, its run numbered ``run_id``.

    A record's trace pairs each of the user's tested configs, the layout's
    own objects, with its INR in dB; no row is built until a reader asks
    for :meth:`ResultsRecord.trace_rows`.
    """
    tl = result.timeline
    power_ms = tl.power_cycles * tl.t_csat_us / 1000.0
    digest = scenario_hash(scenario)
    out = []
    for user in result.users:
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
                trace=list(
                    zip(map(_first, user.trace), _trace_db(map(_second, user.trace)))
                ),
            )
        )
    return out


def sweep_points(scenario: Scenario) -> list[Scenario]:
    """The scenario's declared grid, duty-major, one scenario per point.

    A missing grid holds the scenario's own value; the points carry no
    grids of their own.  A scenario without grids fails ``no_sweep_grids``.
    """
    if not scenario.sweep_backhaul_ms and not scenario.sweep_duty:
        raise ScenarioError("no_sweep_grids", "the scenario declares no sweep grid to sweep")
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
# which are most of a file, are spelled from three pieces, in the sorted
# order of their fields: the INR's text, the config's level, node and null
# angles (the same for every run that tests the config, so built once, see
# _config_json), and the record's run_id and user.  Each piece takes json's
# own spellings: int.__repr__, float.__repr__ (NaN, Infinity and -Infinity
# when not finite) and encode_basestring_ascii.  That holds for the exact
# types that _check_records asks for first.
_FIELD_SEP = ",\n    "  # between a record's fields, depth 2
_RECORD_ENCODER = json.JSONEncoder(sort_keys=True, separators=(_FIELD_SEP, ": "))
# summary fields that sort after "trace"; the trace goes in front of them
_AFTER_TRACE = sum(name > "trace" for name in SUMMARY_COLUMNS)
# a trace row's start, with the separator before it (depth 3) that the
# first row drops
_ROW_START = ',\n      {\n        "inr_db": '
_label = attrgetter("label")
_angles_text = attrgetter("null_angles_text")
_node_id = attrgetter("node_id")


def _float_json(x: float) -> str:
    """``x`` as json writes it."""
    if x != x:
        return "NaN"
    if x - x != 0.0:
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


@lru_cache(maxsize=2 * MAX_TREE_NODES)
def _config_json(label: str, angles_text: str, level: int) -> str:
    """A config's part of a JSON trace row: from the comma after the INR up
    to ``run_id``'s value.

    Keyed by the config's text and level (its node id's length, which the
    label alone does not fix), so every layout that spells a config alike
    shares one string; the cache holds two of the largest trees or scan
    grids.
    """
    return (
        f',\n        "level": {level!r},\n        "node": {encode_basestring_ascii(label)},'
        f'\n        "null_angles_deg": {encode_basestring_ascii(angles_text)},'
        '\n        "run_id": '
    )


def _trace_json(record: ResultsRecord) -> str:
    """A record's trace as ``json.dumps`` writes it at depth 2."""
    trace = record.trace
    if not trace:
        return "[]"
    configs = list(map(_first, trace))
    inrs = list(map(_second, trace))
    spelled = map(float.__repr__ if all(map(math.isfinite, inrs)) else _float_json, inrs)
    levels = map(len, map(_node_id, configs))
    texts = map(_config_json, map(_label, configs), map(_angles_text, configs), levels)
    end = f'{record.run_id!r},\n        "user": {record.user!r}\n      }}'
    rows = "".join(chain.from_iterable(zip(repeat(_ROW_START), spelled, texts, repeat(end))))
    return "[" + rows[1:] + "\n    ]"


def _record_json(record: ResultsRecord) -> str:
    """One record, trace inline, as ``json.dumps`` writes it at depth 1."""
    summary = _RECORD_ENCODER.encode(record.summary_row())
    fields = summary[1:-1].rsplit(_FIELD_SEP, _AFTER_TRACE)
    fields.insert(len(fields) - _AFTER_TRACE, '"trace": ' + _trace_json(record))
    return "{\n    " + _FIELD_SEP.join(fields) + "\n  }"


def _misfit(what: str, value: Any, kind: type) -> ValueError:
    return ValueError(
        f"{what} holds {value!r}, a {type(value).__name__} where a {kind.__name__} belongs"
    )


def _check_records(records: list[ResultsRecord]) -> None:
    """Raise a ValueError naming the first fault in ``records``.

    Every summary field must hold exactly its annotated type (so a bool is
    no int), the trace must be a list, and each trace entry a tuple of
    exactly a :class:`NullConfig` and a ``float``: the types both formats
    spell and read back.  JSON would spell a mistyped value (a bool as
    ``true``, an int in a float field without a point) in a way the CSV
    reader does not read back.  Both check this before they open a file.
    """
    for record in records:
        for name, kind in _SUMMARY_TYPES.items():
            value = getattr(record, name)
            if type(value) is not kind:
                raise _misfit(f"summary field {name!r}", value, kind)
        trace = record.trace
        if type(trace) is not list:
            raise _misfit("the trace", trace, list)
        if (
            set(map(type, trace)) <= {tuple}
            and set(map(len, trace)) <= {2}
            and set(map(type, map(_first, trace))) <= {NullConfig}
            and set(map(type, map(_second, trace))) <= {float}
        ):
            continue
        for i, entry in enumerate(trace):
            if type(entry) is not tuple or len(entry) != 2:
                raise ValueError(f"trace entry {i} is {entry!r}, not a (NullConfig, float) pair")
            cfg, inr_db = entry
            if type(cfg) is not NullConfig:
                raise _misfit(f"trace entry {i}'s config", cfg, NullConfig)
            if type(inr_db) is not float:
                raise _misfit(f"trace entry {i}'s INR", inr_db, float)


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
    ``json.dumps([dict(r.summary_row(), trace=r.trace_rows()) for r in
    records], indent=2, sort_keys=True)`` plus a newline, and each tested
    config's part of a trace row is built once, not once per run.  CSV
    writes the summary rows at ``path`` and the trace rows next to it as
    ``<stem>_trace.csv``.  The records are checked (see
    :func:`_check_records`) and every file's text is built before any file
    is opened, so a record that fails to serialize leaves any old files
    untouched; an existing file is rewritten in place.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown export format {fmt!r}; use csv or json")
    _check_records(records)
    p = Path(path)
    if fmt == "json":
        body = ",\n  ".join(map(_record_json, records))
        text = "[\n  " + body + "\n]\n" if records else "[]\n"
        _write_text(p, text, None)
        return [str(p)]
    trace_path = p.with_name(p.stem + "_trace.csv")
    summary = _csv_text(SUMMARY_COLUMNS, (r.summary_row() for r in records))
    trace = _csv_text(TRACE_COLUMNS, chain.from_iterable(r.trace_rows() for r in records))
    _write_text(p, summary, "")
    _write_text(trace_path, trace, "")
    return [str(p), str(trace_path)]


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
