#!/usr/bin/env python3
"""nullsim benchmark: one workload, one workload seed, one run.

    python3 perfbench/run.py --workload tree-ensemble --seed 1 --seconds 50 --trace 0

Run from the root of a nullsim checkout; nullsim is imported from its
``src``.  The workload's scenarios are generated from the seed and fed back
to back (a closed loop, one process, BLAS/OpenMP pinned to one thread)
through the public path ``scenario_from_dict`` -> ``run_full_protocol`` ->
``records_from_result`` -> ``export_results(json)``.  Every scenario's
outputs are checked on its first run and every rerun must export the same
bytes.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` adds a
traced pass and prints the per-layer metrics.  The last line of stdout is
one JSON object; the exit code is 1 if any output check failed.
"""

from __future__ import annotations

import os

# pinned before numpy is imported, here and in the set-up subprocesses
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict, deque
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

SETUP_REPEATS = 3
WALL_LIMIT_S = 150.0        # stop adding reruns past this, whatever --seconds says
CLOCK_WINDOW = 7            # reference runs in the host speed's running median

# the public functions timed in the traced pass, by module
LAYERS = (
    ("phy_grid", ("build_rb_sc_map", "build_sc_rb_map")),
    ("beamforming", ("lcmv_weights", "build_weight_matrix", "power_correct")),
    ("channel", ("channel_response", "rx_power", "sampled_inr", "power_report")),
    ("nullsearch", ("build_tree", "linear_search", "multi_user_search", "record_results", "advance")),
    ("coexsim", ("run_full_protocol", "simulate_tree_search", "simulate_linear_search",
                 "simulate_multi_user")),
    ("scenario", ("scenario_from_dict", "validate_scenario")),
    ("campaign", ("records_from_result", "export_results")),
)
TRACED = tuple((m, f) for m, fs in LAYERS for f in fs)


def _tree_key(a: dict) -> tuple:
    nulls = a["nulls_per_level"]
    return (a["geom"], a["beam_angle_deg"], a["fanout"], a["depth"],
            None if nulls is None else tuple(nulls), tuple(a["root_sector"]))


def _weight_matrix_key(a: dict) -> tuple:
    """The (beam, nulls, corrected) key of a weight matrix, per geometry."""
    return (a["geom"], a["beam_deg"], tuple(a["null_degs"]), a["report"] is not None)


PROBES = {
    "nullsearch.build_tree": _tree_key,
    "beamforming.build_weight_matrix": _weight_matrix_key,
}


@dataclass
class Outcome:
    """One pass of one scenario through the public path."""

    seconds: float
    result: object = None
    records: list = field(default_factory=list)
    error: BaseException | None = None
    export: bytes = b""

    @property
    def fingerprint(self) -> bytes:
        if self.error is not None:
            return f"raised {type(self.error).__name__}: {self.error}".encode()
        return self.export


def run_scenario(nullsim, raw: dict, path: Path) -> Outcome:
    """Time the public path for one scenario; a raise ends the scenario."""
    start = time.perf_counter()
    try:
        scenario = nullsim.scenario_from_dict(raw)
        result = nullsim.run_full_protocol(scenario)
        records = nullsim.records_from_result(result, scenario)
        nullsim.export_results(records, "json", str(path))
    except Exception as exc:  # counted and reported by class; checked below
        return Outcome(time.perf_counter() - start, error=exc)
    seconds = time.perf_counter() - start
    return Outcome(seconds, result, records, export=path.read_bytes())


class HostClock:
    """A fixed computation, independent of nullsim, run after every timed
    scenario run.

    A shared 2-core host can run the same code up to 1.8 times more slowly
    in phases that last minutes, long enough to cover whole runs.  Scenario
    latency divided by the running median of this kernel's time, measured
    moments apart, cancels most of that drift.  The kernel mixes what
    nullsim spends its time on: small complex numpy solves and interpreted
    Python.
    """

    def __init__(self, numpy):
        rng = numpy.random.default_rng(0)
        self._np = numpy
        self._gram = [m.conj().T @ m + 1e-3 * numpy.eye(8) for m in (
            rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)) for _ in range(16))]
        self._rhs = [rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
                     for _ in range(16)]
        self._recent: deque[float] = deque(maxlen=CLOCK_WINDOW)
        self.samples: list[float] = []

    def tick(self) -> float:
        """Run the kernel once; return the median of its last runs, in seconds."""
        np = self._np
        start = time.perf_counter()
        for i in range(100):
            np.abs(np.linalg.solve(self._gram[i % 16], self._rhs[i % 16])).sum()
        table: dict[int, int] = {}
        for i in range(6000):
            table[i & 255] = table.get(i & 255, 0) + i * 3 % 7
        seconds = time.perf_counter() - start
        self._recent.append(seconds)
        self.samples.append(seconds)
        return statistics.median(self._recent)


def raised_by_joint_solve(nullsim, exc: BaseException) -> bool:
    """Whether ``exc`` was raised in an ``lcmv_weights`` call made by
    ``run_full_protocol`` itself, as the multi-user joint solve is."""
    package = Path(nullsim.__file__).resolve().parent
    frames = [
        (Path(f.filename).name, f.name)
        for f in traceback.extract_tb(exc.__traceback__)
        if Path(f.filename).resolve().parent == package
    ]
    return frames == [("coexsim.py", "run_full_protocol"), ("beamforming.py", "lcmv_weights")]


def check_outcome(nullsim, raw: dict, out: Outcome, path: Path) -> list[str]:
    """Output checks for a scenario's first run; returns the violations."""
    mode = raw["search"]["mode"]
    dof = raw["geometry"]["k_antennas"] - 2
    if out.error is not None:
        exc = out.error
        if mode == "multiuser" and isinstance(exc, nullsim.DofExhaustedError):
            # the known multi-user abort: counted as a failure, not a violation
            users = list(range(len(raw["user_angles_deg"])))
            if sorted(exc.accommodated + exc.excluded) != users or exc.limit != dof:
                return [f"DofExhaustedError names users {exc.accommodated}+{exc.excluded}"]
            return []
        if (
            mode == "multiuser"
            and isinstance(exc, nullsim.DegenerateConstraintsError)
            and raised_by_joint_solve(nullsim, exc)
        ):
            # the same join defect: the union of per-user nulls can hold two
            # directions the array cannot tell apart
            return []
        return [f"raised {type(exc).__name__}: {exc}"]
    bad = []
    tl = out.result.timeline
    if tl.identity_total_us() != tl.total_delay_us:
        bad.append(f"timeline identity {tl.identity_total_us()} != {tl.total_delay_us} us")
    for user in out.result.users:
        if mode in ("tree", "linear") and user.final.aggregate > user.baseline.aggregate:
            bad.append(f"user {user.user} final INR above baseline")
        if user.nulls_used > dof:
            bad.append(f"user {user.user} uses {user.nulls_used} nulls > K-2")
    joint = out.result.joint_null_angles
    if joint is not None and len(joint) > dof:
        bad.append(f"{len(joint)} joint nulls > K-2")
    if nullsim.load_results(str(path)) != [r.summary_row() for r in out.records]:
        bad.append("exported JSON does not read back through load_results")
    return bad


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of a fresh interpreter building the scenarios."""
    cmd = [sys.executable, str(Path(workloads.__file__)), "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer, outcomes: list[Outcome]) -> dict[str, tuple[float, str]]:
    """Per-scenario per-layer metrics of the traced pass."""
    n = len(outcomes)
    completed = {i for i, o in enumerate(outcomes) if o.error is None}
    calls, self_ns, total_ns = Counter(), Counter(), Counter()
    tree_solves = 0
    names = tracer.names
    spans = tracer.spans
    for name_id, start, end, own, parent, request in spans:
        calls[name_id] += 1
        self_ns[name_id] += own
        total_ns[name_id] += end - start
        if (
            names[name_id] == "beamforming.lcmv_weights"
            and parent >= 0
            and names[spans[parent][0]] == "nullsearch.build_tree"
            and request in completed
        ):
            tree_solves += 1
    metrics: dict[str, tuple[float, str]] = {}
    for name_id, name in enumerate(names):
        metrics[f"{name}.calls"] = (calls[name_id] / n, "1/scenario")
        metrics[f"{name}.self_ms"] = (self_ns[name_id] / 1e6 / n, "ms/scenario")
    validate = names.index("scenario.validate_scenario")
    metrics["scenario.validate_scenario.total_ms"] = (total_ns[validate] / 1e6 / n, "ms/scenario")

    tested = sum(outcomes[i].records[0].configs_tested for i in completed)
    metrics["nullsearch.solve_use_ratio"] = (tested / tree_solves if tree_solves else 0.0, "ratio")

    tree_keys = tracer.keys["nullsearch.build_tree"]
    distinct_trees = len({k for _, k in tree_keys})
    metrics["nullsearch.build_tree.distinct_ratio"] = (
        distinct_trees / len(tree_keys) if tree_keys else 0.0, "ratio")

    per_request = defaultdict(set)
    wm_keys = tracer.keys["beamforming.build_weight_matrix"]
    for request, key in wm_keys:
        per_request[request].add(key)
    distinct_wm = sum(len(keys) for keys in per_request.values())
    metrics["beamforming.build_weight_matrix.distinct_ratio"] = (
        distinct_wm / len(wm_keys) if wm_keys else 0.0, "ratio")

    done = [outcomes[i] for i in sorted(completed)]
    metrics["coexsim.timeline_events"] = (
        statistics.mean(len(o.result.timeline.events) for o in done) if done else 0.0, "count")
    metrics["campaign.export_results.bytes"] = (
        statistics.mean(len(o.export) for o in done) if done else 0.0, "bytes")
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    wall_start = time.perf_counter()
    nullsim = workloads.import_nullsim()
    import numpy

    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    raws, redraws = workloads.build_scenarios(nullsim, args.workload, args.seed)
    n = len(raws)
    timed = workloads.TIMED_SCENARIOS[args.workload]

    OUT_DIR.mkdir(exist_ok=True)
    scratch = OUT_DIR / f"exports-{os.getpid()}"
    scratch.mkdir()
    try:
        paths = [scratch / f"scenario-{i}.json" for i in range(n)]
        run_scenario(nullsim, raws[0], paths[0])  # warm-up, untimed
        clock = HostClock(numpy)
        for _ in range(CLOCK_WINDOW):
            clock.tick()

        # first pass: every scenario once, timed, then checked
        violations: list[str] = []
        first: list[Outcome] = []
        # every run of each timed scenario, in seconds and in reference runs;
        # a scenario's latency is the median of its runs
        seconds: list[list[float]] = [[] for _ in range(timed)]
        cost: list[list[float]] = [[] for _ in range(timed)]

        def record(i: int, out: Outcome) -> None:
            seconds[i].append(out.seconds)
            cost[i].append(out.seconds / clock.tick())

        for i, raw in enumerate(raws):
            out = run_scenario(nullsim, raw, paths[i])
            violations += [f"scenario {i}: {v}" for v in check_outcome(nullsim, raw, out, paths[i])]
            first.append(out)
            if i < timed:
                record(i, out)
        reference = [o.fingerprint for o in first]
        # scenarios past the timed ones feed only the outcome means and
        # do not count against --seconds
        timed_seconds = sum(map(sum, seconds)) + sum(clock.samples)

        def rerun(i: int) -> Outcome:
            out = run_scenario(nullsim, raws[i], paths[i])
            if out.fingerprint != reference[i]:
                violations.append(f"scenario {i}: rerun output differs from its first run")
            return out

        reruns = 0
        if args.trace:
            # untraced and traced runs alternate, scenario by scenario, so
            # that the overhead compares runs made moments apart
            tracer = Tracer(PROBES)
            tracer.install(TRACED)
            untraced_seconds = 0.0
            traced: list[Outcome] = []
            for i in range(timed):
                untraced_seconds += rerun(i).seconds
                tracer.request = i
                tracer.enable()
                try:
                    traced.append(rerun(i))
                finally:
                    tracer.disable()
            traced_seconds = sum(o.seconds for o in traced)
            reruns = 2 * timed
        else:
            i = 0
            while timed_seconds < args.seconds and time.perf_counter() - wall_start < WALL_LIMIT_S:
                record(i % timed, rerun(i % timed))
                timed_seconds += seconds[i % timed][-1] + clock.samples[-1]
                i += 1
            reruns = i
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failures = Counter(type(o.error).__name__ for o in first if o.error is not None)
    served = [r for o in first for r in o.records]
    above = sum(1 for r in served if r.final_inr_db > r.baseline_inr_db)
    digest = hashlib.sha256(b"\0".join(reference)).hexdigest()[:16]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "scenarios": n,
        "redraws": redraws,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "failed_frac": sum(failures.values()) / n,
        "failures_by_class": dict(failures),
        "delta_inr_db_mean": statistics.fmean([r.delta_inr_db for r in served] or [0.0]),
        "served_users_above_baseline": above,
        "records_digest": digest,
    }

    if args.trace:
        metrics = layer_metrics(tracer, traced)
        # simulated outcomes of the first pass that are too seed-dependent
        # on multiuser-union to carry an end-to-end bound
        metrics["outcome.delta_inr_db_mean"] = (info["delta_inr_db_mean"], "dB")
        metrics["outcome.failed_frac"] = (info["failed_frac"], "ratio")
        # the gap between untraced and traced scenarios_per_s, as a share of untraced
        metrics["tracing.overhead_pct"] = (100.0 * (1.0 - untraced_seconds / traced_seconds), "%")
        tracer.write_csv(str(OUT_DIR / f"{args.workload}-spans.csv"))
    else:
        latency = [statistics.median(runs) for runs in seconds]
        latency_ref = [statistics.median(runs) for runs in cost]
        metrics = {
            "scenarios_per_ref": (timed / sum(latency_ref), "1/ref"),
            "scenario_ref_p50": (statistics.median(latency_ref), "ref"),
            "scenario_ref_p75": (percentile(latency_ref, 75), "ref"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "sim_delay_ms_mean": (statistics.fmean([r.total_delay_ms for r in served] or [0.0]), "ms"),
        }
        info["latency_samples"] = timed
        info["scenarios_per_s"] = timed / sum(latency)
        info["scenario_ms_p50"] = 1000 * statistics.median(latency)
        info["scenario_ms_p75"] = 1000 * percentile(latency, 75)
        info["reference_ms_p50"] = 1000 * statistics.median(clock.samples)
        info["timed_runs"] = timed + reruns
        info["served_users"] = len(served)

    print(
        f"workload {args.workload}  seed {args.seed}  {n} scenarios ({redraws} redrawn)  "
        f"{info['cores']} cores  Python {info['python']}  numpy {info['numpy']}  threads 1"
    )
    if not args.trace:
        print(f"latency samples {timed} (median of {(timed + reruns) / timed:.1f} runs each)  "
              f"served users {len(served)}")
        print(f"host time: scenarios_per_s {info['scenarios_per_s']:.3f}  "
              f"scenario_ms_p50 {info['scenario_ms_p50']:.3f}  "
              f"scenario_ms_p75 {info['scenario_ms_p75']:.3f}  "
              f"reference run p50 {info['reference_ms_p50']:.3f} ms")
    for name, (value, unit) in metrics.items():
        print(f"  {name:60s} {value:14.6f} {unit}")
    failed = sum(failures.values())
    print(f"failed {failed}/{n} ({info['failed_frac']:.4f})  by class {dict(failures) or '{}'}  "
          f"served users above baseline {above}  delta_inr_db_mean {info['delta_inr_db_mean']:.6f} dB")
    print(f"records digest {digest}  reruns checked {reruns}")
    for v in violations[:20]:
        print(f"CHECK FAILED {v}")
    correct = not violations
    result = {
        "correct": correct,
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(result, info=info), indent=2) + "\n"
    )
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
