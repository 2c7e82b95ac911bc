"""Seeded scenario generators for the nullsim benchmark.

Each workload turns a workload seed into a fixed list of scenario dicts in
the public JSON schema.  Values that drive the simulated delay (backhaul
latency, duty cycle, user count, channel preset) are spread over their range
by a seeded stratified design, so the ensemble means move little from seed
to seed; angles and channel seeds are drawn freely.  A scenario that
``scenario_from_dict`` rejects (for example a beam exactly on a candidate null)
is redrawn within its stratum; nothing is ever filtered on its outcome.

Run as a script, this module is the set-up probe: a fresh interpreter
imports nullsim, then builds and validates one workload's scenarios.

    python3 perfbench/workloads.py --workload tree-ensemble --seed 1
"""

from __future__ import annotations

import argparse
import itertools
import random
import sys
from pathlib import Path

WORKLOADS = ("tree-ensemble", "linear-scan", "multiuser-union")

TREE_CHANNELS = 40          # each channel runs twice, correction on and off
LINEAR_SCENARIOS = 42       # seven blocks of the six (duty, preset) cells
MULTIUSER_SCENARIOS = 162   # only 15-20% are served, so outcome means need many

# the leading scenarios whose latency is measured: at least 40, so that 10
# latencies lie beyond p75, and few enough that each runs several times
TIMED_SCENARIOS = {
    "tree-ensemble": 2 * TREE_CHANNELS,
    "linear-scan": LINEAR_SCENARIOS,
    "multiuser-union": 45,     # five blocks of the nine (users, preset) cells
}

CHANNEL_PRESETS = ("flat", "two-ray", "orbit-like")
LINEAR_PRESETS = ("flat", "two-ray")
LINEAR_DUTIES = (0.05, 0.2, 0.5)
LINEAR_BACKHAULS_MS = (5.0, 50.0, 105.0)
NOISE_JITTER = 0.5
MAX_REDRAWS = 100


def repo_src() -> Path:
    """The ``src`` directory of the checkout this benchmark sits in."""
    return Path(__file__).resolve().parent.parent / "src"


def import_nullsim():
    """Import nullsim from this checkout's sources, or exit nonzero without them."""
    src = repo_src()
    if not (src / "nullsim" / "__init__.py").is_file():
        sys.exit(f"perfbench: no nullsim sources at {src}; run from a nullsim checkout")
    sys.path.insert(0, str(src))
    import nullsim

    if Path(nullsim.__file__).resolve().parent != (src / "nullsim").resolve():
        sys.exit(f"perfbench: imported nullsim from {nullsim.__file__}, not {src}")
    return nullsim


def _stratified(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """One uniform draw from each of ``n`` equal bins, in shuffled order."""
    bins = list(range(n))
    rng.shuffle(bins)
    return [lo + (hi - lo) * (b + rng.random()) / n for b in bins]


def _balanced(rng: random.Random, n: int, values: tuple) -> list:
    """``values`` repeated to length ``n``, each whole block a shuffled copy.

    Every prefix made of whole blocks holds each value equally often.
    """
    out: list = []
    while len(out) < n:
        block = list(values)
        rng.shuffle(block)
        out += block
    return out[:n]


def _angle(x: float) -> float:
    return round(x, 1)


def _scenario(**kw) -> dict:
    return {
        "seed": kw["seed"],
        "tx_power": 1.0,
        "ue_angle_deg": kw["beam"],
        "user_angles_deg": kw["users"],
        "geometry": {"k_antennas": kw["k"], "spacing_m": 0.0718, "carrier_freq_hz": 2.412e9},
        "channel": {
            "preset": kw["preset"],
            "angle_offset_deg": 0.0,
            "baseline_inr_db": 30.0,
            "noise_power": 1e-9,
        },
        "duty_cycle": {"t_csat_ms": 40.0, "duty": kw["duty"], "puncture_ms_per_20ms": 2.0},
        "backhaul": {"delay_ms": kw["backhaul"]},
        "sim": {
            "test_slot_ms": 2.0,
            "sample_rate_hz": 50000.0,
            "sample_count": 100,
            "noise_jitter": kw["jitter"],
        },
        "search": {
            "mode": kw["mode"],
            "fanout": 3,
            "depth": 4,
            "nulls_per_level": None,
            "power_correction": kw["pc"],
            "linear_grid": None,
        },
    }


def _tree_ensemble(rng: random.Random):
    """fig8-powercorr shape: K=4 orbit-like channels, beam fixed at 21.4 deg.

    Backhaul is spread over 5-105 ms rather than fig8's fixed 5 ms: with a
    fixed backhaul every scenario takes 180 or 220 ms of simulated time and
    ``sim_delay_ms_mean`` reads exactly 200 ms for every seed.
    """
    strata = list(zip(
        _stratified(rng, TREE_CHANNELS, -45.0, 45.0),
        _stratified(rng, TREE_CHANNELS, 5.0, 105.0),
    ))

    def draw(victim: float, backhaul: float) -> list[dict]:
        seed = rng.randrange(2**31)
        return [
            _scenario(
                seed=seed, beam=21.4, users=[_angle(victim)], k=4, preset="orbit-like",
                duty=0.2, backhaul=round(backhaul, 3), jitter=0.0, mode="tree", pc=pc,
            )
            for pc in (True, False)
        ]

    return strata, draw


def _linear_scan(rng: random.Random):
    """165-angle exhaustive scan, K=8, flat or two-ray, one user, jitter on."""
    strata = [(cell,) for cell in _balanced(
        rng, LINEAR_SCENARIOS, tuple(itertools.product(LINEAR_DUTIES, LINEAR_PRESETS)))]

    def draw(cell: tuple[float, str]) -> list[dict]:
        duty, preset = cell
        return [
            _scenario(
                seed=rng.randrange(2**31), beam=_angle(rng.uniform(-60.0, 60.0)),
                users=[_angle(rng.uniform(-45.0, 45.0))], k=8, preset=preset,
                duty=duty, backhaul=rng.choice(LINEAR_BACKHAULS_MS), jitter=NOISE_JITTER,
                mode="linear", pc=False,
            )
        ]

    return strata, draw


def _multiuser_union(rng: random.Random):
    """Shared-slot multi-user tree, K=8, 2-4 users, beam drawn per scenario."""
    n = MULTIUSER_SCENARIOS
    strata = list(zip(
        _balanced(rng, n, tuple(itertools.product((2, 3, 4), CHANNEL_PRESETS))),
        _stratified(rng, n, -60.0, 60.0),
    ))

    def draw(cell: tuple[int, str], beam: float) -> list[dict]:
        count, preset = cell
        return [
            _scenario(
                seed=rng.randrange(2**31), beam=_angle(beam + rng.uniform(-0.5, 0.5)),
                users=[_angle(rng.uniform(-45.0, 45.0)) for _ in range(count)], k=8,
                preset=preset, duty=0.05, backhaul=50.0, jitter=NOISE_JITTER,
                mode="multiuser", pc=False,
            )
        ]

    return strata, draw


_GENERATORS = {
    "tree-ensemble": _tree_ensemble,
    "linear-scan": _linear_scan,
    "multiuser-union": _multiuser_union,
}


def build_scenarios(nullsim, workload: str, seed: int) -> tuple[list[dict], int]:
    """The workload's scenario dicts for ``seed`` and the number of redraws.

    Every returned dict has passed ``scenario_from_dict``.  Each stratum
    draws a group (one scenario, or the correction on/off pair) and draws
    it again only if the schema rejects one of its members.
    """
    rng = random.Random(f"{workload}:{seed}")
    strata, draw = _GENERATORS[workload](rng)
    scenarios: list[dict] = []
    redraws = 0
    for stratum in strata:
        for _ in range(MAX_REDRAWS):
            group = draw(*stratum)
            try:
                for raw in group:
                    nullsim.scenario_from_dict(raw)
            except nullsim.ScenarioError:
                redraws += 1
                continue
            scenarios.extend(group)
            break
        else:
            raise RuntimeError(f"{workload}: no valid scenario in {MAX_REDRAWS} draws")
    return scenarios, redraws


def main() -> None:
    ap = argparse.ArgumentParser(description="Build and validate one workload's scenarios.")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    nullsim = import_nullsim()
    scenarios, _ = build_scenarios(nullsim, args.workload, args.seed)
    print(len(scenarios))


if __name__ == "__main__":
    main()
