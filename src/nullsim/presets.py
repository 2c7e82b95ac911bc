"""Shipped calibration presets.

Each preset reproduces one of the reference measurements the simulator is
calibrated against: flat-channel nulling depth, the power-correction gain
on a fading ensemble, reconfiguration delays under duty cycling, and the
multi-user search speedup.  ``run_repro`` executes a preset and returns
result records plus a printable summary table.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import groupby

from .campaign import ResultsRecord, run_scenarios, sweep_points
from .scenario import (
    BackhaulConfig,
    ChannelSpec,
    DutyCycleConfig,
    Scenario,
    SearchSpec,
)
from .beamforming import ArrayGeometry

# leaf centers of the default depth-4 ternary tree over [-90, 90]
_LEAF_WIDTH = 180.0 / 81.0
_COLOCATED = -90.0 + 30.5 * _LEAF_WIDTH      # ~-22.2 deg
_ADJACENT = -90.0 + 31.5 * _LEAF_WIDTH       # ~-20.0 deg, neighboring leaf
_SEPARATE = -90.0 + 56.5 * _LEAF_WIDTH       # ~35.6 deg, different top sector


def scenario_fig7_cable() -> Scenario:
    """Flat single-ray channel, the over-cable nulling-depth setup.

    The station sits exactly on a leaf of the search tree, so the protocol
    can drive the interference all the way down to the noise floor.
    """
    return Scenario(
        seed=7,
        user_angles_deg=(0.0,),
        geometry=ArrayGeometry(k_antennas=8),
        channel=ChannelSpec(preset="flat", baseline_inr_db=30.0),
        duty=DutyCycleConfig(duty=0.2),
        backhaul=BackhaulConfig(delay_ms=5.0),
        search=SearchSpec(mode="tree"),
    )


def scenario_fig8_powercorr() -> Scenario:
    """Indoor-ensemble base scenario; the runner varies seed and correction."""
    return Scenario(
        seed=0,
        user_angles_deg=(-20.0,),
        geometry=ArrayGeometry(k_antennas=4),
        channel=ChannelSpec(preset="orbit-like", baseline_inr_db=30.0),
        duty=DutyCycleConfig(duty=0.2),
        backhaul=BackhaulConfig(delay_ms=5.0),
        search=SearchSpec(mode="tree", power_correction=True),
    )


def scenario_fig9_delay() -> Scenario:
    """Delay sweep base: K=8 defaults, flat channel."""
    return Scenario(
        seed=9,
        user_angles_deg=(0.0,),
        geometry=ArrayGeometry(k_antennas=8),
        channel=ChannelSpec(preset="flat", baseline_inr_db=30.0),
        duty=DutyCycleConfig(duty=0.05),
        backhaul=BackhaulConfig(delay_ms=105.0),
        search=SearchSpec(mode="tree"),
        sweep_backhaul_ms=(5.0, 50.0, 105.0),
        sweep_duty=(0.05, 0.2),
    )


def scenario_fig10_multiuser() -> Scenario:
    """Four stations: two co-located, one adjacent, one separate."""
    return Scenario(
        seed=10,
        user_angles_deg=(_COLOCATED, _COLOCATED, _ADJACENT, _SEPARATE),
        geometry=ArrayGeometry(k_antennas=8),
        channel=ChannelSpec(preset="flat", baseline_inr_db=30.0),
        duty=DutyCycleConfig(duty=0.05),
        backhaul=BackhaulConfig(delay_ms=50.0),
        search=SearchSpec(mode="multiuser", power_correction=False),
    )


# reference points the presets are calibrated against
ORBIT_REF_MEAN_DELTA_DB = 15.7
ORBIT_REF_MEAN_NULLS = 2.7
ORBIT_REF_CORRECTION_GAIN_DB = 3.7
DELAY_REF_MS = {
    ("tree", 0.2, 5.0): 230.0,
    ("tree", 0.05, 105.0): 1100.0,
    ("tree", 0.2, 105.0): 650.0,
    ("linear", 0.05, 105.0): 6600.0,
}
ORBIT_ENSEMBLE_SIZE = 27


def _repro_fig7() -> tuple[list[ResultsRecord], list[str]]:
    base = scenario_fig7_cable()
    records = run_scenarios(
        [
            replace(base, channel=replace(base.channel, baseline_inr_db=level_db))
            for level_db in (5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0)
        ]
    )
    lines = ["baseline_db  final_db  delta_db"] + [
        f"{r.baseline_inr_db:11.2f} {r.final_inr_db:9.2f} {r.delta_inr_db:9.2f}"
        for r in records
    ]
    return records, lines


def _repro_fig8() -> tuple[list[ResultsRecord], list[str]]:
    base = scenario_fig8_powercorr()
    n = ORBIT_ENSEMBLE_SIZE
    records = run_scenarios(
        [
            replace(
                base,
                seed=base.seed + i,
                search=replace(base.search, power_correction=corrected),
            )
            for corrected in (True, False)
            for i in range(n)
        ]
    )
    on, off = records[:n], records[n:]
    mean_on = sum(r.delta_inr_db for r in on) / n
    mean_off = sum(r.delta_inr_db for r in off) / n
    nulls = sum(r.nulls_used for r in on)
    lines = [
        f"ensemble size            {n}",
        f"mean dINR corrected      {mean_on:6.2f} dB   (reference {ORBIT_REF_MEAN_DELTA_DB})",
        f"mean dINR uncorrected    {mean_off:6.2f} dB",
        f"correction gain          {mean_on - mean_off:6.2f} dB   (reference {ORBIT_REF_CORRECTION_GAIN_DB})",
        f"mean nulls used          {nulls / n:6.2f}      (reference {ORBIT_REF_MEAN_NULLS})",
    ]
    return records, lines


def _repro_fig9() -> tuple[list[ResultsRecord], list[str]]:
    """The campaign sweep of the tree variant, then of the linear one."""
    base = scenario_fig9_delay()
    records = run_scenarios(
        [
            point
            for mode in ("tree", "linear")
            for point in sweep_points(replace(base, search=replace(base.search, mode=mode)))
        ]
    )
    lines = ["mode    duty  backhaul_ms  delay_ms  reference_ms"]
    for r in records:
        ref = DELAY_REF_MS.get((r.mode, r.duty, r.backhaul_ms))
        lines.append(
            f"{r.mode:7s} {r.duty:4.2f} {r.backhaul_ms:11.1f} {r.total_delay_ms:9.1f}"
            + (f" {ref:13.1f}" if ref else "")
        )
    return records, lines


def _repro_fig10() -> tuple[list[ResultsRecord], list[str]]:
    """Each user count runs the joint search, then each user alone."""
    base = scenario_fig10_multiuser()
    alone = replace(base.search, mode="tree", power_correction=False)
    counts = range(1, len(base.user_angles_deg) + 1)
    scenarios = []
    for n in counts:
        users = base.user_angles_deg[:n]
        scenarios.append(replace(base, user_angles_deg=users))
        scenarios += [replace(base, user_angles_deg=(a,), search=alone) for a in users]
    records = run_scenarios(scenarios)
    # one run's records share its run_id; the first carries the run's delay
    delays = (next(run).total_delay_ms for _, run in groupby(records, lambda r: r.run_id))
    lines = ["n_users  parallel_ms  sequential_ms  speedup"]
    for n in counts:
        parallel_ms = next(delays)
        sequential_ms = sum(next(delays) for _ in range(n))
        lines.append(
            f"{n:7d} {parallel_ms:12.1f} {sequential_ms:14.1f} "
            f"{sequential_ms / parallel_ms:8.2f}"
        )
    return records, lines


RUNNERS = {
    "fig7-cable": _repro_fig7,
    "fig8-powercorr": _repro_fig8,
    "fig9-delay": _repro_fig9,
    "fig10-multiuser": _repro_fig10,
}
PRESET_NAMES = tuple(RUNNERS)


def run_repro(name: str) -> tuple[list[ResultsRecord], list[str]]:
    if name not in RUNNERS:
        raise KeyError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    return RUNNERS[name]()
