"""Scenario files: the single input format of the simulator.

A scenario is a JSON object with a strict schema; unknown keys are
rejected so typos fail loudly instead of silently running defaults.
Every rule violation raises :class:`ScenarioError` carrying a short rule
name (for scripting) and a readable message.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from .beamforming import ArrayGeometry, DegenerateConstraintsError, degenerate_rows
from .channel import (
    ChannelModel,
    flat_channel,
    orbit_like_channel,
    two_ray_channel,
)
from .coexsim import (
    US_PER_MS,
    BackhaulConfig,
    DutyCycleConfig,
    SimConfig,
    configs_per_cycle,
)
from .nullsearch import (
    DEFAULT_LINEAR_GRID,
    ROOT_SECTOR,
    SearchTree,
    TreeShapeError,
    build_tree,
    null_schedule,
)
from .phy_grid import LteGrid, WifiGrid

CHANNEL_PRESETS = ("flat", "two-ray", "orbit-like")
# validation solves stacked K x (K-1) constraint systems, at a cost that
# grows about as K**3.3; a 64-antenna tree of the default shape validates
# in tens of milliseconds
MAX_ANTENNAS = 64
# numpy's standard normal draws never reach this many deviations (its
# ziggurat tail tops out near 13.7)
NORMAL_DRAW_MAX = 16.0
SEARCH_MODES = ("tree", "linear", "multiuser")


class ScenarioError(ValueError):
    """A scenario file violated the schema; ``rule`` names the check."""

    def __init__(self, rule: str, message: str):
        self.rule = rule
        super().__init__(f"{rule}: {message}")


@dataclass(frozen=True)
class ChannelSpec:
    preset: str = "flat"
    angle_offset_deg: float = 0.0
    baseline_inr_db: float | None = 30.0
    noise_power: float = 1e-9

    def __post_init__(self) -> None:
        if self.preset not in CHANNEL_PRESETS:
            raise ScenarioError(
                "unknown_channel_preset",
                f"{self.preset!r} is not one of {CHANNEL_PRESETS}",
            )
        if self.baseline_inr_db is not None and self.baseline_inr_db <= 0:
            raise ScenarioError(
                "baseline_inr_not_positive",
                "baseline INR must be positive dB (the no-null signal must "
                "stand above the noise floor)",
            )
        if self.noise_power <= 0:
            raise ScenarioError("noise_power_not_positive", "noise power must be > 0")


@dataclass(frozen=True)
class SearchSpec:
    mode: str = "tree"
    fanout: int = 3
    depth: int = 4
    nulls_per_level: tuple[int, ...] | None = None
    power_correction: bool = True
    linear_grid: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.mode not in SEARCH_MODES:
            raise ScenarioError(
                "unknown_search_mode", f"{self.mode!r} is not one of {SEARCH_MODES}"
            )
        if self.fanout < 2:
            raise ScenarioError("fanout_too_small", "fanout must be at least 2")
        if self.depth < 1:
            raise ScenarioError("depth_too_small", "depth must be at least 1")


@dataclass(frozen=True)
class Scenario:
    """Everything one run needs, resolvable to bit-identical results."""

    seed: int = 0
    tx_power: float = 1.0
    ue_angle_deg: float = 21.4
    user_angles_deg: tuple[float, ...] = (-20.0,)
    geometry: ArrayGeometry = field(default_factory=ArrayGeometry)
    channel: ChannelSpec = field(default_factory=ChannelSpec)
    duty: DutyCycleConfig = field(default_factory=DutyCycleConfig)
    backhaul: BackhaulConfig = field(default_factory=BackhaulConfig)
    sim: SimConfig = field(default_factory=SimConfig)
    search: SearchSpec = field(default_factory=SearchSpec)
    sweep_backhaul_ms: tuple[float, ...] = ()
    sweep_duty: tuple[float, ...] = ()

    @property
    def lte_grid(self) -> LteGrid:
        return LteGrid()

    @property
    def wifi_grid(self) -> WifiGrid:
        return WifiGrid()

    @property
    def tree_root_sector(self) -> tuple[float, float]:
        return ROOT_SECTOR

    @property
    def scan_angles(self) -> tuple[float, ...]:
        """The linear scan's grid: the declared one, or the default."""
        return self.search.linear_grid or DEFAULT_LINEAR_GRID

    def search_tree(self) -> SearchTree:
        """The tree a tree or multi-user run descends; see :func:`build_tree`."""
        return build_tree(
            self.geometry,
            self.ue_angle_deg,
            fanout=self.search.fanout,
            depth=self.search.depth,
            nulls_per_level=self.search.nulls_per_level,
            root_sector=self.tree_root_sector,
        )

    def build_channels(self) -> list[ChannelModel]:
        """Per-user channel draws; deterministic in the scenario seed."""
        models = []
        for u, angle in enumerate(self.user_angles_deg):
            angle = angle + self.channel.angle_offset_deg
            if self.channel.preset == "flat":
                models.append(flat_channel(angle, noise_power=self.channel.noise_power))
            elif self.channel.preset == "two-ray":
                models.append(
                    two_ray_channel(angle, noise_power=self.channel.noise_power)
                )
            else:
                rng = np.random.default_rng([self.seed, 1000 + u])
                models.append(
                    orbit_like_channel(
                        rng,
                        self.geometry.k_antennas,
                        angle,
                        noise_power=self.channel.noise_power,
                    )
                )
        return models


# ---------------------------------------------------------------------------
# dict <-> dataclass plumbing

# every field's JSON type, by section; "scenario" holds the top-level fields
_FIELDS: dict[str, dict[str, Any]] = {
    "scenario": {"seed": int, "tx_power": float, "ue_angle_deg": float, "user_angles_deg": [float]},
    "geometry": {"k_antennas": int, "spacing_m": float, "carrier_freq_hz": float},
    "channel": {
        "preset": str,
        "angle_offset_deg": float,
        "baseline_inr_db": float,
        "noise_power": float,
    },
    "duty_cycle": {"t_csat_ms": float, "duty": float, "puncture_ms_per_20ms": float},
    "backhaul": {"delay_ms": float},
    "sim": {
        "test_slot_ms": float,
        "sample_rate_hz": float,
        "sample_count": int,
        "noise_jitter": float,
    },
    "search": {
        "mode": str,
        "fanout": int,
        "depth": int,
        "nulls_per_level": [int],
        "power_correction": bool,
        "linear_grid": [float],
    },
    "sweep": {"backhaul_ms": [float], "duty": [float]},
}
_NULLABLE = {"baseline_inr_db", "nulls_per_level", "linear_grid"}
# the Scenario attribute holding each section; the "scenario" fields are the
# scenario's own, and the "sweep" fields its ``sweep_<key>`` attributes
_SECTION_ATTRS = {
    "geometry": "geometry",
    "channel": "channel",
    "duty_cycle": "duty",
    "backhaul": "backhaul",
    "sim": "sim",
    "search": "search",
}


def _strict(d: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(d) - allowed)
    if unknown:
        raise ScenarioError(
            "unknown_key", f"unknown key(s) {unknown} in {where}; allowed: {sorted(allowed)}"
        )


def _has_type(value: Any, kind: Any) -> bool:
    """Whether ``value`` is a JSON value of ``kind``: an integer is a float
    too, a bool is neither, and ``[kind]`` is a list of ``kind``."""
    if isinstance(kind, list):
        return isinstance(value, (list, tuple)) and all(_has_type(v, kind[0]) for v in value)
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def _not_finite(value: Any) -> bool:
    """Whether ``value`` is, or a list holds, a number no float can hold:
    NaN, an infinity or an integer past the float range.

    Python's ``json`` reads ``NaN`` and ``Infinity``, and NaN fails no
    range check, so it would run through to NaN results."""
    if isinstance(value, (list, tuple)):
        return any(map(_not_finite, value))
    return isinstance(value, (int, float)) and not abs(value) <= sys.float_info.max


def _check_types(d: dict, where: str) -> None:
    for key, kind in _FIELDS[where].items():
        value = d.get(key)
        if key in d and not (value is None and key in _NULLABLE or _has_type(value, kind)):
            name = f"list of {kind[0].__name__}" if isinstance(kind, list) else kind.__name__
            null = " or null" if key in _NULLABLE else ""
            raise ScenarioError(
                "invalid_type", f"{where}.{key} must be {name}{null}, got {value!r}"
            )
        if _not_finite(value):
            raise ScenarioError(
                "not_finite", f"{where}.{key} must be a finite number, got {value!r}"
            )


def _section(raw: dict, name: str) -> dict:
    """Section ``name`` of the scenario: an object of known keys and typed values."""
    d = raw.get(name, {})
    if not isinstance(d, dict):
        raise ScenarioError("invalid_type", f"{name} must be an object, got {d!r}")
    _strict(d, set(_FIELDS[name]), name)
    _check_types(d, name)
    return dict(d)


def _wrap(section: str, build):
    try:
        return build()
    except ScenarioError:
        raise
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"invalid_{section}", str(exc)) from exc


def _build(raw: dict, name: str, cls):
    fields = _section(raw, name)
    return _wrap(name, lambda: cls(**fields))


def scenario_from_dict(raw: dict[str, Any]) -> Scenario:
    if not isinstance(raw, dict):
        raise ScenarioError("not_an_object", "scenario file must hold a JSON object")
    _strict(raw, (set(_FIELDS) - {"scenario"}) | set(_FIELDS["scenario"]), "scenario")
    _check_types(raw, "scenario")
    geometry = _build(raw, "geometry", ArrayGeometry)
    chan = _build(raw, "channel", ChannelSpec)
    duty = _build(raw, "duty_cycle", DutyCycleConfig)
    backhaul = _build(raw, "backhaul", BackhaulConfig)
    sim = _build(raw, "sim", SimConfig)

    se_d = _section(raw, "search")
    if se_d.get("nulls_per_level") is not None:
        se_d["nulls_per_level"] = tuple(se_d["nulls_per_level"])
    if se_d.get("linear_grid") is not None:
        se_d["linear_grid"] = tuple(float(x) for x in se_d["linear_grid"])
    search = _wrap("search", lambda: SearchSpec(**se_d))

    sweep_d = _section(raw, "sweep")

    users = raw.get("user_angles_deg", [-20.0])
    if not users:
        raise ScenarioError("users_empty", "user_angles_deg must be a nonempty list")

    scenario = Scenario(
        seed=raw.get("seed", 0),
        tx_power=float(raw.get("tx_power", 1.0)),
        ue_angle_deg=float(raw.get("ue_angle_deg", 21.4)),
        user_angles_deg=tuple(float(a) for a in users),
        geometry=geometry,
        channel=chan,
        duty=duty,
        backhaul=backhaul,
        sim=sim,
        search=search,
        sweep_backhaul_ms=tuple(float(x) for x in sweep_d.get("backhaul_ms", ())),
        sweep_duty=tuple(float(x) for x in sweep_d.get("duty", ())),
    )
    validate_scenario(scenario)
    return scenario


def validate_scenario(s: Scenario) -> None:
    """Cross-field checks; every failure names its rule."""
    # checked before anything builds a steering matrix
    if s.geometry.k_antennas > MAX_ANTENNAS:
        raise ScenarioError(
            "too_many_antennas",
            f"k_antennas {s.geometry.k_antennas} exceeds {MAX_ANTENNAS}",
        )
    # the last element's steering phase, 2*pi*(d/lambda)*(K-1)*sin(angle),
    # must be finite, or every steering vector is NaN
    phase = 2 * math.pi * s.geometry.spacing_wavelengths * (s.geometry.k_antennas - 1)
    if not math.isfinite(phase):
        raise ScenarioError(
            "spacing_out_of_range",
            f"spacing_m {s.geometry.spacing_m} at carrier_freq_hz "
            f"{s.geometry.carrier_freq_hz} gives {s.geometry.k_antennas} antennas "
            f"a steering phase that is not finite",
        )
    # times run in integer microseconds
    times_ms = [
        ("backhaul.delay_ms", s.backhaul.delay_ms),
        ("sim.test_slot_ms", s.sim.test_slot_ms),
        *(("sweep.backhaul_ms", b) for b in s.sweep_backhaul_ms),
    ]
    for name, ms in times_ms:
        if _not_finite(ms * US_PER_MS):
            raise ScenarioError(
                "time_not_finite", f"{name} {ms} ms is not a finite number of microseconds"
            )
    # the channel and measurement streams are seeded with [seed, stream id]
    if s.seed < 0:
        raise ScenarioError("seed_negative", f"seed {s.seed} must be >= 0")
    if s.tx_power <= 0:
        raise ScenarioError("tx_power_not_positive", "tx_power must be > 0")
    # received power reaches about tx_power * K**2, and the INR that power
    # over the noise power; subnormal powers lose precision or make it infinite
    peak = s.tx_power * s.geometry.k_antennas**2
    noise = s.channel.noise_power
    if not (min(s.tx_power, noise) >= sys.float_info.min and peak / noise <= sys.float_info.max):
        raise ScenarioError(
            "power_out_of_range",
            f"tx_power {s.tx_power} and noise_power {noise} must be at least "
            f"{sys.float_info.min}, and tx_power * K**2 / noise_power finite",
        )
    # calibration sets the noise to the beam-only power, at most about
    # ``peak``, over (target - 1)
    baseline = s.channel.baseline_inr_db
    if baseline is not None:
        try:
            target = 10.0 ** (baseline / 10.0)
        except OverflowError:
            target = float("inf")
        if not 1.0 < target <= sys.float_info.max:
            raise ScenarioError(
                "baseline_inr_out_of_range",
                f"baseline_inr_db {baseline} must give a finite linear INR "
                f"10**(dB/10) above 1",
            )
        noise = peak / (target - 1.0)
    # a jittered slot draws p_on + noise_jitter * noise * z in power and
    # averages sample_count draws of INR + noise_jitter * z; NORMAL_DRAW_MAX
    # bounds |z|, so this keeps every draw and every sum finite
    if s.sim.noise_jitter > 0:
        spread = s.sim.noise_jitter * NORMAL_DRAW_MAX * max(noise, 1.0)
        if not s.sim.sample_count * (peak / noise + spread) <= sys.float_info.max:
            raise ScenarioError(
                "jitter_out_of_range",
                f"noise_jitter {s.sim.noise_jitter} at noise power {noise:g} "
                f"lets the measurement draws overflow",
            )
    if not -90.0 <= s.ue_angle_deg <= 90.0:
        raise ScenarioError("ue_angle_out_of_range", "ue_angle_deg must be in [-90, 90]")
    for a in s.user_angles_deg:
        if not -90.0 <= a <= 90.0:
            raise ScenarioError(
                "user_angle_out_of_range", f"user angle {a} must be in [-90, 90]"
            )
    if s.search.mode in ("tree", "linear") and len(s.user_angles_deg) != 1:
        raise ScenarioError(
            "mode_requires_single_user",
            f"mode {s.search.mode!r} serves exactly one user; "
            f"got {len(s.user_angles_deg)}",
        )

    _check_test_slot(s.duty, s.sim)

    # the search-space rules are nullsearch's; a linear scan builds no tree
    # but still holds a declared schedule to them
    try:
        if s.search.mode != "linear":
            s.search_tree()
        elif s.search.nulls_per_level is not None:
            null_schedule(s.geometry.k_antennas, s.search.depth, s.search.nulls_per_level)
    except TreeShapeError as exc:
        raise ScenarioError(exc.rule, str(exc)) from exc
    except DegenerateConstraintsError as exc:
        raise ScenarioError("beam_on_candidate_null", str(exc)) from exc
    if s.search.mode == "linear":
        grid = s.scan_angles
        if any(not -90.0 <= g <= 90.0 for g in grid):
            raise ScenarioError(
                "scan_angle_out_of_range", "linear_grid angles must be in [-90, 90]"
            )
        # a scan angle on, or aliased with, the beam makes its solve degenerate
        failing = degenerate_rows(s.geometry, s.ue_angle_deg, [(g,) for g in grid])
        if failing:
            i = min(failing)
            raise ScenarioError(
                "beam_on_candidate_null", f"scan angle {grid[i]}: {failing[i]}"
            )

    for d in s.sweep_duty:
        if not 0.0 < d <= 1.0:
            raise ScenarioError("duty_out_of_range", f"sweep duty {d} outside (0, 1]")
        _check_test_slot(replace(s.duty, duty=d), s.sim)
    for b in s.sweep_backhaul_ms:
        if b < 0:
            raise ScenarioError("backhaul_negative", f"sweep backhaul {b} ms < 0")


def _check_test_slot(duty: DutyCycleConfig, sim: SimConfig) -> None:
    """The test slot must fit the usable on-phase."""
    try:
        configs_per_cycle(duty, sim)
    except ValueError as exc:
        raise ScenarioError("test_slot_exceeds_on_phase", f"duty {duty.duty}: {exc}") from exc


def load_scenario(path: str) -> Scenario:
    """Parse and validate a scenario file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(
                "parse_error", f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}"
            ) from exc
    return scenario_from_dict(raw)


def _json_field(key: str, value: Any) -> Any:
    """A field as JSON holds it: a tuple is a list, an empty nullable one null."""
    if isinstance(value, tuple):
        return list(value) if value or key not in _NULLABLE else None
    return value


def scenario_to_dict(s: Scenario) -> dict[str, Any]:
    """The scenario as its file would hold it; the sweep only if it has grids."""
    d = {key: _json_field(key, getattr(s, key)) for key in _FIELDS["scenario"]}
    for section, attr in _SECTION_ATTRS.items():
        obj = getattr(s, attr)
        d[section] = {key: _json_field(key, getattr(obj, key)) for key in _FIELDS[section]}
    if s.sweep_backhaul_ms or s.sweep_duty:
        d["sweep"] = {key: list(getattr(s, f"sweep_{key}")) for key in _FIELDS["sweep"]}
    return d


def scenario_hash(s: Scenario) -> str:
    """Stable short id of the scenario contents (seed included)."""
    canon = json.dumps(scenario_to_dict(s), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def with_overrides(s: Scenario, **kwargs) -> Scenario:
    """``dataclasses.replace`` that validates the updated scenario."""
    out = replace(s, **kwargs)
    validate_scenario(out)
    return out
