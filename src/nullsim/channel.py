"""Geometric ray channels between the array and single-antenna WiFi nodes.

A channel is a small set of plane-wave paths.  Path p contributes, at
antenna k and subcarrier s,

    gain_p * exp(j*2*pi*(d/lambda)*k*sin(angle_p)) * exp(-j*2*pi*f_c(s)*delay_p)

with f_c(s) the absolute subcarrier center frequency.  An optional
per-antenna gain vector models transmit-chain imbalance; it defaults to
all ones, in which case the response is exactly the sum above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .beamforming import ArrayGeometry
from .phy_grid import N_RB, N_SC, SC_CENTERS_HZ, SC_TO_RB

MIN_MEASURABLE_POWER = 1e-30


@dataclass(frozen=True)
class Path:
    angle_deg: float
    gain: complex = 1.0 + 0j
    excess_delay_s: float = 0.0

    def __post_init__(self) -> None:
        if not -90.0 <= self.angle_deg <= 90.0:
            raise ValueError(f"path angle {self.angle_deg} outside [-90, 90]")
        if abs(self.gain) == 0:
            raise ValueError("path gain must be nonzero")
        if self.excess_delay_s < 0:
            raise ValueError("path delay must be non-negative")


@dataclass(frozen=True)
class ChannelModel:
    """Ray set toward one WiFi node.

    mode "flat" requires exactly one zero-delay path; "geometric" allows
    any finite ray set.  ``antenna_gains`` are linear per-antenna factors
    (length K) applied on top of the ray sum.
    """

    mode: str
    paths: tuple[Path, ...]
    antenna_gains: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("flat", "geometric"):
            raise ValueError(f"unknown channel mode {self.mode!r}")
        if not self.paths:
            raise ValueError("channel needs at least one path")
        if self.mode == "flat":
            if len(self.paths) != 1 or self.paths[0].excess_delay_s != 0:
                raise ValueError("flat mode is a single zero-delay path")
        if self.antenna_gains is not None and any(g <= 0 for g in self.antenna_gains):
            raise ValueError("antenna gains must be positive")


@dataclass
class InrReport:
    """One interference-to-noise measurement: the band aggregate, linear."""

    aggregate: float

    def __post_init__(self) -> None:
        if self.aggregate < 0:
            raise ValueError("INR is a ratio of powers and cannot be negative")

    @property
    def aggregate_db(self) -> float:
        return 10.0 * math.log10(max(self.aggregate, MIN_MEASURABLE_POWER))


# every subcarrier's phase per second of delay, -2j*pi*f_c(s), with the
# centers in integer hertz as floats
_SC_DELAY_PHASE = -2j * np.pi * SC_CENTERS_HZ.astype(float)


@lru_cache(maxsize=32)
def _antenna_phases(geom: ArrayGeometry) -> np.ndarray:
    """Every antenna's phase per unit of sin(angle), 2j*pi*(d/lambda)*k, as
    a read-only (K, 1) column."""
    phases = 2j * np.pi * geom.spacing_wavelengths * np.arange(geom.k_antennas)[:, None]
    phases.flags.writeable = False
    return phases


def channel_response(model: ChannelModel, geom: ArrayGeometry) -> np.ndarray:
    """Complex response h of shape (antennas, :data:`~nullsim.phy_grid.N_SC`).

    Every path's spatial terms come from one ``np.exp`` call and every
    path's spectral terms from another.  The paths' terms are added onto
    zeros in path order, each with the elementwise arithmetic of a loop
    over the paths, so every entry has that loop's bits.
    """
    # each path's sin(angle), delay and gain, as (paths, 1, 1) columns
    sin, delay, gain = np.array(
        [(math.sin(math.radians(p.angle_deg)), p.excess_delay_s, p.gain) for p in model.paths],
        dtype=complex,
    ).T[:, :, None, None]
    terms = gain * np.exp(_antenna_phases(geom) * sin) * np.exp(_SC_DELAY_PHASE * delay)
    h = np.zeros((geom.k_antennas, N_SC), dtype=complex)
    for term in terms:
        h += term
    if model.antenna_gains is not None:
        if len(model.antenna_gains) != geom.k_antennas:
            raise ValueError("antenna_gains length must match the array")
        h *= np.asarray(model.antenna_gains, dtype=float)[:, None]
    return h


def rx_power(h: np.ndarray, weight_matrix: np.ndarray, tx_power: float = 1.0) -> np.ndarray:
    """Received interference power per subcarrier.

    Subcarrier s sees the precoding column of its nearest resource block
    (:data:`~nullsim.phy_grid.SC_TO_RB`):
    power[s] = tx_power * |sum_k W[k, rb(s)] * h[k, s]|^2.

    ``h`` is (K, 64), a response over every subcarrier, and
    ``weight_matrix`` is (K, 100), a column for every resource block.
    ``weight_matrix`` may be a stack of matrices, (n, K, 100), one per
    config of a frontier, and ``h`` a stack of users' responses,
    (U, K, subcarriers); the result has the users' axis, then the configs'
    axis, then subcarriers, each row with the bits of its own 2-D call.
    The sum over K runs along a non-last axis of a C-ordered product, so
    it adds antennas in order whatever the stack sizes.  A broadcast matrix
    (last stride 0, as :func:`~nullsim.beamforming.build_weight_matrix`
    returns without a power report) has one column for every block and is
    used as that column, with no per-subcarrier gather.
    """
    if tx_power <= 0:
        raise ValueError("tx power must be positive")
    h = np.asarray(h)
    w = np.asarray(weight_matrix)
    if h.shape[-2] != w.shape[-2]:
        raise ValueError("antenna counts of response and weights differ")
    if h.shape[-1] != N_SC:
        raise ValueError(f"a response has {N_SC} subcarriers, not {h.shape[-1]}")
    if w.shape[-1] != N_RB:
        raise ValueError(f"a weight matrix has {N_RB} resource blocks, not {w.shape[-1]}")
    cols = w[..., :1] if w.strides[-1] == 0 else w[..., SC_TO_RB]
    if w.ndim == 3:
        h = h[..., None, :, :]  # every user against every config
    summed = np.multiply(cols, h, order="C").sum(axis=-2)
    return tx_power * np.abs(summed) ** 2


def sampled_inr(
    h: np.ndarray,
    weight_matrix: np.ndarray,
    noise_power: Sequence[float],
    tx_power: float = 1.0,
    sample_count: int = 100,
    noise_jitter: float = 0.0,
    rngs: Sequence[np.random.Generator] | None = None,
) -> list[list[float]]:
    """Every user's linear INRs on a stack of transmissions, each the
    average of ``sample_count`` noisy INR draws.

    ``h`` stacks the users' responses, (U, K, subcarriers), with one noise
    power (and, when jittered, one rng) per user in ``noise_power`` and
    ``rngs``; ``weight_matrix`` stacks the configs' matrices,
    (n, K, 100).  The result holds one list per user, each with one INR
    per config, in order.

    Every user measures the same transmissions: the users' powers come from
    one product, averaged over the subcarriers, and their INRs from one
    :func:`averaged_inr` call.
    """
    if np.ndim(h) != 3 or np.ndim(weight_matrix) != 3:
        raise ValueError("need stacks of responses and of weight matrices")
    p_sc = rx_power(h, weight_matrix, tx_power)  # (users, configs, subcarriers)
    return averaged_inr(np.mean(p_sc, axis=-1), noise_power, sample_count, noise_jitter, rngs)


def averaged_inr(
    power: np.ndarray,
    noise_power: Sequence[float],
    sample_count: int = 100,
    noise_jitter: float = 0.0,
    rngs: Sequence[np.random.Generator] | None = None,
) -> list[list[float]]:
    """Every user's linear INRs from their mean received powers,
    (U, configs), each INR the average of ``sample_count`` noisy draws.

    Each draw perturbs the measured on-phase power by a zero-mean Gaussian
    of standard deviation ``noise_jitter`` times the user's noise power;
    the off-phase measurement is the noise floor itself.  With zero jitter
    the average equals the single-shot value exactly.  The draws are turned
    into INRs and averaged as one array, in the order the rngs produced
    them, with the arithmetic done in place on the draw buffer.

    Each user's draws come from one call of its own rng that fills an
    (n, sample_count) array, the same numbers (and the same next draw) as
    n calls in config order, users in order.  So every INR has the bits of
    a measurement of that user and config alone, and every rng ends where
    those measurements leave it.
    """
    if sample_count < 1:
        raise ValueError("need at least one measurement sample")
    if noise_jitter < 0:
        raise ValueError("noise jitter cannot be negative")
    if len(noise_power) != len(power):
        raise ValueError("need one noise power per user")
    if not all(n > 0 for n in noise_power):
        raise ValueError("noise power must be positive")
    noise = np.array(noise_power, dtype=float)[:, None, None]
    p_on = power[..., None] + noise
    # every noise power is positive and every draw is clipped above zero,
    # so each INR is a plain ratio of positive powers
    if noise_jitter == 0.0:
        return (p_on / noise)[..., 0].tolist()
    if rngs is None or len(rngs) != len(noise_power) or None in rngs:
        raise ValueError("jittered measurements need an rng per user")
    draws = np.empty(np.shape(power) + (sample_count,))
    for rng, z_u in zip(rngs, draws):
        rng.standard_normal(out=z_u)
    draws *= noise_jitter * noise
    draws += p_on
    np.clip(draws, MIN_MEASURABLE_POWER, None, out=draws)
    draws /= noise
    return np.mean(draws, axis=-1).tolist()


def power_report(h: np.ndarray) -> np.ndarray:
    """Per-antenna received power profile gathered in the measurement phase:
    |h|**2 of a channel response (antennas, subcarriers)."""
    return np.abs(h) ** 2


# ---------------------------------------------------------------------------
# presets


def flat_channel(angle_deg: float = 0.0) -> ChannelModel:
    """Single ray, no delay spread: the over-cable calibration setup."""
    return ChannelModel(mode="flat", paths=(Path(angle_deg, 1.0, 0.0),))


# the two-ray preset's echo: its angle off the direct path, gain and delay
TWO_RAY_ECHO_OFFSET_DEG = 25.0
TWO_RAY_ECHO_GAIN = 0.63
TWO_RAY_ECHO_DELAY_S = 150e-9


def two_ray_channel(angle_deg: float = 0.0) -> ChannelModel:
    """Dominant ray plus one strong echo; deeply frequency selective."""
    echo_angle = max(-90.0, min(90.0, angle_deg + TWO_RAY_ECHO_OFFSET_DEG))
    return ChannelModel(
        mode="geometric",
        paths=(
            Path(angle_deg, 1.0, 0.0),
            Path(echo_angle, TWO_RAY_ECHO_GAIN, TWO_RAY_ECHO_DELAY_S),
        ),
    )


# Tuned against the indoor-testbed reference statistics: weak late echoes
# plus transmit-chain gain imbalance, so per-block power correction has
# something to correct.  See tests/test_acceptance.py for the targets.
ORBIT_ECHO_COUNT = 3
ORBIT_ECHO_DB = (18.0, 30.0)
ORBIT_ECHO_DELAY_S = (50e-9, 400e-9)
ORBIT_GAIN_SIGMA_DB = 1.5


def orbit_like_channel(
    rng: np.random.Generator,
    k_antennas: int,
    angle_deg: float = 0.0,
) -> ChannelModel:
    """Indoor-testbed style draw: dominant ray, weak echoes, chain imbalance."""
    # each echo's level, phase, angle and delay, echo by echo, then every
    # antenna's gain: the order of one scalar draw each
    lo, hi = zip(ORBIT_ECHO_DB, (0.0, 2.0 * np.pi), (-80.0, 80.0), ORBIT_ECHO_DELAY_S)
    echoes = rng.uniform(lo, hi, size=(ORBIT_ECHO_COUNT, len(lo))).tolist()
    paths = [Path(angle_deg, 1.0, 0.0)]
    for level_db, phase, angle, delay in echoes:
        amp = 10.0 ** (-level_db / 20.0)
        paths.append(Path(angle, amp * complex(np.cos(phase), np.sin(phase)), delay))
    gains = tuple(
        10.0 ** (g / 20.0) for g in rng.normal(0.0, ORBIT_GAIN_SIGMA_DB, size=k_antennas).tolist()
    )
    return ChannelModel(mode="geometric", paths=tuple(paths), antenna_gains=gains)
