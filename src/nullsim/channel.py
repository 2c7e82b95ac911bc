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
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .beamforming import ArrayGeometry
from .phy_grid import WifiGrid, _grid_centers

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
    """Ray set plus the receiver noise floor for one WiFi node.

    mode "flat" requires exactly one zero-delay path; "geometric" allows
    any finite ray set.  ``antenna_gains`` are linear per-antenna factors
    (length K) applied on top of the ray sum.
    """

    mode: str
    paths: tuple[Path, ...]
    noise_power: float = 1e-9
    antenna_gains: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("flat", "geometric"):
            raise ValueError(f"unknown channel mode {self.mode!r}")
        if not self.paths:
            raise ValueError("channel needs at least one path")
        if self.mode == "flat":
            if len(self.paths) != 1 or self.paths[0].excess_delay_s != 0:
                raise ValueError("flat mode is a single zero-delay path")
        if self.noise_power <= 0:
            raise ValueError("noise power must be positive")
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


def channel_response(
    model: ChannelModel, geom: ArrayGeometry, wifi: WifiGrid
) -> np.ndarray:
    """Complex response h of shape (antennas, subcarriers)."""
    k = np.arange(geom.k_antennas)[:, None]
    # every subcarrier's center in integer hertz, as floats
    freqs = _grid_centers(wifi.center_freq_hz, wifi.n_sc, wifi.sc_bandwidth_hz).astype(float)
    h = np.zeros((geom.k_antennas, wifi.n_sc), dtype=complex)
    for p in model.paths:
        spatial = np.exp(
            2j * np.pi * geom.spacing_wavelengths * k * math.sin(math.radians(p.angle_deg))
        )
        spectral = np.exp(-2j * np.pi * freqs * p.excess_delay_s)[None, :]
        h += p.gain * spatial * spectral
    if model.antenna_gains is not None:
        if len(model.antenna_gains) != geom.k_antennas:
            raise ValueError("antenna_gains length must match the array")
        h *= np.asarray(model.antenna_gains, dtype=float)[:, None]
    return h


def rx_power(
    h: np.ndarray,
    weight_matrix: np.ndarray,
    sc_to_rrb: Sequence[int],
    tx_power: float = 1.0,
) -> np.ndarray:
    """Received interference power per subcarrier.

    Subcarrier s sees the precoding column of its nearest resource block:
    power[s] = tx_power * |sum_k W[k, rrb(s)] * h[k, s]|^2.

    ``weight_matrix`` may be a stack of matrices, (n, K, n_rrb), one per
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
    idx = np.asarray(sc_to_rrb, dtype=int)
    if len(idx) != h.shape[-1]:
        raise ValueError("sc_to_rrb length must match the subcarrier count")
    if (idx < 0).any() or (idx >= w.shape[-1]).any():
        raise IndexError("sc_to_rrb references a resource block outside the matrix")
    cols = w[..., :1] if w.strides[-1] == 0 else w[..., idx]
    if w.ndim == 3:
        h = h[..., None, :, :]  # every user against every config
    summed = np.multiply(cols, h, order="C").sum(axis=-2)
    return tx_power * np.abs(summed) ** 2


def measure_inr(
    p_on: float | np.ndarray, p_off: float | np.ndarray
) -> float | np.ndarray:
    """Interference-to-noise ratio of on/off power pairs (linear).

    ``p_on`` may be an array of on-phase draws against one off-phase power,
    or against an array of them that broadcasts, one per user.
    """
    if np.less_equal(p_off, 0).any():
        raise ValueError("off-phase power must be positive")
    if np.less(p_on, 0).any():
        raise ValueError("on-phase power cannot be negative")
    return p_on / p_off


def sampled_inr(
    h: np.ndarray,
    weight_matrix: np.ndarray,
    sc_to_rrb: Sequence[int],
    models: Sequence[ChannelModel],
    tx_power: float = 1.0,
    sample_count: int = 100,
    noise_jitter: float = 0.0,
    rngs: Sequence[np.random.Generator] | None = None,
) -> list[list[InrReport]]:
    """Every user's reports on a stack of transmissions, each the average
    of ``sample_count`` noisy INR draws.

    ``h`` stacks the users' responses, (U, K, subcarriers), with one
    channel model (and, when jittered, one rng) per user in ``models`` and
    ``rngs``; ``weight_matrix`` stacks the configs' matrices,
    (n, K, n_rrb).  The result holds one list per user, each with one
    report per config, in order.

    Each draw perturbs the measured on-phase power by a zero-mean Gaussian
    of standard deviation ``noise_jitter * noise_power``; the off-phase
    measurement is the noise floor itself.  With zero jitter the average
    equals the single-shot value exactly.  The draws are turned into INRs
    and averaged as one array, in the order the rngs produced them.

    Every user measures the same transmissions: the users' powers come from
    one product and their INRs from one average.  Each user's draws come
    from one call of its own rng that fills an (n, sample_count) array, the
    same numbers (and the same next draw) as n calls in config order, users
    in order.  So every report has the bits of a measurement of that user
    and config alone, and every rng ends where those measurements leave it.
    """
    if sample_count < 1:
        raise ValueError("need at least one measurement sample")
    if noise_jitter < 0:
        raise ValueError("noise jitter cannot be negative")
    if np.ndim(h) != 3 or np.ndim(weight_matrix) != 3:
        raise ValueError("need stacks of responses and of weight matrices")
    if len(models) != len(h):
        raise ValueError("need one channel model per user")
    p_sc = rx_power(h, weight_matrix, sc_to_rrb, tx_power)  # (users, configs, subcarriers)
    noise = np.array([m.noise_power for m in models])[:, None, None]
    p_on = np.mean(p_sc, axis=-1, keepdims=True) + noise
    if noise_jitter == 0.0:
        agg = measure_inr(p_on, noise)[..., 0]
    else:
        if rngs is None or len(rngs) != len(models) or None in rngs:
            raise ValueError("jittered measurements need an rng per user")
        z = np.empty(p_sc.shape[:2] + (sample_count,))
        for rng, z_u in zip(rngs, z):
            rng.standard_normal(out=z_u)
        draws = p_on + noise_jitter * noise * z
        np.clip(draws, MIN_MEASURABLE_POWER, None, out=draws)
        agg = np.mean(measure_inr(draws, noise), axis=-1)
    return [[InrReport(a) for a in row] for row in agg.tolist()]


def power_report(model: ChannelModel, geom: ArrayGeometry, wifi: WifiGrid) -> np.ndarray:
    """Per-antenna received power profile gathered in the measurement phase."""
    h = channel_response(model, geom, wifi)
    return np.abs(h) ** 2


# ---------------------------------------------------------------------------
# presets


def flat_channel(angle_deg: float = 0.0, gain: complex = 1.0, noise_power: float = 1e-9) -> ChannelModel:
    """Single ray, no delay spread: the over-cable calibration setup."""
    return ChannelModel(
        mode="flat", paths=(Path(angle_deg, gain, 0.0),), noise_power=noise_power
    )


def two_ray_channel(
    angle_deg: float = 0.0,
    echo_offset_deg: float = 25.0,
    echo_gain: float = 0.63,
    echo_delay_s: float = 150e-9,
    noise_power: float = 1e-9,
) -> ChannelModel:
    """Dominant ray plus one strong echo; deeply frequency selective."""
    echo_angle = max(-90.0, min(90.0, angle_deg + echo_offset_deg))
    return ChannelModel(
        mode="geometric",
        paths=(
            Path(angle_deg, 1.0, 0.0),
            Path(echo_angle, echo_gain, echo_delay_s),
        ),
        noise_power=noise_power,
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
    noise_power: float = 1e-9,
) -> ChannelModel:
    """Indoor-testbed style draw: dominant ray, weak echoes, chain imbalance."""
    paths = [Path(angle_deg, 1.0, 0.0)]
    for _ in range(ORBIT_ECHO_COUNT):
        level_db = rng.uniform(*ORBIT_ECHO_DB)
        amp = 10.0 ** (-level_db / 20.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        paths.append(
            Path(
                angle_deg=float(rng.uniform(-80.0, 80.0)),
                gain=amp * complex(np.cos(phase), np.sin(phase)),
                excess_delay_s=float(rng.uniform(*ORBIT_ECHO_DELAY_S)),
            )
        )
    gains = tuple(
        float(10.0 ** (rng.normal(0.0, ORBIT_GAIN_SIGMA_DB) / 20.0))
        for _ in range(k_antennas)
    )
    return ChannelModel(
        mode="geometric",
        paths=tuple(paths),
        noise_power=noise_power,
        antenna_gains=gains,
    )


def with_noise_power(model: ChannelModel, noise_power: float) -> ChannelModel:
    return replace(model, noise_power=noise_power)
