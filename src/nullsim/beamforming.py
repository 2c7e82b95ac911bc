"""Uniform linear array model and constrained null-steering weights.

Angles are degrees off broadside in [-90, 90].  The element-k response of
the array toward angle theta is exp(j*2*pi*(d/lambda)*k*sin(theta)).

Weight vectors returned by :func:`lcmv_weights` live in the constraint
domain: ``w.conj() @ a(beam) == 1`` and ``w.conj() @ a(null) == 0``.  The
precoding matrix built by :func:`build_weight_matrix` stores the
transmit-side conjugate of those vectors, so that a channel response
summed over antennas (see :mod:`nullsim.channel`) lands exactly on the
constrained gains.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .phy_grid import RbScMap

SPEED_OF_LIGHT_MPS = 299_792_458.0

# power reports are floored here so correction ratios stay finite
POWER_REPORT_FLOOR = 1e-12

# constraint directions closer than this (relative singular value) are
# treated as one direction and rejected
RANK_TOL = 1e-9


class DegenerateConstraintsError(ValueError):
    """Constraint directions are numerically indistinguishable."""


@dataclass(frozen=True)
class ArrayGeometry:
    """Antenna count and element spacing of the transmit array."""

    k_antennas: int = 4
    spacing_m: float = 0.0718
    carrier_freq_hz: float = 2.412e9

    def __post_init__(self) -> None:
        if self.k_antennas < 2:
            raise ValueError("array needs at least two antennas")
        if self.spacing_m <= 0:
            raise ValueError("element spacing must be positive")
        if self.carrier_freq_hz <= 0:
            raise ValueError("carrier frequency must be positive")

    @property
    def spacing_wavelengths(self) -> float:
        return self.spacing_m * self.carrier_freq_hz / SPEED_OF_LIGHT_MPS


@dataclass(frozen=True)
class BsConfig:
    """Base-station transmit parameters."""

    tx_power: float = 1.0
    geometry: ArrayGeometry = field(default_factory=ArrayGeometry)

    def __post_init__(self) -> None:
        if self.tx_power <= 0:
            raise ValueError("tx power must be positive")


def _check_angle(theta_deg: float) -> float:
    if not -90.0 <= theta_deg <= 90.0:
        raise ValueError(f"angle {theta_deg} outside [-90, 90] degrees")
    return float(theta_deg)


def steering_vector(geom: ArrayGeometry, theta_deg: float) -> np.ndarray:
    """Array response toward ``theta_deg``; element 0 is the phase reference."""
    theta = np.radians(_check_angle(theta_deg))
    k = np.arange(geom.k_antennas)
    return np.exp(2j * np.pi * geom.spacing_wavelengths * k * np.sin(theta))


def steering_vectors(geom: ArrayGeometry, thetas_deg: np.ndarray) -> np.ndarray:
    """:func:`steering_vector` toward every angle of an array of angles.

    The result has the angles' shape plus one antenna axis.  The same
    operations run elementwise, so every response has the bits of its own
    :func:`steering_vector` call.
    """
    thetas = np.asarray(thetas_deg, dtype=float)
    outside = ~((thetas >= -90.0) & (thetas <= 90.0))
    if outside.any():
        raise ValueError(f"angle {thetas[outside][0]} outside [-90, 90] degrees")
    theta = np.radians(thetas)
    k = np.arange(geom.k_antennas)
    return np.exp(2j * np.pi * geom.spacing_wavelengths * k * np.sin(theta)[..., None])


def lcmv_weights(
    geom: ArrayGeometry,
    beam_deg: float,
    null_degs: Sequence[float],
    rank_tol: float = RANK_TOL,
) -> np.ndarray:
    """Minimum-norm weights with unit gain at ``beam_deg``, zeros at ``null_degs``.

    With an identity interference covariance the LCMV beamformer reduces to
    the minimum-norm solution of the constraint system, which is what the
    sounding-free protocol can actually compute.  Requires at most K-1
    nulls so the constraint matrix can have full column rank.
    """
    nulls = [_check_angle(a) for a in null_degs]
    for a in nulls:
        if a == beam_deg:
            raise DegenerateConstraintsError(
                f"null at {a} deg coincides with the beam direction"
            )
    if 1 + len(nulls) > geom.k_antennas:
        raise ValueError(
            f"{len(nulls)} nulls plus one beam exceed {geom.k_antennas} antennas"
        )
    cols = [steering_vector(geom, beam_deg)]
    cols += [steering_vector(geom, a) for a in nulls]
    c = np.column_stack(cols)
    sv = np.linalg.svd(c, compute_uv=False)
    if sv[-1] < rank_tol * sv[0]:
        raise DegenerateConstraintsError(
            f"constraint directions are rank deficient (sigma ratio {sv[-1] / sv[0]:.2e})"
        )
    f = np.zeros(c.shape[1], dtype=complex)
    f[0] = 1.0
    # minimum-norm solution of the underdetermined system c^H w = f
    w, *_ = np.linalg.lstsq(c.conj().T, f, rcond=None)
    return w


def normalize(w: np.ndarray) -> np.ndarray:
    """Scale to unit Frobenius norm so total transmit power stays fixed.

    A 2-D ``w`` is a stack of weight vectors, one per row; each row is
    scaled on its own, to the same bits as normalizing it alone.
    """
    w = np.asarray(w)
    n = np.linalg.norm(w) if w.ndim == 1 else _row_norms(w)[:, None]
    if np.any(n == 0):
        raise ValueError("cannot normalize an all-zero weight vector")
    return w / n


def _row_norms(w: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of every row of ``w``, bit for bit.

    The norm of one complex vector is sqrt(re.re + im.im), each dot a BLAS
    call.  A stacked row-times-column matmul makes that same dot call per
    row; a reduction along an axis would sum in another order.
    """
    re, im = w.real, w.imag
    sq = re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None]
    return np.sqrt(sq[:, 0, 0])


def floor_power_report(report: np.ndarray, floor: float = POWER_REPORT_FLOOR) -> np.ndarray:
    """Clamp a per-antenna, per-subcarrier power report away from zero."""
    report = np.asarray(report, dtype=float)
    if report.ndim != 2:
        raise ValueError("power report must be (antennas, subcarriers)")
    if np.any(report < 0):
        raise ValueError("power report entries must be non-negative")
    return np.maximum(report, floor)


def power_correct(
    w: np.ndarray, report: np.ndarray, rb_sc_map: RbScMap, r: int | np.ndarray
) -> np.ndarray:
    """Rescale weights for block ``r`` against the measured power report.

    Antenna k is scaled by sqrt(report[0, s] / report[k, s]) where s is the
    subcarrier mapped to block r, equalizing the per-antenna received power
    around the reference antenna 0.  An integer array ``r`` corrects all its
    blocks in one pass and returns one corrected vector per row, shape
    (len(r), antennas); the report is floored and checked once.
    """
    report = floor_power_report(report)
    if len(w) != report.shape[0]:
        raise ValueError("weight length and report antenna count differ")
    s = np.asarray(rb_sc_map.rb_to_sc)[r]
    if np.any(s < 0) or np.any(s >= report.shape[1]):
        raise IndexError(
            f"mapped subcarriers {np.min(s)}..{np.max(s)} outside the power report"
        )
    p = report.T[s]  # per-antenna power at each block's subcarrier
    return w * np.sqrt(p[..., :1] / p)


def build_weight_matrix(
    geom: ArrayGeometry,
    beam_deg: float,
    null_degs: Sequence[float],
    n_rrb: int,
    report: np.ndarray | None = None,
    rb_sc_map: RbScMap | None = None,
    base: np.ndarray | None = None,
) -> np.ndarray:
    """Per-block transmit precoding matrix of shape (antennas, n_rrb).

    Every column is the unit-norm, optionally power-corrected weight vector
    for that resource block, conjugated into the transmit domain.  Without
    a report all columns are one vector, normalized once and broadcast;
    with one, all blocks are corrected by a single :func:`power_correct`
    call and normalized together.  Either way each column has the bits of
    ``conj(normalize(power_correct(w, report, rb_sc_map, r)))``.  ``base``
    skips the LCMV solve when the constraint-domain vector is already known
    (the search tree solves each node once).
    """
    if n_rrb < 1:
        raise ValueError("need at least one resource block")
    if (report is None) != (rb_sc_map is None):
        raise ValueError("power correction needs both a report and a block map")
    w = lcmv_weights(geom, beam_deg, null_degs) if base is None else np.asarray(base)
    cols = np.empty((geom.k_antennas, n_rrb), dtype=complex)
    if report is None:
        cols[:] = np.conj(normalize(w))[:, None]
    else:
        rows = normalize(power_correct(w, report, rb_sc_map, np.arange(n_rrb)))
        cols[:] = np.conj(rows).T
    return cols
