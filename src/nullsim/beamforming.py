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

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .phy_grid import RbScMap

SPEED_OF_LIGHT_MPS = 299_792_458.0

# power reports are floored here so correction ratios stay finite
POWER_REPORT_FLOOR = 1e-12

# constraint directions closer than this (relative singular value) are
# treated as one direction and rejected
RANK_TOL = 1e-9

# a constraint matrix whose Gram bound puts its sigma ratio this many times
# above the rank tolerance skips the rank SVD (see _gram_clears)
GRAM_SCREEN_MARGIN = 1e6


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


def constraint_matrices(
    geom: ArrayGeometry, beam_deg: float, null_sets: np.ndarray
) -> np.ndarray:
    """Beam-plus-null steering matrices of a stack of null sets.

    ``null_sets`` has shape (n, m); row i yields the (K, 1 + m) matrix
    whose columns steer toward the beam and then toward row i's nulls, the
    constraint matrix :func:`lcmv_weights` solves.  Shape (n, K, 1 + m).
    """
    null_sets = np.asarray(null_sets, dtype=float)
    beams = np.full((len(null_sets), 1), float(beam_deg))
    angles = np.concatenate((beams, null_sets), axis=1)
    return steering_vectors(geom, angles).transpose(0, 2, 1)


def _gram(c: np.ndarray) -> np.ndarray:
    """The Gram matrices c^H c of a constraint stack, one product per row."""
    return c.conj().swapaxes(-1, -2) @ c


def _gram_clears(g: np.ndarray) -> np.ndarray:
    """Which constraint matrices the rank SVD could not reject, from their Grams.

    The eigenvalues of the Gram matrix G = c^H c are the squared singular
    values of c, and by Gershgorin each lies in some [G_ii - R_i, G_ii + R_i]
    with R_i = sum over j != i of |G_ij|, so
        sigma_min**2 / sigma_max**2 >= min_i(G_ii - R_i) / max_i(G_ii + R_i).
    A matrix whose bound clears (GRAM_SCREEN_MARGIN * RANK_TOL)**2 has a
    sigma ratio of at least 1e-3.  Rounding moves the bound by about
    K * eps, and the SVD's singular values are off by about
    K * eps * sigma_max, so the SVD ratio of a cleared matrix stays far
    above RANK_TOL.
    """
    g = np.abs(g)
    rows = g.sum(axis=-1)  # G_ii + R_i
    lo = (2.0 * g.diagonal(0, -2, -1) - rows).min(axis=-1)  # min_i(G_ii - R_i)
    return lo >= (GRAM_SCREEN_MARGIN * RANK_TOL) ** 2 * rows.max(axis=-1)


def _degenerate(c: np.ndarray, null_sets: np.ndarray, beam_deg: float) -> dict[int, str]:
    """Rows of a constraint stack whose solve is rejected, with its message.

    A row fails when its beam sits exactly on one of its nulls, or when its
    steering matrix is rank deficient (aliased or near-coincident
    directions).  The rank test is one stacked SVD; for a beam and one null
    it runs only on the matrices that :func:`_gram_clears` does not clear,
    every failing one among them.  A beam alone needs no rank test.
    """
    if c.shape[-1] == 1:
        # one steering column has norm sqrt(K), so it always has full rank
        sv = np.ones((len(c), 1))
    elif c.shape[-1] == 2:
        # For two columns of equal norm the Gram bound is exact, and it
        # clears all but near-aliased rows.  With more columns the
        # off-diagonal terms add up: on multi-user trees it clears under a
        # sixth of the rows, so there the screen would only add its cost to
        # the SVD.
        check = np.flatnonzero(~_gram_clears(_gram(c)))
        # a cleared row keeps NaN singular values, which no test below flags
        sv = np.full((len(c), 2), np.nan)
        if check.size:
            sv[check] = np.linalg.svd(c[check], compute_uv=False)
    else:
        sv = np.linalg.svd(c, compute_uv=False)
    on_beam = null_sets == beam_deg
    rank_low = sv[:, -1] < RANK_TOL * sv[:, 0]
    failing: dict[int, str] = {}
    for i in np.flatnonzero(on_beam.any(axis=1) | rank_low):
        if on_beam[i].any():
            a = float(null_sets[i][np.argmax(on_beam[i])])
            failing[int(i)] = f"null at {a} deg coincides with the beam direction"
        else:
            ratio = sv[i, -1] / sv[i, 0]
            failing[int(i)] = (
                f"constraint directions are rank deficient (sigma ratio {ratio:.2e})"
            )
    return failing


def degenerate_rows(
    geom: ArrayGeometry, beam_deg: float, null_sets: np.ndarray
) -> dict[int, str]:
    """Which rows of an (n, m) stack of null sets :func:`lcmv_weights` rejects.

    Every angle must lie inside [-90, 90].  Maps each failing row to the
    message of the :class:`DegenerateConstraintsError` its own
    :func:`lcmv_weights` call raises, without solving anything.
    """
    null_sets = np.asarray(null_sets, dtype=float)
    c = constraint_matrices(geom, beam_deg, null_sets)
    return _degenerate(c, null_sets, beam_deg)


def lcmv_weights(
    geom: ArrayGeometry, beam_deg: float, null_degs: Sequence[float]
) -> np.ndarray:
    """Minimum-norm weights with unit gain at ``beam_deg``, zeros at ``null_degs``.

    With an identity interference covariance the LCMV beamformer reduces to
    the minimum-norm solution of the constraint system, which is what the
    sounding-free protocol can actually compute.  Requires at most K-1
    nulls so the constraint matrix can have full column rank.

    The checks run in this order: angles in range, beam on a null, null
    count, beam angle in range, rank.  Stacks of null sets are checked by
    :func:`degenerate_rows` and solved by :func:`min_norm_weights`, each
    row with the bits of its own call here.
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
    _check_angle(beam_deg)
    rows = np.array([nulls], dtype=float)
    c = constraint_matrices(geom, beam_deg, rows)
    failing = _degenerate(c, rows, beam_deg)
    if failing:
        raise DegenerateConstraintsError(failing[0])
    return min_norm_weights(c)[0]


def min_norm_weights(c: np.ndarray) -> np.ndarray:
    """The solve of :func:`lcmv_weights`, on constraint matrices already checked.

    ``c`` is a (n, K, 1 + m) stack from :func:`constraint_matrices` none of
    whose rows :func:`degenerate_rows` rejects; nothing is checked here.
    Returns the (n, K) minimum-norm solutions of the underdetermined
    systems c^H w = e1, each row with the bits of its own call.

    The two common shapes have closed forms.  A beam a alone gives
    w = a / (a^H a).  For a beam a and one null b, each row that
    :func:`_gram_clears` clears on the stack's Gram matrices is a projected
    off b, p = a - b (b^H a / b^H b), and w = p / (p^H p).  Every other row,
    and every stack with more nulls, takes :func:`_svd_min_norm`.
    """
    if c.shape[-1] == 1:
        a = c[..., 0]
        return a / _sq_norms(a)[:, None]
    if c.shape[-1] > 2:
        return _svd_min_norm(c)
    g = _gram(c)
    cleared = _gram_clears(g)
    if cleared.all():
        return _project_off_null(c, g)
    w = np.empty(c.shape[:2], dtype=complex)
    w[cleared] = _project_off_null(c[cleared], g[cleared])
    w[~cleared] = _svd_min_norm(c[~cleared])
    return w


def _sq_norms(x: np.ndarray) -> np.ndarray:
    """x^H x of every row of an (n, K) stack, summed along its own row."""
    return (x.real**2 + x.imag**2).sum(axis=-1)


def _project_off_null(c: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Beam-plus-one-null solves of rows the Gram screen clears.

    Near a rank loss, a - b (b^H a / b^H b) cancels most of a, and what is
    left of b in p puts up to 1e-10 on the null constraint; a second
    projection takes it off, leaving constraint residuals below 1e-13.
    """
    a, b = c[..., 0], c[..., 1]
    p = a - b * (g[:, 1, 0] / g[:, 1, 1])[:, None]
    p = p - b * ((b.conj() * p).sum(axis=-1) / g[:, 1, 1])[:, None]
    return p / _sq_norms(p)[:, None]


def _svd_min_norm(c: np.ndarray) -> np.ndarray:
    """Minimum-norm solves from the SVD c^H = U S Vh: w = Vh^H (U^H e1 / s).

    The sum over the singular directions runs along a non-last axis, in
    order, so each row has the bits of its own call.
    """
    u, s, vh = np.linalg.svd(c.conj().transpose(0, 2, 1), full_matrices=False)
    return (vh.conj() * (u[:, 0, :].conj() / s)[:, :, None]).sum(axis=1)


def normalize(w: np.ndarray) -> np.ndarray:
    """Scale to unit Frobenius norm so total transmit power stays fixed.

    A ``w`` of more than one dimension is a stack of weight vectors along
    its last axis; each vector is scaled on its own, to the same bits as
    normalizing it alone.
    """
    w = np.asarray(w)
    n = np.linalg.norm(w) if w.ndim == 1 else _row_norms(w)[..., None]
    if (n == 0).any():
        raise ValueError("cannot normalize an all-zero weight vector")
    return w / n


def _row_norms(w: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of every vector along the last axis of ``w``, bit for bit.

    The norm of one complex vector is sqrt(re.re + im.im), each dot a BLAS
    call.  A stacked row-times-column matmul makes that same dot call per
    row; a reduction along an axis would sum in another order.
    """
    re, im = w.real, w.imag
    sq = re[..., None, :] @ re[..., :, None] + im[..., None, :] @ im[..., :, None]
    return np.sqrt(sq[..., 0, 0])


def floor_power_report(report: np.ndarray, floor: float = POWER_REPORT_FLOOR) -> np.ndarray:
    """Clamp a per-antenna, per-subcarrier power report away from zero."""
    report = np.asarray(report, dtype=float)
    if report.ndim != 2:
        raise ValueError("power report must be (antennas, subcarriers)")
    if (report < 0).any():
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
    (len(r), antennas); the report is floored and checked once.  The
    antennas are the last axis of ``w``; a stack of vectors of shape
    (n, 1, antennas) against an array ``r`` gives (n, len(r), antennas).
    """
    report = floor_power_report(report)
    if np.shape(w)[-1] != report.shape[0]:
        raise ValueError("weight length and report antenna count differ")
    s = np.asarray(rb_sc_map.rb_to_sc)[r]
    if (s < 0).any() or (s >= report.shape[1]).any():
        raise IndexError(
            f"mapped subcarriers {np.min(s)}..{np.max(s)} outside the power report"
        )
    p = report.T[s]  # per-antenna power at each block's subcarrier
    return w * np.sqrt(p[..., :1] / p)


def build_weight_matrix(
    geom: ArrayGeometry,
    beam_deg: float,
    null_degs: Sequence[float] | Sequence[Sequence[float]],
    n_rrb: int,
    report: np.ndarray | None = None,
    rb_sc_map: RbScMap | None = None,
    base: np.ndarray | None = None,
) -> np.ndarray:
    """Per-block transmit precoding matrix of shape (antennas, n_rrb).

    Every column is the unit-norm, optionally power-corrected weight vector
    for that resource block, conjugated into the transmit domain.  Without
    a report all columns are one vector, normalized once and broadcast: the
    result is a read-only view whose last stride is 0.  With a report, all
    blocks are corrected by a single :func:`power_correct` call and
    normalized together.  Either way each column has the bits of
    ``conj(normalize(power_correct(w, report, rb_sc_map, r)))``.  ``base``
    skips the LCMV solve when the constraint-domain vector is already known
    (the search tree solves each node once).

    A stacked ``base`` of shape (n, antennas), such as the weights of a
    tree frontier, gives a stack of matrices, (n, antennas, n_rrb), each
    with the bits of its own call; ``null_degs`` then only names the
    stack's null sets.  Without ``base``, ``null_degs`` is one null set.
    """
    if n_rrb < 1:
        raise ValueError("need at least one resource block")
    if (report is None) != (rb_sc_map is None):
        raise ValueError("power correction needs both a report and a block map")
    w = lcmv_weights(geom, beam_deg, null_degs) if base is None else np.asarray(base)
    if w.shape[-1] != geom.k_antennas:
        raise ValueError(
            f"weights of length {w.shape[-1]} do not fit {geom.k_antennas} antennas"
        )
    if report is None:
        cols = np.conj(normalize(w))[..., None]
        return np.broadcast_to(cols, w.shape + (n_rrb,))
    # (..., blocks, antennas): one corrected vector per block, then per column
    blocks = np.arange(n_rrb)
    rows = normalize(power_correct(w[..., None, :], report, rb_sc_map, blocks))
    return np.conj(rows).swapaxes(-1, -2)
