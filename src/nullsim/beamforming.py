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

from .phy_grid import N_RB, N_SC, RB_TO_SC

SPEED_OF_LIGHT_MPS = 299_792_458.0

# power reports are floored here so correction ratios stay finite
POWER_REPORT_FLOOR = 1e-12


def _distinct_blocks() -> tuple[np.ndarray, np.ndarray]:
    """The first block of each distinct :data:`RB_TO_SC` subcarrier (58 of
    the 100 blocks), and each block's row among those.

    Blocks on one subcarrier get one correction.  Built without
    ``np.unique``, whose first call costs about 0.5 MB of peak RSS.
    """
    scs = RB_TO_SC.tolist()
    row = {sc: i for i, sc in enumerate(dict.fromkeys(scs))}
    return np.array([scs.index(sc) for sc in row]), np.array([row[sc] for sc in scs])


_SC_BLOCKS, _BLOCK_ROW = _distinct_blocks()

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


def _check_angle(theta_deg: float) -> float:
    if not -90.0 <= theta_deg <= 90.0:
        raise ValueError(f"angle {theta_deg} outside [-90, 90] degrees")
    return float(theta_deg)


def steering_vector(geom: ArrayGeometry, theta_deg: float) -> np.ndarray:
    """Array response toward ``theta_deg``; element 0 is the phase reference."""
    return steering_vectors(geom, theta_deg)


def steering_vectors(geom: ArrayGeometry, thetas_deg: np.ndarray) -> np.ndarray:
    """The array response toward every angle of an array of angles.

    The result has the angles' shape plus one antenna axis.  The operations
    run elementwise, so every response has the bits of its own call.
    """
    thetas = np.asarray(thetas_deg, dtype=float)
    inside = abs(thetas) <= 90.0
    if not inside.all():
        raise ValueError(f"angle {np.asarray(thetas_deg)[~inside][0]} outside [-90, 90] degrees")
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


def _degenerate(c: np.ndarray, null_sets: np.ndarray, beam_deg: float) -> dict[int, str]:
    """Rows of a constraint stack whose solve is rejected, with its message.

    A row fails when its beam sits exactly on one of its nulls, or when its
    steering matrix is rank deficient (aliased or near-coincident
    directions): its sigma ratio from one stacked SVD is under RANK_TOL.
    :func:`lcmv_weights` sends its one row here; a search tree sends only
    the rows its projection bound does not clear
    (:func:`nullsim.nullsearch._failing`).  A beam alone needs no rank test.
    """
    if c.shape[-1] == 1:
        # one steering column has norm sqrt(K), so it always has full rank
        sv = np.ones((len(c), 1))
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


def null_basis(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """An orthonormal basis of the span of each of a stack of null columns.

    ``b`` is an (n, K, m) stack whose columns steer toward a row's nulls.
    Returns Q, (n, K, m), from one stacked SVD, and each row's singular
    values in descending order, (n, m).  A row has the bits of its own
    call.  No columns (a beam without nulls) need no SVD: Q is empty.
    """
    if not b.shape[-1]:
        return b, b[..., 0, :]
    q, sv, _ = np.linalg.svd(b, full_matrices=False)
    return q, sv


def lcmv_weights(
    geom: ArrayGeometry, beam_deg: float, null_degs: Sequence[float]
) -> np.ndarray:
    """Minimum-norm weights with unit gain at ``beam_deg``, zeros at ``null_degs``.

    With an identity interference covariance the LCMV beamformer reduces to
    the minimum-norm solution of the constraint system, which is what the
    sounding-free protocol can actually compute.  Requires at most K-1
    nulls so the constraint matrix can have full column rank.

    The checks run in this order: angles in range, beam on a null, null
    count, beam angle in range, rank.  The solve is
    :func:`min_norm_weights` on the beam and the :func:`null_basis` of the
    nulls' steering columns, the two steps a search tree's stacked node
    solve takes, so every tree row has the bits of its own call here.
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
    q, _ = null_basis(c[:, :, 1:])
    return min_norm_weights(c[:, :, 0], q)[0]


def min_norm_weights(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The solve of :func:`lcmv_weights`, on constraints already checked.

    ``a`` is the beam's steering vector as a (1, K) row that every row
    shares, and ``q`` an (n, K, m) stack of orthonormal bases of the rows'
    null columns (:func:`null_basis`), none of whose constraint matrices
    the rank test rejects; nothing is checked here.  Returns the (n, K)
    minimum-norm solutions of [a B]^H w = e1, each row with the bits of
    its own call.

    The solution is the beam's part orthogonal to the nulls, scaled to
    unit gain: r = a - Q (Q^H a), and w = r / (r^H r).  Near a rank loss
    the first projection cancels most of a, and rounding leaves up to
    about eps / (sigma ratio) of r in the nulls' span; projecting r once
    more takes it off.  A beam without nulls (m = 0) has nothing to
    project off, and r = a.
    """
    if q.shape[-1]:
        r = a - _project(q, a)
        r = r - _project(q, r)
    else:
        r = a.repeat(len(q), axis=0)
    return r / _sq_norms(r)[:, None]


def _project(q: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Q (Q^H x) for every row of an (n, K, m) stack of bases Q and of an
    (n, K) or shared (1, K) stack of vectors x.

    Both sums run along a non-last axis of a C-ordered product, so they
    add in order whatever the stack size, and each row has the bits of its
    own call.
    """
    coef = np.multiply(q.conj(), x[..., :, None], order="C").sum(axis=-2)
    return np.multiply(q.swapaxes(-1, -2), coef[..., None], order="C").sum(axis=-2)


def _sq_norms(x: np.ndarray) -> np.ndarray:
    """x^H x of every row of an (n, K) stack, summed along its own row."""
    return (x.real**2 + x.imag**2).sum(axis=-1)


def normalize(w: np.ndarray) -> np.ndarray:
    """Scale to unit Frobenius norm so total transmit power stays fixed.

    A ``w`` of more than one dimension is a stack of weight vectors along
    its last axis; each vector is scaled on its own, to the same bits as
    normalizing it alone.
    """
    w = np.asarray(w)
    n = _row_norms(w)[..., None]
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


def floor_power_report(report: np.ndarray) -> np.ndarray:
    """Clamp a per-antenna, per-subcarrier power report up to :data:`POWER_REPORT_FLOOR`."""
    report = np.asarray(report, dtype=float)
    if report.ndim != 2:
        raise ValueError("power report must be (antennas, subcarriers)")
    if (report < 0).any():
        raise ValueError("power report entries must be non-negative")
    return np.maximum(report, POWER_REPORT_FLOOR)


def power_correct(w: np.ndarray, report: np.ndarray, r: int | np.ndarray) -> np.ndarray:
    """Rescale weights for block ``r`` against the measured power report.

    Antenna k is scaled by sqrt(report[0, s] / report[k, s]) where s is
    the subcarrier mapped to block r (:data:`~nullsim.phy_grid.RB_TO_SC`),
    equalizing the per-antenna received power around the reference
    antenna 0.  The report is (antennas, 64).  An integer array ``r``
    corrects all its blocks in one pass and returns one corrected vector
    per row, shape (len(r), antennas); the report is floored and checked
    once.  The antennas are the last axis of ``w``; a stack of vectors of
    shape (n, 1, antennas) against an array ``r`` gives (n, len(r),
    antennas).
    """
    report = floor_power_report(report)
    if report.shape != (np.shape(w)[-1], N_SC):
        raise ValueError(
            f"a power report is (antennas, {N_SC}); got {report.shape} "
            f"for weights of length {np.shape(w)[-1]}"
        )
    p = report.T[RB_TO_SC[r]]  # per-antenna power at each block's subcarrier
    return w * np.sqrt(p[..., :1] / p)


def build_weight_matrix(
    geom: ArrayGeometry,
    beam_deg: float,
    null_degs: Sequence[float] | Sequence[Sequence[float]],
    report: np.ndarray | None = None,
    *,
    base: np.ndarray,
) -> np.ndarray:
    """Per-block transmit precoding matrix of shape (antennas, 100), a
    column for every resource block of :mod:`nullsim.phy_grid`.

    Every column is the unit-norm, optionally power-corrected weight vector
    for that resource block, conjugated into the transmit domain.  Without
    a report all columns are one vector, normalized once and broadcast: the
    result is a read-only view whose last stride is 0.  With a report,
    blocks that :data:`~nullsim.phy_grid.RB_TO_SC` maps to one subcarrier
    get one correction, so only the first block of each of the 58 distinct
    subcarriers is corrected, by a single :func:`power_correct` call, and
    normalized; each block's column is then gathered from those 58 rows.
    Either way each column has the bits of
    ``conj(normalize(power_correct(w, report, r)))``, where ``w`` is
    ``base``, the constraint-domain vector already solved (the search tree
    solves each node once).

    A stacked ``base`` of shape (n, antennas), such as the weights of a
    tree frontier, gives a stack of matrices, (n, antennas, 100), each
    with the bits of its own call.  ``null_degs`` only names the null sets.
    """
    w = np.asarray(base)
    if w.shape[-1] != geom.k_antennas:
        raise ValueError(
            f"weights of length {w.shape[-1]} do not fit {geom.k_antennas} antennas"
        )
    if report is None:
        cols = np.conj(normalize(w))[..., None]
        return np.broadcast_to(cols, w.shape + (N_RB,))
    # (..., distinct blocks, antennas): one corrected vector per subcarrier
    # the blocks map to, then one per block (``take`` gathers in half the
    # time of an index array), then per column
    rows = normalize(power_correct(w[..., None, :], report, _SC_BLOCKS))
    return rows.conj().take(_BLOCK_ROW, axis=-2).swapaxes(-1, -2)
