"""A frontier's measurement keeps every bit and every check of its
definition.

A run derives its correction gains once (``beamforming.correction_gains``)
and its users' noise column once, and ``build_weight_matrix``,
``sampled_inr`` and ``_row_norms`` reduce with ``np.add.reduce``,
``np.maximum`` and ``np.vecdot`` where numpy's wrappers would take a
Python-level hop.  The properties compare them bit for bit with the
per-block definition, with ``np.linalg.norm`` and with
``oracle.sampled_inr_reference``; the guard tests check that every
malformed input is still refused.

A larger example budget than a tier-1 run spends:
pytest tests/test_measurement_bits.py --hypothesis-profile=bits
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import sampled_inr_reference

from nullsim.beamforming import (
    POWER_REPORT_FLOOR,
    ArrayGeometry,
    _row_norms,
    build_weight_matrix,
    correction_gains,
    normalize,
    power_correct,
)
from nullsim.channel import averaged_inr, rx_power, sampled_inr
from nullsim.phy_grid import N_RB, N_SC

BITS_PROFILE = "bits"


def _examples(local: int) -> int:
    """A property's tier-1 budget, or the bits profile's larger one."""
    if settings.get_current_profile_name() == BITS_PROFILE:
        return settings().max_examples
    return local


seeds = st.integers(min_value=0, max_value=2**32 - 1)
antennas = st.integers(min_value=2, max_value=64)
stacks = st.integers(min_value=1, max_value=165)


def _weights(rng, n, k):
    """A stack of n complex weight vectors, each of its own magnitude."""
    w = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    return w * 10.0 ** rng.uniform(-3.0, 3.0, size=(n, 1))


def _report(rng, k):
    """A power report with about a fifth of its entries, on any antenna,
    at zero or below the floor."""
    report = rng.exponential(size=(k, N_SC)) * 10.0 ** rng.uniform(-9.0, 3.0)
    low = rng.random(report.shape) < 0.2
    report[low] = rng.choice([0.0, 1e-300, 0.5 * POWER_REPORT_FLOOR], size=low.sum())
    return report


@settings(max_examples=_examples(20), deadline=None)
@given(
    users=st.integers(min_value=1, max_value=4),
    k=antennas,
    n=stacks,
    corrected=st.booleans(),
    jitter=st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=5.0)),
    tx_power=st.floats(min_value=1e-3, max_value=1e3).filter(lambda p: p != 1.0),
    count=st.integers(min_value=1, max_value=100),
    column=st.booleans(),
    seed=seeds,
)
def test_sampled_inr_has_the_bits_of_the_reference(
    users, k, n, corrected, jitter, tx_power, count, column, seed
):
    """Plain and corrected stacks, with the noise powers as a list or as
    the (users, 1, 1) column a run builds once."""
    rng = np.random.default_rng(seed)
    gains = correction_gains(_report(rng, k)) if corrected else None
    wm = build_weight_matrix(
        ArrayGeometry(k_antennas=k), 0.0, ((),) * n, report=gains, base=_weights(rng, n, k)
    )
    h = rng.standard_normal((users, k, N_SC)) + 1j * rng.standard_normal((users, k, N_SC))
    noise = (10.0 ** rng.uniform(-9.0, 1.0, size=users)).tolist()
    rngs, ref_rngs = (
        [np.random.default_rng([seed, u]) for u in range(users)] for _ in range(2)
    )
    got = sampled_inr(
        h, wm, np.array(noise)[:, None, None] if column else noise,
        tx_power, count, jitter, rngs,
    )
    assert got == sampled_inr_reference(h, wm, noise, tx_power, count, jitter, ref_rngs)
    for rng_u, ref_u in zip(rngs, ref_rngs):
        assert rng_u.bit_generator.state == ref_u.bit_generator.state


@settings(max_examples=_examples(20), deadline=None)
@given(k=antennas, n=stacks, seed=seeds)
def test_run_gains_give_every_corrected_column_the_bits_of_its_block(k, n, seed):
    """Column r of config i is conj(normalize(power_correct(w_i, report, r))),
    the vector normalized by ``np.linalg.norm``."""
    rng = np.random.default_rng(seed)
    report, w = _report(rng, k), _weights(rng, n, k)
    m = build_weight_matrix(
        ArrayGeometry(k_antennas=k), 0.0, ((),) * n, report=correction_gains(report), base=w
    )
    expected = np.empty((n, k, N_RB), dtype=complex)
    for r in range(N_RB):
        for i, v in enumerate(power_correct(w, report, r)):
            expected[i, :, r] = np.conj(v / np.linalg.norm(v))
    assert np.array_equal(m, expected)


@settings(max_examples=_examples(40), deadline=None)
@given(
    shape=st.sampled_from([(1,), (165,), (3, 58), (2, 3, 5)]),
    k=antennas,
    seed=seeds,
)
def test_row_norms_are_numpys_norms_row_by_row(shape, k, seed):
    """Rows of magnitudes from 1e-150 to 1e150, complex and real."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(shape + (k,)) + 1j * rng.standard_normal(shape + (k,))
    w *= 10.0 ** rng.uniform(-150.0, 150.0, size=shape + (1,))
    for x in (w, w.real.copy()):
        expected = [np.linalg.norm(v) for v in x.reshape(-1, k)]
        assert _row_norms(x).ravel().tolist() == expected


# ---------------------------------------------------------------------------
# the checks the measurement keeps


def _measurable(k=4, n=2):
    rng = np.random.default_rng(3)
    h = rng.standard_normal((2, k, N_SC)) + 1j * rng.standard_normal((2, k, N_SC))
    wm = build_weight_matrix(ArrayGeometry(k_antennas=k), 0.0, ((),) * n, base=_weights(rng, n, k))
    return h, wm


@pytest.mark.parametrize("column", [False, True])
@pytest.mark.parametrize("jitter", [0.0, 0.5])
@pytest.mark.parametrize(
    "noise",
    [[1.0, math.nan], [math.nan, 1.0], [1.0, 0.0], [0.0, 1.0], [1.0, -1e-9], [-1.0, 1.0]],
)
def test_a_noise_power_that_is_not_positive_is_refused_in_any_position(noise, jitter, column):
    # min() compares with <, which NaN fails, so min(noise) > 0 would pass [1.0, nan]
    h, wm = _measurable()
    arg = np.array(noise)[:, None, None] if column else noise
    rngs = [np.random.default_rng(u) for u in range(2)]
    with pytest.raises(ValueError, match="noise power must be positive"):
        sampled_inr(h, wm, arg, 1.0, 10, jitter, rngs)
    with pytest.raises(ValueError, match="noise power must be positive"):
        averaged_inr(np.ones((2, 3)), arg, 10, jitter, rngs)


def test_a_noise_column_of_another_user_count_is_refused():
    h, wm = _measurable()
    for noise in ([1.0], [1.0, 1.0, 1.0], np.ones((3, 1, 1))):
        with pytest.raises(ValueError, match="one noise power per user"):
            sampled_inr(h, wm, noise)


def test_gains_or_a_report_of_the_wrong_shape_are_refused():
    geom = ArrayGeometry(k_antennas=4)
    w = _weights(np.random.default_rng(1), 2, 4)
    report = np.ones((4, N_SC))
    gains = correction_gains(report)
    wrong = (
        report,                                     # the report itself, not its gains
        correction_gains(np.ones((8, N_SC))),       # another array's gains
        gains[:-1],                                 # a block short
        gains[:, :, None],
        gains[0],
    )
    for bad in wrong:
        with pytest.raises(ValueError, match="power report"):
            build_weight_matrix(geom, 0.0, ((),) * 2, report=bad, base=w)
    for bad in (np.ones((4, N_SC - 1)), np.ones((4, N_RB)), np.ones(N_SC), np.ones((1, 4, N_SC))):
        with pytest.raises(ValueError, match="power report"):
            correction_gains(bad)
    with pytest.raises(ValueError, match="non-negative"):
        correction_gains(-report)


def test_a_response_without_64_subcarriers_is_refused():
    h, wm = _measurable()
    for bad in (h[..., :-1], np.concatenate([h, h], axis=-1)[..., :N_RB]):
        with pytest.raises(ValueError, match=f"{N_SC} subcarriers"):
            sampled_inr(bad, wm, [1.0, 1.0])
        with pytest.raises(ValueError, match=f"{N_SC} subcarriers"):
            rx_power(bad, wm)


@pytest.mark.parametrize("corrected", [False, True])
def test_an_all_zero_weight_vector_is_refused_in_any_row(corrected):
    geom = ArrayGeometry(k_antennas=4)
    gains = correction_gains(np.ones((4, N_SC))) if corrected else None
    for row in range(3):
        w = _weights(np.random.default_rng(row), 3, 4)
        w[row] = 0.0
        with pytest.raises(ValueError, match="all-zero"):
            build_weight_matrix(geom, 0.0, ((),) * 3, report=gains, base=w)
        with pytest.raises(ValueError, match="all-zero"):
            normalize(w)
