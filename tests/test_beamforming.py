"""Steering vectors, constrained weights, power correction, normalization.

The minimum-norm weights are checked against a dense pseudo-inverse
oracle: w = C (C^H C)^(-1) f computed independently of the production
least-squares path.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nullsim import beamforming
from nullsim.beamforming import (
    SPEED_OF_LIGHT_MPS,
    ArrayGeometry,
    DegenerateConstraintsError,
    build_weight_matrix,
    correction_gains,
    floor_power_report,
    lcmv_weights,
    normalize,
    power_correct,
    steering_vector,
)
from nullsim.phy_grid import N_RB, RB_TO_SC


def half_wave_geometry(k):
    # spacing chosen so d/lambda is exactly 0.5
    f = 2.412e9
    return ArrayGeometry(k_antennas=k, spacing_m=0.5 * SPEED_OF_LIGHT_MPS / f, carrier_freq_hz=f)


def pinv_oracle(geom, beam_deg, null_degs):
    cols = [steering_vector(geom, beam_deg)]
    cols += [steering_vector(geom, a) for a in null_degs]
    c = np.column_stack(cols)
    f = np.zeros(c.shape[1], dtype=complex)
    f[0] = 1.0
    return c @ np.linalg.inv(c.conj().T @ c) @ f


def draw_separated_angles(rng, count, min_sin_gap=0.05):
    """Random angles whose sines are pairwise separated (full-rank constraints)."""
    while True:
        angles = rng.uniform(-90.0, 90.0, size=count)
        sins = np.sin(np.radians(angles))
        if count == 1 or np.min(np.diff(np.sort(sins))) >= min_sin_gap:
            return angles


# ---------------------------------------------------------------------------
# steering


def test_broadside_steering_is_all_ones(geom8):
    assert np.allclose(steering_vector(geom8, 0.0), np.ones(8))


def test_half_wave_endfire_alternates_sign():
    a = steering_vector(half_wave_geometry(2), 90.0)
    assert np.allclose(a, [1.0, -1.0], atol=1e-12)


def test_default_spacing_ratio():
    # 0.0718 m at 2.412 GHz, frozen to 7 decimals
    assert ArrayGeometry().spacing_wavelengths == pytest.approx(0.5776716, abs=1e-7)


@settings(max_examples=60, deadline=None)
@given(
    theta=st.floats(min_value=-90.0, max_value=90.0),
    k=st.integers(min_value=2, max_value=10),
)
def test_steering_reference_element_and_modulus(theta, k):
    a = steering_vector(ArrayGeometry(k_antennas=k), theta)
    assert a[0] == 1.0 + 0j
    assert np.allclose(np.abs(a), 1.0)


def test_steering_angle_out_of_range(geom4):
    with pytest.raises(ValueError):
        steering_vector(geom4, 90.5)


def test_geometry_validation():
    with pytest.raises(ValueError):
        ArrayGeometry(k_antennas=1)
    with pytest.raises(ValueError):
        ArrayGeometry(spacing_m=0.0)


# ---------------------------------------------------------------------------
# constrained weights


def test_beam_only_weights_are_matched_filter(geom8):
    w = lcmv_weights(geom8, 33.0, [])
    assert np.allclose(w, steering_vector(geom8, 33.0) / 8)


def test_two_antenna_broadside_beam_endfire_null():
    w = lcmv_weights(half_wave_geometry(2), 0.0, [90.0])
    assert np.allclose(w, [0.5, 0.5], atol=1e-12)


def test_constraints_hold_on_random_draws(rng):
    geom = ArrayGeometry(k_antennas=8)
    for _ in range(50):
        angles = draw_separated_angles(rng, 5)
        beam, nulls = angles[0], angles[1:]
        w = lcmv_weights(geom, beam, nulls)
        assert abs(np.vdot(w, steering_vector(geom, beam)) - 1.0) < 1e-10
        for a in nulls:
            assert abs(np.vdot(w, steering_vector(geom, a))) < 1e-10


def test_minimum_norm_matches_pinv_oracle(rng):
    for k in (2, 4, 8):
        geom = ArrayGeometry(k_antennas=k)
        for _ in range(25):
            angles = draw_separated_angles(rng, min(k - 1, 4))
            w = lcmv_weights(geom, angles[0], angles[1:])
            assert np.allclose(w, pinv_oracle(geom, angles[0], angles[1:]), atol=1e-8)


def test_null_on_beam_is_degenerate(geom4):
    with pytest.raises(DegenerateConstraintsError):
        lcmv_weights(geom4, 10.0, [10.0])


def test_nearly_coincident_nulls_are_degenerate(geom4):
    with pytest.raises(DegenerateConstraintsError):
        lcmv_weights(geom4, 0.0, [30.0, 30.0 + 1e-10])


def test_too_many_constraints_rejected():
    geom = half_wave_geometry(2)
    with pytest.raises(ValueError):
        lcmv_weights(geom, 0.0, [30.0, -30.0])


# ---------------------------------------------------------------------------
# normalize


def test_normalize_examples():
    assert np.allclose(normalize(np.array([3.0, 4.0j])), [0.6, 0.8j])
    unit = np.array([1.0 + 0j, 0.0])
    assert np.allclose(normalize(unit), unit)


def test_normalize_zero_vector():
    with pytest.raises(ValueError):
        normalize(np.zeros(4, dtype=complex))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=-5, max_value=5), min_size=2, max_size=6))
def test_normalize_idempotent(values):
    v = np.array(values, dtype=complex)
    if np.linalg.norm(v) < 1e-6:
        v[0] += 1.0
    once = normalize(v)
    assert np.linalg.norm(once) == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(normalize(once), once)


# ---------------------------------------------------------------------------
# power correction


def flat_report(k, n_sc, value=1.0):
    return np.full((k, n_sc), value)


def test_equal_path_powers_leave_weights_unchanged():
    w = np.array([1 + 1j, 2.0, 0.5j, -1.0])
    out = power_correct(w, flat_report(4, 64), 10)
    assert np.allclose(out, w)


def test_power_correction_ratio():
    report = flat_report(2, 64)
    s = RB_TO_SC[7]
    report[0, s], report[1, s] = 4.0, 1.0
    out = power_correct(np.array([1.0 + 0j, 1.0]), report, 7)
    assert out[0] == pytest.approx(1.0)
    assert out[1] == pytest.approx(2.0)


@settings(max_examples=30, deadline=None)
@given(scale=st.floats(min_value=1e-3, max_value=1e3))
def test_correction_invariant_to_global_report_scale(scale):
    rng = np.random.default_rng(5)
    report = rng.uniform(0.1, 10.0, size=(4, 64))
    w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    assert np.allclose(
        power_correct(w, report, 33),
        power_correct(w, scale * report, 33),
    )


def test_report_flooring():
    report = np.zeros((2, 4))
    floored = floor_power_report(report)
    assert np.all(floored > 0)
    with pytest.raises(ValueError):
        floor_power_report(np.array([[-1.0, 1.0]]))
    with pytest.raises(ValueError):
        floor_power_report(np.ones(4))


def test_block_array_correction_stacks_the_per_block_vectors(rng):
    report = rng.uniform(0.1, 10.0, size=(4, 64))
    w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    stacked = power_correct(w, report, np.arange(N_RB))
    assert stacked.shape == (N_RB, 4)
    for r in range(N_RB):
        assert np.array_equal(stacked[r], power_correct(w, report, r))


def test_correction_shape_errors():
    # a power report is (antennas, 64)
    with pytest.raises(ValueError, match="power report"):
        power_correct(np.ones(3, dtype=complex), flat_report(4, 64), 0)
    with pytest.raises(ValueError, match="power report"):
        power_correct(np.ones(4, dtype=complex), flat_report(4, 2), 99)


# ---------------------------------------------------------------------------
# weight matrix


def test_matrix_without_report_replicates_one_column(geom4):
    t = (-40.0, 55.0)
    m = build_weight_matrix(geom4, 12.0, t, base=lcmv_weights(geom4, 12.0, t))
    expected = np.conj(normalize(lcmv_weights(geom4, 12.0, t)))
    assert m.shape == (4, 100)
    assert np.allclose(m, expected[:, None])


def test_matrix_with_flat_report_equals_no_report(geom4):
    w = lcmv_weights(geom4, 5.0, (30.0,))
    plain = build_weight_matrix(geom4, 5.0, (30.0,), base=w)
    corrected = build_weight_matrix(geom4, 5.0, (30.0,), report=correction_gains(flat_report(4, 64, 2.5)), base=w)
    assert np.allclose(plain, corrected)


def test_all_columns_unit_norm(geom8, rng):
    report = rng.uniform(0.2, 5.0, size=(8, 64))
    w = lcmv_weights(geom8, -17.0, (42.0,))
    m = build_weight_matrix(geom8, -17.0, (42.0,), report=correction_gains(report), base=w)
    assert np.allclose(np.linalg.norm(m, axis=0), 1.0, atol=1e-9)


def test_selective_report_changes_columns_at_map_boundaries():
    # antenna 1 is 6 dB stronger on the upper 32 subcarriers only, so the
    # blocks that map there take other weights than the blocks below
    geom = ArrayGeometry(k_antennas=4)
    report = flat_report(4, 64)
    report[1, 32:] = 4.0
    w = lcmv_weights(geom, 0.0, (50.0,))
    m = build_weight_matrix(geom, 0.0, (50.0,), report=correction_gains(report), base=w)
    boundary = RB_TO_SC.tolist().index(32)
    left, right = m[:, boundary - 1], m[:, boundary]
    assert np.allclose(m[:, : boundary], left[:, None])
    assert np.allclose(m[:, boundary :], right[:, None])
    assert not np.allclose(left, right)


def test_matrix_argument_validation(geom4):
    with pytest.raises(TypeError, match="base"):
        build_weight_matrix(geom4, 0.0, ())  # the weights are always solved first
    with pytest.raises(ValueError):
        build_weight_matrix(geom4, 0.0, (), base=np.ones(3, dtype=complex))
    w = lcmv_weights(geom4, 0.0, ())
    # the report argument takes a report's correction gains: another
    # array's gains, or a power report itself, are refused
    for report in (correction_gains(flat_report(8, 64)), flat_report(4, 64)):
        with pytest.raises(ValueError, match="power report"):
            build_weight_matrix(geom4, 0.0, (), report=report, base=w)


def per_block_reference(w, report=None):
    """The matrix column by column: per-block power_correct, normalize, conj."""
    cols = np.empty((len(w), N_RB), dtype=complex)
    for r in range(N_RB):
        wr = w if report is None else power_correct(w, report, r)
        cols[:, r] = np.conj(normalize(wr))
    return cols


@pytest.mark.parametrize("k", [2, 4, 8])
@pytest.mark.parametrize("corrected", [False, True])
@pytest.mark.parametrize("excluded", [(), (0, 1, 31, 32, 62, 63)])
def test_matrix_is_bit_identical_to_per_block_reference(k, corrected, excluded):
    """``excluded`` subcarriers (guard and DC bins) report no power on any
    antenna, so the floor stands in for every antenna's power there."""
    geom = ArrayGeometry(k_antennas=k)
    rng = np.random.default_rng([k, len(excluded)])
    for _ in range(25):
        w = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        w *= 10.0 ** rng.uniform(-3.0, 3.0)
        report = None
        if corrected:
            report = rng.exponential(size=(k, 64)) * 10.0 ** rng.uniform(-9.0, 3.0)
            report[rng.random(report.shape) < 0.15] = 0.0  # floored
            report[:, list(excluded)] = 0.0
        gains = None if report is None else correction_gains(report)
        m = build_weight_matrix(geom, 0.0, (), report=gains, base=w)
        assert m.shape == (k, N_RB)
        assert np.array_equal(m, per_block_reference(w, report))


def test_matrix_report_too_short_for_the_map(geom4):
    w = lcmv_weights(geom4, 0.0, (30.0,))
    with pytest.raises(ValueError, match="power report"):
        build_weight_matrix(geom4, 0.0, (30.0,), report=flat_report(4, 10), base=w)


def test_a_corrected_matrix_corrects_each_distinct_block_once(geom4, monkeypatch):
    """Blocks on one subcarrier share a correction, so only the first block
    of each of the 58 distinct subcarriers is corrected, when the gains
    are derived; a matrix built on them corrects nothing again."""
    corrected = []
    real = beamforming.power_correct
    monkeypatch.setattr(
        beamforming, "power_correct", lambda w, report, r: corrected.append(r) or real(w, report, r)
    )
    w = lcmv_weights(geom4, 21.4, (-30.0,))
    report = np.random.default_rng(7).exponential(size=(4, 64))
    gains = correction_gains(report)
    m = build_weight_matrix(geom4, 21.4, (-30.0,), report=gains, base=w)
    (blocks,) = corrected
    assert blocks.tolist() == np.unique(RB_TO_SC, return_index=True)[1].tolist()
    assert len(blocks) == 58
    assert gains.shape == (58, 4)
    assert np.array_equal(m, per_block_reference(w, report))
