"""Ray channels, received power, and INR measurement."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nullsim.beamforming import ArrayGeometry, build_weight_matrix, lcmv_weights, normalize
from nullsim.channel import (
    MIN_MEASURABLE_POWER,
    ORBIT_ECHO_COUNT,
    ORBIT_ECHO_DB,
    ORBIT_ECHO_DELAY_S,
    ORBIT_GAIN_SIGMA_DB,
    TWO_RAY_ECHO_DELAY_S,
    TWO_RAY_ECHO_GAIN,
    TWO_RAY_ECHO_OFFSET_DEG,
    ChannelModel,
    InrReport,
    Path,
    channel_response,
    flat_channel,
    orbit_like_channel,
    power_report,
    rx_power,
    sampled_inr,
    two_ray_channel,
)
from nullsim.phy_grid import CENTER_FREQ_HZ, N_SC, SC_BANDWIDTH_HZ, SC_CENTERS_HZ, SC_TO_RB


def sc_center_freq(s: int) -> int:
    """Center frequency of subcarrier ``s`` in integer hertz, from the grid's
    definition: an oracle independent of the channel's vectorized centers."""
    return CENTER_FREQ_HZ + (2 * s - (N_SC - 1)) * SC_BANDWIDTH_HZ // 2


def test_path_validation():
    with pytest.raises(ValueError):
        Path(91.0)
    with pytest.raises(ValueError):
        Path(0.0, gain=0.0)
    with pytest.raises(ValueError):
        Path(0.0, excess_delay_s=-1e-9)


def test_model_validation():
    with pytest.raises(ValueError):
        ChannelModel(mode="flat", paths=(Path(0.0), Path(1.0)))
    with pytest.raises(ValueError):
        ChannelModel(mode="flat", paths=(Path(0.0, excess_delay_s=1e-9),))
    with pytest.raises(ValueError):
        ChannelModel(mode="maze", paths=(Path(0.0),))
    with pytest.raises(ValueError):
        ChannelModel(mode="flat", paths=(Path(0.0),), antenna_gains=(1.0, 0.0))


def test_flat_broadside_response_is_all_ones(geom4):
    h = channel_response(flat_channel(0.0), geom4)
    assert np.allclose(h, np.ones((4, N_SC)))


@settings(max_examples=30, deadline=None)
@given(angle=st.floats(min_value=-90, max_value=90))
def test_zero_delay_gives_identical_columns(angle):
    h = channel_response(flat_channel(angle), ArrayGeometry(k_antennas=4))
    assert np.allclose(h, h[:, :1])


def per_path_response(model: ChannelModel, geom: ArrayGeometry) -> np.ndarray:
    """The response built path by path, two ``np.exp`` calls per path: the
    oracle that the one-pass build must match bit for bit."""
    k = np.arange(geom.k_antennas)[:, None]
    freqs = SC_CENTERS_HZ.astype(float)
    h = np.zeros((geom.k_antennas, N_SC), dtype=complex)
    for p in model.paths:
        spatial = np.exp(
            2j * np.pi * geom.spacing_wavelengths * k * math.sin(math.radians(p.angle_deg))
        )
        spectral = np.exp(-2j * np.pi * freqs * p.excess_delay_s)[None, :]
        h += p.gain * spatial * spectral
    if model.antenna_gains is not None:
        h *= np.asarray(model.antenna_gains, dtype=float)[:, None]
    return h


@settings(max_examples=300, deadline=None)
@given(
    preset=st.sampled_from(["flat", "two-ray", "orbit-like"]),
    k=st.integers(min_value=2, max_value=64),
    spacing_m=st.floats(min_value=0.005, max_value=0.5),
    angle=st.sampled_from([0.0, -0.0, 90.0, -90.0]) | st.floats(min_value=-90, max_value=90),
    gain=st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    antenna_gains=st.booleans(),
)
def test_the_one_pass_response_has_the_bits_of_the_per_path_sum(
    preset, k, spacing_m, angle, gain, seed, antenna_gains
):
    geom = ArrayGeometry(k_antennas=k, spacing_m=spacing_m)
    rng = np.random.default_rng(seed)
    if preset == "flat":
        model = ChannelModel(mode="flat", paths=(Path(angle, gain, 0.0),))
    elif preset == "two-ray":
        model = two_ray_channel(angle)
    else:
        model = orbit_like_channel(rng, k, angle)
    gains = tuple(rng.uniform(0.5, 2.0, size=k).tolist()) if antenna_gains else None
    model = replace(model, antenna_gains=gains)
    h = channel_response(model, geom)
    assert h.shape == (k, N_SC) and h.dtype == complex
    assert h.view(np.uint64).tobytes() == per_path_response(model, geom).view(np.uint64).tobytes()


def test_two_path_closed_form(geom4):
    """Antenna 0 sees 1 + g*exp(-j*2*pi*f*tau) exactly."""
    g, tau = TWO_RAY_ECHO_GAIN, TWO_RAY_ECHO_DELAY_S
    model = two_ray_channel(0.0)
    assert model.paths[1].angle_deg == TWO_RAY_ECHO_OFFSET_DEG
    h = channel_response(model, geom4)
    for s in range(N_SC):
        expected = 1.0 + g * np.exp(-2j * np.pi * sc_center_freq(s) * tau)
        assert h[0, s] == pytest.approx(expected, abs=1e-12)


def test_spectral_phase_uses_the_integer_subcarrier_centers(geom4):
    """One delayed path at broadside: antenna 0 sees exp(-j*2*pi*f*tau) with
    each f the float of the subcarrier's integer center, bit for bit."""
    tau = 150e-9
    model = ChannelModel(mode="geometric", paths=(Path(0.0, excess_delay_s=tau),))
    h = channel_response(model, geom4)
    centers = np.array([float(sc_center_freq(s)) for s in range(N_SC)])
    assert np.array_equal(h[0], np.exp(-2j * np.pi * centers * tau))


def test_two_ray_preset_is_strongly_frequency_selective(geom4):
    # what a single-antenna node sees on one unprecoded antenna path
    h = channel_response(two_ray_channel(0.0), geom4)
    p = np.abs(h[0]) ** 2
    assert 10 * math.log10(p.max() / p.min()) >= 10.0


def test_antenna_gains_scale_rows(geom4):
    gains = (1.0, 2.0, 0.5, 1.5)
    base = flat_channel(10.0)
    model = ChannelModel(mode="flat", paths=base.paths, antenna_gains=gains)
    h0 = channel_response(base, geom4)
    h1 = channel_response(model, geom4)
    assert np.allclose(h1, h0 * np.array(gains)[:, None])


def test_antenna_gains_length_must_match(geom4):
    model = ChannelModel(mode="flat", paths=(Path(0.0),), antenna_gains=(1.0, 1.0))
    with pytest.raises(ValueError):
        channel_response(model, geom4)


# ---------------------------------------------------------------------------
# received power


def test_matched_filter_coherent_gain(geom8):
    w = build_weight_matrix(geom8, 25.0, (), base=lcmv_weights(geom8, 25.0, ()))
    h = channel_response(flat_channel(25.0), geom8)
    p = rx_power(h, w, tx_power=3.0)
    assert np.allclose(p, 3.0 * 8.0)


def test_exact_null_kills_the_ray(geom8):
    w = build_weight_matrix(geom8, 25.0, (-40.0,), base=lcmv_weights(geom8, 25.0, (-40.0,)))
    h = channel_response(flat_channel(-40.0), geom8)
    assert np.all(rx_power(h, w) < 1e-18)


def test_rx_power_matches_scalar_recomputation(rng):
    geom = ArrayGeometry(k_antennas=2)
    h = rng.standard_normal((2, 64)) + 1j * rng.standard_normal((2, 64))
    w = rng.standard_normal((2, 100)) + 1j * rng.standard_normal((2, 100))
    p = rx_power(h, w, tx_power=2.0)
    for s in range(64):
        acc = sum(w[k, SC_TO_RB[s]] * h[k, s] for k in range(2))
        assert p[s] == pytest.approx(2.0 * abs(acc) ** 2)


@settings(max_examples=25, deadline=None)
@given(re=st.floats(min_value=-3, max_value=3), im=st.floats(min_value=-3, max_value=3))
def test_path_gain_scales_power_quadratically(re, im):
    c = complex(re, im)
    if abs(c) < 1e-3:
        c += 1.0
    geom = ArrayGeometry(k_antennas=4)
    w = build_weight_matrix(geom, 10.0, (), base=lcmv_weights(geom, 10.0, ()))
    p1 = rx_power(channel_response(flat_channel(40.0), geom), w)
    p2 = rx_power(channel_response(ChannelModel(mode="flat", paths=(Path(40.0, c, 0.0),)), geom), w)
    assert np.allclose(p2, abs(c) ** 2 * p1)


def test_rx_power_validation(geom4):
    h = channel_response(flat_channel(0.0), geom4)
    w = build_weight_matrix(geom4, 0.0, (), base=lcmv_weights(geom4, 0.0, ()))
    with pytest.raises(ValueError):
        rx_power(h, w, tx_power=0.0)
    with pytest.raises(ValueError):
        rx_power(h[:3], w)
    with pytest.raises(ValueError, match="64 subcarriers"):
        rx_power(h[:, :10], w)
    with pytest.raises(ValueError, match="100 resource blocks"):
        rx_power(h, w[:, :5])


def test_power_report_is_squared_magnitude(geom4):
    h = channel_response(two_ray_channel(5.0), geom4)
    assert np.array_equal(power_report(h), np.abs(h) ** 2)


# ---------------------------------------------------------------------------
# INR


def test_inr_report_rejects_negative_values():
    with pytest.raises(ValueError):
        InrReport(aggregate=-0.5)


def test_aggregate_db_floor():
    rep = InrReport(aggregate=0.0)
    assert rep.aggregate_db == 10 * math.log10(MIN_MEASURABLE_POWER)


def test_zero_jitter_sampling_is_exact(geom4):
    model = flat_channel(15.0)
    h = channel_response(model, geom4)
    w = build_weight_matrix(geom4, 40.0, (), base=lcmv_weights(geom4, 40.0, ()))
    ((inr,),) = sampled_inr(h[None], w[None], [1e-6], sample_count=100)
    p = rx_power(h, w)
    expected = (float(np.mean(p)) + 1e-6) / 1e-6
    assert inr == expected


def test_jitter_needs_rng(geom4):
    model = flat_channel(0.0)
    h = channel_response(model, geom4)
    w = build_weight_matrix(geom4, 30.0, (), base=lcmv_weights(geom4, 30.0, ()))
    with pytest.raises(ValueError, match="rng per user"):
        sampled_inr(h[None], w[None], [1e-9], noise_jitter=0.1)
    with pytest.raises(ValueError, match="rng per user"):
        sampled_inr(h[None], w[None], [1e-9], noise_jitter=0.1, rngs=[None])


def test_averaging_variance_shrinks_with_sample_count(geom4):
    """Std of the averaged INR scales like 1/sqrt(N)."""
    model = flat_channel(20.0)
    h = channel_response(model, geom4)
    w = build_weight_matrix(geom4, 50.0, (), base=lcmv_weights(geom4, 50.0, ()))

    def spread(n, trials=200):
        vals = [
            sampled_inr(
                h[None], w[None], [1e-3],
                sample_count=n, noise_jitter=0.5,
                rngs=[np.random.default_rng([trial, n])],
            )[0][0]
            for trial in range(trials)
        ]
        return float(np.std(vals))

    ratio = spread(25) / spread(400)
    assert 2.8 < ratio < 5.7  # ideal 4.0


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    noise=st.floats(min_value=1e-6, max_value=1e2),
    jitter=st.floats(min_value=1e-3, max_value=5.0),
    count=st.integers(min_value=1, max_value=300),
)
def test_jittered_aggregate_matches_per_draw_mean(geom4, seed, noise, jitter, count):
    """The array average equals the per-draw list mean and draws the same numbers."""
    model = flat_channel(20.0)
    h = channel_response(model, geom4)
    w = build_weight_matrix(geom4, 0.0, (), base=lcmv_weights(geom4, 0.0, ()))
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    ((inr,),) = sampled_inr(
        h[None], w[None], [noise], sample_count=count, noise_jitter=jitter, rngs=[rng]
    )
    p_on = float(np.mean(rx_power(h, w))) + noise
    draws = p_on + jitter * noise * ref_rng.standard_normal(count)
    np.clip(draws, MIN_MEASURABLE_POWER, None, out=draws)
    assert inr == float(np.mean([d / noise for d in draws]))
    assert rng.standard_normal() == ref_rng.standard_normal()


def test_sample_count_validation(geom4):
    model = flat_channel(0.0)
    h = channel_response(model, geom4)
    w = build_weight_matrix(geom4, 30.0, (), base=lcmv_weights(geom4, 30.0, ()))
    with pytest.raises(ValueError):
        sampled_inr(h[None], w[None], [1e-9], sample_count=0)
    with pytest.raises(ValueError):
        sampled_inr(h[None], w[None], [1e-9], noise_jitter=-0.1)
    for noise in (0.0, -1e-9):
        with pytest.raises(ValueError, match="noise power must be positive"):
            sampled_inr(h[None], w[None], [noise])


def test_a_measurement_takes_stacks_and_one_noise_power_per_user(geom4):
    model = flat_channel(0.0)
    h = channel_response(model, geom4)
    w = build_weight_matrix(geom4, 30.0, (), base=lcmv_weights(geom4, 30.0, ()))
    with pytest.raises(ValueError, match="stacks"):
        sampled_inr(h, w[None], [1e-9])
    with pytest.raises(ValueError, match="stacks"):
        sampled_inr(h[None], w, [1e-9])
    with pytest.raises(ValueError, match="one noise power per user"):
        sampled_inr(np.array([h, h]), w[None], [1e-9])


# ---------------------------------------------------------------------------
# presets


def test_orbit_like_draw_is_deterministic(geom4):
    a = orbit_like_channel(np.random.default_rng(77), 4, angle_deg=-20.0)
    b = orbit_like_channel(np.random.default_rng(77), 4, angle_deg=-20.0)
    assert a == b
    assert len(a.paths) == 4  # dominant ray plus the echoes
    assert a.antenna_gains is not None and len(a.antenna_gains) == 4


def scalar_orbit_draw(rng, k_antennas, angle_deg):
    """The orbit-like draw made one scalar draw at a time: each echo's
    level, phase, angle and delay, then every antenna's gain."""
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
        float(10.0 ** (rng.normal(0.0, ORBIT_GAIN_SIGMA_DB) / 20.0)) for _ in range(k_antennas)
    )
    return ChannelModel("geometric", tuple(paths), gains)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    k=st.integers(min_value=2, max_value=64),
    angle=st.floats(min_value=-90, max_value=90),
)
def test_the_orbit_draw_has_the_bits_and_rng_state_of_scalar_draws(seed, k, angle):
    drawn, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
    model = orbit_like_channel(drawn, k, angle)
    assert repr(model) == repr(scalar_orbit_draw(scalar, k, angle))
    # every value is a Python float or complex, as a scalar draw gives
    assert all(type(g) is float for g in model.antenna_gains)
    assert all(type(p.angle_deg) is float for p in model.paths[1:])
    # and the generator is left where the scalar draws leave it
    assert drawn.bit_generator.state == scalar.bit_generator.state


def test_orbit_like_echoes_are_below_the_direct_ray():
    model = orbit_like_channel(np.random.default_rng(3), 8, angle_deg=10.0)
    direct, *echoes = model.paths
    assert abs(direct.gain) == 1.0 and direct.excess_delay_s == 0.0
    for echo in echoes:
        assert abs(echo.gain) < 0.2
        assert 0 < echo.excess_delay_s < 1e-6
