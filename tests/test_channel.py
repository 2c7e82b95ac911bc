"""Ray channels, received power, and INR measurement."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nullsim.beamforming import ArrayGeometry, build_weight_matrix, lcmv_weights, normalize
from nullsim.channel import (
    MIN_MEASURABLE_POWER,
    ChannelModel,
    InrReport,
    Path,
    channel_response,
    flat_channel,
    measure_inr,
    orbit_like_channel,
    power_report,
    rx_power,
    sampled_inr,
    two_ray_channel,
    with_noise_power,
)
from nullsim.phy_grid import WifiGrid


def sc_center_freq(grid: WifiGrid, s: int) -> int:
    """Center frequency of subcarrier ``s`` in integer hertz, from the grid's
    definition: an oracle independent of the channel's vectorized centers."""
    return grid.center_freq_hz + (2 * s - (grid.n_sc - 1)) * grid.sc_bandwidth_hz // 2


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
        ChannelModel(mode="flat", paths=(Path(0.0),), noise_power=0.0)
    with pytest.raises(ValueError):
        ChannelModel(mode="flat", paths=(Path(0.0),), antenna_gains=(1.0, 0.0))


def test_flat_broadside_response_is_all_ones(geom4, wifi):
    h = channel_response(flat_channel(0.0), geom4, wifi)
    assert np.allclose(h, np.ones((4, wifi.n_sc)))


@settings(max_examples=30, deadline=None)
@given(angle=st.floats(min_value=-90, max_value=90))
def test_zero_delay_gives_identical_columns(angle):
    h = channel_response(flat_channel(angle), ArrayGeometry(k_antennas=4), WifiGrid())
    assert np.allclose(h, h[:, :1])


def test_two_path_closed_form(geom4, wifi):
    """Antenna 0 sees 1 + g*exp(-j*2*pi*f*tau) exactly."""
    g, tau = 0.63, 150e-9
    model = two_ray_channel(0.0, echo_offset_deg=25.0, echo_gain=g, echo_delay_s=tau)
    h = channel_response(model, geom4, wifi)
    for s in range(wifi.n_sc):
        expected = 1.0 + g * np.exp(-2j * np.pi * sc_center_freq(wifi, s) * tau)
        assert h[0, s] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize(
    "grid",
    [WifiGrid(), WifiGrid(center_freq_hz=5_180_000_001, n_sc=7, sc_bandwidth_hz=2)],
)
def test_spectral_phase_uses_the_integer_subcarrier_centers(geom4, grid):
    """One delayed path at broadside: antenna 0 sees exp(-j*2*pi*f*tau) with
    each f the float of the subcarrier's integer center, bit for bit."""
    tau = 150e-9
    model = ChannelModel(mode="geometric", paths=(Path(0.0, excess_delay_s=tau),))
    h = channel_response(model, geom4, grid)
    centers = np.array([float(sc_center_freq(grid, s)) for s in range(grid.n_sc)])
    assert np.array_equal(h[0], np.exp(-2j * np.pi * centers * tau))


def test_two_ray_preset_is_strongly_frequency_selective(geom4, wifi):
    # what a single-antenna node sees on one unprecoded antenna path
    h = channel_response(two_ray_channel(0.0), geom4, wifi)
    p = np.abs(h[0]) ** 2
    assert 10 * math.log10(p.max() / p.min()) >= 10.0


def test_antenna_gains_scale_rows(geom4, wifi):
    gains = (1.0, 2.0, 0.5, 1.5)
    base = flat_channel(10.0)
    model = ChannelModel(mode="flat", paths=base.paths, antenna_gains=gains)
    h0 = channel_response(base, geom4, wifi)
    h1 = channel_response(model, geom4, wifi)
    assert np.allclose(h1, h0 * np.array(gains)[:, None])


def test_antenna_gains_length_must_match(geom4, wifi):
    model = ChannelModel(mode="flat", paths=(Path(0.0),), antenna_gains=(1.0, 1.0))
    with pytest.raises(ValueError):
        channel_response(model, geom4, wifi)


# ---------------------------------------------------------------------------
# received power


def test_matched_filter_coherent_gain(geom8, wifi, sc_rb, lte):
    w = build_weight_matrix(geom8, 25.0, (), lte.n_rrb)
    h = channel_response(flat_channel(25.0), geom8, wifi)
    p = rx_power(h, w, sc_rb, tx_power=3.0)
    assert np.allclose(p, 3.0 * 8.0)


def test_exact_null_kills_the_ray(geom8, wifi, sc_rb, lte):
    w = build_weight_matrix(geom8, 25.0, (-40.0,), lte.n_rrb)
    h = channel_response(flat_channel(-40.0), geom8, wifi)
    assert np.all(rx_power(h, w, sc_rb) < 1e-18)


def test_rx_power_matches_scalar_recomputation(wifi, sc_rb, rng):
    geom = ArrayGeometry(k_antennas=2)
    h = rng.standard_normal((2, 64)) + 1j * rng.standard_normal((2, 64))
    w = rng.standard_normal((2, 100)) + 1j * rng.standard_normal((2, 100))
    p = rx_power(h, w, sc_rb, tx_power=2.0)
    for s in range(64):
        acc = sum(w[k, sc_rb[s]] * h[k, s] for k in range(2))
        assert p[s] == pytest.approx(2.0 * abs(acc) ** 2)


@settings(max_examples=25, deadline=None)
@given(re=st.floats(min_value=-3, max_value=3), im=st.floats(min_value=-3, max_value=3))
def test_path_gain_scales_power_quadratically(re, im):
    c = complex(re, im)
    if abs(c) < 1e-3:
        c += 1.0
    geom, wifi = ArrayGeometry(k_antennas=4), WifiGrid()
    from nullsim.phy_grid import LteGrid, build_sc_rb_map

    sc_rb = build_sc_rb_map(LteGrid(), wifi)
    w = build_weight_matrix(geom, 10.0, (), 100)
    p1 = rx_power(channel_response(flat_channel(40.0), geom, wifi), w, sc_rb)
    p2 = rx_power(channel_response(flat_channel(40.0, gain=c), geom, wifi), w, sc_rb)
    assert np.allclose(p2, abs(c) ** 2 * p1)


def test_rx_power_validation(geom4, wifi, sc_rb):
    h = channel_response(flat_channel(0.0), geom4, wifi)
    w = build_weight_matrix(geom4, 0.0, (), 100)
    with pytest.raises(ValueError):
        rx_power(h, w, sc_rb, tx_power=0.0)
    with pytest.raises(ValueError):
        rx_power(h[:3], w, sc_rb)
    with pytest.raises(ValueError):
        rx_power(h, w, sc_rb[:10])
    with pytest.raises(IndexError):
        rx_power(h, w[:, :5], sc_rb)


def test_power_report_is_squared_magnitude(geom4, wifi):
    model = two_ray_channel(5.0)
    assert np.allclose(
        power_report(model, geom4, wifi),
        np.abs(channel_response(model, geom4, wifi)) ** 2,
    )


# ---------------------------------------------------------------------------
# INR


def test_measure_inr_examples():
    assert measure_inr(1.0, 1.0) == 1.0
    assert 10 * math.log10(measure_inr(100.0, 1.0)) == pytest.approx(20.0)
    with pytest.raises(ValueError):
        measure_inr(1.0, 0.0)
    with pytest.raises(ValueError):
        measure_inr(-0.1, 1.0)


def test_inr_report_rejects_negative_values():
    with pytest.raises(ValueError):
        InrReport(aggregate=-0.5)


def test_aggregate_db_floor():
    rep = InrReport(aggregate=0.0)
    assert rep.aggregate_db == 10 * math.log10(MIN_MEASURABLE_POWER)


def test_zero_jitter_sampling_is_exact(geom4, wifi, sc_rb, lte):
    model = flat_channel(15.0, noise_power=1e-6)
    h = channel_response(model, geom4, wifi)
    w = build_weight_matrix(geom4, 40.0, (), lte.n_rrb)
    ((rep,),) = sampled_inr(h[None], w[None], sc_rb, [model], sample_count=100)
    p = rx_power(h, w, sc_rb)
    expected = (float(np.mean(p)) + 1e-6) / 1e-6
    assert rep.aggregate == expected


def test_jitter_needs_rng(geom4, wifi, sc_rb, lte):
    model = flat_channel(0.0)
    h = channel_response(model, geom4, wifi)
    w = build_weight_matrix(geom4, 30.0, (), lte.n_rrb)
    with pytest.raises(ValueError, match="rng per user"):
        sampled_inr(h[None], w[None], sc_rb, [model], noise_jitter=0.1)
    with pytest.raises(ValueError, match="rng per user"):
        sampled_inr(h[None], w[None], sc_rb, [model], noise_jitter=0.1, rngs=[None])


def test_averaging_variance_shrinks_with_sample_count(geom4, wifi, sc_rb, lte):
    """Std of the averaged INR scales like 1/sqrt(N)."""
    model = flat_channel(20.0, noise_power=1e-3)
    h = channel_response(model, geom4, wifi)
    w = build_weight_matrix(geom4, 50.0, (), lte.n_rrb)

    def spread(n, trials=200):
        vals = [
            sampled_inr(
                h[None], w[None], sc_rb, [model],
                sample_count=n, noise_jitter=0.5,
                rngs=[np.random.default_rng([trial, n])],
            )[0][0].aggregate
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
def test_jittered_aggregate_matches_per_draw_mean(geom4, wifi, sc_rb, lte, seed, noise, jitter, count):
    """The array average equals the per-draw list mean and draws the same numbers."""
    model = flat_channel(20.0, noise_power=noise)
    h = channel_response(model, geom4, wifi)
    w = build_weight_matrix(geom4, 0.0, (), lte.n_rrb)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    ((rep,),) = sampled_inr(
        h[None], w[None], sc_rb, [model], sample_count=count, noise_jitter=jitter, rngs=[rng]
    )
    p_on = float(np.mean(rx_power(h, w, sc_rb))) + noise
    draws = p_on + jitter * noise * ref_rng.standard_normal(count)
    np.clip(draws, MIN_MEASURABLE_POWER, None, out=draws)
    assert rep.aggregate == float(np.mean([measure_inr(d, noise) for d in draws]))
    assert rng.standard_normal() == ref_rng.standard_normal()


def test_measure_inr_of_draws_rejects_negative_power():
    assert np.array_equal(measure_inr(np.array([1.0, 3.0]), 2.0), [0.5, 1.5])
    with pytest.raises(ValueError):
        measure_inr(np.array([1.0, -1e-9]), 1.0)


def test_sample_count_validation(geom4, wifi, sc_rb, lte):
    model = flat_channel(0.0)
    h = channel_response(model, geom4, wifi)
    w = build_weight_matrix(geom4, 30.0, (), lte.n_rrb)
    with pytest.raises(ValueError):
        sampled_inr(h[None], w[None], sc_rb, [model], sample_count=0)
    with pytest.raises(ValueError):
        sampled_inr(h[None], w[None], sc_rb, [model], noise_jitter=-0.1)


def test_a_measurement_takes_stacks_and_one_model_per_user(geom4, wifi, sc_rb, lte):
    model = flat_channel(0.0)
    h = channel_response(model, geom4, wifi)
    w = build_weight_matrix(geom4, 30.0, (), lte.n_rrb)
    with pytest.raises(ValueError, match="stacks"):
        sampled_inr(h, w[None], sc_rb, [model])
    with pytest.raises(ValueError, match="stacks"):
        sampled_inr(h[None], w, sc_rb, [model])
    with pytest.raises(ValueError, match="one channel model per user"):
        sampled_inr(np.array([h, h]), w[None], sc_rb, [model])


# ---------------------------------------------------------------------------
# presets


def test_orbit_like_draw_is_deterministic(geom4):
    a = orbit_like_channel(np.random.default_rng(77), 4, angle_deg=-20.0)
    b = orbit_like_channel(np.random.default_rng(77), 4, angle_deg=-20.0)
    assert a == b
    assert len(a.paths) == 4  # dominant ray plus the echoes
    assert a.antenna_gains is not None and len(a.antenna_gains) == 4


def test_orbit_like_echoes_are_below_the_direct_ray():
    model = orbit_like_channel(np.random.default_rng(3), 8, angle_deg=10.0)
    direct, *echoes = model.paths
    assert abs(direct.gain) == 1.0 and direct.excess_delay_s == 0.0
    for echo in echoes:
        assert abs(echo.gain) < 0.2
        assert 0 < echo.excess_delay_s < 1e-6


def test_with_noise_power_replaces_only_noise():
    m = flat_channel(5.0)
    m2 = with_noise_power(m, 0.125)
    assert m2.noise_power == 0.125
    assert m2.paths == m.paths
