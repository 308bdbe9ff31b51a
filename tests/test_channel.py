import math

import numpy as np
import pytest

from cfmatch import (ScenarioConfig, Layout, generate_layout, step_mobility,
                     realize_channels, substream)
from cfmatch.channel import MIN_DISTANCE, SPEED_OF_LIGHT, draw_shadowing, path_gain


def test_config_defaults():
    cfg = ScenarioConfig()
    assert cfg.num_aps == 50
    assert cfg.num_ues == 20
    assert cfg.antennas_per_ap == 16
    assert cfg.ap_quota == 12
    assert cfg.ue_quota == 8
    assert cfg.max_power == 0.2
    assert cfg.bandwidth == 20e6
    assert cfg.carrier_freq == 3.5e9
    assert cfg.pathloss_exp == 2.0
    assert cfg.shadow_var == 6.0
    assert cfg.noise_var == 1e-5
    assert cfg.area == (200.0, 200.0)
    assert cfg.ue_speed == 1.0
    assert cfg.timestep_duration == 1.0
    assert cfg.num_steps == 100
    assert cfg.demand_set == (5e6, 30e6, 100e6)
    assert cfg.power_diff_threshold == 30.0


def test_config_rejects_bad_values():
    with pytest.raises(ValueError, match="num_aps"):
        ScenarioConfig(num_aps=0)
    with pytest.raises(ValueError, match="num_ues"):
        ScenarioConfig(num_ues=-1)
    with pytest.raises(ValueError, match="satisfaction_threshold"):
        ScenarioConfig(satisfaction_threshold=1.5)
    with pytest.raises(ValueError, match="noise_var"):
        ScenarioConfig(noise_var=0.0)
    with pytest.raises(ValueError, match="area"):
        ScenarioConfig(area=(200.0,))
    with pytest.raises(ValueError, match="demand_set"):
        ScenarioConfig(demand_set=())
    with pytest.raises(ValueError, match="demand_refresh"):
        ScenarioConfig(demand_refresh="hourly")
    with pytest.raises(ValueError, match="seed"):
        ScenarioConfig(seed=-3)


@pytest.mark.parametrize("name, value", [
    ("pathloss_exp", math.nan),
    ("shadow_var", math.nan),
    ("ue_speed", math.nan),
    ("power_diff_threshold", math.nan),
    ("area", (math.inf, 200.0)),
    ("area", (200.0, math.inf)),
    ("demand_set", (5e6, math.inf)),
    ("num_steps", 2.5),
    ("num_steps", 2.0),
    ("seed", 1.5),
    ("max_power", math.inf),
    ("bandwidth", math.inf),
    ("carrier_freq", math.inf),
    ("noise_var", math.inf),
    ("timestep_duration", math.inf),
    ("pathloss_exp", math.inf),
    ("shadow_var", math.inf),
    ("ue_speed", math.inf),
])
def test_config_rejects_nan_infinite_and_fractional(name, value):
    with pytest.raises(ValueError, match=name):
        ScenarioConfig(**{name: value})


@pytest.mark.parametrize("name, value", [
    ("max_power", "0.2"),
    ("noise_var", None),
    ("pathloss_exp", "2"),
    ("satisfaction_threshold", "1"),
    ("area", (200.0, "x")),
    ("area", "ab"),
    ("area", 200.0),
    ("demand_set", (5e6, "x")),
    ("demand_set", "abc"),
])
def test_config_rejects_non_numbers(name, value):
    with pytest.raises(ValueError, match=name):
        ScenarioConfig(**{name: value})


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
def test_config_shadow_in_db_must_be_bool(value):
    # a truthy string would otherwise switch shadowing to dB silently
    with pytest.raises(ValueError, match="shadow_in_db"):
        ScenarioConfig(shadow_in_db=value)
    assert ScenarioConfig(shadow_in_db=np.bool_(True)).shadow_in_db


def test_layout_shapes_and_bounds():
    cfg = ScenarioConfig(seed=3)
    layout = generate_layout(cfg, substream(3, "layout"))
    assert layout.ap_positions.shape == (50, 2)
    assert layout.ue_positions.shape == (20, 2)
    assert layout.ue_waypoints.shape == (20, 2)
    for arr in (layout.ap_positions, layout.ue_positions, layout.ue_waypoints):
        assert arr.min() >= 0.0
        assert (arr <= np.array(cfg.area)).all()


def test_layout_deterministic():
    cfg = ScenarioConfig(seed=5)
    a = generate_layout(cfg, substream(5, "layout"))
    b = generate_layout(cfg, substream(5, "layout"))
    np.testing.assert_array_equal(a.ap_positions, b.ap_positions)
    np.testing.assert_array_equal(a.ue_positions, b.ue_positions)
    np.testing.assert_array_equal(a.ue_waypoints, b.ue_waypoints)


def _single_ue_layout(pos, waypoint, num_aps=1):
    return Layout(ap_positions=np.zeros((num_aps, 2)),
                  ue_positions=np.array([pos], dtype=float),
                  ue_waypoints=np.array([waypoint], dtype=float))


def test_mobility_zero_speed():
    cfg = ScenarioConfig(num_ues=1, ue_speed=0.0)
    layout = _single_ue_layout([10.0, 10.0], [150.0, 150.0])
    moved = step_mobility(layout, cfg, substream(1, "waypoints"))
    np.testing.assert_array_equal(moved.ue_positions, layout.ue_positions)
    np.testing.assert_array_equal(moved.ue_waypoints, layout.ue_waypoints)


def test_mobility_straight_step():
    cfg = ScenarioConfig(num_ues=1, ue_speed=1.0, timestep_duration=1.0)
    layout = _single_ue_layout([0.0, 0.0], [10.0, 0.0])
    moved = step_mobility(layout, cfg, substream(1, "waypoints"))
    np.testing.assert_allclose(moved.ue_positions[0], [1.0, 0.0])
    np.testing.assert_array_equal(moved.ue_waypoints[0], [10.0, 0.0])


def test_mobility_residual_after_reaching_waypoint():
    # 0.5 m to the waypoint, 1 m step: the leftover 0.5 m goes toward a
    # freshly drawn target, reproduced here from a cloned generator.
    cfg = ScenarioConfig(num_ues=1, ue_speed=1.0, timestep_duration=1.0)
    start = np.array([100.0, 100.0])
    waypoint = np.array([100.5, 100.0])
    layout = _single_ue_layout(start, waypoint)
    expected_rng = substream(8, "waypoints")
    fresh = expected_rng.uniform(0.0, np.asarray(cfg.area, float), size=2)
    to_fresh = fresh - waypoint
    dist = np.hypot(*to_fresh)
    assert dist > 0.5  # sanity of the chosen instance
    expected = waypoint + to_fresh * (0.5 / dist)

    moved = step_mobility(layout, cfg, substream(8, "waypoints"))
    np.testing.assert_allclose(moved.ue_positions[0], expected)
    np.testing.assert_array_equal(moved.ue_waypoints[0], fresh)


def test_mobility_stays_in_area():
    cfg = ScenarioConfig(num_ues=5, ue_speed=30.0, area=(50.0, 40.0))
    layout = generate_layout(cfg, substream(21, "layout"))
    rng = substream(21, "waypoints")
    for _ in range(300):
        layout = step_mobility(layout, cfg, rng)
        assert layout.ue_positions.min() >= 0.0
        assert (layout.ue_positions <= np.array(cfg.area)).all()


@pytest.mark.parametrize("ue_speed, timestep_duration", [
    (1e7, 1.0), (1e5, 1.0), (1e300, 1.0), (1.0, 1e300), (1e300, 1e300),
])
def test_config_rejects_travel_the_waypoint_loop_cannot_finish(ue_speed, timestep_duration):
    # step_mobility takes one loop pass per waypoint leg: at 1e7 m/s a step
    # took seconds, and at 1e300 m/s remaining - dist == remaining forever;
    # 1e5 m/s is about 350 diagonals of the default area
    with pytest.raises(ValueError, match="ue_speed"):
        ScenarioConfig(ue_speed=ue_speed, timestep_duration=timestep_duration)


def test_mobility_finishes_at_the_travel_limit():
    area = (50.0, 40.0)
    limit = 100.0 * float(np.hypot(*area))
    with pytest.raises(ValueError, match="ue_speed"):
        ScenarioConfig(num_ues=1, ue_speed=limit * (1.0 + 1e-12), area=area)
    cfg = ScenarioConfig(num_ues=1, ue_speed=limit, area=area)
    layout = step_mobility(generate_layout(cfg, substream(3, "layout")), cfg,
                           substream(3, "waypoints"))
    assert (layout.ue_positions >= 0.0).all()
    assert (layout.ue_positions <= np.array(area)).all()


def test_path_gain_reference_value():
    cfg = ScenarioConfig()
    wavelength = SPEED_OF_LIGHT / 3.5e9
    expected = (wavelength / (4.0 * math.pi)) ** 2 * 100.0 ** -2.0
    got = path_gain(100.0, cfg)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(4.645e-9, rel=1e-3)


def test_path_gain_power_law():
    cfg = ScenarioConfig(pathloss_exp=2.0)
    assert path_gain(200.0, cfg) == pytest.approx(path_gain(100.0, cfg) / 4.0)
    cfg4 = ScenarioConfig(pathloss_exp=4.0)
    assert path_gain(200.0, cfg4) == pytest.approx(path_gain(100.0, cfg4) / 16.0)


def test_path_gain_shadowing_scales_linearly():
    cfg = ScenarioConfig()
    assert path_gain(50.0, cfg, 2.5) == pytest.approx(2.5 * path_gain(50.0, cfg))


def test_path_gain_rejects_nonpositive_distance():
    cfg = ScenarioConfig()
    with pytest.raises(ValueError):
        path_gain(0.0, cfg)
    with pytest.raises(ValueError):
        path_gain(np.array([1.0, -2.0]), cfg)


def test_shadowing_degenerate_variance():
    cfg = ScenarioConfig(shadow_var=0.0)
    chi = draw_shadowing(cfg, substream(2, "shadowing", 1), size=100)
    np.testing.assert_array_equal(chi, np.ones(100))


def test_shadowing_log_moments():
    cfg = ScenarioConfig(shadow_var=6.0)
    n = 100_000
    chi = draw_shadowing(cfg, substream(4, "shadowing", 1), size=n)
    assert (chi > 0).all()
    z = np.log(chi)
    se_mean = math.sqrt(6.0 / n)
    assert abs(z.mean()) < 3 * se_mean
    se_var = math.sqrt(2.0 / (n - 1)) * 6.0
    assert abs(z.var(ddof=1) - 6.0) < 3 * se_var


def test_shadowing_db_mode_log_moments():
    cfg = ScenarioConfig(shadow_var=6.0, shadow_in_db=True)
    n = 100_000
    chi = draw_shadowing(cfg, substream(4, "shadowing", 1), size=n)
    z = 10.0 * np.log10(chi)
    se_mean = math.sqrt(6.0 / n)
    assert abs(z.mean()) < 3 * se_mean
    se_var = math.sqrt(2.0 / (n - 1)) * 6.0
    assert abs(z.var(ddof=1) - 6.0) < 3 * se_var


def test_realize_shapes_and_gain_consistency():
    cfg = ScenarioConfig(num_aps=4, num_ues=3, antennas_per_ap=2, shadow_var=0.0)
    layout = generate_layout(cfg, substream(6, "layout"))
    ch = realize_channels(layout, cfg, substream(6, "shadowing", 1),
                          substream(6, "fading", 1))
    assert ch.gains.shape == (3, 4)
    assert ch.vectors.shape == (3, 4, 2)
    assert ch.distances.shape == (3, 4)
    assert (ch.distances >= MIN_DISTANCE).all()
    assert (ch.gains > 0).all()
    assert np.isfinite(ch.gains).all()
    # without shadowing the gain is a pure function of distance
    np.testing.assert_allclose(ch.gains, path_gain(ch.distances, cfg))


def test_realize_distance_clamped():
    cfg = ScenarioConfig(num_aps=1, num_ues=1, antennas_per_ap=1, shadow_var=0.0)
    layout = Layout(ap_positions=np.array([[10.0, 10.0]]),
                    ue_positions=np.array([[10.0, 10.0]]),
                    ue_waypoints=np.array([[0.0, 0.0]]))
    ch = realize_channels(layout, cfg, substream(1, "shadowing", 1),
                          substream(1, "fading", 1))
    assert ch.distances[0, 0] == MIN_DISTANCE
    assert ch.gains[0, 0] == pytest.approx(path_gain(MIN_DISTANCE, cfg))


def _complex_scaled_vectors(cfg, gains, fading_rng):
    """The fading vectors scaled in complex arithmetic: divided by
    sqrt(2) + 0j, then multiplied by sqrt(gain) + 0j."""
    shape = (*gains.shape, cfg.antennas_per_ap)
    vectors = np.empty(shape, dtype=complex)
    vectors.real = fading_rng.standard_normal(shape)
    vectors.imag = fading_rng.standard_normal(shape)
    vectors /= np.sqrt(2.0)
    vectors *= np.sqrt(gains)[:, :, None]
    return vectors


def _realize_cases():
    for num_ues, num_aps in ((5, 8), (70, 140)):
        for seed in range(5):
            cfg = ScenarioConfig(num_ues=num_ues, num_aps=num_aps, seed=seed)
            yield cfg, generate_layout(cfg, substream(seed, "layout")), seed
    cfg = ScenarioConfig(num_ues=5, num_aps=8, shadow_var=0.0)
    yield cfg, generate_layout(cfg, substream(5, "layout")), 5
    # UE 2 sits on AP 3, so its distance is clamped to MIN_DISTANCE
    cfg = ScenarioConfig(num_ues=5, num_aps=8)
    layout = generate_layout(cfg, substream(6, "layout"))
    layout.ue_positions[2] = layout.ap_positions[3]
    yield cfg, layout, 6


def test_realize_scaling_keeps_the_complex_bits():
    # the scaling runs on the real view of the vectors; every bit must be
    # the one the complex division and product give
    for cfg, layout, seed in _realize_cases():
        ch = realize_channels(layout, cfg, substream(seed, "shadowing", 1),
                              substream(seed, "fading", 1))
        expected = _complex_scaled_vectors(cfg, ch.gains, substream(seed, "fading", 1))
        assert np.array_equal(ch.vectors.view(np.uint64), expected.view(np.uint64)), \
            (cfg.num_ues, cfg.num_aps, seed)
    assert ch.distances[2, 3] == MIN_DISTANCE


def test_realize_mean_channel_energy():
    # per antenna E|h|^2 equals the average gain
    cfg = ScenarioConfig(num_aps=1, num_ues=1, antennas_per_ap=8, shadow_var=0.0)
    layout = _single_ue_layout([30.0, 40.0], [0.0, 0.0])
    g = path_gain(50.0, cfg)
    samples = []
    for t in range(1, 4001):
        ch = realize_channels(layout, cfg, substream(13, "shadowing", t),
                              substream(13, "fading", t))
        samples.append(np.abs(ch.vectors[0, 0]) ** 2)
    energy = np.concatenate(samples)
    se = g / math.sqrt(energy.size)
    assert abs(energy.mean() - g) < 4 * se


def test_realize_separate_fading_stream():
    cfg = ScenarioConfig(num_aps=2, num_ues=2, antennas_per_ap=2)
    layout = generate_layout(cfg, substream(9, "layout"))
    a = realize_channels(layout, cfg, substream(9, "shadowing", 1),
                         substream(9, "fading", 1))
    b = realize_channels(layout, cfg, substream(9, "shadowing", 1),
                         substream(9, "fading", 2))
    np.testing.assert_array_equal(a.gains, b.gains)
    assert not np.array_equal(a.vectors, b.vectors)


def test_realize_coefficients_follow_the_fading_stream_bit_for_bit():
    # real parts are the stream's first K*M*N normals, imaginary parts the
    # next; scaled by 1/sqrt(2) and the root gain, exactly as written out
    cfg = ScenarioConfig(num_aps=7, num_ues=5, antennas_per_ap=3)
    layout = generate_layout(cfg, substream(15, "layout"))
    ch = realize_channels(layout, cfg, substream(15, "shadowing", 2),
                          substream(15, "fading", 2))
    fading = substream(15, "fading", 2)
    shape = ch.vectors.shape
    alpha = (fading.standard_normal(shape) + 1j * fading.standard_normal(shape)) / np.sqrt(2.0)
    assert ch.vectors.tobytes() == (alpha * np.sqrt(ch.gains)[:, :, None]).tobytes()


def test_realize_deterministic():
    cfg = ScenarioConfig(num_aps=3, num_ues=2)
    layout = generate_layout(cfg, substream(14, "layout"))
    a = realize_channels(layout, cfg, substream(14, "shadowing", 5),
                         substream(14, "fading", 5))
    b = realize_channels(layout, cfg, substream(14, "shadowing", 5),
                         substream(14, "fading", 5))
    np.testing.assert_array_equal(a.vectors, b.vectors)
    np.testing.assert_array_equal(a.gains, b.gains)


def test_substream_independence():
    a = substream(7, "layout")
    b = substream(7, "fading")
    assert not np.array_equal(a.standard_normal(8), b.standard_normal(8))
    with pytest.raises(ValueError, match="stream"):
        substream(7, "weather")
    with pytest.raises(ValueError, match="seed"):
        substream(-1, "layout")
