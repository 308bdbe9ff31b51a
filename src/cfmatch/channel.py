"""Scenario configuration, geometry, mobility and channel generation.

Positions live in a flat rectangular service area, APs are static and
UEs follow a random-waypoint walk.  Channels combine free-space path
loss with a power-law exponent, lognormal shadowing and i.i.d. complex
Gaussian small-scale fading across antennas.

All randomness comes from numpy Generators handed in by the caller, so
the same generators always reproduce the same episode bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s

# Distances are clamped below this value so the power-law gain stays
# finite when a UE walks over an AP.
MIN_DISTANCE = 1.0  # m


def _is_number(v) -> bool:
    """A real number: a Python or numpy int or float, but not a bool."""
    return (isinstance(v, (int, float, np.integer, np.floating))
            and not isinstance(v, (bool, np.bool_)))


def _positive_finite(values) -> bool:
    """A tuple or list whose entries are all numbers in (0, inf)."""
    return (isinstance(values, (tuple, list))
            and all(_is_number(v) and 0 < v < np.inf for v in values))


@dataclass(frozen=True)
class ScenarioConfig:
    """All scenario parameters in SI base units (m, s, Hz, W, bit/s)."""

    num_aps: int = 50
    num_ues: int = 20
    antennas_per_ap: int = 16
    ap_quota: int = 12            # max UEs a single AP may serve
    ue_quota: int = 8             # max APs a single UE may connect to
    max_power: float = 0.2        # per-AP transmit power budget, W
    bandwidth: float = 20e6       # Hz
    carrier_freq: float = 3.5e9   # Hz
    pathloss_exp: float = 2.0
    shadow_var: float = 6.0       # shadowing variance in the log domain
    shadow_in_db: bool = False    # interpret shadow_var in dB instead of natural log
    noise_var: float = 1e-5       # receiver noise power, W
    satisfaction_threshold: float = 1.0   # fraction of demand that counts as satisfied
    area: tuple[float, float] = (200.0, 200.0)  # service area, m x m
    ue_speed: float = 1.0         # m/s
    timestep_duration: float = 1.0  # s
    num_steps: int = 100
    demand_set: tuple[float, ...] = (5e6, 30e6, 100e6)  # bit/s
    demand_refresh: str = "step"  # "step": redraw per timestep, "episode": draw once
    power_diff_threshold: float = 30.0  # dB window for gain-threshold cluster seeding
    seed: int = 0

    def __post_init__(self):
        for name, low in (("num_aps", 1), ("num_ues", 1), ("antennas_per_ap", 1),
                          ("ap_quota", 1), ("ue_quota", 1), ("num_steps", 1), ("seed", 0)):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or isinstance(v, bool) or v < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {v!r}")
        for name in ("max_power", "bandwidth", "carrier_freq", "noise_var",
                     "timestep_duration"):
            v = getattr(self, name)
            if not (_is_number(v) and 0 < v < np.inf):
                raise ValueError(f"{name} must be a positive finite number, got {v!r}")
        for name in ("pathloss_exp", "shadow_var", "ue_speed"):
            v = getattr(self, name)
            if not (_is_number(v) and 0 <= v < np.inf):
                raise ValueError(f"{name} must be a nonnegative finite number, got {v!r}")
        v = self.power_diff_threshold  # +inf: every AP seeds the cluster
        if not (_is_number(v) and v >= 0):
            raise ValueError(f"power_diff_threshold must be a nonnegative number, got {v!r}")
        if not isinstance(self.shadow_in_db, (bool, np.bool_)):
            raise ValueError(f"shadow_in_db must be true or false, got {self.shadow_in_db!r}")
        v = self.satisfaction_threshold
        if not (_is_number(v) and 0.0 <= v <= 1.0):
            raise ValueError(f"satisfaction_threshold must be in [0, 1], got {v!r}")
        if not (_positive_finite(self.area) and len(self.area) == 2):
            raise ValueError(f"area must be two positive finite lengths, got {self.area!r}")
        if self.ue_speed * self.timestep_duration > 100.0 * float(np.hypot(*self.area)):
            raise ValueError(f"ue_speed covers over 100 area diagonals a step, got {self.ue_speed!r}")
        if not (_positive_finite(self.demand_set) and self.demand_set):
            raise ValueError(
                f"demand_set must be nonempty with positive finite rates, got {self.demand_set!r}")
        if self.demand_refresh not in ("step", "episode"):
            raise ValueError(f"demand_refresh must be 'step' or 'episode', got {self.demand_refresh!r}")


@dataclass
class Layout:
    """Positions of all nodes at one instant.

    ap_positions: (M, 2) float, static.
    ue_positions: (K, 2) float.
    ue_waypoints: (K, 2) float, current random-waypoint targets.
    """

    ap_positions: np.ndarray
    ue_positions: np.ndarray
    ue_waypoints: np.ndarray


@dataclass
class ChannelRealization:
    """One draw of the radio channel between every UE-AP pair.

    gains:     (K, M) float, average channel gain (path loss x shadowing).
    vectors:   (K, M, N) complex, per-antenna channel coefficients.
    distances: (K, M) float, UE-AP distances after clamping.
    """

    gains: np.ndarray
    vectors: np.ndarray
    distances: np.ndarray


def generate_layout(config: ScenarioConfig, rng: np.random.Generator) -> Layout:
    """Draw AP positions, UE positions and initial waypoints uniformly."""
    high = np.asarray(config.area, dtype=float)
    aps = rng.uniform(0.0, high, size=(config.num_aps, 2))
    ues = rng.uniform(0.0, high, size=(config.num_ues, 2))
    waypoints = rng.uniform(0.0, high, size=(config.num_ues, 2))
    return Layout(ap_positions=aps, ue_positions=ues, ue_waypoints=waypoints)


def step_mobility(layout: Layout, config: ScenarioConfig,
                  rng: np.random.Generator) -> Layout:
    """Advance every UE one timestep along its random-waypoint path.

    Each UE moves ue_speed * timestep_duration meters toward its current
    waypoint.  A UE that reaches the waypoint draws a fresh uniform
    target and spends the residual motion toward it, repeating if the
    fresh target is also within reach.  UEs are processed in index order
    so the draw sequence is reproducible.  Each waypoint leg takes a loop
    pass and a draw; at ScenarioConfig's bound, 100 area diagonals a step,
    that is about 270 legs, a few ms, per UE.
    """
    high = np.asarray(config.area, dtype=float)
    pos = layout.ue_positions.copy()
    wps = layout.ue_waypoints.copy()
    step = config.ue_speed * config.timestep_duration
    for k in range(pos.shape[0]):
        remaining = step
        while remaining > 0.0:
            delta = wps[k] - pos[k]
            dist = float(np.hypot(delta[0], delta[1]))
            if dist <= remaining:
                pos[k] = wps[k]
                remaining -= dist
                wps[k] = rng.uniform(0.0, high, size=2)
            else:
                pos[k] += delta * (remaining / dist)
                remaining = 0.0
    return Layout(ap_positions=layout.ap_positions, ue_positions=pos, ue_waypoints=wps)


def path_gain(distance, config: ScenarioConfig, shadowing=1.0):
    """Average channel gain at the given distance(s).

    Free-space gain at the carrier wavelength with a power-law distance
    exponent, scaled by the linear shadowing factor.  Accepts scalars or
    broadcastable arrays.  Distances must be positive; callers clamp to
    MIN_DISTANCE before calling.
    """
    d = np.asarray(distance, dtype=float)
    if np.any(d <= 0.0):
        raise ValueError("distance must be positive")
    wavelength = SPEED_OF_LIGHT / config.carrier_freq
    free_space = (wavelength / (4.0 * np.pi)) ** 2
    out = free_space * d ** (-config.pathloss_exp) * shadowing
    if np.isscalar(distance) and np.isscalar(shadowing):
        return float(out)
    return out


def draw_shadowing(config: ScenarioConfig, rng: np.random.Generator, size=None):
    """Draw lognormal shadowing factors (linear scale, unit log-median).

    shadow_var is the variance of the log-domain Gaussian; by default the
    log is natural, with shadow_in_db the Gaussian lives in dB instead.
    shadow_var == 0 degenerates to a constant factor of 1.
    """
    std = float(np.sqrt(config.shadow_var))
    z = rng.normal(0.0, std, size=size)
    if config.shadow_in_db:
        return 10.0 ** (z / 10.0)
    return np.exp(z)


def realize_channels(layout: Layout, config: ScenarioConfig,
                     rng: np.random.Generator,
                     fading_rng: np.random.Generator) -> ChannelRealization:
    """Draw one full (K, M, N) channel realization for the given layout.

    rng drives shadowing and fading_rng the small-scale coefficients, so
    the two come from separate streams.
    Per-antenna coefficients are i.i.d. complex Gaussian with unit
    variance (real and imaginary parts each N(0, 1/2)), scaled by the
    square root of the average gain.
    """
    d = np.linalg.norm(layout.ue_positions[:, None, :] - layout.ap_positions[None, :, :],
                       axis=2)
    d = np.maximum(d, MIN_DISTANCE)
    chi = draw_shadowing(config, rng, size=d.shape)
    gains = path_gain(d, config, chi)
    n = config.antennas_per_ap
    shape = (d.shape[0], d.shape[1], n)
    # filled in place: no (K, M, N) temporaries beside the result
    vectors = np.empty(shape, dtype=complex)
    vectors.real = fading_rng.standard_normal(shape)
    vectors.imag = fading_rng.standard_normal(shape)
    # scaled on the real view, (K, M, 2N): numpy divides a complex by
    # sqrt(2) + 0j as a product with the rounded 1 / sqrt(2), and
    # multiplies by sqrt(g) + 0j part by part, so the bits match
    parts = vectors.view(float)
    parts *= 1.0 / np.sqrt(2.0)
    parts *= np.sqrt(gains)[:, :, None]
    return ChannelRealization(gains=gains, vectors=vectors, distances=d)
