"""Gain evaluation: deterministic reflector scenario vs. Monte Carlo wall baseline.

The reflector scenario is deterministic: with ideal phase control every
arrival is aligned to the LoS phase, so the received amplitude is the plain
sum of the LoS amplitude and all element amplitudes.

The baseline replaces the reflector with a passive wall patch of the same
area.  Each run re-samples ``n_rays`` scatter points on the patch, builds one
full-budget ray per point (wall reflection loss, phase from the path length
or drawn uniform, see MonteCarloConfig.ray_phases), adds their phasors to
the LoS phasor and squares to power.  The gain is the ratio of the
deterministic reflector power to the mean baseline power, in dB.

Draw layout within run r (stream seeded by run_seed(master_seed, r)):
  draws 0 .. 2*n_rays-1   scatter positions, y then z per point
  draws 2*n_rays .. 3*n_rays-1   ray phases (consumed only in "uniform" mode)

Every run is a pure function of (master_seed, run index), so results are
bit-reproducible regardless of execution order or parallelism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import rng
from .errors import DegenerateGeometryError
from .geometry import ScenarioGeometry, depression_angle, distance
from .propagation import pl_los, pl_nlos, vertical_gain
from .scenario import RAY_PHASES_UNIFORM, MonteCarloConfig, ScenarioConfig

SPEED_OF_LIGHT = 3.0e8  # m/s; matches the 40*pi*f/3 constant of the path-loss model

TWO_PI = 2.0 * math.pi


def wavelength_m(f_ghz: float) -> float:
    return SPEED_OF_LIGHT / (f_ghz * 1e9)


def dbm_to_amplitude(p_dbm):
    """sqrt of the linear power: sqrt(10^(p/10)) mW^0.5, for scalars or arrays."""
    return 10.0 ** (p_dbm / 20.0)


@dataclass(frozen=True)
class GainResult:
    """Gain of the reflector scenario over the wall baseline, with components."""

    gamma_irs: float                      # deterministic received amplitude, sqrt-mW
    mean_wall_power_mw: float             # Monte Carlo mean baseline power
    gain_db: float                        # 10 log10(gamma_irs^2 / mean_wall_power_mw)
    std_error_db: float                   # standard error of the mean, in dB
    los_amplitude: float
    irs_sum_amplitude: float              # sum of element amplitudes alone
    mean_wall_reflection_amplitude: float  # mean |sum of rays| without the LoS path


class WallEstimate(NamedTuple):
    mean_power_mw: float
    std_error_mw: float
    mean_reflection_amplitude: float


def _los_amp_phase(cfg: ScenarioConfig, geom: ScenarioGeometry) -> tuple[float, float]:
    if geom.bs == geom.uav:
        raise DegenerateGeometryError("BS and UAV coincide")
    d = distance(geom.bs, geom.uav)
    theta0 = depression_angle(geom.bs, geom.uav)
    p_rx = cfg.p_t_dbm + vertical_gain(theta0, cfg.antenna()) - pl_los(d, cfg.pathloss())
    return dbm_to_amplitude(p_rx), (-TWO_PI * d / wavelength_m(cfg.f_ghz)) % TWO_PI


def _reflected_amps_phases(
    cfg: ScenarioConfig,
    geom: ScenarioGeometry,
    points: np.ndarray,
    reflection_loss_db: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised link budget for reflected paths through ``points`` (..., 3):
    pattern gain at the BS-to-point angle, PL_NLoS(d1 + d2) at the UAV height,
    and ``reflection_loss_db``.  Serves the reflector elements and the wall rays.

    Returns (amplitudes, path_lengths), both shaped like points[..., 0].
    """
    bs = geom.bs.as_array()
    uav = geom.uav.as_array()
    v1 = points - bs
    v2 = uav - points
    d1 = np.sqrt(np.sum(v1 * v1, axis=-1))
    d2 = np.sqrt(np.sum(v2 * v2, axis=-1))
    if np.any(d1 == 0.0) or np.any(d2 == 0.0):
        raise DegenerateGeometryError("reflection point coincides with BS or UAV")
    theta = np.degrees(np.arctan2(bs[2] - points[..., 2], np.hypot(v1[..., 0], v1[..., 1])))
    p_rx = (
        cfg.p_t_dbm
        + vertical_gain(theta, cfg.antenna())
        - pl_nlos(d1 + d2, geom.uav.z, cfg.pathloss())
        - reflection_loss_db
    )
    return dbm_to_amplitude(p_rx), d1 + d2


def _irs_amplitudes(cfg: ScenarioConfig, geom: ScenarioGeometry) -> tuple[float, float]:
    """(LoS amplitude, sum of the element amplitudes) in sqrt-mW."""
    a0, _ = _los_amp_phase(cfg, geom)
    amps, _ = _reflected_amps_phases(cfg, geom, geom.elements, cfg.pl_irs_db)
    return a0, float(np.sum(amps))  # 0.0 for an empty lattice


def irs_amplitude(cfg: ScenarioConfig) -> float:
    """Deterministic received amplitude with ideal phase alignment: LoS plus
    every element amplitude (sqrt-mW)."""
    cfg.validate()
    a0, irs_sum = _irs_amplitudes(cfg, cfg.geometry())
    return a0 + irs_sum


def _scatter_matrix(geom: ScenarioGeometry, u: np.ndarray) -> np.ndarray:
    """Map uniforms u (..., n_rays, 2) to patch points (..., n_rays, 3)."""
    c = geom.irs_center
    pts = np.empty(u.shape[:-1] + (3,), dtype=float)
    pts[..., 0] = c.x
    pts[..., 1] = c.y + (2.0 * u[..., 0] - 1.0) * geom.patch_half_width_y
    pts[..., 2] = c.z + (2.0 * u[..., 1] - 1.0) * geom.patch_half_height_z
    return pts


def wall_power_estimate(cfg: ScenarioConfig, mc: MonteCarloConfig) -> WallEstimate:
    """Mean and standard error of the baseline received power over ``n_runs``."""
    cfg.validate()
    mc.validate()
    geom = cfg.geometry()
    a0, phi0 = _los_amp_phase(cfg, geom)

    if mc.n_rays == 0:
        power = a0 * a0
        return WallEstimate(power, 0.0, 0.0)

    seeds = rng.run_seeds(mc.master_seed, mc.n_runs)
    u_pos = rng.uniform_block(seeds, 2 * mc.n_rays).reshape(mc.n_runs, mc.n_rays, 2)
    pts = _scatter_matrix(geom, u_pos)

    amps, path_len = _reflected_amps_phases(cfg, geom, pts, cfg.pl_wall_db)
    if mc.ray_phases == RAY_PHASES_UNIFORM:
        u_phase = rng.uniform_block(seeds, mc.n_rays, first_draw=2 * mc.n_rays)
        phases = TWO_PI * u_phase
    else:
        phases = (-TWO_PI * path_len / wavelength_m(cfg.f_ghz)) % TWO_PI

    ray_sum = np.sum(amps * np.exp(1j * phases), axis=1)
    powers = np.abs(a0 * np.exp(1j * phi0) + ray_sum) ** 2
    reflection_amps = np.abs(ray_sum)

    mean = float(np.mean(powers))
    if mc.n_runs > 1:
        se = float(np.std(powers, ddof=1) / math.sqrt(mc.n_runs))
    else:
        se = 0.0
    return WallEstimate(mean, se, float(np.mean(reflection_amps)))


def irs_gain(cfg: ScenarioConfig, mc: MonteCarloConfig) -> GainResult:
    """Full gain evaluation at one scenario point."""
    cfg.validate()
    mc.validate()
    a0, irs_sum = _irs_amplitudes(cfg, cfg.geometry())
    gamma = a0 + irs_sum
    wall = wall_power_estimate(cfg, mc)
    gain_db = 10.0 * math.log10(gamma * gamma / wall.mean_power_mw)
    se_db = 10.0 / math.log(10.0) * wall.std_error_mw / wall.mean_power_mw
    return GainResult(
        gamma_irs=gamma,
        mean_wall_power_mw=wall.mean_power_mw,
        gain_db=gain_db,
        std_error_db=se_db,
        los_amplitude=a0,
        irs_sum_amplitude=irs_sum,
        mean_wall_reflection_amplitude=wall.mean_reflection_amplitude,
    )
