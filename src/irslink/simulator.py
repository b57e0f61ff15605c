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

Runs are evaluated in blocks of ``max(1, _CHUNK_PATHS // n_rays)``
consecutive runs (2**15 paths, so a block's temporaries stay in cache), and
memory does not grow with ``n_runs``.  Each block reduces its powers to
(count, mean, sum of squared deviations) and its ``|sum of rays|`` to a sum;
the blocks are merged in run order with Chan et al.'s pairwise update.  The
block size is a constant, so the merge order, and with it every bit of the
result, depends only on the configs.
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
    p_rx = cfg.p_t_dbm + vertical_gain(theta0, cfg) - pl_los(d, cfg)
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
    x, y, z = points[..., 0], points[..., 1], points[..., 2]
    dx1, dy1, dz1 = x - geom.bs.x, y - geom.bs.y, z - geom.bs.z
    dx2, dy2, dz2 = geom.uav.x - x, geom.uav.y - y, geom.uav.z - z
    d1 = np.sqrt(dx1 * dx1 + dy1 * dy1 + dz1 * dz1)  # (a0 + a1) + a2, as numpy's length-3 sum
    d2 = np.sqrt(dx2 * dx2 + dy2 * dy2 + dz2 * dz2)
    if np.any(d1 == 0.0) or np.any(d2 == 0.0):
        raise DegenerateGeometryError("reflection point coincides with BS or UAV")
    theta = np.degrees(np.arctan2(geom.bs.z - z, np.hypot(dx1, dy1)))
    p_rx = (
        cfg.p_t_dbm
        + vertical_gain(theta, cfg)
        - pl_nlos(d1 + d2, geom.uav.z, cfg)
        - reflection_loss_db
    )
    return dbm_to_amplitude(p_rx), d1 + d2


def _point(cfg: ScenarioConfig) -> tuple[ScenarioGeometry, float, float]:
    """Build cfg's geometry and LoS budget once: (geometry, LoS amplitude, LoS phase)."""
    geom = cfg.geometry()
    return (geom, *_los_amp_phase(cfg, geom))


# Paths per link-budget call (elements, or wall runs x rays): big enough to
# amortise numpy's per-call cost, small enough that the ~20 float64
# temporaries of one call stay in cache.
_CHUNK_PATHS = 1 << 15


def _irs_sum(cfg: ScenarioConfig, geom: ScenarioGeometry) -> float:
    """Sum of the element amplitudes in sqrt-mW (0.0 for an empty lattice),
    in slices of ``_CHUNK_PATHS`` elements so that memory beyond the lattice
    itself stays constant."""
    total = 0.0
    for first in range(0, len(geom.elements), _CHUNK_PATHS):
        amps, _ = _reflected_amps_phases(cfg, geom, geom.elements[first:first + _CHUNK_PATHS], cfg.pl_irs_db)
        total += float(np.sum(amps))
    return total


def irs_amplitude(cfg: ScenarioConfig) -> float:
    """Deterministic received amplitude with ideal phase alignment: LoS plus
    every element amplitude (sqrt-mW)."""
    geom, a0, _ = _point(cfg)
    return a0 + _irs_sum(cfg, geom)


def _scatter_matrix(geom: ScenarioGeometry, u: np.ndarray) -> np.ndarray:
    """Map uniforms u (..., n_rays, 2) to patch points (..., n_rays, 3)."""
    c = geom.irs_center
    pts = np.empty(u.shape[:-1] + (3,), dtype=float)
    pts[..., 0] = c.x
    pts[..., 1] = c.y + (2.0 * u[..., 0] - 1.0) * geom.patch_half_width_y
    pts[..., 2] = c.z + (2.0 * u[..., 1] - 1.0) * geom.patch_half_height_z
    return pts


def wall_power_estimate(
    cfg: ScenarioConfig,
    mc: MonteCarloConfig,
    point: tuple[ScenarioGeometry, float, float] | None = None,
) -> WallEstimate:
    """Mean and standard error of the baseline received power over ``n_runs``.

    ``point`` is ``_point(cfg)`` when the caller has already computed it.
    """
    geom, a0, phi0 = _point(cfg) if point is None else point

    if mc.n_rays == 0:
        power = a0 * a0
        return WallEstimate(power, 0.0, 0.0)

    los_re, los_im = a0 * math.cos(phi0), a0 * math.sin(phi0)
    uniform = mc.ray_phases == RAY_PHASES_UNIFORM
    n_pos = 2 * mc.n_rays
    block = max(1, _CHUNK_PATHS // mc.n_rays)
    count, mean, m2, refl_sum = 0, 0.0, 0.0, 0.0
    for first in range(0, mc.n_runs, block):
        n = min(block, mc.n_runs - first)
        seeds = rng.run_seeds(rng.block_master_seed(mc.master_seed, first), n)
        u = rng.uniform_block(seeds, n_pos + mc.n_rays if uniform else n_pos)
        pts = _scatter_matrix(geom, u[:, :n_pos].reshape(n, mc.n_rays, 2))
        amps, path_len = _reflected_amps_phases(cfg, geom, pts, cfg.pl_wall_db)
        if uniform:
            phases = TWO_PI * u[:, n_pos:]
        else:
            phases = (-TWO_PI * path_len / wavelength_m(cfg.f_ghz)) % TWO_PI
        ray_re = np.sum(amps * np.cos(phases), axis=1)
        ray_im = np.sum(amps * np.sin(phases), axis=1)
        refl_sum += float(np.sum(np.hypot(ray_re, ray_im)))
        re = los_re + ray_re
        im = los_im + ray_im
        power = re * re + im * im

        # Chan et al.: merge this block's (n, mean, M2) into the running one
        block_mean = float(np.mean(power))
        dev = power - block_mean
        block_m2 = float(np.sum(dev * dev))
        delta = block_mean - mean
        count += n
        mean += delta * (n / count)
        m2 += block_m2 + delta * delta * ((count - n) * n / count)

    se = math.sqrt(m2 / (count - 1)) / math.sqrt(count) if count > 1 else 0.0
    return WallEstimate(mean, se, refl_sum / count)


def irs_gain(cfg: ScenarioConfig, mc: MonteCarloConfig) -> GainResult:
    """Full gain evaluation at one scenario point."""
    point = _point(cfg)
    geom, a0, _ = point
    irs_sum = _irs_sum(cfg, geom)
    gamma = a0 + irs_sum
    wall = wall_power_estimate(cfg, mc, point)
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
