"""Down-tilted vertical antenna pattern and urban-macro air-to-ground path loss.

All functions accept scalars or numpy arrays for the distance/angle argument
and return dB values.  Frequencies are in GHz, distances in metres.  The
model constants (tilt, beamwidth, side-lobe level, carrier) are read from a
``ScenarioConfig``, which has checked them.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameterError
from .scenario import ScenarioConfig

NLOS_BREAKPOINT_HEIGHT_M = 22.5  # receiver height splitting the two NLoS branches


def vertical_gain(theta_deg, cfg: ScenarioConfig):
    """Antenna gain -min[12*((theta - tilt)/theta3dB)^2, SLA] in dB, within [-SLA, 0]."""
    dev = (np.asarray(theta_deg, dtype=float) - cfg.theta_etilt_deg) / cfg.theta3db_deg
    g = -np.minimum(12.0 * dev * dev, cfg.sla_db)
    return float(g) if np.isscalar(theta_deg) else g


def _check_positive(value, name: str):
    arr = np.asarray(value, dtype=float)
    if np.any(arr <= 0) or not np.all(np.isfinite(arr)):
        raise InvalidParameterError(f"{name} must be positive and finite")


def pl_los(d_m, cfg: ScenarioConfig):
    """Line-of-sight path loss 28 + 22 log10(d) + 20 log10(f) in dB."""
    _check_positive(d_m, "d_m")
    d = np.asarray(d_m, dtype=float)
    pl = 28.0 + 22.0 * np.log10(d) + 20.0 * np.log10(cfg.f_ghz)
    return float(pl) if np.isscalar(d_m) else pl


def _pl_nlos_low(d, h, f_ghz):
    # below the breakpoint height: max(PL_LoS, PL_0)
    pl0 = 13.54 + 39.08 * np.log10(d) + 20.0 * np.log10(f_ghz) - 0.6 * (h - 1.5)
    pll = 28.0 + 22.0 * np.log10(d) + 20.0 * np.log10(f_ghz)
    return np.maximum(pll, pl0)


def _pl_nlos_high(d, h, f_ghz):
    # at or above the breakpoint height
    return -17.5 + (46.0 - 7.0 * np.log10(h)) * np.log10(d) + 20.0 * np.log10(40.0 * np.pi * f_ghz / 3.0)


def pl_nlos(d_m, receiver_height_m: float, cfg: ScenarioConfig):
    """Non-line-of-sight path loss in dB, branching on the receiver height.

    Heights >= the breakpoint (22.5 m) use the high-altitude expression; lower
    heights use max(PL_LoS, PL_0).  The boundary itself is assigned to the
    high branch.
    """
    _check_positive(d_m, "d_m")
    if receiver_height_m <= 0:
        raise InvalidParameterError(f"receiver_height_m must be positive, got {receiver_height_m}")
    d = np.asarray(d_m, dtype=float)
    if receiver_height_m >= NLOS_BREAKPOINT_HEIGHT_M:
        pl = _pl_nlos_high(d, receiver_height_m, cfg.f_ghz)
    else:
        pl = _pl_nlos_low(d, receiver_height_m, cfg.f_ghz)
    return float(pl) if np.isscalar(d_m) else pl
