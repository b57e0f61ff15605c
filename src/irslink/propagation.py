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


def vertical_gain(theta_deg, cfg: ScenarioConfig, out=None, scratch=None):
    """Antenna gain -min[12*((theta - tilt)/theta3dB)^2, SLA] in dB, within [-SLA, 0].

    ``out`` and ``scratch`` are optional float64 arrays shaped like
    ``theta_deg`` (``scratch`` may be ``theta_deg`` itself) that receive the
    gain and the intermediate deviation, so an array call allocates nothing.
    """
    theta = np.asarray(theta_deg, dtype=float)
    dev = np.subtract(theta, cfg.theta_etilt_deg, out=np.empty_like(theta) if scratch is None else scratch)
    np.divide(dev, cfg.theta3db_deg, out=dev)
    g = np.multiply(dev, 12.0, out=np.empty_like(theta) if out is None else out)
    np.multiply(g, dev, out=g)
    np.minimum(g, cfg.sla_db, out=g)
    np.negative(g, out=g)
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


def pl_nlos(d_m, receiver_height_m: float, cfg: ScenarioConfig, out=None, scratch=None, check: bool = True):
    """Non-line-of-sight path loss in dB, branching on the receiver height.

    Heights >= the breakpoint (22.5 m) use the high-altitude expression
    -17.5 + (46 - 7 log10 h) log10(d) + 20 log10(40 pi f / 3); lower heights
    use max(PL_LoS, PL_0) with PL_0 = 13.54 + 39.08 log10(d) + 20 log10(f)
    - 0.6 (h - 1.5).  The boundary itself is assigned to the high branch.

    ``out`` and ``scratch`` are optional float64 arrays shaped like ``d_m``
    (``scratch`` may be ``d_m`` itself) that receive the loss and, below the
    breakpoint, PL_LoS, so an array call allocates nothing.  ``check=False``
    skips the input check, for a caller whose lengths are known positive and
    finite and whose height is positive (the wall kernel).
    """
    if check:
        _check_positive(d_m, "d_m")
        if receiver_height_m <= 0:
            raise InvalidParameterError(f"receiver_height_m must be positive, got {receiver_height_m}")
    d = np.asarray(d_m, dtype=float)
    h, f_db = receiver_height_m, 20.0 * np.log10(cfg.f_ghz)
    pl = np.log10(d, out=np.empty_like(d) if out is None else out)
    if h >= NLOS_BREAKPOINT_HEIGHT_M:
        pl *= 46.0 - 7.0 * np.log10(h)
        pl += -17.5
        pl += 20.0 * np.log10(40.0 * np.pi * cfg.f_ghz / 3.0)
    else:
        pll = np.multiply(pl, 22.0, out=np.empty_like(d) if scratch is None else scratch)
        pll += 28.0
        pll += f_db
        pl *= 39.08
        pl += 13.54
        pl += f_db
        pl -= 0.6 * (h - 1.5)
        np.maximum(pll, pl, out=pl)
    return float(pl) if np.isscalar(d_m) else pl
