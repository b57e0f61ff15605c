"""Scenario and Monte Carlo configuration with the standard defaults.

Default physical parameters: 2 GHz carrier, 46 dBm transmit power, 15 degree
down-tilt, 1 dB / 10 dB reflection losses, BS at 25 m, UAV at 50 m, reflector
centre at 10 m, a 10x10 element lattice at 2 cm pitch, and 50 m BS-wall
separation.  The UAV hovers at the midpoint (x = L/2) unless an explicit
position is given.

Both configs check themselves when they are made, also through
``dataclasses.replace``, so every config that exists is valid.  Their fields
are the model's whole parameter set: the propagation model reads them
directly, and the command line derives its flags and config keys from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import InvalidParameterError
from .geometry import ScenarioGeometry, build_geometry

DEFAULT_MASTER_SEED = 42  # used whenever no seed is given; recorded in every manifest

RAY_PHASES_GEOMETRIC = "geometric"
RAY_PHASES_UNIFORM = "uniform"
RAY_PHASES = (RAY_PHASES_GEOMETRIC, RAY_PHASES_UNIFORM)

# time is linear in n_runs and 10**9 runs already take hours per point, so
# larger counts are rejected instead of running until killed
_MAX_RUNS = 10**9
# 10**8 elements are a 2.4 GB (K, 3) lattice plus ~20 K-long temporaries in
# the link budget, so larger counts are rejected before anything is built
_MAX_ELEMENTS = 10**8


@dataclass(frozen=True)
class ScenarioConfig:
    f_ghz: float = 2.0
    p_t_dbm: float = 46.0
    theta_etilt_deg: float = 15.0
    theta3db_deg: float = 10.0
    sla_db: float = 20.0
    pl_irs_db: float = 1.0
    pl_wall_db: float = 10.0
    h_bs_m: float = 25.0
    h_uav_m: float = 50.0
    h_irs_m: float = 10.0
    irs_rows: int = 10
    irs_cols: int = 10
    l_m: float = 50.0
    element_pitch_m: float = 0.02
    uav_x_m: float | None = None  # None tracks l_m / 2
    uav_y_m: float = 0.0

    def __post_init__(self):
        positive = ("f_ghz", "h_bs_m", "h_uav_m", "h_irs_m", "l_m", "element_pitch_m", "theta3db_deg", "sla_db")
        for name in positive:
            if getattr(self, name) <= 0:
                raise InvalidParameterError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("pl_irs_db", "pl_wall_db"):
            if getattr(self, name) < 0:
                raise InvalidParameterError(f"{name} must be non-negative, got {getattr(self, name)}")
        if self.irs_rows < 0 or self.irs_cols < 0:
            raise InvalidParameterError(f"irs_rows/irs_cols must be non-negative, got {self.irs_rows}x{self.irs_cols}")
        if self.k > _MAX_ELEMENTS:
            raise InvalidParameterError(f"irs_rows*irs_cols must be <= {_MAX_ELEMENTS}, got {self.k}")
        for name in (f.name for f in fields(self)):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise InvalidParameterError(f"{name} must be finite")

    @property
    def k(self) -> int:
        return self.irs_rows * self.irs_cols

    def geometry(self) -> ScenarioGeometry:
        return build_geometry(
            self.irs_rows,
            self.irs_cols,
            self.element_pitch_m,
            self.l_m,
            self.h_bs_m,
            self.h_irs_m,
            self.h_uav_m,
            self.uav_x_m,
            self.uav_y_m,
        )


@dataclass(frozen=True)
class MonteCarloConfig:
    """Baseline Monte Carlo controls.

    ``ray_phases`` selects what is random about the wall rays:
      - "geometric": scatter points are re-sampled each run and each ray's
        phase follows its path length (default),
      - "uniform": scatter points are re-sampled the same way but ray phases
        are drawn i.i.d. uniform on [0, 2*pi).
    """

    n_runs: int = 10_000
    n_rays: int = 20
    master_seed: int = DEFAULT_MASTER_SEED
    ray_phases: str = RAY_PHASES_GEOMETRIC

    def __post_init__(self):
        if not 1 <= self.n_runs <= _MAX_RUNS:
            raise InvalidParameterError(f"n_runs must be in 1..{_MAX_RUNS}, got {self.n_runs}")
        if self.n_rays < 0:
            raise InvalidParameterError(f"n_rays must be >= 0, got {self.n_rays}")
        if not 0 <= self.master_seed < 2**64:
            raise InvalidParameterError("master_seed must fit in 64 unsigned bits")
        if self.ray_phases not in RAY_PHASES:
            raise InvalidParameterError(f"ray_phases must be 'geometric' or 'uniform', got {self.ray_phases!r}")


def near_square_factors(k: int) -> tuple[int, int]:
    """Factor k into (rows, cols) with rows the largest divisor <= sqrt(k).

    Serves ``--k``, ``k =`` and sweeps over k alike, so counts that are not
    perfect squares still map to an exact lattice (50 -> 5x10, 25 -> 5x5);
    primes degrade to 1 x k.
    """
    if not 1 <= k <= _MAX_ELEMENTS:  # trial division of a huge prime k alone takes minutes
        raise InvalidParameterError(f"element count must be in 1..{_MAX_ELEMENTS}, got {k}")
    for rows in range(math.isqrt(k), 0, -1):
        if k % rows == 0:
            return rows, k // rows
    raise AssertionError("unreachable")

