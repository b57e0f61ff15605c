"""Scenario and Monte Carlo configuration with the standard defaults.

Default physical parameters: 2 GHz carrier, 46 dBm transmit power, 15 degree
down-tilt, 1 dB / 10 dB reflection losses, BS at 25 m, UAV at 50 m, reflector
centre at 10 m, a 10x10 element lattice at 2 cm pitch, and 50 m BS-wall
separation.  The UAV hovers at the midpoint (x = L/2) unless an explicit
position is given.

The config is the scene.  Axes: x runs horizontally from the BS, at the
origin at height H_BS, to the reflector wall, the plane x = L; y runs along
the wall and z is height (all metres).  The properties ``bs``, ``uav``,
``irs_center`` and the patch half sizes place things, and
``element_positions`` makes the lattice's coordinates on demand.

Both configs check themselves when they are made, also through
``dataclasses.replace``, so every config that exists is valid.  Their fields
are the model's whole parameter set: the propagation model reads them, and the
command line derives its config keys and flags from them and their metadata.
``lattice_shape`` is the one rule that turns an element count k into a lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import InvalidParameterError

DEFAULT_MASTER_SEED = 42  # used whenever no seed is given; recorded in every manifest

RAY_PHASES_GEOMETRIC = "geometric"
RAY_PHASES_UNIFORM = "uniform"
RAY_PHASES = (RAY_PHASES_GEOMETRIC, RAY_PHASES_UNIFORM)

SPEED_OF_LIGHT = 3.0e8  # m/s; matches the 40*pi*f/3 constant of the path-loss model

# time is linear in n_runs and 10**9 runs already take hours per point, so
# larger counts are rejected instead of running until killed
_MAX_RUNS = 10**9
# paths in one run block of the wall kernel (and one slice of the reflector
# sum): a run's rays share a block, so n_rays is bounded by it, lest a block,
# and with it the kernel's retained per-thread workspace, grow with the input
BLOCK_PATHS = 2**15
# the reflector sum's time is linear in k and 10**8 elements already take about
# 6 s per point (2-vCPU Xeon), so larger counts are rejected before factoring
_MAX_ELEMENTS = 10**8
# UAV heights where the UMa-AV path loss holds: PL0's (h - 1.5) term, TR 36.777
_H_UAV_RANGE_M = (1.5, 300.0)


@dataclass(frozen=True)
class Position3D:
    x: float
    y: float
    z: float


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
        positive = ("f_ghz", "h_bs_m", "h_irs_m", "l_m", "element_pitch_m", "theta3db_deg", "sla_db")
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
        if not 0.0 < wavelength_m(self.f_ghz) < math.inf:  # f_ghz * 1e9 overflows, or 3e8 over it does
            raise InvalidParameterError(f"f_ghz must give a positive finite wavelength, got {self.f_ghz}")
        if not -90.0 <= self.theta_etilt_deg <= 90.0:  # a depression angle; below 0 is an uptilt
            raise InvalidParameterError(f"theta_etilt_deg must be in [-90, 90], got {self.theta_etilt_deg}")
        span = 180.0 / self.theta3db_deg  # 12*span^2: the pattern's largest deviation, angles in [-90, 90]
        if self.theta3db_deg > 180.0 or not math.isfinite(12.0 * span * span):  # span ** 2 raises on overflow
            raise InvalidParameterError(f"theta3db_deg must be in (0, 180] with 12*(180/theta3db_deg)^2 finite, "
                                        f"got {self.theta3db_deg}")
        low, high = _H_UAV_RANGE_M
        if not low <= self.h_uav_m <= high:
            raise InvalidParameterError(f"h_uav_m must be in [{low:g}, {high:g}] m, got {self.h_uav_m}")
        if self.h_irs_m > self.h_bs_m:  # the reflector is mounted below the BS mast top
            raise InvalidParameterError(f"h_irs_m must be <= h_bs_m = {self.h_bs_m}, got {self.h_irs_m}")
        # a UAV behind the wall plane x = l_m sees no reflection off its front;
        # one on the plane is valid here, and the kernel rejects a coincidence
        if self.uav_x_m is not None and self.uav_x_m > self.l_m:
            raise InvalidParameterError(f"uav_x_m must be <= l_m = {self.l_m}, got {self.uav_x_m}")

    @property
    def k(self) -> int:
        return self.irs_rows * self.irs_cols

    # the scene: BS at the origin, wall at x = L, UAV midway unless pinned;
    # k = 0 (no reflector) gives a zero-extent patch
    @property
    def bs(self) -> Position3D:
        return Position3D(0.0, 0.0, self.h_bs_m)

    @property
    def uav(self) -> Position3D:
        return Position3D(self.l_m / 2.0 if self.uav_x_m is None else self.uav_x_m, self.uav_y_m, self.h_uav_m)

    @property
    def irs_center(self) -> Position3D:
        return Position3D(self.l_m, 0.0, self.h_irs_m)

    @property
    def patch_half_width_y(self) -> float:
        return (self.irs_cols - 1) * self.element_pitch_m / 2.0 if self.k else 0.0

    @property
    def patch_half_height_z(self) -> float:
        return (self.irs_rows - 1) * self.element_pitch_m / 2.0 if self.k else 0.0


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
    # metadata holds what a flag cannot derive from its field: a "flag" alias, "choices" and --help's "help"
    master_seed: int = field(default=DEFAULT_MASTER_SEED,
                             metadata={"flag": "--seed", "help": "master seed for the Monte Carlo baseline"})
    ray_phases: str = field(default=RAY_PHASES_GEOMETRIC,
                            metadata={"choices": RAY_PHASES, "help": "wall-ray phase model (default: geometric)"})

    def __post_init__(self):
        if not 1 <= self.n_runs <= _MAX_RUNS:
            raise InvalidParameterError(f"n_runs must be in 1..{_MAX_RUNS}, got {self.n_runs}")
        if not 0 <= self.n_rays <= BLOCK_PATHS:
            raise InvalidParameterError(f"n_rays must be in 0..{BLOCK_PATHS}, got {self.n_rays}")
        if not 0 <= self.master_seed < 2**64:
            raise InvalidParameterError("master_seed must fit in 64 unsigned bits")
        if self.ray_phases not in RAY_PHASES:
            raise InvalidParameterError(f"ray_phases must be 'geometric' or 'uniform', got {self.ray_phases!r}")


def wavelength_m(f_ghz: float) -> float:
    return SPEED_OF_LIGHT / (f_ghz * 1e9)


def lattice_shape(k, rows: int | None = None, cols: int | None = None) -> tuple[int, int]:
    """The (rows, cols) lattice of k elements, for ``--k``, ``k =`` and sweeps over k.

    With one side given the other is k divided by it; with both, their product
    must be k.  With neither, rows is the largest divisor of k not above
    sqrt(k), so counts that are not perfect squares still map to an exact
    lattice (50 -> 5x10, 25 -> 5x5); primes degrade to 1 x k.
    """
    n = int(k) if abs(k) < math.inf else None  # int() of nan or inf raises
    if n != k:
        raise InvalidParameterError(f"k values must be positive integers, got {k}")
    if rows is not None and cols is not None:
        if rows * cols != n:
            raise InvalidParameterError(f"k={n} inconsistent with irs_rows*irs_cols={rows * cols}")
        return rows, cols
    if rows is not None or cols is not None:
        name, side = ("irs_rows", rows) if rows is not None else ("irs_cols", cols)
        if side < 1 or n % side != 0:
            raise InvalidParameterError(f"k={n} is not a multiple of {name}={side}")
        return (side, n // side) if rows is not None else (n // side, side)
    if not 1 <= n <= _MAX_ELEMENTS:  # trial division of a huge prime k alone takes minutes
        raise InvalidParameterError(f"element count must be in 1..{_MAX_ELEMENTS}, got {n}")
    for rows in range(math.isqrt(n), 0, -1):
        if n % rows == 0:
            return rows, n // rows
    raise AssertionError("unreachable")


def element_positions(
    rows: int, cols: int, pitch_m: float, center: Position3D, first: int, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """The (y, z) of elements first .. first+n-1 of a regular rows x cols
    lattice on the plane x = center.x, centred on ``center``, row by row; like
    a slice [first:first + n], it stops at the lattice's last element.

    Row n, column m (1-based) sits at
        y = center.y + (m - (cols + 1) / 2) * pitch
        z = center.z + (n - (rows + 1) / 2) * pitch
    so the lattice centroid is exactly the patch centre.
    """
    if rows < 1 or cols < 1:
        raise InvalidParameterError(f"element lattice needs rows >= 1 and cols >= 1, got {rows}x{cols}")
    if pitch_m <= 0:
        raise InvalidParameterError(f"element pitch must be positive, got {pitch_m}")
    if first < 0 or n < 0:
        raise InvalidParameterError(f"element slice needs first >= 0 and n >= 0, got {first}, {n}")
    row, col = np.divmod(np.arange(first, min(first + n, rows * cols)), cols)
    y = center.y + (col + 1 - (cols + 1) / 2.0) * pitch_m
    z = center.z + (row + 1 - (rows + 1) / 2.0) * pitch_m
    return y, z
