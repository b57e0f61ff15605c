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

# paths in one run block of the wall kernel (and one slice of the reflector
# sum): a run's rays share a block, so n_rays is bounded by it, lest a block,
# and with it the kernel's retained per-thread workspace, grow with the input
BLOCK_PATHS = 2**15
# the reflector sum's time is linear in k and 10**8 elements already take about
# 6 s per point (2-vCPU Xeon), so larger counts are rejected before factoring
_MAX_ELEMENTS = 10**8
# a number field's bounds, in its metadata: "gt" (open) or "ge" (closed) below,
# "le" (closed) above; an end without one is open at infinity
_POSITIVE = {"gt": 0.0}
_NON_NEGATIVE = {"ge": 0}


@dataclass(frozen=True)
class Position3D:
    x: float
    y: float
    z: float


@dataclass(frozen=True)
class ScenarioConfig:
    f_ghz: float = field(default=2.0, metadata={"ge": 0.5, "le": 100.0})  # the scope of TR 38.901, section 1
    p_t_dbm: float = 46.0
    theta_etilt_deg: float = field(default=15.0, metadata={"ge": -90.0, "le": 90.0})  # depression; below 0 uptilts
    theta3db_deg: float = field(default=10.0, metadata={"gt": 0.0, "le": 180.0})
    sla_db: float = field(default=20.0, metadata=_POSITIVE)
    pl_irs_db: float = field(default=1.0, metadata=_NON_NEGATIVE)
    pl_wall_db: float = field(default=10.0, metadata=_NON_NEGATIVE)
    h_bs_m: float = field(default=25.0, metadata=_POSITIVE)
    # where the UMa-AV path loss holds: PL0's (h - 1.5) term, TR 36.777 above
    h_uav_m: float = field(default=50.0, metadata={"ge": 1.5, "le": 300.0})
    h_irs_m: float = field(default=10.0, metadata=_POSITIVE)
    irs_rows: int = field(default=10, metadata=_NON_NEGATIVE)
    irs_cols: int = field(default=10, metadata=_NON_NEGATIVE)
    l_m: float = field(default=50.0, metadata=_POSITIVE)
    element_pitch_m: float = field(default=0.02, metadata=_POSITIVE)
    uav_x_m: float | None = None  # None tracks l_m / 2
    uav_y_m: float = 0.0

    def __post_init__(self):
        _check_fields(self)  # then the rules that relate fields
        if self.k > _MAX_ELEMENTS:
            raise InvalidParameterError(f"irs_rows*irs_cols must be <= {_MAX_ELEMENTS}, got {_shown(self.k)}")
        span = 180.0 / self.theta3db_deg  # 12*span^2: the pattern's largest deviation, angles in [-90, 90]
        if not math.isfinite(12.0 * span * span):  # span ** 2 raises on overflow
            raise InvalidParameterError(f"theta3db_deg = {self.theta3db_deg} overflows 12*(180/theta3db_deg)^2")
        if self.h_irs_m > self.h_bs_m:  # the reflector is mounted below the BS mast top
            raise InvalidParameterError(f"h_irs_m must be <= h_bs_m = {self.h_bs_m}, got {self.h_irs_m}")
        # a UAV behind the wall plane x = l_m sees no reflection off its front;
        # one on the plane is valid here, and the kernel rejects one on the patch
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

    n_runs: int = field(default=10_000, metadata={"ge": 1, "le": 10**9})  # time is linear in it: hours at 10**9
    n_rays: int = field(default=20, metadata={"ge": 0, "le": BLOCK_PATHS})
    # metadata also holds what a flag cannot derive from its field: a "flag" alias, "choices" and --help's "help"
    master_seed: int = field(default=DEFAULT_MASTER_SEED, metadata={
        "ge": 0, "le": 2**64 - 1, "flag": "--seed", "help": "master seed for the Monte Carlo baseline"})
    # a batch starts up to min(threads, blocks) pool threads, so a large threads
    # on a large n_runs would ask the OS for that many; never compared, as it moves no bit
    threads: int = field(default=1, compare=False, metadata={
        "ge": 1, "le": 256, "help": "threads for the run blocks of a sweep's one batch; never changes a bit"})
    ray_phases: str = field(default=RAY_PHASES_GEOMETRIC,
                            metadata={"choices": RAY_PHASES, "help": "wall-ray phase model (default: geometric)"})

    def __post_init__(self):
        _check_fields(self)


def _check_fields(record) -> None:
    """Raise InvalidParameterError for the first field of ``record`` outside its ``_domain``."""
    for f in fields(record):
        value, meta = getattr(record, f.name), f.metadata
        # ints compare as ints: 10**400 is not converted to a float
        inside = value in meta["choices"] if "choices" in meta else value is None or (
            (value >= meta["ge"] if "ge" in meta else value > meta.get("gt", -math.inf))
            and (value <= meta["le"] if "le" in meta else value < math.inf))
        if not inside:
            got = repr(value) if "choices" in meta else _shown(value)
            raise InvalidParameterError(f"{f.name} must be in {_domain(meta)}, got {got}")


def _domain(meta) -> str:
    """A field's domain as its error line and README's exit-2 table show it:
    its "choices" as a set, else the interval that its bounds close or open."""
    if "choices" in meta:
        return "{" + ", ".join(meta["choices"]) + "}"
    low = f"[{_shown(meta['ge'])}" if "ge" in meta else f"({_shown(meta.get('gt', -math.inf))}"
    return f"{low}, {_shown(meta['le'])}]" if "le" in meta else f"{low}, inf)"


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
        raise InvalidParameterError(f"k values must be positive integers, got {_shown(k)}")
    if rows is not None and cols is not None:
        if rows * cols != n:
            raise InvalidParameterError(f"k={_shown(n)} inconsistent with irs_rows*irs_cols={_shown(rows * cols)}")
        return rows, cols
    if rows is not None or cols is not None:
        name, side = ("irs_rows", rows) if rows is not None else ("irs_cols", cols)
        if side < 1 or n % side != 0:
            raise InvalidParameterError(f"k={_shown(n)} is not a multiple of {name}={_shown(side)}")
        return (side, n // side) if rows is not None else (n // side, side)
    if not 1 <= n <= _MAX_ELEMENTS:  # trial division of a huge prime k alone takes minutes
        raise InvalidParameterError(f"element count must be in 1..{_MAX_ELEMENTS}, got {_shown(k)}")
    for rows in range(math.isqrt(n), 0, -1):
        if n % rows == 0:
            return rows, n // rows
    raise AssertionError("unreachable")


def _shown(value) -> str:
    """A number as an error line shows it: an integral one below 10**20 in
    full, another float by its repr ("2.5", "1e+300", "nan") and a longer int
    by its leading 6 digits and its exponent ("1e+400", not 401 digits)."""
    if abs(value) < 10**20 and value == int(value):  # False for nan and inf before int() sees them
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    n = abs(int(value))  # not str(n): that refuses ints past 4,300 digits
    e = int(math.log10(n))  # the exponent, or one off it where log10 rounds
    e += (n >= 10 ** (e + 1)) - (n < 10**e)
    return f"{'-' if value < 0 else ''}{n // 10 ** (e - 5) / 1e5:g}e+{e}"


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
