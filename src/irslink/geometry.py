"""Scene geometry: positions and the reflector element lattice.

Axes: x runs horizontally from the base station toward the reflector wall,
y runs along the wall, z is height above ground (all metres).  The wall is
the plane x = L; the BS sits at the origin at height H_BS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError, InvalidParameterError


@dataclass(frozen=True)
class Position3D:
    x: float
    y: float
    z: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)


@dataclass(frozen=True, eq=False)  # an array field has no scalar equality
class ScenarioGeometry:
    """Resolved 3D scene: BS, UAV, reflector patch centre and element lattice.

    ``elements`` is a read-only (K, 3) array of element positions in lattice
    order; K = 0 when there is no reflector.
    """

    bs: Position3D
    uav: Position3D
    irs_center: Position3D
    elements: np.ndarray
    patch_half_width_y: float
    patch_half_height_z: float


def element_positions(rows: int, cols: int, pitch_m: float, center: Position3D) -> np.ndarray:
    """Regular rows x cols lattice on the plane x = center.x, centred on ``center``.

    Row n, column m (1-based) sits at
        y = center.y + (m - (cols + 1) / 2) * pitch
        z = center.z + (n - (rows + 1) / 2) * pitch
    so the lattice centroid is exactly the patch centre.  Returns a
    (rows * cols, 3) array, row by row.
    """
    if rows < 1 or cols < 1:
        raise InvalidParameterError(f"element lattice needs rows >= 1 and cols >= 1, got {rows}x{cols}")
    if pitch_m <= 0:
        raise InvalidParameterError(f"element pitch must be positive, got {pitch_m}")
    z = center.z + (np.arange(1, rows + 1) - (rows + 1) / 2.0) * pitch_m
    y = center.y + (np.arange(1, cols + 1) - (cols + 1) / 2.0) * pitch_m
    zz, yy = np.meshgrid(z, y, indexing="ij")
    return np.column_stack((np.full(rows * cols, center.x), yy.ravel(), zz.ravel()))


def distance(a: Position3D, b: Position3D) -> float:
    """Euclidean distance in metres."""
    return math.sqrt((b.x - a.x) ** 2 + (b.y - a.y) ** 2 + (b.z - a.z) ** 2)


def depression_angle(frm: Position3D, to: Position3D) -> float:
    """Angle of the ray below the horizontal plane through ``frm``, in degrees.

    Positive when the target is lower, negative when higher; +90 for straight
    down.  This matches the down-tilt convention: the antenna boresight is at
    a positive depression angle.
    """
    if frm == to:
        raise DegenerateGeometryError("depression angle undefined for coincident points")
    horiz = math.hypot(to.x - frm.x, to.y - frm.y)
    return math.degrees(math.atan2(frm.z - to.z, horiz))


def build_geometry(
    rows: int,
    cols: int,
    pitch_m: float,
    l_m: float,
    h_bs_m: float,
    h_irs_m: float,
    h_uav_m: float,
    uav_x_m: float | None = None,
    uav_y_m: float = 0.0,
) -> ScenarioGeometry:
    """Resolve the scene: BS at origin, wall at x = L, UAV midway by default.

    rows = 0 or cols = 0 gives an empty lattice (no reflector) with a
    zero-extent patch.
    """
    if rows < 0 or cols < 0:
        raise InvalidParameterError(f"rows/cols must be non-negative, got {rows}x{cols}")
    if l_m <= 0:
        raise InvalidParameterError(f"l_m must be positive, got {l_m}")
    for name, h in (("h_bs_m", h_bs_m), ("h_irs_m", h_irs_m), ("h_uav_m", h_uav_m)):
        if h <= 0:
            raise InvalidParameterError(f"{name} must be positive, got {h}")
    bs = Position3D(0.0, 0.0, h_bs_m)
    center = Position3D(l_m, 0.0, h_irs_m)
    uav = Position3D(l_m / 2.0 if uav_x_m is None else uav_x_m, uav_y_m, h_uav_m)
    if rows == 0 or cols == 0:
        elements = np.empty((0, 3), dtype=float)
        half_w = half_h = 0.0
    else:
        elements = element_positions(rows, cols, pitch_m, center)
        half_w = (cols - 1) * pitch_m / 2.0
        half_h = (rows - 1) * pitch_m / 2.0
    elements.flags.writeable = False
    return ScenarioGeometry(bs, uav, center, elements, half_w, half_h)
