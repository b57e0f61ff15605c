"""Scene geometry: positions and the reflector element lattice.

Axes: x runs horizontally from the base station toward the reflector wall,
y runs along the wall, z is height above ground (all metres).  The wall is
the plane x = L; the BS sits at the origin at height H_BS.

This module only places things.  Every distance and angle of a path, the
LoS included, is the link budget's (``simulator``), computed on arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError


@dataclass(frozen=True)
class Position3D:
    x: float
    y: float
    z: float


@dataclass(frozen=True)
class ScenarioGeometry:
    """Resolved 3D scene (see ``ScenarioConfig.geometry``): BS, UAV, reflector
    patch centre and the patch half-extents (zero when there is no reflector).
    The element coordinates are made on demand by ``element_positions``."""

    bs: Position3D
    uav: Position3D
    irs_center: Position3D
    patch_half_width_y: float
    patch_half_height_z: float


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
