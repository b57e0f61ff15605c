"""Scalar reference link budget: one path at a time, in plain ``math``.

The library evaluates every path in one vectorised kernel
(``irslink.simulator``).  This module re-derives the same budget path by path
so that tests can compare the kernel against an independent implementation:
its own antenna pattern and path-loss formulas, the reflected loss split into
a BS-to-element segment and an element-to-UAV segment, the element lattice
built by a loop, and a sequential counter stream over the scalar
``rng.uniform_at``.  It calls nothing in the library's link budget; it shares
only the data types (positions, the scenario config) and the error classes.
Each function takes the config as the record its formula reads, ``antenna``
for the pattern and ``pathloss`` for the carrier; the NLoS breakpoint height
is its own constant.

A coefficient is an (amplitude, phase) pair.  Amplitudes are in sqrt-milliwatt:
link budgets are assembled in dBm and converted to the linear domain before
taking the square root, so |h|^2 is the received power in mW.  Propagation
over a distance d contributes phase -2*pi*d/lambda; only phase differences
matter for the combined magnitude.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from irslink.errors import DegenerateGeometryError, InvalidParameterError
from irslink.geometry import Position3D, ScenarioGeometry
from irslink.rng import uniform_at
from irslink.scenario import ScenarioConfig

SPEED_OF_LIGHT = 3.0e8  # m/s; matches the 40*pi*f/3 constant of the path-loss model

TWO_PI = 2.0 * math.pi

BREAKPOINT_HEIGHT_M = 22.5  # receiver height splitting the two NLoS branches

PHASE_ALIGNED = "aligned"
PHASE_GEOMETRIC = "geometric"


@dataclass(frozen=True)
class ChannelCoefficient:
    """One propagation path: amplitude in sqrt-mW, phase in [0, 2*pi) radians."""

    amplitude: float
    phase: float

    def __post_init__(self):
        if self.amplitude < 0:
            raise InvalidParameterError(f"amplitude must be non-negative, got {self.amplitude}")
        if not 0.0 <= self.phase < TWO_PI:
            raise InvalidParameterError(f"phase must lie in [0, 2*pi), got {self.phase}")


@dataclass(frozen=True)
class ReflectionParams:
    """Reflection power losses in dB: controllable surface vs. plain wall."""

    pl_irs_db: float = 1.0
    pl_wall_db: float = 10.0

    def __post_init__(self):
        if self.pl_irs_db < 0 or self.pl_wall_db < 0:
            raise InvalidParameterError("reflection losses must be non-negative")


def wavelength_m(f_ghz: float) -> float:
    return SPEED_OF_LIGHT / (f_ghz * 1e9)


def dbm_to_amplitude(p_dbm: float) -> float:
    """sqrt of the linear power: sqrt(10^(p/10)) mW^0.5."""
    return 10.0 ** (p_dbm / 20.0)


def propagation_phase(path_length_m: float, f_ghz: float) -> float:
    """(-2*pi*d/lambda) wrapped to [0, 2*pi)."""
    phase = (-TWO_PI * path_length_m / wavelength_m(f_ghz)) % TWO_PI
    # float modulo may round up to the divisor itself
    return 0.0 if phase >= TWO_PI else phase


# --- antenna pattern and path loss -------------------------------------------


def vertical_gain(theta_deg: float, antenna: ScenarioConfig) -> float:
    """-min[12*((theta - tilt)/theta3dB)^2, SLA] in dB."""
    dev = (theta_deg - antenna.theta_etilt_deg) / antenna.theta3db_deg
    return -min(12.0 * dev * dev, antenna.sla_db)


def effective_tx_power(p_t_dbm: float, theta_deg: float, antenna: ScenarioConfig) -> float:
    """Transmit power seen at vertical angle theta: P_T plus the pattern gain (dBm)."""
    return p_t_dbm + vertical_gain(theta_deg, antenna)


def pl_los(d_m: float, pathloss: ScenarioConfig) -> float:
    """28 + 22 log10(d) + 20 log10(f) in dB."""
    if not d_m > 0:
        raise InvalidParameterError(f"d_m must be positive, got {d_m}")
    return 28.0 + 22.0 * math.log10(d_m) + 20.0 * math.log10(pathloss.f_ghz)


def pl_nlos(d_m: float, receiver_height_m: float, pathloss: ScenarioConfig) -> float:
    """High branch at or above the breakpoint height, max(PL_LoS, PL_0) below."""
    if not d_m > 0:
        raise InvalidParameterError(f"d_m must be positive, got {d_m}")
    h, f = receiver_height_m, pathloss.f_ghz
    if h >= BREAKPOINT_HEIGHT_M:
        return -17.5 + (46.0 - 7.0 * math.log10(h)) * math.log10(d_m) + 20.0 * math.log10(40.0 * math.pi * f / 3.0)
    pl0 = 13.54 + 39.08 * math.log10(d_m) + 20.0 * math.log10(f) - 0.6 * (h - 1.5)
    return max(pl_los(d_m, pathloss), pl0)


def pl_bs_to_element(d1_m: float, receiver_height_m: float, pathloss: ScenarioConfig) -> float:
    """First segment of a reflected path (BS to reflector element)."""
    return pl_nlos(d1_m, receiver_height_m, pathloss)


def pl_element_to_uav(d1_m: float, d2_m: float, receiver_height_m: float, pathloss: ScenarioConfig) -> float:
    """Second segment: distance-related loss only, so the two segments add up
    to the end-to-end PL_NLoS(d1 + d2) exactly."""
    if not d2_m > 0:
        raise InvalidParameterError(f"d2_m must be positive, got {d2_m}")
    return pl_nlos(d1_m + d2_m, receiver_height_m, pathloss) - pl_nlos(d1_m, receiver_height_m, pathloss)


# --- geometry and sampling -----------------------------------------------------


def point(p) -> Position3D:
    """A Position3D from a Position3D or an (x, y, z) row."""
    return p if isinstance(p, Position3D) else Position3D(float(p[0]), float(p[1]), float(p[2]))


def distance(a: Position3D, b: Position3D) -> float:
    return math.sqrt((b.x - a.x) ** 2 + (b.y - a.y) ** 2 + (b.z - a.z) ** 2)


def depression_angle(frm: Position3D, to: Position3D) -> float:
    """Degrees below the horizontal through ``frm``; positive when ``to`` is lower."""
    return math.degrees(math.atan2(frm.z - to.z, math.hypot(to.x - frm.x, to.y - frm.y)))


def element_positions(rows: int, cols: int, pitch_m: float, center: Position3D) -> list[Position3D]:
    """Row n, column m (1-based) at y = c.y + (m - (cols+1)/2) pitch,
    z = c.z + (n - (rows+1)/2) pitch, row by row."""
    out = []
    for n in range(1, rows + 1):
        z = center.z + (n - (rows + 1) / 2.0) * pitch_m
        for m in range(1, cols + 1):
            y = center.y + (m - (cols + 1) / 2.0) * pitch_m
            out.append(Position3D(center.x, y, z))
    return out


def on_patch(geom: ScenarioGeometry, p, tol: float = 1e-9) -> bool:
    """True if p lies on the wall patch rectangle (within tol)."""
    p = point(p)
    return (
        abs(p.x - geom.irs_center.x) <= tol
        and abs(p.y - geom.irs_center.y) <= geom.patch_half_width_y + tol
        and abs(p.z - geom.irs_center.z) <= geom.patch_half_height_z + tol
    )


class CounterStream:
    """Sequential view over the counter scheme: each call consumes draw indices."""

    def __init__(self, seed: int):
        self.seed = seed & 0xFFFFFFFFFFFFFFFF
        self.position = 0

    def uniforms(self, n: int) -> list[float]:
        out = [uniform_at(self.seed, self.position + j) for j in range(n)]
        self.position += n
        return out


def sample_scatter_points(geom: ScenarioGeometry, count: int, stream: CounterStream) -> list[Position3D]:
    """``count`` points drawn uniformly over the wall patch rectangle.

    Consumes exactly 2 draws per point, y then z.  A zero-extent patch yields
    copies of the patch centre (draws are still consumed).
    """
    if count < 1:
        raise InvalidParameterError(f"scatter point count must be >= 1, got {count}")
    u = stream.uniforms(2 * count)
    c = geom.irs_center
    return [
        Position3D(
            c.x,
            c.y + (2.0 * u[2 * i] - 1.0) * geom.patch_half_width_y,
            c.z + (2.0 * u[2 * i + 1] - 1.0) * geom.patch_half_height_z,
        )
        for i in range(count)
    ]


# --- per-path coefficients -------------------------------------------------------


def los_coefficient(
    geom: ScenarioGeometry,
    antenna: ScenarioConfig,
    pathloss: ScenarioConfig,
    p_t_dbm: float,
) -> ChannelCoefficient:
    """Direct BS-to-UAV path: down-tilt pattern at the LoS angle, LoS path loss."""
    if geom.bs == geom.uav:
        raise DegenerateGeometryError("BS and UAV coincide")
    d = distance(geom.bs, geom.uav)
    theta0 = depression_angle(geom.bs, geom.uav)
    p_rx = effective_tx_power(p_t_dbm, theta0, antenna) - pl_los(d, pathloss)
    return ChannelCoefficient(dbm_to_amplitude(p_rx), propagation_phase(d, pathloss.f_ghz))


def _reflected_power_dbm(
    p: Position3D,
    geom: ScenarioGeometry,
    antenna: ScenarioConfig,
    pathloss: ScenarioConfig,
    p_t_dbm: float,
    reflection_loss_db: float,
) -> tuple[float, float]:
    """Link budget of one reflected path; returns (power_dbm, path_length_m)."""
    d1 = distance(geom.bs, p)
    d2 = distance(p, geom.uav)
    if d1 == 0.0 or d2 == 0.0:
        raise DegenerateGeometryError("reflection point coincides with BS or UAV")
    theta_k = depression_angle(geom.bs, p)
    segment_loss = pl_bs_to_element(d1, geom.uav.z, pathloss) + pl_element_to_uav(d1, d2, geom.uav.z, pathloss)
    p_rx = effective_tx_power(p_t_dbm, theta_k, antenna) - segment_loss - reflection_loss_db
    return p_rx, d1 + d2


def element_coefficient(
    element_index: int,
    geom: ScenarioGeometry,
    antenna: ScenarioConfig,
    pathloss: ScenarioConfig,
    p_t_dbm: float,
    refl: ReflectionParams,
    phase_mode: str = PHASE_ALIGNED,
) -> ChannelCoefficient:
    """Path through one reflector element.

    "aligned" models ideal phase control: the arrival phase equals the LoS
    phase exactly.  "geometric" uses the raw propagation phase over d1 + d2.
    """
    element = point(geom.elements[element_index])
    p_rx, path_len = _reflected_power_dbm(element, geom, antenna, pathloss, p_t_dbm, refl.pl_irs_db)
    if phase_mode == PHASE_ALIGNED:
        phase = los_coefficient(geom, antenna, pathloss, p_t_dbm).phase
    elif phase_mode == PHASE_GEOMETRIC:
        phase = propagation_phase(path_len, pathloss.f_ghz)
    else:
        raise InvalidParameterError(f"unknown phase_mode {phase_mode!r}")
    return ChannelCoefficient(dbm_to_amplitude(p_rx), phase)


def wall_ray_coefficient(
    scatter_point,
    geom: ScenarioGeometry,
    antenna: ScenarioConfig,
    pathloss: ScenarioConfig,
    p_t_dbm: float,
    refl: ReflectionParams,
) -> ChannelCoefficient:
    """Same link budget as a reflector element but with the wall loss and a
    phase fixed by the path length (a plain wall cannot steer it)."""
    p_rx, path_len = _reflected_power_dbm(point(scatter_point), geom, antenna, pathloss, p_t_dbm, refl.pl_wall_db)
    return ChannelCoefficient(dbm_to_amplitude(p_rx), propagation_phase(path_len, pathloss.f_ghz))


def combine(coeffs) -> float:
    """Magnitude of the phasor sum, |sum a_i exp(j phi_i)|, in sqrt-mW."""
    coeffs = list(coeffs)
    if not coeffs:
        raise InvalidParameterError("combine needs at least one coefficient")
    return abs(sum(c.amplitude * cmath.exp(1j * c.phase) for c in coeffs))
