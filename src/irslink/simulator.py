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

Draw layout within run r (seeded by rng.run_seeds(master_seed, 1, r)):
  draws 0 .. 2*n_rays-1   scatter positions, y then z per point
  draws 2*n_rays .. 3*n_rays-1   ray phases (consumed only in "uniform" mode)
In memory a block's position draws are two planes (2, runs, n_rays), the y
draws and the z draws (``rng.uniform_block`` with ``planes=2``), which the
scatter mapping turns into the points' (y, z) planes element by element;
only where the values sit differs from the draw order.

Every run is a pure function of (master_seed, run index), so results are
bit-reproducible regardless of execution order or parallelism.

A ray's phase t is taken in turns, -d/lambda or its phase uniform.  Its cos
and sin are made from numpy's multiply, add and rint alone, which round
correctly on every SIMD target, so unlike libm's cos and sin they give the
same bits everywhere.  ``_fold``, the one reduction of both modes, reduces t
to [-1/2, 1/2] by subtracting its nearest integer (exact in floating point)
and then folds it to the nearest half turn: q = rint(2t) in {-1, 0, 1} and
u = t - q/2 in [-1/4, 1/4], exact (Sterbenz).  Then cos 2 pi t =
(1 - 2q^2) C(u^2) and sin 2 pi t = (1 - 2q^2) u S(u^2), where C and S are
degree-8 polynomials (``_COS_TURNS``, ``_SIN_TURNS``) with 2 pi folded into
their coefficients, within 3.3e-16 of the exact values.  In uniform mode a
block's cos and sin are made once, as it is drawn (``_draw_block``).  In
geometric mode they are made per point in the link budget's rows: the path
length row s turns into t and u, row x holds u^2, and row p t's nearest
integer, q, the sign 1 - 2q^2 (folded into the amplitudes, so the polynomials
need no sign), then the sin u S, and row s, its u dead, the cos C.  In both
modes a per-run phasor sum, the amplitudes times the sin or cos row summed
over a run's rays, is one ``einsum("ij,ij->i")`` contraction, with no product
row written; einsum gives the same bits on every SIMD target.  Amplitudes
10^(p/20) are computed as exp(p ln(10)/20).

One link budget serves every path.  Its functions take the config alone and
read each of its placement properties (``ScenarioConfig.bs``, ``uav``,
``irs_center``, the patch half sizes) at most once per call.  Its BS half
(``_bs_side``: d1 and p_t + G(angle)) takes the plane x of its points: the
wall plane for the reflector elements and the wall rays, to which the UAV
half (``_uav_side``) adds PL_NLoS(d1 + d2) and the reflection loss, and the
UAV's own plane for the LoS, evaluated as a one-point array, to which
``_los_amp_phase`` adds PL_LoS(d).  The scalar forms of the distance and the
angle live only in the tests' scalar reference.  Before any budget of a
point runs, one scalar check (``_check_path_lengths``) bounds each of its
path lengths from above and below, so a path that overflows or has length 0
is named, not computed, and the blocks run no checks.

The BS-to-point angle needs the horizontal distance sqrt(dx^2 + dy^2): it is
the root of the partial sum from which d1 = sqrt((dy^2 + dx^2) + dz^2) is
built, and the angle goes to degrees by one multiply by 180/pi, so neither
libm's hypot nor np.degrees (each several times slower than numpy's SIMD
sqrt and multiply) runs per path.  A run's ``|sum of rays|`` is likewise
sqrt(re^2 + im^2).

Runs are evaluated in blocks of ``max(1, BLOCK_PATHS // n_rays)``
consecutive runs (2**15 paths, so a block's work arrays stay in cache), and
memory does not grow with ``n_runs``.  ``wall_power_estimates``, the one
entry point to the kernel, evaluates a batch of points that share one
MonteCarloConfig (a sweep's whole grid, or one point) in one loop: the
blocks are outermost and the points inner, so each block is drawn once for
the whole batch.  Within a block the batch shares
  - the uniforms, and in uniform mode the cos and sin of the ray phases;
  - the scatter points, remapped only when a point's patch (centre y and z,
    half sizes) differs from the previous point's;
  - the BS half of the link budget, d1 and p_t + G(angle), recomputed only
    when the patch, the BS, the wall plane x or the pattern and p_t differ;
and evaluates the UAV half, PL_NLoS(d1 + d2), the phases and the phasor sums
per point.  Every stage keeps the one-point operation order, so a point's
bits do not depend on its neighbours in the batch.  One memory rule holds:
every block-sized array lives in one workspace per thread, and the run-sized
ones (the per-run sums) are allocated per block.  The workspace, 12 rows of
2**15 float64 (3 MiB, under the 4 MiB from which numpy asks for huge pages),
holds 4 input rows, into which ``_draw_block``, the one routine that draws a
block, packs its position uniforms' y and z planes and in uniform mode its
ray phasors' cos and sin planes; 6 of link budget and 2 point rows of
scatter points, mapped from the input rows per patch.  The thread's first
call makes it and every later block and call reuses it, so memory is flat in
the batch size as well; a point keeps only scalars.  The budget rows are:
  - d1 and gain, the BS half, kept while its key holds; before it they are
    the scratch of the generator and of the uniform phasor stage;
  - s: d2, then the path length d1 + d2 in place (``d2 += d1``, the same
    bits), then in geometric mode its turns and then the cos;
  - x: PL_NLoS's scratch below the 22.5 m breakpoint, then in geometric mode
    u^2;
  - the amplitudes, before them the scratch of the BS half and of d2;
  - p, the geometric fold's integers and sign, then the sin.
A uniform block above the breakpoint thus writes 4 of the 6 budget rows (d1,
gain, s and the amplitudes), a geometric block all 6.

The arrays are written with numpy's ``out=``, in the same operation order as
the plain expressions, so the bits are those of the allocating form.  Each
block reduces a point's powers to (count, mean, sum of squared deviations)
and its ``|sum of rays|`` to a sum; the blocks are merged into that point's
accumulators in run order with Chan et al.'s pairwise update.  A block is a pure function of the batch, the controls and
its first run (``_wall_block``), so at ``mc.threads`` > 1 the blocks are
the tasks of the kept pool of that many threads (its threads keep their
workspaces); they are still merged on the calling thread, in run order.  The
block size is a constant, so the merge order, and with it every bit of the
result, depends only on the configs.

A placement search evaluates many batches with the same controls and patch
(L moves only the wall plane x), so every batch would draw and map the same
scatter points and, in uniform mode, make the same ray phasors.  A refined
search (``experiments.optimal_distance``) therefore makes one read-only
``KeptPlanes`` before its grid (``kept_planes``, on the calling thread): its
key, the MonteCarloConfig and the patch, and the planes of each of the first
``_KEPT_BLOCKS`` = 8 run blocks, drawn by ``_draw_block`` with the (y, z)
mapped in place.  That is at most 4 MiB in geometric mode and 8 MiB in
uniform mode (the default 10,000 runs are 7 blocks: 3.2 MB of points, and
3.2 MB of phasors more).  A block read from the table writes neither the
input nor the point rows, so the grid and every golden-section point
neither draw nor fold phases for it, and a kept search's threads never
touch those 6 workspace rows (nor, in uniform mode above the breakpoint,
budget rows x and p).  Blocks past the 8 are drawn per batch, so memory
stays bounded for any n_runs.  A batch whose controls or patch differ from
the key raises.  The entries are the values a batch without them would
make, so they move no bit.
"""

from __future__ import annotations

import collections
import contextvars
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from . import rng
from .errors import DegenerateGeometryError, InvalidParameterError
from .propagation import pl_los, pl_nlos, vertical_gain
from .scenario import BLOCK_PATHS, RAY_PHASES_UNIFORM, MonteCarloConfig, ScenarioConfig, element_positions, wavelength_m

TWO_PI = 2.0 * math.pi

# 10^(p/20) = exp(p * ln(10)/20): numpy's float64 exp has a SIMD loop, while
# its power calls libm element by element
_DB_TO_LN_AMPLITUDE = math.log(10.0) / 20.0

_RAD_TO_DEG = 180.0 / math.pi  # the factor np.degrees multiplies by


def dbm_to_amplitude(p_dbm, out=None):
    """sqrt of the linear power: sqrt(10^(p/10)) = exp(p ln(10)/20) mW^0.5, a
    float for a scalar, else an array (written into ``out`` when it is given)."""
    if np.ndim(p_dbm) == 0:
        return math.exp(p_dbm * _DB_TO_LN_AMPLITUDE)
    return np.exp(np.multiply(p_dbm, _DB_TO_LN_AMPLITUDE, out=out), out=out)


@dataclass(frozen=True)
class GainResult:
    """Gain of the reflector scenario over the wall baseline, with components: the
    CSV's columns in order, each named after its field or its metadata's "column"."""

    gain_db: float                        # 10 log10(gamma_irs^2 / mean_wall_power_mw)
    std_error_db: float                   # standard error of the mean, in dB
    gamma_irs: float                      # deterministic received amplitude, sqrt-mW
    los_amplitude: float = field(metadata={"column": "los_amp"})
    irs_sum_amplitude: float = field(metadata={"column": "irs_sum_amp"})  # element amplitudes alone
    mean_wall_reflection_amplitude: float = field(metadata={"column": "wall_mean_amp"})  # mean |sum of rays|, no LoS
    mean_wall_power_mw: float             # Monte Carlo mean baseline power


class WallEstimate(NamedTuple):
    mean_power_mw: float
    std_error_mw: float
    mean_reflection_amplitude: float
    los_amplitude: float  # the LoS term the mean power includes


def _los_amp_phase(cfg: ScenarioConfig) -> tuple[float, float]:
    """The LoS amplitude and phase: the BS half of the budget at the UAV, as a
    one-point array, less PL_LoS(d)."""
    uav = cfg.uav
    d1, gain, b, c = np.empty((4, 1))
    _bs_side(cfg, uav.x, np.array([uav.y]), np.array([uav.z]), d1, gain, (b, c))
    d = float(d1[0])
    p_rx = float(gain[0]) - pl_los(d, cfg)
    try:
        a0 = dbm_to_amplitude(p_rx)
    except OverflowError:  # math.exp's own message, "math range error", names nothing
        raise OverflowError("the LoS amplitude overflows") from None
    return a0, (-TWO_PI * d / wavelength_m(cfg.f_ghz)) % TWO_PI


def _bs_side(cfg: ScenarioConfig, x: float, y, z, d1, gain, work) -> None:
    """The BS half of the budget for points (y, z) on the plane ``x`` (the wall
    for elements and rays, the UAV's for the LoS): writes the BS-to-point
    distance into ``d1`` and p_t + G(angle) into ``gain``.  ``work`` is two
    scratch arrays of the points' shape."""
    b, c = work
    bs = cfg.bs
    dx1 = x - bs.x
    # d = sqrt((dx*dx + dy*dy) + dz*dz), the order of numpy's length-3 sum; the
    # horizontal distance is the root of its partial sum, numpy's SIMD sqrt in
    # place of libm's hypot element by element
    np.square(np.subtract(y, bs.y, out=d1), out=d1)
    d1 += dx1 * dx1
    np.sqrt(d1, out=c)
    # dz = bs.z - z once, squared into gain, free until the pattern: (z - h)^2 is (h - z)^2
    d1 += np.square(np.subtract(bs.z, z, out=b), out=gain)
    np.sqrt(d1, out=d1)
    # the angle in degrees by one multiply, the same bits as np.degrees at a
    # fifth of its time
    theta = np.multiply(np.arctan2(b, c, out=b), _RAD_TO_DEG, out=b)
    vertical_gain(theta, cfg, out=gain, scratch=theta)
    gain += cfg.p_t_dbm


def _uav_side(cfg: ScenarioConfig, y, z, d1, gain, reflection_loss_db: float, work):
    """The UAV half of the budget, given the BS half (``d1``, ``gain``) of the
    same points: PL_NLoS(d1 + d2) and the reflection loss off ``gain``.
    ``work`` is three arrays of the points' shape: d2, which becomes the path
    length d1 + d2 in place, the amplitudes (also d2's scratch) and PL_NLoS's
    scratch, which only a UAV below the breakpoint writes.

    Returns (amplitudes, path_lengths), the first two of ``work``.
    """
    s, amps, scratch = work
    uav = cfg.uav
    dx2 = uav.x - cfg.irs_center.x
    np.square(np.subtract(uav.y, y, out=s), out=s)
    s += dx2 * dx2
    np.square(np.subtract(uav.z, z, out=amps), out=amps)
    s += amps
    np.sqrt(s, out=s)
    s += d1  # d2 + d1: the bits of d1 + d2, in place
    # the point's one check bounded d1, d2 > 0 and d1 + d2 < inf: pl_nlos skips its own
    np.subtract(gain, pl_nlos(s, uav.z, cfg, out=amps, scratch=scratch, check=False), out=amps)
    amps -= reflection_loss_db
    dbm_to_amplitude(amps, out=amps)
    return amps, s


# Rows of a thread's wall-kernel workspace, each one block of paths long:
# the input rows (a block's planes, packed as in a kept entry), the six link
# budget rows (d1, gain, s, x, the amplitudes and p) and the point rows (see
# the module docstring); run-sized sums are allocated per block, not here.  A
# block read from a KeptPlanes writes neither the input nor the point rows.
# The workspace is per thread, not passed in, so that every thread that runs
# blocks (the caller's, or a kept pool's) reuses it across blocks, batches and
# calls; its contents never outlive one block.
_INPUTS, _BUDGET, _POINTS = slice(0, 4), slice(4, 10), slice(10, 12)
_local = threading.local()

# Run blocks a KeptPlanes holds, at most 4 MiB of planes (8 MiB in uniform mode)
_KEPT_BLOCKS = 8


def _workspace(paths: int) -> np.ndarray:
    """This thread's workspace with room for ``paths`` paths per row: made on
    first use and kept, so the blocks of every later call reuse its pages."""
    ws = getattr(_local, "workspace", None)
    if ws is None or ws.shape[1] < paths:
        ws = _local.workspace = np.empty((_POINTS.stop, paths))
    return ws


def _flat(rows: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The leading elements of consecutive workspace rows, viewed as ``shape``."""
    return rows.reshape(-1)[:math.prod(shape)].reshape(shape)


# cos(2 pi u) = C(u^2) and sin(2 pi u) = u S(u^2) for |u| <= 1/4, lowest
# power first: the Chebyshev fits of degree 8 in x = u^2 on [0, 1/16], made by
# mpmath.chebyfit(f, [0, 1/16], 9) at 50 digits and rounded to float.  With
# the rounding of numpy's float64 evaluation they are within 3.3e-16 of the
# exact values; degree 7 would not be within 1e-15.
_COS_TURNS = (1.0, -19.739208802178705, 64.93939402266395, -85.45681720598061, 60.24464131316041,
              -26.426254066690255, 7.903462492085097, -1.7132184107005932, 0.2719458494999813)
_SIN_TURNS = (6.283185307179586, -41.341702240399755, 81.60524927607362, -76.70585975282492, 42.058693925428685,
              -15.0946416761179, 3.8199280942271643, -0.7177337921413454, 0.10089695501646812)


def _fold(t: np.ndarray, sign: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Fold phases ``t`` in turns in place: to [-1/2, 1/2] by subtracting the
    nearest integer, then to the nearest half turn: with q = rint(2t) in
    {-1, 0, 1}, ``t`` becomes u = t - q/2 in [-1/4, 1/4] (each step exact, the
    second by Sterbenz's lemma), ``sign`` gets 1 - 2q^2 and ``x`` gets u^2, so
    that cos 2 pi t = sign C(x) and sin 2 pi t = sign u S(x).  Returns ``sign``."""
    t -= np.rint(t, out=sign)
    half = np.rint(np.multiply(t, 2.0, out=sign), out=sign)
    half *= 0.5
    t -= half
    np.square(half, out=sign)  # q^2 / 4
    sign *= -8.0
    sign += 1.0
    np.square(t, out=x)
    return sign


def _poly(x: np.ndarray, coeffs: tuple[float, ...], out: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] x^k by Horner's rule, written into ``out`` (not ``x``)."""
    np.multiply(x, coeffs[-1], out=out)
    out += coeffs[-2]
    for coeff in coeffs[-3::-1]:
        out *= x
        out += coeff
    return out


def _irs_sum(cfg: ScenarioConfig) -> float:
    """Sum of the element amplitudes in sqrt-mW (0.0 with no reflector), over
    slices of ``BLOCK_PATHS`` elements whose coordinates are made one slice at
    a time, so that memory is flat in k."""
    _check_path_lengths(cfg)  # _bs_side and _uav_side check nothing
    total, center = 0.0, cfg.irs_center
    for first in range(0, cfg.k, BLOCK_PATHS):
        y, z = element_positions(cfg.irs_rows, cfg.irs_cols, cfg.element_pitch_m, center, first, BLOCK_PATHS)
        d1, gain, s, amps, scratch = np.empty((5,) + y.shape)
        _bs_side(cfg, center.x, y, z, d1, gain, (s, amps))
        _uav_side(cfg, y, z, d1, gain, cfg.pl_irs_db, (s, amps, scratch))
        total += float(np.sum(amps))
    return total


def _patch(cfg: ScenarioConfig) -> tuple[float, float, float, float]:
    """What the scatter points depend on: the patch's centre y and z and half sizes."""
    c = cfg.irs_center
    return c.y, c.z, cfg.patch_half_width_y, cfg.patch_half_height_z


def _scatter_matrix(cfg: ScenarioConfig, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Map the planes u (2, ..., n_rays) of position uniforms, the y draws then
    the z draws, to the (y, z) planes of points on the patch, written into
    ``out`` when it is given (``u`` itself maps in place)."""
    c = cfg.irs_center
    planes = np.empty(u.shape) if out is None else out
    for axis, centre, half in ((0, c.y, cfg.patch_half_width_y), (1, c.z, cfg.patch_half_height_z)):
        coord = np.multiply(u[axis], 2.0, out=planes[axis])  # c + (2u - 1) * half
        coord -= 1.0
        coord *= half
        coord += centre
    return planes


def _block_firsts(mc: MonteCarloConfig) -> range:
    """The first run of each run block; the step, max(1, BLOCK_PATHS // n_rays), is the block size."""
    return range(0, mc.n_runs, max(1, BLOCK_PATHS // mc.n_rays))


def _draw_block(mc: MonteCarloConfig, first: int, out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Draw the block of runs from ``first`` into ``out``, planes of shape
    (runs, n_rays): the y and the z plane of the position uniforms and, in
    uniform mode, cos 2 pi t and sin 2 pi t of the ray phase draws t (draws
    2 n_rays .. 3 n_rays - 1 of each run).  ``work`` is two scratch planes."""
    n_rays = mc.n_rays
    seeds = rng.run_seeds(mc.master_seed, out.shape[1], first)
    rng.uniform_block(seeds, 2 * n_rays, out=out[:2], scratch=work.view(np.uint64), planes=2)
    if mc.ray_phases == RAY_PHASES_UNIFORM:
        cos, sin = out[2:]
        rng.uniform_block(seeds, n_rays, 2 * n_rays, out=cos, scratch=work[0].view(np.uint64))
        sign, x = _fold(cos, work[0], work[1]), work[1]
        np.multiply(np.multiply(_poly(x, _SIN_TURNS, out=sin), cos, out=sin), sign, out=sin)
        np.multiply(_poly(x, _COS_TURNS, out=cos), sign, out=cos)
    return out


class KeptPlanes(NamedTuple):
    """One search's {first run: read-only planes} of its first ``_KEPT_BLOCKS``
    run blocks, for batches that share ``mc`` and ``patch`` (module docstring)."""

    mc: MonteCarloConfig
    patch: tuple[float, float, float, float]
    blocks: dict[int, np.ndarray]


def kept_planes(cfg: ScenarioConfig, mc: MonteCarloConfig) -> KeptPlanes:
    """The KeptPlanes of ``cfg``'s patch under ``mc``, drawn and mapped on this thread."""
    firsts = _block_firsts(mc)[:_KEPT_BLOCKS] if mc.n_rays else range(0)  # no rays, nothing to draw
    work, blocks = np.empty((2, firsts.step * mc.n_rays)), {}
    for first in firsts:
        shape = (min(firsts.step, mc.n_runs - first), mc.n_rays)
        entry = np.empty((4 if mc.ray_phases == RAY_PHASES_UNIFORM else 2,) + shape)
        _draw_block(mc, first, entry, _flat(work, (2,) + shape))
        _scatter_matrix(cfg, entry[:2], out=entry[:2])
        entry.flags.writeable = False
        blocks[first] = entry
    return KeptPlanes(mc, _patch(cfg), blocks)


def wall_power_estimates(cfgs: list[ScenarioConfig], mc: MonteCarloConfig,
                         kept: KeptPlanes | None = None) -> list[WallEstimate]:
    """Mean and standard error of the baseline received power over ``n_runs``
    at each of ``cfgs`` with the same Monte Carlo controls, in one pass over
    the run blocks, each with the LoS amplitude its mean includes.  The blocks
    run on this thread, or on up to ``mc.threads`` threads of the kept pool;
    they are merged here in run order either way, so ``threads`` moves no bit.
    With ``kept``, whose key every point must share, the blocks it holds read
    their scatter points from it."""
    scene = []  # per point: cfg, LoS amplitude and phasor, sharing keys
    for cfg in cfgs:
        _check_path_lengths(cfg)
        a0, phi0 = _los_amp_phase(cfg)
        c, patch = cfg.irs_center, _patch(cfg)
        bs_side = (patch, cfg.bs, c.x, cfg.theta_etilt_deg, cfg.theta3db_deg, cfg.sla_db, cfg.p_t_dbm)
        scene.append((cfg, a0, a0 * math.cos(phi0), a0 * math.sin(phi0), patch, bs_side))
    if kept is not None and (mc != kept.mc or any(point[4] != kept.patch for point in scene)):
        raise InvalidParameterError("a batch that reads kept scatter planes needs their Monte Carlo controls and patch")
    if not scene or mc.n_rays == 0:
        return [WallEstimate(a0 * a0, 0.0, 0.0, a0) for _, a0, *_ in scene]

    firsts = _block_firsts(mc)
    count, stats = 0, [[0.0, 0.0, 0.0] for _ in scene]  # per point: mean, M2, sum of |ray sum|
    blocks = partial(_wall_block, scene, mc, firsts.step, kept)
    for n, block_stats in _pool_map(blocks, firsts, mc.threads):
        count += n
        for acc, (block_mean, block_m2, refl) in zip(stats, block_stats):
            # Chan et al.: merge this block's (n, mean, M2) into the point's running one
            acc[2] += refl
            delta = block_mean - acc[0]
            acc[0] += delta * (n / count)
            acc[1] += block_m2 + delta * delta * ((count - n) * n / count)

    return [WallEstimate(mean, math.sqrt(m2 / (count - 1)) / math.sqrt(count) if count > 1 else 0.0, refl / count, a0)
            for (mean, m2, refl), (_, a0, *_) in zip(stats, scene)]


def _check_path_lengths(cfg: ScenarioConfig) -> None:
    """The one check of a point's paths, before any budget: OverflowError if a
    length (the LoS d, a reflected d1 + d2) can overflow, DegenerateGeometryError
    if one can be 0 (the BS at the UAV, or either on the patch).  Each element
    and scatter coordinate lies in [c - half, c + half] per axis (the lattice's
    extremes bit for bit, as (cols-1)*pitch/2 and ((cols-1)/2)*pitch round one
    real once; below 2^-1022 they may differ by a step whose square is 0), and
    differences, squares, sums and sqrt round monotonically, so a leg's values
    at the patch's farthest and nearest offsets per axis, in the kernel's
    operation order, bound it at every point."""
    bs, uav, c = cfg.bs, cfg.uav, cfg.irs_center
    patch = ((c.y - cfg.patch_half_width_y, c.y + cfg.patch_half_width_y),
             (c.z - cfg.patch_half_height_z, c.z + cfg.patch_half_height_z))

    def legs(end, dx, box):  # the longest and the shortest length from end to a (y, z) box dx away in x
        far, near = zip(*((max(abs(lo - e), abs(hi - e)), max(lo - e, e - hi, 0.0))
                          for e, (lo, hi) in zip((end.y, end.z), box)))
        return [math.sqrt((dy * dy + dx * dx) + dz * dz) for dy, dz in (far, near)]

    los, _ = legs(bs, uav.x - bs.x, ((uav.y, uav.y), (uav.z, uav.z)))  # the UAV, a box of no size
    (d1_max, d1_min), (d2_max, d2_min) = legs(bs, c.x - bs.x, patch), legs(uav, uav.x - c.x, patch)
    if not math.isfinite(max(los, d1_max + d2_max)):
        raise OverflowError("a path length overflows")
    if not (los and d1_min):  # 0, or a square that underflows to 0
        raise DegenerateGeometryError("BS and UAV coincide" if bs == uav else "a path point coincides with the BS")
    if not d2_min:
        raise DegenerateGeometryError("the UAV coincides with the reflector patch")


@lru_cache(maxsize=1)
def _kept_pool(threads: int) -> ThreadPoolExecutor:
    """The pool of at most ``threads`` threads, kept until a call asks for another
    count; a dropped pool finishes the tasks it holds, and its idle threads exit
    once it is garbage."""
    return ThreadPoolExecutor(max_workers=threads)


def _pool_map(fn, firsts: range, threads: int):
    """Yield fn(first) for each first in order: on this thread when workers =
    min(threads, len(firsts)) is 1, else as tasks of the kept pool of
    ``threads`` threads (which starts no more threads than tasks), at most
    2 * workers of them submitted and not yet yielded, so memory is flat in n_runs."""
    workers = min(threads, len(firsts))
    if workers <= 1:
        yield from map(fn, firsts)
        return
    pool = _kept_pool(threads)
    pending: collections.deque = collections.deque()
    try:
        for first in firsts:
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
            # each task runs in a copy of the caller's context (numpy error state)
            pending.append(pool.submit(contextvars.copy_context().run, fn, first))
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:  # after an error, drop what has not started
            future.cancel()


def _wall_block(scene: list, mc: MonteCarloConfig, block: int, kept: KeptPlanes | None,
                first: int) -> tuple[int, list]:
    """Runs first .. first+n-1 (n = min(block, n_runs - first)) at every point
    of ``scene``, in this thread's workspace: (n, per point (block mean, block
    M2, block sum of |ray sum|)).  The result depends only on the arguments
    (a kept entry holds what the block would draw and map)."""
    n = min(block, mc.n_runs - first)
    uniform = mc.ray_phases == RAY_PHASES_UNIFORM
    shape = (n, mc.n_rays)
    ws = _workspace(max(BLOCK_PATHS, mc.n_rays))  # >= block * n_rays
    budget = ws[_BUDGET]
    inputs = None if kept is None else kept.blocks.get(first)
    mapped = None if inputs is None else kept.patch  # a kept entry is mapped for its patch
    if inputs is None:  # drawn here, mapped into the point rows per patch
        inputs = _draw_block(mc, first, _flat(ws[_INPUTS], (4 if uniform else 2,) + shape), _flat(budget, (2,) + shape))
    planes = inputs[:2]
    d1, gain, s, x, amps, p = (_flat(row, shape) for row in budget)
    im, re, mag, im2 = np.empty((4, n))  # run-sized, so not in the workspace
    points = _flat(ws[_POINTS], (2,) + shape)
    computed = None  # the key d1 and gain were made for
    stats = []
    for cfg, _, los_re, los_im, patch, bs_side in scene:
        if patch != mapped:
            planes = _scatter_matrix(cfg, inputs[:2], out=points)
            mapped = patch
        y, z = planes
        if bs_side != computed:  # the key holds the patch too; the scratch rows are the UAV half's
            _bs_side(cfg, cfg.irs_center.x, y, z, d1, gain, (s, amps))
            computed = bs_side
        _uav_side(cfg, y, z, d1, gain, cfg.pl_wall_db, (s, amps, x))
        if uniform:
            cos, sin = inputs[2:]
        else:  # -d / lambda turns, folded in place; the sign in row p, then sin there and cos in row s
            s /= -wavelength_m(cfg.f_ghz)
            amps *= _fold(s, p, x)
            sin = np.multiply(_poly(x, _SIN_TURNS, out=p), s, out=p)
            cos = _poly(x, _COS_TURNS, out=s)
        np.einsum("ij,ij->i", amps, sin, out=im)
        np.einsum("ij,ij->i", amps, cos, out=re)
        np.square(re, out=mag)  # sqrt(re^2 + im^2): numpy's SIMD sqrt, not libm's hypot
        mag += np.square(im, out=im2)
        refl = float(np.sum(np.sqrt(mag, out=mag)))
        re += los_re
        im += los_im
        power = np.add(np.square(re, out=re), np.square(im, out=im), out=re)
        block_mean = float(np.mean(power))
        power -= block_mean
        stats.append((block_mean, float(np.sum(np.square(power, out=power))), refl))
    return n, stats


def irs_gain(cfg: ScenarioConfig, mc: MonteCarloConfig, wall: WallEstimate | None = None) -> GainResult:
    """Full gain evaluation at one scenario point; ``wall`` is its baseline
    estimate when a batch (``wall_power_estimates``) has already made it."""
    if wall is None:
        wall = wall_power_estimates([cfg], mc)[0]
    a0 = wall.los_amplitude
    irs_sum = _irs_sum(cfg)
    gamma = a0 + irs_sum
    if wall.mean_power_mw == 0.0:
        raise FloatingPointError("zero received power: the mean wall power is 0 mW")
    ratio = gamma * gamma / wall.mean_power_mw
    if ratio == 0.0:
        raise FloatingPointError(f"zero received power: gamma_irs^2 = {gamma * gamma:g} mW "
                                 f"against a mean wall power of {wall.mean_power_mw:g} mW")
    gain_db = 10.0 * math.log10(ratio)
    se_db = 10.0 / math.log(10.0) * wall.std_error_mw / wall.mean_power_mw
    return GainResult(
        gain_db=gain_db,
        std_error_db=se_db,
        gamma_irs=gamma,
        los_amplitude=a0,
        irs_sum_amplitude=irs_sum,
        mean_wall_reflection_amplitude=wall.mean_reflection_amplitude,
        mean_wall_power_mw=wall.mean_power_mw,
    )
