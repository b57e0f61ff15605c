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

A ray's phase t is taken in turns, -d/lambda or its phase uniform, and
reduced to [-1/2, 1/2] by subtracting its nearest integer (exact in floating
point).  Its cos and sin are made from numpy's multiply, add and rint alone,
which round correctly on every SIMD target, so unlike libm's cos and sin they
give the same bits everywhere.  ``_quarter_turn`` folds t to the nearest half
turn: q = rint(2t) in {-1, 0, 1} and u = t - q/2 in [-1/4, 1/4], exact
(Sterbenz).  Then cos 2 pi t = (1 - 2q^2) C(u^2) and sin 2 pi t =
(1 - 2q^2) u S(u^2), where C and S are degree-8 polynomials (``_COS_TURNS``,
``_SIN_TURNS``) with 2 pi folded into their coefficients, within 3.3e-16 of
the exact values.  In uniform mode the block's cos and sin are made once, in
place in the two phase rows.  In geometric mode they are made per point in
the link budget's four point rows: the path length row s turns into t and
then u, d2 holds q, then the sign 1 - 2q^2 (folded into the amplitudes in c,
so the polynomials need no sign), then u^2, and b holds u S and then C.  Each
per-run phasor sum, the amplitudes times a sin or cos row summed over a run's
rays, is one ``einsum("ij,ij->i")`` contraction, with no product row written;
einsum gives the same bits on every SIMD target.  Amplitudes 10^(p/20) are
computed as exp(p ln(10)/20).

One link budget serves every path.  Its functions take the config alone and
read each of its placement properties (``ScenarioConfig.bs``, ``uav``,
``irs_center``, the patch half sizes) at most once per call.  Its BS half
(``_bs_side``: d1 and p_t + G(angle)) takes the plane x of its points: the
wall plane for the reflector elements and the wall rays, to which the UAV
half (``_uav_side``) adds PL_NLoS(d1 + d2) and the reflection loss, and the
UAV's own plane for the LoS, evaluated as a one-point array, to which
``_los_amp_phase`` adds PL_LoS(d).  The scalar forms of the distance and the
angle live only in the tests' scalar reference.  Before any budget of a
point runs, one scalar check (``_check_path_lengths``) bounds the LoS length
and, at the patch corners, every reflected path length, so an overflowing
path is named, not computed.

The BS-to-point angle needs the horizontal distance sqrt(dx^2 + dy^2): it is
the root of the partial sum from which d1 = sqrt((dy^2 + dx^2) + dz^2) is
built, and the angle goes to degrees by one multiply by 180/pi, so neither
libm's hypot nor np.degrees (each several times slower than numpy's SIMD
sqrt and multiply) runs per path.  A run's ``|sum of rays|`` is likewise
sqrt(re^2 + im^2).

Runs are evaluated in blocks of ``max(1, _CHUNK_PATHS // n_rays)``
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
bits do not depend on its neighbours in the batch.  Every array of a block's
size lives in one workspace per thread (12 rows of 2**15 float64, 3 MiB:
2 draw rows of position uniforms, a y and a z plane, 2 of phase uniforms and
their sin, 6 of link budget and 2 point rows of scatter points, mapped from
the draw rows per patch), made by the thread's first call and reused by
every later block and call, so memory is flat in the batch size as well; a
point keeps only scalars.  The arrays are written with numpy's ``out=``, in
the same operation order as the plain expressions, so the bits are those of
the allocating form.  Each block reduces a point's powers to (count, mean, sum
of squared deviations) and its ``|sum of rays|`` to a sum; the blocks are
merged into that point's accumulators in run order with Chan et al.'s
pairwise update.  A block is a pure function of the batch, the controls and
its first run (``_wall_block``), so at ``threads`` > 1 the blocks are the
tasks of the kept pool of ``threads`` threads (its threads keep their
workspaces); they are still merged on the calling thread, in run order.  The
block size is a constant, so the merge order, and with it every bit of the
result, depends only on the configs.

A placement search evaluates many batches with the same controls and patch
(L moves only the wall plane x), so every batch would draw and map the same
scatter points.  A ``KeptPlanes``, keyed on the MonteCarloConfig and the
patch and owned by one search (``cmd_optimize --refine``, else
``optimal_distance``), holds the mapped planes of the first
``_KEPT_BLOCKS`` = 8 run blocks (at most 4 MiB).  The first batch to reach
such a block draws its positions into a new entry, maps them there in place
and publishes the entry, read-only, only once it is complete, so an error
leaves no partial entry; every later batch reads it and writes neither the
draw nor the point rows.  Blocks past the 8 are drawn per batch, so memory
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


def dbm_to_amplitude(p_dbm):
    """sqrt of the linear power: sqrt(10^(p/10)) = exp(p ln(10)/20) mW^0.5, a
    float for a scalar, else an array."""
    if np.ndim(p_dbm) == 0:
        return math.exp(p_dbm * _DB_TO_LN_AMPLITUDE)
    return np.exp(np.multiply(p_dbm, _DB_TO_LN_AMPLITUDE))


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
    if cfg.bs == uav:
        raise DegenerateGeometryError("BS and UAV coincide")
    d1, gain, b, c = np.empty((4, 1))
    _bs_side(cfg, uav.x, np.array([uav.y]), np.array([uav.z]), d1, gain, (b, c))
    d = float(d1[0])
    return dbm_to_amplitude(float(gain[0]) - pl_los(d, cfg)), (-TWO_PI * d / wavelength_m(cfg.f_ghz)) % TWO_PI


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
    np.square(np.subtract(z, bs.z, out=b), out=b)
    d1 += b
    np.sqrt(d1, out=d1)
    if not d1.all():
        raise DegenerateGeometryError("a path point coincides with the BS")
    # the angle in degrees by one multiply, the same bits as np.degrees at a
    # fifth of its time
    theta = np.multiply(np.arctan2(np.subtract(bs.z, z, out=b), c, out=b), _RAD_TO_DEG, out=b)
    vertical_gain(theta, cfg, out=gain, scratch=theta)
    gain += cfg.p_t_dbm


def _uav_side(cfg: ScenarioConfig, y, z, d1, gain, reflection_loss_db: float, work):
    """The UAV half of the budget, given the BS half (``d1``, ``gain``) of the
    same points: PL_NLoS(d1 + d2) and the reflection loss off ``gain``.
    ``work`` is four arrays of the points' shape; the results are its last two.

    Returns (amplitudes, path_lengths).
    """
    d2, b, s, amps = work
    uav = cfg.uav
    dx2 = uav.x - cfg.irs_center.x
    np.square(np.subtract(uav.y, y, out=d2), out=d2)
    d2 += dx2 * dx2
    np.square(np.subtract(uav.z, z, out=b), out=b)
    d2 += b
    np.sqrt(d2, out=d2)
    if not d2.all():
        raise DegenerateGeometryError("reflection point coincides with BS or UAV")
    np.add(d1, d2, out=s)
    np.subtract(gain, pl_nlos(s, uav.z, cfg, out=amps, scratch=b), out=amps)
    amps -= reflection_loss_db
    np.exp(np.multiply(amps, _DB_TO_LN_AMPLITUDE, out=amps), out=amps)  # dbm_to_amplitude
    return amps, s


# Paths per link-budget call (elements, or wall runs x rays): big enough to
# amortise numpy's per-call cost, small enough that one block's work arrays
# stay in cache.  MonteCarloConfig bounds n_rays by it, so a block never
# exceeds it.
_CHUNK_PATHS = BLOCK_PATHS

# Rows of a thread's wall-kernel workspace, each one block of paths long:
# the draw rows (the position uniforms, a y plane and a z plane), the phase
# rows (uniform mode only: the phase uniforms, then their cos in place and
# their sin beside them), the link budget's rows (d1 and the BS-side gain,
# then four per-point rows d2, b, s and c, the first two of which are also the
# generator's scratch and the uniform phasor stage's) and the point rows (the
# scatter points' y and z planes, mapped from the draw rows per patch).  A
# block whose planes a KeptPlanes holds writes neither the draw nor the point
# rows.  The workspace is per thread, not passed in, so that every thread that
# runs blocks (the caller's, or a kept pool's) reuses it across blocks,
# batches and calls; its contents never outlive one block.
_BUDGET_ROWS = 6
_DRAWS, _PHASES, _BUDGET, _POINTS = slice(0, 2), slice(2, 4), slice(4, 10), slice(10, 12)
_local = threading.local()

# Run blocks whose scatter planes a KeptPlanes holds: 8 full blocks of two
# planes of 2**15 float64 each, 4 MiB
_KEPT_BLOCKS = 8

# a call starts up to min(threads, blocks) pool threads, so a large threads on
# a large n_runs would ask the OS for that many threads
_MAX_THREADS = 256


def check_threads(threads: int) -> None:
    """The one rule for a thread count: 1 .. 256."""
    if not 1 <= threads <= _MAX_THREADS:
        raise InvalidParameterError(f"threads must be in 1..{_MAX_THREADS}, got {threads}")


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


def _quarter_turn(t: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """Fold phases ``t`` in turns, in [-1/2, 1/2], to the nearest half turn:
    with q = rint(2t) in {-1, 0, 1}, ``t`` becomes u = t - q/2 in [-1/4, 1/4]
    in place (exact by Sterbenz's lemma) and ``sign`` gets 1 - 2q^2, so that
    cos 2 pi t = sign C(u^2) and sin 2 pi t = sign u S(u^2).  Returns ``sign``."""
    half = np.rint(np.add(t, t, out=sign), out=sign)
    half *= 0.5
    t -= half
    np.square(half, out=sign)  # q^2 / 4
    sign *= -8.0
    sign += 1.0
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
    slices of ``_CHUNK_PATHS`` elements whose coordinates are made one slice at
    a time, so that memory is flat in k."""
    total, center = 0.0, cfg.irs_center
    for first in range(0, cfg.k, _CHUNK_PATHS):
        y, z = element_positions(cfg.irs_rows, cfg.irs_cols, cfg.element_pitch_m, center, first, _CHUNK_PATHS)
        d1, gain, d2, b, s, c = np.empty((_BUDGET_ROWS,) + y.shape)
        _bs_side(cfg, center.x, y, z, d1, gain, (b, c))
        amps, _ = _uav_side(cfg, y, z, d1, gain, cfg.pl_irs_db, (d2, b, s, c))
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


class KeptPlanes:
    """The mapped scatter planes of the first ``_KEPT_BLOCKS`` run blocks, for
    every batch of one search whose points share ``mc`` and ``cfg``'s patch
    (see the module docstring).  It holds its entries as long as it lives."""

    def __init__(self, cfg: ScenarioConfig, mc: MonteCarloConfig):
        self.mc, self.patch, self._cfg = mc, _patch(cfg), cfg
        self._blocks: dict[int, np.ndarray] = {}  # first run -> (y, z) planes (2, runs, n_rays)

    def planes(self, seeds: np.ndarray, first: int, block: int, scratch: np.ndarray) -> np.ndarray | None:
        """The (y, z) planes of the block of ``block`` runs from ``first`` (run
        seeds ``seeds``), made now if this is the block's first use; None past
        the budget.  ``scratch`` is the generator's."""
        entry = self._blocks.get(first)
        if entry is None and first < _KEPT_BLOCKS * block:
            u = rng.uniform_block(seeds, 2 * self.mc.n_rays, scratch=scratch, planes=2)
            entry = _scatter_matrix(self._cfg, u, out=u)
            entry.flags.writeable = False
            # published only once complete; batches that reach the block at
            # once each make it, and their entries are equal
            self._blocks[first] = entry
        return entry


def wall_power_estimates(cfgs: list[ScenarioConfig], mc: MonteCarloConfig, threads: int = 1,
                         kept: KeptPlanes | None = None) -> list[WallEstimate]:
    """Mean and standard error of the baseline received power over ``n_runs``
    at each of ``cfgs`` with the same Monte Carlo controls, in one pass over
    the run blocks, each with the LoS amplitude its mean includes.  The blocks
    run on this thread, or on up to ``threads`` threads of the kept pool; they
    are merged here in run order either way, so ``threads`` moves no bit.
    With ``kept``, whose key every point must share, the blocks it holds read
    their scatter points from it."""
    check_threads(threads)
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

    block = max(1, _CHUNK_PATHS // mc.n_rays)
    count, stats = 0, [[0.0, 0.0, 0.0] for _ in scene]  # per point: mean, M2, sum of |ray sum|
    blocks = partial(_wall_block, scene, mc, block, kept)
    for n, block_stats in _pool_map(blocks, range(0, mc.n_runs, block), threads):
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
    """Raise OverflowError when a path length can overflow: the LoS d or a
    reflected path's d1 + d2.  Every element and scatter point lies in the
    patch, where each squared coordinate difference, and so d1 + d2, is
    largest at one of its corners: one scalar check, in the kernel's operation
    order, covers every path of the point."""
    bs, uav, c = cfg.bs, cfg.uav, cfg.irs_center
    half_w, half_h = cfg.patch_half_width_y, cfg.patch_half_height_z
    patch = ((c.y - half_w, c.y + half_w), (c.z - half_h, c.z + half_h))

    def longest(end, dx, ys, zs):
        dy, dz = max(abs(y - end.y) for y in ys), max(abs(z - end.z) for z in zs)
        return math.sqrt((dy * dy + dx * dx) + dz * dz)

    los = longest(bs, uav.x - bs.x, (uav.y,), (uav.z,))
    if not math.isfinite(max(los, longest(bs, c.x - bs.x, *patch) + longest(uav, uav.x - c.x, *patch))):
        raise OverflowError("a path length overflows")


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
    n_pos = 2 * mc.n_rays
    shape = (n, mc.n_rays)
    ws = _workspace(max(_CHUNK_PATHS, mc.n_rays))  # >= block * n_rays
    seeds = rng.run_seeds(mc.master_seed, n, first)
    scratch = _flat(ws[_BUDGET], (2,) + shape).view(np.uint64)
    planes = None if kept is None else kept.planes(seeds, first, block, scratch)
    mapped = None if planes is None else kept.patch  # the patch the scatter points were mapped for
    if planes is None:  # drawn here, mapped into the point rows per patch
        draws = rng.uniform_block(seeds, n_pos, out=_flat(ws[_DRAWS], (2,) + shape), scratch=scratch, planes=2)
    d1, gain, d2, b, s, c = (_flat(row, shape) for row in ws[_BUDGET])
    if uniform:  # the ray phases do not depend on the point
        cos, sin = (_flat(row, shape) for row in ws[_PHASES])
        rng.uniform_block(seeds, mc.n_rays, n_pos, out=cos, scratch=d1.view(np.uint64))
        cos -= np.rint(cos, out=sin)  # turns, to [-1/2, 1/2] (exact)
        sign = _quarter_turn(cos, d2)
        x = np.square(cos, out=b)
        np.multiply(np.multiply(_poly(x, _SIN_TURNS, out=sin), cos, out=sin), sign, out=sin)
        np.multiply(_poly(x, _COS_TURNS, out=cos), sign, out=cos)
    points = _flat(ws[_POINTS], (2,) + shape)
    computed = None  # the key d1 and gain were made for
    stats = []
    for cfg, _, los_re, los_im, patch, bs_side in scene:
        if patch != mapped:
            planes = _scatter_matrix(cfg, draws, out=points)
            mapped = patch
        y, z = planes
        if bs_side != computed:  # the key holds the patch too
            _bs_side(cfg, cfg.irs_center.x, y, z, d1, gain, (b, c))
            computed = bs_side
        amps, turns = _uav_side(cfg, y, z, d1, gain, cfg.pl_wall_db, (d2, b, s, c))
        # each run sum is one einsum contraction into the leading elements of a
        # row that is dead by then: im to s, re to d2; |ray sum| goes to b, with
        # the amplitude row c (dead after the sums) as its scratch
        re, im, mag, im2 = (_flat(row, (n,)) for row in (d2, s, b, c))
        if uniform:
            np.einsum("ij,ij->i", amps, sin, out=im)
            np.einsum("ij,ij->i", amps, cos, out=re)
        else:  # -d / lambda turns, to [-1/2, 1/2] (exact), in place
            turns /= -wavelength_m(cfg.f_ghz)
            turns -= np.rint(turns, out=d2)
            amps *= _quarter_turn(turns, d2)
            x = np.square(turns, out=d2)
            np.einsum("ij,ij->i", np.multiply(_poly(x, _SIN_TURNS, out=b), turns, out=b), amps, out=im)
            np.einsum("ij,ij->i", _poly(x, _COS_TURNS, out=b), amps, out=re)
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
