import itertools
import math
import sys
import threading
import tracemalloc
from dataclasses import fields, replace
from fractions import Fraction
from functools import partial
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irslink import cli, simulator
from irslink.errors import DegenerateGeometryError, InvalidParameterError
from irslink.experiments import SweepSpec, default_h_uav_grid, run_sweep
from irslink.propagation import NLOS_BREAKPOINT_HEIGHT_M, pl_nlos, vertical_gain
from irslink.rng import run_seeds, uniform_block
from irslink.scenario import SPEED_OF_LIGHT, MonteCarloConfig, Position3D, ScenarioConfig, element_positions
from irslink.simulator import irs_gain, wall_power_estimates
from scalar_reference import (
    PHASE_GEOMETRIC,
    ChannelCoefficient,
    CounterStream,
    ReflectionParams,
    combine,
    distance,
    element_coefficient,
    los_coefficient,
    run_seed,
    sample_scatter_points,
    scene,
    wall_ray_coefficient,
)

CFG = ScenarioConfig()
REFL = ReflectionParams(CFG.pl_irs_db, CFG.pl_wall_db)
TWO_PI = 2.0 * math.pi


def mc(runs=200, rays=20, seed=42, phases="geometric"):
    return MonteCarloConfig(n_runs=runs, n_rays=rays, master_seed=seed, ray_phases=phases)


def gamma_irs(cfg):
    """The deterministic reflector amplitude, LoS plus every element."""
    return irs_gain(cfg, mc(runs=1)).gamma_irs


def lattice_slice(cfg, n):
    """The (y, z) of cfg's first n reflector elements."""
    return element_positions(cfg.irs_rows, cfg.irs_cols, cfg.element_pitch_m, cfg.irs_center, 0, n)


def pin_scatter_points(monkeypatch, y, z):
    """Make every Monte Carlo run use the same scatter points (y[i], z[i])."""
    fixed = np.stack((y, z))[:, None, :]
    monkeypatch.setattr(
        simulator, "_scatter_matrix", lambda cfg, u, out=None: np.broadcast_to(fixed, u.shape)
    )


def reflected_budget(cfg, y, z, reflection_loss_db):
    """(amplitudes, path lengths) of the reflected paths through the wall-plane
    points (y, z), from the kernel's BS and UAV halves."""
    d1, gain, s, amps, scratch = np.empty((5,) + y.shape)
    simulator._bs_side(cfg, cfg.irs_center.x, y, z, d1, gain, (s, amps))
    return simulator._uav_side(cfg, y, z, d1, gain, reflection_loss_db, (s, amps, scratch))


def one_shot_estimate(cfg, config):
    """The wall estimate over every run at once: the (n_runs, n_rays) arrays,
    complex phasors, |z|**2 and numpy's mean and std on the whole array."""
    n, rays = config.n_runs, config.n_rays
    a0, phi0 = simulator._los_amp_phase(cfg)
    seeds = run_seeds(config.master_seed, n)
    y, z = simulator._scatter_matrix(cfg, uniform_block(seeds, 2 * rays, planes=2))
    amps, path_len = reflected_budget(cfg, y, z, cfg.pl_wall_db)
    if config.ray_phases == "uniform":
        phases = TWO_PI * uniform_block(seeds, rays, first_draw=2 * rays)
    else:
        phases = (-TWO_PI * path_len / simulator.wavelength_m(cfg.f_ghz)) % TWO_PI
    ray_sum = np.sum(amps * np.exp(1j * phases), axis=1)
    powers = np.abs(a0 * np.exp(1j * phi0) + ray_sum) ** 2
    return np.mean(powers), np.std(powers, ddof=1) / math.sqrt(n), np.mean(np.abs(ray_sum))


def per_run_reference_powers(cfg, config):
    """Each run's baseline power re-derived with the scalar channel chain and
    the documented draw layout: 2 position draws per ray, then one phase draw
    per ray in uniform mode."""
    geom = scene(cfg)
    refl = ReflectionParams(cfg.pl_irs_db, cfg.pl_wall_db)
    los = los_coefficient(geom, cfg, cfg, cfg.p_t_dbm)
    powers = []
    for r in range(config.n_runs):
        stream = CounterStream(run_seed(config.master_seed, r))
        pts = sample_scatter_points(geom, config.n_rays, stream)
        rays = [wall_ray_coefficient(p, geom, cfg, cfg, cfg.p_t_dbm, refl) for p in pts]
        if config.ray_phases == "uniform":
            u = stream.uniforms(config.n_rays)
            rays = [ChannelCoefficient(c.amplitude, float(TWO_PI * ui) % TWO_PI) for c, ui in zip(rays, u)]
        powers.append(combine([los] + rays) ** 2)
    return powers


def turns_vs_radians_rel(cfg):
    """How far the mean wall power may move between the two reductions of a
    geometric phase: the scalar reference takes (-2 pi d / lambda) % 2 pi in
    radians, the library -d / lambda in turns.  Each rounds the phase of a path
    d long by about (d / lambda) eps turns, which moves a power by up to twice
    that in radians, relative: 4 pi (d / lambda) eps for the longest path.  A
    path's length is convex on the patch, so the longest one ends at a corner."""
    geom = scene(cfg)
    c, hy, hz = geom.irs_center, geom.patch_half_width_y, geom.patch_half_height_z
    corners = [Position3D(c.x, c.y + sy * hy, c.z + sz * hz) for sy in (-1, 1) for sz in (-1, 1)]
    longest = max(distance(geom.bs, p) + distance(p, geom.uav) for p in corners)
    return 4.0 * math.pi * longest / simulator.wavelength_m(cfg.f_ghz) * np.finfo(float).eps


def exact_phase_mean_power(cfg, config):
    """The mean baseline power with every phase reduced exactly: the kernel's
    own float path lengths (and uniforms) taken to turns as ``Fraction``s,
    reduced modulo one turn, and only then rounded to float for cos and sin.
    The LoS path is reduced the same way."""
    n, rays = config.n_runs, config.n_rays
    geom = scene(cfg)
    lam = Fraction(simulator.wavelength_m(cfg.f_ghz))

    def phasor(turns):  # exp(2 pi i turns)
        phase = TWO_PI * float(turns - math.floor(turns))
        return complex(math.cos(phase), math.sin(phase))

    a0, _ = simulator._los_amp_phase(cfg)
    los = a0 * phasor(-Fraction(distance(geom.bs, geom.uav)) / lam)
    seeds = run_seeds(config.master_seed, n)
    y, z = simulator._scatter_matrix(cfg, uniform_block(seeds, 2 * rays, planes=2))
    amps, path_len = reflected_budget(cfg, y, z, cfg.pl_wall_db)
    if config.ray_phases == "uniform":
        turns = [[Fraction(u) for u in row] for row in uniform_block(seeds, rays, first_draw=2 * rays).tolist()]
    else:
        turns = [[-Fraction(d) / lam for d in row] for row in path_len.tolist()]
    powers = [abs(los + sum(a * phasor(t) for a, t in zip(run_amps, run_turns))) ** 2
              for run_amps, run_turns in zip(amps.tolist(), turns)]
    return math.fsum(powers) / n


def vector_form_budget(cfg, points, reflection_loss_db):
    """The link budget as (..., 3) difference vectors reduced by numpy's
    length-3 sum: the form the per-coordinate kernel must match bit for bit."""
    bs = np.array([cfg.bs.x, cfg.bs.y, cfg.bs.z])
    uav = np.array([cfg.uav.x, cfg.uav.y, cfg.uav.z])
    v1 = points - bs
    v2 = uav - points
    d1 = np.sqrt(np.sum(v1 * v1, axis=-1))
    d2 = np.sqrt(np.sum(v2 * v2, axis=-1))
    theta = np.degrees(np.arctan2(bs[2] - points[..., 2], np.sqrt(v1[..., 1] * v1[..., 1] + v1[..., 0] * v1[..., 0])))
    p_rx = (
        cfg.p_t_dbm
        + vertical_gain(theta, cfg)
        - pl_nlos(d1 + d2, cfg.uav.z, cfg)
        - reflection_loss_db
    )
    return simulator.dbm_to_amplitude(p_rx), d1 + d2


class TestLinkBudgetOracle:
    # both NLoS branches (h_uav 20 / 150), near and far wall, 2 and 28 GHz,
    # a strip, the default and a large lattice
    @pytest.mark.parametrize("h_uav", [20.0, 150.0])
    @pytest.mark.parametrize("l_m", [10.0, 50.0])
    @pytest.mark.parametrize("f_ghz", [2.0, 28.0])
    @pytest.mark.parametrize("rows,cols", [(1, 7), (10, 10), (40, 40)])
    def test_per_coordinate_budget_is_bit_identical_to_vector_form(self, h_uav, l_m, f_ghz, rows, cols):
        cfg = replace(CFG, h_uav_m=h_uav, l_m=l_m, f_ghz=f_ghz, irs_rows=rows, irs_cols=cols)
        seeds = run_seeds(7, 300)
        rays = simulator._scatter_matrix(cfg, uniform_block(seeds, 2 * 20, planes=2))
        for (y, z), loss in ((lattice_slice(cfg, cfg.k), cfg.pl_irs_db), (rays, cfg.pl_wall_db)):
            amps, path_len = reflected_budget(cfg, y, z, loss)
            points = np.stack((np.full_like(y, cfg.irs_center.x), y, z), axis=-1)
            ref_amps, ref_len = vector_form_budget(cfg, points, loss)
            assert amps.shape == ref_amps.shape == y.shape
            assert np.array_equal(amps, ref_amps)
            assert np.array_equal(path_len, ref_len)


class TestIrsAmplitude:
    def test_empty_lattice_rejected(self):
        # no config has zero elements, so no point is the LoS alone
        for side in ("irs_rows", "irs_cols"):
            with pytest.raises(InvalidParameterError, match=f"{side} must be in"):
                replace(CFG, **{side: 0})

    def test_matches_per_element_summation(self):
        # vectorised path against the scalar coefficient chain
        los = los_coefficient(scene(CFG), CFG, CFG, CFG.p_t_dbm)
        total = los.amplitude + sum(
            element_coefficient(k, CFG, CFG, CFG, CFG.p_t_dbm, REFL).amplitude
            for k in range(100)
        )
        assert gamma_irs(CFG) == pytest.approx(total, rel=1e-12, abs=0.0)

    def test_sum_tracks_100x_centre_element(self):
        # patch is small relative to the path lengths, so the brute-force sum
        # stays within 0.1% of 100x the centre-element amplitude
        centre = replace(CFG, irs_rows=1, irs_cols=1)
        centre_amp = element_coefficient(
            0, centre, CFG, CFG, CFG.p_t_dbm, REFL
        ).amplitude
        total = gamma_irs(CFG) - irs_gain(CFG, mc(runs=1)).los_amplitude
        assert total == pytest.approx(100.0 * centre_amp, rel=1e-3, abs=0.0)

    def test_doubling_elements_doubles_the_sum(self):
        half = gamma_irs(replace(CFG, irs_rows=5, irs_cols=10)) - irs_gain(
            replace(CFG, irs_rows=5, irs_cols=10), mc(runs=1)
        ).los_amplitude
        full = gamma_irs(CFG) - irs_gain(CFG, mc(runs=1)).los_amplitude
        assert full / half == pytest.approx(2.0, abs=1e-3)

    def test_sliced_sum_matches_one_slice(self, monkeypatch):
        whole = gamma_irs(CFG)
        monkeypatch.setattr(simulator, "BLOCK_PATHS", 7)  # 15 slices, the last holds 2 elements
        assert gamma_irs(CFG) == pytest.approx(whole, rel=1e-12, abs=0.0)

    def test_element_sum_memory_is_flat_in_k(self):
        # 4,000,000 elements: a (K, 3) lattice alone would take 92 MiB (with it
        # the peak was 183 MiB); made and summed one 2**15-element slice at a
        # time they peak at about 3.5 MiB, whatever k
        tracemalloc.start()
        try:
            irs_gain(replace(CFG, irs_rows=2000, irs_cols=2000), mc(runs=100, rays=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestWallPowerEstimate:
    def test_no_rays_is_los_power_exactly(self):
        est = wall_power_estimates([CFG], mc(runs=50, rays=0))[0]
        los = los_coefficient(scene(CFG), CFG, CFG, CFG.p_t_dbm)
        assert est.mean_power_mw == pytest.approx(los.amplitude**2, rel=1e-12, abs=0.0)
        assert est.std_error_mw == 0.0
        assert est.mean_reflection_amplitude == 0.0

    def test_zero_extent_patch_makes_runs_identical(self):
        cfg = replace(CFG, irs_rows=1, irs_cols=1)
        est = wall_power_estimates([cfg], mc(runs=100))[0]
        assert est.std_error_mw == pytest.approx(0.0, abs=1e-18)

    def test_single_run_has_zero_std_error(self):
        assert wall_power_estimates([CFG], mc(runs=1))[0].std_error_mw == 0.0

    def test_same_seed_bit_reproducible(self):
        a = wall_power_estimates([CFG], mc(runs=500))[0]
        b = wall_power_estimates([CFG], mc(runs=500))[0]
        assert a == b

    def test_different_seeds_agree_within_3_standard_errors(self):
        a = wall_power_estimates([CFG], mc(runs=4000, seed=1))[0]
        b = wall_power_estimates([CFG], mc(runs=4000, seed=2))[0]
        tol = 3.0 * math.hypot(a.std_error_mw, b.std_error_mw)
        assert abs(a.mean_power_mw - b.mean_power_mw) < tol

    def test_std_error_below_tenth_db_at_defaults(self):
        est = wall_power_estimates([CFG], MonteCarloConfig())[0]
        se_db = 10.0 / math.log(10.0) * est.std_error_mw / est.mean_power_mw
        assert se_db < 0.1

    @pytest.mark.parametrize("phases", ["geometric", "uniform"])
    def test_vectorised_matches_per_run_reference(self, phases):
        config = mc(runs=40, rays=7, seed=777, phases=phases)
        est = wall_power_estimates([CFG], config)[0]
        assert est.mean_power_mw == pytest.approx(np.mean(per_run_reference_powers(CFG, config)), rel=1e-12, abs=0.0)

    # the library against the scalar chain on random valid scenarios: both
    # NLoS branches (UAV below and above 22.5 m), near and far walls, carriers
    # from 0.7 to 40 GHz and patch shapes from one element to a 40 x 40 lattice
    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(
        h_uav=st.one_of(st.floats(2.0, 22.4), st.floats(22.5, 300.0)),
        l_m=st.floats(5.0, 150.0),
        f_ghz=st.floats(0.7, 40.0),
        rows=st.integers(1, 40),
        cols=st.integers(1, 40),
        runs=st.integers(2, 30),
        rays=st.integers(1, 12),
        seed=st.integers(0, 2**64 - 1),
        phases=st.sampled_from(["geometric", "uniform"]),
    )
    def test_random_scenarios_match_per_run_reference(self, h_uav, l_m, f_ghz, rows, cols, runs, rays, seed, phases):
        cfg = replace(CFG, h_uav_m=h_uav, l_m=l_m, f_ghz=f_ghz, irs_rows=rows, irs_cols=cols)
        config = mc(runs=runs, rays=rays, seed=seed, phases=phases)
        est = wall_power_estimates([cfg], config)[0]
        rel = 1e-12 if phases == "uniform" else max(1e-12, turns_vs_radians_rel(cfg))
        assert est.mean_power_mw == pytest.approx(np.mean(per_run_reference_powers(cfg, config)), rel=rel, abs=0.0)

    def test_fixed_scatter_points_freeze_the_geometry(self, monkeypatch):
        pin_scatter_points(monkeypatch, *lattice_slice(CFG, 20))
        est = wall_power_estimates([CFG], mc(runs=50))[0]
        assert est.std_error_mw == pytest.approx(0.0, abs=1e-18)
        # and across blocks: 7 runs per block, the last one holds a single run
        monkeypatch.setattr(simulator, "BLOCK_PATHS", 7 * 20)
        blocked = wall_power_estimates([CFG], mc(runs=50))[0]
        assert blocked.std_error_mw == pytest.approx(0.0, abs=1e-18)
        assert blocked.mean_power_mw == pytest.approx(est.mean_power_mw, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("phases", ["geometric", "uniform"])
    @pytest.mark.parametrize("runs", [40, 100])
    @pytest.mark.parametrize("chunk_paths", [64, 5])  # at 7 rays: 9 runs per block (last ragged), or 1
    def test_blocks_match_one_shot_estimate(self, monkeypatch, phases, runs, chunk_paths):
        monkeypatch.setattr(simulator, "BLOCK_PATHS", chunk_paths)
        config = mc(runs=runs, rays=7, seed=2**64 - 5, phases=phases)
        est = wall_power_estimates([CFG], config)[0]
        mean, se, refl = one_shot_estimate(CFG, config)
        assert est.mean_power_mw == pytest.approx(mean, rel=1e-12, abs=0.0)
        assert est.std_error_mw == pytest.approx(se, rel=1e-12, abs=0.0)
        assert est.mean_reflection_amplitude == pytest.approx(refl, rel=1e-12, abs=0.0)

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(
        runs=st.integers(2, 120),
        rays=st.integers(1, 25),
        chunk_paths=st.integers(1, 4000),
        seed=st.integers(0, 2**64 - 1),
        phases=st.sampled_from(["geometric", "uniform"]),
    )
    def test_any_block_size_matches_one_block(self, runs, rays, chunk_paths, seed, phases):
        config = mc(runs=runs, rays=rays, seed=seed, phases=phases)
        with mock.patch.object(simulator, "BLOCK_PATHS", runs * rays):
            whole = wall_power_estimates([CFG], config)[0]
        with mock.patch.object(simulator, "BLOCK_PATHS", chunk_paths):
            blocked = wall_power_estimates([CFG], config)[0]
        assert blocked.mean_power_mw == pytest.approx(whole.mean_power_mw, rel=1e-12, abs=0.0)
        assert blocked.std_error_mw == pytest.approx(whole.std_error_mw, rel=1e-12, abs=0.0)
        assert blocked.mean_reflection_amplitude == pytest.approx(whole.mean_reflection_amplitude, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("phases", ["geometric", "uniform"])
    def test_memory_is_flat_in_n_runs(self, phases):
        tracemalloc.start()
        try:
            wall_power_estimates([CFG], MonteCarloConfig(n_runs=200_000, ray_phases=phases))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    @pytest.mark.parametrize("phases", ["geometric", "uniform"])
    @pytest.mark.parametrize("n_runs,sweep", [(2000, False), (200_000, False), (10_000, True)])
    def test_warm_peak_is_one_blocks_arrays(self, phases, n_runs, sweep):
        # a block's arrays are made per block and die with it, and a point
        # keeps only scalars: at most 12 planes of one block (3 MiB, under the
        # 4 MiB from which numpy asks for huge pages) and 1 MiB more, at any
        # n_runs and for the 23 points of the default sweep
        config = MonteCarloConfig(n_runs=n_runs, ray_phases=phases)
        wall_power_estimates([CFG], mc(runs=1, phases=phases))
        tracemalloc.start()
        try:
            if sweep:
                run_sweep(SweepSpec("h_uav", tuple(default_h_uav_grid()), CFG, config))
            else:
                wall_power_estimates([CFG], config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * simulator.BLOCK_PATHS * 8 + 2**20

    @pytest.mark.parametrize("phases", ["geometric", "uniform"])
    @pytest.mark.parametrize("rays", [20, 1])
    def test_run_sized_sums_are_not_block_plane_views(self, monkeypatch, phases, rays):
        # the per-run sums are run-sized arrays of their own, apart from the
        # planes they contract, so no plane a later point reads is written by
        # them; at one ray a block of runs is a full plane
        calls, einsum = [], np.einsum
        monkeypatch.setattr(np, "einsum", lambda *a, **k: calls.append((a[1:], k["out"])) or einsum(*a, **k))
        config = mc(runs=40_000 // rays, rays=rays, phases=phases)
        wall_power_estimates([CFG, replace(CFG, h_uav_m=20.0)], config)
        assert len(calls) == 2 * 2 * len(simulator._block_firsts(config))
        for (amps, phasor), out in calls:
            assert out.shape == amps.shape[:1]
            assert not np.shares_memory(out, amps) and not np.shares_memory(out, phasor)
        for (_, im), (_, re) in zip(calls[::2], calls[1::2]):
            assert not np.shares_memory(im, re)


class TestPhaseAccuracy:
    # carriers 2 to 40 GHz, near and far walls, both NLoS branches; at 40 GHz
    # the paths are 10,000 to 60,000 wavelengths long.  A float32 cos and sin
    # is off by 4e-10 to 4e-9 here.  abs=0: the powers are 5e-9 to 1e-2 mW,
    # where approx's default abs of 1e-12 would be the looser bound
    @pytest.mark.parametrize("phases", ["geometric", "uniform"])
    @pytest.mark.parametrize("f_ghz,l_m,h_uav", list(itertools.product((2.0, 28.0, 40.0), (50.0, 150.0), (20.0, 300.0))))
    def test_mean_power_matches_exact_phase_reduction(self, f_ghz, l_m, h_uav, phases):
        cfg = replace(CFG, f_ghz=f_ghz, l_m=l_m, h_uav_m=h_uav, irs_rows=40, irs_cols=40)
        config = mc(runs=200, rays=20, phases=phases)
        est = wall_power_estimates([cfg], config)[0]
        assert est.mean_power_mw == pytest.approx(exact_phase_mean_power(cfg, config), rel=1e-10, abs=0.0)


U = np.finfo(float).eps / 2  # one rounding, relative


def exact_run_power(cfg, config):
    """Run 0's baseline power under ``config``, written out in mpmath at 40
    digits from the config's fields and the run's uniforms (each an exact
    dyadic rational), and a bound on the kernel's error counted from its
    roundings, u each, at first order: (P, bound).  Float constants of the
    model (13.54, 39.08, ...) enter as the doubles the kernel uses."""
    n = config.n_rays
    draws = uniform_block(run_seeds(config.master_seed, 1), 3 * n)[0].tolist()
    with mpmath.workdps(40):
        mpf, log10, ln10_20 = mpmath.mpf, mpmath.log10, mpmath.ln(10) / 20
        f, p_t, tilt, th3, sla = map(mpf, (cfg.f_ghz, cfg.p_t_dbm, cfg.theta_etilt_deg, cfg.theta3db_deg, cfg.sla_db))
        h_bs, h_uav, h_irs, l_m = map(mpf, (cfg.h_bs_m, cfg.h_uav_m, cfg.h_irs_m, cfg.l_m))
        uav_x, uav_y = l_m / 2 if cfg.uav_x_m is None else mpf(cfg.uav_x_m), mpf(cfg.uav_y_m)
        lam, f_db = mpf(SPEED_OF_LIGHT) / (f * 10**9), 20 * log10(f)

        def bs_side(x, y, z, e_z):
            """d1, p_t + G at (x, y, z) and the bound on G's error, with z off
            by up to e_z.  The horizontal distance's roundings are 4 u, and
            atan2(dz, h) moves by at most half of its relative change, plus
            e_z / d1 from z and u from dz; numpy's arctan2 is within 4 ulp
            (8 u), and 180/pi and the product by it round 3 u more.  dev
            rounds twice and 12 dev dev twice more; past the SLA floor by
            more than that error, min() returns the floor exactly."""
            d1 = mpmath.sqrt(y * y + x * x + (h_bs - z) ** 2)
            theta = mpmath.degrees(mpmath.atan2(h_bs - z, mpmath.hypot(x, y)))
            dev = (theta - tilt) / th3
            d_theta = mpmath.degrees(e_z / d1 + 2.5 * U) + 11 * U * abs(theta)
            d_dev = (d_theta + U * abs(theta - tilt)) / th3 + U * abs(dev)
            err = 24 * abs(dev) * d_dev + 12 * d_dev**2 + 24 * U * dev * dev
            return d1, p_t - min(12 * dev * dev, sla), 0 if 12 * dev * dev - err > sla else err

        def amplitude(gain, d_gain, pl_forms, coef, rho, loss):
            """10^(p/20) for p = gain - PL - loss, PL the largest sum of
            ``pl_forms`` (each a tuple of dB terms, coef log10(d) among them,
            d off by rho relative), and the bound on its relative error.  Each
            term rounds within 14 u of itself (a product of numpy's log10,
            4 ulp, and a coefficient made with 5 u), the sums round 6 times,
            each within u of the terms' magnitudes D, and constants such as
            40 pi f / 3 round 4 u more: 24 u D.  exp is within 4 ulp, and the
            product by ln(10)/20 and that constant round 2 u of p ln(10)/20."""
            p = gain - max(map(sum, pl_forms)) - loss
            big = abs(gain) + max(sum(map(abs, form)) for form in pl_forms) + loss
            d_p = 24 * U * big + coef * rho / mpmath.ln(10) + d_gain
            return mpmath.power(10, p / 20), (d_p + 2 * U * abs(p)) * ln10_20 + 8 * U

        # the LoS: d rounds within 5.5 u; its phase, in radians, rounds 6 u of
        # itself more (2 pi, the product, the quotient, lambda's 2 u, the
        # modulus by a float 2 pi)
        d, gain, d_gain = bs_side(uav_x, uav_y, h_uav, 0)
        a0, r0 = amplitude(gain, d_gain, [(mpf(28.0), 22 * log10(d), f_db)], 22, 5.5 * U, 0)
        t0 = -d / lam
        paths = [(a0, t0, r0, abs(t0) * 11.5 * U)]  # amplitude, turns, relative error, turns error
        high = cfg.h_uav_m >= NLOS_BREAKPOINT_HEIGHT_M
        coef = 46 - 7 * log10(h_uav) if high else mpf(39.08)

        def nlos_forms(s):  # PL_NLoS's sums of dB terms: one above the breakpoint, PL_LoS's and PL_0's below it
            if high:
                return [(coef * log10(s), mpf(-17.5), 20 * log10(40 * mpmath.pi * f / 3))]
            return [(mpf(28.0), 22 * log10(s), f_db),
                    (mpf(13.54), coef * log10(s), f_db, -mpf(0.6) * (h_uav - mpf(1.5)))]

        half_w = (cfg.irs_cols - 1) * mpf(cfg.element_pitch_m) / 2
        half_h = (cfg.irs_rows - 1) * mpf(cfg.element_pitch_m) / 2
        for i in range(n):
            # the scatter point, y = (2u - 1) half and z = h_irs + (2u - 1) half:
            # the half size and the product round 2 u, adding h_irs u more
            y, dz = (2 * mpf(draws[2 * i]) - 1) * half_w, (2 * mpf(draws[2 * i + 1]) - 1) * half_h
            z, e_y = h_irs + dz, 2 * U * abs(y)
            e_z = 2 * U * abs(dz) + U * abs(z)
            d1, gain, d_gain = bs_side(l_m, y, z, e_z)
            s = d1 + mpmath.sqrt((uav_y - y) ** 2 + (uav_x - l_m) ** 2 + (h_uav - z) ** 2)
            # d1 rounds within 4.5 u + e_z / d1, d2 within 3.5 u + (e_y + e_z) / d2, their sum u
            rho = 5.5 * U + (e_y + 2 * e_z) / s
            a, r = amplitude(gain, d_gain, nlos_forms(s), coef, rho, mpf(cfg.pl_wall_db))
            if config.ray_phases == "uniform":
                paths.append((a, mpf(draws[2 * n + i]), r, 0))  # an exact draw
            else:  # -s / lambda: lambda's 2 u and the quotient's u
                paths.append((a, -s / lam, r, abs(s / lam) * (rho + 3 * U)))
        z_sum = sum(a * mpmath.expjpi(2 * t) for a, t, _, _ in paths)
        total = sum(a for a, *_ in paths)
        # each phasor is within 12 u of its value (the half-turn polynomials'
        # 4.5e-16 per part, libm's cos and sin), the amplitude products round u
        # each and the n + 1 terms' sum n u per part; the squares and their sum 3 u
        err = sum(a * (r + 2 * mpmath.pi * dt + 12 * U) for a, _, r, dt in paths) + 2 * (n + 1) * U * total
        return abs(z_sum) ** 2, (2 * total + err) * err + 3 * U * total * total


class TestRunPowerOracle:
    # Each run's power against its 40-digit value, within the kernel's
    # rounding count.  The grid was fixed before any error was seen: the
    # defaults (above the NLoS breakpoint), h_uav 20 m (below it), a 400x400
    # lattice (an 8 m patch) and 38 GHz at L 400 m (paths of 10^5
    # wavelengths), 12 seeds each, in both phase modes: 96 runs
    GRID = {
        "defaults": CFG,
        "h_uav 20": replace(CFG, h_uav_m=20.0),
        "400x400": replace(CFG, irs_rows=400, irs_cols=400),
        "38 GHz, L 400": replace(CFG, f_ghz=38.0, l_m=400.0),
    }

    @pytest.mark.parametrize("phases", ["geometric", "uniform"])
    def test_run_power_within_its_rounding_count_of_40_digit_values(self, phases):
        cfgs = list(self.GRID.values())
        for seed in range(12):
            config = mc(runs=1, seed=seed, phases=phases)
            for name, cfg, est in zip(self.GRID, cfgs, wall_power_estimates(cfgs, config)):
                exact, bound = exact_run_power(cfg, config)
                err = abs(mpmath.mpf(est.mean_power_mw) - exact)
                assert err <= bound, f"{name}, seed {seed}: |P - P_exact| = {float(err):.3g}, bound {float(bound):.3g}"


def closed_form_mean_power(cfg, n_rays, uniform):
    """E[P] of one baseline run in closed form, and the nq it settled at.  With
    X one wall ray's phasor, z0 the LoS phasor and n rays, the rays of a run
    are i.i.d., so E[P] = |z0|^2 + 2n Re(conj(z0) E[X]) + n E|X|^2
    + n(n - 1) |E[X]|^2, and E[X] = 0 with uniform phases.  Both moments are
    means over the patch, taken by Gauss-Legendre tensor quadrature of the
    kernel's own budget halves with nq doubled from 8 until E[P] moves by at
    most 1e-12 of itself."""
    a0, phi0 = simulator._los_amp_phase(cfg)
    z0 = complex(a0 * math.cos(phi0), a0 * math.sin(phi0))
    c, lam, n = cfg.irs_center, simulator.wavelength_m(cfg.f_ghz), n_rays
    previous = None
    for nq in (8, 16, 32, 64, 128, 256):
        nodes, w = np.polynomial.legendre.leggauss(nq)
        y, z = np.meshgrid(c.y + cfg.patch_half_width_y * nodes, c.z + cfg.patch_half_height_z * nodes, indexing="ij")
        weights = np.outer(w, w) / 4.0  # the patch's uniform density on [-1, 1]^2
        amps, path_len = reflected_budget(cfg, y, z, cfg.pl_wall_db)
        turns = -path_len / lam
        mean_x = 0j if uniform else complex(np.sum(weights * amps * np.exp(2j * np.pi * (turns - np.rint(turns)))))
        power = (abs(z0) ** 2 + 2 * n * (z0.conjugate() * mean_x).real + n * np.sum(weights * amps * amps)
                 + n * (n - 1) * abs(mean_x) ** 2)
        if previous is not None and abs(power - previous) <= 1e-12 * power:
            return power, nq
        previous = power
    pytest.fail(f"the quadrature did not settle by nq = 256 at {cfg}")


class TestClosedFormMean:
    # The grid was fixed before any z was seen: the defaults, 28 GHz, a 40x40
    # lattice, both NLoS branches (h_uav 20 and 150 m) and a near wall.  It
    # leaves out the reflector heights 17-24 m, where the BS pattern's -SLA
    # floor crosses the patch: the integrand has a kink there that
    # Gauss-Legendre converges on only algebraically, so those points wait for
    # a quadrature split along the floor's contour.  The points of a batch
    # share their draws, so their z-scores are correlated (seed 42 puts every
    # uniform-mode z below 0); that is a legitimate draw, not a bias.
    GRID = {
        "defaults": CFG,
        "28 GHz": replace(CFG, f_ghz=28.0),
        "40x40": replace(CFG, irs_rows=40, irs_cols=40),
        "h_uav 20": replace(CFG, h_uav_m=20.0),
        "h_uav 150": replace(CFG, h_uav_m=150.0),
        "L 10": replace(CFG, l_m=10.0),
    }

    @pytest.mark.parametrize("phases", ["geometric", "uniform"])
    def test_mc_mean_is_within_4_standard_errors_of_the_closed_form(self, phases):
        config = mc(runs=10_000, seed=42, phases=phases)
        cfgs = list(self.GRID.values())
        for name, cfg, est in zip(self.GRID, cfgs, wall_power_estimates(cfgs, config)):
            exact, nq = closed_form_mean_power(cfg, config.n_rays, phases == "uniform")
            z = (est.mean_power_mw - exact) / est.std_error_mw
            assert abs(z) <= 4.0, f"{name}: MC mean {est.mean_power_mw} mW, closed form {exact} mW at nq {nq}, z {z:.2f}"

    @pytest.mark.parametrize("phases", ["geometric", "uniform"])
    def test_the_standard_error_is_calibrated(self, phases):
        # one batch of 1,000 runs per seed, the 200 seeds 10,000 + s fixed
        # before any z was seen: with a right SE, z = (MC mean - closed form) /
        # SE is near a standard normal at each point.  E[z^2] must be within 4
        # of its standard errors of 1, the standard error taken from the z's
        # own fourth moment, and each tail past 1.96 (2.5% of a normal) within
        # its exact binomial bounds at 1e-4, 0 to 15 of the 200
        cfgs = {"defaults": CFG, "h_uav 20": replace(CFG, h_uav_m=20.0)}
        exact = [closed_form_mean_power(cfg, 20, phases == "uniform")[0] for cfg in cfgs.values()]
        seeds = range(10_000, 10_200)
        # (seed, point, field): the fields start with the mean power and its SE
        est = np.array([wall_power_estimates(list(cfgs.values()), mc(runs=1000, seed=seed, phases=phases))
                        for seed in seeds])
        z = ((est[:, :, 0] - exact) / est[:, :, 1]).T
        lo, hi = binomial_bounds(len(seeds), 0.025, 1e-4)
        for name, zs in zip(cfgs, z):
            z2 = zs * zs
            assert abs(z2.mean() - 1.0) <= 4.0 * math.sqrt(z2.var() / len(zs)), f"{name}: E[z^2] {z2.mean():.3f}"
            for side, tail in (("above", zs > 1.96), ("below", zs < -1.96)):
                assert lo <= tail.sum() <= hi, f"{name}: {tail.sum()} of {len(zs)} z {side} 1.96, bounds {lo}-{hi}"


def binomial_bounds(n, p, alpha):
    """The counts (lo, hi) of n Bernoulli(p) trials with P(X < lo) <= alpha
    and P(X > hi) <= alpha, from the exact binomial distribution."""
    cdf = list(itertools.accumulate(math.comb(n, k) * p**k * (1.0 - p) ** (n - k) for k in range(n + 1)))
    return (next(k for k in range(n + 1) if cdf[k] > alpha),
            next(k for k in range(n + 1) if 1.0 - cdf[k] <= alpha))


def kernel_sincos(t):
    """cos 2 pi t and sin 2 pi t for turns t in [-1/2, 1/2] as the wall kernel
    makes them: (u, sign, cos, sin), u and sign from the half-turn fold."""
    u, sign, x = t.copy(), np.empty_like(t), np.empty_like(t)
    simulator._fold(u, sign, x)
    cos = simulator._poly(x, simulator._COS_TURNS, out=np.empty_like(t)) * sign
    sin = simulator._poly(x, simulator._SIN_TURNS, out=np.empty_like(t)) * u * sign
    return u, sign, cos, sin


# every quadrant edge of the half-turn fold and its float neighbours, a
# dense grid and random turns
QUADRANT_EDGES = [s * e for e in (0.0, 0.125, 0.25, 0.375, 0.5) for s in (1.0, -1.0)]
TURNS = np.concatenate((
    np.clip([np.nextafter(e, d) for e in QUADRANT_EDGES for d in (-1.0, 1.0)] + QUADRANT_EDGES, -0.5, 0.5),
    np.linspace(-0.5, 0.5, 8193),
    np.random.default_rng(16).uniform(-0.5, 0.5, 4096),
))


class TestPhasorTrig:
    def test_sincos_within_4_5e_16_of_50_digit_values(self):
        _, _, cos, sin = kernel_sincos(TURNS)
        with mpmath.workdps(50):
            exact = [(mpmath.cos(a), mpmath.sin(a)) for a in (2 * mpmath.pi * mpmath.mpf(t) for t in TURNS.tolist())]
            err_cos = max(abs(float(c - e)) for c, (e, _) in zip(cos.tolist(), exact))
            err_sin = max(abs(float(s - e)) for s, (_, e) in zip(sin.tolist(), exact))
        assert err_cos <= 4.5e-16
        assert err_sin <= 4.5e-16
        assert np.abs(cos).max() <= 1.0
        assert np.abs(sin).max() <= 1.0

    def test_half_turn_fold_is_exact(self):
        u, sign, _, _ = kernel_sincos(TURNS)
        for t, ut, sign_t in zip(TURNS.tolist(), u.tolist(), sign.tolist()):
            q = round(2 * Fraction(t))  # to even at the ties t = +-1/4, as rint
            assert Fraction(ut) == Fraction(t) - Fraction(q, 2)
            assert abs(ut) <= 0.25
            assert sign_t == 1 - 2 * q * q

    def test_coefficients_are_the_documented_fits(self):
        def fit(f):  # degree 8 in x = u^2 on [0, 1/16], lowest power first
            return tuple(float(c) for c in reversed(mpmath.chebyfit(f, [0, mpmath.mpf(1) / 16], 9)))

        with mpmath.workdps(50):
            two_pi = 2 * mpmath.pi
            assert simulator._COS_TURNS == fit(lambda x: mpmath.cos(two_pi * mpmath.sqrt(x)))
            assert simulator._SIN_TURNS == fit(lambda x: mpmath.sin(two_pi * mpmath.sqrt(x)) / mpmath.sqrt(x))

    @pytest.mark.parametrize("phases", ["geometric", "uniform"])
    def test_wall_kernel_calls_no_libm_trig(self, monkeypatch, phases):
        calls = []
        for name in ("cos", "sin"):
            monkeypatch.setattr(np, name, partial(lambda f, *a, **k: calls.append(f) or f(*a, **k), getattr(np, name)))
        wall_power_estimates([CFG, replace(CFG, h_uav_m=60.0)], mc(runs=100, phases=phases))
        assert calls == []

def scalar_bs_gain(cfg, bs, x, y, z):
    """p_t + G(angle) at one point (x, y, z), its angle from libm's hypot, atan2
    and degrees, one value at a time: (gain, angle in degrees)."""
    theta = math.degrees(math.atan2(bs.z - z, math.hypot(x - bs.x, y - bs.y)))
    return cfg.p_t_dbm + vertical_gain(theta, cfg), theta


def assert_bs_side_within_roundings(cfg, x, y, z):
    """The kernel's p_t + G at the points (y, z) of the plane x against
    ``scalar_bs_gain``, within a bound counted from each side's roundings;
    returns the scalar gains."""
    d1, gain, b, c = np.empty((4,) + y.shape)
    simulator._bs_side(cfg, x, y, z, d1, gain, (b, c))
    bs = scene(cfg).bs
    ref, theta = map(np.array, zip(*(scalar_bs_gain(cfg, bs, x, yi, zi) for yi, zi in zip(y.tolist(), z.tolist()))))
    # The bound counts roundings, u = eps / 2 each.  The kernel's horizontal
    # distance rounds dy^2, dx^2, their sum and the root: 2.5 u relative at
    # first order (the root halves its argument's 3 u and adds u), against
    # math.hypot's 1 ulp (2 u).  atan2(dz, h) moves by at most half the
    # relative change of h, since |dz h / (dz^2 + h^2)| <= 1/2.  numpy's
    # arctan2 is within 4 ulp (8 u; on AVX-512 it is SVML's, documented at
    # 4 ulp), libm's atan2 within 1 ulp (2 u), and each side's product by
    # 180/pi rounds once more (u).
    u = np.finfo(float).eps / 2
    d_theta = 0.5 * (2.5 + 2.0) * u * math.degrees(1.0) + (8.0 + 2.0 + 2.0 * 1.0) * u * np.abs(theta)
    # G = -min(12 dev^2, SLA) with dev = (theta - tilt) / theta3dB has slope
    # 24 |dev| / theta3dB below the floor.  Each side rounds dev twice (2 u)
    # and 12 dev dev twice more (6 u of G in all), then adding p_t (u of the
    # gain).
    dev = np.abs(theta - cfg.theta_etilt_deg) / cfg.theta3db_deg + d_theta / cfg.theta3db_deg
    g = np.minimum(12.0 * dev * dev, cfg.sla_db)
    bound = 24.0 * dev / cfg.theta3db_deg * d_theta + 2.0 * (6.0 * u * g + u * np.abs(ref))
    assert (np.abs(gain - ref) <= bound).all()
    return ref


class TestBsSideAngle:
    @pytest.mark.parametrize("phases", ["geometric", "uniform"])
    def test_kernel_calls_no_hypot_or_degrees(self, monkeypatch, phases):
        # neither numpy's nor libm's: no part of a point, the LoS and the
        # reflector sum the batch resolves with it included
        calls = []
        for module, name in itertools.product((np, math), ("hypot", "degrees")):
            spy = partial(lambda f, *a, **k: calls.append(f) or f(*a, **k), getattr(module, name))
            monkeypatch.setattr(module, name, spy)
        wall_power_estimates([CFG, replace(CFG, h_uav_m=60.0, uav_y_m=7.0)], mc(runs=100, phases=phases))
        assert calls == []

    # a 20 m patch 30 m from the BS spans the down-tilted main lobe and the
    # side-lobe floor on both sides of it; the default patch and a near wall
    @pytest.mark.parametrize("cfg", [
        replace(CFG, l_m=30.0, irs_rows=200, irs_cols=200, element_pitch_m=0.1),
        CFG,
        replace(CFG, l_m=10.0, irs_rows=40, irs_cols=40),
    ])
    def test_bs_side_gain_matches_scalar_libm_within_its_roundings(self, cfg):
        y, z = lattice_slice(cfg, min(cfg.k, 2**15))
        ref = assert_bs_side_within_roundings(cfg, cfg.irs_center.x, y, z)
        if cfg.l_m == 30.0:  # both regimes are on the grid
            assert (ref > cfg.p_t_dbm - cfg.sla_db).any() and (ref == cfg.p_t_dbm - cfg.sla_db).any()

    def test_los_gain_matches_scalar_libm_within_its_roundings(self):
        # the LoS evaluates the BS half at the UAV, a one-point array on the
        # UAV's plane x: here off the BS-wall plane (uav_y != 0), above and
        # below the BS, and in front of and behind the mast (uav_x < 0)
        rng = np.random.default_rng(2019)
        uavs, refs = [], []
        for _ in range(1000):
            h_bs, l_m = rng.uniform(10.0, 60.0), rng.uniform(10.0, 100.0)
            cfg = replace(CFG, h_bs_m=h_bs, l_m=l_m, uav_x_m=rng.uniform(-100.0, l_m),
                          uav_y_m=rng.uniform(-100.0, 100.0), h_uav_m=rng.uniform(1.5, 300.0))
            uav = cfg.uav
            refs.append(assert_bs_side_within_roundings(cfg, uav.x, np.array([uav.y]), np.array([uav.z]))[0])
            uavs.append((uav.x < 0, uav.z > cfg.h_bs_m))
        assert set(uavs) == set(itertools.product((False, True), repeat=2))
        floor = CFG.p_t_dbm - CFG.sla_db  # both regimes are among the points
        assert any(r > floor for r in refs) and floor in refs


def leg_lengths(cfg):
    """The kernel's d1 and d2 of every element and of the scatter points at
    the patch's corners, edge midpoints and centre (uniforms 0, 1/2 and the
    largest below 1)."""
    u = np.array([0.0, 0.5, 1.0 - 2.0**-53])
    points = simulator._scatter_matrix(cfg, np.stack(np.meshgrid(u, u)).reshape(2, 1, 9))[:, 0]
    y, z = (np.concatenate(pair) for pair in zip(lattice_slice(cfg, cfg.k), points))
    d1, gain, b, c = np.empty((4,) + y.shape)
    simulator._bs_side(cfg, cfg.irs_center.x, y, z, d1, gain, (b, c))
    uav, dx2 = cfg.uav, cfg.uav.x - cfg.irs_center.x
    return d1, np.sqrt((np.square(uav.y - y) + dx2 * dx2) + np.square(uav.z - z))  # _uav_side's order


class TestOnePathCheck:
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 3), cols=st.integers(1, 3),
           pitch=st.sampled_from([0.02, 1.0, 1e-170, 5e-324]), l_m=st.sampled_from([50.0, 1e-161, 1e-200]),
           h_bs=st.sampled_from([25.0, 10.0]))
    def test_a_passing_check_leaves_no_leg_of_length_0(self, data, rows, cols, pitch, l_m, h_bs):
        # the UAV on or next to the wall plane, at, between or one ulp past
        # the patch's coordinates, and the BS at the patch's height: the check
        # may name a coincidence no point reaches, but never misses one
        cfg = ScenarioConfig(irs_rows=rows, irs_cols=cols, element_pitch_m=pitch, l_m=l_m, h_bs_m=h_bs)
        c, half_w, half_h = cfg.irs_center, cfg.patch_half_width_y, cfg.patch_half_height_z

        def near(v):
            return [v, math.nextafter(v, -math.inf), math.nextafter(v, math.inf)]

        cfg = replace(cfg, uav_x_m=data.draw(st.sampled_from(near(l_m)[:2] + [l_m / 2.0])),
                      uav_y_m=data.draw(st.sampled_from(near(c.y - half_w) + near(c.y + half_w) + [c.y])),
                      h_uav_m=data.draw(st.sampled_from(near(c.z - half_h) + near(c.z + half_h) + [c.z, 50.0])))
        try:
            simulator._check_path_lengths(cfg)
        except DegenerateGeometryError:
            return
        for legs in leg_lengths(cfg):
            assert (legs > 0).all()

    def test_the_bound_is_tight_at_the_patch_edge(self):
        # a UAV on the last element of a 1x3 patch coincides with it; one ulp
        # beyond the edge, every leg is positive and the budget finite
        cfg = ScenarioConfig(irs_rows=1, irs_cols=3, uav_x_m=50.0, h_uav_m=10.0)
        with pytest.raises(DegenerateGeometryError, match="the UAV coincides with the reflector patch"):
            simulator._check_path_lengths(replace(cfg, uav_y_m=cfg.patch_half_width_y))
        beside = replace(cfg, uav_y_m=math.nextafter(cfg.patch_half_width_y, math.inf))
        simulator._check_path_lengths(beside)
        assert min(leg_lengths(beside)[1]) == beside.uav.y - cfg.patch_half_width_y > 0
        assert math.isfinite(simulator._irs_sum(beside))


class TestKeptPlanes:
    def test_empty_batch_draws_nothing(self, monkeypatch):
        # it returns before any of the 62 blocks of 100,000 runs is seeded or drawn
        big = MonteCarloConfig(n_runs=100_000, ray_phases="uniform")
        kept = simulator.kept_planes(CFG, big)
        calls = []
        for name in ("run_seeds", "uniform_block"):
            spy = partial(lambda f, *a, **k: calls.append(f) or f(*a, **k), getattr(simulator.rng, name))
            monkeypatch.setattr(simulator.rng, name, spy)
        assert wall_power_estimates([], big) == []
        assert wall_power_estimates([], replace(big, threads=2), kept=kept) == []
        assert calls == []

    @pytest.mark.parametrize("phases", ["geometric", "uniform"])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_kept_blocks_are_drawn_once_and_give_the_same_bits(self, position_draws, phase_draws, phases, threads):
        # 3,000 runs are 2 blocks: the table draws and maps them (and in
        # uniform mode makes their ray phasors), and every batch (other points
        # of the same patch) only reads them; a geometric search keeps no
        # phasors.  Planes kept at one thread serve a batch on two: threads
        # takes no part in the key's equality
        config = mc(runs=3000, phases=phases)
        batches = [[CFG, replace(CFG, l_m=40.0)], [replace(CFG, l_m=60.0)], [replace(CFG, h_uav_m=60.0)]]
        expected = [wall_power_estimates(cfgs, config) for cfgs in batches]
        position_draws.clear()
        phase_draws.clear()
        kept = simulator.kept_planes(CFG, config)
        assert sorted(position_draws) == [3000 - 1638, 1638]
        assert sorted(phase_draws) == ([3000 - 1638, 1638] if phases == "uniform" else [])
        position_draws.clear()
        phase_draws.clear()
        got = [wall_power_estimates(cfgs, replace(config, threads=threads), kept) for cfgs in batches]
        assert [[[x.hex() for x in e] for e in batch] for batch in got] == \
            [[[x.hex() for x in e] for e in batch] for batch in expected]
        assert position_draws == phase_draws == []
        assert sorted(kept.blocks) == [0, 1638]
        assert {entry.shape[0] for entry in kept.blocks.values()} == {4 if phases == "uniform" else 2}
        assert not any(entry.flags.writeable for entry in kept.blocks.values())

    def test_a_uniform_search_makes_each_kept_blocks_phasors_once(self, phase_draws, tmp_path, capsys):
        # the default search, 10,000 runs in 7 blocks: the search makes each
        # block's phasors before its grid, and the grid and every
        # golden-section point read them (252 phase draws when each batch drew)
        argv = ["optimize", "--refine", "--ray-phases", "uniform", "--threads", "2", "--seed", "11"]
        assert cli.main(argv + ["--out", str(tmp_path / "out.csv")]) == 0
        capsys.readouterr()
        assert sorted(phase_draws) == [10_000 - 6 * 1638] + [1638] * 6

    @pytest.mark.parametrize("phases", ["geometric", "uniform"])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_a_kept_block_is_neither_drawn_nor_mapped(self, monkeypatch, phases, threads):
        # 10 blocks of 50 runs, 8 of them kept: a batch of points on the kept
        # patch draws and maps only the last 2 blocks (50 and 25 runs), once each
        monkeypatch.setattr(simulator, "BLOCK_PATHS", 50 * 20)
        config = mc(runs=475, phases=phases)
        kept = simulator.kept_planes(CFG, config)
        drawn, mapped = [], []
        for name, calls in (("_draw_block", drawn), ("_scatter_matrix", mapped)):
            spy = partial(lambda f, calls, *a, **k: calls.append(a) or f(*a, **k), getattr(simulator, name), calls)
            monkeypatch.setattr(simulator, name, spy)
        batch = [CFG, replace(CFG, l_m=40.0), replace(CFG, h_uav_m=60.0)]
        wall_power_estimates(batch, replace(config, threads=threads), kept)
        assert sorted(first for _, first, _ in drawn) == [400, 450]
        assert sorted(u.shape[1] for _, u in mapped) == [25, 50]

    @pytest.mark.parametrize("phases", ["geometric", "uniform"])
    def test_blocks_past_the_budget_are_drawn_per_batch(self, monkeypatch, position_draws, phase_draws, phases):
        # 10 blocks of 50 runs: the table draws the first 8, every batch the
        # last 2, and the kept planes stay within 8 full blocks of two planes,
        # four in uniform mode (y, z, cos and sin)
        monkeypatch.setattr(simulator, "BLOCK_PATHS", 50 * 20)
        config = mc(runs=475, phases=phases)
        expected = wall_power_estimates([CFG], config)
        position_draws.clear()
        phase_draws.clear()
        kept = simulator.kept_planes(CFG, config)
        assert len(position_draws) == 8 and len(phase_draws) == (8 if phases == "uniform" else 0)
        position_draws.clear()
        phase_draws.clear()
        for _ in range(3):
            assert wall_power_estimates([CFG], config, kept=kept) == expected
        assert len(position_draws) == 3 * 2
        assert len(phase_draws) == (3 * 2 if phases == "uniform" else 0)
        assert sorted(kept.blocks) == list(range(0, 400, 50))
        planes = 4 if phases == "uniform" else 2
        assert sum(entry.nbytes for entry in kept.blocks.values()) <= simulator._KEPT_BLOCKS * 50 * 20 * planes * 8

    @pytest.mark.parametrize("other", [
        dict(cfg=replace(CFG, h_irs_m=5.0)),  # another patch centre
        dict(cfg=replace(CFG, irs_rows=5, irs_cols=20)),  # another patch size
        dict(config=mc(runs=3000, seed=43)),
        dict(config=mc(runs=3000, phases="uniform")),
        dict(config=mc(runs=2000)),
    ])
    def test_a_batch_off_the_key_raises(self, other):
        # and leaves the table as it was
        config = mc(runs=3000)
        kept = simulator.kept_planes(CFG, config)
        before = {first: entry.tobytes() for first, entry in kept.blocks.items()}
        cfgs = [replace(CFG, l_m=40.0), other.get("cfg", CFG)]  # another L keeps the patch
        with pytest.raises(InvalidParameterError, match="kept scatter planes"):
            wall_power_estimates(cfgs, other.get("config", config), kept=kept)
        assert {first: entry.tobytes() for first, entry in kept.blocks.items()} == before
        assert sorted(before) == [0, 1638]

    def test_concurrent_batches_share_one_kept_set(self, monkeypatch):
        # batches on more threads than cores, each on a pool of its own size,
        # read the same table at once, and every batch gets the bits of a
        # batch without kept planes
        monkeypatch.setattr(simulator, "BLOCK_PATHS", 50 * 20)
        config = mc(runs=400, phases="uniform")  # 8 blocks
        cfgs = [[replace(CFG, l_m=l_m)] for l_m in (40.0, 45.0, 50.0, 55.0)]
        expected = [wall_power_estimates(batch, config) for batch in cfgs]
        kept = simulator.kept_planes(CFG, config)
        results, interval = [], sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=lambda t=t: results.extend(
                [wall_power_estimates(batch, replace(config, threads=t), kept) for batch in cfgs]), daemon=True)
                       for t in (1, 2, 3) * 2]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert results == expected * 6
        assert sorted(kept.blocks) == list(range(0, 400, 50))


# a value of every ScenarioConfig field other than CFG's, each valid beside
# CFG's other fields and each moving a point's estimate (pl_irs_db its
# reflector sum alone; sla_db 0.2 puts the pattern floor under the patch)
_OTHER_VALUES = {
    "f_ghz": 3.5, "p_t_dbm": 40.0, "theta_etilt_deg": 5.0, "theta3db_deg": 4.0, "sla_db": 0.2,
    "pl_irs_db": 3.0, "pl_wall_db": 6.0, "h_bs_m": 30.0, "h_uav_m": 60.0, "h_irs_m": 5.0,
    "irs_rows": 4, "irs_cols": 30, "l_m": 40.0, "element_pitch_m": 0.05, "uav_x_m": 10.0, "uav_y_m": 3.0,
}


class TestSharingKeys:
    @pytest.mark.parametrize("phases", ["geometric", "uniform"])
    @pytest.mark.parametrize("name", [f.name for f in fields(ScenarioConfig)])
    def test_a_changed_field_shares_no_stale_array(self, monkeypatch, name, phases):
        # a batch reuses the scatter points and the BS half of the budget while
        # its hand-kept keys are equal: a field they miss would reuse stale rows
        other = replace(CFG, **{name: _OTHER_VALUES[name]})
        config = mc(runs=23, rays=7, phases=phases)
        monkeypatch.setattr(simulator, "BLOCK_PATHS", 5 * 7)  # blocks of 5 runs, the last one short
        alone = {cfg: wall_power_estimates([cfg], config)[0] for cfg in (CFG, other)}
        assert alone[CFG] != alone[other]
        for batch in ([CFG, other], [other, CFG]):
            for cfg, est in zip(batch, wall_power_estimates(batch, config)):
                assert [x.hex() for x in est] == [x.hex() for x in alone[cfg]]


class TestThreads:
    @settings(derandomize=True, database=None, max_examples=30, deadline=None)
    @given(
        runs_per_block=st.integers(1, 12),
        rays=st.integers(1, 9),
        blocks=st.integers(1, 9),
        last=st.integers(1, 12),
        seed=st.integers(0, 2**64 - 1),
        phases=st.sampled_from(["geometric", "uniform"]),
        batch=st.sampled_from([[CFG], [CFG, replace(CFG, h_irs_m=5.0)]]),
    )
    def test_block_split_is_bit_identical_at_any_thread_count(self, runs_per_block, rays, blocks, last, seed,
                                                              phases, batch):
        # blocks of runs_per_block runs, the last one short when last < runs_per_block;
        # on 2 or 3 pool threads the blocks finish in any order but merge in run order
        config = mc(runs=(blocks - 1) * runs_per_block + min(last, runs_per_block), rays=rays, seed=seed,
                    phases=phases)
        with mock.patch.object(simulator, "BLOCK_PATHS", runs_per_block * rays):
            one, two, three = (wall_power_estimates(batch, replace(config, threads=t)) for t in (1, 2, 3))
            assert one == wall_power_estimates(batch, config)
        for est in (two, three):
            assert [[x.hex() for x in e] for e in est] == [[x.hex() for x in e] for e in one]


class TestIrsGain:
    def test_one_los_budget_per_point(self, monkeypatch):
        # the LoS budget is built once, by the wall estimate, a batch of one
        # called through the module with ([cfg], mc)
        built, walls = [], []
        los, wall = simulator._los_amp_phase, simulator.wall_power_estimates
        monkeypatch.setattr(simulator, "_los_amp_phase", lambda cfg: built.append(cfg) or los(cfg))
        monkeypatch.setattr(
            simulator, "wall_power_estimates", lambda *args: walls.append(args[:2]) or wall(*args)
        )
        config = mc(runs=10)
        irs_gain(CFG, config)
        assert built == [CFG]
        assert walls == [([CFG], config)]

    @pytest.mark.parametrize("phases", ["geometric", "uniform"])
    def test_a_sweep_resolves_each_point_once(self, monkeypatch, phases):
        # the batch checks each point's paths once and makes its reflector sum
        # there; irs_gain, given the point's record, checks, sums and budgets nothing
        calls = {name: [] for name in ("_check_path_lengths", "_irs_sum", "_bs_side")}
        for name, seen in calls.items():
            spy = partial(lambda f, seen, *a, **k: seen.append(a[0]) or f(*a, **k), getattr(simulator, name), seen)
            monkeypatch.setattr(simulator, name, spy)
        spec = SweepSpec("h_uav", (20.0, 30.0, 50.0), CFG, mc(runs=100, phases=phases))
        rows = run_sweep(spec).rows
        cfgs = [replace(CFG, h_uav_m=h) for h in spec.values]
        assert calls["_check_path_lengths"] == calls["_irs_sum"] == cfgs
        records = wall_power_estimates(cfgs, spec.mc)
        for seen in calls.values():
            seen.clear()
        assert [irs_gain(cfg, spec.mc, rec) for cfg, rec in zip(cfgs, records)] == [row.result for row in rows]
        assert all(seen == [] for seen in calls.values())

    def test_non_finite_result_raises(self):
        # a 3000 dBm transmit power overflows the powers' squared deviations:
        # the record names its one non-finite field instead of holding a nan
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match=r"^non-finite result: std_error_db = nan$"):
                irs_gain(replace(CFG, p_t_dbm=3000.0), mc(runs=10))

    def test_result_record_names_each_non_finite_field(self):
        res = irs_gain(CFG, mc(runs=10))
        with pytest.raises(FloatingPointError, match=r"^non-finite result: gain_db = nan, mean_wall_power_mw = inf$"):
            replace(res, gain_db=math.nan, mean_wall_power_mw=math.inf)

    def test_gain_result_invariants(self):
        res = irs_gain(CFG, mc(runs=500))
        assert res.gain_db == pytest.approx(
            10.0 * math.log10(res.gamma_irs**2 / res.mean_wall_power_mw), rel=1e-12, abs=0.0
        )
        assert res.std_error_db >= 0.0
        assert res.gamma_irs >= res.los_amplitude
        assert res.gamma_irs == pytest.approx(res.los_amplitude + res.irs_sum_amplitude, rel=1e-12, abs=0.0)

    def test_equal_losses_and_matched_rays_give_zero_db(self, monkeypatch):
        # same reflection loss, rays pinned to the element positions, geometric
        # phases on both sides: numerator and denominator coincide
        cfg = replace(CFG, pl_wall_db=CFG.pl_irs_db)
        geom = scene(cfg)
        pin_scatter_points(monkeypatch, *lattice_slice(cfg, cfg.k))
        est = wall_power_estimates([cfg], mc(runs=10, rays=100))[0]
        refl = ReflectionParams(cfg.pl_irs_db, cfg.pl_wall_db)
        coeffs = [los_coefficient(geom, cfg, cfg, cfg.p_t_dbm)] + [
            element_coefficient(k, cfg, cfg, cfg, cfg.p_t_dbm, refl, PHASE_GEOMETRIC)
            for k in range(100)
        ]
        assert 10.0 * math.log10(combine(coeffs) ** 2 / est.mean_power_mw) == pytest.approx(0.0, abs=1e-9)

    def test_low_uav_gain_smaller_than_high(self):
        low = irs_gain(replace(CFG, h_uav_m=20.0), mc(runs=2000, phases="uniform"))
        high = irs_gain(replace(CFG, h_uav_m=50.0), mc(runs=2000, phases="uniform"))
        assert low.gain_db < high.gain_db

    def test_monotone_in_element_count(self):
        gains = []
        for k in (25, 36, 49, 64, 81, 100):
            side = int(math.isqrt(k))
            cfg = replace(CFG, irs_rows=side, irs_cols=side)
            gains.append(irs_gain(cfg, mc(runs=2000, phases="uniform")).gain_db)
        assert all(b > a for a, b in zip(gains, gains[1:]))

    def test_gamma_bounds_every_wall_run_amplitude(self):
        # per-path dominance: 10 dB wall loss vs 1 dB, 20 rays vs 100 elements
        gamma = gamma_irs(CFG)
        geom = scene(CFG)
        los = los_coefficient(geom, CFG, CFG, CFG.p_t_dbm)
        for r in range(100):
            stream = CounterStream(run_seed(42, r))
            pts = sample_scatter_points(geom, 20, stream)
            rays = [
                wall_ray_coefficient(p, geom, CFG, CFG, CFG.p_t_dbm, REFL)
                for p in pts
            ]
            assert combine([los] + rays) < gamma

    def test_uniform_mode_gain_is_frequency_invariant(self):
        # amplitudes scale by a common factor and ray phases reuse the same
        # draws; only the LoS cross term moves, which averages out over runs
        gains = [
            irs_gain(replace(CFG, f_ghz=f), mc(runs=10_000, phases="uniform")).gain_db for f in (2.0, 4.0, 5.0)
        ]
        assert max(gains) - min(gains) < 0.2
