import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irslink import simulator
from irslink.propagation import pl_nlos, vertical_gain
from irslink.rng import run_seed, run_seeds, uniform_block
from irslink.scenario import MonteCarloConfig, ScenarioConfig
from irslink.simulator import irs_amplitude, irs_gain, wall_power_estimate
from scalar_reference import (
    PHASE_GEOMETRIC,
    ChannelCoefficient,
    CounterStream,
    ReflectionParams,
    combine,
    element_coefficient,
    los_coefficient,
    sample_scatter_points,
    wall_ray_coefficient,
)

CFG = ScenarioConfig()
REFL = ReflectionParams(CFG.pl_irs_db, CFG.pl_wall_db)
TWO_PI = 2.0 * math.pi


def mc(runs=200, rays=20, seed=42, phases="geometric"):
    return MonteCarloConfig(n_runs=runs, n_rays=rays, master_seed=seed, ray_phases=phases)


def pin_scatter_points(monkeypatch, points):
    """Make every Monte Carlo run use the same scatter points (rows of ``points``)."""
    fixed = np.asarray(points, dtype=float)
    monkeypatch.setattr(
        simulator, "_scatter_matrix", lambda geom, u: np.broadcast_to(fixed, u.shape[:-1] + (3,))
    )


def one_shot_estimate(cfg, config):
    """The wall estimate over every run at once: the (n_runs, n_rays) arrays,
    complex phasors, |z|**2 and numpy's mean and std on the whole array."""
    n, rays = config.n_runs, config.n_rays
    geom = cfg.geometry()
    a0, phi0 = simulator._los_amp_phase(cfg, geom)
    seeds = run_seeds(config.master_seed, n)
    pts = simulator._scatter_matrix(geom, uniform_block(seeds, 2 * rays).reshape(n, rays, 2))
    amps, path_len = simulator._reflected_amps_phases(cfg, geom, pts, cfg.pl_wall_db)
    if config.ray_phases == "uniform":
        phases = TWO_PI * uniform_block(seeds, rays, first_draw=2 * rays)
    else:
        phases = (-TWO_PI * path_len / simulator.wavelength_m(cfg.f_ghz)) % TWO_PI
    ray_sum = np.sum(amps * np.exp(1j * phases), axis=1)
    powers = np.abs(a0 * np.exp(1j * phi0) + ray_sum) ** 2
    return np.mean(powers), np.std(powers, ddof=1) / math.sqrt(n), np.mean(np.abs(ray_sum))


def vector_form_budget(cfg, geom, points, reflection_loss_db):
    """The link budget as (..., 3) difference vectors reduced by numpy's
    length-3 sum: the form the per-coordinate kernel must match bit for bit."""
    bs = geom.bs.as_array()
    uav = geom.uav.as_array()
    v1 = points - bs
    v2 = uav - points
    d1 = np.sqrt(np.sum(v1 * v1, axis=-1))
    d2 = np.sqrt(np.sum(v2 * v2, axis=-1))
    theta = np.degrees(np.arctan2(bs[2] - points[..., 2], np.hypot(v1[..., 0], v1[..., 1])))
    p_rx = (
        cfg.p_t_dbm
        + vertical_gain(theta, cfg)
        - pl_nlos(d1 + d2, geom.uav.z, cfg)
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
        geom = cfg.geometry()
        seeds = run_seeds(7, 300)
        rays = simulator._scatter_matrix(geom, uniform_block(seeds, 2 * 20).reshape(300, 20, 2))
        for points, loss in ((geom.elements, cfg.pl_irs_db), (rays, cfg.pl_wall_db)):
            amps, path_len = simulator._reflected_amps_phases(cfg, geom, points, loss)
            ref_amps, ref_len = vector_form_budget(cfg, geom, points, loss)
            assert amps.shape == ref_amps.shape == points.shape[:-1]
            assert np.array_equal(amps, ref_amps)
            assert np.array_equal(path_len, ref_len)


class TestIrsAmplitude:
    def test_empty_lattice_equals_los_alone(self):
        cfg = replace(CFG, irs_rows=0, irs_cols=0)
        geom = cfg.geometry()
        los = los_coefficient(geom, cfg, cfg, cfg.p_t_dbm)
        assert irs_amplitude(cfg) == pytest.approx(los.amplitude, rel=1e-12)

    def test_matches_per_element_summation(self):
        # vectorised path against the scalar coefficient chain
        geom = CFG.geometry()
        los = los_coefficient(geom, CFG, CFG, CFG.p_t_dbm)
        total = los.amplitude + sum(
            element_coefficient(k, geom, CFG, CFG, CFG.p_t_dbm, REFL).amplitude
            for k in range(100)
        )
        assert irs_amplitude(CFG) == pytest.approx(total, rel=1e-12)

    def test_sum_tracks_100x_centre_element(self):
        # patch is small relative to the path lengths, so the brute-force sum
        # stays within 0.1% of 100x the centre-element amplitude
        centre = replace(CFG, irs_rows=1, irs_cols=1)
        geom_c = centre.geometry()
        centre_amp = element_coefficient(
            0, geom_c, CFG, CFG, CFG.p_t_dbm, REFL
        ).amplitude
        total = irs_amplitude(CFG) - irs_gain(CFG, mc(runs=1)).los_amplitude
        assert total == pytest.approx(100.0 * centre_amp, rel=1e-3)

    def test_doubling_elements_doubles_the_sum(self):
        half = irs_amplitude(replace(CFG, irs_rows=5, irs_cols=10)) - irs_gain(
            replace(CFG, irs_rows=5, irs_cols=10), mc(runs=1)
        ).los_amplitude
        full = irs_amplitude(CFG) - irs_gain(CFG, mc(runs=1)).los_amplitude
        assert full / half == pytest.approx(2.0, abs=1e-3)

    def test_sliced_sum_matches_one_slice(self, monkeypatch):
        whole = irs_amplitude(CFG)
        monkeypatch.setattr(simulator, "_CHUNK_PATHS", 7)  # 15 slices, the last holds 2 elements
        assert irs_amplitude(CFG) == pytest.approx(whole, rel=1e-12)

    def test_element_sum_memory_is_the_lattice_plus_one_slice(self):
        # 250,000 elements: a 6 MB lattice; summed in one piece the link
        # budget's temporaries would add ~128 bytes per element
        tracemalloc.start()
        try:
            irs_gain(replace(CFG, irs_rows=500, irs_cols=500), mc(runs=100, rays=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestWallPowerEstimate:
    def test_no_rays_is_los_power_exactly(self):
        est = wall_power_estimate(CFG, mc(runs=50, rays=0))
        geom = CFG.geometry()
        los = los_coefficient(geom, CFG, CFG, CFG.p_t_dbm)
        assert est.mean_power_mw == pytest.approx(los.amplitude**2, rel=1e-12)
        assert est.std_error_mw == 0.0
        assert est.mean_reflection_amplitude == 0.0

    def test_zero_extent_patch_makes_runs_identical(self):
        cfg = replace(CFG, irs_rows=1, irs_cols=1)
        est = wall_power_estimate(cfg, mc(runs=100))
        assert est.std_error_mw == pytest.approx(0.0, abs=1e-18)

    def test_single_run_has_zero_std_error(self):
        assert wall_power_estimate(CFG, mc(runs=1)).std_error_mw == 0.0

    def test_same_seed_bit_reproducible(self):
        a = wall_power_estimate(CFG, mc(runs=500))
        b = wall_power_estimate(CFG, mc(runs=500))
        assert a == b

    def test_different_seeds_agree_within_3_standard_errors(self):
        a = wall_power_estimate(CFG, mc(runs=4000, seed=1))
        b = wall_power_estimate(CFG, mc(runs=4000, seed=2))
        tol = 3.0 * math.hypot(a.std_error_mw, b.std_error_mw)
        assert abs(a.mean_power_mw - b.mean_power_mw) < tol

    def test_std_error_below_tenth_db_at_defaults(self):
        est = wall_power_estimate(CFG, MonteCarloConfig())
        se_db = 10.0 / math.log(10.0) * est.std_error_mw / est.mean_power_mw
        assert se_db < 0.1

    @pytest.mark.parametrize("phases", ["geometric", "uniform"])
    def test_vectorised_matches_per_run_reference(self, phases):
        # re-derive each run with the scalar channel chain and the documented
        # draw layout: 2 position draws per ray, then one phase draw per ray
        runs = 40
        config = mc(runs=runs, rays=7, seed=777, phases=phases)
        est = wall_power_estimate(CFG, config)
        geom = CFG.geometry()
        los = los_coefficient(geom, CFG, CFG, CFG.p_t_dbm)
        powers = []
        for r in range(runs):
            stream = CounterStream(run_seed(777, r))
            pts = sample_scatter_points(geom, 7, stream)
            rays = [
                wall_ray_coefficient(p, geom, CFG, CFG, CFG.p_t_dbm, REFL)
                for p in pts
            ]
            if phases == "uniform":
                u = stream.uniforms(7)
                rays = [ChannelCoefficient(c.amplitude, float(TWO_PI * ui) % TWO_PI) for c, ui in zip(rays, u)]
            powers.append(combine([los] + rays) ** 2)
        assert est.mean_power_mw == pytest.approx(np.mean(powers), rel=1e-12)

    def test_fixed_scatter_points_freeze_the_geometry(self, monkeypatch):
        geom = CFG.geometry()
        pin_scatter_points(monkeypatch, geom.elements[:20])
        est = wall_power_estimate(CFG, mc(runs=50))
        assert est.std_error_mw == pytest.approx(0.0, abs=1e-18)
        # and across blocks: 7 runs per block, the last one holds a single run
        monkeypatch.setattr(simulator, "_CHUNK_PATHS", 7 * 20)
        blocked = wall_power_estimate(CFG, mc(runs=50))
        assert blocked.std_error_mw == pytest.approx(0.0, abs=1e-18)
        assert blocked.mean_power_mw == pytest.approx(est.mean_power_mw, rel=1e-12)

    @pytest.mark.parametrize("phases", ["geometric", "uniform"])
    @pytest.mark.parametrize("runs", [40, 100])
    @pytest.mark.parametrize("chunk_paths", [64, 5])  # at 7 rays: 9 runs per block (last ragged), or 1
    def test_blocks_match_one_shot_estimate(self, monkeypatch, phases, runs, chunk_paths):
        monkeypatch.setattr(simulator, "_CHUNK_PATHS", chunk_paths)
        config = mc(runs=runs, rays=7, seed=2**64 - 5, phases=phases)
        est = wall_power_estimate(CFG, config)
        mean, se, refl = one_shot_estimate(CFG, config)
        assert est.mean_power_mw == pytest.approx(mean, rel=1e-12)
        assert est.std_error_mw == pytest.approx(se, rel=1e-12)
        assert est.mean_reflection_amplitude == pytest.approx(refl, rel=1e-12)

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
        with mock.patch.object(simulator, "_CHUNK_PATHS", runs * rays):
            whole = wall_power_estimate(CFG, config)
        with mock.patch.object(simulator, "_CHUNK_PATHS", chunk_paths):
            blocked = wall_power_estimate(CFG, config)
        assert blocked.mean_power_mw == pytest.approx(whole.mean_power_mw, rel=1e-12)
        assert blocked.std_error_mw == pytest.approx(whole.std_error_mw, rel=1e-12)
        assert blocked.mean_reflection_amplitude == pytest.approx(whole.mean_reflection_amplitude, rel=1e-12)

    @pytest.mark.parametrize("phases", ["geometric", "uniform"])
    def test_memory_is_flat_in_n_runs(self, phases):
        tracemalloc.start()
        try:
            wall_power_estimate(CFG, MonteCarloConfig(n_runs=200_000, ray_phases=phases))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestIrsGain:
    def test_one_geometry_per_point(self, monkeypatch):
        # the geometry and LoS budget are built once and handed to the wall
        # estimate, which is still called through the module with (cfg, mc)
        built, walls = [], []
        geometry, wall = ScenarioConfig.geometry, simulator.wall_power_estimate
        monkeypatch.setattr(ScenarioConfig, "geometry", lambda cfg: built.append(cfg) or geometry(cfg))
        monkeypatch.setattr(
            simulator, "wall_power_estimate", lambda *args: walls.append(args[:2]) or wall(*args)
        )
        config = mc(runs=10)
        irs_gain(CFG, config)
        assert built == [CFG]
        assert walls == [(CFG, config)]

    def test_gain_result_invariants(self):
        res = irs_gain(CFG, mc(runs=500))
        assert res.gain_db == pytest.approx(
            10.0 * math.log10(res.gamma_irs**2 / res.mean_wall_power_mw), rel=1e-12
        )
        assert res.std_error_db >= 0.0
        assert res.gamma_irs >= res.los_amplitude
        assert res.gamma_irs == pytest.approx(res.los_amplitude + res.irs_sum_amplitude, rel=1e-12)

    def test_equal_losses_and_matched_rays_give_zero_db(self, monkeypatch):
        # same reflection loss, rays pinned to the element positions, geometric
        # phases on both sides: numerator and denominator coincide
        cfg = replace(CFG, pl_wall_db=CFG.pl_irs_db)
        geom = cfg.geometry()
        pin_scatter_points(monkeypatch, geom.elements)
        est = wall_power_estimate(cfg, mc(runs=10, rays=100))
        refl = ReflectionParams(cfg.pl_irs_db, cfg.pl_wall_db)
        coeffs = [los_coefficient(geom, cfg, cfg, cfg.p_t_dbm)] + [
            element_coefficient(k, geom, cfg, cfg, cfg.p_t_dbm, refl, PHASE_GEOMETRIC)
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
        gamma = irs_amplitude(CFG)
        geom = CFG.geometry()
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
