import math
import os
import subprocess
import sys
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

import irslink
from irslink import experiments
from irslink.cli import main
from irslink.errors import DegenerateGeometryError, InvalidParameterError
from irslink.experiments import (
    SweepSpec,
    _golden_min,
    apply_parameter,
    default_h_uav_grid,
    default_l_grid,
    optimal_distance,
    run_sweep,
)
from irslink.scenario import MonteCarloConfig, ScenarioConfig
from irslink.simulator import irs_gain

CFG = ScenarioConfig()
MC = MonteCarloConfig(n_runs=400, ray_phases="uniform")


class TestApplyParameter:
    def test_k_maps_to_near_square_lattice(self):
        cfg = apply_parameter(CFG, "k", 50)
        assert (cfg.irs_rows, cfg.irs_cols) == (5, 10)

    def test_l_keeps_uav_at_midpoint(self):
        cfg = apply_parameter(CFG, "l", 80.0)
        assert cfg.geometry().uav.x == 40.0

    def test_l_respects_pinned_uav(self):
        cfg = apply_parameter(replace(CFG, uav_x_m=25.0), "l", 80.0)
        assert cfg.geometry().uav.x == 25.0

    def test_unknown_parameter_rejected(self):
        with pytest.raises(InvalidParameterError):
            apply_parameter(CFG, "pitch", 1.0)

    def test_non_integer_k_rejected(self):
        with pytest.raises(InvalidParameterError):
            apply_parameter(CFG, "k", 50.5)


class TestRunSweep:
    def test_single_point_equals_direct_call(self):
        spec = SweepSpec("h_uav", (50.0,), CFG, MC)
        row = run_sweep(spec).rows[0]
        assert row.result == irs_gain(CFG, MC)

    def test_grid_cardinality_and_order(self):
        spec = SweepSpec("k", (25, 50, 75, 100), CFG, MC, "h_uav", (30.0, 40.0, 50.0))
        result = run_sweep(spec)
        assert len(result.rows) == 12
        assert [r.overlay_value for r in result.rows[:4]] == [30.0] * 4
        assert [r.value for r in result.rows[:4]] == [25, 50, 75, 100]

    def test_deterministic_rerun(self):
        spec = SweepSpec("h_uav", (20.0, 30.0, 50.0), CFG, MC)
        assert run_sweep(spec) == run_sweep(spec)

    def test_threads_do_not_change_results(self):
        spec = SweepSpec("h_uav", tuple(default_h_uav_grid()[:6]), CFG, MC)
        assert run_sweep(spec, threads=4).rows == run_sweep(spec, threads=1).rows

    @settings(derandomize=True, database=None, max_examples=12, deadline=None)
    @given(
        sweep=st.sampled_from([
            ("h_uav", st.floats(2.0, 300.0)),
            ("l", st.floats(5.0, 150.0)),
            ("k", st.integers(1, 400)),
        ]).flatmap(lambda s: st.tuples(st.just(s[0]), st.lists(s[1], min_size=1, max_size=5, unique=True))),
        runs=st.integers(1, 300),
        seed=st.integers(0, 2**64 - 1),
        phases=st.sampled_from(["geometric", "uniform"]),
    )
    def test_two_threads_give_the_rows_of_one(self, sweep, runs, seed, phases):
        parameter, values = sweep
        mc = MonteCarloConfig(n_runs=runs, master_seed=seed, ray_phases=phases)
        spec = SweepSpec(parameter, tuple(sorted(values)), CFG, mc)
        assert run_sweep(spec, threads=2).rows == run_sweep(spec, threads=1).rows

    def test_metadata_records_k_factorisations(self):
        spec = SweepSpec("k", (25, 50), CFG, MC)
        meta = run_sweep(spec).metadata
        assert meta["k_factorizations"] == {25: [5, 5], 50: [5, 10]}
        # the grid only: the configs are recorded once, by the run manifest
        assert set(meta) == {"parameter", "values", "overlay_parameter", "overlay_values", "k_factorizations"}

    def test_gain_increases_with_k_for_each_overlay(self):
        spec = SweepSpec("k", (25, 50, 100), CFG, MC, "h_uav", (30.0, 50.0))
        result = run_sweep(spec)
        for ov in (30.0, 50.0):
            gains = [r.result.gain_db for r in result.rows if r.overlay_value == ov]
            assert gains == sorted(gains)

    def test_series_groups_rows_by_overlay(self):
        result = run_sweep(SweepSpec("k", (25, 50), CFG, MC, "h_uav", (30.0, 50.0)))
        gains = [r.result.gain_db for r in result.rows]
        assert result.series() == {30.0: ([25, 50], gains[:2]), 50.0: ([25, 50], gains[2:])}
        single = run_sweep(SweepSpec("h_uav", (30.0,), CFG, MC))
        assert single.series() == {None: ([30.0], [single.rows[0].result.gain_db])}

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            SweepSpec("h_uav", (), CFG, MC)
        with pytest.raises(InvalidParameterError):
            SweepSpec("h_uav", (30.0, 20.0), CFG, MC)
        with pytest.raises(InvalidParameterError):
            SweepSpec("h_uav", (20.0,), CFG, MC, "l", (35.0, 35.0))
        with pytest.raises(InvalidParameterError):
            SweepSpec("bogus", (1.0,), CFG, MC)
        with pytest.raises(InvalidParameterError):
            SweepSpec("l", (40.0, 50.0), CFG, MC, "l", (60.0, 70.0))


class TestComponentAmplitudes:
    def test_matches_gain_result(self):
        first = irs_gain(CFG, MC)
        los, wall, irs = first.los_amplitude, first.mean_wall_reflection_amplitude, first.irs_sum_amplitude
        res = irs_gain(CFG, MC)
        assert (los, wall, irs) == (
            res.los_amplitude,
            res.mean_wall_reflection_amplitude,
            res.irs_sum_amplitude,
        )

    def test_no_rays_zeroes_the_wall_component(self):
        res = irs_gain(CFG, MonteCarloConfig(n_runs=10, n_rays=0))
        los, wall, irs = res.los_amplitude, res.mean_wall_reflection_amplitude, res.irs_sum_amplitude
        assert wall == 0.0
        assert los > 0.0 and irs > 0.0


class TestOptimalDistance:
    def test_single_point_grid(self):
        l_star, gain = optimal_distance(CFG, [42.0], MC)
        assert l_star == 42.0
        assert gain == pytest.approx(irs_gain(apply_parameter(CFG, "l", 42.0), MC).gain_db)

    def test_tie_breaks_toward_smaller_l(self):
        # no reflector elements, no rays, UAV pinned: the gain is flat in L
        base = replace(CFG, irs_rows=0, irs_cols=0, uav_x_m=25.0)
        flat_mc = MonteCarloConfig(n_runs=1, n_rays=0)
        for refine in (False, True):
            l_star, gain = optimal_distance(base, [40.0, 50.0, 60.0], flat_mc, refine=refine)
            assert l_star == 40.0
            assert gain == 0.0

    def test_default_grid_argmax_near_55_boresight(self):
        # boresight from the BS (25 m) meets a 10 m wall centre near L = 56;
        # the distance terms pull the optimum slightly lower
        l_star, _ = optimal_distance(CFG, default_l_grid(), MC)
        assert abs(l_star - 50.0) <= 5.0

    def test_refinement_stays_inside_bracket_and_improves(self):
        grid = [40.0, 45.0, 50.0, 55.0, 60.0]
        l_coarse, g_coarse = optimal_distance(CFG, grid, MC)
        l_fine, g_fine = optimal_distance(CFG, grid, MC, refine=True)
        assert grid[0] <= l_fine <= grid[-1]
        assert g_fine >= g_coarse

    def test_right_neighbour_tie_skips_refinement(self, monkeypatch):
        # gain rises up to L = 50 and is flat beyond: no bracket, no golden step
        calls = []

        def plateau(cfg, mc):
            calls.append(cfg.l_m)
            return SimpleNamespace(gain_db=min(cfg.l_m, 50.0))

        monkeypatch.setattr(experiments, "irs_gain", plateau)
        assert optimal_distance(CFG, [40.0, 50.0, 60.0], MC, refine=True) == (50.0, 50.0)
        assert calls == [40.0, 50.0, 60.0]

    def test_refinement_errors_propagate(self, monkeypatch):
        def on_grid_only(cfg, mc):
            if cfg.l_m % 5:
                raise DegenerateGeometryError("off-grid L")
            return SimpleNamespace(gain_db=-abs(cfg.l_m - 52.0))

        monkeypatch.setattr(experiments, "irs_gain", on_grid_only)
        with pytest.raises(DegenerateGeometryError):
            optimal_distance(CFG, [45.0, 50.0, 55.0], MC, refine=True)

    def test_refined_search_matches_cli_summary(self, tmp_path, capsys):
        l_star, gain = optimal_distance(CFG, default_l_grid(), replace(MC, n_runs=200, master_seed=3), refine=True)
        code = main(["optimize", "--refine", "--ray-phases", "uniform", "--n-runs", "200", "--seed", "3",
                     "--out", str(tmp_path / "o.csv")])
        assert code == 0
        assert capsys.readouterr().out == f"l_star = {l_star:.6g}, gain_db = {gain:.6g}\n"

    def test_empty_and_unsorted_grids_rejected(self):
        with pytest.raises(InvalidParameterError):
            optimal_distance(CFG, [], MC)
        with pytest.raises(InvalidParameterError):
            optimal_distance(CFG, [50.0, 40.0], MC)


def test_default_grids():
    h = default_h_uav_grid()
    assert h[0] == 20.0 and h[-1] == 150.0
    assert 21.0 in h and 29.0 in h and 140.0 in h
    assert default_l_grid() == [float(l) for l in range(10, 101, 5)]


def _count_gain_calls(monkeypatch) -> list:
    calls = []

    def counted(cfg, mc):
        calls.append(cfg.l_m)
        return irs_gain(cfg, mc)

    monkeypatch.setattr(experiments, "irs_gain", counted)
    return calls


class TestGoldenSection:
    @pytest.mark.parametrize("f, bracket", [
        (lambda x: (x - 2.3) ** 2, (0.0, 1.0, 5.0)),
        (lambda x: -math.sin(x), (0.0, 1.5, 2.0)),
    ])
    def test_analytic_matches_scipy(self, f, bracket):
        x, fx = _golden_min(f, *bracket, f(bracket[1]))
        assert x == optimize.golden(f, brack=bracket)
        assert fx == f(x)

    @pytest.mark.parametrize("seed", [3, 11])
    def test_default_grid_bracket_matches_scipy(self, seed):
        mc = replace(MC, master_seed=seed)
        grid = default_l_grid()

        def neg_gain(l):
            return -irs_gain(apply_parameter(CFG, "l", l), mc).gain_db

        fs = [neg_gain(l) for l in grid]
        best = fs.index(min(fs))
        bracket = (grid[best - 1], grid[best], grid[best + 1])
        assert fs[best] < fs[best - 1] and fs[best] < fs[best + 1]
        x, fx = _golden_min(neg_gain, *bracket, fs[best])
        assert x == optimize.golden(neg_gain, brack=bracket)
        assert fx == neg_gain(x)

    def test_optimal_distance_evaluates_each_l_once(self, monkeypatch):
        calls = _count_gain_calls(monkeypatch)
        l_star, gain = optimal_distance(CFG, default_l_grid(), MC, refine=True)
        assert len(calls) == len(set(calls)) > len(default_l_grid())
        assert l_star in calls and l_star not in default_l_grid()

    def test_cli_optimize_evaluates_each_l_once(self, monkeypatch, tmp_path, capsys):
        calls = _count_gain_calls(monkeypatch)
        code = main(["optimize", "--refine", "--n-runs", "200", "--out", str(tmp_path / "o.csv")])
        capsys.readouterr()
        assert code == 0
        assert len(calls) == len(set(calls)) > len(default_l_grid())
        assert calls[:len(default_l_grid())] == default_l_grid()


def test_cli_import_leaves_scipy_out():
    src = os.path.dirname(os.path.dirname(irslink.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", "import sys, irslink.cli; print('scipy' in sys.modules)"],
                         env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"
