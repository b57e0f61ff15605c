import math
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

import irslink
from irslink import cli, experiments, rng, simulator
from irslink.cli import main
from irslink.errors import DegenerateGeometryError, InvalidParameterError
from irslink.experiments import (
    SWEEPABLE,
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


def l_sweep(cfg, grid, mc, threads=1):
    """The evaluated l sweep that optimal_distance searches."""
    return run_sweep(SweepSpec("l", tuple(grid), cfg, mc), threads)


class TestApplyParameter:
    def test_k_maps_to_near_square_lattice(self):
        cfg = apply_parameter(CFG, "k", 50)
        assert (cfg.irs_rows, cfg.irs_cols) == (5, 10)

    def test_l_keeps_uav_at_midpoint(self):
        cfg = apply_parameter(CFG, "l", 80.0)
        assert cfg.uav.x == 40.0

    def test_l_respects_pinned_uav(self):
        cfg = apply_parameter(replace(CFG, uav_x_m=25.0), "l", 80.0)
        assert cfg.uav.x == 25.0

    def test_unknown_parameter_rejected(self):
        with pytest.raises(InvalidParameterError):
            apply_parameter(CFG, "pitch", 1.0)

    @pytest.mark.parametrize("k", [50.5, float("nan"), float("inf"), float("-inf")])
    def test_non_integer_k_rejected(self, k):
        with pytest.raises(InvalidParameterError):  # not the ValueError/OverflowError of int(nan)/int(inf)
            apply_parameter(CFG, "k", k)


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
        spec = SweepSpec("h_uav", tuple(default_h_uav_grid()[:6]), CFG, replace(MC, n_runs=5000))  # 4 blocks
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
        with mock.patch.object(simulator, "_CHUNK_PATHS", 16 * mc.n_rays):  # up to 19 blocks on the pool
            assert run_sweep(spec, threads=2).rows == run_sweep(spec, threads=1).rows

    def test_metadata_records_k_factorisations(self):
        spec = SweepSpec("k", (25, 50), CFG, MC)
        result = run_sweep(spec)
        assert result.spec is spec
        meta = result.metadata
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
        with pytest.raises(InvalidParameterError, match="unknown overlay parameter"):
            SweepSpec("h_uav", (20.0,), CFG, MC, "bogus", (1.0,))
        with pytest.raises(InvalidParameterError, match="overlay values must be non-empty"):
            SweepSpec("h_uav", (20.0,), CFG, MC, "l", ())

    def test_overlay_values_need_an_overlay_parameter(self):
        # run_sweep would ignore them, and metadata would record them beside no parameter
        with pytest.raises(InvalidParameterError, match="overlay parameter"):
            SweepSpec("l", (10.0, 20.0), CFG, MC, None, (1.0, 2.0))


# values of each sweepable parameter inside the model's valid ranges (the
# reflector stays at or below the 25 m BS)
_VALUES = {
    "k": st.integers(1, 400),
    "h_uav": st.floats(2.0, 300.0),
    "l": st.floats(5.0, 150.0),
    "h_irs": st.floats(1.0, 25.0),
    "f": st.floats(0.7, 40.0),
}


@st.composite
def _batched_sweeps(draw):
    """A sweep spec over any sweepable parameter, with or without an overlay of
    another one.  Along the grid the sharing keys then change at every point
    (k, h_irs: the patch; l: the BS side), stay put (h_uav, f), or return to
    an earlier value at an overlay boundary."""
    parameter = draw(st.sampled_from(sorted(SWEEPABLE)))
    values = sorted(draw(st.lists(_VALUES[parameter], min_size=1, max_size=4, unique=True)))
    overlay = draw(st.none() | st.sampled_from(sorted(set(SWEEPABLE) - {parameter})))
    overlay_values = () if overlay is None else tuple(
        draw(st.lists(_VALUES[overlay], min_size=1, max_size=3, unique=True)))
    mc = MonteCarloConfig(n_runs=draw(st.integers(1, 60)), n_rays=draw(st.integers(1, 8)),
                          master_seed=draw(st.integers(0, 2**64 - 1)),
                          ray_phases=draw(st.sampled_from(["geometric", "uniform"])))
    return SweepSpec(parameter, tuple(values), CFG, mc, overlay, overlay_values)


class TestSweepBatches:
    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(spec=_batched_sweeps(), chunk_paths=st.integers(1, 200), threads=st.sampled_from([1, 2, 3]))
    def test_each_row_is_its_point_evaluated_alone(self, spec, chunk_paths, threads):
        # whatever its neighbours in the batch, a point keeps the bits of a
        # one-point call; ragged blocks make the last block of every point short
        with mock.patch.object(simulator, "_CHUNK_PATHS", chunk_paths):
            rows = run_sweep(spec, threads=threads).rows
            for row in rows:
                cfg = spec.base
                if row.overlay_value is not None:
                    cfg = apply_parameter(cfg, spec.overlay_parameter, row.overlay_value)
                assert row.result == irs_gain(apply_parameter(cfg, spec.parameter, row.value), spec.mc)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_default_sweep_draws_each_block_once(self, monkeypatch, request, threads):
        # 10,000 runs of 20 rays are 7 blocks of 1,638 runs: one draw and one
        # array pattern evaluation per block for the whole 23-point sweep at
        # any thread count, every pool task a block, and still one gain call
        # per point with (cfg, mc) first
        draws, patterns, gains, tasks = [], [], [], []
        uniform_block, vertical_gain, gain = rng.uniform_block, simulator.vertical_gain, experiments.irs_gain
        monkeypatch.setattr(rng, "uniform_block", lambda *a, **k: draws.append(a[0].size) or uniform_block(*a, **k))
        monkeypatch.setattr(simulator, "vertical_gain",
                            lambda theta, *a, **k: patterns.append(np.ndim(theta)) or vertical_gain(theta, *a, **k))
        monkeypatch.setattr(experiments, "irs_gain", lambda *a: gains.append(a[:2]) or gain(*a))

        class Recording(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):  # fn is a context's run, args[0] the task
                tasks.append(args[0])
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(simulator, "ThreadPoolExecutor", Recording)
        simulator._kept_pool.cache_clear()
        request.addfinalizer(simulator._kept_pool.cache_clear)  # the patched pool is this test's alone
        mc = MonteCarloConfig()
        spec = SweepSpec("h_uav", tuple(default_h_uav_grid()), CFG, mc)
        run_sweep(spec, threads=threads)
        assert sorted(draws) == sorted([1638] * 6 + [10_000 - 6 * 1638])  # blocks finish in any order
        assert patterns.count(2) == 7  # wall blocks; the lattices' are 1-D, the LoS scalar
        assert gains == [(apply_parameter(CFG, "h_uav", h), mc) for h in default_h_uav_grid()]
        assert len(tasks) == (7 if threads > 1 else 0)
        assert all(task.func is simulator._wall_block for task in tasks)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_each_point_builds_one_los_budget(self, monkeypatch, threads):
        # the batch resolves each point's LoS budget once, and the gain takes
        # its amplitude from the point's wall estimate
        built = []
        los = simulator._los_amp_phase
        monkeypatch.setattr(simulator, "_los_amp_phase", lambda cfg: built.append(cfg.h_uav_m) or los(cfg))
        grid = tuple(default_h_uav_grid())
        run_sweep(SweepSpec("h_uav", grid, CFG, replace(MC, n_runs=50)), threads=threads)
        assert sorted(built) == list(grid)


def _record_block_threads(monkeypatch) -> list:
    """Patch the wall kernel's block function to record the thread of each block."""
    threads = []
    block = simulator._wall_block
    monkeypatch.setattr(simulator, "_wall_block",
                        lambda *args: threads.append(threading.current_thread()) or block(*args))
    return threads


class TestThreadPool:
    def test_pool_is_kept_across_calls(self, monkeypatch):
        # the second call uses the first call's pool, and every block runs on
        # one of its threads (Thread objects, not idents, which the OS may hand
        # to a new thread).  The pool starts its threads lazily, so the first
        # call may have run both blocks on one of them.
        threads = _record_block_threads(monkeypatch)
        spec = SweepSpec("h_uav", (30.0, 40.0, 50.0, 60.0), CFG, replace(MC, n_runs=2000))  # 2 blocks
        run_sweep(spec, threads=2)
        pool = simulator._kept_pool(2)
        run_sweep(spec, threads=2)
        assert simulator._kept_pool(2) is pool
        assert len(threads) == 4 and set(threads) <= pool._threads  # 2 blocks per call
        assert threading.main_thread() not in pool._threads

    def test_threads_are_bounded_across_calls(self, monkeypatch):
        # calls of 2 and 7 blocks at threads=3 share the one pool of 3 threads,
        # whatever their block counts, so their blocks run on at most 3
        # threads (3 workspaces), and each call gives the bits of one thread
        mcs = [replace(MC, n_runs=n) for n in (2000, 10_000)]  # 2 and 7 blocks
        expected = [simulator.wall_power_estimates([CFG], mc) for mc in mcs]
        threads = _record_block_threads(monkeypatch)
        for _ in range(5):
            for mc, one in zip(mcs, expected):
                assert simulator.wall_power_estimates([CFG], mc, threads=3) == one
        assert len(threads) == 5 * (2 + 7)
        assert len(set(threads)) <= 3 and threading.main_thread() not in threads

    def test_a_failing_block_ends_the_call(self, monkeypatch):
        # the error reaches the caller, no block past the in-flight window
        # starts, and the same pool then gives the next call the bits of one
        # thread.  Blocks 3 on wait until the error is out, so both threads
        # are busy while block 5, the window's last, is still queued: only
        # the cancel on error keeps it from starting
        monkeypatch.setattr(simulator, "_CHUNK_PATHS", 5 * MC.n_rays)  # blocks of 5 runs
        mc = replace(MC, n_runs=50)  # 10 blocks
        expected = simulator.wall_power_estimates([CFG], mc)
        started, raised, block = [], threading.Event(), simulator._wall_block

        def failing(scene, mc, size, kept, first):
            started.append(first // size)
            if first == 2 * size:
                raise FloatingPointError("block 2")
            if first > 2 * size:
                raised.wait(timeout=60)
            return block(scene, mc, size, kept, first)

        monkeypatch.setattr(simulator, "_wall_block", failing)
        with pytest.raises(FloatingPointError, match="block 2"):
            simulator.wall_power_estimates([CFG], mc, threads=2)
        raised.set()
        pool = simulator._kept_pool(2)
        monkeypatch.setattr(simulator, "_wall_block", block)
        assert simulator.wall_power_estimates([CFG], mc, threads=2) == expected
        assert simulator._kept_pool(2) is pool
        # blocks 0 and 1 were taken before block 2 raised, so 2 to 5 were in
        # flight; the pool ran its tasks in order, so any left would have
        # started before the call above finished
        assert 2 in started and set(started) <= {0, 1, 2, 3, 4} and len(started) == len(set(started))

    @pytest.mark.parametrize("threads", [2, 3])
    def test_sweep_started_off_the_main_thread_finishes(self, monkeypatch, threads):
        # a sweep's blocks are the pool's only tasks and none waits on the
        # pool, so a sweep of many blocks started from a thread that is not
        # main cannot deadlock, and gives the rows of one thread
        monkeypatch.setattr(simulator, "_CHUNK_PATHS", 5 * MC.n_rays)  # 10 blocks per batch
        spec = SweepSpec("h_uav", tuple(default_h_uav_grid()[:7]), CFG, replace(MC, n_runs=50))
        rows = []
        worker = threading.Thread(target=lambda: rows.extend(run_sweep(spec, threads=threads).rows), daemon=True)
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert rows == list(run_sweep(spec, threads=1).rows)

    def test_one_block_starts_no_thread(self, monkeypatch, capsys):
        # workers are min(threads, blocks): 100 runs are one block
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was made for one block")

        monkeypatch.setattr(simulator, "ThreadPoolExecutor", no_pool)
        before, count = set(threading.enumerate()), threading.active_count()
        assert main(["gain", "--threads", "256", "--n-runs", "100"]) == 0
        capsys.readouterr()
        # a pool replaced by an earlier test may still be retiring its threads
        assert threading.active_count() <= count and set(threading.enumerate()) <= before

    def test_at_most_two_tasks_per_thread_in_flight(self, monkeypatch, request):
        # blocks are submitted as results are taken, so memory is flat in n_runs
        submitted = []

        class Counting(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                submitted.append(None)
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(simulator, "ThreadPoolExecutor", Counting)
        simulator._kept_pool.cache_clear()
        request.addfinalizer(simulator._kept_pool.cache_clear)  # the patched pool is this test's alone
        taken = 0
        for value in simulator._pool_map(lambda x: x * x, range(100), 3):
            assert value == taken * taken
            taken += 1
            assert len(submitted) - taken <= 6
        assert len(submitted) == taken == 100

    def test_concurrent_callers_share_and_replace_the_pool(self):
        # callers that need 2 and 3 workers replace the pool under each other;
        # a replaced pool still finishes the blocks a caller gave it
        spec = SweepSpec("h_uav", (50.0,), CFG, replace(MC, n_runs=5000))  # 4 blocks
        expected = run_sweep(spec, threads=1).rows
        results, interval = [], sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=lambda t=t: results.extend(
                run_sweep(spec, threads=t).rows for _ in range(3)), daemon=True) for t in (2, 3) * 4]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert results == [expected] * 24

    @pytest.mark.parametrize("refine", [False, True])
    def test_optimal_distance_is_thread_invariant(self, refine):
        mc = replace(MC, n_runs=2000)  # two run blocks per golden-section point
        grid = l_sweep(CFG, default_l_grid(), mc)
        one = optimal_distance(grid, refine, threads=1)
        assert optimal_distance(grid, refine, threads=2) == one
        assert optimal_distance(grid, refine, threads=3) == one
        assert optimal_distance(l_sweep(CFG, default_l_grid(), mc, threads=3), refine) == one
        assert (one[0] in grid.spec.values) is not refine


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
        l_star, gain = optimal_distance(l_sweep(CFG, [42.0], MC))
        assert l_star == 42.0
        assert gain == pytest.approx(irs_gain(apply_parameter(CFG, "l", 42.0), MC).gain_db)

    def test_tie_breaks_toward_smaller_l(self):
        # no reflector elements, no rays, UAV pinned: the gain is flat in L
        base = replace(CFG, irs_rows=0, irs_cols=0, uav_x_m=25.0)
        flat_mc = MonteCarloConfig(n_runs=1, n_rays=0)
        for refine in (False, True):
            l_star, gain = optimal_distance(l_sweep(base, [40.0, 50.0, 60.0], flat_mc), refine=refine)
            assert l_star == 40.0
            assert gain == 0.0

    def test_default_grid_argmax_near_55_boresight(self):
        # boresight from the BS (25 m) meets a 10 m wall centre near L = 56;
        # the distance terms pull the optimum slightly lower
        l_star, _ = optimal_distance(l_sweep(CFG, default_l_grid(), MC))
        assert abs(l_star - 50.0) <= 5.0

    def test_refinement_stays_inside_bracket_and_improves(self):
        grid = [40.0, 45.0, 50.0, 55.0, 60.0]
        l_coarse, g_coarse = optimal_distance(l_sweep(CFG, grid, MC))
        l_fine, g_fine = optimal_distance(l_sweep(CFG, grid, MC), refine=True)
        assert grid[0] <= l_fine <= grid[-1]
        assert g_fine >= g_coarse

    def test_right_neighbour_tie_skips_refinement(self, monkeypatch):
        # gain rises up to L = 50 and is flat beyond: no bracket, no golden step
        calls = []

        def plateau(cfg, mc, wall=None):
            calls.append(cfg.l_m)
            return SimpleNamespace(gain_db=min(cfg.l_m, 50.0))

        monkeypatch.setattr(experiments, "irs_gain", plateau)
        assert optimal_distance(l_sweep(CFG, [40.0, 50.0, 60.0], MC), refine=True) == (50.0, 50.0)
        assert calls == [40.0, 50.0, 60.0]

    def test_refinement_errors_propagate(self, monkeypatch):
        def on_grid_only(cfg, mc, wall=None):
            if cfg.l_m % 5:
                raise DegenerateGeometryError("off-grid L")
            return SimpleNamespace(gain_db=-abs(cfg.l_m - 52.0))

        monkeypatch.setattr(experiments, "irs_gain", on_grid_only)
        with pytest.raises(DegenerateGeometryError):
            optimal_distance(l_sweep(CFG, [45.0, 50.0, 55.0], MC), refine=True)

    def test_refined_search_matches_cli_summary(self, tmp_path, capsys):
        grid = l_sweep(CFG, default_l_grid(), replace(MC, n_runs=200, master_seed=3))
        l_star, gain = optimal_distance(grid, refine=True)
        code = main(["optimize", "--refine", "--ray-phases", "uniform", "--n-runs", "200", "--seed", "3",
                     "--out", str(tmp_path / "o.csv")])
        assert code == 0
        assert capsys.readouterr().out == f"l_star = {l_star:.6g}, gain_db = {gain:.6g}\n"

    def test_empty_and_unsorted_grids_rejected(self):
        with pytest.raises(InvalidParameterError):
            optimal_distance(l_sweep(CFG, [], MC))
        with pytest.raises(InvalidParameterError):
            optimal_distance(l_sweep(CFG, [50.0, 40.0], MC))

    @pytest.mark.parametrize("spec", [
        SweepSpec("h_uav", (40.0, 50.0, 60.0), CFG, MC),
        SweepSpec("l", (40.0, 50.0, 60.0), CFG, MC, "h_irs", (5.0, 10.0)),
    ])
    def test_only_an_l_sweep_without_overlay_is_searched(self, spec):
        grid = run_sweep(spec)
        for refine in (False, True):
            with pytest.raises(InvalidParameterError, match="l sweep without overlay"):
                optimal_distance(grid, refine)

    @pytest.mark.parametrize("threads", [0, 257])
    @pytest.mark.parametrize("refine", [False, True])
    def test_threads_are_checked_on_entry(self, refine, threads):
        # the argmax of this grid is its last point, so nothing else would see threads
        grid = l_sweep(CFG, [10.0, 20.0, 30.0], replace(MC, n_runs=200))
        with pytest.raises(InvalidParameterError, match="threads must be in 1..256"):
            optimal_distance(grid, refine, threads)

    def test_cli_optimize_runs_the_one_search(self, monkeypatch, tmp_path):
        searched = []

        def search(grid, refine=False, threads=1, kept=None):
            searched.append((grid.spec.values, refine, threads, type(kept)))
            return optimal_distance(grid, refine, threads, kept)

        monkeypatch.setattr(cli, "optimal_distance", search)
        code = main(["optimize", "--refine", "--n-runs", "200", "--threads", "2", "--out", str(tmp_path / "o.csv")])
        assert code == 0
        assert searched == [(tuple(default_l_grid()), True, 2, simulator.KeptPlanes)]


def _optimize(tmp_path, capsys, *flags) -> tuple[str, str]:
    """(CSV, summary) of one in-process ``optimize --refine``."""
    out = tmp_path / "o.csv"
    assert main(["optimize", "--refine", *flags, "--out", str(out)]) == 0
    return out.read_text(encoding="utf-8"), capsys.readouterr().out


class TestKeptSearch:
    def test_default_search_draws_each_block_once(self, tmp_path, capsys, position_draws):
        # 10,000 runs are 7 blocks; the grid and the golden-section points of
        # the search share their scatter planes, so 7 position draws in all,
        # where a draw per block and call would be 7 x 36
        _optimize(tmp_path, capsys)
        assert sorted(position_draws) == sorted([1638] * 6 + [10_000 - 6 * 1638])

    def test_each_cli_call_draws_again(self, tmp_path, capsys, position_draws):
        # the planes belong to one search, not to the process
        first = _optimize(tmp_path, capsys, "--n-runs", "2000")
        assert len(position_draws) == 2
        assert _optimize(tmp_path, capsys, "--n-runs", "2000") == first
        assert len(position_draws) == 4

    def test_library_search_keeps_its_own_planes(self, monkeypatch, position_draws):
        # given no planes, optimal_distance keeps its golden points' own: one
        # draw per block for the whole golden-section search
        grid = l_sweep(CFG, default_l_grid(), replace(MC, n_runs=2000))
        position_draws.clear()
        calls = _count_gain_calls(monkeypatch)
        optimal_distance(grid, refine=True)
        assert len(calls) > 10 and len(position_draws) == 2

    # 50-run blocks: 120 runs end in a partial block, 475 runs are 10 blocks,
    # 2 past the budget of 8 kept ones, the last partial
    @pytest.mark.parametrize("n_runs", [120, 475])
    @pytest.mark.parametrize("phases", ["geometric", "uniform"])
    def test_kept_search_gives_the_rows_and_summary_of_a_search_without(self, monkeypatch, tmp_path, capsys,
                                                                         phases, n_runs):
        monkeypatch.setattr(simulator, "_CHUNK_PATHS", 50 * 20)
        flags = ["--l-grid", "30:70:5", "--ray-phases", phases, "--n-runs", str(n_runs), "--seed", "7"]
        with mock.patch.object(simulator, "_KEPT_BLOCKS", 0):  # every block drawn per call
            expected = _optimize(tmp_path, capsys, *flags)
        for threads in (1, 2, 3):
            assert _optimize(tmp_path, capsys, *flags, "--threads", str(threads)) == expected


def test_default_grids():
    h = default_h_uav_grid()
    assert h[0] == 20.0 and h[-1] == 150.0
    assert 21.0 in h and 29.0 in h and 140.0 in h
    assert default_l_grid() == [float(l) for l in range(10, 101, 5)]


def _count_gain_calls(monkeypatch) -> list:
    calls = []

    def counted(cfg, mc, wall=None):
        calls.append(cfg.l_m)
        return irs_gain(cfg, mc, wall)

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
        l_star, gain = optimal_distance(l_sweep(CFG, default_l_grid(), MC), refine=True)
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
