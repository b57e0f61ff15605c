"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see every line.

Monte Carlo criteria run the wall baseline in "uniform" ray-phase mode (the
documented switch, recorded in run manifests and sweep metadata): the default
"geometric" mode leaves the 20 rays partially coherent over the small patch,
which distorts the structural comparisons these criteria make at tight
tolerances.  Criteria 4 and 5 state targets the implemented link-budget model
does not produce under either baseline mode; they are asserted as stated and
fail with the measured values in the message (see the assertion text and
README for the quantitative analysis).
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from irslink.cli import main as cli_main
from irslink.experiments import SweepSpec, default_l_grid, optimal_distance, run_sweep
from irslink.propagation import pl_los, pl_nlos, vertical_gain
from irslink.scenario import MonteCarloConfig, ScenarioConfig
from irslink.simulator import irs_gain
from scalar_reference import ChannelCoefficient, combine, pl_bs_to_element, pl_element_to_uav

CFG = ScenarioConfig()
MC = MonteCarloConfig(ray_phases="uniform")  # 10,000 runs, 20 rays, seed 42

H_GRID = tuple([float(h) for h in range(20, 31)] + [float(h) for h in range(40, 151, 10)])


def report(criterion: int, ok: bool, detail: str) -> str:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return line


@pytest.fixture(scope="module")
def h_sweep():
    return run_sweep(SweepSpec("h_uav", H_GRID, CFG, MC))


def test_criterion_1_hand_value_unit_suite():
    pl2 = ScenarioConfig(f_ghz=2.0)
    checks = [
        ("pl_los(100m)", pl_los(100.0, pl2), 78.0206),
        ("pl_nlos(100m, 50m)", pl_nlos(100.0, 50.0, pl2), 89.177),
        ("vertical_gain(25deg)", vertical_gain(25.0, CFG), -12.0),
    ]
    errs = {name: abs(got - want) for name, got, want in checks}
    ok = all(e <= 1e-3 for e in errs.values())
    line = report(1, ok, ", ".join(f"{n} err={e:.2e} dB" for n, e in errs.items()) + ", tol 1e-3")
    assert ok, line


def test_criterion_2_segment_composition_identity():
    # the scalar reference's two segments against the library's end-to-end loss
    rng = np.random.default_rng(20240811)
    worst = 0.0
    for _ in range(10_000):
        d1 = rng.uniform(0.1, 200.0)
        d2 = rng.uniform(0.1, 200.0)
        h = rng.uniform(1.0, 150.0)
        params = ScenarioConfig(f_ghz=rng.uniform(0.5, 6.0))
        total = pl_bs_to_element(d1, h, params) + pl_element_to_uav(d1, d2, h, params)
        worst = max(worst, abs(total - pl_nlos(d1 + d2, h, params)))
    ok = worst <= 1e-9
    line = report(2, ok, f"worst composition error {worst:.2e} dB over 1e4 triples, tol 1e-9")
    assert ok, line


def test_criterion_3_k_squared_scaling():
    g100 = irs_gain(CFG, MC).gain_db
    g50 = irs_gain(replace(CFG, irs_rows=5, irs_cols=10), MC).gain_db
    delta = g100 - g50
    ok = abs(delta - 6.02) <= 0.5
    line = report(3, ok, f"gain(K=100) - gain(K=50) = {delta:.3f} dB, required 6.02 +/- 0.5")
    assert ok, line


def test_criterion_4_absolute_gain(tmp_path, capsys):
    # through the CLI so the run manifest records the baseline mode used
    out = tmp_path / "gain.csv"
    code = cli_main(["gain", "--ray-phases", "uniform", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    manifest = json.loads((tmp_path / "gain.csv.manifest.json").read_text())
    assert manifest["ray_phases"] == "uniform"  # baseline mode is recorded
    gain_uniform = float(out.read_text().splitlines()[1].split(",")[1])
    gain_geometric = irs_gain(CFG, MonteCarloConfig()).gain_db
    ok = abs(gain_uniform - 21.0) <= 3.0
    line = report(
        4,
        ok,
        f"gain at defaults = {gain_uniform:.2f} dB uniform / {gain_geometric:.2f} dB geometric, "
        "required 21 +/- 3; full per-ray link budgets over a patch spanning ~1.2 wavelengths "
        "put the coherent reflector sum ~34 dB above the randomised wall baseline",
    )
    assert ok, line


def test_criterion_5_main_lobe_edge_saturation(h_sweep):
    gains = {row.value: row.result.gain_db for row in h_sweep.rows}
    rise = gains[30.0] - gains[20.0]
    plateau = [g for h, g in gains.items() if h >= 30.0]
    spread = max(plateau) - min(plateau)
    ok = rise >= 15.0 and spread <= 2.0
    line = report(
        5,
        ok,
        f"rise 20->30 m = {rise:.2f} dB (need >= 15), plateau spread 30-150 m = {spread:.2f} dB "
        "(need <= 2); the reflected paths dominate the numerator at every height, so the "
        "LoS antenna-pattern cliff moves the gain by far less than the stated thresholds",
    )
    assert ok, line


def test_criterion_6_constant_reflector_wall_gap(h_sweep):
    gaps = [
        20.0 * math.log10(row.result.irs_sum_amplitude / row.result.mean_wall_reflection_amplitude)
        for row in h_sweep.rows
    ]
    spread = max(gaps) - min(gaps)
    ok = spread <= 0.5
    line = report(6, ok, f"reflector-wall amplitude gap spread {spread:.4f} dB over H=20..150 m, tol 0.5")
    assert ok, line


def test_criterion_7_optimal_placement():
    grid = default_l_grid()
    l10, _ = optimal_distance(CFG, grid, MC)
    l5, _ = optimal_distance(replace(CFG, h_irs_m=5.0), grid, MC)
    ok = abs(l10 - 50.0) <= 5.0 and abs(l5 - 70.0) <= 5.0
    line = report(7, ok, f"l* = {l10:g} m at h_irs=10 (want 50 +/- 5), {l5:g} m at h_irs=5 (want 70 +/- 5)")
    assert ok, line


def test_criterion_8_placement_invariant_to_uav_height():
    grid = default_l_grid()
    stars = {
        h: optimal_distance(replace(CFG, h_uav_m=h), grid, MC)[0] for h in (30.0, 50.0, 100.0)
    }
    spread = max(stars.values()) - min(stars.values())
    ok = spread <= 5.0  # one grid step
    line = report(8, ok, f"l* by UAV height {stars}, spread {spread:g} m, tol one 5 m grid step")
    assert ok, line


def test_criterion_9_frequency_invariance():
    gains = {f: irs_gain(replace(CFG, f_ghz=f), MC).gain_db for f in (2.0, 4.0, 5.0)}
    spread = max(gains.values()) - min(gains.values())

    # exact per-path frequency-shift identity
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(500):
        d = rng.uniform(1.0, 300.0)
        f1, f2 = rng.uniform(0.5, 6.0, 2)
        shift = 20.0 * math.log10(f2 / f1)
        worst = max(worst, abs(pl_los(d, ScenarioConfig(f_ghz=f2)) - pl_los(d, ScenarioConfig(f_ghz=f1)) - shift))
        worst = max(
            worst,
            abs(pl_nlos(d, 50.0, ScenarioConfig(f_ghz=f2)) - pl_nlos(d, 50.0, ScenarioConfig(f_ghz=f1)) - shift),
        )
    ok = spread <= 0.5 and worst <= 1e-9
    line = report(
        9, ok, f"gain spread over 2/4/5 GHz = {spread:.3f} dB (tol 0.5), shift-identity error {worst:.1e} dB"
    )
    assert ok, line


def test_criterion_10_alignment_optimality_and_determinism(tmp_path, capsys):
    rng = np.random.default_rng(7)
    dominated = True
    for _ in range(10):
        amps = rng.uniform(0.0, 2.0, rng.integers(2, 30))
        aligned = combine([ChannelCoefficient(a, 1.0) for a in amps])
        for _ in range(100):
            phases = rng.uniform(0.0, 2.0 * math.pi, len(amps))
            other = combine([ChannelCoefficient(a, p) for a, p in zip(amps, phases)])
            dominated &= other <= aligned + 1e-12

    args = ["sweep", "--sweep", "h-uav", "--values", "20:150:10", "--seed", "123",
            "--ray-phases", "uniform"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(args + ["--out", str(a)]) == 0
    assert cli_main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    identical = a.read_bytes() == b.read_bytes()
    ok = dominated and identical
    line = report(
        10, ok, f"aligned combine dominates 1000 random phase sets: {dominated}, "
        f"repeated sweep CSVs byte-identical: {identical}"
    )
    assert ok, line
