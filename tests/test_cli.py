import argparse
import json
import warnings
import xml.etree.ElementTree as ET
from dataclasses import replace

import pytest

from irslink import rng
from irslink.cli import _build_parser, _parse_overlay, main, parse_config_text
from irslink.errors import InvalidParameterError
from irslink.experiments import SWEEPABLE
from irslink.scenario import ScenarioConfig

HEADER = "gain_db,std_error_db,gamma_irs,los_amp,irs_sum_amp,wall_mean_amp,mean_wall_power_mw"

FAST = ["--n-runs", "200"]


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConfigParsing:
    def test_empty_file_yields_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("# nothing here\n\n")
        code, out, _ = run_cli(["gain", "--config", str(cfg)] + FAST, capsys)
        assert code == 0
        row = out.splitlines()[1].split(",")
        assert row[0] == "50"  # default UAV height

    def test_flag_overrides_file(self, tmp_path, capsys):
        cfg = tmp_path / "h.cfg"
        cfg.write_text("h_uav_m = 50\n")
        code, out, _ = run_cli(["gain", "--config", str(cfg), "--h-uav", "100"] + FAST, capsys)
        assert code == 0
        assert out.splitlines()[1].split(",")[0] == "100"

    def test_unknown_key_rejected_with_line_number(self):
        with pytest.raises(InvalidParameterError, match="line 3.*h_uav"):
            parse_config_text("f_ghz = 2\n\nh_uav = 50\n")

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(InvalidParameterError, match="line 2"):
            parse_config_text("f_ghz = 2\nbroken line\n")

    def test_comments_and_inline_comments(self):
        values = parse_config_text("# full comment\nl_m = 70  # inline\nmaster_seed = 9\n")
        assert values == {"l_m": 70.0, "master_seed": 9}

    def test_k_50_maps_to_5x10_without_rows(self, capsys):
        code, out, err = run_cli(["gain", "--k", "50"] + FAST, capsys)
        assert code == 0
        explicit = run_cli(["gain", "--irs-rows", "5", "--irs-cols", "10"] + FAST, capsys)
        assert explicit[0] == 0 and explicit[1] == out
        config = json.loads(err.strip().splitlines()[-1])["config"]
        assert (config["irs_rows"], config["irs_cols"]) == (5, 10)

    def test_k_50_accepted_with_rows_cols(self, capsys):
        code, _, _ = run_cli(["gain", "--k", "50", "--irs-rows", "5", "--irs-cols", "10"] + FAST, capsys)
        assert code == 0

    def test_inconsistent_k_rows_cols_rejected(self, capsys):
        code, _, err = run_cli(["gain", "--k", "50", "--irs-rows", "6", "--irs-cols", "9"] + FAST, capsys)
        assert code == 2
        assert "inconsistent" in err


class TestExitCodes:
    def test_validation_error_names_key(self, capsys):
        code, _, err = run_cli(["gain", "--h-uav", "0"] + FAST, capsys)
        assert code == 2
        assert "h_uav" in err

    def test_unknown_sweep_parameter(self, capsys):
        code = None
        with pytest.raises(SystemExit) as exc:  # argparse rejects bad choices itself
            main(["sweep", "--sweep", "pitch", "--values", "1:2:1"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_degenerate_geometry_is_exit_3(self, monkeypatch, capsys):
        # UAV pinned onto the BS position
        code, _, err = run_cli(
            ["gain", "--h-uav", "25", "--l", "50"] + FAST + ["--n-rays", "0"], capsys
        )
        assert code == 0  # midpoint UAV at BS height is *not* degenerate
        cfgfile_code, _, err = run_cli(["optimize", "--l-grid", "10:5:1"] + FAST, capsys)
        assert cfgfile_code == 2  # empty/invalid range

        # no flag can put the UAV on the BS, so move it there in the resolved scene
        geometry = ScenarioConfig.geometry

        def uav_on_bs(cfg):
            geom = geometry(cfg)
            return replace(geom, uav=geom.bs)

        monkeypatch.setattr(ScenarioConfig, "geometry", uav_on_bs)
        code, out, err = run_cli(["gain"] + FAST, capsys)
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    def test_non_finite_result_is_exit_3(self, capsys):
        # a vanishing carrier overflows the amplitudes: gain_db is nan
        sweep = ["sweep", "--sweep", "h-uav", "--values", "20:30:10", "--threads", "2"]
        for command in (["gain"], sweep):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # any warning fails the test, also in a sweep's worker threads
                code, out, err = run_cli(command + ["--f-ghz", "1e-300", "--n-runs", "100"], capsys)
            assert code == 3
            assert out == ""
            assert len(err.splitlines()) == 1 and err.startswith("error:")
            assert "non-finite" in err

    def test_out_of_memory_is_exit_2(self, monkeypatch, capsys):
        # stands in for any allocation that fails inside the kernel
        def no_memory(master_seed, n_runs):
            raise MemoryError(f"cannot allocate {n_runs} run seeds")

        monkeypatch.setattr(rng, "run_seeds", no_memory)
        code, out, err = run_cli(["gain", "--n-runs", "200"], capsys)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ["gain", "--n-runs", "1000000000000000"],
        ["sweep", "--sweep", "h-uav", "--values", "nan:nan:1"],
        ["sweep", "--sweep", "h-uav", "--values", "20:inf:1"],
        ["optimize", "--l-grid", "10:20:nan"],
        ["sweep", "--sweep", "h-uav", "--values", "20:30:10", "--threads", "0"],
        ["optimize", "--l-grid", "40:50:10", "--threads", "-5"],
    ])
    def test_rejected_inputs_are_exit_2(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)  # rejected before any point is evaluated
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    def test_success_is_exit_0(self, capsys):
        code, _, _ = run_cli(["gain"] + FAST, capsys)
        assert code == 0


class TestGainCommand:
    def test_header_and_single_row(self, capsys):
        code, out, err = run_cli(["gain"] + FAST, capsys)
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "param," + HEADER
        assert len(lines) == 2
        manifest = json.loads(err.strip().splitlines()[-1])
        assert manifest["generator"] == "splitmix64-counter-v1"
        assert manifest["ray_phases"] == "geometric"

    def test_no_rays_baseline_is_los_only(self, capsys):
        code, out, _ = run_cli(["gain", "--n-rays", "0"] + FAST, capsys)
        gain_db = float(out.splitlines()[1].split(",")[1])
        assert code == 0
        assert gain_db > 0.0


class TestSweepCommand:
    def test_overlay_grid_row_count(self, tmp_path, capsys):
        out_csv = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            ["sweep", "--sweep", "k", "--values", "25:100:25", "--overlay", "h-uav=30,40,50",
             "--out", str(out_csv)] + FAST,
            capsys,
        )
        lines = out_csv.read_text().splitlines()
        assert code == 0
        assert lines[0] == "param,overlay," + HEADER
        assert len(lines) == 13  # header + 4 values x 3 overlays

    def test_byte_identical_reruns(self, tmp_path, capsys):
        args = ["sweep", "--sweep", "h-uav", "--values", "20:60:10", "--seed", "7"] + FAST
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(args + ["--out", str(a)], capsys)[0] == 0
        assert run_cli(args + ["--out", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_threads_do_not_change_bytes(self, tmp_path, capsys):
        base = ["sweep", "--sweep", "h-uav", "--values", "20:60:10"] + FAST
        a, b = tmp_path / "t1.csv", tmp_path / "t4.csv"
        run_cli(base + ["--threads", "1", "--out", str(a)], capsys)
        run_cli(base + ["--threads", "4", "--out", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_svg_output_is_valid_with_one_polyline_per_overlay(self, tmp_path, capsys):
        svg = tmp_path / "plot.svg"
        code, _, _ = run_cli(
            ["sweep", "--sweep", "l", "--values", "35:70:35", "--overlay", "h-irs=5,10,15",
             "--out", str(tmp_path / "s.csv"), "--svg", str(svg)] + FAST,
            capsys,
        )
        assert code == 0
        root = ET.parse(svg).getroot()
        assert root.tag.endswith("svg")
        assert root.attrib.get("version") == "1.1"
        polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polylines) == 3

    def test_manifest_round_trip_reproduces_bytes(self, tmp_path, capsys):
        first = tmp_path / "first.csv"
        run_cli(["sweep", "--sweep", "h-uav", "--values", "20:40:10", "--h-irs", "5",
                 "--seed", "11", "--out", str(first)] + FAST, capsys)
        manifest = json.loads((tmp_path / "first.csv.manifest.json").read_text())

        cfg = manifest["config"]
        lines = [f"{key} = {cfg[key]}" for key in (
            "f_ghz", "p_t_dbm", "theta_etilt_deg", "pl_irs_db", "pl_wall_db",
            "h_bs_m", "h_uav_m", "h_irs_m", "irs_rows", "irs_cols", "l_m")]
        lines += [f"n_runs = {manifest['n_runs']}", f"n_rays = {manifest['n_rays']}",
                  f"master_seed = {manifest['master_seed']}"]
        cfg_file = tmp_path / "replay.cfg"
        cfg_file.write_text("\n".join(lines) + "\n")

        second = tmp_path / "second.csv"
        run_cli(["sweep", "--sweep", "h-uav", "--values", "20:40:10",
                 "--config", str(cfg_file), "--out", str(second)], capsys)
        assert first.read_bytes() == second.read_bytes()

    def test_sweep_and_overlay_names_are_the_sweepable_keys_hyphenated(self):
        names = sorted(name.replace("_", "-") for name in SWEEPABLE)
        commands = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        sweep_flag = next(a for a in commands.choices["sweep"]._actions if a.dest == "sweep")
        assert sweep_flag.choices == names
        assert [_parse_overlay(f"{name}=1")[0] for name in names] == sorted(SWEEPABLE)
        with pytest.raises(InvalidParameterError):
            _parse_overlay("h_uav=1")

    def test_default_h_uav_grid_used_when_values_absent(self, tmp_path, capsys):
        out_csv = tmp_path / "h.csv"
        code, _, _ = run_cli(["sweep", "--sweep", "h-uav", "--out", str(out_csv)] + FAST, capsys)
        assert code == 0
        assert len(out_csv.read_text().splitlines()) == 1 + 23  # 20..30 by 1, 40..150 by 10

    def test_values_required_for_k(self, capsys):
        code, _, err = run_cli(["sweep", "--sweep", "k"] + FAST, capsys)
        assert code == 2
        assert "--values" in err


class TestOptimizeCommand:
    def test_single_point_grid(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["optimize", "--l-grid", "42:42:1", "--out", str(tmp_path / "o.csv")] + FAST, capsys
        )
        assert code == 0
        assert out.startswith("l_star = 42")

    def test_grid_csv_written(self, tmp_path, capsys):
        out_csv = tmp_path / "grid.csv"
        run_cli(["optimize", "--l-grid", "40:60:10", "--out", str(out_csv)] + FAST, capsys)
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "param," + HEADER
        assert len(lines) == 4

    def test_six_significant_digits(self, tmp_path, capsys):
        code, out, _ = run_cli(["gain"] + FAST, capsys)
        cells = out.splitlines()[1].split(",")
        for cell in cells:
            mantissa = cell.replace("-", "").replace(".", "").split("e")[0].lstrip("0")
            assert len(mantissa) <= 6
