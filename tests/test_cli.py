import argparse
import contextlib
import io
import json
import tempfile
import warnings
import xml.etree.ElementTree as ET
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irslink import cli, rng
from irslink.cli import _KEY_TYPES, _build_parser, _flag, _parse_overlay, _parse_range, main, parse_config_text
from irslink.errors import InvalidParameterError
from irslink.experiments import SWEEPABLE
from irslink.scenario import ScenarioConfig

HEADER = "gain_db,std_error_db,gamma_irs,los_amp,irs_sum_amp,wall_mean_amp,mean_wall_power_mw"

FAST = ["--n-runs", "200"]

# a received power of 0 mW: a lossless-to-zero reflector and a LoS on the
# pattern's 1e300 dB floor under a 0.001 degree beam (the wall rays stay in
# the beam), and a transmit power of -1e4 dBm (0 / 0)
ZERO_POWER = [
    ["gain", "--pl-irs-db", "1e308", "--theta3db-deg", "1e-3", "--theta-etilt-deg", "16.7", "--sla-db", "1e300",
     "--n-runs", "10"],
    ["gain", "--p-t-dbm=-1e4", "--n-runs", "10"],
]

# the flag of every float ScenarioConfig field, and values at and past the
# edges of their ranges
FLOAT_FLAGS = sorted(_flag(f.name) for f in fields(ScenarioConfig) if _KEY_TYPES[f.name] is float)
EDGE_VALUES = ["0", "-0", "1e-320", "-1e-320", "1e-9", "1", "90", "180", "300", "1e155", "1e300", "-1e300", "nan",
               "inf"]
BIG = str(10**400)  # an integer flag value of 401 digits
LONG_DIGITS = "1" + "0" * 5000  # past int()'s 4,300-digit limit, and inf as a float
HUGE_SIDE = "1" + "0" * 3000  # a lattice side whose product with itself is past str()'s 4,300 digits
LONG_TEXT = "x" * 5001


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def one_line(line):
    """An exit-2 error line as main writes it: past 119 characters, its first
    67 and last 47 with " ... " between them, so 120 with the newline."""
    return (line if len(line) < 120 else f"{line[:67]} ... {line[-47:]}") + "\n"


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

    @pytest.mark.parametrize("text", ["f_ghz = 2\nbroken line\n", "f_ghz = 2\nl_m = far\n"])
    def test_malformed_line_reports_line_number(self, text):
        with pytest.raises(InvalidParameterError, match="line 2"):
            parse_config_text(text)

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


class TestExitCodes:
    def test_validation_error_names_key(self, capsys):
        code, _, err = run_cli(["gain", "--h-uav", "0"] + FAST, capsys)
        assert code == 2
        assert "h_uav" in err

    def test_unknown_sweep_parameter(self, capsys):
        # argparse rejects bad choices itself, in one error line with the choices
        code, out, err = run_cli(["sweep", "--sweep", "pitch", "--values", "1:2:1"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: argument --sweep: invalid choice: 'pitch' (choose from ")
        assert len(err.splitlines()) == 1 and all(name in err for name in ("f", "h-irs", "h-uav", "k", "l"))

    def test_degenerate_geometry_is_exit_3(self, capsys):
        code, _, err = run_cli(
            ["gain", "--h-uav", "25", "--l", "50"] + FAST + ["--n-rays", "0"], capsys
        )
        assert code == 0  # midpoint UAV at BS height is *not* degenerate
        cfgfile_code, _, err = run_cli(["optimize", "--l-grid", "10:5:1"] + FAST, capsys)
        assert cfgfile_code == 2  # empty/invalid range

        # the UAV pinned onto the BS position
        code, out, err = run_cli(["gain", "--uav-x", "0", "--uav-y", "0", "--h-uav", "25"] + FAST, capsys)
        assert (code, out, err) == (3, "", "error: BS and UAV coincide\n")

    @pytest.mark.parametrize("argv", ZERO_POWER)
    def test_zero_received_power_is_exit_3(self, argv, tmp_path, capsys):
        # named before the log of the power ratio, not a math domain error or
        # a bare division by zero
        for extra in ([], ["--out", str(tmp_path / "out.csv")]):
            code, out, err = run_cli(argv + extra, capsys)
            assert (code, out) == (3, "")
            assert len(err.splitlines()) == 1 and err.startswith("error: zero received power")
        assert list(tmp_path.iterdir()) == []

    # any 1-4 float flags at edge values: an exit code of the contract, and on
    # an error one "error:" line and no output file
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(FLOAT_FLAGS), st.sampled_from(EDGE_VALUES)), min_size=1, max_size=4))
    @example([tuple(ZERO_POWER[0][i:i + 2]) for i in range(1, 9, 2)])
    @example([("--p-t-dbm", "-1e4")])
    def test_edge_values_keep_the_exit_code_contract(self, pairs):
        with tempfile.TemporaryDirectory() as tmp:
            out_csv = Path(tmp) / "out.csv"
            argv = ["gain"] + [f"{flag}={value}" for flag, value in pairs]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv + ["--n-runs", "5", "--n-rays", "3", "--out", str(out_csv)])
            assert code in (0, 2, 3), argv
            if code:
                assert len(err.getvalue().splitlines()) == 1 and err.getvalue().startswith("error:"), argv
                assert not out_csv.exists()

    def test_uav_within_underflow_of_the_bs_is_exit_3(self, capsys):
        # 1e-200 m from the BS the LoS length's square underflows to 0: the
        # kernel's BS half names the coincidence, where the path loss's check
        # of its distance argument would exit 2
        code, out, err = run_cli(["gain", "--uav-x", "1e-200", "--h-bs", "50", "--h-uav", "50"] + FAST, capsys)
        assert (code, out, err) == (3, "", "error: a path point coincides with the BS\n")

    @pytest.mark.parametrize("phases", ["geometric", "uniform"])
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_degenerate_point_in_a_sweep_is_exit_3(self, phases, threads, capsys):
        # a one-element patch in front of the UAV at 10 m: the element and
        # the wall rays of that point end on the UAV, at any thread count
        code, out, err = run_cli(["sweep", "--sweep", "h-uav", "--values", "9:11:1", "--irs-rows", "1", "--irs-cols",
                                  "1", "--uav-x", "50", "--ray-phases", phases, "--threads", threads] + FAST, capsys)
        assert (code, out) == (3, "")
        assert len(err.splitlines()) == 1 and err.startswith("error:") and "coincides" in err

    def test_degenerate_point_split_over_threads_is_exit_3(self, capsys):
        # one point, three run blocks on the pool: the point's one check
        # names it before any block starts
        code, out, err = run_cli(["gain", "--h-uav", "10", "--irs-rows", "1", "--irs-cols", "1", "--uav-x", "50",
                                  "--n-runs", "4000", "--threads", "2"], capsys)
        assert (code, out) == (3, "")
        assert len(err.splitlines()) == 1 and err.startswith("error:") and "coincides" in err

    @pytest.mark.parametrize("argv", [
        ["gain"] + FAST,
        ["sweep", "--sweep", "h-uav", "--values", "9:11:1"] + FAST,  # its middle point
        ["gain", "--n-runs", "4000", "--threads", "2"],
    ])
    def test_uav_on_the_patch_is_exit_3(self, argv, capsys):
        # the UAV at the centre of the default 10x10 patch, 1.4 cm from its
        # nearest elements and on no scatter point: a leg's lower bound is 0
        code, out, err = run_cli(argv + ["--uav-x", "50", "--h-uav", "10"], capsys)
        assert (code, out) == (3, "")
        assert len(err.splitlines()) == 1 and err.startswith("error:") and "coincides" in err
        # on the wall plane but off the patch, beside it (its half width is
        # 9 cm) or above it, is valid
        assert run_cli(argv + ["--uav-x", "50", "--h-uav", "10", "--uav-y", "0.1"], capsys)[0] == 0
        if argv[0] == "gain":  # the sweep sets the height itself
            assert run_cli(argv + ["--uav-x", "50", "--h-uav", "50"], capsys)[0] == 0

    def test_non_finite_result_is_exit_3(self, capsys):
        # a huge transmit power overflows the powers: gain_db is nan
        sweep = ["sweep", "--sweep", "h-uav", "--values", "20:30:10", "--threads", "2"]
        for command in (["gain"], sweep):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # any warning fails the test, also in a sweep's worker threads
                code, out, err = run_cli(command + ["--p-t-dbm", "5000", "--n-runs", "100"], capsys)
            assert code == 3
            assert out == ""
            assert len(err.splitlines()) == 1 and err.startswith("error:")
            assert "non-finite" in err

    def test_non_finite_point_split_over_threads_is_exit_3(self, capsys):
        # three run blocks on the pool, each in a copy of main()'s numpy error state
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["gain", "--p-t-dbm", "5000", "--n-runs", "4000", "--threads", "2"], capsys)
        assert (code, out) == (3, "")
        assert len(err.splitlines()) == 1 and err.startswith("error:") and "non-finite" in err

    @pytest.mark.parametrize("argv", [
        ["gain", "--l", "1e160"],  # the path lengths' squares overflow
        ["gain", "--uav-y", "1e160"],
        ["gain", "--h-bs", "1e300"],
        ["sweep", "--sweep", "l", "--values", "1e300:1e300:1"],
        ["gain", "--p-t-dbm", "1e4"],  # the LoS amplitude's exp overflows
        ["gain", "--element-pitch", "1e160"],  # the reflected paths' squares overflow
        ["gain", "--element-pitch", "1e160", "--n-rays", "0"],  # in the reflector sum alone
        ["sweep", "--sweep", "h-uav", "--values", "50:60:10", "--element-pitch", "1e160"],
        ["optimize", "--l-grid", "10:20:10", "--element-pitch", "1e160"],
    ])
    def test_overflow_is_exit_3(self, argv, tmp_path, capsys):
        out_csv = tmp_path / "out.csv"
        for extra in ([], ["--out", str(out_csv)]):
            code, out, err = run_cli(argv + FAST + extra, capsys)
            assert (code, out) == (3, "")
            assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["gain", "--element-pitch", "1e160"] + FAST,  # the reflected paths
        ["gain", "--element-pitch", "1e160", "--n-rays", "0"] + FAST,
        ["gain", "--element-pitch", "1e160", "--n-runs", "4000", "--threads", "2"],
        ["gain", "--uav-y", "1e155", "--n-runs", "10"],  # the LoS path
        ["gain", "--h-bs", "1e300", "--h-uav", "300", "--n-runs", "10"],
        ["gain", "--l", "1e160"] + FAST,
    ])
    def test_path_overflow_is_named(self, argv, tmp_path, capsys):
        # every path length is checked before any budget runs: not the path
        # loss's check of its distance argument (exit 2), nor the errno tuple
        # of a float power's OverflowError
        for extra in ([], ["--out", str(tmp_path / "out.csv")]):
            assert run_cli(argv + extra, capsys) == (3, "", "error: a path length overflows\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("p_t_dbm", ["1e4", "1e5", "1e300"])
    def test_los_amplitude_overflow_is_named(self, p_t_dbm, capsys):
        # not math.exp's "math range error"
        expected = (3, "", "error: the LoS amplitude overflows\n")
        assert run_cli(["gain", f"--p-t-dbm={p_t_dbm}"] + FAST, capsys) == expected

    def test_failed_svg_write_leaves_no_results(self, tmp_path, capsys):
        # the plot is written first, so a failed plot write leaves no CSV,
        # manifest or stdout behind
        out_csv = tmp_path / "out.csv"
        sweep = ["sweep", "--sweep", "h-uav", "--values", "20:30:5", "--svg", str(tmp_path / "missing" / "x.svg")]
        for extra in ([], ["--out", str(out_csv)]):
            code, out, err = run_cli(sweep + FAST + extra, capsys)
            assert (code, out) == (2, "")
            assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert list(tmp_path.iterdir()) == []

    def test_failed_out_write_names_the_file_in_one_line(self, tmp_path, capsys):
        # the OS's reason, and the file's name quoted, the line cut in its middle
        path = str(tmp_path / "missing" / ("a" * 200 + ".csv"))
        code, out, err = run_cli(["gain", "--out", path] + FAST, capsys)
        assert (code, out) == (2, "")
        assert err == one_line(f"error: No such file or directory: {path!r}") and len(err) == 120
        assert err.startswith("error: No such file or directory: '/") and err.endswith("a.csv'\n")

    @pytest.mark.parametrize("exc, head, tail", [
        (InvalidParameterError("x" * 5000), "error: " + "x" * 60, "x" * 47),
        (MemoryError("y" * 5000), "error: out of memory: " + "y" * 45, "y" * 47),
        (FileNotFoundError(2, "No such file or directory", "z" * 5000),
         "error: No such file or directory: '" + "z" * 32, "z" * 46 + "'"),
    ], ids=["invalid-parameter", "out-of-memory", "os-error"])
    def test_every_rejection_is_one_line_that_keeps_both_ends(self, exc, head, tail, monkeypatch, capsys):
        # the one rule of main's exit-2 branches, whatever a message quotes
        def reject(args):
            raise exc

        monkeypatch.setattr(cli, "build_configs", reject)
        assert run_cli(["gain"], capsys) == (2, "", f"{head} ... {tail}\n")

    def test_argparse_rejections_keep_their_lines(self, capsys):
        # argparse's own messages are cut by the same rule, to the lines they had when it cut them itself
        expected = "error: unrecognized arguments: " + "x" * 36 + " ... " + "x" * 47 + "\n"
        assert run_cli(["gain", "--n-runs", "10", "x" * 300], capsys) == (2, "", expected)
        expected = ("error: argument --sweep: invalid choice: '" + "x" * 25
                    + " ... ' (choose from 'f', 'h-irs', 'h-uav', 'k', 'l')\n")
        assert run_cli(["sweep", "--sweep", "x" * 300], capsys) == (2, "", expected)

    def test_huge_lattice_product_is_shown_by_its_exponent(self, capsys):
        # not str() of a 6,001-digit product, which raises past 4,300 digits
        expected = (2, "", "error: irs_rows*irs_cols must be <= 100000000, got 1e+6000\n")
        assert run_cli(["gain", "--irs-rows", HUGE_SIDE, "--irs-cols", HUGE_SIDE], capsys) == expected

    def test_out_of_memory_is_exit_2(self, monkeypatch, capsys):
        # stands in for any allocation that fails inside the kernel
        def no_memory(master_seed, n_runs, first_run=0):
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
        ["sweep", "--sweep", "h-uav", "--values", "20:20:1", "--threads", "257"],  # before any thread starts
        ["gain", "--theta3db-deg", "0"],
        ["gain", "--theta3db-deg", "400"],  # the beamwidth lies in (0, 180]
        ["gain", "--theta3db-deg", "1e-320"],  # 12*(180/theta3db)^2 overflows
        ["gain", "--theta-etilt-deg", "370"],  # the tilt lies in [-90, 90]
        ["gain", "--theta-etilt-deg", "1e308"],
        ["gain", "--threads", "0"],  # gain evaluates one point but checks the flag like sweep
        ["gain", "--threads", "100000"],
        ["gain", "--n-rays", "32769"],
        ["gain", "--f-ghz", "1000"],  # the carrier lies in 0.5..100 GHz
        ["gain", "--f-ghz", "1e-6"],
        ["gain", "--f-ghz", "1e300", "--n-runs", "10"],  # f_ghz * 1e9 would overflow: the wavelength 0
        ["gain", "--f-ghz", "5e-324", "--n-runs", "10"],  # 3e8 / (f_ghz * 1e9) would overflow
        ["sweep", "--sweep", "h-uav", "--values", "30:31:1", "--overlay", "k=nan"],
        ["sweep", "--sweep", "h-uav", "--values", "30:31:1", "--overlay", "k=inf"],
        ["sweep", "--sweep", "h-uav", "--values", "30:31:1", "--overlay", "k=1e300"],  # not its 301 digits
        ["gain", "--h-uav", "0.5"],  # the path-loss model holds for 1.5..300 m
        ["gain", "--h-uav", "1000"],
        ["sweep", "--sweep", "h-uav", "--values", "200:400:100"],  # 400 m, before 200 m is evaluated
        ["gain", "--irs-rows=-1"],
        ["gain", "--irs-rows", "0"],  # k = 0: no reflector to evaluate
        ["gain", "--seed", str(2**64)],
        ["gain", "--k", "50", "--irs-rows", "7"],  # not a multiple
        ["gain", "--k", "50", "--irs-cols", "7"],
        ["sweep", "--sweep", "h-uav", "--values", "20:30"],
        ["sweep", "--sweep", "h-uav", "--values", "20:x:1"],
        ["sweep", "--sweep", "h-uav", "--values", "20:30:0"],
        ["sweep", "--sweep", "h-uav", "--values", "30:31:1", "--overlay", "k=a,b"],
        ["sweep", "--sweep", "h-uav", "--values", "30:31:1", "--overlay", "k="],
        ["gain", "--n-runs", BIG],  # shown as 1e+400, not its 401 digits
        ["gain", "--n-rays", BIG],
        ["gain", "--irs-rows", BIG],  # the irs_rows*irs_cols bound
        ["gain", "--irs-rows", "2", "--irs-cols", BIG],
        ["gain", "--threads", BIG],
        ["gain", "--k", "50", "--irs-rows", BIG],
        ["gain", "--k", "50", "--irs-rows", BIG, "--irs-cols", "1"],
        ["gain", "--irs-rows", HUGE_SIDE, "--irs-cols", HUGE_SIDE],  # shown as 1e+6000
        ["gain", "--k", "50", "--irs-rows", HUGE_SIDE, "--irs-cols", HUGE_SIDE],
        # a line that quotes long input text is cut in its middle
        ["gain", "--n-runs", LONG_DIGITS],
        ["gain", "--threads", LONG_DIGITS],
        ["gain", "--ray-phases", LONG_TEXT],
        ["sweep", "--sweep", "h-uav", "--values", "1:2:" + LONG_DIGITS],
        ["sweep", "--sweep", "h-uav", "--values", "1:2:" + LONG_TEXT],
        ["sweep", "--sweep", "h-uav", "--values", "30:31:1", "--overlay", "h-irs=" + LONG_TEXT],
        ["gain", "--config", "/nonexistent/" + "a" * 200],  # the OS's reason and the quoted name
        # argparse's own rejections, cut by the same rule
        ["gain", "--n-runs", "10", "x" * 300],
        ["gain", "--n-runs", "10", LONG_TEXT],
        ["sweep", "--sweep", LONG_TEXT],
        ["optimize", "--l-grid"],
        [],
    ])
    def test_rejected_inputs_are_exit_2(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)  # rejected before any point is evaluated
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:") and len(err) <= 120

    @pytest.mark.parametrize("line", [f"n_runs = {LONG_DIGITS}", f"{LONG_TEXT} = 1", f"h_uav_m = {LONG_TEXT}",
                                      f"ray_phases = {LONG_TEXT}", LONG_TEXT,
                                      f"irs_rows = {HUGE_SIDE}\nirs_cols = {HUGE_SIDE}"],
                             ids=["n_runs", "unknown-key", "h_uav_m", "ray_phases", "no-equals", "irs-product"])
    def test_rejected_config_lines_are_exit_2(self, line, tmp_path, capsys):
        cfg_file = tmp_path / "long.cfg"
        cfg_file.write_text(line + "\n")
        code, out, err = run_cli(["gain", "--config", str(cfg_file)], capsys)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error:") and len(err) <= 120

    @pytest.mark.parametrize("command", [["gain"], ["sweep", "--sweep", "l"], ["optimize"]])
    def test_flag_prefixes_are_rejected(self, command, capsys):
        # "--h-u" would otherwise run as --h-uav, and turn ambiguous once a field shares the prefix
        assert run_cli(command + ["--h-u", "30"], capsys) == (2, "", "error: unrecognized arguments: --h-u 30\n")

    @pytest.mark.parametrize("argv", [
        ["optimize", "--l-grid", "0:1e300:1e-300"],  # the point count overflows to inf
        ["sweep", "--sweep", "h-uav", "--values", "0:1e10:1e-10"],
        ["sweep", "--sweep", "l", "--values", "1:1000001:1"],  # one point past the bound
        ["gain", "--k", "1000000000039"],  # prime: trial division up to 10**6
        ["gain", "--k", "2305843009213693951"],  # prime 2**61 - 1: minutes of trial division
        ["sweep", "--sweep", "k", "--values", "1000000000039:1000000000039:1"],
        ["gain", "--irs-rows", "100000", "--irs-cols", "100000"],
    ])
    def test_oversized_ranges_and_lattices_are_exit_2(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)  # rejected before any list or lattice is built
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    def test_non_utf8_config_file_is_exit_2(self, tmp_path, capsys):
        # the file's name quoted, the line cut in its middle, and the offending byte's offset
        cfg = tmp_path / ("latin1-" + "a" * 200 + ".cfg")
        cfg.write_bytes(b"f_ghz = 2\n# \xff\n")
        code, out, err = run_cli(["gain", "--config", str(cfg)] + FAST, capsys)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and len(err) == 120
        assert err == one_line(f"error: --config {str(cfg)!r}: not UTF-8 at byte 12")
        assert err.startswith("error: --config '/") and err.endswith("a.cfg': not UTF-8 at byte 12\n")

    def test_range_point_bound_is_inclusive(self):
        assert len(_parse_range("1:1000000:1")) == 10**6

    def test_success_is_exit_0(self, capsys):
        code, _, _ = run_cli(["gain"] + FAST, capsys)
        assert code == 0

    def test_reflector_above_the_mast_is_exit_2(self, capsys):
        # the BS stands at 25 m: a reflector at its height is valid, above it is not
        code, out, err = run_cli(["gain", "--h-irs", "30"] + FAST, capsys)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error:") and "h_irs_m" in err
        code, _, _ = run_cli(["gain", "--h-irs", "25"] + FAST, capsys)
        assert code == 0

    def test_uav_behind_the_wall_is_exit_2(self, capsys):
        # the wall stands at x = 50 m: a UAV at 80 m sees no reflection off its front
        code, out, err = run_cli(["gain", "--uav-x", "80"] + FAST, capsys)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error:") and "uav_x_m" in err

    def test_sweep_with_walls_in_front_of_the_uav_is_exit_2(self, tmp_path, capsys):
        # the base point (L = 100 m) is valid, but the default L grid starts at
        # 10 m, before the UAV at 60 m: rejected before any point is evaluated
        out_csv = tmp_path / "l.csv"
        code, out, err = run_cli(["sweep", "--sweep", "l", "--l", "100", "--uav-x", "60", "--out", str(out_csv)]
                                 + FAST, capsys)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error:") and "uav_x_m" in err
        assert not out_csv.exists()


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

    def test_gain_is_a_one_point_h_uav_sweep(self, tmp_path, capsys):
        flags = ["--h-uav", "37.5", "--k", "50", "--l", "70", "--seed", "5", "--ray-phases", "uniform"] + FAST
        gain, sweep = tmp_path / "gain.csv", tmp_path / "sweep.csv"
        assert run_cli(["gain"] + flags + ["--out", str(gain)], capsys)[0] == 0
        assert run_cli(["sweep", "--sweep", "h-uav", "--values", "37.5:37.5:1"] + flags + ["--out", str(sweep)],
                       capsys)[0] == 0
        assert gain.read_bytes() == sweep.read_bytes()
        assert gain.read_text().splitlines()[1].startswith("37.5,")

    def test_manifest_has_no_sweep_block(self, tmp_path, capsys):
        out_csv = tmp_path / "g.csv"
        assert run_cli(["gain", "--out", str(out_csv)] + FAST, capsys)[0] == 0
        manifest = json.loads((tmp_path / "g.csv.manifest.json").read_text())
        assert "sweep" not in manifest
        assert manifest["config"]["h_uav_m"] == 50.0

    def test_threads_do_not_change_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "t1.csv", tmp_path / "t2.csv"
        assert run_cli(["gain", "--threads", "1", "--out", str(a)] + FAST, capsys)[0] == 0
        assert run_cli(["gain", "--threads", "2", "--out", str(b)] + FAST, capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_threads_from_a_config_file_do_not_change_bytes(self, tmp_path, capsys):
        # threads is a config key like every field; 4,000 runs are 3 run blocks
        cfg_file, a, b = tmp_path / "threads.cfg", tmp_path / "t1.csv", tmp_path / "t3.csv"
        cfg_file.write_text("threads = 3\n")
        assert run_cli(["gain", "--n-runs", "4000", "--threads", "1", "--out", str(a)], capsys)[0] == 0
        assert run_cli(["gain", "--n-runs", "4000", "--config", str(cfg_file), "--out", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()
        assert json.loads((tmp_path / "t3.csv.manifest.json").read_text())["threads"] == 3

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
        base = ["sweep", "--sweep", "h-uav", "--values", "20:60:10", "--n-runs", "5000"]  # 4 run blocks
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
        code, _, _ = run_cli(["sweep", "--sweep", "h-uav", "--values", "20:40:10", "--h-irs", "5",
                              "--sla-db", "15", "--uav-y", "3", "--ray-phases", "uniform",
                              "--seed", "11", "--threads", "2", "--out", str(first)] + FAST, capsys)
        assert code == 0
        manifest = json.loads((tmp_path / "first.csv.manifest.json").read_text())

        # every recorded value goes back in; uav_x_m is null (tracks L/2)
        recorded = {key: value for key, value in manifest["config"].items() if value is not None}
        recorded.update({key: manifest[key] for key in ("n_runs", "n_rays", "master_seed", "threads", "ray_phases")})
        cfg_file = tmp_path / "replay.cfg"
        cfg_file.write_text("".join(f"{key} = {value}\n" for key, value in recorded.items()))

        second = tmp_path / "second.csv"
        code, _, _ = run_cli(["sweep", "--sweep", "h-uav", "--values", "20:40:10",
                              "--config", str(cfg_file), "--out", str(second)], capsys)
        assert code == 0
        assert first.read_bytes() == second.read_bytes()
        replayed = json.loads((tmp_path / "second.csv.manifest.json").read_text())
        assert replayed["config"] == manifest["config"] and replayed["ray_phases"] == "uniform"
        assert replayed["threads"] == 2

    def test_every_config_field_is_a_key_and_a_flag(self, tmp_path, capsys):
        cfg_file = tmp_path / "model.cfg"
        cfg_file.write_text("theta3db_deg = 12\nelement_pitch_m = 0.03\nuav_x_m = 20\nray_phases = uniform\n")
        from_file = run_cli(["gain", "--config", str(cfg_file)] + FAST, capsys)
        from_flags = run_cli(["gain", "--theta3db-deg", "12", "--element-pitch", "0.03", "--uav-x", "20",
                              "--ray-phases", "uniform"] + FAST, capsys)
        assert from_file[0] == from_flags[0] == 0
        assert from_file[1] == from_flags[1] != run_cli(["gain"] + FAST, capsys)[1]
        manifest = json.loads(from_file[2].strip().splitlines()[-1])
        assert manifest["config"]["theta3db_deg"] == 12.0 and manifest["config"]["uav_x_m"] == 20.0
        assert manifest["ray_phases"] == "uniform"

    def test_sweep_block_repeats_no_top_level_key(self, tmp_path, capsys):
        out_csv = tmp_path / "k.csv"
        code, _, _ = run_cli(["sweep", "--sweep", "k", "--values", "25:50:25", "--out", str(out_csv)] + FAST, capsys)
        assert code == 0
        manifest = json.loads((tmp_path / "k.csv.manifest.json").read_text())
        assert set(manifest["sweep"]) & set(manifest) == set()
        assert manifest["sweep"]["k_factorizations"] == {"25": [5, 5], "50": [5, 10]}

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
    def test_threads_do_not_change_bytes(self, tmp_path, capsys):
        # 2,000 runs are two run blocks: at --threads 2 the grid's and each
        # golden-section point's blocks run on the pool
        base = ["optimize", "--refine", "--ray-phases", "uniform", "--n-runs", "2000"]
        a, b = tmp_path / "t1.csv", tmp_path / "t2.csv"
        code_a, summary_a, _ = run_cli(base + ["--threads", "1", "--out", str(a)], capsys)
        code_b, summary_b, _ = run_cli(base + ["--threads", "2", "--out", str(b)], capsys)
        assert code_a == code_b == 0
        assert summary_a.startswith("l_star = ") and summary_a == summary_b
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("argv,l_star,refined", [
        (["--n-runs", "2000"], "45", False),
        (["--refine", "--n-runs", "2000", "--l-grid", "45:55:5"], "45", False),  # the argmax is the grid's edge
        (["--refine", "--ray-phases", "uniform"], "52.649", True),  # a golden-section point beats the grid
    ])
    def test_refined_only_when_the_optimum_is_a_golden_point(self, argv, l_star, refined, tmp_path, capsys):
        out = tmp_path / "o.csv"
        code, summary, _ = run_cli(["optimize", *argv, "--seed", "0", "--out", str(out)], capsys)
        assert code == 0 and summary.startswith(f"l_star = {l_star}, ")
        manifest = json.loads((tmp_path / "o.csv.manifest.json").read_text())
        assert manifest["refined"] is refined
        assert ("--refine" in manifest["command"]) is ("--refine" in argv)

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
