"""The command line's surface, derived from the records, pinned as it stands.

- ``--help`` of ``irslink`` and of each command, at 80 columns, is compared
  with a pinned text, so deriving the flags from field metadata moves no byte.
- README's "Accepted keys" and CSV header blocks, its exit-2 table of the
  field bounds, and the header in the ``cli`` docstring, are compared with
  what the CLI derives from the dataclasses.
- One table of ``(k, rows, cols)``: ``lattice_shape``, the ``--k``,
  ``--irs-rows`` and ``--irs-cols`` flags, the same keys in a ``--config``
  file and, with no side given, ``apply_parameter`` and a sweep over k give
  the same lattice, or reject it with the same named message and exit 2.
"""

from __future__ import annotations

import json
import re
from dataclasses import fields
from pathlib import Path

import pytest

from irslink import cli
from irslink.errors import InvalidParameterError
from irslink.experiments import apply_parameter
from irslink.scenario import ScenarioConfig, _domain, lattice_shape
from irslink.simulator import GainResult

README = Path(__file__).resolve().parents[1] / "README.md"

HELP = {
    (): """usage: irslink [-h] [--version] {gain,sweep,optimize} ...

reflector-assisted UAV link gain simulator

positional arguments:
  {gain,sweep,optimize}
    gain                evaluate the gain at one scenario point
    sweep               sweep one parameter, optionally with an overlay
    optimize            find the gain-maximising BS-wall distance

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
""",
    ("gain",): """usage: irslink gain [-h] [--config CONFIG] [--out OUT] [--seed SEED]
                    [--threads THREADS] [--ray-phases {geometric,uniform}]

options:
  -h, --help            show this help message and exit
  --config CONFIG       flat key = value config file
  --out OUT             write CSV here (manifest goes to OUT.manifest.json)
  --seed SEED           master seed for the Monte Carlo baseline
  --threads THREADS     threads for the run blocks of a sweep's one batch;
                        never changes a bit
  --ray-phases {geometric,uniform}
                        wall-ray phase model (default: geometric)
""",
    ("sweep",): """usage: irslink sweep [-h] [--config CONFIG] [--out OUT] [--svg SVG]
                     [--seed SEED] [--threads THREADS]
                     [--ray-phases {geometric,uniform}] --sweep
                     {f,h-irs,h-uav,k,l} [--values VALUES] [--overlay OVERLAY]

options:
  -h, --help            show this help message and exit
  --config CONFIG       flat key = value config file
  --out OUT             write CSV here (manifest goes to OUT.manifest.json)
  --svg SVG             also write an SVG line plot
  --seed SEED           master seed for the Monte Carlo baseline
  --threads THREADS     threads for the run blocks of a sweep's one batch;
                        never changes a bit
  --ray-phases {geometric,uniform}
                        wall-ray phase model (default: geometric)
  --sweep {f,h-irs,h-uav,k,l}
                        parameter to sweep
  --values VALUES       grid as START:STOP:STEP (inclusive)
  --overlay OVERLAY     second parameter as NAME=V1,V2,...
""",
    ("optimize",): """usage: irslink optimize [-h] [--config CONFIG] [--out OUT] [--svg SVG]
                        [--seed SEED] [--threads THREADS]
                        [--ray-phases {geometric,uniform}] [--l-grid L_GRID]
                        [--refine]

options:
  -h, --help            show this help message and exit
  --config CONFIG       flat key = value config file
  --out OUT             write CSV here (manifest goes to OUT.manifest.json)
  --svg SVG             also write an SVG line plot
  --seed SEED           master seed for the Monte Carlo baseline
  --threads THREADS     threads for the run blocks of a sweep's one batch;
                        never changes a bit
  --ray-phases {geometric,uniform}
                        wall-ray phase model (default: geometric)
  --l-grid L_GRID       distance grid as START:STOP:STEP (default 10:100:5)
  --refine              golden-section refinement around the argmax
""",
}


@pytest.mark.parametrize("command", sorted(HELP))
def test_help_text_is_pinned(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main([*command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == HELP[command]


def _readme_block(after: str) -> str:
    """The first fenced block of README.md after the line ending in ``after``."""
    match = re.search(re.escape(after) + r"\n\n```\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert match, f"no code block after {after!r} in README.md"
    return match.group(1)


def test_readme_lists_the_config_keys_in_order():
    assert _readme_block("Accepted keys:").split() == list(cli._KEY_TYPES)


def test_readme_exit_2_table_is_the_field_metadata():
    # one row per field of both configs, in order: its key and its domain as
    # the error line shows it, from the bounds or choices in its metadata
    table = re.search(r"\n\| key \| domain \|.*?\n\|[-|]+\|\n(.*?)\n\n", README.read_text(encoding="utf-8"), re.S)
    assert table, "no exit-2 table in README.md"
    rows = [[cell.strip() for cell in line.split("|")[1:3]] for line in table.group(1).splitlines()]
    assert rows == [[f"`{f.name}`", _domain(f.metadata)] for f in cli._FIELDS]


def test_readme_and_docstring_carry_the_derived_csv_header():
    header = "param[,overlay]," + ",".join(f.metadata.get("column", f.name) for f in fields(GainResult))
    assert header == "param[,overlay]," + cli._HEADER_BASE
    assert _readme_block("CSV output always carries the header").strip() == header
    assert [line.strip() for line in cli.__doc__.splitlines() if "param[,overlay]," in line] == [header]


# (k, irs_rows, irs_cols) -> the lattice, or the message that rejects it
LATTICES = [
    (50, None, None, (5, 10)),
    (36, None, None, (6, 6)),
    (13, None, None, (1, 13)),
    (1, None, None, (1, 1)),
    (50, 5, None, (5, 10)),
    (50, None, 10, (5, 10)),
    (50, None, 5, (10, 5)),
    (50, 5, 10, (5, 10)),
    (50, 10, 5, (10, 5)),
    (50, 6, 9, "inconsistent"),
    (50, 7, None, "not a multiple"),
    (50, None, 7, "not a multiple"),
    (50, 0, None, "not a multiple"),
    (2.5, None, None, "positive integers"),
    (0, None, None, "element count"),
    (-3, None, None, "element count"),
    (10**8 + 1, None, None, "element count"),
    (2**61 - 1, None, None, "element count"),  # prime: rejected before minutes of trial division
]


def _lattice_from_cli(argv, capsys):
    """The (irs_rows, irs_cols) a command resolves, or its one error line; 2 is its exit code then."""
    code = cli.main(argv + ["--n-runs", "1", "--n-rays", "0"])
    captured = capsys.readouterr()
    if code:
        assert code == 2 and captured.out == "" and len(captured.err.splitlines()) == 1
        return captured.err
    manifest = json.loads(captured.err.splitlines()[-1])
    if "sweep" in manifest:
        (lattice,) = manifest["sweep"]["k_factorizations"].values()
        return tuple(lattice)
    return manifest["config"]["irs_rows"], manifest["config"]["irs_cols"]


def _shape(cfg: ScenarioConfig) -> tuple[int, int]:
    return cfg.irs_rows, cfg.irs_cols


@pytest.mark.parametrize("k,rows,cols,expected", LATTICES)
def test_one_rule_resolves_k(k, rows, cols, expected, tmp_path, capsys):
    def check(resolve):
        if isinstance(expected, tuple):
            assert resolve() == expected
        else:
            with pytest.raises(InvalidParameterError, match=expected):
                resolve()

    check(lambda: lattice_shape(k, rows, cols))
    runs = []
    if rows is None and cols is None:
        for value in (k, float(k)):  # a sweep's values are floats
            check(lambda: _shape(apply_parameter(ScenarioConfig(), "k", value)))
        runs.append(["sweep", "--sweep", "k", f"--values={k}:{k}:1"])
    if k == int(k):  # --k and the k key take integers only
        sides = {"irs_rows": rows, "irs_cols": cols}
        flags = ["--k", str(k)] + [arg for key, side in sides.items() if side is not None
                                   for arg in (cli._flag(key), str(side))]
        config = tmp_path / "lattice.cfg"
        config.write_text(f"k = {k}\n" + "".join(f"{key} = {side}\n" for key, side in sides.items()
                                                  if side is not None))
        runs += [["gain", *flags], ["gain", "--config", str(config)]]
    for argv in runs:
        got = _lattice_from_cli(argv, capsys)
        if isinstance(expected, tuple):
            assert got == expected, argv
        else:
            assert got.startswith("error: ") and expected in got, argv
