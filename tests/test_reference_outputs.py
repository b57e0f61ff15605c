"""The benchmark's reference outputs, reproduced in-process.

``perfbench/refs/<workload>.json`` holds, for each CLI seed, the CSV text
(and, for ``optimize``, the summary line) that the workload's command line in
``perfbench/workloads.py`` gave on a commit whose outputs were checked.  Each
test runs ``cli.main`` on one workload's argv and compares both byte for byte,
so a change that moves any bit of a benchmark output fails here, at every SIMD
target the tier-1 tests run on.  The seeds are a fixed subset of the stored
ones.  Nothing under ``perfbench/`` is written: ``workloads.py`` is run from
its source, not imported.
"""

from __future__ import annotations

import json
import runpy
from pathlib import Path

import pytest

from irslink import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = runpy.run_path(str(PERFBENCH / "workloads.py"))
SEEDS = (0, 5)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", sorted(WORKLOADS["WORKLOADS"]))
def test_workload_reproduces_its_reference(workload, seed, tmp_path, capsys):
    ref = json.loads((PERFBENCH / "refs" / f"{workload}.json").read_text(encoding="utf-8"))[str(seed)]
    out = tmp_path / "out.csv"
    argv = WORKLOADS["cli_argv"](workload, seed, str(out), str(tmp_path / "out.svg"))
    assert cli.main(argv) == 0
    stdout = capsys.readouterr().out
    assert out.read_text(encoding="utf-8") == ref["csv"]
    assert (stdout if argv[0] == "optimize" else None) == ref["summary"]
