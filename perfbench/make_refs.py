"""Write the reference outputs in refs/ from the program in this checkout.

    python3 perfbench/make_refs.py [WORKLOAD ...]

For each workload and each CLI seed 0 .. N_REF_SEEDS-1 this runs the CLI
once, cold, and stores its CSV (and the optimize summary line).  Run it only
on a commit whose outputs are known to be right: run.py compares every later
invocation with what is stored here.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import check
import run
import workloads


def main(names: list[str]) -> int:
    run.OUT_DIR.mkdir(exist_ok=True)
    (run.HERE / "refs").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="refs-", dir=run.OUT_DIR))
    try:
        for name in names or sorted(workloads.WORKLOADS):
            refs = {}
            for seed in range(workloads.N_REF_SEEDS):
                argv = workloads.cli_argv(name, seed, str(tmp / "out.csv"), str(tmp / "out.svg"))
                child = run.run_cli(argv, tmp)
                csv_text = (tmp / "out.csv").read_text(encoding="utf-8") if child.rc == 0 else ""
                summary = child.stdout if argv[0] == "optimize" else None
                problems = check.check_output(child.rc, csv_text, summary, None)
                if problems:
                    sys.stderr.write(f"{name} seed {seed}: {problems}\n{child.stderr[-2000:]}\n")
                    return 1
                refs[str(seed)] = {"csv": csv_text, "summary": summary}
            path = run.HERE / "refs" / f"{name}.json"
            path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
            print(f"wrote {path.relative_to(run.ROOT)}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
