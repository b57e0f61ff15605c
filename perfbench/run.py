"""Benchmark of the ``irslink`` command line, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is run from ``src``.
The loop is closed with one client: each invocation starts after the previous
one has ended.

--trace 0 measures, with no tracing:
  setup_s      wall time of ``python -c "import irslink.cli"``
  wall_s       wall time of one cold ``python -m irslink.cli ...`` invocation
  peak_rss_mb  peak resident set of that child, from its own rusage
  run_s        warm in-process time of ``irslink.cli.main(argv)``
  paths_per_s  reflected paths evaluated per second in the warm run
Each timing is the median of its samples in the run.
--trace 1 runs untraced and traced warm invocations in turn and reports the
per-layer metrics of tracer.py, the import-time split of numpy, scipy and
irslink from ``python -X importtime``, and the tracing overhead.

Every invocation's CSV (and the optimize summary line) is checked against the
reference in refs/; failed invocations are counted and kept out of the
timings.  The last line of stdout is the JSON result.  A run writes only
under ``.bench_out/`` in the checkout and removes its scratch directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata
from pathlib import Path

import check
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

MIN_CYCLES = 2
SETUP_METRICS = ("setup.numpy_ms", "setup.scipy_ms", "setup.irslink_ms")
DEADLINE = time.perf_counter() + 170.0  # a child still running then is killed


def time_left() -> float:
    return max(1.0, DEADLINE - time.perf_counter())


class Child:
    """One finished child process: exit code, wall time and own peak RSS."""

    def __init__(self, cmd: list[str], cwd: Path, env: dict, stdout: Path, stderr: Path):
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            t = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err, stdin=subprocess.DEVNULL)
            timer = threading.Timer(time_left(), proc.kill)
            timer.start()
            try:
                # wait4 gives this child's own rusage; RUSAGE_CHILDREN would be
                # the maximum over every child so far
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            self.seconds = time.perf_counter() - t
        proc.returncode = self.rc = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
        self.stdout = stdout.read_text(encoding="utf-8", errors="replace")
        self.stderr = stderr.read_text(encoding="utf-8", errors="replace")


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_cli(argv: list[str], tmp: Path) -> Child:
    return Child([sys.executable, "-m", "irslink.cli", *argv], tmp, child_env(), tmp / "cli.out", tmp / "cli.err")


def load_refs(workload: str) -> dict:
    path = HERE / "refs" / f"{workload}.json"
    return json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}


def environment() -> dict:
    cpu = "unknown"
    try:
        m = re.search(r"^model name\s*:\s*(.+)$", Path("/proc/cpuinfo").read_text(), re.M)
        cpu = m.group(1).strip() if m else platform.processor() or "unknown"
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = "absent"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "python": platform.python_version(),
            **versions, "commit": commit}


def importtime_ms(stderr: str) -> dict:
    """Import-time split from ``python -X importtime``: cumulative time of the
    top-most numpy and scipy modules, and the self time of irslink's own."""
    entries = []  # (depth, name, self_us, cumulative_us), in the order printed
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if m:
            entries.append((len(m.group(3)) // 2, m.group(4), int(m.group(1)), int(m.group(2))))
    totals = dict.fromkeys(SETUP_METRICS, 0.0)
    stack: list[tuple[int, str]] = []  # ancestors of the entry being read, in reverse order
    for depth, name, self_us, cum_us in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        parent = stack[-1][1].split(".")[0] if stack else None
        top = name.split(".")[0]
        if top in ("numpy", "scipy") and parent != top:
            totals[f"setup.{top}_ms"] += cum_us / 1e3
        if top == "irslink":
            totals["setup.irslink_ms"] += self_us / 1e3
        stack.append((depth, name))
    return totals


class Run:
    """One benchmark run: its scratch directory, samples and output checks."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload, self.trace, self.seconds = workload, trace, seconds
        self.cli_seed = workloads.cli_seed(seed)
        self.ref = load_refs(workload).get(str(self.cli_seed))
        OUT_DIR.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR))
        self.outputs = [self.tmp / "out.csv", self.tmp / "out.svg"]
        self.argv = workloads.cli_argv(workload, self.cli_seed, *map(str, self.outputs))
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def checked(self, kind: str, rc: int, csv_text: str, stdout: str, stderr: str) -> bool:
        """Check one invocation's output; record it as attempted and, if bad, failed."""
        self.attempted += 1
        summary = stdout if self.argv[0] == "optimize" else None
        problems = check.check_output(rc, csv_text, summary, self.ref)
        svg = self.outputs[1]
        if "--svg" in self.argv and rc == 0 and (not svg.is_file() or "<svg" not in svg.read_text(encoding="utf-8")):
            problems.append("no SVG written")
        if problems and stderr.strip():
            problems[0] += f" (stderr: {stderr.strip().splitlines()[-1][:200]})"
        self.problems += [f"{kind}: {p}" for p in problems]
        self.failed += bool(problems)
        return not problems

    def setup_once(self, importtime: bool) -> Child:
        cmd = [sys.executable, *(["-X", "importtime"] if importtime else []), "-c", "import irslink.cli"]
        child = Child(cmd, self.tmp, child_env(), self.tmp / "setup.out", self.tmp / "setup.err")
        if child.rc != 0:
            raise RuntimeError(f"import irslink.cli failed:\n{child.stderr[-2000:]}")
        return child

    def cold_once(self) -> Child | None:
        """One cold CLI invocation; None if it failed."""
        for path in self.outputs:
            path.unlink(missing_ok=True)
        child = run_cli(self.argv, self.tmp)
        csv = self.outputs[0]
        csv_text = csv.read_text(encoding="utf-8") if csv.is_file() else ""
        return child if self.checked("cold", child.rc, csv_text, child.stdout, child.stderr) else None


class Worker:
    """The warm worker process (worker.py); each request is one call of main(argv)."""

    def __init__(self, run: Run):
        self.run = run
        spec = {"argv": run.argv, "outputs": [str(p) for p in run.outputs], "threads": workloads.threads_of(run.argv),
                "spans": str(OUT_DIR / f"spans-{run.workload}.json")}
        (run.tmp / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        self.err_path = run.tmp / "worker.err"
        with open(self.err_path, "wb") as err:
            self.proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), "spec.json"], cwd=run.tmp,
                                         env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                         stderr=err, text=True)
        try:
            self.absent = self._read()["absent"]
        except BaseException:
            self.close()
            raise

    def _read(self) -> dict:
        timer = threading.Timer(time_left(), self.proc.kill)
        timer.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            timer.cancel()
        if not line:
            raise RuntimeError(f"warm worker failed:\n{self.err_path.read_text(errors='replace')[-2000:]}")
        return json.loads(line)

    def call(self, kind: str) -> dict | None:
        """One warm call, ``plain`` or ``traced``; None if it failed."""
        self.proc.stdin.write(kind + "\n")
        self.proc.stdin.flush()
        rep = self._read()
        return rep if self.run.checked(kind, rep["rc"], rep["csv"], rep["stdout"], rep["stderr"]) else None

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=time_left())
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with 10 samples above it."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    return 100.0 * (len(ordered) - 10) / len(ordered), ordered[-11]


def measure(run: Run) -> tuple[dict, list[str]]:
    """Samples of each metric of one run as {name: (unit, values)}, plus notes to print.

    The samples of every metric are taken in turn, one of each per cycle, so
    each metric sees the whole run and not one slice of it: the speed of a
    shared machine drifts over seconds.
    """
    deadline = time.perf_counter() + run.seconds
    worker = Worker(run)  # its import also fills the bytecode cache before set-up is timed
    setups, cold, plain, traced = [], [], [], []
    try:
        cycles, last = 0, 0.0
        while cycles < MIN_CYCLES or time.perf_counter() + last <= deadline:
            t = time.perf_counter()
            setups.append(run.setup_once(importtime=run.trace))
            if run.trace:
                plain.append(worker.call("plain"))
                traced.append(worker.call("traced"))
            else:
                cold.append(run.cold_once())
                plain.append(worker.call("plain"))
            last = time.perf_counter() - t
            cycles += 1
        while time.perf_counter() + setups[-1].seconds <= deadline:  # the slack too short for a cycle
            setups.append(run.setup_once(importtime=run.trace))
    finally:
        worker.close()
    pairs = [(p, t) for p, t in zip(plain, traced) if p is not None and t is not None]
    cold, plain, traced = ([r for r in reps if r is not None] for reps in (cold, plain, traced))
    notes = []
    if worker.absent:
        notes.append(f"hooks absent: {', '.join(worker.absent)}")
        notes.append(f"metrics absent (reported as 0): {', '.join(tracer.absent_metrics(worker.absent)) or 'none'}")
    failed_counts = sorted({name for r in plain + traced for name in r["count_errors"]})
    if failed_counts:
        notes.append(f"counts not taken (signature changed): {', '.join(failed_counts)}")

    if not run.trace:
        run_s = [r["s"] for r in plain]
        t = tail(run_s)
        notes.append(f"run_s tail: p{t[0]:.0f} = {t[1]:.4f} s" if t else
                     f"run_s tail: not reported, {len(run_s)} samples (needs 11)")
        return {
            "setup_s": ("s", [c.seconds for c in setups]),
            "wall_s": ("s", [c.seconds for c in cold]),
            "run_s": ("s", run_s),
            "paths_per_s": ("1/s", [r["paths"] / r["s"] for r in plain]),
            "peak_rss_mb": ("MB", [c.peak_rss_mb for c in cold]),
        }, notes

    splits = [importtime_ms(c.stderr) for c in setups]
    samples = {name: (unit, [r["layers"][name] for r in traced]) for name, (unit, _) in tracer.LAYER_METRICS.items()}
    samples |= {name: ("ms", [s[name] for s in splits]) for name in SETUP_METRICS}
    # traced minus untraced time of the two calls of one cycle
    samples["trace.overhead_ms"] = ("ms", [1e3 * (t["s"] - p["s"]) for p, t in pairs])
    return samples, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "irslink" / "cli.py").is_file():
        sys.stderr.write(f"error: no program to benchmark: {SRC / 'irslink' / 'cli.py'} is missing\n")
        return 2
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        samples, notes = measure(run)
        empty = [name for name, (_, values) in samples.items() if not values]
        if empty:
            raise RuntimeError(f"no successful sample for {', '.join(empty)}; {'; '.join(run.problems[:5])}")
    except RuntimeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    finally:
        run.close()
    metrics = {name: (statistics.median(values), unit, values) for name, (unit, values) in samples.items()}

    env = environment()
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {args.workload}: irslink {' '.join(run.argv)}")
    print(f"reference: {'compared cell by cell' if run.ref else 'none for this seed, comparison skipped'}"
          f" (CLI seed {run.cli_seed})")
    for name, (value, unit, values) in metrics.items():
        print(f"{name:32s} {value:14.6g} {unit:6s} median of {len(values)}")
    print(f"fail_frac {run.failed / run.attempted:.6g} ({run.failed} of {run.attempted} invocations failed)")
    for line in notes + run.problems[:20]:
        print(line)
    record = {"workload": args.workload, "seed": args.seed, "cli_seed": run.cli_seed, "argv": run.argv,
              "environment": env, "attempted": run.attempted, "failed": run.failed, "problems": run.problems,
              "notes": notes, "metrics": {k: {"value": v, "unit": u, "samples": vs} for k, (v, u, vs) in metrics.items()}}
    (OUT_DIR / f"last-{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
