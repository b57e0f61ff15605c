"""Warm in-process runs of ``irslink.cli.main``, untraced and traced.

Started by run.py in a fresh interpreter with the program's ``src`` on
PYTHONPATH and the run's scratch directory as working directory:

    python worker.py SPEC.json

SPEC holds ``argv`` (the CLI arguments), ``outputs`` (the files argv names,
the CSV first), ``threads`` and ``spans`` (where the last traced call's spans
are written).  After one small warm-up call the worker prints a JSON line
with the hooks that could not be resolved, then answers each request line on
stdin, ``plain`` or ``traced``, with one JSON line describing one call.  It
exits at the end of stdin.

A plain call still wraps ``irs_gain`` alone, to count the paths each point
evaluates for paths per second; that costs microseconds against
milliseconds per point.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import sys
import time

import irslink.cli

import tracer

WARMUP_ARGV = ["gain", "--n-runs", "100", "--out", "warmup.csv"]
POINTS = {"simulator.point"}


def invoke(spec: dict, traced: bool) -> tuple[dict, list]:
    """One timed call of the CLI entry point: its output, and its spans."""
    for path in spec["outputs"]:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    t = tracer.Tracer()
    undo, _ = tracer.install(t, None if traced else POINTS)
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            rc = irslink.cli.main(spec["argv"])
            seconds = time.perf_counter() - start
    finally:
        tracer.uninstall(undo)
    try:
        with open(spec["outputs"][0], encoding="utf-8") as fh:
            csv_text = fh.read()
    except OSError:
        csv_text = ""
    rep = {"s": seconds, "rc": rc, "csv": csv_text, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()[-2000:],
           "paths": sum(s.attrs.get("paths", 0) for s in t.spans if s.name in POINTS),
           "count_errors": sorted(t.count_errors)}
    if traced:
        rep["layers"] = tracer.layer_metrics(t.spans, spec["threads"])
    return rep, t.spans


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    invoke({"argv": WARMUP_ARGV, "outputs": ["warmup.csv"]}, traced=False)
    undo, absent = tracer.install(tracer.Tracer())
    tracer.uninstall(undo)
    print(json.dumps({"absent": absent}), flush=True)

    spans = None
    for request in sys.stdin:
        gc.collect()
        traced = request.strip() == "traced"
        rep, call_spans = invoke(spec, traced)
        if traced:
            spans = call_spans
        print(json.dumps(rep), flush=True)
    if spans is not None:
        with open(spec["spans"], "w", encoding="utf-8") as fh:
            json.dump(tracer.span_records(spans), fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
