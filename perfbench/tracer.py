"""Span tracer for the benchmark's traced pass, and the per-layer metrics.

Spans are recorded from outside the program: ``install`` replaces public
functions of the ``irslink`` modules, at the module or class where the
program looks each name up, with wrappers that open a span around the call.
Nothing under ``src/`` is changed.

Each thread has its own span stack, held in a context variable.  The sweep's
thread pool is replaced by one that runs every task in a copy of the
submitting thread's context, so a span opened in a pool thread has the
submitting span (``run_sweep``) as its parent.
"""

from __future__ import annotations

import contextvars
import importlib
import itertools
import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Collects spans in memory; thread-safe."""

    def __init__(self):
        self.spans: list[Span] = []
        self.count_errors: set[str] = set()  # spans whose counts could not be taken
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._current: contextvars.ContextVar[int | None] = contextvars.ContextVar("span", default=None)

    def begin(self, name: str) -> tuple[Span, contextvars.Token]:
        with self._lock:
            sid = next(self._ids)
        span = Span(sid, self._current.get(), name, threading.get_ident(), time.perf_counter())
        return span, self._current.set(sid)

    def end(self, span: Span, token: contextvars.Token) -> None:
        span.end = time.perf_counter()
        self._current.reset(token)
        with self._lock:
            self.spans.append(span)

    def wrap(self, fn, name: str, attrs=None):
        """``fn`` with a span named ``name`` around each call; ``attrs(args, result)``
        returns counts stored on the span."""
        def traced(*args, **kwargs):
            span, token = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span, token)
            if attrs is not None:
                try:
                    span.attrs = attrs(args, result)
                except (AttributeError, IndexError, TypeError):  # the call's signature has changed
                    self.count_errors.add(name)
            return result
        traced.__wrapped__ = fn
        return traced


class ContextPool(ThreadPoolExecutor):
    """A ThreadPoolExecutor whose tasks inherit the submitter's current span."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


def _nbytes(result) -> int:
    arrays = result if isinstance(result, tuple) else (result,)
    return sum(getattr(a, "nbytes", 0) for a in arrays)


def _evals(args, result):
    return {"evals": getattr(args[0], "size", 1)}


def _draws(args, result):
    return {"draws": result.size, "nbytes": _nbytes(result)}


def _point(args, result):
    cfg, mc = args[0], args[1]
    return {"key": (cfg, mc), "paths": mc.n_runs * mc.n_rays + cfg.k + 1}


# Bytes per (run, ray) that wall_power_estimate materialises itself, beyond the
# arrays its hooked callees return: phases (float64), exp(1j*phases) and
# amps*exp(...) (complex128 each).  Computed from shapes, not measured.
WALL_OWN_BYTES_PER_PATH = 8 + 16 + 16


def _wall(args, result):
    mc = args[1]
    return {"own_bytes": WALL_OWN_BYTES_PER_PATH * mc.n_runs * mc.n_rays}


# (module, attribute, span name, counts).  Each entry names the place where
# the program looks the function up, so that every call goes through a wrapper.
HOOKS = (
    ("irslink.cli", "main", "cli", None),
    ("irslink.cli", "run_sweep", "experiments.run_sweep", None),
    ("irslink.cli", "optimal_distance", "experiments.optimal_distance", None),
    ("irslink.cli", "render_line_plot", "svgplot", None),
    ("irslink.experiments", "irs_gain", "simulator.point", _point),
    ("irslink.simulator", "irs_gain", "simulator.point", _point),  # cmd_gain imports it at call time
    ("irslink.simulator", "wall_power_estimate", "simulator.wall", _wall),
    ("irslink.simulator", "_scatter_matrix", "simulator.scatter", lambda a, r: {"nbytes": _nbytes(r)}),
    ("irslink.simulator", "_reflected_amps_phases", "simulator.link_budget",
     lambda a, r: {"paths": r[0].size, "nbytes": _nbytes(r)}),
    ("irslink.simulator", "vertical_gain", "propagation", _evals),
    ("irslink.simulator", "pl_nlos", "propagation", _evals),
    ("irslink.simulator", "pl_los", "propagation", _evals),
    ("irslink.rng", "run_seeds", "rng", _draws),
    ("irslink.rng", "uniform_block", "rng", _draws),
    ("irslink.scenario", "ScenarioConfig.geometry", "geometry", lambda a, r: {"elements": len(r.elements)}),
    ("irslink.geometry", "ScenarioGeometry.element_matrix", "geometry", None),
)


def _resolve(module: str, attr: str):
    """(owner, name, current value) for ``module.attr``, or None if it does not resolve."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        value = owner.__dict__.get(name)  # the function itself, not a bound method
    else:
        value = getattr(owner, name, None)
    return None if not callable(value) else (owner, name, value)


def install(tracer: Tracer, names: set[str] | None = None) -> tuple[list, list[str]]:
    """Wrap every hook that resolves, or only those whose span name is in
    ``names``.  A full install also replaces the sweep's thread pool.
    Returns (undo list, hooks that did not resolve)."""
    undo, absent = [], []
    for module, attr, name, attrs in HOOKS:
        if names is not None and name not in names:
            continue
        found = _resolve(module, attr)
        if found is None:
            absent.append(f"{module}.{attr}")
            continue
        owner, key, fn = found
        setattr(owner, key, tracer.wrap(fn, name, attrs))
        undo.append((owner, key, fn))
    if names is None:
        found = _resolve("irslink.experiments", "ThreadPoolExecutor")
        if found is None:
            absent.append("irslink.experiments.ThreadPoolExecutor")
        else:
            owner, key, cls = found
            setattr(owner, key, ContextPool)
            undo.append((owner, key, cls))
    return undo, absent


def uninstall(undo: list) -> None:
    for owner, key, fn in reversed(undo):
        setattr(owner, key, fn)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval its child spans
    cover.  Children may run on other threads and overlap each other, so the
    covered part is the length of the union of their clipped intervals."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


# Per-layer metrics: unit, and the span names each is computed from.  A metric
# none of whose spans could be hooked is reported as absent.
_EXPERIMENTS = ("experiments.run_sweep", "experiments.optimal_distance")
LAYER_METRICS = {
    "rng.ms": ("ms", ("rng",)),
    "rng.calls": ("count", ("rng",)),
    "rng.draws": ("count", ("rng",)),
    "rng.draws_per_s": ("1/s", ("rng",)),
    "simulator.link_budget.ms": ("ms", ("simulator.link_budget",)),
    "simulator.link_budget.paths": ("count", ("simulator.link_budget",)),
    "simulator.scatter.ms": ("ms", ("simulator.scatter",)),
    "simulator.wall.self_ms": ("ms", ("simulator.wall",)),
    "simulator.wall.bytes_computed": ("bytes", ("simulator.wall",)),
    "simulator.point_ms": ("ms", ("simulator.point",)),
    "propagation.ms": ("ms", ("propagation",)),
    "propagation.evals": ("count", ("propagation",)),
    "geometry.ms": ("ms", ("geometry",)),
    "geometry.calls": ("count", ("geometry",)),
    "geometry.elements_built": ("count", ("geometry",)),
    "experiments.points": ("count", _EXPERIMENTS),
    "experiments.unique_ratio": ("ratio", ("simulator.point",)),
    "experiments.self_ms": ("ms", _EXPERIMENTS),
    "experiments.parallel_eff": ("ratio", ("experiments.run_sweep",)),
    "cli.self_ms": ("ms", ("cli",)),
    "svgplot.ms": ("ms", ("svgplot",)),
}

def layer_metrics(spans: list[Span], threads: int) -> dict[str, float]:
    """Per-layer metrics of one traced invocation (times in ms)."""
    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def dur(name):
        return 1e3 * sum(s.end - s.start for s in by_name.get(name, ()))

    def count(name, key):
        return sum(s.attrs.get(key, 0) for s in by_name.get(name, ()))

    def under(span, names):
        p = span.parent
        while p is not None:
            if by_id[p].name in names:
                return by_id[p]
            p = by_id[p].parent
        return None

    points = by_name.get("simulator.point", [])
    sweep_points = [s for s in points if under(s, ("experiments.run_sweep",))]
    sweep_ms = dur("experiments.run_sweep")
    walls = by_name.get("simulator.wall", [])
    wall_ids = {s.id for s in walls}
    wall_bytes = count("simulator.wall", "own_bytes") + sum(
        s.attrs.get("nbytes", 0) for s in spans if s.parent in wall_ids)
    rng_ms = dur("rng")
    return {
        "rng.ms": rng_ms,
        "rng.calls": len(by_name.get("rng", ())),
        "rng.draws": count("rng", "draws"),
        "rng.draws_per_s": count("rng", "draws") / (rng_ms / 1e3) if rng_ms > 0 else 0.0,
        "simulator.link_budget.ms": dur("simulator.link_budget"),
        "simulator.link_budget.paths": count("simulator.link_budget", "paths"),
        "simulator.scatter.ms": dur("simulator.scatter"),
        "simulator.wall.self_ms": 1e3 * sum(own[s.id] for s in walls),
        "simulator.wall.bytes_computed": wall_bytes,
        "simulator.point_ms": 1e3 * statistics.median(s.end - s.start for s in points) if points else 0.0,
        "propagation.ms": dur("propagation"),
        "propagation.evals": count("propagation", "evals"),
        "geometry.ms": dur("geometry"),
        "geometry.calls": len(by_name.get("geometry", ())),
        "geometry.elements_built": count("geometry", "elements"),
        "experiments.points": sum(1 for s in points if under(s, _EXPERIMENTS)),
        "experiments.unique_ratio": len({s.attrs.get("key") for s in points}) / len(points) if points else 0.0,
        "experiments.self_ms": 1e3 * sum(own[s.id] for n in _EXPERIMENTS for s in by_name.get(n, ())),
        "experiments.parallel_eff": (1e3 * sum(s.end - s.start for s in sweep_points) / (threads * sweep_ms)
                                     if sweep_ms > 0 else 0.0),
        "cli.self_ms": 1e3 * sum(own[s.id] for s in by_name.get("cli", ())),
        "svgplot.ms": dur("svgplot"),
    }


def absent_metrics(absent_hooks: list[str]) -> list[str]:
    """Metrics none of whose spans could be recorded."""
    hooked = {name for module, attr, name, _ in HOOKS if f"{module}.{attr}" not in absent_hooks}
    return [m for m, (_, names) in LAYER_METRICS.items() if hooked.isdisjoint(names)]


def span_records(spans: list[Span]) -> list[dict]:
    """Spans as JSON-ready dicts (the point key is replaced by its path count)."""
    return [{"id": s.id, "parent": s.parent, "name": s.name, "thread": s.thread,
             "start": s.start, "end": s.end,
             "attrs": {k: v for k, v in s.attrs.items() if k != "key"}} for s in spans]
