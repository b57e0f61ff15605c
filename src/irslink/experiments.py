"""Parameter sweeps and the one-dimensional placement search.

Sweepable parameters: element count "k" (mapped to a near-square lattice),
UAV height "h_uav", BS-wall distance "l", reflector height "h_irs", and the
carrier frequency "f".  When "l" is swept the UAV keeps tracking the midpoint
x = L/2 unless the scenario pins an explicit UAV position.

Every grid point is evaluated with the same master seed, so sweeps are
deterministic and differences between points are not blurred by independent
Monte Carlo noise.
"""

from __future__ import annotations

import contextvars
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import __version__
from .errors import InvalidParameterError
from .rng import GENERATOR_ID
from .scenario import MonteCarloConfig, ScenarioConfig, near_square_factors
from .simulator import GainResult, irs_gain

SWEEPABLE = ("k", "h_uav", "l", "h_irs", "f")


def apply_parameter(cfg: ScenarioConfig, name: str, value: float) -> ScenarioConfig:
    """Return a copy of cfg with one sweepable parameter changed."""
    if name == "k":
        k = int(value)
        if k != value or k < 1:
            raise InvalidParameterError(f"k values must be positive integers, got {value}")
        rows, cols = near_square_factors(k)
        return replace(cfg, irs_rows=rows, irs_cols=cols)
    if name == "h_uav":
        return replace(cfg, h_uav_m=float(value))
    if name == "l":
        return replace(cfg, l_m=float(value))
    if name == "h_irs":
        return replace(cfg, h_irs_m=float(value))
    if name == "f":
        return replace(cfg, f_ghz=float(value))
    raise InvalidParameterError(f"unknown sweep parameter {name!r}; expected one of {SWEEPABLE}")


@dataclass(frozen=True)
class SweepSpec:
    parameter: str
    values: tuple
    base: ScenarioConfig
    mc: MonteCarloConfig
    overlay_parameter: str | None = None
    overlay_values: tuple = ()

    def validate(self) -> "SweepSpec":
        if self.parameter not in SWEEPABLE:
            raise InvalidParameterError(f"unknown sweep parameter {self.parameter!r}; expected one of {SWEEPABLE}")
        if len(self.values) == 0:
            raise InvalidParameterError("sweep values must be non-empty")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise InvalidParameterError("sweep values must be strictly increasing")
        if self.overlay_parameter is not None:
            if self.overlay_parameter not in SWEEPABLE:
                raise InvalidParameterError(f"unknown overlay parameter {self.overlay_parameter!r}")
            if len(self.overlay_values) == 0:
                raise InvalidParameterError("overlay values must be non-empty when an overlay parameter is set")
            if len(set(self.overlay_values)) != len(self.overlay_values):
                raise InvalidParameterError("overlay values must be distinct")
            if self.overlay_parameter == self.parameter:
                # apply_parameter would overwrite every overlay value with the swept one
                raise InvalidParameterError(f"overlay parameter {self.overlay_parameter!r} is the swept parameter")
        return self


@dataclass(frozen=True)
class SweepRow:
    value: float
    overlay_value: float | None
    result: GainResult


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    metadata: dict


def _sweep_metadata(spec: SweepSpec) -> dict:
    meta = {
        "artifact_version": __version__,
        "generator": GENERATOR_ID,
        "master_seed": spec.mc.master_seed,
        "ray_phases": spec.mc.ray_phases,
        "n_runs": spec.mc.n_runs,
        "n_rays": spec.mc.n_rays,
        "base_config": asdict(spec.base),
        "parameter": spec.parameter,
        "values": list(spec.values),
        "overlay_parameter": spec.overlay_parameter,
        "overlay_values": list(spec.overlay_values),
    }
    if spec.parameter == "k":
        # non-square counts silently become rectangular lattices; record them
        meta["k_factorizations"] = {int(v): list(near_square_factors(int(v))) for v in spec.values}
    return meta


def run_sweep(spec: SweepSpec, threads: int = 1) -> SweepResult:
    """Evaluate the gain on the whole (overlay x values) grid, in order."""
    spec.validate()
    overlays: tuple = (None,) if spec.overlay_parameter is None else spec.overlay_values
    grid = []
    for ov in overlays:
        cfg = spec.base if ov is None else apply_parameter(spec.base, spec.overlay_parameter, ov)
        for v in spec.values:
            grid.append((v, ov, apply_parameter(cfg, spec.parameter, v)))

    def evaluate(item):
        v, ov, cfg = item
        return SweepRow(v, ov, irs_gain(cfg, spec.mc))

    if threads > 1:
        # each point runs in a copy of the caller's context (numpy error state)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(contextvars.copy_context().run, evaluate, item) for item in grid]
            rows = tuple(f.result() for f in futures)
    else:
        rows = tuple(evaluate(item) for item in grid)
    return SweepResult(rows, _sweep_metadata(spec))


def component_amplitudes(cfg: ScenarioConfig, mc: MonteCarloConfig) -> tuple[float, float, float]:
    """(LoS, mean wall reflection, reflector sum) amplitudes at one point."""
    res = irs_gain(cfg, mc)
    return res.los_amplitude, res.mean_wall_reflection_amplitude, res.irs_sum_amplitude


def optimal_distance(
    base: ScenarioConfig,
    l_grid,
    mc: MonteCarloConfig,
    refine: bool = False,
) -> tuple[float, float]:
    """Gain-maximising BS-wall distance over an ascending grid of L values.

    Ties break toward the smaller L.  With refine=True the in-tree
    golden-section search (a port of scipy.optimize.golden) runs between the
    grid neighbours of the argmax; the objective is a pure function of L
    because the Monte Carlo seed is fixed.
    """
    l_grid = list(l_grid)
    if not l_grid:
        raise InvalidParameterError("l_grid must be non-empty")
    if any(b <= a for a, b in zip(l_grid, l_grid[1:])):
        raise InvalidParameterError("l_grid must be strictly increasing")
    gains = [_gain_at(base, mc, l) for l in l_grid]
    return _best_distance(base, mc, l_grid, gains, refine)


def _gain_at(base: ScenarioConfig, mc: MonteCarloConfig, l: float) -> float:
    return irs_gain(apply_parameter(base, "l", l), mc).gain_db


def _best_distance(base: ScenarioConfig, mc: MonteCarloConfig, l_grid, gains, refine: bool) -> tuple[float, float]:
    """The placement search on already evaluated grid gains (see optimal_distance)."""
    best = int(np.argmax(gains))  # first occurrence wins -> smaller L on ties
    l_star, g_star = float(l_grid[best]), gains[best]
    # The left neighbour is strictly lower because the first maximum wins, so
    # only a tie on the right leaves no valid bracket (flat neighbourhood).
    if refine and 0 < best < len(l_grid) - 1 and gains[best + 1] < g_star:
        l_ref, f_ref = _golden_min(lambda l: -_gain_at(base, mc, l),
                                   l_grid[best - 1], l_star, l_grid[best + 1], -g_star)
        if -f_ref > g_star:
            return l_ref, -f_ref
    return l_star, g_star


_GOLDEN_R = 0.61803399  # golden ratio conjugate, rounded as scipy rounds it
_GOLDEN_C = 1.0 - _GOLDEN_R
_XTOL = float(np.sqrt(np.finfo(float).eps))
_MAXITER = 5000


def _golden_min(f, xa: float, xb: float, xc: float, fb: float) -> tuple[float, float]:
    """(x, f(x)) minimising f inside the bracket xa < xb < xc, f(xb) = fb.

    The recurrence, constants, tolerance, iteration cap and final pick of
    scipy.optimize.golden(f, brack=(xa, xb, xc)), so the same points are
    visited in the same order; fb is reused instead of evaluating f(xb).
    """
    x0, x3 = xa, xc
    if abs(xc - xb) > abs(xb - xa):
        x1, f1 = xb, fb
        x2 = xb + _GOLDEN_C * (xc - xb)
        f2 = f(x2)
    else:
        x2, f2 = xb, fb
        x1 = xb - _GOLDEN_C * (xb - xa)
        f1 = f(x1)
    for _ in range(_MAXITER):
        if abs(x3 - x0) <= _XTOL * (abs(x1) + abs(x2)):
            break
        if f2 < f1:
            x0, x1, f1 = x1, x2, f2
            x2 = _GOLDEN_R * x1 + _GOLDEN_C * x3
            f2 = f(x2)
        else:
            x3, x2, f2 = x2, x1, f1
            x1 = _GOLDEN_R * x2 + _GOLDEN_C * x0
            f1 = f(x1)
    return (x1, f1) if f1 < f2 else (x2, f2)


def default_h_uav_grid() -> list[float]:
    """1 m steps through the main-lobe transition, then 10 m steps to 150 m."""
    return [float(h) for h in range(20, 31)] + [float(h) for h in range(40, 151, 10)]


def default_l_grid() -> list[float]:
    return [float(l) for l in range(10, 101, 5)]
