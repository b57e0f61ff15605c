"""Parameter sweeps and the placement search over an evaluated "l" sweep.

Sweepable parameters: element count "k" (mapped to a lattice by
``scenario.lattice_shape``), UAV height "h_uav", BS-wall distance "l",
reflector height "h_irs", and the carrier frequency "f", each with its
default grid, if any, in ``SWEEPABLE``.  When "l" is swept the UAV keeps
tracking the midpoint x = L/2 unless the scenario pins an explicit UAV position.

Every grid point is evaluated with the same master seed, so sweeps are
deterministic and differences between points are not blurred by independent
Monte Carlo noise.  A sweep is one batch: one ``wall_power_estimates`` call
over every point, overlays included, which shares each run block's draws and
runs the blocks on ``threads`` threads, then one gain per point.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidParameterError
from .scenario import MonteCarloConfig, ScenarioConfig, lattice_shape
from .simulator import GainResult, KeptPlanes, check_threads, irs_gain, wall_power_estimates


def default_h_uav_grid() -> list[float]:
    """1 m steps through the main-lobe transition, then 10 m steps to 150 m."""
    return [float(h) for h in range(20, 31)] + [float(h) for h in range(40, 151, 10)]


def default_l_grid() -> list[float]:
    return [float(l) for l in range(10, 101, 5)]


# sweep name -> (ScenarioConfig field, axis label, default grid or None); "k" sets the lattice shape
SWEEPABLE = {
    "k": (None, "elements", None),
    "h_uav": ("h_uav_m", "UAV height [m]", default_h_uav_grid),
    "l": ("l_m", "BS-wall distance [m]", default_l_grid),
    "h_irs": ("h_irs_m", "reflector height [m]", None),
    "f": ("f_ghz", "carrier frequency [GHz]", None),
}


def apply_parameter(cfg: ScenarioConfig, name: str, value: float) -> ScenarioConfig:
    """Return a copy of cfg with one sweepable parameter changed."""
    if name not in SWEEPABLE:
        raise InvalidParameterError(f"unknown sweep parameter {name!r}; expected one of {tuple(SWEEPABLE)}")
    if name == "k":
        rows, cols = lattice_shape(value)
        return replace(cfg, irs_rows=rows, irs_cols=cols)
    return replace(cfg, **{SWEEPABLE[name][0]: float(value)})


@dataclass(frozen=True)
class SweepSpec:
    parameter: str
    values: tuple
    base: ScenarioConfig
    mc: MonteCarloConfig
    overlay_parameter: str | None = None
    overlay_values: tuple = ()

    def __post_init__(self):
        if self.parameter not in SWEEPABLE:
            raise InvalidParameterError(
                f"unknown sweep parameter {self.parameter!r}; expected one of {tuple(SWEEPABLE)}")
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
        elif self.overlay_values:  # run_sweep would ignore them, and metadata would record them
            raise InvalidParameterError("overlay values need an overlay parameter")


@dataclass(frozen=True)
class SweepRow:
    value: float
    overlay_value: float | None
    result: GainResult


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    spec: SweepSpec

    @property
    def metadata(self) -> dict:
        """The swept grid only: a run manifest records the configs beside it."""
        meta = {
            "parameter": self.spec.parameter,
            "values": list(self.spec.values),
            "overlay_parameter": self.spec.overlay_parameter,
            "overlay_values": list(self.spec.overlay_values),
        }
        if self.spec.parameter == "k":
            # non-square counts silently become rectangular lattices; record them
            meta["k_factorizations"] = {int(v): list(lattice_shape(v)) for v in self.spec.values}
        return meta

    def series(self) -> dict:
        """{overlay value (None without one): (swept values, gains in dB)}."""
        out: dict = {}
        for row in self.rows:
            xs, gains = out.setdefault(row.overlay_value, ([], []))
            xs.append(row.value)
            gains.append(row.result.gain_db)
        return out


def run_sweep(spec: SweepSpec, threads: int = 1, kept: KeptPlanes | None = None) -> SweepResult:
    """Evaluate the gain on the whole (overlay x values) grid, in order; with
    ``kept``, the batch reads and fills those scatter planes."""
    overlays: tuple = (None,) if spec.overlay_parameter is None else spec.overlay_values
    grid = []
    for ov in overlays:
        cfg = spec.base if ov is None else apply_parameter(spec.base, spec.overlay_parameter, ov)
        for v in spec.values:
            grid.append((v, ov, apply_parameter(cfg, spec.parameter, v)))

    # one batch: the wall estimates share each run block, then one gain per point
    walls = wall_power_estimates([cfg for _, _, cfg in grid], spec.mc, threads, kept)
    rows = tuple(SweepRow(v, ov, irs_gain(cfg, spec.mc, wall)) for (v, ov, cfg), wall in zip(grid, walls))
    return SweepResult(rows, spec)


def optimal_distance(grid: SweepResult, refine: bool = False, threads: int = 1,
                     kept: KeptPlanes | None = None) -> tuple[float, float]:
    """Gain-maximising BS-wall distance of an evaluated ``l`` sweep without overlay.

    Ties break toward the smaller L.  With refine=True the in-tree
    golden-section search (a port of scipy.optimize.golden) runs between the
    grid neighbours of the argmax.  Each golden point is a one-point sweep of
    ``grid.spec`` on ``threads`` threads, a pure function of L because the
    Monte Carlo seed is fixed.  L moves neither the patch nor the draws, so
    the golden points read their scatter planes from ``kept`` (the grid's,
    when it was evaluated with them), or from one made here for the search.
    """
    check_threads(threads)
    spec = grid.spec
    if spec.parameter != "l" or spec.overlay_parameter is not None:
        raise InvalidParameterError("the placement search needs an l sweep without overlay, "
                                    f"got {spec.parameter!r} with overlay {spec.overlay_parameter!r}")
    l_grid, gains = grid.series()[None]
    best = int(np.argmax(gains))  # first occurrence wins -> smaller L on ties
    l_star, g_star = float(l_grid[best]), gains[best]
    # The left neighbour is strictly lower because the first maximum wins, so
    # only a tie on the right leaves no valid bracket (flat neighbourhood).
    if refine and 0 < best < len(l_grid) - 1 and gains[best + 1] < g_star:
        kept = KeptPlanes(spec.base, spec.mc) if kept is None else kept

        def loss(l):
            return -run_sweep(replace(spec, values=(l,)), threads, kept).rows[0].result.gain_db

        l_ref, f_ref = _golden_min(loss, l_grid[best - 1], l_star, l_grid[best + 1], -g_star)
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
