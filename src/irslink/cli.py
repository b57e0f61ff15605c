"""Command-line front end: single gain evaluations, sweeps, placement search.

Its surface is read from the records: every field of the two configs is a
config key and a flag (an alias, choices and help in the field's metadata),
the CSV columns are GainResult's fields, and a sweep's default grid is its
SWEEPABLE entry's.  Outputs CSV with the fixed header
    param[,overlay],gain_db,std_error_db,gamma_irs,los_amp,irs_sum_amp,wall_mean_amp,mean_wall_power_mw
(numbers rendered with 6 significant digits) plus a JSON run manifest that is
sufficient to reproduce the CSV byte-for-byte.

Exit codes: 0 success, 2 configuration/validation error, 3 geometry/numerical error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, astuple, fields
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .errors import DegenerateGeometryError, InvalidParameterError
from .experiments import SWEEPABLE, SweepSpec, default_l_grid, optimal_distance, run_sweep
from .rng import GENERATOR_ID
from .scenario import MonteCarloConfig, ScenarioConfig, lattice_shape
from .simulator import GainResult
from .svgplot import render_line_plot

# a config key is parsed by its field's annotated type; "k" is the one key
# that is not a field (lattice_shape resolves it)
_FIELD_TYPES = {"int": int, "float": float, "float | None": float, "str": str}
_FIELDS = fields(ScenarioConfig) + fields(MonteCarloConfig)
_KEY_TYPES = {f.name: _FIELD_TYPES[f.type] for f in _FIELDS} | {"k": int}
_KEY_META = {f.name: f.metadata for f in _FIELDS} | {"k": {}}
_MC_KEYS = {f.name for f in fields(MonteCarloConfig)}

_HEADER_BASE = ",".join(f.metadata.get("column", f.name) for f in fields(GainResult))

_SWEEP_NAMES = {name.replace("_", "-"): name for name in SWEEPABLE}

_MAX_RANGE_POINTS = 10**6  # one gain point each; far past any useful grid


def _fmt(x) -> str:
    return format(float(x), ".6g")


def parse_config_text(text: str) -> dict:
    """Parse flat ``key = value`` lines; '#' starts a comment."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidParameterError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = (part.strip() for part in line.partition("="))
        if key not in _KEY_TYPES:
            raise InvalidParameterError(f"config line {lineno}: unknown key {key!r}")
        values[key] = _value(key, val, f"config line {lineno}")
    return values


def _value(key: str, text: str, source: str):
    """A key's value from a config line's or a flag's text, by the key's type;
    ``source`` names the text in the error line."""
    try:
        return _KEY_TYPES[key](text)
    except ValueError:
        raise InvalidParameterError(f"{source}: bad value for {key}: {text!r}") from None


def _parse_range(text: str) -> list[float]:
    """START:STOP:STEP, inclusive of STOP when it lands on the grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise InvalidParameterError(f"expected START:STOP:STEP, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise InvalidParameterError(f"non-numeric range {text!r}") from None
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise InvalidParameterError(f"range START, STOP and STEP must be finite, got {text!r}")
    if step <= 0:
        raise InvalidParameterError(f"range step must be positive, got {step}")
    if stop < start:
        raise InvalidParameterError(f"range stop must be >= start in {text!r}")
    span = (stop - start) / step + 1e-9
    if not span < _MAX_RANGE_POINTS:  # also an overflowed (infinite) count
        raise InvalidParameterError(f"range {text!r} has more than {_MAX_RANGE_POINTS} points")
    n = int(span) + 1
    return [start + i * step for i in range(n)]


def _parse_overlay(text: str) -> tuple[str, list[float]]:
    name, _, vals = text.partition("=")
    if not _ or name not in _SWEEP_NAMES:
        raise InvalidParameterError(f"expected --overlay NAME=V1,V2,... with NAME in {sorted(_SWEEP_NAMES)}")
    try:
        values = [float(v) for v in vals.split(",") if v != ""]
    except ValueError:
        raise InvalidParameterError(f"non-numeric overlay values in {text!r}") from None
    return _SWEEP_NAMES[name], values


def _flag(key: str) -> str:
    """The flag of a config key: its metadata's alias, else the key less a trailing "_m", hyphenated."""
    return _KEY_META[key].get("flag", "--" + key.removesuffix("_m").replace("_", "-"))


def build_configs(args) -> tuple[ScenarioConfig, MonteCarloConfig]:
    """Merge config file, flag overrides and defaults into the two configs."""
    values: dict = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                values.update(parse_config_text(fh.read()))
            except UnicodeDecodeError as exc:
                raise InvalidParameterError(f"--config {args.config!r}: not UTF-8 at byte {exc.start}") from None
    for key in _KEY_TYPES:
        if getattr(args, key) is not None:
            values[key] = _value(key, getattr(args, key), _flag(key))

    k = values.pop("k", None)
    if k is not None:
        values["irs_rows"], values["irs_cols"] = lattice_shape(k, values.get("irs_rows"), values.get("irs_cols"))

    mc_values = {key: values.pop(key) for key in _MC_KEYS & values.keys()}
    cfg = ScenarioConfig(**values)
    mc = MonteCarloConfig(**mc_values)
    if cfg.k < 1:
        raise InvalidParameterError("irs_rows*irs_cols must be >= 1 (element count k must be positive)")
    return cfg, mc


def _result_cells(res: GainResult) -> str:
    cells = astuple(res)
    text = ",".join(_fmt(v) for v in cells)
    if not all(math.isfinite(v) for v in cells):  # exit 3 before anything is written
        raise FloatingPointError(f"non-finite result: {_HEADER_BASE} = {text}")
    return text


def _emit_sweep(args, result, extra: dict) -> None:
    """Write a command's plot (with --svg), then its CSV and manifest, once every cell is checked."""
    spec = result.spec
    parameter, overlay = spec.parameter, spec.overlay_parameter
    lines = [("param,overlay," if overlay else "param,") + _HEADER_BASE]
    for row in result.rows:
        prefix = _fmt(row.value) + ("," + _fmt(row.overlay_value) if overlay else "")
        lines.append(f"{prefix},{_result_cells(row.result)}")
    csv_text = "\n".join(lines) + "\n"
    manifest = {
        "artifact_version": __version__,
        "generator": GENERATOR_ID,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "command": list(getattr(args, "_argv", [])),
        **asdict(spec.mc),  # n_runs, n_rays, master_seed, threads, ray_phases
        "config": asdict(spec.base),
        **extra,
    }
    if args.svg:  # first, so that a failed plot write leaves no results behind
        label = SWEEPABLE[parameter][1]
        series = [(f"{overlay.replace('_', '-')}={_fmt(ov)}" if overlay else "gain", xs, gains)
                  for ov, (xs, gains) in result.series().items()]
        with open(args.svg, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(render_line_plot(series, label, "gain [dB]", title=f"gain vs {label}"))
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(csv_text)
        with open(args.out + ".manifest.json", "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        sys.stdout.write(csv_text)
        sys.stderr.write(json.dumps(manifest, sort_keys=True) + "\n")


def cmd_gain(args) -> int:
    """One gain point: a one-point sweep over the UAV height, so param is that height."""
    cfg, mc = build_configs(args)
    result = run_sweep(SweepSpec("h_uav", (cfg.h_uav_m,), cfg, mc))
    _emit_sweep(args, result, {})
    return 0


def cmd_sweep(args) -> int:
    cfg, mc = build_configs(args)
    parameter = _SWEEP_NAMES[args.sweep]
    default_grid = SWEEPABLE[parameter][2]
    if not (args.values or default_grid):
        raise InvalidParameterError(f"--values is required when sweeping {args.sweep}")
    values = _parse_range(args.values) if args.values else default_grid()
    overlay_param, overlay_values = (None, ())
    if args.overlay:
        overlay_param, overlay_values = _parse_overlay(args.overlay)
    spec = SweepSpec(parameter, tuple(values), cfg, mc, overlay_param, tuple(overlay_values))
    result = run_sweep(spec)
    _emit_sweep(args, result, {"sweep": result.metadata})
    return 0


def cmd_optimize(args) -> int:
    cfg, mc = build_configs(args)
    grid = _parse_range(args.l_grid) if args.l_grid else default_l_grid()
    result, l_star, gain_star = optimal_distance(cfg, mc, grid, args.refine)
    # refined: the optimum is a golden-section point, strictly between grid values
    _emit_sweep(args, result, {"l_grid": list(grid), "refined": l_star not in grid})
    summary = f"l_star = {_fmt(l_star)}, gain_db = {_fmt(gain_star)}\n"
    (sys.stderr if args.out is None else sys.stdout).write(summary)
    return 0


def _add_common(p: argparse.ArgumentParser, svg: bool = False) -> None:
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--out", help="write CSV here (manifest goes to OUT.manifest.json)")
    if svg:
        p.add_argument("--svg", help="also write an SVG line plot")
    for key in _KEY_TYPES:  # a flag's text is parsed by _value, as a config line's is
        flag, meta = _flag(key), _KEY_META[key]
        # --help lists a flag only with its metadata's help, and shows its choices in place of a metavar
        p.add_argument(flag, dest=key, help=meta.get("help", argparse.SUPPRESS),
                       metavar="{%s}" % ",".join(meta["choices"]) if "choices" in meta else flag[2:].upper())


class _Parser(argparse.ArgumentParser):
    """Its rejections, and its subparsers', reach ``main`` as one error line, not a usage text."""
    def error(self, message):
        raise InvalidParameterError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="irslink", allow_abbrev=False, description="reflector-assisted UAV link gain simulator")
    parser.add_argument("--version", action="version", version=f"irslink {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gain = sub.add_parser("gain", allow_abbrev=False, help="evaluate the gain at one scenario point")
    _add_common(p_gain)
    p_gain.set_defaults(func=cmd_gain, svg=None)

    p_sweep = sub.add_parser("sweep", allow_abbrev=False, help="sweep one parameter, optionally with an overlay")
    _add_common(p_sweep, svg=True)
    p_sweep.add_argument("--sweep", required=True, choices=sorted(_SWEEP_NAMES), help="parameter to sweep")
    p_sweep.add_argument("--values", help="grid as START:STOP:STEP (inclusive)")
    p_sweep.add_argument("--overlay", help="second parameter as NAME=V1,V2,...")
    p_sweep.set_defaults(func=cmd_sweep)

    p_opt = sub.add_parser("optimize", allow_abbrev=False, help="find the gain-maximising BS-wall distance")
    _add_common(p_opt, svg=True)
    p_opt.add_argument("--l-grid", help="distance grid as START:STOP:STEP (default 10:100:5)")
    p_opt.add_argument("--refine", action="store_true", help="golden-section refinement around the argmax")
    p_opt.set_defaults(func=cmd_optimize)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _build_parser().parse_args(argv)
        args._argv = argv
        # every result cell is checked before output (exit 3), so numpy's
        # overflow/invalid warnings would only repeat that report
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except InvalidParameterError as exc:
        message = str(exc)
    except OSError as exc:  # the OS's reason, and the file's name quoted as input text is
        message = f"{exc.strerror or exc}" + ("" if exc.filename is None else f": {exc.filename!r}")
    except MemoryError as exc:  # an allocation this host cannot serve, reported like a bad input
        message = f"out of memory: {exc}"
    except (DegenerateGeometryError, ArithmeticError) as exc:  # overflow, division by zero, non-finite cells
        sys.stderr.write(f"error: {exc}\n")
        return 3
    # a rejection is one line of at most 120 characters, newline included: a
    # longer one keeps its two ends, whatever input text it quotes
    line = f"error: {message}"
    sys.stderr.write((line if len(line) < 120 else f"{line[:67]} ... {line[-47:]}") + "\n")
    return 2


if __name__ == "__main__":
    sys.exit(main())
