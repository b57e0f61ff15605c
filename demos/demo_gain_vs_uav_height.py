"""Why the gain saturates once the UAV leaves the antenna main lobe.

The BS antenna is tilted 15 degrees below the horizon with a ~26 degree main
lobe, so a UAV hovering 25 m out leaves the lobe near 24 m altitude.  The
sweep below shows the direct-path amplitude collapsing across that edge while
the reflector link keeps riding the main lobe, and the constant spacing
between the reflector and wall links underneath it.
"""

import math
import pathlib

from irslink import MonteCarloConfig, ScenarioConfig
from irslink.experiments import SweepSpec, default_h_uav_grid, run_sweep
from irslink.svgplot import render_line_plot

OUT = pathlib.Path(__file__).resolve().parent / "out"

mc = MonteCarloConfig(ray_phases="uniform")
base = ScenarioConfig()

spec = SweepSpec("h_uav", tuple(default_h_uav_grid()), base, mc, "l", (35.0, 50.0, 70.0))
result = run_sweep(spec)

print(f"{'H_UAV':>6} | " + " | ".join(f"L={l:g} m" for l in (35.0, 50.0, 70.0)))
for h in spec.values:
    row = [r.result.gain_db for r in result.rows if r.value == h]
    print(f"{h:>6g} | " + " | ".join(f"{g:7.2f}" for g in row))

# per-link amplitudes at the default L = 50 m
print(f"\n{'H_UAV':>6} | {'LoS dB':>8} | {'wall dB':>8} | {'reflector dB':>12} | gap dB")
rows50 = [r for r in result.rows if r.overlay_value == 50.0]
for r in rows50:
    res = r.result
    los_db = 20.0 * math.log10(res.los_amplitude)
    wall_db = 20.0 * math.log10(res.mean_wall_reflection_amplitude)
    irs_db = 20.0 * math.log10(res.irs_sum_amplitude)
    print(f"{r.value:>6g} | {los_db:8.2f} | {wall_db:8.2f} | {irs_db:12.2f} | {irs_db - wall_db:6.2f}")

OUT.mkdir(exist_ok=True)
(OUT / "gain_vs_uav_height.svg").write_text(render_line_plot(
    [(f"L={l:g} m", xs, ys) for l, (xs, ys) in result.series().items()],
    "UAV height [m]", "gain [dB]", title="gain vs UAV height",
))
(OUT / "link_amplitudes.svg").write_text(render_line_plot(
    [
        ("LoS", [r.value for r in rows50], [20 * math.log10(r.result.los_amplitude) for r in rows50]),
        ("wall", [r.value for r in rows50], [20 * math.log10(r.result.mean_wall_reflection_amplitude) for r in rows50]),
        ("reflector", [r.value for r in rows50], [20 * math.log10(r.result.irs_sum_amplitude) for r in rows50]),
    ],
    "UAV height [m]", "amplitude [dB sqrt-mW]", title="per-link received amplitude",
))
print(f"\nwrote {OUT / 'gain_vs_uav_height.svg'} and {OUT / 'link_amplitudes.svg'}")
