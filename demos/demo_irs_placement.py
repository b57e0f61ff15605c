"""Where should the reflector go?

There is a sweet spot for the BS-wall distance: the wall patch should sit
inside the down-tilted main lobe, so a lower mounting point wants a larger
distance (the 15 degree boresight from a 25 m mast crosses 10 m height at
~56 m out, and 5 m height at ~75 m).  The UAV height barely moves the
optimum, which makes building selection independent of the served altitude.
"""

import pathlib
from dataclasses import replace

from irslink import MonteCarloConfig, ScenarioConfig
from irslink.experiments import SweepSpec, default_l_grid, optimal_distance, run_sweep
from irslink.svgplot import render_line_plot

OUT = pathlib.Path(__file__).resolve().parent / "out"

mc = MonteCarloConfig(ray_phases="uniform")
base = ScenarioConfig()
grid = default_l_grid()

print("optimal BS-wall distance by reflector mounting height:")
for h_irs in (15.0, 10.0, 5.0):
    l_star, gain = optimal_distance(replace(base, h_irs_m=h_irs), grid, mc)
    print(f"  h_irs = {h_irs:4g} m  ->  L* = {l_star:5g} m  (gain {gain:.2f} dB)")

print("\noptimal distance barely depends on the UAV height (h_irs = 10 m):")
for h_uav in (30.0, 50.0, 100.0):
    l_star, gain = optimal_distance(replace(base, h_uav_m=h_uav), grid, mc)
    print(f"  h_uav = {h_uav:4g} m  ->  L* = {l_star:5g} m  (gain {gain:.2f} dB)")

l_star, gain = optimal_distance(base, grid, mc, refine=True)
print(f"\ngolden-section refinement at defaults: L* = {l_star:.2f} m, gain {gain:.2f} dB")

spec = SweepSpec("l", tuple(grid), base, mc, "h_irs", (5.0, 10.0, 15.0))
result = run_sweep(spec)
OUT.mkdir(exist_ok=True)
(OUT / "gain_vs_distance.svg").write_text(render_line_plot(
    [(f"h_irs={h:g} m", xs, ys) for h, (xs, ys) in result.series().items()],
    "BS-wall distance [m]", "gain [dB]", title="placement sweet spot",
))
print(f"wrote {OUT / 'gain_vs_distance.svg'}")
