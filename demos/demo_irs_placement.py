"""Where should the reflector go?

There is a sweet spot for the BS-wall distance: the wall patch should sit
inside the down-tilted main lobe, so a lower mounting point wants a larger
distance (the 15 degree boresight from a 25 m mast crosses 10 m height at
~56 m out, and 5 m height at ~75 m).  The UAV height barely moves the
optimum, which makes building selection independent of the served altitude.
"""

import functools
import pathlib
from dataclasses import replace

from irslink import MonteCarloConfig, ScenarioConfig
from irslink.experiments import default_l_grid, optimal_distance
from irslink.svgplot import render_line_plot

OUT = pathlib.Path(__file__).resolve().parent / "out"

mc = MonteCarloConfig(ray_phases="uniform")
base = ScenarioConfig()
grid = default_l_grid()


@functools.cache
def search(cfg: ScenarioConfig):
    """The L grid's sweep, its optimum and that gain, searched once per scenario."""
    return optimal_distance(cfg, mc, grid)


print("optimal BS-wall distance by reflector mounting height:")
for h_irs in (15.0, 10.0, 5.0):
    _, l_star, gain = search(replace(base, h_irs_m=h_irs))
    print(f"  h_irs = {h_irs:4g} m  ->  L* = {l_star:5g} m  (gain {gain:.2f} dB)")

print("\noptimal distance barely depends on the UAV height (h_irs = 10 m):")
for h_uav in (30.0, 50.0, 100.0):
    _, l_star, gain = search(replace(base, h_uav_m=h_uav))
    print(f"  h_uav = {h_uav:4g} m  ->  L* = {l_star:5g} m  (gain {gain:.2f} dB)")

_, l_star, gain = optimal_distance(base, mc, grid, refine=True)
print(f"\ngolden-section refinement at defaults: L* = {l_star:.2f} m, gain {gain:.2f} dB")

OUT.mkdir(exist_ok=True)
(OUT / "gain_vs_distance.svg").write_text(render_line_plot(
    [(f"h_irs={h:g} m", *search(replace(base, h_irs_m=h))[0].series()[None]) for h in (5.0, 10.0, 15.0)],
    "BS-wall distance [m]", "gain [dB]", title="placement sweet spot",
))
print(f"wrote {OUT / 'gain_vs_distance.svg'}")
