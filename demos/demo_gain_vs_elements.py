"""How much does the reflector size buy?

Sweeps the element count from 25 to 100 for three UAV heights and prints the
gain over the bare-wall baseline.  Doubling the element count adds ~6 dB: the
array gathers twice the energy and phase alignment doubles the amplitude
again, so received power grows with the square of the element count.
"""

import pathlib

from irslink import MonteCarloConfig, ScenarioConfig
from irslink.experiments import SweepSpec, run_sweep
from irslink.svgplot import render_line_plot

OUT = pathlib.Path(__file__).resolve().parent / "out"

# phase-randomised wall baseline keeps the curves smooth; the geometric
# default leaves the 20 rays partially coherent over the small patch
mc = MonteCarloConfig(ray_phases="uniform")
base = ScenarioConfig()

spec = SweepSpec("k", (25, 36, 50, 64, 81, 100), base, mc, "h_uav", (30.0, 40.0, 50.0))
result = run_sweep(spec)

print(f"{'K':>5} | " + " | ".join(f"H_UAV={h:g} m" for h in (30.0, 40.0, 50.0)))
for k in spec.values:
    row = [r.result.gain_db for r in result.rows if r.value == k]
    print(f"{k:>5} | " + " | ".join(f"{g:10.2f}" for g in row))

doubled = [r.result.gain_db for r in result.rows if r.overlay_value == 50.0 and r.value in (50, 100)]
print(f"\nDoubling K from 50 to 100 at H_UAV=50 m adds {doubled[1] - doubled[0]:.2f} dB (K^2 scaling).")

OUT.mkdir(exist_ok=True)
svg = render_line_plot(
    [(f"H_UAV={h:g} m", xs, ys) for h, (xs, ys) in result.series().items()],
    "elements", "gain [dB]", title="gain vs reflector size",
)
(OUT / "gain_vs_elements.svg").write_text(svg)
print(f"wrote {OUT / 'gain_vs_elements.svg'}")
