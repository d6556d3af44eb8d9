"""Position-error bounds and the geometry that drives them.

Fisher information for the bearing-fusion estimator, evaluated for
corner-anchored waveguides against a two-anchor guide line. The guide
line is blind along its own axis (parallel bearings), which shows up as
an unbounded variance direction. Also runs the empirical calibration
that maps a pilot SNR to a bearing noise sigma.
"""

from pathlib import Path

import numpy as np

from passloc.channel import RadioConfig
from passloc.crlb import calibrate_bearing_sigma, crlb_bound, crlb_heatmap, diversity_score
from passloc.geometry import ServiceRegion, build_mw_layout, build_sw_layout
from passloc.harness import ExperimentConfig

out = Path(__file__).parent / "out"
out.mkdir(exist_ok=True)

region = ServiceRegion(30.0, 30.0, 2.0)
radio = RadioConfig(28e9)
d = radio.wavelength / 2.0

corners = np.array([s.reference_position[:2]
                    for s in build_mw_layout(region, 4, 32, d).subarrays])
line = np.array([s.reference_position[:2]
                 for s in build_sw_layout(region, 2, 32, d).subarrays])

sigma = 0.01
for q in ((21.0, 9.5), (15.0, 15.0), (5.0, 25.0)):
    rc = crlb_bound(q, corners, sigma**2)
    rl = crlb_bound(q, line, sigma**2)
    tc = np.sqrt(np.trace(rc.crlb))
    tl = np.sqrt(np.trace(rl.crlb)) if not rl.unbounded else np.inf
    print(f"target {q}: rms bound corners {tc * 100:6.2f} cm | "
          f"guide line {tl * 100:6.2f} cm | "
          f"diversity {diversity_score(q, corners):.3f} vs "
          f"{diversity_score(q, line):.3f}")

# on the guide line itself both bearings are parallel: no information across it
rep = crlb_bound((10.0, 15.0), line, sigma**2)
print(f"\non-line target unbounded: {rep.unbounded}, "
      f"blind direction {rep.null_direction}")

rows = crlb_heatmap(region, corners, sigma**2, grid_n=8)
np.savetxt(out / "bound_heatmap.csv", rows, delimiter=",",
           header="x,y,trace_crlb,lambda_min", comments="")
print(f"wrote {out / 'bound_heatmap.csv'} ({rows.shape[0]} grid points)")

# sigma is not a free parameter: tie it to a pilot SNR empirically, on the
# sweep's own mw trials (3 subarrays of 32 PAs in the same 30 m region)
sig_cal, info = calibrate_bearing_sigma(ExperimentConfig(), "mw", snr_db=20.0, trials=60)
print(f"\ncalibrated bearing sigma at 20 dB pilots: {sig_cal:.5f} rad "
      f"({info['samples']} samples, provenance '{info['provenance']}')")
