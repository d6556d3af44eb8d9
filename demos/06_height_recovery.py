"""Height recovery with elevated waveguides.

With PAs mounted at 6 m, each subarray's cosine pins a cone around its
guide axis; three or more spread anchors intersect the cones at the user
(x, y, height). First the solver is exercised on exact cosines, then the
full pipeline runs on noisy pilots.
"""

import numpy as np

from passloc.channel import RadioConfig, make_schedule, measure, synthesize_paths
from passloc.estimator import (EstimatorConfig, run_omp_gcl, solve_position_3d,
                               start_dictionaries)
from passloc.geometry import ServiceRegion, build_mw_layout, sample_scene

region = ServiceRegion(30.0, 30.0, 6.0, h_range=(0.0, 6.0))
radio = RadioConfig(28e9)
layout = build_mw_layout(region, 4, 32, radio.wavelength / 2.0)
refs = np.array([s.reference_position for s in layout.subarrays])

# exact-input sanity: cones intersect at the truth
truth = np.array([12.0, 7.0, 1.5])
r3 = np.linalg.norm(truth - refs, axis=1)
fix = solve_position_3d(refs, (truth[0] - refs[:, 0]) / r3,
                        bounds=((0.0, 30.0), (0.0, 30.0)))
print(f"exact cosines: truth {truth} -> fix {np.round(fix.position, 6)} "
      f"(cost {fix.cost:.2e})")

# a target at the array height has zero vertical gap and reports it exactly
flat = np.array([25.0, 11.0, 6.0])
r3 = np.linalg.norm(flat - refs, axis=1)
fix = solve_position_3d(refs, (flat[0] - refs[:, 0]) / r3,
                        bounds=((0.0, 30.0), (0.0, 30.0)))
print(f"zero-gap target: height comes back {float(fix.position[2])!r} (array at 6.0)")

# end to end on pilots
scene = sample_scene(region, l=0, rng_seed=14, mode="3d")
paths = synthesize_paths(layout, scene, radio)
ms = measure(layout, make_schedule(layout, 64, 0.5, rng_seed=5), paths, radio,
             snr_db=25.0, rng_seed=6)
cfg = EstimatorConfig(region=region, mode="3d", g_theta=1024)
result = run_omp_gcl(ms, layout, radio, cfg, start_dictionaries(layout, radio, cfg))
est = result.paths[0].position
err = np.linalg.norm(est - scene.user)
print(f"\n25 dB pilots: user {np.round(scene.user, 3)} -> "
      f"{np.round(est, 3)}, error {err * 100:.1f} cm")
