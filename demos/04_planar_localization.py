"""Joint user/scatterer localization on one noisy planar scene.

Three boundary waveguides, one user, one scatterer, 25 dB pilots.
Greedy per-subarray angle extraction feeds a sign-resolved least-squares
fusion; anchor distances are refreshed and the loop repeated. The
reconstructed two-path channel is compared against the truth. Note the
scattered component reaches the array some 40 dB below the direct path,
so its fix is decimeter class where the user's is centimeter class.
"""

import numpy as np

from passloc.channel import RadioConfig, channel_vector, make_schedule, measure, synthesize_paths
from passloc.estimator import EstimatorConfig, run_omp_gcl, start_dictionaries
from passloc.geometry import ServiceRegion, build_mw_layout, sample_scene
from passloc.harness import nmse, to_db

region = ServiceRegion(30.0, 30.0, 2.0)
radio = RadioConfig(28e9)
layout = build_mw_layout(region, 3, 32, radio.wavelength / 2.0)

scene = sample_scene(region, l=1, rng_seed=24)
paths = synthesize_paths(layout, scene, radio)
schedule = make_schedule(layout, 64, 0.5, rng_seed=1)
ms = measure(layout, schedule, paths, radio, snr_db=25.0, rng_seed=2)

cfg = EstimatorConfig(region=region, num_paths=2, g_theta=1024, max_outer_iters=3)
result = run_omp_gcl(ms, layout, radio, cfg, start_dictionaries(layout, radio, cfg))

print("          truth                     estimate            error")
labels = ["user     ", "scatterer"]
truths = [scene.user, scene.scatterers[0]]
for label, truth, p in zip(labels, truths, result.paths):
    err = np.hypot(*(p.position[:2] - truth[:2]))
    print(f"{label} ({truth[0]:7.3f}, {truth[1]:7.3f})   "
          f"({p.position[0]:7.3f}, {p.position[1]:7.3f})   {err * 100:6.2f} cm")

h_true = channel_vector(paths).reshape(-1)
h_est = result.channels.reshape(-1)
print(f"\nchannel NMSE = {to_db(nmse(h_true, h_est)):.1f} dB")
print(f"flags: {result.flags or '(none)'}")

for m, p in enumerate(result.paths[0].directions):
    print(f"subarray {m}: direct-path cosine {p.varphi:+.4f}, "
          f"|gain| {abs(p.coefficient):.3f}")
