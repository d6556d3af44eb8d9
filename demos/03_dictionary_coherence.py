"""Angle dictionary design and coherence.

Compares the distance-parameterized dictionary (angles only, anchor
distance refreshed between refinement passes) against the joint
ring x angle dictionary a single-array baseline has to use. Worst-pair
coherence tells the structural story: the angle-only grid is limited by
the two endfire columns, which nearly alias at half-wavelength spacing,
while the joint grid also carries same-angle atoms on far rings that are
practically indistinguishable (spherical curvature vanishes with range).
"""

import numpy as np

from passloc.channel import RadioConfig, make_schedule, measurement_matrix
from passloc.dictionary import (
    AngleGrid,
    build_dp_dictionary,
    build_polar_dictionary,
    default_polar_rings,
    mutual_coherence,
)
from passloc.geometry import ServiceRegion, build_mw_layout

region = ServiceRegion(30.0, 30.0, 2.0)
radio = RadioConfig(28e9)
layout = build_mw_layout(region, 3, 32, radio.wavelength / 2.0)
sub = layout.subarrays[0]

grid = AngleGrid.uniform_cosine(64)
print(f"angle grid: {grid.values.size} cosines in "
      f"[{grid.values[0]:.3f}, {grid.values[-1]:.3f}]")

dp = build_dp_dictionary(sub, r_param=12.0, grid=grid, radio=radio)
rings = default_polar_rings(region, count=12)
polar = build_polar_dictionary(sub, radio, grid, rings)
print(f"angle-only dictionary: {dp.atoms.shape[1]} atoms at anchor distance "
      f"{dp.r_param:.0f} m")
print(f"ring x angle dictionary: {polar.atoms.shape[1]} atoms "
      f"({rings.size} rings, {rings[0]:.1f} to {rings[-1]:.1f} m)")

print("\nworst-pair coherence, channel domain:")
print(f"  angle-only   {mutual_coherence(dp.atoms):.4f}   (endfire pair)")
print(f"  ring x angle {mutual_coherence(polar.atoms):.6f} (far-ring pair)")

# outermost two rings at a common angle: the distance axis has gone flat
a = polar.atoms[:, 10 * grid.values.size + 32]
b = polar.atoms[:, 11 * grid.values.size + 32]
flat = abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b))
print(f"  same angle, rings {rings[10]:.1f} m vs {rings[11]:.1f} m: "
      f"correlation {flat:.6f}")

# the picture survives projection through a random activation schedule
sched = make_schedule(layout, 64, 0.5, rng_seed=4)
w = measurement_matrix(sub, sched.activation[:, 0, :], radio)
print("measurement domain (64 slots):")
print(f"  angle-only   {mutual_coherence(w @ dp.atoms):.4f}")
print(f"  ring x angle {mutual_coherence(w @ polar.atoms):.6f}")

# atom elements keep the spherical 1/r decay before normalization
near = build_dp_dictionary(sub, r_param=3.0, grid=grid, radio=radio)
col = np.abs(near.atoms[:, 0])
print(f"\nedge-column magnitudes at 3 m anchor span "
      f"[{col.min():.3e}, {col.max():.3e}] across the aperture")
