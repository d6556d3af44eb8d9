"""Pinching-antenna system simulation, localization, and bounds.

The package synthesizes pilot measurements for pinching-antenna
deployments (subarrays of radiating points along dielectric waveguides),
jointly localizes the user and scatterers from per-subarray direction
estimates, reconstructs the wireless channel from the recovered
geometry, and evaluates the bearing-fusion Cramer-Rao bound for
placement studies.
"""

__version__ = "0.1.0"
