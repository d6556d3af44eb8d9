"""Distance-parameterized angle dictionaries and a polar-grid alternative.

An atom models the subarray response to a point target described in a
local polar frame anchored at the reference PA: distance of the target to
the reference element plus a direction cosine along the guide axis. The
law of cosines gives each element's range, and the atom is the spherical
wavefront sampled at those ranges. The estimator's matcher divides every
column's correlation by its measured norm ||W a||, so the common amplitude
convention (wavelength/(4*pi*r), scaled by 1/sqrt(N)) never biases atom
selection, and its least-squares coefficients are in the atoms' own scale.
project_dictionary gives the measured columns W A themselves.

Planar mode keeps the horizontal anchor distance as the parameter and
carries the fixed PA-to-target height gap dh explicitly; full-3D mode folds
the unknown height gap into a slant distance and builds with dh = 0, so
the same one-parameter grid still applies. A geometrically impossible
column (the target on an element) raises DictionaryError, and a
uniform_cosine grid has none (GRID_CLIP).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import RadioConfig, FOUR_PI
from .geometry import DomainError, ServiceRegion, SubarrayGeometry

# |c| <= 1 - GRID_CLIP keeps a column's squared element range (r - nd c)^2 + (nd)^2 (1 - c^2)
# + dh^2 at least GRID_CLIP (r^2 + (nd)^2), far above rounding: no uniform_cosine column is invalid.
GRID_CLIP = 1e-3


class DictionaryError(DomainError):
    """A dictionary build or match found no usable column."""


@dataclass(frozen=True)
class AngleGrid:
    """Strictly increasing direction-cosine samples, clipped away from +-1."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).reshape(-1).copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        if v.size < 2:
            raise ValueError("angle grid needs at least two points")
        if np.any(np.diff(v) <= 0.0):
            raise ValueError("angle grid must be strictly increasing")
        if np.any(np.abs(v) >= 1.0):
            raise ValueError("direction cosines must lie strictly inside (-1, 1)")
        if not np.allclose(v + v[::-1], 0.0, atol=1e-12):
            raise ValueError("angle grid must be symmetric about zero")

    @property
    def g(self) -> int:
        return self.values.size

    @classmethod
    @lru_cache(maxsize=64)
    def uniform_cosine(cls, g: int) -> "AngleGrid":
        """g cosines uniform over [-1 + GRID_CLIP, 1 - GRID_CLIP].

        A grid is frozen and its values read-only, so each g is built once
        and then shared. A g below 2 raises in __post_init__.
        """
        return cls(np.linspace(-1.0 + GRID_CLIP, 1.0 - GRID_CLIP, g))


@dataclass(frozen=True)
class DpDictionary:
    """Atoms of one subarray at a common anchor distance.

    atoms is (N, G) in the channel domain. ring_distances is populated
    only by the polar builds, where columns enumerate (distance ring,
    angle) pairs. estimator.polar_dictionary keeps no channel-domain atoms
    (atoms is None) and only guided: the atoms as the waveguide sees them,
    conj(g) * a_j for the in-guide phases g, rounded to complex64, each
    row's entries adjacent so that a block of columns viewed as float32 is
    a real (N, 2G') matrix. The estimator screens every column with them in
    float32 and certifies its pick in float64 (estimator.certified_pick).
    """

    r_param: float
    cosines: np.ndarray
    atoms: np.ndarray | None
    ring_distances: np.ndarray | None = None
    guided: np.ndarray | None = None

    @property
    def g(self) -> int:
        return self.cosines.size


def _squared_ranges(r, cosang, nd, dh: float):
    """Law of cosines r^2 + (n*d)^2 - 2*(n*d)*r*cos, plus dh^2.

    Non-positive entries mark geometrically impossible (distance, angle) pairs.
    """
    return r * r + nd * nd - 2.0 * nd * r * cosang + dh * dh


def build_dp_dictionary(
    subarray: SubarrayGeometry,
    r_param: float,
    grid: AngleGrid | np.ndarray,
    radio: RadioConfig,
    dh: float = 0.0,
) -> DpDictionary:
    """Channel-domain atoms for one subarray at a fixed anchor distance.

    ``grid`` is an AngleGrid or any strictly increasing 1-D array of
    cosines in (-1, 1), such as a subset of a grid's values. Every element
    is computed on its own, so a column's bits do not depend on which
    other columns are built with it. A column whose element ranges are
    geometrically impossible raises DictionaryError. The atoms are
    column-major (F-contiguous): the ranges are laid out one grid column
    per row and transposed, and every later step of the build runs in
    place on two buffers.
    """
    if r_param <= 0.0:
        raise ValueError("anchor distance must be positive")
    cosines = grid.values if isinstance(grid, AngleGrid) else np.asarray(grid, dtype=float)
    if cosines.ndim != 1 or np.any(np.diff(cosines) <= 0.0) or np.any(np.abs(cosines) >= 1.0):
        raise ValueError("cosines must be strictly increasing and lie strictly inside (-1, 1)")
    nd = np.arange(subarray.n_pas, dtype=float)[None, :] * subarray.spacing
    ranges = _squared_ranges(r_param, cosines[:, None], nd, dh)  # (G, N)
    if not np.all(ranges > 0.0):
        raise DictionaryError(f"a grid column is geometrically invalid at {r_param!r} m")
    np.sqrt(ranges, out=ranges)
    atoms = np.multiply(-1j * radio.wavenumber, ranges, dtype=complex)
    np.exp(atoms, out=atoms)
    np.multiply(FOUR_PI, ranges, out=ranges)
    np.divide(radio.wavelength, ranges, out=ranges)
    np.multiply(ranges, atoms, out=atoms)
    np.divide(atoms, np.sqrt(subarray.n_pas), out=atoms)
    return DpDictionary(r_param=float(r_param), cosines=cosines, atoms=atoms.T)


def project_dictionary(dictionary: DpDictionary, w: np.ndarray) -> np.ndarray:
    """The (T, G) measurement-domain columns W a_g of the atoms."""
    if w.ndim != 2 or w.shape[1] != dictionary.atoms.shape[0]:
        raise ValueError("measurement matrix width must match the element count")
    return w @ dictionary.atoms


def stack_rings(subarray: SubarrayGeometry, radio: RadioConfig, angle_grid: AngleGrid,
                distance_grid, dh: float, build, phases=None) -> tuple:
    """Every ring's build(subarray, r, angle_grid, radio, dh=dh) atoms in one preallocated array.

    ``build`` is build_dp_dictionary, looked up by the caller. Columns
    enumerate rings in order, each ring carrying every angle. The
    array is the column-major atoms a_j, or with ``phases`` p the
    row-major p * a_j rounded to complex64, each ring scaled in its own
    build's buffer; either way the build never holds a second full copy.
    Returns the (N, G) array, and every column's cosine and ring distance.
    """
    rings = np.asarray(distance_grid, dtype=float).reshape(-1)
    if rings.size < 1 or np.any(rings <= 0.0) or np.any(np.diff(rings) <= 0.0):
        raise ValueError("distance grid must be positive and strictly increasing")
    g = angle_grid.g
    guided = phases is not None
    out = np.empty((subarray.n_pas, rings.size * g), np.complex64 if guided else complex,
                   order="C" if guided else "F")
    for k, r in enumerate(rings):
        d = build(subarray, r, angle_grid, radio, dh=dh)
        if guided:  # on the ring's own row-major (G, N) buffer: no temporary
            np.multiply(phases, d.atoms.T, out=d.atoms.T)
        out[:, k * g:(k + 1) * g] = d.atoms
    return out, np.tile(angle_grid.values, rings.size), np.repeat(rings, g)


def build_polar_dictionary(
    subarray: SubarrayGeometry,
    radio: RadioConfig,
    angle_grid: AngleGrid,
    distance_grid,
    dh: float = 0.0,
) -> DpDictionary:
    """Joint (distance ring, angle) dictionary for single-array matching.

    Columns enumerate rings in order, each ring carrying the full angle
    grid; ring_distances maps every column back to its ring. The atoms are
    column-major, written in place by stack_rings.
    """
    atoms, cosines, ring_of = stack_rings(subarray, radio, angle_grid, distance_grid, dh,
                                          build_dp_dictionary)
    return DpDictionary(r_param=float(ring_of[0]), cosines=cosines, atoms=atoms,
                        ring_distances=ring_of)


def default_polar_rings(region: ServiceRegion, count: int) -> np.ndarray:
    """Geometric ring ladder from 1 m out to the region diagonal."""
    if count < 1:
        raise ValueError("need at least one ring")
    return np.geomspace(1.0, region.diagonal, count)


def mutual_coherence(columns: np.ndarray) -> float:
    """Largest off-diagonal inner-product magnitude between normalized columns."""
    c = columns / np.linalg.norm(columns, axis=0, keepdims=True)
    gram = np.abs(c.conj().T @ c)
    np.fill_diagonal(gram, 0.0)
    return float(gram.max())
