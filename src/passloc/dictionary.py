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
carries the fixed PA-to-target height gap explicitly; full-3D mode folds
the unknown height gap into a slant distance so the same one-parameter
grid still applies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import RadioConfig, FOUR_PI
from .geometry import ServiceRegion, SubarrayGeometry


class DictionaryError(ValueError):
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
    def uniform_cosine(cls, g: int, clip: float = 1e-3) -> "AngleGrid":
        """g cosines uniform over [-1+clip, 1-clip]; the clip keeps endfire finite."""
        if g < 2:
            raise ValueError("need at least two grid points")
        if not 0.0 < clip < 1.0:
            raise ValueError("clip must be in (0, 1)")
        return cls(np.linspace(-1.0 + clip, 1.0 - clip, g))


@dataclass(frozen=True)
class DpDictionary:
    """Atoms of one subarray at a common anchor distance.

    atoms is (N, G) in the channel domain. dropped records the grid
    indices removed because their element ranges are geometrically
    impossible. ring_distances is populated only by the polar builder,
    where columns enumerate (distance ring, angle) pairs.
    """

    subarray: int
    r_param: float
    mode: str
    cosines: np.ndarray
    atoms: np.ndarray
    dropped: np.ndarray = None
    ring_distances: np.ndarray | None = None

    def __post_init__(self):
        if self.dropped is None:
            object.__setattr__(self, "dropped", np.empty(0, dtype=int))

    @property
    def g(self) -> int:
        return self.cosines.size


def _squared_ranges(r, cosang, nd, dh: float, mode: str):
    """Law of cosines r^2 + (n*d)^2 - 2*(n*d)*r*cos, plus dh^2 in planar mode.

    Non-positive entries mark geometrically impossible (distance, angle)
    pairs; callers decide whether that raises or drops a column.
    """
    radicand = r * r + nd * nd - 2.0 * nd * r * cosang
    if mode == "2d":
        radicand += dh * dh
    elif mode != "3d":
        raise ValueError("mode must be '2d' or '3d'")
    return radicand


def parameterized_distance(r, cosang, n, d: float, dh: float = 0.0, mode: str = "2d"):
    """Element range from local polar coordinates via the law of cosines.

    Parameters
    ----------
    r : anchor distance(s); horizontal in planar mode, slant in 3d mode.
    cosang : direction cosine(s) of the target along the guide axis.
    n : element index or indices (0 at the reference PA).
    d : element spacing in meters.
    dh : PA-to-target height gap, used only in planar mode.
    mode : "2d" adds dh**2 under the root; "3d" expects dh already folded
        into the slant distance and ignores it.

    Broadcasting applies across r, cosang, and n.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("anchor distance must be positive")
    nd = np.asarray(n, dtype=float) * d
    radicand = _squared_ranges(r, np.asarray(cosang, dtype=float), nd, dh, mode)
    if np.any(radicand <= 0.0):
        raise ValueError("non-positive squared range; grid point is geometrically invalid")
    return np.sqrt(radicand)


def build_dp_dictionary(
    subarray: SubarrayGeometry,
    r_param: float,
    grid: AngleGrid,
    radio: RadioConfig,
    mode: str = "2d",
    dh: float = 0.0,
    index: int = -1,
) -> DpDictionary:
    """Channel-domain atoms for one subarray at a fixed anchor distance.

    Columns whose element ranges are geometrically impossible are dropped
    and recorded instead of raising, so a sweep over distances degrades
    gracefully. The atoms are column-major (F-contiguous): the ranges are
    laid out one grid column per row and transposed, and every later step
    of the build runs in place on two buffers.
    """
    if r_param <= 0.0:
        raise ValueError("anchor distance must be positive")
    nd = np.arange(subarray.n_pas, dtype=float)[None, :] * subarray.spacing
    ranges = _squared_ranges(r_param, grid.values[:, None], nd, dh, mode)  # (G, N)
    ok = np.all(ranges > 0.0, axis=1)
    dropped = np.nonzero(~ok)[0]
    if not ok.any():
        raise DictionaryError("every grid column is geometrically invalid")
    cosines = grid.values
    if dropped.size:
        ranges, cosines = ranges[ok], cosines[ok]
    np.sqrt(ranges, out=ranges)
    atoms = np.multiply(-1j * radio.wavenumber, ranges, dtype=complex)
    np.exp(atoms, out=atoms)
    np.multiply(FOUR_PI, ranges, out=ranges)
    np.divide(radio.wavelength, ranges, out=ranges)
    np.multiply(ranges, atoms, out=atoms)
    np.divide(atoms, np.sqrt(subarray.n_pas), out=atoms)
    return DpDictionary(
        subarray=index,
        r_param=float(r_param),
        mode=mode,
        cosines=cosines,
        atoms=atoms.T,
        dropped=dropped,
    )


def project_dictionary(dictionary: DpDictionary, w: np.ndarray) -> np.ndarray:
    """The (T, G) measurement-domain columns W a_g of the atoms."""
    if w.ndim != 2 or w.shape[1] != dictionary.atoms.shape[0]:
        raise ValueError("measurement matrix width must match the element count")
    return w @ dictionary.atoms


def build_polar_dictionary(
    subarray: SubarrayGeometry,
    radio: RadioConfig,
    angle_grid: AngleGrid,
    distance_grid,
    mode: str = "2d",
    dh: float = 0.0,
    index: int = -1,
) -> DpDictionary:
    """Joint (distance ring, angle) dictionary for single-array matching.

    Columns enumerate rings in order, each ring carrying the full angle
    grid; ring_distances maps every column back to its ring.
    """
    rings = np.asarray(distance_grid, dtype=float).reshape(-1)
    if rings.size < 1 or np.any(rings <= 0.0) or np.any(np.diff(rings) <= 0.0):
        raise ValueError("distance grid must be positive and strictly increasing")
    blocks, cosines, ring_of = [], [], []
    for r in rings:
        d = build_dp_dictionary(subarray, r, angle_grid, radio, mode=mode, dh=dh)
        blocks.append(d.atoms)
        cosines.append(d.cosines)
        ring_of.append(np.full(d.g, r))
    return DpDictionary(
        subarray=index,
        r_param=float(rings[0]),
        mode=mode,
        cosines=np.concatenate(cosines),
        atoms=np.hstack(blocks),
        ring_distances=np.concatenate(ring_of),
    )


def default_polar_rings(region: ServiceRegion, count: int, r_min: float = 1.0) -> np.ndarray:
    """Geometric ring ladder from r_min out to the region diagonal."""
    if count < 1:
        raise ValueError("need at least one ring")
    return np.geomspace(r_min, region.diagonal, count)


def mutual_coherence(columns: np.ndarray) -> float:
    """Largest off-diagonal inner-product magnitude between normalized columns."""
    c = columns / np.linalg.norm(columns, axis=0, keepdims=True)
    gram = np.abs(c.conj().T @ c)
    np.fill_diagonal(gram, 0.0)
    return float(gram.max())
