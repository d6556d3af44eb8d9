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

Two builds share the one law-of-cosines implementation (_squared_ranges).
build_dp_dictionary is the float64 reference. phase_atoms is the build
kernel of every column the estimators score: complex64 atoms from float32
cos and sin of phases reduced to turns in float64, within
PHASE_ATOMS_ERROR of the reference, optionally with the in-guide phase
folded in. Both take one anchor distance per column as well as one for a
whole grid, so a caller builds many subarrays' or rings' columns in one
call. Scores from phase_atoms only choose columns; the estimator's
certificates redo in float64, from build_dp_dictionary, every column a
choice could turn on.
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
    """Atoms of one subarray at a common anchor distance, or at one per column.

    atoms is (N, G) in the channel domain, complex128 from
    build_dp_dictionary; r_param is an array when it was built with one
    distance per column. ring_distances is populated only by the polar builds,
    where columns enumerate (distance ring, angle) pairs.
    estimator.polar_dictionary keeps no channel-domain atoms (atoms is
    None) and only guided: the atoms as the waveguide sees them,
    conj(g) * a_j for the in-guide phases g, phase_atoms' complex64 (N, G)
    row-major array. The estimator screens every column with them in
    float32 and certifies its pick in float64 (estimator.certified_picks).
    """

    r_param: float | np.ndarray
    cosines: np.ndarray
    atoms: np.ndarray | None
    ring_distances: np.ndarray | None = None
    guided: np.ndarray | None = None

    @property
    def g(self) -> int:
        return self.cosines.size


def _squared_ranges(r, cosang, nd, dh: float, out=None):
    """Law of cosines r^2 + (n*d)^2 - 2*(n*d)*r*cos, plus dh^2, in that order of operations.

    Non-positive entries mark geometrically impossible (distance, angle)
    pairs. ``out`` is two float64 arrays of the broadcast shape, the result
    and a scratch term, allocated when not given.
    """
    if out is None:
        shape = np.broadcast_shapes(np.shape(r), np.shape(cosang), np.shape(nd))
        out = np.empty(shape), np.empty(shape)
    total, term = out
    np.add(r * r, nd * nd, out=total)
    np.multiply(2.0 * nd, r, out=term)
    term *= cosang
    total -= term
    total += dh * dh
    return total


def _cosines(values) -> np.ndarray:
    """A 1-D array of cosines in (-1, 1): one per column, in any order."""
    cosines = values.values if isinstance(values, AngleGrid) else np.asarray(values, dtype=float)
    if not (cosines.ndim == 1 and cosines.size and np.all(np.abs(cosines) < 1.0)):
        raise ValueError("cosines must lie strictly inside (-1, 1)")
    return cosines


def _grid_cosines(grid) -> np.ndarray:
    """An AngleGrid's values, or a 1-D array of strictly increasing cosines in (-1, 1)."""
    cosines = grid.values if isinstance(grid, AngleGrid) else np.asarray(grid, dtype=float)
    if not (cosines.ndim == 1 and cosines.size and -1.0 < cosines[0] and cosines[-1] < 1.0
            and np.all(cosines[1:] > cosines[:-1])):
        raise ValueError("cosines must be strictly increasing and lie strictly inside (-1, 1)")
    return cosines


def _column_distances(distances, cosines: np.ndarray) -> np.ndarray:
    """One positive anchor distance per column: a scalar for every cosine, or one each."""
    r = np.asarray(distances, dtype=float)
    if not np.all(r > 0.0):
        raise ValueError("anchor distance must be positive")
    if r.ndim and r.shape != cosines.shape:
        raise ValueError("need one anchor distance, or one per cosine")
    return np.broadcast_to(r, cosines.shape)


def _checked(squared: np.ndarray, r: np.ndarray) -> np.ndarray:
    """_squared_ranges' output, or DictionaryError if a column (distance r) is invalid."""
    if not squared.min() > 0.0:  # NaN fails too
        at = float(np.broadcast_to(r, squared.shape).flat[np.argmin(squared)])
        raise DictionaryError(f"a grid column is geometrically invalid at {at!r} m")
    return squared


def build_dp_dictionary(
    subarray: SubarrayGeometry,
    r_param,
    grid: AngleGrid | np.ndarray,
    radio: RadioConfig,
    dh: float = 0.0,
) -> DpDictionary:
    """Channel-domain atoms for one subarray at a fixed anchor distance, or at one per column.

    With a scalar ``r_param``, ``grid`` is an AngleGrid or any strictly
    increasing 1-D array of cosines in (-1, 1), such as a subset of a
    grid's values. With one distance per cosine the columns are the pairs
    (r_param[j], cosines[j]), in any order, and r_param is kept as that
    array. Every element is computed on its own, so a column's bits do not
    depend on which other columns are built with it. A column whose element
    ranges are geometrically impossible raises DictionaryError. The atoms
    are column-major (F-contiguous): the ranges are laid out one grid
    column per row and transposed, and every later step of the build runs
    in place on two buffers.
    """
    per_column = np.ndim(r_param) > 0
    cosines = _cosines(grid) if per_column else _grid_cosines(grid)
    r = _column_distances(r_param, cosines)[:, None]
    nd = np.arange(subarray.n_pas, dtype=float)[None, :] * subarray.spacing
    ranges = _checked(_squared_ranges(r, cosines[:, None], nd, dh), r)  # (G, N)
    np.sqrt(ranges, out=ranges)
    atoms = np.multiply(-1j * radio.wavenumber, ranges, dtype=complex)
    np.exp(atoms, out=atoms)
    np.multiply(FOUR_PI, ranges, out=ranges)
    np.divide(radio.wavelength, ranges, out=ranges)
    np.multiply(ranges, atoms, out=atoms)
    np.divide(atoms, np.sqrt(subarray.n_pas), out=atoms)
    return DpDictionary(r_param=np.asarray(r_param, dtype=float) if per_column else float(r_param),
                        cosines=cosines, atoms=atoms.T)


def project_dictionary(dictionary: DpDictionary, w: np.ndarray) -> np.ndarray:
    """The (T, G) measurement-domain columns W a_g of the atoms."""
    if w.ndim != 2 or w.shape[1] != dictionary.atoms.shape[0]:
        raise ValueError("measurement matrix width must match the element count")
    return w @ dictionary.atoms


def _ring_ladder(distance_grid) -> np.ndarray:
    rings = np.asarray(distance_grid, dtype=float).reshape(-1)
    if not (rings.size and rings[0] > 0.0 and np.all(rings[1:] > rings[:-1])):
        raise ValueError("distance grid must be positive and strictly increasing")
    return rings


def polar_columns(grid, distance_grid) -> tuple[np.ndarray, np.ndarray]:
    """The (cosines, ring distances) of a joint ring x angle grid's columns.

    Columns enumerate rings in order, each ring carrying every cosine of
    ``grid`` (strictly increasing); the rings are positive and strictly
    increasing.
    """
    cosines, rings = _grid_cosines(grid), _ring_ladder(distance_grid)
    return np.tile(cosines, rings.size), np.repeat(rings, cosines.size)


# A phase_atoms element is within PHASE_ATOMS_ERROR, relative, of build_dp_dictionary's float64
# element times exp(-j k path): its float32 turn angle is within 2 pi 2^-25 of the float64 one
# (|angle| <= pi, the turns reduced exactly in float64), its float32 cos, sin and amplitude each
# within about 2^-24, so about 4e-7 in all. tests/test_dictionary.py checks the bound.
PHASE_ATOMS_ERROR = 1e-6


# phase_atoms works on blocks of at most _BLOCK columns, in five buffers of 28 bytes an element
# in all (230 KB for N = 32): a build leaves no large freed blocks for the allocator to return to
# the system and fault in again on the next one, and a polar build needs little beyond its atoms.
_BLOCK = 256


def phase_atoms(subarray: SubarrayGeometry, radio: RadioConfig, cosines, distances,
                dh: float = 0.0, path=None) -> np.ndarray:
    """complex64 atoms of the columns (cosines[j], distances[j]): (N, G), row-major.

    ``distances`` is one anchor distance for every cosine, or one per
    cosine; the cosines lie in (-1, 1), in any order (polar_columns
    enumerates a ring x angle grid). The array is row-major, so a block of
    columns viewed as float32 is a real (N, 2G') matrix. Element n of a
    column at distance r has the range r_n from _squared_ranges, in
    float64, and is wavelength / (4 pi r_n sqrt(N)) exp(-2 pi j t_n),
    t_n = (r_n + p_n) / wavelength turns with p = ``path``, an extra path
    length per element (0 when None): p = n_eff x_n gives the guided atoms
    conj(g) a_j, as the waveguide sees them. Each t_n is reduced to
    t_n - rint(t_n) in float64, then cos, sin and the amplitude are formed
    in float32, the only forms numpy vectorises, written a block of
    columns at a time so the temporaries stay small. Every element is
    computed on its own, within PHASE_ATOMS_ERROR of its float64 value. A
    geometrically invalid column raises DictionaryError, as
    build_dp_dictionary's does.
    """
    cosines = _cosines(cosines)
    r = _column_distances(distances, cosines)
    n = subarray.n_pas
    nd = np.arange(n, dtype=float)[:, None] * subarray.spacing
    scale = radio.wavelength / (FOUR_PI * np.sqrt(n))
    out = np.empty((n, cosines.size), np.complex64)
    blocks = -(-cosines.size // _BLOCK)  # ceil division: equal blocks of at most _BLOCK columns
    step = -(-cosines.size // blocks)
    f64, f32 = np.empty((2, n * step)), np.empty((3, n * step), np.float32)
    for start in range(0, cosines.size, step):
        cols = slice(start, start + step)
        width = len(cosines[cols])
        ranges, scratch, amp, angle, trig = (a[:n * width].reshape(n, width) for a in (*f64, *f32))
        _checked(_squared_ranges(r[None, cols], cosines[None, cols], nd, dh, (ranges, scratch)),
                 r[None, cols])
        np.sqrt(ranges, out=ranges)
        np.divide(scale, ranges, out=amp, casting="same_kind")
        if path is not None:
            np.add(ranges, path[:, None], out=ranges)
        np.multiply(ranges, 1.0 / radio.wavelength, out=ranges)  # turns
        ranges -= np.rint(ranges, out=scratch)
        np.multiply(ranges, -2.0 * np.pi, out=angle, dtype=np.float32, casting="same_kind")
        block = out[:, cols]
        np.multiply(np.cos(angle, out=trig), amp, out=block.real)
        np.multiply(np.sin(angle, out=trig), amp, out=block.imag)
    return out


def build_polar_dictionary(
    subarray: SubarrayGeometry,
    radio: RadioConfig,
    angle_grid: AngleGrid,
    distance_grid,
    dh: float = 0.0,
) -> DpDictionary:
    """Joint (distance ring, angle) dictionary for single-array matching, in float64.

    Columns enumerate rings in order, each ring carrying the full angle
    grid (polar_columns); ring_distances maps every column back to its
    ring. The atoms are one column-major build_dp_dictionary of every
    column at its ring's distance.
    """
    cosines, ring_distances = polar_columns(angle_grid, distance_grid)
    atoms = build_dp_dictionary(subarray, ring_distances, cosines, radio, dh=dh).atoms
    return DpDictionary(r_param=float(ring_distances[0]), cosines=cosines, atoms=atoms,
                        ring_distances=ring_distances)


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
