"""Service region, pinching-antenna layouts, and ground-truth scenes.

Coordinates: origin at a corner of the rectangular service area, x and y
in the horizontal plane, z up, all lengths in meters. Waveguides run
parallel to the x axis at height ``h_pa``; a subarray is a run of N
equally spaced pinching antennas (PAs) anchored at a reference point.
Localization diversity comes from spreading the reference points around
the region, so subarray axes are never rotated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

DISTANCE_GUARD = 1e-6
"""Minimum separation in meters before 1/r amplitudes count as singular."""


class Structure(str, Enum):
    """Single shared waveguide (time multiplexed) vs one waveguide per subarray."""

    SW = "sw"
    MW = "mw"


class LayoutError(ValueError):
    """Requested PA layout cannot be realized inside the service region."""


class SingularGeometryError(ValueError):
    """Points (nearly) coincide, so spherical amplitudes 1/r diverge."""


def _readonly(a, dtype=float) -> np.ndarray:
    out = np.ascontiguousarray(a, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ServiceRegion:
    """Rectangular service footprint plus waveguide height and target height band.

    Parameters
    ----------
    size_x, size_y : float
        Footprint side lengths in meters.
    h_pa : float
        Height of every waveguide (hence every PA).
    h_range : (float, float)
        Admissible target heights; collapse to (h, h) for planar scenarios.
    """

    size_x: float
    size_y: float
    h_pa: float
    h_range: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if self.size_x <= 0.0 or self.size_y <= 0.0:
            raise ValueError("region sides must be positive")
        lo, hi = (float(self.h_range[0]), float(self.h_range[1]))
        if not (0.0 <= lo <= hi <= self.h_pa):
            raise ValueError("h_range must satisfy 0 <= lo <= hi <= h_pa")
        object.__setattr__(self, "h_range", (lo, hi))

    @property
    def center(self) -> np.ndarray:
        return np.array([self.size_x / 2.0, self.size_y / 2.0])

    @property
    def diagonal(self) -> float:
        return float(np.hypot(self.size_x, self.size_y))

    def contains_xy(self, points) -> bool:
        p = np.atleast_2d(np.asarray(points, dtype=float))
        return bool(
            np.all(p[:, 0] >= 0.0)
            and np.all(p[:, 0] <= self.size_x)
            and np.all(p[:, 1] >= 0.0)
            and np.all(p[:, 1] <= self.size_y)
        )


@dataclass(frozen=True)
class SubarrayGeometry:
    """One run of equally spaced PAs along +x from a reference point."""

    reference_position: np.ndarray  # shape (3,)
    n_pas: int
    spacing: float
    # (N, 3) read-only PA coordinates: reference + (n*spacing, 0, 0)
    pa_positions: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ref = _readonly(np.asarray(self.reference_position, dtype=float).reshape(3))
        object.__setattr__(self, "reference_position", ref)
        if self.n_pas < 1:
            raise LayoutError("subarray needs at least one PA")
        if self.spacing <= 0.0:
            raise LayoutError("PA spacing must be positive")
        pos = np.tile(ref, (self.n_pas, 1))
        pos[:, 0] += self.offsets
        object.__setattr__(self, "pa_positions", _readonly(pos))

    @property
    def offsets(self) -> np.ndarray:
        """Along-guide offsets n*spacing for n = 0..N-1 (exact data model)."""
        return self.spacing * np.arange(self.n_pas)

    @property
    def aperture(self) -> float:
        return float(self.spacing * (self.n_pas - 1))


@dataclass(frozen=True)
class ArrayLayout:
    """Full PA deployment: structure tag plus per-subarray geometry."""

    structure: Structure
    subarrays: tuple[SubarrayGeometry, ...]
    pa_spacing: float
    pas_per_subarray: int
    # read-only stacks over subarrays: (M, N, 3) PA coordinates, (M, 3) references
    pa_positions: np.ndarray = field(init=False, repr=False, compare=False)
    reference_positions: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "subarrays", tuple(self.subarrays))
        if len(self.subarrays) < 1:
            raise LayoutError("layout needs at least one subarray")
        for sub in self.subarrays:
            if sub.n_pas != self.pas_per_subarray or sub.spacing != self.pa_spacing:
                raise LayoutError("subarrays must share N and spacing")
        object.__setattr__(self, "pa_positions",
                           _readonly(np.stack([s.pa_positions for s in self.subarrays])))
        object.__setattr__(self, "reference_positions",
                           _readonly(np.stack([s.reference_position for s in self.subarrays])))

    @property
    def m(self) -> int:
        return len(self.subarrays)

    @property
    def reference_xy(self) -> np.ndarray:
        return self.reference_positions[:, :2]


@dataclass(frozen=True)
class Scene:
    """Ground truth: one user plus L scatterers, rows are (x, y, height)."""

    user: np.ndarray
    scatterers: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "user", _readonly(np.asarray(self.user, dtype=float).reshape(3)))
        sc = np.asarray(self.scatterers, dtype=float).reshape(-1, 3)
        object.__setattr__(self, "scatterers", _readonly(sc))

    @property
    def l(self) -> int:
        return self.scatterers.shape[0]

    @property
    def points(self) -> np.ndarray:
        """(L+1, 3) stack with the user first."""
        return np.vstack([self.user[None, :], self.scatterers])


def build_sw_layout(region: ServiceRegion, m: int, n: int, d: float) -> ArrayLayout:
    """Single-waveguide layout: M subarrays spaced D_x = size_x/(M-1) along y = size_y/2.

    Subarray k (0-based) is anchored at x = k*D_x; its PAs sit at x + n*d.
    The last anchor lands exactly on the far edge, so its PAs overhang the
    footprint by one aperture; that is the intended deployment. What gets
    rejected is a layout whose subarrays have outgrown the region, i.e.
    an aperture (n-1)*d that reaches the next anchor.
    """
    if m < 2:
        raise LayoutError("single-waveguide layout needs m >= 2 (anchor pitch undefined)")
    if n < 2:
        raise LayoutError("need n >= 2 PAs per subarray")
    if d <= 0.0:
        raise LayoutError("PA spacing must be positive")
    dx = region.size_x / (m - 1)
    aperture = (n - 1) * d
    if aperture >= dx:
        raise LayoutError(
            f"layout overflow: subarray aperture {aperture:.6g} m reaches the next "
            f"anchor ({dx:.6g} m pitch); fewer PAs or a smaller spacing is required"
        )
    y = region.size_y / 2.0
    subs = [
        SubarrayGeometry(np.array([k * dx, y, region.h_pa]), n, d) for k in range(m)
    ]
    return ArrayLayout(Structure.SW, tuple(subs), d, n)


def _mw_anchor_sequence(region: ServiceRegion) -> list[tuple[float, float]]:
    sx, sy = region.size_x, region.size_y
    # corners first, then edge midpoints: bottom, top, left, right
    return [
        (0.0, 0.0),
        (sx, 0.0),
        (0.0, sy),
        (sx, sy),
        (sx / 2.0, 0.0),
        (sx / 2.0, sy),
        (0.0, sy / 2.0),
        (sx, sy / 2.0),
    ]


def build_mw_layout(region: ServiceRegion, m: int, n: int, d: float) -> ArrayLayout:
    """Multi-waveguide layout on the region boundary: corners, then edge midpoints.

    Anchors whose +x run of PAs would leave the footprint are shifted by
    -(n-1)*d so the whole subarray stays inside.
    """
    if not 1 <= m <= 8:
        raise LayoutError("multi-waveguide layout supports 1 <= m <= 8 boundary anchors")
    if n < 1:
        raise LayoutError("need at least one PA per subarray")
    if d <= 0.0:
        raise LayoutError("PA spacing must be positive")
    aperture = (n - 1) * d
    subs = []
    for x, y in _mw_anchor_sequence(region)[:m]:
        if x + aperture > region.size_x:
            x = x - aperture
        if x < 0.0:
            raise LayoutError(
                f"subarray aperture {aperture:.6g} m does not fit inside the region"
            )
        subs.append(SubarrayGeometry(np.array([x, y, region.h_pa]), n, d))
    return ArrayLayout(Structure.MW, tuple(subs), d, n)


def custom_layout(
    region: ServiceRegion,
    structure: Structure,
    reference_xy: Sequence[Sequence[float]],
    n: int,
    d: float,
) -> ArrayLayout:
    """Layout with explicitly placed anchors (all at height h_pa).

    Used for one-off deployments such as a single long reference array;
    no shifting or overlap checks are applied beyond basic validation.
    """
    if n < 1:
        raise LayoutError("need at least one PA per subarray")
    if d <= 0.0:
        raise LayoutError("PA spacing must be positive")
    subs = [
        SubarrayGeometry(np.array([float(x), float(y), region.h_pa]), n, d)
        for x, y in reference_xy
    ]
    if not subs:
        raise LayoutError("need at least one subarray")
    return ArrayLayout(Structure(structure), tuple(subs), d, n)


def pa_user_distance(pa_position, target_position):
    """Euclidean distance with a singularity guard on near-coincident points.

    The guard of every 1/r amplitude in the package. Rows of a 2-D
    ``pa_position`` give one distance each; a single point gives a float.
    """
    delta = np.asarray(pa_position, dtype=float) - np.asarray(target_position, dtype=float)
    if delta.ndim == 1:
        r = float(np.linalg.norm(delta))
        singular = r < DISTANCE_GUARD
    else:  # equal to norm(axis=-1) bit for bit, without its extra conj pass
        r = np.sqrt(np.sum(delta * delta, axis=-1))
        singular = np.any(r < DISTANCE_GUARD)
    if singular:
        raise SingularGeometryError(f"separation {np.min(r):.3e} m below guard {DISTANCE_GUARD:.1e} m")
    return r


def sample_scene(
    region: ServiceRegion,
    l: int,
    rng_seed,
    mode: str = "2d",
    height: float = 0.0,
) -> Scene:
    """Draw a user and ``l`` scatterers uniformly over the region footprint.

    In "2d" mode every target sits at the fixed ``height``; in "3d" mode
    heights are uniform over the region's h_range. The user is drawn
    first, then scatterers in order, so scenes are reproducible from the
    seed alone.
    """
    if l < 0:
        raise ValueError("scatterer count must be non-negative")
    if mode not in ("2d", "3d"):
        raise ValueError("mode must be '2d' or '3d'")
    lo, hi = region.h_range
    if mode == "2d" and not lo <= height <= hi:
        raise ValueError(f"fixed height {height} outside region h_range {region.h_range}")
    rng = np.random.default_rng(rng_seed)

    def draw():
        x = rng.uniform(0.0, region.size_x)
        y = rng.uniform(0.0, region.size_y)
        h = height if mode == "2d" else rng.uniform(lo, hi)
        return [x, y, h]

    user = draw()
    scatterers = [draw() for _ in range(l)]
    return Scene(np.array(user), np.array(scatterers).reshape(l, 3))


# --- plotting exports ---------------------------------------------------------


def layout_points_csv(layout: ArrayLayout, path) -> None:
    """Write PA coordinates as (kind, subarray, index, x, y, z) rows for plotting."""
    lines = ["kind,subarray,index,x,y,z"]
    for m, sub in enumerate(layout.subarrays):
        for i, p in enumerate(sub.pa_positions):
            lines.append(f"pa,{m},{i},{float(p[0])!r},{float(p[1])!r},{float(p[2])!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def scene_points_csv(scene: Scene, path) -> None:
    lines = ["kind,index,x,y,z"]
    u = scene.user
    lines.append(f"user,0,{float(u[0])!r},{float(u[1])!r},{float(u[2])!r}")
    for i, p in enumerate(scene.scatterers):
        lines.append(f"scatterer,{i},{float(p[0])!r},{float(p[1])!r},{float(p[2])!r}")
    Path(path).write_text("\n".join(lines) + "\n")
