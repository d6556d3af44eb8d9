"""Spherical-wave PASS channels, pilot activation schedules, and measurements.

The free-space channel from a subarray's PAs to a target is a sum of
spherical wavefronts: a direct component with amplitude wavelength/(4*pi*r)
per element, and one two-hop component per scatterer whose amplitude
carries the extra scatterer-to-user leg. Pilots are collected through the
waveguide: in each slot a random subset of PAs radiates, and the guide
response combines their element phases with the in-guide propagation
phase exp(j*k*n_eff*x).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import ArrayLayout, Scene, Structure, SubarrayGeometry, pa_user_distance

SPEED_OF_LIGHT = 299_792_458.0

FOUR_PI = 4.0 * np.pi


@dataclass(frozen=True)
class RadioConfig:
    """Carrier and waveguide parameters.

    n_eff is the effective refractive index of the dielectric guide; it
    defaults to the value used throughout the bundled experiments.
    """

    frequency: float
    n_eff: float = 1.4

    def __post_init__(self):
        if self.frequency <= 0.0:
            raise ValueError("carrier frequency must be positive")
        if self.n_eff < 1.0:
            raise ValueError("effective index below 1 is unphysical")

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.frequency

    @property
    def wavenumber(self) -> float:
        return 2.0 * np.pi / self.wavelength


def path_vector(
    pa_positions,
    source,
    radio: RadioConfig,
    kind: str = "los",
    user=None,
    ranges=None,
) -> np.ndarray:
    """Per-element response of one path at arbitrary PA coordinates.

    Direct path: (lam/(4*pi*r_n)) * exp(-j*k*r_n). Scattered path adds the
    scatterer-to-user leg r_su as a common factor
    lam*exp(-j*k*r_su) / ((4*pi)^(3/2) * r_n * r_su), with ``source`` the
    scatterer and ``user`` the user position. A caller that already holds
    the PA ranges r_n = pa_user_distance(pa_positions, source) passes them
    as ``ranges``.
    """
    pa = np.asarray(pa_positions, dtype=float).reshape(-1, 3)
    src = np.asarray(source, dtype=float).reshape(3)
    lam = radio.wavelength
    k = radio.wavenumber
    r = pa_user_distance(pa, src) if ranges is None else ranges
    phase = np.exp(-1j * k * r)
    if kind == "los":
        return (lam / (FOUR_PI * r)) * phase
    if kind != "nlos":
        raise ValueError("path kind must be 'los' or 'nlos'")
    if user is None:
        raise ValueError("scattered path needs the user position")
    r_su = pa_user_distance(src, np.asarray(user, dtype=float).reshape(3))
    common = lam * np.exp(-1j * k * r_su) / (FOUR_PI**1.5 * r_su)
    return common * phase / r


def point_responses(pa_positions, points, radio: RadioConfig) -> np.ndarray:
    """(K, P) per-PA responses of the paths through ``points`` at P PA coordinates.

    ``points[0]`` is the user, reached directly; every later point is a
    scatterer whose second hop ends at ``points[0]``. One path_vector call
    per point covers all PAs.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    return np.stack([path_vector(pa_positions, pts[0], radio, "los")]
                    + [path_vector(pa_positions, q, radio, "nlos", user=pts[0]) for q in pts[1:]])


def synthesize_paths(layout: ArrayLayout, scene: Scene, radio: RadioConfig) -> np.ndarray:
    """(M, L+1, N) response of every (subarray, path) pair for a scene.

    Along axis 1 the direct path comes first, then one scattered path per
    scatterer in scene order.
    """
    m, n = layout.m, layout.pas_per_subarray
    responses = point_responses(layout.pa_positions, scene.points, radio)
    return responses.reshape(-1, m, n).transpose(1, 0, 2)


def channel_vector(paths) -> np.ndarray:
    """Superpose path responses along axis -2: (L+1, N) -> (N,), (M, L+1, N) -> (M, N)."""
    paths = np.asarray(paths)
    if paths.ndim < 2 or paths.shape[-2] == 0:
        raise ValueError("need at least one path response")
    return paths.sum(axis=-2)


def waveguide_vector(subarray: SubarrayGeometry, radio: RadioConfig) -> np.ndarray:
    """In-guide propagation phases exp(j*k*n_eff*x_n) at the PA taps."""
    x = subarray.pa_positions[:, 0]
    return np.exp(1j * radio.wavenumber * radio.n_eff * x)


@dataclass(frozen=True)
class ActivationSchedule:
    """Per-slot PA on/off pattern.

    ``activation`` has shape (slots, M, N). Under the single-waveguide
    structure the slots are split into contiguous per-subarray blocks
    (``sw_blocks``) and a subarray is only driven inside its own block;
    multi-waveguide subarrays are driven concurrently in every slot.
    """

    structure: Structure
    slots: int
    activation: np.ndarray
    sw_blocks: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self):
        a = np.asarray(self.activation, dtype=np.uint8).copy()
        a.setflags(write=False)
        object.__setattr__(self, "activation", a)
        if a.ndim != 3 or a.shape[0] != self.slots:
            raise ValueError("activation must be (slots, M, N)")
        if self.structure is Structure.SW and self.sw_blocks is None:
            raise ValueError("single-waveguide schedule needs its block boundaries")

    @property
    def m(self) -> int:
        return self.activation.shape[1]

    def observed_slots(self, m: int) -> np.ndarray:
        """Global slot indices in which subarray m is measured."""
        if self.structure is Structure.SW:
            start, stop = self.sw_blocks[m]
            return np.arange(start, stop)
        return np.arange(self.slots)


def make_schedule(
    layout: ArrayLayout, total_slots: int, density: float = 0.5, rng_seed=0
) -> ActivationSchedule:
    """Draw a Bernoulli(density) activation schedule for the layout.

    The observed (slot, subarray) rows come slot-major from one
    ``rng.random((rows, n))`` draw. An all-off row measures nothing, so if
    the draw holds one, the stream is replayed row by row from the saved
    generator state with each all-off row redrawn (after 100 redraws a
    single random PA is forced on, which keeps pathological densities
    terminating); without one, both give the same bits.
    """
    m, n = layout.m, layout.pas_per_subarray
    # SW splits the slots into one block per subarray; in MW every subarray sees every slot.
    need = m if layout.structure is Structure.SW else 1
    if total_slots < need:
        raise ValueError(f"{layout.structure.value} schedule needs at least {need} slots, got {total_slots}")
    if not 0.0 < density <= 1.0:
        raise ValueError("activation density must be in (0, 1]")
    rng = np.random.default_rng(rng_seed)

    def live_row():
        for _ in range(100):
            row = (rng.random(n) < density).astype(np.uint8)
            if row.any():
                return row
        row = np.zeros(n, dtype=np.uint8)
        row[rng.integers(n)] = 1
        return row

    if layout.structure is Structure.SW:
        base = total_slots // m
        blocks = tuple((k * base, (k + 1) * base if k < m - 1 else total_slots) for k in range(m))
        slot = np.arange(total_slots)
        sub = np.minimum(slot // base, m - 1)
    else:
        blocks = None
        slot, sub = np.divmod(np.arange(total_slots * m), m)
    state = rng.bit_generator.state
    rows = rng.random((slot.size, n)) < density
    if not rows.any(axis=1).all():
        rng.bit_generator.state = state
        rows = np.array([live_row() for _ in range(slot.size)])
    act = np.zeros((total_slots, m, n), dtype=np.uint8)
    act[slot, sub] = rows
    return ActivationSchedule(layout.structure, total_slots, act, blocks)


@dataclass(frozen=True)
class MeasurementSet:
    """Stacked pilot observations and their measurement matrices.

    y[m] holds subarray m's observed slots; w[m] is the matching matrix
    whose row t is the conjugated elementwise product of that slot's
    activation mask with the waveguide vector, so y = w @ h plus noise.
    slot_ids[m] maps rows back to global slot indices.
    """

    y: tuple[np.ndarray, ...]
    w: tuple[np.ndarray, ...]
    slot_ids: tuple[np.ndarray, ...]
    noise_variance: float
    snr_db: float | None
    mean_signal_power: float

    @property
    def m(self) -> int:
        return len(self.y)


def measurement_matrix(
    subarray: SubarrayGeometry, activation_rows: np.ndarray, radio: RadioConfig
) -> np.ndarray:
    """Rows (a_t * g)^H for the given activation rows of one subarray."""
    g = waveguide_vector(subarray, radio)
    return np.conj(activation_rows.astype(float) * g[None, :])


def measure(
    layout: ArrayLayout,
    schedule: ActivationSchedule,
    paths: np.ndarray,
    radio: RadioConfig,
    snr_db: float | None,
    rng_seed=0,
) -> MeasurementSet:
    """Collect pilots y = w @ h + noise for every subarray.

    The per-trial noise variance is the mean clean-signal power over all
    observed slots of all subarrays divided by the linear SNR, so the
    quoted SNR is an average over the whole pilot frame, and a pilot power
    would scale signal and noise alike. ``snr_db=None`` (or +inf) disables
    noise; NaN and -inf raise.
    """
    if schedule.m != layout.m or schedule.activation.shape[2] != layout.pas_per_subarray:
        raise ValueError("schedule does not match the layout dimensions")
    if len(paths) != layout.m:
        raise ValueError("need the paths of every subarray")
    noiseless = snr_db is None or snr_db == np.inf
    if not (noiseless or np.isfinite(snr_db)):
        raise ValueError(f"snr_db must be finite, +inf or None, got {snr_db!r}")
    rng = np.random.default_rng(rng_seed)
    channels = channel_vector(paths)

    clean, ws, slots = [], [], []
    for m, sub in enumerate(layout.subarrays):
        sl = schedule.observed_slots(m)
        rows = schedule.activation[sl, m, :]
        if np.any(rows.sum(axis=1) == 0):
            raise ValueError("schedule contains an all-off observed slot")
        w = measurement_matrix(sub, rows, radio)
        clean.append(w @ channels[m])
        ws.append(w)
        slots.append(sl)

    power = float(np.mean(np.concatenate([np.abs(c) ** 2 for c in clean])))
    sigma2 = 0.0 if noiseless else power / (10.0 ** (snr_db / 10.0))
    scale = np.sqrt(sigma2 / 2.0)
    ys = [c + scale * (rng.standard_normal(c.size) + 1j * rng.standard_normal(c.size))
          if sigma2 > 0.0 else c for c in clean]
    return MeasurementSet(tuple(ys), tuple(ws), tuple(slots), sigma2, snr_db, power)

