"""Fisher information and position error bounds for bearing fusion.

Model: each subarray reports a noisy unit bearing toward the target,
error Gaussian with covariance sigma^2 * I in the plane. Only the
component orthogonal to the true bearing carries position information,
and its lever arm shrinks with range, so the Fisher information is a
range-weighted sum of projectors onto the bearing complements. Besides
the exact inverse, a simplified bound that pulls a representative range
out of the sum is reported; the smallest eigenvalue of the unweighted
projector sum acts as a scalar geometric-diversity score for placement
comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dictionary import AngleGrid
from .estimator import _anchor_distances, extract_directions
from .geometry import ServiceRegion, SingularGeometryError, pa_user_distance
from .harness import ExperimentConfig, simulate_trial

SINGULAR_EIG_TOL = 1e-12


@dataclass(frozen=True)
class CrlbReport:
    """Position-error bound at one target point.

    crlb is the matrix selected by ``mode``; both variants are always
    attached. When the projector sum is singular the bound is unbounded
    along ``null_direction`` and the matrices contain +inf on that axis.
    """

    target: np.ndarray
    sigma2: float
    mode: str
    fim: np.ndarray
    crlb: np.ndarray
    crlb_exact: np.ndarray
    crlb_paper: np.ndarray
    lambda_min: float
    worst_axis: np.ndarray
    representative_range: float
    unbounded: bool = False
    null_direction: np.ndarray | None = None

    @property
    def trace(self) -> float:
        return float(np.trace(self.crlb))


def bearing_geometry(target_xy, refs_xy):
    """Unit bearings, ranges, and complement projectors from refs to target."""
    q = np.asarray(target_xy, dtype=float).reshape(2)
    v = np.asarray(refs_xy, dtype=float).reshape(-1, 2)
    delta = q[None, :] - v
    ranges = pa_user_distance(v, q)
    units = delta / ranges[:, None]
    projectors = np.eye(2)[None, :, :] - units[:, :, None] * units[:, None, :]
    return units, ranges, projectors


def fisher_information(target_xy, refs_xy, sigma2: float) -> np.ndarray:
    """Exact 2x2 information matrix sum_m P_m / (sigma2 * r_m^2)."""
    if not sigma2 > 0.0:
        raise ValueError(f"bearing noise variance must be positive, got {sigma2}")
    _, ranges, projectors = bearing_geometry(target_xy, refs_xy)
    return (projectors / (ranges**2)[:, None, None]).sum(axis=0) / sigma2


def crlb_bound(target_xy, refs_xy, sigma2: float, mode: str = "exact") -> CrlbReport:
    """Bound report at a target point.

    mode "exact" inverts the Fisher information; mode "paper" applies the
    simplified form sigma2 * R^2 * (sum_m P_m)^{-1} with R the geometric
    mean range, which decouples placement geometry from range. Singular
    geometry (all bearings parallel) yields an unbounded report instead of
    raising.
    """
    if mode not in ("exact", "paper"):
        raise ValueError("mode must be 'exact' or 'paper'")
    q = np.asarray(target_xy, dtype=float).reshape(2)
    fim = fisher_information(q, refs_xy, sigma2)
    _, ranges, projectors = bearing_geometry(q, refs_xy)
    psum = projectors.sum(axis=0)
    evals, evecs = np.linalg.eigh(psum)
    lam_min = float(evals[0])
    rep_range = float(np.exp(np.mean(np.log(ranges))))

    if lam_min < SINGULAR_EIG_TOL:
        inf_mat = np.full((2, 2), np.inf)
        null = evecs[:, 0]
        return CrlbReport(
            target=q, sigma2=sigma2, mode=mode, fim=fim,
            crlb=inf_mat, crlb_exact=inf_mat, crlb_paper=inf_mat,
            lambda_min=lam_min, worst_axis=null, representative_range=rep_range,
            unbounded=True, null_direction=null,
        )

    crlb_exact = np.linalg.inv(fim)
    crlb_paper = sigma2 * rep_range**2 * np.linalg.inv(psum)
    chosen = crlb_exact if mode == "exact" else crlb_paper
    w, v = np.linalg.eigh(chosen)
    return CrlbReport(
        target=q, sigma2=sigma2, mode=mode, fim=fim,
        crlb=chosen, crlb_exact=crlb_exact, crlb_paper=crlb_paper,
        lambda_min=lam_min, worst_axis=v[:, -1], representative_range=rep_range,
    )


def diversity_score(target_xy, refs_xy) -> float:
    """lambda_min of the projector sum; higher means better-spread bearings."""
    _, _, projectors = bearing_geometry(target_xy, refs_xy)
    return float(np.linalg.eigvalsh(projectors.sum(axis=0))[0])


def crlb_heatmap(region: ServiceRegion, refs_xy, sigma2: float, grid_n: int = 60,
                 mode: str = "exact", margin: float = 0.5) -> np.ndarray:
    """Rows (x, y, trace_crlb, lambda_min) over an interior evaluation grid.

    The margin keeps grid points off the references themselves; points
    with singular geometry report an infinite trace.
    """
    if grid_n < 1:
        raise ValueError(f"heatmap grid needs at least one point per axis, got {grid_n}")
    xs = np.linspace(margin, region.size_x - margin, grid_n)
    ys = np.linspace(margin, region.size_y - margin, grid_n)
    rows = []
    for x in xs:
        for y in ys:
            try:
                rep = crlb_bound((x, y), refs_xy, sigma2, mode=mode)
                rows.append((x, y, rep.trace, rep.lambda_min))
            except SingularGeometryError:
                rows.append((x, y, np.inf, 0.0))
    return np.array(rows)


def calibrate_bearing_sigma(cfg: ExperimentConfig, scenario: str, snr_db,
                            trials: int = 200) -> tuple[float, dict]:
    """Empirical bearing noise scale of a scenario's pilots at a given SNR.

    Trial t is the sweep's own trial t of ``scenario`` (harness.simulate_trial)
    with the scatterers removed. Each subarray estimates its direction at
    the true anchor distance; the estimated unit bearing (true lateral sign
    substituted, since sign ambiguity is a separate mechanism) is compared
    with the truth, and sqrt(mean ||u_hat - u||^2 / 2) is returned to match
    the isotropic error model. The details dict records the sample count.
    The bearing model is planar, so a "3d" config is rejected.
    """
    if cfg.mode == "3d":
        raise ValueError("bearing calibration needs a '2d' config: the bearing model is planar")
    single = replace(cfg, l=0)
    grid = AngleGrid.uniform_cosine(cfg.g_theta)
    dh = cfg.h_pa - cfg.fixed_height
    sq_sum = 0.0
    count = 0
    for t in range(trials):
        scene, layout, _, _, ms = simulate_trial(single, scenario, snr_db, 0, t)
        ranges = _anchor_distances(layout, scene.user, "2d")
        ests = extract_directions(layout, cfg.radio, grid, ms.w, ms.y, ranges, dh=dh)
        deltas = scene.user[:2] - layout.reference_xy
        for delta, r_true, est in zip(deltas, ranges, ests):
            u_true = delta / r_true
            lat = np.sqrt(max(0.0, 1.0 - est.varphi**2))
            u_est = np.array([est.varphi, np.sign(u_true[1]) * lat if u_true[1] != 0 else lat])
            sq_sum += float(np.sum((u_est - u_true) ** 2))
            count += 1
    sigma = float(np.sqrt(sq_sum / (2 * count)))
    return sigma, {"samples": count, "snr_db": snr_db, "provenance": "calibrated"}
