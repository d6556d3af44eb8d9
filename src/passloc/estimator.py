"""Greedy direction estimation and geometry-consistent localization.

Per path, each subarray scores its angle dictionary against the current
measurement residual and reports a direction cosine. The cosines are
fused into a single position: in planar mode by enumerating the unknown
lateral signs and solving a projection least-squares problem in closed
form, in full-3D mode by fitting the quadric that links squared height
gap, lateral offset, and axial offset. The dictionary anchor distance is
then refreshed from the fused position and the loop repeats. A converged
path is rebuilt as a spherical-wave component, its complex gain refit by
least squares, and peeled from the measurements before the next path is
extracted.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .channel import MeasurementSet, RadioConfig, path_vector
from .dictionary import (
    AngleGrid,
    DpDictionary,
    build_dp_dictionary,
    default_polar_rings,
    project_dictionary,
)
from .geometry import ArrayLayout, ServiceRegion, pa_user_distance

MAX_SIGN_SUBARRAYS = 20
ILL_CONDITION_TOL = 1e-6
COLLINEAR_TOL = 1e-9


@dataclass(frozen=True)
class EstimatorConfig:
    """Knobs for the joint localization loop.

    num_paths is the number of components to extract (1 + scatterer
    count); fixed_height is the known target height in planar mode.
    """

    region: ServiceRegion
    mode: str = "2d"
    num_paths: int = 1
    max_outer_iters: int = 3
    g_theta: int = 1024
    epsilon: float = 1e-9
    lambda_penalty: float = 1.0
    move_tol: float = 1e-3
    grid_clip: float = 1e-3
    fixed_height: float = 0.0
    coeff_floor: float = 1e-3
    polish: bool = True
    collect_trace: bool = False

    def __post_init__(self):
        if self.mode not in ("2d", "3d"):
            raise ValueError("mode must be '2d' or '3d'")
        if self.num_paths < 1:
            raise ValueError("need at least one path")
        if self.max_outer_iters < 1:
            raise ValueError("need at least one refinement iteration")


@dataclass(frozen=True)
class DirectionEstimate:
    """Best dictionary column for one subarray against one residual."""

    subarray: int
    path: int
    varphi: float
    grid_index: int
    coefficient: complex
    correlation: float
    low_confidence: bool = False


@dataclass(frozen=True)
class SignVector:
    """One lateral sign assignment with its fit and consistency costs."""

    signs: np.ndarray
    cost_ls: float
    cost_penalty: float

    def __post_init__(self):
        s = np.asarray(self.signs, dtype=float).reshape(-1).copy()
        s.setflags(write=False)
        object.__setattr__(self, "signs", s)

    @property
    def total(self) -> float:
        return self.cost_ls + self.cost_penalty


@dataclass(frozen=True)
class PlanarFix:
    position: np.ndarray  # (2,)
    sign: SignVector
    lambda_min: float
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class Position3dFix:
    position: np.ndarray  # (x, y, height)
    z_aux: float  # fitted squared height gap
    cost: float
    flags: tuple[str, ...] = ()


@dataclass
class PathEstimateResult:
    """Everything estimated for one propagation path."""

    path: int
    position: np.ndarray  # (3,)
    distances: np.ndarray  # per-subarray anchor distance at convergence
    varphis: np.ndarray
    signs: np.ndarray | None
    coefficients: np.ndarray  # per-subarray refit complex gains
    components: list  # per-subarray channel-domain vectors, gain applied
    scatter_user_distance: float | None = None
    flags: tuple[str, ...] = ()
    directions: list = field(default_factory=list)
    trace: list = field(default_factory=list)
    absent: bool = False


@dataclass
class EstimationResult:
    """Output of a full multi-path run."""

    paths: list
    channels: list  # per-subarray reconstructed channel vectors
    flags: tuple[str, ...] = ()

    @property
    def positions(self) -> np.ndarray:
        return np.stack([p.position for p in self.paths])


def omp_direction(y_res: np.ndarray, dictionary: DpDictionary, path: int = 0) -> DirectionEstimate:
    """Pick the dictionary column most correlated with the residual.

    Ties resolve to the lowest grid index (np.argmax takes the first
    maximum). The reported coefficient is the single-column least-squares
    gain in pre-normalization scaling, i.e. raw_col^H y / ||raw_col||^2.
    """
    phi = dictionary.measurement_atoms
    if phi is None or phi.size == 0:
        raise ValueError("dictionary has no measurement-domain columns; project it first")
    if phi.shape[0] != y_res.shape[0]:
        raise ValueError("residual length does not match the measurement rows")
    corr = phi.conj().T @ y_res
    mags = np.abs(corr)
    g = int(np.argmax(mags))
    coeff = corr[g] / dictionary.column_norms[g]
    low = mags[g] <= 1e-8 * max(float(np.linalg.norm(y_res)), 1e-300)
    return DirectionEstimate(
        subarray=dictionary.subarray,
        path=path,
        varphi=float(dictionary.cosines[g]),
        grid_index=g,
        coefficient=complex(coeff),
        correlation=float(mags[g]),
        low_confidence=bool(low),
    )


def projection_matrix(varphi: float, sign: float) -> np.ndarray:
    """Orthogonal projector onto the complement of the bearing direction.

    The bearing unit vector is (varphi, sign*sqrt(1 - varphi^2)).
    """
    if not -1.0 <= varphi <= 1.0:
        raise ValueError("direction cosine must lie in [-1, 1]")
    u = np.array([varphi, sign * np.sqrt(max(0.0, 1.0 - varphi * varphi))])
    return np.eye(2) - np.outer(u, u)


def _bearing_matrix(varphis: np.ndarray, signs: np.ndarray) -> np.ndarray:
    lat = np.sqrt(np.clip(1.0 - varphis * varphis, 0.0, None))
    return np.column_stack([varphis, signs * lat])


def solve_position_ls(refs_xy, varphis, signs, epsilon: float = 1e-9):
    """Closed-form minimizer of the summed projection residuals.

    Stacks projectors P_m onto the bearing complements and solves
    (sum P_m + eps*I) q = sum P_m v_m. Returns (q, cost, lambda_min)
    where cost is the unregularized objective at q and lambda_min the
    smallest eigenvalue of sum P_m (conditioning of the fusion).
    """
    v = np.asarray(refs_xy, dtype=float).reshape(-1, 2)
    phis = np.asarray(varphis, dtype=float).reshape(-1)
    s = np.asarray(signs, dtype=float).reshape(-1)
    m = v.shape[0]
    if phis.shape[0] != m or s.shape[0] != m:
        raise ValueError("need one cosine and one sign per subarray")
    u = _bearing_matrix(phis, s)
    gram = u.T @ u
    a = m * np.eye(2) - gram
    lam_min = float(np.linalg.eigvalsh(a)[0])
    b = (v - u * np.sum(u * v, axis=1)[:, None]).sum(axis=0)
    q = np.linalg.solve(a + epsilon * np.eye(2), b)
    dif = q[None, :] - v
    cost = float(np.sum(np.sum(dif * dif, axis=1) - np.sum(u * dif, axis=1) ** 2))
    return q, cost, lam_min


def sign_consistency_penalty(q, refs_xy, varphis) -> float:
    """Penalty for axial offsets that contradict the estimated cosines.

    A positive cosine says the target lies down-guide of the reference;
    only violations (x - x_m) * varphi_m < 0 contribute, quadratically.
    """
    v = np.asarray(refs_xy, dtype=float).reshape(-1, 2)
    phis = np.asarray(varphis, dtype=float).reshape(-1)
    viol = np.minimum(0.0, (q[0] - v[:, 0]) * phis)
    return float(np.sum(viol * viol))


def _collinear(refs_xy) -> bool:
    v = np.asarray(refs_xy, dtype=float).reshape(-1, 2)
    if v.shape[0] < 3:
        return True
    centered = v - v.mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    return bool(sv[-1] < COLLINEAR_TOL)


def resolve_signs(
    refs_xy,
    varphis,
    epsilon: float = 1e-9,
    lambda_penalty: float = 1.0,
    bounds=None,
) -> PlanarFix:
    """Enumerate lateral signs and keep the candidate with the lowest cost.

    Cost is the projection least-squares objective plus the weighted
    axial-consistency penalty; exact ties keep the first candidate in
    lexicographic sign order (-1 before +1). When ``bounds`` is given as
    ((x_lo, x_hi), (y_lo, y_hi)), candidates whose fix lands inside the
    box outrank all candidates outside it regardless of cost; biased
    bearings can create spurious low-cost line concurrences well outside
    the deployment area, and this keeps the fusion in the feasible basin.
    Flags report degenerate fusions: a single subarray, ill-conditioned
    geometry, and collinear references whose mirror candidates the
    penalty cannot split.
    """
    v = np.asarray(refs_xy, dtype=float).reshape(-1, 2)
    phis = np.asarray(varphis, dtype=float).reshape(-1)
    m = v.shape[0]
    if m > MAX_SIGN_SUBARRAYS:
        raise ValueError(f"sign enumeration over {m} subarrays is intractable (cap {MAX_SIGN_SUBARRAYS})")
    best = None
    for signs in itertools.product((-1.0, 1.0), repeat=m):
        s = np.array(signs)
        q, cost_ls, lam_min = solve_position_ls(v, phis, s, epsilon)
        cost_pen = lambda_penalty * sign_consistency_penalty(q, v, phis)
        infeasible = 0
        if bounds is not None:
            (x_lo, x_hi), (y_lo, y_hi) = bounds
            infeasible = int(not (x_lo <= q[0] <= x_hi and y_lo <= q[1] <= y_hi))
        rank = (infeasible, cost_ls + cost_pen)
        if best is None or rank < best[0]:
            best = (rank, SignVector(s, cost_ls, cost_pen), q, lam_min)
    _, sv, q, lam_min = best
    flags = []
    if m == 1:
        flags.append("under-determined")
    if lam_min < ILL_CONDITION_TOL:
        flags.append("ill-conditioned")
    if _collinear(v):
        flags.append("ambiguous")
    return PlanarFix(position=q, sign=sv, lambda_min=lam_min, flags=tuple(flags))


def _quadric_cost(x, y, z, xm, ym, delta):
    res = z + (y - ym) ** 2 - delta * (x - xm) ** 2
    return res, float(np.sum(res * res))


def solve_position_3d(
    refs,
    varphis,
    bounds=None,
    coarse: int = 61,
    max_iters: int = 60,
) -> Position3dFix:
    """Fuse slant-frame cosines into (x, y, height) for PAs at a common height.

    Each cosine pins a cone around the guide axis; writing z for the
    squared height gap, the cone becomes the quadric
    z + (y - y_m)^2 = (1/cos^2 - 1) * (x - x_m)^2. The solver scans a
    coarse (x, y) grid with the closed-form optimal z, then polishes with
    a damped Gauss-Newton in (x, y, z >= 0). Height is h_pa - sqrt(z),
    clamped to [0, h_pa].
    """
    v = np.asarray(refs, dtype=float).reshape(-1, 3)
    phis = np.asarray(varphis, dtype=float).reshape(-1)
    if v.shape[0] != phis.shape[0]:
        raise ValueError("need one cosine per subarray")
    if v.shape[0] < 3:
        raise ValueError("height estimation needs at least three subarrays")
    if np.ptp(v[:, 2]) > 1e-9:
        raise ValueError("subarray references must share a common height")
    h_pa = float(v[0, 2])
    xm, ym = v[:, 0], v[:, 1]
    c = np.where(np.abs(phis) < 1e-12, np.copysign(1e-12, phis), phis)
    delta = 1.0 / (c * c) - 1.0

    if bounds is None:
        pad = 1.0
        bounds = (
            (float(xm.min() - pad), float(xm.max() + pad)),
            (float(ym.min() - pad), float(ym.max() + pad)),
        )
    (x_lo, x_hi), (y_lo, y_hi) = bounds
    xs = np.linspace(x_lo, x_hi, coarse)
    ys = np.linspace(y_lo, y_hi, coarse)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    # a_m = (y - y_m)^2 - delta_m (x - x_m)^2, optimal z = max(0, -mean(a))
    a = (gy[..., None] - ym) ** 2 - delta * (gx[..., None] - xm) ** 2
    gz = np.maximum(0.0, -a.mean(axis=-1))
    cost_grid = np.sum((gz[..., None] + a) ** 2, axis=-1)
    i, j = np.unravel_index(np.argmin(cost_grid), cost_grid.shape)
    p = np.array([gx[i, j], gy[i, j], gz[i, j]])
    _, cost = _quadric_cost(*p, xm, ym, delta)

    mu = 1e-3
    converged = False
    for _ in range(max_iters):
        res, cost = _quadric_cost(p[0], p[1], p[2], xm, ym, delta)
        if cost < 1e-28:
            converged = True
            break
        jac = np.column_stack([
            -2.0 * delta * (p[0] - xm),
            2.0 * (p[1] - ym),
            np.ones_like(xm),
        ])
        jtj = jac.T @ jac
        jtr = jac.T @ res
        accepted = False
        for _ in range(25):
            try:
                step = np.linalg.solve(jtj + mu * np.eye(3), -jtr)
            except np.linalg.LinAlgError:
                mu *= 10.0
                continue
            cand = p + step
            cand[2] = max(0.0, cand[2])
            _, cand_cost = _quadric_cost(cand[0], cand[1], cand[2], xm, ym, delta)
            if cand_cost < cost:
                p = cand
                cost = cand_cost
                mu = max(mu / 3.0, 1e-12)
                accepted = True
                if np.linalg.norm(step) < 1e-12 * (1.0 + np.linalg.norm(p)):
                    converged = True
                break
            mu *= 10.0
        if not accepted:
            converged = True  # stationary under damping
            break
        if converged:
            break

    flags = []
    if not converged:
        flags.append("non-converged")
    if np.ptp(ym) < COLLINEAR_TOL:
        flags.append("ambiguous")
    if p[2] < 1e-12:  # sub-micron gap: snap so a zero-gap target reports h_pa exactly
        p[2] = 0.0
    height = h_pa - np.sqrt(p[2])
    height = min(max(height, 0.0), h_pa)
    return Position3dFix(
        position=np.array([p[0], p[1], height]),
        z_aux=float(p[2]),
        cost=cost,
        flags=tuple(flags),
    )


MIN_ANCHOR_INIT = 1.0
MIN_ANCHOR_DISTANCE = 1e-3
REGION_SLACK = 1.0
GAIN_TIE_REL = 1e-12
POLISH_INIT_STEP = 0.16
POLISH_MIN_STEP = 5e-4
POLISH_MAX_EVALS = 160


@dataclass(frozen=True)
class Iterate:
    """One refinement step of a path: its directions and the fix fused from them."""

    directions: list
    varphis: np.ndarray
    position: np.ndarray  # (3,)
    signs: np.ndarray | None  # None in 3-D mode
    flags: tuple[str, ...]


def _anchor_distances(layout: ArrayLayout, point, mode: str, floor: float = MIN_ANCHOR_DISTANCE):
    """Range from every reference to ``point`` (horizontal in planar mode), floored."""
    refs = layout.reference_positions
    if mode == "2d":
        r = np.hypot(refs[:, 0] - point[0], refs[:, 1] - point[1])
    else:
        r = np.linalg.norm(refs - point[None, :], axis=1)
    return np.maximum(r, floor)


def extract_directions(layout, radio, grid, w_list, residuals, r_anchor, mode="2d", dh=0.0,
                       path=0) -> list:
    """Stage 1: per subarray, the dictionary column that best matches its residual.

    Subarray m's dictionary is built at anchor distance r_anchor[m] and
    projected through its measurement matrix w_list[m].
    """
    directions = []
    for m, sub in enumerate(layout.subarrays):
        # Rebinding ``dic`` keeps the previous projection alive through the
        # next build. Freed earlier, glibc trims and regrows the heap for
        # every subarray: 40 % more page faults and 9 % fewer trials/s on
        # mw m=3 l=1 (x86-64, Python 3.11, numpy 2.4).
        dic = build_dp_dictionary(sub, float(r_anchor[m]), grid, radio, mode=mode, dh=dh, index=m)
        dic = project_dictionary(dic, w_list[m])
        directions.append(omp_direction(residuals[m], dic, path=path))
    return directions


def fuse(directions, layout: ArrayLayout, config: EstimatorConfig) -> tuple[Iterate, np.ndarray]:
    """Stage 2: fuse the directions into one fix and refresh the anchor distances from it.

    Planar mode resolves the lateral signs (resolve_signs); 3-D mode fits
    the cone quadric (solve_position_3d). Returns the iterate and the
    anchor distances for the next dictionary build.
    """
    region = config.region
    varphis = np.array([d.varphi for d in directions])
    if config.mode == "2d":
        # Inflated box for sign feasibility: boundary users with noisy bearings
        # fuse slightly outside the region and must not be ranked infeasible.
        slack = REGION_SLACK
        fix = resolve_signs(
            layout.reference_xy, varphis, config.epsilon, config.lambda_penalty,
            bounds=((-slack, region.size_x + slack), (-slack, region.size_y + slack)),
        )
        position = np.array([fix.position[0], fix.position[1], config.fixed_height])
        signs, flags = fix.sign.signs, fix.flags
    else:
        fix3 = solve_position_3d(
            layout.reference_positions, varphis,
            bounds=((0.0, region.size_x), (0.0, region.size_y)),
        )
        position, signs, flags = fix3.position, None, fix3.flags
    # Anchor distances are refreshed from the fix projected onto the region
    # box: targets live inside it, and an escaped intermediate fix would
    # collapse the distance of a nearby subarray and poison the next dictionary.
    anchor_point = position.copy()
    anchor_point[0] = min(max(anchor_point[0], 0.0), region.size_x)
    anchor_point[1] = min(max(anchor_point[1], 0.0), region.size_y)
    r_anchor = _anchor_distances(layout, anchor_point, config.mode)
    return Iterate(directions, varphis, position, signs, flags), r_anchor


def _path_templates(position, kind, user, layout, radio, w_list, amp):
    """Per subarray, the path vector b at ``position`` and its measured template amp * W b."""
    for m, sub in enumerate(layout.subarrays):
        b = path_vector(sub.pa_positions, position, radio, kind, user=user)
        yield b, amp * (w_list[m] @ b)


def _refit_gain(position, kind, user, layout, radio, w_list, residuals, amp) -> float:
    """Residual energy captured by a rank-one refit of the path at ``position``.

    Per subarray this is |<t, res>|^2 / ||t||^2 with t the measured
    component template; the least-squares refit removes exactly this much
    energy, so larger is better. Bearing costs cannot tell mirror-like
    candidates apart when bearings are nearly axial, but this can: the
    template phase pattern is position-specific.
    """
    gain = 0.0
    templates = _path_templates(position, kind, user, layout, radio, w_list, amp)
    for (_, t), res in zip(templates, residuals):
        den = float(np.vdot(t, t).real)
        if den > 0.0:
            gain += abs(np.vdot(t, res)) ** 2 / den
    return gain


def arbitrate(iterates, kind, user, layout, radio, w_list, residuals, amp) -> Iterate:
    """Stage 3: the iterate with the largest refit gain; ties keep the earliest.

    Near-degenerate sign basins make the refinement oscillate between
    mirror-like fixes of almost equal bearing cost; in the measurement
    domain the candidates differ sharply.
    """
    best_gain, chosen = None, None
    for cand in iterates:
        g = _refit_gain(cand.position, kind, user, layout, radio, w_list, residuals, amp)
        if best_gain is None or g > best_gain * (1.0 + GAIN_TIE_REL):
            best_gain, chosen = g, cand
    return chosen


def polish(position, kind, user, layout, radio, w_list, residuals, amp, box) -> np.ndarray:
    """Stage 4: coordinate pattern search maximizing the refit gain near a fix.

    The fused position inherits the angular quantization of the far
    subarrays; a target close to one subarray needs finer range accuracy
    than that to reconstruct its dominant channel. The search moves one
    coordinate at a time inside ``box`` (None entries are frozen), halves
    the step on failure, and only accepts strict improvements, so exact
    mirror ties leave the input unchanged.
    """
    q = np.asarray(position, dtype=float).copy()
    best = _refit_gain(q, kind, user, layout, radio, w_list, residuals, amp)
    step = POLISH_INIT_STEP
    evals = 0
    dims = [d for d, b in enumerate(box) if b is not None]
    while step >= POLISH_MIN_STEP and evals < POLISH_MAX_EVALS:
        improved = False
        for d in dims:
            lo, hi = box[d]
            for delta in (step, -step):
                cand = q.copy()
                cand[d] = min(max(cand[d] + delta, lo), hi)
                if cand[d] == q[d]:
                    continue
                gain = _refit_gain(cand, kind, user, layout, radio, w_list, residuals, amp)
                evals += 1
                if gain > best * (1.0 + GAIN_TIE_REL):
                    q, best, improved = cand, gain, True
                if evals >= POLISH_MAX_EVALS:
                    break
            if evals >= POLISH_MAX_EVALS:
                break
        if not improved:
            step *= 0.5
    return q


def peel(position, kind, user, layout, radio, w_list, residuals, amp):
    """Stage 5: refit the path's complex gain per subarray and subtract it from ``residuals``.

    The gain absorbs the common phase of the anchor-distance error.
    Returns the per-subarray gains and the channel-domain components
    with the gain applied; ``residuals`` is updated in place.
    """
    coeffs = np.zeros(layout.m, dtype=complex)
    components = []
    for m, (b, t) in enumerate(_path_templates(position, kind, user, layout, radio, w_list, amp)):
        denom = float(np.vdot(t, t).real)
        c = complex(np.vdot(t, residuals[m]) / denom) if denom > 0.0 else 0.0
        residuals[m] = residuals[m] - c * t
        coeffs[m] = c
        components.append(c * b)
    return coeffs, components


def run_omp_gcl(
    measurements: MeasurementSet,
    layout: ArrayLayout,
    radio: RadioConfig,
    config: EstimatorConfig,
) -> EstimationResult:
    """Joint multi-path localization and channel reconstruction.

    Paths are extracted strongest-first. Each path alternates
    extract_directions and fuse for up to max_outer_iters steps (stopping
    once the fix moves less than move_tol), then runs arbitrate, polish
    (when ``config.polish``) and peel. Reported angles and signs belong to
    the arbitrated iterate. A path whose mean dictionary coefficient
    magnitude falls below coeff_floor times the first path's is reported
    absent and extraction stops.
    """
    if measurements.m != layout.m:
        raise ValueError("measurement set does not match the layout")
    region = config.region
    grid = AngleGrid.uniform_cosine(config.g_theta, config.grid_clip)
    dh = region.h_pa - config.fixed_height
    amp = np.sqrt(radio.p0)
    w = measurements.w
    residuals = [y.astype(complex).copy() for y in measurements.y]
    h_lo, h_hi = region.h_range
    box = ((0.0, region.size_x), (0.0, region.size_y),
           None if config.mode == "2d" else (h_lo, h_hi))
    # Every path starts from the region center, floored so that a reference
    # placed at the center stays usable.
    center = np.array([*region.center, 0.5 * (h_lo + h_hi)])
    r_start = _anchor_distances(layout, center, config.mode, MIN_ANCHOR_INIT)

    paths: list[PathEstimateResult] = []
    user = None
    ref_strength = None
    global_flags: set[str] = set()

    for l in range(config.num_paths):
        kind = "los" if l == 0 else "nlos"
        r_anchor = r_start
        iterates, trace = [], []
        for it in range(config.max_outer_iters):
            directions = extract_directions(layout, radio, grid, w, residuals, r_anchor,
                                            config.mode, dh, l)
            iterate, r_anchor = fuse(directions, layout, config)
            moved = np.linalg.norm(iterate.position - iterates[-1].position) if iterates else np.inf
            iterates.append(iterate)
            if config.collect_trace:
                trace.append({
                    "iteration": it,
                    "varphis": iterate.varphis.tolist(),
                    "signs": None if iterate.signs is None else iterate.signs.tolist(),
                    "position": iterate.position.tolist(),
                    "anchor_distances": r_anchor.tolist(),
                })
            if moved < config.move_tol:
                break

        chosen = arbitrate(iterates, kind, user, layout, radio, w, residuals, amp)
        strength = float(np.mean([abs(d.coefficient) for d in chosen.directions]))
        absent = l > 0 and strength < config.coeff_floor * ref_strength
        position = chosen.position
        if absent:
            coeffs = np.zeros(layout.m, dtype=complex)
            components = [np.zeros(layout.pas_per_subarray, dtype=complex)
                          for _ in range(layout.m)]
        else:
            if config.polish:
                position = polish(position, kind, user, layout, radio, w, residuals, amp, box)
                if config.collect_trace:
                    trace.append({"polish": True, "position": position.tolist()})
            coeffs, components = peel(position, kind, user, layout, radio, w, residuals, amp)
        paths.append(PathEstimateResult(
            path=l, position=position,
            distances=_anchor_distances(layout, position, config.mode),
            varphis=chosen.varphis.copy(),
            signs=None if chosen.signs is None else chosen.signs.copy(),
            coefficients=coeffs, components=components,
            scatter_user_distance=None if l == 0 or absent else pa_user_distance(position, user),
            flags=tuple(set(chosen.flags) | {"absent"}) if absent else chosen.flags,
            directions=chosen.directions, trace=trace, absent=absent,
        ))
        if absent:
            global_flags.add("path-absent")
            break
        global_flags.update(chosen.flags)
        if any(d.low_confidence for d in chosen.directions):
            global_flags.add("low-confidence")
        if l == 0:
            ref_strength, user = strength, position

    channels = [
        sum((p.components[m] for p in paths if not p.absent),
            np.zeros(layout.pas_per_subarray, dtype=complex))
        for m in range(layout.m)
    ]
    return EstimationResult(paths=paths, channels=channels, flags=tuple(sorted(global_flags)))


def reconstruct_channel(positions, pa_positions, radio: RadioConfig) -> np.ndarray:
    """Channel at arbitrary PA coordinates from estimated path positions.

    positions is (K, 3) with the user first; scattered legs reuse the
    estimated user position, so reconstruction needs geometry only. This
    is the hook for evaluating candidate PA placements that never
    transmitted a pilot.
    """
    pos = np.asarray(positions, dtype=float).reshape(-1, 3)
    h = path_vector(pa_positions, pos[0], radio, "los")
    for q in pos[1:]:
        h = h + path_vector(pa_positions, q, radio, "nlos", user=pos[0])
    return h


def polar_dictionary(
    layout: ArrayLayout, radio: RadioConfig, config: EstimatorConfig, rings=None
) -> DpDictionary:
    """Joint ring x angle atoms of a single-subarray layout at the config's grid.

    The atoms are scene-independent, so a caller running many trials
    builds them once. ``rings`` defaults to default_polar_rings(region).
    """
    # Looked up at call time so that a wrapper installed on
    # passloc.dictionary (benchmarks/tracing.py) also sees this build.
    from .dictionary import build_polar_dictionary

    if rings is None:
        rings = default_polar_rings(config.region)
    grid = AngleGrid.uniform_cosine(config.g_theta, config.grid_clip)
    dh = config.region.h_pa - config.fixed_height
    return build_polar_dictionary(layout.subarrays[0], radio, grid, rings, mode="2d", dh=dh,
                                  index=0)


def run_polar_baseline(
    measurements: MeasurementSet,
    layout: ArrayLayout,
    radio: RadioConfig,
    config: EstimatorConfig,
    rings=None,
    channel_dictionary: DpDictionary | None = None,
) -> EstimationResult:
    """Single-array matching over a joint (distance ring, angle) grid.

    Classic greedy pursuit with joint least squares over the selected
    columns. Positions are read off the winning atoms; with one linear
    array the lateral sign is unobservable, so the negative-y side is
    reported by convention (matching the sign enumerator's tie order) and
    the result is flagged ambiguous. Channels are rebuilt from the
    selected atoms themselves, which keeps the reconstruction on the
    measurement manifold even when the surrogate position is off.

    Pass ``channel_dictionary`` (from polar_dictionary) to reuse atoms
    across calls; it must match the layout's single subarray.
    """
    if layout.m != 1:
        raise ValueError("polar baseline expects a single-subarray layout")
    if channel_dictionary is None:
        channel_dictionary = polar_dictionary(layout, radio, config, rings)
    proj = project_dictionary(channel_dictionary, measurements.w[0])
    y = measurements.y[0].astype(complex)
    residual = y.copy()
    ref_xy = layout.reference_xy[0]

    support: list[int] = []
    dir_ests: list[DirectionEstimate] = []
    ref_strength = None
    flags = {"ambiguous", "under-determined"}
    for l in range(config.num_paths):
        de = omp_direction(residual, proj, path=l)
        strength = abs(de.coefficient)
        if l == 0:
            ref_strength = strength
        elif ref_strength is not None and strength < config.coeff_floor * ref_strength:
            flags.add("path-absent")
            break
        support.append(de.grid_index)
        dir_ests.append(de)
        raw = proj.measurement_atoms[:, support] * proj.column_norms[support][None, :]
        coeffs, *_ = np.linalg.lstsq(raw, y, rcond=None)
        residual = y - raw @ coeffs

    paths = []
    channel = np.zeros(layout.pas_per_subarray, dtype=complex)
    for l, (g, de) in enumerate(zip(support, dir_ests)):
        r = float(proj.ring_distances[g])
        cos = float(proj.cosines[g])
        lat = np.sqrt(max(0.0, 1.0 - cos * cos))
        position = np.array([ref_xy[0] + r * cos, ref_xy[1] - r * lat, config.fixed_height])
        comp = coeffs[l] * proj.atoms[:, g]
        channel = channel + comp
        r_su = None
        if l > 0:
            r_su = float(np.linalg.norm(position - paths[0].position))
        paths.append(PathEstimateResult(
            path=l, position=position, distances=np.array([r]),
            varphis=np.array([cos]), signs=np.array([-1.0]),
            coefficients=np.array([coeffs[l]]), components=[comp],
            scatter_user_distance=r_su, flags=tuple(sorted(flags)),
            directions=[de],
        ))
    if not paths:
        raise ValueError("baseline extracted no path")
    return EstimationResult(paths=paths, channels=[channel], flags=tuple(sorted(flags)))
