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

from dataclasses import dataclass, field

import numpy as np

from .channel import MeasurementSet, RadioConfig, channel_vector, path_vector, point_responses
from .dictionary import (
    AngleGrid,
    DictionaryError,
    DpDictionary,
    build_dp_dictionary,
    project_dictionary,
)
from .geometry import ArrayLayout, ServiceRegion, pa_user_distance

MAX_SIGN_SUBARRAYS = 20
SIGN_CHUNK = 4096  # sign candidates per batched solve in resolve_signs
LS_EPSILON = 1e-9  # ridge on the 2x2 fusion system
ILL_CONDITION_TOL = 1e-6
COLLINEAR_TOL = 1e-9
QUADRIC_GRID = 61
QUADRIC_MAX_ITERS = 60


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
    fixed_height: float = 0.0

    def __post_init__(self):
        if self.mode not in ("2d", "3d"):
            raise ValueError("mode must be '2d' or '3d'")
        if self.num_paths < 1:
            raise ValueError("need at least one path")
        if self.max_outer_iters < 1:
            raise ValueError("need at least one refinement iteration")
        if self.g_theta < 2:  # the rule of AngleGrid.uniform_cosine
            raise ValueError(f"g_theta must be at least 2, got {self.g_theta}")


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
class PlanarFix:
    """The winning lateral sign assignment, its fix, and its fit and consistency costs."""

    position: np.ndarray  # (2,)
    signs: np.ndarray  # (M,) of -1.0 / +1.0
    cost_ls: float
    cost_penalty: float
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
    components: np.ndarray  # (M, N) channel-domain vectors, gain applied
    scatter_user_distance: float | None = None
    flags: tuple[str, ...] = ()
    directions: list = field(default_factory=list)
    trace: list = field(default_factory=list)
    absent: bool = False


@dataclass
class EstimationResult:
    """Output of a full multi-path run."""

    paths: list
    channels: np.ndarray  # (M, N) reconstructed channel vectors
    flags: tuple[str, ...] = ()

    @property
    def positions(self) -> np.ndarray:
        return np.stack([p.position for p in self.paths])


def atom_energies(w: np.ndarray, dictionary: DpDictionary) -> np.ndarray:
    """The measured energies ||W a_g||^2 of a dictionary's N x G atoms under T x N W.

    They come from the Gram form Re(a_g^H (W^H W) a_g) when N < T (N^2 G
    multiply-adds), else from project_dictionary (T N G).
    """
    if w.shape[1] < w.shape[0]:
        at = np.ascontiguousarray(dictionary.atoms.T, dtype=complex)  # a view for built atoms
        # Row g of at is a_g^T and row g of at @ (W^H W)^T is (W^H W a_g)^T, so
        # the dot product of the two rows as real (re, im) pairs is the energy.
        return np.einsum("gk,gk->g", at.view(float), (at @ (w.conj().T @ w).T).view(float))
    phi = project_dictionary(dictionary, w)
    return sum(np.einsum("tg,tg->g", part, part) for part in (phi.real, phi.imag))


def omp_direction(y_res: np.ndarray, w: np.ndarray, dictionary: DpDictionary,
                  path: int = 0, energy: np.ndarray | None = None) -> DirectionEstimate:
    """The atom a_g whose measured column W a_g best matches the residual y.

    Scores |<W a_g, y>| / ||W a_g|| with the correlation a_g^H (W^H y) and
    reports the single-column least-squares coefficient a_g^H W^H y / ||W a_g||^2.
    The energies ||W a_g||^2 are atom_energies(w, dictionary); a caller that
    matches several residuals against one W passes them as ``energy``.
    Zero-energy columns are never picked, ties go to the first maximum, and
    grid_index counts the built dictionary's columns.
    """
    atoms = dictionary.atoms
    if w.ndim != 2 or w.shape[1] != atoms.shape[0]:
        raise ValueError("measurement matrix width must match the element count")
    if w.shape[0] != y_res.shape[0]:
        raise ValueError("residual length does not match the measurement rows")
    if energy is None:
        energy = atom_energies(w, dictionary)
    at = np.ascontiguousarray(atoms.T, dtype=complex)  # a view for built atoms
    corr = (at @ (w.conj().T @ y_res).conj()).conj()  # a_g^H W^H y
    valid = energy > 0.0
    if not valid.any():
        raise DictionaryError("measurement matrix annihilated every atom")
    score = np.where(valid, np.abs(corr) / np.sqrt(np.where(valid, energy, 1.0)), -1.0)
    g = int(np.argmax(score))
    low = score[g] <= 1e-8 * max(float(np.linalg.norm(y_res)), 1e-300)
    return DirectionEstimate(
        subarray=dictionary.subarray,
        path=path,
        varphi=float(dictionary.cosines[g]),
        grid_index=g,
        coefficient=complex(corr[g] / energy[g]),
        correlation=float(score[g]),
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


def _fuse_candidates(v: np.ndarray, phis: np.ndarray, signs: np.ndarray, epsilon: float):
    """Projection least-squares fixes for a (K, M) stack of lateral sign vectors.

    Returns q (K, 2), the unregularized costs (K,) and the normal matrices
    sum P_m (K, 2, 2). Per-matrix products and solves and sums over the same
    axes give every row the bits of a one-row stack (see resolve_signs).
    """
    m = v.shape[0]
    u = np.empty(signs.shape + (2,))
    u[..., 0] = phis
    u[..., 1] = signs * np.sqrt(np.clip(1.0 - phis * phis, 0.0, None))
    gram = np.matmul(u.transpose(0, 2, 1), u)
    a = m * np.eye(2) - gram
    b = (v - u * np.sum(u * v, axis=2)[..., None]).sum(axis=1)
    q = np.linalg.solve(a + epsilon * np.eye(2), b[..., None])[..., 0]
    dif = q[:, None, :] - v
    cost = np.sum(np.sum(dif * dif, axis=2) - np.sum(u * dif, axis=2) ** 2, axis=1)
    return q, cost, a


def solve_position_ls(refs_xy, varphis, signs, epsilon: float = LS_EPSILON):
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
    q, cost, a = _fuse_candidates(v, phis, s[None, :], epsilon)
    return q[0], float(cost[0]), float(np.linalg.eigvalsh(a[0])[0])


def sign_consistency_penalty(q, refs_xy, varphis):
    """Penalty for axial offsets that contradict the estimated cosines.

    A positive cosine says the target lies down-guide of the reference;
    only violations (x - x_m) * varphi_m < 0 contribute, quadratically.
    ``q`` is one fix (2,), giving a float, or a (K, 2) stack, giving (K,).
    """
    v = np.asarray(refs_xy, dtype=float).reshape(-1, 2)
    phis = np.asarray(varphis, dtype=float).reshape(-1)
    viol = np.minimum(0.0, (np.asarray(q)[..., 0, None] - v[:, 0]) * phis)
    return np.sum(viol * viol, axis=-1)


def _collinear(refs_xy) -> bool:
    v = np.asarray(refs_xy, dtype=float).reshape(-1, 2)
    if v.shape[0] < 3:
        return True
    centered = v - v.mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    return bool(sv[-1] < COLLINEAR_TOL)


def resolve_signs(refs_xy, varphis, bounds=None) -> PlanarFix:
    """Score all 2^M lateral sign vectors and keep the one with the lowest cost.

    Cost is the projection least-squares objective plus the
    axial-consistency penalty; exact ties keep the first candidate in
    lexicographic sign order (-1 before +1). When ``bounds`` is given as
    ((x_lo, x_hi), (y_lo, y_hi)), candidates whose fix lands inside the
    box outrank all candidates outside it regardless of cost; biased
    bearings can create spurious low-cost line concurrences well outside
    the deployment area, and this keeps the fusion in the feasible basin.
    Flags report degenerate fusions: a single subarray, ill-conditioned
    geometry, and collinear references whose mirror candidates the
    penalty cannot split.

    The candidates are solved as stacks of at most SIGN_CHUNK, which
    bounds memory at M = MAX_SIGN_SUBARRAYS, and only the winner's
    conditioning is computed. Each stack keeps the floating-point order
    of solve_position_ls: on collinear references mirror candidates differ
    in cost only by rounding, so a reordered sum would change which mirror
    wins.
    """
    v = np.asarray(refs_xy, dtype=float).reshape(-1, 2)
    phis = np.asarray(varphis, dtype=float).reshape(-1)
    m = v.shape[0]
    if phis.shape[0] != m:
        raise ValueError("need one cosine per subarray")
    if m > MAX_SIGN_SUBARRAYS:
        raise ValueError(f"sign enumeration over {m} subarrays is intractable (cap {MAX_SIGN_SUBARRAYS})")
    shifts = np.arange(m - 1, -1, -1)
    best = None
    for start in range(0, 2**m, SIGN_CHUNK):
        k = np.arange(start, min(start + SIGN_CHUNK, 2**m))
        # bit M-1-j of k is subarray j's sign (set: +1): itertools.product order, -1 first
        signs = np.where((k[:, None] >> shifts) & 1, 1.0, -1.0)
        q, cost_ls, a = _fuse_candidates(v, phis, signs, LS_EPSILON)
        cost_pen = sign_consistency_penalty(q, v, phis)
        outside = np.zeros(k.shape, dtype=bool)
        if bounds is not None:
            (x_lo, x_hi), (y_lo, y_hi) = bounds
            outside = ~((x_lo <= q[:, 0]) & (q[:, 0] <= x_hi) & (y_lo <= q[:, 1]) & (q[:, 1] <= y_hi))
        total = cost_ls + cost_pen
        front = np.flatnonzero(outside == outside.min())
        i = front[np.argmin(total[front])]
        rank = (bool(outside[i]), float(total[i]))
        if best is None or rank < best[0]:
            best = (rank, signs[i].copy(), q[i].copy(), float(cost_ls[i]), float(cost_pen[i]), a[i])
    _, s, q, cost_ls, cost_pen, a_best = best
    lam_min = float(np.linalg.eigvalsh(a_best)[0])
    flags = []
    if m == 1:
        flags.append("under-determined")
    if lam_min < ILL_CONDITION_TOL:
        flags.append("ill-conditioned")
    if _collinear(v):
        flags.append("ambiguous")
    return PlanarFix(position=q, signs=s, cost_ls=cost_ls, cost_penalty=cost_pen,
                     lambda_min=lam_min, flags=tuple(flags))


def _quadric_cost(x, y, z, xm, ym, delta):
    res = z + (y - ym) ** 2 - delta * (x - xm) ** 2
    return res, float(np.sum(res * res))


def solve_position_3d(refs, varphis, bounds=None) -> Position3dFix:
    """Fuse slant-frame cosines into (x, y, height) for PAs at a common height.

    Each cosine pins a cone around the guide axis; writing z for the
    squared height gap, the cone becomes the quadric
    z + (y - y_m)^2 = (1/cos^2 - 1) * (x - x_m)^2. The solver scans a
    QUADRIC_GRID x QUADRIC_GRID (x, y) grid with the closed-form optimal
    z, then polishes with at most QUADRIC_MAX_ITERS damped Gauss-Newton
    steps in (x, y, z >= 0). Height is h_pa - sqrt(z), clamped to [0, h_pa].
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
    xs = np.linspace(x_lo, x_hi, QUADRIC_GRID)
    ys = np.linspace(y_lo, y_hi, QUADRIC_GRID)
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
    for _ in range(QUADRIC_MAX_ITERS):
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
MOVE_TOL = 1e-3  # refinement stops once the fix moves less than this (m)
COEFF_FLOOR = 1e-3  # a later path this much weaker than the first is absent
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
    matched through its measurement matrix w_list[m] by omp_direction
    (in Gram form while a subarray has fewer elements than pilot slots).
    """
    directions = []
    for m, sub in enumerate(layout.subarrays):
        # Rebinding ``dic`` holds the previous build through the next one, so
        # glibc does not trim and regrow the heap per subarray: freeing it
        # first takes an mw m=3 l=1 trial from 2.1k to 3.9k minor page faults
        # (x86-64, Python 3.11, numpy 2.4).
        dic = build_dp_dictionary(sub, float(r_anchor[m]), grid, radio, mode=mode, dh=dh, index=m)
        directions.append(omp_direction(residuals[m], w_list[m], dic, path=path))
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
            layout.reference_xy, varphis,
            bounds=((-slack, region.size_x + slack), (-slack, region.size_y + slack)),
        )
        position = np.array([fix.position[0], fix.position[1], config.fixed_height])
        signs, flags = fix.signs, fix.flags
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
    b = path_vector(layout.pa_positions, position, radio, kind, user=user)
    for m, b_m in enumerate(b.reshape(layout.m, layout.pas_per_subarray)):
        yield b_m, amp * (w_list[m] @ b_m)


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


def arbitrate(iterates, kind, user, layout, radio, w_list, residuals, amp) -> tuple[Iterate, float]:
    """Stage 3: the iterate with the largest refit gain, and that gain; ties keep the earliest.

    Near-degenerate sign basins make the refinement oscillate between
    mirror-like fixes of almost equal bearing cost; in the measurement
    domain the candidates differ sharply.
    """
    best_gain, chosen = None, None
    for cand in iterates:
        g = _refit_gain(cand.position, kind, user, layout, radio, w_list, residuals, amp)
        if best_gain is None or g > best_gain * (1.0 + GAIN_TIE_REL):
            best_gain, chosen = g, cand
    return chosen, best_gain


def polish(position, gain, kind, user, layout, radio, w_list, residuals, amp, box) -> np.ndarray:
    """Stage 4: coordinate pattern search maximizing the refit gain near a fix.

    The fused position inherits the angular quantization of the far
    subarrays; a target close to one subarray needs finer range accuracy
    than that to reconstruct its dominant channel. The search moves one
    coordinate at a time inside ``box`` (None entries are frozen), halves
    the step on failure, and only accepts strict improvements, so exact
    mirror ties leave the input unchanged. ``gain`` is the refit gain at
    ``position``, as arbitrate returns it.
    """
    q = np.asarray(position, dtype=float).copy()
    best = gain
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
    Returns the per-subarray gains and the (M, N) channel-domain
    components with the gain applied; ``residuals`` is updated in place.
    """
    coeffs = np.zeros(layout.m, dtype=complex)
    components = np.zeros((layout.m, layout.pas_per_subarray), dtype=complex)
    for m, (b, t) in enumerate(_path_templates(position, kind, user, layout, radio, w_list, amp)):
        denom = float(np.vdot(t, t).real)
        c = complex(np.vdot(t, residuals[m]) / denom) if denom > 0.0 else 0.0
        residuals[m] = residuals[m] - c * t
        coeffs[m] = c
        components[m] = c * b
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
    once the fix moves less than MOVE_TOL), then runs arbitrate, polish
    and peel. Reported angles and signs belong to the arbitrated iterate,
    and each path's trace records every iterate and the polished
    position. A path whose mean dictionary coefficient magnitude falls
    below COEFF_FLOOR times the first path's is reported absent and
    extraction stops.
    """
    if measurements.m != layout.m:
        raise ValueError("measurement set does not match the layout")
    region = config.region
    grid = AngleGrid.uniform_cosine(config.g_theta)
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
            trace.append({
                "iteration": it,
                "varphis": iterate.varphis.tolist(),
                "signs": None if iterate.signs is None else iterate.signs.tolist(),
                "position": iterate.position.tolist(),
                "anchor_distances": r_anchor.tolist(),
            })
            if moved < MOVE_TOL:
                break

        chosen, gain = arbitrate(iterates, kind, user, layout, radio, w, residuals, amp)
        strength = float(np.mean([abs(d.coefficient) for d in chosen.directions]))
        absent = l > 0 and strength < COEFF_FLOOR * ref_strength
        position = chosen.position
        if absent:
            coeffs = np.zeros(layout.m, dtype=complex)
            components = np.zeros((layout.m, layout.pas_per_subarray), dtype=complex)
        else:
            position = polish(position, gain, kind, user, layout, radio, w, residuals, amp, box)
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

    channels = sum((p.components for p in paths if not p.absent),
                   np.zeros((layout.m, layout.pas_per_subarray), dtype=complex))
    return EstimationResult(paths=paths, channels=channels, flags=tuple(sorted(global_flags)))


def reconstruct_channel(positions, pa_positions, radio: RadioConfig) -> np.ndarray:
    """Channel at arbitrary PA coordinates from estimated path positions.

    positions is (K, 3) with the user first; scattered legs reuse the
    estimated user position, so reconstruction needs geometry only. This
    is the hook for evaluating candidate PA placements that never
    transmitted a pilot.
    """
    return channel_vector(point_responses(pa_positions, positions, radio))


def polar_dictionary(
    layout: ArrayLayout, radio: RadioConfig, config: EstimatorConfig, rings
) -> DpDictionary:
    """Joint ring x angle atoms of a single-subarray layout at the config's grid.

    The atoms are scene-independent, so a caller running many trials
    builds them once; harness.nf_dictionary builds the nf scenario's.
    """
    # Looked up at call time so that a wrapper installed on
    # passloc.dictionary (benchmarks/tracing.py) also sees this build.
    from .dictionary import build_polar_dictionary

    grid = AngleGrid.uniform_cosine(config.g_theta)
    dh = config.region.h_pa - config.fixed_height
    return build_polar_dictionary(layout.subarrays[0], radio, grid, rings, mode="2d", dh=dh,
                                  index=0)


def run_polar_baseline(
    measurements: MeasurementSet,
    layout: ArrayLayout,
    radio: RadioConfig,
    config: EstimatorConfig,
    dictionary: DpDictionary,
) -> EstimationResult:
    """Single-array matching over a joint (distance ring, angle) grid.

    Classic greedy pursuit with joint least squares over the selected
    columns. Positions are read off the winning atoms; with one linear
    array the lateral sign is unobservable, so the negative-y side is
    reported by convention (matching the sign enumerator's tie order) and
    the result is flagged ambiguous. Channels are rebuilt from the
    selected atoms themselves, which keeps the reconstruction on the
    measurement manifold even when the surrogate position is off.

    ``dictionary`` comes from polar_dictionary and must match the layout's
    single subarray.
    """
    if layout.m != 1:
        raise ValueError("polar baseline expects a single-subarray layout")
    dic, w = dictionary, measurements.w[0]
    y = measurements.y[0].astype(complex)
    residual = y.copy()
    ref_xy = layout.reference_xy[0]

    energy = atom_energies(w, dic)  # one projection serves every path
    support: list[int] = []
    dir_ests: list[DirectionEstimate] = []
    ref_strength = None
    flags = {"ambiguous", "under-determined"}
    for l in range(config.num_paths):
        de = omp_direction(residual, w, dic, path=l, energy=energy)
        strength = abs(de.coefficient)
        if l == 0:
            ref_strength = strength
        elif ref_strength is not None and strength < COEFF_FLOOR * ref_strength:
            flags.add("path-absent")
            break
        support.append(de.grid_index)
        dir_ests.append(de)
        raw = w @ dic.atoms[:, support]
        coeffs, *_ = np.linalg.lstsq(raw, y, rcond=None)
        residual = y - raw @ coeffs

    paths = []
    channel = np.zeros(layout.pas_per_subarray, dtype=complex)
    for l, (g, de) in enumerate(zip(support, dir_ests)):
        r = float(dic.ring_distances[g])
        cos = float(dic.cosines[g])
        lat = np.sqrt(max(0.0, 1.0 - cos * cos))
        position = np.array([ref_xy[0] + r * cos, ref_xy[1] - r * lat, config.fixed_height])
        comp = coeffs[l] * dic.atoms[:, g]
        channel = channel + comp
        r_su = None
        if l > 0:
            r_su = float(np.linalg.norm(position - paths[0].position))
        paths.append(PathEstimateResult(
            path=l, position=position, distances=np.array([r]),
            varphis=np.array([cos]), signs=np.array([-1.0]),
            coefficients=np.array([coeffs[l]]), components=comp[None, :],
            scatter_user_distance=r_su, flags=tuple(sorted(flags)),
            directions=[de],
        ))
    if not paths:
        raise ValueError("baseline extracted no path")
    return EstimationResult(paths=paths, channels=channel[None, :], flags=tuple(sorted(flags)))
