"""Greedy direction estimation and geometry-consistent localization.

Per path, each subarray scores its angle dictionary against the current
measurement residual and reports a direction cosine. The cosines are
fused into a single position: in planar mode by scoring the lateral sign
vectors a fix can be consistent with (one per y-band between the anchor
heights), each a projection least-squares problem solved in closed
form, in full-3D mode by fitting the quadric that links squared height
gap, lateral offset, and axial offset. The dictionary anchor distance is
then refreshed from the fused position and the loop repeats. A converged
path is rebuilt as a spherical-wave component, its complex gain refit by
least squares, and peeled from the measurements (estimate_path) before
run_omp_gcl extracts the next path.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from itertools import product

import numpy as np

from .channel import MeasurementSet, RadioConfig, measurement_matrix, path_vector, waveguide_vector
from .dictionary import (
    PHASE_ATOMS_ERROR,
    AngleGrid,
    DictionaryError,
    DpDictionary,
    build_dp_dictionary,
    phase_atoms,
    polar_columns,
    project_dictionary,  # unused here; benchmarks/tracing.py rebinds it as an estimator name
)
from .geometry import ArrayLayout, ServiceRegion, SubarrayGeometry, pa_user_distance

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

    @property
    def grid(self) -> AngleGrid:
        return AngleGrid.uniform_cosine(self.g_theta)

    @property
    def dh(self) -> float:
        """Height gap the dictionaries carry; a 3-D slant distance already holds it, so 0 there."""
        return self.region.h_pa - self.fixed_height if self.mode == "2d" else 0.0


@dataclass(frozen=True)
class DirectionEstimate:
    """Best dictionary column for one subarray against one residual, and how many were scored.

    columns_redone counts the columns the certificate scored again in
    float64 (certified_picks, and extract_directions' refine cut); a match
    whose columns' own float64 scores decide leaves it 0.
    """

    varphi: float
    grid_index: int
    coefficient: complex
    correlation: float
    low_confidence: bool = False
    columns_scored: int = 0
    columns_redone: int = 0


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


def measured_gram(w: np.ndarray) -> np.ndarray:
    """W^H W, the N x N Gram matrix atom_energies reads."""
    return w.conj().T @ w


def atom_energies(w: np.ndarray, dictionary: DpDictionary, gram=None) -> np.ndarray:
    """The measured energies ||W a_g||^2 of a dictionary's N x G atoms under T x N W.

    They come from the Gram form Re(a_g^H (W^H W) a_g), N^2 G multiply-adds.
    ``gram`` is measured_gram(w), formed here when not given; W is fixed per
    subarray for a whole trial, so a caller matching many dictionaries forms it once.
    """
    gram = measured_gram(w) if gram is None else gram
    return _gram_energies(_atom_rows(dictionary), gram)


def _atom_rows(dictionary: DpDictionary) -> np.ndarray:
    """The atoms as complex128 rows a_g^T: a view of built float64 atoms, a copy of a screen's."""
    return np.ascontiguousarray(dictionary.atoms.T, dtype=complex)


def _gram_energies(at: np.ndarray, gram: np.ndarray) -> np.ndarray:
    # Row g of at is a_g^T and row g of at @ (W^H W)^T is (W^H W a_g)^T, so
    # the dot product of the two rows as real (re, im) pairs is the energy.
    return np.einsum("gk,gk->g", at.view(float), (at @ gram.T).view(float))


def _scores(y_res, w, dictionary: DpDictionary, gram=None) -> tuple:
    """Per column: the score |<W a_g, y>| / ||W a_g||, the correlation a_g^H W^H y and the energy.

    They are float64 whatever the atoms' precision: a screen's complex64
    atoms are widened first.
    """
    _check_match(y_res, w, dictionary.atoms.shape[0])
    energy = atom_energies(w, dictionary, gram)
    corr = (_atom_rows(dictionary) @ _steering(y_res, w)).conj()  # a_g^H W^H y
    return _score(corr, energy), corr, energy


def _check_match(y_res, w, n: int) -> None:
    if w.ndim != 2 or w.shape[1] != n:
        raise ValueError("measurement matrix width must match the element count")
    if w.shape[0] != y_res.shape[0]:
        raise ValueError("residual length does not match the measurement rows")


def _steering(y_res, w) -> np.ndarray:
    """conj(W^H y), which every column's correlation a_g^H W^H y reads."""
    return (w.conj().T @ y_res).conj()


def _score(corr, energy) -> np.ndarray:
    """|corr| / sqrt(energy) per column; a column W annihilates (zero energy) scores -1."""
    valid = energy > 0.0
    return np.where(valid, np.abs(corr) / np.sqrt(np.where(valid, energy, 1.0)), -1.0)


def _pick(y_res, index, score, corr, energy, cosines) -> DirectionEstimate:
    """The first best-scoring column; ``index`` gives its grid_index."""
    g = int(np.argmax(score))
    if score[g] < 0.0:
        raise DictionaryError("measurement matrix annihilated every atom")
    low = score[g] <= 1e-8 * max(float(np.linalg.norm(y_res)), 1e-300)
    return DirectionEstimate(
        varphi=float(cosines[g]),
        grid_index=int(index[g]),
        coefficient=complex(corr[g] / energy[g]),
        correlation=float(score[g]),
        low_confidence=bool(low),
        columns_scored=len(index),
    )


def omp_direction(y_res: np.ndarray, w: np.ndarray, dictionary: DpDictionary) -> DirectionEstimate:
    """The atom a_g whose measured column W a_g best matches the residual y.

    Scores |<W a_g, y>| / ||W a_g|| with the correlation a_g^H (W^H y) and
    reports the single-column least-squares coefficient a_g^H W^H y / ||W a_g||^2.
    The energies ||W a_g||^2 are atom_energies(w, dictionary).
    Zero-energy columns are never picked, ties go to the first maximum, and
    grid_index counts the built dictionary's columns.
    """
    score, corr, energy = _scores(y_res, w, dictionary)
    return _pick(y_res, range(dictionary.g), score, corr, energy, dictionary.cosines)


# A screen score is within SCREEN_ERROR, times the best float64 score among the columns screened
# with it, of the column's float64 score, when the activation bits A have rank 2 or more. With
# rank 1 (one slot, or every slot the same bits; _tied_pilots) every column scores the same, a
# tie at any precision, and a refit's residual scores rounding noise: flagged "tied-pilots".
# Two screens read this bound:
# - the nf polar screen, float32 products of float32 guided atoms (activation_energies,
#   bit_correlations). Its observed worst at the sweep size is 7e-7, near sqrt(N) 2^-24 = 5.8e-7
#   for N = 96 (a float32 dot product's random-walk rounding); small configs exceed the bound
#   (1.3e-5 at N = 4, T = 2), so its certificate also reads a rigorous bound per column
#   (_polar_screen_error).
# - OMP-GCL's screen, phase_atoms' complex64 columns scored in float64 (extract_directions). Its
#   only error is the atoms': a score s_j moves by at most dictionary.PHASE_ATOMS_ERROR kappa_j
#   (||r|| + s_j), kappa_j = ||W|| ||a_j|| / ||W a_j||, which is below SCREEN_ERROR times the best
#   score S wherever kappa_j (1 + ||r|| / S) <= 10. Its observed worst at the sweep sizes is 3.8e-7;
#   a degenerate grid can exceed the bound (N = 2, G = 2, a column its own refit zeroed: 2e-5),
#   so its certificate also reads a rigorous bound per column (_screen_error).
# tests/test_estimator.py checks the bound at both screens' sweep sizes and each per-column bound
# on random configs.
SCREEN_ERROR = 1e-5
CERTIFY_TAU = 1e-4  # a column screening this close to a float64 decision's boundary is redone


def _screen_error(norm2, energy, score, w_norm, r_norm) -> np.ndarray:
    """A bound e_j on |s~_j - s_j| for the screen scores s~_j of phase_atoms' columns a~_j.

    ``norm2`` holds ||a~_j||^2 and ``energy`` ||W a~_j||^2;
    w_norm is ||W||_F and r_norm ||r||. Every element of a~_j is within
    e = PHASE_ATOMS_ERROR of the float64 atom a_j's, so ||W (a~_j - a_j)||
    <= e ||W||_2 ||a_j||, with ||a_j|| <= ||a~_j|| / (1 - e) and ||W||_2 <=
    ||W||_F. The score of W a~_j, perturbed by that much, gives
    e_j = e k_j (||r|| + s~_j) / (1 - e (1 + k_j)),
    k_j = ||W||_F ||a~_j|| / ||W a~_j||, on both sides. A column with no
    bound (zero energy, or e (1 + k_j) >= 1) gets inf. Float64 rounding of
    the scores is some 1e-16 ||r||, far inside e_j >= e ||r||.
    """
    live = energy > 0.0
    kappa = w_norm * np.sqrt(norm2 / np.where(live, energy, 1.0))
    den = 1.0 - PHASE_ATOMS_ERROR * (1.0 + kappa)
    bounded = live & (den > 0.0)
    return np.where(bounded, PHASE_ATOMS_ERROR * kappa * (r_norm + score)
                    / np.where(bounded, den, 1.0), np.inf)


def _certified_best(screen: np.ndarray, error, bounds, redo) -> tuple:
    """Per segment of screened columns, every column that can score its float64 best, redone.

    The flat arrays hold segments bounds[i]:bounds[i + 1], none empty, and
    ``redo(k)`` gives the float64 (score, corr, energy) of the columns at
    flat positions k. A segment's column is redone when it screens at least
    (1 - CERTIFY_TAU) times the segment's best screen score, or when its
    screen score plus its error bound (_screen_error, _polar_screen_error;
    0 for a screen that has none) reaches the segment's largest screen
    score minus its bound.
    When the best float64 score among them, s*, is below the best screen
    score, the segment's set grows by every column screening at least
    (1 - CERTIFY_TAU) s* (a screen score far above its float64 one,
    outside its bound, only costs redone columns). The float64 best column
    scores S >= s*. The screen scores it at least (1 - SCREEN_ERROR) S, so
    with SCREEN_ERROR < CERTIFY_TAU it is redone, and so is every column
    that ties it; and under an error bound, its screen score plus its bound
    is at least S, which is at least every column's screen score minus its
    bound. The thresholds are float64 and hold for s* <= 0 too. Returns the
    flat positions k, in order, redo(k), per segment the number of them
    and the redone count.
    """
    lengths = np.diff(bounds)
    top = np.maximum.reduceat(screen, bounds[:-1]).astype(float)
    floor = np.maximum.reduceat(screen - error, bounds[:-1])
    near = ((screen >= np.repeat(top - CERTIFY_TAU * np.abs(top), lengths))
            | (screen + error >= np.repeat(floor, lengths)))
    k = np.flatnonzero(near)
    redone = redo(k)
    sizes = np.bincount(np.searchsorted(bounds, k, "right") - 1, minlength=lengths.size)
    counts = sizes.copy()
    s_star = np.maximum.reduceat(redone[0], np.cumsum(sizes) - sizes)
    for i in np.flatnonzero(s_star < top)[::-1]:  # rare; from the last, so k's bounds hold
        seg = slice(bounds[i], bounds[i + 1])
        wider = near[seg] | (screen[seg] >= s_star[i] - CERTIFY_TAU * abs(s_star[i]))
        if wider.sum() > sizes[i]:
            at = np.searchsorted(k, bounds[i:i + 2])
            wide = bounds[i] + np.flatnonzero(wider)
            k = np.concatenate((k[:at[0]], wide, k[at[1]:]))
            redone = [np.concatenate((r[:at[0]], w, r[at[1]:]))
                      for r, w in zip(redone, redo(wide))]
            sizes[i], counts[i] = wide.size, counts[i] + wide.size  # both redos count
    return k, redone, sizes, counts


def certified_picks(residuals, screen: np.ndarray, error, bounds, redo, index,
                    cosines) -> list[DirectionEstimate]:
    """Per segment of screened columns, _pick's float64 choice: its first float64 maximum.

    Segment i holds the screen scores ``screen`` of the columns at flat
    positions bounds[i]:bounds[i + 1], at increasing grid indices ``index``
    with ``cosines``, matched against residuals[i]; ``error`` bounds each
    screen score's error (0 where the screen's own bound, SCREEN_ERROR,
    holds), and ``redo(k)`` gives the float64 (score, corr, energy) of the
    columns at flat positions k. _pick chooses among the columns
    _certified_best redoes, so each pick and its coefficient, correlation
    and low_confidence are float64 values. columns_scored counts a
    segment's screened columns, columns_redone its redone ones. Both
    estimators use it: run_polar_baseline with one segment and its redo
    redone_scores, extract_directions with one per subarray.
    """
    k, redone, sizes, counts = _certified_best(screen, error, bounds, redo)
    ends = np.cumsum(sizes)
    return [replace(_pick(y, index[k[a:b]], *(r[a:b] for r in redone), cosines[k[a:b]]),
                    columns_scored=int(n), columns_redone=int(c))
            for y, a, b, n, c in zip(residuals, ends - sizes, ends, np.diff(bounds), counts)]


REFINE_FRACTION = 0.5  # a coarse interval is refined when an end scores this share of the best


def coarse_columns(subarray: SubarrayGeometry, radio: RadioConfig, g: int) -> np.ndarray:
    """The columns extract_directions scores first on a g-column grid: every S-th, and the last.

    S = max(1, floor(g lambda / (8 N d))) is an eighth of the main lobe's
    null-to-null width 2 lambda / (N d) counted in steps of a uniform cosine
    grid, so a lobe's peak lies within S / 2 columns of a coarse column. It
    is 8 for N = 32 at half-wave spacing and g = 1024; S = 1 is the full grid.
    Every subarray of a layout shares N and d, so they share one array.
    """
    stride = max(1, int(g * radio.wavelength / (8.0 * subarray.n_pas * subarray.spacing)))
    idx = np.unique(np.append(np.arange(0, g, stride), g - 1))
    idx.setflags(write=False)  # one array serves every subarray and stage of a trial
    return idx


def _near_cut(score: np.ndarray, best) -> np.ndarray:
    """The coarse columns screening within CERTIFY_TAU best of the cut REFINE_FRACTION best."""
    return np.abs(score - REFINE_FRACTION * best) <= CERTIFY_TAU * abs(best)


def _cut_in_doubt(score: np.ndarray, error: np.ndarray) -> np.ndarray:
    """Per row of coarse screen scores, whether the screen may not decide the refine cut.

    It decides unless no score is positive, a column screens near the cut
    (_near_cut), or a column's error bound reaches across the cut's own
    range, REFINE_FRACTION times the best score's, from the largest score
    minus its bound to the largest plus its bound.
    """
    best = score.max(axis=-1, keepdims=True)
    lo, hi = (REFINE_FRACTION * (score + sign * error).max(axis=-1, keepdims=True)
              for sign in (-1.0, 1.0))
    across = (score + error >= lo) & (score - error < hi)
    return (best[..., 0] <= 0.0) | (_near_cut(score, best) | across).any(axis=-1)


def _certified_cut(score: np.ndarray, error: np.ndarray, redo) -> tuple:
    """The coarse scores the refine cut reads, their best and the number of columns redone.

    The best coarse score B is float64's (_certified_best), and so is every
    score near the cut at B: within CERTIFY_TAU B of it (_near_cut) or
    within the column's error bound. The screen decides only the columns
    farther from the cut: a column moves by at most its bound, and under
    the SCREEN_ERROR bound by less than CERTIFY_TAU B.
    """
    k, (exact, _, _), _, (count,) = _certified_best(score, error, np.array([0, score.size]), redo)
    best = exact.max()
    cut = _near_cut(score, best) | (np.abs(score - REFINE_FRACTION * best) <= error)
    cut[k] = False
    score = score.copy()
    score[k] = exact
    if cut.any():
        score[cut] = redo(np.flatnonzero(cut))[0]
    return score, best, count + int(cut.sum())


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
    axes give every row the bits of a one-row stack, so resolve_signs and
    solve_position_ls agree bit for bit.
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


def resolve_signs(refs_xy, varphis, bounds=None) -> PlanarFix:
    """Score the geometry-consistent lateral sign vectors; keep the lowest-cost one.

    Every guide runs along +x, so subarray m's lateral sign at a fix is
    sign(y - y_m) and the only self-consistent sign vectors are the
    y-bands: one below all anchor lines, one per gap between them, one
    above, where heights closer than COLLINEAR_TOL share a line. Cost is
    the projection least-squares objective plus the axial-consistency
    penalty, and exact ties keep the lower band. When ``bounds`` is given
    as ((x_lo, x_hi), (y_lo, y_hi)), fixes inside the box outrank all
    fixes outside it regardless of cost: biased bearings can create
    spurious low-cost line concurrences well outside the deployment area.

    On one guide line (ptp of the anchor heights below COLLINEAR_TOL) the
    two bands are exact mirrors of equal cost, so the upper fix is the
    reflection of the lower and the fix is the one at y <= y_0 unless the
    box excludes it; it is flagged "ambiguous". A single subarray is
    "under-determined" and a small lambda_min "ill-conditioned".
    """
    v = np.asarray(refs_xy, dtype=float).reshape(-1, 2)
    phis = np.asarray(varphis, dtype=float).reshape(-1)
    m = v.shape[0]
    if phis.shape[0] != m:
        raise ValueError("need one cosine per subarray")
    ys = v[:, 1]
    collinear = np.ptp(ys) < COLLINEAR_TOL
    if collinear:
        signs = -np.ones((1, m))
    else:  # band k is +1 for the anchors on the k lowest lines
        levels = np.unique(ys)
        line = np.cumsum(np.diff(levels, prepend=levels[0]) >= COLLINEAR_TOL)
        rank = line[np.searchsorted(levels, ys)]
        signs = np.where(rank < np.arange(rank.max() + 2)[:, None], 1.0, -1.0)
    q, cost_ls, a = _fuse_candidates(v, phis, signs, LS_EPSILON)
    if collinear:  # the fix and its reflection, lower first
        pair = np.array([q[0], [q[0, 0], 2.0 * ys.min() - q[0, 1]]])
        order = np.argsort(pair[:, 1], kind="stable")
        signs, q = np.vstack([signs, -signs])[order], pair[order]
        cost_ls, a = np.repeat(cost_ls, 2), np.repeat(a, 2, axis=0)
    cost_pen = sign_consistency_penalty(q, v, phis)
    outside = np.zeros(len(q), dtype=bool)
    if bounds is not None:
        (x_lo, x_hi), (y_lo, y_hi) = bounds
        outside = ~((x_lo <= q[:, 0]) & (q[:, 0] <= x_hi) & (y_lo <= q[:, 1]) & (q[:, 1] <= y_hi))
    front = np.flatnonzero(outside == outside.min())
    i = front[np.argmin((cost_ls + cost_pen)[front])]
    lam_min = float(np.linalg.eigvalsh(a[i])[0])
    flags = (("under-determined", m == 1), ("ill-conditioned", lam_min < ILL_CONDITION_TOL),
             ("ambiguous", collinear))
    return PlanarFix(position=q[i], signs=signs[i], cost_ls=float(cost_ls[i]),
                     cost_penalty=float(cost_pen[i]), lambda_min=lam_min,
                     flags=tuple(name for name, fired in flags if fired))


def _quadric_cost(x, y, z, xm, ym, delta):
    res = z + (y - ym) ** 2 - delta * (x - xm) ** 2
    return res, float(np.sum(res * res))


def solve_position_3d(refs, varphis, bounds) -> Position3dFix:
    """Fuse slant-frame cosines into (x, y, height) for PAs at a common height.

    Each cosine pins a cone around the guide axis; writing z for the
    squared height gap, the cone becomes the quadric
    z + (y - y_m)^2 = (1/cos^2 - 1) * (x - x_m)^2. The solver scans a
    QUADRIC_GRID x QUADRIC_GRID (x, y) grid with the closed-form optimal
    z, then polishes with at most QUADRIC_MAX_ITERS damped Gauss-Newton
    steps in (x, y, z >= 0); ``bounds`` ((x_lo, x_hi), (y_lo, y_hi)) spans
    the scan grid. Height is h_pa - sqrt(z), clamped to [0, h_pa].
    On one guide line the fix is the mirror on the y <= y_0 side unless
    the box's y range excludes it and admits the other.
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
    if np.ptp(ym) < COLLINEAR_TOL:  # the cost is even in y - y_0: resolve_signs' mirror rule
        flags.append("ambiguous")
        lower, upper = sorted((p[1], 2.0 * ym.min() - p[1]))
        p[1] = upper if not y_lo <= lower <= y_hi and y_lo <= upper <= y_hi else lower
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
POLISH_STEP = 0.16  # polish's coordinate move and its longest Newton step (m)
POLISH_MAX_EVALS = 160  # refit-slope calls per polish
POLISH_TOL = 1e-6  # polish stops once a step predicts less relative gain than this


@dataclass(frozen=True)
class Iterate:
    """One refinement step of a path: its directions, the fix fused from them, and polish's box."""

    directions: list
    varphis: np.ndarray
    position: np.ndarray  # (3,)
    signs: np.ndarray | None  # None in 3-D mode
    flags: tuple[str, ...]
    box: tuple  # per coordinate (lo, hi), or None for a frozen one


def _anchor_distances(layout: ArrayLayout, point, mode: str, floor: float = MIN_ANCHOR_DISTANCE):
    """Range from every reference to ``point`` (horizontal in planar mode), floored."""
    refs = layout.reference_positions
    if mode == "2d":
        r = np.hypot(refs[:, 0] - point[0], refs[:, 1] - point[1])
    else:
        r = np.linalg.norm(refs - point[None, :], axis=1)
    return np.maximum(r, floor)


def _start_distances(layout: ArrayLayout, config: EstimatorConfig) -> np.ndarray:
    """Anchor distances of every path's first iteration: to the region center.

    They are floored so that a reference placed at the center stays usable.
    """
    h_lo, h_hi = config.region.h_range
    center = np.array([*config.region.center, 0.5 * (h_lo + h_hi)])
    return _anchor_distances(layout, center, config.mode, MIN_ANCHOR_INIT)


def start_dictionaries(layout: ArrayLayout, radio: RadioConfig,
                       config: EstimatorConfig) -> list[DpDictionary]:
    """Each subarray's dictionary for the first iteration of every path.

    Their atoms depend only on the layout and the config, never on the
    scene, so a caller running many trials builds them once. One read-only
    dictionary is built per distinct (n_pas, spacing, start distance) and
    shared by the subarrays that have it.
    """
    r_start = _start_distances(layout, config)
    built, start = {}, []
    for m, sub in enumerate(layout.subarrays):
        key = (sub.n_pas, sub.spacing, float(r_start[m]))
        if key not in built:
            built[key] = build_dp_dictionary(sub, key[2], config.grid, radio, dh=config.dh)
            built[key].atoms.setflags(write=False)
        start.append(built[key])
    return start


def extract_directions(w_list, residuals, grams, coarse, subarray: SubarrayGeometry,
                       radio: RadioConfig, config: EstimatorConfig, start=None,
                       r_anchor=None) -> list:
    """Stage 1: for every subarray at once, the grid column that best matches its residual.

    Subarray m matches residuals[m] through w_list[m], with Gram matrix
    grams[m] (measured_gram; grams is (M, N, N)), on config.grid, and
    every subarray shares ``subarray``'s N and spacing. Its columns are
    start[m]'s (start_dictionaries), whose float64 scores decide, or, at
    the anchor distance r_anchor[m], phase_atoms' complex64 screen with a
    float64 certificate. Each stage builds every subarray's columns in one
    phase_atoms call, then widens and scores subarray m's slice with W_m's
    own products, of the shapes a one-subarray match has, so each score has
    the bits it has alone; the slices are widened one at a time, which keeps
    the stage's temporaries small. The stages:
    - coarse: the ``coarse`` columns (coarse_columns: increasing, from 0 to
      the grid's last column), the same for every subarray;
    - refine: every column strictly between two neighbouring coarse
      columns of which one scores at least REFINE_FRACTION of the best
      coarse score, or every column when no coarse score is positive.
    The pick is the first maximum over the scored columns in grid order:
    omp_direction's pick on the full grid whenever that lies in a refined
    interval, as a main lobe's peak does. Its grid_index counts the grid's
    columns and columns_scored the columns both stages scored.

    With r_anchor both decisions are the float64 ones:
    - the refine cut: the screen decides unless _cut_in_doubt, and then
      _certified_cut redoes every coarse column the cut could turn on;
    - the pick: certified_picks, every subarray's redone columns built in
      one build_dp_dictionary call with one distance per column.
    columns_redone counts both stages' redone columns.
    """
    m, values, dh = len(residuals), config.grid.values, config.dh
    for y, w in zip(residuals, w_list):
        _check_match(y, w, subarray.n_pas)
    steering = np.stack([_steering(y, w) for y, w in zip(residuals, w_list)])  # (M, N)

    def matched(sub, rows):
        """Flat (score, corr, energy) of columns grouped by subarray, sub[j] being column j's:
        rows(i, a, b) are the atom rows of subarray i's columns a:b, scored by its products."""
        sizes = np.bincount(sub, minlength=m)
        ends = np.cumsum(sizes)
        energy, corr = np.empty(sub.size), np.empty(sub.size, dtype=complex)
        for i in np.flatnonzero(sizes):
            a, b = ends[i] - sizes[i], ends[i]
            at = rows(i, a, b)
            energy[a:b] = _gram_energies(at, grams[i])
            np.matmul(at, steering[i], out=corr[a:b])
        np.conjugate(corr, out=corr)  # a_g^H W^H y
        return [_score(corr, energy), corr, energy]

    def scored(sub, idx):
        """matched of the grid columns idx[j] of subarrays sub[j]: start's float64 columns, or
        phase_atoms' screen of all of them, built in one call, with its error bounds."""
        if start is not None:
            return matched(sub, lambda i, a, b: start[i].atoms.T[idx[a:b]])
        if not idx.size:
            return [np.empty(0), np.empty(0, dtype=complex), np.empty(0), np.empty(0)]
        built = phase_atoms(subarray, radio, values[idx], r_anchor[sub], dh)
        columns = matched(sub, lambda i, a, b: np.ascontiguousarray(built[:, a:b].T, dtype=complex))
        parts = built.view(np.float32)  # ||a~_j||^2, each (re, im) squared exactly in float64
        norm2 = np.einsum("nk,nk->k", parts, parts, dtype=float).reshape(-1, 2).sum(axis=1)
        return columns + [_screen_error(norm2, columns[2], columns[0], w_norm[sub], r_norm[sub])]

    def exact(sub, idx):
        """matched of the grid columns idx[j] of subarrays sub[j], built in float64 in one call."""
        rows = build_dp_dictionary(subarray, r_anchor[sub], values[idx], radio, dh=dh).atoms.T
        return matched(sub, lambda i, a, b: rows[a:b])

    if start is None:
        w_norm = np.sqrt(np.trace(grams, axis1=1, axis2=2).real)  # ||W||_F
        r_norm = np.array([np.linalg.norm(y) for y in residuals])
    sub, idx = np.repeat(np.arange(m), coarse.size), np.tile(coarse, m)
    columns = scored(sub, idx)
    score = columns[0].reshape(m, -1)
    best, redone = score.max(axis=1), np.zeros(m, dtype=int)
    if start is None:
        error = columns[3].reshape(m, -1)
        doubt = np.flatnonzero(_cut_in_doubt(score, error))
        screen, score = score, score.copy() if doubt.size else score
        for i in doubt:
            score[i], best[i], redone[i] = _certified_cut(
                screen[i], error[i], lambda k, i=i: exact(np.full(k.size, i), coarse[k]))

    hot = np.zeros((m, coarse.size + 2), dtype=bool)
    hot[:, 1:-1] = (score >= REFINE_FRACTION * best[:, None]) | (best <= 0.0)[:, None]
    rest = np.ones(coarse[-1] + 1, dtype=bool)
    rest[coarse] = False
    rest = np.flatnonzero(rest)
    above = np.searchsorted(coarse, rest)  # a column's coarse neighbours are above - 1, above
    fine = [rest[h[above] | h[above + 1]] for h in hot]
    fine_sub, fine_idx = np.repeat(np.arange(m), [f.size for f in fine]), np.concatenate(fine)
    refined = scored(fine_sub, fine_idx)
    sub, idx = np.concatenate((sub, fine_sub)), np.concatenate((idx, fine_idx))
    order = np.lexsort((idx, sub))  # by subarray, then in grid order
    sub, idx = sub[order], idx[order]
    columns = [np.concatenate(pair)[order] for pair in zip(columns, refined)]
    bounds = np.append(0, np.cumsum(np.bincount(sub, minlength=m)))
    if start is not None:
        return [_pick(y, idx[a:b], *(c[a:b] for c in columns), values[idx[a:b]])
                for y, a, b in zip(residuals, bounds[:-1], bounds[1:])]
    estimates = certified_picks(residuals, columns[0], columns[3], bounds,
                                lambda k: exact(sub[k], idx[k]), idx, values[idx])
    return [replace(de, columns_redone=de.columns_redone + int(n))
            for de, n in zip(estimates, redone)]


def fuse(directions, layout: ArrayLayout, config: EstimatorConfig) -> tuple[Iterate, np.ndarray]:
    """Stage 2: fuse the directions into one fix and refresh the anchor distances from it.

    Planar mode resolves the lateral signs (resolve_signs); 3-D mode fits
    the cone quadric (solve_position_3d). On one guide line a 3-D fit
    fixes only x and the radius around the line, so a height outside
    h_range moves into it along that circle, on the fix's side. The
    iterate carries polish's box: the region, plus h_range in 3-D, which
    for an ambiguous fix stops at the guide line on the fix's side.
    Returns the iterate and the anchor distances for the next dictionary
    build.
    """
    region = config.region
    y0 = layout.reference_xy[:, 1].min()
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
        (h_lo, h_hi), (x, y, h) = region.h_range, position
        if "ambiguous" in flags and not h_lo <= h <= h_hi:
            h_in = min(max(h, h_lo), h_hi)
            r2 = (y - y0) ** 2 + (region.h_pa - h) ** 2  # squared radius around the line
            lateral = np.sqrt(max(r2 - (region.h_pa - h_in) ** 2, 0.0))
            position = np.array([x, y0 + lateral if y > y0 else y0 - lateral, h_in])
    box = [(0.0, region.size_x), (0.0, region.size_y),
           None if config.mode == "2d" else region.h_range]
    if "ambiguous" in flags:  # one guide line: stay on the fix's side of it
        box[1] = (0.0, y0) if position[1] <= y0 else (y0, region.size_y)
    # Anchor distances are refreshed from the fix projected onto the region
    # box: targets live inside it, and an escaped intermediate fix would
    # collapse the distance of a nearby subarray and poison the next dictionary.
    anchor_point = position.copy()
    anchor_point[0] = min(max(anchor_point[0], 0.0), region.size_x)
    anchor_point[1] = min(max(anchor_point[1], 0.0), region.size_y)
    r_anchor = _anchor_distances(layout, anchor_point, config.mode)
    return Iterate(directions, varphis, position, signs, flags, tuple(box)), r_anchor


def _template_jacobian(position, dims, kind, user, layout, radio) -> np.ndarray:
    """Each subarray's path vector b_m at ``position``, then db_m/dp along the coordinates ``dims``.

    Returns [b, db] (M, N, 1 + len(dims)), with
    db_n/dp = -b_n (jk + 1/r_n) (p - pa_n) / r_n from one path_vector call
    and one computation of the PA ranges r_n.
    A scattered path's second leg is one complex factor common to every
    PA; its derivative is left out, because a per-subarray coefficient
    absorbs it and the refit gain does not depend on it.
    """
    pa = layout.pa_positions.reshape(-1, 3)
    r = pa_user_distance(pa, position)
    bd = np.empty((len(pa), 1 + len(dims)), dtype=complex)
    bd[:, 0] = b = path_vector(pa, position, radio, kind, user=user, ranges=r)
    if dims:
        offset = np.asarray(position, dtype=float)[dims] - pa[:, dims]
        bd[:, 1:] = -(b * (1j * radio.wavenumber + 1.0 / r) / r)[:, None] * offset
    return bd.reshape(layout.m, layout.pas_per_subarray, -1)


def rank_one_fit(position, kind, user, layout, radio, w_list, residuals) -> list[tuple]:
    """Per subarray, the least-squares fit of the path at ``position`` to the residual.

    Each entry is (b, t, c): the path vector b, its measured template
    t = W b and the coefficient c = <t, res> / ||t||^2 (0 when t = 0) that
    peel subtracts; refit_slope scores the same fit.
    """
    fits = []
    b = path_vector(layout.pa_positions, position, radio, kind, user=user)
    for w_m, b_m, res in zip(w_list, b.reshape(layout.m, layout.pas_per_subarray), residuals):
        t = w_m @ b_m
        den = float(np.vdot(t, t).real)
        fits.append((b_m, t, complex(np.vdot(t, res) / den) if den > 0.0 else 0j))
    return fits


def refit_slope(position, dims, kind, user, layout, radio, w_list, residuals) -> tuple:
    """The refit gain at ``position``, its gradient and its Gauss-Newton curvature along ``dims``.

    Per subarray, with the template t = W b, its derivative d = W db
    (_template_jacobian, one W @ [b, db] product), the Gram matrix of
    [t, d] and its products with res, s = t^H res and c = s / ||t||^2,
    the gain sums the energy |s|^2 / ||t||^2 that subtracting
    rank_one_fit's c t removes, the gradient sums
    2 Re(conj(c) d^H (res - c t)), and the curvature H sums
    2 |c|^2 Re(d^H P d), where P = I - t t^H / ||t||^2 projects out the
    template. H is the Gauss-Newton Hessian of the energy left after the
    fit: positive semidefinite, and the negative Hessian of the gain where
    the fit explains the residual. With no ``dims`` it is the gain alone.
    """
    bd = _template_jacobian(position, dims, kind, user, layout, radio)
    gain, grad, curv = 0.0, np.zeros(len(dims)), np.zeros((len(dims), len(dims)))
    for w_m, bd_m, res in zip(w_list, bd, residuals):
        td = w_m @ bd_m  # [t, d]
        td_h = td.conj().T
        gram, proj = td_h @ td, td_h @ res
        den = gram[0, 0].real
        if den == 0.0:  # no template, nothing fitted
            continue
        s = proj[0]
        gain += abs(s) ** 2 / den
        if dims:
            c, dt = s / den, gram[1:, 0]
            grad += 2.0 * (np.conj(c) * (proj[1:] - c * dt)).real
            curv += 2.0 * abs(c) ** 2 * (gram[1:, 1:] - dt[:, None] * dt.conj() / den).real
    return float(gain), grad, curv


def arbitrate(iterates, slope) -> tuple[Iterate, float]:
    """Stage 3: the iterate with the largest refit gain, and that gain; ties keep the earliest.

    The gain is slope(position, [])[0], refit_slope with no free
    coordinates. Near-degenerate sign basins make the refinement oscillate
    between mirror-like fixes of almost equal bearing cost; in the
    measurement domain the candidates differ sharply.
    """
    best_gain, chosen = None, None
    for cand in iterates:
        g = slope(cand.position, [])[0]
        if best_gain is None or g > best_gain * (1.0 + GAIN_TIE_REL):
            best_gain, chosen = g, cand
    return chosen, best_gain


def polish(position, slope, box) -> tuple[np.ndarray, dict]:
    """Stage 4: coordinate climb, then damped Gauss-Newton ascent on the refit gain near a fix.

    The fused position inherits the angular quantization of the far
    subarrays; a target close to one subarray needs finer range accuracy
    than that to reconstruct its dominant channel. ``slope(q, dims)``
    returns the gain at q with its gradient and Gauss-Newton curvature H
    along the free coordinates dims (refit_slope; the gain alone when dims
    is empty). The ascent starts from ``position`` clamped into ``box``
    (None entries are frozen) and scores it afresh. It first climbs in
    POLISH_STEP moves along one coordinate at a time, never straight back,
    while any move gains: a fix that starts on a side lobe of the gain, or
    in a dip of it at a face of the box, is carried over them. Then each
    step solves (H + mu I) s = grad with mu = |grad| / length, so no step
    is longer than length (POLISH_STEP, halved on each rejected step), and
    close to a peak, where H outweighs mu, s is the Newton step; mu also
    keeps the step off the null direction of H on one guide line, the
    circle around it. A coordinate on a face of the box whose gradient
    points out of it is held. Every move is clipped to the box and taken
    only if it strictly improves the gain, so exact mirror ties leave the
    start unchanged. The ascent stops when the step's predicted gain
    grad . s / 2 is below POLISH_TOL of the gain or after POLISH_MAX_EVALS
    slope calls. Returns the polished position and {"steps",
    "evaluations", "capped"}: the moves taken, the slope calls, and
    whether the call budget ran out.
    """
    dims = [d for d, b in enumerate(box) if b is not None]
    lo, hi = np.array([box[d] for d in dims], dtype=float).T
    q = np.asarray(position, dtype=float).copy()
    q[dims] = np.clip(q[dims], lo, hi)
    best, grad, curv = slope(q, dims)
    steps, evals, back = 0, 1, None
    climbing = True
    while climbing:
        climbing = False
        for i, delta in product(range(len(dims)), (POLISH_STEP, -POLISH_STEP)):
            cand = q.copy()
            cand[dims[i]] = min(max(q[dims[i]] + delta, lo[i]), hi[i])
            if cand[dims[i]] == q[dims[i]] or (i, delta) == back or evals == POLISH_MAX_EVALS:
                continue
            gain = slope(cand, [])[0]
            evals += 1
            if gain > best * (1.0 + GAIN_TIE_REL):
                q, best, steps, climbing, back = cand, gain, steps + 1, True, (i, -delta)
    if steps and evals < POLISH_MAX_EVALS:
        best, grad, curv = slope(q, dims)
        evals += 1
    length = POLISH_STEP
    while evals < POLISH_MAX_EVALS:
        # coordinates on a face of the box whose gradient points out of it stay put
        x = q[dims]
        free = ~(((x <= lo) & (grad < 0.0)) | ((x >= hi) & (grad > 0.0)))
        g, h = np.where(free, grad, 0.0), curv * np.outer(free, free)
        mu = float(np.sqrt(g @ g)) / length
        if mu == 0.0:
            break
        step = np.linalg.solve(h + mu * np.eye(len(dims)), g)
        if 0.5 * float(g @ step) <= abs(best) * POLISH_TOL:
            break
        cand = q.copy()
        cand[dims] = np.clip(x + step, lo, hi)
        scored = slope(cand, dims)
        evals += 1
        if scored[0] > best * (1.0 + GAIN_TIE_REL):
            q, (best, grad, curv), steps, length = cand, scored, steps + 1, POLISH_STEP
        else:
            length *= 0.5
    return q, {"steps": steps, "evaluations": evals, "capped": evals == POLISH_MAX_EVALS}


def peel(fits, residuals):
    """Stage 5: subtract each subarray's rank_one_fit from ``residuals`` in place.

    The fitted gain absorbs the common phase of the anchor-distance error.
    Returns the per-subarray gains and the (M, N) channel-domain
    components with the gain applied.
    """
    for m, (_, t, c) in enumerate(fits):
        residuals[m] = residuals[m] - c * t
    return (np.array([c for _, _, c in fits], dtype=complex),
            np.array([c * b for b, _, c in fits], dtype=complex))


def estimate_path(l, user, ref_strength, residuals, w_list, grams, coarse, start,
                  layout: ArrayLayout, radio: RadioConfig,
                  config: EstimatorConfig) -> tuple[PathEstimateResult, float]:
    """Path l of run_omp_gcl: refine, arbitrate and polish it, and peel it from ``residuals``.

    extract_directions and fuse alternate for up to max_outer_iters steps,
    stopping once the fix moves less than MOVE_TOL. Each iteration matches
    every subarray in one extract_directions call, against the stacked
    grams = measured_gram(w_list[m]) and the ``coarse`` columns; the first
    takes its columns from ``start``, whose float64 scores decide, later
    ones build only the columns they score, at the fused anchor distances,
    as a certified screen. arbitrate
    and polish read one refit slope (refit_slope), and peel subtracts
    rank_one_fit's fit of the same path model at the polished fix from
    ``residuals`` in place; a path l > 0 is scattered towards ``user``.
    Its strength is the arbitrated iterate's mean dictionary coefficient
    magnitude, and below COEFF_FLOOR times ``ref_strength`` a path l > 0 is
    absent: not polished, not peeled, and with zero gains and components.
    Angles and signs are the arbitrated iterate's. The trace records every
    iterate with the columns each subarray's match scored and redid, then
    the polished position with polish's moves, slope calls and whether it
    ran out of calls. Returns the path and its strength.
    """
    iterates, trace = [], []
    for it in range(config.max_outer_iters):
        stage = (w_list, residuals, grams, coarse, layout.subarrays[0], radio, config)
        if it == 0:
            directions = extract_directions(*stage, start=start)
        else:
            directions = extract_directions(*stage, r_anchor=r_anchor)
        iterate, r_anchor = fuse(directions, layout, config)
        moved = np.linalg.norm(iterate.position - iterates[-1].position) if iterates else np.inf
        iterates.append(iterate)
        trace.append({
            "iteration": it,
            "varphis": iterate.varphis.tolist(),
            "signs": None if iterate.signs is None else iterate.signs.tolist(),
            "position": iterate.position.tolist(),
            "anchor_distances": r_anchor.tolist(),
            "columns_scored": [d.columns_scored for d in directions],
            "columns_redone": [d.columns_redone for d in directions],
        })
        if moved < MOVE_TOL:
            break

    model = dict(kind="los" if l == 0 else "nlos", user=user, layout=layout, radio=radio,
                 w_list=w_list, residuals=residuals)
    slope = partial(refit_slope, **model)
    chosen, _ = arbitrate(iterates, slope)
    strength = float(np.mean([abs(d.coefficient) for d in chosen.directions]))
    absent = l > 0 and strength < COEFF_FLOOR * ref_strength
    position = chosen.position
    if absent:
        coeffs = np.zeros(layout.m, dtype=complex)
        components = np.zeros((layout.m, layout.pas_per_subarray), dtype=complex)
    else:
        position, stats = polish(position, slope, chosen.box)
        trace.append({"polish": True, "position": position.tolist(), **stats})
        coeffs, components = peel(rank_one_fit(position, **model), residuals)
    return PathEstimateResult(
        path=l, position=position,
        distances=_anchor_distances(layout, position, config.mode),
        varphis=chosen.varphis.copy(),
        signs=None if chosen.signs is None else chosen.signs.copy(),
        coefficients=coeffs, components=components,
        scatter_user_distance=None if l == 0 or absent else pa_user_distance(position, user),
        flags=tuple(set(chosen.flags) | {"absent"}) if absent else chosen.flags,
        directions=chosen.directions, trace=trace, absent=absent,
    ), strength


def run_omp_gcl(
    measurements: MeasurementSet,
    layout: ArrayLayout,
    radio: RadioConfig,
    config: EstimatorConfig,
    start: list[DpDictionary],
) -> EstimationResult:
    """Joint multi-path localization and channel reconstruction.

    Paths are extracted strongest-first, one estimate_path call each,
    against W^H W formed once per subarray and trial and stacked, the one
    coarse_columns array every subarray shares (a layout's subarrays share
    N and spacing) and the columns of ``start``, the layout's
    start_dictionaries. Each outer iteration matches all M subarrays in one
    extract_directions stage. Path 0 is the user and sets
    the reference strength; extraction stops at the first absent path. A
    subarray with tied pilots (_tied_pilots) flags the result "tied-pilots".
    """
    if measurements.m != layout.m:
        raise ValueError("measurement set does not match the layout")
    if ([d.r_param for d in start] != _start_distances(layout, config).tolist()
            or any(d.g != config.g_theta for d in start)):
        raise ValueError("start dictionaries do not match the layout and config; "
                         "build them with start_dictionaries")
    residuals = [y.astype(complex).copy() for y in measurements.y]
    per_trial = dict(w_list=measurements.w,
                     grams=np.stack([measured_gram(w_m) for w_m in measurements.w]),
                     coarse=coarse_columns(layout.subarrays[0], radio, config.g_theta),
                     start=start, layout=layout, radio=radio, config=config)
    paths, user, ref_strength, global_flags = [], None, None, set()
    if any(_tied_pilots(w_m) for w_m in measurements.w):
        global_flags.add("tied-pilots")
    for l in range(config.num_paths):
        path, strength = estimate_path(l, user, ref_strength, residuals, **per_trial)
        paths.append(path)
        if path.absent:
            global_flags.add("path-absent")
            break
        global_flags.update(path.flags)
        if any(d.low_confidence for d in path.directions):
            global_flags.add("low-confidence")
        if l == 0:
            ref_strength, user = strength, path.position
    channels = sum((p.components for p in paths if not p.absent),
                   np.zeros((layout.m, layout.pas_per_subarray), dtype=complex))
    return EstimationResult(paths=paths, channels=channels, flags=tuple(sorted(global_flags)))


def _tied_pilots(w: np.ndarray) -> bool:
    """Whether W's observed activation rows (W != 0) are all one row, as with one slot.

    Such bits have rank 1 (two distinct nonzero 0/1 rows are independent),
    and every column then scores |sum_t y_t| / sqrt(T): a tie at any
    precision, broken by rounding.
    """
    bits = w != 0
    return bool((bits == bits[0]).all())


def _polar_dh(config: EstimatorConfig) -> float:
    """The polar baseline's height gap: it is planar even in a 3-D config, so not config.dh."""
    return config.region.h_pa - config.fixed_height


# The screen multiplies, and the certificate's float64 redo rebuilds, _COLUMN_BLOCK columns at a
# time: the screen's product, 0.5 MB at the nf sweep's size, stays in cache, and a redo of every
# column (tied pilots) builds 1.5 MB at a time, not the 25 MB float64 grid.
_COLUMN_BLOCK = 1024


def polar_dictionary(
    layout: ArrayLayout, radio: RadioConfig, config: EstimatorConfig, rings
) -> DpDictionary:
    """Guided joint ring x angle atoms of a single-subarray layout at the config's grid.

    The columns are build_polar_dictionary's, kept only as the guided
    atoms u_j = conj(g) * a_j, g = waveguide_vector's in-guide phases
    exp(j k n_eff x_n): phase_atoms writes them, with the extra path
    length n_eff x_n per element, straight into a (G, 2, N) float32 array
    of row pairs [Re u_j, Im u_j], so no copy of the whole grid is made.
    Stored atoms-major, a block of columns is one contiguous (2 G', N)
    matrix, the operand of the float32 screen (activation_energies,
    bit_correlations). guided_norms holds ||u_j||,
    which the screen's error bound reads (_polar_screen_error); atoms is
    None. certified_picks' redo rebuilds the columns it redoes in float64,
    and run_polar_baseline the channel-domain column of each pick, alone,
    with build_dp_dictionary. The atoms are scene-independent and every
    array is read-only, so one build serves every trial of a config;
    harness.scenario_atoms keeps the nf scenario's for the process.
    """
    sub = layout.subarrays[0]
    cosines, ring_distances = polar_columns(config.grid, rings)
    path = radio.n_eff * sub.pa_positions[:, 0]
    guided = phase_atoms(sub, radio, cosines, ring_distances, _polar_dh(config), path,
                         out=np.empty((cosines.size, 2, sub.n_pas), np.float32))
    norms = np.einsum("gkn,gkn->g", guided, guided, dtype=float)
    np.sqrt(norms, out=norms)
    for array in (cosines, ring_distances, guided, norms):
        array.setflags(write=False)
    return DpDictionary(r_param=float(ring_distances[0]), cosines=cosines, atoms=None,
                        ring_distances=ring_distances, guided=guided, guided_norms=norms)


def activation_energies(w: np.ndarray, dictionary: DpDictionary, subarray: SubarrayGeometry,
                        radio: RadioConfig, y: np.ndarray) -> tuple:
    """The float32 screen's energies ||W a_j||^2 and correlations a_j^H W^H y of polar_dictionary.

    Pilot rows are W = conj(A * g) (channel.measurement_matrix) for 0/1
    bits A and in-guide phases g, so W a_j = A u_j for the guided atoms
    u_j = conj(g) * a_j, and a_j^H W^H y = u_j^H (A^T y). Both come from
    one real product of the guided atoms with the rows of A, two real
    multiply-adds per entry where W a_j needs four, and two more rows, Re
    and Im of A^T y, formed in float64 and rounded to float32; the product
    runs in float32, one (2 G', N) block of _COLUMN_BLOCK atoms at a time
    (_bit_products). certified_picks turns the screen into the float64
    pick. A W that is not conj(A * g) for A = (W != 0) raises ValueError.
    """
    bits = w != 0
    if not np.array_equal(w, measurement_matrix(subarray, bits, radio)):
        raise ValueError("measurement matrix is not conj(A * g) for 0/1 activation rows A "
                         "and the subarray's waveguide phases g")
    rows = _activation_rows(bits, y).astype(dictionary.guided.dtype)
    energy = np.empty(dictionary.g, rows.dtype)
    corr = np.empty(dictionary.g, np.result_type(rows.dtype, np.complex64))
    for start in range(0, dictionary.g, _COLUMN_BLOCK):
        cols = slice(start, start + _COLUMN_BLOCK)
        energy[cols], corr[cols] = _bit_products(rows, dictionary.guided[cols])
    return energy, corr


def _activation_rows(bits: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The (T + 2, N) float64 rows: W's 0/1 activation bits A, then Re and Im of A^T r."""
    bits = bits.astype(float)
    v = bits.T @ r
    return np.vstack([bits, v.real, v.imag])


def _atom_products(rows: np.ndarray, guided: np.ndarray) -> np.ndarray:
    """(G, 2, R): the rows Re u_j, Im u_j of atoms stored as polar_dictionary's guided, (G, 2, N),
    times each of the R ``rows``, in the atoms' precision."""
    product = guided.reshape(-1, guided.shape[-1]) @ rows.T.astype(guided.dtype, copy=False)
    return product.reshape(len(guided), 2, len(rows))


def _bit_products(rows: np.ndarray, guided: np.ndarray) -> tuple:
    """Per guided atom u_j: ||A u_j||^2 and u_j^H v, from one product with rows [A; Re v; Im v]."""
    part = _atom_products(rows, guided)
    t = len(rows) - 2
    return np.einsum("gkt,gkt->g", part[..., :t], part[..., :t]), _paired_correlations(part[..., t:])


def _paired_correlations(part: np.ndarray) -> np.ndarray:
    """u_j^H v from the (G, 2, 2) products of the rows Re u_j, Im u_j with Re v, Im v."""
    return (part[:, 0, 0] + part[:, 1, 1]) + 1j * (part[:, 0, 1] - part[:, 1, 0])


def bit_correlations(w: np.ndarray, r: np.ndarray, dictionary: DpDictionary) -> np.ndarray:
    """The float32 screen's correlations a_j^H W^H r of polar_dictionary, through W's bits.

    They are u_j^H (A^T r) (activation_energies): one float32 product of
    the guided atoms with the rows Re and Im of the N-vector A^T r.
    """
    v = (w != 0).T.astype(float) @ r
    return _paired_correlations(_atom_products(np.vstack([v.real, v.imag]), dictionary.guided))


_U32 = 2.0 ** -24  # float32's unit roundoff


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u): a float32 dot product of length k, summed in any order, errs by
    at most gamma_k times the sum of its terms' magnitudes."""
    return k * _U32 / (1.0 - k * _U32)


def _polar_screen_error(bits: np.ndarray, r: np.ndarray, score: np.ndarray, energy: np.ndarray,
                        norms: np.ndarray) -> np.ndarray:
    """A bound e_j on |s~_j - s_j| for the nf screen's scores s~_j = _score(c~_j, E~_j).

    E~_j and c~_j are the float32 energies and correlations of the guided
    atoms u~_j (activation_energies, bit_correlations), whose norms are
    ``norms`` (polar_dictionary's guided_norms), for T x N activation bits
    A = ``bits`` and residual r; s_j is the score of the float64 atom u_j.
    With u = 2^-24, e = PHASE_ATOMS_ERROR, v = A^T r and ||A||_2 <= ||A||_F
    = sqrt(nnz A):
    - the atoms: ||u~_j - u_j|| <= e ||u_j|| <= e ||u~_j|| / (1 - e);
    - the energy product, x~_j = A u~_j from dot products of length N, is
      within gamma_N ||A||_2 ||u~_j|| of A u~_j, so ||x~_j|| is within
      d_j = ||A||_F ||u~_j|| (gamma_N + e / (1 - e)) of ||A u_j||;
    - its sum of 2T squares: E~_j = ||x~_j||^2 (1 + t), |t| <= gamma_2T;
    - the correlation: the rows Re v, Im v rounded to float32 (u ||v||),
      each of its parts the sum of two dot products of length N (gamma_{N+1}
      each, sqrt(2) gamma_{N+1} ||v~|| ||u~_j|| in all) and the atoms'
      error give |c~_j - c_j| <= q_j = ||u~_j|| ||v|| ((1 + u) (sqrt(2)
      gamma_{N+1} + e / (1 - e)) + u / (1 - e));
    - _score's float32 abs (2u), sqrt (u) and division (u) leave a factor
      within phi of 1.
    With X_j = sqrt(E~_j / (1 + gamma_2T)) <= ||x~_j||, k_j = d_j / X_j,
    p_j = q_j / X_j and s'_j = s~_j / (1 - phi) >= |c~_j| / ||x~_j||:
    e_j = phi s'_j + (p_j + k_j s'_j) / (1 - k_j), on both sides. A column
    with no bound (zero screen energy, or k_j >= 1) gets inf. Float64
    rounding, some N 2^-53 relative, lies far inside these terms; float32
    underflow, some 30 orders of magnitude below the pilots, is not
    covered.
    """
    t, n = bits.shape
    e, u = PHASE_ATOMS_ERROR, _U32
    atoms = e / (1.0 - e)
    c_k = np.sqrt(np.count_nonzero(bits)) * (_gamma(n) + atoms)  # k_j = c_k ||u~_j|| / X_j
    c_p = (np.linalg.norm(bits.T.astype(float) @ r)  # p_j = c_p ||u~_j|| / X_j
           * ((1.0 + u) * (np.sqrt(2.0) * _gamma(n + 1) + atoms) + u / (1.0 - e)))
    phi = (1.0 + 2.0 * u) * (1.0 + u) / ((1.0 - u) * np.sqrt(1.0 - _gamma(2 * t))) - 1.0
    with np.errstate(divide="ignore", invalid="ignore"):  # zero energy: inf, then k_j >= 1
        ratio = norms / np.sqrt(energy, dtype=float) * np.sqrt(1.0 + _gamma(2 * t))
        k = c_k * ratio
        s = np.divide(score, 1.0 - phi, dtype=float)
        bound = phi * s + ratio * (c_p + c_k * s) / (1.0 - k)
    return np.where(k < 1.0, bound, np.inf)


def redone_scores(w: np.ndarray, r: np.ndarray, dictionary: DpDictionary,
                  subarray: SubarrayGeometry, radio: RadioConfig, dh: float, idx) -> tuple:
    """float64 scores, correlations a_j^H W^H r and energies ||W a_j||^2 of polar columns idx.

    The columns are rebuilt in float64 by build_dp_dictionary, each at its
    ring's distance, _COLUMN_BLOCK columns per call, guided by conj(g) in
    complex128 and laid out as polar_dictionary's guided atoms are; their
    energies and correlations then come from the same product with the
    activation rows as activation_energies', in float64.
    """
    rows, guide = _activation_rows(w != 0, r), waveguide_vector(subarray, radio).conj()
    energy, corr = np.empty(len(idx)), np.empty(len(idx), dtype=complex)
    for a in range(0, len(idx), _COLUMN_BLOCK):
        k = idx[a:a + _COLUMN_BLOCK]
        u = np.multiply(guide, build_dp_dictionary(subarray, dictionary.ring_distances[k],
                                                   dictionary.cosines[k], radio, dh=dh).atoms.T)
        block = slice(a, a + len(k))
        energy[block], corr[block] = _bit_products(rows, np.stack((u.real, u.imag), axis=1))
    return _score(corr, energy), corr, energy


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
    reported by convention (resolve_signs' single-line mirror rule) and
    the result is flagged ambiguous. Channels are rebuilt from the
    selected atoms themselves, which keeps the reconstruction on the
    measurement manifold even when the surrogate position is off.

    ``dictionary`` comes from polar_dictionary and must match the layout's
    single subarray. Every column is screened in float32 from the guided
    atoms and the activation bits: the energies and path 0's correlations
    from one product per trial (activation_energies, which rejects a W
    that is not conj(A * g)), a later path's correlations from
    bit_correlations. certified_picks, reading each column's error bound
    (_polar_screen_error) and redoing columns with redone_scores, turns
    each screen into the pick of _score and _pick on float64 scores, and
    records how many columns it redid. The least-squares refit and the
    channels use each picked column in the channel domain, rebuilt alone by
    build_dp_dictionary. Tied pilots (_tied_pilots) flag "tied-pilots".
    """
    if layout.m != 1:
        raise ValueError("polar baseline expects a single-subarray layout")
    dic, w, sub, dh = dictionary, measurements.w[0], layout.subarrays[0], _polar_dh(config)
    y = measurements.y[0].astype(complex)
    residual = y
    ref_xy = layout.reference_xy[0]

    if dic.guided is None:
        raise ValueError("polar baseline needs polar_dictionary's guided atoms")
    energy, corr = activation_energies(w, dic, sub, radio, y)  # energies serve every path
    picked = np.empty((sub.n_pas, config.num_paths), dtype=complex, order="F")
    dir_ests: list[DirectionEstimate] = []
    flags = {"ambiguous", "under-determined"} | ({"tied-pilots"} if _tied_pilots(w) else set())
    for l in range(config.num_paths):
        if l > 0:
            corr = bit_correlations(w, residual, dic)
        screen = _score(corr, energy)
        error = _polar_screen_error(w != 0, residual, screen, energy, dic.guided_norms)
        de, = certified_picks([residual], screen, error, np.array([0, dic.g]),
                              partial(redone_scores, w, residual, dic, sub, radio, dh),
                              np.arange(dic.g), dic.cosines)
        strength = abs(de.coefficient)
        if l == 0:
            ref_strength = strength
        elif strength < COEFF_FLOOR * ref_strength:
            flags.add("path-absent")
            break
        dir_ests.append(de)
        j = de.grid_index
        picked[:, l] = build_dp_dictionary(sub, float(dic.ring_distances[j]), dic.cosines[[j]],
                                           radio, dh=dh).atoms[:, 0]
        raw = w @ picked[:, :l + 1]
        coeffs, *_ = np.linalg.lstsq(raw, y, rcond=None)
        residual = y - raw @ coeffs

    paths = []
    channel = np.zeros(layout.pas_per_subarray, dtype=complex)
    for l, de in enumerate(dir_ests):
        r = float(dic.ring_distances[de.grid_index])
        cos = de.varphi
        lat = np.sqrt(max(0.0, 1.0 - cos * cos))
        position = np.array([ref_xy[0] + r * cos, ref_xy[1] - r * lat, config.fixed_height])
        comp = coeffs[l] * picked[:, l]
        channel = channel + comp
        r_su = pa_user_distance(position, paths[0].position) if l > 0 else None
        paths.append(PathEstimateResult(
            path=l, position=position, distances=np.array([r]),
            varphis=np.array([cos]), signs=np.array([-1.0]),
            coefficients=np.array([coeffs[l]]), components=comp[None, :],
            scatter_user_distance=r_su, flags=tuple(sorted(flags)),
            directions=[de],
        ))
    return EstimationResult(paths=paths, channels=channel[None, :], flags=tuple(sorted(flags)))
