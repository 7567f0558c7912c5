"""Independent oracles the tests check the library against.

Everything here is implemented from first principles (finite differences,
explicit moment expansion, covariance-form Kalman algebra, exhaustive
assignment search) and deliberately avoids the code paths under test.  The
piecewise linearization builds the two measurement models one matrix product
at a time, from the shape-matrix row Jacobians, as the library did before it
moved to one Gram matrix per detection.  Detection sampling, node fusion and
the rectangle alignment error serve the tests only, so they live here too,
as do the generic innovation pair the piecewise linearization uses, the
converters between nested per-sensor batches and the flat detection layout,
the compact rows innovations linearizes at, and the helpers that view,
correct and predict copies of packed state rows, and as_cov, the symmetric
positive semidefinite check of the oracles' covariance inputs.  nees and its
chi-square band nees_bounds score filter consistency in the tests only; the
library's evaluate_run scores NEES itself.  metrics_csv_by_format is
the metrics.csv writer with one str.format field per value, the reference
for the library's % template.
reference_filter runs the whole filter from the paper's equations with plain
loops, one detection at a time, as the tolerance oracle of run_filter.  The
network checks have a breadth-first component search and the Wielandt power
of a weight matrix's support, taken exactly in float64.
"""

from itertools import permutations

import numpy as np

from eotnet import trackers
from eotnet._linalg import _from_entries, _matvec, spd_inv, sqrt_psd, sym
from eotnet.diagnostics import _mahalanobis
from eotnet.geometry import MIN_AXIS, shape_matrix, wrap_angle
from eotnet.info_filter import _columns, _position_columns, predict, to_moments
from eotnet.linearization import innovations
from eotnet.trackers import FilterKind


def as_cov(a, name: str = "covariance", *, tol: float = 1e-8) -> np.ndarray:
    """Validate a symmetric positive semidefinite matrix and return it symmetrized.

    Raises ValueError on shape, symmetry, or negative-eigenvalue violations.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    scale = max(1.0, float(np.abs(a).max()))
    if np.abs(a - a.T).max() > tol * scale:
        raise ValueError(f"{name} is not symmetric")
    w = np.linalg.eigvalsh(sym(a))
    if w[0] < -tol * scale:
        raise ValueError(f"{name} is not positive semidefinite (min eig {w[0]:.3e})")
    return sym(a)


def nees(est, cov, truth):
    """Normalized estimation error squared of one estimate, or of a stack
    (..., d) of estimates with covariances (..., d, d)."""
    e = np.asarray(est, dtype=float) - np.asarray(truth, dtype=float)
    return _mahalanobis(e, cov, "estimate covariance")


def nees_bounds(dim: int, runs: int, confidence: float = 0.95) -> tuple[float, float]:
    """Two-sided chi-square band for a run-averaged NEES: chi-square with
    dim*runs degrees of freedom, divided by the run count."""
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    from scipy.stats import chi2

    dof = dim * runs
    lo = chi2.ppf(0.5 * (1.0 - confidence), dof) / runs
    hi = chi2.ppf(0.5 * (1.0 + confidence), dof) / runs
    return float(lo), float(hi)


def innovation(a, v, z):
    """Innovation pair (A.T V z, A.T V A) for measurement z with model matrix A
    and noise information matrix V; stacks (..., m, d), (..., m, m), (..., m)
    give stacked pairs, and an unstacked A is shared by a stack of V and z."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    v = np.atleast_2d(np.asarray(v, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=float))
    m = a.shape[-2]
    if v.shape[-2:] != (m, m) or z.shape[-1] != m:
        raise ValueError(f"dimension mismatch: A {a.shape}, V {v.shape}, z {z.shape}")
    av = a.swapaxes(-1, -2) @ v
    return _matvec(av, z), sym(av @ a)


def fd_shape_jacobians(shape_fn, p_vec, step=1e-6):
    """Central finite differences of the two shape-matrix rows w.r.t.
    [alpha, l1, l2]; returns (J1, J2) with J_m[a, b] = dS[m, a] / dp[b]."""
    p_vec = np.asarray(p_vec, dtype=float)
    j = np.zeros((2, 2, 3))
    for b in range(3):
        hi = p_vec.copy()
        lo = p_vec.copy()
        hi[b] += step
        lo[b] -= step
        j[:, :, b] = (shape_fn(hi) - shape_fn(lo)) / (2.0 * step)
    return j[0], j[1]


def shape_row_jacobians(p):
    """Jacobians of the two rows of the shape matrix w.r.t. [alpha, l1, l2].

    Row m of the shape matrix is a function of the extent vector; J_m is the
    2x3 matrix with J_m[a, b] = d(S[m, a]) / d(p[b]).  With a multiplicative
    noise 2-vector h, the first-order perturbation of row m of S @ h is then
    h.T @ J_m @ dp.  A stack (..., 3) of extents gives stacks (..., 2, 3).
    """
    p = np.asarray(p, dtype=float)
    c, s = np.cos(p[..., 0]), np.sin(p[..., 0])
    l1, l2, z = p[..., 1], p[..., 2], np.zeros_like(c)
    j1 = _from_entries([[-l1 * s, c, z], [-l2 * c, z, -s]])
    j2 = _from_entries([[l1 * c, s, z], [-l2 * s, z, c]])
    return j1, j2


# The linearization one piece at a time: the oracle of eotnet.linearization's
# Gram-matrix innovations.  Every function except kinematic_noise_cov also
# takes a leading stack axis on its per-item arguments; ch is shared.


def kinematic_noise_cov(p_hat, cp, ch, cv):
    """Equivalent measurement noise covariance for the kinematic model.

    Sum of the shape-scattering term S Ch S.T, the extent-uncertainty term
    with entries trace(Cp J_n.T Ch J_m), and the additive sensor noise.
    """
    cp = as_cov(cp, "extent covariance")
    ch = as_cov(ch, "multiplicative noise covariance")
    cv = as_cov(cv, "measurement noise covariance")
    return sym(shape_noise(shape_matrix(p_hat), *shape_row_jacobians(p_hat), cp, ch) + cv)


def shape_noise(s_mat, j1, j2, cp, ch):
    """The extent's part of the kinematic measurement noise: the scattering
    term S Ch S.T plus the extent-uncertainty term trace(Cp J_n.T Ch J_m)."""
    jac = np.stack((j1, j2), axis=-3)  # J_m at [..., m, :, :]
    scatter = s_mat @ ch @ s_mat.swapaxes(-1, -2)
    # [..., m, n] holds Cp J_n.T Ch J_m.
    spread = (cp[..., None, None, :, :] @ jac.swapaxes(-1, -2)[..., None, :, :, :]
              @ ch @ jac[..., :, None, :, :])
    return scatter + np.trace(spread, axis1=-2, axis2=-1)


def residual_cov(cx, rx):
    """Covariance of the detection residual: H Cx H.T + Rx."""
    cx = np.asarray(cx, dtype=float)
    return sym(cx[..., :2, :2] + rx)


def pseudo_measurement(y, x_hat):
    """Quadratic statistic [d1^2, d2^2, d1 d2] of the residual d = y - H x_hat."""
    d = np.asarray(y, dtype=float) - np.asarray(x_hat, dtype=float)[..., :2]
    return np.stack([d[..., 0] ** 2, d[..., 1] ** 2, d[..., 0] * d[..., 1]], axis=-1)


def square_mean(cy):
    """Mean [c11, c22, c12] of the quadratic statistic of a zero-mean
    residual with covariance cy."""
    return np.stack([cy[..., 0, 0], cy[..., 1, 1], cy[..., 0, 1]], axis=-1)


def extent_measurement_matrix(p_hat, ch):
    """Pseudo-measurement matrix mapping the extent vector to the expected
    quadratic statistic, assembled from shape rows and their Jacobians."""
    return measurement_matrix(shape_matrix(p_hat), *shape_row_jacobians(p_hat),
                              np.asarray(ch, dtype=float))


def measurement_matrix(s_mat, j1, j2, ch):
    """extent_measurement_matrix from the shape matrix S and its row Jacobians."""
    s1, s2 = s_mat[..., 0:1, :], s_mat[..., 1:2, :]
    return np.concatenate([
        2.0 * s1 @ ch @ j1,
        2.0 * s2 @ ch @ j2,
        s1 @ ch @ j2 + s2 @ ch @ j1,
    ], axis=-2)


def extent_noise_moments(cy, m_mat, cp, p_hat, *, floor=True):
    """Mean and covariance of the pseudo-measurement noise.

    vbar collects the residual-covariance contribution minus the recentering
    by the current extent estimate; rp is the fourth-moment covariance of the
    quadratic statistic minus the part explained by the extent prior.  By
    default rp is symmetrized and eigenvalue-floored at 1e-8 * trace / 3
    through an eigendecomposition of every row; pass floor=False for the raw
    moment-matched matrix.
    """
    cy = np.asarray(cy, dtype=float)
    m_mat = np.asarray(m_mat, dtype=float)
    cp = np.asarray(cp, dtype=float)
    vbar = square_mean(cy) - _matvec(m_mat, np.asarray(p_hat, dtype=float))
    c11, c22, c12 = cy[..., 0, 0], cy[..., 1, 1], cy[..., 0, 1]
    # Covariance of [d1^2, d2^2, d1 d2] for Gaussian d ~ N(0, cy).
    quartic = _from_entries([
        [2 * c11 ** 2, 2 * c12 ** 2, 2 * c11 * c12],
        [2 * c12 ** 2, 2 * c22 ** 2, 2 * c22 * c12],
        [2 * c11 * c12, 2 * c22 * c12, c11 * c22 + c12 ** 2],
    ])
    rp = sym(quartic - m_mat @ cp @ m_mat.swapaxes(-1, -2))
    if floor:
        w, v = np.linalg.eigh(rp)
        lo = 1e-8 * np.maximum(np.trace(rp, axis1=-2, axis2=-1), 1e-12) / 3.0
        rp = sym((v * np.maximum(w, lo[..., None])[..., None, :]) @ v.swapaxes(-1, -2))
    return vbar, rp


def centered_pseudo_measurement(y_quad, cy, m_mat, p_hat):
    """Recenter a pseudo-measurement so its noise model is zero-mean.

    Subtracts the residual-covariance contribution and adds back the current
    extent estimate mapped through the pseudo-measurement matrix.
    """
    y_quad = np.asarray(y_quad, dtype=float)
    cy = np.asarray(cy, dtype=float)
    m_mat = np.asarray(m_mat, dtype=float)
    return y_quad - square_mean(cy) + _matvec(m_mat, np.asarray(p_hat, dtype=float))


def axes_floored(p):
    """Linearization points [alpha, l1, l2] (..., 3) with their semi-axes
    raised to MIN_AXIS and the orientation on its own branch."""
    p = np.array(p, dtype=float)
    p[..., 1:] = np.where(p[..., 1:] < MIN_AXIS, MIN_AXIS, p[..., 1:])
    return p


def innovations_by_pieces(x, cx, p, cp, y, ch, cv, inv=spd_inv):
    """The innovation arrays (dqx, dox, dqp, dop) of a stack of detections,
    composed from the pieces above at the linearization points
    axes_floored(p): generic products with H = [I 0] and M, the inverses of
    Rx and the floored Rp by inv (spd_inv's by default) and the eigh floor
    on every row."""
    p = axes_floored(p)
    s_mat, (j1, j2) = shape_matrix(p), shape_row_jacobians(p)
    rx = sym(shape_noise(s_mat, j1, j2, cp, ch) + cv)
    dqx, dox = innovation(np.eye(2, x.shape[-1]), inv(rx), y)
    cy = residual_cov(cx, rx)
    m_mat = measurement_matrix(s_mat, j1, j2, ch)
    _, rp = extent_noise_moments(cy, m_mat, cp, p)
    y_tilde = centered_pseudo_measurement(pseudo_measurement(y, x), cy, m_mat, p)
    dqp, dop = innovation(m_mat, inv(rp), y_tilde)
    return dqx, dox, dqp, dop


def lapack_inv(a):
    """sym of LAPACK's inverse: an inverse that shares no kernel with the
    library's closed-form ones."""
    return sym(np.linalg.inv(a))


def pseudo_noise_by_pieces(x, cx, p, cp, ch, cv):
    """The raw pseudo-measurement noise Rp (k, 3, 3) of each linearization
    point, its floor lo (k,) = 1e-8 trace / 3, and the eigh-floored Rp."""
    p = axes_floored(p)
    s_mat, (j1, j2) = shape_matrix(p), shape_row_jacobians(p)
    cy = residual_cov(cx, sym(shape_noise(s_mat, j1, j2, cp, ch) + cv))
    args = cy, measurement_matrix(s_mat, j1, j2, ch), cp, p
    raw = extent_noise_moments(*args, floor=False)[1]
    lo = 1e-8 * np.maximum(np.trace(raw, axis1=-2, axis2=-1), 1e-12) / 3.0
    return raw, lo, extent_noise_moments(*args)[1]


def split_innovations(rows, d):
    """The arrays (dqx, dox, dqp, dop) of compact innovation rows (k, 18),
    expanded into zeroed rows of the filter's layout (k, d + d * d + 12)."""
    block = np.zeros((len(rows), d + d * d + 12))
    block[:, _position_columns(d)] = rows
    return _columns(block)


def position_pair(x, cx):
    """The information pair (q, Ω) of the position marginal of moments x
    (..., d) and cx (..., d, d), at which innovations linearizes, Ω flat
    (..., 4): the inverse of the covariance's position block, through LAPACK."""
    omega = sym(np.linalg.inv(cx[..., :2, :2]))
    return _matvec(omega, x[..., :2]), omega.reshape(*omega.shape[:-2], 4)


def compact_rows(x, cx, p, cp):
    """The compact rows (k, 18) innovations linearizes at, of moments x
    (k, d), cx (k, d, d), p (k, 3) and cp (k, 3, 3): the position marginal's
    information pair, by position_pair, then the extent's, through LAPACK."""
    omega = sym(np.linalg.inv(cp))
    return np.concatenate([*position_pair(x, cx), _matvec(omega, p), omega.reshape(-1, 9)],
                          axis=1)


def linearize(x, cx, p, cp, *args, **kwargs):
    """innovations(rows, *args, **kwargs) at the moments x, cx, p, cp: the
    rows are compact_rows', and the extent moments (p, cp) are handed in as
    they are."""
    return innovations(compact_rows(x, cx, p, cp), *args, moments=(p, cp), **kwargs)


def extent_point(rows, moments=None):
    """The extent moments (p, Cp) innovations linearizes compact rows (k, 18)
    at: moments if it is handed them, else _extent_moments of the rows'
    extent pair."""
    if moments is not None:
        return moments
    return trackers._extent_moments(rows[:, 6:9], rows[:, 9:].reshape(-1, 3, 3))


def quartic_moment_mean(cx_pos, s_mat, j1, j2, cp, ch, cv):
    """Closed-form mean of the quadratic residual statistic, expanded term by
    term: position covariance + scattering + extent-spread trace + sensor
    noise for the squares, and the matching cross terms for the product."""
    s1, s2 = s_mat[0], s_mat[1]
    e11 = cx_pos[0, 0] + s1 @ ch @ s1 + np.trace(cp @ j1.T @ ch @ j1) + cv[0, 0]
    e22 = cx_pos[1, 1] + s2 @ ch @ s2 + np.trace(cp @ j2.T @ ch @ j2) + cv[1, 1]
    e12 = cx_pos[0, 1] + s1 @ ch @ s2 + np.trace(cp @ j1.T @ ch @ j2) + cv[0, 1]
    return np.array([e11, e22, e12])


def quartic_moment_cov(cy):
    """Covariance of [d1^2, d2^2, d1 d2] for Gaussian d ~ N(0, cy), from the
    fourth-moment factorization of Gaussian vectors."""
    c11, c22, c12 = cy[0, 0], cy[1, 1], cy[0, 1]
    return np.array([
        [2 * c11 ** 2, 2 * c12 ** 2, 2 * c11 * c12],
        [2 * c12 ** 2, 2 * c22 ** 2, 2 * c22 * c12],
        [2 * c11 * c12, 2 * c22 * c12, c11 * c22 + c12 ** 2],
    ])


def kalman_predict_moments(x_hat, cov, f, q):
    """Covariance-form time update: (F x, F P F.T + Q)."""
    return f @ x_hat, f @ cov @ f.T + q


def sample_linearized_residuals(rng, n, cx_pos, s_mat, j1, j2, cp, ch, cv):
    """Residual draws under the first-order measurement expansion with the
    truth at the linearization point: d = dx + S h + [h.T J_m dp] + v."""
    def factor(a):
        w, v = np.linalg.eigh(0.5 * (a + a.T))
        return v * np.sqrt(np.clip(w, 0, None))

    dx = rng.standard_normal((n, 2)) @ factor(cx_pos).T
    dp = rng.standard_normal((n, 3)) @ factor(cp).T
    h = rng.standard_normal((n, 2)) @ factor(ch).T
    v = rng.standard_normal((n, 2)) @ factor(cv).T
    second = np.stack([(h * (dp @ j1.T)).sum(1), (h * (dp @ j2.T)).sum(1)], axis=1)
    return dx + h @ s_mat.T + second + v


def ospa_all_permutations(a, b, cutoff, order):
    """OSPA over equal-size point sets via exhaustive assignment search."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = a.shape[0]
    best = np.inf
    for perm in permutations(range(n)):
        d = np.minimum(np.linalg.norm(a[list(perm)] - b, axis=1), cutoff)
        best = min(best, float(np.mean(d ** order) ** (1.0 / order)))
    return best


def gwd_eigh(m1, p1, m2, p2):
    """Gaussian Wasserstein distance between two (center, [alpha, l1, l2])
    pairs with matrix square roots taken through symmetric eigendecompositions:
    d^2 = |m1 - m2|^2 + tr(X1 + X2 - 2 (X1^1/2 X2 X1^1/2)^1/2)."""
    def spd(p):
        c, s = np.cos(p[0]), np.sin(p[0])
        r = np.array([[c, -s], [s, c]])
        return r @ np.diag([p[1] ** 2, p[2] ** 2]) @ r.T

    def sqrtm(a):
        w, v = np.linalg.eigh(0.5 * (a + a.T))
        return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T

    m1, p1, m2, p2 = (np.asarray(v, dtype=float) for v in (m1, p1, m2, p2))
    x1, x2 = spd(p1), spd(p2)
    root = sqrtm(x1)
    cross = sqrtm(root @ x2 @ root)
    d2 = np.sum((m1 - m2) ** 2) + np.trace(x1) + np.trace(x2) - 2.0 * np.trace(cross)
    return float(np.sqrt(max(d2, 0.0)))


def gwd_eigh_rounding(m1, p1, m2, p2):
    """Bound on the float64 rounding error of gwd_eigh's squared distance.

    Building X = Rot diag(l1^2, l2^2) Rot.T and taking eigh square roots
    leaves each small eigenvalue with an absolute error of about eps times the
    matrix norm, so the cross term is known only to min(sqrt(eps) L1 L2,
    eps (L1 L2)^2 / (S1 S2)), with L and S the long and short semi-axes of
    each extent; the sums add eps times the traces and the center offset.
    A semi-axis at 1e-3 m next to one of 200 m thus blurs the squared
    distance by about 1e-3 m^2.  The factor 16 covers the constants: over a
    million random draws the error reached at most 5 times the bracket.
    """
    m1, p1, m2, p2 = (np.asarray(v, dtype=float) for v in (m1, p1, m2, p2))
    eps = np.finfo(float).eps
    long1, long2 = max(p1[1:]), max(p2[1:])
    short1, short2 = min(p1[1:]), min(p2[1:])
    cross = min(np.sqrt(eps) * long1 * long2, eps * (long1 * long2) ** 2 / (short1 * short2))
    total = np.sum(p1[1:] ** 2) + np.sum(p2[1:] ** 2) + np.sum((m1 - m2) ** 2)
    return 16.0 * (cross + eps * total)


def rot2(angle: float) -> np.ndarray:
    """2-D counterclockwise rotation matrix."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def _scatter(m, s_mat, lh, lv, count: int, rng: np.random.Generator) -> np.ndarray:
    """count detections m + S h + v around center m with shape matrix S, the
    noises drawn through the factors lh and lv of their covariances: first
    every h, then every v, in one draw."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    h, v = rng.standard_normal((2, count, 2))
    return m + (h @ lh.T) @ s_mat.T + v @ lv.T


def sample_measurements(m, p, ch, cv, count: int, rng: np.random.Generator) -> np.ndarray:
    """count detections y = m + S(p) h + v around center m of an object with
    extent p = [alpha, l1, l2], h ~ N(0, ch) and v ~ N(0, cv): the draws of
    eotnet.scenario.build_scenario_run for one sensor and step, one sensor
    at a time, where the library applies the factors to a whole step's draws.
    It pins the draw order and the per-step center and extent; the scatter
    itself is checked against its moments."""
    lh, lv = (sqrt_psd(np.asarray(c, dtype=float)) for c in (ch, cv))
    return _scatter(np.asarray(m, dtype=float), shape_matrix(p), lh, lv, count, rng)


def flat_scan(batches):
    """scan_rows' (detections, counts) arguments for nested batches:
    batches[r][j] holds sensor j's detections in realization r."""
    flat = [[np.reshape(b, (-1, 2)) for b in run] for run in batches]
    counts = np.array([[len(b) for b in run] for run in flat], dtype=int).reshape(len(flat), -1)
    return np.concatenate([np.zeros((0, 2)), *(b for run in flat for b in run)]), counts


def scan_plan_by_loops(counts, nodes):
    """trackers._scan_plan's plan of a count table (R, steps, sensors), one
    detection at a time: per scan, the realizations by batch length (longest
    first, ties in run order), each flat row's (run, node), and each
    detection's place in the (run, step, sensor, index) ordered batch, flat
    row and (run, sensor), listed by index, then by rank, then by sensor,
    with each index's detection bounds and live rows."""
    runs, steps, sensors = counts.shape
    starts = np.cumsum(counts).reshape(counts.shape) - counts
    plans = []
    for k in range(steps):
        ends = [int(counts[r, k].max(initial=0)) for r in range(runs)]
        by_end = sorted(range(runs), key=lambda r: -ends[r])
        plan = {"by_end": by_end, "names": [(r, n) for r in by_end for n in range(nodes)],
                "order": [], "flat": [], "at": [], "bounds": [0], "lives": []}
        for i in range(max(ends, default=0)):
            for rank, r in enumerate(by_end):
                for j in range(sensors):
                    if counts[r, k, j] > i:
                        plan["order"].append(int(starts[r, k, j]) + i)
                        plan["flat"].append(rank * nodes + (j if nodes > 1 else 0))
                        plan["at"].append((r, j))
            plan["bounds"].append(len(plan["order"]))
            plan["lives"].append(nodes * sum(end > i for end in ends))
        plans.append(plan)
    return plans


def pairs(state):
    """The (kinematic, extent) information pairs ((qx, Ωx), (qp, Ωp)) of
    packed rows, as views."""
    qx, ox, qp, op = _columns(state)
    return (qx, ox), (qp, op)


def scan_rows(state, y, counts, params, config, pi=None):
    """One scan of packed rows (R, n, k), in place, by run_filter's scan core:
    planned as one step of the count table counts (R, sensors) and its
    detections y, started from the extent moments of the symmetrized rows.
    Returns every row's extent moments (p, Cp)."""
    nodes = 1 if config.kind is FilterKind.CEOT else state.shape[1]
    (plan,) = trackers._scan_plan(counts[:, None], y, nodes)
    _, _, qp, op = _columns(0.5 * (state + state[..., trackers._mirror(state.shape[-1])]))
    mix = trackers._consensus_map(config, pi, params, counts.shape[1], nodes)
    return trackers._scan(state, plan, trackers._extent_moments(qp, op), params, config.kind,
                          mix, None)


def corrected(state, *args):
    """A copy of packed rows after scan_rows(copy, *args)."""
    out = state.copy()
    scan_rows(out, *args)
    return out


def predicted(state, params):
    """A copy of packed rows predicted from their own moments, as run_filter
    predicts from the moments it records."""
    out = state.copy()
    (qx, ox), (qp, op) = pairs(out)
    (x, cx), (p, cp) = to_moments(qx, ox), to_moments(qp, op)
    qx[...], ox[...] = predict(x, cx, params.fx, params.cxw)
    qp[...], op[...] = predict(p, cp, np.eye(3), params.cpw)
    return out


def scan_batches(batch):
    """A one-run batch's detections as nested [step][node] arrays, split one
    array at a time by its count table."""
    (table,) = batch.counts
    batches, start = [], 0
    for counts in table:
        batches.append([])
        for n in counts:
            batches[-1].append(batch.detections[start:start + n])
            start += n
    assert start == len(batch.detections)
    return batches


def fuse_nodes(means, covs):
    """Information-weighted fusion of per-node estimates into one summary
    (sum of information matrices against the sum of information vectors)."""
    omegas = [spd_inv(c, name="node covariance") for c in covs]
    total = sym(sum(omegas))
    q = sum(om @ m for om, m in zip(omegas, means))
    cov = spd_inv(total, name="fused information")
    return cov @ q, cov


def rx_bounds_by_calls(stacks):
    """The lowest and highest eigenvalue over stacks of symmetric 2x2
    matrices, mid -/+ radius in closed form, reduced eagerly stack by stack."""
    lo, hi = np.inf, -np.inf
    for rx in stacks:
        a, b, c = rx[..., 0, 0], rx[..., 1, 1], rx[..., 0, 1]
        mid, radius = 0.5 * (a + b), np.hypot(0.5 * (a - b), c)
        lo, hi = min(lo, float((mid - radius).min())), max(hi, float((mid + radius).max()))
    return lo, hi


def extent_alignment_error(p_est, p_true):
    """Per-axis and orientation errors of an extent [alpha, l1, l2] modulo
    the rectangle symmetries.

    The same shape is described by (alpha, l1, l2), by alpha + pi, and by the
    quarter-turn with swapped axes; errors are reported for the equivalent
    representation closest to the truth.  Returns (|dl1|, |dl2|, |dalpha|).
    """
    alpha, l1, l2 = p_est
    candidates = [(alpha, l1, l2), (alpha + np.pi / 2, l2, l1), (alpha - np.pi / 2, l2, l1)]
    best = None
    for a, c1, c2 in candidates:
        da = abs(wrap_angle(a - p_true[0] + np.pi / 2) - np.pi / 2) % np.pi
        da = min(da, np.pi - da)
        err = (abs(c1 - p_true[1]), abs(c2 - p_true[2]), da)
        if best is None or max(err[0], err[1]) < max(best[0], best[1]):
            best = err
    return best


def _moments(row):
    """(x, Cx, p, Cp) of one node's [qx, Ωx, qp, Ωp] through LAPACK inverses."""
    cx, cp = np.linalg.inv(row[1]), np.linalg.inv(row[3])
    return cx @ row[0], cx, cp @ row[2], cp


def _averaged(rows, net, pi, rounds):
    """rounds of consensus over per-node rows of arrays, each node's new row
    the explicit weighted sum of its own and its neighbours' old rows."""
    flat = [np.concatenate([a.ravel() for a in row]) for row in rows]
    for _ in range(rounds):
        flat = [sum(pi.pi[j, m] * flat[m] for m in [j, *np.flatnonzero(net.adjacency[j])])
                for j in range(len(flat))]
    ends = np.cumsum([a.size for a in rows[0]])[:-1]
    return [[part.reshape(a.shape) for part, a in zip(np.split(v, ends), rows[0])] for v in flat]


def components_by_search(adjacency):
    """The connected components of an undirected graph, each the sorted list
    of its nodes, by a plain breadth-first search from each node not yet
    reached, one level at a time."""
    adjacency = np.asarray(adjacency, dtype=bool)
    seen, pieces = np.zeros(len(adjacency), dtype=bool), []
    for start in range(len(adjacency)):
        if seen[start]:
            continue
        seen[start], piece, level = True, [start], [start]
        while level:
            following = []
            for u in level:
                for v in np.flatnonzero(adjacency[u] & ~seen):
                    seen[v] = True
                    following.append(int(v))
            piece += following
            level = following
        pieces.append(sorted(piece))
    return pieces


def primitive_by_power(weights):
    """Whether the support of a nonnegative (n, n) matrix to the Wielandt
    power n^2 - 2n + 2 is entrywise positive: that exact power by binary
    exponentiation, each product of 0/1 matrices taken in float64, whose
    walk counts (at most n) neither wrap nor round, and clipped back to 0/1."""
    base = (np.asarray(weights) > 0).astype(np.float64)
    n = len(base)
    power, result = n * n - 2 * n + 2, np.eye(n)
    while power:
        if power & 1:
            result = (result @ base > 0).astype(np.float64)
        base = (base @ base > 0).astype(np.float64)
        power >>= 1
    return bool((result > 0).all())


def reference_filter(batch, net, params, config, pi):
    """The filter of a one-run batch from the paper's equations, one detection
    at a time: {"x_mean", "x_cov", "p_mean", "p_cov"} of shape (steps,
    nodes, ...), nodes 1 under CEOT.

    Each node holds its information pair [qx, Ωx, qp, Ωp].  At index i of a
    scan every detecting sensor's innovations come from innovations_by_pieces
    at its row's pre-index moments.  CEOT sums them into its one row; CI adds
    them to the sensor's row, then averages the posteriors; CM averages them,
    then adds omega times the average to every row.  No row is edited
    otherwise: an orientation stays on its own branch, and a semi-axis below
    MIN_AXIS stays in the row and is floored only in the linearization
    point.  The prediction is the covariance-form Kalman step.
    """
    central = config.kind is FilterKind.CEOT
    nodes = 1 if central else net.size
    weight = float(nodes) if config.omega is None else config.omega
    rounds = config.consensus_iters
    (x0,), (cx0,), (p0,), (cp0,) = batch.x0, batch.cx0, batch.p0, batch.cp0
    ox0, op0 = np.linalg.inv(cx0), np.linalg.inv(cp0)
    state = [[ox0 @ x0, ox0, op0 @ p0, op0] for _ in range(nodes)]

    out = {name: [] for name in ("x_mean", "x_cov", "p_mean", "p_cov")}
    steps = batch.counts.shape[1]
    for k, scan in enumerate(scan_batches(batch)):
        for i in range(max(len(b) for b in scan)):
            points = [_moments(row) for row in state]
            delta = [[np.zeros_like(a) for a in row] for row in state]
            for j, b in enumerate(scan):
                if len(b) > i:
                    r = 0 if central else j
                    x, cx, p, cp = (a[None] for a in points[r])
                    pieces = innovations_by_pieces(x, cx, p, cp, b[i][None], params.ch,
                                                   params.cv[j][None])
                    delta[r] = [a + piece[0] for a, piece in zip(delta[r], pieces)]
            if config.kind is FilterKind.CM:
                delta = [[weight * a for a in row] for row in _averaged(delta, net, pi, rounds)]
            state = [[a + da for a, da in zip(row, drow)] for row, drow in zip(state, delta)]
            state = [[row[0], sym(row[1]), row[2], sym(row[3])] for row in state]
            if config.kind is FilterKind.CI:
                state = _averaged(state, net, pi, rounds)
        moments = [_moments(row) for row in state]
        for name, values in zip(out, zip(*moments)):  # x, Cx, p, Cp per node
            out[name].extend(values)
        if k + 1 < steps:
            state = []
            for x, cx, p, cp in moments:
                x, cx = kalman_predict_moments(x, cx, params.fx, params.cxw)
                p, cp = kalman_predict_moments(p, cp, np.eye(3), params.cpw)
                ox, op = np.linalg.inv(cx), np.linalg.inv(cp)
                state.append([ox @ x, ox, op @ p, op])
    return {name: np.reshape(values, (steps, nodes, *np.shape(values[0])))
            for name, values in out.items()}


def metrics_csv_by_format(path, columns, values) -> None:
    """The metrics.csv writer as it was before the % template: every value
    through its own str.format field spec, {:.9g}, one block per (run, step)."""
    block = "".join(f"{{0}},{{1}},{node},{metric},{{{i}:.9g}}\n"
                    for i, (node, metric) in enumerate(columns, start=2))
    with open(path, "w", newline="\n") as fh:
        fh.write("run,step,node,metric,value\n")
        for run, steps in enumerate(values.tolist()):
            for step, row in enumerate(steps):
                fh.write(block.format(run, step, *row))
