"""Independent oracles the tests check the library against.

Everything here is implemented from first principles (finite differences,
explicit moment expansion, covariance-form Kalman algebra, exhaustive
assignment search) and deliberately avoids the code paths under test.
"""

from itertools import permutations

import numpy as np


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
