"""Additive-noise linear measurement models built at the current estimate.

The multiplicative measurement model is split into two linear models with
additive noise only: a position measurement of the kinematic state, whose
equivalent noise absorbs the extent uncertainty, and a quadratic
pseudo-measurement of the extent matched to the first two moments of the
detection residual.  Both are refreshed at every sequential update from the
previous estimates, which preserves the cross-correlation between the two
states; with H = [I 0] the kinematic model reads only the position marginal.

Extents are [alpha, l1, l2].  innovations builds both models for a stack of
detections from one Gram matrix: the shape matrix S and the Jacobians J1, J2
of its rows are the columns of W = [S.T, J1, J2] (2 x 8), and every product
the models need is a block of W.T Ch W: S Ch S.T, the rows s_m Ch J_n of the
pseudo-measurement matrix, and the J_m.T Ch J_n whose traces against Cp give
the extent-spread term.  The tests' oracle keeps these formulas piece by piece.
"""

from __future__ import annotations

import numpy as np

from ._linalg import _adjugate_pass, _balanced_pass, _cofactor_pass, _matvec, _not_spd
from .geometry import MIN_AXIS

__all__ = [
    "innovations",
]

# W = [S.T, J1, J2] row-major (2 x 8), as signed 1-based picks from
# f = [c, s, l1 c, l1 s, l2 c, l2 s] with c, s the orientation's cosine and
# sine; a 0 pick is a zero entry.  W = f @ _W_BASIS.
_W_PICKS = [3, 4, -4, 1, 0, 3, 2, 0,
            -6, 5, -5, 0, -2, -6, 0, 1]
_W_BASIS = np.array([[(pick > 0) - (pick < 0) if abs(pick) == j else 0 for pick in _W_PICKS]
                     for j in range(1, 7)], dtype=float)
# Picks from the flat 8x8 Gram matrix G = W.T Ch W, whose rows and columns
# are s1, s2, then J1's and J2's three columns each:
# - S Ch S.T, the top-left 2x2 block;
# - the pseudo-measurement matrix M = [2 s1 Ch J1; 2 s2 Ch J2; s1 Ch J2 + s2 Ch J1]
#   as the sum of two 3x3 picks from the rows s_m Ch J_n;
# - (J_m.T Ch J_n)[a, b] = G[2 + 3m + a, 2 + 3n + b] at [(a, b), (m, n)],
#   which Cp contracts into the spread term sum_ab Cp[a, b] (J_m.T Ch J_n)[a, b].
_a, _b, _m, _n = np.ix_(range(3), range(3), range(2), range(2))
_GRAM_PICKS = np.concatenate([
    [0, 1, 8, 9],
    [2, 3, 4, 13, 14, 15, 5, 6, 7],
    [2, 3, 4, 13, 14, 15, 10, 11, 12],
    (8 * (2 + 3 * _m + _a) + 2 + 3 * _n + _b).ravel(),
])
# The flat index of each entry's upper-triangle mirror in a 2x2 and a 3x3
# matrix: taking it builds an exactly symmetric matrix from its upper half.
_UPPER2, _UPPER3 = np.array([0, 1, 1, 3]), np.array([0, 1, 2, 1, 4, 5, 2, 5, 8])
# Residual index pair (a, b) of each entry d_a d_b of the quadratic statistic
# [d1^2, d2^2, d1 d2], and the flat index 2a + b of C[a, b] in a 2x2 matrix.
_PAIRS = np.array([[0, 0], [1, 1], [0, 1]])
_SQUARE = 2 * _PAIRS[:, 0] + _PAIRS[:, 1]
# Isserlis: cov(d_a d_b, d_c d_e) = C[a, c] C[b, e] + C[a, e] C[b, c], as the
# map from the products C[u] C[v] of flat entries (row 4u + v) to the nine
# flat entries (3i + j for pairs i, j).  Each entry sums two products, so its
# product with them is exact in any summation order.
_ISSERLIS = np.zeros((16, 9))
np.add.at(_ISSERLIS, ((_PAIRS @ [8, 2])[:, None, None] + _PAIRS @ [[4, 1], [1, 4]],
                      np.arange(9).reshape(3, 3, 1)), 1.0)
_EYE3 = np.eye(3).ravel()
# The floor of a linearization point [alpha, l1, l2]: its semi-axes only.
_FLOOR = np.array([-np.inf, MIN_AXIS, MIN_AXIS])


def _pseudo_noise(cy, m_mat, cp):
    """Flat, exactly symmetric Rp (k, 9) of flat residual covariances cy (k, 4),
    its floor lo (k,) and Rp - lo I; a cy past 1e154 overflows, named by innovations."""
    rp = ((cy[:, :, None] * cy[:, None, :]).reshape(-1, 16) @ _ISSERLIS
          - (m_mat @ cp @ m_mat.swapaxes(-1, -2)).reshape(-1, 9)).take(_UPPER3, axis=1)
    lo = 1e-8 * np.maximum(rp[:, 0] + rp[:, 4] + rp[:, 8], 1e-12) / 3.0
    return rp, lo, rp - lo[:, None] * _EYE3


@np.errstate(all="ignore")
def innovations(q, omega, p, cp, y, ch, cv, trace=None, at=None, *, row_at=None):
    """Compact innovation rows (k, 18) of k detections: the entries
    [H.T Vx y, H.T Vx H, M.T Vp y~, M.T Vp M] of a filter row that
    H = [I 0] reaches, in info_filter._position_columns order.

    Detection y[k] is linearized at its own row's position marginal, the
    information pair (q[k], omega[k]) with omega flat (k, 4) and exactly
    symmetric, and extent moments p[k], cp[k], the mean's semi-axes clamped
    to MIN_AXIS.  Its orientation is not wrapped: the models read it
    through its cosine and sine, and the pseudo-measurement's M p term on
    the row's own branch; it carries the sensor noise cv[k], and ch is
    shared.

    The kinematic noise Rx = S Ch S.T + [trace(Cp J_n.T Ch J_m)] + Cv is
    inverted with omega in one adjugate pass.  The pseudo-measurement noise
    Rp is the Gaussian fourth-moment covariance of the residual d = y - H x,
    of covariance Cy = H Cx H.T + Rx, minus M Cp M.T; Rx, Rp and M.T Vp M
    are taken from their upper triangles.  Rp's eigenvalues below
    lo = 1e-8 * trace / 3, which Sylvester's criterion on Rp - lo I detects
    in the pass that inverts Rp, are raised to lo, and a non-finite Rp
    fails.  Each row's numbers depend on that row alone, and no
    floating-point warning is raised.  A failing Rx or Rp is named by its
    detection's (run, node) row of at, (k, 2), or as node i without at, and
    a failing omega, as information matrix, by its row of row_at, or of at.
    A trace records every inverted Rx and how many rows the floor changed.
    """
    p = np.maximum(p, _FLOOR)
    k = len(p)
    f = np.empty((k, 3, 2))  # [c, s, l1 c, l1 s, l2 c, l2 s]
    np.cos(p[:, 0], out=f[:, 0, 0])
    np.sin(p[:, 0], out=f[:, 0, 1])
    np.multiply(p[:, 1:, None], f[:, :1], out=f[:, 1:])
    w = (f.reshape(k, 6) @ _W_BASIS).reshape(k, 2, 8)
    # take and matmul keep every operand C-ordered whatever k is, so each
    # row takes the same path alone as in any stack.
    picks = (w.swapaxes(-1, -2) @ (ch @ w)).reshape(k, 64).take(_GRAM_PICKS, axis=1)
    spread = cp.reshape(k, 1, 9) @ picks[:, 22:].reshape(k, 9, 4)
    rx = (picks[:, :4] + spread.reshape(k, 4) + cv.reshape(k, 4)).take(_UPPER2, axis=1)
    inv, ok, passed = _balanced_pass(_adjugate_pass, np.concatenate([omega, rx]))
    if not passed:
        if not ok[:k].all():
            _not_spd(omega.reshape(k, 2, 2), ~ok[:k], "information matrix",
                     at if row_at is None else row_at)
        _not_spd(rx.reshape(k, 2, 2), ~ok[k:], "kinematic measurement noise", at)
    cx, vx = inv[:k], inv[k:]
    cy = cx + rx
    m_mat = (picks[:, 4:13] + picks[:, 13:22]).reshape(k, 3, 3)
    rp, lo, shifted = _pseudo_noise(cy, m_mat, cp)
    inv, ok, passed = _balanced_pass(_cofactor_pass, np.concatenate([shifted, rp]))
    vp, floored = inv[k:], 0
    if not passed:
        rows = ~ok[:k] & np.isfinite(lo)
        if floored := np.count_nonzero(rows):
            eig, vec = np.linalg.eigh(rp[rows].reshape(-1, 3, 3))
            scaled = vec * np.maximum(eig, lo[rows, None])[:, None, :]
            rp[rows] = (scaled @ vec.swapaxes(-1, -2)).reshape(-1, 9)[:, _UPPER3]
            vp[rows], ok[k:][rows], _ = _balanced_pass(_cofactor_pass, rp[rows])
        if not ok[k:].all():
            _not_spd(rp.reshape(k, 3, 3), ~ok[k:], "extent pseudo-measurement noise", at=at)
    residual = y - _matvec(cx.reshape(k, 2, 2), q)
    y_tilde = (((residual[:, :, None] * residual[:, None, :]).reshape(k, 4) - cy)
               .take(_SQUARE, axis=1) + _matvec(m_mat, p))
    mv = m_mat.swapaxes(-1, -2) @ vp.reshape(k, 3, 3)
    if trace is not None:
        trace.record_rx(rx.reshape(k, 2, 2))
        trace.record_rp_floor(floored, k)
    return np.concatenate([_matvec(vx.reshape(k, 2, 2), y), vx, _matvec(mv, y_tilde),
                           (mv @ m_mat).reshape(k, 9).take(_UPPER3, axis=1)], axis=1)
