"""Additive-noise linear measurement models built at the current estimate.

The multiplicative measurement model is split into two linear models with
additive noise only: one for the kinematic state (position measurement with an
equivalent noise that absorbs the extent uncertainty) and one for the extent
(a quadratic pseudo-measurement matched to the first two moments of the
detection residual).  Both are refreshed at every sequential update from the
previous estimates, which preserves the cross-correlation between the two
states.  With H = [I 0] the kinematic model reads only the position
marginal of the kinematic estimate, which it takes as an information pair.

Extents are [alpha, l1, l2] vectors.  innovations builds both models for a
whole stack of detections from one Gram matrix.  The shape matrix S and the
Jacobians J1, J2 of its rows are the columns of one 2 x 8 matrix
W = [S.T, J1, J2] per detection, and every product the models need is a block
of W.T Ch W: the scattering term S Ch S.T, the rows s_m Ch J_n of the
pseudo-measurement matrix, and the J_m.T Ch J_n whose traces against Cp give
the extent-spread term.  The tests keep the same formulas piece by piece as
their oracle.
"""

from __future__ import annotations

import numpy as np

from ._linalg import _adjugate_pass, _closed_form, _cofactor_pass, _matvec, _not_spd, sym
from .geometry import clamp_extent
from .info_filter import _rows

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
# Residual index pair (a, b) of each entry d_a d_b of the quadratic statistic
# [d1^2, d2^2, d1 d2], and the flat index 2a + b of C[a, b] in a 2x2 matrix.
_PAIRS = np.array([[0, 0], [1, 1], [0, 1]])
_SQUARE = 2 * _PAIRS[:, 0] + _PAIRS[:, 1]
# Isserlis: cov(d_a d_b, d_c d_e) = C[a, c] C[b, e] + C[a, e] C[b, c], four
# flat-index factors per (3, 3) entry.
_ab, _ce = _PAIRS[:, None, :], _PAIRS[None, :, :]
_QUARTIC = np.stack([2 * _ab[..., 0] + _ce[..., 0], 2 * _ab[..., 1] + _ce[..., 1],
                     2 * _ab[..., 0] + _ce[..., 1], 2 * _ab[..., 1] + _ce[..., 0]])
_EYE3 = np.eye(3)


@np.errstate(over="ignore", invalid="ignore")
def _pseudo_noise(cy, m_mat, cp):
    """Rp of each row, (k, 3, 3), from its flat residual covariance cy (k, 4),
    its floor lo (k,) and Rp - lo I.  A residual covariance beyond about 1e154
    overflows Rp to infs and NaNs with no floating-point warning, so that
    innovations names the row."""
    quartic = np.take(cy, _QUARTIC, axis=1)
    rp = sym(quartic[:, 0] * quartic[:, 1] + quartic[:, 2] * quartic[:, 3]
             - m_mat @ cp @ m_mat.swapaxes(-1, -2))
    lo = 1e-8 * np.maximum(np.trace(rp, axis1=-2, axis2=-1), 1e-12) / 3.0
    return rp, lo, rp - lo[:, None, None] * _EYE3


def innovations(q, omega, p, cp, y, ch, cv, trace=None, at=None, *, d=2, row_at=None):
    """Innovation rows [dqx, dox, dqp, dop] of k detections, packed as the
    filter's state rows (info_filter's layout) with d kinematic entries.

    Detection y[k] is linearized at its own row's position marginal, the
    information pair (q[k], omega[k]), and extent moments p[k], cp[k], and
    carries the sensor noise cv[k]; ch is shared.  Both linear models are
    built from the same pre-update estimates; the extent mean is first
    wrapped and its semi-axes clamped to MIN_AXIS.

    The kinematic noise is Rx = S Ch S.T + [trace(Cp J_n.T Ch J_m)] + Cv;
    one adjugate pass inverts it and the symmetrized omega together.
    The pseudo-measurement noise Rp is the Gaussian fourth-moment covariance
    of the residual d = y - H x, with covariance Cy = H Cx H.T + Rx, minus
    M Cp M.T.  The subtraction can leave Rp indefinite.  A row whose Rp has
    an eigenvalue below lo = 1e-8 * trace / 3, which Sylvester's criterion on
    Rp - lo I detects, has those eigenvalues raised to lo; the other rows keep
    Rp as computed, and a row whose Rp is not finite fails.  One cofactor
    pass over Rp - lo I and Rp gives that verdict and Rp's inverse.  Each
    row's numbers depend on that row alone.
    A failing Rx or Rp is named by its detection's (run, node) row of at,
    (k, 2), or by its position (node i) without at, and a failing omega, as
    information matrix, by its row of row_at, or of at.  A trace records
    every Rx that gets inverted and how many rows the floor changed.
    """
    p = clamp_extent(p)
    k = len(p)
    cos_sin, lengths = np.empty((k, 2)), np.ones((k, 3))
    np.cos(p[:, 0], out=cos_sin[:, 0])
    np.sin(p[:, 0], out=cos_sin[:, 1])
    lengths[:, 1:] = p[:, 1:]
    w = ((lengths[:, :, None] * cos_sin[:, None, :]).reshape(k, 6) @ _W_BASIS).reshape(k, 2, 8)
    # np.take and matmul keep every operand C-ordered whatever k is, so each
    # row takes the same path alone as in any stack.
    picks = np.take((w.swapaxes(-1, -2) @ (ch @ w)).reshape(k, 64), _GRAM_PICKS, axis=1)
    spread = cp.reshape(k, 1, 9) @ picks[:, 22:].reshape(k, 9, 4)
    rx = sym(picks[:, :4].reshape(k, 2, 2) + spread.reshape(k, 2, 2) + cv)
    omega = sym(omega)
    inv, ok = _closed_form(_adjugate_pass, np.concatenate([omega, rx]))
    if not ok.all():
        if not ok[:k].all():
            _not_spd(omega, ~ok[:k], "information matrix", at if row_at is None else row_at)
        _not_spd(rx, ~ok[k:], "kinematic measurement noise", at)
    cx, vx = inv[:k], inv[k:]
    # H = [I 0] only picks the position block.
    block, (dqx, dox, dqp, dop) = _rows((k,), d)
    dqx[:, :2], dox[:, :2, :2] = _matvec(vx, y), vx

    cy = (cx + rx).reshape(k, 4)
    m_mat = (picks[:, 4:13] + picks[:, 13:22]).reshape(k, 3, 3)
    rp, lo, shifted = _pseudo_noise(cy, m_mat, cp)
    inv, ok = _closed_form(_cofactor_pass, np.concatenate([shifted, rp]))
    floored, vp = ~ok[:k] & np.isfinite(lo), inv[k:]
    if floored.any():
        eig, vec = np.linalg.eigh(rp[floored])
        eig = np.maximum(eig, lo[floored, None])
        rp[floored] = sym((vec * eig[:, None, :]) @ vec.swapaxes(-1, -2))
        vp[floored], ok[k:][floored] = _closed_form(_cofactor_pass, rp[floored])
    if not ok[k:].all():
        _not_spd(rp, ~ok[k:], "extent pseudo-measurement noise", at=at)
    residual = y - _matvec(cx, q)
    y_quad = np.take(residual, _PAIRS[:, 0], axis=1) * np.take(residual, _PAIRS[:, 1], axis=1)
    y_tilde = y_quad - np.take(cy, _SQUARE, axis=1) + _matvec(m_mat, p)
    # The extent innovation pair (M.T Vp y~, M.T Vp M).
    mv = m_mat.swapaxes(-1, -2) @ vp
    dqp[...], dop[...] = _matvec(mv, y_tilde), sym(mv @ m_mat)
    if trace is not None:
        trace.record_rx(rx)
        trace.record_rp_floor(np.count_nonzero(floored), k)
    return block
