"""Additive-noise linear measurement models built at the current estimate.

The multiplicative measurement model is split into two linear models with
additive noise only: one for the kinematic state (position measurement with an
equivalent noise that absorbs the extent uncertainty) and one for the extent
(a quadratic pseudo-measurement matched to the first two moments of the
detection residual).  Both are refreshed at every sequential update from the
previous estimates, which preserves the cross-correlation between the two
states.
"""

from __future__ import annotations

import numpy as np

from ._linalg import as_cov, sym
from .geometry import Extent, shape_matrix, shape_row_jacobians

__all__ = [
    "SQUARE_PICK",
    "SQUARE_PICK_SWAP",
    "kinematic_measurement_matrix",
    "kinematic_noise_cov",
    "residual_cov",
    "pseudo_measurement",
    "extent_measurement_matrix",
    "extent_noise_moments",
    "centered_pseudo_measurement",
]

# Selectors picking the (1,1), (2,2), (1,2) entries out of a column-stacked
# 2x2 Kronecker square; the swap variant picks the (2,1) copy instead of (1,2)
# so that PICK + SWAP accounts for the duplicated off-diagonal term.
SQUARE_PICK = np.array([
    [1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [0.0, 1.0, 0.0, 0.0],
])
SQUARE_PICK_SWAP = np.array([
    [1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [0.0, 0.0, 1.0, 0.0],
])


def _vect(a: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(a).reshape(-1, order="F")


def kinematic_measurement_matrix(x_dim: int) -> np.ndarray:
    """Position extraction matrix [I_2 0] for a kinematic state of size x_dim."""
    if x_dim < 2:
        raise ValueError("kinematic state must include a 2-D position")
    h = np.zeros((2, x_dim))
    h[:, :2] = np.eye(2)
    return h


def kinematic_noise_cov(p_hat: Extent, cp, ch, cv) -> np.ndarray:
    """Equivalent measurement noise covariance for the kinematic model.

    Sum of the shape-scattering term S Ch S.T, the extent-uncertainty term
    with entries trace(Cp J_n.T Ch J_m), and the additive sensor noise.  The
    first two terms are evaluated at the previous extent estimate and treated
    as constants during the update they feed.
    """
    cp = as_cov(cp, "extent covariance")
    ch = as_cov(ch, "multiplicative noise covariance")
    cv = as_cov(cv, "measurement noise covariance")
    return sym(_shape_noise(p_hat, cp, ch) + cv)


def _shape_noise(p_hat: Extent, cp: np.ndarray, ch: np.ndarray) -> np.ndarray:
    """The extent's part of the kinematic measurement noise: the scattering
    term S Ch S.T plus the extent-uncertainty term trace(Cp J_n.T Ch J_m)."""
    s_mat = shape_matrix(p_hat)
    jac = shape_row_jacobians(p_hat)
    scatter = s_mat @ ch @ s_mat.T
    spread = np.array([
        [np.trace(cp @ jac[n].T @ ch @ jac[m]) for n in range(2)]
        for m in range(2)
    ])
    return scatter + spread


def residual_cov(cx: np.ndarray, rx: np.ndarray) -> np.ndarray:
    """Covariance of the detection residual: H Cx H.T + Rx."""
    cx = np.asarray(cx, dtype=float)
    return sym(cx[:2, :2] + rx)


def pseudo_measurement(y, x_hat) -> np.ndarray:
    """Quadratic statistic [d1^2, d2^2, d1 d2] of the residual d = y - H x_hat."""
    y = np.asarray(y, dtype=float)
    x_hat = np.asarray(x_hat, dtype=float)
    d = y - x_hat[:2]
    return np.array([d[0] ** 2, d[1] ** 2, d[0] * d[1]])


def extent_measurement_matrix(p_hat: Extent, ch) -> np.ndarray:
    """Pseudo-measurement matrix mapping the extent vector to the expected
    quadratic statistic, assembled from shape rows and their Jacobians."""
    ch = np.asarray(ch, dtype=float)
    s_mat = shape_matrix(p_hat)
    j1, j2 = shape_row_jacobians(p_hat)
    s1, s2 = s_mat[0], s_mat[1]
    return np.vstack([
        2.0 * s1 @ ch @ j1,
        2.0 * s2 @ ch @ j2,
        s1 @ ch @ j2 + s2 @ ch @ j1,
    ])


def extent_noise_moments(
    cy,
    m_mat,
    cp,
    p_hat: Extent,
    *,
    floor: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of the pseudo-measurement noise.

    vbar collects the residual-covariance contribution minus the recentering
    by the current extent estimate; rp is the fourth-moment covariance of the
    quadratic statistic minus the part explained by the extent prior.  The
    subtraction can leave rp indefinite, so by default it is symmetrized and
    eigenvalue-floored at 1e-8 * trace / 3 to keep information updates
    well-posed; pass floor=False for the raw moment-matched matrix.
    """
    cy = np.asarray(cy, dtype=float)
    m_mat = np.asarray(m_mat, dtype=float)
    cp = np.asarray(cp, dtype=float)
    vbar = SQUARE_PICK @ _vect(cy) - m_mat @ p_hat.as_array()
    rp = SQUARE_PICK @ np.kron(cy, cy) @ (SQUARE_PICK + SQUARE_PICK_SWAP).T
    rp = sym(rp - m_mat @ cp @ m_mat.T)
    if floor:
        w, v = np.linalg.eigh(rp)
        lo = 1e-8 * max(float(np.trace(rp)), 1e-12) / 3.0
        rp = sym((v * np.maximum(w, lo)) @ v.T)
    return vbar, rp


def centered_pseudo_measurement(y_quad, cy, m_mat, p_hat: Extent) -> np.ndarray:
    """Recenter a pseudo-measurement so its noise model is zero-mean.

    Subtracts the residual-covariance contribution and adds back the current
    extent estimate mapped through the pseudo-measurement matrix.
    """
    y_quad = np.asarray(y_quad, dtype=float)
    cy = np.asarray(cy, dtype=float)
    m_mat = np.asarray(m_mat, dtype=float)
    return y_quad - SQUARE_PICK @ _vect(cy) + m_mat @ p_hat.as_array()
