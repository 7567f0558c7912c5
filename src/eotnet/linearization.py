"""Additive-noise linear measurement models built at the current estimate.

The multiplicative measurement model is split into two linear models with
additive noise only: one for the kinematic state (position measurement with an
equivalent noise that absorbs the extent uncertainty) and one for the extent
(a quadratic pseudo-measurement matched to the first two moments of the
detection residual).  Both are refreshed at every sequential update from the
previous estimates, which preserves the cross-correlation between the two
states.

Extents are [alpha, l1, l2] vectors.  Every function except
kinematic_noise_cov also takes a leading stack axis on all of its per-item
arguments (one row per detection); ch is shared by the whole stack.
"""

from __future__ import annotations

import numpy as np

from ._linalg import _from_entries, _matvec, as_cov, spd_inv, sym
from .geometry import clamp_extent, shape_matrix, shape_row_jacobians
from .info_filter import innovation

__all__ = [
    "kinematic_measurement_matrix",
    "kinematic_noise_cov",
    "residual_cov",
    "pseudo_measurement",
    "extent_measurement_matrix",
    "extent_noise_moments",
    "centered_pseudo_measurement",
    "innovations",
]


def kinematic_measurement_matrix(x_dim: int) -> np.ndarray:
    """Position extraction matrix [I_2 0] for a kinematic state of size x_dim."""
    if x_dim < 2:
        raise ValueError("kinematic state must include a 2-D position")
    h = np.zeros((2, x_dim))
    h[:, :2] = np.eye(2)
    return h


def kinematic_noise_cov(p_hat, cp, ch, cv) -> np.ndarray:
    """Equivalent measurement noise covariance for the kinematic model.

    Sum of the shape-scattering term S Ch S.T, the extent-uncertainty term
    with entries trace(Cp J_n.T Ch J_m), and the additive sensor noise.  The
    first two terms are evaluated at the previous extent estimate and treated
    as constants during the update they feed.
    """
    cp = as_cov(cp, "extent covariance")
    ch = as_cov(ch, "multiplicative noise covariance")
    cv = as_cov(cv, "measurement noise covariance")
    return sym(_shape_noise(shape_matrix(p_hat), *shape_row_jacobians(p_hat), cp, ch) + cv)


def _shape_noise(s_mat, j1, j2, cp: np.ndarray, ch: np.ndarray) -> np.ndarray:
    """The extent's part of the kinematic measurement noise: the scattering
    term S Ch S.T plus the extent-uncertainty term trace(Cp J_n.T Ch J_m)."""
    jac = np.stack((j1, j2), axis=-3)  # J_m at [..., m, :, :]
    scatter = s_mat @ ch @ s_mat.swapaxes(-1, -2)
    # [..., m, n] holds Cp J_n.T Ch J_m.
    spread = (cp[..., None, None, :, :] @ jac.swapaxes(-1, -2)[..., None, :, :, :]
              @ ch @ jac[..., :, None, :, :])
    return scatter + np.trace(spread, axis1=-2, axis2=-1)


def residual_cov(cx: np.ndarray, rx: np.ndarray) -> np.ndarray:
    """Covariance of the detection residual: H Cx H.T + Rx."""
    cx = np.asarray(cx, dtype=float)
    return sym(cx[..., :2, :2] + rx)


def pseudo_measurement(y, x_hat) -> np.ndarray:
    """Quadratic statistic [d1^2, d2^2, d1 d2] of the residual d = y - H x_hat."""
    d = np.asarray(y, dtype=float) - np.asarray(x_hat, dtype=float)[..., :2]
    return np.stack([d[..., 0] ** 2, d[..., 1] ** 2, d[..., 0] * d[..., 1]], axis=-1)


def _square_mean(cy: np.ndarray) -> np.ndarray:
    """Mean [c11, c22, c12] of the quadratic statistic of a zero-mean
    residual with covariance cy."""
    return np.stack([cy[..., 0, 0], cy[..., 1, 1], cy[..., 0, 1]], axis=-1)


def extent_measurement_matrix(p_hat, ch) -> np.ndarray:
    """Pseudo-measurement matrix mapping the extent vector to the expected
    quadratic statistic, assembled from shape rows and their Jacobians."""
    return _measurement_matrix(shape_matrix(p_hat), *shape_row_jacobians(p_hat),
                               np.asarray(ch, dtype=float))


def _measurement_matrix(s_mat, j1, j2, ch: np.ndarray) -> np.ndarray:
    """extent_measurement_matrix from the shape matrix S and its row Jacobians."""
    s1, s2 = s_mat[..., 0:1, :], s_mat[..., 1:2, :]
    return np.concatenate([
        2.0 * s1 @ ch @ j1,
        2.0 * s2 @ ch @ j2,
        s1 @ ch @ j2 + s2 @ ch @ j1,
    ], axis=-2)


def extent_noise_moments(
    cy,
    m_mat,
    cp,
    p_hat,
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
    vbar = _square_mean(cy) - _matvec(m_mat, np.asarray(p_hat, dtype=float))
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


def centered_pseudo_measurement(y_quad, cy, m_mat, p_hat) -> np.ndarray:
    """Recenter a pseudo-measurement so its noise model is zero-mean.

    Subtracts the residual-covariance contribution and adds back the current
    extent estimate mapped through the pseudo-measurement matrix.
    """
    y_quad = np.asarray(y_quad, dtype=float)
    cy = np.asarray(cy, dtype=float)
    m_mat = np.asarray(m_mat, dtype=float)
    return y_quad - _square_mean(cy) + _matvec(m_mat, np.asarray(p_hat, dtype=float))


def innovations(x, cx, p, cp, y, ch, cv, min_axis: float, trace=None):
    """Innovation arrays (dqx, dox, dqp, dop) of a stack of detections.

    Detection y[k] is linearized at its own row's moments x[k], cx[k], p[k],
    cp[k] and carries the sensor noise cv[k].  Both linear models are built
    from the same pre-update estimates; the extent mean is first wrapped and
    its semi-axes clamped to min_axis.  A trace records every kinematic noise
    covariance Rx that gets inverted.
    """
    p = clamp_extent(p, min_axis)
    # S and its row Jacobians feed both linear models; build them once.
    geometry = (shape_matrix(p), *shape_row_jacobians(p))
    rx = sym(_shape_noise(*geometry, cp, ch) + cv)
    if trace is not None:
        trace.record_rx(rx)
    vx = spd_inv(rx, name="kinematic measurement noise")
    dqx, dox = innovation(kinematic_measurement_matrix(x.shape[-1]), vx, y)
    cy = residual_cov(cx, rx)
    m_mat = _measurement_matrix(*geometry, ch)
    _, rp = extent_noise_moments(cy, m_mat, cp, p)
    vp = spd_inv(rp, name="extent pseudo-measurement noise")
    y_tilde = centered_pseudo_measurement(pseudo_measurement(y, x), cy, m_mat, p)
    dqp, dop = innovation(m_mat, vp, y_tilde)
    return dqx, dox, dqp, dop
