"""Information-form primitives: the packed state layout, prediction and
moment conversion.

State is carried as an information vector q = Omega @ x_hat and information
matrix Omega = C^-1, which makes measurement corrections additive and lets
distributed schemes fuse by summation or averaging; the time update predicts
the moments the filter records and converts the result back.  Every
primitive acts on each slice of leading stack axes, such as (R, n) of
realizations and nodes.  The filters hold a node's kinematic and extent
pairs in one packed row [qx, Ωx, qp, Ωp], laid out by _columns.  The compact
innovation rows are its _position_columns(d) entries, laid out as a d = 2
packed row: [qx, Ωx] in columns 0:6, qp in 6:9 and Ωp in 9:18.
"""

from __future__ import annotations

from functools import cache
from math import isqrt

import numpy as np

from ._linalg import _matvec, spd_inv

__all__ = [
    "predict",
    "to_moments",
    "from_moments",
]


def _rows(lead: tuple, d: int):
    """Zeroed packed rows (*lead, d + d * d + 12) of a d-dimensional kinematic
    and a 3-dimensional extent state, and their _columns views."""
    packed = np.zeros((*lead, d + d * d + 12))
    return packed, _columns(packed)


def _columns(packed: np.ndarray):
    """Views (qx, Ωx, qp, Ωp) into packed rows (..., k).  The kinematic
    dimension d is the one positive root of k = d + d * d + 12, that is
    (2d + 1)^2 = 4k - 47; a width no d fits is rejected."""
    lead, width = packed.shape[:-1], packed.shape[-1]
    d = (isqrt(max(4 * width - 47, 0)) - 1) // 2
    if d < 1 or width != d + d * d + 12:
        raise ValueError(f"packed rows of width {width} hold no kinematic dimension")
    e = d + d * d
    return (packed[..., :d], packed[..., d:e].reshape(lead + (d, d)),
            packed[..., e:e + 3], packed[..., e + 3:].reshape(lead + (3, 3)))


@cache
def _position_columns(d: int) -> np.ndarray:
    """Columns [qx[:2], Ωx[:2, :2], qp, Ωp], those H = [I 0] writes, of rows of d."""
    qx, ox, qp, op = _columns(np.arange(d + d * d + 12))
    return np.concatenate([qx[:2], ox[:2, :2].ravel(), qp, op.ravel()])


def predict(x_hat: np.ndarray, cov: np.ndarray, f: np.ndarray,
            cw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Time update of a state whose moments (x_hat, C) the caller already
    holds, with transition F and process covariance Cw: the covariance-form
    Kalman step (F x_hat, F C F.T + Cw), returned as its pair (q, Ω)."""
    f = np.asarray(f, dtype=float)
    return from_moments(x_hat @ f.T, f @ cov @ f.T + cw)


def to_moments(q: np.ndarray, omega: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Recover (x_hat, C) from an information pair (q, Ω)."""
    cov = spd_inv(omega, name="information matrix")
    return _matvec(cov, np.asarray(q, dtype=float)), cov


def from_moments(x_hat, cov) -> tuple[np.ndarray, np.ndarray]:
    """The information pair (q, Ω) of a mean and positive definite covariance."""
    omega = spd_inv(np.asarray(cov, dtype=float), name="covariance")
    return _matvec(omega, np.asarray(x_hat, dtype=float)), omega
