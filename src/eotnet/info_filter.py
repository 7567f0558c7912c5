"""Information-form primitives: prediction and moment conversion.

State is carried as an information vector q = Omega @ x_hat and information
matrix Omega = C^-1, which makes measurement corrections additive and lets
distributed schemes fuse by summation or averaging.  The time update needs no
such form: it predicts the moments the filter records anyway and converts
the result back.  A state may carry leading stack axes, such as a node axis,
q (n, d) and Omega (n, d, d), or a realization and a node axis, q (R, n, d)
and Omega (R, n, d, d); every primitive below then acts on each slice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import _matvec, spd_inv

__all__ = [
    "InformationState",
    "predict",
    "to_moments",
    "from_moments",
]


@dataclass(frozen=True)
class InformationState:
    """Information vector and information matrix for one estimated quantity,
    on one node (q (d,), omega (d, d)) or stacked (q (..., d),
    omega (..., d, d))."""

    q: np.ndarray
    omega: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        omega = np.asarray(self.omega, dtype=float)
        if q.ndim < 1 or omega.shape != q.shape + q.shape[-1:]:
            raise ValueError(
                f"inconsistent information state shapes {q.shape} / {omega.shape}"
            )
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "omega", omega)

    @property
    def dim(self) -> int:
        return self.q.shape[-1]


def predict(x_hat: np.ndarray, cov: np.ndarray, f: np.ndarray,
            cw: np.ndarray) -> InformationState:
    """Time update of a state whose moments (x_hat, C) the caller already
    holds, with transition F and process covariance Cw: the covariance-form
    Kalman step (F x_hat, F C F.T + Cw), returned in information form."""
    f = np.asarray(f, dtype=float)
    return from_moments(x_hat @ f.T, f @ cov @ f.T + cw)


def to_moments(info: InformationState) -> tuple[np.ndarray, np.ndarray]:
    """Recover (x_hat, C) from an information state."""
    cov = spd_inv(info.omega, name="information matrix")
    return _matvec(cov, info.q), cov


def from_moments(x_hat, cov) -> InformationState:
    """Build an information state from a mean and positive definite covariance."""
    x_hat = np.asarray(x_hat, dtype=float)
    omega = spd_inv(np.asarray(cov, dtype=float), name="covariance")
    return InformationState(q=_matvec(omega, x_hat), omega=omega)
