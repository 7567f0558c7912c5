"""Information-form primitives: prediction and moment conversion.

State is carried as an information vector q = Omega @ x_hat and information
matrix Omega = C^-1, which makes measurement corrections additive and lets
distributed schemes fuse by summation or averaging.  A state may carry
leading stack axes, such as a node axis, q (n, d) and Omega (n, d, d), or a
realization and a node axis, q (R, n, d) and Omega (R, n, d, d); every
primitive below then acts on each slice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import _matvec, spd_inv, spd_solve, sym

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


def predict(info: InformationState, f: np.ndarray, ww: np.ndarray,
            x_hat: np.ndarray) -> InformationState:
    """Time update in information form of a state whose mean x_hat the
    caller already holds.

    Uses the inverse-free arrangement: with G = Omega + F.T Ww F,
    Omega' = Ww - Ww F G^-1 F.T Ww and q' = Omega' F x_hat.  The inner
    inversion is a symmetric positive definite solve.
    """
    f = np.asarray(f, dtype=float)
    ww = np.asarray(ww, dtype=float)
    gram = sym(info.omega + f.T @ ww @ f)
    b = ww @ f  # Omega' = Ww - B G^-1 B.T
    omega_next = sym(ww - b @ spd_solve(gram, np.broadcast_to(b.T, gram.shape),
                                        name="predicted information gram"))
    return InformationState(q=_matvec(omega_next, np.asarray(x_hat, dtype=float) @ f.T),
                            omega=omega_next)


def to_moments(info: InformationState) -> tuple[np.ndarray, np.ndarray]:
    """Recover (x_hat, C) from an information state."""
    cov = spd_inv(info.omega, name="information matrix")
    return _matvec(cov, info.q), cov


def from_moments(x_hat, cov) -> InformationState:
    """Build an information state from a mean and positive definite covariance."""
    x_hat = np.asarray(x_hat, dtype=float)
    omega = spd_inv(np.asarray(cov, dtype=float), name="covariance")
    return InformationState(q=_matvec(omega, x_hat), omega=omega)
