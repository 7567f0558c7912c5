"""Small dense symmetric linear-algebra helpers used throughout the filters.

Every symmetric positive definite solve is checked by a Cholesky factorization
first, so an indefinite information matrix fails loudly instead of drifting.
sym, spd_solve, spd_inv and the private helpers take one matrix or a stack of
them along a leading axis.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "sym",
    "as_cov",
    "sqrt_psd",
    "spd_solve",
    "spd_inv",
]


def sym(a: np.ndarray) -> np.ndarray:
    """Symmetrize a matrix or a stack of matrices, removing float drift."""
    return 0.5 * (a + a.swapaxes(-1, -2))


def _matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x for one matrix and vector or for stacks of both."""
    return (a @ x[..., None])[..., 0]


def _from_entries(rows) -> np.ndarray:
    """A matrix, or a stack of them, from a nested list of equally shaped
    entries: entry rows[i][j] of shape (...) becomes [..., i, j]."""
    return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)


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


def sqrt_psd(a: np.ndarray) -> np.ndarray:
    """Factor L with L @ L.T == a for a symmetric PSD matrix.

    Works for singular matrices (unlike Cholesky); eigenvalues slightly below
    zero from rounding are clipped.
    """
    w, v = np.linalg.eigh(sym(np.asarray(a, dtype=float)))
    return v * np.sqrt(np.clip(w, 0.0, None))


# The axis names of an (R, n) stack of realizations and nodes.
_RUN_NODE = ("run", "node")


def _first_slice(flags: np.ndarray, axes=_RUN_NODE, at=None) -> tuple[tuple, str]:
    """Index of the first set flag of a stack of flags, and its name by the
    full index and the last axis names: ' (node n)' in an (n,) stack,
    ' (run r, node n)' in an (R, n) stack, '' for a single flag.  A stack of
    gathered rows names a flag by its own index instead: at holds each
    flag's index by all of axes, one row (..., len(axes)) per flag."""
    flat = int(np.argmax(flags))
    index = np.unravel_index(flat, flags.shape)
    if at is not None:
        labels, values = axes, [int(i) for i in np.reshape(at, (-1, len(axes)))[flat]]
    elif not index:
        return index, ""
    elif len(index) <= len(axes):
        labels, values = axes[-len(index):], [int(i) for i in index]
    else:  # deeper stacks than the named axes are named by their index tuple alone
        labels, values = ("slice",), [tuple(map(int, index))]
    return index, " (" + ", ".join(f"{label} {i}" for label, i in zip(labels, values)) + ")"


def _checked_spd(a, name: str, axes=_RUN_NODE, at=None) -> np.ndarray:
    """sym(a), after checking that it is finite and that a Cholesky
    factorization exists.  A failing slice of a stack is named by its full
    index: the node of an (n, d, d) stack, the run and node of an
    (R, n, d, d) stack, or whatever two axes names; or by its row of at,
    as _first_slice names it."""
    a = sym(np.asarray(a, dtype=float))
    if not np.isfinite(a).all():
        _, where = _first_slice(~np.isfinite(a).all(axis=(-2, -1)), axes, at)
        raise ValueError(f"{name}{where} must not contain infs or NaNs")
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        lowest = np.linalg.eigvalsh(a)[..., 0]
        index, where = _first_slice(lowest == lowest.min(), axes, at)
        raise np.linalg.LinAlgError(
            f"{name}{where} is singular or not positive definite "
            f"(cond {float(np.linalg.cond(a[index])):.3e})"
        ) from exc
    return a


def spd_solve(a: np.ndarray, b: np.ndarray, name: str = "matrix",
              axes=_RUN_NODE, at=None) -> np.ndarray:
    """Solve a @ x = b for symmetric positive definite a.

    a may carry a leading stack axis, (n, d, d) against b of shape (n, d) or
    (n, d, k); each slice is solved on its own, and a failing one is named
    by axes, or by its row of at.  NumPy has no stacked triangular solve, so
    the Cholesky factor serves only as the check.
    """
    a = _checked_spd(a, name, axes, at)
    b = np.asarray(b, dtype=float)
    if b.ndim == a.ndim - 1:
        return np.linalg.solve(a, b[..., None])[..., 0]
    return np.linalg.solve(a, b)


def spd_inv(a: np.ndarray, name: str = "matrix", at=None) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix, or of a stack of them;
    a failing slice is named as _checked_spd names it."""
    return sym(np.linalg.inv(_checked_spd(a, name, at=at)))


# The adjugate [d, -b, -c, a] of a flat 2x2 matrix [a, b, c, d]: picks and signs.
_ADJUGATE, _ADJUGATE_SIGNS = np.array([3, 1, 2, 0]), np.array([1.0, -1.0, -1.0, 1.0])


def _spd_inv2(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """spd_inv of a stack (..., 2, 2) of exactly symmetric matrices, in closed
    form.  A slice that fails Sylvester's criterion (as infs and NaNs do)
    raises _checked_spd's named error, or, if it passes Cholesky but its
    determinant is not a positive finite number, a named LinAlgError."""
    e = a.reshape(-1, 4)
    det = e[:, 0] * e[:, 3] - e[:, 1] * e[:, 2]
    bad = ~((e[:, 0] > 0.0) & (det > 0.0) & (det < np.inf))
    if bad.any():
        _checked_spd(a, name)
        _, where = _first_slice(bad.reshape(a.shape[:-2]))
        raise np.linalg.LinAlgError(f"{name}{where} is singular or not positive definite "
                                    f"(determinant {float(det[bad][0]):.3e})")
    return (np.take(e, _ADJUGATE, axis=1) * _ADJUGATE_SIGNS / det[:, None]).reshape(a.shape)
