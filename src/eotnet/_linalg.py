"""Small dense symmetric linear-algebra helpers used throughout the filters.

Every symmetric positive definite solve or inverse is checked first, so an
indefinite information matrix fails loudly instead of drifting.  A 2x2 or 3x3
inverse comes in closed form from the cofactors, which also hold the leading
minors of Sylvester's criterion; larger matrices are checked by a Cholesky
factorization and inverted by LAPACK.  _schur_offsets gives the marginal of
the leading 2-block of a 4x4 information pair with no 4x4 inverse.  Every
helper takes one matrix or a stack of them along leading axes.
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
    factorization exists; a failing slice of a stack is named by its index
    by axes, (run, node) by default, or by its row of at, by _first_slice."""
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
    """Solve a @ x = b for symmetric positive definite a (..., d, d) and
    vectors b (..., d), slice by slice; a failing one is named as
    _checked_spd names it.  NumPy has no stacked triangular solve, so the
    Cholesky factor serves only as the check."""
    a = _checked_spd(a, name, axes, at)
    return np.linalg.solve(a, np.asarray(b, dtype=float)[..., None])[..., 0]


def spd_inv(a: np.ndarray, name: str = "matrix", at=None) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix, or of a stack of them;
    a failing slice is named as _checked_spd names it.  2x2 and 3x3 matrices
    are inverted in closed form, by _closed_form."""
    a = np.asarray(a, dtype=float)
    if a.shape[-1] in (2, 3):
        return _closed_form((_adjugate_pass, _cofactor_pass)[a.shape[-1] - 2], sym(a), name, at)[0]
    return sym(np.linalg.inv(_checked_spd(a, name, at=at)))


def _not_spd(a, bad, name: str, at=None) -> None:
    """Raise the named error of the first slice of a (..., d, d) flagged in
    bad by a closed-form kernel: _checked_spd's, or, for a slice singular to
    working precision that passes Cholesky, a LinAlgError in its words."""
    _checked_spd(a, name, at=at)
    index, where = _first_slice(bad, at=at)
    raise np.linalg.LinAlgError(f"{name}{where} is singular or not positive definite "
                                f"(cond {float(np.linalg.cond(a[index])):.3e})")


# The smallest positive normal double.
_TINY = np.finfo(float).tiny


@np.errstate(all="ignore")
def _closed_form(one_pass, a: np.ndarray, name: str | None = None,
                 at=None) -> tuple[np.ndarray, np.ndarray]:
    """_balanced_pass over a stack (..., d, d), C-ordered, with no warning; with
    a name, a failing slice raises _not_spd's error, named by _first_slice."""
    d = a.shape[-1]
    inv, ok, passed = _balanced_pass(one_pass, a.reshape(-1, d * d))
    if name is not None and not passed:
        _not_spd(a, ~ok.reshape(a.shape[:-2]), name, at)
    return inv.reshape(a.shape), ok.reshape(a.shape[:-2])


def _balanced_pass(one_pass, e: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    """Inverse and verdict of flat, exactly symmetric slices e (n, d * d) by
    one_pass, which accepts a slice only where every number its inverse is
    built from is a normal double, and whether every slice passed, from one
    count per pass; run it under np.errstate(all="ignore").
    A slice the first pass rejects is passed once more balanced: each
    diagonal entry i is taken into [0.5, 2) by S m S, S = diag(2^-k_i),
    which bounds every entry of a positive definite slice too, and the
    inverse is scaled back by S.  That is exact, changes no bit a first
    pass in range gave, and gives the kernels LAPACK's range.  A slice the
    second pass rejects is not positive definite to working precision, and
    its inverse is meaningless.  Each slice's numbers depend on it alone."""
    inv, ok = one_pass(e)
    if np.count_nonzero(ok) == len(ok):
        return inv, ok, True
    d, redo = (2 if e.shape[1] == 4 else 3), ~ok
    k = np.frexp(e[redo][:, ::d + 1])[1] >> 1
    s = (k[:, :, None] + k[:, None, :]).reshape(-1, d * d)
    inv_s, ok_s = one_pass(np.ldexp(e[redo], -s))
    inv[redo], ok[redo] = np.ldexp(inv_s, -s), ok_s
    return inv, ok, np.count_nonzero(ok_s) == len(ok_s)


# The adjugate [d, -b, -c, a] of a flat 2x2 matrix [a, b, c, d]: picks and signs.
_ADJUGATE, _ADJUGATE_SIGNS = np.array([3, 1, 2, 0]), np.array([1.0, -1.0, -1.0, 1.0])


def _adjugate_pass(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse and verdict of flat symmetric 2x2 slices m, (n, 4), from
    their adjugate.  A slice passes when m00 and det = m00 m11 - m01^2 are
    normal positive numbers, which is Sylvester's criterion; the inverse's
    entries are then entries of m divided by an accurate det."""
    det = m[:, 0] * m[:, 3] - m[:, 1] * m[:, 2]
    ok = (np.minimum(m[:, 0], det) >= _TINY) & (det < np.inf)
    return m.take(_ADJUGATE, axis=1) * _ADJUGATE_SIGNS / det[:, None], ok


# Cofactor C[i, j] = m[p] m[q] - m[r] m[s] of a symmetric 3x3 matrix m, flat
# index 3i + j, by its flat picks (p, q, r, s).  C[j, i] takes the same picks
# as C[i, j], so the adjugate is exactly symmetric.
_C00, _C01, _C02 = [4, 8, 5, 5], [2, 5, 1, 8], [1, 5, 2, 4]
_C11, _C12, _C22 = [0, 8, 2, 2], [1, 2, 0, 5], [0, 4, 1, 1]
# All picks at once, ordered p | r | q | s over the nine entries.
_COFACTORS = np.ravel(
    np.array([_C00, _C01, _C02, _C01, _C11, _C12, _C02, _C12, _C22]).T[[0, 2, 1, 3]])


def _cofactor_pass(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse and verdict of flat symmetric 3x3 slices m, (n, 9), from one
    cofactor pass.  The determinant is num / m00, num = C11 C22 - C12^2
    (Sylvester's determinant identity): the expansion along a row loses up
    to a factor cond(m) more to cancellation, while this keeps the error
    within a small multiple of eps cond(m), as LAPACK's.  A slice passes
    when the diagonal cofactors, num and det are normal positive numbers:
    Sylvester's criterion holds (C22 > 0, det > 0, and m00 = num / det > 0),
    no product that reaches the inverse has overflowed, and one that
    underflowed is negligible against the rest."""
    picks = m.take(_COFACTORS, axis=1)
    products = picks[:, :18] * picks[:, 18:]  # [m[p] m[q] | m[r] m[s]]
    cof = products[:, :9] - products[:, 9:]
    num = cof[:, 4] * cof[:, 8] - cof[:, 5] * cof[:, 5]
    det = num / m[:, 0]
    low = np.minimum(np.minimum(cof[:, 0], cof[:, 4]), np.minimum(cof[:, 8], num))
    ok = (np.minimum(low, det) >= _TINY) & (np.maximum(cof[:, 0], det) < np.inf)
    return cof / det[:, None], ok


@np.errstate(all="ignore")
def _schur_offsets(q_v, o_pv, o_vv, name: str | None = None, at=None):
    """Offsets (a, B) and verdict of stacked information pairs
    ([q_p, q_v], [[Ω_pp, Ω_pv], [Ω_vp, Ω_vv]]) of 2-vectors and 2x2 blocks,
    from q_v (..., 2), Ω_pv and Ω_vv (..., 2, 2): the pair of the marginal of
    the leading block is (q_p - a, Ω_pp - B).  Block elimination in Cholesky
    order: with L L.T = Ω_vv in closed form, W = L^-1 Ω_vp and z = L^-1 q_v
    give B = W.T W, exactly symmetric, and a = W.T z.  Through Ω_vv^-1, the
    marginal's inverse differed from LAPACK's by up to 3e5 eps cond on
    rotated spectra of cond up to 1e8; this order stays within 2 eps cond.
    A slice passes when Ω_vv's pivots o00 and o11 - o10^2 / o00 are finite
    normal positive numbers (Sylvester's criterion); with a name, a failing
    one raises _not_spd's error on Ω_vv, and without one its offsets are
    meaningless.  Each slice's numbers depend on that slice alone."""
    o00, o10 = o_vv[..., 0, 0], o_vv[..., 1, 0]
    l00 = np.sqrt(o00)
    l10 = o10 / l00
    pivot = o_vv[..., 1, 1] - l10 * l10
    ok = (np.minimum(o00, pivot) >= _TINY) & (np.maximum(o00, pivot) < np.inf)
    if name is not None and not ok.all():
        _not_spd(o_vv, ~ok, name, at)
    l11 = np.sqrt(pivot)
    w0 = o_pv[..., 0] / l00[..., None]
    w1 = (o_pv[..., 1] - l10[..., None] * w0) / l11[..., None]
    z0 = q_v[..., 0] / l00
    z1 = (q_v[..., 1] - l10 * z0) / l11
    b = w0[..., :, None] * w0[..., None, :] + w1[..., :, None] * w1[..., None, :]
    return w0 * z0[..., None] + w1 * z1[..., None], b, ok
