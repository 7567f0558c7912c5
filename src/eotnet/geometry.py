"""Extent geometry: angle wrapping, shape matrices and corners.

A tracked object carries a kinematic vector (position, then velocity) and an
extent vector [alpha, l1, l2]: the orientation and the two semi-axes of a
perpendicular axis-symmetric shape (ellipse or rectangle).  Truths and
reports wrap the orientation to (-pi, pi]; the filters keep it on any branch.
Detections are scattered over the object through a multiplicative noise
vector acting on the shape matrix, plus additive sensor noise
(scenario.build_scenario_run).
"""

from __future__ import annotations

import numpy as np

from ._linalg import _from_entries

__all__ = [
    "MIN_AXIS",
    "wrap_angle",
    "clamp_extent",
    "shape_matrix",
    "extent_vertices",
]

TWO_PI = 2.0 * np.pi
MIN_AXIS = 1e-3  # floor of a tracked semi-axis, in metres


def wrap_angle(angle):
    """Wrap an angle to (-pi, pi]; an array of angles is wrapped entrywise."""
    wrapped = np.pi - (np.pi - np.asarray(angle, dtype=float)) % TWO_PI
    return float(wrapped) if wrapped.ndim == 0 else wrapped


def clamp_extent(p) -> np.ndarray:
    """An extent vector [alpha, l1, l2], or a stack (..., 3) of them, with the
    orientation wrapped to (-pi, pi] and the semi-axes clamped to MIN_AXIS."""
    p = np.asarray(p, dtype=float)
    out = np.maximum(p, MIN_AXIS)
    out[..., 0] = wrap_angle(p[..., 0])
    return out


def shape_matrix(p) -> np.ndarray:
    """Shape matrix compacting orientation and size, Rot(alpha) @ diag(l1, l2),
    of an extent vector [alpha, l1, l2] or of a stack (..., 3) of them."""
    p = np.asarray(p, dtype=float)
    c, s = np.cos(p[..., 0]), np.sin(p[..., 0])
    l1, l2 = p[..., 1], p[..., 2]
    return _from_entries([[c * l1, -s * l2], [s * l1, c * l2]])


# Body-frame corners in fixed counterclockwise order, starting at (+l1, +l2).
_CORNER_SIGNS = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])


def extent_vertices(m, p) -> np.ndarray:
    """Corners of the rectangle centered at m with half-lengths l1, l2 rotated
    by alpha, counterclockwise from the body-frame (+l1, +l2) corner.

    m is a center (..., 2) and p an extent [alpha, l1, l2] or a stack (..., 3);
    the corners come out as (..., 4, 2).
    """
    m = np.asarray(m, dtype=float)
    return m[..., None, :] + _CORNER_SIGNS @ shape_matrix(p).swapaxes(-1, -2)
