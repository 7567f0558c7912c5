"""Object representation and synthetic measurement generation.

A tracked object carries a kinematic state (position, velocity, ...) and an
extent vector [orientation, semi-axis 1, semi-axis 2] describing a
perpendicular axis-symmetric shape (ellipse or rectangle).  Detections are
scattered over the object through a multiplicative noise vector acting on the
shape matrix, plus additive sensor noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._linalg import _from_entries, as_cov, sqrt_psd

__all__ = [
    "Extent",
    "KinematicState",
    "wrap_angle",
    "clamp_extent",
    "rot2",
    "shape_matrix",
    "sample_measurements",
    "extent_vertices",
]

TWO_PI = 2.0 * np.pi


def wrap_angle(angle):
    """Wrap an angle to (-pi, pi]; an array of angles is wrapped entrywise."""
    wrapped = np.pi - (np.pi - np.asarray(angle, dtype=float)) % TWO_PI
    return float(wrapped) if wrapped.ndim == 0 else wrapped


def clamp_extent(p, min_axis: float) -> np.ndarray:
    """An extent vector [alpha, l1, l2], or a stack (..., 3) of them, with the
    orientation wrapped to (-pi, pi] and the semi-axes clamped to min_axis."""
    p = np.asarray(p, dtype=float)
    return np.concatenate([wrap_angle(p[..., :1]), np.maximum(p[..., 1:], min_axis)], axis=-1)


def rot2(angle: float) -> np.ndarray:
    """2-D counterclockwise rotation matrix."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


@dataclass(frozen=True)
class Extent:
    """Orientation (rad, counterclockwise from x-axis) and semi-axis lengths (m).

    The orientation is wrapped to (-pi, pi] on construction; semi-axes must be
    strictly positive.
    """

    alpha: float
    l1: float
    l2: float

    def __post_init__(self):
        if not (self.l1 > 0.0 and self.l2 > 0.0):
            raise ValueError(f"semi-axes must be positive, got ({self.l1}, {self.l2})")
        if not np.isfinite([self.alpha, self.l1, self.l2]).all():
            raise ValueError("extent entries must be finite")
        object.__setattr__(self, "alpha", wrap_angle(self.alpha))

    @classmethod
    def from_array(cls, p, min_axis: float = 1e-3) -> "Extent":
        """Build from [alpha, l1, l2], clamping semi-axes to a positive floor."""
        p = np.asarray(p, dtype=float)
        return cls(float(p[0]), max(float(p[1]), min_axis), max(float(p[2]), min_axis))

    def as_array(self) -> np.ndarray:
        return np.array([self.alpha, self.l1, self.l2])


@dataclass(frozen=True)
class KinematicState:
    """Motion vector: 2-D position plus optional velocity (and further blocks)."""

    m: np.ndarray
    mdot: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        object.__setattr__(self, "m", np.asarray(self.m, dtype=float))
        object.__setattr__(self, "mdot", np.asarray(self.mdot, dtype=float))
        if self.m.shape != (2,):
            raise ValueError("position must be a 2-vector")
        if not np.isfinite(self.as_array()).all():
            raise ValueError("kinematic entries must be finite")

    @classmethod
    def from_array(cls, x) -> "KinematicState":
        x = np.asarray(x, dtype=float)
        return cls(x[:2], x[2:])

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.m, self.mdot])

    @property
    def dim(self) -> int:
        return 2 + self.mdot.size


def shape_matrix(p) -> np.ndarray:
    """Shape matrix compacting orientation and size, Rot(alpha) @ diag(l1, l2),
    of an extent vector [alpha, l1, l2] or of a stack (..., 3) of them."""
    p = np.asarray(p, dtype=float)
    c, s = np.cos(p[..., 0]), np.sin(p[..., 0])
    l1, l2 = p[..., 1], p[..., 2]
    return _from_entries([[c * l1, -s * l2], [s * l1, c * l2]])


def sample_measurements(
    x: KinematicState,
    p: Extent,
    ch: np.ndarray,
    cv: np.ndarray,
    count: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw position detections y = m + S @ h + v, h ~ N(0, ch), v ~ N(0, cv).

    Scattering sources are placed on/inside the object by the multiplicative
    noise h; v is additive sensor noise.  Returns an array of shape (count, 2).
    """
    ch = as_cov(ch, "multiplicative noise covariance")
    cv = as_cov(cv, "measurement noise covariance")
    return _scatter(x.m, shape_matrix(p.as_array()), sqrt_psd(ch), sqrt_psd(cv), count, rng)


def _scatter(m, s_mat, lh, lv, count: int, rng: np.random.Generator) -> np.ndarray:
    """count detections m + S h + v around center m with shape matrix S, the
    noises drawn through the factors lh and lv of their covariances: first
    every h, then every v."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    h = rng.standard_normal((count, 2)) @ lh.T
    v = rng.standard_normal((count, 2)) @ lv.T
    return m + h @ s_mat.T + v


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
