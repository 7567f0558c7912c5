import numpy as np
import pytest

from eotnet.geometry import extent_vertices, shape_matrix, wrap_angle
from oracles import fd_shape_jacobians, rot2, sample_measurements, shape_row_jacobians


def test_wrap_angle_range_and_edges():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(np.pi) == pytest.approx(np.pi)
    assert wrap_angle(-np.pi) == pytest.approx(np.pi)
    assert wrap_angle(3 * np.pi / 2) == pytest.approx(-np.pi / 2)
    rng = np.random.default_rng(0)
    for a in rng.uniform(-50, 50, 200):
        w = wrap_angle(a)
        assert -np.pi < w <= np.pi
        rem = (a - w) % (2 * np.pi)
        assert min(rem, 2 * np.pi - rem) < 1e-9


def test_shape_matrix_identity_rotation():
    assert np.allclose(shape_matrix(np.array([0.0, 2.0, 3.0])), [[2, 0], [0, 3]])


def test_shape_matrix_pure_rotation():
    assert np.allclose(shape_matrix(np.array([np.pi / 2, 1.0, 1.0])), [[0, -1], [1, 0]],
                       atol=1e-15)


def test_shape_matrix_quarter_rotation_large_axes():
    s = shape_matrix(np.array([np.pi / 4, 170.0, 40.0]))
    c = np.cos(np.pi / 4)
    expected = np.array([[170 * c, -40 * c], [170 * c, 40 * c]])
    assert np.allclose(s, expected, rtol=1e-14)


def test_shape_matrix_invariants():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a, l1, l2 = rng.uniform(-3, 3), rng.uniform(0.1, 10), rng.uniform(0.1, 10)
        s = shape_matrix(np.array([a, l1, l2]))
        assert np.isclose(np.linalg.det(s), l1 * l2)
        circle = shape_matrix(np.array([a, l1, l1]))
        assert np.allclose(circle @ circle.T, l1 ** 2 * np.eye(2), rtol=1e-12, atol=1e-12)


def test_jacobians_zero_angle_closed_form():
    l1, l2 = 2.5, 0.7
    j1, j2 = shape_row_jacobians(np.array([0.0, l1, l2]))
    assert np.allclose(j1, [[0, 1, 0], [-l2, 0, 0]])
    assert np.allclose(j2, [[l1, 0, 0], [0, 0, 1]])


def test_jacobians_match_finite_differences():
    rng = np.random.default_rng(2)
    for _ in range(100):
        p = np.array([rng.uniform(-3, 3), rng.uniform(0.5, 8), rng.uniform(0.5, 8)])
        j1, j2 = shape_row_jacobians(p)
        f1, f2 = fd_shape_jacobians(shape_matrix, p)
        scale = max(1.0, np.abs(f1).max(), np.abs(f2).max())
        assert np.allclose(j1, f1, atol=1e-6 * scale)
        assert np.allclose(j2, f2, atol=1e-6 * scale)


def test_jacobian_cross_term_vanishes_for_circles():
    # S1 Ch J2 + S2 Ch J1 has a first column proportional to l1^2 - l2^2.
    for alpha in (0.0, 0.4, 1.2):
        p = np.array([alpha, 1.3, 1.3])
        s = shape_matrix(p)
        j1, j2 = shape_row_jacobians(p)
        ch = 0.7 * np.eye(2)
        cross = s[0] @ ch @ j2 + s[1] @ ch @ j1
        assert abs(cross[0]) < 1e-12


def test_sample_measurements_no_noise():
    ys = sample_measurements([3.0, -1.0], [0.3, 2.0, 1.0], np.zeros((2, 2)), np.zeros((2, 2)),
                             50, np.random.default_rng(3))
    assert ys.shape == (50, 2)
    assert np.allclose(ys, [3.0, -1.0])


def test_sample_measurements_moments():
    rng = np.random.default_rng(4)
    n = 100_000
    m = np.array([1.0, 2.0])
    p = np.array([0.0, 3.0, 1.5])
    ch = np.eye(2) / 3
    sigma2 = 0.5
    cv = sigma2 * np.eye(2)
    ys = sample_measurements(m, p, ch, cv, n, rng)
    # mean within 4 sigma / sqrt(n) per coordinate
    var = np.array([p[1] ** 2 / 3 + sigma2, p[2] ** 2 / 3 + sigma2])
    assert np.all(np.abs(ys.mean(0) - m) < 4 * np.sqrt(var / n))
    cov = np.cov(ys.T)
    assert np.allclose(np.diag(cov), var, rtol=0.05)


def test_extent_vertices_unit_square():
    v = extent_vertices(np.zeros(2), np.array([0.0, 1.0, 1.0]))
    assert np.allclose(v, [[1, 1], [-1, 1], [-1, -1], [1, -1]])


def test_extent_vertices_translation():
    p = np.array([0.7, 2.0, 1.0])
    v0 = extent_vertices(np.zeros(2), p)
    v1 = extent_vertices(np.array([5.0, 0.0]), p)
    assert np.allclose(v1 - v0, [5.0, 0.0])


def test_extent_vertices_quarter_turn():
    base = extent_vertices(np.zeros(2), np.array([0.0, 2.0, 1.0]))
    turned = extent_vertices(np.zeros(2), np.array([np.pi / 2, 2.0, 1.0]))
    assert np.allclose(turned, base @ rot2(np.pi / 2).T, atol=1e-12)


def test_extent_vertices_half_turn_same_set():
    p0 = extent_vertices(np.zeros(2), np.array([0.4, 2.0, 1.0]))
    p1 = extent_vertices(np.zeros(2), np.array([wrap_angle(0.4 + np.pi), 2.0, 1.0]))
    # same vertex set, cyclically shifted by two
    assert np.allclose(np.roll(p1, 2, axis=0), p0, atol=1e-12)
