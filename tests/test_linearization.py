import numpy as np
import pytest

from eotnet.geometry import shape_matrix, wrap_angle
from eotnet._linalg import _spd_inv2
from eotnet.linearization import innovations
from oracles import (
    centered_pseudo_measurement,
    extent_measurement_matrix,
    extent_noise_moments,
    kinematic_noise_cov,
    pseudo_measurement,
    quartic_moment_cov,
    quartic_moment_mean,
    residual_cov,
    sample_linearized_residuals,
    shape_row_jacobians,
)


def random_config(rng, cp_scale=0.02):
    """A well-scaled linearization point: O(1) extents, modest prior spread."""
    p_hat = np.array([rng.uniform(-3, 3), rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)])
    a = rng.normal(size=(2, 2))
    cx = a @ a.T + 0.2 * np.eye(2)
    cp = np.diag(rng.uniform(0.2, 1.0, 3)) * cp_scale
    ch = np.eye(2) * rng.uniform(0.2, 0.5)
    cv = np.diag(rng.uniform(0.2, 1.5, 2))
    return p_hat, cx, cp, ch, cv


def test_kinematic_noise_cov_no_extent_uncertainty():
    rx = kinematic_noise_cov(np.array([0.0, 1.0, 1.0]), np.zeros((3, 3)),
                             np.eye(2) / 3, np.diag([3.0, 9.0]))
    assert np.allclose(rx, np.diag([1 / 3 + 3, 1 / 3 + 9]))


def test_kinematic_noise_cov_spread_symmetry_and_reduction():
    rng = np.random.default_rng(5)
    for _ in range(20):
        p_hat, _, cp, ch, cv = random_config(rng)
        rx = kinematic_noise_cov(p_hat, cp, ch, cv)
        assert np.allclose(rx, rx.T, atol=1e-14)
        # with no extent spread the scattering + sensor terms remain exactly
        s = shape_matrix(p_hat)
        rx0 = kinematic_noise_cov(p_hat, np.zeros((3, 3)), ch, cv)
        assert np.allclose(rx0, s @ ch @ s.T + cv, atol=1e-14)


def test_kinematic_noise_cov_rejects_non_psd():
    with pytest.raises(ValueError):
        kinematic_noise_cov(np.array([0, 1, 1]), -np.eye(3), np.eye(2), np.eye(2))


def test_kinematic_noise_cov_matches_sampling():
    rng = np.random.default_rng(6)
    p_hat, _, cp, ch, cv = random_config(rng, cp_scale=0.05)
    rx = kinematic_noise_cov(p_hat, cp, ch, cv)
    s = shape_matrix(p_hat)
    j1, j2 = shape_row_jacobians(p_hat)
    d = sample_linearized_residuals(rng, 1_000_000, np.zeros((2, 2)), s, j1, j2, cp, ch, cv)
    assert np.allclose(np.cov(d.T), rx, rtol=0.02, atol=0.02 * np.abs(rx).max())


def test_residual_cov():
    rx = np.diag([2.0, 3.0])
    assert np.allclose(residual_cov(np.zeros((4, 4)), rx), rx)
    assert np.allclose(residual_cov(np.eye(4), np.eye(2)), 2 * np.eye(2))
    rng = np.random.default_rng(7)
    a = rng.normal(size=(4, 4))
    cy = residual_cov(a @ a.T, rx)
    assert np.linalg.eigvalsh(cy).min() >= 0


def test_pseudo_measurement_values():
    x_hat = np.array([1.0, 1.0, 0.0, 0.0])
    assert np.allclose(pseudo_measurement([3.0, 4.0], x_hat), [4.0, 9.0, 6.0])
    assert np.allclose(pseudo_measurement([1.0, 1.0], x_hat), [0.0, 0.0, 0.0])
    assert np.allclose(pseudo_measurement([2.0, 1.0], x_hat), [1.0, 0.0, 0.0])


def test_extent_measurement_matrix_closed_form():
    m = extent_measurement_matrix(np.array([0.0, 2.0, 1.0]), np.eye(2))
    assert np.allclose(m, [[0, 4, 0], [0, 0, 2], [3, 0, 0]], atol=1e-14)


def test_extent_measurement_matrix_linear_in_ch():
    rng = np.random.default_rng(8)
    p_hat, _, _, ch, _ = random_config(rng)
    m1 = extent_measurement_matrix(p_hat, ch)
    m3 = extent_measurement_matrix(p_hat, 3.0 * ch)
    assert np.allclose(m3, 3.0 * m1)


def test_extent_measurement_matrix_half_turn_invariant():
    rng = np.random.default_rng(9)
    for _ in range(10):
        p_hat, _, _, ch, _ = random_config(rng)
        flipped = np.array([wrap_angle(p_hat[0] + np.pi), p_hat[1], p_hat[2]])
        assert np.allclose(extent_measurement_matrix(p_hat, ch),
                           extent_measurement_matrix(flipped, ch), atol=1e-12)


def test_extent_noise_moments_identity_case():
    p_hat = np.array([0.0, 1.0, 1.0])
    vbar, rp = extent_noise_moments(np.eye(2), np.zeros((3, 3)), np.zeros((3, 3)),
                                    p_hat, floor=False)
    assert np.allclose(vbar, [1.0, 1.0, 0.0])
    assert np.allclose(rp, np.diag([2.0, 2.0, 1.0]))


def test_extent_noise_moments_match_closed_form_oracle():
    # moment matching: model mean/cov against the explicit term-by-term
    # expansion, on 200 random configurations
    rng = np.random.default_rng(10)
    for _ in range(200):
        p_hat, cx, cp, ch, cv = random_config(rng)
        rx = kinematic_noise_cov(p_hat, cp, ch, cv)
        cy = residual_cov(cx, rx)
        m = extent_measurement_matrix(p_hat, ch)
        vbar, rp = extent_noise_moments(cy, m, cp, p_hat, floor=False)
        s = shape_matrix(p_hat)
        j1, j2 = shape_row_jacobians(p_hat)
        mean_oracle = quartic_moment_mean(cx, s, j1, j2, cp, ch, cv)
        cov_oracle = quartic_moment_cov(cy)
        assert np.abs(vbar + m @ p_hat - mean_oracle).max() < 1e-10
        assert np.abs(rp + m @ cp @ m.T - cov_oracle).max() < 1e-10


def test_extent_noise_moments_floor_keeps_pd():
    rng = np.random.default_rng(11)
    for _ in range(50):
        p_hat, cx, cp, ch, cv = random_config(rng, cp_scale=0.5)
        rx = kinematic_noise_cov(p_hat, cp, ch, cv)
        cy = residual_cov(cx, rx)
        m = extent_measurement_matrix(p_hat, ch)
        _, rp = extent_noise_moments(cy, m, cp, p_hat)
        assert np.abs(rp - rp.T).max() < 1e-12
        assert np.linalg.eigvalsh(rp).min() > 0


def test_extent_model_matches_monte_carlo():
    rng = np.random.default_rng(12)
    for _ in range(3):
        p_hat, cx, cp, ch, cv = random_config(rng)
        rx = kinematic_noise_cov(p_hat, cp, ch, cv)
        cy = residual_cov(cx, rx)
        m = extent_measurement_matrix(p_hat, ch)
        vbar, rp = extent_noise_moments(cy, m, cp, p_hat)
        s = shape_matrix(p_hat)
        j1, j2 = shape_row_jacobians(p_hat)
        d = sample_linearized_residuals(rng, 1_000_000, cx, s, j1, j2, cp, ch, cv)
        y = np.stack([d[:, 0] ** 2, d[:, 1] ** 2, d[:, 0] * d[:, 1]], axis=1)
        mean_model = vbar + m @ p_hat
        cov_model = rp + m @ cp @ m.T
        assert np.abs(y.mean(0) - mean_model).max() < 0.03 * np.abs(mean_model).max()
        assert np.abs(np.cov(y.T) - cov_model).max() < 0.03 * np.abs(cov_model).max()


def test_centered_pseudo_measurement_zero_case():
    p_hat = np.array([0.0, 1.0, 1.0])
    cy = np.array([[2.0, 0.3], [0.3, 1.0]])
    y = np.array([cy[0, 0], cy[1, 1], cy[0, 1]])
    out = centered_pseudo_measurement(y, cy, np.zeros((3, 3)), p_hat)
    assert np.allclose(out, 0.0)


def test_centered_pseudo_measurement_affine():
    rng = np.random.default_rng(13)
    p_hat, cx, cp, ch, cv = random_config(rng)
    cy = residual_cov(cx, kinematic_noise_cov(p_hat, cp, ch, cv))
    m = extent_measurement_matrix(p_hat, ch)
    y1, y2 = rng.normal(size=3), rng.normal(size=3)
    lhs = (centered_pseudo_measurement(y1 + y2, cy, m, p_hat)
           - centered_pseudo_measurement(y1, cy, m, p_hat)
           - centered_pseudo_measurement(y2, cy, m, p_hat))
    # the recentering constant is subtracted once per call, so the difference
    # adds it back exactly once
    offset = np.array([cy[0, 0], cy[1, 1], cy[0, 1]]) - m @ p_hat
    assert np.allclose(lhs, offset)


def test_centered_pseudo_measurement_mean_is_model_prediction():
    # E[centered Y] equals M p at the linearization point
    rng = np.random.default_rng(14)
    p_hat, cx, cp, ch, cv = random_config(rng)
    cy = residual_cov(cx, kinematic_noise_cov(p_hat, cp, ch, cv))
    m = extent_measurement_matrix(p_hat, ch)
    s = shape_matrix(p_hat)
    j1, j2 = shape_row_jacobians(p_hat)
    d = sample_linearized_residuals(rng, 400_000, cx, s, j1, j2, cp, ch, cv)
    y = np.stack([d[:, 0] ** 2, d[:, 1] ** 2, d[:, 0] * d[:, 1]], axis=1)
    centered = np.array([centered_pseudo_measurement(yi, cy, m, p_hat) for yi in y[:50_000]])
    target = m @ p_hat
    tol = 0.03 * max(1.0, np.abs(target).max())
    assert np.abs(centered.mean(0) - target).max() < 5 * tol  # 50k-sample mean


def test_closed_form_2x2_inverse_matches_lapack():
    rng = np.random.default_rng(15)
    a = rng.normal(size=(500, 2, 2))
    # condition numbers from 1 to about 1e8
    scale = np.exp(rng.uniform(-9.0, 9.0, (500, 1)))
    spd = a @ a.swapaxes(-1, -2) + np.eye(2) * scale[:, :, None] * 1e-1
    spd = 0.5 * (spd + spd.swapaxes(-1, -2))
    got, want = _spd_inv2(spd), np.linalg.inv(spd)
    cond = np.linalg.cond(spd)
    err = np.abs(got - want).max(axis=(1, 2)) / np.abs(want).max(axis=(1, 2))
    assert (err <= 1e-14 * cond).all()


def test_innovations_name_the_bad_kinematic_noise_row():
    rng = np.random.default_rng(16)
    p_hat, _, cp, ch, cv = random_config(rng)
    x, cx = np.zeros((3, 4)), np.stack([np.eye(4)] * 3)
    p, cps, cvs = np.stack([p_hat] * 3), np.stack([cp] * 3), np.stack([cv] * 3)
    y = rng.normal(size=(3, 2))
    indefinite = cvs.copy()
    indefinite[1] = -100.0 * np.eye(2)
    with pytest.raises(np.linalg.LinAlgError,
                       match=r"kinematic measurement noise \(node 1\) is singular"):
        innovations(x, cx, p, cps, y, ch, indefinite)
    nonfinite = cvs.copy()
    nonfinite[2, 0, 0] = np.nan
    with pytest.raises(ValueError,
                       match=r"kinematic measurement noise \(node 2\) must not contain"):
        innovations(x, cx, p, cps, y, ch, nonfinite)


def test_closed_form_2x2_inverse_names_a_row_singular_to_working_precision():
    # Cholesky succeeds on this matrix, but a d - b^2 rounds to 0.
    edge = np.array([[0.5247914532927936, 1.7199053588004087],
                     [1.7199053588004087, 5.6366665742553215]])
    assert edge[0, 0] * edge[1, 1] - edge[0, 1] ** 2 == 0.0
    np.linalg.cholesky(edge)
    with pytest.raises(np.linalg.LinAlgError, match=r"noise \(node 1\) is singular"):
        _spd_inv2(np.stack([np.diag([2.0, 4.0]), edge]), "noise")
