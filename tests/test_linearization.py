import re

import numpy as np
import pytest

from eotnet.geometry import shape_matrix, wrap_angle
from eotnet._linalg import (_adjugate_pass, _closed_form, _cofactor_pass, _schur_offsets, as_cov,
                            spd_inv)
from eotnet.linearization import innovations
from oracles import (
    centered_pseudo_measurement,
    extent_measurement_matrix,
    extent_noise_moments,
    kinematic_noise_cov,
    position_pair,
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
    got, want = spd_inv(spd), np.linalg.inv(spd)
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
        innovations(*position_pair(x, cx), p, cps, y, ch, indefinite)
    nonfinite = cvs.copy()
    nonfinite[2, 0, 0] = np.nan
    with pytest.raises(ValueError,
                       match=r"kinematic measurement noise \(node 2\) must not contain"):
        innovations(*position_pair(x, cx), p, cps, y, ch, nonfinite)
    # With at, a failing row is named by its detection's (run, node).
    at = np.array([[0, 4], [1, 2], [1, 5]])
    with pytest.raises(np.linalg.LinAlgError,
                       match=r"kinematic measurement noise \(run 1, node 2\) is singular"):
        innovations(*position_pair(x, cx), p, cps, y, ch, indefinite, at=at)


def test_innovations_name_the_bad_extent_noise_row():
    rng = np.random.default_rng(16)
    p_hat, _, cp, ch, cv = random_config(rng)
    x, cx = np.zeros((3, 4)), np.stack([np.eye(4)] * 3)
    p, cps, cvs = np.stack([p_hat] * 3), np.stack([cp] * 3), np.stack([cv] * 3)
    y = rng.normal(size=(3, 2))
    # A residual covariance of 1e75 gives an Rp of about 1e150, whose
    # determinant overflows; Rp is still inverted, as LAPACK would.
    huge = cx.copy()
    huge[2, :2, :2] = 1e75 * np.eye(2)
    assert np.isfinite(innovations(*position_pair(x, huge), p, cps, y, ch, cvs)).all()
    # At 1e160 Rp's fourth moments overflow: the row is named, with no
    # floating-point warning first.
    huge[2, :2, :2] = 1e160 * np.eye(2)
    with pytest.raises(ValueError, match=r"extent pseudo-measurement noise "
                       r"\(node 2\) must not contain infs or NaNs"):
        innovations(*position_pair(x, huge), p, cps, y, ch, cvs)
    # A NaN in the position's covariance reaches the linearization as a NaN
    # information matrix, which is named before any noise is inverted: by
    # its row of row_at, or of at without it.
    nan = cx.copy()
    nan[2, 0, 0] = np.nan
    with pytest.raises(ValueError, match=r"^information matrix "
                       r"\(node 2\) must not contain infs or NaNs"):
        innovations(*position_pair(x, nan), p, cps, y, ch, cvs)
    at = np.array([[0, 4], [1, 2], [1, 5]])
    with pytest.raises(ValueError, match=r"^information matrix \(run 1, node 5\)"):
        innovations(*position_pair(x, nan), p, cps, y, ch, cvs, at=at)
    with pytest.raises(ValueError, match=r"^information matrix \(run 1, node 0\)"):
        innovations(*position_pair(x, nan), p, cps, y, ch, cvs, at=at, row_at=at * [1, 0])


def test_closed_form_2x2_inverse_names_a_row_singular_to_working_precision():
    # Cholesky succeeds on this matrix, but a d - b^2 rounds to 0.
    edge = np.array([[0.5247914532927936, 1.7199053588004087],
                     [1.7199053588004087, 5.6366665742553215]])
    assert edge[0, 0] * edge[1, 1] - edge[0, 1] ** 2 == 0.0
    np.linalg.cholesky(edge)
    with pytest.raises(np.linalg.LinAlgError, match=r"noise \(node 1\) is singular"):
        spd_inv(np.stack([np.diag([2.0, 4.0]), edge]), "noise")


def random_rotations(rng, n, d):
    q, r = np.linalg.qr(rng.normal(size=(n, d, d)))
    return q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[:, None, :]


def test_closed_form_3x3_inverse_matches_lapack():
    rng = np.random.default_rng(17)
    # condition numbers from 1 to 1e8, at scales from 1e-6 to 1e6
    cond = np.exp(rng.uniform(0.0, np.log(1e8), 500))
    eig = np.stack([np.ones(500), cond ** rng.uniform(0.0, 1.0, 500), cond], axis=-1)
    eig *= np.exp(rng.uniform(-14.0, 14.0, (500, 1)))
    q = random_rotations(rng, 500, 3)
    spd = (q * eig[:, None, :]) @ q.swapaxes(-1, -2)
    spd = 0.5 * (spd + spd.swapaxes(-1, -2))
    got, want = spd_inv(spd), np.linalg.inv(spd)
    err = np.abs(got - want).max(axis=(1, 2)) / np.abs(want).max(axis=(1, 2))
    assert (err <= 1e-14 * np.linalg.cond(spd)).all()
    assert np.array_equal(got, got.swapaxes(-1, -2))
    assert np.array_equal(got, _closed_form(_cofactor_pass, spd)[0])


def test_sylvester_verdict_equals_choleskys_on_symmetric_matrices():
    rng = np.random.default_rng(18)
    n = 20000
    # Rotated spectra whose smallest eigenvalue, of either sign, lies 1 to
    # 1e-6 times the others: definite and indefinite draws with condition
    # numbers up to 1e8, far from where rounding decides the verdict; and the
    # symmetric parts of Gaussian matrices, mostly indefinite.
    eig = np.stack([rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-6.0, 0.0, n),
                    *10.0 ** rng.uniform(0.0, 2.0, (2, n))], axis=-1)
    q = random_rotations(rng, n, 3)
    g = rng.normal(size=(n, 3, 3))
    draws = np.concatenate([(q * eig[:, None, :]) @ q.swapaxes(-1, -2), g + g.swapaxes(-1, -2)])
    draws = 0.5 * (draws + draws.swapaxes(-1, -2))
    _, ok = _closed_form(_cofactor_pass, draws)

    def cholesky_accepts(m):
        try:
            np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            return False
        return True

    want = np.array([cholesky_accepts(m) for m in draws])
    assert 0.2 < want.mean() < 0.8
    assert np.array_equal(ok, want)


def test_closed_form_3x3_inverse_names_a_row_singular_to_working_precision():
    # Cholesky succeeds on this matrix, but its determinant rounds to 0.
    edge = np.eye(3)
    edge[:2, :2] = [[0.5247914532927936, 1.7199053588004087],
                    [1.7199053588004087, 5.6366665742553215]]
    np.linalg.cholesky(edge)
    assert not _closed_form(_cofactor_pass, edge)[1]
    with pytest.raises(np.linalg.LinAlgError,
                       match=r"noise \(run 1, node 0\) is singular .*\(cond "):
        spd_inv(np.stack([np.stack([np.eye(3), np.eye(3)]), np.stack([edge, np.eye(3)])]),
                "noise")


@pytest.mark.parametrize("d", [2, 3, 4])
def test_a_stack_deeper_than_run_and_node_is_named_by_its_slice(d):
    stack = np.broadcast_to(np.eye(d), (2, 2, 2, d, d)).copy()
    stack[1, 0, 1] = -np.eye(d)
    name = re.escape("noise (slice (1, 0, 1))")
    with pytest.raises(np.linalg.LinAlgError,
                       match=f"^{name} is singular or not positive definite "):
        spd_inv(stack, "noise")
    stack[1, 0, 1, 0, 0] = np.nan
    with pytest.raises(ValueError, match=f"^{name} must not contain infs or NaNs$"):
        spd_inv(stack, "noise")


@pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 2)])
def test_as_cov_needs_a_square_matrix(shape):
    message = f"noise must be square, got shape {shape}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        as_cov(np.ones(shape), "noise")


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 1), (0, 2), (1, 2), (2, 2)])
def test_closed_form_inverses_reject_infs_and_nans(value, entry):
    for d in (2, 3):
        if max(entry) >= d:
            continue
        bad = np.stack([np.eye(d) * 2.0] * 3)
        bad[1][entry] = bad[1][entry[::-1]] = value
        with pytest.raises(ValueError, match=r"noise \(node 1\) must not contain infs or NaNs"):
            spd_inv(bad, "noise")


@pytest.mark.parametrize("d", [2, 3], ids=["spd_inv-2", "spd_inv-3"])
def test_stacked_closed_form_inverses_equal_slice_by_slice_calls(d):
    rng = np.random.default_rng(19)
    a = rng.normal(size=(4, 5, d, d))
    spd = a @ a.swapaxes(-1, -2) + 0.1 * np.eye(d)
    spd = 0.5 * (spd + spd.swapaxes(-1, -2))
    stacked = spd_inv(spd)
    assert stacked.flags.c_contiguous and stacked.shape == spd.shape
    for index in np.ndindex(4, 5):
        solo = spd_inv(spd[index])
        assert solo.flags.c_contiguous and solo.shape == (d, d)
        assert np.array_equal(stacked[index], solo)
        assert np.array_equal(spd_inv(spd[index][None])[0], solo)
    # a non-contiguous stack reads the same numbers
    assert np.array_equal(spd_inv(spd.swapaxes(0, 1)), stacked.swapaxes(0, 1))


@pytest.mark.parametrize("d", [2, 3], ids=["spd_inv-2", "spd_inv-3"])
def test_closed_form_inverses_keep_lapacks_range(d):
    # Scaled by 1e+-100, 1e-160 or 1e+-300, a slice's determinant leaves the
    # double range or turns subnormal, but its inverse does not: it must come
    # out as LAPACK's.
    w = 0.75 * np.eye(d) + 0.25
    scaled = np.stack([s * m for s in (1e-300, 1e-160, 1e-100, 1e100, 1e300)
                       for m in (np.eye(d), w)])
    got, want = spd_inv(scaled), np.linalg.inv(scaled)
    err = np.abs(got - want).max(axis=(1, 2)) / np.abs(want).max(axis=(1, 2))
    assert (err <= 1e-15).all()
    assert spd_inv(np.zeros((0, d, d))).shape == (0, d, d)
    # Each slice is scaled on its own, whatever the stack around it.
    mixed = spd_inv(np.concatenate([scaled, w[None]]))
    assert np.array_equal(mixed[:-1], got) and np.array_equal(mixed[-1], spd_inv(w))
    # Diagonals 2^1000 apart, and, for 3x3, slices whose cofactor C00
    # overflows or C11 underflows although their determinant does neither.
    # Scaling by powers of two is exact, so the inverse is the unscaled
    # one's, rescaled, bit for bit.
    g = np.random.default_rng(21).normal(size=(d, d))
    u = g @ g.T + np.eye(d)  # entries with full mantissas, which rounding can show
    u = 0.5 * (u + u.T)
    v = u.copy()
    v[-1, -2] = v[-2, -1] = 0.0
    for m, s in ((u, [2.0 ** -500, 1.0, 2.0 ** 500]), (v, [2.0 ** -300, 2.0 ** 300, 2.0 ** 300]),
                 (u, [2.0 ** -280, 2.0 ** 300, 2.0 ** -240])):
        s = np.array(s[:d])
        assert np.array_equal(spd_inv(m * s[:, None] * s), spd_inv(m) / s[:, None] / s)
    # A slice whose determinant overflows because it is indefinite is named
    # by the Cholesky check, with no floating-point warning first.
    bad = np.stack([np.eye(d), np.eye(d)])
    bad[1, 0, 1] = bad[1, 1, 0] = 1e200
    with pytest.raises(np.linalg.LinAlgError, match=r"noise \(node 1\) is singular"):
        spd_inv(bad, "noise")


def position_marginal(omega, q):
    """The position block and mean of 4x4 information pairs by the
    offsets of _schur_offsets, and the offsets' verdict: ((k, 2, 2), (k, 2),
    (k,)).  The Schur complement Ω_pp - B is inverted in closed form."""
    a, b, ok = _schur_offsets(q[:, 2:], omega[:, :2, 2:], omega[:, 2:, 2:])
    cov, ok_s = _closed_form(_adjugate_pass, omega[:, :2, :2] - b)
    return cov, (cov @ (q[:, :2] - a)[..., None])[..., 0], ok & ok_s


def rotated_4x4(rng, n, max_cond):
    """n symmetric 4x4 matrices on rotated spectra with condition numbers
    from 1 to max_cond, largest eigenvalue 1."""
    cond = np.exp(rng.uniform(0.0, np.log(max_cond), n))
    eig = np.stack([np.ones(n), *cond ** rng.uniform(0.0, 1.0, (2, n)), cond], axis=-1)
    q = random_rotations(rng, n, 4)
    spd = (q * (eig / cond[:, None])[:, None, :]) @ q.swapaxes(-1, -2)
    return 0.5 * (spd + spd.swapaxes(-1, -2))


def test_schur_offsets_give_lapacks_position_marginal():
    rng = np.random.default_rng(22)
    # condition numbers from 1 to 1e8, at scales from 1e-6 to 1e6 and at 1e+-300
    spd = rotated_4x4(rng, 1500, 1e8)
    scale = np.concatenate([np.exp(rng.uniform(-14.0, 14.0, 500)), np.full(500, 1e300),
                            np.full(500, 1e-300 * 1e8)])
    omega = spd * scale[:, None, None]
    x = rng.normal(size=(1500, 4))
    q = (omega @ x[..., None])[..., 0]
    cov, mean, ok = position_marginal(omega, q)
    assert ok.all()
    want_cov = np.linalg.inv(omega)
    want_mean = (want_cov @ q[..., None])[:, :2, 0]
    cond = np.linalg.cond(spd)
    err = (np.abs(cov - want_cov[:, :2, :2]).max(axis=(1, 2))
           / np.abs(want_cov[:, :2, :2]).max(axis=(1, 2)))
    assert (err <= 1e-14 * cond).all()
    err = np.abs(mean - want_mean).max(axis=1) / np.abs(x).max(axis=1)
    assert (err <= 1e-14 * cond).all()
    assert np.array_equal(cov, cov.swapaxes(-1, -2))


def test_schur_offsets_verdict_equals_choleskys_on_the_whole_matrix():
    rng = np.random.default_rng(23)
    n = 20000
    # As for 3x3: rotated spectra whose smallest eigenvalue, of either sign,
    # lies 1 to 1e-6 times the others, and the symmetric parts of Gaussian
    # matrices.  Either block may hold the indefinite direction.
    eig = np.stack([rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-6.0, 0.0, n),
                    *10.0 ** rng.uniform(0.0, 2.0, (3, n))], axis=-1)
    q = random_rotations(rng, n, 4)
    g = rng.normal(size=(n, 4, 4))
    draws = np.concatenate([(q * eig[:, None, :]) @ q.swapaxes(-1, -2), g + g.swapaxes(-1, -2)])
    draws = 0.5 * (draws + draws.swapaxes(-1, -2))
    *_, ok = position_marginal(draws, np.zeros((2 * n, 4)))

    def cholesky_accepts(m):
        try:
            np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            return False
        return True

    want = np.array([cholesky_accepts(m) for m in draws])
    assert 0.2 < want.mean() < 0.8
    assert np.array_equal(ok, want)


def test_stacked_schur_offsets_equal_slice_by_slice_calls():
    rng = np.random.default_rng(24)
    omega = rotated_4x4(rng, 20, 1e4).reshape(4, 5, 4, 4) * 1e3
    q = rng.normal(size=(4, 5, 4))
    stacked = _schur_offsets(q[..., 2:], omega[..., :2, 2:], omega[..., 2:, 2:])
    for index in np.ndindex(4, 5):
        solo = _schur_offsets(q[index][2:], omega[index][:2, 2:], omega[index][2:, 2:])
        for got, want in zip(stacked, solo):
            assert np.array_equal(got[index], want)
    a, b, ok = stacked
    assert ok.all() and np.array_equal(b, b.swapaxes(-1, -2))
    # A failing Ω_vv is named by its slice, or by its row of at.
    bad = omega.copy()
    bad[2, 3, 2:, 2:] = -np.eye(2)
    with pytest.raises(np.linalg.LinAlgError,
                       match=r"^information matrix \(run 2, node 3\) is singular"):
        _schur_offsets(q[..., 2:], bad[..., :2, 2:], bad[..., 2:, 2:], "information matrix")
    bad[2, 3, 3, 3] = np.nan
    with pytest.raises(ValueError, match=r"^information matrix \(run 36, node 37\) must not"):
        _schur_offsets(q[..., 2:], bad[..., :2, 2:], bad[..., 2:, 2:], "information matrix",
                       at=10 + np.arange(40).reshape(4, 5, 2))
