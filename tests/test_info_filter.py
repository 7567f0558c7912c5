import numpy as np
import pytest

from eotnet.info_filter import (
    _columns,
    _rows,
    from_moments,
    predict,
    to_moments,
)
from oracles import innovation, kalman_predict_moments


def random_pd(rng, n, scale=1.0):
    a = rng.normal(size=(n, n))
    return scale * (a @ a.T + n * np.eye(n))


def test_innovation_identity():
    dq, domega = innovation(np.eye(2), np.eye(2), np.array([1.0, 2.0]))
    assert np.allclose(dq, [1.0, 2.0])
    assert np.allclose(domega, np.eye(2))


def test_innovation_zero_measurement():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(2, 4))
    v = random_pd(rng, 2)
    dq, domega = innovation(a, v, np.zeros(2))
    assert np.allclose(dq, 0.0)
    assert np.allclose(domega, a.T @ v @ a)


def test_innovation_scalar_case():
    dq, domega = innovation(np.array([[2.0]]), np.array([[3.0]]), np.array([5.0]))
    assert dq == pytest.approx(30.0)
    assert domega == pytest.approx(12.0)


def test_innovation_dimension_mismatch():
    with pytest.raises(ValueError):
        innovation(np.eye(2), np.eye(3), np.zeros(2))
    with pytest.raises(ValueError):
        innovation(np.eye(2), np.eye(2), np.zeros(3))


def test_predict_scalar():
    _, omega = predict(np.array([1.0]), np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]]))
    assert omega[0, 0] == pytest.approx(0.5)  # covariance 2 = P + Q


def test_predict_matches_covariance_form():
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = rng.integers(2, 6)
        x = rng.normal(size=n)
        cov = random_pd(rng, n)
        f = rng.normal(size=(n, n)) + np.eye(n)
        q_cov = random_pd(rng, n)
        out = predict(x, cov, f, q_cov)
        x_ref, cov_ref = kalman_predict_moments(x, cov, f, q_cov)
        x_out, cov_out = to_moments(*out)
        assert np.allclose(x_out, x_ref, rtol=1e-10, atol=1e-10 * np.abs(x_ref).max())
        assert np.allclose(cov_out, cov_ref, rtol=1e-10, atol=1e-10 * np.abs(cov_ref).max())
    # A stacked (R, n, d) state predicts each slice as the unstacked step does.
    x = rng.normal(size=(2, 3, 4))
    cov = np.stack([np.stack([random_pd(rng, 4) for _ in range(3)]) for _ in range(2)])
    f, q_cov = rng.normal(size=(4, 4)) + np.eye(4), random_pd(rng, 4)
    x_out, cov_out = to_moments(*predict(x, cov, f, q_cov))
    for index in np.ndindex(2, 3):
        x_ref, cov_ref = kalman_predict_moments(x[index], cov[index], f, q_cov)
        assert np.allclose(x_out[index], x_ref, rtol=1e-10, atol=1e-10 * np.abs(x_ref).max())
        assert np.allclose(cov_out[index], cov_ref, rtol=1e-10,
                           atol=1e-10 * np.abs(cov_ref).max())


def test_predict_tiny_process_noise_limit():
    rng = np.random.default_rng(5)
    x = rng.normal(size=4)
    cov = random_pd(rng, 4)
    f = np.eye(4)
    f[0, 2] = f[1, 3] = 2.0
    out = predict(x, cov, f, 1e-8 * np.eye(4))
    x_out, _ = to_moments(*out)
    assert np.allclose(x_out, f @ x, atol=1e-4)


def test_predict_singular_covariance_raises():
    with pytest.raises(np.linalg.LinAlgError, match="cond"):
        predict(np.zeros(2), np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)))


def test_moments_round_trip():
    rng = np.random.default_rng(6)
    assert np.allclose(to_moments(*from_moments([1.0, -2.0], np.eye(2)))[0], [1.0, -2.0])
    for _ in range(100):
        n = rng.integers(1, 6)
        x = rng.normal(size=n)
        cov = random_pd(rng, n)
        x2, cov2 = to_moments(*from_moments(x, cov))
        assert np.allclose(x2, x, rtol=1e-10, atol=1e-12)
        assert np.allclose(cov2, cov, rtol=1e-10, atol=1e-12)
        assert np.abs(cov2 - cov2.T).max() < 1e-12


def test_moments_singular_raises():
    with pytest.raises(np.linalg.LinAlgError):
        to_moments(np.zeros(2), np.zeros((2, 2)))
    with pytest.raises(np.linalg.LinAlgError):
        from_moments(np.zeros(2), np.zeros((2, 2)))


def test_symmetry_through_chained_cycles():
    rng = np.random.default_rng(7)
    q, omega = from_moments(rng.normal(size=3), random_pd(rng, 3))
    f = np.eye(3) + 0.1 * rng.normal(size=(3, 3))
    cw = random_pd(rng, 3)
    a = rng.normal(size=(2, 3))
    v = np.linalg.inv(random_pd(rng, 2))
    for _ in range(1000):
        dq, domega = innovation(a, v, rng.normal(size=2))
        q, omega = predict(*to_moments(q + dq, omega + domega), f, cw)
        assert np.abs(omega - omega.T).max() < 1e-12
    assert np.isfinite(q).all()


def test_indefinite_slice_of_a_run_node_stack_is_named():
    rng = np.random.default_rng(9)
    omega = np.stack([np.stack([random_pd(rng, 3) for _ in range(4)]) for _ in range(2)])
    omega[1, 2] = np.diag([1.0, -1.0, 1.0])
    q = np.zeros((2, 4, 3))
    with pytest.raises(np.linalg.LinAlgError, match=r"information matrix \(run 1, node 2\)"):
        to_moments(q, omega)
    with pytest.raises(np.linalg.LinAlgError, match=r"\(node 2\)"):
        to_moments(q[1], omega[1])


def test_nonfinite_slice_of_a_run_node_stack_is_named():
    rng = np.random.default_rng(10)
    omega = np.stack([np.stack([random_pd(rng, 3) for _ in range(4)]) for _ in range(2)])
    omega[1, 3, 0, 2] = omega[1, 3, 2, 0] = np.nan
    q = np.zeros((2, 4, 3))
    with pytest.raises(ValueError, match=r"information matrix \(run 1, node 3\) must not"):
        to_moments(q, omega)
    with pytest.raises(ValueError, match=r"information matrix must not contain infs"):
        to_moments(q[1, 3], omega[1, 3])


def test_columns_take_the_kinematic_dimension_from_the_row_width():
    for d in (1, 2, 4, 6):
        rows, views = _rows((2, 3), d)
        assert rows.shape == (2, 3, d + d * d + 12) and not rows.any()
        assert all(np.shares_memory(view, rows) for view in views)
        packed = np.arange(rows.size, dtype=float).reshape(rows.shape)
        views = _columns(packed)
        shapes = [(2, 3, d), (2, 3, d, d), (2, 3, 3), (2, 3, 3, 3)]
        assert [view.shape for view in views] == shapes
        # The views tile the row in order [qx, Ωx, qp, Ωp] and write through.
        flat = np.concatenate([view.reshape(2, 3, -1) for view in views], axis=-1)
        assert np.array_equal(flat, packed)
        for view in views:
            view += 1.0
        assert np.array_equal(packed, flat + 1.0)
    for width in (0, 12, 13, 17, 19, 33):
        with pytest.raises(ValueError, match=rf"rows of width {width} hold no kinematic"):
            _columns(np.zeros((2, width)))
