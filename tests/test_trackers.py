import pickle
import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from eotnet import trackers
from eotnet.consensus import NodeKind, build_network, metropolis_weights
from eotnet.geometry import MIN_AXIS, clamp_extent
from eotnet.info_filter import _columns, to_moments
from eotnet.linearization import innovations
from eotnet.trackers import (
    FilterConfig,
    FilterKind,
    TrackerParams,
    _extent_moments,
    initial_states,
    ncv_transition,
)
from oracles import (
    corrected,
    extent_measurement_matrix,
    extent_noise_moments,
    flat_scan,
    fuse_nodes,
    kinematic_noise_cov,
    pairs,
    predicted,
    pseudo_measurement,
    residual_cov,
    sample_measurements,
    scan_rows,
)

CEOT = FilterConfig(kind=FilterKind.CEOT)


def make_params(n_nodes, ch=None, cv=None, x_dim=2, scan_time=1.0,
                cxw=None, cpw=None):
    ch = np.eye(2) / 3 if ch is None else ch
    cv = np.diag([3.0, 9.0]) if cv is None else cv
    cxw = np.eye(x_dim) if cxw is None else cxw
    cpw = np.diag([0.05, 1.0, 1.0]) if cpw is None else cpw
    return TrackerParams(
        ch=ch,
        cv=(cv,) * n_nodes,
        fx=ncv_transition(x_dim, scan_time),
        cxw=cxw,
        cpw=cpw,
    )


def default_priors(x_dim=2):
    x0 = np.ones(x_dim)
    cx0 = np.eye(x_dim)
    p0 = np.array([0.0, 2.0, 3.0])
    cp0 = np.diag([1.0, 4.0, 9.0])
    return x0, cx0, p0, cp0


def one_run(x0, cx0, p0, cp0, nodes=1):
    """The (1, nodes, k) packed rows of one realization with the given prior."""
    return initial_states(x0[None], cx0[None], p0[None], cp0[None], nodes)


def scan_step(state, batches, params, config, pi=None):
    """One scan of one realization: sequential correction over the batches,
    then prediction."""
    return predicted(corrected(state, *flat_scan([batches]), params, config, pi), params)


def draw_batch(rng, truth_ext, m, n):
    return sample_measurements(m, truth_ext, np.eye(2) / 3, np.diag([3.0, 9.0]), n, rng)


def hand_single_update(x_hat, cx, p_vec, cp, y, ch, cv):
    """Independent arrangement of one sequential update: both linear models
    are built from the same pre-update estimates, then both states correct."""
    p_ext = np.array([p_vec[0], *np.maximum(p_vec[1:], MIN_AXIS)])
    h = np.eye(2, x_hat.size)
    rx = kinematic_noise_cov(p_ext, cp, ch, cv)
    vx = np.linalg.inv(rx)
    omega_x = np.linalg.inv(cx) + h.T @ vx @ h
    q_x = np.linalg.inv(cx) @ x_hat + h.T @ vx @ y

    cy = residual_cov(cx, rx)
    m_mat = extent_measurement_matrix(p_ext, ch)
    _, rp = extent_noise_moments(cy, m_mat, cp, p_ext)
    vp = np.linalg.inv(rp)
    y_quad = pseudo_measurement(y, x_hat)  # pre-update kinematic estimate
    y_tilde = y_quad - np.array([cy[0, 0], cy[1, 1], cy[0, 1]]) + m_mat @ p_vec
    omega_p = np.linalg.inv(cp) + m_mat.T @ vp @ m_mat
    q_p = np.linalg.inv(cp) @ p_vec + m_mat.T @ vp @ y_tilde

    cx_new = np.linalg.inv(omega_x)
    cp_new = np.linalg.inv(omega_p)
    return cx_new @ q_x, cx_new, cp_new @ q_p, cp_new


def test_single_sensor_sequential_matches_hand_computation():
    # two chained measurements; checks the previous-index estimates feed both
    # models at every index
    rng = np.random.default_rng(0)
    x0, cx0, p0, cp0 = default_priors()
    ch = np.eye(2) / 3
    cv = np.diag([3.0, 9.0])
    ys = rng.normal(size=(2, 2)) * 3.0

    x_hat, cx, p_vec, cp = x0, cx0, p0, cp0
    for y in ys:
        x_hat, cx, p_vec, cp = hand_single_update(x_hat, cx, p_vec, cp, y, ch, cv)

    params = make_params(1)
    kin, ext = pairs(corrected(one_run(x0, cx0, p0, cp0), *flat_scan([[ys]]), params, CEOT))
    ((x_out,),), ((cx_out,),) = to_moments(*kin)
    ((p_out,),), ((cp_out,),) = to_moments(*ext)
    assert np.allclose(x_out, x_hat, rtol=1e-9)
    assert np.allclose(cx_out, cx, rtol=1e-9)
    assert np.allclose(p_out, p_vec, rtol=1e-9)
    assert np.allclose(cp_out, cp, rtol=1e-9)


def test_wiring_is_sensitive_to_stale_estimates():
    # using the post-update kinematic estimate for the extent would change the
    # result; guard by showing the pseudo-measurement differs between the two
    rng = np.random.default_rng(1)
    x0, cx0, p0, cp0 = default_priors()
    y = rng.normal(size=2) * 3.0
    x1, _, _, _ = hand_single_update(x0, cx0, p0, cp0, y, np.eye(2) / 3, np.diag([3.0, 9.0]))
    assert not np.allclose(pseudo_measurement(y, x0), pseudo_measurement(y, x1))


def test_ceot_sums_per_node_innovations():
    # three sensors with one measurement each equals one center processing
    # the stacked innovation sum; checked against the hand arrangement
    rng = np.random.default_rng(2)
    x0, cx0, p0, cp0 = default_priors()
    ch = np.eye(2) / 3
    cvs = [np.diag([3.0, 9.0]), np.diag([1.0, 2.0]), np.eye(2)]
    ys = [rng.normal(size=2) for _ in range(3)]

    p_ext = p0
    h = np.eye(2)
    omega_x = np.linalg.inv(cx0).astype(float)
    q_x = omega_x @ x0
    omega_p = np.linalg.inv(cp0)
    q_p = omega_p @ p0
    for y, cv in zip(ys, cvs):
        rx = kinematic_noise_cov(p_ext, cp0, ch, cv)
        vx = np.linalg.inv(rx)
        q_x = q_x + h.T @ vx @ y
        omega_x = omega_x + h.T @ vx @ h
        cy = residual_cov(cx0, rx)
        m_mat = extent_measurement_matrix(p_ext, ch)
        _, rp = extent_noise_moments(cy, m_mat, cp0, p_ext)
        vp = np.linalg.inv(rp)
        y_tilde = (pseudo_measurement(y, x0)
                   - np.array([cy[0, 0], cy[1, 1], cy[0, 1]]) + m_mat @ p0)
        q_p = q_p + m_mat.T @ vp @ y_tilde
        omega_p = omega_p + m_mat.T @ vp @ m_mat

    params = TrackerParams(ch=ch, cv=cvs, fx=np.eye(2), cxw=np.eye(2), cpw=np.eye(3))
    got = _columns(corrected(one_run(x0, cx0, p0, cp0),
                             *flat_scan([[y[None, :] for y in ys]]), params, CEOT))
    for value, want in zip(got, (q_x, omega_x, q_p, omega_p)):
        assert np.allclose(value[0, 0], want, rtol=1e-10)


def test_empty_batch_is_pure_prediction():
    x0, cx0, p0, cp0 = default_priors()
    params = make_params(1)
    prior = one_run(x0, cx0, p0, cp0)
    stepped = _columns(scan_step(prior, [np.zeros((0, 2))], params, CEOT))
    want = _columns(predicted(prior, params))
    assert np.allclose(stepped[0], want[0])
    assert np.allclose(stepped[3], want[3])


def test_sequential_determinism():
    rng = np.random.default_rng(3)
    x0, cx0, p0, cp0 = default_priors()
    params = make_params(1)
    batch = rng.normal(size=(20, 2)) * 2.0
    prior = one_run(x0, cx0, p0, cp0)
    a = corrected(prior, *flat_scan([[batch]]), params, CEOT)
    b = corrected(prior, *flat_scan([[batch]]), params, CEOT)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("n_nodes", [2, 3, 5])
def test_cm_equals_ceot_on_complete_graph(n_nodes):
    # single averaging round on a complete graph is exact, so measurement
    # consensus with the node-count weight reproduces the centralized filter
    rng = np.random.default_rng(10 + n_nodes)
    net = build_network(np.stack([np.arange(n_nodes), np.zeros(n_nodes)], axis=1),
                        [NodeKind.SENSOR] * n_nodes, comm_radius=100.0)
    pi = metropolis_weights(net)
    x0, cx0, p0, cp0 = default_priors()
    params = make_params(n_nodes)
    truth_ext = np.array([np.pi / 4, 4.0, 9.0])

    cm = FilterConfig(kind=FilterKind.CM, consensus_iters=1, omega=float(n_nodes))
    center = one_run(x0, cx0, p0, cp0)
    nodes = one_run(x0, cx0, p0, cp0, n_nodes)
    for _ in range(10):
        counts = rng.integers(0, 4, size=n_nodes)  # unequal batch lengths
        batches = [draw_batch(rng, truth_ext, np.zeros(2), int(c)) for c in counts]
        center = scan_step(center, batches, params, CEOT)
        nodes = scan_step(nodes, batches, params, cm, pi)
        (c_kin, c_ext), (n_kin, n_ext) = pairs(center), pairs(nodes)
        ((xc,),), _ = to_moments(*c_kin)
        ((pc,),), _ = to_moments(*c_ext)
        for xn, pn in zip(to_moments(*n_kin)[0][0], to_moments(*n_ext)[0][0]):
            assert np.allclose(xn, xc, rtol=1e-9, atol=1e-12)
            assert np.allclose(pn, pc, rtol=1e-9, atol=1e-12)


def test_cm_equals_ceot_with_communication_nodes():
    # relays contribute zero innovations, so the compensated average still
    # recovers the sensor-only centralized sum
    rng = np.random.default_rng(20)
    kinds = [NodeKind.SENSOR, NodeKind.COMMUNICATION, NodeKind.SENSOR]
    net = build_network(np.stack([np.arange(3), np.zeros(3)], axis=1), kinds, 100.0)
    pi = metropolis_weights(net)
    x0, cx0, p0, cp0 = default_priors()
    params = make_params(3)
    truth_ext = np.array([0.3, 2.0, 1.0])
    batches = [draw_batch(rng, truth_ext, np.zeros(2), 3),
               np.zeros((0, 2)),
               draw_batch(rng, truth_ext, np.zeros(2), 3)]
    center, _ = pairs(corrected(one_run(x0, cx0, p0, cp0), *flat_scan([batches]), params,
                                CEOT))
    nodes, _ = pairs(corrected(one_run(x0, cx0, p0, cp0, 3), *flat_scan([batches]), params,
                               FilterConfig(kind=FilterKind.CM, omega=3.0), pi))
    ((xc,),), _ = to_moments(*center)
    for xn in to_moments(*nodes)[0][0]:
        assert np.allclose(xn, xc, rtol=1e-9)


def test_cm_zero_weight_leaves_states_unchanged():
    rng = np.random.default_rng(4)
    net = build_network(np.stack([np.arange(3), np.zeros(3)], axis=1),
                        [NodeKind.SENSOR] * 3, 100.0)
    pi = metropolis_weights(net)
    x0, cx0, p0, cp0 = default_priors()
    params = make_params(3)
    priors = one_run(x0, cx0, p0, cp0, 3)
    batches = [draw_batch(rng, np.array([0.1, 2, 1]), np.zeros(2), 2) for _ in range(3)]
    out = _columns(corrected(priors, *flat_scan([batches]), params,
                             FilterConfig(kind=FilterKind.CM, omega=0.0), pi))
    assert np.allclose(out[0], _columns(priors)[0])
    assert np.allclose(out[3], _columns(priors)[3])


def test_ci_nodes_agree_on_complete_graph_with_many_rounds():
    rng = np.random.default_rng(5)
    n = 4
    kinds = [NodeKind.SENSOR] * 3 + [NodeKind.COMMUNICATION]
    net = build_network(np.stack([np.arange(n), np.zeros(n)], axis=1), kinds, 100.0)
    pi = metropolis_weights(net)
    x0, cx0, p0, cp0 = default_priors()
    params = make_params(n)
    nodes = one_run(x0, cx0, p0, cp0, n)
    batches = [draw_batch(rng, np.array([0.5, 3, 1]), np.zeros(2), 5) for _ in range(3)]
    batches.append(np.zeros((0, 2)))
    kin, ext = pairs(corrected(nodes, *flat_scan([batches]), params,
                               FilterConfig(kind=FilterKind.CI, consensus_iters=60), pi))
    ((ref_x, *xs),), _ = to_moments(*kin)
    ((ref_p, *ps),), _ = to_moments(*ext)
    for xn, pn in zip(xs, ps):
        assert np.abs(xn - ref_x).max() < 1e-8
        assert np.abs(pn - ref_p).max() < 1e-8


def test_ci_single_round_stays_positive_definite():
    rng = np.random.default_rng(6)
    net_positions = np.stack([np.arange(4) * 1.0, np.zeros(4)], axis=1)
    kinds = [NodeKind.SENSOR, NodeKind.COMMUNICATION,
             NodeKind.COMMUNICATION, NodeKind.SENSOR]
    net = build_network(net_positions, kinds, comm_radius=1.5)  # a path graph
    pi = metropolis_weights(net)
    x0, cx0, p0, cp0 = default_priors()
    params = make_params(4)
    nodes = one_run(x0, cx0, p0, cp0, 4)
    batches = [draw_batch(rng, np.array([0.5, 3, 1]), np.zeros(2), 4),
               np.zeros((0, 2)), np.zeros((0, 2)),
               draw_batch(rng, np.array([0.5, 3, 1]), np.zeros(2), 4)]
    qx, ox, qp, op = _columns(corrected(nodes, *flat_scan([batches]), params,
                                        FilterConfig(kind=FilterKind.CI, consensus_iters=1), pi))
    assert np.isfinite(qx).all() and np.isfinite(qp).all()
    assert np.linalg.eigvalsh(ox).min() > 0
    assert np.linalg.eigvalsh(op).min() > 0


def test_ci_information_grows_with_sensors_present():
    rng = np.random.default_rng(7)
    net = build_network(np.stack([np.arange(3), np.zeros(3)], axis=1),
                        [NodeKind.SENSOR, NodeKind.SENSOR, NodeKind.COMMUNICATION],
                        comm_radius=100.0)
    pi = metropolis_weights(net)
    x0, cx0, p0, cp0 = default_priors()
    params = make_params(3)
    priors = one_run(x0, cx0, p0, cp0, 3)
    batches = [draw_batch(rng, np.array([0.2, 2, 1]), np.zeros(2), 1),
               draw_batch(rng, np.array([0.2, 2, 1]), np.zeros(2), 1),
               np.zeros((0, 2))]
    out = corrected(priors, *flat_scan([batches]), params,
                    FilterConfig(kind=FilterKind.CI, consensus_iters=1), pi)
    gain = _columns(out)[1] - _columns(priors)[1]
    assert np.linalg.eigvalsh(gain).min() > 0  # full-rank position update on every node


def test_ci_without_any_sensors_keeps_priors():
    net = build_network(np.stack([np.arange(3), np.zeros(3)], axis=1),
                        [NodeKind.COMMUNICATION] * 3, comm_radius=100.0)
    pi = metropolis_weights(net)
    x0, cx0, p0, cp0 = default_priors()
    params = make_params(3)
    priors = one_run(x0, cx0, p0, cp0, 3)
    out = _columns(corrected(priors, *flat_scan([[np.zeros((0, 2))] * 3]), params,
                             FilterConfig(kind=FilterKind.CI, consensus_iters=3), pi))
    assert np.allclose(out[0], _columns(priors)[0])
    assert np.allclose(out[2], _columns(priors)[2])


def test_tracker_params_share_no_array_and_cannot_go_stale():
    from eotnet.scenario import benchmark_network, load_config
    from eotnet.trackers import params_from_scenario

    config = load_config("s2")
    params = params_from_scenario(config, benchmark_network())
    # One noise per node, in one stack the scans read, and no model is the
    # config's or can be edited in place.
    assert params.cv.shape == (20, 2, 2) and (params.cv == config.cv).all()
    for model in (params.ch, params.cv, params.fx, params.cxw, params.cpw):
        assert not model.flags.writeable
        for source in (config.ch, config.cv, config.cxw, config.cpw):
            assert not np.shares_memory(model, source)
    with pytest.raises(ValueError, match="read-only"):
        params.cv[1, 0, 0] = 1e3
    with pytest.raises(ValueError, match="read-only"):
        params.ch[0, 0] = 1e3
    # Editing the caller's arrays afterwards reaches no params either.
    ch, noise = np.eye(2), np.diag([3.0, 9.0])
    own = TrackerParams(ch=ch, cv=(noise, noise), fx=np.eye(2), cxw=np.eye(2), cpw=np.eye(3))
    ch[0, 0] = noise[0, 0] = 5.0
    assert own.ch[0, 0] == 1.0 and own.cv[:, 0, 0].tolist() == [3.0, 3.0]
    # A replaced noise is taken afresh.
    edited = replace(own, cv=(noise, 2 * noise))
    assert edited.cv[:, 0, 0].tolist() == [5.0, 10.0]


def test_ceot_scan_needs_a_sensor_noise_per_count_column():
    # Under CEOT every column is a sensor, and each needs its own noise.
    from eotnet.trackers import run_filter

    net, params, batch = three_s2_runs()
    with pytest.raises(ValueError, match=r"^batch counts of 20 sensors need as many sensor "
                                         r"noises, got 19"):
        run_filter(batch, net, replace(params, cv=params.cv[:19]), CEOT)


# The kinematic cases keep their ids, d alone.
@pytest.mark.parametrize("prior, d", [pytest.param("x0", d, id=str(d)) for d in (1, 3, 6)]
                         + [("p0", 2), ("p0", 4), ("cp0", 2), ("cp0", 4)])
def test_run_filter_needs_priors_that_fit_the_transition(prior, d):
    # On s2 every run's kinematic prior must fit fx (4, 4), which run_filter
    # checks, and its extent prior must be [alpha, l1, l2] with a 3x3
    # covariance, which the batch checks when it is built; numpy's matmul
    # would otherwise fail on a core dimension.
    from eotnet.trackers import run_filter

    net, params, batch = three_s2_runs()
    fields, message = {
        "x0": ({"x0": np.ones((3, d)), "cx0": np.tile(np.eye(d), (3, 1, 1))},
               f"priors x0 ({d},) and cx0 ({d}, {d}) do not fit the transition fx (4, 4)"),
        "p0": ({"p0": np.ones((3, d))},
               f"extent priors p0 ({d},) and cp0 (3, 3) must have shapes (3,) and (3, 3)"),
        "cp0": ({"cp0": np.tile(np.eye(d), (3, 1, 1))},
                f"extent priors p0 (3,) and cp0 ({d}, {d}) must have shapes (3,) and (3, 3)"),
    }[prior]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_filter(replace(batch, **fields), net, params, CEOT)


def random_velocity_rows(rng, runs, nodes):
    """(runs, nodes, k) packed rows of d = 4 with their own rotated
    kinematic and extent information matrices."""
    def spd(d):
        q, _ = np.linalg.qr(rng.normal(size=(runs, d, d)))
        return (q * rng.uniform(0.2, 5.0, (runs, 1, d))) @ q.swapaxes(-1, -2)

    return initial_states(rng.normal(size=(runs, 4)), spd(4),
                          np.array([0.3, 4.0, 2.0]) + 0.1 * rng.normal(size=(runs, 3)),
                          spd(3) * 0.1, nodes)


@pytest.mark.parametrize("kind", [FilterKind.CEOT, FilterKind.CM])
def test_ceot_and_cm_scans_keep_every_rows_velocity_blocks(kind):
    # The premise of the position-marginal offsets: a correction adds only
    # to the position block, and the consensus rounds mix rows entry by
    # entry, so q_v, Ω_pv and Ω_vv of every row, detecting or not, leave the
    # scan as they came in.
    net, pi, _ = two_runs_of_five_nodes()
    rng = np.random.default_rng(31)
    nodes = 1 if kind is FilterKind.CEOT else 5
    state = random_velocity_rows(rng, 3, nodes)
    batches = [[rng.normal(size=(int(rng.integers(0, 4)), 2)) + [1.0, 0.0] for _ in range(5)]
               for _ in range(3)]
    qx, ox = _columns(state)[:2]
    blocks = (lambda: (qx[..., :2], qx[..., 2:], ox[..., :2, 2:], ox[..., 2:, :2],
                       ox[..., 2:, 2:]))
    before = [a.copy() for a in blocks()]
    scan_rows(state, *flat_scan(batches), make_params(5, x_dim=4),
              FilterConfig(kind=kind, consensus_iters=3), pi)
    position, *velocity = blocks()
    for got, want in zip(velocity, before[1:]):
        assert np.array_equal(got, want)
    # The position blocks did take the corrections.
    assert not np.array_equal(position, before[0])


def test_a_failing_velocity_or_marginal_block_is_named_by_its_run_and_node():
    net, pi, _ = two_runs_of_five_nodes()
    params = make_params(5, x_dim=4)
    batches = [[np.zeros((0, 2))] * 5,
               [np.zeros((0, 2))] * 3 + [np.ones((1, 2)), np.zeros((0, 2))]]
    for kind in FilterKind:
        nodes, node = (1, 0) if kind is FilterKind.CEOT else (5, 3)
        state = initial_states(*(np.stack([a, a]) for a in default_priors(4)), nodes)
        config = FilterConfig(kind=kind)
        # Ω_vv fails, in a row that need not detect: the scan's offsets name it.
        bad = state.copy()
        _columns(bad)[1][0, node, 2:, 2:] = -np.eye(2)
        with pytest.raises(np.linalg.LinAlgError,
                           match=rf"^information matrix \(run 0, node {node}\) is singular"):
            scan_rows(bad, *flat_scan(batches), params, config, pi)
        # Ω_vv passes, but the Schur complement Ω_pp - B does not: the
        # detecting row's linearization names it.
        bad = state.copy()
        _columns(bad)[1][1, node] = [[1, 0, 2, 0], [0, 1, 0, 0], [2, 0, 1, 0], [0, 0, 0, 1]]
        with pytest.raises(np.linalg.LinAlgError,
                           match=rf"^information matrix \(run 1, node {node}\) is singular"):
            scan_rows(bad, *flat_scan(batches), params, config, pi)


@pytest.mark.parametrize("kind", [FilterKind.CEOT, FilterKind.CM])
@pytest.mark.parametrize("column, entry", [(0, 0), (0, 3), (2, 1)],
                         ids=["position", "velocity", "extent"])
def test_a_non_finite_information_vector_is_named_by_its_run_and_node(kind, column, entry):
    # A NaN in a row's information vector is named at the scan's start, not
    # later as the noise of a detection its NaN estimate reached.
    net, pi, _ = two_runs_of_five_nodes()
    nodes, node = (1, 0) if kind is FilterKind.CEOT else (5, 3)
    state = one_run(*default_priors(4), nodes)
    _columns(state)[column][0, node, entry] = np.nan
    none = np.zeros((0, 2))
    batches = [[none] * 3 + [np.array([[1.0, 0.0], [0.0, 1.0]]), none]]
    with pytest.raises(ValueError, match=rf"^information vector \(run 0, node {node}\) must "
                       "not contain infs or NaNs$"):
        scan_rows(state, *flat_scan(batches), make_params(5, x_dim=4),
                  FilterConfig(kind=kind), pi)


def test_ncv_transition():
    f = ncv_transition(4, 10.0)
    assert np.array_equal(f, [[1, 0, 10, 0], [0, 1, 0, 10], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert np.array_equal(ncv_transition(2, 5.0), np.eye(2))
    with pytest.raises(ValueError):
        ncv_transition(3, 1.0)


def test_a_prior_semi_axis_below_the_floor_stays_in_the_state():
    # initial_states and the scan keep the prior extent as given, its
    # orientation 7 on its own branch and its semi-axis 1e-4 below MIN_AXIS.
    # Only the linearization point innovations builds from it raises the
    # semi-axis to MIN_AXIS.
    p0 = np.array([7.0, 1e-4, 2.0])
    prior = one_run(np.zeros(2), np.eye(2), p0, np.eye(3))
    assert np.array_equal(to_moments(*pairs(prior)[1])[0][0, 0], p0)
    p, _ = scan_rows(prior.copy(), *flat_scan([[np.zeros((0, 2))]]), make_params(1), CEOT)
    assert np.array_equal(p[0, 0], p0)
    calls = []

    def spy(*args, **kwargs):
        calls.append((args, kwargs, innovations(*args, **kwargs)))
        return calls[-1][2]

    with mock.patch.object(trackers, "innovations", spy):
        scan_rows(prior, *flat_scan([[np.ones((1, 2))]]), make_params(1), CEOT)
    ((args, kwargs, block),) = calls
    p, cp = kwargs["moments"]
    assert np.array_equal(p, [p0])
    at_floor = innovations(*args, **{**kwargs, "moments": (np.array([[7.0, MIN_AXIS, 2.0]]), cp)})
    assert np.array_equal(block, at_floor)


def test_pickled_params_keep_read_only_models_and_shared_noises():
    # The CLI's worker pool pickles the params; the copy is built again, so
    # every model, the noise stack among them, stays read-only.
    params = make_params(3, x_dim=4)
    copy = pickle.loads(pickle.dumps(params))
    for name in ("ch", "cv", "fx", "cxw", "cpw"):
        value = getattr(copy, name)
        assert np.array_equal(value, getattr(params, name)) and not value.flags.writeable, name


@pytest.mark.parametrize("name, value, message", [
    *(("cv", cv, f"cv must be an (n, 2, 2) noise stack, got shape {np.shape(cv)}")
      for cv in (np.diag([3.0, 9.0]), np.eye(3)[None], np.ones((2, 2, 2, 2)), np.ones(2))),
    ("ch", np.eye(3), "ch must be (2, 2), got shape (3, 3)"),
    ("fx", np.eye(2), "cxw must be (2, 2), got shape (4, 4)"),
    ("cxw", np.eye(2), "cxw must be (4, 4), got shape (2, 2)"),
    ("fx", np.eye(3), "fx must be (2, 2) or (4, 4), got shape (3, 3)"),
    ("cpw", np.eye(2), "cpw must be (3, 3), got shape (2, 2)"),
], ids=["cv-2x2", "cv-1x3x3", "cv-4d", "cv-1d", "ch-3x3", "fx-2x2", "cxw-2x2", "fx-3x3",
        "cpw-2x2"])
def test_params_need_an_n_by_2_by_2_noise_stack(name, value, message):
    # A single 2x2 noise of two rows would pass a count check for two
    # sensors, and a model of another shape used to fail only after the
    # first scan, in a bare numpy broadcast or matmul.  The models are d = 4.
    models = dict(ch=np.eye(2), cv=np.stack([np.eye(2)] * 2), fx=np.eye(4), cxw=np.eye(4),
                  cpw=np.eye(3))
    for make in (lambda: TrackerParams(**{**models, name: value}),
                 lambda: replace(make_params(2, x_dim=4), **{name: value})):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make()


def test_fuse_nodes_identical_inputs():
    rng = np.random.default_rng(8)
    mean = rng.normal(size=3)
    cov = np.diag([1.0, 2.0, 3.0])
    fused_mean, fused_cov = fuse_nodes(np.stack([mean] * 4), np.stack([cov] * 4))
    assert np.allclose(fused_mean, mean)
    assert np.allclose(fused_cov, cov / 4)


def test_filter_config_validation():
    with pytest.raises(ValueError):
        FilterConfig(kind=FilterKind.CI, consensus_iters=0)
    FilterConfig(kind=FilterKind.CEOT, consensus_iters=0)  # centralized: fine
    # A bool is not a weight, and a string used to fail in <= with a bare TypeError.
    for omega in (np.nan, np.inf, -np.inf, 1e308, -5.0, -1e-300, True, False, np.True_, "3", []):
        with pytest.raises(ValueError, match="omega must be 'G' or a number in"):
            FilterConfig(kind=FilterKind.CM, omega=omega)
    for omega in (None, 0.0, 12.5, 1e6, 3, np.int64(3), np.float64(2.5)):
        assert FilterConfig(kind=FilterKind.CM, omega=omega).omega == omega
    # A kind the scan does not know would leave every node filtering alone.
    for kind in ("ci", "bogus", None):
        message = f"kind must be a FilterKind, got {kind!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            FilterConfig(kind, 3)


@pytest.mark.parametrize("kind", list(FilterKind))
@pytest.mark.parametrize("rounds", [2.5, 2.0, True, False, "3", None])
def test_non_integer_consensus_rounds_fail_at_the_config(kind, rounds):
    # A float count used to pass here and fail deep in the scan's
    # matrix_power ("exponent must be an integer"); a bool passed as 1 or 0.
    message = f"consensus_iters must be an integer, got {rounds!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        FilterConfig(kind, rounds)
    assert FilterConfig(kind, np.int64(3)).consensus_iters == 3


def two_runs_of_five_nodes():
    """A 5-node line of sensors and the packed rows of two realizations on it."""
    net = build_network(np.stack([np.arange(5) * 10.0, np.zeros(5)], axis=1),
                        [NodeKind.SENSOR] * 5, comm_radius=15.0)
    prior = [np.stack([a, a]) for a in default_priors()]
    return net, metropolis_weights(net), initial_states(*prior, 5)


# The columns of the kinematic and the extent information matrix among
# _columns' views (qx, Ωx, qp, Ωp).
KIN_OMEGA, EXT_OMEGA = 1, 3


def indefinite_at(state, run, node, column):
    """A copy of packed rows whose information matrix _columns(state)[column]
    is -I at (run, node)."""
    out = state.copy()
    omega = _columns(out)[column]
    omega[run, node] = -np.eye(omega.shape[-1])
    return out


def test_a_failing_stacked_row_is_named_by_its_run_and_node():
    net, pi, state = two_runs_of_five_nodes()
    bad_ext = indefinite_at(state, 1, 3, EXT_OMEGA)
    where = r"\(run 1, node 3\) is singular or not positive definite"
    _, _, qp, op = _columns(bad_ext)
    with pytest.raises(np.linalg.LinAlgError, match="extent information matrix " + where):
        _extent_moments(qp.copy(), op)
    grid = np.stack(np.indices((2, 5)), axis=-1).reshape(-1, 2)
    _, _, qp, op = _columns(bad_ext.reshape(10, -1))
    with pytest.raises(np.linalg.LinAlgError, match="extent information matrix " + where):
        _extent_moments(qp, op, grid)
    params = make_params(5)
    # Run 0 detects nothing, so only run 1 is live, and node 3 is the one
    # sensor that detects: the linearization inverse is a one-row stack.
    batches = [[np.zeros((0, 2))] * 5,
               [np.zeros((0, 2))] * 3 + [np.ones((1, 2)), np.zeros((0, 2))]]
    for kind in (FilterKind.CI, FilterKind.CM):
        config = FilterConfig(kind=kind)
        with pytest.raises(np.linalg.LinAlgError, match="information matrix " + where):
            scan_rows(bad_ext, *flat_scan(batches), params, config, pi)
        with pytest.raises(np.linalg.LinAlgError, match="^information matrix " + where):
            scan_rows(indefinite_at(state, 1, 3, KIN_OMEGA), *flat_scan(batches), params,
                      config, pi)
    center = indefinite_at(state[:, :1], 1, 0, KIN_OMEGA)
    with pytest.raises(np.linalg.LinAlgError, match=r"^information matrix \(run 1, node 0\)"):
        scan_rows(center, *flat_scan(batches), params, CEOT)


def test_an_indefinite_extent_first_inverted_at_a_later_index_is_named_by_its_row():
    # The scan starts from handed-in moments, so index 0 inverts no extent
    # row.  Run 1's node 3 detects twice and no other sensor more than once:
    # index 1 reads that row alone, and innovations, handed no moments,
    # inverts the indefinite extent Ω gathered there and names it by its row.
    net, pi, state = two_runs_of_five_nodes()
    moments = to_moments(*pairs(state)[1])
    params = make_params(5)
    none, one = np.zeros((0, 2)), np.ones((1, 2))
    batches = [[one, none, one, none, none], [one, one, none, 2.0 * np.ones((2, 2)), none]]
    y, counts = flat_scan(batches)
    for kind, nodes, node in ((FilterKind.CEOT, 1, 0), (FilterKind.CI, 5, 3),
                              (FilterKind.CM, 5, 3)):
        rows = state[:, :nodes].copy()
        _columns(rows)[EXT_OMEGA][1, node] = -1e6 * np.eye(3)
        (plan,) = trackers._scan_plan(counts[:, None], y, nodes)
        mix = trackers._consensus_map(FilterConfig(kind=kind), pi, params, 5, nodes)
        calls = []

        def spy(*args, **kwargs):
            calls.append((kwargs["row_at"].tolist(), kwargs["moments"] is None))
            return innovations(*args, **kwargs)

        with mock.patch.object(trackers, "innovations", spy), \
                pytest.raises(np.linalg.LinAlgError, match=r"^extent information matrix "
                              rf"\(run 1, node {node}\) is singular or not positive"):
            trackers._scan(rows, plan, [a[:, :nodes] for a in moments], params, kind, mix, None)
        assert len(calls) == 2 and not calls[0][1] and calls[1] == ([[1, node]], True)


def test_a_failing_noise_is_named_by_its_detections_run_and_node():
    net, pi, state = two_runs_of_five_nodes()
    # Node 3's sensor noise is indefinite.  At index 0, run 0 detects on
    # nodes 0 and 1 and run 1 on nodes 1 and 3: the failing Rx is the fourth
    # of the index's rows, and its own (run, node) names it.
    params = make_params(5)
    cv = params.cv.copy()
    cv[3] = -100.0 * np.eye(2)
    params = replace(params, cv=cv)
    none, one = np.zeros((0, 2)), np.ones((1, 2))
    batches = [[one, one, none, none, none], [none, one, none, one, none]]
    for kind in (FilterKind.CI, FilterKind.CM):
        with pytest.raises(np.linalg.LinAlgError, match=r"^kinematic measurement noise "
                           r"\(run 1, node 3\) is singular"):
            scan_rows(state.copy(), *flat_scan(batches), params, FilterConfig(kind=kind), pi)
    # Under CEOT every detection updates the one center row, but its noise
    # is still its sensor's: node 3's.
    with pytest.raises(np.linalg.LinAlgError, match=r"^kinematic measurement noise "
                       r"\(run 1, node 3\) is singular"):
        scan_rows(state[:, :1].copy(), *flat_scan(batches), params, CEOT)


def test_cm_gwd_improves_with_more_rounds():
    # on the sparse benchmark network the measurement-consensus error shrinks
    # as averaging rounds increase; allow small upticks between neighbors
    from eotnet.consensus import metropolis_weights
    from eotnet.diagnostics import gwd
    from eotnet.scenario import build_scenario_run, load_config, benchmark_network
    from eotnet.trackers import params_from_scenario, run_filter

    config = load_config("s2", steps=25)
    net = benchmark_network()
    pi = metropolis_weights(net)
    params = params_from_scenario(config, net)
    children = np.random.SeedSequence(11).spawn(5)
    batch = build_scenario_run(config, net, children)
    means = []
    for rounds in range(1, 7):
        vals = []
        rec = run_filter(batch, net, params,
                         FilterConfig(kind=FilterKind.CM, consensus_iters=rounds), pi)
        for r in range(rec.runs):
            for k in range(rec.steps):
                vals.extend(
                    gwd(rec.x_mean[r, k, s][:2], clamp_extent(rec.p_mean[r, k, s]),
                        batch.x_true[k, :2], batch.p_true[k])
                    for s in range(rec.nodes)
                )
        means.append(float(np.mean(vals)))
    assert all(means[i + 1] <= 1.1 * means[i] for i in range(len(means) - 1)), means
    assert means[-1] < means[0]


def test_kinematic_covariance_stays_bounded_on_long_run():
    from eotnet.consensus import metropolis_weights
    from eotnet.scenario import build_scenario_run, load_config, benchmark_network
    from eotnet.trackers import params_from_scenario, run_filter

    config = load_config("s2", steps=200)
    net = benchmark_network()
    pi = metropolis_weights(net)
    params = params_from_scenario(config, net)
    batch = build_scenario_run(config, net, [42])
    rec = run_filter(batch, net, params, FilterConfig(kind=FilterKind.CEOT), pi)
    traces = np.trace(rec.x_cov[0], axis1=2, axis2=3)
    assert np.isfinite(traces).all()
    # steady state: the last three quarters stay within a small band
    tail = traces[rec.steps // 4:]
    assert tail.max() < 5.0 * tail.min()


@pytest.mark.parametrize("kind", [FilterKind.CEOT, FilterKind.CI, FilterKind.CM])
def test_stacked_runs_equal_one_run_calls(kind):
    # stacking the realizations must not change one bit of any of them
    from eotnet.consensus import metropolis_weights
    from eotnet.scenario import build_scenario_run, load_config, benchmark_network
    from eotnet.trackers import params_from_scenario, run_filter

    config = load_config("s2", steps=4)
    net = benchmark_network()
    pi = metropolis_weights(net)
    params = params_from_scenario(config, net)
    batch = build_scenario_run(config, net, np.random.SeedSequence(21).spawn(4))
    # Poisson counts: the realizations' scans end at different indices
    ends = batch.counts.max(axis=2).T
    assert all(len(set(step)) > 1 for step in ends)
    fc = FilterConfig(kind=kind, consensus_iters=2)
    stacked = run_filter(batch, net, params, fc, pi)
    assert stacked.runs == len(batch.counts)
    for r in range(len(batch.counts)):
        want = run_filter(batch[r], net, params, fc, pi)
        for field in ("x_mean", "x_cov", "p_mean", "p_cov"):
            assert np.array_equal(getattr(stacked, field)[r], getattr(want, field)[0]), field


def three_s2_runs():
    """The network, tracker models and three 3-step realizations of s2 as one batch."""
    from eotnet.scenario import build_scenario_run, load_config, benchmark_network
    from eotnet.trackers import params_from_scenario

    config = load_config("s2", steps=3)
    net = benchmark_network()
    batch = build_scenario_run(config, net, np.random.SeedSequence(5).spawn(3))
    return net, params_from_scenario(config, net), batch


@pytest.mark.parametrize("kind", [FilterKind.CEOT, FilterKind.CM])
@pytest.mark.parametrize("prior", ["cx0", "cp0"])
def test_a_singular_prior_is_named_by_its_run_and_node(kind, prior):
    from eotnet.trackers import run_filter

    net, params, batch = three_s2_runs()
    cov = getattr(batch, prior).copy()
    cov[1, 1, 1] = -1.0
    with pytest.raises(np.linalg.LinAlgError,
                       match=r"^covariance \(run 1, node 0\) is singular or not positive"):
        run_filter(replace(batch, **{prior: cov}), net, params, FilterConfig(kind=kind),
                   metropolis_weights(net))


def test_integer_priors_filter_as_their_float_values():
    # The scan starts from the prior's moments as the batch holds them; a
    # batch takes integer priors as floats, so they cannot truncate the float
    # moments each write gives.
    from eotnet.trackers import run_filter

    net, params, batch = three_s2_runs()
    pi = metropolis_weights(net)
    floats = replace(batch, p0=np.tile([0.0, 6.0, 2.0], (3, 1)),
                     cp0=np.tile(np.diag([1.0, 4.0, 4.0]), (3, 1, 1)))
    ints = replace(batch, p0=np.tile([0, 6, 2], (3, 1)),
                   cp0=np.tile(np.diag([1, 4, 4]), (3, 1, 1)))
    for kind in FilterKind:
        config = FilterConfig(kind=kind, consensus_iters=2)
        want = run_filter(floats, net, params, config, pi)
        got = run_filter(ints, net, params, config, pi)
        for field in ("x_mean", "x_cov", "p_mean", "p_cov"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), (kind, field)


@pytest.mark.parametrize("columns", [19, 21])
def test_run_filter_needs_one_count_column_per_node(columns):
    from eotnet.trackers import run_filter

    net, params, batch = three_s2_runs()
    counts = np.zeros((*batch.counts.shape[:2], columns), dtype=batch.counts.dtype)
    # The last node's detections go to the last column either way.
    counts[..., :19] = batch.counts[..., :19]
    counts[..., -1] += batch.counts[..., 19]
    with pytest.raises(ValueError, match=r"count tables need one column per node of the "
                                         rf"20-node network, got shape \(3, {columns}\)"):
        run_filter(replace(batch, counts=counts), net, params, CEOT)


@pytest.mark.parametrize("kind", [FilterKind.CI, FilterKind.CM])
def test_run_filter_checks_the_consensus_matrix_against_its_network(kind):
    from eotnet.consensus import ConsensusMatrix
    from eotnet.scenario import build_scenario_run, load_config, benchmark_network
    from eotnet.trackers import params_from_scenario, run_filter

    config = load_config("s2", steps=2)
    net = benchmark_network()
    params = params_from_scenario(config, net)
    batch = build_scenario_run(config, net, [1])
    filter_config = FilterConfig(kind=kind, consensus_iters=2)
    # Uniform weights put messages on all 380 ordered pairs, 90 of them edges.
    uniform = ConsensusMatrix(np.full((20, 20), 1 / 20))
    s, j = next((s, j) for s in range(20) for j in range(20)
                if s != j and not net.adjacency[s, j])
    with pytest.raises(ValueError, match=rf"pi\[{s}, {j}\] is nonzero, but nodes {s} and {j} "
                                         "share no network edge"):
        run_filter(batch, net, params, filter_config, uniform)
    small = metropolis_weights(build_network(np.stack([np.arange(3), np.zeros(3)], axis=1),
                                             [NodeKind.SENSOR] * 3, 100.0))
    with pytest.raises(ValueError, match="3-node consensus matrix does not fit a 20-node network"):
        run_filter(batch, net, params, filter_config, small)
    with pytest.raises(ValueError, match="^distributed filters need a consensus matrix$"):
        run_filter(batch, net, params, filter_config)
    # The network's own weights pass, and the centralized filter takes no matrix.
    assert run_filter(batch, net, params, filter_config, metropolis_weights(net)).runs == 1
    assert run_filter(batch, net, params, CEOT, uniform).runs == 1
