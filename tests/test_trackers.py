from unittest import mock

import numpy as np
import pytest

from eotnet import trackers
from eotnet.consensus import NodeKind, build_network, metropolis_weights
from eotnet.geometry import clamp_extent
from eotnet.info_filter import InformationState, to_moments
from eotnet.linearization import innovations
from eotnet.trackers import (
    FilterConfig,
    FilterKind,
    TrackerParams,
    _extent_moments,
    _pack,
    correct_scan,
    initial_states,
    ncv_transition,
    predict_states,
)
from oracles import (
    extent_measurement_matrix,
    extent_noise_moments,
    flat_scan,
    fuse_nodes,
    kinematic_noise_cov,
    pseudo_measurement,
    residual_cov,
    sample_measurements,
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
        cv_by_node=tuple(cv for _ in range(n_nodes)),
        fx=ncv_transition(x_dim, scan_time),
        wwx=np.linalg.inv(cxw),
        wwp=np.linalg.inv(cpw),
    )


def default_priors(x_dim=2):
    x0 = np.ones(x_dim)
    cx0 = np.eye(x_dim)
    p0 = np.array([0.0, 2.0, 3.0])
    cp0 = np.diag([1.0, 4.0, 9.0])
    return x0, cx0, p0, cp0


def one_run(x0, cx0, p0, cp0, nodes=1):
    """The (1, nodes, ...) states of one realization with the given prior."""
    return initial_states(x0[None], cx0[None], p0[None], cp0[None], nodes)


def scan_step(state, batches, params, config, pi=None):
    """One scan of one realization: sequential correction over the batches,
    then prediction."""
    return predict_states(*correct_scan(*state, *flat_scan([batches]), params, config, pi), params)


def draw_batch(rng, truth_ext, m, n):
    return sample_measurements(m, truth_ext, np.eye(2) / 3, np.diag([3.0, 9.0]), n, rng)


def hand_single_update(x_hat, cx, p_vec, cp, y, ch, cv):
    """Independent arrangement of one sequential update: both linear models
    are built from the same pre-update estimates, then both states correct."""
    p_ext = clamp_extent(p_vec)
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
    kin, ext = correct_scan(*one_run(x0, cx0, p0, cp0), *flat_scan([[ys]]), params, CEOT)
    ((x_out,),), ((cx_out,),) = to_moments(kin)
    ((p_out,),), ((cp_out,),) = to_moments(ext)
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

    params = TrackerParams(ch=ch, cv_by_node=tuple(cvs), fx=np.eye(2), wwx=np.eye(2),
                           wwp=np.eye(3))
    kin, ext = correct_scan(*one_run(x0, cx0, p0, cp0),
                            *flat_scan([[y[None, :] for y in ys]]), params, CEOT)
    assert np.allclose(kin.q[0, 0], q_x, rtol=1e-10)
    assert np.allclose(kin.omega[0, 0], omega_x, rtol=1e-10)
    assert np.allclose(ext.q[0, 0], q_p, rtol=1e-10)
    assert np.allclose(ext.omega[0, 0], omega_p, rtol=1e-10)


def test_empty_batch_is_pure_prediction():
    x0, cx0, p0, cp0 = default_priors()
    params = make_params(1)
    prior = one_run(x0, cx0, p0, cp0)
    stepped = scan_step(prior, [np.zeros((0, 2))], params, CEOT)
    predicted = predict_states(*prior, params)
    assert np.allclose(stepped[0].q, predicted[0].q)
    assert np.allclose(stepped[1].omega, predicted[1].omega)


def test_sequential_determinism():
    rng = np.random.default_rng(3)
    x0, cx0, p0, cp0 = default_priors()
    params = make_params(1)
    batch = rng.normal(size=(20, 2)) * 2.0
    prior = one_run(x0, cx0, p0, cp0)
    a = correct_scan(*prior, *flat_scan([[batch]]), params, CEOT)
    b = correct_scan(*prior, *flat_scan([[batch]]), params, CEOT)
    for one, other in zip(a, b):
        assert np.array_equal(one.q, other.q)
        assert np.array_equal(one.omega, other.omega)


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
        ((xc,),), _ = to_moments(center[0])
        ((pc,),), _ = to_moments(center[1])
        for xn, pn in zip(to_moments(nodes[0])[0][0], to_moments(nodes[1])[0][0]):
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
    center, _ = correct_scan(*one_run(x0, cx0, p0, cp0), *flat_scan([batches]), params, CEOT)
    nodes, _ = correct_scan(*one_run(x0, cx0, p0, cp0, 3), *flat_scan([batches]), params,
                            FilterConfig(kind=FilterKind.CM, omega=3.0), pi)
    ((xc,),), _ = to_moments(center)
    for xn in to_moments(nodes)[0][0]:
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
    out = correct_scan(*priors, *flat_scan([batches]), params,
                       FilterConfig(kind=FilterKind.CM, omega=0.0), pi)
    assert np.allclose(out[0].q, priors[0].q)
    assert np.allclose(out[1].omega, priors[1].omega)


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
    kin, ext = correct_scan(*nodes, *flat_scan([batches]), params,
                            FilterConfig(kind=FilterKind.CI, consensus_iters=60), pi)
    ((ref_x, *xs),), _ = to_moments(kin)
    ((ref_p, *ps),), _ = to_moments(ext)
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
    kin, ext = correct_scan(*nodes, *flat_scan([batches]), params,
                            FilterConfig(kind=FilterKind.CI, consensus_iters=1), pi)
    assert np.isfinite(kin.q).all() and np.isfinite(ext.q).all()
    assert np.linalg.eigvalsh(kin.omega).min() > 0
    assert np.linalg.eigvalsh(ext.omega).min() > 0


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
    kin, _ = correct_scan(*priors, *flat_scan([batches]), params,
                          FilterConfig(kind=FilterKind.CI, consensus_iters=1), pi)
    gain = kin.omega - priors[0].omega
    assert np.linalg.eigvalsh(gain).min() > 0  # full-rank position update on every node


def test_ci_without_any_sensors_keeps_priors():
    net = build_network(np.stack([np.arange(3), np.zeros(3)], axis=1),
                        [NodeKind.COMMUNICATION] * 3, comm_radius=100.0)
    pi = metropolis_weights(net)
    x0, cx0, p0, cp0 = default_priors()
    params = make_params(3)
    priors = one_run(x0, cx0, p0, cp0, 3)
    out = correct_scan(*priors, *flat_scan([[np.zeros((0, 2))] * 3]), params,
                       FilterConfig(kind=FilterKind.CI, consensus_iters=3), pi)
    assert np.allclose(out[0].q, priors[0].q)
    assert np.allclose(out[1].q, priors[1].q)


def test_distributed_scan_needs_matrix_and_one_batch_per_node():
    net = build_network(np.stack([np.arange(3), np.zeros(3)], axis=1),
                        [NodeKind.SENSOR] * 3, comm_radius=100.0)
    pi = metropolis_weights(net)
    priors = one_run(*default_priors(), 3)
    params = make_params(3)
    for kind in (FilterKind.CI, FilterKind.CM):
        config = FilterConfig(kind=kind)
        with pytest.raises(ValueError, match="consensus matrix"):
            correct_scan(*priors, *flat_scan([[np.zeros((0, 2))] * 3]), params, config)
        with pytest.raises(ValueError, match="one batch per node"):
            correct_scan(*priors, *flat_scan([[np.zeros((0, 2))] * 2]), params, config, pi)
        with pytest.raises(ValueError, match=r"got 1 detections in \(1, 3\) batch counts"):
            correct_scan(*priors, np.zeros((1, 2)), np.zeros((1, 3), dtype=int), params, config,
                         pi)


def test_correct_scan_needs_a_realization_axis():
    kin, ext = initial_states(*default_priors())  # (1, d) rows, no realization axis
    with pytest.raises(ValueError, match=r"needs \(R, n, d\) states, got shape \(1, 2\)"):
        correct_scan(kin, ext, *flat_scan([[np.zeros((0, 2))]]), make_params(1), CEOT)


def test_ncv_transition():
    f = ncv_transition(4, 10.0)
    assert np.array_equal(f, [[1, 0, 10, 0], [0, 1, 0, 10], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert np.array_equal(ncv_transition(2, 5.0), np.eye(2))
    with pytest.raises(ValueError):
        ncv_transition(3, 1.0)


def test_initial_estimate_clamps_extent():
    # initial_states keeps the prior as given; the scan re-anchors it before
    # its first linearization, and returns it re-anchored without detections.
    prior = one_run(np.zeros(2), np.eye(2), np.array([7.0, -1.0, 2.0]), np.eye(3))
    want = clamp_extent(np.array([7.0, -1.0, 2.0]))
    assert np.array_equal(to_moments(prior[1])[0][0, 0], [7.0, -1.0, 2.0])
    _, ext = correct_scan(*prior, *flat_scan([[np.zeros((0, 2))]]), make_params(1), CEOT)
    p_vec = to_moments(ext)[0][0, 0]
    assert -np.pi < p_vec[0] <= np.pi
    assert p_vec[1] >= 1e-3
    assert np.array_equal(p_vec, want)
    with mock.patch.object(trackers, "innovations", wraps=innovations) as spy:
        correct_scan(*prior, *flat_scan([[np.ones((1, 2))]]), make_params(1), CEOT)
    assert np.array_equal(spy.call_args.args[2], [want])


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
    for omega in (np.nan, np.inf, -np.inf, 1e308, -5.0, -1e-300):
        with pytest.raises(ValueError, match="omega must be 'G' or a number in"):
            FilterConfig(kind=FilterKind.CM, omega=omega)
    for omega in (None, 0.0, 12.5, 1e6):
        assert FilterConfig(kind=FilterKind.CM, omega=omega).omega == omega


def two_runs_of_five_nodes():
    """A 5-node line of sensors and the states of two realizations on it."""
    net = build_network(np.stack([np.arange(5) * 10.0, np.zeros(5)], axis=1),
                        [NodeKind.SENSOR] * 5, comm_radius=15.0)
    prior = [np.stack([a, a]) for a in default_priors()]
    return net, metropolis_weights(net), initial_states(*prior, 5)


def indefinite_at(info, run, node):
    omega = info.omega.copy()
    omega[run, node] = -np.eye(info.dim)
    return InformationState(info.q, omega)


def test_a_failing_stacked_row_is_named_by_its_run_and_node():
    net, pi, (kin, ext) = two_runs_of_five_nodes()
    bad_ext = indefinite_at(ext, 1, 3)
    where = r"\(run 1, node 3\) is singular or not positive definite"
    with pytest.raises(np.linalg.LinAlgError, match="extent information matrix " + where):
        _extent_moments(bad_ext.q.copy(), bad_ext.omega)
    grid = np.stack(np.indices((2, 5)), axis=-1).reshape(-1, 2)
    flat = _pack(kin, bad_ext).reshape(10, -1)
    with pytest.raises(np.linalg.LinAlgError, match="extent information matrix " + where):
        _extent_moments(flat[:, 6:9], flat[:, 9:].reshape(-1, 3, 3), grid)
    params = make_params(5)
    # Run 0 detects nothing, so only run 1 is live, and node 3 is the one
    # sensor that detects: the linearization inverse is a one-row stack.
    batches = [[np.zeros((0, 2))] * 5,
               [np.zeros((0, 2))] * 3 + [np.ones((1, 2)), np.zeros((0, 2))]]
    for kind in (FilterKind.CI, FilterKind.CM):
        config = FilterConfig(kind=kind)
        with pytest.raises(np.linalg.LinAlgError, match="information matrix " + where):
            correct_scan(kin, bad_ext, *flat_scan(batches), params, config, pi)
        with pytest.raises(np.linalg.LinAlgError, match="^information matrix " + where):
            correct_scan(indefinite_at(kin, 1, 3), ext, *flat_scan(batches), params, config, pi)
    center = [InformationState(a.q[:, :1], a.omega[:, :1]) for a in (kin, ext)]
    with pytest.raises(np.linalg.LinAlgError, match=r"^information matrix \(run 1, node 0\)"):
        correct_scan(indefinite_at(center[0], 1, 0), center[1], *flat_scan(batches), params,
                     CEOT)


def test_cm_gwd_improves_with_more_rounds():
    # on the sparse benchmark network the measurement-consensus error shrinks
    # as averaging rounds increase; allow small upticks between neighbors
    from eotnet.consensus import metropolis_weights
    from eotnet.diagnostics import gwd
    from eotnet.scenario import build_scenario_run, load_config, benchmark_network
    from eotnet.trackers import params_from_scenario, run_filter

    config = load_config("s2").with_overrides(steps=25)
    net = benchmark_network()
    pi = metropolis_weights(net)
    params = params_from_scenario(config, net)
    children = np.random.SeedSequence(11).spawn(5)
    scns = build_scenario_run(config, net, children)
    means = []
    for rounds in range(1, 7):
        vals = []
        rec = run_filter(scns, net, params,
                         FilterConfig(kind=FilterKind.CM, consensus_iters=rounds), pi)
        for r, scn in enumerate(scns):
            for k in range(rec.steps):
                vals.extend(
                    gwd(rec.x_mean[r, k, s][:2], clamp_extent(rec.p_mean[r, k, s]),
                        scn.x_true[k, :2], scn.p_true[k])
                    for s in range(rec.nodes)
                )
        means.append(float(np.mean(vals)))
    assert all(means[i + 1] <= 1.1 * means[i] for i in range(len(means) - 1)), means
    assert means[-1] < means[0]


def test_kinematic_covariance_stays_bounded_on_long_run():
    from eotnet.consensus import metropolis_weights
    from eotnet.scenario import build_scenario_run, load_config, benchmark_network
    from eotnet.trackers import params_from_scenario, run_filter

    config = load_config("s2").with_overrides(steps=200)
    net = benchmark_network()
    pi = metropolis_weights(net)
    params = params_from_scenario(config, net)
    scns = build_scenario_run(config, net, [42])
    rec = run_filter(scns, net, params, FilterConfig(kind=FilterKind.CEOT), pi)
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

    config = load_config("s2").with_overrides(steps=4)
    net = benchmark_network()
    pi = metropolis_weights(net)
    params = params_from_scenario(config, net)
    scns = build_scenario_run(config, net, np.random.SeedSequence(21).spawn(4))
    # Poisson counts: the realizations' scans end at different indices
    ends = [[scn.counts[k].max() for scn in scns] for k in range(4)]
    assert all(len(set(step)) > 1 for step in ends)
    fc = FilterConfig(kind=kind, consensus_iters=2)
    stacked = run_filter(scns, net, params, fc, pi)
    assert stacked.runs == len(scns)
    for r, scn in enumerate(scns):
        want = run_filter([scn], net, params, fc, pi)
        for field in ("x_mean", "x_cov", "p_mean", "p_cov"):
            assert np.array_equal(getattr(stacked, field)[r], getattr(want, field)[0]), field


def test_run_filter_rejects_runs_of_different_lengths():
    from dataclasses import replace

    from eotnet.scenario import build_scenario_run, load_config, benchmark_network
    from eotnet.trackers import params_from_scenario, run_filter

    config = load_config("s2").with_overrides(steps=2)
    net = benchmark_network()
    params = params_from_scenario(config, net)
    scns = [*build_scenario_run(config, net, [1]),
            *build_scenario_run(config.with_overrides(steps=3), net, [2])]
    with pytest.raises(ValueError, match="same number of steps"):
        run_filter(scns, net, params, CEOT)
    with pytest.raises(ValueError, match="at least one"):
        run_filter([], net, params, CEOT)
    # A count table must account for every detection of its run.
    short = replace(scns[0], detections=scns[0].detections[:-1])
    with pytest.raises(ValueError, match="detections must match its count table"):
        run_filter([scns[0], short], net, params, CEOT)


@pytest.mark.parametrize("kind", [FilterKind.CEOT, FilterKind.CI, FilterKind.CM])
def test_nonfinite_detection_is_named_before_filtering(kind):
    from dataclasses import replace

    from eotnet.consensus import metropolis_weights
    from eotnet.scenario import build_scenario_run, load_config, benchmark_network
    from eotnet.trackers import params_from_scenario, run_filter

    config = load_config("s2").with_overrides(steps=3)
    net = benchmark_network()
    params = params_from_scenario(config, net)
    scns = build_scenario_run(config, net, np.random.SeedSequence(5).spawn(3))
    sensor = next(j for j, n in enumerate(scns[1].counts[2]) if n)
    detections = scns[1].detections.copy()
    # the last detection of that sensor at step 2
    detections[scns[1].counts[:2].sum() + scns[1].counts[2, :sensor + 1].sum() - 1, 1] = np.nan
    scns[1] = replace(scns[1], detections=detections)
    with pytest.raises(ValueError, match=rf"run 1, step 2, sensor {sensor} must be finite"):
        run_filter(scns, net, params, FilterConfig(kind=kind, consensus_iters=2),
                   metropolis_weights(net))


@pytest.mark.parametrize("kind", [FilterKind.CI, FilterKind.CM])
def test_run_filter_checks_the_consensus_matrix_against_its_network(kind):
    from eotnet.consensus import ConsensusMatrix
    from eotnet.scenario import build_scenario_run, load_config, benchmark_network
    from eotnet.trackers import params_from_scenario, run_filter

    config = load_config("s2").with_overrides(steps=2)
    net = benchmark_network()
    params = params_from_scenario(config, net)
    scns = build_scenario_run(config, net, [1])
    filter_config = FilterConfig(kind=kind, consensus_iters=2)
    # Uniform weights put messages on all 380 ordered pairs, 90 of them edges.
    uniform = ConsensusMatrix(np.full((20, 20), 1 / 20))
    s, j = next((s, j) for s in range(20) for j in range(20)
                if s != j and not net.adjacency[s, j])
    with pytest.raises(ValueError, match=rf"pi\[{s}, {j}\] is nonzero, but nodes {s} and {j} "
                                         "share no network edge"):
        run_filter(scns, net, params, filter_config, uniform)
    small = metropolis_weights(build_network(np.stack([np.arange(3), np.zeros(3)], axis=1),
                                             [NodeKind.SENSOR] * 3, 100.0))
    with pytest.raises(ValueError, match="3-node consensus matrix does not fit a 20-node network"):
        run_filter(scns, net, params, filter_config, small)
    # The network's own weights pass, and the centralized filter takes no matrix.
    assert run_filter(scns, net, params, filter_config, metropolis_weights(net)).runs == 1
    assert run_filter(scns, net, params, CEOT, uniform).runs == 1
