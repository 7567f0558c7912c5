"""Property tests of the stacked filter core and metrics over random draws.

Hypothesis draws connected geometric graphs of 2-6 nodes, sensor subsets,
priors and per-sensor batch lengths, count tables of stacked realizations,
stacks of 1-6 detections over random linearization points, or stacks of
estimates to score; each property below must hold for every draw, not only
at the fixed seeds of the other suites.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import minimum_spanning_tree

from eotnet._linalg import sym
from eotnet.consensus import NodeKind, build_network, consensus_rounds, metropolis_weights
from eotnet.diagnostics import AssumptionTrace, acee, gwd, nees, ospa_vertices
from eotnet.geometry import MIN_AXIS, extent_vertices
from eotnet.info_filter import InformationState, from_moments, to_moments
from eotnet.linearization import innovations
from eotnet.scenario import ScenarioRun, generate_measurements, generate_truth, load_config
from eotnet import trackers
from eotnet.trackers import (
    FilterConfig,
    FilterKind,
    TrackerParams,
    _correct_scan,
    _pack,
    _sanitize_extent,
    _unpack,
    correct_scan,
    initial_states,
    ncv_transition,
    predict_states,
    run_filter,
)
from oracles import (
    flat_scan,
    gwd_eigh,
    gwd_eigh_rounding,
    innovations_by_pieces,
    rx_bounds_by_calls,
    sample_measurements,
    sanitize_extent_by_rows,
    scan_batches,
    split_innovations,
)

SETTINGS = settings(max_examples=25, deadline=None)
TRUTH = (np.zeros(2), np.array([0.4, 6.0, 2.0]))  # center and extent


@st.composite
def networks(draw, complete=False):
    """A connected network with at least one sensor, its Metropolis weights,
    and a seed for the numeric draws.  The radius is the longest edge of a
    minimum spanning tree, stretched a little, so the graph is connected;
    `complete` makes it cover every pair instead."""
    n = draw(st.integers(2, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    sensors = draw(st.lists(st.booleans(), min_size=n, max_size=n).filter(any))
    positions = np.random.default_rng(seed).uniform(0.0, 100.0, size=(n, 2))
    dist = np.linalg.norm(positions[:, None] - positions[None, :], axis=2)
    radius = dist.max() if complete else minimum_spanning_tree(dist).max()
    radius *= draw(st.floats(1.0, 1.5))
    kinds = [NodeKind.SENSOR if s else NodeKind.COMMUNICATION for s in sensors]
    net = build_network(positions, kinds, radius)
    return net, metropolis_weights(net), seed


def random_params(rng, n):
    return TrackerParams(
        ch=np.eye(2) / 4,
        cv_by_node=tuple(np.diag(rng.uniform(0.5, 10.0, 2)) for _ in range(n)),
        fx=ncv_transition(2, 1.0),
        wwx=np.eye(2),
        wwp=np.diag([20.0, 1.0, 1.0]),
    )


def random_prior(rng):
    """A prior of one realization: x0 (1, 2), cx0 (1, 2, 2), p0 (1, 3), cp0 (1, 3, 3)."""
    x0 = rng.normal(size=2) * 3.0
    cx0 = np.diag(rng.uniform(1.0, 100.0, 2))
    p0 = np.array([rng.uniform(-np.pi, np.pi), *rng.uniform(1.0, 10.0, 2)])
    cp0 = np.diag([rng.uniform(0.05, 1.0), *rng.uniform(1.0, 10.0, 2)])
    return x0[None], cx0[None], p0[None], cp0[None]


def random_batches(rng, net, max_len):
    """Detections of the truth on every sensor, 0..max_len per sensor."""
    m, p = TRUTH
    sensors = set(net.sensor_nodes)
    return [sample_measurements(m, p, np.eye(2) / 4, np.eye(2),
                                int(rng.integers(0, max_len + 1)) if s in sensors else 0, rng)
            for s in range(net.size)]


def random_states(rng, n):
    """Stacked states whose rows all differ."""
    covs = [np.diag(rng.uniform(0.5, 5.0, d)) for d in (2, 3) for _ in range(n)]
    kin = from_moments(rng.normal(size=(n, 2)), np.stack(covs[:n]))
    ext = from_moments(rng.normal(size=(n, 3)) + [0.0, 5.0, 5.0], np.stack(covs[n:]))
    return kin, ext


@SETTINGS
@given(networks(), st.integers(1, 6))
def test_packed_average_equals_separate_rounds_and_keeps_sums(draw, rounds):
    net, pi, seed = draw
    kin, ext = random_states(np.random.default_rng(seed), net.size)
    quantities = [kin.q, kin.omega, ext.q, ext.omega]
    got_kin, got_ext = _unpack(consensus_rounds(_pack(kin, ext), pi, rounds), 2)
    packed = [got_kin.q, got_kin.omega, got_ext.q, got_ext.omega]
    for value, got in zip(quantities, packed):
        separate = consensus_rounds(value.reshape(net.size, -1), pi, rounds).reshape(value.shape)
        assert got.shape == value.shape
        assert np.abs(got - separate).max() <= 1e-12 * np.abs(separate).max()
        total = value.sum(axis=0)
        assert np.abs(got.sum(axis=0) - total).max() <= 1e-10 * np.abs(total).max()


@SETTINGS
@given(networks(), st.sampled_from([FilterKind.CI, FilterKind.CM]), st.integers(1, 3),
       st.integers(1, 4))
def test_information_matrices_stay_positive_definite(draw, kind, rounds, max_len):
    net, pi, seed = draw
    rng = np.random.default_rng(seed)
    params = random_params(rng, net.size)
    kin, ext = initial_states(*random_prior(rng), net.size)
    config = FilterConfig(kind=kind, consensus_iters=rounds)
    for _ in range(3):
        batches = random_batches(rng, net, max_len)
        kin, ext = correct_scan(kin, ext, *flat_scan([batches]), params, config, pi)
        for info in (kin, ext):
            assert np.isfinite(info.q).all()
            assert np.linalg.eigvalsh(info.omega).min() > 0
        kin, ext = predict_states(kin, ext, params)


@SETTINGS
@given(networks(complete=True), st.integers(1, 4))
def test_cm_with_node_count_weight_equals_ceot_on_complete_graphs(draw, max_len):
    net, pi, seed = draw
    n = net.size
    rng = np.random.default_rng(seed)
    params = random_params(rng, n)
    prior = random_prior(rng)
    center, nodes = initial_states(*prior), initial_states(*prior, n)
    ceot = FilterConfig(kind=FilterKind.CEOT)
    cm = FilterConfig(kind=FilterKind.CM, consensus_iters=1)
    for _ in range(3):
        batches = random_batches(rng, net, max_len)
        scan = flat_scan([batches])
        center = predict_states(*correct_scan(*center, *scan, params, ceot), params)
        nodes = predict_states(*correct_scan(*nodes, *scan, params, cm, pi), params)
        for c_info, n_info in zip(center, nodes):
            ((ref,),), _ = to_moments(c_info)
            means, _ = to_moments(n_info)
            assert np.abs(means - ref).max() <= 1e-9 * np.abs(ref).max()


@SETTINGS
@given(networks(), st.sampled_from(list(FilterKind)), st.integers(1, 4), st.integers(1, 3),
       st.data())
def test_stacked_flat_runs_equal_their_solo_passes(draw, kind, runs, steps, data):
    # Count tables of 0-5 detections per (step, sensor); some realizations
    # detect nothing at all, and the others' scans end at different indices.
    net, pi, seed = draw
    rng = np.random.default_rng(seed)
    params = random_params(rng, net.size)
    sensors = list(net.sensor_nodes)
    scns = []
    for _ in range(runs):
        counts = np.zeros((steps, net.size), dtype=int)
        if data.draw(st.booleans()):
            counts[:, sensors] = np.reshape(data.draw(st.lists(
                st.integers(0, 5), min_size=steps * len(sensors),
                max_size=steps * len(sensors))), (steps, len(sensors)))
        detections = np.concatenate([np.zeros((0, 2))] + [
            sample_measurements(*TRUTH, np.eye(2) / 4, np.eye(2), n, rng)
            for n in counts.ravel()])
        scns.append(ScenarioRun(np.zeros((steps, 2)), np.tile(TRUTH[1], (steps, 1)),
                                detections, counts, *(a[0] for a in random_prior(rng))))
    config = FilterConfig(kind=kind, consensus_iters=2)
    stacked = run_filter(scns, net, params, config, pi)
    assert (stacked.runs, stacked.steps) == (runs, steps)
    for r, scn in enumerate(scns):
        solo = run_filter([scn], net, params, config, pi)
        for field in ("x_mean", "x_cov", "p_mean", "p_cov"):
            assert np.array_equal(getattr(stacked, field)[r], getattr(solo, field)[0]), field


@SETTINGS
@given(networks(), st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4),
       st.integers(1, 3), st.floats(0.2, 3.0))
def test_flat_detections_slice_into_per_sensor_draws(draw, seeds, steps, rate):
    net, _, _ = draw
    # fixed priors draw nothing, so the oracle starts at the first count
    config = load_config("s2").with_overrides(steps=steps, prior_mode="fixed", meas_rate=rate)
    truth = generate_truth(config)
    for seed, run in zip(seeds, generate_measurements(truth, net, config, seeds)):
        assert run.counts.shape == (steps, net.size)
        assert not run.counts[:, list(net.communication_nodes)].any()
        rng = np.random.default_rng(seed)
        for x, p, per_node in zip(*truth, scan_batches(run)):
            for s in net.sensor_nodes:
                n = int(rng.poisson(rate))
                assert np.array_equal(per_node[s],
                                      sample_measurements(x[:2], p, config.ch, config.cv, n, rng))


class SanitizeSpy:
    """trackers._sanitize_extent, keeping the rows of every call: its extent
    rows (q, omega) before the call, the flat indices of the rows it was
    given, q after it, and whether the scan had linearized before the call,
    so that a correction, not the prior or prediction, left the row out of
    range.  Set mid_scan to False at the start of each scan."""

    def __init__(self):
        self.real, self.writes, self.mid_scan = trackers._sanitize_extent, [], False

    def __call__(self, q, omega, rows):
        before = q.reshape(-1, 3).copy()
        self.real(q, omega, rows)
        self.writes.append((before, omega.reshape(-1, 3, 3).copy(), np.flatnonzero(rows),
                            q.reshape(-1, 3).copy(), self.mid_scan))

    def innovations(self, *args):
        self.mid_scan = True
        return innovations(*args)


def scans_at_the_range_edges(kind, runs, steps, seed, max_len):
    """Run `steps` scans of `runs` realizations whose priors sit at the edge of
    the extent range, orientation pi or a semi-axis at MIN_AXIS, so that the
    corrections push rows out of range; after every scan, check the carried
    moments against to_moments of the written extent.  Returns the writes
    of _sanitize_extent."""
    rng = np.random.default_rng(seed)
    net = build_network(rng.uniform(0.0, 30.0, (4, 2)), [NodeKind.SENSOR] * 4, 100.0)
    pi, params = metropolis_weights(net), random_params(rng, 4)
    priors = [np.concatenate(a) for a in zip(*(random_prior(rng) for _ in range(runs)))]
    priors[2][::2, 0] = np.pi
    priors[2][1::2, 2] = MIN_AXIS
    priors[3][:] = np.diag([4.0, 1.0, 1.0])
    kin, ext = initial_states(*priors, 1 if kind is FilterKind.CEOT else 4)
    config = FilterConfig(kind=kind, consensus_iters=2)
    spy = SanitizeSpy()
    with mock.patch.object(trackers, "_sanitize_extent", spy), \
            mock.patch.object(trackers, "innovations", spy.innovations):
        for _ in range(steps):
            spy.mid_scan = False
            # Batches of 0-max_len detections, so realizations end at different indices.
            batches = [random_batches(rng, net, max_len) for _ in range(runs)]
            kin, ext, (p, cp) = _correct_scan(kin, ext, *flat_scan(batches), params, config, pi)
            want_p, want_cp = to_moments(ext)
            assert np.array_equal(p, want_p) and np.array_equal(cp, want_cp)
            kin, ext = predict_states(kin, ext, params)
    for before, omega, rows, after, _ in spy.writes:
        assert np.array_equal(after, sanitize_extent_by_rows(before, omega, rows))
    return spy.writes


@SETTINGS
@given(st.sampled_from(list(FilterKind)), st.integers(1, 3), st.integers(1, 3),
       st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_carried_extent_moments_are_the_moments_of_every_write(kind, runs, steps, seed, max_len):
    scans_at_the_range_edges(kind, runs, steps, seed, max_len)


def test_rows_pushed_out_of_range_mid_scan_carry_their_re_anchored_moments():
    for kind in FilterKind:
        writes = scans_at_the_range_edges(kind, 3, 2, 5, 4)
        # Some row left the range after a correction, not only after a prediction.
        assert any(mid_scan for *_, mid_scan in writes), kind


def random_points(rng, n):
    """n linearization points (x, cx, p, cp) with rotated covariances and
    orientations well outside (-pi, pi]."""
    def cov(d, lo, hi):
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        return (q * rng.uniform(lo, hi, d)) @ q.T

    x = rng.normal(size=(n, 4)) * 5.0
    cx = np.stack([cov(4, 0.1, 10.0) for _ in range(n)])
    p = np.stack([rng.uniform(-7.0, 7.0, n), *rng.uniform(0.5, 10.0, (2, n))], axis=-1)
    cp = np.stack([cov(3, 0.01, 1.0) for _ in range(n)])
    return x, cx, p, cp


def random_detections(rng, k):
    ch = np.diag(rng.uniform(0.1, 0.5, 2))
    cv = np.stack([np.diag(rng.uniform(0.5, 10.0, 2)) for _ in range(k)])
    return rng.normal(size=(k, 2)) * 10.0, ch, cv


def assert_close(got, want, rtol=1e-12):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.integers(1, 6),
       st.lists(st.integers(0, 5), min_size=1, max_size=6))
def test_stacked_innovations_equal_slice_by_slice_calls(seed, n, picks):
    rng = np.random.default_rng(seed)
    x, cx, p, cp = random_points(rng, n)
    rows = np.array(picks) % n  # repeated rows share one linearization point
    y, ch, cv = random_detections(rng, len(rows))
    stacked = split_innovations(innovations(x[rows], cx[rows], p[rows], cp[rows], y, ch, cv), 4)
    for k, r in enumerate(rows):
        one = split_innovations(innovations(x[r:r + 1], cx[r:r + 1], p[r:r + 1], cp[r:r + 1],
                                            y[k:k + 1], ch, cv[k:k + 1]), 4)
        for got, want in zip(stacked, one):
            assert_close(got[k], want[0])


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_gram_matrix_innovations_equal_the_piecewise_composition(seed, n):
    rng = np.random.default_rng(seed)
    x, cx, p, cp = random_points(rng, n)
    y, ch, cv = random_detections(rng, n)
    got = split_innovations(innovations(x, cx, p, cp, y, ch, cv), 4)
    for g, want in zip(got, innovations_by_pieces(x, cx, p, cp, y, ch, cv)):
        assert_close(g, want)


class FloorCount:
    """The trace hooks innovations calls, counting the floored rows."""

    def __init__(self):
        self.floored = self.rows = 0

    def record_rx(self, rx):
        pass

    def record_rp_floor(self, floored, rows):
        self.floored += floored
        self.rows += rows


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.data())
def test_forced_rp_floor_changes_only_its_own_row(seed, n, data):
    rng = np.random.default_rng(seed)
    x, cx, p, cp = random_points(rng, n)
    y, ch, cv = random_detections(rng, n)
    ch = np.eye(2) * rng.uniform(0.1, 0.5)
    # A thin extent with next to no other noise makes Cy nearly rank one, so
    # Rp has an eigenvalue near (l2 / l1)^4 of its largest, below the floor.
    r = data.draw(st.integers(0, n - 1))
    l1 = rng.uniform(5.0, 20.0)
    p[r, 1:] = l1, l1 * rng.uniform(2e-3, 5e-3)
    cx[r], cp[r], cv[r] = np.eye(4) * 1e-6, np.eye(3) * 1e-9, np.eye(2) * 1e-6
    count = FloorCount()
    got = split_innovations(innovations(x, cx, p, cp, y, ch, cv, count), 4)
    assert (count.floored, count.rows) == (1, n)
    # This row's Rx has a condition number up to 2.5e5, so its closed-form
    # inverse agrees with LAPACK's to about 1e-11.
    want = innovations_by_pieces(x[r:r + 1], cx[r:r + 1], p[r:r + 1], cp[r:r + 1], y[r:r + 1],
                                 ch, cv[r:r + 1])
    for g, w in zip(got, want):
        assert_close(g[r], w[0], rtol=1e-9)
    for k in range(n):
        one = split_innovations(innovations(x[k:k + 1], cx[k:k + 1], p[k:k + 1], cp[k:k + 1],
                                            y[k:k + 1], ch, cv[k:k + 1]), 4)
        for g, w in zip(got, one):
            assert np.array_equal(g[k], w[0])


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_ceot_scatter_sums_every_detection_into_its_one_row(seed, k):
    rng = np.random.default_rng(seed)
    x, cx, p, cp = random_points(rng, 1)
    y, ch, cv = random_detections(rng, k)
    params = TrackerParams(ch=ch, cv_by_node=tuple(cv), fx=np.eye(4),
                           wwx=np.eye(4), wwp=np.eye(3))
    kin, ext = initial_states(x[:1], cx[:1], p[:1], cp[:1])
    # The scan re-anchors the prior before it linearizes it.
    ext = InformationState(sanitize_extent_by_rows(ext.q[0], ext.omega[0])[None], ext.omega)
    xs, cxs = (v[0] for v in to_moments(kin))
    ps, cps = (v[0] for v in to_moments(ext))
    sums = [np.zeros_like(a) for a in (kin.q, kin.omega, ext.q, ext.omega)]
    for j in range(k):
        block = innovations(xs, cxs, ps, cps, y[j:j + 1], ch, cv[j:j + 1])
        for acc, value in zip(sums, split_innovations(block, 4)):
            acc += value
    omega_p = ext.omega + sums[3]
    want_ext = InformationState(sanitize_extent_by_rows((ext.q + sums[2])[0], omega_p[0])[None],
                                omega_p)
    got_kin, got_ext = correct_scan(kin, ext, *flat_scan([[y[j:j + 1] for j in range(k)]]), params,
                                    FilterConfig(kind=FilterKind.CEOT))
    assert_close(got_kin.q, kin.q + sums[0])
    assert_close(got_kin.omega, kin.omega + sums[1])
    assert_close(got_ext.q, want_ext.q)
    assert_close(got_ext.omega, want_ext.omega)


AXES = st.one_of(st.just(1e-3), st.floats(1e-3, 200.0))
ANGLES = st.floats(-7.0, 7.0, exclude_min=True, exclude_max=True)
COORDS = st.floats(-100.0, 100.0)


@st.composite
def poses(draw, n):
    """n centers (n, 2) and extents (n, 3): orientations in (-7, 7) rad and
    semi-axes from the 1e-3 m floor to 200 m, circles among them."""
    centers, extents = [], []
    for _ in range(n):
        l1 = draw(AXES)
        l2 = l1 if draw(st.booleans()) else draw(AXES)
        centers.append([draw(COORDS), draw(COORDS)])
        extents.append([draw(ANGLES), l1, l2])
    return np.array(centers), np.array(extents)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(poses(n), poses(1))))
def test_stacked_gwd_matches_eigh_oracle(draw):
    (m, p), (m_true, p_true) = draw
    got = gwd(m, p, m_true[0], p_true[0])
    assert got.shape == (len(p),)
    for k, d in enumerate(got):
        want = gwd_eigh(m[k], p[k], m_true[0], p_true[0])
        # The oracle's squared distance is only good to e2; the distances then
        # differ by at most e2 / (d + want), and never by more than sqrt(e2).
        e2 = gwd_eigh_rounding(m[k], p[k], m_true[0], p_true[0])
        assert abs(d - want) <= 1e-9 * want + 1e-9 + e2 / max(d + want, np.sqrt(e2))


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(2, 5))
def test_stacked_ospa_nees_and_acee_equal_slice_by_slice_calls(seed, n, nodes):
    rng = np.random.default_rng(seed)
    x, cx, p, _ = random_points(rng, n)
    truth = rng.normal(size=4) * 5.0
    true_verts = extent_vertices(truth[:2], [0.3, 5.0, 2.0])
    verts = extent_vertices(x[:, :2], p)
    ospa, errors = ospa_vertices(verts, true_verts, cutoff=10.0), nees(x, cx, truth)
    grid = rng.normal(size=(n, nodes, 3)) * 5.0
    spread = acee(grid)
    for k in range(n):
        assert_close(verts[k], extent_vertices(x[k, :2], p[k]))
        assert_close(ospa[k], ospa_vertices(verts[k], true_verts, cutoff=10.0))
        assert_close(errors[k], nees(x[k], cx[k], truth))
        assert_close(spread[k], acee(grid[k]))


def random_spd(rng, k, size):
    """k random symmetric positive definite (size, size) matrices."""
    a = rng.normal(size=(k, size, size))
    return sym(a @ a.swapaxes(-1, -2)) + rng.uniform(0.1, 2.0, (k, 1, 1)) * np.eye(size)


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.sampled_from([2, 4]), st.data())
def test_packed_sanitize_equals_the_row_loop_oracle(seed, k, d, data):
    rng = np.random.default_rng(seed)
    # Means with orientations in (-7, 7) and semi-axes from -1 to 10, many of
    # them out of range, plus some exactly at the floor and at pi.
    means = np.column_stack([rng.uniform(-7.0, 7.0, k), rng.uniform(-1.0, 10.0, (k, 2))])
    means[rng.random(k) < 0.2, 0] = np.pi
    means[:, 1:][rng.random((k, 2)) < 0.2] = MIN_AXIS
    omega = random_spd(rng, k, 3)
    q = (omega @ means[..., None])[..., 0]
    kin = rng.normal(size=(k, d + d * d))
    flat = np.concatenate([kin, q, omega.reshape(k, 9)], axis=1)
    rows = data.draw(st.none() | st.lists(st.integers(0, k - 1), unique=True)
                     .map(lambda r: np.array(r, dtype=int)))
    mask = np.zeros(k, dtype=bool)
    mask[slice(None) if rows is None else rows] = True
    want = sanitize_extent_by_rows(q, omega, rows)
    _sanitize_extent(flat[:, d + d * d:d + d * d + 3], flat[:, d + d * d + 3:].reshape(k, 3, 3),
                     mask)
    assert np.array_equal(flat[:, d + d * d:d + d * d + 3], want)
    assert np.array_equal(flat[:, :d + d * d], kin)
    assert np.array_equal(flat[:, d + d * d + 3:], omega.reshape(k, 9))
    # The stacked (R, n, 3) form of a scan's starting rows gives the same
    # rows, and leaves q untouched while every mean is in range.
    stacked = q.reshape(1, k, 3).copy()
    _sanitize_extent(stacked, omega.reshape(1, k, 3, 3), np.ones((1, k), dtype=bool))
    assert np.array_equal(stacked[0], sanitize_extent_by_rows(q, omega))
    calm = np.column_stack([rng.uniform(-3.0, 3.0, k), rng.uniform(1.0, 10.0, (k, 2))])
    q_calm = (omega @ calm[..., None])[..., 0]
    got = q_calm.copy()
    _sanitize_extent(got, omega, np.ones(k, dtype=bool))
    assert np.array_equal(got, q_calm)


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.lists(st.integers(1, 6), min_size=1, max_size=8),
       st.lists(st.integers(1, 6), max_size=8), st.data())
def test_deferred_rx_bounds_equal_eager_per_call_bounds(seed, sizes_a, sizes_b, data):
    rng = np.random.default_rng(seed)
    stacks_a, stacks_b = ([random_spd(rng, n, 2) * rng.uniform(1e-3, 1e3) for n in sizes]
                          for sizes in (sizes_a, sizes_b))
    a, b = AssumptionTrace(), AssumptionTrace()
    for rx in stacks_a:
        a.record_rx(rx)
        if data.draw(st.booleans()):  # a scan ends and reduces what it recorded
            a.record_omega(np.eye(2))
    for rx in stacks_b:
        b.record_rx(rx)
    assert (a.rx_min, a.rx_max) == rx_bounds_by_calls(stacks_a)
    merged = b.merge(a)
    assert (merged.rx_min, merged.rx_max) == rx_bounds_by_calls(stacks_b + stacks_a)
    assert (b.rx_min, b.rx_max) == rx_bounds_by_calls(stacks_b)
