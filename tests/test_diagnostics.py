import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from eotnet.cli import bounded_mse_experiment
from eotnet.consensus import ConsensusMatrix, metropolis_weights
from eotnet.diagnostics import (
    AssumptionTrace,
    acee,
    check_assumptions,
    evaluate_run,
    gwd,
    ospa_vertices,
    summarize_metrics,
    write_metrics_csv,
)
from eotnet.geometry import clamp_extent, extent_vertices, wrap_angle
from eotnet.scenario import benchmark_network, build_scenario_run, load_config
from eotnet.trackers import (
    FilterConfig,
    FilterKind,
    TrackRecord,
    ncv_transition,
    params_from_scenario,
    run_filter,
)
from oracles import (
    extent_alignment_error,
    metrics_csv_by_format,
    nees,
    nees_bounds,
    ospa_all_permutations,
)


def random_pose(rng):
    m = rng.normal(size=2) * 10
    p = np.array([rng.uniform(-3, 3), rng.uniform(0.5, 8), rng.uniform(0.5, 8)])
    return m, p


def test_gwd_identity():
    m, p = np.array([1.0, 2.0]), np.array([0.4, 3.0, 1.0])
    assert gwd(m, p, m, p) == pytest.approx(0.0, abs=1e-9)


def test_gwd_pure_translation():
    p = np.array([0.7, 3.0, 1.0])
    assert gwd([0.0, 0.0], p, [3.0, 4.0], p) == pytest.approx(5.0, rel=1e-9)


def test_gwd_concentric_circles():
    r1, r2 = 2.0, 5.0
    d = gwd([0, 0], np.array([0.0, r1, r1]), [0, 0], np.array([1.0, r2, r2]))
    assert d == pytest.approx(np.sqrt(2.0) * abs(r1 - r2), rel=1e-9)


def test_gwd_metric_properties():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a = random_pose(rng)
        b = random_pose(rng)
        assert gwd(*a, *b) == pytest.approx(gwd(*b, *a), rel=1e-9, abs=1e-9)
    for _ in range(1000):
        a, b, c = random_pose(rng), random_pose(rng), random_pose(rng)
        assert gwd(*a, *c) <= gwd(*a, *b) + gwd(*b, *c) + 1e-9


def test_gwd_orientation_invariance_for_circles():
    d = gwd([0, 0], np.array([0.3, 2, 2]), [0, 0], np.array([-1.2, 2, 2]))
    assert d == pytest.approx(0.0, abs=1e-9)


def test_ospa_identical():
    v = extent_vertices(np.zeros(2), np.array([0.3, 2, 1]))
    assert ospa_vertices(v, v) == pytest.approx(0.0, abs=1e-12)


def test_ospa_translation():
    p = np.array([0.0, 2.0, 1.0])
    v0 = extent_vertices(np.zeros(2), p)
    v1 = extent_vertices(np.array([3.0, 4.0]), p)
    assert ospa_vertices(v1, v0) == pytest.approx(5.0, rel=1e-12)


def test_ospa_half_turn_is_zero():
    p0 = np.array([0.4, 2.0, 1.0])
    p1 = np.array([wrap_angle(0.4 + np.pi), 2.0, 1.0])
    v0 = extent_vertices(np.zeros(2), p0)
    v1 = extent_vertices(np.zeros(2), p1)
    assert ospa_vertices(v1, v0) == pytest.approx(0.0, abs=1e-9)
    assert ospa_all_permutations(v1, v0, 100.0, 2) == pytest.approx(0.0, abs=1e-9)


def test_ospa_axis_swap_is_zero():
    # quarter turn with swapped axes describes the same rectangle
    v0 = extent_vertices(np.zeros(2), np.array([0.2, 2.0, 1.0]))
    v1 = extent_vertices(np.zeros(2), np.array([0.2 + np.pi / 2, 1.0, 2.0]))
    assert ospa_vertices(v1, v0) == pytest.approx(0.0, abs=1e-9)


def test_ospa_matches_exhaustive_oracle():
    rng = np.random.default_rng(1)
    for _ in range(50):
        va = extent_vertices(rng.normal(size=2), np.array([rng.uniform(-3, 3), 2.5, 1.0]))
        vb = extent_vertices(rng.normal(size=2), np.array([rng.uniform(-3, 3), 2.5, 1.0]))
        ours = ospa_vertices(va, vb)
        oracle = ospa_all_permutations(va, vb, 100.0, 2)
        # restricted alignments can only do as well as the exhaustive search
        assert ours >= oracle - 1e-12


def test_ospa_bounded_by_cutoff():
    rng = np.random.default_rng(2)
    for _ in range(50):
        va = extent_vertices(rng.normal(size=2) * 500, np.array([0.1, 3, 1]))
        vb = extent_vertices(rng.normal(size=2) * 500, np.array([0.7, 2, 1]))
        assert ospa_vertices(va, vb, cutoff=100.0) <= 100.0 + 1e-12


def test_ospa_rejects_bad_shapes():
    with pytest.raises(ValueError):
        ospa_vertices(np.zeros((3, 2)), np.zeros((4, 2)))


def test_nees_zero_error():
    assert nees(np.ones(3), np.eye(3), np.ones(3)) == pytest.approx(0.0)


def test_nees_whitening_identity():
    rng = np.random.default_rng(3)
    n = 4
    a = rng.normal(size=(n, n))
    cov = a @ a.T + n * np.eye(n)
    u = rng.normal(size=n)
    u = u / np.linalg.norm(u) * np.sqrt(n)
    w, v = np.linalg.eigh(cov)
    e = (v * np.sqrt(w)) @ v.T @ u
    assert nees(e, cov, np.zeros(n)) == pytest.approx(n, rel=1e-9)


def test_nees_chi_square_mean():
    rng = np.random.default_rng(4)
    n = 4
    cov = np.diag([1.0, 2.0, 3.0, 4.0])
    draws = rng.standard_normal((100_000, n)) * np.sqrt(np.diag(cov))
    inv = np.linalg.inv(cov)
    vals = np.einsum("ki,ij,kj->k", draws, inv, draws)
    assert abs(vals.mean() - n) < 0.05


def test_nees_bounds():
    lo, hi = nees_bounds(4, 50, confidence=0.95)
    assert lo < 4 < hi
    assert lo == pytest.approx(chi2.ppf(0.025, 200) / 50)
    assert hi == pytest.approx(chi2.ppf(0.975, 200) / 50)
    lo2, hi2 = nees_bounds(4, 500, confidence=0.95)
    assert hi2 - lo2 < hi - lo  # tighter with more runs
    with pytest.raises(ValueError):
        nees_bounds(4, 50, confidence=1.5)


def test_acee_values():
    assert acee(np.zeros((3, 4))) == pytest.approx(0.0)
    est = np.array([[0.0, 0.0], [2.0, 0.0]])
    assert acee(est) == pytest.approx(2.0)
    rng = np.random.default_rng(5)
    vals = rng.normal(size=(6, 3))
    shuffled = vals[rng.permutation(6)]
    assert acee(shuffled) == pytest.approx(acee(vals))
    with pytest.raises(ValueError):
        acee(vals[:1])


def test_extent_alignment_error_handles_axis_swap():
    truth = np.array([np.pi / 4, 4.0, 9.0])
    swapped = np.array([np.pi / 4 - np.pi / 2, 9.1, 3.8])
    dl1, dl2, da = extent_alignment_error(swapped, truth)
    assert dl1 == pytest.approx(0.2, abs=1e-12)
    assert dl2 == pytest.approx(0.1, abs=1e-12)
    assert da == pytest.approx(0.0, abs=1e-12)
    plain = extent_alignment_error(np.array([np.pi / 4, 4.3, 9.2]), truth)
    assert plain[0] == pytest.approx(0.3, abs=1e-12)
    assert plain[1] == pytest.approx(0.2, abs=1e-12)


def test_check_assumptions_static_parts():
    trace = AssumptionTrace()
    trace.record_rx(np.diag([2.0, 3.0]))
    trace.record_rx(np.diag([1.0, 5.0]))
    trace.record_omega(np.diag([0.5, 0.8, 1.0, 2.0]))
    pi = metropolis_weights(benchmark_network())
    report = check_assumptions(
        fx=ncv_transition(4, 10.0),
        h=np.hstack([np.eye(2), np.zeros((2, 2))]),
        q_cov=np.diag([100.0, 100.0, 1.0, 1.0]),
        pi=pi,
        rounds=6,
        omega=20.0,
        trace=trace,
    )
    assert report.h_bounds == (1.0, 1.0)
    assert report.f_bounds[0] > 0
    assert report.r_bounds == (1.0, 5.0)
    assert report.info_bounds == (0.5, 2.0)
    assert report.tau_bounds[0] == pytest.approx(1 / 20, rel=1e-6)
    assert report.tau_bounds[1] == pytest.approx(1 / 20, rel=1e-6)
    assert report.a1_pass and report.a2_pass and report.a3_pass and report.all_pass
    text = report.as_text()
    assert "A1" in text and "A3" in text and "pass" in text


def test_assumption_traces_merge_to_their_joint_bounds():
    a, b = AssumptionTrace(), AssumptionTrace()
    a.record_rx(np.diag([2.0, 3.0]))
    a.record_omega(np.diag([0.5, 4.0]))
    b.record_rx(np.diag([1.0, 2.5]))
    b.record_omega(np.diag([0.7, 5.0]))
    merged = a.merge(b)
    assert (merged.rx_min, merged.rx_max) == (1.0, 3.0)
    assert (merged.omega_min, merged.omega_max) == (0.5, 5.0)
    assert merged == b.merge(a)
    assert a.merge(AssumptionTrace()) == a


def test_rx_spectrum_is_recorded_in_closed_form():
    rng = np.random.default_rng(17)
    a = rng.normal(size=(50, 2, 2))
    rx = a @ a.swapaxes(-1, -2) + 0.1 * np.eye(2)
    trace = AssumptionTrace()
    trace.record_rx(rx)
    w = np.linalg.eigvalsh(rx)
    assert trace.rx_min == pytest.approx(w[:, 0].min(), rel=1e-12)
    assert trace.rx_max == pytest.approx(w[:, 1].max(), rel=1e-12)


def test_rp_floor_counts_add_up_across_merges_and_reach_the_report():
    a, b = AssumptionTrace(), AssumptionTrace()
    a.record_rp_floor(0, 6)
    a.record_rp_floor(2, 5)
    b.record_rp_floor(1, 4)
    merged = a.merge(b)
    assert (merged.rp_floor_rows, merged.rp_rows) == (3, 15)
    merged.record_rx(np.eye(2))
    merged.record_omega(np.eye(2))
    report = check_assumptions(np.eye(2), np.eye(2), np.eye(2), ConsensusMatrix(np.eye(2)), 1, 1.0,
                               merged)
    lines = report.as_text().splitlines()
    assert lines[3].startswith("A3") and lines[4] == "Rp eigenvalue floor: 3 of 15 linearized rows"


def test_check_assumptions_detects_nonprimitive():
    trace = AssumptionTrace()
    trace.record_rx(np.eye(2))
    trace.record_omega(np.eye(2))
    flip = ConsensusMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    report = check_assumptions(np.eye(2), np.eye(2), np.eye(2), flip, 1, 1.0, trace)
    assert not report.primitive
    assert not report.a3_pass and not report.all_pass


def test_evaluate_run_rows_follow_the_per_estimate_layout():
    config = load_config("s3", steps=3)
    net = benchmark_network()
    scn = build_scenario_run(config, net, [5])
    rec = run_filter(scn, net, params_from_scenario(config, net),
                     FilterConfig(kind=FilterKind.CM, consensus_iters=1),
                     metropolis_weights(net))
    metrics = ["pos_err", "gwd", "ospa", "nees_kin", "nees_ext"]
    want_columns = [(s, metric) for s in range(rec.nodes) for metric in metrics]
    want_columns += [(-1, "acee_kin"), (-1, "acee_ext")]
    columns, values = evaluate_run(rec, (scn.x_true, scn.p_true), "rectangle")
    assert columns == want_columns
    assert values.shape == (1, rec.steps, len(want_columns)) and values.dtype == float
    for k, (x_true, p_true) in enumerate(zip(scn.x_true, scn.p_true)):
        true_verts = extent_vertices(x_true[:2], p_true)
        want = []
        for s in range(rec.nodes):
            x, p = rec.x_mean[0, k, s], clamp_extent(rec.p_mean[0, k, s])
            e_p = rec.p_mean[0, k, s] - p_true
            e_p[0] = wrap_angle(e_p[0])
            want += [np.linalg.norm(x[:2] - x_true[:2]),
                     gwd(x[:2], p, x_true[:2], p_true),
                     ospa_vertices(extent_vertices(x[:2], p), true_verts),
                     nees(x, rec.x_cov[0, k, s], x_true),
                     nees(e_p, rec.p_cov[0, k, s], np.zeros(3))]
        want += [acee(rec.x_mean[0, k]), acee(rec.p_mean[0, k])]
        np.testing.assert_allclose(values[0, k], want, rtol=1e-12)


NON_FINITE_NAMES = {"p_mean": "extent estimate", "p_cov": "extent covariance",
                    "x_cov": "estimate covariance", "x_mean": "kinematic estimate"}


@pytest.mark.parametrize("field, index", [
    ("p_mean", (1, 2, 0)), ("p_mean", (0, 0, 2)), ("p_cov", (1, 1, 2, 2)), ("x_cov", (0, 2, 1, 1)),
    ("x_mean", (1, 2, 0)), ("x_mean", (0, 1, 1)),
])
def test_evaluate_run_rejects_non_finite_estimates(field, index):
    truth = (np.zeros((2, 2)), np.tile([0.3, 4.0, 2.0], (2, 1)))
    arrays = {
        "x_mean": np.zeros((2, 2, 3, 2)),
        "x_cov": np.tile(np.eye(2), (2, 2, 3, 1, 1)),
        "p_mean": np.tile([0.3, 4.0, 2.0], (2, 2, 3, 1)),
        "p_cov": np.tile(np.eye(3), (2, 2, 3, 1, 1)),
    }
    arrays[field][(1, *index)] = np.nan
    rec = TrackRecord(step_seconds=np.zeros(2), **arrays)
    # The (runs, steps, nodes) stacks name the failing run, step and node.
    where = rf"{NON_FINITE_NAMES[field]} \(run 1, step {index[0]}, node {index[1]}\)"
    with pytest.raises(ValueError, match=rf"{where} (entries must be finite|must not contain)"):
        evaluate_run(rec, truth, "rectangle")


def random_record(rng, runs, steps, nodes):
    """A record of random estimates with random positive definite covariances."""
    def covs(d):
        a = rng.normal(size=(runs, steps, nodes, d, d))
        return a @ a.swapaxes(-1, -2) + 0.1 * np.eye(d)

    x_mean = rng.normal(size=(runs, steps, nodes, 4)) * 10.0
    p_mean = np.stack([rng.uniform(-7.0, 7.0, (runs, steps, nodes)),
                       *rng.uniform(-1.0, 10.0, (2, runs, steps, nodes))], axis=-1)
    return TrackRecord(x_mean, covs(4), p_mean, covs(3), np.zeros(steps))


@pytest.mark.parametrize("shape, nodes", [("rectangle", 4), ("ellipse", 1)])
def test_run_chunks_score_like_the_whole_grid(monkeypatch, shape, nodes):
    import eotnet.diagnostics as diagnostics

    rng = np.random.default_rng(21)
    rec = random_record(rng, 50, 3, nodes)
    truth = (rng.normal(size=(3, 4)), np.tile([0.3, 4.0, 2.0], (3, 1)))
    columns, values = evaluate_run(rec, truth, shape)
    monkeypatch.setattr(diagnostics, "EVAL_CHUNK_RUNS", 50)
    whole_columns, whole = evaluate_run(rec, truth, shape)
    assert columns == whole_columns
    assert values.shape == whole.shape == (50, 3, len(columns))
    assert np.array_equal(values, whole)


def test_a_failing_covariance_is_named_by_its_run_in_the_record():
    rng = np.random.default_rng(22)
    rec = random_record(rng, 20, 2, 3)
    rec.x_cov[17, 1, 2] = -np.eye(4)
    with pytest.raises(np.linalg.LinAlgError,
                       match=r"estimate covariance \(run 17, step 1, node 2\) is singular"):
        evaluate_run(rec, (np.zeros((2, 4)), np.tile([0.3, 4.0, 2.0], (2, 1))), "ellipse")


def test_write_metrics_csv_and_summary(tmp_path):
    # Two runs of one step each: (runs, steps, columns).
    columns = [(-1, "gwd"), (-1, "pos_err")]
    values = np.array([[[1.25, 0.5]], [[0.75, 1.0 / 3.0]]])
    path = tmp_path / "metrics.csv"
    write_metrics_csv(path, columns, values)
    text = path.read_text()
    assert text.splitlines()[0] == "run,step,node,metric,value"
    assert "0,0,-1,gwd,1.25" in text
    assert text.splitlines()[1:] == ["0,0,-1,gwd,1.25", "0,0,-1,pos_err,0.5",
                                     "1,0,-1,gwd,0.75", "1,0,-1,pos_err,0.333333333"]
    stats = summarize_metrics(columns, values)
    assert stats["gwd"][0] == pytest.approx(1.0)
    assert stats["gwd"][2] == 2
    assert set(stats) == {"gwd", "pos_err"}


# Raw float64 bit patterns, which cover NaN payloads and subnormals, and the
# values a %.9g field prints specially.
FLOAT_BITS = st.one_of(
    st.integers(0, 2**64 - 1).map(lambda bits: float(np.uint64(bits).view(np.float64))),
    st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324]))


@st.composite
def metric_tables(draw):
    """A (runs, steps, columns) metric table of 1-3 runs, 1-5 steps and 1-10
    columns, node -1 among them, with its column names."""
    runs, steps = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    columns = draw(st.lists(st.tuples(st.integers(-1, 19),
                                      st.sampled_from(["pos_err", "gwd", "nees_kin", "acee_ext"])),
                            min_size=1, max_size=10))
    columns[draw(st.integers(0, len(columns) - 1))] = (-1, "acee_kin")
    values = draw(st.lists(FLOAT_BITS, min_size=runs * steps * len(columns),
                           max_size=runs * steps * len(columns)))
    return columns, np.array(values).reshape(runs, steps, len(columns))


@settings(max_examples=100, deadline=None)
@given(metric_tables())
def test_metrics_csv_bytes_equal_the_format_writers(tmp_path_factory, table):
    # '%.9g' % v and '{:.9g}'.format(v) print every float64 alike.
    folder = tmp_path_factory.mktemp("csv")
    write_metrics_csv(folder / "new.csv", *table)
    metrics_csv_by_format(folder / "ref.csv", *table)
    assert (folder / "new.csv").read_bytes() == (folder / "ref.csv").read_bytes()


def test_bounded_mse_rejects_single_round():
    with pytest.raises(ValueError, match="consensus iteration"):
        bounded_mse_experiment(load_config("s2", runs=2),
                               FilterConfig(kind=FilterKind.CM, consensus_iters=1))
    with pytest.raises(ValueError, match="steps"):
        bounded_mse_experiment(load_config("s2", steps=4, runs=2),
                               FilterConfig(kind=FilterKind.CM, consensus_iters=2))


@pytest.mark.parametrize("steps, runs, message", [
    (8.5, 2, "steps must be an integer, got 8.5"),
    (True, 2, "steps must be an integer, got True"),
    (7, 2, "steps must be >= 8, got 7"),
    (16, 2.5, "runs must be an integer, got 2.5"),
    (16, True, "runs must be an integer, got True"),
    (16, 0, "runs must be >= 1, got 0"),
    (16, -1, "runs must be >= 1, got -1"),
])
def test_bounded_mse_rejects_bad_steps_and_runs(steps, runs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        bounded_mse_experiment(load_config("s2", steps=steps, runs=runs),
                               FilterConfig(kind=FilterKind.CEOT))


def test_bounded_mse_small_centralized_run():
    result = bounded_mse_experiment(load_config("s2", steps=16, runs=2),
                                    FilterConfig(kind=FilterKind.CEOT))
    assert result.mse_per_step.shape == (16,)
    assert np.isfinite(result.mse_per_step).all()
    assert result.mid_mean > 0 and result.tail_mean > 0
