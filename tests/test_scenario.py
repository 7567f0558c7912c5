import pickle
from dataclasses import replace

import numpy as np
import pytest
import yaml

from eotnet.consensus import check_primitive, metropolis_weights
from eotnet.scenario import (
    CONFIG_KEYS,
    PRESETS,
    build_scenario_run,
    generate_measurements,
    generate_truth,
    load_config,
    benchmark_network,
    preset_text,
    resolve_network,
)
from oracles import sample_measurements, scan_batches


def test_presets_load_and_match_parameter_tables():
    s1 = load_config("s1")
    assert s1.kinematic_dim == 2
    assert np.allclose(s1.cv, np.diag([3.0, 9.0]))
    assert np.allclose(s1.ch, np.eye(2) / 3)
    assert np.allclose(s1.x0_mean, [1.0, 1.0])
    assert np.allclose(s1.p0_mean, [0.0, 2.0, 12.0])
    assert np.allclose(s1.cx0, np.eye(2))
    assert np.allclose(s1.cp0, np.diag([1.0, 4.0, 9.0]))
    assert s1.meas_law == "fixed" and s1.meas_count == 100
    assert s1.trajectory.orientation == pytest.approx(np.pi / 4)
    assert s1.semi_axes == (4.0, 9.0)

    s2 = load_config("s2")
    assert s2.scan_time == 10.0
    assert np.allclose(s2.cv, np.diag([200.0, 8.0]))
    assert np.allclose(s2.ch, np.eye(2) / 4)
    assert np.allclose(s2.cxw, np.diag([100.0, 100.0, 1.0, 1.0]))
    assert np.allclose(s2.cpw, np.diag([0.05, 1.0, 1.0]))
    assert np.allclose(s2.cx0, np.diag([100.0, 100.0, 10.0, 10.0]))
    assert np.allclose(s2.cp0, np.diag([0.36, 70.0, 40.0]))
    assert s2.meas_law == "poisson" and s2.meas_rate == 5.0
    assert s2.semi_axes == (170.0, 40.0)
    assert s2.trajectory.speed_mps == pytest.approx(50000.0 / 3600.0)

    s3 = load_config("s3")
    assert s3.shape == "rectangle"
    assert np.allclose(s3.cv, np.eye(2))
    assert np.allclose(s3.cpw, np.diag([0.05, 0.01, 0.001]))
    assert s3.semi_axes == (10.0, 5.0)


def test_preset_text_round_trip(tmp_path):
    text = preset_text("s2")
    path = tmp_path / "custom.yaml"
    path.write_text(text.replace("steps: 40", "steps: 7"))
    config = load_config(path)
    assert config.steps == 7
    assert config.name == "s2"


def test_unknown_preset():
    with pytest.raises(ValueError):
        preset_text("s9")


def test_stationary_truth_constant():
    config = load_config("s1", steps=5)
    x_true, p_true = generate_truth(config)
    assert x_true.shape == (5, 2) and p_true.shape == (5, 3)
    assert (x_true == x_true[0]).all() and (p_true == p_true[0]).all()
    assert p_true[0, 0] == pytest.approx(np.pi / 4)
    assert tuple(p_true[0, 1:]) == (4.0, 9.0)


def test_straight_course_spacing():
    config = load_config("s2", trajectory={
        "kind": "waypoints",
        "waypoints": [[0.0, 0.0], [10000.0, 0.0]],
        "speed_kmh": 50.0,
    })
    positions = generate_truth(config)[0][:, :2]
    gaps = np.linalg.norm(np.diff(positions, axis=0), axis=1)
    assert np.allclose(gaps, 50000.0 / 3600.0 * 10.0, atol=1e-9)


def test_waypoint_truth_heading_and_velocity():
    config = load_config("s2")
    x_true, p_true = generate_truth(config)
    positions = x_true[:, :2]
    # arc length along the course advances one step length per scan, so all
    # chord gaps except the corner-straddling one equal the step length
    gaps = np.linalg.norm(np.diff(positions, axis=0), axis=1)
    step = 50000.0 / 3600.0 * 10.0
    off = np.flatnonzero(~np.isclose(gaps, step, atol=1e-9))
    assert len(off) <= 1  # only the corner chord is shorter
    assert np.all(gaps[off] < step)
    # first leg heads +x, after the turn +y
    alphas = p_true[:, 0]
    assert alphas[0] == pytest.approx(0.0)
    assert alphas[-1] == pytest.approx(np.pi / 2)
    assert set(np.round(alphas, 12)) <= {0.0, round(np.pi / 2, 12)}
    # velocities follow the heading
    v0 = x_true[0, 2:]
    assert np.allclose(v0, [50000.0 / 3600.0, 0.0])


def test_waypoint_truth_extends_past_last_waypoint():
    config = load_config("s2", steps=200)
    x_true, p_true = generate_truth(config)
    assert len(x_true) == len(p_true) == 200
    # tail keeps the final heading
    assert p_true[-1, 0] == pytest.approx(np.pi / 2)
    assert x_true[-1, 1] > x_true[-2, 1]


def test_generate_measurements_counts_and_empty_relays():
    config = load_config("s1")
    net = benchmark_network()
    (run,) = build_scenario_run(config, net, [123])
    assert len(scan_batches(run)) == 1
    per_node = scan_batches(run)[0]
    for s in range(net.size):
        if s in net.sensor_nodes:
            assert per_node[s].shape == (100, 2)
        else:
            assert per_node[s].shape == (0, 2)


def test_poisson_counts_mean():
    config = load_config("s2", steps=1)
    net = benchmark_network()
    counts = []
    truth = generate_truth(config)
    rng_seed = np.random.SeedSequence(42)
    for run in generate_measurements(truth, net, config, rng_seed.spawn(1700)):
        counts.extend(len(scan_batches(run)[0][s]) for s in net.sensor_nodes)
    counts = np.array(counts, dtype=float)
    assert counts.size >= 10_000
    tol = 3.0 * np.sqrt(5.0 / counts.size)
    assert abs(counts.mean() - 5.0) < tol


def test_same_seed_bit_identical():
    config = load_config("s2", steps=3)
    net = benchmark_network()
    (a,) = build_scenario_run(config, net, [99])
    (b,) = build_scenario_run(config, net, [99])
    assert np.array_equal(a.x0, b.x0)
    assert np.array_equal(a.p0, b.p0)
    for step_a, step_b in zip(scan_batches(a), scan_batches(b)):
        for node_a, node_b in zip(step_a, step_b):
            assert np.array_equal(node_a, node_b)
    (c,) = build_scenario_run(config, net, [100])
    assert not np.array_equal(a.x0, c.x0)


def test_measurement_covariance_at_true_pose():
    # large-sample covariance approaches S Ch S.T + Cv at the true pose
    from eotnet.geometry import shape_matrix

    config = load_config("s1", measurements={"law": "fixed", "count": 60_000})
    net = benchmark_network()
    (run,) = build_scenario_run(config, net, [5])
    node = net.sensor_nodes[0]
    ys = scan_batches(run)[0][node]
    s_mat = shape_matrix(run.p_true[0])
    expected = s_mat @ config.ch @ s_mat.T + config.cv
    assert np.allclose(np.cov(ys.T), expected, rtol=0.05, atol=0.05 * np.abs(expected).max())


def test_fixed_prior_mode_uses_configured_means():
    config = load_config("s1")
    net = benchmark_network()
    (run,) = build_scenario_run(config, net, [1])
    assert np.array_equal(run.x0, [1.0, 1.0])
    assert np.array_equal(run.p0, [0.0, 2.0, 12.0])


def test_sampled_priors_center_on_truth():
    config = load_config("s2", steps=1)
    net = benchmark_network()
    draws = np.array([run.x0 for run in build_scenario_run(config, net, range(300))])
    truth0 = generate_truth(config)[0][0]
    spread = np.sqrt(np.diag(config.cx0))
    assert np.all(np.abs(draws.mean(0) - truth0) < 4 * spread / np.sqrt(300))


def test_benchmark_network_consensus_is_primitive():
    net = benchmark_network()
    assert check_primitive(metropolis_weights(net))


def test_resolve_inline_network():
    config = load_config("s1", network={
        "positions": [[0.0, 0.0], [500.0, 0.0], [1000.0, 0.0]],
        "sensor_nodes": [0, 2],
        "comm_radius": 600.0,
    })
    net = resolve_network(config)
    assert net.size == 3
    assert net.sensor_nodes == (0, 2)


def s1_without_steps():
    return "\n".join(line for line in preset_text("s1").splitlines()
                     if not line.startswith("steps"))


def test_config_validation_errors(tmp_path):
    bad = preset_text("s1").replace("law: fixed", "law: nonsense")
    path = tmp_path / "bad.yaml"
    path.write_text(bad)
    with pytest.raises(ValueError):
        load_config(path)
    path2 = tmp_path / "missing.yaml"
    path2.write_text(s1_without_steps())
    with pytest.raises(ValueError, match="missing"):
        load_config(path2)


# (old, new, message): edits of the s2 preset text and the error each must give.
S2_EDITS = [
    ("steps: 40", "steps: 0", "steps must be >= 1"),
    ("scan_time: 10.0", "scan_time: -10", "scan_time must be > 0"),
    # integers are checked, not truncated; every number must be finite
    ("steps: 40", "steps: 3.9", "steps must be an integer, got 3.9"),
    ("steps: 40", "steps: .inf", "steps must be finite"),
    ("steps: 40", "steps: true", "steps must be an integer, got True"),
    ("scan_time: 10.0", "scan_time: .nan", "scan_time must be finite"),
    ("scan_time: 10.0", "scan_time: .inf", "scan_time must be finite"),
    ("runs: 50", "runs: 2.5", "runs must be an integer, got 2.5"),
    ("runs: 50", "runs: .nan", "runs must be finite"),
    ("runs: 50", "runs: true", "runs must be an integer, got True"),
    ("seed: 0", "seed: 1.5", "seed must be an integer, got 1.5"),
]


@pytest.mark.parametrize("old, new, message", S2_EDITS)
def test_config_rejects_nonpositive_steps_and_scan_time(tmp_path, old, new, message):
    path = tmp_path / "bad.yaml"
    path.write_text(preset_text("s2").replace(old, new))
    with pytest.raises(ValueError, match=message):
        load_config(path)


def test_sensor_index_outside_network_is_rejected():
    config = load_config("s1", network={
        "positions": [[0.0, 0.0], [500.0, 0.0], [1000.0, 0.0]],
        "sensor_nodes": [0, 7],
        "comm_radius": 600.0,
    })
    with pytest.raises(ValueError, match=r"sensor_nodes \[7\] are outside the 3"):
        resolve_network(config)


def test_empty_sensor_nodes_are_rejected():
    config = load_config("s1", network={
        "positions": [[0.0, 0.0], [500.0, 0.0]],
        "sensor_nodes": [],
        "comm_radius": 600.0,
    })
    with pytest.raises(ValueError, match="sensor_nodes is empty"):
        resolve_network(config)


def preset_with(preset, keys, value):
    """The YAML text of a preset with the entry at the path of keys replaced."""
    data = yaml.safe_load(preset_text(preset))
    entry = data
    for key in keys[:-1]:
        entry = entry[key]
    entry[keys[-1]] = value
    return yaml.safe_dump(data)


def write_s3_with(tmp_path, section, key, value):
    path = tmp_path / "bad.yaml"
    path.write_text(preset_with("s3", [section, key] if section else [key], value))
    return path


# (section, key, value): s3 entries of the wrong size.
WRONG_SIZE_ENTRIES = [
    ("noise", "measurement_cov", [1.0, 1.0, 1.0]),
    ("process", "kinematic_cov", [50.0, 50.0]),  # s3 has kinematic_dim 4
    ("priors", "extent_cov", [0.36, 5.0]),
]


@pytest.mark.parametrize("section, key, value", WRONG_SIZE_ENTRIES)
def test_config_rejects_matrix_of_wrong_size(tmp_path, section, key, value):
    with pytest.raises(ValueError, match=rf"{section}\.{key} must be .* got shape \({len(value)},\)"):
        load_config(write_s3_with(tmp_path, section, key, value))


# (section, key, value, message): bad s3 entries and the error each must give.
BAD_NESTED_ENTRIES = [
    ("noise", "measurment_covv", [1.0, 1.0], "unknown scenario config keys: noise.measurment_covv"),
    ("process", "extent_covv", [0.1, 0.1, 0.1], "unknown scenario config keys: process.extent_covv"),
    ("priors", "extent_mena", [0.0, 5.0, 5.0], "unknown scenario config keys: priors.extent_mena"),
    ("trajectory", "speed_kph", 50.0, "unknown scenario config keys: trajectory.speed_kph"),
    # s3 draws Poisson counts, so a fixed count is not read
    ("measurements", "count", 5, "unknown scenario config keys: measurements.count"),
    ("priors", "kinematic_mean", [0.0, 0.0],
     r"priors.kinematic_mean must be a list of 4 entries, got shape \(2,\)"),
    ("priors", "extent_mean", [0.0, 5.0],
     r"priors.extent_mean must be a list of 3 entries, got shape \(2,\)"),
    ("measurements", "rate", float("nan"), "measurements.rate must be finite"),
    ("measurements", "rate", float("inf"), "measurements.rate must be finite"),
    ("trajectory", "speed_kmh", -50.0, "trajectory.speed_kmh must be >= 0"),
    (None, "measurements", {"law": "fixed", "count": 2.5},
     "measurements.count must be an integer, got 2.5"),
    ("measurements", "rate", "fast", "measurements.rate must be a number, got 'fast'"),
    ("trajectory", "speed_kmh", True, "trajectory.speed_kmh must be a number, got True"),
    ("priors", "mode", "bogus", "priors.mode must be fixed or sampled, got 'bogus'"),
    # a section or entry of the wrong type is named before it is read
    (None, "semi_axes", 5, r"semi_axes must be two positive finite lengths, got 5.0"),
    (None, "semi_axes", None, "semi_axes must be two positive finite lengths"),
    (None, "semi_axes", ["long", 5.0], r"semi_axes must be numbers, got \['long', 5.0\]"),
    (None, "trajectory", 5, "trajectory must be a mapping"),
    (None, "measurements", 3, "measurements must be a mapping"),
    (None, "measurements", [1], "measurements must be a mapping"),
    # a covariance entry is finite and numeric, and one the filters invert positive definite
    ("noise", "measurement_cov", [float("nan"), 1.0], "noise.measurement_cov must be finite"),
    ("priors", "kinematic_cov", [float("nan"), 1.0, 1.0, 1.0],
     "priors.kinematic_cov must be finite"),
    ("noise", "measurement_cov", ["a", 1.0], "noise.measurement_cov must be numbers"),
    ("noise", "measurement_cov", [[1.0, 0.0], [0.0]], "noise.measurement_cov must be numbers"),
    ("priors", "kinematic_cov", [50.0, -50.0, 1.0, 1.0],
     "priors.kinematic_cov must be positive definite"),
    ("process", "extent_cov", [0.05, 0.0, 0.001], "process.extent_cov must be positive definite"),
    # an inline network's entries are checked at load
    (None, "network", {"positions": [[0.0, 0.0], [500.0, 0.0]], "sensor_nodes": [0.5, 1.0],
                       "comm_radius": 600.0}, "network.sensor_nodes must be an integer, got 0.5"),
    (None, "network", {"positions": [[0.0, 0.0], [500.0, 0.0]], "sensor_nodes": [True],
                       "comm_radius": 600.0}, "network.sensor_nodes must be an integer, got True"),
    (None, "network", {"positions": [[0.0, 0.0], [500.0, 0.0]], "sensor_nodes": 0,
                       "comm_radius": 600.0},
     "network.sensor_nodes must be a list of node indices, got 0"),
    (None, "network", {"positions": [[0.0, 0.0], [500.0, float("nan")]], "sensor_nodes": [0],
                       "comm_radius": 600.0}, "network.positions must be finite"),
    (None, "network", {"positions": [[0.0, 0.0], [500.0, 0.0]], "sensor_nodes": [0],
                       "comm_radius": float("nan")}, "network.comm_radius must be finite"),
    # a full covariance matrix must be symmetric, and a noise one positive semidefinite
    ("priors", "kinematic_cov", [[100.0, 5.0, 0.0, 0.0], [0.0, 100.0, 0.0, 0.0],
                                 [0.0, 0.0, 10.0, 0.0], [0.0, 0.0, 0.0, 10.0]],
     "priors.kinematic_cov is not symmetric"),
    ("noise", "measurement_cov", [[1.0, 0.5], [0.3, 1.0]], "noise.measurement_cov is not symmetric"),
    ("noise", "measurement_cov", [[1.0, 2.0], [2.0, 1.0]],
     "noise.measurement_cov is not positive semidefinite"),
    ("noise", "multiplicative_cov", [0.25, -0.25],
     "noise.multiplicative_cov is not positive semidefinite"),
    # a course that repeats a point has no heading there
    ("trajectory", "waypoints", [[500.0, 1000.0], [3500.0, 1000.0], [3500.0, 1000.0]],
     r"consecutive trajectory.waypoints must be distinct, got \[3500.0, 1000.0\] at 1 and 2"),
    # a course needs two planar points, a network planar positions
    ("trajectory", "waypoints", [[500.0, 1000.0]],
     r"^trajectory.waypoints must be at least 2 planar points, got shape \(1, 2\)$"),
    (None, "network", {"positions": [[0.0, 0.0, 0.0], [500.0, 0.0, 0.0]], "sensor_nodes": [0],
                       "comm_radius": 600.0},
     r"^network.positions must be a list of planar points, got shape \(2, 3\)$"),
    (None, "shape", "circle", "^unknown shape 'circle'$"),
    (None, "kinematic_dim", 3, "^kinematic_dim must be 2 or 4, got 3$"),
]


@pytest.mark.parametrize("section, key, value, message", BAD_NESTED_ENTRIES)
def test_config_rejects_bad_nested_entries(tmp_path, section, key, value, message):
    with pytest.raises(ValueError, match=message):
        load_config(write_s3_with(tmp_path, section, key, value))


def test_config_accepts_an_integral_float_run_count(tmp_path):
    config = load_config(write_s3_with(tmp_path, None, "runs", 2.0))
    assert config.runs == 2 and type(config.runs) is int


def test_config_accepts_zero_speed(tmp_path):
    config = load_config(write_s3_with(tmp_path, "trajectory", "speed_kmh", 0.0))
    assert config.trajectory.speed_mps == 0.0


def test_config_rejects_unknown_top_level_key(tmp_path):
    with pytest.raises(ValueError, match="unknown scenario config keys: stepz"):
        load_config(write_s3_with(tmp_path, None, "stepz", 40))


def test_all_presets_parse():
    for name in PRESETS:
        config = load_config(name)
        assert config.runs >= 1
        assert set(yaml.safe_load(preset_text(name))) == CONFIG_KEYS


POSITIONS = [[0.0, 0.0], [500.0, 0.0]]


@pytest.mark.parametrize("network, message", [
    ({"positions": POSITIONS, "sensor_nodes": [0], "comm_radus": 600.0},
     "unknown scenario config keys: network.comm_radus"),
    ({"positions": POSITIONS, "sensor_nodes": [0], "comm_radius": 600.0, "extra": 1},
     "unknown scenario config keys: network.extra"),
    ({"positions": POSITIONS, "sensor_nodes": [0]},
     "scenario config is missing keys: network.comm_radius"),
    ({"comm_radius": 600.0},
     "scenario config is missing keys: network.positions, network.sensor_nodes"),
])
def test_config_checks_inline_network_keys(tmp_path, network, message):
    with pytest.raises(ValueError, match=message):
        load_config(write_s3_with(tmp_path, None, "network", network))


def test_config_rejects_network_that_is_not_a_mapping(tmp_path):
    with pytest.raises(ValueError, match="network must be a mapping"):
        load_config(write_s3_with(tmp_path, None, "network", "benchmrk"))


def fixed_priors(preset):
    """A preset's priors entry with mode fixed, as a load_config override."""
    return {**yaml.safe_load(preset_text(preset))["priors"], "mode": "fixed"}


@pytest.mark.parametrize("preset", ["s1", "s2"])
def test_generate_measurements_draws_like_sample_measurements(preset):
    # fixed priors draw nothing, so both generators start at the first count
    config = load_config(preset, steps=3, priors=fixed_priors(preset))
    net = benchmark_network()
    truth = generate_truth(config)
    (run,) = generate_measurements(truth, net, config, [2024])
    rng = np.random.default_rng(2024)
    for x, p, per_node in zip(*truth, scan_batches(run)):
        for s in range(net.size):
            if s not in net.sensor_nodes:
                assert per_node[s].shape == (0, 2)
                continue
            n = config.meas_count if config.meas_law == "fixed" else int(rng.poisson(
                config.meas_rate))
            assert np.array_equal(per_node[s],
                                  sample_measurements(x[:2], p, config.ch, config.cv, n, rng))


def test_a_sensors_single_detection_keeps_the_bits_of_its_own_draw():
    # The library applies the noise factors and the shape matrix to a whole
    # step's draws at once.  numpy multiplies a one-row draw as a vector,
    # which rounds differently from a product of more rows, so a sensor's
    # single detection must come out as sample_measurements draws it alone.
    # Full covariances and a low rate make such rows common and every
    # product round.
    ch, cv = np.array([[0.3, 0.1], [0.1, 0.2]]), np.array([[2.0, 0.7], [0.7, 1.5]])
    config = load_config("s2", steps=40, priors=fixed_priors("s2"),
                         measurements={"law": "poisson", "rate": 1.5},
                         noise={"multiplicative_cov": ch.tolist(),
                                "measurement_cov": cv.tolist()})
    net = benchmark_network()
    truth = generate_truth(config)
    seeds = list(range(10))
    singles = 0
    for seed, run in zip(seeds, generate_measurements(truth, net, config, seeds)):
        rng = np.random.default_rng(seed)
        for x, p, per_node, counts in zip(*truth, scan_batches(run), run.counts):
            singles += np.count_nonzero(counts == 1) * (counts.sum() > 1)
            for s in net.sensor_nodes:
                n = int(rng.poisson(config.meas_rate))
                assert np.array_equal(per_node[s], sample_measurements(x[:2], p, ch, cv, n, rng))
    assert singles > 100


def test_generate_measurements_rejects_bad_covariance():
    # A bad noise covariance never reaches generate_measurements: replace
    # rejects it by its config path, as load_config does.
    config = load_config("s1", steps=1)
    for bad, verdict in ((np.array([[1, 2], [2, 1]]) * -1.0, "is not positive semidefinite"),
                         (np.array([[1.0, 0.5], [0.3, 1.0]]), "is not symmetric")):
        with pytest.raises(ValueError, match=f"^noise.multiplicative_cov {verdict}"):
            replace(config, ch=bad)
        with pytest.raises(ValueError, match=f"^noise.measurement_cov {verdict}"):
            replace(config, cv=bad)


# (preset, path, value, message): non-finite truth entries and their errors.
NONFINITE_TRUTH_ENTRIES = [
    ("s2", ["semi_axes", 0], float("nan"), "semi_axes must be two positive finite"),
    ("s2", ["trajectory", "speed_kmh"], float("nan"), "trajectory.speed_kmh must be finite"),
    ("s2", ["trajectory", "waypoints", 1, 0], float("nan"), "trajectory.waypoints must be finite"),
    ("s1", ["trajectory", "orientation"], float("nan"), "trajectory.orientation must be finite"),
    ("s1", ["trajectory", "position", 0], float("inf"), "trajectory.position must be finite"),
]


@pytest.mark.parametrize("preset, path, value, message", NONFINITE_TRUTH_ENTRIES,
                         ids=["semi_axes", "speed", "waypoint", "orientation", "position"])
def test_config_rejects_nonfinite_truth(tmp_path, preset, path, value, message):
    bad = tmp_path / "bad.yaml"
    bad.write_text(preset_with(preset, path, value))
    with pytest.raises(ValueError, match=message):
        load_config(bad)


@pytest.mark.parametrize("preset, field, value, message", [
    ("s2", "semi_axes", (float("nan"), 2.0), r"semi_axes must be two positive finite lengths"),
    ("s2", "semi_axes", (0.0, 2.0), r"semi_axes must be two positive finite lengths"),
    ("s2", "scan_time", float("nan"), r"scan_time must be finite, got nan"),
    ("s1", "trajectory.position", [0.0, float("nan")],
     r"trajectory.position must be finite, got \[0.0, nan\]"),
], ids=["nan-semi_axis", "zero-semi_axis", "nan-scan_time", "nan-position"])
def test_truth_of_overridden_config_must_be_finite(preset, field, value, message):
    # An entry that would make the truth non-finite is rejected where the
    # config or its trajectory is built, by its config path.
    config = load_config(preset)
    with pytest.raises(ValueError, match=f"^{message}"):
        if field.startswith("trajectory."):
            replace(config.trajectory, **{field.removeprefix("trajectory."): value})
        else:
            replace(config, **{field: value})


def written_documents():
    """Every YAML document the tests write: the presets and their edits."""
    from test_cli import BAD_CONFIG_EDITS, tiny_config_text

    tiny, s1, s2 = tiny_config_text(), preset_text("s1"), preset_text("s2")
    return [
        *(preset_text(name) for name in PRESETS),
        tiny, tiny.replace("steps: 4", "steps: 0"),
        *(tiny.replace(old, new) for old, new, _ in BAD_CONFIG_EDITS),
        s2.replace("steps: 40", "steps: 7"), s1.replace("law: fixed", "law: nonsense"),
        s1_without_steps(),
        *(s2.replace(old, new) for old, new, _ in S2_EDITS),
        *(preset_with("s3", [section, key] if section else [key], value)
          for section, key, value, *_ in WRONG_SIZE_ENTRIES + BAD_NESTED_ENTRIES
          + [("trajectory", "speed_kmh", 0.0), (None, "stepz", 40), (None, "runs", 2.0)]),
        *(preset_with(preset, path, value) for preset, path, value, _ in NONFINITE_TRUTH_ENTRIES),
    ]


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML is built without libyaml")
def test_c_and_python_yaml_loaders_parse_every_written_document_alike():
    documents = written_documents()
    assert len(documents) == 83
    for text in documents:
        # repr compares types and NaNs too, which == on the mappings does not.
        assert repr(yaml.load(text, Loader=yaml.CSafeLoader)) == repr(yaml.safe_load(text))


def test_a_pickled_config_is_read_only_and_checked():
    # The CLI's worker pool pickles the config; the copy is built again.
    config = load_config("s3")
    copy = pickle.loads(pickle.dumps(config))
    for name in ("ch", "cv", "cxw", "cpw", "cx0", "cp0"):
        value = getattr(copy, name)
        assert np.array_equal(value, getattr(config, name)) and not value.flags.writeable, name
    waypoints = copy.trajectory.waypoints
    assert np.array_equal(waypoints, config.trajectory.waypoints)
    assert not waypoints.flags.writeable
    object.__setattr__(config, "runs", 0)
    with pytest.raises(ValueError, match="^runs must be >= 1, got 0$"):
        pickle.loads(pickle.dumps(config))


def test_load_config_falls_back_to_the_python_loader(monkeypatch):
    loaded = [pickle.dumps(load_config(name)) for name in PRESETS]
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    assert [pickle.dumps(load_config(name)) for name in PRESETS] == loaded
