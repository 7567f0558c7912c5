"""End-to-end acceptance suite.

Each test exercises one release criterion at its stated tolerance and prints
one PASS/FAIL line.  Thresholds are fixed here, not tuned at runtime; the
stochastic experiments pin their seeds so the suite is deterministic.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time

import numpy as np
import pytest

from eotnet.cli import bounded_mse_experiment, main as cli_main
from eotnet.consensus import NodeKind, build_network, metropolis_weights
from eotnet.diagnostics import (
    AssumptionTrace,
    acee,
    check_assumptions,
    ospa_vertices,
)
from eotnet.geometry import clamp_extent, extent_vertices, shape_matrix
from eotnet.info_filter import predict, to_moments
from eotnet.scenario import build_scenario_run, load_config, benchmark_network
from eotnet.trackers import (
    FilterConfig,
    FilterKind,
    initial_states,
    params_from_scenario,
    run_filter,
)
from oracles import (
    corrected,
    extent_alignment_error,
    extent_measurement_matrix,
    extent_noise_moments,
    flat_scan,
    fuse_nodes,
    kalman_predict_moments,
    kinematic_noise_cov,
    nees,
    nees_bounds,
    pairs,
    predicted,
    quartic_moment_cov,
    quartic_moment_mean,
    residual_cov,
    sample_linearized_residuals,
    scan_batches,
    shape_row_jacobians,
)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def complete_sensor_network(n):
    positions = np.stack([np.arange(n) * 10.0, np.zeros(n)], axis=1)
    net = build_network(positions, [NodeKind.SENSOR] * n, comm_radius=1000.0)
    spec = {"positions": positions.tolist(), "sensor_nodes": list(range(n)),
            "comm_radius": 1000.0}
    return net, spec


def test_cm_matches_ceot_oracle():
    # complete graphs, identical priors, one averaging round, node-count
    # weight: every node must track the centralized filter to 1e-9 relative
    # at each of 50 steps
    t0 = time.perf_counter()
    worst = 0.0
    for n in (2, 3, 5):
        net, spec = complete_sensor_network(n)
        config = load_config("s2", steps=50, network=spec)
        pi = metropolis_weights(net)
        params = params_from_scenario(config, net)
        scn = build_scenario_run(config, net, [1234])
        ceot = FilterConfig(kind=FilterKind.CEOT)
        cm = FilterConfig(kind=FilterKind.CM, consensus_iters=1, omega=float(n))
        prior = (scn.x0, scn.cx0, scn.p0, scn.cp0)
        center, nodes = initial_states(*prior), initial_states(*prior, n)
        for batches in scan_batches(scn):
            center = predicted(corrected(center, *flat_scan([batches]), params, ceot), params)
            nodes = predicted(corrected(nodes, *flat_scan([batches]), params, cm, pi), params)
            (c_kin, c_ext), (n_kin, n_ext) = pairs(center), pairs(nodes)
            ((xc,),), _ = to_moments(*c_kin)
            ((pc,),), _ = to_moments(*c_ext)
            for xn, pn in zip(to_moments(*n_kin)[0][0], to_moments(*n_ext)[0][0]):
                worst = max(
                    worst,
                    np.abs(xn - xc).max() / np.abs(xc).max(),
                    np.abs(pn - pc).max() / np.abs(pc).max(),
                )
    elapsed = time.perf_counter() - t0
    report(
        "CM==CEOT oracle",
        worst < 1e-9 and elapsed < 10.0,
        f"max relative deviation {worst:.2e} (tol 1e-9), {elapsed:.1f}s (budget 10s)",
    )


def random_moment_config(rng):
    p_hat = np.array([rng.uniform(-3, 3), rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)])
    a = rng.normal(size=(2, 2))
    cx = a @ a.T + 0.2 * np.eye(2)
    cp = np.diag(rng.uniform(0.2, 1.0, 3)) * 0.02
    ch = np.eye(2) * rng.uniform(0.2, 0.5)
    cv = np.diag(rng.uniform(0.2, 1.5, 2))
    return p_hat, cx, cp, ch, cv


def test_moment_matching_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    worst_closed = 0.0
    for _ in range(200):
        p_hat, cx, cp, ch, cv = random_moment_config(rng)
        rx = kinematic_noise_cov(p_hat, cp, ch, cv)
        cy = residual_cov(cx, rx)
        m = extent_measurement_matrix(p_hat, ch)
        vbar, rp = extent_noise_moments(cy, m, cp, p_hat, floor=False)
        s = shape_matrix(p_hat)
        j1, j2 = shape_row_jacobians(p_hat)
        mean_err = np.abs(vbar + m @ p_hat
                          - quartic_moment_mean(cx, s, j1, j2, cp, ch, cv)).max()
        cov_err = np.abs(rp + m @ cp @ m.T - quartic_moment_cov(cy)).max()
        worst_closed = max(worst_closed, mean_err, cov_err)

    worst_mc = 0.0
    for _ in range(2):
        p_hat, cx, cp, ch, cv = random_moment_config(rng)
        rx = kinematic_noise_cov(p_hat, cp, ch, cv)
        cy = residual_cov(cx, rx)
        m = extent_measurement_matrix(p_hat, ch)
        vbar, rp = extent_noise_moments(cy, m, cp, p_hat, floor=False)
        s = shape_matrix(p_hat)
        j1, j2 = shape_row_jacobians(p_hat)
        d = sample_linearized_residuals(rng, 1_000_000, cx, s, j1, j2, cp, ch, cv)
        y = np.stack([d[:, 0] ** 2, d[:, 1] ** 2, d[:, 0] * d[:, 1]], axis=1)
        mean_model = vbar + m @ p_hat
        cov_model = rp + m @ cp @ m.T
        worst_mc = max(
            worst_mc,
            np.abs(y.mean(0) - mean_model).max() / np.abs(mean_model).max(),
            np.abs(np.cov(y.T) - cov_model).max() / np.abs(cov_model).max(),
        )
    elapsed = time.perf_counter() - t0
    report(
        "moment-matching oracle",
        worst_closed < 1e-10 and worst_mc < 0.03 and elapsed < 60.0,
        f"closed-form err {worst_closed:.2e} (tol 1e-10), "
        f"MC rel err {worst_mc:.3f} (tol 0.03), {elapsed:.1f}s (budget 60s)",
    )


def test_prediction_equivalence_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 6))
        x = rng.normal(size=n)
        a = rng.normal(size=(n, n))
        cov = a @ a.T + n * np.eye(n)
        f = rng.normal(size=(n, n)) + np.eye(n)
        b = rng.normal(size=(n, n))
        q_cov = b @ b.T + n * np.eye(n)
        out = predict(x, cov, f, q_cov)
        x_ref, cov_ref = kalman_predict_moments(x, cov, f, q_cov)
        x_out, cov_out = to_moments(*out)
        worst = max(
            worst,
            np.abs(x_out - x_ref).max() / max(1.0, np.abs(x_ref).max()),
            np.abs(cov_out - cov_ref).max() / np.abs(cov_ref).max(),
        )
    elapsed = time.perf_counter() - t0
    report(
        "prediction equivalence oracle",
        worst < 1e-10 and elapsed < 1.0,
        f"max relative deviation {worst:.2e} (tol 1e-10), {elapsed:.2f}s (budget 1s)",
    )


def test_consensus_convergence():
    rng = np.random.default_rng(3)
    net = benchmark_network()
    pi = metropolis_weights(net)
    vals = rng.uniform(1.0, 10.0, size=(net.size, 3))
    total = vals.sum(axis=0)
    sum_drift = 0.0
    out = vals
    for _ in range(200):
        out = pi.power(1) @ out
        sum_drift = max(sum_drift, np.abs(out.sum(axis=0) - total).max())
    avg = vals.mean(axis=0)
    spread = np.abs(out - avg).max() / np.abs(avg).min()
    report(
        "consensus convergence",
        spread < 1e-6 and sum_drift < 1e-10,
        f"relative spread after 200 rounds {spread:.2e} (tol 1e-6), "
        f"sum drift {sum_drift:.2e} (tol 1e-10)",
    )


def test_s1_convergence():
    # stationary high-noise rectangle, 100 sequential measurements per sensor;
    # network outputs are summarized by information-weighted fusion over nodes
    t0 = time.perf_counter()
    config = load_config("s1")
    net = benchmark_network()
    pi = metropolis_weights(net)
    params = params_from_scenario(config, net)
    scn = build_scenario_run(config, net, [67])
    truth_m, truth_p = scn.x_true[0, :2], scn.p_true[0]
    true_verts = extent_vertices(truth_m, truth_p)

    results = {}
    for name, fc in (
        ("ceot", FilterConfig(kind=FilterKind.CEOT)),
        ("ci", FilterConfig(kind=FilterKind.CI, consensus_iters=6)),
        ("cm", FilterConfig(kind=FilterKind.CM, consensus_iters=6)),
    ):
        rec = run_filter(scn, net, params, fc, pi)
        if rec.nodes == 1:
            x, p = rec.x_mean[0, -1, 0], rec.p_mean[0, -1, 0]
        else:
            x, _ = fuse_nodes(rec.x_mean[0, -1], rec.x_cov[0, -1])
            p, _ = fuse_nodes(rec.p_mean[0, -1], rec.p_cov[0, -1])
        pos_err = float(np.linalg.norm(x[:2] - truth_m))
        p = clamp_extent(p)
        dl1, dl2, _ = extent_alignment_error(p, truth_p)
        ospa = ospa_vertices(extent_vertices(x[:2], p), true_verts)
        results[name] = (pos_err, max(dl1, dl2), ospa)

    elapsed = time.perf_counter() - t0
    worst_err = max(v for r in results.values() for v in r[:2])
    ospa_ok = results["cm"][2] <= 1.1 * results["ci"][2]
    detail = ", ".join(
        f"{n} pos {r[0]:.3f} axes {r[1]:.3f}" for n, r in results.items()
    ) + (f"; ospa cm {results['cm'][2]:.2f} vs ci {results['ci'][2]:.2f}"
         f", {elapsed:.1f}s (budget 30s)")
    report(
        "S1 convergence",
        worst_err < 0.5 and ospa_ok and elapsed < 30.0,
        detail,
    )


def test_acee_iteration_trend():
    # more averaging rounds must reduce the mean inter-node disagreement
    t0 = time.perf_counter()
    config = load_config("s2")
    net = benchmark_network()
    pi = metropolis_weights(net)
    params = params_from_scenario(config, net)
    children = np.random.SeedSequence(config.seed).spawn(10)
    batch = build_scenario_run(config, net, children)
    means = {}
    for kind in (FilterKind.CI, FilterKind.CM):
        for rounds in (1, 6):
            kin_vals, ext_vals = [], []
            rec = run_filter(batch, net, params,
                             FilterConfig(kind=kind, consensus_iters=rounds), pi)
            for r in range(rec.runs):
                kin_vals.extend(acee(rec.x_mean[r, k]) for k in range(rec.steps))
                ext_vals.extend(acee(rec.p_mean[r, k]) for k in range(rec.steps))
            means[(kind, rounds)] = (float(np.mean(kin_vals)), float(np.mean(ext_vals)))
    elapsed = time.perf_counter() - t0
    ok = all(
        means[(kind, 6)][i] < means[(kind, 1)][i]
        for kind in (FilterKind.CI, FilterKind.CM)
        for i in (0, 1)
    )
    detail = "; ".join(
        f"{kind.value} kin {means[(kind, 1)][0]:.2f}->{means[(kind, 6)][0]:.2f} "
        f"ext {means[(kind, 1)][1]:.2f}->{means[(kind, 6)][1]:.2f}"
        for kind in (FilterKind.CI, FilterKind.CM)
    )
    report(
        "disagreement decreases with iterations",
        ok and elapsed < 300.0,
        f"{detail}, {elapsed:.0f}s (budget 300s)",
    )


def test_bounded_mse_and_assumptions():
    # measurement-consensus filter with two rounds stays mean-square bounded
    # over a long run, and the stability assumptions hold numerically
    config = load_config("s2", steps=200, runs=50)
    result = bounded_mse_experiment(config, FilterConfig(kind=FilterKind.CM, consensus_iters=2))

    net = benchmark_network()
    pi = metropolis_weights(net)
    params = params_from_scenario(config, net)
    trace = AssumptionTrace()
    batch = build_scenario_run(load_config("s2", steps=20), net, [0])
    run_filter(batch, net, params, FilterConfig(kind=FilterKind.CM, consensus_iters=2),
               pi, trace=trace)
    rep = check_assumptions(params.fx, np.eye(2, 4), config.cxw,
                            pi, rounds=2, omega=float(net.size), trace=trace)
    report(
        "bounded mean-square error",
        result.bounded and rep.all_pass,
        f"tail/mid {result.tail_mean:.1f}/{result.mid_mean:.1f} "
        f"= {result.tail_mean / result.mid_mean:.3f} (tol 2.0); "
        f"assumptions A1 {rep.a1_pass} A2 {rep.a2_pass} A3 {rep.a3_pass}",
    )


def test_nees_consistency():
    # centralized filter over a short segment: run-averaged NEES stays inside
    # the 99% chi-square band with each side's distance from the state
    # dimension doubled (the truth course carries no process noise, so the
    # filter sits on the conservative side, near the lower edge)
    config = load_config("s2", steps=8)
    net = benchmark_network()
    pi = metropolis_weights(net)
    params = params_from_scenario(config, net)
    runs = 50
    children = np.random.SeedSequence(config.seed).spawn(runs)
    batch = build_scenario_run(config, net, children)
    rec = run_filter(batch, net, params, FilterConfig(kind=FilterKind.CEOT), pi)
    mean_nees = float(nees(rec.x_mean[:, :, 0], rec.x_cov[:, :, 0], batch.x_true).mean())
    dim = 4
    lo, hi = nees_bounds(dim, runs, confidence=0.99)
    lo_wide = dim - 2.0 * (dim - lo)
    hi_wide = dim + 2.0 * (hi - dim)
    report(
        "NEES consistency",
        lo_wide < mean_nees < hi_wide,
        f"mean kinematic NEES {mean_nees:.3f} in widened band "
        f"({lo_wide:.3f}, {hi_wide:.3f}); raw 99% band ({lo:.3f}, {hi:.3f})",
    )


def test_cli_determinism(tmp_path, monkeypatch):
    monkeypatch.setenv("EOT_THREADS", "2")
    args = ["--scenario", "s1", "--filter", "cm", "--L", "2", "--runs", "2",
            "--seed", "7", "--fixed-n", "25"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli_main(args + ["--out", str(out1)]) == 0
    assert cli_main(args + ["--out", str(out2)]) == 0
    b1 = (out1 / "metrics.csv").read_bytes()
    b2 = (out2 / "metrics.csv").read_bytes()
    report(
        "CLI determinism",
        b1 == b2 and len(b1) > 0,
        f"two runs produced byte-identical metrics.csv ({len(b1)} bytes)",
    )
