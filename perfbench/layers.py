"""The eotnet layers the traced run wraps, and the per-layer metrics it reports.

Every function a layer module lists in `__all__` is wrapped, plus three
private tracker hooks that have no public entry point.  Observers read counts
off a call's arguments and result (matrix sizes, rounds, rows, bytes); the
metrics below are derived from those counts and from the span table.
"""

from __future__ import annotations

import importlib
import inspect
import os

import numpy as np

from tracer import Tracer

PACKAGE = "eotnet"
LAYERS = ("scenario", "geometry", "linearization", "info_filter", "_linalg",
          "consensus", "trackers", "diagnostics", "cli")
PRIVATE_HOOKS = ("_lin_point", "_node_innovations", "_sanitize_extent")
CORRECT_LOOPS = ("ceot_correct", "ci_correct", "cm_correct")
FLOAT_BYTES = 8


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _spd_solve(tracer, args, kwargs, result):
    a, b = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "b")
    n = np.shape(a)[0]
    rhs = 1 if np.ndim(b) == 1 else np.shape(b)[1]
    tracer.counters[f"spd_solve.n{n}"] += 1
    # Cholesky factor plus one forward and one backward substitution per column.
    tracer.counters["flops"] += n ** 3 / 3 + 2 * n * n * rhs


def _consensus_rounds(tracer, args, kwargs, result):
    values = _arg(args, kwargs, 0, "values")
    pi = _arg(args, kwargs, 1, "pi")
    rounds = _arg(args, kwargs, 2, "rounds")
    pi = np.asarray(getattr(pi, "pi", pi))
    directed_edges = np.count_nonzero(pi) - np.count_nonzero(np.diag(pi))
    payload = np.size(values[0])
    tracer.counters["rounds"] += rounds
    tracer.counters["messages"] += rounds * directed_edges
    tracer.counters["bytes"] += rounds * directed_edges * payload * FLOAT_BYTES


def _sanitize(tracer, args, kwargs, result):
    tracer.counters["sanitize.changed"] += result is not _arg(args, kwargs, 0, "ext")


def _run_filter(tracer, args, kwargs, result):
    tracer.samples["step_seconds"].extend(np.asarray(result.step_seconds).tolist())


def _evaluate_run(tracer, args, kwargs, result):
    tracer.counters["rows"] += len(result)


def _write_metrics_csv(tracer, args, kwargs, result):
    tracer.counters["csv_bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _build_scenario_run(tracer, args, kwargs, result):
    tracer.counters["scans"] += len(result.measurements)
    tracer.counters["detections"] += sum(len(m) for scan in result.measurements for m in scan)


OBSERVERS = {
    ("_linalg", "spd_solve"): _spd_solve,
    ("consensus", "consensus_rounds"): _consensus_rounds,
    ("trackers", "_sanitize_extent"): _sanitize,
    ("diagnostics", "evaluate_run"): _evaluate_run,
    ("diagnostics", "write_metrics_csv"): _write_metrics_csv,
    ("scenario", "build_scenario_run"): _build_scenario_run,
}


def targets():
    """(module, attribute, observer) for every public function of every layer
    plus the private tracker hooks; a layer that no longer imports is listed
    with a placeholder attribute so the tracer reports it absent."""
    out = []
    for layer in LAYERS:
        name = f"{PACKAGE}.{layer}"
        try:
            module = importlib.import_module(name)
        except ImportError:
            out.append((name, "*", None))
            continue
        for attr in getattr(module, "__all__", ()):
            fn = getattr(module, attr, None)
            if inspect.isfunction(fn) and fn.__module__ == name:
                out.append((name, attr, OBSERVERS.get((layer, attr))))
    out += [(f"{PACKAGE}.trackers", hook, OBSERVERS.get(("trackers", hook)))
            for hook in PRIVATE_HOOKS]
    return out


def step_targets():
    """Only `run_filter`, whose TrackRecord carries the step latencies; the
    untraced passes of a traced run wrap just this one call per realization."""
    return [(f"{PACKAGE}.trackers", "run_filter", _run_filter)]


TIME_UNITS = ("s/run", "ms", "us")


def layer_metrics(tracer: Tracer, realizations: int, step_seconds,
                  time_scale: float = 1.0) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced pass, per Monte Carlo realization unless
    the unit says otherwise.  Step latencies come from untraced passes.
    Times are multiplied by `time_scale`, the machine-speed correction."""
    spans = tracer.summary()
    per_run = 1.0 / realizations
    c = tracer.counters
    scans = max(c["scans"], 1)

    def stat(label, field):
        s = spans.get(label)
        return getattr(s, field) if s is not None else 0

    def layer_sum(layer, field):
        return sum(getattr(s, field) for label, s in spans.items()
                   if label.split(".", 1)[0] == layer)

    solves = stat("_linalg.spd_solve", "calls")
    sanitize_calls = stat("trackers._sanitize_extent", "calls")
    steps_ms = np.asarray(step_seconds) * 1e3
    p50, p90 = (np.percentile(steps_ms, [50, 90]) if steps_ms.size else (0.0, 0.0))
    m = {
        "linalg.spd_solve.calls": (solves * per_run, "calls/run"),
        "linalg.spd_solve.calls.n2": (c["spd_solve.n2"] * per_run, "calls/run"),
        "linalg.spd_solve.calls.n3": (c["spd_solve.n3"] * per_run, "calls/run"),
        "linalg.spd_solve.calls.n4": (c["spd_solve.n4"] * per_run, "calls/run"),
        "linalg.spd_solve.self_s": (stat("_linalg.spd_solve", "self_s") * per_run, "s/run"),
        "linalg.spd_solve.us_per_call": (
            stat("_linalg.spd_solve", "self_s") / solves * 1e6 if solves else 0.0, "us"),
        "linalg.flops": (c["flops"] * per_run, "flop/run"),
        "linearization.extent_noise_moments.calls": (
            stat("linearization.extent_noise_moments", "calls") * per_run, "calls/run"),
        "linearization.extent_noise_moments.self_s": (
            stat("linearization.extent_noise_moments", "self_s") * per_run, "s/run"),
        "linearization.self_s": (layer_sum("linearization", "self_s") * per_run, "s/run"),
        "geometry.calls": (layer_sum("geometry", "calls") * per_run, "calls/run"),
        "geometry.self_s": (layer_sum("geometry", "self_s") * per_run, "s/run"),
        "info_filter.correct.calls": (stat("info_filter.correct", "calls") * per_run, "calls/run"),
        "info_filter.correct.self_s": (stat("info_filter.correct", "self_s") * per_run, "s/run"),
        "info_filter.predict.self_s": (stat("info_filter.predict", "self_s") * per_run, "s/run"),
        "info_filter.to_moments.calls": (
            stat("info_filter.to_moments", "calls") * per_run, "calls/run"),
        "info_filter.to_moments.self_s": (
            stat("info_filter.to_moments", "self_s") * per_run, "s/run"),
        "info_filter.innovation.calls": (
            stat("info_filter.innovation", "calls") * per_run, "calls/run"),
        "consensus.consensus_rounds.calls": (
            stat("consensus.consensus_rounds", "calls") * per_run, "calls/run"),
        "consensus.consensus_rounds.self_s": (
            stat("consensus.consensus_rounds", "self_s") * per_run, "s/run"),
        "consensus.rounds": (c["rounds"] / scans, "rounds/scan"),
        "consensus.messages_per_scan": (c["messages"] / scans, "msg/scan"),
        "consensus.bytes_per_scan": (c["bytes"] / scans, "B/scan"),
        "trackers.correct_loop.self_s": (
            sum(stat(f"trackers.{f}", "self_s") for f in CORRECT_LOOPS) * per_run, "s/run"),
        "trackers.lin_point.total_s": (stat("trackers._lin_point", "total_s") * per_run, "s/run"),
        "trackers.innovations.total_s": (
            stat("trackers._node_innovations", "total_s") * per_run, "s/run"),
        "trackers.sanitize.calls": (sanitize_calls * per_run, "calls/run"),
        "trackers.sanitize.total_s": (
            stat("trackers._sanitize_extent", "total_s") * per_run, "s/run"),
        "trackers.sanitize.useful_ratio": (
            c["sanitize.changed"] / sanitize_calls if sanitize_calls else 0.0, "ratio"),
        "trackers.step_ms.p50": (float(p50), "ms"),
        "trackers.step_ms.p90": (float(p90), "ms"),
        "diagnostics.evaluate_run.total_s": (
            stat("diagnostics.evaluate_run", "total_s") * per_run, "s/run"),
        "diagnostics.rows": (c["rows"] * per_run, "rows/run"),
        "diagnostics.gwd.self_s": (stat("diagnostics.gwd", "self_s") * per_run, "s/run"),
        "diagnostics.write_metrics_csv.total_s": (
            stat("diagnostics.write_metrics_csv", "total_s") * per_run, "s/run"),
        "diagnostics.csv_bytes": (c["csv_bytes"] * per_run, "B/run"),
        "scenario.build_scenario_run.total_s": (
            stat("scenario.build_scenario_run", "total_s") * per_run, "s/run"),
        "scenario.detections": (c["detections"] * per_run, "count/run"),
        "cli.run.self_s": (stat("cli.run", "self_s") * per_run, "s/run"),
    }
    return {name: (float(value) * (time_scale if unit in TIME_UNITS else 1.0), unit)
            for name, (value, unit) in m.items()}
