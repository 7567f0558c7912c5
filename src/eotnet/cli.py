"""Batch benchmark harness and the one Monte Carlo driver.

The driver builds a config's network, consensus weights, params and seeds
once; each worker of the pool filters its contiguous share of the runs in
one stacked pass and reduces the record for its caller, to the CLI run's
metric table or to the bounded-MSE experiment's squared errors.  The CLI
writes metrics.csv / summary.txt / assumptions.txt (over every run) into the
output directory; sweeps repeat a run per setting and add a combined file.
Outputs are deterministic for a fixed seed; EOT_THREADS caps the pool.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .consensus import metropolis_weights
from .diagnostics import (AssumptionTrace, check_assumptions, evaluate_run, summarize_metrics,
                          write_metrics_csv)
from .scenario import PRESETS, build_scenario_run, load_config, preset_text, resolve_network
from .trackers import FilterConfig, FilterKind, params_from_scenario, run_filter

__all__ = ["run", "sweep", "bounded_mse_experiment", "BoundedMseResult", "main"]


def _worker(reduce, traced, config, net, params, filter_config, pi, seeds):
    """Realize and filter one share of a batch's runs as one stacked pass;
    returns what reduce makes of its record, and its trace if traced."""
    trace = AssumptionTrace() if traced else None
    batch = build_scenario_run(config, net, seeds)
    return reduce(run_filter(batch, net, params, filter_config, pi, trace), batch, config), trace


def _pool_size(runs: int) -> int:
    """Workers for runs realizations: at most EOT_THREADS, a positive
    integer, or the CPU count when it is unset or blank."""
    cap = os.environ.get("EOT_THREADS", "").strip()
    try:
        limit = int(cap) if cap else (os.cpu_count() or 1)
    except ValueError:
        limit = 0
    if limit < 1:
        raise ValueError(f"EOT_THREADS must be a positive integer, got {cap!r}")
    return min(runs, limit)


def _monte_carlo(config, filter_config: FilterConfig, reduce, traced=False):
    """Run config.runs realizations of config under one filter in contiguous
    shares on the worker pool, and reduce each share's record with reduce, a
    module-level function of (record, the share's ScenarioBatch, config).
    Returns the shares' results in run order, their merged trace if traced
    (else None), and the network, Π and params the runs share."""
    net = resolve_network(config)
    pi = metropolis_weights(net)
    params = params_from_scenario(config, net)
    seeds = np.random.SeedSequence(config.seed).spawn(config.runs)
    # Each share is a contiguous range of runs, so the results stay in run order.
    shares = [[seeds[i] for i in share]
              for share in np.array_split(np.arange(config.runs), _pool_size(config.runs))]
    work = functools.partial(_worker, reduce, traced, config, net, params, filter_config, pi)
    if len(shares) == 1:
        results = [work(shares[0])]
    else:
        # Imported only for a pool: it is a tenth of the CLI's import time.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=len(shares)) as pool:
            results = list(pool.map(work, shares))
    results, traces = zip(*results)
    trace = functools.reduce(AssumptionTrace.merge, traces) if traced else None
    return results, trace, net, pi, params


def _run_table(record, batch, config):
    """A share's metric table and its runs' step times."""
    columns, values = evaluate_run(record, (batch.x_true, batch.p_true), config.shape)
    # Each run's step times, as the summary averages them over runs.
    return columns, values, np.tile(record.step_seconds, record.runs)


def _squared_errors(record, batch, config):
    """A share's (runs, steps) squared kinematic errors, averaged over nodes."""
    return ((record.x_mean - batch.x_true[:, None, :]) ** 2).sum(axis=3).mean(axis=2)


def run(config, filter_config: FilterConfig, out_dir) -> tuple[list, np.ndarray]:
    """Run one scenario config under one filter, write its artifacts into
    out_dir, and return its metric table (columns, values) with values
    (runs, steps, columns)."""
    shares, trace, net, pi, params = _monte_carlo(config, filter_config, _run_table, traced=True)
    columns, values, step_seconds = zip(*shares)
    columns, values, step_seconds = columns[0], np.concatenate(values), np.concatenate(step_seconds)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_metrics_csv(out / "metrics.csv", columns, values)

    omega_val = filter_config.omega if filter_config.omega is not None else float(net.size)
    report = check_assumptions(fx=params.fx, h=np.eye(2, config.kinematic_dim), q_cov=config.cxw,
                               pi=pi, rounds=filter_config.consensus_iters,
                               omega=omega_val if filter_config.kind is FilterKind.CM else 1.0,
                               trace=trace)
    (out / "assumptions.txt").write_text(report.as_text() + "\n")

    lines = [
        f"scenario: {config.name}",
        f"filter: {filter_config.kind.value}",
        f"runs: {config.runs}",
        f"seed: {config.seed}",
        f"steps: {config.steps}",
        f"consensus iterations: {filter_config.consensus_iters}",
        f"omega: {omega_val:g}" + ("" if filter_config.omega is not None else " (node count)"),
        f"measurements: {config.meas_law} "
        + (f"count={config.meas_count}" if config.meas_law == "fixed"
           else f"rate={config.meas_rate:g}"),
        f"mean wall time per tracking step: {step_seconds.mean():.6f} s",
        "",
        "metric means +/- std over all (run, step, node) samples:",
    ]
    for metric, (mean, std, count) in summarize_metrics(columns, values).items():
        lines.append(f"  {metric:10s} {mean:.6g} +/- {std:.6g}  (n={count})")
    (out / "summary.txt").write_text("\n".join(lines) + "\n")
    return columns, values


def sweep(settings, out_dir) -> int:
    """Run each (label, config, filter_config) setting into the subdirectory
    its label names, L=6 into L_6, and write a combined comparison CSV."""
    if not settings:
        raise ValueError("sweep list must not be empty")
    dirs = [label.replace("=", "_") for label, _, _ in settings]
    if len(set(dirs)) < len(dirs):
        raise ValueError("sweep settings collide: settings that print alike would share "
                         + ", ".join(sorted({name for name in dirs if dirs.count(name) > 1})))
    out, combined = Path(out_dir), []  # the first run makes out
    for (label, config, filter_config), name in zip(settings, dirs):
        table = run(config, filter_config, out / name)
        for metric, (mean, std, count) in summarize_metrics(*table).items():
            combined.append(f"{label},{metric},{mean:.9g},{std:.9g},{count}\n")
    (out / "combined.csv").write_text("setting,metric,mean,std,count\n" + "".join(combined),
                                      newline="\n")
    return 0


@dataclass(frozen=True)
class BoundedMseResult:
    mse_per_step: np.ndarray
    mid_mean: float
    tail_mean: float

    @property
    def bounded(self) -> bool:
        return self.tail_mean <= 2.0 * self.mid_mean


def bounded_mse_experiment(config, filter_config) -> BoundedMseResult:
    """Empirical mean-square kinematic error per step over the Monte Carlo
    batch the CLI runs for config: config.runs realizations of config.steps.

    The tail (last quarter of the steps) is compared against the mid-run mean
    (second and third quarters): a bounded-error filter keeps the tail below
    twice the mid-run level, so config.steps must be at least 8, and
    distributed filters require more than one consensus iteration here.
    """
    if config.steps < 8:
        raise ValueError(f"steps must be >= 8, got {config.steps}")
    if filter_config.kind is not FilterKind.CEOT and filter_config.consensus_iters <= 1:
        raise ValueError("boundedness experiments need more than one consensus iteration")
    shares, *_ = _monte_carlo(config, filter_config, _squared_errors)
    mse = np.concatenate(shares).sum(axis=0) / config.runs
    quarter = config.steps // 4
    return BoundedMseResult(mse_per_step=mse, mid_mean=float(mse[quarter:-quarter].mean()),
                            tail_mean=float(mse[-quarter:].mean()))


def _parse_sweep_list(text: str, kind):
    try:
        values = [kind(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad sweep list {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("sweep list must not be empty")
    return values


def _parse_omega(text: str):
    if text.strip().upper() == "G":
        return None
    try:
        return float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("omega must be 'G' or a number") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eotnet",
        description="Extended object tracking benchmark over sensor networks.",
    )
    src = parser.add_mutually_exclusive_group(required=True)
    src.add_argument("--scenario", choices=PRESETS, help="preset scenario")
    src.add_argument("--config", type=Path, help="scenario YAML file")
    parser.add_argument("--filter", choices=[k.value for k in FilterKind],
                        help="tracker to run")
    parser.add_argument("--L", type=int, default=None, dest="consensus_iters",
                        help="consensus iterations per measurement index")
    parser.add_argument("--lambda", type=float, default=None, dest="poisson_rate",
                        help="Poisson measurement rate override")
    parser.add_argument("--fixed-n", type=int, default=None, dest="fixed_count",
                        help="fixed measurement count override")
    parser.add_argument("--runs", type=int, default=None, help="Monte Carlo runs")
    parser.add_argument("--seed", type=int, default=None, help="base RNG seed")
    parser.add_argument("--omega", type=_parse_omega, default=None,
                        help="measurement-consensus weight: 'G' (node count) or a number")
    parser.add_argument("--out", type=Path, default=None, help="output directory")
    parser.add_argument("--sweep-L", type=lambda t: _parse_sweep_list(t, int),
                        default=None, help="comma-separated consensus iteration sweep")
    parser.add_argument("--sweep-lambda", type=lambda t: _parse_sweep_list(t, float),
                        default=None, help="comma-separated Poisson rate sweep")
    parser.add_argument("--dump-config", action="store_true",
                        help="print the scenario config and exit")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    source = args.scenario if args.scenario else args.config
    if args.dump_config:
        try:
            sys.stdout.write(preset_text(source) if args.scenario else Path(source).read_text())
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        return 0

    if args.filter is None:
        parser.error("--filter is required unless --dump-config is given")
    if args.out is None:
        parser.error("--out is required unless --dump-config is given")
    if args.poisson_rate is not None and args.fixed_count is not None:
        parser.error("--lambda and --fixed-n are mutually exclusive")
    if args.sweep_L is not None and args.sweep_lambda is not None:
        parser.error("only one sweep may be given")
    if args.sweep_L is not None and args.consensus_iters is not None:
        parser.error("--L and --sweep-L are mutually exclusive")
    if args.sweep_lambda is not None and (args.poisson_rate, args.fixed_count) != (None, None):
        parser.error("--sweep-lambda excludes --lambda and --fixed-n")

    kind = FilterKind(args.filter)
    overrides = {key: value for key, value in (("runs", args.runs), ("seed", args.seed))
                 if value is not None}
    if args.poisson_rate is not None:
        overrides["measurements"] = {"law": "poisson", "rate": args.poisson_rate}
    if args.fixed_count is not None:
        overrides["measurements"] = {"law": "fixed", "count": args.fixed_count}

    def filter_config(rounds):
        return FilterConfig(kind, rounds if rounds is not None else 1, args.omega)

    try:
        if args.sweep_lambda is not None:
            return sweep([(f"lambda={rate:g}",
                           load_config(source, **overrides,
                                       measurements={"law": "poisson", "rate": rate}),
                           filter_config(args.consensus_iters))
                          for rate in args.sweep_lambda], args.out)
        config = load_config(source, **overrides)
        if args.sweep_L is not None:
            return sweep([(f"L={rounds}", config, filter_config(rounds))
                          for rounds in args.sweep_L], args.out)
        run(config, filter_config(args.consensus_iters), args.out)
        return 0
    except (OSError, ValueError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
