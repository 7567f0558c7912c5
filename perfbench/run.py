"""Monte Carlo throughput benchmark of the eotnet CLI, with per-layer tracing.

    python3 perfbench/run.py --workload s2-cm-L6 --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from `src/`.  Each
workload runs `eotnet.cli.main` in this process, in CLI batches of a fixed
number of realizations (`--runs K`), cycling over a pool of batches drawn
from `--seed` until `--seconds` have passed.  Every batch's artifacts are
checked, and a fixed reference batch is compared against `reference.json`.

Shared machines change speed by up to a factor of two within a second, as
other tenants load the same cores.  The process is pinned to one CPU, and
every timed sample (each batch, and each set-up in its own interpreter,
which inherits the pinning) samples that CPU's speed every 0.1 s with a
fixed kernel and is scaled to the speed at which that kernel takes
`calibration.REF_S` (`calibration.py`).  The unscaled figures are printed
too.

`--trace 0` reports the end-to-end metrics with nothing patched.  `--trace 1`
alternates untraced and traced executions of the same batches; the traced
ones wrap every public function of every eotnet layer from outside (see
`layers.py`) and report per-layer metrics plus the tracing overhead.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it list every metric by
name with its unit, plus the environment.
"""

import os

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Every matrix is 2x2 to 4x4, so BLAS threads only add contention; they are
# pinned before numpy loads, and the Monte Carlo pool is kept in-process.
for _var in BLAS_VARS:
    os.environ[_var] = "1"
os.environ["EOT_THREADS"] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import calibration  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"
SETUP_REPEATS = 3
CSV_HEADER = "run,step,node,metric,value"


PER_ESTIMATE_METRICS = ("pos_err", "gwd", "nees_kin", "nees_ext")
ACEE_METRICS = ("acee_kin", "acee_ext")


@dataclass(frozen=True)
class Workload:
    """CLI arguments, the realizations per CLI batch, and the batches per run."""

    cli_args: tuple[str, ...]
    runs: int  # `--runs` of every batch, so per-batch work is amortized
    batches: int  # distinct batches per benchmark run

    def arg(self, flag: str) -> str:
        return self.cli_args[self.cli_args.index(flag) + 1]


# A batch's first realization also records the stability-assumption trace,
# and each batch loads its config and writes its artifacts once.  The s2
# preset amortizes this over 50 runs; batches of `runs` keep it under 2% of
# a realization.  The s1 preset runs one realization per batch, and so does
# its workload.  The pools (runs x batches realizations) are sized so the
# per-run accuracy means (gwd, pos_err) vary across seeds by well under their
# bound; s1 needs the most because a single scan of a high-noise object
# varies most from one realization to the next.
WORKLOADS = {
    # The headline: every node corrects and sanitizes at every index and
    # consensus runs 4 calls x 6 rounds; largest evaluation and CSV.
    "s2-cm-L6": Workload(("--scenario", "s2", "--filter", "cm", "--L", "6"), runs=3, batches=6),
    # One fused estimate: no consensus, little sanitizing or evaluation;
    # the linearization kernels dominate.
    "s2-ceot": Workload(("--scenario", "s2", "--filter", "ceot"), runs=8, batches=2),
    # One scan of 100 sequential indices: posterior averaging and
    # re-sanitizing of all nodes after every index, no prediction step.
    "s1-ci-L6": Workload(("--scenario", "s1", "--filter", "ci", "--L", "6"), runs=1, batches=32),
}


@dataclass(frozen=True)
class OutputShape:
    """The metrics.csv a batch of a workload must write."""

    steps: int
    estimates: int  # estimate rows per step: 1 for the centralized filter
    metrics: tuple[str, ...]  # per estimate; rectangles add ospa
    distributed: bool  # distributed filters add the acee_* rows per step

    def rows(self, runs: int) -> int:
        acee = len(ACEE_METRICS) if self.distributed else 0
        return runs * self.steps * (self.estimates * len(self.metrics) + acee)

    def names(self) -> set[str]:
        return set(self.metrics) | (set(ACEE_METRICS) if self.distributed else set())


@functools.lru_cache(maxsize=None)
def output_shape(wl: Workload) -> OutputShape:
    """Derive the expected output from the workload's preset and network."""
    import eotnet

    config = eotnet.load_config(wl.arg("--scenario"))
    distributed = wl.arg("--filter") != "ceot"
    estimates = eotnet.resolve_network(config).size if distributed else 1
    metrics = PER_ESTIMATE_METRICS + (("ospa",) if config.shape == "rectangle" else ())
    return OutputShape(config.steps, estimates, metrics, distributed)


SETUP_CODE = """
import json, sys
sys.path.insert(0, sys.argv[2])
import calibration

def setup():
    import eotnet.cli
    import eotnet
    config = eotnet.load_config(sys.argv[1])
    net = eotnet.resolve_network(config)
    pi = eotnet.metropolis_weights(net)
    params = eotnet.params_from_scenario(config, net)

print(json.dumps(calibration.measure(setup)[1:]))
"""


@dataclass
class Batch:
    """One CLI invocation: wall time, problems found, and checked outputs."""

    seconds: float
    runs: int
    problems: list[str] = field(default_factory=list)
    scaled: float = 0.0  # seconds at reference machine speed
    kernels: list[float] = field(default_factory=list)
    digest: str = ""
    sums: dict[str, tuple[float, int]] = field(default_factory=dict)  # metric -> (sum, count)


def batch_seeds(seed: int, batches: int) -> list[int]:
    """CLI seeds of the batches one benchmark run cycles over."""
    return [seed * 1000 + b for b in range(batches)]


def check_outputs(out: Path, wl: Workload, runs: int) -> Batch:
    """Check one batch's artifacts: row count, metric names, finite values,
    and stability assumptions A1-A3 reported as pass."""
    batch = Batch(seconds=0.0, runs=runs)
    problems = batch.problems
    try:
        data = (out / "metrics.csv").read_bytes()
        assumptions = (out / "assumptions.txt").read_text()
    except OSError as exc:
        problems.append(f"missing artifact: {exc}")
        return batch
    batch.digest = hashlib.sha256(data).hexdigest()
    shape = output_shape(wl)
    lines = data.decode().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        problems.append("metrics.csv header is wrong")
        return batch
    rows = lines[1:]
    if len(rows) != shape.rows(runs):
        problems.append(f"metrics.csv has {len(rows)} rows, expected {shape.rows(runs)}")
    allowed = shape.names()
    sums: dict[str, list] = {}
    bad = 0
    for line in rows:
        fields = line.split(",")
        if len(fields) != 5 or fields[3] not in allowed:
            problems.append(f"unexpected row {line!r}")
            break
        value = float(fields[4])
        if not math.isfinite(value):
            bad += 1
        acc = sums.setdefault(fields[3], [0.0, 0])
        acc[0] += value
        acc[1] += 1
    if bad:
        problems.append(f"{bad} non-finite values in metrics.csv")
    if set(sums) != allowed:
        problems.append(f"metrics.csv lacks {sorted(allowed - set(sums))}")
    for tag in ("A1", "A2", "A3"):
        if not any(ln.startswith(tag) and ln.endswith("-> pass") for ln in assumptions.splitlines()):
            problems.append(f"assumptions.txt does not report {tag} as pass")
    batch.sums = {k: (v[0], v[1]) for k, v in sums.items()}
    return batch


def run_batch(wl: Workload, cli_seed: int, runs: int, out: Path) -> Batch:
    """Invoke `eotnet.cli.main` once, time it, check and delete its outputs.

    The CLI entry point is looked up on its module at every call, so a
    tracer installed around this call sees it.
    """
    cli = sys.modules["eotnet.cli"]
    argv = [*wl.cli_args, "--runs", str(runs), "--seed", str(cli_seed), "--out", str(out)]

    def call():
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code
        except Exception as exc:  # a raising batch is a failed batch, not a failed benchmark
            return f"{type(exc).__name__}: {exc}"

    rc, seconds, scaled, kernels = calibration.measure(call)
    if rc == 0:
        batch = check_outputs(out, wl, runs)
    else:
        batch = Batch(seconds=0.0, runs=runs, problems=[f"CLI returned {rc!r}"])
    batch.seconds, batch.scaled, batch.kernels = seconds, scaled, kernels
    shutil.rmtree(out, ignore_errors=True)
    return batch


def mean_of(batches, metric: str) -> float:
    """Mean of one metric's rows over the checked batches (0 if none passed)."""
    total = sum(b.sums.get(metric, (0.0, 0))[0] for b in batches)
    count = sum(b.sums.get(metric, (0.0, 0))[1] for b in batches)
    return total / count if count else 0.0


class Ledger:
    """Counts attempted and failed realizations and prints each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, batch: Batch, label: str) -> None:
        self.attempted += batch.runs
        if batch.problems:
            self.failed += batch.runs
            for problem in batch.problems:
                print(f"FAILED {label}: {problem}", file=sys.stderr)


def reference_check(wl_name: str, wl: Workload, work: Path, ledger: Ledger) -> None:
    """Run the reference batch (which also warms caches) and compare its
    accuracy means with the values recorded for it."""
    ref = json.loads(REFERENCE.read_text())[wl_name]
    batch = run_batch(wl, ref["seed"], ref["runs"], work / "reference")
    if not batch.problems:
        for key, metric in (("gwd_mean_m", "gwd"), ("pos_err_mean_m", "pos_err")):
            got = mean_of([batch], metric)
            if not math.isclose(got, ref[key], rel_tol=ref["rel_tol"]):
                batch.problems.append(
                    f"{key} at seed {ref['seed']} is {got!r}, reference {ref[key]!r}")
    ledger.add(batch, f"reference seed {ref['seed']}")


class Pool:
    """Round-robin over a run's batches; flags any batch whose metrics.csv
    differs from its first execution."""

    def __init__(self, wl: Workload, seed: int, work: Path, ledger: Ledger):
        self.wl, self.work, self.ledger = wl, work, ledger
        self.seeds = batch_seeds(seed, wl.batches)
        self.first: dict[int, Batch] = {}
        self.count = 0
        self.cursor = 0

    def run_next(self, index: int | None = None) -> tuple[int, Batch]:
        """Execute batch `index`, or the next one in turn."""
        if index is None:
            index, self.cursor = self.cursor, (self.cursor + 1) % len(self.seeds)
        self.count += 1
        batch = run_batch(self.wl, self.seeds[index], self.wl.runs, self.work / f"b{self.count}")
        reference = self.first.setdefault(index, batch)
        if reference is not batch and batch.digest and batch.digest != reference.digest:
            batch.problems.append("metrics.csv differs from an earlier execution")
        self.ledger.add(batch, f"batch seed {self.seeds[index]}")
        return index, batch


class Clock:
    """Unscaled and speed-scaled durations of timed samples, each tagged
    with the batch it timed, and the kernel timings taken during them."""

    def __init__(self):
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.kernels: list[float] = []
        self.keys: list[int] = []

    def add(self, seconds: float, scaled: float, kernels: list[float], key: int = 0) -> None:
        self.raw.append(seconds)
        self.scaled.append(scaled)
        self.kernels.extend(kernels)
        self.keys.append(key)

    def per_realization(self, runs: int) -> float:
        """Scaled seconds per realization over the batches timed: the sum of
        each batch's median over the realizations they hold.  Batches differ
        in cost, so this does not depend on how often each one ran."""
        by_key: dict[int, list[float]] = {}
        for key, seconds in zip(self.keys, self.scaled):
            by_key.setdefault(key, []).append(seconds)
        return sum(statistics.median(v) for v in by_key.values()) / (len(by_key) * runs)


def setup_once(scenario: str) -> tuple[float, float, list[float]]:
    """Seconds from `import eotnet.cli` to ready-to-run models in a fresh
    interpreter, unscaled and scaled, and the kernel timings taken there."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p))
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, scenario, str(HERE)], env=env,
                          cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-2000:]}")
    seconds, scaled, kernels = json.loads(proc.stdout.splitlines()[-1])
    return seconds, scaled, kernels


def timing_line(label: str, seconds: list[float]) -> str:
    """Median and the highest percentile with at least ten samples above it."""
    n = len(seconds)
    text = f"{label}: median {statistics.median(seconds):.6f} s"
    if n >= 20:
        pct = math.floor(100 * (1 - 10 / n))
        text += f", p{pct} {statistics.quantiles(seconds, n=100)[pct - 1]:.6f} s"
    return text + f" (n={n})"


def end_to_end(wl_name: str, wl: Workload, seed: int, seconds: float, work: Path, ledger: Ledger):
    setup = Clock()
    for _ in range(SETUP_REPEATS):
        setup.add(*setup_once(wl.arg("--scenario")))
    reference_check(wl_name, wl, work, ledger)
    pool = Pool(wl, seed, work, ledger)
    batches = Clock()
    deadline = time.perf_counter() + seconds
    while len(pool.first) < wl.batches or time.perf_counter() < deadline:
        index, batch = pool.run_next()
        batches.add(batch.seconds, batch.scaled, batch.kernels, index)
    firsts = list(pool.first.values())
    for label, clock in ((f"batch of {wl.runs} realizations", batches), ("set-up", setup)):
        print(timing_line(f"{label} wall time, unscaled", clock.raw))
        print(timing_line(f"{label} wall time, scaled", clock.scaled))
        print(timing_line(f"{label} calibration kernel", clock.kernels))
    print(f"failed_share {ledger.failed / ledger.attempted:.6g} ratio "
          f"({ledger.failed} of {ledger.attempted} realizations)")
    return {
        "runs_per_s": (1.0 / batches.per_realization(wl.runs), "1/s"),
        "setup_s": (statistics.median(setup.scaled), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "gwd_mean_m": (mean_of(firsts, "gwd"), "m"),
        "pos_err_mean_m": (mean_of(firsts, "pos_err"), "m"),
    }


def traced(wl_name: str, wl: Workload, seed: int, seconds: float, work: Path, ledger: Ledger):
    import layers
    from tracer import Tracer

    reference_check(wl_name, wl, work, ledger)
    pool = Pool(wl, seed, work, ledger)
    targets = layers.targets()
    steps, spans = Tracer(), Tracer()
    plain, traced_batches = Clock(), Clock()
    deadline = time.perf_counter() + seconds
    while not traced_batches.raw or time.perf_counter() < deadline:
        with steps.install(layers.step_targets()):
            i, batch = pool.run_next()
        plain.add(batch.seconds, batch.scaled, batch.kernels, i)
        with spans.install(targets):
            _, batch = pool.run_next(i)
        traced_batches.add(batch.seconds, batch.scaled, batch.kernels, i)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{wl_name}-seed{seed}.npz"
    spans.write(spans_path)
    print(f"spans: {len(spans.name_id)} written to {spans_path.relative_to(ROOT)}")
    print(f"wrapped: {len(spans.wrapped)} functions; absent: {spans.absent or 'none'}")
    if spans.observer_errors:
        print(f"observer errors: {dict(spans.observer_errors)}")
    scale = statistics.median(calibration.REF_S / k for k in plain.kernels + traced_batches.kernels)
    print(f"per-layer times are scaled by the median speed factor {scale:.4f}")
    metrics = layers.layer_metrics(spans, len(traced_batches.raw) * wl.runs,
                                   steps.samples["step_seconds"], time_scale=scale)
    untraced_s = plain.per_realization(wl.runs)
    traced_s = traced_batches.per_realization(wl.runs)
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    metrics["trace.traced_s"] = (traced_s, "s/run")
    metrics["trace.untraced_s"] = (untraced_s, "s/run")
    return metrics


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def pin_to_one_cpu() -> tuple[int, int]:
    """Pin this process, and so the set-up interpreters it starts, to the
    highest-numbered CPU it may use, so the speed-sampling kernel runs on the
    CPU of the work it times.  Returns (CPUs allowed before, CPU)."""
    allowed = os.sched_getaffinity(0)
    cpu = max(allowed)
    os.sched_setaffinity(0, {cpu})
    return len(allowed), cpu


def environment(nproc: int, cpu: int) -> dict:
    import numpy
    import scipy

    return {
        "git": git_revision(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "cpu": cpu,
        "EOT_THREADS": os.environ["EOT_THREADS"],
        **{var: os.environ[var] for var in BLAS_VARS},
    }


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("must be > 0")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=_nonneg_int, default=0)
    parser.add_argument("--seconds", type=_positive_float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "eotnet" / "__init__.py").is_file():
        print(f"error: no eotnet sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    nproc, cpu = pin_to_one_cpu()
    sys.path.insert(0, str(SRC))
    import eotnet.cli  # noqa: F401  (imported once here; batches call it through sys.modules)

    wl = WORKLOADS[args.workload]
    work = OUT / f"work-{os.getpid()}"
    ledger = Ledger()
    try:
        work.mkdir(parents=True, exist_ok=True)
        measure = traced if args.trace else end_to_end
        metrics = measure(args.workload, wl, args.seed, args.seconds, work, ledger)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("env " + json.dumps(environment(nproc, cpu), sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
