"""Golden digests of the checked runs.

metrics.csv, summary.txt and assumptions.txt of the five checked runs
(seed 0) and of s1 under a prior out of the extent range, and combined.csv of
two sweeps, must stay byte-identical across refactors and worker-pool sizes
of 1, 2 and 3: a change that moves a printed digit shows up here.  So must
the bounded-MSE experiment's per-step errors and means, bit for bit.
summary.txt is digested without its wall-time line, the one line that varies
between equal runs.  The digests were recorded with numpy 2.4.6; under
another numpy, different BLAS kernels may round differently, so the tests
skip.
"""

import hashlib

import numpy as np
import pytest

from eotnet.cli import bounded_mse_experiment, main
from eotnet.scenario import load_config, preset_text
from eotnet.trackers import FilterConfig, FilterKind

RECORDED_NUMPY = "2.4.6"
WALL_TIME_LINE = "mean wall time per tracking step:"
# run -> (metrics.csv digest, summary.txt digest without the wall-time line)
CHECKED_RUNS = {
    "s2 cm --L 6 --runs 3": (
        "bf48f488db05f50907af8892dce709f09da919a32160370331456499818f800e",
        "62736673d44c801cb7396cc9b5a6399960149880194d03da180625d5c850d06f"),
    "s2 ceot --runs 8": (
        "a6dc37080b62bb0a25eaf44f5e85a6253075bd1bda910378145f67d95af8a5ca",
        "e6735696b80e0205eb70c4e0c89144fe170421e49ae8ffa81bec3a243af4e837"),
    "s1 ci --L 6 --runs 1": (
        "8d8f3f0db0588e7fd9f71b7c416098e8c26c53637e00058496cfb631b218f2a9",
        "b1c8a916d8939e7824e095f9dfabeb9ffbacb28fca940c8e2459e85e7104ce63"),
    "s3 cm --L 6 --runs 2": (
        "e7ec9378c91caf3a52287dcb110c19beb5b1828902930c397f3c17c2d3229847",
        "d273c7effc117c41ac8b6178317af0e303709fcb15bfde653722ebab655ded68"),
    # CI with 4-D kinematics, which retakes the marginal offsets after every averaging.
    "s2 ci --L 6 --runs 10": (
        "ae6681bff735827908001d28d3cb456fe7957ebd61f17ea9895217eb327e8519",
        "123c2af8ff4414a19c44eab524a8a462a019f093d17a118522f0f6a5265fade8"),
}
# run -> assumptions.txt digest, which the recorded noise spectra print into
CHECKED_ASSUMPTIONS = {
    "s2 cm --L 6 --runs 3": "8e9a78979ff1c2a02acd24bf42b5fd3c91637f146138bea688d63746ff10783d",
    "s2 ceot --runs 8": "0c1db6b3a44d6884d172fcd8e3d1592c19f6ad44d02d4a4149f6438ab40efb2b",
    "s1 ci --L 6 --runs 1": "15be2a169c028e3d3a38f6147a50ded0e613b07cbcae9a55725515c497ccbef7",
    "s3 cm --L 6 --runs 2": "c0d96d1b53f6cb58ea5b7bc2ed8d323c020d1751ca81a49a6be8fe537c5ce55d",
    "s2 ci --L 6 --runs 10": "0144acdb1325a6d45475d340412a8528a47c9b24cfb3ea653b5e50ec02855378",
}
# s1 CI L=6 through --config with a prior out of the extent range, which the
# filter keeps as given: orientation 4 lies outside (-pi, pi] and semi-axis
# 1e-4 below MIN_AXIS.  (metrics.csv, summary.txt without the wall-time line,
# assumptions.txt) digests.
OUT_OF_RANGE_PRIOR = ("extent_mean: [0.0, 2.0, 12.0]", "extent_mean: [4.0, 2.0, 1e-4]")
OUT_OF_RANGE_RUN = (
    "d75c9ecb49b3ab56cea5a9516a7fb356e16b2b32329b9025fc3d21341be7913c",
    "549e1ea7d5ae985a8dc33eb006e2160c281b63ecc87a3a283bcbc895d11c1551",
    "e411b4e362ce7a2e02b0330b4c364a36538ba6db4793913490c57b6074b380a9")
# sweep -> combined.csv digest
CHECKED_SWEEPS = {
    "s2 cm --sweep-L 1,6 --runs 3":
        "660e00315bf1d77c1bbce0612d371d1283ed1f2fff34adb2179f76e7b3a61de0",
    "s3 ceot --sweep-lambda 2,5 --runs 3":
        "df9bf9150452c9f90f7e4d6d3d629c2e2244f55579eea9fe212aad795b0c58ec",
}

# sha256 of mse_per_step followed by mid_mean and tail_mean, as float64 bytes,
# of the bounded-MSE experiment on s2 under CM with L=2 at 20 runs x 40 steps.
CHECKED_BOUNDED_MSE = "77845cab216b899ccc9530d274ac47069871aadf7dd2a3cf2a90532efd9a798f"

needs_recorded_numpy = pytest.mark.skipif(
    np.__version__ != RECORDED_NUMPY,
    reason=f"digests recorded with numpy {RECORDED_NUMPY}, running numpy {np.__version__}")


def run_cli(args: str, out) -> None:
    scenario, kind, *rest = args.split()
    assert main(["--scenario", scenario, "--filter", kind, *rest, "--seed", "0",
                 "--out", str(out)]) == 0


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def assert_artifact_digests(out, metrics_digest, summary_digest, assumptions_digest) -> None:
    assert sha256((out / "metrics.csv").read_bytes()) == metrics_digest
    summary = (out / "summary.txt").read_text().splitlines(keepends=True)
    kept = [line for line in summary if not line.startswith(WALL_TIME_LINE)]
    assert len(kept) == len(summary) - 1
    assert sha256("".join(kept).encode()) == summary_digest
    assert sha256((out / "assumptions.txt").read_bytes()) == assumptions_digest


@needs_recorded_numpy
@pytest.mark.parametrize("threads", ["1", "2", "3"])
@pytest.mark.parametrize("run", list(CHECKED_RUNS))
def test_checked_run_metrics_are_byte_identical(run, threads, tmp_path, monkeypatch):
    monkeypatch.setenv("EOT_THREADS", threads)
    run_cli(run, tmp_path)
    assert_artifact_digests(tmp_path, *CHECKED_RUNS[run], CHECKED_ASSUMPTIONS[run])


@needs_recorded_numpy
@pytest.mark.parametrize("threads", ["1", "2", "3"])
def test_checked_run_with_an_out_of_range_prior_is_byte_identical(threads, tmp_path,
                                                                   monkeypatch):
    config = tmp_path / "s1_out_of_range.yaml"
    config.write_text(preset_text("s1").replace(*OUT_OF_RANGE_PRIOR))
    monkeypatch.setenv("EOT_THREADS", threads)
    out = tmp_path / "out"
    assert main(["--config", str(config), "--filter", "ci", "--L", "6", "--seed", "0",
                 "--out", str(out)]) == 0
    assert_artifact_digests(out, *OUT_OF_RANGE_RUN)


@needs_recorded_numpy
@pytest.mark.parametrize("sweep", list(CHECKED_SWEEPS))
def test_checked_sweep_combined_csv_is_byte_identical(sweep, tmp_path):
    run_cli(sweep, tmp_path)
    assert sha256((tmp_path / "combined.csv").read_bytes()) == CHECKED_SWEEPS[sweep]


@needs_recorded_numpy
@pytest.mark.parametrize("threads", ["1", "2", "3"])
def test_checked_bounded_mse_is_bit_identical(threads, monkeypatch):
    monkeypatch.setenv("EOT_THREADS", threads)
    result = bounded_mse_experiment(load_config("s2"),
                                    FilterConfig(kind=FilterKind.CM, consensus_iters=2),
                                    steps=40, runs=20)
    data = np.r_[result.mse_per_step, result.mid_mean, result.tail_mean].tobytes()
    assert sha256(data) == CHECKED_BOUNDED_MSE
