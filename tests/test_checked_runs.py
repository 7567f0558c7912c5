"""Golden digests of the checked runs.

metrics.csv of the four checked runs (seed 0) must stay byte-identical across
refactors and worker-pool sizes: a change that moves a printed digit shows up
here.  The digests were recorded with numpy 2.4.6; under another numpy,
different BLAS kernels may round differently, so the test skips.
"""

import hashlib

import numpy as np
import pytest

from eotnet.cli import main

RECORDED_NUMPY = "2.4.6"
CHECKED_RUNS = {
    "s2 cm --L 6 --runs 3": "bf48f488db05f50907af8892dce709f09da919a32160370331456499818f800e",
    "s2 ceot --runs 8": "a6dc37080b62bb0a25eaf44f5e85a6253075bd1bda910378145f67d95af8a5ca",
    "s1 ci --L 6 --runs 1": "8d8f3f0db0588e7fd9f71b7c416098e8c26c53637e00058496cfb631b218f2a9",
    "s3 cm --L 6 --runs 2": "d018b5b85836406fc8e8eef7a9be1a794093d82f4394fad417640e4efd750f0a",
}


@pytest.mark.skipif(np.__version__ != RECORDED_NUMPY,
                    reason=f"digests recorded with numpy {RECORDED_NUMPY}, "
                           f"running numpy {np.__version__}")
@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("run", list(CHECKED_RUNS))
def test_checked_run_metrics_are_byte_identical(run, threads, tmp_path, monkeypatch):
    monkeypatch.setenv("EOT_THREADS", threads)
    scenario, kind, *rest = run.split()
    assert main(["--scenario", scenario, "--filter", kind, *rest, "--seed", "0",
                 "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "metrics.csv").read_bytes()).hexdigest()
    assert digest == CHECKED_RUNS[run]
