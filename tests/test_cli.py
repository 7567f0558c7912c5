import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eotnet
from eotnet.cli import main, sweep
from eotnet.scenario import preset_text


@pytest.fixture(autouse=True)
def single_worker(monkeypatch):
    monkeypatch.setenv("EOT_THREADS", "1")


def tiny_config_text():
    """s3 trimmed down for fast end-to-end runs."""
    text = preset_text("s3").replace("steps: 40", "steps: 4")
    return text.replace("law: poisson", "law: fixed").replace("rate: 5.0", "count: 2")


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.yaml"
    path.write_text(tiny_config_text())
    return path


def read(path):
    return path.read_bytes()


def test_dump_config(capsys):
    assert main(["--scenario", "s1", "--dump-config"]) == 0
    out = capsys.readouterr().out
    assert "name: s1" in out
    assert "measurement_cov: [3.0, 9.0]" in out


def test_run_produces_artifacts(tmp_path, tiny_config):
    out = tmp_path / "out"
    rc = main(["--config", str(tiny_config), "--filter", "ceot",
               "--runs", "2", "--seed", "3", "--out", str(out)])
    assert rc == 0
    csv_text = (out / "metrics.csv").read_text()
    lines = csv_text.splitlines()
    assert lines[0] == "run,step,node,metric,value"
    values = [float(line.split(",")[4]) for line in lines[1:]]
    assert all(np.isfinite(values))
    # 2 runs x 4 steps x 1 center node x 5 metrics (rectangle includes ospa)
    assert len(lines) - 1 == 2 * 4 * 5
    summary = (out / "summary.txt").read_text()
    assert "filter: ceot" in summary
    assert "mean wall time per tracking step" in summary
    assumptions = (out / "assumptions.txt").read_text()
    assert "A3" in assumptions


def test_run_deterministic(tmp_path, tiny_config):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["--config", str(tiny_config), "--filter", "cm", "--L", "2",
            "--runs", "2", "--seed", "11"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert read(out1 / "metrics.csv") == read(out2 / "metrics.csv")


@pytest.mark.parametrize("kind", ["ceot", "ci", "cm"])
def test_run_parallel_matches_serial(tmp_path, tiny_config, monkeypatch, kind):
    # Poisson counts end the realizations' scans at different indices
    out1, out2 = tmp_path / "serial", tmp_path / "par"
    args = ["--config", str(tiny_config), "--filter", kind, "--L", "1", "--lambda", "3",
            "--runs", "3", "--seed", "5"]
    monkeypatch.setenv("EOT_THREADS", "1")
    assert main(args + ["--out", str(out1)]) == 0
    monkeypatch.setenv("EOT_THREADS", "3")
    assert main(args + ["--out", str(out2)]) == 0
    for name in ("metrics.csv", "assumptions.txt"):
        assert read(out1 / name) == read(out2 / name)


def test_distributed_csv_has_network_rows(tmp_path, tiny_config):
    out = tmp_path / "out"
    assert main(["--config", str(tiny_config), "--filter", "cm", "--L", "1",
                 "--runs", "1", "--seed", "0", "--out", str(out)]) == 0
    lines = (out / "metrics.csv").read_text().splitlines()[1:]
    nodes = {int(line.split(",")[2]) for line in lines}
    assert -1 in nodes  # disagreement rows
    assert set(range(20)) <= nodes
    metrics = {line.split(",")[3] for line in lines}
    assert {"gwd", "ospa", "pos_err", "nees_kin", "nees_ext",
            "acee_kin", "acee_ext"} == metrics


def test_sweep_L(tmp_path, tiny_config):
    out = tmp_path / "sweep"
    rc = main(["--config", str(tiny_config), "--filter", "cm",
               "--sweep-L", "1,2", "--runs", "1", "--seed", "2",
               "--out", str(out)])
    assert rc == 0
    assert (out / "L_1" / "metrics.csv").exists()
    assert (out / "L_2" / "metrics.csv").exists()
    combined = (out / "combined.csv").read_text().splitlines()
    assert combined[0] == "setting,metric,mean,std,count"
    assert any(line.startswith("L=1,") for line in combined[1:])
    assert any(line.startswith("L=2,") for line in combined[1:])


def test_sweep_lambda(tmp_path, tiny_config):
    out = tmp_path / "sweep"
    rc = main(["--config", str(tiny_config), "--filter", "ceot",
               "--sweep-lambda", "1,2", "--runs", "1", "--out", str(out)])
    assert rc == 0
    assert (out / "lambda_1" / "metrics.csv").exists()
    assert (out / "lambda_2" / "metrics.csv").exists()
    assert (out / "combined.csv").exists()


@pytest.mark.parametrize("sweep, name", [(["--sweep-L", "2,2"], "L_2"),
                                         (["--sweep-lambda", "5,5.000001"], "lambda_5")])
def test_colliding_sweep_settings_exit_1_before_any_output(tmp_path, tiny_config, capsys,
                                                           sweep, name):
    # Two settings that print alike would share one directory and one combined.csv label.
    rc = main(["--config", str(tiny_config), "--filter", "cm", "--runs", "1", *sweep,
               "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: sweep settings collide") and name in err
    assert not (tmp_path / "o").exists()


def test_usage_errors(tmp_path, tiny_config, capsys):
    with pytest.raises(SystemExit):
        main(["--scenario", "s1"])  # no filter/out
    with pytest.raises(SystemExit):
        main(["--config", str(tiny_config), "--filter", "ceot",
              "--out", str(tmp_path), "--lambda", "3", "--fixed-n", "5"])
    with pytest.raises(SystemExit):
        main(["--config", str(tiny_config), "--filter", "cm",
              "--out", str(tmp_path), "--sweep-L", "1,2", "--sweep-lambda", "3"])
    # FilterConfig alone checks the rounds: a bad --L exits 1, as a bad --sweep-L does.
    capsys.readouterr()
    assert main(["--scenario", "s1", "--filter", "ci", "--L", "0", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == \
        "error: distributed filters need at least one consensus iteration\n"
    with pytest.raises(SystemExit):
        main(["--scenario", "s1", "--filter", "cm", "--out", str(tmp_path),
              "--sweep-L", ""])
    # A sweep sets its own value, so a flag for the same value would mislabel its rows.
    with pytest.raises(SystemExit):
        main(["--config", str(tiny_config), "--filter", "ceot", "--out", str(tmp_path),
              "--fixed-n", "4", "--sweep-lambda", "2,9"])
    with pytest.raises(SystemExit):
        main(["--config", str(tiny_config), "--filter", "ceot", "--out", str(tmp_path),
              "--lambda", "3", "--sweep-lambda", "2,9"])
    with pytest.raises(SystemExit):
        main(["--config", str(tiny_config), "--filter", "cm", "--out", str(tmp_path),
              "--L", "3", "--sweep-L", "1,2"])


@pytest.mark.parametrize("flag, message", [
    (["--sweep-L", "1,x"], "argument --sweep-L: bad sweep list '1,x'"),
    (["--omega", "abc"], "argument --omega: omega must be 'G' or a number"),
    ([], "--out is required unless --dump-config is given"),
])
def test_usage_errors_are_named(capsys, flag, message):
    with pytest.raises(SystemExit) as exit_info:
        main(["--scenario", "s1", "--filter", "cm", *flag])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.rstrip().endswith(f"error: {message}")


def test_dump_config_of_a_missing_file_exits_1(tmp_path, capsys):
    path = tmp_path / "nope.yaml"
    assert main(["--config", str(path), "--dump-config"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err and "Traceback" not in err


def test_an_empty_sweep_is_refused(tmp_path):
    with pytest.raises(ValueError, match="^sweep list must not be empty$"):
        sweep([], tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_bad_config_path(tmp_path, capsys):
    rc = main(["--config", str(tmp_path / "nope.yaml"), "--filter", "ceot",
               "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_zero_steps_exits_1_without_traceback(tmp_path, tiny_config, capsys):
    path = tmp_path / "zero.yaml"
    path.write_text(tiny_config.read_text().replace("steps: 4", "steps: 0"))
    rc = main(["--config", str(path), "--filter", "ceot", "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "steps must be >= 1" in err
    assert "Traceback" not in err


# (old, new, message): edits of the tiny config and the error each must give.
BAD_CONFIG_EDITS = [
    ("measurement_cov: [1.0, 1.0]", "measurement_cov: [1.0, 1.0, 1.0]",
     "noise.measurement_cov must be"),
    ("steps: 4", "steps: 4\nstepz: 4", "unknown scenario config keys: stepz"),
    ("measurement_cov: [1.0, 1.0]", "measurement_cov: [1.0, 1.0]\n  measurment_covv: [1.0, 1.0]",
     "unknown scenario config keys: noise.measurment_covv"),
    ("network: benchmark",
     "network: {positions: [[0.0, 0.0], [500.0, 0.0]], sensor_nodes: [], comm_radius: 600.0}",
     "sensor_nodes is empty"),
    ("network: benchmark",
     "network: {positions: [[0.0, 0.0], [500.0, 0.0]], sensor_nodes: [0], comm_radus: 600.0}",
     "unknown scenario config keys: network.comm_radus"),
    ("network: benchmark",
     "network: {positions: [[0.0, 0.0], [500.0, 0.0]], sensor_nodes: [0], comm_radius: 600.0,"
     " extra: 1}",
     "unknown scenario config keys: network.extra"),
    ("count: 2", "count: 0", "measurements.count must be >= 1, got 0"),
    ("runs: 50", "runs: 0", "runs must be >= 1, got 0"),
    ("seed: 0", "seed: -1", "seed must be >= 0, got -1"),
    ("steps: 4", "steps: .inf", "steps must be finite, got inf"),
    ("semi_axes: [10.0, 5.0]", "semi_axes: 5", "semi_axes must be two positive finite lengths"),
    ("measurement_cov: [1.0, 1.0]", "measurement_cov: [.nan, 1.0]",
     "noise.measurement_cov must be finite"),
    ("measurements:\n  law: fixed\n  count: 2", "measurements: [1]",
     "measurements must be a mapping"),
]


@pytest.mark.parametrize("old, new, message", BAD_CONFIG_EDITS)
def test_bad_config_exits_1_without_traceback(tmp_path, tiny_config, capsys, old, new, message):
    path = tmp_path / "bad.yaml"
    text = tiny_config.read_text()
    assert old in text
    path.write_text(text.replace(old, new))
    rc = main(["--config", str(path), "--filter", "ceot", "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag, key", [
    ("--lambda=nan", "measurements.rate"),
    ("--lambda=inf", "measurements.rate"),
    ("--lambda=-1", "measurements.rate"),
    ("--lambda=0", "measurements.rate"),
    ("--fixed-n=0", "measurements.count"),
    ("--runs=0", "runs"),
    ("--seed=-1", "seed"),
])
def test_bad_override_exits_1_naming_its_config_key(tmp_path, tiny_config, capsys, flag, key):
    # An override is checked like the config entry it replaces.
    rc = main(["--config", str(tiny_config), "--filter", "ceot", flag,
               "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be")
    assert "Traceback" not in err


def test_omega_flag(tmp_path, tiny_config):
    out = tmp_path / "o"
    assert main(["--config", str(tiny_config), "--filter", "cm", "--L", "1",
                 "--runs", "1", "--omega", "G", "--out", str(out)]) == 0
    assert "omega: 20 (node count)" in (out / "summary.txt").read_text()
    out2 = tmp_path / "o2"
    assert main(["--config", str(tiny_config), "--filter", "cm", "--L", "1",
                 "--runs", "1", "--omega", "12.5", "--out", str(out2)]) == 0
    assert "omega: 12.5" in (out2 / "summary.txt").read_text()


@pytest.mark.parametrize("omega", ["nan", "inf", "1e308", "-5"])
def test_bad_omega_exits_1_naming_omega(tmp_path, capsys, omega):
    # Rejected when the filter config is built, before any filtering can overflow.
    rc = main(["--scenario", "s2", "--filter", "cm", "--L", "2", "--runs", "1",
               f"--omega={omega}", "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: omega must be 'G' or a number in [0, 1e+06]")
    assert "Traceback" not in err and "Warning" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("threads", ["abc", "1.5", "0", "-2"])
@pytest.mark.parametrize("sweep", [[], ["--sweep-L", "1,2"]])
def test_bad_eot_threads_exits_1_naming_it(tmp_path, tiny_config, capsys, monkeypatch, threads,
                                           sweep):
    monkeypatch.setenv("EOT_THREADS", threads)
    rc = main(["--config", str(tiny_config), "--filter", "cm", "--runs", "2", *sweep,
               "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: EOT_THREADS must be a positive integer, got {threads!r}\n"
    assert not (tmp_path / "o").exists()


def test_cli_import_loads_no_scipy():
    # scipy is imported only inside nees_bounds, so it stays off the CLI's import path
    src = str(Path(eotnet.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, eotnet.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
