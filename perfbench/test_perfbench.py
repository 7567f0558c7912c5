"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import signal
import sys
import time
import types

import pytest

import calibration
import layers
import run
from tracer import Tracer, self_times

sys.path.insert(0, str(run.SRC))
import eotnet.cli  # noqa: E402
import eotnet.trackers  # noqa: E402

FAKE_CODE = """
def inner(x):
    tick()
    return x + 1

def outer(x):
    tick()
    return inner(x) + inner(x)
"""


@pytest.fixture
def fake_package(monkeypatch):
    """A package `fakepkg` whose `work` module's functions are re-exported by
    the package and imported by name into a second module, with a clock that
    moves only when `tick` runs."""
    now = [0.0]

    def tick():
        now[0] += 1.0

    pkg = types.ModuleType("fakepkg")
    work = types.ModuleType("fakepkg.work")
    work.tick = tick
    exec(FAKE_CODE, vars(work))
    user = types.ModuleType("fakepkg.user")
    user.outer, user.inner = work.outer, work.inner
    pkg.inner = work.inner
    for mod in (pkg, work, user):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return types.SimpleNamespace(pkg=pkg, work=work, user=user, clock=lambda: now[0])


def snapshot():
    return {(name, key): value
            for name, mod in list(sys.modules.items())
            if name == "eotnet" or name.startswith("eotnet.")
            for key, value in vars(mod).items()}


def test_self_time_subtracts_the_union_of_child_intervals():
    # root [0, 10]; its children [1, 4] and [3, 6] overlap on [3, 4];
    # a grandchild [2, 3] sits under the first child.
    starts, ends, parents = [0.0, 1.0, 3.0, 2.0], [10.0, 4.0, 6.0, 3.0], [-1, 0, 0, 1]
    assert self_times(starts, ends, parents) == pytest.approx([5.0, 2.0, 3.0, 1.0])


def test_nested_calls_through_every_namespace(fake_package):
    fp = fake_package
    originals = (fp.work.inner, fp.work.outer, fp.user.inner, fp.user.outer, fp.pkg.inner)
    tracer = Tracer("fakepkg", clock=fp.clock)
    with tracer.install([("fakepkg.work", "outer", None), ("fakepkg.work", "inner", None)]):
        assert fp.user.outer(1) == 4
        fp.pkg.inner(0)
    assert (fp.work.inner, fp.work.outer, fp.user.inner, fp.user.outer, fp.pkg.inner) == originals
    stats = tracer.summary()
    # outer spans [0, 3] and holds inner [1, 2] and [2, 3]; the third inner
    # call, through the package re-export, is a root span [3, 4].
    assert (stats["work.outer"].calls, stats["work.outer"].total_s,
            stats["work.outer"].self_s) == (1, 3.0, 1.0)
    assert (stats["work.inner"].calls, stats["work.inner"].total_s,
            stats["work.inner"].self_s) == (3, 3.0, 3.0)
    assert list(tracer.parent) == [-1, 0, 0, -1]


def test_missing_hook_is_reported_absent_and_stale_observer_is_counted(fake_package, monkeypatch):
    def broken(tracer, args, kwargs, result):
        raise KeyError("signature changed")

    tracer = Tracer("fakepkg", clock=fake_package.clock)
    with tracer.install([("fakepkg.work", "gone", None), ("fakepkg.nomodule", "x", None),
                         ("fakepkg.work", "inner", broken)]):
        assert fake_package.work.inner(1) == 2
    assert tracer.absent == ["work.gone", "nomodule.x"]
    assert tracer.wrapped == ["work.inner"]
    assert tracer.observer_errors["work.inner"] == 1

    monkeypatch.delattr(eotnet.trackers, "_lin_point")
    with Tracer().install(layers.targets()) as real:
        assert real.absent == ["trackers._lin_point"]
        assert "trackers._sanitize_extent" in real.wrapped


def test_runs_leave_every_eotnet_attribute_in_place(tmp_path):
    wl = run.WORKLOADS["s1-ci-L6"]
    run.run_batch(wl, 1, 1, tmp_path / "warm")  # loads the lazily imported data package
    before = snapshot()
    plain = run.run_batch(wl, 1, 1, tmp_path / "plain")
    assert [k for k, v in before.items() if snapshot().get(k) is not v] == []
    with Tracer().install(layers.targets()) as tracer:
        assert eotnet.cli.main is not before[("eotnet.cli", "main")]
        traced = run.run_batch(wl, 1, 1, tmp_path / "traced")
    after = snapshot()
    assert [k for k, v in before.items() if after.get(k) is not v] == []
    assert not plain.problems and not traced.problems
    assert traced.digest == plain.digest
    assert tracer.summary()["cli.main"].calls == 1


def test_a_different_seed_changes_metrics_csv(tmp_path):
    wl = run.WORKLOADS["s2-ceot"]
    a, b, again = (run.run_batch(wl, seed, 1, tmp_path / str(i))
                   for i, seed in enumerate((1, 2, 1)))
    assert not (a.problems or b.problems or again.problems)
    assert a.digest != b.digest
    assert a.digest == again.digest
    assert set(run.batch_seeds(1, wl.batches)).isdisjoint(run.batch_seeds(2, wl.batches))


def test_output_check_flags_short_nonfinite_and_failed_assumptions(tmp_path):
    wl = run.WORKLOADS["s2-ceot"]
    assert eotnet.cli.main([*wl.cli_args, "--runs", "1", "--seed", "1", "--out", str(tmp_path)]) == 0
    assert run.check_outputs(tmp_path, wl, 1).problems == []
    csv = tmp_path / "metrics.csv"
    lines = csv.read_text().splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0] + ",nan"
    csv.write_text("\n".join(lines[:-1]) + "\n")
    assumptions = tmp_path / "assumptions.txt"
    text = assumptions.read_text()
    a2 = next(ln for ln in text.splitlines() if ln.startswith("A2"))
    assumptions.write_text(text.replace(a2, a2.replace("-> pass", "-> FAIL")))
    problems = run.check_outputs(tmp_path, wl, 1).problems
    assert len(problems) == 3
    assert any("rows" in p for p in problems)
    assert any("non-finite" in p for p in problems)
    assert any("A2" in p for p in problems)


def test_output_shape_comes_from_the_preset_and_network():
    # s1: one step, 20 nodes x 5 metrics (rectangles add ospa) + 2 acee rows;
    # s2: 40 steps of one fused estimate, or of 20 nodes x 4 metrics + 2.
    assert run.output_shape(run.WORKLOADS["s1-ci-L6"]).rows(1) == 102
    assert run.output_shape(run.WORKLOADS["s2-ceot"]).rows(2) == 2 * 40 * 4
    assert run.output_shape(run.WORKLOADS["s2-cm-L6"]).rows(1) == 40 * (20 * 4 + 2)


def test_speed_sampling_takes_its_own_time_out_and_restores_the_handler():
    handler = signal.getsignal(signal.SIGALRM)
    result, work, scaled, kernels = calibration.measure(lambda: time.sleep(0.5) or "done")
    assert result == "done"
    # two ticks inside the call, plus the timings just before and after it
    assert len(kernels) >= 4
    assert 0.45 < work < 0.55
    # sleeping does not slow the kernel, so the mean speed scales the work
    assert scaled == pytest.approx(work * calibration.REF_S / (sum(kernels) / len(kernels)), rel=0.5)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
