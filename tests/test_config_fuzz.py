"""Hypothesis fuzzer of scenario configs: one entry of a preset changed at a time.

Each example starts from a preset, or from s2 with its benchmark network
spelled out inline, picks one entry at any depth and changes it: it drops or
renames the entry, or gives it a wrong type, a wrong size, NaN, a negative
value or zero.  Loading the config and a 2-step, 1-run CLI run must then
succeed, or fail with a ValueError that names a key on the changed entry's
path; no TypeError, KeyError or bare numpy message may escape.  A NaN must
fail at load, except in the free-text name.

The same mutations, except drop and rename, also change one typed field of a
loaded config, or of its trajectory, through dataclasses.replace.  The
constructor checks what load_config checks, so the replace must succeed and
the short run with it, or either must fail with a ValueError that names the
field's config path.
"""

import copy
import json
import tempfile
from dataclasses import fields, replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eotnet.cli import run
from eotnet.scenario import PRESETS, ScenarioConfig, load_config, preset_text
from eotnet.trackers import FilterConfig, FilterKind


def _inline_benchmark_network() -> dict:
    spec = json.loads(resources.files("eotnet.data").joinpath("benchmark_network.json")
                      .read_text())
    return {key: spec[key] for key in ("positions", "sensor_nodes", "comm_radius")}


BASES = {name: yaml.safe_load(preset_text(name)) for name in PRESETS}
BASES["s2-inline"] = {**BASES["s2"], "network": _inline_benchmark_network()}

WRONG_TYPES = {"text": "x", "none": None, "true": True, "number": 5, "list": [1],
               "mapping": {"a": 1}}
MUTATIONS = ("drop", "rename", "longer", "shorter", "nan", "negative", "zero", *WRONG_TYPES)


def entry_paths(entry, prefix=()):
    """The path of every entry of a YAML document: mapping keys and list indices."""
    if isinstance(entry, dict):
        items = entry.items()
    elif isinstance(entry, list):
        items = enumerate(entry)
    else:
        return []
    return [p for key, value in items
            for p in [prefix + (key,), *entry_paths(value, prefix + (key,))]]


PATHS = {base: entry_paths(data) for base, data in BASES.items()}


def changed(value, mutation):
    """value after one mutation other than drop and rename."""
    if mutation in WRONG_TYPES:
        return copy.deepcopy(WRONG_TYPES[mutation])
    if mutation == "nan":
        return float("nan")
    if mutation == "longer":
        return value + value[-1:] if isinstance(value, list) and value else [value, value]
    if mutation == "shorter":
        return value[:-1] if isinstance(value, list) else []
    if isinstance(value, list):
        return [changed(v, mutation) for v in value]
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if mutation == "zero":
        return 0 * value if number else 0
    return (-abs(value) or -1) if number else -1  # negative


def mutated(base, path, mutation) -> dict:
    data = copy.deepcopy(BASES[base])
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if mutation == "drop":
        del parent[key]
    elif mutation == "rename":
        parent[f"{key}_x"] = parent.pop(key)
    else:
        parent[key] = changed(parent[key], mutation)
    return data


@st.composite
def cases(draw):
    base = draw(st.sampled_from(sorted(BASES)))
    path = draw(st.sampled_from(PATHS[base]))
    # A list element has no key to rename.
    mutation = draw(st.sampled_from([m for m in MUTATIONS
                                     if m != "rename" or isinstance(path[-1], str)]))
    return base, path, mutation


def assert_named(exc: ValueError, path) -> None:
    keys = [key for key in path if isinstance(key, str)]
    assert any(key in str(exc) for key in keys), f"{exc!r} names none of {keys}"


@settings(max_examples=60, deadline=None)
@given(cases(), st.sampled_from(list(FilterKind)))
# Entries that raised TypeError or were accepted unnamed before they were checked at load.
@example(("s2", ("semi_axes",), "number"), FilterKind.CEOT)
@example(("s2", ("semi_axes",), "none"), FilterKind.CEOT)
@example(("s3", ("trajectory",), "number"), FilterKind.CEOT)
@example(("s1", ("measurements",), "list"), FilterKind.CEOT)
@example(("s2", ("noise", "measurement_cov", 0), "nan"), FilterKind.CEOT)
@example(("s2", ("priors", "kinematic_cov", 0), "nan"), FilterKind.CM)
@example(("s2", ("priors", "extent_cov", 1), "zero"), FilterKind.CI)
@example(("s2-inline", ("network", "sensor_nodes"), "number"), FilterKind.CM)
@example(("s2-inline", ("network", "sensor_nodes", 0), "true"), FilterKind.CM)
@example(("s2-inline", ("network", "positions", 3, 0), "nan"), FilterKind.CM)
@example(("s2-inline", ("network", "comm_radius"), "nan"), FilterKind.CM)
# Entries that failed only in the run, under a message that named no key.
@example(("s2", ("noise", "measurement_cov", 0), "negative"), FilterKind.CEOT)
@example(("s1", ("noise", "multiplicative_cov"), "negative"), FilterKind.CI)
@example(("s2", ("trajectory", "waypoints"), "longer"), FilterKind.CEOT)
@example(("s3", ("trajectory", "waypoints"), "zero"), FilterKind.CM)
def test_one_changed_entry_runs_or_fails_by_name(case, kind):
    base, path, mutation = case
    with tempfile.TemporaryDirectory() as tmp:
        source = Path(tmp) / "fuzz.yaml"
        source.write_text(yaml.safe_dump(mutated(base, path, mutation)))
        try:
            config = load_config(source)
        except ValueError as exc:
            assert_named(exc, path)
            return
        assert mutation != "nan" or path == ("name",), f"NaN at {path} loaded"
        assert (mutation, path[0]) != ("negative", "noise"), f"indefinite {path} loaded"
        assert mutation not in ("longer", "zero") or path != ("trajectory", "waypoints"), \
            f"repeated {path} loaded"
        config = load_config(source, steps=min(config.steps, 2), runs=1)
        try:
            run(config, FilterConfig(kind, 1), Path(tmp) / "out")
        except ValueError as exc:
            assert_named(exc, path)


CONFIGS = {name: load_config(name) for name in PRESETS}
CONFIGS["s2-inline"] = load_config("s2", network=BASES["s2-inline"]["network"])

# The config path of each field whose name is not its path.
PATHS_OF_FIELDS = {
    "meas_law": "measurements.law", "meas_count": "measurements.count",
    "meas_rate": "measurements.rate", "ch": "noise.multiplicative_cov",
    "cv": "noise.measurement_cov", "cxw": "process.kinematic_cov", "cpw": "process.extent_cov",
    "prior_mode": "priors.mode", "x0_mean": "priors.kinematic_mean",
    "cx0": "priors.kinematic_cov", "p0_mean": "priors.extent_mean", "cp0": "priors.extent_cov",
}
# The trajectory fields each kind reads; the others are not checked.
READ_BY_KIND = {"stationary": ("kind", "position", "orientation"),
                "waypoints": ("kind", "waypoints", "speed_mps")}


def typed_fields(base):
    """(owner, field, config path) of every field of a base's config: owner
    is "trajectory" for a field its trajectory reads, else None."""
    config = CONFIGS[base]
    return ([(None, f.name, PATHS_OF_FIELDS.get(f.name, f.name)) for f in fields(ScenarioConfig)]
            + [("trajectory", name, f"trajectory.{name}")
               for name in READ_BY_KIND[config.trajectory.kind]])


def replaced(config, owner, field, value):
    """config with one field, or one field of its trajectory, replaced."""
    if owner == "trajectory":
        return replace(config, trajectory=replace(config.trajectory, **{field: value}))
    return replace(config, **{field: value})


def plain(value):
    """A typed field's value as its YAML entry would hold it."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    return list(value) if isinstance(value, tuple) else value


@st.composite
def typed_cases(draw):
    base = draw(st.sampled_from(sorted(CONFIGS)))
    owner, field, path = draw(st.sampled_from(typed_fields(base)))
    mutation = draw(st.sampled_from([m for m in MUTATIONS if m not in ("drop", "rename")]))
    return base, owner, field, path, mutation


@settings(max_examples=60, deadline=None)
@given(typed_cases(), st.sampled_from(list(FilterKind)))
# Mutations that replace accepted unchecked and that UNCHECKED_BEFORE does not list.
@example(("s3", "trajectory", "waypoints", "trajectory.waypoints", "longer"), FilterKind.CM)
@example(("s2-inline", None, "network", "network", "mapping"), FilterKind.CM)
def test_one_changed_field_runs_or_fails_by_its_config_path(case, kind):
    base, owner, field, path, mutation = case
    config = CONFIGS[base]
    value = getattr(config.trajectory if owner else config, field)
    try:
        config = replaced(config, owner, field, changed(plain(value), mutation))
    except ValueError as exc:
        assert path in str(exc), f"{exc!r} does not name {path}"
        return
    assert mutation != "nan" or field == "name", f"NaN at {path} accepted"
    with tempfile.TemporaryDirectory() as tmp:
        try:
            run(replace(config, steps=min(config.steps, 2), runs=1), FilterConfig(kind, 1),
                Path(tmp) / "out")
        except ValueError as exc:
            assert path in str(exc), f"{exc!r} does not name {path}"


# (owner, field, value, message): values that replace accepted unchecked.
UNCHECKED_BEFORE = [
    (None, "shape", "hexagon", "^unknown shape 'hexagon'$"),
    (None, "meas_law", "nonsense", "^measurements.law must be fixed or poisson, got 'nonsense'$"),
    (None, "prior_mode", "bogus", "^priors.mode must be fixed or sampled, got 'bogus'$"),
    ("trajectory", "kind", "loop",
     "^trajectory.kind must be stationary or waypoints, got 'loop'$"),
    (None, "scan_time", -1, "^scan_time must be > 0, got -1$"),
    (None, "runs", 0, "^runs must be >= 1, got 0$"),
    (None, "seed", -1, "^seed must be >= 0, got -1$"),
    ("trajectory", "waypoints", [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]],
     r"^consecutive trajectory.waypoints must be distinct, got \[1.0, 0.0\] at 1 and 2$"),
    (None, "cpw", np.diag([0.1, -0.1, 0.1]), "^process.extent_cov must be positive definite"),
]


@pytest.mark.parametrize("owner, field, value, message", UNCHECKED_BEFORE,
                         ids=[case[1] for case in UNCHECKED_BEFORE])
def test_replace_rejects_by_config_path(owner, field, value, message):
    with pytest.raises(ValueError, match=message):
        replaced(CONFIGS["s2"], owner, field, value)
