"""Hypothesis fuzzer of scenario configs: one entry of a preset changed at a time.

Each example starts from a preset, or from s2 with its benchmark network
spelled out inline, picks one entry at any depth and changes it: it drops or
renames the entry, or gives it a wrong type, a wrong size, NaN, a negative
value or zero.  Loading the config and a 2-step, 1-run CLI run must then
succeed, or fail with a ValueError that names a key on the changed entry's
path; no TypeError, KeyError or bare numpy message may escape.  A NaN must
fail at load, except in the free-text name.
"""

import copy
import json
import tempfile
from importlib import resources
from pathlib import Path

import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eotnet.cli import run
from eotnet.scenario import PRESETS, load_config, preset_text
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
