"""Ground-truth generation, per-node measurement synthesis, and presets.

A scenario is described by a YAML config (shape, trajectory, noise levels,
priors, network, Monte Carlo settings).  Presets s1/s2/s3 ship with the
package: a stationary high-noise rectangle, a moving ellipse, and a moving
rectangle.  The ground truth is a pair of arrays, the kinematic states
(steps, d) and the extents (steps, 3), generated deterministically from the
config once for all its realizations; each realization's detections are
fully determined by its seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from .consensus import NodeKind, SensorNetwork, build_network
from ._linalg import sqrt_psd
from .geometry import clamp_extent, shape_matrix, wrap_angle

__all__ = [
    "TrajectorySpec",
    "ScenarioConfig",
    "ScenarioRun",
    "PRESETS",
    "load_config",
    "preset_text",
    "generate_truth",
    "generate_measurements",
    "build_scenario_run",
    "benchmark_network",
    "resolve_network",
]

PRESETS = ("s1", "s2", "s3")
CONFIG_KEYS = frozenset({
    "name", "shape", "semi_axes", "steps", "scan_time", "kinematic_dim", "trajectory",
    "measurements", "noise", "process", "priors", "network", "runs", "seed",
})
NETWORK_KEYS = frozenset({"positions", "sensor_nodes", "comm_radius"})

KMH_TO_MPS = 1000.0 / 3600.0


class _Rebuilt:
    # Rebuilt through the constructor, so a copy in another process, as the
    # CLI's worker pool receives, is read-only and checked again.
    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True)
class TrajectorySpec(_Rebuilt):
    """Either a fixed pose or a constant-speed waypoint course; the entries
    its kind reads are converted and checked when it is built, as in ScenarioConfig."""

    kind: str  # "stationary" | "waypoints"
    position: np.ndarray | None = None
    orientation: float = 0.0
    waypoints: np.ndarray | None = None
    speed_mps: float = 0.0

    def __post_init__(self):
        if self.kind == "stationary":
            return _set(self, position=_vector(self.position, "trajectory.position", 2),
                        orientation=_number(self.orientation, "trajectory.orientation"))
        if self.kind != "waypoints":
            raise ValueError(f"trajectory.kind must be stationary or waypoints, got {self.kind!r}")
        waypoints = _finite(_array(self.waypoints, "trajectory.waypoints"), "trajectory.waypoints")
        if waypoints.ndim != 2 or waypoints.shape[0] < 2 or waypoints.shape[1] != 2:
            raise ValueError("trajectory.waypoints must be at least 2 planar points, "
                             f"got shape {waypoints.shape}")
        repeated = np.flatnonzero(np.linalg.norm(np.diff(waypoints, axis=0), axis=1) <= 0)
        if repeated.size:
            i = repeated[0]
            raise ValueError("consecutive trajectory.waypoints must be distinct, got "
                             f"{waypoints[i].tolist()} at {i} and {i + 1}")
        _set(self, waypoints=waypoints,
             speed_mps=_number(self.speed_mps, "trajectory.speed_mps", low=0))


@dataclass(frozen=True)
class ScenarioConfig(_Rebuilt):
    """One scenario, converted and checked entry by entry when it is built, through
    load_config, the constructor or dataclasses.replace alike: a bad entry is a
    ValueError named by its config path, as noise.measurement_cov.  Arrays are read-only."""

    name: str
    shape: str  # "ellipse" | "rectangle"
    semi_axes: tuple[float, float]
    steps: int
    scan_time: float
    kinematic_dim: int
    trajectory: TrajectorySpec
    meas_law: str  # "fixed" | "poisson"
    meas_count: int
    meas_rate: float
    ch: np.ndarray
    cv: np.ndarray
    cxw: np.ndarray
    cpw: np.ndarray
    prior_mode: str  # "fixed" | "sampled"
    x0_mean: np.ndarray | None
    cx0: np.ndarray
    p0_mean: np.ndarray | None
    cp0: np.ndarray
    network: str | dict = "benchmark"
    runs: int = 1
    seed: int = 0

    def __post_init__(self):
        fixed = self.meas_law == "fixed"
        if not fixed and self.meas_law != "poisson":
            raise ValueError(f"measurements.law must be fixed or poisson, got {self.meas_law!r}")
        if self.prior_mode not in ("fixed", "sampled"):
            raise ValueError(f"priors.mode must be fixed or sampled, got {self.prior_mode!r}")
        if self.shape not in ("ellipse", "rectangle"):
            raise ValueError(f"unknown shape {self.shape!r}")
        if not isinstance(self.trajectory, TrajectorySpec):
            raise ValueError(f"trajectory must be a TrajectorySpec, got {self.trajectory!r}")
        axes = _array(self.semi_axes, "semi_axes")
        if axes.shape != (2,) or not (axes.min() > 0 and axes.max() < np.inf):
            raise ValueError(f"semi_axes must be two positive finite lengths, "
                             f"got {axes.tolist()}")
        d = _number(self.kinematic_dim, "kinematic_dim", integer=True)
        if d not in (2, 4):
            raise ValueError(f"kinematic_dim must be 2 or 4, got {d}")
        _set(self, name=str(self.name), semi_axes=tuple(axes.tolist()), kinematic_dim=d,
             steps=_number(self.steps, "steps", integer=True, low=1),
             scan_time=_number(self.scan_time, "scan_time", low=0, strict=True),
             # The count of a Poisson law and the rate of a fixed one are not read.
             meas_count=_number(self.meas_count, "measurements.count", integer=True,
                                low=int(fixed)),
             meas_rate=_number(self.meas_rate, "measurements.rate", low=0, strict=not fixed),
             ch=_matrix(self.ch, "noise.multiplicative_cov", 2),
             cv=_matrix(self.cv, "noise.measurement_cov", 2),
             cxw=_matrix(self.cxw, "process.kinematic_cov", d, definite=True),
             cpw=_matrix(self.cpw, "process.extent_cov", 3, definite=True),
             x0_mean=_vector(self.x0_mean, "priors.kinematic_mean", d, optional=True),
             cx0=_matrix(self.cx0, "priors.kinematic_cov", d, definite=True),
             p0_mean=_vector(self.p0_mean, "priors.extent_mean", 3, optional=True),
             cp0=_matrix(self.cp0, "priors.extent_cov", 3, definite=True),
             network=self.network if self.network == "benchmark"
             else _network_spec(self.network),
             runs=_number(self.runs, "runs", integer=True, low=1),
             seed=_number(self.seed, "seed", integer=True, low=0))


@dataclass(frozen=True)
class ScenarioRun:
    """One realized scenario: truth, detections, and priors.

    x_true[k] and p_true[k] are the true kinematic state and extent
    [alpha, l1, l2] at step k, shared by every realization of a config.
    detections holds all of the run's detections as one (N, 2) array in
    (step, node, index) order, and counts[k, s] is how many of them node s
    made at step k; communication nodes always count 0.
    """

    x_true: np.ndarray  # (steps, d)
    p_true: np.ndarray  # (steps, 3)
    detections: np.ndarray  # (N, 2)
    counts: np.ndarray  # (steps, nodes)
    x0: np.ndarray
    cx0: np.ndarray
    p0: np.ndarray
    cp0: np.ndarray


def _set(built, **entries) -> None:
    """Store converted entries, arrays as read-only fresh copies, on a frozen dataclass."""
    for name, value in entries.items():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        object.__setattr__(built, name, value)


def _array(spec, name: str) -> np.ndarray:
    """A config entry as a new float array; anything but numbers is rejected by name."""
    try:
        return np.array(spec, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be numbers, got {spec!r}") from None


def _matrix(spec, name: str, size: int, *, definite: bool = False) -> np.ndarray:
    """A finite, symmetric positive semidefinite size x size config
    covariance: a flat list means a diagonal matrix.  One the filters invert
    must be positive definite.  One eigendecomposition gives both verdicts."""
    arr = _array(spec, name)
    if arr.ndim == 1:
        arr = np.diag(arr)
    if arr.shape != (size, size):
        raise ValueError(f"{name} must be a flat diagonal list of {size} entries or a "
                         f"{size}x{size} matrix, got shape {np.shape(spec)}")
    _finite(arr, name)
    tol = 1e-8 * max(1.0, float(np.abs(arr).max()))
    if np.abs(arr - arr.T).max() > tol:
        raise ValueError(f"{name} is not symmetric")
    low = np.linalg.eigvalsh(arr)[0]
    if definite and not low > 0:
        raise ValueError(f"{name} must be positive definite, got {arr.tolist()}")
    if low < -tol:
        raise ValueError(f"{name} is not positive semidefinite (min eig {low:.3e})")
    return arr


def _vector(spec, name: str, size: int, *, optional: bool = False) -> np.ndarray | None:
    """Parse a config vector of `size` finite entries; an optional one may be None."""
    if spec is None and optional:
        return None
    arr = _array(spec, name)
    if arr.shape != (size,):
        raise ValueError(f"{name} must be a list of {size} entries, got shape {np.shape(spec)}")
    return _finite(arr, name)


def _finite(value, name: str):
    """A config number or array, which must be finite throughout."""
    if not np.isfinite(value).all():
        raise ValueError(f"{name} must be finite, got {np.asarray(value).tolist()}")
    return value


def _number(value, name: str, *, integer: bool = False, low: float | None = None,
            strict: bool = False):
    """A config number, which must be finite and at least low (above it if
    strict).  An integer entry must be integral: a fraction is rejected,
    not truncated.  A boolean is not a number here."""
    if isinstance(value, bool):
        raise ValueError(f"{name} must be {'an integer' if integer else 'a number'}, "
                         f"got {value!r}")
    if integer and isinstance(value, (int, np.integer)):
        number = int(value)
    else:
        try:
            number = float(value)
        except (TypeError, OverflowError, ValueError):
            raise ValueError(f"{name} must be a number, got {value!r}") from None
        _finite(number, name)
        if integer:
            if not number.is_integer():
                raise ValueError(f"{name} must be an integer, got {value!r}")
            number = int(number)
    if low is not None and (number <= low if strict else number < low):
        raise ValueError(f"{name} must be {'>' if strict else '>='} {low:g}, got {number:g}")
    return number


class _Section(dict):
    """A config mapping that names a missing key by its path, as in
    trajectory.kind."""

    def __init__(self, data: dict, prefix: str):
        super().__init__(data)
        self.prefix = prefix

    def __missing__(self, key):
        raise ValueError(f"scenario config is missing key {self.prefix}{key}")


def _section(value, prefix: str = "") -> _Section:
    """A config section, which must be a mapping before its keys are read;
    a nested section's keys are named with its prefix, as in noise.measurement_cov."""
    if not isinstance(value, dict):
        raise ValueError(f"{prefix.rstrip('.') or 'scenario config'} must be a mapping")
    return _Section(value, prefix)


def _check_keys(mapping, allowed, prefix: str = "") -> _Section:
    """The config section mapping, after rejecting any key outside allowed."""
    section = _section(mapping, prefix)
    unknown = sorted(map(str, set(section) - set(allowed)))
    if unknown:
        raise ValueError("unknown scenario config keys: "
                         + ", ".join(f"{prefix}{key}" for key in unknown))
    return section


def _network_spec(spec) -> dict:
    """An inline {positions, sensor_nodes, comm_radius} network, every entry
    checked and converted: finite planar positions, integral node indices and
    a positive finite radius."""
    _check_keys(spec, NETWORK_KEYS, "network.")
    missing = sorted(NETWORK_KEYS - set(spec))
    if missing:
        raise ValueError("scenario config is missing keys: "
                         + ", ".join(f"network.{key}" for key in missing))
    positions = _array(spec["positions"], "network.positions")
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ValueError("network.positions must be a list of planar points, "
                         f"got shape {positions.shape}")
    if not isinstance(spec["sensor_nodes"], list):
        raise ValueError(f"network.sensor_nodes must be a list of node indices, "
                         f"got {spec['sensor_nodes']!r}")
    return {
        "positions": _finite(positions, "network.positions").tolist(),
        "sensor_nodes": [_number(s, "network.sensor_nodes", integer=True)
                         for s in spec["sensor_nodes"]],
        "comm_radius": _number(spec["comm_radius"], "network.comm_radius", low=0, strict=True),
    }


def _parse_config(data: dict, name_hint: str) -> ScenarioConfig:
    """The config of a YAML mapping: its sections and keys are read here and the
    speed turned from km/h to m/s; the constructors convert and check each entry."""
    data = _check_keys(data, CONFIG_KEYS)
    traj = _section(data["trajectory"], "trajectory.")
    trajectory = {"kind": traj["kind"]}
    if traj["kind"] == "stationary":
        _check_keys(traj, {"kind", "position", "orientation"}, "trajectory.")
        trajectory.update(position=traj["position"], orientation=traj["orientation"])
    elif traj["kind"] == "waypoints":
        _check_keys(traj, {"kind", "waypoints", "speed_kmh"}, "trajectory.")
        speed = _number(traj["speed_kmh"], "trajectory.speed_kmh", low=0)
        trajectory.update(waypoints=traj["waypoints"], speed_mps=speed * KMH_TO_MPS)
    meas = _section(data["measurements"], "measurements.")
    law, count, rate = meas["law"], 0, 0.0
    if law == "fixed":
        count = _check_keys(meas, {"law", "count"}, "measurements.")["count"]
    elif law == "poisson":
        rate = _check_keys(meas, {"law", "rate"}, "measurements.")["rate"]
    priors = _check_keys(data["priors"], {"mode", "kinematic_mean", "kinematic_cov",
                                          "extent_mean", "extent_cov"}, "priors.")
    noise = _check_keys(data["noise"], {"multiplicative_cov", "measurement_cov"}, "noise.")
    process = _check_keys(data["process"], {"kinematic_cov", "extent_cov"}, "process.")
    return ScenarioConfig(
        name=data.get("name", name_hint), shape=data["shape"], semi_axes=data["semi_axes"],
        steps=data["steps"], scan_time=data["scan_time"], kinematic_dim=data["kinematic_dim"],
        trajectory=TrajectorySpec(**trajectory), meas_law=law, meas_count=count,
        meas_rate=rate, ch=noise["multiplicative_cov"], cv=noise["measurement_cov"],
        cxw=process["kinematic_cov"], cpw=process["extent_cov"],
        prior_mode=priors.get("mode", "fixed"), x0_mean=priors.get("kinematic_mean"),
        cx0=priors["kinematic_cov"], p0_mean=priors.get("extent_mean"),
        cp0=priors["extent_cov"], network=data.get("network", "benchmark"),
        runs=data.get("runs", 1), seed=data.get("seed", 0))


def preset_text(name: str) -> str:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; available: {', '.join(PRESETS)}")
    return resources.files("eotnet.data").joinpath(f"{name}.yaml").read_text()


def load_config(source: str | Path, **overrides) -> ScenarioConfig:
    """Load a scenario config from a preset name or a YAML file path.

    Each override replaces a top-level entry of the YAML mapping before it is
    checked, as measurements={"law": "poisson", "rate": 5.0} or runs=10 does,
    so an override gets the same named errors as the entry it replaces.
    """
    if isinstance(source, str) and source in PRESETS:
        text, name = preset_text(source), source
    else:
        text, name = Path(source).read_text(), Path(source).stem
    # libyaml's C parser where PyYAML has it: the same mapping, several times faster.
    data = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    return _parse_config({**data, **overrides} if isinstance(data, dict) else data, name)


def _network_from_spec(spec: dict) -> SensorNetwork:
    """Build a network from a {positions, sensor_nodes, comm_radius} mapping;
    there must be a sensor, and every sensor index must name a position."""
    n = len(spec["positions"])
    sensors = set(spec["sensor_nodes"])
    if not sensors:
        raise ValueError("sensor_nodes is empty; the network needs at least one sensor")
    outside = sorted(s for s in sensors if not 0 <= s < n)
    if outside:
        raise ValueError(f"sensor_nodes {outside} are outside the {n} network positions")
    kinds = [NodeKind.SENSOR if i in sensors else NodeKind.COMMUNICATION for i in range(n)]
    return build_network(spec["positions"], kinds, spec["comm_radius"])


def benchmark_network() -> SensorNetwork:
    """The fixed 20-node benchmark network (6 sensors, 14 relays, R = 2000 m)."""
    return _network_from_spec(json.loads(
        resources.files("eotnet.data").joinpath("benchmark_network.json").read_text()))


def resolve_network(config: ScenarioConfig) -> SensorNetwork:
    if config.network == "benchmark":
        return benchmark_network()
    return _network_from_spec(config.network)


def _waypoint_pose(waypoints: np.ndarray, arc: float) -> tuple[np.ndarray, np.ndarray]:
    """Position and unit heading at a given arc length along the polyline.

    Beyond the last waypoint the course continues along the final heading.
    At a waypoint the outgoing segment's heading applies.
    """
    segments = np.diff(waypoints, axis=0)
    lengths = np.linalg.norm(segments, axis=1)
    headings, seg = segments / lengths[:, None], 0
    while seg < len(lengths) - 1 and arc >= lengths[seg]:
        arc -= lengths[seg]
        seg += 1
    return waypoints[seg] + arc * headings[seg], headings[seg]


def generate_truth(config: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic ground truth for the configured trajectory: the kinematic
    states x_true (steps, d) and the extents p_true (steps, 3).

    A course of finite entries can still leave the double range, as
    speed_kmh: 1e308 does; that truth is rejected by name, with no warning.
    """
    traj, steps, extra = config.trajectory, config.steps, config.kinematic_dim - 2
    x_true, p_true = np.zeros((steps, 2 + extra)), np.empty((steps, 3))
    p_true[:, 1:] = config.semi_axes
    if traj.kind == "stationary":
        x_true[:, :2] = traj.position
        p_true[:, 0] = wrap_angle(traj.orientation)
    else:
        step_len = traj.speed_mps * config.scan_time
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(steps):
                pos, heading = _waypoint_pose(traj.waypoints, k * step_len)
                x_true[k, :2], x_true[k, 2:] = pos, (traj.speed_mps * heading)[:extra]
                # Wrapped twice on purpose: a second wrap can move an angle by one
                # ulp, and every seeded run is pinned to the truth's current bits.
                p_true[k, 0] = wrap_angle(wrap_angle(float(np.arctan2(heading[1], heading[0]))))
    if not (np.isfinite(x_true).all() and np.isfinite(p_true).all()):
        raise ValueError("ground truth must be finite; check the trajectory")
    return x_true, p_true


def generate_measurements(truth, net: SensorNetwork, config: ScenarioConfig,
                          seeds) -> list[ScenarioRun]:
    """Synthesize per-node detections and realize the priors of one run of
    the truth pair (x_true, p_true) per seed.

    A run's draw order (priors, then step-by-step node-by-node counts and
    detections, every h before every v) is fixed, so equal seeds give
    bit-identical runs.  The noise factors and the truth's shape matrices S
    are taken once for every run and applied once per step, to all of its
    sensors' draws: detections m + S h + v around the center m.
    """
    x_true, p_true = truth
    # The noises are factored once for every draw.
    lh, lv = sqrt_psd(config.ch), sqrt_psd(config.cv)
    shapes, sensors = shape_matrix(p_true), list(net.sensor_nodes)
    runs = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        x0, p0 = _realize_priors(x_true, p_true, config, rng)
        counts = np.zeros((len(x_true), net.size), dtype=int)
        draws = [np.zeros((0, 2))]
        for k, (x, s_mat) in enumerate(zip(x_true, shapes)):
            noise, ns = [np.zeros((2, 0, 2))], []
            for _ in sensors:
                ns.append(config.meas_count if config.meas_law == "fixed"
                          else int(rng.poisson(config.meas_rate)))
                noise.append(rng.standard_normal((2, ns[-1], 2)))
            counts[k, sensors] = ns
            h, v = np.concatenate(noise, axis=1)
            y = x[:2] + (h @ lh.T) @ s_mat.T + v @ lv.T
            # numpy multiplies a one-row draw as a vector (BLAS gemv), which
            # rounds differently from a product of more rows, so a sensor's
            # single detection is taken as it is drawn alone.
            if 1 in ns and len(y) > 1:
                one = np.repeat(np.equal(ns, 1), ns)
                y[one] = (x[:2] + (h[one, None] @ lh.T) @ s_mat.T + v[one, None] @ lv.T)[:, 0]
            draws.append(y)
        runs.append(ScenarioRun(x_true=x_true, p_true=p_true, detections=np.concatenate(draws),
                                counts=counts, x0=x0, cx0=config.cx0.copy(), p0=p0,
                                cp0=config.cp0.copy()))
    return runs


def _realize_priors(x_true, p_true, config: ScenarioConfig, rng):
    x_mean = config.x0_mean if config.x0_mean is not None else x_true[0]
    p_mean = config.p0_mean if config.p0_mean is not None else p_true[0]
    if config.prior_mode == "fixed":
        return x_mean.copy(), p_mean.copy()
    x0 = x_mean + sqrt_psd(config.cx0) @ rng.standard_normal(x_mean.size)
    p0 = p_mean + sqrt_psd(config.cp0) @ rng.standard_normal(3)
    return x0, clamp_extent(p0)


def build_scenario_run(config: ScenarioConfig, net: SensorNetwork, seeds) -> list[ScenarioRun]:
    """The truth of config, generated once, and one run of it per seed."""
    return generate_measurements(generate_truth(config), net, config, seeds)
