"""Sequential extended-object trackers: centralized and two consensus variants.

All three filters run one loop over stacked node states: the kinematic and
the extent information states carry a node axis, with one row for the
centralized filter and one per network node for the distributed ones, behind
a leading axis of Monte Carlo realizations that run in lock-step.  At
measurement index i, every row holding a detection is linearized at its index
i-1 estimates (the extent update consumes the previous kinematic estimate and
vice versa), and each detection's innovation pair is added into its sensor's
row.  The filters differ only in how the network combines those rows:

- CEOT maps every sensor to row 0, so the centre sums their innovations;
- CI corrects each sensor row locally, then averages the posteriors;
- CM averages the innovations, then corrects every row with the weight omega.

Through a scan the two states travel as one packed (R, n, k) array, one row
[qx, Ωx, qp, Ωp] per node, so each index gathers and scatters the live
realizations once, and correction, symmetrization and the synchronous
consensus rounds act on all four information quantities at once.  After the
batch, a standard information-form prediction advances both states.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass

import numpy as np

from ._linalg import _matvec, spd_inv, spd_solve
from .consensus import ConsensusMatrix, SensorNetwork, consensus_rounds
from .geometry import MIN_AXIS, clamp_extent
from .info_filter import InformationState, from_moments, predict, to_moments
from .linearization import innovations

__all__ = [
    "FilterKind",
    "FilterConfig",
    "TrackerParams",
    "TrackRecord",
    "ncv_transition",
    "params_from_scenario",
    "initial_states",
    "correct_scan",
    "predict_states",
    "run_filter",
]


class FilterKind(enum.Enum):
    CEOT = "ceot"
    CI = "ci"
    CM = "cm"


@dataclass(frozen=True)
class FilterConfig:
    """Which filter to run and its consensus settings.

    omega None means the node-count compensation |G|, which makes the
    measurement-consensus filter match the centralized filter exactly when
    averaging is complete.
    """

    kind: FilterKind
    consensus_iters: int = 1
    omega: float | None = None

    def __post_init__(self):
        if self.kind is not FilterKind.CEOT and self.consensus_iters < 1:
            raise ValueError("distributed filters need at least one consensus iteration")


@dataclass(frozen=True)
class TrackerParams:
    """Models shared by every node: noises and the kinematic transition; the
    extent transition is the identity."""

    ch: np.ndarray
    cv_by_node: tuple[np.ndarray, ...]
    fx: np.ndarray
    wwx: np.ndarray
    wwp: np.ndarray


def ncv_transition(x_dim: int, scan_time: float) -> np.ndarray:
    """Nearly-constant-velocity transition (identity for a position-only state)."""
    if x_dim == 2:
        return np.eye(2)
    if x_dim == 4:
        f = np.eye(4)
        f[0, 2] = scan_time
        f[1, 3] = scan_time
        return f
    raise ValueError("kinematic dimension must be 2 or 4")


def params_from_scenario(config, net: SensorNetwork) -> TrackerParams:
    """Assemble tracker models from a scenario config (shared noise per node)."""
    return TrackerParams(
        ch=np.asarray(config.ch, dtype=float),
        cv_by_node=tuple(np.asarray(config.cv, dtype=float) for _ in range(net.size)),
        fx=ncv_transition(config.kinematic_dim, config.scan_time),
        wwx=spd_inv(np.asarray(config.cxw, dtype=float), name="kinematic process covariance"),
        wwp=spd_inv(np.asarray(config.cpw, dtype=float), name="extent process covariance"),
    )


def initial_states(x0, cx0, p0, cp0, nodes: int = 1):
    """Stacked (kinematic, extent) information states with the same prior on
    each of `nodes` rows, the extent mean sanitized.  Priors with a leading
    realization axis, x0 (R, d) and cx0 (R, d, d), give (R, nodes, ...) states."""
    def stacked(a, entry_dims):
        a = np.asarray(a, dtype=float)
        axis = a.ndim - entry_dims
        return np.repeat(np.expand_dims(a, axis), nodes, axis=axis)

    kin = from_moments(stacked(x0, 1), stacked(cx0, 2))
    return kin, _sanitize_extent(from_moments(stacked(p0, 1), stacked(cp0, 2)))


def _sanitize_extent(ext: InformationState, rows=None) -> InformationState:
    """Re-anchor the extent mean of the given rows (flat indices into the
    stacked rows; default: all) after a write: wrap the orientation into
    (-pi, pi] and clamp semi-axes to the floor.  Returns ext itself while
    every row checked is already in range, so the information state is
    normally left untouched."""
    rows = np.arange(ext.q.size // 3) if rows is None else np.asarray(rows)
    sub = InformationState(ext.q.reshape(-1, 3)[rows], ext.omega.reshape(-1, 3, 3)[rows])
    p = spd_solve(sub.omega, sub.q, name="extent information matrix")
    in_range = (-np.pi < p[:, 0]) & (p[:, 0] <= np.pi) & (p[:, 1:] >= MIN_AXIS).all(axis=1)
    if in_range.all():
        return ext
    q = ext.q.reshape(-1, 3).copy()
    q[rows[~in_range]] = _matvec(sub.omega[~in_range], clamp_extent(p[~in_range]))
    return InformationState(q=q.reshape(ext.q.shape), omega=ext.omega)


def _pack(kin: InformationState, ext: InformationState) -> np.ndarray:
    """One packed row [qx, Ωx, qp, Ωp] per stacked (realization, node)."""
    lead = kin.q.shape[:-1]
    return np.concatenate([kin.q, kin.omega.reshape(*lead, -1), ext.q,
                           ext.omega.reshape(*lead, -1)], axis=-1)


def _unpack(packed: np.ndarray, d: int) -> tuple[InformationState, InformationState]:
    """The (kinematic, extent) states of packed rows, as views."""
    lead, e = packed.shape[:-1], d + d * d
    return (InformationState(packed[..., :d], packed[..., d:e].reshape(*lead, d, d)),
            InformationState(packed[..., e:e + 3], packed[..., e + 3:].reshape(*lead, 3, 3)))


def _mirror(d: int) -> np.ndarray:
    """Column of each packed entry's transpose: itself for a vector entry,
    the entry across the diagonal for a matrix entry."""
    def t(size):
        return np.arange(size * size).reshape(size, size).T.ravel()

    return np.concatenate([np.arange(d), d + t(d), d + d * d + np.arange(3), d + d * d + 3 + t(3)])


def _sanitize_rows(flat: np.ndarray, d: int, rows=None) -> None:
    """_sanitize_extent on the extent columns of packed rows, in place."""
    _, ext = _unpack(flat, d)
    fixed = _sanitize_extent(ext, rows)
    if fixed is not ext:
        ext.q[...] = fixed.q


def correct_scan(
    kin: InformationState,
    ext: InformationState,
    batches,
    params: TrackerParams,
    config: FilterConfig,
    pi: ConsensusMatrix | None = None,
    trace=None,
) -> tuple[InformationState, InformationState]:
    """Sequential correction of the stacked node states over one scan.

    The states are (R, n, d) node stacks of R realizations, and batches[r][j]
    holds sensor j's detections in realization r.  Sensor j's noise is
    params.cv_by_node[j] and its innovations go into state row 0 under CEOT
    and into row j, the sensor's own node, under CI and CM.  At each index
    the sensors that still have detections contribute, all realizations
    linearized in one stacked call; shorter batches simply stop, and a
    realization whose longest batch has ended takes no further correction or
    averaging.  Realizations never mix.  The distributed filters need the
    consensus matrix pi and run config.consensus_iters averaging rounds per
    index.  A trace records the observed Rx spectra and the Rp floor hits.
    """
    if kin.q.ndim != 3:
        raise ValueError(f"correct_scan needs (R, n, d) states, got shape {kin.q.shape}")
    runs, nodes = kin.q.shape[:2]
    if len(batches) != runs:
        raise ValueError(f"got {len(batches)} batch lists for {runs} stacked realizations")
    sensors = len(batches[0])
    if any(len(b) != sensors for b in batches):
        raise ValueError("every realization needs one batch per sensor")
    if config.kind is FilterKind.CEOT:
        rows = np.zeros(sensors, dtype=int)
    elif pi is None:
        raise ValueError("distributed filters need a consensus matrix")
    elif sensors != nodes:
        raise ValueError("distributed filters need one batch per node")
    else:
        rows = np.arange(nodes)
    rounds = config.consensus_iters
    omega = config.omega if config.omega is not None else float(nodes)
    cv = np.asarray(params.cv_by_node, dtype=float)

    # Every detection of the scan with its realization, sensor and index;
    # order[bounds[i]:bounds[i + 1]] picks index i's in (realization, sensor) order.
    flat = [np.reshape(b, (-1, 2)) for run in batches for b in run]
    counts = np.array([len(b) for b in flat], dtype=int)
    ends = counts.reshape(runs, sensors).max(axis=1, initial=0)
    y_all = np.concatenate([np.zeros((0, 2)), *flat])
    det_run, det_sensor = (np.repeat(a.ravel(), counts) for a in np.indices((runs, sensors)))
    det_index = np.concatenate([np.zeros(0, dtype=int), *map(np.arange, counts)])
    order = np.argsort(det_index, kind="stable")
    bounds = np.searchsorted(det_index[order], np.arange(ends.max(initial=0) + 1))

    d = kin.dim
    state = _pack(kin, ext)
    width, mirror = state.shape[-1], _mirror(d)
    for i in range(ends.max(initial=0)):
        live = np.flatnonzero(ends > i)
        at_i = order[bounds[i]:bounds[i + 1]]
        sensor = det_sensor[at_i]
        # Flat row of each detection among the live realizations' rows.  Under
        # CI and CM these rows are distinct.  Under CEOT every live
        # realization has a detection at i, and its detections share its row.
        det_rows = np.searchsorted(live, det_run[at_i]) * nodes + rows[sensor]
        rows_i = state[live].reshape(-1, width)
        lin, at = (slice(None), det_rows) if config.kind is FilterKind.CEOT else (det_rows, ...)
        kin_i, ext_i = _unpack(rows_i[lin], d)
        x, cx = to_moments(kin_i)
        p, cp = to_moments(ext_i)
        innov = innovations(x[at], cx[at], p[at], cp[at], y_all[at_i], params.ch, cv[sensor],
                            trace)
        packed = np.concatenate([a.reshape(len(at_i), -1) for a in innov], axis=1)
        delta = np.zeros_like(rows_i)
        if config.kind is FilterKind.CEOT:  # sum the detections that share a row
            np.add.at(delta, det_rows, packed)
        else:
            delta[det_rows] = packed
        # The filters differ only here, in how the network combines the rows.
        if config.kind is FilterKind.CM:
            delta = consensus_rounds(delta.reshape(-1, nodes, width), pi, rounds)
            rows_i = rows_i + omega * delta.reshape(-1, width)
        else:
            rows_i = rows_i + delta
        # Symmetrize the matrices; a vector entry is its own mirror and stays exact.
        rows_i = 0.5 * (rows_i + np.take(rows_i, mirror, axis=1))
        _sanitize_rows(rows_i, d, lin if config.kind is FilterKind.CI else None)
        if config.kind is FilterKind.CI:
            rows_i = consensus_rounds(rows_i.reshape(-1, nodes, width), pi, rounds)
            rows_i = rows_i.reshape(-1, width)
            _sanitize_rows(rows_i, d)
        state[live] = rows_i.reshape(-1, nodes, width)
    kin, ext = _unpack(state, d)
    return (InformationState(kin.q.copy(), kin.omega.copy()),
            InformationState(ext.q.copy(), ext.omega.copy()))


def predict_states(kin: InformationState, ext: InformationState, params: TrackerParams):
    """Information-form prediction of the stacked states to the next scan."""
    return (predict(kin, params.fx, params.wwx),
            _sanitize_extent(predict(ext, np.eye(3), params.wwp)))


@dataclass(frozen=True)
class TrackRecord:
    """Per-step, per-node moment outputs of one tracked run.

    The centralized filter records a single pseudo-node.  Outputs are taken
    after the scan's correction, before the prediction to the next scan.
    step_seconds holds each step's wall time divided by the number of runs
    the step advanced together.
    """

    x_mean: np.ndarray  # (steps, nodes, x_dim)
    x_cov: np.ndarray  # (steps, nodes, x_dim, x_dim)
    p_mean: np.ndarray  # (steps, nodes, 3)
    p_cov: np.ndarray  # (steps, nodes, 3, 3)
    step_seconds: np.ndarray  # (steps,), amortized over the stacked runs

    @property
    def steps(self) -> int:
        return self.x_mean.shape[0]

    @property
    def nodes(self) -> int:
        return self.x_mean.shape[1]


def run_filter(
    scn_runs,
    net: SensorNetwork,
    params: TrackerParams,
    config: FilterConfig,
    pi: ConsensusMatrix | None = None,
    trace=None,
) -> list[TrackRecord]:
    """Drive one filter over realized runs of one scenario config, all of
    them stacked in one pass, and return one TrackRecord per run.

    Each run's record equals the one a pass over that run alone gives; a
    step's wall time is split evenly over the runs it advanced.  For the
    distributed filters a consensus matrix is required.  A non-finite
    detection fails before any filtering, naming its run (its position in
    scn_runs), step and sensor.  An optional trace object (record_rx,
    record_rp_floor, record_omega) collects observed noise and
    information-matrix spectra and Rp floor hits of every run for the
    stability assumption checks.
    """
    scn_runs = list(scn_runs)
    if not scn_runs:
        raise ValueError("run_filter needs at least one scenario run")
    runs, steps = len(scn_runs), len(scn_runs[0].measurements)
    if any(len(scn.measurements) != steps for scn in scn_runs):
        raise ValueError("stacked scenario runs must have the same number of steps")
    for r, scn in enumerate(scn_runs):
        if not np.isfinite(np.concatenate([b for scan in scn.measurements for b in scan],
                                          axis=None)).all():
            k, j = next((k, j) for k, scan in enumerate(scn.measurements)
                        for j, b in enumerate(scan) if not np.isfinite(b).all())
            raise ValueError(f"detections of run {r}, step {k}, sensor {j} must be finite")
    x_dim = scn_runs[0].x0.size
    nodes = 1 if config.kind is FilterKind.CEOT else net.size
    kin, ext = initial_states(*(np.stack([getattr(scn, name) for scn in scn_runs])
                                for name in ("x0", "cx0", "p0", "cp0")),
                              nodes)

    x_mean = np.zeros((runs, steps, nodes, x_dim))
    x_cov = np.zeros((runs, steps, nodes, x_dim, x_dim))
    p_mean = np.zeros((runs, steps, nodes, 3))
    p_cov = np.zeros((runs, steps, nodes, 3, 3))
    seconds = np.zeros(steps)

    for k in range(steps):
        t0 = time.perf_counter()
        kin, ext = correct_scan(kin, ext, [scn.measurements[k] for scn in scn_runs], params,
                                config, pi, trace)
        x_mean[:, k], x_cov[:, k] = to_moments(kin)
        p_mean[:, k], p_cov[:, k] = to_moments(ext)
        if trace is not None:
            trace.record_omega(kin.omega)
        if k + 1 < steps:
            kin, ext = predict_states(kin, ext, params)
        seconds[k] = (time.perf_counter() - t0) / runs

    return [TrackRecord(x_mean=x_mean[r], x_cov=x_cov[r], p_mean=p_mean[r], p_cov=p_cov[r],
                        step_seconds=seconds) for r in range(runs)]
