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

Averaging runs synchronous consensus rounds on one packed buffer that holds
all four information quantities, one (n, k) slice per realization.  After
the batch, a standard information-form prediction advances both states.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass

import numpy as np

from ._linalg import _matvec, spd_inv, spd_solve, sym
from .consensus import ConsensusMatrix, SensorNetwork, consensus_rounds
from .geometry import clamp_extent
from .info_filter import InformationState, correct, from_moments, predict, to_moments
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
    "fuse_nodes",
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
    """Models shared by every node: noises, transitions, and the axis floor."""

    ch: np.ndarray
    cv_by_node: tuple[np.ndarray, ...]
    fx: np.ndarray
    fp: np.ndarray
    wwx: np.ndarray
    wwp: np.ndarray
    min_axis: float = 1e-3


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
        fp=np.eye(3),
        wwx=spd_inv(np.asarray(config.cxw, dtype=float), name="kinematic process covariance"),
        wwp=spd_inv(np.asarray(config.cpw, dtype=float), name="extent process covariance"),
    )


def initial_states(x0, cx0, p0, cp0, nodes: int = 1, min_axis: float = 1e-3):
    """Stacked (kinematic, extent) information states with the same prior on
    each of `nodes` rows, the extent mean sanitized.  Priors with a leading
    realization axis, x0 (R, d) and cx0 (R, d, d), give (R, nodes, ...) states."""
    def stacked(a, entry_dims):
        a = np.asarray(a, dtype=float)
        axis = a.ndim - entry_dims
        return np.repeat(np.expand_dims(a, axis), nodes, axis=axis)

    kin = from_moments(stacked(x0, 1), stacked(cx0, 2))
    return kin, _sanitize_extent(from_moments(stacked(p0, 1), stacked(cp0, 2)), min_axis)


def _rows(info: InformationState, rows) -> InformationState:
    """The given rows of a stacked state, indexed on its flattened stack axes."""
    d = info.dim
    return InformationState(info.q.reshape(-1, d)[rows], info.omega.reshape(-1, d, d)[rows])


def _sanitize_extent(ext: InformationState, min_axis: float, rows=None) -> InformationState:
    """Re-anchor the extent mean of the given rows (flat indices into the
    stacked rows; default: all) after a write: wrap the orientation into
    (-pi, pi] and clamp semi-axes to the floor.  Returns ext itself while
    every row checked is already in range, so the information state is
    normally left untouched."""
    rows = np.arange(ext.q.size // 3) if rows is None else np.asarray(rows)
    sub = _rows(ext, rows)
    p = spd_solve(sub.omega, sub.q, name="extent information matrix")
    in_range = (-np.pi < p[:, 0]) & (p[:, 0] <= np.pi) & (p[:, 1:] >= min_axis).all(axis=1)
    if in_range.all():
        return ext
    q = ext.q.reshape(-1, 3).copy()
    q[rows[~in_range]] = _matvec(sub.omega[~in_range], clamp_extent(p[~in_range], min_axis))
    return InformationState(q=q.reshape(ext.q.shape), omega=ext.omega)


def _average(arrays, pi, rounds: int) -> list[np.ndarray]:
    """Consensus-average stacked per-node arrays in one call on a packed
    (..., n, k) buffer.  arrays[0] is an information vector stack (..., n, d),
    which fixes the leading (..., n) axes the others share; averaging is
    linear column by column, so packing changes only rounding."""
    lead = arrays[0].shape[:-1]
    packed = consensus_rounds(np.concatenate([a.reshape(*lead, -1) for a in arrays], axis=-1),
                              pi, rounds)
    cuts = np.cumsum([a[(0,) * len(lead)].size for a in arrays])[:-1]
    return [part.reshape(a.shape) for part, a in zip(np.split(packed, cuts, axis=-1), arrays)]


def _correct_rows(kin, ext, innov, weight: float, min_axis: float, rows=None):
    """Add the stacked innovations (dqx, dox, dqp, dop) with a weight, then
    sanitize the extent rows that changed (flat indices; default: all)."""
    dqx, dox, dqp, dop = innov
    ext = _sanitize_extent(correct(ext, dqp, dop, weight), min_axis, rows)
    return correct(kin, dqx, dox, weight), ext


def correct_scan(
    kin: InformationState,
    ext: InformationState,
    batches,
    params: TrackerParams,
    config: FilterConfig,
    pi: ConsensusMatrix | np.ndarray | None = None,
    trace=None,
) -> tuple[InformationState, InformationState]:
    """Sequential correction of the stacked node states over one scan.

    The states are (n, d) node stacks with batches[j] holding sensor j's
    detections, or (R, n, d) stacks of R realizations with batches[r][j]
    holding realization r's.  Sensor j's noise is params.cv_by_node[j] and
    its innovations go into state row 0 under CEOT and into row j, the
    sensor's own node, under CI and CM.  At each index the sensors that still
    have detections contribute, all realizations linearized in one stacked
    call; shorter batches simply stop, and a realization whose longest batch
    has ended takes no further correction or averaging.  Realizations never
    mix.  The distributed filters need the consensus matrix pi and run
    config.consensus_iters averaging rounds per index.  A trace records the
    observed Rx spectra.
    """
    if kin.q.ndim == 2:
        lifted = (InformationState(s.q[None], s.omega[None]) for s in (kin, ext))
        kin, ext = correct_scan(*lifted, [batches], params, config, pi, trace)
        return InformationState(kin.q[0], kin.omega[0]), InformationState(ext.q[0], ext.omega[0])
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
    rounds, min_axis = config.consensus_iters, params.min_axis
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

    states = [kin.q.copy(), kin.omega.copy(), ext.q.copy(), ext.omega.copy()]
    for i in range(ends.max(initial=0)):
        live = np.flatnonzero(ends > i)
        at_i = order[bounds[i]:bounds[i + 1]]
        sensor = det_sensor[at_i]
        # Flat row of each detection in the stack of live realizations.
        det_rows = np.searchsorted(live, det_run[at_i]) * nodes + rows[sensor]
        kin_i = InformationState(states[0][live], states[1][live])
        ext_i = InformationState(states[2][live], states[3][live])
        lin_rows, at = np.unique(det_rows, return_inverse=True)
        x, cx = to_moments(_rows(kin_i, lin_rows))
        p, cp = to_moments(_rows(ext_i, lin_rows))
        innov = [np.zeros_like(a) for a in (kin_i.q, kin_i.omega, ext_i.q, ext_i.omega)]
        # np.add.at sums detections that share a row; CEOT maps all to row 0.
        for acc, value in zip(innov, innovations(x[at], cx[at], p[at], cp[at], y_all[at_i],
                                                 params.ch, cv[sensor], min_axis, trace)):
            np.add.at(acc.reshape(-1, *acc.shape[2:]), det_rows, value)
        # The filters differ only here, in how the network combines the rows.
        if config.kind is FilterKind.CM:
            kin_i, ext_i = _correct_rows(kin_i, ext_i, _average(innov, pi, rounds), omega,
                                         min_axis)
        elif config.kind is FilterKind.CI:
            kin_i, ext_i = _correct_rows(kin_i, ext_i, innov, 1.0, min_axis, lin_rows)
            qx, ox, qp, op = _average([kin_i.q, kin_i.omega, ext_i.q, ext_i.omega], pi, rounds)
            kin_i = InformationState(qx, ox)
            ext_i = _sanitize_extent(InformationState(qp, op), min_axis)
        else:
            kin_i, ext_i = _correct_rows(kin_i, ext_i, innov, 1.0, min_axis, lin_rows)
        for state, value in zip(states, (kin_i.q, kin_i.omega, ext_i.q, ext_i.omega)):
            state[live] = value
    return InformationState(*states[:2]), InformationState(*states[2:])


def predict_states(kin: InformationState, ext: InformationState, params: TrackerParams):
    """Information-form prediction of the stacked states to the next scan."""
    return (predict(kin, params.fx, params.wwx),
            _sanitize_extent(predict(ext, params.fp, params.wwp), params.min_axis))


@dataclass(frozen=True)
class TrackRecord:
    """Per-step, per-node moment outputs of one tracked run.

    The centralized filter records a single pseudo-node.  Outputs are taken
    after the scan's correction, before the prediction to the next scan.
    step_seconds holds each step's wall time divided by the number of runs
    the step advanced together.
    """

    kind: FilterKind
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
    pi: ConsensusMatrix | np.ndarray | None = None,
    trace=None,
) -> list[TrackRecord]:
    """Drive one filter over realized runs of one scenario config, all of
    them stacked in one pass, and return one TrackRecord per run.

    Each run's record equals the one a pass over that run alone gives; a
    step's wall time is split evenly over the runs it advanced.  For the
    distributed filters a consensus matrix is required.  An optional trace
    object (record_rx / record_omega) collects observed noise and
    information-matrix spectra of every run for the stability assumption
    checks.
    """
    scn_runs = list(scn_runs)
    if not scn_runs:
        raise ValueError("run_filter needs at least one scenario run")
    runs, steps = len(scn_runs), len(scn_runs[0].measurements)
    if any(len(scn.measurements) != steps for scn in scn_runs):
        raise ValueError("stacked scenario runs must have the same number of steps")
    x_dim = scn_runs[0].x0.size
    nodes = 1 if config.kind is FilterKind.CEOT else net.size
    kin, ext = initial_states(*(np.stack([getattr(scn, name) for scn in scn_runs])
                                for name in ("x0", "cx0", "p0", "cp0")),
                              nodes, params.min_axis)

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

    return [TrackRecord(kind=config.kind, x_mean=x_mean[r], x_cov=x_cov[r], p_mean=p_mean[r],
                        p_cov=p_cov[r], step_seconds=seconds) for r in range(runs)]


def fuse_nodes(means: np.ndarray, covs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Information-weighted fusion of per-node estimates into one summary
    (sum of information matrices against the sum of information vectors)."""
    omegas = [spd_inv(c, name="node covariance") for c in covs]
    total = sym(sum(omegas))
    q = sum(om @ m for om, m in zip(omegas, means))
    cov = spd_inv(total, name="fused information")
    return cov @ q, cov
