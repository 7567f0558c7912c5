"""Sequential extended-object trackers: centralized and two consensus variants.

All three filters run one loop over stacked node states: the kinematic and
the extent information states carry a leading node axis, with one row for the
centralized filter and one per network node for the distributed ones.  At
measurement index i, every row holding a detection is linearized at its index
i-1 estimates (the extent update consumes the previous kinematic estimate and
vice versa), and each detection's innovation pair is added into its sensor's
row.  The filters differ only in how the network combines those rows:

- CEOT maps every sensor to row 0, so the centre sums their innovations;
- CI corrects each sensor row locally, then averages the posteriors;
- CM averages the innovations, then corrects every row with the weight omega.

Averaging runs synchronous consensus rounds on one packed buffer that holds
all four information quantities.  After the batch, a standard
information-form prediction advances both states.
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
    each of `nodes` rows, the extent mean sanitized."""
    def stacked(a):
        return np.repeat(np.asarray(a, dtype=float)[None], nodes, axis=0)

    kin = from_moments(stacked(x0), stacked(cx0))
    return kin, _sanitize_extent(from_moments(stacked(p0), stacked(cp0)), min_axis)


def _sanitize_extent(ext: InformationState, min_axis: float, rows=None) -> InformationState:
    """Re-anchor the extent mean of the given rows (default: all) after a
    write: wrap the orientation into (-pi, pi] and clamp semi-axes to the
    floor.  Returns ext itself while every row checked is already in range,
    so the information state is normally left untouched."""
    rows = np.arange(ext.q.shape[0]) if rows is None else np.asarray(rows)
    p = spd_solve(ext.omega[rows], ext.q[rows], name="extent information matrix")
    in_range = (-np.pi < p[:, 0]) & (p[:, 0] <= np.pi) & (p[:, 1:] >= min_axis).all(axis=1)
    if in_range.all():
        return ext
    bad = rows[~in_range]
    q = ext.q.copy()
    q[bad] = _matvec(ext.omega[bad], clamp_extent(p[~in_range], min_axis))
    return InformationState(q=q, omega=ext.omega)


def _average(arrays, pi, rounds: int) -> list[np.ndarray]:
    """Consensus-average per-node arrays (leading node axis) in one call on a
    packed (n, k) buffer; averaging is linear column by column, so packing
    changes only rounding."""
    n = arrays[0].shape[0]
    packed = consensus_rounds(np.concatenate([a.reshape(n, -1) for a in arrays], axis=1),
                              pi, rounds)
    cuts = np.cumsum([a[0].size for a in arrays])[:-1]
    return [part.reshape(a.shape) for part, a in zip(np.split(packed, cuts, axis=1), arrays)]


def _correct_rows(kin, ext, innov, weight: float, min_axis: float, rows=None):
    """Add the stacked innovations (dqx, dox, dqp, dop) with a weight, then
    sanitize the extent rows that changed (default: all)."""
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

    batches[j] holds sensor j's detections; its noise is params.cv_by_node[j]
    and its innovations go into state row 0 under CEOT and into row j, the
    sensor's own node, under CI and CM.  At each index the sensors that still
    have detections contribute, all linearized in one stacked call; shorter
    batches simply stop.  The distributed filters need the consensus matrix pi
    and run config.consensus_iters averaging rounds per index.  A trace records
    the observed Rx spectra.
    """
    if config.kind is FilterKind.CEOT:
        rows = np.zeros(len(batches), dtype=int)
    elif pi is None:
        raise ValueError("distributed filters need a consensus matrix")
    elif len(batches) != kin.q.shape[0]:
        raise ValueError("distributed filters need one batch per node")
    else:
        rows = np.arange(len(batches))
    rounds, min_axis = config.consensus_iters, params.min_axis
    omega = config.omega if config.omega is not None else float(kin.q.shape[0])
    cv = np.asarray(params.cv_by_node, dtype=float)
    for i in range(max((len(b) for b in batches), default=0)):
        active = np.array([j for j, batch in enumerate(batches) if i < len(batch)])
        det_rows = rows[active]
        lin_rows, at = np.unique(det_rows, return_inverse=True)
        x, cx = to_moments(InformationState(kin.q[lin_rows], kin.omega[lin_rows]))
        p, cp = to_moments(InformationState(ext.q[lin_rows], ext.omega[lin_rows]))
        y = np.array([batches[j][i] for j in active])
        innov = [np.zeros_like(a) for a in (kin.q, kin.omega, ext.q, ext.omega)]
        # np.add.at sums detections that share a row; CEOT maps all to row 0.
        for acc, value in zip(innov, innovations(x[at], cx[at], p[at], cp[at], y, params.ch,
                                                 cv[active], min_axis, trace)):
            np.add.at(acc, det_rows, value)
        # The filters differ only here, in how the network combines the rows.
        if config.kind is FilterKind.CM:
            kin, ext = _correct_rows(kin, ext, _average(innov, pi, rounds), omega, min_axis)
        elif config.kind is FilterKind.CI:
            kin, ext = _correct_rows(kin, ext, innov, 1.0, min_axis, lin_rows)
            qx, ox, qp, op = _average([kin.q, kin.omega, ext.q, ext.omega], pi, rounds)
            kin = InformationState(qx, ox)
            ext = _sanitize_extent(InformationState(qp, op), min_axis)
        else:
            kin, ext = _correct_rows(kin, ext, innov, 1.0, min_axis, lin_rows)
    return kin, ext


def predict_states(kin: InformationState, ext: InformationState, params: TrackerParams):
    """Information-form prediction of the stacked states to the next scan."""
    return (predict(kin, params.fx, params.wwx),
            _sanitize_extent(predict(ext, params.fp, params.wwp), params.min_axis))


@dataclass(frozen=True)
class TrackRecord:
    """Per-step, per-node moment outputs of one tracked run.

    The centralized filter records a single pseudo-node.  Outputs are taken
    after the scan's correction, before the prediction to the next scan.
    """

    kind: FilterKind
    x_mean: np.ndarray  # (steps, nodes, x_dim)
    x_cov: np.ndarray  # (steps, nodes, x_dim, x_dim)
    p_mean: np.ndarray  # (steps, nodes, 3)
    p_cov: np.ndarray  # (steps, nodes, 3, 3)
    step_seconds: np.ndarray  # (steps,)

    @property
    def steps(self) -> int:
        return self.x_mean.shape[0]

    @property
    def nodes(self) -> int:
        return self.x_mean.shape[1]


def run_filter(
    scn_run,
    net: SensorNetwork,
    params: TrackerParams,
    config: FilterConfig,
    pi: ConsensusMatrix | np.ndarray | None = None,
    trace=None,
) -> TrackRecord:
    """Drive one filter over a realized scenario run.

    For the distributed filters a consensus matrix is required.  An optional
    trace object (record_rx / record_omega) collects observed noise and
    information-matrix spectra for the stability assumption checks.
    """
    steps = len(scn_run.measurements)
    x_dim = scn_run.x0.size
    nodes = 1 if config.kind is FilterKind.CEOT else net.size
    kin, ext = initial_states(scn_run.x0, scn_run.cx0, scn_run.p0, scn_run.cp0, nodes,
                              params.min_axis)

    x_mean = np.zeros((steps, nodes, x_dim))
    x_cov = np.zeros((steps, nodes, x_dim, x_dim))
    p_mean = np.zeros((steps, nodes, 3))
    p_cov = np.zeros((steps, nodes, 3, 3))
    seconds = np.zeros(steps)

    for k, batches in enumerate(scn_run.measurements):
        t0 = time.perf_counter()
        kin, ext = correct_scan(kin, ext, batches, params, config, pi, trace)
        x_mean[k], x_cov[k] = to_moments(kin)
        p_mean[k], p_cov[k] = to_moments(ext)
        if trace is not None:
            trace.record_omega(kin.omega)
        if k + 1 < steps:
            kin, ext = predict_states(kin, ext, params)
        seconds[k] = time.perf_counter() - t0

    return TrackRecord(
        kind=config.kind,
        x_mean=x_mean,
        x_cov=x_cov,
        p_mean=p_mean,
        p_cov=p_cov,
        step_seconds=seconds,
    )


def fuse_nodes(means: np.ndarray, covs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Information-weighted fusion of per-node estimates into one summary
    (sum of information matrices against the sum of information vectors)."""
    omegas = [spd_inv(c, name="node covariance") for c in covs]
    total = sym(sum(omegas))
    q = sum(om @ m for om, m in zip(omegas, means))
    cov = spd_inv(total, name="fused information")
    return cov @ q, cov
