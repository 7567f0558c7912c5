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
[qx, Ωx, qp, Ωp] per node, and correction, symmetrization and the consensus
rounds act on all four information quantities at once.  The scan owns the
extent range check: one checked inverse per row, of the scan's starting rows
and after each write, gives the verdict, the next index's extent
linearization point and the record.  Then a prediction advances both states.
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


# The largest measurement-consensus weight: omega = |G| compensates the
# averaging over a network of |G| nodes, and far larger weights only overflow.
MAX_OMEGA = 1e6


@dataclass(frozen=True)
class FilterConfig:
    """Which filter to run and its consensus settings.

    omega None means the node-count compensation |G|, which makes the
    measurement-consensus filter match the centralized filter exactly when
    averaging is complete; a given omega is a number in [0, MAX_OMEGA].
    """

    kind: FilterKind
    consensus_iters: int = 1
    omega: float | None = None

    def __post_init__(self):
        if self.kind is not FilterKind.CEOT and self.consensus_iters < 1:
            raise ValueError("distributed filters need at least one consensus iteration")
        if self.omega is not None and not 0.0 <= self.omega <= MAX_OMEGA:
            raise ValueError(f"omega must be 'G' or a number in [0, {MAX_OMEGA:g}], "
                             f"got {self.omega}")


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
    each of `nodes` rows.  Priors with a leading realization axis, x0 (R, d)
    and cx0 (R, d, d), give (R, nodes, ...) states.  The extent mean is left
    as given: a scan re-anchors it if out of range before linearizing it."""
    def stacked(a, entry_dims):
        a = np.asarray(a, dtype=float)
        axis = a.ndim - entry_dims
        return np.repeat(np.expand_dims(a, axis), nodes, axis=axis)

    return (from_moments(stacked(x0, 1), stacked(cx0, 2)),
            from_moments(stacked(p0, 1), stacked(cp0, 2)))


def _in_range(p: np.ndarray) -> np.ndarray:
    """Which extent means (..., 3) lie in (-pi, pi] x [MIN_AXIS, inf)^2."""
    return (-np.pi < p[..., 0]) & (p[..., 0] <= np.pi) & (p[..., 1:] >= MIN_AXIS).all(axis=-1)


def _sanitize_extent(q: np.ndarray, omega: np.ndarray, rows: np.ndarray) -> None:
    """Re-anchor, in place, each row of q (..., 3) flagged by the boolean mask
    rows whose mean, solved from omega (..., 3, 3), is out of range: wrap its
    orientation into (-pi, pi] and clamp its semi-axes to the floor."""
    at = np.nonzero(rows)
    p = spd_solve(omega[at], q[at], name="extent information matrix")
    bad = ~_in_range(p)
    at = tuple(i[bad] for i in at)
    q[at] = _matvec(omega[at], clamp_extent(p[bad]))


def _extent_moments(q: np.ndarray, omega: np.ndarray, at=None):
    """to_moments (p, Cp) of the extent rows q (..., 3) and omega (..., 3, 3),
    views into a stack, from one checked inverse per row.  A row whose p is
    out of range is re-anchored in place by _sanitize_extent first, and its p
    taken again.  A failing row is named as spd_inv names it, by at if given."""
    cp = spd_inv(omega, name="extent information matrix", at=at)
    p = _matvec(cp, q)
    bad = ~_in_range(p)
    if bad.any():
        _sanitize_extent(q, omega, bad)
        p[bad] = _matvec(cp[bad], q[bad])
    return p, cp


def _pack(kin: InformationState, ext: InformationState) -> np.ndarray:
    """One packed row [qx, Ωx, qp, Ωp] per stacked (realization, node)."""
    lead = kin.q.shape[:-1]
    return np.concatenate([kin.q, kin.omega.reshape(*lead, -1), ext.q,
                           ext.omega.reshape(*lead, -1)], axis=-1)


def _unpack(packed: np.ndarray, d: int) -> tuple[InformationState, InformationState]:
    """The (kinematic, extent) states of packed rows, as copies."""
    lead, e = packed.shape[:-1], d + d * d
    return (InformationState(packed[..., :d].copy(), packed[..., d:e].reshape(*lead, d, d).copy()),
            InformationState(packed[..., e:e + 3].copy(),
                             packed[..., e + 3:].reshape(*lead, 3, 3).copy()))


def _mirror(d: int) -> np.ndarray:
    """Column of each packed entry's transpose: itself for a vector entry,
    the entry across the diagonal for a matrix entry."""
    def t(size):
        return np.arange(size * size).reshape(size, size).T.ravel()

    return np.concatenate([np.arange(d), d + t(d), d + d * d + np.arange(3), d + d * d + 3 + t(3)])


def correct_scan(
    kin: InformationState,
    ext: InformationState,
    y,
    counts,
    params: TrackerParams,
    config: FilterConfig,
    pi: ConsensusMatrix | None = None,
    trace=None,
) -> tuple[InformationState, InformationState]:
    """Sequential correction of the stacked node states over one scan.

    The states are (R, n, d) node stacks of R realizations.  The scan's
    detections y (M, 2) come in (realization, sensor, index) order, and
    counts[r, j] of them are sensor j's batch in realization r.  Sensor j's
    noise is params.cv_by_node[j] and its innovations go into state row 0
    under CEOT and into row j, the sensor's own node, under CI and CM.  At
    each index the sensors that still have detections contribute, all
    realizations linearized in one stacked call; shorter batches simply
    stop, and a realization whose longest batch has ended takes no further
    correction or averaging.  Realizations never mix.  The distributed filters need the
    consensus matrix pi and run config.consensus_iters averaging rounds per
    index.  A trace records the observed Rx spectra and the Rp floor hits.
    """
    return _correct_scan(kin, ext, y, counts, params, config, pi, trace)[:2]


def _correct_scan(kin, ext, y, counts, params, config, pi=None, trace=None):
    """correct_scan, plus the moments (p, Cp) of every extent row it leaves."""
    if kin.q.ndim != 3:
        raise ValueError(f"correct_scan needs (R, n, d) states, got shape {kin.q.shape}")
    runs, nodes = kin.q.shape[:2]
    counts, y_all = np.asarray(counts), np.reshape(y, (-1, 2))
    if counts.ndim != 2 or counts.shape[0] != runs or len(y_all) != counts.sum():
        raise ValueError(f"got {len(y_all)} detections in {counts.shape} batch counts for "
                         f"{runs} stacked realizations")
    sensors, sizes = counts.shape[1], counts.ravel()
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

    # Every detection of the scan with its realization, sensor and index,
    # sorted once by index in (realization, sensor) order: index i's are the
    # slice bounds[i]:bounds[i + 1] of each column.  The scan reorders the
    # realizations longest first, so at every index the live ones are a
    # leading slice of the rows; realizations never mix, so no bit moves.
    ends = counts.max(axis=1, initial=0)
    by_end = np.argsort(-ends, kind="stable")
    rank = np.argsort(by_end)
    det_index = np.arange(len(y_all)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    order = np.argsort(det_index, kind="stable")
    bounds = np.searchsorted(det_index[order], np.arange(ends.max(initial=0) + 1))
    det_run, det_sensor = (np.repeat(a.ravel(), sizes)[order] for a in np.indices((runs, sensors)))
    y_all, cv_all, det_node = y_all[order], cv[det_sensor], rows[det_sensor]
    det_flat = rank[det_run] * nodes + det_node  # flat row of each detection's row
    det_at = np.column_stack([det_run, det_node])  # its (realization, node)
    grid = np.stack(np.indices((runs, nodes)), axis=-1)[by_end]  # (realization, node) of a row

    d = kin.dim
    e = d + d * d  # first extent column of a packed row

    def extent(rows):  # the extent (qp, Ωp) of packed rows; qp is a view
        return rows[..., e:e + 3], rows[..., e + 3:].reshape(*rows.shape[:-1], 3, 3)

    state = _pack(kin, ext)[by_end]
    width, mirror = state.shape[-1], _mirror(d)
    # Every extent row is range-checked before it is first linearized.
    p_all, cp_all = _extent_moments(*extent(state), grid)
    for i in range(ends.max(initial=0)):
        at_i, live = slice(bounds[i], bounds[i + 1]), slice(0, np.count_nonzero(ends > i))
        # Under CI and CM the detections' rows are distinct.  Under CEOT every
        # live realization has a detection at i, and its detections share its row.
        det_rows, rows_i = det_flat[at_i], state[live].reshape(-1, width)
        lin, at, lin_at = ((slice(None), det_rows, grid[live]) if config.kind is FilterKind.CEOT
                           else (det_rows, ..., det_at[at_i]))
        lin_rows = rows_i[lin]
        cx = spd_inv(lin_rows[:, d:e].reshape(-1, d, d), name="information matrix", at=lin_at)
        x = _matvec(cx, lin_rows[:, :d])
        packed = innovations(x[at], cx[at], p_all.reshape(-1, 3)[det_rows],
                             cp_all.reshape(-1, 3, 3)[det_rows], y_all[at_i], params.ch,
                             cv_all[at_i], trace)
        delta = np.zeros(rows_i.shape)
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
        rows_i = 0.5 * (rows_i + rows_i.take(mirror, axis=1))
        if config.kind is FilterKind.CI:
            checked = rows_i[lin]
            _extent_moments(*extent(checked), lin_at)
            rows_i[lin] = checked
            rows_i = consensus_rounds(rows_i.reshape(-1, nodes, width), pi, rounds)
            rows_i = rows_i.reshape(-1, width)
        # One checked inverse per write gives the next index its extent moments.
        p_i, cp_i = _extent_moments(*extent(rows_i), grid[live])
        state[live] = rows_i.reshape(-1, nodes, width)
        p_all[live], cp_all[live] = p_i.reshape(-1, nodes, 3), cp_i.reshape(-1, nodes, 3, 3)
    return (*_unpack(state[rank], d), (p_all[rank], cp_all[rank]))


def predict_states(kin: InformationState, ext: InformationState, params: TrackerParams):
    """Information-form prediction of the stacked states to the next scan."""
    return predict(kin, params.fx, params.wwx), predict(ext, np.eye(3), params.wwp)


@dataclass(frozen=True)
class TrackRecord:
    """Per-run, per-step, per-node moment outputs of one stacked filter pass.

    The centralized filter records a single pseudo-node.  Outputs are taken
    after the scan's correction, before the prediction to the next scan.
    step_seconds holds each step's wall time divided by the number of runs
    the step advanced together.
    """

    x_mean: np.ndarray  # (runs, steps, nodes, x_dim)
    x_cov: np.ndarray  # (runs, steps, nodes, x_dim, x_dim)
    p_mean: np.ndarray  # (runs, steps, nodes, 3)
    p_cov: np.ndarray  # (runs, steps, nodes, 3, 3)
    step_seconds: np.ndarray  # (steps,), amortized over the stacked runs

    @property
    def runs(self) -> int:
        return self.x_mean.shape[0]

    @property
    def steps(self) -> int:
        return self.x_mean.shape[1]

    @property
    def nodes(self) -> int:
        return self.x_mean.shape[2]


def run_filter(
    scn_runs,
    net: SensorNetwork,
    params: TrackerParams,
    config: FilterConfig,
    pi: ConsensusMatrix | None = None,
    trace=None,
) -> TrackRecord:
    """Drive one filter over realized runs of one scenario config, all of
    them stacked in one pass, and return their TrackRecord, whose leading
    axis follows scn_runs.

    Each run's slice equals the record a pass over that run alone gives; a
    step's wall time is split evenly over the runs it advanced.  The
    distributed filters require a consensus matrix of the network's size,
    weighting only its edges and diagonal.  A non-finite detection fails
    before any filtering, naming its run (its position in scn_runs), step
    and sensor.  An optional trace object (record_rx, record_rp_floor,
    record_omega) collects observed noise and information-matrix spectra and
    Rp floor hits of every run for the stability assumption checks.
    """
    scn_runs = list(scn_runs)
    if not scn_runs:
        raise ValueError("run_filter needs at least one scenario run")
    if len({scn.counts.shape for scn in scn_runs}) > 1:
        raise ValueError("stacked scenario runs must have the same number of steps and nodes")
    counts = np.stack([scn.counts for scn in scn_runs])  # (runs, steps, sensors)
    runs, steps = counts.shape[:2]
    per_scan = counts.sum(axis=2)  # (runs, steps)
    if [len(scn.detections) for scn in scn_runs] != per_scan.sum(axis=1).tolist():
        raise ValueError("every run's detections must match its count table")
    # The batch's detections, (run, step, sensor, index) ordered, checked at once.
    y = np.concatenate([np.zeros((0, 2)), *(scn.detections for scn in scn_runs)])
    bad = ~np.isfinite(y).all(axis=1)
    if bad.any():
        first = np.searchsorted(np.cumsum(counts), np.argmax(bad), side="right")
        r, k, j = np.unravel_index(first, counts.shape)
        raise ValueError(f"detections of run {r}, step {k}, sensor {j} must be finite")
    # One gather, a stable sort by step, into (step, run, sensor, index) order:
    # scan k is the slice y[bounds[k]:bounds[k + 1]], its batches counted by counts[:, k].
    y = y[np.argsort(np.repeat(np.tile(np.arange(steps), runs), per_scan.ravel()), kind="stable")]
    bounds = np.concatenate([[0], np.cumsum(per_scan.sum(axis=0))])

    x_dim = scn_runs[0].x0.size
    nodes = 1 if config.kind is FilterKind.CEOT else net.size
    if nodes > 1 and pi is not None:
        if pi.size != nodes:
            raise ValueError(f"a {pi.size}-node consensus matrix does not fit a {nodes}-node "
                             "network")
        off_edge = np.argwhere((pi.pi != 0.0) & ~net.adjacency & ~np.eye(nodes, dtype=bool))
        if off_edge.size:
            raise ValueError("consensus weight pi[{0}, {1}] is nonzero, but nodes {0} and {1} "
                             "share no network edge".format(*off_edge[0]))
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
        kin, ext, (p_mean[:, k], p_cov[:, k]) = _correct_scan(
            kin, ext, y[bounds[k]:bounds[k + 1]], counts[:, k], params, config, pi, trace)
        x_mean[:, k], x_cov[:, k] = to_moments(kin)
        if trace is not None:
            trace.record_omega(kin.omega)
        if k + 1 < steps:
            kin, ext = predict_states(kin, ext, params)
        seconds[k] = (time.perf_counter() - t0) / runs

    return TrackRecord(x_mean=x_mean, x_cov=x_cov, p_mean=p_mean, p_cov=p_cov,
                       step_seconds=seconds)
