"""Sequential extended-object trackers: centralized and two consensus variants.

All three filters run one loop over packed node rows (R, n, k), one row
[qx, Ωx, qp, Ωp] in info_filter's layout per node (one for the centralized
filter, one per network node for the distributed ones) of each of R Monte
Carlo realizations in lock-step.  At measurement index i, every row holding
a detection is linearized at its index i-1 estimates (the extent update
consumes the previous kinematic estimate and vice versa): its extent moments
and its position marginal (q_p - a, Ω_pp - B), whose offsets come once per
scan from the velocity blocks no correction touches.  The filters differ
only in how the network combines the detections' innovation rows:

- CEOT maps every sensor to row 0, so the centre sums their innovations;
- CI corrects each sensor row locally, then averages the posteriors;
- CM averages the innovations, then corrects every row with the weight omega.

Each write acts on all four quantities at once and leaves every matrix
exactly symmetric.  The scan owns the extent range check: one checked
inverse per row, of the scan's starting rows and after each write, gives
the verdict, the next index's extent linearization point and the record.
run_filter carries the rows from the prior to the last scan and, between
scans, writes the prediction from the moments it has just recorded.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from ._linalg import _closed_form, _cofactor_pass, _first_slice, _matvec, _schur_offsets, spd_solve
from .consensus import ConsensusMatrix, SensorNetwork
from .geometry import MIN_AXIS, clamp_extent
from .info_filter import _columns, _rows, from_moments, predict, to_moments
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

    consensus_iters is an integer, not a bool.  omega None means the node
    count |G|, which makes CM match CEOT exactly under complete averaging;
    else omega is in [0, MAX_OMEGA].
    """

    kind: FilterKind
    consensus_iters: int = 1
    omega: float | None = None

    def __post_init__(self):
        iters = self.consensus_iters
        if isinstance(iters, bool) or not isinstance(iters, (int, np.integer)):
            raise ValueError(f"consensus_iters must be an integer, got {iters!r}")
        if self.kind is not FilterKind.CEOT and iters < 1:
            raise ValueError("distributed filters need at least one consensus iteration")
        if self.omega is not None and not 0.0 <= self.omega <= MAX_OMEGA:
            raise ValueError(f"omega must be 'G' or a number in [0, {MAX_OMEGA:g}], "
                             f"got {self.omega}")


@dataclass(frozen=True)
class TrackerParams:
    """Models shared by every node: noises, the kinematic transition and the
    process covariances cxw and cpw; the extent transition is the identity."""

    ch: np.ndarray
    cv_by_node: tuple[np.ndarray, ...]
    fx: np.ndarray
    cxw: np.ndarray
    cpw: np.ndarray

    # The sensor noises as one (n, 2, 2) array, built on first use.
    cv_stack = cached_property(lambda self: np.asarray(self.cv_by_node, dtype=float))


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
        cxw=np.asarray(config.cxw, dtype=float),
        cpw=np.asarray(config.cpw, dtype=float),
    )


def initial_states(x0, cx0, p0, cp0, nodes: int = 1) -> np.ndarray:
    """Packed rows [qx, Ωx, qp, Ωp] with the same prior on each of `nodes`
    rows.  Priors with a leading realization axis, x0 (R, d) and cx0
    (R, d, d), give (R, nodes, k) rows.  Each prior is inverted once, as the
    stack (R, 1, d, d), so a singular one is named (run r, node 0).  The
    extent mean is left as given: a scan re-anchors it if out of range
    before linearizing it."""
    x0 = np.asarray(x0, dtype=float)
    state, (qx, ox, qp, op) = _rows((*x0.shape[:-1], nodes), x0.shape[-1])
    for q, omega, mean, cov in ((qx, ox, x0, cx0), (qp, op, p0, cp0)):
        q[...], omega[...] = from_moments(np.expand_dims(mean, -2), np.expand_dims(cov, -3))
    return state


@cache
def _mirror(width: int) -> np.ndarray:
    """The column of each packed entry's transpose, for rows of this width."""
    return np.concatenate([block.T.ravel() for block in _columns(np.arange(width))])


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
    """to_moments (p, Cp) of the extent rows q (..., 3) and exactly symmetric
    omega (..., 3, 3), views into a stack, from one checked inverse per row.
    A row whose p is out of range is re-anchored in place by _sanitize_extent
    first, and its p taken again.  A failing row is named by at if given."""
    cp = _closed_form(_cofactor_pass, omega, "extent information matrix", at)[0]
    p = _matvec(cp, q)
    bad = ~_in_range(p)
    if bad.any():
        _sanitize_extent(q, omega, bad)
        p[bad] = _matvec(cp[bad], q[bad])
    return p, cp


def _marginal_offsets(rows: np.ndarray, at) -> np.ndarray:
    """The offsets [a, B], (m, 6), of the position marginals of packed rows
    (m, k) with d = 4, [q_p - a, Ω_pp - B], by _schur_offsets; a failing Ω_vv
    is named information matrix by its row of at."""
    qx, ox = _columns(rows)[:2]
    a, b, _ = _schur_offsets(qx[:, 2:], ox[:, :2, 2:], ox[:, 2:, 2:], "information matrix", at)
    return np.concatenate([a, b.reshape(-1, 4)], axis=1)


def correct_scan(state: np.ndarray, y, counts, params: TrackerParams, config: FilterConfig,
                 pi: ConsensusMatrix | None = None, trace=None):
    """Sequential correction, in place, of the packed node rows over one scan.

    The state is (R, n, k): one packed row [qx, Ωx, qp, Ωp] per node of each
    of R realizations, with a kinematic state of position (d = 2) or of
    position and velocity (d = 4).  The detections y (M, 2) come in
    (realization, sensor, index) order, counts[r, j] of them, a non-negative
    integer, in sensor j's batch of realization r.  Sensor j's noise is
    params.cv_by_node[j]; its innovations go into row 0 under CEOT and into
    its own node's row j under CI and CM.  At each index the sensors with a
    detection left contribute, all realizations in one stacked call; a
    realization whose batches have all ended takes no further correction or
    averaging, and realizations never mix.  CI and CM need the consensus
    matrix pi: config.consensus_iters rounds are one product with its power.
    A failing Rx or Rp is named (run r, node j) by its detection's
    realization and sensor, and a non-finite information vector or failing
    kinematic information matrix by its row's.  A trace records the Rx
    spectra and the Rp floor hits.  Returns the moments (p, Cp), (R, n, 3)
    and (R, n, 3, 3), of every extent row it leaves.
    """
    if state.ndim != 3:
        raise ValueError(f"correct_scan needs (R, n, k) rows, got shape {state.shape}")
    runs, nodes = state.shape[:2]
    counts, y_all = np.asarray(counts), np.reshape(y, (-1, 2))
    if counts.ndim != 2 or counts.shape[0] != runs or len(y_all) != counts.sum():
        raise ValueError(f"got {len(y_all)} detections in {counts.shape} batch counts for "
                         f"{runs} stacked realizations")
    bad = (counts < 0) | (counts.dtype.kind not in "iu")
    if bad.any():
        r, j = np.unravel_index(np.argmax(bad), counts.shape)
        raise ValueError(f"batch count of run {r}, sensor {j} must be a non-negative integer, "
                         f"got {counts[r, j]} ({counts.dtype})")
    sensors, sizes = counts.shape[1], counts.ravel()
    cv = params.cv_stack
    if sensors > len(cv):
        raise ValueError(f"batch counts of {sensors} sensors need as many sensor noises, "
                         f"got {len(cv)}")
    if config.kind is FilterKind.CEOT:
        rows = np.zeros(sensors, dtype=int)
    elif pi is None:
        raise ValueError("distributed filters need a consensus matrix")
    elif sensors != nodes:
        raise ValueError("distributed filters need one batch per node")
    else:
        rows = np.arange(nodes)
        # An index's consensus rounds as one map; CM's weight omega rides on it.
        mix = pi.power(config.consensus_iters)
        if config.kind is FilterKind.CM:
            mix *= config.omega if config.omega is not None else float(nodes)

    # Every detection of the scan with its realization, sensor and index,
    # ordered by index, then by the realization's rank, then by sensor:
    # index i's are the slice bounds[i]:bounds[i + 1] of each column, and
    # order maps them into y.  The scan reorders the realizations longest
    # first, so at every index the live ones are the leading lives[i] rows,
    # and each row's detections are contiguous and in sensor order;
    # realizations never mix, so no bit moves.
    ends = counts.max(axis=1, initial=0)
    by_end, scan_len = np.argsort(-ends, kind="stable"), int(ends.max(initial=0))
    # Which (index, realization by rank, sensor) has a detection; np.nonzero
    # lists them in that order.
    mask = counts[by_end] > np.arange(scan_len)[:, None, None]
    det_index, det_rank, det_sensor = np.nonzero(mask)
    det_run = by_end[det_rank]
    order = (np.cumsum(sizes) - sizes).reshape(runs, sensors)[det_run, det_sensor] + det_index
    bounds = np.searchsorted(det_index, np.arange(scan_len + 1)).tolist()
    lives = (mask.any(axis=2).sum(axis=1) * nodes).tolist()
    y_all, cv_all = y_all[order], cv[det_sensor]
    det_flat = det_rank * nodes + rows[det_sensor]  # flat row of each detection's row
    # Its (realization, sensor), which names a failing noise; under CI and CM
    # the sensor is also the node of its row.
    det_at = np.array([det_run, det_sensor]).T
    # The (realization, node) of each flat row.
    grid = np.indices((runs, nodes))[:, by_end].reshape(2, -1).T

    # The rows in scan order, one per (realization, node), and their views.
    rows_all, width = state[by_end], state.shape[-1]
    # Each detection's entries' flat places in its index's live rows.
    bins = det_flat[:, None] * width + np.arange(width)
    flat = rows_all.reshape(-1, width)
    qx_all, _, qp_all, op_all = _columns(flat)
    if (d := qx_all.shape[-1]) not in (2, 4):
        raise ValueError("correct_scan needs a kinematic state of position (d = 2) or of "
                         f"position and velocity (d = 4), got d = {d}")
    mirror = _mirror(width)
    # Symmetrize the matrices once; a vector entry is its own mirror and
    # stays exact.  Every write below keeps them exactly symmetric: an
    # innovation row is, so a sum of them and a row is, and a product with
    # the consensus power is mirror-symmetrized.  A correction adds only to
    # the position block of a kinematic pair (H = [I 0]), and the consensus
    # rounds mix rows entry by entry, so under CEOT and CM every row's q_v,
    # Ω_pv and Ω_vv stay as they are now for the whole scan, and with them
    # the offsets of its position marginal.  CI's averaging rewrites whole
    # rows, so it takes them again.
    flat[...] = 0.5 * (flat + flat.take(mirror, axis=1))
    bad = ~(np.isfinite(qx_all).all(axis=1) & np.isfinite(qp_all).all(axis=1))
    if bad.any():
        raise ValueError(f"information vector{_first_slice(bad, at=grid)[1]} must not "
                         "contain infs or NaNs")
    offsets = _marginal_offsets(flat, grid) if d == 4 else np.zeros((len(flat), 6))
    # Each detection's offsets, the flat entries of its row's [q_p, Ω_pp],
    # and its row's (realization, node), which names a failing Ω_pp - B.
    qx_col, ox_col = _columns(np.arange(width))[:2]
    det_pos = det_flat[:, None] * width + np.concatenate([qx_col[:2], ox_col[:2, :2].ravel()])
    det_offsets, det_row_at = offsets[det_flat], grid[det_flat]
    # Every extent row is range-checked before it is first linearized.
    p_all, cp_all = _extent_moments(qp_all, op_all, grid)
    for i in range(scan_len):
        at_i, live = slice(bounds[i], bounds[i + 1]), lives[i]
        # Under CI and CM the detections' rows are distinct.  Under CEOT every
        # live realization has a detection at i, and its detections share its row.
        det_rows, rows_i = det_flat[at_i], flat[:live]
        marginal = flat.take(det_pos[at_i]) - det_offsets[at_i]
        packed = innovations(marginal[:, :2], marginal[:, 2:].reshape(-1, 2, 2),
                             p_all[det_rows], cp_all[det_rows], y_all[at_i], params.ch,
                             cv_all[at_i], trace, det_at[at_i], d=d, row_at=det_row_at[at_i])
        # The filters differ only here, in how the network combines the rows,
        # which are written in place.  np.bincount sums the detections that
        # share a row, as under CEOT, one after another in sensor order from
        # zero, as np.add.at would.
        delta = np.bincount(bins[at_i].ravel(), packed.ravel(), live * width).reshape(live, -1)
        if config.kind is FilterKind.CM:
            rows_i += (mix @ delta.reshape(-1, nodes, width)).reshape(-1, width)
            rows_i[...] = 0.5 * (rows_i + rows_i.take(mirror, axis=1))
        else:
            rows_i += delta
        if config.kind is FilterKind.CI:
            checked = qp_all[det_rows]
            _extent_moments(checked, op_all[det_rows], det_at[at_i])
            qp_all[det_rows] = checked
            averaged = (mix @ rows_i.reshape(-1, nodes, width)).reshape(-1, width)
            rows_i[...] = 0.5 * (averaged + averaged.take(mirror, axis=1))
            if d == 4:  # as the next index's linearization and write see them
                offsets[:live] = _marginal_offsets(rows_i, grid[:live])
                det_offsets = offsets[det_flat]
        # One checked inverse per write gives the next index its extent moments.
        p_all[:live], cp_all[:live] = _extent_moments(qp_all[:live], op_all[:live], grid[:live])
    state[by_end] = rows_all
    return tuple(a.reshape(runs, nodes, *a.shape[1:])[np.argsort(by_end)] for a in (p_all, cp_all))


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


def run_filter(scn_runs, net: SensorNetwork, params: TrackerParams, config: FilterConfig,
               pi: ConsensusMatrix | None = None, trace=None) -> TrackRecord:
    """Drive one filter over realized runs of one scenario config, all of
    them stacked in one pass, and return their TrackRecord, whose leading
    axis follows scn_runs.

    Each run's slice equals the record a pass over that run alone gives; a
    step's wall time is split evenly over the runs it advanced.  The
    distributed filters require a consensus matrix of the network's size,
    weighting only its edges and diagonal.  Each run's count table needs
    one column per network node.  A count that is not a non-negative
    integer, or a non-finite detection, fails before any filtering, naming
    its run (its position in scn_runs), step and sensor.  An optional trace
    object (record_rx, record_rp_floor, record_omega) collects observed
    noise and information-matrix spectra and Rp floor hits of every run for
    the stability assumption checks.
    """
    scn_runs = list(scn_runs)
    if not scn_runs:
        raise ValueError("run_filter needs at least one scenario run")
    if len({scn.counts.shape for scn in scn_runs}) > 1:
        raise ValueError("stacked scenario runs must have the same number of steps and nodes")
    counts = np.stack([scn.counts for scn in scn_runs])  # (runs, steps, sensors)
    if counts.ndim != 3 or counts.shape[2] != net.size:
        raise ValueError(f"count tables need one column per node of the {net.size}-node "
                         f"network, got shape {counts.shape[1:]}")
    # A float table fails whatever its values.
    floats = np.array([scn.counts.dtype.kind not in "iu" for scn in scn_runs])
    bad = (counts < 0) | floats[:, None, None]
    if bad.any():
        r, k, j = np.unravel_index(np.argmax(bad), counts.shape)
        value = scn_runs[r].counts[k, j]
        raise ValueError(f"count of run {r}, step {k}, sensor {j} must be a non-negative "
                         f"integer, got {value} ({value.dtype})")
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

    nodes = 1 if config.kind is FilterKind.CEOT else net.size
    if nodes > 1 and pi is not None:
        if pi.size != nodes:
            raise ValueError(f"a {pi.size}-node consensus matrix does not fit a {nodes}-node "
                             "network")
        off_edge = np.argwhere((pi.pi != 0.0) & ~net.adjacency & ~np.eye(nodes, dtype=bool))
        if off_edge.size:
            raise ValueError("consensus weight pi[{0}, {1}] is nonzero, but nodes {0} and {1} "
                             "share no network edge".format(*off_edge[0]))
    state = initial_states(*(np.stack([getattr(scn, name) for scn in scn_runs])
                             for name in ("x0", "cx0", "p0", "cp0")), nodes)
    qx, ox, qp, op = _columns(state)
    # The record holds each quantity's moments at every step.
    x_mean, x_cov, p_mean, p_cov = (np.zeros((runs, steps, *a.shape[1:])) for a in (qx, ox, qp, op))
    seconds = np.zeros(steps)

    for k in range(steps):
        t0 = time.perf_counter()
        p_mean[:, k], p_cov[:, k] = correct_scan(
            state, y[bounds[k]:bounds[k + 1]], counts[:, k], params, config, pi, trace)
        x_mean[:, k], x_cov[:, k] = to_moments(qx, ox)
        if trace is not None:
            trace.record_omega(ox)
        if k + 1 < steps:
            qx[...], ox[...] = predict(x_mean[:, k], x_cov[:, k], params.fx, params.cxw)
            qp[...], op[...] = predict(p_mean[:, k], p_cov[:, k], np.eye(3), params.cpw)
        seconds[k] = (time.perf_counter() - t0) / runs

    return TrackRecord(x_mean=x_mean, x_cov=x_cov, p_mean=p_mean, p_cov=p_cov,
                       step_seconds=seconds)
