"""Sequential extended-object trackers: centralized and two consensus variants.

All three filters correct packed node rows (R, n, k), one row [qx, Ωx, qp,
Ωp] per node (one centre, or one per network node) of each of R Monte Carlo
realizations in lock-step.  At measurement index i, every row holding a
detection is linearized at its index i-1 extent moments and position
marginal (q_p - a, Ω_pp - B), whose offsets come once per scan from the
velocity blocks no correction touches.  The filters differ only in how the
network combines the innovation rows: CEOT sums every sensor's into its one
row; CI corrects each sensor's row, then averages the posteriors; CM
averages the innovations, then corrects every row with the weight omega.
Every write leaves every matrix exactly symmetric.  Only the corrections
and the consensus products write a row: no range check or clamp edits it,
and its orientation stays on its own branch.  run_filter plans every scan
of a batch once and hands each scan the extent moments of the prior or
prediction.  Each later index gathers a detection's row once, inverts its
extent Ω there, and adds back only the entries H = [I 0] reaches; at the
scan's end one inverse per written row gives the record's moments.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from functools import cache
from numbers import Real
from typing import NamedTuple

import numpy as np

from ._linalg import _closed_form, _cofactor_pass, _first_slice, _matvec, _schur_offsets
from .consensus import ConsensusMatrix, SensorNetwork
from .info_filter import _columns, _position_columns, _rows, from_moments, predict, to_moments
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
    """Which filter to run and its consensus settings: consensus_iters is an
    integer, not a bool, and omega a number in [0, MAX_OMEGA], or None for
    the node count |G|, which makes CM match CEOT under complete averaging."""

    kind: FilterKind
    consensus_iters: int = 1
    omega: float | None = None

    def __post_init__(self):
        iters, omega = self.consensus_iters, self.omega
        if not isinstance(self.kind, FilterKind):
            raise ValueError(f"kind must be a FilterKind, got {self.kind!r}")
        if isinstance(iters, bool) or not isinstance(iters, (int, np.integer)):
            raise ValueError(f"consensus_iters must be an integer, got {iters!r}")
        if self.kind is not FilterKind.CEOT and iters < 1:
            raise ValueError("distributed filters need at least one consensus iteration")
        if omega is not None and (isinstance(omega, bool) or not isinstance(omega, Real)
                                  or not 0.0 <= omega <= MAX_OMEGA):
            raise ValueError(f"omega must be 'G' or a number in [0, {MAX_OMEGA:g}], "
                             f"got {omega!r}")


@dataclass(frozen=True)
class TrackerParams:
    """Models shared by every node: the multiplicative noise ch, one sensor
    noise per node as the stack cv (n, 2, 2), the kinematic transition and
    the process covariances cxw and cpw (the extent transition is the
    identity), each copied read-only."""

    ch: np.ndarray
    cv: np.ndarray
    fx: np.ndarray
    cxw: np.ndarray
    cpw: np.ndarray

    def __post_init__(self):
        for name in ("ch", "cv", "fx", "cxw", "cpw"):
            value = np.array(getattr(self, name), float)
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        if self.cv.ndim != 3 or self.cv.shape[1:] != (2, 2):
            raise ValueError(f"cv must be an (n, 2, 2) noise stack, got shape {self.cv.shape}")

    def __reduce__(self):
        # Rebuilt through the constructor, so a copy in another process keeps
        # read-only models.
        return TrackerParams, (self.ch, self.cv, self.fx, self.cxw, self.cpw)


def ncv_transition(x_dim: int, scan_time: float) -> np.ndarray:
    """Nearly-constant-velocity transition (identity for a position-only state)."""
    if x_dim not in (2, 4):
        raise ValueError("kinematic dimension must be 2 or 4")
    f = np.eye(x_dim)
    f[range(x_dim - 2), range(2, x_dim)] = scan_time  # each position moves by its velocity
    return f


def params_from_scenario(config, net: SensorNetwork) -> TrackerParams:
    """Assemble tracker models from a scenario config (shared noise per node)."""
    return TrackerParams(ch=config.ch, cv=(config.cv,) * net.size,
                         fx=ncv_transition(config.kinematic_dim, config.scan_time),
                         cxw=config.cxw, cpw=config.cpw)


def initial_states(x0, cx0, p0, cp0, nodes: int = 1) -> np.ndarray:
    """Packed rows [qx, Ωx, qp, Ωp] (R, nodes, k) with the same prior on each
    node; each prior x0 (R, d), cx0 (R, d, d) is inverted once, so a singular
    one is named (run r, node 0).  The extent mean is kept as given: the
    filter reads its orientation on any branch and clamps its semi-axes only
    where innovations linearizes."""
    x0 = np.asarray(x0, dtype=float)
    state, (qx, ox, qp, op) = _rows((*x0.shape[:-1], nodes), x0.shape[-1])
    for q, omega, mean, cov in ((qx, ox, x0, cx0), (qp, op, p0, cp0)):
        q[...], omega[...] = from_moments(np.expand_dims(mean, -2), np.expand_dims(cov, -3))
    return state


@cache
def _mirror(width: int) -> np.ndarray:
    """The column of each packed entry's transpose, for rows of this width."""
    return np.concatenate([block.T.ravel() for block in _columns(np.arange(width))])


def _extent_moments(q: np.ndarray, omega: np.ndarray, at=None):
    """The moments (p, Cp) of the extent rows q (..., 3) and exactly symmetric
    omega (..., 3, 3), from one checked inverse per row, a failing one named
    by at if given."""
    cp = _closed_form(_cofactor_pass, omega, "extent information matrix", at)[0]
    return _matvec(cp, q), cp


def _marginal_offsets(rows: np.ndarray, at) -> np.ndarray:
    """The offsets [a, B], (m, 6), of the position marginals of packed rows
    (m, k) with d = 4, [q_p - a, Ω_pp - B], by _schur_offsets; a failing Ω_vv
    is named information matrix by its row of at."""
    qx, ox = _columns(rows)[:2]
    a, b, _ = _schur_offsets(qx[:, 2:], ox[:, :2, 2:], ox[:, 2:, 2:], "information matrix", at)
    return np.concatenate([a, b.reshape(-1, 4)], axis=1)


class _Scan(NamedTuple):
    by_end: np.ndarray  # (R,): the realizations by rank, longest batch first
    names: np.ndarray  # (R * n, 2): each flat row's (realization, node)
    y: np.ndarray  # (m, 2): the detections by index, then rank, then sensor
    flat: np.ndarray  # (m,): the flat row each detection's innovations go into
    at: np.ndarray  # (m, 2): its (realization, sensor), which names a failing noise
    bounds: list  # index i's detections are bounds[i]:bounds[i + 1]
    lives: list  # and its live rows the leading lives[i] flat rows


def _scan_plan(tables, y, nodes: int, where: str) -> list[_Scan]:
    """Every scan of count tables (steps, sensors), tables[r][k, j] detections
    of sensor j in scan k of realization r, with detections y (M, 2) in
    (realization, scan, sensor, index) order: one pass over the table, one
    gather of y.  Sensor j writes node j's flat row, or node 0's of one node.
    A bad count or detection fails, named by where with its noun and r, k, j."""
    counts = np.asarray(tables)
    floats = np.array([t.dtype.kind not in "iu" for t in tables], dtype=bool)
    bad = (counts < 0) | floats[:, None, None]
    if bad.any():
        r, k, j = np.unravel_index(np.argmax(bad), counts.shape)
        value = tables[r][k, j]
        raise ValueError(f"{where.format('count', r=r, k=k, j=j)} must be a non-negative "
                         f"integer, got {value} ({value.dtype})")
    bad = ~np.isfinite(y).all(axis=1)
    if bad.any():
        first = np.searchsorted(np.cumsum(counts), np.argmax(bad), side="right")
        r, k, j = np.unravel_index(first, counts.shape)
        raise ValueError(f"{where.format('detections', r=r, k=k, j=j)} must be finite")
    runs, steps, sensors = counts.shape
    ends = counts.max(axis=2, initial=0).T  # (steps, runs)
    by_end, lengths = np.argsort(-ends, axis=1, kind="stable"), ends.max(axis=1, initial=0)
    longest = int(lengths.max(initial=0))
    # np.nonzero lists the detections in (scan, index, rank, sensor) order.
    ranked = np.take_along_axis(counts.transpose(1, 0, 2), by_end[:, :, None], axis=1)
    mask = ranked[:, None] > np.arange(longest)[:, None, None]
    edges = np.concatenate([[0], np.cumsum(mask.sum(axis=(2, 3)))])
    first = edges[::longest] if longest else np.zeros(steps + 1, dtype=int)
    # np.nonzero's four vectors are views of one (m, 4) block: it is released
    # once the names, the gather index and the flat rows are taken.
    scan, index, rank, sensor = np.nonzero(mask)
    at = np.stack([by_end[scan, rank], sensor], axis=1)
    take = (np.cumsum(counts) - counts.ravel()).reshape(counts.shape)[at[:, 0], scan, sensor]
    take += index
    flat = rank * nodes
    if nodes > 1:
        flat += sensor
    del scan, index, rank, sensor
    detections = y[take]
    del take
    per_scan = (np.split(a, first[1:-1]) for a in (detections, flat, at))
    names = np.stack([np.repeat(by_end, nodes, axis=1), np.tile(np.arange(nodes), (steps, runs))],
                     axis=-1)
    lives = mask.any(axis=3).sum(axis=2) * nodes
    return [_Scan(by_end[k], names[k], *arrays, (edges[k * longest:][:n + 1] - first[k]).tolist(),
                  lives[k, :n].tolist())
            for k, (n, *arrays) in enumerate(zip(lengths, *per_scan))]


def _consensus_map(config: FilterConfig, pi, params: TrackerParams, sensors: int, nodes: int):
    """An index's consensus rounds as one map, CM's weight omega on it (None
    under CEOT), once the models fit `sensors` count columns and `nodes` rows."""
    if sensors > len(params.cv):
        raise ValueError(f"batch counts of {sensors} sensors need as many sensor noises, "
                         f"got {len(params.cv)}")
    if config.kind is FilterKind.CEOT:
        return None
    if pi is None:
        raise ValueError("distributed filters need a consensus matrix")
    if sensors != nodes:
        raise ValueError("distributed filters need one batch per node")
    if config.kind is FilterKind.CI:
        return pi.power(config.consensus_iters)
    return pi.power(config.consensus_iters) * (nodes if config.omega is None else config.omega)


def correct_scan(state: np.ndarray, y, counts, params: TrackerParams, config: FilterConfig,
                 pi: ConsensusMatrix | None = None, trace=None):
    """Sequential correction, in place, of packed node rows (R, n, k) over one
    scan, with a kinematic state of position (d = 2) or position and
    velocity (d = 4).  The detections y (M, 2) come in (realization, sensor,
    index) order, counts[r, j] of them, a non-negative integer, in sensor
    j's batch of realization r.  Sensor j's noise is params.cv[j];
    its innovations go into row 0 under CEOT and into its node's row j under
    CI and CM, which need the consensus matrix pi: config.consensus_iters
    rounds are one product with its power.  At each index the sensors with a
    detection left contribute, all realizations in one stacked call, and
    realizations never mix.  A failing Rx or Rp is named (run r, node j) by
    its detection, a non-finite information vector or failing kinematic
    information matrix by its row; a trace records the Rx spectra and Rp
    floor hits.  Returns the moments (p, Cp) of every extent row it leaves.
    """
    if state.ndim != 3:
        raise ValueError(f"correct_scan needs (R, n, k) rows, got shape {state.shape}")
    runs, nodes = state.shape[:2]
    counts, y = np.asarray(counts), np.reshape(y, (-1, 2))
    if counts.ndim != 2 or counts.shape[0] != runs or len(y) != counts.sum():
        raise ValueError(f"got {len(y)} detections in {counts.shape} batch counts for "
                         f"{runs} stacked realizations")
    (scan,) = _scan_plan(counts[:, None], y, 1 if config.kind is FilterKind.CEOT else nodes,
                         "batch {} of run {r}, sensor {j}")
    mix = _consensus_map(config, pi, params, counts.shape[1], nodes)
    return _scan(state, scan, None, params, config.kind, mix, trace)


def _scan(state, scan: _Scan, moments, params: TrackerParams, kind: FilterKind, mix, trace):
    """correct_scan's correction over one planned scan with an index's
    consensus map mix, from the extent moments (p, Cp) of the prior or
    prediction, or the rows' own if moments is None; returns every row's."""
    runs, nodes, width = state.shape
    by_end, names, y_all, det_flat, det_at, bounds, lives = scan
    cv_all = params.cv[det_at[:, 1]]

    # The rows in scan order, one per (realization, node), and their views.
    flat = state[by_end].reshape(-1, width)
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
        raise ValueError(f"information vector{_first_slice(bad, at=names)[1]} must not "
                         "contain infs or NaNs")
    offsets = _marginal_offsets(flat, names) if d == 4 else None
    # Each detection's flat entries of its row's [q_p, Ω_pp, q_e, Ω_e], which
    # its compact innovation row adds to, and its row's (realization, node),
    # which names a failing Ω_pp - B or extent Ω.
    det_pos = det_flat[:, None] * width + _position_columns(d)
    det_row_at = names[det_flat]
    if moments is None:
        p_all, cp_all = _extent_moments(qp_all, op_all, names)
    else:  # in scan order
        p_all, cp_all = (np.asarray(a, float)[by_end].reshape(len(flat), *a.shape[2:])
                         for a in moments)
    for i in range(len(lives)):
        at_i, live = slice(bounds[i], bounds[i + 1]), lives[i]
        # Under CI and CM the detections' rows are distinct.  Under CEOT every
        # live realization has a detection at i, and its detections share its row.
        det_rows, rows_i, read = det_flat[at_i], flat[:live], flat.take(det_pos[at_i])
        # Index 0 reads the moments the scan starts from, every later one the
        # moments of its rows as the last write left them.
        p, cp = ((p_all[det_rows], cp_all[det_rows]) if i == 0 else
                 _extent_moments(read[:, 6:9], read[:, 9:].reshape(-1, 3, 3), det_row_at[at_i]))
        marginal = read[:, :6] - offsets[det_rows] if d == 4 else read[:, :6]
        packed = innovations(marginal[:, :2], marginal[:, 2:], p, cp, y_all[at_i], params.ch,
                             cv_all[at_i], trace, det_at[at_i], row_at=det_row_at[at_i])
        # The filters differ only here, in how the network combines the rows,
        # which are written in place.  np.bincount sums the detections that
        # share a row, as under CEOT, one after another in sensor order from
        # zero, as np.add.at would.
        delta = np.bincount(det_pos[at_i].ravel(), packed.ravel(), live * width).reshape(live, -1)
        if kind is FilterKind.CM:
            rows_i += (mix @ delta.reshape(-1, nodes, width)).reshape(-1, width)
            rows_i[...] = 0.5 * (rows_i + rows_i.take(mirror, axis=1))
        else:
            rows_i += delta
        if kind is FilterKind.CI:
            averaged = (mix @ rows_i.reshape(-1, nodes, width)).reshape(-1, width)
            rows_i[...] = 0.5 * (averaged + averaged.take(mirror, axis=1))
            if d == 4:  # as the next index's linearization and write see them
                offsets[:live] = _marginal_offsets(rows_i, names[:live])
    # Every row the scan wrote, once, for the record; a row it never wrote
    # keeps the moments it started with.
    end = lives[0] if lives else 0
    p_all[:end], cp_all[:end] = _extent_moments(qp_all[:end], op_all[:end], names[:end])
    state[by_end] = flat.reshape(runs, nodes, width)
    return tuple(a.reshape(runs, nodes, *a.shape[1:])[np.argsort(by_end)] for a in (p_all, cp_all))


@dataclass(frozen=True)
class TrackRecord:
    """Per-run, per-step, per-node moments of one stacked filter pass, taken
    after each scan's correction (one pseudo-node under CEOT), and each
    step's wall time divided by the runs it advanced together.  p_mean is
    each row's own extent mean, on the row's branch and not clamped;
    evaluate_run wraps and clamps it to score it against the truth."""

    x_mean: np.ndarray  # (runs, steps, nodes, x_dim)
    x_cov: np.ndarray  # (runs, steps, nodes, x_dim, x_dim)
    p_mean: np.ndarray  # (runs, steps, nodes, 3)
    p_cov: np.ndarray  # (runs, steps, nodes, 3, 3)
    step_seconds: np.ndarray  # (steps,), amortized over the stacked runs

    runs = property(lambda self: self.x_mean.shape[0])
    steps = property(lambda self: self.x_mean.shape[1])
    nodes = property(lambda self: self.x_mean.shape[2])


def run_filter(scn_runs, net: SensorNetwork, params: TrackerParams, config: FilterConfig,
               pi: ConsensusMatrix | None = None, trace=None) -> TrackRecord:
    """The TrackRecord of one filter over realized runs of one scenario
    config, stacked in one pass; its leading axis follows scn_runs, and each
    run's slice equals that run's own pass.  A step's wall time is split
    evenly over its runs.  The distributed filters need a consensus matrix
    of the network's size, weighting only its edges and diagonal, and each
    count table one column per node.  A count that is not a non-negative
    integer, or a non-finite detection, fails before any filtering, named by
    its run (its place in scn_runs), step and sensor.  A trace (record_rx,
    record_rp_floor, record_omega) collects what the assumption checks need.
    """
    scn_runs = list(scn_runs)
    if not scn_runs:
        raise ValueError("run_filter needs at least one scenario run")
    if len({scn.counts.shape for scn in scn_runs}) > 1:
        raise ValueError("stacked scenario runs must have the same number of steps and nodes")
    shape = scn_runs[0].counts.shape  # (steps, sensors)
    if len(shape) != 2 or shape[1] != net.size:
        raise ValueError(f"count tables need one column per node of the {net.size}-node "
                         f"network, got shape {shape}")
    if [len(scn.detections) for scn in scn_runs] != [scn.counts.sum() for scn in scn_runs]:
        raise ValueError("every run's detections must match its count table")
    nodes = 1 if config.kind is FilterKind.CEOT else net.size
    # The batch's detections, (run, step, sensor, index) ordered, checked at once.
    y = np.concatenate([np.zeros((0, 2)), *(scn.detections for scn in scn_runs)])
    scans = _scan_plan([scn.counts for scn in scn_runs], y, nodes,
                       "{} of run {r}, step {k}, sensor {j}")
    runs, steps = len(scn_runs), shape[0]

    if nodes > 1 and pi is not None:
        if pi.size != nodes:
            raise ValueError(f"a {pi.size}-node consensus matrix does not fit a {nodes}-node "
                             "network")
        off_edge = np.argwhere((pi.pi != 0.0) & ~net.adjacency & ~np.eye(nodes, dtype=bool))
        if off_edge.size:
            raise ValueError("consensus weight pi[{0}, {1}] is nonzero, but nodes {0} and {1} "
                             "share no network edge".format(*off_edge[0]))
    mix = _consensus_map(config, pi, params, shape[1], nodes)
    priors = [np.stack([getattr(s, a) for s in scn_runs]) for a in ("x0", "cx0", "p0", "cp0")]
    state = initial_states(*priors, nodes)
    qx, ox, qp, op = _columns(state)
    # The record holds each quantity's moments at every step.
    x_mean, x_cov, p_mean, p_cov = (np.zeros((runs, steps, *a.shape[1:])) for a in (qx, ox, qp, op))
    seconds = np.zeros(steps)
    # Each scan starts from the extent moments of the prior or the prediction.
    moments = [np.broadcast_to(a[:, None], (runs, nodes, *a.shape[1:])) for a in priors[2:]]

    for k, scan in enumerate(scans):
        t0 = time.perf_counter()
        p_mean[:, k], p_cov[:, k] = _scan(state, scan, moments, params, config.kind, mix, trace)
        x_mean[:, k], x_cov[:, k] = to_moments(qx, ox)
        if trace is not None:
            trace.record_omega(ox)
        if k + 1 < steps:
            # The extent transition is the identity.
            moments = p_mean[:, k], p_cov[:, k] + params.cpw
            qx[...], ox[...] = predict(x_mean[:, k], x_cov[:, k], params.fx, params.cxw)
            qp[...], op[...] = from_moments(*moments)
        seconds[k] = (time.perf_counter() - t0) / runs

    return TrackRecord(x_mean=x_mean, x_cov=x_cov, p_mean=p_mean, p_cov=p_cov,
                       step_seconds=seconds)
