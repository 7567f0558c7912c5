"""Evaluation metrics and stability assumption checks; no filter runs here.

Metrics: Gaussian Wasserstein distance on (center, extent) pairs, OSPA over
rectangle vertices, normalized estimation error squared with chi-square
bands, and the averaged pairwise estimate disagreement across nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from ._linalg import _first_slice, spd_solve, sym
from .consensus import ConsensusMatrix, check_primitive
from .geometry import clamp_extent, extent_vertices, wrap_angle

__all__ = [
    "gwd",
    "ospa_vertices",
    "nees",
    "nees_bounds",
    "acee",
    "AssumptionTrace",
    "AssumptionReport",
    "check_assumptions",
    "evaluate_run",
    "write_metrics_csv",
    "summarize_metrics",
]


def gwd(m1, p1, m2, p2):
    """Gaussian Wasserstein distance between (center, extent) pairs.

    d^2 = |m1 - m2|^2 + tr(X1 + X2 - 2 (X1^1/2 X2 X1^1/2)^1/2), where an
    extent [alpha, a, b] maps to the SPD matrix X = Rot(alpha) diag(a^2, b^2)
    Rot(alpha).T.  Centers are (..., 2) and extents (..., 3) stacks that
    broadcast against each other; one distance per stack entry is returned.
    Semi-axes must be positive.

    For 2x2 SPD matrices tr((X1^1/2 X2 X1^1/2)^1/2) = sqrt(tr(X1 X2) +
    2 sqrt(det X1 det X2)), which with the orientation difference t is
    root = sqrt(cos^2 t u^2 + sin^2 t v^2) for u = a1 a2 + b1 b2 and
    v = a1 b2 + b1 a2.  With T = tr X1 + tr X2 the extent term T - 2 root is
    evaluated as (cos^2 t (T^2 - 4 u^2) + sin^2 t (T^2 - 4 v^2)) / (T + 2 root),
    where T^2 - 4 u^2 and T^2 - 4 v^2 are products of sums of squares, so
    near-equal extents do not lose their distance to cancellation.
    """
    m1, p1, m2, p2 = (np.asarray(v, dtype=float) for v in (m1, p1, m2, p2))
    t = p1[..., 0] - p2[..., 0]
    cos2, sin2 = np.cos(t) ** 2, np.sin(t) ** 2
    a1, b1, a2, b2 = p1[..., 1], p1[..., 2], p2[..., 1], p2[..., 2]
    # T^2 - 4 u^2 = (T - 2 u)(T + 2 u), and likewise for v.
    u_term = ((a1 - a2) ** 2 + (b1 - b2) ** 2) * ((a1 + a2) ** 2 + (b1 + b2) ** 2)
    v_term = ((a1 - b2) ** 2 + (b1 - a2) ** 2) * ((a1 + b2) ** 2 + (b1 + a2) ** 2)
    root = np.sqrt(cos2 * (a1 * a2 + b1 * b2) ** 2 + sin2 * (a1 * b2 + b1 * a2) ** 2)
    total = a1 ** 2 + b1 ** 2 + a2 ** 2 + b2 ** 2
    shape_term = (cos2 * u_term + sin2 * v_term) / (total + 2.0 * root)
    return np.sqrt(np.sum((m1 - m2) ** 2, axis=-1) + shape_term)


# The 8 symmetry-preserving correspondences between two ordered 4-vertex
# boundaries: cyclic shifts and the reversed (reflected) traversals.
_VERTEX_ALIGNMENTS = np.array([np.roll(np.arange(4), k) for k in range(4)] + [
    np.roll(np.arange(4)[::-1], k) for k in range(4)
])


def ospa_vertices(est_vertices, true_vertices, cutoff: float = 100.0, order: int = 2):
    """OSPA distance between 4-vertex sets, restricted to the alignments
    compatible with a rectangle boundary (cyclic shifts and reflections).

    Both arguments are (..., 4, 2) stacks that broadcast against each other;
    one distance per stack entry is returned.
    """
    est = np.asarray(est_vertices, dtype=float)
    tru = np.asarray(true_vertices, dtype=float)
    if est.shape[-2:] != (4, 2) or tru.shape[-2:] != (4, 2):
        raise ValueError("vertex sets must have shape (4, 2)")
    # [..., alignment, vertex]: distance of each aligned vertex pair.
    d = np.minimum(np.linalg.norm(est[..., _VERTEX_ALIGNMENTS, :] - tru[..., None, :, :],
                                  axis=-1), cutoff)
    return (np.mean(d ** order, axis=-1) ** (1.0 / order)).min(axis=-1)


# A metric table's stacks are (runs, steps, nodes); a failing entry is named by all three.
_TABLE_AXES = ("run", "step", "node")


def _mahalanobis(e, cov, name: str, at=None):
    """e.T cov^-1 e for one error vector or a stack of them; a failing
    covariance of a (runs, steps, nodes) stack is named by its run, step and
    node, or by its row of at, as _first_slice names it."""
    e = np.asarray(e, dtype=float)
    return np.sum(e * spd_solve(cov, e, name=name, axes=_TABLE_AXES, at=at), axis=-1)


def nees(est, cov, truth):
    """Normalized estimation error squared of one estimate, or of a stack
    (..., d) of estimates with covariances (..., d, d)."""
    e = np.asarray(est, dtype=float) - np.asarray(truth, dtype=float)
    return _mahalanobis(e, cov, "estimate covariance")


def nees_bounds(dim: int, runs: int, confidence: float = 0.95) -> tuple[float, float]:
    """Two-sided chi-square band for a run-averaged NEES: chi-square with
    dim*runs degrees of freedom, divided by the run count."""
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    from scipy.stats import chi2  # loaded here only: it dominates the package import time

    dof = dim * runs
    lo = chi2.ppf(0.5 * (1.0 - confidence), dof) / runs
    hi = chi2.ppf(0.5 * (1.0 + confidence), dof) / runs
    return float(lo), float(hi)


def acee(estimates):
    """Averaged pairwise estimate disagreement across nodes: sum of
    |x_s - x_j| over all ordered pairs, divided by n (n - 1).

    estimates is (..., n, d), one row per node; one value per stack entry
    is returned.
    """
    est = np.asarray(estimates, dtype=float)
    n = est.shape[-2]
    if n < 2:
        raise ValueError("disagreement needs at least two nodes")
    # The distances of the pairs i < j only, placed with zeros on the
    # diagonal into the n x n layout by one take: |x_i - x_j| and
    # |x_j - x_i| are equal bit for bit, so the summed array is the full one.
    i, j = np.triu_indices(n, 1)
    layout = np.zeros((n, n), dtype=np.intp)
    layout[i, j] = layout[j, i] = np.arange(1, len(i) + 1)
    # In place on the gathered copy: one array of the pairs' size at a time.
    diff = est[..., i, :]
    diff -= est[..., j, :]
    diff *= diff
    upper = np.sqrt(diff.sum(axis=-1))
    pairs = np.concatenate([np.zeros_like(upper[..., :1]), upper], axis=-1)
    return pairs.take(layout, axis=-1).sum(axis=(-2, -1)) / (n * (n - 1))


@dataclass(eq=False)
class AssumptionTrace:
    """Running spectra bounds observed during a filter run, and how many
    linearized rows had their pseudo-measurement noise eigenvalue-floored.
    Kinematic noise stacks are kept as recorded and reduced once per scan,
    by record_omega, or when rx_min or rx_max is read."""

    omega_min: float = np.inf
    omega_max: float = -np.inf
    rp_floor_rows: int = 0
    rp_rows: int = 0
    # The rx bounds so far, then the stacks recorded since.
    _rx: list = field(default_factory=lambda: [(np.inf, -np.inf)])
    rx_min = property(lambda self: self._reduce_rx()[0])
    rx_max = property(lambda self: self._reduce_rx()[1])

    def _reduce_rx(self) -> tuple[float, float]:
        """Fold the recorded stacks into the bounds; the eigenvalues of a
        symmetric 2x2 matrix are mid +/- radius."""
        (lo, hi), *stacks = self._rx
        if stacks:
            rx = np.concatenate([s.reshape(-1, 4) for s in stacks])
            a, b, c = rx[:, 0], rx[:, 3], rx[:, 1]
            mid, radius = 0.5 * (a + b), np.hypot(0.5 * (a - b), c)
            self._rx = [(min(lo, float((mid - radius).min(initial=np.inf))),
                         max(hi, float((mid + radius).max(initial=-np.inf))))]
        return self._rx[0]

    def record_rx(self, rx: np.ndarray) -> None:
        """Record one 2x2 kinematic noise covariance or a stack of them."""
        self._rx.append(np.asarray(rx, dtype=float))

    def record_rp_floor(self, floored: int, rows: int) -> None:
        """Count linearized rows, and those whose Rp needed the floor."""
        self.rp_floor_rows += floored
        self.rp_rows += rows

    def record_omega(self, omega: np.ndarray) -> None:
        """Record one information matrix or a stack of them."""
        self._reduce_rx()
        w = np.linalg.eigvalsh(sym(omega))
        lo, hi = float(w[..., 0].min()), float(w[..., -1].max())
        self.omega_min, self.omega_max = min(self.omega_min, lo), max(self.omega_max, hi)

    def __eq__(self, other) -> bool:
        return isinstance(other, AssumptionTrace) and _TRACE_KEY(self) == _TRACE_KEY(other)

    def merge(self, other: "AssumptionTrace") -> "AssumptionTrace":
        """The bounds of both traces (the min of the mins, the max of the
        maxes) and the sums of their row counts."""
        return AssumptionTrace(min(self.omega_min, other.omega_min),
                               max(self.omega_max, other.omega_max),
                               self.rp_floor_rows + other.rp_floor_rows,
                               self.rp_rows + other.rp_rows,
                               [(min(self.rx_min, other.rx_min), max(self.rx_max, other.rx_max))])


# What two equal traces agree on.
_TRACE_KEY = attrgetter("rx_min", "rx_max", "omega_min", "omega_max", "rp_floor_rows", "rp_rows")


def _positive_finite(*bounds) -> bool:
    """Whether every (low, high) pair is bounded away from 0 and from infinity."""
    return all(low > 0 and np.isfinite(high) for low, high in bounds)


@dataclass(frozen=True)
class AssumptionReport:
    """Observed bounds for the stability assumptions and their verdicts.

    A3 asks for doubly stochastic, primitive consensus weights; a
    ConsensusMatrix is doubly stochastic by construction, so only primitivity
    is a verdict here.
    """

    beta_bounds: tuple[float, float]
    f_bounds: tuple[float, float]
    h_bounds: tuple[float, float]
    tau_bounds: tuple[float, float]
    omega_bounds: tuple[float, float]
    q_bounds: tuple[float, float]
    r_bounds: tuple[float, float]
    info_bounds: tuple[float, float]
    primitive: bool
    rp_floor: tuple[int, int] = (0, 0)  # rows floored, rows linearized

    @property
    def a1_pass(self) -> bool:
        return _positive_finite(self.beta_bounds, self.f_bounds, self.h_bounds)

    @property
    def a2_pass(self) -> bool:
        return _positive_finite(self.tau_bounds, self.omega_bounds, self.q_bounds,
                                self.r_bounds, self.info_bounds)

    @property
    def a3_pass(self) -> bool:
        return self.primitive

    @property
    def all_pass(self) -> bool:
        return self.a1_pass and self.a2_pass and self.a3_pass

    def as_text(self) -> str:
        def rng(b):
            return f"[{b[0]:.6g}, {b[1]:.6g}]"

        lines = [
            "stability assumption check",
            f"A1 gain/transition/measurement spectra: "
            f"beta {rng(self.beta_bounds)} f {rng(self.f_bounds)} h {rng(self.h_bounds)}"
            f" -> {'pass' if self.a1_pass else 'FAIL'}",
            f"A2 tau {rng(self.tau_bounds)} omega {rng(self.omega_bounds)} "
            f"Q {rng(self.q_bounds)} R {rng(self.r_bounds)} info {rng(self.info_bounds)}"
            f" -> {'pass' if self.a2_pass else 'FAIL'}",
            "A3 doubly stochastic: True, "
            f"primitive: {self.primitive} -> {'pass' if self.a3_pass else 'FAIL'}",
            f"Rp eigenvalue floor: {self.rp_floor[0]} of {self.rp_floor[1]} linearized rows",
        ]
        return "\n".join(lines)


def check_assumptions(
    fx: np.ndarray,
    h: np.ndarray,
    q_cov: np.ndarray,
    pi: ConsensusMatrix,
    rounds: int,
    omega: float,
    trace: AssumptionTrace,
) -> AssumptionReport:
    """Numeric verification of the boundedness assumptions for one run.

    The compensation gain is identity in the filters (it is an analysis
    device only), so its bounds are exactly 1.
    """
    f_sv = np.linalg.svd(np.asarray(fx, dtype=float), compute_uv=False)
    h_sv = np.linalg.svd(np.asarray(h, dtype=float), compute_uv=False)
    q_eigs = np.linalg.eigvalsh(sym(np.asarray(q_cov, dtype=float)))

    # Perron left eigenvector of the consensus matrix power, normalized to a
    # distribution; for a doubly stochastic matrix it is uniform.
    pil = pi.power(max(rounds, 1))
    w, v = np.linalg.eig(pil.T)
    tau = np.real(v[:, np.argmax(np.real(w))])
    tau = tau / tau.sum()
    return AssumptionReport(
        beta_bounds=(1.0, 1.0),
        f_bounds=(float(f_sv.min()), float(f_sv.max())),
        h_bounds=(float(h_sv.min()), float(h_sv.max())),
        tau_bounds=(float(tau.min()), float(tau.max())),
        omega_bounds=(float(omega), float(omega)),
        q_bounds=(float(q_eigs.min()), float(q_eigs.max())),
        r_bounds=(trace.rx_min, trace.rx_max),
        info_bounds=(trace.omega_min, trace.omega_max),
        primitive=check_primitive(pi),
        rp_floor=(trace.rp_floor_rows, trace.rp_rows),
    )


# Runs scored at a time.  The metric temporaries grow with the runs scored
# together; every run's numbers are its own, so chunks only bound the memory.
EVAL_CHUNK_RUNS = 8


def evaluate_run(record, truth, shape: str):
    """Per-step metric table (columns, values) of a record's tracked runs
    against the truth pair (x_true, p_true) they share.

    columns lists the (node, metric) labels: each node's metrics in node
    order, then the network columns; values is (runs, steps, len(columns)).
    Node -1 carries network-level values: the centralized filter's single
    output and the per-step estimate disagreement of the distributed filters.
    OSPA is scored for rectangles only, where the four vertices are well
    defined.  Every metric is computed over a (runs, steps, nodes) grid of
    EVAL_CHUNK_RUNS runs at once.  gwd and ospa score the estimated extents
    wrapped, their semi-axes clamped to MIN_AXIS, and nees_ext the extent
    error wrapped; acee_ext reads the rows' own means, as a difference
    between nodes on the same branch needs no wrap.  A non-finite kinematic
    or extent mean fails, naming its run, step and node.
    """
    for label, mean in (("kinematic", record.x_mean), ("extent", record.p_mean)):
        if not np.isfinite(mean).all():
            _, where = _first_slice(~np.isfinite(mean).all(axis=-1), _TABLE_AXES)
            raise ValueError(f"{label} estimate{where} entries must be finite")
    chunks = [_score_runs(*(getattr(record, name)[r:r + EVAL_CHUNK_RUNS]
                            for name in ("x_mean", "x_cov", "p_mean", "p_cov")), truth, shape, r)
              for r in range(0, record.runs, EVAL_CHUNK_RUNS)]
    return chunks[0][0], np.concatenate([values for _, values in chunks])


def _score_runs(x_mean, x_cov, p_mean, p_cov, truth, shape: str, first_run: int):
    """evaluate_run's table of the (runs, steps, nodes) estimate grids given,
    whose runs are the record's from first_run on."""
    runs, steps, nodes = x_mean.shape[:3]
    at = np.stack(np.indices((runs, steps, nodes)), axis=-1) + (first_run, 0, 0)
    x_true, p_true = (np.asarray(t, dtype=float)[:, None, :] for t in truth)
    x_est, p_est = x_mean, clamp_extent(p_mean)
    e_p = p_mean - p_true
    e_p[..., 0] = wrap_angle(e_p[..., 0])
    per_node = {
        "pos_err": np.linalg.norm(x_est[..., :2] - x_true[..., :2], axis=-1),
        "gwd": gwd(x_est[..., :2], p_est, x_true[..., :2], p_true),
    }
    if shape == "rectangle":
        per_node["ospa"] = ospa_vertices(extent_vertices(x_est[..., :2], p_est),
                                         extent_vertices(x_true[..., :2], p_true))
    per_node["nees_kin"] = _mahalanobis(x_est - x_true, x_cov, "estimate covariance", at)
    per_node["nees_ext"] = _mahalanobis(e_p, p_cov, "extent covariance", at)
    per_step, labels = {}, [-1]
    if nodes > 1:
        per_step = {"acee_kin": acee(x_mean), "acee_ext": acee(p_mean)}
        labels = list(range(nodes))
    columns = [(node, metric) for node in labels for metric in per_node]
    columns += [(-1, metric) for metric in per_step]
    table = np.stack(list(per_node.values()), axis=-1).reshape(runs, steps, -1)
    values = np.concatenate([table, *(v[..., None] for v in per_step.values())], axis=-1)
    return columns, values


def write_metrics_csv(path, columns, values) -> None:
    """Write a (runs, steps, len(columns)) metric table as (run, step, node,
    metric, value) lines in %.9g, one % template per (run, step) block."""
    # Joined by a (run, step) head, these put it before every line.
    tails = ["", *(f"{node},{metric},%.9g\n" for node, metric in columns)]
    with open(path, "w", newline="\n") as fh:
        fh.write("run,step,node,metric,value\n")
        for run, steps in enumerate(values.tolist()):
            for step, row in enumerate(steps):
                fh.write(f"{run},{step},".join(tails) % tuple(row))


def summarize_metrics(columns, values) -> dict[str, tuple[float, float, int]]:
    """Mean, standard deviation, and count per metric over every (run, step,
    node) sample of a (..., len(columns)) metric table."""
    out = {}
    for metric in sorted({metric for _, metric in columns}):
        vals = values[..., [m == metric for _, m in columns]].ravel()
        out[metric] = (float(vals.mean()), float(vals.std()), vals.size)
    return out
