"""Evaluation metrics, stability assumption checks, and boundedness runs.

Metrics: Gaussian Wasserstein distance on (center, extent) pairs, OSPA over
rectangle vertices, normalized estimation error squared with chi-square
bands, and the averaged pairwise estimate disagreement across nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import _first_slice, spd_solve, sym
from .consensus import ConsensusMatrix, check_primitive, metropolis_weights
from .geometry import clamp_extent, extent_vertices, wrap_angle
from .scenario import build_scenario_run, resolve_network
from .trackers import FilterKind, params_from_scenario, run_filter

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
    "bounded_mse_experiment",
    "BoundedMseResult",
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


# A metric table's stacks are (steps, nodes); a failing entry is named by both.
_TABLE_AXES = ("step", "node")


def _mahalanobis(e, cov, name: str):
    """e.T cov^-1 e for one error vector or a stack of them; a failing
    covariance of a (steps, nodes) stack is named by its step and node."""
    e = np.asarray(e, dtype=float)
    return np.sum(e * spd_solve(cov, e, name=name, axes=_TABLE_AXES), axis=-1)


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
    diffs = np.linalg.norm(est[..., :, None, :] - est[..., None, :, :], axis=-1)
    return diffs.sum(axis=(-2, -1)) / (n * (n - 1))


@dataclass
class AssumptionTrace:
    """Running spectra bounds observed during a filter run, and how many
    linearized rows had their pseudo-measurement noise eigenvalue-floored."""

    rx_min: float = np.inf
    rx_max: float = -np.inf
    omega_min: float = np.inf
    omega_max: float = -np.inf
    rp_floor_rows: int = 0
    rp_rows: int = 0

    def record_rx(self, rx: np.ndarray) -> None:
        """Record one 2x2 kinematic noise covariance or a stack of them; the
        eigenvalues of a symmetric 2x2 matrix are mid +/- radius."""
        a, b, c = rx[..., 0, 0], rx[..., 1, 1], rx[..., 0, 1]
        mid, radius = 0.5 * (a + b), np.hypot(0.5 * (a - b), c)
        lo, hi = float((mid - radius).min()), float((mid + radius).max())
        self.rx_min, self.rx_max = min(self.rx_min, lo), max(self.rx_max, hi)

    def record_rp_floor(self, floored: int, rows: int) -> None:
        """Count linearized rows, and those whose Rp needed the floor."""
        self.rp_floor_rows += floored
        self.rp_rows += rows

    def record_omega(self, omega: np.ndarray) -> None:
        """Record one information matrix or a stack of them."""
        w = np.linalg.eigvalsh(sym(omega))
        lo, hi = float(w[..., 0].min()), float(w[..., -1].max())
        self.omega_min, self.omega_max = min(self.omega_min, lo), max(self.omega_max, hi)

    def merge(self, other: "AssumptionTrace") -> "AssumptionTrace":
        """The bounds of both traces (the min of the mins, the max of the
        maxes) and the sums of their row counts."""
        return AssumptionTrace(min(self.rx_min, other.rx_min), max(self.rx_max, other.rx_max),
                               min(self.omega_min, other.omega_min),
                               max(self.omega_max, other.omega_max),
                               self.rp_floor_rows + other.rp_floor_rows,
                               self.rp_rows + other.rp_rows)


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
        lows = (self.beta_bounds[0], self.f_bounds[0], self.h_bounds[0])
        highs = (self.beta_bounds[1], self.f_bounds[1], self.h_bounds[1])
        return all(v > 0 for v in lows) and all(np.isfinite(v) for v in highs)

    @property
    def a2_pass(self) -> bool:
        lows = (self.tau_bounds[0], self.omega_bounds[0], self.q_bounds[0],
                self.r_bounds[0], self.info_bounds[0])
        highs = (self.tau_bounds[1], self.omega_bounds[1], self.q_bounds[1],
                 self.r_bounds[1], self.info_bounds[1])
        return all(v > 0 for v in lows) and all(np.isfinite(v) for v in highs)

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
    pil = np.linalg.matrix_power(pi.pi, max(rounds, 1))
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


def evaluate_run(record, scn_run, shape: str):
    """Per-step metric table (columns, values) of one tracked run.

    columns lists the (node, metric) labels: each node's metrics in node
    order, then the network columns; values is (steps, len(columns)).  Node -1
    carries network-level values: the centralized filter's single output and
    the per-step estimate disagreement of the distributed filters.  OSPA is
    scored for rectangles only, where the four vertices are well defined.
    Every metric is computed over the whole (steps, nodes) grid at once;
    estimated extents are wrapped and their semi-axes clamped to MIN_AXIS first.
    """
    if not np.isfinite(record.p_mean).all():
        _, where = _first_slice(~np.isfinite(record.p_mean).all(axis=-1), _TABLE_AXES)
        raise ValueError(f"extent estimate{where} entries must be finite")
    x_true, p_true = scn_run.x_true[:, None, :], scn_run.p_true[:, None, :]
    x_est, p_est = record.x_mean, clamp_extent(record.p_mean)
    e_p = record.p_mean - p_true
    e_p[..., 0] = wrap_angle(e_p[..., 0])
    per_node = {
        "pos_err": np.linalg.norm(x_est[..., :2] - x_true[..., :2], axis=-1),
        "gwd": gwd(x_est[..., :2], p_est, x_true[..., :2], p_true),
    }
    if shape == "rectangle":
        per_node["ospa"] = ospa_vertices(extent_vertices(x_est[..., :2], p_est),
                                         extent_vertices(x_true[..., :2], p_true))
    per_node["nees_kin"] = nees(x_est, record.x_cov, x_true)
    per_node["nees_ext"] = _mahalanobis(e_p, record.p_cov, "extent covariance")
    per_step, nodes = {}, [-1]
    if record.nodes > 1:
        per_step = {"acee_kin": acee(record.x_mean), "acee_ext": acee(record.p_mean)}
        nodes = list(range(record.nodes))
    columns = [(node, metric) for node in nodes for metric in per_node]
    columns += [(-1, metric) for metric in per_step]
    values = np.column_stack([np.stack(list(per_node.values()), axis=-1).reshape(record.steps, -1),
                              *per_step.values()])
    return columns, values


def write_metrics_csv(path, columns, values) -> None:
    """Write a (runs, steps, len(columns)) metric table as (run, step, node,
    metric, value) lines in %.9g, so equal inputs give byte-identical files."""
    block = "".join(f"{{0}},{{1}},{node},{metric},{{{i}:.9g}}\n"
                    for i, (node, metric) in enumerate(columns, start=2))
    with open(path, "w", newline="\n") as fh:
        fh.write("run,step,node,metric,value\n")
        for run, steps in enumerate(values.tolist()):
            for step, row in enumerate(steps):
                fh.write(block.format(run, step, *row))


def summarize_metrics(columns, values) -> dict[str, tuple[float, float, int]]:
    """Mean, standard deviation, and count per metric over every (run, step,
    node) sample of a (..., len(columns)) metric table."""
    out = {}
    for metric in sorted({metric for _, metric in columns}):
        vals = values[..., [m == metric for _, m in columns]].ravel()
        out[metric] = (float(vals.mean()), float(vals.std()), vals.size)
    return out


@dataclass(frozen=True)
class BoundedMseResult:
    mse_per_step: np.ndarray
    mid_mean: float
    tail_mean: float

    @property
    def bounded(self) -> bool:
        return self.tail_mean <= 2.0 * self.mid_mean


def bounded_mse_experiment(config, filter_config, steps: int, runs: int) -> BoundedMseResult:
    """Empirical mean-square kinematic error per step over Monte Carlo runs,
    all of them stacked in one filter pass.

    The tail (last quarter of the steps) is compared against the mid-run mean
    (second and third quarters): a bounded-error filter keeps the tail below
    twice the mid-run level.  Distributed filters require more than one
    consensus iteration here.
    """
    if steps < 8:
        raise ValueError("the tail/mid split needs at least 8 steps")
    if filter_config.kind is not FilterKind.CEOT and filter_config.consensus_iters <= 1:
        raise ValueError("boundedness experiments need more than one consensus iteration")
    config = config.with_overrides(steps=steps)
    net = resolve_network(config)
    pi = metropolis_weights(net)
    params = params_from_scenario(config, net)
    children = np.random.SeedSequence(config.seed).spawn(runs)
    scns = [build_scenario_run(config, net, child) for child in children]
    total = np.zeros(steps)
    for scn, record in zip(scns, run_filter(scns, net, params, filter_config, pi)):
        err = record.x_mean - scn.x_true[:, None, :]
        total += (err ** 2).sum(axis=2).mean(axis=1)
    mse = total / runs
    quarter = steps // 4
    mid = float(mse[quarter:steps - quarter].mean())
    tail = float(mse[steps - quarter:].mean())
    return BoundedMseResult(mse_per_step=mse, mid_mean=mid, tail_mean=tail)
