"""Sensor-network graph, Metropolis weights, and synchronous averaging rounds.

Nodes are either sensors (they detect the object) or pure communication
relays.  Edges connect nodes within communication radius; the graph must be
connected.  Averaging uses a doubly stochastic, primitive weight matrix so
repeated rounds drive every node to the network-wide mean.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "NodeKind",
    "SensorNetwork",
    "ConsensusMatrix",
    "build_network",
    "metropolis_weights",
    "check_primitive",
    "consensus_rounds",
]


class NodeKind(enum.Enum):
    SENSOR = "sensor"
    COMMUNICATION = "communication"


@dataclass(frozen=True)
class SensorNetwork:
    """Undirected geometric graph over sensor and communication nodes."""

    positions: np.ndarray
    kinds: tuple[NodeKind, ...]
    adjacency: np.ndarray
    comm_radius: float

    @property
    def size(self) -> int:
        return self.positions.shape[0]

    @property
    def degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=1)

    @property
    def sensor_nodes(self) -> tuple[int, ...]:
        return tuple(i for i, k in enumerate(self.kinds) if k is NodeKind.SENSOR)

    @property
    def communication_nodes(self) -> tuple[int, ...]:
        return tuple(i for i, k in enumerate(self.kinds) if k is NodeKind.COMMUNICATION)

    def neighbors(self, s: int) -> np.ndarray:
        """Neighboring node indices, excluding s itself."""
        return np.flatnonzero(self.adjacency[s])


@dataclass(frozen=True)
class ConsensusMatrix:
    """Doubly stochastic averaging weights supported on the network edges."""

    pi: np.ndarray
    tol: float = field(default=1e-12, repr=False)

    def __post_init__(self):
        pi = np.asarray(self.pi, dtype=float)
        object.__setattr__(self, "pi", pi)
        n = pi.shape[0]
        if pi.ndim != 2 or pi.shape != (n, n):
            raise ValueError("consensus matrix must be square")
        if pi.min() < -self.tol:
            raise ValueError("consensus weights must be nonnegative")
        if (np.abs(pi.sum(axis=0) - 1.0).max() > self.tol
                or np.abs(pi.sum(axis=1) - 1.0).max() > self.tol):
            raise ValueError("consensus matrix must be doubly stochastic")

    @property
    def size(self) -> int:
        return self.pi.shape[0]


def build_network(positions, kinds, comm_radius: float) -> SensorNetwork:
    """Connect every pair of nodes within comm_radius; reject disconnected graphs."""
    positions = np.asarray(positions, dtype=float)
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ValueError("positions must be an (n, 2) array")
    n = positions.shape[0]
    if n < 2:
        raise ValueError("a network needs at least 2 nodes")
    kinds = tuple(kinds)
    if len(kinds) != n:
        raise ValueError("one node kind per position is required")
    dist = np.linalg.norm(positions[:, None, :] - positions[None, :, :], axis=2)
    adjacency = (dist <= comm_radius) & ~np.eye(n, dtype=bool)
    # Nodes of one component reach exactly the same nodes within n - 1 hops.
    reach = _bool_mat_pow(adjacency | np.eye(n, dtype=bool), n - 1)
    pieces = np.unique(reach, axis=0).shape[0]
    if pieces != 1:
        raise ValueError(
            f"network is disconnected ({pieces} components) at radius {comm_radius}"
        )
    return SensorNetwork(
        positions=positions,
        kinds=kinds,
        adjacency=adjacency,
        comm_radius=float(comm_radius),
    )


def metropolis_weights(net: SensorNetwork) -> ConsensusMatrix:
    """Metropolis rule: 1 / (1 + max(deg s, deg j)) on edges, diagonal fills
    the row to 1.  Symmetric by construction, hence doubly stochastic."""
    deg = net.degrees
    n = net.size
    pi = np.zeros((n, n))
    for s in range(n):
        nbrs = net.neighbors(s)
        pi[s, nbrs] = 1.0 / (1.0 + np.maximum(deg[s], deg[nbrs]))
        pi[s, s] = 1.0 - pi[s].sum()
    return ConsensusMatrix(pi=pi)


def _bool_mat_pow(b: np.ndarray, power: int) -> np.ndarray:
    """Exact boolean-semiring matrix power via binary exponentiation."""
    result = np.eye(b.shape[0], dtype=bool)
    base = b.copy()
    while power:
        if power & 1:
            result = (result.astype(np.uint8) @ base.astype(np.uint8)) > 0
        base = (base.astype(np.uint8) @ base.astype(np.uint8)) > 0
        power >>= 1
    return result


def check_primitive(pi) -> bool:
    """True iff some power of the nonnegative matrix is entrywise positive.

    The Wielandt bound n^2 - 2n + 2 caps the power that needs checking.
    """
    if isinstance(pi, ConsensusMatrix):
        pi = pi.pi
    pi = np.asarray(pi, dtype=float)
    n = pi.shape[0]
    if pi.ndim != 2 or pi.shape != (n, n) or pi.min() < 0:
        raise ValueError("primitivity check needs a square nonnegative matrix")
    return bool(_bool_mat_pow(pi > 0, n * n - 2 * n + 2).all())


def consensus_rounds(values, pi, rounds: int) -> np.ndarray:
    """Run synchronous averaging rounds over per-node values.

    Every node's new value is the weighted combination of all neighbors'
    previous-round values (read-old / write-new), so the total sum is
    preserved each round by double stochasticity.  values is a vector (n,)
    with one entry per node, or a (..., n, k) stack whose row i of each
    (n, k) slice is node i's value; each slice is averaged on its own, so
    stacked problems never mix.
    """
    if isinstance(pi, ConsensusMatrix):
        pi = pi.pi
    pi = np.asarray(pi, dtype=float)
    if rounds < 0:
        raise ValueError("rounds must be nonnegative")
    out = np.array(values, dtype=float)
    nodes = out.shape[0] if out.ndim == 1 else out.shape[-2]
    if nodes != pi.shape[0]:
        raise ValueError(
            f"got {nodes} node values for a {pi.shape[0]}-node consensus matrix"
        )
    for _ in range(rounds):
        out = pi @ out
    return out
