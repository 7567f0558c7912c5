"""Sensor-network graph, Metropolis weights, and synchronous averaging rounds.

Nodes are either sensors (they detect the object) or pure communication
relays.  Edges connect nodes within communication radius; the graph must be
connected.  Averaging uses a doubly stochastic, primitive weight matrix so
repeated rounds drive every node to the network-wide mean.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

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

# Rounding slack of the doubly-stochastic check on weights and their sums.
_TOL = 1e-12


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


@dataclass(frozen=True)
class ConsensusMatrix:
    """Doubly stochastic averaging weights supported on the network edges.

    The weights are checked when the matrix is built: square, nonnegative,
    and every row and column sums to 1 (the doubly stochastic part of the
    stability assumption A3), each to within 1e-12.
    """

    pi: np.ndarray

    def __post_init__(self):
        pi = np.asarray(self.pi, dtype=float)
        object.__setattr__(self, "pi", pi)
        if pi.ndim != 2 or pi.shape[0] != pi.shape[1]:
            raise ValueError("consensus matrix must be square")
        if pi.min() < -_TOL:
            raise ValueError("consensus weights must be nonnegative")
        if (np.abs(pi.sum(axis=0) - 1.0).max() > _TOL
                or np.abs(pi.sum(axis=1) - 1.0).max() > _TOL):
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
    pi = np.where(net.adjacency, 1.0 / (1.0 + np.maximum.outer(deg, deg)), 0.0)
    np.fill_diagonal(pi, 1.0 - pi.sum(axis=1))
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


def check_primitive(pi: ConsensusMatrix) -> bool:
    """True iff some power of the weight matrix is entrywise positive.

    The Wielandt bound n^2 - 2n + 2 caps the power that needs checking.
    """
    n = pi.size
    return bool(_bool_mat_pow(pi.pi > 0, n * n - 2 * n + 2).all())


def consensus_rounds(values, pi: ConsensusMatrix, rounds: int) -> np.ndarray:
    """Run synchronous averaging rounds over per-node values.

    Every node's new value is the weighted combination of all neighbors'
    previous-round values (read-old / write-new), so the total sum is
    preserved each round by double stochasticity.  values is a vector (n,)
    with one entry per node, or a (..., n, k) stack whose row i of each
    (n, k) slice is node i's value; each slice is averaged on its own, so
    stacked problems never mix.
    """
    if rounds < 0:
        raise ValueError("rounds must be nonnegative")
    out = np.array(values, dtype=float)
    nodes = out.shape[0] if out.ndim == 1 else out.shape[-2]
    if nodes != pi.size:
        raise ValueError(f"got {nodes} node values for a {pi.size}-node consensus matrix")
    for _ in range(rounds):
        out = pi.pi @ out
    return out
