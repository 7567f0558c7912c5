"""Sensor-network graph, Metropolis weights, and the consensus matrix.

Nodes are either sensors (they detect the object) or pure communication
relays.  Edges connect nodes within communication radius; the graph must be
connected.  Averaging uses a doubly stochastic, primitive weight matrix so
repeated rounds drive every node to the network-wide mean; L synchronous
rounds over per-node values are one product with ConsensusMatrix.power(L).
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


@dataclass(frozen=True)
class ConsensusMatrix:
    """Doubly stochastic averaging weights supported on the network edges.

    The weights are checked when the matrix is built: square, non-empty,
    finite, nonnegative, and every row and column summing to 1 (the doubly
    stochastic part of assumption A3) to within 1e-12.  They are then read-only.
    """

    pi: np.ndarray

    def __post_init__(self):
        pi = np.array(self.pi, dtype=float)
        pi.flags.writeable = False
        object.__setattr__(self, "pi", pi)
        if pi.ndim != 2 or pi.shape[0] != pi.shape[1] or not pi.size:
            raise ValueError(f"consensus matrix must be {'square' if pi.size else 'non-empty'}")
        if not np.isfinite(pi).all():
            raise ValueError("consensus weights must be finite")
        if pi.min() < -_TOL:
            raise ValueError("consensus weights must be nonnegative")
        if (np.abs(pi.sum(axis=0) - 1.0).max() > _TOL
                or np.abs(pi.sum(axis=1) - 1.0).max() > _TOL):
            raise ValueError("consensus matrix must be doubly stochastic")

    def __reduce__(self):
        # Rebuilt through the constructor, so a copy in another process is
        # read-only and checked again.
        return ConsensusMatrix, (self.pi,)

    @property
    def size(self) -> int:
        return self.pi.shape[0]

    def power(self, rounds: int) -> np.ndarray:
        """pi^rounds, a new matrix, for an integer rounds >= 0: the one map of those rounds."""
        if isinstance(rounds, bool) or not isinstance(rounds, (int, np.integer)) or rounds < 0:
            raise ValueError(f"rounds must be a non-negative integer, got {rounds!r}")
        # matrix_power returns the read-only pi itself for one round.
        return np.array(np.linalg.matrix_power(self.pi, rounds))


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
    reach = _closure(adjacency | np.eye(n, dtype=bool), n - 1)
    if not reach.all():
        # Nodes of one component reach exactly the same nodes.
        pieces = np.unique(reach, axis=0).shape[0]
        raise ValueError(f"network is disconnected ({pieces} components) at radius {comm_radius}")
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


def _closure(b: np.ndarray, walks: int) -> np.ndarray:
    """Boolean b squared through BLAS until every entry is set, a square
    changes nothing, or its entries count walks of length >= walks."""
    # Each square is taken of b as 0/1 float64: its entries count walks, at
    # most n, and float64 holds every count below 2^53 exactly, so its > 0 is
    # the boolean square at any size, and nothing can wrap.
    # A positive power stays positive (b then has no zero row or column),
    # and a square that changes nothing is every higher power; so .all() is
    # the verdict of b^walks when walks is a bound by which a positive power
    # appears if any does.  With b's diagonal set, b^walks for walks >= n - 1
    # is the reachability, and so is a fixed square.  After k squarings,
    # walks is the original walks / 2^k, rounded up.
    while walks > 1 and not b.all():
        b, last, walks = b.astype(float) @ b.astype(float) > 0, b, (walks + 1) // 2
        if np.array_equal(b, last):
            break
    return b


def check_primitive(pi: ConsensusMatrix) -> bool:
    """True iff some power of the weight matrix is entrywise positive.

    The Wielandt bound n^2 - 2n + 2 caps the power that needs checking.
    """
    n = pi.size
    return bool(_closure(pi.pi > 0, n * n - 2 * n + 2).all())
