import numpy as np
import pytest

from eotnet.consensus import (
    ConsensusMatrix,
    NodeKind,
    build_network,
    check_primitive,
    consensus_rounds,
    metropolis_weights,
)
from eotnet.scenario import benchmark_network


def line_network(spacing, n, radius):
    positions = np.stack([np.arange(n) * spacing, np.zeros(n)], axis=1)
    return build_network(positions, [NodeKind.SENSOR] * n, radius)


def complete_network(n):
    # nodes clustered well inside the radius
    positions = np.stack([np.arange(n) * 1.0, np.zeros(n)], axis=1)
    return build_network(positions, [NodeKind.SENSOR] * n, comm_radius=10.0 * n)


def test_build_network_pair():
    net = line_network(1000.0, 2, radius=2000.0)
    assert net.adjacency[0, 1] and net.adjacency[1, 0]
    assert net.degrees.tolist() == [1, 1]


def test_build_network_disconnected():
    with pytest.raises(ValueError, match="disconnected"):
        line_network(3000.0, 2, radius=2000.0)
    # two pairs and a lone node
    positions = np.array([[0.0, 0.0], [1000.0, 0.0], [5000.0, 0.0], [6000.0, 0.0],
                          [9000.0, 0.0]])
    with pytest.raises(ValueError, match=r"disconnected \(3 components\)"):
        build_network(positions, [NodeKind.SENSOR] * 5, 2000.0)


def test_build_network_too_small():
    with pytest.raises(ValueError):
        build_network(np.zeros((1, 2)), [NodeKind.SENSOR], 1.0)


def test_benchmark_network_shape():
    net = benchmark_network()
    assert net.size == 20
    assert len(net.sensor_nodes) == 6
    assert len(net.communication_nodes) == 14
    assert net.comm_radius == 2000.0
    assert net.degrees.min() >= 1


def test_metropolis_path():
    net = line_network(1.0, 3, radius=1.5)
    pi = metropolis_weights(net).pi
    assert pi[0, 1] == pytest.approx(1 / 3)
    assert pi[0, 0] == pytest.approx(2 / 3)
    assert pi[1, 1] == pytest.approx(1 / 3)
    assert pi[1, 0] == pytest.approx(1 / 3)
    assert pi[0, 2] == 0.0


def test_metropolis_complete_graph():
    pi = metropolis_weights(complete_network(3)).pi
    assert np.allclose(pi, np.full((3, 3), 1 / 3))


def test_metropolis_doubly_stochastic_and_supported():
    net = benchmark_network()
    cm = metropolis_weights(net)
    pi = cm.pi
    assert np.abs(pi.sum(axis=0) - 1).max() < 1e-12
    assert np.abs(pi.sum(axis=1) - 1).max() < 1e-12
    assert pi.min() >= 0
    off_support = ~net.adjacency & ~np.eye(net.size, dtype=bool)
    assert np.all(pi[off_support] == 0.0)


def test_consensus_matrix_validation():
    with pytest.raises(ValueError):
        ConsensusMatrix(pi=np.array([[0.5, 0.6], [0.5, 0.4]]))
    with pytest.raises(ValueError):
        ConsensusMatrix(pi=np.array([[1.5, -0.5], [-0.5, 1.5]]))


def test_check_primitive():
    assert check_primitive(metropolis_weights(complete_network(3)))
    assert not check_primitive(ConsensusMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])))  # period 2
    assert check_primitive(metropolis_weights(benchmark_network()))
    with pytest.raises(ValueError):
        check_primitive(ConsensusMatrix(np.array([[0.5, -0.5], [0.5, 0.5]])))


def test_consensus_rounds_uniform_average_k3():
    pi = metropolis_weights(complete_network(3))
    out = consensus_rounds(np.array([3.0, 6.0, 9.0]), pi, 1)
    assert np.allclose(out, [6.0, 6.0, 6.0])


def test_consensus_rounds_zero_is_identity():
    pi = metropolis_weights(benchmark_network())
    vals = np.arange(20.0)
    assert np.array_equal(consensus_rounds(vals, pi, 0), vals)


def test_consensus_rounds_sum_conserved_and_contracting():
    rng = np.random.default_rng(0)
    pi = metropolis_weights(benchmark_network())
    vals = rng.normal(size=(20, 4))
    total = vals.sum(axis=0)
    spread = vals.max(axis=0) - vals.min(axis=0)
    for _ in range(30):
        vals = consensus_rounds(vals, pi, 1)
        assert np.abs(vals.sum(axis=0) - total).max() < 1e-10
        new_spread = vals.max(axis=0) - vals.min(axis=0)
        assert np.all(new_spread <= spread + 1e-12)
        spread = new_spread


def test_consensus_rounds_matrix_values():
    # matrix entries are averaged as the flattened rows of an (n, k) buffer
    rng = np.random.default_rng(1)
    pi = metropolis_weights(benchmark_network())
    mats = rng.normal(size=(20, 3, 3))
    out = consensus_rounds(mats.reshape(20, 9), pi, 5).reshape(mats.shape)
    assert out.shape == (20, 3, 3)
    assert np.abs(out.sum(axis=0) - mats.sum(axis=0)).max() < 1e-10


def test_consensus_rounds_keeps_stacked_problems_apart():
    # each (n, k) slice of an (R, n, k) stack averages on its own, bit for bit
    rng = np.random.default_rng(4)
    pi = metropolis_weights(benchmark_network())
    for k in (1, 13, 32):
        stack = rng.normal(size=(3, 20, k))
        out = consensus_rounds(stack, pi, 4)
        for r in range(3):
            assert np.array_equal(out[r], consensus_rounds(stack[r], pi, 4))
        assert np.abs(out.sum(axis=1) - stack.sum(axis=1)).max() < 1e-10
    with pytest.raises(ValueError):
        consensus_rounds(np.zeros((3, 19, 2)), pi, 1)


def test_consensus_rounds_converges_to_average():
    rng = np.random.default_rng(2)
    pi = metropolis_weights(benchmark_network())
    vals = rng.uniform(1.0, 10.0, size=20)
    out = consensus_rounds(vals, pi, 200)
    avg = vals.mean()
    assert np.abs(out - avg).max() / abs(avg) < 1e-6


def test_consensus_rounds_shape_mismatch():
    pi = metropolis_weights(complete_network(3))
    with pytest.raises(ValueError):
        consensus_rounds(np.zeros(4), pi, 1)
    with pytest.raises(ValueError):
        consensus_rounds(np.zeros(3), pi, -1)
