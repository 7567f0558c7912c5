import pickle
import re

import numpy as np
import pytest

from eotnet.consensus import (
    ConsensusMatrix,
    NodeKind,
    SensorNetwork,
    build_network,
    check_primitive,
    metropolis_weights,
)
from eotnet.scenario import benchmark_network
from oracles import _averaged, components_by_search, primitive_by_power


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


@pytest.mark.parametrize("positions", [np.zeros((3, 3)), np.zeros(3), np.zeros((2, 2, 2))])
def test_build_network_needs_planar_positions(positions):
    with pytest.raises(ValueError, match=r"^positions must be an \(n, 2\) array$"):
        build_network(positions, [NodeKind.SENSOR] * 3, 1.0)


def test_build_network_needs_one_kind_per_position():
    with pytest.raises(ValueError, match="^one node kind per position is required$"):
        build_network(np.zeros((3, 2)), [NodeKind.SENSOR] * 2, 1.0)


def assert_network_verdict(positions, radius):
    """build_network accepts a geometric graph exactly when a breadth-first
    search finds one component, and names the count it finds otherwise.
    Returns the graph, connected or not, and that count."""
    n = len(positions)
    adjacency = ((np.linalg.norm(positions[:, None] - positions[None], axis=2) <= radius)
                 & ~np.eye(n, dtype=bool))
    pieces = len(components_by_search(adjacency))
    if pieces == 1:
        assert np.array_equal(build_network(positions, [NodeKind.SENSOR] * n, radius).adjacency,
                              adjacency)
    else:
        message = f"network is disconnected ({pieces} components) at radius {radius}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build_network(positions, [NodeKind.SENSOR] * n, radius)
    return SensorNetwork(positions, (NodeKind.SENSOR,) * n, adjacency, radius), pieces


def assert_primitive_verdict(pi):
    verdict = check_primitive(pi)
    assert verdict is primitive_by_power(pi.pi)
    return verdict


def two_clusters(n):
    """Two complete n-node clusters 1000 m apart at radius 1.0, no edge between."""
    return np.concatenate([np.zeros((n, 2)), np.full((n, 2), 1000.0)]), 1.0


@pytest.mark.parametrize("n", [2, 3, 4, 6, 9, 17, 40, 90, 200, 600])
def test_network_checks_match_the_oracles_on_random_graphs(n):
    # Geometric graphs about the connectivity radius, so that some split;
    # Metropolis weights over their edges, split or not; and averages of
    # random permutations, reducible, periodic or primitive.
    rng = np.random.default_rng(27 + n)
    for _ in range(4 if n < 100 else 1):
        positions = rng.uniform(0.0, 1000.0, (n, 2))
        radius = float(1000.0 * np.sqrt(np.log(n + 1) / n) * rng.uniform(0.3, 1.5))
        net, _ = assert_network_verdict(positions, radius)
        assert_primitive_verdict(metropolis_weights(net))
        if n < 100:  # a periodic matrix is squared up to the Wielandt bound
            mixes = int(rng.integers(1, 4))
            assert_primitive_verdict(ConsensusMatrix(
                sum(np.eye(n)[rng.permutation(n)] for _ in range(mixes)) / mixes))
    if n < 100:  # the n-cycle has period n
        assert not assert_primitive_verdict(ConsensusMatrix(np.roll(np.eye(n), 1, axis=1)))


@pytest.mark.parametrize("n", [256, 512])
def test_network_checks_count_past_a_byte(n):
    # Every entry of a square of a complete n-node support counts n walks,
    # and the 512-node pair of clusters is refused as
    # "network is disconnected (2 components) at radius 1.0".
    assert assert_primitive_verdict(ConsensusMatrix(np.full((n, n), 1.0 / n)))
    net, pieces = assert_network_verdict(np.zeros((n, 2)), 1.0)
    assert pieces == 1 and assert_primitive_verdict(metropolis_weights(net))
    net, pieces = assert_network_verdict(*two_clusters(n // 2))
    assert pieces == 2 and not assert_primitive_verdict(metropolis_weights(net))


def test_benchmark_network_checks_match_the_oracles():
    net = benchmark_network()
    again, pieces = assert_network_verdict(net.positions, net.comm_radius)
    assert pieces == 1 and np.array_equal(again.adjacency, net.adjacency)
    assert assert_primitive_verdict(metropolis_weights(net))


def test_benchmark_network_shape():
    net = benchmark_network()
    assert net.size == 20
    assert len(net.sensor_nodes) == 6
    assert net.kinds.count(NodeKind.COMMUNICATION) == 14
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
    with pytest.raises(ValueError, match="^consensus matrix must be doubly stochastic$"):
        ConsensusMatrix(pi=np.array([[0.5, 0.6], [0.5, 0.4]]))
    with pytest.raises(ValueError, match="^consensus weights must be nonnegative$"):
        ConsensusMatrix(pi=np.array([[1.5, -0.5], [-0.5, 1.5]]))
    # NaN fails every comparison, so the other checks would let it through.
    for bad in (np.full((2, 2), np.nan), np.array([[np.inf, 0.0], [0.0, 1.0]])):
        with pytest.raises(ValueError, match="^consensus weights must be finite$"):
            ConsensusMatrix(bad)
    for bad in (np.full((2, 3), 1 / 3), np.ones(2), np.ones((1, 1, 1))):
        with pytest.raises(ValueError, match="^consensus matrix must be square$"):
            ConsensusMatrix(bad)
    # An empty matrix used to fail in the nonnegativity check's bare reduction.
    for bad in (np.zeros((0, 0)), np.zeros((0, 3)), []):
        with pytest.raises(ValueError, match="^consensus matrix must be non-empty$"):
            ConsensusMatrix(bad)


def test_check_primitive():
    assert check_primitive(metropolis_weights(complete_network(3)))
    assert not check_primitive(ConsensusMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])))  # period 2
    assert check_primitive(metropolis_weights(benchmark_network()))
    with pytest.raises(ValueError):
        check_primitive(ConsensusMatrix(np.array([[0.5, -0.5], [0.5, 0.5]])))


def explicit_rounds(values, net, pi, rounds):
    """rounds of averaging over per-node values (n, ...), one node and one
    neighbour at a time, by the oracle."""
    values = np.asarray(values, dtype=float)
    return np.stack([row[0] for row in _averaged([[v] for v in values], net, pi, rounds)])


# L consensus rounds are the one product pi.power(L) @ values the scan applies.


def test_one_round_averages_a_complete_network():
    net = complete_network(3)
    pi = metropolis_weights(net)
    out = pi.power(1) @ np.array([3.0, 6.0, 9.0])
    assert np.allclose(out, [6.0, 6.0, 6.0])
    assert np.allclose(out, explicit_rounds([3.0, 6.0, 9.0], net, pi, 1), rtol=1e-15)


def test_zero_rounds_are_the_identity():
    pi = metropolis_weights(benchmark_network())
    vals = np.arange(20.0)
    assert np.array_equal(pi.power(0) @ vals, vals)


def test_rounds_conserve_the_sum_and_contract():
    rng = np.random.default_rng(0)
    net = benchmark_network()
    pi = metropolis_weights(net)
    vals = rng.normal(size=(20, 4))
    total = vals.sum(axis=0)
    spread = vals.max(axis=0) - vals.min(axis=0)
    for _ in range(30):
        want = explicit_rounds(vals, net, pi, 1)
        vals = pi.power(1) @ vals
        assert np.abs(vals - want).max() <= 1e-12 * np.abs(want).max()
        assert np.abs(vals.sum(axis=0) - total).max() < 1e-10
        new_spread = vals.max(axis=0) - vals.min(axis=0)
        assert np.all(new_spread <= spread + 1e-12)
        spread = new_spread


def test_rounds_average_matrix_values_entry_by_entry():
    # matrix entries are averaged as the flattened rows of an (n, k) buffer
    rng = np.random.default_rng(1)
    net = benchmark_network()
    pi = metropolis_weights(net)
    mats = rng.normal(size=(20, 3, 3))
    out = (pi.power(5) @ mats.reshape(20, 9)).reshape(mats.shape)
    want = explicit_rounds(mats, net, pi, 5)
    assert np.abs(out - want).max() <= 1e-12 * np.abs(want).max()
    assert np.abs(out.sum(axis=0) - mats.sum(axis=0)).max() < 1e-10


def test_rounds_keep_stacked_problems_apart():
    # each (n, k) slice of an (R, n, k) stack averages on its own, bit for bit
    rng = np.random.default_rng(4)
    net = benchmark_network()
    pi = metropolis_weights(net)
    for k in (1, 13, 32):
        stack = rng.normal(size=(3, 20, k))
        out = pi.power(4) @ stack
        for r in range(3):
            assert np.array_equal(out[r], pi.power(4) @ stack[r])
            want = explicit_rounds(stack[r], net, pi, 4)
            assert np.abs(out[r] - want).max() <= 1e-12 * np.abs(want).max()
        assert np.abs(out.sum(axis=1) - stack.sum(axis=1)).max() < 1e-10


def test_rounds_converge_to_the_average():
    rng = np.random.default_rng(2)
    pi = metropolis_weights(benchmark_network())
    vals = rng.uniform(1.0, 10.0, size=20)
    out = pi.power(200) @ vals
    avg = vals.mean()
    assert np.abs(out - avg).max() / abs(avg) < 1e-6


def test_a_pickled_consensus_matrix_is_read_only_and_checked():
    # The CLI's worker pool pickles the weights; the copy is built again.
    pi = metropolis_weights(benchmark_network())
    copy = pickle.loads(pickle.dumps(pi))
    assert np.array_equal(copy.pi, pi.pi) and not copy.pi.flags.writeable
    assert np.array_equal(copy.power(3), pi.power(3))
    with pytest.raises(ValueError, match="assignment destination is read-only"):
        copy.pi[0, 0] = 2.0


@pytest.mark.parametrize("rounds", [0, 1, 3])
def test_power_is_a_new_writable_array(rounds):
    # numpy's matrix_power returns the read-only weights themselves for one round.
    pi = metropolis_weights(benchmark_network())
    power = pi.power(rounds)
    assert power.flags.writeable and not np.shares_memory(power, pi.pi)
    assert np.array_equal(power, np.linalg.matrix_power(pi.pi, rounds))


@pytest.mark.parametrize("rounds", [2.5, 2.0, True, np.float64(1.0), -1, np.int64(-2)])
def test_power_takes_only_a_non_negative_integer(rounds):
    pi = metropolis_weights(complete_network(3))
    message = f"rounds must be a non-negative integer, got {rounds!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        pi.power(rounds)
    assert np.array_equal(pi.power(np.int64(2)), pi.pi @ pi.pi)
