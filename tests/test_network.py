"""Tests for gate construction, map composition, and iteration.

The two-neuron reference map has fully worked closed forms (per-gate
matrices, the composed map, and per-amplitude recursions); those are the
oracles here, plus structural checks for the general n-neuron builder.
"""

import numpy as np
import pytest

from qnetdyn import linalg
from qnetdyn.network import (
    BLOCK_SIZE,
    ActivationOrder,
    ConditionalGateSpec,
    NetworkTopology,
    QRNNParams,
    UnitaryNeuralMap,
    build_conditional_gate,
    build_qrnn_map,
    compose_neural_map,
    iterate,
    qrnn_rotation,
    qrnn_topology,
    run_trajectory,
)


def closed_form_gate1(r):
    """Neuron 1's gate: rotate site 1 iff site 0 fires."""
    c = np.cos(r * np.pi / 2)
    s = np.sin(r * np.pi / 2)
    return np.array(
        [
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, c, -s],
            [0, 0, s, c],
        ],
        dtype=np.complex128,
    )


def closed_form_gate0(r):
    """Neuron 0's gate: rotate site 0 iff site 1 fires."""
    c = np.cos(r * np.pi / 2)
    s = np.sin(r * np.pi / 2)
    return np.array(
        [
            [1, 0, 0, 0],
            [0, c, 0, -s],
            [0, 0, 1, 0],
            [0, s, 0, c],
        ],
        dtype=np.complex128,
    )


def closed_form_map(r):
    c = np.cos(r * np.pi / 2)
    s = np.sin(r * np.pi / 2)
    return np.array(
        [
            [1, 0, 0, 0],
            [0, c, -s * s, -s * c],
            [0, 0, c, -s],
            [0, s, s * c, c * c],
        ],
        dtype=np.complex128,
    )


def random_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# topology and spec validation


def test_topology_validation():
    topo = qrnn_topology()
    assert topo.dim == 4
    assert topo.in_neighbors(0) == (1,)
    assert topo.in_neighbors(1) == (0,)
    with pytest.raises(ValueError):
        NetworkTopology(n=0, l=2)
    with pytest.raises(ValueError):
        NetworkTopology(n=2, l=1)
    with pytest.raises(ValueError):
        NetworkTopology(n=2, l=2, edges=frozenset({(0, 0)}))
    with pytest.raises(ValueError):
        NetworkTopology(n=2, l=2, edges=frozenset({(0, 2)}))
    with pytest.raises(linalg.DimensionError):
        NetworkTopology(n=21, l=2)


def test_activation_order_validation():
    ActivationOrder(perm=(1, 0))
    with pytest.raises(ValueError):
        ActivationOrder(perm=(0, 0))
    with pytest.raises(ValueError):
        ActivationOrder(perm=(1, 2))


def test_qrnn_params_range():
    QRNNParams(r=0.0)
    QRNNParams(r=1.0)
    with pytest.raises(ValueError):
        QRNNParams(r=-0.1)
    with pytest.raises(ValueError):
        QRNNParams(r=1.1)


# ---------------------------------------------------------------------------
# conditional gates


def test_qrnn_gates_match_closed_forms():
    topo = qrnn_topology()
    for r in (0.0, 0.25, 0.550129597, 1.0):
        table = {(0,): linalg.identity(2), (1,): qrnn_rotation(r)}
        g1 = build_conditional_gate(ConditionalGateSpec(1, (0,), table), topo)
        g0 = build_conditional_gate(ConditionalGateSpec(0, (1,), table), topo)
        assert np.max(np.abs(g1 - closed_form_gate1(r))) < 1e-15
        assert np.max(np.abs(g0 - closed_form_gate0(r))) < 1e-15
        assert linalg.check_unitary(g0, 1e-12)
        assert linalg.check_unitary(g1, 1e-12)


def test_identity_table_gives_identity_gate():
    topo = qrnn_topology()
    table = {(0,): linalg.identity(2), (1,): linalg.identity(2)}
    g = build_conditional_gate(ConditionalGateSpec(0, (1,), table), topo)
    assert np.array_equal(g, linalg.identity(4))


def test_gate_with_no_inputs_is_local():
    topo = NetworkTopology(n=2, l=2, edges=frozenset())
    u = qrnn_rotation(0.3)
    g = build_conditional_gate(ConditionalGateSpec(0, (), {(): u}), topo)
    assert np.array_equal(g, np.kron(u, np.eye(2)))


def test_gate_three_site_structure():
    # ring 0 -> 1 -> 2 -> 0: neuron 1's gate conditions on site 0 only
    topo = NetworkTopology(n=3, l=2, edges=frozenset({(0, 1), (1, 2), (2, 0)}))
    a = qrnn_rotation(0.2)
    b = qrnn_rotation(0.7)
    g = build_conditional_gate(ConditionalGateSpec(1, (0,), {(0,): a, (1,): b}), topo)
    p0 = np.diag([1.0, 0.0])
    p1 = np.diag([0.0, 1.0])
    want = np.kron(p0, np.kron(a, np.eye(2))) + np.kron(p1, np.kron(b, np.eye(2)))
    assert np.array_equal(g, want)


def test_gate_two_input_structure():
    topo = NetworkTopology(n=3, l=2, edges=frozenset({(0, 2), (1, 2)}))
    units = {
        (0, 0): linalg.identity(2),
        (0, 1): qrnn_rotation(0.1),
        (1, 0): qrnn_rotation(0.6),
        (1, 1): qrnn_rotation(0.9),
    }
    g = build_conditional_gate(ConditionalGateSpec(2, (0, 1), units), topo)
    want = np.zeros((8, 8), dtype=np.complex128)
    for (s0, s1), u in units.items():
        pa = np.zeros((2, 2)); pa[s0, s0] = 1.0
        pb = np.zeros((2, 2)); pb[s1, s1] = 1.0
        want += np.kron(pa, np.kron(pb, u))
    assert np.max(np.abs(g - want)) == 0.0
    assert linalg.check_unitary(g, 1e-12)


def test_gate_rejects_bad_specs():
    topo = qrnn_topology()
    good = {(0,): linalg.identity(2), (1,): qrnn_rotation(0.4)}
    with pytest.raises(ValueError):
        # inputs do not match the topology's in-neighbors
        build_conditional_gate(ConditionalGateSpec(0, (0,), good), topo)
    with pytest.raises(ValueError):
        build_conditional_gate(ConditionalGateSpec(0, (1,), {(0,): linalg.identity(2)}), topo)
    bad = {(0,): linalg.identity(2), (1,): np.diag([1.0, 2.0])}
    with pytest.raises(ValueError):
        build_conditional_gate(ConditionalGateSpec(0, (1,), bad), topo)


# ---------------------------------------------------------------------------
# composed maps


def test_qrnn_map_matches_closed_form():
    for r in (0.0, 0.1, 0.25, 0.550129597, 0.8, 1.0):
        m = build_qrnn_map(QRNNParams(r))
        assert np.max(np.abs(m.matrix - closed_form_map(r))) < 1e-12
        assert linalg.check_unitary(m.matrix, 1e-10)
    assert build_qrnn_map(QRNNParams(0.0)).params["r"] == 0.0


def test_qrnn_map_special_points():
    f0 = build_qrnn_map(QRNNParams(0.0)).matrix
    assert np.max(np.abs(f0 - np.eye(4))) < 1e-15

    f1 = build_qrnn_map(QRNNParams(1.0)).matrix
    want = np.zeros((4, 4))
    want[0, 0] = 1.0
    want[1, 2] = -1.0
    want[2, 3] = -1.0
    want[3, 1] = 1.0
    assert np.max(np.abs(f1 - want)) < 1e-15

    fh = build_qrnn_map(QRNNParams(0.5)).matrix
    assert abs(fh[2, 2] - np.sqrt(2) / 2) < 1e-15
    assert abs(fh[2, 3] + np.sqrt(2) / 2) < 1e-15


def test_amplitude_recursions():
    rng = np.random.default_rng(21)
    for r in (0.1, 0.37, 0.550129597, 0.93):
        c = np.cos(r * np.pi / 2)
        s = np.sin(r * np.pi / 2)
        m = build_qrnn_map(QRNNParams(r))
        for _ in range(20):
            psi = random_state(rng, 4)
            nxt = m.matrix @ psi
            want = np.array(
                [
                    psi[0],
                    c * psi[1] - s * s * psi[2] - s * c * psi[3],
                    c * psi[2] - s * psi[3],
                    s * psi[1] + c * s * psi[2] + c * c * psi[3],
                ]
            )
            assert np.max(np.abs(nxt - want)) < 1e-12


def test_activation_order_matters():
    topo = qrnn_topology()
    table = {(0,): linalg.identity(2), (1,): qrnn_rotation(0.37)}
    g0 = build_conditional_gate(ConditionalGateSpec(0, (1,), table), topo)
    g1 = build_conditional_gate(ConditionalGateSpec(1, (0,), table), topo)
    first1 = compose_neural_map([g0, g1], ActivationOrder((1, 0))).matrix
    first0 = compose_neural_map([g0, g1], ActivationOrder((0, 1))).matrix
    assert np.max(np.abs(first1 - first0)) > 1e-3


def test_compose_single_gate():
    u = qrnn_rotation(0.42)
    m = compose_neural_map([u], ActivationOrder((0,)))
    assert np.array_equal(m.matrix, u.astype(np.complex128))


def test_compose_identity_gates():
    m = compose_neural_map([np.eye(4), np.eye(4)], ActivationOrder((0, 1)))
    assert np.array_equal(m.matrix, np.eye(4))


def test_compose_rejects_bad_gates():
    with pytest.raises(linalg.DimensionError):
        compose_neural_map([np.eye(4), np.eye(2)], ActivationOrder((0, 1)))
    with pytest.raises(ValueError):
        compose_neural_map([np.eye(4) * 2, np.eye(4)], ActivationOrder((0, 1)))


# ---------------------------------------------------------------------------
# iteration


def test_iterate_zero_steps_returns_input():
    m = build_qrnn_map(QRNNParams(0.7))
    v = linalg.uniform_state(2, 2)
    out = iterate(m, v, 0)
    assert np.array_equal(out, v)


def test_fixed_point_at_zero_rotation():
    m = build_qrnn_map(QRNNParams(0.0))
    rng = np.random.default_rng(22)
    v = random_state(rng, 4)
    out = iterate(m, v, 1000)
    assert np.array_equal(out, v)


def test_period_three_at_full_rotation():
    m = build_qrnn_map(QRNNParams(1.0))
    rng = np.random.default_rng(23)
    v = random_state(rng, 4)
    states = [v]
    for _ in range(1003):
        states.append(m.matrix @ states[-1])
    for t in range(1000):
        assert np.max(np.abs(states[t + 3] - states[t])) < 1e-9


def test_iterate_norm_guard():
    m = build_qrnn_map(QRNNParams(0.3))
    with pytest.raises(ValueError):
        iterate(m, np.array([0.9, 0, 0, 0]), 5)
    with pytest.raises(ValueError):
        iterate(m, linalg.uniform_state(2, 2), -1)


def test_long_run_norm_drift_stays_small():
    m = build_qrnn_map(QRNNParams(0.550129597))
    v = iterate(m, linalg.uniform_state(2, 2), 30000)
    assert abs(linalg.norm(v) - 1.0) < 1e-10


# ---------------------------------------------------------------------------
# trajectory protocol


def test_trajectory_records_initial_state_first():
    m = build_qrnn_map(QRNNParams(0.9))
    v0 = linalg.uniform_state(2, 2)
    (taps,) = run_trajectory(m, v0, transient=0, samples=1, observers=[np.copy])
    assert np.array_equal(taps[0], v0)


def test_trajectory_sample_alignment():
    m = build_qrnn_map(QRNNParams(0.31))
    v0 = linalg.uniform_state(2, 2)
    (taps,) = run_trajectory(m, v0, transient=5, samples=4, observers=[np.copy])
    for i, state in enumerate(taps):
        assert np.allclose(state, iterate(m, v0, 5 + i), atol=1e-14)


def test_trajectory_multiple_observers_and_determinism():
    m = build_qrnn_map(QRNNParams(0.47))
    v0 = linalg.basis_state((1, 0), 2)
    obs = [lambda block: np.abs(block[:, 3]) ** 2, np.copy]
    a1, b1 = run_trajectory(m, v0, 7, 13, obs)
    a2, b2 = run_trajectory(m, v0, 7, 13, obs)
    assert np.array_equal(a1, a2)
    assert all(np.array_equal(x, y) for x, y in zip(b1, b2))
    assert len(a1) == 13


def test_trajectory_period_three_series():
    m = build_qrnn_map(QRNNParams(1.0))
    v0 = linalg.as_state(np.array([0.5, 0.5, 0.5, 0.5]))
    (probs,) = run_trajectory(
        m, v0, 0, 6, observers=[lambda block: np.round(np.abs(block) ** 2, 12)]
    )
    assert np.array_equal(probs[0], probs[3])
    assert np.array_equal(probs[1], probs[4])
    assert np.array_equal(probs[2], probs[5])


def test_trajectory_rejects_negative_counts():
    m = build_qrnn_map(QRNNParams(0.2))
    with pytest.raises(ValueError):
        run_trajectory(m, linalg.uniform_state(2, 2), -1, 5, [])


@pytest.mark.parametrize(
    "samples", [0, 1, BLOCK_SIZE - 1, BLOCK_SIZE, BLOCK_SIZE + 1, 2 * BLOCK_SIZE + 3]
)
def test_trajectory_blocks_match_plain_iteration(samples):
    m = build_qrnn_map(QRNNParams(0.550129597))
    v0 = linalg.uniform_state(2, 2)
    want = np.empty((samples, 4), dtype=np.complex128)
    v = v0
    for _ in range(3):
        v = m.matrix @ v
    for i in range(samples):
        want[i] = v
        v = m.matrix @ v
    seen = []

    def record(block):
        seen.append(block.shape[0])
        return block.copy()

    (states, sq) = run_trajectory(m, v0, 3, samples, [record, lambda b: np.abs(b) ** 2])
    assert states.shape == (samples, 4)
    assert states.tobytes() == want.tobytes()
    assert sq.tobytes() == (np.abs(want) ** 2).tobytes()
    assert sum(seen) == samples
    assert max(seen) <= BLOCK_SIZE
    assert len(seen) == max(1, -(-samples // BLOCK_SIZE))


def test_trajectory_blocks_are_read_only_and_row_counts_checked():
    m = build_qrnn_map(QRNNParams(0.3))
    v0 = linalg.uniform_state(2, 2)

    def mutate(block):
        block[0] = 0.0
        return block

    with pytest.raises(ValueError):
        run_trajectory(m, v0, 0, 5, [mutate])
    with pytest.raises(ValueError, match="rows"):
        run_trajectory(m, v0, 0, 5, [lambda block: block[:-1]])


def test_trajectory_raises_on_norm_drift():
    base = build_qrnn_map(QRNNParams(0.550129597))
    # the norm grows by 1e-12 per step and crosses the 1e-10 drift bound
    # after about 100 applications
    leaky = UnitaryNeuralMap(
        matrix=(1.0 + 1e-12) * base.matrix, topology=None, order=base.order
    )
    v0 = linalg.uniform_state(2, 2)
    (short,) = run_trajectory(leaky, v0, 0, 50, [np.copy])
    assert short.shape == (50, 4)
    blocks = []
    with pytest.raises(RuntimeError, match="norm drifted"):
        run_trajectory(leaky, v0, 0, BLOCK_SIZE + 10, [blocks.append])
    assert blocks == []
    with pytest.raises(RuntimeError, match="norm drifted"):
        run_trajectory(leaky, v0, BLOCK_SIZE, 10, [blocks.append])
    assert blocks == []
