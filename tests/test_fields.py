"""Tests for field observables, activity averages, and energy operators."""

import itertools

import numpy as np
import pytest

from qnetdyn import linalg
from qnetdyn.fields import (
    EnergyParams,
    FieldSpec,
    MeanFieldTrajectory,
    activity_amplitude_sum,
    activity_mean_field,
    build_field_operator,
    firing_hamiltonian,
    heisenberg_evolve,
    lowering_operator,
    mean_field_point,
    neural_activity_operator,
    quantum_average,
    raising_operator,
    total_hamiltonian,
)
from qnetdyn.network import QRNNParams, build_qrnn_map, iterate, run_trajectory


def random_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# field operators


def test_field_operator_examples():
    spec = FieldSpec(coeffs=(0.0, 1.0))
    assert np.array_equal(build_field_operator(spec, 0, 2), np.diag([0.0, 0, 1, 1]))
    assert np.array_equal(build_field_operator(spec, 1, 2), np.diag([0.0, 1, 0, 1]))
    ones = FieldSpec(coeffs=(1.0, 1.0))
    assert np.array_equal(build_field_operator(ones, 1, 2), np.eye(4))


def test_field_operator_three_levels():
    spec = FieldSpec(coeffs=(0.0, 1.0, 2.0))
    op = build_field_operator(spec, 1, 2)
    want = np.diag([float(digits[1]) for digits in itertools.product(range(3), repeat=2)])
    assert np.array_equal(op, want)


def test_field_operator_eigenvalue_relation():
    # operator maps a basis-s vector at site k to coeffs[s] times itself
    spec = FieldSpec(coeffs=(-1.5, 0.25))
    op = build_field_operator(spec, 1, 3)
    for digits in itertools.product(range(2), repeat=3):
        v = linalg.basis_state(digits, 2)
        assert np.array_equal(op @ v, spec.coeffs[digits[1]] * v)


def test_field_operator_rotated_basis():
    th = 0.4
    basis = np.array(
        [[np.cos(th), np.sin(th)], [-np.sin(th), np.cos(th)]], dtype=np.complex128
    )
    spec = FieldSpec(coeffs=(2.0, -3.0), basis=basis)
    op = build_field_operator(spec, 0, 1)
    assert linalg.check_hermitian(op, 1e-12)
    for s in (0, 1):
        resid = op @ basis[s] - spec.coeffs[s] * basis[s]
        assert np.max(np.abs(resid)) < 1e-12


def test_field_spec_validation():
    with pytest.raises(ValueError):
        FieldSpec(coeffs=(0.0, np.inf))
    with pytest.raises(ValueError):
        FieldSpec(coeffs=(0.0, 1.0), basis=np.array([[1, 0], [1, 0]], dtype=float))
    with pytest.raises(ValueError):
        build_field_operator(FieldSpec(coeffs=(0.0, 1.0)), 2, 2)
    with pytest.raises(linalg.DimensionError):
        build_field_operator(FieldSpec(coeffs=(0.0, 1.0)), 0, 2, l=3)


# ---------------------------------------------------------------------------
# activity operators and ladder algebra


def test_activity_operator_matrices():
    assert np.array_equal(neural_activity_operator(0, 2), np.diag([0.0, 0, 1, 1]))
    assert np.array_equal(neural_activity_operator(1, 2), np.diag([0.0, 1, 0, 1]))
    assert np.array_equal(neural_activity_operator(0, 1), np.diag([0.0, 1]))


def test_activity_operator_counts_firing_digit():
    for n in (1, 2, 3):
        for k in range(n):
            op = neural_activity_operator(k, n)
            for digits in itertools.product(range(2), repeat=n):
                v = linalg.basis_state(digits, 2)
                assert np.array_equal(op @ v, float(digits[k]) * v)


def test_activity_operators_commute():
    for j in range(3):
        for k in range(3):
            a = neural_activity_operator(j, 3)
            b = neural_activity_operator(k, 3)
            assert np.array_equal(a @ b, b @ a)


def test_ladder_anticommutators():
    a = lowering_operator()
    adag = raising_operator()
    assert np.array_equal(a @ adag + adag @ a, np.eye(2))
    assert np.array_equal(a @ a + a @ a, np.zeros((2, 2)))
    assert np.array_equal(adag @ adag + adag @ adag, np.zeros((2, 2)))
    assert np.array_equal(adag @ a, np.diag([0.0, 1.0]))
    assert np.array_equal(adag.conj().T, a)


def test_cached_activity_operator_is_readonly():
    op = neural_activity_operator(0, 2)
    with pytest.raises(ValueError):
        op[0, 0] = 5.0


# ---------------------------------------------------------------------------
# averages


def test_quantum_average_examples():
    n0 = neural_activity_operator(0, 2)
    n1 = neural_activity_operator(1, 2)
    assert quantum_average(n0, linalg.basis_state((1, 0), 2)) == 1.0
    assert abs(quantum_average(n0, linalg.uniform_state(2, 2)) - 0.5) < 1e-15
    v = np.zeros(4, dtype=np.complex128)
    v[1] = 3.0 / 5.0
    v[3] = 4.0j / 5.0
    assert abs(quantum_average(n1, v) - 1.0) < 1e-15


def test_quantum_average_guards():
    with pytest.raises(ValueError):
        quantum_average(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([1.0, 0.0]))
    with pytest.raises(linalg.DimensionError):
        quantum_average(np.eye(2), np.ones(3))
    # a deliberately skewed matrix admitted with a loose hermiticity
    # tolerance still trips the imaginary-residue guard
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
    v = np.array([1.0, 1.0j]) / np.sqrt(2)
    with pytest.raises(ValueError):
        quantum_average(skew, v, herm_tol=10.0)


def test_amplitude_sum_matches_operator_path():
    rng = np.random.default_rng(31)
    for n in (1, 2, 3):
        ops = [neural_activity_operator(k, n) for k in range(n)]
        for _ in range(25):
            v = random_state(rng, 2**n)
            fast = activity_mean_field(v, n, verify=True)
            slow = mean_field_point(v, ops)
            assert np.max(np.abs(fast - slow)) < 1e-12
            for k in range(n):
                assert abs(activity_amplitude_sum(v, k, n) - slow[k]) < 1e-12


def test_mean_field_of_a_block_equals_per_state_rows():
    rng = np.random.default_rng(32)
    for n in (1, 2, 3):
        for count in (0, 1, 2**n, 9):
            block = np.array([random_state(rng, 2**n) for _ in range(count)]).reshape(count, 2**n)
            rows = np.array([activity_mean_field(v, n) for v in block]).reshape(count, n)
            got = activity_mean_field(block, n, verify=True)
            assert got.shape == (count, n)
            assert got.tobytes() == rows.tobytes()
    with pytest.raises(linalg.DimensionError):
        activity_mean_field(np.zeros((3, 8)), 2)


def test_mean_field_examples():
    ops = [neural_activity_operator(k, 2) for k in range(2)]
    assert np.array_equal(mean_field_point(linalg.basis_state((1, 1), 2), ops), [1.0, 1.0])
    assert np.allclose(mean_field_point(linalg.uniform_state(2, 2), ops), [0.5, 0.5], atol=1e-15)
    m = build_qrnn_map(QRNNParams(1.0))
    stepped = iterate(m, linalg.uniform_state(2, 2), 1)
    assert np.allclose(mean_field_point(stepped, ops), [0.5, 0.5], atol=1e-12)


def test_trajectory_activity_stays_bounded():
    m = build_qrnn_map(QRNNParams(0.317))
    (points,) = run_trajectory(
        m,
        linalg.uniform_state(2, 2),
        transient=50,
        samples=400,
        observers=[lambda v: activity_mean_field(v, 2)],
    )
    traj = MeanFieldTrajectory(np.asarray(points))
    traj.validate_activity_bounds()
    assert traj.n == 2
    assert traj.samples == 400


def test_mean_field_trajectory_guards():
    with pytest.raises(linalg.DimensionError):
        MeanFieldTrajectory(np.zeros(5))
    bad = MeanFieldTrajectory(np.array([[0.5, 1.5]]))
    with pytest.raises(ValueError):
        bad.validate_activity_bounds()


# ---------------------------------------------------------------------------
# Heisenberg picture


def test_heisenberg_zero_steps_and_identity():
    m = build_qrnn_map(QRNNParams(0.66))
    n0 = neural_activity_operator(0, 2)
    assert np.array_equal(heisenberg_evolve(n0, m, 0), n0)
    assert np.allclose(heisenberg_evolve(np.eye(4), m, 17), np.eye(4), atol=1e-12)


def test_heisenberg_period_three():
    m = build_qrnn_map(QRNNParams(1.0))
    n0 = neural_activity_operator(0, 2)
    assert np.max(np.abs(heisenberg_evolve(n0, m, 3) - n0)) < 1e-10


def test_picture_equivalence():
    rng = np.random.default_rng(32)
    for r in (0.123, 0.550129597, 0.87):
        m = build_qrnn_map(QRNNParams(r))
        v0 = random_state(rng, 4)
        for t in (0, 1, 7, 50):
            vt = iterate(m, v0, t)
            for k in range(2):
                nk = neural_activity_operator(k, 2)
                moved = quantum_average(heisenberg_evolve(nk, m, t), v0, herm_tol=1e-10)
                stayed = quantum_average(nk, vt)
                assert abs(moved - stayed) < 1e-9


# ---------------------------------------------------------------------------
# energy


def test_energy_params_validation():
    EnergyParams.natural()
    EnergyParams.from_frequency(10.0)
    with pytest.raises(ValueError):
        EnergyParams(omega=1.0, hbar=1.0, f=1.0)
    with pytest.raises(ValueError):
        EnergyParams(omega=1.0, hbar=0.0, f=1.0 / (2 * np.pi))


def test_hamiltonian_eigenvalues():
    natural = EnergyParams.natural()
    h = total_hamiltonian(2, natural)
    assert quantum_average(h, linalg.basis_state((1, 1), 2)) == 2.0
    assert quantum_average(h, linalg.basis_state((0, 0), 2)) == 0.0
    assert np.array_equal(np.diag(h).real, [0.0, 1.0, 1.0, 2.0])

    fast = EnergyParams.from_frequency(10.0)
    hk = firing_hamiltonian(0, 2, fast)
    got = quantum_average(hk, linalg.basis_state((1, 0), 2), herm_tol=1e-9)
    assert abs(got - 20.0 * np.pi) < 1e-12


def test_total_is_sum_of_parts():
    params = EnergyParams.from_frequency(3.5, hbar=2.0)
    total = total_hamiltonian(3, params)
    parts = sum(firing_hamiltonian(k, 3, params) for k in range(3))
    assert np.array_equal(total, parts)
