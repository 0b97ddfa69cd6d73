"""Tests for field observables and activity averages."""

import itertools

import numpy as np
import pytest

from qnetdyn import linalg
from qnetdyn.fields import (
    FieldSpec,
    activity_mean_field,
    build_field_operator,
    check_activity_bounds,
    heisenberg_evolve,
    neural_activity_operator,
    quantum_average,
)
from qnetdyn.network import QRNNParams, build_qrnn_map, run_trajectory


def random_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def operator_mean_field(v, n):
    """Per-site activity as the operator average <v|N_k|v>: the oracle for
    the amplitude-sum path."""
    return np.array([quantum_average(neural_activity_operator(k, n), v) for k in range(n)])


# ---------------------------------------------------------------------------
# field operators


def test_field_operator_examples():
    spec = FieldSpec(coeffs=(0.0, 1.0))
    assert np.array_equal(build_field_operator(spec, 0, 2), np.diag([0.0, 0, 1, 1]))
    assert np.array_equal(build_field_operator(spec, 1, 2), np.diag([0.0, 1, 0, 1]))
    ones = FieldSpec(coeffs=(1.0, 1.0))
    assert np.array_equal(build_field_operator(ones, 1, 2), np.eye(4))


def test_field_spec_refuses_other_level_counts():
    for coeffs in ((0.0, 1.0, 2.0), (1.0,), ()):
        with pytest.raises(ValueError, match="two coefficients"):
            FieldSpec(coeffs=coeffs)


def test_field_operator_eigenvalue_relation():
    # operator maps a basis-s vector at site k to coeffs[s] times itself
    spec = FieldSpec(coeffs=(-1.5, 0.25))
    op = build_field_operator(spec, 1, 3)
    for digits in itertools.product(range(2), repeat=3):
        v = linalg.basis_state(digits)
        assert np.array_equal(op @ v, spec.coeffs[digits[1]] * v)


def test_field_spec_validation():
    with pytest.raises(ValueError):
        FieldSpec(coeffs=(0.0, np.inf))
    with pytest.raises(ValueError):
        build_field_operator(FieldSpec(coeffs=(0.0, 1.0)), 2, 2)


# ---------------------------------------------------------------------------
# activity operators


def test_activity_operator_matrices():
    assert np.array_equal(neural_activity_operator(0, 2), np.diag([0.0, 0, 1, 1]))
    assert np.array_equal(neural_activity_operator(1, 2), np.diag([0.0, 1, 0, 1]))
    assert np.array_equal(neural_activity_operator(0, 1), np.diag([0.0, 1]))


def test_activity_operator_counts_firing_digit():
    for n in (1, 2, 3):
        for k in range(n):
            op = neural_activity_operator(k, n)
            for digits in itertools.product(range(2), repeat=n):
                v = linalg.basis_state(digits)
                assert np.array_equal(op @ v, float(digits[k]) * v)


def test_activity_operators_commute():
    for j in range(3):
        for k in range(3):
            a = neural_activity_operator(j, 3)
            b = neural_activity_operator(k, 3)
            assert np.array_equal(a @ b, b @ a)


# ---------------------------------------------------------------------------
# averages


def test_quantum_average_examples():
    n0 = neural_activity_operator(0, 2)
    n1 = neural_activity_operator(1, 2)
    assert quantum_average(n0, linalg.basis_state((1, 0))) == 1.0
    assert abs(quantum_average(n0, linalg.uniform_state(2)) - 0.5) < 1e-15
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


def test_quantum_average_rejects_nan_state():
    with pytest.raises(ValueError, match="imaginary residue"):
        quantum_average(neural_activity_operator(0, 2), np.full(4, np.nan))


def test_amplitude_sum_matches_operator_path():
    rng = np.random.default_rng(31)
    for n in (1, 2, 3):
        for _ in range(25):
            v = random_state(rng, 2**n)
            fast = activity_mean_field(v)
            slow = operator_mean_field(v, n)
            assert np.max(np.abs(fast - slow)) < 1e-12
            for k in range(n):
                assert abs(activity_mean_field(v)[k] - slow[k]) < 1e-12


def test_mean_field_of_a_block_equals_per_state_rows():
    rng = np.random.default_rng(32)
    for n in (1, 2, 3):
        for count in (0, 1, 2**n, 9):
            block = np.array([random_state(rng, 2**n) for _ in range(count)]).reshape(count, 2**n)
            rows = np.array([activity_mean_field(v) for v in block]).reshape(count, n)
            got = activity_mean_field(block)
            assert got.shape == (count, n)
            assert got.tobytes() == rows.tobytes()
            for state, row in zip(block, got):
                assert np.max(np.abs(operator_mean_field(state, n) - row)) < 1e-12
    # a length that is not 2**n with n >= 1
    for bad in (np.zeros((3, 6)), np.zeros(1)):
        with pytest.raises(linalg.DimensionError):
            activity_mean_field(bad)


def test_mean_field_examples():
    for mean_field in (activity_mean_field, lambda v: operator_mean_field(v, 2)):
        assert np.array_equal(mean_field(linalg.basis_state((1, 1))), [1.0, 1.0])
        assert np.allclose(mean_field(linalg.uniform_state(2)), [0.5, 0.5], atol=1e-15)
        m = build_qrnn_map(QRNNParams(1.0))
        stepped = run_trajectory(m, linalg.uniform_state(2), 1, 1, [np.copy])[0][0]
        assert np.allclose(mean_field(stepped), [0.5, 0.5], atol=1e-12)


def test_trajectory_activity_stays_bounded():
    m = build_qrnn_map(QRNNParams(0.317))
    (points,) = run_trajectory(
        m,
        linalg.uniform_state(2),
        transient=50,
        samples=400,
        observers=[activity_mean_field],
    )
    assert check_activity_bounds(points).shape == (400, 2)


def test_mean_field_trajectory_guards():
    with pytest.raises(linalg.DimensionError):
        check_activity_bounds(np.zeros(5))
    with pytest.raises(ValueError):
        check_activity_bounds(np.array([[0.5, 1.5]]))


def test_activity_bounds_reject_nan():
    with pytest.raises(ValueError, match="outside"):
        check_activity_bounds(np.array([[0.5, 0.5], [np.nan, 0.5]]))


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
            vt = run_trajectory(m, v0, t, 1, [np.copy])[0][0]
            for k in range(2):
                nk = neural_activity_operator(k, 2)
                moved = quantum_average(heisenberg_evolve(nk, m, t), v0, herm_tol=1e-10)
                stayed = quantum_average(nk, vt)
                assert abs(moved - stayed) < 1e-9
