"""Tests for the dense linear-algebra layer.

Eigenvalue results are checked against two independent oracles: the
closed-form solution for 2 x 2 hermitian matrices and trace-moment
matching (sum of lambda^k against tr(H^k)), which pins the full spectrum
for the small dimensions used here.
"""

import itertools

import numpy as np
import pytest

from qnetdyn import linalg


def two_by_two_eigenvalues(h):
    """Closed form for a 2 x 2 hermitian matrix, ascending."""
    a = h[0, 0].real
    d = h[1, 1].real
    mid = 0.5 * (a + d)
    rad = np.sqrt((0.5 * (a - d)) ** 2 + abs(h[0, 1]) ** 2)
    return np.array([mid - rad, mid + rad])


def reduced_by_loops(psi, k, n, l):
    """Partial trace oracle: explicit sums over basis labels."""
    rho = np.zeros((l, l), dtype=np.complex128)
    for a in range(l):
        for b in range(l):
            for rest in itertools.product(range(l), repeat=n - 1):
                da = rest[:k] + (a,) + rest[k:]
                db = rest[:k] + (b,) + rest[k:]
                ia = linalg.digits_to_flat(da, l)
                ib = linalg.digits_to_flat(db, l)
                rho[a, b] += psi[ia] * np.conj(psi[ib])
    return rho


def random_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return m + m.conj().T


# ---------------------------------------------------------------------------
# basis indexing


def test_flat_index_examples():
    assert linalg.digits_to_flat((0, 0), 2) == 0
    assert linalg.digits_to_flat((0, 1), 2) == 1
    assert linalg.digits_to_flat((1, 0), 2) == 2
    assert linalg.digits_to_flat((1, 1), 2) == 3
    # site 0 is the most significant digit
    assert linalg.digits_to_flat((2, 1, 0), 3) == 2 * 9 + 1 * 3
    assert linalg.flat_to_digits(21, 3, 3) == (2, 1, 0)


def test_flat_index_roundtrip():
    for n, l in [(1, 2), (2, 2), (3, 2), (2, 3), (3, 4)]:
        for flat in range(l**n):
            digits = linalg.flat_to_digits(flat, n, l)
            assert len(digits) == n
            assert all(0 <= s < l for s in digits)
            assert linalg.digits_to_flat(digits, l) == flat


def test_flat_index_rejects_out_of_range():
    with pytest.raises(ValueError):
        linalg.digits_to_flat((0, 2), 2)
    with pytest.raises(ValueError):
        linalg.flat_to_digits(4, 2, 2)
    with pytest.raises(ValueError):
        linalg.flat_to_digits(-1, 2, 2)


# ---------------------------------------------------------------------------
# constructors and validators


def test_basis_state():
    v = linalg.basis_state((1, 0), 2)
    assert v.shape == (4,)
    assert v[2] == 1.0
    assert np.sum(np.abs(v)) == 1.0


def test_uniform_state_is_normalized_product():
    v = linalg.uniform_state(3, 2)
    assert v.shape == (8,)
    assert abs(linalg.norm(v) - 1.0) < 1e-15
    assert np.allclose(v, v[0])


def test_as_state_accepts_and_copies():
    raw = np.array([1.0, 0.0, 0.0, 0.0], dtype=np.complex128)
    v = linalg.as_state(raw)
    raw[0] = 5.0
    assert v[0] == 1.0


def test_as_state_never_renormalizes():
    with pytest.raises(ValueError):
        linalg.as_state([0.9, 0.0])
    with pytest.raises(ValueError):
        linalg.as_state([1.0, 1e-4])
    # near-1 norms within drift tolerance pass through untouched
    v = linalg.as_state([1.0 + 5e-11, 0.0])
    assert v[0] == 1.0 + 5e-11


def test_as_state_rejects_nonfinite():
    with pytest.raises(ValueError):
        linalg.as_state([np.nan, 0.0])
    with pytest.raises(ValueError):
        linalg.as_state([np.inf, 0.0])
    with pytest.raises(ValueError):
        linalg.as_state([complex(0.0, np.nan), 1.0])


def test_check_unitary():
    th = 0.3
    r = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    assert linalg.check_unitary(r, 1e-12)
    assert linalg.check_unitary(np.diag([1.0, 1j, -1.0]), 1e-12)
    assert not linalg.check_unitary(r * 1.001, 1e-12)
    with pytest.raises(linalg.DimensionError):
        linalg.check_unitary(np.ones((2, 3)), 1e-12)


def test_check_hermitian():
    assert linalg.check_hermitian(np.eye(3))
    h = np.array([[1.0, 1 - 2j], [1 + 2j, -1.0]])
    assert linalg.check_hermitian(h)
    assert not linalg.check_hermitian(1j * h)


def test_validate_density():
    rho = np.diag([0.5, 0.5]).astype(np.complex128)
    linalg.validate_density(rho)
    with pytest.raises(ValueError):
        linalg.validate_density(np.diag([0.6, 0.6]))
    with pytest.raises(ValueError):
        linalg.validate_density(np.diag([1.5, -0.5]))
    with pytest.raises(ValueError):
        linalg.validate_density(np.array([[0.5, 1.0], [0.0, 0.5]]))


# ---------------------------------------------------------------------------
# tensor products and application


def test_tensor_product_entry_formula():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    out = linalg.tensor_product(a, b)
    assert out.shape == (6, 6)
    for ia, ja, ib, jb in itertools.product(range(2), range(2), range(3), range(3)):
        assert abs(out[ia * 3 + ib, ja * 3 + jb] - a[ia, ja] * b[ib, jb]) < 1e-15


def test_tensor_ordering_site0_most_significant():
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    op = linalg.tensor_product(sx, linalg.identity(2))
    flipped = linalg.apply(op, linalg.basis_state((0, 0), 2))
    assert np.allclose(flipped, linalg.basis_state((1, 0), 2))
    op2 = linalg.tensor_product(linalg.identity(2), sx)
    flipped2 = linalg.apply(op2, linalg.basis_state((0, 0), 2))
    assert np.allclose(flipped2, linalg.basis_state((0, 1), 2))


def test_tensor_chain_matches_pairwise():
    rng = np.random.default_rng(12)
    mats = [rng.normal(size=(2, 2)) for _ in range(3)]
    chained = linalg.tensor_chain(mats)
    manual = linalg.tensor_product(linalg.tensor_product(mats[0], mats[1]), mats[2])
    assert np.array_equal(chained, manual)
    with pytest.raises(ValueError):
        linalg.tensor_chain([])


def test_dimension_cap():
    a = linalg.identity(2**10)
    b = linalg.identity(2**11)
    with pytest.raises(linalg.DimensionError):
        linalg.tensor_product(a, b)


def test_apply_dimension_mismatch():
    with pytest.raises(linalg.DimensionError):
        linalg.apply(np.eye(2), np.zeros(3))
    with pytest.raises(linalg.DimensionError):
        linalg.apply(np.zeros((2, 3)), np.zeros(3))


# ---------------------------------------------------------------------------
# partial trace


def test_partial_trace_product_state():
    single = np.array([0.6, 0.8j])
    other = np.array([1.0, 0.0])
    psi = np.kron(single, other)
    rho = linalg.partial_trace_keep_site(psi, 0, 2, 2)
    assert np.allclose(rho, np.outer(single, single.conj()), atol=1e-15)


def test_partial_trace_bell_state():
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    for site in (0, 1):
        rho = linalg.partial_trace_keep_site(bell, site, 2, 2)
        assert np.allclose(rho, 0.5 * np.eye(2), atol=1e-15)


def test_partial_trace_matches_loop_oracle():
    rng = np.random.default_rng(13)
    for n, l in [(2, 2), (3, 2), (2, 3), (3, 3)]:
        psi = rng.normal(size=l**n) + 1j * rng.normal(size=l**n)
        psi /= np.linalg.norm(psi)
        for k in range(n):
            fast = linalg.partial_trace_keep_site(psi, k, n, l)
            slow = reduced_by_loops(psi, k, n, l)
            assert np.max(np.abs(fast - slow)) < 1e-14
            assert abs(np.trace(fast).real - 1.0) < 1e-12


def test_partial_trace_density_input_agrees_with_vector_input():
    rng = np.random.default_rng(14)
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi /= np.linalg.norm(psi)
    rho_full = np.outer(psi, psi.conj())
    for k in range(3):
        a = linalg.partial_trace_keep_site(psi, k, 3, 2)
        b = linalg.partial_trace_keep_site(rho_full, k, 3, 2)
        assert np.max(np.abs(a - b)) < 1e-14


def test_partial_trace_of_a_block_equals_per_state_traces():
    rng = np.random.default_rng(19)
    for n, l in [(2, 2), (3, 2), (2, 3)]:
        dim = l**n
        for count in (0, 1, dim, 7):
            block = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
            block /= np.linalg.norm(block, axis=1, keepdims=True)
            for k in range(n):
                got = linalg.partial_trace_keep_site(block, k, n, l, batch=True)
                assert got.shape == (count, l, l)
                for rho, psi in zip(got, block):
                    assert rho.tobytes() == linalg.partial_trace_keep_site(psi, k, n, l).tobytes()
    with pytest.raises(linalg.DimensionError):
        linalg.partial_trace_keep_site(np.zeros((3, 8)), 0, 2, 2, batch=True)
    with pytest.raises(linalg.DimensionError):
        linalg.partial_trace_keep_site(np.zeros(4), 0, 2, 2, batch=True)


def test_partial_trace_rejects_bad_site():
    with pytest.raises(ValueError):
        linalg.partial_trace_keep_site(np.zeros(4), 2, 2, 2)


# ---------------------------------------------------------------------------
# eigenvalues


def test_eigenvalues_two_by_two_closed_form():
    rng = np.random.default_rng(15)
    for _ in range(300):
        h = random_hermitian(rng, 2)
        got = linalg.hermitian_eigenvalues(h)
        want = two_by_two_eigenvalues(h)
        assert np.max(np.abs(got - want)) < 1e-12


def test_eigenvalues_match_trace_moments():
    rng = np.random.default_rng(16)
    for dim in (2, 3, 4, 5, 6):
        for _ in range(20):
            h = random_hermitian(rng, dim)
            lam = linalg.hermitian_eigenvalues(h)
            assert np.all(np.diff(lam) >= 0.0)
            power = np.eye(dim)
            scale = max(1.0, float(np.max(np.abs(lam))))
            for k in range(1, dim + 1):
                power = power @ h
                moment = float(np.trace(power).real)
                assert abs(np.sum(lam**k) - moment) < 1e-9 * scale**k


def test_eigenvalues_exact_cases():
    assert np.array_equal(linalg.hermitian_eigenvalues(np.array([[4.0]])), [4.0])
    got = linalg.hermitian_eigenvalues(np.diag([3.0, -1.0, 2.0]))
    assert np.allclose(got, [-1.0, 2.0, 3.0], atol=0.0)
    assert np.allclose(linalg.hermitian_eigenvalues(np.eye(5)), np.ones(5), atol=0.0)
    h = np.array([[2.0, 1.0], [1.0, 2.0]])
    assert np.max(np.abs(linalg.hermitian_eigenvalues(h) - [1.0, 3.0])) < 1e-14


def test_eigenvalues_reduced_density_spectrum():
    # reduced state of a pure two-site state: eigenvalues are p, 1 - p
    rng = np.random.default_rng(17)
    for _ in range(50):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        rho = linalg.partial_trace_keep_site(psi, 0, 2, 2)
        lam = linalg.hermitian_eigenvalues(rho)
        assert abs(lam.sum() - 1.0) < 1e-12
        assert np.max(np.abs(lam - two_by_two_eigenvalues(rho))) < 1e-13
        assert lam[0] > -1e-14


@pytest.mark.parametrize("dim", [1, 2, 4, 8])
def test_batched_eigenvalues_equal_per_matrix_loop(dim):
    rng = np.random.default_rng(20 + dim)
    members = []
    for i in range(60):
        kind = i % 4
        if kind == 0:
            members.append(random_hermitian(rng, dim))
        elif kind == 1:
            # already diagonal: converged before the first sweep
            members.append(np.diag(rng.normal(size=dim)).astype(complex))
        elif kind == 2:
            # degenerate: a doubled eigenvalue in a random basis
            q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
            lam = rng.normal(size=dim)
            lam[: min(2, dim)] = lam[0]
            members.append(q @ np.diag(lam) @ q.conj().T)
        else:
            members.append(2.5 * np.eye(dim, dtype=complex))
    batch = np.array(members)
    batch = 0.5 * (batch + batch.conj().transpose(0, 2, 1))
    got = linalg.hermitian_eigenvalues(batch)
    loop = np.array([linalg.hermitian_eigenvalues(h) for h in batch])
    assert got.shape == (60, dim)
    assert got.tobytes() == loop.tobytes()
    assert np.max(np.abs(got - np.linalg.eigvalsh(batch))) < 1e-12
    # any leading batch shape, and the empty batch
    stacked = linalg.hermitian_eigenvalues(batch.reshape(3, 20, dim, dim))
    assert stacked.tobytes() == got.tobytes()
    assert linalg.hermitian_eigenvalues(batch[:0]).shape == (0, dim)


def test_batched_eigenvalues_reject_any_non_hermitian_member():
    batch = np.array([np.eye(2), [[0.0, 1.0], [0.0, 0.0]], np.eye(2)])
    with pytest.raises(ValueError, match="not hermitian"):
        linalg.hermitian_eigenvalues(batch)


def test_eigenvalues_reject_non_hermitian():
    with pytest.raises(ValueError):
        linalg.hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


def _char_poly(h, x):
    """det(H - xI) by Gaussian elimination in pure Python."""
    n = h.shape[0]
    a = [[complex(h[i, j]) - (x if i == j else 0.0) for j in range(n)] for i in range(n)]
    det = 1.0 + 0.0j
    for col in range(n):
        piv = max(range(col, n), key=lambda row: abs(a[row][col]))
        if abs(a[piv][col]) == 0.0:
            return 0.0
        if piv != col:
            a[piv], a[col] = a[col], a[piv]
            det = -det
        det *= a[col][col]
        for row in range(col + 1, n):
            f = a[row][col] / a[col][col]
            for cc in range(col, n):
                a[row][cc] -= f * a[col][cc]
    return det.real


def test_eigenvalues_match_char_poly_bisection():
    # roots of det(H - xI) located by sign-change scan plus bisection
    rng = np.random.default_rng(18)
    for _ in range(5):
        h = random_hermitian(rng, 4)
        bound = float(np.max(np.sum(np.abs(h), axis=1))) + 1.0
        grid = np.linspace(-bound, bound, 2001)
        vals = [_char_poly(h, x) for x in grid]
        roots = []
        for i in range(len(grid) - 1):
            if vals[i] == 0.0:
                roots.append(grid[i])
                continue
            if vals[i] * vals[i + 1] < 0.0:
                lo, hi = grid[i], grid[i + 1]
                flo = vals[i]
                for _ in range(80):
                    midp = 0.5 * (lo + hi)
                    fm = _char_poly(h, midp)
                    if fm == 0.0:
                        lo = hi = midp
                        break
                    if flo * fm < 0.0:
                        hi = midp
                    else:
                        lo, flo = midp, fm
                roots.append(0.5 * (lo + hi))
        assert len(roots) == 4
        got = linalg.hermitian_eigenvalues(h)
        assert np.max(np.abs(got - np.array(sorted(roots)))) < 1e-8
