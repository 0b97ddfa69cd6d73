"""Tests for reduced-density entropy and its summary statistics.

The numeric oracle for the mixed-density example was computed with
60-digit decimal arithmetic; the spectrum oracle is the closed form for
2 x 2 densities.  The two-neuron closed form is checked against a
50-digit decimal evaluation of the same spectrum and against eigvalsh
of each neuron's partial trace.
"""

import decimal

import numpy as np
import pytest

from qnetdyn import linalg
from qnetdyn.entropy import (
    EntropyStats,
    check_entropy_range,
    clip_spectrum,
    entropy_observer,
    entropy_stats,
    schmidt_entropy,
    site_entropies,
    von_neumann_entropy,
)
from qnetdyn.network import QRNNParams, build_qrnn_map, run_trajectory

# -0.9*log2(0.9) - 0.1*log2(0.1), 60-digit decimal evaluation
ENTROPY_9_1 = 0.468995593589281221253589330383320460097

# Largest |schmidt_entropy - oracle| allowed, in bits.  Against the
# decimal oracle: a few ulp of the 1-bit scale (5.6e-16 measured).
# Against eigvalsh: eigvalsh itself errs by about an ulp on an eigenvalue
# near 0, where lam * log2(lam) is steep (8.7e-15 measured on products).
SCHMIDT_DECIMAL_TOL = 4e-15
SCHMIDT_EIGVALSH_TOL = 5e-14


def random_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def two_by_two_density_entropy(rho):
    """Closed-form eigenvalues 1/2 (1 +- sqrt((d)^2 + 4|b|^2)), then the
    binary entropy."""
    diff = rho[0, 0].real - rho[1, 1].real
    rad = 0.5 * np.sqrt(diff * diff + 4.0 * abs(rho[0, 1]) ** 2)
    lam = np.clip(np.array([0.5 - rad, 0.5 + rad]), 0.0, 1.0)
    pos = lam[lam > 0]
    return float(-np.sum(pos * np.log2(pos)))


# ---------------------------------------------------------------------------
# entropy of single densities


def test_pure_density_has_zero_entropy():
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    rho = np.outer(plus, plus.conj())
    assert von_neumann_entropy(rho) < 1e-12


def test_depolarized_density_has_unit_entropy():
    assert von_neumann_entropy(np.diag([0.5, 0.5])) == 1.0


def test_mixed_density_matches_decimal_oracle():
    got = von_neumann_entropy(np.diag([0.9, 0.1]))
    assert abs(got - ENTROPY_9_1) < 1e-14


def test_entropy_of_larger_density():
    rho = np.diag([0.25, 0.25, 0.25, 0.25])
    assert abs(von_neumann_entropy(rho) - 2.0) < 1e-14


def test_entropy_validation():
    with pytest.raises(ValueError):
        von_neumann_entropy(np.diag([0.7, 0.7]))
    with pytest.raises(ValueError):
        von_neumann_entropy(np.array([[0.5, 0.3], [0.1, 0.5]]))
    with pytest.raises(ValueError):
        von_neumann_entropy(np.diag([1.2, -0.2]))


def test_spectrum_clipping_rules():
    noisy = np.array([-5e-11, 1.0 + 5e-11])
    assert np.array_equal(clip_spectrum(noisy), [0.0, 1.0])
    with pytest.raises(ValueError):
        clip_spectrum(np.array([-2e-10, 1.0]))
    with pytest.raises(ValueError):
        clip_spectrum(np.array([0.0, 1.0 + 2e-10]))
    # boundary noise inside the tolerance yields exactly zero entropy
    rho = np.diag([1.0 + 5e-11, -5e-11])
    assert von_neumann_entropy(rho) == 0.0


def test_spectrum_clipping_rejects_nan():
    with pytest.raises(ValueError, match="eigenvalues"):
        clip_spectrum(np.array([np.nan, 0.5]))


def test_entropy_matches_closed_form_on_random_densities():
    rng = np.random.default_rng(41)
    for _ in range(100):
        psi = random_state(rng, 4)
        rho = linalg.partial_trace_keep_site(psi, 0, 2)
        assert abs(von_neumann_entropy(rho) - two_by_two_density_entropy(rho)) < 1e-10


def random_density_batch(rng, dim, count):
    """Densities of every kind the solver branches on: mixed, pure,
    diagonal (already converged) and maximally mixed (degenerate)."""
    out = []
    for i in range(count):
        kind = i % 4
        if kind == 0:
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            rho = g @ g.conj().T
        elif kind == 1:
            psi = random_state(rng, dim)
            rho = np.outer(psi, psi.conj())
        elif kind == 2:
            rho = np.diag(rng.uniform(0.1, 1.0, size=dim)).astype(complex)
        else:
            rho = np.eye(dim, dtype=complex)
        out.append(rho / np.trace(rho).real)
    return np.array(out)


@pytest.mark.parametrize("dim", [1, 2, 4, 8])
def test_batched_entropy_equals_per_matrix_loop(dim):
    rng = np.random.default_rng(43 + dim)
    rhos = random_density_batch(rng, dim, 40)
    got = von_neumann_entropy(rhos)
    loop = np.array([von_neumann_entropy(rho) for rho in rhos])
    assert got.shape == (40,)
    assert got.tobytes() == loop.tobytes()
    lam = np.clip(np.linalg.eigvalsh(rhos), 0.0, 1.0)
    safe = np.where(lam > 0.0, lam, 1.0)
    oracle = -np.sum(np.where(lam > 0.0, lam * np.log2(safe), 0.0), axis=1)
    assert np.max(np.abs(got - oracle)) < 1e-12


def test_batched_entropy_validation_names_the_failing_member():
    good = np.diag([0.5, 0.5]).astype(complex)
    for bad, message in [
        (np.diag([0.7, 0.7]), "trace 1.4"),
        (np.array([[0.5, 0.3], [0.1, 0.5]]), "hermitian"),
        (np.diag([1.2, -0.2]), "eigenvalues"),
    ]:
        with pytest.raises(ValueError, match=message):
            von_neumann_entropy(np.array([good, bad, good]))


# ---------------------------------------------------------------------------
# per-state and trajectory entropy


def test_site_entropies_product_and_bell():
    assert np.max(site_entropies(linalg.uniform_state(2), 2)) < 1e-12
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
    assert np.max(np.abs(site_entropies(bell, 2) - 1.0)) < 1e-12


def test_site_entropies_of_a_block_equal_per_state_rows():
    rng = np.random.default_rng(44)
    for n in (2, 3, 4):
        # a square block (count == dim) must not be read as a density
        block = np.array([random_state(rng, 2**n) for _ in range(2**n)])
        rows = np.array([site_entropies(v, n) for v in block])
        assert site_entropies(block, n).tobytes() == rows.tobytes()
        assert entropy_observer(n)(block).shape == (2**n, n)


def decimal_schmidt_entropy(v):
    """Entropy of the spectrum (n +- sqrt(n^2 - 4D)) / 2 of one state,
    from the exact values of its doubles in 50-digit decimal arithmetic,
    clipped to [0, 1] like ``clip_spectrum``."""
    with decimal.localcontext(decimal.Context(prec=50)):
        re = [decimal.Decimal(float(a.real)) for a in v]
        im = [decimal.Decimal(float(a.imag)) for a in v]
        n = sum(x * x + y * y for x, y in zip(re, im))
        det_re = (re[0] * re[3] - im[0] * im[3]) - (re[1] * re[2] - im[1] * im[2])
        det_im = (re[0] * im[3] + im[0] * re[3]) - (re[1] * im[2] + im[1] * re[2])
        root = max(n * n - 4 * (det_re * det_re + det_im * det_im), decimal.Decimal(0)).sqrt()
        h = decimal.Decimal(0)
        for lam in ((n - root) / 2, (n + root) / 2):
            lam = min(max(lam, decimal.Decimal(0)), decimal.Decimal(1))
            if lam > 0:
                h -= lam * lam.ln()
        return float(h / decimal.Decimal(2).ln())


def eigvalsh_entropies(v):
    """Entropy of each neuron from eigvalsh of its own partial trace."""
    m = v.reshape(2, 2)  # m[s0, s1]
    out = []
    for rho in (m @ m.conj().T, m.T @ m.conj()):
        lam = np.clip(np.linalg.eigvalsh(rho), 0.0, 1.0)
        out.append(-sum(x * np.log2(x) for x in lam if x > 0.0))
    return out


def schmidt_cases():
    """Random, product (lam- = 0), Bell-like (n^2 - 4D about 0) and
    off-norm (n = 1 +- 1e-11) two-neuron states."""
    rng = np.random.default_rng(45)
    random = np.array([random_state(rng, 4) for _ in range(200)])
    factors = [random_state(rng, 2) for _ in range(80)]
    product = np.array([np.kron(a, b) for a, b in zip(factors[::2], factors[1::2])])
    product[0] = [1.0, 0.0, 0.0, 0.0]
    bell = []
    for i in range(200):
        p, q = np.exp(2j * np.pi * rng.uniform(size=2))
        v = np.array([p, 0, 0, q] if i % 2 else [0, p, -q, 0]) / np.sqrt(2)
        bell.append(v + 1e-9 * (i % 3) * random_state(rng, 4))
    bell = np.array(bell) / np.linalg.norm(bell, axis=1, keepdims=True)
    off = np.concatenate([random[:40], product[:10], bell[:40]])
    off = np.concatenate([off * np.sqrt(1.0 + 1e-11), off * np.sqrt(1.0 - 1e-11)])
    return {"random": random, "product": product, "bell": bell, "off-norm": off}


@pytest.mark.parametrize("kind", ["random", "product", "bell", "off-norm"])
def test_schmidt_entropy_matches_decimal_and_eigvalsh_oracles(kind):
    block = schmidt_cases()[kind]
    got = schmidt_entropy(block)
    assert got.shape == (len(block),)
    want = np.array([decimal_schmidt_entropy(v) for v in block])
    assert np.max(np.abs(got - want)) < SCHMIDT_DECIMAL_TOL
    eig = np.array([eigvalsh_entropies(v) for v in block])
    assert np.max(np.abs(got[:, None] - eig)) < SCHMIDT_EIGVALSH_TOL
    rows = site_entropies(block, 2)
    assert np.array_equal(rows, np.stack([got, got], axis=1))
    sq = np.abs(block) ** 2
    n = sq.sum(axis=1)
    if kind == "product":
        assert np.max(got) < SCHMIDT_DECIMAL_TOL and got[0] == 0.0
    if kind == "bell":
        det = block[:, 0] * block[:, 3] - block[:, 1] * block[:, 2]
        # rounding takes n^2 - 4D below 0 on some states: the clamp applies
        assert np.any(n * n - 4.0 * np.abs(det) ** 2 < 0.0)
        assert np.min(got) > 1.0 - SCHMIDT_DECIMAL_TOL
    if kind == "off-norm":
        assert np.max(np.abs(n - 1.0)) > 5e-12


def test_schmidt_entropy_validation():
    with pytest.raises(ValueError, match="trace 2.0"):
        schmidt_entropy(np.array([[1.0, 0.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0]]))
    with pytest.raises(linalg.DimensionError):
        schmidt_entropy(np.ones(8) / np.sqrt(8))
    assert schmidt_entropy(np.array([1.0, 0.0, 0.0, 0.0])) == 0.0


def test_schmidt_entropy_rejects_nan_state():
    block = np.array([[1.0, 0.0, 0.0, 0.0], [np.nan, 0.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="trace nan"):
        schmidt_entropy(block)


def test_two_party_entropies_agree_along_trajectory():
    m = build_qrnn_map(QRNNParams(0.47))
    (rows,) = run_trajectory(
        m, linalg.uniform_state(2), transient=25, samples=300, observers=[entropy_observer(2)]
    )
    series = np.asarray(rows)
    assert np.max(np.abs(series[:, 0] - series[:, 1])) < 1e-9
    assert check_entropy_range(series).shape == (300, 2)


def test_global_purity_is_conserved():
    m = build_qrnn_map(QRNNParams(0.31))

    def global_entropy(block):
        return von_neumann_entropy(np.einsum("ci,cj->cij", block, block.conj()))

    (vals,) = run_trajectory(
        m, linalg.uniform_state(2), transient=0, samples=200, observers=[global_entropy]
    )
    assert max(vals) < 1e-8


def test_three_site_entropy_bounds():
    rng = np.random.default_rng(42)
    for _ in range(20):
        s = site_entropies(random_state(rng, 8), 3)
        assert np.all(s >= 0.0)
        assert np.all(s <= 1.0 + 1e-9)


# ---------------------------------------------------------------------------
# statistics


def test_stats_of_constant_series():
    # a rounded mean of 0.1 or 1/3 overshoots the value by an ulp; the
    # mean is clamped back to it
    for value, rows in ((0.5, 10), (0.1, 10), (0.1, 30_000), (1 / 3, 30_000)):
        stats = entropy_stats(np.full((rows, 2), value))
        assert np.array_equal(stats.minimum, [value, value])
        assert np.array_equal(stats.maximum, [value, value])
        assert np.array_equal(stats.mean, [value, value])


def test_stats_ordering_on_random_series():
    rng = np.random.default_rng(43)
    series = rng.uniform(0.0, 1.0, size=(500, 2))
    stats = entropy_stats(series)
    assert np.all(stats.minimum <= stats.mean)
    assert np.all(stats.mean <= stats.maximum)
    # each mean is its column's own reduction, bit for bit
    assert np.array_equal(stats.mean, [series[:, k].mean() for k in range(2)])


def test_stats_reject_empty_series():
    with pytest.raises(ValueError):
        entropy_stats(np.zeros((0, 2)))


def test_stats_reject_series_that_is_not_samples_by_neurons():
    for series in (np.full(5, 0.5), np.full((5, 2, 1), 0.5), np.float64(0.5)):
        with pytest.raises(linalg.DimensionError, match="samples, neurons"):
            entropy_stats(series)


def test_stats_invariant_enforced_at_construction():
    with pytest.raises(ValueError):
        EntropyStats(minimum=[0.5], maximum=[0.4], mean=[0.45])


def test_stats_reject_nan():
    with pytest.raises(ValueError, match="min <= mean <= max"):
        EntropyStats(minimum=[np.nan], maximum=[np.nan], mean=[np.nan])
    with pytest.raises(ValueError, match="min <= mean <= max"):
        entropy_stats(np.array([[0.5, 0.5], [0.5, np.nan]]))


def test_trajectory_range_validation():
    with pytest.raises(ValueError):
        check_entropy_range(np.array([[1.5, 0.0]]))
    with pytest.raises(ValueError):
        check_entropy_range(np.array([[-0.5, 0.0]]))


def test_trajectory_range_rejects_nan():
    with pytest.raises(ValueError, match="outside"):
        check_entropy_range(np.array([[0.5, 0.5], [0.5, np.nan]]))
