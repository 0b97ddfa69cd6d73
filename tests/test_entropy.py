"""Tests for reduced-density entropy and its summary statistics.

The numeric oracle for the mixed-density example was computed with
60-digit decimal arithmetic; the spectrum oracle is the closed form for
2 x 2 densities.
"""

import numpy as np
import pytest

from qnetdyn import linalg
from qnetdyn.entropy import (
    EntropyStats,
    EntropyTrajectory,
    clip_spectrum,
    entropy_observer,
    entropy_stats,
    site_entropies,
    von_neumann_entropy,
)
from qnetdyn.network import QRNNParams, build_qrnn_map, run_trajectory

# -0.9*log2(0.9) - 0.1*log2(0.1), 60-digit decimal evaluation
ENTROPY_9_1 = 0.468995593589281221253589330383320460097


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


def test_entropy_matches_closed_form_on_random_densities():
    rng = np.random.default_rng(41)
    for _ in range(100):
        psi = random_state(rng, 4)
        rho = linalg.partial_trace_keep_site(psi, 0, 2, 2)
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
    assert np.max(site_entropies(linalg.uniform_state(2, 2), 2)) < 1e-12
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
    assert np.max(np.abs(site_entropies(bell, 2) - 1.0)) < 1e-12


def test_site_entropies_of_a_block_equal_per_state_rows():
    rng = np.random.default_rng(44)
    for n, l in [(2, 2), (3, 2), (2, 3)]:
        # a square block (count == dim) must not be read as a density
        block = np.array([random_state(rng, l**n) for _ in range(l**n)])
        rows = np.array([site_entropies(v, n, l) for v in block])
        assert site_entropies(block, n, l).tobytes() == rows.tobytes()
        assert entropy_observer(n, l)(block).shape == (l**n, n)


def test_two_party_entropies_agree_along_trajectory():
    m = build_qrnn_map(QRNNParams(0.47))
    (rows,) = run_trajectory(
        m, linalg.uniform_state(2, 2), transient=25, samples=300, observers=[entropy_observer(2)]
    )
    series = np.asarray(rows)
    assert np.max(np.abs(series[:, 0] - series[:, 1])) < 1e-9
    traj = EntropyTrajectory(series).validate_range()
    assert traj.n == 2


def test_global_purity_is_conserved():
    m = build_qrnn_map(QRNNParams(0.31))

    def global_entropy(block):
        return von_neumann_entropy(np.einsum("ci,cj->cij", block, block.conj()))

    (vals,) = run_trajectory(
        m, linalg.uniform_state(2, 2), transient=0, samples=200, observers=[global_entropy]
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
    traj = EntropyTrajectory(np.full((10, 2), 0.5))
    stats = entropy_stats(traj)
    assert np.array_equal(stats.minimum, [0.5, 0.5])
    assert np.array_equal(stats.maximum, [0.5, 0.5])
    assert np.array_equal(stats.mean, [0.5, 0.5])


def test_stats_ordering_on_random_series():
    rng = np.random.default_rng(43)
    traj = EntropyTrajectory(rng.uniform(0.0, 1.0, size=(500, 2)))
    stats = entropy_stats(traj)
    assert np.all(stats.minimum <= stats.mean)
    assert np.all(stats.mean <= stats.maximum)


def test_stats_reject_empty_series():
    with pytest.raises(ValueError):
        entropy_stats(EntropyTrajectory(np.zeros((0, 2))))


def test_stats_invariant_enforced_at_construction():
    with pytest.raises(ValueError):
        EntropyStats(minimum=[0.5], maximum=[0.4], mean=[0.45])


def test_trajectory_range_validation():
    with pytest.raises(ValueError):
        EntropyTrajectory(np.array([[1.5, 0.0]])).validate_range()
    with pytest.raises(ValueError):
        EntropyTrajectory(np.array([[-0.5, 0.0]])).validate_range()
