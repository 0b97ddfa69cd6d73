"""Dense complex linear algebra for small networks of two-level sites.

State vectors and operators are plain ``numpy`` arrays of ``complex128``.
The flat index convention is fixed globally: every site has two levels,
and site 0 is the leftmost, most significant tensor factor, so a bit
tuple ``(s0, ..., s_{n-1})`` maps to ``flat = sum_k s_k * 2**(n-1-k)``.
Everything in the package inherits this convention, and so a state's
length, 2**n, gives its site count n: no function takes n beside a state.

Validation helpers raise instead of repairing: a state that fails its norm
check is a bug upstream, not something to renormalize silently.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# Construction-time invariants are checked at 1e-12, run-time drift (norms
# after long unitary products) at 1e-10.
CONSTRUCTION_TOL = 1e-12
DRIFT_TOL = 1e-10

# Dense simulation is exponential in site count; refuse anything above this.
MAX_DIMENSION = 2**20


class DimensionError(ValueError):
    """Operand dimensions are incompatible or above the dense-size cap."""


# ---------------------------------------------------------------------------
# basis indexing


def digits_to_flat(digits) -> int:
    """Flat index of the basis label ``(s0, ..., s_{n-1})``, site 0 most
    significant."""
    flat = 0
    for s in digits:
        if s not in (0, 1):
            raise ValueError(f"digit {s} is not a bit")
        flat = flat * 2 + s
    return flat


# ---------------------------------------------------------------------------
# constructors and validators


def as_state(amps) -> np.ndarray:
    """Validate and return a normalized complex state vector.

    Raises ``ValueError`` on non-finite entries or a norm off 1 by more
    than ``DRIFT_TOL``.  The input is copied, never renormalized.
    """
    v = np.array(amps, dtype=np.complex128).reshape(-1)
    if not np.all(np.isfinite(v.view(np.float64))):
        raise ValueError("state vector contains non-finite amplitudes")
    nrm = norm(v)
    if abs(nrm - 1.0) > DRIFT_TOL:
        raise ValueError(f"state vector norm {nrm!r} differs from 1 beyond {DRIFT_TOL}")
    return v


def norm(v: np.ndarray):
    """Euclidean norm of one state (a float), or of each row of a
    ``(count, dim)`` block of states (an array)."""
    nrm = np.sqrt(np.sum(v.real**2 + v.imag**2, axis=-1))
    return float(nrm) if v.ndim == 1 else nrm


def basis_state(digits) -> np.ndarray:
    """Computational basis vector labeled by a bit tuple."""
    digits = tuple(digits)
    v = np.zeros(2 ** len(digits), dtype=np.complex128)
    v[digits_to_flat(digits)] = 1.0
    return v


def uniform_state(n: int) -> np.ndarray:
    """Product state with |+> at each of ``n`` sites."""
    dim = 2**n
    return np.full(dim, 1.0 / math.sqrt(dim), dtype=np.complex128)


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=np.complex128)


def projector(i: int) -> np.ndarray:
    """|i><i| on one two-level site."""
    m = np.zeros((2, 2), dtype=np.complex128)
    m[i, i] = 1.0
    return m


def check_unitary(u: np.ndarray, tol: float) -> bool:
    """True iff ``max |U^dag U - I| <= tol``."""
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {u.shape}")
    resid = u.conj().T @ u - np.eye(u.shape[0])
    return float(np.max(np.abs(resid))) <= tol


def check_hermitian(m: np.ndarray, tol: float = CONSTRUCTION_TOL) -> bool:
    """True iff ``max |M - M^dag| <= tol``; with leading batch axes, iff
    every member passes."""
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    return float(np.max(np.abs(m - np.swapaxes(m, -2, -1).conj()), initial=0.0)) <= tol


# ---------------------------------------------------------------------------
# operations


def tensor_chain(factors) -> np.ndarray:
    """Left-to-right Kronecker product of square matrices, the left factor
    most significant: ``(A (x) B)[ia*dB+ib, ja*dB+jb] = A[ia, ja] *
    B[ib, jb]``.  The product dimension must not exceed ``MAX_DIMENSION``.
    """
    factors = [np.asarray(f, dtype=np.complex128) for f in factors]
    if not factors:
        raise ValueError("tensor_chain needs at least one factor")
    for f in factors:
        if f.ndim != 2 or f.shape[0] != f.shape[1]:
            raise DimensionError(f"tensor_chain needs square factors, got {f.shape}")
    out_dim = math.prod(f.shape[0] for f in factors)
    if out_dim > MAX_DIMENSION:
        raise DimensionError(f"tensor product dimension {out_dim} exceeds cap {MAX_DIMENSION}")
    return functools.reduce(np.kron, factors)


def site_count(v: np.ndarray) -> int:
    """The n >= 1 of a ``(2**n,)`` state or a ``(count, 2**n)`` block."""
    n = v.shape[-1].bit_length() - 1 if v.ndim in (1, 2) else 0
    if n < 1 or v.shape[-1] != 2**n:
        raise DimensionError(f"state shape {v.shape} is not (2**n,) or (count, 2**n), n >= 1")
    return n


def partial_trace_keep_site(v: np.ndarray, k: int) -> np.ndarray:
    """Reduced 2 x 2 density of site ``k`` of a pure state.

    A state of shape ``(2**n,)`` gives one ``(2, 2)`` density; a
    ``(count, 2**n)`` block of states gives a ``(count, 2, 2)`` stack.
    """
    arr = np.asarray(v, dtype=np.complex128)
    n = site_count(arr)
    if not 0 <= k < n:
        raise ValueError(f"site index {k} outside [0, {n})")
    m = arr.reshape(-1, 2**k, 2, 2 ** (n - k - 1))
    return np.einsum("cxay,cxby->cab", m, m.conj()).reshape(arr.shape[:-1] + (2, 2))


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """All eigenvalues of a hermitian matrix, ascending.

    The input must be hermitian within ``DRIFT_TOL``.  Leading batch axes
    are allowed; the result then has one ascending row per member.
    """
    a = np.asarray(m, dtype=np.complex128)
    if not check_hermitian(a, DRIFT_TOL):
        raise ValueError(f"matrix is not hermitian within {DRIFT_TOL}")
    return np.linalg.eigvalsh(a)
