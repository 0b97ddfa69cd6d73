"""Dense complex linear algebra for small multi-site quantum systems.

State vectors and operators are plain ``numpy`` arrays of ``complex128``.
The flat index convention is fixed globally: site 0 is the leftmost, most
significant tensor factor, so a digit tuple ``(s0, ..., s_{n-1})`` over
``l`` levels maps to ``flat = sum_k s_k * l**(n-1-k)``.  Everything in the
package inherits this convention.

Validation helpers raise instead of repairing: a state that fails its norm
check is a bug upstream, not something to renormalize silently.
"""

from __future__ import annotations

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


def digits_to_flat(digits, l: int) -> int:
    """Flat index of the basis label ``(s0, ..., s_{n-1})``, site 0 most
    significant."""
    flat = 0
    for s in digits:
        if not 0 <= s < l:
            raise ValueError(f"digit {s} outside [0, {l})")
        flat = flat * l + s
    return flat


def flat_to_digits(flat: int, n: int, l: int) -> tuple:
    """Digit tuple ``(s0, ..., s_{n-1})`` of a flat basis index."""
    if not 0 <= flat < l**n:
        raise ValueError(f"index {flat} outside [0, {l}**{n})")
    digits = []
    for _ in range(n):
        digits.append(flat % l)
        flat //= l
    return tuple(reversed(digits))


# ---------------------------------------------------------------------------
# constructors and validators


def as_state(amps, *, tol: float = DRIFT_TOL) -> np.ndarray:
    """Validate and return a normalized complex state vector.

    Raises ``ValueError`` on non-finite entries or a norm off 1 by more
    than ``tol``.  The input is copied, never renormalized.
    """
    v = np.array(amps, dtype=np.complex128).reshape(-1)
    if not np.all(np.isfinite(v.view(np.float64))):
        raise ValueError("state vector contains non-finite amplitudes")
    nrm = norm(v)
    if abs(nrm - 1.0) > tol:
        raise ValueError(f"state vector norm {nrm!r} differs from 1 beyond {tol}")
    return v


def norm(v: np.ndarray) -> float:
    return float(np.sqrt(np.sum(v.real**2 + v.imag**2)))


def basis_state(digits, l: int) -> np.ndarray:
    """Computational basis vector labeled by a digit tuple."""
    digits = tuple(digits)
    v = np.zeros(l ** len(digits), dtype=np.complex128)
    v[digits_to_flat(digits, l)] = 1.0
    return v


def uniform_state(n: int, l: int = 2) -> np.ndarray:
    """Product of single-site uniform superpositions (|+> at each site for
    l = 2)."""
    dim = l**n
    return np.full(dim, 1.0 / math.sqrt(dim), dtype=np.complex128)


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=np.complex128)


def ketbra(i: int, j: int, dim: int) -> np.ndarray:
    """|i><j| on a ``dim``-dimensional site."""
    m = np.zeros((dim, dim), dtype=np.complex128)
    m[i, j] = 1.0
    return m


def projector(i: int, dim: int) -> np.ndarray:
    return ketbra(i, i, dim)


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


def validate_density(rho: np.ndarray, *, tol: float = DRIFT_TOL) -> np.ndarray:
    """Check hermiticity, unit trace and spectrum of a density matrix.

    Eigenvalues may undershoot zero by rounding noise (down to ``-tol``);
    anything below that is an invariant violation and raises.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    if not check_hermitian(rho, CONSTRUCTION_TOL):
        raise ValueError("density matrix is not hermitian within 1e-12")
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > tol:
        raise ValueError(f"density matrix trace {tr!r} differs from 1 beyond {tol}")
    evals = hermitian_eigenvalues(rho)
    if evals[0] < -tol:
        raise ValueError(f"density matrix has eigenvalue {evals[0]!r} < -{tol}")
    return rho


# ---------------------------------------------------------------------------
# operations


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the left factor most significant.

    ``(A (x) B)[ia*dB+ib, ja*dB+jb] = A[ia, ja] * B[ib, jb]``.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    for m in (a, b):
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionError(f"tensor_product needs square operands, got {m.shape}")
    out_dim = a.shape[0] * b.shape[0]
    if out_dim > MAX_DIMENSION:
        raise DimensionError(
            f"tensor product dimension {out_dim} exceeds cap {MAX_DIMENSION}"
        )
    return np.kron(a, b)


def tensor_chain(factors) -> np.ndarray:
    """Left-to-right Kronecker product of a sequence of square matrices."""
    factors = list(factors)
    if not factors:
        raise ValueError("tensor_chain needs at least one factor")
    out = np.asarray(factors[0], dtype=np.complex128)
    for f in factors[1:]:
        out = tensor_product(out, f)
    return out


def apply(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Matrix-vector product ``U v`` with a dimension check."""
    u = np.asarray(u)
    v = np.asarray(v)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {u.shape}")
    if u.shape[1] != v.shape[0]:
        raise DimensionError(f"operator dim {u.shape[1]} != vector dim {v.shape[0]}")
    return u @ v


def partial_trace_keep_site(
    state_or_rho: np.ndarray, k: int, n: int, l: int, *, batch: bool = False
) -> np.ndarray:
    """Reduced l x l density of site ``k``, tracing out all other sites.

    Accepts either a pure-state vector of dimension ``l**n`` or a density
    matrix of that dimension.  With ``batch`` the input is a
    ``(count, l**n)`` block of pure states and the result a
    ``(count, l, l)`` stack; the flag is needed because a square block of
    states has the shape of a density matrix.
    """
    if not 0 <= k < n:
        raise ValueError(f"site index {k} outside [0, {n})")
    dim = l**n
    arr = np.asarray(state_or_rho, dtype=np.complex128)
    before, after = l**k, l ** (n - k - 1)
    if batch or arr.ndim == 1:
        if arr.ndim != (2 if batch else 1) or arr.shape[-1] != dim:
            raise DimensionError(f"state shape {arr.shape} does not end in {l}**{n}")
        m = arr.reshape(-1, before, l, after)
        rho = np.einsum("cxay,cxby->cab", m, m.conj())
        return rho if batch else rho[0]
    if arr.shape != (dim, dim):
        raise DimensionError(f"density shape {arr.shape} != ({dim}, {dim})")
    r = arr.reshape(before, l, after, before, l, after)
    return np.einsum("xayxby->ab", r)


def hermitian_eigenvalues(
    m: np.ndarray, *, herm_tol: float = DRIFT_TOL, off_tol: float = 1e-14
) -> np.ndarray:
    """All eigenvalues of a hermitian matrix, ascending.

    Cyclic Jacobi rotations, swept until the off-diagonal Frobenius mass
    drops below ``off_tol``.  Intended for the small matrices this package
    works with (dim <= 64); robustness matters more than speed here.

    Leading batch axes are allowed: every member gets the same sweeps
    until its own off-diagonal mass is below ``off_tol`` and is left
    untouched after that, so a member's eigenvalues do not depend on
    the batch it came in.
    """
    a = np.asarray(m, dtype=np.complex128)
    if not check_hermitian(a, herm_tol):
        raise ValueError(f"matrix is not hermitian within {herm_tol}")
    dim = a.shape[-1]
    batch_shape = a.shape[:-2]
    a = a.reshape(-1, dim, dim).copy()
    if dim == 1:
        return a[:, 0, 0].real.reshape(batch_shape + (1,))

    mask = ~np.eye(dim, dtype=bool)
    active = np.arange(a.shape[0])
    for _ in range(60):
        # Summed directly over off-diagonal entries; subtracting the diagonal
        # mass from the total cancels catastrophically near convergence.
        off = np.sqrt(np.sum(np.abs(a[active][:, mask]) ** 2, axis=1))
        active = active[~(off < off_tol)]
        if active.size == 0:
            break
        members = a[active]
        for p in range(dim - 1):
            for q in range(p + 1, dim):
                _jacobi_rotate(members, p, q)
        a[active] = members
    else:
        raise RuntimeError("Jacobi sweep limit reached without convergence")
    evals = np.sort(np.diagonal(a, axis1=1, axis2=2).real, axis=1)
    return evals.reshape(batch_shape + (dim,))


def _jacobi_rotate(a: np.ndarray, p: int, q: int) -> None:
    """Zero out a[:, p, q] (and a[:, q, p]) of every member of a stack with
    a unitary plane rotation, in place; members whose pivot is already 0
    are skipped."""
    apq = a[:, p, q]
    # hypot rounds like abs() of one complex number; np.abs of a complex
    # array may differ from it in the last bit
    g = np.hypot(apq.real, apq.imag)
    idx = np.flatnonzero(g != 0.0)
    if idx.size == 0:
        return
    g = g[idx]
    # Phase factor folds the complex pivot into a real rotation problem:
    # the zeroing condition becomes tan(2*theta) = 2g / (alpha - beta).
    u = apq[idx] / g
    alpha = a[idx, p, p].real
    beta = a[idx, q, q].real
    phi = (alpha - beta) / (2.0 * g)
    # phi*phi overflows beyond 1e150; there t -> 1/(2*phi) asymptotically.
    huge = np.abs(phi) > 1e150
    tame = np.where(huge, 0.0, phi)
    root = np.sqrt(1.0 + tame * tame)
    t = np.where(tame >= 0.0, 1.0, -1.0) / (np.abs(tame) + root)
    t[huge] = 1.0 / (2.0 * phi[huge])
    c = 1.0 / np.sqrt(1.0 + t * t)
    s = t * c

    su = (s * u)[:, None]
    c = c[:, None]
    # Columns: A <- A J with J[p,p]=J[q,q]=c, J[q,p]=s*conj(u), J[p,q]=-s*u.
    col_p = a[idx, :, p]
    col_q = a[idx, :, q]
    a[idx, :, p] = c * col_p + np.conj(su) * col_q
    a[idx, :, q] = -su * col_p + c * col_q
    # Rows: A <- J^dag A.
    row_p = a[idx, p, :]
    row_q = a[idx, q, :]
    a[idx, p, :] = c * row_p + su * row_q
    a[idx, q, :] = -np.conj(su) * row_p + c * row_q
    a[idx, p, q] = 0.0
    a[idx, q, p] = 0.0
