"""Field observables over network states.

A field assigns a real coefficient to each of a neuron's two levels; its
operator at site k is the coefficient-weighted sum of the two level
projectors there, padded with identities elsewhere.  The neural-activity
field is the special case with coefficients (0, 1) over the firing basis,
so its average at site k is neuron k's firing probability.  Collecting
per-site averages along a trajectory embeds the dynamics in R^n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    CONSTRUCTION_TOL,
    DRIFT_TOL,
    DimensionError,
    check_hermitian,
    identity,
    tensor_chain,
)
from .network import UnitaryNeuralMap


@dataclass(frozen=True)
class FieldSpec:
    """Real coefficients of the two computational-basis projectors of one
    site, quiet level first."""

    coeffs: tuple

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coeffs)
        if len(coeffs) != 2:
            raise ValueError(f"a field needs two coefficients, got {len(coeffs)}")
        if not all(math.isfinite(c) for c in coeffs):
            raise ValueError("field coefficients must be finite reals")
        object.__setattr__(self, "coeffs", coeffs)

    def site_operator(self) -> np.ndarray:
        """The single-site observable sum_s coeffs[s] |s><s|."""
        return np.diag(np.asarray(self.coeffs, dtype=np.complex128))


def check_activity_bounds(points) -> np.ndarray:
    """Validate and return a ``(samples, sites)`` series of activity
    averages as float64: averages of a {0,1}-spectrum observable must
    stay in [0, 1] within ``DRIFT_TOL``."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise DimensionError(f"expected a (samples, sites) array, got shape {pts.shape}")
    lo = float(pts.min(initial=0.0))
    hi = float(pts.max(initial=1.0))
    if not (-DRIFT_TOL <= lo and hi <= 1.0 + DRIFT_TOL):  # NaN fails too
        raise ValueError(f"activity averages outside [0, 1]: range [{lo!r}, {hi!r}]")
    return pts


def build_field_operator(spec: FieldSpec, k: int, n: int) -> np.ndarray:
    """Full-space operator of a field at site ``k``: identities at the
    other sites, the coefficient-weighted projector sum at site k."""
    if not 0 <= k < n:
        raise ValueError(f"site index {k} outside [0, {n})")
    factors = [identity(2)] * k + [spec.site_operator()] + [identity(2)] * (n - k - 1)
    return tensor_chain(factors)


def neural_activity_operator(k: int, n: int) -> np.ndarray:
    """Number operator at site k of an n-neuron network: counts 1 when
    neuron k fires, 0 otherwise."""
    return build_field_operator(FieldSpec(coeffs=(0.0, 1.0)), k, n)


def quantum_average(
    obs: np.ndarray, v: np.ndarray, *, herm_tol: float = CONSTRUCTION_TOL
) -> float:
    """Expectation <v|obs|v> of a hermitian observable in a pure state."""
    obs = np.asarray(obs)
    v = np.asarray(v)
    if not check_hermitian(obs, herm_tol):
        raise ValueError(f"observable is not hermitian within {herm_tol}")
    if obs.shape[1] != v.shape[0]:
        raise DimensionError(f"observable dim {obs.shape[1]} != state dim {v.shape[0]}")
    raw = complex(np.vdot(v, obs @ v))
    if not abs(raw.imag) <= 1e-8:  # NaN fails too
        raise ValueError(f"expectation has imaginary residue {raw.imag!r}")
    return raw.real


def activity_mean_field(v: np.ndarray, n: int) -> np.ndarray:
    """All n firing probabilities of a state as direct amplitude sums:
    neuron k's is the sum of the squared moduli of all components whose
    label has digit 1 at site k.

    Shape ``(n,)`` for one state, ``(count, n)`` for a block of states.
    """
    v = np.asarray(v)
    if v.ndim not in (1, 2) or v.shape[-1] != 2**n:
        raise DimensionError(f"state shape {v.shape} does not end in 2**{n}")
    probs = v.real**2 + v.imag**2
    sites = [probs.reshape(-1, 2**k, 2, 2 ** (n - k - 1))[:, :, 1, :] for k in range(n)]
    fired = np.stack([f.sum(axis=(1, 2)) for f in sites], axis=-1)
    return fired[0] if v.ndim == 1 else fired


def heisenberg_evolve(obs: np.ndarray, map_: UnitaryNeuralMap, t: int) -> np.ndarray:
    """Observable conjugated t steps: (F^dag)^t obs F^t, by repeated
    single-step conjugation."""
    if t < 0:
        raise ValueError(f"step count must be >= 0, got {t}")
    obs = np.asarray(obs, dtype=np.complex128)
    f = map_.matrix
    if obs.shape != f.shape:
        raise DimensionError(f"observable shape {obs.shape} != map shape {f.shape}")
    fdag = f.conj().T
    out = obs.copy()
    for _ in range(t):
        out = fdag @ out @ f
    if not check_hermitian(out, DRIFT_TOL):
        raise RuntimeError("conjugated observable drifted off hermitian")
    return out
