"""Field observables over network states.

A field assigns a real coefficient to each single-site level; its
operator at site k is the coefficient-weighted sum of level projectors
there, padded with identities elsewhere.  The neural-activity field is
the special case with coefficients (0, 1) over the firing basis, so its
average at site k is the firing probability of neuron k.  Collecting
per-site averages along a trajectory embeds the dynamics in R^n.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    CONSTRUCTION_TOL,
    DRIFT_TOL,
    DimensionError,
    check_hermitian,
    check_unitary,
    identity,
    tensor_chain,
)
from .network import UnitaryNeuralMap


@dataclass(frozen=True)
class FieldSpec:
    """Real level coefficients plus the orthonormal single-site basis
    whose projectors carry them.  ``basis`` rows are the basis vectors;
    ``None`` means the computational basis."""

    coeffs: tuple
    basis: np.ndarray | None = None

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coeffs)
        if not all(math.isfinite(c) for c in coeffs):
            raise ValueError("field coefficients must be finite reals")
        object.__setattr__(self, "coeffs", coeffs)
        l = len(coeffs)
        if self.basis is not None:
            b = np.asarray(self.basis, dtype=np.complex128)
            if b.shape != (l, l):
                raise DimensionError(f"basis shape {b.shape} != ({l}, {l})")
            if not check_unitary(b.conj().T, CONSTRUCTION_TOL):
                raise ValueError("field basis is not orthonormal within 1e-12")
            object.__setattr__(self, "basis", b)

    @property
    def levels(self) -> int:
        return len(self.coeffs)

    def site_operator(self) -> np.ndarray:
        """The single-site observable sum_s coeffs[s] |b_s><b_s|."""
        l = self.levels
        if self.basis is None:
            return np.diag(np.asarray(self.coeffs, dtype=np.complex128))
        op = np.zeros((l, l), dtype=np.complex128)
        for s in range(l):
            vec = self.basis[s]
            op += self.coeffs[s] * np.outer(vec, vec.conj())
        return op


@dataclass(frozen=True)
class EnergyParams:
    """Angular frequency, action constant, and plain frequency with
    omega = 2*pi*f."""

    omega: float
    hbar: float
    f: float

    def __post_init__(self):
        if not (math.isfinite(self.omega) and math.isfinite(self.hbar) and math.isfinite(self.f)):
            raise ValueError("energy parameters must be finite")
        if self.hbar <= 0.0:
            raise ValueError(f"action constant must be > 0, got {self.hbar}")
        if abs(self.omega - 2.0 * math.pi * self.f) > 1e-12 * max(1.0, abs(self.omega)):
            raise ValueError(
                f"omega {self.omega!r} inconsistent with 2*pi*f = {2.0 * math.pi * self.f!r}"
            )

    @classmethod
    def natural(cls) -> "EnergyParams":
        """omega * hbar = 1, so energy equals the mean activity count."""
        return cls(omega=1.0, hbar=1.0, f=1.0 / (2.0 * math.pi))

    @classmethod
    def from_frequency(cls, f: float, hbar: float = 1.0) -> "EnergyParams":
        return cls(omega=2.0 * math.pi * f, hbar=hbar, f=f)


@dataclass(frozen=True)
class MeanFieldTrajectory:
    """Time-ordered sequence of per-site field averages, one row per
    sample."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2:
            raise DimensionError(f"expected a (samples, sites) array, got shape {pts.shape}")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[1]

    @property
    def samples(self) -> int:
        return self.points.shape[0]

    def component(self, k: int) -> np.ndarray:
        return self.points[:, k]

    def validate_activity_bounds(self, tol: float = DRIFT_TOL) -> "MeanFieldTrajectory":
        """Averages of a {0,1}-spectrum observable must stay in [0, 1]."""
        lo = float(self.points.min(initial=0.0))
        hi = float(self.points.max(initial=1.0))
        if lo < -tol or hi > 1.0 + tol:
            raise ValueError(f"activity averages outside [0, 1]: range [{lo!r}, {hi!r}]")
        return self


def build_field_operator(spec: FieldSpec, k: int, n: int, l: int | None = None) -> np.ndarray:
    """Full-space operator of a field at site ``k``: identities at the
    other sites, the coefficient-weighted projector sum at site k."""
    if l is None:
        l = spec.levels
    if l != spec.levels:
        raise DimensionError(f"field has {spec.levels} coefficients but sites have {l} levels")
    if not 0 <= k < n:
        raise ValueError(f"site index {k} outside [0, {n})")
    factors = [identity(l)] * k + [spec.site_operator()] + [identity(l)] * (n - k - 1)
    return tensor_chain(factors)


def lowering_operator() -> np.ndarray:
    """Two-level lowering operator: |0><1|."""
    return np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)


def raising_operator() -> np.ndarray:
    """Two-level raising operator: |1><0|."""
    return np.array([[0.0, 0.0], [1.0, 0.0]], dtype=np.complex128)


@functools.lru_cache(maxsize=None)
def _activity_operator_cached(k: int, n: int) -> np.ndarray:
    op = build_field_operator(FieldSpec(coeffs=(0.0, 1.0)), k, n)
    op.flags.writeable = False
    return op


def neural_activity_operator(k: int, n: int) -> np.ndarray:
    """Number operator at site k of a two-level network: counts 1 when
    neuron k fires, 0 otherwise.  Cached per (k, n); treat as read-only."""
    if not 0 <= k < n:
        raise ValueError(f"site index {k} outside [0, {n})")
    return _activity_operator_cached(k, n)


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
    if abs(raw.imag) > 1e-8:
        raise ValueError(f"expectation has imaginary residue {raw.imag!r}")
    return raw.real


def activity_amplitude_sum(v: np.ndarray, k: int, n: int):
    """Firing probability of neuron k as a direct amplitude sum: the
    squared moduli of all components whose label has digit 1 at site k.

    One state gives a float; a ``(count, 2**n)`` block of states gives
    one probability per row.
    """
    if not 0 <= k < n:
        raise ValueError(f"site index {k} outside [0, {n})")
    v = np.asarray(v)
    if v.ndim not in (1, 2) or v.shape[-1] != 2**n:
        raise DimensionError(f"state shape {v.shape} does not end in 2**{n}")
    probs = v.real**2 + v.imag**2
    fired = probs.reshape(-1, 2**k, 2, 2 ** (n - k - 1))[:, :, 1, :].sum(axis=(1, 2))
    return float(fired[0]) if v.ndim == 1 else fired


def activity_mean_field(v: np.ndarray, n: int, *, verify: bool = False) -> np.ndarray:
    """All n firing probabilities of a state via the amplitude-sum path:
    shape ``(n,)`` for one state, ``(count, n)`` for a block of states.

    With ``verify`` the operator-average path is evaluated too and the
    two must agree within 1e-12; this is a correctness cross-check, not
    an accuracy improvement.
    """
    points = np.stack([activity_amplitude_sum(v, k, n) for k in range(n)], axis=-1)
    if verify:
        states = np.asarray(v).reshape(-1, 2**n)
        for state, point in zip(states, points.reshape(-1, n)):
            for k in range(n):
                other = quantum_average(neural_activity_operator(k, n), state)
                if abs(other - point[k]) > 1e-12:
                    raise RuntimeError(
                        f"activity paths disagree at site {k}: {point[k]!r} vs {other!r}"
                    )
    return points


def mean_field_point(v: np.ndarray, field_ops) -> np.ndarray:
    """Per-site field averages of one state, one observable per site."""
    return np.array([quantum_average(op, v) for op in field_ops])


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


def firing_hamiltonian(k: int, n: int, params: EnergyParams) -> np.ndarray:
    """Energy observable of neuron k: omega * hbar times its activity."""
    return params.omega * params.hbar * neural_activity_operator(k, n)


def total_hamiltonian(n: int, params: EnergyParams) -> np.ndarray:
    """Network energy: the sum of all per-neuron firing Hamiltonians."""
    out = np.zeros((2**n, 2**n), dtype=np.complex128)
    for k in range(n):
        out += firing_hamiltonian(k, n, params)
    return out
