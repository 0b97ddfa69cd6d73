"""Closed forms of the two-neuron map's dynamics, as test oracles.

The map F(r) is real orthogonal.  Its eigenvalues are 1, 1 and
e^{+-i theta}, with cos(theta) = (c**2 + 2c - 1) / 2 and c = cos(r pi/2),
so every trajectory is a fixed part plus one rotation by theta per step.
These helpers compute from that structure, not by iterating the map.
"""

import numpy as np


def rotation_angle(r):
    """theta(r) in [0, 2 pi/3]: the angle F(r) rotates by in each step."""
    c = np.cos(np.asarray(r) * np.pi / 2)
    return np.arccos((c * c + 2 * c - 1) / 2)


def map_eigenvalues(r):
    """The closed-form spectrum 1, 1, e^{i theta}, e^{-i theta}."""
    theta = rotation_angle(r)
    return np.array([1.0, 1.0, np.exp(1j * theta), np.exp(-1j * theta)])


def spectral_mean_field(matrix, v0, times):
    """Both neurons' firing probabilities in the state F**t v0, for each t
    in ``times``, from the eigendecomposition of F."""
    w, vecs = np.linalg.eig(matrix)
    coeffs = np.linalg.solve(vecs, v0)
    states = (w ** np.asarray(times)[:, None] * coeffs) @ vecs.T
    p = np.abs(states) ** 2
    # site 0 is the most significant digit: labels 10, 11 fire neuron 0
    return np.stack([p[:, 2] + p[:, 3], p[:, 1] + p[:, 3]], axis=1)
