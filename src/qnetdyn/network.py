"""Network topologies, conditional gates, and unitary neural maps.

A network is a digraph of n neurons with l levels each.  Each neuron k
carries a conditional gate: a unitary acting on site k whose branch is
selected by the firing pattern of k's input neurons.  Activating all
neurons once, in a fixed order, multiplies the gates into a single
unitary map F on the l**n dimensional space; trajectories are generated
by applying F repeatedly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .linalg import (
    CONSTRUCTION_TOL,
    DRIFT_TOL,
    MAX_DIMENSION,
    DimensionError,
    as_state,
    check_unitary,
    identity,
    projector,
    tensor_chain,
)

# Sampled states per observer call: bounds the memory of a trajectory
# at BLOCK_SIZE states however many samples it records.
BLOCK_SIZE = 4096


@dataclass(frozen=True)
class NetworkTopology:
    """Digraph of ``n`` neurons with ``l`` levels each.

    ``edges`` holds ordered (source, target) pairs; self-loops are
    rejected because a neuron's gate conditions on its inputs' states,
    not its own.
    """

    n: int
    l: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"neuron count must be >= 1, got {self.n}")
        if self.l < 2:
            raise ValueError(f"level count must be >= 2, got {self.l}")
        if self.l**self.n > MAX_DIMENSION:
            raise DimensionError(
                f"state dimension {self.l}**{self.n} exceeds cap {MAX_DIMENSION}"
            )
        edges = frozenset(tuple(e) for e in self.edges)
        for src, dst in edges:
            if not (0 <= src < self.n and 0 <= dst < self.n):
                raise ValueError(f"edge {(src, dst)} outside neuron range [0, {self.n})")
            if src == dst:
                raise ValueError(f"self-loop {(src, dst)} not allowed")
        object.__setattr__(self, "edges", edges)

    @property
    def dim(self) -> int:
        return self.l**self.n

    def in_neighbors(self, target: int) -> tuple:
        """Input neurons of ``target``, ascending."""
        return tuple(sorted(src for src, dst in self.edges if dst == target))


@dataclass(frozen=True)
class ConditionalGateSpec:
    """Per-neuron gate description.

    ``table`` maps each firing pattern of the input neurons (a tuple,
    one digit per input in ascending-index order) to the l x l unitary
    applied at ``target`` for that branch.
    """

    target: int
    inputs: tuple
    table: Mapping

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(
            self, "table", {tuple(k): np.asarray(v, dtype=np.complex128) for k, v in self.table.items()}
        )


@dataclass(frozen=True)
class ActivationOrder:
    """Permutation of neuron indices; ``perm[0]`` activates first."""

    perm: tuple

    def __post_init__(self):
        perm = tuple(self.perm)
        if sorted(perm) != list(range(len(perm))):
            raise ValueError(f"{perm} is not a permutation of 0..{len(perm) - 1}")
        object.__setattr__(self, "perm", perm)


@dataclass(frozen=True)
class QRNNParams:
    """Rotation parameter of the two-neuron recurrent network, in [0, 1]."""

    r: float

    def __post_init__(self):
        if not 0.0 <= self.r <= 1.0:
            raise ValueError(f"rotation parameter must lie in [0, 1], got {self.r}")


@dataclass(frozen=True)
class UnitaryNeuralMap:
    """A composed neural map: the full-space unitary plus its provenance."""

    matrix: np.ndarray
    topology: NetworkTopology | None
    order: ActivationOrder
    params: Mapping = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def build_conditional_gate(spec: ConditionalGateSpec, topo: NetworkTopology) -> np.ndarray:
    """Full-space unitary for one neuron's conditional gate.

    Sums, over every input firing pattern, the tensor product with the
    pattern's projectors at the input sites, the selected unitary at the
    target site, and identity elsewhere.
    """
    n, l = topo.n, topo.l
    if not 0 <= spec.target < n:
        raise ValueError(f"target {spec.target} outside neuron range [0, {n})")
    expected_inputs = topo.in_neighbors(spec.target)
    if spec.inputs != expected_inputs:
        raise ValueError(
            f"gate inputs {spec.inputs} do not match topology in-neighbors "
            f"{expected_inputs} of neuron {spec.target}"
        )

    patterns = set(itertools.product(range(l), repeat=len(spec.inputs)))
    if set(spec.table) != patterns:
        missing = sorted(patterns - set(spec.table))
        extra = sorted(set(spec.table) - patterns)
        raise ValueError(
            f"gate table must cover each input pattern exactly once "
            f"(missing {missing}, unexpected {extra})"
        )
    for pattern, u in spec.table.items():
        if u.shape != (l, l):
            raise DimensionError(f"table entry for {pattern} has shape {u.shape}, want ({l}, {l})")
        if not check_unitary(u, CONSTRUCTION_TOL):
            raise ValueError(f"table entry for pattern {pattern} is not unitary within 1e-12")

    gate = np.zeros((topo.dim, topo.dim), dtype=np.complex128)
    for pattern in sorted(spec.table):
        branch = spec.table[pattern]
        factors = []
        for site in range(n):
            if site == spec.target:
                factors.append(branch)
            elif site in spec.inputs:
                factors.append(projector(pattern[spec.inputs.index(site)], l))
            else:
                factors.append(identity(l))
        gate += tensor_chain(factors)
    if not check_unitary(gate, CONSTRUCTION_TOL):
        raise RuntimeError("assembled conditional gate failed its unitarity check")
    return gate


def compose_neural_map(
    gates: Sequence[np.ndarray],
    order: ActivationOrder,
    topology: NetworkTopology | None = None,
    params: Mapping | None = None,
) -> UnitaryNeuralMap:
    """Multiply per-neuron gates into the map F = U_{p(n-1)} ... U_{p(0)}.

    ``gates[k]`` is neuron k's full-space gate; ``order.perm[0]`` acts
    first on states, so it sits rightmost in the product.
    """
    gates = [np.asarray(g, dtype=np.complex128) for g in gates]
    if len(gates) != len(order.perm):
        raise ValueError(f"{len(gates)} gates but order over {len(order.perm)} neurons")
    dim = gates[0].shape[0]
    for g in gates:
        if g.shape != (dim, dim):
            raise DimensionError(f"gate shape {g.shape} does not match ({dim}, {dim})")
        if not check_unitary(g, CONSTRUCTION_TOL):
            raise ValueError("gate is not unitary within 1e-12")
    f = identity(dim)
    for k in order.perm:
        f = gates[k] @ f
    if not check_unitary(f, DRIFT_TOL):
        raise RuntimeError("composed neural map failed its unitarity check")
    return UnitaryNeuralMap(matrix=f, topology=topology, order=order, params=dict(params or {}))


def qrnn_rotation(r: float) -> np.ndarray:
    """Single-site rotation by r * pi/2 in the firing basis."""
    c = math.cos(r * math.pi / 2.0)
    s = math.sin(r * math.pi / 2.0)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def qrnn_topology() -> NetworkTopology:
    """Two mutually connected two-level neurons."""
    return NetworkTopology(n=2, l=2, edges=frozenset({(0, 1), (1, 0)}))


def build_qrnn_map(params: QRNNParams) -> UnitaryNeuralMap:
    """Reference two-neuron recurrent map.

    Each neuron rotates its own state by r * pi/2 when its input neuron
    fires and does nothing otherwise; neuron 1 activates first, then
    neuron 0.
    """
    topo = qrnn_topology()
    u_r = qrnn_rotation(params.r)
    table = {(0,): identity(2), (1,): u_r}
    gate0 = build_conditional_gate(ConditionalGateSpec(target=0, inputs=(1,), table=table), topo)
    gate1 = build_conditional_gate(ConditionalGateSpec(target=1, inputs=(0,), table=table), topo)
    order = ActivationOrder(perm=(1, 0))
    return compose_neural_map([gate0, gate1], order, topology=topo, params={"r": params.r})


def run_trajectory(
    map_: UnitaryNeuralMap,
    v0: np.ndarray,
    transient: int,
    samples: int,
    observers: Sequence[Callable[[np.ndarray], np.ndarray]],
) -> list:
    """Iterate the map and collect observer outputs along the trajectory.

    The first ``transient`` applications are discarded; sample index 0 is
    the state after ``transient`` applications.  Sampled states are
    recorded in read-only blocks of at most ``BLOCK_SIZE`` consecutive
    rows, and each observer is called once per block with the
    ``(count, dim)`` array; it must return one row per state.  With no
    samples, each observer sees one empty block.  The return value is
    one array per observer: its per-block outputs concatenated in sample
    order.
    """
    if transient < 0 or samples < 0:
        raise ValueError("transient and sample counts must be >= 0")
    f = map_.matrix
    v = as_state(v0)
    if v.shape[0] != f.shape[0]:
        raise DimensionError(f"state dim {v.shape[0]} != map dim {f.shape[0]}")
    for _ in range(transient):
        v = f @ v
    out: list = [[] for _ in observers]
    for start in range(0, max(samples, 1), BLOCK_SIZE):
        count = min(BLOCK_SIZE, samples - start)
        block = np.empty((count, v.shape[0]), dtype=np.complex128)
        for i in range(count):
            block[i] = v
            v = f @ v
        drift = np.abs(np.sqrt(np.sum(block.real**2 + block.imag**2, axis=1)) - 1.0)
        if np.any(drift > DRIFT_TOL):
            raise RuntimeError(f"norm drifted by {drift.max():.3e} during trajectory")
        block.flags.writeable = False
        for slot, observe in zip(out, observers):
            rows = observe(block)
            if len(rows) != count:
                raise ValueError(f"observer returned {len(rows)} rows for {count} states")
            slot.append(rows)
    return [np.concatenate(parts) for parts in out]
