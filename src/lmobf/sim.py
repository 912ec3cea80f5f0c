"""Exact dense statevector simulator.

Qubit 1 is the leftmost qubit: basis-state index = sum over qubits q of
bit_q * 2^(n-q), matching the bit-string order used by the gf2 module.
Operations never mutate their inputs; every one returns a fresh state.

A list of CNOTs, on qubits or transversally on blocks of qubits, is a
permutation of basis indices and is applied as one gather.

Measurements follow the partial-collapse rule: qubits tagged Z or X are
read out, the outcome function maps the observed substring to a label,
and only the distinction between labels collapses the state. Basis
states that share a label keep their relative amplitudes. Qubits a
measurement consumes are sliced out at the bits the outcome fixes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Hashable, Optional, Sequence

import numpy as np

from .gf2 import BitVector, Subspace, parity

QUBIT_CAP = 24

_SQRT2 = np.sqrt(2.0)
_GATES_1Q = {
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
    "H": np.array([[1, 1], [1, -1]], dtype=np.complex128) / _SQRT2,
    "T": np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=np.complex128),
}

# Outcome functions take a (rows, k) uint8 matrix of observed substrings and
# return one hashable label per row. None means the identity labelling
# (each substring is its own outcome, as a tuple of bits).
OutcomeFn = Callable[[np.ndarray], Sequence[Hashable]]


class QubitCapError(ValueError):
    """An operation would exceed the configured qubit cap."""


def _check_cap(num_qubits: int) -> None:
    if num_qubits > QUBIT_CAP:
        raise QubitCapError(f"{num_qubits} qubits exceeds cap of {QUBIT_CAP}")


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized pure state on num_qubits qubits.

    Equality of states is physical, not structural: compare with
    state_distance, which ignores global phase.
    """

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        _check_cap(self.num_qubits)
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (2**self.num_qubits,):
            raise ValueError("amplitude count does not match qubit count")
        norm = math.sqrt(np.vdot(amps, amps).real)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"state norm {norm!r} outside tolerance")
        object.__setattr__(self, "amplitudes", amps)

    @staticmethod
    def zero(num_qubits: int) -> "StateVector":
        return StateVector.basis(BitVector.zeros(num_qubits))

    @staticmethod
    def basis(bits: BitVector) -> "StateVector":
        _check_cap(len(bits))
        amps = np.zeros(2 ** len(bits), dtype=np.complex128)
        amps[bits.value] = 1.0
        return StateVector(len(bits), amps)


@dataclass(frozen=True)
class MeasurementSpec:
    """Per-qubit basis tags ('Z', 'X', or None to skip) plus an outcome
    function over the observed substring of the measured qubits, listed
    in ascending qubit order. The consumed qubits (1-based), each fixed
    by every label, leave the post state at the bits they were read as."""

    basis: tuple[Optional[str], ...]
    outcome_fn: Optional[OutcomeFn] = None
    consumed: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for b in self.basis:
            if b not in ("Z", "X", None):
                raise ValueError(f"bad basis tag {b!r}")


@dataclass(frozen=True)
class MeasurementResult:
    outcome: Hashable
    raw_bits: BitVector
    post_state: StateVector


def rowwise(fn: Callable[[tuple[int, ...]], Hashable]) -> OutcomeFn:
    """Adapt a per-substring function to the batch outcome protocol."""
    return lambda m: [fn(tuple(int(b) for b in row)) for row in m]


def apply_gate(state: StateVector, gate: str, targets: Sequence[int]) -> StateVector:
    if gate == "CNOT":
        return apply_cnots(state, [tuple(targets)])
    if gate not in _GATES_1Q:
        raise ValueError(f"unknown gate {gate!r}")
    n = state.num_qubits
    (q,) = targets
    if not 1 <= q <= n:
        raise ValueError(f"qubit {q} out of range 1..{n}")
    psi = state.amplitudes.reshape((2,) * n)
    block = _GATES_1Q[gate] @ np.moveaxis(psi, q - 1, 0).reshape(2, -1)
    out = np.moveaxis(block.reshape((2,) * n), 0, q - 1)
    return StateVector(n, out.reshape(-1))


def apply_cnots(
    state: StateVector, cnots: Sequence[tuple[int, int]], block: int = 1
) -> StateVector:
    """Apply the CNOTs (i, j) in list order as one gather. The qubits
    form consecutive blocks of block qubits each, and CNOT(i, j) XORs
    block i into block j qubit by qubit (a plain CNOT when block is 1)."""
    n = state.num_qubits
    if block < 1 or n % block:
        raise ValueError("state is not a whole number of blocks")
    wires = n // block
    for i, j in cnots:
        if i == j or not (1 <= i <= wires and 1 <= j <= wires):
            raise ValueError(f"CNOT ({i}, {j}) needs two distinct wires in 1..{wires}")
    if not cnots:
        return state
    # Each CNOT is its own inverse, so output index k reads the input at k
    # with the CNOTs applied last to first.
    idx = np.arange(2**n, dtype=np.int64)
    ones = (1 << block) - 1
    for i, j in reversed(cnots):
        idx ^= ((idx >> (wires - i) * block) & ones) << (wires - j) * block
    return StateVector(n, state.amplitudes[idx])


def apply_pauli_mask(state: StateVector, x_mask: BitVector, z_mask: BitVector) -> StateVector:
    """Apply X^x Z^z: phases from z first, then bit flips from x."""
    n = state.num_qubits
    if len(x_mask) != n or len(z_mask) != n:
        raise ValueError("mask length must equal qubit count")
    idx = np.arange(2**n, dtype=np.int64)
    signs = 1.0 - 2.0 * parity(idx, z_mask.value)
    out = np.empty_like(state.amplitudes)
    out[idx ^ x_mask.value] = state.amplitudes * signs
    return StateVector(n, out)


def prepare_subspace_state(s: Subspace, shift: Optional[BitVector] = None) -> StateVector:
    """Uniform superposition over the coset s + shift."""
    n = s.ambient_dim
    _check_cap(n)
    indices = np.array([0 if shift is None else shift.value], dtype=np.int64)
    for row in s.basis.rows:
        indices = np.concatenate([indices, indices ^ row.value])
    amps = np.zeros(2**n, dtype=np.complex128)
    amps[indices] = 1.0 / np.sqrt(2.0**s.dim)
    return StateVector(n, amps)


def apply_encoding_isometry(
    state: StateVector,
    qubit: int,
    s: Subspace,
    delta: BitVector,
    x_mask: Optional[BitVector] = None,
    z_mask: Optional[BitVector] = None,
) -> StateVector:
    """Replace one qubit by ambient_dim qubits via |0> -> P|s>,
    |1> -> P|s+delta>, where P = X^x_mask Z^z_mask (the identity by
    default) is applied to the two 2^ambient_dim-amplitude columns, so
    the mask never touches the whole state."""
    n = state.num_qubits
    p = s.ambient_dim
    if not 1 <= qubit <= n:
        raise ValueError(f"qubit {qubit} out of range 1..{n}")
    new_n = n - 1 + p
    _check_cap(new_n)
    x = BitVector.zeros(p) if x_mask is None else x_mask
    z = BitVector.zeros(p) if z_mask is None else z_mask
    columns = [apply_pauli_mask(prepare_subspace_state(s, c), x, z) for c in (None, delta)]
    iso = np.stack([c.amplitudes for c in columns], axis=1)
    psi = state.amplitudes.reshape((2,) * n)
    block = np.moveaxis(psi, qubit - 1, 0).reshape(2, -1)
    out = (iso @ block).reshape((2,) * p + (2,) * (n - 1))
    out = np.moveaxis(out, tuple(range(p)), tuple(range(qubit - 1, qubit - 1 + p)))
    return StateVector(new_n, out.reshape(-1))


def tensor(a: StateVector, b: StateVector) -> StateVector:
    _check_cap(a.num_qubits + b.num_qubits)
    return StateVector(a.num_qubits + b.num_qubits, np.kron(a.amplitudes, b.amplitudes))


def _measurement_classes(state: StateVector, spec: MeasurementSpec):
    """Shared core: rotate X qubits, group rows of the measured register
    by outcome label. Returns everything measure/measure_branches need."""
    n = state.num_qubits
    if len(spec.basis) != n:
        raise ValueError("spec length must equal qubit count")
    for q in spec.consumed:
        if not 1 <= q <= n or spec.basis[q - 1] is None:
            raise ValueError(f"consumed qubit {q} is not measured")
    axes = tuple(q for q, b in enumerate(spec.basis) if b is not None)
    k = len(axes)
    work = state
    for q, b in enumerate(spec.basis):
        if b == "X":
            work = apply_gate(work, "H", (q + 1,))
    psi = np.moveaxis(work.amplitudes.reshape((2,) * n), axes, range(k))
    psi = np.ascontiguousarray(psi).reshape(2**k, -1)
    row_probs = (psi.real**2 + psi.imag**2).sum(axis=1)
    rows = np.flatnonzero(row_probs > 1e-24)
    bits = ((rows[:, None] >> np.arange(k - 1, -1, -1)) & 1).astype(np.uint8)
    if spec.outcome_fn is None:
        labels = [tuple(int(b) for b in row) for row in bits]
    else:
        labels = list(spec.outcome_fn(bits))
    classes: dict[Hashable, list[int]] = {}  # in first-occurrence order
    for pos, lab in enumerate(labels):
        classes.setdefault(lab, []).append(pos)
    return axes, psi, row_probs, rows, classes


def _collapse(
    spec: MeasurementSpec,
    axes: tuple[int, ...],
    psi: np.ndarray,
    keep_rows: np.ndarray,
    class_prob: float,
) -> StateVector:
    """Keep the class's rows of psi, renormalised; slice the consumed
    qubits out at the bits those rows share; put the other qubits back in
    order and rotate their X qubits back out of the Hadamard basis."""
    n = len(spec.basis)
    k = len(axes)
    cut = {axes.index(q - 1) for q in spec.consumed}
    first = int(keep_rows[0])
    if np.any((keep_rows ^ first) & sum(1 << (k - 1 - c) for c in cut)):
        raise ValueError("the outcome does not fix every consumed qubit")
    post = np.zeros_like(psi)
    post[keep_rows] = psi[keep_rows] / np.sqrt(class_prob)
    at = tuple(first >> (k - 1 - c) & 1 if c in cut else slice(None) for c in range(k))
    post = post.reshape((2,) * n)[at]
    left = [q for q in range(n) if q + 1 not in spec.consumed]
    moved = [left.index(q) for c, q in enumerate(axes) if c not in cut]
    post = np.moveaxis(post, range(len(moved)), moved)
    result = StateVector(len(left), post.reshape(-1))
    for new, q in enumerate(left):
        if spec.basis[q] == "X":
            result = apply_gate(result, "H", (new + 1,))
    return result


def measure(
    state: StateVector, spec: MeasurementSpec, rng: np.random.Generator
) -> MeasurementResult:
    """Sample one outcome label, collapse onto its class, and draw a
    concrete substring from within the class. The substring draw does not
    collapse the state further."""
    axes, psi, row_probs, rows, classes = _measurement_classes(state, spec)
    if not classes:
        raise ValueError("state has no support")
    order = list(classes)
    class_probs = np.array([row_probs[rows[pos]].sum() for pos in classes.values()])
    pick = int(rng.choice(len(order), p=class_probs / class_probs.sum()))
    outcome = order[pick]
    positions = classes[outcome]
    keep_rows = rows[positions]
    within = row_probs[keep_rows]
    raw_pos = positions[int(rng.choice(len(positions), p=within / within.sum()))]
    raw_bits = BitVector.from_int(int(rows[raw_pos]), len(axes))
    post = _collapse(spec, axes, psi, keep_rows, float(class_probs[pick]))
    return MeasurementResult(outcome, raw_bits, post)


def measure_branches(
    state: StateVector, spec: MeasurementSpec
) -> list[tuple[Hashable, float, StateVector]]:
    """All outcome labels with their exact probabilities and post states,
    in first-occurrence order of the labels."""
    axes, psi, row_probs, rows, classes = _measurement_classes(state, spec)
    out = []
    for lab, positions in classes.items():
        keep_rows = rows[positions]
        prob = float(row_probs[keep_rows].sum())
        out.append((lab, prob, _collapse(spec, axes, psi, keep_rows, prob)))
    return out


def state_distance(a: StateVector, b: StateVector) -> float:
    """1 - |<a|b>|, invariant under global phase."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("qubit counts differ")
    return float(1.0 - abs(np.vdot(a.amplitudes, b.amplitudes)))


def dump(state: StateVector) -> str:
    """One line per nonzero amplitude: 'bitstring re im'."""
    lines = []
    for idx, amp in enumerate(state.amplitudes):
        if abs(amp) > 1e-12:
            bits = BitVector.from_int(idx, state.num_qubits)
            lines.append(f"{bits} {amp.real:.12g} {amp.imag:.12g}")
    return "\n".join(lines)
