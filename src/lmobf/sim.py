"""Exact dense statevector simulator.

Qubit 1 is the leftmost qubit: basis-state index = sum over qubits q of
bit_q * 2^(n-q), matching the bit-string order used by the gf2 module.
Operations never mutate their inputs; every one returns a fresh state.

A list of CNOTs, on qubits or transversally on blocks of qubits, is a
permutation of basis indices. Only the blocks it touches move: their
axes go to the front, one gather permutes the rows they index, and the
axes go back. A one-qubit gate, an encoding isometry and the Hadamard
rotation of an X-tagged qubit are each one small matrix on one axis of
the amplitude tensor.

Measurements follow the partial-collapse rule: qubits tagged Z or X
(rotated within the gathered measured block) are read out, the outcome
function maps each observed substring, packed as an int like
BitVector.value, to the int code of its label (-1 for BOT, a substring
that does not decode), and only the distinction between labels
collapses the state. Basis states that share a label keep their
relative amplitudes. Qubits a measurement consumes are sliced out at
the bits the outcome fixes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

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

# Outcome functions take the int64 array of observed substrings, each
# packed with the first measured qubit as the most significant bit, and
# return an int64 array with one label code per substring; -1 is BOT.
# None means the identity labelling: each substring is its own code.
OutcomeFn = Callable[[np.ndarray], np.ndarray]


class QubitCapError(ValueError):
    """An operation would exceed the configured qubit cap."""


def check_cap(num_qubits: int) -> None:
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
        check_cap(self.num_qubits)
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
        check_cap(len(bits))
        amps = np.zeros(2 ** len(bits), dtype=np.complex128)
        amps[bits.value] = 1.0
        return StateVector(len(bits), amps)


@dataclass(frozen=True)
class MeasurementSpec:
    """Per-qubit basis tags ('Z', 'X', or None to skip) plus an outcome
    function from the packed substrings of the measured qubits, in
    ascending qubit order, to label codes (-1 is BOT). The consumed
    qubits (1-based), each fixed by every label, leave the post state at
    the bits they were read as."""

    basis: tuple[Optional[str], ...]
    outcome_fn: Optional[OutcomeFn] = None
    consumed: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for b in self.basis:
            if b not in ("Z", "X", None):
                raise ValueError(f"bad basis tag {b!r}")


@dataclass(frozen=True)
class MeasurementResult:
    outcome: int
    raw_bits: BitVector
    post_state: StateVector


def _on_axis(psi: np.ndarray, axis: int, matrix: np.ndarray) -> np.ndarray:
    """matrix applied to one axis of the tensor psi, as one 2-D product
    over a copy with that axis first. The axis stays in place and takes
    the matrix's row count as its length."""
    block = np.moveaxis(psi, axis, 0)
    out = matrix @ block.reshape(block.shape[0], -1)
    return np.moveaxis(out.reshape(matrix.shape[:1] + block.shape[1:]), 0, axis)


def apply_gate(state: StateVector, gate: str, targets: Sequence[int]) -> StateVector:
    if gate == "CNOT":
        return apply_cnots(state, [tuple(targets)])
    if gate not in _GATES_1Q:
        raise ValueError(f"unknown gate {gate!r}")
    n = state.num_qubits
    (q,) = targets
    if not 1 <= q <= n:
        raise ValueError(f"qubit {q} out of range 1..{n}")
    out = _on_axis(state.amplitudes.reshape((2,) * n), q - 1, _GATES_1Q[gate])
    return StateVector(n, out.reshape(-1))


def apply_cnots(
    state: StateVector, cnots: Sequence[tuple[int, int]], block: int = 1
) -> StateVector:
    """Apply the CNOTs (i, j) in list order. The qubits form consecutive
    blocks of block qubits each, and CNOT(i, j) XORs block i into block j
    qubit by qubit (a plain CNOT when block is 1).

    Only the k blocks the CNOTs touch move: their axes go to the front,
    in ascending order, so the state is a (2^(k*block), rest) matrix
    whose rows the touched bits index. One gather with a 2^(k*block)
    entry index permutes those rows, and the axes go back."""
    n = state.num_qubits
    if block < 1 or n % block:
        raise ValueError("state is not a whole number of blocks")
    wires = n // block
    for i, j in cnots:
        if i == j or not (1 <= i <= wires and 1 <= j <= wires):
            raise ValueError(f"CNOT ({i}, {j}) needs two distinct wires in 1..{wires}")
    if not cnots:
        return state
    touched = sorted({w for pair in cnots for w in pair})
    k = len(touched)
    # The shift of each touched block within a row index: the first is
    # the most significant, as in a basis index.
    shift = {w: (k - 1 - c) * block for c, w in enumerate(touched)}
    order = [w - 1 for w in touched] + [a for a in range(wires) if a + 1 not in shift]
    psi = state.amplitudes.reshape((1 << block,) * wires).transpose(order)
    # Each CNOT is its own inverse, so output row r reads the input at r
    # with the CNOTs applied last to first.
    idx = np.arange(1 << k * block, dtype=np.int64)
    ones = (1 << block) - 1
    for i, j in reversed(cnots):
        idx ^= ((idx >> shift[i]) & ones) << shift[j]
    rows = psi.reshape(len(idx), -1)[idx].reshape(psi.shape)
    back = sorted(range(wires), key=order.__getitem__)
    return StateVector(n, rows.transpose(back).reshape(-1))


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
    check_cap(n)
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
    n, p = state.num_qubits, s.ambient_dim
    if not 1 <= qubit <= n:
        raise ValueError(f"qubit {qubit} out of range 1..{n}")
    new_n = n - 1 + p
    check_cap(new_n)
    x = BitVector.zeros(p) if x_mask is None else x_mask
    z = BitVector.zeros(p) if z_mask is None else z_mask
    columns = [apply_pauli_mask(prepare_subspace_state(s, c), x, z) for c in (None, delta)]
    iso = np.stack([c.amplitudes for c in columns], axis=1)
    # The 2^p axis left at position qubit-1 flattens to the p encoded qubits in order.
    out = _on_axis(state.amplitudes.reshape((2,) * n), qubit - 1, iso)
    return StateVector(new_n, out.reshape(-1))


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """a then b. The amplitudes are np.kron's, the flattened outer
    product, without np.kron's general-case overhead."""
    check_cap(a.num_qubits + b.num_qubits)
    amps = (a.amplitudes[:, None] * b.amplitudes).reshape(-1)
    return StateVector(a.num_qubits + b.num_qubits, amps)


def _measurement_classes(state: StateVector, spec: MeasurementSpec):
    """Shared core: rotate X qubits, group the rows of the measured
    register by label code. Returns the measured axes, the rotated state
    as (rows, rest), every row's probability, the rows with support in
    ascending order, the class of each (numbered in first-occurrence
    order), the classes' codes and their probabilities."""
    n = state.num_qubits
    if len(spec.basis) != n:
        raise ValueError("spec length must equal qubit count")
    for q in spec.consumed:
        if not 1 <= q <= n or spec.basis[q - 1] is None:
            raise ValueError(f"consumed qubit {q} is not measured")
    axes = tuple(q for q, b in enumerate(spec.basis) if b is not None)
    k = len(axes)
    psi = np.moveaxis(state.amplitudes.reshape((2,) * n), axes, range(k))
    for c, q in enumerate(axes):
        if spec.basis[q] == "X":
            psi = _on_axis(psi, c, _GATES_1Q["H"])
    psi = np.ascontiguousarray(psi).reshape(2**k, -1)
    row_probs = (psi.real**2 + psi.imag**2).sum(axis=1)
    rows = np.flatnonzero(row_probs > 1e-24)
    codes = rows if spec.outcome_fn is None else np.asarray(spec.outcome_fn(rows), np.int64)
    uniq, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    cls = rank[inverse]
    return axes, psi, row_probs, rows, cls, uniq[order], np.bincount(cls, row_probs[rows])


def _collapse(
    spec: MeasurementSpec,
    axes: tuple[int, ...],
    psi: np.ndarray,
    keep_rows: np.ndarray,
    class_prob: float,
) -> StateVector:
    """Keep the class's rows of psi, renormalised, in a block that holds
    only the measured qubits that are not consumed: each row goes to its
    index with the consumed bits, which the class shares, removed. Then
    put the qubits back in order and rotate the X ones back out of the
    Hadamard basis."""
    n = len(spec.basis)
    k = len(axes)
    cut = sorted(axes.index(q - 1) for q in spec.consumed)
    first = int(keep_rows[0])
    if np.any((keep_rows ^ first) & sum(1 << (k - 1 - c) for c in cut)):
        raise ValueError("the outcome does not fix every consumed qubit")
    index = keep_rows
    for b in (k - 1 - c for c in cut):  # highest bit first: the lower ones stay put
        index = index >> (b + 1) << b | index & ((1 << b) - 1)
    post = np.zeros((2 ** (k - len(cut)), psi.shape[1]), dtype=psi.dtype)
    post[index] = psi[keep_rows] / np.sqrt(class_prob)
    left = [q for q in range(n) if q + 1 not in spec.consumed]
    moved = [left.index(q) for c, q in enumerate(axes) if c not in cut]
    post = np.moveaxis(post.reshape((2,) * len(left)), range(len(moved)), moved)
    for new, q in enumerate(left):
        if spec.basis[q] == "X":
            post = _on_axis(post, new, _GATES_1Q["H"])
    return StateVector(len(left), post.reshape(-1))


def measure(
    state: StateVector, spec: MeasurementSpec, rng: np.random.Generator
) -> MeasurementResult:
    """Sample one outcome label, collapse onto its class, and draw a
    concrete substring from within the class. The substring draw does not
    collapse the state further."""
    axes, psi, row_probs, rows, cls, codes, class_probs = _measurement_classes(state, spec)
    pick = int(rng.choice(len(codes), p=class_probs / class_probs.sum()))
    keep_rows = rows[cls == pick]
    within = row_probs[keep_rows]
    raw = keep_rows[int(rng.choice(len(keep_rows), p=within / within.sum()))]
    post = _collapse(spec, axes, psi, keep_rows, float(class_probs[pick]))
    return MeasurementResult(int(codes[pick]), BitVector.from_int(int(raw), len(axes)), post)


def measure_branches(
    state: StateVector, spec: MeasurementSpec
) -> list[tuple[int, float, StateVector]]:
    """All outcome label codes with their exact probabilities and post
    states, in first-occurrence order of the labels."""
    axes, psi, row_probs, rows, cls, codes, class_probs = _measurement_classes(state, spec)
    by_class = rows[np.argsort(cls, kind="stable")]
    out, start = [], 0
    for code, prob, end in zip(codes.tolist(), class_probs.tolist(), np.cumsum(np.bincount(cls))):
        out.append((code, prob, _collapse(spec, axes, psi, by_class[start:end], prob)))
        start = end
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
