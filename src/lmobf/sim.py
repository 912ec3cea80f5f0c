"""Exact sparse statevector simulator.

A state stores only its nonzero amplitudes: its support, the sorted
int64 indices of the basis states it holds, and the complex values on
them. Qubit 1 is the leftmost qubit: basis-state index = sum over
qubits q of bit_q * 2^(n-q), matching the bit-string order used by the
gf2 module. Operations never mutate their inputs; every one returns a
fresh state, built through a private path that skips the norm check.
Only exact zeros leave a support.

The dense entry points cap qubits: StateVector(n, amplitudes), zero,
basis and the dense amplitudes view take at most QUBIT_CAP. The kernels
cap nonzero amplitudes instead, and the scratch a measurement sums its
rows in, both at 2^QUBIT_CAP; indices are int64, so a state has at most
INDEX_BITS qubits.

A list of CNOTs, on qubits or transversally on blocks of qubits,
shifts and XORs the indices, and a Pauli mask XORs them and flips
signs; both then sort. A one-qubit matrix (a gate, or the Hadamard
rotation of an X-tagged qubit) multiplies the support's entries,
gathered in pairs that differ only at that qubit, as one zero-filled
(2, M) array. The encoding isometry expands each index by the nonzero
rows of its two columns.

Measurements follow the partial-collapse rule: qubits tagged Z or X
(rotated within the measured register) are read out, the outcome
function maps each observed substring, packed as an int like
BitVector.value, to the int code of its label (-1 for BOT, a substring
that does not decode), and only the distinction between labels
collapses the state. Basis states that share a label keep their
relative amplitudes. Qubits a measurement consumes are sliced out at
the bits the outcome fixes. One stable argsort groups the entries by
the row of the measured register they lie in, and another the rows by
label code; classes are numbered in the order their first rows occur.
measure draws a class, then a row of it. Each draw takes one uniform,
rng.random(), and returns the index Generator.choice(len(w),
p=w / w.sum()) returns for the weights w: the first entry of the
normalised cumulative sum above the uniform.

Every amplitude and probability equals, bit for bit, what the dense
layout (2^n amplitudes, the tensor axes moved and multiplied) computes.
BLAS rounds the last columns of a (2, M) product apart from the others
when M is not a multiple of 4, so a one-qubit matrix either scatters a
small or dense state into the whole register, M = 2^(n-1) as in the
dense product, or pads M to a multiple of 8. A row's probability is
numpy's pairwise sum of a zero-filled scratch row as long as the dense
row, so the additions fall in the dense order. The isometry's columns
are real and disjoint, so each product has one nonzero term and needs
no BLAS. numpy multiplies a lone pair of complex scalars in a loop of
its own, so tensor never multiplies one entry alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .gf2 import BitVector, Subspace, parity

QUBIT_CAP = 24
INDEX_BITS = 62  # the widest state an int64 index can address
BOT = -1  # the label code of a substring that does not decode

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
    """An operation would exceed the simulator's cap: more than QUBIT_CAP
    qubits at a dense entry point, or more than 2^QUBIT_CAP nonzero
    amplitudes (or scratch entries) in a kernel."""


def check_cap(num_qubits: int) -> None:
    if num_qubits > QUBIT_CAP:
        raise QubitCapError(f"{num_qubits} qubits exceeds cap of {QUBIT_CAP}")


def _check_size(num_qubits: int, entries: int) -> None:
    if num_qubits > INDEX_BITS:
        raise QubitCapError(f"{num_qubits} qubits exceeds the {INDEX_BITS}-bit index")
    if entries > 1 << QUBIT_CAP:
        raise QubitCapError(f"{entries} amplitudes exceeds cap of 2^{QUBIT_CAP}")


class StateVector:
    """Normalized pure state on num_qubits qubits: the sorted int64
    indices of its nonzero amplitudes (support) and the complex values
    on them. StateVector(n, amplitudes) takes the dense 2^n amplitudes of
    at most QUBIT_CAP qubits and checks their norm.

    Equality of states is physical, not structural: compare with
    state_distance, which ignores global phase.
    """

    __slots__ = ("num_qubits", "support", "values")

    def __init__(self, num_qubits: int, amplitudes: np.ndarray) -> None:
        check_cap(num_qubits)
        amps = np.asarray(amplitudes, dtype=np.complex128)
        if amps.shape != (2**num_qubits,):
            raise ValueError("amplitude count does not match qubit count")
        norm = math.sqrt(np.vdot(amps, amps).real)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"state norm {norm!r} outside tolerance")
        support = np.flatnonzero(amps)
        self.num_qubits, self.support, self.values = num_qubits, support, amps[support]

    @classmethod
    def _of(cls, num_qubits: int, support: np.ndarray, values: np.ndarray) -> "StateVector":
        """The kernels' path: a state from its sorted support and values,
        unchecked."""
        state = object.__new__(cls)
        state.num_qubits, state.support, state.values = num_qubits, support, values
        return state

    @property
    def amplitudes(self) -> np.ndarray:
        """The dense 2^num_qubits amplitudes, built anew on each access;
        raises QubitCapError past QUBIT_CAP qubits."""
        check_cap(self.num_qubits)
        amps = np.zeros(2**self.num_qubits, dtype=np.complex128)
        amps[self.support] = self.values
        return amps

    @staticmethod
    def zero(num_qubits: int) -> "StateVector":
        return StateVector.basis(BitVector.zeros(num_qubits))

    @staticmethod
    def basis(bits: BitVector) -> "StateVector":
        check_cap(len(bits))
        index = np.array([bits.value], dtype=np.int64)
        return StateVector._of(len(bits), index, np.ones(1, dtype=np.complex128))


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


def _runs(qubits: Sequence[int]) -> list[list[int]]:
    """The runs of adjacent qubits in an ascending list, as [first, count]."""
    runs: list[list[int]] = []
    for q in qubits:
        if runs and runs[-1][0] + runs[-1][1] == q:
            runs[-1][1] += 1
        else:
            runs.append([q, 1])
    return runs


def _bits_at(index: np.ndarray, n: int, qubits: Sequence[int]) -> np.ndarray:
    """Each index's bits at the 0-based qubits, ascending, packed with the
    first as the most significant bit. A run of adjacent qubits is one
    shift and mask."""
    out = np.zeros(len(index), dtype=np.int64)
    for first, count in _runs(qubits):
        out = out << count | index >> (n - first - count) & (1 << count) - 1
    return out


def _drop_bits(index: np.ndarray, n: int, qubits: Sequence[int]) -> np.ndarray:
    """index with the bits of the 0-based qubits, ascending, removed and
    the bits above each run moved down."""
    for first, count in _runs(qubits):  # highest bits first: the lower ones stay put
        low = n - first - count
        index = index >> (n - first) << low | index & (1 << low) - 1
    return index


def _group(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """What np.unique's inverse and index give, from one stable argsort:
    each key's group, the distinct keys numbered in ascending order, and
    each group's first position in keys."""
    order = keys.argsort(kind="stable")
    ordered = keys[order]
    starts = np.empty(len(keys), dtype=bool)
    starts[:1] = True
    starts[1:] = ordered[1:] != ordered[:-1]
    group = np.empty(len(keys), dtype=np.int64)
    group[order] = starts.cumsum() - 1
    return group, order[starts]


def _rotate(
    n: int, support: np.ndarray, values: np.ndarray, qubits: Sequence[int], matrix: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The 2x2 matrix on each of the 0-based qubits, ascending, one after
    the other, on the state (support, values). Per qubit, one matrix
    product multiplies the pairs of entries that differ only at that
    qubit as a zero-filled (2, M) array. A state of at most 4 qubits, or
    one of at most QUBIT_CAP qubits whose support fills at least 1/16 of
    the register, is scattered into the whole register, so that
    M = 2^(n-1) as in the dense product. Otherwise, per run of adjacent qubits, the entries that
    agree off the run form a group, one row of a zero-filled
    (G, 2^count) block, and G is padded so that M is a multiple of 8:
    every pair then takes the BLAS kernel path it takes in the dense
    product. Exact zeros leave the support."""
    if not qubits:
        return support, values
    if n <= 4 or n <= QUBIT_CAP and 1 << n <= 16 * len(support):
        block = np.zeros((2,) * n, dtype=np.complex128)
        block.reshape(-1)[support] = values
        block = _on_pairs(block, qubits, matrix).reshape(-1)
        support = block.nonzero()[0]
        return support, block[support]
    for first, count in _runs(qubits):
        low = n - first - count
        width = 1 << count
        off_run = support & ~(width - 1 << low)
        group, heads = _group(off_run)
        keys = off_run[heads]
        step = max(1, 16 // width)
        rows = -(-len(keys) // step) * step
        _check_size(n, rows * width)
        block = np.zeros((rows,) + (2,) * count, dtype=np.complex128)
        block.reshape(len(block), width)[group, support >> low & width - 1] = values
        block = _on_pairs(block, range(1, count + 1), matrix)
        block = block.reshape(len(block), width)[: len(keys)]
        index = keys[:, None] | np.arange(width, dtype=np.int64) << low
        keep = block != 0
        support, values = index[keep], block[keep]
        if low:  # a run that ends at the last qubit leaves the index sorted
            order = np.argsort(support)
            support, values = support[order], values[order]
    return support, values


def _on_pairs(block: np.ndarray, axes: Sequence[int], matrix: np.ndarray) -> np.ndarray:
    """matrix on each of the block's axes of length 2 in turn, as one
    product with a contiguous (2, M) array whose columns run over the
    other axes in order; the result is contiguous."""
    for a in axes:
        pairs = np.ascontiguousarray(block.transpose(a, *range(a), *range(a + 1, block.ndim)))
        out = (matrix @ pairs.reshape(2, -1)).reshape(pairs.shape)
        block = out.transpose(*range(1, a + 1), 0, *range(a + 1, block.ndim))
    return np.ascontiguousarray(block)


def apply_gate(state: StateVector, gate: str, targets: Sequence[int]) -> StateVector:
    if gate == "CNOT":
        return apply_cnots(state, [tuple(targets)])
    if gate not in _GATES_1Q:
        raise ValueError(f"unknown gate {gate!r}")
    n = state.num_qubits
    (q,) = targets
    if not 1 <= q <= n:
        raise ValueError(f"qubit {q} out of range 1..{n}")
    return StateVector._of(n, *_rotate(n, state.support, state.values, (q - 1,), _GATES_1Q[gate]))


def _permuted(state: StateVector, index: np.ndarray, values: np.ndarray) -> StateVector:
    """The state with each value moved to its new index, sorted."""
    order = np.argsort(index)
    return StateVector._of(state.num_qubits, index[order], values[order])


def apply_cnots(
    state: StateVector, cnots: Sequence[tuple[int, int]], block: int = 1
) -> StateVector:
    """Apply the CNOTs (i, j) in list order. The qubits form consecutive
    blocks of block qubits each, and CNOT(i, j) XORs block i into block j
    qubit by qubit (a plain CNOT when block is 1): a shift and XOR of
    every index of the support."""
    n = state.num_qubits
    if block < 1 or n % block:
        raise ValueError("state is not a whole number of blocks")
    wires = n // block
    for i, j in cnots:
        if i == j or not (1 <= i <= wires and 1 <= j <= wires):
            raise ValueError(f"CNOT ({i}, {j}) needs two distinct wires in 1..{wires}")
    if not cnots:
        return state
    # Block w sits at shift (wires - w) * block within an index.
    ones = (1 << block) - 1
    index = state.support
    for i, j in cnots:
        index = index ^ (index >> (wires - i) * block & ones) << (wires - j) * block
    return _permuted(state, index, state.values)


def permute_blocks(state: StateVector, order: Sequence[int], block: int) -> StateVector:
    """The qubits, in consecutive blocks of block qubits, rearranged so
    that block k (0-based) of the result is block order[k] of state."""
    count = len(order)
    ones = (1 << block) - 1
    index = np.zeros_like(state.support)
    for old in order:
        index = index << block | state.support >> (count - 1 - old) * block & ones
    return _permuted(state, index, state.values)


def apply_pauli_mask(state: StateVector, x_mask: BitVector, z_mask: BitVector) -> StateVector:
    """Apply X^x Z^z: phases from z first, then bit flips from x."""
    n = state.num_qubits
    if len(x_mask) != n or len(z_mask) != n:
        raise ValueError("mask length must equal qubit count")
    signs = 1.0 - 2.0 * parity(state.support, z_mask.value)
    return _permuted(state, state.support ^ x_mask.value, state.values * signs)


def prepare_subspace_state(s: Subspace, shift: Optional[BitVector] = None) -> StateVector:
    """Uniform superposition over the coset s + shift."""
    n = s.ambient_dim
    _check_size(n, 1 << s.dim)
    index = np.array([0 if shift is None else shift.value], dtype=np.int64)
    for row in s.basis:
        index = np.concatenate([index, index ^ row.value])
    values = np.full(len(index), 1.0 / np.sqrt(2.0**s.dim), dtype=np.complex128)
    return StateVector._of(n, np.sort(index), values)


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
    default) is applied to the two columns, so the mask never touches
    the whole state. Each index of the support expands into the nonzero
    rows of the column its bit at qubit selects."""
    n, p = state.num_qubits, s.ambient_dim
    if not 1 <= qubit <= n:
        raise ValueError(f"qubit {qubit} out of range 1..{n}")
    new_n = n - 1 + p
    _check_size(new_n, len(state.support) << s.dim)
    x = BitVector.zeros(p) if x_mask is None else x_mask
    z = BitVector.zeros(p) if z_mask is None else z_mask
    columns = [apply_pauli_mask(prepare_subspace_state(s, c), x, z) for c in (None, delta)]
    b = n - qubit
    support, values = state.support, state.values
    # The index with the qubit's bit cleared and the bits above it moved
    # up by p - 1, so that a column row ORs in at shift b.
    base = support >> (b + 1) << (b + p) | support & (1 << b) - 1
    bit = support >> b & 1
    index, out = [], []
    for c, column in enumerate(columns):
        rows = bit == c
        index.append((base[rows, None] | column.support << b).reshape(-1))
        out.append((values[rows, None] * column.values).reshape(-1))
    index, out = np.concatenate(index), np.concatenate(out)
    order = np.argsort(index)
    return StateVector._of(new_n, index[order], out[order])


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """a then b: the outer product of the supports, with np.kron's
    amplitudes."""
    n = a.num_qubits + b.num_qubits
    _check_size(n, len(a.support) * len(b.support))
    index = (a.support[:, None] << b.num_qubits | b.support).reshape(-1)
    if n and len(index) == 1:
        # numpy multiplies a lone pair of complex scalars in its scalar
        # loop, which rounds apart from the vector loop of the dense
        # product: take it as the first of two.
        values = (a.values[:, None] * np.append(b.values, 0))[0, :1]
    else:
        values = (a.values[:, None] * b.values).reshape(-1)
    return StateVector._of(n, index, values)


class _Classes(NamedTuple):
    """A measurement's outcome classes over the rotated state (support,
    values): each entry's class (-1 in a row of probability at most
    1e-24), the rows with support in ascending order with their
    probabilities and classes (numbered in first-occurrence order), and
    the classes' codes and probabilities."""

    axes: tuple[int, ...]
    support: np.ndarray
    values: np.ndarray
    entry_class: np.ndarray
    rows: np.ndarray
    row_probs: np.ndarray
    cls: np.ndarray
    codes: np.ndarray
    class_probs: np.ndarray


def _draw(rng: np.random.Generator, weights: np.ndarray) -> int:
    """The index rng.choice(len(weights), p=weights / weights.sum())
    returns, from the same one uniform, without choice's per-call checks:
    the normalised cumulative sum searched at rng.random()."""
    if not len(weights):
        raise ValueError("cannot draw from no weights")
    cdf = (weights / weights.sum()).cumsum()
    if math.isnan(cdf[-1]):
        raise ValueError("weights contain NaN")
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), "right"))


def _measurement_classes(state: StateVector, spec: MeasurementSpec) -> _Classes:
    """Shared core: rotate X qubits, group the entries by the row of the
    measured register they lie in, and the rows by label code. The
    probability of a row of several entries is the pairwise sum of a
    zero-filled scratch row of the dense row's length, 2^(n-k) for k
    measured qubits; a row of one entry sums to that entry's alone."""
    n = state.num_qubits
    if len(spec.basis) != n:
        raise ValueError("spec length must equal qubit count")
    for q in spec.consumed:
        if not 1 <= q <= n or spec.basis[q - 1] is None:
            raise ValueError(f"consumed qubit {q} is not measured")
    axes = tuple(q for q, b in enumerate(spec.basis) if b is not None)
    x_qubits = [q for q in axes if spec.basis[q] == "X"]
    support, values = _rotate(n, state.support, state.values, x_qubits, _GATES_1Q["H"])
    row_of = _bits_at(support, n, axes)
    if axes == tuple(range(len(axes))):  # leading qubits: rows ascend with the support
        starts = np.empty(len(row_of), dtype=bool)
        starts[:1] = True
        starts[1:] = row_of[1:] != row_of[:-1]
        present, entry_row = row_of[starts], starts.cumsum() - 1
    else:
        entry_row, first = _group(row_of)
        present = row_of[first]
    probs = values.real**2 + values.imag**2
    present_probs = np.zeros(len(present))
    present_probs[entry_row] = probs  # exact for a row of one entry
    if len(present) < len(row_of):  # some row holds several entries
        shared_rows = np.bincount(entry_row) > 1
        slot = np.cumsum(shared_rows) - 1  # each shared row's scratch row
        shared = shared_rows[entry_row]
        rest = _bits_at(support[shared], n, [q for q in range(n) if spec.basis[q] is None])
        _check_size(n, int(slot[-1] + 1) << (n - len(axes)))
        scratch = np.zeros((slot[-1] + 1, 1 << (n - len(axes))))
        scratch[slot[entry_row[shared]], rest] = probs[shared]
        present_probs[shared_rows] = scratch.sum(axis=1)
    live = present_probs > 1e-24
    rows = present[live]
    codes = rows if spec.outcome_fn is None else np.asarray(spec.outcome_fn(rows), np.int64)
    group, first = _group(codes)
    is_first = np.zeros(len(codes), dtype=bool)
    is_first[first] = True
    cls = (is_first.cumsum() - 1)[first][group]  # groups ranked by first occurrence
    row_probs = present_probs[live]
    row_class = np.full(len(present), -1)
    row_class[live] = cls
    return _Classes(
        axes, support, values, row_class[entry_row], rows, row_probs, cls,
        codes[is_first], np.bincount(cls, row_probs),
    )


def _collapse(
    spec: MeasurementSpec, c: _Classes, members: Sequence[tuple[int, np.ndarray]]
) -> list[StateVector]:
    """The post state of each class k whose entries, in ascending order,
    members pairs with it as (k, entries): those entries renormalised by
    the class's probability, with the consumed qubits, whose bits the
    class shares, sliced out. Then the X qubits that are left rotate
    back out of the Hadamard basis."""
    n = len(spec.basis)
    consumed = [q - 1 for q in sorted(spec.consumed)]
    mask = sum(1 << n - 1 - q for q in consumed)
    left = [q for q in range(n) if q not in consumed]
    x_left = [k for k, q in enumerate(left) if spec.basis[q] == "X"]
    scale = np.sqrt(c.class_probs)
    posts = []
    for k, entries in members:
        index = c.support[entries]
        if mask and (index & mask != index[0] & mask).any():
            raise ValueError("the outcome does not fix every consumed qubit")
        index = _drop_bits(index, n, consumed)
        post = _rotate(len(left), index, c.values[entries] / scale[k], x_left, _GATES_1Q["H"])
        posts.append(StateVector._of(len(left), *post))
    return posts


def measure(
    state: StateVector, spec: MeasurementSpec, rng: np.random.Generator
) -> MeasurementResult:
    """Sample one outcome label, collapse onto its class, and draw a
    concrete substring from within the class. The substring draw does not
    collapse the state further."""
    c = _measurement_classes(state, spec)
    pick = _draw(rng, c.class_probs)
    in_class = c.cls == pick
    raw = c.rows[in_class][_draw(rng, c.row_probs[in_class])]
    (post,) = _collapse(spec, c, [(pick, (c.entry_class == pick).nonzero()[0])])
    return MeasurementResult(int(c.codes[pick]), BitVector.from_int(int(raw), len(c.axes)), post)


def measure_branches(
    state: StateVector, spec: MeasurementSpec
) -> list[tuple[int, float, StateVector]]:
    """All outcome label codes with their exact probabilities and post
    states, in first-occurrence order of the labels."""
    c = _measurement_classes(state, spec)
    by_class = np.argsort(c.entry_class, kind="stable")  # ascending support within a class
    ends = np.cumsum(np.bincount(c.entry_class + 1, minlength=len(c.codes) + 1)).tolist()
    members = [(k, by_class[a:b]) for k, (a, b) in enumerate(zip(ends[:-1], ends[1:]))]
    posts = _collapse(spec, c, members)
    return list(zip(c.codes.tolist(), c.class_probs.tolist(), posts))


def outcome_probabilities(state: StateVector, spec: MeasurementSpec) -> tuple[list, list]:
    """The outcome label codes, in first-occurrence order, and their
    exact probabilities, as lists: measure_branches without building the
    post states."""
    c = _measurement_classes(state, spec)
    return c.codes.tolist(), c.class_probs.tolist()


def state_distance(a: StateVector, b: StateVector) -> float:
    """1 - |<a|b>|, invariant under global phase, over the dense views
    (at most QUBIT_CAP qubits)."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("qubit counts differ")
    return float(1.0 - abs(np.vdot(a.amplitudes, b.amplitudes)))


def dump(state: StateVector) -> str:
    """One line per nonzero amplitude: 'bitstring re im'."""
    lines = []
    for idx, amp in zip(state.support.tolist(), state.values):
        if abs(amp) > 1e-12:
            bits = BitVector.from_int(idx, state.num_qubits)
            lines.append(f"{bits} {amp.real:.12g} {amp.imag:.12g}")
    return "\n".join(lines)
