"""Shared test utilities."""

from __future__ import annotations

from itertools import product

import numpy as np

from lmobf.auth import blownup_spec, pauli_update
from lmobf.gf2 import BitVector, concat, coset_decode, split
from lmobf.sim import (
    StateVector,
    apply_encoding_isometry,
    apply_gate,
    apply_pauli_mask,
    measure,
    measure_branches,
    prepare_subspace_state,
)
from lmobf.lm import (
    Circuit,
    ClassicalFn,
    Gate,
    bind,
    circuit_output_distribution,
    compile_circuit,
    lmeval_distribution,
    total_variation,
)


def random_circuit(
    rng: np.random.Generator,
    max_qubits: int = 3,
    max_gates: int = 6,
    max_t: int = 2,
) -> Circuit:
    nq = int(rng.integers(1, max_qubits + 1))
    m = int(rng.integers(1, nq + 1))
    num_gates = int(rng.integers(0, max_gates + 1))
    gates = []
    t_left = max_t
    for _ in range(num_gates):
        kinds = ["H"] + (["CNOT"] if nq >= 2 else []) + (["T"] if t_left else [])
        kind = kinds[rng.integers(len(kinds))]
        if kind == "CNOT":
            c, t = rng.choice(nq, size=2, replace=False) + 1
            gates.append(Gate("CNOT", (int(c), int(t))))
        else:
            gates.append(Gate(kind, (int(rng.integers(1, nq + 1)),)))
            if kind == "T":
                t_left -= 1
    num_out = int(rng.integers(1, nq + 1))
    outs = tuple(sorted(int(w) + 1 for w in rng.choice(nq, size=num_out, replace=False)))
    return Circuit(m, nq, tuple(gates), outs)


def tchain_circuit(rng: np.random.Generator, h_slot: int) -> Circuit:
    """Two qubits, two inputs, with 7 T, 1 H and 8 CNOT in random order,
    the H being the h_slot-th (0-based) of the eight one-qubit gates."""
    singles = ["T"] * 7
    singles.insert(h_slot, "H")
    gates = []
    for single in rng.permutation(16) < 8:
        kind = singles.pop(0) if single else "CNOT"
        a = int(rng.integers(1, 3))
        gates.append(Gate(kind, (a, 3 - a) if kind == "CNOT" else (a,)))
    return Circuit(2, 2, tuple(gates), (1, 2))


def all_inputs(m: int):
    for v in range(2**m):
        yield BitVector.from_int(v, m)


def max_equivalence_gap(circuit: Circuit) -> float:
    """Worst-case total variation between the compiled program and the
    plain statevector run, over every classical input."""
    program = compile_circuit(circuit)
    worst = 0.0
    for x in all_inputs(circuit.num_input_bits):
        direct = circuit_output_distribution(circuit, x)
        compiled = lmeval_distribution(x, program)
        worst = max(worst, total_variation(direct, compiled))
    return worst


def reference_rref(rows):
    """Reduced row-echelon form of a list of equal-length bit tuples, by
    column sweeps over lists of lists; zero rows dropped. The reference
    for gf2.rref, which works on packed ints."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivot_row = 0
    for col in range(ncols):
        hit = next((r for r in range(pivot_row, len(rows)) if rows[r][col]), None)
        if hit is None:
            continue
        rows[pivot_row], rows[hit] = rows[hit], rows[pivot_row]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col]:
                rows[r] = [a ^ b for a, b in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
        if pivot_row == len(rows):
            break
    return [tuple(r) for r in rows if any(r)]


def reference_dual(rows, n):
    """RREF basis, by reference_rref, of every length-n bit tuple
    orthogonal to each of the rows (brute force over all 2**n)."""
    members = [
        bits
        for bits in product((0, 1), repeat=n)
        if all(sum(a & b for a, b in zip(bits, r)) % 2 == 0 for r in rows)
    ]
    return reference_rref(members)


def reference_cnots(state: StateVector, cnots, block: int = 1) -> np.ndarray:
    """Amplitudes after the CNOTs (i, j) in order, each XOR-ing block i of
    block qubits into block j, by dense 2**n x 2**n permutation matrices
    built from bit tuples. The reference for sim.apply_cnots."""
    n = state.num_qubits
    amps = state.amplitudes
    for i, j in cnots:
        mat = np.zeros((2**n, 2**n))
        for col, bits in enumerate(product((0, 1), repeat=n)):
            out = list(bits)
            for q in range(block):
                out[(j - 1) * block + q] ^= bits[(i - 1) * block + q]
            mat[int("".join(map(str, out)), 2), col] = 1.0
        amps = mat @ amps
    return amps


def reference_gather(state: StateVector, cnots, block: int = 1) -> np.ndarray:
    """Amplitudes after the CNOTs (i, j) in order, each XOR-ing block i of
    block qubits into block j, as one gather with a 2**n entry index over
    the whole state. The wide-state reference for sim.apply_cnots."""
    n = state.num_qubits
    wires = n // block
    # Each CNOT is its own inverse, so output index k reads the input at k
    # with the CNOTs applied last to first.
    idx = np.arange(2**n, dtype=np.int64)
    ones = (1 << block) - 1
    for i, j in reversed(cnots):
        idx ^= ((idx >> (wires - i) * block) & ones) << (wires - j) * block
    return state.amplitudes[idx]


def reference_gate(state: StateVector, matrix: np.ndarray, q: int) -> np.ndarray:
    """Amplitudes after the 2x2 matrix on qubit q: move that axis first,
    multiply the (2, rest) block, move the axis back. The reference for
    sim.apply_gate on one qubit."""
    n = state.num_qubits
    psi = state.amplitudes.reshape((2,) * n)
    block = matrix @ np.moveaxis(psi, q - 1, 0).reshape(2, -1)
    return np.moveaxis(block.reshape((2,) * n), 0, q - 1).reshape(-1)


def reference_isometry(state: StateVector, qubit, s, delta, x_mask, z_mask) -> np.ndarray:
    """Amplitudes after |0> -> P|s>, |1> -> P|s+delta> on one qubit, with
    P the Pauli mask X^x_mask Z^z_mask on both columns: move the qubit's
    axis first, multiply, split the 2^p rows into p axes and move those
    into the qubit's place. The reference for sim.apply_encoding_isometry."""
    n, p = state.num_qubits, s.ambient_dim
    columns = [prepare_subspace_state(s, c) for c in (None, delta)]
    iso = np.stack([apply_pauli_mask(c, x_mask, z_mask).amplitudes for c in columns], axis=1)
    psi = state.amplitudes.reshape((2,) * n)
    block = np.moveaxis(psi, qubit - 1, 0).reshape(2, -1)
    out = (iso @ block).reshape((2,) * p + (2,) * (n - 1))
    out = np.moveaxis(out, tuple(range(p)), tuple(range(qubit - 1, qubit - 1 + p)))
    return out.reshape(-1)


def reference_consume(state: StateVector, basis, consumed, bits) -> StateVector:
    """A post-measurement state that still holds the consumed qubits (1-based,
    read as the given bits) with them sliced out: X-read qubits rotate back
    onto a basis axis, then each qubit, highest first, is projected onto its
    bit and the rest renormalised. The reference for measurements with
    MeasurementSpec.consumed."""
    for q in consumed:
        if basis[q - 1] == "X":
            state = apply_gate(state, "H", (q,))
    for q, bit in sorted(zip(consumed, bits), reverse=True):
        psi = np.take(state.amplitudes.reshape((2,) * state.num_qubits), bit, axis=q - 1)
        psi = psi.reshape(-1)
        state = StateVector(state.num_qubits - 1, psi / np.linalg.norm(psi))
    return state


def reference_enc(key, logical: StateVector) -> StateVector:
    """Unmasked encoding isometries wire by wire, then one Pauli mask over
    the whole encoded state. The reference for auth.enc, which masks each
    wire's isometry columns instead."""
    state = logical
    for wire in range(key.num_wires, 0, -1):
        state = apply_encoding_isometry(state, wire, key.space, key.delta)
    return apply_pauli_mask(state, concat(key.x_masks), concat(key.z_masks))


def reference_dec(key, cnots, theta, words):
    """Decode the blocks of the wires theta measures, packed in words (an
    int or an int64 array), as dec_words did before the per-round reads:
    the masks pushed through the CNOTs on every call, then each block
    decoded against its basis's code. The reference for auth.dec_words
    on auth.wire_reads."""
    p = key.code_length
    phi = [w for w, b in enumerate(theta, start=1) if b is not None]
    xs, zs = pauli_update(cnots, key.x_masks, key.z_masks)
    code = rejected = words & 0
    for k, wire in enumerate(phi):
        if theta[wire - 1] == 0:
            space, delta, shift = key.space, key.delta, xs[wire - 1]
        else:
            space, delta, shift = key.hat_space, key.hat_delta, zs[wire - 1]
        bit = coset_decode(space, delta, shift, words >> (len(phi) - 1 - k) * p & (1 << p) - 1)
        code = code << 1 | bit & 1
        rejected = rejected | bit >> 1
    return code | rejected


def _blownup_spec(key, reads, fn):
    """blownup_spec over a register of every wire, consuming none; with
    fn None the labels are the decoded bits, m{w} for each read wire."""
    phi = [r.wire for r in reads]
    if fn is None:
        nodes = tuple(("in", f"m{w}") for w in phi)
        fn = ClassicalFn(nodes, tuple((f"m{w}", k) for k, w in enumerate(phi)))
    live = range(1, key.num_wires + 1)
    return blownup_spec(key.code_length, reads, fn, live, (), lambda m: bind(fn, m))


def logical_measure(key, reads, fn, state, rng):
    """One sampled authenticated measurement over the blocks of the read
    wires. Returns (label code or BOT, the raw per-wire vectors drawn
    within the outcome class, post state)."""
    result = measure(state, _blownup_spec(key, reads, fn), rng)
    raw = split(result.raw_bits, len(reads), key.code_length)
    return result.outcome, raw, result.post_state


def logical_measure_branches(key, reads, fn, state):
    """Exact branch enumeration of the same measurement."""
    return measure_branches(state, _blownup_spec(key, reads, fn))


def _reference_classes(state: StateVector, spec):
    """The measured register of a spec grouped by a dict of lists: one
    Python label per row, classes in first-occurrence order, each class's
    probability summed row by row in ascending row order (the order
    np.bincount adds in, so that post states compare bit for bit).
    Returns the measured axes, the rotated state as (rows, rest), the row
    probabilities and the classes as (label, probability, rows)."""
    n = state.num_qubits
    axes = tuple(q for q, b in enumerate(spec.basis) if b is not None)
    k = len(axes)
    for q, b in enumerate(spec.basis):
        if b == "X":
            state = apply_gate(state, "H", (q + 1,))
    psi = np.moveaxis(state.amplitudes.reshape((2,) * n), axes, range(k))
    psi = np.ascontiguousarray(psi).reshape(2**k, -1)
    row_probs = (psi.real**2 + psi.imag**2).sum(axis=1)
    rows = [int(r) for r in np.flatnonzero(row_probs > 1e-24)]
    labels = rows if spec.outcome_fn is None else spec.outcome_fn(np.array(rows)).tolist()
    members: dict[int, list[int]] = {}
    for row, label in zip(rows, labels):
        members.setdefault(label, []).append(row)
    classes = []
    for label, keep in members.items():
        prob = 0.0
        for row in keep:
            prob += row_probs[row]
        classes.append((label, float(prob), keep))
    return axes, psi, row_probs, classes


def _reference_collapse(spec, axes, psi, keep, prob) -> StateVector:
    """The class's rows of the full register, renormalised, then the
    consumed qubits sliced out at the bits of the class's first row."""
    n = len(spec.basis)
    k = len(axes)
    cut = {axes.index(q - 1) for q in spec.consumed}
    post = np.zeros_like(psi)
    post[keep] = psi[keep] / np.sqrt(prob)
    at = tuple(keep[0] >> (k - 1 - c) & 1 if c in cut else slice(None) for c in range(k))
    post = post.reshape((2,) * n)[at]
    left = [q for q in range(n) if q + 1 not in spec.consumed]
    moved = [left.index(q) for c, q in enumerate(axes) if c not in cut]
    result = StateVector(len(left), np.moveaxis(post, range(len(moved)), moved).reshape(-1))
    for new, q in enumerate(left):
        if spec.basis[q] == "X":
            result = apply_gate(result, "H", (new + 1,))
    return result


def reference_measure_branches(state: StateVector, spec):
    """(label, probability, post state) per class, in first-occurrence
    order. The reference for sim.measure_branches, which groups packed
    label codes with np.unique and np.bincount."""
    axes, psi, _, classes = _reference_classes(state, spec)
    return [
        (label, prob, _reference_collapse(spec, axes, psi, keep, prob))
        for label, prob, keep in classes
    ]


def reference_measure(state: StateVector, spec, rng: np.random.Generator):
    """(label, raw bits, post state) drawn as sim.measure draws them: the
    class over the classes in first-occurrence order, then a row of the
    class in ascending order. The reference for sim.measure."""
    axes, psi, row_probs, classes = _reference_classes(state, spec)
    probs = np.array([prob for _, prob, _ in classes])
    label, prob, keep = classes[int(rng.choice(len(classes), p=probs / probs.sum()))]
    within = row_probs[keep]
    raw = keep[int(rng.choice(len(keep), p=within / within.sum()))]
    post = _reference_collapse(spec, axes, psi, keep, prob)
    return label, BitVector.from_int(raw, len(axes)), post
