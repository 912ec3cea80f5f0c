"""Shared test utilities."""

from __future__ import annotations

from itertools import product

import numpy as np

from lmobf.gf2 import BitVector, concat
from lmobf.sim import StateVector, apply_encoding_isometry, apply_gate, apply_pauli_mask
from lmobf.lm import (
    Circuit,
    Gate,
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
