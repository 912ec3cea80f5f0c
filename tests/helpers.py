"""Shared test utilities."""

from __future__ import annotations

from dataclasses import replace
from itertools import product

import numpy as np

import lmobf.obf as obf_mod
from lmobf.auth import AuthKey, dec_words, enc, pauli_update, read_key
from lmobf.gf2 import BitVector, Subspace, concat, coset_decode, rref, sample_subspace, split
from lmobf.sim import (
    BOT,
    MeasurementSpec,
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
    fn_code,
    lmeval_distribution,
    prepare_program_state,
    read_spec,
    total_variation,
)
from lmobf.text import parse
from lmobf.tokens import read_vk


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


def reference_gen(security: int, num_wires: int, rng: np.random.Generator) -> AuthKey:
    """auth.gen with one rng.integers call per mask: the per-call stream
    that gen's one call for every mask must reproduce."""
    p = 2 * security + 1
    space = sample_subspace(p, security, rng)
    while True:
        delta = BitVector.from_ints(rng.integers(0, 2, size=p))
        if not space.contains(delta):
            break
    masks = tuple(BitVector.from_ints(rng.integers(0, 2, size=p)) for _ in range(2 * num_wires))
    return AuthKey(security, num_wires, space, delta, masks[:num_wires], masks[num_wires:])


def reference_sample_subspace(ambient: int, dim: int, rng: np.random.Generator) -> Subspace:
    """gf2.sample_subspace with each row of the uint8 draw read by
    BitVector.from_ints and the rows reduced by rref: the reference for
    the RNG stream that sample_subspace must keep."""
    if dim == 0:
        return Subspace.zero(ambient)
    while True:
        rows = rng.integers(0, 2, size=(dim, ambient), dtype=np.uint8)
        reduced = rref(tuple(BitVector.from_ints(r) for r in rows))
        if len(reduced) == dim:
            return Subspace(ambient, reduced)


def key_from_text(text: str) -> AuthKey:
    """The authentication key key_to_text wrote."""
    return parse(text, read_key)


def vk_from_text(text: str) -> tuple[int, tuple[Subspace, ...]]:
    """kappa' and the subspaces vk_to_text wrote."""
    return parse(text, read_vk)


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


def reference_blownup_spec(p, reads, fn, live, raw, binds) -> MeasurementSpec:
    """Physical measurement over the blocks of the reads' wires, in a
    register that holds the blocks (p qubits each) of the live wires in
    order, as auth built it before lm.read_spec: a label code holds the
    raw bits of the blocks of the raw wires above fn's outputs on the
    bits dec_words decodes, BOT where a block does not decode. The
    reference for read_spec on an encoded register."""
    top = len(reads) - 1
    raw_mask = sum((1 << p) - 1 << (top - k) * p for k, r in enumerate(reads) if r.wire in raw)
    consumed = tuple(k * p + q for k, w in enumerate(live) if w in raw for q in range(1, p + 1))
    width = len(fn.outputs)

    def outcome_fn(rows: np.ndarray) -> np.ndarray:
        decoded = dec_words(reads, rows)
        m = {r.wire: decoded >> top - k & 1 for k, r in enumerate(reads)}
        vals = fn_code(fn, binds(m), rows)
        return np.where(decoded == BOT, BOT, (rows & raw_mask) << width | vals)

    tags = {r.wire: "X" if r.basis == 1 else "Z" for r in reads}
    return MeasurementSpec(tuple(tags.get(w) for w in live for _ in range(p)), outcome_fn, consumed)


def reference_logical_spec(layer, live, binds) -> MeasurementSpec:
    """The logical register's measurement as lm built it before
    read_spec: label codes are the round function's outputs alone on
    each observed substring, and a round other than the final one
    consumes its V wires. The reference for LogicalRegister.spec."""
    measured = layer.read

    def outcome_fn(rows: np.ndarray) -> np.ndarray:
        top = len(measured) - 1
        m = {w: rows >> top - k & 1 for k, w in enumerate(measured)}
        return fn_code(layer.fn, binds(m), rows)

    v_wires = () if layer.final else layer.v
    consumed = tuple(k for k, w in enumerate(live, start=1) if w in v_wires)
    tags = {w: "X" if layer.theta[w - 1] == 1 else "Z" for w in measured}
    return MeasurementSpec(tuple(tags.get(w) for w in live), outcome_fn, consumed)


def _blownup_spec(key, reads, fn):
    """read_spec over the encoded blocks of every wire, consuming none;
    with fn None the labels are the decoded bits, m{w} for each read wire."""
    phi = [r.wire for r in reads]
    if fn is None:
        nodes = tuple(("in", f"m{w}") for w in phi)
        fn = ClassicalFn(nodes, tuple((f"m{w}", k) for k, w in enumerate(phi)))
    live = range(1, key.num_wires + 1)
    bases = {r.wire: r.basis for r in reads}
    return read_spec(
        key.code_length, bases, lambda rows: dec_words(reads, rows), fn, live, (),
        lambda m: bind(fn, m),
    )


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
    label codes with one stable argsort and np.bincount."""
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


class ReferenceRegisters:
    """The token registers as simulated states: one subspace state per
    message bit, each read in full with sim.measure and left collapsed.
    The reference for tokens.tok_sign and tokens.measure_register."""

    def __init__(self, keypair) -> None:
        self.states = [prepare_subspace_state(a) for a in keypair.subspaces]

    def read(self, bit_index: int, basis: str, rng: np.random.Generator) -> BitVector:
        state = self.states[bit_index - 1]
        result = measure(state, MeasurementSpec((basis,) * state.num_qubits), rng)
        self.states[bit_index - 1] = result.post_state
        return result.raw_bits

    def sign(self, x: BitVector, rng: np.random.Generator) -> tuple[BitVector, ...]:
        return tuple(self.read(j, "X" if x[j] else "Z", rng) for j in range(1, len(x) + 1))


def frame_bits(bits) -> bytes:
    """The frame of a tuple of bits."""
    return obf_mod.frame(BitVector(tuple(bits)))


def label_message(transcript, upto: int, trailing_bit: int) -> bytes:
    """Canonical bytes hashed for the layer-upto label: the request
    payload of the first upto layers, and the chain bit last."""
    head = replace(
        transcript, v_layers=transcript.v_layers[:upto], labels=transcript.labels[: upto - 1]
    )
    return obf_mod.request_payload(head) + frame_bits((trailing_bit & 1,))


def chain_label(key, transcript, upto: int, bit: int) -> BitVector:
    """The layer-upto label of chain bit `bit`, hashed through obf.prf."""
    return obf_mod.prf(key.prf_key, label_message(transcript, upto, bit), key.label_bits)


def _parse_request_fields(chain, fields: list[BitVector], layer):
    """The reference parse of a request line: the Transcript and pair
    whose request payload, plus the pair frame unless layer is the final
    one, the frames (obf.read_frames of the line's bytes) hold; raises
    ValueError on any misfit."""
    p, upto, with_w = chain.code_length, layer.index, not layer.final
    if len(fields) != 2 * upto + 1 + with_w:
        raise ValueError("wrong number of frames")
    sigma = split(fields[1], chain.program.num_input_bits, 2 * chain.token_dim)
    layers = chain.program.layers
    v_layers = tuple(split(fields[2 * k + 2], len(layers[k].v), p) for k in range(upto))
    labels = tuple(fields[2 * k + 3] for k in range(upto - 1))
    w_pair = split(fields[-1], len(layer.w), p) if with_w else ()
    return obf_mod.Transcript(fields[0], sigma, v_layers, labels), w_pair


def reference_counts(program, layer) -> list[int]:
    """How many codewords each round of a query at layer holds, the pair
    last: the per-query count that Layer.counts replaces."""
    return [len(earlier.v) for earlier in program.layers[: layer.index]] + [len(layer.w)]


def reference_phi_at(program) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per round i, where a query at i carries each wire of phi_i: the
    index of its round, the pair counting as round i+1, and its place in
    the round. The per-key table that Layer.at replaces."""
    at, phi_at = {}, []
    for k, ly in enumerate(program.layers):
        at.update((w, (k, j)) for j, w in enumerate(ly.v))
        pair = {w: (k + 1, j) for j, w in enumerate(ly.w)}
        phi_at.append(tuple(pair[w] if w in pair else at[w] for w in ly.phi))
    return tuple(phi_at)


def encoded_state(program) -> StateVector:
    """The authenticated register of an ObfuscatedProgram: the encoding
    isometry applied to the whole program state. Past the simulator's
    qubit cap only its dense amplitudes view raises."""
    return enc(program.key.auth_key, prepare_program_state(program.key.program))
