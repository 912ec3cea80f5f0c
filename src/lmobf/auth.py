"""Linearly homomorphic quantum authentication over coset states.

A key fixes a random low-dimensional subspace of F2^p (p = 2*security+1)
plus a coset shift encoding logical one, and per-wire Pauli masks. Logical
zero/one become superpositions over the subspace and its shifted coset;
transversal CNOTs act homomorphically, and standard- or Hadamard-basis
reads of a block land in cosets that decode classically. Anything outside
the accepted cosets is tampering and decodes to a reject. A key works out
its Hadamard-side code and accepted spaces from its code.

wire_reads works out, once per CNOT list and theta, how each measured
wire's block is read: its basis, its code and the wire's mask pushed
through the CNOTs. dec_words, dec, ver and honest_codewords all take
those reads. The scheme knows nothing of the programs it protects: a
round's measurement over the encoded register is lm.read_spec with
dec_words as its decoder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

import numpy as np

from .gf2 import (
    BitVector,
    Subspace,
    canonical_delta_hat,
    concat,
    coset_decode,
    dual,
    parity,
    sample_coset_vectors,
    sample_subspace,
)
from .sim import BOT, StateVector, apply_cnots, apply_encoding_isometry
from .text import LineReader, parse


@dataclass(frozen=True)
class AuthKey:
    security: int
    num_wires: int
    space: Subspace
    delta: BitVector
    x_masks: tuple[BitVector, ...]
    z_masks: tuple[BitVector, ...]
    # Worked out from (space, delta) in __post_init__, so decode/verify are
    # pure membership tests and no key's dual code disagrees with its space.
    hat_space: Subspace = field(init=False, repr=False, compare=False)
    hat_delta: BitVector = field(init=False, repr=False, compare=False)
    accept_space_z: Subspace = field(init=False, repr=False, compare=False)
    accept_space_x: Subspace = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        p = self.code_length
        if self.security < 1 or self.num_wires < 1:
            raise ValueError("need security >= 1 and at least one wire")
        if self.space.ambient_dim != p or self.space.dim != self.security:
            raise ValueError("space must have dimension security in F2^p")
        if self.space.contains(self.delta):
            raise ValueError("delta must lie outside the space")
        if len(self.x_masks) != self.num_wires or len(self.z_masks) != self.num_wires:
            raise ValueError("need one x and one z mask per wire")
        if any(len(v) != p for v in self.x_masks + self.z_masks + (self.delta,)):
            raise ValueError("masks and delta must have length p")
        accept_z = Subspace.span(p, self.space.basis + (self.delta,))
        object.__setattr__(self, "accept_space_z", accept_z)
        object.__setattr__(self, "accept_space_x", dual(self.space))
        object.__setattr__(self, "hat_space", dual(accept_z))
        object.__setattr__(self, "hat_delta", canonical_delta_hat(self.space, self.delta))

    @property
    def code_length(self) -> int:
        return 2 * self.security + 1


def gen(security: int, num_wires: int, rng: np.random.Generator) -> AuthKey:
    if security < 1 or num_wires < 1:
        raise ValueError("need security >= 1 and at least one wire")
    p = 2 * security + 1
    space = sample_subspace(p, security, rng)
    while True:
        delta = BitVector.from_ints(rng.integers(0, 2, size=p))
        if not space.contains(delta):
            break
    # One call for every mask: a bounded draw of range 2 takes one 32-bit
    # word per bit, so the stream is that of one call per mask. Each row
    # packs into whole bytes and is read as a Python int, for any p.
    packed = np.packbits(rng.integers(0, 2, size=(2 * num_wires, p)), axis=1).tobytes()
    size, pad = len(packed) // (2 * num_wires), -p % 8
    masks = tuple(
        BitVector.from_int(int.from_bytes(packed[i : i + size], "big") >> pad, p)
        for i in range(0, len(packed), size)
    )
    return AuthKey(security, num_wires, space, delta, masks[:num_wires], masks[num_wires:])


def enc(key: AuthKey, logical: StateVector, wires: Optional[Sequence[int]] = None) -> StateVector:
    """Expand each qubit into a masked coset-state block of p qubits.
    Qubit k holds wires[k-1] (every wire of the key, in order, by
    default) and takes that wire's mask X^x Z^z, applied inside its own
    two isometry columns, so no pass runs over the whole encoded state."""
    wires = range(1, key.num_wires + 1) if wires is None else wires
    if logical.num_qubits != len(wires):
        raise ValueError("state width must match the key")
    state = logical
    for qubit in range(len(wires), 0, -1):
        wire = wires[qubit - 1]
        x, z = key.x_masks[wire - 1], key.z_masks[wire - 1]
        state = apply_encoding_isometry(state, qubit, key.space, key.delta, x, z)
    return state


def lin_eval(
    cnots: Sequence[tuple[int, int]], state: StateVector, code_length: int
) -> StateVector:
    """Transversal CNOT blocks: wire-level CNOT(i -> j) applied qubitwise."""
    return apply_cnots(state, cnots, code_length)


def pauli_update(
    cnots: Sequence[tuple[int, int]],
    x_masks: Sequence[BitVector],
    z_masks: Sequence[BitVector],
) -> tuple[tuple[BitVector, ...], tuple[BitVector, ...]]:
    """Track Pauli masks through CNOTs: X copies control -> target,
    Z copies target -> control. Self-inverse per gate; a reversed list
    undoes the whole update."""
    xs, zs = list(x_masks), list(z_masks)
    for i, j in cnots:
        zs[i - 1] = zs[i - 1] ^ zs[j - 1]
        xs[j - 1] = xs[i - 1] ^ xs[j - 1]
    return tuple(xs), tuple(zs)


@dataclass(frozen=True)
class WireRead:
    """How one wire's block is read at a round: in basis 0 (standard) a
    block decodes against the code (space, delta), in basis 1
    (Hadamard) against (hat_space, hat_delta), either shifted by shift,
    the wire's X mask (basis 0) or Z mask (basis 1) after the CNOTs."""

    wire: int
    basis: int
    space: Subspace
    delta: BitVector
    shift: BitVector

    @classmethod
    def of(cls, key: AuthKey, wire: int, basis: Optional[int], xs, zs) -> WireRead:
        """The read of wire in basis; xs and zs are the masks after the CNOTs."""
        if basis == 0:
            return cls(wire, 0, key.space, key.delta, xs[wire - 1])
        if basis == 1:
            return cls(wire, 1, key.hat_space, key.hat_delta, zs[wire - 1])
        raise ValueError("theta entries must be 0, 1 or None")


Reads = tuple[WireRead, ...]
CodewordTuple = tuple[BitVector, ...]


def wire_reads(
    key: AuthKey, cnots: Sequence[tuple[int, int]], theta: Sequence[Optional[int]]
) -> Reads:
    """The read of every wire theta measures (0 or 1; None skips it), in
    ascending wire order, after the CNOTs."""
    xs, zs = pauli_update(cnots, key.x_masks, key.z_masks)
    return tuple(WireRead.of(key, w, b, xs, zs) for w, b in enumerate(theta, 1) if b is not None)


def dec_words(reads: Reads, words: Any) -> Any:
    """Decode the blocks of the reads packed in words (an int or an int64
    array, the first block the most significant): the decoded bits packed
    the same way, one per block, or BOT where any block is rejected."""
    code = rejected = words & 0
    at = sum(len(r.shift) for r in reads)
    for r in reads:
        at -= len(r.shift)
        bit = coset_decode(r.space, r.delta, r.shift, words >> at & (1 << len(r.shift)) - 1)
        code = code << 1 | bit & 1
        rejected = rejected | bit >> 1  # -1 once a block decodes to -1, else 0
    return code | rejected


# Kept for the benchmark tracer, which looks this name up; a benchmark
# change removes it.
dec_batch = dec_words


def dec(reads: Reads, codewords: CodewordTuple) -> Optional[BitVector]:
    """Decode one measured vector per read; None on any reject."""
    if [len(c) for c in codewords] != [len(r.shift) for r in reads]:
        raise ValueError("need one codeword of the code length per measured wire")
    code = dec_words(reads, concat(codewords).value)
    return None if code == BOT else BitVector.from_int(code, len(codewords))


def ver(key: AuthKey, reads: Reads, codewords: CodewordTuple) -> bool:
    """Accept iff every vector sits in its wire's accepted coset union."""
    if len(codewords) != len(reads):
        raise ValueError("need one codeword per measured wire")
    for r, c in zip(reads, codewords):
        accept = key.accept_space_z if r.basis == 0 else key.accept_space_x
        if not accept.contains(c ^ r.shift):
            return False
    return True


# --- numeric twirl check ----------------------------------------------------


def pauli_matrix(x: BitVector, z: BitVector, z_first: bool = False) -> np.ndarray:
    """Matrix of X^x Z^z (or Z^z X^x) on len(x) qubits."""
    n = len(x)
    cols = np.arange(2**n, dtype=np.int64)
    mat = np.zeros((2**n, 2**n))
    mat[cols ^ x.value, cols] = 1.0 - 2.0 * parity((cols ^ x.value) if z_first else cols, z.value)
    return mat


def verify_pauli_twirl(
    space_r: Subspace,
    space_r_hat: Subspace,
    delta: BitVector,
    delta_hat: BitVector,
    x0: BitVector,
    z0: BitVector,
    x1: BitVector,
    z1: BitVector,
    rho: np.ndarray,
) -> float:
    """Max absolute entry of the coset-averaged conjugation sum.

    The sum vanishes whenever x0^x1 is non-orthogonal to R-hat or z0^z1
    is non-orthogonal to R. The structural shift conditions are enforced
    here; that mask condition deliberately is not, so the generally
    nonzero complementary case stays observable to callers.
    """
    n = space_r.ambient_dim
    if n > 4:
        raise ValueError("ambient dimension capped at 4 for direct matrices")
    if space_r.contains(delta):
        raise ValueError("delta must lie outside R")
    if space_r_hat.contains(delta_hat):
        raise ValueError("delta_hat must lie outside R-hat")
    if rho.shape != (2**n, 2**n):
        raise ValueError("rho must act on the same ambient qubits")
    total = np.zeros_like(rho, dtype=np.complex128)
    left_inner = pauli_matrix(x0, z0)
    right_inner = pauli_matrix(x1, z1, z_first=True)
    for rv in space_r.elements():
        x = rv ^ delta
        for rhv in space_r_hat.elements():
            z = rhv ^ delta_hat
            xz = pauli_matrix(x, z)
            zx = pauli_matrix(x, z, z_first=True)
            total += zx @ left_inner @ xz @ rho @ zx @ right_inner @ xz
    return float(np.max(np.abs(total)))


# --- serialization ----------------------------------------------------------


def key_to_text(key: AuthKey) -> str:
    lines = [f"security {key.security}", f"wires {key.num_wires}", "space:"]
    lines += [str(row) for row in key.space.basis]
    lines.append(f"delta {key.delta}")
    lines.append(f"delta-hat {key.hat_delta}")
    for i in range(key.num_wires):
        lines.append(f"x{i + 1} {key.x_masks[i]}")
        lines.append(f"z{i + 1} {key.z_masks[i]}")
    return "\n".join(lines)


def read_key(r: LineReader) -> AuthKey:
    """The key whose key_to_text lines r reads next."""
    security = r.integer("security", 1)
    wires = r.integer("wires", 1)
    p = 2 * security + 1
    r.fields("space:", 0)
    space = Subspace.span_strings(p, r.rows(p))
    delta, hat_delta = (BitVector.from_string(r.bits(tag, p)) for tag in ("delta", "delta-hat"))
    tags = (f"{c}{i}" for i in range(1, wires + 1) for c in "xz")
    masks = tuple(BitVector.from_string(r.bits(tag, p)) for tag in tags)
    key = AuthKey(security, wires, space, delta, masks[::2], masks[1::2])
    if key.hat_delta != hat_delta:
        raise ValueError("serialized dual shift is inconsistent with the key")
    return key


def key_from_text(text: str) -> AuthKey:
    return parse(text, read_key)


def honest_codewords(
    reads: Reads, logical_bits: Sequence[int], rng: np.random.Generator
) -> CodewordTuple:
    """Per read and logical bit, a vector an untampered read of the wire
    could yield, all from one sample_coset_vectors draw."""
    cosets = [(r.space, r.shift ^ r.delta if b else r.shift) for r, b in zip(reads, logical_bits)]
    return sample_coset_vectors(cosets, rng)


def honest_codeword(read: WireRead, logical_bit: int, rng: np.random.Generator) -> BitVector:
    """One read's vector, as honest_codewords draws it."""
    (v,) = honest_codewords((read,), (logical_bit,), rng)
    return v
