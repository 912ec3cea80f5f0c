"""Linearly homomorphic quantum authentication over coset states.

A key fixes a random low-dimensional subspace of F2^p (p = 2*security+1)
plus a coset shift encoding logical one, and per-wire Pauli masks. Logical
zero/one become superpositions over the subspace and its shifted coset;
transversal CNOTs act homomorphically, and standard- or Hadamard-basis
reads of a block land in cosets that decode classically. Anything outside
the accepted cosets is tampering and decodes to a reject.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

import numpy as np

from .gf2 import (
    AffineCoset,
    BitVector,
    Subspace,
    canonical_delta_hat,
    concat,
    coset_decode,
    dual,
    parity,
    sample_coset_vector,
    sample_subspace,
)
from .lm import ClassicalFn, bind, block_tags, fn_code
from .sim import MeasurementSpec, StateVector, apply_cnots, apply_encoding_isometry
from .text import LineReader, parse

BOT = -1  # the label code of a read that does not decode


@dataclass(frozen=True)
class AuthKey:
    security: int
    num_wires: int
    space: Subspace
    delta: BitVector
    x_masks: tuple[BitVector, ...]
    z_masks: tuple[BitVector, ...]
    # derived at construction, so decode/verify are pure membership tests
    hat_space: Subspace
    hat_delta: BitVector
    accept_space_z: Subspace
    accept_space_x: Subspace

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

    @property
    def code_length(self) -> int:
        return 2 * self.security + 1


def derive_key(
    security: int,
    num_wires: int,
    space: Subspace,
    delta: BitVector,
    x_masks: Sequence[BitVector],
    z_masks: Sequence[BitVector],
) -> AuthKey:
    accept_z = Subspace.span(space.ambient_dim, list(space.basis.rows) + [delta])
    hat_space = dual(accept_z)
    hat_delta = canonical_delta_hat(space, delta)
    return AuthKey(
        security=security,
        num_wires=num_wires,
        space=space,
        delta=delta,
        x_masks=tuple(x_masks),
        z_masks=tuple(z_masks),
        hat_space=hat_space,
        hat_delta=hat_delta,
        accept_space_z=accept_z,
        accept_space_x=dual(space),
    )


def gen(security: int, num_wires: int, rng: np.random.Generator) -> AuthKey:
    if security < 1 or num_wires < 1:
        raise ValueError("need security >= 1 and at least one wire")
    p = 2 * security + 1
    space = sample_subspace(p, security, rng)
    while True:
        delta = BitVector.from_ints(rng.integers(0, 2, size=p))
        if not space.contains(delta):
            break
    masks = [BitVector.from_ints(rng.integers(0, 2, size=p)) for _ in range(2 * num_wires)]
    return derive_key(security, num_wires, space, delta, masks[:num_wires], masks[num_wires:])


def enc(key: AuthKey, logical: StateVector) -> StateVector:
    """Expand each qubit into a masked coset-state block of p qubits.
    Each wire's mask X^x Z^z is applied inside its own two isometry
    columns, so no pass runs over the whole encoded state."""
    if logical.num_qubits != key.num_wires:
        raise ValueError("state width must match the key")
    state = logical
    for wire in range(key.num_wires, 0, -1):
        x, z = key.x_masks[wire - 1], key.z_masks[wire - 1]
        state = apply_encoding_isometry(state, wire, key.space, key.delta, x, z)
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
class BasisString:
    """Per-wire measurement bases over {0, 1, skip}; each wire is read
    as a block of code_length physical qubits."""

    theta: tuple[Optional[int], ...]
    code_length: int

    def __post_init__(self) -> None:
        if any(v not in (0, 1, None) for v in self.theta):
            raise ValueError("theta entries must be 0, 1 or None")
        if self.code_length < 1:
            raise ValueError("code length must be positive")

    @property
    def num_wires(self) -> int:
        return len(self.theta)

    @property
    def phi(self) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.theta, start=1) if v is not None)


CodewordTuple = tuple[BitVector, ...]


def _wire_decoder(key: AuthKey, wire_basis: int, x_shift: BitVector, z_shift: BitVector):
    if wire_basis == 0:
        return key.space, key.delta, x_shift
    return key.hat_space, key.hat_delta, z_shift


def dec_words(
    key: AuthKey, cnots: Sequence[tuple[int, int]], basis: BasisString, words: Any
) -> Any:
    """Decode the blocks of phi packed in words (an int or an int64
    array, the first block the most significant): the decoded bits packed
    the same way, one per block, or BOT where any block is rejected."""
    p = key.code_length
    phi = basis.phi
    xs, zs = pauli_update(cnots, key.x_masks, key.z_masks)
    code = rejected = words & 0
    for k, wire in enumerate(phi):
        space, delta, shift = _wire_decoder(key, basis.theta[wire - 1], xs[wire - 1], zs[wire - 1])
        bit = coset_decode(space, delta, shift, words >> (len(phi) - 1 - k) * p & (1 << p) - 1)
        code = code << 1 | bit & 1
        rejected = rejected | bit >> 1  # -1 once a block decodes to -1, else 0
    return code | rejected


# Kept for the benchmark tracer, which looks this name up; a benchmark
# change removes it.
dec_batch = dec_words


def dec(
    key: AuthKey,
    cnots: Sequence[tuple[int, int]],
    basis: BasisString,
    codewords: CodewordTuple,
) -> Optional[BitVector]:
    """Decode one measured vector per wire of phi; None on any reject."""
    if len(codewords) != len(basis.phi) or any(len(c) != key.code_length for c in codewords):
        raise ValueError("need one codeword of the code length per measured wire")
    code = dec_words(key, cnots, basis, concat(codewords).value)
    return None if code == BOT else BitVector.from_int(code, len(codewords))


def ver(
    key: AuthKey,
    cnots: Sequence[tuple[int, int]],
    basis: BasisString,
    codewords: CodewordTuple,
) -> bool:
    """Accept iff every vector sits in its wire's accepted coset union."""
    if len(codewords) != len(basis.phi):
        raise ValueError("need one codeword per measured wire")
    xs, zs = pauli_update(cnots, key.x_masks, key.z_masks)
    for wire, c in zip(basis.phi, codewords):
        if basis.theta[wire - 1] == 0:
            ok = key.accept_space_z.contains(c ^ xs[wire - 1])
        else:
            ok = key.accept_space_x.contains(c ^ zs[wire - 1])
        if not ok:
            return False
    return True


def blownup_spec(
    key: AuthKey,
    cnots: Sequence[tuple[int, int]],
    basis: BasisString,
    fn: Optional[ClassicalFn],
    live: Optional[Sequence[int]] = None,
    raw: Sequence[int] = (),
    binds: Optional[Callable[[dict[int, np.ndarray]], dict]] = None,
) -> MeasurementSpec:
    """Physical measurement over the blocks of phi, in a register that
    holds the blocks of the live wires in order (by default every wire).
    A block of a 0-wire is read in the standard basis, a 1-wire in the
    Hadamard basis. A label code holds the raw bits of the blocks of the
    raw wires, in place above fn's outputs on the decoded bits, or above
    the decoded bits themselves when fn is None; the measurement consumes
    the blocks of the raw wires. binds maps the decoded bits by wire to
    fn's bindings; by default fn's inputs are m{wire}. Undecodable rows
    label as BOT."""
    p = key.code_length
    live = range(1, basis.num_wires + 1) if live is None else live
    phi = basis.phi
    raw_mask = sum((1 << p) - 1 << (len(phi) - 1 - phi.index(w)) * p for w in raw)
    consumed = tuple(k * p + q for k, w in enumerate(live) if w in raw for q in range(1, p + 1))
    width = len(phi) if fn is None else len(fn.outputs)

    def outcome_fn(rows: np.ndarray) -> np.ndarray:
        decoded = dec_words(key, cnots, basis, rows)
        if fn is None:
            vals = decoded
        else:
            m = {w: decoded >> len(phi) - 1 - k & 1 for k, w in enumerate(phi)}
            vals = fn_code(fn, bind(fn, m) if binds is None else binds(m), rows)
        return np.where(decoded == BOT, BOT, (rows & raw_mask) << width | vals)

    return MeasurementSpec(block_tags(basis.theta, live, phi, p), outcome_fn, consumed)


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
    lines += [str(row) for row in key.space.basis.rows]
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
    xs, zs = [], []
    for i in range(1, wires + 1):
        xs.append(BitVector.from_string(r.bits(f"x{i}", p)))
        zs.append(BitVector.from_string(r.bits(f"z{i}", p)))
    key = derive_key(security, wires, space, delta, xs, zs)
    if key.hat_delta != hat_delta:
        raise ValueError("serialized dual shift is inconsistent with the key")
    return key


def key_from_text(text: str) -> AuthKey:
    return parse(text, read_key)


def honest_codeword(
    key: AuthKey,
    wire_basis: int,
    logical_bit: int,
    x_shift: BitVector,
    z_shift: BitVector,
    rng: np.random.Generator,
) -> BitVector:
    """Sample a vector an untampered measurement of the wire could yield."""
    space, delta, shift = _wire_decoder(key, wire_basis, x_shift, z_shift)
    base = shift ^ delta if logical_bit else shift
    return sample_coset_vector(AffineCoset(space, base), rng)
