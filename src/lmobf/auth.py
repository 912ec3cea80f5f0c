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
from typing import Callable, Optional, Sequence

import numpy as np

from .gf2 import (
    AffineCoset,
    BitVector,
    Subspace,
    canonical_delta_hat,
    coset_decode,
    coset_decode_batch,
    dual,
    parity,
    sample_coset_vector,
    sample_subspace,
    split,
)
from .lm import ClassicalFn, bind, block_tags, fn_table
from .sim import (
    MeasurementSpec,
    MeasurementResult,
    StateVector,
    apply_cnots,
    apply_encoding_isometry,
    measure,
    measure_branches,
)
from .text import LineReader, parse

BOT = "bot"


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


def dec(
    key: AuthKey,
    cnots: Sequence[tuple[int, int]],
    basis: BasisString,
    codewords: CodewordTuple,
) -> Optional[BitVector]:
    """Decode one measured vector per wire of phi; None on any reject."""
    if len(codewords) != len(basis.phi):
        raise ValueError("need one codeword per measured wire")
    xs, zs = pauli_update(cnots, key.x_masks, key.z_masks)
    bits = []
    for wire, c in zip(basis.phi, codewords):
        space, delta, shift = _wire_decoder(key, basis.theta[wire - 1], xs[wire - 1], zs[wire - 1])
        bit = coset_decode(space, delta, shift, c)
        if bit is None:
            return None
        bits.append(bit)
    return BitVector(tuple(bits))


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


def dec_batch(
    key: AuthKey,
    cnots: Sequence[tuple[int, int]],
    basis: BasisString,
    rows: np.ndarray,
) -> np.ndarray:
    """Decode (N, |phi|*p) sampled rows to (N, |phi|) bits; -1 per reject."""
    phi = basis.phi
    p = key.code_length
    if rows.ndim != 2 or rows.shape[1] != len(phi) * p:
        raise ValueError("rows must be (N, wires*p)")
    xs, zs = pauli_update(cnots, key.x_masks, key.z_masks)
    out = np.empty((len(rows), len(phi)), dtype=np.int8)
    for idx, wire in enumerate(phi):
        space, delta, shift = _wire_decoder(key, basis.theta[wire - 1], xs[wire - 1], zs[wire - 1])
        out[:, idx] = coset_decode_batch(space, delta, shift, rows[:, idx * p : (idx + 1) * p])
    return out


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
    Hadamard basis. A label is the raw bits of the blocks of the raw
    wires, followed by fn's outputs on the decoded bits, or by the
    decoded tuple itself when fn is None; the measurement consumes the
    blocks of the raw wires. binds maps the decoded columns by wire to
    fn's bindings; by default fn's inputs are m{wire}. Undecodable rows
    label as BOT."""
    p = key.code_length
    live = range(1, basis.num_wires + 1) if live is None else live
    phi = basis.phi
    raw_cols = [phi.index(w) * p + q for w in raw for q in range(p)]
    consumed = tuple(k * p + q for k, w in enumerate(live) if w in raw for q in range(1, p + 1))

    def outcome_fn(bits: np.ndarray) -> list:
        decoded = dec_batch(key, cnots, basis, bits)
        good = ~(decoded == -1).any(axis=1)
        vals = (decoded == 1).astype(np.uint8)
        if fn is not None:
            m = {w: vals[:, col] for col, w in enumerate(phi)}
            vals = fn_table(fn, bind(fn, m) if binds is None else binds(m), len(bits))
        rows = np.concatenate([bits[:, raw_cols], vals], axis=1).tolist()
        return [tuple(row) if ok else BOT for row, ok in zip(rows, good.tolist())]

    return MeasurementSpec(block_tags(basis.theta, live, phi, p), outcome_fn, consumed)


def logical_measure(
    key: AuthKey,
    cnots: Sequence[tuple[int, int]],
    basis: BasisString,
    fn: Optional[ClassicalFn],
    state: StateVector,
    rng: np.random.Generator,
) -> tuple[object, CodewordTuple, StateVector]:
    """One sampled authenticated measurement. Returns (label or BOT, the
    raw per-wire vectors drawn within the outcome class, post state)."""
    result: MeasurementResult = measure(state, blownup_spec(key, cnots, basis, fn), rng)
    raw = split(result.raw_bits, len(basis.phi), key.code_length)
    return result.outcome, raw, result.post_state


def logical_measure_branches(
    key: AuthKey,
    cnots: Sequence[tuple[int, int]],
    basis: BasisString,
    fn: Optional[ClassicalFn],
    state: StateVector,
) -> list[tuple[object, float, StateVector]]:
    """Exact branch enumeration of the same measurement."""
    return measure_branches(state, blownup_spec(key, cnots, basis, fn))


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
