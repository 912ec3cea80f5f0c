"""One-shot signature tokens from hidden subspace states.

The signing key is one subspace state per message bit; signing measures
each register once (standard basis for a 0 bit, Hadamard basis for a 1
bit), so the key physically cannot sign two different messages. The
verifier checks membership of each signature vector in the bit's secret
subspace or its dual, rejecting zero vectors.

Registers wider than the simulator cap are not materialized; signing
then samples the measurement outcome directly (uniform over the
subspace or its dual, the exact register statistics), and the
adversary-side register helpers are unavailable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .gf2 import BitVector, Subspace, dual, sample_coset_vector, sample_subspace
from .sim import QUBIT_CAP, MeasurementSpec, StateVector, measure, prepare_subspace_state
from .text import LineReader, parse

Signature = tuple[BitVector, ...]


@dataclass
class TokenKeypair:
    """Secret subspaces (the verification side) plus the one-shot signing
    registers. Registers stay listed after signing, collapsed, so tests
    can model an adversary holding the post-measurement state; above the
    simulator cap the slots hold None."""

    kappa_prime: int
    num_bits: int
    subspaces: tuple[Subspace, ...]
    registers: list[Optional[StateVector]]
    consumed: bool = field(default=False)

    @property
    def vk(self) -> tuple[Subspace, ...]:
        return self.subspaces


def keypair_from_subspaces(kappa_prime: int, spaces: Sequence[Subspace]) -> TokenKeypair:
    """Fresh unconsumed signing registers over known subspaces."""
    if 2 * kappa_prime <= QUBIT_CAP:
        registers: list[Optional[StateVector]] = [prepare_subspace_state(a) for a in spaces]
    else:
        registers = [None] * len(spaces)
    return TokenKeypair(kappa_prime, len(spaces), tuple(spaces), registers)


def tok_gen(kappa_prime: int, num_bits: int, rng: np.random.Generator) -> TokenKeypair:
    if kappa_prime < 1 or num_bits < 1:
        raise ValueError("need kappa_prime >= 1 and at least one message bit")
    spaces = tuple(
        sample_subspace(2 * kappa_prime, kappa_prime, rng) for _ in range(num_bits)
    )
    return keypair_from_subspaces(kappa_prime, spaces)


def tok_sign(x: BitVector, keypair: TokenKeypair, rng: np.random.Generator) -> Signature:
    """Measure every register once; a zero-vector outcome is returned as-is
    (it will fail verification) rather than resampled."""
    if keypair.consumed:
        raise RuntimeError("signing key already consumed")
    if len(x) != keypair.num_bits:
        raise ValueError("message length must match the key")
    keypair.consumed = True
    sigma = []
    for j in range(keypair.num_bits):
        if keypair.registers[j] is not None:
            sigma.append(measure_register(keypair, j + 1, "X" if x[j + 1] else "Z", rng))
        else:
            space = dual(keypair.subspaces[j]) if x[j + 1] else keypair.subspaces[j]
            shift = BitVector.zeros(2 * keypair.kappa_prime)
            sigma.append(sample_coset_vector(space, shift, rng))
    return tuple(sigma)


def tok_ver(vk: Sequence[Subspace], x: BitVector, sigma: Signature) -> bool:
    if len(x) != len(vk) or len(sigma) != len(vk):
        return False
    for j, space in enumerate(vk):
        a = sigma[j]
        if len(a) != space.ambient_dim or a.is_zero():
            return False
        target = dual(space) if x[j + 1] else space
        if not target.contains(a):
            return False
    return True


def measure_register(
    keypair: TokenKeypair, bit_index: int, basis: str, rng: np.random.Generator
) -> BitVector:
    """Read one signing register in the given basis, collapsing it.
    Adversary-side helper: modelling what a holder of the (possibly
    already measured) register can still extract."""
    register = keypair.registers[bit_index - 1]
    if register is None:
        raise RuntimeError("register above the simulator cap was never materialized")
    width = 2 * keypair.kappa_prime
    spec = MeasurementSpec((basis,) * width)
    result = measure(register, spec, rng)
    keypair.registers[bit_index - 1] = result.post_state
    return result.raw_bits


# --- serialization ----------------------------------------------------------


def vk_to_text(kappa_prime: int, vk: Sequence[Subspace]) -> str:
    lines = [f"kappa-prime {kappa_prime}", f"bits {len(vk)}"]
    for j, space in enumerate(vk, start=1):
        lines.append(f"A{j}:")
        lines.extend(str(row) for row in space.basis)
    return "\n".join(lines)


def read_vk(r: LineReader) -> tuple[int, tuple[Subspace, ...]]:
    """kappa' and the subspaces whose vk_to_text lines r reads next; each
    must have dimension kappa' in F2^(2 kappa')."""
    kappa_prime = r.integer("kappa-prime", 1)
    spaces = []
    for j in range(1, r.integer("bits", 1) + 1):
        r.fields(f"A{j}:", 0)
        space = Subspace.span_strings(2 * kappa_prime, r.rows(2 * kappa_prime))
        if space.dim != kappa_prime:
            raise ValueError(f"A{j} spans dimension {space.dim}, not kappa-prime {kappa_prime}")
        spaces.append(space)
    return kappa_prime, tuple(spaces)


def vk_from_text(text: str) -> tuple[int, tuple[Subspace, ...]]:
    return parse(text, read_vk)
