"""One-shot signature tokens from hidden subspace states.

The signing key is one subspace state |A> per message bit. Signing reads
each register in full (standard basis for a 0 bit, Hadamard basis for a
1 bit), so the key cannot sign two different messages; the verifier
checks each signature vector against the bit's subspace or its dual,
rejecting zero vectors. No register is built: a key records the last
read of each register, which is all of its collapsed state (see
measure_register).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .gf2 import BitVector, Subspace, coset_vector, dual, sample_coset_vector, sample_subspace
from .text import LineReader, parse

Signature = tuple[BitVector, ...]

# Up to this kappa' (registers of <= 24 qubits) a read draws as sim.measure on
# the register did, above it as sample_coset_vector; golden rows pin both.
_MEASURED_UP_TO = 12


@dataclass
class TokenKeypair:
    """Secret subspaces (the verification side) and, per message bit, the
    basis and outcome of its register's last read (None while fresh),
    kept after signing for an adversary who reads the registers again."""

    kappa_prime: int
    num_bits: int
    subspaces: tuple[Subspace, ...]
    reads: list[Optional[tuple[str, BitVector]]]
    consumed: bool = False

    @property
    def vk(self) -> tuple[Subspace, ...]:
        return self.subspaces


def keypair_from_subspaces(kappa_prime: int, spaces: Sequence[Subspace]) -> TokenKeypair:
    """An unconsumed key of fresh registers over known subspaces."""
    return TokenKeypair(kappa_prime, len(spaces), tuple(spaces), [None] * len(spaces))


def tok_gen(kappa_prime: int, num_bits: int, rng: np.random.Generator) -> TokenKeypair:
    if kappa_prime < 1 or num_bits < 1:
        raise ValueError("need kappa_prime >= 1 and at least one message bit")
    spaces = tuple(
        sample_subspace(2 * kappa_prime, kappa_prime, rng) for _ in range(num_bits)
    )
    return keypair_from_subspaces(kappa_prime, spaces)


def tok_sign(x: BitVector, keypair: TokenKeypair, rng: np.random.Generator) -> Signature:
    """Read every register once; a zero-vector outcome is returned as-is
    (it will fail verification) rather than resampled."""
    if keypair.consumed:
        raise RuntimeError("signing key already consumed")
    if len(x) != keypair.num_bits:
        raise ValueError("message length must match the key")
    keypair.consumed = True
    return tuple(measure_register(keypair, j, "ZX"[b], rng) for j, b in enumerate(x.bits, 1))


def tok_ver(vk: Sequence[Subspace], x: BitVector, sigma: Signature) -> bool:
    if len(x) != len(vk) or len(sigma) != len(vk):
        return False
    for j, (space, a) in enumerate(zip(vk, sigma), start=1):
        target = dual(space) if x[j] else space
        if len(a) != space.ambient_dim or a.is_zero() or not target.contains(a):
            return False
    return True


def measure_register(
    keypair: TokenKeypair, bit_index: int, basis: str, rng: np.random.Generator
) -> BitVector:
    """Read message bit bit_index's register in full in basis 'Z' or 'X'
    and record the read. The outcome is uniform over the bit's A (Z) or
    dual(A) (X) when fresh, the last outcome after a read in this basis,
    and uniform over F2^(2 kappa') after one in the other."""
    if basis not in ("Z", "X"):
        raise ValueError(f"bad basis tag {basis!r}")
    width, last = 2 * keypair.kappa_prime, keypair.reads[bit_index - 1]
    space, shift = keypair.subspaces[bit_index - 1], BitVector.zeros(width)
    if last is None:
        space = dual(space) if basis == "X" else space
    elif last[0] == basis:
        space, shift = Subspace.zero(width), last[1]
    else:
        space = dual(Subspace.zero(width))
    if keypair.kappa_prime > _MEASURED_UP_TO:
        outcome = sample_coset_vector(space, shift, rng)
    else:
        # sim.measure's two draws: a vector of the coset, ascending, then a row.
        q = np.full(1 << space.dim, 1 / np.sqrt(2.0**space.dim)) ** 2
        outcome = coset_vector(space, shift, int(rng.choice(len(q), p=q / q.sum())))
        rng.choice(1, p=[1.0])
    keypair.reads[bit_index - 1] = (basis, outcome)
    return outcome


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
