"""GF(2) vectors and subspaces; a coset is a subspace and a shift.

Bit order convention used across the whole package: coordinate 1 is the
leftmost character of the textual form, and indexing a BitVector uses
those 1-based coordinates. A vector's bits are packed in one int with
coordinate 1 as the most significant bit, so the packed value of a
string of qubit readings is the simulator's basis index. Functions that
take packed words accept an int or an int64 array of them alike: `^`,
`&`, `>>` and `==` act elementwise on the array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Iterable, Iterator, Sequence

import numpy as np


@dataclass(frozen=True, init=False, repr=False, slots=True)
class BitVector:
    """A length and the bits packed in an int (coordinate 1 the MSB).
    BitVector(bits) and .bits are the tuple view."""

    value: int
    length: int

    def __init__(self, bits: Sequence[int]) -> None:
        value = 0
        for b in bits:
            if b not in (0, 1):
                raise ValueError("bits must be 0/1")
            value = value << 1 | int(b)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "length", len(bits))

    @staticmethod
    def from_int(value: int, n: int) -> "BitVector":
        """The n-bit vector whose packed value is value (0 <= value < 2**n)."""
        v = object.__new__(BitVector)
        _set_value(v, value)
        _set_length(v, n)
        return v

    @staticmethod
    def from_string(s: str) -> "BitVector":
        if not set(s) <= {"0", "1"}:
            raise ValueError(f"not a bit string: {s!r}")
        return BitVector.from_int(int(s, 2) if s else 0, len(s))

    @staticmethod
    def zeros(n: int) -> "BitVector":
        return BitVector.from_int(0, n)

    @staticmethod
    def from_ints(vals: Sequence[int]) -> "BitVector":
        return BitVector(tuple(int(v) & 1 for v in vals))

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple(map(int, str(self)))

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:
        return f"BitVector(bits={self.bits!r})"

    def __getitem__(self, coord: int) -> int:
        if not 1 <= coord <= self.length:
            raise IndexError(f"coordinate {coord} out of range 1..{self.length}")
        return self.value >> (self.length - coord) & 1

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.length != other.length:
            raise ValueError("length mismatch")
        return BitVector.from_int(self.value ^ other.value, self.length)

    def dot(self, other: "BitVector") -> int:
        if self.length != other.length:
            raise ValueError("length mismatch")
        return (self.value & other.value).bit_count() & 1

    def is_zero(self) -> bool:
        return not self.value

    def __str__(self) -> str:
        return format(self.value, f"0{self.length}b") if self.length else ""


# The slots' own setters, which a frozen instance's __setattr__ refuses;
# from_int calls them on the vector it is building.
_set_value, _set_length = BitVector.value.__set__, BitVector.length.__set__


def concat(vectors: Iterable[BitVector]) -> BitVector:
    """The vectors laid end to end, the first one leftmost."""
    value = length = 0
    for v in vectors:
        value = value << v.length | v.value
        length += v.length
    return BitVector.from_int(value, length)


def split(v: BitVector, count: int, width: int) -> tuple[BitVector, ...]:
    """Inverse of concat for count vectors of the given width; raises
    ValueError if the length does not fit."""
    if len(v) != count * width:
        raise ValueError(f"{len(v)} bits do not make {count} vectors of {width}")
    mask = (1 << width) - 1
    return tuple(
        BitVector.from_int(v.value >> (width * (count - 1 - k)) & mask, width)
        for k in range(count)
    )


def parity(words: np.ndarray, mask: int) -> np.ndarray:
    """Per packed word w of an int64 array (at most 63 bits), the dot
    product of w and mask over GF(2), as 0 or 1, in a new array."""
    par = words & mask
    for shift in (32, 16, 8, 4, 2, 1):
        par ^= par >> shift
    par &= 1
    return par


def rref(rows: tuple[BitVector, ...]) -> tuple[BitVector, ...]:
    """Reduced row-echelon form over GF(2) of rows of equal width; zero
    rows dropped."""
    n = len(rows[0]) if rows else 0
    # Reduced rows keyed by their pivot, the row's leading bit; no pivot
    # bit is set in any other row.
    reduced: dict[int, int] = {}
    for row in rows:
        value = row.value
        for piv, other in reduced.items():
            if value & piv:
                value ^= other
        if value:
            piv = 1 << (value.bit_length() - 1)
            reduced = {p: other ^ value if other & piv else other for p, other in reduced.items()}
            reduced[piv] = value
    return tuple(BitVector.from_int(reduced[p], n) for p in sorted(reduced, reverse=True))


@dataclass(frozen=True)
class Subspace:
    """Linear subspace of F2^ambient_dim with canonical RREF basis."""

    ambient_dim: int
    basis: tuple[BitVector, ...]

    def __post_init__(self) -> None:
        if any(len(r) != self.ambient_dim for r in self.basis):
            raise ValueError("basis width != ambient_dim")
        if self.basis != rref(self.basis):
            raise ValueError("basis must be in RREF (use span())")

    @staticmethod
    def span(ambient_dim: int, rows: Sequence[BitVector]) -> "Subspace":
        rows = tuple(rows)
        if any(len(r) != ambient_dim for r in rows):
            raise ValueError("row width != ambient_dim")
        return Subspace(ambient_dim, rref(rows))

    @staticmethod
    def span_strings(ambient_dim: int, rows: Sequence[str]) -> "Subspace":
        return Subspace.span(ambient_dim, [BitVector.from_string(r) for r in rows])

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, ())

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def _pivots(self) -> tuple[tuple[int, int], ...]:
        """(position of the pivot bit, packed row) per basis row."""
        return tuple((r.value.bit_length() - 1, r.value) for r in self.basis)

    @cached_property
    def _dual(self) -> "Subspace":
        """Orthogonal complement: one vector per free (non-pivot) column,
        that column plus the pivots of the rows that have it set."""
        n = self.ambient_dim
        pivots = sum(1 << piv for piv, _ in self._pivots)
        null_rows = []
        for free in (1 << b for b in range(n - 1, -1, -1)):
            if free & pivots:
                continue
            v = free
            for piv, row in self._pivots:
                if row & free:
                    v |= 1 << piv
            null_rows.append(BitVector.from_int(v, n))
        return Subspace.span(n, null_rows)

    def _reduce(self, words):
        """Reduce packed words (an int or an int64 array) without
        branching: each row is XORed in where its pivot bit is set."""
        for piv, row in self._pivots:
            words = words ^ row * (words >> piv & 1)
        return words

    def reduce(self, v: BitVector) -> BitVector:
        """Canonical (lexicographically least) representative of v + self."""
        return BitVector.from_int(self._reduce(v.value), v.length)

    def contains(self, v: BitVector) -> bool:
        if len(v) != self.ambient_dim:
            raise ValueError("length mismatch")
        return not self._reduce(v.value)

    def elements(self) -> Iterator[BitVector]:
        for combo in product((0, 1), repeat=self.dim):
            acc = 0
            for c, (_, row) in zip(combo, self._pivots):
                if c:
                    acc ^= row
            yield BitVector.from_int(acc, self.ambient_dim)

    def to_text(self) -> str:
        return "\n".join(str(r) for r in self.basis)


def sample_subspace(ambient: int, dim: int, rng: np.random.Generator) -> Subspace:
    """Uniformly random dim-dimensional subspace (rejection on full rank)."""
    if not 0 <= dim <= ambient:
        raise ValueError("need 0 <= dim <= ambient")
    if dim == 0:
        return Subspace.zero(ambient)
    while True:
        rows = rng.integers(0, 2, size=(dim, ambient), dtype=np.uint8)
        reduced = rref(tuple(BitVector.from_ints(r) for r in rows))
        if len(reduced) == dim:
            return Subspace(ambient, reduced)


def dual(s: Subspace) -> Subspace:
    """Orthogonal complement {v : v.w = 0 for all w in s}, worked out once
    per Subspace and kept on it."""
    return s._dual


def canonical_delta_hat(s: Subspace, delta: BitVector) -> BitVector:
    """Least vector of dual(s) \\ dual(span(s, delta)).

    The returned vector d satisfies d.delta = 1, d.w = 0 for w in s, and
    dual(s) = shat ∪ (shat + d) where shat = dual(span(s, delta)).
    """
    if s.contains(delta):
        raise ValueError("delta must lie outside the subspace")
    s_delta = Subspace.span(s.ambient_dim, s.basis + (delta,))
    s_perp = dual(s)
    s_hat = dual(s_delta)
    for row in s_perp.basis:
        if not s_hat.contains(row):
            return s_hat.reduce(row)
    raise AssertionError("dual(s) \\ dual(s+delta) cannot be empty")


def coset_vector(space: Subspace, shift: BitVector, rank: int) -> BitVector:
    """The rank-th least vector of space + shift: in RREF, its least
    representative plus the rows at the set bits of rank, first row MSB."""
    if len(shift) != space.ambient_dim:
        raise ValueError("shift length mismatch")
    acc = space._reduce(shift.value)
    for j, (_, row) in enumerate(reversed(space._pivots)):
        acc ^= row * (rank >> j & 1)
    return BitVector.from_int(acc, space.ambient_dim)


def sample_coset_vectors(
    cosets: Sequence[tuple[Subspace, BitVector]], rng: np.random.Generator
) -> tuple[BitVector, ...]:
    """A uniform vector of each coset space + shift, drawn from the
    coset's least representative so that equal cosets give equal draws.
    One rng.integers call draws the rank bits of every coset, first coset
    first: a bounded draw of range 2 takes one 32-bit word per bit, so
    the stream is that of one call per coset."""
    dims = [space.dim for space, _ in cosets]
    bits = iter(rng.integers(0, 2, size=sum(dims)).tolist())
    out = []
    for (space, shift), dim in zip(cosets, dims):
        rank = 0
        for _ in range(dim):
            rank = rank << 1 | next(bits)
        out.append(coset_vector(space, shift, rank))
    return tuple(out)


def sample_coset_vector(space: Subspace, shift: BitVector, rng: np.random.Generator) -> BitVector:
    """One coset's vector, as sample_coset_vectors draws it."""
    (v,) = sample_coset_vectors([(space, shift)], rng)
    return v


def draw_index(rng: np.random.Generator, weights: np.ndarray) -> int:
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


def coset_class(s: Subspace, one: int, words):
    """Per packed word w (an int or an int64 array): 0 if w is in s, 1
    if in s+delta, -1 otherwise, where one is s._reduce(delta.value),
    worked out once by the caller and nonzero."""
    w = s._reduce(words)
    return (w == one) * 2 + (w == 0) - 1


def coset_decode(s: Subspace, delta: BitVector, shift: BitVector, words):
    """Per packed word w (an int or an int64 array): 0 if w is in
    s+shift, 1 if in s+delta+shift, -1 otherwise."""
    one = s._reduce(delta.value)
    if not one:
        raise ValueError("delta must lie outside the subspace")
    return coset_class(s, one, words ^ shift.value)


# Kept for the benchmark tracer, which looks this name up; a benchmark
# change removes it.
coset_decode_batch = coset_decode
