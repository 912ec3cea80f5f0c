"""GF(2) vectors, subspaces, and affine cosets.

Bit order convention used across the whole package: coordinate 1 is the
leftmost character of the textual form, and indexing a BitVector uses
those 1-based coordinates. A vector's bits are packed in one int with
coordinate 1 as the most significant bit, so the packed value of a
string of qubit readings is the simulator's basis index. Functions that
take packed words accept an int or an int64 array of them alike: `^`,
`&`, `>>` and `==` act elementwise on the array.
"""

from __future__ import annotations

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
        object.__setattr__(v, "value", value)
        object.__setattr__(v, "length", n)
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
    """Per packed word w of an int64 array (at most 32 bits), the dot
    product of w and mask over GF(2), as 0 or 1, in a new array."""
    par = words & mask
    for shift in (16, 8, 4, 2, 1):
        par ^= par >> shift
    par &= 1
    return par


@dataclass(frozen=True)
class BitMatrix:
    rows: tuple[BitVector, ...]

    def __post_init__(self) -> None:
        if self.rows:
            n = len(self.rows[0])
            if any(len(r) != n for r in self.rows):
                raise ValueError("ragged matrix")

    @staticmethod
    def from_strings(rows: Sequence[str]) -> "BitMatrix":
        return BitMatrix(tuple(BitVector.from_string(r) for r in rows))

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    def num_cols(self) -> int:
        return len(self.rows[0]) if self.rows else 0


def rref(m: BitMatrix) -> BitMatrix:
    """Reduced row-echelon form over GF(2); zero rows dropped."""
    n = m.num_cols()
    # Reduced rows keyed by their pivot, the row's leading bit; no pivot
    # bit is set in any other row.
    reduced: dict[int, int] = {}
    for row in m.rows:
        value = row.value
        for piv, other in reduced.items():
            if value & piv:
                value ^= other
        if value:
            piv = 1 << (value.bit_length() - 1)
            reduced = {p: other ^ value if other & piv else other for p, other in reduced.items()}
            reduced[piv] = value
    rows = (BitVector.from_int(reduced[p], n) for p in sorted(reduced, reverse=True))
    return BitMatrix(tuple(rows))


@dataclass(frozen=True)
class Subspace:
    """Linear subspace of F2^ambient_dim with canonical RREF basis."""

    ambient_dim: int
    basis: BitMatrix

    def __post_init__(self) -> None:
        if self.basis.rows and self.basis.num_cols() != self.ambient_dim:
            raise ValueError("basis width != ambient_dim")
        if self.basis != rref(self.basis):
            raise ValueError("basis must be in RREF (use span())")

    @staticmethod
    def span(ambient_dim: int, rows: Sequence[BitVector]) -> "Subspace":
        return Subspace(ambient_dim, rref(BitMatrix(tuple(rows))))

    @staticmethod
    def span_strings(ambient_dim: int, rows: Sequence[str]) -> "Subspace":
        return Subspace.span(ambient_dim, [BitVector.from_string(r) for r in rows])

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, BitMatrix(()))

    @property
    def dim(self) -> int:
        return self.basis.num_rows

    @cached_property
    def _pivots(self) -> tuple[tuple[int, int], ...]:
        """(position of the pivot bit, packed row) per basis row."""
        return tuple((r.value.bit_length() - 1, r.value) for r in self.basis.rows)

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
        return "\n".join(str(r) for r in self.basis.rows)


@dataclass(frozen=True)
class AffineCoset:
    space: Subspace
    shift: BitVector

    def __post_init__(self) -> None:
        if len(self.shift) != self.space.ambient_dim:
            raise ValueError("shift length mismatch")
        reduced = self.space.reduce(self.shift)
        if reduced != self.shift:
            object.__setattr__(self, "shift", reduced)


def contains(c: AffineCoset, v: BitVector) -> bool:
    return c.space.contains(v ^ c.shift)


def sample_subspace(ambient: int, dim: int, rng: np.random.Generator) -> Subspace:
    """Uniformly random dim-dimensional subspace (rejection on full rank)."""
    if not 0 <= dim <= ambient:
        raise ValueError("need 0 <= dim <= ambient")
    if dim == 0:
        return Subspace.zero(ambient)
    while True:
        rows = rng.integers(0, 2, size=(dim, ambient), dtype=np.uint8)
        reduced = rref(BitMatrix(tuple(BitVector.from_ints(r) for r in rows)))
        if reduced.num_rows == dim:
            return Subspace(ambient, reduced)


def dual(s: Subspace) -> Subspace:
    """Orthogonal complement {v : v.w = 0 for all w in s}: one vector per
    free (non-pivot) column, that column plus the pivots of the rows
    that have it set."""
    n = s.ambient_dim
    pivots = sum(1 << piv for piv, _ in s._pivots)
    null_rows = []
    for free in (1 << b for b in range(n - 1, -1, -1)):
        if free & pivots:
            continue
        v = free
        for piv, row in s._pivots:
            if row & free:
                v |= 1 << piv
        null_rows.append(BitVector.from_int(v, n))
    return Subspace.span(n, null_rows)


def canonical_delta_hat(s: Subspace, delta: BitVector) -> BitVector:
    """Least vector of dual(s) \\ dual(span(s, delta)).

    The returned vector d satisfies d.delta = 1, d.w = 0 for w in s, and
    dual(s) = shat ∪ (shat + d) where shat = dual(span(s, delta)).
    """
    if s.contains(delta):
        raise ValueError("delta must lie outside the subspace")
    s_delta = Subspace.span(s.ambient_dim, list(s.basis.rows) + [delta])
    s_perp = dual(s)
    s_hat = dual(s_delta)
    for row in s_perp.basis.rows:
        if not s_hat.contains(row):
            return s_hat.reduce(row)
    raise AssertionError("dual(s) \\ dual(s+delta) cannot be empty")


def sample_coset_vector(c: AffineCoset, rng: np.random.Generator) -> BitVector:
    acc = c.shift.value
    if c.space.dim:
        combo = rng.integers(0, 2, size=c.space.dim)
        for bit, (_, row) in zip(combo, c.space._pivots):
            if bit:
                acc ^= row
    return BitVector.from_int(acc, c.space.ambient_dim)


def coset_decode(s: Subspace, delta: BitVector, shift: BitVector, words):
    """Per packed word w (an int or an int64 array): 0 if w is in
    s+shift, 1 if in s+delta+shift, -1 otherwise."""
    one = s._reduce(delta.value)
    if not one:
        raise ValueError("delta must lie outside the subspace")
    w = s._reduce(words ^ shift.value)
    return (w == one) * 2 + (w == 0) - 1


# Kept for the benchmark tracer, which looks this name up; a benchmark
# change removes it.
coset_decode_batch = coset_decode
