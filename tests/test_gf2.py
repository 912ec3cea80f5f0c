"""gf2 tests. Derived expectations are recomputed here by brute-force
enumeration, independent of the implementation under test."""

from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import reference_dual, reference_rref
from lmobf.gf2 import (
    BitVector,
    Subspace,
    canonical_delta_hat,
    concat,
    coset_decode,
    dual,
    rref,
    sample_coset_vector,
    sample_subspace,
    split,
)


def all_vectors(n):
    return [BitVector(bits) for bits in product((0, 1), repeat=n)]


def span_set(rows, n):
    """Brute-force span as a frozenset of bit tuples."""
    out = set()
    rows = list(rows)
    for combo in product((0, 1), repeat=len(rows)):
        acc = (0,) * n
        for c, r in zip(combo, rows):
            if c:
                acc = tuple(a ^ b for a, b in zip(acc, r.bits))
        out.add(acc)
    return frozenset(out)


def vectors(*strings):
    return tuple(BitVector.from_string(s) for s in strings)


def test_rref_basic():
    assert rref(vectors("11", "01")) == vectors("10", "01")
    assert rref(()) == ()
    assert rref(vectors("111", "111")) == vectors("111")


def test_rref_preserves_span():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        k = int(rng.integers(0, n + 1))
        rows = [BitVector(tuple(int(b) for b in rng.integers(0, 2, n))) for _ in range(k)]
        r = rref(tuple(rows))
        assert span_set(r, n) == span_set(rows, n)
        assert rref(r) == r


def test_rref_canonical_equal_spans():
    # two different generating sets of the same span give the same Subspace
    a = Subspace.span_strings(3, ["110", "011"])
    b = Subspace.span_strings(3, ["101", "110"])
    assert a == b
    assert hash(a) == hash(b)


def test_subspace_membership_and_reduce():
    s = Subspace.span_strings(3, ["110", "011"])
    members = span_set(s.basis, 3)
    for v in all_vectors(3):
        assert s.contains(v) == (v.bits in members)
    # the packed reduction takes an int64 array of words as it takes one int
    batch = np.array([v.value for v in all_vectors(3)], dtype=np.int64)
    got = s._reduce(batch) == 0
    want = np.array([s.contains(v) for v in all_vectors(3)])
    assert np.array_equal(got, want)


def test_dual_examples():
    s = Subspace.span_strings(3, ["110", "011"])
    d = dual(s)
    want = [v for v in all_vectors(3) if all(v.dot(w) == 0 for w in s.elements())]
    assert set(e.bits for e in d.elements()) == set(v.bits for v in want)
    assert d == Subspace.span_strings(3, ["111"])
    z = Subspace.zero(4)
    assert dual(z).dim == 4


def test_dual_is_worked_out_once_per_subspace():
    """dual hands back the complement kept on the Subspace, so a token
    check asks for it without recomputing it; an equal but separately
    built subspace gets an equal dual."""
    s = Subspace.span_strings(4, ["1100", "0110"])
    assert dual(s) is dual(s)
    assert dual(Subspace.span_strings(4, ["1010", "0110"])) == dual(s)


@given(st.integers(1, 6), st.integers(0, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_dual_involution(ambient, dim, seed):
    dim = min(dim, ambient)
    s = sample_subspace(ambient, dim, np.random.default_rng(seed))
    assert dual(dual(s)) == s
    assert s.dim + dual(s).dim == ambient


def test_sample_subspace_trivial():
    rng = np.random.default_rng(0)
    assert sample_subspace(3, 0, rng).dim == 0
    full = sample_subspace(3, 3, rng)
    assert full.dim == 3


def test_sample_subspace_uniform():
    # enumerate all 2-dim subspaces of F2^5 by brute force: there are 155
    seen = {}
    vecs = [v for v in all_vectors(5) if not v.is_zero()]
    all_subs = set()
    for a, b in combinations(vecs, 2):
        key = span_set([a, b], 5)
        if len(key) == 4:
            all_subs.add(key)
    assert len(all_subs) == 155
    rng = np.random.default_rng(123)
    draws = 10_000
    for _ in range(draws):
        s = sample_subspace(5, 2, rng)
        key = frozenset(e.bits for e in s.elements())
        seen[key] = seen.get(key, 0) + 1
    assert set(seen) <= all_subs
    expect = draws / 155
    sigma = (draws * (1 / 155) * (154 / 155)) ** 0.5
    for key in all_subs:
        assert abs(seen.get(key, 0) - expect) <= 5 * sigma


def test_contains_coset():
    s = Subspace.span_strings(2, ["11"])
    zero, shift = BitVector.from_string("00"), BitVector.from_string("01")
    assert s.contains(BitVector.from_string("11") ^ zero)
    assert not s.contains(BitVector.from_string("11") ^ shift)
    assert s.contains(BitVector.from_string("10") ^ shift)


def test_coset_shift_canonicalized():
    s = Subspace.span_strings(2, ["11"])
    a = BitVector.from_string("01")
    b = BitVector.from_string("10")
    assert s.reduce(a) == s.reduce(b) == a


def test_canonical_delta_hat_example():
    s = Subspace.span_strings(5, ["10000", "01000", "00100"])
    delta = BitVector.from_string("00010")
    dh = canonical_delta_hat(s, delta)
    # independent recomputation: S-perp and S-hat by enumeration
    s_elems = list(s.elements())
    s_perp = [v for v in all_vectors(5) if all(v.dot(w) == 0 for w in s_elems)]
    s_delta_elems = span_set(list(s.basis) + [delta], 5)
    s_hat = [v for v in s_perp if all(v.dot(BitVector(w)) == 0 for w in s_delta_elems)]
    candidates = sorted(set(v.bits for v in s_perp) - set(v.bits for v in s_hat))
    assert dh.bits == candidates[0]
    assert dh == BitVector.from_string("00010")


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_canonical_delta_hat_properties(seed):
    rng = np.random.default_rng(seed)
    lam = int(rng.integers(1, 4))
    p = 2 * lam + 1
    s = sample_subspace(p, lam, rng)
    while True:
        delta = BitVector(tuple(int(b) for b in rng.integers(0, 2, p)))
        if not s.contains(delta):
            break
    dh = canonical_delta_hat(s, delta)
    assert dh.dot(delta) == 1
    assert all(dh.dot(w) == 0 for w in s.basis)
    # dual(S) = s_hat ∪ (s_hat + dh) as sets
    s_hat = dual(Subspace.span(p, list(s.basis) + [delta]))
    lhs = set(e.bits for e in dual(s).elements())
    rhs = set(e.bits for e in s_hat.elements()) | set((e ^ dh).bits for e in s_hat.elements())
    assert lhs == rhs
    assert canonical_delta_hat(s, delta) == dh


def test_delta_hat_rejects_inside_vector():
    s = Subspace.span_strings(3, ["110"])
    with pytest.raises(ValueError):
        canonical_delta_hat(s, BitVector.from_string("110"))


def test_sample_coset_vector():
    rng = np.random.default_rng(5)
    point = BitVector.from_string("101")
    assert all(sample_coset_vector(Subspace.zero(3), point, rng) == point for _ in range(10))
    s, shift = Subspace.span_strings(2, ["11"]), BitVector.from_string("01")
    counts = {"01": 0, "10": 0}
    for _ in range(10_000):
        v = sample_coset_vector(s, shift, rng)
        assert s.contains(v ^ shift)
        counts[str(v)] += 1
    assert abs(counts["01"] - 5000) < 5 * 50


def test_sample_coset_vector_starts_from_the_least_representative():
    """Two shifts of one coset give the same seeded draw, so a caller's
    choice of shift never changes seeded output."""
    s = Subspace.span_strings(5, ["11000", "00110"])
    a = BitVector.from_string("01011")
    for seed in range(5):
        want = sample_coset_vector(s, a, np.random.default_rng(seed))
        for r in s.elements():
            assert sample_coset_vector(s, a ^ r, np.random.default_rng(seed)) == want
    with pytest.raises(ValueError, match="shift length"):
        sample_coset_vector(s, BitVector.from_string("0101"), np.random.default_rng(0))


def test_rows_of_another_width_are_refused():
    """span and the constructor check the width of every row: rref alone
    would pack a short or long row into the ambient width silently."""
    with pytest.raises(ValueError, match="width"):
        Subspace.span(3, vectors("101", "11"))
    with pytest.raises(ValueError, match="width"):
        Subspace(3, vectors("100", "01"))


def test_coset_decode():
    s = Subspace.span_strings(3, ["110"])
    delta = BitVector.from_string("001")
    shift = BitVector.from_string("000")
    assert coset_decode(s, delta, shift, shift.value) == 0
    assert coset_decode(s, delta, shift, delta.value) == 1
    assert coset_decode(s, delta, shift, 0b100) == -1
    # decode classes partition S ∪ (S+delta) and nothing else
    union = span_set(list(s.basis) + [delta], 3)
    for v in all_vectors(3):
        d = coset_decode(s, delta, shift, v.value)
        if v.bits in union:
            assert d in (0, 1)
        else:
            assert d == -1
    # an int64 array of words decodes element by element as the ints do
    batch = np.array([v.value for v in all_vectors(3)], dtype=np.int64)
    got = coset_decode(s, delta, shift, batch)
    want = [coset_decode(s, delta, shift, v.value) for v in all_vectors(3)]
    assert got.tolist() == want


def test_coset_decode_disjoint_classes():
    rng = np.random.default_rng(11)
    for _ in range(20):
        s = sample_subspace(5, 2, rng)
        while True:
            delta = BitVector(tuple(int(b) for b in rng.integers(0, 2, 5)))
            if not s.contains(delta):
                break
        shift = BitVector(tuple(int(b) for b in rng.integers(0, 2, 5)))
        zeros = {v.bits for v in all_vectors(5) if coset_decode(s, delta, shift, v.value) == 0}
        ones = {v.bits for v in all_vectors(5) if coset_decode(s, delta, shift, v.value) == 1}
        assert not zeros & ones
        assert len(zeros) == len(ones) == 2**s.dim


def test_textual_forms():
    v = BitVector.from_string("0101")
    assert str(v) == "0101"
    s = Subspace.span_strings(3, ["011", "110"])
    assert s.to_text() == "101\n011"


# --- packed representation ---------------------------------------------------


@given(st.lists(st.integers(0, 1), max_size=80), st.data())
@settings(max_examples=200, deadline=None)
def test_packed_vector_matches_tuple_arithmetic(bits, data):
    bits = tuple(bits)
    other = tuple(data.draw(st.lists(st.integers(0, 1), min_size=len(bits), max_size=len(bits))))
    v, w = BitVector(bits), BitVector(other)
    assert v.bits == bits and len(v) == len(bits)
    assert str(v) == "".join(map(str, bits))
    assert BitVector.from_string(str(v)) == v
    assert BitVector.from_int(v.value, len(v)) == v
    assert [v[k] for k in range(1, len(v) + 1)] == list(bits)
    assert (v ^ w).bits == tuple(a ^ b for a, b in zip(bits, other))
    assert v.dot(w) == sum(a & b for a, b in zip(bits, other)) % 2
    assert v.is_zero() == (not any(bits))
    assert split(concat((v, w)), 2, len(bits)) == (v, w)


def test_packed_value_is_the_basis_index():
    assert BitVector.from_string("100").value == 4
    assert BitVector.from_string("001").value == 1
    assert BitVector.from_int(6, 4) == BitVector.from_string("0110")
    parts = (BitVector.from_string("10"), BitVector.zeros(0), BitVector.from_string("011"))
    assert concat(parts) == BitVector.from_string("10011")
    assert split(BitVector.from_string("101100"), 3, 2) == tuple(
        BitVector.from_string(s) for s in ("10", "11", "00")
    )
    with pytest.raises(ValueError):
        split(BitVector.from_string("10110"), 3, 2)


@given(st.integers(0, 8), st.integers(0, 9), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_rref_and_dual_match_reference(n, k, seed):
    rng = np.random.default_rng(seed)
    rows = [tuple(int(b) for b in rng.integers(0, 2, n)) for _ in range(k)]
    got = rref(tuple(BitVector(r) for r in rows))
    assert [r.bits for r in got] == reference_rref(rows)
    space = Subspace(n, got)
    assert [r.bits for r in dual(space).basis] == reference_dual(rows, n)
