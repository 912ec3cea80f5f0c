"""sim tests. Gate and Pauli applications are checked against explicit
matrices assembled with np.kron, measurements against projector arithmetic."""

import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    reference_cnots,
    reference_consume,
    reference_gather,
    reference_gate,
    reference_isometry,
    reference_measure,
    reference_measure_branches,
)
from lmobf.auth import gen
from lmobf.gf2 import BitVector, Subspace, concat, dual, parity, sample_subspace
from lmobf import sim
from lmobf.sim import (
    MeasurementSpec,
    QubitCapError,
    StateVector,
    apply_cnots,
    apply_encoding_isometry,
    apply_gate,
    apply_pauli_mask,
    dump,
    measure,
    measure_branches,
    permute_blocks,
    prepare_subspace_state,
    state_distance,
    tensor,
)

I2 = np.eye(2, dtype=np.complex128)
X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
T = np.diag([1, np.exp(1j * np.pi / 4)]).astype(np.complex128)


def kron_all(mats):
    out = np.array([[1.0]], dtype=np.complex128)
    for m in mats:
        out = np.kron(out, m)
    return out


def full_1q(gate, q, n):
    return kron_all([gate if i == q else I2 for i in range(1, n + 1)])


def full_cnot(c, t, n):
    p0 = np.array([[1, 0], [0, 0]], dtype=np.complex128)
    p1 = np.array([[0, 0], [0, 1]], dtype=np.complex128)
    a = kron_all([p0 if i == c else I2 for i in range(1, n + 1)])
    b = kron_all([p1 if i == c else (X if i == t else I2) for i in range(1, n + 1)])
    return a + b


def random_state(n, rng):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return StateVector(n, amps / np.linalg.norm(amps))


def row_parity(rows):
    """Outcome function: the parity of each packed row's bits."""
    return parity(rows, 2**32 - 1)


def test_gate_examples():
    plus = apply_gate(StateVector.zero(1), "H", (1,))
    assert np.allclose(plus.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)])
    one = StateVector.basis(BitVector.from_string("1"))
    t1 = apply_gate(one, "T", (1,))
    assert np.allclose(t1.amplitudes, [0, np.exp(1j * np.pi / 4)])
    got = apply_gate(StateVector.basis(BitVector.from_string("10")), "CNOT", (1, 2))
    assert np.allclose(got.amplitudes, StateVector.basis(BitVector.from_string("11")).amplitudes)


def test_gates_match_explicit_matrices():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        s = random_state(n, rng)
        g = ["X", "Z", "H", "T"][rng.integers(0, 4)]
        q = int(rng.integers(1, n + 1))
        got = apply_gate(s, g, (q,))
        want = full_1q({"X": X, "Z": Z, "H": H, "T": T}[g], q, n) @ s.amplitudes
        assert np.allclose(got.amplitudes, want, atol=1e-12)
        if n >= 2:
            c, t = rng.choice(np.arange(1, n + 1), size=2, replace=False)
            got = apply_gate(s, "CNOT", (int(c), int(t)))
            want = full_cnot(int(c), int(t), n) @ s.amplitudes
            assert np.allclose(got.amplitudes, want, atol=1e-12)


def test_gate_errors():
    s = StateVector.zero(2)
    with pytest.raises(ValueError):
        apply_gate(s, "H", (3,))
    with pytest.raises(ValueError):
        apply_gate(s, "CNOT", (1, 1))
    with pytest.raises(ValueError):
        apply_gate(s, "SWAP", (1, 2))


def test_pauli_mask_matches_explicit():
    rng = np.random.default_rng(4)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        s = random_state(n, rng)
        xm = BitVector(tuple(int(b) for b in rng.integers(0, 2, n)))
        zm = BitVector(tuple(int(b) for b in rng.integers(0, 2, n)))
        got = apply_pauli_mask(s, xm, zm)
        op = kron_all([
            np.linalg.matrix_power(X, xm[i]) @ np.linalg.matrix_power(Z, zm[i])
            for i in range(1, n + 1)
        ])
        assert np.allclose(got.amplitudes, op @ s.amplitudes, atol=1e-12)


def test_prepare_subspace_state_examples():
    s = prepare_subspace_state(Subspace.span_strings(2, ["11"]))
    assert np.allclose(s.amplitudes, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)])
    v = BitVector.from_string("101")
    pt = prepare_subspace_state(Subspace.zero(3), v)
    assert state_distance(pt, StateVector.basis(v)) <= 1e-12


def test_hadamard_maps_subspace_to_dual():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        s = sample_subspace(n, int(rng.integers(0, n + 1)), rng)
        st_s = prepare_subspace_state(s)
        for q in range(1, n + 1):
            st_s = apply_gate(st_s, "H", (q,))
        assert state_distance(st_s, prepare_subspace_state(dual(s))) <= 1e-12


def test_encoding_isometry():
    s = Subspace.span_strings(3, ["110"])
    delta = BitVector.from_string("001")
    zero = apply_encoding_isometry(StateVector.zero(1), 1, s, delta)
    assert state_distance(zero, prepare_subspace_state(s)) <= 1e-12
    one = apply_encoding_isometry(StateVector.basis(BitVector.from_string("1")), 1, s, delta)
    assert state_distance(one, prepare_subspace_state(s, delta)) <= 1e-12
    plus = apply_gate(StateVector.zero(1), "H", (1,))
    enc = apply_encoding_isometry(plus, 1, s, delta)
    want = (prepare_subspace_state(s).amplitudes + prepare_subspace_state(s, delta).amplitudes)
    want = want / np.linalg.norm(want)
    assert abs(1 - abs(np.vdot(enc.amplitudes, want))) <= 1e-12


def test_encoding_isometry_middle_qubit_linearity():
    # encode qubit 2 of a 3-qubit state; compare against explicit isometry matrix
    rng = np.random.default_rng(12)
    s = Subspace.span_strings(3, ["101"])
    delta = BitVector.from_string("010")
    psi = random_state(3, rng)
    got = apply_encoding_isometry(psi, 2, s, delta)
    iso = np.stack(
        [prepare_subspace_state(s).amplitudes, prepare_subspace_state(s, delta).amplitudes],
        axis=1,
    )
    op = np.kron(np.kron(I2, iso), I2)
    assert np.allclose(got.amplitudes, op @ psi.amplitudes, atol=1e-12)


def test_encoding_isometry_masks_its_block():
    """Masks given to the isometry act on its block exactly as a Pauli
    mask over that block applied afterwards."""
    rng = np.random.default_rng(13)
    s = Subspace.span_strings(3, ["101"])
    delta = BitVector.from_string("010")
    x, z = BitVector.from_string("110"), BitVector.from_string("011")
    psi = random_state(3, rng)
    got = apply_encoding_isometry(psi, 2, s, delta, x, z)
    after = apply_pauli_mask(
        apply_encoding_isometry(psi, 2, s, delta),
        concat([BitVector.zeros(1), x, BitVector.zeros(1)]),
        concat([BitVector.zeros(1), z, BitVector.zeros(1)]),
    )
    assert np.array_equal(got.amplitudes, after.amplitudes)


def test_tensor():
    a = StateVector.basis(BitVector.from_string("1"))
    b = apply_gate(StateVector.zero(1), "H", (1,))
    ab = tensor(a, b)
    assert np.allclose(ab.amplitudes, [0, 0, 1 / np.sqrt(2), 1 / np.sqrt(2)])


@pytest.mark.parametrize("na, nb", [(0, 1), (1, 0), (1, 2), (3, 4), (6, 1)])
def test_tensor_equals_kron(na, nb):
    """tensor's outer product gives np.kron's amplitudes bit for bit."""
    rng = np.random.default_rng(na * 10 + nb)

    def random_state(n):
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        return StateVector(n, amps / np.linalg.norm(amps))

    a, b = random_state(na), random_state(nb)
    got = tensor(a, b)
    assert got.num_qubits == na + nb
    assert np.array_equal(got.amplitudes, np.kron(a.amplitudes, b.amplitudes))


def test_qubit_cap():
    with pytest.raises(QubitCapError):
        StateVector(sim.QUBIT_CAP + 1, np.zeros(2))
    with pytest.raises(QubitCapError):
        StateVector.zero(sim.QUBIT_CAP + 1)


def bell():
    s = apply_gate(StateVector.zero(2), "H", (1,))
    return apply_gate(s, "CNOT", (1, 2))


def test_measure_all_skip():
    rng = np.random.default_rng(0)
    s = bell()
    r = measure(s, MeasurementSpec((None, None)), rng)
    assert r.outcome == 0  # the empty row
    assert len(r.raw_bits) == 0
    assert state_distance(r.post_state, s) <= 1e-12


def test_measure_parity_of_bell():
    rng = np.random.default_rng(1)
    spec = MeasurementSpec(("Z", "Z"), lambda rows: (rows >> 1 ^ rows) & 1)
    for _ in range(20):
        r = measure(bell(), spec, rng)
        assert r.outcome == 0
        assert state_distance(r.post_state, bell()) <= 1e-12
        assert r.raw_bits in (BitVector.from_string("00"), BitVector.from_string("11"))


def test_measure_single_qubit_frequencies():
    rng = np.random.default_rng(2)
    counts = {0: 0, 1: 0}
    trials = 10_000
    for _ in range(trials):
        r = measure(bell(), MeasurementSpec(("Z", None)), rng)
        counts[r.outcome] += 1
        # collapse: remaining qubit agrees with the observed one
        want = StateVector.basis(BitVector((r.outcome, r.outcome)))
        assert state_distance(r.post_state, want) <= 1e-12
    sigma = (trials * 0.25) ** 0.5
    assert abs(counts[0] - trials / 2) <= 3 * sigma


def test_measure_x_basis():
    rng = np.random.default_rng(5)
    plus = apply_gate(StateVector.zero(1), "H", (1,))
    r = measure(plus, MeasurementSpec(("X",)), rng)
    assert r.outcome == 0
    assert state_distance(r.post_state, plus) <= 1e-12
    minus = apply_gate(StateVector.basis(BitVector.from_string("1")), "H", (1,))
    r = measure(minus, MeasurementSpec(("X",)), rng)
    assert r.outcome == 1


def test_partial_collapse_preserves_class_amplitudes():
    rng = np.random.default_rng(6)
    s = apply_gate(apply_gate(bell(), "H", (1,)), "T", (2,))
    spec = MeasurementSpec(("Z", "Z"), lambda m: [0] * len(m))
    r = measure(s, spec, rng)
    assert r.outcome == 0
    assert state_distance(r.post_state, s) <= 1e-12


def test_measure_repeatability():
    rng = np.random.default_rng(7)
    for trial in range(40):
        n = int(rng.integers(1, 6))
        s = random_state(n, rng)
        basis = tuple(str(rng.choice(["Z", "X", "skip"])) for _ in range(n))
        basis = tuple(None if b == "skip" else b for b in basis)
        spec = MeasurementSpec(basis, row_parity)
        r1 = measure(s, spec, rng)
        r2 = measure(r1.post_state, spec, rng)
        assert r2.outcome == r1.outcome
        assert state_distance(r2.post_state, r1.post_state) <= 1e-9


def test_measure_determinism():
    seq = []
    for _ in range(2):
        rng = np.random.default_rng(99)
        s = bell()
        got = []
        for _ in range(10):
            r = measure(s, MeasurementSpec(("Z", None)), rng)
            got.append((r.outcome, r.raw_bits))
            s = bell()
        seq.append(got)
    assert seq[0] == seq[1]


def test_measure_branches_exhaustive():
    s = bell()
    branches = measure_branches(s, MeasurementSpec(("Z", "Z")))
    got = {lab: prob for lab, prob, _ in branches}
    assert set(got) == {0b00, 0b11}
    assert abs(got[0b00] - 0.5) <= 1e-12
    assert abs(sum(got.values()) - 1.0) <= 1e-12


def test_projector_completeness():
    # sum over outcome labels of the induced projectors equals identity:
    # columns of each projector recovered by collapsing basis states
    rng = np.random.default_rng(8)
    for n in range(1, 7):
        basis = tuple(rng.choice(["Z", "X", None]) for _ in range(n))
        if all(b is None for b in basis):
            basis = ("Z",) + basis[1:]
        spec = MeasurementSpec(tuple(basis), row_parity)
        total = np.zeros((2**n, 2**n), dtype=np.complex128)
        for j in range(2**n):
            e = np.zeros(2**n, dtype=np.complex128)
            e[j] = 1.0
            for _, prob, post in measure_branches(StateVector(n, e), spec):
                total[:, j] += np.sqrt(prob) * post.amplitudes
        assert np.abs(total - np.eye(2**n)).max() <= 1e-12


def test_raw_bits_consistent_with_outcome():
    rng = np.random.default_rng(10)
    # the code of the label (bit 1 xor bit 2, bit 3)
    spec = MeasurementSpec(("Z", "Z", "Z"), lambda rows: (rows >> 1 ^ rows) & 2 | rows & 1)
    s = apply_gate(apply_gate(StateVector.zero(3), "H", (1,)), "H", (3,))
    s = apply_gate(s, "CNOT", (1, 2))
    for _ in range(30):
        r = measure(s, spec, rng)
        assert (r.raw_bits[1] ^ r.raw_bits[2]) << 1 | r.raw_bits[3] == r.outcome


def test_state_distance():
    s = bell()
    assert state_distance(s, s) <= 1e-12
    phased = StateVector(2, np.exp(0.7j) * s.amplitudes)
    assert state_distance(s, phased) <= 1e-12
    a = StateVector.zero(1)
    b = StateVector.basis(BitVector.from_string("1"))
    assert abs(state_distance(a, b) - 1.0) <= 1e-12
    with pytest.raises(ValueError):
        state_distance(a, s)


def test_norm_enforced():
    with pytest.raises(ValueError):
        StateVector(1, np.array([1.0, 1.0]))


def test_dump_format():
    out = dump(bell())
    assert out.splitlines() == [
        "00 0.707106781187 0",
        "11 0.707106781187 0",
    ]


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_norm_preserved_random_circuits(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    s = random_state(n, rng)
    for _ in range(8):
        g = str(rng.choice(["X", "Z", "H", "T", "CNOT"]))
        if g == "CNOT":
            if n < 2:
                continue
            c, t = rng.choice(np.arange(1, n + 1), size=2, replace=False)
            s = apply_gate(s, g, (int(c), int(t)))
        else:
            s = apply_gate(s, g, (int(rng.integers(1, n + 1)),))
    assert abs(np.linalg.norm(s.amplitudes) - 1.0) <= 1e-9


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_apply_cnots_matches_dense_permutations(data):
    """A list of CNOTs on qubits or on blocks of 2 or 3 qubits, applied as
    one gather, equals the product of their permutation matrices."""
    block = data.draw(st.sampled_from([1, 2, 3]))
    wires = data.draw(st.integers(2, 6 // block))
    pair = st.tuples(st.integers(1, wires), st.integers(1, wires)).filter(lambda p: p[0] != p[1])
    cnots = data.draw(st.lists(pair, max_size=6))
    s = random_state(wires * block, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
    got = apply_cnots(s, cnots, block)
    assert np.array_equal(got.amplitudes, reference_cnots(s, cnots, block))


def cnot_shapes(wires, order):
    """CNOT lists of each shape the span gather must get right, on the
    wires of one register, with order a permutation of 1..wires. The
    span of "apart" and "every" is the whole register, "trailing" has
    untouched blocks before it only, and "middle" (4 or more wires) on
    both sides."""
    a, b = order[0], order[1]
    every = [(order[c], order[c + 1]) for c in range(0, wires - 1, 2)] + [(order[-1], order[0])]
    shapes = {
        "pair": [(a, b)],
        "apart": [(1, wires)],
        "trailing": [(wires - 1, wires)],
        "every": every,
        "chain": list(zip(order, order[1:])),
        "back and forth": [(a, b), (b, a), (a, b)],
    }
    if wires >= 4:
        shapes["middle"] = [(2, wires - 1)]
    return shapes


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_apply_cnots_matches_the_full_gather_on_wide_states(data):
    """On up to 20 qubits in blocks of 1 to 5, CNOT lists that touch one
    pair, two blocks far apart, the trailing blocks only, every block, or
    a chain whose targets later control give the full-index gather's
    amplitudes bit for bit."""
    block = data.draw(st.integers(1, 5))
    wires = data.draw(st.integers(2, 20 // block))
    order = data.draw(st.permutations(range(1, wires + 1)))
    shapes = cnot_shapes(wires, order)
    cnots = shapes[data.draw(st.sampled_from(sorted(shapes)))]
    s = random_state(wires * block, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
    got = apply_cnots(s, cnots, block)
    assert np.array_equal(got.amplitudes, reference_gather(s, cnots, block))


@pytest.mark.parametrize(
    "cnots",
    [[(1, 2), (3, 2)], [(2, 3)], [(1, 4)], [(3, 4)], [(1, 2), (3, 4)], [(1, 2), (2, 3), (3, 4)]],
)
def test_apply_cnots_on_the_physical_register(cnots):
    """Four blocks of 5 qubits, the encoded README register at security
    2: the layer it runs and the other touched patterns."""
    s = random_state(20, np.random.default_rng(len(cnots)))
    assert np.array_equal(apply_cnots(s, cnots, 5).amplitudes, reference_gather(s, cnots, 5))


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_apply_gate_matches_the_reference(data):
    """A one-qubit gate on a random qubit of a random state gives the
    reference's amplitudes bit for bit."""
    n = data.draw(st.integers(1, 10))
    gate = data.draw(st.sampled_from(["H", "T", "X", "Z"]))
    q = data.draw(st.integers(1, n))
    s = random_state(n, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
    want = reference_gate(s, {"H": H, "T": T, "X": X, "Z": Z}[gate], q)
    assert np.array_equal(apply_gate(s, gate, (q,)).amplitudes, want)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_apply_encoding_isometry_matches_the_reference(data):
    """Encoding a random qubit under a random key's space, delta and
    (optionally) one wire's masks gives the reference's amplitudes bit
    for bit."""
    security = data.draw(st.sampled_from([1, 2]))
    n = data.draw(st.integers(1, 8 - 2 * security))
    q = data.draw(st.integers(1, n))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    key = gen(security, n, rng)
    s = random_state(n, rng)
    if data.draw(st.booleans()):
        x, z = key.x_masks[q - 1], key.z_masks[q - 1]
        got = apply_encoding_isometry(s, q, key.space, key.delta, x, z)
    else:
        x = z = BitVector.zeros(key.code_length)
        got = apply_encoding_isometry(s, q, key.space, key.delta)
    want = reference_isometry(s, q, key.space, key.delta, x, z)
    assert np.array_equal(got.amplitudes, want)


def test_apply_cnots_errors():
    s = StateVector.zero(4)
    bad = [
        ([(2, 2)], 1),  # control is target
        ([(0, 1)], 1),  # wire below 1
        ([(1, 5)], 1),  # wire above the qubit count
        ([(1, 3)], 2),  # wire above the block count
        ([(1, 2)], 3),  # 4 qubits are not whole blocks of 3
        ([], 3),  # the same, with no CNOT at all
    ]
    for cnots, block in bad:
        with pytest.raises(ValueError):
            apply_cnots(s, cnots, block)


def _consuming_case(seed):
    """A random state, basis tags, a random subset of the measured qubits
    to consume, labels that fix those qubits (their bits in place, above
    the parity of the whole read), and the consumed bits of a label."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    basis = tuple(str(b) if b != "-" else None for b in rng.choice(["Z", "X", "-"], size=n))
    measured = [q for q in range(1, n + 1) if basis[q - 1] is not None]
    size = int(rng.integers(0, len(measured) + 1))
    consumed = tuple(sorted(int(q) for q in rng.choice(measured, size=size, replace=False)))
    shifts = [len(measured) - 1 - measured.index(q) for q in consumed]
    mask = sum(1 << b for b in shifts)

    def labels(rows):
        return (rows & mask) << 1 | row_parity(rows)

    def fixed(code):
        return [code >> 1 >> b & 1 for b in shifts]

    return random_state(n, rng), basis, consumed, labels, fixed


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_consumed_qubits_are_sliced_at_their_read_bits(seed):
    """Every branch, and the sampled outcome, of a measurement that
    consumes qubits equals the same measurement without consumption
    followed by the reference slicing of those qubits."""
    s, basis, consumed, labels, fixed = _consuming_case(seed)
    plain = measure_branches(s, MeasurementSpec(basis, labels))
    eaten = measure_branches(s, MeasurementSpec(basis, labels, consumed))
    assert [(lab, p) for lab, p, _ in eaten] == [(lab, p) for lab, p, _ in plain]
    for (label, _, post), (_, _, got) in zip(plain, eaten):
        assert got.num_qubits == s.num_qubits - len(consumed)
        assert state_distance(got, reference_consume(post, basis, consumed, fixed(label))) < 1e-12
    r_plain = measure(s, MeasurementSpec(basis, labels), np.random.default_rng(seed))
    r_eaten = measure(s, MeasurementSpec(basis, labels, consumed), np.random.default_rng(seed))
    assert (r_eaten.outcome, r_eaten.raw_bits) == (r_plain.outcome, r_plain.raw_bits)
    want = reference_consume(r_plain.post_state, basis, consumed, fixed(r_plain.outcome))
    assert state_distance(r_eaten.post_state, want) < 1e-12


def test_consumed_bell_half_leaves_its_partner():
    spec = MeasurementSpec(("Z", "Z"), None, (1,))
    branches = measure_branches(bell(), spec)
    assert [lab for lab, _, _ in branches] == [0b00, 0b11]
    for code, _, post in branches:
        assert state_distance(post, StateVector.basis(BitVector((code & 1,)))) <= 1e-12


def test_consumed_qubit_must_be_fixed_and_measured():
    rng = np.random.default_rng(0)
    unfixed = MeasurementSpec(("Z", "Z"), row_parity, (1,))  # class 0 holds 00 and 11
    unmeasured = MeasurementSpec(("Z", None), None, (2,))
    outside = MeasurementSpec(("Z", "Z"), None, (3,))
    for spec in (unfixed, unmeasured, outside):
        with pytest.raises(ValueError, match="consumed"):
            measure_branches(bell(), spec)
        with pytest.raises(ValueError, match="consumed"):
            measure(bell(), spec, rng)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_packed_grouping_matches_the_reference(data):
    """Grouping packed label codes with one stable argsort and
    np.bincount, and collapsing into a block of the surviving qubits
    only, gives the reference's classes in the same order, the same
    probabilities and bit-identical post states; with equal seeds,
    measure draws what the reference draws."""
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n = data.draw(st.integers(1, 6))
    basis = tuple(data.draw(st.lists(st.sampled_from(["Z", "X", None]), min_size=n, max_size=n)))
    measured = [q for q in range(1, n + 1) if basis[q - 1] is not None]
    consumed = tuple(sorted(data.draw(st.sets(st.sampled_from(measured)))) if measured else ())
    k = len(measured)
    mask = sum(1 << k - 1 - measured.index(q) for q in consumed)
    # Random codes above the consumed bits, so that every label fixes
    # them; BOT (-1) only where nothing is consumed.
    table = rng.integers(0 if consumed else -1, 3, size=2**k)
    outcome_fn = data.draw(st.sampled_from([None, lambda rows: (rows & mask) << 2 | table[rows]]))
    state = random_state(n, rng)
    spec = MeasurementSpec(basis, outcome_fn, consumed)
    got = measure_branches(state, spec)
    want = reference_measure_branches(state, spec)
    assert [lab for lab, _, _ in got] == [lab for lab, _, _ in want]
    for (_, p, post), (_, q, ref) in zip(got, want):
        assert abs(p - q) <= 1e-12
        assert np.array_equal(post.amplitudes, ref.amplitudes)
    r = measure(state, spec, np.random.default_rng(seed))
    label, raw, post = reference_measure(state, spec, np.random.default_rng(seed))
    assert (r.outcome, r.raw_bits) == (label, raw)
    assert np.array_equal(r.post_state.amplitudes, post.amplitudes)


def sparse_state(n, rng, dense=False):
    """A random normalized state on n qubits: every amplitude nonzero,
    or (dense False) a random 1 to 2^n of them."""
    size = 2**n if dense else int(rng.integers(1, 2**n + 1))
    amps = np.zeros(2**n, dtype=np.complex128)
    at = rng.choice(2**n, size=size, replace=False)
    amps[at] = rng.normal(size=size) + 1j * rng.normal(size=size)
    return StateVector(n, amps / np.linalg.norm(amps))


def assert_well_formed(state):
    """A strictly ascending support inside the register, and norm 1
    within 1e-9, taken over the stored values alone."""
    support = state.support
    assert support.dtype == np.int64 and len(support) == len(state.values)
    assert np.all(np.diff(support) > 0)
    assert len(support) == 0 or 0 <= support[0] and support[-1] < 2**state.num_qubits
    assert abs(np.linalg.norm(state.values) - 1.0) <= 1e-9


@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=1, max_size=64).filter(any),
)
@settings(max_examples=300, deadline=None)
def test_draw_is_generator_choice(seed, weights):
    """_draw returns the index rng.choice(len(w), p=w / w.sum()) returns
    and leaves the generator in the same state."""
    w = np.array(weights)
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    assert sim._draw(rng, w) == int(ref.choice(len(w), p=w / w.sum()))
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("weights", [[], [0.5, np.nan], [0.0, 0.0]])
def test_draw_refuses_what_choice_refuses(weights):
    w = np.array(weights, dtype=float)
    rng = np.random.default_rng(0)
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError):
            rng.choice(len(w), p=w / w.sum())
        with pytest.raises(ValueError):
            sim._draw(rng, w)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_every_kernel_keeps_the_norm_and_the_dense_amplitudes(data):
    """On random sparse and dense inputs, every kernel returns a sorted
    support with norm 1 within 1e-9 (the kernels do not check it), and
    amplitudes equal to the dense references bit for bit."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    dense = data.draw(st.booleans())
    n = data.draw(st.integers(1, 7))
    s = sparse_state(n, rng, dense)
    q = int(rng.integers(1, n + 1))
    outs = []
    for gate, matrix in (("H", H), ("T", T), ("X", X), ("Z", Z)):
        got = apply_gate(s, gate, (q,))
        assert np.array_equal(got.amplitudes, reference_gate(s, matrix, q))
        outs.append(got)
    if n >= 2:
        cnots = [tuple(int(w) + 1 for w in rng.choice(n, 2, replace=False)) for _ in range(3)]
        got = apply_cnots(s, cnots)
        assert np.array_equal(got.amplitudes, reference_gather(s, cnots))
        outs.append(got)
        order = [int(w) for w in rng.permutation(n)]
        got = permute_blocks(s, order, 1)
        want = s.amplitudes.reshape((2,) * n).transpose(order).reshape(-1)
        assert np.array_equal(got.amplitudes, want)
        outs.append(got)
    x, z = (BitVector.from_ints(rng.integers(0, 2, size=n)) for _ in range(2))
    outs.append(apply_pauli_mask(s, x, z))
    if n <= 4:
        key = gen(1, n, rng)
        x, z = key.x_masks[q - 1], key.z_masks[q - 1]
        got = apply_encoding_isometry(s, q, key.space, key.delta, x, z)
        assert np.array_equal(got.amplitudes, reference_isometry(s, q, key.space, key.delta, x, z))
        outs.append(got)
    other = sparse_state(int(rng.integers(1, 4)), rng, data.draw(st.booleans()))
    got = tensor(s, other)
    assert np.array_equal(got.amplitudes, np.kron(s.amplitudes, other.amplitudes))
    outs.append(got)
    basis = tuple(data.draw(st.lists(st.sampled_from(["Z", "X", None]), min_size=n, max_size=n)))
    spec = MeasurementSpec(basis, row_parity if data.draw(st.booleans()) else None)
    branches = measure_branches(s, spec)
    for (code, p, post), (label, q_, ref) in zip(branches, reference_measure_branches(s, spec)):
        assert code == label and abs(p - q_) <= 1e-12
        assert np.array_equal(post.amplitudes, ref.amplitudes)
    outs.extend(post for _, _, post in branches)
    outs.append(measure(s, spec, rng).post_state)
    for out in outs:
        assert_well_formed(out)


def test_kernels_take_states_past_the_qubit_cap():
    """The kernels cap nonzero amplitudes, not qubits: a 30-qubit state
    with two nonzero amplitudes goes through a gate, a CNOT layer and a
    measurement; only its dense view refuses."""
    wide = tensor(StateVector.zero(sim.QUBIT_CAP), StateVector.zero(6))
    bell = apply_cnots(apply_gate(wide, "H", (1,)), [(1, 30)])
    assert bell.support.tolist() == [0, 2**29 + 1]
    branches = measure_branches(bell, MeasurementSpec(("Z",) + (None,) * 29))
    assert [(code, post.support.tolist()) for code, _, post in branches] == [
        (0, [0]),
        (1, [2**29 + 1]),
    ]
    with pytest.raises(QubitCapError):
        bell.amplitudes


def test_dense_view_past_the_cap_raises_without_allocating():
    """.amplitudes of a 25-qubit state (512 MiB dense) raises
    QubitCapError before it allocates anything."""
    wide = tensor(StateVector.zero(sim.QUBIT_CAP), StateVector.zero(1))
    assert wide.num_qubits == sim.QUBIT_CAP + 1
    tracemalloc.start()
    try:
        with pytest.raises(QubitCapError):
            wide.amplitudes
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_kernels_cap_nonzero_amplitudes():
    """A tensor product with more than 2^QUBIT_CAP nonzero amplitudes is
    refused before it is built."""
    plus = apply_gate(StateVector.zero(1), "H", (1,))
    wide = plus
    for _ in range(sim.QUBIT_CAP // 2):
        wide = tensor(wide, plus)
    assert len(wide.support) == 2 ** (sim.QUBIT_CAP // 2 + 1)
    tracemalloc.start()
    try:
        with pytest.raises(QubitCapError, match="amplitudes exceeds cap of 2"):
            tensor(wide, wide)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
