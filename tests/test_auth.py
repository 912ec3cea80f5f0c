import dataclasses
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    logical_measure,
    logical_measure_branches,
    reference_dec,
    reference_enc,
    reference_gen,
)
from lmobf.auth import (
    BOT,
    AuthKey,
    dec,
    dec_words,
    enc,
    gen,
    honest_codeword,
    key_from_text,
    key_to_text,
    lin_eval,
    pauli_matrix,
    pauli_update,
    ver,
    verify_pauli_twirl,
    wire_reads,
)
from lmobf.gf2 import BitVector, Subspace, canonical_delta_hat, concat, dual, split
from lmobf.lm import FnBuilder
from lmobf.sim import (
    MeasurementSpec,
    StateVector,
    apply_gate,
    apply_pauli_mask,
    measure_branches,
    prepare_subspace_state,
    state_distance,
)


def bv(s: str) -> BitVector:
    return BitVector.from_string(s)


def random_state(num_qubits: int, rng: np.random.Generator) -> StateVector:
    amps = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return StateVector(num_qubits, amps / np.linalg.norm(amps))


def hadamard_matrix(p: int) -> np.ndarray:
    idx = np.arange(2**p)
    par = idx[:, None] & idx[None, :]
    for shift in (16, 8, 4, 2, 1):
        par = par ^ (par >> shift)
    return (1.0 - 2.0 * (par & 1)) / np.sqrt(2.0**p)


def encoding_matrix(space: Subspace, delta: BitVector) -> np.ndarray:
    return np.stack(
        [prepare_subspace_state(space).amplitudes, prepare_subspace_state(space, delta).amplitudes],
        axis=1,
    )


# --- key generation and serialization ---------------------------------------


def test_gen_structure():
    rng = np.random.default_rng(0)
    key = gen(1, 1, rng)
    assert key.code_length == 3
    assert key.space.dim == 1
    assert not key.space.contains(key.delta)
    assert len(key.x_masks) == 1 and len(key.x_masks[0]) == 3


def test_gen_derived_fields():
    rng = np.random.default_rng(1)
    for lam in (1, 2):
        key = gen(lam, 2, rng)
        s_delta = Subspace.span(
            key.code_length, list(key.space.basis) + [key.delta]
        )
        assert key.accept_space_z == s_delta
        assert key.hat_space == dual(s_delta)
        assert key.hat_space.dim == lam
        assert key.accept_space_x == dual(key.space)
        assert key.hat_delta == canonical_delta_hat(key.space, key.delta)
        assert not key.hat_space.contains(key.hat_delta)


def test_replaced_key_derives_its_dual_code():
    """A key built with another delta works out its dual code and
    accepted spaces afresh; none of them can be passed in."""
    for lam in (1, 2):
        key = gen(lam, 2, np.random.default_rng(lam))
        p = key.code_length
        d = next(v for v in _all_vectors(p) if not key.accept_space_z.contains(v))
        moved = dataclasses.replace(key, delta=d)
        accept_z = Subspace.span(p, list(key.space.basis) + [d])
        assert moved.accept_space_z == accept_z
        assert moved.hat_space == dual(accept_z)
        assert moved.accept_space_x == dual(key.space)
        assert moved.hat_delta == canonical_delta_hat(key.space, d)
        with pytest.raises(TypeError):
            AuthKey(lam, 2, key.space, key.delta, key.x_masks, key.z_masks, hat_space=key.hat_space)


def test_key_text_roundtrip():
    rng = np.random.default_rng(2)
    key = gen(2, 2, rng)
    text = key_to_text(key)
    back = key_from_text(text)
    assert back == key
    assert key_to_text(back) == text


def test_gen_rejects_bad_parameters():
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError):
        gen(0, 1, rng)
    with pytest.raises(ValueError):
        gen(1, 0, rng)


# --- encoding ----------------------------------------------------------------


def zero_mask_key(key: AuthKey) -> AuthKey:
    p = key.code_length
    zeros = tuple(BitVector.zeros(p) for _ in range(key.num_wires))
    return dataclasses.replace(key, x_masks=zeros, z_masks=zeros)


def test_enc_zero_is_subspace_state():
    rng = np.random.default_rng(4)
    key = zero_mask_key(gen(1, 1, rng))
    got = enc(key, StateVector.zero(1))
    assert state_distance(got, prepare_subspace_state(key.space)) < 1e-12


def test_enc_one_with_x_mask():
    rng = np.random.default_rng(5)
    key = zero_mask_key(gen(1, 1, rng))
    e = bv("101")
    key = dataclasses.replace(key, x_masks=(e,))
    got = enc(key, StateVector.basis(bv("1")))
    want = prepare_subspace_state(key.space, key.delta ^ e)
    assert state_distance(got, want) < 1e-12


def test_enc_preserves_inner_products():
    rng = np.random.default_rng(6)
    key = gen(1, 2, rng)
    for _ in range(5):
        a, b = random_state(2, rng), random_state(2, rng)
        want = np.vdot(a.amplitudes, b.amplitudes)
        got = np.vdot(enc(key, a).amplitudes, enc(key, b).amplitudes)
        assert abs(want - got) < 1e-12


@given(st.integers(1, 2), st.integers(1, 3), st.booleans(), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_enc_masks_columns_exactly_as_whole_state_mask(security, wires, sparse, seed):
    """Masking each wire's two isometry columns gives exactly the
    amplitudes of masking the whole encoded state afterwards, on dense
    states and on states with zero amplitudes."""
    rng = np.random.default_rng(seed)
    key = gen(security, wires, rng)
    amps = random_state(wires, rng).amplitudes
    if sparse:  # keep one amplitude, zero each of the others with probability 1/2
        keep = np.arange(2**wires) == rng.integers(2**wires)
        amps = amps * (keep | rng.integers(0, 2, 2**wires).astype(bool))
    state = StateVector(wires, amps / np.linalg.norm(amps))
    assert np.array_equal(enc(key, state).amplitudes, reference_enc(key, state).amplitudes)


def test_hadamard_swaps_code_and_dual():
    # H^p against the two encoding isometries, both security levels
    rng = np.random.default_rng(7)
    for lam in (1, 2):
        for _ in range(5):
            key = gen(lam, 1, rng)
            p = key.code_length
            lhs = hadamard_matrix(p) @ encoding_matrix(key.hat_space, key.hat_delta)
            rhs = encoding_matrix(key.space, key.delta) @ hadamard_matrix(1)
            assert np.max(np.abs(lhs - rhs)) < 1e-12


# --- transversal CNOTs -------------------------------------------------------


def test_lin_eval_empty_and_involution():
    rng = np.random.default_rng(8)
    key = gen(1, 2, rng)
    state = enc(key, random_state(2, rng))
    assert state_distance(lin_eval([], state, 3), state) < 1e-12
    twice = lin_eval([(1, 2), (1, 2)], state, 3)
    assert state_distance(twice, state) < 1e-12


def test_lin_eval_matches_reencoding():
    rng = np.random.default_rng(9)
    for cnots in ([(1, 2)], [(2, 1)], [(1, 2), (2, 1)]):
        key = gen(1, 2, rng)
        logical = random_state(2, rng)
        lhs = lin_eval(cnots, enc(key, logical), key.code_length)
        xs, zs = pauli_update(cnots, key.x_masks, key.z_masks)
        moved_key = dataclasses.replace(key, x_masks=xs, z_masks=zs)
        moved_logical = logical
        for c, t in cnots:
            moved_logical = apply_gate(moved_logical, "CNOT", (c, t))
        assert state_distance(lhs, enc(moved_key, moved_logical)) < 1e-12


def test_pauli_update_rule():
    a, b, c, d = bv("100"), bv("010"), bv("001"), bv("111")
    xs, zs = pauli_update([(1, 2)], (a, b), (c, d))
    assert xs == (a, a ^ b)
    assert zs == (c ^ d, d)
    assert pauli_update([], (a, b), (c, d)) == ((a, b), (c, d))


def test_pauli_update_reversal():
    rng = np.random.default_rng(10)
    xs = tuple(BitVector.from_ints(rng.integers(0, 2, 3)) for _ in range(3))
    zs = tuple(BitVector.from_ints(rng.integers(0, 2, 3)) for _ in range(3))
    cnots = [tuple(int(w) + 1 for w in rng.choice(3, 2, replace=False)) for _ in range(10)]
    fwd = pauli_update(cnots, xs, zs)
    assert pauli_update(list(reversed(cnots)), *fwd) == (xs, zs)


# --- decode / verify ---------------------------------------------------------


def test_dec_examples():
    rng = np.random.default_rng(11)
    key = gen(1, 1, rng)
    z_reads = wire_reads(key, [], (0,))
    x_reads = wire_reads(key, [], (1,))
    assert dec(z_reads, (key.x_masks[0],)) == bv("0")
    assert dec(x_reads, (key.hat_delta ^ key.z_masks[0],)) == bv("1")
    outside = next(
        v
        for v in _all_vectors(3)
        if not key.accept_space_z.contains(v ^ key.x_masks[0])
    )
    assert dec(z_reads, (outside,)) is None


def _all_vectors(p: int):
    for i in range(2**p):
        yield BitVector(tuple((i >> (p - 1 - j)) & 1 for j in range(p)))


def test_dec_iff_ver_exhaustive():
    rng = np.random.default_rng(12)
    key = gen(1, 1, rng)
    for theta in ((0,), (1,)):
        reads = wire_reads(key, [], theta)
        for v in _all_vectors(3):
            assert (dec(reads, (v,)) is not None) == ver(key, reads, (v,))
    key2 = gen(1, 2, rng)
    reads2 = wire_reads(key2, [], (0, 1))
    for v in _all_vectors(3):
        for w in _all_vectors(3):
            both = (v, w)
            assert (dec(reads2, both) is not None) == ver(key2, reads2, both)


def test_honest_codewords_verify_and_decode():
    rng = np.random.default_rng(13)
    key = gen(2, 2, rng)
    reads = wire_reads(key, [], (0, 1))
    for bits in ((0, 0), (0, 1), (1, 0), (1, 1)):
        c = tuple(honest_codeword(reads[i], bits[i], rng) for i in range(2))
        assert ver(key, reads, c)
        assert dec(reads, c) == BitVector(bits)


def test_deterministic_rejection_of_nonspace_flips():
    rng = np.random.default_rng(14)
    key = gen(1, 1, rng)
    reads = wire_reads(key, [], (0,))
    honest = [v ^ key.x_masks[0] for v in key.accept_space_z.elements()]
    flips = [e for e in _all_vectors(3) if not key.accept_space_z.contains(e)]
    assert flips
    for c in honest:
        assert ver(key, reads, (c,))
        for e in flips:
            assert not ver(key, reads, (c ^ e,))


def test_space_flips_preserve_decoding():
    rng = np.random.default_rng(15)
    key = gen(1, 1, rng)
    reads = wire_reads(key, [], (0,))
    for bit in (0, 1):
        c = honest_codeword(reads[0], bit, rng)
        for e in key.space.elements():
            assert dec(reads, (c ^ e,)) == dec(reads, (c,))


def test_dec_batch_matches_scalar():
    """dec_words on an int64 array of packed rows equals it on each row's
    int, element by element, and dec is the same decode on the split row."""
    rng = np.random.default_rng(16)
    key = gen(1, 2, rng)
    reads = wire_reads(key, [(1, 2)], (0, 1))
    rows = rng.integers(0, 2**6, size=64, dtype=np.int64)
    batch = dec_words(reads, rows)
    for row, got in zip(rows.tolist(), batch.tolist()):
        assert got == dec_words(reads, row)
        want = dec(reads, split(BitVector.from_int(row, 6), 2, 3))
        assert got == (BOT if want is None else want.value)
    assert BOT in batch and (batch != BOT).any()


@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2]), st.integers(1, 4))
@settings(max_examples=80, deadline=None)
def test_dec_words_matches_the_reference(seed, security, num_wires):
    """dec_words on the reads of wire_reads equals the decode that pushed
    the masks through the CNOTs on every call (helpers.reference_dec),
    exactly: random keys, CNOT lists and thetas with skipped wires, on
    int words and on int64 row arrays of random and honest words."""
    rng = np.random.default_rng(seed)
    key = gen(security, num_wires, rng)
    cnots = [
        tuple(int(w) + 1 for w in rng.choice(num_wires, 2, replace=False))
        for _ in range(rng.integers(5) if num_wires > 1 else 0)
    ]
    theta = tuple(None if b == 2 else int(b) for b in rng.integers(0, 3, num_wires))
    reads = wire_reads(key, cnots, theta)
    assert [r.wire for r in reads] == [w for w, b in enumerate(theta, start=1) if b is not None]
    honest = [
        concat(honest_codeword(r, int(rng.integers(2)), rng) for r in reads).value
        for _ in range(8)
    ]
    width = len(reads) * key.code_length
    rows = np.array(rng.integers(0, 2**width, size=24).tolist() + honest, dtype=np.int64)
    got = dec_words(reads, rows)
    assert got.dtype == np.int64
    assert np.array_equal(got, reference_dec(key, cnots, theta, rows))
    assert (got[-8:] != BOT).all()
    for row in rows.tolist():
        assert dec_words(reads, row) == reference_dec(key, cnots, theta, row)


# --- authenticated measurement ----------------------------------------------


def test_honest_state_never_rejects():
    rng = np.random.default_rng(17)
    for theta in ((0, 1), (0, None), (1, 1), (None, None)):
        key = gen(1, 2, rng)
        reads = wire_reads(key, [(1, 2)], theta)
        state = lin_eval([(1, 2)], enc(key, random_state(2, rng)), key.code_length)
        branches = logical_measure_branches(key, reads, None, state)
        assert all(label != BOT for label, _, _ in branches)
        assert abs(sum(p for _, p, _ in branches) - 1.0) < 1e-9


def test_all_skip_measurement_is_trivial():
    rng = np.random.default_rng(18)
    key = gen(1, 1, rng)
    reads = wire_reads(key, [], (None,))
    state = enc(key, random_state(1, rng))
    outcome, raw, post = logical_measure(key, reads, None, state, rng)
    assert outcome == 0  # the code of the empty label
    assert raw == ()
    assert state_distance(post, state) < 1e-12


def test_raw_codewords_decode_to_outcome():
    rng = np.random.default_rng(19)
    key = gen(1, 2, rng)
    reads = wire_reads(key, [], (0, 1))
    state = enc(key, random_state(2, rng))
    for _ in range(10):
        outcome, raw, _ = logical_measure(key, reads, None, state, rng)
        assert dec(reads, raw) == BitVector.from_int(outcome, 2)


def random_label_fn(phi: tuple[int, ...], rng: np.random.Generator):
    b = FnBuilder()
    nodes = [b.inp(f"m{i}") for i in phi]
    for _ in range(4):
        i, j = rng.integers(len(nodes), size=2)
        nodes.append(b.xor(nodes[i], nodes[j]) if rng.integers(2) else b.and_(nodes[i], nodes[j]))
    return b.extract([("o1", nodes[-1]), ("o2", nodes[rng.integers(len(nodes))])])


def test_measurement_commutes_with_encoding():
    # same channel whether measuring the code or the plain state
    rng = np.random.default_rng(20)
    for trial in range(10):
        key = gen(1, 2, rng)
        logical = random_state(2, rng)
        cnots = [tuple(int(w) + 1 for w in rng.choice(2, 2, replace=False)) for _ in range(rng.integers(3))]
        theta = tuple(rng.choice([0, 1, None]) for _ in range(2))
        theta = tuple(None if v is None else int(v) for v in theta)
        reads = wire_reads(key, cnots, theta)
        phi = tuple(r.wire for r in reads)
        fn = random_label_fn(phi, rng) if phi and trial % 2 else None

        moved = logical
        for c, t in cnots:
            moved = apply_gate(moved, "CNOT", (c, t))
        logical_spec = MeasurementSpec(
            tuple(None if v is None else ("Z", "X")[v] for v in theta),
            _label_with(fn, phi),
        )
        reference = {}
        for label, prob, post in measure_branches(moved, logical_spec):
            undone = post
            for c, t in reversed(cnots):
                undone = apply_gate(undone, "CNOT", (c, t))
            reference[label] = (prob, enc(key, undone))

        physical = lin_eval(cnots, enc(key, logical), key.code_length)
        branches = logical_measure_branches(key, reads, fn, physical)
        assert set(lab for lab, _, _ in branches) == set(reference)
        for label, prob, post in branches:
            want_prob, want_state = reference[label]
            assert abs(prob - want_prob) < 1e-9
            undone = post
            for c, t in reversed(cnots):
                undone = lin_eval([(c, t)], undone, key.code_length)
            assert state_distance(undone, want_state) < 1e-9


def _label_with(fn, phi):
    if fn is None:
        return None
    from lmobf.lm import fn_code

    def outcome_fn(rows):
        top = len(phi) - 1
        binds = {name: rows >> top - phi.index(int(name[1:])) & 1 for name in fn.input_names}
        return fn_code(fn, binds, rows)

    return outcome_fn


def test_z_phase_attack_invisible_to_z_reads():
    rng = np.random.default_rng(21)
    key = gen(1, 1, rng)
    reads = wire_reads(key, [], (0,))
    state = enc(key, random_state(1, rng))
    for _ in range(5):
        e = BitVector.from_ints(rng.integers(0, 2, 3))
        attacked = apply_pauli_mask(state, BitVector.zeros(3), e)
        a = {lab: p for lab, p, _ in logical_measure_branches(key, reads, None, state)}
        b = {lab: p for lab, p, _ in logical_measure_branches(key, reads, None, attacked)}
        assert set(a) == set(b)
        assert all(abs(a[k] - b[k]) < 1e-9 for k in a)


def test_x_attack_outside_code_rejects_whole_state():
    rng = np.random.default_rng(22)
    key = gen(1, 1, rng)
    reads = wire_reads(key, [], (0,))
    state = enc(key, random_state(1, rng))
    e = next(v for v in _all_vectors(3) if not key.accept_space_z.contains(v))
    attacked = apply_pauli_mask(state, e, BitVector.zeros(3))
    branches = logical_measure_branches(key, reads, None, attacked)
    assert [lab for lab, _, _ in branches] == [BOT]
    assert abs(branches[0][1] - 1.0) < 1e-12


# --- pauli matrices and the twirl check --------------------------------------


def test_pauli_matrix_against_kron():
    single = {
        "I": np.eye(2),
        "X": np.array([[0, 1], [1, 0]], dtype=float),
        "Z": np.array([[1, 0], [0, -1]], dtype=float),
    }
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        x = BitVector.from_ints(rng.integers(0, 2, n))
        z = BitVector.from_ints(rng.integers(0, 2, n))
        want_xz = np.eye(1)
        want_zx = np.eye(1)
        for q in range(n):
            fx = single["X"] if x[q + 1] else single["I"]
            fz = single["Z"] if z[q + 1] else single["I"]
            want_xz = np.kron(want_xz, fx @ fz)
            want_zx = np.kron(want_zx, fz @ fx)
        assert np.array_equal(pauli_matrix(x, z), want_xz)
        assert np.array_equal(pauli_matrix(x, z, z_first=True), want_zx)


def random_density(n: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def twirl_instance(rng: np.random.Generator, ambient: int = 3):
    from lmobf.gf2 import sample_subspace

    space_r = sample_subspace(ambient, 1, rng)
    space_r_hat = sample_subspace(ambient, 1, rng)
    while True:
        delta = BitVector.from_ints(rng.integers(0, 2, ambient))
        if not space_r.contains(delta):
            break
    while True:
        delta_hat = BitVector.from_ints(rng.integers(0, 2, ambient))
        if not space_r_hat.contains(delta_hat):
            break
    while True:
        masks = [BitVector.from_ints(rng.integers(0, 2, ambient)) for _ in range(4)]
        x0, z0, x1, z1 = masks
        if not dual(space_r_hat).contains(x0 ^ x1) or not dual(space_r).contains(z0 ^ z1):
            return space_r, space_r_hat, delta, delta_hat, x0, z0, x1, z1


def test_twirl_vanishes_on_valid_instances():
    rng = np.random.default_rng(24)
    for _ in range(10):
        inst = twirl_instance(rng)
        rho = random_density(3, rng)
        assert verify_pauli_twirl(*inst, rho) < 1e-12


def test_twirl_nonzero_when_masks_collide():
    rng = np.random.default_rng(25)
    space_r, space_r_hat, delta, delta_hat, x0, z0, _, _ = twirl_instance(rng)
    rho = random_density(3, rng)
    got = verify_pauli_twirl(space_r, space_r_hat, delta, delta_hat, x0, z0, x0, z0, rho)
    assert got > 1e-6


def test_twirl_zero_state_and_bad_shifts():
    rng = np.random.default_rng(26)
    space_r, space_r_hat, delta, delta_hat, x0, z0, x1, z1 = twirl_instance(rng)
    zero = np.zeros((8, 8), dtype=np.complex128)
    assert verify_pauli_twirl(space_r, space_r_hat, delta, delta_hat, x0, z0, x1, z1, zero) == 0.0
    inside = space_r.basis[0]
    with pytest.raises(ValueError):
        verify_pauli_twirl(space_r, space_r_hat, inside, delta_hat, x0, z0, x1, z1, zero)


@pytest.mark.parametrize("module", ["lmobf.auth", "lmobf.tokens"])
def test_scheme_modules_load_no_program_model(module):
    """The authentication scheme and the tokens stand on gf2 and sim
    alone: importing either, in a fresh interpreter, loads no lmobf.lm."""
    probe = f"import sys, {module}; print('lmobf.lm' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120
    )
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


@pytest.mark.parametrize("security", [1, 2, 3, 4, 31, 32, 33])
def test_gen_draws_the_per_mask_stream(security):
    """gen's one call for every mask gives the key and the generator
    state of one call per mask: a bounded draw of range 2 takes one
    32-bit word per bit. Security 32 and 33 give masks wider than an
    int64."""
    for wires in range(1, 41):
        rng = np.random.default_rng((security, wires))
        ref = np.random.default_rng((security, wires))
        assert gen(security, wires, rng) == reference_gen(security, wires, ref)
        assert rng.bit_generator.state == ref.bit_generator.state
