"""An obfuscation's key material and the encoding isometry: pinned keys,
the subspace sampler's RNG stream, the public subspace check, and the
isometry against its dense reference on wider codes."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import reference_enc, reference_isometry, reference_sample_subspace
from lmobf.auth import enc, gen, key_to_text
from lmobf.gf2 import BitVector, Subspace, canonical_delta_hat, rref, sample_subspace
from lmobf.lm import compile_circuit, parse_circuit
from lmobf.obf import ObfParams, qobf
from lmobf.sim import StateVector, apply_encoding_isometry, encode_qubits
from lmobf.tokens import tok_sign, vk_to_text

README_CIRCUIT = "qubits 2 inputs 2 outputs 1,2\nCNOT 1 2\nT 2\n"

# One sha256 over the key material of seeded obfuscations of the README
# circuit at lambda 1, 2, 3, 5, 31, 32, 33 and kappa' 1, 4, 12, 13, 16.
KEY_MATERIAL_SHA256 = "595336ba1c4e2cf05d5bdf670d1059c32d478acba79e9efd725bdc765ac92b71"


def random_state(n, rng):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return StateVector(n, amps / np.linalg.norm(amps))


def test_key_material_is_pinned():
    """Per (lambda, kappa'): the authentication key's text, the token
    verification key's text, the signature of the all-ones input and the
    generator's next draw. Masks past 64 bits (lambda 32, 33) and both
    ways a register read draws (kappa' 12 and 13) are covered."""
    program = compile_circuit(parse_circuit(README_CIRCUIT))
    ones = BitVector.from_int(3, 2)
    digest = hashlib.sha256()
    for security in (1, 2, 3, 5, 31, 32, 33):
        for token_dim in (1, 4, 12, 13, 16):
            rng = np.random.default_rng((security, token_dim))
            handle = qobf(ObfParams(security=security, token_dim=token_dim), program, rng)
            signature = tok_sign(ones, handle.token, rng)
            parts = (
                key_to_text(handle.key.auth_key),
                vk_to_text(token_dim, handle.key.token_vk),
                " ".join(map(str, signature)),
                str(rng.integers(2**62)),
            )
            for part in parts:
                digest.update(part.encode() + b"\n")
    assert digest.hexdigest() == KEY_MATERIAL_SHA256


def test_sample_subspace_keeps_its_stream():
    """The same subspace and the same next draw as the per-row
    reference, at every dim of ambient spaces 1 to 70 (past one 64-bit
    word), for several seeds."""
    for seed in range(3):
        for ambient in range(1, 71):
            for dim in range(ambient + 1):
                a = np.random.default_rng((seed, ambient, dim))
                b = np.random.default_rng((seed, ambient, dim))
                assert sample_subspace(ambient, dim, a) == reference_sample_subspace(ambient, dim, b)
                assert a.integers(2**62) == b.integers(2**62)


def test_public_constructor_still_checks_its_basis():
    """Subspace(ambient, basis) refuses a basis not in RREF and rows of
    another width with ValueError, not an assert."""
    rows = tuple(BitVector.from_string(r) for r in ("110", "011"))
    assert rref(rows) != rows
    with pytest.raises(ValueError):
        Subspace(3, rows)
    with pytest.raises(ValueError):
        Subspace(3, (BitVector.from_string("10"),))
    with pytest.raises(ValueError):
        Subspace(4, rref(rows))
    assert Subspace(3, rref(rows)) == Subspace.span(3, rows)


@given(st.integers(1, 12), st.data())
@settings(max_examples=60, deadline=None)
def test_canonical_delta_hat_with_the_span_passed_in(ambient, data):
    """The key's own span(s, delta) passed in gives the vector worked
    out without it."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    s = sample_subspace(ambient, data.draw(st.integers(0, ambient - 1)), rng)
    delta = BitVector.from_int(data.draw(st.integers(0, 2**ambient - 1)), ambient)
    if s.contains(delta):
        return
    s_delta = Subspace.span(ambient, s.basis + (delta,))
    assert canonical_delta_hat(s, delta, s_delta) == canonical_delta_hat(s, delta)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_isometry_matches_the_reference_on_wider_codes(data):
    """apply_encoding_isometry gives the reference's amplitudes bit for
    bit at lambda 3 to 5, with and without a wire's masks."""
    security = data.draw(st.integers(3, 5))
    n = data.draw(st.integers(1, 14 - 2 * security))
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


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_encode_qubits_matches_the_reference_on_any_qubits(data):
    """Encoding any set of qubits in one pass gives the amplitudes of the
    reference isometry applied to each of them in turn, the last first."""
    security = data.draw(st.integers(1, 2))
    n = data.draw(st.integers(1, 3))
    chosen = data.draw(st.sets(st.integers(1, n), min_size=1))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    key = gen(security, n, rng)
    state = want = random_state(n, rng)
    for q in sorted(chosen, reverse=True):
        amps = reference_isometry(want, q, key.space, key.delta, key.x_masks[q - 1], key.z_masks[q - 1])
        want = StateVector(want.num_qubits - 1 + key.code_length, amps)
    masks = {q: (key.x_masks[q - 1].value, key.z_masks[q - 1].value) for q in chosen}
    got = encode_qubits(state, key.space, key.delta, masks)
    assert np.array_equal(got.amplitudes, want.amplitudes)


@pytest.mark.parametrize("security, wires", [(3, 1), (3, 2), (4, 1), (5, 1)])
def test_enc_matches_the_reference_on_wider_codes(security, wires):
    """enc, which masks each wire inside its columns, gives the
    amplitudes of unmasked isometries and one mask afterwards."""
    rng = np.random.default_rng((security, wires))
    key = gen(security, wires, rng)
    state = random_state(wires, rng)
    assert np.array_equal(enc(key, state).amplitudes, reference_enc(key, state).amplitudes)
