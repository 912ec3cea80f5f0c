import numpy as np
import pytest

from lmobf.gf2 import BitVector, dual
from lmobf.tokens import (
    measure_register,
    tok_gen,
    tok_sign,
    tok_ver,
    vk_from_text,
    vk_to_text,
)


def bv(s: str) -> BitVector:
    return BitVector.from_string(s)


def test_gen_structure():
    rng = np.random.default_rng(0)
    kp = tok_gen(1, 1, rng)
    assert kp.registers[0].num_qubits == 2
    assert kp.subspaces[0].dim == 1
    kp2 = tok_gen(3, 2, rng)
    assert len(kp2.subspaces) == 2
    assert all(a.ambient_dim == 6 and a.dim == 3 for a in kp2.subspaces)


def test_gen_varies_over_seeds():
    spaces = {tok_gen(2, 1, np.random.default_rng(seed)).subspaces[0] for seed in range(10)}
    assert len(spaces) >= 5


def test_vk_roundtrip():
    rng = np.random.default_rng(1)
    kp = tok_gen(2, 3, rng)
    text = vk_to_text(kp.kappa_prime, kp.vk)
    kappa_prime, spaces = vk_from_text(text)
    assert kappa_prime == 2
    assert spaces == kp.vk


def test_sign_zero_message_lands_in_subspaces():
    rng = np.random.default_rng(2)
    for _ in range(20):
        kp = tok_gen(2, 2, rng)
        sigma = tok_sign(bv("00"), kp, rng)
        assert all(kp.subspaces[j].contains(sigma[j]) for j in range(2))


def test_sign_one_bits_land_in_duals():
    rng = np.random.default_rng(3)
    for _ in range(20):
        kp = tok_gen(2, 2, rng)
        sigma = tok_sign(bv("11"), kp, rng)
        assert all(dual(kp.subspaces[j]).contains(sigma[j]) for j in range(2))


def test_signing_consumes_key():
    rng = np.random.default_rng(4)
    kp = tok_gen(1, 1, rng)
    tok_sign(bv("0"), kp, rng)
    with pytest.raises(RuntimeError):
        tok_sign(bv("1"), kp, rng)


def test_sign_length_mismatch():
    rng = np.random.default_rng(5)
    kp = tok_gen(1, 2, rng)
    with pytest.raises(ValueError):
        tok_sign(bv("0"), kp, rng)


def test_honest_verification_and_zero_vector_rate():
    # per-bit honest failure is exactly the zero-vector probability
    rng = np.random.default_rng(6)
    for kappa_prime in (2, 3):
        trials = 10_000
        failures = 0
        for _ in range(trials):
            kp = tok_gen(kappa_prime, 1, rng)
            sigma = tok_sign(bv("0"), kp, rng)
            assert kp.subspaces[0].contains(sigma[0])
            if not tok_ver(kp.vk, bv("0"), sigma):
                assert sigma[0].is_zero()
                failures += 1
        p = 2.0**-kappa_prime
        sigma_stat = np.sqrt(trials * p * (1 - p))
        assert abs(failures - trials * p) < 3 * sigma_stat


def test_ver_rejects_zero_and_mismatched_shapes():
    rng = np.random.default_rng(7)
    kp = tok_gen(2, 2, rng)
    sigma = tok_sign(bv("01"), kp, rng)
    assert not tok_ver(kp.vk, bv("01"), (BitVector.zeros(4), sigma[1]))
    assert not tok_ver(kp.vk, bv("0"), sigma)
    assert not tok_ver(kp.vk, bv("01"), (sigma[0],))
    assert not tok_ver(kp.vk, bv("01"), (bv("10"), sigma[1]))


def test_flipped_message_rejected():
    rng = np.random.default_rng(8)
    trials = 2000
    accepted = 0
    for _ in range(trials):
        kp = tok_gen(4, 1, rng)
        sigma = tok_sign(bv("0"), kp, rng)
        if tok_ver(kp.vk, bv("1"), sigma):
            accepted += 1
    assert accepted / trials <= 2.0**-4 + 3 * np.sqrt(2.0**-4 / trials)


def test_one_shot_forgery_rate():
    # after signing 0, the register is a basis state; a Hadamard-basis read
    # gives a uniform vector, hitting the dual minus zero with probability
    # (2^k - 1) / 2^(2k)
    rng = np.random.default_rng(9)
    kappa_prime = 4
    trials = 2000
    wins = 0
    for _ in range(trials):
        kp = tok_gen(kappa_prime, 1, rng)
        sigma = tok_sign(bv("0"), kp, rng)
        assert tok_ver(kp.vk, bv("0"), sigma) or sigma[0].is_zero()
        forged = measure_register(kp, 1, "X", rng)
        if tok_ver(kp.vk, bv("1"), (forged,)):
            wins += 1
    p = 2.0**-kappa_prime
    assert wins / trials <= p + 3 * np.sqrt(p * (1 - p) / trials)
