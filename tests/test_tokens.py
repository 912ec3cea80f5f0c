import subprocess
import sys

import numpy as np
import pytest

from helpers import ReferenceRegisters, vk_from_text
from lmobf.gf2 import BitVector, dual, sample_coset_vector
from lmobf.tokens import (
    keypair_from_subspaces,
    measure_register,
    tok_gen,
    tok_sign,
    tok_ver,
    vk_to_text,
)


def bv(s: str) -> BitVector:
    return BitVector.from_string(s)


def test_gen_structure():
    rng = np.random.default_rng(0)
    kp = tok_gen(1, 1, rng)
    assert kp.reads == [None] and not kp.consumed
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


@pytest.mark.parametrize("kappa_prime", range(1, 9))
def test_reads_draw_as_the_register_reference(kappa_prime):
    """Up to kappa' 12 the recorded reads draw exactly as sim.measure on
    the simulated registers did: the signature, two later reads of every
    register in each basis order, and the next draw of the rng."""
    orders = [(a, b) for a in "ZX" for b in "ZX"]
    for seed in range(10):
        vk = tok_gen(kappa_prime, 3, np.random.default_rng(seed)).vk
        x = BitVector.from_ints(np.random.default_rng(seed).integers(0, 2, 3))
        for first, second in orders:
            kp = keypair_from_subspaces(kappa_prime, vk)
            registers = ReferenceRegisters(kp)
            rng, ref_rng = np.random.default_rng(100 + seed), np.random.default_rng(100 + seed)
            assert tok_sign(x, kp, rng) == registers.sign(x, ref_rng)
            for j in range(1, 4):
                for basis in (first, second):
                    got = measure_register(kp, j, basis, rng)
                    assert got == registers.read(j, basis, ref_rng), (seed, j, first, second)
            assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("kappa_prime", [13, 16])
def test_wide_signatures_draw_as_sample_coset_vector(kappa_prime):
    """Above kappa' 12 a signature bit is sample_coset_vector's draw from
    the subspace (bit 0) or its dual (bit 1)."""
    for seed in range(5):
        kp = tok_gen(kappa_prime, 3, np.random.default_rng(seed))
        x = BitVector.from_ints(np.random.default_rng(seed).integers(0, 2, 3))
        rng, ref_rng = np.random.default_rng(100 + seed), np.random.default_rng(100 + seed)
        zero = BitVector.zeros(2 * kappa_prime)
        want = tuple(
            sample_coset_vector(dual(a) if x[j] else a, zero, ref_rng)
            for j, a in enumerate(kp.subspaces, start=1)
        )
        assert tok_sign(x, kp, rng) == want
        assert rng.random() == ref_rng.random()


def test_register_reads_above_twelve():
    """A register of 32 qubits is read like a narrow one: a fresh X read
    lies in the dual, and after signing 0 a Z read repeats the signature
    while an X read is a string of the full width."""
    rng = np.random.default_rng(10)
    for _ in range(20):
        kp = tok_gen(16, 2, rng)
        assert dual(kp.subspaces[1]).contains(measure_register(kp, 2, "X", rng))
        sigma = tok_sign(bv("00"), kp, rng)
        assert kp.subspaces[0].contains(sigma[0])
        assert measure_register(kp, 1, "Z", rng) == sigma[0]
        assert len(measure_register(kp, 1, "X", rng)) == 32
    with pytest.raises(ValueError):
        measure_register(kp, 1, "Y", rng)


def test_tokens_load_no_simulator():
    """Keys record reads, not states: importing tokens in a fresh
    interpreter loads no lmobf.sim."""
    probe = "import sys, lmobf.tokens; print('lmobf.sim' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr
