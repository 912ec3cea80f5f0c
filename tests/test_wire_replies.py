"""The oracle server's replies to a seeded pool of request lines, pinned
by one digest: honest lines of every layer, each one-bit tamper of
their fields, and malformed lines, at security 1 and 2. Any change to
how a line is read, checked, opened or answered that alters one reply
byte changes the digest."""

import hashlib
from dataclasses import replace

import numpy as np

from helpers import all_inputs, tchain_circuit
from lmobf.gf2 import BitVector
from lmobf.lm import compile_circuit
from lmobf.obf import (
    ObfParams,
    _honest_run,
    encode_f_request,
    encode_g_request,
    frame,
    frame_group,
    handle_request_line,
    is_bot,
    qobf,
    request_payload,
)
from lmobf.tokens import keypair_from_subspaces

# sha256 over the replies, one per line, each followed by a newline.
REPLIES_SHA256 = "2785bf233286e73582f2b2c9064ba2eda721c5b88b8014947c0709098b92316a"
POOL_SIZE = 1015


def _flip(v: BitVector, rng: np.random.Generator) -> BitVector:
    return BitVector.from_int(v.value ^ 1 << int(rng.integers(len(v))), len(v))


def _wider(v: BitVector) -> BitVector:
    return BitVector.from_int(v.value << 1, len(v) + 1)


def _pick(rng: np.random.Generator, items) -> int:
    return int(rng.integers(len(items)))


def _line(i: int, tr, w, final: bool) -> str:
    return encode_g_request(tr) if final else encode_f_request(i, tr, w)


def _tampered(i, tr, w, final, rng):
    """The line with one bit flipped in the signature, the input, a
    round's codeword, the pair (layer queries) and a label (when the
    query has one), one line each."""
    sig = list(tr.signature)
    k = _pick(rng, sig)
    sig[k] = _flip(sig[k], rng)
    yield _line(i, replace(tr, signature=tuple(sig)), w, final)
    yield _line(i, replace(tr, x=_flip(tr.x, rng)), w, final)
    rounds = [list(r) for r in tr.v_layers]
    k = _pick(rng, rounds)
    j = _pick(rng, rounds[k])
    rounds[k][j] = _flip(rounds[k][j], rng)
    yield _line(i, replace(tr, v_layers=tuple(map(tuple, rounds))), w, final)
    if not final:
        pair = list(w)
        k = _pick(rng, pair)
        pair[k] = _flip(pair[k], rng)
        yield _line(i, tr, tuple(pair), final)
    if tr.labels:
        labels = list(tr.labels)
        k = _pick(rng, labels)
        labels[k] = _flip(labels[k], rng)
        yield _line(i, replace(tr, labels=tuple(labels)), w, final)


def _fuzzed(i, tr, w, final, t, rng):
    """Malformed variants of the line: cut bytes and hex digits, a frame
    too many or too few, a field of the wrong width, pad bits set, and
    layer indices out of range."""
    line = _line(i, tr, w, final)
    head, payload = line.rsplit(" ", 1)
    yield f"{head} {payload[:-2]}"
    yield f"{head} {payload[:-1]}"
    yield f"{head} {payload}{frame(BitVector.zeros(8)).hex()}"
    fewer = replace(tr, v_layers=tr.v_layers[:-1]) if final else tr
    yield f"{head} {request_payload(fewer).hex()}"
    yield _line(i, replace(tr, x=_wider(tr.x)), w, final)
    yield _line(i, replace(tr, signature=(_wider(tr.signature[0]),) + tr.signature[1:]), w, final)
    rounds = [list(r) for r in tr.v_layers]
    k = _pick(rng, rounds)
    rounds[k][0] = _wider(rounds[k][0])
    yield _line(i, replace(tr, v_layers=tuple(map(tuple, rounds))), w, final)
    if tr.labels:
        k = _pick(rng, tr.labels)
        labels = list(tr.labels)
        labels[k] = _wider(labels[k])
        yield _line(i, replace(tr, labels=tuple(labels)), w, final)
    if not final:
        yield f"{head} {(request_payload(tr) + frame_group((_wider(w[0]),) + w[1:])).hex()}"
        for bad in (0, t + 1, -1):
            yield f"F {bad} {payload}"
    # The input's frame holds 2 bits in its one body byte, so 6 pad bits.
    raw = bytearray(bytes.fromhex(payload))
    raw[4] |= int(rng.integers(1, 64))
    yield f"{head} {raw.hex()}"


def _pool():
    """(key, line) for every line of the pool, in a fixed order."""
    for security in (1, 2):
        rng = np.random.default_rng((30, security))
        program = compile_circuit(tchain_circuit(rng, 2 + security))
        params = ObfParams(security=security, label_bits=64, token_dim=4)
        obf = qobf(params, program, rng)
        t = program.t
        for x in all_inputs(program.num_input_bits):
            fresh = replace(obf, token=keypair_from_subspaces(params.token_dim, obf.key.token_vk))
            record = _honest_run(x, fresh, rng, "logical", obf.suite)
            if is_bot(record):
                continue
            for i, tr, w in record:
                final = i == t + 1
                yield obf.key, _line(i, tr, w, final)
                for line in _tampered(i, tr, w, final, rng):
                    yield obf.key, line
                for line in _fuzzed(i, tr, w, final, t, rng):
                    yield obf.key, line


def test_wire_replies_are_pinned():
    """Every reply of handle_request_line to the pool equals the pinned
    one; the pool holds accepted and refused lines of both kinds."""
    replies = [handle_request_line(key, line) for key, line in _pool()]
    assert len(replies) == POOL_SIZE
    assert sum(r.startswith("OK ") for r in replies) > 0
    assert sum(r == "BOT" for r in replies) > 0
    digest = hashlib.sha256("".join(r + "\n" for r in replies).encode()).hexdigest()
    assert digest == REPLIES_SHA256
