import dataclasses
import functools
import hashlib
import hmac as hmac_mod
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    _parse_request_fields,
    all_inputs,
    chain_label,
    encoded_state,
    frame_bits,
    label_message,
    random_circuit,
    reference_blownup_spec,
    reference_logical_spec,
    tchain_circuit,
)
from lmobf.auth import AuthKey, WireRead, gen, honest_codeword, ver, wire_reads
from lmobf.gf2 import BitVector, Subspace, concat, coset_decode
from lmobf.lm import (
    Circuit,
    Gate,
    LogicalRegister,
    bind,
    circuit_output_distribution,
    compile_circuit,
    eval_classical_fn,
    lmeval,
    lmeval_distribution,
    parse_circuit,
    total_variation,
    walk,
)
from lmobf.obf import (
    EncodedRegister,
    ObfParams,
    OracleKey,
    OracleSuite,
    Reject,
    _answer,
    _framed,
    _honest_run,
    Transcript,
    attack_harness,
    encode_f_request,
    encode_g_request,
    frame,
    frame_group,
    handle_request_line,
    induced_map,
    is_bot,
    oracle_f,
    oracle_f_sim,
    oracle_g,
    oracle_g_sim,
    oracle_key_from_text,
    oracle_key_to_text,
    prf,
    qeval,
    qobf,
    read_frames,
    real_suite,
    remote_suite,
    request_payload,
    simulated_suite,
)
from lmobf.sim import QUBIT_CAP
from lmobf.tokens import tok_gen, tok_sign
from test_acceptance import DETERMINISTIC_CIRCUITS

IDENTITY = Circuit(1, 1, (), (1,))
T_ONLY = Circuit(1, 1, (Gate("T", (1,)),), (1,))
CNOT_T = Circuit(2, 2, (Gate("CNOT", (1, 2)), Gate("T", (2,))), (1, 2))
T_T = Circuit(1, 1, (Gate("T", (1,)), Gate("T", (1,))), (1,))
H_H = Circuit(1, 1, (Gate("H", (1,)), Gate("H", (1,))), (1,))
H_T_H = Circuit(1, 1, (Gate("H", (1,)), Gate("T", (1,)), Gate("H", (1,))), (1,))

PARAMS = ObfParams(security=1, label_bits=16, token_dim=16)


def make_obf(circuit: Circuit, seed: int = 0, params: ObfParams = PARAMS):
    program = compile_circuit(circuit)
    return program, qobf(params, program, np.random.default_rng(seed))


def honest_transcript(circuit: Circuit, x: BitVector, seed: int = 0):
    """One honest logical evaluation from its record: returns the
    obfuscation, the list of (layer, transcript, w_pair) queries as sent,
    and the final transcript."""
    program, obf = make_obf(circuit, seed)
    record = _honest_run(x, obf, np.random.default_rng(seed + 1), "logical", obf.suite)
    assert not is_bot(record)
    *queries, (_, final, _) = record
    return obf, queries, final


def flip_bit(v: BitVector, pos: int) -> BitVector:
    bits = list(v.bits)
    bits[pos % len(bits)] ^= 1
    return BitVector(tuple(bits))


# --- label PRF ------------------------------------------------------------


def test_prf_matches_independent_hmac_expansion():
    key, msg = b"k" * 32, b"transcript bytes"
    stream = b"".join(
        hmac_mod.new(key, msg + c.to_bytes(4, "big"), hashlib.sha256).digest()
        for c in range(4096)
    )
    want = "".join(format(byte, "08b") for byte in stream)
    for n in (1, 8, 63, 256, 300, 512, 2**20):
        got = prf(key, msg, n)
        assert "".join(str(b) for b in got.bits) == want[:n]


def test_prf_determinism_and_separation():
    assert prf(b"k", b"m", 64) == prf(b"k", b"m", 64)
    assert prf(b"k", b"m", 64) != prf(b"k2", b"m", 64)
    assert prf(b"k", b"m", 64) != prf(b"k", b"m2", 64)
    assert len(prf(b"k", b"", 16)) == 16
    with pytest.raises(ValueError):
        prf(b"k", b"m", 0)


@given(st.integers(1, 300), st.integers(1, 300), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_prf_truncation_is_prefix_consistent(n1, n2, seed):
    msg = seed.to_bytes(4, "big")
    short, long = sorted((n1, n2))
    assert prf(b"key", msg, long).bits[:short] == prf(b"key", msg, short).bits


# --- transcript framing -----------------------------------------------------


def manual_frame(bits) -> bytes:
    out = len(bits).to_bytes(4, "big")
    acc = 0
    for chunk in range(0, len(bits), 8):
        byte = 0
        for k, b in enumerate(bits[chunk : chunk + 8]):
            byte |= (b & 1) << (7 - k)
        out += bytes([byte])
        acc += 1
    return out


@given(st.lists(st.lists(st.integers(0, 1), max_size=40), max_size=5))
@settings(max_examples=60, deadline=None)
def test_frame_roundtrip(groups):
    raw = b"".join(frame_bits(tuple(g)) for g in groups)
    assert [v.bits for v in read_frames(raw)] == [tuple(g) for g in groups]


def test_frame_bits_matches_manual_packing():
    for bits in ((), (1,), (0, 1, 1), (1,) * 8, (1, 0) * 7):
        assert frame_bits(bits) == manual_frame(bits)


def test_framing_resists_boundary_shuffles():
    assert frame_bits((0, 1)) + frame_bits((1,)) != frame_bits((0,)) + frame_bits((1, 1))
    assert frame_group((BitVector((0, 1)), BitVector((1, 0)))) == frame_bits((0, 1, 1, 0))


def test_read_frames_rejects_truncation():
    whole = frame_bits((1, 0, 1, 1, 0, 0, 1, 0, 1))
    with pytest.raises(ValueError):
        read_frames(whole[:-1])
    with pytest.raises(ValueError):
        read_frames(b"\x00\x00")


def test_frame_roundtrip_every_length_to_70():
    rng = np.random.default_rng(70)
    for n in range(71):
        bits = tuple(int(b) for b in rng.integers(0, 2, n))
        raw = frame_bits(bits)
        assert raw == manual_frame(bits)
        assert read_frames(raw + raw) == [BitVector(bits)] * 2


# PRF outputs, as hex of the packed value, pinned from the tuple-based
# implementation: the packed one must hash and truncate the same way.
PRF_KNOWN = {
    1: "0",
    8: "67",
    64: "674b5d0330ddcff9",
    257: "ce96ba0661bb9ff32b01a2ac88c78a9ca3bef65e74d6a7a77c283232e82c50ff",
}


@pytest.mark.parametrize("num_bits", sorted(PRF_KNOWN))
def test_prf_known_answers(num_bits):
    want = format(int(PRF_KNOWN[num_bits], 16), f"0{num_bits}b")
    assert str(prf(b"k", b"m", num_bits)) == want


def test_label_message_known_answer():
    f = BitVector.from_string
    tr = Transcript(
        f("101"),
        (f("0110"), f("1001"), f("1111")),
        ((f("10011"),), (f("01100"), f("11111"))),
        (f("1010101011"),),
    )
    assert label_message(tr, 2, 1).hex() == (
        "00000003a00000000c69f000000005980000000aaac00000000a67c00000000180"
    )
    assert label_message(tr, 1, 0).hex() == "00000003a00000000c69f000000005980000000100"


def test_transcript_label_count_validator():
    sig = (BitVector((1, 0)),)
    x = BitVector((0,))
    layer = (BitVector((1, 1, 0)),)
    Transcript(x, sig)
    Transcript(x, sig, (layer,), ())
    Transcript(x, sig, (layer, layer), (BitVector((1,) * 4),))
    with pytest.raises(ValueError):
        Transcript(x, sig, (layer,), (BitVector((1,) * 4), BitVector((0,) * 4)))


def test_label_message_commits_to_every_field():
    obf, queries, transcript = honest_transcript(T_T, BitVector((1,)), seed=3)
    base = label_message(transcript, 2, 0)
    assert label_message(transcript, 2, 1) != base
    assert label_message(replace(transcript, x=BitVector((0,))), 2, 0) != base
    sig = (flip_bit(transcript.signature[0], 0),)
    assert label_message(replace(transcript, signature=sig), 2, 0) != base
    v1 = ((flip_bit(transcript.v_layers[0][0], 1),),) + transcript.v_layers[1:]
    assert label_message(replace(transcript, v_layers=v1), 2, 0) != base
    lab = (flip_bit(transcript.labels[0], 2),) + transcript.labels[1:]
    assert label_message(replace(transcript, labels=lab), 2, 0) != base
    assert label_message(transcript, 1, 0) != base


_vectors = st.lists(st.integers(0, 1), max_size=12).map(lambda b: BitVector(tuple(b)))


@given(
    _vectors,
    st.lists(_vectors, max_size=3),
    st.lists(st.lists(_vectors, max_size=3), min_size=1, max_size=6),
    st.booleans(),
    st.data(),
)
@settings(max_examples=80, deadline=None)
def test_single_pass_prefixes_equal_the_request_payloads(x, sig, v_layers, equal, data):
    """The one framing pass ends each codeword layer's frame exactly
    where request_payload of that many layers ends, for labels one
    behind the layers and for equal counts, as encode_*_request sends;
    widths vary and zero-length vectors occur."""
    v_layers = tuple(tuple(layer) for layer in v_layers)
    num_labels = len(v_layers) - (0 if equal else 1)
    labels = tuple(data.draw(_vectors) for _ in range(num_labels))
    tr = Transcript(x, tuple(sig), v_layers, labels)
    payload, ends = _framed(tr)
    assert payload == request_payload(tr)
    assert len(ends) == len(v_layers)
    for upto in range(1, len(v_layers) + 1):
        head = replace(tr, v_layers=tr.v_layers[:upto], labels=tr.labels[: upto - 1])
        assert payload[: ends[upto - 1]] == request_payload(head)
        assert _framed(head)[1] == ends[:upto]


@functools.lru_cache(maxsize=None)
def _chain_key():
    """An obfuscation of H T T T H at security 1 (t = 3) and the signature
    of its input 1."""
    circuit = parse_circuit("qubits 1 inputs 1 outputs 1\nH 1\n" + "T 1\n" * 3 + "H 1\n")
    _, obf = make_obf(circuit)
    x = BitVector((1,))
    return obf.key, x, tok_sign(x, obf.token, np.random.default_rng(1))


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_replay_accepts_the_chain_label_of_each_layer(data):
    """A transcript of arbitrary codewords whose labels were chained with
    arbitrary bits: the replay accepts every label as the candidate
    chain_label gives for its layer and bit, and reads those bits back."""
    key, x, sig = _chain_key()
    p = key.auth_key.code_length
    tr = Transcript(x, sig)
    bits = {}
    for layer in key.program.layers:
        v = tuple(BitVector.from_int(data.draw(st.integers(0, 2**p - 1)), p) for _ in layer.v)
        tr = tr.with_codewords(v)
        if layer.index <= key.program.t:
            bits[layer.index] = data.draw(st.integers(0, 1))
            tr = tr.with_label(chain_label(key, tr, layer.index, bits[layer.index]))
    seen = []

    def recording_open(layer, x, rs, ordered):
        seen.append(rs)
        return BitVector((0,))

    _answer(key.chain, recording_open, key.program.layers[-1], tr, ())
    (rs,) = seen
    assert rs == bits
    for idx, r in rs.items():
        assert tr.labels[idx - 1] == chain_label(key, tr, idx, r)


# --- layer oracle gates ------------------------------------------------------


def test_oracle_f_honest_reply_and_independent_r():
    """The accepted reply echoes the submitted layer; the label commits
    to the chain bit recomputed from scratch out of the raw vectors."""
    x = BitVector((1, 0))
    obf, queries, _ = honest_transcript(CNOT_T, x, seed=5)
    key = obf.key
    program = key.program
    layer, transcript, w_pair = queries[0]
    echo, label = oracle_f(key, layer, transcript, w_pair)
    assert echo == transcript.v_layers[-1]

    theta = program.thetas[0]
    read_of = {r.wire: r for r in wire_reads(key.auth_key, program.layers[0].cnots, theta)}
    bits = {}
    for wire, vec in [(sorted(program.v_sets[0])[0], transcript.v_layers[0][0])] + list(
        zip(program.w_sets[0], w_pair)
    ):
        r = read_of[wire]
        bit = coset_decode(r.space, r.delta, r.shift, vec.value)
        assert bit != -1
        bits[wire] = bit
    fn = program.measurement_fns[0]
    binds = {}
    for name in fn.input_names:
        if name[0] == "m":
            binds[name] = bits[int(name[1:])]
        else:
            binds[name] = x[int(name[1:])]
    r = eval_classical_fn(fn, binds)["r"]
    assert label == chain_label(key, transcript, 1, r)


def test_oracle_f_layer_range():
    obf, queries, _ = honest_transcript(T_ONLY, BitVector((0,)))
    _, transcript, w_pair = queries[0]
    for bad in (0, 2, -1):
        with pytest.raises(ValueError):
            oracle_f(obf.key, bad, transcript, w_pair)


def test_every_suite_refuses_a_layer_index_outside_1_to_t():
    """The real, simulated and remote suites raise ValueError for a layer
    query outside 1..t, and the remote suite sends no line for it."""
    obf, queries, _ = honest_transcript(T_ONLY, BitVector((0,)))
    _, transcript, w_pair = queries[0]
    key = obf.key
    t = key.program.t
    sent = []
    suites = (
        real_suite(key),
        simulated_suite(key.chain, key.verify, induced_map(key.program)),
        remote_suite(key.chain, lambda line: sent.append(line) or handle_request_line(key, line)),
    )
    for bad in (0, t + 1, t + 2, -1):
        for suite in suites:
            with pytest.raises(ValueError):
                suite.query_f(bad, transcript, w_pair)
    assert sent == []


def test_oracle_f_bad_token_reasons():
    obf, queries, _ = honest_transcript(T_ONLY, BitVector((1,)), seed=7)
    _, transcript, w_pair = queries[0]
    broken = replace(transcript, signature=(flip_bit(transcript.signature[0], 0),))
    assert oracle_f(obf.key, 1, broken, w_pair) == Reject("bad-token", 1)
    zero = replace(transcript, signature=(BitVector.zeros(len(transcript.signature[0])),))
    assert oracle_f(obf.key, 1, zero, w_pair) == Reject("bad-token", 1)
    assert is_bot(oracle_f(obf.key, 1, broken, w_pair))


def test_oracle_f_shape_gate():
    obf, queries, _ = honest_transcript(T_ONLY, BitVector((0,)), seed=8)
    _, transcript, w_pair = queries[0]
    key = obf.key
    short = replace(transcript, v_layers=((transcript.v_layers[0][0],) * 2,))
    assert oracle_f(key, 1, short, w_pair) == Reject("decode-fail", 1)
    assert oracle_f(key, 1, transcript, w_pair[:1]) == Reject("decode-fail", 1)
    narrow = (BitVector((1,)), w_pair[1])
    assert oracle_f(key, 1, transcript, narrow) == Reject("decode-fail", 1)


def test_oracle_f_decode_gate():
    """Adding any error outside the standard-basis accept space must push
    a submitted vector out of the code, for the pair and the layer both."""
    obf, queries, _ = honest_transcript(T_ONLY, BitVector((1,)), seed=9)
    _, transcript, w_pair = queries[0]
    key = obf.key
    accept = key.auth_key.accept_space_z
    rng = np.random.default_rng(10)
    while True:
        err = BitVector(tuple(int(b) for b in rng.integers(0, 2, size=accept.ambient_dim)))
        if not accept.contains(err):
            break
    bad_pair = (w_pair[0] ^ err, w_pair[1])
    assert oracle_f(key, 1, transcript, bad_pair) == Reject("decode-fail", 1)
    bad_layer = replace(transcript, v_layers=((transcript.v_layers[0][0] ^ err,),))
    assert oracle_f(key, 1, bad_layer, w_pair) == Reject("decode-fail", 1)


def test_oracle_f_bad_label_and_collision():
    x = BitVector((0,))
    obf, queries, _ = honest_transcript(T_T, x, seed=11)
    key = obf.key
    layer2, transcript2, w_pair2 = queries[1]
    assert layer2 == 2
    forged = replace(transcript2, labels=(flip_bit(transcript2.labels[0], 3),))
    assert oracle_f(key, 2, forged, w_pair2) == Reject("bad-label", 2)

    import lmobf.obf as obf_mod

    original = obf_mod.prf
    obf_mod.prf = lambda key_bytes, message, num_bits: BitVector.zeros(num_bits)
    try:
        collided = replace(transcript2, labels=(BitVector.zeros(key.label_bits),))
        reply = oracle_f(key, 2, collided, w_pair2)
    finally:
        obf_mod.prf = original
    assert reply == Reject("label-collision", 2)


def test_oracle_g_honest_and_cross_signature():
    x = BitVector((1, 1))
    q_fn = induced_map(compile_circuit(CNOT_T))
    obf, queries, transcript = honest_transcript(CNOT_T, x, seed=13)
    y = oracle_g(obf.key, transcript)
    assert y == q_fn(x)

    _, other = make_obf(CNOT_T, seed=14)
    swapped = replace(transcript, signature=tok_sign(x, other.token, np.random.default_rng(2)))
    assert oracle_g(obf.key, swapped) == Reject("bad-token", 2)


def test_the_earlier_of_two_faults_decides_the_reject():
    """A transcript with two faults is refused for the one checked first,
    in the order token, shape, label chain, opening: by the real and the
    simulated oracles, at layer 2 of t = 2 and at the output. The shape
    and opening faults sit in the last codeword layer, which no checked
    label hashes, and the forged label is label 1."""
    obf, queries, final = honest_transcript(T_T, BitVector((0,)), seed=23)
    key = obf.key
    q_fn = induced_map(key.program)
    p = key.auth_key.code_length
    _, tr_f, w_pair = queries[1]
    cases = (
        (2, tr_f, lambda tr: oracle_f(key, 2, tr, w_pair)),
        (2, tr_f, lambda tr: oracle_f_sim(key, 2, tr, w_pair)),
        (3, final, lambda tr: oracle_g(key, tr)),
        (3, final, lambda tr: oracle_g_sim(key, q_fn, tr)),
    )
    for i, tr, ask in cases:

        def last_word(word):
            last = (word,) + tr.v_layers[-1][1:]
            return replace(tr, v_layers=tr.v_layers[:-1] + (last,))

        honest = tr.v_layers[-1][0]
        flipped = (honest ^ BitVector.from_int(e, p) for e in range(1, 2**p))
        out_of_code = next(c for c in flipped if is_bot(ask(last_word(c))))
        assert ask(last_word(out_of_code)) == Reject("decode-fail", i)
        wide = last_word(BitVector.zeros(p + 1))
        bad_sig = (BitVector.zeros(len(tr.signature[0])),) + tr.signature[1:]
        forged = (flip_bit(tr.labels[0], 0),) + tr.labels[1:]
        assert ask(replace(wide, signature=bad_sig)) == Reject("bad-token", i)
        assert ask(replace(wide, labels=forged)) == Reject("decode-fail", i)
        assert ask(replace(last_word(out_of_code), labels=forged)) == Reject("bad-label", i)
        assert ask(replace(tr, x=BitVector(tr.x.bits + (0,)))) == Reject("bad-token", i)


def test_oracle_g_truncated_transcript():
    obf, queries, transcript = honest_transcript(T_T, BitVector((0,)), seed=15)
    cut = replace(transcript, v_layers=transcript.v_layers[:-1], labels=transcript.labels[:1])
    assert oracle_g(obf.key, cut) == Reject("decode-fail", 3)


# --- simulated oracles --------------------------------------------------------


def test_sim_suite_evaluates_program():
    for circuit in (T_ONLY, CNOT_T, T_T, H_H):
        program = compile_circuit(circuit)
        q_fn = induced_map(program)
        for x in all_inputs(circuit.num_input_bits):
            obf = qobf(PARAMS, program, np.random.default_rng(17))
            suite = simulated_suite(obf.key.chain, obf.key.verify, q_fn)
            got = qeval(x, obf, np.random.default_rng(18), mode="logical", suite=suite)
            assert got == q_fn(x)


def test_sim_f_label_commits_to_zero_bit():
    obf, queries, _ = honest_transcript(T_ONLY, BitVector((1,)), seed=19)
    _, transcript, w_pair = queries[0]
    echo, label = oracle_f_sim(obf.key, 1, transcript, w_pair)
    assert echo == transcript.v_layers[-1]
    assert label == chain_label(obf.key, transcript, 1, 0)


def _table_verify(key: OracleKey):
    """A V_k read from a brute-force table: per round, the accepted
    p-bit words of each covered wire, found by trying every word. The
    returned verify closes over the table of ints alone."""
    p = key.auth_key.code_length
    words = [BitVector.from_int(v, p) for v in range(2**p)]
    table = {
        i: [{c.value for c in words if ver(key.auth_key, (r,), (c,))} for r in reads]
        for i, reads in enumerate(key.reads, start=1)
    }
    return lambda i, cw: all(c.value in table[i][k] for k, c in enumerate(cw))


def test_table_backed_verify_runs_the_simulated_suite():
    """simulated_suite on a Chain and a table-backed V_k, with no
    Subspace or AuthKey reachable from verify, returns q_fn(x) on honest
    runs of both routes."""
    program = compile_circuit(T_T)
    q_fn = induced_map(program)
    for x in all_inputs(1):
        for mode in ("logical", "physical"):
            obf = qobf(PARAMS, program, np.random.default_rng(60))
            verify = _table_verify(obf.key)
            assert [type(cell.cell_contents) for cell in verify.__closure__] == [dict]
            suite = simulated_suite(obf.key.chain, verify, q_fn)
            assert qeval(x, obf, np.random.default_rng(61), mode=mode, suite=suite) == q_fn(x)


def test_chain_holds_no_authentication_key_material():
    """The Chain's fields, through tuples, hold no AuthKey, OracleKey or
    WireRead, and no Subspace of odd ambient dimension: code spaces live
    in F2^(2λ+1), token spaces in F2^(2κ'). The checks moved into the
    Chain raise the messages they raised in OracleKey."""
    key = make_obf(CNOT_T, seed=62)[1].key

    def leaves(value):
        if isinstance(value, tuple):
            for v in value:
                yield from leaves(v)
        else:
            yield value

    found = [v for f in dataclasses.fields(key.chain) for v in leaves(getattr(key.chain, f.name))]
    assert not [v for v in found if isinstance(v, (AuthKey, OracleKey, WireRead))]
    spaces = [v for v in found if isinstance(v, Subspace)]
    assert spaces and all(s.ambient_dim % 2 == 0 for s in spaces)
    for holder in (key, key.chain):
        with pytest.raises(ValueError, match=r"^token subspace width must be 2\*token_dim$"):
            replace(holder, token_dim=holder.token_dim + 1)
        with pytest.raises(ValueError, match="^empty PRF key$"):
            replace(holder, prf_key=b"")


def test_real_and_sim_rejection_sets_agree_under_mutation():
    """Verification-only oracles must refuse exactly the queries the
    decoding oracles refuse, and a table-backed V_k gives the simulated
    oracles' replies."""
    x = BitVector((0,))
    obf, queries, transcript = honest_transcript(T_T, x, seed=21)
    key = obf.key
    q_fn = induced_map(key.program)
    tabled = simulated_suite(key.chain, _table_verify(key), q_fn)
    rng = np.random.default_rng(22)
    layer, tr, w_pair = queries[1]
    for trial in range(120):
        which = trial % 4
        mutated, pair = tr, w_pair
        if which == 0:
            v = list(tr.v_layers[1])
            v[0] = flip_bit(v[0], int(rng.integers(len(v[0]))))
            mutated = replace(tr, v_layers=(tr.v_layers[0], tuple(v)))
        elif which == 1:
            pair = (flip_bit(w_pair[0], int(rng.integers(len(w_pair[0])))), w_pair[1])
        elif which == 2:
            mutated = replace(tr, labels=(flip_bit(tr.labels[0], int(rng.integers(16))),))
        else:
            sig = (flip_bit(tr.signature[0], int(rng.integers(len(tr.signature[0])))),)
            mutated = replace(tr, signature=sig)
        real = oracle_f(key, layer, mutated, pair)
        sim = oracle_f_sim(key, layer, mutated, pair)
        assert is_bot(real) == is_bot(sim)
        assert tabled.query_f(layer, mutated, pair) == sim
    for trial in range(60):
        v = [list(layer_v) for layer_v in transcript.v_layers]
        li = int(rng.integers(len(v)))
        vi = int(rng.integers(len(v[li])))
        v[li][vi] = flip_bit(v[li][vi], int(rng.integers(len(v[li][vi]))))
        mutated = replace(transcript, v_layers=tuple(tuple(layer_v) for layer_v in v))
        assert is_bot(oracle_g(key, mutated)) == is_bot(oracle_g_sim(key, q_fn, mutated))
        assert tabled.query_g(mutated) == oracle_g_sim(key, q_fn, mutated)


# --- deep label chains ----------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _deep_chain():
    """One honest logical evaluation of H, 104 T and H at security 1 and
    token_dim 16 (t = 104): the key, the layer-t query and the final
    transcript. T^104 is the identity, so the output is the input."""
    program, obf = make_obf(
        parse_circuit("qubits 1 inputs 1 outputs 1\nH 1\n" + "T 1\n" * 104 + "H 1\n"),
        seed=5,
        params=ObfParams(security=1, token_dim=16),
    )
    assert program.t == 104
    record = _honest_run(BitVector((1,)), obf, np.random.default_rng(6), "logical", obf.suite)
    _, final, _ = record[-1]
    assert obf.suite.query_g(final) == BitVector((1,))
    return obf.key, record[-2], final


def _identity(x: BitVector) -> BitVector:
    return x


def test_chain_replay_frames_each_field_once(monkeypatch):
    """One query frames each field of its transcript once (the trailing
    chain-bit frames are constants) and calls the PRF twice per earlier
    layer, plus once for a layer oracle's own label."""
    import lmobf.obf as obf_mod

    key, (i, tr_f, w_pair), tr_g = _deep_chain()
    t = key.program.t
    assert i == t
    counts = {"frame": 0, "prf": 0}
    for name in counts:
        original = getattr(obf_mod, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(obf_mod, name, counted)
    assert oracle_g(key, tr_g) == BitVector((1,))
    assert counts["frame"] <= 2 * t + 3
    assert counts["prf"] == 2 * t
    counts.update(frame=0, prf=0)
    assert not is_bot(oracle_f(key, t, tr_f, w_pair))
    assert counts["frame"] <= 2 * t + 2
    assert counts["prf"] == 2 * (t - 1) + 1


@pytest.mark.parametrize("k", [1, 52, 104])
def test_deep_chain_tampering_is_a_bad_label_at_the_output(k):
    """A flipped bit in label k, or in a codeword of layer k, fails the
    replay at label k: both output oracles reject with bad-label at t+1."""
    key, _, tr = _deep_chain()
    t = key.program.t
    labels = list(tr.labels)
    labels[k - 1] = flip_bit(labels[k - 1], k)
    v_layers = list(tr.v_layers)
    v_layers[k - 1] = (flip_bit(v_layers[k - 1][0], k),) + v_layers[k - 1][1:]
    for forged in (replace(tr, labels=tuple(labels)), replace(tr, v_layers=tuple(v_layers))):
        assert oracle_g(key, forged) == Reject("bad-label", t + 1)
        assert oracle_g_sim(key, _identity, forged) == Reject("bad-label", t + 1)


def test_deep_chain_shape_is_checked_before_the_chain():
    """A codeword of the wrong width in layer 100 and a forged label 1:
    the shape check fires first."""
    key, _, tr = _deep_chain()
    t = key.program.t
    v_layers = list(tr.v_layers)
    v_layers[99] = (BitVector((1,)),) + v_layers[99][1:]
    labels = (flip_bit(tr.labels[0], 0),) + tr.labels[1:]
    forged = replace(tr, v_layers=tuple(v_layers), labels=labels)
    assert oracle_g(key, forged) == Reject("decode-fail", t + 1)
    assert oracle_g_sim(key, _identity, forged) == Reject("decode-fail", t + 1)


# --- end-to-end evaluation ------------------------------------------------------


@pytest.mark.parametrize(
    "circuit",
    [IDENTITY, T_ONLY, CNOT_T, T_T, H_H],
    ids=["identity", "t", "cnot-t", "t-t", "h-h"],
)
def test_qeval_matches_program_map(circuit):
    program = compile_circuit(circuit)
    q_fn = induced_map(program)
    p = 2 * PARAMS.security + 1
    modes = ["logical"] + (["physical"] if program.num_wires * p <= 24 else [])
    for x in all_inputs(circuit.num_input_bits):
        for mode in modes:
            for seed in (0, 1):
                obf = qobf(PARAMS, program, np.random.default_rng(seed))
                got = qeval(x, obf, np.random.default_rng(seed + 40), mode=mode)
                assert not is_bot(got)
                assert got == q_fn(x)


def encoded_gap(circuit: Circuit, security: int, seeds=(0, 1, 2)) -> float:
    """Worst total variation, over the keys of the seeds and every input,
    between walk's exact enumeration of the encoded register and the
    circuit's own output distribution."""
    program = compile_circuit(circuit)
    params = ObfParams(security=security, label_bits=16, token_dim=16)
    worst = 0.0
    for seed in seeds:
        key = qobf(params, program, np.random.default_rng(seed)).key
        for x in all_inputs(circuit.num_input_bits):
            dist = walk(EncodedRegister(key), x)
            worst = max(worst, total_variation(dist, circuit_output_distribution(circuit, x)))
    return worst


# Random 1-2-qubit circuits of at most 6 live wires, so that security 1
# needs at most 18 qubits.
EXACT_CIRCUITS = DETERMINISTIC_CIRCUITS + tuple(
    c
    for c in (
        random_circuit(np.random.default_rng((71, k)), max_qubits=2, max_gates=4, max_t=1)
        for k in range(10)
    )
    if compile_circuit(c).peak_live <= 6
)


@pytest.mark.parametrize(
    "circuit, security",
    [pytest.param(c, 1, id=f"c{k}-security1") for k, c in enumerate(EXACT_CIRCUITS)]
    + [
        pytest.param(c, 2, id=f"c{k}-security2")
        for k, c in enumerate(EXACT_CIRCUITS)
        if compile_circuit(c).peak_live * 5 <= 24
    ],
)
def test_encoded_register_enumerates_the_circuit_exactly(circuit, security):
    """Every input's output distribution of the authenticated route,
    enumerated exactly over the encoded register with three keys,
    equals the circuit's within 1e-12: the acceptance suite's
    deterministic circuits and random 1-2-qubit circuits, at security 1
    and, where the live blocks fit in 24 qubits, at security 2."""
    assert encoded_gap(circuit, security) <= 1e-12


def test_encoded_register_is_exact_past_the_old_qubit_cap():
    """H 1; T 1; H 1 at security 2 admits a wire when 5 blocks, 25 qubits,
    are live, one past the dense layout's cap. Enumerated exactly (4096
    final branches under each of 1024 first-round branches), each input's
    distribution equals the circuit's within 1e-11: the 4,194,304 branch
    probabilities carry about 2.6e-12 of rounding between the outputs."""
    program = compile_circuit(H_T_H)
    assert program.peak_live * 5 > QUBIT_CAP
    assert encoded_gap(H_T_H, 2, seeds=(0,)) <= 1e-11


def test_physical_route_runs_past_the_old_qubit_cap():
    """The README circuit at security 3 has 28 code qubits, past the dense
    cap: the physical route evaluates it, and each input's output lies
    in the circuit's support."""
    program = compile_circuit(CNOT_T)
    for seed, x in enumerate(all_inputs(2)):
        obf = qobf(ObfParams(security=3), program, np.random.default_rng(seed))
        assert obf.num_code_qubits == 28
        y = qeval(x, obf, np.random.default_rng(seed + 10), mode="physical")
        assert not is_bot(y) and y.bits in circuit_output_distribution(CNOT_T, x)


def test_qeval_tracks_nondeterministic_statistics():
    """Sampled evaluation through the oracles reproduces the compiled
    program's output weights on a branching circuit."""
    program = compile_circuit(H_T_H)
    x = BitVector((0,))
    exact = lmeval_distribution(x, program)
    n = 250
    hits = 0
    rng = np.random.default_rng(23)
    for trial in range(n):
        obf = qobf(PARAMS, program, np.random.default_rng(3000 + trial))
        y = qeval(x, obf, rng, mode="logical")
        assert not is_bot(y)
        hits += y.bits == (0,)
    want = exact[(0,)]
    sigma = (want * (1 - want) / n) ** 0.5
    assert abs(hits / n - want) < 5 * sigma


def test_qeval_consumes_the_token():
    program, obf = make_obf(T_ONLY, seed=25)
    x = BitVector((0,))
    assert not is_bot(qeval(x, obf, np.random.default_rng(1)))
    with pytest.raises(RuntimeError):
        qeval(x, obf, np.random.default_rng(2))


@pytest.mark.parametrize("mode", ["logical", "physical"])
def test_the_record_holds_every_query_qeval_sends(mode):
    """On the same seeds, the record of an honest run lists the layer
    queries qeval sends, in order, and last the output query it sends."""
    program = compile_circuit(T_T)
    x = BitVector((1,))
    obf = qobf(PARAMS, program, np.random.default_rng(26))
    sent = []

    def query_f(i, tr, w):
        sent.append((i, tr, w))
        return obf.suite.query_f(i, tr, w)

    def query_g(tr):
        sent.append((program.t + 1, tr, ()))
        return obf.suite.query_g(tr)

    y = qeval(x, obf, np.random.default_rng(27), mode, OracleSuite(query_f, query_g))
    assert y == x
    obf = qobf(PARAMS, program, np.random.default_rng(26))
    record = _honest_run(x, obf, np.random.default_rng(27), mode, obf.suite)
    assert record == sent
    assert [i for i, _, _ in record] == [1, 2, 3]


def test_qeval_trace_and_emission_log():
    program = compile_circuit(T_T)
    obf = qobf(PARAMS, program, np.random.default_rng(27))
    key = obf.key
    base = real_suite(key)
    log: list = []
    trace: list = []

    def query_f(i, tr, w):
        reply = base.query_f(i, tr, w)
        log.append((i, tr, reply[1]))
        trace.append((i, tr.v_layers[-1], w, reply[1]))
        return reply

    def query_g(tr):
        trace.append((key.program.t + 1, tr.v_layers[-1], None, None))
        return base.query_g(tr)

    y = qeval(BitVector((1,)), obf, np.random.default_rng(28), suite=OracleSuite(query_f, query_g))
    assert not is_bot(y)
    assert [entry[0] for entry in trace] == [1, 2, 3]
    assert len(log) == 2
    for i, tr, label in log:
        messages = [label_message(tr, i, bit) for bit in (0, 1)]
        assert label in [prf(key.prf_key, message, key.label_bits) for message in messages]
    assert trace[0][3] == log[0][2]


@pytest.mark.parametrize(
    "security, digest",
    [
        (1, "ab3d6e6c3d66a7a3a1927192eb85cac79a174165e11b453ff8cab11d99a20fd2"),
        (2, "cdea140e20d59a6b5d52fb6c84f4048804ebd904614c104030269b824c329a93"),
    ],
)
def test_physical_honest_runs_are_pinned(security, digest):
    """Seeded physical evaluations of the README circuit (the 20-qubit
    register at security 2) keep their codewords, labels, output and the
    next draw of the evaluation's rng, byte for byte."""
    program = compile_circuit(CNOT_T)
    params = ObfParams(security=security, label_bits=32, token_dim=16)
    h = hashlib.sha256()
    for seed in (0, 1, 2):
        for x, want in (("01", "01"), ("10", "11"), ("11", "10")):
            obf = qobf(params, program, np.random.default_rng(seed))
            final = []

            def query_g(tr):
                final.append(tr)
                return obf.suite.query_g(tr)

            rng = np.random.default_rng(seed + 100)
            suite = OracleSuite(obf.suite.query_f, query_g)
            y = qeval(BitVector.from_string(x), obf, rng, "physical", suite)
            assert str(y) == want
            (tr,) = final
            words = " ".join(" ".join(map(str, layer)) for layer in tr.v_layers)
            labels = " ".join(map(str, tr.labels))
            h.update(f"{words}|{labels}|{y}|{rng.integers(2**62)}\n".encode())
    assert h.hexdigest() == digest


# Digest of test_logical_honest_runs_are_pinned, taken when every wire was
# allocated at the start of a run.
LOGICAL_PIN = "90c759219bfe464982f3355c015b5ddf71012d21036798bebc2ab2979da6524e"

# Qubit 2 is first touched by the CNOT of round 2, below wires 3 and 4,
# which the T gadget of round 1 left live.
LATE_QUBIT_2 = parse_circuit(
    "qubits 2 inputs 2 outputs 1,2\n"
    "T 1\nCNOT 1 2\nT 2\nCNOT 2 1\nH 1\nT 1\nCNOT 1 2\nT 2\n"
    "CNOT 2 1\nT 1\nCNOT 1 2\nT 2\nCNOT 2 1\nT 1\nCNOT 1 2\nCNOT 2 1\n"
)


def test_logical_honest_runs_are_pinned():
    """Seeded logical evaluations of tchain-shaped circuits (7 T, 1 H and
    8 CNOT on two qubits, one circuit per H slot, and one that touches
    qubit 2 only once wires above it are live) keep their codewords,
    labels and output and the next draw of the evaluation's rng, byte
    for byte, through qeval and through lmeval alike."""
    late = compile_circuit(LATE_QUBIT_2).layers
    assert late[0].admit == (1, 3, 4) and late[0].v == (1,) and late[1].admit[0] == 2
    pool = np.random.default_rng(2024)
    circuits = [tchain_circuit(pool, slot) for slot in range(8)] + [LATE_QUBIT_2]
    params = ObfParams(security=2, label_bits=32, token_dim=16)
    h = hashlib.sha256()
    for c, circuit in enumerate(circuits):
        program = compile_circuit(circuit)
        for x in all_inputs(2):
            support = circuit_output_distribution(circuit, x)
            obf = qobf(params, program, np.random.default_rng((c, x.value)))
            final = []

            def query_g(tr, obf=obf, final=final):
                final.append(tr)
                return obf.suite.query_g(tr)

            rng = np.random.default_rng((c, x.value, 1))
            y = qeval(x, obf, rng, "logical", OracleSuite(obf.suite.query_f, query_g))
            assert y.bits in support
            (tr,) = final
            words = " ".join(" ".join(map(str, layer)) for layer in tr.v_layers)
            labels = " ".join(map(str, tr.labels))
            h.update(f"{words}|{labels}|{y}|{rng.integers(2**62)}\n".encode())
            rng = np.random.default_rng((c, x.value, 2))
            ys = [lmeval(x, program, rng) for _ in range(2)]
            assert all(y.bits in support for y in ys)
            h.update(f"{' '.join(map(str, ys))}|{rng.integers(2**62)}\n".encode())
    assert h.hexdigest() == LOGICAL_PIN


def test_logical_codewords_draw_the_per_wire_stream(monkeypatch):
    """The logical route's one draw of a round's coset representatives
    records the codewords, and leaves the generator state, of one
    honest_codeword call per wire."""
    import lmobf.obf as obf_mod

    def per_wire(reads, bits, rng):
        return tuple(honest_codeword(r, b, rng) for r, b in zip(reads, bits))

    program = compile_circuit(LATE_QUBIT_2)
    params = ObfParams(security=2, label_bits=32, token_dim=16)
    accepted = 0
    for seed in range(8):
        x = BitVector.from_int(seed % 4, 2)
        runs = []
        for patch in (False, True):
            if patch:
                monkeypatch.setattr(obf_mod, "honest_codewords", per_wire)
            obf = qobf(params, program, np.random.default_rng(seed))
            rng = np.random.default_rng((seed, 1))
            runs.append((_honest_run(x, obf, rng, "logical", obf.suite), rng.bit_generator.state))
            monkeypatch.undo()
        assert runs[0] == runs[1]
        accepted += not is_bot(runs[0][0])
    assert accepted


def first_row_of_class(codes: np.ndarray) -> np.ndarray:
    """For each row, the index of the first row with its code: equal
    arrays mean equal partitions into classes, in the same order."""
    _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    return first[inverse.reshape(-1)]


@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2]))
@settings(max_examples=40, deadline=None)
def test_read_spec_matches_the_specs_it_replaced(seed, security):
    """On every round of a random compiled program, the spec read_spec
    builds for the encoded register equals the one auth's blownup_spec
    built: tags, consumed blocks and codes, on honest and random rows.
    For the logical register, tags and consumed wires equal those of the
    logical outcome function's spec, and its codes agree in the outputs
    and split every row into the same classes in the same order."""
    rng = np.random.default_rng(seed)
    program = compile_circuit(random_circuit(rng))
    key = qobf(ObfParams(security=security, label_bits=8, token_dim=1), program, rng).key
    p = key.auth_key.code_length
    x = BitVector.from_ints(rng.integers(0, 2, size=program.num_input_bits))
    stored = dict(enumerate(rng.integers(0, 2, size=program.num_wires).tolist(), start=1))
    rs = dict(enumerate(rng.integers(0, 2, size=program.t).tolist(), start=1))
    live: list[int] = []
    for layer in program.layers:
        live = sorted([*live, *layer.admit])

        def binds(m, fn=layer.fn):
            return bind(fn, {**stored, **m}, x, rs)

        got = LogicalRegister(program).spec(layer, live, binds)
        want = reference_logical_spec(layer, live, binds)
        assert (got.basis, got.consumed) == (want.basis, want.consumed)
        rows = np.arange(1 << len(layer.read))
        codes, ref = got.outcome_fn(rows), want.outcome_fn(rows)
        assert np.array_equal(codes & (1 << len(layer.fn.outputs)) - 1, ref)
        assert np.array_equal(first_row_of_class(codes), first_row_of_class(ref))

        reads = tuple(r for r in key.reads[layer.index - 1] if r.wire in layer.read)
        got = EncodedRegister(key).spec(layer, live, binds)
        want = reference_blownup_spec(p, reads, layer.fn, live, layer.v, binds)
        assert (got.basis, got.consumed) == (want.basis, want.consumed)
        if p * len(reads) < 63:  # wider substrings do not fit the int64 rows of a measurement
            honest = [
                concat([honest_codeword(r, int(rng.integers(2)), rng) for r in reads]).value
                for _ in range(64)
            ]
            rows = np.array(honest + rng.integers(0, 1 << p * len(reads), size=64).tolist())
            assert np.array_equal(got.outcome_fn(rows), want.outcome_fn(rows))
        live = [w for w in live if w not in layer.v]


def test_qeval_rejects_on_tampered_suite():
    """A suite whose layer oracle lies about the label makes the final
    oracle refuse the transcript."""
    program = compile_circuit(T_ONLY)
    obf = qobf(PARAMS, program, np.random.default_rng(29))
    key = obf.key
    honest = real_suite(key)

    def lying_f(i, tr, w):
        reply = honest.query_f(i, tr, w)
        if is_bot(reply):
            return reply
        echo, label = reply
        return echo, flip_bit(label, 0)

    suite = OracleSuite(query_f=lying_f, query_g=honest.query_g)
    y = qeval(BitVector((0,)), obf, np.random.default_rng(30), suite=suite)
    assert y == Reject("bad-label", 2)


def test_distinct_obfuscations_same_functionality():
    program = compile_circuit(CNOT_T)
    q_fn = induced_map(program)
    a = qobf(PARAMS, program, np.random.default_rng(31))
    b = qobf(PARAMS, program, np.random.default_rng(32))
    assert a.key.prf_key != b.key.prf_key
    assert a.key.auth_key.space != b.key.auth_key.space
    for x in all_inputs(2):
        ya = qeval(x, qobf(PARAMS, program, np.random.default_rng(33)), np.random.default_rng(35))
        yb = qeval(x, qobf(PARAMS, program, np.random.default_rng(34)), np.random.default_rng(36))
        assert ya == yb == q_fn(x)


def test_qobf_structure_and_validation():
    program = compile_circuit(CNOT_T)
    obf = qobf(PARAMS, program, np.random.default_rng(37))
    p = 2 * PARAMS.security + 1
    assert obf.num_code_qubits == program.num_wires * p
    assert encoded_state(obf).num_qubits == obf.num_code_qubits
    broken = replace(program, v_sets=(program.v_sets[0], program.v_sets[0]))
    with pytest.raises(ValueError):
        qobf(PARAMS, broken, np.random.default_rng(38))
    with pytest.raises(ValueError):
        ObfParams(security=0)
    with pytest.raises(ValueError):
        ObfParams(label_bits=4)
    wide = ObfParams(security=3, label_bits=16, token_dim=4)
    tall = qobf(wide, program, np.random.default_rng(39))
    register = encoded_state(tall)
    assert register.num_qubits == tall.num_code_qubits > QUBIT_CAP
    with pytest.raises(ValueError):
        register.amplitudes


@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2]))
@settings(max_examples=40, deadline=None)
def test_oracle_key_reads_match_the_per_round_reference(seed, security):
    """The one-pass read table equals wire_reads on every CNOT of rounds
    1..i, round by round."""
    rng = np.random.default_rng(seed)
    program = compile_circuit(random_circuit(rng, max_gates=10, max_t=4))
    auth_key = gen(security, program.num_wires, rng)
    key = OracleKey(auth_key, 4, tok_gen(4, program.num_input_bits, rng).vk, b"k", 16, program)
    cnots = ()
    for layer, reads in zip(program.layers, key.reads, strict=True):
        cnots += layer.cnots
        assert reads == wire_reads(auth_key, cnots, layer.theta)


def test_oracle_key_build_is_linear_in_program_length():
    """A 3-qubit chain of 800 T and CNOT gates (537 wires, 268 rounds)
    builds its OracleKey well inside a budget that a build pushing the
    masks through every earlier round's CNOTs again overran."""
    rng = np.random.default_rng(19)
    gates = []
    for _ in range(800):
        if rng.random() < 1 / 3:
            gates.append(Gate("T", (int(rng.integers(1, 4)),)))
        else:
            a, b = rng.permutation(3)[:2] + 1
            gates.append(Gate("CNOT", (int(a), int(b))))
    program = compile_circuit(Circuit(1, 3, tuple(gates), (1, 2, 3)))
    assert (program.num_wires, program.t) == (537, 267)
    rng = np.random.default_rng(20)
    auth_key, vk = gen(1, program.num_wires, rng), tok_gen(16, 1, rng).vk
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        OracleKey(auth_key, 16, vk, b"k" * 32, 16, program)
        best = min(best, time.perf_counter() - start)
    assert best < 0.25


def test_scaled_label_width():
    params = ObfParams(security=2, label_bits=64, scaled_labels=True)
    assert params.labels_for(3) == 81
    assert params.labels_for(1) == 8
    program = compile_circuit(T_ONLY)
    obf = qobf(params, program, np.random.default_rng(40))
    assert obf.key.label_bits == 81


def test_induced_map_requires_determinism():
    with pytest.raises(ValueError):
        induced_map(compile_circuit(H_T_H))(BitVector((0,)))


# --- attack harness -------------------------------------------------------------


@pytest.mark.parametrize("kind", ["pauli-tamper", "label-forge", "replay", "mixed-input"])
def test_attacks_all_rejected(kind):
    program = compile_circuit(T_T)
    obf = qobf(ObfParams(security=2, label_bits=16, token_dim=16), program, np.random.default_rng(41))
    report = attack_harness(kind, obf, np.random.default_rng(42), trials=20)
    assert report.accepted == 0
    assert report.rejected == report.trials > 0
    text = report.to_text()
    assert text.startswith(f"attack {kind}")
    assert f"rejected {report.rejected}" in text


def test_attack_reason_codes():
    program = compile_circuit(T_T)
    params = ObfParams(security=2, label_bits=16, token_dim=16)
    obf = qobf(params, program, np.random.default_rng(43))
    tamper = attack_harness("pauli-tamper", obf, np.random.default_rng(44), trials=15)
    assert set(tamper.reasons) == {"decode-fail"}
    obf = qobf(params, program, np.random.default_rng(45))
    forge = attack_harness("label-forge", obf, np.random.default_rng(46), trials=15)
    assert set(forge.reasons) == {"bad-label"}
    obf = qobf(params, program, np.random.default_rng(47))
    mixed = attack_harness("mixed-input", obf, np.random.default_rng(48), trials=15)
    assert set(mixed.reasons) == {"sign-consumed"}
    assert mixed.notes and "rejected" in mixed.notes[0]


H_ONLY = Circuit(1, 1, (Gate("H", (1,)),), (1,))
H_T_T_H = Circuit(1, 1, (Gate("H", (1,)), Gate("T", (1,)), Gate("T", (1,)), Gate("H", (1,))), (1,))


@pytest.mark.parametrize("circuit", [CNOT_T, H_T_T_H, H_ONLY], ids=["cnot-t", "h-t-t-h", "h"])
def test_attacks_tally_alike_against_the_real_and_the_simulated_oracles(circuit):
    """Each attack kind, on two obfuscations from one seed, one answered
    by its real suite and one by the simulated suite on its own V_k,
    gives the same report text on the same seeds. label-forge and replay
    refuse the H program (t = 0) with one message either way."""
    program = compile_circuit(circuit)
    q_fn = induced_map(program)
    for seed in (70, 71, 72):
        for kind in ("pauli-tamper", "label-forge", "replay", "mixed-input"):
            texts = []
            for simulated in (False, True):
                obf = qobf(PARAMS, program, np.random.default_rng(seed))
                if simulated:
                    obf = replace(obf, suite=simulated_suite(obf.key.chain, obf.key.verify, q_fn))
                try:
                    report = attack_harness(kind, obf, np.random.default_rng(seed + 10), trials=50)
                except ValueError as exc:
                    texts.append(f"refused: {exc}")
                else:
                    texts.append(report.to_text())
            real, sim = texts
            assert real == sim
            refused = program.t == 0 and kind in ("label-forge", "replay")
            assert real.startswith("refused: ") == refused


def test_attacks_send_every_query_to_the_programs_suite():
    """The honest run and every tampered query of an attack go to
    program.suite: the t layer queries of the run, then one query per
    tallied trial (one in all for mixed-input's note), at round 2 for the
    label attacks and round 1 otherwise. A suite that refuses the honest
    run gets its Reject back."""
    program = compile_circuit(T_T)
    for kind in ("pauli-tamper", "label-forge", "replay", "mixed-input"):
        obf = qobf(PARAMS, program, np.random.default_rng(73))
        base, asked = obf.suite, []

        def query_f(i, tr, w, base=base, asked=asked):
            asked.append(i)
            return base.query_f(i, tr, w)

        obf.suite = OracleSuite(query_f, base.query_g)
        report = attack_harness(kind, obf, np.random.default_rng(74), trials=20)
        i = 2 if kind in ("label-forge", "replay") else 1
        assert asked == [1, 2] + [i] * (1 if kind == "mixed-input" else report.trials)
    obf = qobf(PARAMS, program, np.random.default_rng(75))
    obf.suite = OracleSuite(lambda i, tr, w: Reject("bad-token", i), obf.suite.query_g)
    refused = attack_harness("replay", obf, np.random.default_rng(76), trials=5)
    assert refused == Reject("bad-token", 1)


def test_attack_harness_guards():
    program, obf = make_obf(IDENTITY, seed=49)
    with pytest.raises(ValueError):
        attack_harness("label-forge", obf, np.random.default_rng(50), trials=3)
    with pytest.raises(ValueError):
        attack_harness("nonsense", obf, np.random.default_rng(51), trials=3)


# --- serialization and wire protocol ---------------------------------------------


def test_oracle_key_text_roundtrip():
    program, obf = make_obf(CNOT_T, seed=53)
    key = obf.key
    revived = oracle_key_from_text(oracle_key_to_text(key))
    assert revived.label_bits == key.label_bits
    assert revived.prf_key == key.prf_key
    assert revived.token_dim == key.token_dim
    assert revived.token_vk == key.token_vk
    assert revived.program == key.program
    assert revived.auth_key.space == key.auth_key.space
    assert revived.auth_key.x_masks == key.auth_key.x_masks


def test_cut_or_blanked_key_text_fails_with_value_error():
    """Cutting the oracle key text after any line, or blanking any one
    line, raises ValueError or still parses; no other exception escapes
    the parsers."""
    _, obf = make_obf(H_T_H, seed=54)
    lines = oracle_key_to_text(obf.key).splitlines()
    for k in range(len(lines)):
        for text in (lines[:k], lines[:k] + [""] + lines[k + 1 :]):
            try:
                oracle_key_from_text("\n".join(text))
            except ValueError:
                pass


def test_wire_protocol_matches_in_process():
    x = BitVector((1, 0))
    obf, queries, transcript = honest_transcript(CNOT_T, x, seed=55)
    key = obf.key
    layer, tr, w_pair = queries[0]
    line = encode_f_request(layer, tr, w_pair)
    answer = handle_request_line(key, line)
    echo, label = oracle_f(key, layer, tr, w_pair)
    assert answer.startswith("OK ")
    _, echo_hex, label_hex = answer.split()
    assert read_frames(bytes.fromhex(echo_hex))[0].bits == tuple(
        b for v in echo for b in v.bits
    )
    assert read_frames(bytes.fromhex(label_hex))[0] == label

    g_line = encode_g_request(transcript)
    g_answer = handle_request_line(key, g_line)
    assert g_answer == f"OK {frame_bits(oracle_g(key, transcript).bits).hex()}"


def test_wire_protocol_rejections():
    """Malformed lines, and an honest F payload under any index outside
    1..t or any spelling of an index but its plain decimal, are answered
    BOT."""
    obf, queries, _ = honest_transcript(T_ONLY, BitVector((0,)), seed=57)
    key = obf.key
    t = key.program.t
    payload = encode_f_request(*queries[0]).split()[2]
    assert handle_request_line(key, f"F 1 {payload}").startswith("OK ")
    for i in (0, t + 1, t + 2, -1, 10**30, "+1", "01", "0_1", "\u0661"):
        assert handle_request_line(key, f"F {i} {payload}") == "BOT"
    assert handle_request_line(key, "F 9 00") == "BOT"
    assert handle_request_line(key, "gibberish") == "BOT"
    assert handle_request_line(key, "F 1 zz") == "BOT"
    assert handle_request_line(key, "G 0000") == "BOT"


_WIRE_CHAR = st.sampled_from("0123456789abcdefFGOK z")
_MUTATIONS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["flip", "insert"]), st.integers(0), _WIRE_CHAR),
        st.tuples(st.sampled_from(["delete", "truncate"]), st.integers(0), st.just("")),
    ),
    min_size=1,
    max_size=3,
)


@functools.lru_cache(maxsize=None)
def _honest_lines():
    """The oracle key and the request lines of one honest evaluation of
    CNOT_T: its layer query and its output query."""
    obf, queries, transcript = honest_transcript(CNOT_T, BitVector((1, 0)), seed=58)
    lines = [encode_f_request(i, tr, w) for i, tr, w in queries] + [encode_g_request(transcript)]
    return obf.key, tuple(lines)


def _oracle_reply_line(key, line: str) -> str:
    """The reply line of the in-process oracle to the fields that the
    request line parses to; BOT where it parses to no request or the
    oracle refuses."""
    parts = line.split()
    indices = [str(i) for i in range(1, key.program.t + 1)]
    try:
        if len(parts) == 3 and parts[0] == "F" and parts[1] in indices:
            i = int(parts[1])
            fields = read_frames(bytes.fromhex(parts[2]))
            layer = key.program.layers[i - 1]
            reply = oracle_f(key, i, *_parse_request_fields(key.chain, fields, layer))
            if not is_bot(reply):
                return f"OK {frame_group(reply[0]).hex()} {frame(reply[1]).hex()}"
        elif len(parts) == 2 and parts[0] == "G":
            fields = read_frames(bytes.fromhex(parts[1]))
            tr, _ = _parse_request_fields(key.chain, fields, key.program.layers[-1])
            reply = oracle_g(key, tr)
            if not is_bot(reply):
                return f"OK {frame(reply).hex()}"
    except ValueError:
        pass
    return "BOT"


@given(st.sampled_from([0, 1]), _MUTATIONS)
@settings(max_examples=300, deadline=None)
def test_mutated_request_lines_get_bot_or_the_oracle_reply(which, mutations):
    """An honest request line with characters flipped, inserted or
    deleted, or cut short, gets BOT or exactly the in-process oracle's
    reply to its fields, and never an exception."""
    key, lines = _honest_lines()
    line = lines[which]
    for kind, pos, char in mutations:
        pos %= len(line) + 1
        if kind == "flip":
            line = line[:pos] + char + line[pos + 1 :]
        elif kind == "insert":
            line = line[:pos] + char + line[pos:]
        elif kind == "delete":
            line = line[:pos] + line[pos + 1 :]
        else:
            line = line[:pos]
    assert handle_request_line(key, line) == _oracle_reply_line(key, line)


def test_remote_suite_end_to_end():
    program = compile_circuit(T_T)
    q_fn = induced_map(program)
    obf = qobf(PARAMS, program, np.random.default_rng(59))
    key_text = oracle_key_to_text(obf.key)
    suite = remote_suite(
        oracle_key_from_text(key_text).chain, lambda line: handle_request_line(obf.key, line)
    )
    x = BitVector((1,))
    y = qeval(x, obf, np.random.default_rng(60), mode="logical", suite=suite)
    assert y == q_fn(x)


def _frame_ends(raw: bytes) -> list[tuple[int, int]]:
    """(bit count, end offset) of each frame of well-formed frame bytes."""
    at, out = 0, []
    while at < len(raw):
        n = int.from_bytes(raw[at : at + 4], "big")
        at += 4 + (n + 7) // 8
        out.append((n, at))
    return out


def _with_pad_bits(line: str, frames) -> str:
    """The request line with every pad bit of the given frames set."""
    *head, payload = line.split()
    raw = bytearray.fromhex(payload)
    for n, end in frames:
        raw[end - 1] |= (1 << (-n & 7)) - 1
    return " ".join(head + [raw.hex()])


def test_pad_bits_of_any_frame_are_ignored():
    """Setting the pad bits of any frame of an honest F or G line, or of
    all of them at once, gets exactly the reply to the canonical line."""
    key, lines = _honest_lines()
    for line in lines:
        want = handle_request_line(key, line)
        assert want.startswith("OK ")
        padded = [f for f in _frame_ends(bytes.fromhex(line.split()[-1])) if f[0] % 8]
        assert len(padded) >= 3
        for f in padded:
            assert _with_pad_bits(line, [f]) != line
            assert handle_request_line(key, _with_pad_bits(line, [f])) == want
        assert handle_request_line(key, _with_pad_bits(line, padded)) == want


@given(
    st.binary(min_size=1, max_size=80),
    st.binary(max_size=400),
    st.lists(st.integers(0, 400), max_size=4),
    st.integers(1, 1024),
)
@settings(max_examples=150, deadline=None)
def test_prf_of_a_running_hmac_equals_prf_of_the_bytes(key, message, cuts, num_bits):
    """prf over a running HMAC fed the message in pieces, split at any
    points, gives the bits prf gives over the message bytes, at widths of
    one to four digests."""
    running = hmac_mod.new(key, digestmod=hashlib.sha256)
    at = 0
    for cut in sorted(c % (len(message) + 1) for c in cuts) + [len(message)]:
        running.update(message[at:cut])
        at = cut
    assert prf(key, running, num_bits) == prf(key, message, num_bits)


@functools.lru_cache(maxsize=None)
def _wide_label_lines(label_bits: int):
    """The key and the request lines of one honest evaluation of T_T
    (t = 2) under labels of label_bits bits."""
    _, obf = make_obf(T_T, seed=63, params=replace(PARAMS, label_bits=label_bits))
    x = BitVector((1,))
    *queries, (_, final, _) = _honest_run(x, obf, np.random.default_rng(64), "logical", obf.suite)
    assert obf.suite.query_g(final) == x
    lines = [encode_f_request(*query) for query in queries] + [encode_g_request(final)]
    return obf.key, tuple(lines)


@pytest.mark.parametrize("label_bits", [300, 513])
def test_wide_labels_over_the_wire_match_the_reference(label_bits):
    """Labels of two and three HMAC digests over the wire: each honest
    line, and the line with any one payload bit flipped, gets the reply
    of the reference parse and the in-process oracle."""
    key, lines = _wide_label_lines(label_bits)
    for line in lines:
        assert handle_request_line(key, line).startswith("OK ")
        *head, payload = line.split()
        raw = bytes.fromhex(payload)
        for bit in range(8 * len(raw)):
            flipped = bytearray(raw)
            flipped[bit // 8] ^= 0x80 >> bit % 8
            tampered = " ".join(head + [flipped.hex()])
            assert handle_request_line(key, tampered) == _oracle_reply_line(key, tampered)
