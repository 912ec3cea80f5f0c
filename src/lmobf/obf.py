"""Obfuscated evaluation of compiled measurement programs.

The obfuscator wraps a program's initial state in the coset-code
authentication layer, attaches a one-shot signature token for the
classical input, and publishes one classical oracle per measurement
layer plus a final output oracle. Every oracle runs one body, _answer,
whose checks come in this order, the first failure being the refusal:
the token; the count and widths of every round's codewords; the replay
of a hash chain that commits to every earlier measurement record; the
opening of the round. A layer oracle then answers with the next chained
label, the output oracle with the program output. The body reads one
Request: the framed bytes of the query, which _framed builds once from a
Transcript and which a wire request line already is, with the input,
signature and labels read off them and each round's codewords packed in
one int; the pad bits of a frame's last byte are ignored. One running
inner hash, started from the PRF key's HMAC pads, which the Chain works
out once, replays the chain over those bytes, so a query hashes each
byte once, not every prefix again. The opening gets one covered word,
the codewords of the round's covered wires cut from the packed rounds.
Real and simulated oracles share the body over a Chain and differ only
in how a round is opened: the real ones decode the word through
OracleKey.reads, simulated_suite(chain, verify, q_fn) splits it and only
calls verify, the V_k of OracleKey.verify, as in the paper: "we can
implement these simulated oracles just given access to the
public-verification oracles V_k". Both reject exactly the same queries.

Evaluation drives the encoded register through the transversal CNOT
layers, admitting each wire's masked block at the first layer that
touches it. Each layer fully reads the blocks of the newly collapsing
wires but takes only one bit from the layer's measurement pair, the
bit the layer function exposes, so the pair's blocks stay in coherent
coset superpositions for their deferred reads; the pair vectors handed
to the oracle are a consistent sample from inside the observed class.
A logical evaluation route produces the same records from the
unencoded program wires and dresses them in random coset
representatives, which keeps larger parameter choices inside the
simulator's qubit budget.
"""

from __future__ import annotations

import hashlib
import hmac
import struct
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .auth import (
    AuthKey,
    CodewordTuple,
    Reads,
    WireRead,
    dec,
    dec_words,
    enc,
    gen,
    honest_codewords,
    key_to_text,
    lin_eval,
    pauli_update,
    read_key,
    ver,
)
from .gf2 import BitVector, Subspace, concat, split
from .lm import (
    Layer,
    LMProgram,
    LogicalRegister,
    bind,
    fn_code,
    initial_state,
    lmeval_distribution,
    place,
    program_to_text,
    read_program,
    read_spec,
    walk,
)
from .sim import BOT, QUBIT_CAP, StateVector, measure  # noqa: F401  (measure is re-exported)
from .text import LineReader, parse
from .tokens import (
    Signature,
    TokenKeypair,
    read_vk,
    tok_gen,
    tok_sign,
    tok_ver,
    vk_to_text,
)

REASON_BAD_TOKEN = "bad-token"
REASON_BAD_LABEL = "bad-label"
REASON_COLLISION = "label-collision"
REASON_DECODE = "decode-fail"
# The wire protocol answers every refusal with a bare BOT, so a client of
# oracle-serve sees this one reason whatever the oracle's was.
REASON_REMOTE = "remote-bot"

# Widest label accepted. Labels are hashed and framed on every oracle
# query, and paper-sized labels (wires**4 bits) pass it only up to 32 wires.
MAX_LABEL_BITS = 1 << 20


# --- parameters and key material ---------------------------------------------


def check_label_bits(bits: int) -> None:
    """Raise ValueError unless labels of this width are 8 to
    MAX_LABEL_BITS bits wide."""
    if bits < 8:
        raise ValueError("labels shorter than 8 bits are not collision safe")
    if bits > MAX_LABEL_BITS:
        raise ValueError(f"labels of {bits} bits are wider than the cap of {MAX_LABEL_BITS}")


@dataclass(frozen=True)
class ObfParams:
    """Knobs of one obfuscation run.

    security sizes the per-wire code (length 2*security+1), label_bits
    sizes the chained labels, token_dim sizes the signature token's
    hidden subspaces. With scaled_labels the label width grows as
    max(security, wires**4) instead of staying at the fixed default.
    """

    security: int = 2
    label_bits: int = 64
    token_dim: int = 16
    scaled_labels: bool = False

    def __post_init__(self) -> None:
        if self.security < 1:
            raise ValueError("security must be at least 1")
        if self.token_dim < 1:
            raise ValueError("token_dim must be at least 1")
        check_label_bits(self.label_bits)

    def labels_for(self, num_wires: int) -> int:
        if self.scaled_labels:
            return max(8, self.security, num_wires**4)
        return self.label_bits


@dataclass(frozen=True)
class Chain:
    """What every oracle, real or simulated, closes over: the token vk and
    its token_dim (kappa'), the label PRF key and width, the program and
    its codeword length; nothing of the authentication key's code or masks.
    A query's layout is the program's (Layer.counts and Layer.at)."""

    token_dim: int
    token_vk: tuple[Subspace, ...]
    prf_key: bytes
    label_bits: int
    program: LMProgram
    code_length: int
    # The PRF key's HMAC pads, worked out once: every label hash starts
    # from copies of them.
    pads: KeyPads = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.token_vk) != self.program.num_input_bits:
            raise ValueError("token must cover every input bit")
        if any(s.ambient_dim != 2 * self.token_dim for s in self.token_vk):
            raise ValueError("token subspace width must be 2*token_dim")
        check_label_bits(self.label_bits)
        if not self.prf_key:
            raise ValueError("empty PRF key")
        if violations := self.program.violations:
            raise ValueError("program fails structural checks: " + "; ".join(violations))
        object.__setattr__(self, "pads", key_pads(self.prf_key))


@dataclass(frozen=True)
class OracleKey:
    """Everything the real oracles close over: the authentication key
    and the fields of the Chain, which is built from them. reads holds,
    per round i, the WireRead of every wire in phi_i, equal to
    auth.wire_reads on the CNOTs of rounds 1..i: one pass builds them,
    and a collapsed wire's read is shared."""

    auth_key: AuthKey
    token_dim: int
    token_vk: tuple[Subspace, ...]
    prf_key: bytes
    label_bits: int
    program: LMProgram
    chain: Chain = field(init=False, repr=False, compare=False)
    reads: tuple[Reads, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.auth_key.num_wires != self.program.num_wires:
            raise ValueError("authentication key width must match the program")
        public = (self.token_dim, self.token_vk, self.prf_key, self.label_bits, self.program)
        object.__setattr__(self, "chain", Chain(*public, self.auth_key.code_length))
        # The structural rules: a collapsed wire keeps its basis and no CNOT touches it.
        key, read_of, reads = self.auth_key, {}, []
        xs, zs = key.x_masks, key.z_masks
        for ly in self.program.layers:
            xs, zs = pauli_update(ly.cnots, xs, zs)
            read_of.update((w, WireRead.of(key, w, ly.theta[w - 1], xs, zs)) for w in ly.read)
            reads.append(tuple(read_of[w] for w in ly.phi))
        object.__setattr__(self, "reads", tuple(reads))

    def verify(self, i: int, codewords: CodewordTuple) -> bool:
        """V_k of round i: every covered codeword in its accepted coset union."""
        return ver(self.auth_key, self.reads[i - 1], codewords)

    def open_round(self, layer: Layer, x: BitVector, rs: dict[int, int], covered: int):
        """The real oracles' opening of a round: decode the covered word,
        the codewords of phi packed in wire order, then the round's
        function. Returns its chain bit r, or the output bits on the final
        round; None if decoding fails."""
        bits = dec_words(self.reads[layer.index - 1], covered)
        if bits == BOT:
            return None
        top = len(layer.phi) - 1
        m = {w: bits >> top - k & 1 for k, w in enumerate(layer.phi)}
        code = fn_code(layer.fn, bind(layer.fn, m, x, rs), 0)
        # The structural rules make r a layer function's last output.
        return BitVector.from_int(code, len(layer.fn.outputs)) if layer.final else code & 1


# --- label PRF and transcript framing ----------------------------------------

# Byte maps that XOR every byte with HMAC's inner and outer pad bytes.
_INNER = bytes(b ^ 0x36 for b in range(256))
_OUTER = bytes(b ^ 0x5C for b in range(256))


class KeyPads(NamedTuple):
    """The SHA-256 states of an HMAC key after its inner and outer pads
    (RFC 2104): HMAC(key, m) is outer updated with the digest of inner
    updated with m."""

    inner: "hashlib._Hash"
    outer: "hashlib._Hash"


def key_pads(key: bytes) -> KeyPads:
    """The pads of key, which is hashed first if it is longer than
    SHA-256's 64-byte block."""
    if len(key) > 64:
        key = hashlib.sha256(key).digest()
    key = key.ljust(64, b"\0")
    return KeyPads(hashlib.sha256(key.translate(_INNER)), hashlib.sha256(key.translate(_OUTER)))


def prf(key, message, num_bits: int) -> BitVector:
    """Deterministic keyed hash truncated to num_bits (HMAC-SHA256 core,
    counter-extended when the requested width passes one digest).

    key is the key's bytes or its KeyPads. message is bytes; or the
    inner hash of the message, a copy of the key's KeyPads.inner updated
    with its bytes, which prf finishes with a copy of the outer pad; or
    the running HMAC of the message under key (hmac.new(key,
    digestmod=hashlib.sha256) updated with its bytes). The last two give
    the same bits without hashing the message again; prf uses them up,
    so pass a copy of one that is still needed."""
    if num_bits < 1:
        raise ValueError("label width must be positive")
    outer = None
    if not isinstance(message, hmac.HMAC):
        pads = key if isinstance(key, KeyPads) else key_pads(key)
        outer = pads.outer
        if isinstance(message, (bytes, bytearray, memoryview)):
            inner = pads.inner.copy()
            inner.update(message)
            message = inner
    last = (num_bits - 1) // 256
    digests: list[bytes] = []
    for counter in range(last + 1):
        block = message if counter == last else message.copy()
        block.update(counter.to_bytes(4, "big"))
        if outer is not None:
            inner_digest, block = block.digest(), outer.copy()
            block.update(inner_digest)
        digests.append(block.digest())
    # Drop the bits past num_bits, -num_bits mod 256, from the last digest.
    value = int.from_bytes(b"".join(digests), "big") >> (-num_bits & 255)
    return BitVector.from_int(value, num_bits)


# A frame's header: its bit count, 4 bytes big-endian.
_HEADER = struct.Struct(">I")


def frame(v: BitVector) -> bytes:
    """Length-prefixed packing: 4-byte big-endian bit count, then the
    bits MSB-first, zero-padded to whole bytes. Unambiguous under
    concatenation."""
    nbytes = (len(v) + 7) // 8
    return len(v).to_bytes(4, "big") + (v.value << (8 * nbytes - len(v))).to_bytes(nbytes, "big")


def frame_group(vectors: Sequence[BitVector]) -> bytes:
    """One frame holding the concatenation of several equal-role vectors
    (a signature, or one layer's codewords in wire order)."""
    return frame(concat(vectors))


def _frames(buf: bytearray) -> list[tuple[int, int, int]]:
    """Each frame of a frame sequence as (packed value, bit count, offset
    where it ends), zeroing in buf the pad bits of its last byte; raises
    ValueError on truncated bytes."""
    frames, at, size = [], 0, len(buf)
    while at < size:
        if at + 4 > size:
            raise ValueError("truncated frame header")
        (n,) = _HEADER.unpack_from(buf, at)
        start, at = at + 4, at + 4 + (n + 7 >> 3)
        if at > size:
            raise ValueError("truncated frame body")
        pad = -n & 7
        value = int.from_bytes(buf[start:at], "big")
        if value & (1 << pad) - 1:
            buf[at - 1] &= 0xFF << pad & 0xFF
        frames.append((value >> pad, n, at))
    return frames


def read_frames(raw: bytes) -> list[BitVector]:
    """Inverse of a frame sequence; rejects truncated bytes."""
    return [BitVector.from_int(value, n) for value, n, _ in _frames(bytearray(raw))]


@dataclass(frozen=True)
class Transcript:
    """Growing record of one evaluation: the input, its signature, and
    per layer the submitted codewords (ascending wire order within each
    layer) interleaved with the labels the oracles handed back."""

    x: BitVector
    signature: Signature
    v_layers: tuple[CodewordTuple, ...] = ()
    labels: tuple[BitVector, ...] = ()

    def __post_init__(self) -> None:
        if len(self.labels) not in (len(self.v_layers), len(self.v_layers) - 1):
            raise ValueError("labels must trail the codeword layers by at most one")

    def with_codewords(self, v: CodewordTuple) -> "Transcript":
        return replace(self, v_layers=self.v_layers + (v,))

    def with_label(self, label: BitVector) -> "Transcript":
        return replace(self, labels=self.labels + (label,))


def _framed(transcript: Transcript) -> tuple[bytes, list[int]]:
    """The one framing pass: each field of the transcript framed once, in
    the order x, signature, then each codeword layer followed by its label
    where it has one. Returns the bytes and, per codeword layer, the
    offset where its frame ends: the prefix up to there is what the
    layer's label hashes."""
    v_layers, labels = transcript.v_layers, transcript.labels
    parts = [frame(transcript.x), frame_group(transcript.signature)]
    at = len(parts[0]) + len(parts[1])
    ends = []
    for idx, layer in enumerate(v_layers):
        parts.append(frame_group(layer))
        at += len(parts[-1])
        ends.append(at)
        if idx < len(labels):
            parts.append(frame(labels[idx]))
            at += len(parts[-1])
    return b"".join(parts), ends


def request_payload(transcript: Transcript) -> bytes:
    """The framed transcript: the input, the signature, then each
    codeword layer followed by its label where it has one."""
    return _framed(transcript)[0]


class Request(NamedTuple):
    """One oracle query as the oracle body reads it. payload is the
    framed transcript (pad bits zero), followed by the pair's frame on a
    layer query from the wire; ends[k] is where codeword round k+1's
    frame ends in it. x and signature are for the token check, and
    labels are (value, width) pairs. rounds holds each round's codewords
    packed in one int as its frame holds them, the first codeword the
    most significant, and the pair last (0 on the final round). shaped
    says whether every round holds its layer's count of code-length
    codewords: only a Transcript can carry other shapes, since a wire
    frame of another width does not scan."""

    payload: bytes
    ends: tuple[int, ...]
    x: BitVector
    signature: Signature
    labels: tuple[tuple[int, int], ...]
    rounds: tuple[int, ...]
    shaped: bool = True


def _request(chain: Chain, layer: Layer, tr: Transcript, w_pair: CodewordTuple) -> Request:
    """The Request of a query at layer on a Transcript and the pair: the
    transcript framed once by _framed, each round packed once, and the
    count and widths of the codewords of every round and of the pair
    checked against the program."""
    payload, ends = _framed(tr)
    i, rounds = layer.index, tr.v_layers + (w_pair,)
    shaped = (
        len(tr.labels) == i - 1
        and tuple(map(len, rounds)) == layer.counts
        and all(c.length == chain.code_length for words in rounds for c in words)
    )
    return Request(
        payload,
        tuple(ends),
        tr.x,
        tr.signature,
        tuple((label.value, label.length) for label in tr.labels),
        tuple(concat(words).value for words in rounds),
        shaped,
    )


def _scan(chain: Chain, layer: Layer, raw: bytes) -> Request:
    """The Request of a query at layer whose frames raw holds: x, the
    signature, each round with its label but the last, then the pair
    unless layer is the final round. One pass over the frame headers,
    zeroing the pad bits of each frame's last byte; raises ValueError
    unless raw is exactly such frames, with the signature, every round
    and the pair as wide as the key makes them."""
    buf = bytearray(raw)
    frames = _frames(buf)
    i = layer.index
    if len(frames) != 2 * i + 1 + (not layer.final):
        raise ValueError("wrong number of frames")
    values, widths, ends = zip(*frames)
    # Frames 2, 4, ..., 2i are the codeword rounds, 3, 5, ..., 2i-1 the labels.
    rounds, labels = slice(2, 2 * i + 1, 2), slice(3, 2 * i, 2)
    pair, pair_width = (0, 0) if layer.final else frames[-1][:2]
    p, counts = chain.code_length, layer.counts
    if widths[rounds] + (pair_width,) != tuple(p * n for n in counts):
        raise ValueError("a codeword round is not its count of code-length codewords")
    sigma = BitVector.from_int(values[1], widths[1])
    return Request(
        bytes(buf),
        ends[rounds],
        BitVector.from_int(values[0], widths[0]),
        split(sigma, chain.program.num_input_bits, 2 * chain.token_dim),
        tuple(zip(values[labels], widths[labels])),
        values[rounds] + (pair,),
    )


# The frames of the one-bit chain bits that end every label message.
_CHAIN_BITS = (frame(BitVector((0,))), frame(BitVector((1,))))


def _label(chain: Chain, running, bit: int) -> BitVector:
    """The chained label of a framed prefix ending in a codeword layer,
    from the running inner hash of that prefix (a copy of
    chain.pads.inner updated with it), which is left as it was."""
    message = running.copy()
    message.update(_CHAIN_BITS[bit & 1])
    return prf(chain.pads, message, chain.label_bits)


# --- oracle internals ---------------------------------------------------------


@dataclass(frozen=True)
class Reject:
    """An oracle's refusal: why (one of the REASON_* codes) and at which
    layer (t+1 for the output oracle). On the wire it is a bare BOT."""

    reason: str
    layer: int


def is_bot(reply: object) -> bool:
    """True for a rejection."""
    return isinstance(reply, Reject)


def _round(chain: Chain, i: int) -> Layer:
    """The Layer a layer oracle answers for; raises past 1..t."""
    if not 1 <= i <= chain.program.t:
        raise ValueError(f"layer {i} out of range 1..{chain.program.t}")
    return chain.program.layers[i - 1]


def _answer(chain: Chain, open_: Callable, layer: Layer, query, w_pair: CodewordTuple = ()):
    """The one oracle body, on a Request, or on a Transcript and the pair
    (empty on the final round), whose Request _request builds. In order
    it checks the token; the codeword count and widths of every round and
    of the pair; the label-chain replay; then open_(layer, x, chain bits,
    covered word), which gives the round's chain bit, the output bits on
    the final round, or None for a decode-fail. The covered word packs
    the codeword of every wire of phi, in wire order, the first the most
    significant, cut from the packed rounds by Layer.at. The first
    failure is the Reject. A layer round replies with its echoed
    codewords and the label of its bit: on a Transcript the tuple it
    holds, on a Request the round's packed word as one BitVector."""
    i = layer.index
    req = query if isinstance(query, Request) else _request(chain, layer, query, w_pair)
    if not tok_ver(chain.token_vk, req.x, req.signature):
        return Reject(REASON_BAD_TOKEN, i)
    if not req.shaped:
        return Reject(REASON_DECODE, i)
    # Each earlier label must be one of its layer's two candidate hashes;
    # the matching trailing bit is that layer's chain bit. One inner hash
    # runs over the payload and is copied at the end of each codeword round.
    running = chain.pads.inner.copy()
    payload, start, rs = memoryview(req.payload), 0, {}
    for idx, (end, (value, width)) in enumerate(zip(req.ends, req.labels), start=1):
        running.update(payload[start:end])
        start = end
        cand0, cand1 = _label(chain, running, 0).value, _label(chain, running, 1).value
        if cand0 == cand1:
            return Reject(REASON_COLLISION, i)
        if width != chain.label_bits or value not in (cand0, cand1):
            return Reject(REASON_BAD_LABEL, i)
        rs[idx] = int(value == cand1)
    p, counts, rounds = chain.code_length, layer.counts, req.rounds
    covered, mask = 0, (1 << p) - 1
    for k, j in layer.at:
        covered = covered << p | rounds[k] >> p * (counts[k] - 1 - j) & mask
    opened = open_(layer, req.x, rs, covered)
    if opened is None:
        return Reject(REASON_DECODE, i)
    if layer.final:
        return opened
    running.update(payload[start : req.ends[i - 1]])
    label = _label(chain, running, opened)
    if isinstance(query, Request):
        return BitVector.from_int(rounds[i - 1], p * counts[i - 1]), label
    return query.v_layers[-1], label


# --- the oracles --------------------------------------------------------------


def oracle_f(key: OracleKey, i: int, transcript, w_pair: CodewordTuple = ()):
    """Layer-i oracle on a Transcript and the pair, or on the Request of
    a request line: token check, label-chain replay, decode of every
    codeword the i-th measurement covers, then the next chained label.
    Accepts with (echoed layer codewords, label), the codewords packed in
    one BitVector on a Request; rejects with a Reject."""
    return _answer(key.chain, key.open_round, _round(key.chain, i), transcript, w_pair)


def oracle_g(key: OracleKey, transcript):
    """Output oracle on a Transcript or a Request: token check, full
    label-chain replay, decode over the final measurement's wires, then
    the program's output bits."""
    return _answer(key.chain, key.open_round, key.program.layers[-1], transcript)


def oracle_f_sim(key: OracleKey, i: int, transcript: Transcript, w_pair: CodewordTuple):
    """The simulated layer oracle of simulated_suite on key's own V_k."""
    return simulated_suite(key.chain, key.verify, None).query_f(i, transcript, w_pair)


def oracle_g_sim(key: OracleKey, q_fn: Callable[[BitVector], BitVector], transcript: Transcript):
    """The simulated output oracle of simulated_suite on key's own V_k."""
    return simulated_suite(key.chain, key.verify, q_fn).query_g(transcript)


@dataclass(frozen=True)
class OracleSuite:
    """Oracle handle: one callable serving every layer query plus the
    output callable, each answering like oracle_f and oracle_g. Calls
    are pure. Wrapping a suite's callables is the way to observe or
    alter the queries of an evaluation."""

    query_f: Callable[[int, Transcript, CodewordTuple], object]
    query_g: Callable[[Transcript], object]


def real_suite(key: OracleKey) -> OracleSuite:
    return OracleSuite(
        query_f=lambda i, tr, w: oracle_f(key, i, tr, w),
        query_g=lambda tr: oracle_g(key, tr),
    )


def simulated_suite(
    chain: Chain,
    verify: Callable[[int, CodewordTuple], bool],
    q_fn: Callable[[BitVector], BitVector],
) -> OracleSuite:
    """The simulated oracles: the same token and label-chain checks as
    the real ones, then verify(round, codewords), the public-verification
    oracle V_k and their only access to the authentication key, in place
    of decoding. A layer query's label always commits to chain bit 0, and
    the output query answers q_fn(x), the induced classical map."""
    p = chain.code_length

    def open_(layer: Layer, x: BitVector, rs: dict, covered: int):
        n = len(layer.phi)
        if not verify(layer.index, split(BitVector.from_int(covered, p * n), n, p)):
            return None
        return q_fn(x) if layer.final else 0

    return OracleSuite(
        query_f=lambda i, tr, w: _answer(chain, open_, _round(chain, i), tr, w),
        query_g=lambda tr: _answer(chain, open_, chain.program.layers[-1], tr, ()),
    )


# --- obfuscation --------------------------------------------------------------


@dataclass
class ObfuscatedProgram:
    """Handle on one obfuscation: the oracle key (private to the suite
    in a real deployment), the one-shot token key and the oracle suite.
    Evaluation admits the program's wires as it walks and never builds
    the whole encoded register, so that wide parameter choices stay
    constructible."""

    params: ObfParams
    key: OracleKey
    token: TokenKeypair
    suite: OracleSuite
    # Kept for the benchmark, which passes it; nothing here reads it, and
    # a benchmark change removes it.
    logical_state: Optional[StateVector] = None

    @property
    def num_code_qubits(self) -> int:
        return self.key.program.num_wires * self.key.auth_key.code_length


def qobf(params: ObfParams, program: LMProgram, rng: np.random.Generator) -> ObfuscatedProgram:
    """Sample all key material for one obfuscation of the program and
    package the oracle suite. The program state is the program's own
    (inputs zeroed, magic wires loaded), admitted wire by wire when the
    program is evaluated."""
    if program.num_input_bits < 1:
        raise ValueError("the program has no input bits for the token to sign")
    auth_key = gen(params.security, program.num_wires, rng)
    keypair = tok_gen(params.token_dim, program.num_input_bits, rng)
    key = OracleKey(
        auth_key=auth_key,
        token_dim=params.token_dim,
        token_vk=keypair.vk,
        prf_key=rng.bytes(32),
        label_bits=params.labels_for(program.num_wires),
        program=program,
    )
    return ObfuscatedProgram(params=params, key=key, token=keypair, suite=real_suite(key))


# --- evaluation ---------------------------------------------------------------


@dataclass(frozen=True)
class EncodedRegister:
    """The program's wires held as code blocks of the authenticated
    register, for walk(). A wire joins as its encoded block under the
    key's own masks: no CNOT has touched it yet, so its mask is the one
    the key holds. A layer reads the blocks of its newly collapsing wires
    down to their raw bits and consumes them, but the layer's
    measurement pair only down to the single bit its function exposes,
    which leaves the pair blocks coherent for the deferred reads of
    later layers."""

    key: OracleKey

    @property
    def program(self) -> LMProgram:
        return self.key.program

    @property
    def block(self) -> int:
        return self.key.auth_key.code_length

    def admit(self, state: StateVector, live: list[int], wires: tuple[int, ...]) -> StateVector:
        fresh = enc(self.key.auth_key, initial_state(self.program, wires), wires)
        return place(state, live, wires, fresh, self.block)

    def cnot_layer(self, state: StateVector, cnots: list[tuple[int, int]]) -> StateVector:
        return lin_eval(cnots, state, self.block)

    def spec(self, layer: Layer, live: list[int], binds):
        reads = tuple(r for r in self.key.reads[layer.index - 1] if r.wire in layer.read)
        bases = {r.wire: r.basis for r in reads}
        return read_spec(
            self.block, bases, lambda rows: dec_words(reads, rows), layer.fn, live, layer.v, binds
        )


def _honest_run(
    x: BitVector,
    program: ObfuscatedProgram,
    rng: np.random.Generator,
    mode: str,
    suite: OracleSuite,
):
    """Sign x, walk the layers and send suite the layer query of each
    batch of codewords. Returns the first Reject, or the record of the
    run: every query sent, as (round, transcript, pair), and last the
    output query (t+1, transcript, ()), which it does not send.

    "physical" walks the encoded register, whose reads are the
    codewords. "logical" walks the unencoded program wires and dresses
    every exposed bit in a fresh random representative of its wire's
    coset, v wires first, then the pair."""
    key = program.key
    if mode not in ("physical", "logical"):
        raise ValueError(f"unknown mode {mode!r}")
    transcript = Transcript(x=x, signature=tok_sign(x, program.token, rng))
    record: list[tuple[int, Transcript, CodewordTuple]] = []
    reject: Optional[Reject] = None

    def visit(layer: Layer, code: int, read: dict) -> bool:
        nonlocal transcript, reject
        if code == BOT:
            raise AssertionError("honest read fell outside the code")
        wires = layer.v + layer.w
        if mode == "physical":
            vectors = [read[w] for w in wires]
        else:
            reads = {r.wire: r for r in key.reads[layer.index - 1]}
            vectors = honest_codewords([reads[w] for w in wires], [read[w][1] for w in wires], rng)
        transcript = transcript.with_codewords(tuple(vectors[: len(layer.v)]))
        record.append((layer.index, transcript, tuple(vectors[len(layer.v) :])))
        if layer.final:
            return False
        reply = suite.query_f(*record[-1])
        if is_bot(reply):
            reject = reply
            return False
        transcript = transcript.with_label(reply[1])
        return True

    register = EncodedRegister(key) if mode == "physical" else LogicalRegister(key.program)
    walk(register, x, rng, visit)
    return record if reject is None else reject


def qeval(
    x: BitVector,
    program: ObfuscatedProgram,
    rng: np.random.Generator,
    mode: str = "auto",
    suite: Optional[OracleSuite] = None,
) -> object:
    """Honest evaluation on input x: sign, walk the layers, query the
    layer oracle on each batch of raw codewords, finish with the output
    oracle. Returns the output bits, or the Reject of the first oracle
    that refuses.

    mode picks the register the measurements run on: "physical" drives
    the encoded register, "logical" samples wire records from the
    unencoded wires and dresses them in coset representatives, "auto"
    takes the physical route whenever the whole encoded register
    (num_code_qubits) fits the simulator cap, although the walk only
    ever holds the blocks of the live wires.
    """
    if len(x) != program.key.program.num_input_bits:
        raise ValueError("input length mismatch")
    if mode == "auto":
        mode = "physical" if program.num_code_qubits <= QUBIT_CAP else "logical"
    if suite is None:
        suite = program.suite
    record = _honest_run(x, program, rng, mode, suite)
    return record if is_bot(record) else suite.query_g(record[-1][1])


def induced_map(program: LMProgram) -> Callable[[BitVector], BitVector]:
    """The classical map the program computes, by exact enumeration;
    raises if some input's output distribution is not a point mass."""
    cache: dict[BitVector, BitVector] = {}

    def q_fn(x: BitVector) -> BitVector:
        if x not in cache:
            dist = lmeval_distribution(x, program)
            top, prob = max(dist.items(), key=lambda kv: kv[1])
            if prob < 1.0 - 1e-9:
                raise ValueError(f"program output on {x} is not deterministic")
            cache[x] = BitVector(top)
        return cache[x]

    return q_fn


# --- attack harness -----------------------------------------------------------


@dataclass
class AttackReport:
    kind: str
    rejected: int
    accepted: int
    reasons: dict[str, int]
    notes: tuple[str, ...] = ()

    @property
    def trials(self) -> int:
        return self.rejected + self.accepted

    def to_text(self) -> str:
        lines = [
            f"attack {self.kind}",
            f"trials {self.trials}",
            f"rejected {self.rejected}",
            f"accepted {self.accepted}",
        ]
        for reason in sorted(self.reasons):
            lines.append(f"reason {reason} {self.reasons[reason]}")
        lines.extend(f"note {n}" for n in self.notes)
        return "\n".join(lines)

    def count(self, reason: Optional[str]) -> None:
        """Tally one trial: refused for reason, or accepted if None."""
        if reason is None:
            self.accepted += 1
        else:
            self.rejected += 1
            self.reasons[reason] = self.reasons.get(reason, 0) + 1


def _sample_outside(space: Subspace, rng: np.random.Generator) -> BitVector:
    """Uniform vector of the ambient space outside the given subspace."""
    while True:
        v = BitVector.from_ints(rng.integers(0, 2, size=space.ambient_dim))
        if not space.contains(v):
            return v


_DEFAULT_TRIALS = {"pauli-tamper": 1000, "label-forge": 10_000, "replay": 100, "mixed-input": 100}
_NEEDS_A_LAYER = {"label-forge": "label forgery", "replay": "label replay"}


def attack_harness(
    kind: str,
    program: ObfuscatedProgram,
    rng: np.random.Generator,
    trials: Optional[int] = None,
):
    """Scripted adversaries against one obfuscation. Each starts from one
    honest logical evaluation on the all-zero input, tampers copies of
    one query it recorded and asks program.suite, the suite that answered
    the honest run, so replace(program, suite=simulated_suite(...))
    attacks the simulated oracles. Returns a tally of the replies with
    their reasons (the adversarial surface shows a bare BOT), or the
    Reject if the honest evaluation itself was refused.

    pauli-tamper  flip an out-of-code error onto one round-1 codeword
    label-forge   guess label 1 uniformly at random
    replay        reuse label 1 under fresh round-1 codewords
    mixed-input   try to obtain signatures on two different inputs
    """
    lm, key, suite = program.key.program, program.key, program.suite
    first = lm.layers[0]
    if kind not in _DEFAULT_TRIALS:
        raise ValueError(f"unknown attack kind {kind!r}")
    if kind in _NEEDS_A_LAYER and lm.t < 1:
        raise ValueError(f"{_NEEDS_A_LAYER[kind]} needs at least one measurement layer")
    if kind == "pauli-tamper" and not first.phi:
        raise ValueError("pauli tampering needs a wire that round 1 reads")
    if kind == "replay" and not first.v:
        raise ValueError("label replay needs a wire in V1")
    trials = _DEFAULT_TRIALS[kind] if trials is None else trials
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    record = _honest_run(BitVector.zeros(lm.num_input_bits), program, rng, "logical", suite)
    if is_bot(record):
        return record
    report = AttackReport(kind, 0, 0, {})
    i = 2 if kind in _NEEDS_A_LAYER else 1
    _, tr, pair = record[i - 1]

    def ask(transcript: Transcript, w_pair: CodewordTuple):
        return suite.query_f(i, transcript, w_pair) if i <= lm.t else suite.query_g(transcript)

    if kind == "pauli-tamper":
        auth_key, reads = key.auth_key, key.reads[0]

        def tamper():
            # An error outside the accepted space of the read it lands on.
            k = int(rng.integers(len(reads)))
            accept = auth_key.accept_space_z if reads[k].basis == 0 else auth_key.accept_space_x
            words = [list(tr.v_layers[0]), list(pair)]
            r, j = first.at[k]
            words[r][j] ^= _sample_outside(accept, rng)
            return replace(tr, v_layers=(tuple(words[0]),)), tuple(words[1])

    elif kind == "label-forge":

        def tamper():
            guess = BitVector.from_ints(rng.integers(0, 2, size=key.label_bits))
            return replace(tr, labels=(guess,)), pair

    elif kind == "replay":
        v1 = tr.v_layers[0]
        reads = tuple(r for r in key.reads[0] if r.wire in first.v)
        bits = dec(reads, v1).bits

        def tamper():
            fresh = honest_codewords(reads, bits, rng)
            return None if fresh == v1 else (replace(tr, v_layers=(fresh,) + tr.v_layers[1:]), pair)

    else:
        x_other = BitVector.from_int(1 << (lm.num_input_bits - 1), lm.num_input_bits)
        for _ in range(trials):
            try:
                tok_sign(x_other, program.token, rng)
            except RuntimeError:
                report.count("sign-consumed")
            else:
                report.count(None)
        verdict = "rejected" if is_bot(ask(replace(tr, x=x_other), pair)) else "accepted"
        report.notes = (f"signature replay under flipped input: {verdict}",)
        return report
    for _ in range(trials):
        query = tamper()
        if query is not None:
            reply = ask(*query)
            report.count(reply.reason if is_bot(reply) else None)
    return report


# --- serialization and the wire protocol --------------------------------------


def oracle_key_to_text(key: OracleKey) -> str:
    parts = [
        f"label-bits {key.label_bits}",
        f"prf-key {key.prf_key.hex()}",
        "[auth-key]",
        key_to_text(key.auth_key),
        "[token-vk]",
        vk_to_text(key.token_dim, key.token_vk),
        "[program]",
        program_to_text(key.program),
    ]
    return "\n".join(parts) + "\n"


def read_oracle_key(r: LineReader) -> OracleKey:
    """The key whose oracle_key_to_text lines r reads next."""
    label_bits = r.integer("label-bits", 8)
    prf_key = bytes.fromhex(r.fields("prf-key", 1)[0])
    r.fields("[auth-key]", 0)
    auth_key = read_key(r)
    r.fields("[token-vk]", 0)
    token_dim, vk = read_vk(r)
    r.fields("[program]", 0)
    return OracleKey(auth_key, token_dim, vk, prf_key, label_bits, read_program(r))


def oracle_key_from_text(text: str) -> OracleKey:
    return parse(text, read_oracle_key)


def encode_f_request(i: int, transcript: Transcript, w_pair: CodewordTuple) -> str:
    return f"F {i} {(request_payload(transcript) + frame_group(w_pair)).hex()}"


def encode_g_request(transcript: Transcript) -> str:
    return f"G {request_payload(transcript).hex()}"


def handle_request_line(key: OracleKey, line: str) -> str:
    """One request line of the newline protocol -> one response line. The
    oracles answer the Request that _scan reads off the line's bytes."""
    parts = line.strip().split()
    try:
        if len(parts) == 3 and parts[0] == "F":
            i = int(parts[1])
            if parts[1] != str(i):
                return "BOT"
            layer = _round(key.chain, i)
        elif len(parts) == 2 and parts[0] == "G":
            layer = key.program.layers[-1]
        else:
            return "BOT"
        request = _scan(key.chain, layer, bytes.fromhex(parts[-1]))
        if layer.final:
            reply = oracle_g(key, request)
            return "BOT" if is_bot(reply) else f"OK {frame(reply).hex()}"
        reply = oracle_f(key, layer.index, request)
        if is_bot(reply):
            return "BOT"
        echo, label = reply
        return f"OK {frame(echo).hex()} {frame(label).hex()}"
    except (ValueError, OverflowError):
        return "BOT"


class OracleReplyError(ValueError):
    """An oracle server's reply line that is neither BOT nor a
    well-formed OK line for the query it answers."""


def remote_suite(chain: Chain, send: Callable[[str], str]) -> OracleSuite:
    """Oracle suite that speaks the wire protocol through a transport
    callable (request line in, response line out). The chain is used
    only for the response parsing widths. A reply that does not parse
    raises OracleReplyError."""
    p = chain.code_length

    def ask(line: str, widths: Sequence[int]) -> Optional[list[BitVector]]:
        """None if the server answers BOT, else the vectors of its OK
        line: one frame per hex field, of the given widths."""
        answer = send(line).strip()
        if answer == "BOT":
            return None
        try:
            tag, *fields = answer.split()
            frames = [read_frames(bytes.fromhex(f)) for f in fields]
            if tag == "OK" and [[len(v) for v in f] for f in frames] == [[w] for w in widths]:
                return [f[0] for f in frames]
        except ValueError:
            pass
        raise OracleReplyError(repr(answer))

    def query_f(i: int, transcript: Transcript, w_pair: CodewordTuple):
        v_count = len(_round(chain, i).v)
        reply = ask(encode_f_request(i, transcript, w_pair), (v_count * p, chain.label_bits))
        if reply is None:
            return Reject(REASON_REMOTE, i)
        echo, label = reply
        return split(echo, v_count, p), label

    final = chain.program.layers[-1]

    def query_g(transcript: Transcript):
        reply = ask(encode_g_request(transcript), (len(final.fn.outputs),))
        if reply is None:
            return Reject(REASON_REMOTE, final.index)
        return reply[0]

    return OracleSuite(query_f=query_f, query_g=query_g)
