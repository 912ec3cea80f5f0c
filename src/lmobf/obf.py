"""Obfuscated evaluation of compiled measurement programs.

The obfuscator wraps a program's initial state in the coset-code
authentication layer, attaches a one-shot signature token for the
classical input, and publishes one classical oracle per measurement
layer plus a final output oracle. Each layer oracle checks the token,
replays a hash chain that commits to every earlier measurement record,
decodes the submitted codewords, and answers with the next chained
label; the output oracle repeats the checks and releases the program
output. Simulated variants of both oracles (membership checks instead
of decoding, labels with a fixed chain bit) exercise the boundary the
security argument rests on: they reject exactly the same queries. Both
read a round's codewords through OracleKey.reads, the round's wire
reads worked out once when the key is built.

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
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .auth import (
    AuthKey,
    BOT,
    CodewordTuple,
    Reads,
    WireRead,
    blownup_spec,
    dec,
    enc,
    gen,
    honest_codeword,
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
    check_lm_invariants,
    eval_classical_fn,
    initial_state,
    lmeval_distribution,
    place,
    prepare_program_state,
    program_to_text,
    read_program,
    walk,
)
from .sim import QUBIT_CAP, StateVector, measure  # noqa: F401  (measure is re-exported)
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


# --- parameters and key material ---------------------------------------------


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
    token_dim: int = 4
    scaled_labels: bool = False

    def __post_init__(self) -> None:
        if self.security < 1:
            raise ValueError("security must be at least 1")
        if self.token_dim < 1:
            raise ValueError("token_dim must be at least 1")
        if self.label_bits < 8:
            raise ValueError("labels shorter than 8 bits are not collision safe")

    def labels_for(self, num_wires: int) -> int:
        if self.scaled_labels:
            return max(8, self.security, num_wires**4)
        return self.label_bits


@dataclass(frozen=True)
class OracleKey:
    """Everything the classical oracles close over: the authentication
    key, the token verification subspaces, the label PRF key, and the
    program's classical part. reads holds, per round i, the WireRead of
    every wire in phi_i, equal to auth.wire_reads on the CNOTs of rounds
    1..i: one pass builds them, and a collapsed wire's read is shared."""

    auth_key: AuthKey
    token_dim: int
    token_vk: tuple[Subspace, ...]
    prf_key: bytes
    label_bits: int
    program: LMProgram
    reads: tuple[Reads, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.auth_key.num_wires != self.program.num_wires:
            raise ValueError("authentication key width must match the program")
        if len(self.token_vk) != self.program.num_input_bits:
            raise ValueError("token must cover every input bit")
        if any(s.ambient_dim != 2 * self.token_dim for s in self.token_vk):
            raise ValueError("token subspace width must be 2*token_dim")
        if self.label_bits < 8:
            raise ValueError("labels shorter than 8 bits are not collision safe")
        if not self.prf_key:
            raise ValueError("empty PRF key")
        violations = check_lm_invariants(self.program)
        if violations:
            raise ValueError("program fails structural checks: " + "; ".join(violations))
        # check_lm_invariants: a collapsed wire keeps its basis and no CNOT touches it.
        key, read_of, reads = self.auth_key, {}, []
        xs, zs = key.x_masks, key.z_masks
        for ly in self.program.layers:
            xs, zs = pauli_update(ly.cnots, xs, zs)
            read_of.update((w, WireRead.of(key, w, ly.theta[w - 1], xs, zs)) for w in ly.read)
            reads.append(tuple(read_of[w] for w in ly.phi))
        object.__setattr__(self, "reads", tuple(reads))


# --- label PRF and transcript framing ----------------------------------------


def prf(key: bytes, message: bytes, num_bits: int) -> BitVector:
    """Deterministic keyed hash truncated to num_bits (HMAC-SHA256 core,
    counter-extended when the requested width passes one digest)."""
    if num_bits < 1:
        raise ValueError("label width must be positive")
    digest = b""
    counter = 0
    while 8 * len(digest) < num_bits:
        block = message + counter.to_bytes(4, "big")
        digest += hmac.new(key, block, hashlib.sha256).digest()
        counter += 1
    value = int.from_bytes(digest, "big") >> (8 * len(digest) - num_bits)
    return BitVector.from_int(value, num_bits)


def frame(v: BitVector) -> bytes:
    """Length-prefixed packing: 4-byte big-endian bit count, then the
    bits MSB-first, zero-padded to whole bytes. Unambiguous under
    concatenation."""
    nbytes = (len(v) + 7) // 8
    return len(v).to_bytes(4, "big") + (v.value << (8 * nbytes - len(v))).to_bytes(nbytes, "big")


def frame_bits(bits: Sequence[int]) -> bytes:
    """The frame of a tuple of bits."""
    return frame(BitVector(tuple(bits)))


def frame_group(vectors: Sequence[BitVector]) -> bytes:
    """One frame holding the concatenation of several equal-role vectors
    (a signature, or one layer's codewords in wire order)."""
    return frame(concat(vectors))


def read_frames(raw: bytes) -> list[BitVector]:
    """Inverse of a frame sequence; rejects truncated bytes."""
    out = []
    at = 0
    while at < len(raw):
        if at + 4 > len(raw):
            raise ValueError("truncated frame header")
        n = int.from_bytes(raw[at : at + 4], "big")
        at += 4
        nbytes = (n + 7) // 8
        if at + nbytes > len(raw):
            raise ValueError("truncated frame body")
        value = int.from_bytes(raw[at : at + nbytes], "big") >> (8 * nbytes - n)
        out.append(BitVector.from_int(value, n))
        at += nbytes
    return out


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


def request_payload(transcript: Transcript, upto: Optional[int] = None) -> bytes:
    """The framed transcript: the input, the signature, then each
    codeword layer followed by its label where it has one. With upto,
    only the first upto layers and the labels of the first upto-1."""
    v_layers, labels = transcript.v_layers, transcript.labels
    if upto is not None:
        v_layers, labels = v_layers[:upto], labels[: upto - 1]
    parts = [frame(transcript.x), frame_group(transcript.signature)]
    for idx, layer in enumerate(v_layers):
        parts.append(frame_group(layer))
        if idx < len(labels):
            parts.append(frame(labels[idx]))
    return b"".join(parts)


def label_message(transcript: Transcript, upto: int, trailing_bit: int) -> bytes:
    """Canonical bytes hashed for the layer-upto label: the request
    payload of the first upto layers, and the chain bit last."""
    return request_payload(transcript, upto) + frame_bits((trailing_bit & 1,))


def chain_label(key: OracleKey, transcript: Transcript, upto: int, bit: int) -> BitVector:
    return prf(key.prf_key, label_message(transcript, upto, bit), key.label_bits)


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


def _shape_ok(key: OracleKey, transcript: Transcript, layer: Layer, w_pair: CodewordTuple) -> bool:
    program = key.program
    p = key.auth_key.code_length
    if len(transcript.x) != program.num_input_bits:
        return False
    if len(transcript.v_layers) != layer.index or len(transcript.labels) != layer.index - 1:
        return False
    for codewords, earlier in zip(transcript.v_layers, program.layers):
        if len(codewords) != len(earlier.v):
            return False
        if any(len(c) != p for c in codewords):
            return False
    return len(w_pair) == len(layer.w) and all(len(c) == p for c in w_pair)


def _prelude(key: OracleKey, layer: Layer, transcript: Transcript, w_pair: CodewordTuple):
    """What every oracle checks before its own answer, in order: the
    token, the shape, the label-chain replay. A layer oracle passes its
    pair; the output oracle passes the final round, whose pair is empty.
    Returns the Reject, or the chain bits of the earlier layers with the
    codewords the round's measurement covers, in ascending wire order."""
    i = layer.index
    if not tok_ver(key.token_vk, transcript.x, transcript.signature):
        return Reject(REASON_BAD_TOKEN, i)
    if not _shape_ok(key, transcript, layer, w_pair):
        return Reject(REASON_DECODE, i)
    # Each earlier label must be one of its layer's two candidate hashes;
    # the matching trailing bit is that layer's chain bit.
    rs: dict[int, int] = {}
    for idx in range(1, i):
        cand0 = chain_label(key, transcript, idx, 0)
        cand1 = chain_label(key, transcript, idx, 1)
        if cand0 == cand1:
            return Reject(REASON_COLLISION, i)
        given = transcript.labels[idx - 1]
        if given == cand0:
            rs[idx] = 0
        elif given == cand1:
            rs[idx] = 1
        else:
            return Reject(REASON_BAD_LABEL, i)
    by_wire: dict[int, BitVector] = {}
    for codewords, earlier in zip(transcript.v_layers, key.program.layers):
        by_wire.update(zip(earlier.v, codewords))
    by_wire.update(zip(layer.w, w_pair))
    return rs, tuple(by_wire[w] for w in layer.phi)


def _decode(
    key: OracleKey, layer: Layer, x: BitVector, rs: dict[int, int], ordered: CodewordTuple
):
    """Tail of the real oracles: the round's function on the decoded
    codewords, or the Reject if one fails to decode."""
    decoded = dec(key.reads[layer.index - 1], ordered)
    if decoded is None:
        return Reject(REASON_DECODE, layer.index)
    return eval_classical_fn(layer.fn, bind(layer.fn, dict(zip(layer.phi, decoded.bits)), x, rs))


def _round(key: OracleKey, i: int) -> Layer:
    """The Layer a layer oracle answers for; raises past 1..t."""
    if not 1 <= i <= key.program.t:
        raise ValueError(f"layer {i} out of range 1..{key.program.t}")
    return key.program.layers[i - 1]


# --- the four oracles ---------------------------------------------------------


def oracle_f(key: OracleKey, i: int, transcript: Transcript, w_pair: CodewordTuple):
    """Layer-i oracle: token check, label-chain replay, decode of every
    codeword the i-th measurement covers, then the next chained label.
    Accepts with (echoed layer codewords, label); rejects with a Reject."""
    layer = _round(key, i)
    checked = _prelude(key, layer, transcript, w_pair)
    if is_bot(checked):
        return checked
    outs = _decode(key, layer, transcript.x, *checked)
    if is_bot(outs):
        return outs
    return transcript.v_layers[-1], chain_label(key, transcript, i, outs["r"])


def oracle_g(key: OracleKey, transcript: Transcript):
    """Output oracle: token check, full label-chain replay, decode over
    the final measurement's wires, then the program's output bits."""
    layer = key.program.layers[-1]
    checked = _prelude(key, layer, transcript, ())
    if is_bot(checked):
        return checked
    outs = _decode(key, layer, transcript.x, *checked)
    if is_bot(outs):
        return outs
    return BitVector(tuple(outs[name] for name in layer.fn.output_names))


def oracle_f_sim(key: OracleKey, i: int, transcript: Transcript, w_pair: CodewordTuple):
    """Simulated layer oracle: same token and label-chain checks, but the
    codewords are only membership-verified, never decoded, and the label
    always commits to chain bit 0."""
    layer = _round(key, i)
    checked = _prelude(key, layer, transcript, w_pair)
    if is_bot(checked):
        return checked
    if not ver(key.auth_key, key.reads[layer.index - 1], checked[1]):
        return Reject(REASON_DECODE, i)
    return transcript.v_layers[-1], chain_label(key, transcript, i, 0)


def oracle_g_sim(key: OracleKey, q_fn: Callable[[BitVector], BitVector], transcript: Transcript):
    """Simulated output oracle: verify instead of decode, then answer
    from the induced classical map on x alone."""
    layer = key.program.layers[-1]
    checked = _prelude(key, layer, transcript, ())
    if is_bot(checked):
        return checked
    if not ver(key.auth_key, key.reads[layer.index - 1], checked[1]):
        return Reject(REASON_DECODE, layer.index)
    return q_fn(transcript.x)


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


def simulated_suite(key: OracleKey, q_fn: Callable[[BitVector], BitVector]) -> OracleSuite:
    return OracleSuite(
        query_f=lambda i, tr, w: oracle_f_sim(key, i, tr, w),
        query_g=lambda tr: oracle_g_sim(key, q_fn, tr),
    )


# --- obfuscation --------------------------------------------------------------


@dataclass
class ObfuscatedProgram:
    """Handle on one obfuscation: the oracle key (private to the suite
    in a real deployment), the one-shot token registers and the oracle
    suite. Evaluation admits the program's wires as it walks, and the
    whole encoded register is materialized only on demand, so that wide
    parameter choices stay constructible."""

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

    @property
    def num_token_qubits(self) -> int:
        return 2 * self.token.kappa_prime * self.token.num_bits

    def encoded_state(self) -> StateVector:
        """The authenticated register, exactly the encoding isometry
        applied to the whole program state. Raises past the simulator
        cap."""
        return enc(self.key.auth_key, prepare_program_state(self.key.program))


def qobf(params: ObfParams, program: LMProgram, rng: np.random.Generator) -> ObfuscatedProgram:
    """Sample all key material for one obfuscation of the program and
    package the oracle suite. The program state is the program's own
    (inputs zeroed, magic wires loaded), admitted wire by wire when the
    program is evaluated."""
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
    later layers. Admitted blocks are built afresh at each admission: a
    sampled walk admits each round once, and one admission can hold
    2^20 amplitudes."""

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
        return blownup_spec(self.block, reads, layer.fn, live, layer.v, binds)


def _honest_run(
    x: BitVector,
    program: ObfuscatedProgram,
    rng: np.random.Generator,
    mode: str,
    suite: OracleSuite,
):
    """Sign x, walk the layers and query the layer oracle on each batch
    of codewords. Returns the first Reject, or the transcript (complete
    up to the output query) with the pair each layer query carried.

    "physical" walks the encoded register, whose reads are the
    codewords. "logical" walks the unencoded program wires and dresses
    every exposed bit in a fresh random representative of its wire's
    coset, v wires first, then the pair."""
    key = program.key
    if mode not in ("physical", "logical"):
        raise ValueError(f"unknown mode {mode!r}")
    transcript = Transcript(x=x, signature=tok_sign(x, program.token, rng))
    w_pairs: list[CodewordTuple] = []
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
            vectors = [honest_codeword(reads[w], read[w][1], rng) for w in wires]
        transcript = transcript.with_codewords(tuple(vectors[: len(layer.v)]))
        if layer.final:
            return False
        w_pair = tuple(vectors[len(layer.v) :])
        reply = suite.query_f(layer.index, transcript, w_pair)
        if is_bot(reply):
            reject = reply
            return False
        transcript = transcript.with_label(reply[1])
        w_pairs.append(w_pair)
        return True

    register = EncodedRegister(key) if mode == "physical" else LogicalRegister(key.program)
    walk(register, x, rng, visit)
    return reject if reject is not None else (transcript, w_pairs)


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
    run = _honest_run(x, program, rng, mode, suite)
    if is_bot(run):
        return run
    transcript, _ = run
    return suite.query_g(transcript)


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


def _tally(report: AttackReport, reply: object) -> None:
    if is_bot(reply):
        report.rejected += 1
        report.reasons[reply.reason] = report.reasons.get(reply.reason, 0) + 1
    else:
        report.accepted += 1


def _sample_outside(space: Subspace, rng: np.random.Generator) -> BitVector:
    """Uniform vector of the ambient space outside the given subspace."""
    while True:
        v = BitVector.from_ints(rng.integers(0, 2, size=space.ambient_dim))
        if not space.contains(v):
            return v


_DEFAULT_TRIALS = {"pauli-tamper": 1000, "label-forge": 10_000, "replay": 100, "mixed-input": 100}
_NEEDS_A_LAYER = {"label-forge": "label forgery", "replay": "label replay"}


def _ask(key: OracleKey, transcript: Transcript, w_pairs: list[CodewordTuple], layer: int):
    """oracle_f at layer on the transcript's first layer codeword layers and
    layer-1 labels; past the last layer, oracle_g on the whole transcript."""
    if layer > key.program.t:
        return oracle_g(key, transcript)
    v, labels = transcript.v_layers[:layer], transcript.labels[: layer - 1]
    return oracle_f(key, layer, replace(transcript, v_layers=v, labels=labels), w_pairs[layer - 1])


def attack_harness(
    kind: str,
    program: ObfuscatedProgram,
    rng: np.random.Generator,
    trials: Optional[int] = None,
):
    """Scripted adversaries against one obfuscation. Each starts from one
    honest logical evaluation on the all-zero input and returns a tally
    of oracle responses with their reasons (the adversarial surface
    shows a bare BOT), or the Reject if that honest evaluation itself
    was refused.

    pauli-tamper  flip an out-of-code error onto one honest codeword
    label-forge   guess a chained label uniformly at random
    replay        reuse a genuine label under fresh layer-1 codewords
    mixed-input   try to obtain signatures on two different inputs
    """
    key = program.key
    lm = key.program
    if kind not in _DEFAULT_TRIALS:
        raise ValueError(f"unknown attack kind {kind!r}")
    if kind in _NEEDS_A_LAYER and lm.t < 1:
        raise ValueError(f"{_NEEDS_A_LAYER[kind]} needs at least one measurement layer")
    trials = _DEFAULT_TRIALS[kind] if trials is None else trials
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    report = AttackReport(kind, 0, 0, {})
    x = BitVector.zeros(lm.num_input_bits)
    run = _honest_run(x, program, rng, "logical", real_suite(key))
    if is_bot(run):
        return run
    transcript, w_pairs = run
    layer1 = lm.layers[0]
    v1_wires = layer1.v
    if kind == "pauli-tamper":
        accept_z = key.auth_key.accept_space_z
        z_wires = [r.wire for r in key.reads[0] if r.basis == 0]
        for _ in range(trials):
            target = z_wires[int(rng.integers(len(z_wires)))]
            err = _sample_outside(accept_z, rng)
            v1, w1 = list(transcript.v_layers[0]), list(w_pairs[0] if w_pairs else ())
            if target in v1_wires:
                v1[v1_wires.index(target)] ^= err
            else:
                w1[layer1.w.index(target)] ^= err
            tampered = replace(transcript, v_layers=(tuple(v1),) + transcript.v_layers[1:])
            _tally(report, _ask(key, tampered, [tuple(w1)] + w_pairs[1:], 1))
    elif kind == "label-forge":
        for _ in range(trials):
            guess = BitVector.from_ints(rng.integers(0, 2, size=key.label_bits))
            forged = replace(transcript, labels=(guess,) + transcript.labels[1:])
            _tally(report, _ask(key, forged, w_pairs, 2))
    elif kind == "replay":
        reads1 = tuple(r for r in key.reads[0] if r.wire in v1_wires)
        bits1 = dec(reads1, transcript.v_layers[0]).bits
        for _ in range(trials):
            fresh = tuple(honest_codeword(r, b, rng) for r, b in zip(reads1, bits1))
            if fresh == transcript.v_layers[0]:
                continue
            swapped = replace(transcript, v_layers=(fresh,) + transcript.v_layers[1:])
            _tally(report, _ask(key, swapped, w_pairs, 2))
    else:
        x_other = BitVector.from_int(1 << (lm.num_input_bits - 1), lm.num_input_bits)
        for _ in range(trials):
            try:
                tok_sign(x_other, program.token, rng)
            except RuntimeError:
                report.rejected += 1
                report.reasons["sign-consumed"] = report.reasons.get("sign-consumed", 0) + 1
            else:
                report.accepted += 1
        reply = _ask(key, replace(transcript, x=x_other), w_pairs, 1)
        verdict = "rejected" if is_bot(reply) else "accepted"
        report.notes = (f"signature replay under flipped input: {verdict}",)
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


def _parse_request_fields(
    key: OracleKey, fields: list[BitVector], upto: int, with_w: bool
) -> tuple[Transcript, Optional[CodewordTuple]]:
    """Inverse of the request payload (plus the pair frame with_w);
    raises ValueError on any misfit."""
    p = key.auth_key.code_length
    if len(fields) != 2 + 2 * upto - 1 + (1 if with_w else 0):
        raise ValueError("wrong number of frames")
    sigma = split(fields[1], key.program.num_input_bits, 2 * key.token_dim)
    layers = key.program.layers
    v_layers = tuple(split(fields[2 * k + 2], len(layers[k].v), p) for k in range(upto))
    labels = tuple(fields[2 * k + 3] for k in range(upto - 1))
    w_pair = split(fields[-1], len(layers[upto - 1].w), p) if with_w else None
    return Transcript(fields[0], sigma, v_layers, labels), w_pair


def handle_request_line(key: OracleKey, line: str) -> str:
    """One request line of the newline protocol -> one response line."""
    parts = line.strip().split()
    try:
        if len(parts) == 3 and parts[0] == "F":
            i = int(parts[1])
            if not 1 <= i <= key.program.t:
                return "BOT"
            fields = read_frames(bytes.fromhex(parts[2]))
            transcript, w_pair = _parse_request_fields(key, fields, i, with_w=True)
            reply = oracle_f(key, i, transcript, w_pair)
            if is_bot(reply):
                return "BOT"
            echo, label = reply
            return f"OK {frame_group(echo).hex()} {frame(label).hex()}"
        if len(parts) == 2 and parts[0] == "G":
            fields = read_frames(bytes.fromhex(parts[1]))
            transcript, _ = _parse_request_fields(key, fields, key.program.t + 1, with_w=False)
            reply = oracle_g(key, transcript)
            if is_bot(reply):
                return "BOT"
            return f"OK {frame(reply).hex()}"
    except (ValueError, OverflowError):
        return "BOT"
    return "BOT"


class OracleReplyError(ValueError):
    """An oracle server's reply line that is neither BOT nor a
    well-formed OK line for the query it answers."""


def remote_suite(key: OracleKey, send: Callable[[str], str]) -> OracleSuite:
    """Oracle suite that speaks the wire protocol through a transport
    callable (request line in, response line out). The key is used only
    for the response parsing widths. A reply that does not parse raises
    OracleReplyError."""
    p = key.auth_key.code_length

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
        v_count = len(key.program.layers[i - 1].v)
        reply = ask(encode_f_request(i, transcript, w_pair), (v_count * p, key.label_bits))
        if reply is None:
            return Reject(REASON_REMOTE, i)
        echo, label = reply
        return split(echo, v_count, p), label

    final = key.program.layers[-1]

    def query_g(transcript: Transcript):
        reply = ask(encode_g_request(transcript), (len(final.fn.outputs),))
        if reply is None:
            return Reject(REASON_REMOTE, final.index)
        return reply[0]

    return OracleSuite(query_f=query_f, query_g=query_g)
