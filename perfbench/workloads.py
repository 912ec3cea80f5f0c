"""The three benchmark workloads, driven through lmobf's public API.

Each workload is a closed loop with one client: an op starts when the
previous one has finished. Inputs come from the workload seed alone;
op i draws its randomness from (seed, workload, i), so the outcome of
every op, and hence the failure count, is fixed by the seed and the op
count. The op count of a run is fixed by its length in seconds
(Workload.ops_for), not by the clock.

    physical-default  qobf + qeval(mode="physical") on the two-input
                      circuit `CNOT 1 2; T 2`, x cycling over all inputs
    logical-tchain    qobf + qeval(mode="logical") over a pool of
                      2-qubit circuits with 7 T, 1 H and 8 CNOT
    oracle-serve      request lines through a `lmobf oracle-serve`
                      child, honest and tampered, one line outstanding

Importing this module imports lmobf, which is part of the measured
set-up time.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Optional

import numpy as np

from lmobf import gf2, lm, obf, tokens

import tracing

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

OK, REJECTED, WRONG = "ok", "rejected", "wrong"

# The CLI defaults: lambda=2, kappa=64, kappa'=4.
PARAMS = obf.ObfParams(security=2, label_bits=64, token_dim=4)

README_CIRCUIT = "qubits 2 inputs 2 outputs 1,2\nCNOT 1 2\nT 2\n"
TCHAIN_POOL = 64
# oracle-serve: full honest logical evaluations whose measured codewords
# the pool reuses, and the evaluations of the pool, each signed afresh.
SERVE_WALKS = 40
SERVE_EVALUATIONS = 320
# Share of oracle-serve ops that send an honest line; the others send a
# freshly tampered copy of one.
HONEST_SHARE = 0.35
# A request line the server answers with BOT; it tells set-up that the
# server is ready.
PROBE_LINE = "G 00"


def op_rng(seed: int, tag: int, phase: int, i: int) -> np.random.Generator:
    return np.random.default_rng((seed, tag, phase, i))


def all_inputs(m: int) -> list[gf2.BitVector]:
    return [
        gf2.BitVector(tuple((v >> (m - 1 - j)) & 1 for j in range(m))) for v in range(2**m)
    ]


def random_bits(rng: np.random.Generator, m: int) -> gf2.BitVector:
    return gf2.BitVector(tuple(int(b) for b in rng.integers(0, 2, size=m)))


def support(circuit: lm.Circuit, x: gf2.BitVector) -> frozenset:
    """Outputs of nonzero probability, from a plain statevector run."""
    return frozenset(lm.circuit_output_distribution(circuit, x))


def tchain_circuit(rng: np.random.Generator, h_slot: int) -> lm.Circuit:
    """A 2-qubit circuit with 7 T, 1 H and 8 CNOT in random order, except
    that the H is the h_slot-th (0-based) of the eight non-CNOT gates.
    Where the H falls sets the compiled program's layer widths."""
    singles = ["T"] * 7
    singles.insert(h_slot, "H")
    at_single = rng.permutation(16) < 8
    kinds = []
    for single in at_single:
        kinds.append(singles.pop(0) if single else "CNOT")
    gates = []
    for kind in kinds:
        a = int(rng.integers(1, 3))
        gates.append(lm.Gate(kind, (a, 3 - a) if kind == "CNOT" else (a,)))
    return lm.Circuit(2, 2, tuple(gates), (1, 2))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def peak_rss_kb(pid: int) -> int:
    """VmHWM of a live process, 0 where /proc is not available."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Server:
    """One oracle-serve child over pipes, one line outstanding.

    The child and this process are pinned to one CPU: with one line
    outstanding they never run at once, and left free the scheduler
    places them on the same or on different CPUs from one process to the
    next, which moves the median round trip by up to 20 %.
    """

    def __init__(self, argv: list[str]) -> None:
        self.proc = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=child_env(),
            cwd=ROOT,
        )
        self.affinity = None
        if hasattr(os, "sched_setaffinity"):
            self.affinity = os.sched_getaffinity(0)
            cpu = {min(self.affinity)}
            os.sched_setaffinity(0, cpu)
            os.sched_setaffinity(self.proc.pid, cpu)

    def send(self, line: str) -> str:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"oracle server exited with {self.proc.poll()}")
        return reply.rstrip("\n")

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=60)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
            if self.affinity is not None:
                os.sched_setaffinity(0, self.affinity)


class Workload:
    """Set-up, input generation and ops of one workload.

    setup() is what `setup_s` times: compiling the circuits and, for
    oracle-serve, obfuscating and starting the server. generate() makes
    the inputs and their references and is not timed. prepare(i,
    warmup) does op i's untimed client-side work; run_op(i, prepared)
    runs the op and returns OK, REJECTED or WRONG. After a loop,
    check(outcomes, warmup) may turn outcomes into WRONG on evidence
    gathered after the op. `reference` names the calibration kernel of
    the ops (see calibrate.py). `loop_s` is the wall time of one
    iteration of the timed loop (preparation, op and its share of the
    calibrations) on a 2-vCPU Xeon VM.
    """

    name = ""
    tag = 0
    reference = ""
    warmup_ops = 0
    loop_s = 1.0

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.wrong_in_generation = 0

    @classmethod
    def ops_for(cls, seconds: float) -> int:
        """The op count of a run of `seconds`: about that long on the
        machine `loop_s` was taken on. It is a function of `seconds`
        alone, so that two runs with the same seed attempt the same ops
        and fail the same ones, however fast the machine runs."""
        return max(1, round(seconds / cls.loop_s))

    def setup(self) -> None:
        raise NotImplementedError

    def generate(self) -> None:
        raise NotImplementedError

    def prepare(self, i: int, warmup: bool = False) -> object:
        return None

    def run_op(self, i: int, prepared: object = None, warmup: bool = False) -> str:
        raise NotImplementedError

    def check(self, outcomes: list[str], warmup: bool = False) -> None:
        pass

    def warm_up(self) -> int:
        """Run the warm-up ops, which let caches fill and lazy set-up
        finish; returns how many were wrong."""
        outcomes = [
            self.run_op(k, self.prepare(k, warmup=True), warmup=True)
            for k in range(self.warmup_ops)
        ]
        self.check(outcomes, warmup=True)
        return outcomes.count(WRONG)

    def start_trace(self, tracer: tracing.Tracer, spans_path: Path) -> None:
        self.spans_path = spans_path
        tracer.install()

    def stop_trace(self, tracer: tracing.Tracer, latencies: list[float]):
        """Remove the wrappers and write the spans out. Returns (spans,
        counters, extra metrics); latencies are those of the traced ops."""
        tracer.uninstall()
        tracer.dump(str(self.spans_path))
        return tracer.spans, tracer.counters, {}

    def child_peak_rss_kb(self) -> int:
        return 0

    def record(self) -> dict:
        """Facts about the generated inputs, for the result record."""
        return {}

    def close(self) -> None:
        pass


class PhysicalDefault(Workload):
    name = "physical-default"
    tag = 1
    reference = "state"
    warmup_ops = 2
    loop_s = 0.3

    def setup(self) -> None:
        self.circuit = lm.parse_circuit(README_CIRCUIT)
        self.program = lm.compile_circuit(self.circuit)

    def generate(self) -> None:
        self.inputs = all_inputs(self.circuit.num_input_bits)
        self.supports = [support(self.circuit, x) for x in self.inputs]

    def run_op(self, i: int, prepared: object = None, warmup: bool = False) -> str:
        rng = op_rng(self.seed, self.tag, int(warmup), i)
        k = i % len(self.inputs)
        handle = obf.qobf(PARAMS, self.program, rng)
        y = obf.qeval(self.inputs[k], handle, rng, mode="physical")
        if obf.is_bot(y):
            return REJECTED
        return OK if y.bits in self.supports[k] else WRONG


class LogicalTchain(Workload):
    name = "logical-tchain"
    tag = 2
    reference = "state+python"
    warmup_ops = 4
    loop_s = 0.07

    def setup(self) -> None:
        rng = np.random.default_rng((self.seed, self.tag, 2))
        # Every H slot equally often, so the pool's mix of program shapes
        # is the same for every seed.
        self.circuits = [tchain_circuit(rng, k % 8) for k in range(TCHAIN_POOL)]
        self.programs = [lm.compile_circuit(c) for c in self.circuits]

    def generate(self) -> None:
        self.supports = {
            (c, x.bits): support(circuit, x)
            for c, circuit in enumerate(self.circuits)
            for x in all_inputs(2)
        }

    def run_op(self, i: int, prepared: object = None, warmup: bool = False) -> str:
        rng = op_rng(self.seed, self.tag, int(warmup), i)
        c = i % len(self.programs)
        x = random_bits(rng, 2)
        handle = obf.qobf(PARAMS, self.programs[c], rng)
        y = obf.qeval(x, handle, rng, mode="logical")
        if obf.is_bot(y):
            return REJECTED
        return OK if y.bits in self.supports[(c, x.bits)] else WRONG


def _flip_one_bit(v: gf2.BitVector, rng: np.random.Generator) -> gf2.BitVector:
    bits = list(v.bits)
    bits[int(rng.integers(len(bits)))] ^= 1
    return gf2.BitVector(tuple(bits))


def tamper_kinds(transcript: obf.Transcript, w_pair) -> list[str]:
    kinds = ["sig", "x", "v"]
    if w_pair is not None:
        kinds.append("w")
    if transcript.labels:
        kinds.append("label")
    return kinds


def tamper(transcript: obf.Transcript, w_pair, kind: str, rng: np.random.Generator):
    """Flip one bit of the signature, the input, a v-layer codeword, the
    w pair (layer queries only) or a label, as `kind` says."""
    if kind == "sig":
        sig = list(transcript.signature)
        j = int(rng.integers(len(sig)))
        sig[j] = _flip_one_bit(sig[j], rng)
        return replace(transcript, signature=tuple(sig)), w_pair
    if kind == "v":
        layers = [list(layer) for layer in transcript.v_layers]
        li = int(rng.integers(len(layers)))
        ci = int(rng.integers(len(layers[li])))
        layers[li][ci] = _flip_one_bit(layers[li][ci], rng)
        return replace(transcript, v_layers=tuple(tuple(layer) for layer in layers)), w_pair
    if kind == "w":
        pair = list(w_pair)
        ci = int(rng.integers(len(pair)))
        pair[ci] = _flip_one_bit(pair[ci], rng)
        return transcript, tuple(pair)
    if kind == "label":
        labels = list(transcript.labels)
        li = int(rng.integers(len(labels)))
        labels[li] = _flip_one_bit(labels[li], rng)
        return replace(transcript, labels=tuple(labels)), w_pair
    return replace(transcript, x=_flip_one_bit(transcript.x, rng)), w_pair


def serve_circuit() -> lm.Circuit:
    """oracle-serve's circuit, the same for every seed: the layer widths
    (where the H falls) move the mean line cost by 5-20 %."""
    return tchain_circuit(np.random.default_rng((0, OracleServe.tag, 2)), 3)


def encode_request(layer: Optional[int], transcript: obf.Transcript, w_pair) -> str:
    if layer is None:
        return obf.encode_g_request(transcript)
    return obf.encode_f_request(layer, transcript, w_pair)


def _bits(v: gf2.BitVector) -> str:
    return "".join(map(str, v.bits))


class ReplyCheck:
    """Whether a reply to a request line is right. Its accept/reject must
    agree with the simulated oracle (`obf.oracle_f_sim`/`oracle_g_sim`)
    on the same transcript, and an accepted layer reply must echo the
    codewords the simulated oracle echoes. An honest line must be
    accepted, and its output reply must hold an output inside the
    circuit's support for x. An accepted tampered line's reply must
    equal the line `obf.handle_request_line` gives in this process; an
    honest line's reply is that line already. (A tampered codeword that
    still passes may decode to another bit, so a tampered output need
    not be in the support.)"""

    def __init__(self, key: obf.OracleKey, circuit: lm.Circuit) -> None:
        self.key = key
        self.supports = {x.bits: support(circuit, x) for x in all_inputs(circuit.num_input_bits)}

    def __call__(self, layer, transcript, w_pair, line: str, reply: str, honest: bool) -> bool:
        key = self.key
        if layer is None:
            sim = obf.oracle_g_sim(key, lambda x: x, transcript)
        else:
            sim = obf.oracle_f_sim(key, layer, transcript, w_pair)
        if reply == "BOT" or obf.is_bot(sim):
            return not honest and reply == "BOT" and obf.is_bot(sim)
        if not honest and reply != obf.handle_request_line(key, line):
            return False
        first = obf.read_frames(bytes.fromhex(reply.split()[1]))[0]
        if layer is not None:
            return first.bits == tuple(b for c in sim[0] for b in c.bits)
        return not honest or first.bits in self.supports[transcript.x.bits]


def make_serve_pool(seed: int, obf_dir: Path, out: Path, size: int = SERVE_EVALUATIONS) -> None:
    """Write oracle-serve's pool of honest evaluations to `out` as JSON.

    First SERVE_WALKS honest logical evaluations run against the real
    oracles, each with fresh signing registers; an accepted one keeps
    its input and the codewords it measured. Then each of the `size`
    pool evaluations takes one of these walks, signs
    its input afresh (`tokens.tok_sign` on fresh registers) and replays
    the chain: each layer's request line goes to the oracle in this
    process, whose label enters the next line. A new signature changes
    every label, so no two pool evaluations share a line. Each line's
    reply is checked with ReplyCheck and must accept; a wrong one is
    counted in "wrong". Walks and signings rejected for a zero-vector
    signature are left out and counted, so that the pool's mix is the
    same for every seed."""
    key = obf.oracle_key_from_text((obf_dir / "oracle_key.txt").read_text())
    circuit = serve_circuit()
    check = ReplyCheck(key, circuit)
    state = lm.prepare_program_state(key.program)
    t = key.program.t
    walks = []
    wrong = 0
    rejected_walks = 0
    for e in range(4 * SERVE_WALKS):
        rng = np.random.default_rng((seed, OracleServe.tag, 3, e))
        x = random_bits(rng, 2)
        base = obf.real_suite(key)
        w_pairs: list = []

        def query_f(i, tr, w, w_pairs=w_pairs, base=base):
            w_pairs.append(w)
            return base.query_f(i, tr, w)

        final: list = []

        def query_g(tr, final=final, base=base):
            final.append(tr)
            return base.query_g(tr)

        handle = obf.ObfuscatedProgram(
            params=PARAMS,
            key=key,
            token=tokens.keypair_from_subspaces(key.token_dim, key.token_vk),
            logical_state=state,
            suite=base,
        )
        y = obf.qeval(x, handle, rng, mode="logical", suite=obf.OracleSuite(query_f, query_g))
        if obf.is_bot(y):
            rejected_walks += 1
            continue
        if y.bits not in check.supports[x.bits]:
            wrong += 1
        walks.append((x, final[-1].v_layers, tuple(w_pairs)))
        if len(walks) == SERVE_WALKS:
            break
    else:
        raise RuntimeError("too many honest evaluations were rejected")

    evaluations = []
    rejected_signings = 0
    for k in range(size):
        x, v_layers, w_pairs = walks[k % SERVE_WALKS]
        rng = np.random.default_rng((seed, OracleServe.tag, 5, k))
        keypair = tokens.keypair_from_subspaces(key.token_dim, key.token_vk)
        sig = tokens.tok_sign(x, keypair, rng)
        if any(v.is_zero() for v in sig):
            rejected_signings += 1
            continue
        tr = obf.Transcript(x=x, signature=sig)
        lines, replies = [], []
        for layer in range(1, t + 2):
            tr = tr.with_codewords(v_layers[layer - 1])
            w = w_pairs[layer - 1] if layer <= t else None
            line = encode_request(layer if layer <= t else None, tr, w)
            reply = obf.handle_request_line(key, line)
            if not check(layer if layer <= t else None, tr, w, line, reply, honest=True):
                wrong += 1
                break
            lines.append(line)
            replies.append(reply)
            if layer <= t:
                tr = tr.with_label(obf.read_frames(bytes.fromhex(reply.split()[2]))[0])
        else:
            evaluations.append({
                "x": _bits(x),
                "sig": [_bits(v) for v in sig],
                "v": [[_bits(c) for c in layer] for layer in v_layers],
                "w": [[_bits(c) for c in pair] for pair in w_pairs],
                "labels": [_bits(label) for label in tr.labels],
                "lines": lines,
                "replies": replies,
            })
    out.write_text(json.dumps({
        "evaluations": evaluations,
        "wrong": wrong,
        "rejected_walks": rejected_walks,
        "rejected_signings": rejected_signings,
    }))


class OracleServe(Workload):
    name = "oracle-serve"
    tag = 3
    reference = "python+pipe"
    warmup_ops = 50
    loop_s = 1.2e-3
    pool_evaluations = SERVE_EVALUATIONS

    def setup(self) -> None:
        # One circuit and one key for every seed: the key decides which
        # one-bit flips stay inside the accepted cosets, which moves the
        # mean line cost by 5-20 %. The seed drives the evaluations, the
        # signing, the tampering and the line order.
        program = lm.compile_circuit(serve_circuit())
        self.workdir.mkdir(parents=True, exist_ok=True)
        program_path = self.workdir / "program.txt"
        program_path.write_text(lm.program_to_text(program))
        self.obf_dir = self.workdir / "obf"
        subprocess.run(
            [sys.executable, "-m", "lmobf", "obfuscate", str(program_path),
             "-o", str(self.obf_dir), "--seed", "0"],
            check=True,
            stdout=subprocess.DEVNULL,
            env=child_env(),
            cwd=ROOT,
            timeout=120,
        )
        self.server = Server([sys.executable, "-m", "lmobf", "oracle-serve", str(self.obf_dir)])
        if self.server.send(PROBE_LINE) != "BOT":
            raise RuntimeError("oracle server gave a wrong first reply")

    def generate(self) -> None:
        """Make the pool of honest evaluations in a helper process (see
        make_serve_pool), so that its statevectors stay out of this
        process's peak RSS, and load it."""
        pool_path = self.workdir / "pool.json"
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--serve-pool", str(pool_path),
             "--obf-dir", str(self.obf_dir), "--pool-evaluations", str(self.pool_evaluations),
             "--workload", self.name, "--seed", str(self.seed)],
            check=True,
            env=child_env(),
            cwd=ROOT,
            timeout=170,
        )
        pool = json.loads(pool_path.read_text())
        self.key = obf.oracle_key_from_text((self.obf_dir / "oracle_key.txt").read_text())
        self.check_reply = ReplyCheck(self.key, serve_circuit())
        self.evaluations = pool["evaluations"]
        self.wrong_in_generation += pool["wrong"]
        self.pool_record = {k: pool[k] for k in ("rejected_walks", "rejected_signings")}
        # (evaluation, layer) of every honest line, in evaluation order;
        # layer t + 1 is the output query.
        self.honest = [
            (k, layer)
            for k, ev in enumerate(self.evaluations)
            for layer in range(1, len(ev["lines"]) + 1)
        ]
        self.cursor = 0
        self.sent_honest = 0
        self.sent_tampered: list[tuple[int, str]] = []
        self._vectors: dict[str, gf2.BitVector] = {}

    def _vec(self, bits: str) -> gf2.BitVector:
        v = self._vectors.get(bits)
        if v is None:
            v = self._vectors[bits] = gf2.BitVector.from_string(bits)
        return v

    def request(self, k: int, layer: int):
        """(layer or None for the output query, transcript, w pair) of
        the honest line `layer` of pool evaluation k."""
        ev = self.evaluations[k]
        t = len(ev["lines"]) - 1
        tr = obf.Transcript(
            x=self._vec(ev["x"]),
            signature=tuple(self._vec(b) for b in ev["sig"]),
            v_layers=tuple(tuple(self._vec(c) for c in lay) for lay in ev["v"][:layer]),
            labels=tuple(self._vec(b) for b in ev["labels"][: layer - 1]),
        )
        if layer > t:
            return None, tr, None
        return layer, tr, tuple(self._vec(c) for c in ev["w"][layer - 1])

    def tampered(self, i: int, warmup: bool):
        """None when op i sends an honest line; else the tampered request
        (layer, transcript, w pair, line) it sends, drawn from the op's
        RNG: a random honest line with one bit flipped afresh."""
        rng = op_rng(self.seed, self.tag, int(warmup), i)
        if rng.random() < HONEST_SHARE:
            return None
        k, layer = self.honest[int(rng.integers(len(self.honest)))]
        layer, tr, w = self.request(k, layer)
        kinds = tamper_kinds(tr, w)
        tr, w = tamper(tr, w, kinds[int(rng.integers(len(kinds)))], rng)
        return layer, tr, w, encode_request(layer, tr, w)

    def prepare(self, i: int, warmup: bool = False):
        """(line, expected reply); the expected reply of a tampered line
        is None and is checked after the loop."""
        req = self.tampered(i, warmup)
        if req is not None:
            return req[3], None
        k, layer = self.honest[self.cursor % len(self.honest)]
        self.cursor += 1
        self.sent_honest += 1
        ev = self.evaluations[k]
        return ev["lines"][layer - 1], ev["replies"][layer - 1]

    def run_op(self, i: int, prepared=None, warmup: bool = False) -> str:
        line, expected = prepared
        reply = self.server.send(line)
        if expected is None:
            self.sent_tampered.append((i, reply))
            return OK
        return OK if reply == expected else WRONG

    def check(self, outcomes: list[str], warmup: bool = False) -> None:
        """Check the replies to the tampered lines of the last loop."""
        for i, reply in self.sent_tampered:
            layer, tr, w, line = self.tampered(i, warmup)
            if not self.check_reply(layer, tr, w, line, reply, honest=False):
                outcomes[i] = WRONG
        self.sent_tampered = []

    def record(self) -> dict:
        return {
            **self.pool_record,
            "pool_evaluations": len(self.evaluations),
            "honest_lines": len(self.honest),
            "honest_lines_sent": self.sent_honest,
            "sends_per_honest_line": self.sent_honest / len(self.honest),
        }

    def start_trace(self, tracer: tracing.Tracer, spans_path: Path) -> None:
        """Swap the server for one started through the benchmark's traced
        entry; its first lines (readiness and warm-up) carry no op id."""
        self.server.close()
        self.spans_path = spans_path
        started = time.perf_counter()
        self.server = Server(
            [sys.executable, str(HERE / "serve_entry.py"), "--skip", str(1 + self.warmup_ops),
             "--spans", str(self.spans_path), str(self.obf_dir)]
        )
        if self.server.send(PROBE_LINE) != "BOT":
            raise RuntimeError("traced oracle server gave a wrong first reply")
        self.startup_s = time.perf_counter() - started
        self.wrong_in_generation += self.warm_up()

    def stop_trace(self, tracer: tracing.Tracer, latencies: list[float]):
        self.server.close()
        spans, counters = tracing.load(str(self.spans_path))
        handled: dict[int, float] = {}
        for name, start, end, parent, op in spans:
            if name == "obf.handle_request_line" and op is not None and parent < 0:
                handled[op] = (end - start) * 1e-9
        waits = [rt - handled[k] for k, rt in enumerate(latencies) if k in handled]
        extra = {
            "cli.wire.roundtrip_ms": 1e3 * sum(latencies) / max(len(latencies), 1),
            "cli.wire.wait_ms": 1e3 * sum(waits) / max(len(waits), 1),
            "cli.serve.startup_s": self.startup_s,
        }
        return spans, counters, extra

    def child_peak_rss_kb(self) -> int:
        return peak_rss_kb(self.server.proc.pid)

    def close(self) -> None:
        server: Optional[Server] = getattr(self, "server", None)
        if server is not None:
            server.close()


WORKLOADS = {w.name: w for w in (PhysicalDefault, LogicalTchain, OracleServe)}
