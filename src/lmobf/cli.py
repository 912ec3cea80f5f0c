"""Command-line front end for the obfuscation pipeline.

Subcommands: compile a circuit into a measurement program, obfuscate a
program into an oracle-key directory, evaluate or attack an obfuscation,
serve the oracles over stdin/stdout, and run a quick self-check. Every
command takes --seed and produces seed-deterministic stdout; manifests
and timing live in files, never on stdout.

A step that cannot go on raises Failure(code, message); main prints
`error: <message>` as the one stderr line and returns the code. Exit
codes: 0 success, 1 a failed self-check or an oracle server that died
or sent a malformed reply, 2 unusable arguments or input files, 3
structural violations or simulator limits (a program wider than the
cap, in obfuscate, eval and attack alike: `program is too wide for the
simulator: N qubits exceeds cap of 24`), 4 a rejected honest evaluation.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Optional, Sequence, TypeVar

import numpy as np

from .gf2 import BitVector, dual, sample_subspace
from .lm import (
    Circuit,
    Gate,
    LMProgram,
    check_lm_invariants,
    circuit_output_distribution,
    compile_circuit,
    lmeval_distribution,
    parse_circuit,
    program_from_text,
    program_to_text,
    total_variation,
)
from .obf import (
    ObfParams,
    ObfuscatedProgram,
    OracleKey,
    OracleReplyError,
    attack_harness,
    handle_request_line,
    induced_map,
    is_bot,
    oracle_key_from_text,
    oracle_key_to_text,
    qeval,
    qobf,
    real_suite,
    remote_suite,
    simulated_suite,
)
from .sim import (
    QubitCapError,
    apply_gate,
    check_cap,
    prepare_subspace_state,
    state_distance,
)
from .text import LineReader, parse
from .tokens import keypair_from_subspaces, tok_gen, tok_sign, tok_ver

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3
EXIT_REJECTED = 4

KEY_FILE = "oracle_key.txt"
STATE_FILE = "state.txt"
MANIFEST_FILE = "manifest.txt"
UNUSABLE = "unusable obfuscation directory: "

T = TypeVar("T")


class Failure(Exception):
    """Failure(code, message) ends a command: main prints `error:
    <message>` and returns code."""


def _read(path: Path, parse_text: Callable[[str], T], prefix: str, io_prefix: str = "") -> T:
    """parse_text of the file at path. An unreadable file is exit 2 with
    io_prefix before the OSError's text, a ValueError (undecodable text
    too) exit 2 with prefix before its text."""
    try:
        return parse_text(path.read_text())
    except OSError as exc:
        raise Failure(EXIT_USAGE, f"{io_prefix}{exc}")
    except ValueError as exc:
        raise Failure(EXIT_USAGE, f"{prefix}{exc}")


def _write(path: Path, text: str) -> None:
    """Write text to path; an OSError is exit 2 with its own text."""
    try:
        path.write_text(text)
    except OSError as exc:
        raise Failure(EXIT_USAGE, str(exc))


def _check_width(program: LMProgram) -> None:
    """Exit 3 when the program's live wires outgrow the simulator cap."""
    try:
        check_cap(program.peak_live)
    except QubitCapError as exc:
        raise Failure(EXIT_LIMIT, f"program is too wide for the simulator: {exc}")


def _accepted(reply: T) -> T:
    """reply, unless it is a Reject, which is exit 4 with its layer and reason."""
    if is_bot(reply):
        raise Failure(
            EXIT_REJECTED, f"honest evaluation was rejected at layer {reply.layer}: {reply.reason}"
        )
    return reply


def _params_from_args(args: argparse.Namespace) -> ObfParams:
    return ObfParams(
        security=args.security,
        label_bits=args.kappa,
        token_dim=args.kappa_prime,
        scaled_labels=args.paper_kappa,
    )


def _param_lines(params: ObfParams, seed: int) -> list[str]:
    return [
        f"seed {seed}",
        f"lambda {params.security}",
        f"kappa {params.label_bits}",
        f"kappa-prime {params.token_dim}",
        f"paper-kappa {'on' if params.scaled_labels else 'off'}",
        "initial-state program-default",
    ]


def read_state(r: LineReader, key: OracleKey) -> ObfParams:
    """The parameters whose _param_lines r reads next, which must be
    those the key was made with."""

    def agreeing(tag: str, want: int) -> int:
        got = r.integer(tag, 1)
        if got != want:
            raise ValueError(f"{tag} {got} disagrees with the oracle key's {want}")
        return got

    r.integer("seed", 0)
    security = agreeing("lambda", key.auth_key.security)
    label_bits = r.integer("kappa", 8)
    token_dim = agreeing("kappa-prime", key.token_dim)
    scaled = r.fields("paper-kappa", 1)
    if scaled not in (["on"], ["off"]):
        raise ValueError(f"paper-kappa takes on or off, found {scaled[0]!r}")
    params = ObfParams(security, label_bits, token_dim, scaled == ["on"])
    if params.labels_for(key.program.num_wires) != key.label_bits:
        raise ValueError(f"labels disagree with the oracle key's {key.label_bits} bits")
    r.fields("initial-state program-default", 0)
    return params


def _load_key(directory: Path) -> OracleKey:
    """The oracle key of an obfuscation directory."""
    return _read(directory / KEY_FILE, oracle_key_from_text, UNUSABLE, UNUSABLE)


def _load_obfuscation(directory: Path) -> ObfuscatedProgram:
    """The handle an obfuscation directory describes, with a fresh token
    key, once its program's width is checked."""
    key = _load_key(directory)
    params = _read(
        directory / STATE_FILE, lambda text: parse(text, lambda r: read_state(r, key)),
        UNUSABLE, UNUSABLE,
    )
    _check_width(key.program)
    return ObfuscatedProgram(
        params=params,
        key=key,
        token=keypair_from_subspaces(key.token_dim, key.token_vk),
        suite=real_suite(key),
    )


def cmd_compile(args: argparse.Namespace) -> int:
    circuit = _read(Path(args.circuit), parse_circuit, "bad circuit: ")
    program = compile_circuit(circuit)
    violations = check_lm_invariants(program)
    if violations:
        raise Failure(EXIT_LIMIT, "compiled program is malformed: " + "; ".join(violations))
    text = program_to_text(program)
    if args.out:
        _write(Path(args.out), text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_obfuscate(args: argparse.Namespace) -> int:
    started = time.monotonic()
    program = _read(Path(args.program), program_from_text, "bad program file: ")
    _check_width(program)
    try:
        params = _params_from_args(args)
    except ValueError as exc:
        raise Failure(EXIT_USAGE, str(exc))
    try:
        obf = qobf(params, program, np.random.default_rng(args.seed))
    except ValueError as exc:
        raise Failure(EXIT_LIMIT, str(exc))
    # Each input bit's signature vector is zero, which the verifier
    # rejects, with probability 2^-kappa', so m input bits bound the
    # honest failure rate by m * 2^-kappa'.
    bound = program.num_input_bits * 2.0**-params.token_dim
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise Failure(EXIT_USAGE, str(exc))
    key_text = oracle_key_to_text(obf.key)
    state = _param_lines(params, args.seed)
    _write(out / KEY_FILE, key_text)
    _write(out / STATE_FILE, "\n".join(state) + "\n")
    manifest = [
        "command obfuscate",
        *state,
        f"honest-failure-bound {bound:.3g}",
        f"input {args.program}",
        f"output {out / KEY_FILE}",
        f"output {out / STATE_FILE}",
        f"elapsed-ms {int(1000 * (time.monotonic() - started))}",
    ]
    _write(out / MANIFEST_FILE, "\n".join(manifest) + "\n")
    digest = hashlib.sha256(key_text.encode()).hexdigest()
    print(f"oracle-key sha256 {digest}")
    print(f"wires {program.num_wires} layers {program.t + 1} label-bits {obf.key.label_bits}")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    directory = Path(args.obf_dir)
    obf = _load_obfuscation(directory)
    try:
        x = BitVector.from_string(args.x)
    except ValueError as exc:
        raise Failure(EXIT_USAGE, f"bad input bits: {exc}")
    if len(x) != obf.key.program.num_input_bits:
        raise Failure(
            EXIT_USAGE, f"input takes {obf.key.program.num_input_bits} bits, got {len(x)}"
        )
    rng = np.random.default_rng(args.seed)
    if args.oracle_mode == "serve":
        # The child imports the lmobf this process runs, wherever it was found.
        root = str(Path(__file__).resolve().parent.parent)
        path = os.environ.get("PYTHONPATH")
        server = subprocess.Popen(
            [sys.executable, "-m", "lmobf", "oracle-serve", str(directory)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": root + (os.pathsep + path if path else "")},
        )

        def send(line: str) -> str:
            server.stdin.write(line + "\n")
            server.stdin.flush()
            reply = server.stdout.readline()
            if not reply:
                raise BrokenPipeError("oracle server closed its output")
            return reply

        try:
            y = qeval(x, obf, rng, suite=remote_suite(obf.key.chain, send))
        except BrokenPipeError:
            y = None
        except OracleReplyError as exc:
            raise Failure(EXIT_FAILED, f"oracle server sent a malformed reply: {exc}")
        finally:
            with contextlib.suppress(BrokenPipeError):
                server.stdin.close()
            status = server.wait(timeout=30)
        if y is None:
            raise Failure(EXIT_FAILED, f"oracle server stopped answering (exit status {status})")
    else:
        y = qeval(x, obf, rng)
    print(_accepted(y))
    return EXIT_OK


def cmd_attack(args: argparse.Namespace) -> int:
    obf = _load_obfuscation(Path(args.obf_dir))
    try:
        report = attack_harness(args.kind, obf, np.random.default_rng(args.seed), args.trials)
    except ValueError as exc:
        raise Failure(EXIT_USAGE, str(exc))
    print(_accepted(report).to_text())
    return EXIT_OK


def cmd_oracle_serve(args: argparse.Namespace) -> int:
    key = _load_key(Path(args.obf_dir))
    sys.stdin.reconfigure(errors="surrogateescape")  # an undecodable byte is a malformed line
    try:
        for line in sys.stdin:
            if not line.strip():
                continue
            print(handle_request_line(key, line), flush=True)
    except BrokenPipeError:
        # The reader has left after every line it read was answered. Point
        # stdout at the null device, so that the flush at exit finds no
        # closed pipe to report.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return EXIT_OK


# --- selftest ------------------------------------------------------------------


def _check_subspace_duality() -> bool:
    for lam in (1, 2):
        p = 2 * lam + 1
        for seed in range(3):
            rng = np.random.default_rng(seed)
            space = sample_subspace(p, lam, rng)
            state = prepare_subspace_state(space)
            for q in range(1, p + 1):
                state = apply_gate(state, "H", (q,))
            if state_distance(state, prepare_subspace_state(dual(space))) > 1e-12:
                return False
    return True


def _check_compiler_equivalence() -> bool:
    circuits = [
        Circuit(1, 1, (Gate("T", (1,)),), (1,)),
        Circuit(2, 2, (Gate("CNOT", (1, 2)), Gate("T", (2,))), (1, 2)),
        Circuit(1, 1, (Gate("H", (1,)), Gate("T", (1,)), Gate("H", (1,))), (1,)),
        Circuit(1, 2, (Gate("H", (2,)), Gate("CNOT", (2, 1))), (1, 2)),
    ]
    for circuit in circuits:
        program = compile_circuit(circuit)
        for v in range(2**circuit.num_input_bits):
            x = BitVector.from_int(v, circuit.num_input_bits)
            gap = total_variation(
                circuit_output_distribution(circuit, x), lmeval_distribution(x, program)
            )
            if gap > 1e-9:
                return False
    return True


def _check_end_to_end() -> bool:
    params = ObfParams(security=1, label_bits=32, token_dim=16)
    circuits = [
        Circuit(1, 1, (Gate("T", (1,)),), (1,)),
        Circuit(2, 2, (Gate("CNOT", (1, 2)), Gate("T", (2,))), (1, 2)),
    ]
    for circuit in circuits:
        program = compile_circuit(circuit)
        q_fn = induced_map(program)
        for seed in range(2):
            for v in range(2**circuit.num_input_bits):
                x = BitVector.from_int(v, circuit.num_input_bits)
                obf = qobf(params, program, np.random.default_rng(seed))
                y = qeval(x, obf, np.random.default_rng(100 + seed))
                if is_bot(y) or y != q_fn(x):
                    return False
    return True


def _check_simulated_oracles() -> bool:
    params = ObfParams(security=1, label_bits=32, token_dim=16)
    circuit = Circuit(2, 2, (Gate("CNOT", (1, 2)), Gate("T", (2,))), (1, 2))
    program = compile_circuit(circuit)
    q_fn = induced_map(program)
    for v in range(4):
        x = BitVector.from_int(v, 2)
        obf = qobf(params, program, np.random.default_rng(7))
        suite = simulated_suite(obf.key.chain, obf.key.verify, q_fn)
        y = qeval(x, obf, np.random.default_rng(8), suite=suite)
        if is_bot(y) or y != q_fn(x):
            return False
    return True


def _check_token_one_shot() -> bool:
    rng = np.random.default_rng(9)
    keypair = tok_gen(16, 2, rng)
    x = BitVector((0, 1))
    sigma = tok_sign(x, keypair, rng)
    if not tok_ver(keypair.vk, x, sigma):
        return False
    try:
        tok_sign(BitVector((1, 0)), keypair, rng)
    except RuntimeError:
        pass
    else:
        return False
    other = tok_gen(16, 2, np.random.default_rng(10))
    return not tok_ver(other.vk, x, sigma)


def cmd_selftest(args: argparse.Namespace) -> int:
    checks = [
        ("subspace-duality", _check_subspace_duality),
        ("compiler-equivalence", _check_compiler_equivalence),
        ("end-to-end", _check_end_to_end),
        ("simulated-oracles", _check_simulated_oracles),
        ("token-one-shot", _check_token_one_shot),
    ]
    failures = 0
    for name, check in checks:
        ok = check()
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        failures += not ok
    return EXIT_OK if failures == 0 else EXIT_FAILED


# --- argument wiring -------------------------------------------------------------


def _seed(text: str) -> int:
    """The type of every --seed flag: a non-negative integer, as
    np.random.default_rng takes."""
    try:
        value = int(text)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--lambda", dest="security", type=int, default=2, metavar="N")
    parser.add_argument("--kappa", type=int, default=64, metavar="N")
    parser.add_argument("--kappa-prime", dest="kappa_prime", type=int, default=16, metavar="N")
    parser.add_argument("--paper-kappa", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lmobf",
        description="Compile, obfuscate, evaluate, and attack measurement programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compile", help="circuit file -> measurement program")
    c.add_argument("circuit")
    c.add_argument("-o", "--out", default=None)
    c.add_argument("--seed", type=_seed, default=0)
    c.set_defaults(handler=cmd_compile)

    o = sub.add_parser("obfuscate", help="program file -> oracle-key directory")
    o.add_argument("program")
    o.add_argument("-o", "--out", required=True)
    o.add_argument("--seed", type=_seed, default=0)
    _add_param_flags(o)
    o.set_defaults(handler=cmd_obfuscate)

    e = sub.add_parser("eval", help="evaluate an obfuscation on classical input bits")
    e.add_argument("obf_dir")
    e.add_argument("x", metavar="BITS")
    e.add_argument("--seed", type=_seed, default=0)
    e.add_argument("--oracle-mode", choices=("inproc", "serve"), default="inproc")
    e.set_defaults(handler=cmd_eval)

    a = sub.add_parser("attack", help="run a scripted adversary against an obfuscation")
    a.add_argument("obf_dir")
    a.add_argument(
        "kind", choices=("pauli-tamper", "label-forge", "replay", "mixed-input")
    )
    a.add_argument("--trials", type=int, default=None)
    a.add_argument("--seed", type=_seed, default=0)
    a.set_defaults(handler=cmd_attack)

    s = sub.add_parser("selftest", help="fast built-in checks")
    s.add_argument("--seed", type=_seed, default=0)
    s.set_defaults(handler=cmd_selftest)

    v = sub.add_parser("oracle-serve", help="answer oracle queries on stdin")
    v.add_argument("obf_dir")
    v.add_argument("--seed", type=_seed, default=0)
    v.set_defaults(handler=cmd_oracle_serve)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except Failure as exc:
        code, message = exc.args
        print(f"error: {message}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
