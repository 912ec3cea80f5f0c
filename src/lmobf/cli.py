"""Command-line front end for the obfuscation pipeline.

Subcommands: compile a circuit into a measurement program, obfuscate a
program into an oracle-key directory, evaluate or attack an obfuscation,
serve the oracles over stdin/stdout, and run a quick self-check. Every
command takes --seed and produces seed-deterministic stdout; manifests
and timing live in files, never on stdout.

Exit codes: 0 success, 1 a failed self-check or an oracle server that
died or sent a malformed reply, 2 unusable arguments or input files, 3
structural violations or simulator limits, 4 a rejected honest evaluation.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .gf2 import BitVector, dual, sample_subspace
from .lm import (
    Circuit,
    Gate,
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
    Reject,
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
    QUBIT_CAP,
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


@dataclass(frozen=True)
class RunManifest:
    """Reproducibility record written next to every produced artifact."""

    command: str
    seed: int
    params: tuple[tuple[str, str], ...]
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    elapsed_ms: int

    def to_text(self) -> str:
        lines = [f"command {self.command}", f"seed {self.seed}"]
        lines.extend(f"{k} {v}" for k, v in self.params)
        lines.extend(f"input {p}" for p in self.inputs)
        lines.extend(f"output {p}" for p in self.outputs)
        lines.append(f"elapsed-ms {self.elapsed_ms}")
        return "\n".join(lines) + "\n"


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _rejected(reply: Reject) -> int:
    return _fail(
        f"honest evaluation was rejected at layer {reply.layer}: {reply.reason}", EXIT_REJECTED
    )


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


def _load_obfuscation(directory: Path) -> ObfuscatedProgram:
    """The handle an obfuscation directory describes. Raises
    QubitCapError when the program's live wires outgrow the cap."""
    key = oracle_key_from_text((directory / KEY_FILE).read_text())
    obf = ObfuscatedProgram(
        params=parse((directory / STATE_FILE).read_text(), lambda r: read_state(r, key)),
        key=key,
        token=keypair_from_subspaces(key.token_dim, key.token_vk),
        suite=real_suite(key),
    )
    check_cap(key.program.peak_live)
    return obf


def cmd_compile(args: argparse.Namespace) -> int:
    try:
        circuit = parse_circuit(Path(args.circuit).read_text())
    except OSError as exc:
        return _fail(str(exc), EXIT_USAGE)
    except ValueError as exc:
        return _fail(f"bad circuit: {exc}", EXIT_USAGE)
    program = compile_circuit(circuit)
    violations = check_lm_invariants(program)
    if violations:
        return _fail("compiled program is malformed: " + "; ".join(violations), EXIT_LIMIT)
    text = program_to_text(program)
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            return _fail(str(exc), EXIT_USAGE)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_obfuscate(args: argparse.Namespace) -> int:
    started = time.monotonic()
    try:
        program = program_from_text(Path(args.program).read_text())
    except OSError as exc:
        return _fail(str(exc), EXIT_USAGE)
    except ValueError as exc:
        return _fail(f"bad program file: {exc}", EXIT_USAGE)
    if program.peak_live > QUBIT_CAP:
        return _fail(
            f"program needs {program.peak_live} wires; simulator cap is {QUBIT_CAP}",
            EXIT_LIMIT,
        )
    try:
        params = _params_from_args(args)
    except ValueError as exc:
        return _fail(str(exc), EXIT_USAGE)
    try:
        obf = qobf(params, program, np.random.default_rng(args.seed))
    except ValueError as exc:
        return _fail(str(exc), EXIT_LIMIT)
    # Each input bit's signature vector is zero, which the verifier
    # rejects, with probability 2^-kappa', so m input bits bound the
    # honest failure rate by m * 2^-kappa'.
    bound = program.num_input_bits * 2.0**-params.token_dim
    out = Path(args.out)
    key_text = oracle_key_to_text(obf.key)
    try:
        out.mkdir(parents=True, exist_ok=True)
        (out / KEY_FILE).write_text(key_text)
        (out / STATE_FILE).write_text("\n".join(_param_lines(params, args.seed)) + "\n")
        manifest = RunManifest(
            command="obfuscate",
            seed=args.seed,
            params=tuple(tuple(ln.split(None, 1)) for ln in _param_lines(params, args.seed)[1:])
            + (("honest-failure-bound", f"{bound:.3g}"),),
            inputs=(str(args.program),),
            outputs=(str(out / KEY_FILE), str(out / STATE_FILE)),
            elapsed_ms=int(1000 * (time.monotonic() - started)),
        )
        (out / MANIFEST_FILE).write_text(manifest.to_text())
    except OSError as exc:
        return _fail(str(exc), EXIT_USAGE)
    digest = hashlib.sha256(key_text.encode()).hexdigest()
    print(f"oracle-key sha256 {digest}")
    print(f"wires {program.num_wires} layers {program.t + 1} label-bits {obf.key.label_bits}")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    directory = Path(args.obf_dir)
    try:
        obf = _load_obfuscation(directory)
    except QubitCapError as exc:
        return _fail(f"program is too wide for the simulator: {exc}", EXIT_LIMIT)
    except (OSError, ValueError) as exc:
        return _fail(f"unusable obfuscation directory: {exc}", EXIT_USAGE)
    try:
        x = BitVector.from_string(args.x)
    except ValueError as exc:
        return _fail(f"bad input bits: {exc}", EXIT_USAGE)
    if len(x) != obf.key.program.num_input_bits:
        return _fail(
            f"input takes {obf.key.program.num_input_bits} bits, got {len(x)}", EXIT_USAGE
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
            return _fail(f"oracle server sent a malformed reply: {exc}", EXIT_FAILED)
        finally:
            with contextlib.suppress(BrokenPipeError):
                server.stdin.close()
            status = server.wait(timeout=30)
        if y is None:
            return _fail(f"oracle server stopped answering (exit status {status})", EXIT_FAILED)
    else:
        y = qeval(x, obf, rng)
    if is_bot(y):
        return _rejected(y)
    print(y)
    return EXIT_OK


def cmd_attack(args: argparse.Namespace) -> int:
    try:
        obf = _load_obfuscation(Path(args.obf_dir))
    except QubitCapError as exc:
        return _fail(f"program is too wide for the simulator: {exc}", EXIT_LIMIT)
    except (OSError, ValueError) as exc:
        return _fail(f"unusable obfuscation directory: {exc}", EXIT_USAGE)
    try:
        report = attack_harness(args.kind, obf, np.random.default_rng(args.seed), args.trials)
    except ValueError as exc:
        return _fail(str(exc), EXIT_USAGE)
    if is_bot(report):
        return _rejected(report)
    print(report.to_text())
    return EXIT_OK


def cmd_oracle_serve(args: argparse.Namespace) -> int:
    try:
        key = oracle_key_from_text((Path(args.obf_dir) / KEY_FILE).read_text())
    except (OSError, ValueError) as exc:
        return _fail(f"unusable obfuscation directory: {exc}", EXIT_USAGE)
    for line in sys.stdin:
        if not line.strip():
            continue
        print(handle_request_line(key, line), flush=True)
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
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
