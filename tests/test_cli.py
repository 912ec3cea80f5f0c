"""Command-line behavior: artifacts, exit codes, determinism, and the
wire protocol under a real subprocess."""

import io
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from lmobf.auth import gen
from lmobf.cli import _param_lines, _params_from_args, build_parser, main
from lmobf.lm import (
    check_lm_invariants,
    compile_circuit,
    parse_circuit,
    program_from_text,
    program_to_text,
)
from lmobf.gf2 import BitVector
from lmobf.obf import ObfParams, OracleKey, oracle_key_to_text, qeval, qobf
from lmobf.tokens import tok_gen

CIRCUIT = "qubits 2 inputs 2 outputs 1,2\nCNOT 1 2\nT 2\n"
IDENTITY3 = "qubits 3 inputs 3 outputs 1,2,3\n"
OBF_FLAGS = ["--lambda", "1", "--kappa", "32", "--kappa-prime", "16"]
GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())


def invoke(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:
        return int(exc.code or 0)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    (root / "circ.txt").write_text(CIRCUIT)
    assert invoke(["compile", str(root / "circ.txt"), "-o", str(root / "prog.txt")]) == 0
    assert (
        invoke(
            ["obfuscate", str(root / "prog.txt"), "-o", str(root / "obf"), "--seed", "5"]
            + OBF_FLAGS
        )
        == 0
    )
    return root


def test_compile_output_is_valid_program(workdir):
    text = (workdir / "prog.txt").read_text()
    program = program_from_text(text)
    assert check_lm_invariants(program) == []
    assert program.num_input_bits == 2
    assert program_to_text(program) == text


def test_compile_stdout_matches_file(workdir, capsys):
    assert invoke(["compile", str(workdir / "circ.txt")]) == 0
    assert capsys.readouterr().out == (workdir / "prog.txt").read_text()


def test_compile_rejects_unknown_gate(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("qubits 3 inputs 3 outputs 1,2,3\nCCZ 1 2 3\n")
    assert invoke(["compile", str(f)]) == 2
    assert "CCZ" in capsys.readouterr().err


def test_compile_missing_file_is_usage_error(tmp_path):
    assert invoke(["compile", str(tmp_path / "nope.txt")]) == 2


def test_obfuscate_writes_key_state_manifest(workdir):
    for name in ("oracle_key.txt", "state.txt", "manifest.txt"):
        assert (workdir / "obf" / name).exists()
    manifest = (workdir / "obf" / "manifest.txt").read_text()
    assert "command obfuscate" in manifest
    assert "seed 5" in manifest
    assert "elapsed-ms" in manifest
    state = (workdir / "obf" / "state.txt").read_text()
    assert "lambda 1" in state and "kappa 32" in state and "kappa-prime 16" in state


@pytest.mark.parametrize("flags, paper_kappa", [([], "off"), (["--paper-kappa"], "on")])
def test_obfuscate_manifest_lines(workdir, tmp_path, flags, paper_kappa):
    """Every line of manifest.txt at the default flags, with and without
    --paper-kappa; only the elapsed-ms value varies between runs."""
    prog, out = str(workdir / "prog.txt"), tmp_path / "o"
    assert invoke(["obfuscate", prog, "-o", str(out), "--seed", "0", *flags]) == 0
    lines = (out / "manifest.txt").read_text().splitlines()
    assert lines[:-1] == [
        "command obfuscate",
        "seed 0",
        "lambda 2",
        "kappa 64",
        "kappa-prime 16",
        f"paper-kappa {paper_kappa}",
        "initial-state program-default",
        "honest-failure-bound 3.05e-05",
        f"input {prog}",
        f"output {out / 'oracle_key.txt'}",
        f"output {out / 'state.txt'}",
    ]
    tag, ms = lines[-1].split(" ")
    assert tag == "elapsed-ms" and ms.isdigit()


def test_cli_defaults_are_the_library_defaults():
    """obfuscate with no parameter flags makes the ObfParams() defaults:
    lambda 2, kappa 64, kappa' 16, fixed-width labels."""
    args = build_parser().parse_args(["obfuscate", "prog.txt", "-o", "out"])
    assert _params_from_args(args) == ObfParams() == ObfParams(2, 64, 16, False)


@pytest.mark.parametrize("kappa_prime, bound", [("4", "0.125"), ("16", "3.05e-05")])
def test_manifest_states_the_honest_failure_bound(workdir, tmp_path, kappa_prime, bound):
    """manifest.txt carries m * 2^-kappa', the bound on an honest run
    being refused for a zero signature vector; the circuit has m = 2
    input bits."""
    argv = ["obfuscate", str(workdir / "prog.txt"), "-o", str(tmp_path), "--seed", "1"]
    assert invoke(argv + ["--kappa-prime", kappa_prime]) == 0
    assert f"\nhonest-failure-bound {bound}\n" in (tmp_path / "manifest.txt").read_text()


def test_obfuscate_stdout_is_seed_deterministic(workdir, tmp_path, capsys):
    argv = ["obfuscate", str(workdir / "prog.txt"), "--seed", "5"] + OBF_FLAGS
    assert invoke(argv + ["-o", str(tmp_path / "a")]) == 0
    first = capsys.readouterr().out
    assert invoke(argv + ["-o", str(tmp_path / "b")]) == 0
    assert capsys.readouterr().out == first
    assert first.startswith("oracle-key sha256 ")
    assert invoke(
        ["obfuscate", str(workdir / "prog.txt"), "--seed", "6", "-o", str(tmp_path / "c")]
        + OBF_FLAGS
    ) == 0
    assert capsys.readouterr().out != first


@pytest.mark.parametrize(
    "case",
    [
        "kappa 4",
        "kappa 1048577",
        "lambda 0",
        "kappa-prime 0",
        "compile into a missing directory",
        "obfuscate onto a file",
    ],
)
@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["asserts", "optimized"])
def test_unusable_arguments_exit_2(workdir, tmp_path, case, flags):
    """A parameter out of range or an output path that cannot be written
    is a usage error with one message line, never exit 3 or a traceback,
    whether or not asserts are compiled."""
    prog, out = str(workdir / "prog.txt"), str(tmp_path / "o")
    argv = {
        "kappa 4": ["obfuscate", prog, "-o", out, "--kappa", "4"],
        "kappa 1048577": ["obfuscate", prog, "-o", out, "--kappa", "1048577"],
        "lambda 0": ["obfuscate", prog, "-o", out, "--lambda", "0"],
        "kappa-prime 0": ["obfuscate", prog, "-o", out, "--kappa-prime", "0"],
        "compile into a missing directory": [
            "compile", str(workdir / "circ.txt"), "-o", str(tmp_path / "missing" / "x.txt")
        ],
        "obfuscate onto a file": ["obfuscate", prog, "-o", prog],
    }[case]
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "lmobf", *argv], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_key_and_state_wider_than_the_label_cap_are_refused(workdir, tmp_path, capsys):
    """An oracle key and a state.txt that agree on labels one bit wider
    than the cap of 2^20 bits are a usage error that names the key's
    line, not an evaluation that hashes megabit labels."""
    bad = tmp_path / "obf"
    shutil.copytree(workdir / "obf", bad)
    for name, old, new in (
        ("oracle_key.txt", "label-bits 32", "label-bits 1048577"),
        ("state.txt", "kappa 32", "kappa 1048577"),
    ):
        lines = (bad / name).read_text().splitlines()
        (bad / name).write_text("\n".join(corrupt(lines, f"{old} => {new}")) + "\n")
    assert invoke(["eval", str(bad), "10"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "wider than the cap of 1048576" in err


@pytest.mark.parametrize("qubits, t_gates, wires, code", [(2, 15, 32, 0), (1, 16, 33, 3)])
def test_paper_labels_past_32_wires_are_a_limit(tmp_path, capsys, qubits, t_gates, wires, code):
    """--paper-kappa sizes labels as wires**4 bits: 32 wires reach the
    cap of 2^20 bits exactly, 33 wires pass it, which obfuscate reports
    as a limit."""
    head = f"qubits {qubits} inputs {qubits} outputs {qubits}\n"
    (tmp_path / "c.txt").write_text(head + "T 1\n" * t_gates)
    prog, out = str(tmp_path / "p.txt"), str(tmp_path / "o")
    assert invoke(["compile", str(tmp_path / "c.txt"), "-o", prog]) == 0
    assert program_from_text(Path(prog).read_text()).num_wires == wires
    assert invoke(["obfuscate", prog, "-o", out, "--lambda", "1", "--paper-kappa"]) == code
    stdout, err = capsys.readouterr()
    if code:
        assert err == "error: labels of 1185921 bits are wider than the cap of 1048576\n"
    else:
        assert stdout.endswith("label-bits 1048576\n")


def test_obfuscate_names_a_program_without_inputs(tmp_path, capsys):
    """A program with no input bits compiles, but obfuscate refuses it
    (exit 3) with a message that says the token has nothing to sign."""
    (tmp_path / "c.txt").write_text("qubits 1 inputs 0 outputs 1\nH 1\n")
    prog = str(tmp_path / "p.txt")
    assert invoke(["compile", str(tmp_path / "c.txt"), "-o", prog]) == 0
    assert invoke(["obfuscate", prog, "-o", str(tmp_path / "o"), "--kappa-prime", "4"]) == 3
    assert capsys.readouterr().err == (
        "error: the program has no input bits for the token to sign\n"
    )


def test_obfuscate_rejects_program_over_cap(tmp_path, capsys):
    wide = "qubits 25 inputs 25 outputs " + ",".join(str(i) for i in range(1, 26)) + "\n"
    (tmp_path / "wide.txt").write_text(wide)
    assert invoke(["compile", str(tmp_path / "wide.txt"), "-o", str(tmp_path / "wide.prog")]) == 0
    assert (
        invoke(["obfuscate", str(tmp_path / "wide.prog"), "-o", str(tmp_path / "w")] + OBF_FLAGS)
        == 3
    )
    assert "cap" in capsys.readouterr().err


def test_eval_prints_program_output(workdir, capsys):
    assert invoke(["eval", str(workdir / "obf"), "10", "--seed", "3"]) == 0
    assert capsys.readouterr().out == "11\n"


def test_eval_identity_echoes_input(tmp_path, capsys):
    (tmp_path / "id.txt").write_text(IDENTITY3)
    assert invoke(["compile", str(tmp_path / "id.txt"), "-o", str(tmp_path / "id.prog")]) == 0
    assert (
        invoke(["obfuscate", str(tmp_path / "id.prog"), "-o", str(tmp_path / "id")] + OBF_FLAGS)
        == 0
    )
    capsys.readouterr()
    assert invoke(["eval", str(tmp_path / "id"), "101"]) == 0
    assert capsys.readouterr().out == "101\n"


def test_eval_stdout_is_seed_deterministic(workdir, capsys):
    runs = []
    for _ in range(2):
        assert invoke(["eval", str(workdir / "obf"), "01", "--seed", "11"]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]


def test_eval_usage_errors(workdir, tmp_path, capsys):
    assert invoke(["eval", str(workdir / "obf"), "2x"]) == 2
    assert invoke(["eval", str(workdir / "obf"), "101"]) == 2
    assert "takes 2 bits" in capsys.readouterr().err
    assert invoke(["eval", str(tmp_path / "missing"), "10"]) == 2


def test_eval_reports_rejection_as_exit_4(workdir, capsys, monkeypatch):
    """An oracle refusal on the honest path is surfaced loudly."""
    import lmobf.cli as cli_mod
    from lmobf.obf import Reject

    monkeypatch.setattr(cli_mod, "qeval", lambda *a, **k: Reject("bad-token", 1))
    assert invoke(["eval", str(workdir / "obf"), "10"]) == 4
    err = capsys.readouterr().err
    assert "rejected at layer 1: bad-token" in err


def test_eval_serve_mode_matches_inproc(workdir, capsys):
    assert invoke(["eval", str(workdir / "obf"), "10", "--seed", "3"]) == 0
    inproc = capsys.readouterr().out
    assert invoke(["eval", str(workdir / "obf"), "10", "--seed", "3", "--oracle-mode", "serve"]) == 0
    assert capsys.readouterr().out == inproc


def test_attack_report_shows_zero_accepted(workdir, capsys):
    assert invoke(["attack", str(workdir / "obf"), "pauli-tamper", "--trials", "25"]) == 0
    out = capsys.readouterr().out
    assert "accepted 0" in out and "rejected 25" in out


def test_attack_default_trials_all_rejected(workdir, capsys):
    assert invoke(["attack", str(workdir / "obf"), "pauli-tamper"]) == 0
    out = capsys.readouterr().out
    assert "trials 1000" in out and "rejected 1000" in out and "accepted 0" in out


def test_pauli_tamper_on_a_hadamard_read_first_round(tmp_path, capsys):
    """A key whose round 1 reads every wire in the Hadamard basis is
    attacked too: each error lands outside the accepted space of the
    read it hits, and every trial is rejected."""
    program = compile_circuit(parse_circuit("qubits 1 inputs 1 outputs 1\nH 1\n"))
    (tmp_path / "h.prog").write_text(program_to_text(replace(program, thetas=((1, 1, 1),))))
    obf = str(tmp_path / "obf")
    assert invoke(["obfuscate", str(tmp_path / "h.prog"), "-o", obf, "--lambda", "1"]) == 0
    capsys.readouterr()
    assert invoke(["attack", obf, "pauli-tamper", "--trials", "200"]) == 0
    out, err = capsys.readouterr()
    assert (out, err) == (
        "attack pauli-tamper\ntrials 200\nrejected 200\naccepted 0\nreason decode-fail 200\n", ""
    )


# A structurally valid program whose round 1 reads no wire: V1 and W1
# are empty, f1 is the constant 0, and g outputs m1, which is always 0
# (a program's input wires start at zero).
ROUND_1_EMPTY = """wires 1
inputs 1
t 1
state 1 input 1
L1: -
L2: -
theta1: -
theta2: 1=0
V1: -
V2: 1
W1: -
f1:
nodes 1
0 const 0
out r 0
g:
nodes 1
0 in m1
out y1 0
"""


@pytest.mark.parametrize(
    "kind, message",
    [
        ("pauli-tamper", "pauli tampering needs a wire that round 1 reads"),
        ("replay", "label replay needs a wire in V1"),
    ],
)
def test_attack_refuses_a_key_whose_round_1_reads_no_wire(tmp_path, capsys, kind, message):
    """pauli-tamper has no codeword of round 1 to hit, and replay no V1
    codeword to draw afresh: each is a usage error that says so."""
    (tmp_path / "prog.txt").write_text(ROUND_1_EMPTY)
    obf = str(tmp_path / "obf")
    assert invoke(["obfuscate", str(tmp_path / "prog.txt"), "-o", obf, *OBF_FLAGS]) == 0
    assert invoke(["eval", obf, "1"]) == 0
    assert capsys.readouterr().out.endswith("\n0\n")
    assert invoke(["attack", obf, kind]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("damage", ["missing directory", "key cut after its first line"])
@pytest.mark.parametrize("command", ["eval", "attack", "oracle-serve"])
def test_unusable_directory_is_one_error_line(workdir, tmp_path, capsys, monkeypatch, command, damage):
    """eval, attack and oracle-serve share one directory loader: a
    missing directory or a cut oracle_key.txt is exit 2 with nothing on
    stdout and one stderr line."""
    obf = tmp_path / "obf"
    if damage != "missing directory":
        shutil.copytree(workdir / "obf", obf)
        key = obf / "oracle_key.txt"
        key.write_text(key.read_text().splitlines()[0] + "\n")
    argv = {
        "eval": ["eval", str(obf), "10"],
        "attack": ["attack", str(obf), "pauli-tamper"],
        "oracle-serve": ["oracle-serve", str(obf)],
    }[command]
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    assert invoke(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: unusable obfuscation directory: ")


def test_attack_unknown_kind_is_usage_error(workdir):
    assert invoke(["attack", str(workdir / "obf"), "nonsense"]) == 2


def test_attack_negative_trials_is_usage_error(workdir, capsys):
    obf = str(workdir / "obf")
    assert invoke(["attack", obf, "replay", "--trials", "-5", "--seed", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "trials" in err
    assert invoke(["attack", obf, "replay", "--trials", "0", "--seed", "1"]) == 0
    assert "trials 0\nrejected 0\naccepted 0\n" in capsys.readouterr().out


@pytest.mark.parametrize(
    "command", ["compile", "obfuscate", "eval", "attack", "selftest", "oracle-serve"]
)
def test_negative_seed_is_usage_error(workdir, tmp_path, command):
    """Every subcommand refuses a negative --seed while parsing its
    arguments: exit 2 with one message, never a traceback."""
    obf = str(workdir / "obf")
    argv = {
        "compile": ["compile", str(workdir / "circ.txt")],
        "obfuscate": ["obfuscate", str(workdir / "prog.txt"), "-o", str(tmp_path / "o")],
        "eval": ["eval", obf, "10"],
        "attack": ["attack", obf, "pauli-tamper"],
        "selftest": ["selftest"],
        "oracle-serve": ["oracle-serve", obf],
    }[command]
    proc = subprocess.run(
        [sys.executable, "-m", "lmobf", *argv, "--seed", "-1"],
        input="",
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "--seed: expected a non-negative integer" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_sets_listed_out_of_order_evaluate_as_ordered(workdir, tmp_path, capsys):
    """A program file listing a V or W set out of order loads and gives
    the ordered file's outputs, in process in both modes and through an
    oracle server: the sets are sorted, not rejected."""
    text = (workdir / "prog.txt").read_text()
    assert "\nV2: 1 3 4\n" in text and "\nW1: 3 4\n" in text
    shuffled = text.replace("\nV2: 1 3 4\n", "\nV2: 4 3 1\n").replace("\nW1: 3 4\n", "\nW1: 4 3\n")
    (tmp_path / "prog.txt").write_text(shuffled)
    argv = ["obfuscate", str(tmp_path / "prog.txt"), "-o", str(tmp_path / "obf"), "--seed", "5"]
    assert invoke(argv + OBF_FLAGS) == 0
    capsys.readouterr()
    ordered, unordered = program_from_text(text), program_from_text(shuffled)
    params = ObfParams(security=1, label_bits=32, token_dim=16)
    for xs in ("00", "01", "10", "11"):
        x = BitVector.from_string(xs)
        outputs = set()
        for program in (ordered, unordered):
            for mode in ("physical", "logical"):
                obf = qobf(params, program, np.random.default_rng(1))
                outputs.add(str(qeval(x, obf, np.random.default_rng(2), mode)))
        for directory in (workdir, tmp_path):
            argv = ["eval", str(directory / "obf"), xs, "--seed", "3", "--oracle-mode", "serve"]
            assert invoke(argv) == 0
            outputs.add(capsys.readouterr().out.strip())
        assert outputs == {xs[0] + str(int(xs[0]) ^ int(xs[1]))}, xs


def test_theta_entry_that_is_no_basis_is_refused(tmp_path, capsys, monkeypatch):
    """The text format cannot carry a theta entry of 2, but a program
    built with one (the compiled `H 1` with theta1 = 2 0 0) is refused by
    obfuscate with exit 3 and the rule it breaks, like the other
    structural violations."""
    import lmobf.cli as cli_mod

    program = compile_circuit(parse_circuit("qubits 1 inputs 1 outputs 1\nH 1"))
    bad = replace(program, thetas=((2, 0, 0),))
    monkeypatch.setattr(cli_mod, "program_from_text", lambda text: bad)
    (tmp_path / "prog.txt").write_text("")
    argv = ["obfuscate", str(tmp_path / "prog.txt"), "-o", str(tmp_path / "o")] + OBF_FLAGS
    assert invoke(argv) == 3
    err = capsys.readouterr().err
    assert err == (
        "error: program fails structural checks: theta1 reads wire 1 in basis 2, not 0 or 1\n"
    )
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["asserts", "optimized"])
def test_wire_listed_twice_in_a_set_is_refused(workdir, tmp_path, flags):
    """A program whose V set lists a wire twice is refused by obfuscate
    with exit 3 and the rule it breaks, and an oracle key carrying that
    line is a usage error from eval and attack that names the line, never
    a traceback, whether or not asserts are compiled."""

    def run(*argv):
        return subprocess.run(
            [sys.executable, *flags, "-m", "lmobf", *argv],
            capture_output=True,
            text=True,
            timeout=120,
        )

    text = (workdir / "prog.txt").read_text()
    assert "\nV2: 1 3 4\n" in text
    (tmp_path / "prog.txt").write_text(text.replace("\nV2: 1 3 4\n", "\nV2: 1 3 4 4\n"))
    proc = run("obfuscate", str(tmp_path / "prog.txt"), "-o", str(tmp_path / "o"), *OBF_FLAGS)
    assert proc.returncode == 3
    assert proc.stderr == "error: program fails structural checks: V2 lists wire 4 twice\n"
    bad = tmp_path / "obf"
    shutil.copytree(workdir / "obf", bad)
    key_file = bad / "oracle_key.txt"
    key_file.write_text(key_file.read_text().replace("\nV2: 1 3 4\n", "\nV2: 1 3 4 4\n"))
    for command in (["eval", str(bad), "10", "--seed", "3"], ["attack", str(bad), "replay"]):
        proc = run(*command)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: unusable obfuscation directory: line ")
        assert proc.stderr.endswith(": V2 lists wire 4 twice\n")


def test_selftest_all_pass(capsys):
    assert invoke(["selftest"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5 and "FAIL" not in out


def test_no_subcommand_is_usage_error():
    assert invoke([]) == 2


def test_module_entry_point_and_serve_protocol(workdir):
    """python -m lmobf must work, since serve-mode eval spawns it."""
    proc = subprocess.run(
        [sys.executable, "-m", "lmobf", "oracle-serve", str(workdir / "obf")],
        input="gibberish\nF 9 00\n",
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == "BOT\nBOT\n"


def test_serve_answers_undecodable_bytes_with_bot(workdir):
    """A request line that is not UTF-8 is one more malformed line, also
    when stdin decodes strictly: BOT, and the server goes on."""
    proc = subprocess.run(
        [sys.executable, "-m", "lmobf", "oracle-serve", str(workdir / "obf")],
        input=b"F 1 zz\n\xff\nG 00\n",
        capture_output=True,
        env={**os.environ, "PYTHONIOENCODING": "utf-8"},
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"BOT\nBOT\nBOT\n", b"")


def test_serve_skips_blank_lines_without_a_reply(workdir):
    """An empty or whitespace-only line is no request: the server sends
    no reply to it, so two requests around two such lines get two BOTs."""
    proc = subprocess.run(
        [sys.executable, "-m", "lmobf", "oracle-serve", str(workdir / "obf")],
        input="G 00\n\n \t \nG 00\n",
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "BOT\nBOT\n", "")


def test_serve_ends_quietly_when_its_reader_leaves(workdir):
    """A reader that closes the pipe after one reply: the server answers
    the next line into the closed pipe, then stops with exit 0 and
    writes nothing to stderr."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "lmobf", "oracle-serve", str(workdir / "obf")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdin.write(b"G 00\n")
    proc.stdin.flush()
    assert proc.stdout.readline() == b"BOT\n"
    proc.stdout.close()
    proc.stdin.write(b"G 00\n" * 100)
    proc.stdin.close()
    assert proc.wait(timeout=60) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_eval_output_matches_library_map(workdir, capsys):
    from lmobf.obf import induced_map, oracle_key_from_text

    key = oracle_key_from_text((workdir / "obf" / "oracle_key.txt").read_text())
    q_fn = induced_map(key.program)
    for xs in ("00", "01", "10", "11"):
        assert invoke(["eval", str(workdir / "obf"), xs, "--seed", "2"]) == 0
        got = capsys.readouterr().out.strip()
        want = q_fn(BitVector.from_string(xs))
        assert got == "".join(str(b) for b in want.bits)


def test_golden_stdout_and_exit_codes(tmp_path, capsys):
    """Seeded stdout and exit codes, byte for byte, of every command on
    the README circuit obfuscated with the default flags at --seed 0
    (cli_golden.json, whose file arguments live in one directory). The
    last rows obfuscate it again at --kappa-prime 4, where the honest
    evaluation at --seed 0 draws a zero token signature vector and exits
    4; its stderr says so."""
    (tmp_path / "circ.txt").write_text(CIRCUIT)
    files = ("circ.txt", "prog.txt", "obf")
    for row in GOLDEN:
        code = invoke([str(tmp_path / a) if a in files else a for a in row["argv"]])
        out, err = capsys.readouterr()
        assert (code, out) == (row["exit"], row["stdout"]), row["argv"]
        if "stderr" in row:
            assert err == row["stderr"], row["argv"]


def corrupt(lines: list[str], case: str) -> list[str]:
    """Lines of oracle_key.txt or of a program file damaged as the case
    says: a section header renamed ("f1:"), a line retagged ("L2: - =>
    L0: -" for the line "L2: -"), a program line replaced ("V1: 99" for
    the line that starts with "V1:"), the delta-hat line blanked, a
    section cut after its first N lines ("cut-N-SECTION"), or the line
    after a header cut ("cut row under A1:")."""
    if case.startswith("cut row under "):
        del lines[lines.index(case.removeprefix("cut row under ")) + 1]
    elif case.endswith(":"):
        lines[lines.index(case)] = case[:-1] + "?"
    elif " => " in case:
        old, new = case.split(" => ")
        lines[lines.index(old)] = new
    elif ": " in case:
        head = case.split(" ")[0]
        lines = [case if ln.startswith(head) else ln for ln in lines]
    elif case == "blank-delta-hat":
        lines = ["" if ln.startswith("delta-hat ") else ln for ln in lines]
    else:
        _, keep, section = case.split("-", 2)
        start = lines.index(f"[{section}]") + 1
        end = next((k for k in range(start, len(lines)) if lines[k].startswith("[")), len(lines))
        lines = lines[: start + int(keep)] + lines[end:]
    return lines


@pytest.mark.parametrize(
    "header",
    [
        "f1:",
        "space:",
        "A1:",
        "cut-2-program",
        "blank-delta-hat",
        "cut-1-token-vk",
        "V1: 99",
        "W1: 3 77",
        "L1: 1>99",
        "V2: 1 3",
        "L1: 1>1",
        "theta1: 2=7",
        "L2: - => L0: -",
        "state 3 magic-T => state 9 magic-T",
        "cut row under A1:",
    ],
)
@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["asserts", "optimized"])
def test_corrupted_key_header_is_usage_error(workdir, tmp_path, header, flags):
    """A corrupted section header, a retagged, blanked or out-of-range
    line, a program that breaks the structural rules, a truncated
    section or a token subspace short of a row in oracle_key.txt is a
    usage error with a message, never a traceback, whether or not
    asserts are compiled."""
    bad = tmp_path / "obf"
    shutil.copytree(workdir / "obf", bad)
    key_file = bad / "oracle_key.txt"
    lines = corrupt(key_file.read_text().splitlines(), header)
    key_file.write_text("\n".join(lines) + "\n")
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "lmobf", "eval", str(bad), "10"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


@pytest.mark.parametrize("line", ["V1: 99", "W1: 3 77"])
def test_obfuscate_rejects_wire_out_of_range(workdir, tmp_path, capsys, line):
    """A V or W set naming a wire above the program's wire count is a
    usage error that names the line, not a traceback."""
    bad = tmp_path / "prog.txt"
    bad.write_text("\n".join(corrupt((workdir / "prog.txt").read_text().splitlines(), line)))
    assert invoke(["obfuscate", str(bad), "-o", str(tmp_path / "obf")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad program file: line ") and "out of range" in err


@pytest.mark.parametrize(
    "line",
    [
        "lambda 2",
        "kappa 64",
        "kappa-prime 9",
        "paper-kappa on",
        "paper-kappa maybe",
        "initial-state whatever",
    ],
)
def test_state_file_must_match_the_key(workdir, tmp_path, capsys, line):
    """A state.txt whose lambda, kappa-prime or label width differs from
    the oracle key's, or whose paper-kappa is not on or off or whose
    initial-state is not program-default, is a usage error that names
    its line."""
    bad = tmp_path / "obf"
    shutil.copytree(workdir / "obf", bad)
    state = (bad / "state.txt").read_text().splitlines()
    tag = line.split()[0]
    (bad / "state.txt").write_text(
        "\n".join(line if ln.split()[0] == tag else ln for ln in state) + "\n"
    )
    assert invoke(["eval", str(bad), "10"]) == 2
    assert capsys.readouterr().err.startswith("error: unusable obfuscation directory: line ")


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["asserts", "optimized"])
def test_key_wider_than_the_cap_is_a_limit(tmp_path, flags):
    """An oracle key whose program needs more live wires than the
    simulator cap (25 qubits, all read by the final round) is exit 3, the
    simulator-limits code, from eval and attack alike, whether or not
    asserts are compiled."""
    rng = np.random.default_rng(0)
    wide = "qubits 25 inputs 25 outputs " + ",".join(str(i) for i in range(1, 26))
    program = compile_circuit(parse_circuit(wide))
    assert program.num_wires == 25
    params = ObfParams(security=1, label_bits=32, token_dim=16)
    key = OracleKey(
        auth_key=gen(1, program.num_wires, rng),
        token_dim=16,
        token_vk=tok_gen(16, program.num_input_bits, rng).vk,
        prf_key=rng.bytes(32),
        label_bits=params.labels_for(program.num_wires),
        program=program,
    )
    obf = tmp_path / "obf"
    obf.mkdir()
    (obf / "oracle_key.txt").write_text(oracle_key_to_text(key))
    (obf / "state.txt").write_text("\n".join(_param_lines(params, 0)) + "\n")
    for command in (["eval", str(obf), "0"], ["attack", str(obf), "pauli-tamper"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "lmobf", *command],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 3
        assert proc.stderr == (
            "error: program is too wide for the simulator: 25 qubits exceeds cap of 24\n"
        )


def test_key_with_many_wires_but_few_live_evaluates(tmp_path, capsys):
    """One qubit with 12 T gates has 25 wires but never more than 4 live
    at once, so its key evaluates (T is diagonal: the output is the
    input) and the attack harness runs on it."""
    rng = np.random.default_rng(0)
    program = compile_circuit(parse_circuit("qubits 1 inputs 1 outputs 1\n" + "T 1\n" * 12))
    assert (program.num_wires, program.peak_live) == (25, 4)
    params = ObfParams(security=1, label_bits=32, token_dim=16)
    key = OracleKey(
        auth_key=gen(1, program.num_wires, rng),
        token_dim=16,
        token_vk=tok_gen(16, program.num_input_bits, rng).vk,
        prf_key=rng.bytes(32),
        label_bits=params.labels_for(program.num_wires),
        program=program,
    )
    obf = tmp_path / "obf"
    obf.mkdir()
    (obf / "oracle_key.txt").write_text(oracle_key_to_text(key))
    (obf / "state.txt").write_text("\n".join(_param_lines(params, 0)) + "\n")
    for x in ("0", "1"):
        assert invoke(["eval", str(obf), x, "--seed", "4"]) == 0
        assert capsys.readouterr().out == x + "\n"
    assert invoke(["attack", str(obf), "pauli-tamper", "--trials", "50"]) == 0
    assert "trials 50\nrejected 50\naccepted 0\n" in capsys.readouterr().out


# The compiled `H 1` with the halves of its H pair swapped: halves a
# and b are both there, but not as two adjacent wires, a then b.
H_PROGRAM = program_to_text(compile_circuit(parse_circuit("qubits 1 inputs 1 outputs 1\nH 1")))
SPLIT_H_PROGRAM = H_PROGRAM.replace(
    "state 2 magic-H 1 a\nstate 3 magic-H 1 b", "state 2 magic-H 1 b\nstate 3 magic-H 1 a"
)
SPLIT_PAIR_RULE = "magic pair 1 is not two adjacent wires, a then b"


def run_cli(flags, *argv):
    return subprocess.run(
        [sys.executable, *flags, "-m", "lmobf", *argv], capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["asserts", "optimized"])
def test_obfuscate_refuses_a_split_hadamard_pair(tmp_path, flags):
    """obfuscate refuses a program whose H pair is split with exit 3 and
    the rule it breaks, whether or not asserts are compiled."""
    assert SPLIT_H_PROGRAM != H_PROGRAM
    (tmp_path / "prog.txt").write_text(SPLIT_H_PROGRAM)
    argv = ["obfuscate", str(tmp_path / "prog.txt"), "-o", str(tmp_path / "o"), *OBF_FLAGS]
    proc = run_cli(flags, *argv)
    assert proc.returncode == 3
    assert proc.stderr == f"error: program fails structural checks: {SPLIT_PAIR_RULE}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["asserts", "optimized"])
def test_key_with_a_split_hadamard_pair_is_a_usage_error(tmp_path, flags):
    """An oracle key whose program has a split H pair is a usage error
    from eval and attack that names the rule, never a traceback."""
    (tmp_path / "prog.txt").write_text(H_PROGRAM)
    obf = tmp_path / "obf"
    proc = run_cli(flags, "obfuscate", str(tmp_path / "prog.txt"), "-o", str(obf), *OBF_FLAGS)
    assert proc.returncode == 0
    key_file = obf / "oracle_key.txt"
    key_file.write_text(key_file.read_text().replace(H_PROGRAM, SPLIT_H_PROGRAM))
    for command in (["eval", str(obf), "1"], ["attack", str(obf), "replay"]):
        proc = run_cli(flags, *command)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: unusable obfuscation directory: line ")
        assert proc.stderr.endswith(f": {SPLIT_PAIR_RULE}\n")


def test_serve_child_finds_the_parents_lmobf(workdir, tmp_path, capsys):
    """A process that found lmobf only through sys.path still gets a
    working oracle server: the child is pointed at the same package."""
    import lmobf

    assert invoke(["eval", str(workdir / "obf"), "10", "--seed", "3"]) == 0
    inproc = capsys.readouterr().out
    src = str(Path(lmobf.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); from lmobf.cli import main; "
        f"sys.exit(main(sys.argv[1:]))"
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    argv = ["eval", str(workdir / "obf"), "10", "--seed", "3", "--oracle-mode", "serve"]
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, timeout=120, cwd=tmp_path, env=env,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, inproc, "")


DEAD_SERVER = """
import subprocess, sys
from lmobf import cli
real_popen = subprocess.Popen
subprocess.Popen = lambda argv, **kw: real_popen([sys.executable, "-c", "raise SystemExit(7)"], **kw)
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["asserts", "optimized"])
def test_dead_oracle_server_is_one_error_line(workdir, flags):
    """An oracle server that exits at once ends serve-mode eval with exit
    1 and one error line naming its exit status, never a traceback."""
    proc = subprocess.run(
        [sys.executable, *flags, "-c", DEAD_SERVER, "eval", str(workdir / "obf"), "10",
         "--oracle-mode", "serve"],
        capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: oracle server stopped answering (exit status 7)\n"


MALFORMED_SERVER = """
import subprocess, sys
from lmobf import cli
child = "import sys\\nfor line in sys.stdin: print('OK zz', flush=True)"
real_popen = subprocess.Popen
subprocess.Popen = lambda argv, **kw: real_popen([sys.executable, "-c", child], **kw)
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["asserts", "optimized"])
def test_malformed_oracle_reply_is_one_error_line(workdir, flags):
    """An oracle server that answers a line that is neither BOT nor a
    well-formed OK ends serve-mode eval with exit 1 and one error line
    quoting the reply, never a traceback."""
    proc = subprocess.run(
        [sys.executable, *flags, "-c", MALFORMED_SERVER, "eval", str(workdir / "obf"), "10",
         "--oracle-mode", "serve"],
        capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: oracle server sent a malformed reply: 'OK zz'\n"
