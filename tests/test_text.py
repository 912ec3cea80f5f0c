"""The one line reader behind every text format: a damaged line is a
ValueError that names its line, never another exception."""

import re

import numpy as np
from hypothesis import given, settings, strategies as st

from lmobf.auth import key_from_text, key_to_text
from lmobf.cli import _param_lines, read_state
from lmobf.lm import (
    Circuit,
    Gate,
    compile_circuit,
    format_circuit,
    parse_circuit,
    program_from_text,
    program_to_text,
)
from lmobf.obf import ObfParams, oracle_key_from_text, oracle_key_to_text, qobf
from lmobf.text import parse
from lmobf.tokens import vk_from_text, vk_to_text

CIRCUIT = Circuit(2, 2, (Gate("CNOT", (1, 2)), Gate("H", (2,)), Gate("T", (2,))), (1, 2))
PARAMS = ObfParams(security=1, label_bits=16, token_dim=2)
KEY = qobf(PARAMS, compile_circuit(CIRCUIT), np.random.default_rng(61)).key

# (text, parser) for every format a file on disk can hold
FORMATS = [
    (format_circuit(CIRCUIT), parse_circuit),
    (program_to_text(KEY.program), program_from_text),
    (key_to_text(KEY.auth_key), key_from_text),
    (vk_to_text(KEY.token_dim, KEY.token_vk), vk_from_text),
    (oracle_key_to_text(KEY), oracle_key_from_text),
    ("\n".join(_param_lines(PARAMS, 7)), lambda text: parse(text, lambda r: read_state(r, KEY))),
]


def mutate(lines: list[str], k: int, kind: str, data) -> list[str]:
    """lines with line k cut, blanked, duplicated, swapped with the next,
    short of one token, with one digit changed, or with its tag renamed
    to that of another line."""
    lines = list(lines)
    tokens = lines[k].split()
    if kind == "cut":
        del lines[k]
    elif kind == "blank":
        lines[k] = ""
    elif kind == "duplicate":
        lines.insert(k, lines[k])
    elif kind == "swap" and k + 1 < len(lines):
        lines[k], lines[k + 1] = lines[k + 1], lines[k]
    elif kind == "drop-token":
        del tokens[data.draw(st.integers(0, len(tokens) - 1))]
        lines[k] = " ".join(tokens)
    elif kind == "digit" and re.search(r"\d", lines[k]):
        spots = [m.start() for m in re.finditer(r"\d", lines[k])]
        at = data.draw(st.sampled_from(spots))
        lines[k] = lines[k][:at] + data.draw(st.sampled_from("0123456789")) + lines[k][at + 1 :]
    elif kind == "retag":
        tokens[0] = data.draw(st.sampled_from(lines)).split()[0]
        lines[k] = " ".join(tokens)
    return lines


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(FORMATS),
    st.sampled_from(["cut", "blank", "duplicate", "swap", "drop-token", "digit", "retag"]),
    st.data(),
)
def test_one_damaged_line_parses_or_names_its_line(fmt, kind, data):
    text, parser = fmt
    lines = text.splitlines()
    damaged = mutate(lines, data.draw(st.integers(0, len(lines) - 1)), kind, data)
    try:
        parser("\n".join(damaged))
    except ValueError as exc:
        assert re.match(r"line \d+: ", str(exc)), str(exc)
