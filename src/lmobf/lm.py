"""Measurement-based program model and compiler.

A program here is an alternating sequence of CNOT layers and partial
measurements over wires 1..n. Wires collapse in waves: at layer i the
wires in v_sets[i-1] collapse fully (standard or Hadamard basis per
theta), the two wires in w_sets[i-1] collapse only down to one output
bit r_i of a grouped standard-basis measurement, and everything still
active stays coherent. Classical inputs never touch the quantum state:
they enter through the measurement functions as virtual Pauli frames.

The compiler rewrites any {CNOT, H, T} circuit into this shape using
teleportation gadgets, two fresh wires per H or T gate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Collection, Mapping, Optional, Sequence

import numpy as np

from .gf2 import BitVector, concat, split
from .sim import (
    MeasurementSpec,
    StateVector,
    apply_cnots,
    apply_gate,
    measure,
    measure_branches,
    tensor,
)
from .text import LineReader, parse

GATE_KINDS = ("CNOT", "H", "T")


@dataclass(frozen=True)
class Gate:
    kind: str
    wires: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unsupported gate kind {self.kind!r}")
        want = 2 if self.kind == "CNOT" else 1
        if len(self.wires) != want or len(set(self.wires)) != want:
            raise ValueError(f"{self.kind} needs {want} distinct wire(s)")


@dataclass(frozen=True)
class Circuit:
    """Gate list over num_logical_qubits wires; the first num_input_bits
    wires carry the classical input, the rest start at |0>."""

    num_input_bits: int
    num_logical_qubits: int
    gates: tuple[Gate, ...]
    output_wires: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 0 <= self.num_input_bits <= self.num_logical_qubits:
            raise ValueError("input count out of range")
        for g in self.gates:
            if any(not 1 <= w <= self.num_logical_qubits for w in g.wires):
                raise ValueError(f"gate {g} references a wire out of range")
        if len(set(self.output_wires)) != len(self.output_wires):
            raise ValueError("duplicate output wires")
        for w in self.output_wires:
            if not 1 <= w <= self.num_logical_qubits:
                raise ValueError(f"output wire {w} out of range")


def read_circuit(r: LineReader) -> Circuit:
    """Header 'qubits N inputs M outputs w1,w2,...' then one gate per line."""
    n, tag_in, m, tag_out, wires = r.fields("qubits", 5)
    if (tag_in, tag_out) != ("inputs", "outputs"):
        raise ValueError("expected 'qubits N inputs M outputs w1,w2,...'")
    n = r.number(n, 1)
    outs = tuple(r.number(w, 1, n) for w in wires.split(","))
    head = Circuit(r.number(m, 0, n), n, (), outs)  # checked while r.line is the header's
    gates = []
    while kind := next((k for k in GATE_KINDS if r.has(k)), None):
        gates.append(Gate(kind, tuple(r.number(w, 1, n) for w in r.rest(kind).split())))
    return replace(head, gates=tuple(gates))


def parse_circuit(text: str) -> Circuit:
    return parse(text, read_circuit)


def format_circuit(c: Circuit) -> str:
    head = (
        f"qubits {c.num_logical_qubits} inputs {c.num_input_bits} "
        f"outputs {','.join(str(w) for w in c.output_wires)}"
    )
    return "\n".join([head] + [f"{g.kind} {' '.join(str(w) for w in g.wires)}" for g in c.gates])


@dataclass(frozen=True)
class ClassicalFn:
    """GF(2) computation as a DAG. Node forms: ('in', name), ('const', v),
    ('xor', a, b), ('and', a, b) with a, b indices of earlier nodes.
    Outputs are (name, node index) pairs."""

    nodes: tuple[tuple, ...]
    outputs: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        for idx, node in enumerate(self.nodes):
            kind = node[0]
            if kind == "in":
                if not isinstance(node[1], str):
                    raise ValueError("input node needs a name")
            elif kind == "const":
                if node[1] not in (0, 1):
                    raise ValueError("const must be 0/1")
            elif kind in ("xor", "and"):
                if not all(0 <= a < idx for a in node[1:]):
                    raise ValueError("node references must point backward")
            else:
                raise ValueError(f"unknown node kind {kind!r}")
        for name, nid in self.outputs:
            if not 0 <= nid < len(self.nodes):
                raise ValueError(f"output {name} references missing node")

    @property
    def input_names(self) -> tuple[str, ...]:
        return tuple(n[1] for n in self.nodes if n[0] == "in")

    @property
    def output_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.outputs)


def eval_classical_fn(fn: ClassicalFn, bindings: dict[str, Any]) -> dict[str, Any]:
    """fn's outputs by name. A binding is a bit or an int array of bits,
    one per row; an output is an array where it depends on one."""
    vals: list[Any] = []
    for node in fn.nodes:
        if node[0] == "in":
            if node[1] not in bindings:
                raise KeyError(f"unbound input {node[1]!r}")
            vals.append(bindings[node[1]] & 1)
        elif node[0] == "const":
            vals.append(node[1])
        elif node[0] == "xor":
            vals.append(vals[node[1]] ^ vals[node[2]])
        else:
            vals.append(vals[node[1]] & vals[node[2]])
    return {name: vals[nid] for name, nid in fn.outputs}


# Kept for the benchmark tracer, which looks this name up; a benchmark
# change removes it.
eval_classical_fn_batch = eval_classical_fn


class FnBuilder:
    """Append-only DAG builder with hash-consing and constant folding.
    Node ids stay valid as the graph grows, so expression snapshots taken
    mid-build remain usable."""

    def __init__(self) -> None:
        self.nodes: list[tuple] = []
        self._memo: dict[tuple, int] = {}

    def _add(self, node: tuple) -> int:
        if node in self._memo:
            return self._memo[node]
        self.nodes.append(node)
        self._memo[node] = len(self.nodes) - 1
        return len(self.nodes) - 1

    def _const_val(self, a: int) -> Optional[int]:
        node = self.nodes[a]
        return node[1] if node[0] == "const" else None

    def inp(self, name: str) -> int:
        return self._add(("in", name))

    def const(self, v: int) -> int:
        return self._add(("const", v & 1))

    def xor(self, a: int, b: int) -> int:
        if a == b:
            return self.const(0)
        ca, cb = self._const_val(a), self._const_val(b)
        if ca == 0:
            return b
        if cb == 0:
            return a
        if ca is not None and cb is not None:
            return self.const(ca ^ cb)
        return self._add(("xor", min(a, b), max(a, b)))

    def and_(self, a: int, b: int) -> int:
        if a == b:
            return a
        ca, cb = self._const_val(a), self._const_val(b)
        if ca == 0 or cb == 0:
            return self.const(0)
        if ca == 1:
            return b
        if cb == 1:
            return a
        return self._add(("and", min(a, b), max(a, b)))

    def extract(self, outputs: Sequence[tuple[str, int]]) -> ClassicalFn:
        """Garbage-collect to the nodes reachable from outputs."""
        reachable: set[int] = set()
        stack = [nid for _, nid in outputs]
        while stack:
            nid = stack.pop()
            if nid in reachable:
                continue
            reachable.add(nid)
            node = self.nodes[nid]
            if node[0] in ("xor", "and"):
                stack.extend(node[1:])
        order = sorted(reachable)
        renum = {old: new for new, old in enumerate(order)}
        nodes = []
        for old in order:
            node = self.nodes[old]
            if node[0] in ("xor", "and"):
                node = (node[0], renum[node[1]], renum[node[2]])
            nodes.append(node)
        return ClassicalFn(tuple(nodes), tuple((n, renum[i]) for n, i in outputs))


def magic_state(kind: str) -> StateVector:
    if kind == "H":
        return StateVector(2, np.array([0.5, 0.5, 0.5, -0.5], dtype=np.complex128))
    if kind == "T":
        return StateVector(1, np.array([1, np.exp(1j * np.pi / 4)]) / np.sqrt(2))
    if kind == "PX":
        return StateVector(1, np.array([1j, 1]) / np.sqrt(2))
    raise ValueError(f"unknown magic state kind {kind!r}")


# state_spec tags: ("zero",), ("input", j), ("magic_t",), ("magic_px",),
# ("magic_h", pair_id, half) with half in {"a", "b"}
StateTag = tuple


@dataclass(frozen=True)
class LMProgram:
    num_wires: int
    num_input_bits: int
    state_spec: tuple[StateTag, ...]
    t: int
    linear_layers: tuple[tuple[tuple[int, int], ...], ...]
    thetas: tuple[tuple[Optional[int], ...], ...]
    v_sets: tuple[tuple[int, ...], ...]
    w_sets: tuple[tuple[int, ...], ...]
    measurement_fns: tuple[ClassicalFn, ...]
    final_fn: ClassicalFn

    def __post_init__(self) -> None:
        if len(self.linear_layers) != self.t + 1 or len(self.thetas) != self.t + 1:
            raise ValueError("need t+1 linear layers and theta strings")
        if len(self.v_sets) != self.t + 1 or len(self.w_sets) != self.t:
            raise ValueError("need t+1 V sets and t W sets")
        if len(self.measurement_fns) != self.t:
            raise ValueError("need t measurement functions")
        if len(self.state_spec) != self.num_wires:
            raise ValueError("state_spec length must equal wire count")
        for th in self.thetas:
            if len(th) != self.num_wires:
                raise ValueError("theta length must equal wire count")

    def phi(self, i: int) -> tuple[int, ...]:
        """Wires the i-th measurement operates on (1-based layer index)."""
        wires: set[int] = set()
        for v in self.v_sets[:i]:
            wires.update(v)
        if i <= self.t:
            wires.update(self.w_sets[i - 1])
        return tuple(sorted(wires))


def prepare_program_state(program: LMProgram) -> StateVector:
    state = StateVector(0, np.array([1.0], dtype=np.complex128))
    w = 1
    n = program.num_wires
    while w <= n:
        tag = program.state_spec[w - 1]
        if tag[0] in ("zero", "input"):
            state = tensor(state, StateVector.zero(1))
            w += 1
        elif tag[0] == "magic_t":
            state = tensor(state, magic_state("T"))
            w += 1
        elif tag[0] == "magic_px":
            state = tensor(state, magic_state("PX"))
            w += 1
        elif tag[0] == "magic_h":
            if tag[2] != "a" or w == n or program.state_spec[w] != ("magic_h", tag[1], "b"):
                raise ValueError(f"magic_h pair {tag[1]} is not two adjacent wires")
            state = tensor(state, magic_state("H"))
            w += 2
        else:
            raise ValueError(f"unknown state tag {tag!r}")
    return state


def apply_cnot_layer(state: StateVector, cnots: Sequence[tuple[int, int]]) -> StateVector:
    return apply_cnots(state, cnots)


def _mname(w: int) -> str:
    return f"m{w}"


def compile_circuit(circuit: Circuit) -> LMProgram:
    """Rewrite the circuit as layered CNOTs plus partial measurements.

    Pauli frames (one X/Z expression pair per active wire) start as
    (x_j, 0) and absorb every gate's correction, so the physical state is
    input-independent and all input dependence lives in the functions."""
    b = FnBuilder()
    nq = circuit.num_logical_qubits
    n = nq
    tags: list[StateTag] = [
        ("input", j) if j <= circuit.num_input_bits else ("zero",) for j in range(1, nq + 1)
    ]
    pos = {q: q for q in range(1, nq + 1)}
    frames = {
        q: (b.inp(f"x{q}") if q <= circuit.num_input_bits else b.const(0), b.const(0))
        for q in range(1, nq + 1)
    }
    layers: list[list[tuple[int, int]]] = [[]]
    theta_dicts: list[dict[int, int]] = []
    v_sets: list[set[int]] = []
    w_sets: list[set[int]] = []
    fns: list[ClassicalFn] = []
    collapsed_theta: dict[int, int] = {}
    v_star: set[int] = set()
    theta_star: dict[int, int] = {}
    h_pairs = 0

    for gate in circuit.gates:
        if gate.kind == "CNOT":
            i, j = pos[gate.wires[0]], pos[gate.wires[1]]
            layers[-1].append((i, j))
            xi, zi = frames[i]
            xj, zj = frames[j]
            frames[i] = (xi, b.xor(zi, zj))
            frames[j] = (b.xor(xi, xj), zj)
        elif gate.kind == "H":
            i = pos[gate.wires[0]]
            w1, w2 = n + 1, n + 2
            n += 2
            h_pairs += 1
            tags += [("magic_h", h_pairs, "a"), ("magic_h", h_pairs, "b")]
            layers[-1].append((i, w1))
            v_star.update((i, w1))
            theta_star[i] = 1
            theta_star[w1] = 0
            xi, zi = frames.pop(i)
            frames[w2] = (b.xor(b.inp(_mname(i)), zi), b.xor(b.inp(_mname(w1)), xi))
            pos[gate.wires[0]] = w2
        else:  # T
            i = pos[gate.wires[0]]
            w1, w2 = n + 1, n + 2
            n += 2
            tags += [("magic_t",), ("magic_px",)]
            layers[-1].append((w1, i))
            xi, zi = frames.pop(i)
            c = b.xor(b.inp(_mname(i)), xi)
            v_new = v_star | {i}
            r_node = b.xor(b.inp(_mname(w2)), b.and_(c, b.inp(_mname(w1))))
            f_out = [(f"v{w}", b.inp(_mname(w))) for w in sorted(v_new)] + [("r", r_node)]
            fns.append(b.extract(f_out))
            v_sets.append(v_new)
            w_sets.append({w1, w2})
            theta = dict(collapsed_theta)
            theta.update(theta_star)
            theta[i] = 0
            theta[w1] = 0
            theta[w2] = 0
            theta_dicts.append(theta)
            collapsed_theta.update(theta_star)
            collapsed_theta[i] = 0
            r_in = b.inp(f"r{len(fns)}")
            frames[w1] = (c, b.xor(b.and_(c, b.xor(b.inp(_mname(w2)), r_in)), zi))
            v_star = {w2}
            theta_star = {w2: 1}
            layers.append([])
            pos[gate.wires[0]] = w1

    active = sorted(frames)
    v_final = v_star | set(active)
    theta = dict(collapsed_theta)
    theta.update(theta_star)
    theta.update({w: 0 for w in active})
    theta_dicts.append(theta)
    v_sets.append(v_final)
    g_out = []
    for idx, q in enumerate(circuit.output_wires, start=1):
        w = pos[q]
        g_out.append((f"y{idx}", b.xor(b.inp(_mname(w)), frames[w][0])))
    g = b.extract(g_out)

    return LMProgram(
        num_wires=n,
        num_input_bits=circuit.num_input_bits,
        state_spec=tuple(tags),
        t=len(fns),
        linear_layers=tuple(tuple(layer) for layer in layers),
        thetas=tuple(
            tuple(d.get(w) for w in range(1, n + 1)) for d in theta_dicts
        ),
        v_sets=tuple(tuple(sorted(v)) for v in v_sets),
        w_sets=tuple(tuple(sorted(w)) for w in w_sets),
        measurement_fns=tuple(fns),
        final_fn=g,
    )


def bind(
    fn: ClassicalFn,
    m: Mapping[int, Any],
    x: Optional[BitVector] = None,
    rs: Optional[Mapping[int, int]] = None,
) -> dict[str, Any]:
    """Bindings of fn's inputs: m{w} is the bit wire w was read as, x{j}
    input bit j, r{j} the chain bit of layer j. A value is a bit, or a
    column of bits with one row per observed substring."""
    sources = {"m": m, "x": x, "r": rs}
    binds: dict[str, Any] = {}
    for name in fn.input_names:
        source = sources.get(name[0])
        if source is None:
            raise KeyError(f"unrecognized input {name!r}")
        binds[name] = source[int(name[1:])]
    return binds


def fn_code(fn: ClassicalFn, binds: dict[str, Any], rows: Any) -> Any:
    """fn's outputs packed into one label code like BitVector.value (the
    first output the most significant bit), in the shape of rows (an int
    or an int array): an output that depends on no array is broadcast."""
    outs = eval_classical_fn(fn, binds)
    code = rows & 0
    for name in fn.output_names:
        code = code << 1 | outs[name]
    return code


def block_tags(
    theta: Sequence[Optional[int]], live: Sequence[int], measured: Collection[int], block: int
) -> tuple[Optional[str], ...]:
    """Basis tags of a register holding the live wires in order, each as
    a block of qubits: standard basis for a 0-wire, Hadamard for a
    1-wire, untouched for a wire that is not measured."""
    return tuple(
        ("X" if theta[w - 1] == 1 else "Z") if w in measured else None
        for w in live
        for _ in range(block)
    )


@dataclass(frozen=True)
class LogicalRegister:
    """The program's wires held one qubit each. Every register that
    walk() drives names its program and its block (qubits per wire) and
    offers the same two steps: its CNOT layer, and its measurement spec,
    which consumes the wires of the layer's V set (layers 1..t)."""

    program: LMProgram
    block = 1

    def cnot_layer(self, state: StateVector, cnots: list[tuple[int, int]]) -> StateVector:
        return apply_cnot_layer(state, cnots)

    def spec(
        self, layer: int, live: list[int], measured: list[int], fn: ClassicalFn, binds
    ) -> MeasurementSpec:
        """Label codes are fn's outputs on each observed substring."""

        def outcome_fn(rows: np.ndarray) -> np.ndarray:
            top = len(measured) - 1
            m = {w: rows >> top - k & 1 for k, w in enumerate(measured)}
            return fn_code(fn, binds(m), rows)

        v_wires = self.program.v_sets[layer - 1] if layer <= self.program.t else ()
        consumed = tuple(k for k, w in enumerate(live, start=1) if w in v_wires)
        theta = self.program.thetas[layer - 1]
        return MeasurementSpec(block_tags(theta, live, measured, 1), outcome_fn, consumed)


def walk(
    register,
    state: StateVector,
    x: BitVector,
    rng: Optional[np.random.Generator] = None,
    visit: Optional[Callable[[int, int, Optional[dict]], bool]] = None,
) -> dict[tuple[int, ...], float]:
    """The one loop over a program's layers: CNOT gather, consuming
    measurement, record.

    With rng, each layer samples one outcome. Without, every branch of
    probability above 1e-15 is walked in turn, depth first. The register
    (one qubit or one code block per wire) supplies the CNOT layer and a
    measurement spec that consumes the layer's V wires. Each branch is
    recorded by visit(layer, code, read), where code is the label code
    and read maps each measured wire to the BitVector of the sampled
    substring it was read as (None when enumerating); a false return
    stops that branch. A code's low bits are the layer function's
    outputs. Returns the final outputs, as bit tuples, with their
    probabilities."""
    program = register.program
    dist: dict[tuple[int, ...], float] = {}
    # Branches still to walk, the next one on top. A layer's children all
    # go in at the index where the stack ended, so that the first child is
    # on top and the walk is depth first in branch order.
    todo = [(1, 1.0, state, list(range(1, program.num_wires + 1)), {}, {})]
    while todo:
        layer, prob, state, live, stored, rs = todo.pop()
        pos_of = {w: k + 1 for k, w in enumerate(live)}
        cnots = [(pos_of[c], pos_of[t]) for c, t in program.linear_layers[layer - 1]]
        state = register.cnot_layer(state, cnots)
        final = layer == program.t + 1
        fn = program.final_fn if final else program.measurement_fns[layer - 1]
        v_wires = program.v_sets[layer - 1]
        measured = sorted(set(v_wires) | set(() if final else program.w_sets[layer - 1]))
        spec = register.spec(
            layer, live, measured, fn, lambda m: bind(fn, {**stored, **m}, x, rs)
        )
        if rng is None:
            branches = [
                (code, prob * p, post, None) for code, p, post in measure_branches(state, spec)
            ]
        else:
            result = measure(state, spec, rng)
            read = dict(zip(measured, split(result.raw_bits, len(measured), register.block)))
            branches = [(result.outcome, prob, result.post_state, read)]
        at = len(todo)
        for code, branch_prob, post, read in branches:
            if branch_prob <= 1e-15 or (visit is not None and not visit(layer, code, read)):
                continue
            bits = BitVector.from_int(code & (1 << len(fn.outputs)) - 1, len(fn.outputs)).bits
            if final:
                dist[bits] = dist.get(bits, 0.0) + branch_prob
                continue
            outs = dict(zip(fn.output_names, bits))
            todo.insert(at, (
                layer + 1,
                branch_prob,
                post,
                [w for w in live if w not in v_wires],
                {**stored, **{w: outs[f"v{w}"] for w in v_wires}},
                {**rs, layer: outs["r"]},
            ))
        # Only todo holds the post states: each dies once its CNOT layer ran.
        branches = result = post = None
    return dist


def lmeval(x: BitVector, program: LMProgram, rng: np.random.Generator) -> BitVector:
    """Sample one run of the program on classical input x."""
    if len(x) != program.num_input_bits:
        raise ValueError("input length mismatch")
    dist = walk(LogicalRegister(program), prepare_program_state(program), x, rng)
    return BitVector(next(iter(dist)))


def lmeval_distribution(x: BitVector, program: LMProgram) -> dict[tuple[int, ...], float]:
    """Exact output distribution via branch enumeration, no sampling."""
    if len(x) != program.num_input_bits:
        raise ValueError("input length mismatch")
    return walk(LogicalRegister(program), prepare_program_state(program), x)


def simulate_circuit(circuit: Circuit, x: BitVector) -> StateVector:
    """Plain statevector run: inputs loaded, gates applied in order."""
    if len(x) != circuit.num_input_bits:
        raise ValueError("input length mismatch")
    zeros = BitVector.zeros(circuit.num_logical_qubits - circuit.num_input_bits)
    state = StateVector.basis(concat((x, zeros)))
    for g in circuit.gates:
        state = apply_gate(state, g.kind, g.wires)
    return state


def circuit_output_distribution(
    circuit: Circuit, x: BitVector
) -> dict[tuple[int, ...], float]:
    """Exact distribution of the standard-basis read of the output wires."""
    state = simulate_circuit(circuit, x)
    n = circuit.num_logical_qubits
    probs = (state.amplitudes.real**2 + state.amplitudes.imag**2).reshape((2,) * n)
    axes = tuple(w - 1 for w in circuit.output_wires)
    k = len(axes)
    moved = np.moveaxis(probs, axes, range(k)).reshape(2**k, -1).sum(axis=1)
    out = {}
    for idx in np.flatnonzero(moved > 1e-15):
        out[BitVector.from_int(int(idx), k).bits] = float(moved[idx])
    return out


def total_variation(
    a: dict[tuple[int, ...], float], b: dict[tuple[int, ...], float]
) -> float:
    keys = set(a) | set(b)
    return 0.5 * sum(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys)


def check_lm_invariants(program: LMProgram) -> list[str]:
    """Validate the structural rules; returns human-readable violations."""
    bad: list[str] = []
    n, t = program.num_wires, program.t
    all_v: set[int] = set()
    for i, v in enumerate(program.v_sets, start=1):
        if all_v & set(v):
            bad.append(f"V{i} overlaps an earlier V set")
        all_v.update(v)
    all_w: set[int] = set()
    for i, w in enumerate(program.w_sets, start=1):
        if len(w) and all_w & set(w):
            bad.append(f"W{i} overlaps an earlier W set")
        all_w.update(w)
    if all_v != set(range(1, n + 1)):
        bad.append("V sets do not cover every wire by the final layer")

    for i in range(1, t + 2):
        theta = program.thetas[i - 1]
        support = {w for w in range(1, n + 1) if theta[w - 1] is not None}
        if support != set(program.phi(i)):
            bad.append(f"theta{i} support differs from the layer-{i} measured set")
        for j in range(1, i):
            for w in program.v_sets[j - 1]:
                if theta[w - 1] != program.thetas[j - 1][w - 1]:
                    bad.append(f"theta{i} re-measures wire {w} in a different basis")

    for i, layer in enumerate(program.linear_layers, start=1):
        collapsed = set().union(*program.v_sets[: i - 1]) if i > 1 else set()
        for c, tgt in layer:
            if not (1 <= c <= n and 1 <= tgt <= n and c != tgt):
                bad.append(f"L{i} has an invalid CNOT ({c},{tgt})")
            if c in collapsed or tgt in collapsed:
                bad.append(f"linear layer {i} touches collapsed wire")

    for i, w_set in enumerate(program.w_sets, start=1):
        theta = program.thetas[i - 1]
        for w in w_set:
            if theta[w - 1] != 0:
                bad.append(f"wire {w} in W{i} is not standard-basis measured")
        earlier_phi = set()
        for j in range(1, i):
            earlier_phi.update(program.phi(j))
        if earlier_phi & set(w_set):
            bad.append(f"W{i} intersects an earlier measured set")
        for j in range(1, i + 1):
            for c, tgt in program.linear_layers[j - 1]:
                if tgt in w_set:
                    bad.append(f"L{j} targets wire {tgt} of W{i}; controls only")

    for i in range(1, t + 1):
        fn = program.measurement_fns[i - 1]
        allowed = (
            {_mname(w) for w in program.phi(i)}
            | {f"x{j}" for j in range(1, program.num_input_bits + 1)}
            | {f"r{j}" for j in range(1, i)}
        )
        extra = set(fn.input_names) - allowed
        if extra:
            bad.append(f"f{i} reads unavailable inputs {sorted(extra)}")
        want = tuple(f"v{w}" for w in program.v_sets[i - 1]) + ("r",)
        if fn.output_names != want:
            bad.append(f"f{i} outputs {fn.output_names}, expected {want}")
    g_allowed = (
        {_mname(w) for w in range(1, n + 1)}
        | {f"x{j}" for j in range(1, program.num_input_bits + 1)}
        | {f"r{j}" for j in range(1, t + 1)}
    )
    extra = set(program.final_fn.input_names) - g_allowed
    if extra:
        bad.append(f"final function reads unavailable inputs {sorted(extra)}")
    for idx, name in enumerate(program.final_fn.output_names, start=1):
        if name != f"y{idx}":
            bad.append(f"final output {idx} is named {name!r}")

    input_tags = [tag for tag in program.state_spec if tag[0] == "input"]
    want_tags = [("input", j) for j in range(1, program.num_input_bits + 1)]
    if input_tags != want_tags or list(program.state_spec[: len(want_tags)]) != want_tags:
        bad.append("input tags must sit on the first wires, one per input bit")
    pairs: dict[int, list] = {}
    for w, tag in enumerate(program.state_spec, start=1):
        if tag[0] == "magic_h":
            pairs.setdefault(tag[1], []).append((w, tag[2]))
    for pid, halves in pairs.items():
        if sorted(h for _, h in halves) != ["a", "b"]:
            bad.append(f"magic pair {pid} must have exactly halves a and b")
    return bad


# --- serialization ---------------------------------------------------------


def _tag_to_text(tag: StateTag) -> str:
    if tag[0] == "zero":
        return "zero"
    if tag[0] == "input":
        return f"input {tag[1]}"
    if tag[0] == "magic_t":
        return "magic-T"
    if tag[0] == "magic_px":
        return "magic-PX"
    return f"magic-H {tag[1]} {tag[2]}"


_TAG_ARITY = {"zero": 0, "input": 1, "magic-T": 0, "magic-PX": 0, "magic-H": 2}


def _read_tag(r: LineReader, w: int) -> StateTag:
    kind, *args = r.rest(f"state {w}").split() or ("",)
    if len(args) != _TAG_ARITY.get(kind):
        raise ValueError(f"unknown state tag {' '.join([kind, *args])!r}")
    return (kind.lower().replace("-", "_"), *(r.number(a, 0) for a in args[:1]), *args[1:])


def _fn_to_lines(fn: ClassicalFn) -> list[str]:
    lines = [f"nodes {len(fn.nodes)}"]
    for idx, node in enumerate(fn.nodes):
        lines.append(f"{idx} " + " ".join(str(p) for p in node))
    for name, nid in fn.outputs:
        lines.append(f"out {name} {nid}")
    return lines


def _read_fn(r: LineReader, header: str) -> ClassicalFn:
    r.fields(header, 0)
    nodes: list[tuple] = []
    for idx in range(r.integer("nodes", 0)):
        kind, *args = r.rest(str(idx)).split() or ("",)
        if len(args) != {"in": 1, "const": 1, "xor": 2, "and": 2}.get(kind):
            raise ValueError(f"malformed node {idx}")
        if kind != "in":
            args = [r.number(a, 0, 1 if kind == "const" else idx - 1) for a in args]
        nodes.append((kind, *args))
    outputs = []
    while r.has("out"):
        name, nid = r.fields("out", 2)
        outputs.append((name, r.number(nid, 0, len(nodes) - 1)))
    return ClassicalFn(tuple(nodes), tuple(outputs))


def program_to_text(program: LMProgram) -> str:
    lines = [
        f"wires {program.num_wires}",
        f"inputs {program.num_input_bits}",
        f"t {program.t}",
    ]
    for w, tag in enumerate(program.state_spec, start=1):
        lines.append(f"state {w} {_tag_to_text(tag)}")
    for i, layer in enumerate(program.linear_layers, start=1):
        body = " ".join(f"{c}>{t}" for c, t in layer) or "-"
        lines.append(f"L{i}: {body}")
    for i, theta in enumerate(program.thetas, start=1):
        body = " ".join(
            f"{w}={theta[w - 1]}" for w in range(1, program.num_wires + 1)
            if theta[w - 1] is not None
        )
        lines.append(f"theta{i}: {body}")
    for i, v in enumerate(program.v_sets, start=1):
        lines.append(f"V{i}: " + (" ".join(str(w) for w in v) or "-"))
    for i, w_set in enumerate(program.w_sets, start=1):
        lines.append(f"W{i}: " + (" ".join(str(w) for w in w_set) or "-"))
    for i, fn in enumerate(program.measurement_fns, start=1):
        lines.append(f"f{i}:")
        lines.extend(_fn_to_lines(fn))
    lines.append("g:")
    lines.extend(_fn_to_lines(program.final_fn))
    return "\n".join(lines)


def read_program(r: LineReader) -> LMProgram:
    """The program whose program_to_text lines r reads next."""
    n = r.integer("wires", 1)
    m = r.integer("inputs", 0, n)
    t = r.integer("t", 0)
    tags = tuple(_read_tag(r, w) for w in range(1, n + 1))

    def items(tag: str) -> list[str]:
        body = r.rest(tag).split()
        return [] if body == ["-"] else body

    def pair(item: str, sep: str, lo: int, hi: int) -> tuple[int, int]:
        """A wire and a number in lo..hi, written wire{sep}number."""
        a, found, b = item.partition(sep)
        if not found:
            raise ValueError(f"expected wire{sep}N, found {item!r}")
        return r.number(a, 1, n), r.number(b, lo, hi)

    layers = tuple(tuple(pair(c, ">", 1, n) for c in items(f"L{i}:")) for i in range(1, t + 2))
    bases = [dict(pair(item, "=", 0, 1) for item in items(f"theta{i}:")) for i in range(1, t + 2)]
    thetas = tuple(tuple(b.get(w) for w in range(1, n + 1)) for b in bases)
    v_sets = tuple(tuple(r.number(w, 1, n) for w in items(f"V{i}:")) for i in range(1, t + 2))
    w_sets = tuple(tuple(r.number(w, 1, n) for w in items(f"W{i}:")) for i in range(1, t + 1))
    fns = tuple(_read_fn(r, f"f{i}:") for i in range(1, t + 1))
    return LMProgram(n, m, tags, t, layers, thetas, v_sets, w_sets, fns, _read_fn(r, "g:"))


def program_from_text(text: str) -> LMProgram:
    return parse(text, read_program)
