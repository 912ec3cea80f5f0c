"""Measurement-based program model and compiler.

A program here is an alternating sequence of CNOT layers and partial
measurements over wires 1..n. Wires collapse in waves: at layer i the
wires in v_sets[i-1] collapse fully (standard or Hadamard basis per
theta), the two wires in w_sets[i-1] collapse only down to one output
bit r_i of a grouped standard-basis measurement, and everything still
active stays coherent. Classical inputs never touch the quantum state:
they enter through the measurement functions as virtual Pauli frames.

The program state is a product of per-wire states, so a wire joins the
register only at the first round that touches it. walk() starts from
the empty register, and each round takes three steps: admit the wires
of Layer.admit (both halves of an H pair together), apply the round's
CNOT layer, and take its consuming measurement. The register holds its
live wires in wire order, so rows and their classes are those of a run
on the whole program state.

The compiler rewrites any {CNOT, H, T} circuit into this shape using
teleportation gadgets, two fresh wires per H or T gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Mapping, Optional, Sequence

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
class Layer:
    """One measurement round of a program, worked out once. Round index
    runs 1..t+1, the last (final) being the output round. admit lists
    the wires the round is the first to touch (by its CNOTs, v or w),
    with the other half of any H pair among them; they join the register
    before the round's CNOT layer. cnots is the round's own CNOT layer,
    v the wires the round consumes, w its measurement pair (empty on the
    final round), theta the bases and fn the round's function. read is v
    and w together, phi every wire the measurement covers (every V set
    so far, and w). Wire tuples are ascending."""

    index: int
    final: bool
    admit: tuple[int, ...]
    cnots: tuple[tuple[int, int], ...]
    v: tuple[int, ...]
    w: tuple[int, ...]
    theta: tuple[Optional[int], ...]
    fn: ClassicalFn
    read: tuple[int, ...]
    phi: tuple[int, ...]


@dataclass(frozen=True)
class LMProgram:
    """A program as its text format declares it. Readers take a round's
    facts from layers, which sorts the declared V and W sets.
    peak_live is the most wires live in any round, after its admission:
    the width of the logical register a run needs."""

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
    layers: tuple[Layer, ...] = field(init=False, repr=False, compare=False)
    peak_live: int = field(init=False, repr=False, compare=False)

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
        pairs: dict[int, list[int]] = {}  # H pair id -> its wires
        for wire, tag in enumerate(self.state_spec, start=1):
            if tag[0] == "magic_h":
                pairs.setdefault(tag[1], []).append(wire)
        partners = {q: pair for pair in pairs.values() for q in pair}
        layers: list[Layer] = []
        collapsed: set[int] = set()
        admitted: set[int] = set()
        live: set[int] = set()
        peak = 0
        for i, (cnots, theta, v) in enumerate(
            zip(self.linear_layers, self.thetas, self.v_sets), start=1
        ):
            final = i == self.t + 1
            w = () if final else tuple(sorted(self.w_sets[i - 1]))
            touched = {q for pair in cnots for q in pair}.union(v, w) - admitted
            admit = {p for q in touched for p in partners.get(q, (q,))} - admitted
            admitted.update(admit)
            live.update(admit)
            peak = max(peak, len(live))
            live.difference_update(v)
            collapsed.update(v)
            fn = self.final_fn if final else self.measurement_fns[i - 1]
            read, phi = tuple(sorted({*v, *w})), tuple(sorted(collapsed.union(w)))
            layers.append(Layer(
                i, final, tuple(sorted(admit)), cnots, tuple(sorted(v)), w, theta, fn, read, phi
            ))
        object.__setattr__(self, "layers", tuple(layers))
        object.__setattr__(self, "peak_live", peak)


# The 0-qubit register every walk starts from.
EMPTY = StateVector(0, np.ones(1, dtype=np.complex128))


def initial_state(program: LMProgram, wires: Sequence[int]) -> StateVector:
    """The product of the wires' initial states, in the order given. The
    halves of an H pair must be adjacent wires, a then b, listed
    together."""
    state = EMPTY
    k = 0
    while k < len(wires):
        w = wires[k]
        tag = program.state_spec[w - 1]
        if tag[0] in ("zero", "input"):
            state = tensor(state, StateVector.zero(1))
        elif tag[0] == "magic_t":
            state = tensor(state, magic_state("T"))
        elif tag[0] == "magic_px":
            state = tensor(state, magic_state("PX"))
        elif tag[0] == "magic_h":
            half_b = (("magic_h", tag[1], "b"),)
            if tag[2] != "a" or (
                tuple(wires[k + 1 : k + 2]) != (w + 1,) or program.state_spec[w : w + 1] != half_b
            ):
                raise ValueError(f"magic_h pair {tag[1]} is not two adjacent wires")
            state = tensor(state, magic_state("H"))
            k += 1
        else:
            raise ValueError(f"unknown state tag {tag!r}")
        k += 1
    return state


def prepare_program_state(program: LMProgram) -> StateVector:
    """The whole program state: every wire admitted at once."""
    return initial_state(program, range(1, program.num_wires + 1))


def place(
    state: StateVector, live: Sequence[int], wires: Sequence[int], fresh: StateVector, block: int
) -> StateVector:
    """state, which holds the blocks (block qubits each) of the live
    wires in order, with fresh, the blocks of the new wires in order,
    tensored in so that every block sits in wire order. Where the new
    wires all come after the live ones this is one tensor; otherwise the
    blocks are put in order by one axis permutation."""
    if not live:
        return fresh
    out = tensor(state, fresh)
    if wires[0] > live[-1]:
        return out
    order = sorted(range(len(live) + len(wires)), key=[*live, *wires].__getitem__)
    psi = out.amplitudes.reshape((1 << block,) * len(order)).transpose(order)
    return StateVector(out.num_qubits, psi.reshape(-1))


def apply_cnot_layer(state: StateVector, cnots: Sequence[tuple[int, int]]) -> StateVector:
    return apply_cnots(state, cnots)


def _mname(w: int) -> str:
    return f"m{w}"


def compile_circuit(circuit: Circuit) -> LMProgram:
    """Rewrite the circuit as layered CNOTs plus partial measurements.

    Pauli frames (one X/Z expression pair per active wire) start as
    (x_j, 0) and absorb every gate's correction, so the physical state is
    input-independent and all input dependence lives in the functions.
    A gadget fixes the one basis each of its wires is read in; theta_i
    reads V_1..V_i in those bases and W_i in the standard basis."""
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
    v_sets: list[set[int]] = []
    w_sets: list[set[int]] = []
    fns: list[ClassicalFn] = []
    basis: dict[int, int] = {}  # wire -> the basis its V set reads it in
    v_star: set[int] = set()  # wires waiting for the next V set
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
            basis.update({i: 1, w1: 0})
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
            basis.update({i: 0, w2: 1})
            r_in = b.inp(f"r{len(fns)}")
            frames[w1] = (c, b.xor(b.and_(c, b.xor(b.inp(_mname(w2)), r_in)), zi))
            v_star = {w2}
            layers.append([])
            pos[gate.wires[0]] = w1

    basis.update((w, 0) for w in frames)
    v_sets.append(v_star | set(frames))
    g_out = []
    for idx, q in enumerate(circuit.output_wires, start=1):
        w = pos[q]
        g_out.append((f"y{idx}", b.xor(b.inp(_mname(w)), frames[w][0])))
    g = b.extract(g_out)

    thetas, seen = [], {}
    for v, w in zip(v_sets, w_sets + [set()]):
        seen.update((q, basis[q]) for q in v)
        thetas.append(tuple(0 if q in w else seen.get(q) for q in range(1, n + 1)))
    return LMProgram(
        num_wires=n,
        num_input_bits=circuit.num_input_bits,
        state_spec=tuple(tags),
        t=len(fns),
        linear_layers=tuple(tuple(layer) for layer in layers),
        thetas=tuple(thetas),
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
    bases: Mapping[int, int], live: Sequence[int], block: int
) -> tuple[Optional[str], ...]:
    """Basis tags of a register holding the live wires in order, each as
    a block of qubits: standard basis for a wire bases maps to 0,
    Hadamard for 1, untouched for a wire it does not name."""
    tags = {w: "X" if b == 1 else "Z" for w, b in bases.items()}
    return tuple(tags.get(w) for w in live for _ in range(block))


@dataclass(frozen=True)
class LogicalRegister:
    """The program's wires held one qubit each. Every register that
    walk() drives names its program and its block (qubits per wire) and
    offers the same three steps: admitting a round's new wires, its CNOT
    layer, and its measurement spec for a round, which consumes the
    wires of the round's V set (rounds 1..t). Each admission's product
    state is built once per register, so the branches of an enumeration
    share it."""

    program: LMProgram
    block = 1
    _fresh: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def admit(self, state: StateVector, live: list[int], wires: tuple[int, ...]) -> StateVector:
        if wires not in self._fresh:
            self._fresh[wires] = initial_state(self.program, wires)
        return place(state, live, wires, self._fresh[wires], 1)

    def cnot_layer(self, state: StateVector, cnots: list[tuple[int, int]]) -> StateVector:
        return apply_cnot_layer(state, cnots)

    def spec(self, layer: Layer, live: list[int], binds) -> MeasurementSpec:
        """Label codes are the round function's outputs on each observed
        substring."""
        measured = layer.read

        def outcome_fn(rows: np.ndarray) -> np.ndarray:
            top = len(measured) - 1
            m = {w: rows >> top - k & 1 for k, w in enumerate(measured)}
            return fn_code(layer.fn, binds(m), rows)

        v_wires = () if layer.final else layer.v
        consumed = tuple(k for k, w in enumerate(live, start=1) if w in v_wires)
        tags = block_tags({w: layer.theta[w - 1] for w in measured}, live, 1)
        return MeasurementSpec(tags, outcome_fn, consumed)


def walk(
    register,
    x: BitVector,
    rng: Optional[np.random.Generator] = None,
    visit: Optional[Callable[[Layer, int, Optional[dict]], bool]] = None,
) -> dict[tuple[int, ...], float]:
    """The one loop over a program's layers. It starts from the empty
    register, and each round admits its new wires (Layer.admit), applies
    its CNOT layer and takes its consuming measurement, then records.

    With rng, each layer samples one outcome. Without, every branch of
    probability above 1e-15 is walked in turn, depth first. The register
    (one qubit or one code block per wire) supplies the admission, the
    CNOT layer and a measurement spec that consumes the layer's V wires;
    it holds the live wires in wire order. Each branch is recorded by
    visit(layer, code, read), where layer is the round's Layer record,
    code the label code and read maps each measured wire to the
    BitVector of the sampled substring it was read as (None when
    enumerating); a false return stops that branch. A code's low bits
    are the layer function's outputs. Returns the final outputs, as bit
    tuples, with their probabilities."""
    program = register.program
    dist: dict[tuple[int, ...], float] = {}
    # Branches still to walk, the next one on top. A layer's children all
    # go in at the index where the stack ended, so that the first child is
    # on top and the walk is depth first in branch order.
    todo = [(program.layers[0], 1.0, EMPTY, [], {}, {})]
    while todo:
        layer, prob, state, live, stored, rs = todo.pop()
        if layer.admit:
            state = register.admit(state, live, layer.admit)
            live = sorted([*live, *layer.admit])
        pos_of = {w: k + 1 for k, w in enumerate(live)}
        state = register.cnot_layer(state, [(pos_of[c], pos_of[t]) for c, t in layer.cnots])
        fn = layer.fn
        spec = register.spec(layer, live, lambda m: bind(fn, {**stored, **m}, x, rs))
        if rng is None:
            branches = [
                (code, prob * p, post, None) for code, p, post in measure_branches(state, spec)
            ]
        else:
            result = measure(state, spec, rng)
            read = dict(zip(layer.read, split(result.raw_bits, len(layer.read), register.block)))
            branches = [(result.outcome, prob, result.post_state, read)]
        at = len(todo)
        for code, branch_prob, post, read in branches:
            if branch_prob <= 1e-15 or (visit is not None and not visit(layer, code, read)):
                continue
            bits = BitVector.from_int(code & (1 << len(fn.outputs)) - 1, len(fn.outputs)).bits
            if layer.final:
                dist[bits] = dist.get(bits, 0.0) + branch_prob
                continue
            outs = dict(zip(fn.output_names, bits))
            todo.insert(at, (
                program.layers[layer.index],
                branch_prob,
                post,
                [w for w in live if w not in layer.v],
                {**stored, **{w: outs[f"v{w}"] for w in layer.v}},
                {**rs, layer.index: outs["r"]},
            ))
        # Only todo holds the post states: each dies once its CNOT layer ran.
        branches = result = post = None
    return dist


def lmeval(x: BitVector, program: LMProgram, rng: np.random.Generator) -> BitVector:
    """Sample one run of the program on classical input x."""
    if len(x) != program.num_input_bits:
        raise ValueError("input length mismatch")
    dist = walk(LogicalRegister(program), x, rng)
    return BitVector(next(iter(dist)))


def lmeval_distribution(x: BitVector, program: LMProgram) -> dict[tuple[int, ...], float]:
    """Exact output distribution via branch enumeration, no sampling."""
    if len(x) != program.num_input_bits:
        raise ValueError("input length mismatch")
    return walk(LogicalRegister(program), x)


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
    n = program.num_wires
    bases: dict[int, Optional[int]] = {}  # collapsed wire -> the basis it collapsed in
    read_so_far: set[int] = set()
    targets: dict[int, int] = {}  # CNOT target -> round of its first CNOT
    known = {f"x{j}" for j in range(1, program.num_input_bits + 1)}  # inputs f_i may read
    for layer in program.layers:
        i, theta = layer.index, layer.theta
        for name, wires in ((f"V{i}", layer.v), (f"W{i}", layer.w)):
            for w in sorted({a for a, b in zip(wires, wires[1:]) if a == b}):
                bad.append(f"{name} lists wire {w} twice")
        if bases.keys() & set(layer.v):
            bad.append(f"V{i} overlaps an earlier V set")
        if read_so_far & set(layer.w):
            bad.append(f"W{i} intersects an earlier measured set")
        for w, b in enumerate(theta, start=1):
            if b not in (0, 1, None):
                bad.append(f"theta{i} reads wire {w} in basis {b!r}, not 0 or 1")
        if {w for w, b in enumerate(theta, start=1) if b is not None} != set(layer.phi):
            bad.append(f"theta{i} support differs from the layer-{i} measured set")
        for w, basis in bases.items():
            if theta[w - 1] != basis:
                bad.append(f"theta{i} re-measures wire {w} in a different basis")
        for c, tgt in layer.cnots:
            if not (1 <= c <= n and 1 <= tgt <= n and c != tgt):
                bad.append(f"L{i} has an invalid CNOT ({c},{tgt})")
            if c in bases or tgt in bases:
                bad.append(f"linear layer {i} touches collapsed wire")
            targets.setdefault(tgt, i)
        for w in layer.w:
            if theta[w - 1] != 0:
                bad.append(f"wire {w} in W{i} is not standard-basis measured")
            if w in targets:
                bad.append(f"L{targets[w]} targets wire {w} of W{i}; controls only")
        known.update(_mname(w) for w in layer.v)
        name = "g" if layer.final else f"f{i}"
        extra = set(layer.fn.input_names) - known - {_mname(w) for w in layer.w}
        if extra:
            bad.append(f"{name} reads unavailable inputs {sorted(extra)}")
        if layer.final:
            want = tuple(f"y{k}" for k in range(1, len(layer.fn.outputs) + 1))
        else:
            want = tuple(f"v{w}" for w in program.v_sets[i - 1]) + ("r",)
        if layer.fn.output_names != want:
            bad.append(f"{name} outputs {layer.fn.output_names}, expected {want}")
        bases.update((w, theta[w - 1]) for w in layer.v)
        read_so_far.update(layer.read)
        known.add(f"r{i}")
    if bases.keys() != set(range(1, n + 1)):
        bad.append("V sets do not cover every wire by the final layer")

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
        elif halves != [(halves[0][0], "a"), (halves[0][0] + 1, "b")]:
            bad.append(f"magic pair {pid} is not two adjacent wires, a then b")
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
