import dataclasses
import hashlib
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import all_inputs, max_equivalence_gap, random_circuit
from lmobf.gf2 import BitVector
from lmobf.lm import (
    Circuit,
    ClassicalFn,
    FnBuilder,
    Gate,
    check_lm_invariants,
    circuit_output_distribution,
    compile_circuit,
    eval_classical_fn,
    fn_code,
    format_circuit,
    lmeval,
    lmeval_distribution,
    magic_state,
    parse_circuit,
    place,
    prepare_program_state,
    program_from_text,
    program_to_text,
    simulate_circuit,
    total_variation,
)
from lmobf.sim import StateVector, state_distance, tensor


def bv(s: str) -> BitVector:
    return BitVector.from_string(s)


# --- ClassicalFn -----------------------------------------------------------


def test_eval_xor_and_nodes():
    fn = ClassicalFn(
        nodes=(("in", "a"), ("in", "b"), ("xor", 0, 1), ("and", 0, 1)),
        outputs=(("s", 2), ("p", 3)),
    )
    assert eval_classical_fn(fn, {"a": 1, "b": 1}) == {"s": 0, "p": 1}
    assert eval_classical_fn(fn, {"a": 1, "b": 0}) == {"s": 1, "p": 0}


def test_eval_unbound_raises():
    fn = ClassicalFn(nodes=(("in", "a"),), outputs=(("y", 0),))
    with pytest.raises(KeyError):
        eval_classical_fn(fn, {})


def test_fn_validation():
    with pytest.raises(ValueError):
        ClassicalFn(nodes=(("xor", 0, 1),), outputs=())
    with pytest.raises(ValueError):
        ClassicalFn(nodes=(("nand", 0, 0),), outputs=())
    with pytest.raises(ValueError):
        ClassicalFn(nodes=(("in", "a"),), outputs=(("y", 3),))


def gamma_fn() -> ClassicalFn:
    # c*(w1^w2) ^ (1-c)*w2
    b = FnBuilder()
    c, w1, w2 = b.inp("c"), b.inp("w1"), b.inp("w2")
    one = b.const(1)
    out = b.xor(b.and_(c, b.xor(w1, w2)), b.and_(b.xor(one, c), w2))
    return b.extract([("r", out)])


def test_gamma_table():
    fn = gamma_fn()
    assert eval_classical_fn(fn, {"c": 0, "w1": 0, "w2": 1})["r"] == 1
    assert eval_classical_fn(fn, {"c": 1, "w1": 1, "w2": 1})["r"] == 0
    assert eval_classical_fn(fn, {"c": 1, "w1": 1, "w2": 0})["r"] == 1
    assert eval_classical_fn(fn, {"c": 0, "w1": 0, "w2": 0})["r"] == 0
    assert eval_classical_fn(fn, {"c": 0, "w1": 1, "w2": 0})["r"] == 0
    for c in (0, 1):
        for w1 in (0, 1):
            for w2 in (0, 1):
                got = eval_classical_fn(fn, {"c": c, "w1": w1, "w2": w2})["r"]
                assert got == w2 ^ (c & w1)


def test_batch_eval_matches_scalar():
    """eval_classical_fn on int arrays of bits equals it on each row's
    ints, element by element; fn_code packs the outputs the same way and
    broadcasts an output that depends on no array."""
    fn = gamma_fn()
    rows = np.arange(8, dtype=np.int64)  # the bits c, w1, w2, c the most significant
    binds = {"c": rows >> 2 & 1, "w1": rows >> 1 & 1, "w2": rows & 1}
    batch = eval_classical_fn(fn, binds)["r"]
    for row, got in zip(rows.tolist(), batch.tolist()):
        want = eval_classical_fn(fn, {"c": row >> 2 & 1, "w1": row >> 1 & 1, "w2": row & 1})["r"]
        assert got == want
    b = FnBuilder()
    const = b.extract([("one", b.const(1)), ("w2", b.inp("w2"))])
    codes = fn_code(const, binds, rows)
    assert codes.tolist() == [0b10 | row & 1 for row in rows.tolist()]
    assert codes.tolist() == [fn_code(const, {"w2": row & 1}, row) for row in rows.tolist()]


def test_builder_folding():
    b = FnBuilder()
    a = b.inp("a")
    assert b.xor(a, a) == b.const(0)
    assert b.xor(a, b.const(0)) == a
    assert b.and_(a, b.const(1)) == a
    assert b.and_(a, b.const(0)) == b.const(0)
    assert b.and_(a, a) == a
    assert b.xor(b.const(1), b.const(1)) == b.const(0)
    c = b.inp("c")
    assert b.xor(a, c) == b.xor(c, a)


def test_builder_extract_gc():
    b = FnBuilder()
    a, c = b.inp("a"), b.inp("c")
    b.and_(a, c)  # dead
    keep = b.xor(a, c)
    fn = b.extract([("y", keep)])
    assert all(n[0] != "and" for n in fn.nodes)
    assert eval_classical_fn(fn, {"a": 1, "c": 0}) == {"y": 1}


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_builder_matches_reference_semantics(seed):
    rng = np.random.default_rng(seed)
    b = FnBuilder()
    names = ["a", "b", "c"]
    pool = [(b.inp(n), lambda env, n=n: env[n]) for n in names]
    pool += [(b.const(v), lambda env, v=v: v) for v in (0, 1)]
    for _ in range(12):
        i, j = rng.integers(len(pool), size=2)
        (na, fa), (nb, fb) = pool[i], pool[j]
        if rng.integers(2):
            pool.append((b.xor(na, nb), lambda env, fa=fa, fb=fb: fa(env) ^ fb(env)))
        else:
            pool.append((b.and_(na, nb), lambda env, fa=fa, fb=fb: fa(env) & fb(env)))
    node, ref = pool[-1]
    fn = b.extract([("y", node)])
    for bits in range(8):
        env = {n: (bits >> k) & 1 for k, n in enumerate(names)}
        assert eval_classical_fn(fn, env)["y"] == ref(env)


# --- magic states ----------------------------------------------------------


def test_magic_states():
    h = magic_state("H")
    assert np.allclose(h.amplitudes, [0.5, 0.5, 0.5, -0.5])
    t = magic_state("T")
    assert np.allclose(t.amplitudes, np.array([1, np.exp(1j * np.pi / 4)]) / np.sqrt(2))
    px = magic_state("PX")
    assert np.allclose(px.amplitudes, np.array([1j, 1]) / np.sqrt(2))
    with pytest.raises(ValueError):
        magic_state("S")


# --- circuit model and text format ----------------------------------------


def test_circuit_text_roundtrip():
    text = "qubits 3 inputs 2 outputs 1,3\nH 1\nCNOT 1 2\nT 3"
    c = parse_circuit(text)
    assert c.num_logical_qubits == 3
    assert c.num_input_bits == 2
    assert c.gates == (Gate("H", (1,)), Gate("CNOT", (1, 2)), Gate("T", (3,)))
    assert c.output_wires == (1, 3)
    assert format_circuit(c) == text
    assert parse_circuit(format_circuit(c)) == c


def test_circuit_validation():
    with pytest.raises(ValueError):
        Gate("CNOT", (1, 1))
    with pytest.raises(ValueError):
        Gate("TOFFOLI", (1, 2))
    with pytest.raises(ValueError):
        Circuit(1, 2, (Gate("H", (3,)),), (1,))
    with pytest.raises(ValueError):
        Circuit(1, 2, (), (1, 1))
    with pytest.raises(ValueError):
        parse_circuit("wires 2 inputs 1 outputs 1")


# --- direct simulation oracle ---------------------------------------------


def test_direct_sim_identity():
    c = Circuit(2, 2, (), (1, 2))
    assert circuit_output_distribution(c, bv("10")) == {(1, 0): 1.0}


def test_direct_sim_hadamard():
    c = Circuit(1, 1, (Gate("H", (1,)),), (1,))
    dist = circuit_output_distribution(c, bv("0"))
    assert abs(dist[(0,)] - 0.5) < 1e-12 and abs(dist[(1,)] - 0.5) < 1e-12


def test_direct_sim_bell():
    c = Circuit(1, 2, (Gate("H", (1,)), Gate("CNOT", (1, 2))), (1, 2))
    dist = circuit_output_distribution(c, bv("0"))
    assert abs(dist[(0, 0)] - 0.5) < 1e-12 and abs(dist[(1, 1)] - 0.5) < 1e-12
    assert (0, 1) not in dist and (1, 0) not in dist


def test_direct_sim_hth():
    c = parse_circuit("qubits 1 inputs 1 outputs 1\nH 1\nT 1\nH 1")
    dist = circuit_output_distribution(c, bv("0"))
    assert abs(dist[(0,)] - np.cos(np.pi / 8) ** 2) < 1e-12
    dist1 = circuit_output_distribution(c, bv("1"))
    assert abs(dist1[(0,)] - np.sin(np.pi / 8) ** 2) < 1e-12


def test_simulate_circuit_loads_input():
    c = Circuit(2, 3, (), (3,))
    s = simulate_circuit(c, bv("11"))
    assert state_distance(s, StateVector.basis(bv("110"))) < 1e-12


# --- compiler --------------------------------------------------------------


def test_compile_empty_circuit():
    c = Circuit(2, 2, (), (1, 2))
    p = compile_circuit(c)
    assert p.t == 0
    assert p.num_wires == 2
    assert p.linear_layers == ((),)
    assert check_lm_invariants(p) == []
    for x in all_inputs(2):
        assert lmeval_distribution(x, p) == {tuple(x.bits): 1.0}


def test_compile_single_h():
    c = Circuit(1, 1, (Gate("H", (1,)),), (1,))
    p = compile_circuit(c)
    assert p.t == 0
    assert p.num_wires == 3
    assert p.linear_layers == (((1, 2),),)
    assert p.thetas[0] == (1, 0, 0)
    assert p.v_sets == ((1, 2, 3),)
    assert p.state_spec == (("input", 1), ("magic_h", 1, "a"), ("magic_h", 1, "b"))
    assert check_lm_invariants(p) == []
    # final read reduces to m1 xor m3, independent of the classical input
    for bits in range(16):
        env = {"m1": bits & 1, "m2": (bits >> 1) & 1, "m3": (bits >> 2) & 1, "x1": (bits >> 3) & 1}
        binds = {k: env[k] for k in p.final_fn.input_names}
        assert eval_classical_fn(p.final_fn, binds)["y1"] == env["m1"] ^ env["m3"]


@pytest.mark.parametrize(
    "text, digest",
    [
        ("H 1", "bbdc15f1bc5c55c12ca0337d42212883828e765ac745b76ea20b68f14988c3fc"),
        ("H 1\nT 1\nH 1", "6404aadf7f5b98d682a5527c5e5f55758a735026e648cd9ab081d1db23b342ec"),
        (
            "H 1\nCNOT 1 2\nT 2\nH 2\nT 1\nCNOT 2 1\nH 1",
            "298c97e00f57c67f5572790ef2834af13d87bc560f8799be07d82788a2bc4f0d",
        ),
    ],
)
def test_compiled_hadamard_programs_are_pinned(text, digest):
    """The text of compiled programs with H gadgets, whose wires are the
    only V wires read in basis 1, stays byte for byte what it was."""
    n = 2 if "2" in text else 1
    outs = ",".join(str(q) for q in range(1, n + 1))
    circuit = parse_circuit(f"qubits {n} inputs {n} outputs {outs}\n{text}")
    program_text = program_to_text(compile_circuit(circuit))
    assert hashlib.sha256(program_text.encode()).hexdigest() == digest


def test_compile_single_t():
    c = Circuit(1, 1, (Gate("T", (1,)),), (1,))
    p = compile_circuit(c)
    assert p.t == 1
    assert p.num_wires == 3
    assert p.w_sets == ((2, 3),)
    assert p.state_spec[1] == ("magic_t",)
    assert p.state_spec[2] == ("magic_px",)
    assert p.thetas[0] == (0, 0, 0)
    assert p.measurement_fns[0].output_names == ("v1", "r")
    assert check_lm_invariants(p) == []
    # T is diagonal, so the standard-basis readout stays deterministic
    for x in all_inputs(1):
        assert max_equivalence_gap(c) < 1e-12
        dist = lmeval_distribution(x, p)
        assert abs(dist[tuple(x.bits)] - 1.0) < 1e-12


def test_compile_hth_exact():
    c = parse_circuit("qubits 1 inputs 1 outputs 1\nH 1\nT 1\nH 1")
    assert max_equivalence_gap(c) < 1e-9


def test_compile_t_between_hadamards_all_qubits():
    # frame propagation through CNOTs feeding a T gate
    text = "qubits 2 inputs 2 outputs 1,2\nH 1\nCNOT 1 2\nT 2\nH 2\nCNOT 2 1"
    assert max_equivalence_gap(parse_circuit(text)) < 1e-9


def test_compiler_equivalence_random_circuits():
    rng = np.random.default_rng(7)
    for _ in range(40):
        c = random_circuit(rng)
        assert max_equivalence_gap(c) < 1e-9, format_circuit(c)


def test_compile_linear_time_scaling():
    rng = np.random.default_rng(3)
    gates = []
    for _ in range(600):
        k = rng.integers(3)
        if k == 0:
            a, b = rng.choice(3, size=2, replace=False) + 1
            gates.append(Gate("CNOT", (int(a), int(b))))
        else:
            gates.append(Gate(("H", "T")[k - 1], (int(rng.integers(1, 4)),)))
    c = Circuit(3, 3, tuple(gates), (1, 2, 3))
    start = time.monotonic()
    p = compile_circuit(c)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    n_h = sum(1 for g in gates if g.kind == "H")
    n_t = sum(1 for g in gates if g.kind == "T")
    assert p.num_wires == 3 + 2 * (n_h + n_t)
    assert p.t == n_t
    assert check_lm_invariants(p) == []


def test_compiled_w_sets_are_magic_pairs():
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = compile_circuit(random_circuit(rng, max_gates=8, max_t=3))
        for w_pair in p.w_sets:
            assert len(w_pair) == 2
            assert p.state_spec[w_pair[0] - 1] == ("magic_t",)
            assert p.state_spec[w_pair[1] - 1] == ("magic_px",)


# --- evaluator -------------------------------------------------------------


def test_lmeval_identity():
    p = compile_circuit(Circuit(2, 2, (), (1, 2)))
    rng = np.random.default_rng(0)
    for _ in range(5):
        assert lmeval(bv("10"), p, rng) == bv("10")


def test_lmeval_single_h_frequencies():
    p = compile_circuit(Circuit(1, 1, (Gate("H", (1,)),), (1,)))
    rng = np.random.default_rng(42)
    n = 4000
    ones = sum(lmeval(bv("0"), p, rng)[1] for _ in range(n))
    sigma = np.sqrt(0.25 * n)
    assert abs(ones - n / 2) < 4 * sigma


def test_lmeval_hth_frequencies():
    c = parse_circuit("qubits 1 inputs 1 outputs 1\nH 1\nT 1\nH 1")
    p = compile_circuit(c)
    rng = np.random.default_rng(9)
    n = 10_000
    zeros = sum(1 - lmeval(bv("0"), p, rng)[1] for _ in range(n))
    want = np.cos(np.pi / 8) ** 2
    sigma = np.sqrt(n * want * (1 - want))
    assert abs(zeros - n * want) < 3 * sigma


def test_prepare_state_single_t():
    p = compile_circuit(Circuit(1, 1, (Gate("T", (1,)),), (1,)))
    got = prepare_program_state(p)
    want = np.kron(np.array([1, 0]), np.kron(magic_state("T").amplitudes, magic_state("PX").amplitudes))
    assert state_distance(got, StateVector(3, want)) < 1e-12


def test_prepare_state_rejects_split_pair():
    p = compile_circuit(Circuit(1, 1, (Gate("H", (1,)),), (1,)))
    broken = dataclasses.replace(p, state_spec=(("input", 1), ("magic_h", 1, "a"), ("zero",)))
    with pytest.raises(ValueError):
        prepare_program_state(broken)


# --- lazy admission ----------------------------------------------------------


def test_rounds_admit_the_wires_they_touch_first():
    """A wire joins at the first round whose CNOTs, V set or W set touch
    it: in `T 1; CNOT 1 2` qubit 2 waits for round 2, below wires 3 and 4
    that round 1 left live."""
    p = compile_circuit(parse_circuit("qubits 2 inputs 2 outputs 1,2\nT 1\nCNOT 1 2"))
    assert [ly.admit for ly in p.layers] == [(1, 3, 4), (2,)]
    assert p.layers[0].v == (1,) and p.layers[1].cnots == ((3, 2),)
    assert p.peak_live == 3


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_admission_covers_each_wire_once_with_pairs_together(seed):
    """Every wire is admitted exactly once, no later than the first round
    that touches it, the halves of an H pair in the same round, and the
    peak live count is the most wires admitted and not yet consumed."""
    rng = np.random.default_rng(seed)
    p = compile_circuit(random_circuit(rng, max_gates=10, max_t=4))
    admitted = [w for ly in p.layers for w in ly.admit]
    assert sorted(admitted) == list(range(1, p.num_wires + 1))
    round_of = {w: ly.index for ly in p.layers for w in ly.admit}
    for ly in p.layers:
        for w in {q for pair in ly.cnots for q in pair}.union(ly.v, ly.w):
            assert round_of[w] <= ly.index
    for w, tag in enumerate(p.state_spec, start=1):
        if tag[0] == "magic_h" and tag[2] == "a":
            assert round_of[w] == round_of[w + 1]
    live, peak = set(), 0
    for ly in p.layers:
        live.update(ly.admit)
        peak = max(peak, len(live))
        live.difference_update(ly.v)
    assert p.peak_live == peak <= p.num_wires


@pytest.mark.parametrize("block", [1, 2])
def test_place_puts_blocks_in_wire_order(block):
    """Admitted blocks land among the live ones in wire order: on top
    with one tensor, or through the axis permutation."""
    rng = np.random.default_rng(5)

    def random_state(n):
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        return StateVector(n, amps / np.linalg.norm(amps))

    blocks = {w: random_state(block) for w in range(1, 6)}

    def product(wires):
        out = StateVector(0, np.ones(1, dtype=np.complex128))
        for w in wires:
            out = tensor(out, blocks[w])
        return out

    for live, wires in (([], (1, 2)), ([1, 2], (4, 5)), ([3, 5], (1, 4)), ([2, 4], (1, 3, 5))):
        got = place(product(live), live, wires, product(wires), block)
        want = product(sorted([*live, *wires]))
        # The products associate differently, so the floats may move by ulps.
        np.testing.assert_allclose(got.amplitudes, want.amplitudes, rtol=1e-13, atol=1e-15)


def test_long_t_chain_runs_on_a_few_live_wires():
    """H, 101 T and H on one qubit compile to 207 wires, but at most 5
    are ever live, so the chain evaluates: lmeval matches the circuit's
    output distribution, and one physical run at security 1 (15
    qubits) lands in its support."""
    from lmobf.obf import ObfParams, qeval, qobf

    circuit = parse_circuit("qubits 1 inputs 1 outputs 1\nH 1\n" + "T 1\n" * 101 + "H 1\n")
    p = compile_circuit(circuit)
    assert (p.num_wires, p.peak_live) == (207, 5)
    x = bv("0")
    want = circuit_output_distribution(circuit, x)
    rng = np.random.default_rng(17)
    n = 100
    ones = sum(lmeval(x, p, rng)[1] for _ in range(n))
    q = want[(1,)]
    assert abs(ones - n * q) <= 3 * np.sqrt(n * q * (1 - q))
    obf = qobf(ObfParams(security=1, label_bits=32, token_dim=16), p, np.random.default_rng(18))
    y = qeval(x, obf, np.random.default_rng(19), mode="physical")
    assert y.bits in want


# --- invariant checker ------------------------------------------------------


def test_invariants_flag_layer_touching_collapsed_wire():
    p = compile_circuit(Circuit(1, 1, (Gate("T", (1,)),), (1,)))
    bad = dataclasses.replace(p, linear_layers=(p.linear_layers[0], ((2, 1),)))
    assert any("touches collapsed wire" in v for v in check_lm_invariants(bad))


def test_invariants_flag_w_measured_in_hadamard_basis():
    p = compile_circuit(Circuit(1, 1, (Gate("T", (1,)),), (1,)))
    bad = dataclasses.replace(p, thetas=((0, 1, 0), p.thetas[1]))
    assert any("standard-basis" in v for v in check_lm_invariants(bad))


def test_invariants_flag_a_theta_entry_that_is_no_basis():
    """A theta entry other than 0, 1 or None is a violation: lmeval
    would read it as the standard basis, and read_program refuses the
    text program_to_text writes for it."""
    p = compile_circuit(parse_circuit("qubits 1 inputs 1 outputs 1\nH 1"))
    bad = dataclasses.replace(p, thetas=((2, 0, 0),))
    assert check_lm_invariants(bad) == ["theta1 reads wire 1 in basis 2, not 0 or 1"]
    with pytest.raises(ValueError, match="out of range"):
        program_from_text(program_to_text(bad))


def test_invariants_flag_uncovered_wires():
    p = compile_circuit(Circuit(1, 1, (), (1,)))
    bad = dataclasses.replace(
        p,
        num_wires=2,
        state_spec=p.state_spec + (("zero",),),
        thetas=((0, None),),
    )
    assert any("cover" in v for v in check_lm_invariants(bad))


# Two T rounds after an H: magic-H halves, W pairs, a CNOT in round 2.
RULE_BASE = compile_circuit(parse_circuit("qubits 2 inputs 2 outputs 1,2\nH 1\nCNOT 1 2\nT 2\nT 1"))


def _rebased(p, i, wire, basis):
    """Replace-kwargs giving round i of p the basis for wire."""
    thetas = [list(theta) for theta in p.thetas]
    thetas[i - 1][wire - 1] = basis
    return {"thetas": tuple(tuple(theta) for theta in thetas)}


def _f1(p, nodes=None, outputs=None):
    """Replace-kwargs swapping f1's nodes or outputs."""
    fn = p.measurement_fns[0]
    f1 = ClassicalFn(nodes or fn.nodes, outputs or fn.outputs)
    return {"measurement_fns": (f1,) + p.measurement_fns[1:]}


# One mutation per rule of check_lm_invariants, with a fragment of the
# violation it must raise.
RULE_BREAKS = {
    "V sets overlap": (lambda p: {"v_sets": p.v_sets[:2] + ((3, 5, 7, 8),)}, "V3 overlaps"),
    "W meets an earlier read set": (lambda p: {"w_sets": (p.w_sets[0], (5, 8))}, "W2 intersects"),
    "theta support": (lambda p: _rebased(p, 1, 4, 0), "theta1 support differs"),
    "re-measured basis": (lambda p: _rebased(p, 2, 1, 0), "re-measures wire 1"),
    "invalid CNOT": (
        lambda p: {"linear_layers": (p.linear_layers[0], ((7, 7),), ())},
        "invalid CNOT (7,7)",
    ),
    "CNOT on a collapsed wire": (
        lambda p: {"linear_layers": (p.linear_layers[0], ((7, 4), (1, 4)), ())},
        "touches collapsed wire",
    ),
    "W wire not standard-basis": (lambda p: _rebased(p, 1, 6, 1), "wire 6 in W1 is not standard"),
    "CNOT targeting a W wire": (
        lambda p: {"linear_layers": (p.linear_layers[0], ((4, 7),), ())},
        "targets wire 7 of W2",
    ),
    "f_i reads an unavailable input": (
        lambda p: _f1(p, nodes=(("in", "m7"),) + p.measurement_fns[0].nodes[1:]),
        "f1 reads unavailable inputs ['m7']",
    ),
    "f_i output names": (
        lambda p: _f1(p, outputs=(("v2", 4), ("v1", 1), ("v3", 2), ("r", 9))),
        "f1 outputs",
    ),
    "g output names": (
        lambda p: {"final_fn": ClassicalFn(p.final_fn.nodes, (("y2", 9), ("y1", 10)))},
        "output",
    ),
    "input tags": (
        lambda p: {"state_spec": (("input", 2), ("input", 1)) + p.state_spec[2:]},
        "input tags",
    ),
    "magic-H halves": (
        lambda p: {"state_spec": p.state_spec[:3] + (("magic_h", 1, "a"),) + p.state_spec[4:]},
        "magic pair 1",
    ),
    "magic-H halves not adjacent": (
        lambda p: {"state_spec": p.state_spec[:2] + p.state_spec[3:1:-1] + p.state_spec[4:]},
        "magic pair 1 is not two adjacent wires",
    ),
    "V lists a wire twice": (
        lambda p: {"v_sets": ((1, 2, 3, 3),) + p.v_sets[1:]},
        "V1 lists wire 3 twice",
    ),
    "W lists a wire twice": (lambda p: {"w_sets": ((5, 5), p.w_sets[1])}, "W1 lists wire 5 twice"),
    "V sets cover every wire": (
        lambda p: {"v_sets": p.v_sets[:2] + ((5, 7),)},
        "do not cover every wire",
    ),
}


def test_rule_base_passes_invariants():
    assert check_lm_invariants(RULE_BASE) == []
    assert RULE_BASE.w_sets == ((5, 6), (7, 8)) and RULE_BASE.linear_layers[1] == ((7, 4),)


@pytest.mark.parametrize("rule", list(RULE_BREAKS))
def test_each_invariant_rule_flags_its_mutation(rule):
    mutate, fragment = RULE_BREAKS[rule]
    bad = check_lm_invariants(dataclasses.replace(RULE_BASE, **mutate(RULE_BASE)))
    assert any(fragment in v for v in bad), bad


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_compiled_programs_pass_invariants(seed):
    rng = np.random.default_rng(seed)
    p = compile_circuit(random_circuit(rng, max_gates=8, max_t=3))
    assert check_lm_invariants(p) == []


# --- serialization ----------------------------------------------------------


def test_program_text_roundtrip():
    rng = np.random.default_rng(5)
    circuits = [
        Circuit(2, 2, (), (1, 2)),
        Circuit(1, 1, (Gate("H", (1,)),), (1,)),
        Circuit(1, 1, (Gate("T", (1,)),), (1,)),
        parse_circuit("qubits 1 inputs 1 outputs 1\nH 1\nT 1\nH 1"),
    ] + [random_circuit(rng) for _ in range(10)]
    for c in circuits:
        p = compile_circuit(c)
        text = program_to_text(p)
        assert program_from_text(text) == p
        assert program_to_text(program_from_text(text)) == text


def test_program_text_sections_present():
    p = compile_circuit(parse_circuit("qubits 1 inputs 1 outputs 1\nT 1"))
    text = program_to_text(p)
    for token in ("wires 3", "inputs 1", "t 1", "L1:", "L2:", "theta1:", "V1:", "W1:", "f1:", "g:"):
        assert token in text
