"""End-of-build verification: ten numbered checks, one test and one
printed PASS/FAIL line each (run with -s to see the lines). They cover
the encoding operator identities, subspace duality, compiler
equivalence, measurement/encoding commutation, end-to-end evaluation,
tamper and forgery statistics, the twirl cancellation, token single-use,
and real/simulated oracle agreement, at the stated sizes and tolerances.
"""

import time
from dataclasses import replace

import numpy as np

from helpers import all_inputs, logical_measure_branches, max_equivalence_gap, random_circuit
from lmobf.auth import (
    BasisString,
    dec,
    enc,
    gen,
    honest_codeword,
    lin_eval,
    ver,
    verify_pauli_twirl,
)
from lmobf.gf2 import BitVector, Subspace, dual, sample_subspace
from lmobf.lm import Circuit, FnBuilder, Gate, compile_circuit, fn_code
from lmobf.obf import (
    ObfParams,
    OracleSuite,
    Reject,
    Transcript,
    attack_harness,
    chain_label,
    induced_map,
    is_bot,
    oracle_f,
    oracle_f_sim,
    qeval,
    qobf,
    simulated_suite,
)
from lmobf.sim import (
    MeasurementSpec,
    StateVector,
    apply_encoding_isometry,
    apply_gate,
    measure_branches,
    prepare_subspace_state,
    state_distance,
)
from lmobf.tokens import measure_register, tok_gen, tok_sign, tok_ver


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _basis_state(num_qubits: int, index: int) -> StateVector:
    amps = np.zeros(2**num_qubits, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(num_qubits, amps)


def _encode_plain(state: StateVector, space: Subspace, delta: BitVector) -> StateVector:
    """Per-wire encoding isometry alone, no Pauli masking. Encodes the
    last wire first so earlier wire positions stay valid."""
    out = state
    for wire in range(state.num_qubits, 0, -1):
        out = apply_encoding_isometry(out, wire, space, delta)
    return out


def _hadamard_matrix(p: int) -> np.ndarray:
    idx = np.arange(2**p)
    par = idx[:, None] & idx[None, :]
    for shift in (16, 8, 4, 2, 1):
        par = par ^ (par >> shift)
    return (1.0 - 2.0 * (par & 1)) / np.sqrt(2.0**p)


def _encoding_matrix(space: Subspace, delta: BitVector) -> np.ndarray:
    return np.stack(
        [
            prepare_subspace_state(space).amplitudes,
            prepare_subspace_state(space, delta).amplitudes,
        ],
        axis=1,
    )


def test_01_encoding_operator_identities():
    started = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for lam in (1, 2):
        for _ in range(10):
            key = gen(lam, 2, rng)
            p = key.code_length
            lhs = _hadamard_matrix(p) @ _encoding_matrix(key.hat_space, key.hat_delta)
            rhs = _encoding_matrix(key.space, key.delta) @ _hadamard_matrix(1)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
            for index in range(4):
                col = _basis_state(2, index)
                bitwise = lin_eval([(1, 2)], _encode_plain(col, key.space, key.delta), p)
                logical = _encode_plain(
                    apply_gate(col, "CNOT", (1, 2)), key.space, key.delta
                )
                worst = max(
                    worst, float(np.max(np.abs(bitwise.amplitudes - logical.amplitudes)))
                )
    elapsed = time.monotonic() - started
    _report(
        "01 operator identities",
        worst <= 1e-12 and elapsed < 10,
        f"20 keys, max deviation {worst:.2e}, {elapsed:.1f}s",
    )


def test_02_hadamard_maps_subspace_state_to_dual():
    rng = np.random.default_rng(202)
    worst = 0.0
    for lam in (1, 2):
        p = 2 * lam + 1
        for _ in range(8):
            space = sample_subspace(p, int(rng.integers(1, p)), rng)
            state = prepare_subspace_state(space)
            for q in range(1, p + 1):
                state = apply_gate(state, "H", (q,))
            worst = max(worst, state_distance(state, prepare_subspace_state(dual(space))))
    _report(
        "02 subspace duality",
        worst <= 1e-12,
        f"both code lengths, max state distance {worst:.2e}",
    )


def test_03_compiled_programs_match_circuits():
    started = time.monotonic()
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(200):
        worst = max(worst, max_equivalence_gap(random_circuit(rng)))
    elapsed = time.monotonic() - started
    _report(
        "03 compiler equivalence",
        worst <= 1e-9 and elapsed < 120,
        f"200 circuits, every input, max total variation {worst:.2e}, {elapsed:.1f}s",
    )


def _random_state(num_qubits: int, rng: np.random.Generator) -> StateVector:
    amps = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return StateVector(num_qubits, amps / np.linalg.norm(amps))


def _random_outcome_fn(phi: tuple[int, ...], rng: np.random.Generator):
    b = FnBuilder()
    nodes = [b.inp(f"m{i}") for i in phi]
    for _ in range(4):
        i, j = rng.integers(len(nodes), size=2)
        nodes.append(b.xor(nodes[i], nodes[j]) if rng.integers(2) else b.and_(nodes[i], nodes[j]))
    return b.extract([("o1", nodes[-1]), ("o2", nodes[rng.integers(len(nodes))])])


def _coarse_grain(fn, phi):
    if fn is None:
        return None

    def outcome_fn(rows):
        top = len(phi) - 1
        binds = {name: rows >> top - phi.index(int(name[1:])) & 1 for name in fn.input_names}
        return fn_code(fn, binds, rows)

    return outcome_fn


def test_04_measurement_commutes_with_encoding():
    rng = np.random.default_rng(404)
    worst_prob, worst_state = 0.0, 0.0
    for _ in range(50):
        key = gen(1, 2, rng)
        logical = _random_state(2, rng)
        cnots = [
            tuple(int(w) + 1 for w in rng.choice(2, 2, replace=False))
            for _ in range(rng.integers(4))
        ]
        theta = tuple(
            None if v is None else int(v) for v in (rng.choice([0, 1, None]) for _ in range(2))
        )
        basis = BasisString(theta, key.code_length)
        fn = _random_outcome_fn(basis.phi, rng) if basis.phi else None

        moved = logical
        for c, t in cnots:
            moved = apply_gate(moved, "CNOT", (c, t))
        plain_spec = MeasurementSpec(
            tuple(None if v is None else ("Z", "X")[v] for v in theta),
            _coarse_grain(fn, basis.phi),
        )
        reference = {}
        for label, prob, post in measure_branches(moved, plain_spec):
            undone = post
            for c, t in reversed(cnots):
                undone = apply_gate(undone, "CNOT", (c, t))
            reference[label] = (prob, enc(key, undone))

        encoded = lin_eval(cnots, enc(key, logical), key.code_length)
        branches = logical_measure_branches(key, cnots, basis, fn, encoded)
        assert {lab for lab, _, _ in branches} == set(reference)
        for label, prob, post in branches:
            want_prob, want_state = reference[label]
            worst_prob = max(worst_prob, abs(prob - want_prob))
            undone = post
            for c, t in reversed(cnots):
                undone = lin_eval([(c, t)], undone, key.code_length)
            worst_state = max(worst_state, state_distance(undone, want_state))
    _report(
        "04 measurement/encoding commutation",
        worst_prob <= 1e-9 and worst_state <= 1e-9,
        f"50 instances, prob gap {worst_prob:.2e}, state gap {worst_state:.2e}",
    )


DETERMINISTIC_CIRCUITS = (
    Circuit(1, 1, (), (1,)),
    Circuit(2, 2, (), (1, 2)),
    Circuit(1, 1, (Gate("T", (1,)),), (1,)),
    Circuit(1, 1, (Gate("T", (1,)), Gate("T", (1,))), (1,)),
    Circuit(2, 2, (Gate("CNOT", (1, 2)),), (1, 2)),
    Circuit(2, 2, (Gate("CNOT", (1, 2)), Gate("T", (2,))), (1, 2)),
    Circuit(2, 2, (Gate("T", (1,)), Gate("CNOT", (1, 2))), (1, 2)),
    Circuit(2, 2, (Gate("CNOT", (1, 2)), Gate("CNOT", (2, 1)), Gate("CNOT", (1, 2))), (1, 2)),
    Circuit(1, 1, (Gate("H", (1,)), Gate("H", (1,))), (1,)),
    Circuit(1, 2, (Gate("CNOT", (1, 2)),), (1, 2)),
)


def test_05_end_to_end_deterministic_programs():
    started = time.monotonic()
    params = ObfParams(security=2, label_bits=64, token_dim=24)
    runs = bots = mismatches = 0
    for c_idx, circuit in enumerate(DETERMINISTIC_CIRCUITS):
        program = compile_circuit(circuit)
        q_fn = induced_map(program)
        for seed in range(50):
            for x in all_inputs(circuit.num_input_bits):
                x_int = int("".join(str(b) for b in x.bits), 2)
                obf = qobf(params, program, np.random.default_rng((505, c_idx, seed, x_int)))
                y = qeval(x, obf, np.random.default_rng((506, c_idx, seed, x_int)), mode="logical")
                runs += 1
                if is_bot(y):
                    bots += 1
                elif y != q_fn(x):
                    mismatches += 1
    elapsed = time.monotonic() - started
    _report(
        "05 end-to-end evaluation",
        bots == 0 and mismatches == 0 and elapsed < 300,
        f"10 programs, 50 seeds, every input: {runs} runs, "
        f"{bots} rejections, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_06_tamper_rejection():
    rng = np.random.default_rng(606)

    key = gen(2, 1, rng)
    p = key.code_length
    basis = BasisString((0,), p)
    rejected = 0
    for _ in range(1000):
        v = honest_codeword(key, 0, int(rng.integers(2)), key.x_masks[0], key.z_masks[0], rng)
        while True:
            e = BitVector.from_ints(rng.integers(0, 2, p))
            if not key.accept_space_z.contains(e):
                break
        flipped = (v ^ e,)
        rejected += (not ver(key, (), basis, flipped)) and dec(key, (), basis, flipped) is None
    ok_det = rejected == 1000

    key4 = gen(4, 1, rng)
    p4 = key4.code_length
    basis4 = BasisString((0,), p4)
    trials, accepted = 10_000, 0
    for _ in range(trials):
        v = honest_codeword(key4, 0, int(rng.integers(2)), key4.x_masks[0], key4.z_masks[0], rng)
        while True:
            e = BitVector.from_ints(rng.integers(0, 2, p4))
            f = BitVector.from_ints(rng.integers(0, 2, p4))
            if not (key4.accept_space_z.contains(e) and key4.accept_space_x.contains(f)):
                break
        accepted += ver(key4, (), basis4, (v ^ e,))
    bound = 2.0**-4
    sigma = (bound * (1 - bound) / trials) ** 0.5
    rate = accepted / trials
    _report(
        "06 tamper rejection",
        ok_det and rate <= bound + 3 * sigma,
        f"out-of-code flips {rejected}/1000 rejected; random non-logical Pauli "
        f"accept rate {rate:.4f} <= {bound + 3 * sigma:.4f}",
    )


def _twirl_instance(rng: np.random.Generator, ambient: int):
    space_r = sample_subspace(ambient, int(rng.integers(1, ambient)), rng)
    space_r_hat = sample_subspace(ambient, int(rng.integers(1, ambient)), rng)
    while True:
        delta = BitVector.from_ints(rng.integers(0, 2, ambient))
        if not space_r.contains(delta):
            break
    while True:
        delta_hat = BitVector.from_ints(rng.integers(0, 2, ambient))
        if not space_r_hat.contains(delta_hat):
            break
    while True:
        masks = [BitVector.from_ints(rng.integers(0, 2, ambient)) for _ in range(4)]
        x0, z0, x1, z1 = masks
        if not dual(space_r_hat).contains(x0 ^ x1) or not dual(space_r).contains(z0 ^ z1):
            return space_r, space_r_hat, delta, delta_hat, x0, z0, x1, z1


def _random_density(n: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_07_pauli_twirl_cancellation():
    rng = np.random.default_rng(707)
    worst = 0.0
    for trial in range(50):
        ambient = 2 + trial % 3
        inst = _twirl_instance(rng, ambient)
        worst = max(worst, verify_pauli_twirl(*inst, _random_density(ambient, rng)))
    space_r, space_r_hat, delta, delta_hat, x0, z0, _, _ = _twirl_instance(rng, 3)
    colliding = verify_pauli_twirl(
        space_r, space_r_hat, delta, delta_hat, x0, z0, x0, z0, _random_density(3, rng)
    )
    _report(
        "07 twirl cancellation",
        worst <= 1e-12 and colliding > 1e-6,
        f"50 instances, max entry {worst:.2e}; colliding masks give {colliding:.2e}",
    )


def test_08_token_single_use():
    rng = np.random.default_rng(808)
    kappa_prime, trials = 4, 10_000
    bound = 2.0**-kappa_prime

    forged = 0
    for _ in range(trials):
        keypair = tok_gen(kappa_prime, 1, rng)
        tok_sign(BitVector((0,)), keypair, rng)
        candidate = measure_register(keypair, 1, "X", rng)
        forged += tok_ver(keypair.vk, BitVector((1,)), (candidate,))
    sigma = (bound * (1 - bound) / trials) ** 0.5
    forge_rate = forged / trials
    forge_ok = forge_rate <= bound + 3 * sigma

    good = 0
    for _ in range(trials):
        keypair = tok_gen(kappa_prime, 2, rng)
        x = BitVector.from_ints(rng.integers(0, 2, 2))
        good += tok_ver(keypair.vk, x, tok_sign(x, keypair, rng))
    floor = 1 - 2 * bound
    sigma_h = (floor * (1 - floor) / trials) ** 0.5
    honest_rate = good / trials
    honest_ok = honest_rate >= floor - 3 * sigma_h

    _report(
        "08 token single use",
        forge_ok and honest_ok,
        f"cross-sign rate {forge_rate:.4f} <= {bound + 3 * sigma:.4f}; "
        f"honest rate {honest_rate:.4f} >= {floor - 3 * sigma_h:.4f}",
    )


T_T_CIRCUIT = Circuit(1, 1, (Gate("T", (1,)), Gate("T", (1,))), (1,))
FAST_PARAMS = ObfParams(security=1, label_bits=32, token_dim=16)


def _recorded_evaluation(circuit: Circuit, x: BitVector, seed: int):
    """Run one honest evaluation, keeping every oracle query it sent."""
    program = compile_circuit(circuit)
    obf = qobf(FAST_PARAMS, program, np.random.default_rng(seed))
    log: list = []
    base = obf.suite
    suite = OracleSuite(
        query_f=lambda i, tr, w: (log.append((i, tr, w)), base.query_f(i, tr, w))[1],
        query_g=base.query_g,
    )
    y = qeval(x, obf, np.random.default_rng(seed + 1), mode="logical", suite=suite)
    assert not is_bot(y)
    return obf.key, log


def _flip_one_bit(v: BitVector, rng: np.random.Generator) -> BitVector:
    bits = list(v.bits)
    bits[int(rng.integers(len(bits)))] ^= 1
    return BitVector(tuple(bits))


def _corrupt_query(transcript: Transcript, w_pair, rng: np.random.Generator):
    choices = ["sig", "v", "w", "x"] + (["label"] if transcript.labels else [])
    kind = choices[int(rng.integers(len(choices)))]
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
        return replace(transcript, v_layers=tuple(tuple(l) for l in layers)), w_pair
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


def test_09_simulated_oracles():
    rng = np.random.default_rng(909)
    for c_idx, circuit in enumerate(DETERMINISTIC_CIRCUITS):
        program = compile_circuit(circuit)
        q_fn = induced_map(program)
        for x in all_inputs(circuit.num_input_bits):
            obf = qobf(FAST_PARAMS, program, np.random.default_rng((909, c_idx)))
            suite = simulated_suite(obf.key, q_fn)
            y = qeval(x, obf, rng, mode="logical", suite=suite)
            assert not is_bot(y) and y == q_fn(x)

    contexts = []
    for seed in range(25):
        key, log = _recorded_evaluation(T_T_CIRCUIT, BitVector((seed % 2,)), 2000 + seed)
        contexts.extend((key, i, tr, w) for i, tr, w in log)
    trials, agreed, corrupted_count = 10_000, 0, 0
    for _ in range(trials):
        key, i, tr, w = contexts[int(rng.integers(len(contexts)))]
        corrupted = rng.random() < 0.65
        if corrupted:
            tr, w = _corrupt_query(tr, w, rng)
            corrupted_count += 1
        real = oracle_f(key, i, tr, w)
        sim = oracle_f_sim(key, i, tr, w)
        if is_bot(real) == is_bot(sim):
            agreed += 1
        if not corrupted:
            assert not is_bot(real) and not is_bot(sim)
    _report(
        "09 simulated oracles",
        agreed == trials,
        f"all programs return the induced map under simulation; rejection sets "
        f"agree on {agreed}/{trials} queries ({corrupted_count} corrupted)",
    )


def test_10_label_guessing_and_input_mixing():
    rng = np.random.default_rng(1010)
    program = compile_circuit(T_T_CIRCUIT)
    obf = qobf(ObfParams(security=1, label_bits=64, token_dim=16), program, rng)
    log: list = []
    base = obf.suite
    suite = OracleSuite(
        query_f=lambda i, tr, w: (log.append((i, tr, w)), base.query_f(i, tr, w))[1],
        query_g=base.query_g,
    )
    y = qeval(BitVector((1,)), obf, rng, mode="logical", suite=suite)
    assert not is_bot(y)
    layer2, tr2, w2 = log[1]
    assert layer2 == 2

    accepted_labels = [chain_label(obf.key, tr2, 1, b) for b in (0, 1)]
    accepted_ints = np.array(
        [int("".join(str(b) for b in lab.bits), 2) for lab in accepted_labels],
        dtype=np.uint64,
    )
    guesses = rng.integers(0, 2**64, size=10**6, dtype=np.uint64, endpoint=False)
    hits = int((guesses[:, None] == accepted_ints[None, :]).sum())

    spot_rejects = 0
    for g in guesses[:200]:
        forged = BitVector(tuple(int(g) >> (63 - k) & 1 for k in range(64)))
        reply = oracle_f(obf.key, 2, replace(tr2, labels=(forged,)), w2)
        spot_rejects += reply == Reject("bad-label", 2)
    genuine = oracle_f(obf.key, 2, tr2, w2)

    mix = attack_harness(
        "mixed-input",
        qobf(FAST_PARAMS, compile_circuit(Circuit(2, 2, (Gate("T", (1,)),), (1, 2))), rng),
        rng,
    )
    _report(
        "10 label forgery and input mixing",
        hits == 0 and spot_rejects == 200 and not is_bot(genuine) and mix.accepted == 0,
        f"0/{len(guesses)} random 64-bit labels accepted (200 re-checked through "
        f"the oracle); mixed-input attack rejected {mix.rejected}/{mix.trials}",
    )
