"""Span tracing of lmobf from outside the package.

`Tracer.install()` replaces each function named in `TRACED` with a
wrapper, in the module that defines it and in every lmobf module that
imported the name (so `obf.measure` is wrapped as well as
`sim.measure`). `Tracer.uninstall()` puts the originals back. While
installed, every call appends one span `[name, start_ns, end_ns,
parent, op]` to an in-memory list; `op` is whatever the caller stored in
`Tracer.op` (None outside the timed loop). A few wrappers also look at
arguments or results to keep counters, such as state widths and
rejections; they count only while `op` is set.

`layer_metrics()` turns spans and counters into the per-layer metrics:
per-function calls and self time, per-module self time and share, and
the counters. Self time is a span's duration minus the part of it that
its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from typing import Callable, Optional

TRACED: dict[str, tuple[str, ...]] = {
    "gf2": (
        "rref",
        "dual",
        "coset_decode",
        "coset_decode_batch",
        "sample_subspace",
        "Subspace.contains",
    ),
    "sim": ("apply_gate", "apply_pauli_mask", "apply_encoding_isometry", "measure", "tensor"),
    "lm": ("prepare_program_state", "apply_cnot_layer", "eval_classical_fn", "eval_classical_fn_batch"),
    "auth": ("gen", "enc", "lin_eval", "dec", "dec_batch", "ver", "honest_codeword"),
    "tokens": ("tok_gen", "tok_sign", "tok_ver"),
    "obf": ("qobf", "qeval", "oracle_f", "oracle_g", "prf", "read_frames", "handle_request_line"),
}

# Every module of the package that may hold an imported copy of a name.
LMOBF_MODULES = ("gf2", "sim", "lm", "auth", "tokens", "obf", "cli")

# Counter metrics, with their units, in the order they are reported.
COUNTERS: dict[str, str] = {
    "sim.amps": "count",
    "sim.bytes_computed": "B",
    "sim.peak_qubits": "qubits",
    "tokens.zero_sig_share": "fraction",
    "tokens.tok_ver.rejects": "count",
    "auth.dec.rejects": "count",
    "obf.oracle_f.rejects": "count",
    "obf.oracle_g.rejects": "count",
    "obf.prf.calls_per_query": "count",
    "cli.wire.roundtrip_ms": "ms",
    "cli.wire.wait_ms": "ms",
    "cli.serve.startup_s": "s",
    "trace.overhead_ms": "ms",
}

WRAPPER_MARK = "_perfbench_span"

Span = list  # [name, start_ns, end_ns, parent index or -1, op]


def per_layer_names() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    names: dict[str, str] = {}
    for module, funcs in TRACED.items():
        for fn in funcs:
            names[f"{module}.{fn}.calls"] = "count"
            names[f"{module}.{fn}.self_ms"] = "ms"
    for module in TRACED:
        names[f"{module}.self_ms"] = "ms"
        names[f"{module}.share"] = "fraction"
    names.update(COUNTERS)
    return names


def _is_state(obj: object) -> bool:
    return hasattr(obj, "num_qubits") and hasattr(obj, "amplitudes")


def _observe_sim(tracer: "Tracer", name: str, args: tuple, result: object, parent: int) -> None:
    states = [a for a in args if _is_state(a)]
    out = getattr(result, "post_state", result)
    widest = max([s.num_qubits for s in states] + ([out.num_qubits] if _is_state(out) else []))
    c = tracer.counters
    c["sim.peak_qubits"] = max(c.get("sim.peak_qubits", 0), widest)
    # Count the input states of outermost sim calls only, so that a sim
    # function calling another is not counted twice.
    if parent < 0 or not tracer.spans[parent][0].startswith("sim."):
        c["sim.amps"] = c.get("sim.amps", 0) + sum(2**s.num_qubits for s in states)


def _observe_sign(tracer: "Tracer", name: str, args: tuple, result: object, parent: int) -> None:
    c = tracer.counters
    c["tokens.signatures"] = c.get("tokens.signatures", 0) + 1
    if any(v.is_zero() for v in result):
        c["tokens.zero_signatures"] = c.get("tokens.zero_signatures", 0) + 1


def _count_if(predicate: Callable[[object], bool]):
    def observe(tracer: "Tracer", name: str, args: tuple, result: object, parent: int) -> None:
        if predicate(result):
            key = f"{name}.rejects"
            tracer.counters[key] = tracer.counters.get(key, 0) + 1

    return observe


def _observers() -> dict[str, Callable]:
    obf = importlib.import_module("lmobf.obf")
    out: dict[str, Callable] = {f"sim.{fn}": _observe_sim for fn in TRACED["sim"]}
    out["tokens.tok_sign"] = _observe_sign
    out["tokens.tok_ver"] = _count_if(lambda r: r is False)
    out["auth.dec"] = _count_if(lambda r: r is None)
    out["obf.oracle_f"] = _count_if(obf.is_bot)
    out["obf.oracle_g"] = _count_if(obf.is_bot)
    return out


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, int] = {}
        self.op: Optional[int] = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def _wrap(self, name: str, fn: Callable, observe: Optional[Callable]) -> Callable:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, clock(), 0, parent, self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None and span[4] is not None:
                observe(self, name, args, result, parent)
            return result

        setattr(wrapper, WRAPPER_MARK, name)
        return wrapper

    def install(self) -> None:
        if self.installed:
            raise RuntimeError("tracer already installed")
        modules = {m: importlib.import_module(f"lmobf.{m}") for m in LMOBF_MODULES}
        owners = [importlib.import_module("lmobf")] + list(modules.values())
        observers = _observers()
        for module, funcs in TRACED.items():
            home = modules[module]
            for qual in funcs:
                name = f"{module}.{qual}"
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    cls = getattr(home, cls_name)
                    orig = cls.__dict__[attr]
                    self._patch(cls, attr, orig, self._wrap(name, orig, observers.get(name)))
                    continue
                orig = home.__dict__[qual]
                wrapper = self._wrap(name, orig, observers.get(name))
                for owner in owners:
                    if owner.__dict__.get(qual) is orig:
                        self._patch(owner, qual, orig, wrapper)

    def _patch(self, owner: object, attr: str, orig: object, wrapper: Callable) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines, then one line of counters."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["name", "start_ns", "end_ns", "parent", "op"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"counters": self.counters}) + "\n")


def load(path: str) -> tuple[list[Span], dict[str, int]]:
    """Inverse of Tracer.dump."""
    spans: list[Span] = []
    counters: dict[str, int] = {}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if isinstance(rec, list):
                spans.append(rec)
            elif "counters" in rec:
                counters = rec["counters"]
    return spans, counters


def find_wrappers() -> list[str]:
    """Names of every tracing wrapper still reachable from an lmobf
    module or one of its classes; empty once a tracer is uninstalled."""
    found = []
    for m in ("",) + tuple(f".{name}" for name in LMOBF_MODULES):
        module = importlib.import_module(f"lmobf{m}")
        for attr, value in vars(module).items():
            if hasattr(value, WRAPPER_MARK):
                found.append(f"lmobf{m}.{attr}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                for cattr, cvalue in vars(value).items():
                    if hasattr(cvalue, WRAPPER_MARK):
                        found.append(f"lmobf{m}.{attr}.{cattr}")
    return found


def self_times(spans: list[Span]) -> list[int]:
    """Per span: duration minus the union of its children's intervals,
    clipped to the span, in ns."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def layer_metrics(
    spans: list[Span], counters: dict[str, int], successes: int
) -> dict[str, float]:
    """Per-layer metrics per successful op, from the spans of the timed
    loop (spans whose op is None are left out). The counter metrics of
    the CLI and the tracing overhead are filled in by the caller; here
    they read 0."""
    per = 1 / max(successes, 1)
    selfs = self_times(spans)
    out = {name: 0.0 for name in per_layer_names()}
    for span, self_ns in zip(spans, selfs):
        if span[4] is None:
            continue
        name = span[0]
        module = name.split(".", 1)[0]
        out[f"{name}.calls"] += per
        out[f"{name}.self_ms"] += self_ns * 1e-6 * per
        out[f"{module}.self_ms"] += self_ns * 1e-6 * per
    total = sum(out[f"{m}.self_ms"] for m in TRACED)
    for module in TRACED:
        out[f"{module}.share"] = out[f"{module}.self_ms"] / total if total else 0.0
    out["sim.amps"] = counters.get("sim.amps", 0) * per
    out["sim.bytes_computed"] = 16 * out["sim.amps"]
    out["sim.peak_qubits"] = float(counters.get("sim.peak_qubits", 0))
    signatures = counters.get("tokens.signatures", 0)
    if signatures:
        out["tokens.zero_sig_share"] = counters.get("tokens.zero_signatures", 0) / signatures
    for name in ("tokens.tok_ver", "auth.dec", "obf.oracle_f", "obf.oracle_g"):
        out[f"{name}.rejects"] = counters.get(f"{name}.rejects", 0) * per
    queries = out["obf.oracle_f.calls"] + out["obf.oracle_g.calls"]
    if queries:
        out["obf.prf.calls_per_query"] = out["obf.prf.calls"] / queries
    return out
