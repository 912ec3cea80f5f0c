"""The benchmark's tracer (perfbench/tracing.py) wraps lmobf functions
by name; these tests keep every name it lists defined and the CNOT
layer's names on the evaluation path."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from lmobf.gf2 import BitVector
from lmobf.lm import compile_circuit, parse_circuit
from lmobf.obf import ObfParams, qeval, qobf

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(tracing):
    """Each name is found where Tracer.install looks it up: in the
    __dict__ of its lmobf module, or of the class it names."""
    for module, names in tracing.TRACED.items():
        home = importlib.import_module(f"lmobf.{module}")
        for qual in names:
            cls, _, attr = qual.rpartition(".")
            owner = getattr(home, cls) if cls else home
            assert callable(vars(owner).get(attr)), f"{module}.{qual}"


@pytest.mark.parametrize(
    "mode, name", [("logical", "lm.apply_cnot_layer"), ("physical", "auth.lin_eval")]
)
def test_cnot_layers_run_through_the_traced_names(tracing, mode, name):
    program = compile_circuit(parse_circuit("qubits 2 inputs 2 outputs 1,2\nCNOT 1 2\nT 2\n"))
    rng = np.random.default_rng(1)
    obf = qobf(ObfParams(security=1), program, rng)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        qeval(BitVector.from_string("10"), obf, rng, mode=mode)
    finally:
        tracer.uninstall()
    assert tracing.find_wrappers() == []
    assert any(span[0] == name for span in tracer.spans)
