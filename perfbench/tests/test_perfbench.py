"""Self-tests of the benchmark code.

    python3 -m pytest perfbench/tests -q

They run a few ops of the real workloads, so they take some seconds.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import calibrate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_self_time_on_synthetic_tree():
    # root [0, 100] has children a [10, 40] and b [50, 90]; a has a child
    # c [20, 30]; d [95, 120] overruns root and is clipped to [95, 100].
    spans = [
        ["obf.qeval", 0, 100, -1, 0],
        ["sim.measure", 10, 40, 0, 0],
        ["sim.apply_gate", 20, 30, 1, 0],
        ["gf2.dual", 50, 90, 0, 0],
        ["gf2.rref", 95, 120, 0, 0],
        ["obf.prf", 200, 210, -1, None],
    ]
    assert tracing.self_times(spans) == [100 - 30 - 40 - 5, 20, 10, 40, 25, 10]
    metrics = tracing.layer_metrics(spans, {}, successes=2)
    assert metrics["obf.qeval.self_ms"] == pytest.approx(25e-6 / 2)
    assert metrics["sim.self_ms"] == pytest.approx(30e-6 / 2)
    assert metrics["gf2.self_ms"] == pytest.approx(65e-6 / 2)
    # The span outside the timed loop (op None) is not counted.
    assert metrics["obf.prf.calls"] == 0
    assert metrics["obf.self_ms"] == pytest.approx(25e-6 / 2)
    assert sum(metrics[f"{m}.share"] for m in tracing.TRACED) == pytest.approx(1.0)


def test_planted_wrong_output_fails_the_gate(monkeypatch, capsys):
    generate = workloads.LogicalTchain.generate

    def planted(self):
        generate(self)
        self.supports = {k: frozenset() for k in self.supports}

    monkeypatch.setattr(workloads.LogicalTchain, "generate", planted)
    monkeypatch.setattr(run, "SETUPS", 1)
    code = run.main(["--workload", "logical-tchain", "--seed", "3", "--ops", "6"])
    result = last_json(capsys)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 6


def test_planted_wrong_reply_fails_the_gate(monkeypatch, capsys):
    generate = workloads.OracleServe.generate

    def planted(self):
        generate(self)
        for ev in self.evaluations:
            ev["replies"] = ["BOT"] * len(ev["replies"])

    monkeypatch.setattr(workloads.OracleServe, "generate", planted)
    monkeypatch.setattr(workloads.OracleServe, "pool_evaluations", 8)
    monkeypatch.setattr(run, "SETUPS", 1)
    code = run.main(["--workload", "oracle-serve", "--seed", "3", "--ops", "40"])
    result = last_json(capsys)
    assert code == 1
    assert result["correct"] is False
    assert 0 < result["failed"] < result["attempted"]


def test_wrong_reply_to_a_tampered_line_fails_the_gate(monkeypatch, capsys):
    check = workloads.ReplyCheck.__call__

    def planted(self, layer, transcript, w_pair, line, reply, honest):
        return honest and check(self, layer, transcript, w_pair, line, reply, honest)

    monkeypatch.setattr(workloads.ReplyCheck, "__call__", planted)
    monkeypatch.setattr(workloads.OracleServe, "pool_evaluations", 8)
    monkeypatch.setattr(run, "SETUPS", 1)
    code = run.main(["--workload", "oracle-serve", "--seed", "3", "--ops", "40"])
    result = last_json(capsys)
    assert code == 1
    assert 0 < result["failed"] < result["attempted"]


def test_scaling_by_the_calibrations_around_each_op():
    # Op 0 ran between calibrations 0 and 1 (mean slowness 1.5), ops 1
    # and 2 between calibrations 1 and 2 (mean 2.5).
    phase = run.Phase(
        outcomes=["ok", "rejected", "ok"],
        latencies=[0.3, 0.5, 0.6],
        cal_index=[0, 1, 1],
        slowness=[1.0, 2.0, 3.0],
    )
    assert phase.scaled() == pytest.approx([0.2, 0.2, 0.24])
    assert phase.ok_ms() == pytest.approx([200.0, 240.0])
    assert phase.ok_ms(scaled=False) == pytest.approx([300.0, 600.0])
    assert phase.goodput() == pytest.approx(2 / 0.64)


def test_wrappers_cover_imported_names_and_are_removed(capsys):
    sim = importlib.import_module("lmobf.sim")
    obf = importlib.import_module("lmobf.obf")
    gf2 = importlib.import_module("lmobf.gf2")
    originals = (sim.measure, obf.measure, obf.qeval, gf2.Subspace.__dict__["contains"])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert sim.measure is obf.measure is not originals[0]
        assert "lmobf.obf.measure" in tracing.find_wrappers()
        assert "lmobf.gf2.Subspace.contains" in tracing.find_wrappers()
    finally:
        tracer.uninstall()
    assert tracing.find_wrappers() == []

    code = run.main(["--workload", "logical-tchain", "--seed", "2", "--trace", "1", "--ops", "2"])
    result = last_json(capsys)
    assert code == 0
    assert tracing.find_wrappers() == []
    assert (sim.measure, obf.measure, obf.qeval, gf2.Subspace.__dict__["contains"]) == originals
    assert set(result["metrics"]) == set(tracing.per_layer_names())
    assert result["metrics"]["sim.measure.calls"]["value"] > 0


def test_same_seed_and_op_count_give_same_outcomes(tmp_path):
    outcomes = []
    for _ in range(2):
        wl = workloads.LogicalTchain(11, tmp_path)
        wl.setup()
        wl.generate()
        ref = calibrate.reference_for(wl.reference)
        outcomes.append(run.timed_loop(wl, ref, 40).outcomes)
    assert outcomes[0] == outcomes[1]
    assert workloads.WRONG not in outcomes[0]


def test_same_seed_and_seconds_give_same_counts(monkeypatch, capsys):
    # The op count follows from --seconds, not from the clock, so two
    # runs agree on attempted and failed ops however fast they ran.
    monkeypatch.setattr(run, "SETUPS", 1)
    results = []
    for _ in range(2):
        assert run.main(["--workload", "logical-tchain", "--seed", "5", "--seconds", "1"]) == 0
        results.append(last_json(capsys))
    counts = [(r["attempted"], r["failed"]) for r in results]
    assert counts[0] == counts[1]
    assert counts[0][0] == workloads.LogicalTchain.ops_for(1)


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.per_layer_names()
