"""Benchmark of lmobf: end-to-end metrics per workload, and a traced run
for per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

NAME is physical-default, logical-tchain or oracle-serve (see
perfbench/README.md). Run it from the root of a checkout: lmobf is
imported from ./src. With --trace 0 the run times a fixed number of
ops, the number that takes about S seconds on a 2-vCPU Xeon VM (see
Workload.ops_for), with no tracing and reports op_ms.p50, op_ms.p90,
goodput_ops_per_s, setup_s and peak_rss_mb. The op count depends on S
alone, never on the clock, so the seed and S fix every op's outcome. The op latencies behind the first three are
scaled by a reference kernel timed between the ops (calibrate.py), so
that the host's speed drift cancels; the record also carries them as
measured. fail_rate is printed with its counts and is
carried by the `attempted` and `failed` fields of the result. With
--trace 1 the run times the ops of S/2 seconds untraced, then as many
with every traced function wrapped, and reports the per-layer metrics
and the tracing overhead. `--ops N` runs N timed ops (per loop)
instead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 1 when an accepted
result was wrong, and 2 when lmobf's sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
NAMES = ("physical-default", "logical-tchain", "oracle-serve")
SETUPS = 11
# Units of the end-to-end metrics, in report order.
END_TO_END = {
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "goodput_ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default method); q=50 is
    the median."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


@dataclass
class Phase:
    """Outcomes and latencies (s) of one timed loop, in op order, with the
    machine's slowness from the calibrations around the ops (see
    calibrate.py): op k ran between calibrations cal_index[k] and
    cal_index[k] + 1."""

    outcomes: list[str] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    cal_index: list[int] = field(default_factory=list)
    slowness: list[float] = field(default_factory=list)
    wall_s: float = 0.0

    def count(self, outcome: str) -> int:
        return self.outcomes.count(outcome)

    def scaled(self) -> list[float]:
        """Each latency divided by the mean slowness of the calibrations
        before and after it."""
        s = self.slowness
        return [t / ((s[k] + s[k + 1]) / 2) for t, k in zip(self.latencies, self.cal_index)]

    def ok_ms(self, scaled: bool = True) -> list[float]:
        times = self.scaled() if scaled else self.latencies
        return [1e3 * t for o, t in zip(self.outcomes, times) if o == "ok"]

    def goodput(self, scaled: bool = True) -> float:
        """Successful ops per second spent in ops: the loop's wall time
        less the calibrations and the untimed client-side preparation."""
        busy = sum(self.scaled() if scaled else self.latencies)
        return self.count("ok") / busy if busy else 0.0


def timed_loop(wl, ref, ops: int, tracer=None) -> Phase:
    """Closed loop: run op 0, 1, ..., ops - 1. The reference kernel runs
    before the first op, every calibrate.PERIOD_S seconds between ops,
    and after the last. With a tracer, op i runs with tracer.op = i."""
    phase = Phase()
    clock = time.perf_counter
    start = clock()
    next_cal = start
    for i in range(ops):
        if clock() >= next_cal:
            phase.slowness.append(ref.sample())
            next_cal = clock() + calibrate.PERIOD_S
        phase.cal_index.append(len(phase.slowness) - 1)
        prepared = wl.prepare(i)
        if tracer is not None:
            tracer.op = i
        t0 = clock()
        outcome = wl.run_op(i, prepared)
        t1 = clock()
        if tracer is not None:
            tracer.op = None
        phase.outcomes.append(outcome)
        phase.latencies.append(t1 - t0)
    phase.slowness.append(ref.sample())
    phase.wall_s = clock() - start
    wl.check(phase.outcomes)
    return phase


def probe_setup(name: str, seed: int) -> float:
    """Wall time from starting a fresh process until it has set up the
    workload and could run its first op."""
    argv = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", name,
            "--seed", str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        proc.wait(timeout=150)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe of {name} failed with {proc.returncode}")
    return elapsed


def run_probe(args: argparse.Namespace) -> int:
    import workloads

    workdir = OUT / f"probe-{args.workload}-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    try:
        wl.setup()
        print("ready", flush=True)
    finally:
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def machine_record() -> dict:
    import lmobf
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            git_sha = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "lmobf").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "lmobf_version": lmobf.__version__,
        "lmobf_git_sha": git_sha,
        "lmobf_src_sha256": digest.hexdigest(),
    }


def op_counts(phases: list[Phase]) -> dict[str, int]:
    counts = {o: sum(p.count(o) for p in phases) for o in ("ok", "rejected", "wrong")}
    counts["attempted"] = sum(len(p.outcomes) for p in phases)
    counts["failed"] = counts["rejected"] + counts["wrong"]
    return counts


def end_to_end(phase: Phase, setups: list[float], rss_kb: int, scaled: bool = True) -> dict[str, float]:
    ok_ms = phase.ok_ms(scaled)
    return {
        "op_ms.p50": percentile(ok_ms, 50),
        "op_ms.p90": percentile(ok_ms, 90),
        "goodput_ops_per_s": phase.goodput(scaled),
        "setup_s": percentile(setups, 50),
        "peak_rss_mb": rss_kb / 1024,
    }


def slowness_summary(phases: list[Phase]) -> dict[str, float]:
    s = [v for p in phases for v in p.slowness]
    return {"samples": len(s), "p10": percentile(s, 10), "p50": percentile(s, 50),
            "p90": percentile(s, 90)}


def run_workload(args: argparse.Namespace) -> int:
    import tracing
    import workloads

    name = args.workload
    OUT.mkdir(exist_ok=True)
    setups = [] if args.trace else [probe_setup(name, args.seed) for _ in range(SETUPS)]
    workdir = OUT / f"run-{name}-{os.getpid()}"
    wl = workloads.WORKLOADS[name](args.seed, workdir)
    ref = None
    try:
        wl.setup()
        wl.generate()
        wrong_warmup = wl.warm_up()
        ref = calibrate.reference_for(wl.reference)
        ops = args.ops if args.ops is not None else wl.ops_for(
            args.seconds / 2 if args.trace else args.seconds)
        if args.trace:
            untraced = timed_loop(wl, ref, ops)
            tracer = tracing.Tracer()
            spans_path = OUT / f"spans-{name}.jsonl"
            wl.start_trace(tracer, spans_path)
            try:
                traced = timed_loop(wl, ref, ops, tracer)
            finally:
                spans, counters, extra = wl.stop_trace(tracer, traced.latencies)
            phases = [untraced, traced]
            values = tracing.layer_metrics(spans, counters, traced.count("ok"))
            values.update(extra)
            p50_untraced = percentile(untraced.ok_ms(), 50)
            p50_traced = percentile(traced.ok_ms(), 50)
            values["trace.overhead_ms"] = p50_traced - p50_untraced
            units = tracing.per_layer_names()
            extra_record = {
                "spans": len(spans),
                "spans_file": str(spans_path.relative_to(ROOT)),
                "op_ms.p50_untraced": p50_untraced,
                "op_ms.p50_traced": p50_traced,
            }
        else:
            phase = timed_loop(wl, ref, ops)
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + wl.child_peak_rss_kb()
            phases = [phase]
            values = end_to_end(phase, setups, rss_kb)
            units = END_TO_END
            measured = end_to_end(phase, setups, rss_kb, scaled=False)
            extra_record = {
                "measured": {m: measured[m] for m in ("op_ms.p50", "op_ms.p90", "goodput_ops_per_s")},
                "setup_samples_s": setups,
            }
        extra_record["reference"] = ref.name
        extra_record["slowness"] = slowness_summary(phases)
        extra_record["loop_wall_s"] = [p.wall_s for p in phases]
        extra_record.update(wl.record())
    finally:
        if ref is not None:
            ref.close()
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)
    counts = op_counts(phases)
    wrong_untimed = wl.wrong_in_generation + wrong_warmup
    wrong = wrong_untimed + counts["wrong"]
    correct = wrong == 0
    fail_rate = counts["failed"] / counts["attempted"]

    print(f"workload {name} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    for metric, unit in units.items():
        note = ""
        if metric.startswith("op_ms."):
            note = f"  (n={len(phases[-1].ok_ms())} successful ops)"
        elif metric == "setup_s":
            note = f"  (median of {len(setups)} set-ups)"
        print(f"{metric} {values[metric]:.6g} {unit}{note}")
    print(f"fail_rate {fail_rate:.6g}  ({counts['failed']} failed of {counts['attempted']} "
          f"attempted: {counts['rejected']} rejected, {counts['wrong']} wrong)")
    record = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_record(),
        "ops": counts,
        "fail_rate": fail_rate,
        "wrong_outside_timed_ops": wrong_untimed,
        **extra_record,
    }
    print(json.dumps(record))
    result = {
        "correct": correct,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, then one table of all of them."""
    results = {}
    status = 0
    for name in NAMES:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.ops is not None:
            argv += ["--ops", str(args.ops)]
        done = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=600)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0:
            status = 1
        if lines and lines[-1].startswith("{"):
            results[name] = json.loads(lines[-1])
    print("== summary")
    metrics = {}
    for name, res in results.items():
        for metric, m in res["metrics"].items():
            print(f"{name} {metric} {m['value']:.6g} {m['unit']}")
            metrics[f"{name}.{metric}"] = m
        print(f"{name} fail_rate {res['failed'] / res['attempted']:.6g} "
              f"({res['failed']}/{res['attempted']})")
    summary = {
        "correct": len(results) == len(NAMES) and all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return status if summary["correct"] else 1


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="lmobf benchmark")
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None,
                        help="run this many timed ops instead of the count for --seconds")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--serve-pool", type=Path, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--obf-dir", type=Path, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--pool-evaluations", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "lmobf" / "__init__.py").is_file():
        print(f"error: lmobf sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return run_probe(args)
    if args.serve_pool is not None:
        import workloads

        workloads.make_serve_pool(args.seed, args.obf_dir, args.serve_pool, args.pool_evaluations)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
