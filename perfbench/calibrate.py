"""Reference kernels that measure how fast the machine runs right now.

On a shared virtual machine the same code runs up to 40 % slower from
one minute to the next, because the host's other tenants load the
cores, caches and memory bus. A benchmark that reported raw wall times
would see that drift as a regression or a gain. So the timed loop runs
a fixed reference kernel every `PERIOD_S` seconds, between ops, and
every latency is scaled by how fast the kernel ran around it:

    reported = measured * NOMINAL_S / kernel time

that is, the latency the op would have had on a machine on which the
kernel takes `NOMINAL_S`. The kernels are the benchmark's own code and
never call lmobf, so a change to lmobf moves the reported latency as
much as it moves the measured one.

Each workload gets a kernel shaped like its op: a gate and a Pauli mask
on a fresh state of a few MiB for the simulator-bound workloads, and a
pure-Python loop plus a pipe round trip to a child process on the same
CPU for the wire workload. Set-up is not scaled: it is interpreter
start-up, imports and process spawns, which none of the kernels tracked
better than the spread of a median of several set-ups.
"""

from __future__ import annotations

import hashlib
import os
import statistics
import subprocess
import sys
import time
from typing import Callable, Optional

import numpy as np

# Seconds between two calibrations in the timed loop.
PERIOD_S = 0.2
NOMINAL_S = {"state": 42e-3, "state+python": 37e-3, "python+pipe": 1.2e-3}

# A child that echoes each line back; used for the pipe round trip.
ECHO = "import sys\nfor line in sys.stdin:\n    sys.stdout.write(line)\n    sys.stdout.flush()\n"


def python_kernel(rounds: int = 200) -> None:
    """Interpreter work of the kind the oracle does: small tuples, bytes,
    SHA-256 and dict stores."""
    seen = {}
    acc = b""
    for i in range(rounds):
        bits = tuple((i * j) & 1 for j in range(24))
        acc = hashlib.sha256(acc + bytes(bits)).digest()[:8]
        seen[bits] = acc


class StateKernel:
    """A gate and a Pauli mask on a fresh complex128 state of 2**qubits
    amplitudes, the way a statevector simulator applies them: a 2x2
    matrix on a middle axis through moveaxis and matmul, then a sign
    from the parity of each index and a scatter to the index XOR a
    mask. Every call allocates its arrays afresh, as the ops do, so
    the kernel pays the page faults and cache misses an op pays. Its
    transient memory (about 80 * 2**qubits bytes) stays below that of
    the op it calibrates, so it does not set the peak RSS."""

    GATE = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)

    def __init__(self, qubits: int) -> None:
        self.qubits = qubits

    def __call__(self) -> None:
        n = self.qubits
        psi = np.full((2,) * n, 0.5 + 0.5j, dtype=np.complex128)
        block = np.moveaxis(psi, n // 2, 0).reshape(2, -1)
        state = np.moveaxis((self.GATE @ block).reshape((2,) * n), 0, n // 2).reshape(-1)
        idx = np.arange(2**n, dtype=np.int64)
        par = idx & 0x5A5A5
        for shift in (16, 8, 4, 2, 1):
            par ^= par >> shift
        out = np.empty_like(state)
        out[idx ^ 0x3C3C3 % 2**n] = state * (1.0 - 2.0 * (par & 1))
        float(np.vdot(out, out).real)


class PipeKernel:
    """Round trips of one short line to an echo child pinned to the
    caller's CPUs; the wire workload's client and server share a CPU the
    same way."""

    def __init__(self, trips: int) -> None:
        self.trips = trips
        self.proc = subprocess.Popen(
            [sys.executable, "-c", ECHO], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        if hasattr(os, "sched_setaffinity"):
            os.sched_setaffinity(self.proc.pid, os.sched_getaffinity(0))

    def __call__(self) -> None:
        for _ in range(self.trips):
            self.proc.stdin.write("00ff00ff00ff00ff\n")
            self.proc.stdin.flush()
            if not self.proc.stdout.readline():
                raise RuntimeError("echo child exited")

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()


class Reference:
    """A sum of kernels with a nominal time. `sample()` runs the kernels
    `reps` times and returns the machine's slowness: the median kernel
    time over the nominal one, 1.0 on the nominal machine."""

    def __init__(
        self, name: str, nominal_s: float, kernels: list[Callable[[], None]], reps: int = 3
    ) -> None:
        self.name = name
        self.nominal_s = nominal_s
        self.kernels = kernels
        self.reps = reps
        self.sample()  # warm caches and let the pipe child start

    def sample(self) -> float:
        clock = time.perf_counter
        times = []
        for _ in range(self.reps):
            t0 = clock()
            for kernel in self.kernels:
                kernel()
            times.append(clock() - t0)
        return statistics.median(times) / self.nominal_s

    def close(self) -> None:
        for kernel in self.kernels:
            close: Optional[Callable[[], None]] = getattr(kernel, "close", None)
            if close is not None:
                close()


# Nominal kernel times: the medians of the kernels in the timed loops of
# the three workloads on a 2-vCPU Xeon VM (Python 3.11, numpy 2.4), so
# that on that machine a reported latency reads about as the measured one.


def reference_for(kind: str) -> Reference:
    """The reference of a workload's ops: "state" (a 2**19-amplitude
    StateKernel), "state+python" (a 2**18-amplitude StateKernel and the
    interpreter, in about the 2:1 ratio of a logical evaluation) or
    "python+pipe"."""
    if kind == "state":
        return Reference(kind, NOMINAL_S[kind], [StateKernel(19)], reps=1)
    if kind == "state+python":
        kernels = [StateKernel(18), lambda: python_kernel(2000)]
        return Reference(kind, NOMINAL_S[kind], kernels, reps=1)
    if kind == "python+pipe":
        return Reference(kind, NOMINAL_S[kind], [python_kernel, PipeKernel(4)])
    raise ValueError(f"unknown reference {kind!r}")
