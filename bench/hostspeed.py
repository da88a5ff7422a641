"""Host-speed calibration: a fixed kernel timed between the benchmark's ops.

The benchmark runs on shared virtual machines whose speed drifts by up to
~1.6x over minutes, so runs of the same code minutes apart differ by more
than any useful regression bound. The kernel does a fixed amount of the
kinds of work the workloads do: JSON parsing, a Python loop building
complex numbers, per-row float formatting, small eigendecompositions,
complex 96x96 matrix products (multi-threaded BLAS) and elementwise numpy
arithmetic on a 2e5-element array. It uses no tsvlab code, so a change to
tsvlab does not change it. A timed run measures the
kernel after every ~0.25 s of op time and reports its time metrics scaled
by ``REFERENCE_S / median(kernel time)``: the values the run would show on a
host where the kernel takes ``REFERENCE_S``. The unscaled values and the
factor are printed with every result.
"""

from __future__ import annotations

import gc
import json
import statistics
import time

import numpy as np

#: kernel time that defines the reference host (a typical median on a 2-vCPU Xeon VM)
REFERENCE_S = 0.015
#: op time between two kernel samples
SAMPLE_EVERY_S = 0.25


class HostKernel:
    def __init__(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(3000, 2))
        self.text = json.dumps(values.tolist())
        self.rows = values.tolist()
        self.matrices = [m + m.T for m in rng.normal(size=(80, 16, 16))]
        self.dense = rng.normal(size=(96, 96)) + 1j * rng.normal(size=(96, 96))
        self.grid = np.linspace(-10.0, 10.0, 200_000)
        self.samples = []
        self._since = 0.0

    def _work(self) -> float:
        numbers = [complex(re, im) for re, im in json.loads(self.text)]
        text = "".join(f"{a:.17g},{b:.17g}\n" for a, b in self.rows)
        for m in self.matrices:
            np.linalg.eigh(m)
        for _ in range(10):
            product = self.dense.conj().T @ self.dense
        density = np.exp(-((self.grid - 0.5) ** 2) / 4.0)
        return len(numbers) + len(text) + float(density.sum() + product[0, 0].real)

    def measure(self) -> float:
        """Time one kernel run, with the cyclic garbage collector paused."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            self._work()
            elapsed = time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()
        self.samples.append(elapsed)
        return elapsed

    def after_op(self, op_seconds: float) -> None:
        """Count op time; measure the kernel once enough has passed."""
        self._since += op_seconds
        if self._since >= SAMPLE_EVERY_S:
            self._since = 0.0
            self.measure()

    def factor(self) -> float:
        """Multiply a measured time by this to express it on the reference host."""
        return REFERENCE_S / statistics.median(self.samples)
