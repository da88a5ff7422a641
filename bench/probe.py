"""Scaling probe: tsvlab's layers at the reference sizes of the project roadmap.

Runs in every traced run, after the workload passes. d=1024 is not run:
with one dense projector per eigenspace a non-degenerate observable would
hold 1024 matrices of 1024 x 1024 complex doubles, about 17 GB.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc
from pathlib import Path

import numpy as np

import tracing
import workloads as wl
from reference import Mismatch

PROBE_METRICS = (
    "probe.decompose_ms.d64",
    "probe.decompose_ms.d128",
    "probe.decompose_ms.d256",
    "probe.abl_ms.d256",
    "probe.abl_at_time_ms.d256",
    "probe.mc_s.d64_1e6",
    "probe.mc_peak_mb.d64_1e6",
    "probe.pointer_csv_s.g1000",
)
NOT_RUN = {"probe.decompose_ms.d1024": "dense projectors would need ~17 GB"}


def _median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def _observable(rng, d):
    return wl.hermitian(wl.haar_unitary(rng, d), wl.spread_levels(rng, d))


def run_probe(tl, seed: int, workdir: Path) -> dict:
    rng = np.random.default_rng([seed, 2])
    out = {}
    matrices = {d: _observable(rng, d) for d in (64, 128, 256)}
    for d, repeats in ((64, 5), (128, 3), (256, 1)):
        op = tl.Operator(matrices[d])
        out[f"probe.decompose_ms.d{d}"] = _median_ms(lambda: tl.spectral_decompose(op), repeats)

    obs = tl.spectral_decompose(tl.Operator(matrices[256]))
    pre, post = tl.Ket(wl.random_state(rng, 256)), tl.Bra(wl.random_state(rng, 256))
    tsv = tl.TwoStateVector(pre, post)
    out["probe.abl_ms.d256"] = _median_ms(lambda: tl.abl_probabilities(tsv, obs), 5)
    schedule = tl.HamiltonianSchedule(tuple(
        (0.1, tl.Operator(wl.random_hamiltonian(rng, 256))) for _ in range(10)))
    out["probe.abl_at_time_ms.d256"] = _median_ms(
        lambda: tl.abl_at_time(pre, post, schedule, 0.55, obs), 3)
    del obs, tsv, schedule

    levels = wl.hermitian(wl.haar_unitary(rng, 64), wl.four_levels(64))
    obs64 = tl.spectral_decompose(tl.Operator(levels))
    pre64, post64 = tl.Ket(wl.random_state(rng, 64)), tl.Bra(wl.random_state(rng, 64))

    def mc():
        return tl.monte_carlo_abl(pre64, post64, obs64, 1_000_000, seed=seed)

    out["probe.mc_s.d64_1e6"] = _median_ms(mc, 1) / 1e3
    tracemalloc.start()
    try:
        mc()
        out["probe.mc_peak_mb.d64_1e6"] = tracemalloc.get_traced_memory()[1] / tracing.MB
    finally:
        tracemalloc.stop()

    # strong-regime pointer at g=1000: 640,641 grid rows written as CSV
    spec = wl.write_problem(wl.ProblemSpec(
        workdir / "probe-pointer.json",
        {"P": wl.hermitian(wl.haar_unitary(rng, 4), [0.0, 0.0, 1.0, 1.0])},
        wl.random_state(rng, 4), wl.random_state(rng, 4)))
    argv = ["pointer", "--file", str(spec.path), "--observable", "P", "--g", "1000",
            "--sigma", "1", "--out", str(workdir / "probe-density.csv")]
    tracer = tracing.Tracer()
    patch = tracing.install(tracer, tl)
    try:
        result = wl.call_cli(tl, argv)
    finally:
        patch.undo()
    if result.code != 0:
        raise Mismatch(f"probe pointer exited {result.code}")
    # the cli layer's own time in that call: argument parsing, printing and the CSV loop
    out["probe.pointer_csv_s.g1000"] = sum(
        v for (layer, _), v in tracing.self_times(tracer.take()).items() if layer == "cli")
    return out
