"""Tests of the benchmark itself: arithmetic, tracing, reference checks, metric names.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import re
import sys
import types
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

tl = run.import_tsvlab()


# ---------------------------------------------------------------------------
# arithmetic


@pytest.mark.parametrize("q", [0, 10, 50, 90, 99, 100])
@pytest.mark.parametrize("n", [1, 2, 7, 100, 101])
def test_percentile_matches_numpy_linear(q, n):
    values = list(np.random.default_rng(n).exponential(size=n))
    assert run.percentile(values, q) == pytest.approx(float(np.percentile(values, q)), rel=1e-12)


def test_percentile_small_cases():
    assert run.percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert run.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert run.percentile(list(range(11)), 90) == 9.0
    with pytest.raises(ValueError):
        run.percentile([], 50)


def _span(sid, parent, layer, name, start, end, raised=False):
    return tracing.Span(sid, parent, layer, name, start, end, raised)


# cli.main [0, 10] -> problemfile.load [1, 4], tsv.abl [5, 9] -> qcore.Operator [6, 7]
# plus a second top-level span tsv.weak [11, 12] that raised inside its qcore child
TREE = [
    _span(1, 0, "problemfile", "load", 1.0, 4.0),
    _span(3, 2, "qcore", "Operator", 6.0, 7.0),
    _span(2, 0, "tsv", "abl_probabilities", 5.0, 9.0),
    _span(0, None, "cli", "main", 0.0, 10.0),
    _span(5, 4, "qcore", "matrix_element", 11.25, 11.5, raised=True),
    _span(4, None, "tsv", "weak_value", 11.0, 12.0, raised=True),
]


def test_self_times_subtract_direct_children_only():
    got = tracing.self_times(TREE)
    assert got[("cli", "main")] == pytest.approx(10 - 3 - 4)
    assert got[("problemfile", "load")] == pytest.approx(3)
    assert got[("tsv", "abl_probabilities")] == pytest.approx(4 - 1)
    assert got[("qcore", "Operator")] == pytest.approx(1)
    assert got[("tsv", "weak_value")] == pytest.approx(0.75)
    assert sum(got.values()) == pytest.approx(tracing.top_level_time(TREE)) == 11.0


def test_errors_count_where_they_leave_a_layer():
    assert tracing.layer_errors(TREE) == Counter({"qcore": 1, "tsv": 1})
    nested = TREE + [_span(6, 5, "qcore", "overlap", 11.3, 11.4, raised=True)]
    assert tracing.layer_errors(nested)["qcore"] == 1


def test_layer_stats_account_for_op_time():
    stats = tracing.LayerStats()
    stats.add_op(TREE, op_seconds=12.5)
    metrics = stats.metrics(Counter())
    assert metrics["bench.self_s"] == pytest.approx(1.5)
    assert metrics["cli.self_s"] == pytest.approx(3.0)
    assert metrics["problemfile.load_s"] == pytest.approx(3.0)
    assert metrics["qcore.operator_new_s"] == pytest.approx(1.0)
    assert metrics["qcore.self_s"] == pytest.approx(1.25)
    assert metrics["tsv.abl_s"] == pytest.approx(3.0)
    assert metrics["trace.accounted_frac"] == pytest.approx(1.0)


def test_host_factor_scales_to_the_reference_kernel_time():
    kernel = hostspeed.HostKernel()
    kernel.samples = [0.010, 0.030, 0.020]
    assert kernel.factor() == pytest.approx(hostspeed.REFERENCE_S / 0.020)
    kernel.samples = []
    for _ in range(6):
        kernel.after_op(hostspeed.SAMPLE_EVERY_S / 2)
    assert len(kernel.samples) == 3
    assert all(t > 0 for t in kernel.samples)


def test_units():
    assert run.unit_of("cli.self_s") == "s"
    assert run.unit_of("probe.decompose_ms.d64") == "ms"
    assert run.unit_of("probe.mc_s.d64_1e6") == "s"
    assert run.unit_of("probe.mc_peak_mb.d64_1e6") == "MB"
    assert run.unit_of("problemfile.bytes_in") == "B"
    assert run.unit_of("measure.mc_accept_ratio") == "ratio"
    assert run.unit_of("qcore.eigenspaces") == "count"


def test_benchmark_json_lists_every_emitted_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    assert all(m["unit"] == run.unit_of(m["name"]) for m in spec["per_layer"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


# ---------------------------------------------------------------------------
# tracing


def test_install_rebinds_every_import_and_undo_restores():
    def bindings():
        return (tl.cli.main, tl.problemfile.load, tl.spectral_decompose,
                tl.tsv.spectral_decompose, tl.problemfile.spectral_decompose,
                tl.Operator.__post_init__)

    original = bindings()
    patch = tracing.install(tracing.Tracer(), tl)
    try:
        wrapped = bindings()
    finally:
        patch.undo()
    assert all(w is not o for w, o in zip(wrapped, original))
    assert len({id(f) for f in wrapped[2:5]}) == 1  # one wrapper, rebound in every importer
    assert bindings() == original


def test_traced_cli_call_records_cross_layer_children(tmp_path):
    spec = wl.selection_problem(np.random.default_rng(0), 4, tmp_path / "p.json")
    tracer = tracing.Tracer()
    patch = tracing.install(tracer, tl)
    try:
        result = wl.call_cli(tl, ["abl", "--file", str(spec.path), "--observable", "deg4",
                                  "--time", "0.1"])
    finally:
        patch.undo()
    assert result.code == 0
    spans = tracer.take()
    by_id = {s.id: s for s in spans}
    edges = {(by_id[s.parent].layer, s.layer) for s in spans if s.parent is not None}
    assert {("cli", "problemfile"), ("problemfile", "qcore"), ("cli", "tsv"), ("tsv", "qcore")} <= edges
    assert [s.name for s in spans if s.parent is None] == ["main"]
    assert tracer.counts["problemfile.bytes_in"] == spec.path.stat().st_size
    assert tracer.counts["qcore.evolve_segments"] >= 2


# ---------------------------------------------------------------------------
# reference checks: genuine answers pass, perturbed answers are flagged

FLOAT = re.compile(r"-?\d+\.\d*(?:e[-+]?\d+)?|-?\d+e[-+]?\d+")


def perturb_text(text: str, rel: float = 1e-5) -> str:
    """Scale every decimal number in ``text`` by ``1 + rel``."""
    return FLOAT.sub(lambda m: repr(float(m.group()) * (1.0 + rel)), text)


def first_period(name, tmp_path):
    workload = wl.WORKLOADS[name](tl, 3, tmp_path)
    ops = workload.ops()
    return [next(ops) for _ in range(workload.period)]


@pytest.mark.parametrize("name", ["cli-files", "simulate"])
def test_cli_checks_flag_perturbed_output(name, tmp_path):
    for op in first_period(name, tmp_path):
        result = op.run()
        op.check(result)
        with pytest.raises(ref.Mismatch):
            op.check(wl.CliResult(result.code, perturb_text(result.stdout)))
        with pytest.raises(ref.Mismatch):
            op.check(wl.CliResult(1, result.stdout))


def test_pointer_check_flags_perturbed_csv(tmp_path):
    ops = [op for op in first_period("simulate", tmp_path) if op.csv is not None]
    assert len(ops) == 6
    for op in ops:
        result = op.run()
        op.check(result)
        positions, density = ref.read_csv(op.csv)
        rows = zip(positions.tolist(), density.tolist())
        lines = ["position,density"] + [f"{q!r},{d * (1 + 1e-6)!r}" for q, d in rows]
        op.csv.write_text("\n".join(lines) + "\n")
        with pytest.raises(ref.Mismatch, match="integrates"):
            op.check(result)


def _perturbed(result, rel=1e-6):
    scale = 1.0 + rel
    if isinstance(result, (float, complex)):
        return result * scale
    if hasattr(result, "entries"):
        return types.SimpleNamespace(entries=[(o, p * scale) for o, p in result.entries])
    if hasattr(result, "all_certain"):  # product-rule report
        a = types.SimpleNamespace(**{**vars(result.a), "probability": result.a.probability * scale})
        return types.SimpleNamespace(**{**vars(result), "a": a})
    if hasattr(result, "passed"):  # scenario report
        return types.SimpleNamespace(passed=False, results=result.results)
    return types.SimpleNamespace(**{**vars(result), "probability": result.probability * scale})


def test_library_checks_flag_perturbed_results(tmp_path):
    seen = set()
    workload = wl.WORKLOADS["small-systems"](tl, 3, tmp_path)
    for op in [op for op, _ in zip(workload.ops(), range(workload.period))]:
        kind = op.label.split()[0] if not op.label.startswith("scenario") else op.label
        result = op.run()
        op.check(result)
        if kind in seen:
            continue
        seen.add(kind)
        with pytest.raises(ref.Mismatch):
            op.check(_perturbed(result))
    assert len(seen) == len(wl.SmallSystems.QUERIES) + len(wl.SmallSystems.SCENARIOS)


def test_certain_instances_are_certain(tmp_path):
    workload = wl.WORKLOADS["small-systems"](tl, 5, tmp_path)
    reports = [workload._q_reality(tl, inst)[0]() for inst in workload.pool[(4, "reality")]]
    assert [r.certain for r in reports] == [True, False, True, False]
    products = [workload._q_product(tl, inst)[0]() for inst in workload.pool[(4, "product")]]
    assert [p.product_rule_holds for p in products] == [True, None, True, None]


def test_reference_abl_at_time_depends_on_time():
    rng = np.random.default_rng(1)
    d = 5
    pre, post = wl.random_state(rng, d), wl.random_state(rng, d)
    segments = [(0.5, wl.random_hamiltonian(rng, d)), (0.7, wl.random_hamiltonian(rng, d))]
    matrix = wl.hermitian(wl.haar_unitary(rng, d), wl.spread_levels(rng, d))
    schedule = tl.HamiltonianSchedule(tuple((dur, tl.Operator(h)) for dur, h in segments))
    obs = tl.spectral_decompose(tl.Operator(matrix))
    for t in (0.0, 0.3, 0.5, 0.9, 1.2):
        got = tl.abl_at_time(tl.Ket(pre), tl.Bra(post), schedule, t, obs).entries
        ref.compare_distribution(got, ref.abl_at_time(pre, post, segments, t, matrix), f"t={t}")
    with pytest.raises(ref.Mismatch):
        ref.compare_distribution(got, ref.abl_at_time(pre, post, segments, 1.1, matrix), "t")
