import ast
import dataclasses
import inspect
import types
from pathlib import Path

import numpy as np
import pytest

import tsvlab
import tsvlab.cli
import tsvlab.measure
import tsvlab.problemfile
import tsvlab.scenarios
from tsvlab import (
    Bra,
    Ket,
    Operator,
    TwoStateVector,
    abl_probabilities_generalized,
    element_of_reality,
    get_scenario,
    product_rule_report,
    run_scenario,
    spectral_decompose,
    weak_value,
)
from tsvlab.scenarios import SCENARIOS, scenario_spin_box


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_passes(name):
    report = run_scenario(get_scenario(name))
    failed = [r for r in report.results if not r.passed]
    assert report.passed, f"failed checks: {[(r.description, r.actual) for r in failed]}"


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_reports_are_reproducible(name):
    first = run_scenario(get_scenario(name))
    second = run_scenario(get_scenario(name))
    assert first == second


def test_every_check_carries_provenance():
    allowed = {"exact-property", "cross-check", "identity", "statistical"}
    for name in SCENARIOS:
        report = run_scenario(get_scenario(name))
        for result in report.results:
            assert result.provenance in allowed
            assert result.description
            assert result.expected
            assert result.actual


def test_spin_box_empty_direction_is_irrelevant():
    # the spin-box pair lives on 4 levels, one of which neither selection touches;
    # on the 3 levels alone every quantity its five checks print is the same
    scenario = scenario_spin_box()
    padded = scenario.selection
    narrow = TwoStateVector(Ket(padded.forward.amplitudes[:3]), Bra(padded.backward.amplitudes[:3]))
    observables = {
        name: spectral_decompose(Operator(obs.op.matrix[:3, :3]))
        for name, obs in scenario.observables.items()
    }
    for name in ("P_A_up", "P_A_down"):
        assert (element_of_reality(narrow, observables[name])
                == element_of_reality(padded, scenario.observables[name]))
    assert (product_rule_report(narrow, observables["P_A_up"], observables["P_A_down"])
            == product_rule_report(padded, scenario.observables["P_A_up"], scenario.observables["P_A_down"]))
    assert weak_value(narrow, observables["P_B_up"].op) == weak_value(padded, scenario.observables["P_B_up"].op)
    assert (sum(weak_value(narrow, p) for p in observables["P_B_up"].projectors)
            == sum(weak_value(padded, p) for p in scenario.observables["P_B_up"].projectors))


def test_mean_king_value_table():
    scenario = get_scenario("mean-king")
    table = scenario.details["value_table"]
    assert sorted(table) == [0, 1, 2, 3]
    rows = set()
    for values in table.values():
        assert len(values) == 3
        assert all(v in (-1, 1) for v in values)
        rows.add(values)
    assert len(rows) == 4  # all four outcomes answer differently

    # every component is dispersion-free for the reduced selection of outcome 0
    for obs in scenario.observables.values():
        dist = abl_probabilities_generalized(scenario.selection, obs)
        assert max(p for _, p in dist.entries) >= 1.0 - 1e-10


def test_mean_king_checks_measure_the_values_they_print(monkeypatch):
    # claim the sign triples in reverse order: the basis is still orthonormal,
    # but each outcome's measured values now contradict its claimed row
    sign_triples, states = tsvlab.scenarios._mean_king_candidate_basis()
    monkeypatch.setattr(
        tsvlab.scenarios, "_mean_king_candidate_basis", lambda: (sign_triples[::-1], states)
    )
    report = run_scenario(get_scenario("mean-king"))
    assert not report.passed
    basis, *outcomes = report.results
    assert basis.passed
    for k, result in enumerate(outcomes):
        assert not result.passed
        assert result.expected == f"values {sign_triples[::-1][k]}, each with probability 1"
        assert result.actual.startswith(f"values {sign_triples[k]}, min probability ")


def test_mean_king_checks_print_none_for_an_uncertain_component(monkeypatch):
    # a product post-selection basis |s>|a>, with the ancilla in the x basis, is
    # orthonormal but not entangled, and each outcome fixes only x (by a) and z (by
    # s): sigma_y keeps probability 1/2 for both values, so every check fails and
    # each outcome check prints None
    sign_triples, _ = tsvlab.scenarios._mean_king_candidate_basis()
    x_basis = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
    product = [np.kron(np.eye(2)[s], x_basis[a]) for s in range(2) for a in range(2)]
    monkeypatch.setattr(tsvlab.scenarios, "_mean_king_candidate_basis", lambda: (sign_triples, product))
    report = run_scenario(get_scenario("mean-king"))
    assert not report.passed
    basis, *outcomes = report.results
    assert not basis.passed
    assert basis.actual.endswith(", min concurrence 0")
    for k, result in enumerate(outcomes):
        s, a = divmod(k, 2)
        assert not result.passed
        assert result.actual == f"values ({1 - 2 * a}, None, {1 - 2 * s}), min probability 0.5"


@pytest.mark.parametrize("product_states", [0, 2])
def test_mean_king_basis_check_requires_every_state_entangled(monkeypatch, product_states):
    # Bell states (concurrence 1) pass; |00>, |11> with two of them do not, though
    # the basis stays orthonormal
    sign_triples, _ = tsvlab.scenarios._mean_king_candidate_basis()
    r = 1.0 / np.sqrt(2.0)
    bell = [np.array(v, dtype=complex) for v in
            ([r, 0, 0, r], [r, 0, 0, -r], [0, r, r, 0], [0, r, -r, 0])]
    product = [np.array(v, dtype=complex) for v in ([1, 0, 0, 0], [0, 0, 0, 1])]
    states = product[:product_states] + bell[product_states:]
    monkeypatch.setattr(tsvlab.scenarios, "_mean_king_candidate_basis", lambda: (sign_triples, states))
    expected, actual, passed = get_scenario("mean-king").checks[0].run()
    assert expected == "orthonormal entangled basis"
    assert passed is (product_states == 0)
    assert actual.endswith(", min concurrence 0") is (product_states > 0)


def test_mean_king_royal_basis_is_entangled():
    scenario = get_scenario("mean-king")
    for vec in scenario.details["royal_basis"]:
        matrix = np.array(vec, dtype=complex).reshape(2, 2)
        s = np.linalg.svd(matrix, compute_uv=False)
        assert s[1] > 1e-6  # rank 2: not a product state


def test_unknown_scenario():
    with pytest.raises(KeyError):
        get_scenario("nosuch")


def test_public_names_are_exactly_all():
    bound = {
        name for name, value in vars(tsvlab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(tsvlab.__all__) == len(set(tsvlab.__all__))
    assert set(tsvlab.__all__) == bound
    for name in tsvlab.__all__:
        assert getattr(tsvlab, name) is not None
    # second spellings of Ket, Bra, weak_value and GeneralizedTwoStateVector,
    # an error nothing raises, and surface that only tests called
    for gone in ("make_ket", "make_bra", "weak_value_generalized", "SearchFailedError",
                 "tensor", "strong_weak_consistency", "ConsistencyReport"):
        assert not hasattr(tsvlab, gone)
        assert gone not in tsvlab.__all__
    assert not hasattr(tsvlab.GeneralizedTwoStateVector, "from_two_state_vector")
    for cls, gone in ((tsvlab.Ket, "dagger"), (tsvlab.Bra, "dagger"),
                      (tsvlab.Operator, "identity"), (tsvlab.HamiltonianSchedule, "constant"),
                      (tsvlab.Operator, "is_hermitian")):
        assert not hasattr(cls, gone)
    # an Operator is Hermitian or is not built: it holds no flag, and only its construction raises
    assert [f.name for f in dataclasses.fields(tsvlab.Operator)] == ["matrix"]
    for gone in ("complex_pair", "vector_pairs", "matrix_pairs"):
        assert not hasattr(tsvlab.problemfile, gone)
    # each result is read from its one owner: a product of observables is formed
    # only by product_rule_report, the certainty test is element_of_reality's, and
    # a scenario's name and details are read from the scenario
    assert not hasattr(tsvlab.Operator, "__matmul__")
    assert not hasattr(tsvlab.Distribution, "max_entry")
    assert [f.name for f in dataclasses.fields(tsvlab.scenarios.Report)] == ["results", "passed"]
    src = Path(tsvlab.__file__).parent
    assert [p.name for p in sorted(src.glob("*.py")) if "CERTAINTY_TOL" in p.read_text(encoding="utf-8")] == [
        "tsv.py"
    ]
    raises = {p.name: p.read_text(encoding="utf-8").count("raise NotHermitianError(") for p in sorted(src.glob("*.py"))}
    assert {name: n for name, n in raises.items() if n} == {"qcore.py": 1}


def test_no_result_echoes_its_callers_input():
    # a scenario's name is its SCENARIOS key, and a Monte Carlo report holds only
    # what it counted: the run's samples and seed are the caller's
    assert "name" not in {f.name for f in dataclasses.fields(tsvlab.scenarios.Scenario)}
    assert [f.name for f in dataclasses.fields(tsvlab.measure.MonteCarloReport)] == ["counts"]
    assert tsvlab.measure.MonteCarloReport((2, 3)).samples_postselected == 5
    # argparse checks a scenario name against the keys (test_cli), so no verb catches a KeyError
    for verb in (tsvlab.cli.cmd_run, tsvlab.cli.cmd_export_scenario):
        handlers = [node for node in ast.walk(ast.parse(inspect.getsource(verb)))
                    if isinstance(node, ast.ExceptHandler)]
        assert handlers == []


def test_every_public_name_has_a_caller_outside_the_tests():
    # a name that only the tests call belongs in the tests, not in __all__;
    # imports, docstrings and the name's own definition do not count as calls
    repo = Path(__file__).resolve().parents[1]
    paths = [p for p in (repo / "src" / "tsvlab").glob("*.py") if p.name != "__init__.py"]
    used = set()
    for path in paths + list((repo / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(set(tsvlab.__all__) - used) == []


def test_every_public_member_is_read_outside_the_tests():
    # every field, property and method of a public class is read as an attribute
    # somewhere in src/tsvlab or bench/; a member only the tests read does not belong
    repo = Path(__file__).resolve().parents[1]
    used = set()
    for path in [*(repo / "src" / "tsvlab").glob("*.py"), *(repo / "bench").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
    unread = []
    for name in tsvlab.__all__:
        cls = getattr(tsvlab, name)
        if not isinstance(cls, type):
            continue
        members = {m for m in vars(cls) if not m.startswith("_")}
        if dataclasses.is_dataclass(cls):
            members |= {f.name for f in dataclasses.fields(cls)}
        unread += [f"{name}.{m}" for m in sorted(members - used)]
    assert unread == []
    # the spin-box scenario is built one way; SCENARIOS calls it without arguments
    assert inspect.signature(scenario_spin_box).parameters == {}
