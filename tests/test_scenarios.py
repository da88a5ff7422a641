import types

import numpy as np
import pytest

import tsvlab
import tsvlab.problemfile
import tsvlab.scenarios
from tsvlab import abl_probabilities_generalized, get_scenario, run_scenario
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


def test_spin_box_dimension_choice_is_irrelevant():
    wide = run_scenario(scenario_spin_box(include_empty_direction=True))
    narrow = run_scenario(scenario_spin_box(include_empty_direction=False))
    assert wide.passed and narrow.passed
    for a, b in zip(wide.results, narrow.results):
        assert a.description == b.description
        assert a.passed == b.passed
        assert a.expected == b.expected


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
        assert dist.max_entry()[1] >= 1.0 - 1e-10


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
    # and an error nothing raises
    for gone in ("make_ket", "make_bra", "weak_value_generalized", "SearchFailedError"):
        assert not hasattr(tsvlab, gone)
        assert gone not in tsvlab.__all__
    assert not hasattr(tsvlab.GeneralizedTwoStateVector, "from_two_state_vector")
    for gone in ("complex_pair", "vector_pairs", "matrix_pairs"):
        assert not hasattr(tsvlab.problemfile, gone)
