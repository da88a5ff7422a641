import numpy as np
import pytest

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


def test_mean_king_royal_basis_is_entangled():
    scenario = get_scenario("mean-king")
    for vec in scenario.details["royal_basis"]:
        matrix = np.array(vec, dtype=complex).reshape(2, 2)
        s = np.linalg.svd(matrix, compute_uv=False)
        assert s[1] > 1e-6  # rank 2: not a product state


def test_unknown_scenario():
    with pytest.raises(KeyError):
        get_scenario("nosuch")
