import numpy as np
import pytest

import tsvlab.measure
import tsvlab.tsv

from helpers import (
    dichotomic_case_with_certain_outcome,
    random_observable,
    random_tsv,
)
from test_tsv import boxed_spin_tsv, diagonal_projector
from tsvlab import (
    SIGMA_X,
    SIGMA_Z,
    ConfigError,
    NullEnsembleError,
    Observable,
    Operator,
    PointerConfig,
    TwoStateVector,
    abl_probabilities,
    exact_conditional_oracle,
    get_scenario,
    ideal_measure,
    make_bra,
    make_ket,
    monte_carlo_abl,
    pointer_bump_masses,
    spectral_decompose,
    strong_weak_consistency,
    weak_measure_pointer,
    weak_value,
)


class TestIdealMeasure:
    def test_eigenstate(self):
        rng = np.random.default_rng(0)
        record = ideal_measure(make_ket([1, 0]), spectral_decompose(Operator(SIGMA_Z)), rng)
        assert record.outcome == pytest.approx(1.0)
        assert record.probability == pytest.approx(1.0)
        np.testing.assert_allclose(record.post_state.amplitudes, [1, 0], atol=1e-12)

    def test_symmetric_superposition_statistics(self):
        rng = np.random.default_rng(1)
        obs = spectral_decompose(Operator(SIGMA_Z))
        up_x = make_ket([1, 1])
        n = 100_000
        hits = sum(ideal_measure(up_x, obs, rng).outcome > 0 for _ in range(n))
        freq = hits / n
        sigma = np.sqrt(0.25 / n)
        assert abs(freq - 0.5) <= 5 * sigma

    def test_degenerate_identity(self):
        rng = np.random.default_rng(2)
        state = make_ket([0.6, 0.8j])
        record = ideal_measure(state, spectral_decompose(Operator.identity(2)), rng)
        assert record.outcome == pytest.approx(1.0)
        assert record.probability == pytest.approx(1.0)
        np.testing.assert_allclose(record.post_state.amplitudes, state.amplitudes, atol=1e-12)


class TestMonteCarloAbl:
    def test_boxed_spin_certainty_is_exact(self):
        tsv = boxed_spin_tsv()
        report = monte_carlo_abl(tsv.forward, tsv.backward, diagonal_projector(4, 0), 100_000, seed=5)
        assert report.samples_postselected > 0
        assert report.conditional_frequencies[1.0] == 1.0

    def test_random_instance_matches_abl(self):
        rng = np.random.default_rng(3)
        tsv = random_tsv(rng, 3)
        obs = random_observable(rng, 3)
        dist = abl_probabilities(tsv, obs)
        report = monte_carlo_abl(tsv.forward, tsv.backward, obs, 100_000, seed=11)
        for outcome, prob in dist.entries:
            freq = report.conditional_frequencies[outcome]
            se = report.standard_errors[outcome]
            assert abs(freq - prob) <= 5 * se

    def test_impossible_postselection(self):
        report = monte_carlo_abl(
            make_ket([1, 0]),
            make_bra([0, 1]),
            spectral_decompose(Operator(SIGMA_Z)),
            5000,
            seed=7,
        )
        assert report.samples_postselected == 0
        assert report.conditional_frequencies == {}

    def test_deterministic_for_seed_and_workers(self):
        tsv = boxed_spin_tsv()
        obs = diagonal_projector(4, 2)
        a = monte_carlo_abl(tsv.forward, tsv.backward, obs, 20_000, seed=13, workers=3)
        b = monte_carlo_abl(tsv.forward, tsv.backward, obs, 20_000, seed=13, workers=3)
        assert a == b

    def test_worker_partition_preserves_statistics(self):
        rng = np.random.default_rng(4)
        tsv = random_tsv(rng, 2)
        obs = spectral_decompose(Operator(SIGMA_X))
        dist = abl_probabilities(tsv, obs)
        report = monte_carlo_abl(tsv.forward, tsv.backward, obs, 100_000, seed=17, workers=4)
        for outcome, prob in dist.entries:
            z = (report.conditional_frequencies[outcome] - prob) / report.standard_errors[outcome]
            assert abs(z) <= 5

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_surplus_workers_draw_nothing(self, seed):
        pre, post = make_ket([1, 1]), make_bra([1, 1])
        obs = spectral_decompose(Operator(SIGMA_Z))
        many = monte_carlo_abl(pre, post, obs, 3, seed=seed, workers=10**12)
        few = monte_carlo_abl(pre, post, obs, 3, seed=seed, workers=3)
        assert many.workers == 10**12
        assert many.samples_postselected == few.samples_postselected
        assert many.conditional_frequencies == few.conditional_frequencies
        assert many.standard_errors == few.standard_errors

    def test_frequencies_sum_to_one(self):
        rng = np.random.default_rng(5)
        tsv = random_tsv(rng, 4)
        obs = random_observable(rng, 4)
        report = monte_carlo_abl(tsv.forward, tsv.backward, obs, 30_000, seed=19)
        assert abs(sum(report.conditional_frequencies.values()) - 1.0) <= 1e-12


def kept_counts(report):
    return [round(f * report.samples_postselected) for f in report.conditional_frequencies.values()]


class TestMonteCarloGolden:
    """Fixed-seed kept counts as literals: a change to the draw order or the keep rule shows here."""

    @pytest.mark.parametrize("name", ["P_A", "P_B"])
    def test_three_box(self, name):
        scenario = get_scenario("three-box")
        report = monte_carlo_abl(
            scenario.tsv.forward, scenario.tsv.backward, scenario.observables[name],
            100_000, seed=424242, workers=1,
        )
        assert report.samples_postselected == 11328
        assert kept_counts(report) == [0, 11328]

    def test_random_d8_three_workers(self):
        rng = np.random.default_rng(2024)
        tsv = random_tsv(rng, 8)
        obs = random_observable(rng, 8)
        report = monte_carlo_abl(tsv.forward, tsv.backward, obs, 50_000, seed=31, workers=3)
        assert report.samples_postselected == 6539
        assert kept_counts(report) == [55, 151, 795, 169, 1395, 1238, 3, 2733]


class TestExactConditionalOracle:
    def test_eigenstate_pre(self):
        dist = exact_conditional_oracle(
            make_ket([0, 1]), make_bra([1, 1]), spectral_decompose(Operator(SIGMA_Z))
        )
        assert dict(dist.entries)[-1.0] == pytest.approx(1.0, abs=1e-12)

    def test_boxed_spin_second_projection(self):
        tsv = boxed_spin_tsv()
        dist = exact_conditional_oracle(tsv.forward, tsv.backward, diagonal_projector(4, 1))
        assert dict(dist.entries)[1.0] == pytest.approx(1.0, abs=1e-12)

    def test_cross_validation_random(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            dim = int(rng.integers(2, 5))
            tsv = random_tsv(rng, dim)
            obs = random_observable(rng, dim)
            a = abl_probabilities(tsv, obs)
            b = exact_conditional_oracle(tsv.forward, tsv.backward, obs)
            np.testing.assert_allclose(a.probabilities, b.probabilities, atol=1e-12)

    def test_independent_of_abl_path(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle reached the ABL code path")

        monkeypatch.setattr(Observable, "amplitudes", forbidden)
        for module in (tsvlab.tsv, tsvlab.measure):
            for name in ("_abl_amplitudes", "abl_probabilities", "weak_value", "element_of_reality"):
                monkeypatch.setattr(module, name, forbidden)
        tsv = boxed_spin_tsv()
        dist = exact_conditional_oracle(tsv.forward, tsv.backward, diagonal_projector(4, 1))
        assert dict(dist.entries)[1.0] == pytest.approx(1.0, abs=1e-12)

    def test_null_ensemble(self):
        with pytest.raises(NullEnsembleError):
            exact_conditional_oracle(
                make_ket([1, 0]), make_bra([0, 1]), spectral_decompose(Operator(SIGMA_Z))
            )


def analytic_mean_shift(tsv, obs, coupling, sigma):
    """Closed-form pointer mean via Gaussian overlap integrals.

    Independent of the grid implementation: products of equal-width
    Gaussians integrate to exp(-(a-b)^2 / (8 sigma^2)) with first moment at
    the midpoint.
    """
    from tsvlab import matrix_element

    amps = np.array([matrix_element(tsv.backward, p, tsv.forward) for p in obs.projectors])
    centers = coupling * np.asarray(obs.eigenvalues)
    num = 0.0
    den = 0.0
    for i, ci in enumerate(amps):
        for j, cj in enumerate(amps):
            w = ci * np.conj(cj) * np.exp(-((centers[i] - centers[j]) ** 2) / (8 * sigma**2))
            num += w * (centers[i] + centers[j]) / 2
            den += w
    return float(np.real(num / den))


class TestWeakMeasurePointer:
    def test_identity_shifts_by_coupling(self):
        rng = np.random.default_rng(7)
        tsv = random_tsv(rng, 3, min_overlap=0.1)
        obs = spectral_decompose(Operator.identity(3))
        cfg = PointerConfig.auto(0.5, 1.0, obs.max_abs_eigenvalue)
        result = weak_measure_pointer(tsv, obs, cfg)
        assert result.mean_shift == pytest.approx(0.5, abs=1e-9)

    def test_density_normalized_and_rate_bounded(self):
        tsv = boxed_spin_tsv()
        obs = diagonal_projector(4, 2)
        cfg = PointerConfig.auto(0.3, 1.0, obs.max_abs_eigenvalue)
        result = weak_measure_pointer(tsv, obs, cfg)
        assert abs(np.trapezoid(result.density, result.positions) - 1.0) <= 1e-9
        assert 0.0 <= result.postselection_rate <= 1.0

    def test_weak_regime_matches_analytic_oracle(self):
        tsv = boxed_spin_tsv()
        obs = diagonal_projector(4, 2)
        for g in (1e-3, 1e-2):
            cfg = PointerConfig.auto(g, 1.0, obs.max_abs_eigenvalue)
            result = weak_measure_pointer(tsv, obs, cfg)
            assert result.mean_shift == pytest.approx(
                analytic_mean_shift(tsv, obs, g, 1.0), abs=1e-9
            )

    def test_weak_limit_approaches_weak_value(self):
        tsv = boxed_spin_tsv()
        obs = diagonal_projector(4, 2)
        g = 1e-3
        cfg = PointerConfig.auto(g, 1.0, obs.max_abs_eigenvalue)
        result = weak_measure_pointer(tsv, obs, cfg)
        assert abs(result.mean_shift / g - (-1.0)) <= 0.01

    def test_first_order_error_scaling(self):
        tsv = boxed_spin_tsv()
        obs = diagonal_projector(4, 2)
        errors = {}
        for g in (2e-3, 1e-3):
            cfg = PointerConfig.auto(g, 1.0, obs.max_abs_eigenvalue)
            result = weak_measure_pointer(tsv, obs, cfg)
            errors[g] = abs(result.mean_shift / g - (-1.0))
        assert errors[1e-3] <= 0.5 * errors[2e-3]

    def test_strong_regime_masses_match_abl(self):
        tsv = boxed_spin_tsv()
        obs = diagonal_projector(4, 2)
        g = 1000.0
        cfg = PointerConfig.auto(g, 1.0, obs.max_abs_eigenvalue)
        result = weak_measure_pointer(tsv, obs, cfg)
        masses = pointer_bump_masses(result, obs, g)
        dist = dict(abl_probabilities(tsv, obs).entries)
        for eig, prob in dist.items():
            assert abs(masses[eig] - prob) <= 1e-6

    def test_undersized_grid_rejected(self):
        tsv = boxed_spin_tsv()
        obs = diagonal_projector(4, 2)
        cfg = PointerConfig(coupling=0.1, sigma=1.0, half_range=2.0, points=4096)
        with pytest.raises(ConfigError):
            weak_measure_pointer(tsv, obs, cfg)
        cfg = PointerConfig(coupling=0.1, sigma=1.0, half_range=20.0, points=128)
        with pytest.raises(ConfigError):
            weak_measure_pointer(tsv, obs, cfg)


class TestStrongWeakConsistency:
    def test_boxed_spin_projection(self):
        report = strong_weak_consistency(boxed_spin_tsv(), diagonal_projector(4, 0))
        assert report.certain and report.certain_value == pytest.approx(1.0)
        assert abs(report.weak - 1.0) <= 1e-10
        assert report.passed

    def test_z_then_x_selection(self):
        tsv = TwoStateVector(make_ket([1, 0]), make_bra([1, 1]))
        report = strong_weak_consistency(tsv, spectral_decompose(Operator(SIGMA_Z)))
        assert report.certain and report.certain_value == pytest.approx(1.0)
        assert abs(report.weak - 1.0) <= 1e-10
        assert report.passed

    def test_randomized_dichotomic_sweep(self):
        rng = np.random.default_rng(8)
        for _ in range(1000):
            tsv, obs, _ = dichotomic_case_with_certain_outcome(rng, int(rng.integers(2, 6)))
            report = strong_weak_consistency(tsv, obs)
            assert report.passed
            assert report.strong_implies_weak is True
            assert report.weak_implies_strong is True

    def test_vacuous_when_uncertain(self):
        rng = np.random.default_rng(9)
        while True:
            tsv = random_tsv(rng, 2, min_overlap=0.05)
            obs = spectral_decompose(Operator(SIGMA_Z))
            wv = weak_value(tsv, obs.op)
            if all(abs(wv - e) > 1e-6 for e in obs.eigenvalues):
                break
        report = strong_weak_consistency(tsv, obs)
        assert not report.certain
        assert report.strong_implies_weak is None
        assert report.weak_implies_strong is None
        assert report.passed
