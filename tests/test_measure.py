import tracemalloc

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
    Bra,
    ConfigError,
    Ket,
    NullEnsembleError,
    Observable,
    Operator,
    PointerConfig,
    TwoStateVector,
    abl_probabilities,
    exact_conditional_oracle,
    get_scenario,
    ideal_measure,
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
        record = ideal_measure(Ket([1, 0]), spectral_decompose(Operator(SIGMA_Z)), rng)
        assert record.outcome == pytest.approx(1.0)
        assert record.probability == pytest.approx(1.0)
        np.testing.assert_allclose(record.post_state.amplitudes, [1, 0], atol=1e-12)

    def test_draw_matches_generator_choice(self):
        # the outcome is the index rng.choice(n, p=probs) draws on the same
        # stream, and the stream is left where choice leaves it
        rng = np.random.default_rng(3)
        zero_outcomes = 0
        for dim in range(2, 9):
            observables = (random_observable(rng, dim), spectral_decompose(Operator(np.diag(np.arange(dim)))))
            for case in range(1500):
                obs = observables[case % 2]
                amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
                if case % 4 == 1:
                    # basis amplitudes switched off: outcomes of probability 0
                    amps[rng.permutation(dim)[: int(rng.integers(1, dim))]] = 0.0
                state = Ket(amps)
                probs = tsvlab.measure._born_weights(obs.project(state))
                probs /= probs.sum()
                zero_outcomes += int((probs == 0.0).sum())
                seed = int(rng.integers(2**63))
                mine, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
                record = ideal_measure(state, obs, mine)
                index = int(theirs.choice(len(probs), p=probs))
                assert record.outcome == obs.eigenvalues[index]
                assert probs[index] > 0.0
                assert mine.random() == theirs.random()
        assert zero_outcomes > 1000

    def test_symmetric_superposition_statistics(self):
        rng = np.random.default_rng(1)
        obs = spectral_decompose(Operator(SIGMA_Z))
        up_x = Ket([1, 1])
        n = 100_000
        hits = sum(ideal_measure(up_x, obs, rng).outcome > 0 for _ in range(n))
        freq = hits / n
        sigma = np.sqrt(0.25 / n)
        assert abs(freq - 0.5) <= 5 * sigma

    def test_degenerate_identity(self):
        rng = np.random.default_rng(2)
        state = Ket([0.6, 0.8j])
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
            Ket([1, 0]),
            Bra([0, 1]),
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
        pre, post = Ket([1, 1]), Bra([1, 1])
        obs = spectral_decompose(Operator(SIGMA_Z))
        many = monte_carlo_abl(pre, post, obs, 3, seed=seed, workers=10**12)
        few = monte_carlo_abl(pre, post, obs, 3, seed=seed, workers=3)
        assert many.workers == 10**12
        assert many.samples_postselected == few.samples_postselected
        assert many.conditional_frequencies == few.conditional_frequencies
        assert many.standard_errors == few.standard_errors

    def test_sample_cap_checked_before_allocation(self):
        pre, post = Ket([1, 1]), Bra([1, 1])
        obs = spectral_decompose(Operator(SIGMA_Z))
        cap = tsvlab.measure.MAX_MC_SAMPLES
        assert cap >= 1_000_000  # the benchmark probe draws 1e6 trials
        tracemalloc.start()
        try:
            for n_samples in (cap + 1, 10**12):
                with pytest.raises(ConfigError, match=f"MAX_MC_SAMPLES = {cap}"):
                    monte_carlo_abl(pre, post, obs, n_samples, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_frequencies_sum_to_one(self):
        rng = np.random.default_rng(5)
        tsv = random_tsv(rng, 4)
        obs = random_observable(rng, 4)
        report = monte_carlo_abl(tsv.forward, tsv.backward, obs, 30_000, seed=19)
        assert abs(sum(report.conditional_frequencies.values()) - 1.0) <= 1e-12

    def test_z_scores(self):
        report = tsvlab.measure.MonteCarloReport(
            samples_total=400, samples_postselected=100,
            conditional_frequencies={-1.0: 0.25, 1.0: 0.75}, standard_errors={-1.0: 0.05, 1.0: 0.05},
            seed=0, workers=1,
        )
        dist = tsvlab.tsv.Distribution(((-1.0, 0.5), (1.0, 0.5)))
        assert tsvlab.measure.z_scores(report, dist) == {-1.0: (0.25 - 0.5) / 0.05, 1.0: (0.75 - 0.5) / 0.05}


def kept_counts(report):
    return [round(f * report.samples_postselected) for f in report.conditional_frequencies.values()]


class TestMonteCarloGolden:
    """Fixed-seed kept counts as literals: a change to the draw order or the keep rule shows here."""

    @pytest.mark.parametrize("name", ["P_A", "P_B"])
    def test_three_box(self, name):
        scenario = get_scenario("three-box")
        report = monte_carlo_abl(
            scenario.selection.forward, scenario.selection.backward, scenario.observables[name],
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
            Ket([0, 1]), Bra([1, 1]), spectral_decompose(Operator(SIGMA_Z))
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
                Ket([1, 0]), Bra([0, 1]), spectral_decompose(Operator(SIGMA_Z))
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

    def test_grid_spacing_over_half_sigma_rejected(self):
        tsv = boxed_spin_tsv()
        obs = diagonal_projector(4, 2)
        # spacing 2 * 10000 / 4095 = 4.9 sigma; the mean shift read -5.96 g, not -g
        for half_range in (1e4, 1e6):
            cfg = PointerConfig(coupling=0.001, sigma=1.0, half_range=half_range, points=4096)
            with pytest.raises(ConfigError, match="spacing"):
                weak_measure_pointer(tsv, obs, cfg)
        # exactly sigma / 2 is still accepted
        cfg = PointerConfig(coupling=0.001, sigma=1.0, half_range=0.25 * 4095, points=4096)
        result = weak_measure_pointer(tsv, obs, cfg)
        assert abs(result.mean_shift / 0.001 - (-1.0)) <= 0.01

    @pytest.mark.parametrize("coupling", [1e-320, 1e-14, 0.99e-9])
    def test_shift_below_quadrature_resolution_rejected(self, coupling):
        tsv = boxed_spin_tsv()
        obs = diagonal_projector(4, 2)
        with pytest.raises(ConfigError, match=r"max\|eigenvalue\| = .* 1e-09 \* sigma = 1e-09"):
            weak_measure_pointer(tsv, obs, PointerConfig.auto(coupling, 1.0, obs.max_abs_eigenvalue))

    def test_shift_floor_scales_with_sigma_and_spares_zero_spectrum(self):
        tsv = boxed_spin_tsv()
        obs = diagonal_projector(4, 2)
        result = weak_measure_pointer(tsv, obs, PointerConfig.auto(1e-9, 1.0, 1.0))
        assert np.isfinite(result.mean_shift)
        with pytest.raises(ConfigError, match="sigma"):
            weak_measure_pointer(tsv, obs, PointerConfig.auto(1e-9, 2.0, 1.0))
        zero = spectral_decompose(Operator(np.zeros((4, 4), dtype=complex)))
        result = weak_measure_pointer(tsv, zero, PointerConfig.auto(1e-320, 1.0, 0.0))
        assert result.mean_shift == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("field,value", [
        (field, value)
        for field in ("coupling", "sigma", "half_range")
        for value in (np.inf, -np.inf, np.nan, 0.0, -1.0)
    ] + [("sigma", 1e300), ("sigma", 1e-300)])
    def test_non_finite_or_non_positive_lengths_rejected(self, field, value):
        kwargs = dict(coupling=0.1, sigma=1.0, half_range=20.0, points=4096)
        kwargs[field] = value
        with pytest.raises(ConfigError, match=field):
            PointerConfig(**kwargs)
        if field != "half_range":
            auto = dict(coupling=0.1, sigma=1.0)
            auto[field] = value
            with pytest.raises(ConfigError):
                PointerConfig.auto(auto["coupling"], auto["sigma"], 1.0)

    def test_grid_cap_checked_before_allocation(self):
        cap = tsvlab.measure.MAX_POINTER_POINTS
        assert cap > 640_641  # the strong-regime g=1000 grid stays legal
        assert PointerConfig(coupling=0.1, sigma=1.0, half_range=20.0, points=cap).points == cap
        tracemalloc.start()
        try:
            # g=1e9 asks for 640,000,000,641 points, g=1e300 for an infinite count
            for coupling in (1e9, 1e300):
                with pytest.raises(ConfigError, match="MAX_POINTER_POINTS"):
                    PointerConfig.auto(coupling, 1.0, 1.0)
            with pytest.raises(ConfigError, match="MAX_POINTER_POINTS"):
                PointerConfig(coupling=0.1, sigma=1.0, half_range=20.0, points=cap + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_momentum_shift_matches_imaginary_weak_value(self):
        """Pointer momentum mean against Im(weak value) (Jozsa 2007, PRA 76, 044103).

        Sign convention (hbar = 1): the coupling translates the pointer by
        +g*o_n on eigenspace n, so the post-selected pointer wavefunction is
        Phi(q) = sum_n <phi|P_n|psi> G(q - g*o_n) with
        G(q) = (2 pi sigma^2)^(-1/4) exp(-q^2 / (4 sigma^2)), the momentum is
        p = -i d/dq, and A_w = <phi|A|psi> / <phi|psi>. To first order in g,
        <p> = g Im(A_w) / (2 sigma^2). Phi and dPhi/dq are built here from
        numpy ``eigh`` blocks, not from tsvlab's amplitude code.
        """
        rng = np.random.default_rng(20071015)  # A_w = -0.25 - 1.75i
        levels = np.array([-1.0, 0.5, 0.5, 2.0])
        basis, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        matrix = (basis * levels) @ basis.conj().T
        pre = rng.normal(size=4) + 1j * rng.normal(size=4)
        post = rng.normal(size=4) + 1j * rng.normal(size=4)
        weak = weak_value(TwoStateVector(Ket(pre), Bra(post)), Operator(matrix))
        assert weak.imag < -1.0

        eigenvalues, vectors = np.linalg.eigh(matrix)
        pre, post = pre / np.linalg.norm(pre), post / np.linalg.norm(post)
        centers, amplitudes = [], []
        for value in np.unique(np.round(eigenvalues, 9)):
            block = vectors[:, np.abs(eigenvalues - value) < 1e-9]
            centers.append(value)
            amplitudes.append(np.vdot(post, block @ (block.conj().T @ pre)))
        assert len(centers) == 3

        sigma = 1.0
        q = np.linspace(-12.0, 12.0, 2**15 + 1)
        errors = {}
        for g in (2e-3, 1e-3):
            offsets = q[None, :] - g * np.array(centers)[:, None]
            packets = (2 * np.pi * sigma**2) ** -0.25 * np.exp(-offsets**2 / (4 * sigma**2))
            phi = np.array(amplitudes) @ packets
            dphi = np.array(amplitudes) @ (-offsets / (2 * sigma**2) * packets)
            p_mean = np.trapezoid(np.imag(np.conj(phi) * dphi), q) / np.trapezoid(
                np.abs(phi) ** 2, q
            )
            errors[g] = abs(p_mean - g * weak.imag / (2 * sigma**2)) / g
        assert errors[1e-3] <= 1e-4 * abs(weak.imag)
        assert errors[1e-3] <= 0.6 * errors[2e-3]


class TestStrongWeakConsistency:
    def test_boxed_spin_projection(self):
        report = strong_weak_consistency(boxed_spin_tsv(), diagonal_projector(4, 0))
        assert report.certain and report.certain_value == pytest.approx(1.0)
        assert abs(report.weak - 1.0) <= 1e-10
        assert report.passed

    def test_z_then_x_selection(self):
        tsv = TwoStateVector(Ket([1, 0]), Bra([1, 1]))
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
