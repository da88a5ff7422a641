import contextlib
import hashlib
import math
import sys
import tracemalloc

import numpy as np
import pytest

import tsvlab.measure
import tsvlab.tsv

from helpers import (
    dichotomic_case_with_certain_outcome,
    pair_states,
    per_trial_counts,
    random_bra,
    random_dichotomic_observable,
    random_ket,
    random_observable,
    random_tsv,
    strong_weak_bridges,
)
from test_tsv import boxed_spin_tsv, diagonal_projector
from tsvlab import (
    SIGMA_X,
    SIGMA_Z,
    Bra,
    ConfigError,
    GeneralizedTwoStateVector,
    Ket,
    NullEnsembleError,
    Operator,
    PointerConfig,
    TwoStateVector,
    abl_probabilities,
    element_of_reality,
    exact_conditional_oracle,
    get_scenario,
    ideal_measure,
    monte_carlo,
    monte_carlo_abl,
    pointer_bump_masses,
    spectral_decompose,
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
        record = ideal_measure(state, spectral_decompose(Operator(np.eye(2))), rng)
        assert record.outcome == pytest.approx(1.0)
        assert record.probability == pytest.approx(1.0)
        np.testing.assert_allclose(record.post_state.amplitudes, state.amplitudes, atol=1e-12)


class TestMonteCarloAbl:
    def test_boxed_spin_certainty_is_exact(self):
        tsv = boxed_spin_tsv()
        report = monte_carlo(tsv, diagonal_projector(4, 0), 100_000, seed=5)
        assert report.samples_postselected > 0
        assert report.counts == (0, report.samples_postselected)

    def test_random_instance_matches_abl(self):
        rng = np.random.default_rng(3)
        tsv = random_tsv(rng, 3)
        obs = random_observable(rng, 3)
        dist = abl_probabilities(tsv, obs)
        report = monte_carlo(tsv, obs, 100_000, seed=11)
        for _, prob, freq, se, _ in tsvlab.measure.measure(report, dist):
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
        assert report.counts == (0, 0)

    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(13)
        tsv = random_tsv(rng, 4)
        obs = random_observable(rng, 4)
        a = monte_carlo(tsv, obs, 20_000, seed=13)
        assert monte_carlo(tsv, obs, 20_000, seed=13) == a
        assert monte_carlo(tsv, obs, 20_000, seed=14) != a

    def test_worker_partition_preserves_statistics(self):
        rng = np.random.default_rng(4)
        tsv = random_tsv(rng, 2)
        obs = spectral_decompose(Operator(SIGMA_X))
        dist = abl_probabilities(tsv, obs)
        report = monte_carlo(tsv, obs, 100_000, seed=17)
        for *_, z in tsvlab.measure.measure(report, dist):
            assert abs(z) <= 5

    def test_counts_follow_the_per_trial_law(self):
        # R runs of N trials each, from the one draw and from the per-trial
        # reference, on seeds of their own. Each cell (an outcome, or the
        # dropped trials) of either sampler is Binomial(N, c): mean N c,
        # variance s2 = N c (1 - c), fourth central moment
        # m4 = s2 (1 + 3 (N - 2) c (1 - c)). So the two samplers' mean counts
        # differ with standard error sqrt(2 s2 / R), and their sample
        # variances with sqrt(2 (m4 - s2^2 (R - 3) / (R - 1)) / R); both must
        # agree within 5 of those standard errors
        runs, n = 2000, 40
        rng = np.random.default_rng(15)
        tsv = random_tsv(rng, 3, min_overlap=0.3)
        obs = random_observable(rng, 3)
        p_outcome, p_post = tsvlab.measure._sequential_born(tsv, obs)
        kept = p_outcome / p_outcome.sum() * p_post
        cells = np.append(kept, 1.0 - kept.sum())
        # every cell is exercised: none is near 0 or N
        assert cells.min() > 0.05

        def with_dropped(counts):
            return [*counts, n - sum(counts)]

        drawn = np.array([with_dropped(monte_carlo(tsv, obs, n, seed=seed).counts)
                          for seed in range(runs)])
        simulated = np.array([with_dropped(per_trial_counts(tsv, obs, n,
                                                            np.random.default_rng(runs + seed)))
                              for seed in range(runs)])
        s2 = n * cells * (1.0 - cells)
        m4 = s2 * (1.0 + 3.0 * (n - 2) * cells * (1.0 - cells))
        mean_se = np.sqrt(2.0 * s2 / runs)
        var_se = np.sqrt(2.0 * (m4 - s2**2 * (runs - 3) / (runs - 1)) / runs)
        assert np.all(np.abs(drawn.mean(axis=0) - simulated.mean(axis=0)) <= 5.0 * mean_se)
        assert np.all(np.abs(drawn.var(axis=0, ddof=1) - simulated.var(axis=0, ddof=1)) <= 5.0 * var_se)

    @pytest.mark.parametrize("n_samples", [10, tsvlab.measure.MAX_MC_SAMPLES])
    def test_memory_independent_of_samples(self, n_samples):
        rng = np.random.default_rng(12)
        tsv = random_tsv(rng, 8)
        obs = random_observable(rng, 8)
        tracemalloc.start()
        try:
            report = monte_carlo(tsv, obs, n_samples, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < report.samples_postselected <= n_samples
        assert peak < 64 << 10

    def test_sample_cap_checked_before_allocation(self):
        pre, post = Ket([1, 1]), Bra([1, 1])
        obs = spectral_decompose(Operator(SIGMA_Z))
        cap = tsvlab.measure.MAX_MC_SAMPLES
        assert cap >= 1_000_000  # the benchmark probe draws 1e6 trials
        tracemalloc.start()
        try:
            for n_samples in (cap + 1, 10**18):
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
        report = monte_carlo(tsv, obs, 30_000, seed=19)
        rows = tsvlab.measure.measure(report, abl_probabilities(tsv, obs))
        assert abs(sum(freq for _, _, freq, _, _ in rows) - 1.0) <= 1e-12

    def test_measure_rows(self):
        dist = tsvlab.tsv.Distribution(((-1.0, 0.5), (1.0, 0.5)))
        report = tsvlab.measure.MonteCarloReport(counts=(25, 75))
        assert report.samples_postselected == 100
        se = np.sqrt(0.25 * 0.75 / 100)
        assert tsvlab.measure.measure(report, dist) == [
            (-1.0, 0.5, 0.25, se, (0.25 - 0.5) / se),
            (1.0, 0.5, 0.75, se, (0.75 - 0.5) / se),
        ]
        # a count of 0 or all has its error from the +1-smoothed frequency
        certain = tsvlab.measure.MonteCarloReport(counts=(0, 100))
        low, high = (np.sqrt(f * (1.0 - f) / 100) for f in (1 / 102, 101 / 102))
        assert tsvlab.measure.measure(certain, dist) == [
            (-1.0, 0.5, 0.0, low, -0.5 / low),
            (1.0, 0.5, 1.0, high, 0.5 / high),
        ]


class TestMonteCarloGolden:
    """Fixed-seed kept counts as literals: a change to the draw or the keep rule shows here.

    Recaptured when the counts became one multinomial draw of their exact law.
    """

    @pytest.mark.parametrize("name", ["P_A", "P_B"])
    def test_three_box(self, name):
        scenario = get_scenario("three-box")
        report = monte_carlo(scenario.selection, scenario.observables[name], 100_000, seed=424242)
        assert report.counts == (0, 11224)

    def test_random_d8_three_workers(self):
        rng = np.random.default_rng(2024)
        tsv = random_tsv(rng, 8)
        obs = random_observable(rng, 8)
        report = monte_carlo(tsv, obs, 50_000, seed=31)
        assert report.samples_postselected == 6622
        assert report.counts == (49, 160, 878, 154, 1373, 1225, 3, 2780)

    def test_sequential_born_bytes(self):
        # sha256 of both Born-rule arrays on 2,000 random pairs at d = 2..8, every
        # other observable degenerate; captured while _sequential_born took a pair
        rng = np.random.default_rng(33)
        digest = hashlib.sha256()
        for case in range(2000):
            dim = int(rng.integers(2, 9))
            obs = random_dichotomic_observable(rng, dim) if case % 2 else random_observable(rng, dim)
            pre, post = random_ket(rng, dim), random_bra(rng, dim)
            for part in tsvlab.measure._sequential_born(TwoStateVector(pre, post), obs):
                digest.update(part.tobytes())
        assert digest.hexdigest() == "7a2060f39a9c10f14413cc2256c1636ec67cdf7f32563bd843eaa43aaf704351"

def random_generalized(rng, dim, n_terms, scale=1.0):
    """Random selection of ``n_terms`` terms with weights of magnitude about ``scale``; with two or more, one weight is 0."""
    alphas = scale * (rng.normal(size=n_terms) + 1j * rng.normal(size=n_terms))
    if n_terms > 1:
        alphas[rng.integers(n_terms)] = 0.0
    return GeneralizedTwoStateVector(tuple(
        (complex(a), random_bra(rng, dim), random_ket(rng, dim)) for a in alphas
    )), alphas


def dilated_pair(terms, alphas) -> TwoStateVector:
    """The normalized ancilla dilation of ``sum_i alpha_i <phi_i| |psi_i>`` as an explicit pair on system (x) ancilla.

    ``|Psi> = sum_i sqrt|alpha_i| e^(i arg alpha_i) |psi_i>|i>``, ``<Phi| = sum_i sqrt(|alpha_i| / W) <phi_i|<i|``,
    with the system as the slow tensor factor, formed by ``np.kron`` from the weights as given.
    """
    basis = np.eye(len(terms))
    total = np.abs(alphas).sum()
    psi = sum(np.sqrt(abs(a)) * np.exp(1j * np.angle(a)) * np.kron(f.amplitudes, e)
              for a, (_, _, f), e in zip(alphas, terms, basis))
    phi = sum(np.sqrt(abs(a) / total) * np.kron(b.amplitudes, e) for a, (_, b, _), e in zip(alphas, terms, basis))
    return TwoStateVector(Ket(psi), Bra(phi))


class TestMonteCarloSelection:
    """The one sampler reads a generalized selection as its normalized ancilla dilation."""

    def test_blocks_match_the_dilated_pair(self):
        # 1-4 terms (one of zero weight from 2 on), weights at 2**-600, 1 and 2**600, against
        # the explicit pair on system (x) ancilla measured with O (x) I
        rng = np.random.default_rng(41)
        for case in range(120):
            dim, n_terms = int(rng.integers(2, 5)), 1 + case % 4
            scale = (2.0**-600, 1.0, 2.0**600)[case % 3]
            selection, alphas = random_generalized(rng, dim, n_terms, scale)
            obs = random_dichotomic_observable(rng, dim) if case % 2 else random_observable(rng, dim)
            p, q = tsvlab.measure._sequential_born(selection, obs)
            pair = dilated_pair(selection.terms, alphas)
            p_pair, q_pair = tsvlab.measure._sequential_born(pair, Operator(np.kron(obs.matrix, np.eye(n_terms))))
            np.testing.assert_allclose(p / p.sum(), p_pair / p_pair.sum(), rtol=0, atol=1e-12)
            np.testing.assert_allclose(q, q_pair, rtol=0, atol=1e-12)

    def test_pair_shims_are_the_one_sampler(self):
        rng = np.random.default_rng(42)
        tsv, obs = random_tsv(rng, 4), random_observable(rng, 4)
        ket, bra = pair_states(tsv)
        assert monte_carlo_abl(ket, bra, obs, 20_000, 7) == monte_carlo(tsv, obs, 20_000, seed=7)
        p, q = tsvlab.measure._sequential_born(tsv, obs)
        oracle = np.array(exact_conditional_oracle(ket, bra, obs).entries)[:, 1]
        np.testing.assert_allclose(oracle, p * q / (p * q).sum(), rtol=0, atol=1e-15)

    def test_strong_pointer_rate_is_the_kept_probability(self):
        # bumps 50 sigma apart: the pointer's post-selection rate is the dilation's
        # sum_n p_n q_n / sum_n p_n, for a pair, the mean-king selection and random ones
        rng = np.random.default_rng(44)
        king = get_scenario("mean-king")
        cases = [(king.selection, king.observables[name]) for name in ("sigma_x", "sigma_z")]
        cases += [(random_tsv(rng, 3), random_dichotomic_observable(rng, 3))]
        cases += [(random_generalized(rng, 3, n)[0], random_dichotomic_observable(rng, 3)) for n in (2, 3, 4)]
        for selection, obs in cases:
            gap = obs.eigenvalues[1] - obs.eigenvalues[0]
            cfg = PointerConfig(50.0 / gap, 1.0, obs.max_abs_eigenvalue)
            rate = weak_measure_pointer(selection, obs, cfg).postselection_rate
            p, q = tsvlab.measure._sequential_born(selection, obs)
            assert rate == pytest.approx((p * q).sum() / p.sum(), rel=1e-12)


class TestExactConditionalOracle:
    def test_eigenstate_pre(self):
        dist = exact_conditional_oracle(
            Ket([0, 1]), Bra([1, 1]), spectral_decompose(Operator(SIGMA_Z))
        )
        assert dict(dist.entries)[-1.0] == pytest.approx(1.0, abs=1e-12)

    def test_boxed_spin_second_projection(self):
        tsv = boxed_spin_tsv()
        dist = exact_conditional_oracle(*pair_states(tsv), diagonal_projector(4, 1))
        assert dict(dist.entries)[1.0] == pytest.approx(1.0, abs=1e-12)

    def test_cross_validation_random(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            dim = int(rng.integers(2, 5))
            tsv = random_tsv(rng, dim)
            obs = random_observable(rng, dim)
            a = abl_probabilities(tsv, obs)
            b = exact_conditional_oracle(*pair_states(tsv), obs)
            np.testing.assert_allclose(np.array(a.entries)[:, 1], np.array(b.entries)[:, 1], atol=1e-12)

    def test_independent_of_abl_path(self, monkeypatch):
        # every binding of the ABL code path raises: the oracle still answers, and the
        # Monte Carlo that verify compares with the ABL rule, which draws on the same
        # sequential Born rules, counts a pair and generalized selections as before
        def forbidden(*args, **kwargs):
            raise AssertionError("the forward-only path reached the ABL code path")

        rng = np.random.default_rng(14)
        king = get_scenario("mean-king")
        cases = [(boxed_spin_tsv(), random_observable(rng, 4)),
                 (king.selection, king.observables["sigma_x"]),
                 (random_generalized(rng, 3, 3)[0], random_observable(rng, 3))]
        counts = [monte_carlo(selection, obs, 20_000, seed=3).counts for selection, obs in cases]
        originals = [getattr(tsvlab.tsv, name) for name in
                     ("_abl_amplitudes", "abl_probabilities", "weak_value", "element_of_reality")]
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "tsvlab"]
        for module in [*modules, sys.modules[__name__]]:
            for name, value in list(vars(module).items()):
                if any(value is original for original in originals):
                    monkeypatch.setattr(module, name, forbidden)
        monkeypatch.setattr(Operator, "amplitudes", forbidden)
        with pytest.raises(AssertionError, match="ABL code path"):
            abl_probabilities(*cases[0])  # this module's own binding
        dist = exact_conditional_oracle(*pair_states(cases[0][0]), diagonal_projector(4, 1))
        assert dict(dist.entries)[1.0] == pytest.approx(1.0, abs=1e-12)
        assert [monte_carlo(selection, obs, 20_000, seed=3).counts for selection, obs in cases] == counts

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
    ket, bra = pair_states(tsv)
    amps = np.array([np.vdot(bra.amplitudes, p.matrix @ ket.amplitudes) for p in obs.projectors])
    centers = coupling * np.asarray(obs.eigenvalues)
    num = 0.0
    den = 0.0
    for i, ci in enumerate(amps):
        for j, cj in enumerate(amps):
            w = ci * np.conj(cj) * np.exp(-((centers[i] - centers[j]) ** 2) / (8 * sigma**2))
            num += w * (centers[i] + centers[j]) / 2
            den += w
    return float(np.real(num / den))


def full_grid_pointer(tsv, obs, cfg):
    """``(density, mean_shift, postselection_rate)`` as the all-grid loop computed
    them: every eigenspace packet evaluated on every grid point."""
    amplitudes = tsvlab.tsv._abl_amplitudes(tsv, obs)
    q = np.linspace(-cfg.half_range, cfg.half_range, cfg.points)
    scale = 2.0 ** np.frexp(cfg.sigma)[1]
    width = 4.0 * (cfg.sigma / scale) ** 2
    wavefunction = np.zeros(cfg.points, dtype=complex)
    for amplitude, eigenvalue in zip(amplitudes, obs.eigenvalues):
        packet = np.exp(-(((q - cfg.coupling * eigenvalue) / scale) ** 2) / width)
        wavefunction += amplitude * packet
    raw_density = np.abs(wavefunction) ** 2
    mass = float(np.trapezoid(raw_density, q))
    rate = mass / scale / (np.sqrt(2.0 * np.pi) * (cfg.sigma / scale))
    density = raw_density / mass
    return density, float(np.trapezoid(q * density, q)), min(rate, 1.0)


def masked_bump_masses(result, obs, coupling):
    """:func:`pointer_bump_masses` as a full-grid mask per eigenvalue computed it."""
    centers = [coupling * e for e in obs.eigenvalues]
    edges = [-np.inf] + [(a + b) / 2.0 for a, b in zip(centers[:-1], centers[1:])] + [np.inf]
    q = result.positions
    masses = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        window = (q >= lo) & (q < hi)
        masses.append(float(np.trapezoid(result.density[window], q[window])) if window.sum() >= 2 else 0.0)
    return masses


def _random_levels_case(g, sigma):
    rng = np.random.default_rng(52)
    return random_tsv(rng, 8, min_overlap=0.05), random_observable(rng, 8), g, sigma


#: name -> (tsv, observable, coupling, sigma); the boxed spin's projector has
#: eigenvalues 0 and 1, and each packet reaches 2 sqrt(PACKET_EXPONENT_CUT) sigma
WINDOW_CASES = {
    # the grid spans +-10.01 sigma, so every window is the whole grid
    "weak": lambda: (boxed_spin_tsv(), diagonal_projector(4, 2), 0.001, 1.0),
    # bumps at 0 and 100 on a +-1010 grid: both windows are interior
    "strong": lambda: (boxed_spin_tsv(), diagonal_projector(4, 2), 100.0, 1.0),
    # the packet at 4.7 is cut by the grid's top edge at 57 only, the one at 0 by neither
    "clipped-one-edge": lambda: (boxed_spin_tsv(), diagonal_projector(4, 2), 4.7, 1.0),
    # 8 eigenspaces of both signs, some windows clipped and some interior
    "random-levels": lambda: _random_levels_case(0.33, 0.3),
    "random-levels-strong": lambda: _random_levels_case(52.0, 1.0),
    # one eigenvalue, 0: a single packet centred on the grid
    "zero-eigenvalue": lambda: (
        boxed_spin_tsv(), spectral_decompose(Operator(np.zeros((4, 4), dtype=complex))), 1.0, 1.0
    ),
    # sigma_z at g=5.5 puts the bump-mass edge 0 on the middle of a 4161-point grid
    "edge-on-grid-point": lambda: (
        TwoStateVector(Ket([1, 1]), Bra([1, 2])), spectral_decompose(Operator(SIGMA_Z)), 5.5, 1.0
    ),
    # the window of eigenvalue 0.005, [0.0025, 0.0075), holds one point of the
    # 4096-point grid on +-20: its mass is the trapezoid of one point, 0.0
    "one-point-window": lambda: (
        boxed_spin_tsv(), spectral_decompose(Operator(np.diag([0.0, 0.005, 0.01, 1.0]))), 1.0, 1.0
    ),
    "scale-1e-100": lambda: (boxed_spin_tsv(), diagonal_projector(4, 2), 1e-100, 1e-100),
    "scale-1e100": lambda: (boxed_spin_tsv(), diagonal_projector(4, 2), 1e100, 1e100),
    "scale-5e153": lambda: (boxed_spin_tsv(), diagonal_projector(4, 2), 5e153, 5e153),
}


class TestWeakMeasurePointer:
    def test_identity_shifts_by_coupling(self):
        rng = np.random.default_rng(7)
        tsv = random_tsv(rng, 3, min_overlap=0.1)
        obs = spectral_decompose(Operator(np.eye(3)))
        cfg = PointerConfig(0.5, 1.0, obs.max_abs_eigenvalue)
        result = weak_measure_pointer(tsv, obs, cfg)
        assert result.mean_shift == pytest.approx(0.5, abs=1e-9)

    def test_density_normalized_and_rate_bounded(self):
        tsv = boxed_spin_tsv()
        obs = diagonal_projector(4, 2)
        cfg = PointerConfig(0.3, 1.0, obs.max_abs_eigenvalue)
        result = weak_measure_pointer(tsv, obs, cfg)
        assert abs(np.trapezoid(result.density, result.positions) - 1.0) <= 1e-9
        assert 0.0 <= result.postselection_rate <= 1.0

    def test_weak_regime_matches_analytic_oracle(self):
        tsv = boxed_spin_tsv()
        obs = diagonal_projector(4, 2)
        for g in (1e-3, 1e-2):
            cfg = PointerConfig(g, 1.0, obs.max_abs_eigenvalue)
            result = weak_measure_pointer(tsv, obs, cfg)
            assert result.mean_shift == pytest.approx(
                analytic_mean_shift(tsv, obs, g, 1.0), abs=1e-9
            )

    def test_weak_limit_approaches_weak_value(self):
        tsv = boxed_spin_tsv()
        obs = diagonal_projector(4, 2)
        g = 1e-3
        cfg = PointerConfig(g, 1.0, obs.max_abs_eigenvalue)
        result = weak_measure_pointer(tsv, obs, cfg)
        assert abs(result.mean_shift / g - (-1.0)) <= 0.01

    def test_first_order_error_scaling(self):
        tsv = boxed_spin_tsv()
        obs = diagonal_projector(4, 2)
        errors = {}
        for g in (2e-3, 1e-3):
            cfg = PointerConfig(g, 1.0, obs.max_abs_eigenvalue)
            result = weak_measure_pointer(tsv, obs, cfg)
            errors[g] = abs(result.mean_shift / g - (-1.0))
        assert errors[1e-3] <= 0.5 * errors[2e-3]

    def test_strong_regime_masses_match_abl(self):
        tsv = boxed_spin_tsv()
        obs = diagonal_projector(4, 2)
        g = 1000.0
        cfg = PointerConfig(g, 1.0, obs.max_abs_eigenvalue)
        result = weak_measure_pointer(tsv, obs, cfg)
        masses = pointer_bump_masses(result, obs, g)
        dist = abl_probabilities(tsv, obs)
        for mass, (_, prob) in zip(masses, dist.entries, strict=True):
            assert abs(mass - prob) <= 1e-6

    def test_undersized_grid_rejected(self):
        tsv = boxed_spin_tsv()
        obs = diagonal_projector(4, 2)
        assert obs.max_abs_eigenvalue == 1.0
        cfg = PointerConfig(coupling=0.1, sigma=1.0, max_abs_eigenvalue=0.5)
        with pytest.raises(ConfigError, match=r"max\|eigenvalue\| 0.5"):
            weak_measure_pointer(tsv, obs, cfg)

    def test_grid_for_larger_radius_rejected(self):
        # a wider grid than the observable needs is still another observable's grid
        tsv = boxed_spin_tsv()
        obs = diagonal_projector(4, 2)
        cfg = PointerConfig(coupling=0.1, sigma=1.0, max_abs_eigenvalue=2.0)
        with pytest.raises(ConfigError, match=r"max\|eigenvalue\| 2.0"):
            weak_measure_pointer(tsv, obs, cfg)

    @pytest.mark.parametrize("scale", [1e-100, 0.7, 1e100, 5e153]
                             + [2.0**k for k in (-900, -300, -1, 7, 300, 1000)])
    def test_scaled_pointer_matches_unit_pointer(self, scale):
        # g and sigma scaled together scale the grid and leave the pointer's shape;
        # past |q| = 1.34e154 a squared offset would overflow and cut the packets short
        tsv = boxed_spin_tsv()
        obs = diagonal_projector(4, 2)
        unit = weak_measure_pointer(tsv, obs, PointerConfig(1.0, 1.0, 1.0))
        power_of_two = np.frexp(scale)[0] == 0.5
        # at the outermost powers of two the density's far tails underflow, which drops nothing
        outermost = power_of_two and abs(np.log2(scale)) > 500
        with np.errstate(all="raise", under="ignore" if outermost else "raise"):
            result = weak_measure_pointer(tsv, obs, PointerConfig(scale, scale, 1.0))
        assert result.positions.size == unit.positions.size
        if power_of_two:
            # a power of two scales every position and normal density exactly
            assert np.array_equal(result.positions, unit.positions * scale)
            assert result.mean_shift == unit.mean_shift * scale
            assert result.postselection_rate == unit.postselection_rate
            tiny = np.finfo(float).tiny
            normal = (result.density >= tiny) & (unit.density >= tiny)
            assert np.array_equal(result.density[normal] * scale, unit.density[normal])
        assert result.mean_shift / scale == pytest.approx(unit.mean_shift, rel=1e-12)
        assert result.postselection_rate == pytest.approx(unit.postselection_rate, rel=1e-12)
        # the far tails of a density shrunk by 1e-100 underflow, so compare against its peak
        error = np.max(np.abs(result.density * scale - unit.density))
        assert error <= 1e-12 * unit.density.max()

    def test_generalized_rate_is_that_of_the_normalized_dilation(self):
        # the rate of sum_i alpha_i <phi_i| |psi_i> is divided by (sum_i |alpha_i|)**2,
        # so it does not change with the weights' scale and equals the post-selection
        # rate of the normalized dilation on system (x) ancilla, measured with O (x) I
        rng = np.random.default_rng(31)
        alphas = np.array([0.8 + 0.3j, -0.4 + 0.5j])
        states = [(random_bra(rng, 3), random_ket(rng, 3)) for _ in alphas]
        # exact eigenvalues, so O and O (x) I build the same grid
        obs = spectral_decompose(Operator(np.diag([-1.0, 0.5, 2.0])))
        cfg = PointerConfig(0.5, 1.0, obs.max_abs_eigenvalue)
        rates = [
            weak_measure_pointer(GeneralizedTwoStateVector(tuple(
                (complex(scale * a), b, f) for a, (b, f) in zip(alphas, states))), obs, cfg).postselection_rate
            for scale in (1.0, 4.0, 1e-3)
        ]
        root = np.sqrt(np.abs(alphas))
        phase = np.exp(1j * np.angle(alphas))
        ancilla = np.eye(2)
        pre = sum(r * p * np.kron(f.amplitudes, e) for r, p, (_, f), e in zip(root, phase, states, ancilla))
        post = sum(r * np.kron(b.amplitudes, e) for r, (b, _), e in zip(root, states, ancilla))
        joint = spectral_decompose(Operator(np.kron(obs.op.matrix, ancilla)))
        assert joint.max_abs_eigenvalue == obs.max_abs_eigenvalue
        dilated = weak_measure_pointer(TwoStateVector(Ket(pre), Bra(post)), joint, cfg).postselection_rate
        for rate in rates:
            assert abs(rate - dilated) <= 4 * math.ulp(dilated)
        assert 0.3 < dilated < 0.4

    def test_grid_derived_from_inputs(self):
        rng = np.random.default_rng(13)
        for _ in range(500):
            sigma = 10.0 ** rng.uniform(-3.0, 3.0)
            coupling = sigma * 10.0 ** rng.uniform(-3.0, 2.0)
            radius = rng.uniform(0.5, 10.0)
            cfg = PointerConfig(coupling, sigma, radius)
            assert cfg.half_range == 10.0 * (sigma + coupling * radius)
            assert tsvlab.measure.MIN_POINTER_POINTS <= cfg.points <= tsvlab.measure.MAX_POINTER_POINTS
            assert 2.0 * cfg.half_range / (cfg.points - 1) <= sigma / tsvlab.measure.POINTS_PER_SIGMA

    @pytest.mark.parametrize("coupling", [1e-320, 1e-14, 0.99e-9])
    def test_shift_below_quadrature_resolution_rejected(self, coupling):
        tsv = boxed_spin_tsv()
        obs = diagonal_projector(4, 2)
        with pytest.raises(ConfigError, match=r"max\|eigenvalue\| = .* 1e-09 \* sigma = 1e-09"):
            weak_measure_pointer(tsv, obs, PointerConfig(coupling, 1.0, obs.max_abs_eigenvalue))

    def test_shift_floor_scales_with_sigma_and_spares_zero_spectrum(self):
        tsv = boxed_spin_tsv()
        obs = diagonal_projector(4, 2)
        result = weak_measure_pointer(tsv, obs, PointerConfig(1e-9, 1.0, 1.0))
        assert np.isfinite(result.mean_shift)
        with pytest.raises(ConfigError, match="sigma"):
            weak_measure_pointer(tsv, obs, PointerConfig(1e-9, 2.0, 1.0))
        zero = spectral_decompose(Operator(np.zeros((4, 4), dtype=complex)))
        result = weak_measure_pointer(tsv, zero, PointerConfig(1e-320, 1.0, 0.0))
        assert result.mean_shift == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("field,value", [
        (field, value)
        for field in ("coupling", "sigma")
        for value in (np.inf, -np.inf, np.nan, 0.0, -1.0)
    ] + [("sigma", 1e300), ("sigma", 1e-300), ("sigma", 5e-324),
         ("sigma", np.nextafter(tsvlab.measure.MIN_SIGMA, 0.0))])
    def test_non_finite_or_non_positive_lengths_rejected(self, field, value):
        kwargs = dict(coupling=0.1, sigma=1.0, max_abs_eigenvalue=1.0)
        kwargs[field] = value
        with pytest.raises(ConfigError, match=field):
            PointerConfig(**kwargs)

    @pytest.mark.parametrize("coupling, sigma, message", [
        (1e304, 1e307, r"grid \+-1.001e\+308 is wider than the float64 range"),
        (1.0, 1.5e308, r"below 1e-09 \* sigma = 1.5e\+299"),
    ])
    def test_numpy_inputs_near_the_maximum_raise_config_error(self, coupling, sigma, message):
        # the grid arithmetic runs on Python floats: on numpy scalars it overflowed with
        # a RuntimeWarning, which this suite's error filter raised in place of ConfigError
        with pytest.raises(ConfigError, match=message):
            PointerConfig(np.float64(coupling), np.float64(sigma), np.float64(1.0))
        cfg = PointerConfig(np.float64(0.5), np.float64(1.0), np.float64(1.0))
        assert {type(cfg.coupling), type(cfg.sigma), type(cfg.max_abs_eigenvalue)} == {float}

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, -1.0])
    def test_non_finite_or_negative_radius_rejected(self, value):
        # a negative radius shrank half_range; nan reported a grid of "nan points"
        with pytest.raises(ConfigError, match="max_abs_eigenvalue must be non-negative"):
            PointerConfig(coupling=0.1, sigma=1.0, max_abs_eigenvalue=value)

    def test_grid_cap_checked_before_allocation(self):
        cap = tsvlab.measure.MAX_POINTER_POINTS
        assert cap > 640_641  # the strong-regime g=1000 grid stays legal
        # g=6552.598 asks for exactly the cap, g=6552.599 for one point more
        assert PointerConfig(6552.598, 1.0, 1.0).points == cap == 4_194_304
        tracemalloc.start()
        try:
            # g=1e9 asks for 640,000,000,641 points, g=1e300 for an infinite count
            for coupling in (1e9, 1e300):
                with pytest.raises(ConfigError, match="MAX_POINTER_POINTS"):
                    PointerConfig(coupling, 1.0, 1.0)
            with pytest.raises(ConfigError, match="4194305.0 points exceeds MAX_POINTER_POINTS"):
                PointerConfig(6552.599, 1.0, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_memory_independent_of_eigenspace_count(self):
        rng = np.random.default_rng(8)
        tsv = random_tsv(rng, 32, min_overlap=0.05)
        # both spectra span [0, 1], so both use this 64,641-point grid
        cfg = PointerConfig(coupling=100.0, sigma=1.0, max_abs_eigenvalue=1.0)
        peaks = {}
        for count in (4, 32):
            spectrum = np.linspace(0.0, 1.0, count)
            levels = spectrum[np.arange(32) % count]
            obs = spectral_decompose(Operator(np.diag(levels).astype(complex)))
            assert len(obs.eigenvalues) == count  # decomposed before tracing starts
            tracemalloc.start()
            try:
                result = weak_measure_pointer(tsv, obs, cfg)
                peaks[count] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # reference: every packet on the grid at once, summed by one product
            ket, bra = pair_states(tsv)
            terms = bra.amplitudes.conj() * ket.amplitudes
            amplitudes = np.array([terms[levels == level].sum() for level in spectrum])
            q = result.positions
            packets = np.exp(-((q - cfg.coupling * spectrum[:, None]) ** 2) / 4.0)
            density = np.abs(amplitudes @ packets) ** 2
            density /= np.trapezoid(density, q)
            assert np.max(np.abs(result.density - density)) <= 1e-13 * density.max()
            # positions, complex wavefunction and density: four float64 words per point
            assert peaks[count] <= 32 * cfg.points + 64 * 1024
        assert peaks[32] < 1.5 * peaks[4]

    @pytest.mark.parametrize("case", sorted(WINDOW_CASES))
    def test_windowed_packets_match_full_grid_bit_for_bit(self, case):
        tsv, obs, g, sigma = WINDOW_CASES[case]()
        cfg = PointerConfig(g, sigma, obs.max_abs_eigenvalue)
        with np.errstate(all="raise") if case.startswith("scale") else contextlib.nullcontext():
            result = weak_measure_pointer(tsv, obs, cfg)
            density, mean_shift, rate = full_grid_pointer(tsv, obs, cfg)
        assert result.density.tobytes() == density.tobytes()
        assert result.mean_shift.hex() == mean_shift.hex()
        assert result.postselection_rate.hex() == rate.hex()
        # |psi|^2 / rate is never -0.0, which the CSV writer's literal "0" relies on
        assert not np.signbit(result.density).any()
        assert pointer_bump_masses(result, obs, g) == masked_bump_masses(result, obs, g)

    def test_packet_window_reaches_past_exp_underflow(self, monkeypatch):
        cut = tsvlab.measure.PACKET_EXPONENT_CUT
        # exp(-745) is the smallest subnormal; past the cut exp is exactly 0
        assert np.exp(-cut) == 0.0 < np.exp(-745.0)
        tsv, obs, g, sigma = WINDOW_CASES["strong"]()
        cfg = PointerConfig(g, sigma, obs.max_abs_eigenvalue)
        q = np.linspace(-cfg.half_range, cfg.half_range, cfg.points)
        for center in (0.0, g):
            # every nonzero value of the full-grid packet lies inside its window, down to
            # the subnormals just before exp underflows
            packet = np.exp(-((q - center) ** 2) / (4.0 * sigma**2))
            support = q[packet > 0.0]
            assert np.max(np.abs(support - center)) < 2.0 * sigma * np.sqrt(cut)
            assert packet[packet > 0.0].min() < np.finfo(float).tiny
        density, _, _ = full_grid_pointer(tsv, obs, cfg)
        assert 0.0 < density[density > 0.0].min() < np.finfo(float).tiny
        # the bit-for-bit check above sees a cut that drops nonzero density tails
        monkeypatch.setattr(tsvlab.measure, "PACKET_EXPONENT_CUT", 300.0)
        assert weak_measure_pointer(tsv, obs, cfg).density.tobytes() != density.tobytes()

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
        tsv, obs = boxed_spin_tsv(), diagonal_projector(4, 0)
        report = element_of_reality(tsv, obs)
        assert report.certain and report.value == pytest.approx(1.0)
        assert abs(weak_value(tsv, obs.op) - 1.0) <= 1e-10
        assert strong_weak_bridges(tsv, obs) == (True, True)

    def test_z_then_x_selection(self):
        tsv = TwoStateVector(Ket([1, 0]), Bra([1, 1]))
        obs = spectral_decompose(Operator(SIGMA_Z))
        report = element_of_reality(tsv, obs)
        assert report.certain and report.value == pytest.approx(1.0)
        assert abs(weak_value(tsv, obs.op) - 1.0) <= 1e-10
        assert strong_weak_bridges(tsv, obs) == (True, True)

    def test_randomized_dichotomic_sweep(self):
        rng = np.random.default_rng(8)
        for _ in range(1000):
            tsv, obs, _ = dichotomic_case_with_certain_outcome(rng, int(rng.integers(2, 6)))
            assert strong_weak_bridges(tsv, obs) == (True, True)

    def test_vacuous_when_uncertain(self):
        rng = np.random.default_rng(9)
        while True:
            tsv = random_tsv(rng, 2, min_overlap=0.05)
            obs = spectral_decompose(Operator(SIGMA_Z))
            wv = weak_value(tsv, obs.op)
            if all(abs(wv - e) > 1e-6 for e in obs.eigenvalues):
                break
        assert not element_of_reality(tsv, obs).certain
        assert strong_weak_bridges(tsv, obs) == (None, None)
