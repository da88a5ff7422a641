import inspect
import warnings

import numpy as np
import pytest

from helpers import (
    count_eigh,
    dense_two_time_table,
    dichotomic_case_with_certain_outcome,
    random_bra,
    random_hermitian,
    random_ket,
    random_observable,
    random_tsv,
)
from tsvlab import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    Bra,
    DimensionError,
    Distribution,
    GeneralizedTwoStateVector,
    HamiltonianSchedule,
    Ket,
    NotMeasurableError,
    NullEnsembleError,
    Observable,
    Operator,
    OrthogonalSelectionError,
    PointerConfig,
    RangeError,
    TimeWindowError,
    TwoStateVector,
    TwoTimeKernel,
    abl_at_time,
    abl_probabilities,
    abl_probabilities_generalized,
    element_of_reality,
    exact_conditional_oracle,
    get_scenario,
    gtsv_from_ancilla,
    product_rule_report,
    spectral_decompose,
    strong_weak_consistency,
    tensor,
    two_time_distribution,
    two_time_joint,
    weak_value,
)


def boxed_spin_tsv():
    """Spin in two boxes: pre (A_up + A_down + B_up), post (A_up + A_down - B_up)."""
    pre = Ket([1, 1, 1, 0])
    post = Bra([1, 1, -1, 0])
    return TwoStateVector(pre, post)


def diagonal_projector(dim, index):
    m = np.zeros((dim, dim), dtype=complex)
    m[index, index] = 1.0
    return spectral_decompose(Operator(m))


class TestTwoStateVector:
    def test_overlap_cached(self):
        rng = np.random.default_rng(0)
        tsv = random_tsv(rng, 4)
        recomputed = np.vdot(tsv.backward.amplitudes, tsv.forward.amplitudes)
        assert abs(tsv.overlap - recomputed) <= 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            TwoStateVector(Ket([1, 0]), Bra([1, 0, 0]))


class TestAblProbabilities:
    def test_boxed_spin_certainty(self):
        dist = abl_probabilities(boxed_spin_tsv(), diagonal_projector(4, 0))
        assert dict(dist.entries)[1.0] == pytest.approx(1.0, abs=1e-12)

    def test_forward_eigenstate_gives_certainty(self):
        # observable whose eigenbasis contains the forward state
        rng = np.random.default_rng(1)
        psi = random_ket(rng, 3)
        proj = np.outer(psi.amplitudes, psi.amplitudes.conj())
        obs = spectral_decompose(Operator(2.5 * proj))  # eigenvalues {0, 2.5}
        phi = random_bra(rng, 3)
        tsv = TwoStateVector(psi, phi)
        if abs(tsv.overlap) < 1e-3:
            phi = Bra(phi.amplitudes + psi.amplitudes)
            tsv = TwoStateVector(psi, phi)
        dist = abl_probabilities(tsv, obs)
        assert dict(dist.entries)[2.5] == pytest.approx(1.0, abs=1e-12)

    def test_matches_conditional_oracle(self):
        rng = np.random.default_rng(2)
        tsv = random_tsv(rng, 3)
        obs = random_observable(rng, 3)
        a = abl_probabilities(tsv, obs)
        b = exact_conditional_oracle(tsv.forward, tsv.backward, obs)
        np.testing.assert_allclose(a.probabilities, b.probabilities, atol=1e-12)

    def test_null_ensemble(self):
        tsv = TwoStateVector(Ket([1, 0]), Bra([0, 1]))
        with pytest.raises(NullEnsembleError):
            abl_probabilities(tsv, spectral_decompose(Operator(SIGMA_Z)))

    def test_normalized_output(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            dim = int(rng.integers(2, 7))
            dist = abl_probabilities(random_tsv(rng, dim), random_observable(rng, dim))
            assert abs(sum(dist.probabilities) - 1.0) <= 1e-12
            assert all(p >= 0.0 for p in dist.probabilities)

    def test_scale_and_phase_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            dim = int(rng.integers(2, 5))
            tsv = random_tsv(rng, dim)
            obs = random_observable(rng, dim)
            base = abl_probabilities(tsv, obs)
            c1 = complex(rng.normal(), rng.normal())
            c2 = complex(rng.normal(), rng.normal())
            if abs(c1) < 1e-3 or abs(c2) < 1e-3:
                continue
            scaled = TwoStateVector(
                Ket(c1 * tsv.forward.amplitudes), Bra(c2 * tsv.backward.amplitudes)
            )
            np.testing.assert_allclose(
                abl_probabilities(scaled, obs).probabilities, base.probabilities, atol=1e-12
            )
            wv_base = weak_value(tsv, obs.op)
            wv_scaled = weak_value(scaled, obs.op)
            assert abs(wv_base - wv_scaled) <= 1e-10 * max(1.0, abs(wv_base))

    def test_exchange_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            dim = int(rng.integers(2, 6))
            tsv = random_tsv(rng, dim)
            obs = random_observable(rng, dim)
            swapped = TwoStateVector(tsv.backward.dagger(), tsv.forward.dagger())
            np.testing.assert_allclose(
                abl_probabilities(tsv, obs).probabilities,
                abl_probabilities(swapped, obs).probabilities,
                atol=1e-12,
            )


class TestAblAtTime:
    def test_free_evolution_reduces_to_plain_abl(self):
        tsv = boxed_spin_tsv()
        schedule = HamiltonianSchedule.constant(Operator(np.zeros((4, 4))), 2.0)
        obs = diagonal_projector(4, 0)
        at_t = abl_at_time(tsv.forward, tsv.backward, schedule, 1.0, obs)
        plain = abl_probabilities(tsv, obs)
        np.testing.assert_allclose(at_t.probabilities, plain.probabilities, atol=1e-14)

    def test_both_spin_components_certain(self):
        pre = Ket([1, 0])       # up along z
        post = Bra([1, 1])      # up along x
        schedule = HamiltonianSchedule.constant(Operator(np.zeros((2, 2))), 1.0)
        for pauli in (SIGMA_Z, SIGMA_X):
            dist = abl_at_time(pre, post, schedule, 0.5, spectral_decompose(Operator(pauli)))
            assert dict(dist.entries)[1.0] == pytest.approx(1.0, abs=1e-12)

    def test_consistent_with_manual_evolution(self):
        from tsvlab import evolve_backward, evolve_forward

        rng = np.random.default_rng(6)
        schedule = HamiltonianSchedule(
            ((0.4, random_hermitian(rng, 3)), (0.9, random_hermitian(rng, 3)))
        )
        pre, post = random_ket(rng, 3), random_bra(rng, 3)
        obs = random_observable(rng, 3)
        t = 0.7
        direct = abl_at_time(pre, post, schedule, t, obs)
        before, after = schedule.split_at(t)
        manual = abl_probabilities(
            TwoStateVector(evolve_forward(pre, before), evolve_backward(post, after)), obs
        )
        np.testing.assert_allclose(direct.probabilities, manual.probabilities, atol=1e-14)

    def test_time_window(self):
        schedule = HamiltonianSchedule.constant(Operator(np.zeros((2, 2))), 1.0)
        with pytest.raises(TimeWindowError):
            abl_at_time(
                Ket([1, 0]),
                Bra([1, 1]),
                schedule,
                2.0,
                spectral_decompose(Operator(SIGMA_Z)),
            )


class TestGeneralized:
    def test_weight_scale_drops_out(self):
        rng = np.random.default_rng(8)
        tsv = random_tsv(rng, 3, min_overlap=0.05)
        obs = random_observable(rng, 3)
        # |alpha * amplitude|**2 overflows for |alpha| past ~1e154 and abs()
        # itself overflows for 1.7e308 + 1.7e308j; unscaled, a 1e-13 weight puts
        # the results under the absolute empty-ensemble and orthogonality thresholds
        for alpha in (1e300j, -1e300 + 1e300j, 1.7e308 + 1.7e308j, 1e-13, -1e-300j, 5e-324):
            g = GeneralizedTwoStateVector(((alpha, tsv.backward, tsv.forward),))
            assert 0.5 <= max(abs(g.terms[0][0].real), abs(g.terms[0][0].imag)) < 1.0
            np.testing.assert_allclose(
                abl_probabilities(g, obs).probabilities,
                abl_probabilities(tsv, obs).probabilities,
                atol=1e-14,
            )
            assert abs(weak_value(g, obs.op) - weak_value(tsv, obs.op)) <= 1e-12
        # a power-of-two weight scales exactly: the same bits as alpha = 1
        for alpha in (2.0**600, 2.0**-600):
            g = GeneralizedTwoStateVector(((alpha, tsv.backward, tsv.forward),))
            assert abl_probabilities(g, obs) == abl_probabilities(tsv, obs)
            assert weak_value(g, obs.op) == weak_value(tsv, obs.op)

    def test_single_term_embedding(self):
        rng = np.random.default_rng(7)
        tsv = random_tsv(rng, 3)
        g = GeneralizedTwoStateVector(tsv.terms)
        obs = random_observable(rng, 3)
        np.testing.assert_allclose(
            abl_probabilities_generalized(g, obs).probabilities,
            abl_probabilities(tsv, obs).probabilities,
            atol=1e-14,
        )
        assert abs(weak_value(g, obs.op) - weak_value(tsv, obs.op)) <= 1e-12
        # a two-state vector is the one-term generalized one, bit for bit
        assert g.terms == tsv.terms
        assert abl_probabilities_generalized(g, obs) == abl_probabilities(tsv, obs)
        assert weak_value(g, obs.op) == weak_value(tsv, obs.op)
        assert element_of_reality(g, obs) == element_of_reality(tsv, obs)
        boxed = boxed_spin_tsv()
        certain = element_of_reality(
            GeneralizedTwoStateVector(boxed.terms), diagonal_projector(4, 0)
        )
        assert certain.certain
        assert certain == element_of_reality(boxed, diagonal_projector(4, 0))

    def test_product_ancilla_single_term(self):
        rng = np.random.default_rng(8)
        psi, phi = random_ket(rng, 2), random_bra(rng, 2)
        ancilla0 = Ket([1, 0])
        joint_pre = tensor(psi, ancilla0)
        joint_post = tensor(phi, Bra([1, 0]))
        g = gtsv_from_ancilla(joint_pre, joint_post, 2, 2)
        assert len(g.terms) == 1
        alpha, bwd, fwd = g.terms[0]
        assert alpha == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(fwd.amplitudes, psi.amplitudes, atol=1e-12)
        np.testing.assert_allclose(bwd.amplitudes, phi.amplitudes, atol=1e-12)

    def test_bell_pre_two_terms(self):
        bell = Ket([1, 0, 0, 1])
        post = tensor(Bra([1, 1]), Bra([1, -1]))
        g = gtsv_from_ancilla(bell, post, 2, 2)
        assert len(g.terms) == 2

    def test_joint_consistency_random(self):
        rng = np.random.default_rng(9)
        for system_dim, ancilla_dim in ((2, 2), (3, 2)):
            for _ in range(20):
                joint = system_dim * ancilla_dim
                pre, post = random_ket(rng, joint), random_bra(rng, joint)
                obs = random_observable(rng, system_dim)
                joint_obs = spectral_decompose(
                    tensor(obs.op, Operator.identity(ancilla_dim))
                )
                g = gtsv_from_ancilla(pre, post, system_dim, ancilla_dim)
                reduced = abl_probabilities_generalized(g, obs)
                full = abl_probabilities(TwoStateVector(pre, post), joint_obs)
                np.testing.assert_allclose(reduced.outcomes, full.outcomes, atol=1e-9)
                np.testing.assert_allclose(
                    reduced.probabilities, full.probabilities, atol=1e-12
                )
                wv_reduced = weak_value(g, obs.op)
                wv_full = weak_value(
                    TwoStateVector(pre, post), tensor(obs.op, Operator.identity(ancilla_dim))
                )
                assert abs(wv_reduced - wv_full) <= 1e-12 * max(1.0, abs(wv_full))

    def test_disjoint_sectors_rejected(self):
        pre = tensor(Ket([1, 1]), Ket([1, 0]))
        post = tensor(Bra([1, 1]), Bra([0, 1]))
        with pytest.raises(NullEnsembleError):
            gtsv_from_ancilla(pre, post, 2, 2)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            gtsv_from_ancilla(Ket([1, 0, 0]), Bra([1, 0, 0]), 2, 2)

    def test_needs_nonzero_weight(self):
        with pytest.raises(NullEnsembleError):
            GeneralizedTwoStateVector(((0.0, Bra([1, 0]), Ket([1, 0])),))

    def test_product_rule_on_mean_king_reduction(self):
        scenario = get_scenario("mean-king")
        values = dict(zip(("sigma_x", "sigma_y", "sigma_z"), scenario.details["value_table"][0]))
        for name, value in values.items():
            obs = scenario.observables[name]
            report = product_rule_report(scenario.selection, obs, obs)
            assert report.all_certain
            assert report.a.value == pytest.approx(value, abs=1e-9)
            assert report.product.value == pytest.approx(1.0, abs=1e-9)
            assert report.product_rule_holds is True
        with pytest.raises(NotMeasurableError):
            product_rule_report(
                scenario.selection, scenario.observables["sigma_x"], scenario.observables["sigma_y"]
            )


NON_FINITE = pytest.mark.parametrize(
    "bad", [float("nan"), float("inf"), float("-inf")], ids=["nan", "+inf", "-inf"]
)


class TestNonFiniteRejected:
    @NON_FINITE
    def test_generalized_weight_beside_a_finite_one(self, bad):
        bra, ket = Bra([1, 1]), Ket([1, 0])
        with pytest.raises(ValueError, match="finite"):
            GeneralizedTwoStateVector(((bad, bra, ket), (1.0, bra, ket)))

    @NON_FINITE
    def test_lone_generalized_weight(self, bad):
        with pytest.raises(ValueError, match="finite"):
            GeneralizedTwoStateVector(((bad, Bra([1, 1]), Ket([1, 0])),))

    @NON_FINITE
    def test_imaginary_part_of_weight(self, bad):
        with pytest.raises(ValueError, match="finite"):
            GeneralizedTwoStateVector(((complex(1.0, bad), Bra([1, 1]), Ket([1, 0])),))

    @NON_FINITE
    def test_distribution_probability(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Distribution(((-1.0, bad), (1.0, 1.0)))


class TestWeakValue:
    def test_identity_is_one(self):
        rng = np.random.default_rng(10)
        tsv = random_tsv(rng, 4, min_overlap=0.05)
        assert abs(weak_value(tsv, Operator.identity(4)) - 1.0) <= 1e-12

    def test_boxed_spin_projection_is_minus_one(self):
        tsv = boxed_spin_tsv()
        obs = diagonal_projector(4, 2)
        # direct ratio of raw sandwiches, no shared code path
        phi, psi = tsv.backward.amplitudes, tsv.forward.amplitudes
        oracle = np.vdot(phi, obs.op.matrix @ psi) / np.vdot(phi, psi)
        assert oracle == pytest.approx(-1.0, abs=1e-12)
        assert weak_value(tsv, obs.op) == pytest.approx(-1.0, abs=1e-12)

    def test_coinciding_selections_give_expectation(self):
        rng = np.random.default_rng(11)
        psi = random_ket(rng, 3)
        op = random_hermitian(rng, 3)
        tsv = TwoStateVector(psi, psi.dagger())
        expectation = np.vdot(psi.amplitudes, op.matrix @ psi.amplitudes)
        assert abs(weak_value(tsv, op) - expectation) <= 1e-12

    def test_orthogonal_selection_rejected(self):
        tsv = TwoStateVector(Ket([1, 0]), Bra([0, 1]))
        with pytest.raises(OrthogonalSelectionError):
            weak_value(tsv, Operator(SIGMA_X))

    def test_overflowing_ratio_rejected(self):
        tsv = TwoStateVector(Ket([1, 1e-9]), Bra([0, 1]))
        with pytest.raises(RangeError, match="overflows"):
            weak_value(tsv, Operator(np.full((2, 2), 1e300, dtype=complex)))

    def test_linearity(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            dim = int(rng.integers(2, 6))
            tsv = random_tsv(rng, dim, min_overlap=0.05)
            a, b = random_hermitian(rng, dim), random_hermitian(rng, dim)
            ca, cb = complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal())
            combined = Operator(ca * a.matrix + cb * b.matrix)
            lhs = weak_value(tsv, combined)
            rhs = ca * weak_value(tsv, a) + cb * weak_value(tsv, b)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_projector_completeness(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            dim = int(rng.integers(2, 6))
            tsv = random_tsv(rng, dim, min_overlap=0.05)
            obs = random_observable(rng, dim)
            total = sum(weak_value(tsv, proj) for proj in obs.projectors)
            assert abs(total - 1.0) <= 1e-12


class TestElementOfReality:
    def test_boxed_spin_elements(self):
        tsv = boxed_spin_tsv()
        for index in (0, 1):
            report = element_of_reality(tsv, diagonal_projector(4, index))
            assert report.certain
            assert report.value == pytest.approx(1.0, abs=1e-9)

    def test_generic_not_certain(self):
        rng = np.random.default_rng(14)
        report = element_of_reality(random_tsv(rng, 4), random_observable(rng, 4))
        assert not report.certain
        assert report.value is None

    def test_strong_implies_weak(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            tsv, obs, expected = dichotomic_case_with_certain_outcome(rng, int(rng.integers(2, 6)))
            report = element_of_reality(tsv, obs)
            assert report.certain
            assert abs(weak_value(tsv, obs.op) - report.value) <= 1e-10

    def test_weak_at_eigenvalue_implies_certainty(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            tsv, obs, expected = dichotomic_case_with_certain_outcome(rng, int(rng.integers(2, 6)))
            wv = weak_value(tsv, obs.op)
            matches = [e for e in obs.eigenvalues if abs(wv - e) <= 1e-10]
            assert matches == [pytest.approx(expected)]
            dist = abl_probabilities(tsv, obs)
            assert dict(dist.entries)[matches[0]] >= 1.0 - 1e-10


class TestProductRule:
    def test_boxed_spin_failure(self):
        tsv = boxed_spin_tsv()
        report = product_rule_report(tsv, diagonal_projector(4, 0), diagonal_projector(4, 1))
        assert report.a.certain and report.a.value == pytest.approx(1.0)
        assert report.b.certain and report.b.value == pytest.approx(1.0)
        assert report.product.certain and report.product.value == pytest.approx(0.0, abs=1e-9)
        assert report.product_rule_holds is False

    def test_holds_for_pre_selected(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            dim = int(rng.integers(2, 6))
            basis, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
            d1 = np.sort(rng.normal(size=dim) * 2)
            d2 = np.sort(rng.normal(size=dim) * 2)
            obs_a = spectral_decompose(Operator(basis @ np.diag(d1) @ basis.conj().T))
            obs_b = spectral_decompose(Operator(basis @ np.diag(d2) @ basis.conj().T))
            column = int(rng.integers(0, dim))
            psi = Ket(basis[:, column])
            tsv = TwoStateVector(psi, psi.dagger())
            report = product_rule_report(tsv, obs_a, obs_b)
            if report.all_certain:
                assert report.product_rule_holds is True

    def test_commuting_diagonal_trivial(self):
        obs_a = spectral_decompose(Operator(np.diag([1.0, 2.0, 3.0])))
        obs_b = spectral_decompose(Operator(np.diag([5.0, 7.0, 11.0])))
        psi = Ket([0, 1, 0])
        report = product_rule_report(TwoStateVector(psi, psi.dagger()), obs_a, obs_b)
        assert report.all_certain
        assert report.product_rule_holds is True

    def test_non_hermitian_product_rejected(self):
        psi = Ket([1, 0])
        tsv = TwoStateVector(psi, psi.dagger())
        with pytest.raises(NotMeasurableError):
            product_rule_report(
                tsv,
                spectral_decompose(Operator(SIGMA_X)),
                spectral_decompose(Operator(SIGMA_Y)),
            )


class TestTwoTimeKernel:
    def correlated_kernel(self):
        return TwoTimeKernel(np.eye(2, dtype=complex) / np.sqrt(2))

    def test_z_measurements_agree(self):
        k = self.correlated_kernel()
        obs = spectral_decompose(Operator(SIGMA_Z))
        up, down = obs.projectors[1], obs.projectors[0]
        p_uu = two_time_joint(k, up, up)
        p_dd = two_time_joint(k, down, down)
        p_ud = two_time_joint(k, up, down)
        assert p_uu + p_dd == pytest.approx(1.0, abs=1e-12)
        assert p_ud == pytest.approx(0.0, abs=1e-12)

    def test_all_directions_agree(self):
        k = self.correlated_kernel()
        rng = np.random.default_rng(18)
        for _ in range(100):
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            obs = spectral_decompose(Operator(n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z))
            same = sum(
                two_time_joint(k, pa, pb)
                for (va, pa) in zip(obs.eigenvalues, obs.projectors)
                for (vb, pb) in zip(obs.eigenvalues, obs.projectors)
                if abs(va - vb) <= 1e-9
            )
            assert same == pytest.approx(1.0, abs=1e-12)

    def test_rank_one_kernel(self):
        k = TwoTimeKernel(np.diag([1.0, 0.0]).astype(complex))
        obs = spectral_decompose(Operator(SIGMA_Z))
        up = obs.projectors[1]
        assert two_time_joint(k, up, up) == pytest.approx(1.0, abs=1e-12)

    def test_generic_kernel_breaks_correlation(self):
        k = TwoTimeKernel(np.array([[1.0, 0.3], [0.1j, 0.7]]))
        rng = np.random.default_rng(19)
        deviations = []
        for _ in range(50):
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            obs = spectral_decompose(Operator(n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z))
            same = sum(
                two_time_joint(k, pa, pb)
                for (va, pa) in zip(obs.eigenvalues, obs.projectors)
                for (vb, pb) in zip(obs.eigenvalues, obs.projectors)
                if abs(va - vb) <= 1e-9
            )
            deviations.append(abs(same - 1.0))
        assert max(deviations) > 1e-6

    def test_zero_kernel_rejected(self):
        with pytest.raises(NullEnsembleError):
            TwoTimeKernel(np.zeros((2, 2)))

    def test_non_rank_one_projector_rejected(self):
        k = self.correlated_kernel()
        with pytest.raises(ValueError):
            two_time_joint(k, Operator.identity(2), Operator.identity(2))

    def test_scaled_kernel_neither_overflows_nor_moves(self):
        # |1e200|**2 overflows float64: the kernel is scaled by a power of two first
        obs = spectral_decompose(Operator(SIGMA_Z))
        k = TwoTimeKernel(1e200 * np.eye(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = two_time_distribution(k, obs, obs)
            joint = [two_time_joint(k, pa, pb) for pa in obs.projectors for pb in obs.projectors]
        np.testing.assert_allclose(table.ravel(), [0.5, 0.0, 0.0, 0.5], rtol=0, atol=1e-15)
        np.testing.assert_allclose(joint, [0.5, 0.0, 0.0, 0.5], rtol=0, atol=1e-15)
        rng = np.random.default_rng(20)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        obs = random_observable(rng, 3)
        table = two_time_distribution(TwoTimeKernel(m), obs, obs)
        for power in (-1000, -1, 1, 600):
            scaled = two_time_distribution(TwoTimeKernel(2.0**power * m), obs, obs)
            assert scaled.tobytes() == table.tobytes()


def random_kernel(rng, dim_forward, dim_backward):
    return TwoTimeKernel(
        rng.normal(size=(dim_forward, dim_backward)) + 1j * rng.normal(size=(dim_forward, dim_backward))
    )


def degenerate_observable(rng, levels):
    """Observable with the given eigenvalues (repeats make degenerate eigenspaces) in a random basis."""
    dim = len(levels)
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return spectral_decompose(Operator(q @ np.diag(levels) @ q.conj().T))


class TestTwoTimeDistribution:
    def assert_matches_dense(self, k, obs_a, obs_b):
        table = two_time_distribution(k, obs_a, obs_b)
        assert table.shape == (len(obs_a.eigenvalues), len(obs_b.eigenvalues))
        np.testing.assert_allclose(table, dense_two_time_table(k, obs_a, obs_b), rtol=0, atol=1e-15)
        assert abs(table.sum() - 1.0) <= 1e-12

    def test_random_square_kernels(self):
        rng = np.random.default_rng(21)
        for dim in range(2, 7):
            for _ in range(10):
                k = random_kernel(rng, dim, dim)
                self.assert_matches_dense(k, random_observable(rng, dim), random_observable(rng, dim))

    def test_degenerate_leg(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            k = random_kernel(rng, 3, 3)
            obs_a = degenerate_observable(rng, [1.0, 1.0, 2.0])
            assert len(obs_a.eigenvalues) == 2
            self.assert_matches_dense(k, obs_a, random_observable(rng, 3))
            self.assert_matches_dense(k, random_observable(rng, 3), obs_a)

    def test_non_square_kernel(self):
        rng = np.random.default_rng(23)
        for dim_a, dim_b in ((2, 3), (4, 2), (5, 3)):
            k = random_kernel(rng, dim_a, dim_b)
            obs_b = degenerate_observable(rng, [-1.0] * (dim_b - 1) + [1.0])
            self.assert_matches_dense(k, random_observable(rng, dim_a), obs_b)

    def test_rank_one_entry_is_two_time_joint(self):
        rng = np.random.default_rng(24)
        k = random_kernel(rng, 3, 2)
        obs_a, obs_b = random_observable(rng, 3), random_observable(rng, 2)
        table = two_time_distribution(k, obs_a, obs_b)
        for m, pa in enumerate(obs_a.projectors):
            for n, pb in enumerate(obs_b.projectors):
                assert two_time_joint(k, pa, pb) == pytest.approx(table[m, n], abs=1e-15)

    @pytest.mark.parametrize("matrix", [
        [[0.0, 1.0], [0.0, 0.0]],  # not Hermitian
        [[0.5, 0.0], [0.0, 0.5]],  # trace 1, not idempotent
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]],  # rank 2
        [[0.0, 0.0], [0.0, 0.0]],  # rank 0
        [[0.5, 0.0], [0.0, 0.0]],  # rank 1 but half a projector: its column read has norm^2 0.5
    ])
    def test_two_time_joint_rejects_non_rank_one(self, matrix):
        proj = Operator(np.array(matrix, dtype=complex))
        k = TwoTimeKernel(np.eye(proj.dim))
        good = spectral_decompose(Operator(np.diag([1.0] + [0.0] * (proj.dim - 1)))).projectors[1]
        with pytest.raises(ValueError):
            two_time_joint(k, proj, good)
        with pytest.raises(ValueError):
            two_time_joint(k, good, proj)

    def test_two_time_joint_never_decomposes(self, monkeypatch):
        rng = np.random.default_rng(26)
        k = random_kernel(rng, 4, 3)
        pa, pb = random_observable(rng, 4).projectors[1], random_observable(rng, 3).projectors[2]
        calls = count_eigh(monkeypatch)
        two_time_joint(k, pa, pb)
        assert calls == []

    def test_complex_phase_rank_one_projectors(self):
        # v v^dagger for any phase of v is the same projector: its column read
        # gives v up to a phase, which the modulus drops
        rng = np.random.default_rng(27)
        for dim in range(2, 9):
            k = random_kernel(rng, dim, dim)
            obs_a, obs_b = random_observable(rng, dim), random_observable(rng, dim)
            table = two_time_distribution(k, obs_a, obs_b)
            for _ in range(3):
                m, n = rng.integers(dim, size=2)
                a = obs_a.eigenvectors[:, m] * np.exp(1j * rng.uniform(0, 2 * np.pi))
                b = obs_b.eigenvectors[:, n] * np.exp(1j * rng.uniform(0, 2 * np.pi))
                joint = two_time_joint(k, Operator(np.outer(a, a.conj())), Operator(np.outer(b, b.conj())))
                assert abs(joint - table[m, n]) <= 1e-15

    @pytest.mark.parametrize("size, accepted", [(1e-12, True), (1e-6, False)])
    def test_perturbed_projector(self, size, accepted):
        rng = np.random.default_rng(28)
        k = random_kernel(rng, 5, 5)
        good = random_observable(rng, 5).projectors[2]
        noise = random_hermitian(rng, 5).matrix
        perturbed = Operator(good.matrix + size * noise / np.abs(noise).max())
        for legs in ((perturbed, good), (good, perturbed)):
            if accepted:
                assert two_time_joint(k, *legs) == pytest.approx(two_time_joint(k, good, good), abs=1e-10)
            else:
                with pytest.raises(ValueError, match="rank-1 idempotent"):
                    two_time_joint(k, *legs)

    def test_mismatched_leg_dims_rejected(self):
        rng = np.random.default_rng(25)
        k = random_kernel(rng, 2, 3)
        with pytest.raises(DimensionError):
            two_time_distribution(k, random_observable(rng, 3), random_observable(rng, 3))
        with pytest.raises(DimensionError):
            two_time_distribution(k, random_observable(rng, 2), random_observable(rng, 2))


def test_thresholds_are_module_constants_not_parameters():
    functions = (spectral_decompose, Observable, weak_value, element_of_reality,
                 product_rule_report, strong_weak_consistency, PointerConfig.auto)
    params = {name for f in functions for name in inspect.signature(f).parameters}
    assert not params & {"degeneracy_tol", "threshold", "tol", "value_tol", "points_per_sigma"}
