import inspect
import math
import warnings

import numpy as np
import pytest

from helpers import (
    count_eigh,
    dense_two_time_table,
    dichotomic_case_with_certain_outcome,
    pair_states,
    random_bra,
    random_hermitian,
    random_ket,
    random_observable,
    random_tsv,
    spread_amplitudes,
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
    at_time,
    element_of_reality,
    exact_conditional_oracle,
    get_scenario,
    gtsv_from_ancilla,
    overlap,
    product_rule_report,
    spectral_decompose,
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
    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            TwoStateVector(Ket([1, 0]), Bra([1, 0, 0]))

    def test_is_the_one_term_generalized_selection(self):
        ket, bra = Ket([1, 1j, 0]), Bra([1, 0, -1])
        tsv = TwoStateVector(ket, bra)
        assert isinstance(tsv, GeneralizedTwoStateVector)
        assert tsv.terms == ((1 + 0j, bra, ket),)
        (alpha, backward, forward), = tsv.terms
        assert type(alpha) is complex
        assert backward is bra and forward is ket
        assert not hasattr(tsv, "forward") and not hasattr(tsv, "backward")  # a pair is a constructor only
        assert tsv.dim == 3


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
        if abs(overlap(phi, psi)) < 1e-3:
            phi = Bra(phi.amplitudes + psi.amplitudes)
            tsv = TwoStateVector(psi, phi)
        dist = abl_probabilities(tsv, obs)
        assert dict(dist.entries)[2.5] == pytest.approx(1.0, abs=1e-12)

    def test_matches_conditional_oracle(self):
        rng = np.random.default_rng(2)
        tsv = random_tsv(rng, 3)
        obs = random_observable(rng, 3)
        a = abl_probabilities(tsv, obs)
        b = exact_conditional_oracle(*pair_states(tsv), obs)
        np.testing.assert_allclose(np.array(a.entries)[:, 1], np.array(b.entries)[:, 1], atol=1e-12)

    def test_null_ensemble(self):
        tsv = TwoStateVector(Ket([1, 0]), Bra([0, 1]))
        with pytest.raises(NullEnsembleError):
            abl_probabilities(tsv, spectral_decompose(Operator(SIGMA_Z)))

    def test_normalized_output(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            dim = int(rng.integers(2, 7))
            dist = abl_probabilities(random_tsv(rng, dim), random_observable(rng, dim))
            assert abs(sum(np.array(dist.entries)[:, 1]) - 1.0) <= 1e-12
            assert all(p >= 0.0 for p in np.array(dist.entries)[:, 1])

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
            ket, bra = pair_states(tsv)
            scaled = TwoStateVector(Ket(c1 * ket.amplitudes), Bra(c2 * bra.amplitudes))
            np.testing.assert_allclose(
                np.array(abl_probabilities(scaled, obs).entries)[:, 1],
                np.array(base.entries)[:, 1],
                atol=1e-12,
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
            ket, bra = pair_states(tsv)
            swapped = TwoStateVector(Ket(bra.amplitudes), Bra(ket.amplitudes))
            np.testing.assert_allclose(
                np.array(abl_probabilities(tsv, obs).entries)[:, 1],
                np.array(abl_probabilities(swapped, obs).entries)[:, 1],
                atol=1e-12,
            )


class TestAblAtTime:
    def test_free_evolution_reduces_to_plain_abl(self):
        tsv = boxed_spin_tsv()
        schedule = HamiltonianSchedule(((2.0, Operator(np.zeros((4, 4)))),))
        obs = diagonal_projector(4, 0)
        at_t = abl_at_time(*pair_states(tsv), schedule, 1.0, obs)
        plain = abl_probabilities(tsv, obs)
        np.testing.assert_allclose(np.array(at_t.entries)[:, 1], np.array(plain.entries)[:, 1], atol=1e-14)

    def test_both_spin_components_certain(self):
        pre = Ket([1, 0])       # up along z
        post = Bra([1, 1])      # up along x
        schedule = HamiltonianSchedule(((1.0, Operator(np.zeros((2, 2)))),))
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
        np.testing.assert_allclose(np.array(direct.entries)[:, 1], np.array(manual.entries)[:, 1], atol=1e-14)

    def test_time_window(self):
        schedule = HamiltonianSchedule(((1.0, Operator(np.zeros((2, 2)))),))
        with pytest.raises(TimeWindowError):
            abl_at_time(
                Ket([1, 0]),
                Bra([1, 1]),
                schedule,
                2.0,
                spectral_decompose(Operator(SIGMA_Z)),
            )

    def test_at_time_decomposes_each_segment_once(self, monkeypatch):
        # an n-term selection over k segments runs k eighs, not n k: each segment's
        # eigh is cached on its Hamiltonian, which both halves of a split segment share
        rng = np.random.default_rng(32)
        schedule = HamiltonianSchedule(tuple((0.5, random_hermitian(rng, 3)) for _ in range(3)))
        selection = GeneralizedTwoStateVector(tuple(
            (complex(i + 1, -i), random_bra(rng, 3), random_ket(rng, 3)) for i in range(4)
        ))
        calls = count_eigh(monkeypatch)
        moved = at_time(selection, schedule, 0.8)
        assert calls == [(3, 3)] * 3
        assert [a for a, _, _ in moved.terms] == [a for a, _, _ in selection.terms]


class TestGeneralized:
    def test_weight_scale_drops_out(self):
        rng = np.random.default_rng(8)
        tsv = random_tsv(rng, 3, min_overlap=0.05)
        obs = random_observable(rng, 3)
        # |alpha * amplitude|**2 overflows for |alpha| past ~1e154 and abs()
        # itself overflows for 1.7e308 + 1.7e308j; unscaled, a 1e-13 weight puts
        # the results under the absolute empty-ensemble and orthogonality thresholds
        for alpha in (1e300j, -1e300 + 1e300j, 1.7e308 + 1.7e308j, 1e-13, -1e-300j, 5e-324):
            g = GeneralizedTwoStateVector(((alpha, *tsv.terms[0][1:]),))
            assert 0.5 <= max(abs(g.terms[0][0].real), abs(g.terms[0][0].imag)) < 1.0
            np.testing.assert_allclose(
                np.array(abl_probabilities(g, obs).entries)[:, 1],
                np.array(abl_probabilities(tsv, obs).entries)[:, 1],
                atol=1e-14,
            )
            assert abs(weak_value(g, obs.op) - weak_value(tsv, obs.op)) <= 1e-12
        # a power-of-two weight scales exactly: the same bits as alpha = 1
        for alpha in (2.0**600, 2.0**-600):
            g = GeneralizedTwoStateVector(((alpha, *tsv.terms[0][1:]),))
            assert abl_probabilities(g, obs) == abl_probabilities(tsv, obs)
            assert weak_value(g, obs.op) == weak_value(tsv, obs.op)

    def test_single_term_embedding(self):
        rng = np.random.default_rng(7)
        tsv = random_tsv(rng, 3)
        g = GeneralizedTwoStateVector(tsv.terms)
        obs = random_observable(rng, 3)
        np.testing.assert_allclose(
            np.array(abl_probabilities_generalized(g, obs).entries)[:, 1],
            np.array(abl_probabilities(tsv, obs).entries)[:, 1],
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
        joint_pre = Ket(np.kron(psi.amplitudes, ancilla0.amplitudes))
        joint_post = Bra(np.kron(phi.amplitudes, [1, 0]))
        g = gtsv_from_ancilla(joint_pre, joint_post, 2, 2)
        assert len(g.terms) == 1
        alpha, bwd, fwd = g.terms[0]
        assert alpha == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(fwd.amplitudes, psi.amplitudes, atol=1e-12)
        np.testing.assert_allclose(bwd.amplitudes, phi.amplitudes, atol=1e-12)

    def test_bell_pre_two_terms(self):
        bell = Ket([1, 0, 0, 1])
        post = Bra(np.kron([1, 1], [1, -1]))
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
                    Operator(np.kron(obs.op.matrix, np.eye(ancilla_dim)))
                )
                g = gtsv_from_ancilla(pre, post, system_dim, ancilla_dim)
                reduced = abl_probabilities_generalized(g, obs)
                full = abl_probabilities(TwoStateVector(pre, post), joint_obs)
                np.testing.assert_allclose(
                    np.array(reduced.entries)[:, 0], np.array(full.entries)[:, 0], atol=1e-9
                )
                np.testing.assert_allclose(
                    np.array(reduced.entries)[:, 1], np.array(full.entries)[:, 1], atol=1e-12
                )
                wv_reduced = weak_value(g, obs.op)
                wv_full = weak_value(
                    TwoStateVector(pre, post), Operator(np.kron(obs.op.matrix, np.eye(ancilla_dim)))
                )
                assert abs(wv_reduced - wv_full) <= 1e-12 * max(1.0, abs(wv_full))

    @pytest.mark.parametrize("spread", [0, 20, 60])
    def test_weights_match_the_linalg_norm_reference(self, spread):
        # each weight is np.linalg.norm(fwd) * np.linalg.norm(bwd), bit for bit, before the
        # generalized vector's exact power-of-two rescale, which both sides then share
        for seed, (system_dim, ancilla_dim) in enumerate(((1, 1), (2, 2), (3, 2), (2, 5), (8, 8), (1, 64))):
            for exponent in (-1060, -451, 0, 451, 1000):
                joint = system_dim * ancilla_dim
                pre = Ket(spread_amplitudes(seed, joint, exponent, spread))
                post = Bra(spread_amplitudes(seed + 100, joint, exponent, spread))
                fwd = pre.amplitudes.reshape(system_dim, ancilla_dim).T
                bwd = post.amplitudes.reshape(system_dim, ancilla_dim).T
                expected = GeneralizedTwoStateVector(tuple(
                    (w, Bra(b), Ket(f)) for f, b in zip(fwd, bwd)
                    if (w := np.linalg.norm(f) * np.linalg.norm(b)) > 1e-14
                ))
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    g = gtsv_from_ancilla(pre, post, system_dim, ancilla_dim)
                assert len(g.terms) == len(expected.terms)
                for (a, b, f), (a_ref, b_ref, f_ref) in zip(g.terms, expected.terms):
                    assert np.array(a).tobytes() == np.array(a_ref).tobytes()
                    assert b.amplitudes.tobytes() == b_ref.amplitudes.tobytes()
                    assert f.amplitudes.tobytes() == f_ref.amplitudes.tobytes()

    def test_disjoint_sectors_rejected(self):
        pre = Ket(np.kron([1, 1], [1, 0]))
        post = Bra(np.kron([1, 1], [0, 1]))
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
    def test_kernel_entry(self, bad):
        for entry in (bad, complex(0.0, bad)):
            with pytest.raises(ValueError, match="^kernel entries must be finite$"):
                TwoTimeKernel([[1.0, entry], [0.0, 1.0]])

    @NON_FINITE
    def test_distribution_probability(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Distribution(((-1.0, bad), (1.0, 1.0)))


class TestWeakValue:
    def test_identity_is_one(self):
        rng = np.random.default_rng(10)
        tsv = random_tsv(rng, 4, min_overlap=0.05)
        assert abs(weak_value(tsv, Operator(np.eye(4))) - 1.0) <= 1e-12

    def test_boxed_spin_projection_is_minus_one(self):
        tsv = boxed_spin_tsv()
        obs = diagonal_projector(4, 2)
        # direct ratio of raw sandwiches, no shared code path
        ket, bra = pair_states(tsv)
        phi, psi = bra.amplitudes, ket.amplitudes
        oracle = np.vdot(phi, obs.op.matrix @ psi) / np.vdot(phi, psi)
        assert oracle == pytest.approx(-1.0, abs=1e-12)
        assert weak_value(tsv, obs.op) == pytest.approx(-1.0, abs=1e-12)

    def test_coinciding_selections_give_expectation(self):
        rng = np.random.default_rng(11)
        psi = random_ket(rng, 3)
        op = random_hermitian(rng, 3)
        tsv = TwoStateVector(psi, Bra(psi.amplitudes))
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

    @pytest.mark.parametrize("terms", [1, 2])
    def test_overflowing_product_rejected_without_warning(self, terms):
        # the value itself, 1.7e308 * 1.5, overflows: a RangeError, and no numpy warning
        op = Operator(1.7e308 * np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex))
        tsv = TwoStateVector(Ket([1.0, 0.5]), Bra([1.0, 0.0]))
        selection = tsv if terms == 1 else GeneralizedTwoStateVector((*tsv.terms, *tsv.terms))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RangeError, match="^weak value overflows float64"):
                weak_value(selection, op)

    @pytest.mark.parametrize("terms", [1, 2])
    def test_finite_value_where_the_product_overflows(self, terms):
        # (O psi)_0 overflows, but the post-selection reads only (O psi)_1
        op = Operator(1.7e308 * np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex))
        tsv = TwoStateVector(Ket([1.0, 0.5]), Bra([0.0, 1.0]))
        selection = tsv if terms == 1 else GeneralizedTwoStateVector((*tsv.terms, *tsv.terms))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert weak_value(selection, op) == pytest.approx(1.7e308, rel=1e-15)

    @pytest.mark.parametrize("small", [1e-20, 2.5e-315])
    def test_wide_range_operator_keeps_its_small_entry(self, small):
        # O spans more than 2**1022: over a power of two that brings 1e300 to [0.5, 1),
        # the small entry would be subnormal and lose bits; O psi does not overflow
        op = Operator(np.diag([1e300, small]))
        tsv = TwoStateVector(Ket([0.0, 1.0]), Bra([0.0, 1.0]))
        assert weak_value(tsv, op) == small

    @pytest.mark.parametrize("k", [-1060, -1070, -1100])
    def test_subnormal_weak_value_keeps_its_bits(self, k):
        # 2**k O: O psi underflows where the weak value is subnormal, so it is formed on O
        # scaled up by a power of two; both parts are 2**k times those of O, rounded once
        tsv = TwoStateVector(Ket([1.0, 0.5]), Bra([1.0, 0.25j]))
        o = np.array([[1.0, 0.5 + 0.25j], [0.5 - 0.25j, -1.0]])
        value = weak_value(tsv, Operator(o))
        tiny = weak_value(tsv, Operator(np.ldexp(o.view(float), k).view(complex)))
        assert tiny == complex(math.ldexp(value.real, k), math.ldexp(value.imag, k))
        assert tiny != 0.0 or k == -1100

    def test_dimension_mismatch_rejected(self):
        tsv = TwoStateVector(Ket([1.0, 0.0]), Bra([1.0, 1.0]))
        with pytest.raises(DimensionError, match="^selection dim 2 != operator dim 3$"):
            weak_value(tsv, Operator(np.eye(3)))

    def test_linearity(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            dim = int(rng.integers(2, 6))
            tsv = random_tsv(rng, dim, min_overlap=0.05)
            a, b = random_hermitian(rng, dim), random_hermitian(rng, dim)
            # real coefficients: an Operator is Hermitian, so ca A + cb B must be too
            ca, cb = rng.normal(size=2)
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
            tsv = TwoStateVector(psi, Bra(psi.amplitudes))
            report = product_rule_report(tsv, obs_a, obs_b)
            if report.all_certain:
                assert report.product_rule_holds is True

    def test_commuting_diagonal_trivial(self):
        obs_a = spectral_decompose(Operator(np.diag([1.0, 2.0, 3.0])))
        obs_b = spectral_decompose(Operator(np.diag([5.0, 7.0, 11.0])))
        psi = Ket([0, 1, 0])
        report = product_rule_report(TwoStateVector(psi, Bra(psi.amplitudes)), obs_a, obs_b)
        assert report.all_certain
        assert report.product_rule_holds is True

    @pytest.mark.parametrize("dim", [2, 4])
    def test_vanishing_product_in_a_rotated_basis(self, dim):
        # AB is round-off (about 1e-16), not an exact zero, and need not be Hermitian
        # within FLAG_TOL * max|AB|: the product's thresholds scale with its factors
        rng = np.random.default_rng(40 + dim)
        half = dim // 2
        for _ in range(20):
            basis, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
            a = np.concatenate([np.zeros(half), rng.uniform(1, 3, size=half)])
            b = np.concatenate([rng.uniform(1, 3, size=half), np.zeros(half)])
            obs_a = spectral_decompose(Operator(basis @ np.diag(a) @ basis.conj().T))
            obs_b = spectral_decompose(Operator(basis @ np.diag(b) @ basis.conj().T))
            for column in range(dim):
                tsv = TwoStateVector(random_ket(rng, dim), Bra(basis[:, column]))
                report = product_rule_report(tsv, obs_a, obs_b)
                assert report.a.value == pytest.approx(a[column], abs=1e-9)
                assert report.b.value == pytest.approx(b[column], abs=1e-9)
                assert report.product.certain
                assert report.product.value == pytest.approx(0.0, abs=1e-12)
                assert report.product_rule_holds is True

    def test_dimension_mismatch_rejected(self):
        tsv = TwoStateVector(Ket([1, 0]), Bra([1, 1]))
        with pytest.raises(DimensionError, match="^observable dims differ$"):
            product_rule_report(tsv, spectral_decompose(Operator(SIGMA_Z)), diagonal_projector(4, 0))

    def test_non_hermitian_product_rejected(self):
        psi = Ket([1, 0])
        tsv = TwoStateVector(psi, Bra(psi.amplitudes))
        with pytest.raises(NotMeasurableError):
            product_rule_report(
                tsv,
                spectral_decompose(Operator(SIGMA_X)),
                spectral_decompose(Operator(SIGMA_Y)),
            )

    @pytest.mark.parametrize("a, b, cause", [
        # commuting factors whose product is Hermitian, but its scale overflows
        (np.diag([1e200, 1.0]), np.diag([1e200, 1.0]), "overflows float64"),
        # AB - (AB)^dagger would overflow; AB is anti-Hermitian
        (1.5e308 * SIGMA_X, SIGMA_Z, "is not Hermitian"),
    ], ids=["scale", "deviation"])
    def test_overflowing_product_rejected_without_warning(self, a, b, cause):
        tsv = TwoStateVector(Ket([1, 0]), Bra([1, 1]))
        obs_a, obs_b = spectral_decompose(Operator(a)), spectral_decompose(Operator(b))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotMeasurableError, match=f"^product of the observables {cause}$"):
                product_rule_report(tsv, obs_a, obs_b)


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

    def test_identity_projectors_give_one(self):
        k = self.correlated_kernel()
        assert two_time_joint(k, Operator(np.eye(2)), Operator(np.eye(2))) == 1.0

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

    def test_joint_is_the_table_entry_for_projectors_of_any_rank(self):
        rng = np.random.default_rng(24)
        cases = (
            ([0.0, 1.0, 2.0], [-1.0, 1.0]),  # 3x2, every eigenspace rank 1
            ([1.0, 1.0, 2.0], [-1.0, 2.0, 2.0]),  # square, a rank-2 eigenspace on each leg
            ([0.0, 0.0, 0.0, 3.0], [0.5, 0.5]),  # 4x2, the backward leg one rank-2 eigenspace
            ([-2.0, 1.0], [1.0, 1.0, 2.0, 2.0, 2.0]),  # 2x5, ranks 2 and 3 on the backward leg
        )
        for levels_a, levels_b in cases:
            for _ in range(10):
                k = random_kernel(rng, len(levels_a), len(levels_b))
                obs_a, obs_b = degenerate_observable(rng, levels_a), degenerate_observable(rng, levels_b)
                assert (len(obs_a.eigenvalues), len(obs_b.eigenvalues)) == (len(set(levels_a)), len(set(levels_b)))
                table = two_time_distribution(k, obs_a, obs_b)
                for m, pa in enumerate(obs_a.projectors):
                    for n, pb in enumerate(obs_b.projectors):
                        assert abs(two_time_joint(k, pa, pb) - table[m, n]) <= 1e-15

    @pytest.mark.parametrize("matrix", [
        [[0.0, 1.0], [1.0, 0.0]],  # squares to the identity, not to itself
        [[0.5, 0.0], [0.0, 0.5]],  # trace 1, not idempotent
        [[0.5, 0.0], [0.0, 0.0]],  # rank 1 but half a projector
    ])
    def test_two_time_joint_rejects_non_projectors(self, matrix):
        proj = Operator(np.array(matrix, dtype=complex))
        k = TwoTimeKernel(np.eye(proj.dim))
        good = spectral_decompose(Operator(np.diag([1.0] + [0.0] * (proj.dim - 1)))).projectors[1]
        with pytest.raises(ValueError, match="forward projector must be idempotent"):
            two_time_joint(k, proj, good)
        with pytest.raises(ValueError, match="backward projector must be idempotent"):
            two_time_joint(k, good, proj)

    @pytest.mark.parametrize("matrix, expected", [
        ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]], 1.0 / 3.0),  # rank 2
        ([[0.0, 0.0], [0.0, 0.0]], 0.0),  # rank 0
    ])
    def test_two_time_joint_accepts_projectors_of_any_rank(self, matrix, expected):
        proj = Operator(np.array(matrix, dtype=complex))
        k = TwoTimeKernel(np.eye(proj.dim))
        good = spectral_decompose(Operator(np.diag([1.0] + [0.0] * (proj.dim - 1)))).projectors[1]
        for pa, pb in ((proj, good), (good, proj)):
            trace = np.trace(pa.matrix @ k.matrix @ pb.matrix @ k.matrix.conj().T).real / proj.dim
            assert two_time_joint(k, pa, pb) == expected == trace

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
                with pytest.raises(ValueError, match="projector must be idempotent"):
                    two_time_joint(k, *legs)

    def test_mismatched_leg_dims_rejected(self):
        rng = np.random.default_rng(25)
        k = random_kernel(rng, 2, 3)
        with pytest.raises(DimensionError):
            two_time_distribution(k, random_observable(rng, 3), random_observable(rng, 3))
        with pytest.raises(DimensionError):
            two_time_distribution(k, random_observable(rng, 2), random_observable(rng, 2))


def test_thresholds_are_module_constants_not_parameters():
    functions = (spectral_decompose, Operator, weak_value, element_of_reality,
                 product_rule_report, PointerConfig)
    params = {name for f in functions for name in inspect.signature(f).parameters}
    assert not params & {"degeneracy_tol", "threshold", "tol", "value_tol", "points_per_sigma"}
