import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm  # independent matrix-exponential oracle

from helpers import count_eigh, random_hermitian, random_ket, states_match_up_to_phase
from tsvlab import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    Bra,
    DimensionError,
    HamiltonianSchedule,
    Ket,
    NotHermitianError,
    Operator,
    RangeError,
    TimeWindowError,
    ZeroStateError,
    evolve_backward,
    evolve_forward,
    overlap,
    spectral_decompose,
)
from tsvlab.cli import main
from tsvlab.qcore import FLAG_TOL


class TestKet:
    def test_already_normalized(self):
        k = Ket([1, 0])
        assert k.dim == 2
        np.testing.assert_allclose(k.amplitudes, [1, 0])

    def test_uniform_normalization(self):
        k = Ket([1, 1, 1])
        np.testing.assert_allclose(k.amplitudes, np.full(3, 1 / np.sqrt(3)), atol=1e-15)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroStateError):
            Ket([0, 0])

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            Ket([])

    def test_scale_discarded_phase_kept(self):
        k = Ket([5j, 0])
        np.testing.assert_allclose(k.amplitudes, [1j, 0])

    @settings(deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(-1e6, 1e6, allow_nan=False),
                st.floats(-1e6, 1e6, allow_nan=False),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_unit_norm_after_construction(self, pairs):
        amps = [complex(re, im) for re, im in pairs]
        assume(np.linalg.norm(amps) > 1e-6)
        k = Ket(amps)
        assert abs(np.linalg.norm(k.amplitudes) - 1.0) <= 1e-12

    def test_amplitudes_read_only(self):
        k = Ket([1, 0])
        with pytest.raises(ValueError):
            k.amplitudes[0] = 5


class TestBra:
    def test_pairing_conjugates_the_bra(self):
        b = Bra([1j, 0])
        k = Ket([1j, 0])
        assert overlap(b, k) == pytest.approx(1.0)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            overlap(Bra([1, 0]), Ket([1, 0, 0]))

    def test_ket_bra_round_trip_is_bit_exact(self):
        # Bra(k.amplitudes) is the adjoint of k: a stored unit state is not rescaled
        rng = np.random.default_rng(7)
        for dim in (1, 2, 5):
            k = random_ket(rng, dim)
            b = Bra(k.amplitudes)
            assert np.array_equal(Ket(b.amplitudes).amplitudes, k.amplitudes)
            assert overlap(b, k) == pytest.approx(1.0, abs=1e-14)

    def test_normalized_like_a_ket(self):
        np.testing.assert_allclose(Bra([3j, 4]).amplitudes, [0.6j, 0.8], atol=1e-15)
        with pytest.raises(ZeroStateError):
            Bra([0, 0])
        with pytest.raises(DimensionError):
            Bra([])


class TestOperator:
    def test_hermitian_check_at_construction(self):
        Operator(SIGMA_X)
        with pytest.raises(NotHermitianError, match=r"^matrix is not Hermitian$"):
            Operator(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            Operator(np.zeros((2, 3)))

    def test_matrix_is_a_read_only_copy(self):
        source = np.eye(2, dtype=complex)
        op = Operator(source)
        source[0, 1] = 1.0
        np.testing.assert_array_equal(op.matrix, np.eye(2))
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 5

    def test_overflowing_deviation_without_warning(self):
        # M - M^dagger would overflow: the check runs on M / 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotHermitianError):
                Operator([[0.0, 1.7e308], [-1.7e308, 0.0]])
            Operator([[1.7e308, -1.7e308], [-1.7e308, 1.7e308]])

    @given(st.integers(1, 4), st.integers(-900, 1000), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_halved_check_matches_the_full_one(self, dim, exponent, seed):
        # for normal floats the halved deviation gives the verdict of max|M - M^dagger|
        # <= FLAG_TOL max|M|: perturbations straddle the bound, at scales 2**-900..2**1000
        rng = np.random.default_rng(seed)
        h = random_hermitian(rng, dim).matrix
        m = (h + FLAG_TOL * rng.uniform(0.0, 2.0) * rng.normal(size=(dim, dim))) * 2.0**exponent
        if np.abs(m - m.conj().T).max() <= FLAG_TOL * np.abs(m).max():
            Operator(m)
        else:
            with pytest.raises(NotHermitianError):
                Operator(m)


class TestSpectralDecompose:
    def test_kron_with_identity_is_doubly_degenerate(self):
        obs = spectral_decompose(Operator(np.kron(SIGMA_Z, np.eye(2))))
        assert obs.eigenvalues == pytest.approx((-1.0, 1.0))
        ranks = [round(np.trace(p.matrix).real) for p in obs.projectors]
        assert ranks == [2, 2]

    def test_pauli_spectrum(self):
        obs = spectral_decompose(Operator(SIGMA_Z))
        assert obs.eigenvalues == pytest.approx((-1.0, 1.0))
        np.testing.assert_allclose(obs.projectors[0].matrix, np.diag([0, 1]), atol=1e-12)
        np.testing.assert_allclose(obs.projectors[1].matrix, np.diag([1, 0]), atol=1e-12)

    def test_full_degeneracy(self):
        obs = spectral_decompose(Operator(np.eye(3)))
        assert len(obs.eigenvalues) == 1
        assert obs.eigenvalues[0] == pytest.approx(1.0)
        np.testing.assert_allclose(obs.projectors[0].matrix, np.eye(3), atol=1e-12)

    def test_merge_rule(self):
        obs = spectral_decompose(Operator(np.diag([1.0, 1.0 + 1e-12, 2.0])))
        assert len(obs.eigenvalues) == 2
        assert round(np.trace(obs.projectors[0].matrix).real) == 2

    def test_non_hermitian_rejected(self):
        with pytest.raises(NotHermitianError):
            spectral_decompose(Operator(np.array([[0, 1], [0, 0]], dtype=complex)))

    def test_projector_invariants_random(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            dim = int(rng.integers(2, 7))
            obs = spectral_decompose(random_hermitian(rng, dim))
            eye = np.eye(dim)
            total = np.zeros((dim, dim), dtype=complex)
            reconstructed = np.zeros((dim, dim), dtype=complex)
            projectors = list(obs.projectors)
            for value, proj in zip(obs.eigenvalues, projectors):
                p = proj.matrix
                assert np.max(np.abs(p @ p - p)) <= 1e-9
                total += p
                reconstructed += value * p
            for i, pi in enumerate(projectors):
                for pj in projectors[i + 1 :]:
                    assert np.max(np.abs(pi.matrix @ pj.matrix)) <= 1e-9
            assert np.max(np.abs(total - eye)) <= 1e-9
            assert np.max(np.abs(reconstructed - obs.op.matrix)) <= 1e-9


class TestLazySpectrum:
    def test_construction_does_not_decompose(self, monkeypatch):
        calls = count_eigh(monkeypatch)
        obs = Operator(random_hermitian(np.random.default_rng(30), 4).matrix)
        assert obs.dim == 4 and spectral_decompose(obs) is obs
        assert calls == []

    def test_spectrum_computed_once(self, monkeypatch):
        calls = count_eigh(monkeypatch)
        obs = spectral_decompose(random_hermitian(np.random.default_rng(31), 5))
        first = (obs.eigenvalues, obs.eigenvectors, obs.block_starts)
        second = (obs.eigenvalues, obs.eigenvectors, obs.block_starts)
        assert all(a is b for a, b in zip(first, second))
        assert len(calls) == 1

    def test_each_field_alone_triggers_the_one_decomposition(self, monkeypatch):
        calls = count_eigh(monkeypatch)
        for field in ("eigenvalues", "eigenvectors", "block_starts"):
            obs = spectral_decompose(Operator(np.diag([2.0, 2.0, -1.0])))
            getattr(obs, field)
            assert obs.eigenvalues == (-1.0, 2.0) and obs.block_starts.tolist() == [0, 1]
        assert len(calls) == 3

    def test_non_hermitian_rejected_at_construction(self, monkeypatch):
        calls = count_eigh(monkeypatch)
        with pytest.raises(NotHermitianError):
            Operator(np.array([[0, 1], [0, 0]], dtype=complex))
        assert calls == []

    @pytest.mark.parametrize("matrix", [
        [[1.7e308, 1.7e308], [1.7e308, -1.7e308]],  # eigenvalues +-2.4e308
        [[1.7e308, 0.0], [0.0, 1.7e308]],  # finite levels, but their merged mean overflows
    ])
    def test_overflowing_eigenvalues_raise_on_read(self, matrix):
        obs = spectral_decompose(Operator(np.array(matrix)))
        for _ in range(2):
            with pytest.raises(RangeError, match="overflow float64"):
                obs.eigenvalues
        with pytest.raises(RangeError):
            obs.eigenvectors


def two_observable_file(path):
    """Pre/post problem with two observables and two Hamiltonian segments."""
    z = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]
    x = [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
    path.write_text(json.dumps({
        "dims": [2],
        "pre": [[0.6, 0.0], [0.8, 0.0]],
        "post": [[1.0, 0.0], [0.0, 0.5]],
        "hamiltonian": [{"duration": 1.0, "matrix": x}, {"duration": 0.5, "matrix": z}],
        "observables": [{"name": "z", "matrix": z}, {"name": "x", "matrix": x}],
    }))
    return str(path)


class TestCliDecomposesOnlyWhatItReads:
    def test_weak_never_decomposes(self, monkeypatch, tmp_path, capsys):
        path = two_observable_file(tmp_path / "two.json")
        calls = count_eigh(monkeypatch)
        for name in ("z", "x"):
            assert main(["weak", "--file", path, "--observable", name]) == 0
        assert calls == []

    def test_abl_decomposes_the_named_observable(self, monkeypatch, tmp_path, capsys):
        path = two_observable_file(tmp_path / "two.json")
        calls = count_eigh(monkeypatch)
        assert main(["abl", "--file", path, "--observable", "x"]) == 0
        assert len(calls) == 1
        # --time 0.5 splits the first segment: its Operator serves both halves
        assert main(["abl", "--file", path, "--observable", "x", "--time", "0.5"]) == 0
        assert len(calls) == 1 + (1 + 2)

    def test_non_hermitian_observable_exits_2_at_load(self, monkeypatch, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "dims": [2],
            "pre": [[1.0, 0.0], [0.0, 0.0]],
            "post": [[1.0, 0.0], [0.0, 0.0]],
            "observables": [
                {"name": "z", "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]},
                {"name": "bad", "matrix": [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]},
            ],
        }))
        calls = count_eigh(monkeypatch)
        # rejected while parsing, before the verb looks at which observable it names
        assert main(["weak", "--file", str(path), "--observable", "z"]) == 2
        err = capsys.readouterr().err
        assert err == "error: observable 'bad': matrix is not Hermitian\n"
        assert calls == []


class TestEvolution:
    def test_zero_hamiltonian_is_identity(self):
        schedule = HamiltonianSchedule(((1.0, Operator(np.zeros((2, 2)))),))
        k = Ket([0.6, 0.8])
        np.testing.assert_allclose(evolve_forward(k, schedule).amplitudes, k.amplitudes)

    def test_pi_rotation_about_y(self):
        # generator (pi/2) sigma_y for unit time flips up to down
        schedule = HamiltonianSchedule(((1.0, Operator((np.pi / 2) * SIGMA_Y)),))
        evolved = evolve_forward(Ket([1, 0]), schedule)
        assert states_match_up_to_phase(evolved.amplitudes, np.array([0, 1.0]))
        oracle = expm(-1j * (np.pi / 2) * SIGMA_Y) @ np.array([1.0, 0.0])
        np.testing.assert_allclose(evolved.amplitudes, oracle, atol=1e-12)

    def test_segment_order_matters(self):
        sched_xz = HamiltonianSchedule(((1.0, Operator(SIGMA_X)), (1.0, Operator(SIGMA_Z))))
        sched_zx = HamiltonianSchedule(((1.0, Operator(SIGMA_Z)), (1.0, Operator(SIGMA_X))))
        k = Ket([1, 0])
        a = evolve_forward(k, sched_xz).amplitudes
        b = evolve_forward(k, sched_zx).amplitudes
        assert not states_match_up_to_phase(a, b, tol=1e-3)
        # earliest segment acts first: oracle is the explicit ordered product
        oracle = expm(-1j * SIGMA_Z) @ expm(-1j * SIGMA_X) @ np.array([1.0, 0.0])
        np.testing.assert_allclose(a, oracle, atol=1e-12)

    def test_backward_is_adjoint_for_single_segment(self):
        rng = np.random.default_rng(5)
        h = random_hermitian(rng, 3)
        schedule = HamiltonianSchedule(((0.7, h),))
        bra = Bra(rng.normal(size=3) + 1j * rng.normal(size=3))
        u = expm(-1j * 0.7 * h.matrix)
        np.testing.assert_allclose(
            evolve_backward(bra, schedule).amplitudes, u.conj().T @ bra.amplitudes, atol=1e-12
        )

    def test_pairing_contract_random(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            dim = int(rng.integers(2, 5))
            n_seg = int(rng.integers(1, 4))
            schedule = HamiltonianSchedule(
                tuple((float(rng.uniform(0, 2)), random_hermitian(rng, dim)) for _ in range(n_seg))
            )
            psi = random_ket(rng, dim)
            phi = Bra(rng.normal(size=dim) + 1j * rng.normal(size=dim))
            lhs = overlap(evolve_backward(phi, schedule), psi)
            rhs = overlap(phi, evolve_forward(psi, schedule))
            assert abs(lhs - rhs) <= 1e-10

    def test_norm_preserved(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            schedule = HamiltonianSchedule(((float(rng.uniform(0, 5)), random_hermitian(rng, 4)),))
            out = evolve_forward(random_ket(rng, 4), schedule)
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= 1e-10

    def test_segment_exponentials_unitary(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            dim = int(rng.integers(2, 6))
            schedule = HamiltonianSchedule(((float(rng.uniform(0, 5)), random_hermitian(rng, dim)),))
            columns = []
            for i in range(dim):
                basis = np.zeros(dim)
                basis[i] = 1.0
                columns.append(evolve_forward(Ket(basis), schedule).amplitudes)
            u = np.column_stack(columns)
            assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) <= 1e-10

    def test_dim_mismatch(self):
        schedule = HamiltonianSchedule(((1.0, Operator(SIGMA_X)),))
        with pytest.raises(DimensionError):
            evolve_forward(Ket([1, 0, 0]), schedule)

    def test_non_hermitian_segment_rejected(self):
        with pytest.raises(NotHermitianError):
            HamiltonianSchedule(((1.0, Operator(np.array([[0, 1], [0, 0]], dtype=complex))),))

    @pytest.mark.parametrize("duration", [-1.0, math.nan, math.inf, -math.inf])
    def test_invalid_duration_rejected(self, duration):
        # caught here, not later as an overflowing phase or a [0, nan] window
        with pytest.raises(ValueError, match=r"^segment 1 duration must be finite and non-negative"):
            HamiltonianSchedule(((1.0, Operator(SIGMA_X)), (duration, Operator(SIGMA_Z))))

    def test_overflowing_total_duration_rejected(self):
        # each duration is finite but their sum is inf, which would make every
        # time-window slack inf and place every segment before any t
        h = Operator(1e-308 * SIGMA_X)
        assert HamiltonianSchedule(((1e308, h),)).total_duration == 1e308
        with pytest.raises(RangeError, match=r"^total duration overflows float64$"):
            HamiltonianSchedule(((1e308, h), (1e308, h)))

    def test_overflowing_segment_eigenvalues_rejected(self):
        # eigh gives [-inf, inf]: the spectrum overflows, not the phase over 1e-300
        h = Operator(1.7e308 * np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex))
        schedule = HamiltonianSchedule(((1e-300, h),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RangeError, match=r"^eigenvalues of a hamiltonian segment overflow float64$"):
                evolve_forward(Ket([1, 0]), schedule)
            with pytest.raises(RangeError, match=r"^eigenvalues of a hamiltonian segment overflow float64$"):
                evolve_backward(Bra([1, 0]), schedule)


class TestScheduleSplit:
    def test_split_inside_segment(self):
        schedule = HamiltonianSchedule(((2.0, Operator(SIGMA_X)), (1.0, Operator(SIGMA_Z))))
        before, after = schedule.split_at(0.5)
        assert before.total_duration == pytest.approx(0.5)
        assert after.total_duration == pytest.approx(2.5)
        k = Ket([1, 1j])
        whole = evolve_forward(k, schedule)
        stitched = evolve_forward(evolve_forward(k, before), after)
        np.testing.assert_allclose(whole.amplitudes, stitched.amplitudes, atol=1e-12)

    # the time window and segment boundaries are relative to the schedule's length
    @pytest.mark.parametrize("scale", [1.0, 2.0**-43, 2.0**40])
    def test_split_at_boundary(self, scale):
        schedule = HamiltonianSchedule(((2.0 * scale, Operator(SIGMA_X)), (scale, Operator(SIGMA_Z))))
        before, after = schedule.split_at(2.0 * scale)
        assert before.segments == schedule.segments[:1]
        assert after.segments == schedule.segments[1:]

    @pytest.mark.parametrize("scale", [1.0, 2.0**-43, 2.0**40])
    def test_outside_window(self, scale):
        schedule = HamiltonianSchedule(((scale, Operator(SIGMA_X)),))
        with pytest.raises(TimeWindowError):
            schedule.split_at(1.5 * scale)
        with pytest.raises(TimeWindowError):
            schedule.split_at(-0.5 * scale)
