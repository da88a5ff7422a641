"""The eigenvector-block Observable against dense-projector formulas."""

import tracemalloc

import numpy as np
import pytest

from helpers import count_eigh, random_bra, random_ket
from tsvlab import (
    GeneralizedTwoStateVector,
    Operator,
    PointerConfig,
    TwoStateVector,
    abl_probabilities,
    abl_probabilities_generalized,
    exact_conditional_oracle,
    ideal_measure,
    spectral_decompose,
    weak_measure_pointer,
)
from tsvlab import qcore, scenarios
from tsvlab.qcore import DEGENERACY_TOL

TOL = 1e-12

# Levels inside each group, as (level, offset in units of the merge tolerance
# times the spectral radius): exact repeats, a split below the merge tolerance
# (merged) and one above it (kept apart).
GROUP = ((0.0, 0.0), (0.0, 0.0), (0.0, 0.1), (1.0, 0.0), (1.0, 10.0))


def engineered(rng, dim):
    """A Hermitian matrix whose spectrum has exact and near-degenerate levels.

    Returns the operator and the number of merged eigenspaces it must have.
    """
    coarse, offsets = np.array([GROUP[i % len(GROUP)] for i in range(dim)]).T
    coarse += 3.0 * (np.arange(dim) // len(GROUP))
    levels = coarse + offsets * DEGENERACY_TOL * coarse.max()
    gaps = np.diff(np.sort(levels))
    expected_blocks = 1 + int(np.sum(gaps > DEGENERACY_TOL * levels.max()))
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(z)
    m = (q * levels) @ q.conj().T
    return Operator((m + m.conj().T) / 2.0), expected_blocks


def dense_amplitudes(obs, bra, ket):
    return np.array([np.vdot(bra.amplitudes, p.matrix @ ket.amplitudes) for p in obs.projectors])


def normalized(weights):
    weights = np.asarray(weights, dtype=float)
    return weights / weights.sum()


@pytest.fixture(params=[2, 8, 64])
def case(request):
    dim = request.param
    rng = np.random.default_rng(dim)
    op, expected_blocks = engineered(rng, dim)
    obs = spectral_decompose(op)
    pre, post = random_ket(rng, dim), random_bra(rng, dim)
    return rng, obs, expected_blocks, pre, post


def test_lazy_projectors_are_a_resolution_of_identity(case):
    _, obs, expected_blocks, _, _ = case
    dim = obs.dim
    assert len(obs.eigenvalues) == expected_blocks
    assert "projectors" not in vars(obs)
    projectors = [p.matrix for p in obs.projectors]
    assert len(projectors) == expected_blocks
    for i, p in enumerate(projectors):
        assert np.max(np.abs(p @ p - p)) <= 1e-9
        for q in projectors[i + 1:]:
            assert np.max(np.abs(p @ q)) <= 1e-9
    assert np.max(np.abs(sum(projectors) - np.eye(dim))) <= 1e-9
    reconstructed = sum(value * p for value, p in zip(obs.eigenvalues, projectors))
    assert np.max(np.abs(reconstructed - obs.op.matrix)) <= 1e-9


def test_projectors_are_built_when_indexed(case, monkeypatch):
    _, obs, expected_blocks, _, _ = case
    built = []

    class Counted(Operator):
        def __post_init__(self):
            built.append(self)
            super().__post_init__()

    monkeypatch.setattr(qcore, "Operator", Counted)
    last = obs.projectors[-1]
    assert built == [last] and obs.projectors[expected_blocks - 1] is last
    assert len(obs.projectors) == expected_blocks
    assert tuple(obs.projectors)[-1] is last and len(built) == expected_blocks
    with pytest.raises(IndexError):
        obs.projectors[expected_blocks]


def test_block_formulas_match_dense_projectors(case):
    rng, obs, _, pre, post = case
    tsv = TwoStateVector(pre, post)
    amps = obs.amplitudes(post, pre)
    abl = np.array(abl_probabilities(tsv, obs).entries)[:, 1]
    other = TwoStateVector(random_ket(rng, obs.dim), random_bra(rng, obs.dim))
    g = GeneralizedTwoStateVector(((0.8 + 0.1j, post, pre), (0.3j, *other.terms[0][1:])))
    generalized = np.array(abl_probabilities_generalized(g, obs).entries)[:, 1]
    oracle = np.array(exact_conditional_oracle(pre, post, obs).entries)[:, 1]
    record = ideal_measure(pre, obs, np.random.default_rng(0))
    # none of the block paths builds the dense projectors
    assert "projectors" not in vars(obs)

    dense_amps = dense_amplitudes(obs, post, pre)
    np.testing.assert_allclose(amps, dense_amps, rtol=0, atol=TOL)
    np.testing.assert_allclose(abl, normalized(np.abs(dense_amps) ** 2), rtol=0, atol=TOL)
    dense_g = sum(a * dense_amplitudes(obs, b, f) for a, b, f in g.terms)
    np.testing.assert_allclose(generalized, normalized(np.abs(dense_g) ** 2), rtol=0, atol=TOL)
    projected = [p.matrix @ pre.amplitudes for p in obs.projectors]
    born = np.array([np.vdot(v, v).real for v in projected])
    joint = [b * abs(np.vdot(post.amplitudes, v / np.sqrt(b))) ** 2 if b > 0 else 0.0
             for v, b in zip(projected, born)]
    np.testing.assert_allclose(oracle, normalized(joint), rtol=0, atol=TOL)
    index = obs.eigenvalues.index(record.outcome)
    assert record.probability == pytest.approx(born[index] / born.sum(), abs=TOL)
    expected_state = projected[index] / np.linalg.norm(projected[index])
    np.testing.assert_allclose(record.post_state.amplitudes, expected_state, rtol=0, atol=TOL)


def test_pointer_density_matches_dense_amplitudes(case):
    _, obs, _, pre, post = case
    tsv = TwoStateVector(pre, post)
    cfg = PointerConfig(0.2, 1.0, obs.max_abs_eigenvalue)
    result = weak_measure_pointer(tsv, obs, cfg)
    q = result.positions
    centers = cfg.coupling * np.asarray(obs.eigenvalues)
    packets = (2.0 * np.pi) ** -0.25 * np.exp(-((q[None, :] - centers[:, None]) ** 2) / 4.0)
    raw = np.abs(dense_amplitudes(obs, post, pre) @ packets) ** 2
    np.testing.assert_allclose(result.density, raw / np.trapezoid(raw, q), rtol=0, atol=TOL)


def test_decomposition_allocates_no_dense_projectors():
    dim = 256
    rng = np.random.default_rng(256)
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(z)
    m = (q * np.linspace(-2.0, 2.0, dim)) @ q.conj().T
    op = Operator((m + m.conj().T) / 2.0)
    tracemalloc.start()
    try:
        obs = spectral_decompose(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(obs.eigenvalues) == dim
    # one dense complex projector per eigenspace would take 256 * 1 MiB
    assert peak < 16 * 2**20


def numpy_merge(w):
    """Block starts by ``np.diff`` and merged eigenvalues by one ``np.mean`` per block."""
    tol = DEGENERACY_TOL * max(-w[0], w[-1])
    starts = np.concatenate(([0], np.flatnonzero(np.diff(w) > tol) + 1))
    bounds = (*starts.tolist(), w.size)
    return starts.tolist(), [float(np.mean(w[a:b])) for a, b in zip(bounds[:-1], bounds[1:])]


def merge_cases():
    """(label, Hermitian matrix, merged eigenspace count or None)."""
    rng = np.random.default_rng(2024)
    tol = DEGENERACY_TOL
    for size in range(1, 41):
        # one block of `size` levels, adjacent gaps below the tolerance, beside a distant level
        base = rng.normal() * 10.0 ** rng.integers(-3, 4)
        block = base + np.cumsum(rng.uniform(0.0, 0.9, size)) * tol
        levels = np.append(block, base + 7.0)
        yield f"diagonal-{size}", np.diag(levels), 2
        z = rng.normal(size=(size + 1, size + 1)) + 1j * rng.normal(size=(size + 1, size + 1))
        q, _ = np.linalg.qr(z)
        m = (q * levels) @ q.conj().T
        yield f"rotated-{size}", (m + m.conj().T) / 2.0, None
    above, below = np.nextafter(tol, 1.0), np.nextafter(tol, 0.0)
    for label, levels, blocks in (
        # the spectral radius is 1 where a gap is near tol, so the merge tolerance is tol itself
        ("gap-at-tol", [0.0, tol, 1.0], 2),
        ("gap-above-tol", [0.0, above, 1.0], 3),
        ("gap-below-tol", [0.0, below, 1.0], 2),
        ("negative-zero", [-0.0], 1),
        ("negative-zeros", [-0.0, -0.0, 3.0], 2),
        ("zero-and-negative-zero", [-tol, -0.0, 0.0, 5.0], 2),
        ("negative-block-to-zero", [-1.0, -above, -0.0], 3),
    ):
        yield label, np.diag(levels), blocks


@pytest.mark.parametrize("label, matrix, blocks", list(merge_cases()))
def test_merged_eigenvalues_are_numpy_means(label, matrix, blocks):
    obs = spectral_decompose(Operator(matrix))
    w = obs.op.eigh[0]
    starts, means = numpy_merge(w)
    # hex() tells -0.0 from 0.0 and differs in any last bit
    assert [v.hex() for v in obs.eigenvalues] == [v.hex() for v in means]
    assert obs.block_starts.tolist() == starts
    assert obs.block_starts.dtype.kind == "i" and not obs.block_starts.flags.writeable
    if blocks is not None:
        assert len(obs.eigenvalues) == blocks


def test_correlated_pair_decomposes_each_direction_once(monkeypatch):
    calls = count_eigh(monkeypatch)  # Operator.eigh is the one caller of the LAPACK kernel
    scenario = scenarios.get_scenario("correlated-pair")
    assert calls == []  # built without decomposing; export needs none
    assert scenarios.run_scenario(scenario).passed
    assert len(calls) == 100
