"""Shared generators for randomized tests."""

import numpy as np

from tsvlab import Bra, Ket, Operator, TwoStateVector, spectral_decompose


def count_eigh(monkeypatch) -> list:
    """Route ``np.linalg.eigh`` through a counter; the returned list gains one entry per call."""
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


def random_ket(rng, dim):
    return Ket(rng.normal(size=dim) + 1j * rng.normal(size=dim))


def random_bra(rng, dim):
    return Bra(rng.normal(size=dim) + 1j * rng.normal(size=dim))


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return Operator((a + a.conj().T) / 2.0)


def random_observable(rng, dim):
    return spectral_decompose(random_hermitian(rng, dim))


def random_tsv(rng, dim, min_overlap=0.0):
    """Random selection pair, resampled until the overlap clears min_overlap."""
    while True:
        tsv = TwoStateVector(random_ket(rng, dim), random_bra(rng, dim))
        if abs(tsv.overlap) > min_overlap:
            return tsv


def random_projector_observable(rng, dim, rank=1):
    """Observable with eigenvalues {0, 1} where the 1-eigenspace has the given rank."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(a)
    block = q[:, :rank]
    return spectral_decompose(Operator(block @ block.conj().T))


def random_dichotomic_observable(rng, dim):
    """Observable with exactly two distinct eigenvalues at random degeneracies."""
    assert dim >= 2
    rank = int(rng.integers(1, dim))
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(a)
    lo, hi = sorted(rng.normal(size=2) * 3.0)
    if hi - lo < 0.5:
        hi = lo + 0.5 + abs(rng.normal())
    block = q[:, :rank]
    proj = block @ block.conj().T
    matrix = lo * (np.eye(dim) - proj) + hi * proj
    return spectral_decompose(Operator(matrix))


def dichotomic_case_with_certain_outcome(rng, dim):
    """Selection for which one outcome of a dichotomic observable is certain.

    Built by orthogonalizing the backward state against one eigenspace
    component of the forward state, which forces that outcome's conditional
    amplitude to vanish exactly.
    """
    while True:
        obs = random_dichotomic_observable(rng, dim)
        forward = random_ket(rng, dim)
        kill = int(rng.integers(0, 2))
        keep = 1 - kill
        dead_component = obs.projectors[kill].matrix @ forward.amplitudes
        if np.linalg.norm(dead_component) < 1e-6:
            continue
        raw = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        raw = raw - dead_component * (np.vdot(dead_component, raw) / np.vdot(dead_component, dead_component))
        if np.linalg.norm(raw) < 1e-6:
            continue
        backward = Bra(raw)
        tsv = TwoStateVector(forward, backward)
        live_amp = np.vdot(backward.amplitudes, obs.projectors[keep].matrix @ forward.amplitudes)
        if abs(tsv.overlap) < 1e-3 or abs(live_amp) < 1e-3:
            continue
        return tsv, obs, obs.eigenvalues[keep]


def states_match_up_to_phase(a, b, tol=1e-10):
    return abs(abs(np.vdot(a, b)) - 1.0) <= tol


def dense_projectors(obs):
    """Dense projectors onto the merged eigenspaces of ``obs``, ascending.

    Built from a fresh ``np.linalg.eigh`` of the operator matrix, each
    eigenvector assigned to the merged eigenvalue it lies within 1e-6 of,
    so that no block bookkeeping of the ``Observable`` is reused.
    """
    w, v = np.linalg.eigh(obs.op.matrix)
    out = []
    for value in obs.eigenvalues:
        cols = v[:, np.abs(w - value) <= 1e-6]
        out.append(cols @ cols.conj().T)
    return out


def dense_two_time_table(k, obs_a, obs_b):
    """Reference joint table ``trace(P_a K P_b K^dagger) / ||K||_F^2`` of a kernel."""
    m = k.matrix
    total = np.sum(np.abs(m) ** 2)
    return np.array([
        [np.trace(pa @ m @ pb @ m.conj().T).real / total for pb in dense_projectors(obs_b)]
        for pa in dense_projectors(obs_a)
    ])
