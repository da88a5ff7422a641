"""Shared generators for randomized tests."""

import numpy as np

from tsvlab import (
    Bra,
    DimensionError,
    Ket,
    Operator,
    ProblemFileError,
    TwoStateVector,
    ZeroStateError,
    element_of_reality,
    overlap,
    spectral_decompose,
    weak_value,
)
from tsvlab import qcore
from tsvlab.measure import _sequential_born
from tsvlab.qcore import _SAFE_NORMS, NORM_TOL, _unit_scaled
from tsvlab.tsv import CERTAINTY_TOL


def count_eigh(monkeypatch) -> list:
    """Route ``qcore._eigh_lo``, the LAPACK kernel ``Operator.eigh`` calls, through a counter; the returned list gains one entry per call."""
    calls = []
    eigh_lo = qcore._eigh_lo

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh_lo(a, *args, **kwargs)

    monkeypatch.setattr(qcore, "_eigh_lo", counted)
    return calls


@np.errstate(over="ignore")
def reference_normalized_amplitudes(amplitudes) -> np.ndarray:
    """The ``qcore._normalized_amplitudes`` that ``qcore._norm`` replaced: ``np.linalg.norm`` and ``np.isfinite``."""
    vec = np.asarray(amplitudes, dtype=complex).reshape(-1).copy()
    if vec.size == 0:
        raise DimensionError("state needs at least one amplitude")
    norm = np.linalg.norm(vec)
    if not _SAFE_NORMS[0] <= norm <= _SAFE_NORMS[1]:
        vec, _ = _unit_scaled(vec)
        norm = np.linalg.norm(vec)
    if not np.isfinite(norm) or norm == 0.0:
        raise ZeroStateError("state norm must be finite and positive")
    if abs(norm - 1.0) > NORM_TOL:
        vec /= norm
    vec.flags.writeable = False
    return vec


def spread_amplitudes(seed: int, dim: int, exponent: int, spread: int) -> np.ndarray:
    """Complex amplitudes of magnitude about ``2**exponent``, each part scaled down by up to ``2**spread`` more.

    Parts pushed below ``2**-1022`` are subnormal, and below ``2**-1075`` zero.
    """
    rng = np.random.default_rng(seed)
    parts = rng.normal(size=2 * dim)
    return np.ldexp(parts, exponent - rng.integers(0, spread + 1, size=2 * dim)).view(complex)


def reference_parse_numbers(value, shape: tuple, where: str, expected: str) -> np.ndarray:
    """The object-array number parser that ``problemfile._parse_numbers`` replaced.

    numpy discovers the nesting, so any sequence counts as a level and any
    other value as a leaf; the checks, their order and their messages are the
    ones the flat parser must reproduce.
    """
    try:
        raw = np.array(value, dtype=object)
    except ValueError:
        raw = None
    if raw is None or raw.shape != shape:
        raise ProblemFileError(f"{where}: expected {expected}")
    bad = sorted(t.__name__ for t in set(map(type, raw.flat))
                 if t is bool or not issubclass(t, (int, float)))
    if bad:
        raise ProblemFileError(f"{where}: expected {expected}, found {', '.join(bad)} entries")
    try:
        numbers = raw.astype(float)
    except OverflowError:
        raise ProblemFileError(f"{where}: number too large for a double") from None
    if not np.isfinite(numbers).all():
        raise ProblemFileError(f"{where}: numbers must be finite, got NaN or Infinity")
    return numbers


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
        if abs(overlap(tsv.backward, tsv.forward)) > min_overlap:
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
        if abs(overlap(tsv.backward, tsv.forward)) < 1e-3 or abs(live_amp) < 1e-3:
            continue
        return tsv, obs, obs.eigenvalues[keep]


def strong_weak_bridges(tsv, obs) -> tuple:
    """``(strong_implies_weak, weak_implies_strong)``; ``None`` where the premise fails.

    A certain outcome equals the weak value; for a dichotomic observable, a
    weak value at an eigenvalue makes that outcome certain.
    """
    report = element_of_reality(tsv, obs)
    wv = weak_value(tsv, obs.op)
    strong = abs(wv - report.value) <= CERTAINTY_TOL if report.certain else None
    matched = [e for e in obs.eigenvalues if abs(wv - e) <= CERTAINTY_TOL]
    weak = None
    if len(obs.eigenvalues) == 2 and matched:
        weak = report.certain and report.value == matched[0]
    return strong, weak


def per_trial_counts(pre, post, obs, n_samples, rng) -> tuple:
    """Kept counts per outcome, in eigenvalue order, from simulating every trial.

    The reference for ``monte_carlo_abl``'s one draw: each trial draws its
    intermediate outcome n with its Born weight, and is kept iff a uniform
    draw is at most ``|<phi|psi_n>|^2``, the Born probability of the
    post-selection from the collapsed state.
    """
    outcome_probs, p_post = _sequential_born(pre, post, obs)
    outcome_probs /= outcome_probs.sum()
    n_outcomes = len(outcome_probs)
    intermediate = rng.choice(n_outcomes, size=n_samples, p=outcome_probs)
    kept = intermediate[rng.random(n_samples) <= p_post[intermediate]]
    return tuple(np.bincount(kept, minlength=n_outcomes).tolist())


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
