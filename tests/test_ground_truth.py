"""Ground-truth differential test: exit 0 must come with the right answer.

Each problem document is built from a spectrum that is known before the
command runs: levels of chosen multiplicities, written in the basis of a
random unitary Q, at a scale 2**k. The expected answers come from that
construction, never from an eigensolver:

* ``abl``: the ABL rule on Q's column blocks, ``<phi|P_n|psi> = (Q_n^+ phi)^+ (Q_n^+ psi)``;
* ``weak``: the ratio ``vdot(phi, O psi) / vdot(phi, psi)`` on the written matrix;
* ``abl --time``: the same blocks after evolving both states with
  ``scipy.linalg.expm`` over two random segments.

Tolerance, from first-order perturbation theory. Each entry of the written
matrix is a sum of ``d`` products of three rounded factors, so it differs
from ``Q diag Q^+`` by about ``(d + 3) * EPS * r`` (``r`` the spectral
radius), and the matrix by ``||E|| <= SPREAD * r`` with
``SPREAD = d * (d + 3) * EPS``; the eigensolver adds a backward error of
that size. So a level moves by about ``SPREAD * r`` (Weyl), and an
eigenprojector by about ``SPREAD * r / gap <= SPREAD / GAP`` (Davis-Kahan). A probability
``|a_n|^2 / W`` moves by at most four times that over the weight ``W``, and
an evolved state adds about ``d * EPS`` per unit of ``||H|| t``. A weak value
is compared on the written matrix itself, so only the rounding of
``<phi|O|psi>``, about ``d * EPS * r``, over ``|<phi|psi>|`` remains. Each
bound carries a safety factor of 4 and is at most ``MAX_TOL``.
"""

import json

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm  # independent evolution oracle

from tsvlab.cli import main

SETTINGS = settings(derandomize=True, max_examples=80, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])
#: unit roundoff of float64
EPS = 2.0**-53
#: the smallest gap between distinct levels, as a fraction of the spectral radius
GAP = 1e-3
#: selections whose ABL weight or |<phi|psi>| falls below this are redrawn
MIN_WEIGHT = 0.2
#: no stated tolerance may exceed this
MAX_TOL = 1e-9
#: safety factor on each first-order bound
SAFETY = 4.0


@st.composite
def spectra(draw):
    """``(levels, multiplicities, k)``: distinct integer levels with gaps of at least
    ``GAP`` of their radius (so at most 1000 in size), the dimension of each
    eigenspace (summing to at most 6), and the binary exponent of the scale."""
    dim = draw(st.integers(1, 6))
    cuts = sorted(draw(st.sets(st.integers(1, dim - 1))) if dim > 1 else set())
    bounds = [0, *cuts, dim]
    multiplicities = [b - a for a, b in zip(bounds[:-1], bounds[1:])]
    levels = sorted(draw(st.lists(st.integers(-1000, 1000), min_size=len(multiplicities),
                                  max_size=len(multiplicities), unique=True)))
    return levels, multiplicities, draw(st.integers(-60, 60))


def random_unitary(rng, dim):
    """Haar-random unitary: QR of a complex Gaussian matrix, column phases fixed by R's diagonal."""
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    diagonal = np.diag(r)
    return q * (diagonal / np.abs(diagonal))


def unit_vector(rng, dim):
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return vec / np.linalg.norm(vec)


def pairs(array):
    return np.stack((array.real, array.imag), axis=-1).tolist()


def hermitian_written(matrix):
    """The symmetrized matrix, as the document holds it."""
    return (matrix + matrix.conj().T) / 2.0


def block_weights(blocks, phi, psi):
    """``|<phi|P_n|psi>|^2`` for each column block ``Q_n``."""
    return np.array([abs(np.vdot(q.conj().T @ phi, q.conj().T @ psi)) ** 2 for q in blocks])


def run_json(capsys, argv):
    assert main(argv) == 0, argv
    return json.loads(capsys.readouterr().out)


def assert_distribution(doc, levels, weights, tol_outcome, tol_probability):
    entries = doc["distribution"]
    assert len(entries) == len(levels)
    for entry, level, p in zip(entries, levels, weights / weights.sum()):
        assert abs(entry["outcome"] - level) <= tol_outcome
        assert abs(entry["probability"] - p) <= tol_probability


@SETTINGS
@given(spectrum=spectra(), seed=st.integers(0, 2**32 - 1))
def test_exit_zero_gives_the_constructed_answer(tmp_path, capsys, spectrum, seed):
    levels, multiplicities, k = spectrum
    dim = sum(multiplicities)
    scale = 2.0 ** (k - 10)  # levels up to 1000 times this stay below 2**k
    rng = np.random.default_rng(seed)
    q = random_unitary(rng, dim)
    starts = np.cumsum([0, *multiplicities])
    blocks = [q[:, a:b] for a, b in zip(starts[:-1], starts[1:])]
    diagonal = np.repeat(np.array(levels, dtype=float) * scale, multiplicities)
    observable = hermitian_written((q * diagonal) @ q.conj().T)
    outcomes = [level * scale for level in levels]
    radius = max(abs(o) for o in outcomes)

    # two segments of unit-scale Hamiltonians, and a time inside their window
    hamiltonians = [hermitian_written(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
                    for _ in range(2)]
    durations = rng.uniform(0.01, 2.0, size=2)
    t = float(rng.uniform(0.0, durations.sum()))
    if t <= durations[0]:
        earlier = expm(-1j * hamiltonians[0] * t)
        later = expm(-1j * hamiltonians[1] * durations[1]) @ expm(-1j * hamiltonians[0] * (durations[0] - t))
    else:
        earlier = expm(-1j * hamiltonians[1] * (t - durations[0])) @ expm(-1j * hamiltonians[0] * durations[0])
        later = expm(-1j * hamiltonians[1] * (durations.sum() - t))

    # redraw the selection until every quantity compared is well conditioned
    for _ in range(1000):
        psi, phi = unit_vector(rng, dim), unit_vector(rng, dim)
        weights = block_weights(blocks, phi, psi)
        weights_at_t = block_weights(blocks, later.conj().T @ phi, earlier @ psi)
        overlap = np.vdot(phi, psi)
        if min(weights.sum(), weights_at_t.sum(), abs(overlap)) >= MIN_WEIGHT:
            break
    else:
        raise AssertionError("no well-conditioned selection drawn")

    path = tmp_path / "truth.json"
    path.write_text(json.dumps({
        "dims": [dim],
        "pre": pairs(psi),
        "post": pairs(phi),
        "hamiltonian": [{"duration": float(d), "matrix": pairs(h)} for d, h in zip(durations, hamiltonians)],
        "observables": [{"name": "O", "matrix": pairs(observable)}],
    }))
    base = ["--file", str(path), "--observable", "O", "--format", "json"]

    # a level moves by SPREAD r; a probability by 4 SPREAD / (GAP W)
    spread = dim * (dim + 3) * EPS
    tol_outcome = SAFETY * spread * radius
    tol_probability = SAFETY * 4.0 * spread / (GAP * MIN_WEIGHT)
    # each evolved state is off by d EPS per unit of ||H|| t, on top of the projector's error
    phase = sum(np.linalg.norm(h, 2) * d for h, d in zip(hamiltonians, durations))
    tol_at_t = tol_probability + SAFETY * 4.0 * dim * EPS * (1.0 + phase) / MIN_WEIGHT
    # the numerator <phi|O|psi> is off by d EPS r, the ratio by that over |<phi|psi>|
    tol_weak = SAFETY * dim * EPS * radius / MIN_WEIGHT
    assert max(tol_probability, tol_at_t) <= MAX_TOL
    assert tol_outcome <= MAX_TOL * radius and tol_weak <= MAX_TOL * radius

    assert_distribution(run_json(capsys, ["abl", *base]), outcomes, weights, tol_outcome, tol_probability)
    assert_distribution(run_json(capsys, ["abl", *base, f"--time={t!r}"]), outcomes, weights_at_t,
                        tol_outcome, tol_at_t)
    real, imag = run_json(capsys, ["weak", *base])["weak_value"]
    expected = np.vdot(phi, observable @ psi) / overlap
    assert abs(complex(real, imag) - expected) <= tol_weak
