"""Ground-truth differential test: exit 0 must come with the right answer.

Each problem document is built from a spectrum that is known before the
command runs: levels of chosen multiplicities, written in the basis of a
random unitary Q, at a scale 2**k. The expected answers come from that
construction, never from an eigensolver:

* ``abl``: the ABL rule on Q's column blocks, ``<phi|P_n|psi> = (Q_n^+ phi)^+ (Q_n^+ psi)``;
* ``weak``: the ratio ``vdot(phi, O psi) / vdot(phi, psi)`` on the written matrix;
* ``abl --time``: the same blocks after evolving both states with
  ``scipy.linalg.expm`` over two random segments;
* ``verify``: its ``abl`` column against the blocks, and a PASS verdict
  whenever every ABL probability is at least ``MIN_TESTED_PROBABILITY``;
* ``pointer``: the closed-form rate and mean shift of Gaussian packets
  ``G(q - g o_n)`` weighted by the block amplitudes ``A_n = <phi|P_n|psi>``.
  Equal-width Gaussians overlap as ``exp(-(c_n - c_m)^2 / (8 sigma^2))``
  with their first moment at the midpoint, so the rate is
  ``sum A_n A_m^* exp(...)`` and the mean shift the same sum weighted by
  ``(c_n + c_m) / 2``, over the rate.

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
``<phi|O|psi>``, about ``d * EPS * r``, over ``|<phi|psi>|`` remains.

The pointer wavefunction ``<phi|G(q - g O)|psi>`` is a function of the matrix
itself, not of single eigenprojectors, so it carries no ``1 / GAP``: the
written matrix and the eigensolver together move O by ``2 SPREAD r``, which
moves each packet by ``2 g SPREAD r``, that is ``eta = 2 g SPREAD r / sigma``
of its width, and the normalized wavefunction by about ``eta``. The rate
``R`` moves by about ``2 eta`` and the mean shift by about
``2 eta (sigma + g r) / sqrt(R)``. The trapezoid sums add
``QUADRATURE`` relative to the rate and to ``sigma + g r``, and the
printed 12 significant digits add ``PRINTED`` relative to each value.
Each bound carries a safety factor of 4 and is at most ``MAX_TOL`` (of
``sigma + g r`` for the mean shift).
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
#: rounding of the pointer's trapezoid sums (pairwise, at most 2**22 terms) and of
#: its packets, relative to the rate and to sigma + g r
QUADRATURE = 64 * EPS
#: half a unit in the last of the 12 significant digits `pointer` prints
PRINTED = 5e-12
#: `verify` must PASS when every ABL probability is at least this
MIN_TESTED_PROBABILITY = 0.05
#: Monte Carlo trials per `verify` run; at least MIN_WEIGHT of them are kept
VERIFY_SAMPLES = 20_000


@st.composite
def spectra(draw):
    """``(levels, multiplicities, k)``: distinct integer levels with gaps of at least
    ``GAP`` of their radius (so at most 1000 in size), the dimension of each
    eigenspace (summing to at most 8), and the binary exponent of the scale."""
    dim = draw(st.integers(1, 8))
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


def block_amplitudes(blocks, phi, psi):
    """``<phi|P_n|psi>`` for each column block ``Q_n``."""
    return np.array([np.vdot(q.conj().T @ phi, q.conj().T @ psi) for q in blocks])


def block_weights(blocks, phi, psi):
    """``|<phi|P_n|psi>|^2`` for each column block ``Q_n``."""
    return np.abs(block_amplitudes(blocks, phi, psi)) ** 2


def pointer_closed_form(amplitudes, centers, sigma):
    """``(rate, mean shift)`` of the post-selected Gaussian pointer with packets at ``centers``."""
    pair = np.outer(amplitudes, amplitudes.conj())
    gap = (centers[:, None] - centers[None, :]) / sigma
    overlaps = pair * np.exp(-(gap**2) / 8.0)
    rate = overlaps.sum().real
    return rate, (overlaps * (centers[:, None] + centers[None, :]) / 2.0).sum().real / rate


def printed(out, label):
    """The number after ``label :`` in ``pointer``'s summary."""
    return float(next(line for line in out.splitlines() if line.startswith(label)).split(":")[1])


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

    # a pointer width within a factor 4 of the scale, and g r / sigma from 1e-3 to at most 10
    sigma = 2.0 ** (k + int(rng.integers(-2, 3)))
    g = sigma / 2.0**k * 10.0 ** rng.uniform(-3.0, 1.0)
    centers = g * np.array(outcomes)

    # redraw the selection until every quantity compared is well conditioned
    for _ in range(1000):
        psi, phi = unit_vector(rng, dim), unit_vector(rng, dim)
        amplitudes = block_amplitudes(blocks, phi, psi)
        weights = np.abs(amplitudes) ** 2
        weights_at_t = block_weights(blocks, later.conj().T @ phi, earlier @ psi)
        overlap = np.vdot(phi, psi)
        rate, mean_shift = pointer_closed_form(amplitudes, centers, sigma)
        if min(weights.sum(), weights_at_t.sum(), abs(overlap), rate / MIN_WEIGHT) >= MIN_WEIGHT:
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

    # verify prints the ABL rule in its abl column, and a verdict that must be PASS
    # when no outcome is too rare for the Monte Carlo bands
    code = main(["verify", *base, "--samples", str(VERIFY_SAMPLES), "--seed", str(seed)])
    doc = json.loads(capsys.readouterr().out)
    probabilities = weights / weights.sum()
    assert len(doc["outcomes"]) == len(outcomes)
    for row, level, p in zip(doc["outcomes"], outcomes, probabilities):
        assert abs(row["outcome"] - level) <= tol_outcome
        assert abs(row["abl"] - p) <= tol_probability
    if probabilities.min() >= MIN_TESTED_PROBABILITY:
        assert code == 0 and doc["passed"] is True
    else:
        assert code in (0, 1) and doc["passed"] is (code == 0)

    # pointer: the closed-form rate and mean shift, in units of sigma + g r
    length = sigma + g * radius
    eta = 2.0 * g * spread * radius / sigma
    tol_rate = SAFETY * (2.0 * eta + QUADRATURE) + PRINTED * rate
    tol_mean = SAFETY * (2.0 * eta / np.sqrt(rate) + QUADRATURE) * length + PRINTED * abs(mean_shift)
    assert tol_rate <= MAX_TOL and tol_mean <= MAX_TOL * length
    assert main(["pointer", "--file", str(path), "--observable", "O", "--g", repr(g),
                 "--sigma", repr(sigma), "--out", str(tmp_path / "pointer.csv")]) == 0
    out = capsys.readouterr().out
    assert abs(printed(out, "post-selection rate") - rate) <= tol_rate
    assert abs(printed(out, "mean_shift ") - mean_shift) <= tol_mean
