"""Measurement dynamics and independent verification paths.

Projective (von Neumann) collapse, a Monte Carlo simulator of pre- and
post-selected ensembles in ordinary forward-only quantum mechanics, an
exact two-step conditional-probability oracle (an independent code path
from the ABL formula), and a Gaussian-pointer model of weak and strong
measurements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError, NullEnsembleError
from .qcore import Bra, Ket, Operator
from .tsv import _NULL_WEIGHT, Distribution, TwoStateVector, _abl_amplitudes, _distribution

#: documented default master seed for randomized commands
DEFAULT_SEED = 20260810


@dataclass(frozen=True)
class MeasurementRecord:
    """One projective measurement: sampled outcome, collapsed state, its probability."""

    outcome: float
    post_state: Ket
    probability: float


@dataclass(frozen=True)
class MonteCarloReport:
    """Kept trials of a post-selected ensemble: ``counts[n]`` for eigenspace n, in eigenvalue order."""

    counts: tuple

    @property
    def samples_postselected(self) -> int:
        return sum(self.counts)


#: smallest pointer grid
MIN_POINTER_POINTS = 4096
#: largest pointer grid: 2**22 points is 32 MB per float64 array
MAX_POINTER_POINTS = 2**22
#: the pointer grid spacing is at most sigma over this
POINTS_PER_SIGMA = 32
#: most Monte Carlo trials per run: counts and trial totals up to it convert to float64 exactly
MAX_MC_SAMPLES = 2**53
#: smallest pointer spread: the density's mass, sqrt(2 pi) sigma times the rate, stays above 2**-979
MIN_SIGMA = 2.0**-900
#: smallest resolvable shift: coupling * max|eigenvalue| below this times
#: sigma drowns in the quadrature residue (about 6e-17 sigma)
MIN_SHIFT_OVER_SIGMA = 1e-9
#: a pointer packet is computed only where its exponent is below this; past
#: about 745.13, exp underflows to exactly 0, so the skipped points add nothing
PACKET_EXPONENT_CUT = 800.0
#: a Monte Carlo frequency agrees with its probability within this many standard errors
Z_LIMIT = 5.0


@dataclass(frozen=True)
class PointerConfig:
    """Gaussian pointer parameters and the evaluation grid they determine.

    ``coupling`` is the pointer shift per unit eigenvalue, ``sigma`` the
    initial position spread of the pointer wavefunction, and
    ``max_abs_eigenvalue`` the spectral radius of the observable the grid is
    built for. The grid spans ``+-half_range`` with
    ``half_range = 10 * (sigma + coupling * max_abs_eigenvalue)``, and has
    ``points`` chosen so its spacing is at most ``sigma / POINTS_PER_SIGMA``
    (never below ``MIN_POINTER_POINTS`` points), which keeps trapezoid
    quadrature error far below the model error. Construction checks, in this
    order and before any array is allocated, that ``coupling`` is positive and
    finite, ``sigma`` finite and at least ``MIN_SIGMA``, ``max_abs_eigenvalue``
    non-negative and finite, the largest shift ``coupling * max_abs_eigenvalue``
    not below ``MIN_SHIFT_OVER_SIGMA * sigma`` unless it is 0, the grid's width
    ``2 * half_range`` finite, and the grid at most ``MAX_POINTER_POINTS`` points.
    """

    coupling: float
    sigma: float
    max_abs_eigenvalue: float
    half_range: float = field(init=False)
    points: int = field(init=False)

    def __post_init__(self):
        # Python floats, so an overflowing grid size is inf without a numpy warning
        for name in ("coupling", "sigma", "max_abs_eigenvalue"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not 0.0 < self.coupling < math.inf:
            raise ConfigError(f"coupling must be positive and finite, got {self.coupling}")
        if not MIN_SIGMA <= self.sigma < math.inf:
            raise ConfigError(f"sigma must be finite and at least {MIN_SIGMA:.6g}, got {self.sigma}")
        if not 0.0 <= self.max_abs_eigenvalue < math.inf:
            raise ConfigError(f"max_abs_eigenvalue must be non-negative and finite, "
                              f"got {self.max_abs_eigenvalue}")
        shift = self.coupling * self.max_abs_eigenvalue
        if 0.0 < shift < MIN_SHIFT_OVER_SIGMA * self.sigma:
            raise ConfigError(
                f"pointer shift coupling * max|eigenvalue| = {shift:.6g} is below "
                f"{MIN_SHIFT_OVER_SIGMA:g} * sigma = {MIN_SHIFT_OVER_SIGMA * self.sigma:.6g}, "
                "where quadrature error swamps it"
            )
        half_range = 10.0 * (self.sigma + shift)
        if not 2.0 * half_range < math.inf:
            raise ConfigError(f"pointer grid +-{half_range:.6g} is wider than the float64 range")
        points = np.ceil(2.0 * (half_range / self.sigma) * POINTS_PER_SIGMA) + 1
        # over sigma first, so only a huge count overflows; checked as a float, for int(inf) fails
        if not points <= MAX_POINTER_POINTS:
            raise ConfigError(
                f"pointer grid of {points} points exceeds MAX_POINTER_POINTS = {MAX_POINTER_POINTS}"
            )
        object.__setattr__(self, "half_range", half_range)
        object.__setattr__(self, "points", max(MIN_POINTER_POINTS, int(points)))


@dataclass(frozen=True, eq=False)
class PointerResult:
    """Conditional pointer distribution after post-selection."""

    positions: np.ndarray
    density: np.ndarray
    mean_shift: float
    postselection_rate: float


def ideal_measure(state: Ket, obs: Operator, rng: np.random.Generator) -> MeasurementRecord:
    """Sample one projective measurement with Born probabilities.

    The outcome o_n occurs with probability ||P_n |psi>||^2 and the state
    collapses to the renormalized projection.
    """
    if state.dim != obs.dim:
        raise DimensionError("state and observable dims differ")
    projected = obs.project(state)
    probs = _born_weights(projected)
    probs /= np.add.reduce(probs, axis=None)
    # the draw Generator.choice(len(probs), p=probs) makes: one uniform against the
    # normalized cumulative sum, so the same index and stream position
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    index = int(cdf.searchsorted(rng.random(), side="right"))
    return MeasurementRecord(
        outcome=obs.eigenvalues[index],
        post_state=Ket(projected[:, index]),
        probability=float(probs[index]),
    )


def _born_weights(projected: np.ndarray) -> np.ndarray:
    """Squared norms ``||P_n psi||^2`` of the columns of :meth:`Operator.project`."""
    return np.einsum("ij,ij->j", projected.conj(), projected).real


def _sequential_born(selection, obs: Operator) -> tuple:
    """The two Born rules of a pre/post-selected trial, one entry per outcome n.

    The selection is read as its normalized ancilla dilation, one block per term (the inverse
    of :func:`~tsvlab.tsv.gtsv_from_ancilla`): ``sum_i sqrt|alpha_i| e^(i arg alpha_i) |psi_i>|i>``
    and ``sum_i sqrt(|alpha_i| / W) <phi_i|<i|``, ``W = sum_i |alpha_i|``. Returns ``(p, q)``:
    the Born weight ``p_n = sum_i |alpha_i| ||P_n psi_i||^2`` of the intermediate outcome, and the
    Born probability ``q_n = |sum_i alpha_i <phi_i|P_n psi_i> / sqrt(p_n)|^2 / W`` of the
    post-selection from the collapsed state; ``q_n == 0`` where ``p_n == 0``.
    """
    if selection.dim != obs.dim:
        raise DimensionError("state and observable dims differ")
    blocks = [(a, b, obs.project(f)) for a, b, f in selection.terms]
    first, *rest = (abs(a) * _born_weights(projected) for a, _, projected in blocks)
    p_outcome = sum(rest, first)
    norms = np.where(p_outcome > 0.0, np.sqrt(p_outcome), 1.0)
    # collapse first, then take the overlap: a pair's weight 1 changes no bit
    first, *rest = (a * (b.amplitudes.conj() @ (projected / norms)) for a, b, projected in blocks)
    amplitudes = sum(rest, first)
    return p_outcome, np.abs(amplitudes) ** 2 / sum(abs(a) for a, _, _ in blocks)


def monte_carlo(selection, obs: Operator, n_samples: int, seed: int = DEFAULT_SEED) -> MonteCarloReport:
    """Simulate the pre/post-selected ensemble in forward-only mechanics.

    ``selection`` is a GeneralizedTwoStateVector, such as a TwoStateVector,
    run as its ancilla dilation (see :func:`_sequential_born`). Each trial
    prepares the pre-selection and performs the intermediate projective
    measurement of ``obs``, finding outcome n with its Born weight ``p_n``;
    it is kept iff the post-selection then succeeds, with the Born
    probability ``q_n`` from the collapsed state. So a trial is kept in
    outcome n with probability ``p_n q_n``, and the kept counts of
    ``n_samples`` independent trials, with the dropped trials as a last
    cell, are one draw from their exact law,
    Multinomial(n_samples, [p_1 q_1, ..., 1 - sum_n p_n q_n]).

    Deterministic for a fixed seed. Time is that of the two Born rules plus
    O(outcomes), and memory does not grow with ``n_samples``, which is at
    most ``MAX_MC_SAMPLES``.

    If no trial survives the post-selection every count is 0; the caller
    decides what that means.
    """
    if n_samples < 1:
        raise ConfigError(f"samples must be at least 1, got {n_samples}")
    if n_samples > MAX_MC_SAMPLES:
        raise ConfigError(f"samples {n_samples} exceeds MAX_MC_SAMPLES = {MAX_MC_SAMPLES}")
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")

    p_outcome, p_post = _sequential_born(selection, obs)
    # rounding can lift a certain outcome's cell to 1 + a few ulp, which multinomial rejects
    cells = np.minimum(p_outcome / np.add.reduce(p_outcome, axis=None) * p_post, 1.0)
    # multinomial gives the last cell what the others leave: the dropped trials
    counts = np.random.default_rng(seed).multinomial(n_samples, [*cells, 0.0])[:-1]
    return MonteCarloReport(tuple(counts.tolist()))


def monte_carlo_abl(pre: Ket, post: Bra, obs: Operator, n_samples: int, seed: int = DEFAULT_SEED) -> MonteCarloReport:
    """:func:`monte_carlo` of the pair ``<post| |pre>``, kept for its caller ``bench/probe.py``."""
    return monte_carlo(TwoStateVector(pre, post), obs, n_samples, seed)


def measure(report: MonteCarloReport, dist: Distribution) -> list:
    """``(outcome, probability, frequency, standard error, z)`` per entry of ``dist``, a distribution
    over the observable the report counted (so in ``report.counts`` order); some trial must be kept.

    Standard errors are binomial, with +1 smoothing at a count of 0 or all so no band has
    zero width; a run agrees iff every ``|z|`` is within ``Z_LIMIT``.
    """
    kept = report.samples_postselected
    rows = []
    for (outcome, prob), count in zip(dist.entries, report.counts):
        freq = count / kept
        se = math.sqrt(freq * (1.0 - freq) / kept)
        if se == 0.0:
            smoothed = (count + 1) / (kept + 2)
            se = math.sqrt(smoothed * (1.0 - smoothed) / kept)
        rows.append((outcome, prob, freq, se, (freq - prob) / se))
    return rows


def exact_conditional_oracle(pre: Ket, post: Bra, obs: Operator) -> Distribution:
    """Conditional probabilities via two sequential Born rules.

    For each outcome: the Born probability of the intermediate outcome from
    ``pre``, times the Born probability of the post-selection from the
    collapsed state; the joint weights are then normalized. This shares no
    formula with the ABL path and serves as its independent oracle.
    """
    p_outcome, p_post = _sequential_born(TwoStateVector(pre, post), obs)
    return _distribution(obs.eigenvalues, p_outcome * p_post,
                         "post-selection is unreachable from every intermediate outcome")


def weak_measure_pointer(selection, obs: Operator, cfg: PointerConfig) -> PointerResult:
    """Gaussian-pointer measurement of ``obs`` on a pre/post-selected system.

    ``selection`` is a GeneralizedTwoStateVector, such as a TwoStateVector.
    The pointer starts in a Gaussian position wavefunction of spread
    ``sigma`` and is impulsively translated by ``coupling * o_n`` on each
    eigenspace. Conditioned on the post-selection, the pointer wavefunction is

        phi(q) = sum_n sum_i alpha_i <phi_i|P_n|psi_i> G(q - coupling * o_n)

    whose normalized density, mean shift (trapezoid quadrature), and
    post-selection rate are returned. The rate is divided by
    ``(sum_i |alpha_i|)**2`` (1 for a pair): it is the post-selection
    probability of the normalized ancilla dilation
    ``sum_i sqrt|alpha_i| e^(i arg alpha_i) |psi_i>|i>``,
    ``sum_i sqrt|alpha_i| <phi_i|<i|``, so it does not depend on the
    weights' scale. In the weak regime the mean shift
    approaches ``coupling * Re(weak value)``; in the strong regime the
    density splits into bumps at the scaled eigenvalues carrying the
    conditional (ABL) masses. ``cfg`` must be built for this observable's
    ``max_abs_eigenvalue``; another spectral radius raises ``ConfigError``.
    """
    amplitudes = _abl_amplitudes(selection, obs)
    if obs.max_abs_eigenvalue != cfg.max_abs_eigenvalue:
        raise ConfigError(
            f"pointer grid built for max|eigenvalue| {cfg.max_abs_eigenvalue}, "
            f"observable has {obs.max_abs_eigenvalue}"
        )
    q = np.linspace(-cfg.half_range, cfg.half_range, cfg.points)
    # offsets are divided by a power of two within a factor 2 of sigma before squaring,
    # so no square overflows, and the exponent keeps the bits of (q - g o_n)^2 / 4 sigma^2
    scale = 2.0 ** math.frexp(cfg.sigma)[1]
    width = 4.0 * (cfg.sigma / scale) ** 2
    # a Python float: near the float64 maximum it is inf, a window of the whole grid, with no warning
    reach = scale * math.sqrt(PACKET_EXPONENT_CUT * width)
    # one packet at a time, so memory is O(points) whatever the eigenspace count, each on
    # its window, real and imaginary parts apart (no complex temporary): bit for bit the
    # sum of every packet on every point from +0, up to signs of zero that |phi| removes
    wavefunction = np.zeros(cfg.points, dtype=complex)
    for amplitude, eigenvalue in zip(amplitudes, obs.eigenvalues):
        center = cfg.coupling * eigenvalue
        lo, hi = np.searchsorted(q, (center - reach, center + reach))
        packet = np.exp(-(((q[lo:hi] - center) / scale) ** 2) / width)
        wavefunction.real[lo:hi] += amplitude.real * packet
        packet *= amplitude.imag
        wavefunction.imag[lo:hi] += packet
    # at most four float64 words per grid point: the density is squared and normalized
    # in place once the wavefunction is gone, and both sums run in two reused rows in
    # np.trapezoid's order, add.reduce(diff(q) * (y[1:] + y[:-1]) / 2.0), so every bit
    # is that of np.trapezoid(|phi|^2, q) and np.trapezoid(q * density, q)
    density = np.abs(wavefunction)
    del wavefunction
    np.square(density, out=density)
    step, terms = np.empty((2, cfg.points - 1))

    def trapezoid(upper, lower):
        np.add(upper, lower, out=terms)
        np.subtract(q[1:], q[:-1], out=step)
        np.multiply(step, terms, out=terms)
        np.divide(terms, 2.0, out=terms)
        return float(np.add.reduce(terms))

    # the packets omit the Gaussian's norm 1 / (sqrt(2 pi) sigma) and the dilation's
    # 1 / sum_i |alpha_i|, which the rate takes once
    mass = trapezoid(density[1:], density[:-1])
    weight = sum(abs(a) for a, _, _ in selection.terms)
    rate = mass / scale / (math.sqrt(2.0 * math.pi) * (cfg.sigma / scale)) / weight**2
    if rate <= _NULL_WEIGHT:
        raise NullEnsembleError("post-selection annihilates the pointer wavefunction")
    density /= mass
    mean_shift = trapezoid(np.multiply(q[1:], density[1:], out=terms),
                           np.multiply(q[:-1], density[:-1], out=step))
    density.flags.writeable = False
    q.flags.writeable = False
    return PointerResult(
        positions=q,
        density=density,
        mean_shift=mean_shift,
        postselection_rate=min(rate, 1.0),
    )


#: ``cmd_pointer`` compares bump masses with the ABL rule when coupling times
#: the smallest eigenvalue gap is at least this many sigma
STRONG_GAP_OVER_SIGMA = 8.0


def pointer_bump_masses(result: PointerResult, obs: Operator, coupling: float) -> list:
    """Integrated density mass around each scaled eigenvalue, in eigenvalue order.

    Splits the grid at midpoints between adjacent bump centers
    ``coupling * o_n`` and integrates the density over each window. Only
    meaningful in the strong regime, where the bumps are well separated.
    """
    centers = [coupling * e for e in obs.eigenvalues]
    edges = [-np.inf] + [
        (a + b) / 2.0 for a, b in zip(centers[:-1], centers[1:])
    ] + [np.inf]
    q = result.positions
    masses = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        # q is sorted, so q[a:b] is exactly the points with lo <= q < hi
        a, b = np.searchsorted(q, (lo, hi))
        masses.append(float(np.trapezoid(result.density[a:b], q[a:b])))
    return masses
