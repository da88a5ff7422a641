"""Measurement dynamics and independent verification paths.

Projective (von Neumann) collapse, a Monte Carlo simulator of pre- and
post-selected ensembles in ordinary forward-only quantum mechanics, an
exact two-step conditional-probability oracle (an independent code path
from the ABL formula), and a Gaussian-pointer model of weak and strong
measurements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, NullEnsembleError
from .qcore import Bra, Ket, Observable
from .tsv import (
    CERTAINTY_TOL,
    _NULL_WEIGHT,
    Distribution,
    TwoStateVector,
    _abl_amplitudes,
    abl_probabilities,
    element_of_reality,
    weak_value,
)

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
    """Conditional outcome frequencies over a post-selected ensemble."""

    samples_total: int
    samples_postselected: int
    conditional_frequencies: dict
    standard_errors: dict
    seed: int
    workers: int


#: smallest pointer grid
MIN_POINTER_POINTS = 4096
#: largest pointer grid: 2**22 points is 32 MB per float64 array
MAX_POINTER_POINTS = 2**22
#: the automatic pointer grid spacing is at most sigma over this
POINTS_PER_SIGMA = 32
#: most Monte Carlo trials per run; each worker block is drawn in one call
MAX_MC_SAMPLES = 10**7
#: smallest resolvable shift: coupling * max|eigenvalue| below this times
#: sigma drowns in the quadrature residue (about 6e-17 sigma)
MIN_SHIFT_OVER_SIGMA = 1e-9
#: a Monte Carlo frequency agrees with its probability within this many standard errors
Z_LIMIT = 5.0


def _require_positive_finite(**values: float) -> None:
    for name, value in values.items():
        if not (np.isfinite(value) and value > 0.0):
            raise ConfigError(f"{name} must be positive and finite, got {value}")


def _require_grid_within_cap(points) -> None:
    if not points <= MAX_POINTER_POINTS:
        raise ConfigError(
            f"pointer grid of {points} points exceeds MAX_POINTER_POINTS = {MAX_POINTER_POINTS}"
        )


@dataclass(frozen=True)
class PointerConfig:
    """Gaussian pointer parameters and evaluation grid.

    ``coupling`` is the pointer shift per unit eigenvalue, ``sigma`` the
    initial position spread of the pointer wavefunction. All three lengths
    must be positive and finite, ``2 pi sigma^2`` must be a nonzero finite
    float64, and the grid may have at most ``MAX_POINTER_POINTS`` points;
    these are checked on construction, before any array is allocated. The
    grid must also satisfy
    ``half_range >= 10 * (sigma + coupling * max|eigenvalue|)``,
    ``points >= MIN_POINTER_POINTS`` and a spacing
    ``2 half_range / (points - 1)`` of at most ``sigma / 2``, and the largest
    shift ``coupling * max|eigenvalue|`` must not be below
    ``MIN_SHIFT_OVER_SIGMA * sigma`` unless it is 0; these are checked
    against the observable actually being measured.
    """

    coupling: float
    sigma: float
    half_range: float
    points: int

    def __post_init__(self):
        _require_positive_finite(
            coupling=self.coupling, sigma=self.sigma, half_range=self.half_range
        )
        if not 0.0 < 2.0 * np.pi * self.sigma * self.sigma < np.inf:
            raise ConfigError(
                f"sigma {self.sigma} puts the pointer normalization (2 pi sigma^2)^(-1/4) "
                "outside the float64 range"
            )
        _require_grid_within_cap(self.points)

    @classmethod
    def auto(cls, coupling: float, sigma: float, max_abs_eigenvalue: float) -> "PointerConfig":
        """Grid sized for the given coupling, spread, and spectral radius.

        The point count is chosen so the grid spacing is at most
        ``sigma / POINTS_PER_SIGMA`` (never below ``MIN_POINTER_POINTS``
        points), which keeps trapezoid quadrature error far below the model
        error.
        """
        _require_positive_finite(coupling=coupling, sigma=sigma)
        half_range = 10.0 * (sigma + coupling * max_abs_eigenvalue)
        points = np.ceil(2.0 * half_range * POINTS_PER_SIGMA / sigma) + 1
        # checked as a float: an overflowing grid is inf, which int() cannot take
        _require_grid_within_cap(points)
        points = max(MIN_POINTER_POINTS, int(points))
        return cls(coupling=coupling, sigma=sigma, half_range=half_range, points=points)

    def validate_for(self, obs: Observable) -> None:
        required = 10.0 * (self.sigma + self.coupling * obs.max_abs_eigenvalue)
        if self.half_range < required * (1.0 - 1e-12):
            raise ConfigError(
                f"half_range {self.half_range} < required {required} for this observable"
            )
        if self.points < MIN_POINTER_POINTS:
            raise ConfigError(f"grid needs at least {MIN_POINTER_POINTS} points, got {self.points}")
        # trapezoid aliasing of the Gaussian density is ~exp(-2 pi^2 sigma^2 / h^2)
        spacing = 2.0 * self.half_range / (self.points - 1)
        if spacing > self.sigma / 2.0:
            raise ConfigError(
                f"grid spacing {spacing:.6g} exceeds sigma / 2 = {self.sigma / 2.0:.6g}; "
                "use more points or a smaller half_range"
            )
        shift = self.coupling * obs.max_abs_eigenvalue
        if 0.0 < shift < MIN_SHIFT_OVER_SIGMA * self.sigma:
            raise ConfigError(
                f"pointer shift coupling * max|eigenvalue| = {shift:.6g} is below "
                f"{MIN_SHIFT_OVER_SIGMA:g} * sigma = {MIN_SHIFT_OVER_SIGMA * self.sigma:.6g}, "
                "where quadrature error swamps it"
            )


@dataclass(frozen=True, eq=False)
class PointerResult:
    """Conditional pointer distribution after post-selection."""

    positions: np.ndarray
    density: np.ndarray
    mean_shift: float
    postselection_rate: float


def ideal_measure(state: Ket, obs: Observable, rng: np.random.Generator) -> MeasurementRecord:
    """Sample one projective measurement with Born probabilities.

    The outcome o_n occurs with probability ||P_n |psi>||^2 and the state
    collapses to the renormalized projection.
    """
    if state.dim != obs.dim:
        raise DimensionError("state and observable dims differ")
    projected = obs.project(state)
    probs = _born_weights(projected)
    probs /= probs.sum()
    # the draw rng.choice(len(probs), p=probs) makes: one uniform against the
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
    """Squared norms ``||P_n psi||^2`` of the columns of :meth:`Observable.project`."""
    return np.einsum("ij,ij->j", projected.conj(), projected).real


def _sequential_born(pre: Ket, post: Bra, obs: Observable) -> tuple:
    """The two Born rules of a pre/post-selected trial, one entry per outcome n.

    Returns ``(p_outcome, p_post)``: the Born weight ``||P_n psi||^2`` of the
    intermediate outcome, and the Born probability ``|<phi|psi_n>|^2`` of
    the post-selection from the collapsed state ``psi_n``. An outcome of
    zero Born weight has ``p_post == 0``.
    """
    if pre.dim != obs.dim or post.dim != obs.dim:
        raise DimensionError("state and observable dims differ")
    projected = obs.project(pre)
    p_outcome = _born_weights(projected)
    norms = np.sqrt(p_outcome)
    collapsed = projected / np.where(norms > 0.0, norms, 1.0)
    p_post = np.abs(post.amplitudes.conj() @ collapsed) ** 2
    return p_outcome, p_post


def monte_carlo_abl(
    pre: Ket,
    post: Bra,
    obs: Observable,
    n_samples: int,
    seed: int = DEFAULT_SEED,
    workers: int = 1,
) -> MonteCarloReport:
    """Simulate the pre/post-selected ensemble in forward-only mechanics.

    Each trial prepares ``pre`` and performs the intermediate projective
    measurement of ``obs``, drawing outcome n with its Born weight. The
    trial is kept iff a uniform draw ``u`` satisfies
    ``u <= |<phi|psi_n>|^2``, the Born probability of the post-selection
    from the collapsed state ``psi_n``. Kept trials (and only those)
    contribute to the conditional frequencies.

    Deterministic for a fixed (seed, workers) pair: trials are partitioned
    into per-worker blocks in worker order, each worker draws from its own
    stream spawned from the master seed, and results merge in worker order.
    The workers run one after another in this process; ``workers`` only
    selects how the seed stream is partitioned. At most ``n_samples``
    blocks are drawn, since surplus workers would get no trials. At most
    ``MAX_MC_SAMPLES`` trials are allowed, since each block is drawn at once.

    Standard errors are binomial, with +1 smoothing at degenerate counts so
    acceptance bands never have zero width. If no trial survives the
    post-selection the report carries ``samples_postselected == 0`` and
    empty frequency tables; the caller decides what that means.
    """
    if n_samples < 1:
        raise ConfigError(f"samples must be at least 1, got {n_samples}")
    if n_samples > MAX_MC_SAMPLES:
        raise ConfigError(f"samples {n_samples} exceeds MAX_MC_SAMPLES = {MAX_MC_SAMPLES}")
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")

    n_outcomes = len(obs.eigenvalues)
    outcome_probs, p_post = _sequential_born(pre, post, obs)
    outcome_probs /= outcome_probs.sum()

    counts = np.zeros(n_outcomes, dtype=np.int64)
    kept_total = 0
    base, extra = divmod(n_samples, workers)
    streams = np.random.SeedSequence(seed).spawn(min(workers, n_samples))
    for w, stream in enumerate(streams):
        block = base + (w < extra)
        rng = np.random.default_rng(stream)
        intermediate = rng.choice(n_outcomes, size=block, p=outcome_probs)
        kept = intermediate[rng.random(block) <= p_post[intermediate]]
        counts += np.bincount(kept, minlength=n_outcomes)
        kept_total += kept.size

    if kept_total == 0:
        return MonteCarloReport(
            samples_total=n_samples,
            samples_postselected=0,
            conditional_frequencies={},
            standard_errors={},
            seed=seed,
            workers=workers,
        )

    frequencies = {}
    errors = {}
    for eig, count in zip(obs.eigenvalues, counts):
        freq = count / kept_total
        se = float(np.sqrt(freq * (1.0 - freq) / kept_total))
        if se == 0.0:
            smoothed = (count + 1) / (kept_total + 2)
            se = float(np.sqrt(smoothed * (1.0 - smoothed) / kept_total))
        frequencies[eig] = float(freq)
        errors[eig] = se
    return MonteCarloReport(
        samples_total=n_samples,
        samples_postselected=kept_total,
        conditional_frequencies=frequencies,
        standard_errors=errors,
        seed=seed,
        workers=workers,
    )


def z_scores(report: MonteCarloReport, dist: Distribution) -> dict:
    """``(frequency - probability) / standard error`` per outcome of ``dist``; a run agrees iff each is within ``Z_LIMIT``."""
    freqs, errors = report.conditional_frequencies, report.standard_errors
    return {outcome: (freqs[outcome] - prob) / errors[outcome] for outcome, prob in dist.entries}


def exact_conditional_oracle(pre: Ket, post: Bra, obs: Observable) -> Distribution:
    """Conditional probabilities via two sequential Born rules.

    For each outcome: the Born probability of the intermediate outcome from
    ``pre``, times the Born probability of the post-selection from the
    collapsed state; the joint weights are then normalized. This shares no
    formula with the ABL path and serves as its independent oracle.
    """
    p_outcome, p_post = _sequential_born(pre, post, obs)
    weights = p_outcome * p_post
    total = weights.sum()
    if total <= _NULL_WEIGHT:
        raise NullEnsembleError("post-selection is unreachable from every intermediate outcome")
    probs = weights / total
    probs = probs / probs.sum()
    return Distribution(tuple(zip(obs.eigenvalues, probs)))


def weak_measure_pointer(
    tsv: TwoStateVector,
    obs: Observable,
    cfg: PointerConfig,
) -> PointerResult:
    """Gaussian-pointer measurement of ``obs`` on a pre/post-selected system.

    The pointer starts in a Gaussian position wavefunction of spread
    ``sigma`` and is impulsively translated by ``coupling * o_n`` on each
    eigenspace. Conditioned on the post-selection, the pointer wavefunction
    is

        phi(q) = sum_n <phi|P_n|psi> G(q - coupling * o_n)

    whose normalized density, mean shift (trapezoid quadrature), and
    post-selection rate are returned. In the weak regime the mean shift
    approaches ``coupling * Re(weak value)``; in the strong regime the
    density splits into bumps at the scaled eigenvalues carrying the
    conditional (ABL) masses.
    """
    amplitudes = _abl_amplitudes(tsv, obs)
    cfg.validate_for(obs)
    q = np.linspace(-cfg.half_range, cfg.half_range, cfg.points)
    centers = cfg.coupling * np.asarray(obs.eigenvalues)
    packets = (2.0 * np.pi * cfg.sigma**2) ** (-0.25) * np.exp(
        -((q[None, :] - centers[:, None]) ** 2) / (4.0 * cfg.sigma**2)
    )
    wavefunction = amplitudes @ packets
    raw_density = np.abs(wavefunction) ** 2
    rate = float(np.trapezoid(raw_density, q))
    if rate <= _NULL_WEIGHT:
        raise NullEnsembleError("post-selection annihilates the pointer wavefunction")
    density = raw_density / rate
    mean_shift = float(np.trapezoid(q * density, q))
    density.flags.writeable = False
    q.flags.writeable = False
    return PointerResult(
        positions=q,
        density=density,
        mean_shift=mean_shift,
        postselection_rate=min(rate, 1.0),
    )


def pointer_bump_masses(result: PointerResult, obs: Observable, coupling: float) -> dict:
    """Integrated density mass around each scaled eigenvalue.

    Splits the grid at midpoints between adjacent bump centers
    ``coupling * o_n`` and integrates the density over each window. Only
    meaningful in the strong regime, where the bumps are well separated.
    """
    centers = [coupling * e for e in obs.eigenvalues]
    edges = [-np.inf] + [
        (a + b) / 2.0 for a, b in zip(centers[:-1], centers[1:])
    ] + [np.inf]
    q = result.positions
    masses = {}
    for eig, lo, hi in zip(obs.eigenvalues, edges[:-1], edges[1:]):
        window = (q >= lo) & (q < hi)
        if window.sum() < 2:
            masses[eig] = 0.0
            continue
        masses[eig] = float(np.trapezoid(result.density[window], q[window]))
    return masses


@dataclass(frozen=True)
class ConsistencyReport:
    """Strong/weak measurement agreement for one selection and observable."""

    certain: bool
    certain_value: float | None
    weak: complex
    dichotomic: bool
    strong_implies_weak: bool | None
    weak_implies_strong: bool | None
    passed: bool


def strong_weak_consistency(tsv: TwoStateVector, obs: Observable) -> ConsistencyReport:
    """Check the two bridges between strong and weak measurements.

    If the strong outcome is certain, the weak value must equal it; and for
    a dichotomic observable whose weak value equals one of the two
    eigenvalues, the strong measurement must give that outcome with
    certainty. Implications whose premise does not apply are reported as
    None and count as passing.
    """
    report = element_of_reality(tsv, obs)
    wv = weak_value(tsv, obs.op)
    strong_implies_weak = None
    if report.certain:
        strong_implies_weak = bool(abs(wv - report.value) <= CERTAINTY_TOL)
    dichotomic = len(obs.eigenvalues) == 2
    weak_implies_strong = None
    if dichotomic:
        matched = [e for e in obs.eigenvalues if abs(wv - e) <= CERTAINTY_TOL]
        if matched:
            dist = abl_probabilities(tsv, obs)
            prob = dict(dist.entries)[matched[0]]
            weak_implies_strong = bool(prob >= 1.0 - CERTAINTY_TOL)
    passed = all(flag is not False for flag in (strong_implies_weak, weak_implies_strong))
    return ConsistencyReport(
        certain=report.certain,
        certain_value=report.value,
        weak=wv,
        dichotomic=dichotomic,
        strong_implies_weak=strong_implies_weak,
        weak_implies_strong=weak_implies_strong,
        passed=passed,
    )
