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
    Distribution,
    TwoStateVector,
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


@dataclass(frozen=True)
class PointerConfig:
    """Gaussian pointer parameters and evaluation grid.

    ``coupling`` is the pointer shift per unit eigenvalue, ``sigma`` the
    initial position spread of the pointer wavefunction. The grid must
    satisfy ``half_range >= 10 * (sigma + coupling * max|eigenvalue|)`` and
    ``points >= 4096``; both are checked against the observable actually
    being measured.
    """

    coupling: float
    sigma: float
    half_range: float
    points: int

    def __post_init__(self):
        if self.coupling <= 0.0 or self.sigma <= 0.0:
            raise ConfigError("coupling and sigma must be positive")

    @classmethod
    def auto(
        cls,
        coupling: float,
        sigma: float,
        max_abs_eigenvalue: float,
        points_per_sigma: int = 32,
    ) -> "PointerConfig":
        """Grid sized for the given coupling, spread, and spectral radius.

        The point count is chosen so the grid spacing is at most
        ``sigma / points_per_sigma`` (never below the 4096 floor), which
        keeps trapezoid quadrature error far below the model error.
        """
        if coupling <= 0.0 or sigma <= 0.0:
            raise ConfigError("coupling and sigma must be positive")
        half_range = 10.0 * (sigma + coupling * max_abs_eigenvalue)
        points = max(4096, int(np.ceil(2.0 * half_range * points_per_sigma / sigma)) + 1)
        return cls(coupling=coupling, sigma=sigma, half_range=half_range, points=points)

    def validate_for(self, obs: Observable) -> None:
        required = 10.0 * (self.sigma + self.coupling * obs.max_abs_eigenvalue)
        if self.half_range < required * (1.0 - 1e-12):
            raise ConfigError(
                f"half_range {self.half_range} < required {required} for this observable"
            )
        if self.points < 4096:
            raise ConfigError(f"grid needs at least 4096 points, got {self.points}")


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
    index = int(rng.choice(len(probs), p=probs))
    return MeasurementRecord(
        outcome=obs.eigenvalues[index],
        post_state=Ket(projected[:, index]),
        probability=float(probs[index]),
    )


def _born_weights(projected: np.ndarray) -> np.ndarray:
    """Squared norms ``||P_n psi||^2`` of the columns of :meth:`Observable.project`."""
    return np.einsum("ij,ij->j", projected.conj(), projected).real


def _collapsed(projected: np.ndarray, born: np.ndarray) -> np.ndarray:
    """Projected columns renormalized; a column of zero Born weight is left as is."""
    norms = np.sqrt(born)
    return projected / np.where(norms > 0.0, norms, 1.0)


def _basis_containing(first: np.ndarray) -> np.ndarray:
    """Orthonormal basis (rows) whose first vector spans ``first``.

    Deterministic: the standard basis vector most parallel to ``first`` is
    dropped and the rest are orthogonalized against it (QR), so the basis
    depends only on the given state. Row phases are irrelevant to the
    outcome probabilities computed from it.
    """
    dim = first.size
    unit = first / np.linalg.norm(first)
    drop = int(np.argmax(np.abs(unit)))
    columns = np.zeros((dim, dim), dtype=complex)
    columns[:, 0] = unit
    keep = [i for i in range(dim) if i != drop]
    for col, i in enumerate(keep, start=1):
        columns[i, col] = 1.0
    q, _ = np.linalg.qr(columns)
    return q.T


def _worker_counts(n_samples: int, workers: int) -> list:
    base, extra = divmod(n_samples, workers)
    return [base + (1 if w < extra else 0) for w in range(workers)]


def monte_carlo_abl(
    pre: Ket,
    post: Bra,
    obs: Observable,
    n_samples: int,
    seed: int = DEFAULT_SEED,
    workers: int = 1,
) -> MonteCarloReport:
    """Simulate the pre/post-selected ensemble in forward-only mechanics.

    Each trial prepares ``pre``, performs the intermediate projective
    measurement of ``obs``, then measures a complete orthonormal basis
    containing the post state and keeps the trial iff that outcome occurs.
    Kept trials (and only those) contribute to the conditional frequencies.

    Deterministic for a fixed (seed, workers) pair: trials are partitioned
    into per-worker blocks in worker order, each worker draws from its own
    stream spawned from the master seed, and results merge in worker order.

    Standard errors are binomial, with +1 smoothing at degenerate counts so
    acceptance bands never have zero width. If no trial survives the
    post-selection the report carries ``samples_postselected == 0`` and
    empty frequency tables; the caller decides what that means.
    """
    if n_samples < 1:
        raise ConfigError(f"samples must be at least 1, got {n_samples}")
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    if pre.dim != obs.dim or post.dim != obs.dim:
        raise DimensionError("state and observable dims differ")

    n_outcomes = len(obs.eigenvalues)
    projected = obs.project(pre)
    outcome_probs = _born_weights(projected)
    # collapsed state per intermediate outcome (zero-probability rows unused)
    collapsed = _collapsed(projected, outcome_probs).T
    outcome_probs /= outcome_probs.sum()

    basis = _basis_containing(post.amplitudes)  # rows; row 0 is the post state
    final_probs = np.abs(basis.conj() @ collapsed.T) ** 2  # [basis row, outcome]
    col_mass = final_probs.sum(axis=0, keepdims=True)  # zero only for unsampled outcomes
    final_probs = final_probs / np.where(col_mass == 0.0, 1.0, col_mass)
    final_cdf = np.cumsum(final_probs.T, axis=1)  # [outcome, basis row]

    counts = np.zeros(n_outcomes, dtype=np.int64)
    kept_total = 0
    streams = np.random.SeedSequence(seed).spawn(workers)
    for block, stream in zip(_worker_counts(n_samples, workers), streams):
        if block == 0:
            continue
        rng = np.random.default_rng(stream)
        intermediate = rng.choice(n_outcomes, size=block, p=outcome_probs)
        u = rng.random(block)
        final = (u[:, None] > final_cdf[intermediate]).sum(axis=1)
        kept = intermediate[final == 0]
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


def exact_conditional_oracle(pre: Ket, post: Bra, obs: Observable) -> Distribution:
    """Conditional probabilities via two sequential Born rules.

    For each outcome: the Born probability of the intermediate outcome from
    ``pre``, times the Born probability of the post-selection from the
    collapsed state; the joint weights are then normalized. This shares no
    formula with the ABL path and serves as its independent oracle.
    """
    if pre.dim != obs.dim or post.dim != obs.dim:
        raise DimensionError("state and observable dims differ")
    projected = obs.project(pre)
    p_outcome = _born_weights(projected)
    p_post = np.abs(post.amplitudes.conj() @ _collapsed(projected, p_outcome)) ** 2
    weights = p_outcome * p_post
    total = weights.sum()
    if total <= 1e-24:
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
    if tsv.dim != obs.dim:
        raise DimensionError("two-state vector and observable dims differ")
    cfg.validate_for(obs)
    amplitudes = obs.amplitudes(tsv.backward, tsv.forward)
    q = np.linspace(-cfg.half_range, cfg.half_range, cfg.points)
    centers = cfg.coupling * np.asarray(obs.eigenvalues)
    packets = (2.0 * np.pi * cfg.sigma**2) ** (-0.25) * np.exp(
        -((q[None, :] - centers[:, None]) ** 2) / (4.0 * cfg.sigma**2)
    )
    wavefunction = amplitudes @ packets
    raw_density = np.abs(wavefunction) ** 2
    rate = float(np.trapezoid(raw_density, q))
    if rate <= 1e-24:
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


def strong_weak_consistency(
    tsv: TwoStateVector,
    obs: Observable,
    tol: float = CERTAINTY_TOL,
) -> ConsistencyReport:
    """Check the two bridges between strong and weak measurements.

    If the strong outcome is certain, the weak value must equal it; and for
    a dichotomic observable whose weak value equals one of the two
    eigenvalues, the strong measurement must give that outcome with
    certainty. Implications whose premise does not apply are reported as
    None and count as passing.
    """
    report = element_of_reality(tsv, obs, tol=tol)
    wv = weak_value(tsv, obs.op)
    strong_implies_weak = None
    if report.certain:
        strong_implies_weak = bool(abs(wv - report.value) <= tol)
    dichotomic = len(obs.eigenvalues) == 2
    weak_implies_strong = None
    if dichotomic:
        matched = [e for e in obs.eigenvalues if abs(wv - e) <= tol]
        if matched:
            dist = abl_probabilities(tsv, obs)
            prob = dict(dist.entries)[matched[0]]
            weak_implies_strong = bool(prob >= 1.0 - tol)
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
