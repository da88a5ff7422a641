"""Two-state vectors and their calculus.

A system between a pre-selection |psi> and a post-selection <phi| is
described by the pair <phi| |psi>. This module implements conditional
outcome probabilities for an intermediate ideal measurement (the
Aharonov-Bergmann-Lebowitz rule), weak values, the generalization of both
to weighted superpositions of two-state vectors (including construction
from an unmeasured ancilla), certainty reports ("elements of reality"),
product-rule analysis, and the two-time correlation kernel pairing a
forward-evolving particle with a backward-evolving one.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DimensionError,
    NotMeasurableError,
    NullEnsembleError,
    OrthogonalSelectionError,
    RangeError,
)
from .qcore import (
    Bra,
    HamiltonianSchedule,
    Ket,
    Observable,
    Operator,
    _unit_scaled,
    evolve_backward,
    evolve_forward,
    matrix_element,
    overlap,
    spectral_decompose,
)

#: |<phi|psi>| at or below this counts as an orthogonal selection
ORTHOGONALITY_THRESHOLD = 1e-10
#: an outcome whose conditional probability is at least 1 minus this is certain
CERTAINTY_TOL = 1e-10
#: certain values closer than this satisfy the product rule
PRODUCT_VALUE_TOL = 1e-8
#: squared-amplitude mass below which an ensemble is considered empty
_NULL_WEIGHT = 1e-24


@dataclass(frozen=True, eq=False)
class TwoStateVector:
    """The pair <phi| |psi> with the overlap <phi|psi> cached."""

    forward: Ket
    backward: Bra
    overlap: complex = field(init=False)

    def __post_init__(self):
        if self.forward.dim != self.backward.dim:
            raise DimensionError("forward and backward states must share a dimension")
        object.__setattr__(self, "overlap", overlap(self.backward, self.forward))

    @property
    def dim(self) -> int:
        return self.forward.dim

    @property
    def terms(self) -> tuple:
        """The one-term generalized form ``((1, backward, forward),)``."""
        return ((1.0 + 0.0j, self.backward, self.forward),)


@dataclass(frozen=True, eq=False)
class GeneralizedTwoStateVector:
    """Weighted superposition of two-state vectors: sum_i alpha_i <phi_i| |psi_i>.

    Arises from pre- and post-selecting a system jointly with an ancilla
    that is not measured in between; see :func:`gtsv_from_ancilla`. If the
    largest real or imaginary part of the weights lies outside [0.5, 2], all
    are stored scaled by the power of two that puts it into [0.5, 1): exact,
    so no result changes, and the absolute thresholds see any scale alike.
    """

    terms: tuple  # of (alpha: complex, backward: Bra, forward: Ket)

    def __post_init__(self):
        terms = tuple((complex(a), b, f) for a, b, f in self.terms)
        if not all(cmath.isfinite(a) for a, _, _ in terms):
            raise ValueError("term weights must be finite")
        if not terms:
            raise DimensionError("generalized two-state vector needs at least one term")
        dims = {f.dim for _, _, f in terms} | {b.dim for _, b, _ in terms}
        if len(dims) != 1:
            raise DimensionError("all terms must share one dimension")
        if not any(a != 0.0 for a, _, _ in terms):
            raise NullEnsembleError("all term weights vanish")
        top = max(max(abs(a.real), abs(a.imag)) for a, _, _ in terms)
        if not 0.5 <= top <= 2.0:
            # ABL probabilities and weak values are ratios, unchanged by a common
            # factor, which a power of two applies exactly
            alphas = _unit_scaled(np.array([a for a, _, _ in terms]))
            terms = tuple((a, b, f) for a, (_, b, f) in zip(alphas.tolist(), terms))
        object.__setattr__(self, "terms", terms)

    @property
    def dim(self) -> int:
        return self.terms[0][2].dim


@dataclass(frozen=True, eq=False)
class TwoTimeKernel:
    """Operator-valued correlation object |i>_A <j|_B.

    Links a forward-evolving particle A with a backward-evolving particle B:
    rows index the A space, columns the B space. Must be nonzero.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex).copy()
        if m.ndim != 2 or 0 in m.shape:
            raise DimensionError("kernel must be a non-empty matrix")
        if not m.any():
            raise NullEnsembleError("kernel must be nonzero")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @cached_property
    def _scaled(self) -> tuple:
        """``(K~, ||K~||_F^2)`` for ``K~`` the matrix times the power of two putting its largest real or imaginary part in [0.5, 1)."""
        m = _unit_scaled(self.matrix)
        return m, np.sum(np.abs(m) ** 2)

    @property
    def dim_forward(self) -> int:
        return self.matrix.shape[0]

    @property
    def dim_backward(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class Distribution:
    """Normalized outcome -> probability table, outcomes ascending."""

    entries: tuple  # of (outcome: float, probability: float)

    def __post_init__(self):
        entries = tuple((float(o), float(p)) for o, p in self.entries)
        if not all(math.isfinite(p) for _, p in entries):
            raise ValueError("probabilities must be finite")
        if any(p < 0.0 for _, p in entries):
            raise ValueError("probabilities must be non-negative")
        total = sum(p for _, p in entries)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total}, not 1")
        object.__setattr__(self, "entries", entries)

    @property
    def outcomes(self) -> tuple:
        return tuple(o for o, _ in self.entries)

    @property
    def probabilities(self) -> tuple:
        return tuple(p for _, p in self.entries)

    def max_entry(self) -> tuple:
        """(outcome, probability) of the most likely outcome."""
        return max(self.entries, key=lambda e: e[1])


@dataclass(frozen=True)
class CertaintyReport:
    """Whether an observable's intermediate outcome is dispersion-free."""

    label: str
    certain: bool
    value: float | None
    probability: float


def _abl_amplitudes(selection, obs: Observable) -> np.ndarray:
    """``sum_i alpha_i <phi_i|P_n|psi_i>`` for every merged eigenspace n."""
    if selection.dim != obs.dim:
        raise DimensionError("selection and observable dims differ")
    return sum(a * obs.amplitudes(b, f) for a, b, f in selection.terms)


def abl_probabilities(selection, obs: Observable) -> Distribution:
    """Conditional outcome probabilities of an intermediate ideal measurement.

    Implements the Aharonov-Bergmann-Lebowitz rule

        Prob(o_n) = |sum_i alpha_i <phi_i| P_n |psi_i>|^2 / (normalization)

    over the observable's merged eigenspaces, with the amplitudes
    ``<phi|P_n|psi>`` taken from the eigenvector blocks (see
    :meth:`~tsvlab.qcore.Observable.amplitudes`). ``selection`` is a
    TwoStateVector (the one term ``1 <phi| |psi>``) or a
    GeneralizedTwoStateVector. The term sum is coherent, inside the
    modulus: the unique form consistent with reducing a joint system with an
    unmeasured ancilla (see :func:`gtsv_from_ancilla`).

    Raises
    ------
    NullEnsembleError
        If every amplitude vanishes (the denominator is zero).
    """
    weights = np.abs(_abl_amplitudes(selection, obs)) ** 2
    total = weights.sum()
    if total <= _NULL_WEIGHT:
        raise NullEnsembleError(
            "this pre/post-selection is incompatible with measuring this observable at this time"
        )
    probs = weights / total
    return Distribution(tuple(zip(obs.eigenvalues, probs / probs.sum())))


def abl_at_time(
    pre: Ket,
    post: Bra,
    schedule: HamiltonianSchedule,
    t: float,
    obs: Observable,
) -> Distribution:
    """Intermediate-measurement probabilities at time ``t`` inside a schedule.

    The schedule starts at time 0 (where ``pre`` is selected) and ends at
    its total duration (where ``post`` is selected). The forward state is
    evolved over [0, t], the backward state over [t, end], and the ABL rule
    is applied to the resulting pair. Only the one backward state needs
    evolving for any number of observables at ``t``.

    Raises
    ------
    TimeWindowError
        If ``t`` lies outside the schedule window.
    """
    earlier, later = schedule.split_at(t)
    forward = evolve_forward(pre, earlier)
    backward = evolve_backward(post, later)
    return abl_probabilities(TwoStateVector(forward, backward), obs)


def gtsv_from_ancilla(
    joint_pre: Ket,
    joint_post: Bra,
    system_dim: int,
    ancilla_dim: int,
) -> GeneralizedTwoStateVector:
    """Reduce a jointly selected system+ancilla pair to a generalized TSV.

    The joint states live on system (x) ancilla with the system as the slow
    tensor factor. Expanding both over the computational ancilla basis,

        |pre>  = sum_i |psi_i>_S |i>_A,      <post| = sum_i <phi_i|_S <i|_A,

    yields one term per ancilla basis state: alpha_i is the product of the
    two expansion norms and phi_i, psi_i are the normalized sector states.
    Terms whose weight vanishes are dropped.

    Raises
    ------
    DimensionError
        If the joint dimension is not system_dim * ancilla_dim.
    NullEnsembleError
        If no term survives (every sector pairing is empty).
    """
    if system_dim <= 0 or ancilla_dim <= 0:
        raise DimensionError("factor dimensions must be positive")
    if joint_pre.dim != system_dim * ancilla_dim or joint_post.dim != joint_pre.dim:
        raise DimensionError(
            f"joint dim {joint_pre.dim}/{joint_post.dim} != {system_dim} * {ancilla_dim}"
        )
    pre_sectors = joint_pre.amplitudes.reshape(system_dim, ancilla_dim)
    post_sectors = joint_post.amplitudes.reshape(system_dim, ancilla_dim)
    terms = []
    for i in range(ancilla_dim):
        fwd = pre_sectors[:, i]
        bwd = post_sectors[:, i]
        weight = np.linalg.norm(fwd) * np.linalg.norm(bwd)
        if weight <= 1e-14:
            continue
        terms.append((complex(weight), Bra(bwd), Ket(fwd)))
    if not terms:
        raise NullEnsembleError("pre- and post-selection share no ancilla sector")
    return GeneralizedTwoStateVector(tuple(terms))


def weak_value(selection, op: Operator) -> complex:
    """Weak value sum_i alpha_i <phi_i|O|psi_i> / sum_i alpha_i <phi_i|psi_i>.

    For a TwoStateVector this is <phi|O|psi> / <phi|psi>, complex in
    general: the effective coupling seen by a weakly coupled probe, which
    may lie far outside the operator's eigenvalue range. For a generalized
    two-state vector it matches the joint-system weak value of
    O (x) identity under the ancilla reduction.

    Raises
    ------
    OrthogonalSelectionError
        If the (effective) overlap is at or below
        ``ORTHOGONALITY_THRESHOLD``; the ratio is undefined for orthogonal
        selections.
    RangeError
        If the ratio overflows float64.
    """
    denom = sum(a * overlap(b, f) for a, b, f in selection.terms)
    if abs(denom) <= ORTHOGONALITY_THRESHOLD:
        raise OrthogonalSelectionError(
            f"pre/post overlap {abs(denom):.3e} is below the weak-value threshold"
        )
    value = sum(a * matrix_element(b, op, f) for a, b, f in selection.terms) / denom
    if not cmath.isfinite(value):
        raise RangeError(f"weak value overflows float64 (pre/post overlap {abs(denom):.3e})")
    return value


#: the generalized name of the one ABL rule, kept for the benchmark's callers
abl_probabilities_generalized = abl_probabilities


def element_of_reality(selection, obs: Observable, label: str = "observable") -> CertaintyReport:
    """Report whether the observable's outcome is known with certainty.

    An observable whose intermediate-measurement outcome has conditional
    probability >= 1 - CERTAINTY_TOL is dispersion-free for this selection;
    its value is then an element of reality in the operational sense.

    ``selection`` may be a TwoStateVector or a GeneralizedTwoStateVector.
    """
    outcome, prob = abl_probabilities(selection, obs).max_entry()
    if prob >= 1.0 - CERTAINTY_TOL:
        return CertaintyReport(label=label, certain=True, value=outcome, probability=prob)
    return CertaintyReport(label=label, certain=False, value=None, probability=prob)


@dataclass(frozen=True)
class ProductRuleReport:
    """Certainty of A, B, and AB, and whether value(AB) = value(A)*value(B)."""

    a: CertaintyReport
    b: CertaintyReport
    product: CertaintyReport
    all_certain: bool
    product_rule_holds: bool | None  # None unless all three are certain


def product_rule_report(selection, obs_a: Observable, obs_b: Observable) -> ProductRuleReport:
    """Check the product rule on a pre/post-selected system.

    Evaluates certainty of A, B, and of the product operator AB (which must
    be Hermitian to be measurable), then compares value(AB) against
    value(A) * value(B), within ``PRODUCT_VALUE_TOL``, when all three are
    certain. For pre/post-selected systems the comparison can fail even
    though each factor is certain; for purely pre-selected systems it
    always holds.

    Raises
    ------
    NotMeasurableError
        If the operator product is not Hermitian.
    """
    product_op = obs_a.op @ obs_b.op
    if not product_op.is_hermitian:
        raise NotMeasurableError("product of the observables is not Hermitian")
    product_obs = spectral_decompose(product_op)
    report_a = element_of_reality(selection, obs_a, label="A")
    report_b = element_of_reality(selection, obs_b, label="B")
    report_ab = element_of_reality(selection, product_obs, label="AB")
    all_certain = report_a.certain and report_b.certain and report_ab.certain
    holds = None
    if all_certain:
        holds = bool(abs(report_ab.value - report_a.value * report_b.value) <= PRODUCT_VALUE_TOL)
    return ProductRuleReport(
        a=report_a,
        b=report_b,
        product=report_ab,
        all_certain=all_certain,
        product_rule_holds=holds,
    )


def two_time_distribution(k: TwoTimeKernel, obs_a: Observable, obs_b: Observable) -> np.ndarray:
    """Joint outcome table of ``obs_a`` on the forward leg (rows of K) and ``obs_b`` on the backward leg.

        Prob(a_m, b_n) = ||V_am^dagger K V_bn||_F^2 / ||K||_F^2

    over the merged eigenspaces (eigenvector blocks ``V_am``, ``V_bn``); the
    table sums to 1. K is first scaled by the exact power of two that puts
    its largest real or imaginary part into [0.5, 1), so no sum of squares
    over- or underflows and ``2**j * K`` gives the same table, bit for bit.

    Raises
    ------
    DimensionError
        If an observable's dimension differs from its kernel leg.
    """
    if obs_a.dim != k.dim_forward or obs_b.dim != k.dim_backward:
        raise DimensionError("observable dims do not match the kernel legs")
    m, norm2 = k._scaled
    weights = np.abs(obs_a.eigenvectors.conj().T @ m @ obs_b.eigenvectors) ** 2
    table = np.add.reduceat(np.add.reduceat(weights, obs_a.block_starts, axis=0), obs_b.block_starts, axis=1)
    return table / norm2


def _rank_one_vector(proj: Operator, leg: str) -> np.ndarray:
    """Unit vector ``v`` with ``proj == v v^dagger``, read from the largest diagonal column."""
    if not proj.is_hermitian:
        raise ValueError(f"{leg} projector must be Hermitian")
    p = proj.matrix
    diagonal = p.diagonal().real
    j = int(diagonal.argmax())
    if not diagonal[j] > 0.0:
        raise ValueError(f"{leg} projector must be rank-1 idempotent")
    # column j of v v^dagger is v conj(v_j), and its diagonal entry is |v_j|^2
    v = p[:, j] / math.sqrt(diagonal[j])
    if (abs(np.vdot(v, v).real - 1.0) > 1e-9
            or np.abs(p - np.outer(v, v.conj())).max() > 1e-9):
        raise ValueError(f"{leg} projector must be rank-1 idempotent")
    return v


def two_time_joint(k: TwoTimeKernel, proj_a: Operator, proj_b: Operator) -> float:
    """Joint probability ``|<a|K|b>|^2 / ||K||_F^2`` of |a><a| on the forward leg and |b><b| on the backward.

    The entry of :func:`two_time_distribution` for the eigenvalue-1
    eigenspaces of the two projectors. Each unit vector is read from its
    projector's largest diagonal column, ``P[:, j] / sqrt(P[j, j])``; the
    projector passes if that vector has unit norm and reproduces it, both
    within 1e-9. K is scaled as in :func:`two_time_distribution`.

    Raises
    ------
    DimensionError
        If a projector's dimension differs from its kernel leg.
    ValueError
        If a projector is not a Hermitian rank-1 idempotent.
    """
    if proj_a.dim != k.dim_forward or proj_b.dim != k.dim_backward:
        raise DimensionError("projector dims do not match the kernel legs")
    a = _rank_one_vector(proj_a, "forward")
    b = _rank_one_vector(proj_b, "backward")
    m, norm2 = k._scaled
    return float(abs(np.vdot(a, m @ b)) ** 2 / norm2)
