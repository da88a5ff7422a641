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
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    NotMeasurableError,
    NullEnsembleError,
    OrthogonalSelectionError,
    RangeError,
)
from .qcore import (
    FLAG_TOL,
    Bra,
    HamiltonianSchedule,
    Ket,
    Operator,
    _cached_property,
    _norm,
    _unit_scaled,
    evolve_backward,
    evolve_forward,
    overlap,
    spectral_decompose,  # not called here; bench/tests reads it as tsv.spectral_decompose
)

#: |<phi|psi>| at or below this counts as an orthogonal selection
ORTHOGONALITY_THRESHOLD = 1e-10
#: an outcome whose conditional probability is at least 1 minus this is certain
CERTAINTY_TOL = 1e-10
#: certain values closer than this times the factors' scale satisfy the product rule
PRODUCT_VALUE_TOL = 1e-8
#: squared-amplitude mass below which an ensemble is considered empty
_NULL_WEIGHT = 1e-24


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
        if not terms:
            raise DimensionError("generalized two-state vector needs at least one term")
        # one pass: the first faulty term's fault is raised
        dim, top = terms[0][2].dim, 0.0
        for a, b, f in terms:
            if not cmath.isfinite(a):
                raise ValueError("term weights must be finite")
            if b.dim != dim or f.dim != dim:
                raise DimensionError("all terms must share one dimension")
            top = max(top, abs(a.real), abs(a.imag))
        if top == 0.0:
            raise NullEnsembleError("all term weights vanish")
        if not 0.5 <= top <= 2.0:
            # ABL probabilities and weak values are ratios, unchanged by a common
            # factor, which a power of two applies exactly
            alphas, _ = _unit_scaled(np.array([a for a, _, _ in terms]))
            terms = tuple((a, b, f) for a, (_, b, f) in zip(alphas.tolist(), terms))
        object.__setattr__(self, "terms", terms)

    @property
    def dim(self) -> int:
        return self.terms[0][2].dim


class TwoStateVector(GeneralizedTwoStateVector):
    """The pair <phi| |psi>: the one-term generalized selection ``1 <phi| |psi>``."""

    def __init__(self, forward: Ket, backward: Bra):
        super().__init__(((1.0, backward, forward),))


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
        if not np.logical_and.reduce(np.isfinite(m), axis=None, dtype=bool):
            raise ValueError("kernel entries must be finite")
        if not np.logical_or.reduce(m, axis=None, dtype=bool):
            raise NullEnsembleError("kernel must be nonzero")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @_cached_property
    def _scaled(self) -> tuple:
        """``(K~, ||K~||_F^2)`` for ``K~`` the matrix times the power of two putting its largest real or imaginary part in [0.5, 1)."""
        m, _ = _unit_scaled(self.matrix)
        return m, np.add.reduce(np.abs(m) ** 2, axis=None)

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
        probs = [p for _, p in entries]
        if not all(map(math.isfinite, probs)):
            raise ValueError("probabilities must be finite")
        if min(probs, default=0.0) < 0.0:
            raise ValueError("probabilities must be non-negative")
        total = sum(probs)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total}, not 1")
        object.__setattr__(self, "entries", entries)


def _distribution(outcomes: tuple, weights: np.ndarray, null_message: str) -> Distribution:
    """``weights`` normalized twice over the ascending float ``outcomes``, or ``NullEnsembleError``.
    Finite non-negative weights over a positive total pass ``Distribution``'s checks, so they are skipped."""
    total = np.add.reduce(weights, axis=None)
    if total <= _NULL_WEIGHT:
        raise NullEnsembleError(null_message)
    probs = weights / total
    dist = object.__new__(Distribution)
    object.__setattr__(dist, "entries", tuple(zip(outcomes, (probs / np.add.reduce(probs, axis=None)).tolist())))
    return dist


@dataclass(frozen=True)
class CertaintyReport:
    """Whether an observable's intermediate outcome is dispersion-free."""

    label: str
    certain: bool
    value: float | None
    probability: float


def _abl_amplitudes(selection, obs: Operator) -> np.ndarray:
    """``sum_i alpha_i <phi_i|P_n|psi_i>`` for every merged eigenspace n."""
    if selection.dim != obs.dim:
        raise DimensionError("selection and observable dims differ")
    first, *rest = (a * obs.amplitudes(b, f) for a, b, f in selection.terms)
    return sum(rest, first)


def abl_probabilities(selection, obs: Operator) -> Distribution:
    """Conditional outcome probabilities of an intermediate ideal measurement.

    Implements the Aharonov-Bergmann-Lebowitz rule

        Prob(o_n) = |sum_i alpha_i <phi_i| P_n |psi_i>|^2 / (normalization)

    over the observable's merged eigenspaces, with the amplitudes
    ``<phi|P_n|psi>`` taken from the eigenvector blocks (see
    :meth:`~tsvlab.qcore.Operator.amplitudes`). ``selection`` is a
    GeneralizedTwoStateVector; a TwoStateVector is its one-term case
    ``1 <phi| |psi>``. The term sum is coherent, inside the
    modulus: the unique form consistent with reducing a joint system with an
    unmeasured ancilla (see :func:`gtsv_from_ancilla`).

    Raises
    ------
    NullEnsembleError
        If every amplitude vanishes (the denominator is zero).
    """
    weights = np.abs(_abl_amplitudes(selection, obs)) ** 2
    return _distribution(obs.eigenvalues, weights,
                         "this pre/post-selection is incompatible with measuring this observable at this time")


def at_time(selection, schedule: HamiltonianSchedule, t: float) -> GeneralizedTwoStateVector:
    """The selection as a measurement at time ``t`` inside a schedule sees it.

    The schedule starts at time 0, where the kets are selected, and ends at
    its total duration, where the bras are. The schedule is split once; each
    term's ket is evolved over [0, t] and its bra back over [t, end], and the
    weights are kept, so a pair gives its one-term form. Each segment's
    ``eigh`` is cached on its Hamiltonian, so n terms over k segments cost k
    decompositions.

    Raises
    ------
    TimeWindowError
        If ``t`` lies outside the schedule window.
    """
    earlier, later = schedule.split_at(t)
    terms = []
    for a, b, f in selection.terms:
        forward = evolve_forward(f, earlier)
        terms.append((a, evolve_backward(b, later), forward))
    return GeneralizedTwoStateVector(tuple(terms))


def abl_at_time(pre: Ket, post: Bra, schedule: HamiltonianSchedule, t: float, obs: Operator) -> Distribution:
    """ABL probabilities of the pair ``<post| |pre>`` at time ``t``: :func:`at_time`, then the ABL rule.

    Kept for its callers ``bench/probe.py`` and ``bench/tests/test_bench.py``.
    """
    return abl_probabilities(at_time(TwoStateVector(pre, post), schedule, t), obs)


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
        weight = _norm(fwd) * _norm(bwd)
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
    O (x) identity under the ancilla reduction. Only where O psi overflows, or
    the ratio is subnormal and O below 0.5, is it formed on O over a power of
    two, so it is found wherever finite and keeps a subnormal's bits.

    Raises
    ------
    DimensionError
        If the selection and the operator differ in dimension.
    OrthogonalSelectionError
        If the (effective) overlap is at or below
        ``ORTHOGONALITY_THRESHOLD``; the ratio is undefined for orthogonal
        selections.
    RangeError
        If the ratio overflows float64.
    """
    if selection.dim != op.dim:
        raise DimensionError(f"selection dim {selection.dim} != operator dim {op.dim}")
    denom = sum(a * overlap(b, f) for a, b, f in selection.terms)
    if abs(denom) <= ORTHOGONALITY_THRESHOLD:
        raise OrthogonalSelectionError(
            f"pre/post overlap {abs(denom):.3e} is below the weak-value threshold"
        )

    def ratio(matrix):
        return sum(a * complex(np.vdot(b.amplitudes, matrix @ f.amplitudes))
                   for a, b, f in selection.terms) / denom
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow takes the rescaled path below
        value = ratio(op.matrix)
    # the parts, not the modulus: abs() raises OverflowError on finite parts whose modulus overflows
    if not sys.float_info.min <= max(abs(value.real), abs(value.imag)) < math.inf:
        # O psi_i may overflow where the weak value does not, or underflow where it is subnormal:
        # take it on O over a power of two (for a subnormal one, only if that scales O up), then
        # scale each part back, keeping a zero's sign, in halves: 2.0**1024 overflows
        unit, e = _unit_scaled(op.matrix)
        if e < 0 or not cmath.isfinite(value):
            value, up, rest = ratio(unit), 2.0 ** (e // 2), 2.0 ** (e - e // 2)
            value = complex(value.real * up * rest, value.imag * up * rest)
    if not cmath.isfinite(value):
        raise RangeError(f"weak value overflows float64 (pre/post overlap {abs(denom):.3e})")
    return value


#: the generalized name of the one ABL rule, kept for the benchmark's callers
abl_probabilities_generalized = abl_probabilities


def element_of_reality(selection, obs: Operator, label: str = "observable") -> CertaintyReport:
    """Report whether the observable's outcome is known with certainty.

    An observable whose intermediate-measurement outcome has conditional
    probability >= 1 - CERTAINTY_TOL is dispersion-free for this selection;
    its value is then an element of reality in the operational sense.

    ``selection`` is a GeneralizedTwoStateVector, such as a TwoStateVector.
    """
    outcome, prob = max(abl_probabilities(selection, obs).entries, key=lambda e: e[1])
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


def product_rule_report(selection, obs_a: Operator, obs_b: Operator) -> ProductRuleReport:
    """Check the product rule on a pre/post-selected system.

    Evaluates certainty of A, B, and of the product operator AB (which must
    be Hermitian to be measurable), then compares value(AB) against
    value(A) * value(B) when all three are certain. For pre/post-selected
    systems the comparison can fail even though each factor is certain; for
    purely pre-selected systems it always holds.

    Thresholds on AB are relative to its factors' scale ``s = max|a| * max|b|``
    over their eigenvalues, since AB of commuting factors may vanish up to
    round-off: AB is Hermitian within ``FLAG_TOL * s``, its Hermitian part is
    decomposed with merges within ``DEGENERACY_TOL * s``, and the values agree
    within ``PRODUCT_VALUE_TOL * s``.

    Raises
    ------
    DimensionError
        If the two observables act on spaces of different dimensions.
    NotMeasurableError
        If the operator product is not Hermitian, or its scale overflows float64.
    """
    if obs_a.dim != obs_b.dim:
        raise DimensionError("observable dims differ")
    scale = obs_a.max_abs_eigenvalue * obs_b.max_abs_eigenvalue
    # an infinite scale is not measurable; a finite one bounds every entry and partial sum of AB
    if not FLAG_TOL * scale < math.inf:
        raise NotMeasurableError("product of the observables overflows float64")
    # halved, so neither difference nor sum overflows: a Hermitian AB of normal floats stays AB
    half = obs_a.matrix @ obs_b.matrix / 2.0
    adjoint = half.conj().T
    if not np.maximum.reduce(np.abs(half - adjoint), axis=None) <= FLAG_TOL * scale / 2.0:
        raise NotMeasurableError("product of the observables is not Hermitian")
    product_obs = Operator(half + adjoint, _scale=scale)
    report_a = element_of_reality(selection, obs_a, label="A")
    report_b = element_of_reality(selection, obs_b, label="B")
    report_ab = element_of_reality(selection, product_obs, label="AB")
    all_certain = report_a.certain and report_b.certain and report_ab.certain
    holds = None
    if all_certain:
        holds = bool(abs(report_ab.value - report_a.value * report_b.value) <= PRODUCT_VALUE_TOL * scale)
    return ProductRuleReport(
        a=report_a,
        b=report_b,
        product=report_ab,
        all_certain=all_certain,
        product_rule_holds=holds,
    )


def two_time_distribution(k: TwoTimeKernel, obs_a: Operator, obs_b: Operator) -> np.ndarray:
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


def two_time_joint(k: TwoTimeKernel, proj_a: Operator, proj_b: Operator) -> float:
    """Joint probability ``||P_a K P_b||_F^2 / ||K||_F^2`` of projector P_a on the forward leg and P_b on the backward.

    The entry of :func:`two_time_distribution` written for projectors of any
    rank: for ``P = V V^dagger``, ``||P_a K P_b||_F = ||V_a^dagger K V_b||_F``.
    A projector (an :class:`Operator`, so Hermitian) passes if
    ``max|P P - P| <= 1e-9``. K is scaled as in :func:`two_time_distribution`.

    Raises
    ------
    DimensionError
        If a projector's dimension differs from its kernel leg.
    ValueError
        If a projector is not idempotent.
    """
    if proj_a.dim != k.dim_forward or proj_b.dim != k.dim_backward:
        raise DimensionError("projector dims do not match the kernel legs")
    for proj, leg in ((proj_a, "forward"), (proj_b, "backward")):
        p = proj.matrix
        if not np.maximum.reduce(np.abs(p @ p - p), axis=None) <= 1e-9:
            raise ValueError(f"{leg} projector must be idempotent")
    m, norm2 = k._scaled
    return float(np.add.reduce(np.abs(proj_a.matrix @ m @ proj_b.matrix) ** 2, axis=None) / norm2)
