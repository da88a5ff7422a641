"""Self-checking scenario definitions for the classic pre/post-selection systems.

Each scenario packages one selection object (a two-state vector, a
generalized two-state vector, or a two-time kernel), named observables,
and a list of executable checks with expected values. Provenance of each
expected value is one of:

* ``exact-property``: the value is the defining property the scenario exists
  to exhibit, exact by construction.
* ``cross-check``: the value is verified against an independent
  computational path.
* ``identity``: an algebraic identity of the formalism.
* ``statistical``: a Monte Carlo estimate checked within error bands.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .qcore import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    Bra,
    Ket,
    Operator,
    spectral_decompose,
)
from .tsv import (
    TwoStateVector,
    TwoTimeKernel,
    abl_probabilities,
    element_of_reality,
    gtsv_from_ancilla,
    product_rule_report,
    two_time_distribution,
    weak_value,
)
from . import measure
from .problemfile import ProblemFile

_MC_SAMPLES = 100_000
_MC_SEED = 424242
_DIRECTION_SEED = 1105


def spin_along(direction) -> Operator:
    """Spin component n . sigma for a unit 3-vector n."""
    n = np.asarray(direction, dtype=float)
    n = n / np.linalg.norm(n)
    return Operator(n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z)


def _random_directions(count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    vecs = rng.normal(size=(count, 3))
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


def _box_projector(dim: int, index: int):
    """Observable of the projector onto basis state ``index`` (one box, one spin)."""
    m = np.zeros((dim, dim), dtype=complex)
    m[index, index] = 1.0
    return spectral_decompose(Operator(m))


def _fmt(value) -> str:
    if isinstance(value, complex):
        return f"{value.real:.10g}{value.imag:+.10g}i"
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


@dataclass(frozen=True)
class Check:
    description: str
    provenance: str
    run: callable = field(repr=False)


@dataclass(frozen=True)
class CheckResult:
    description: str
    provenance: str
    expected: str
    actual: str
    passed: bool


@dataclass(frozen=True, kw_only=True)
class Scenario(ProblemFile):
    """A problem plus its executable checks; its name is its ``SCENARIOS`` key.

    ``dims`` are the subsystem dimensions of the space ``selection`` acts on:
    for mean-king the spin alone (the ancilla is folded into the generalized
    vector), for correlated-pair one leg of the 2 x 2 kernel.
    """

    description: str
    checks: tuple
    details: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Report:
    results: tuple
    passed: bool


def run_scenario(scenario: Scenario) -> Report:
    """Execute every check; the report fails iff any check fails."""
    results = []
    for check in scenario.checks:
        expected, actual, passed = check.run()
        results.append(
            CheckResult(
                description=check.description,
                provenance=check.provenance,
                expected=_fmt(expected),
                actual=_fmt(actual),
                passed=bool(passed),
            )
        )
    return Report(results=tuple(results), passed=all(r.passed for r in results))


def _certainty_check(selection, obs, expected_value, description):
    def run():
        report = element_of_reality(selection, obs)
        actual = report.value if report.certain else f"uncertain (max p={report.probability:.6g})"
        passed = report.certain and abs(report.value - expected_value) <= 1e-9
        return expected_value, actual, passed

    return Check(description=description, provenance="exact-property", run=run)


def _weak_value_check(selection, op, expected, description):
    def run():
        actual = weak_value(selection, op)
        return expected, actual, abs(actual - expected) <= 1e-10

    return Check(description=description, provenance="cross-check", run=run)


def _projector_sum_check(tsv, obs, description):
    def run():
        total = sum(weak_value(tsv, proj) for proj in obs.projectors)
        return 1.0, total, abs(total - 1.0) <= 1e-10

    return Check(description=description, provenance="identity", run=run)


def _monte_carlo_check(tsv, obs, description):
    def run():
        dist = abl_probabilities(tsv, obs)
        report = measure.monte_carlo_abl(
            tsv.forward, tsv.backward, obs, _MC_SAMPLES, seed=_MC_SEED
        )
        if report.samples_postselected == 0:
            expected = f"frequencies within {measure.Z_LIMIT:g} standard errors"
            return expected, "no post-selected samples", False
        worst = max(abs(z) for *_, z in measure.measure(report, dist))
        return f"max |z| <= {measure.Z_LIMIT:g}", f"max |z| = {worst:.3g}", worst <= measure.Z_LIMIT

    return Check(description=description, provenance="statistical", run=run)


def scenario_spin_box() -> Scenario:
    """Spin-1/2 particle distributed over two boxes.

    Selected so that finding it in box A is certain whether one looks with
    spin up or with spin down, while the product of the two projections is
    certainly zero: certainty does not multiply. The box-B spin-up
    projection has weak value -1, outside the {0, 1} eigenvalue range.
    The basis direction |B,down> carries no amplitude.
    """
    pre = Ket(np.array([1.0, 1.0, 1.0, 0.0], dtype=complex))
    post = Bra(np.array([1.0, 1.0, -1.0, 0.0], dtype=complex))
    tsv = TwoStateVector(pre, post)
    observables = {
        "P_A_up": _box_projector(4, 0),
        "P_A_down": _box_projector(4, 1),
        "P_B_up": _box_projector(4, 2),
    }

    def product_check():
        report = product_rule_report(tsv, observables["P_A_up"], observables["P_A_down"])
        ok = (
            report.product.certain
            and abs(report.product.value) <= 1e-9
            and report.all_certain
            and report.product_rule_holds is False
        )
        actual = (
            f"product value {_fmt(report.product.value)}, rule holds: {report.product_rule_holds}"
            if report.product.certain
            else "product uncertain"
        )
        return "product certainly 0, rule fails", actual, ok

    checks = (
        _certainty_check(
            tsv, observables["P_A_up"], 1.0, "searching box A with spin up always finds the particle"
        ),
        _certainty_check(
            tsv,
            observables["P_A_down"],
            1.0,
            "searching box A with spin down (instead) always finds the particle",
        ),
        Check(
            description="the product of the two box-A projections is certainly 0: the product rule fails",
            provenance="exact-property",
            run=product_check,
        ),
        _weak_value_check(
            tsv,
            observables["P_B_up"].op,
            -1.0 + 0.0j,
            "weak value of the box-B spin-up projection lies outside [0, 1]",
        ),
        _projector_sum_check(
            tsv,
            observables["P_B_up"],
            "weak values of a complete projector set sum to 1",
        ),
    )
    return Scenario(
        description="spin-1/2 particle in two boxes with contradictory certainties",
        dims=(4,),
        observables=observables,
        checks=checks,
        selection=tsv,
    )


def scenario_three_box() -> Scenario:
    """One particle, three boxes: certainly in A if searched, certainly in B if searched instead."""
    pre = Ket(np.array([1.0, 1.0, 1.0], dtype=complex))
    post = Bra(np.array([1.0, 1.0, -1.0], dtype=complex))
    tsv = TwoStateVector(pre, post)
    observables = {"P_A": _box_projector(3, 0), "P_B": _box_projector(3, 1), "P_C": _box_projector(3, 2)}
    checks = (
        _certainty_check(tsv, observables["P_A"], 1.0, "opening box A always finds the particle"),
        _certainty_check(
            tsv, observables["P_B"], 1.0, "opening box B (instead) always finds the particle"
        ),
        _weak_value_check(
            tsv,
            observables["P_C"].op,
            -1.0 + 0.0j,
            "weak value of the box-C projection is -1",
        ),
        _monte_carlo_check(
            tsv,
            observables["P_A"],
            "forward-only Monte Carlo reproduces the box-A conditional probabilities",
        ),
        _monte_carlo_check(
            tsv,
            observables["P_B"],
            "forward-only Monte Carlo reproduces the box-B conditional probabilities",
        ),
    )
    return Scenario(
        description="single particle certain to be found in either of two boxes",
        dims=(3,),
        observables=observables,
        checks=checks,
        selection=tsv,
    )


def scenario_spin_xz() -> Scenario:
    """Spin-1/2 selected along z then x: both components dispersion-free at once."""
    pre = Ket(np.array([1.0, 0.0], dtype=complex))  # up along z
    post = Bra(np.array([1.0, 1.0], dtype=complex))  # up along x
    tsv = TwoStateVector(pre, post)
    observables = {
        "sigma_z": spectral_decompose(Operator(SIGMA_Z)),
        "sigma_x": spectral_decompose(Operator(SIGMA_X)),
    }

    def uncertainty_principle_check():
        commutator = (
            observables["sigma_z"].op.matrix @ observables["sigma_x"].op.matrix
            - observables["sigma_x"].op.matrix @ observables["sigma_z"].op.matrix
        )
        z = element_of_reality(tsv, observables["sigma_z"])
        x = element_of_reality(tsv, observables["sigma_x"])
        noncommuting = np.max(np.abs(commutator)) > 1e-9
        ok = noncommuting and z.certain and x.certain
        return (
            "noncommuting pair, both certain",
            f"[sz,sx] != 0: {noncommuting}, sz certain: {z.certain}, sx certain: {x.certain}",
            ok,
        )

    checks = (
        _certainty_check(tsv, observables["sigma_z"], 1.0, "the z spin component is certainly +1"),
        _certainty_check(
            tsv, observables["sigma_x"], 1.0, "the x spin component (measured instead) is certainly +1"
        ),
        Check(
            description="two noncommuting observables are simultaneously dispersion-free",
            provenance="exact-property",
            run=uncertainty_principle_check,
        ),
    )
    return Scenario(
        description="z and x spin components simultaneously certain between selections",
        dims=(2,),
        observables=observables,
        checks=checks,
        selection=tsv,
    )


def _mean_king_candidate_basis():
    # Sign triples chosen pairwise differing in exactly two slots, which makes
    # the matrices I + s.sigma mutually Hilbert-Schmidt orthogonal.
    sign_triples = ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))
    states = []
    for sx, sy, sz in sign_triples:
        m = np.eye(2, dtype=complex) + sx * SIGMA_X + sy * SIGMA_Y + sz * SIGMA_Z
        joint = m.conj().T.reshape(-1)  # system index slow, ancilla fast
        states.append(joint / np.linalg.norm(joint))
    return sign_triples, states


def scenario_mean_king() -> Scenario:
    """A spin plus an unmeasured ancilla: x, y, and z all dispersion-free.

    The joint pre-selection is maximally entangled; the four post-selection
    outcomes form an orthonormal entangled basis built so that, for each
    outcome, the reduced generalized two-state vector gives every spin
    component a definite value. The claimed value table (outcome -> x, y, z
    values, the sign triples of the construction) is recorded in the
    scenario details; the checks measure the basis's Gram matrix, each basis
    state's concurrence and each outcome's values when run, and fail if any
    departs from the claim.
    """
    pre = Ket(np.array([1.0, 0.0, 0.0, 1.0], dtype=complex))
    sign_triples, post_states = _mean_king_candidate_basis()
    value_table = dict(enumerate(sign_triples))
    components = {
        "sigma_x": spectral_decompose(Operator(SIGMA_X)),
        "sigma_y": spectral_decompose(Operator(SIGMA_Y)),
        "sigma_z": spectral_decompose(Operator(SIGMA_Z)),
    }
    reduced = [gtsv_from_ancilla(pre, Bra(vec), 2, 2) for vec in post_states]

    def basis_check():
        gram = np.array([[np.vdot(a, b) for b in post_states] for a in post_states])
        dev = float(np.max(np.abs(gram - np.eye(4))))
        # a unit state with 2x2 coefficient matrix M has concurrence 2|det M|,
        # 0 for a product state (each royal state has 1/2)
        concurrence = min(2.0 * float(abs(np.linalg.det(vec.reshape(2, 2)))) for vec in post_states)
        entangled = concurrence > 1e-10
        actual = f"max Gram deviation {dev:.3g}"
        if not entangled:
            actual += f", min concurrence {concurrence:.3g}"
        return "orthonormal entangled basis", actual, dev <= 1e-10 and entangled

    def outcome_check(outcome):
        def run():
            reports = [element_of_reality(reduced[outcome], obs) for obs in components.values()]
            # None marks a component with no certain value
            values = tuple(int(round(r.value)) if r.certain else None for r in reports)
            low = min(r.probability for r in reports)
            return (
                f"values {value_table[outcome]}, each with probability 1",
                f"values {values}, min probability {low:.12g}",
                values == value_table[outcome],
            )

        return Check(
            description=f"royal outcome {outcome}: x, y and z spin components all dispersion-free",
            provenance="cross-check",
            run=run,
        )

    checks = (
        Check(
            description="the four royal post-selection states form an orthonormal basis",
            provenance="cross-check",
            run=basis_check,
        ),
        *[outcome_check(k) for k in range(4)],
    )
    return Scenario(
        description="all three spin components answerable for every royal outcome",
        dims=(2,),
        observables=components,
        checks=checks,
        selection=reduced[0],
        details={
            "value_table": value_table,
            "royal_basis": [vec.tolist() for vec in post_states],
        },
    )


def scenario_correlated_pair() -> Scenario:
    """Forward/backward particle pair whose spins agree in every direction."""
    kernel = TwoTimeKernel(np.eye(2, dtype=complex) / np.sqrt(2.0))
    directions = _random_directions(100, _DIRECTION_SEED)

    @cache
    def spins():
        # decomposed on first use; both checks then share them
        return tuple(spectral_decompose(spin_along(direction)) for direction in directions)

    def worst_deviation(k):
        # both legs measure the same spin: the diagonal pairs equal outcomes
        return max(abs(float(np.trace(two_time_distribution(k, obs, obs))) - 1.0) for obs in spins())

    def correlation_check():
        worst = worst_deviation(kernel)
        return "P(same) = 1 in all 100 directions", f"max deviation {worst:.3g}", worst <= 1e-12

    def negative_control_check():
        worst = worst_deviation(TwoTimeKernel(np.array([[1.0, 0.3], [0.1j, 0.7]], dtype=complex)))
        return "some direction violates P(same) = 1", f"max deviation {worst:.3g}", worst > 1e-6

    checks = (
        Check(
            description="both particles give the same spin result in any direction",
            provenance="exact-property",
            run=correlation_check,
        ),
        Check(
            description="a generic kernel (not proportional to the identity) breaks the correlation",
            provenance="cross-check",
            run=negative_control_check,
        ),
    )
    return Scenario(
        description="forward- and backward-evolving spins perfectly correlated in every direction",
        dims=(2,),
        observables={},
        checks=checks,
        selection=kernel,
    )


SCENARIOS = {
    "spin-box": scenario_spin_box,
    "three-box": scenario_three_box,
    "spin-xz": scenario_spin_xz,
    "mean-king": scenario_mean_king,
    "correlated-pair": scenario_correlated_pair,
}


def get_scenario(name: str) -> Scenario:
    try:
        factory = SCENARIOS[name]
    except KeyError:
        raise KeyError(f"unknown scenario {name!r}; known: {', '.join(sorted(SCENARIOS))}")
    return factory()
