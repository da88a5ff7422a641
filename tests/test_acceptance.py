"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time

import numpy as np

from helpers import (
    dichotomic_case_with_certain_outcome,
    pair_states,
    random_bra,
    random_ket,
    random_observable,
    random_tsv,
    strong_weak_bridges,
)
from tsvlab import (
    Bra,
    GeneralizedTwoStateVector,
    Ket,
    Operator,
    PointerConfig,
    TwoStateVector,
    TwoTimeKernel,
    abl_probabilities,
    abl_probabilities_generalized,
    element_of_reality,
    exact_conditional_oracle,
    get_scenario,
    gtsv_from_ancilla,
    monte_carlo,
    pointer_bump_masses,
    product_rule_report,
    spectral_decompose,
    two_time_joint,
    weak_measure_pointer,
    weak_value,
)
from tsvlab.measure import measure
from tsvlab.scenarios import SCENARIOS, spin_along


def _report(num, description, passed):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {num:02d}: {description}")
    assert passed, f"criterion {num} failed: {description}"


def test_criterion_01_abl_matches_conditional_oracle():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        dim = int(rng.integers(2, 7))
        tsv = random_tsv(rng, dim)
        obs = random_observable(rng, dim)
        a = abl_probabilities(tsv, obs)
        b = exact_conditional_oracle(*pair_states(tsv), obs)
        worst = max(worst, np.abs(np.array(a.entries)[:, 1] - np.array(b.entries)[:, 1]).max())
    elapsed = time.perf_counter() - start
    _report(
        1,
        f"conditional rule == two-step oracle on 500 instances (max dev {worst:.2e}, {elapsed:.2f}s)",
        worst <= 1e-12 and elapsed < 5.0,
    )


def test_criterion_02_boxed_spin_certainties():
    scenario = get_scenario("spin-box")
    tsv = scenario.selection
    a = element_of_reality(tsv, scenario.observables["P_A_up"])
    b = element_of_reality(tsv, scenario.observables["P_A_down"])
    product = product_rule_report(
        tsv, scenario.observables["P_A_up"], scenario.observables["P_A_down"]
    )
    ok = (
        a.certain and a.probability >= 1 - 1e-10 and abs(a.value - 1) <= 1e-9
        and b.certain and b.probability >= 1 - 1e-10 and abs(b.value - 1) <= 1e-9
        and product.product.certain and abs(product.product.value) <= 1e-9
        and product.product_rule_holds is False
    )
    _report(2, "both box-A projections certain, product certainly 0, product rule fails", ok)


def test_criterion_03_weak_values():
    scenario = get_scenario("spin-box")
    wv = weak_value(scenario.selection, scenario.observables["P_B_up"].op)
    ok = abs(wv - (-1.0)) <= 1e-12

    worst = 0.0
    for name in SCENARIOS:
        s = get_scenario(name)
        for obs in s.observables.values():
            if isinstance(s.selection, TwoStateVector):
                total = sum(weak_value(s.selection, proj) for proj in obs.projectors)
            elif isinstance(s.selection, GeneralizedTwoStateVector):
                total = sum(weak_value(s.selection, proj) for proj in obs.projectors)
            else:
                continue
            worst = max(worst, abs(total - 1.0))
    rng = np.random.default_rng(103)
    for _ in range(200):
        dim = int(rng.integers(2, 7))
        tsv = random_tsv(rng, dim, min_overlap=0.05)
        obs = random_observable(rng, dim)
        total = sum(weak_value(tsv, proj) for proj in obs.projectors)
        worst = max(worst, abs(total - 1.0))
    _report(
        3,
        f"boxed-spin weak value -1 and projector weak values sum to 1 (max dev {worst:.2e})",
        ok and worst <= 1e-12,
    )


def test_criterion_04_strong_weak_sweep():
    rng = np.random.default_rng(104)
    violations = 0
    for _ in range(1000):
        tsv, obs, _ = dichotomic_case_with_certain_outcome(rng, int(rng.integers(2, 6)))
        if strong_weak_bridges(tsv, obs) != (True, True):
            violations += 1
    _report(4, f"1000 dichotomic cases, {violations} violations of either implication", violations == 0)


def _mc_within_bands(selection, obs, seed):
    dist = abl_probabilities(selection, obs)
    report = monte_carlo(selection, obs, 100_000, seed=seed)
    if report.samples_postselected == 0:
        return False
    return all(abs(freq - p) <= 5 * se for _, p, freq, se, _ in measure(report, dist))


def test_criterion_05_monte_carlo():
    start = time.perf_counter()
    ok = True
    seed = 500
    for name in ("spin-box", "three-box", "spin-xz"):
        s = get_scenario(name)
        for obs in s.observables.values():
            seed += 1
            ok = ok and _mc_within_bands(s.selection, obs, seed)
    # the entangled-ancilla scenario runs on its generalized selection and on the joint system
    king = get_scenario("mean-king")
    for obs in king.observables.values():
        seed += 1
        ok = ok and _mc_within_bands(king.selection, obs, seed)
    joint_pre = Ket(np.array([1, 0, 0, 1], dtype=complex))
    for royal_state in king.details["royal_basis"]:
        joint_post = Bra(np.asarray(royal_state, dtype=complex))
        for obs in king.observables.values():
            joint_obs = spectral_decompose(Operator(np.kron(obs.op.matrix, np.eye(2))))
            seed += 1
            ok = ok and _mc_within_bands(TwoStateVector(joint_pre, joint_post), joint_obs, seed)
    rng = np.random.default_rng(105)
    for _ in range(20):
        dim = int(rng.integers(2, 5))
        tsv = random_tsv(rng, dim, min_overlap=0.05)
        obs = random_observable(rng, dim)
        seed += 1
        ok = ok and _mc_within_bands(tsv, obs, seed)

    s = get_scenario("three-box")
    obs = s.observables["P_C"]
    first = monte_carlo(s.selection, obs, 50_000, seed=9)
    second = monte_carlo(s.selection, obs, 50_000, seed=9)
    deterministic = first == second
    elapsed = time.perf_counter() - start
    _report(
        5,
        f"Monte Carlo within 5 standard errors on scenarios + 20 fixtures, bit-identical reruns ({elapsed:.1f}s)",
        ok and deterministic and elapsed < 60.0,
    )


def test_criterion_06_pointer_laws():
    scenario = get_scenario("spin-box")
    tsv = scenario.selection
    obs = scenario.observables["P_B_up"]
    errors = {}
    for g in (2e-3, 1e-3):
        cfg = PointerConfig(g, 1.0, obs.max_abs_eigenvalue)
        result = weak_measure_pointer(tsv, obs, cfg)
        errors[g] = abs(result.mean_shift / g - (-1.0))
    first_order = errors[1e-3] <= 0.5 * errors[2e-3]

    g = 1000.0
    cfg = PointerConfig(g, 1.0, obs.max_abs_eigenvalue)
    result = weak_measure_pointer(tsv, obs, cfg)
    masses = pointer_bump_masses(result, obs, g)
    dist = abl_probabilities(tsv, obs)
    mass_dev = max(abs(mass - p) for mass, (_, p) in zip(masses, dist.entries))
    _report(
        6,
        f"pointer: error halves with g ({errors[2e-3]:.2e} -> {errors[1e-3]:.2e}), "
        f"strong-regime masses within {mass_dev:.2e}",
        first_order and mass_dev <= 1e-6,
    )


def test_criterion_07_ancilla_consistency():
    rng = np.random.default_rng(107)
    worst_abl = 0.0
    worst_weak = 0.0
    for system_dim, ancilla_dim in ((2, 2), (3, 2)):
        done = 0
        while done < 100:
            joint = system_dim * ancilla_dim
            pre, post = random_ket(rng, joint), random_bra(rng, joint)
            if abs(np.vdot(post.amplitudes, pre.amplitudes)) < 0.05:
                continue
            obs = random_observable(rng, system_dim)
            joint_obs = spectral_decompose(Operator(np.kron(obs.op.matrix, np.eye(ancilla_dim))))
            g = gtsv_from_ancilla(pre, post, system_dim, ancilla_dim)
            reduced = abl_probabilities_generalized(g, obs)
            full = abl_probabilities(TwoStateVector(pre, post), joint_obs)
            worst_abl = max(
                worst_abl, np.abs(np.array(reduced.entries)[:, 1] - np.array(full.entries)[:, 1]).max()
            )
            wv_reduced = weak_value(g, obs.op)
            wv_full = weak_value(
                TwoStateVector(pre, post), Operator(np.kron(obs.op.matrix, np.eye(ancilla_dim)))
            )
            worst_weak = max(worst_weak, abs(wv_reduced - wv_full))
            done += 1
    _report(
        7,
        f"generalized == joint on 200 random pairs (abl dev {worst_abl:.2e}, weak dev {worst_weak:.2e})",
        worst_abl <= 1e-12 and worst_weak <= 1e-12,
    )


def test_criterion_08_mean_king():
    scenario = get_scenario("mean-king")
    joint_pre = Ket(np.array([1, 0, 0, 1], dtype=complex))
    table = {}
    ok = True
    for outcome, royal_state in enumerate(scenario.details["royal_basis"]):
        joint_post = Bra(np.asarray(royal_state, dtype=complex))
        g = gtsv_from_ancilla(joint_pre, joint_post, 2, 2)
        row = []
        for name in ("sigma_x", "sigma_y", "sigma_z"):
            dist = abl_probabilities_generalized(g, scenario.observables[name])
            value, prob = max(dist.entries, key=lambda e: e[1])
            ok = ok and prob >= 1 - 1e-10
            row.append(int(round(value)))
        table[outcome] = tuple(row)
    print("        royal value table (outcome -> x, y, z):")
    for outcome, values in table.items():
        print(f"          {outcome}: {values}")
    ok = ok and table == scenario.details["value_table"]
    _report(8, "all four royal outcomes give dispersion-free x, y, z values", ok)


def test_criterion_09_two_time_correlation():
    kernel = TwoTimeKernel(np.eye(2, dtype=complex) / np.sqrt(2.0))
    control = TwoTimeKernel(np.array([[1.0, 0.3], [0.1j, 0.7]], dtype=complex))
    rng = np.random.default_rng(109)

    def same_outcome(k, direction):
        obs = spectral_decompose(spin_along(direction))
        return sum(
            two_time_joint(k, pa, pb)
            for va, pa in zip(obs.eigenvalues, obs.projectors)
            for vb, pb in zip(obs.eigenvalues, obs.projectors)
            if abs(va - vb) <= 1e-9
        )

    worst = 0.0
    control_worst = 0.0
    for _ in range(100):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        worst = max(worst, abs(same_outcome(kernel, direction) - 1.0))
        control_worst = max(control_worst, abs(same_outcome(control, direction) - 1.0))
    _report(
        9,
        f"perfect correlation in 100 directions (dev {worst:.2e}); control kernel deviates by {control_worst:.2g}",
        worst <= 1e-12 and control_worst > 1e-6,
    )


def test_criterion_10_invariance_suite():
    rng = np.random.default_rng(110)
    worst = 0.0
    for _ in range(100):  # pre/post exchange
        dim = int(rng.integers(2, 6))
        tsv = random_tsv(rng, dim)
        obs = random_observable(rng, dim)
        base = np.array(abl_probabilities(tsv, obs).entries)[:, 1]
        ket, bra = pair_states(tsv)
        swapped = TwoStateVector(Ket(bra.amplitudes), Bra(ket.amplitudes))
        other = np.array(abl_probabilities(swapped, obs).entries)[:, 1]
        worst = max(worst, max(abs(x - y) for x, y in zip(base, other)))
    for _ in range(100):  # global phases
        dim = int(rng.integers(2, 6))
        tsv = random_tsv(rng, dim)
        obs = random_observable(rng, dim)
        base = np.array(abl_probabilities(tsv, obs).entries)[:, 1]
        ket, bra = pair_states(tsv)
        phased = TwoStateVector(
            Ket(np.exp(1j * rng.uniform(0, 2 * np.pi)) * ket.amplitudes),
            Bra(np.exp(1j * rng.uniform(0, 2 * np.pi)) * bra.amplitudes),
        )
        other = np.array(abl_probabilities(phased, obs).entries)[:, 1]
        worst = max(worst, max(abs(x - y) for x, y in zip(base, other)))
    for _ in range(100):  # rescaling
        dim = int(rng.integers(2, 6))
        tsv = random_tsv(rng, dim)
        obs = random_observable(rng, dim)
        base = np.array(abl_probabilities(tsv, obs).entries)[:, 1]
        c1 = complex(rng.uniform(0.1, 10) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
        c2 = complex(rng.uniform(0.1, 10) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
        ket, bra = pair_states(tsv)
        scaled = TwoStateVector(Ket(c1 * ket.amplitudes), Bra(c2 * bra.amplitudes))
        other = np.array(abl_probabilities(scaled, obs).entries)[:, 1]
        worst = max(worst, max(abs(x - y) for x, y in zip(base, other)))
    _report(
        10,
        f"exchange, phase, and rescaling invariance over 300 checks (max dev {worst:.2e})",
        worst <= 1e-12,
    )
