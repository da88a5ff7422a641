"""Symmetries of the two-state-vector calculus, checked on generated inputs.

Each identity compares an evaluator with itself on transformed inputs, or
with a construction that shares none of its code (a matrix exponential
from scipy, the joint system with ``O (x) I``), so a fault in one code
path cannot cancel against itself.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm  # independent evolution oracle

from tsvlab import (
    Bra,
    GeneralizedTwoStateVector,
    HamiltonianSchedule,
    Ket,
    NotHermitianError,
    Operator,
    TwoStateVector,
    abl_at_time,
    abl_probabilities,
    exact_conditional_oracle,
    gtsv_from_ancilla,
    monte_carlo_abl,
    spectral_decompose,
    weak_value,
)

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)
#: absolute tolerance on probabilities and (relative to max(1, |w|)) on weak values
TOL = 1e-9
#: selections with |effective overlap| below this are skipped as ill-conditioned
MIN_OVERLAP = 0.05

dims = st.integers(2, 6)
parts = st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False)
angles = st.floats(0.0, 2.0 * math.pi)


@st.composite
def complex_arrays(draw, shape):
    values = draw(st.lists(parts, min_size=2 * math.prod(shape), max_size=2 * math.prod(shape)))
    return np.array(values).view(complex).reshape(shape)


@st.composite
def vectors(draw, dim):
    vec = draw(complex_arrays((dim,)))
    assume(np.linalg.norm(vec) > 0.1)
    return vec


@st.composite
def hermitians(draw, dim):
    a = draw(complex_arrays((dim, dim)))
    return (a + a.conj().T) / 2.0


@st.composite
def generalized_terms(draw, dim):
    """1-4 terms (alpha, phi, psi); each weight part is 0 or at least 1e-3 in size."""
    weight_parts = st.one_of(st.just(0.0), st.floats(1e-3, 4.0).flatmap(lambda x: st.sampled_from((x, -x))))
    n = draw(st.integers(1, 4))
    terms = []
    for _ in range(n):
        alpha = complex(draw(weight_parts), draw(weight_parts))
        terms.append((alpha, draw(vectors(dim)), draw(vectors(dim))))
    assume(any(alpha != 0 for alpha, _, _ in terms))
    return terms


def unit(vec):
    return vec / np.linalg.norm(vec)


def effective_overlap(terms) -> complex:
    """sum_i alpha_i <phi_i|psi_i> with unit states, straight from numpy."""
    return sum(alpha * np.vdot(unit(phi), unit(psi)) for alpha, phi, psi in terms)


def well_conditioned(terms) -> bool:
    # Cauchy-Schwarz: the ABL normalization is at least |effective overlap|^2 / d
    top = max(max(abs(a.real), abs(a.imag)) for a, _, _ in terms)
    return abs(effective_overlap(terms)) >= MIN_OVERLAP * top


def gtsv(terms, scale=lambda alpha: alpha):
    return GeneralizedTwoStateVector(tuple((scale(a), Bra(phi), Ket(psi)) for a, phi, psi in terms))


def assert_same_distribution(dist, other):
    assert len(dist.entries) == len(other.entries)
    for (o, p), (q, r) in zip(dist.entries, other.entries):
        assert abs(o - q) <= TOL * max(1.0, abs(o))
        assert abs(p - r) <= TOL


def assert_same_value(w, v):
    assert abs(w - v) <= TOL * max(1.0, abs(w))


@SETTINGS
@given(st.data())
def test_weight_scaling(data):
    dim = data.draw(dims)
    terms = data.draw(generalized_terms(dim))
    assume(well_conditioned(terms))
    obs = spectral_decompose(Operator(data.draw(hermitians(dim))))
    base = gtsv(terms)
    dist, wv = abl_probabilities(base, obs), weak_value(base, obs.op)

    k = data.draw(st.integers(-1000, 1000))
    exact = gtsv(terms, lambda a: complex(math.ldexp(a.real, k), math.ldexp(a.imag, k)))
    assert abl_probabilities(exact, obs) == dist
    assert weak_value(exact, obs.op) == wv

    c = 10.0 ** data.draw(st.floats(-300.0, 300.0))
    scaled = gtsv(terms, lambda a: complex(c * a.real, c * a.imag))
    assert_same_distribution(abl_probabilities(scaled, obs), dist)
    assert abs(weak_value(scaled, obs.op) - wv) <= 1e-12 * max(1.0, abs(wv))


@SETTINGS
@given(st.data())
def test_global_phases(data):
    dim = data.draw(dims)
    psi, phi = data.draw(vectors(dim)), data.draw(vectors(dim))
    assume(well_conditioned([(1.0, phi, psi)]))
    obs = spectral_decompose(Operator(data.draw(hermitians(dim))))
    a, b = data.draw(angles), data.draw(angles)
    pair = TwoStateVector(Ket(psi), Bra(phi))
    turned = TwoStateVector(Ket(np.exp(1j * a) * psi), Bra(np.exp(1j * b) * phi))
    assert_same_distribution(abl_probabilities(turned, obs), abl_probabilities(pair, obs))
    assert_same_value(weak_value(turned, obs.op), weak_value(pair, obs.op))


@SETTINGS
@given(st.data())
def test_joint_unitary_covariance(data):
    dim = data.draw(dims)
    psi, phi = data.draw(vectors(dim)), data.draw(vectors(dim))
    assume(well_conditioned([(1.0, phi, psi)]))
    o = data.draw(hermitians(dim))
    u = expm(1j * data.draw(hermitians(dim)) * 4.0)
    rotated_o = u @ o @ u.conj().T
    pair = TwoStateVector(Ket(psi), Bra(phi))
    rotated = TwoStateVector(Ket(u @ psi), Bra(u @ phi))
    obs, rotated_obs = spectral_decompose(Operator(o)), spectral_decompose(Operator((rotated_o + rotated_o.conj().T) / 2.0))
    assert_same_distribution(abl_probabilities(rotated, rotated_obs), abl_probabilities(pair, obs))
    assert_same_value(weak_value(rotated, rotated_obs.op), weak_value(pair, obs.op))


@SETTINGS
@given(st.data())
def test_time_symmetry(data):
    dim = data.draw(dims)
    psi, phi = data.draw(vectors(dim)), data.draw(vectors(dim))
    assume(well_conditioned([(1.0, phi, psi)]))
    obs = spectral_decompose(Operator(data.draw(hermitians(dim))))
    pair = TwoStateVector(Ket(psi), Bra(phi))
    swapped = TwoStateVector(Ket(phi), Bra(psi))
    assert_same_distribution(abl_probabilities(swapped, obs), abl_probabilities(pair, obs))
    assert_same_value(weak_value(swapped, obs.op), weak_value(pair, obs.op).conjugate())


def propagator(segments, start, end):
    """Time-ordered product of expm(-i H dt) over the parts of the segments inside [start, end]."""
    u = np.eye(segments[0][1].shape[0], dtype=complex)
    elapsed = 0.0
    for duration, h in segments:
        dt = min(end, elapsed + duration) - max(start, elapsed)
        if dt > 0.0:
            u = expm(-1j * h * dt) @ u
        elapsed += duration
    return u


@SETTINGS
@given(st.data())
def test_abl_at_time_matches_expm(data):
    dim = data.draw(dims)
    psi, phi = data.draw(vectors(dim)), data.draw(vectors(dim))
    n = data.draw(st.integers(1, 3))
    segments = [(data.draw(st.floats(0.0, 2.0)), data.draw(hermitians(dim))) for _ in range(n)]
    total = sum(duration for duration, _ in segments)
    t = data.draw(st.floats(0.0, 1.0)) * total
    forward = propagator(segments, 0.0, t) @ psi
    backward = propagator(segments, t, total).conj().T @ phi
    assume(well_conditioned([(1.0, backward, forward)]))
    obs = spectral_decompose(Operator(data.draw(hermitians(dim))))
    schedule = HamiltonianSchedule(tuple((duration, Operator(h)) for duration, h in segments))
    expected = abl_probabilities(TwoStateVector(Ket(forward), Bra(backward)), obs)
    assert_same_distribution(abl_at_time(Ket(psi), Bra(phi), schedule, t, obs), expected)


@SETTINGS
@given(st.data())
def test_time_rescaling(data):
    # exp(-i H dt) depends on H dt alone: durations and the time times c, with
    # every H over c, give the same ABL distribution at any c
    dim = data.draw(dims)
    psi, phi = data.draw(vectors(dim)), data.draw(vectors(dim))
    n = data.draw(st.integers(1, 3))
    segments = [(data.draw(st.floats(0.0, 2.0)), data.draw(hermitians(dim))) for _ in range(n)]
    # a time on a segment boundary (rounded the same way the schedule sums it) or inside one
    boundaries = np.cumsum([0.0] + [duration for duration, _ in segments]).tolist()
    t = data.draw(st.sampled_from(boundaries) | st.floats(0.0, 1.0).map(lambda x: x * boundaries[-1]))
    total = boundaries[-1]
    assume(well_conditioned([(1.0, propagator(segments, t, total).conj().T @ phi, propagator(segments, 0.0, t) @ psi)]))
    obs = spectral_decompose(Operator(data.draw(hermitians(dim))))
    c = data.draw(st.integers(-60, 60).map(lambda k: 2.0**k) | st.floats(-15.0, 15.0).map(lambda x: 10.0**x))

    def distribution(scale):
        schedule = HamiltonianSchedule(tuple((scale * duration, Operator(h / scale)) for duration, h in segments))
        return abl_at_time(Ket(psi), Bra(phi), schedule, scale * t, obs)

    assert_same_distribution(distribution(c), distribution(1.0))


@SETTINGS
@given(st.data())
def test_ancilla_reduction_matches_joint_system(data):
    system_dim = data.draw(st.integers(2, 6))
    ancilla_dim = data.draw(st.integers(1, 4))
    joint_dim = system_dim * ancilla_dim
    pre, post = data.draw(vectors(joint_dim)), data.draw(vectors(joint_dim))
    assume(abs(np.vdot(unit(post), unit(pre))) >= MIN_OVERLAP)
    o = data.draw(hermitians(system_dim))
    reduced = gtsv_from_ancilla(Ket(pre), Bra(post), system_dim, ancilla_dim)
    joint = TwoStateVector(Ket(pre), Bra(post))
    joint_obs = spectral_decompose(Operator(np.kron(o, np.eye(ancilla_dim))))
    obs = spectral_decompose(Operator(o))
    assert_same_distribution(abl_probabilities(reduced, obs), abl_probabilities(joint, joint_obs))
    assert_same_value(weak_value(reduced, obs.op), weak_value(joint, joint_obs.op))



#: parts that keep every product and sum below a normal float at any scale 2**k, |k| <= 60
scalable_parts = st.one_of(st.just(0.0), st.floats(1e-3, 1.0).flatmap(lambda x: st.sampled_from((x, -x))))


def scalable_arrays(data, shape):
    values = data.draw(st.lists(scalable_parts, min_size=2 * math.prod(shape), max_size=2 * math.prod(shape)))
    return np.array(values).view(complex).reshape(shape)


@SETTINGS
@given(st.data())
def test_observable_rescaling(data):
    # an observable has no unit: O and 2**k O give the same probabilities and Monte
    # Carlo counts bit for bit, outcomes and weak value times exactly 2**k, and both
    # construct or both fail the Hermitian check, since np.linalg.eigh is bit-equivariant under 2**k
    dim = data.draw(dims)
    psi, phi = scalable_arrays(data, (dim,)), scalable_arrays(data, (dim,))
    assume(min(np.linalg.norm(psi), np.linalg.norm(phi)) > 0.1 and well_conditioned([(1.0, phi, psi)]))
    a = scalable_arrays(data, (dim, dim))
    # an exactly Hermitian matrix, or one off by a skew part near the Hermitian threshold
    skew = data.draw(st.sampled_from((0.0, 2.0**-40, 2.0**-33, 2.0**-20)))
    m = (a + a.conj().T) / 2.0 + skew * (a - a.conj().T).real
    k = data.draw(st.integers(-60, 60))
    ops = []
    for matrix in (m, math.ldexp(1.0, k) * m):
        try:
            ops.append(Operator(matrix))
        except NotHermitianError:
            pass
    assert len(ops) in (0, 2)
    assume(ops)
    op, scaled_op = ops
    obs, scaled = spectral_decompose(op), spectral_decompose(scaled_op)
    pair = TwoStateVector(Ket(psi), Bra(phi))
    assert scaled.eigenvalues == tuple(math.ldexp(o, k) for o in obs.eigenvalues)
    dist, scaled_dist = abl_probabilities(pair, obs), abl_probabilities(pair, scaled)
    assert [p for _, p in scaled_dist.entries] == [p for _, p in dist.entries]
    oracle = exact_conditional_oracle(pair.forward, pair.backward, obs)
    scaled_oracle = exact_conditional_oracle(pair.forward, pair.backward, scaled)
    assert [p for _, p in scaled_oracle.entries] == [p for _, p in oracle.entries]
    counts = monte_carlo_abl(pair.forward, pair.backward, obs, 2000, seed=k + 60).counts
    assert monte_carlo_abl(pair.forward, pair.backward, scaled, 2000, seed=k + 60).counts == counts
    wv = weak_value(pair, obs.op)
    assert weak_value(pair, scaled.op) == complex(math.ldexp(wv.real, k), math.ldexp(wv.imag, k))
