"""Property test: every public library call at the float64 edge returns finite results or raises what its docstring names.

Hypothesis draws, at d <= 6, a selection (a pair, or one or two weighted
terms), two observables, a two-time kernel, a Hamiltonian schedule and a
joint system+ancilla pair. Each real and imaginary part is near +-2**1023,
subnormal, at a mixed scale 2**k (k from -1074 to 1023) or ordinary. Inputs
that a constructor rejects with a tsvlab error or a ``ValueError`` are
skipped. Every call on the accepted inputs must return only finite numbers,
or raise an exception that its docstring names.
"""

import builtins
import cmath
import dataclasses
import math
import re
import sys

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tsvlab
from tsvlab import (
    Bra,
    GeneralizedTwoStateVector,
    HamiltonianSchedule,
    Ket,
    Operator,
    PointerConfig,
    TsvLabError,
    TwoStateVector,
    TwoTimeKernel,
    abl_probabilities,
    at_time,
    gtsv_from_ancilla,
    monte_carlo,
    product_rule_report,
    two_time_distribution,
    weak_measure_pointer,
    weak_value,
)
from tsvlab.measure import MAX_MC_SAMPLES

#: raises a call's docstring does not name, each the documented error of a call it makes; see CHANGES.md
UNDOCUMENTED = {
    # evolve_forward/evolve_backward: a segment's spectrum (as Operator's docstring says) or its phase overflows
    "at_time": {"RangeError"},
    # element_of_reality of A, B and AB: abl_probabilities' null ensemble, and AB's overflowing spectrum
    "product_rule_report": {"NullEnsembleError", "RangeError"},
    # the post-selection annihilates the pointer wavefunction, as abl_probabilities' null ensemble
    "weak_measure_pointer": {"NullEnsembleError"},
}

#: how an array's parts are drawn: each part of an "any" array picks one of the other four, or 0
SCALES = ("ordinary", "edge", "subnormal", "mixed", "any")


def parts(rng, scale: str, size: int) -> np.ndarray:
    if scale == "ordinary":
        return rng.uniform(-2.0, 2.0, size)
    if scale == "edge":  # magnitudes in [2**1023, the float64 maximum]
        return np.ldexp(rng.uniform(0.5, 1.0, size), 1024) * rng.choice((-1.0, 1.0), size)
    if scale == "subnormal":
        return rng.uniform(-(2.0**-1022), 2.0**-1022, size)
    if scale == "mixed":  # 2**k for k from -1074 to 1023
        return np.ldexp(rng.uniform(-1.0, 1.0, size), rng.integers(-1074, 1025, size))
    pick = rng.integers(5, size=size)
    return np.choose(pick, [parts(rng, s, size) for s in SCALES[:4]] + [np.zeros(size)])


@st.composite
def complex_arrays(draw, shape):
    """An array of the given shape at one of the ``SCALES``, its parts from a drawn seed."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    return parts(rng, draw(st.sampled_from(SCALES)), 2 * math.prod(shape)).view(complex).reshape(shape)


@st.composite
def hermitians(draw, d):
    m = draw(complex_arrays((d, d)))
    return m / 2.0 + m.conj().T / 2.0  # halved first, so the sum cannot overflow


@st.composite
def cases(draw):
    d = draw(st.integers(1, 6))
    n_terms = draw(st.integers(1, 2))
    weights = draw(complex_arrays((n_terms,)))
    return {
        "pair": n_terms == 1 and draw(st.booleans()),
        "terms": [(complex(alpha), draw(complex_arrays((d,))), draw(complex_arrays((d,)))) for alpha in weights],
        "a": draw(hermitians(d)),
        "b": draw(hermitians(d)),
        "kernel": draw(complex_arrays((d, d))),
        "segments": [(draw(st.one_of(st.floats(0.0, 2.0), st.floats(0.0, sys.float_info.max))), draw(hermitians(d)))
                     for _ in range(draw(st.integers(1, 2)))],
        "t": draw(st.floats(-0.25, 1.25)),  # a fraction of the total duration
        "joint": (draw(complex_arrays((d,))), draw(complex_arrays((d,))), draw(st.sampled_from([1, 2, 3]))),
        "samples": draw(st.sampled_from([1, 1000, MAX_MC_SAMPLES])),
        "seed": draw(st.integers(0, 2**32)),
        "g": draw(st.sampled_from([1e-3, 3.0])),
        "sigma": draw(st.sampled_from([1.0, 1e-200, 1e200])),
    }


# the weak value 1.5e308 + 1.5e308i has finite parts and an overflowing modulus
HUGE_MODULUS = {
    "pair": True,
    "terms": [(1.0, np.array([1.0, 1.0], dtype=complex), np.array([1.0, 0.0], dtype=complex))],
    "a": np.array([[0.0, 1.5e308 - 1.5e308j], [1.5e308 + 1.5e308j, 0.0]]),
    "b": np.eye(2, dtype=complex),
    "kernel": np.eye(2, dtype=complex),
    "segments": [(1.0, np.eye(2, dtype=complex))],
    "t": 0.5,
    "joint": (np.array([1.0, 0.0], dtype=complex), np.array([1.0, 1.0], dtype=complex), 2),
    "samples": 1000,
    "seed": 1,
    "g": 1e-3,
    "sigma": 1.0,
}


def named(fn) -> tuple:
    """The exception classes whose names ``fn``'s docstring gives."""
    names = set(re.findall(r"\b[A-Z]\w*Error\b", fn.__doc__))
    return tuple(getattr(tsvlab, name, None) or getattr(builtins, name) for name in sorted(names))


def numbers(value):
    """Every float and complex inside a result: dataclass fields, sequences and arrays, recursively."""
    if dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from numbers(getattr(value, f.name))
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from numbers(item)
    elif isinstance(value, np.ndarray):
        yield from value.reshape(-1).tolist()
    elif isinstance(value, (float, complex)):
        yield value


def built(make):
    """``make()``, or None when a constructor rejects its input with a tsvlab error or a ``ValueError``."""
    try:
        return make()
    except (TsvLabError, ValueError):
        return None


def check(fn, *args) -> None:
    try:
        result = fn(*args)
    except Exception as exc:
        allowed = named(fn) + tuple(getattr(tsvlab, name) for name in UNDOCUMENTED.get(fn.__name__, ()))
        assert isinstance(exc, allowed), f"{fn.__name__} raised {type(exc).__name__}: {exc}"
        return
    bad = [x for x in numbers(result) if not cmath.isfinite(x)]
    assert not bad, f"{fn.__name__} returned {bad}"


def decomposed(matrix) -> Operator:
    obs = Operator(matrix)
    obs.eigenvalues  # an overflowing spectrum is the constructor's RangeError, not the call's
    return obs


@settings(derandomize=True, max_examples=500, deadline=None)
@given(case=cases())
@example(case=HUGE_MODULUS)
def test_library_calls_at_the_float64_edge(case):
    if case["pair"]:
        (_, post, pre), = case["terms"]
        selection = built(lambda: TwoStateVector(Ket(pre), Bra(post)))
    else:
        selection = built(lambda: GeneralizedTwoStateVector(
            tuple((alpha, Bra(post), Ket(pre)) for alpha, post, pre in case["terms"])))
    op = built(lambda: Operator(case["a"]))
    obs_a, obs_b = built(lambda: decomposed(case["a"])), built(lambda: decomposed(case["b"]))
    kernel = built(lambda: TwoTimeKernel(case["kernel"]))
    schedule = built(lambda: HamiltonianSchedule(tuple((t, Operator(h)) for t, h in case["segments"])))
    jpre, jpost, ancilla = case["joint"]
    d = len(jpre)
    joint = built(lambda: (Ket(jpre), Bra(jpost)))

    if joint is not None and d % ancilla == 0:
        check(gtsv_from_ancilla, *joint, d // ancilla, ancilla)
    if None not in (kernel, obs_a, obs_b):
        check(two_time_distribution, kernel, obs_a, obs_b)
    if selection is None:
        return
    if op is not None:
        check(weak_value, selection, op)
    if schedule is not None:
        check(at_time, selection, schedule, case["t"] * schedule.total_duration)
    if obs_a is None:
        return
    check(abl_probabilities, selection, obs_a)
    check(monte_carlo, selection, obs_a, case["samples"], case["seed"])
    if obs_b is not None:
        check(product_rule_report, selection, obs_a, obs_b)
    radius = obs_a.max_abs_eigenvalue
    cfg = built(lambda: PointerConfig(case["g"] * case["sigma"] / radius if radius else case["g"],
                                      case["sigma"], radius))
    if cfg is not None:
        check(weak_measure_pointer, selection, obs_a, cfg)


def test_undocumented_raises_are_still_undocumented():
    # once a docstring names the exception, its entry in UNDOCUMENTED goes
    for name, exceptions in UNDOCUMENTED.items():
        fn = getattr(tsvlab, name)
        assert not {exc.__name__ for exc in named(fn)} & exceptions, name
