"""Property test: every verb on any small problem document ends in an exit code.

Hypothesis builds pair, generalized and kernel documents of dimension 1-3,
with or without a Hamiltonian, and runs them through ``abl``, ``abl --time``
(spelled ``--time=T`` and ``--time T``), ``weak``, ``verify`` and ``pointer``. ``main`` must return one of the
documented exit codes 0-4, never raise, and never print ``nan``.
"""

import json

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tsvlab.cli import main

# ordinary magnitudes, plus extremes that overflow a squared amplitude or a
# weak value, and the smallest subnormal
NUMBERS = st.one_of(
    st.floats(-2.0, 2.0),
    st.sampled_from([0.0, 1.0, -1.0, 5e-324, 1e-200, 1e150, 1e300, -1e300, 1.7e308]),
)

DURATIONS = st.one_of(st.floats(0.0, 2.0), st.sampled_from([1e6, 1e300]))


def pairs(count):
    return st.lists(st.lists(NUMBERS, min_size=2, max_size=2), min_size=count, max_size=count)


def matrices(dim):
    return st.lists(pairs(dim), min_size=dim, max_size=dim)


def hermitian(matrix):
    """The Hermitian part of a nested [re, im] matrix, still as nested pairs."""
    dim = len(matrix)
    return [
        [
            [(matrix[i][j][0] + matrix[j][i][0]) / 2.0, (matrix[i][j][1] - matrix[j][i][1]) / 2.0]
            for j in range(dim)
        ]
        for i in range(dim)
    ]


@st.composite
def documents(draw):
    dim = draw(st.integers(1, 3))
    doc = {"dims": [dim]}
    kind = draw(st.sampled_from(["pair", "generalized", "kernel"]))
    if kind == "pair":
        doc["pre"], doc["post"] = draw(pairs(dim)), draw(pairs(dim))
    elif kind == "generalized":
        doc["generalized"] = [
            {"alpha": draw(pairs(1))[0], "pre": draw(pairs(dim)), "post": draw(pairs(dim))}
            for _ in range(draw(st.integers(1, 2)))
        ]
    else:
        doc["kernel"] = draw(matrices(dim))
    if draw(st.booleans()):
        doc["hamiltonian"] = [
            {"duration": draw(DURATIONS), "matrix": hermitian(draw(matrices(dim)))}
            for _ in range(draw(st.integers(1, 2)))
        ]
    doc["observables"] = [{"name": "A", "matrix": hermitian(draw(matrices(dim)))}]
    return doc


HUGE_WEIGHT = {
    "dims": [1],
    "generalized": [{"alpha": [0.0, 1e300], "pre": [[0.0, 1.0]], "post": [[0.0, 1.0]]}],
    "observables": [{"name": "A", "matrix": [[[0.0, 0.0]]]}],
}
HUGE_ABS_WEIGHT = {
    "dims": [1],
    "generalized": [{"alpha": [1.7e308, 1.7e308], "pre": [[1.0, 0.0]], "post": [[1.0, 0.0]]}],
    "observables": [{"name": "A", "matrix": [[[2.0, 0.0]]]}],
}
HUGE_WEAK_VALUE = {
    "dims": [2],
    "pre": [[1.0, 0.0], [1e-9, 0.0]],
    "post": [[0.0, 0.0], [1.0, 0.0]],
    "observables": [{"name": "A", "matrix": [[[1e300, 0.0], [1e300, 0.0]],
                                            [[1e300, 0.0], [1e300, 0.0]]]}],
}

# the weak value itself, 1.7e308 * 1.5, overflows
OVERFLOWING_PRODUCT = {
    "dims": [2],
    "pre": [[1.0, 0.0], [0.5, 0.0]],
    "post": [[1.0, 0.0], [0.0, 0.0]],
    "observables": [{"name": "A", "matrix": [[[1.7e308, 0.0], [1.7e308, 0.0]],
                                            [[1.7e308, 0.0], [-1.7e308, 0.0]]]}],
}
# opposite signs at mirrored entries: A - A^dagger overflows
ANTI_HERMITIAN_MAXIMUM = {
    "dims": [2],
    "pre": [[1.0, 0.0], [0.5, 0.0]],
    "post": [[1.0, 0.0], [0.0, 0.0]],
    "observables": [{"name": "A", "matrix": [[[0.0, 0.0], [1.7e308, 0.0]],
                                            [[-1.7e308, 0.0], [0.0, 0.0]]]}],
}


# both parts of the weak value 1.5e308 + 1.5e308i are finite; its modulus overflows
HUGE_MODULUS = {
    "dims": [2],
    "pre": [[1.0, 0.0], [0.0, 0.0]],
    "post": [[1.0, 0.0], [1.0, 0.0]],
    "observables": [{"name": "A", "matrix": [[[0.0, 0.0], [1.5e308, -1.5e308]],
                                            [[1.5e308, 1.5e308], [0.0, 0.0]]]}],
}

# eigenvalues +-1e300 and a pre/post overlap of a (1 + i), a = 1e300 / 1.5e308: the weak
# value, about 1.5e308 (1 - i), reaches pointer, which prints its real part
HUGE_MODULUS_POINTER = {
    "dims": [2],
    "pre": [[1.0, 0.0], [1.0, 0.0]],
    "post": [[1.0, 0.0], [-1.0 + 1e300 / 1.5e308, -1e300 / 1.5e308]],
    "observables": [{"name": "A", "matrix": [[[1e300, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1e300, 0.0]]]}],
}


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=documents(), time=st.floats(-0.5, 4.5), g=st.sampled_from([1e-3, 0.1, 30.0]))
@example(doc=HUGE_WEIGHT, time=0.0, g=0.1)  # |alpha * amplitude|**2 overflows
@example(doc=HUGE_ABS_WEIGHT, time=0.0, g=0.1)  # abs(alpha) overflows
@example(doc=HUGE_WEAK_VALUE, time=0.0, g=0.1)  # the weak value is ~1e309
@example(doc=HUGE_WEAK_VALUE, time=-1e-05, g=0.1)  # argparse alone reads -1e-05 as an option
@example(doc=OVERFLOWING_PRODUCT, time=0.0, g=0.1)
@example(doc=ANTI_HERMITIAN_MAXIMUM, time=0.0, g=0.1)
@example(doc=HUGE_MODULUS, time=0.0, g=0.1)  # abs(weak value) overflows
@example(doc=HUGE_MODULUS_POINTER, time=0.0, g=1e-300)
def test_every_verb_ends_in_an_exit_code(tmp_path, capsys, doc, time, g):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    base = ["--file", str(path), "--observable", "A"]
    for argv in (
        ["abl", *base],
        ["abl", *base, f"--time={time!r}"],
        ["abl", *base, "--time", repr(time)],
        ["weak", *base],
        ["verify", *base, "--samples", "200"],
        ["pointer", *base, "--g", repr(g), "--sigma", "1", "--out", str(tmp_path / "p.csv")],
    ):
        code = main(argv)
        out = capsys.readouterr().out
        assert code in range(5), argv
        assert "nan" not in out.lower(), (argv, out)
