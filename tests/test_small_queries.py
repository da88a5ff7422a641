"""Small-system queries: the bytes of every result, pinned on random systems at d = 1..8.

The eight query kinds of the benchmark's ``small-systems`` workload (``abl``,
``weak``, ``ancilla``, ``reality``, ``product``, ``two_time``, ``ideal``,
``oracle``) and an observable's decomposition are run on random systems, and
one sha256 is taken over the ``tobytes()`` of every array and the ``repr`` of
every other field they return (or of the error they raise). A change that
claims to move no bit must leave the digest as it is.
"""

import hashlib
import sys
from pathlib import Path

import numpy as np

from tsvlab import (
    Bra,
    GeneralizedTwoStateVector,
    Ket,
    Operator,
    TsvLabError,
    TwoStateVector,
    TwoTimeKernel,
    abl_probabilities,
    element_of_reality,
    exact_conditional_oracle,
    get_scenario,
    gtsv_from_ancilla,
    ideal_measure,
    product_rule_report,
    run_scenario,
    two_time_joint,
    weak_value,
)

#: powers of two the states are scaled by: the norms then leave the plain sum of squares' safe range
STATE_SCALES = (1.0, 2.0**-500, 2.0**500)


def _feed(digest, value) -> None:
    if isinstance(value, np.ndarray):
        digest.update(f"{value.dtype}{value.shape}".encode())
        digest.update(value.tobytes())
    else:
        digest.update(repr(value).encode())


def _query(digest, run) -> None:
    """Feed the fields of ``run()``'s result, or the type and message of the error it raises."""
    try:
        result = run()
    except TsvLabError as err:
        _feed(digest, (type(err).__name__, str(err)))
        return
    if hasattr(result, "post_state"):  # a MeasurementRecord: the collapsed state's bytes, not its repr
        for value in (result.outcome, result.post_state.amplitudes, result.probability):
            _feed(digest, value)
    else:
        _feed(digest, result)


def _signed_zeros(rng, vec: np.ndarray) -> np.ndarray:
    """``vec`` with a random part of its real and imaginary parts set to +0.0 or -0.0."""
    parts = vec.astype(complex).view(np.float64).copy()
    hits = rng.random(parts.size) < 0.25
    parts[hits] = np.where(rng.random(hits.sum()) < 0.5, 0.0, -0.0)
    return parts.view(complex)


def _state(rng, dim: int, case: int) -> np.ndarray:
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    if case % 3 == 0:
        vec = _signed_zeros(rng, vec)
    return vec * STATE_SCALES[case % len(STATE_SCALES)]


def _levels(rng, dim: int) -> np.ndarray:
    """Integer levels in {-2..2}: zero levels and degeneracies are common."""
    return rng.integers(-2, 3, size=dim).astype(float)


def _hermitian(rng, basis: np.ndarray | None, levels: np.ndarray) -> np.ndarray:
    """``V diag(levels) V^dagger`` symmetrized, or without a basis ``diag(+-levels)``: zeros of both signs."""
    if basis is None:
        m = np.diag(levels * rng.choice((1.0, -1.0), size=len(levels))).astype(complex)
        upper = np.triu_indices(len(levels), 1)
        m[upper] = _signed_zeros(rng, np.full(len(upper[0]), 1.0 + 1.0j)) * 0.0
        m[upper[::-1]] = m[upper].conj()
        return m
    m = (basis * levels) @ basis.conj().T
    return (m + m.conj().T) / 2.0


def _haar(rng, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _system_digest(cases: int, seed: int) -> str:
    rng = np.random.default_rng(seed)
    digest = hashlib.sha256()
    for case in range(cases):
        dim = 1 + case % 8
        basis = None if case % 5 == 4 else _haar(rng, dim)
        levels = _levels(rng, dim)
        matrix = _hermitian(rng, basis, levels)
        pre, post = _state(rng, dim, case), _state(rng, dim, case + 1)
        if basis is not None and case % 4 == 1:
            # post-select inside one eigenspace of the observable: that outcome is certain
            block = basis[:, levels == levels[rng.integers(dim)]]
            post = block @ (block.conj().T @ pre)
        obs = Operator(matrix)

        def pair(bra=None):
            # built inside each query, as a caller builds it: a vanishing state is that query's error
            return TwoStateVector(Ket(pre), Bra(post if bra is None else bra))

        _query(digest, lambda: abl_probabilities(pair(), obs))
        _query(digest, lambda: weak_value(pair(), Operator(matrix)))
        _query(digest, lambda: element_of_reality(pair(), Operator(matrix)))
        _query(digest, lambda: exact_conditional_oracle(Ket(pre), Bra(post), Operator(matrix)))
        _query(digest, lambda: ideal_measure(Ket(pre), Operator(matrix), np.random.default_rng(case)))
        # a second observable in the same basis: A, B and AB commute, and on a
        # common eigenvector (every fourth case) all three are certain
        matrix_b = _hermitian(rng, basis, _levels(rng, dim))
        common = basis[:, rng.integers(dim)] if basis is not None and case % 4 == 3 else None
        _query(digest, lambda: product_rule_report(pair(common), Operator(matrix), Operator(matrix_b)))
        # three terms, one of zero weight
        alphas = rng.normal(size=3) + 1j * rng.normal(size=3)
        alphas[rng.integers(3)] = 0.0
        terms = [(complex(a), _state(rng, dim, case + k), _state(rng, dim, case + k + 1))
                 for k, a in enumerate(alphas)]

        def general():
            return GeneralizedTwoStateVector(tuple((a, Bra(b), Ket(f)) for a, b, f in terms))

        _query(digest, lambda: abl_probabilities(general(), Operator(matrix)))
        _query(digest, lambda: weak_value(general(), Operator(matrix)))
        joint_pre, joint_post = _state(rng, 2 * dim, case), _state(rng, 2 * dim, case + 2)
        if case % 6 == 5:
            joint_post[1::2] = 0.0  # one ancilla sector is empty: its term is dropped
        _query(digest, lambda: abl_probabilities(gtsv_from_ancilla(Ket(joint_pre), Bra(joint_post), dim, 2),
                                                 Operator(matrix)))
        kernel = _signed_zeros(rng, rng.normal(size=dim * dim) + 1j * rng.normal(size=dim * dim)).reshape(dim, dim)
        projectors = Operator(matrix).projectors
        legs = (int(rng.integers(len(projectors))), int(rng.integers(len(projectors))))
        _query(digest, lambda: two_time_joint(TwoTimeKernel(kernel), projectors[legs[0]], projectors[legs[1]]))
        # the decomposition itself, read after the queries that triggered it
        for value in (*obs.eigh, obs.eigenvalues, obs.block_starts):
            _feed(digest, value)
    return digest.hexdigest()


def test_small_query_bytes():
    # 2,000 systems, 250 at each d = 1..8; captured on the tree whose queries still
    # called numpy's Python reduction wrappers
    assert _system_digest(2000, 34) == "4bc8faa79680ee9eddbbee65e3ef49a704f128a80473f488ee8b2fc227af5be8"


#: numpy's Python files a small-system call may enter: np.errstate, einsum (``_born_weights``' einsum
#: has no bit-identical cheaper form) and the dispatch stubs of its C functions (np.vdot, np.where)
ALLOWED_NUMPY_FILES = ("_core/_ufunc_config.py", "_core/einsumfunc.py", "_core/multiarray.py")


def _numpy_python_calls(run, allowed=ALLOWED_NUMPY_FILES) -> set:
    """``(file, function)`` of every Python function under numpy that ``run()`` enters, outside ``allowed`` files.

    A profile hook sees what a monkeypatch cannot: an ndarray method such as ``.sum()``
    reaches ``numpy._core._methods`` from C, without a numpy-namespace lookup. ``run`` is
    called once unwatched first, so numpy's lazy imports (``np.random``) are not counted.
    """
    run()
    root = Path(np.__file__).parent
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            path = Path(frame.f_code.co_filename)
            if path.is_relative_to(root):
                name = path.relative_to(root).as_posix()
                if name not in allowed:
                    seen.add((name, frame.f_code.co_name))

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return seen


class TestNoNumpyPythonWrappers:
    """At d <= 8 a numpy Python wrapper costs about as much as the arithmetic it wraps."""

    def test_query_kinds_enter_no_numpy_python_function(self):
        rng = np.random.default_rng(35)
        for dim in range(2, 9):
            basis = _haar(rng, dim)
            levels = _levels(rng, dim)
            matrix, matrix_b = _hermitian(rng, basis, levels), _hermitian(rng, basis, _levels(rng, dim))
            pre, post = _state(rng, dim, 1), _state(rng, dim, 2)
            joint_pre, joint_post = _state(rng, 2 * dim, 1), _state(rng, 2 * dim, 2)
            kernel = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            generator = np.random.default_rng(dim)

            def pair():
                return TwoStateVector(Ket(pre), Bra(post))

            def two_time():
                projectors = Operator(matrix).projectors
                return two_time_joint(TwoTimeKernel(kernel), projectors[0], projectors[-1])

            queries = {
                "abl": lambda: abl_probabilities(pair(), Operator(matrix)),
                "weak": lambda: weak_value(pair(), Operator(matrix)),
                "ancilla": lambda: abl_probabilities(
                    gtsv_from_ancilla(Ket(joint_pre), Bra(joint_post), dim, 2), Operator(matrix)),
                "reality": lambda: element_of_reality(pair(), Operator(matrix)),
                "product": lambda: product_rule_report(pair(), Operator(matrix), Operator(matrix_b)),
                "two_time": two_time,
                "ideal": lambda: ideal_measure(Ket(pre), Operator(matrix), generator),
                "oracle": lambda: exact_conditional_oracle(Ket(pre), Bra(post), Operator(matrix)),
            }
            for kind, run in queries.items():
                assert _numpy_python_calls(run) == set(), f"{kind} at d = {dim}"

    def test_states_enter_no_numpy_python_function(self):
        # not even np.errstate's _ufunc_config.py: a Ket or Bra enters only np.vdot's dispatch stub,
        # at scales 1 and 2**+-500, where the norm is rescaled, and with signed zeros
        rng = np.random.default_rng(36)
        for dim in range(1, 9):
            for case in range(len(STATE_SCALES)):
                vec = _state(rng, dim, case)
                for cls in (Ket, Bra):
                    assert _numpy_python_calls(lambda: cls(vec), allowed=("_core/multiarray.py",)) == set()

    def test_correlated_pair_enters_no_numpy_python_function(self):
        # built and run: 100 spin directions, each decomposed and read through two kernels
        report = None

        def run():
            nonlocal report
            report = run_scenario(get_scenario("correlated-pair"))

        assert _numpy_python_calls(run) == set()
        assert report.passed

    def test_the_hook_sees_an_ndarray_method(self):
        # the guard's own premise: .sum() enters numpy's Python, np.add.reduce does not
        values = np.arange(4.0)
        assert _numpy_python_calls(values.sum) == {("_core/_methods.py", "_sum")}
        assert _numpy_python_calls(lambda: np.add.reduce(values, axis=None)) == set()
