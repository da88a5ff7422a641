import gc
import json
import math
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    random_bra,
    random_hermitian,
    random_ket,
    random_observable,
    reference_parse_numbers,
)
from tsvlab import (
    Bra,
    GeneralizedTwoStateVector,
    HamiltonianSchedule,
    Ket,
    Operator,
    ProblemFileError,
    TwoStateVector,
    TwoTimeKernel,
    spectral_decompose,
)
from tsvlab import problemfile
from tsvlab.problemfile import (
    ProblemFile,
    load,
    parse_document,
    save,
    to_document,
)
from tsvlab.scenarios import SCENARIOS, get_scenario

FIXTURES = Path(__file__).parent / "fixtures"


def minimal_doc():
    return {
        "dims": [2],
        "pre": [[1.0, 0.0], [0.0, 0.0]],
        "post": [[0.5, 0.0], [0.5, 0.0]],
        "observables": [
            {"name": "z", "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]}
        ],
    }


class TestParsing:
    def test_minimal_selection(self):
        problem = parse_document(minimal_doc())
        assert isinstance(problem.selection, TwoStateVector)
        assert problem.dims == (2,)
        assert set(problem.observables) == {"z"}
        np.testing.assert_allclose(problem.selection.forward.amplitudes, [1, 0])

    def test_fixture_files_load(self):
        for name in ("random_dim3.json", "impossible_postselection.json"):
            problem = load(FIXTURES / name)
            assert isinstance(problem.selection, TwoStateVector)
            assert problem.observables

    def test_generalized_mode(self):
        doc = {
            "dims": [2],
            "generalized": [
                {
                    "alpha": [1.0, 0.0],
                    "pre": [[1.0, 0.0], [0.0, 0.0]],
                    "post": [[1.0, 0.0], [0.0, 0.0]],
                },
                {
                    "alpha": [0.0, 0.5],
                    "pre": [[0.0, 0.0], [1.0, 0.0]],
                    "post": [[0.0, 0.0], [1.0, 0.0]],
                },
            ],
            "observables": [],
        }
        problem = parse_document(doc)
        assert isinstance(problem.selection, GeneralizedTwoStateVector)
        assert len(problem.selection.terms) == 2

    def test_kernel_mode(self):
        doc = {
            "dims": [2],
            "kernel": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        }
        problem = parse_document(doc)
        assert isinstance(problem.selection, TwoTimeKernel)
        np.testing.assert_allclose(problem.selection.matrix, np.eye(2))

    def test_selection_per_mode(self):
        pair = parse_document(minimal_doc())
        assert isinstance(pair.selection, TwoStateVector)
        doc = minimal_doc()
        doc["generalized"] = [{"alpha": [1.0, 0.0], "pre": doc.pop("pre"), "post": doc.pop("post")}]
        generalized = parse_document(doc)
        assert isinstance(generalized.selection, GeneralizedTwoStateVector)
        kernel = parse_document({"dims": [1], "kernel": [[[1.0, 0.0]]]})
        assert isinstance(kernel.selection, TwoTimeKernel)

    def test_hamiltonian_parses(self):
        doc = minimal_doc()
        doc["hamiltonian"] = [
            {"duration": 0.5, "matrix": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]}
        ]
        problem = parse_document(doc)
        assert problem.hamiltonian.total_duration == pytest.approx(0.5)


class TestValidation:
    def test_pre_without_post(self):
        doc = minimal_doc()
        del doc["post"]
        with pytest.raises(ProblemFileError):
            parse_document(doc)

    def test_two_modes_rejected(self):
        doc = minimal_doc()
        doc["kernel"] = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        with pytest.raises(ProblemFileError):
            parse_document(doc)

    def test_no_mode_rejected(self):
        with pytest.raises(ProblemFileError):
            parse_document({"dims": [2], "observables": []})

    def test_bad_dims(self):
        for dims in ([], [0], [2.5], "2", [True]):
            with pytest.raises(ProblemFileError):
                parse_document({"dims": dims, "pre": [], "post": []})

    def test_vector_length_checked(self):
        doc = minimal_doc()
        doc["pre"] = [[1.0, 0.0]]
        with pytest.raises(ProblemFileError):
            parse_document(doc)

    def test_complex_pairs_checked(self):
        doc = minimal_doc()
        doc["pre"] = [[1.0], [0.0, 0.0]]
        with pytest.raises(ProblemFileError):
            parse_document(doc)

    def test_matrix_shape_checked(self):
        doc = minimal_doc()
        doc["observables"][0]["matrix"] = [[[1.0, 0.0]]]
        with pytest.raises(ProblemFileError):
            parse_document(doc)

    def test_duplicate_observable_names(self):
        doc = minimal_doc()
        doc["observables"].append(dict(doc["observables"][0]))
        with pytest.raises(ProblemFileError):
            parse_document(doc)

    def test_non_hermitian_observable(self):
        doc = minimal_doc()
        doc["observables"][0]["matrix"] = [
            [[0.0, 0.0], [1.0, 0.0]],
            [[0.0, 0.0], [0.0, 0.0]],
        ]
        with pytest.raises(ProblemFileError):
            parse_document(doc)

    def test_negative_duration(self):
        doc = minimal_doc()
        doc["hamiltonian"] = [
            {"duration": -1.0, "matrix": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}
        ]
        message = "hamiltonian: segment 0 duration must be finite and non-negative, got -1.0"
        with pytest.raises(ProblemFileError) as info:
            parse_document(doc)
        assert str(info.value) == message

    @pytest.mark.parametrize("key", ["observable", "hamiltonain", "Dims"])
    def test_unknown_top_level_key(self, key):
        doc = minimal_doc()
        doc[key] = []
        with pytest.raises(ProblemFileError, match=f"unknown top-level key '{key}'"):
            parse_document(doc)

    def test_construction_bug_is_not_a_file_error(self, monkeypatch):
        def broken(op):
            raise RuntimeError("internal fault")

        monkeypatch.setattr(problemfile, "spectral_decompose", broken)
        with pytest.raises(RuntimeError, match="internal fault"):
            parse_document(minimal_doc())

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ProblemFileError):
            load(path)


def generalized_doc():
    return {
        "dims": [2],
        "generalized": [
            {"alpha": [1.0, 0.0], "pre": [[1.0, 0.0], [0.0, 0.0]], "post": [[1.0, 0.0], [0.0, 0.0]]}
        ],
    }


def kernel_doc():
    return {"dims": [2], "kernel": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}


def hamiltonian_doc():
    doc = minimal_doc()
    doc["hamiltonian"] = [
        {"duration": 0.5, "matrix": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]}
    ]
    return doc


def set_at(doc, path, value):
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


NUMBER_LOCATIONS = [
    (minimal_doc, ("pre", 0, 0), "pre"),
    (minimal_doc, ("post", 1, 1), "post"),
    (generalized_doc, ("generalized", 0, "alpha", 0), "generalized term 0 alpha"),
    (generalized_doc, ("generalized", 0, "pre", 1, 0), "generalized term 0 pre"),
    (kernel_doc, ("kernel", 0, 1, 0), "kernel"),
    (hamiltonian_doc, ("hamiltonian", 0, "matrix", 1, 0, 0), "hamiltonian segment 0"),
    (hamiltonian_doc, ("hamiltonian", 0, "duration"), "hamiltonian segment 0 duration"),
    (minimal_doc, ("observables", 0, "matrix", 0, 0, 0), "observable 'z'"),
]


class TestNonFinite:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("make, path, field", NUMBER_LOCATIONS,
                             ids=[loc[2] for loc in NUMBER_LOCATIONS])
    def test_rejected_naming_the_field(self, make, path, field, value):
        doc = make()
        parse_document(doc)  # the unmodified document is valid
        with pytest.raises(ProblemFileError, match="finite") as info:
            parse_document(set_at(doc, path, value))
        assert str(info.value).startswith(field)


MALFORMED_VECTORS = {
    "true": [[True, 0.0], [0.0, 0.0]],
    "false": [[1.0, 0.0], [False, 0.0]],
    "numeric string": [["1.0", 0.0], [0.0, 0.0]],
    "null": [[1.0, None], [0.0, 0.0]],
    "three-element pair": [[1.0, 0.0, 0.0], [0.0, 0.0]],
    "pair that is a number": [1.0, [0.0, 0.0]],
    "too deep": [[[1.0], [0.0]], [[0.0], [0.0]]],
    "dict entry": [{"re": 1.0, "im": 0.0}, [0.0, 0.0]],
}
Z = [0.0, 0.0]
MALFORMED_MATRICES = {
    "true": [[[True, 0.0], Z], [Z, [-1.0, 0.0]]],
    "false": [[[1.0, False], Z], [Z, [-1.0, 0.0]]],
    "numeric string": [[["1.0", 0.0], Z], [Z, [-1.0, 0.0]]],
    "null": [[None, Z], [Z, [-1.0, 0.0]]],
    "three-element pair": [[[1.0, 0.0, 0.0], Z], [Z, [-1.0, 0.0]]],
    "ragged row": [[[1.0, 0.0], Z], [Z]],
    "row that is a dict": [[[1.0, 0.0], Z], {"0": Z, "1": [-1.0, 0.0]}],
    "too deep": [[[[1.0, 0.0]], [Z]], [[Z], [[-1.0, 0.0]]]],
}


class TestMalformedNumbers:
    @pytest.mark.parametrize("vector", MALFORMED_VECTORS.values(), ids=MALFORMED_VECTORS.keys())
    def test_vector(self, vector):
        doc = minimal_doc()
        doc["pre"] = vector
        with pytest.raises(ProblemFileError, match="^pre: "):
            parse_document(doc)

    @pytest.mark.parametrize("matrix", MALFORMED_MATRICES.values(), ids=MALFORMED_MATRICES.keys())
    def test_matrix(self, matrix):
        doc = minimal_doc()
        doc["observables"][0]["matrix"] = matrix
        with pytest.raises(ProblemFileError, match="^observable 'z': "):
            parse_document(doc)


# Valid documents of dimension 1-3, then at most one node replaced by junk.
finite = st.one_of(st.floats(min_value=-4.0, max_value=4.0), st.integers(-2, 2))
junk = st.sampled_from([math.nan, math.inf, -math.inf, True, False, None, "1.0", 10**400,
                        [], [1.0], [1.0, 0.0, 0.0], {"re": 1.0}, [[1.0, 0.0]]])


def hermitian_pairs(dim, values):
    """A Hermitian matrix as [re, im] pairs, from its upper triangle (diagonal made real)."""
    m = np.zeros((dim, dim), dtype=complex)
    m[np.triu_indices(dim)] = [complex(re, im) for re, im in values]
    m = np.triu(m, 1) + np.triu(m, 1).conj().T + np.diag(m.diagonal().real)
    return np.stack([m.real, m.imag], axis=-1).tolist()


def valid_documents(dim):
    pair = st.lists(finite, min_size=2, max_size=2)
    vector = st.lists(pair, min_size=dim, max_size=dim)
    n_upper = dim * (dim + 1) // 2
    matrix = st.lists(st.tuples(finite, finite), min_size=n_upper, max_size=n_upper).map(
        lambda values: hermitian_pairs(dim, values))
    payload = st.one_of(
        st.fixed_dictionaries({"pre": vector, "post": vector}),
        st.fixed_dictionaries({"generalized": st.lists(
            st.fixed_dictionaries({"alpha": pair, "pre": vector, "post": vector}),
            min_size=1, max_size=2)}),
        st.fixed_dictionaries({"kernel": st.lists(vector, min_size=dim, max_size=dim)}),
    )
    observables = st.lists(
        st.fixed_dictionaries({"name": st.sampled_from(["a", "b"]), "matrix": matrix}),
        max_size=2, unique_by=lambda entry: entry["name"])
    segments = st.lists(
        st.fixed_dictionaries({"duration": st.floats(min_value=0.0, max_value=2.0), "matrix": matrix}),
        max_size=2)
    rest = st.fixed_dictionaries({"dims": st.just([dim]), "observables": observables},
                                 optional={"hamiltonian": segments})
    return st.tuples(payload, rest).map(lambda parts: {**parts[0], **parts[1]})


def nodes(value, path=()):
    """Paths to every list entry and dict value inside a document."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from nodes(child, path + (key,))


@st.composite
def json_documents(draw):
    doc = draw(st.integers(1, 3).flatmap(valid_documents))
    if draw(st.booleans()):
        paths = list(nodes(doc))
        set_at(doc, paths[draw(st.integers(0, len(paths) - 1))], draw(junk))
    return doc


def parsed_arrays(problem):
    arrays = [np.asarray(problem.dims, dtype=float)]
    if isinstance(problem.selection, TwoTimeKernel):
        arrays.append(problem.selection.matrix)
    else:
        for alpha, bwd, fwd in problem.selection.terms:
            arrays += [np.array(alpha), bwd.amplitudes, fwd.amplitudes]
    if problem.hamiltonian is not None:
        for duration, h in problem.hamiltonian.segments:
            arrays += [np.array(duration), h.matrix]
    for obs in problem.observables.values():
        arrays += [obs.op.matrix, np.array(obs.eigenvalues), obs.eigenvectors]
    return arrays


@settings(max_examples=300, deadline=None)
@given(json_documents())
def test_any_document_parses_finite_or_is_rejected(doc):
    try:
        problem = parse_document(doc)
    except ProblemFileError:
        return
    assert all(np.isfinite(a).all() for a in parsed_arrays(problem))


def arrays_or_message(parse, *args):
    """``parse(*args)`` as the exact bytes of every parsed array, or the error message."""
    try:
        result = parse(*args)
    except ProblemFileError as exc:
        return "error", str(exc)
    arrays = parsed_arrays(result) if isinstance(result, ProblemFile) else [result]
    return "ok", [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


@settings(max_examples=300, deadline=None)
@given(json_documents())
def test_flat_parser_matches_the_object_array_reference(doc):
    flat = arrays_or_message(parse_document, doc)
    with mock.patch.object(problemfile, "_parse_numbers", reference_parse_numbers):
        reference = arrays_or_message(parse_document, doc)
    assert flat == reference


EDGE_LEAVES = {
    "-0.0": -0.0, "2**53 + 1": 2**53 + 1, "-2**64": -2**64, "10**400": 10**400, "5e-324": 5e-324,
    "true": True, "false": False, '"1.0"': "1.0", "null": None, "dict": {"re": 1.0},
}
EDGE_SHAPES = {
    '"ab" as a pair': (["ab", Z], (2, 2)),
    '"ab" as every pair': (["ab", "ab"], (2, 2)),
    '"ab" as a matrix pair': ([["ab", Z], [Z, Z]], (2, 2, 2)),
    '"ab" as a row': ([[Z, Z], "ab"], (2, 2, 2)),
    '"ab" as the vector': ("ab", (2, 2)),
    "ragged row": ([[Z, Z], [Z]], (2, 2, 2)),
    "vector one level too deep": ([[[1.0], [0.0]], [[0.0], [0.0]]], (2, 2)),
    "matrix one level too deep": ([[[Z], [Z]], [[Z], [Z]]], (2, 2, 2)),
    "one pair too deep": ([[[1.0], [0.0]], Z], (2, 2)),
    "list beside a number": ([[1.0, [0.0]], Z], (2, 2)),
    "list of lists as a duration": ([[1.0]], ()),
    "empty list as a duration": ([], ()),
}


def edge_cases():
    for name, leaf in EDGE_LEAVES.items():
        yield f"{name} as a duration", leaf, ()
        yield f"{name} in a pair", [0.5, leaf], (2,)
        yield f"{name} in a vector", [[0.5, 0.0], [leaf, 0.0]], (2, 2)
        yield f"{name} in a matrix", [[[1.0, leaf], Z], [Z, [-1.0, 0.0]]], (2, 2, 2)
    for name, (value, shape) in EDGE_SHAPES.items():
        yield name, value, shape


@pytest.mark.parametrize("name, value, shape", list(edge_cases()),
                         ids=[case[0] for case in edge_cases()])
def test_flat_parser_matches_the_reference_on_edge_cases(name, value, shape):
    args = (value, shape, "field", "the expected shape")
    assert (arrays_or_message(problemfile._parse_numbers, *args)
            == arrays_or_message(reference_parse_numbers, *args))


@pytest.mark.parametrize("container", [tuple, np.array], ids=["tuple", "ndarray"])
def test_only_json_lists_nest(container):
    doc = minimal_doc()
    doc["pre"] = container([container(pair) for pair in doc["pre"]])
    with pytest.raises(ProblemFileError) as info:
        parse_document(doc)
    assert str(info.value) == "pre: expected a vector of 2 [re, im] pairs"


def load_or_parse(text, tmp_path_factory):
    """``load`` of ``text`` in a file, and ``parse_document`` of its plain decode."""
    path = tmp_path_factory.mktemp("load") / "problem.json"
    path.write_text(text, encoding="utf-8")
    return arrays_or_message(load, path), arrays_or_message(parse_document, json.loads(text))


@settings(max_examples=300, deadline=None)
@given(json_documents())
def test_load_matches_parse_document(tmp_path_factory, doc):
    loaded, parsed = load_or_parse(json.dumps(doc), tmp_path_factory)
    assert loaded == parsed


def three_by_three():
    return hermitian_pairs(3, [(1.0, 0.0), (0.5, 0.5), (0.0, 0.0), (2.0, 0.0), (0.0, -1.0), (3.0, 0.0)])


MATRIX_CASES = {
    **{name: value for name, value, _ in edge_cases()},
    "3x3 in a 2-dimensional file": three_by_three(),
    "3x3 with a bool in a 2-dimensional file": set_at(three_by_three(), (2, 1, 0), True),
    "1x1 in a 2-dimensional file": [[[1.0, 0.0]]],
    "empty matrix": [],
    "matrix with a NaN": [[[math.nan, 0.0], Z], [Z, Z]],
    "non-Hermitian": [[Z, [1.0, 0.0]], [Z, Z]],
}
MATRIX_PLACES = {
    "observable": (minimal_doc, ("observables", 0, "matrix")),
    "hamiltonian segment": (hamiltonian_doc, ("hamiltonian", 0, "matrix")),
}


@pytest.mark.parametrize("case", MATRIX_CASES)
@pytest.mark.parametrize("place", MATRIX_PLACES)
def test_load_matches_parse_document_on_matrix_edge_cases(tmp_path_factory, place, case):
    make, path = MATRIX_PLACES[place]
    doc = set_at(make(), path, MATRIX_CASES[case])
    loaded, parsed = load_or_parse(json.dumps(doc), tmp_path_factory)
    assert loaded == parsed


SIGMA_Z_TEXT = "[[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]"


@pytest.mark.parametrize("matrices", [("[]", SIGMA_Z_TEXT), (SIGMA_Z_TEXT, "[]")],
                         ids=["valid last", "invalid last"])
def test_the_last_duplicate_matrix_wins(tmp_path_factory, matrices):
    text = ('{"dims": [2], "pre": [[1, 0], [0, 0]], "post": [[1, 0], [1, 0]], "observables": [{"name": "z", '
            + ", ".join(f'"matrix": {m}' for m in matrices) + "}]}")
    loaded, parsed = load_or_parse(text, tmp_path_factory)
    assert loaded == parsed and loaded[0] == ("ok" if matrices[1] == SIGMA_Z_TEXT else "error")


def test_load_peak_memory_is_bounded_by_the_file(tmp_path):
    # a pre/post pair, two segments and two observables at d = 64, as the benchmark writes
    # its selection files: a matrix is lists only until its object closes
    rng = np.random.default_rng(27)
    path = tmp_path / "problem.json"
    save(ProblemFile(
        dims=(64,),
        selection=TwoStateVector(random_ket(rng, 64), random_bra(rng, 64)),
        hamiltonian=HamiltonianSchedule(((0.5, random_hermitian(rng, 64)), (0.8, random_hermitian(rng, 64)))),
        observables={"a": random_observable(rng, 64), "b": random_observable(rng, 64)},
    ), path)
    load(path)
    tracemalloc.start()
    try:
        load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * path.stat().st_size


NON_HERMITIAN = [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
GC_CASES = {
    "valid": json.dumps(minimal_doc()),
    "invalid JSON": "{not json",
    "malformed field": json.dumps(set_at(minimal_doc(), ("pre", 0), "ab")),
    "non-Hermitian observable": json.dumps(
        set_at(minimal_doc(), ("observables", 0, "matrix"), NON_HERMITIAN)),
}


class TestGarbageCollectorState:
    @pytest.fixture(autouse=True)
    def restore_collector(self):
        enabled = gc.isenabled()
        yield
        if enabled:
            gc.enable()
        else:
            gc.disable()

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("case", GC_CASES)
    def test_load_leaves_the_collector_as_it_found_it(self, tmp_path, case, enabled):
        path = tmp_path / "problem.json"
        path.write_text(GC_CASES[case])
        if enabled:
            gc.enable()
        else:
            gc.disable()
        try:
            load(path)
        except ProblemFileError:
            assert case != "valid"
        else:
            assert case == "valid"
        assert gc.isenabled() is enabled

    def test_paused_load_reads_the_same_bits(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(15)
        path = tmp_path / "problem.json"
        save(ProblemFile(dims=(8, 8), selection=TwoStateVector(random_ket(rng, 64), random_bra(rng, 64)),
                         observables={"h": spectral_decompose(random_hermitian(rng, 64))}), path)
        gc.enable()
        states = []
        parse = problemfile.parse_document
        monkeypatch.setattr(problemfile, "parse_document",
                            lambda doc: states.append(gc.isenabled()) or parse(doc))
        collections = []

        def count(phase, info):
            collections.append(phase)

        gc.callbacks.append(count)
        try:
            paused = load(path)
            assert states == [False] and collections == []
            monkeypatch.setattr(problemfile, "gc", SimpleNamespace(
                isenabled=gc.isenabled, disable=lambda: None, enable=gc.enable))
            throughout = load(path)
        finally:
            gc.callbacks.remove(count)
        assert states == [False, True] and collections
        assert arrays_or_message(lambda: paused) == arrays_or_message(lambda: throughout)


class TestSerialization:
    def test_shortest_repr_floats_round_trip(self, tmp_path):
        # the extremes of float64, both zeros, and values with short and long reprs
        values = [5e-324, -0.0, 0.0, 1.7976931348623157e308, -1.7976931348623157e308, 1.0, 0.1,
                  1 / 3, np.pi, -0.1]
        kernel = np.array(values).view(complex)  # [re, im] pairs, each sign kept
        path = tmp_path / "kernel.json"
        save(ProblemFile(dims=(5,), observables={},
                         selection=TwoTimeKernel(np.diag(kernel))), path)
        assert "5e-324, -0.0" in path.read_text()
        loaded = load(path).selection.matrix
        assert loaded.tobytes() == np.diag(kernel).tobytes()  # bit-exact, signs of zero too

    def test_document_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(21)
        pre = rng.normal(size=3) + 1j * rng.normal(size=3)
        pre /= np.linalg.norm(pre)
        post = rng.normal(size=3) + 1j * rng.normal(size=3)
        post /= np.linalg.norm(post)
        h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        h = (h + h.conj().T) / 2
        problem = ProblemFile(
            dims=(3,),
            selection=TwoStateVector(Ket(pre), Bra(post)),
            observables={"h": spectral_decompose(Operator(h))},
        )
        path = tmp_path / "prob.json"
        save(problem, path)
        problem = load(path)
        assert np.array_equal(problem.selection.forward.amplitudes, pre)
        assert np.array_equal(problem.selection.backward.amplitudes, post)
        assert np.array_equal(problem.observables["h"].op.matrix, h)

    def test_saved_file_is_one_line_of_json(self, tmp_path):
        path = tmp_path / "prob.json"
        save(ProblemFile(
            dims=(2,),
            selection=TwoStateVector(
                Ket(np.array([1.0, 0.0], dtype=complex)), Bra(np.array([0.6, 0.8], dtype=complex))
            ),
            observables={"z": spectral_decompose(Operator(np.diag([1.0, -1.0])))},
        ), path)
        text = path.read_text()
        assert text.endswith("}\n") and text.count("\n") == 1
        parsed = json.loads(text)
        assert parsed["dims"] == [2]
        assert parsed["post"] == [[0.6, 0.0], [0.8, 0.0]]
        assert parsed["observables"][0]["name"] == "z"

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_save_is_a_fixed_point_on_exports(self, tmp_path, name):
        export = tmp_path / "export.json"
        again = tmp_path / "again.json"
        save(get_scenario(name), export)
        save(load(export), again)
        assert again.read_bytes() == export.read_bytes()


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(valid_documents))
def test_to_document_and_save_invert_parsing(tmp_path_factory, doc):
    try:
        problem = parse_document(doc)
    except ProblemFileError:
        return
    expected = parsed_arrays(problem)
    again = parsed_arrays(parse_document(to_document(problem)))
    assert len(again) == len(expected)
    assert all(same_bits(a, b) for a, b in zip(expected, again))

    path = tmp_path_factory.mktemp("round-trip") / "problem.json"
    save(problem, path)
    loaded = parsed_arrays(load(path))
    assert len(loaded) == len(expected)
    assert all(same_bits(a, b) for a, b in zip(expected, loaded))


def test_saved_negative_zero_reads_back_negative(tmp_path):
    doc = {"dims": [2], "pre": [[-0.0, 0.0], [1.0, 0.0]], "post": [[1.0, 0.0], [1.0, 0.0]]}
    path = tmp_path / "problem.json"
    save(parse_document(doc), path)
    assert '"pre": [[-0.0, 0.0], [1.0, 0.0]]' in path.read_text()
    assert np.signbit(load(path).selection.forward.amplitudes[0].real)
