import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsvlab import ProblemFileError
from tsvlab.problemfile import (
    document_from_parts,
    dumps_document,
    load,
    parse_document,
    save,
)

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
        assert problem.mode == "selection"
        assert problem.dims == (2,)
        assert set(problem.observables) == {"z"}
        np.testing.assert_allclose(problem.pre.amplitudes, [1, 0])

    def test_fixture_files_load(self):
        for name in ("random_dim3.json", "impossible_postselection.json"):
            problem = load(FIXTURES / name)
            assert problem.mode == "selection"
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
        assert problem.mode == "generalized"
        assert len(problem.generalized.terms) == 2

    def test_kernel_mode(self):
        doc = {
            "dims": [2],
            "kernel": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        }
        problem = parse_document(doc)
        assert problem.mode == "kernel"
        np.testing.assert_allclose(problem.kernel.matrix, np.eye(2))

    def test_selection_per_mode(self):
        pair = parse_document(minimal_doc())
        assert pair.selection.forward is pair.pre
        assert pair.selection.backward is pair.post
        doc = minimal_doc()
        doc["generalized"] = [{"alpha": [1.0, 0.0], "pre": doc.pop("pre"), "post": doc.pop("post")}]
        generalized = parse_document(doc)
        assert generalized.selection is generalized.generalized
        kernel = parse_document({"dims": [1], "kernel": [[[1.0, 0.0]]]})
        with pytest.raises(ProblemFileError, match="kernel"):
            kernel.selection

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
        with pytest.raises(ProblemFileError):
            parse_document(doc)

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
    for state in (problem.pre, problem.post):
        if state is not None:
            arrays.append(state.amplitudes)
    if problem.generalized is not None:
        for alpha, bwd, fwd in problem.generalized.terms:
            arrays += [np.array(alpha), bwd.amplitudes, fwd.amplitudes]
    if problem.kernel is not None:
        arrays.append(problem.kernel.matrix)
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


class TestSerialization:
    def test_seventeen_digit_floats_round_trip(self):
        values = [1 / 3, np.pi, 1e-300, -0.1, 123456789.123456789]
        doc = {"dims": [1], "pre": [[v, 0.0] for v in values][:1], "post": [[0.5, 0.5]]}
        text = dumps_document({"dims": [5], "vals": [[v, 0.0] for v in values]})
        parsed = json.loads(text)
        for original, (re, _) in zip(values, parsed["vals"]):
            assert re == original  # bit-exact

    def test_document_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(21)
        pre = rng.normal(size=3) + 1j * rng.normal(size=3)
        pre /= np.linalg.norm(pre)
        post = rng.normal(size=3) + 1j * rng.normal(size=3)
        post /= np.linalg.norm(post)
        h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        h = (h + h.conj().T) / 2
        doc = document_from_parts(
            dims=(3,),
            observables={"h": h},
            pre=pre,
            post=post,
        )
        path = tmp_path / "prob.json"
        save(doc, path)
        problem = load(path)
        assert np.array_equal(problem.pre.amplitudes, pre)
        assert np.array_equal(problem.post.amplitudes, post)
        assert np.array_equal(problem.observables["h"].op.matrix, h)

    def test_dumps_is_valid_json(self):
        doc = document_from_parts(
            dims=(2,),
            observables={"z": np.diag([1.0, -1.0]).astype(complex)},
            pre=np.array([1.0, 0.0], dtype=complex),
            post=np.array([0.6, 0.8], dtype=complex),
        )
        parsed = json.loads(dumps_document(doc))
        assert parsed["dims"] == [2]
        assert parsed["observables"][0]["name"] == "z"
