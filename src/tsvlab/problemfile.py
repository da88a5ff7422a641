"""Declarative problem files: JSON documents describing a selection to analyze.

A problem file carries subsystem dimensions, exactly one selection payload
(a pre/post pair, generalized terms, or a two-time kernel), named
observables, and an optional piecewise-constant Hamiltonian. Complex
numbers are always explicit [re, im] pairs; matrices are row-major nested
arrays; the leftmost subsystem is the most significant tensor index.

:func:`save` writes one line of JSON with :func:`json.dumps`, which spells
each float as its shortest repr (a negative zero as ``-0.0``) and reads back
as the same IEEE double: re-ingesting an exported file reproduces
bit-identical numbers and therefore bit-identical results.
"""

from __future__ import annotations

import gc
import json
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ProblemFileError, TsvLabError
# spectral_decompose is not called here; bench/tests reads it as problemfile.spectral_decompose
from .qcore import Bra, HamiltonianSchedule, Ket, Operator, spectral_decompose
from .tsv import GeneralizedTwoStateVector, TwoStateVector, TwoTimeKernel


@dataclass(frozen=True)
class ProblemFile:
    """Parsed, validated problem description.

    ``selection`` holds the one selection payload: a :class:`TwoStateVector`
    (pre/post pair, the one-term :class:`GeneralizedTwoStateVector`), a
    :class:`GeneralizedTwoStateVector` or a :class:`TwoTimeKernel`.
    """

    dims: tuple
    observables: dict
    selection: GeneralizedTwoStateVector | TwoTimeKernel
    hamiltonian: HamiltonianSchedule | None = None


class _Decoded(np.ndarray):
    """A ``"matrix"`` that :func:`load`'s decoder has already converted; nothing else makes one."""


def _parse_numbers(value, shape: tuple, where: str, expected: str) -> np.ndarray:
    """Nested JSON numbers of exactly ``shape`` as a finite float array."""
    if type(value) is _Decoded and value.shape == shape:
        return value.view(np.ndarray)
    # flatten one level at a time: every node a list of the length ``shape`` asks for
    nodes = [value]
    for length in shape:
        if set(map(type, nodes)) != {list} or set(map(len, nodes)) != {length}:
            raise ProblemFileError(f"{where}: expected {expected}")
        nodes = list(chain.from_iterable(nodes))
    types = set(map(type, nodes))
    # leaves that are all lists of one length nest too deep; a mix is reported by type
    if types == {list} and len(set(map(len, nodes))) == 1:
        raise ProblemFileError(f"{where}: expected {expected}")
    # bool is an int, and numpy would read numeric strings as numbers
    bad = sorted(t.__name__ for t in types if t is bool or not issubclass(t, (int, float)))
    if bad:
        raise ProblemFileError(f"{where}: expected {expected}, found {', '.join(bad)} entries")
    try:
        numbers = np.array(nodes, dtype=float).reshape(shape)
    except OverflowError:
        raise ProblemFileError(f"{where}: number too large for a double") from None
    if not np.isfinite(numbers).all():
        raise ProblemFileError(f"{where}: numbers must be finite, got NaN or Infinity")
    return numbers


def _parse_complex(value, shape: tuple, where: str) -> np.ndarray:
    """[re, im] pairs nested to ``shape`` as a complex array, each pair bit-exact."""
    if not shape:
        expected = "a complex [re, im] pair"
    elif len(shape) == 1:
        expected = f"a vector of {shape[0]} [re, im] pairs"
    else:
        expected = f"a {shape[0]}x{shape[1]} matrix of [re, im] pairs"
    return _parse_numbers(value, (*shape, 2), where, expected).view(complex)[..., 0]


#: the top-level keys of a problem document
_KEYS = ("dims", "pre", "post", "generalized", "kernel", "hamiltonian", "observables")


def _built(where: str, make, *args):
    """``make(*args)``, with a construction error reported as a ProblemFileError at ``where``."""
    try:
        return make(*args)
    except (TsvLabError, ValueError) as exc:
        raise ProblemFileError(f"{where}: {exc}") from exc


def _parse_state(cls, value, dim: int, where: str):
    return _built(where, cls, _parse_complex(value, (dim,), where))


def parse_document(doc) -> ProblemFile:
    """Validate a decoded JSON document and build the problem objects.

    Raises
    ------
    ProblemFileError
        On any structural or consistency violation.
    """
    if not isinstance(doc, dict):
        raise ProblemFileError("problem document must be a JSON object")
    for key in doc:
        if key not in _KEYS:
            raise ProblemFileError(
                f"unknown top-level key {key!r}; expected only {', '.join(_KEYS)}")
    dims = doc.get("dims")
    if (
        not isinstance(dims, list)
        or not dims
        or not all(isinstance(d, int) and not isinstance(d, bool) and d >= 1 for d in dims)
    ):
        raise ProblemFileError("dims must be a non-empty list of positive integers")
    dims = tuple(dims)
    total = 1
    for d in dims:
        total *= d

    has_pre = "pre" in doc
    has_post = "post" in doc
    if has_pre != has_post:
        raise ProblemFileError("pre and post must be given together")
    modes = [name for name, flag in (("pre/post", has_pre), ("generalized", "generalized" in doc), ("kernel", "kernel" in doc)) if flag]
    if len(modes) != 1:
        raise ProblemFileError(
            f"exactly one of pre+post, generalized, or kernel must be populated, got {modes or 'none'}"
        )

    if has_pre:
        selection = TwoStateVector(
            _parse_state(Ket, doc["pre"], total, "pre"),
            _parse_state(Bra, doc["post"], total, "post"),
        )
    elif "generalized" in doc:
        raw_terms = doc["generalized"]
        if not isinstance(raw_terms, list) or not raw_terms:
            raise ProblemFileError("generalized must be a non-empty list of terms")
        terms = []
        for i, term in enumerate(raw_terms):
            if not isinstance(term, dict) or set(term) != {"alpha", "pre", "post"}:
                raise ProblemFileError(f"generalized term {i} needs alpha, pre, post")
            alpha = complex(_parse_complex(term["alpha"], (), f"generalized term {i} alpha"))
            fwd = _parse_state(Ket, term["pre"], total, f"generalized term {i} pre")
            bwd = _parse_state(Bra, term["post"], total, f"generalized term {i} post")
            terms.append((alpha, bwd, fwd))
        selection = _built("generalized", GeneralizedTwoStateVector, tuple(terms))
    else:
        selection = _built("kernel", TwoTimeKernel,
                           _parse_complex(doc["kernel"], (total, total), "kernel"))

    schedule = None
    if "hamiltonian" in doc:
        raw = doc["hamiltonian"]
        if not isinstance(raw, list):
            raise ProblemFileError("hamiltonian must be a list of {duration, matrix} segments")
        segments = []
        for i, seg in enumerate(raw):
            if not isinstance(seg, dict) or set(seg) != {"duration", "matrix"}:
                raise ProblemFileError(f"hamiltonian segment {i} needs duration and matrix")
            where = f"hamiltonian segment {i}"
            duration = float(_parse_numbers(seg["duration"], (), f"{where} duration",
                                            "a non-negative number"))
            matrix = _parse_complex(seg["matrix"], (total, total), where)
            segments.append((duration, _built(where, Operator, matrix)))
        schedule = _built("hamiltonian", HamiltonianSchedule, tuple(segments))

    observables = {}
    raw_obs = doc.get("observables", [])
    if not isinstance(raw_obs, list):
        raise ProblemFileError("observables must be a list of {name, matrix} entries")
    for i, entry in enumerate(raw_obs):
        if not isinstance(entry, dict) or set(entry) != {"name", "matrix"}:
            raise ProblemFileError(f"observable {i} needs exactly name and matrix")
        name = entry["name"]
        if not isinstance(name, str) or not name:
            raise ProblemFileError(f"observable {i}: name must be a non-empty string")
        if name in observables:
            raise ProblemFileError(f"duplicate observable name {name!r}")
        where = f"observable {name!r}"
        matrix = _parse_complex(entry["matrix"], (total, total), where)
        observables[name] = _built(where, Operator, matrix)

    return ProblemFile(dims=dims, observables=observables, selection=selection, hamiltonian=schedule)


def _decode_object(pairs) -> dict:
    """A JSON object as ``json`` builds it, with a square ``"matrix"`` converted if it parses."""
    obj = dict(pairs)
    matrix = obj.get("matrix")
    if type(matrix) is list:
        try:
            obj["matrix"] = _parse_numbers(matrix, (len(matrix), len(matrix), 2), "", "").view(_Decoded)
        except ProblemFileError:
            pass
    return obj


def load(path) -> ProblemFile:
    """Read and parse a problem file from disk.

    The cyclic garbage collector is paused while the file is decoded and
    parsed, and re-enabled afterwards if it was enabled on entry. A decoded
    document holds only dicts, lists, strings, numbers and the decoder's float
    arrays, so the passes it would trigger find nothing to free; deferred, not skipped.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            try:
                doc = json.load(handle, object_pairs_hook=_decode_object)
            except (ValueError, RecursionError) as exc:
                raise ProblemFileError(f"{path}: invalid JSON: {exc}") from exc
        return parse_document(doc)
    finally:
        if enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# problem documents and their JSON text


def _pairs(values) -> list:
    """Complex ``values`` (a scalar, vector or matrix) as nested [re, im] float pairs."""
    v = np.asarray(values, dtype=complex)
    return np.stack((v.real, v.imag), axis=-1).tolist()


def to_document(problem: ProblemFile) -> dict:
    """The JSON document of ``problem``; the inverse of :func:`parse_document`."""
    selection = problem.selection
    doc = {"dims": [int(d) for d in problem.dims]}
    if isinstance(selection, TwoStateVector):  # before its parent class, which a pair also is
        ((_, bwd, fwd),) = selection.terms
        doc["pre"], doc["post"] = _pairs(fwd.amplitudes), _pairs(bwd.amplitudes)
    elif isinstance(selection, GeneralizedTwoStateVector):
        doc["generalized"] = [
            {"alpha": _pairs(alpha), "pre": _pairs(fwd.amplitudes),
             "post": _pairs(bwd.amplitudes)}
            for alpha, bwd, fwd in selection.terms
        ]
    else:
        doc["kernel"] = _pairs(selection.matrix)
    if problem.hamiltonian is not None:
        doc["hamiltonian"] = [
            {"duration": duration, "matrix": _pairs(h.matrix)}
            for duration, h in problem.hamiltonian.segments
        ]
    doc["observables"] = [
        {"name": name, "matrix": _pairs(obs.matrix)}
        for name, obs in problem.observables.items()
    ]
    return doc


def save(problem: ProblemFile, path) -> None:
    """Write ``problem`` as a problem file; the inverse of :func:`load`."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(to_document(problem), allow_nan=False) + "\n")
