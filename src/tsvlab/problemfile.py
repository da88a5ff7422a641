"""Declarative problem files: JSON documents describing a selection to analyze.

A problem file carries subsystem dimensions, exactly one selection payload
(a pre/post pair, generalized terms, or a two-time kernel), named
observables, and an optional piecewise-constant Hamiltonian. Complex
numbers are always explicit [re, im] pairs; matrices are row-major nested
arrays; the leftmost subsystem is the most significant tensor index.

Floats are written with 17 significant decimal digits, which round-trips
IEEE doubles exactly: re-ingesting an exported file reproduces bit-identical
numbers and therefore bit-identical results.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import NullEnsembleError, ProblemFileError, ZeroStateError
from .qcore import Bra, HamiltonianSchedule, Ket, Operator, spectral_decompose
from .tsv import GeneralizedTwoStateVector, TwoStateVector, TwoTimeKernel


@dataclass(frozen=True)
class ProblemFile:
    """Parsed, validated problem description.

    ``selection`` holds the one selection payload: a :class:`TwoStateVector`
    (pre/post pair), a :class:`GeneralizedTwoStateVector` or a
    :class:`TwoTimeKernel`.
    """

    dims: tuple
    observables: dict
    selection: TwoStateVector | GeneralizedTwoStateVector | TwoTimeKernel
    hamiltonian: HamiltonianSchedule | None = None


def _parse_numbers(value, shape: tuple, where: str, expected: str) -> np.ndarray:
    """Nested JSON numbers of exactly ``shape`` as a finite float array."""
    try:
        raw = np.array(value, dtype=object)
    except ValueError:
        raw = None
    if raw is None or raw.shape != shape:
        raise ProblemFileError(f"{where}: expected {expected}")
    # numpy would silently read true/false and numeric strings as numbers
    bad = sorted(t.__name__ for t in set(map(type, raw.flat))
                 if t is bool or not issubclass(t, (int, float)))
    if bad:
        raise ProblemFileError(f"{where}: expected {expected}, found {', '.join(bad)} entries")
    try:
        numbers = raw.astype(float)
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


def _parse_state(cls, value, dim: int, where: str):
    try:
        return cls(_parse_complex(value, (dim,), where))
    except ZeroStateError as exc:
        raise ProblemFileError(f"{where}: {exc}") from exc


def parse_document(doc) -> ProblemFile:
    """Validate a decoded JSON document and build the problem objects.

    Raises
    ------
    ProblemFileError
        On any structural or consistency violation.
    """
    if not isinstance(doc, dict):
        raise ProblemFileError("problem document must be a JSON object")
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
        try:
            selection = GeneralizedTwoStateVector(tuple(terms))
        except NullEnsembleError as exc:
            raise ProblemFileError(f"generalized: {exc}") from exc
    else:
        try:
            selection = TwoTimeKernel(_parse_complex(doc["kernel"], (total, total), "kernel"))
        except NullEnsembleError as exc:
            raise ProblemFileError(f"kernel: {exc}") from exc

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
            if duration < 0:
                raise ProblemFileError(f"{where}: duration must be a non-negative number")
            matrix = _parse_complex(seg["matrix"], (total, total), where)
            segments.append((duration, Operator(matrix)))
        try:
            schedule = HamiltonianSchedule(tuple(segments))
        except Exception as exc:
            raise ProblemFileError(f"hamiltonian: {exc}") from exc

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
        matrix = _parse_complex(entry["matrix"], (total, total), f"observable {name!r}")
        try:
            observables[name] = spectral_decompose(Operator(matrix))
        except Exception as exc:
            raise ProblemFileError(f"observable {name!r}: {exc}") from exc

    return ProblemFile(dims=dims, observables=observables, selection=selection, hamiltonian=schedule)


def load(path) -> ProblemFile:
    """Read and parse a problem file from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ProblemFileError(f"{path}: invalid JSON: {exc}") from exc
    return parse_document(doc)


# ---------------------------------------------------------------------------
# document construction and 17-significant-digit serialization


def _pairs(values) -> list:
    """Complex ``values`` (a scalar, vector or matrix) as nested [re, im] float pairs."""
    v = np.asarray(values, dtype=complex)
    return np.stack((v.real, v.imag), axis=-1).tolist()


def document_from_parts(dims, selection, observables=None, hamiltonian=None) -> dict:
    """Assemble a problem document; the inverse of :func:`parse_document`.

    ``selection`` is a :class:`TwoStateVector`, a
    :class:`GeneralizedTwoStateVector` or a :class:`TwoTimeKernel`;
    ``observables`` maps names to matrices and ``hamiltonian`` is a sequence
    of ``(duration, matrix)`` segments.
    """
    doc = {"dims": [int(d) for d in dims]}
    if isinstance(selection, TwoStateVector):
        doc["pre"] = _pairs(selection.forward.amplitudes)
        doc["post"] = _pairs(selection.backward.amplitudes)
    elif isinstance(selection, GeneralizedTwoStateVector):
        doc["generalized"] = [
            {"alpha": _pairs(alpha), "pre": _pairs(fwd.amplitudes),
             "post": _pairs(bwd.amplitudes)}
            for alpha, bwd, fwd in selection.terms
        ]
    else:
        doc["kernel"] = _pairs(selection.matrix)
    if hamiltonian is not None:
        doc["hamiltonian"] = [
            {"duration": float(duration), "matrix": _pairs(h)}
            for duration, h in hamiltonian
        ]
    doc["observables"] = [
        {"name": name, "matrix": _pairs(matrix)}
        for name, matrix in (observables or {}).items()
    ]
    return doc


def _encode(value, indent: int) -> str:
    pad = "  " * indent
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {_encode(v, indent + 1)}" for k, v in value.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if any(isinstance(v, dict) for v in value):
            inner = ",\n".join(f"{pad}  {_encode(v, indent + 1)}" for v in value)
            return "[\n" + inner + "\n" + pad + "]"
        return "[" + ", ".join(_encode(v, indent) for v in value) + "]"
    raise TypeError(f"cannot encode {type(value).__name__} in a problem file")


def dumps_document(doc: dict) -> str:
    """Serialize a document with 17-significant-digit decimal floats."""
    return _encode(doc, 0) + "\n"


def save(doc: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_document(doc))
