"""Byte-identity corpus: a fixed list of CLI commands and the sha256 of what each prints and writes.

Each command runs in-process through ``tsvlab.cli.main`` in a scratch
directory holding the problem files that :func:`write_inputs` makes: the
CI flip files and the one-term generalized copies of the flip pair and
of the three-box scenario, edge files
(states scaled by 1e300 and 1e-300, a 6-level degenerate observable at
the units 1, 2**24 and 1e-200, subnormal amplitudes, a weak value whose
parts are finite but whose modulus overflows), a kernel file with
an observable, a two-term generalized file with and without a schedule,
and the two files under ``tests/fixtures``. The command list
begins with ``export-scenario`` of the five scenarios, whose files the later
commands read. A command's digest is the sha256 of its exit code, stdout,
stderr and the bytes of the file named by its ``--out`` (removed first, so
a failed ``pointer`` pins that it left none). Usage errors that argparse
reports are left out: their wording varies between Python versions.

``tests/fixtures/corpus.json`` maps each command to its digest;
``tests/test_corpus.py`` checks every one. A change that moves output
regenerates the fixture and names every changed key as a stated output
change::

    PYTHONPATH=src python tests/corpus.py

The printed residues depend on floating-point rounding, so a different
NumPy or LAPACK build may need the fixture recaptured.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import warnings
from pathlib import Path

import numpy as np

from tsvlab.cli import main
from tsvlab.problemfile import to_document
from tsvlab.scenarios import get_scenario

FIXTURE = Path(__file__).parent / "fixtures" / "corpus.json"
#: problem files copied from tests/fixtures into the scratch directory
COPIED = {"impossible_postselection.json": ("sigma_z", "identity"),
          "random_dim3.json": ("obs_a", "P_0", "identity")}
#: (export, observables) of the five scenarios; correlated-pair is a kernel with none
EXPORTS = {
    "correlated-pair": (),
    "mean-king": ("sigma_x", "sigma_y", "sigma_z"),
    "spin-box": ("P_A_up", "P_A_down", "P_B_up"),
    "spin-xz": ("sigma_z", "sigma_x"),
    "three-box": ("P_A", "P_B", "P_C"),
}
#: (edge file, observables) written by write_inputs
EDGES = {
    "scaled-up.json": ("O", "P"),
    "scaled-down.json": ("O", "P"),
    "unit-1.json": ("O",),
    "unit-16777216.json": ("O",),
    "unit-1e-200.json": ("O",),
    "subnormal.json": ("O", "tiny"),
    "huge-modulus.json": ("O",),
}
#: times on the flip schedule (two unit segments of sigma_x): inside, on the boundaries,
#: within the slack of 0 and 2, and outside the window
FLIP_TIMES = ("0", "0.25", "0.5", "1", "1.5", "2", "-1e-13", "2.0000000000001", "-0.5", "2.5", "inf")

Z = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]
X = [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]


def _pairs(a) -> list:
    a = np.asarray(a, dtype=complex)
    return np.stack((a.real, a.imag), axis=-1).tolist()


def _dump(name: str, doc: dict) -> None:
    with open(name, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)


def write_inputs() -> None:
    """Write every problem file the commands read, except the exports, into the working directory."""
    fixtures = Path(__file__).parent / "fixtures"
    for name in COPIED:
        shutil.copyfile(fixtures / name, name)
    # the CI flip files: two segments of H = c sigma_x for time 1/c
    pre, post = [[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]
    for name, c in (("flip.json", 1.0), ("flip-overflow.json", 1e-308)):
        h = [[[0.0, 0.0], [c, 0.0]], [[c, 0.0], [0.0, 0.0]]]
        doc = {"dims": [2], "pre": pre, "post": post,
               "hamiltonian": [{"duration": 1.0 / c, "matrix": h}] * 2,
               "observables": [{"name": "z", "matrix": Z}]}
        _dump(name, doc)
    # the flip pair as its one-term generalized selection
    _dump("flip-generalized.json", {"dims": [2], "generalized": [{"alpha": [1.0, 0.0], "pre": pre, "post": post}],
                                    "hamiltonian": [{"duration": 1.0, "matrix": X}] * 2,
                                    "observables": [{"name": "z", "matrix": Z}]})
    three = to_document(get_scenario("three-box"))
    three["generalized"] = [{"alpha": [1.0, 0.0], "pre": three.pop("pre"), "post": three.pop("post")}]
    _dump("three-box-generalized.json", three)
    upper = [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    doc["hamiltonian"] = [{"duration": 1.0, "matrix": Z}, {"duration": 1.0, "matrix": upper}]
    _dump("upper-segment.json", doc)

    rng = np.random.default_rng(16)
    pre, post = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    p = q[:, :2] @ q[:, :2].conj().T
    observables = [{"name": "O", "matrix": _pairs((a + a.conj().T) / 2.0)},
                   {"name": "P", "matrix": _pairs((p + p.conj().T) / 2.0)}]
    for name, c in (("scaled-up.json", 1e300), ("scaled-down.json", 1e-300)):
        _dump(name, {"dims": [4], "pre": _pairs(c * pre), "post": _pairs(c * post),
                     "observables": observables})

    # spectrum {1, 1, 1, 2, 2, 3} * c in a random basis, as in CI's unit files
    rng = np.random.default_rng(6)
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
    pre, post = rng.normal(size=(2, 6)) + 1j * rng.normal(size=(2, 6))
    for name, c in (("unit-1.json", 1.0), ("unit-16777216.json", 2.0**24), ("unit-1e-200.json", 1e-200)):
        m = (q * (c * np.array([1.0, 1.0, 1.0, 2.0, 2.0, 3.0]))) @ q.conj().T
        _dump(name, {"dims": [6], "pre": _pairs(pre), "post": _pairs(post),
                     "observables": [{"name": "O", "matrix": _pairs((m + m.conj().T) / 2.0)}]})

    _dump("subnormal.json", {
        "dims": [3],
        "pre": [[5e-324, 0.0], [0.0, 1e-310], [2.5e-320, -3e-321]],
        "post": [[1e-315, 0.0], [3e-322, 0.0], [-4e-310, 1e-318]],
        "observables": [
            {"name": "O", "matrix": [[[1.0, 0.0], [0.5, 0.25], [0.0, 0.0]],
                                     [[0.5, -0.25], [-1.0, 0.0], [0.0, 1.0]],
                                     [[0.0, 0.0], [0.0, -1.0], [2.0, 0.0]]]},
            {"name": "tiny", "matrix": [[[5e-324, 0.0], [0.0, 0.0], [0.0, 0.0]],
                                        [[0.0, 0.0], [1e-320, 0.0], [0.0, 0.0]],
                                        [[0.0, 0.0], [0.0, 0.0], [1e-320, 0.0]]]},
        ],
    })

    # the weak value 1.5e308 + 1.5e308i: both parts are finite, its modulus is not
    _dump("huge-modulus.json", {
        "dims": [2], "pre": [[1.0, 0.0], [0.0, 0.0]], "post": [[1.0, 0.0], [1.0, 0.0]],
        "observables": [{"name": "O", "matrix": [[[0.0, 0.0], [1.5e308, -1.5e308]],
                                                 [[1.5e308, 1.5e308], [0.0, 0.0]]]}],
    })

    # a kernel file with an observable and a schedule: no verb has one selection to read
    kernel = {"dims": [2], "kernel": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
              "observables": [{"name": "z", "matrix": Z}]}
    _dump("kernel.json", kernel)
    _dump("kernel-h.json", {**kernel, "hamiltonian": [{"duration": 1.0, "matrix": X}]})
    # a two-term generalized file, with and without a schedule
    generalized = {
        "dims": [2],
        "generalized": [{"alpha": [1.0, 0.0], "pre": [[1.0, 0.0], [1.0, 0.0]], "post": [[1.0, 0.0], [0.0, 0.0]]},
                        {"alpha": [0.0, 2.0], "pre": [[0.0, 0.0], [1.0, 0.0]], "post": [[1.0, 0.0], [1.0, 0.0]]}],
        "observables": [{"name": "z", "matrix": Z}, {"name": "x", "matrix": X}],
    }
    _dump("generalized.json", generalized)
    _dump("generalized-h.json", {**generalized, "hamiltonian": [{"duration": 0.5, "matrix": X},
                                                                 {"duration": 1.0, "matrix": Z}]})
    with open("broken.json", "w", encoding="utf-8") as handle:
        handle.write('{"dims": [2], "pre": [[1, 0], [0, 0]]')


def _evaluations(name: str, observable: str, pointer_gs=("0.001", "100")) -> list:
    file = ["--file", name, "--observable", observable]
    out = [[verb, *file, *fmt] for verb in ("abl", "weak") for fmt in ([], ["--format", "json"])]
    out += [["verify", *file, "--format", "json", "--seed", seed] for seed in ("1", "2")]
    out += [["pointer", *file, "--g", g, "--sigma", "1", "--out", "density.csv"] for g in pointer_gs]
    return out


def commands() -> list:
    """Every command of the corpus, as argv lists, in the order they run."""
    out = [["export-scenario", name, "--out", f"{name}.json"] for name in EXPORTS]
    out += [["run", name, "--format", fmt] for name in EXPORTS for fmt in ("table", "json")]
    for name, observables in EXPORTS.items():
        for observable in observables:
            out += _evaluations(f"{name}.json", observable)
    for name, observables in {**COPIED, **EDGES}.items():
        for observable in observables:
            out += _evaluations(name, observable, ("0.001",))

    flip = ["--file", "flip.json", "--observable", "z"]
    out += [["abl", *flip, f"--time={t}"] for t in FLIP_TIMES]
    out += [["abl", *flip, f"--time={t}", "--format", "json"] for t in ("0.5", "1.5")]
    out += [["abl", *flip], ["weak", *flip]]
    out += [["abl", "--file", name, "--observable", "z", f"--time={t}"]
            for name in ("flip-overflow.json", "upper-segment.json") for t in ("0", "1")]
    # --time moves the selection of abl, weak and pointer alike, a pair as its one-term form
    for name, observable in (("flip.json", "z"), ("flip-generalized.json", "z"), ("generalized-h.json", "x")):
        file = ["--file", name, "--observable", observable]
        out += [[verb, *file, f"--time={t}"] for verb in ("abl", "weak") for t in ("0.5", "1.5")]
        out += [["pointer", *file, "--time=0.5", "--g", g, "--sigma", "1", "--out", "density.csv"]
                for g in ("0.001", "100")]

    # --time on generalized and kernel files, then error cases: exit 2 (usage, parse,
    # configuration), 3 (null ensemble), 4 (no samples)
    three = ["--file", "three-box.json", "--observable", "P_A"]
    out += [
        ["abl", "--file", "generalized-h.json", "--observable", "z", "--time=0.5"],
        ["abl", "--file", "generalized.json", "--observable", "z", "--time=0.5"],
        ["abl", "--file", "kernel.json", "--observable", "z", "--time=0.5"],
        ["abl", "--file", "kernel-h.json", "--observable", "z", "--time=0.5"],
        ["abl", *three, "--time=0"],
        ["weak", *three, "--time=0"],
        ["pointer", *three, "--time=0", "--g", "0.001", "--sigma", "1", "--out", "density.csv"],
        ["weak", "--file", "kernel-h.json", "--observable", "z", "--time=0.5"],
        ["weak", "--file", "flip.json", "--observable", "z", "--time=2.5"],
        ["verify", "--file", "generalized-h.json", "--observable", "z", "--samples", "1000"],
        ["verify", "--file", "mean-king.json", "--observable", "sigma_z"],
        # verify reads a pair as its one-term generalized copy, and a kernel file as every verb does
        ["verify", "--file", "three-box-generalized.json", "--observable", "P_B", "--format", "json", "--seed", "1"],
        ["verify", "--file", "kernel.json", "--observable", "z"],
        ["verify", *three, "--workers", "0"],
        ["verify", *three, "--samples", "0"],
        ["verify", "--file", "impossible_postselection.json", "--observable", "identity", "--samples", "1000"],
        ["abl", "--file", "kernel.json", "--observable", "z"],
        ["weak", "--file", "kernel-h.json", "--observable", "z"],
        ["pointer", "--file", "kernel.json", "--observable", "z", "--g", "0.001", "--sigma", "1",
         "--out", "density.csv"],
        ["pointer", *three, "--g", "0.001", "--sigma", "0", "--out", "density.csv"],
        ["pointer", *three, "--g", "1e-323", "--sigma", "1e-320", "--out", "density.csv"],
        ["pointer", *three, "--g", "0.001", "--sigma", "1", "--out", "no-such-dir/density.csv"],
        ["abl", "--file", "three-box.json", "--observable", "nosuch"],
        ["abl", "--file", "no-such-file.json", "--observable", "z"],
        ["abl", "--file", "broken.json", "--observable", "z"],
    ]
    # each command once, where it first appears
    return list({" ".join(argv): argv for argv in out}.values())


def digest(argv: list) -> str:
    """sha256 of the exit code, stdout, stderr and ``--out`` file of one in-process run."""
    target = argv[argv.index("--out") + 1] if "--out" in argv else None
    if target is not None and os.path.exists(target):
        os.unlink(target)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # as the test suite treats it
        code = main(argv)
    written = None
    if target is not None and os.path.exists(target):
        written = hashlib.sha256(Path(target).read_bytes()).hexdigest()
    record = json.dumps([code, stdout.getvalue(), stderr.getvalue(), written])
    return hashlib.sha256(record.encode()).hexdigest()


def digests() -> dict:
    """``{command: digest}`` for every command, run in the working directory."""
    write_inputs()
    return {" ".join(argv): digest(argv) for argv in commands()}


if __name__ == "__main__":
    import tempfile

    old = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            new = digests()
        finally:
            os.chdir(here)
    FIXTURE.write_text(json.dumps(new, indent=1) + "\n")
    for label, keys in (("changed", [k for k in new if k in old and old[k] != new[k]]),
                        ("added", [k for k in new if k not in old]),
                        ("removed", [k for k in old if k not in new])):
        for key in keys:
            print(f"{label}: {key}")
    print(f"{len(new)} commands written to {FIXTURE}", file=sys.stderr)
