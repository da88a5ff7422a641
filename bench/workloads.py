"""The benchmark's three workloads: seeded inputs and a fixed op sequence each.

A workload generates every input (problem files, arrays) from its seed and
yields an endless, seed-determined sequence of :class:`Op`. One period of
the sequence contains every op kind of the workload in its stated mix, so a
run made of whole periods has exactly that mix. tsvlab sees only the
generated inputs: CLI verbs run in-process through ``tsvlab.cli.main`` with
stdout captured, library calls go through the ``tsvlab`` package namespace.
All tsvlab names are looked up when an op runs, never bound earlier, so the
traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

SIGMA = 1.0


@dataclass
class Op:
    """One closed-loop operation: ``run`` is timed, ``check`` is not."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], None]
    csv: Path | None = None


@dataclass
class CliResult:
    code: object
    stdout: str


def call_cli(tl, argv) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = tl.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad usage by exiting
            code = exc.code
    return CliResult(code, out.getvalue())


# ---------------------------------------------------------------------------
# input generation (numpy only)


def random_state(rng, d: int) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def haar_unitary(rng, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def hermitian(v, levels) -> np.ndarray:
    m = (v * np.asarray(levels, dtype=float)) @ v.conj().T
    return (m + m.conj().T) / 2.0


def spread_levels(rng, d: int) -> np.ndarray:
    """Non-degenerate spectrum: evenly spaced in [-2, 2] with jitter below a spacing."""
    base = np.linspace(-2.0, 2.0, d)
    step = 4.0 / max(d - 1, 1)
    return base + rng.uniform(-0.3, 0.3, size=d) * step


def four_levels(d: int) -> np.ndarray:
    """Spectrum {-3, -1, 1, 3}, each level d/4-fold degenerate."""
    return np.repeat([-3.0, -1.0, 1.0, 3.0], d // 4)


def random_hamiltonian(rng, d: int) -> np.ndarray:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / (2.0 * np.sqrt(d))


def pairs(a) -> list:
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


@dataclass
class ProblemSpec:
    """A generated problem file and the arrays it was written from."""

    path: Path
    observables: dict
    pre: np.ndarray | None = None
    post: np.ndarray | None = None
    terms: list = field(default_factory=list)
    segments: list = field(default_factory=list)

    @property
    def total_time(self) -> float:
        return sum(d for d, _ in self.segments)


def write_problem(spec: ProblemSpec) -> ProblemSpec:
    d = next(iter(spec.observables.values())).shape[0]
    doc = {"dims": [d]}
    if spec.terms:
        doc["generalized"] = [
            {"alpha": [alpha.real, alpha.imag], "pre": pairs(fwd), "post": pairs(bwd)}
            for alpha, bwd, fwd in spec.terms
        ]
    else:
        doc["pre"], doc["post"] = pairs(spec.pre), pairs(spec.post)
    if spec.segments:
        doc["hamiltonian"] = [{"duration": dur, "matrix": pairs(h)} for dur, h in spec.segments]
    doc["observables"] = [{"name": n, "matrix": pairs(m)} for n, m in spec.observables.items()]
    spec.path.write_text(json.dumps(doc), encoding="utf-8")
    return spec


def selection_problem(rng, d: int, path: Path, segments: int = 2) -> ProblemSpec:
    """Pre/post pair, a non-degenerate and a 4-level observable, a segmented Hamiltonian."""
    observables = {
        "nondeg": hermitian(haar_unitary(rng, d), spread_levels(rng, d)),
        "deg4": hermitian(haar_unitary(rng, d), four_levels(d)),
    }
    hamiltonian = [(float(rng.uniform(0.3, 1.0)), random_hamiltonian(rng, d)) for _ in range(segments)]
    return write_problem(ProblemSpec(path, observables, random_state(rng, d),
                                     random_state(rng, d), segments=hamiltonian))


def generalized_problem(rng, d: int, path: Path, n_terms: int = 3) -> ProblemSpec:
    observables = {
        "nondeg": hermitian(haar_unitary(rng, d), spread_levels(rng, d)),
        "deg4": hermitian(haar_unitary(rng, d), four_levels(d)),
    }
    terms = [
        (complex(rng.uniform(0.5, 1.5) * np.exp(1j * rng.uniform(0, 2 * np.pi))),
         random_state(rng, d), random_state(rng, d))
        for _ in range(n_terms)
    ]
    return write_problem(ProblemSpec(path, observables, terms=terms))


def balanced_problem(rng, d: int, path: Path, min_prob: float = 0.05) -> ProblemSpec:
    """Pre/post pair whose 4-level ABL probabilities are all at least ``min_prob``.

    Used by ``verify``: its pass/fail verdict is a 5-standard-error test on
    each outcome's frequency, which stays reliable only when every outcome
    keeps a few hundred post-selected samples.
    """
    levels = hermitian(haar_unitary(rng, d), four_levels(d))
    while True:
        pre, post = random_state(rng, d), random_state(rng, d)
        if min(p for _, p in ref.abl(pre, post, levels)) >= min_prob:
            return write_problem(ProblemSpec(path, {"levels": levels}, pre, post))


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""
    #: ops per period; a period holds every op kind in the workload's mix
    period = 1
    #: periods in each pass of a traced run; fixed so layer counts compare across commits
    trace_periods = 1

    def __init__(self, tl, seed: int, workdir: Path):
        self.tl = tl
        self.seed = seed
        self.inputs = np.random.default_rng([seed, 0])

    def ops(self):
        """Endless op sequence; the same seed always yields the same sequence."""
        raise NotImplementedError

    def cli_op(self, label, argv, check, csv=None) -> Op:
        return Op(label, lambda: call_cli(self.tl, argv), check, csv)


def _cli_check(inner):
    def check(result: CliResult):
        ref.require_exit(result.code)
        inner(result.stdout)

    return check


class CliFiles(Workload):
    """``abl``, ``abl --time`` and ``weak`` on problem files, table and JSON output.

    Two thirds of the ops read small files (d=16, some of them 3-term
    generalized), one third large ones (d=96). Every call re-parses the file
    and re-decomposes both observables, so parsing and decomposition
    dominate. Within a period the small ops are 3 generalized (no
    Hamiltonian, fastest) and 5 selection ops, and 3 of the 4 large ops use
    ``--time``: p50 then falls among the small selection ops and p90 among
    the large ``--time`` ops, away from any class boundary.
    """

    name = "cli-files"
    period = 12
    trace_periods = 8
    SMALL_D = 16
    LARGE_D = 96
    # (file class, verb, observable, format, at a time inside the schedule)
    MIX = (
        ("small-sel", "abl", "nondeg", "table", False),
        ("small-sel", "abl", "deg4", "json", False),
        ("small-sel", "abl", "deg4", "table", True),
        ("small-sel", "weak", "nondeg", "table", False),
        ("small-sel", "weak", "deg4", "json", False),
        ("small-gen", "abl", "nondeg", "table", False),
        ("small-gen", "abl", "deg4", "json", False),
        ("small-gen", "weak", "deg4", "table", False),
        ("large", "abl", "nondeg", "table", True),
        ("large", "abl", "deg4", "json", True),
        ("large", "abl", "nondeg", "json", True),
        ("large", "weak", "deg4", "json", False),
    )

    def __init__(self, tl, seed, workdir):
        super().__init__(tl, seed, workdir)
        rng = self.inputs
        self.files = {
            "small-sel": [selection_problem(rng, self.SMALL_D, workdir / f"small-sel-{i}.json")
                          for i in range(3)],
            "small-gen": [generalized_problem(rng, self.SMALL_D, workdir / f"small-gen-{i}.json")
                          for i in range(3)],
            "large": [selection_problem(rng, self.LARGE_D, workdir / f"large-{i}.json")
                      for i in range(2)],
        }

    def ops(self):
        rng = np.random.default_rng([self.seed, 1])
        for cycle in itertools.count():
            for index in rng.permutation(len(self.MIX)):
                kind, verb, obs, fmt, timed = self.MIX[index]
                pool = self.files[kind]
                spec = pool[cycle % len(pool)]
                t = float(rng.uniform(0.05, 0.95) * spec.total_time) if timed else None
                yield self._op(spec, verb, obs, fmt, t)

    def _op(self, spec: ProblemSpec, verb, obs, fmt, t) -> Op:
        argv = [verb, "--file", str(spec.path), "--observable", obs]
        if t is not None:
            argv += ["--time", repr(t)]
        if fmt == "json":
            argv += ["--format", "json"]
        matrix = spec.observables[obs]

        def check(text):
            if verb == "weak":
                if spec.terms:
                    expected = ref.weak_value_generalized(spec.terms, matrix)
                else:
                    expected = ref.weak_value(spec.pre, spec.post, matrix)
                ref.check_weak_output(text, fmt, expected)
            elif spec.terms:
                ref.check_abl_output(text, fmt, ref.abl_generalized(spec.terms, matrix))
            elif t is not None:
                ref.check_abl_output(text, fmt, ref.abl_at_time(spec.pre, spec.post,
                                                                spec.segments, t, matrix))
            else:
                ref.check_abl_output(text, fmt, ref.abl(spec.pre, spec.post, matrix))

        label = f"{verb}{' --time' if t is not None else ''} {fmt} {obs} {spec.path.name}"
        return self.cli_op(label, argv, _cli_check(check))


class Simulate(Workload):
    """Forward-only simulation: Monte Carlo ``verify`` and the Gaussian ``pointer``.

    Three equal classes per period, cheapest to dearest: weak-regime
    ``pointer`` on the 4096-point floor grid; ``verify`` at d=64 with 1e5,
    1.5e5 and 2e5 samples, ``--workers`` alternating 1 and 2; strong-regime
    ``pointer`` with about 1e5, 1.9e5 and 2e5 grid points, CSV written to a
    file. p50 falls on the 1.5e5-sample ``verify`` and p90 between the two
    largest grids. Files are small (d=8 and d=64), so parsing and
    decomposition do little.
    """

    name = "simulate"
    period = 9
    trace_periods = 3
    WEAK_G = (0.005, 0.01, 0.02)
    SAMPLES = (100_000, 150_000, 200_000)
    # grid points = 640 (1 + 3 g / sigma) + 1: 100,481, 192,641, 200,321
    STRONG_G = (52.0, 100.0, 104.0)

    def __init__(self, tl, seed, workdir):
        super().__init__(tl, seed, workdir)
        rng = self.inputs
        self.pointer_files = [
            write_problem(ProblemSpec(workdir / f"pointer-{i}.json",
                                      {"levels": hermitian(haar_unitary(rng, 8), four_levels(8))},
                                      random_state(rng, 8), random_state(rng, 8)))
            for i in range(3)
        ]
        self.verify_files = [balanced_problem(rng, 64, workdir / f"verify-{i}.json")
                             for i in range(3)]
        self.csv = workdir / "density.csv"

    def ops(self):
        rng = np.random.default_rng([self.seed, 1])
        mix = ([("weak", g) for g in self.WEAK_G] + [("verify", n) for n in self.SAMPLES]
               + [("strong", g) for g in self.STRONG_G])
        verify_count = 0
        for cycle in itertools.count():
            for index in rng.permutation(len(mix)):
                kind, size = mix[index]
                if kind == "verify":
                    spec = self.verify_files[cycle % len(self.verify_files)]
                    workers = 1 + verify_count % 2
                    verify_count += 1
                    yield self._verify(spec, size, workers, int(rng.integers(1, 2**31)))
                else:
                    spec = self.pointer_files[cycle % len(self.pointer_files)]
                    yield self._pointer(spec, size, strong=kind == "strong")

    def _verify(self, spec, samples, workers, seed) -> Op:
        argv = ["verify", "--file", str(spec.path), "--observable", "levels",
                "--samples", str(samples), "--seed", str(seed), "--workers", str(workers)]
        expected = ref.abl(spec.pre, spec.post, spec.observables["levels"])
        check = _cli_check(lambda text: ref.check_verify_output(text, expected, samples, workers))
        return self.cli_op(f"verify {samples} samples, {workers} workers {spec.path.name}",
                           argv, check)

    def _pointer(self, spec, g, strong) -> Op:
        argv = ["pointer", "--file", str(spec.path), "--observable", "levels",
                "--g", repr(g), "--sigma", repr(SIGMA), "--out", str(self.csv)]
        matrix = spec.observables["levels"]

        def check(result: CliResult):
            ref.require_exit(result.code)
            positions, density = ref.read_csv(self.csv)
            ref.check_pointer_output(
                result.stdout, positions, density,
                expected_shift=ref.pointer_mean_shift(spec.pre, spec.post, matrix, g, SIGMA),
                expected_weak=None if strong else ref.weak_value(spec.pre, spec.post, matrix),
                strong_expected=ref.abl(spec.pre, spec.post, matrix) if strong else None,
                scale=SIGMA + 3.0 * g,
            )

        regime = "strong" if strong else "weak"
        return self.cli_op(f"pointer {regime} g={g} {spec.path.name}", argv, check, csv=self.csv)


@dataclass
class SmallInstance:
    d: int
    pre: np.ndarray
    post: np.ndarray
    matrix: np.ndarray
    extra: dict


class SmallSystems(Workload):
    """Library calls on small systems, d in {2, 3, 4, 6, 8}.

    Every op builds its states, decomposes an observable with
    ``spectral_decompose`` and runs one query. Each ~30-200 us call is
    dominated by per-call Python overhead and operator construction, so a
    change that adds per-call cost to speed up large d shows here as a
    loss. Every 100th op builds and runs one of the five scenarios in
    rotation; this is the only workload that exercises ``scenarios``.
    """

    name = "small-systems"
    period = 500
    trace_periods = 10
    DIMS = (2, 3, 4, 6, 8)
    QUERIES = ("abl", "weak", "ancilla", "reality", "product", "two_time", "ideal", "oracle")
    SCENARIO_EVERY = 100
    SCENARIOS = ("spin-box", "three-box", "spin-xz", "mean-king", "correlated-pair")
    POOL = 4

    def __init__(self, tl, seed, workdir):
        super().__init__(tl, seed, workdir)
        rng = self.inputs
        self.pool = {
            (d, q): [self._instance(rng, d, q, k) for k in range(self.POOL)]
            for d in self.DIMS for q in self.QUERIES
        }

    @staticmethod
    def _levels(rng, d):
        while True:
            levels = rng.integers(-2, 3, size=d).astype(float)
            if np.unique(levels).size >= 2:
                return levels

    def _instance(self, rng, d, query, k) -> SmallInstance:
        v = haar_unitary(rng, d)
        levels = (rng.permutation(np.arange(-4, 5) / 2.0)[:d] if query == "two_time"
                  else self._levels(rng, d))
        matrix = hermitian(v, levels)
        pre, post = random_state(rng, d), random_state(rng, d)
        extra = {}
        if query == "reality" and k % 2 == 0:
            # post-select inside one eigenspace: that outcome becomes certain
            _, block = ref.eigenspaces(matrix)[int(rng.integers(len(np.unique(levels))))]
            post = ref.unit(block @ (block.conj().T @ pre))
        elif query == "product":
            extra["matrix_b"] = hermitian(v, self._levels(rng, d))
            if k % 2 == 0:
                # a common eigenvector: A, B and AB all certain, product rule holds
                post = v[:, int(rng.integers(d))].copy()
        elif query == "two_time":
            extra["kernel"] = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            extra["legs"] = (int(rng.integers(d)), int(rng.integers(d)))
        elif query == "ancilla":
            extra["joint_pre"], extra["joint_post"] = random_state(rng, 2 * d), random_state(rng, 2 * d)
        elif query == "ideal":
            extra["seed"] = int(rng.integers(2**31))
        return SmallInstance(d, pre, post, matrix, extra)

    def ops(self):
        rng = np.random.default_rng([self.seed, 1])
        kinds = [(d, q) for d in self.DIMS for q in self.QUERIES]
        uses = dict.fromkeys(kinds, 0)

        def library_ops():
            while True:
                for index in rng.permutation(len(kinds)):
                    kind = kinds[index]
                    inst = self.pool[kind][uses[kind] % self.POOL]
                    uses[kind] += 1
                    yield self._library_op(kind[1], inst)

        library = library_ops()
        for i in itertools.count():
            if i % self.SCENARIO_EVERY == self.SCENARIO_EVERY - 1:
                name = self.SCENARIOS[(i // self.SCENARIO_EVERY) % len(self.SCENARIOS)]
                yield self._scenario_op(name)
            else:
                yield next(library)

    def _scenario_op(self, name) -> Op:
        tl = self.tl

        def check(report):
            if not report.passed:
                failing = [r.description for r in report.results if not r.passed]
                raise ref.Mismatch(f"scenario {name} failed: {failing}")

        return Op(f"scenario {name}", lambda: tl.run_scenario(tl.get_scenario(name)), check)

    def _library_op(self, query, inst: SmallInstance) -> Op:
        tl = self.tl
        run, check = getattr(self, f"_q_{query}")(tl, inst)
        return Op(f"{query} d={inst.d}", run, check)

    # Each _q_* returns (run, check). run builds states and the observable, then queries.

    def _q_abl(self, tl, inst):
        def run():
            tsv = tl.TwoStateVector(tl.Ket(inst.pre), tl.Bra(inst.post))
            return tl.abl_probabilities(tsv, tl.spectral_decompose(tl.Operator(inst.matrix)))

        expected = ref.abl(inst.pre, inst.post, inst.matrix)
        return run, lambda dist: ref.compare_distribution(dist.entries, expected, "abl")

    def _q_oracle(self, tl, inst):
        def run():
            obs = tl.spectral_decompose(tl.Operator(inst.matrix))
            return tl.exact_conditional_oracle(tl.Ket(inst.pre), tl.Bra(inst.post), obs)

        expected = ref.abl(inst.pre, inst.post, inst.matrix)
        return run, lambda dist: ref.compare_distribution(dist.entries, expected, "oracle")

    def _q_weak(self, tl, inst):
        def run():
            tsv = tl.TwoStateVector(tl.Ket(inst.pre), tl.Bra(inst.post))
            return tl.weak_value(tsv, tl.spectral_decompose(tl.Operator(inst.matrix)).op)

        expected = ref.weak_value(inst.pre, inst.post, inst.matrix)
        return run, lambda value: ref.compare_value(value, expected, "weak value")

    def _q_ancilla(self, tl, inst):
        jpre, jpost = inst.extra["joint_pre"], inst.extra["joint_post"]

        def run():
            g = tl.gtsv_from_ancilla(tl.Ket(jpre), tl.Bra(jpost), inst.d, 2)
            return tl.abl_probabilities_generalized(g, tl.spectral_decompose(tl.Operator(inst.matrix)))

        expected = ref.abl_joint(jpre, jpost, inst.matrix, 2)
        return run, lambda dist: ref.compare_distribution(dist.entries, expected, "ancilla abl")

    def _q_reality(self, tl, inst):
        def run():
            tsv = tl.TwoStateVector(tl.Ket(inst.pre), tl.Bra(inst.post))
            return tl.element_of_reality(tsv, tl.spectral_decompose(tl.Operator(inst.matrix)))

        expected = ref.abl(inst.pre, inst.post, inst.matrix)
        return run, lambda report: _check_certainty(report, expected, "element of reality")

    def _q_product(self, tl, inst):
        matrix_b = inst.extra["matrix_b"]

        def run():
            tsv = tl.TwoStateVector(tl.Ket(inst.pre), tl.Bra(inst.post))
            obs_a = tl.spectral_decompose(tl.Operator(inst.matrix))
            obs_b = tl.spectral_decompose(tl.Operator(matrix_b))
            return tl.product_rule_report(tsv, obs_a, obs_b)

        dists = [ref.abl(inst.pre, inst.post, m) for m in (inst.matrix, matrix_b, inst.matrix @ matrix_b)]

        def check(report):
            for part, dist in zip((report.a, report.b, report.product), dists):
                _check_certainty(part, dist, f"product rule {part.label}")
            all_certain = all(max(p for _, p in dist) >= 1.0 - ref.CERTAINTY_TOL for dist in dists)
            if report.all_certain != all_certain:
                raise ref.Mismatch(f"product rule: all_certain {report.all_certain}, "
                                   f"reference {all_certain}")
            if report.all_certain:
                values = [max(dist, key=lambda e: e[1])[0] for dist in dists]
                holds = abs(values[2] - values[0] * values[1]) <= 1e-8
                if report.product_rule_holds != holds:
                    raise ref.Mismatch(f"product rule holds: {report.product_rule_holds}, reference {holds}")
            elif report.product_rule_holds is not None:
                raise ref.Mismatch("product rule verdict given without certainty")

        return run, check

    def _q_two_time(self, tl, inst):
        kernel, (i, j) = inst.extra["kernel"], inst.extra["legs"]

        def run():
            obs = tl.spectral_decompose(tl.Operator(inst.matrix))
            return tl.two_time_joint(tl.TwoTimeKernel(kernel), obs.projectors[i], obs.projectors[j])

        blocks = ref.eigenspaces(inst.matrix)
        expected = ref.two_time_joint(kernel, blocks[i][1][:, 0], blocks[j][1][:, 0])
        return run, lambda p: ref.compare_value(p, expected, "two-time joint probability")

    def _q_ideal(self, tl, inst):
        seed = inst.extra["seed"]

        def run():
            obs = tl.spectral_decompose(tl.Operator(inst.matrix))
            return tl.ideal_measure(tl.Ket(inst.pre), obs, np.random.default_rng(seed))

        def check(record):
            psi = ref.unit(inst.pre)
            for value, block in ref.eigenspaces(inst.matrix):
                if abs(value - record.outcome) <= ref.VALUE_TOL * max(1.0, abs(value)):
                    break
            else:
                raise ref.Mismatch(f"ideal measurement outcome {record.outcome!r} is no eigenvalue")
            coords = block.conj().T @ psi
            prob = float(np.vdot(coords, coords).real)
            ref.compare_value(record.probability, prob, "ideal measurement probability")
            fidelity = abs(np.vdot(block @ coords / np.sqrt(prob), record.post_state.amplitudes))
            ref.compare_value(fidelity, 1.0, "ideal measurement collapsed state")

        return run, check


def _check_certainty(report, dist, what) -> None:
    value, prob = max(dist, key=lambda e: e[1])
    certain = prob >= 1.0 - ref.CERTAINTY_TOL
    if report.certain != certain:
        raise ref.Mismatch(f"{what}: certain={report.certain}, reference {certain} (p={prob!r})")
    ref.compare_value(report.probability, prob, f"{what} probability")
    if certain:
        ref.compare_value(report.value, value, f"{what} value")


WORKLOADS = {w.name: w for w in (CliFiles, Simulate, SmallSystems)}
