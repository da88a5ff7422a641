"""Command-line surface.

Verbs: run (scenario suites), abl / weak (evaluate a problem file),
verify (Monte Carlo vs the conditional-probability rule), pointer
(Gaussian-pointer simulation with CSV export), export-scenario (write a
scenario as a problem file).

Exit codes: 0 success; 1 a check or comparison failed; 2 usage, parse, or
configuration error; 3 empty ensemble or orthogonal selection; 4 no
post-selected Monte Carlo samples.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import measure, problemfile, scenarios
from .errors import NullEnsembleError, OrthogonalSelectionError, ProblemFileError, TsvLabError
from .tsv import (
    GeneralizedTwoStateVector,
    TwoStateVector,
    abl_at_time,
    abl_probabilities,
    weak_value,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NULL_ENSEMBLE = 3
EXIT_NO_SAMPLES = 4

#: rows of the pointer CSV formatted per write
CSV_BLOCK_ROWS = 4096

#: selections that `abl` and `weak` evaluate; a two-time kernel is not one
_SELECTIONS = (TwoStateVector, GeneralizedTwoStateVector)
_NO_SELECTION = "kernel problems have no single selection; use `run correlated-pair`"


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _format_complex(z: complex) -> str:
    sign = "+" if z.imag >= 0 or np.isnan(z.imag) else "-"
    return f"{float(z.real)} {sign} {abs(float(z.imag))}i"


def _lookup_observable(problem, name: str):
    if name not in problem.observables:
        known = ", ".join(sorted(problem.observables)) or "(none)"
        raise ProblemFileError(f"unknown observable {name!r}; file defines: {known}")
    return problem.observables[name]


def _selection(problem, kinds, message: str):
    """The problem's selection if it is one of ``kinds``; else a ProblemFileError."""
    if not isinstance(problem.selection, kinds):
        raise ProblemFileError(message)
    return problem.selection


def cmd_run(args) -> int:
    try:
        scenario = scenarios.get_scenario(args.scenario)
    except KeyError as exc:
        return _fail(str(exc.args[0]), EXIT_USAGE)
    report = scenarios.run_scenario(scenario)
    if args.format == "json":
        doc = {
            "scenario": report.scenario,
            "passed": report.passed,
            "checks": [
                {
                    "description": r.description,
                    "provenance": r.provenance,
                    "expected": r.expected,
                    "actual": r.actual,
                    "passed": r.passed,
                }
                for r in report.results
            ],
            "details": report.details,
        }
        # a complex number in the details is written as [real, imag]
        print(json.dumps(doc, indent=2, default=lambda z: [z.real, z.imag]))
    else:
        print(f"scenario: {report.scenario}: {scenario.description}")
        for r in report.results:
            status = "PASS" if r.passed else "FAIL"
            print(f"  [{status}] {r.description}")
            print(f"         expected: {r.expected} | actual: {r.actual} | provenance: {r.provenance}")
        if "value_table" in report.details:
            print("  value table (outcome -> x, y, z):")
            for outcome, values in report.details["value_table"].items():
                print(f"    {outcome}: {values}")
        passed = sum(r.passed for r in report.results)
        print(f"result: {'PASS' if report.passed else 'FAIL'} ({passed}/{len(report.results)} checks)")
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_abl(args) -> int:
    problem = problemfile.load(args.file)
    obs = _lookup_observable(problem, args.observable)
    if args.time is None:
        dist = abl_probabilities(_selection(problem, _SELECTIONS, _NO_SELECTION), obs)
    else:
        tsv = _selection(problem, TwoStateVector,
                         "--time applies only to pre/post problems with a hamiltonian")
        if problem.hamiltonian is None:
            raise ProblemFileError("--time requires a hamiltonian in the problem file")
        dist = abl_at_time(tsv.forward, tsv.backward, problem.hamiltonian, args.time, obs)
    if args.format == "json":
        print(json.dumps({"observable": args.observable, "distribution": [
            {"outcome": o, "probability": p} for o, p in dist.entries
        ]}, indent=2))
    else:
        for outcome, probability in dist.entries:
            print(f"{outcome:.12g}: {probability:.12g}")
    return EXIT_OK


def cmd_weak(args) -> int:
    problem = problemfile.load(args.file)
    obs = _lookup_observable(problem, args.observable)
    value = weak_value(_selection(problem, _SELECTIONS, _NO_SELECTION), obs.op)
    if args.format == "json":
        print(json.dumps({"observable": args.observable, "weak_value": [value.real, value.imag]}))
    else:
        print(_format_complex(value))
    return EXIT_OK


def cmd_verify(args) -> int:
    problem = problemfile.load(args.file)
    obs = _lookup_observable(problem, args.observable)
    tsv = _selection(problem, TwoStateVector, "verify needs a pre/post problem file")
    report = measure.monte_carlo_abl(
        tsv.forward,
        tsv.backward,
        obs,
        args.samples,
        seed=args.seed,
        workers=args.workers,
    )
    if report.samples_postselected == 0:
        print(
            f"no post-selected samples out of {report.samples_total}; "
            "the post-selection is unreachable for this observable",
            file=sys.stderr,
        )
        return EXIT_NO_SAMPLES
    dist = abl_probabilities(tsv, obs)
    z = measure.z_scores(report, dist)
    rows = [(o, p, report.conditional_frequencies[o], report.standard_errors[o], z[o])
            for o, p in dist.entries]
    all_ok = all(abs(score) <= measure.Z_LIMIT for score in z.values())
    if args.format == "json":
        print(json.dumps({
            "samples_total": report.samples_total,
            "samples_postselected": report.samples_postselected,
            "seed": report.seed,
            "workers": report.workers,
            "outcomes": [
                {"outcome": o, "abl": p, "frequency": f, "standard_error": se, "z": z}
                for o, p, f, se, z in rows
            ],
            "passed": all_ok,
        }, indent=2))
    else:
        print(f"samples: {report.samples_total}, post-selected: {report.samples_postselected} "
              f"(seed {report.seed}, workers {report.workers})")
        print(f"{'outcome':>12} {'abl':>12} {'frequency':>12} {'std err':>12} {'z':>8}")
        for outcome, prob, freq, se, z in rows:
            print(f"{outcome:>12.6g} {prob:>12.8g} {freq:>12.8g} {se:>12.3g} {z:>8.2f}")
        print(f"result: PASS (all |z| <= {measure.Z_LIMIT:g})" if all_ok
              else f"result: FAIL (some |z| > {measure.Z_LIMIT:g})")
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def cmd_pointer(args) -> int:
    problem = problemfile.load(args.file)
    obs = _lookup_observable(problem, args.observable)
    tsv = _selection(problem, TwoStateVector, "pointer needs a pre/post problem file")
    if args.half_range is not None or args.points is not None:
        if args.half_range is None or args.points is None:
            return _fail("--half-range and --points must be given together", EXIT_USAGE)
        cfg = measure.PointerConfig(
            coupling=args.g, sigma=args.sigma, half_range=args.half_range, points=args.points
        )
    else:
        cfg = measure.PointerConfig.auto(args.g, args.sigma, obs.max_abs_eigenvalue)
    result = measure.weak_measure_pointer(tsv, obs, cfg)

    # One %-format call and one write per block of rows; O(block) extra memory.
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write("position,density\n")
        for start in range(0, len(result.positions), CSV_BLOCK_ROWS):
            rows = slice(start, start + CSV_BLOCK_ROWS)
            block = np.column_stack((result.positions[rows], result.density[rows]))
            handle.write(("%.17g,%.17g\n" * len(block)) % tuple(block.ravel().tolist()))

    try:
        wv = weak_value(tsv, obs.op)
        wv_text = f"{wv.real:.12g}"
    except OrthogonalSelectionError:
        wv = None
        wv_text = "undefined (orthogonal selection)"
    print(f"pointer density written to {args.out} ({cfg.points} points)")
    print(f"mean_shift          : {result.mean_shift:.12g}")
    print(f"mean_shift / g      : {result.mean_shift / args.g:.12g}")
    print(f"Re(weak value)      : {wv_text}")
    print(f"post-selection rate : {result.postselection_rate:.12g}")

    eigs = obs.eigenvalues
    gaps = [b - a for a, b in zip(eigs[:-1], eigs[1:])]
    if gaps and args.g * min(gaps) >= 8.0 * args.sigma:
        print("strong regime: bump masses vs ABL")
        masses = measure.pointer_bump_masses(result, obs, args.g)
        dist = dict(abl_probabilities(tsv, obs).entries)
        for eig in eigs:
            print(f"  outcome {eig:.6g}: mass {masses[eig]:.9g}  abl {dist[eig]:.9g}")
    return EXIT_OK


def cmd_export_scenario(args) -> int:
    try:
        scenario = scenarios.get_scenario(args.scenario)
    except KeyError as exc:
        return _fail(str(exc.args[0]), EXIT_USAGE)
    doc = problemfile.document_from_parts(
        scenario.dims,
        scenario.selection,
        observables={name: obs.op.matrix for name, obs in scenario.observables.items()},
    )
    out = args.out or f"{scenario.name}.json"
    problemfile.save(doc, out)
    print(f"wrote {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsvlab",
        description="Analyze pre- and post-selected quantum systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a named scenario's checks")
    run.add_argument("scenario", help="one of: " + ", ".join(sorted(scenarios.SCENARIOS)))
    run.add_argument("--format", choices=("table", "json"), default="table")
    run.set_defaults(func=cmd_run)

    abl = sub.add_parser("abl", help="conditional outcome probabilities")
    abl.add_argument("--file", required=True, help="problem file (JSON)")
    abl.add_argument("--observable", required=True, help="observable name from the file")
    abl.add_argument("--time", type=float, default=None,
                     help="evaluate at this time inside the file's hamiltonian schedule")
    abl.add_argument("--format", choices=("table", "json"), default="table")
    abl.set_defaults(func=cmd_abl)

    weak = sub.add_parser("weak", help="weak value of an observable")
    weak.add_argument("--file", required=True)
    weak.add_argument("--observable", required=True)
    weak.add_argument("--format", choices=("table", "json"), default="table")
    weak.set_defaults(func=cmd_weak)

    verify = sub.add_parser("verify", help="Monte Carlo check of the conditional probabilities")
    verify.add_argument("--file", required=True)
    verify.add_argument("--observable", required=True)
    verify.add_argument("--samples", type=int, default=100_000,
                        help=f"trials to draw, at most {measure.MAX_MC_SAMPLES}")
    verify.add_argument("--seed", type=int, default=measure.DEFAULT_SEED)
    verify.add_argument("--workers", type=int, default=1,
                        help="seed-stream partitions, drawn one after another in this process")
    verify.add_argument("--format", choices=("table", "json"), default="table")
    verify.set_defaults(func=cmd_verify)

    pointer = sub.add_parser("pointer", help="Gaussian-pointer measurement simulation")
    pointer.add_argument("--file", required=True)
    pointer.add_argument("--observable", required=True)
    pointer.add_argument("--g", type=float, required=True, help="coupling strength")
    pointer.add_argument("--sigma", type=float, required=True, help="pointer spread")
    pointer.add_argument("--half-range", type=float, default=None, dest="half_range")
    pointer.add_argument("--points", type=int, default=None)
    pointer.add_argument("--out", required=True, help="CSV output path (position, density)")
    pointer.set_defaults(func=cmd_pointer)

    export = sub.add_parser("export-scenario", help="write a scenario as a problem file")
    export.add_argument("scenario")
    export.add_argument("--out", default=None)
    export.set_defaults(func=cmd_export_scenario)

    return parser


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _attach_negative_values(argv) -> list:
    """Write ``--time -1e-05`` as ``--time=-1e-05``.

    argparse takes ``-1e-05`` or ``-inf`` after an option for another option
    (it knows only ``-5`` and ``-0.5`` as negative numbers); the ``=`` form
    is read as the value on every Python version. ``--`` and ``--help`` are
    left as they are.
    """
    out = []
    for token in argv:
        prev = out[-1] if out else ""
        if (prev.startswith("--") and "=" not in prev and not "--help".startswith(prev)
                and token.startswith("-") and _is_number(token)):
            out[-1] = f"{prev}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except (NullEnsembleError, OrthogonalSelectionError) as exc:
        return _fail(str(exc), EXIT_NULL_ENSEMBLE)
    except (TsvLabError, OSError) as exc:
        return _fail(str(exc), EXIT_USAGE)


if __name__ == "__main__":
    sys.exit(main())
