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
from .errors import (
    ConfigError,
    NullEnsembleError,
    OrthogonalSelectionError,
    ProblemFileError,
    TimeWindowError,
    TsvLabError,
)
from .tsv import abl_at_time, abl_probabilities, weak_value

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NULL_ENSEMBLE = 3
EXIT_NO_SAMPLES = 4


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _jsonable(value):
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _format_complex(z: complex) -> str:
    sign = "+" if z.imag >= 0 or np.isnan(z.imag) else "-"
    return f"{float(z.real)} {sign} {abs(float(z.imag))}i"


def _lookup_observable(problem, name: str):
    if name not in problem.observables:
        known = ", ".join(sorted(problem.observables)) or "(none)"
        raise ProblemFileError(f"unknown observable {name!r}; file defines: {known}")
    return problem.observables[name]


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
            "details": _jsonable(report.details),
        }
        print(json.dumps(doc, indent=2))
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
        dist = abl_probabilities(problem.selection, obs)
    elif problem.mode != "selection":
        raise ProblemFileError("--time applies only to pre/post problems with a hamiltonian")
    elif problem.hamiltonian is None:
        raise ProblemFileError("--time requires a hamiltonian in the problem file")
    else:
        dist = abl_at_time(problem.pre, problem.post, problem.hamiltonian, args.time, obs)
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
    value = weak_value(problem.selection, obs.op)
    if args.format == "json":
        print(json.dumps({"observable": args.observable, "weak_value": [value.real, value.imag]}))
    else:
        print(_format_complex(value))
    return EXIT_OK


def cmd_verify(args) -> int:
    problem = problemfile.load(args.file)
    obs = _lookup_observable(problem, args.observable)
    if problem.mode != "selection":
        return _fail("verify needs a pre/post problem file", EXIT_USAGE)
    report = measure.monte_carlo_abl(
        problem.pre,
        problem.post,
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
    dist = abl_probabilities(problem.two_state_vector(), obs)
    rows = []
    all_ok = True
    for outcome, prob in dist.entries:
        freq = report.conditional_frequencies[outcome]
        se = report.standard_errors[outcome]
        z = (freq - prob) / se
        all_ok = all_ok and abs(z) <= 5.0
        rows.append((outcome, prob, freq, se, z))
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
        print(f"result: {'PASS' if all_ok else 'FAIL'} (all |z| <= 5)" if all_ok
              else "result: FAIL (some |z| > 5)")
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def cmd_pointer(args) -> int:
    problem = problemfile.load(args.file)
    obs = _lookup_observable(problem, args.observable)
    if problem.mode != "selection":
        return _fail("pointer needs a pre/post problem file", EXIT_USAGE)
    tsv = problem.two_state_vector()
    if args.half_range is not None or args.points is not None:
        if args.half_range is None or args.points is None:
            return _fail("--half-range and --points must be given together", EXIT_USAGE)
        cfg = measure.PointerConfig(
            coupling=args.g, sigma=args.sigma, half_range=args.half_range, points=args.points
        )
    else:
        cfg = measure.PointerConfig.auto(args.g, args.sigma, obs.max_abs_eigenvalue)
    result = measure.weak_measure_pointer(tsv, obs, cfg)

    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write("position,density\n")
        for q, d in zip(result.positions, result.density):
            handle.write(f"{q:.17g},{d:.17g}\n")

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
    observables = {name: obs.op.matrix for name, obs in scenario.observables.items()}
    if scenario.tsv is not None:
        doc = problemfile.document_from_parts(
            dims=scenario.dims,
            observables=observables,
            pre=scenario.tsv.forward.amplitudes,
            post=scenario.tsv.backward.amplitudes,
        )
    elif scenario.gtsv is not None:
        doc = problemfile.document_from_parts(
            dims=(scenario.gtsv.dim,),
            observables=observables,
            generalized_terms=[
                (alpha, bwd.amplitudes, fwd.amplitudes)
                for alpha, bwd, fwd in scenario.gtsv.terms
            ],
        )
    else:
        doc = problemfile.document_from_parts(
            dims=(scenario.kernel.dim_forward,),
            observables=observables,
            kernel=scenario.kernel.matrix,
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
    verify.add_argument("--samples", type=int, default=100_000)
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ProblemFileError as exc:
        return _fail(str(exc), EXIT_USAGE)
    except (ConfigError, TimeWindowError) as exc:
        return _fail(str(exc), EXIT_USAGE)
    except (NullEnsembleError, OrthogonalSelectionError) as exc:
        return _fail(str(exc), EXIT_NULL_ENSEMBLE)
    except TsvLabError as exc:
        return _fail(str(exc), EXIT_USAGE)
    except OSError as exc:
        return _fail(str(exc), EXIT_USAGE)


if __name__ == "__main__":
    sys.exit(main())
