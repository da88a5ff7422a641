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
import dataclasses
import json
import os
import shutil
import stat
import sys
import tempfile
import warnings

import numpy as np

from . import measure, problemfile, scenarios
from .errors import ConfigError, NullEnsembleError, OrthogonalSelectionError, ProblemFileError, TsvLabError
from .tsv import GeneralizedTwoStateVector, abl_probabilities, at_time, weak_value

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NULL_ENSEMBLE = 3
EXIT_NO_SAMPLES = 4

#: rows of the pointer CSV formatted per write; a grid of two blocks or more
#: is formatted by two processes where ``os.fork`` exists
CSV_BLOCK_ROWS = 4096

_NO_SELECTION = "kernel problems have no single selection; use `run correlated-pair`"


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _format_complex(z: complex) -> str:
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real} {sign} {abs(z.imag)}i"


def _load(args):
    """The problem of ``--file`` and its observable named by ``--observable``."""
    problem = problemfile.load(args.file)
    if args.observable not in problem.observables:
        known = ", ".join(sorted(problem.observables)) or "(none)"
        raise ProblemFileError(f"unknown observable {args.observable!r}; file defines: {known}")
    return problem, problem.observables[args.observable]


def _selection(problem, time=None):
    """The problem's pair or generalized selection, moved to ``time`` if one is given; else a ProblemFileError."""
    if not isinstance(problem.selection, GeneralizedTwoStateVector):
        raise ProblemFileError(_NO_SELECTION)
    if time is None:
        return problem.selection
    if problem.hamiltonian is None:
        raise ProblemFileError("--time requires a hamiltonian in the problem file")
    return at_time(problem.selection, problem.hamiltonian, time)


def cmd_run(args) -> int:
    scenario = scenarios.get_scenario(args.scenario)
    report = scenarios.run_scenario(scenario)
    if args.format == "json":
        doc = {
            "scenario": args.scenario,
            "passed": report.passed,
            "checks": [dataclasses.asdict(r) for r in report.results],
            "details": scenario.details,
        }
        # a complex number in the details is written as [real, imag]
        print(json.dumps(doc, indent=2, default=lambda z: [z.real, z.imag]))
    else:
        print(f"scenario: {args.scenario}: {scenario.description}")
        for r in report.results:
            status = "PASS" if r.passed else "FAIL"
            print(f"  [{status}] {r.description}")
            print(f"         expected: {r.expected} | actual: {r.actual} | provenance: {r.provenance}")
        if "value_table" in scenario.details:
            print("  value table (outcome -> x, y, z):")
            for outcome, values in scenario.details["value_table"].items():
                print(f"    {outcome}: {values}")
        passed = sum(r.passed for r in report.results)
        print(f"result: {'PASS' if report.passed else 'FAIL'} ({passed}/{len(report.results)} checks)")
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_abl(args) -> int:
    problem, obs = _load(args)
    dist = abl_probabilities(_selection(problem, args.time), obs)
    if args.format == "json":
        print(json.dumps({"observable": args.observable, "distribution": [
            {"outcome": o, "probability": p} for o, p in dist.entries
        ]}, indent=2))
    else:
        for outcome, probability in dist.entries:
            print(f"{outcome:.12g}: {probability:.12g}")
    return EXIT_OK


def cmd_weak(args) -> int:
    problem, obs = _load(args)
    value = weak_value(_selection(problem, args.time), obs)
    if args.format == "json":
        print(json.dumps({"observable": args.observable, "weak_value": [value.real, value.imag]}))
    else:
        print(_format_complex(value))
    return EXIT_OK


def cmd_verify(args) -> int:
    problem, obs = _load(args)
    selection = _selection(problem)
    if args.workers < 1:
        raise ConfigError(f"workers must be at least 1, got {args.workers}")
    report = measure.monte_carlo(selection, obs, args.samples, seed=args.seed)
    if report.samples_postselected == 0:
        print(
            f"no post-selected samples out of {args.samples}; "
            "the post-selection is unreachable for this observable",
            file=sys.stderr,
        )
        return EXIT_NO_SAMPLES
    rows = measure.measure(report, abl_probabilities(selection, obs))
    all_ok = all(abs(z) <= measure.Z_LIMIT for *_, z in rows)
    if args.format == "json":
        print(json.dumps({
            "samples_total": args.samples,
            "samples_postselected": report.samples_postselected,
            "seed": args.seed,
            "workers": args.workers,
            "outcomes": [
                {"outcome": o, "abl": p, "frequency": f, "standard_error": se, "z": z}
                for o, p, f, se, z in rows
            ],
            "passed": all_ok,
        }, indent=2))
    else:
        print(f"samples: {args.samples}, post-selected: {report.samples_postselected} "
              f"(seed {args.seed}, workers {args.workers})")
        print(f"{'outcome':>12} {'abl':>12} {'frequency':>12} {'std err':>12} {'z':>8}")
        for outcome, prob, freq, se, z in rows:
            print(f"{outcome:>12.6g} {prob:>12.8g} {freq:>12.8g} {se:>12.3g} {z:>8.2f}")
        print(f"result: PASS (all |z| <= {measure.Z_LIMIT:g})" if all_ok
              else f"result: FAIL (some |z| > {measure.Z_LIMIT:g})")
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def cmd_pointer(args) -> int:
    problem, obs = _load(args)
    selection = _selection(problem, args.time)
    cfg = measure.PointerConfig(args.g, args.sigma, obs.max_abs_eigenvalue)
    result = measure.weak_measure_pointer(selection, obs, cfg)
    try:
        wv_text = f"{weak_value(selection, obs).real:.12g}"
    except OrthogonalSelectionError:
        wv_text = "undefined (orthogonal selection)"
    eigs = obs.eigenvalues
    gaps = [b - a for a, b in zip(eigs[:-1], eigs[1:])]
    strong_lines = []
    if gaps and args.g * min(gaps) >= measure.STRONG_GAP_OVER_SIGMA * args.sigma:
        masses = measure.pointer_bump_masses(result, obs, args.g)
        strong_lines = ["strong regime: bump masses vs ABL"] + [
            f"  outcome {eig:.6g}: mass {mass:.9g}  abl {prob:.9g}"
            for (eig, prob), mass in zip(abl_probabilities(selection, obs).entries, masses)
        ]

    # everything that can fail is computed before the CSV is opened
    _write_pointer_csv(args.out, result.positions, result.density)

    print(f"pointer density written to {args.out} ({cfg.points} points)")
    print(f"mean_shift          : {result.mean_shift:.12g}")
    print(f"mean_shift / g      : {result.mean_shift / args.g:.12g}")
    print(f"Re(weak value)      : {wv_text}")
    print(f"post-selection rate : {result.postselection_rate:.12g}")
    for line in strong_lines:
        print(line)
    return EXIT_OK


def _csv_rows(positions, density) -> bytes:
    """One block of CSV rows, ``%.17g,%.17g\n`` each, in one %-format call.

    "%.17g" % 0.0 is "0" (a density is never -0.0), so the template writes a
    zero density as that literal and only the other values are formatted.
    """
    nonzero = density != 0.0
    runs = [0, *(np.flatnonzero(nonzero[1:] != nonzero[:-1]) + 1).tolist(), len(nonzero)]
    template = "".join(
        ("%.17g,%.17g\n" if nonzero[a] else "%.17g,0\n") * (b - a)
        for a, b in zip(runs[:-1], runs[1:])
    )
    block = np.column_stack((positions, density))
    formatted = np.column_stack((np.ones_like(nonzero), nonzero))
    return (template % tuple(block[formatted].tolist())).encode("ascii")


def _write_rows(handle, positions, density, start: int, stop: int) -> None:
    for first in range(start, stop, CSV_BLOCK_ROWS):
        rows = slice(first, min(first + CSV_BLOCK_ROWS, stop))
        handle.write(_csv_rows(positions[rows], density[rows]))


def _write_halves(handle, positions, density, spill) -> None:
    """Write every row: a forked child formats the second half into ``spill``.

    The child starts at the block boundary nearest the middle, while this
    process formats the rows before it; then this process appends the
    child's bytes. The child is reaped whatever happens here.
    """
    points = len(positions)
    split = round(points / (2 * CSV_BLOCK_ROWS)) * CSV_BLOCK_ROWS
    with warnings.catch_warnings():
        # Python 3.12+ warns when a process with other threads forks; here the
        # other threads are OpenBLAS's idle workers. The child runs Python and
        # element-wise numpy only, so it needs no lock such a thread may hold;
        # it calls no BLAS or LAPACK, never prints, and leaves through
        # os._exit, so no handler or buffer of this process runs twice.
        warnings.filterwarnings("ignore", r"This process \(pid=\d+\) is multi-threaded",
                                DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            _write_rows(spill, positions, density, split, points)
            spill.flush()
            code = 0
        finally:
            os._exit(code)
    try:
        _write_rows(handle, positions, density, 0, split)
    finally:
        status = os.waitpid(pid, 0)[1]
    if status != 0:
        raise OSError(f"CSV writer process exited with status {os.waitstatus_to_exitcode(status)}")
    spill.seek(0)
    shutil.copyfileobj(spill, handle)


def _write_pointer_csv(path, positions, density) -> None:
    """Write the pointer CSV to ``path``; a failed write leaves no file there.

    A regular file of two blocks or more is written by two processes where
    ``os.fork`` exists, the second half spilled to an unnamed file beside it;
    any other output is written by this process alone. The bytes are the same.
    """
    handle = open(path, "wb")
    regular = stat.S_ISREG(os.fstat(handle.fileno()).st_mode)
    try:
        with handle:
            handle.write(b"position,density\n")
            if regular and len(positions) >= 2 * CSV_BLOCK_ROWS and hasattr(os, "fork"):
                with tempfile.TemporaryFile(dir=os.path.dirname(os.path.abspath(path))) as spill:
                    _write_halves(handle, positions, density, spill)
            else:
                _write_rows(handle, positions, density, 0, len(positions))
    except BaseException:
        if regular:
            os.unlink(path)
        raise


def cmd_export_scenario(args) -> int:
    out = args.out or f"{args.scenario}.json"
    problemfile.save(scenarios.get_scenario(args.scenario), out)
    print(f"wrote {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsvlab",
        description="Analyze pre- and post-selected quantum systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    problem_flags = argparse.ArgumentParser(add_help=False)
    problem_flags.add_argument("--file", required=True, help="problem file (JSON)")
    problem_flags.add_argument("--observable", required=True, help="observable name from the file")
    format_flag = argparse.ArgumentParser(add_help=False)
    format_flag.add_argument("--format", choices=("table", "json"), default="table")
    time_flag = argparse.ArgumentParser(add_help=False)
    time_flag.add_argument("--time", type=float, default=None,
                           help="evaluate at this time inside the file's hamiltonian schedule")

    run = sub.add_parser("run", parents=[format_flag], help="run a named scenario's checks")
    run.add_argument("scenario", choices=sorted(scenarios.SCENARIOS))
    run.set_defaults(func=cmd_run)

    abl = sub.add_parser("abl", parents=[problem_flags, format_flag, time_flag],
                         help="conditional outcome probabilities")
    abl.set_defaults(func=cmd_abl)

    weak = sub.add_parser("weak", parents=[problem_flags, format_flag, time_flag],
                          help="weak value of an observable")
    weak.set_defaults(func=cmd_weak)

    verify = sub.add_parser("verify", parents=[problem_flags, format_flag],
                            help="Monte Carlo check of the conditional probabilities")
    verify.add_argument("--samples", type=int, default=100_000,
                        help=f"trials to draw, at most {measure.MAX_MC_SAMPLES}")
    verify.add_argument("--seed", type=int, default=measure.DEFAULT_SEED)
    verify.add_argument("--workers", type=int, default=1,
                        help="echoed in the output only; the counts do not depend on it")
    verify.set_defaults(func=cmd_verify)

    pointer = sub.add_parser("pointer", parents=[problem_flags, time_flag],
                             help="Gaussian-pointer measurement simulation")
    pointer.add_argument("--g", type=float, required=True, help="coupling strength")
    pointer.add_argument("--sigma", type=float, required=True, help="pointer spread")
    pointer.add_argument("--out", required=True, help="CSV output path (position, density)")
    pointer.set_defaults(func=cmd_pointer)

    export = sub.add_parser("export-scenario", help="write a scenario as a problem file")
    export.add_argument("scenario", choices=sorted(scenarios.SCENARIOS))
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
