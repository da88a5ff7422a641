"""In-process costs of the small-system calls: min-of-N microseconds per call, and an A/B against another tree.

Prints, at d = 2, 4 and 8, the fastest of ``--repeat`` timings of
``--number`` calls each for the constructors (``Ket``, ``Bra``, ``Operator``,
``Operator`` plus its spectrum, ``TwoStateVector``) and for the eight query
kinds of the benchmark's ``small-systems`` workload, each built as that
workload builds it: states and observable first, then the query::

    PYTHONPATH=src python tests/costs.py

With ``--against DIR`` the package ``DIR/tsvlab`` (the ``src`` directory of
another checkout) is copied to a temporary package and imported beside this
one. The table then gives both trees. A stream of 160 calls (the eight kinds
at d = 2, 3, 4, 6 and 8, four instances each, in a seeded random order) then
runs ``--rounds`` times. A round runs the stream ``--passes`` times, and, as the
``small-systems`` workload does, makes every 100th call one of its five
scenarios, built and run, in rotation; so the ratio stands for that workload's
``ops_per_s``. Each call runs on both trees back to back, the tree that goes
first alternating from call to call. The script prints the median over rounds
of this tree's round time over the other's and the number of rounds this tree
won. Both trees must give the same results on the stream and the scenarios, or
the script exits 1 before timing::

    PYTHONPATH=src python tests/costs.py --against ../parent/src --seed 1

One process sees both trees under the same load, so a gain of a few percent
that separate benchmark runs cannot resolve on a shared host shows here.
Nothing is checked against a bound: the output is a report.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from workloads import SmallSystems

QUERIES = ("abl", "weak", "ancilla", "reality", "product", "two_time", "ideal", "oracle")
#: the ``small-systems`` workload's scenarios, one every ``SCENARIO_EVERY`` calls, in this rotation
SCENARIOS, SCENARIO_EVERY = SmallSystems.SCENARIOS, SmallSystems.SCENARIO_EVERY
CONSTRUCTS = ("Ket", "Bra", "Operator", "Operator+spectrum", "TwoStateVector")
TABLE_DIMS = (2, 4, 8)
STREAM_DIMS = (2, 3, 4, 6, 8)
INSTANCES = 4


def _state(rng, d):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.sqrt(np.vdot(v, v).real)


def _instance(rng, d: int, query: str, k: int) -> dict:
    """Inputs of one call, drawn as the ``small-systems`` workload draws them."""
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    basis = q * (np.diag(r) / np.abs(np.diag(r)))
    if query == "two_time":
        levels = rng.permutation(np.arange(-4, 5) / 2.0)[:d]
    else:
        levels = rng.integers(-2, 3, size=d).astype(float)
        while np.unique(levels).size < 2:
            levels = rng.integers(-2, 3, size=d).astype(float)

    def hermitian(values):
        m = (basis * values) @ basis.conj().T
        return (m + m.conj().T) / 2.0

    inst = {"d": d, "matrix": hermitian(levels), "pre": _state(rng, d), "post": _state(rng, d)}
    if query == "reality" and k % 2 == 0:
        # post-select inside one eigenspace: that outcome is certain
        block = basis[:, levels == levels[rng.integers(d)]]
        inst["post"] = block @ (block.conj().T @ inst["pre"])
    elif query == "product":
        inst["matrix_b"] = hermitian(rng.integers(-2, 3, size=d).astype(float))
        if k % 2 == 0:
            inst["post"] = basis[:, rng.integers(d)].copy()  # a common eigenvector
    elif query == "two_time":
        inst["kernel"] = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        inst["legs"] = (int(rng.integers(d)), int(rng.integers(d)))
    elif query == "ancilla":
        inst["joint_pre"], inst["joint_post"] = _state(rng, 2 * d), _state(rng, 2 * d)
    elif query == "ideal":
        inst["seed"] = int(rng.integers(2**31))
    return inst


def call(tl, query: str, inst: dict):
    """A zero-argument function running one query kind on ``inst`` with the package ``tl``."""
    pre, post, matrix = inst["pre"], inst["post"], inst["matrix"]

    def pair():
        return tl.TwoStateVector(tl.Ket(pre), tl.Bra(post))

    if query == "abl":
        return lambda: tl.abl_probabilities(pair(), tl.Operator(matrix))
    if query == "weak":
        return lambda: tl.weak_value(pair(), tl.Operator(matrix))
    if query == "ancilla":
        jpre, jpost, d = inst["joint_pre"], inst["joint_post"], inst["d"]
        return lambda: tl.abl_probabilities(tl.gtsv_from_ancilla(tl.Ket(jpre), tl.Bra(jpost), d, 2),
                                            tl.Operator(matrix))
    if query == "reality":
        return lambda: tl.element_of_reality(pair(), tl.Operator(matrix))
    if query == "product":
        return lambda: tl.product_rule_report(pair(), tl.Operator(matrix), tl.Operator(inst["matrix_b"]))
    if query == "two_time":
        kernel, (i, j) = inst["kernel"], inst["legs"]

        def two_time():
            projectors = tl.Operator(matrix).projectors
            return tl.two_time_joint(tl.TwoTimeKernel(kernel), projectors[i], projectors[j])

        return two_time
    if query == "ideal":
        return lambda: tl.ideal_measure(tl.Ket(pre), tl.Operator(matrix), np.random.default_rng(inst["seed"]))
    if query == "oracle":
        return lambda: tl.exact_conditional_oracle(tl.Ket(pre), tl.Bra(post), tl.Operator(matrix))
    if query == "Ket":
        return lambda: tl.Ket(pre)
    if query == "Bra":
        return lambda: tl.Bra(post)
    if query == "Operator":
        return lambda: tl.Operator(matrix)
    if query == "Operator+spectrum":
        return lambda: tl.Operator(matrix).eigenvalues
    if query == "TwoStateVector":
        ket, bra = tl.Ket(pre), tl.Bra(post)
        return lambda: tl.TwoStateVector(ket, bra)
    raise ValueError(query)


def min_us(fn, repeat: int, number: int) -> float:
    """Fastest of ``repeat`` timings of ``number`` calls, in microseconds per call, garbage collection off."""
    best = float("inf")
    gc.disable()
    try:
        for _ in range(repeat):
            start = time.perf_counter()
            for _ in range(number):
                fn()
            best = min(best, time.perf_counter() - start)
    finally:
        gc.enable()
    return best / number * 1e6


def stream(seed: int) -> list:
    """The 160 ``(query, inputs)`` calls in a seeded random order."""
    rng = np.random.default_rng([seed, 34])
    calls = [(q, _instance(rng, d, q, k)) for d in STREAM_DIMS for q in QUERIES for k in range(INSTANCES)]
    return [calls[i] for i in rng.permutation(len(calls))]


def round_calls(count: int, passes: int) -> list:
    """One round's calls: ``passes`` runs of the ``count``-call stream, every ``SCENARIO_EVERY``-th call a
    scenario in rotation. Each entry is a stream index or a scenario name."""
    queries = iter(list(range(count)) * passes)
    calls = []
    for i in itertools.count():
        if i % SCENARIO_EVERY == SCENARIO_EVERY - 1:
            calls.append(SCENARIOS[(i // SCENARIO_EVERY) % len(SCENARIOS)])
        elif (index := next(queries, None)) is not None:
            calls.append(index)
        else:
            return calls


def fingerprint(result) -> str:
    """``repr`` of a result with every array replaced by its bytes, so two trees compare bit for bit."""
    if hasattr(result, "post_state"):
        return repr((result.outcome, result.post_state.amplitudes.tobytes(), result.probability))
    return repr(result)


def load_against(directory: Path, scratch: Path):
    """Import ``directory/tsvlab`` as the package ``tsvlab_against``, from a copy in ``scratch``."""
    source = directory / "tsvlab"
    if not (source / "__init__.py").exists():
        raise SystemExit(f"error: {source} is not a tsvlab package")
    shutil.copytree(source, scratch / "tsvlab_against", ignore=shutil.ignore_patterns("__pycache__"))
    sys.path.insert(0, str(scratch))
    return importlib.import_module("tsvlab_against")


def table(trees: dict, seed: int, repeat: int, number: int) -> list:
    rng = np.random.default_rng([seed, 2])
    rows = []
    for d in TABLE_DIMS:
        for query in (*CONSTRUCTS, *QUERIES):
            inst = _instance(rng, d, query if query in QUERIES else "abl", 1)
            timings = {name: min_us(call(tl, query, inst), repeat, number) for name, tl in trees.items()}
            rows.append({"call": query, "d": d, "us": timings})
    return rows


def ab(this, other, seed: int, rounds: int, passes: int) -> dict:
    """Median per-round ratio of the round's time on ``this`` over ``other``, and this tree's wins."""
    calls = stream(seed)
    names = ("this", "other")
    fns = {}
    for name, tl in zip(names, (this, other)):
        fns[name] = {i: call(tl, q, inst) for i, (q, inst) in enumerate(calls)}
        fns[name].update({s: lambda tl=tl, s=s: tl.run_scenario(tl.get_scenario(s)) for s in SCENARIOS})
    mine, theirs = ([fingerprint(fn()) for fn in fns[name].values()] for name in names)
    if mine != theirs:
        differ = sum(a != b for a, b in zip(mine, theirs))
        raise SystemExit(f"error: the trees differ on {differ} of {len(mine)} stream calls and scenarios")
    order = round_calls(len(calls), passes)

    def one_round(r):
        # call by call, the tree that goes first alternating, so a change of the host's load hits both alike
        took = dict.fromkeys(names, 0.0)
        for i, key in enumerate(order):
            pair = (fns["this"][key], fns["other"][key])
            for k in ((0, 1) if (r + i) % 2 == 0 else (1, 0)):
                start = time.perf_counter()
                pair[k]()
                took[names[k]] += time.perf_counter() - start
        return took["this"] / took["other"]

    gc.disable()
    try:
        ratios = [one_round(r) for r in range(rounds)]
    finally:
        gc.enable()
    quartiles = statistics.quantiles(ratios, n=4)
    return {"calls": len(calls), "rounds": rounds, "passes": passes,
            "scenario_calls": sum(isinstance(key, str) for key in order), "median_ratio": statistics.median(ratios),
            "quartiles": [quartiles[0], quartiles[2]], "wins": sum(x < 1.0 for x in ratios)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, help="src directory of another tree holding a tsvlab package")
    parser.add_argument("--seed", type=int, default=1, help="seed of the inputs (default 1)")
    parser.add_argument("--repeat", type=int, default=25, help="timings per table entry; the fastest is kept")
    parser.add_argument("--number", type=int, default=200, help="calls per timing")
    parser.add_argument("--rounds", type=int, default=60, help="interleaved rounds of the A/B stream")
    parser.add_argument("--passes", type=int, default=10, help="runs of the 160-call stream per round")
    parser.add_argument("--json", type=Path, help="also write the results to this file")
    args = parser.parse_args(argv)
    import tsvlab

    trees = {"this": tsvlab}
    with tempfile.TemporaryDirectory() as scratch:
        if args.against is not None:
            trees["other"] = load_against(args.against, Path(scratch))
        rows = table(trees, args.seed, args.repeat, args.number)
        print(f"min of {args.repeat} x {args.number} calls, us per call, seed {args.seed}")
        print(f"{'call':<18} {'d':>2} " + " ".join(f"{name:>9}" for name in trees)
              + ("    ratio" if len(trees) > 1 else ""))
        for row in rows:
            us = row["us"]
            line = f"{row['call']:<18} {row['d']:>2} " + " ".join(f"{us[name]:9.2f}" for name in trees)
            if len(trees) > 1:
                line += f" {us['this'] / us['other']:8.3f}"
            print(line)
        result = {"seed": args.seed, "repeat": args.repeat, "number": args.number, "table": rows}
        if args.against is not None:
            result["stream"] = ab(trees["this"], trees["other"], args.seed, args.rounds, args.passes)
            s = result["stream"]
            print(f"stream of {s['calls']} calls x {s['passes']} passes and {s['scenario_calls']} scenarios, "
                  f"{s['rounds']} rounds: median ratio "
                  f"{s['median_ratio']:.3f} (quartiles {s['quartiles'][0]:.3f}-{s['quartiles'][1]:.3f}), "
                  f"this tree won {s['wins']} of {s['rounds']}")
    if args.json is not None:
        args.json.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
