"""In-process costs of the small-system calls: min-of-N microseconds per call, and an A/B against another tree.

Every timed call is an op of the benchmark's ``small-systems`` workload
(``bench/workloads.SmallSystems``), or a constructor called on one of that
workload's pool instances. One period of the workload's op sequence at
``--seed`` (500 ops in its own order: the eight query kinds at d = 2, 3, 4, 6
and 8, and one of its five scenarios every 100th op) is built once per tree.
Before any timing, every op's result must pass that op's own check (the
benchmark's reference), and with two trees both must give the same result
bit for bit, or the script exits 1.

The table gives, at d = 2, 4 and 8, the fastest of ``--repeat`` timings of
``--number`` calls each for the first op of each query kind at that d in the
period (``abl d=2`` and so on), and for the constructors (``Ket``, ``Bra``,
``Operator``, ``Operator`` plus its spectrum, ``TwoStateVector``) on the pool
instance of the first ``abl`` op at that d::

    PYTHONPATH=src python tests/costs.py

With ``--against DIR`` the package ``DIR/tsvlab`` (the ``src`` directory of
another checkout) is copied to a temporary package and imported beside this
one. The table then gives both trees, timed in turns, and the period runs ``--rounds``
times, ``--passes`` times per round. Each op runs on both trees back to
back, the tree that goes first alternating from op to op, so the ratio
stands for exactly the ops that ``small-systems`` times. The script prints
the median over rounds of this tree's round time over the other's and the
number of rounds this tree won::

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

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from workloads import SmallSystems

CONSTRUCTS = ("Ket", "Bra", "Operator", "Operator+spectrum", "TwoStateVector")
TABLE_DIMS = (2, 4, 8)


def construct(tl, name: str, inst):
    """A zero-argument function building one ``name`` from the pool instance ``inst`` with the package ``tl``."""
    if name == "Ket":
        return lambda: tl.Ket(inst.pre)
    if name == "Bra":
        return lambda: tl.Bra(inst.post)
    if name == "Operator":
        return lambda: tl.Operator(inst.matrix)
    if name == "Operator+spectrum":
        return lambda: tl.Operator(inst.matrix).eigenvalues
    ket, bra = tl.Ket(inst.pre), tl.Bra(inst.post)
    return lambda: tl.TwoStateVector(ket, bra)


def min_us(fns: dict, repeat: int, number: int) -> dict:
    """Fastest of ``repeat`` timings of ``number`` calls of each function, in microseconds per call.

    The functions take turns, one timing each, so a change of the host's load hits all alike; garbage
    collection is off."""
    best = dict.fromkeys(fns, float("inf"))
    gc.disable()
    try:
        for _ in range(repeat):
            for name, fn in fns.items():
                start = time.perf_counter()
                for _ in range(number):
                    fn()
                best[name] = min(best[name], time.perf_counter() - start)
    finally:
        gc.enable()
    return {name: t / number * 1e6 for name, t in best.items()}


def fingerprint(result) -> str:
    """``repr`` of a result with every array replaced by its bytes, so two trees compare bit for bit."""
    if hasattr(result, "post_state"):
        return repr((result.outcome, result.post_state.amplitudes.tobytes(), result.probability))
    return repr(result)


def checked(tree: str, ops: list) -> list:
    """The fingerprint of each op's result, which must pass the op's own check; exits 1 on the first that does not."""
    prints = []
    for op in ops:
        try:
            result = op.run()
            op.check(result)
        except Exception as exc:
            raise SystemExit(f"error: {tree} tree, op {op.label!r}: {type(exc).__name__}: {exc}")
        prints.append(fingerprint(result))
    return prints


def load_against(directory: Path, scratch: Path):
    """Import ``directory/tsvlab`` as the package ``tsvlab_against``, from a copy in ``scratch``."""
    source = directory / "tsvlab"
    if not (source / "__init__.py").exists():
        raise SystemExit(f"error: {source} is not a tsvlab package")
    shutil.copytree(source, scratch / "tsvlab_against", ignore=shutil.ignore_patterns("__pycache__"))
    sys.path.insert(0, str(scratch))
    return importlib.import_module("tsvlab_against")


def table(trees: dict, pool: dict, periods: dict, repeat: int, number: int) -> list:
    first = {}
    for i, op in enumerate(periods["this"]):
        first.setdefault(op.label, i)
    rows = []
    for d in TABLE_DIMS:
        inst = pool[(d, "abl")][0]  # the first abl op at d reads the first of its pool
        calls = {name: {tree: construct(tl, name, inst) for tree, tl in trees.items()} for name in CONSTRUCTS}
        for query in SmallSystems.QUERIES:
            calls[query] = {tree: ops[first[f"{query} d={d}"]].run for tree, ops in periods.items()}
        for name, fns in calls.items():
            rows.append({"call": name, "d": d, "us": min_us(fns, repeat, number)})
    return rows


def ab(periods: dict, rounds: int, passes: int) -> dict:
    """Median per-round ratio of the round's time on this tree over the other, and this tree's wins."""
    pairs = list(zip(periods["this"], periods["other"])) * passes

    def one_round(r):
        # op by op, the tree that goes first alternating, so a change of the host's load hits both alike
        took = [0.0, 0.0]
        for i, pair in enumerate(pairs):
            for k in ((0, 1) if (r + i) % 2 == 0 else (1, 0)):
                start = time.perf_counter()
                pair[k].run()
                took[k] += time.perf_counter() - start
        return took[0] / took[1]

    gc.disable()
    try:
        ratios = [one_round(r) for r in range(rounds)]
    finally:
        gc.enable()
    quartiles = statistics.quantiles(ratios, n=4)
    labels = [op.label for op in periods["this"]]
    return {"labels": labels, "rounds": rounds, "passes": passes,
            "scenario_ops": sum(label.startswith("scenario ") for label in labels),
            "median_ratio": statistics.median(ratios), "quartiles": [quartiles[0], quartiles[2]],
            "wins": sum(x < 1.0 for x in ratios)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, help="src directory of another tree holding a tsvlab package")
    parser.add_argument("--seed", type=int, default=1, help="seed of the small-systems workload (default 1)")
    parser.add_argument("--repeat", type=int, default=25, help="timings per table entry; the fastest is kept")
    parser.add_argument("--number", type=int, default=200, help="calls per timing")
    parser.add_argument("--rounds", type=int, default=60, help="interleaved rounds of the A/B")
    parser.add_argument("--passes", type=int, default=4, help="runs of the 500-op period per round (default 4)")
    parser.add_argument("--json", type=Path, help="also write the results to this file")
    args = parser.parse_args(argv)
    import tsvlab

    trees = {"this": tsvlab}
    with tempfile.TemporaryDirectory() as scratch:
        if args.against is not None:
            trees["other"] = load_against(args.against, Path(scratch))
        workloads = {tree: SmallSystems(tl, args.seed, Path(scratch)) for tree, tl in trees.items()}
        periods = {tree: list(itertools.islice(w.ops(), w.period)) for tree, w in workloads.items()}
        prints = {tree: checked(tree, ops) for tree, ops in periods.items()}
        if len(trees) > 1 and prints["this"] != prints["other"]:
            differ = sum(a != b for a, b in zip(prints["this"], prints["other"]))
            raise SystemExit(f"error: the trees differ on {differ} of {len(prints['this'])} ops")
        rows = table(trees, workloads["this"].pool, periods, args.repeat, args.number)
        print(f"min of {args.repeat} x {args.number} calls, us per call, seed {args.seed}")
        print(f"{'call':<18} {'d':>2} " + " ".join(f"{tree:>9}" for tree in trees)
              + ("    ratio" if len(trees) > 1 else ""))
        for row in rows:
            us = row["us"]
            line = f"{row['call']:<18} {row['d']:>2} " + " ".join(f"{us[tree]:9.2f}" for tree in trees)
            if len(trees) > 1:
                line += f" {us['this'] / us['other']:8.3f}"
            print(line)
        result = {"seed": args.seed, "repeat": args.repeat, "number": args.number, "table": rows}
        if args.against is not None:
            result["stream"] = s = ab(periods, args.rounds, args.passes)
            print(f"period of {len(s['labels'])} small-systems ops ({s['scenario_ops']} scenarios) x {s['passes']} "
                  f"passes, {s['rounds']} rounds: median ratio "
                  f"{s['median_ratio']:.3f} (quartiles {s['quartiles'][0]:.3f}-{s['quartiles'][1]:.3f}), "
                  f"this tree won {s['wins']} of {s['rounds']}")
    if args.json is not None:
        args.json.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
