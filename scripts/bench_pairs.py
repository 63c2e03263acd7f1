"""Alternating benchmark pairs of two trees, summarized per metric.

    python scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload cube3d \\
        --seed 0 --pairs 10 --seconds 20 --out pairs.json

Each pair runs ``perfbench/run.py --workload W --seed S --seconds X
--trace 0`` once in each tree, one after the other: the parent first in
even pairs (0, 2, ...), the change first in odd ones, so that a drift of
the host falls on both sides alike.  Each run's last output line is its
JSON result, whose ``metrics`` hold ``{"value", "unit"}`` per metric.

The output file holds both sides' results per pair and, per metric, the
median of each side, the parent's interquartile range, and the count of
pairs in which the change is better.  Which way is better is read from
the ``end_to_end`` entries of the change tree's ``BENCHMARK.json``
(lower for a metric it does not name).  A gain holds when the change's
median is better than the parent's by more than the parent's IQR.
Exits 1 when a run fails or is not ``correct``, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_tree(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` of ``tree``: its JSON result line."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: run.py exited with {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float]:
    """The first and third quartile (``statistics.quantiles``, inclusive
    method), or the one value twice."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric of the results in ``pairs`` (each ``{"parent": result,
    "change": result}``): both medians, the parent's IQR, the pairs in
    which the change is better (``better[name]`` is "lower" or "higher",
    lower by default), and whether the median gain exceeds the IQR."""
    names = sorted(set.intersection(*(
        set(side["metrics"]) for pair in pairs for side in pair.values())))
    out = {}
    for name in names:
        parent = [pair["parent"]["metrics"][name]["value"] for pair in pairs]
        change = [pair["change"]["metrics"][name]["value"] for pair in pairs]
        sign = -1.0 if better.get(name, "lower") == "higher" else 1.0
        q1, q3 = quartiles(parent)
        gain = sign * (statistics.median(parent) - statistics.median(change))
        out[name] = {
            "better": "higher" if sign < 0 else "lower",
            "parent_median": statistics.median(parent),
            "change_median": statistics.median(change),
            "parent_iqr": q3 - q1,
            "change_better_pairs": sum(sign * (p - c) > 0.0
                                       for p, c in zip(parent, change)),
            "pairs": len(pairs),
            "gain_exceeds_iqr": gain > q3 - q1,
        }
    return out


def directions(tree: Path) -> dict[str, str]:
    """``better`` per end-to-end metric of ``tree``'s BENCHMARK.json."""
    path = tree / "BENCHMARK.json"
    if not path.is_file():
        return {}
    return {m["name"]: m["better"]
            for m in json.loads(path.read_text()).get("end_to_end", [])}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    pairs = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {}
        for side in order:
            try:
                pair[side] = run_tree(trees[side], args.workload, args.seed,
                                      args.seconds)
            except RuntimeError as exc:
                print(exc, file=sys.stderr)
                return 1
        pairs.append({"first": order[0], **pair})
        print(f"pair {i}: " + "  ".join(
            f"{side} setup_s {pair[side]['metrics']['setup_s']['value']:.4f}"
            for side in ("parent", "change")
            if "setup_s" in pair[side]["metrics"]), flush=True)
    results = [{side: pair[side] for side in ("parent", "change")} for pair in pairs]
    summary = summarize(results, directions(trees["change"]))
    args.out.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "summary": summary, "pairs": pairs}, indent=1) + "\n")
    for name, s in summary.items():
        print(f"{name:<14} parent {s['parent_median']:.6g}  change "
              f"{s['change_median']:.6g}  parent IQR {s['parent_iqr']:.3g}  "
              f"change better in {s['change_better_pairs']}/{s['pairs']}")
    correct = all(side["correct"] for pair in results for side in pair.values())
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
