"""Interleaved A/B wall-clock comparison of a parent revision and this tree.

Run from the repository root::

    python3 benchmarks/wallbench_ab.py --parent HEAD~1 --workload cold-adapt \\
        --seeds 1 2 3 4 5 6 7 8 9 10

or ``make wallbench-ab PARENT=<rev> WORKLOAD=<name> SEEDS="1 2 3"``.

The parent's committed files are exported (``git archive``) into a
temporary directory, so the comparison sees exactly what that commit
holds.  For each seed, ``wallbench/run.py --trace 0`` runs once on each
tree at ``BENCHMARK.json``'s ``run_seconds``; the side that runs first
alternates from seed to seed, so a drift in machine speed lands on both
sides.  The report gives, per end-to-end metric of ``BENCHMARK.json``,
each side's median and quartiles, the change/parent ratio of medians,
how many pairs the change won, and whether the change's median lies
beyond the parent's interquartile range.  Last, it says whether every
run was ``correct`` with 0 failed adaptations.

The runner only reads ``wallbench`` output; it never edits
``wallbench/`` or ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_order(index: int) -> Tuple[str, str]:
    """Which side runs first in pair *index*: the parent on even pairs."""
    return SIDES if index % 2 == 0 else SIDES[::-1]


def export_revision(rev: str, dest: str) -> None:
    """Write the committed files of *rev* into the directory *dest*."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def run_wallbench(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run in *tree*; its final JSON line plus the exit code."""
    proc = subprocess.run(
        [sys.executable, "wallbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": None,
                  "metrics": {}, "error": proc.stderr.strip()[-500:]}
    result["exit_code"] = proc.returncode
    return result


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(lower quartile, median, upper quartile) of *values*."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def metric_value(run: dict, name: str) -> Optional[float]:
    return run.get("metrics", {}).get(name, {}).get("value")


def summarize(pairs: Sequence[Dict[str, dict]], metrics: Sequence[dict]) -> List[dict]:
    """Per end-to-end metric: both sides' quartiles, ratio and wins.

    *pairs* holds one ``{"parent": run, "change": run}`` per seed.  A pair
    counts toward a metric only when both runs reported it.
    """
    rows = []
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        both = [(metric_value(p["parent"], name), metric_value(p["change"], name))
                for p in pairs]
        both = [(a, b) for a, b in both if a is not None and b is not None]
        if not both:
            rows.append({"metric": name, "pairs": 0})
            continue
        parent = quartiles([a for a, _ in both])
        change = quartiles([b for _, b in both])
        wins = sum((b > a) if higher else (b < a) for a, b in both)
        beyond_iqr = change[1] > parent[2] if higher else change[1] < parent[0]
        rows.append({
            "metric": name, "better": metric["better"], "bound": metric["bound"],
            "pairs": len(both), "parent": parent, "change": change,
            "ratio": change[1] / parent[1] if parent[1] else None,
            "wins": wins, "beyond_parent_iqr": beyond_iqr,
        })
    return rows


def all_correct(pairs: Sequence[Dict[str, dict]], side: str) -> bool:
    return all(p[side].get("correct") is True and p[side].get("failed") == 0
               for p in pairs)


def render(workload: str, seeds: Sequence[int], rows: Sequence[dict],
           pairs: Sequence[Dict[str, dict]]) -> str:
    def cell(q):
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    lines = [f"{workload}: {len(pairs)} interleaved pairs, seeds "
             f"{' '.join(map(str, seeds))}",
             f"{'metric':20s} {'parent':>28s} {'change':>28s} {'ratio':>7s} "
             f"{'wins':>6s}  beyond-IQR"]
    for row in rows:
        if not row["pairs"]:
            lines.append(f"{row['metric']:20s} n/a")
            continue
        ratio = "n/a" if row["ratio"] is None else f"{row['ratio']:.3f}"
        lines.append(f"{row['metric']:20s} {cell(row['parent']):>28s} "
                     f"{cell(row['change']):>28s} {ratio:>7s} "
                     f"{row['wins']:>2d}/{row['pairs']:<3d}  "
                     f"{'yes' if row['beyond_parent_iqr'] else 'no'}")
    for side in SIDES:
        lines.append(f"{side}: every run correct with 0 failed: "
                     f"{'yes' if all_correct(pairs, side) else 'NO'}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--json", help="also write every run and the summary here")
    args = parser.parse_args(argv)

    bench = load_benchmark()
    seconds = bench["run_seconds"]
    trees = {"change": ROOT}
    pairs: List[Dict[str, dict]] = []
    with tempfile.TemporaryDirectory(prefix="wallbench-ab-") as parent_tree:
        export_revision(args.parent, parent_tree)
        trees["parent"] = parent_tree
        for index, seed in enumerate(args.seeds):
            pair: Dict[str, dict] = {}
            for side in run_order(index):
                pair[side] = run_wallbench(trees[side], args.workload, seed, seconds)
                pair[side]["seed"] = seed
                print(f"seed {seed} {side}: correct={pair[side].get('correct')} "
                      f"failed={pair[side].get('failed')} adapt_per_s="
                      f"{metric_value(pair[side], 'adapt_per_s')}", flush=True)
            pair["first"] = run_order(index)[0]
            pairs.append(pair)

    rows = summarize(pairs, bench["end_to_end"])
    print(render(args.workload, args.seeds, rows, pairs))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seconds": seconds,
                       "parent": args.parent, "pairs": pairs, "summary": rows},
                      fh, indent=1)
    return 0 if all(all_correct(pairs, side) for side in SIDES) else 1


if __name__ == "__main__":
    sys.exit(main())
