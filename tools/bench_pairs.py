"""Compare two checkouts on one benchmark workload, in alternating pairs.

    python3 tools/bench_pairs.py PARENT CHANGE --workload NAME
        [--seeds 11 12 13] [--pairs 10] [--seconds 25] [--trace 0|1]

PARENT and CHANGE are the roots of two checkouts.  Each pair runs
`perfbench/run.py` once in each, with the pair's seed (the seeds taken in
turn), and the two runs of a pair swap order from one pair to the next, so
that a slow stretch of the host falls on both sides alike.  A run that
exits nonzero, or prints no result line, counts as one with no metrics.

The output is one JSON object.  For each metric of the result lines (the
end-to-end metrics of `BENCHMARK.json` with `--trace 0`, the per-layer ones
with `--trace 1`) it holds each side's values, median and interquartile
range, and `wins`: the pairs in which the change reads better than the
parent, in the direction `BENCHMARK.json` gives (lower where it names
none).  It also holds each side's exit codes and its summed `failed` and
`attempted`.  It uses the standard library alone and writes nothing into
either checkout but what `perfbench/run.py` writes there itself.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def run(root: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One `perfbench/run.py` run in a checkout: its exit code, and its
    result line's metric values, failed and attempted counts."""
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    out = {"exit": done.returncode, "metrics": {}, "failed": None, "attempted": None}
    lines = done.stdout.strip().splitlines()
    if done.returncode == 0 and lines:
        result = json.loads(lines[-1])
        out["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
        out["failed"], out["attempted"] = result["failed"], result["attempted"]
    else:
        print(f"{root}: seed {seed} exited {done.returncode}: {done.stderr[-3000:]}",
              file=sys.stderr)
    return out


def spread(values: list) -> dict:
    """Median and interquartile range of a side's values."""
    if not values:
        return {"median": None, "iqr": None}
    if len(values) == 1:
        return {"median": values[0], "iqr": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "iqr": q3 - q1}


def directions(root: str, trace: int) -> dict:
    """Metric name -> "lower" or "higher", from the checkout's BENCHMARK.json."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m.get("better", "lower")
            for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="root of the parent checkout")
    parser.add_argument("change", help="root of the changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=[11, 12, 13])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    roots = dict(zip(SIDES, (os.path.abspath(args.parent), os.path.abspath(args.change))))
    better = directions(roots["change"], args.trace)

    runs = {side: [] for side in SIDES}
    for i in range(args.pairs):
        seed = args.seeds[i % len(args.seeds)]
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            runs[side].append(run(roots[side], args.workload, seed, args.seconds, args.trace))
        print(f"pair {i + 1}/{args.pairs} (seed {seed}) done", file=sys.stderr, flush=True)

    metrics = {}
    for name, direction in better.items():
        pairs = [(p["metrics"].get(name), c["metrics"].get(name))
                 for p, c in zip(runs["parent"], runs["change"])]
        entry = {"better": direction}
        for k, side in enumerate(SIDES):
            values = [pair[k] for pair in pairs if pair[k] is not None]
            entry[side] = {"values": values, **spread(values)}
        entry["wins"] = sum(1 for p, c in pairs if p is not None and c is not None
                            and (c < p if direction == "lower" else c > p))
        metrics[name] = entry
    print(json.dumps({
        "workload": args.workload, "seeds": args.seeds, "pairs": args.pairs,
        "seconds": args.seconds, "trace": args.trace, "metrics": metrics,
        **{side: {"exit": [r["exit"] for r in runs[side]],
                  "failed": sum(r["failed"] or 0 for r in runs[side]),
                  "attempted": sum(r["attempted"] or 0 for r in runs[side])}
           for side in SIDES},
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
