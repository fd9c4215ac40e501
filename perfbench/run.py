"""Benchmark entry point for the twistn2 verification verbs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every pass runs in a fresh interpreter
(perfbench/child.py), one at a time, because the action, context,
determinant and root caches and the symbol registry are process-wide: a
user pays their cold cost on every invocation, and a warm second pass in
the same process would hide it.

--trace 0 measures set-up, then starts passes of the workload until
--seconds have gone by, and reports the medians of the end-to-end metrics.
--trace 1 runs one untraced and one traced pass, checks that their reports
are byte-identical, and reports the per-layer metrics of the traced pass.  The last line of output is the result object;
the line before it holds the per-pass details.  Exit code 1, with no result
line, means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
SPANS_DIR = os.path.join(HERE, "out")

sys.path.insert(0, HERE)
import workloads  # noqa: E402

SETUP_PROBES = 9
# Set-up time is reported at a fixed host speed: the one at which the
# reference kernel, run back to back right after the import, takes this
# long.  The host's speed moves raw set-up time by 30 % between runs; scaled
# by a kernel timed in the same process, the spread of nine-probe medians
# fell from 29 % to 5 % (IQR / median).
SETUP_KERNEL_S = 0.2
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("TWISTN2_WORKERS", None)  # a worker pool would oversubscribe the cores
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(*args) -> dict:
    t0 = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, CHILD, *args], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {args} ran over {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"child {args} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - t0
    return result


def run_pass(workload: str, seed: int, traced: bool) -> dict:
    os.makedirs(SPANS_DIR, exist_ok=True)
    spans = os.path.join(SPANS_DIR, f"spans-{workload}.bin")
    return run_child("pass", workload, str(seed), "1" if traced else "0", spans)


def measure(workload: str, seed: int, seconds: float) -> tuple:
    run_child("probe")  # compiles bytecode on a fresh checkout; not timed
    probes = [run_child("probe") for _ in range(SETUP_PROBES)]
    setups = [p["setup_s"] * SETUP_KERNEL_S / p["kernel_s"] for p in probes]
    passes = []
    start = time.monotonic()
    while not passes or time.monotonic() - start < seconds:
        passes.append(run_pass(workload, seed, traced=False))
    metrics = {name: statistics.median(p[name] for p in passes)
               for name in ("cpu_ref", "slowest_verb_ref", "peak_rss_mb")}
    metrics["setup_s"] = statistics.median(setups)
    return metrics, passes, {"setup_probes_s": setups,
                             "setup_probes_raw_s": [p["setup_s"] for p in probes]}


def measure_layers(workload: str, seed: int) -> tuple:
    plain = run_pass(workload, seed, traced=False)
    traced = run_pass(workload, seed, traced=True)
    metrics = dict(traced["layers"])
    metrics["modules.violations"] = sum(v["violations"] for v in traced["verbs"])
    # in reference-kernel units: host drift between the two passes cancels
    metrics["trace.overhead_ratio"] = traced["cpu_ref"] / plain["cpu_ref"]
    return metrics, [plain, traced], {}


def report_mismatches(passes: list) -> list:
    """Verbs whose report in a later pass differs from the first pass's;
    in a traced run the later pass is the traced one."""
    first = passes[0]["verbs"]
    return [f"{' '.join(v['argv'])}: report differs from the first pass"
            for p in passes[1:] for v, v0 in zip(p["verbs"], first)
            if v["digest"] != v0["digest"]]


def selected(metrics: dict, wanted: list) -> dict:
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if not os.path.isdir(os.path.join(ROOT, "src", "twistn2")):
        # measure the checkout's own source, never an installed copy
        print(f"benchmark failed: no src/twistn2 under {ROOT}", file=sys.stderr)
        return 1
    try:
        if args.trace:
            metrics, passes, extra = measure_layers(args.workload, args.seed)
        else:
            metrics, passes, extra = measure(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    wrong = [f"{' '.join(v['argv'])}: {w}" for p in passes for v in p["verbs"]
             for w in v["wrong"]]
    wrong += report_mismatches(passes)
    verbs = len(passes[0]["verbs"])
    # oracle assertions on every verb of every pass, plus one report
    # comparison per verb of each pass after the first
    attempted = verbs * (len(passes) * workloads.ASSERTIONS_PER_VERB + len(passes) - 1)
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": passes[0]["python"], "nproc": passes[0]["nproc"],
        "passes": [{"wall_s": p["wall_s"], "cpu_ref": p["cpu_ref"], "ref_s": p["ref_s"],
                    "kernel_before_s": p["kernel_before_s"],
                    "kernel_after_s": p["kernel_after_s"],
                    "slowest_verb_ref": p["slowest_verb_ref"],
                    "slowest_verb": p["slowest_verb"],
                    "axiom_checks": sum(v["checks"] for v in p["verbs"])} for p in passes],
        "wrong": wrong, **extra,
    }
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": len(wrong),
        "metrics": selected(metrics, spec["per_layer" if args.trace else "end_to_end"]),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
