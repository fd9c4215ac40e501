"""One benchmark pass, in a fresh interpreter.

    python3 perfbench/child.py probe
    python3 perfbench/child.py pass WORKLOAD SEED TRACE SPANS_PATH

`probe` imports `twistn2.cli`, times the reference kernel and exits; `pass`
runs the workload's verbs through `twistn2.cli.main(argv)`, checks every
outcome, and measures them.  Either prints one JSON line, which carries
`ready`, the `time.monotonic()` reading taken right after the import, so
the parent can time interpreter start-up plus import.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))
import twistn2.cli  # noqa: E402  (set-up ends with this import)

READY = time.monotonic()

import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

# Reference kernel: stdlib work of the kind the verbs do, with no twistn2
# code: sparse polynomial products over Fraction, held as dicts from
# exponent tuples to coefficients.  One sample multiplies two fixed
# polynomials of 24 and 12 terms (~1.6 ms on a 2-core host); the reference
# kernel is REF_SAMPLES samples' work (~0.3 s).  Over repeated passes of one
# workload this shape tracked the verbs' CPU time twice as closely as a flat
# Fraction/dict loop did (spread 1.2-1.6 % against 2.7 %).
REF_SAMPLES = 200
MIN_OWN_SAMPLES = 5
_P1 = {(i % 4, i // 4 % 3, i // 12): Fraction(i % 5 + 1, i % 3 + 1) for i in range(24)}
_P2 = {(i % 3, i // 3 % 2, i // 6): Fraction(i % 7 - 3, i % 4 + 1) for i in range(12)}


def kernel_sample() -> int:
    """One sample, with the cyclic collector held off: a collection that
    starts inside it would scan the verbs' heap and bill the kernel."""
    collecting = gc.isenabled()
    gc.disable()
    out: dict = {}
    for e1, c1 in _P1.items():
        for e2, c2 in _P2.items():
            key = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
            acc = out.get(key)
            new = c1 * c2 if acc is None else acc + c1 * c2
            if new:
                out[key] = new
            elif acc is not None:
                del out[key]
    if collecting:
        gc.enable()
    return len(out)


def kernel_block(samples: int) -> float:
    """CPU seconds of one reference kernel, from `samples` samples run back to back."""
    t0 = time.process_time()
    for _ in range(samples):
        kernel_sample()
    return (time.process_time() - t0) / samples * REF_SAMPLES


class DriftSampler:
    """Runs one kernel sample every PERIOD seconds while the verbs run.

    The host's speed moves by a quarter within a second, so a kernel run
    only before and after the verbs misses most of the drift the verbs see.
    Sampling from a SIGALRM handler spreads the samples evenly over the
    verbs.  The handler's own time is subtracted from each verb.  (Under
    ITIMER_PROF the process CPU clock reads frozen inside the handler.)
    """

    PERIOD = 0.025

    def __init__(self):
        self.costs: list = []   # CPU seconds of each sample
        self.spent_cpu = 0.0
        self.spent_wall = 0.0

    def _tick(self, signum, frame):
        w0, c0 = time.perf_counter(), time.process_time()
        kernel_sample()
        c1 = time.process_time()
        self.costs.append(c1 - c0)
        self.spent_cpu += time.process_time() - c0
        self.spent_wall += time.perf_counter() - w0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


class SweepProbe:
    """Records (checks, violations) of every axiom sweep, for the oracle."""

    def __init__(self):
        self.sweeps: list = []

    def install(self):
        def wrap(fn):
            def axiom_sweep(*args, **kwargs):
                rep = fn(*args, **kwargs)
                self.sweeps.append((rep.checks, len(rep.violations)))
                return rep
            return axiom_sweep

        tracer.wrap_bindings([("modules", "axiom_sweep")], wrap)
        return self


def run_verb(inv, sampler, probe) -> dict:
    out, err = io.StringIO(), io.StringIO()
    first_sample, spent_cpu, spent_wall = (len(sampler.costs), sampler.spent_cpu,
                                           sampler.spent_wall)
    probe.sweeps = []
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = twistn2.cli.main(list(inv.argv))
    except Exception:  # a crash is a wrong outcome, not a benchmark failure
        code = None
        err.write(traceback.format_exc())
    c1, w1 = time.process_time(), time.perf_counter()
    text = out.getvalue()
    wrong = workloads.check_outcome(inv, code, text, probe.sweeps)
    return {
        "argv": list(inv.argv),
        "exit": code,
        "cpu": (c1 - c0) - (sampler.spent_cpu - spent_cpu),
        "wall": (w1 - w0) - (sampler.spent_wall - spent_wall),
        "samples": sampler.costs[first_sample:],
        "checks": sum(c for c, _ in probe.sweeps),
        "violations": sum(v for _, v in probe.sweeps),
        "wrong": wrong,
        "stderr": err.getvalue()[-2000:] if wrong else "",
        "digest": hashlib.sha256(text.encode()).hexdigest(),
    }


def end_to_end(verbs: list) -> dict:
    """Verb time in reference-kernel units.

    Each verb's CPU time is divided by the mean of the kernel samples taken
    while it ran, so drift within a pass cancels verb by verb.  A verb with
    fewer than MIN_OWN_SAMPLES samples uses the mean over the whole pass.
    """
    ref_s = statistics.fmean(c for v in verbs for c in v["samples"]) * REF_SAMPLES

    def verb_ref(v):
        own = v["samples"]
        own_ref_s = statistics.fmean(own) * REF_SAMPLES if len(own) >= MIN_OWN_SAMPLES else ref_s
        return v["cpu"] / own_ref_s

    refs = [verb_ref(v) for v in verbs]
    slowest = max(range(len(verbs)), key=refs.__getitem__)
    return {
        "ref_s": ref_s,
        "cpu_ref": sum(refs),
        "wall_s": sum(v["wall"] for v in verbs),
        "slowest_verb_ref": refs[slowest],
        "slowest_verb": " ".join(verbs[slowest]["argv"][:-2]),
    }


def run_pass(workload: str, seed: int, traced: bool, spans_path: str) -> dict:
    invocations = workloads.build(workload, seed)
    probe = SweepProbe().install()
    trace = tracer.Tracer().install() if traced else None
    kernel_before = kernel_block(50)
    with DriftSampler() as sampler:
        verbs = [run_verb(inv, sampler, probe) for inv in invocations]
    kernel_after = kernel_block(50)
    result = {
        "verbs": verbs,
        "kernel_before_s": kernel_before,
        "kernel_after_s": kernel_after,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **end_to_end(verbs),
    }
    if trace is not None:
        result["layers"] = trace.metrics()
        trace.write_spans(spans_path)
    return result


def main(argv) -> None:
    result = {"ready": READY, "python": sys.version.split()[0], "nproc": os.cpu_count()}
    if argv[0] == "probe":
        result["kernel_s"] = kernel_block(60)
    if argv[0] == "pass":
        workload, seed, traced, spans_path = argv[1:5]
        result.update(run_pass(workload, int(seed), traced == "1", spans_path))
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
