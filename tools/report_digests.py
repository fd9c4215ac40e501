"""Print the sha256 of every benchmark-workload verb's report.

    python3 tools/report_digests.py

It builds the three workloads of perfbench/workloads.py at seeds 1-3 and
runs each verb in a fresh `python -m twistn2.cli` process of this checkout,
under PYTHONHASHSEED=0.  It prints one line per run (workload, seed, argv,
exit code, sha256 of stdout) and then one combined digest of those lines.
Two checkouts print the same combined digest exactly when every run exits
with the same code and prints the same bytes, so it gates a refactor that
must leave every report alone.  It takes no options and imports nothing
outside the standard library and that workloads module.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True  # leave the benchmark's directory as it is
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import workloads  # noqa: E402

SEEDS = (1, 2, 3)


def main() -> int:
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.path.join(ROOT, "src"))
    combined = hashlib.sha256()
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            for inv in workloads.build(name, seed):
                done = subprocess.run([sys.executable, "-m", "twistn2.cli", *inv.argv],
                                      cwd=ROOT, env=env, capture_output=True)
                line = (f"{name} {seed} {' '.join(inv.argv)} exit={done.returncode} "
                        f"sha256={hashlib.sha256(done.stdout).hexdigest()}")
                print(line, flush=True)
                combined.update(line.encode() + b"\n")
    print(f"combined sha256={combined.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
