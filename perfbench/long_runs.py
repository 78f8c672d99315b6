"""The two long level-64 runs, measured once and kept out of every workload.

    python3 perfbench/long_runs.py

Runs the full revolution (T = 2 pi, 5598 steps), one round each and with
every check:

- ``fom-fom-l64``: the full-order coupled run at the paper's tolerances
  (``delta=1e-16``, ``tol=1e-14``), checked against gate 1's bound;
- ``mgd-rom-l64-paper-tol``: the ``mgd-rom-l64`` pipeline with its ROM-ROM
  100/50 run at the paper's tolerances instead of the timing study's,
  checked against gate 2's bound.

Prints one JSON line per run with its stage times, counts and checks.
"""

from __future__ import annotations

import json
import shutil
import sys

import run

run._load_package()

import workloads  # noqa: E402

LONG_RUNS = [
    workloads.Workload("fom-fom-l64", 64, None, workloads.PAPER, 1e-6),
    workloads.Workload("mgd-rom-l64-paper-tol", 64, "mgd", workloads.PAPER, 1e-5),
]


def main() -> int:
    workdir = run.OUT_DIR / "long-runs"
    workdir.mkdir(parents=True, exist_ok=True)
    ok = True
    try:
        for w in LONG_RUNS:
            r = workloads.run_round(w, 0.0, workdir)
            ok = ok and r.failed == 0
            print(json.dumps({
                "run": w.name, "times": r.times,
                "total": sum(r.times.values()), "counts": r.counts,
                "trials_per_step": r.counts["trials"] / r.counts["steps"],
                "failed": r.failed, "checks": r.checks}), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
