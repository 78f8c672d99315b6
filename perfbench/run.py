"""Stage-by-stage benchmark of the coupled solver.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload fom-fom-l32 --seed 0 --seconds 60 --trace 0

Each run repeats whole rounds of one workload's pipeline within --seconds,
cycling over the inputs the seed makes, and reports each stage time as the
mean of all its timed passes (set-up: the median; see README.md for why).
With --trace 0 it prints the end-to-end metrics; with --trace 1 it adds one
traced round and prints the per-layer metrics and the tracing overhead. The
last line of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"}. Lines before it hold the run record and every check.
``--workload all`` runs the three workloads one after another, each in its
own process.
"""

from __future__ import annotations

import os

# One BLAS thread, fixed before numpy loads its BLAS, so that a run never
# uses more than the MGD1 pool's 2 worker threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import ctypes  # noqa: E402

# Fix glibc's mmap threshold at its initial 128 KiB. Left dynamic, it rises
# after the first large frees and sends later arrays to the heap, where
# fragmentation moves peak_rss_mb by up to 10% from run to run.
M_MMAP_THRESHOLD = -3
_mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
if _mallopt is not None:
    _mallopt(M_MMAP_THRESHOLD, 128 * 1024)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = Path(".perfbench")   # run outputs, inside the checkout

# (metric, unit) printed by an untraced run, from a round's stage times.
END_TO_END = [("setup_s", "s"), ("reference_s", "s"), ("couple_s", "s"),
              ("total_s", "s")]


def _load_package():
    """Put the checkout's src/ first on the path; refuse to run without it."""
    src = ROOT / "src"
    if not (src / "obcoupling" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {src / 'obcoupling'}; "
                 "run from the root of a source checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))


def _blas_threads() -> list[dict]:
    """OpenBLAS thread counts of the libraries loaded in this process."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return []
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line and line.split()[-1].startswith("/")})
    found = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            func = getattr(handle, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                found.append({"library": Path(lib).name, "threads": func()})
                break
    return found


def _git_sha() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_record(workload: str, seed: int, seconds: int, trace: int) -> dict:
    import platform

    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(), "git_sha": _git_sha(),
    }


def measure(w, seed: int, seconds: float, trace: bool, workdir: Path,
            log=print) -> dict:
    """Run whole rounds within `seconds`, then one traced round if asked.

    Round i solves input i mod w.inputs; every input gets at least one round.
    A round starts only if, at the length of the last one, it ends within
    `seconds`; a traced run also keeps room for its traced round, taken as
    twice an untraced one.
    """
    import workloads
    angles = workloads.rotation_angles(seed, w.inputs)
    rounds = []
    reserve = 3 if trace else 1   # round lengths kept free at the end
    last = 0.0
    start = time.perf_counter()
    while (len(rounds) < len(angles)
           or time.perf_counter() - start + reserve * last < seconds):
        angle = angles[len(rounds) % len(angles)]
        begun = time.perf_counter()
        rounds.append(workloads.run_round(w, angle, workdir))
        last = time.perf_counter() - begun
        log(json.dumps({"round": len(rounds), "angle": angle,
                        "times": rounds[-1].times, "counts": rounds[-1].counts,
                        "checks": rounds[-1].checks}))
    if trace:
        import layers
        trace_path = workdir.parent / f"trace-{w.name}-seed{seed}.json.gz"
        traced, metrics = layers.traced_round(w, angles[0], workdir, rounds,
                                              trace_path)
        rounds.append(traced)
        log(json.dumps({"round": "traced", "times": traced.times,
                        "counts": traced.counts, "checks": traced.checks}))
    else:
        times = workloads.stage_times(rounds, w.inputs)
        metrics = {name: {"value": times[name[:-2]], "unit": unit}
                   for name, unit in END_TO_END}
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["peak_rss_mb"] = {"value": peak_mb, "unit": "MB"}
    for name, ok, detail in (c for r in rounds for c in r.checks):
        if not ok:
            log(f"FAILED check {name}: {detail}")
    return {
        "correct": all(ok for r in rounds for _, ok, _ in r.checks),
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }


def _run_all(args) -> int:
    """Each workload in its own process, one after another."""
    import workloads
    code = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        code = max(code, subprocess.run(cmd).returncode)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _load_package()
    import workloads
    if args.workload == "all":
        return _run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)} or all")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    print(json.dumps({"run_record": run_record(args.workload, args.seed,
                                               args.seconds, args.trace)}))
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        result = measure(workloads.WORKLOADS[args.workload], args.seed,
                         args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
