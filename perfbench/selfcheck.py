"""Fast self-check of the benchmark's own plumbing.

Runs the three pipelines at level 8 over a few dozen steps, untraced and
traced, with every check, and tests the independent check code against the
package and against deliberately broken inputs. Run from the root of a
source checkout:

    python3 perfbench/selfcheck.py

Prints one PASS/FAIL line per check and exits 1 if any fails.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
from pathlib import Path

import run

run._load_package()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from obcoupling import bench, coupling, fom, snapshots  # noqa: E402

LEVEL, TURN = 8, 0.5   # 44 steps
MODES = (LEVEL - 1) * LEVEL // 2   # every free DOF of a side: full bases
FAILURES = []


def expect(name: str, ok: bool, detail: str = ""):
    print(f"{'PASS' if ok else 'FAIL'} {name}{': ' + detail if detail else ''}")
    if not ok:
        FAILURES.append(name)


def small(w: workloads.Workload) -> workloads.Workload:
    return dataclasses.replace(w, name=f"selfcheck-{w.name}", level=LEVEL,
                               turn=TURN, state_modes=MODES, adjoint_modes=MODES)


def check_independent_builders():
    w = small(workloads.WORKLOADS["fom-fom-l32"])
    problem, ops = workloads.setup(w, 0.0)
    dec = problem.decomposition
    mesh = problem.mesh
    expect("seed 0 is the paper's initial condition",
           workloads.rotation_angles(0, 4) == [0.0] * 4
           and checks.bitwise_equal(problem.u0, bench.initial_condition(
               mesh.coords[:, 0], mesh.coords[:, 1])))
    angles = workloads.rotation_angles(5, 4)
    turned = workloads.make_problem(w, angles[0]).u0
    expect("other seeds turn the bodies a little, differently for each input",
           0 < np.abs(turned - problem.u0).max()
           and len(set(angles)) == 4
           and all(0 < abs(a) <= workloads.MAX_TURN for a in angles)
           and angles == workloads.rotation_angles(5, 4))
    mass = checks.side_mass(LEVEL)
    for side, op in zip((1, 2), ops):
        free = np.flatnonzero(checks.embed_side(np.ones(op.n_free), LEVEL, side)[:, 0])
        diff = abs(mass[free][:, free] - op.M).max()
        expect(f"Kronecker Q1 mass matches assembled mass, side {side}",
               diff <= 1e-17, f"max diff {diff:.1e}")
        expect(f"trace index matches the decomposition, side {side}",
               np.array_equal(checks.trace_index(LEVEL, side), dec.trace_free(side)))
    diff = abs(checks.interface_mass(LEVEL) - ops[0].M_g).max()
    expect("interface mass matches assembled control mass", diff <= 1e-17,
           f"max diff {diff:.1e}")

    traj = fom.monolithic_solve(problem, supg_on=True)
    split = snapshots.split_monolithic_snapshots(traj, dec)
    parts = checks.split_parent(traj.data[:, -1], LEVEL)
    ok = all(np.array_equal(checks.embed_side(split[f"state_{s}"].data[:, -1],
                                              LEVEL, s)[:, 0], parts[s - 1])
             for s in (1, 2))
    expect("parent split matches split_monolithic_snapshots", ok)
    rel = checks.relative_l2(split["state_1"].data[:, -1], split["state_2"].data[:, -1],
                             traj.data[:, -1], LEVEL)
    expect("relative L2 of the reference to itself is 0", rel == 0.0, f"{rel:.1e}")


def check_checks_catch_faults():
    w = small(workloads.WORKLOADS["gdra-rom-l32"])
    problem, ops = workloads.setup(w, 0.0)
    dec = problem.decomposition
    rng = np.random.default_rng(0)
    jump = rng.standard_normal(dec.n_control)
    mu_1 = coupling.adjoint_solve(ops[0], jump, 1)[:, None]
    mu_2 = coupling.adjoint_solve(ops[1], jump, 2)[:, None]
    good = checks.pair_defects(ops[0], ops[1], mu_1, mu_2, LEVEL)[0]
    expect("a true adjoint pair passes", good <= checks.PAIR_TOL, f"{good:.1e}")
    bad = checks.pair_defects(ops[0], ops[1], mu_1 * (1 + 1e-6), mu_2, LEVEL)[0]
    expect("a scaled adjoint pair fails", bad > checks.PAIR_TOL, f"{bad:.1e}")
    zero = checks.pair_defects(ops[0], ops[1], 0 * mu_1, 0 * mu_2, LEVEL)[0]
    expect("an empty adjoint pair fails", not zero <= checks.PAIR_TOL)

    data = rng.standard_normal((30, 12))
    u, s, _ = np.linalg.svd(data, full_matrices=False)
    ok = max(checks.pod_defects(data, u, s, (0, 5)))
    expect("an SVD basis passes the POD checks", ok <= checks.ECKART_YOUNG_TOL, f"{ok:.1e}")
    ortho, _ = checks.pod_defects(data, u * 1.001, s, (0, 5))
    expect("a scaled basis fails orthonormality", ortho > checks.ORTHO_TOL)
    _, ey = checks.pod_defects(data, u[:, ::-1], s, (5,))
    expect("a reordered basis fails Eckart-Young", ey > checks.ECKART_YOUNG_TOL)
    expect("bitwise_equal tells -0.0 from 0.0",
           not checks.bitwise_equal(np.zeros(3), -np.zeros(3)))


def check_tracer():
    tracer = tracing.Tracer()
    original = coupling.state_step
    with tracer.active():
        expect("tracer patches the lookup site", coupling.state_step is not original)
        with tracer.span("outer"):
            w = small(workloads.WORKLOADS["fom-fom-l32"])
            problem, ops = workloads.setup(w, 0.0)
            coupling.state_step(ops[0], np.zeros(ops[0].n_free), None, None, 1)
    expect("tracer restores every patched name", coupling.state_step is original
           and all(owner.__dict__[attr] is not None
                   and not hasattr(owner.__dict__[attr], "__wrapped__")
                   for owner, attr, _ in tracing.TARGETS))
    idx = tracing.SpanIndex(tracer.spans)
    ids = {s[0] for s in tracer.spans}
    expect("every parent link names a recorded span",
           all(p < 0 or p in ids for _, p, *_ in tracer.spans))
    expect("state step is a traced child of the outer span",
           list(idx.under("fom.state_step", "outer"))
           and list(idx.under("linalg.Factorization.solve", "fom.state_step")))
    expect("self time never exceeds total time",
           all(idx.self_time[n] <= idx.total[n] + 1e-12 for n in idx.total))


def check_pipelines(workdir: Path):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    expect("BENCHMARK.json names defined workloads only",
           {x["name"] for x in spec["workloads"]} <= set(workloads.WORKLOADS))
    expect("BENCHMARK.json lists the per-layer metrics",
           per_layer == {name for name, _, _ in layers.PER_LAYER})
    for w in workloads.WORKLOADS.values():
        for trace, seed in ((0, 0), (1, 3)):
            res = run.measure(small(w), seed, 0, bool(trace), workdir, log=lambda _: None)
            json.dumps(res)
            names = set(res["metrics"])
            want = per_layer if trace else e2e
            expect(f"{w.name} trace {trace}: correct, every metric, no failures",
                   res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
                   and names == want,
                   f"attempted {res['attempted']}, missing {sorted(want - names)}, "
                   f"extra {sorted(names - want)}")
            if trace:
                m = res["metrics"]
                expect(f"{w.name}: traced counts are consistent",
                       m["coupling.steps"]["value"]
                       == workloads.make_problem(small(w), 0.0).n_steps
                       and m["linalg.Factorization.solve.calls"]["value"] > 0
                       and (w.collection is None) == (m["snapshots.pairs"]["value"] == 0))


def main() -> int:
    check_independent_builders()
    check_checks_catch_faults()
    check_tracer()
    workdir = run.OUT_DIR / "selfcheck"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        check_pipelines(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
