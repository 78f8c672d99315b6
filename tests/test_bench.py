import json
import re

import numpy as np
import pytest

from obcoupling import assembly, bench, coupling, fom, linalg, snapshots
from obcoupling.errors import InputError


def test_initial_condition_features():
    # far field is numerically zero
    assert bench.initial_condition(np.array([0.9]), np.array([0.9]))[0] < 1e-30
    # cone apex reaches 1 (up to the Gaussian tail, ~1.4e-11 at that point)
    apex = bench.initial_condition(np.array([0.5]), np.array([0.25]))[0]
    assert abs(apex - 1.0) < 1e-9
    # slot cuts through the cylinder center line
    slot = bench.initial_condition(np.array([0.5]), np.array([0.75]))[0]
    assert slot < 1e-9
    # cylinder body away from the slot
    body = bench.initial_condition(np.array([0.6]), np.array([0.75]))[0]
    assert abs(body - 1.0) < 1e-9


def test_rotation_field_is_solid_body():
    x = np.array([0.5, 1.0, 0.25])
    y = np.array([0.5, 0.5, 0.5])
    ax, ay = bench.rotation_field(x, y)
    np.testing.assert_allclose(ax, [0.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(ay, [0.0, 0.5, -0.25], atol=1e-15)


def test_default_dt_scaling():
    assert bench.default_dt(64) == 1.122398e-3
    assert bench.default_dt(32) == 1.122398e-3 * 4.0
    assert bench.default_dt(128) == pytest.approx(1.122398e-3 / 4.0)


def test_step_counts_match_rotation_period():
    for level, steps in ((64, 5598), (32, 1400), (8, 87)):
        prob = bench.solid_body_rotation_problem(level)
        assert prob.n_steps == steps
        assert prob.mesh.nx == level and prob.mesh.ny == level


def test_problem_validation():
    with pytest.raises(ValueError):
        bench.solid_body_rotation_problem(7)
    with pytest.raises(ValueError):
        bench.solid_body_rotation_problem(2)


def metric_setup(level=8):
    prob = bench.solid_body_rotation_problem(level, nu=1e-3)
    dec = prob.decomposition
    ops = tuple(assembly.subdomain_operators(dec, s, nu=prob.nu, dt=prob.dt,
                                             advection=prob.a, supg_on=True)
                for s in (1, 2))
    rng = np.random.default_rng(3)
    ref = tuple(rng.standard_normal(ops[i].n_free) for i in range(2))
    return ops, ref


def test_relative_errors_zero_for_identical_fields():
    ops, ref = metric_setup()
    errs = bench.relative_errors(ops[0], ops[1], ref[0], ref[1], ref[0], ref[1])
    assert errs["rel_l2"] == 0.0
    assert errs["rel_h1"] == 0.0
    assert errs["rel_h1_semi"] == 0.0


def test_relative_errors_scale_invariance():
    ops, ref = metric_setup()
    # a 1% perturbation of the reference gives exactly 0.01 in every norm
    errs = bench.relative_errors(ops[0], ops[1], 1.01 * ref[0], 1.01 * ref[1],
                                 ref[0], ref[1])
    for key in ("rel_l2", "rel_h1", "rel_h1_semi"):
        assert errs[key] == pytest.approx(0.01, rel=1e-12)
    with pytest.raises(ValueError):
        bench.relative_errors(ops[0], ops[1], ref[0], ref[1],
                              0.0 * ref[0], 0.0 * ref[1])


def test_relative_errors_agree_with_monolithic_norm():
    # subdomain forms partition the volume integrals of the parent mesh
    prob = bench.solid_body_rotation_problem(8, nu=1e-3)
    dec = prob.decomposition
    ops = tuple(assembly.subdomain_operators(dec, s, nu=prob.nu, dt=prob.dt,
                                             advection=prob.a) for s in (1, 2))
    parent_ops = assembly.assemble_operators(
        prob.mesh, prob.mesh.boundary_nodes, nu=prob.nu, dt=prob.dt)
    rng = np.random.default_rng(11)
    full = rng.standard_normal(prob.mesh.n_nodes)
    full[prob.mesh.boundary_nodes] = 0.0
    ref_full = rng.standard_normal(prob.mesh.n_nodes)
    ref_full[prob.mesh.boundary_nodes] = 0.0

    restrict = lambda v, s: v[dec.node_map(s)[dec.free_nodes(s)]]
    errs = bench.relative_errors(ops[0], ops[1],
                                 restrict(full, 1), restrict(full, 2),
                                 restrict(ref_full, 1), restrict(ref_full, 2))
    uf = full[parent_ops.free_nodes]
    rf = ref_full[parent_ops.free_nodes]
    M, K = parent_ops.M, parent_ops.K
    e = uf - rf
    expect_l2 = np.sqrt(e @ (M @ e)) / np.sqrt(rf @ (M @ rf))
    expect_h1 = np.sqrt(e @ ((M + K) @ e)) / np.sqrt(rf @ ((M + K) @ rf))
    assert errs["rel_l2"] == pytest.approx(expect_l2, rel=1e-12)
    assert errs["rel_h1"] == pytest.approx(expect_h1, rel=1e-12)


def test_report_csv_is_deterministic(tmp_path):
    rows = [bench.ReportRow("fom-fom", None, "none", None,
                            1.2345678901234567e-07, 2e-6, 3e-6,
                            14.25, 1240, True, 1.5),
            bench.ReportRow("rom", 100, "mgd1", 50,
                            9.87e-07, 1e-5, 2e-5, 3.0, 261, True, 0.4)]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    bench.write_report_csv(rows, p1)
    bench.write_report_csv(rows, p2)
    assert p1.read_bytes() == p2.read_bytes()
    text = p1.read_text()
    assert "wall" not in text.splitlines()[0]
    # float columns round-trip exactly through the text representation
    cells = text.splitlines()[1].split(",")
    assert float(cells[4]) == 1.2345678901234567e-07
    assert float(cells[7]) == 14.25
    pt = tmp_path / "t.csv"
    bench.write_timings_csv([(r.label, r.wall_seconds) for r in rows], pt)
    assert "wall_seconds" in pt.read_text().splitlines()[0]


def test_level_16_report_keeps_its_decisions():
    # report --level 16 --T 2.0: every row's trial count and convergence,
    # the same with one and with two BLAS threads. The descent's blocks and
    # the reduced bases may move roundoff, never these decisions
    rows = bench.run_experiment(bench.BenchmarkSpec(level=16, T=2.0),
                                bench.standard_entries())
    assert [(r.label, r.total_iterations, r.all_converged) for r in rows] == [
        ("fom-fom", 754, True), ("rs-fa-100", 1218, True),
        ("rs-fa-50", 10475, True), ("rom-rom-100-50", 1218, True)]


def test_experiment_context_smoke(tmp_path):
    spec = bench.BenchmarkSpec(level=8, nu=1e-3, dt=5e-2, T=0.5,
                               config=coupling.CouplingConfig(delta=1e-12, tol=1e-10))
    entries = [bench.ExperimentEntry("fom-fom"),
               bench.ExperimentEntry("rs-fa", state_modes=8),
               bench.ExperimentEntry("rom-rom", state_modes=8,
                                     adjoint_modes=6, adjoint_source="mgd1")]
    rows = bench.run_experiment(spec, entries, outdir=tmp_path)
    assert [r.label for r in rows] == ["fom-fom", "rs-fa", "rom-rom"]
    assert rows[0].rel_l2 < 1e-2
    # reduced state runs stay close to the full-order coupled run
    assert rows[1].rel_l2 < 1e-1
    assert (tmp_path / "report.csv").exists()
    assert (tmp_path / "timings.csv").exists()
    assert (tmp_path / "singular_values.csv").exists()
    for row in rows:
        assert row.all_converged
        assert np.isfinite(row.wall_seconds)


@pytest.mark.parametrize("source", ["banana", "mgd", "mgd²", "full", "mgd0",
                                    "mgd00"])
def test_experiment_entry_rejects_unknown_adjoint_source(source):
    with pytest.raises(InputError, match="unknown adjoint source"):
        bench.ExperimentEntry("x", adjoint_modes=3, adjoint_source=source)
    for known in ("state", "gdra", "mgd1", "mgd12"):
        assert bench.ExperimentEntry("x", adjoint_source=known).adjoint_source == known


@pytest.mark.parametrize("source", ["state", "mgd", "mgdx", "gdra2", "mgd0"])
def test_adjoint_store_rejects_a_source_it_has_no_store_for(source, monkeypatch):
    # "state" is a basis source, not a collection; the rest are no source at
    # all, mgd0 included, and are rejected before the reference is solved
    def no_work(*args, **kwargs):
        raise AssertionError("the reference was solved before the source was checked")

    monkeypatch.setattr(bench, "monolithic_solve", no_work)
    ctx = bench.ExperimentContext(bench.BenchmarkSpec(level=8, T=0.2))
    with pytest.raises(InputError, match=re.escape(repr(source))):
        ctx.adjoint_store(source)


def test_state_store_records_its_run_identity():
    ctx = bench.ExperimentContext(bench.BenchmarkSpec(level=8, nu=1e-3, dt=5e-2,
                                                      T=0.3))
    identity = ctx.run_identity()
    assert identity == {"level": 8, "nu": 1e-3, "dt": 5e-2, "n_steps": 6,
                        "supg_on": True}
    assert {k: ctx.state_store().meta[k] for k in identity} == identity


def test_experiment_builds_each_sides_operators_once(monkeypatch):
    # the coupled runs, the MGD collection, the reductions and the error
    # metric share the problem's operators: one assembly per side, and one
    # LU per side plus the monolithic reference's
    calls = {"subdomain_operators": 0, "factorize": 0}
    for module, name in ((assembly, "subdomain_operators"), (linalg, "factorize")):
        def counting(*args, _original=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)
    bench.run_experiment(bench.BenchmarkSpec(level=16, T=2.0),
                         bench.standard_entries())
    assert calls == {"subdomain_operators": 2, "factorize": 3}


def _count_reference_solves(monkeypatch) -> list:
    solves = []
    solve = bench.monolithic_solve

    def counting(*args, **kwargs):
        solves.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(bench, "monolithic_solve", counting)
    return solves


def _holds_a_trajectory(ctx) -> bool:
    return any(isinstance(value, fom.Trajectory) for value in vars(ctx).values())


DESK = bench.BenchmarkSpec(level=8, nu=1e-3, dt=5e-2, T=0.3)


def test_context_keeps_one_copy_of_the_reference(monkeypatch):
    # the split store replaces the trajectory, and the wall time outlives it
    solves = _count_reference_solves(monkeypatch)
    ctx = bench.ExperimentContext(DESK)
    store = ctx.state_store()
    wall = ctx.mono_wall
    assert ctx.state_store() is store and ctx.mono_wall == wall > 0.0
    assert not _holds_a_trajectory(ctx)
    assert store["state_1"].data.shape[1] == 7 and len(solves) == 1


_CONTEXT_CALLS = {
    "state_store": lambda ctx: ctx.state_store(),
    "mono_wall": lambda ctx: ctx.mono_wall,
    "reference_finals": lambda ctx: ctx.reference_finals(),
    "adjoint_store": lambda ctx: ctx.adjoint_store("mgd1"),
    "run_entry": lambda ctx: ctx.run_entry(bench.ExperimentEntry(
        "rom", state_modes=3, adjoint_modes=3)),
}


@pytest.mark.parametrize("first", list(_CONTEXT_CALLS))
def test_reference_runs_once_in_any_order(monkeypatch, first):
    # whichever use comes first, the reference is solved once, split, and
    # not held as a trajectory afterwards
    solves = _count_reference_solves(monkeypatch)
    ctx = bench.ExperimentContext(DESK)
    names = list(_CONTEXT_CALLS)
    start = names.index(first)
    for name in names[start:] + names[:start]:
        _CONTEXT_CALLS[name](ctx)
        assert not _holds_a_trajectory(ctx)
    assert len(solves) == 1 and ctx.mono_wall > 0.0
    assert ctx.mono_final.shape == (ctx.problem.mesh.n_nodes
                                    - ctx.problem.mesh.boundary_nodes.size,)


def test_load_state_store_checks_the_run_identity(tmp_path, monkeypatch):
    ctx = bench.ExperimentContext(DESK)
    snapshots.write_store(ctx.state_store(), tmp_path / "ref")
    meta_path = tmp_path / "ref" / "meta.json"
    written = json.loads(meta_path.read_text())
    solves = _count_reference_solves(monkeypatch)

    # a matching store is used as is: no reference solve, and MGD reads it
    loaded = bench.ExperimentContext(DESK)
    store = loaded.load_state_store(tmp_path / "ref")
    assert loaded.state_store() is store and loaded.mono_wall is None
    assert loaded.adjoint_store("mgd1").meta["n_pairs"] == 6 and solves == []

    # every key that differs or is missing is rejected by name
    for key, value in ctx.run_identity().items():
        for recorded in ({**written, key: "other"},
                         {k: v for k, v in written.items() if k != key}):
            meta_path.write_text(json.dumps(recorded))
            fresh = bench.ExperimentContext(DESK)
            with pytest.raises(InputError, match=f"records {key}="):
                fresh.load_state_store(tmp_path / "ref")
    assert solves == []
