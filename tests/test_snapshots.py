import dataclasses
import struct

import numpy as np
import pytest

from obcoupling import assembly, bench, coupling, fom, linalg, rom, snapshots
from obcoupling.errors import InputError
from obcoupling.rom import SnapshotMatrix

# 1x1 matrix holding 1.0 with empty metadata, spelled out byte by byte:
# magic, version, rows, cols, metadata length, "{}", IEEE-754 1.0 (LE)
GOLDEN_HEX = ("534e415031" "01" "01000000" "01000000" "02000000" "7b7d"
              "000000000000f03f")


def desk_problem(n_steps=4, level=8):
    prob = bench.solid_body_rotation_problem(level, nu=1e-3)
    return fom.ProblemSpec(decomposition=prob.decomposition, nu=prob.nu,
                           a=prob.a, f=None, u0=prob.u0, dt=prob.dt,
                           T=n_steps * prob.dt)


def test_container_golden_bytes(tmp_path):
    path = tmp_path / "one.snap"
    snapshots.write_snapshot_file(path, np.array([[1.0]]), {})
    assert path.read_bytes() == bytes.fromhex(GOLDEN_HEX)
    data, meta = snapshots.read_snapshot_file(path)
    assert data.shape == (1, 1) and data[0, 0] == 1.0 and meta == {}


def test_container_layout_column_major(tmp_path):
    mat = np.array([[1.0, 2.5, -3.0], [0.0, 1e-300, 7.0]])
    meta = {"k": 1}
    path = tmp_path / "m.snap"
    snapshots.write_snapshot_file(path, mat, meta)
    blob = b'{"k": 1}'
    expected = (b"SNAP1" + bytes([1]) + struct.pack("<III", 2, 3, len(blob))
                + blob
                + struct.pack("<6d", 1.0, 0.0, 2.5, 1e-300, -3.0, 7.0))
    assert path.read_bytes() == expected


def test_container_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    mat = rng.standard_normal((17, 9))
    mat[0, 0] = 0.0
    mat[1, 1] = -0.0
    mat[2, 2] = 5e-324  # smallest subnormal
    path = tmp_path / "r.snap"
    snapshots.write_snapshot_file(path, mat, {"note": "x", "n": [1, 2]})
    back, meta = snapshots.read_snapshot_file(path)
    assert back.tobytes() == mat.tobytes()
    assert meta == {"note": "x", "n": [1, 2]}


def test_container_rejects_malformed(tmp_path):
    path = tmp_path / "bad.snap"
    snapshots.write_snapshot_file(path, np.ones((3, 2)), {})
    raw = path.read_bytes()

    (tmp_path / "trunc.snap").write_bytes(raw[:-5])
    with pytest.raises(ValueError, match="expected"):
        snapshots.read_snapshot_file(tmp_path / "trunc.snap")

    (tmp_path / "magic.snap").write_bytes(b"XXXXX" + raw[5:])
    with pytest.raises(ValueError, match="magic"):
        snapshots.read_snapshot_file(tmp_path / "magic.snap")

    (tmp_path / "ver.snap").write_bytes(raw[:5] + bytes([9]) + raw[6:])
    with pytest.raises(ValueError, match="version"):
        snapshots.read_snapshot_file(tmp_path / "ver.snap")

    (tmp_path / "head.snap").write_bytes(raw[:10])
    with pytest.raises(ValueError, match="truncated"):
        snapshots.read_snapshot_file(tmp_path / "head.snap")

    (tmp_path / "extra.snap").write_bytes(raw + b"\x00")
    with pytest.raises(ValueError):
        snapshots.read_snapshot_file(tmp_path / "extra.snap")

    # a well-formed file whose matrix holds NaN or an infinity
    for value in (np.nan, np.inf, -np.inf):
        mat = np.ones((3, 2))
        mat[1, 1] = value
        snapshots.write_snapshot_file(tmp_path / "nonfinite.snap", mat, {})
        with pytest.raises(InputError, match="NaN or infinite"):
            snapshots.read_snapshot_file(tmp_path / "nonfinite.snap")

    # metadata must be a JSON object, and a store's subdomain an integer
    blob = b"[1]"
    listed = (raw[:6] + snapshots._HEADER.pack(3, 2, len(blob)) + blob
              + raw[6 + snapshots._HEADER.size + 2:])
    (tmp_path / "list.snap").write_bytes(listed)
    with pytest.raises(InputError, match="not a JSON object"):
        snapshots.read_snapshot_file(tmp_path / "list.snap")
    for subdomain in ("1", 1.5, True):
        store = tmp_path / f"store-{subdomain}"
        store.mkdir()
        snapshots.write_snapshot_file(store / "state_1.snap", np.ones((3, 2)),
                                      {"subdomain": subdomain})
        with pytest.raises(InputError, match="is not an integer"):
            snapshots.read_store(store)
    (store / "meta.json").write_text("[]")
    with pytest.raises(InputError, match="not a JSON object"):
        snapshots.read_store(store)


def test_store_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    store = snapshots.SnapshotStore(matrices={
        "state_1": SnapshotMatrix(rng.standard_normal((6, 4)), "state", 1),
        "adjoint_2": SnapshotMatrix(rng.standard_normal((5, 3)), "adjoint", 2),
    }, meta={"dt": 0.5, "method": "test"})
    snapshots.write_store(store, tmp_path / "store")
    back = snapshots.read_store(tmp_path / "store")
    assert sorted(back.keys()) == ["adjoint_2", "state_1"]
    for key in store.keys():
        assert back[key].data.tobytes() == store[key].data.tobytes()
        assert back[key].kind == store[key].kind
        assert back[key].subdomain == store[key].subdomain
    assert back.meta == store.meta
    with pytest.raises(ValueError):
        snapshots.read_store(tmp_path / "nonexistent")


def test_split_monolithic_restriction():
    prob = desk_problem(n_steps=3)
    dec = prob.decomposition
    traj = fom.monolithic_solve(prob, supg_on=True)
    store = snapshots.split_monolithic_snapshots(traj, dec)
    parent_to_free = np.full(prob.mesh.n_nodes, -1, dtype=np.int64)
    parent_to_free[traj.free_nodes] = np.arange(traj.free_nodes.size)
    for side in (1, 2):
        sm = store[f"state_{side}"]
        assert sm.subdomain == side and sm.kind == "state"
        assert sm.data.shape == (dec.free_nodes(side).size, prob.n_steps + 1)
        rows = parent_to_free[dec.node_map(side)[dec.free_nodes(side)]]
        np.testing.assert_array_equal(sm.data, traj.data[rows])
    # interface values appear in both restrictions
    t1 = store["state_1"].data[dec.trace_free(1)]
    t2 = store["state_2"].data[dec.trace_free(2)]
    np.testing.assert_array_equal(t1, t2)


def test_gdra_collects_one_pair_per_direction():
    prob = desk_problem(n_steps=4)
    cfg = coupling.CouplingConfig(delta=1e-12, tol=1e-10, supg_on=True)
    store = snapshots.collect_gdra(prob, cfg)

    count = [0]
    res = coupling.run_transient(prob, cfg,
                                 recorder=lambda *args: count.__setitem__(0, count[0] + 1),
                                 keep_trajectories=False)
    expected = sum(s.directions for s in res.stats)
    assert count[0] == expected
    assert store["adjoint_1"].data.shape[1] == expected
    assert store["adjoint_2"].data.shape[1] == expected
    assert store.meta["n_pairs"] == expected
    assert sum(store.meta["pairs_per_step"]) == expected
    assert store.meta["method"] == "gdra"


def test_gdra_with_every_step_below_tol_collects_nothing():
    # no timestep forms a direction, so each side gets a matrix of no columns
    prob = bench.solid_body_rotation_problem(8)
    cfg = coupling.CouplingConfig(tol=1e300, supg_on=True)
    store = snapshots.collect_gdra(prob, cfg)
    dec = prob.decomposition
    for side in (1, 2):
        assert store[f"adjoint_{side}"].data.shape == (dec.free_nodes(side).size, 0)
    assert store.meta["n_pairs"] == 0
    assert store.meta["pairs_per_step"] == [0] * prob.n_steps


def test_mgd_exact_pair_count_and_first_iteration():
    prob = desk_problem(n_steps=3)
    dec = prob.decomposition
    traj = fom.monolithic_solve(prob, supg_on=True)
    states = snapshots.split_monolithic_snapshots(traj, dec)
    cfg = coupling.CouplingConfig(delta=1e-16, tol=1e-14, supg_on=True)

    store = snapshots.collect_mgd(prob, states, 1, cfg)
    assert store["adjoint_1"].data.shape == (dec.free_nodes(1).size, prob.n_steps)
    assert store.meta["m"] == 1 and store.meta["n_pairs"] == prob.n_steps

    # the first pair of each timestep is the adjoint of the zero-control
    # mismatch of states stepped from the snapshot history
    ops = {s: assembly.subdomain_operators(dec, s, nu=prob.nu, dt=prob.dt,
                                           advection=prob.a, supg_on=True)
           for s in (1, 2)}
    g0 = np.zeros(dec.n_control)
    for n in (1, prob.n_steps):
        u1 = fom.modified_state_step(ops[1], states["state_1"].data[:, n - 1],
                                     g0, None, 1)
        u2 = fom.modified_state_step(ops[2], states["state_2"].data[:, n - 1],
                                     g0, None, 2)
        jump = u1[dec.trace_free(1)] - u2[dec.trace_free(2)]
        mu1 = fom.adjoint_solve(ops[1], jump, 1)
        np.testing.assert_allclose(store["adjoint_1"].data[:, n - 1], mu1,
                                   atol=1e-13)


@pytest.mark.parametrize("source", [None, 10.0], ids=["no-source", "f=10"])
@pytest.mark.parametrize("delta", [1e-16, 1e-3])
@pytest.mark.parametrize("m", [1, 3])
def test_mgd_matches_sparse_solve_oracle(m, delta, source):
    # every pair equals the fixed-step descent replayed with sparse state
    # steps and adjoint solves from the snapshot history
    prob = desk_problem(n_steps=4)
    if source is not None:
        prob = dataclasses.replace(prob, f=lambda x, y, t: source)
    dec = prob.decomposition
    traj = fom.monolithic_solve(prob, supg_on=True)
    states = snapshots.split_monolithic_snapshots(traj, dec)
    cfg = coupling.CouplingConfig(delta=delta, supg_on=True)
    store = snapshots.collect_mgd(prob, states, m, cfg)

    ops = {s: assembly.subdomain_operators(dec, s, nu=prob.nu, dt=prob.dt,
                                           advection=prob.a, supg_on=True)
           for s in (1, 2)}
    tf = {s: dec.trace_free(s) for s in (1, 2)}
    loads = {s: coupling.make_loads(prob, dec, s) for s in (1, 2)}
    adjoint_matrix = {s: ops[s].state_matrix().T for s in (1, 2)}
    off = {}
    for s in (1, 2):
        off[s] = np.ones(dec.free_nodes(s).size, dtype=bool)
        off[s][tf[s]] = False
    for n in range(1, prob.n_steps + 1):
        g = np.zeros(dec.n_control)
        for k in range(m):
            u, mu = {}, {}
            for s in (1, 2):
                f = None if loads[s] is None else loads[s](n)
                u[s] = fom.state_step(ops[s], states[f"state_{s}"].data[:, n - 1],
                                      g, f, s)
            jump = u[1][tf[1]] - u[2][tf[2]]
            residual = {}
            for s in (1, 2):
                mu[s] = fom.adjoint_solve(ops[s], jump, s)
                got = store[f"adjoint_{s}"].data[:, (n - 1) * m + k]
                assert (np.linalg.norm(got - mu[s])
                        <= 1e-12 * np.linalg.norm(mu[s])), (n, k, s)
                residual[s] = adjoint_matrix[s] @ got
            # adjoint pair property: A_i^T mu_i lives on the interface, and
            # the two interface parts are opposite
            scale = np.abs(residual[1][tf[1]]).max()
            assert scale > 0
            for s in (1, 2):
                assert np.abs(residual[s][off[s]]).max() <= 1e-12 * scale
            assert (np.abs(residual[1][tf[1]] + residual[2][tf[2]]).max()
                    <= 1e-12 * scale)
            g = ((1.0 - cfg.alpha0 * delta) * g
                 - cfg.alpha0 * (mu[1][tf[1]] - mu[2][tf[2]]))


def span_defect(sm):
    """Relative Frobenius distance of a snapshot matrix from its span."""
    q, _ = np.linalg.qr(sm.span)
    return (np.linalg.norm(sm.data - q @ (q.T @ sm.data))
            / np.linalg.norm(sm.data))


def test_collectors_attach_the_interface_span(tmp_path):
    # every pair is sign_i Y_i jump, so each adjoint matrix lies in the span
    # of Y_i; the span survives in memory but not through a SNAP1 store
    prob = desk_problem(n_steps=12)
    dec = prob.decomposition
    states = snapshots.split_monolithic_snapshots(
        fom.monolithic_solve(prob, supg_on=True), dec)
    cfg = coupling.CouplingConfig(delta=1e-12, tol=1e-10, supg_on=True)
    stores = {f"mgd{m}": snapshots.collect_mgd(prob, states, m, cfg)
              for m in (1, 2)}
    stores["gdra"] = snapshots.collect_gdra(prob, cfg)
    for name, store in stores.items():
        for side in (1, 2):
            sm = store[f"adjoint_{side}"]
            assert sm.span.shape == (dec.free_nodes(side).size, dec.n_control)
            assert sm.n_snapshots > dec.n_control, name
            assert span_defect(sm) <= 1e-13, (name, side)
    for key in ("state_1", "state_2"):
        assert states[key].span is None

    snapshots.write_store(stores["mgd1"], tmp_path / "mgd1")
    back = snapshots.read_store(tmp_path / "mgd1")
    for side in (1, 2):
        sm = back[f"adjoint_{side}"]
        assert sm.span is None
        basis = rom.full_pod(sm)
        assert basis.n_modes == min(sm.data.shape)
        np.testing.assert_allclose(basis.Psi.T @ basis.Psi,
                                   np.eye(basis.n_modes), rtol=0, atol=1e-12)
        in_memory = rom.full_pod(stores["mgd1"][f"adjoint_{side}"])
        np.testing.assert_allclose(
            basis.sigma, in_memory.sigma, rtol=0, atol=1e-13 * basis.sigma[0])


def test_mgd1_pod_only_decomposes_n_control_rows(monkeypatch):
    prob = desk_problem(n_steps=12)
    dec = prob.decomposition
    states = snapshots.split_monolithic_snapshots(
        fom.monolithic_solve(prob, supg_on=True), dec)
    store = snapshots.collect_mgd(prob, states, 1,
                                  coupling.CouplingConfig(supg_on=True))
    shapes = []
    thin_svd = linalg.thin_svd

    def counting_svd(matrix):
        shapes.append(matrix.shape)
        return thin_svd(matrix)

    monkeypatch.setattr(linalg, "thin_svd", counting_svd)
    for side in (1, 2):
        rom.full_pod(store[f"adjoint_{side}"])
    assert shapes == [(dec.n_control, prob.n_steps)] * 2


def test_mgd_invariant_under_workers_and_order():
    prob = desk_problem(n_steps=5)
    traj = fom.monolithic_solve(prob, supg_on=True)
    states = snapshots.split_monolithic_snapshots(traj, prob.decomposition)
    cfg = coupling.CouplingConfig(delta=1e-16, tol=1e-14, supg_on=True)

    ref = snapshots.collect_mgd(prob, states, 3, cfg, workers=1)
    for workers in (2, 4):
        got = snapshots.collect_mgd(prob, states, 3, cfg, workers=workers)
        for key in ("adjoint_1", "adjoint_2"):
            assert got[key].data.tobytes() == ref[key].data.tobytes()
    assert ref.meta["n_pairs"] == 5 * 3


def test_mgd1_matches_coupled_collection_quality():
    # On a small full rotation both collections must span the whole adjoint
    # space: held-out adjoints from a coupled run project onto a 100-mode
    # basis from either source at the double-precision floor. Needs the full
    # rotation; a quarter turn leaves the weakest interface directions
    # under-excited in the one-pair-per-step matrix.
    prob = bench.solid_body_rotation_problem(16, nu=1e-5)
    cfg = coupling.CouplingConfig(delta=1e-14, tol=1e-12)
    traj = fom.monolithic_solve(prob, supg_on=True)
    states = snapshots.split_monolithic_snapshots(traj, prob.decomposition)
    gdra = snapshots.collect_gdra(prob, cfg)
    mgd1 = snapshots.collect_mgd(prob, states, 1, cfg)

    for side in (1, 2):
        held_out = gdra[f"adjoint_{side}"].data
        for store in (mgd1, gdra):
            basis = rom.full_pod(store[f"adjoint_{side}"])
            errs = rom.projection_error(basis.truncate(100), held_out)
            assert errs.max() <= 1e-12


@pytest.mark.parametrize("source", [None, 10.0], ids=["no-source", "f=10"])
def test_state_matrices_are_column_major_and_layout_free(tmp_path, source):
    # split and read-back histories are Fortran-ordered, so a time level is
    # contiguous; the MGD pairs do not depend on the history's memory layout
    prob = desk_problem(n_steps=4)
    if source is not None:
        prob = dataclasses.replace(prob, f=lambda x, y, t: source)
    traj = fom.monolithic_solve(prob, supg_on=True)
    states = snapshots.split_monolithic_snapshots(traj, prob.decomposition)
    snapshots.write_store(states, tmp_path)
    back = snapshots.read_store(tmp_path)
    for store in (states, back):
        for key in ("state_1", "state_2"):
            assert store[key].data.flags.f_contiguous
            assert store[key].data.tobytes("F") == states[key].data.tobytes("F")
    c_order = snapshots.SnapshotStore(matrices={
        key: dataclasses.replace(states[key],
                                 data=np.ascontiguousarray(states[key].data))
        for key in ("state_1", "state_2")})
    assert c_order["state_1"].data.flags.c_contiguous
    cfg = coupling.CouplingConfig(delta=1e-3, supg_on=True)
    for m in (1, 3):
        ref = snapshots.collect_mgd(prob, states, m, cfg)
        got = snapshots.collect_mgd(prob, c_order, m, cfg)
        for key in ("adjoint_1", "adjoint_2"):
            assert got[key].data.tobytes() == ref[key].data.tobytes()


def test_mgd_validates_inputs():
    prob = desk_problem(n_steps=2)
    traj = fom.monolithic_solve(prob)
    states = snapshots.split_monolithic_snapshots(traj, prob.decomposition)
    cfg = coupling.CouplingConfig()
    with pytest.raises(ValueError):
        snapshots.collect_mgd(prob, states, 0, cfg)
    with pytest.raises(ValueError):
        snapshots.collect_mgd(prob, states, 1, cfg, workers=0)
    bad = snapshots.SnapshotStore(matrices={
        "state_1": SnapshotMatrix(states["state_1"].data[:, :2], "state", 1),
        "state_2": SnapshotMatrix(states["state_2"].data[:, :2], "state", 2)})
    with pytest.raises(ValueError):
        snapshots.collect_mgd(prob, bad, 1, cfg)
    # a store of another level has the step count but not the free DOFs
    other = desk_problem(n_steps=2, level=10)
    wrong_level = snapshots.split_monolithic_snapshots(
        fom.monolithic_solve(other), other.decomposition)
    with pytest.raises(ValueError, match="rows"):
        snapshots.collect_mgd(prob, wrong_level, 1, cfg)
