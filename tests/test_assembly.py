import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from obcoupling import assembly, fom, linalg, rom
from obcoupling.errors import InputError
from obcoupling.geometry import build_mesh, decompose


def rotation(x, y):
    return 0.5 - np.asarray(y), np.asarray(x) - 0.5


# Closed-form element matrices on the unit reference cell.
M_UNIT = np.array([[4, 2, 1, 2], [2, 4, 2, 1], [1, 2, 4, 2], [2, 1, 2, 4]]) / 36.0
K_UNIT = np.array([[4, -1, -2, -1], [-1, 4, -1, -2],
                   [-2, -1, 4, -1], [-1, -2, -1, 4]]) / 6.0


def test_element_mass_and_stiffness_unit_square():
    mesh = build_mesh(1, 1)
    ops = assembly.assemble_operators(mesh, np.array([], dtype=np.int64),
                                      nu=1.0, dt=1.0)
    # reindex from global (row-major) to element-local counterclockwise order
    el = mesh.elements[0]
    np.testing.assert_allclose(ops.M.toarray()[np.ix_(el, el)], M_UNIT,
                               atol=1e-14)
    np.testing.assert_allclose(ops.K.toarray()[np.ix_(el, el)], K_UNIT,
                               atol=1e-14)


def test_mass_scales_with_area_stiffness_with_aspect():
    mesh = build_mesh(1, 1, x_max=0.5, y_max=0.25)
    ops = assembly.assemble_operators(mesh, np.array([], dtype=np.int64),
                                      nu=1.0, dt=1.0)
    el = mesh.elements[0]
    M_loc = ops.M.toarray()[np.ix_(el, el)]
    K_loc = ops.K.toarray()[np.ix_(el, el)]
    np.testing.assert_allclose(M_loc, 0.125 * M_UNIT, atol=1e-15)
    m_or, k_or, _ = oracles.element_matrices(0.0, 0.0, 0.5, 0.25)
    np.testing.assert_allclose(K_loc, k_or, atol=1e-14)
    np.testing.assert_allclose(M_loc, m_or, atol=1e-15)


def test_volume_operators_match_dense_oracle():
    mesh = build_mesh(3, 4)
    no_dirichlet = np.array([], dtype=np.int64)
    ops = assembly.assemble_operators(mesh, no_dirichlet, nu=1.0, dt=1.0,
                                      advection=rotation)
    M_or, K_or, A_or = oracles.assemble_dense(mesh, rotation)
    np.testing.assert_allclose(ops.M.toarray(), M_or, atol=1e-13)
    np.testing.assert_allclose(ops.K.toarray(), K_or, atol=1e-13)
    np.testing.assert_allclose(ops.A.toarray(), A_or, atol=1e-13)


def test_dirichlet_elimination_matches_dense_slicing():
    mesh = build_mesh(4, 3)
    dirichlet = mesh.boundary_nodes
    ops = assembly.assemble_operators(mesh, dirichlet, nu=0.7, dt=0.1,
                                      advection=rotation)
    M_or, K_or, A_or = oracles.assemble_dense(mesh, rotation)
    free = np.setdiff1d(np.arange(mesh.n_nodes), dirichlet)
    np.testing.assert_array_equal(ops.free_nodes, free)
    for mat, ref in ((ops.M, M_or), (ops.K, K_or), (ops.A, A_or)):
        np.testing.assert_allclose(mat.toarray(), ref[np.ix_(free, free)],
                                   atol=1e-13)


def test_advection_skew_part_is_boundary_flux():
    # For divergence-free a, integration by parts gives
    # (phi_k, a.grad phi_j) + (phi_j, a.grad phi_k) = boundary (a.n) phi_k phi_j.
    mesh = build_mesh(5, 4)
    ops = assembly.assemble_operators(mesh, np.array([], dtype=np.int64),
                                      nu=1.0, dt=1.0, advection=rotation)
    E = oracles.boundary_flux_dense(mesh, rotation)
    np.testing.assert_allclose((ops.A + ops.A.T).toarray(), E, atol=1e-13)
    # with all boundary nodes constrained the free block is exactly skew
    ops_d = assembly.assemble_operators(mesh, mesh.boundary_nodes, nu=1.0,
                                        dt=1.0, advection=rotation)
    skew = (ops_d.A + ops_d.A.T).toarray()
    assert np.abs(skew).max() < 1e-14


def test_boundary_flux_helper_matches_oracle():
    mesh = build_mesh(4, 5)
    E = oracles.boundary_flux_sparse(mesh, rotation).toarray()
    np.testing.assert_allclose(E, oracles.boundary_flux_dense(mesh, rotation),
                               atol=1e-13)


def test_supg_matches_dense_oracle():
    mesh = build_mesh(4, 4)
    ops = assembly.assemble_operators(mesh, np.array([], dtype=np.int64),
                                      nu=1e-3, dt=0.05, advection=rotation,
                                      supg_on=True)
    S_or = oracles.supg_dense(mesh, rotation, 1e-3, 0.05)
    np.testing.assert_allclose(ops.S_state.toarray(), S_or, atol=1e-13)


def test_supg_vanishes_without_advection():
    mesh = build_mesh(3, 3)
    ops = assembly.assemble_operators(mesh, mesh.boundary_nodes, nu=1e-3,
                                      dt=0.1, supg_on=True)
    assert ops.S_state.nnz == 0
    ops_off = assembly.assemble_operators(mesh, mesh.boundary_nodes, nu=1e-3,
                                          dt=0.1, advection=rotation,
                                          supg_on=False)
    assert ops_off.S_state.nnz == 0


def test_mass_and_stiffness_ignore_advection_and_supg():
    # the error metric reads M and K from the stabilized operators
    dec = decompose(build_mesh(16, 16), 0.5)
    for side in (1, 2):
        plain = assembly.subdomain_operators(dec, side, nu=1e-5, dt=4e-3)
        stab = assembly.subdomain_operators(dec, side, nu=1e-5, dt=4e-3,
                                            advection=rotation, supg_on=True)
        for name in ("M", "K"):
            a, b = getattr(plain, name), getattr(stab, name)
            for part in ("indptr", "indices", "data"):
                np.testing.assert_array_equal(getattr(a, part), getattr(b, part))


def test_adjoint_operator_is_exact_transpose():
    # the adjoint factor solves with the transposed state system, for one
    # right-hand side and for a block of them
    dec = decompose(build_mesh(8, 6), 0.5)
    rng = np.random.default_rng(12)
    for supg in (False, True):
        for side in (1, 2):
            ops = assembly.subdomain_operators(dec, side, nu=1e-4, dt=0.02,
                                               advection=rotation, supg_on=supg)
            L = ops.state_matrix()
            assert abs(L - L.T).max() > 0  # the transpose is a different system
            for rhs in (rng.standard_normal(ops.n_free),
                        rng.standard_normal((ops.n_free, 5))):
                mu = ops.adjoint_factor().solve(rhs)
                assert mu.shape == rhs.shape
                assert (np.linalg.norm(L.T @ mu - rhs)
                        <= 1e-12 * np.linalg.norm(rhs))


def test_one_factorization_per_operator_set(monkeypatch):
    # state and adjoint solves, and the trace response, share one LU
    calls = []
    factorize = linalg.factorize

    def counting(matrix):
        calls.append(matrix.shape)
        return factorize(matrix)

    monkeypatch.setattr(linalg, "factorize", counting)
    dec = decompose(build_mesh(8, 8), 0.5)
    ops = assembly.subdomain_operators(dec, 2, nu=1e-2, dt=5e-2,
                                       advection=rotation, supg_on=True)
    rng = np.random.default_rng(2)
    ops.state_factor()
    ops.adjoint_factor()
    ops.trace_response(dec.trace_free(2))
    fom.state_step(ops, rng.standard_normal(ops.n_free),
                   rng.standard_normal(dec.n_control), None, 2)
    fom.adjoint_solve(ops, rng.standard_normal(dec.n_control), 2)
    assert calls == [(ops.n_free, ops.n_free)]


@pytest.mark.parametrize("model", ["full", "reduced"])
def test_trace_response_matches_sparse_solves(model):
    # one TraceResponse describes either model kind: P u_prev + W^T f +
    # sign (T Z) g is the trace of the model's state step, and Y solves the
    # model's adjoint system against M_g0 (a full-order model is the reduced
    # one with identity bases)
    dec = decompose(build_mesh(8, 8), 0.5)
    rng = np.random.default_rng(3)
    for side in (1, 2):
        ops = assembly.subdomain_operators(dec, side, nu=1e-2, dt=5e-2,
                                           advection=rotation)
        tf = dec.trace_free(side)
        if model == "full":
            r = ops.trace_response(tf)
            assert ops.trace_response(tf) is r
            Psi_u = Psi_mu = np.eye(ops.n_free)

            def step(u_prev, g, f):
                return fom.state_step(ops, u_prev, g, f, side)
        else:
            Psi_u = np.linalg.qr(rng.standard_normal((ops.n_free, 9)))[0]
            Psi_mu = np.linalg.qr(rng.standard_normal((ops.n_free, 7)))[0]
            rops = rom.reduce_operators(ops, Psi_u, Psi_mu, trace_free=tf)
            r = rops.response

            def step(u_prev, g, f):
                return Psi_u @ rom.rom_state_step(rops, u_prev, g, f, side)
        L = ops.state_matrix().toarray()
        Y = np.linalg.solve(Psi_mu.T @ L.T @ Psi_mu, Psi_mu.T @ ops.M_g0.toarray())
        scale = abs(Y).max()
        np.testing.assert_allclose(r.Y, Y, rtol=0, atol=1e-13 * scale)
        np.testing.assert_allclose(r.TY, (Psi_mu @ Y)[tf], rtol=0,
                                   atol=1e-13 * scale)
        u_prev = rng.standard_normal(Psi_u.shape[1])
        f = rng.standard_normal(Psi_u.shape[1])
        g = rng.standard_normal(dec.n_control)
        want = step(u_prev, g, f)[tf]
        got = r.zero_control_trace(u_prev, f) + fom.sign_of(side) * (r.TZ @ g)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * abs(want).max())
        np.testing.assert_allclose(r.zero_control_trace(u_prev),
                                   step(u_prev, None, None)[tf], rtol=0,
                                   atol=1e-12 * abs(want).max())


def test_interface_mass_small_mesh():
    # 2x2 grid split at 0.5: one control node at y = 0.5, edge length 0.5.
    dec = decompose(build_mesh(2, 2), 0.5)
    M_g0, M_g = assembly.assemble_interface_mass(dec, 1)
    assert M_g.shape == (1, 1)
    assert M_g[0, 0] == pytest.approx(1.0 / 3.0)
    trace_row = dec.trace_free(1)[0]
    col = M_g0.toarray()[:, 0]
    assert col[trace_row] == pytest.approx(1.0 / 3.0)
    # the control hat's only other neighbours are the two constrained
    # endpoints, each overlapping it by h/6: the row integrates to h
    assert col.sum() + 2 * (0.5 / 6.0) == pytest.approx(0.5)


def test_interface_mass_partition_of_unity():
    dec = decompose(build_mesh(6, 5), 0.5)
    hy = dec.sub(1).hy
    for side in (1, 2):
        M_g0, M_g = assembly.assemble_interface_mass(dec, side)
        rows = dec.trace_free(side)
        total = np.asarray(M_g0.sum(axis=1)).ravel()
        # add the overlap hy/6 of the first and last control hats with the
        # constrained endpoint hats next to them
        total[rows[[0, -1]]] += hy / 6.0
        # each interior interface hat integrates to hy against sum of all hats
        np.testing.assert_allclose(total[rows], hy, atol=1e-14)
        off_rows = np.setdiff1d(np.arange(M_g0.shape[0]), rows)
        assert np.abs(total[off_rows]).max() < 1e-15
        # control mass is the 1D tridiagonal mass of the interface interior
        dense = M_g.toarray()
        np.testing.assert_allclose(np.diag(dense), 2.0 * hy / 3.0, atol=1e-14)
        np.testing.assert_allclose(np.diag(dense, 1), hy / 6.0, atol=1e-14)


def test_interface_consistency_across_sides():
    dec = decompose(build_mesh(8, 6), 0.5)
    _, Mg1 = assembly.assemble_interface_mass(dec, 1)
    _, Mg2 = assembly.assemble_interface_mass(dec, 2)
    assert abs(Mg1 - Mg2).max() == 0.0


def test_assemble_load_matches_oracle():
    mesh = build_mesh(3, 3)

    # biquadratic source: integrated exactly by both quadrature rules
    def f(x, y, t):
        return (1.0 + 2.0 * x - y + 0.5 * x * y + x * x - y * y) * (1.0 + t)

    free = np.setdiff1d(np.arange(mesh.n_nodes), mesh.boundary_nodes)
    got = assembly.assemble_load(mesh, free, f, 0.3)
    ref = oracles.load_dense(mesh, f, 0.3)[free]
    np.testing.assert_allclose(got, ref, atol=1e-14)


def test_assemble_operators_validates_inputs():
    mesh = build_mesh(2, 2)
    with pytest.raises(ValueError):
        assembly.assemble_operators(mesh, mesh.boundary_nodes, nu=-1.0, dt=0.1)
    with pytest.raises(ValueError):
        assembly.assemble_operators(mesh, mesh.boundary_nodes, nu=1.0, dt=0.0)
    for nu, dt in ((np.nan, 0.1), (np.inf, 0.1), (1.0, np.nan), (1.0, np.inf)):
        with pytest.raises(InputError, match="finite"):
            assembly.assemble_operators(mesh, mesh.boundary_nodes, nu=nu, dt=dt)


@settings(max_examples=10, deadline=None)
@given(nx=st.integers(2, 6), ny=st.integers(2, 6), seed=st.integers(0, 99))
def test_mass_quadratic_form_is_integral(nx, ny, seed):
    # u^T M u equals the L2 norm of the bilinear interpolant; for u = 1 the
    # free-space form integrates to the domain area.
    mesh = build_mesh(nx, ny)
    ops = assembly.assemble_operators(mesh, np.array([], dtype=np.int64),
                                      nu=1.0, dt=1.0)
    ones = np.ones(mesh.n_nodes)
    assert ones @ (ops.M @ ones) == pytest.approx(1.0)
    assert np.abs(ops.K @ ones).max() < 1e-13  # constants in the kernel of K
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(mesh.n_nodes)
    assert u @ (ops.M @ u) > 0.0
