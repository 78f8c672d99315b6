import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
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


@pytest.mark.parametrize("nodes", [[-1], [1.7], [[0, 1]], [25], [True]])
def test_malformed_dirichlet_nodes_are_input_errors(nodes):
    # 25 nodes: a negative index would wrap to the last node, a float would
    # truncate, a nested list would flatten, 25 is past the end, a boolean
    # reads as a mask
    mesh = build_mesh(4, 4)
    with pytest.raises(InputError, match="dirichlet_nodes"):
        assembly.assemble_operators(mesh, nodes, nu=1.0, dt=0.1)
    for fine in ([], [0, 24], np.array([3, 3], dtype=np.uint8)):
        ops = assembly.assemble_operators(mesh, fine, nu=1.0, dt=0.1)
        assert ops.n_free == 25 - len(set(np.asarray(fine).tolist()))


@pytest.mark.parametrize("supg_on", [False, True])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_advection_is_an_input_error_at_assembly(bad, supg_on):
    # a NaN or infinite field value used to reach A and S and show only at
    # factorization as an overflowing state matrix
    def spoiled(x, y):
        ax, ay = rotation(x, y)
        return np.where(np.asarray(x) > 0.6, bad, ax), ay

    def spoiled_at_centers(x, y):  # finite at every Gauss point
        centre = np.isclose((np.asarray(x) * 4) % 1, 0.5)
        return np.where(centre, bad, 0.5 - np.asarray(y)), np.asarray(x) - 0.5

    mesh = build_mesh(4, 4)
    fields = [spoiled] + ([spoiled_at_centers] if supg_on else [])
    for field in fields:
        with pytest.raises(InputError, match=f"advection field .*{field.__name__}"):
            assembly.assemble_operators(mesh, mesh.boundary_nodes, nu=1.0, dt=0.1,
                                        advection=field, supg_on=supg_on)


def test_advection_values_take_the_points_shape():
    # a constant field broadcasts; a field of another shape is refused, even
    # where numpy would broadcast it (4 elements, a (4, 1) column)
    mesh = build_mesh(2, 2)
    const = assembly.assemble_operators(mesh, [], nu=1.0, dt=0.1,
                                        advection=lambda x, y: (0.5, -1.0),
                                        supg_on=True)
    full = assembly.assemble_operators(
        mesh, [], nu=1.0, dt=0.1, supg_on=True,
        advection=lambda x, y: (np.full_like(x, 0.5), np.full_like(y, -1.0)))
    assert_same_bytes(const.A, full.A)
    assert_same_bytes(const.S_state, full.S_state)
    with pytest.raises(ValueError):
        assembly.assemble_operators(mesh, [], nu=1.0, dt=0.1,
                                    advection=lambda x, y: (x[:, None], y[:, None]))


def test_replaced_operator_set_solves_its_own_system():
    # the LU, the trace response and the state-sum pattern are caches of one
    # set's operators: a copy with other coefficients starts without them
    dec = decompose(build_mesh(4, 4), 0.5)
    ops = assembly.subdomain_operators(dec, 2, nu=1.0, dt=0.1, advection=rotation,
                                       supg_on=True)
    ops.state_factor()
    ops.trace_response(dec.trace_free(2))
    b = np.random.default_rng(5).standard_normal(ops.n_free)
    for changes in ({"nu": 50.0}, {"dt": 0.01}, {"K": 2.0 * ops.K}):
        other = dataclasses.replace(ops, **changes)
        L = other.state_matrix()
        assert abs(L - ops.state_matrix()).max() > 1.0
        x = other.state_factor().solve(b)
        assert np.linalg.norm(L @ x - b) <= 1e-12 * np.linalg.norm(b)
        assert other.trace_response(dec.trace_free(2)) is not ops.trace_response(
            dec.trace_free(2))
    assert dataclasses.replace(ops) == ops  # the caches take no part in equality


def test_state_matrix_overflow_is_an_input_error():
    # finite nu and dt can still overflow nu K, M/dt or their sum with A + S;
    # scipy's sparse add raises no numpy flag, so the entries are checked, and
    # no RuntimeWarning escapes (the test configuration makes it an error)
    mesh = build_mesh(4, 4)
    ops = assembly.assemble_operators(mesh, mesh.boundary_nodes, nu=1.0, dt=0.1,
                                      advection=rotation, supg_on=True)
    assert np.isfinite(ops.state_matrix().data).all()
    huge = 1e308 * sp.identity(ops.n_free, format="csr")
    for changes in ({"nu": 1e308},                   # nu K
                    {"dt": 5e-324},                  # M / dt
                    {"nu": 6e307, "S_state": huge}):  # the sum, each term finite
        with pytest.raises(InputError, match="state matrix overflows"):
            dataclasses.replace(ops, **changes).state_matrix()
    overflowing = assembly.assemble_operators(mesh, mesh.boundary_nodes, nu=1e308,
                                              dt=0.1)
    with pytest.raises(InputError, match="state matrix overflows"):
        overflowing.state_factor()


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


def half_rotation(x, y):
    """Rotation on x > 0.5, exactly zero on the rest: A and S get entries
    that sum to exact zeros, which they drop."""
    x, y = np.asarray(x), np.asarray(y)
    return np.where(x > 0.5, 0.5 - y, 0.0), np.where(x > 0.5, x - 0.5, 0.0)


def assert_same_bytes(got, want):
    assert type(got) is type(want) and got.shape == want.shape
    for part in ("data", "indices", "indptr"):
        a, b = getattr(got, part), getattr(want, part)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), part


def assert_scipy_route(mesh, dirichlet, **kwargs):
    """Every operator of one assembly, and its state matrix, against the
    scipy route of tests/oracles.py, byte for byte."""
    ops = assembly.assemble_operators(mesh, dirichlet, **kwargs)
    free, M, K, A, S = oracles.scipy_operators(mesh, dirichlet, **kwargs)
    np.testing.assert_array_equal(ops.free_nodes, free)
    for got, want in ((ops.M, M), (ops.K, K), (ops.A, A), (ops.S_state, S)):
        assert_same_bytes(got, want)
    assert_same_bytes(ops.state_matrix(), oracles.scipy_state_matrix(
        M, K, A, S, kwargs["nu"], kwargs["dt"]))
    return ops


@pytest.mark.parametrize("level", [4, 8, 16, 32, 64])
def test_operators_are_the_scipy_route_byte_for_byte(level):
    mesh = build_mesh(level, level)
    dec = decompose(mesh, 0.5)
    dropped = 0
    for advection in (None, rotation, half_rotation):
        for supg_on in (False, True):
            for nu in (0.0, 1e-3):
                kwargs = dict(nu=nu, dt=0.4 / level ** 2, advection=advection,
                              supg_on=supg_on)
                assert_scipy_route(mesh, mesh.boundary_nodes, **kwargs)
                for side in (1, 2):
                    ops = assert_scipy_route(dec.sub(side), dec.dirichlet_nodes(side),
                                             **kwargs)
                    dropped += advection is half_rotation and ops.A.nnz < ops.M.nnz
    assert dropped  # the zero field's entries were there to drop
    for side in (1, 2):
        ops = assembly.subdomain_operators(dec, side, nu=1e-3, dt=1e-3)
        for got, want in zip((ops.M_g0, ops.M_g),
                             oracles.scipy_interface_mass(dec, side)):
            assert_same_bytes(got, want)


@settings(max_examples=60, deadline=None)
@given(nx=st.integers(1, 6), ny=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1),
       share=st.sampled_from([0.0, 0.2, 0.5, 1.0]),
       advection=st.sampled_from([None, rotation, half_rotation]),
       supg_on=st.booleans(), nu=st.sampled_from([0.0, 1e-3, 2.0]))
def test_random_dirichlet_sets_are_the_scipy_route(nx, ny, seed, share, advection,
                                                   supg_on, nu):
    # any node subset, any rectangle: the pattern read off the grid is the
    # scipy route's, down to the last byte
    rng = np.random.default_rng(seed)
    x0, y0 = rng.uniform(-2.0, 2.0, 2)
    mesh = build_mesh(nx, ny, x0, x0 + rng.uniform(0.1, 3.0),
                      y0, y0 + rng.uniform(0.1, 3.0))
    dirichlet = np.flatnonzero(rng.random(mesh.n_nodes) < share)
    assert_scipy_route(mesh, dirichlet, nu=nu, dt=rng.uniform(1e-3, 1.0),
                       advection=advection, supg_on=supg_on)


def test_from_triplets_sums_duplicates():
    mat = oracles.from_triplets(3, 3, [0, 0, 1, 2], [0, 0, 1, 0],
                                [1.0, 2.0, 4.0, -1.0])
    dense = mat.toarray()
    assert dense[0, 0] == 3.0
    assert dense[1, 1] == 4.0
    assert dense[2, 0] == -1.0
    assert mat.shape == (3, 3)


def test_from_triplets_validates_indices():
    with pytest.raises(ValueError):
        oracles.from_triplets(2, 2, [0, 3], [0, 0], [1.0, 1.0])
    with pytest.raises(ValueError):
        oracles.from_triplets(2, 2, [0], [0, 1], [1.0, 1.0])
