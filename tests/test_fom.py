import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from obcoupling import assembly, fom
from obcoupling.errors import InputError
from obcoupling.geometry import build_mesh, decompose


def rotation(x, y):
    return 0.5 - np.asarray(y), np.asarray(x) - 0.5


def make_problem(nx=4, ny=4, nu=0.05, dt=0.05, n_steps=4, a=None, f=None,
                 seed=0):
    mesh = build_mesh(nx, ny)
    dec = decompose(mesh, 0.5)
    rng = np.random.default_rng(seed)
    u0 = rng.standard_normal(mesh.n_nodes)
    u0[mesh.boundary_nodes] = 0.0
    return fom.ProblemSpec(decomposition=dec, nu=nu, a=a, f=f, u0=u0, dt=dt,
                           T=n_steps * dt)


def test_sign_convention():
    assert fom.sign_of(1) == -1.0
    assert fom.sign_of(2) == 1.0
    with pytest.raises(ValueError):
        fom.sign_of(0)


def test_monolithic_diffusion_matches_dense_oracle():
    prob = make_problem(nu=0.3, dt=0.02, n_steps=5)
    traj = fom.monolithic_solve(prob)
    mesh = prob.mesh
    M, K, A = oracles.assemble_dense(mesh)
    free = np.setdiff1d(np.arange(mesh.n_nodes), mesh.boundary_nodes)
    ref = oracles.backward_euler_dense(M, K, A, free, prob.nu, prob.dt,
                                       prob.u0, 5)
    np.testing.assert_allclose(traj.data, ref, atol=1e-12)


def test_monolithic_advection_matches_dense_oracle():
    prob = make_problem(nu=0.01, dt=0.04, n_steps=4, a=rotation)
    traj = fom.monolithic_solve(prob)
    mesh = prob.mesh
    M, K, A = oracles.assemble_dense(mesh, rotation)
    free = np.setdiff1d(np.arange(mesh.n_nodes), mesh.boundary_nodes)
    ref = oracles.backward_euler_dense(M, K, A, free, prob.nu, prob.dt,
                                       prob.u0, 4)
    np.testing.assert_allclose(traj.data, ref, atol=1e-12)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 1000))
def test_pure_diffusion_is_dissipative(seed):
    prob = make_problem(nu=0.2, dt=0.1, n_steps=6, seed=seed)
    traj = fom.monolithic_solve(prob)
    ops = assembly.assemble_operators(prob.mesh, prob.mesh.boundary_nodes,
                                      nu=prob.nu, dt=prob.dt)
    norms = [traj.data[:, n] @ (ops.M @ traj.data[:, n])
             for n in range(traj.n_steps + 1)]
    assert (np.diff(norms) <= 1e-14).all()


def test_state_adjoint_duality():
    # <L^{-1} v, w> == <v, L^{-T} w> between the state and the adjoint solve
    # must hold to roundoff, with and without stabilization, for the
    # gradient of the coupling objective to be exact.
    dec = decompose(build_mesh(6, 6), 0.5)
    rng = np.random.default_rng(7)
    for supg in (False, True):
        for side in (1, 2):
            ops = assembly.subdomain_operators(dec, side, nu=1e-3, dt=0.05,
                                               advection=rotation, supg_on=supg)
            v = rng.standard_normal(ops.n_free)
            w = rng.standard_normal(ops.n_free)
            lhs = ops.state_factor().solve(v) @ w
            rhs = v @ ops.adjoint_factor().solve(w)
            assert lhs == pytest.approx(rhs, rel=1e-13)


def test_state_step_linear_in_control():
    dec = decompose(build_mesh(6, 4), 0.5)
    ops = assembly.subdomain_operators(dec, 1, nu=1e-2, dt=0.05,
                                       advection=rotation)
    rng = np.random.default_rng(5)
    u_prev = rng.standard_normal(ops.n_free)
    g1 = rng.standard_normal(dec.n_control)
    g2 = rng.standard_normal(dec.n_control)
    u_a = fom.state_step(ops, u_prev, g1, None, 1)
    u_b = fom.state_step(ops, np.zeros_like(u_prev), g2, None, 1)
    u_ab = fom.state_step(ops, u_prev, g1 + g2, None, 1)
    np.testing.assert_allclose(u_ab, u_a + u_b, atol=1e-12)


def test_state_step_takes_its_carried_interface_product_bitwise():
    # a march passes M_g0 g computed once per control; the step must return
    # the bytes of the step that forms the product itself
    dec = decompose(build_mesh(8, 8), 0.5)
    rng = np.random.default_rng(5)
    for side in (1, 2):
        ops = assembly.subdomain_operators(dec, side, nu=1e-3, dt=0.05,
                                           advection=rotation, supg_on=True)
        u_prev = rng.standard_normal(ops.n_free)
        g = rng.standard_normal(dec.n_control)
        for f in (None, rng.standard_normal(ops.n_free)):
            want = fom.state_step(ops, u_prev, g, f, side)
            got = fom.state_step(ops, u_prev, g, f, side, ops.M_g0 @ g)
            assert got.tobytes() == want.tobytes()


def test_adjoint_no_history_and_sign():
    dec = decompose(build_mesh(6, 4), 0.5)
    rng = np.random.default_rng(9)
    jump = rng.standard_normal(dec.n_control)
    for side in (1, 2):
        ops = assembly.subdomain_operators(dec, side, nu=1e-2, dt=0.05,
                                           advection=rotation)
        mu = fom.adjoint_solve(ops, jump, side)
        lhs = ops.state_matrix().T @ mu
        rhs = fom.sign_of(side) * (ops.M_g0 @ jump)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)
        # doubling the mismatch doubles the adjoint
        np.testing.assert_allclose(fom.adjoint_solve(ops, 2 * jump, side),
                                   2 * mu, atol=1e-12)


def extract_exact_flux(dec, ops_1, mono_free_1):
    """Interface control reproducing the monolithic restriction on side 1.

    The residual of the subdomain-1 equation at the restricted monolithic
    states is supported on the interface rows; dividing by the interface
    mass (and the side sign) recovers the flux the control must supply.
    """
    # residual of one step: L u^n - M u^{n-1}/dt
    L = ops_1.state_matrix()
    r = L @ mono_free_1[:, 1] - ops_1.M @ mono_free_1[:, 0] / ops_1.dt
    trace = dec.trace_free(1)
    off = np.setdiff1d(np.arange(r.size), trace)
    assert np.abs(r[off]).max() < 1e-12
    M_g = ops_1.M_g.toarray()
    return np.linalg.solve(fom.sign_of(1) * M_g, r[trace])


def test_subdomains_reproduce_monolithic_with_exact_flux():
    # The transmission problem has an exact interface flux: driving both
    # subdomains with it reproduces the monolithic solution on each side.
    prob = make_problem(nx=8, ny=8, nu=1e-3, dt=0.05, n_steps=1, a=rotation)
    dec = prob.decomposition
    traj = fom.monolithic_solve(prob, supg_on=True)

    parent_to_free = np.full(prob.mesh.n_nodes, -1, dtype=np.int64)
    parent_to_free[traj.free_nodes] = np.arange(traj.free_nodes.size)
    restricted = {}
    for side in (1, 2):
        rows = parent_to_free[dec.node_map(side)[dec.free_nodes(side)]]
        restricted[side] = traj.data[rows, :]

    ops = {side: assembly.subdomain_operators(dec, side, nu=prob.nu,
                                              dt=prob.dt, advection=rotation,
                                              supg_on=True)
           for side in (1, 2)}
    g_star = extract_exact_flux(dec, ops[1], restricted[1])

    for side in (1, 2):
        u = fom.state_step(ops[side], restricted[side][:, 0], g_star, None, side)
        np.testing.assert_allclose(u, restricted[side][:, 1], atol=1e-11)
    # and the traces match, so the coupling objective at g* is zero
    u_1 = fom.state_step(ops[1], restricted[1][:, 0], g_star, None, 1)
    u_2 = fom.state_step(ops[2], restricted[2][:, 0], g_star, None, 2)
    jump = u_1[dec.trace_free(1)] - u_2[dec.trace_free(2)]
    assert np.abs(jump).max() < 1e-11


def test_modified_state_step_uses_given_history():
    dec = decompose(build_mesh(4, 4), 0.5)
    ops = assembly.subdomain_operators(dec, 1, nu=1e-2, dt=0.1)
    rng = np.random.default_rng(2)
    u_snap = rng.standard_normal(ops.n_free)
    g = rng.standard_normal(dec.n_control)
    np.testing.assert_array_equal(
        fom.modified_state_step(ops, u_snap, g, None, 1),
        fom.state_step(ops, u_snap, g, None, 1))


def test_problem_builds_each_sides_operators_once():
    prob = make_problem(a=rotation)
    ops = prob.operators(1, True)
    assert prob.operators(1, True) is ops
    assert prob.operators(1, False) is not ops
    assert prob.operators(2, True) is not ops
    want = assembly.subdomain_operators(prob.decomposition, 1, nu=prob.nu,
                                        dt=prob.dt, advection=rotation,
                                        supg_on=True)
    assert abs(ops.state_matrix() - want.state_matrix()).max() == 0.0
    # a replaced problem starts empty and builds operators of its own fields
    assert dataclasses.replace(prob).operators(1, True) is not ops
    assert dataclasses.replace(prob, dt=0.1).operators(1, True).dt == 0.1
    assert "_operators" not in repr(prob)


def test_problem_rejects_u0_that_does_not_fit_its_mesh():
    # one entry per parent mesh node, or the march silently reads a prefix
    prob = make_problem(nx=8, ny=8)
    with pytest.raises(InputError, match="u0 has shape"):
        dataclasses.replace(prob, u0=np.concatenate([prob.u0, np.zeros(50)]))
    with pytest.raises(InputError, match="u0 has shape"):
        dataclasses.replace(prob, u0=prob.u0[:-1])


def test_problem_rejects_non_finite_u0():
    # a NaN initial state would run every step and stop each as non_finite
    prob = make_problem(nx=8, ny=8)
    for bad in (np.nan, np.inf):
        u0 = prob.u0.copy()
        u0[40] = bad
        with pytest.raises(InputError, match="NaN or infinite"):
            dataclasses.replace(prob, u0=u0)
