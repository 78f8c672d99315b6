import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from obcoupling import assembly, fom, rom
from obcoupling.errors import InputError
from obcoupling.geometry import build_mesh, decompose


def rotation(x, y):
    return 0.5 - np.asarray(y), np.asarray(x) - 0.5


def snapshot_fixture(seed=0, n=30, cols=12):
    rng = np.random.default_rng(seed)
    # low-rank plus noise so the spectrum has structure
    base = rng.standard_normal((n, 3)) @ rng.standard_normal((3, cols))
    return rom.SnapshotMatrix(data=base + 1e-6 * rng.standard_normal((n, cols)),
                              kind="state", subdomain=1)


def test_pod_orthonormal_and_nested():
    sm = snapshot_fixture()
    full = rom.full_pod(sm)
    np.testing.assert_allclose(full.Psi.T @ full.Psi, np.eye(full.n_modes),
                               atol=1e-12)
    small = full.truncate(4)
    np.testing.assert_array_equal(small.Psi, full.Psi[:, :4])
    np.testing.assert_array_equal(small.sigma, full.sigma)


def test_pod_validates_mode_count():
    sm = snapshot_fixture()
    full = rom.full_pod(sm)
    for bad in (0, 99, 13):
        with pytest.raises(InputError):
            full.truncate(bad)


def span_fixture(k, seed=0, n=40, cols=25):
    """A snapshot matrix Y @ C with a tall k-column span Y attached."""
    rng = np.random.default_rng(seed)
    Y = rng.standard_normal((n, k))
    C = rng.standard_normal((k, cols)) * np.logspace(0, -6, k)[:, None]
    return rom.SnapshotMatrix(data=Y @ C, kind="adjoint", subdomain=1, span=Y)


@pytest.mark.parametrize("k", [1, 4, 9])
def test_span_route_matches_thin_svd(k):
    sm = span_fixture(k, seed=k)
    basis = rom.full_pod(sm)
    direct = rom.full_pod(sm.data)
    assert basis.n_modes == k
    assert basis.sigma.shape == direct.sigma.shape == (min(sm.data.shape),)
    np.testing.assert_allclose(basis.sigma[:k], direct.sigma[:k], rtol=0,
                               atol=1e-13 * direct.sigma[0])
    assert (basis.sigma[k:] == 0.0).all()
    np.testing.assert_allclose(basis.Psi.T @ basis.Psi, np.eye(k), rtol=0,
                               atol=1e-13)
    # Eckart-Young: the rank-r projection leaves exactly the sigma tail
    norm = np.linalg.norm(sm.data)
    for r in range(k + 1):
        psi = basis.Psi[:, :r]
        resid = np.linalg.norm(sm.data - psi @ (psi.T @ sm.data))
        tail = np.sqrt(np.sum(basis.sigma[r:] ** 2))
        assert abs(resid - tail) <= 1e-13 * norm, r


def test_span_route_falls_back_to_thin_svd_past_span_width():
    sm = span_fixture(4)
    basis = rom.full_pod(sm)
    direct = rom.full_pod(sm.data)
    for n in (5, 12, min(sm.data.shape)):
        got, want = basis.truncate(n), direct.truncate(n)
        assert got.Psi.tobytes() == want.Psi.tobytes()
        assert got.sigma.tobytes() == want.sigma.tobytes()
    np.testing.assert_array_equal(basis.truncate(3).Psi, basis.Psi[:, :3])
    for bad in (0, min(sm.data.shape) + 1):
        with pytest.raises(InputError):
            basis.truncate(bad)


def test_truncate_error_names_the_most_modes_a_basis_can_give():
    # a span-route basis holds k modes but falls back to the data's SVD up
    # to min(data.shape), so that is the limit its error names
    sm = span_fixture(4)
    limit = min(sm.data.shape)
    for basis, most in ((rom.full_pod(sm), limit), (rom.full_pod(sm).truncate(3), 3),
                        (rom.full_pod(sm.data).truncate(6), 6)):
        basis.truncate(most)
        with pytest.raises(InputError,
                           match=f"cannot truncate to {most + 1} of at most {most} modes$"):
            basis.truncate(most + 1)


def test_span_route_rejects_data_off_its_span():
    sm = span_fixture(4)
    rng = np.random.default_rng(3)
    off = sm.data + 1e-9 * rng.standard_normal(sm.data.shape)
    with pytest.raises(ValueError, match="span"):
        rom.full_pod(rom.SnapshotMatrix(off, "adjoint", 1, span=sm.span))
    bad = sm.data.copy()
    bad[2, 3] = np.nan
    with pytest.raises(ValueError, match="span"):
        rom.full_pod(rom.SnapshotMatrix(bad, "adjoint", 1, span=sm.span))


def test_wide_span_takes_the_direct_route():
    sm = span_fixture(4, cols=4)
    basis = rom.full_pod(sm)
    direct = rom.full_pod(sm.data)
    assert basis.Psi.tobytes() == direct.Psi.tobytes()
    assert basis.sigma.tobytes() == direct.sigma.tobytes()


def test_snapshot_energy():
    sigma = np.array([2.0, 1.0, 1.0])
    np.testing.assert_allclose(rom.snapshot_energy(sigma),
                               [4.0 / 6.0, 5.0 / 6.0, 1.0])
    with pytest.raises(ValueError):
        rom.snapshot_energy(np.array([1.0, 2.0]))  # increasing
    with pytest.raises(ValueError):
        rom.snapshot_energy(np.zeros(3))
    with pytest.raises(ValueError):
        rom.snapshot_energy(np.array([1.0, -0.5]))


def test_projection_error_limits():
    sm = snapshot_fixture(seed=5)
    basis = rom.full_pod(sm).truncate(3)
    in_span = basis.Psi @ np.array([1.0, -2.0, 0.5])
    assert rom.projection_error(basis, in_span) < 1e-12
    # residual of a random vector against the basis is orthogonal to it
    rng = np.random.default_rng(1)
    v = rng.standard_normal(sm.data.shape[0])
    resid = v - basis.Psi @ (basis.Psi.T @ v)
    assert rom.projection_error(basis, resid) == pytest.approx(1.0, abs=1e-12)
    assert rom.projection_error(basis, np.zeros_like(v)) == 0.0
    errs = rom.projection_error(basis, np.column_stack([in_span, v]))
    assert errs.shape == (2,) and errs[0] < 1e-12


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 500), k=st.integers(1, 8))
def test_projection_error_nonincreasing_in_modes(seed, k):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((20, 10))
    full = rom.full_pod(data)
    v = rng.standard_normal(20)
    errs = [rom.projection_error(full.truncate(m), v)
            for m in range(1, min(k + 2, full.n_modes + 1))]
    assert (np.diff(errs) <= 1e-12).all()


def reduced_pair(dec, side, Psi_u, Psi_mu=None, **kw):
    ops = assembly.subdomain_operators(dec, side, advection=rotation, **kw)
    rops = rom.reduce_operators(ops, Psi_u, Psi_mu,
                                trace_free=dec.trace_free(side))
    return ops, rops


def test_full_basis_reproduces_fom_step():
    # an orthonormal basis spanning all free DOFs makes the reduced model a
    # change of variables: state and adjoint solves must match to roundoff,
    # with the load projected like the state
    dec = decompose(build_mesh(6, 6), 0.5)
    rng = np.random.default_rng(4)
    for side in (1, 2):
        n_free = dec.free_nodes(side).size
        Q, _ = np.linalg.qr(rng.standard_normal((n_free, n_free)))
        for supg in (False, True):
            ops, rops = reduced_pair(dec, side, Q, Q, nu=1e-3, dt=0.05,
                                     supg_on=supg)
            u_prev = rng.standard_normal(n_free)
            g = rng.standard_normal(dec.n_control)
            for f in (None, rng.standard_normal(n_free)):
                u_full = fom.state_step(ops, u_prev, g, f, side)
                f_hat = None if f is None else Q.T @ f
                uhat = rom.rom_state_step(rops, Q.T @ u_prev, g, f_hat, side)
                np.testing.assert_allclose(Q @ uhat, u_full, atol=1e-11)

            jump = rng.standard_normal(dec.n_control)
            mu_full = fom.adjoint_solve(ops, jump, side)
            muhat = rom.rom_adjoint_from_jump(rops, jump, side)
            np.testing.assert_allclose(Q @ muhat, mu_full, atol=1e-11)


def test_rom_state_step_equals_lu_solve_bitwise():
    # the step solves with LAPACK getrs on the stored factors, the routine
    # lu_solve wraps, so it returns lu_solve's bits with or without a load
    dec = decompose(build_mesh(8, 8), 0.5)
    rng = np.random.default_rng(9)
    for side in (1, 2):
        n_free = dec.free_nodes(side).size
        Psi, _ = np.linalg.qr(rng.standard_normal((n_free, 10)))
        _, rops = reduced_pair(dec, side, Psi, nu=1e-3, dt=0.05, supg_on=True)
        uhat = rng.standard_normal(10)
        g = rng.standard_normal(dec.n_control)
        for f_hat in (None, rng.standard_normal(10)):
            rhs = rops.Mh @ uhat / rops.dt
            if f_hat is not None:
                rhs = rhs + f_hat
            rhs = rhs + fom.sign_of(side) * (rops.PsiT_Mg0 @ g)
            want = scipy.linalg.lu_solve(rops.state_lu, rhs)
            got = rom.rom_state_step(rops, uhat, g, f_hat, side)
            assert got.tobytes() == want.tobytes()
        for bad in (np.nan, np.inf, -np.inf):
            uhat_bad = uhat.copy()
            uhat_bad[3] = bad
            with np.errstate(invalid="ignore"), pytest.raises(ValueError):
                rom.rom_state_step(rops, uhat_bad, g, None, side)


def test_rom_state_step_takes_its_carried_interface_product_bitwise():
    # a march passes PsiT_Mg0 g computed once per control; the step must
    # return the bytes of the step that forms the product itself
    dec = decompose(build_mesh(8, 8), 0.5)
    rng = np.random.default_rng(11)
    for side in (1, 2):
        n_free = dec.free_nodes(side).size
        Psi, _ = np.linalg.qr(rng.standard_normal((n_free, 10)))
        _, rops = reduced_pair(dec, side, Psi, nu=1e-3, dt=0.05, supg_on=True)
        uhat = rng.standard_normal(10)
        g = rng.standard_normal(dec.n_control)
        for f_hat in (None, rng.standard_normal(10)):
            want = rom.rom_state_step(rops, uhat, g, f_hat, side)
            got = rom.rom_state_step(rops, uhat, g, f_hat, side, rops.PsiT_Mg0.dot(g))
            assert got.tobytes() == want.tobytes()


def test_rom_state_step_rejects_a_non_finite_load_without_a_warning():
    # the finiteness check is one dot product against zeros: NaN exactly
    # when an entry is not finite, and silent, so no numpy warning is raised
    # (a RuntimeWarning would fail the test); large finite entries pass
    dec = decompose(build_mesh(8, 8), 0.5)
    rng = np.random.default_rng(12)
    for side in (1, 2):
        n_free = dec.free_nodes(side).size
        Psi, _ = np.linalg.qr(rng.standard_normal((n_free, 10)))
        _, rops = reduced_pair(dec, side, Psi, nu=1e-3, dt=0.05, supg_on=True)
        uhat = rng.standard_normal(10)
        g = rng.standard_normal(dec.n_control)
        for at in (0, 4, 9):
            for bad in (np.nan, np.inf, -np.inf):
                f_hat = rng.standard_normal(10)
                f_hat[at] = bad
                with pytest.raises(ValueError, match="NaN or infinity"):
                    rom.rom_state_step(rops, uhat, g, f_hat, side)
        f_hat = 1e300 * np.where(rng.standard_normal(10) < 0, -1.0, 1.0)
        got = rom.rom_state_step(rops, uhat, g, f_hat, side)
        rhs = rops.Mh @ uhat / rops.dt + f_hat
        rhs = rhs + fom.sign_of(side) * (rops.PsiT_Mg0 @ g)
        assert np.isfinite(rhs).all()
        assert got.tobytes() == scipy.linalg.lu_solve(rops.state_lu, rhs).tobytes()


def test_reduced_adjoint_is_transpose_of_reduced_state():
    # with Psi_mu = Psi_u the reduced adjoint system is the exact transpose
    # of the reduced state system Psi^T L Psi, mirroring the full-order
    # duality: the reduced adjoint response Y is the transposed solve of the
    # reduced state system
    dec = decompose(build_mesh(6, 6), 0.5)
    rng = np.random.default_rng(21)
    n_free = dec.free_nodes(2).size
    Psi, _ = np.linalg.qr(rng.standard_normal((n_free, 7)))
    for supg in (False, True):
        ops, rops = reduced_pair(dec, 2, Psi, Psi, nu=1e-3, dt=0.02, supg_on=supg)
        reduced = Psi.T @ (ops.state_matrix() @ Psi)
        Y = rops.response.Y
        np.testing.assert_allclose(reduced.T @ Y, rops.PsiT_Mg0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            Y, scipy.linalg.lu_solve(rops.state_lu, rops.PsiT_Mg0, trans=1),
            rtol=0, atol=1e-12 * np.abs(Y).max())
        b = rng.standard_normal((7, 3))
        u = scipy.linalg.lu_solve(rops.state_lu, b)
        np.testing.assert_allclose(reduced @ u, b, rtol=0, atol=1e-12)
