import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from obcoupling import linalg


def test_factorization_matches_dense_solve():
    rng = np.random.default_rng(3)
    dense = rng.standard_normal((12, 12)) + 12 * np.eye(12)
    fact = linalg.factorize(sp.csr_matrix(dense))
    rhs = rng.standard_normal(12)
    np.testing.assert_allclose(fact.solve(rhs), np.linalg.solve(dense, rhs),
                               rtol=1e-12)
    stacked = rng.standard_normal((12, 4))
    np.testing.assert_allclose(fact.solve(stacked),
                               np.linalg.solve(dense, stacked), rtol=1e-12)


def test_transposed_view_shares_the_factors():
    rng = np.random.default_rng(4)
    dense = rng.standard_normal((12, 12)) + 12 * np.eye(12)
    fact = linalg.factorize(sp.csr_matrix(dense))
    rhs = rng.standard_normal((12, 3))
    np.testing.assert_allclose(fact.T.solve(rhs), np.linalg.solve(dense.T, rhs),
                               rtol=1e-12)
    np.testing.assert_array_equal(fact.T.T.solve(rhs), fact.solve(rhs))
    np.testing.assert_allclose(dense @ fact.T.T.solve(rhs[:, 0]), rhs[:, 0],
                               rtol=1e-12)
    assert fact.T._lu is fact._lu
    with pytest.raises(ValueError):
        fact.T.solve(np.ones(5))


def test_factorization_rejects_bad_shapes():
    with pytest.raises(ValueError):
        linalg.factorize(sp.csr_matrix(np.ones((3, 4))))
    fact = linalg.factorize(sp.identity(4, format="csr"))
    with pytest.raises(ValueError):
        fact.solve(np.ones(5))


def test_thin_svd_reconstructs():
    rng = np.random.default_rng(11)
    mat = rng.standard_normal((20, 7))
    u, s, vt = linalg.thin_svd(mat)
    assert u.shape == (20, 7) and s.shape == (7,) and vt.shape == (7, 7)
    np.testing.assert_allclose(u @ np.diag(s) @ vt, mat, atol=1e-12)
    np.testing.assert_allclose(u.T @ u, np.eye(7), atol=1e-12)
    assert (np.diff(s) <= 0).all()


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_rows=st.integers(1, 40),
       n_cols=st.integers(1, 40), density=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
       specials=st.booleans(), index64=st.booleans())
def test_csr_matvec_is_the_sparse_product_bitwise(seed, n_rows, n_cols, density,
                                                  specials, index64):
    # the kernel scipy's A @ x runs after dispatch: the same bytes, signed
    # zeros and non-finite entries included, in matrix and vector alike
    rng = np.random.default_rng(seed)
    mat = sp.random(n_rows, n_cols, density=density, format="csr", random_state=rng)
    x = rng.standard_normal(n_cols)
    if specials:
        pool = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, 1e308, -1e-320])
        mat.data[rng.random(mat.nnz) < 0.3] = rng.choice(pool)
        x[rng.random(n_cols) < 0.3] = rng.choice(pool)
    if index64:
        mat.indices = mat.indices.astype(np.int64)
        mat.indptr = mat.indptr.astype(np.int64)
    with np.errstate(all="ignore"):
        want = mat @ x
        got = linalg.csr_matvec(mat, x)
    assert got.dtype == np.float64 and got.shape == (n_rows,)
    assert got.tobytes() == want.tobytes()


def test_csr_matvec_takes_only_float64_csr_and_a_fitting_vector():
    mat = sp.random(5, 4, density=0.5, format="csr", random_state=0)
    x = np.ones(4)
    for bad in (mat.tocsc(), mat.tocoo(), mat.astype(np.float32), mat.toarray()):
        with pytest.raises(TypeError):
            linalg.csr_matvec(bad, x)
    for bad in (np.ones(4, dtype=np.int64), [1.0] * 4, np.ones(4, dtype=np.float32)):
        with pytest.raises(TypeError):
            linalg.csr_matvec(mat, bad)
    for bad in (np.ones(5), np.ones((4, 1)), np.ones(3)):
        with pytest.raises(ValueError):
            linalg.csr_matvec(mat, bad)
