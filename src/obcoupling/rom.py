"""Proper orthogonal decomposition and reduced subdomain models.

Bases come from one thin SVD per snapshot matrix (snapshots live on the free
DOFs, plain l2 inner product); truncated bases are nested prefixes of that
single SVD. A snapshot matrix may carry a ``span``: k columns whose span
holds every snapshot (the adjoint collectors attach Y_i, k = n_control).
When k < min(data.shape), ``full_pod`` takes the span route: one QR of the
span, Q R = span, and the thin SVD of the k-row matrix Q^T data, so the
basis is Q times its left singular vectors, and ``sigma`` is its k singular
values padded with exact zeros to min(data.shape). Nested prefixes then hold
up to k modes; a basis asked for more comes from the thin SVD of the data
itself (``ReducedBasis.truncate``), which is the one place that rule lives.
A reduced model projects the full-order state system L twice:
Psi_u^T L Psi_u under the state basis and Psi_mu^T L^T Psi_mu, its adjoint,
under the adjoint basis. A full orthonormal basis therefore reproduces the
corresponding full-order solve exactly (change of basis). A reduced model
answers the interface through an ``assembly.TraceResponse`` in its own
coordinates, formed when the model is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg.blas import ddot
from scipy.linalg.lapack import dgetrs

from obcoupling import assembly, linalg
from obcoupling.errors import InputError
from obcoupling.fom import sign_of


@dataclass(frozen=True)
class SnapshotMatrix:
    """Columns of free-DOF vectors collected from one subdomain."""

    data: np.ndarray   # (n_free, n_snapshots)
    kind: str          # "state" or "adjoint"
    subdomain: int
    span: np.ndarray | None = None  # (n_free, k) columns spanning every snapshot

    @property
    def n_snapshots(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class ReducedBasis:
    """Leading left singular vectors of a snapshot matrix.

    A basis from the span route keeps its snapshot ``data``, so a request
    for more modes than it holds can fall back to the data's own SVD.
    """

    Psi: np.ndarray    # (n_free, n_modes), orthonormal columns
    sigma: np.ndarray  # full singular value spectrum of the snapshot matrix
    data: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def n_modes(self) -> int:
        return self.Psi.shape[1]

    def truncate(self, n_modes: int) -> "ReducedBasis":
        limit = self.n_modes if self.data is None else self.sigma.size
        if not 1 <= n_modes <= limit:
            raise InputError(f"cannot truncate to {n_modes} of at most {limit} modes")
        if n_modes > self.n_modes:
            # the span route gave only span-width modes; more come from the
            # thin SVD of the data, exactly as without a span
            return full_pod(self.data).truncate(n_modes)
        return ReducedBasis(Psi=self.Psi[:, :n_modes], sigma=self.sigma)


def full_pod(snapshots) -> ReducedBasis:
    """All left singular vectors; truncate() yields every nested basis.

    A SnapshotMatrix whose span is narrower than min(data.shape) takes the
    span route (module docstring); snapshots that leave the span by more
    than 1e-12 of their Frobenius norm, or hold NaN, raise ValueError.
    """
    if isinstance(snapshots, SnapshotMatrix):
        data, span = snapshots.data, snapshots.span
    else:
        data, span = np.asarray(snapshots), None
    if span is None or span.shape[1] >= min(data.shape):
        u, s, _ = linalg.thin_svd(data)
        return ReducedBasis(Psi=u, sigma=s)
    q, _ = np.linalg.qr(span)
    coeff = q.T @ data
    if not np.linalg.norm(data - q @ coeff) <= 1e-12 * np.linalg.norm(data):
        raise ValueError("snapshots do not lie in the span attached to them")
    u, s, _ = linalg.thin_svd(coeff)
    sigma = np.zeros(min(data.shape))
    sigma[:s.size] = s
    return ReducedBasis(Psi=q @ u, sigma=sigma, data=data)


def snapshot_energy(sigma: np.ndarray) -> np.ndarray:
    """Cumulative energy fractions sum(sigma_i^2, i<=k) / sum(sigma_i^2)."""
    sigma = np.asarray(sigma, dtype=np.float64)
    if sigma.ndim != 1 or sigma.size == 0:
        raise ValueError("sigma must be a nonempty 1-d array")
    if (sigma < 0).any() or (np.diff(sigma) > 0).any():
        raise ValueError("singular values must be nonnegative and nonincreasing")
    total = np.sum(sigma ** 2)
    if total == 0.0:
        raise ValueError("all singular values are zero")
    return np.cumsum(sigma ** 2) / total


def projection_error(basis: ReducedBasis, vectors: np.ndarray) -> np.ndarray | float:
    """Relative l2 error of projecting vectors onto the basis column span.

    Accepts one vector or a matrix of columns; zero vectors report error 0.
    """
    v = np.asarray(vectors, dtype=np.float64)
    single = v.ndim == 1
    if single:
        v = v[:, None]
    coeff = basis.Psi.T @ v
    resid = v - basis.Psi @ coeff
    norms = np.linalg.norm(v, axis=0)
    errs = np.zeros(v.shape[1])
    nz = norms > 0
    errs[nz] = np.linalg.norm(resid[:, nz], axis=0) / norms[nz]
    return float(errs[0]) if single else errs


@dataclass(frozen=True)
class ReducedOperatorSet:
    """Galerkin-projected systems of one subdomain, factored once.

    ``state_lu`` is the LU factor of Psi_u^T L Psi_u, with L the full-order
    state system; Mh = Psi_u^T M Psi_u carries the history term. ``response``
    maps reduced histories and loads to traces, and its
    Y = (Psi_mu^T L^T Psi_mu)^{-1} Psi_mu^T M_g0 gives reduced adjoints. The
    adjoint basis Psi_mu enters only through Y and T Y, so it is not kept.
    ``zeros`` is a zero vector of the reduced state's length, against which
    a step checks its right-hand side for NaN and infinity in one dot.
    """

    dt: float
    Psi_u: np.ndarray
    Mh: np.ndarray
    state_lu: tuple           # scipy.linalg.lu_factor of the reduced state system
    PsiT_Mg0: np.ndarray      # (n_u, n_control)
    response: assembly.TraceResponse
    zeros: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "zeros", np.zeros(self.Mh.shape[0]))


def _project(mat, basis: np.ndarray) -> np.ndarray:
    return basis.T @ (mat @ basis)


def reduce_operators(ops: assembly.OperatorSet, Psi_u: np.ndarray,
                     Psi_mu: np.ndarray | None = None, *,
                     trace_free: np.ndarray) -> ReducedOperatorSet:
    """Project one subdomain's state system onto reduced bases and factor it.

    ``trace_free`` gives the control-ordered free indices of the interface
    (the interface map of the decomposition).
    """
    if Psi_mu is None:
        Psi_mu = Psi_u
    if ops.M_g0 is None:
        raise ValueError("reduce_operators needs subdomain operators with interface blocks")

    system = ops.state_matrix()
    Mh = _project(ops.M, Psi_u)
    state_lu = scipy.linalg.lu_factor(_project(system, Psi_u))
    PsiT_Mg0 = (ops.M_g0.T @ Psi_u).T.copy()
    # W^T = (T Psi_u) (Psi_u^T L Psi_u)^{-1}, Y from the reduced adjoint system
    WT = scipy.linalg.lu_solve(state_lu, Psi_u[trace_free].T, trans=1).T
    Y = scipy.linalg.lu_solve(scipy.linalg.lu_factor(_project(system.T, Psi_mu)),
                              (ops.M_g0.T @ Psi_mu).T)
    return ReducedOperatorSet(
        dt=ops.dt, Psi_u=Psi_u, Mh=Mh,
        state_lu=state_lu, PsiT_Mg0=PsiT_Mg0, response=assembly.TraceResponse(
            trace_free=np.array(trace_free, dtype=np.int64), Y=Y, WT=WT,
            P=WT @ Mh / ops.dt, TZ=WT @ PsiT_Mg0, TY=Psi_mu[trace_free] @ Y))


def rom_state_step(rops: ReducedOperatorSet, uhat_prev: np.ndarray,
                   g: np.ndarray, f_hat: np.ndarray | None, side: int,
                   Bg: np.ndarray | None = None) -> np.ndarray:
    """One reduced implicit Euler step with interface control g.

    ``f_hat`` is the step's projected load Psi_u^T f, or None. ``Bg``, when
    given, must be ``rops.PsiT_Mg0.dot(g)`` as that expression computes it;
    it stands in for the step's own product. The solve is LAPACK's getrs on
    the stored factors, the routine ``lu_solve`` wraps; a right-hand side
    holding NaN or infinity raises ValueError as there.
    """
    rhs = rops.Mh.dot(uhat_prev)  # the BLAS call of @, with less overhead
    rhs /= rops.dt
    if f_hat is not None:
        rhs += f_hat
    if g is not None:  # rhs += sign * (PsiT_Mg0 g), with the sign exact
        add = np.subtract if sign_of(side) < 0 else np.add
        add(rhs, rops.PsiT_Mg0.dot(g) if Bg is None else Bg, out=rhs)
    # rhs . 0 is NaN exactly when an entry is NaN or infinite; unlike
    # np.isfinite it allocates nothing, and BLAS raises no numpy warning
    if ddot(rhs, rops.zeros) != 0.0:
        raise ValueError("reduced state step: right-hand side holds NaN or infinity")
    lu, piv = rops.state_lu
    return dgetrs(lu, piv, rhs, 0, 1)[0]  # trans=0, overwrite_b=1


def rom_adjoint_from_jump(rops: ReducedOperatorSet, jump: np.ndarray,
                          side: int) -> np.ndarray:
    """Reduced adjoint from a control-ordered interface jump: sign Y jump."""
    return sign_of(side) * (rops.response.Y @ jump)
