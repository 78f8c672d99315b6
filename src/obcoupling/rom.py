"""Proper orthogonal decomposition and reduced subdomain models.

Bases come from one thin SVD per snapshot matrix (snapshots live on the free
DOFs, plain l2 inner product); truncated bases are nested prefixes of that
single SVD. A reduced model projects the full-order state system L twice:
Psi_u^T L Psi_u under the state basis and Psi_mu^T L^T Psi_mu, its adjoint,
under the adjoint basis. A full orthonormal basis therefore reproduces the
corresponding full-order solve exactly (change of basis). A reduced model
answers the interface through an ``assembly.TraceResponse`` in its own
coordinates, formed when the model is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from obcoupling import assembly, linalg
from obcoupling.errors import InputError
from obcoupling.fom import sign_of


@dataclass(frozen=True)
class SnapshotMatrix:
    """Columns of free-DOF vectors collected from one subdomain."""

    data: np.ndarray   # (n_free, n_snapshots)
    kind: str          # "state" or "adjoint"
    subdomain: int

    @property
    def n_snapshots(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class ReducedBasis:
    """Leading left singular vectors of a snapshot matrix."""

    Psi: np.ndarray    # (n_free, n_modes), orthonormal columns
    sigma: np.ndarray  # full singular value spectrum of the snapshot matrix

    @property
    def n_modes(self) -> int:
        return self.Psi.shape[1]

    def truncate(self, n_modes: int) -> "ReducedBasis":
        if not 1 <= n_modes <= self.n_modes:
            raise InputError(f"cannot truncate {self.n_modes}-mode basis to {n_modes}")
        return ReducedBasis(Psi=self.Psi[:, :n_modes], sigma=self.sigma)


def full_pod(snapshots) -> ReducedBasis:
    """All left singular vectors; truncate() yields every nested basis."""
    data = snapshots.data if isinstance(snapshots, SnapshotMatrix) else np.asarray(snapshots)
    u, s, _ = linalg.thin_svd(data)
    return ReducedBasis(Psi=u, sigma=s)


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
    Y = (Psi_mu^T L^T Psi_mu)^{-1} Psi_mu^T M_g0 gives reduced adjoints.
    """

    side: int
    dt: float
    Psi_u: np.ndarray
    Psi_mu: np.ndarray
    Mh: np.ndarray
    state_lu: tuple           # scipy.linalg.lu_factor of the reduced state system
    PsiT_Mg0: np.ndarray      # (n_u, n_control)
    response: assembly.TraceResponse

    def lift(self, uhat: np.ndarray) -> np.ndarray:
        """Free-DOF representation Psi_u @ uhat of a reduced state."""
        return self.Psi_u @ uhat

    def lift_adjoint(self, muhat: np.ndarray) -> np.ndarray:
        return self.Psi_mu @ muhat


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
        side=ops.side, dt=ops.dt, Psi_u=Psi_u, Psi_mu=Psi_mu, Mh=Mh,
        state_lu=state_lu, PsiT_Mg0=PsiT_Mg0, response=assembly.TraceResponse(
            trace_free=np.array(trace_free, dtype=np.int64), Y=Y, WT=WT,
            P=WT @ Mh / ops.dt, TZ=WT @ PsiT_Mg0, TY=Psi_mu[trace_free] @ Y))


def rom_state_step(rops: ReducedOperatorSet, uhat_prev: np.ndarray,
                   g: np.ndarray, f_hat: np.ndarray | None, side: int) -> np.ndarray:
    """One reduced implicit Euler step with interface control g.

    ``f_hat`` is the step's projected load Psi_u^T f, or None.
    """
    rhs = rops.Mh @ uhat_prev / rops.dt
    if f_hat is not None:
        rhs = rhs + f_hat
    if g is not None:
        rhs = rhs + sign_of(side) * (rops.PsiT_Mg0 @ g)
    return scipy.linalg.lu_solve(rops.state_lu, rhs)


def rom_adjoint_from_jump(rops: ReducedOperatorSet, jump: np.ndarray,
                          side: int) -> np.ndarray:
    """Reduced adjoint from a control-ordered interface jump: sign Y jump."""
    return sign_of(side) * (rops.response.Y @ jump)
