"""Full-order model: implicit Euler stepping and interface adjoint solves.

The state step on free DOFs solves

  L u^n = f^n + sign_i * M_g0 g + M u^{n-1} / dt,  L = M/dt + nu K + A + S_state

with sign_1 = -1 and sign_2 = +1 for the two subdomains. The adjoint of the
trace-mismatch objective carries no time history and solves the exact
transpose system

  L^T mu = sign_i * M_g0 (u_1 - u_2)|interface.

L is time independent, so it is factored once per subdomain; the adjoint
is a transposed solve with the same LU factors, and both are reused for
every step and every descent iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from obcoupling import assembly, linalg
from obcoupling.errors import InputError
from obcoupling.geometry import Decomposition, Mesh


@dataclass(frozen=True)
class ProblemSpec:
    """Transient advection-diffusion transmission problem on a split rectangle.

    The outer walls carry homogeneous Dirichlet data. :meth:`operators` builds
    each side's operators once for every consumer; ``replace`` copies none.
    """

    decomposition: Decomposition
    nu: float
    a: object          # advection field (x, y) -> (ax, ay), or None
    f: object          # source (x, y, t) -> value, or None
    u0: np.ndarray     # nodal initial condition on the parent mesh (all nodes)
    dt: float
    T: float
    _operators: dict = field(default_factory=dict, init=False, repr=False,
                             compare=False)

    def __post_init__(self):
        n_nodes = self.decomposition.parent.n_nodes
        if np.shape(self.u0) != (n_nodes,):
            raise InputError(f"u0 has shape {np.shape(self.u0)}, the parent mesh "
                             f"has {n_nodes} nodes")
        if not np.isfinite(self.u0).all():
            raise InputError("u0 holds NaN or infinite values")

    def operators(self, side: int, supg_on: bool) -> assembly.OperatorSet:
        """Subdomain ``side``'s operator set, assembled on first use."""
        if (side, supg_on) not in self._operators:
            self._operators[side, supg_on] = assembly.subdomain_operators(
                self.decomposition, side, nu=self.nu, dt=self.dt,
                advection=self.a, supg_on=supg_on)
        return self._operators[side, supg_on]

    @property
    def mesh(self) -> Mesh:
        return self.decomposition.parent

    @property
    def n_steps(self) -> int:
        if not self.dt > 0:
            raise InputError(f"dt={self.dt} must be positive")
        if not math.isfinite(self.T):
            raise InputError(f"T={self.T} must be finite")
        n = int(round(self.T / self.dt))
        if n < 1:
            raise InputError(f"T={self.T} and dt={self.dt} give no timesteps")
        return n


@dataclass(frozen=True)
class Trajectory:
    """Per-timestep free-DOF state vectors, column n holding u at t = n*dt."""

    data: np.ndarray        # (n_free, n_steps + 1)
    dt: float
    free_nodes: np.ndarray  # free node indices in the owning mesh

    @property
    def n_steps(self) -> int:
        return self.data.shape[1] - 1


def sign_of(side: int) -> float:
    """Interface flux orientation (-1)^side of a subdomain."""
    if side not in (1, 2):
        raise ValueError(f"side must be 1 or 2, got {side}")
    return -1.0 if side == 1 else 1.0


def monolithic_solve(problem: ProblemSpec, *, supg_on: bool = False) -> Trajectory:
    """March the undecomposed problem over [0, T]; reference for all couplings."""
    mesh = problem.mesh
    ops = assembly.assemble_operators(
        mesh, mesh.boundary_nodes, nu=problem.nu, dt=problem.dt,
        advection=problem.a, supg_on=supg_on)
    fact = ops.state_factor()

    n_steps = problem.n_steps
    u = np.asarray(problem.u0, dtype=np.float64)[ops.free_nodes]
    data = np.empty((u.size, n_steps + 1), order="F")
    data[:, 0] = u

    for n in range(1, n_steps + 1):
        t = n * problem.dt
        rhs = linalg.csr_matvec(ops.M, u)
        rhs /= problem.dt
        if problem.f is not None:
            rhs += assembly.assemble_load(mesh, ops.free_nodes, problem.f, t)
        u = fact.solve(rhs)
        data[:, n] = u
    return Trajectory(data=data, dt=problem.dt, free_nodes=ops.free_nodes)


def state_step(ops: assembly.OperatorSet, u_prev: np.ndarray, g: np.ndarray,
               f_free: np.ndarray | None, side: int,
               Bg: np.ndarray | None = None) -> np.ndarray:
    """One implicit Euler step of a subdomain with interface control g.

    ``u_prev`` is a float64 array (``linalg.csr_matvec`` forms M u_prev).
    ``Bg``, when given, must be ``ops.M_g0 @ g`` as that expression computes
    it; it stands in for the step's own product.
    """
    rhs = linalg.csr_matvec(ops.M, u_prev)
    rhs /= ops.dt
    if f_free is not None:
        rhs += f_free
    if g is not None:  # rhs += sign * (M_g0 g), with the sign exact
        add = np.subtract if sign_of(side) < 0 else np.add
        add(rhs, ops.M_g0 @ g if Bg is None else Bg, out=rhs)
    return ops.state_factor().solve(rhs)


def adjoint_solve(ops: assembly.OperatorSet, jump: np.ndarray, side: int) -> np.ndarray:
    """Adjoint of the trace mismatch: no history, transposed state operator.

    ``jump`` holds the control-ordered coefficients of (u_1 - u_2) on the
    interface.
    """
    return ops.adjoint_factor().solve(sign_of(side) * (ops.M_g0 @ jump))


def modified_state_step(ops: assembly.OperatorSet, u_snap_prev: np.ndarray,
                        g: np.ndarray, f_free: np.ndarray | None,
                        side: int) -> np.ndarray:
    """State step whose history comes from a stored snapshot, not the iterate.

    Identical system to :func:`state_step`; the distinction is semantic.
    Per-timestep adjoint collection computes this step in interface space
    and does not call it; the tests use it as the sparse-solve oracle of
    that collection.
    """
    return state_step(ops, u_snap_prev, g, f_free, side)
