"""Q1 finite element operators on structured meshes.

All volume integrals use 2x2 Gauss quadrature on the reference square, which is
exact for every integrand appearing here (bilinear shapes, affine advection
fields, axis-aligned elements). The interface mass is the 1D mass of the
interface hats, tridiagonal h/6 * [1, 4, 1] on the control nodes.

Operator conventions on the free degrees of freedom:

  M[k, j] = (phi_j, phi_k)            mass
  K[k, j] = (grad phi_j, grad phi_k)  stiffness
  A[k, j] = (a phi_k, grad phi_j)     advection, equals (a . grad phi_j, phi_k)

The implicit state step solves (M/dt + nu K + A + S_state) u = rhs. The
adjoint system is its exact transpose, so it is one transposed solve with the
state system's single LU factorization, and the discrete sensitivity/adjoint
duality holds to solver precision. For a divergence-free field, A + A^T
equals the boundary flux matrix int_boundary (a.n) phi_k phi_j, so the
advection block is skew up to interface terms.

SUPG stabilization adds, per element,
  tau_e * (phi_j/dt + a . grad phi_j, a . grad phi_k)
with tau_e = ((2/dt)^2 + (2|a|/h_e)^2 + (9 * 4 nu / h_e^2)^2)^(-1/2), |a| taken
at the element center and h_e = sqrt(hx*hy). It enters the left-hand sides
only; with a = 0 the stabilization vanishes identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from obcoupling import linalg
from obcoupling.errors import InputError
from obcoupling.geometry import Decomposition, Mesh, free_arrays


_G = 1.0 / np.sqrt(3.0)
# 2x2 Gauss points (xi, eta) on the reference square [-1, 1]^2; every weight is 1
_GAUSS_POINTS = ((-_G, -_G), (_G, -_G), (_G, _G), (-_G, _G))


def _shape_values(xi: float, eta: float) -> np.ndarray:
    """Q1 shapes at a reference point, counterclockwise [BL, BR, TR, TL]."""
    return 0.25 * np.array([(1 - xi) * (1 - eta), (1 + xi) * (1 - eta),
                            (1 + xi) * (1 + eta), (1 - xi) * (1 + eta)])


def _shape_gradients(xi: float, eta: float) -> np.ndarray:
    """Reference gradients dN/d(xi, eta), shape (4, 2)."""
    return 0.25 * np.array([
        [-(1 - eta), -(1 - xi)],
        [(1 - eta), -(1 + xi)],
        [(1 + eta), (1 + xi)],
        [-(1 + eta), (1 - xi)],
    ])


@dataclass(frozen=True)
class TraceResponse:
    """How one subdomain model answers the interface, as dense maps.

    With A the state matrix, T the selection of the interface values in
    control order, W = A^{-T} T^T and Y = A^{-T} M_g0 (one multi-column
    adjoint solve on [M_g0 | T^T]), the interface trace of a state step is

        T u = P u_prev + W^T f + sign (T Z) g,  P = W^T M / dt,  T Z = W^T M_g0

    and the adjoint of an interface jump is sign Y jump, with trace
    sign (T Y) jump. A reduced model has the same record in its own
    coordinates (``rom.reduce_operators``). Signs are left to the caller.
    """

    trace_free: np.ndarray  # (n_control,) free indices of the interface nodes
    Y: np.ndarray           # (n_adjoint, n_control)
    WT: np.ndarray          # (n_control, n_state) W^T, maps a load to its trace
    P: np.ndarray           # (n_control, n_state) history map
    TZ: np.ndarray          # (n_control, n_control)
    TY: np.ndarray          # (n_control, n_control)

    def zero_control_trace(self, u_prev: np.ndarray, f=None) -> np.ndarray:
        """Interface trace P u_prev + W^T f of a state step at zero control."""
        return self.P @ u_prev if f is None else self.P @ u_prev + self.WT @ f


@dataclass
class OperatorSet:
    """Assembled operators for one mesh, restricted to its free DOFs.

    Interface fields are present only for decomposed subdomains. The state
    system is factored once on first use; the adjoint factor is a transposed
    view of the same factors. The factors and the interface trace response
    are reused for every timestep and descent iteration.
    """

    nu: float
    dt: float
    free_nodes: np.ndarray
    M: sp.csr_matrix
    K: sp.csr_matrix
    A: sp.csr_matrix
    S_state: sp.csr_matrix
    M_g0: sp.csr_matrix | None = None   # (n_free, n_control) interface mass
    M_g: sp.csr_matrix | None = None    # (n_control, n_control) control mass
    _state_fact: linalg.Factorization | None = field(default=None, repr=False)
    _trace_response: TraceResponse | None = field(default=None, repr=False)

    @property
    def n_free(self) -> int:
        return self.free_nodes.size

    def state_matrix(self) -> sp.csr_matrix:
        """M/dt + nu K + A + S_state; InputError if an entry is not finite."""
        with np.errstate(over="ignore"):  # the sum's entries are checked instead
            L = (self.M / self.dt + self.nu * self.K + self.A + self.S_state).tocsr()
        if not np.isfinite(L.data).all():
            raise InputError(f"state matrix overflows at nu={self.nu}, dt={self.dt}")
        return L

    def state_factor(self) -> linalg.Factorization:
        if self._state_fact is None:
            self._state_fact = linalg.factorize(self.state_matrix())
        return self._state_fact

    def adjoint_factor(self) -> linalg.Factorization:
        """Solves with state_matrix().T, on the state system's factors."""
        return self.state_factor().T

    def trace_response(self, trace_free: np.ndarray) -> TraceResponse:
        """Interface maps of this subdomain (see TraceResponse), from one
        transposed solve with the state factors; cached for the given
        interface indices."""
        cached = self._trace_response
        if cached is not None and np.array_equal(cached.trace_free, trace_free):
            return cached
        n_control = self.M_g0.shape[1]
        trace_free = np.array(trace_free, dtype=np.int64)
        if trace_free.shape != (n_control,):
            raise ValueError(f"trace_free must hold {n_control} indices")
        rhs = np.zeros((self.n_free, 2 * n_control), order="F")
        rhs[:, :n_control] = self.M_g0.toarray()
        rhs[trace_free, n_control + np.arange(n_control)] = 1.0
        sol = self.adjoint_factor().solve(rhs)
        Y, W = sol[:, :n_control], sol[:, n_control:]
        self._trace_response = TraceResponse(
            trace_free=trace_free, Y=np.asfortranarray(Y),
            WT=np.ascontiguousarray(W.T),
            P=np.ascontiguousarray((self.M.T @ W).T / self.dt),
            TZ=(self.M_g0.T @ W).T, TY=Y[trace_free])
        return self._trace_response


def _assemble_volume(mesh: Mesh, advection, nu: float, dt: float, supg_on: bool):
    """Element loops for M, K, A, S_state over the full node space."""
    hx, hy = mesh.hx, mesh.hy
    corners = mesh.coords[mesh.elements[:, 0]]  # bottom-left corner per element
    jac = hx * hy / 4.0
    n_el = mesh.n_elements

    m_el = np.zeros((4, 4))
    k_el = np.zeros((4, 4))
    a_el = np.zeros((n_el, 4, 4))
    s_el = np.zeros((n_el, 4, 4))

    if advection is not None and supg_on:
        cx = corners[:, 0] + hx / 2.0
        cy = corners[:, 1] + hy / 2.0
        acx, acy = advection(cx, cy)
        a_mag = np.hypot(np.broadcast_to(acx, cx.shape),
                         np.broadcast_to(acy, cy.shape))
        h_e = np.sqrt(hx * hy)
        tau = 1.0 / np.sqrt((2.0 / dt) ** 2 + (2.0 * a_mag / h_e) ** 2
                            + (9.0 * 4.0 * nu / h_e ** 2) ** 2)
    else:
        tau = None

    for xi, eta in _GAUSS_POINTS:
        shapes = _shape_values(xi, eta)                  # (4,)
        ref_grad = _shape_gradients(xi, eta)             # (4, 2)
        grad = np.column_stack([ref_grad[:, 0] * 2.0 / hx,
                                ref_grad[:, 1] * 2.0 / hy])  # physical gradients

        m_el += jac * np.outer(shapes, shapes)
        k_el += jac * (grad @ grad.T)

        if advection is not None:
            xq = corners[:, 0] + (xi + 1.0) * hx / 2.0
            yq = corners[:, 1] + (eta + 1.0) * hy / 2.0
            ax, ay = advection(xq, yq)
            ax = np.broadcast_to(ax, xq.shape)
            ay = np.broadcast_to(ay, yq.shape)
            # a . grad phi_j at this quadrature point, per element: (n_el, 4)
            adv_j = ax[:, None] * grad[None, :, 0] + ay[:, None] * grad[None, :, 1]
            # A[k, j] += |J| phi_k (a . grad phi_j)
            a_el += jac * shapes[None, :, None] * adv_j[:, None, :]
            if tau is not None:
                trial = shapes[None, None, :] / dt + adv_j[:, None, :]
                s_el += (jac * tau[:, None, None]) * adv_j[:, :, None] * trial

    rows = np.repeat(mesh.elements, 4, axis=1).ravel()
    cols = np.tile(mesh.elements, (1, 4)).ravel()
    n = mesh.n_nodes
    M = linalg.from_triplets(n, n, rows, cols, np.tile(m_el.ravel(), n_el))
    K = linalg.from_triplets(n, n, rows, cols, np.tile(k_el.ravel(), n_el))
    A = linalg.from_triplets(n, n, rows, cols, a_el.reshape(n_el, -1).ravel())
    S = linalg.from_triplets(n, n, rows, cols, s_el.reshape(n_el, -1).ravel())
    A.eliminate_zeros()
    S.eliminate_zeros()
    return M, K, A, S


def assemble_operators(mesh: Mesh, dirichlet_nodes: np.ndarray, *, nu: float,
                       dt: float, advection=None, supg_on: bool = False) -> OperatorSet:
    """Assemble all volume operators, restricted to the free DOFs.

    ``dirichlet_nodes`` lists the strongly constrained (zero) nodes; their
    rows and columns are eliminated. Settings whose coefficients overflow
    (1/dt, the SUPG tau, or the advection field) raise InputError.
    """
    if not (math.isfinite(nu) and math.isfinite(dt)) or nu < 0 or dt <= 0:
        raise InputError(f"need finite nu >= 0 and dt > 0, got nu={nu}, dt={dt}")
    dirichlet_nodes = np.asarray(dirichlet_nodes, dtype=np.int64)
    if not math.isfinite(1.0 / dt):
        raise InputError(f"dt={dt} is too small: 1/dt overflows")
    try:
        with np.errstate(over="raise"):
            M, K, A, S = _assemble_volume(mesh, advection, nu, dt, supg_on)
    except (OverflowError, FloatingPointError) as exc:
        raise InputError(f"operator coefficients overflow at nu={nu}, dt={dt}: "
                         f"{exc}") from exc

    free, _ = free_arrays(mesh.n_nodes, dirichlet_nodes)

    def restrict(mat):
        return mat[free][:, free].tocsr()

    return OperatorSet(nu=nu, dt=dt, free_nodes=free, M=restrict(M), K=restrict(K),
                       A=restrict(A), S_state=restrict(S))


def assemble_interface_mass(dec: Decomposition, side: int):
    """Interface mass matrices (M_g0, M_g) of one subdomain.

    M_g is the control-space 1D mass, hy/6 [1, 4, 1] on the interior
    interface nodes; M_g0 = T^T M_g pairs the control hats with the
    subdomain's free trace hats (every free trace hat is a control hat).
    """
    hy = dec.sub(side).hy
    M_g = sp.diags([hy / 6.0, hy / 6.0 * 4.0, hy / 6.0], [-1, 0, 1],
                   shape=(dec.n_control,) * 2, format="csr")
    entries = M_g.tocoo()
    M_g0 = linalg.from_triplets(dec.free_nodes(side).size, dec.n_control,
                                dec.trace_free(side)[entries.row], entries.col,
                                entries.data)
    return M_g0, M_g


def subdomain_operators(dec: Decomposition, side: int, *, nu: float, dt: float,
                        advection=None, supg_on: bool = False) -> OperatorSet:
    """Assemble the full operator set for one subdomain of a decomposition."""
    ops = assemble_operators(dec.sub(side), dec.dirichlet_nodes(side), nu=nu,
                             dt=dt, advection=advection, supg_on=supg_on)
    ops.M_g0, ops.M_g = assemble_interface_mass(dec, side)
    return ops


def assemble_load(mesh: Mesh, free_nodes: np.ndarray, f, t: float) -> np.ndarray:
    """Load vector (f(., t), phi_k) on the free DOFs; f(x, y, t) vectorized."""
    hx, hy = mesh.hx, mesh.hy
    corners = mesh.coords[mesh.elements[:, 0]]
    jac = hx * hy / 4.0
    vals = np.zeros(mesh.n_nodes)
    for xi, eta in _GAUSS_POINTS:
        shapes = _shape_values(xi, eta)
        xq = corners[:, 0] + (xi + 1.0) * hx / 2.0
        yq = corners[:, 1] + (eta + 1.0) * hy / 2.0
        fq = np.broadcast_to(np.asarray(f(xq, yq, t), dtype=np.float64), xq.shape)
        np.add.at(vals, mesh.elements, jac * fq[:, None] * shapes[None, :])
    return vals[free_nodes]
