"""Independent dense reference implementations used by the tests.

Everything here is deliberately written the slow way: explicit Python loops
over elements and a 3-point Gauss rule per direction (one order higher than
the production 2x2 rule, exact for every bilinear-form integrand involved).
No code is shared with the package's vectorized assembly.

``descent_timestep`` is the interface-space descent written the plain way:
it allocates every trial's vectors and prices each one with
``_objective_from_jump``. The package's loop, which works in fixed buffers,
must reproduce it bit for bit. ``run_transient`` is the coupled march
written the same way: it forms j0 from two zero-control traces, starts each
descent afresh, and steps each side with a ``sign * (B g)`` temporary. The
package's march, which carries R g, the penalty and each side's B g across
steps and works in place, must reproduce it bit for bit.
``exact_coupling_run`` needs no descent: it solves R g = -j0 at each step.
"""

import math
import time

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from obcoupling import assembly, fom, rom
from obcoupling.coupling import (Control, CoupledRunResult, CouplingConfig,
                                 IterationStats, _objective_from_jump,
                                 interface_maps, make_loads)
from obcoupling.fom import ProblemSpec, sign_of

_G3 = np.sqrt(3.0 / 5.0)
GAUSS_1D = [(-_G3, 5.0 / 9.0), (0.0, 8.0 / 9.0), (_G3, 5.0 / 9.0)]
# the production scheme defines the stabilization term through the 2x2 rule,
# whose integrand (degree 4) it under-integrates; replicate that rule exactly
GAUSS_1D_2PT = [(-1.0 / np.sqrt(3.0), 1.0), (1.0 / np.sqrt(3.0), 1.0)]


def shapes(xi, eta):
    return 0.25 * np.array([
        (1 - xi) * (1 - eta), (1 + xi) * (1 - eta),
        (1 + xi) * (1 + eta), (1 - xi) * (1 + eta)])


def ref_grads(xi, eta):
    return 0.25 * np.array([
        [-(1 - eta), -(1 - xi)], [(1 - eta), -(1 + xi)],
        [(1 + eta), (1 + xi)], [-(1 + eta), (1 - xi)]])


def element_matrices(x0, y0, hx, hy, advection=None):
    """Dense element M, K, A by direct quadrature.

    A follows the convention A[k, j] = integral of phi_k (a . grad phi_j).
    """
    m = np.zeros((4, 4))
    k = np.zeros((4, 4))
    a_mat = np.zeros((4, 4))
    jac = hx * hy / 4.0
    for xi, wx in GAUSS_1D:
        for eta, wy in GAUSS_1D:
            w = wx * wy * jac
            n = shapes(xi, eta)
            g = ref_grads(xi, eta)
            gx = g[:, 0] * 2.0 / hx
            gy = g[:, 1] * 2.0 / hy
            x = x0 + (xi + 1) * hx / 2.0
            y = y0 + (eta + 1) * hy / 2.0
            for r in range(4):
                for c in range(4):
                    m[r, c] += w * n[r] * n[c]
                    k[r, c] += w * (gx[r] * gx[c] + gy[r] * gy[c])
            if advection is not None:
                ax, ay = advection(x, y)
                for r in range(4):
                    for c in range(4):
                        a_mat[r, c] += w * n[r] * (ax * gx[c] + ay * gy[c])
    return m, k, a_mat


def assemble_dense(mesh, advection=None):
    """Full node-space dense M, K, A for a structured mesh."""
    n = mesh.n_nodes
    M = np.zeros((n, n))
    K = np.zeros((n, n))
    A = np.zeros((n, n))
    for el in range(mesh.n_elements):
        nodes = mesh.elements[el]
        x0, y0 = mesh.coords[nodes[0]]
        m_el, k_el, a_el = element_matrices(x0, y0, mesh.hx, mesh.hy, advection)
        for r in range(4):
            for c in range(4):
                M[nodes[r], nodes[c]] += m_el[r, c]
                K[nodes[r], nodes[c]] += k_el[r, c]
                A[nodes[r], nodes[c]] += a_el[r, c]
    return M, K, A


def supg_dense(mesh, advection, nu, dt):
    """Dense streamline stabilization matrix, entry [k, j] pairing the
    advective test action on phi_k with the discrete residual of phi_j."""
    n = mesh.n_nodes
    S = np.zeros((n, n))
    hx, hy = mesh.hx, mesh.hy
    h = np.sqrt(hx * hy)
    jac = hx * hy / 4.0
    for el in range(mesh.n_elements):
        nodes = mesh.elements[el]
        x0, y0 = mesh.coords[nodes[0]]
        xc, yc = x0 + hx / 2.0, y0 + hy / 2.0
        axc, ayc = advection(xc, yc)
        speed = np.hypot(axc, ayc)
        tau = 1.0 / np.sqrt((2.0 / dt) ** 2 + (2.0 * speed / h) ** 2
                            + (9.0 * 4.0 * nu / h ** 2) ** 2)
        for xi, wx in GAUSS_1D_2PT:
            for eta, wy in GAUSS_1D_2PT:
                w = wx * wy * jac
                nv = shapes(xi, eta)
                g = ref_grads(xi, eta)
                gx = g[:, 0] * 2.0 / hx
                gy = g[:, 1] * 2.0 / hy
                x = x0 + (xi + 1) * hx / 2.0
                y = y0 + (eta + 1) * hy / 2.0
                ax, ay = advection(x, y)
                adv = ax * gx + ay * gy   # a . grad phi at this point
                for r in range(4):
                    for c in range(4):
                        S[nodes[r], nodes[c]] += w * tau * adv[r] * (nv[c] / dt + adv[c])
    return S


def boundary_flux_dense(mesh, advection):
    """Dense boundary matrix with entries of the form (a.n) phi_k phi_j
    integrated over the four sides of a rectangular mesh."""
    n = mesh.n_nodes
    E = np.zeros((n, n))
    nx, ny = mesh.nx, mesh.ny
    x_lo, y_lo = mesh.coords[0]
    x_hi, y_hi = mesh.coords[-1]

    def edge(n0, n1, p0, p1, normal):
        h = np.hypot(p1[0] - p0[0], p1[1] - p0[1])
        for t, w in GAUSS_1D:
            s = (t + 1) / 2.0
            x = p0[0] + s * (p1[0] - p0[0])
            y = p0[1] + s * (p1[1] - p0[1])
            ax, ay = advection(x, y)
            an = ax * normal[0] + ay * normal[1]
            phi = np.array([1 - s, s])
            for r, nr in enumerate((n0, n1)):
                for c, nc in enumerate((n0, n1)):
                    E[nr, nc] += (w / 2.0) * h * an * phi[r] * phi[c]

    for i in range(nx):  # bottom and top
        a = mesh.node_index(i, 0)
        b = mesh.node_index(i + 1, 0)
        edge(a, b, mesh.coords[a], mesh.coords[b], (0.0, -1.0))
        a = mesh.node_index(i, ny)
        b = mesh.node_index(i + 1, ny)
        edge(a, b, mesh.coords[a], mesh.coords[b], (0.0, 1.0))
    for j in range(ny):  # left and right
        a = mesh.node_index(0, j)
        b = mesh.node_index(0, j + 1)
        edge(a, b, mesh.coords[a], mesh.coords[b], (-1.0, 0.0))
        a = mesh.node_index(nx, j)
        b = mesh.node_index(nx, j + 1)
        edge(a, b, mesh.coords[a], mesh.coords[b], (1.0, 0.0))
    return E


def boundary_flux_sparse(mesh, advection):
    """Boundary matrix int_boundary (a.n) phi_k phi_j as a sparse matrix,
    built edge by edge from triplets with a 2-point Gauss rule (exact for
    the affine fields used here); a second construction of
    boundary_flux_dense."""
    rows, cols, vals = [], [], []
    g = 1.0 / np.sqrt(3.0)

    def edge_contrib(n0, n1, h, normal):
        p0, p1 = mesh.coords[n0], mesh.coords[n1]
        for s in (-g, g):
            phi = np.array([(1 - s) / 2.0, (1 + s) / 2.0])
            x = p0[0] + (s + 1) / 2.0 * (p1[0] - p0[0])
            y = p0[1] + (s + 1) / 2.0 * (p1[1] - p0[1])
            ax, ay = advection(np.array([x]), np.array([y]))
            an = float(np.asarray(ax)[0] * normal[0] + np.asarray(ay)[0] * normal[1])
            for r in range(2):
                for c in range(2):
                    rows.append((n0, n1)[r])
                    cols.append((n0, n1)[c])
                    vals.append(h / 2.0 * an * phi[r] * phi[c])

    nx, ny = mesh.nx, mesh.ny
    for i in range(nx):  # bottom and top
        edge_contrib(mesh.node_index(i, 0), mesh.node_index(i + 1, 0),
                     mesh.hx, (0.0, -1.0))
        edge_contrib(mesh.node_index(i, ny), mesh.node_index(i + 1, ny),
                     mesh.hx, (0.0, 1.0))
    for j in range(ny):  # left and right
        edge_contrib(mesh.node_index(0, j), mesh.node_index(0, j + 1),
                     mesh.hy, (-1.0, 0.0))
        edge_contrib(mesh.node_index(nx, j), mesh.node_index(nx, j + 1),
                     mesh.hy, (1.0, 0.0))
    n = mesh.n_nodes
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def load_dense(mesh, f, t):
    """Full node-space dense load vector by direct quadrature."""
    out = np.zeros(mesh.n_nodes)
    jac = mesh.hx * mesh.hy / 4.0
    for el in range(mesh.n_elements):
        nodes = mesh.elements[el]
        x0, y0 = mesh.coords[nodes[0]]
        for xi, wx in GAUSS_1D:
            for eta, wy in GAUSS_1D:
                w = wx * wy * jac
                nv = shapes(xi, eta)
                x = x0 + (xi + 1) * mesh.hx / 2.0
                y = y0 + (eta + 1) * mesh.hy / 2.0
                val = f(x, y, t)
                for r in range(4):
                    out[nodes[r]] += w * nv[r] * val
    return out


def backward_euler_dense(M, K, A, free, nu, dt, u0_full, n_steps, S=None):
    """Dense implicit Euler march on the free DOFs, zero on the rest.

    Matrices are full node-space; u0_full holds all nodal values. Returns
    the free-DOF trajectory including the initial column.
    """
    Sm = np.zeros_like(M) if S is None else S
    L = M / dt + nu * K + A + Sm
    L_ff = L[np.ix_(free, free)]
    M_ff = M[np.ix_(free, free)]
    u = np.asarray(u0_full, dtype=float)[free]
    out = [u.copy()]
    for n in range(1, n_steps + 1):
        u = np.linalg.solve(L_ff, M_ff @ u / dt)
        out.append(u.copy())
    return np.array(out).T


def descent_timestep(j0: np.ndarray, R: np.ndarray, G: np.ndarray, g0: np.ndarray,
                     config: CouplingConfig, M_g, *, recorder=None,
                     step_index: int = 0, Rg=None, penalty=None, blocks=None):
    """Minimize the interface objective for one timestep in interface space.

    The jump at control g is j0 + R g and the adjoint trace difference of a
    jump is G jump (see ``obcoupling.coupling``). Returns (g, stats) with the
    accepted control. A trial that increases J, or whose J is not finite, is
    rejected: the step halves and the same direction is retried; directions
    are recomputed only after accepts. An accepted trial that leaves g
    bitwise unchanged ends the step unconverged, since no later trial can
    move it. A step whose starting J is not finite makes no trial.
    ``recorder(step_index, jump)`` is invoked for every direction with the
    control-ordered jump it was formed from; the array is valid only during
    the call. ``Rg``, ``penalty`` and ``blocks``, which the package's march
    passes, are ignored: this descent forms its own products, one trial at
    a time.
    """
    t_start = time.perf_counter()
    delta, tol = config.delta, config.tol
    alpha = config.alpha0

    g = np.array(g0, dtype=np.float64)
    jump = j0 + R @ g
    obj = _objective_from_jump(jump, g, delta, M_g)

    iterations = 0
    directions = 0
    reductions = 0
    accepted = [obj] if config.record_history else None
    trace_diff = None
    stop = None if math.isfinite(obj) else "non_finite"

    while stop is None and obj >= tol and iterations < config.max_iters:
        if trace_diff is None:
            trace_diff = G @ jump
            directions += 1
            if recorder is not None:
                recorder(step_index, jump)

        g_try = (1.0 - alpha * delta) * g - alpha * trace_diff
        jump_try = j0 + R @ g_try
        obj_try = _objective_from_jump(jump_try, g_try, delta, M_g)
        iterations += 1

        if obj_try > obj or not math.isfinite(obj_try):
            # reject: halve the step, keep the current iterate and direction
            alpha *= 0.5
            reductions += 1
            continue
        if np.array_equal(g_try, g):
            stop = "stagnated"  # the step fell below roundoff: g cannot move
            break

        g, jump, obj = g_try, jump_try, obj_try
        trace_diff = None
        if accepted is not None:
            accepted.append(obj)

    if stop is None:
        stop = "tol" if obj < tol else "max_iters"
    stats = IterationStats(
        step=step_index, iterations=iterations, directions=directions,
        alpha_reductions=reductions, objective=obj,
        wall_time=time.perf_counter() - t_start, stop_reason=stop,
        accepted_objectives=accepted)
    return g, stats


class AllocatingSide:
    """One side's state half, stepped with fresh temporaries throughout."""

    def __init__(self, side: int, state, trace_free: np.ndarray, load=None):
        self.side = side
        self._state = state
        self._load = load
        self._reduced_state = isinstance(state, rom.ReducedOperatorSet)
        self.response = (state.response if self._reduced_state
                         else state.trace_response(trace_free))

    def from_free(self, u_free: np.ndarray) -> np.ndarray:
        if self._reduced_state:
            return self._state.Psi_u.T @ u_free
        return np.array(u_free, dtype=np.float64)

    def to_free(self, u: np.ndarray) -> np.ndarray:
        return self._state.Psi_u @ u if self._reduced_state else u

    def load(self, n: int):
        return None if self._load is None else self.from_free(self._load(n))

    def step(self, u_prev: np.ndarray, g: np.ndarray, f) -> np.ndarray:
        state = self._state
        if self._reduced_state:
            rhs = state.Mh @ u_prev
            rhs /= state.dt
            if f is not None:
                rhs += f
            rhs += sign_of(self.side) * (state.PsiT_Mg0 @ g)
            return scipy.linalg.lu_solve(state.state_lu, rhs)
        rhs = state.M @ u_prev
        rhs /= state.dt
        if f is not None:
            rhs += f
        rhs += sign_of(self.side) * (state.M_g0 @ g)
        return state.state_factor().solve(rhs)


def run_transient(problem: ProblemSpec, config: CouplingConfig, *,
                  state_rops=(None, None), adjoint_rops=(None, None),
                  recorder=None, keep_trajectories: bool = True) -> CoupledRunResult:
    """March the coupled problem from 0 to T, as ``coupling.run_transient``
    does, with every step's descent started afresh."""
    dec = problem.decomposition
    n_steps = problem.n_steps

    ops = [problem.operators(side, config.supg_on)
           if state_rops[side - 1] is None or adjoint_rops[side - 1] is None
           else None for side in (1, 2)]

    t_start = time.perf_counter()
    sides, adjoints = [], []
    for side in (1, 2):
        srops, arops, op = state_rops[side - 1], adjoint_rops[side - 1], ops[side - 1]
        tf = dec.trace_free(side)
        sides.append(AllocatingSide(side, op if srops is None else srops, tf,
                                    load=make_loads(problem, dec, side)))
        adjoints.append(op.trace_response(tf) if arops is None else arops.response)
    first, second = sides
    R, G = interface_maps((first.response, second.response), adjoints)
    # both sides share the same interface mass matrix
    M_g = assembly.assemble_interface_mass(dec, 1)[1].toarray()

    u = [s.from_free(problem.u0[dec.node_map(s.side)[dec.free_nodes(s.side)]])
         for s in sides]
    n_control = dec.n_control
    controls = np.zeros((n_control, n_steps + 1))
    stats: list[IterationStats] = []

    traj_1 = traj_2 = None
    if keep_trajectories:
        traj_1 = np.empty((dec.free_nodes(1).size, n_steps + 1), order="F")
        traj_2 = np.empty((dec.free_nodes(2).size, n_steps + 1), order="F")
        traj_1[:, 0] = first.to_free(u[0])
        traj_2[:, 0] = second.to_free(u[1])

    g = np.zeros(n_control)
    for n in range(1, n_steps + 1):
        f = [s.load(n) for s in sides]
        j0 = (first.response.zero_control_trace(u[0], f[0])
              - second.response.zero_control_trace(u[1], f[1]))
        g0 = g if config.warm_start else np.zeros(n_control)
        g, st = descent_timestep(j0, R, G, g0, config, M_g,
                                 recorder=recorder, step_index=n)
        u = [s.step(u_i, g, f_i) for s, u_i, f_i in zip(sides, u, f)]
        controls[:, n] = g
        stats.append(st)
        if keep_trajectories:
            traj_1[:, n] = first.to_free(u[0])
            traj_2[:, n] = second.to_free(u[1])
    wall = time.perf_counter() - t_start

    return CoupledRunResult(
        control=Control(values=controls), stats=stats,
        final_1=first.to_free(u[0]), final_2=second.to_free(u[1]),
        traj_1=traj_1, traj_2=traj_2, wall_time=wall)


def exact_coupling_run(problem: ProblemSpec, supg_on: bool):
    """Full-order coupled march whose control zeroes the interface jump.

    Within a step the jump is j0 + R g, so with delta = 0 the control that
    solves R g = -j0 is the exact interface flux; one LU of R serves every
    step. Each side steps with ``fom.state_step`` given its product
    M_g0 g, one sparse solve per side and step. Returns the free-DOF
    trajectories (traj_1, traj_2), column n at t = n dt.
    """
    dec = problem.decomposition
    ops = [problem.operators(side, supg_on) for side in (1, 2)]
    responses = [op.trace_response(dec.trace_free(side))
                 for side, op in zip((1, 2), ops)]
    loads = [make_loads(problem, dec, side) for side in (1, 2)]
    R = sign_of(1) * responses[0].TZ - sign_of(2) * responses[1].TZ
    lu = scipy.linalg.lu_factor(R)

    n_steps = problem.n_steps
    u = [problem.u0[dec.node_map(side)[dec.free_nodes(side)]] for side in (1, 2)]
    trajs = [np.empty((u_i.size, n_steps + 1)) for u_i in u]
    for traj, u_i in zip(trajs, u):
        traj[:, 0] = u_i
    for n in range(1, n_steps + 1):
        f = [None if load is None else load(n) for load in loads]
        j0 = (responses[0].zero_control_trace(u[0], f[0])
              - responses[1].zero_control_trace(u[1], f[1]))
        g = scipy.linalg.lu_solve(lu, -j0)
        u = [fom.state_step(op, u_i, g, f_i, side, op.M_g0 @ g)
             for side, op, u_i, f_i in zip((1, 2), ops, u, f)]
        for traj, u_i in zip(trajs, u):
            traj[:, n] = u_i
    return trajs[0], trajs[1]


# The byte oracle of the package's assembly: the route through scipy it
# replaced, kept whole. COO triplets of the full mesh go to CSR (duplicates
# summed), A and S drop exact zeros, rows and columns are restricted to the
# free nodes by fancy indexing, and the state matrix is scipy's sparse sum.
# The package's one-pattern assembly must reproduce every CSR array of it
# byte for byte.

_SCIPY_G = 1.0 / np.sqrt(3.0)
_SCIPY_GAUSS_POINTS = ((-_SCIPY_G, -_SCIPY_G), (_SCIPY_G, -_SCIPY_G),
                       (_SCIPY_G, _SCIPY_G), (-_SCIPY_G, _SCIPY_G))


def from_triplets(n_rows, n_cols, rows, cols, values):
    """Assemble a CSR matrix from COO triplets; duplicate entries are summed."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    if not (rows.shape == cols.shape == values.shape):
        raise ValueError("triplet arrays must have identical shapes")
    if rows.size and (rows.min() < 0 or rows.max() >= n_rows
                      or cols.min() < 0 or cols.max() >= n_cols):
        raise ValueError("triplet index out of range")
    out = sp.coo_matrix((values, (rows, cols)), shape=(n_rows, n_cols)).tocsr()
    out.sum_duplicates()
    return out


def _scipy_volume(mesh, advection, nu, dt, supg_on):
    """Element loops for M, K, A, S_state over the full node space."""
    hx, hy = mesh.hx, mesh.hy
    corners = mesh.coords[mesh.elements[:, 0]]
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

    for xi, eta in _SCIPY_GAUSS_POINTS:
        nv = shapes(xi, eta)
        ref_grad = ref_grads(xi, eta)
        grad = np.column_stack([ref_grad[:, 0] * 2.0 / hx,
                                ref_grad[:, 1] * 2.0 / hy])
        m_el += jac * np.outer(nv, nv)
        k_el += jac * (grad @ grad.T)
        if advection is not None:
            xq = corners[:, 0] + (xi + 1.0) * hx / 2.0
            yq = corners[:, 1] + (eta + 1.0) * hy / 2.0
            ax, ay = advection(xq, yq)
            ax = np.broadcast_to(ax, xq.shape)
            ay = np.broadcast_to(ay, yq.shape)
            adv_j = ax[:, None] * grad[None, :, 0] + ay[:, None] * grad[None, :, 1]
            a_el += jac * nv[None, :, None] * adv_j[:, None, :]
            if tau is not None:
                trial = nv[None, None, :] / dt + adv_j[:, None, :]
                s_el += (jac * tau[:, None, None]) * adv_j[:, :, None] * trial

    rows = np.repeat(mesh.elements, 4, axis=1).ravel()
    cols = np.tile(mesh.elements, (1, 4)).ravel()
    n = mesh.n_nodes
    M = from_triplets(n, n, rows, cols, np.tile(m_el.ravel(), n_el))
    K = from_triplets(n, n, rows, cols, np.tile(k_el.ravel(), n_el))
    A = from_triplets(n, n, rows, cols, a_el.reshape(n_el, -1).ravel())
    S = from_triplets(n, n, rows, cols, s_el.reshape(n_el, -1).ravel())
    A.eliminate_zeros()
    S.eliminate_zeros()
    return M, K, A, S


def scipy_operators(mesh, dirichlet_nodes, *, nu, dt, advection=None,
                    supg_on=False):
    """(free nodes, M, K, A, S_state) on the free DOFs, the scipy way."""
    mask = np.ones(mesh.n_nodes, dtype=bool)
    mask[np.asarray(dirichlet_nodes, dtype=np.int64)] = False
    free = np.flatnonzero(mask)
    with np.errstate(over="raise"):
        volume = _scipy_volume(mesh, advection, nu, dt, supg_on)
    return (free, *(mat[free][:, free].tocsr() for mat in volume))


def scipy_state_matrix(M, K, A, S, nu, dt):
    """M/dt + nu K + A + S_state as scipy's sparse arithmetic sums it."""
    with np.errstate(over="ignore"):
        return (M / dt + nu * K + A + S).tocsr()


def scipy_interface_mass(dec, side):
    """(M_g0, M_g) of one subdomain, the scipy way."""
    hy = dec.sub(side).hy
    M_g = sp.diags([hy / 6.0, hy / 6.0 * 4.0, hy / 6.0], [-1, 0, 1],
                   shape=(dec.n_control,) * 2, format="csr")
    entries = M_g.tocoo()
    M_g0 = from_triplets(dec.free_nodes(side).size, dec.n_control,
                         dec.trace_free(side)[entries.row], entries.col,
                         entries.data)
    return M_g0, M_g


# The mesh and subdomain index arrays the way meshgrids, masks and set
# differences compute them: the oracle of geometry's index arithmetic.

def grid_topology(nx, ny):
    """(elements, boundary_nodes) of an nx-by-ny grid."""
    ex, ey = np.meshgrid(np.arange(nx), np.arange(ny))
    n0 = (ey * (nx + 1) + ex).ravel()
    elements = np.column_stack([n0, n0 + 1, n0 + nx + 2, n0 + nx + 1])
    ii = np.arange((nx + 1) * (ny + 1)) % (nx + 1)
    jj = np.arange((nx + 1) * (ny + 1)) // (nx + 1)
    on_boundary = (ii == 0) | (ii == nx) | (jj == 0) | (jj == ny)
    return elements.astype(np.int64), np.flatnonzero(on_boundary)


def grid_coords(nx, ny, x_min, x_max, y_min, y_max):
    xx, yy = np.meshgrid(np.linspace(x_min, x_max, nx + 1),
                         np.linspace(y_min, y_max, ny + 1))
    return np.column_stack([xx.ravel(), yy.ravel()])


def subdomain_index_arrays(parent_nx, ny, i_lo, i_hi, k):
    """(node_map, dirichlet, free, trace_free) of columns i_lo..i_hi of a
    parent grid with parent_nx columns, the interface at column k."""
    nx = i_hi - i_lo
    ii, jj = np.meshgrid(np.arange(i_lo, i_hi + 1), np.arange(ny + 1))
    node_map = (jj * (parent_nx + 1) + ii).ravel()
    boundary = grid_topology(nx, ny)[1]
    control = np.arange(1, ny) * (nx + 1) + (k - i_lo)
    dirichlet = np.setdiff1d(boundary, control)
    mask = np.ones((nx + 1) * (ny + 1), dtype=bool)
    mask[dirichlet] = False
    free = np.flatnonzero(mask)
    node_to_free = np.full(mask.size, -1, dtype=np.int64)
    node_to_free[free] = np.arange(free.size)
    return node_map, dirichlet, free, node_to_free[control]
