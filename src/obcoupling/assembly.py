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

One pattern per mesh. Every volume operator lives on the mesh's 9-point
pattern restricted to the free DOFs: the entries (r, c) of two free nodes
that share an element. ``assemble_operators`` builds that pattern once, from
the grid and with no sort: a row's columns are its free neighbours in
(dy, dx) order, and the elements that hold an entry are among the four
around the row node, taken in element order. M, K, A and S_state are
gathers of element entries onto the pattern, each entry's contributions
summed in element order, and ``OperatorSet.state_matrix`` sums the four on
the same pattern.

Every CSR array (data, indices, indptr and their dtypes) is byte-identical
to scipy's route: COO triplets of the full mesh, row and column restriction
to the free nodes, and sparse sums (``tests/oracles.py`` keeps that route as
the byte oracle). The gathers follow scipy's rules:

- COO to CSR sums a row's duplicates in input order. A row holds at most
  16 triplets, and scipy's sort of a row that short is a stable insertion
  sort, so each entry's at most four contributions add up in element order.
- M and K keep exact zeros; A and S drop them, as ``eliminate_zeros`` does.
- ``M / dt`` is ``M.data * (1 / dt)`` and ``nu * K`` is ``K.data * nu``.
- A sparse sum adds an absent entry as 0 and drops entries that sum to
  exactly zero; NaN is kept.

An absent contribution is gathered as -0.0, the exact additive identity.
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


# (shapes, their outer product, reference gradients) at each Gauss point
_QUADRATURE = tuple((_shape_values(xi, eta),
                     np.outer(_shape_values(xi, eta), _shape_values(xi, eta)),
                     _shape_gradients(xi, eta)) for xi, eta in _GAUSS_POINTS)

# The nine neighbours (dx, dy) of a node, in column order.
_NEIGHBOURS = [(dx, dy) for dy in (-1, 0, 1) for dx in (-1, 0, 1)]
# Local entries are 4 k + j for element corners k, j in [BL, BR, TR, TL];
# entry 16 stands for "no contribution".
_ABSENT = 16


def _local_entries() -> np.ndarray:
    """(4, 9): the local entry that element q around a node holds for the
    node and its neighbour d, or _ABSENT if q does not hold the neighbour.

    Element q = a + 2 b around node (i, j) is element (i - 1 + a, j - 1 + b),
    so q runs in element order, and the node is its corner (1 - a, 1 - b).
    """
    corner = {(0, 0): 0, (1, 0): 1, (1, 1): 2, (0, 1): 3}
    table = np.full((4, 9), _ABSENT, dtype=np.int64)
    for d, (dx, dy) in enumerate(_NEIGHBOURS):
        for q in range(4):
            px, py = 1 - q % 2, 1 - q // 2
            if (px + dx, py + dy) in corner:
                table[q, d] = 4 * corner[px, py] + corner[px + dx, py + dy]
    return table


_LOCAL_ENTRIES = _local_entries()


@dataclass(frozen=True)
class TraceResponse:
    """How one subdomain model answers the interface, as dense maps.

    With A the state matrix, T the selection of the interface values in
    control order, W = A^{-T} T^T and Y = A^{-T} M_g0 (one multi-column
    adjoint solve on [M_g0 | T^T]), the interface trace of a state step is

        T u = P u_prev + W^T f + sign (T Z) g,  P = W^T M / dt,  T Z = W^T M_g0

    and the adjoint of an interface jump is sign Y jump, with trace
    sign (T Y) jump. A reduced model has the same record in its own
    coordinates (``rom.reduce_operators``), with None in the maps of a half
    it was built without. Signs are left to the caller.
    """

    trace_free: np.ndarray  # (n_control,) free indices of the interface nodes
    Y: np.ndarray | None    # (n_adjoint, n_control)
    WT: np.ndarray | None   # (n_control, n_state) W^T, maps a load to its trace
    P: np.ndarray | None    # (n_control, n_state) history map
    TZ: np.ndarray | None   # (n_control, n_control)
    TY: np.ndarray | None   # (n_control, n_control)

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
    # caches of this set's own operators: ``dataclasses.replace`` drops them
    _on_pattern: _StateSum | None = field(default=None, init=False, repr=False,
                                          compare=False)
    _state_fact: linalg.Factorization | None = field(default=None, init=False,
                                                     repr=False, compare=False)
    _trace_response: TraceResponse | None = field(default=None, init=False,
                                                  repr=False, compare=False)

    @property
    def n_free(self) -> int:
        return self.free_nodes.size

    def state_matrix(self) -> sp.csr_matrix:
        """M/dt + nu K + A + S_state; InputError if an entry is not finite.

        Summed on the pattern of M when the four operators are the ones
        assembled with this set, else by scipy's sparse sum; both give the
        same bytes.
        """
        terms = (self.M, self.K, self.A, self.S_state)
        # the sum's entries are checked instead
        with np.errstate(over="ignore", invalid="ignore"):
            if self._on_pattern is not None and self._on_pattern.holds(terms):
                L = self._on_pattern.state_matrix(self.nu, self.dt)
            else:
                L = (self.M / self.dt + self.nu * self.K + self.A
                     + self.S_state).tocsr()
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

    def interface_indices(self, trace_free) -> np.ndarray:
        """``trace_free`` as an int64 array; InputError unless it holds this
        subdomain's interface indices in control order, the rows at which
        M_g0 = T^T M_g repeats M_g and outside which it is zero."""
        n_control = self.M_g0.shape[1]
        trace_free = np.array(trace_free, dtype=np.int64)
        if trace_free.shape != (n_control,):
            raise InputError(f"trace_free must hold {n_control} indices")
        if (self.M_g0.nnz != self.M_g.nnz
                or not ((trace_free >= 0) & (trace_free < self.n_free)).all()
                or not np.array_equal(self.M_g0.toarray()[trace_free],
                                      self.M_g.toarray())):
            raise InputError("trace_free are not this subdomain's interface indices")
        return trace_free

    def trace_response(self, trace_free: np.ndarray) -> TraceResponse:
        """Interface maps of this subdomain (see TraceResponse), from one
        transposed solve with the state factors; cached for the given
        interface indices, which are checked when the maps are built."""
        cached = self._trace_response
        if cached is not None and np.array_equal(cached.trace_free, trace_free):
            return cached
        n_control = self.M_g0.shape[1]
        trace_free = self.interface_indices(trace_free)
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


@dataclass(frozen=True)
class _StateSum:
    """Where A and S_state sit on the pattern of M and K, for the state sum."""

    terms: tuple      # (M, K, A, S_state) as assembled
    in_a: np.ndarray  # (nnz,) bool: the pattern entries A holds
    in_s: np.ndarray  # (nnz,) bool: the pattern entries S_state holds

    def holds(self, terms) -> bool:
        return all(a is b for a, b in zip(self.terms, terms))

    def state_matrix(self, nu: float, dt: float) -> sp.csr_matrix:
        M, K, A, S = self.terms
        values = M.data * (1 / dt)
        values += K.data * nu
        values[self.in_a] += A.data
        values[self.in_s] += S.data
        return _nonzero_csr(values, M.indptr, M.indices, M.shape)


def _nonzero_csr(values, indptr, indices, shape) -> sp.csr_matrix:
    """The entries of a CSR pattern whose value is not exactly zero; takes
    ``values`` over."""
    out = sp.csr_matrix((values, indices.copy(), indptr.copy()), shape=shape)
    out.eliminate_zeros()
    return out


@dataclass(frozen=True)
class _FreePattern:
    """The 9-point pattern of a mesh on its free DOFs, in CSR order, and
    where each entry's contributions sit in an element entry table.

    An element entry table is a (17, n_el + 1) array: entry 4 k + j of
    element e at [4 k + j, e], and -0.0 in row 16 and in column n_el, the
    phantom element beyond the mesh's edge.
    """

    indptr: np.ndarray
    indices: np.ndarray
    where: np.ndarray   # (4, nnz) flat table index of each entry's q-th term

    @classmethod
    def build(cls, mesh: Mesh, free: np.ndarray, node_to_free: np.ndarray):
        nx, ny, n_el = mesh.nx, mesh.ny, mesh.n_elements
        padded = np.zeros((ny + 3, nx + 3), dtype=bool)
        padded[1:-1, 1:-1] = (node_to_free >= 0).reshape(ny + 1, nx + 1)
        # keep[node, d]: the node and its neighbour d are both free nodes
        keep = np.empty((ny + 1, nx + 1, 9), dtype=bool)
        for d, (dx, dy) in enumerate(_NEIGHBOURS):
            keep[:, :, d] = padded[1 + dy:ny + 2 + dy, 1 + dx:nx + 2 + dx]
        keep &= padded[1:-1, 1:-1, None]
        node, d = np.divmod(np.flatnonzero(keep), 9)

        idx = np.int32 if max(node.size, free.size) < 2 ** 31 else np.int64
        indptr = np.empty(free.size + 1, dtype=idx)
        indptr[:-1] = np.searchsorted(node, free)  # a free row holds its diagonal
        indptr[-1] = node.size
        offsets = np.array([dy * (nx + 1) + dx for dx, dy in _NEIGHBOURS])
        indices = node_to_free[node + offsets[d]].astype(idx)

        # the four elements around each node, in element order
        grid = np.full((ny + 2, nx + 2), n_el, dtype=np.int64)
        grid[1:-1, 1:-1] = np.arange(n_el).reshape(ny, nx)
        around = np.stack([grid[q // 2:q // 2 + ny + 1, q % 2:q % 2 + nx + 1]
                           for q in range(4)]).reshape(4, -1)
        where = np.take(_LOCAL_ENTRIES, d, axis=1) * (n_el + 1)
        where += np.take(around, node, axis=1)
        return cls(indptr=indptr, indices=indices, where=where)

    def sums(self, table: np.ndarray) -> np.ndarray:
        """Per pattern entry, its terms of an element entry table summed in
        element order."""
        terms = table.ravel().take(self.where)
        out = terms[0] + terms[1]
        out += terms[2]
        out += terms[3]
        return out


def _entry_table(entries: np.ndarray, n_el: int) -> np.ndarray:
    """The element entry table (see _FreePattern) of (4, 4, n_el) entries,
    or of (4, 4, 1) entries that every element shares."""
    table = np.full((17, n_el + 1), -0.0)
    table[:16, :n_el] = entries.reshape(16, -1)
    return table


def _field_at(advection, x: np.ndarray, y: np.ndarray):
    """The advection field's two components at the points, each of their
    shape (a constant broadcasts, any other shape is a ValueError)."""
    ax, ay = advection(x, y)
    return np.broadcast_to(ax, x.shape), np.broadcast_to(ay, y.shape)


def _element_tables(mesh: Mesh, advection, nu: float, dt: float, supg_on: bool):
    """Element entry tables of M, K, A and S_state by 2x2 Gauss quadrature;
    A and S_state are None where they vanish identically. InputError if the
    advection field gives a value that is not finite."""
    hx, hy = mesh.hx, mesh.hy
    nx, ny, n_el = mesh.nx, mesh.ny, mesh.n_elements
    # bottom-left corner per element
    cx = mesh.coords[:, 0].reshape(ny + 1, nx + 1)[:-1, :-1].ravel()
    cy = mesh.coords[:, 1].reshape(ny + 1, nx + 1)[:-1, :-1].ravel()
    jac = hx * hy / 4.0

    m_el = np.zeros((4, 4))
    k_el = np.zeros((4, 4))
    a_el = np.zeros((4, 4, n_el)) if advection is not None else None
    s_el = tau = None
    if advection is not None and supg_on:
        s_el = np.zeros((4, 4, n_el))
        a_mag = np.hypot(*_field_at(advection, cx + hx / 2.0, cy + hy / 2.0))
        h_e = np.sqrt(hx * hy)
        tau = 1.0 / np.sqrt((2.0 / dt) ** 2 + (2.0 * a_mag / h_e) ** 2
                            + (9.0 * 4.0 * nu / h_e ** 2) ** 2)

    for (xi, eta), (shapes, outer, ref_grad) in zip(_GAUSS_POINTS, _QUADRATURE):
        grad = ref_grad * 2.0 / np.array([hx, hy])   # physical gradients (4, 2)
        m_el += jac * outer
        k_el += jac * (grad @ grad.T)

        if advection is not None:
            ax, ay = _field_at(advection, cx + (xi + 1.0) * hx / 2.0,
                               cy + (eta + 1.0) * hy / 2.0)
            # a . grad phi_j at this quadrature point, (4, n_el)
            adv = ax * grad[:, 0, None] + ay * grad[:, 1, None]
            # A[k, j] += |J| phi_k (a . grad phi_j)
            a_el += (jac * shapes)[:, None, None] * adv
            if tau is not None:
                trial = (shapes / dt)[:, None] + adv
                s_el += ((jac * tau) * adv)[:, None, :] * trial

    # every field value enters A (and the center values tau), so a NaN or
    # infinite one leaves a non-finite entry there
    if advection is not None and not (np.isfinite(a_el).all() and (
            tau is None or np.isfinite(a_mag).all())):
        name = getattr(advection, "__qualname__", repr(advection))
        raise InputError(f"advection field {name} gives NaN or infinite values")
    return [None if el is None else _entry_table(el, n_el)
            for el in (m_el[:, :, None], k_el[:, :, None], a_el, s_el)]


def _node_indices(nodes, n_nodes: int) -> np.ndarray:
    """Validated 1-D integer node indices in [0, n_nodes)."""
    arr = np.asarray(nodes)
    if arr.ndim != 1 or (arr.size and (
            arr.dtype.kind not in "iu" or arr.min() < 0 or arr.max() >= n_nodes)):
        raise InputError(f"dirichlet_nodes must be 1-D integer node indices in "
                         f"[0, {n_nodes}), got {arr!r}")
    return arr.astype(np.int64)


def assemble_operators(mesh: Mesh, dirichlet_nodes: np.ndarray, *, nu: float,
                       dt: float, advection=None, supg_on: bool = False) -> OperatorSet:
    """Assemble all volume operators, restricted to the free DOFs.

    ``dirichlet_nodes`` lists the strongly constrained (zero) nodes as 1-D
    integer indices into the mesh; their rows and columns are eliminated.
    Malformed indices, an advection field with non-finite values and
    settings whose coefficients overflow (1/dt, the SUPG tau, or the
    advection field) raise InputError.
    """
    if not (math.isfinite(nu) and math.isfinite(dt)) or nu < 0 or dt <= 0:
        raise InputError(f"need finite nu >= 0 and dt > 0, got nu={nu}, dt={dt}")
    dirichlet_nodes = _node_indices(dirichlet_nodes, mesh.n_nodes)
    if not math.isfinite(1.0 / dt):
        raise InputError(f"dt={dt} is too small: 1/dt overflows")
    free, node_to_free = free_arrays(mesh.n_nodes, dirichlet_nodes)
    pattern = _FreePattern.build(mesh, free, node_to_free)
    shape = (free.size, free.size)
    try:
        # a NaN or infinite advection value is reported by _element_tables
        with np.errstate(over="raise", invalid="ignore"):
            tables = _element_tables(mesh, advection, nu, dt, supg_on)
            m, k, a, s = (None if t is None else pattern.sums(t) for t in tables)
    except (OverflowError, FloatingPointError) as exc:
        raise InputError(f"operator coefficients overflow at nu={nu}, dt={dt}: "
                         f"{exc}") from exc

    def dropping_zeros(values):
        if values is None:
            return sp.csr_matrix(shape), np.zeros(pattern.indices.size, dtype=bool)
        held = values != 0
        return _nonzero_csr(values, pattern.indptr, pattern.indices, shape), held

    M = sp.csr_matrix((m, pattern.indices, pattern.indptr), shape=shape)
    K = sp.csr_matrix((k, pattern.indices.copy(), pattern.indptr.copy()),
                      shape=shape)
    (A, in_a), (S, in_s) = dropping_zeros(a), dropping_zeros(s)
    ops = OperatorSet(nu=nu, dt=dt, free_nodes=free, M=M, K=K, A=A, S_state=S)
    ops._on_pattern = _StateSum(terms=(M, K, A, S), in_a=in_a, in_s=in_s)
    return ops


def assemble_interface_mass(dec: Decomposition, side: int):
    """Interface mass matrices (M_g0, M_g) of one subdomain.

    M_g is the control-space 1D mass, hy/6 [1, 4, 1] on the interior
    interface nodes; M_g0 = T^T M_g pairs the control hats with the
    subdomain's free trace hats (every free trace hat is a control hat), so
    its rows at the trace's free indices are the rows of M_g.
    """
    hy = dec.sub(side).hy
    n = dec.n_control
    cols = np.arange(n)[:, None] + np.arange(-1, 2)
    inside = (cols >= 0) & (cols < n)
    data = np.broadcast_to([hy / 6.0, hy / 6.0 * 4.0, hy / 6.0], (n, 3))[inside]
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(inside.sum(axis=1), out=indptr[1:])
    indices = cols[inside].astype(np.int32)
    M_g = sp.csr_matrix((data, indices, indptr), shape=(n, n))
    n_free = dec.free_nodes(side).size
    rows = np.zeros(n_free + 1, dtype=np.int32)
    rows[dec.trace_free(side) + 1] = np.diff(indptr)
    np.cumsum(rows, out=rows)
    M_g0 = sp.csr_matrix((data.copy(), indices.copy(), rows), shape=(n_free, n))
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
