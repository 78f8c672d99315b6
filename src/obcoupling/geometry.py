"""Structured quadrilateral meshes and two-subdomain interface decompositions.

A mesh is a uniform grid of axis-aligned Q1 rectangles. Nodes are ordered
lexicographically with x fastest: node (i, j) has index j*(nx+1) + i and sits
at (x0 + i*hx, y0 + j*hy). Element (ex, ey) lists its corners counterclockwise
as [bottom-left, bottom-right, top-right, top-left].

A decomposition splits the rectangle into a left and a right subdomain along a
vertical grid line x = interface_x. The two submeshes duplicate the interface
nodes; their coordinates are sliced (not recomputed) from the parent so matched
interface coordinates are bitwise equal. Each subdomain treats its share of the
outer boundary plus the two interface endpoints as Dirichlet; the interior
interface nodes remain free and carry the coupling control.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from obcoupling.errors import InputError

_GRID_TOL = 1e-12


@dataclass(frozen=True)
class Mesh:
    """Uniform Q1 mesh of an axis-aligned rectangle."""

    nx: int
    ny: int
    coords: np.ndarray      # (n_nodes, 2) float64
    elements: np.ndarray    # (n_elements, 4) int, counterclockwise
    boundary_nodes: np.ndarray  # sorted node indices on the outer boundary

    @property
    def n_nodes(self) -> int:
        return (self.nx + 1) * (self.ny + 1)

    @property
    def n_elements(self) -> int:
        return self.nx * self.ny

    @property
    def hx(self) -> float:
        return float(self.coords[1, 0] - self.coords[0, 0])

    @property
    def hy(self) -> float:
        return float(self.coords[self.nx + 1, 1] - self.coords[0, 1])

    def node_index(self, i: int, j: int) -> int:
        """Index of the grid node in column i, row j."""
        return j * (self.nx + 1) + i


@dataclass(frozen=True)
class InterfaceMap:
    """Correspondence between subdomain interface traces and the control space.

    Control degrees of freedom are the interior interface nodes (endpoints
    excluded), ordered by ascending y following subdomain 1's interface
    ordering. ``trace_free_i`` indexes a subdomain-i free-DOF vector so that
    ``v[trace_free_i]`` is the control-ordered trace, placed by matching
    each interface node's y coordinate to the control grid.
    """

    control_y: np.ndarray    # (n_control,) ascending y of interior interface nodes
    trace_free_1: np.ndarray  # (n_control,) indices into subdomain-1 free vectors
    trace_free_2: np.ndarray

    @property
    def n_control(self) -> int:
        return self.control_y.size


@dataclass(frozen=True)
class Decomposition:
    """Two-subdomain split of a parent mesh along a vertical grid line."""

    parent: Mesh
    interface_x: float
    sub1: Mesh
    sub2: Mesh
    node_map_1: np.ndarray   # local node index -> parent node index
    node_map_2: np.ndarray
    interface_nodes_1: np.ndarray  # local node indices on x = interface_x, ascending y
    interface_nodes_2: np.ndarray
    dirichlet_nodes_1: np.ndarray  # sorted local node indices of the Dirichlet set
    dirichlet_nodes_2: np.ndarray
    free_nodes_1: np.ndarray       # sorted local node indices of the free set
    free_nodes_2: np.ndarray
    node_to_free_1: np.ndarray     # local node index -> free index, -1 if Dirichlet
    node_to_free_2: np.ndarray
    imap: InterfaceMap

    def sub(self, side: int) -> Mesh:
        _check_side(side)
        return self.sub1 if side == 1 else self.sub2

    def node_map(self, side: int) -> np.ndarray:
        _check_side(side)
        return self.node_map_1 if side == 1 else self.node_map_2

    def dirichlet_nodes(self, side: int) -> np.ndarray:
        _check_side(side)
        return self.dirichlet_nodes_1 if side == 1 else self.dirichlet_nodes_2

    def free_nodes(self, side: int) -> np.ndarray:
        _check_side(side)
        return self.free_nodes_1 if side == 1 else self.free_nodes_2

    def node_to_free(self, side: int) -> np.ndarray:
        _check_side(side)
        return self.node_to_free_1 if side == 1 else self.node_to_free_2

    def trace_free(self, side: int) -> np.ndarray:
        _check_side(side)
        return self.imap.trace_free_1 if side == 1 else self.imap.trace_free_2

    @property
    def n_control(self) -> int:
        return self.imap.n_control


def _check_side(side: int) -> None:
    if side not in (1, 2):
        raise ValueError(f"side must be 1 or 2, got {side}")


def build_mesh(nx: int, ny: int, x_min: float = 0.0, x_max: float = 1.0,
               y_min: float = 0.0, y_max: float = 1.0) -> Mesh:
    """Build a uniform nx-by-ny Q1 mesh of [x_min, x_max] x [y_min, y_max]."""
    if nx < 1 or ny < 1:
        raise InputError(f"need nx, ny >= 1, got {nx}, {ny}")
    if not (x_max > x_min and y_max > y_min):
        raise InputError("degenerate rectangle")

    x = np.linspace(x_min, x_max, nx + 1)
    y = np.linspace(y_min, y_max, ny + 1)
    xx, yy = np.meshgrid(x, y)  # row-major over y, x fastest within a row
    coords = np.column_stack([xx.ravel(), yy.ravel()])

    ex, ey = np.meshgrid(np.arange(nx), np.arange(ny))
    n0 = (ey * (nx + 1) + ex).ravel()
    elements = np.column_stack([n0, n0 + 1, n0 + nx + 2, n0 + nx + 1])

    ii = np.arange((nx + 1) * (ny + 1)) % (nx + 1)
    jj = np.arange((nx + 1) * (ny + 1)) // (nx + 1)
    on_boundary = (ii == 0) | (ii == nx) | (jj == 0) | (jj == ny)
    boundary_nodes = np.flatnonzero(on_boundary)

    return Mesh(nx=nx, ny=ny, coords=coords, elements=elements.astype(np.int64),
                boundary_nodes=boundary_nodes)


def _submesh(parent: Mesh, i_lo: int, i_hi: int) -> tuple[Mesh, np.ndarray]:
    """Extract columns i_lo..i_hi of the parent grid as a standalone mesh."""
    nx_loc = i_hi - i_lo
    ny = parent.ny
    ii, jj = np.meshgrid(np.arange(i_lo, i_hi + 1), np.arange(ny + 1))
    node_map = (jj * (parent.nx + 1) + ii).ravel()
    coords = parent.coords[node_map]  # sliced, so shared coordinates are bitwise equal

    ex, ey = np.meshgrid(np.arange(nx_loc), np.arange(ny))
    n0 = (ey * (nx_loc + 1) + ex).ravel()
    elements = np.column_stack([n0, n0 + 1, n0 + nx_loc + 2, n0 + nx_loc + 1])

    li = np.arange((nx_loc + 1) * (ny + 1)) % (nx_loc + 1)
    lj = np.arange((nx_loc + 1) * (ny + 1)) // (nx_loc + 1)
    on_boundary = (li == 0) | (li == nx_loc) | (lj == 0) | (lj == ny)
    mesh = Mesh(nx=nx_loc, ny=ny, coords=coords, elements=elements.astype(np.int64),
                boundary_nodes=np.flatnonzero(on_boundary))
    return mesh, node_map


def free_arrays(n_nodes: int, dirichlet: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted free nodes and the node -> free index map (-1 on Dirichlet nodes)."""
    mask = np.ones(n_nodes, dtype=bool)
    mask[dirichlet] = False
    free = np.flatnonzero(mask)
    node_to_free = np.full(n_nodes, -1, dtype=np.int64)
    node_to_free[free] = np.arange(free.size)
    return free, node_to_free


def decompose(mesh: Mesh, interface_x: float) -> Decomposition:
    """Split a mesh at a vertical grid line into left/right subdomains.

    The interface must lie on an interior grid line. Each subdomain's Dirichlet
    set is its share of the parent boundary plus the two interface endpoints;
    interior interface nodes stay free on both sides and define the control
    ordering (ascending y, anchored to subdomain 1).
    """
    x0 = float(mesh.coords[0, 0])
    k_float = (interface_x - x0) / mesh.hx
    k = int(round(k_float))
    if abs(k_float - k) > _GRID_TOL / mesh.hx or not 1 <= k <= mesh.nx - 1:
        raise InputError(
            f"interface_x={interface_x} is not an interior grid line of the mesh")

    sub1, map1 = _submesh(mesh, 0, k)
    sub2, map2 = _submesh(mesh, k, mesh.nx)

    ny = mesh.ny
    iface1 = np.array([j * (sub1.nx + 1) + sub1.nx for j in range(ny + 1)])
    iface2 = np.array([j * (sub2.nx + 1) for j in range(ny + 1)])

    # Dirichlet: full subdomain boundary minus the interior interface nodes.
    dir1 = np.setdiff1d(sub1.boundary_nodes, iface1[1:-1])
    dir2 = np.setdiff1d(sub2.boundary_nodes, iface2[1:-1])
    free1, n2f1 = free_arrays(sub1.n_nodes, dir1)
    free2, n2f2 = free_arrays(sub2.n_nodes, dir2)

    control_nodes_1 = iface1[1:-1]
    control_y = sub1.coords[control_nodes_1, 1].copy()
    imap = _build_interface_map(control_y, sub1, iface1[1:-1], n2f1,
                                sub2, iface2[1:-1], n2f2)

    return Decomposition(
        parent=mesh, interface_x=interface_x, sub1=sub1, sub2=sub2,
        node_map_1=map1, node_map_2=map2,
        interface_nodes_1=iface1, interface_nodes_2=iface2,
        dirichlet_nodes_1=dir1, dirichlet_nodes_2=dir2,
        free_nodes_1=free1, free_nodes_2=free2,
        node_to_free_1=n2f1, node_to_free_2=n2f2,
        imap=imap)


def _build_interface_map(control_y, sub1, int_nodes_1, n2f1, sub2, int_nodes_2, n2f2):
    if not np.array_equal(sub1.coords[int_nodes_1],
                          sub2.coords[int_nodes_2]):
        raise ValueError("subdomain interface nodes do not match pairwise")

    def perm_to_control(nodes: np.ndarray, mesh: Mesh) -> np.ndarray:
        y = mesh.coords[nodes, 1]
        pos = np.searchsorted(control_y, y)
        if not np.array_equal(np.sort(pos), np.arange(control_y.size)) or \
                not np.allclose(control_y[pos], y, rtol=0, atol=0):
            raise ValueError("interface node coordinates do not match the control grid")
        return pos

    p1 = perm_to_control(int_nodes_1, sub1)
    p2 = perm_to_control(int_nodes_2, sub2)

    trace1 = np.empty(control_y.size, dtype=np.int64)
    trace2 = np.empty(control_y.size, dtype=np.int64)
    trace1[p1] = n2f1[int_nodes_1]
    trace2[p2] = n2f2[int_nodes_2]
    if (trace1 < 0).any() or (trace2 < 0).any():
        raise ValueError("interface interior node unexpectedly Dirichlet")

    return InterfaceMap(control_y=control_y, trace_free_1=trace1,
                        trace_free_2=trace2)
