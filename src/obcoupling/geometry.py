"""Structured quadrilateral meshes and two-subdomain interface decompositions.

A mesh is a uniform grid of axis-aligned Q1 rectangles. Nodes are ordered
lexicographically with x fastest: node (i, j) has index j*(nx+1) + i and sits
at (x0 + i*hx, y0 + j*hy). Element (ex, ey) lists its corners counterclockwise
as [bottom-left, bottom-right, top-right, top-left].

A decomposition splits the rectangle into a left and a right subdomain along a
vertical grid line, one ``Subdomain`` record per side. Both submeshes hold the
parent's interface column; their coordinates are sliced (not recomputed) from
the parent, so shared coordinates are bitwise equal. Each subdomain treats its
share of the outer boundary plus the two interface endpoints as Dirichlet; the
interior interface nodes remain free and carry the coupling control. The grid
fixes the control ordering: ascending y on both sides.
"""

from __future__ import annotations

import math
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
class Subdomain:
    """One side of a decomposition: its submesh and node sets."""

    mesh: Mesh
    node_map: np.ndarray         # local node index -> parent node index
    dirichlet_nodes: np.ndarray  # sorted local node indices of the Dirichlet set
    free_nodes: np.ndarray       # sorted local node indices of the free set
    trace_free: np.ndarray       # free indices of the control nodes, ascending y


@dataclass(frozen=True)
class Decomposition:
    """Two-subdomain split of a parent mesh along a vertical grid line."""

    parent: Mesh
    sides: tuple[Subdomain, Subdomain]  # left (side 1), right (side 2)

    def side(self, side: int) -> Subdomain:
        if side not in (1, 2):
            raise ValueError(f"side must be 1 or 2, got {side}")
        return self.sides[side - 1]

    def sub(self, side: int) -> Mesh:
        return self.side(side).mesh

    def node_map(self, side: int) -> np.ndarray:
        return self.side(side).node_map

    def dirichlet_nodes(self, side: int) -> np.ndarray:
        return self.side(side).dirichlet_nodes

    def free_nodes(self, side: int) -> np.ndarray:
        return self.side(side).free_nodes

    def trace_free(self, side: int) -> np.ndarray:
        return self.side(side).trace_free

    @property
    def n_control(self) -> int:
        return self.sides[0].trace_free.size


def _grid_mesh(nx: int, ny: int, coords: np.ndarray) -> Mesh:
    """An nx-by-ny grid mesh on the given lexicographic node coordinates."""
    ex, ey = np.meshgrid(np.arange(nx), np.arange(ny))
    n0 = (ey * (nx + 1) + ex).ravel()
    elements = np.column_stack([n0, n0 + 1, n0 + nx + 2, n0 + nx + 1])

    ii = np.arange((nx + 1) * (ny + 1)) % (nx + 1)
    jj = np.arange((nx + 1) * (ny + 1)) // (nx + 1)
    on_boundary = (ii == 0) | (ii == nx) | (jj == 0) | (jj == ny)
    return Mesh(nx=nx, ny=ny, coords=coords, elements=elements.astype(np.int64),
                boundary_nodes=np.flatnonzero(on_boundary))


def build_mesh(nx: int, ny: int, x_min: float = 0.0, x_max: float = 1.0,
               y_min: float = 0.0, y_max: float = 1.0) -> Mesh:
    """Build a uniform nx-by-ny Q1 mesh of [x_min, x_max] x [y_min, y_max]."""
    if nx < 1 or ny < 1:
        raise InputError(f"need nx, ny >= 1, got {nx}, {ny}")
    if not all(map(math.isfinite, (x_min, x_max, y_min, y_max,
                                   x_max - x_min, y_max - y_min))):
        raise InputError(f"rectangle [{x_min}, {x_max}] x [{y_min}, {y_max}] "
                         "must have finite extents")
    x = np.linspace(x_min, x_max, nx + 1)
    y = np.linspace(y_min, y_max, ny + 1)
    if not ((np.diff(x) > 0).all() and (np.diff(y) > 0).all()):
        raise InputError("degenerate rectangle: grid lines must strictly increase")
    xx, yy = np.meshgrid(x, y)  # row-major over y, x fastest within a row
    return _grid_mesh(nx, ny, np.column_stack([xx.ravel(), yy.ravel()]))


def _subdomain(parent: Mesh, i_lo: int, i_hi: int, k: int) -> Subdomain:
    """Columns i_lo..i_hi of the parent grid, with the interface at column k."""
    nx, ny = i_hi - i_lo, parent.ny
    ii, jj = np.meshgrid(np.arange(i_lo, i_hi + 1), np.arange(ny + 1))
    node_map = (jj * (parent.nx + 1) + ii).ravel()
    mesh = _grid_mesh(nx, ny, parent.coords[node_map])  # sliced, so bitwise shared

    # the control nodes: the interface column's interior, ascending y
    control = np.arange(1, ny) * (nx + 1) + (k - i_lo)
    dirichlet = np.setdiff1d(mesh.boundary_nodes, control)
    free, node_to_free = free_arrays(mesh.n_nodes, dirichlet)
    return Subdomain(mesh=mesh, node_map=node_map, dirichlet_nodes=dirichlet,
                     free_nodes=free, trace_free=node_to_free[control])


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
    interior interface nodes stay free on both sides and are the control
    nodes, in ascending y.
    """
    x0 = float(mesh.coords[0, 0])
    k_float = (interface_x - x0) / mesh.hx
    k = int(round(k_float)) if math.isfinite(k_float) else -1  # nan, inf: off grid
    if abs(k_float - k) > _GRID_TOL / mesh.hx or not 1 <= k <= mesh.nx - 1:
        raise InputError(
            f"interface_x={interface_x} is not an interior grid line of the mesh")
    return Decomposition(parent=mesh, sides=(_subdomain(mesh, 0, k, k),
                                             _subdomain(mesh, k, mesh.nx, k)))
