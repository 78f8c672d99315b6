import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from obcoupling.errors import InputError
from obcoupling.geometry import build_mesh, decompose


def test_mesh_counts_and_spacing():
    mesh = build_mesh(4, 3)
    assert mesh.n_nodes == 5 * 4
    assert mesh.n_elements == 12
    assert mesh.hx == pytest.approx(0.25)
    assert mesh.hy == pytest.approx(1.0 / 3.0)
    np.testing.assert_allclose(mesh.coords[0], [0.0, 0.0])
    np.testing.assert_allclose(mesh.coords[-1], [1.0, 1.0])


def test_node_index_matches_coords():
    mesh = build_mesh(5, 4)
    for i in (0, 2, 5):
        for j in (0, 1, 4):
            node = mesh.node_index(i, j)
            np.testing.assert_allclose(mesh.coords[node],
                                       [i * mesh.hx, j * mesh.hy], atol=1e-15)


def test_elements_counterclockwise_unit_cells():
    mesh = build_mesh(3, 5)
    for nodes in mesh.elements:
        quad = mesh.coords[nodes]
        # shoelace signed area, positive for counterclockwise ordering
        x, y = quad[:, 0], quad[:, 1]
        area = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
        assert area == pytest.approx(mesh.hx * mesh.hy)
        assert quad[1, 0] - quad[0, 0] == pytest.approx(mesh.hx)
        assert quad[3, 1] - quad[0, 1] == pytest.approx(mesh.hy)


def test_boundary_nodes():
    mesh = build_mesh(4, 4)
    on_edge = np.isin(mesh.coords[:, 0], [0.0, 1.0]) \
        | np.isin(mesh.coords[:, 1], [0.0, 1.0])
    np.testing.assert_array_equal(np.sort(mesh.boundary_nodes),
                                  np.flatnonzero(on_edge))


def test_build_mesh_rejects_bad_extent():
    with pytest.raises(ValueError):
        build_mesh(0, 4)
    with pytest.raises(ValueError):
        build_mesh(4, 4, x_min=1.0, x_max=0.0)
    # an infinite extent or width passes the ordering check and gives NaN coordinates
    for extent in ({"x_max": np.inf}, {"y_max": np.inf}, {"x_min": -np.inf},
                   {"y_min": np.nan}, {"x_min": -1e308, "x_max": 1e308}):
        with pytest.raises(InputError, match="finite extents"):
            build_mesh(4, 4, **extent)
    # a width below the grid's resolution makes coincident grid lines (hx == 0)
    with pytest.raises(InputError, match="degenerate rectangle"):
        build_mesh(4, 4, x_min=1.0, x_max=1.0 + 4e-16)


def test_decompose_rejects_off_grid_interface():
    mesh = build_mesh(5, 5)  # gridlines at multiples of 0.2
    with pytest.raises(ValueError):
        decompose(mesh, 0.5)
    for x in (np.nan, np.inf, -np.inf, 1e308):
        with pytest.raises(InputError, match="not an interior grid line"):
            decompose(mesh, x)
    dec = decompose(mesh, 0.4)
    assert dec.sub(1).nx == 2 and dec.sub(2).nx == 3


@pytest.mark.parametrize("x_min", [0.0, 10.0, 1e3, 1e6, -1e6])
def test_decompose_accepts_every_grid_line_far_from_the_origin(x_min):
    # the grid-line tolerance scales with the coordinates: at 1e6 the doubles
    # are 1.2e-10 apart, coarser than an absolute 1e-12
    mesh = build_mesh(10, 10, x_min, x_min + 1.0)
    for k in range(1, 10):
        x_cut = mesh.coords[k, 0]
        dec = decompose(mesh, x_cut)
        assert dec.sub(1).nx == k and dec.sub(2).nx == 10 - k
        assert dec.sub(1).coords[k, 0] == x_cut == dec.sub(2).coords[0, 0]
        with pytest.raises(InputError, match="not an interior grid line"):
            decompose(mesh, x_cut + 0.25 * mesh.hx)  # a quarter cell off


def test_decompose_subdomain_coords_bitwise():
    mesh = build_mesh(6, 4)
    dec = decompose(mesh, 0.5)
    for side in (1, 2):
        sub = dec.sub(side)
        nmap = dec.node_map(side)
        assert (sub.coords == mesh.coords[nmap]).all()


def test_interface_node_sets():
    mesh = build_mesh(6, 4)
    dec = decompose(mesh, 0.5)
    assert dec.n_control == 3  # ny - 1 interior interface nodes
    x_cut = mesh.coords[mesh.node_index(3, 0), 0]
    assert x_cut == pytest.approx(0.5)
    for side in (1, 2):
        sub = dec.sub(side)
        nodes = np.flatnonzero(sub.coords[:, 0] == x_cut)
        coords = sub.coords[nodes]
        assert (np.diff(coords[:, 1]) > 0).all()
        assert coords[0, 1] == 0.0 and coords[-1, 1] == 1.0
        # the endpoints are Dirichlet; the interior nodes are the control, in order
        assert np.isin(nodes[[0, -1]], dec.dirichlet_nodes(side)).all()
        np.testing.assert_array_equal(dec.free_nodes(side)[dec.trace_free(side)],
                                      nodes[1:-1])
    with pytest.raises(ValueError, match="side must be 1 or 2"):
        dec.sub(3)


def test_dirichlet_excludes_interface_interior():
    mesh = build_mesh(8, 6)
    dec = decompose(mesh, 0.5)
    for side in (1, 2):
        sub = dec.sub(side)
        dir_coords = sub.coords[dec.dirichlet_nodes(side)]
        interior_iface = (np.abs(dir_coords[:, 0] - 0.5) < 1e-14) \
            & (dir_coords[:, 1] > 0) & (dir_coords[:, 1] < 1)
        assert not interior_iface.any()
        # endpoints of the interface stay constrained
        ends = (np.abs(dir_coords[:, 0] - 0.5) < 1e-14)
        assert ends.sum() == 2


def test_free_dirichlet_partition():
    mesh = build_mesh(6, 6)
    dec = decompose(mesh, 0.5)
    for side in (1, 2):
        free = dec.free_nodes(side)
        fixed = dec.dirichlet_nodes(side)
        assert (np.diff(free) > 0).all() and (np.diff(fixed) > 0).all()
        assert np.intersect1d(free, fixed).size == 0
        np.testing.assert_array_equal(np.union1d(free, fixed),
                                      np.arange(dec.sub(side).n_nodes))


def test_trace_maps_agree_across_interface():
    mesh = build_mesh(8, 6)
    dec = decompose(mesh, 0.5)
    y1 = dec.sub(1).coords[dec.free_nodes(1)[dec.trace_free(1)], 1]
    y2 = dec.sub(2).coords[dec.free_nodes(2)[dec.trace_free(2)], 1]
    np.testing.assert_array_equal(y1, y2)
    assert (np.diff(y1) > 0).all()
    x1 = dec.sub(1).coords[dec.free_nodes(1)[dec.trace_free(1)], 0]
    np.testing.assert_allclose(x1, 0.5)
    assert y1.size == dec.n_control


@settings(max_examples=50, deadline=None)
@given(nx=st.integers(2, 12), ny=st.integers(2, 10),
       x_min=st.floats(-3.0, 3.0), width=st.floats(0.5, 4.0),
       y_min=st.floats(-3.0, 3.0), height=st.floats(0.5, 4.0), data=st.data())
def test_decompose_properties(nx, ny, x_min, width, y_min, height, data):
    cut = data.draw(st.integers(1, nx - 1), label="cut")
    mesh = build_mesh(nx, ny, x_min, x_min + width, y_min, y_min + height)
    column = mesh.node_index(cut, np.arange(ny + 1))
    x_cut = mesh.coords[column[0], 0]
    dec = decompose(mesh, x_cut)
    assert dec.sub(1).nx == cut and dec.sub(2).nx == nx - cut
    assert dec.n_control == ny - 1
    # parent nodes referenced by both subdomains are exactly the cut column
    np.testing.assert_array_equal(
        np.intersect1d(dec.node_map(1), dec.node_map(2)), column)
    for side in (1, 2):
        sub = dec.sub(side)
        assert (sub.coords == mesh.coords[dec.node_map(side)]).all()
        # the control trace is the cut column's interior, ascending y, on both
        # sides with the parent's bits
        trace = sub.coords[dec.free_nodes(side)[dec.trace_free(side)]]
        assert (trace == mesh.coords[column[1:-1]]).all()
        assert (trace[:, 0] == x_cut).all() and (np.diff(trace[:, 1]) > 0).all()


def test_index_arithmetic_is_the_meshgrid_route():
    # elements, boundary, coordinates and each side's node sets, computed by
    # index arithmetic, equal the meshgrid, mask and set-difference route
    # of tests/oracles.py: values, dtypes and layout
    def same(got, want):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.flags.c_contiguous and got.tobytes() == want.tobytes()

    for nx in (1, 2, 3, 5, 8, 16):
        for ny in (1, 2, 3, 7, 16):
            mesh = build_mesh(nx, ny, -0.3, 1.9, 0.25, 0.75)
            elements, boundary = oracles.grid_topology(nx, ny)
            same(mesh.elements, elements)
            same(mesh.boundary_nodes, boundary)
            same(mesh.coords, oracles.grid_coords(nx, ny, -0.3, 1.9, 0.25, 0.75))
            for k in range(1, nx):
                dec = decompose(mesh, mesh.coords[k, 0])
                for side, (i_lo, i_hi) in ((1, (0, k)), (2, (k, nx))):
                    sub = dec.side(side)
                    want = oracles.subdomain_index_arrays(nx, ny, i_lo, i_hi, k)
                    for got, arr in zip((sub.node_map, sub.dirichlet_nodes,
                                         sub.free_nodes, sub.trace_free), want):
                        same(got, arr)
                    same(sub.mesh.elements, oracles.grid_topology(i_hi - i_lo, ny)[0])
