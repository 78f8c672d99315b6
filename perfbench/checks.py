"""Output checks that share no code with the solver path.

The norms, the interface objective and the interface index maps are built
here from the grid alone: the Q1 mass matrix of a uniform grid is the
Kronecker product of two 1-D Q1 mass matrices, and the free degrees of
freedom of every mesh are the grid nodes off its Dirichlet boundary, in
ascending node order (x fastest). The adjoint pair property is checked
against the transpose of the assembled state system, formed here from its
blocks, with matrix products only.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

# Pair defect above which an adjoint pair fails: residual off the interface,
# or mismatch of the two interface parts, relative to the interface part.
PAIR_TOL = 1e-9
# Largest entry of Psi^T Psi - I, and the Eckart-Young mismatch over ||S||_F.
ORTHO_TOL = 1e-10
ECKART_YOUNG_TOL = 1e-10


def mass_1d(n_nodes: int, h: float) -> sp.csr_matrix:
    """Q1 mass matrix of n_nodes equally spaced nodes on a line."""
    diag = np.full(n_nodes, 2.0 * h / 3.0)
    diag[[0, -1]] = h / 3.0
    off = np.full(n_nodes - 1, h / 6.0)
    return sp.diags([off, diag, off], [-1, 0, 1], format="csr")


def side_width(level: int) -> int:
    """Cells across one subdomain of a level x level grid split at x = 0.5."""
    return level // 2


def side_mass(level: int) -> sp.csr_matrix:
    """Q1 mass on all nodes of one subdomain, node (i, j) at j*(w+1) + i."""
    h = 1.0 / level
    return sp.kron(mass_1d(level + 1, h), mass_1d(side_width(level) + 1, h),
                   format="csr")


def embed_side(v_free: np.ndarray, level: int, side: int) -> np.ndarray:
    """Subdomain free-DOF vectors (columns) on all subdomain nodes.

    Side 1 keeps its interior interface column x = 0.5 (grid column w) free,
    side 2 its grid column 0; all other boundary nodes are Dirichlet zero.
    """
    w = side_width(level)
    v = np.asarray(v_free).reshape(level - 1, w, -1)
    full = np.zeros((level + 1, w + 1, v.shape[2]))
    cols = slice(1, w + 1) if side == 1 else slice(0, w)
    full[1:level, cols] = v
    return full.reshape((level + 1) * (w + 1), -1)


def split_parent(v_free: np.ndarray, level: int) -> tuple[np.ndarray, np.ndarray]:
    """Monolithic free-DOF vector restricted to all nodes of each subdomain."""
    full = np.zeros((level + 1, level + 1))
    full[1:level, 1:level] = np.asarray(v_free).reshape(level - 1, level - 1)
    w = side_width(level)
    return full[:, :w + 1].ravel(), full[:, w:].ravel()


def trace_index(level: int, side: int) -> np.ndarray:
    """Free indices of the interior interface nodes, ascending y."""
    w = side_width(level)
    rows = np.arange(level - 1)
    return rows * w + (w - 1 if side == 1 else 0)


def interface_mass(level: int) -> sp.csr_matrix:
    """1-D Q1 mass on the interior interface nodes (endpoints are Dirichlet)."""
    h = 1.0 / level
    n = level - 1
    return sp.diags([np.full(n - 1, h / 6.0), np.full(n, 2.0 * h / 3.0),
                     np.full(n - 1, h / 6.0)], [-1, 0, 1], format="csr")


def relative_l2(final_1: np.ndarray, final_2: np.ndarray,
                reference_free: np.ndarray, level: int) -> float:
    """Relative L2 distance of a coupled solution to the monolithic one."""
    mass = side_mass(level)
    refs = split_parent(reference_free, level)
    num = den = 0.0
    for side, final, ref in ((1, final_1, refs[0]), (2, final_2, refs[1])):
        err = embed_side(final, level, side)[:, 0] - ref
        num += float(err @ (mass @ err))
        den += float(ref @ (mass @ ref))
    return float(np.sqrt(num / den))


def objective(u_1: np.ndarray, u_2: np.ndarray, g: np.ndarray, delta: float,
              level: int) -> np.ndarray:
    """J = 1/2 |u_1 - u_2|^2 + delta/2 |g|^2 on the interface, per column."""
    mass = interface_mass(level)
    jump = u_1[trace_index(level, 1)] - u_2[trace_index(level, 2)]
    val = 0.5 * np.einsum("i...,i...->...", jump, mass @ jump)
    return val + 0.5 * delta * np.einsum("i...,i...->...", g, mass @ g)


def adjoint_system(ops) -> sp.csr_matrix:
    """Exact transpose of one subdomain's state system, formed from blocks."""
    state = ops.M / ops.dt + ops.nu * ops.K + ops.A + ops.S_state
    return sp.csr_matrix(state.T)


def pair_defects(ops_1, ops_2, mu_1: np.ndarray, mu_2: np.ndarray,
                 level: int, chunk: int = 2048) -> np.ndarray:
    """Per-pair defect of the adjoint pair property.

    For an adjoint pair (mu_1, mu_2) of one jump, A_i^T mu_i is zero off the
    interface and its interface parts are equal and opposite. The defect is
    the largest violation relative to the largest interface entry; a pair
    whose interface part is zero gets defect inf.
    """
    systems = (adjoint_system(ops_1), adjoint_system(ops_2))
    traces = (trace_index(level, 1), trace_index(level, 2))
    off = []
    for side, tr in zip((1, 2), traces):
        mask = np.ones(systems[side - 1].shape[0], dtype=bool)
        mask[tr] = False
        off.append(mask)
    out = np.empty(mu_1.shape[1])
    for start in range(0, mu_1.shape[1], chunk):
        cols = slice(start, start + chunk)
        r_1 = systems[0] @ mu_1[:, cols]
        r_2 = systems[1] @ mu_2[:, cols]
        i_1, i_2 = r_1[traces[0]], r_2[traces[1]]
        scale = np.maximum(np.abs(i_1).max(axis=0), np.abs(i_2).max(axis=0))
        worst = np.maximum.reduce([np.abs(r_1[off[0]]).max(axis=0),
                                   np.abs(r_2[off[1]]).max(axis=0),
                                   np.abs(i_1 + i_2).max(axis=0)])
        with np.errstate(divide="ignore", invalid="ignore"):
            out[cols] = np.where(scale > 0, worst / scale, np.inf)
    return out


def pod_defects(data: np.ndarray, Psi: np.ndarray, sigma: np.ndarray,
                ks) -> tuple[float, float]:
    """Orthonormality defect max|Psi^T Psi - I| and Eckart-Young defect.

    Eckart-Young: ||S - Psi_k Psi_k^T S||_F^2 = sum_{i>k} sigma_i^2; the
    defect compares the square roots of the two sides for every k in ks,
    relative to ||S||_F.
    """
    norm = float(np.linalg.norm(data))
    ortho = float(np.abs(Psi.T @ Psi - np.eye(Psi.shape[1])).max())
    worst = 0.0
    for k in ks:
        psi = Psi[:, :k]
        resid = np.linalg.norm(data - psi @ (psi.T @ data))
        tail = np.sqrt(np.sum(sigma[k:] ** 2))
        worst = max(worst, abs(float(resid) - float(tail)))
    return ortho, worst / norm if norm else worst


def bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Same shape and the same float64 bit patterns, -0.0 and NaN included."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))
