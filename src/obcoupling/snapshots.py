"""Snapshot collection for basis construction, plus on-disk storage.

State snapshots come from restricting a monolithic trajectory to the two
subdomains. Adjoint snapshots come from two collectors:

* ``collect_gdra`` runs the coupled full-order solve and records the
  interface jump of every descent direction it forms. The yield depends on
  how often the warm-started objective already sits below tolerance, so
  the number of pairs is known only after the run; the jumps (n_control
  floats each) are kept, and the pairs are written afterwards into one
  preallocated matrix per side.

* ``collect_mgd`` runs m fixed-step descent iterations per timestep against
  the recorded state history instead of a marching state. Timesteps decouple
  completely: each writes into preallocated column slots, making the result
  bitwise identical for any execution order. Exactly m pairs per timestep.
  The descent is linear in the interface and runs on the same
  ``assembly.TraceResponse`` per side as the coupled run (the cached
  ``trace_response`` of ``problem.operators``), so a pair costs a few dense
  matvecs of n_control x n_free matrices and no sparse solve. The
  zero-control jump j0 is the difference of the sides'
  ``zero_control_trace`` of the history columns s_i (and loads), exactly as
  in ``coupling.run_transient``, and the jump at control g is j0 + R g.

Both collectors write each pair mu_i = sign_i Y_i jump with
``coupling.write_pair`` (R and G come from ``coupling.interface_maps``), so
each adjoint matrix lies in the span of the side's Y_i (n_control columns).
They attach that Y_i as the matrix's ``span``, and ``rom.full_pod`` builds
the basis through it. SNAP1 stores do not persist the span: a matrix read
back has none, and its basis comes from the thin SVD of the data.

Storage uses one file per snapshot matrix in a small binary container:
magic "SNAP1", a version byte, little-endian u32 row and column counts, a
u32-length-prefixed UTF-8 JSON metadata blob, then the matrix as
little-endian float64 in column-major order. A store is a directory of
these files plus a meta.json.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from obcoupling import coupling
from obcoupling.errors import InputError
from obcoupling.fom import ProblemSpec, Trajectory
# not called here; span tracers patch these names at this lookup site
from obcoupling.fom import adjoint_solve, modified_state_step  # noqa: F401
from obcoupling.geometry import Decomposition
from obcoupling.rom import SnapshotMatrix

_MAGIC = b"SNAP1"
_VERSION = 1
_HEADER = struct.Struct("<III")  # rows, cols, metadata byte length


@dataclass
class SnapshotStore:
    """Named snapshot matrices plus collection metadata."""

    matrices: dict[str, SnapshotMatrix] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def __getitem__(self, key: str) -> SnapshotMatrix:
        return self.matrices[key]

    def __contains__(self, key: str) -> bool:
        return key in self.matrices

    def keys(self):
        return self.matrices.keys()


def split_monolithic_snapshots(traj: Trajectory, dec: Decomposition) -> SnapshotStore:
    """Restrict a monolithic free-DOF trajectory to the two subdomains.

    Every subdomain free node is interior to the parent domain (interface
    nodes included), so each restricted column is a plain row selection.
    The matrices are column-major, so a time level is contiguous.
    """
    parent_to_free = np.full(dec.parent.n_nodes, -1, dtype=np.int64)
    parent_to_free[traj.free_nodes] = np.arange(traj.free_nodes.size)

    store = SnapshotStore(meta={"kind": "state", "dt": traj.dt,
                                "n_steps": traj.n_steps})
    for side in (1, 2):
        parent_nodes = dec.node_map(side)[dec.free_nodes(side)]
        rows = parent_to_free[parent_nodes]
        if (rows < 0).any():
            raise ValueError("subdomain free node missing from monolithic free set")
        store.matrices[f"state_{side}"] = SnapshotMatrix(
            data=np.take(traj.data.T, rows, axis=1).T, kind="state", subdomain=side)
    return store


def collect_gdra(problem: ProblemSpec, config: coupling.CouplingConfig) -> SnapshotStore:
    """Adjoint snapshots from a coupled full-order run.

    One pair per descent direction formed during the transient solve
    (timesteps already below tolerance contribute nothing), written from
    the direction's jump in the order the run formed them.
    """
    jumps: list[np.ndarray] = []
    result = coupling.run_transient(
        problem, config, recorder=lambda step, jump: jumps.append(jump.copy()),
        keep_trajectories=False)

    dec = problem.decomposition
    # the run's own full-order responses, cached with the problem's operators
    spans = tuple(problem.operators(side, config.supg_on)
                  .trace_response(dec.trace_free(side)).Y for side in (1, 2))
    out = tuple(np.empty((Y.shape[0], len(jumps)), order="F") for Y in spans)
    for col, jump in enumerate(jumps):
        coupling.write_pair(spans, jump, out, col)
    meta = {
        "method": "gdra", "delta": config.delta, "tol": config.tol,
        "alpha0": config.alpha0, "supg_on": config.supg_on,
        "nu": problem.nu, "dt": problem.dt, "n_steps": problem.n_steps,
        "n_pairs": len(jumps),
        "pairs_per_step": [s.directions for s in result.stats],
        "all_converged": result.all_converged,
    }
    return SnapshotStore(matrices={
        f"adjoint_{side}": SnapshotMatrix(data=data, kind="adjoint",
                                          subdomain=side, span=Y)
        for side, data, Y in zip((1, 2), out, spans)}, meta=meta)


def _mgd_step(n, m, ops_1, ops_2, state_1, state_2, tf_1, tf_2, config,
              loads, out_1, out_2):
    """Collect the m adjoint pairs of timestep n into preallocated columns.

    Runs the per-timestep descent against the snapshot history state_i[:, n-1]
    with a fixed step alpha0 and zero initial control; with no accepted
    objective sequence to monitor there is nothing to halve against. Every
    solve happens in the sides' cached trace responses, so a step is a few
    dense matvecs: the zero-control jump j0 from the history columns, the
    jump j0 + R g at control g, and the pair ``coupling.write_pair``.
    """
    delta, alpha = config.delta, config.alpha0
    r_1 = ops_1.trace_response(tf_1)
    r_2 = ops_2.trace_response(tf_2)
    f_1, f_2 = (None, None) if loads is None else (loads[0](n), loads[1](n))
    j0 = (r_1.zero_control_trace(state_1[:, n - 1], f_1)
          - r_2.zero_control_trace(state_2[:, n - 1], f_2))
    if m > 1:
        R, G = coupling.interface_maps((r_1, r_2), (r_1, r_2))
    g = np.zeros(j0.size)
    jump = j0
    for k in range(m):
        coupling.write_pair((r_1.Y, r_2.Y), jump, (out_1, out_2), (n - 1) * m + k)
        if k + 1 < m:
            g = (1.0 - alpha * delta) * g - alpha * (G @ jump)
            jump = j0 + R @ g


def collect_mgd(problem: ProblemSpec, states: SnapshotStore, m: int,
                config: coupling.CouplingConfig, *, workers: int = 1) -> SnapshotStore:
    """Adjoint snapshots from m descent iterations per timestep.

    ``states`` must hold the subdomain state histories (keys state_1 and
    state_2, one row per free DOF and one column per time level). Yields
    exactly m pairs per timestep in timestep-major column order. ``workers``
    is validated but the timesteps run in one thread: a step is a few
    memory-bound matvecs, and a thread pool made the collection slower.
    """
    if m < 1:
        raise InputError("m must be at least 1")
    if workers < 1:
        raise InputError("workers must be at least 1")
    dec = problem.decomposition
    n_steps = problem.n_steps
    state_1 = states["state_1"].data
    state_2 = states["state_2"].data
    if state_1.shape[1] != n_steps + 1 or state_2.shape[1] != n_steps + 1:
        raise InputError("state snapshots do not match the problem's step count")
    for side, data in ((1, state_1), (2, state_2)):
        if data.shape[0] != dec.free_nodes(side).size:
            raise InputError(f"state_{side} snapshots have {data.shape[0]} rows, "
                             f"the problem's subdomain {side} has "
                             f"{dec.free_nodes(side).size} free nodes")

    ops_1 = problem.operators(1, config.supg_on)
    ops_2 = problem.operators(2, config.supg_on)
    tf_1, tf_2 = dec.trace_free(1), dec.trace_free(2)

    loads = None
    if problem.f is not None:
        loads = (coupling.make_loads(problem, dec, 1),
                 coupling.make_loads(problem, dec, 2))

    out_1 = np.zeros((state_1.shape[0], n_steps * m), order="F")
    out_2 = np.zeros((state_2.shape[0], n_steps * m), order="F")
    for n in range(1, n_steps + 1):
        _mgd_step(n, m, ops_1, ops_2, state_1, state_2, tf_1, tf_2,
                  config, loads, out_1, out_2)

    meta = {
        "method": "mgd", "m": m, "delta": config.delta, "alpha0": config.alpha0,
        "supg_on": config.supg_on, "nu": problem.nu, "dt": problem.dt,
        "n_steps": n_steps, "n_pairs": n_steps * m,
    }
    return SnapshotStore(matrices={
        "adjoint_1": SnapshotMatrix(data=out_1, kind="adjoint", subdomain=1,
                                    span=ops_1.trace_response(tf_1).Y),
        "adjoint_2": SnapshotMatrix(data=out_2, kind="adjoint", subdomain=2,
                                    span=ops_2.trace_response(tf_2).Y),
    }, meta=meta)


def write_snapshot_file(path, matrix: np.ndarray, meta: dict | None = None):
    """Write one matrix in the SNAP1 container format."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError("snapshot matrices are 2-d")
    blob = json.dumps(meta or {}).encode("utf-8")
    rows, cols = matrix.shape
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(bytes([_VERSION]))
        fh.write(_HEADER.pack(rows, cols, len(blob)))
        fh.write(blob)
        fh.write(np.ascontiguousarray(matrix.ravel(order="F"), dtype="<f8").tobytes())


def read_snapshot_file(path) -> tuple[np.ndarray, dict]:
    """Read a SNAP1 container into a column-major matrix; raises InputError
    on any malformed layout and on NaN or infinite entries."""
    raw = Path(path).read_bytes()
    head_len = len(_MAGIC) + 1 + _HEADER.size
    if len(raw) < head_len:
        raise InputError(f"{path}: truncated header")
    if raw[:len(_MAGIC)] != _MAGIC:
        raise InputError(f"{path}: bad magic, not a SNAP1 file")
    version = raw[len(_MAGIC)]
    if version != _VERSION:
        raise InputError(f"{path}: unsupported version {version}")
    rows, cols, meta_len = _HEADER.unpack_from(raw, len(_MAGIC) + 1)
    data_start = head_len + meta_len
    expected = data_start + rows * cols * 8
    if len(raw) != expected:
        raise InputError(f"{path}: expected {expected} bytes, found {len(raw)}")
    try:
        meta = json.loads(raw[head_len:data_start].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"{path}: bad metadata blob: {exc}") from exc
    if not isinstance(meta, dict):
        raise InputError(f"{path}: metadata blob is not a JSON object")
    flat = np.frombuffer(raw, dtype="<f8", count=rows * cols, offset=data_start)
    if not np.isfinite(flat).all():
        raise InputError(f"{path}: matrix holds NaN or infinite values")
    return flat.reshape((rows, cols), order="F").copy(order="F"), meta


def write_store(store: SnapshotStore, directory):
    """Write a snapshot store as a directory of SNAP1 files plus meta.json."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for key, sm in store.matrices.items():
        write_snapshot_file(directory / f"{key}.snap", sm.data,
                            {"kind": sm.kind, "subdomain": sm.subdomain})
    (directory / "meta.json").write_text(json.dumps(store.meta, indent=1))


def read_store(directory) -> SnapshotStore:
    directory = Path(directory)
    if not directory.is_dir():
        raise InputError(f"{directory} is not a snapshot store directory")
    meta_path = directory / "meta.json"
    try:
        meta = json.loads(meta_path.read_text()) if meta_path.exists() else {}
    except json.JSONDecodeError as exc:
        raise InputError(f"{meta_path}: bad JSON: {exc}") from exc
    if not isinstance(meta, dict):
        raise InputError(f"{meta_path}: not a JSON object")
    matrices = {}
    for path in sorted(directory.glob("*.snap")):
        data, file_meta = read_snapshot_file(path)
        subdomain = file_meta.get("subdomain", 0)
        if not isinstance(subdomain, int) or isinstance(subdomain, bool):
            raise InputError(f"{path}: subdomain {subdomain!r} is not an integer")
        matrices[path.stem] = SnapshotMatrix(
            data=data, kind=file_meta.get("kind", "state"), subdomain=subdomain)
    if not matrices:
        raise InputError(f"{directory} contains no snapshot files")
    return SnapshotStore(matrices=matrices, meta=meta)
