"""Solid body rotation benchmark and experiment driver.

The benchmark transports three bodies (slotted cylinder, cone, Gaussian
hill) once around the unit square's center under the rotating field
a = (0.5 - y, x - 0.5) with small diffusion and homogeneous Dirichlet walls.
One full revolution takes t = 2 pi. The domain splits at x = 0.5 into left
and right halves so the bodies repeatedly cross the interface.

``run_experiment`` reproduces the coupled accuracy studies: it solves the
monolithic reference, restricts it to state snapshots, builds requested
bases (state POD, descent-recorded or per-timestep adjoint collections),
runs each configured coupled solve and reports errors against the reference
at the final time. Report CSVs are byte deterministic; wall times go to a
separate timings file.
"""

from __future__ import annotations

import collections
import csv
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from obcoupling import assembly, coupling, rom, snapshots
from obcoupling.errors import InputError
from obcoupling.fom import ProblemSpec, monolithic_solve
from obcoupling.geometry import build_mesh, decompose

DT_LEVEL_64 = 1.122398e-3


def default_dt(level: int) -> float:
    """Timestep pinned at refinement level 64 and scaled like the cell area."""
    return DT_LEVEL_64 * (64.0 / level) ** 2


def rotation_field(x, y):
    """Divergence-free solid rotation about (0.5, 0.5), one turn per 2 pi."""
    return 0.5 - np.asarray(y), np.asarray(x) - 0.5


def initial_condition(x, y):
    """Slotted cylinder, cone and Gaussian hill on the unit square."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    out = np.exp(-((x - 0.25) ** 2 + (y - 0.5) ** 2) / (2.0 * 0.05 ** 2))
    r_cone = np.hypot(x - 0.5, y - 0.25)
    out = out + np.clip(1.0 - r_cone / 0.15, 0.0, None)
    cyl = (np.hypot(x - 0.5, y - 0.75) <= 0.15) \
        & ~((np.abs(x - 0.5) < 0.025) & (y < 0.85))
    return out + cyl.astype(np.float64)


def solid_body_rotation_problem(level: int = 32, *, nu: float = 1e-5,
                                dt: float | None = None,
                                T: float = 2.0 * math.pi) -> ProblemSpec:
    """Benchmark problem on a level x level grid split at x = 0.5."""
    if level < 4 or level % 2:
        raise InputError("level must be even and at least 4")
    mesh = build_mesh(level, level)
    dec = decompose(mesh, 0.5)
    u0 = initial_condition(mesh.coords[:, 0], mesh.coords[:, 1])
    return ProblemSpec(decomposition=dec, nu=nu, a=rotation_field, f=None,
                       u0=u0, dt=default_dt(level) if dt is None else dt, T=T)


def relative_errors(ops_1: assembly.OperatorSet, ops_2: assembly.OperatorSet,
                    final_1: np.ndarray, final_2: np.ndarray,
                    ref_1: np.ndarray, ref_2: np.ndarray) -> dict[str, float]:
    """Relative L2 and H1 errors against a reference, summed over subdomains.

    Every element belongs to exactly one subdomain, so adding the two
    subdomain quadratic forms integrates each element once. All compared
    fields satisfy identical Dirichlet data, hence the free-DOF restricted
    forms equal the full ones.
    """
    def forms(ops, e, r):
        """e M e, e K e, r M r and r K r of one side."""
        return [float(v @ (mat @ v)) for v in (e, r) for mat in (ops.M, ops.K)]

    eM_1, eK_1, rM_1, rK_1 = forms(ops_1, final_1 - ref_1, ref_1)
    eM_2, eK_2, rM_2, rK_2 = forms(ops_2, final_2 - ref_2, ref_2)
    out = {}
    for name, num, den in (
            ("rel_l2", eM_1 + eM_2, rM_1 + rM_2),
            ("rel_h1", (eM_1 + eK_1) + (eM_2 + eK_2), (rM_1 + rK_1) + (rM_2 + rK_2)),
            ("rel_h1_semi", eK_1 + eK_2, rK_1 + rK_2)):
        if den <= 0.0:
            raise ValueError("reference field has zero norm")
        out[name] = math.sqrt(num / den)
    return out


@dataclass(frozen=True)
class BenchmarkSpec:
    """Scenario parameters shared by every run of one experiment."""

    level: int = 32
    nu: float = 1e-5
    dt: float | None = None
    T: float = 2.0 * math.pi
    config: coupling.CouplingConfig = coupling.CouplingConfig()
    gdra_delta: float = 1e-14   # descent-recorded collection runs its own
    gdra_tol: float = 1e-12     # regularization and tolerance

    def problem(self) -> ProblemSpec:
        return solid_body_rotation_problem(self.level, nu=self.nu, dt=self.dt,
                                           T=self.T)


def _mgd_pairs(source: str) -> int | None:
    """The m >= 1 of an adjoint source "mgd<m>", or None if source is not one."""
    m = source.removeprefix("mgd")
    ok = m != source and m.isascii() and m.isdecimal() and int(m) >= 1
    return int(m) if ok else None


@dataclass(frozen=True)
class ExperimentEntry:
    """One coupled run: which model solves states, which solves adjoints.

    ``state_modes`` of None runs full-order states; otherwise that many POD
    modes of the state snapshots. ``adjoint_modes`` of None runs full-order
    adjoints; otherwise that many modes of the ``adjoint_source`` collection
    ("gdra", or "mgd<m>" such as "mgd1", or "state" to reuse the state basis).
    """

    label: str
    state_modes: int | None = None
    adjoint_modes: int | None = None
    adjoint_source: str = "mgd1"

    def __post_init__(self):
        source = self.adjoint_source
        if source not in ("state", "gdra") and _mgd_pairs(source) is None:
            raise InputError(f"unknown adjoint source {source!r}")


@dataclass
class ReportRow:
    label: str
    state_modes: int
    adjoint_source: str
    adjoint_modes: int
    rel_l2: float
    rel_h1: float
    rel_h1_semi: float
    avg_iterations: float
    total_iterations: int
    all_converged: bool
    wall_seconds: float
    stop_counts: dict[str, int] = field(default_factory=dict)  # steps per stop reason


_REPORT_COLUMNS = ["label", "state_modes", "adjoint_source", "adjoint_modes",
                   "rel_l2", "rel_h1", "rel_h1_semi", "avg_iterations",
                   "total_iterations", "all_converged"]


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_report_csv(rows: list[ReportRow], path):
    """Deterministic result table; wall times intentionally omitted."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_REPORT_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(getattr(row, col)) for col in _REPORT_COLUMNS])


def write_timings_csv(entries: list[tuple[str, float]], path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "wall_seconds"])
        for label, wall in entries:
            writer.writerow([label, f"{wall:.6f}"])


def write_singular_values_csv(spectra: dict[tuple[str, int], np.ndarray], path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["source", "subdomain", "index", "sigma"])
        for (source, side), sigma in sorted(spectra.items()):
            for idx, val in enumerate(sigma):
                writer.writerow([source, side, idx, _fmt(float(val))])


class ExperimentContext:
    """Shared heavyweight artifacts of one experiment.

    ``state_store`` is the one place the monolithic reference runs: it keeps
    the wall time and the parent's free-DOF u(T), not the trajectory, and
    ``load_state_store`` installs a stored split instead. Bases are built
    lazily and cached. Full-order sides, reductions and the error metric all
    use the problem's operators (``ProblemSpec.operators``), built once.
    """

    def __init__(self, spec: BenchmarkSpec):
        self.spec = spec
        self.problem = spec.problem()
        self.config = spec.config
        self.mono_wall: float | None = None       # set by the reference run
        self.mono_final: np.ndarray | None = None  # set by the reference run
        self._states = None
        self._bases: dict[tuple[str, int], rom.ReducedBasis] = {}
        self._adjoint_stores: dict[str, snapshots.SnapshotStore] = {}

    def run_identity(self) -> dict:
        """What a state store records of its run; MGD collection needs a match."""
        return {"level": self.spec.level, "nu": self.spec.nu, "dt": self.problem.dt,
                "n_steps": self.problem.n_steps, "supg_on": self.config.supg_on}

    def state_store(self) -> snapshots.SnapshotStore:
        """The state split of the reference, solved on first use."""
        if self._states is None:
            t0 = time.perf_counter()
            traj = monolithic_solve(self.problem, supg_on=self.config.supg_on)
            self.mono_wall = time.perf_counter() - t0
            self.mono_final = traj.data[:, -1].copy()  # not a view of the trajectory
            self._states = snapshots.split_monolithic_snapshots(
                traj, self.problem.decomposition)
            self._states.meta.update(self.run_identity())
        return self._states

    def load_state_store(self, directory) -> snapshots.SnapshotStore:
        """Read a stored state split and use it as this run's; InputError
        naming the first ``run_identity`` key it lacks or records otherwise."""
        states = snapshots.read_store(directory)
        for key, value in self.run_identity().items():
            if states.meta.get(key) != value:  # a missing key fails too
                raise InputError(f"state store {directory} records {key}="
                                 f"{states.meta.get(key)!r}, this run has {key}={value!r}")
        self._states = states
        return states

    def reference_finals(self) -> tuple[np.ndarray, np.ndarray]:
        store = self.state_store()
        return store["state_1"].data[:, -1], store["state_2"].data[:, -1]

    def adjoint_store(self, source: str) -> snapshots.SnapshotStore:
        if source not in self._adjoint_stores:
            if source == "gdra":
                cfg = replace(self.config, delta=self.spec.gdra_delta,
                              tol=self.spec.gdra_tol)
                store = snapshots.collect_gdra(self.problem, cfg)
            elif (m := _mgd_pairs(source)) is not None:
                store = snapshots.collect_mgd(self.problem, self.state_store(),
                                              m, self.config)
            else:
                raise InputError(f"adjoint source {source!r} has no snapshot store")
            self._adjoint_stores[source] = store
        return self._adjoint_stores[source]

    def basis(self, source: str, side: int) -> rom.ReducedBasis:
        key = (source, side)
        if key not in self._bases:
            if source == "state":
                sm = self.state_store()[f"state_{side}"]
            else:
                sm = self.adjoint_store(source)[f"adjoint_{side}"]
            self._bases[key] = rom.full_pod(sm)
        return self._bases[key]

    def spectra(self) -> dict[tuple[str, int], np.ndarray]:
        return {key: basis.sigma for key, basis in self._bases.items()}

    def build_backends(self, entry: ExperimentEntry):
        """Reduced operator sets per side for one entry (None = full order)."""
        state_rops = [None, None]
        adjoint_rops = [None, None]
        dec = self.problem.decomposition
        for side in (1, 2):
            psi_u = psi_mu = None
            if entry.state_modes is not None:
                psi_u = self.basis("state", side).truncate(entry.state_modes).Psi
            if entry.adjoint_modes is not None:
                source = entry.adjoint_source
                psi_mu = self.basis(source, side).truncate(entry.adjoint_modes).Psi
            if psi_u is None and psi_mu is None:
                continue
            ops = self.problem.operators(side, self.config.supg_on)
            rops = rom.reduce_operators(ops, psi_u if psi_u is not None else psi_mu,
                                        psi_mu, trace_free=dec.trace_free(side))
            if psi_u is not None:
                state_rops[side - 1] = rops
            if psi_mu is not None:
                adjoint_rops[side - 1] = rops
        return tuple(state_rops), tuple(adjoint_rops)

    def run_entry(self, entry: ExperimentEntry) -> tuple[ReportRow, coupling.CoupledRunResult]:
        state_rops, adjoint_rops = self.build_backends(entry)
        result = coupling.run_transient(self.problem, self.config,
                                        state_rops=state_rops,
                                        adjoint_rops=adjoint_rops,
                                        keep_trajectories=False)
        ref_1, ref_2 = self.reference_finals()
        # M and K, all the metric reads, do not depend on advection or SUPG
        errs = relative_errors(self.problem.operators(1, self.config.supg_on),
                               self.problem.operators(2, self.config.supg_on),
                               result.final_1, result.final_2, ref_1, ref_2)
        row = ReportRow(
            label=entry.label,
            state_modes=entry.state_modes or 0,
            adjoint_source=("full" if entry.adjoint_modes is None
                            else entry.adjoint_source),
            adjoint_modes=entry.adjoint_modes or 0,
            rel_l2=errs["rel_l2"], rel_h1=errs["rel_h1"],
            rel_h1_semi=errs["rel_h1_semi"],
            avg_iterations=result.avg_iterations,
            total_iterations=result.total_iterations,
            all_converged=result.all_converged,
            wall_seconds=result.wall_time,
            stop_counts=dict(collections.Counter(s.stop_reason for s in result.stats)))
        return row, result


def standard_entries() -> list[ExperimentEntry]:
    """The canonical comparison set: full coupling, reduced states with full
    adjoints, and fully reduced runs with per-timestep adjoint bases."""
    return [
        ExperimentEntry("fom-fom"),
        ExperimentEntry("rs-fa-100", state_modes=100),
        ExperimentEntry("rs-fa-50", state_modes=50),
        ExperimentEntry("rom-rom-100-50", state_modes=100, adjoint_modes=50,
                        adjoint_source="mgd1"),
    ]


def run_experiment(spec: BenchmarkSpec, entries: list[ExperimentEntry],
                   outdir=None) -> list[ReportRow]:
    """Run the comparison set and optionally write the report files."""
    ctx = ExperimentContext(spec)
    ctx.state_store()  # the reference runs first and leads the timings
    rows = []
    timings = [("monolithic", ctx.mono_wall)]
    for entry in entries:
        row, _ = ctx.run_entry(entry)
        rows.append(row)
        timings.append((entry.label, row.wall_seconds))

    if outdir is not None:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        write_report_csv(rows, outdir / "report.csv")
        write_timings_csv(timings, outdir / "timings.csv")
        spectra = ctx.spectra()
        if spectra:
            write_singular_values_csv(spectra, outdir / "singular_values.csv")
    return rows
