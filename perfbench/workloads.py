"""Benchmark workloads: inputs made from a seed, and one pipeline round.

A round calls the package's public functions directly, one stage at a time,
and times each stage with time.perf_counter. The checks run after the timed
stages; their time counts in no stage.
"""

from __future__ import annotations

import contextlib
import math
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from obcoupling import assembly, coupling, fom, geometry, rom, snapshots

NU = 1e-5
DT_LEVEL_64 = 1.122398e-3   # the paper's timestep, scaled like the cell area
PAPER = (1e-16, 1e-14)      # (delta, tol) of the paper's coupled runs
GDRA_COLLECTION = (1e-14, 1e-12)
TIMING_STUDY = (1e-8, 1e-6)  # reduced settings of the timing gate
SETUPS = 11                  # timed set-ups per untraced round


@dataclass(frozen=True)
class Workload:
    """One pipeline: level, adjoint collection, coupled tolerance, bound."""

    name: str
    level: int
    collection: str | None       # None (full order), "mgd" or "gdra"
    couple: tuple[float, float]  # (delta, tol) of the coupled run
    l2_bound: float              # coupled vs monolithic relative L2 at T
    turn: float = 1.0            # share of one revolution run, T = 2 pi turn
    state_modes: int = 100
    adjoint_modes: int = 50
    workers: int = 2             # MGD1 collection threads
    inputs: int = 1              # seed-drawn inputs a run cycles over
    reference_samples: int = 1   # timed reference solves per untraced round
    couple_samples: int = 1      # timed coupled runs per untraced round


# The reduced descent at the paper's tolerance moves its trial count by
# about 10% between inputs, however small the turn, so gdra-rom-l32 averages
# four inputs. The other two barely move theirs; one input per run leaves
# every stage more passes to average.
WORKLOADS = {w.name: w for w in (
    Workload("fom-fom-l32", 32, None, PAPER, 1e-6, turn=0.25, reference_samples=5,
             couple_samples=3),
    Workload("mgd-rom-l64", 64, "mgd", TIMING_STUDY, 1e-2, turn=0.125,
             reference_samples=2, couple_samples=5),
    Workload("gdra-rom-l32", 32, "gdra", PAPER, 1e-5, turn=0.25, reference_samples=5,
             inputs=4),
)}


# Largest turn of the bodies a seed makes. Larger turns move other bodies
# onto the interface at t = 0 and change the work of a full-order coupled
# run by up to 50%; within half a degree it moves by less than 0.1%.
MAX_TURN = math.radians(0.5)


def rotation_angles(seed: int, inputs: int) -> list[float]:
    """Starting angles of the three bodies for a run's inputs.

    Seed 0 is the paper's layout for every input; any other seed draws
    each angle uniformly within MAX_TURN.
    """
    if seed == 0:
        return [0.0] * inputs
    return [float(a) for a in
            np.random.default_rng(seed).uniform(-MAX_TURN, MAX_TURN, inputs)]


def rotation_field(x, y):
    """Solid rotation about (0.5, 0.5), one turn per 2 pi."""
    return 0.5 - np.asarray(y), np.asarray(x) - 0.5


def initial_condition(x, y, angle: float = 0.0) -> np.ndarray:
    """Gaussian hill, cone and slotted cylinder, turned by angle about the centre."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if angle:
        c, s = math.cos(angle), math.sin(angle)
        x, y = (0.5 + c * (x - 0.5) + s * (y - 0.5),
                0.5 - s * (x - 0.5) + c * (y - 0.5))
    out = np.exp(-((x - 0.25) ** 2 + (y - 0.5) ** 2) / (2.0 * 0.05 ** 2))
    out = out + np.clip(1.0 - np.hypot(x - 0.5, y - 0.25) / 0.15, 0.0, None)
    cylinder = (np.hypot(x - 0.5, y - 0.75) <= 0.15) \
        & ~((np.abs(x - 0.5) < 0.025) & (y < 0.85))
    return out + cylinder.astype(np.float64)


def make_problem(w: Workload, angle: float) -> fom.ProblemSpec:
    mesh = geometry.build_mesh(w.level, w.level)
    dec = geometry.decompose(mesh, 0.5)
    u0 = initial_condition(mesh.coords[:, 0], mesh.coords[:, 1], angle)
    dt = DT_LEVEL_64 * (64.0 / w.level) ** 2
    return fom.ProblemSpec(decomposition=dec, nu=NU, a=rotation_field, f=None,
                           u0=u0, dt=dt, T=2.0 * math.pi * w.turn)


def setup(w: Workload, angle: float):
    """Build the problem, assemble both subdomains, factor both systems."""
    problem = make_problem(w, angle)
    ops = tuple(assembly.subdomain_operators(
        problem.decomposition, side, nu=problem.nu, dt=problem.dt,
        advection=problem.a, supg_on=True) for side in (1, 2))
    for op in ops:
        op.state_factor()
        op.adjoint_factor()
    return problem, ops


def config(tols: tuple[float, float]) -> coupling.CouplingConfig:
    delta, tol = tols
    return coupling.CouplingConfig(delta=delta, tol=tol, supg_on=True,
                                   warm_start=True)


@dataclass
class Round:
    """Stage times, counts and check outcomes of one pipeline round."""

    times: dict[str, float] = field(default_factory=dict)    # mean of samples
    samples: dict[str, list[float]] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    steps: int = 0
    failed_steps: int = 0
    pairs: int = 0
    failed_pairs: int = 0

    @property
    def attempted(self) -> int:
        return self.steps + self.pairs + len(self.checks)

    @property
    def failed(self) -> int:
        return (self.failed_steps + self.failed_pairs
                + sum(not ok for _, ok, _ in self.checks))

    def check(self, name: str, ok: bool, detail: str):
        self.checks.append((name, bool(ok), detail))


def stage_times(rounds, n_inputs: int) -> dict[str, float]:
    """Stage times of a run, and their sum as "total".

    Round i of a run solves input i mod n_inputs. A stage's time on one
    input pools every timed pass of it in that input's rounds: the median
    for set-up, the mean for every other stage. The reported time is the
    mean over the inputs.
    """
    inputs = [rounds[i::n_inputs] for i in range(min(n_inputs, len(rounds)))]

    def pooled(name, same):
        passes = [t for r in same for t in r.samples[name]]
        return (statistics.median if name == "setup" else statistics.fmean)(passes)

    times = {name: statistics.fmean(pooled(name, same) for same in inputs)
             for name in rounds[0].samples}
    times["total"] = sum(times.values())
    return times


class _Stages:
    """Times the stages of one round.

    A stage called with samples > 1 runs that many times back to back, and
    the round keeps every pass's time; a traced round runs every stage once.
    """

    def __init__(self, out: Round, tracer):
        self.out, self.tracer = out, tracer

    def __call__(self, name: str, fn, samples: int = 1):
        passes = []
        for _ in range(1 if self.tracer else samples):
            span = (self.tracer.span(f"stage.{name}") if self.tracer
                    else contextlib.nullcontext())
            with span:
                start = time.perf_counter()
                result = fn()
                passes.append(time.perf_counter() - start)
        self.out.samples[name] = passes
        self.out.times[name] = statistics.fmean(passes)
        return result


def run_round(w: Workload, angle: float, workdir: Path) -> Round:
    """One untraced pass of the workload's pipeline, then its checks."""
    out = Round()
    check(out, w, pipeline(w, angle, workdir, out))
    return out


def pipeline(w: Workload, angle: float, workdir: Path, out: Round, *,
             tracer=None) -> dict:
    """Run and time the stages; return what the checks need."""
    stage = _Stages(out, tracer)
    problem, ops = stage("setup", lambda: setup(w, angle), SETUPS)
    dec = problem.decomposition

    def reference():
        traj = fom.monolithic_solve(problem, supg_on=True)
        return traj, snapshots.split_monolithic_snapshots(traj, dec)

    traj, states = stage("reference", reference, w.reference_samples)

    collection = bases = read_back = None
    rops = (None, None)
    store_dir = workdir / "states"
    if w.collection == "mgd":
        def store():
            snapshots.write_store(states, store_dir)
            return snapshots.read_store(store_dir)

        read_back = stage("store", store)
        out.counts["store_mb"] = sum(
            p.stat().st_size for p in store_dir.iterdir()) / 1e6
        shutil.rmtree(store_dir)
        collection = stage("collect", lambda: snapshots.collect_mgd(
            problem, read_back, 1, config(PAPER), workers=w.workers))
    elif w.collection == "gdra":
        collection = stage("collect", lambda: snapshots.collect_gdra(
            problem, config(GDRA_COLLECTION)))
    if collection is not None:
        matrices = {key: states[key] for key in ("state_1", "state_2")}
        matrices.update({key: collection[key] for key in ("adjoint_1", "adjoint_2")})
        out.counts["pod_input_mb"] = sum(m.data.nbytes for m in matrices.values()) / 1e6
        bases = stage("pod", lambda: {key: rom.full_pod(m) for key, m in matrices.items()})
        rops = stage("reduce", lambda: tuple(rom.reduce_operators(
            ops[side - 1], bases[f"state_{side}"].truncate(w.state_modes).Psi,
            bases[f"adjoint_{side}"].truncate(w.adjoint_modes).Psi,
            trace_free=dec.trace_free(side)) for side in (1, 2)))
    cfg = config(w.couple)
    result = stage("couple", lambda: coupling.run_transient(
        problem, cfg, state_rops=rops, adjoint_rops=rops,
        keep_trajectories=w.collection is None), w.couple_samples)

    out.counts.update(
        steps=len(result.stats),
        trials=sum(s.iterations for s in result.stats),
        directions=sum(s.directions for s in result.stats),
        rejected_trials=sum(s.alpha_reductions for s in result.stats),
        pairs=0 if collection is None else collection["adjoint_1"].n_snapshots)

    return dict(problem=problem, ops=ops, traj=traj, result=result, cfg=cfg,
                collection=collection, bases=bases, states=states,
                read_back=read_back)


def check(out: Round, w: Workload, arts: dict):
    """Check a round's outputs; record step, pair and check outcomes."""
    problem, ops, traj, result, cfg, collection, bases, states, read_back = (
        arts[k] for k in ("problem", "ops", "traj", "result", "cfg", "collection",
                          "bases", "states", "read_back"))
    level = w.level
    rel = checks.relative_l2(result.final_1, result.final_2, traj.data[:, -1], level)
    out.check("coupled_vs_monolithic_rel_l2", rel <= w.l2_bound,
              f"{rel:.3e} (bound {w.l2_bound:g})")

    # Recomputed J: at every step of a full-order run, at T of a reduced one.
    out.steps = len(result.stats)
    unconverged = {s.step for s in result.stats if not s.converged}
    if w.collection is None:
        J = checks.objective(result.traj_1[:, 1:], result.traj_2[:, 1:],
                             result.control.values[:, 1:], cfg.delta, level)
        high = set(np.flatnonzero(~(J < cfg.tol)) + 1)
        worst = float(J.max())
    else:
        J = checks.objective(result.final_1, result.final_2,
                             result.control.values[:, -1], cfg.delta, level)
        high = set() if J < cfg.tol else {out.steps}
        worst = float(J)
    out.failed_steps = len(unconverged | high)
    out.check("recomputed_J_below_tol", not high,
              f"max {worst:.3e} (tol {cfg.tol:g}), {len(high)} steps at or above")
    out.check("all_steps_converged", not unconverged,
              f"{len(unconverged)} of {out.steps} steps did not converge")

    if collection is not None:
        mu_1 = collection["adjoint_1"].data
        mu_2 = collection["adjoint_2"].data
        defects = checks.pair_defects(ops[0], ops[1], mu_1, mu_2, level)
        out.pairs = defects.size
        out.failed_pairs = int(np.count_nonzero(~(defects <= checks.PAIR_TOL)))
        out.check("adjoint_pair_property", out.failed_pairs == 0,
                  f"max defect {defects.max():.2e} (tol {checks.PAIR_TOL:g}), "
                  f"{out.failed_pairs} of {defects.size} pairs fail")
        if w.collection == "mgd":
            n_steps = problem.n_steps
            ok = (mu_1.shape[1] == mu_2.shape[1] == n_steps
                  and collection.meta["n_pairs"] == n_steps)
            out.check("mgd1_one_pair_per_step", ok,
                      f"{mu_1.shape[1]} pairs for {n_steps} steps")

        for key, basis in bases.items():
            data = (states if key.startswith("state") else collection)[key].data
            k = w.state_modes if key.startswith("state") else w.adjoint_modes
            ortho, ey = checks.pod_defects(data, basis.Psi, basis.sigma, (0, k))
            out.check(f"pod_{key}_orthonormal", ortho <= checks.ORTHO_TOL,
                      f"{ortho:.2e} (tol {checks.ORTHO_TOL:g})")
            out.check(f"pod_{key}_eckart_young", ey <= checks.ECKART_YOUNG_TOL,
                      f"{ey:.2e} (tol {checks.ECKART_YOUNG_TOL:g})")

    if read_back is not None:
        ok = (set(read_back.keys()) == set(states.keys())
              and read_back.meta == states.meta
              and all(checks.bitwise_equal(read_back[k].data, states[k].data)
                      and read_back[k].kind == states[k].kind
                      and read_back[k].subdomain == states[k].subdomain
                      for k in states.keys()))
        out.check("store_round_trip_bitwise", ok, "SNAP1 store read back")
