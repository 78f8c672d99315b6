"""Optimization-based coupling of two subdomain models.

Each implicit Euler step solves a control problem on the interface: find the
flux control g minimizing

    J(g) = 1/2 ||u_1 - u_2||^2_{M_g} + delta/2 ||g||^2_{M_g}

where u_i are the subdomain solutions driven by +/- g and the norms use the
interface mass matrix. The minimization runs gradient descent with an
adaptive step: a trial update that increases J, or whose J is not finite, is
rejected and the step halved, reusing the already computed descent
direction. The gradient is delta g + (T_1 mu_1 - T_2 mu_2) with mu_i solving
the adjoint systems, which are exact transposes of the state systems, so the
analytic gradient matches the discrete objective to roundoff.

Within one timestep each state is affine in the control and each adjoint is
linear in the interface jump (the Steklov-Poincare view of the interface).
A subdomain model's ``assembly.TraceResponse`` gives the trace of its state
step as P_i u_i^{n-1} + W_i^T f_i + sign_i (T_i Z_i) g and its adjoint as
sign_i Y_i jump, so the jump is j0 + R g and the adjoint trace difference is
G jump, with R = sign_1 T_1 Z_1 - sign_2 T_2 Z_2 and
G = sign_1 T_1 Y_1 - sign_2 T_2 Y_2. That algebra lives here once, for the
coupled march and both snapshot collectors: ``interface_maps`` builds
(R, G) from the sides' state and adjoint responses, each full order or
reduced, and ``write_pair`` writes the pair sign_i Y_i jump of a recorded
jump into snapshot columns. An InterfaceResponse holds a side's state
half. Cost model: one TraceResponse per model (a multi-column sparse solve
cached with ``problem.operators`` and shared with MGD collection and later
runs, or dense solves in ``rom.reduce_operators``) and no solve to set up a
run; per timestep, a few n_control x n matvecs for j0 and one sparse (or
reduced) state solve per side at the accepted control. A descent trial
makes 3 n_control x n_control gemv (R g, M_g jump, M_g g), 2 dot products
and 4 vector ufuncs into fixed n_control buffers, and allocates nothing;
with delta = 0 it skips one gemv and one dot.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from obcoupling import assembly, rom
from obcoupling.errors import InputError
from obcoupling.fom import ProblemSpec, adjoint_solve, sign_of, state_step
from obcoupling.geometry import build_mesh, decompose


@dataclass(frozen=True)
class CouplingConfig:
    """Parameters of the per-timestep interface minimization."""

    delta: float = 1e-16        # Tikhonov weight on the control
    tol: float = 1e-14          # stop when J drops below this
    alpha0: float = 2.0         # initial gradient step, reset every timestep
    max_iters: int = 10000      # attempted updates per timestep before giving up
    warm_start: bool = True     # start each step from the previous control
    supg_on: bool = True
    record_history: bool = False  # keep accepted objective values per step

    def __post_init__(self):
        for name in ("delta", "tol", "alpha0"):
            if not math.isfinite(getattr(self, name)):
                raise InputError(f"{name}={getattr(self, name)} must be finite")
        if self.delta < 0:
            raise InputError("delta must be nonnegative")
        if self.tol <= 0 or self.alpha0 <= 0:
            raise InputError("tol and alpha0 must be positive")
        if self.max_iters < 1:
            raise InputError("max_iters must be at least 1")


@dataclass(frozen=True)
class Control:
    """Accepted interface controls, one column per time level (column 0 zero)."""

    values: np.ndarray  # (n_control, n_steps + 1)
    dt: float


@dataclass(frozen=True)
class IterationStats:
    """Per-timestep record of the interface minimization."""

    step: int
    iterations: int          # attempted control updates (accepted + rejected)
    directions: int          # descent directions (gradients) formed
    alpha_reductions: int
    objective: float         # final value of J
    converged: bool
    wall_time: float
    stop_reason: str         # "tol", "max_iters", "stagnated" or "non_finite"
    accepted_objectives: list[float] | None = None


def objective(u_1: np.ndarray, u_2: np.ndarray, g: np.ndarray, delta: float,
              trace_free_1: np.ndarray, trace_free_2: np.ndarray, M_g) -> float:
    """Interface mismatch plus Tikhonov penalty for free-DOF states."""
    jump = u_1[trace_free_1] - u_2[trace_free_2]
    return _objective_from_jump(jump, g, delta, M_g)


def _objective_from_jump(jump: np.ndarray, g: np.ndarray, delta: float, M_g) -> float:
    val = 0.5 * float(jump @ (M_g @ jump))
    if delta != 0.0:
        val += 0.5 * delta * float(g @ (M_g @ g))
    return val


def control_gradient(mu_1: np.ndarray, mu_2: np.ndarray, g: np.ndarray, delta: float,
                     trace_free_1: np.ndarray, trace_free_2: np.ndarray) -> np.ndarray:
    """Nodal gradient of J: delta g + (T_1 mu_1 - T_2 mu_2)."""
    return delta * g + (mu_1[trace_free_1] - mu_2[trace_free_2])


def interface_maps(state, adjoint) -> tuple[np.ndarray, np.ndarray]:
    """(R, G) from the two sides' state and adjoint TraceResponses.

    ``state`` and ``adjoint`` are (side 1, side 2) pairs: the jump at control
    g is j0 + R g, and G maps a jump to the adjoint trace difference.
    """
    s_1, s_2 = sign_of(1), sign_of(2)
    R = s_1 * state[0].TZ - s_2 * state[1].TZ
    G = s_1 * adjoint[0].TY - s_2 * adjoint[1].TY
    return R, G


def write_pair(spans, jump: np.ndarray, out, col: int) -> None:
    """Write the adjoint pair sign_i Y_i jump, spans = (Y_1, Y_2), into
    column col of the two preallocated snapshot matrices out = (out_1, out_2)."""
    for side, Y, out_i in zip((1, 2), spans, out):
        out_i[:, col] = sign_of(side) * (Y @ jump)


class InterfaceResponse:
    """The state half of one subdomain within a timestep.

    ``state`` is an OperatorSet (full order) or a ReducedOperatorSet
    (reduced), and ``response`` its trace response. States are held in the
    state model's coordinates: free-DOF values or reduced coefficients.
    ``load(n)`` gives the side's free-DOF load at timestep n, projected onto
    Psi_u on a reduced side.
    """

    def __init__(self, side: int, state, trace_free: np.ndarray, load=None):
        self.side = side
        self._state = state
        self._load = load
        self._reduced_state = isinstance(state, rom.ReducedOperatorSet)
        self.response = (state.response if self._reduced_state
                         else state.trace_response(trace_free))

    def from_free(self, u_free: np.ndarray) -> np.ndarray:
        """State-model coordinates of a free-DOF vector: Psi_u^T v if reduced."""
        if self._reduced_state:
            return self._state.Psi_u.T @ u_free
        return np.array(u_free, dtype=np.float64)

    def to_free(self, u: np.ndarray) -> np.ndarray:
        return self._state.lift(u) if self._reduced_state else u

    def load(self, n: int) -> np.ndarray | None:
        """The side's load at timestep n in state-model coordinates."""
        return None if self._load is None else self.from_free(self._load(n))

    def step(self, u_prev: np.ndarray, g: np.ndarray, f) -> np.ndarray:
        """State at control g after u_prev: the side's one solve per timestep."""
        step = rom.rom_state_step if self._reduced_state else state_step
        return step(self._state, u_prev, g, f, self.side)


def descent_timestep(j0: np.ndarray, R: np.ndarray, G: np.ndarray, g0: np.ndarray,
                     config: CouplingConfig, M_g, *, recorder=None,
                     step_index: int = 0):
    """Minimize the interface objective for one timestep in interface space.

    The jump at control g is j0 + R g and the adjoint trace difference of a
    jump is G jump (see the module docstring). Returns (g, stats) with the
    accepted control. A trial that increases J, or whose J is not finite, is
    rejected: the step halves and the same direction is retried; directions
    are recomputed only after accepts. An accepted trial that leaves g
    bitwise unchanged ends the step unconverged, since no later trial can
    move it. A step whose starting J is not finite makes no trial.
    ``recorder(step_index, jump)`` is invoked for every direction with the
    control-ordered jump it was formed from; the array is valid only during
    the call. ``M_g`` is the dense control mass matrix.
    """
    t_start = time.perf_counter()
    delta, tol = config.delta, config.tol
    alpha = config.alpha0

    g = np.array(g0, dtype=np.float64)
    jump = j0 + R @ g
    obj = _objective_from_jump(jump, g, delta, M_g)

    # Trials write into fixed buffers, and an accept swaps g with g_try. A
    # trial overwrites jump, which is read only to form a direction right
    # after an accept. The products and their order are those of
    # _objective_from_jump, so a trial's J equals it bit for bit.
    g_try, trace_diff, step, tmp = (np.empty_like(g) for _ in range(4))

    iterations = 0
    directions = 0
    reductions = 0
    accepted = [obj] if config.record_history else None
    fresh = False  # trace_diff holds the direction of the current g
    stop = None if math.isfinite(obj) else "non_finite"

    while stop is None and obj >= tol and iterations < config.max_iters:
        if not fresh:
            G.dot(jump, trace_diff)
            fresh = True
            directions += 1
            if recorder is not None:
                recorder(step_index, jump)

        # g_try = (1 - alpha delta) g - alpha trace_diff, jump = j0 + R g_try
        np.multiply(g, 1.0 - alpha * delta, out=g_try)
        np.multiply(trace_diff, alpha, out=step)
        np.subtract(g_try, step, out=g_try)
        R.dot(g_try, tmp)
        np.add(j0, tmp, out=jump)
        M_g.dot(jump, tmp)
        obj_try = 0.5 * float(jump.dot(tmp))
        if delta != 0.0:
            M_g.dot(g_try, tmp)
            obj_try += 0.5 * delta * float(g_try.dot(tmp))
        iterations += 1

        if obj_try > obj or not math.isfinite(obj_try):
            # reject: halve the step, keep the current iterate and direction
            alpha *= 0.5
            reductions += 1
            continue
        # J is a function of g, so an unchanged g shows first as an equal J
        if obj_try == obj and np.array_equal(g_try, g):
            stop = "stagnated"  # the step fell below roundoff: g cannot move
            break

        g, g_try = g_try, g
        obj = obj_try
        fresh = False
        if accepted is not None:
            accepted.append(obj)

    if stop is None:
        stop = "tol" if obj < tol else "max_iters"
    stats = IterationStats(
        step=step_index, iterations=iterations, directions=directions,
        alpha_reductions=reductions, objective=obj, converged=stop == "tol",
        wall_time=time.perf_counter() - t_start, stop_reason=stop,
        accepted_objectives=accepted)
    return g, stats


@dataclass
class CoupledRunResult:
    """Transient coupled solve: controls, per-step stats, final states."""

    control: Control
    stats: list[IterationStats]
    final_1: np.ndarray                 # free-DOF state of subdomain 1 at T
    final_2: np.ndarray
    traj_1: np.ndarray | None = None    # (n_free_1, n_steps + 1) if kept
    traj_2: np.ndarray | None = None
    wall_time: float = 0.0

    @property
    def all_converged(self) -> bool:
        return all(s.converged for s in self.stats)

    @property
    def total_iterations(self) -> int:
        return sum(s.iterations for s in self.stats)

    @property
    def avg_iterations(self) -> float:
        return self.total_iterations / max(len(self.stats), 1)


def make_loads(problem: ProblemSpec, dec, side: int):
    """Per-step free-DOF load callable for one subdomain, or None if f is."""
    if problem.f is None:
        return None
    mesh = dec.sub(side)
    free = dec.free_nodes(side)

    def load(n: int) -> np.ndarray:
        return assembly.assemble_load(mesh, free, problem.f, n * problem.dt)

    return load


def run_transient(problem: ProblemSpec, config: CouplingConfig, *,
                  state_rops=(None, None), adjoint_rops=(None, None),
                  recorder=None, keep_trajectories: bool = True) -> CoupledRunResult:
    """March the coupled problem from 0 to T.

    ``state_rops`` / ``adjoint_rops`` select the model per subdomain: a
    ReducedOperatorSet runs that half of the side reduced, None runs it full
    order on ``problem.operators(side, config.supg_on)``. Reduced and full
    halves mix freely. ``recorder`` goes to ``descent_timestep`` as is: it
    receives (step, jump) for every descent direction.
    """
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
        sides.append(InterfaceResponse(side, op if srops is None else srops, tf,
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
        control=Control(values=controls, dt=problem.dt), stats=stats,
        final_1=first.to_free(u[0]), final_2=second.to_free(u[1]),
        traj_1=traj_1, traj_2=traj_2, wall_time=wall)


def random_gradient_instance(level: int = 8, *, seed: int = 0, nu: float = 1e-2,
                             dt: float = 5e-2, supg_on: bool = False):
    """Small two-subdomain instance with random data for gradient checks.

    Returns (dec, ops_1, ops_2, u_prev_1, u_prev_2, g) on a level x level
    grid split at x = 0.5 under a rotating advection field.
    """
    dec = decompose(build_mesh(level, level), 0.5)

    def advection(x, y):
        return 0.5 - np.asarray(y), np.asarray(x) - 0.5

    ops_1, ops_2 = (assembly.subdomain_operators(dec, side, nu=nu, dt=dt,
                                                 advection=advection, supg_on=supg_on)
                    for side in (1, 2))
    rng = np.random.default_rng(seed)
    u_prev_1 = rng.standard_normal(dec.free_nodes(1).size)
    u_prev_2 = rng.standard_normal(dec.free_nodes(2).size)
    g = rng.standard_normal(dec.n_control)
    return dec, ops_1, ops_2, u_prev_1, u_prev_2, g


def fd_gradient_check(ops_1: assembly.OperatorSet, ops_2: assembly.OperatorSet,
                      trace_free_1: np.ndarray, trace_free_2: np.ndarray, M_g,
                      u_prev_1: np.ndarray, u_prev_2: np.ndarray, g: np.ndarray,
                      delta: float, *, eps: float = 1e-5, n_directions: int = 5,
                      seed: int = 0) -> float:
    """Max relative mismatch between FD and adjoint directional derivatives.

    For random unit directions e compares the central difference
    (J(g + eps e) - J(g - eps e)) / (2 eps) against grad^T M_g e. The
    objective is quadratic in g, so the central difference is exact up to
    roundoff and the returned mismatch should sit near machine precision.
    A non-finite mismatch is returned as inf, so it fails any tolerance.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise InputError(f"eps={eps} must be finite and positive")
    if not (math.isfinite(delta) and delta >= 0):
        raise InputError(f"delta={delta} must be finite and nonnegative")
    if n_directions < 1:
        raise InputError(f"n_directions={n_directions} must be at least 1")

    def solve_pair(gv):
        u_1 = state_step(ops_1, u_prev_1, gv, None, 1)
        u_2 = state_step(ops_2, u_prev_2, gv, None, 2)
        return u_1, u_2

    def value(gv):
        u_1, u_2 = solve_pair(gv)
        return objective(u_1, u_2, gv, delta, trace_free_1, trace_free_2, M_g)

    u_1, u_2 = solve_pair(g)
    jump = u_1[trace_free_1] - u_2[trace_free_2]
    mu_1 = adjoint_solve(ops_1, jump, 1)
    mu_2 = adjoint_solve(ops_2, jump, 2)
    grad = control_gradient(mu_1, mu_2, g, delta, trace_free_1, trace_free_2)

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_directions):
        e = rng.standard_normal(g.size)
        e /= np.linalg.norm(e)
        fd = (value(g + eps * e) - value(g - eps * e)) / (2.0 * eps)
        an = float(grad @ (M_g @ e))
        scale = max(abs(fd), abs(an), 1e-30)
        mismatch = abs(fd - an) / scale
        if not math.isfinite(mismatch):
            return math.inf
        worst = max(worst, mismatch)
    return worst
