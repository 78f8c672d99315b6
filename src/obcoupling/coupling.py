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
jump into snapshot columns.
Cost model: one TraceResponse per model (a multi-column sparse solve
cached with ``problem.operators`` and shared with MGD collection and later
runs, or dense solves in ``rom.reduce_operators``) and no solve to set up a
run; per timestep, two n_control x n matvecs for j0 (two more with a load),
subtracted in place, and one sparse (or reduced) state solve per side at the
accepted control, its signed interface term B_i g added in place (B_i is
M_g0 on a full-order side, PsiT_Mg0 on a reduced one). The run carries R g,
g (M_g g) and both B_i g of the accepted control across steps and
recomputes them (four matvecs and a dot) only after a descent that moved g.
A step whose warm start already meets tol prices J with one add, one gemv
and one dot, and returns before the descent allocates anything else; a
reduced side then steps with one gemv, two in-place ufuncs, a one-call
finiteness check and one getrs; a full-order side forms M u_prev and B_i g
with ``linalg.csr_matvec``, scipy's kernel without its dispatch. A
descent trial makes 3 n_control x n_control gemv (R g, M_g jump, M_g g),
2 dot products and 4 vector ufuncs into fixed n_control buffers, and
allocates nothing; with delta = 0 it skips one gemv and one dot, and the
run carries no penalty.

While its trials are accepted at one step size alpha, a step iterates the
fixed map g <- T g + c (T = (1 - alpha delta) I - alpha G R, c = -alpha
G j0), and ``DescentBlocks`` prices a run of such trials at once. Blocks
engage after BLOCK_PREFIX accepts in a row, when the rate at which J falls
says that at least BLOCK_MIN more trials are needed, and once the run has
paid for the stack of that alpha (BLOCK_CAP x n_control x 2 n_control
doubles, 1 MB at n_control = 63, built once per alpha per run, after
STACK_PAYBACK n_control trials a block could have priced). A block of b
iterates costs one gemv with the b n x 2n stack, one b x n x 2n gemm (half
of it with delta = 0), one gemv for the b values of J, and, for the last
accepted iterate, the products of one trial: the step's J always comes
from those products, so the tol decision is the sequential one. Two gemv
per step (G j0 and L^T j0) set the first block up. The blocks accept only
falls of J by more than BLOCK_RTOL, so a rise, a tie, a J that is not
finite, a tol crossing or the end of the block hands the step back to the
sequential loop with the same direction and the same halving. Descents
with a recorder or recorded history, and calls without blocks, run the
sequential loop only and keep its bits; the coupled march agrees with
them to roundoff, with the same trials, directions and stops.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from obcoupling import assembly, linalg, rom
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


@dataclass(slots=True)
class IterationStats:
    """Per-timestep record of the interface minimization."""

    step: int
    iterations: int          # attempted control updates (accepted + rejected)
    directions: int          # descent directions (gradients) formed
    alpha_reductions: int
    objective: float         # final value of J
    wall_time: float
    stop_reason: str         # "tol", "max_iters", "stagnated" or "non_finite"
    accepted_objectives: list[float] | None = None

    @property
    def converged(self) -> bool:
        return self.stop_reason == "tol"


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


# Blocked descent (see DescentBlocks). Measured with one OpenBLAS thread on a
# 2-core x86 host, at n_control = 31 (63): a sequential trial with its
# direction costs 5.0 us (6.9 us); pricing a block of 4 iterates 7.7 us
# (12 us), of 16 iterates 13 us (34 us), plus about 3 us to price the last
# accepted one as a trial; one step size's stack takes 0.16 ms (0.59 ms) to
# build. A block's J agreed with the trial-priced J of its iterate to
# 1.3e-10 relative over the level-32 and level-64 report rows.
BLOCK_PREFIX = 3   # trials accepted in a row at one alpha before a block
BLOCK_MIN = 4      # fewest iterates worth a block
BLOCK_CAP = 16     # most iterates per block; 32 cost more than they saved
STACK_PAYBACK = 4  # a stack waits for 4 n_control trials a block could price
BLOCK_RTOL = 1e-6  # margin of a block's decisions over its roundoff


def _block_size(obj: float, last: float, streak: int, tol: float, left: int) -> int:
    """Iterates for the next block, or 0 to stay sequential.

    The last accepted trial took J from ``last`` to ``obj``; at that rate
    the step needs about log(tol / obj) / log(obj / last) more trials. If
    that is fewer than BLOCK_MIN the loop stays sequential. Otherwise a
    block prices that many, and at least one more than the ``streak`` of
    accepts so far, since the rate tends to slow, within BLOCK_CAP and the
    ``left`` trials the cap allows.
    """
    size = min(BLOCK_CAP, left)
    rate = obj / last
    if rate < 1.0:  # a rate that underflows to 0 reaches tol at the next trial
        needed = (math.ceil((math.log(tol) - math.log(obj)) / math.log(rate))
                  if rate > 0.0 else 1)
        if needed < BLOCK_MIN:
            return 0
        size = min(size, max(needed, streak + 1))
    return size if size >= BLOCK_MIN else 0


class DescentBlocks:
    """One run's stacks for pricing runs of accepted descent trials at once.

    While trials are accepted at step size alpha, the descent iterates the
    affine map g <- T g + c with T = (1 - alpha delta) I - alpha G R and
    c = -alpha G j0, so the k-th next iterate is T^k g + S_k c with
    S_k = I + T + ... + T^(k-1). For each alpha the stack holds the rows
    [T^k | S_k], k = 1..BLOCK_CAP, so one gemv with [g; c] gives a block of
    iterates. With M_g = L L^T, J = 1/2 |L^T jump|^2 + delta/2 |L^T g|^2,
    so one gemm with the maps [L^T R; sqrt(delta) L^T] and one gemv price
    the whole block. A step size's stack is built once the run has made
    STACK_PAYBACK * n_control sequential trials at that alpha that a block
    could have priced, and is kept until the run ends. M_g must be
    symmetric positive definite.
    """

    def __init__(self, R: np.ndarray, G: np.ndarray, M_g: np.ndarray, delta: float):
        self._R, self._G, self._M_g, self._delta = R, G, M_g, delta
        self._n = R.shape[0]
        self._stacks: dict[float, np.ndarray] = {}
        self._waiting: dict[float, int] = {}  # alpha -> trials before its stack

    def ready(self, alpha: float) -> bool:
        """Whether blocks can run at step size alpha. False counts one
        sequential trial towards the stack's cost; the call that finds it
        paid for builds it."""
        if alpha not in self._stacks:
            waited = self._waiting.get(alpha, 0)
            if waited < STACK_PAYBACK * self._n:
                self._waiting[alpha] = waited + 1
                return False
            if not self._stacks:
                self._allocate()
            self._stacks[alpha] = self._build(alpha)
        return True

    def _allocate(self):
        n, delta = self._n, self._delta
        self._GR = self._G @ self._R
        self._LT = np.ascontiguousarray(np.linalg.cholesky(self._M_g).T)
        maps = [self._LT @ self._R]
        if delta != 0.0:
            maps.append(math.sqrt(delta) * self._LT)
        self._maps = np.ascontiguousarray(np.vstack(maps).T)
        width = self._maps.shape[1]
        self._offsets = np.zeros(width)  # [L^T j0 | 0] or L^T j0
        self._Gj0 = np.empty(n)
        self._gc = np.empty(2 * n)
        self._iterates = np.empty(BLOCK_CAP * n)
        self._priced = np.empty((BLOCK_CAP, width))
        self._half = np.full(width, 0.5)
        self._values = np.empty(BLOCK_CAP)

    def _build(self, alpha: float) -> np.ndarray:
        n = self._n
        T = self._GR * -alpha
        T.flat[::n + 1] += 1.0 - alpha * self._delta
        powers = np.empty((BLOCK_CAP, n, n))
        powers[0] = T
        for k in range(1, BLOCK_CAP):
            np.matmul(powers[k - 1], T, out=powers[k])
        stack = np.empty((BLOCK_CAP, n, 2 * n))
        stack[:, :, :n] = powers
        stack[0, :, n:] = np.eye(n)
        np.cumsum(powers[:-1], axis=0, out=stack[1:, :, n:])
        stack[1:, :, n:] += np.eye(n)
        return stack.reshape(BLOCK_CAP * n, 2 * n)

    def begin(self, j0: np.ndarray):
        """Take a step's j0, before its first block."""
        np.dot(self._G, j0, out=self._Gj0)
        np.dot(self._LT, j0, out=self._offsets[:self._n])

    def advance(self, g: np.ndarray, alpha: float, size: int, obj: float,
                tol: float) -> int:
        """Price the next ``size`` iterates from g (whose J is obj) at a
        step size alpha that is ``ready``.

        Accepts the longest run of iterates whose J falls by more than
        BLOCK_RTOL at each step, ending at the first whose J may be below
        tol. Writes the last accepted iterate into g and returns how many
        were accepted; a rise, a tie within the margin or a J that is not
        finite ends the run.
        """
        n, gc = self._n, self._gc
        gc[:n] = g
        np.multiply(self._Gj0, -alpha, out=gc[n:])
        iterates = np.dot(self._stacks[alpha][:size * n], gc,
                          out=self._iterates[:size * n])
        iterates = iterates.reshape(size, n)
        priced = np.dot(iterates, self._maps, out=self._priced[:size])
        priced += self._offsets
        np.multiply(priced, priced, out=priced)
        values = np.dot(priced, self._half, out=self._values[:size]).tolist()
        shrink, below = 1.0 - BLOCK_RTOL, tol * (1.0 + BLOCK_RTOL)
        accepted = 0
        for value in values:
            if not value < obj * shrink:
                break
            accepted += 1
            if value < below:
                break
            obj = value
        if accepted:
            g[:] = iterates[accepted - 1]
        return accepted


def descent_timestep(j0: np.ndarray, R: np.ndarray, G: np.ndarray, g0: np.ndarray,
                     config: CouplingConfig, M_g, *, recorder=None,
                     step_index: int = 0, Rg: np.ndarray | None = None,
                     penalty: float | None = None, blocks: DescentBlocks | None = None):
    """Minimize the interface objective for one timestep in interface space.

    The jump at control g is j0 + R g and the adjoint trace difference of a
    jump is G jump (see the module docstring). Returns (g, stats) with the
    accepted control. A trial that increases J, or whose J is not finite, is
    rejected: the step halves and the same direction is retried; directions
    are recomputed only after accepts. An accepted trial that leaves g
    bitwise unchanged ends the step unconverged, since no later trial can
    move it. A step whose starting J is not finite, or already below tol,
    makes no trial and returns g0 itself, as a float64 array.
    ``recorder(step_index, jump)`` is invoked for every direction with the
    control-ordered jump it was formed from; the array is valid only during
    the call. ``M_g`` is the dense control mass matrix. ``Rg`` and
    ``penalty``, when given, must be R @ g0 and g0 @ (M_g @ g0) as computed
    by those expressions; they stand in for the descent's own products.
    ``blocks``, the run's ``DescentBlocks`` for these R, G, M_g and delta,
    lets a run of accepted trials be priced a block at a time (see
    ``DescentBlocks``); without it, or with a recorder or recorded history,
    every trial runs the sequential loop.
    """
    t_start = time.perf_counter()
    delta, tol = config.delta, config.tol

    g = np.ascontiguousarray(g0, dtype=np.float64)
    jump = j0 + (R.dot(g) if Rg is None else Rg)
    # the products and their order are those of _objective_from_jump; the
    # ndarray.dot method makes the same BLAS calls as @, with less overhead
    obj = 0.5 * float(jump.dot(M_g.dot(jump)))
    if delta != 0.0:
        obj += 0.5 * delta * (float(g.dot(M_g.dot(g))) if penalty is None else penalty)
    accepted = [obj] if config.record_history else None
    if not (math.isfinite(obj) and obj >= tol):
        # positional: the fields in order, step to accepted_objectives
        return g, IterationStats(step_index, 0, 0, 0, obj, time.perf_counter() - t_start,
                                 "tol" if math.isfinite(obj) else "non_finite", accepted)

    # Trials write into fixed buffers, and an accept swaps g with g_try. A
    # trial overwrites jump, which is read only to form a direction right
    # after an accept. The products and their order are those of
    # _objective_from_jump, so a trial's J equals it bit for bit.
    g = g.copy()
    g_try, trace_diff, step, tmp = (np.empty_like(g) for _ in range(4))
    alpha = config.alpha0

    iterations = 0
    directions = 0
    reductions = 0
    fresh = False  # trace_diff holds the direction of the current g
    stop = None
    if recorder is not None or accepted is not None:
        blocks = None  # both need every direction and J: keep the loop
    streak = 0  # trials accepted in a row at this alpha
    last = obj  # J before the last accepted trial
    stepped = False  # blocks has taken this step's j0

    # a trial that overflows is rejected below as not finite, so its
    # RuntimeWarnings are silenced rather than raised
    with np.errstate(over="ignore", invalid="ignore"):
        while obj >= tol and iterations < config.max_iters:
            if blocks is not None and streak >= BLOCK_PREFIX:
                size = _block_size(obj, last, streak, tol, config.max_iters - iterations)
                if size and blocks.ready(alpha):
                    if not stepped:
                        blocks.begin(j0)
                        stepped = True
                    before = obj
                    m = blocks.advance(g, alpha, size, obj, tol)
                    if m:
                        # the block's last accepted iterate, priced as a trial
                        R.dot(g, tmp)
                        np.add(j0, tmp, out=jump)
                        M_g.dot(jump, tmp)
                        obj = 0.5 * float(jump.dot(tmp))
                        if delta != 0.0:
                            M_g.dot(g, tmp)
                            obj += 0.5 * delta * float(g.dot(tmp))
                        iterations += m
                        directions += m
                        # so that obj / last is the block's mean rate
                        last = before ** (1.0 / m) * obj ** (1.0 - 1.0 / m)
                    # after a short block the loop decides the next trials
                    streak = streak + m if m == size else 0
                    continue

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
                streak = 0
                continue
            # J is a function of g, so an unchanged g shows first as an equal J
            if obj_try == obj and np.array_equal(g_try, g):
                stop = "stagnated"  # the step fell below roundoff: g cannot move
                break

            g, g_try = g_try, g
            last, obj = obj, obj_try
            fresh = False
            streak += 1
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
    # per side: the step function (looked up once per run, so a run sees it as
    # patched before it starts), model, g -> B g, state response and Psi_u or
    # None; B g is M_g0 g on a full-order side, PsiT_Mg0 g on a reduced one
    sides, adjoints = [], []
    for side in (1, 2):
        srops, arops, op = state_rops[side - 1], adjoint_rops[side - 1], ops[side - 1]
        tf = dec.trace_free(side)
        if srops is None:
            sides.append((state_step, op, functools.partial(linalg.csr_matvec, op.M_g0),
                          op.trace_response(tf), None))
        else:
            sides.append((rom.rom_state_step, srops, srops.PsiT_Mg0.dot, srops.response,
                          srops.Psi_u))
        adjoints.append(op.trace_response(tf) if arops is None else arops.response)
    (step_1, ops_1, B_1, resp_1, Psi_1), (step_2, ops_2, B_2, resp_2, Psi_2) = sides
    R, G = interface_maps((resp_1, resp_2), adjoints)
    # both sides share the same interface mass matrix
    M_g = assembly.assemble_interface_mass(dec, 1)[1].toarray()
    # the run owns its descent stacks, so they go with it
    blocks = (DescentBlocks(R, G, M_g, config.delta)
              if recorder is None and not config.record_history else None)

    def to_state(Psi, v):  # a free-DOF vector in state coordinates
        return v if Psi is None else Psi.T @ v

    def to_free(Psi, u):  # a state as free-DOF values
        return u if Psi is None else Psi @ u

    u0 = np.asarray(problem.u0, dtype=np.float64)
    u_1, u_2 = (to_state(Psi, u0[dec.node_map(side)[dec.free_nodes(side)]])
                for side, Psi in ((1, Psi_1), (2, Psi_2)))
    load_1, load_2 = (make_loads(problem, dec, side) for side in (1, 2))
    n_control = dec.n_control
    controls = np.zeros((n_control, n_steps + 1), order="F")
    stats: list[IterationStats] = []

    traj_1 = traj_2 = None
    if keep_trajectories:
        traj_1 = np.empty((dec.free_nodes(1).size, n_steps + 1), order="F")
        traj_2 = np.empty((dec.free_nodes(2).size, n_steps + 1), order="F")
        traj_1[:, 0] = to_free(Psi_1, u_1)
        traj_2[:, 0] = to_free(Psi_2, u_2)

    # The steps are called positionally. R g and g (M_g g) of the starting
    # control, and each side's B_i g of the accepted one, are recomputed only
    # when a descent returns a new array: one that makes no trial returns the
    # control it was given.
    descent = descent_timestep
    P_1, WT_1 = resp_1.P, resp_1.WT
    P_2, WT_2 = resp_2.P, resp_2.WT
    has_load = problem.f is not None
    f_1 = f_2 = None
    warm_start, penalised = config.warm_start, config.delta != 0.0
    g_start = g_stepped = np.zeros(n_control)
    Rg = R.dot(g_start)
    penalty = float(g_start.dot(M_g.dot(g_start))) if penalised else None
    Bg_1, Bg_2 = B_1(g_start), B_2(g_start)
    j0, trace_2 = np.empty(n_control), np.empty(n_control)
    for n in range(1, n_steps + 1):
        if has_load:
            f_1, f_2 = to_state(Psi_1, load_1(n)), to_state(Psi_2, load_2(n))
        # j0 = (P_1 u_1 + W_1^T f_1) - (P_2 u_2 + W_2^T f_2), in place
        P_1.dot(u_1, j0)
        P_2.dot(u_2, trace_2)
        if has_load:
            j0 += WT_1 @ f_1
            trace_2 += WT_2 @ f_2
        j0 -= trace_2
        g, st = descent(j0, R, G, g_start, config, M_g, recorder=recorder,
                        step_index=n, Rg=Rg, penalty=penalty, blocks=blocks)
        if g is not g_stepped:
            g_stepped = g
            Bg_1, Bg_2 = B_1(g), B_2(g)
            if warm_start:
                g_start = g
                Rg = R.dot(g)
                if penalised:
                    penalty = float(g.dot(M_g.dot(g)))
        u_1 = step_1(ops_1, u_1, g, f_1, 1, Bg_1)
        u_2 = step_2(ops_2, u_2, g, f_2, 2, Bg_2)
        controls[:, n] = g
        stats.append(st)
        if keep_trajectories:
            traj_1[:, n] = to_free(Psi_1, u_1)
            traj_2[:, n] = to_free(Psi_2, u_2)
    wall = time.perf_counter() - t_start

    return CoupledRunResult(
        control=Control(values=controls), stats=stats,
        final_1=to_free(Psi_1, u_1), final_2=to_free(Psi_2, u_2),
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
                      delta: float, *, eps: float = 1e-5, seed: int = 0) -> float:
    """Max relative mismatch between FD and adjoint directional derivatives.

    For five random unit directions e compares the central difference
    (J(g + eps e) - J(g - eps e)) / (2 eps) against grad^T M_g e. The
    objective is quadratic in g, so the central difference is exact up to
    roundoff and the returned mismatch should sit near machine precision.
    A non-finite mismatch is returned as inf, so it fails any tolerance.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise InputError(f"eps={eps} must be finite and positive")
    if not (math.isfinite(delta) and delta >= 0):
        raise InputError(f"delta={delta} must be finite and nonnegative")

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
    for _ in range(5):
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
