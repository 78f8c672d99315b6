import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from obcoupling import assembly, bench, coupling, fom, linalg, rom, snapshots
from obcoupling.errors import InputError
from obcoupling.geometry import build_mesh, decompose


def desk_problem(n_steps=5, level=8, nu=1e-3):
    prob = bench.solid_body_rotation_problem(level, nu=nu)
    return fom.ProblemSpec(decomposition=prob.decomposition, nu=prob.nu,
                           a=prob.a, f=None, u0=prob.u0, dt=prob.dt,
                           T=n_steps * prob.dt)


def fom_responses(dec, nu=1e-3, dt=0.05, supg_on=False, seed=0):
    """Full-order operators, trace responses and random previous states per side."""
    rng = np.random.default_rng(seed)
    ops, responses, u_prev = [], [], []
    for side in (1, 2):
        op = assembly.subdomain_operators(
            dec, side, nu=nu, dt=dt, advection=bench.rotation_field,
            supg_on=supg_on)
        ops.append(op)
        responses.append(op.trace_response(dec.trace_free(side)))
        u_prev.append(rng.standard_normal(op.n_free))
    return ops, responses, u_prev


def interface_system(responses, u_prev):
    """(j0, R, G) of one timestep stepped from u_prev."""
    j0 = (responses[0].zero_control_trace(u_prev[0])
          - responses[1].zero_control_trace(u_prev[1]))
    return (j0, *coupling.interface_maps(responses, responses))


def test_objective_matches_manual_sum():
    dec = decompose(build_mesh(6, 4), 0.5)
    _, M_g = assembly.assemble_interface_mass(dec, 1)
    rng = np.random.default_rng(0)
    u1 = rng.standard_normal(dec.free_nodes(1).size)
    u2 = rng.standard_normal(dec.free_nodes(2).size)
    g = rng.standard_normal(dec.n_control)
    delta = 1e-3
    jump = u1[dec.trace_free(1)] - u2[dec.trace_free(2)]
    manual = 0.5 * jump @ M_g @ jump + 0.5 * delta * g @ M_g @ g
    got = coupling.objective(u1, u2, g, delta, dec.trace_free(1),
                             dec.trace_free(2), M_g)
    assert got == pytest.approx(manual, rel=1e-14)
    assert got >= 0.0


def test_control_gradient_formula():
    dec = decompose(build_mesh(6, 4), 0.5)
    rng = np.random.default_rng(1)
    mu1 = rng.standard_normal(dec.free_nodes(1).size)
    mu2 = rng.standard_normal(dec.free_nodes(2).size)
    g = rng.standard_normal(dec.n_control)
    grad = coupling.control_gradient(mu1, mu2, g, 0.5, dec.trace_free(1),
                                     dec.trace_free(2))
    np.testing.assert_allclose(
        grad, 0.5 * g + mu1[dec.trace_free(1)] - mu2[dec.trace_free(2)])


def test_fd_gradient_check_random_instances():
    # the adjoint gradient of the quadratic objective is exact, so central
    # differences agree to roundoff over many random problem instances
    for seed in range(5):
        dec, ops_1, ops_2, u1, u2, g = coupling.random_gradient_instance(
            8, seed=seed)
        err = coupling.fd_gradient_check(
            ops_1, ops_2, dec.trace_free(1), dec.trace_free(2), ops_1.M_g,
            u1, u2, g, delta=1e-3, seed=seed)
        assert err < 1e-7


def test_fd_gradient_check_fails_on_non_finite_and_rejects_bad_settings():
    dec, ops_1, ops_2, u1, u2, g = coupling.random_gradient_instance(8, seed=0)
    args = (ops_1, ops_2, dec.trace_free(1), dec.trace_free(2), ops_1.M_g)
    # a NaN state makes every difference NaN; that must read as a failure, not 0
    u_nan = u1.copy()
    u_nan[3] = np.nan
    assert coupling.fd_gradient_check(*args, u_nan, u2, g, 1e-3) == np.inf
    for kwargs in ({"eps": 0.0}, {"eps": -1e-5}, {"eps": np.nan}, {"eps": np.inf},
                   {"delta": np.nan}, {"delta": -1.0}):
        kwargs = {"delta": 1e-3, **kwargs}
        with pytest.raises(InputError):
            coupling.fd_gradient_check(*args, u1, u2, g, **kwargs)


def test_config_validation():
    with pytest.raises(ValueError):
        coupling.CouplingConfig(delta=-1.0)
    with pytest.raises(ValueError):
        coupling.CouplingConfig(tol=0.0)
    with pytest.raises(ValueError):
        coupling.CouplingConfig(max_iters=0)
    # non-finite settings pass every sign check, so they need their own
    for name in ("delta", "tol", "alpha0"):
        for bad in (np.nan, np.inf):
            with pytest.raises(InputError, match=f"{name}=.* must be finite"):
                coupling.CouplingConfig(**{name: bad})


def test_descent_zero_iterations_when_already_converged():
    dec = decompose(build_mesh(6, 4), 0.5)
    ops, responses, u_prev = fom_responses(dec)
    cfg = coupling.CouplingConfig(delta=1e-16, tol=1e30, record_history=True)
    g0 = np.zeros(dec.n_control)
    g, stats = coupling.descent_timestep(
        *interface_system(responses, u_prev), g0, cfg, ops[0].M_g.toarray())
    assert stats.iterations == 0
    assert stats.directions == 0
    assert stats.converged and stats.stop_reason == "tol"
    np.testing.assert_array_equal(g, g0)


def test_descent_single_update_algebra():
    dec = decompose(build_mesh(6, 4), 0.5)
    ops, responses, u_prev = fom_responses(dec, seed=3)
    M_g = ops[0].M_g.toarray()
    delta, alpha = 1e-2, 1e-3
    cfg = coupling.CouplingConfig(delta=delta, tol=1e-30, alpha0=alpha,
                                  max_iters=1)
    rng = np.random.default_rng(4)
    g0 = rng.standard_normal(dec.n_control)

    # expected update, computed by hand from sparse state and adjoint solves
    tf_1, tf_2 = dec.trace_free(1), dec.trace_free(2)
    u1 = fom.state_step(ops[0], u_prev[0], g0, None, 1)
    u2 = fom.state_step(ops[1], u_prev[1], g0, None, 2)
    jump = u1[tf_1] - u2[tf_2]
    t1 = fom.adjoint_solve(ops[0], jump, 1)[tf_1]
    t2 = fom.adjoint_solve(ops[1], jump, 2)[tf_2]
    expected = (1.0 - alpha * delta) * g0 - alpha * (t1 - t2)

    g, stats = coupling.descent_timestep(
        *interface_system(responses, u_prev), g0, cfg, M_g)
    assert stats.iterations == 1
    assert stats.directions == 1
    assert not stats.converged and stats.stop_reason == "max_iters"
    np.testing.assert_allclose(g, expected, rtol=0,
                               atol=1e-13 * np.abs(expected).max())


def test_descent_rejects_increases_and_halves_step():
    dec = decompose(build_mesh(6, 4), 0.5)
    ops, responses, u_prev = fom_responses(dec, seed=6)
    # absurdly large step: the first trials must overshoot and be rejected
    cfg = coupling.CouplingConfig(delta=1e-16, tol=1e-12, alpha0=1e8,
                                  max_iters=60, record_history=True)
    g0 = np.zeros(dec.n_control)
    g, stats = coupling.descent_timestep(
        *interface_system(responses, u_prev), g0, cfg, ops[0].M_g.toarray())
    assert stats.alpha_reductions > 0
    hist = np.array(stats.accepted_objectives)
    assert (np.diff(hist) <= 0.0).all()
    assert hist[-1] <= hist[0]


def test_descent_monotone_accepted_objectives():
    dec = decompose(build_mesh(8, 8), 0.5)
    ops, responses, u_prev = fom_responses(dec, nu=1e-4, dt=0.02, seed=11)
    cfg = coupling.CouplingConfig(delta=1e-14, tol=1e-16, alpha0=2.0,
                                  max_iters=300, record_history=True)
    _, stats = coupling.descent_timestep(
        *interface_system(responses, u_prev), np.zeros(dec.n_control), cfg,
        ops[0].M_g.toarray())
    hist = np.array(stats.accepted_objectives)
    assert len(hist) > 3
    assert (np.diff(hist) <= 0.0).all()


def test_descent_rejects_non_finite_trials():
    # alpha0 * delta overflows, so the first trial is (1 - inf) * 0 = NaN;
    # it must be rejected like an increase, not accepted as a non-increase
    dec = decompose(build_mesh(8, 8), 0.5)
    ops, responses, u_prev = fom_responses(dec, nu=1e-4, dt=0.02)
    cfg = coupling.CouplingConfig(delta=1e10, tol=1e-30, alpha0=1e300,
                                  max_iters=2000, record_history=True)
    with np.errstate(all="ignore"):
        g, stats = coupling.descent_timestep(
            *interface_system(responses, u_prev), np.zeros(dec.n_control),
            cfg, ops[0].M_g.toarray())
    assert stats.alpha_reductions > 0
    assert np.isfinite(g).all() and np.isfinite(stats.objective)
    hist = np.array(stats.accepted_objectives)
    assert np.isfinite(hist).all() and (np.diff(hist) <= 0.0).all()


def test_descent_stops_when_accepted_trial_leaves_control_unchanged():
    # a vanishing adjoint response gives a zero direction: the first trial
    # equals g and is accepted as a non-increase, after which no trial can
    # move g, so the step ends unconverged instead of running to max_iters
    dec = decompose(build_mesh(6, 4), 0.5)
    ops, responses, u_prev = fom_responses(dec)
    j0, R, G = interface_system(responses, u_prev)
    cfg = coupling.CouplingConfig(delta=0.0, tol=1e-30)
    g0 = np.ones(dec.n_control)
    g, stats = coupling.descent_timestep(j0, R, np.zeros_like(G), g0, cfg,
                                         ops[0].M_g.toarray())
    assert stats.iterations == 1
    assert stats.directions == 1
    assert not stats.converged and stats.stop_reason == "stagnated"
    np.testing.assert_array_equal(g, g0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_descent_stops_at_a_non_finite_start(bad):
    # a non-finite zero-control jump makes J non-finite before any trial:
    # the step makes none and says why instead of passing as unconverged
    dec = decompose(build_mesh(6, 4), 0.5)
    ops, responses, u_prev = fom_responses(dec)
    j0, R, G = interface_system(responses, u_prev)
    j0[2] = bad
    cfg = coupling.CouplingConfig(delta=1e-16, tol=1e-14, max_iters=50)
    g0 = np.zeros(dec.n_control)
    with np.errstate(invalid="ignore"):
        g, stats = coupling.descent_timestep(j0, R, G, g0, cfg,
                                             ops[0].M_g.toarray())
    assert stats.stop_reason == "non_finite" and not stats.converged
    assert stats.iterations == 0 and stats.directions == 0
    np.testing.assert_array_equal(g, g0)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1e-6, 1.0, 1e3]),
       delta=st.sampled_from([0.0, 1e-16, 1e-3, 1.0]),
       alpha0=st.sampled_from([1e-3, 1.0, 2.0, 1e6]),
       tol=st.sampled_from([1e-14, 1e-8, 1e-2]),
       max_iters=st.integers(1, 200))
def test_descent_property_on_random_interface_systems(n, seed, scale, delta,
                                                      alpha0, tol, max_iters):
    # whatever (j0, R, G) is, the descent only accepts finite objectives that
    # do not increase, and reports convergence only below the tolerance
    rng = np.random.default_rng(seed)
    j0 = scale * rng.standard_normal(n)
    R = rng.standard_normal((n, n))
    G = rng.standard_normal((n, n))
    g0 = rng.standard_normal(n) if seed % 2 else np.zeros(n)
    B = rng.standard_normal((n, n))
    M_g = B @ B.T + n * np.eye(n)
    cfg = coupling.CouplingConfig(delta=delta, tol=tol, alpha0=alpha0,
                                  max_iters=max_iters, record_history=True)
    with np.errstate(over="ignore", invalid="ignore"):
        g, stats = coupling.descent_timestep(j0, R, G, g0, cfg, M_g)
    hist = np.array(stats.accepted_objectives)
    assert np.isfinite(hist).all()
    assert (np.diff(hist) <= 0.0).all()
    assert stats.objective == hist[-1]
    assert stats.iterations <= max_iters
    assert stats.converged == (stats.objective < tol)
    assert stats.converged == (stats.stop_reason == "tol")
    assert stats.stop_reason in ("tol", "max_iters", "stagnated", "non_finite")
    assert np.isfinite(g).all()
    assert stats.objective == coupling._objective_from_jump(
        j0 + R @ g, g, delta, M_g)


def descent_record(descent, j0, R, G, g0, cfg, M_g):
    """Bytes of everything a descent reports but its wall time: the control,
    every IterationStats field and the copied jump of every direction."""
    jumps = []
    g, stats = descent(j0, R, G, g0, cfg, M_g, step_index=3,
                       recorder=lambda n, jump: jumps.append((n, jump.tobytes())))
    fields = dataclasses.asdict(stats)
    del fields["wall_time"]
    fields["objective"] = np.float64(stats.objective).tobytes()
    if stats.accepted_objectives is not None:
        fields["accepted_objectives"] = np.array(stats.accepted_objectives).tobytes()
    return g.tobytes(), fields, jumps


def assert_descent_matches_oracle(j0, R, G, g0, cfg, M_g):
    assert (descent_record(coupling.descent_timestep, j0, R, G, g0, cfg, M_g)
            == descent_record(oracles.descent_timestep, j0, R, G, g0, cfg, M_g))


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1e-6, 1.0, 1e3]),
       delta=st.sampled_from([0.0, 1e-16, 1e-3, 1.0]),
       alpha0=st.sampled_from([1e-3, 1.0, 2.0, 1e6]),
       tol=st.sampled_from([1e-14, 1e-8, 1e-2]),
       max_iters=st.integers(1, 200), record_history=st.booleans())
def test_descent_matches_the_allocating_oracle_bitwise(n, seed, scale, delta, alpha0,
                                                       tol, max_iters, record_history):
    # the loop prices trials into fixed buffers; it must take every decision
    # of the allocating loop it replaced and return the same bits
    rng = np.random.default_rng(seed)
    j0 = scale * rng.standard_normal(n)
    R = rng.standard_normal((n, n))
    G = rng.standard_normal((n, n))
    g0 = rng.standard_normal(n) if seed % 2 else np.zeros(n)
    B = rng.standard_normal((n, n))
    M_g = B @ B.T + n * np.eye(n)
    cfg = coupling.CouplingConfig(delta=delta, tol=tol, alpha0=alpha0,
                                  max_iters=max_iters, record_history=record_history)
    with np.errstate(over="ignore", invalid="ignore"):
        assert_descent_matches_oracle(j0, R, G, g0, cfg, M_g)


def test_descent_matches_the_oracle_at_stagnation_and_non_finite_starts():
    dec = decompose(build_mesh(6, 4), 0.5)
    ops, responses, u_prev = fom_responses(dec)
    j0, R, G = interface_system(responses, u_prev)
    M_g = ops[0].M_g.toarray()
    cfg = coupling.CouplingConfig(delta=0.0, tol=1e-30, record_history=True)
    assert_descent_matches_oracle(j0, R, np.zeros_like(G), np.ones(dec.n_control),
                                  cfg, M_g)
    cfg = coupling.CouplingConfig(delta=1e-16, tol=1e-14, max_iters=50)
    for bad in (np.nan, np.inf):
        j0_bad = j0.copy()
        j0_bad[2] = bad
        with np.errstate(invalid="ignore"):
            assert_descent_matches_oracle(j0_bad, R, G, np.zeros(dec.n_control),
                                          cfg, M_g)


def spy_blocks(monkeypatch):
    """Record (size, accepted) of every block DescentBlocks.advance prices."""
    priced = []
    advance = coupling.DescentBlocks.advance

    def spy(self, g, alpha, size, obj, tol):
        accepted = advance(self, g, alpha, size, obj, tol)
        priced.append((size, accepted))
        return accepted

    monkeypatch.setattr(coupling.DescentBlocks, "advance", spy)
    return priced


# A blocked step takes the decisions of the sequential loop; its iterates
# come from powers of the fixed iteration instead of the recurrence, so they
# agree to roundoff. Bound on the relative difference of controls and states.
BLOCKED_RTOL = 1e-10


def decisions(res):
    return [(s.iterations, s.directions, s.alpha_reductions, s.stop_reason)
            for s in res.stats]


def assert_blocked_march_matches(got, want):
    """Equal per-step decisions; controls, finals and objectives to roundoff."""
    assert decisions(got) == decisions(want)
    for a, b in ((got.control.values, want.control.values),
                 (got.final_1, want.final_1), (got.final_2, want.final_2)):
        assert np.abs(a - b).max() <= BLOCKED_RTOL * np.abs(b).max()
    for s, t in zip(got.stats, want.stats):
        assert abs(s.objective - t.objective) <= 1e-6 * t.objective


def contracting_instance(seed, n, spread):
    """(j0, R, G, g0, M_g) whose G R has real eigenvalues in the band
    ``spread`` = (low, high), well conditioned eigenvectors and an SPD M_g."""
    rng = np.random.default_rng(seed)
    R = rng.standard_normal((n, n)) + 2.0 * np.sqrt(n) * np.eye(n)
    V = np.linalg.qr(rng.standard_normal((n, n)))[0] + 0.3 * rng.standard_normal((n, n))
    lam = rng.uniform(*spread, n)
    G = (V * lam) @ np.linalg.inv(V) @ np.linalg.inv(R)
    B = rng.standard_normal((n, n))
    M_g = B @ B.T + n * np.eye(n)
    j0 = rng.standard_normal(n)
    g0 = rng.standard_normal(n) if seed % 2 else np.zeros(n)
    return j0, R, G, g0, M_g


# (alpha0, eigenvalue band of G R): a contraction at alpha0, a contraction
# that needs one halving, and the full-order level-32 band, whose steps
# creep with T's eigenvalues near -1 until one rejection
REGIMES = [(1.0, (0.2, 0.9)), (2.0, (0.4, 1.6)), (2.0, (0.989, 1.02))]


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 9), seed=st.integers(0, 2**32 - 1),
       regime=st.sampled_from(REGIMES), delta=st.sampled_from([0.0, 1e-16]),
       digits=st.integers(3, 12), max_iters=st.integers(1, 300))
def test_blocked_descent_takes_the_sequential_decisions(n, seed, regime, delta,
                                                        digits, max_iters):
    # the same trials, directions, halvings and stop as the sequential loop,
    # with the control equal to roundoff; stacks are built at once
    alpha0, spread = regime
    j0, R, G, g0, M_g = contracting_instance(seed, n, spread)
    J0 = coupling._objective_from_jump(j0 + R @ g0, g0, delta, M_g)
    cfg = coupling.CouplingConfig(delta=delta, tol=J0 * 10.0 ** -digits,
                                  alpha0=alpha0, max_iters=max_iters)
    g_seq, seq = coupling.descent_timestep(j0, R, G, g0, cfg, M_g)
    with mock.patch.object(coupling, "STACK_PAYBACK", 0):
        g_blk, blk = coupling.descent_timestep(
            j0, R, G, g0, cfg, M_g, blocks=coupling.DescentBlocks(R, G, M_g, delta))
    assert ((blk.iterations, blk.directions, blk.alpha_reductions, blk.stop_reason)
            == (seq.iterations, seq.directions, seq.alpha_reductions, seq.stop_reason))
    assert np.abs(g_blk - g_seq).max() <= BLOCKED_RTOL * np.abs(g_seq).max()
    # the returned J is priced with _objective_from_jump's products
    assert blk.objective == coupling._objective_from_jump(j0 + R @ g_blk, g_blk,
                                                          delta, M_g)
    assert blk.converged == (blk.objective < cfg.tol)


@pytest.mark.parametrize("regime", [(1.0, (0.02, 0.05)), (2.0, (0.985, 0.995))])
def test_blocked_descent_stops_at_the_cap(monkeypatch, regime):
    # a step cut at max_iters reports exactly max_iters trials, and no block
    # prices more iterates than the cap leaves; J falls by a few percent per
    # trial, with T's eigenvalues near 1 or near -1
    alpha0, spread = regime
    j0, R, G, g0, M_g = contracting_instance(7, 8, spread)
    monkeypatch.setattr(coupling, "STACK_PAYBACK", 0)
    priced = spy_blocks(monkeypatch)
    cfg = coupling.CouplingConfig(delta=1e-16, tol=1e-300, alpha0=alpha0)
    full = coupling.descent_timestep(j0, R, G, g0, cfg, M_g)[1].iterations
    assert full > 40
    for max_iters in range(1, 41):
        cfg = dataclasses.replace(cfg, max_iters=max_iters)
        del priced[:]
        _, seq = coupling.descent_timestep(j0, R, G, g0, cfg, M_g)
        _, blk = coupling.descent_timestep(
            j0, R, G, g0, cfg, M_g, blocks=coupling.DescentBlocks(R, G, M_g, 1e-16))
        assert blk.iterations == seq.iterations == max_iters
        assert blk.stop_reason == seq.stop_reason == "max_iters"
        assert sum(m for _, m in priced) <= max_iters
        assert all(size <= max_iters for size, _ in priced)
    assert priced


@settings(max_examples=300, deadline=None)
@given(obj=st.floats(1e-300, 1e300), rate=st.floats(0.0, 2.0),
       streak=st.integers(0, 10**6), tol=st.floats(1e-300, 1e300),
       left=st.integers(1, 10**6))
def test_block_size_stays_within_the_cap_and_its_bounds(obj, rate, streak, tol, left):
    last = obj / rate if rate > 0.0 else np.inf
    size = coupling._block_size(obj, last, streak, min(tol, obj), left)
    assert size == 0 or coupling.BLOCK_MIN <= size <= min(coupling.BLOCK_CAP, left)


def test_a_block_ending_near_tol_hands_the_step_back(monkeypatch):
    # with a margin this wide a block stops at the first iterate whose J is
    # below 1.5 tol; when its J, priced again the sequential way, is not
    # below tol, the loop continues and decides as the sequential one would
    monkeypatch.setattr(coupling, "STACK_PAYBACK", 0)
    monkeypatch.setattr(coupling, "BLOCK_RTOL", 0.5)
    handed_back = 0
    advance = coupling.DescentBlocks.advance

    def spy(self, g, alpha, size, obj, tol):
        nonlocal handed_back
        accepted = advance(self, g, alpha, size, obj, tol)
        if accepted and self._values[accepted - 1] >= tol:
            handed_back += 1
        return accepted

    monkeypatch.setattr(coupling.DescentBlocks, "advance", spy)
    for seed in range(40):
        j0, R, G, g0, M_g = contracting_instance(seed, 6, (0.6, 0.75))
        J0 = coupling._objective_from_jump(j0 + R @ g0, g0, 0.0, M_g)
        cfg = coupling.CouplingConfig(delta=0.0, tol=J0 * 1e-9, alpha0=1.0)
        _, seq = coupling.descent_timestep(j0, R, G, g0, cfg, M_g)
        g, blk = coupling.descent_timestep(
            j0, R, G, g0, cfg, M_g, blocks=coupling.DescentBlocks(R, G, M_g, 0.0))
        assert (blk.iterations, blk.stop_reason) == (seq.iterations, "tol")
        assert blk.objective == coupling._objective_from_jump(j0 + R @ g, g, 0.0, M_g)
    assert handed_back > 0


@pytest.mark.parametrize("history", [True, False])
def test_recording_descents_ignore_blocks_bitwise(monkeypatch, history):
    # GDRA's recorder and record_history need every direction and every J,
    # so with either the descent runs the sequential loop, stacks or not
    monkeypatch.setattr(coupling, "STACK_PAYBACK", 0)
    priced = spy_blocks(monkeypatch)
    j0, R, G, g0, M_g = contracting_instance(3, 8, (0.985, 0.995))
    cfg = coupling.CouplingConfig(delta=1e-16, tol=1e-12, record_history=history)
    blocks = coupling.DescentBlocks(R, G, M_g, 1e-16)

    def blocked(*args, **kwargs):
        return coupling.descent_timestep(*args, blocks=blocks, **kwargs)

    assert (descent_record(blocked, j0, R, G, g0, cfg, M_g)
            == descent_record(oracles.descent_timestep, j0, R, G, g0, cfg, M_g))
    assert not priced
    if not history:  # and without a recorder the same call prices blocks
        coupling.descent_timestep(j0, R, G, g0, cfg, M_g, blocks=blocks)
        assert priced


def test_march_with_recorded_history_matches_the_oracle_bitwise(desk_reduced_models,
                                                                monkeypatch):
    # criterion 9's setting: accepted objectives kept, no recorder; the
    # march builds no stacks and returns the oracle march's bits
    prob, rops = desk_reduced_models
    monkeypatch.setattr(coupling, "STACK_PAYBACK", 0)
    priced = spy_blocks(monkeypatch)
    cfg = coupling.CouplingConfig(supg_on=True, max_iters=500, record_history=True)
    kw = {"state_rops": (rops[0], None), "adjoint_rops": (None, rops[1])}
    got = coupling.run_transient(prob, cfg, **kw)
    want = oracles.run_transient(prob, cfg, **kw)
    assert not priced
    assert decisions(got) == decisions(want)
    for a, b in ((got.control.values, want.control.values), (got.final_1, want.final_1),
                 (got.final_2, want.final_2), (got.traj_1, want.traj_1)):
        assert a.tobytes() == b.tobytes()
    assert ([s.accepted_objectives for s in got.stats]
            == [s.accepted_objectives for s in want.stats])


def test_transient_runs_match_the_oracle_descent_bitwise(monkeypatch):
    # FOM-FOM, ROM-ROM and mixed halves at level 8 over 20 steps at the
    # paper's tolerance: controls, finals and stats as with the old loop.
    # A run that priced a block of trials takes every decision of the old
    # loop, with controls and states equal to roundoff; one that priced none
    # returns its bits
    prob = desk_problem(n_steps=20)
    dec = prob.decomposition
    mono = fom.monolithic_solve(prob, supg_on=True)
    store = snapshots.split_monolithic_snapshots(mono, dec)
    rops = []
    for side in (1, 2):
        ops = prob.operators(side, True)
        psi = rom.full_pod(store[f"state_{side}"]).truncate(12).Psi
        rops.append(rom.reduce_operators(ops, psi, trace_free=dec.trace_free(side)))
    runs = {"fom-fom": {}, "rom-rom": {"state_rops": tuple(rops),
                                       "adjoint_rops": tuple(rops)},
            "mixed": {"state_rops": (rops[0], None), "adjoint_rops": (None, rops[1])}}
    cfg = coupling.CouplingConfig(supg_on=True, max_iters=500)

    def record(res):
        stats = [(s.iterations, s.directions, s.alpha_reductions,
                  np.float64(s.objective).tobytes(), s.stop_reason) for s in res.stats]
        return (res.control.values.tobytes(), res.final_1.tobytes(),
                res.final_2.tobytes(), stats)

    priced = spy_blocks(monkeypatch)
    got, blocked = {}, {}
    for name, kw in runs.items():
        del priced[:]
        got[name] = coupling.run_transient(prob, cfg, **kw)
        blocked[name] = sum(m for _, m in priced)
    # the descents are long enough that some runs price blocks
    assert any(blocked.values())
    monkeypatch.setattr(coupling, "descent_timestep", oracles.descent_timestep)
    for name, kw in runs.items():
        want = coupling.run_transient(prob, cfg, **kw)
        if blocked[name]:
            assert_blocked_march_matches(got[name], want)
        else:
            assert record(got[name]) == record(want), name


@pytest.fixture(scope="module")
def desk_reduced_models():
    """A 20-step level-8 desk problem and a 12-mode reduced model per side."""
    prob = desk_problem(n_steps=20)
    store = snapshots.split_monolithic_snapshots(
        fom.monolithic_solve(prob, supg_on=True), prob.decomposition)
    rops = tuple(rom.reduce_operators(
        prob.operators(side, True),
        rom.full_pod(store[f"state_{side}"]).truncate(12).Psi,
        trace_free=prob.decomposition.trace_free(side)) for side in (1, 2))
    return prob, rops


def march_record(march, prob, cfg, halves):
    """Bytes of everything a march reports but wall times: controls, finals,
    trajectories, every IterationStats field and every recorded jump."""
    jumps = []
    res = march(prob, cfg, **halves,
                recorder=lambda n, jump: jumps.append((n, jump.tobytes())))
    stats = []
    for s in res.stats:
        fields = dataclasses.asdict(s)
        del fields["wall_time"]
        fields["objective"] = np.float64(s.objective).tobytes()
        if s.accepted_objectives is not None:
            fields["accepted_objectives"] = np.array(s.accepted_objectives).tobytes()
        stats.append(fields)
    arrays = (res.control.values, res.final_1, res.final_2, res.traj_1, res.traj_2)
    return [a.tobytes() for a in arrays], stats, jumps


@pytest.mark.parametrize("halves", ["fom-fom", "rom-rom", "mixed"])
@pytest.mark.parametrize("variant", ["paper", "loose", "load", "cold",
                                     "history-delta0", "non-finite"])
def test_lean_march_matches_the_oracle_march_bitwise(desk_reduced_models, halves,
                                                     variant):
    # the march carries R g and the penalty across steps, skips the descent's
    # set-up when the warm start meets tol and steps in place; it must make
    # every decision of the plain march and return the same bits
    prob, rops = desk_reduced_models
    kw = {"fom-fom": {}, "rom-rom": {"state_rops": rops, "adjoint_rops": rops},
          "mixed": {"state_rops": (rops[0], None),
                    "adjoint_rops": (None, rops[1])}}[halves]
    # at tol 1e-3 some steps start below tol and the rest need trials
    cfg = dict(supg_on=True, max_iters=500, delta=1e-8, tol=1e-3)
    if variant == "paper":
        cfg.update(delta=1e-16, tol=1e-14)
    elif variant == "load":
        prob = dataclasses.replace(
            prob, f=lambda x, y, t: np.sin(3.0 * x + t) * np.cos(2.0 * y))
    elif variant == "cold":
        cfg.update(warm_start=False)
    elif variant == "history-delta0":
        cfg.update(delta=0.0, record_history=True)
    elif variant == "non-finite":
        # J overflows at every step while the states stay finite
        prob = dataclasses.replace(prob, u0=1e200 * prob.u0)
    cfg = coupling.CouplingConfig(**cfg)
    with np.errstate(over="ignore"):
        got = march_record(coupling.run_transient, prob, cfg, kw)
        want = march_record(oracles.run_transient, prob, cfg, kw)
    assert got == want
    iterations = [s["iterations"] for s in got[1]]
    if variant == "non-finite":
        assert {s["stop_reason"] for s in got[1]} == {"non_finite"}
    elif variant not in ("paper", "cold"):
        # both kinds of step occur: early returns and descents with trials
        assert min(iterations) == 0 and len(got[2]) > 0
    if halves == "rom-rom" and variant == "loose":
        # the sides step with a carried B_i g both after no-trial steps and
        # after steps whose descent moved g
        controls = np.frombuffer(got[0][0]).reshape(prob.decomposition.n_control, -1)
        moved = (controls[:, 2:] != controls[:, 1:-1]).any(axis=0)
        assert 0 in iterations[1:] and moved.any()


@pytest.mark.parametrize("state_reduced", [(False, False), (True, True),
                                           (True, False), (False, True)])
def test_march_steps_through_the_module_names_it_finds_at_start(
        desk_reduced_models, monkeypatch, state_reduced):
    # perfbench's tracer counts state steps by patching coupling.state_step
    # and rom.rom_state_step before a run: each side must step through the
    # patched name once per timestep
    prob, rops = desk_reduced_models
    state_rops = tuple(r if red else None for r, red in zip(rops, state_reduced))
    calls = []

    def counting(kind, step):
        def wrapper(model, u_prev, g, f, side, Bg=None):
            calls.append((kind, side))
            return step(model, u_prev, g, f, side, Bg)
        return wrapper

    monkeypatch.setattr(coupling, "state_step", counting("fom", coupling.state_step))
    monkeypatch.setattr(rom, "rom_state_step", counting("rom", rom.rom_state_step))
    coupling.run_transient(prob, coupling.CouplingConfig(supg_on=True, max_iters=50),
                           state_rops=state_rops, adjoint_rops=state_rops)
    kinds = ["rom" if reduced else "fom" for reduced in state_reduced]
    assert calls == [(kinds[0], 1), (kinds[1], 2)] * prob.n_steps


@pytest.mark.parametrize("supg_on", [True, False])
@pytest.mark.parametrize("level", [8, 16])
def test_exact_coupling_run_matches_the_monolithic_split(level, supg_on):
    # with delta = 0 the control solving R g = -j0 is the exact interface
    # flux, so the full-order coupled march retraces the monolithic reference
    # at every step of a full turn to roundoff: the signs of the interface
    # terms, the trace responses, M_g0 and the SUPG split are all exact
    prob = bench.BenchmarkSpec(level=level).problem()
    traj_1, traj_2 = oracles.exact_coupling_run(prob, supg_on)
    ref = snapshots.split_monolithic_snapshots(
        fom.monolithic_solve(prob, supg_on=supg_on), prob.decomposition)
    scale = np.maximum(np.abs(ref["state_1"].data).max(axis=0),
                       np.abs(ref["state_2"].data).max(axis=0))
    for side, traj in ((1, traj_1), (2, traj_2)):
        err = np.abs(traj - ref[f"state_{side}"].data).max(axis=0) / scale
        assert err.max() <= 1e-12, (side, err.max())


def test_transient_fom_vs_monolithic_short():
    prob = desk_problem(n_steps=6)
    cfg = coupling.CouplingConfig(delta=1e-16, tol=1e-14, supg_on=True)
    result = coupling.run_transient(prob, cfg)
    assert result.all_converged
    mono = fom.monolithic_solve(prob, supg_on=True)
    store = snapshots.split_monolithic_snapshots(mono, prob.decomposition)
    for side, final in ((1, result.final_1), (2, result.final_2)):
        ref = store[f"state_{side}"].data[:, -1]
        assert np.abs(final - ref).max() < 1e-6
    # trajectory bookkeeping
    assert result.traj_1.shape[1] == prob.n_steps + 1
    np.testing.assert_array_equal(result.control.values[:, 0], 0.0)


def test_overflowing_trials_are_rejected_without_warnings():
    # alpha0 = 1e308 overflows each step's first trials to inf and NaN; the
    # descent rejects them as not finite and halves alpha until it converges,
    # and no RuntimeWarning escapes (the suite turns one into an error)
    prob = bench.solid_body_rotation_problem(8, T=0.2)
    result = coupling.run_transient(prob, coupling.CouplingConfig(alpha0=1e308))
    assert {s.stop_reason for s in result.stats} == {"tol"}
    # the count with the warnings ignored by hand: silencing them moves nothing
    assert result.total_iterations == 3129


def test_second_run_solves_once_per_side_and_step(monkeypatch):
    # the trace responses stay with the problem's operators, so once they
    # exist a full-order run's only sparse solves are one state step per
    # side and timestep
    prob = desk_problem(n_steps=4)
    cfg = coupling.CouplingConfig(supg_on=True)
    coupling.run_transient(prob, cfg)
    shapes = []
    solve = linalg.Factorization.solve

    def counting(self, rhs):
        shapes.append(np.shape(rhs))
        return solve(self, rhs)

    monkeypatch.setattr(linalg.Factorization, "solve", counting)
    coupling.run_transient(prob, cfg)
    assert len(shapes) == 2 * prob.n_steps
    assert all(len(shape) == 1 for shape in shapes)


def test_warm_start_reuses_previous_control():
    prob = desk_problem(n_steps=3)
    cfg = coupling.CouplingConfig(delta=1e-16, tol=1e30, warm_start=True)
    res = coupling.run_transient(prob, cfg)
    # converged immediately at every step: the control never moves
    assert all(s.iterations == 0 for s in res.stats)
    np.testing.assert_array_equal(res.control.values, 0.0)

    cfg2 = coupling.CouplingConfig(delta=1e-16, tol=1e-13, supg_on=True,
                                   warm_start=True)
    res2 = coupling.run_transient(prob, cfg2)
    cfg3 = coupling.CouplingConfig(delta=1e-16, tol=1e-13, supg_on=True,
                                   warm_start=False)
    res3 = coupling.run_transient(prob, cfg3)
    # a warm start can only help after the first step
    assert sum(s.iterations for s in res2.stats[1:]) \
        <= sum(s.iterations for s in res3.stats[1:])


def test_recorder_sees_every_direction():
    prob = desk_problem(n_steps=4)
    cfg = coupling.CouplingConfig(delta=1e-14, tol=1e-12, supg_on=True)
    seen = []
    res = coupling.run_transient(
        prob, cfg, recorder=lambda n, jump: seen.append((n, jump.shape)),
        keep_trajectories=False)
    assert len(seen) == sum(s.directions for s in res.stats) > 0
    assert all(shape == (prob.decomposition.n_control,) for _, shape in seen)
    assert [n for n, _ in seen] == sorted(n for n, _ in seen)


def test_mixed_rom_fom_sides_run():
    prob = desk_problem(n_steps=4)
    dec = prob.decomposition
    mono = fom.monolithic_solve(prob, supg_on=True)
    store = snapshots.split_monolithic_snapshots(mono, dec)
    ops_1 = assembly.subdomain_operators(dec, 1, nu=prob.nu, dt=prob.dt,
                                         advection=prob.a, supg_on=True)
    basis = rom.full_pod(store["state_1"]).truncate(4)
    rops_1 = rom.reduce_operators(ops_1, basis.Psi,
                                  trace_free=dec.trace_free(1))
    cfg = coupling.CouplingConfig(delta=1e-10, tol=1e-8, supg_on=True)
    res = coupling.run_transient(prob, cfg, state_rops=(rops_1, None),
                                 adjoint_rops=(rops_1, None))
    assert res.final_1.size == dec.free_nodes(1).size
    assert res.final_2.size == dec.free_nodes(2).size
    assert np.isfinite(res.final_1).all() and np.isfinite(res.final_2).all()


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), n_steps=st.integers(1, 4),
       nu=st.sampled_from([1e-4, 1e-3, 1e-2]), supg_on=st.booleans(),
       warm_start=st.booleans(), with_source=st.booleans(),
       tol=st.sampled_from([1e-14, 1e-10, 1e-6]))
def test_accepted_states_match_sparse_state_step(seed, n_steps, nu, supg_on,
                                                 warm_start, with_source, tol):
    # every accepted state is the sparse solve of its timestep at the
    # returned control
    rng = np.random.default_rng(seed)
    dec = decompose(build_mesh(8, 8), 0.5)
    source = None
    if with_source:
        kx, ky = rng.uniform(1.0, 4.0, 2)
        source = lambda x, y, t: np.sin(kx * x + t) * np.cos(ky * y)  # noqa: E731
    dt = 0.02
    prob = fom.ProblemSpec(decomposition=dec, nu=nu, a=bench.rotation_field,
                           f=source, u0=rng.standard_normal(dec.parent.n_nodes),
                           dt=dt, T=n_steps * dt)
    cfg = coupling.CouplingConfig(delta=1e-16, tol=tol, supg_on=supg_on,
                                  warm_start=warm_start, max_iters=2000)
    res = coupling.run_transient(prob, cfg)
    for side, traj in ((1, res.traj_1), (2, res.traj_2)):
        ops = assembly.subdomain_operators(dec, side, nu=nu, dt=dt,
                                           advection=bench.rotation_field,
                                           supg_on=supg_on)
        for n in range(1, n_steps + 1):
            f = None
            if source is not None:
                f = assembly.assemble_load(dec.sub(side), dec.free_nodes(side),
                                           source, n * dt)
            want = fom.state_step(ops, traj[:, n - 1], res.control.values[:, n],
                                  f, side)
            err = np.linalg.norm(traj[:, n] - want) / np.linalg.norm(want)
            assert err <= 1e-12


def test_full_rank_reduced_state_with_full_adjoint_retraces_full_order():
    # gate 2's mixed configuration: with a square orthonormal state basis the
    # reduced state is a change of variables, so the run retraces FOM-FOM,
    # also when a source term loads both sides; so does the opposite mix,
    # a full-order state with a full-rank reduced adjoint
    cfg = coupling.CouplingConfig(supg_on=True)
    for source in (None, lambda x, y, t: 10.0):
        prob = dataclasses.replace(bench.solid_body_rotation_problem(8), f=source)
        dec = prob.decomposition
        res_fom = coupling.run_transient(prob, cfg)
        rng = np.random.default_rng(5)
        rops = []
        for side in (1, 2):
            ops = assembly.subdomain_operators(dec, side, nu=prob.nu, dt=prob.dt,
                                               advection=prob.a, supg_on=True)
            psi = np.linalg.qr(rng.standard_normal((ops.n_free,) * 2))[0]
            rops.append(rom.reduce_operators(ops, psi,
                                             trace_free=dec.trace_free(side)))
        for mix in ({"state_rops": tuple(rops)}, {"adjoint_rops": tuple(rops)}):
            res = coupling.run_transient(prob, cfg, **mix)
            assert ([s.iterations for s in res.stats]
                    == [s.iterations for s in res_fom.stats])
            step_diff = max(np.abs(res.traj_1 - res_fom.traj_1).max(),
                            np.abs(res.traj_2 - res_fom.traj_2).max())
            assert step_diff <= 1e-10


def test_gdra_pairs_are_sparse_adjoint_solves(monkeypatch):
    # every collected pair equals the sparse adjoint solve of the jump that
    # produced its direction, in the order the run formed the directions
    prob = desk_problem(n_steps=4)
    dec = prob.decomposition
    ops = [assembly.subdomain_operators(dec, side, nu=prob.nu, dt=prob.dt,
                                        advection=prob.a, supg_on=True)
           for side in (1, 2)]
    jumps = []
    descent = coupling.descent_timestep

    def spying_descent(*args, recorder=None, **kwargs):
        def spy(step, jump):
            jumps.append(jump.copy())
            recorder(step, jump)
        return descent(*args, recorder=None if recorder is None else spy, **kwargs)

    monkeypatch.setattr(coupling, "descent_timestep", spying_descent)
    cfg = coupling.CouplingConfig(delta=1e-14, tol=1e-12, supg_on=True)
    store = snapshots.collect_gdra(prob, cfg)
    assert store.meta["n_pairs"] == len(jumps) > 0
    for side in (1, 2):
        data = store[f"adjoint_{side}"].data
        assert data.shape == (dec.free_nodes(side).size, len(jumps))
        for col, jump in enumerate(jumps):
            want = fom.adjoint_solve(ops[side - 1], jump, side)
            assert (np.linalg.norm(data[:, col] - want)
                    <= 1e-12 * np.linalg.norm(want))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("delta", [1e-2, 1e-4])
def test_descent_stagnates_at_the_fixed_point_of_the_interface_maps(seed, delta):
    # with delta > 0 the objective has one minimizer, where the step
    # delta g + G (j0 + R g) vanishes: (delta I + G R) g = -G j0. A
    # tolerance the descent cannot reach runs it into that fixed point,
    # where the update stops moving g
    dec, ops_1, ops_2, u_1, u_2, _ = coupling.random_gradient_instance(
        8, seed=seed, nu=1e-3, dt=0.05, supg_on=True)
    responses = [op.trace_response(dec.trace_free(side))
                 for side, op in ((1, ops_1), (2, ops_2))]
    j0, R, G = interface_system(responses, (u_1, u_2))
    cfg = coupling.CouplingConfig(delta=delta, tol=1e-20)
    g, stats = coupling.descent_timestep(j0, R, G, np.zeros(dec.n_control), cfg,
                                         ops_1.M_g.toarray())
    want = np.linalg.solve(delta * np.eye(dec.n_control) + G @ R, -G @ j0)
    assert stats.stop_reason == "stagnated"
    assert np.linalg.norm(g - want) <= 1e-9 * np.linalg.norm(want)
