"""Command line front end.

Subcommands cover the full workflow on the rotating benchmark: solve the
monolithic reference and store state snapshots, collect adjoint snapshots,
inspect POD spectra, run coupled solves with any state/adjoint model
combination, produce the standard report tables, and verify the adjoint
gradient against finite differences.

Every optional flag can instead come from a JSON config file given with
--config, before or after the subcommand and abbreviated like any flag;
explicit flags override the file, required flags (--out, --method) must be
given on the command line, and a key the subcommand has no flag for, such
as "config", is rejected. Exit codes: 0 success, 1 a run or check failed
(with --strict for non-converged coupled solves), 2 bad arguments or input
the package rejects with an InputError; any other error ends with its
traceback.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from obcoupling import bench, coupling, rom, snapshots
from obcoupling.errors import InputError

DEFAULTS = bench.BenchmarkSpec()  # every experiment flag's default
# defaults of the flags that only some runs of a subcommand read
ONLY_SOME_RUNS = {"m": 1, "state_store": None, "gdra_delta": DEFAULTS.gdra_delta,
                  "gdra_tol": DEFAULTS.gdra_tol, "delta": DEFAULTS.config.delta,
                  "tol": DEFAULTS.config.tol, "max_iters": DEFAULTS.config.max_iters,
                  "warm_start": DEFAULTS.config.warm_start}


class _Options(dict):
    """One subcommand's parser and its actions by dest, as ``add_argument``
    returned them; --config checks its keys against these."""

    def __init__(self, parser: argparse.ArgumentParser):
        super().__init__()
        self.parser = parser

    def add(self, *flags, group=None, **kwargs):
        action = (group or self.parser).add_argument(*flags, **kwargs)
        self[action.dest] = action


def _add_scenario_args(opts: _Options):
    opts.add("--level", type=int, default=DEFAULTS.level,
             help="grid refinement level (cells per side)")
    opts.add("--nu", type=float, default=DEFAULTS.nu, help="diffusion")
    opts.add("--dt", type=float, default=None,
             help="timestep (default: level-scaled benchmark value)")
    opts.add("--T", type=float, default=None,
             help="final time (default: one revolution)")
    supg = opts.parser.add_mutually_exclusive_group()
    opts.add("--supg", group=supg, dest="supg", action="store_true",
             default=DEFAULTS.config.supg_on,
             help="streamline upwind stabilization (default on)")
    opts.add("--no-supg", group=supg, dest="supg", action="store_false")


def _add_descent_args(opts: _Options):
    cfg = DEFAULTS.config
    opts.add("--delta", type=float, default=cfg.delta,
             help="control regularization weight")
    opts.add("--tol", type=float, default=cfg.tol,
             help="objective stopping tolerance")
    opts.add("--alpha", type=float, default=cfg.alpha0,
             help="initial gradient step")
    opts.add("--max-iters", type=int, default=cfg.max_iters,
             help="per-timestep iteration cap")
    opts.add("--no-warm-start", dest="warm_start", action="store_false",
             default=cfg.warm_start, help="start each timestep from a zero control")


def _add_gdra_args(opts: _Options, reader: str):
    opts.add("--gdra-delta", type=float, default=ONLY_SOME_RUNS["gdra_delta"],
             help=f"control regularization of the GDRA collection ({reader} only)")
    opts.add("--gdra-tol", type=float, default=ONLY_SOME_RUNS["gdra_tol"],
             help=f"descent tolerance of the GDRA collection ({reader} only)")


def _benchmark_spec(args) -> bench.BenchmarkSpec:
    kwargs = dict(level=args.level, nu=args.nu, dt=args.dt)
    if args.T is not None:
        kwargs["T"] = args.T
    if hasattr(args, "gdra_delta"):
        kwargs.update(gdra_delta=args.gdra_delta, gdra_tol=args.gdra_tol)
    config = dict(supg_on=args.supg)
    if hasattr(args, "delta"):
        config.update(delta=args.delta, tol=args.tol, alpha0=args.alpha,
                      max_iters=args.max_iters, warm_start=args.warm_start)
    return bench.BenchmarkSpec(config=coupling.CouplingConfig(**config), **kwargs)


def _reject_unread(args, dests: tuple[str, ...], reader: str) -> None:
    """InputError for a flag among ``dests`` that is set, on the command line
    or in a config file, to other than its default: only ``reader`` reads it."""
    for dest in dests:
        if getattr(args, dest) != ONLY_SOME_RUNS[dest]:
            flag = "no-warm-start" if dest == "warm_start" else dest.replace("_", "-")
            raise InputError(f"--{flag} is read only by {reader}")


def _check_writable(path: str, *, is_dir: bool) -> None:
    """InputError unless ``path`` can be written as a directory (``is_dir``)
    or a file, missing parents created; writes nothing, so a command checks
    its outputs before any work runs."""
    target = nearest = Path(path)
    while not nearest.exists():
        nearest = nearest.parent
    if nearest == target and target.is_dir() != is_dir:
        problem = "it is a file" if is_dir else "it is a directory"
    elif not nearest.is_dir() and nearest != target:
        problem = f"{nearest} is not a directory"
    elif not os.access(nearest, os.W_OK):
        problem = f"{nearest} is not writable"
    else:
        return
    raise InputError(f"cannot write {path}: {problem}")


def _fail(message: str, code: int = 2) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _parse_modes(text: str, what: str) -> int:
    if not (text.isascii() and text.isdecimal()) or int(text) < 1:
        raise InputError(f"{what} mode count must be a positive integer, got {text!r}")
    return int(text)


def _parse_state_model(text: str):
    if text == "fom":
        return None
    if text.startswith("rom:"):
        return _parse_modes(text.split(":", 1)[1], "state")
    raise InputError(f"bad state model {text!r}, expected fom or rom:<modes>")


def _parse_adjoint_model(text: str):
    if text == "full":
        return None, None
    source, _, modes_txt = text.rpartition(":")
    if not source:
        raise InputError(f"bad adjoint model {text!r}, expected full or <source>:<modes>")
    return source, _parse_modes(modes_txt, "adjoint")


def _warn_early_stops(rows) -> None:
    """One stderr line counting the timesteps that stopped short of tol."""
    early = [f"{row.label}: {n} {why}" for row in rows
             for why, n in sorted(row.stop_counts.items()) if why != "tol"]
    if early:
        print(f"warning: timesteps stopped before reaching tol: {'; '.join(early)}",
              file=sys.stderr)


def cmd_monolithic(args) -> int:
    _check_writable(args.out, is_dir=True)
    ctx = bench.ExperimentContext(_benchmark_spec(args))
    snapshots.write_store(ctx.state_store(), args.out)
    print(f"monolithic: {ctx.problem.n_steps} steps, {ctx.mono_final.size} free "
          f"DOFs, |u(T)|_2 = {np.linalg.norm(ctx.mono_final):.6e}")
    print(f"state snapshots written to {args.out}")
    return 0


def cmd_collect_adjoint(args) -> int:
    if args.m < 1:
        raise InputError(f"--m must be at least 1, got {args.m}")
    if args.method == "gdra":
        _reject_unread(args, ("m", "state_store"), "--method mgd")
        _reject_unread(args, ("delta", "tol"), "couple and report; GDRA reads "
                       "--gdra-delta and --gdra-tol")
    else:
        _reject_unread(args, ("gdra_delta", "gdra_tol"), "--method gdra")
        _reject_unread(args, ("tol", "max_iters", "warm_start"),
                       "--method gdra, couple and report")
        if args.state_store is None:
            return _fail("--method mgd requires --state-store")
    _check_writable(args.out, is_dir=True)
    ctx = bench.ExperimentContext(_benchmark_spec(args))
    if args.method == "mgd":
        ctx.load_state_store(args.state_store)
    store = ctx.adjoint_store("gdra" if args.method == "gdra" else f"mgd{args.m}")
    snapshots.write_store(store, args.out)
    print(f"{args.method}: {store.meta['n_pairs']} adjoint pairs written to {args.out}")
    return 0


def cmd_pod(args) -> int:
    _check_writable(args.out, is_dir=True)
    store = snapshots.read_store(args.store)
    if args.key not in store:
        return _fail(f"store has no matrix {args.key!r}; "
                     f"available: {sorted(store.keys())}")
    basis = rom.full_pod(store[args.key]).truncate(args.modes)
    energy = rom.snapshot_energy(basis.sigma)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    snapshots.write_snapshot_file(
        out / f"basis_{args.key}_{args.modes}.snap", basis.Psi,
        {"kind": "basis", "source": args.key, "modes": args.modes})
    with open(out / f"energy_{args.key}.csv", "w") as fh:
        fh.write("index,sigma,cumulative_energy\n")
        for idx, (sig, en) in enumerate(zip(basis.sigma, energy)):
            fh.write(f"{idx},{sig:.17g},{en:.17g}\n")
    captured = energy[args.modes - 1]
    print(f"pod: {args.modes} modes of {args.key} capture "
          f"{captured:.12f} of snapshot energy")
    return 0


def cmd_couple(args) -> int:
    state_modes = _parse_state_model(args.state)
    adjoint_source, adjoint_modes = _parse_adjoint_model(args.adjoint)
    if adjoint_source != "gdra":
        _reject_unread(args, ("gdra_delta", "gdra_tol"), "a gdra:<modes> adjoint")
    if args.report is not None:
        _check_writable(args.report, is_dir=False)
    spec = _benchmark_spec(args)
    entry = bench.ExperimentEntry(
        label=f"{args.state}/{args.adjoint}", state_modes=state_modes,
        adjoint_modes=adjoint_modes,
        adjoint_source=adjoint_source or "mgd1")
    row, _ = bench.ExperimentContext(spec).run_entry(entry)

    print(f"{row.label}: rel L2 {row.rel_l2:.6e}, rel H1 {row.rel_h1:.6e}, "
          f"avg iterations {row.avg_iterations:.2f}, "
          f"converged {row.all_converged}, wall {row.wall_seconds:.2f}s")
    _warn_early_stops([row])
    if args.report is not None:
        Path(args.report).parent.mkdir(parents=True, exist_ok=True)
        bench.write_report_csv([row], args.report)
        print(f"report written to {args.report}")
    if args.strict and not row.all_converged:
        print("error: coupled solve did not converge at every timestep",
              file=sys.stderr)
        return 1
    return 0


def cmd_report(args) -> int:
    _check_writable(args.out, is_dir=True)
    spec = _benchmark_spec(args)
    rows = bench.run_experiment(spec, bench.standard_entries(), args.out)
    for row in rows:
        print(f"{row.label}: rel L2 {row.rel_l2:.6e}, "
              f"avg iterations {row.avg_iterations:.2f}")
    print(f"report files written to {args.out}")
    _warn_early_stops(rows)
    if args.strict and not all(row.all_converged for row in rows):
        return 1
    return 0


def cmd_gradcheck(args) -> int:
    if args.trials < 1:
        raise InputError(f"--trials must be at least 1, got {args.trials}")
    if not (math.isfinite(args.check_tol) and args.check_tol >= 0.0):
        raise InputError(f"--check-tol must be finite and nonnegative, "
                         f"got {args.check_tol}")
    worst = 0.0
    for trial in range(args.trials):
        dec, ops_1, ops_2, u_prev_1, u_prev_2, g = coupling.random_gradient_instance(
            args.level, seed=args.seed + trial, nu=args.nu, dt=args.dt)
        err = coupling.fd_gradient_check(
            ops_1, ops_2, dec.trace_free(1), dec.trace_free(2), ops_1.M_g,
            u_prev_1, u_prev_2, g, args.delta, eps=args.eps,
            seed=args.seed + trial)
        worst = max(worst, err)
    ok = worst <= args.check_tol
    print(f"gradcheck: max relative mismatch {worst:.3e} over {args.trials} "
          f"trials ({'pass' if ok else 'FAIL'}, tolerance {args.check_tol:.1e})")
    return 0 if ok else 1


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, _Options]]:
    parser = argparse.ArgumentParser(
        prog="obcoupling",
        description="Optimization-based coupling of advection-diffusion "
                    "subdomain models")
    parser.add_argument("--config", type=str, default=None,
                        help="JSON file of default values for the subcommand")
    subs = parser.add_subparsers(dest="command", required=True)
    table: dict[str, _Options] = {}

    def subcommand(name, func, **kwargs) -> _Options:
        opts = table[name] = _Options(subs.add_parser(name, **kwargs))
        opts.parser.set_defaults(func=func)
        return opts

    opts = subcommand("monolithic", cmd_monolithic,
                      help="solve the reference and store state snapshots")
    _add_scenario_args(opts)
    opts.add("--out", required=True, help="output store directory")

    opts = subcommand("collect-adjoint", cmd_collect_adjoint,
                      help="collect adjoint snapshots")
    _add_scenario_args(opts)
    _add_descent_args(opts)
    opts.add("--method", choices=("gdra", "mgd"), required=True)
    opts.add("--m", type=int, default=ONLY_SOME_RUNS["m"],
             help="descent iterations per timestep (mgd)")
    opts.add("--state-store", default=ONLY_SOME_RUNS["state_store"],
             help="state snapshot store directory (mgd)")
    _add_gdra_args(opts, "--method gdra")
    opts.add("--out", required=True)

    opts = subcommand("pod", cmd_pod,
                      help="build a POD basis from stored snapshots")
    opts.add("--store", required=True, help="snapshot store directory")
    opts.add("--key", default="state_1",
             help="which matrix to decompose (default state_1)")
    opts.add("--modes", type=int, required=True)
    opts.add("--out", required=True, help="output directory")

    opts = subcommand("couple", cmd_couple,
                      help="run one coupled solve and report errors against "
                           "the monolithic reference")
    _add_scenario_args(opts)
    _add_descent_args(opts)
    opts.add("--state", default="fom",
             help="fom or rom:<modes> (applies to both subdomains)")
    opts.add("--adjoint", default="full",
             help="full, state:<modes>, gdra:<modes> or mgd<m>:<modes>")
    _add_gdra_args(opts, "a gdra:<modes> adjoint")
    opts.add("--report", default=None, help="write a one-row CSV here")
    opts.add("--strict", action="store_true",
             help="exit 1 if any timestep fails to converge")

    opts = subcommand("report", cmd_report, help="run the standard comparison set")
    _add_scenario_args(opts)
    _add_descent_args(opts)
    opts.add("--out", required=True, help="output directory")
    opts.add("--strict", action="store_true")

    opts = subcommand("gradcheck", cmd_gradcheck,
                      help="verify the adjoint gradient against central differences")
    opts.add("--level", type=int, default=8)
    opts.add("--nu", type=float, default=1e-2)
    opts.add("--dt", type=float, default=5e-2)
    opts.add("--delta", type=float, default=1e-3)
    opts.add("--eps", type=float, default=1e-5)
    opts.add("--trials", type=int, default=5)
    opts.add("--seed", type=int, default=0)
    opts.add("--check-tol", type=float, default=1e-5)

    return parser, table


def _apply_config(argv: list[str], parser, table) -> list[str]:
    """Merge JSON config values as subcommand defaults (flags still win) and
    return argv without its --config, which may stand on either side of the
    subcommand and be abbreviated like any flag. A second --config is an
    error: one file holds a run's settings."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.error = parser.error  # report a bad --config with the full usage
    pre.add_argument("--config", action="append")
    found, rest = pre.parse_known_args(argv)
    if found.config is None:
        return rest
    if len(found.config) > 1:
        parser.error(f"--config given {len(found.config)} times; pass one file")
    path = found.config[0]
    try:
        values = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read config {path}: {exc}")
    if not isinstance(values, dict):
        parser.error(f"config {path} must hold a JSON object")

    command = rest[0] if rest else None
    if command not in table:
        parser.error("config requires a subcommand")
    known = table[command]
    unknown = set(values) - set(known)
    if unknown:
        parser.error(f"config keys not accepted by {command}: {sorted(unknown)}")
    for key, value in values.items():
        if known[key].required:
            parser.error(f"config key {key!r} of {command} is a required flag; "
                         f"pass {known[key].option_strings[0]} on the command line")
        want = _config_type_mismatch(known[key], value)
        if want is not None:
            parser.error(f"config key {key!r} of {command} expects {want}, "
                         f"got {json.dumps(value)}")
    known.parser.set_defaults(**values)
    return rest


def _config_type_mismatch(action, value) -> str | None:
    """What a flag expects if a JSON config value does not fit it, else None."""
    if value is None:
        return None if action.default is None else "a value, not null"
    is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if action.nargs == 0:
        ok, want = isinstance(value, bool), "true or false"
    elif action.choices is not None:
        ok, want = value in action.choices, f"one of {list(action.choices)}"
    elif action.type is int:
        ok, want = is_number and isinstance(value, int), "an integer"
    elif action.type is float:
        ok, want = is_number, "a number"
    else:
        ok, want = isinstance(value, str), "a string"
    return None if ok else want


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser, table = build_parser()
    args = parser.parse_args(_apply_config(list(argv), parser, table))
    try:
        return args.func(args)
    except InputError as exc:  # bad input found by the library, e.g. level 5
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
