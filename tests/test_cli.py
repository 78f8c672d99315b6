import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obcoupling import bench, cli, snapshots

DESK = ["--level", "8", "--nu", "1e-3", "--dt", "5e-2", "--T", "0.3"]
LOOSE = ["--delta", "1e-12", "--tol", "1e-10"]
SHORT = ["couple", "--level", "8", "--T", "0.2"]


def test_monolithic_writes_store(tmp_path, capsys):
    out = tmp_path / "ref"
    assert cli.main(["monolithic", *DESK, "--out", str(out)]) == 0
    store = snapshots.read_store(out)
    assert "state_1" in store and "state_2" in store
    assert store["state_1"].data.shape[1] == 7  # 6 steps + initial
    assert "steps" in capsys.readouterr().out


def test_pod_command(tmp_path, capsys):
    ref = tmp_path / "ref"
    cli.main(["monolithic", *DESK, "--out", str(ref)])
    out = tmp_path / "basis"
    assert cli.main(["pod", "--store", str(ref), "--key", "state_1",
                     "--modes", "3", "--out", str(out)]) == 0
    psi, meta = snapshots.read_snapshot_file(out / "basis_state_1_3.snap")
    assert psi.shape[1] == 3 and meta["modes"] == 3
    np.testing.assert_allclose(psi.T @ psi, np.eye(3), atol=1e-12)
    energies = (out / "energy_state_1.csv").read_text().splitlines()
    assert energies[0] == "index,sigma,cumulative_energy"
    assert float(energies[-1].split(",")[2]) <= 1.0 + 1e-15

    # bad key and bad mode count are usage errors
    assert cli.main(["pod", "--store", str(ref), "--key", "nope",
                     "--modes", "3", "--out", str(out)]) == 2
    assert cli.main(["pod", "--store", str(ref), "--key", "state_1",
                     "--modes", "99", "--out", str(out)]) == 2


def test_couple_fom_reports_errors(tmp_path, capsys):
    report = tmp_path / "row.csv"
    code = cli.main(["couple", *DESK, *LOOSE, "--report", str(report)])
    assert code == 0
    captured = capsys.readouterr()
    assert "rel L2" in captured.out
    assert "warning" not in captured.err
    lines = report.read_text().splitlines()
    assert len(lines) == 2
    header = lines[0].split(",")
    row = dict(zip(header, lines[1].split(",")))
    assert float(row["rel_l2"]) < 1e-2
    assert row["all_converged"] == "True"


def test_couple_rom_state_and_adjoint(capsys):
    code = cli.main(["couple", *DESK, *LOOSE,
                     "--state", "rom:6", "--adjoint", "mgd1:5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "rel L2" in out and out.startswith("rom:6/mgd1:5")


def test_couple_strict_exit(capsys):
    # one iteration per step cannot reach the tolerance: every one of the 6
    # steps stops at max_iters, reported with or without --strict
    argv = ["couple", *DESK, "--delta", "1e-16", "--tol", "1e-14",
            "--max-iters", "1"]
    assert cli.main(argv) == 0
    assert "warning: timesteps stopped before reaching tol: " \
        "fom/full: 6 max_iters" in capsys.readouterr().err
    assert cli.main([*argv, "--strict"]) == 1
    assert "6 max_iters" in capsys.readouterr().err


def test_collect_adjoint_gdra(tmp_path):
    out = tmp_path / "adj"
    assert cli.main(["collect-adjoint", *DESK, "--method", "gdra",
                     "--gdra-delta", "1e-10", "--gdra-tol", "1e-8",
                     "--out", str(out)]) == 0
    store = snapshots.read_store(out)
    assert store.meta["method"] == "gdra"
    assert store["adjoint_1"].data.shape[1] == store.meta["n_pairs"]


def test_collect_adjoint_mgd(tmp_path):
    ref = tmp_path / "ref"
    cli.main(["monolithic", *DESK, "--out", str(ref)])
    out = tmp_path / "adj"
    # MGD reads delta of the descent flags, not tol
    assert cli.main(["collect-adjoint", *DESK, "--delta", "1e-12", "--method", "mgd",
                     "--m", "2", "--state-store", str(ref),
                     "--out", str(out)]) == 0
    store = snapshots.read_store(out)
    assert store.meta["method"] == "mgd" and store.meta["m"] == 2
    assert store["adjoint_2"].data.shape[1] == 2 * 6

    # mgd without a state store is a usage error
    assert cli.main(["collect-adjoint", *DESK, "--method", "mgd",
                     "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("flags, field", [
    (["--level", "10", "--nu", "1e-3", "--dt", "5e-2", "--T", "0.3"], "level"),
    (["--level", "8", "--nu", "0.5", "--dt", "5e-2", "--T", "0.3"], "nu"),
    ([*DESK, "--no-supg"], "supg_on"),
])
def test_collect_adjoint_mgd_rejects_mismatched_store(tmp_path, capsys, flags,
                                                       field):
    ref = tmp_path / "ref"
    cli.main(["monolithic", *DESK, "--out", str(ref)])
    capsys.readouterr()
    assert cli.main(["collect-adjoint", *flags, "--method", "mgd",
                     "--state-store", str(ref),
                     "--out", str(tmp_path / "adj")]) == 2
    assert f"{field}=" in capsys.readouterr().err
    assert not (tmp_path / "adj").exists()


@pytest.mark.parametrize("flags, drop, field", [
    (["--level", "8", "--nu", "0.5", "--dt", "5e-2", "--T", "0.3"], "meta.json",
     "level"),
    (DESK, "n_steps", "n_steps"),
])
def test_collect_adjoint_mgd_rejects_store_without_its_run(tmp_path, capsys,
                                                           flags, drop, field):
    # a store that does not record its run cannot be matched to this one: not
    # one without meta.json (here written with another nu), nor one missing a key
    ref = tmp_path / "ref"
    cli.main(["monolithic", *DESK, "--out", str(ref)])
    meta = ref / "meta.json"
    if drop == "meta.json":
        meta.unlink()
    else:
        recorded = json.loads(meta.read_text())
        del recorded[drop]
        meta.write_text(json.dumps(recorded))
    capsys.readouterr()
    assert cli.main(["collect-adjoint", *flags, "--method", "mgd",
                     "--state-store", str(ref),
                     "--out", str(tmp_path / "adj")]) == 2
    assert f"{field}=" in capsys.readouterr().err
    assert not (tmp_path / "adj").exists()


@pytest.mark.parametrize("argv", [
    ["monolithic", "--out", "x"],
    ["collect-adjoint", "--method", "gdra", "--out", "x"],
    ["couple"],
    ["report", "--out", "x"],
])
def test_flag_defaults_are_the_benchmark_spec(argv):
    # the experiment flags read their defaults from bench, not from literals
    parser, _ = cli.build_parser()
    assert cli._benchmark_spec(parser.parse_args(argv)) == bench.BenchmarkSpec()


def test_unwritable_output_exits_2_before_any_work(tmp_path, capsys, monkeypatch):
    # an output path that cannot be written fails at once: no solve runs and
    # nothing is written
    def no_work(*args, **kwargs):
        raise AssertionError("work ran before the output path was checked")

    monkeypatch.setattr(bench, "monolithic_solve", no_work)
    monkeypatch.setattr(snapshots, "collect_gdra", no_work)
    monkeypatch.setattr(bench.coupling, "run_transient", no_work)
    monkeypatch.setattr(snapshots, "read_store", no_work)
    taken = tmp_path / "file"
    taken.write_text("x")
    for argv in (["monolithic", *DESK, "--out", str(taken)],
                 ["monolithic", *DESK, "--out", str(taken / "ref")],
                 ["collect-adjoint", *DESK, "--method", "gdra", "--out", str(taken)],
                 ["collect-adjoint", *DESK, "--method", "mgd", "--state-store",
                  str(tmp_path), "--out", str(taken)],
                 ["report", *DESK, "--out", str(taken)],
                 ["couple", *DESK, "--report", str(taken / "r.csv")],
                 ["couple", *DESK, "--report", str(tmp_path)],
                 ["pod", "--store", str(tmp_path), "--modes", "1",
                  "--out", str(taken)]):
        assert cli.main(argv) == 2, argv
        assert capsys.readouterr().err.startswith(f"error: cannot write {argv[-1]}")
    # a directory the user may not write to (root may write anywhere)
    monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
    assert cli.main(["monolithic", *DESK, "--out", str(tmp_path / "new")]) == 2
    assert "is not writable" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["file"]
    assert taken.read_text() == "x"


def test_couple_report_creates_missing_parents(tmp_path):
    report = tmp_path / "runs" / "one" / "row.csv"
    assert cli.main(["couple", *DESK, *LOOSE, "--report", str(report)]) == 0
    assert report.read_text().startswith("label,")


def test_gradcheck_command(capsys):
    assert cli.main(["gradcheck", "--trials", "2", "--seed", "1"]) == 0
    assert "max relative mismatch" in capsys.readouterr().out
    # an impossible tolerance fails loudly
    assert cli.main(["gradcheck", "--trials", "1",
                     "--check-tol", "1e-30"]) == 1


def test_report_command(tmp_path, capsys):
    # the standard entries use 100/50 modes, which needs at least 100 free
    # nodes per subdomain (level 16 has 120) and at least 100 snapshots
    # (a full rotation at dt = 5e-2 is 126 steps)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"level": 16, "nu": 1e-3, "dt": 5e-2,
                               "delta": 1e-12, "tol": 1e-10}))
    outdir = tmp_path / "rep"
    assert cli.main(["report", "--config", str(cfg),
                     "--out", str(outdir)]) == 0
    text = (outdir / "report.csv").read_text()
    assert text.splitlines()[1].startswith("fom-fom")
    assert (outdir / "timings.csv").exists()
    assert (outdir / "singular_values.csv").exists()

    # steps cut short are counted on stderr, the exit code is unchanged
    capsys.readouterr()
    assert cli.main(["report", "--config", str(cfg), "--max-iters", "1",
                     "--out", str(tmp_path / "short")]) == 0
    err = capsys.readouterr().err
    assert err.count("warning:") == 1 and "fom-fom: " in err
    assert "rs-fa-50: 126 max_iters" in err


def test_report_is_byte_deterministic(tmp_path):
    # two runs of the same report write the same bytes: the descent reuses
    # its buffers, so aliasing or address-dependent arithmetic would show here
    for name in ("a", "b"):
        assert cli.main(["report", "--level", "16", "--T", "2.0",
                         "--out", str(tmp_path / name)]) == 0
    for csv in ("report.csv", "singular_values.csv"):
        assert (tmp_path / "a" / csv).read_bytes() == (tmp_path / "b" / csv).read_bytes()


def test_report_with_too_few_snapshots_exits_2(tmp_path, capsys):
    # a short run gives 29 state snapshots, fewer than the 100 modes of the
    # standard entries
    assert cli.main(["report", "--level", "16", "--T", "0.5",
                     "--out", str(tmp_path / "rep")]) == 2
    assert "cannot truncate" in capsys.readouterr().err


def test_report_rejects_gdra_settings(tmp_path):
    # no standard entry collects GDRA snapshots, so report has no GDRA knobs:
    # neither as flags nor as config keys
    with pytest.raises(SystemExit) as exc:
        cli.main(["report", *DESK, "--gdra-tol", "1e-8",
                  "--out", str(tmp_path / "rep")])
    assert exc.value.code == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gdra_delta": 1e-10}))
    with pytest.raises(SystemExit) as exc:
        cli.main(["report", "--config", str(cfg), "--out", str(tmp_path / "rep")])
    assert exc.value.code == 2
    assert not (tmp_path / "rep").exists()


def test_bad_arguments_exit_2(tmp_path):
    assert cli.main(["couple", "--state", "rom"]) == 2  # missing mode count
    assert cli.main(["couple", "--adjoint", "banana:3"]) == 2
    assert cli.main(["couple", "--adjoint", "mgd²:5"]) == 2  # isdigit accepts "²"
    assert cli.main(["couple", "--state", "rom:0"]) == 2
    # more modes than the 7 state snapshots of a six-step run
    assert cli.main(["couple", *DESK, "--state", "rom:50"]) == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["nonsense"])
    assert exc.value.code == 2
    # a flag the run never reads is rejected, from the command line or a
    # config file, before anything runs or is written
    assert cli.main(["monolithic", *DESK, "--out", str(tmp_path / "ref")]) == 0
    gdra = ["collect-adjoint", *DESK, "--method", "gdra", "--out", str(tmp_path / "g")]
    mgd = ["collect-adjoint", *DESK, "--method", "mgd", "--state-store",
           str(tmp_path / "ref"), "--out", str(tmp_path / "m")]
    mgd1 = ["couple", *DESK, "--adjoint", "mgd1:5"]
    for argv, config in [
            ([*gdra, "--m", "7", "--state-store", "/nonexistent"], None),
            ([*gdra, "--m", "7"], None),
            ([*gdra, "--state-store", str(tmp_path)], None),
            (gdra, {"m": 2}),
            ([*mgd, "--gdra-tol", "5"], None),
            (mgd, {"gdra_delta": 1e-10}),
            ([*mgd1, "--gdra-tol", "5"], None),
            ([*mgd1, "--gdra-delta", "1e-10"], None),
            (["couple", *DESK, "--gdra-tol", "1e-8"], None),
            (["couple", *DESK, "--adjoint", "state:3"], {"gdra_tol": 5}),
            # GDRA descends at --gdra-delta/--gdra-tol; MGD reads only delta,
            # alpha and SUPG of the descent flags
            ([*gdra, "--delta", "0.5", "--tol", "5"], None),
            ([*gdra, "--delta", "0.5"], None),
            ([*gdra, "--tol", "5"], None),
            (gdra, {"delta": 0.5}),
            ([*mgd, "--tol", "5", "--max-iters", "3", "--no-warm-start"], None),
            ([*mgd, "--tol", "5"], None),
            ([*mgd, "--max-iters", "3"], None),
            ([*mgd, "--no-warm-start"], None),
            (mgd, {"tol": 5}),
            (mgd, {"warm_start": False}),
    ]:
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            argv = [*argv, "--config", str(cfg)]
        assert cli.main(argv) == 2, argv
    assert not any(p.name in ("g", "m") for p in tmp_path.iterdir())


def test_flags_left_at_their_defaults_are_not_errors(tmp_path, capsys):
    # only a value the run would ignore is an error, not the flag itself
    assert cli.main(["couple", *DESK, *LOOSE, "--gdra-tol",
                     str(bench.BenchmarkSpec().gdra_tol)]) == 0
    cfg = bench.BenchmarkSpec().config
    assert cli.main(["collect-adjoint", *DESK, "--delta", str(cfg.delta), "--tol",
                     str(cfg.tol), "--method", "gdra", "--m", "1",
                     "--out", str(tmp_path / "g")]) == 0
    assert "gdra: " in capsys.readouterr().out
    assert cli.main(["monolithic", *DESK, "--out", str(tmp_path / "ref")]) == 0
    assert cli.main(["collect-adjoint", *DESK, "--tol", str(cfg.tol), "--max-iters",
                     str(cfg.max_iters), "--method", "mgd", "--state-store",
                     str(tmp_path / "ref"), "--out", str(tmp_path / "m")]) == 0
    assert "mgd: " in capsys.readouterr().out


def test_config_defaults_and_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"level": 8, "nu": 1e-3, "dt": 5e-2, "T": 0.3,
                               "delta": 1e-12, "tol": 1e-10, "trials": 3}))
    # keys unknown to the chosen subcommand are rejected
    with pytest.raises(SystemExit) as exc:
        cli.main(["couple", "--config", str(cfg)])
    assert exc.value.code == 2

    cfg2 = tmp_path / "cfg2.json"
    cfg2.write_text(json.dumps({"level": 8, "nu": 1e-3, "dt": 5e-2,
                                "T": 0.3}))
    assert cli.main(["monolithic", "--config", str(cfg2),
                     "--out", str(tmp_path / "a")]) == 0
    # an explicit flag beats the config value
    assert cli.main(["monolithic", "--config", str(cfg2), "--T", "0.15",
                     "--out", str(tmp_path / "b")]) == 0
    out = capsys.readouterr().out
    assert "6 steps" in out and "3 steps" in out


@pytest.mark.parametrize("values, key", [
    ({"level": 8.0}, "level"),      # an int flag takes a JSON int
    ({"level": True}, "level"),     # ... and not a bool
    ({"supg": 1}, "supg"),          # a switch takes a bool
    ({"nu": "1e-3"}, "nu"),         # a float flag takes a number
])
def test_config_rejects_mistyped_values(tmp_path, capsys, values, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    with pytest.raises(SystemExit) as exc:
        cli.main(["couple", "--config", str(cfg)])
    assert exc.value.code == 2
    assert repr(key) in capsys.readouterr().err


def test_config_placement_before_subcommand(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"level": 8, "nu": 1e-3, "dt": 5e-2, "T": 0.3,
                               "delta": 1e-12, "tol": 1e-10}))
    assert cli.main(["--config", str(cfg), "couple"]) == 0


@pytest.mark.parametrize("flag", ["--config", "--conf", "--co"])
@pytest.mark.parametrize("before", [True, False])
def test_config_flag_may_be_abbreviated(tmp_path, capsys, flag, before):
    # argparse's own rules find --config: abbreviated, and on either side of
    # the subcommand; an unknown key shows that the file was read
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"level": 8, "bogus": 1}))
    argv = [flag, str(cfg), "couple"] if before else ["couple", flag, str(cfg)]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "config keys not accepted by couple: ['bogus']" in capsys.readouterr().err
    cfg.write_text(json.dumps({"level": 8, "T": 0.15, "nu": 1e-3}))
    assert cli.main(["monolithic", f"{flag}={cfg}", "--out", str(tmp_path / "d")]) == 0
    assert "2 steps, 49 free DOFs" in capsys.readouterr().out


@pytest.mark.parametrize("second", [["--config"], ["--conf"], ["couple", "--co"]])
def test_config_given_twice_is_rejected(tmp_path, capsys, second):
    # a second --config would drop the first file unread; nothing runs or
    # is written
    bad, good = tmp_path / "bad.json", tmp_path / "c.json"
    bad.write_text(json.dumps({"bogus": 1}))
    good.write_text(json.dumps({"level": 8, "T": 0.15, "nu": 1e-3}))
    head = ["monolithic"] if second[0] != "couple" else []
    argv = [*head, "--config", str(bad), *second, str(good)]
    if head:
        argv += ["--out", str(tmp_path / "d2")]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "--config given 2 times" in capsys.readouterr().err
    assert not (tmp_path / "d2").exists()


def test_config_key_config_is_rejected(tmp_path, capsys):
    # a config file names no further config file: no subcommand has a flag
    # "config", so the key is unknown like any other
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"config": "other.json"}))
    with pytest.raises(SystemExit) as exc:
        cli.main(["couple", "--config", str(cfg)])
    assert exc.value.code == 2
    assert "config keys not accepted by couple: ['config']" in capsys.readouterr().err


# couple's scenario and descent flags, by dest, with valid values
POSITIVE = st.floats(min_value=1e-300, max_value=1e300)
COUPLE_VALUES = st.fixed_dictionaries({}, optional={
    "level": st.integers(min_value=2, max_value=512), "nu": POSITIVE, "dt": POSITIVE,
    "T": POSITIVE, "supg": st.booleans(),
    "delta": st.floats(min_value=0.0, max_value=1e300), "tol": POSITIVE,
    "alpha": POSITIVE, "max_iters": st.integers(min_value=1, max_value=10**6),
    "warm_start": st.booleans()})


def _as_flags(values: dict) -> list[str]:
    flags = []
    for dest, value in values.items():
        if dest == "supg":
            flags.append("--supg" if value else "--no-supg")
        elif dest == "warm_start":
            flags += [] if value else ["--no-warm-start"]
        else:
            flags += [f"--{dest.replace('_', '-')}", repr(value)]
    return flags


def _couple_spec(argv: list[str]) -> bench.BenchmarkSpec:
    # the parse of cli.main, without the run
    parser, table = cli.build_parser()
    args = parser.parse_args(cli._apply_config(argv, parser, table))
    return cli._benchmark_spec(args)


@settings(max_examples=60, deadline=None)
@given(in_file=COUPLE_VALUES, on_line=COUPLE_VALUES,
       flag=st.sampled_from(["--config", "--conf", "--co"]), before=st.booleans())
def test_config_and_flags_give_the_same_spec(tmp_path_factory, in_file, on_line,
                                             flag, before):
    # a config key sets what its flag sets, from either side of the
    # subcommand, and a flag on the command line beats the key
    if on_line.get("warm_start"):  # no flag sets it to true, only --no-warm-start
        del on_line["warm_start"]
    cfg = tmp_path_factory.mktemp("cfg") / "cfg.json"
    cfg.write_text(json.dumps(in_file))
    config = [flag, str(cfg)]
    argv = ([*config, "couple", *_as_flags(on_line)] if before
            else ["couple", *_as_flags(on_line), *config])
    assert _couple_spec(argv) == _couple_spec(["couple",
                                               *_as_flags({**in_file, **on_line})])


@pytest.mark.parametrize("argv, message", [
    (["monolithic", "--level", "5", "--out", "{tmp}/ref"], "level must be even"),
    (["collect-adjoint", "--level", "5", "--method", "gdra",
      "--out", "{tmp}/adj"], "level must be even"),
    (["gradcheck", "--level", "5"], "not an interior grid line"),
    (["couple", "--level", "8", "--dt", "0"], "dt=0.0 must be positive"),
    (["pod", "--store", "{tmp}/missing", "--modes", "3", "--out", "{tmp}/b"],
     "is not a snapshot store directory"),
    # non-finite values pass every sign check and must be rejected on their own
    ([*SHORT, "--delta", "nan"], "delta=nan must be finite"),
    ([*SHORT, "--tol", "nan"], "tol=nan must be finite"),
    ([*SHORT, "--alpha", "inf"], "alpha0=inf must be finite"),
    ([*SHORT, "--nu", "nan"], "need finite nu"),
    ([*SHORT, "--nu", "inf"], "need finite nu"),
    (["couple", "--level", "8", "--T", "nan"], "T=nan must be finite"),
    # a gradient check with no trials or a NaN step would pass vacuously
    (["gradcheck", "--trials", "0"], "--trials must be at least 1"),
    (["gradcheck", "--trials", "-1"], "--trials must be at least 1"),
    (["gradcheck", "--eps", "nan"], "eps=nan must be finite and positive"),
    (["gradcheck", "--eps", "inf"], "eps=inf must be finite and positive"),
    (["gradcheck", "--eps", "0"], "eps=0.0 must be finite and positive"),
    (["gradcheck", "--delta", "nan"], "delta=nan must be finite and nonnegative"),
    # the SUPG tau squares 2/dt, which overflows though dt and T are finite
    (["couple", "--level", "8", "--dt", "1e-300", "--T", "1e-299"],
     "operator coefficients overflow"),
    # nu K overflows though nu is finite; no RuntimeWarning may escape either
    ([*SHORT, "--nu", "1e308"], "state matrix overflows"),
    (["gradcheck", "--nu", "1e308"], "state matrix overflows"),
    # a NaN or negative tolerance would fail or pass every trial vacuously
    (["gradcheck", "--check-tol", "nan"], "--check-tol must be finite and nonnegative"),
    (["gradcheck", "--check-tol", "-1"], "--check-tol must be finite and nonnegative"),
    # no collection has fewer than one MGD pair per step: --m is named before
    # the state store is read
    (["collect-adjoint", "--method", "mgd", "--m", "0", "--state-store", "{tmp}",
      "--out", "{tmp}/adj"], "--m must be at least 1, got 0"),
    (["collect-adjoint", "--method", "mgd", "--m", "-1", "--state-store", "{tmp}",
      "--out", "{tmp}/adj"], "--m must be at least 1, got -1"),
])
def test_library_value_errors_exit_2(tmp_path, capsys, argv, message):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("store_meta, file_meta, message", [
    ("[1, 2]", {}, "meta.json: not a JSON object"),
    ("{}", {"subdomain": "one"}, "subdomain 'one' is not an integer"),
])
def test_pod_rejects_malformed_store_metadata(tmp_path, capsys, store_meta,
                                              file_meta, message):
    store = tmp_path / "store"
    store.mkdir()
    snapshots.write_snapshot_file(store / "state_1.snap", np.ones((4, 3)), file_meta)
    (store / "meta.json").write_text(store_meta)
    assert cli.main(["pod", "--store", str(store), "--modes", "1",
                     "--out", str(tmp_path / "b")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_pod_rejects_non_finite_snapshots(tmp_path, capsys):
    store = tmp_path / "store"
    store.mkdir()
    mat = np.ones((4, 3))
    mat[2, 1] = np.nan
    snapshots.write_snapshot_file(store / "adjoint_1.snap", mat,
                                  {"kind": "adjoint", "subdomain": 1})
    assert cli.main(["pod", "--store", str(store), "--key", "adjoint_1",
                     "--modes", "1", "--out", str(tmp_path / "b")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "NaN or infinite" in err


def test_module_entry_point_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-m", "obcoupling", "--help"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "collect-adjoint" in done.stdout


@pytest.mark.parametrize("argv, values, key", [
    (["monolithic", *DESK], {"out": "x"}, "out"),
    (["monolithic", *DESK, "--out", "{tmp}/ref"], {"out": "x"}, "out"),
    (["collect-adjoint", *DESK, "--out", "{tmp}/adj"], {"method": "gdra"},
     "method"),
])
def test_config_rejects_required_flags(tmp_path, capsys, argv, values, key):
    # a required flag must be on the command line, so its config key could
    # never take effect
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--config", str(cfg)])
    assert exc.value.code == 2
    assert f"config key {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "ref").exists()


@pytest.mark.parametrize("flag, model", [
    ("--state", "rom:x"), ("--adjoint", "mgd1:abc"), ("--adjoint", "state:-2"),
    ("--state", "rom:²"), ("--adjoint", "mgd1:²"), ("--adjoint", "state:١")])
def test_non_numeric_mode_count_exits_2(capsys, flag, model):
    assert cli.main(["couple", flag, model]) == 2
    assert "mode count must be a positive integer" in capsys.readouterr().err


def test_internal_value_error_keeps_its_traceback(monkeypatch):
    # only InputError means bad arguments; any other ValueError is a fault
    # and must not be reported as exit 2
    def broken(args):
        raise ValueError("matmul: dimension mismatch")
    monkeypatch.setattr(cli, "cmd_gradcheck", broken)
    with pytest.raises(ValueError, match="dimension mismatch"):
        cli.main(["gradcheck"])
