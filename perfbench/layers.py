"""Traced round and the per-layer metrics derived from its spans.

Totals (``.s``) and call counts cover one traced round of the workload's
pipeline. A layer the workload never calls reports 0 calls and 0 time.
"""

from __future__ import annotations

from pathlib import Path

import checks
import workloads
from obcoupling import snapshots
from tracing import SpanIndex, Tracer

# (metric, unit, better). Written out with the mapping to end-to-end
# metrics in README.md.
PER_LAYER = [
    ("geometry.decompose.s", "s", "lower"),
    ("assembly.subdomain_operators.s", "s", "lower"),
    ("linalg.factorize.calls", "count", "lower"),
    ("linalg.factorize.s", "s", "lower"),
    ("linalg.Factorization.solve.calls", "count", "lower"),
    ("linalg.Factorization.solve.us_per_call", "us", "lower"),
    ("fom.state_step.calls", "count", "lower"),
    ("fom.state_step.us_per_call", "us", "lower"),
    ("fom.state_step.self_us_per_call", "us", "lower"),
    ("fom.adjoint_solve.calls", "count", "lower"),
    ("fom.adjoint_solve.us_per_call", "us", "lower"),
    ("fom.monolithic_solve.us_per_step", "us", "lower"),
    ("rom.rom_state_step.calls", "count", "lower"),
    ("rom.rom_state_step.us_per_call", "us", "lower"),
    ("rom.rom_adjoint_from_jump.calls", "count", "lower"),
    ("rom.rom_adjoint_from_jump.us_per_call", "us", "lower"),
    ("rom.full_pod.calls", "count", "lower"),
    ("rom.full_pod.s", "s", "lower"),
    ("linalg.thin_svd.s", "s", "lower"),
    ("linalg.thin_svd.input_mb", "MB", "lower"),
    ("rom.reduce_operators.s", "s", "lower"),
    ("coupling.steps", "count", "lower"),
    ("coupling.us_per_step", "us", "lower"),
    ("coupling.trials", "count", "lower"),
    ("coupling.trials_per_step", "trials/step", "lower"),
    ("coupling.directions", "count", "lower"),
    ("coupling.rejected_trials", "count", "lower"),
    ("coupling.us_per_trial", "us", "lower"),
    ("coupling.accept_ratio", "ratio", "higher"),
    ("coupling.self_s", "s", "lower"),
    ("snapshots.split_monolithic_snapshots.s", "s", "lower"),
    ("snapshots.write_store.s", "s", "lower"),
    ("snapshots.read_store.s", "s", "lower"),
    ("snapshots.store_mb", "MB", "lower"),
    ("snapshots.collect_mgd.s", "s", "lower"),
    ("snapshots.collect_mgd.serial_s", "s", "lower"),
    ("snapshots.collect_gdra.s", "s", "lower"),
    ("snapshots.pairs", "count", "lower"),
    ("snapshots.us_per_pair", "us", "lower"),
    ("stage.collect_s", "s", "lower"),
    ("stage.pod_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def _per(total: float, count: float, scale: float = 1.0) -> float:
    return total / count * scale if count else 0.0


def traced_round(w: workloads.Workload, angle: float, workdir: Path, untraced,
                 trace_path: Path | None = None):
    """One traced round of the run's first input; returns it and its metrics.

    ``untraced`` are the rounds the same run made with tracing off. Their
    stage times give stage.collect_s and stage.pod_s, and their total on the
    first input is the baseline of the tracing overhead.
    """
    tracer = Tracer()
    out = workloads.Round()
    with tracer.active():
        arts = workloads.pipeline(w, angle, workdir, out, tracer=tracer)
    workloads.check(out, w, arts)
    spans = list(tracer.spans)

    serial_s = 0.0
    if w.collection == "mgd":
        # The same MGD1 collection on one worker, after the round's spans
        # are taken, so that its calls count in no other metric.
        with tracer.active():
            with tracer.span("stage.collect_serial"):
                serial = snapshots.collect_mgd(arts["problem"], arts["read_back"], 1,
                                               workloads.config(workloads.PAPER),
                                               workers=1)
        serial_s = SpanIndex(tracer.spans[len(spans):]).total["snapshots.collect_mgd"]
        same = all(checks.bitwise_equal(serial[k].data, arts["collection"][k].data)
                   for k in ("adjoint_1", "adjoint_2"))
        out.check("mgd1_bitwise_across_workers", same,
                  f"1 worker vs {w.workers} workers")
    if trace_path is not None:
        tracer.write(trace_path)

    idx = SpanIndex(spans)
    stage_s = workloads.stage_times(untraced, w.inputs)
    c = out.counts
    couple_s = out.times["couple"]
    trials = c["trials"]
    collect_s = idx.total["snapshots.collect_mgd"] + idx.total["snapshots.collect_gdra"]

    def calls(name):
        return idx.calls[name]

    def us_per_call(name):
        return _per(idx.total[name], idx.calls[name], 1e6)

    values = {
        "geometry.decompose.s": idx.total["geometry.decompose"],
        "assembly.subdomain_operators.s": idx.total["assembly.subdomain_operators"],
        "linalg.factorize.calls": calls("linalg.factorize"),
        "linalg.factorize.s": idx.total["linalg.factorize"],
        "linalg.Factorization.solve.calls": calls("linalg.Factorization.solve"),
        "linalg.Factorization.solve.us_per_call": us_per_call("linalg.Factorization.solve"),
        "fom.state_step.calls": calls("fom.state_step"),
        "fom.state_step.us_per_call": us_per_call("fom.state_step"),
        "fom.state_step.self_us_per_call": _per(
            idx.self_time["fom.state_step"], calls("fom.state_step"), 1e6),
        "fom.adjoint_solve.calls": calls("fom.adjoint_solve"),
        "fom.adjoint_solve.us_per_call": us_per_call("fom.adjoint_solve"),
        "fom.monolithic_solve.us_per_step": _per(
            idx.total["fom.monolithic_solve"], arts["problem"].n_steps, 1e6),
        "rom.rom_state_step.calls": calls("rom.rom_state_step"),
        "rom.rom_state_step.us_per_call": us_per_call("rom.rom_state_step"),
        "rom.rom_adjoint_from_jump.calls": calls("rom.rom_adjoint_from_jump"),
        "rom.rom_adjoint_from_jump.us_per_call": us_per_call("rom.rom_adjoint_from_jump"),
        "rom.full_pod.calls": calls("rom.full_pod"),
        "rom.full_pod.s": idx.total["rom.full_pod"],
        "linalg.thin_svd.s": idx.total["linalg.thin_svd"],
        "linalg.thin_svd.input_mb": c.get("pod_input_mb", 0.0),
        "rom.reduce_operators.s": idx.total["rom.reduce_operators"],
        "coupling.steps": c["steps"],
        "coupling.us_per_step": _per(couple_s, c["steps"], 1e6),
        "coupling.trials": trials,
        "coupling.trials_per_step": _per(trials, c["steps"]),
        "coupling.directions": c["directions"],
        "coupling.rejected_trials": c["rejected_trials"],
        "coupling.us_per_trial": _per(couple_s, trials, 1e6),
        "coupling.accept_ratio": _per(trials - c["rejected_trials"], trials),
        "coupling.self_s": idx.self_time_under("coupling.descent_timestep",
                                               "stage.couple"),
        "snapshots.split_monolithic_snapshots.s":
            idx.total["snapshots.split_monolithic_snapshots"],
        "snapshots.write_store.s": idx.total["snapshots.write_store"],
        "snapshots.read_store.s": idx.total["snapshots.read_store"],
        "snapshots.store_mb": c.get("store_mb", 0.0),
        "snapshots.collect_mgd.s": idx.total["snapshots.collect_mgd"],
        "snapshots.collect_mgd.serial_s": serial_s,
        "snapshots.collect_gdra.s": idx.total["snapshots.collect_gdra"],
        "snapshots.pairs": c["pairs"],
        "snapshots.us_per_pair": _per(collect_s, c["pairs"], 1e6),
        "stage.collect_s": stage_s.get("collect", 0.0),
        "stage.pod_s": stage_s.get("pod", 0.0),
        "trace.overhead_s": sum(out.times.values()) - workloads.stage_times(
            untraced[::w.inputs], 1)["total"],
    }
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit, _ in PER_LAYER}
    return out, metrics
