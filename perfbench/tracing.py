"""Spans around calls into the package, recorded from outside it.

A Tracer replaces each traced public function at the name its caller looks
it up by (``coupling.state_step`` is the name the descent loop calls,
``fom.state_step`` the one ``fom.modified_state_step`` calls) with a wrapper
that records a span: name, parent span, start and end. Parents are tracked
per thread, so spans opened in a worker thread of a pool are roots of that
thread. Spans stay in memory; ``write`` stores them when the run ends.
"""

from __future__ import annotations

import gzip
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

from obcoupling import assembly, coupling, fom, geometry, linalg, rom, snapshots

# (owner, attribute, span name). One span name may be installed at several
# lookup sites; each wrapper calls the original function directly.
TARGETS = [
    (geometry, "build_mesh", "geometry.build_mesh"),
    (geometry, "decompose", "geometry.decompose"),
    (assembly, "subdomain_operators", "assembly.subdomain_operators"),
    (assembly, "assemble_operators", "assembly.assemble_operators"),
    (linalg, "factorize", "linalg.factorize"),
    (linalg.Factorization, "solve", "linalg.Factorization.solve"),
    (linalg, "thin_svd", "linalg.thin_svd"),
    (fom, "monolithic_solve", "fom.monolithic_solve"),
    (fom, "state_step", "fom.state_step"),
    (coupling, "state_step", "fom.state_step"),
    (coupling, "adjoint_solve", "fom.adjoint_solve"),
    (snapshots, "adjoint_solve", "fom.adjoint_solve"),
    (snapshots, "modified_state_step", "fom.modified_state_step"),
    (rom, "full_pod", "rom.full_pod"),
    (rom, "reduce_operators", "rom.reduce_operators"),
    (rom, "rom_state_step", "rom.rom_state_step"),
    (rom, "rom_adjoint_from_jump", "rom.rom_adjoint_from_jump"),
    (coupling, "run_transient", "coupling.run_transient"),
    (coupling, "descent_timestep", "coupling.descent_timestep"),
    (snapshots, "split_monolithic_snapshots", "snapshots.split_monolithic_snapshots"),
    (snapshots, "write_store", "snapshots.write_store"),
    (snapshots, "read_store", "snapshots.read_store"),
    (snapshots, "collect_mgd", "snapshots.collect_mgd"),
    (snapshots, "collect_gdra", "snapshots.collect_gdra"),
]


class Tracer:
    """In-memory span recorder; install() patches, uninstall() restores."""

    def __init__(self):
        # (span id, parent id or -1, name, start, end, thread id)
        self.spans: list[tuple[int, int, str, float, float, int]] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, name, start, end,
                               threading.get_ident()))

    def _wrap(self, func, name: str):
        span = self.span

        def traced(*args, **kwargs):
            with span(name):
                return func(*args, **kwargs)

        traced.__wrapped__ = func
        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def active(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def write(self, path):
        """Store the spans as gzipped JSON, one row per span."""
        rows = [[i, p, n, round(s, 9), round(e, 9), t]
                for i, p, n, s, e, t in sorted(self.spans)]
        with gzip.open(path, "wt") as fh:
            json.dump({"columns": ["id", "parent", "name", "start", "end",
                                   "thread"], "spans": rows}, fh)


class SpanIndex:
    """Aggregates of a span list: calls, total and self time per name."""

    def __init__(self, spans):
        self.by_id = {s[0]: s for s in spans}
        child_time = defaultdict(float)
        for span_id, parent, _, start, end, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        for span_id, _, name, start, end, _ in spans:
            self.calls[name] += 1
            self.total[name] += end - start
            self.self_time[name] += end - start - child_time[span_id]
        self._child_time = child_time
        self._spans = spans

    def under(self, name: str, ancestor: str):
        """Spans called name that have a span called ancestor above them."""
        for span in self._spans:
            if span[2] != name:
                continue
            parent = span[1]
            while parent >= 0:
                up = self.by_id[parent]
                if up[2] == ancestor:
                    yield span
                    break
                parent = up[1]

    def self_time_under(self, name: str, ancestor: str) -> float:
        return sum(end - start - self._child_time[span_id]
                   for span_id, _, _, start, end, _ in self.under(name, ancestor))
