"""Out-of-library tracing: wrap serrin's public functions by rebinding names.

A wrapped function is replaced in every ``serrin`` module that holds a
reference to it, so calls made between modules (``verify`` calling
``solver.gradient_field``, ``solver.neumann_trace`` calling its own
module's ``gradient_field``) go through the wrapper too.  Spans are kept in
compact in-memory arrays (name, start, end, parent) and written out once,
when the run ends.  Functions too cheap to time without distorting the
caller are counted instead, keyed by the span that encloses the call.
"""

from __future__ import annotations

import os
import sys
import time
from array import array
from collections import Counter

import numpy as np

# (module, function, mode): "span" records a timed span, "count" only counts.
TARGETS = [
    ("serrin.models", "fit_model", "span"),
    ("serrin.models", "classify_case", "span"),
    ("serrin.models", "compatibility", "count"),
    ("serrin.models", "pseudo_radius", "span"),
    ("serrin.geometry", "build_grid", "span"),
    ("serrin.geometry", "boundary_length", "span"),
    ("serrin.solver", "solve_dirichlet", "span"),
    ("serrin.solver", "gradient_field", "span"),
    ("serrin.solver", "neumann_trace", "span"),
    ("serrin.solver", "write_field", "span"),
    ("serrin.solver", "read_field", "span"),
    ("serrin.verify", "full_report", "span"),
    ("serrin.verify", "gradient_bound_margin", "span"),
    ("serrin.verify", "divergence_identity_residual", "span"),
    ("serrin.verify", "refined_pohozaev_check", "span"),
    ("serrin.verify", "degenerate_expansion_check", "span"),
    ("serrin.verify", "boundary_distance", "span"),
    ("serrin.verify", "pohozaev_residual", "span"),
    ("serrin.verify", "area_bound_check", "span"),
    ("serrin.cli", "cmd_fit", "span"),
    ("serrin.cli", "cmd_solve", "span"),
    ("serrin.cli", "cmd_verify", "span"),
    ("serrin.cli", "cmd_mms", "span"),
]

VERIFY_CHECKS = [
    "gradient_bound_margin", "divergence_identity_residual",
    "refined_pohozaev_check", "degenerate_expansion_check",
    "boundary_distance", "pohozaev_residual", "area_bound_check",
]

OP = "bench.op"
OP_ID = 0  # the root span of one benchmark operation


class Tracer:
    """Span and count recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.names = [OP]
        self._ids = {OP: 0}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack = []
        self.counts = Counter()
        self.solves = []  # (unknowns, iterations, residual) per solve
        self.field_bytes = []
        self._patches = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id):
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def span(self, fn, name):
        nid = self._id(name)
        observe = {"solve_dirichlet": self._observe_solve,
                   "write_field": self._observe_write}.get(fn.__name__)

        def wrapper(*args, **kwargs):
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def counter(self, fn, name):
        def wrapper(*args, **kwargs):
            top = self.names[self.name_id[self.stack[-1]]] if self.stack else ""
            self.counts[(name, top)] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observe_solve(self, args, result):
        stats = result[1]
        self.solves.append((stats.unknowns, stats.iterations, stats.residual))

    def _observe_write(self, args, result):
        self.field_bytes.append(os.path.getsize(args[1]))

    def install(self, harness=()):
        """Patch every serrin module, and the ``harness`` modules that call in."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "serrin" or n.startswith("serrin."))]
        modules += list(harness)
        for modname, fname, mode in TARGETS:
            orig = getattr(sys.modules[modname], fname)
            name = f"{modname.split('.')[1]}.{fname}"
            wrapped = self.span(orig, name) if mode == "span" else self.counter(orig, name)
            for mod in modules:
                for attr in [a for a, v in vars(mod).items() if v is orig]:
                    setattr(mod, attr, wrapped)
                    self._patches.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    def arrays(self):
        """Spans as numpy arrays: name ids, start, end, parent, self time."""
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        start = np.frombuffer(self.start)
        end = np.frombuffer(self.end)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return nid, start, end, parent, dur - child

    def save(self, path):
        nid, start, end, parent, self_t = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=nid,
                            start=start, end=end, parent=parent, self_time=self_t)


def wrapper_cost(n=20000):
    """Seconds added per traced span and per counted call, measured here."""
    t = Tracer()

    def noop():
        return None

    spanned, counted = t.span(noop, "calibrate"), t.counter(noop, "calibrate")
    costs = []
    for fn in (noop, spanned, counted):
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(n):
                fn()
            best = min(best, (time.perf_counter() - t0) / n)
        costs.append(best)
    return max(costs[1] - costs[0], 0.0), max(costs[2] - costs[0], 0.0)


def layer_metrics(tracer: Tracer, op_seconds, extra):
    """Per-layer metrics from the recorded spans and counts.

    ``*_per_report`` metrics sum spans nested inside ``full_report`` and
    divide by the number of reports; a workload that makes no reports (or
    never reaches a layer) reports 0 for that layer.
    """
    nid, start, end, parent, _ = tracer.arrays()
    dur = end - start
    ids = {n: i for i, n in enumerate(tracer.names)}

    def mask(name):
        return nid == ids[name] if name in ids else np.zeros(nid.shape, bool)

    # report_of[i]: index of the full_report span enclosing span i, or -1.
    report_of = np.full(nid.shape, -1, dtype=np.int64)
    fr_id = ids.get("verify.full_report", -2)
    nid_l, parent_l = nid.tolist(), parent.tolist()
    for i in range(len(nid_l)):
        if nid_l[i] == fr_id:
            report_of[i] = i
        elif parent_l[i] >= 0:
            report_of[i] = report_of[parent_l[i]]
    in_report = report_of >= 0
    reports = int(np.count_nonzero(mask("verify.full_report")))

    def per_report(name, what="s"):
        m = mask(name) & in_report
        if reports == 0:
            return 0.0
        if what == "calls":
            return float(np.count_nonzero(m)) / reports
        return float(dur[m].sum()) / reports

    def mean(name, scale=1.0):
        m = mask(name)
        return float(dur[m].mean()) * scale if m.any() else 0.0

    fr = mask("verify.full_report")
    direct = np.isin(parent, np.flatnonzero(fr)) & (
        mask("models.fit_model") | mask("geometry.build_grid") | mask("solver.solve_dirichlet"))
    verify_self = ((dur[fr].sum() - dur[direct].sum()) / reports) if reports else 0.0

    fits = int(np.count_nonzero(mask("models.fit_model")))
    compat = tracer.counts.get(("models.compatibility", "models.fit_model"), 0)
    solves = np.array(tracer.solves, dtype=float).reshape(-1, 3)

    out = {
        "solver.solve_dirichlet.s_per_report": per_report("solver.solve_dirichlet"),
        "solver.iterations_per_solve": float(solves[:, 1].mean()) if len(solves) else 0.0,
        "solver.unknowns": float(solves[:, 0].max()) if len(solves) else 0.0,
        "solver.residual_max": float(solves[:, 2].max()) if len(solves) else 0.0,
        "solver.gradient_field.calls_per_report": per_report("solver.gradient_field", "calls"),
        "solver.gradient_field.s_per_report": per_report("solver.gradient_field"),
        "solver.neumann_trace.calls_per_report": per_report("solver.neumann_trace", "calls"),
        "models.pseudo_radius.calls_per_report": per_report("models.pseudo_radius", "calls"),
        "models.pseudo_radius.s_per_report": per_report("models.pseudo_radius"),
        "verify.self_s_per_report": float(verify_self),
    }
    for check in VERIFY_CHECKS:
        out[f"verify.{check}.s_per_report"] = per_report(f"verify.{check}")
    out.update({
        "models.fit_model.us_per_call": mean("models.fit_model", 1e6),
        "models.compatibility.calls_per_fit": compat / fits if fits else 0.0,
        "models.classify_case.us_per_call": mean("models.classify_case", 1e6),
        "geometry.build_grid.s_per_report": per_report("geometry.build_grid"),
        "geometry.boundary_length.calls_per_report":
            per_report("geometry.boundary_length", "calls"),
        "geometry.boundary_length.s_per_report": per_report("geometry.boundary_length"),
        "cli.import_s": extra.get("cli.import_s", 0.0),
        "cli.startup_s": extra.get("cli.startup_s", 0.0),
        "cli.fit.s": mean("cli.cmd_fit"),
        "cli.solve.s": mean("cli.cmd_solve"),
        "cli.verify.s": mean("cli.cmd_verify"),
        "cli.mms.s": mean("cli.cmd_mms"),
        "solver.write_field.s": mean("solver.write_field"),
        "solver.read_field.s": mean("solver.read_field"),
        "solver.field_bytes": float(max(tracer.field_bytes, default=0)),
    })
    ops = int(np.count_nonzero(mask(OP)))
    span_cost, count_cost = wrapper_cost()
    n_spans = len(nid) - ops
    n_counts = sum(tracer.counts.values())
    out.update({
        "trace.op_p50_ms": float(np.median(op_seconds)) * 1e3,
        "trace.spans_per_op": n_spans / ops if ops else 0.0,
        "trace.overhead_ms_per_op":
            (n_spans * span_cost + n_counts * count_cost) / ops * 1e3 if ops else 0.0,
    })
    return out
