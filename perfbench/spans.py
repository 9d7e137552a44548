"""Span recorder that wraps gridfactor's public functions from outside.

Each traced function is replaced at every attribute through which the
package reaches it: a module-level function in every ``gridfactor``
module namespace that holds it, a method on its class.  The wrapper
records one span per call (name, start, end, parent span, op id) into flat
arrays, so a long traced run stays small in memory.
"""

from __future__ import annotations

import functools
import io
import sys
import warnings
from array import array
from time import perf_counter

#: (metric prefix, module, attribute path) of every traced function.
TRACED = (
    ("net_model.load_network", "net_model", "load_network"),
    ("net_model.edge_index", "net_model", "Network.edge_index"),
    ("net_model.without_edges", "net_model", "Network.without_edges"),
    ("graph_algos.block_decomposition", "graph_algos", "block_decomposition"),
    ("graph_algos.is_cut_set", "graph_algos", "is_cut_set"),
    ("dcpf.build_laplacian", "dcpf", "build_laplacian"),
    ("dcpf.solve_flow", "dcpf", "solve_flow"),
    ("factors.ptdf_matrix", "factors", "ptdf_matrix"),
    ("factors.OutageSet", "factors", "OutageSet.__init__"),
    ("factors.glodf", "factors", "glodf"),
    ("factors.lodf_single", "factors", "lodf_single"),
    ("localization.block_structure_report", "localization", "block_structure_report"),
    ("localization.almost_sure_nonzero_test", "localization", "almost_sure_nonzero_test"),
    ("cascade.run_cascade", "cascade", "run_cascade"),
    ("cascade.influence_graph", "cascade", "influence_graph"),
    ("forests.matrix_tree_check", "forests", "matrix_tree_check"),
    ("forests.a_entry_via_forests", "forests", "a_entry_via_forests"),
    ("forests.ptdf_via_forests", "forests", "ptdf_via_forests"),
    ("forests.lodf_via_forests", "forests", "lodf_via_forests"),
    ("cli.run", "cli", "run"),
)

#: Op id given to spans recorded outside any op (the workload's set-up).
SETUP = -1

#: Counts recorded at the traced boundaries, with their units.
COUNTS = {
    "cascade.stages": "count",
    "cascade.status.islanded": "count",
    "cascade.status.converged": "count",
    "cascade.status.no_initial_overload": "count",
    "dcpf.build_laplacian.warnings": "count",
    "dcpf.dense_bytes_computed": "B",
    "cli.stdout_bytes": "B",
}


class Recorder:
    """Spans and counts of one traced run."""

    def __init__(self):
        self.names: list[str] = [prefix for prefix, _, _ in TRACED]
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_of = array("i")
        self.op = SETUP
        self._setup_counts: dict[str, float] = {}
        self._loop_counts: dict[str, float] = {}
        self._stack: list[int] = []

    def count(self, key: str, value: float = 1) -> None:
        """Add to a count of the current op; warm-up ops are not counted."""
        if self.op == SETUP:
            bucket = self._setup_counts
        elif self.op >= 0:
            bucket = self._loop_counts
        else:
            return
        bucket[key] = bucket.get(key, 0) + value

    def _wrap(self, name_id: int, fn, after=None):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(rec.name)
            rec.name.append(name_id)
            rec.parent.append(rec._stack[-1] if rec._stack else -1)
            rec.op_of.append(rec.op)
            rec.start.append(0.0)
            rec.end.append(0.0)
            rec._stack.append(span)
            rec.start[span] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end[span] = perf_counter()
                rec._stack.pop()
            if after is not None:
                after(rec, args, result)
            return result

        return traced

    def install(self):
        """Patch every traced function; returns a callable that undoes it."""
        package = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "gridfactor" or name.startswith("gridfactor."))]
        undo = []
        for name_id, (prefix, module_name, path) in enumerate(TRACED):
            *owner_path, attr = path.split(".")
            owner = sys.modules.get(f"gridfactor.{module_name}")
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                continue
            if owner_path:
                holders = [owner]
            else:
                holders = [m for m in package if vars(m).get(attr) is original]
            wrapper = self._wrap(name_id, original, _AFTER.get(prefix))
            if prefix == "dcpf.build_laplacian":
                wrapper = _counting_warnings(self, wrapper)
            for holder in holders:
                setattr(holder, attr, wrapper)
                undo.append((holder, attr, original))

        def uninstall():
            for holder, attr, original in reversed(undo):
                setattr(holder, attr, original)

        return uninstall

    def table(self, passes: int, counts=()) -> dict[str, float]:
        """Per-function calls, inclusive and self seconds, and the named counts.

        Every value is the workload's set-up once plus the mean of one pass
        over its op pool, so counts repeat exactly from run to run.

        Spans of one thread nest strictly, so the part of a span that its
        children cover is the sum of their durations.  Warm-up ops (negative
        op ids other than SETUP) are left out.
        """
        k = len(self.names)
        child = [0.0] * len(self.name)
        for span in range(len(self.name)):
            parent = self.parent[span]
            if parent >= 0:
                child[parent] += self.end[span] - self.start[span]
        # [set-up, loop] sums, combined once at the end so counts stay exact.
        calls = [[0, 0] for _ in range(k)]
        total = [[0.0, 0.0] for _ in range(k)]
        own = [[0.0, 0.0] for _ in range(k)]
        for span in range(len(self.name)):
            op = self.op_of[span]
            if op < 0 and op != SETUP:
                continue
            part = 0 if op == SETUP else 1
            duration = self.end[span] - self.start[span]
            name_id = self.name[span]
            calls[name_id][part] += 1
            total[name_id][part] += duration
            own[name_id][part] += duration - child[span]
        out: dict[str, float] = {}
        for name_id, prefix in enumerate(self.names):
            out[f"{prefix}.calls"] = calls[name_id][0] + calls[name_id][1] / passes
            out[f"{prefix}.s"] = total[name_id][0] + total[name_id][1] / passes
            out[f"{prefix}.self_s"] = own[name_id][0] + own[name_id][1] / passes
        for key in counts:
            out[key] = self._setup_counts.get(key, 0) + self._loop_counts.get(key, 0) / passes
        return out


def _after_build_laplacian(rec: Recorder, args, bundle) -> None:
    n = args[0].n
    rec.count("dcpf.dense_bytes_computed", 8 * n * n)


def _after_run_cascade(rec: Recorder, args, trace) -> None:
    rec.count("cascade.stages", len(trace.stages))
    rec.count(f"cascade.status.{trace.status}")


def _after_cli_run(rec: Recorder, args, code) -> None:
    # The benchmark captures the command's stdout in memory.
    if isinstance(sys.stdout, io.StringIO):
        rec.count("cli.stdout_bytes", sys.stdout.tell())


_AFTER = {
    "dcpf.build_laplacian": _after_build_laplacian,
    "cascade.run_cascade": _after_run_cascade,
    "cli.run": _after_cli_run,
}


def _counting_warnings(rec: Recorder, fn):
    """Count RuntimeWarnings that escape one factorization."""

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            result = fn(*args, **kwargs)
        rec.count("dcpf.build_laplacian.warnings",
                  sum(issubclass(w.category, RuntimeWarning) for w in caught))
        return result

    return counted
