"""Per-layer tracing, installed from outside the library.

``Tracer.install`` replaces public functions and methods of ``coarsedouble``
with wrappers.  A name that another module imported is replaced there too,
so ``dist_to_set`` is traced when ``double`` calls it.  Layer boundaries
record spans (name, start, end, parent, query id) kept in memory; hot
leaves such as ``MetricSpace.distance`` only count calls, because a span
per call would cost more than the call.
"""

import functools
import gzip
import json
import sys
import time
from array import array
from collections import Counter, defaultdict

from coarsedouble import (asymptotics, boolalg, cli, double, ideals, measure,
                          projection, scenarios, serialize, space, verdicts)

# (owner, attribute, span name); owners are modules or classes
SPANS = [
    (space, "dist_to_set", "space.dist_to_set"),
    (double, "evaluate_exact", "double.evaluate_exact"),
    (double.DoubleMetric, "cross_matrix", "double.cross_matrix"),
    (double.DeltaMetric, "cross_matrix", "double.cross_matrix"),
    (double.SubsetMetric, "cross_matrix", "double.cross_matrix"),
    (double.MaxMetric, "cross_matrix", "double.cross_matrix"),
    (double.ComposedMetric, "cross_matrix", "double.cross_matrix"),
    (double, "check_axioms", "double.check_axioms"),
    (projection, "classify_type", "projection.classify_type"),
    (projection, "projection_criterion", "projection.projection_criterion"),
    (asymptotics, "equivalent", "asymptotics.equivalent"),
    (asymptotics, "transfer", "asymptotics.transfer"),
    (boolalg, "atom_nonzero", "boolalg.atom_nonzero"),
    (boolalg, "tau", "boolalg.tau"),
    (measure, "nu_hat", "measure.nu_hat"),
    (measure, "nu_bar", "measure.nu_bar"),
    (measure, "check_modularity", "measure.check_modularity"),
    (ideals, "check_au", "ideals.check_au"),
    (ideals, "recovery_transfer", "ideals.recovery_transfer"),
    (serialize, "parse_levels", "serialize.parse"),
    (serialize, "parse_kernel", "serialize.parse"),
    (cli, "main", "cli.main"),
    (scenarios, "run_scenario", "scenarios.run_scenario"),
    (cli, "pretty_dumps", "reporting.emit"),
    (cli, "report_to_csv", "reporting.emit"),
]
SINGLE_CROSS = (double.DeltaMetric, double.PointMetric, double.SubsetMetric,
                double.ClosedFormMetric, double.AdjointMetric, double.MaxMetric)
POINT_ENUMERATORS = (space.NatLine, space.IntLine, space.GeomLine, space.TwoTails,
                     space.CustomSpace, space.PredicateSpace)


class Tracer:
    """Spans and counters for one traced round."""

    def __init__(self):
        self.span_names = []
        self._name_ids = {}
        self.names = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.queries = array("i")
        self.stack = []             # open spans: [span index, name id, child seconds]
        self.counts = Counter()
        self.self_s = defaultdict(float)
        self.query_id = -1
        self._undo = []

    # -- wrappers -------------------------------------------------------------

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
        return self._name_ids[name]

    def _span(self, name, fn, on_exit=None):
        nid = self._name_id(name)
        stack, counts, self_s = self.stack, self.counts, self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(self.starts)
            parent = stack[-1] if stack else None
            frame = [i, nid, 0.0]
            self.names.append(nid)
            self.parents.append(parent[0] if parent else -1)
            self.queries.append(self.query_id)
            self.ends.append(0.0)
            stack.append(frame)
            result, raised = None, True
            t0 = clock()
            self.starts.append(t0)
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                t1 = clock()
                stack.pop()
                self.ends[i] = t1
                dur = t1 - t0
                self_s[name] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                counts[name + ".calls"] += 1
                if raised:
                    counts[name + ".raised"] += 1
                elif on_exit is not None:
                    on_exit(result, args, parent)

        return wrapper

    def _counter(self, key, fn, on_exit=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            result = fn(*args, **kwargs)
            if on_exit is not None:
                on_exit(result, args)
            return result

        return wrapper

    def _patch(self, owner, attr, wrapper):
        original = owner.__dict__[attr]
        targets = [owner]
        if not isinstance(owner, type):
            # the same function imported by name into other modules
            targets += [m for name, m in sys.modules.items()
                        if m is not owner and (name == "coarsedouble"
                                               or name.startswith("coarsedouble.")
                                               or name == "workloads")
                        and getattr(m, attr, None) is original]
        for target in targets:
            self._undo.append((target, attr, target.__dict__[attr]))
            setattr(target, attr, wrapper)

    def _patch_span(self, owner, attr, name, on_exit=None):
        self._patch(owner, attr, self._span(name, owner.__dict__[attr], on_exit))

    def _patch_counter(self, owner, attr, key, on_exit=None):
        self._patch(owner, attr, self._counter(key, owner.__dict__[attr], on_exit))

    def _fill_counted(self, obj, key):
        """Count calls of an instance's public ``fn`` (the uncached value)."""
        fn = obj.fn
        if not getattr(fn, "_bench_counted", False):
            counts = self.counts

            def counted(*args):
                counts[key] += 1
                return fn(*args)

            counted._bench_counted = True
            obj.fn = counted

    # -- installation ---------------------------------------------------------

    def install(self):
        counts = self.counts
        evaluate_exact_id = self._name_id("double.evaluate_exact")
        transfer_id = self._name_id("asymptotics.transfer")

        def cross_exit(key):
            def on_exit(ev, args, parent):
                if not ev.exact:
                    counts[key + ".inexact"] += 1
                if parent is not None and parent[1] == evaluate_exact_id:
                    counts["double.evaluate_exact.windows"] += 1
            return on_exit

        for owner, attr, name in SPANS:
            self._patch_span(owner, attr, name,
                             self._emit_bytes if name == "reporting.emit" else None)
        for cls in SINGLE_CROSS:
            self._patch_span(cls, "cross", "double.cross", cross_exit("double.cross"))
        self._patch_span(double.ComposedMetric, "cross", "double.cross_compose",
                         cross_exit("double.cross_compose"))

        self._patch_counter(space.MetricSpace, "distance", "space.distance.calls")
        self._patch_counter(space.PointSet, "contains", "space.pointset_contains.calls")

        def enumerated(key):
            def on_exit(pts, args):
                counts[key] += len(pts)
                if key == "space.window_points.points" and self.stack \
                        and self.stack[-1][1] == transfer_id:
                    counts["asymptotics.transfer.points"] += len(pts)
            return on_exit

        for cls in POINT_ENUMERATORS:
            self._patch_counter(cls, "points_within", "space.points_within.calls",
                                enumerated("space.points_within.points"))
        self._patch_counter(space, "window_points", "space.window_points.calls",
                            enumerated("space.window_points.points"))

        def scanned(rows, args):
            mu, _, schedule = args[:3]
            counts["measure.ratio_series.points"] += sum(len(mu.ball(r)) for r in schedule)

        self._patch_counter(measure.DensityMeasure, "ratio_series",
                            "measure.ratio_series.calls", scanned)

        level = projection.LevelFunction.level

        def level_wrapper(lf, x):
            counts["projection.level.calls"] += 1
            self._fill_counted(lf, "projection.level.fills")
            return level(lf, x)

        self._patch(projection.LevelFunction, "level", level_wrapper)
        call = double.DeltaFunction.__call__

        def delta_wrapper(df, u):
            counts["double.delta.calls"] += 1
            self._fill_counted(df, "double.delta.fills")
            return call(df, u)

        self._patch(double.DeltaFunction, "__call__", delta_wrapper)
        post_init = verdicts.Verdict.__post_init__

        def verdict_wrapper(v):
            post_init(v)
            counts["verdicts." + v.status.name.lower()] += 1

        self._patch(verdicts.Verdict, "__post_init__", verdict_wrapper)

    def _emit_bytes(self, text, args, parent):
        # the meta section holds timings whose digits vary from run to run;
        # its rendering is subtracted so that the count repeats exactly
        meta = args[0].get("meta") if text.startswith("{") else None
        self.counts["reporting.bytes"] += len(text) - (
            len(json.dumps(meta, sort_keys=True, indent=2)) if meta else 0)

    def uninstall(self):
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    # -- results --------------------------------------------------------------

    def value(self, name):
        """A per-layer metric of BENCHMARK.json from the counters and spans."""
        c = self.counts
        derived = {
            "space.dist_to_set.inconclusive": lambda: c["space.dist_to_set.raised"],
            "space.dist_to_set.useful_ratio": lambda: _ratio(
                c["space.dist_to_set.calls"] - c["space.dist_to_set.raised"],
                c["space.dist_to_set.calls"]),
            "double.delta.fill_ratio": lambda: _ratio(c["double.delta.fills"],
                                                      c["double.delta.calls"]),
            "projection.level.fill_ratio": lambda: _ratio(c["projection.level.fills"],
                                                          c["projection.level.calls"]),
            "reporting.emit_s": lambda: self.self_s["reporting.emit"],
        }
        if name in derived:
            return derived[name]()
        if name.endswith(".self_s"):
            return self.self_s[name[:-len(".self_s")]]
        return c[name]

    def write_spans(self, path):
        doc = {"names": self.span_names,
               "columns": ["name", "start", "end", "parent", "query"],
               "name": self.names.tolist(), "start": self.starts.tolist(),
               "end": self.ends.tolist(), "parent": self.parents.tolist(),
               "query": self.queries.tolist()}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _ratio(num, den):
    return num / den if den else 0.0
