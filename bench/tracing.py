"""Call tracing for the benchmark's traced run.

Spans are recorded from the benchmark's own files: the public functions of
each ``sparsemoo`` module are replaced, at the module attribute the caller
looks up, by a wrapper that records a span.  ``from .x import f`` binds a
copy of ``f`` into every importing module, so one function is wrapped at
each module that calls it.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 at the top).  Hot leaves (oracle calls, ``dominates``,
the simplex QP) would make millions of spans; for them only a call count and
a total time per parent span are kept.  Self time is a span's duration minus
the time covered by its child spans and leaves.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from dataclasses import replace
from time import perf_counter

# Every per-layer metric of the traced run, in report order, with its unit.
LAYER_METRICS = [
    ("problems.evaluate.calls", "count"),
    ("problems.evaluate.self_s", "s"),
    ("problems.gradient.calls", "count"),
    ("problems.gradient.self_s", "s"),
    ("simplex_qp.solve.calls", "count"),
    ("simplex_qp.solve.self_s", "s"),
    ("simplex_qp.solve.us_per_call", "us"),
    ("directions.theta_subspace.calls", "count"),
    ("directions.theta_subspace.self_s", "s"),
    ("directions.theta_feasible.calls", "count"),
    ("directions.theta_feasible.self_s", "s"),
    ("directions.theta_L.calls", "count"),
    ("directions.theta_L.self_s", "s"),
    ("directions.theta_L.supports", "count"),
    ("directions.theta_L.ns_per_support", "ns"),
    ("solvers.armijo_common.calls", "count"),
    ("solvers.armijo_common.self_s", "s"),
    ("solvers.armijo_common.evals", "count"),
    ("solvers.armijo_common.fail_ratio", "ratio"),
    ("solvers.moiht.calls", "count"),
    ("solvers.moiht.iters", "count"),
    ("solvers.moiht.budget_exhausted", "count"),
    ("solvers.moiht.self_s", "s"),
    ("solvers.mospd.self_s", "s"),
    ("solvers.mosd.self_s", "s"),
    ("solvers.mohyb.self_s", "s"),
    ("solvers.scalarized_iht.self_s", "s"),
    ("sfsd.initialize.self_s", "s"),
    ("sfsd.sfsd_run.self_s", "s"),
    ("sfsd.insert.calls", "count"),
    ("sfsd.insert.self_s", "s"),
    ("sfsd.insert.kept_ratio", "ratio"),
    ("sfsd.archive_size.max", "count"),
    ("sfsd.assign_super_support.calls", "count"),
    ("sfsd.assign_super_support.self_s", "s"),
    ("sfsd.filter_nondominated.calls", "count"),
    ("sfsd.filter_nondominated.self_s", "s"),
    ("core.dominates.calls", "count"),
    ("metrics.build_reference_front.self_s", "s"),
    ("metrics.purity.self_s", "s"),
    ("metrics.spread.self_s", "s"),
    ("metrics.hypervolume_2d.self_s", "s"),
    ("metrics.performance_profiles.self_s", "s"),
    ("cli.reproduce.self_s", "s"),
    ("cli.write_front_csv.calls", "count"),
    ("cli.write_front_csv.self_s", "s"),
    ("cli.out_bytes", "bytes"),
    ("trace.overhead_ratio", "ratio"),
]


def self_times(spans, leaves) -> dict:
    """Per name: ``[calls, self seconds]`` summed over spans and leaves.

    ``spans`` holds ``[name, start, end, parent]`` records and ``leaves``
    maps ``(parent, name)`` to ``[calls, seconds]``.  Children run inside
    their parent on one thread, so their durations add without overlap.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    for (parent, _), (_, secs) in leaves.items():
        if parent >= 0:
            covered[parent] += secs
    out: dict = defaultdict(lambda: [0, 0.0])
    for (name, start, end, _), cov in zip(spans, covered):
        out[name][0] += 1
        out[name][1] += (end - start) - cov
    for (_, name), (calls, secs) in leaves.items():
        out[name][0] += calls
        out[name][1] += secs
    return out


class Tracer:
    """Span recorder plus per-layer counters derived from call arguments."""

    def __init__(self):
        self.enabled = False
        self.spans: list = []
        self.leaves: dict = defaultdict(lambda: [0, 0.0])
        self.counters: dict = defaultdict(float)
        self._stack: list = []
        self._patches: list = []
        self._problems: dict = {}

    # -- wrappers ---------------------------------------------------------

    def span(self, name, fn, after=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(idx)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(self.counters, args, kwargs, result)
            return result

        return wrapper

    def leaf(self, name, fn):
        leaves, stack = self.leaves, self._stack

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec = leaves[(stack[-1] if stack else -1, name)]
                rec[0] += 1
                rec[1] += perf_counter() - t0

        return wrapper

    def problem(self, p):
        """The problem with both oracle callables traced as leaves."""
        key = id(p)
        if key not in self._problems:  # holding p keeps its id from being reused
            self._problems[key] = (p, replace(
                p,
                evaluate=self.leaf("problems.evaluate", p.evaluate),
                gradient=self.leaf("problems.gradient", p.gradient),
            ))
        return self._problems[key][1]

    def patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every traced function at each module that looks it up."""
        from sparsemoo import cli, directions, sfsd, solvers

        def theta_l_after(c, args, kwargs, result):
            p, s = args[0], args[2]
            c["directions.theta_L.supports"] += math.comb(p.n, s)

        def armijo_after(c, args, kwargs, alpha):
            cfg = args[5] if len(args) > 5 else kwargs["cfg"]
            halvings = kwargs.get("max_halvings", args[6] if len(args) > 6 else 50)
            if alpha == 0.0:
                c["solvers.armijo_common.failures"] += 1
                h = halvings
            else:
                h = round(math.log(alpha / cfg.armijo.alpha0) / math.log(cfg.armijo.delta))
            # f(x) once, then one trial per step size alpha0 * delta^0..h
            c["solvers.armijo_common.evals"] += h + 2

        def moiht_after(c, args, kwargs, result):
            trace = result[1]
            c["solvers.moiht.iters"] += len(trace.iterates) - 1
            c["solvers.moiht.budget_exhausted"] += trace.status == "budget_exhausted"

        def insert_after(c, args, kwargs, result):
            archive, entry = args[0], args[1]
            c["sfsd.insert.kept"] += archive.contains(entry)
            c["sfsd.archive_size.max"] = max(c["sfsd.archive_size.max"], len(archive))

        # (span name, function, counter hook, modules whose callers look it
        # up); every function is read before the first patch.
        table = [
            ("directions.theta_subspace", directions.theta_subspace, None,
             (directions, solvers, sfsd)),
            ("directions.theta_feasible", directions.theta_feasible, None, (sfsd,)),
            ("directions.theta_L", directions.theta_L, theta_l_after, (solvers,)),
            ("solvers.armijo_common", solvers.armijo_common, armijo_after, (solvers, sfsd)),
            ("solvers.moiht", solvers.moiht, moiht_after, (solvers, sfsd)),
            ("solvers.mospd", solvers.mospd, None, (solvers, sfsd)),
            ("solvers.mosd", solvers.mosd, None, (solvers, sfsd)),
            ("solvers.mohyb", solvers.mohyb, None, (sfsd,)),
            ("solvers.scalarized_iht", solvers.scalarized_iht, None, (sfsd,)),
            ("sfsd.assign_super_support", sfsd.assign_super_support, None, (sfsd,)),
            ("sfsd.filter_nondominated", sfsd.filter_nondominated, None, (sfsd, cli)),
            ("sfsd.initialize", sfsd.initialize, None, (sfsd, cli)),
            ("sfsd.sfsd_run", sfsd.sfsd_run, None, (sfsd, cli)),
            ("cli.write_front_csv", cli.write_front_csv, None, (cli,)),
            ("metrics.build_reference_front", cli.build_reference_front, None, (cli,)),
            ("metrics.purity", cli.purity, None, (cli,)),
            ("metrics.spread", cli.gamma_spread, None, (cli,)),
            ("metrics.spread", cli.delta_spread, None, (cli,)),
            ("metrics.hypervolume_2d", cli.hypervolume_2d, None, (cli,)),
            ("metrics.performance_profiles", cli.performance_profiles, None, (cli,)),
        ]
        for name, fn, after, owners in table:
            wrapper = self.span(name, fn, after)
            for owner in owners:
                self.patch(owner, fn.__name__, wrapper)
        self.patch(directions, "solve_simplex_qp",
                   self.leaf("simplex_qp.solve", directions.solve_simplex_qp))
        self.patch(sfsd, "dominates", self.leaf("core.dominates", sfsd.dominates))
        self.patch(sfsd.ParetoArchive, "insert",
                   self.span("sfsd.insert", sfsd.ParetoArchive.insert, insert_after))
        load = cli.load_instance

        def load_instance(path):
            problem, info = load(path)
            return self.problem(problem), info

        self.patch(cli, "load_instance", load_instance)

    # -- results ----------------------------------------------------------

    def layer_metrics(self, overhead_ratio: float) -> dict:
        """Every metric of :data:`LAYER_METRICS` as ``{name: (value, unit)}``."""
        st = self_times(self.spans, self.leaves)
        c = self.counters

        def calls(name):
            return st[name][0] if name in st else 0

        def self_s(name):
            return st[name][1] if name in st else 0.0

        values = {}
        for name, unit in LAYER_METRICS:
            layer, _, field = name.rpartition(".")
            if field == "calls":
                values[name] = calls(layer)
            elif field == "self_s":
                values[name] = self_s(layer)
        qp = calls("simplex_qp.solve")
        values["simplex_qp.solve.us_per_call"] = 1e6 * self_s("simplex_qp.solve") / qp if qp else 0.0
        supports = int(c["directions.theta_L.supports"])
        values["directions.theta_L.supports"] = supports
        values["directions.theta_L.ns_per_support"] = (
            1e9 * self_s("directions.theta_L") / supports if supports else 0.0)
        armijo = calls("solvers.armijo_common")
        values["solvers.armijo_common.evals"] = int(c["solvers.armijo_common.evals"])
        values["solvers.armijo_common.fail_ratio"] = (
            c["solvers.armijo_common.failures"] / armijo if armijo else 0.0)
        values["solvers.moiht.iters"] = int(c["solvers.moiht.iters"])
        values["solvers.moiht.budget_exhausted"] = int(c["solvers.moiht.budget_exhausted"])
        inserts = calls("sfsd.insert")
        values["sfsd.insert.kept_ratio"] = c["sfsd.insert.kept"] / inserts if inserts else 0.0
        values["sfsd.archive_size.max"] = int(c["sfsd.archive_size.max"])
        values["cli.out_bytes"] = int(c["cli.out_bytes"])
        values["trace.overhead_ratio"] = overhead_ratio
        return {name: (values[name], unit) for name, unit in LAYER_METRICS}

    def write(self, path):
        """Write every span and leaf aggregate as JSON lines."""
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps({"span": rec}) + "\n")
            for (parent, name), (calls, secs) in self.leaves.items():
                fh.write(json.dumps({"leaf": [name, parent, calls, secs]}) + "\n")
