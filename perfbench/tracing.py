"""Outside-in tracer: spans around the calls into each layer of qdilog.

The package is not instrumented.  Tracer.install rebinds each public
function at the name its callers look it up by (for example
`qdilog.identities.integrate_contour`) to a wrapper that records a span
(name, start, end, parent) in memory, and Tracer.uninstall puts the
originals back.  Counts come from the values the wrapped calls return.

Span stacks are thread-local, because the suites' ThreadPoolExecutor
workers do not inherit context; a span opened in a pool thread with an
empty stack takes the suite span that is running as its parent.  Per-point
helpers (strip reduction, lattice scans, normal-form constructors) are
called hundreds of thousands of times, so they are folded into their
parent's child time and a per-name total instead of being kept as spans.

A span's self time is its duration minus the part of it its children
cover; children in other threads may overlap, so for suite spans the union
of the children's intervals is subtracted.
"""

from __future__ import annotations

import functools
import statistics
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

TRACED_SUITES = (
    "tau-binomial", "six-nine", "q-binomial", "kac", "consistency", "theorem31-exact",
)

# Per-layer metric -> unit.
UNITS = {
    "quadrature.strip.integrand_s": "s",
    "quadrature.strip.self_s": "s",
    "quadrature.strip.batches": "count",
    "quadrature.strip.panels": "count",
    "quadrature.strip.evals": "count",
    "quadrature.strip.evals_per_point": "ratio",
    "core.gb_eval_many.self_s": "s",
    "core.reduce_s": "s",
    "core.reduction_steps": "count",
    "core.lattice_s": "s",
    "core.gb_points": "count",
    "core.strip_points": "count",
    "core.strip_point_ratio": "ratio",
    "core.reuse_share": "ratio",
    "core.gb_eval.calls": "count",
    "core.gb_eval.ms_p50": "ms",
    "core.gb_eval.ms_p90": "ms",
    "quadrature.outer.self_s": "s",
    "quadrature.outer.panels": "count",
    "quadrature.outer.evals": "count",
    "contour.plan.self_s": "s",
    "contour.plan.calls": "count",
    "contour.integrate.self_s": "s",
    "contour.integrate.calls": "count",
    "symbolic.evaluate_on.self_s": "s",
    "symbolic.evaluate_on.calls": "count",
    "symbolic.normal_form.self_s": "s",
    "symbolic.normal_form.calls": "count",
    "operators.verify.ms_p50": "ms",
    "operators.verify.ms_p90": "ms",
    "operators.verify.calls": "count",
    "operators.case_s": "s",
    "identities.case_s": "s",
    **{f"suites.{name}.wall_s": "s" for name in TRACED_SUITES},
    "suites.case_ms_p50": "ms",
    "suites.case_ms_p80": "ms",
    "suites.pool_busy_ratio": "ratio",
    "cli.main.self_s": "s",
    "reports.render.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
    "trace.count_mismatches": "count",
}
# Metrics made of counts only.  At a fixed seed they repeat exactly when the
# cases run on one thread.  With pool threads they may not: two threads can
# both miss the global log cache on one point, so the strip batches change,
# and with them the last bits of the values that later counts depend on.
COUNTS = {
    name for name, unit in UNITS.items()
    if unit == "count" and not name.startswith("trace.")
} | {
    "quadrature.strip.evals_per_point",
    "core.strip_point_ratio",
    "core.reuse_share",
}

SUITE_SPAN = "suites.run"
VERIFY_NAMES = ("verify_KK", "verify_KE", "verify_KF", "verify_EE", "verify_FF",
                "verify_weyl")


def percentile(values: list, q: int) -> float:
    """q-th percentile, linear between closest ranks; 0.0 for no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def covered(start: float, end: float, intervals: list) -> float:
    """Length of the union of intervals, clipped to [start, end]."""
    total, reach = 0.0, start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "child_s", "kids", "info")

    def __init__(self, name, parent, thread, adopts=False):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.child_s = 0.0
        self.kids = [] if adopts else None
        self.info = None
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        if self.kids is not None:
            return self.duration - covered(self.start, self.end, self.kids)
        return self.duration - self.child_s


class _ThreadState:
    def __init__(self, ident):
        self.ident = ident
        self.stack = []
        self.spans = []
        self.counts = defaultdict(int)
        self.leaf_s = defaultdict(float)
        self.in_leaf = False
        self.points = defaultdict(set)  # (b, cfg) -> G_b points requested
        self.point_incidences = 0  # sum over calls of distinct points per call


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._adopter = None
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState(threading.get_ident())
            self._local.st = st
            with self._lock:
                self._states.append(st)
        return st

    def _parent(self, st):
        return st.stack[-1] if st.stack else self._adopter

    @staticmethod
    def _charge(parent, st, t0, t1):
        if parent is None:
            return
        if parent.kids is not None:
            parent.kids.append((t0, t1))
        else:
            parent.child_s += t1 - t0

    def span(self, name, fn, before=None, after=None, adopts=False):
        """Wrap fn so each call records a span; before may rewrite the args."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            sp = Span(name, tracer._parent(st), st.ident, adopts)
            if before is not None:
                args, kwargs = before(st, sp, args, kwargs)
            st.stack.append(sp)
            if adopts:
                tracer._adopter = sp
            sp.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                sp.end = perf_counter()
                st.stack.pop()
                if adopts:
                    tracer._adopter = None
                tracer._charge(sp.parent, st, sp.start, sp.end)
                st.spans.append(sp)
            if after is not None:
                after(st, result)
            return result

        return wrapper

    def leaf(self, name, fn, after=None):
        """Wrap a per-point helper: time and count it without keeping spans."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            if st.in_leaf:
                return fn(*args, **kwargs)
            st.in_leaf = True
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                st.in_leaf = False
                st.leaf_s[name] += t1 - t0
                st.counts[name + ".calls"] += 1
                tracer._charge(tracer._parent(st), st, t0, t1)
            if after is not None:
                after(st, result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Rebind the traced names in the imported qdilog package."""
        import qdilog
        from qdilog import cli, contour, core, identities, operators, suites, symbolic

        def strip_before(st, sp, args, kwargs):
            integrand = self.span("quadrature.strip.integrand", args[0])
            return (integrand, *args[1:]), kwargs

        def strip_after(st, res):
            n = len(res.values)
            st.counts["quadrature.strip.batches"] += 1
            st.counts["quadrature.strip.panels"] += res.n_panels
            st.counts["quadrature.strip.evals"] += res.n_evals
            st.counts["core.strip_points"] += n
            st.counts["strip.node_evals"] += n * res.n_evals

        self._patch(core, "integrate_batch", self.span(
            "quadrature.strip", core.integrate_batch, strip_before, strip_after))

        def outer_after(st, res):
            st.counts["quadrature.outer.panels"] += res.n_panels
            st.counts["quadrature.outer.evals"] += res.n_evals

        self._patch(contour, "integrate_batch", self.span(
            "quadrature.outer", contour.integrate_batch, after=outer_after))

        def many_before(st, sp, args, kwargs):
            zs, rest = args[0], args[1:]
            if not isinstance(zs, (list, tuple, np.ndarray)):
                zs = list(zs)
            pts = set(zs.tolist() if isinstance(zs, np.ndarray) else zs)
            b = rest[0] if rest else kwargs["b"]
            cfg = rest[1] if len(rest) > 1 else kwargs.get("cfg")
            key = (complex(getattr(b, "b", b)), (cfg or core.EvalConfig()).cache_key())
            st.points[key].update(pts)
            st.point_incidences += len(pts)
            return (zs, *rest), kwargs

        def many_after(st, values):
            st.counts["core.gb_points"] += len(values)

        many = self.span("core.gb_eval_many", core.gb_eval_many, many_before, many_after)
        for mod in (qdilog, core, symbolic, identities, suites):
            self._patch(mod, "gb_eval_many", many)

        def steps_after(st, red):
            st.counts["core.reduction_steps"] += abs(red.n1) + abs(red.n2)

        self._patch(core, "strip_reduce",
                    self.leaf("core.reduce", core.strip_reduce, steps_after))
        self._patch(core, "reduction_correction",
                    self.leaf("core.reduce", core.reduction_correction))
        self._patch(core, "nearest_lattice_point",
                    self.leaf("core.lattice", core.nearest_lattice_point))
        self._patch(cli, "gb_eval", self.span("core.gb_eval", cli.gb_eval))

        integ = self.span("contour.integrate", contour.integrate_contour)
        for mod in (identities, operators, suites):
            self._patch(mod, "integrate_contour", integ)
        self._patch(contour, "plan_contour",
                    self.span("contour.plan", contour.plan_contour))

        sym = symbolic.Symbol
        self._patch(sym, "evaluate_on",
                    self.span("symbolic.evaluate_on", sym.evaluate_on))
        for cls in (symbolic.Symbol, symbolic.GaussExponent, symbolic.AffineForm):
            self._patch(cls, "make", staticmethod(
                self.leaf("symbolic.normal_form", cls.make)))

        for name in VERIFY_NAMES:
            self._patch(suites, name,
                        self.span("operators.verify", getattr(suites, name)))
        for name in ("kac_values", "qbinomial_value"):
            self._patch(suites, name, self.span("operators.case", getattr(suites, name)))
        for name in ("tau_binomial_check", "six_nine_check"):
            self._patch(suites, name,
                        self.span("identities.case", getattr(suites, name)))

        def suite_before(st, sp, args, kwargs):
            sp.info = args[0] if args else kwargs["name"]
            return args, kwargs

        self._patch(cli, "run_suite", self.span(
            SUITE_SPAN, cli.run_suite, suite_before, adopts=True))
        self._patch(cli, "render", self.span("reports.render", cli.render))
        self._patch(cli, "main", self.span("cli.main", cli.main))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation -------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of everything recorded, trace.* left to run.py."""
        spans = [sp for st in self._states for sp in st.spans]
        counts = defaultdict(int)
        leaf_s = defaultdict(float)
        points = defaultdict(set)
        incidences = 0
        for st in self._states:
            for k, v in st.counts.items():
                counts[k] += v
            for k, v in st.leaf_s.items():
                leaf_s[k] += v
            for k, v in st.points.items():
                points[k] |= v
            incidences += st.point_incidences

        by_name = defaultdict(list)
        for sp in spans:
            by_name[sp.name].append(sp)

        def self_s(name):
            return sum(sp.self_s for sp in by_name[name])

        def dur_s(name):
            return sum(sp.duration for sp in by_name[name])

        def ms(name):
            return [1e3 * sp.duration for sp in by_name[name]]

        def ratio(a, b):
            return a / b if b else 0.0

        suites = by_name[SUITE_SPAN]
        cases = [sp for sp in spans if sp.parent is not None and sp.parent.name == SUITE_SPAN]
        pooled_case_s = pooled_capacity_s = 0.0
        for su in suites:
            kids = [sp for sp in cases if sp.parent is su]
            threads = {sp.thread for sp in kids}
            if threads - {su.thread}:
                pooled_case_s += sum(sp.duration for sp in kids)
                pooled_capacity_s += len(threads) * su.duration
        distinct = sum(len(v) for v in points.values())

        out = {
            "quadrature.strip.integrand_s": dur_s("quadrature.strip.integrand"),
            "quadrature.strip.self_s": self_s("quadrature.strip"),
            "quadrature.strip.batches": counts["quadrature.strip.batches"],
            "quadrature.strip.panels": counts["quadrature.strip.panels"],
            "quadrature.strip.evals": counts["quadrature.strip.evals"],
            "quadrature.strip.evals_per_point": ratio(
                counts["strip.node_evals"], counts["core.strip_points"]),
            "core.gb_eval_many.self_s": self_s("core.gb_eval_many"),
            "core.reduce_s": leaf_s["core.reduce"],
            "core.reduction_steps": counts["core.reduction_steps"],
            "core.lattice_s": leaf_s["core.lattice"],
            "core.gb_points": counts["core.gb_points"],
            "core.strip_points": counts["core.strip_points"],
            "core.strip_point_ratio": ratio(
                counts["core.strip_points"], counts["core.gb_points"]),
            "core.reuse_share": ratio(incidences - distinct, incidences),
            "core.gb_eval.calls": len(by_name["core.gb_eval"]),
            "core.gb_eval.ms_p50": percentile(ms("core.gb_eval"), 50),
            "core.gb_eval.ms_p90": percentile(ms("core.gb_eval"), 90),
            "quadrature.outer.self_s": self_s("quadrature.outer"),
            "quadrature.outer.panels": counts["quadrature.outer.panels"],
            "quadrature.outer.evals": counts["quadrature.outer.evals"],
            "contour.plan.self_s": self_s("contour.plan"),
            "contour.plan.calls": len(by_name["contour.plan"]),
            "contour.integrate.self_s": self_s("contour.integrate"),
            "contour.integrate.calls": len(by_name["contour.integrate"]),
            "symbolic.evaluate_on.self_s": self_s("symbolic.evaluate_on"),
            "symbolic.evaluate_on.calls": len(by_name["symbolic.evaluate_on"]),
            "symbolic.normal_form.self_s": leaf_s["symbolic.normal_form"],
            "symbolic.normal_form.calls": counts["symbolic.normal_form.calls"],
            "operators.verify.ms_p50": percentile(ms("operators.verify"), 50),
            "operators.verify.ms_p90": percentile(ms("operators.verify"), 90),
            "operators.verify.calls": len(by_name["operators.verify"]),
            "operators.case_s": dur_s("operators.case"),
            "identities.case_s": dur_s("identities.case"),
            **{
                f"suites.{name}.wall_s": sum(
                    sp.duration for sp in suites if sp.info == name)
                for name in TRACED_SUITES
            },
            "suites.case_ms_p50": percentile([1e3 * sp.duration for sp in cases], 50),
            "suites.case_ms_p80": percentile([1e3 * sp.duration for sp in cases], 80),
            "suites.pool_busy_ratio": ratio(pooled_case_s, pooled_capacity_s),
            "cli.main.self_s": self_s("cli.main"),
            "reports.render.self_s": self_s("reports.render"),
        }
        return out
