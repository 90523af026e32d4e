"""Verification suites: grids of identity checks producing SuiteReports.

Each suite compares two independent routes to the same quantity (defining
integral vs product formula, contour integral vs closed form, composed
operator vs integral expansion, ...) and never reuses one side to compute
the other.  Numeric suites carry a relative tolerance; the exact suite has
none.  The consistency suite re-runs representative quadrature cases under
contour deformation and truncation doubling, requiring agreement within
the reported error estimates.

A suite is data: its run_* function lays out cases (label, inputs and a
callable that runs both routes and judges them) for the resolved modulus,
and the one runner, _run, times the suite, runs the cases and builds the
report.  The four contour-identity families are one table, _FAMILIES:
each family's integrand, its closed form (both exact symbols) and its
outer rel_tol.  Their suites list only (label, inputs, bind) per case, and
_run_family builds both symbols once per run and makes each case an
integral against its closed form; the consistency suite reads the same
table with bindings of its own.  Everything runs on the calling thread.
Plain cases run in case-index order.  Every numeric suite asks for G_b
through step generators (see BoundSymbol.steps), and cases that share one
batch share one generator (_shared).  These run in lockstep
(symbolic._lockstep): each round, every live generator's G_b points go
into one gb_eval_many call per modulus and config, so a suite makes about
as many calls as its slowest case has rounds.  Values from a
merged call can differ from a case's own call in the last bits, because
the strip sum of a batch depends on the batch; the public single-case
functions run the same driver on their one generator (run_steps) and keep
their bits.  Errors raised while laying out the cases propagate; an error
inside a case fails that case, and in a merged call only the case whose
own points raise.
"""

from __future__ import annotations

import inspect
import math
import operator
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import partial
from typing import Callable

import numpy as np

from .contour import ContourSpec, integrate_contour_steps
from .core import (
    EvalConfig,
    as_modulus,
    func_eq_general,
    gb_product_oracle,
    pole_limit,
    reduction_correction,
    strip_reduce,
    zero_limit,
)
from .errors import UnsupportedParameterError
from .identities import (
    identity_steps,
    six_nine_bindings,
    six_nine_closed,
    six_nine_integrand,
    tau_binomial_bindings,
    tau_binomial_closed,
    tau_binomial_integrand,
)
from .operators import (
    checked_rep_params,
    kac_lhs,
    kac_substitution_tuple,
    make_rep_params,
    qbinomial_target,
    rep_bindings,
    kac_rhs_integral,
    qbinomial_integral,
    verify_EE,
    verify_FF,
    verify_KE,
    verify_KF,
    verify_KK,
    verify_weyl,
)
from .reports import CaseResult, SuiteReport
from .symbolic import _lockstep

# The suites run the step forms of these and ask G_b of the lockstep driver;
# perfbench/tracing.py rebinds the names in this module, so they stay bound.
from .contour import integrate_contour  # noqa: F401
from .core import gb_eval_many  # noqa: F401
from .identities import six_nine_check, tau_binomial_check  # noqa: F401
from .operators import kac_values, qbinomial_value  # noqa: F401

__all__ = [
    "run_reflection",
    "run_funceq",
    "run_product_oracle",
    "run_pole_limits",
    "run_tau_binomial",
    "run_six_nine",
    "run_theorem31_exact",
    "run_q_binomial",
    "run_kac",
    "run_consistency",
    "SUITES",
    "run_suite",
]

DEFAULT_B = 0.8
DEFAULT_ALPHA = 0.5
DEFAULT_SEED = 20260817

# Each contour-identity family's integrand builder, closed-form builder and
# outer-integral rel_tol; its suite and its consistency cases both read them.
_FAMILIES = {
    "tau-binomial": (tau_binomial_integrand, tau_binomial_closed, 1e-8),
    "six-nine": (six_nine_integrand, six_nine_closed, 1e-7),
    "q-binomial": (lambda: qbinomial_integral().spec(), qbinomial_target, 1e-8),
    "kac": (lambda: kac_rhs_integral().spec(), lambda: kac_lhs().symbol, 1e-7),
}


@dataclass(frozen=True)
class _Case:
    """One comparison: check() runs both routes and returns the CaseResult
    fields other than index, label and inputs.  It may add inputs that only
    the run determines.

    check() may instead return a step generator (see BoundSymbol.steps)
    whose result is those fields.  With part set, check's result is shared
    with other cases (see _shared) and is a sequence whose item part is
    this case's fields, or the exception that only this case raised.
    """

    label: str
    inputs: dict
    check: Callable[[], dict]
    part: int | None = None


def _run(suite, b, cases, *, alpha, tol, config, seed=None) -> SuiteReport:
    """Time one suite: resolve b, lay out cases(m), run them and report.

    Plain checks run in case order; the step generators returned by the
    other checks then run together (_lockstep).  An exception inside a
    case becomes a failed case.
    """
    t0 = time.perf_counter()
    m = as_modulus(b)
    laid = cases(m)
    outcomes = [_result(case.check) for case in laid]
    jobs = list(dict.fromkeys(o for o in outcomes if inspect.isgenerator(o)))
    finished = dict(zip(jobs, _lockstep(jobs)))
    results = []
    for index, (case, outcome) in enumerate(zip(laid, outcomes)):
        if inspect.isgenerator(outcome):
            outcome = finished[outcome]
        if case.part is not None and not isinstance(outcome, Exception):
            outcome = outcome[case.part]
        if isinstance(outcome, Exception):  # honest failure, not a crash
            outcome = {
                "passed": False,
                "flags": ("error",),
                "detail": f"{type(outcome).__name__}: {outcome}",
            }
        fields = {"inputs": case.inputs, **outcome}
        results.append(CaseResult(index=index, label=case.label, **fields))
    return SuiteReport(
        suite=suite,
        b=complex(m.b),
        alpha=alpha,
        tol=tol,
        cases=results,
        seed=seed,
        config=config,
        elapsed_seconds=time.perf_counter() - t0,
    )


def _result(fn: Callable):
    """fn(), or the exception it raised."""
    try:
        return fn()
    except Exception as exc:
        return exc


def _shared(steps, layout) -> list:
    """Cases, one per (label, inputs) of layout, that share the step
    generator steps: case k's fields are item k of its result, and an
    exception it raises fails every case with one detail."""
    return [
        _Case(label, inputs, lambda: steps, part=k)
        for k, (label, inputs) in enumerate(layout)
    ]


def _contour_meta(res) -> dict:
    return {
        "baseline": res.contour.baseline,
        "n_indentations": len(res.contour.indentations),
        "truncation": [res.truncation[0], res.truncation[1]],
        "n_panels": res.n_panels,
        "n_evals": res.n_evals,
    }


def _relative(a: complex, b: complex) -> float:
    scale = max(abs(a), abs(b), 1e-300)
    return abs(a - b) / scale


def _compare(lhs, rhs, tol, res=None) -> dict:
    """Relative comparison of two routes; res is the contour integral behind
    one of them and supplies the error estimate."""
    dev = float(_relative(lhs, rhs))
    return {
        "passed": dev <= tol,
        "lhs": complex(lhs),
        "rhs": complex(rhs),
        "deviation": dev,
        "tol": float(tol),
        "err_estimate": None if res is None else float(res.err_estimate),
        "contour": None if res is None else _contour_meta(res),
    }


def _run_family(family, b, entries, *, alpha, tol, cfg, config, seed=None) -> SuiteReport:
    """Run the suite of one identity family of _FAMILIES.

    entries(m) lists each case's (label, inputs, bind).  The case is a step
    generator (see BoundSymbol.steps): the family's integral against its
    closed form (see identity_steps) at the bindings bind() returns.  bind
    runs inside the case, so labels it refuses fail only this case.  Both
    symbols are built once per run.
    """
    integrand, closed, rel_tol = _FAMILIES[family]

    def cases(m):
        spec, symbol = integrand(), closed()

        def check(bind):
            lhs, rhs, res = yield from identity_steps(spec, symbol, bind(), m, cfg, rel_tol)
            return _compare(lhs, rhs, tol, res)

        return [_Case(label, inputs, partial(check, bind)) for label, inputs, bind in entries(m)]

    return _run(family, b, cases, alpha=alpha, tol=tol, seed=seed,
                config={**config, "rel_tol": rel_tol})


def _rep_entries(m, rows) -> list:
    """Entries (see _run_family) of rep-label rows: each row maps s, t and
    alpha (those it sets) and u to values, and its label lists them in
    order.  A case's bind refuses labels that come near the lattice."""
    static = (kac_lhs().symbol, qbinomial_target())

    def bind(u, **labels):
        return rep_bindings(checked_rep_params(static, m.b, u_samples=(u,), **labels), u)

    return [
        (" ".join(f"{k}={v}" for k, v in row.items()), row, partial(bind, **row))
        for row in rows
    ]


# ---------------------------------------------------------------------------
# Core-function suites


def run_reflection(
    b=DEFAULT_B,
    alpha=None,
    tol: float = 1e-9,
    cfg: EvalConfig | None = None,
    n: int = 10,
) -> SuiteReport:
    """G(z) G(Q-z) against exp(pi i z (z - Q)) on an n x n strip grid."""

    def cases(m):
        req = m.Q.real
        xs = [req * (i + 0.5) / n for i in range(n)]
        ys = [-0.9 + 1.8 * j / max(n - 1, 1) for j in range(n)]
        zs = np.array([x + 1j * y for x in xs for y in ys])

        def steps():
            g = yield np.concatenate([zs, m.Q - zs]), m, cfg
            return [
                _compare(g[k] * g[len(zs) + k], np.exp(1j * math.pi * z * (z - m.Q)), tol)
                for k, z in enumerate(zs)
            ]

        # One batched request: a failed evaluation fails every case, with
        # one detail, and not the layout.
        return _shared(steps(), [(f"z={z:.6g}", {"z": complex(z)}) for z in zs])

    return _run("reflection", b, cases, alpha=alpha, tol=tol, config={"n": n})


# Strip points of the shift-equation suite: (fraction of Re Q, Im z).
_FUNCEQ_POINTS = ((0.23, 0.27), (0.47, -0.41), (0.62, 0.55), (0.86, -0.18))


def run_funceq(
    b=DEFAULT_B,
    alpha=None,
    tol: float = 1e-9,
    cfg: EvalConfig | None = None,
    max_order: int = 2,
) -> SuiteReport:
    """Shift equation in both periods: G(z + n1 b + n2/b) vs factor * G(z)."""
    orders = [(n1, n2) for n1 in range(max_order + 1) for n2 in range(max_order + 1)]

    def cases(m):
        z0s = [complex(f * m.Q.real, y) for f, y in _FUNCEQ_POINTS]
        shifted = [z + n1 * m.b + n2 * m.b_inv for z in z0s for n1, n2 in orders]
        grid = [(iz, z, n1, n2) for iz, z in enumerate(z0s) for n1, n2 in orders]

        def steps():
            g = yield np.array(z0s + shifted), m, cfg
            return [
                _compare(g[len(z0s) + k], func_eq_general(z, n1, n2, m) * g[iz], tol)
                for k, (iz, z, n1, n2) in enumerate(grid)
            ]

        return _shared(steps(), [
            (f"z={z:.4g} shift=({n1},{n2})", {"z": z, "n1": n1, "n2": n2})
            for _, z, n1, n2 in grid
        ])

    config = {"max_order": max_order, "n_points": len(_FUNCEQ_POINTS)}
    return _run("funceq", b, cases, alpha=alpha, tol=tol, config=config)


def run_product_oracle(
    b=0.6 + 0.1j,
    alpha=None,
    tol: float = 1e-8,
    cfg: EvalConfig | None = None,
    n: int = 20,
) -> SuiteReport:
    """Defining-integral route against the double infinite product."""

    def cases(m):
        if (m.b * m.b).imag <= 0:
            raise UnsupportedParameterError(
                f"product representation needs Im(b^2) > 0; b = {m.b} has "
                f"Im(b^2) = {(m.b * m.b).imag:g}"
            )
        req = m.Q.real
        xs = np.array([req * (k + 0.5) / n for k in range(n)])

        def steps():
            lhs = yield xs, m, cfg
            # The oracle runs per case, so a point it refuses fails only
            # its own case.
            return [
                _result(lambda: _compare(v, gb_product_oracle(complex(x), m), tol))
                for v, x in zip(lhs, xs)
            ]

        return _shared(steps(), [(f"x={x:.6g}", {"x": complex(x)}) for x in xs])

    return _run("product-oracle", b, cases, alpha=alpha, tol=tol, config={"n": n})


def run_pole_limits(
    b=DEFAULT_B,
    alpha=None,
    tol: float = 1e-5,
    cfg: EvalConfig | None = None,
) -> SuiteReport:
    """Richardson-extrapolated x*G(x - lattice) and x/G(x + Q + lattice).

    Two probe sizes a decade apart kill the linear error term; the
    extrapolated limit must match the closed-form residue products.
    """
    probes = (1e-3, 1e-4)

    def cases(m):
        kinds = (
            ("pole", operator.mul, pole_limit,
             lambda n1, n2: -n1 * m.b - n2 * m.b_inv),
            ("zero", operator.truediv, zero_limit,
             lambda n1, n2: m.Q + n1 * m.b + n2 * m.b_inv),
        )

        def check(shift, op, target):
            g = yield np.array([x + shift for x in probes]), m, cfg
            f = [op(x, complex(v)) for x, v in zip(probes, g)]
            return _compare((10.0 * f[1] - f[0]) / 9.0, target, tol)

        # The closed forms are evaluated here, so a resonant modulus is
        # refused before any case runs.
        return [
            _Case(
                f"{kind} ({n1},{n2})",
                {"n1": n1, "n2": n2, "probes": list(probes)},
                partial(check, shift(n1, n2), op, limit(n1, n2, m)),
            )
            for kind, op, limit, shift in kinds
            for n1, n2 in ((0, 0), (1, 0), (0, 1))
        ]

    return _run(
        "pole-limits", b, cases, alpha=alpha, tol=tol, config={"probes": list(probes)}
    )


# ---------------------------------------------------------------------------
# Contour-identity suites


def run_tau_binomial(
    b=DEFAULT_B,
    alpha=None,
    tol: float = 1e-6,
    cfg: EvalConfig | None = None,
    n: int = 5,
) -> SuiteReport:
    """Beta-integral identity on an n x n (alpha, beta) grid.

    Grid points Q*k/12 for k = 1..n keep every pair inside the absolute
    convergence wedge Re(alpha + beta) < Re Q when n <= 5.
    """

    def entries(m):
        grid = [m.Q * k / 12 for k in range(1, n + 1)]
        return [
            (f"alpha={a:.4g} beta={be:.4g}", {"alpha": a, "beta": be},
             partial(tau_binomial_bindings, a, be, m))
            for a in grid
            for be in grid
        ]

    return _run_family("tau-binomial", b, entries, alpha=alpha, tol=tol, cfg=cfg,
                       config={"n": n})


def _six_nine_tuples(m, rng, n_random: int):
    req = m.Q.real
    tuples = []
    for _ in range(n_random):
        re3 = rng.uniform(0.12, 0.20, size=3) * req
        im3 = rng.uniform(-0.05, 0.05, size=3)
        red = rng.uniform(0.10, 0.18) * req
        imd = rng.uniform(-0.05, 0.05)
        tuples.append(
            (
                re3[0] + 1j * im3[0],
                re3[1] + 1j * im3[1],
                re3[2] + 1j * im3[2],
                red + 1j * imd,
            )
        )
    return tuples


def run_six_nine(
    b=DEFAULT_B,
    alpha=DEFAULT_ALPHA,
    tol: float = 1e-5,
    cfg: EvalConfig | None = None,
    seed: int = DEFAULT_SEED,
    n_random: int = 10,
) -> SuiteReport:
    """Six-over-three G ratio vs the contour integral, random + named tuples."""

    def entries(m):
        rng = np.random.default_rng(seed)
        kinds = [("random", t) for t in _six_nine_tuples(m, rng, n_random)]
        kinds.append(("named-1", (m.Q / 6, m.Q / 7, m.Q / 9, m.Q / 4 + 0.1j)))
        kinds.append(("named-2", (m.Q / 8, m.Q / 8, m.Q / 8, m.Q / 3)))
        params = make_rep_params(m.b, alpha=alpha)
        kac_tuple = kac_substitution_tuple(params, params.u_samples[0])
        kinds.append(("kac-substitution", kac_tuple))
        return [
            (f"{kind} A={a:.3g} B={b_arg:.3g} C={c:.3g} D={d:.3g}",
             {"A": a, "B": b_arg, "C": c, "D": d, "kind": kind},
             partial(six_nine_bindings, a, b_arg, c, d, m))
            for kind, (a, b_arg, c, d) in kinds
        ]

    return _run_family("six-nine", b, entries, alpha=alpha, tol=tol, cfg=cfg,
                       seed=seed, config={"n_random": n_random})


# ---------------------------------------------------------------------------
# Operator suites


def run_theorem31_exact(
    b=DEFAULT_B,
    alpha=None,
    tol=None,
    cfg=None,
    seed: int = DEFAULT_SEED,
    n: int = 10,
) -> SuiteReport:
    """Exact normal-form checks of the five commutation laws.

    Case 0 runs on pure formal generators (the strongest statement); the
    seeded cases re-run the same exact arithmetic at rational parameter
    tuples.  There is no tolerance anywhere.
    """

    def check(args):
        checks = {
            "KK": verify_KK(args.get("p1"), args.get("p2")),
            "KE": verify_KE(args.get("p"), args.get("s")),
            "KF": verify_KF(args.get("p"), args.get("t")),
            "EE": verify_EE(args.get("s1"), args.get("s2")),
            "FF": verify_FF(args.get("t1"), args.get("t2")),
            "weyl": verify_weyl(args.get("s1"), args.get("s2")),
        }
        detail = ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in checks.items())
        return {"passed": all(checks.values()), "mode": "exact", "detail": detail}

    def cases(m):
        rng = np.random.default_rng(seed)
        draws = [
            {
                name: Fraction(int(rng.integers(1, 40)), int(rng.integers(1, 5)) * 8)
                for name in ("p1", "p2", "p", "s", "t", "s1", "s2", "t1", "t2")
            }
            for _ in range(n)
        ]
        labelled = [("formal generators", {})] + [
            ("rational tuple " + ", ".join(f"{k}={v}" for k, v in sorted(d.items())), d)
            for d in draws
        ]
        return [
            _Case(label, {k: str(v) for k, v in args.items()}, partial(check, args))
            for label, args in labelled
        ]

    return _run(
        "theorem31-exact", b, cases, alpha=alpha, tol=None, seed=seed, config={"n": n}
    )


def run_q_binomial(
    b=DEFAULT_B,
    alpha=DEFAULT_ALPHA,
    tol: float = 1e-6,
    cfg: EvalConfig | None = None,
) -> SuiteReport:
    """Binomial expansion of (U1+V1)^{is} against the divided-power symbol."""
    rows = [
        {"s": 0.4, "alpha": alpha, "u": 0.1},
        {"s": 0.4, "alpha": alpha, "u": -0.2},
        {"s": 0.25, "alpha": 0.35, "u": 0.15},
        {"s": 0.55, "alpha": alpha, "u": -0.1},
    ]
    return _run_family("q-binomial", b, partial(_rep_entries, rows=rows), alpha=alpha,
                       tol=tol, cfg=cfg, config={"n": len(rows)})


_KAC_TUPLES = {
    0.8: [
        (0.3, 0.2, 0.5, 0.1),
        (0.3, 0.2, 0.5, -0.23),
        (0.45, 0.15, 0.5, 0.1),
        (0.25, 0.35, 0.4, 0.12),
        (0.5, 0.3, 0.65, -0.18),
        (0.2, 0.45, 0.55, 0.14),
        (0.35, 0.3, 0.45, 0.21),
        (0.4, 0.2, 0.6, -0.12),
    ],
    0.6: [
        (0.3, 0.2, 0.5, 0.15),
        (0.4, 0.25, 0.45, -0.2),
        (0.5, 0.35, 0.6, 0.12),
        (0.25, 0.5, 0.55, -0.1),
    ],
}


def run_kac(
    b=DEFAULT_B,
    alpha=None,
    tol: float = 1e-5,
    cfg: EvalConfig | None = None,
    tuples=None,
) -> SuiteReport:
    """Composed E o F against its contour-integral expansion.

    Tuples are (s, t, alpha, u); an explicit alpha argument overrides the
    per-tuple weight.
    """
    if tuples is None:
        tuples = _KAC_TUPLES.get(round(float(np.real(b)), 6), _KAC_TUPLES[0.8][:4])
    rows = [
        {"s": s, "t": t, "alpha": al if alpha is None else alpha, "u": u}
        for s, t, al, u in tuples
    ]
    return _run_family("kac", b, partial(_rep_entries, rows=rows), alpha=alpha,
                       tol=tol, cfg=cfg, config={"n": len(rows)})


# ---------------------------------------------------------------------------
# Consistency suite (contour independence, truncation doubling)


def _deformed(contour: ContourSpec) -> ContourSpec:
    """A different admissible contour for the same integrand."""
    if contour.indentations:
        scale = 1.35
        centers = sorted(i.center for i in contour.indentations)
        if len(centers) >= 2:
            min_gap = min(b - a for a, b in zip(centers, centers[1:]))
            cap = 0.45 * min_gap
        else:
            cap = math.inf
        new = tuple(
            replace(i, radius=min(i.radius * scale, cap))
            for i in contour.indentations
        )
        return replace(contour, indentations=new)
    room = contour.gap_hi - contour.baseline
    shift = 0.35 if math.isinf(room) else 0.35 * room
    return replace(contour, baseline=contour.baseline + shift)


def _consistency_pair(spec, bindings, m, cfg, rel_tol):
    """Step generator (see BoundSymbol.steps) of the outcomes of one
    integral against a deformed contour and against a doubled truncation,
    each agreeing within the two error estimates."""
    res0 = yield from integrate_contour_steps(spec, bindings, m, cfg=cfg, rel_tol=rel_tol)
    t_max = max(res0.truncation)
    variants = (
        ({"deformation": "radius" if res0.contour.indentations else "shift"},
         _deformed(res0.contour)),
        ({"truncation": 2.0 * t_max}, replace(res0.contour, truncation=2.0 * t_max)),
    )
    outcomes = []
    for inputs, contour in variants:
        res = yield from integrate_contour_steps(
            spec, bindings, m, contour=contour, cfg=cfg, rel_tol=rel_tol
        )
        scale = max(abs(res0.value), abs(res.value), 1e-300)
        bound = res0.err_estimate + res.err_estimate + 1e-14 * scale
        outcomes.append({
            **_compare(res0.value, res.value, bound / scale, res),
            "err_estimate": bound,
            "inputs": inputs,
        })
    return outcomes


def run_consistency(
    b=DEFAULT_B,
    alpha=DEFAULT_ALPHA,
    tol=None,
    cfg: EvalConfig | None = None,
) -> SuiteReport:
    """Same quantities under different numerics must agree within estimates.

    Strip-integral checks: truncation-margin increase, extended precision,
    and the array reduction walk against the scalar shift equation.  Contour
    checks: every quadrature identity family re-run on a deformed contour
    and a doubled truncation.
    """
    cfg = cfg or EvalConfig()

    def cases(m):
        z = 0.3 * m.Q.real + 0.2j

        def strip(variant):
            # Both strip checks ask for z at cfg in the first round, where
            # their requests merge and gb_eval_many sums z once.
            (v0,) = yield np.array([z]), m, cfg
            (v,) = yield np.array([z]), m, variant
            return _compare(complex(v0), complex(v), 2 * cfg.rel_tol)

        # zr lies 3.5 large steps right of the band's middle, so -n1, -n2
        # are the shift equation's nonnegative counts and, at every b != 1,
        # the walk takes three large steps and at least one small one (at
        # b = 0.8, zr = 5.4+0.35i).
        zr = 0.5 * m.Q.real + 3.5 * max(m.b.real, m.b_inv.real) + 0.35j

        def walk():
            red = strip_reduce(zr, m)
            shift_eq = func_eq_general(red.z0, -red.n1, -red.n2, m)
            return _compare(reduction_correction(red, m), shift_eq, 1e-12)

        out = [
            _Case("strip truncation-margin +1 decade", {"z": z}, partial(
                strip, replace(cfg, trunc_margin=cfg.trunc_margin + 1.0))),
            _Case("strip extended precision", {"z": z}, partial(
                strip, replace(cfg, precision="extended"))),
            _Case("reduction walk vs shift equation", {"z": zr}, walk),
        ]

        def rep(**labels):
            return rep_bindings(make_rep_params(m.b, u_samples=(0.1,), **labels), 0.1)

        bindings = {
            "tau-binomial": tau_binomial_bindings(m.Q / 6, m.Q / 6, m),
            "six-nine": six_nine_bindings(m.Q / 6, m.Q / 7, m.Q / 9, m.Q / 4 + 0.1j, m),
            "q-binomial": rep(alpha=alpha, s=0.4),
            "kac": rep(alpha=0.5, s=0.3, t=0.2),
        }
        for family, (integrand, _, rel_tol) in _FAMILIES.items():
            # The pair's two cases share one generator, so the base value is
            # integrated once.
            pair = _consistency_pair(integrand(), bindings[family], m, cfg, rel_tol)
            variants = ("contour-deformed", "truncation-doubled")
            out += _shared(pair, [(f"{family} {v}", {}) for v in variants])
        return out

    return _run("consistency", b, cases, alpha=alpha, tol=None, config={})


# ---------------------------------------------------------------------------
# Registry


@dataclass(frozen=True)
class _Suite:
    run: Callable[..., SuiteReport]
    small: dict = field(default_factory=dict)  # arguments of the small grid


_TABLE = {
    "reflection": _Suite(run_reflection, {"n": 4}),
    "funceq": _Suite(run_funceq),
    "product-oracle": _Suite(run_product_oracle, {"n": 6}),
    "pole-limits": _Suite(run_pole_limits),
    "tau-binomial": _Suite(run_tau_binomial, {"n": 2}),
    "six-nine": _Suite(run_six_nine, {"n_random": 2}),
    "theorem31-exact": _Suite(run_theorem31_exact, {"n": 3}),
    "q-binomial": _Suite(run_q_binomial),
    "kac": _Suite(run_kac, {"tuples": _KAC_TUPLES[0.8][:2]}),
    "consistency": _Suite(run_consistency),
}

SUITES = {name: suite.run for name, suite in _TABLE.items()}


def run_suite(
    name: str,
    b=None,
    alpha=None,
    tol=None,
    seed=None,
    grid: str = "default",
    cfg: EvalConfig | None = None,
) -> SuiteReport:
    """Dispatch one named suite with per-suite defaults for omitted options.

    A seed for a suite that draws nothing is refused, not ignored.
    """
    suite = _TABLE[name]
    if grid not in ("default", "small"):
        raise ValueError(f"unknown grid {grid!r}")
    if seed is not None and "seed" not in inspect.signature(suite.run).parameters:
        raise ValueError(f"suite {name!r} draws nothing at random and takes no seed")
    given = {
        "b": b,
        "alpha": alpha,
        "tol": tol,
        "seed": seed,
        "cfg": cfg,
    }
    kwargs = {k: v for k, v in given.items() if v is not None}
    if grid == "small":
        kwargs.update(suite.small)
    return suite.run(**kwargs)
