"""Closed-form integral identities checked through the contour engine.

Both identities live on a contour along the real axis that passes above
every descending pole fan and below every ascending one; the engine plans
that contour from the integrand symbol, so each check is LHS-from-engine
against RHS-from-direct-evaluation, two genuinely different code paths.

Variable conventions: the beta-weighted identity is stated in a variable
that enters every dilogarithm argument as b*tau, so the engine integrates
directly in v = b*tau; the identity's measure is the measure of that same
variable, and the engine value is the quoted value with no extra factor.
The six-to-nine identity is stated in a bare tau, same story.
"""

from __future__ import annotations

import numpy as np

from .contour import integrate_contour_steps
from .core import EvalConfig, as_modulus
from .symbolic import (
    GaussRat,
    IntegrandSpec,
    Symbol,
    gauss_from_products,
    gen,
    run_steps,
)

# Not called here: perfbench/tracing.py rebinds both names in this module,
# so they stay bound.
from .contour import integrate_contour  # noqa: F401
from .core import gb_eval_many  # noqa: F401

__all__ = [
    "tau_binomial_integrand",
    "tau_binomial_check",
    "tau_binomial_steps",
    "six_nine_integrand",
    "six_nine_check",
    "six_nine_steps",
]

_I = GaussRat.of(1j)
_MINUS_I = GaussRat.of(-1j)


def tau_binomial_integrand() -> IntegrandSpec:
    """exp(-2 pi b beta tau) G_b(alpha + i b tau) / G_b(Q + i b tau) over btau."""
    tau = gen("btau")
    gauss = gauss_from_products([(gen("beta"), tau, GaussRat.of(-2))])
    sym = (
        Symbol.from_gauss(gauss)
        * Symbol.gb(gen("alpha") + tau.scale(_I))
        * Symbol.gb(gen("Q") + tau.scale(_I), -1)
    )
    return IntegrandSpec(sym, "btau")


def tau_binomial_check(
    alpha: complex,
    beta: complex,
    b,
    cfg: EvalConfig | None = None,
    rel_tol: float | None = None,
) -> tuple:
    """(engine value, G(alpha)G(beta)/G(alpha+beta), IntegrationResult).

    Absolute convergence needs Re beta > 0 and Re(alpha + beta) < Re Q;
    outside that wedge the engine refuses the contour rather than guessing.
    """
    return run_steps(
        tau_binomial_steps(tau_binomial_integrand(), alpha, beta, b, cfg, rel_tol)
    )


def tau_binomial_steps(
    spec: IntegrandSpec,
    alpha: complex,
    beta: complex,
    b,
    cfg: EvalConfig | None = None,
    rel_tol: float | None = None,
):
    """Step form of tau_binomial_check with its integrand given (see
    BoundSymbol.steps): the integral's G_b requests, then the closed form's."""
    m = as_modulus(b)
    bindings = {"Q": m.Q, "alpha": complex(alpha), "beta": complex(beta)}
    res = yield from integrate_contour_steps(spec, bindings, m, cfg=cfg, rel_tol=rel_tol)
    ga, gb_, gab = yield np.array([alpha, beta, alpha + beta], dtype=complex), m, cfg
    return res.value, ga * gb_ / gab, res


def six_nine_integrand() -> IntegrandSpec:
    """exp(2 pi i tau^2 - 2 pi D tau) times five G factors over one, in bare tau."""
    tau = gen("tau")
    a, bb, c, d = gen("A"), gen("B"), gen("C"), gen("D")
    gauss = gauss_from_products(
        [(tau, tau, GaussRat.of(2j)), (d, tau, GaussRat.of(-2))]
    )
    sym = (
        Symbol.from_gauss(gauss)
        * Symbol.gb(a + tau.scale(_I))
        * Symbol.gb(bb + tau.scale(_I))
        * Symbol.gb(c + tau.scale(_I))
        * Symbol.gb(d + tau.scale(_MINUS_I))
        * Symbol.gb(tau.scale(_MINUS_I))
        * Symbol.gb(a + bb + c + d + tau.scale(_I), -1)
    )
    return IntegrandSpec(sym, "tau")


def six_nine_check(
    a: complex,
    b_arg: complex,
    c: complex,
    d: complex,
    b,
    cfg: EvalConfig | None = None,
    rel_tol: float | None = None,
) -> tuple:
    """(engine value, six-over-three product of G values, IntegrationResult)."""
    return run_steps(
        six_nine_steps(six_nine_integrand(), a, b_arg, c, d, b, cfg, rel_tol)
    )


def six_nine_steps(
    spec: IntegrandSpec,
    a: complex,
    b_arg: complex,
    c: complex,
    d: complex,
    b,
    cfg: EvalConfig | None = None,
    rel_tol: float | None = None,
):
    """Step form of six_nine_check with its integrand given (see
    BoundSymbol.steps): the integral's G_b requests, then the closed form's."""
    m = as_modulus(b)
    bindings = {
        "Q": m.Q,
        "A": complex(a),
        "B": complex(b_arg),
        "C": complex(c),
        "D": complex(d),
    }
    res = yield from integrate_contour_steps(spec, bindings, m, cfg=cfg, rel_tol=rel_tol)
    args = np.array(
        [a, b_arg, c, a + d, b_arg + d, c + d, a + b_arg + d, a + c + d, b_arg + c + d],
        dtype=complex,
    )
    g = yield args, m, cfg
    rhs = (g[0] * g[1] * g[2] * g[3] * g[4] * g[5]) / (g[6] * g[7] * g[8])
    return res.value, rhs, res
