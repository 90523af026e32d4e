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

Each identity is data: an integrand symbol, a bindings builder and a closed
form that is an exact Symbol too, so the closed form of one identity can be
substituted into and compared with another's by the exact algebra.
identity_steps is the step form of every integral identity in the package:
an integral at some bindings, then the closed-form symbol's evaluate_steps
at the same bindings; the operator laws use it with their own symbols.
"""

from __future__ import annotations

from .contour import integrate_contour_steps
from .core import EvalConfig, ModulusParam, as_modulus
from .symbolic import (
    GaussExponent,
    GaussRat,
    GbFactor,
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
    "identity_steps",
    "tau_binomial_integrand",
    "tau_binomial_bindings",
    "tau_binomial_closed",
    "tau_binomial_check",
    "six_nine_integrand",
    "six_nine_bindings",
    "six_nine_closed",
    "six_nine_check",
]

_I = GaussRat.of(1j)
_MINUS_I = GaussRat.of(-1j)


def identity_steps(
    spec: IntegrandSpec,
    closed: Symbol,
    bindings: dict,
    m: ModulusParam,
    cfg: EvalConfig | None = None,
    rel_tol: float | None = None,
):
    """Step form (see BoundSymbol.steps) of one integral identity: spec
    integrated at bindings, then the closed-form symbol closed evaluated at
    the same bindings.  Returns (integral value, closed form,
    IntegrationResult).  A closed form whose negative power sits on a zero
    of G_b raises PoleProximityError."""
    res = yield from integrate_contour_steps(spec, bindings, m, cfg=cfg, rel_tol=rel_tol)
    value = yield from closed.evaluate_steps(bindings, m, cfg)
    return res.value, value, res


def _ratio(num: tuple, den: tuple) -> Symbol:
    """The product of G_b over the forms num divided by that over den."""
    factors = [GbFactor(x, 1) for x in num] + [GbFactor(x, -1) for x in den]
    return Symbol.make(GaussExponent.zero(), factors)


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


def tau_binomial_bindings(alpha: complex, beta: complex, b) -> dict:
    """Generator values of tau_binomial_integrand at (alpha, beta)."""
    return {"Q": as_modulus(b).Q, "alpha": complex(alpha), "beta": complex(beta)}


def tau_binomial_closed() -> Symbol:
    """G(alpha) G(beta) / G(alpha + beta)."""
    alpha, beta = gen("alpha"), gen("beta")
    return _ratio((alpha, beta), (alpha + beta,))


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
    m = as_modulus(b)
    return run_steps(identity_steps(
        tau_binomial_integrand(), tau_binomial_closed(),
        tau_binomial_bindings(alpha, beta, m), m, cfg, rel_tol,
    ))


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


def six_nine_bindings(a: complex, b_arg: complex, c: complex, d: complex, b) -> dict:
    """Generator values of six_nine_integrand at (A, B, C, D)."""
    return {
        "Q": as_modulus(b).Q,
        "A": complex(a),
        "B": complex(b_arg),
        "C": complex(c),
        "D": complex(d),
    }


def six_nine_closed() -> Symbol:
    """The six-over-three product of G values at (A, B, C, D)."""
    a, bb, c, d = (gen(k) for k in "ABCD")
    return _ratio((a, bb, c, a + d, bb + d, c + d), (a + bb + d, a + c + d, bb + c + d))


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
    m = as_modulus(b)
    return run_steps(identity_steps(
        six_nine_integrand(), six_nine_closed(),
        six_nine_bindings(a, b_arg, c, d, m), m, cfg, rel_tol,
    ))
