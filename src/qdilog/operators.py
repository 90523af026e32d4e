"""Shift-operator algebra for complex divided powers.

Operators act on functions of the variable u as multiply-then-shift:

    (op f)(u) = symbol(u) * f(u + shift),

with the multiplier an exact Symbol and the shift an exact affine form.
Composition therefore stays inside the class:

    lhs o rhs = (lhs.symbol * rhs.symbol(u -> u + lhs.shift),
                 lhs.shift + rhs.shift).

The concrete operators built here are the imaginary powers K^{ip}, the
divided powers of the two ladder operators, and the imaginary powers of the
four Weyl-pair exponentials whose sums realize the ladder operators.  All
commutation laws among them reduce to identities between exact symbols, so
the verify_* functions return plain booleans computed without floating
point; by default the exponents are formal generators, and passing rational
values instead re-runs the same exact arithmetic at a concrete tuple.  The
numeric entry points evaluate both sides of the integral identities (the
binomial expansion of a Weyl-pair sum and the product-to-integral law for
E o F) through the contour engine.

Generator conventions: u and alpha are bare, everything else (bs, bt, bp,
btau, ...) carries one factor of b, which keeps every coefficient a
Gaussian rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .contour import integrate_contour_steps
from .core import EvalConfig, _near_lattice, as_modulus
from .errors import DegenerateParameterError
from .symbolic import (
    AffineForm,
    GR_I,
    GaussExponent,
    GaussRat,
    GbFactor,
    IntegrandSpec,
    Symbol,
    as_affine,
    const,
    gauss_from_products,
    gen,
    run_steps,
)

# Not called here: perfbench/tracing.py rebinds it in this module, so the
# name stays bound.
from .contour import integrate_contour  # noqa: F401

__all__ = [
    "ShiftOp",
    "OpIntegral",
    "compose",
    "scalar_op",
    "weyl_power",
    "make_K_pow",
    "make_E_div",
    "make_F_div",
    "verify_KK",
    "verify_KE",
    "verify_KF",
    "verify_EE",
    "verify_FF",
    "verify_weyl",
    "qbinomial_integral",
    "qbinomial_target",
    "kac_lhs",
    "kac_lhs_closed_form",
    "kac_rhs_integral",
    "kac_substitution_tuple",
    "RepParams",
    "make_rep_params",
    "rep_bindings",
    "qbinomial_value",
    "kac_values",
    "checked_rep_params",
    "rep_law_steps",
]

_I = GR_I
_HALF_I = GaussRat(Fraction(0), Fraction(1, 2))
_MINUS_I = GaussRat(Fraction(0), Fraction(-1))
_TWO_I = GaussRat(Fraction(0), Fraction(2))
# Closest a make_rep_params argument may come to a pole or zero of G_b.
_LATTICE_MARGIN = 1e-3


@dataclass(frozen=True)
class ShiftOp:
    """Normal form symbol(u) * translation of u by shift."""

    symbol: Symbol
    shift: AffineForm

    def __mul__(self, other: "ShiftOp") -> "ShiftOp":
        return compose(self, other)


@dataclass(frozen=True)
class OpIntegral:
    """A ShiftOp-valued integrand in one formal variable.

    Once the total shift is independent of the variable, integrating the
    operator is the same as integrating its symbol; spec() enforces that
    and hands the contour engine a plain scalar integrand.
    """

    variable: str
    integrand: ShiftOp

    def spec(self) -> IntegrandSpec:
        if not self.integrand.shift.coeff(self.variable).is_zero():
            raise AssertionError(
                f"shift {self.integrand.shift!r} still depends on "
                f"{self.variable}; the symbol integral is not defined"
            )
        return IntegrandSpec(self.integrand.symbol, self.variable)


def compose(lhs: ShiftOp, rhs: ShiftOp) -> ShiftOp:
    """Operator product lhs o rhs in normal form."""
    moved = rhs.symbol.substitute("u", gen("u") + lhs.shift)
    return ShiftOp(lhs.symbol * moved, lhs.shift + rhs.shift)


def scalar_op(symbol: Symbol) -> ShiftOp:
    return ShiftOp(symbol, const(0))


def _times_scalar(op: ShiftOp, symbol: Symbol) -> ShiftOp:
    return ShiftOp(symbol * op.symbol, op.shift)


def weyl_power(kind: str, sigma) -> ShiftOp:
    """Imaginary power W^{i sigma} of one Weyl-pair exponential.

    sigma is the b-scaled exponent (an affine form, generator name, or
    rational constant); the normal form follows from splitting the exponent
    into its multiplication and shift parts, with the central commutator
    supplying the quadratic phase.
    """
    x = as_affine(sigma)
    u, al = gen("u"), gen("alpha")
    patterns = {
        "U1": (_HALF_I, _MINUS_I, _I, -1),
        "V1": (-_HALF_I, _I, _MINUS_I, -1),
        "U2": (_HALF_I, _I, _I, +1),
        "V2": (-_HALF_I, _MINUS_I, _MINUS_I, +1),
    }
    if kind not in patterns:
        raise ValueError(f"unknown Weyl exponential {kind!r}")
    cxx, cu, ca, direction = patterns[kind]
    gauss = gauss_from_products([(x, x, cxx), (x, u, cu), (x, al, ca)])
    return ShiftOp(Symbol.from_gauss(gauss), x if direction > 0 else -x)


def make_K_pow(p) -> ShiftOp:
    """K^{ip} = exp(-2 pi i (bp) u); p is the b-scaled exponent."""
    x = as_affine(p)
    gauss = gauss_from_products([(x, gen("u"), GaussRat.of(-2j))])
    return ShiftOp(Symbol.from_gauss(gauss), const(0))


def _half_q_plus_i_alpha() -> AffineForm:
    return gen("Q").scale(Fraction(1, 2)) + gen("alpha").scale(_I)


def _divided_power(x, sign: int) -> ShiftOp:
    """Divided power of a ladder generator with exponent i*x.

    The raising generator (sign -1) and the lowering one (sign +1) differ
    only in the sign of the u terms and of the shift.
    """
    x = as_affine(x)
    su = gen("u").scale(sign)
    gauss = gauss_from_products([(x, x, _HALF_I), (x, su, _I), (x, gen("alpha"), _I)])
    base = _half_q_plus_i_alpha()
    sym = Symbol.make(
        gauss,
        (
            GbFactor(x.scale(_MINUS_I), 1),
            GbFactor(base + x.scale(_I) + su.scale(_I), 1),
            GbFactor(base + su.scale(_I), -1),
        ),
    )
    return ShiftOp(sym, x.scale(sign))


def make_E_div(s) -> ShiftOp:
    """Divided power of the raising generator, exponent i*s with bs = b*s."""
    return _divided_power(s, -1)


def make_F_div(t) -> ShiftOp:
    """Divided power of the lowering generator, exponent i*t with bt = b*t."""
    return _divided_power(t, +1)


# ---------------------------------------------------------------------------
# Exact commutation laws.  Arguments default to formal generators, which is
# the strongest form of each check; rational constants re-run the identical
# exact arithmetic at one parameter tuple.


def _as_arg(x, fallback: str) -> AffineForm:
    return gen(fallback) if x is None else as_affine(x)


def verify_KK(p1=None, p2=None) -> bool:
    p1 = _as_arg(p1, "bp1")
    p2 = _as_arg(p2, "bp2")
    lhs = compose(make_K_pow(p1), make_K_pow(p2))
    sw = compose(make_K_pow(p2), make_K_pow(p1))
    rhs = make_K_pow(p1 + p2)
    return lhs == rhs and sw == rhs


def _verify_cartan_ladder(sign: int, p, x) -> bool:
    """K^{ip} X = e^{2 pi i sign (bp)(bx)} X K^{ip} for the divided power X
    of _divided_power(x, sign)."""
    k_op, x_op = make_K_pow(p), _divided_power(x, sign)
    phase = Symbol.from_gauss(gauss_from_products([(p, x, _TWO_I * sign)]))
    return compose(k_op, x_op) == _times_scalar(compose(x_op, k_op), phase)


def verify_KE(p=None, s=None) -> bool:
    return _verify_cartan_ladder(-1, _as_arg(p, "bp"), _as_arg(s, "bs"))


def verify_KF(p=None, t=None) -> bool:
    return _verify_cartan_ladder(+1, _as_arg(p, "bp"), _as_arg(t, "bt"))


def _verify_ladder_product(maker, s1, s2) -> bool:
    x1, x2 = maker(s1), maker(s2)
    coeff = Symbol.make(
        GaussExponent.zero(),
        (
            GbFactor(s1.scale(_MINUS_I), 1),
            GbFactor(s2.scale(_MINUS_I), 1),
            GbFactor((s1 + s2).scale(_MINUS_I), -1),
        ),
    )
    rhs = _times_scalar(maker(s1 + s2), coeff)
    return compose(x1, x2) == rhs and compose(x2, x1) == rhs


def verify_EE(s1=None, s2=None) -> bool:
    return _verify_ladder_product(
        make_E_div, _as_arg(s1, "bs1"), _as_arg(s2, "bs2")
    )


def verify_FF(t1=None, t2=None) -> bool:
    return _verify_ladder_product(
        make_F_div, _as_arg(t1, "bt1"), _as_arg(t2, "bt2")
    )


def verify_weyl(sigma=None, rho=None) -> bool:
    """W^{i sigma} W'^{i rho} = e^{-2 pi i X Y} W'^{i rho} W^{i sigma} for both pairs."""
    x = _as_arg(sigma, "bs1")
    y = _as_arg(rho, "bs2")
    phase = Symbol.from_gauss(gauss_from_products([(x, y, GaussRat.of(-2j))]))
    ok = True
    for a, bname in (("U1", "V1"), ("U2", "V2")):
        lhs = compose(weyl_power(a, x), weyl_power(bname, y))
        rhs = _times_scalar(compose(weyl_power(bname, y), weyl_power(a, x)), phase)
        ok = ok and lhs == rhs
    return ok


# ---------------------------------------------------------------------------
# Binomial expansion of the raising power


def qbinomial_integral(swapped: bool = False) -> OpIntegral:
    """Binomial expansion of (U1 + V1)^{is} as an operator integral over btau.

    swapped exchanges which factor carries tau (with the coefficient kept,
    since it is symmetric under tau -> s - tau), which must not change the
    value.
    """
    s, tau = gen("bs"), gen("btau")
    coeff = Symbol.make(
        GaussExponent.zero(),
        (
            GbFactor(tau.scale(_MINUS_I), 1),
            GbFactor(s.scale(_MINUS_I) + tau.scale(_I), 1),
            GbFactor(s.scale(_MINUS_I), -1),
        ),
    )
    if swapped:
        w = compose(weyl_power("U1", tau), weyl_power("V1", s - tau))
    else:
        w = compose(weyl_power("U1", s - tau), weyl_power("V1", tau))
    return OpIntegral("btau", _times_scalar(w, coeff))


def qbinomial_target() -> Symbol:
    """Symbol of (U1 + V1)^{is}: the divided power with its prefactor removed."""
    s = gen("bs")
    return make_E_div(s).symbol * Symbol.gb(s.scale(_MINUS_I), -1)


# ---------------------------------------------------------------------------
# Product-to-integral law for E o F


def kac_lhs() -> ShiftOp:
    return compose(make_E_div(gen("bs")), make_F_div(gen("bt")))


def kac_lhs_closed_form() -> ShiftOp:
    """The composed E o F operator written out directly."""
    s, t, u, al = gen("bs"), gen("bt"), gen("u"), gen("alpha")
    gauss = gauss_from_products(
        [
            (s, s, _HALF_I),
            (t, t, _HALF_I),
            (s, t, _MINUS_I),
            (s, u, _MINUS_I),
            (t, u, _I),
            (s, al, _I),
            (t, al, _I),
        ]
    )
    base = _half_q_plus_i_alpha()
    sym = Symbol.make(
        gauss,
        (
            GbFactor(s.scale(_MINUS_I), 1),
            GbFactor(t.scale(_MINUS_I), 1),
            GbFactor(base + s.scale(_I) - u.scale(_I), 1),
            GbFactor(base + (t - s).scale(_I) + u.scale(_I), 1),
            GbFactor(base - u.scale(_I), -1),
            GbFactor(base - s.scale(_I) + u.scale(_I), -1),
        ),
    )
    return ShiftOp(sym, t - s)


def kac_rhs_integral() -> OpIntegral:
    """The E o F product as an operator integral over btau.

    Built by composing the shifted divided powers with the K power and the
    middle multiplier, then attaching the scalar exp(pi Q btau) G_b(i btau).
    The middle multiplier carries -2iu where the Cartan combination -bH
    appears, forced by H = 2i u / b.
    """
    s, t, tau, u = gen("bs"), gen("bt"), gen("btau"), gen("u")
    f_op = make_F_div(t + tau)
    k_op = make_K_pow(-tau)
    mid_head = u.scale(GaussRat.of(-2j)) + (s + t).scale(_I)
    mid = ShiftOp(
        Symbol.gb(mid_head + tau.scale(_I))
        * Symbol.gb(mid_head + tau.scale(_TWO_I), -1),
        const(0),
    )
    e_op = make_E_div(s + tau)
    composed = compose(compose(compose(f_op, k_op), mid), e_op)
    scalar = Symbol.from_gauss(
        gauss_from_products([(gen("Q"), tau, GaussRat.of(1))])
    ) * Symbol.gb(tau.scale(_I))
    return OpIntegral("btau", _times_scalar(composed, scalar))


def kac_substitution_tuple(params: "RepParams", u_value: complex) -> tuple:
    """(A, B, C, D) putting the E o F integral into six-to-nine form."""
    m = as_modulus(params.b)
    bs, bt = m.b * params.s, m.b * params.t
    uu = complex(u_value)
    a = -1j * bs
    b_arg = -1j * bt
    c = -2j * uu + 1j * bs - 1j * bt
    d = m.Q / 2 + 1j * params.alpha + 1j * bt + 1j * uu
    return a, b_arg, c, d


# ---------------------------------------------------------------------------
# Numeric parameters and checks


@dataclass(frozen=True)
class RepParams:
    """Numeric sample of the representation labels for integral checks."""

    b: complex
    alpha: float
    s: float
    t: float
    u_samples: tuple


def rep_bindings(params: RepParams, u_value: complex) -> dict:
    m = as_modulus(params.b)
    return {
        "Q": m.Q,
        "alpha": complex(params.alpha),
        "u": complex(u_value),
        "bs": m.b * params.s,
        "bt": m.b * params.t,
    }


def make_rep_params(
    b,
    alpha: float = 0.5,
    s: float = 0.3,
    t: float = 0.2,
    u_samples: tuple = (0.1, -0.23),
) -> RepParams:
    """Bundle representation labels, refusing degenerate combinations.

    Every dilogarithm argument appearing in the product law's two sides
    (at each u sample) must stay at least _LATTICE_MARGIN away from both
    the pole and the zero lattice, otherwise the numeric comparison is
    meaningless.
    """
    return checked_rep_params(
        (kac_lhs().symbol, qbinomial_target()), b, alpha, s, t, u_samples
    )


def checked_rep_params(
    static_syms,
    b,
    alpha: float = 0.5,
    s: float = 0.3,
    t: float = 0.2,
    u_samples: tuple = (0.1, -0.23),
) -> RepParams:
    """make_rep_params with the symbols it checks given: static_syms holds
    kac_lhs().symbol and qbinomial_target(), built once by the caller."""
    m = as_modulus(b)
    params = RepParams(b=complex(b), alpha=alpha, s=s, t=t, u_samples=tuple(u_samples))
    for u_value in params.u_samples:
        bindings = rep_bindings(params, u_value)
        for sym in static_syms:
            for f in sym.factors:
                z = f.argument.evaluate(bindings)
                if _near_lattice(z, m, _LATTICE_MARGIN).any():
                    raise DegenerateParameterError(
                        f"argument {z} sits within {_LATTICE_MARGIN:g} of a "
                        f"pole/zero lattice point; pick different representation labels"
                    )
    return params


def qbinomial_value(
    params: RepParams,
    u_value: complex,
    cfg: EvalConfig | None = None,
    rel_tol: float | None = None,
    swapped: bool = False,
) -> tuple:
    """(integral value, target, IntegrationResult) for the binomial expansion."""
    spec = qbinomial_integral(swapped=swapped).spec()
    return run_steps(
        rep_law_steps(spec, qbinomial_target(), params, u_value, cfg, rel_tol)
    )


def kac_values(
    params: RepParams,
    u_value: complex,
    cfg: EvalConfig | None = None,
    rel_tol: float | None = None,
) -> tuple:
    """(integral value, product value, IntegrationResult) for the E o F law."""
    spec = kac_rhs_integral().spec()
    return run_steps(
        rep_law_steps(spec, kac_lhs().symbol, params, u_value, cfg, rel_tol)
    )


def rep_law_steps(
    spec: IntegrandSpec,
    closed_form: Symbol,
    params: RepParams,
    u_value: complex,
    cfg: EvalConfig | None = None,
    rel_tol: float | None = None,
):
    """Step form of qbinomial_value and kac_values with the law's two sides
    given (see BoundSymbol.steps): the integral's G_b requests, then the
    closed form's.  Returns (integral value, closed form, IntegrationResult)."""
    m = as_modulus(params.b)
    bindings = rep_bindings(params, u_value)
    res = yield from integrate_contour_steps(spec, bindings, m, cfg=cfg, rel_tol=rel_tol)
    value = yield from closed_form.evaluate_steps(bindings, m, cfg)
    return res.value, value, res
