"""Exact symbol algebra for products of dilogarithm factors.

Everything here is exact: coefficients are Gaussian rationals (a + b i) / d
held as three Python ints in lowest terms, arguments of dilogarithm factors
are affine forms over named generators, and exponential prefactors are
quadratic forms in those generators with Gaussian-rational coefficients, in
units of pi.  No float enters this layer until a symbol is evaluated.

Generators stand for already-b-scaled real quantities (bs for b*s, btau for
b*tau, ...) plus the special names u, alpha, Q and the constant generator
'unit', which every numeric binding maps to 1.  Scaling this way keeps all
the coefficients appearing in the algebra exact.

A Symbol is exp(pi * quadratic form) times a product of G_b factors with
integer exponents; it multiplies, inverts, substitutes and evaluates, which
is everything the shift-operator layer and the contour engine need.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from math import gcd
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import (
    EvalConfig,
    ModulusParam,
    gb_eval_many,
    nearest_lattice_point,
)
from .errors import PoleProximityError

__all__ = [
    "GaussRat",
    "GR_ZERO",
    "GR_ONE",
    "GR_I",
    "AffineForm",
    "gen",
    "const",
    "GaussExponent",
    "gauss_from_products",
    "GbFactor",
    "Symbol",
    "symbol_equal_exact",
    "IntegrandSpec",
]

_DEFAULT_CFG = EvalConfig()


@total_ordering
class GaussRat:
    """Gaussian rational (a + b i) / d, held as three ints.

    The normal form has d > 0 and gcd(a, b, d) = 1, so two values are equal
    exactly when their triples are.  Each operation normalises its result
    once; .re and .im are Fraction views of the parts.  The hash is cached
    on first use.  Values order as the pairs (re, im) do, compared by int
    cross-multiplication, which is exact because both denominators are
    positive.
    """

    __slots__ = ("_a", "_b", "_d", "_hash")

    def __init__(self, re=0, im=0):
        re, im = Fraction(re), Fraction(im)
        p, q = re.numerator, re.denominator
        r, s = im.numerator, im.denominator
        # With each part in lowest terms, (p (d/q), r (d/s), d) over the
        # least common denominator d is already in normal form.
        d = q // gcd(q, s) * s
        self._a = p * (d // q)
        self._b = r * (d // s)
        self._d = d

    @staticmethod
    def of(x) -> "GaussRat":
        if isinstance(x, GaussRat):
            return x
        if isinstance(x, int):
            return _raw(x, 0, 1)
        if isinstance(x, Fraction):
            return _raw(x.numerator, 0, x.denominator)
        if isinstance(x, tuple) and len(x) == 2:
            return GaussRat(x[0], x[1])
        if isinstance(x, (float, complex)):
            # Literals like 2.0 or -1j are welcome; anything with a fractional
            # binary part must be spelled as a Fraction pair to stay exact.
            # is_integer() is False for nan and inf as well.
            re, im = complex(x).real, complex(x).imag
            if re.is_integer() and im.is_integer():
                return _raw(int(re), int(im), 1)
        raise TypeError(f"cannot interpret {x!r} as a Gaussian rational")

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def __add__(self, other) -> "GaussRat":
        if other.__class__ is not GaussRat:
            other = GaussRat.of(other)
        d, e = self._d, other._d
        if d == e:
            return _normal(self._a + other._a, self._b + other._b, d)
        return _normal(self._a * e + other._a * d, self._b * e + other._b * d, d * e)

    def __sub__(self, other) -> "GaussRat":
        if other.__class__ is not GaussRat:
            other = GaussRat.of(other)
        return self + (-other)

    def __neg__(self) -> "GaussRat":
        return _raw(-self._a, -self._b, self._d)

    def __mul__(self, other) -> "GaussRat":
        if other.__class__ is not GaussRat:
            other = GaussRat.of(other)
        a, b, c, e = self._a, self._b, other._a, other._b
        return _normal(a * c - b * e, a * e + b * c, self._d * other._d)

    def __truediv__(self, other) -> "GaussRat":
        if other.__class__ is not GaussRat:
            other = GaussRat.of(other)
        a, b, c, e = self._a, self._b, other._a, other._b
        n = c * c + e * e
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        f = other._d
        return _normal(f * (a * c + b * e), f * (b * c - a * e), self._d * n)

    def __eq__(self, other):
        if other.__class__ is not GaussRat:
            return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            self._hash = h = hash((self._a, self._b, self._d))
            return h

    def is_zero(self) -> bool:
        return not self._a and not self._b

    def __complex__(self) -> complex:
        # int / int is correctly rounded, the same float as float(Fraction).
        return complex(self._a / self._d, self._b / self._d)

    def __lt__(self, other):
        if other.__class__ is not GaussRat:
            return NotImplemented
        d, e = self._d, other._d
        x, y = self._a * e, other._a * d
        if x == y:
            return self._b * e < other._b * d
        return x < y

    def __repr__(self) -> str:
        re, im = self.re, self.im
        if im == 0:
            return f"{re}"
        if re == 0:
            return f"{im}i"
        return f"({re}{'+' if im >= 0 else ''}{im}i)"


def _raw(a: int, b: int, d: int) -> GaussRat:
    """The GaussRat (a + b i) / d of a triple already in normal form."""
    g = object.__new__(GaussRat)
    g._a = a
    g._b = b
    g._d = d
    return g


def _normal(a: int, b: int, d: int) -> GaussRat:
    """The GaussRat (a + b i) / d for any d > 0."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    return _raw(a, b, d)


GR_ZERO = GaussRat()
GR_ONE = GaussRat(Fraction(1))
GR_I = GaussRat(Fraction(0), Fraction(1))

def _lookup(bindings: Mapping[str, complex], name: str) -> complex:
    if name == "unit":
        return 1.0 + 0j
    try:
        return complex(bindings[name])
    except KeyError:
        raise KeyError(f"no binding for generator {name!r}") from None


@dataclass(frozen=True)
class AffineForm:
    """Exact affine combination sum_k c_k * g_k + c0 of generators."""

    terms: tuple  # ((name, GaussRat), ...) sorted by name, no zeros
    const: GaussRat = GR_ZERO

    @staticmethod
    def make(terms: Iterable[tuple], const=GR_ZERO) -> "AffineForm":
        const = GaussRat.of(const)
        acc: dict[str, GaussRat] = {}
        for name, c in terms:
            if c.__class__ is not GaussRat:
                c = GaussRat.of(c)
            if name == "unit":
                const = const + c
            elif name in acc:
                acc[name] = acc[name] + c
            else:
                acc[name] = c
        cleaned = tuple(sorted((n, c) for n, c in acc.items() if not c.is_zero()))
        return AffineForm(cleaned, const)

    def __add__(self, other) -> "AffineForm":
        o = as_affine(other)
        return AffineForm.make(self.terms + o.terms, self.const + o.const)

    def __sub__(self, other) -> "AffineForm":
        return self + (-as_affine(other))

    def __neg__(self) -> "AffineForm":
        return self.scale(-1)

    def scale(self, c) -> "AffineForm":
        # A nonzero factor keeps every term nonzero and in its place.
        c = GaussRat.of(c)
        if c.is_zero():
            return AffineForm((), GR_ZERO)
        return AffineForm(tuple((n, k * c) for n, k in self.terms), self.const * c)

    def coeff(self, name: str) -> GaussRat:
        for n, c in self.terms:
            if n == name:
                return c
        return GR_ZERO

    def drop(self, name: str) -> "AffineForm":
        return AffineForm.make(
            [(n, c) for n, c in self.terms if n != name], self.const
        )

    def substitute(self, name: str, form: "AffineForm") -> "AffineForm":
        c = self.coeff(name)
        if c.is_zero():
            return self
        return self.drop(name) + form.scale(c)

    def evaluate(self, bindings: Mapping[str, complex]) -> complex:
        total = complex(self.const)
        for n, c in self.terms:
            total += complex(c) * _lookup(bindings, n)
        return total

    def sort_key(self) -> tuple:
        return self.terms, self.const

    # Symbol.make hashes the same forms over and over, so each form keeps
    # its hash once computed (the fields are frozen).
    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash((self.terms, self.const))
            object.__setattr__(self, "_hash", h)
            return h

    def __repr__(self) -> str:
        parts = [f"{c}*{n}" for n, c in self.terms]
        if not self.const.is_zero() or not parts:
            parts.append(f"{self.const}")
        return " + ".join(parts)


def gen(name: str) -> AffineForm:
    """The affine form consisting of a single generator ('unit' is const(1))."""
    if not isinstance(name, str) or not name:
        raise TypeError("generator names are nonempty strings")
    if name == "unit":
        return AffineForm((), GR_ONE)
    return AffineForm(((name, GR_ONE),), GR_ZERO)


def const(c) -> AffineForm:
    return AffineForm((), GaussRat.of(c))


def as_affine(x) -> AffineForm:
    if isinstance(x, AffineForm):
        return x
    if isinstance(x, str):
        return gen(x)
    return const(GaussRat.of(x))


def _expand_product(f1: AffineForm, f2: AffineForm, c: GaussRat) -> list:
    """GaussExponent entries ((n1, n2), coefficient) of c * f1 * f2, each
    form's nonzero constant entering as the generator 'unit'."""
    t1, t2 = (
        f.terms if f.const.is_zero() else f.terms + (("unit", f.const),)
        for f in (f1, f2)
    )
    return [((n1, n2), c * c1 * c2) for n1, c1 in t1 for n2, c2 in t2]


@dataclass(frozen=True)
class GaussExponent:
    """Quadratic form sum c * g1 * g2 over generators, in units of pi.

    The numeric exponent is pi * sum_terms c * v(g1) * v(g2) with v('unit')
    = 1, so linear terms pair a generator with 'unit' and constants use
    ('unit', 'unit').  Addition of exponents is multiplication of the
    exponentials they represent.
    """

    terms: tuple  # (((name1, name2), GaussRat), ...), name1 <= name2, sorted

    @staticmethod
    def make(entries: Iterable[tuple]) -> "GaussExponent":
        acc: dict[tuple, GaussRat] = {}
        for (a, b), c in entries:
            key = (a, b) if a <= b else (b, a)
            if c.__class__ is not GaussRat:
                c = GaussRat.of(c)
            if key in acc:
                acc[key] = acc[key] + c
            else:
                acc[key] = c
        cleaned = tuple(sorted((p, c) for p, c in acc.items() if not c.is_zero()))
        return GaussExponent(cleaned)

    @staticmethod
    def zero() -> "GaussExponent":
        return GaussExponent(())

    def __add__(self, other: "GaussExponent") -> "GaussExponent":
        if not other.terms:
            return self
        if not self.terms:
            return other
        return GaussExponent.make(self.terms + other.terms)

    def __neg__(self) -> "GaussExponent":
        return self.scale(-1)

    def scale(self, c) -> "GaussExponent":
        # A nonzero factor keeps every term nonzero and in its place.
        c = GaussRat.of(c)
        if c.is_zero():
            return GaussExponent(())
        return GaussExponent(tuple((p, k * c) for p, k in self.terms))

    def coeff(self, name1: str, name2: str) -> GaussRat:
        p0 = (name1, name2) if name1 <= name2 else (name2, name1)
        for p, c in self.terms:
            if p == p0:
                return c
        return GR_ZERO

    def substitute(self, name: str, form: AffineForm) -> "GaussExponent":
        """Replace a generator by an affine form, re-expanding products."""
        if all(name not in p for p, _ in self.terms):
            return self
        entries = []
        for (a, b), c in self.terms:
            if a != name and b != name:
                entries.append(((a, b), c))
                continue
            fa = form if a == name else gen(a)
            fb = form if b == name else gen(b)
            entries += _expand_product(fa, fb, c)
        return GaussExponent.make(entries)

    def polynomial_in(self, name: str, bindings: Mapping[str, complex]):
        """Coefficients (c2, c1, c0) of the exponent as pi*(c2 v^2 + c1 v + c0)
        in the single unbound generator v = name."""
        c2 = 0j
        c1 = 0j
        c0 = 0j
        for (a, b), c in self.terms:
            cc = complex(c)
            if a == name and b == name:
                c2 += cc
            elif a == name:
                c1 += cc * _lookup(bindings, b)
            elif b == name:
                c1 += cc * _lookup(bindings, a)
            else:
                c0 += cc * _lookup(bindings, a) * _lookup(bindings, b)
        return c2, c1, c0

    def evaluate(self, bindings: Mapping[str, complex]) -> complex:
        """The exponent value pi * sum c * v(g1) * v(g2) (not exponentiated)."""
        total = 0j
        for (a, b), c in self.terms:
            total += complex(c) * _lookup(bindings, a) * _lookup(bindings, b)
        return cmath.pi * total


def gauss_from_products(
    products: Sequence[tuple],
) -> GaussExponent:
    """GaussExponent from (affine, affine, coeff) triples: sum c * f1 * f2."""
    entries = []
    for f1, f2, c in products:
        entries += _expand_product(as_affine(f1), as_affine(f2), GaussRat.of(c))
    return GaussExponent.make(entries)


@dataclass(frozen=True)
class GbFactor:
    """One dilogarithm factor G_b(argument)^exponent."""

    argument: AffineForm
    exponent: int


@dataclass(frozen=True)
class Symbol:
    """exp(pi * gauss) times a product of dilogarithm factors."""

    gauss: GaussExponent
    factors: tuple  # (GbFactor, ...) canonical

    @staticmethod
    def make(gauss: GaussExponent, factors: Iterable[GbFactor]) -> "Symbol":
        acc: dict[AffineForm, int] = {}
        for f in factors:
            acc[f.argument] = acc.get(f.argument, 0) + f.exponent
        cleaned = tuple(
            sorted(
                (GbFactor(a, e) for a, e in acc.items() if e != 0),
                key=lambda f: f.argument.sort_key(),
            )
        )
        return Symbol(gauss, cleaned)

    @staticmethod
    def one() -> "Symbol":
        return Symbol(GaussExponent.zero(), ())

    @staticmethod
    def from_gauss(gauss: GaussExponent) -> "Symbol":
        return Symbol.make(gauss, ())

    @staticmethod
    def gb(argument, exponent: int = 1) -> "Symbol":
        return Symbol.make(
            GaussExponent.zero(), (GbFactor(as_affine(argument), exponent),)
        )

    def __mul__(self, other: "Symbol") -> "Symbol":
        return Symbol.make(self.gauss + other.gauss, self.factors + other.factors)

    def inverse(self) -> "Symbol":
        return Symbol.make(
            -self.gauss,
            tuple(GbFactor(f.argument, -f.exponent) for f in self.factors),
        )

    def substitute(self, name: str, form: AffineForm) -> "Symbol":
        return Symbol.make(
            self.gauss.substitute(name, form),
            tuple(
                GbFactor(f.argument.substitute(name, form), f.exponent)
                for f in self.factors
            ),
        )

    def evaluate(
        self,
        bindings: Mapping[str, complex],
        m: ModulusParam,
        cfg: EvalConfig | None = None,
    ) -> complex:
        """Numeric value: exp(gauss) times the product of G_b factor powers.

        evaluate_on with no grid variable, at one point.  Raises
        PoleProximityError where a factor with a negative exponent sits on a
        zero of G_b.
        """
        return run_steps(self.evaluate_steps(bindings, m, cfg))

    def evaluate_steps(
        self,
        bindings: Mapping[str, complex],
        m: ModulusParam,
        cfg: EvalConfig | None = None,
    ):
        """Step form of evaluate (see BoundSymbol.steps)."""
        vals = yield from self.bind(None, bindings, m, cfg).steps(np.zeros(1))
        return complex(vals[0])

    def evaluate_on(
        self,
        var: str | None,
        values: np.ndarray,
        bindings: Mapping[str, complex],
        m: ModulusParam,
        cfg: EvalConfig | None = None,
    ) -> np.ndarray:
        """Vectorized value over a grid of the generator var (None: every
        generator is bound and each grid value gives the same number).

        All factor arguments across all grid points go through one batched
        dilogarithm evaluation.  Raises PoleProximityError where a factor
        with a negative exponent sits on a zero of G_b.
        """
        return run_steps(self.bind(var, bindings, m, cfg).steps(values))

    def bind(
        self,
        var: str | None,
        bindings: Mapping[str, complex],
        m: ModulusParam,
        cfg: EvalConfig | None = None,
    ) -> "BoundSymbol":
        """The symbol as a function of var alone, with its floats computed once."""
        c2, c1, c0 = self.gauss.polynomial_in(var, bindings)
        factors = tuple(
            (
                f.exponent,
                complex(f.argument.coeff(var)),
                f.argument.drop(var).evaluate(bindings),
            )
            for f in self.factors
        )
        return BoundSymbol(c2, c1, c0, factors, m, cfg)

    def __repr__(self) -> str:
        fac = " * ".join(
            f"G({f.argument!r})^{f.exponent}" if f.exponent != 1 else f"G({f.argument!r})"
            for f in self.factors
        )
        return f"Symbol[e^(pi*({self.gauss.terms}))" + (f" * {fac}]" if fac else "]")


class BoundSymbol:
    """A symbol with every generator but one bound to a number.

    Its value at v is exp(pi (c2 v^2 + c1 v + c0)) times the product of
    G_b(a0 + g v)^exponent over factors, which holds (exponent, g, a0).
    A plain class, because a dataclass generates its methods at import.
    """

    __slots__ = ("c2", "c1", "c0", "factors", "m", "cfg")

    def __init__(self, c2, c1, c0, factors: tuple, m: ModulusParam, cfg):
        self.c2, self.c1, self.c0 = c2, c1, c0
        self.factors, self.m, self.cfg = factors, m, cfg

    def steps(self, values: np.ndarray):
        """Step form of Symbol.evaluate_on: a generator that yields one G_b
        request (points, modulus, config) for every factor argument at every
        value, is sent the G_b values at those points, and returns the
        symbol's values."""
        values = np.asarray(values, dtype=complex)
        out = np.exp(cmath.pi * (self.c2 * values * values + self.c1 * values + self.c0))
        if not self.factors:
            return out
        flat = np.concatenate([a0 + g * values for _, g, a0 in self.factors])
        vals = yield flat, self.m, self.cfg
        n = len(values)
        _check_reciprocals([e for e, _, _ in self.factors], flat, vals, self.m)
        for i, (e, _, _) in enumerate(self.factors):
            out = out * vals[i * n : (i + 1) * n] ** e
        return out


def run_steps(steps):
    """Run a step generator alone and return its result, or raise its
    exception (the lockstep driver on one generator)."""
    (result,) = _lockstep([steps])
    if isinstance(result, Exception):
        raise result
    return result


def _lockstep(jobs: list) -> list:
    """Results of step generators run together; a generator that raised
    has its exception as its result.

    Each round, the G_b requests of every live generator go into one
    gb_eval_many call per (modulus, config), and each generator is sent
    its own slice of the values.  If that call raises, each request is
    evaluated alone and only the generators whose own request raised get
    the exception thrown in.
    """
    results = [None] * len(jobs)
    live = {}

    def advance(k, answer):
        try:
            if isinstance(answer, Exception):
                live[k] = jobs[k].throw(answer)
            else:
                live[k] = jobs[k].send(answer)
        except StopIteration as stop:
            results[k] = stop.value
        except Exception as exc:
            results[k] = exc

    for k in range(len(jobs)):
        advance(k, None)
    while live:
        asked, live = live, {}
        groups = {}
        for k, (zs, m, cfg) in asked.items():
            groups.setdefault((m, cfg or _DEFAULT_CFG), []).append(k)
        for (m, cfg), ks in groups.items():
            for k, answer in zip(ks, _answer([asked[k][0] for k in ks], m, cfg)):
                advance(k, answer)
    return results


def _answer(point_sets: list, m: ModulusParam, cfg: EvalConfig) -> list:
    """G_b values of each point set from one gb_eval_many call.  If that
    call raises, a lone set gets its exception and each of several sets
    gets the values or exception of a call of its own."""
    try:
        merged = gb_eval_many(np.concatenate(point_sets), m, cfg)
    except Exception as exc:
        if len(point_sets) == 1:
            return [exc]
        return [_answer([zs], m, cfg)[0] for zs in point_sets]
    return np.split(merged, np.cumsum([len(zs) for zs in point_sets])[:-1])


def _check_reciprocals(exponents, args, vals: np.ndarray, m: ModulusParam) -> None:
    """Raise where a negative power meets a G_b value of exactly 0.

    exponents holds one exponent per factor; args and vals hold the factors'
    rows one after another, equally many per factor.  gb_eval_many returns 0
    only within 1e-12 of a zero of G_b, which is a pole of the symbol.
    """
    zero = vals == 0
    if not zero.any():
        return
    hit = zero & (np.repeat(exponents, len(vals) // len(exponents)) < 0)
    if not hit.any():
        return
    z = complex(np.asarray(args, dtype=complex)[hit][0])
    _, _, p, d = nearest_lattice_point(z - m.Q, m)
    raise PoleProximityError(z, m.Q + p, d)


def symbol_equal_exact(a: Symbol, b: Symbol) -> tuple:
    """Exact normal-form comparison with a mismatch certificate.

    Returns (equal, diff) where diff lists the gauss pairs whose
    coefficients differ and the factor arguments whose exponents differ;
    both lists are empty exactly when the symbols are equal.
    """
    gauss_diff = []
    pairs = {p for p, _ in a.gauss.terms} | {p for p, _ in b.gauss.terms}
    for p in sorted(pairs):
        ca, cb = a.gauss.coeff(*p), b.gauss.coeff(*p)
        if ca != cb:
            gauss_diff.append((p, ca, cb))
    ea = {f.argument: f.exponent for f in a.factors}
    eb = {f.argument: f.exponent for f in b.factors}
    factor_diff = []
    for arg in sorted(set(ea) | set(eb), key=lambda fa: fa.sort_key()):
        if ea.get(arg, 0) != eb.get(arg, 0):
            factor_diff.append((arg, ea.get(arg, 0), eb.get(arg, 0)))
    return (not gauss_diff and not factor_diff), {
        "gauss": gauss_diff,
        "factors": factor_diff,
    }


@dataclass(frozen=True)
class IntegrandSpec:
    """A symbol integrated over one of its generators along a real contour."""

    symbol: Symbol
    var: str
