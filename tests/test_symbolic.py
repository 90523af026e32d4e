"""Exact-arithmetic layer: Gaussian rationals, affine forms, symbols."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdilog.core import as_modulus, gb_eval_many
from qdilog.errors import PoleProximityError, UnsupportedParameterError
from qdilog.symbolic import (
    AffineForm,
    GaussExponent,
    GaussRat,
    GbFactor,
    Symbol,
    as_affine,
    const,
    gauss_from_products,
    gen,
    symbol_equal_exact,
)

fractions = st.builds(Fraction, st.integers(-96, 96), st.integers(1, 12)).filter(
    lambda f: -8 <= f <= 8
)
gaussrats = st.builds(GaussRat, fractions, fractions)
names = st.sampled_from(["x", "y", "z", "w"])


def affine_forms():
    return st.builds(
        lambda pairs, c: AffineForm.make(pairs, c),
        st.lists(st.tuples(names, gaussrats), max_size=4),
        gaussrats,
    )


BINDINGS = {"x": 0.3 + 0.1j, "y": -0.7 + 0.4j, "z": 1.2 - 0.2j, "w": 0.05j}


# ---------------------------------------------------------------------------
# Gaussian rationals


@settings(derandomize=True, max_examples=200)
@given(gaussrats, gaussrats, gaussrats)
def test_gaussrat_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + GaussRat() == a
    assert a * GaussRat.of(1) == a


@settings(derandomize=True, max_examples=200)
@given(gaussrats, gaussrats)
def test_gaussrat_division_inverts_multiplication(a, b):
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            a / b
    else:
        assert (a * b) / b == a


@settings(derandomize=True, max_examples=100)
@given(gaussrats, gaussrats)
def test_gaussrat_complex_embedding_is_homomorphic(a, b):
    # float conversion is exact for these small fractions' products only
    # approximately; compare exactly in the rationals instead.
    s = a + b
    p = a * b
    assert s.re == a.re + b.re and s.im == a.im + b.im
    assert p.re == a.re * b.re - a.im * b.im
    assert p.im == a.re * b.im + a.im * b.re


def test_gaussrat_of_literals():
    assert GaussRat.of(2.0) == GaussRat(Fraction(2), Fraction(0))
    assert GaussRat.of(-1j) == GaussRat(Fraction(0), Fraction(-1))
    assert GaussRat.of((Fraction(1, 3), 2)) == GaussRat(Fraction(1, 3), Fraction(2))
    with pytest.raises(TypeError):
        GaussRat.of(0.3)  # non-dyadic float would silently lose exactness
    with pytest.raises(TypeError):
        GaussRat.of("1/2")


@pytest.mark.parametrize(
    "x", [float("nan"), float("inf"), -float("inf"), complex(float("inf"), 0),
          complex(0, float("nan"))]
)
def test_gaussrat_of_non_finite_floats(x):
    with pytest.raises(TypeError, match="as a Gaussian rational"):
        GaussRat.of(x)


def _triple(g):
    # The stored integers (a, b, d) of g = (a + b i) / d.
    return g._a, g._b, g._d


wide_fractions = st.builds(Fraction, st.integers(), st.integers(1, 10**6))
wide_gaussrats = st.builds(GaussRat, wide_fractions, wide_fractions)


@settings(derandomize=True, max_examples=200)
@given(wide_gaussrats, wide_gaussrats)
def test_gaussrat_results_are_in_normal_form(a, b):
    results = [a + b, a - b, a * b, -a]
    if not b.is_zero():
        results.append(a / b)
    for r in results:
        x, y, d = _triple(r)
        assert d > 0 and math.gcd(x, y, d) == 1, (r, x, y, d)


def test_gaussrat_equality_and_hash_follow_the_value():
    half = GaussRat(Fraction(1, 2), 0)
    assert GaussRat(Fraction(2, 4), 0) == half
    assert hash(GaussRat(Fraction(2, 4), 0)) == hash(half)
    assert GaussRat(Fraction(1, 2), Fraction(1, 3)) == GaussRat.of(
        (Fraction(3, 6), Fraction(2, 6))
    )
    assert GaussRat(3, 0) != 3 and not GaussRat(3, 0) == Fraction(3)
    assert GaussRat(Fraction(1, 2), Fraction(1, 3)) != GaussRat(Fraction(1, 2))


@settings(derandomize=True, max_examples=300)
@given(wide_fractions, wide_fractions, wide_fractions, wide_fractions)
def test_gaussrat_ring_matches_fraction_pairs(ar, ai, br, bi):
    a, b = GaussRat(ar, ai), GaussRat(br, bi)
    assert (a.re, a.im) == (ar, ai)
    assert complex(a) == complex(float(ar), float(ai))
    expected = {
        "+": (ar + br, ai + bi),
        "-": (ar - br, ai - bi),
        "*": (ar * br - ai * bi, ar * bi + ai * br),
    }
    n = br * br + bi * bi
    if n:
        expected["/"] = ((ar * br + ai * bi) / n, (ai * br - ar * bi) / n)
    ops = {"+": a + b, "-": a - b, "*": a * b}
    if n:
        ops["/"] = a / b
    for op, r in ops.items():
        assert (r.re, r.im) == expected[op], op
        assert r == GaussRat(*expected[op]), op


def test_gaussrat_sort_key_orders_as_fraction_pairs():
    rng = np.random.default_rng(3)
    pairs = [
        (Fraction(int(p), int(q)), Fraction(int(r), int(s)))
        for p, q, r, s in zip(
            rng.integers(-50, 50, 300), rng.integers(1, 40, 300),
            rng.integers(-3, 3, 300), rng.integers(1, 7, 300),
        )
    ]
    values = [GaussRat(re, im) for re, im in pairs]
    order = sorted(range(len(values)), key=values.__getitem__)
    assert order == sorted(range(len(pairs)), key=lambda k: pairs[k])


@settings(derandomize=True, max_examples=60)
@given(st.lists(wide_gaussrats, min_size=2, max_size=12))
def test_gaussrat_less_than_orders_as_fraction_pairs(values):
    assert [(v.re, v.im) for v in sorted(values)] == sorted(
        (v.re, v.im) for v in values
    )
    a, b = values[0], values[1]
    key_a, key_b = (a.re, a.im), (b.re, b.im)
    assert (a < b, a <= b, a > b, a >= b) == (
        key_a < key_b, key_a <= key_b, key_a > key_b, key_a >= key_b
    )


# ---------------------------------------------------------------------------
# Affine forms


@settings(derandomize=True, max_examples=150)
@given(affine_forms(), affine_forms())
def test_affine_evaluation_is_additive(f, g):
    lhs = (f + g).evaluate(BINDINGS)
    rhs = f.evaluate(BINDINGS) + g.evaluate(BINDINGS)
    assert abs(lhs - rhs) < 1e-12


@settings(derandomize=True, max_examples=150)
@given(affine_forms(), affine_forms())
def test_affine_substitution_commutes_with_evaluation(f, h):
    sub = f.substitute("y", h)
    env = dict(BINDINGS)
    env["y"] = h.evaluate(BINDINGS)
    # h may itself contain y; the substituted form uses the outer bindings.
    lhs = sub.evaluate(BINDINGS)
    rhs = f.drop("y").evaluate(BINDINGS) + complex(f.coeff("y")) * h.evaluate(
        BINDINGS
    )
    assert abs(lhs - rhs) < 1e-12


def test_affine_canonical_form_merges_and_drops():
    f = AffineForm.make(
        [("x", GaussRat.of(1)), ("x", GaussRat.of(-1)), ("y", GaussRat.of(2))]
    )
    assert f.coeff("x").is_zero()
    assert [n for n, _ in f.terms] == ["y"]
    assert gen("x") - gen("x") == const(0)


def test_affine_unit_pseudogenerator_folds_into_const():
    f = AffineForm.make([("unit", GaussRat.of(3)), ("x", GaussRat.of(1))])
    assert f.const == GaussRat.of(3)
    assert f.evaluate({"x": 2.0}) == pytest.approx(5.0)


# Generator names of either case, and the constant 'unit'.
mixed_names = st.sampled_from(["unit", "Q", "u", "bs", "btau", "beta", "w", "x"])
scales = st.one_of(
    st.sampled_from([GaussRat(), GaussRat.of(1), GaussRat.of(-1), GaussRat.of(1j)]),
    gaussrats,
)


def test_generators_sort_by_name():
    f = AffineForm.make([(n, GaussRat.of(1)) for n in ("zz", "beta", "aa", "unit", "Q")])
    assert [n for n, _ in f.terms] == ["Q", "aa", "beta", "zz"]
    assert f.const == GaussRat.of(1)
    g = GaussExponent.make([(("u", "Q"), 1), (("beta", "beta"), 2), (("unit", "alpha"), 3)])
    assert [p for p, _ in g.terms] == [("Q", "u"), ("alpha", "unit"), ("beta", "beta")]
    assert g.coeff("u", "Q") == g.coeff("Q", "u") == GaussRat.of(1)


@settings(derandomize=True, max_examples=80)
@given(st.lists(st.tuples(mixed_names, gaussrats), max_size=5), gaussrats, scales)
def test_affine_scale_matches_make_over_scaled_terms(pairs, c0, c):
    f = AffineForm.make(pairs, c0)
    assert f.scale(c) == AffineForm.make([(n, k * c) for n, k in f.terms], f.const * c)


def test_unit_generator_is_the_constant_one():
    assert gen("unit") == const(1)
    assert gen("unit") == gen("unit") + gen("x") - gen("x")
    assert gen("unit").scale(GaussRat.of(2j)) == const(GaussRat.of(2j))
    eq, diff = symbol_equal_exact(Symbol.gb(gen("unit")), Symbol.gb(const(1)))
    assert eq, diff


# ---------------------------------------------------------------------------
# Gaussian exponents


@settings(derandomize=True, max_examples=100)
@given(st.lists(st.tuples(names, names, gaussrats), max_size=4))
def test_gauss_exponent_substitution_matches_evaluation(triples):
    g = gauss_from_products([(gen(a), gen(b), c) for a, b, c in triples])
    h = gen("x").scale(GaussRat.of(2)) + const(GaussRat.of((Fraction(1, 2), 0)))
    sub = g.substitute("y", h)
    env = dict(BINDINGS)
    env["y"] = h.evaluate(BINDINGS)
    assert abs(sub.evaluate(BINDINGS) - g.evaluate(env)) < 1e-10


gauss_entries = st.lists(st.tuples(st.tuples(mixed_names, mixed_names), gaussrats), max_size=5)


@settings(derandomize=True, max_examples=80)
@given(gauss_entries, scales)
def test_gauss_scale_matches_make_over_scaled_terms(entries, c):
    g = GaussExponent.make(entries)
    assert g.scale(c) == GaussExponent.make([(p, k * c) for p, k in g.terms])


@settings(derandomize=True, max_examples=50)
@given(gauss_entries)
def test_adding_the_empty_exponent_keeps_the_form(entries):
    g = GaussExponent.make(entries)
    zero = GaussExponent.zero()
    assert g + zero == g == zero + g
    assert g + GaussExponent.make([]) == GaussExponent.make(g.terms)


def test_gauss_polynomial_in_reconstructs_exponent():
    g = gauss_from_products(
        [
            (gen("t"), gen("t"), GaussRat.of(2j)),
            (gen("x"), gen("t"), GaussRat.of(-2)),
            (gen("x"), gen("x"), GaussRat.of(1)),
        ]
    )
    c2, c1, c0 = g.polynomial_in("t", BINDINGS)
    for t in (0.3, -1.1 + 0.2j):
        direct = g.evaluate({**BINDINGS, "t": t})
        poly = cmath.pi * (c2 * t * t + c1 * t + c0)
        assert abs(direct - poly) < 1e-12


# ---------------------------------------------------------------------------
# Symbols


def test_symbol_product_merges_factors():
    a = gen("x") + const(GaussRat.of(1))
    s = Symbol.gb(a) * Symbol.gb(a) * Symbol.gb(gen("y"), -1)
    exps = {f.argument: f.exponent for f in s.factors}
    assert exps[as_affine(a)] == 2
    assert exps[as_affine(gen("y"))] == -1
    # multiplying by the inverse cancels everything
    eq, diff = symbol_equal_exact(s * s.inverse(), Symbol.one())
    assert eq, diff


@settings(derandomize=True, max_examples=60)
@given(
    gauss_entries,
    st.lists(
        st.tuples(
            st.builds(
                lambda pairs, c: AffineForm.make(pairs, c),
                st.lists(st.tuples(mixed_names, gaussrats), max_size=3),
                st.sampled_from([GaussRat(), GaussRat.of(1)]),
            ),
            st.integers(-2, 2),
        ),
        max_size=6,
    ),
    st.data(),
)
def test_chained_product_equals_one_make_over_shuffled_factors(entries, factors, data):
    chained = Symbol.from_gauss(GaussExponent.make(entries))
    for arg, e in factors:
        chained = chained * Symbol.gb(arg, e)
    shuffled = data.draw(st.permutations([GbFactor(a, e) for a, e in factors]))
    direct = Symbol.make(GaussExponent.make(entries), shuffled)
    assert chained == direct
    eq, diff = symbol_equal_exact(chained, direct)
    assert eq, diff


def test_symbol_equal_exact_certificate_localizes_mismatch():
    s1 = Symbol.gb(gen("x")) * Symbol.from_gauss(
        gauss_from_products([(gen("x"), gen("y"), GaussRat.of(1))])
    )
    s2 = Symbol.gb(gen("x"), 2) * Symbol.from_gauss(
        gauss_from_products([(gen("x"), gen("y"), GaussRat.of(2))])
    )
    eq, diff = symbol_equal_exact(s1, s2)
    assert not eq
    assert len(diff["gauss"]) == 1 and len(diff["factors"]) == 1
    (pair, ca, cb) = diff["gauss"][0]
    assert ca == GaussRat.of(1) and cb == GaussRat.of(2)
    (arg, ea, eb) = diff["factors"][0]
    assert (ea, eb) == (1, 2)


def test_symbol_evaluate_on_matches_pointwise_evaluate():
    m = as_modulus(0.8)
    tau = gen("tau")
    sym = (
        Symbol.from_gauss(
            gauss_from_products(
                [(tau, tau, GaussRat.of(1j)), (gen("x"), tau, GaussRat.of(-2))]
            )
        )
        * Symbol.gb(gen("x") + tau.scale(GaussRat.of(1j)))
        * Symbol.gb(gen("Q") - tau.scale(GaussRat.of(1j)), -1)
    )
    bnd = {"x": 0.4 + 0.05j, "Q": m.Q}
    grid = np.array([-0.8, -0.1, 0.33, 1.2], dtype=complex)
    batch = sym.evaluate_on("tau", grid, bnd, m)
    for t, v in zip(grid, batch):
        direct = sym.evaluate({**bnd, "tau": t}, m)
        assert abs(v - direct) / abs(direct) < 1e-11


def test_symbol_evaluate_raises_on_a_pole_of_a_reciprocal_factor():
    m = as_modulus(0.8)
    sym = Symbol.gb(gen("A"), -1) * Symbol.gb(gen("B"))
    with pytest.raises(PoleProximityError) as err:
        sym.evaluate({"A": m.Q, "B": 0.4}, m)
    assert err.value.lattice_point == m.Q
    # The zero of a positive power is a plain zero of the symbol.
    assert sym.evaluate({"A": 0.4, "B": m.Q}, m) == 0
    # Far below the strip G_b underflows away from any zero: a typed error,
    # not a 0.
    with pytest.raises(UnsupportedParameterError):
        gb_eval_many([1 - 10000j], m)
    with pytest.raises(UnsupportedParameterError, match="not finite"):
        sym.evaluate({"A": 1 - 10000j, "B": 0.4}, m)


def test_symbol_evaluate_on_raises_on_a_pole_of_a_reciprocal_factor():
    m = as_modulus(0.8)
    sym = Symbol.gb(gen("A") + const(GaussRat.of(1)), -1)
    grid = np.array([0.3, m.Q + m.b - 1, 0.7], dtype=complex)
    with pytest.raises(PoleProximityError) as err:
        sym.evaluate_on("A", grid, {}, m)
    assert abs(err.value.lattice_point - (m.Q + m.b)) < 1e-12
    values = sym.evaluate_on("A", grid[[0, 2]], {}, m)
    assert np.isfinite(values).all()


def test_symbol_substitution_commutes_with_evaluation():
    m = as_modulus(0.8)
    sym = Symbol.gb(gen("u") + const(GaussRat.of((Fraction(1, 2), 0)))) * Symbol.from_gauss(
        gauss_from_products([(gen("u"), gen("u"), GaussRat.of((Fraction(1, 4), 0)))])
    )
    shift = gen("u") + const(GaussRat.of((Fraction(3, 10), 0)))
    sub = sym.substitute("u", shift)
    bnd = {"u": 0.21 + 0.07j}
    direct = sym.evaluate({"u": shift.evaluate(bnd)}, m)
    assert abs(sub.evaluate(bnd, m) - direct) / abs(direct) < 1e-11
