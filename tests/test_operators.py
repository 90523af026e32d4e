"""Shift-operator algebra: exact laws, composition, operator integrals."""

from fractions import Fraction

import numpy as np
import pytest

from qdilog import suites
from qdilog.core import as_modulus
from qdilog.errors import DegenerateParameterError, PoleProximityError
from qdilog.identities import six_nine_closed, six_nine_integrand, tau_binomial_closed
from qdilog.operators import (
    OpIntegral,
    RepParams,
    ShiftOp,
    compose,
    kac_lhs,
    kac_lhs_closed_form,
    kac_rhs_integral,
    kac_substitution_tuple,
    kac_values,
    make_E_div,
    make_F_div,
    make_K_pow,
    make_rep_params,
    qbinomial_integral,
    qbinomial_target,
    qbinomial_value,
    rep_bindings,
    scalar_op,
    verify_EE,
    verify_FF,
    verify_KE,
    verify_KF,
    verify_KK,
    verify_weyl,
    weyl_power,
)
from qdilog.symbolic import (
    GaussRat,
    Symbol,
    const,
    gauss_from_products,
    gen,
    symbol_equal_exact,
)

RATIONALS = [Fraction(3, 8), Fraction(5, 8), Fraction(6, 25), Fraction(2, 5)]


# ---------------------------------------------------------------------------
# Exact relations


def test_cartan_powers_commute_and_add():
    assert verify_KK()
    assert verify_KK(RATIONALS[0], RATIONALS[1])


def test_cartan_moves_past_raising_with_phase():
    assert verify_KE()
    assert verify_KE(RATIONALS[2], RATIONALS[3])


def test_cartan_moves_past_lowering_with_phase():
    assert verify_KF()
    assert verify_KF(RATIONALS[0], RATIONALS[2])


def test_raising_powers_compose_through_beta_coefficient():
    assert verify_EE()
    assert verify_EE(RATIONALS[1], RATIONALS[3])


def test_lowering_powers_compose_through_beta_coefficient():
    assert verify_FF()
    assert verify_FF(RATIONALS[0], RATIONALS[3])


def test_weyl_pair_commutation_phase():
    assert verify_weyl()
    assert verify_weyl(RATIONALS[2], RATIONALS[1])


@pytest.mark.parametrize("kind", ["U1", "V1", "U2", "V2"])
def test_weyl_powers_form_one_parameter_groups(kind):
    a = weyl_power(kind, Fraction(1, 3))
    c = weyl_power(kind, Fraction(2, 5))
    prod = compose(a, c)
    direct = weyl_power(kind, Fraction(1, 3) + Fraction(2, 5))
    eq, diff = symbol_equal_exact(prod.symbol, direct.symbol)
    assert eq, diff
    assert prod.shift == direct.shift


def _coefficient_exponents(coeff: Symbol) -> dict:
    return {f.argument: f.exponent for f in coeff.factors}


@pytest.mark.parametrize("args", [(None, None), (RATIONALS[1], RATIONALS[3])])
@pytest.mark.parametrize("maker", [make_E_div, make_F_div])
def test_ladder_product_without_its_coefficient_compares_unequal(maker, args):
    s1, s2 = (gen("bs1") if args[0] is None else const(args[0]),
              gen("bs2") if args[1] is None else const(args[1]))
    lhs = compose(maker(s1), maker(s2))
    wrong = maker(s1 + s2)
    assert lhs != wrong and lhs.shift == wrong.shift
    eq, diff = symbol_equal_exact(lhs.symbol, wrong.symbol)
    assert not eq and diff["gauss"] == []
    # The two sides differ by exactly the G_b coefficient of the law.
    coeff = (
        Symbol.gb(s1.scale(-1j)) * Symbol.gb(s2.scale(-1j))
        * Symbol.gb((s1 + s2).scale(-1j), -1)
    )
    assert {arg: ea - eb for arg, ea, eb in diff["factors"]} == _coefficient_exponents(coeff)


@pytest.mark.parametrize("args", [(None, None), (RATIONALS[2], RATIONALS[3])])
@pytest.mark.parametrize("maker, sign", [(make_E_div, -1), (make_F_div, +1)])
def test_cartan_ladder_without_its_phase_compares_unequal(maker, sign, args):
    p = gen("bp") if args[0] is None else const(args[0])
    x = gen("bs") if args[1] is None else const(args[1])
    lhs = compose(make_K_pow(p), maker(x))
    wrong = compose(maker(x), make_K_pow(p))
    assert lhs != wrong and lhs.shift == wrong.shift
    eq, diff = symbol_equal_exact(lhs.symbol, wrong.symbol)
    assert not eq and diff["factors"] == []
    phase = gauss_from_products([(p, x, GaussRat.of(2j * sign))])
    assert [(pair, ca - cb) for pair, ca, cb in diff["gauss"]] == list(phase.terms)


@pytest.mark.parametrize("args", [(None, None), (RATIONALS[2], RATIONALS[1])])
def test_weyl_with_the_phase_sign_flipped_compares_unequal(args):
    x = gen("bs1") if args[0] is None else const(args[0])
    y = gen("bs2") if args[1] is None else const(args[1])
    flipped = Symbol.from_gauss(gauss_from_products([(x, y, GaussRat.of(2j))]))
    for a, bname in (("U1", "V1"), ("U2", "V2")):
        lhs = compose(weyl_power(a, x), weyl_power(bname, y))
        wrong = compose(weyl_power(bname, y), weyl_power(a, x))
        wrong = ShiftOp(flipped * wrong.symbol, wrong.shift)
        assert lhs != wrong and lhs.shift == wrong.shift
        eq, diff = symbol_equal_exact(lhs.symbol, wrong.symbol)
        assert not eq and diff["factors"] == []
        # e^{-2 pi i xy} against e^{+2 pi i xy}: the sides differ by -4i xy.
        expected = gauss_from_products([(x, y, GaussRat.of(-4j))])
        assert [(pair, ca - cb) for pair, ca, cb in diff["gauss"]] == list(expected.terms)


def test_weyl_rejects_unknown_kind():
    with pytest.raises(ValueError):
        weyl_power("U3", Fraction(1, 2))


def test_no_float_enters_the_exact_layer(monkeypatch):
    def no_float(self):
        raise AssertionError("float conversion inside the exact layer")

    monkeypatch.setattr(GaussRat, "__complex__", no_float)
    monkeypatch.setattr(Fraction, "__float__", no_float)
    r = RATIONALS
    assert verify_KK(r[0], r[1])
    assert verify_KE(r[2], r[3])
    assert verify_KF(r[1], r[2])
    assert verify_EE(r[0], r[3])
    assert verify_FF(r[3], r[1])
    assert verify_weyl(r[2], r[0])
    report = suites.run_theorem31_exact(n=2)
    assert len(report.cases) == 3
    assert report.passed, [c.detail for c in report.cases]


# ---------------------------------------------------------------------------
# Composition algebra


def _random_shift_op(rng) -> ShiftOp:
    def frac():
        return Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 5)))

    u, s, t = gen("u"), gen("bs"), gen("bt")
    gauss = gauss_from_products(
        [
            (u, u, GaussRat(frac(), frac())),
            (u, s, GaussRat(frac(), frac())),
            (s, t, GaussRat(frac(), frac())),
        ]
    )
    sym = Symbol.from_gauss(gauss) * Symbol.gb(
        u.scale(GaussRat.of(1j)) + s.scale(frac()), int(rng.integers(-2, 3))
    )
    shift = s.scale(frac()) + t.scale(frac())
    return ShiftOp(sym, shift)


def test_composition_is_associative():
    rng = np.random.default_rng(1207)
    for _ in range(25):
        a, c, d = (_random_shift_op(rng) for _ in range(3))
        left = compose(compose(a, c), d)
        right = compose(a, compose(c, d))
        eq, diff = symbol_equal_exact(left.symbol, right.symbol)
        assert eq, diff
        assert left.shift == right.shift


def test_scalar_identity_is_neutral():
    one = scalar_op(Symbol.one())
    op = make_E_div(gen("bs"))
    for prod in (compose(one, op), compose(op, one)):
        eq, _ = symbol_equal_exact(prod.symbol, op.symbol)
        assert eq
        assert prod.shift == op.shift


def test_composition_homomorphism_under_evaluation():
    # Evaluating a composed symbol must match evaluating the pieces with
    # the translation applied in between.
    m = as_modulus(0.8)
    params = make_rep_params(0.8, alpha=0.5, s=0.3, t=0.2, u_samples=(0.1,))
    bnd = rep_bindings(params, 0.1)
    e_op, f_op = make_E_div(gen("bs")), make_F_div(gen("bt"))
    comp = compose(f_op, e_op)
    moved = dict(bnd)
    moved["u"] = bnd["u"] + complex(f_op.shift.evaluate(bnd))
    direct = f_op.symbol.evaluate(bnd, m) * e_op.symbol.evaluate(moved, m)
    val = comp.symbol.evaluate(bnd, m)
    assert abs(val - direct) / abs(direct) < 1e-9


def test_composed_product_matches_closed_form_exactly():
    lhs = kac_lhs()
    closed = kac_lhs_closed_form()
    eq, diff = symbol_equal_exact(lhs.symbol, closed.symbol)
    assert eq, diff
    assert lhs.shift == closed.shift


# ---------------------------------------------------------------------------
# Operator integrals


def test_operator_integral_requires_variable_free_shift():
    bad = OpIntegral("btau", weyl_power("U1", gen("btau")))
    with pytest.raises(AssertionError):
        bad.spec()


def test_binomial_integrand_shift_and_phase():
    for swapped in (False, True):
        opint = qbinomial_integral(swapped=swapped)
        assert opint.integrand.shift == -gen("bs")
        assert opint.integrand.symbol.gauss.coeff("btau", "btau") == GaussRat.of(1j)


def test_composition_integrand_shift_is_variable_free():
    opint = kac_rhs_integral()
    assert opint.integrand.shift.coeff("btau").is_zero()
    assert opint.integrand.shift == kac_lhs().shift


def test_binomial_expansion_value_and_swap_symmetry():
    params = make_rep_params(0.8, alpha=0.5, s=0.4, u_samples=(0.1,))
    lhs, target, res = qbinomial_value(params, 0.1, rel_tol=1e-8)
    assert abs(lhs - target) / abs(target) < 1e-7
    swapped, target2, _ = qbinomial_value(params, 0.1, rel_tol=1e-8, swapped=True)
    assert target2 == target
    assert abs(swapped - target) / abs(target) < 1e-7


def test_composition_value_matches_integral():
    params = make_rep_params(0.8, alpha=0.5, s=0.3, t=0.2, u_samples=(0.1, -0.23))
    for u in params.u_samples:
        lhs, rhs, res = kac_values(params, u, rel_tol=1e-7)
        assert abs(lhs - rhs) / abs(rhs) < 1e-6
        assert res.err_estimate < 1e-6 * abs(rhs)


def test_substitution_tuple_values():
    params = make_rep_params(0.8, alpha=0.5, s=0.3, t=0.2, u_samples=(0.1,))
    a, b_arg, c, d = kac_substitution_tuple(params, 0.1)
    m = as_modulus(0.8)
    assert a == pytest.approx(-0.24j)
    assert b_arg == pytest.approx(-0.16j)
    assert c == pytest.approx(-0.12j)
    assert d == pytest.approx(m.Q / 2 + 0.76j)


# The substitution (A, B, C, D, tau) that puts the E o F integral into
# six-to-nine form, as exact forms in the representation labels.
_BS, _BT, _U = gen("bs"), gen("bt"), gen("u")
KAC_SIX_NINE_FORMS = {
    "A": _BS.scale(-1j),
    "B": _BT.scale(-1j),
    "C": (_BS - _BT).scale(1j) + _U.scale(-2j),
    "D": gen("Q").scale(Fraction(1, 2)) + (gen("alpha") + _BT + _U).scale(1j),
}


def _at_kac_forms(symbol: Symbol) -> Symbol:
    for name, form in KAC_SIX_NINE_FORMS.items():
        symbol = symbol.substitute(name, form)
    return symbol


def test_kac_product_law_is_the_six_nine_identity():
    # The paper's theorem, exactly: at A..D above and tau = -btau, the E o F
    # integrand is a btau-free factor P times the six-nine integrand, and
    # the E o F product is P times the six-over-three closed form.
    six_nine = _at_kac_forms(six_nine_integrand().symbol).substitute(
        "tau", gen("btau").scale(-1)
    )
    p = kac_rhs_integral().spec().symbol * six_nine.inverse()
    assert all(f.argument.coeff("btau").is_zero() for f in p.factors)
    assert all("btau" not in pair for pair, _ in p.gauss.terms)
    assert symbol_equal_exact(kac_lhs().symbol, p * _at_kac_forms(six_nine_closed())) == (
        True, {"gauss": [], "factors": []}
    )


@pytest.mark.parametrize("b", [0.8, 0.6, 0.6 + 0.1j])
def test_substitution_tuple_is_the_exact_forms_evaluated(b):
    params = RepParams(b=b, alpha=0.5, s=0.3, t=0.2, u_samples=(0.1, -0.23))
    for u in params.u_samples:
        bindings = rep_bindings(params, u)
        got = kac_substitution_tuple(params, u)
        for value, form in zip(got, KAC_SIX_NINE_FORMS.values()):
            exact = form.evaluate(bindings)
            assert abs(value - exact) <= 1e-15 * abs(exact)


def test_a_closed_form_at_a_zero_of_g_b_is_a_typed_error():
    # alpha + beta = Q and A + B + D = Q are zeros of G_b under a negative
    # power.
    m = as_modulus(0.8)
    with pytest.raises(PoleProximityError):
        tau_binomial_closed().evaluate({"alpha": m.Q / 2, "beta": m.Q / 2}, m)
    third = m.Q / 3
    with pytest.raises(PoleProximityError):
        six_nine_closed().evaluate({"A": third, "B": third, "C": m.Q / 5, "D": third}, m)


def test_degenerate_labels_are_refused():
    # s ~ 0 drags a dilogarithm argument onto the pole lattice.
    with pytest.raises(DegenerateParameterError):
        make_rep_params(0.8, alpha=0.5, s=1e-4, u_samples=(0.1,))


def test_binomial_target_is_prefactor_free_divided_power():
    s = gen("bs")
    expected = make_E_div(s).symbol * Symbol.gb(
        s.scale(GaussRat.of(-1j)), -1
    )
    eq, diff = symbol_equal_exact(qbinomial_target(), expected)
    assert eq, diff
