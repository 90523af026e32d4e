"""Direct evaluation of G_b: reflection, shifts, limits, cross-routes."""

import cmath
import math

import numpy as np
import pytest

from qdilog import core
from qdilog.core import (
    EvalConfig,
    as_modulus,
    func_eq_general,
    gb_asymptotic,
    gb_eval,
    gb_eval_many,
    gb_product_oracle,
    nearest_lattice_point,
    one_minus_exp,
    pole_limit,
    reduction_correction,
    small_gb,
    strip_reduce,
    zero_limit,
)
from qdilog.errors import (
    DegenerateParameterError,
    ParameterDomainError,
    PoleProximityError,
    UnsupportedParameterError,
)
from qdilog.suites import run_six_nine

B_VALUES = [0.8, 0.6, 1.0, 0.6 + 0.1j]


def rel(a, c):
    return abs(a - c) / max(abs(a), abs(c))


@pytest.mark.parametrize("b", B_VALUES)
def test_reflection_product(b):
    # G_b(z) G_b(Q - z) must equal the pure Gaussian exp(pi i z (z - Q)).
    m = as_modulus(b)
    zs = np.array(
        [0.3 * m.Q + 0.2j, 0.5 * m.Q - 0.4j, 0.71 * m.Q + 0.9j], dtype=complex
    )
    vals = gb_eval_many(np.concatenate([zs, m.Q - zs]), m)
    left, right = vals[: len(zs)], vals[len(zs) :]
    for z, a, c in zip(zs, left, right):
        target = cmath.exp(1j * math.pi * z * (z - m.Q))
        assert rel(a * c, target) < 1e-11


@pytest.mark.parametrize("b", [0.8, 0.6 + 0.1j])
def test_shift_equation_single_b_step(b):
    # G_b(z + b) = (1 - e^{2 pi i b z}) G_b(z), factor written directly.
    m = as_modulus(b)
    z = 0.31 * m.Q + 0.27j
    lhs = gb_eval(z + m.b, m)
    rhs = (1.0 - cmath.exp(2j * math.pi * m.b * z)) * gb_eval(z, m)
    assert rel(lhs, rhs) < 1e-11


@pytest.mark.parametrize("n1,n2", [(1, 0), (0, 1), (1, 1), (2, 1), (2, 2)])
def test_shift_equation_general(n1, n2):
    m = as_modulus(0.8)
    z = 0.23 * m.Q - 0.41j
    lhs = gb_eval(z + n1 * m.b + n2 * m.b_inv, m)
    rhs = func_eq_general(z, n1, n2, m) * gb_eval(z, m)
    assert rel(lhs, rhs) < 1e-11


def test_func_eq_rejects_negative_counts():
    with pytest.raises(ValueError):
        func_eq_general(0.5, -1, 0, 0.8)


def test_product_oracle_cross_route():
    # The double product and the contour integral are independent codes;
    # they must agree wherever both converge.
    m = as_modulus(0.6 + 0.1j)
    for frac in (0.2, 0.45, 0.8):
        z = frac * m.Q + 0.1j
        assert rel(gb_product_oracle(z, m), gb_eval(z, m)) < 1e-10


def test_product_oracle_refuses_real_modulus():
    with pytest.raises(UnsupportedParameterError):
        gb_product_oracle(0.5, 0.8)


@pytest.mark.parametrize(
    "n1,n2",
    [(0, 0), (1, 0), (0, 1), (1, 1)],
)
def test_pole_strength_richardson(n1, n2):
    # x G_b(x - n1 b - n2 / b) -> pole_limit via two-point extrapolation.
    m = as_modulus(0.8)
    base = -n1 * m.b - n2 * m.b_inv

    def probe(x):
        return x * gb_eval(base + x, m)

    extrap = (10.0 * probe(1e-4) - probe(1e-3)) / 9.0
    assert rel(extrap, pole_limit(n1, n2, m)) < 1e-5


@pytest.mark.parametrize("n1,n2", [(0, 0), (1, 0), (0, 1)])
def test_zero_slope_richardson(n1, n2):
    m = as_modulus(0.8)
    base = m.Q + n1 * m.b + n2 * m.b_inv

    def probe(x):
        return x / gb_eval(base + x, m)

    extrap = (10.0 * probe(1e-4) - probe(1e-3)) / 9.0
    assert rel(extrap, zero_limit(n1, n2, m)) < 1e-5


def test_limit_base_values_exact():
    # With no shift the pole strength is 1/(2 pi) and the slope at the
    # first zero is its negative.
    m = as_modulus(0.8)
    assert pole_limit(0, 0, m) == pytest.approx(1.0 / (2.0 * math.pi))
    assert zero_limit(0, 0, m) == pytest.approx(-1.0 / (2.0 * math.pi))


def test_limits_reject_resonant_modulus():
    # At b = 1 the factor 1 - q^{-2} vanishes and the limits degenerate.
    with pytest.raises(DegenerateParameterError):
        pole_limit(1, 0, 1.0)


def test_pole_proximity_raises():
    with pytest.raises(PoleProximityError):
        gb_eval(0.0, 0.8)
    with pytest.raises(PoleProximityError):
        gb_eval(-as_modulus(0.8).b, 0.8)


@pytest.mark.parametrize(
    "z", [complex("nan"), complex("inf"), complex(0.3, float("-inf"))]
)
def test_non_finite_argument_is_a_typed_error(z):
    with pytest.raises(ParameterDomainError, match="finite argument"):
        gb_eval(z, 0.8)
    with pytest.raises(ParameterDomainError, match="finite argument"):
        gb_eval_many([0.5, z, complex("nan")], 0.8)


def test_zero_lattice_returns_exact_zero():
    m = as_modulus(0.8)
    assert gb_eval(m.Q, m) == 0.0
    assert gb_eval(m.Q + m.b + m.b_inv, m) == 0.0


def test_strip_reduce_lands_in_band():
    m = as_modulus(0.8)
    for z in (-3.7 + 0.4j, 0.01, 5.2 - 1.1j, 100.0 + 3j):
        red = strip_reduce(z, m)
        x = red.z0.real
        assert 0.25 * m.Q.real - 1e-12 <= x <= 0.75 * m.Q.real + 1e-12
        assert red.z0 == pytest.approx(z + red.n1 * m.b + red.n2 * m.b_inv)


def test_reduction_correction_order_independent():
    m = as_modulus(0.8)
    red = strip_reduce(2.6 + 0.35j, m)
    c1 = reduction_correction(red, m, order="b-first")
    c2 = reduction_correction(red, m, order="binv-first")
    assert rel(c1, c2) < 1e-12
    with pytest.raises(ValueError):
        reduction_correction(red, m, order="sideways")


def test_small_gb_shift_identity():
    # g_b(q^{-1} x) = (1 + x) g_b(q x) encodes the shift equation for g.
    # Points keep arg(x q^{+-1}) inside the principal branch, where the
    # identity holds without a cut crossing.
    m = as_modulus(0.8)
    for x in (0.3 + 0.2j, 0.5 - 0.3j, 1.1 + 0.2j):
        lhs = small_gb(x / m.q, m)
        rhs = (1.0 + x) * small_gb(x * m.q, m)
        assert rel(lhs, rhs) < 1e-10


def test_small_gb_rejects_zero():
    with pytest.raises(ParameterDomainError):
        small_gb(0.0, 0.8)


def test_asymptotics_match_quadrature_near_threshold():
    # Just above the switch G_b is answered by the asymptotic laws; the strip
    # integral at the same points must agree with them.
    m = as_modulus(0.8)
    z = 0.4 * m.Q + 11.0j
    for w, direction in ((z, "up"), (z.conjugate(), "down")):
        quad = cmath.exp(core._log_gb_strip_batch(np.array([w]), m, EvalConfig())[0])
        assert rel(quad, gb_asymptotic(w, m, direction)) < 1e-9
        assert rel(gb_eval(w, m), gb_asymptotic(w, m, direction)) < 1e-13


def test_suite_survives_cache_overflow(monkeypatch):
    # Past the cap the cache is cleared between a call's lookups and its
    # reads; each call must still use the logs it looked up.
    monkeypatch.setattr(core, "_CACHE_CAP", 50)
    for _ in range(2):
        rep = run_six_nine(threads=1, n_random=2)
        assert [c.detail for c in rep.cases if c.flags] == []
        assert rep.passed


def test_asymptotic_direction_values_disagree_off_axis():
    # The two vertical asymptotics differ by the reflection Gaussian; they
    # must not be interchangeable.
    m = as_modulus(0.8)
    z = 0.5 * m.Q + 9.0j
    up = gb_asymptotic(z, m, "up")
    dn = gb_asymptotic(z, m, "down")
    assert rel(up, dn) > 1e-2


def test_extended_precision_agrees_with_standard():
    m = as_modulus(0.8)
    z = 0.37 * m.Q + 0.6j
    a = gb_eval(z, m, EvalConfig(precision="standard"))
    c = gb_eval(z, m, EvalConfig(precision="extended"))
    assert rel(a, c) < 2e-10


def test_nearest_lattice_point_identifies_origin():
    m = as_modulus(0.8)
    n1, n2, point, d = nearest_lattice_point(1e-5 + 0j, m)
    assert (n1, n2) == (0, 0)
    assert point == 0j
    assert d == pytest.approx(1e-5, rel=1e-9)
    n1, n2, point, d = nearest_lattice_point(m.b + m.b_inv + 1e-6, m)
    assert (n1, n2) == (1, 1)
    assert d == pytest.approx(1e-6, abs=1e-9)


def test_one_minus_exp_small_argument_accuracy():
    w = 1e-9j
    # Direct form loses ~9 digits here; the helper must not.
    exact = -w - w * w / 2 - w**3 / 6
    assert abs(complex(one_minus_exp(w)) - exact) < 1e-24


def test_eval_many_matches_scalar_eval():
    m = as_modulus(0.8)
    zs = np.array([0.3 * m.Q + 0.1j, 0.6 * m.Q - 0.2j, 2.9 + 0.4j])
    batch = gb_eval_many(zs, m)
    for z, v in zip(zs, batch):
        assert rel(v, gb_eval(z, m)) < 1e-12


def test_modulus_rejects_degenerate_b():
    with pytest.raises(ParameterDomainError):
        as_modulus(0.0)
    with pytest.raises(ParameterDomainError):
        as_modulus(-0.5)
