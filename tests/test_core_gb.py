"""Direct evaluation of G_b: reflection, shifts, limits, cross-routes."""

import cmath
import json
import math
import pathlib
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from qdilog import core, suites
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
    small_gb,
    strip_reduce,
    zero_limit,
)
from qdilog.errors import (
    ConvergenceError,
    DegenerateParameterError,
    ParameterDomainError,
    PoleProximityError,
    StripDomainError,
    UnsupportedParameterError,
)
from qdilog.quadrature import Arc, Line, integrate_batch

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
    # So do the residue limits, whose indices count the same shifts.
    for limit in (pole_limit, zero_limit):
        for n1, n2 in ((-1, 0), (0, -1)):
            with pytest.raises(ValueError, match="nonnegative"):
                limit(n1, n2, 0.8)


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


def test_product_oracle_refuses_before_forming_terms():
    # At Im b^2 = 1.6e-7 the product needs about 4e7 factors: the count is
    # known, and refused, before any array is built.
    t0 = time.perf_counter()
    with pytest.raises(ConvergenceError):
        gb_product_oracle(0.5 + 0.1j, 0.8 + 1e-7j)
    assert time.perf_counter() - t0 < 0.05


def test_product_oracle_raises_typed_errors_at_the_edges():
    m = as_modulus(0.6 + 0.1j)
    # -b is a pole: one factor of the denominator is exactly 1 - e^0.
    with pytest.raises(PoleProximityError):
        gb_product_oracle(-m.b, m)
    # |e^{2 pi i b x}| = e^{754} overflows.
    with pytest.raises(UnsupportedParameterError, match="double range"):
        gb_product_oracle(0.5 - 200j, m)


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
    # Also at complex b, where the lattices leave the real axis.
    for m in (as_modulus(0.8), as_modulus(0.6 + 0.1j)):
        for z in (0.0, -m.b, -m.b - 2 * m.b_inv + 1e-13j):
            with pytest.raises(PoleProximityError):
                gb_eval(z, m)


@pytest.mark.parametrize(
    "z", [complex("nan"), complex("inf"), complex(0.3, float("-inf"))]
)
def test_non_finite_argument_is_a_typed_error(z):
    with pytest.raises(ParameterDomainError, match="finite argument"):
        gb_eval(z, 0.8)
    with pytest.raises(ParameterDomainError, match="finite argument"):
        gb_eval_many([0.5, z, complex("nan")], 0.8)


def test_zero_lattice_returns_exact_zero():
    for m in (as_modulus(0.8), as_modulus(0.6 + 0.1j)):
        assert gb_eval(m.Q, m) == 0.0
        assert gb_eval(m.Q + m.b + m.b_inv, m) == 0.0
        assert gb_eval(m.Q + 2 * m.b - 1e-13j, m) == 0.0


def test_strip_reduce_lands_in_band():
    m = as_modulus(0.8)
    for z in (-3.7 + 0.4j, 0.01, 5.2 - 1.1j, 100.0 + 3j, 1e12 + 0.3j, -1e12):
        red = strip_reduce(z, m)
        x = red.z0.real
        slack = 1e-12 + 1e-15 * abs(z)  # roundoff of z + n1 b + n2 / b
        assert 0.25 * m.Q.real - slack <= x <= 0.75 * m.Q.real + slack
        assert red.z0 == pytest.approx(z + red.n1 * m.b + red.n2 * m.b_inv)


def _greedy_walk(x, m):
    """(n1, n2) of the walk one shift at a time, the larger step whenever it
    does not overshoot the band."""
    lo, hi = 0.25 * m.Q.real, 0.75 * m.Q.real
    big, small = sorted(((m.b.real, 0), (m.b_inv.real, 1)), key=lambda s: -s[0])
    n = [0, 0]
    while x < lo:
        step, k = big if x + big[0] <= hi else small
        n[k] += 1
        x += step
    while x > hi:
        step, k = big if x - big[0] >= lo else small
        n[k] -= 1
        x -= step
    return n[0], n[1]


@pytest.mark.parametrize(
    "b", [0.8, 0.6, 1.0, 0.3, 1.3, 0.6 + 0.1j, 0.45 + 0.2j, cmath.exp(0.3j)]
)
def test_strip_reduce_counts_match_the_greedy_walk(b):
    # The quarter-grid hits the band edges exactly at b = 1.
    m = as_modulus(b)
    xs = np.concatenate(
        [np.random.default_rng(3).uniform(-100, 100, 1000), np.arange(-20, 20, 0.25)]
    )
    for x in xs.tolist():
        red = strip_reduce(complex(x, 0.3), m)
        assert (red.n1, red.n2) == _greedy_walk(x, m), x


def _greedy_walk_far(x, m, chunk=1 << 20):
    """_greedy_walk for a point far from the band.  The run of larger steps
    is accumulated in chunks, one addition after another as in the loop;
    _greedy_walk takes over where the loop would stop taking them."""
    lo, hi = 0.25 * m.Q.real, 0.75 * m.Q.real
    big = max(m.b.real, m.b_inv.real)
    up = x < lo
    taken = 0
    while True:
        xs = np.add.accumulate(np.append(x, np.full(chunk, big if up else -big)))
        more = (xs < lo) & (xs + big <= hi) if up else (xs > hi) & (xs - big >= lo)
        i = int(np.argmin(more[:-1])) if not more[:-1].all() else chunk
        taken, x = taken + i, float(xs[i])
        if i < chunk:
            break
    n = list(_greedy_walk(x, m))
    n[0 if m.b.real >= m.b_inv.real else 1] += taken if up else -taken
    return tuple(n)


@pytest.mark.parametrize(
    "b", [0.8, 0.6, 1.0, 0.3, 1.3, 0.6 + 0.1j, 0.45 + 0.2j, cmath.exp(0.3j), 2.0]
)
def test_array_reduction_matches_the_greedy_walk(b):
    # Points below, in and above the band.  The quarter-grid hits the band
    # edges exactly at b = 1; at b = 2, 0.125 - 2k lands on the near edge
    # after b-steps and 1/b-steps.  Re z = +-1e7 takes about 1e7 steps.  z0
    # is the scalar sum z + n1 b + n2 / b to the last bit.
    m = as_modulus(b)
    rng = np.random.default_rng(4)
    xs = np.concatenate([
        rng.uniform(-100, 100, 1000), np.arange(-20, 20, 0.25), 0.125 - 2 * np.arange(4)
    ])
    zs = np.append(xs + 1j * rng.uniform(-2, 2, len(xs)), [1e7 + 0.3j, -1e7 - 0.3j])
    z0, n1, n2 = core._strip_reduce_many(zs, m)
    assert n1.dtype == n2.dtype == np.int64
    for z, w, k1, k2 in zip(zs.tolist(), z0.tolist(), n1.tolist(), n2.tolist()):
        walk = _greedy_walk_far if abs(z.real) > 1e3 else _greedy_walk
        assert (k1, k2) == walk(z.real, m), z
        assert w == z + k1 * m.b + k2 * m.b_inv, z
    z0, n1, n2 = core._strip_reduce_many(np.array([], dtype=complex), m)
    assert len(z0) == len(n1) == len(n2) == 0 and n1.dtype == np.int64
    for z in (complex("nan"), complex(0.5, math.inf), 2.0**53):
        with pytest.raises(ParameterDomainError):
            strip_reduce(z, m)


def _walk(invert=False, offset=0):
    """A scalar stand-in for core._shift_product.  invert flips each leg's
    factor; offset 1 takes a leg's factors down from its upper end instead
    of up from its lower end."""

    def walk(z0, n1, n2, m):
        out = []
        for w, k1, k2 in zip(z0, n1, n2):
            c = 1.0
            for s, k in ((m.b, int(k1)), (m.b_inv, int(k2))):
                base = w - max(k, 0) * s + offset * s
                js = np.arange(abs(k))
                p = np.prod(one_minus_exp(2j * math.pi * s * (base + js * s)))
                c *= p if (k > 0) == invert else 1.0 / p
                w = w - k * s
            out.append(c)
        return np.array(out, dtype=complex)

    return walk


@pytest.mark.parametrize("b", [0.8, 0.6])
def test_consistency_reduction_case_sees_a_wrong_walk(b, monkeypatch):
    # The contour pairs are stubbed out: only the reduction case is read.
    ok = {"passed": True}
    monkeypatch.setattr(suites, "_consistency_pair", lambda *args: (ok, ok))
    for mutant, fails in ((_walk(), False), (_walk(invert=True), True),
                          (_walk(offset=1), True)):
        monkeypatch.setattr(core, "_shift_product", mutant)
        rep = suites.run_consistency(b=b)
        (case,) = [c for c in rep.cases if c.label == "reduction walk vs shift equation"]
        assert not case.flags and case.passed != fails
        assert case.deviation > 0.1 if fails else case.deviation < 1e-12


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


def _adaptive_log_gb(z0, m):
    """log G_b at one strip point along rays plus a semicircle over t = 0.

    The reference route: adaptive Gauss-Kronrod at rel_tol 1e-12 with a
    1e-13 absolute floor (Kronrod roundoff reaches 2e-14 near the strip
    edges), each half of the integrand written so that it decays without
    overflow.
    """
    b, b_inv, Q = m.b, m.b_inv, m.Q

    def f(ts):
        right = ts.real >= 0
        tr, tl = ts[right], ts[~right]
        out = np.empty(len(ts), dtype=complex)
        out[right] = np.exp((z0 - Q) * tr) / (
            tr * one_minus_exp(-b * tr) * one_minus_exp(-b_inv * tr)
        )
        out[~right] = np.exp(z0 * tl) / (
            tl * one_minus_exp(b * tl) * one_minus_exp(b_inv * tl)
        )
        return out

    reach = -math.log(1e-15) + 4.0
    t_left, t_right = reach / z0.real, reach / (Q.real - z0.real)
    r = min(math.pi * m.min_re_step, 1.0) / 4.0
    cap = min(5.0 / max(abs(z0.imag), 1.0), 1.5)
    segments = [Line(-t_left, -r), Arc(0j, r, math.pi, 0.0), Line(r, t_right)]
    panels = [math.ceil(t_left / cap), 4, math.ceil(t_right / cap)]
    res = integrate_batch(f, segments, panels, rel_tol=1e-12, abs_floor=1e-13)
    return -m.log_zeta - res.value


@pytest.mark.parametrize("b", [0.8, 0.6, 0.6 + 0.1j])
def test_strip_rule_matches_adaptive_reference(b):
    # Both half-planes up to the asymptotic switch, and both strip edges,
    # where the tails are longest.
    m = as_modulus(b)
    top = 0.95 * core._ASYM_THRESHOLD / m.min_re_step
    zs = np.array(
        [
            f * m.Q.real + 1j * y
            for f in (0.02, 0.5, 0.98)
            for y in (-top, -1.3, 0.0, 0.7, top)
        ]
    )
    logs = core.log_gb_strip(zs, m)
    for z, lg in zip(zs, logs):
        assert abs(lg - _adaptive_log_gb(z, m)) < 1e-11
        if m.b.imag:
            assert rel(cmath.exp(lg), gb_product_oracle(z, m)) < 1e-11


def test_long_shift_walk_keeps_rational_period_identity():
    # At b = 0.8 (b^2 = 16/25) the 25 b-steps multiply to one factor:
    # G(z + 20 M) = (1 - e^{40 pi i z})^M G(z).  M = 5000 takes 80,000 steps.
    m = as_modulus(0.8)
    z, n = 0.5 + 0.3j, 5000
    exact = (1.0 - cmath.exp(40j * math.pi * z)) ** n * gb_eval(z, m)
    assert rel(gb_eval(z + 20 * n, m), exact) < EvalConfig().rel_tol


def test_far_shift_walk_is_refused_up_front():
    # 8e8 steps would run for hours and lose ~1e-7 to roundoff.
    t0 = time.perf_counter()
    with pytest.raises(UnsupportedParameterError, match="shift steps"):
        gb_eval(1e9 + 0.3j, 0.8)
    assert time.perf_counter() - t0 < 1.0


def test_far_shift_walk_is_refused_at_loose_tolerance():
    # rel_tol 1e-6 allows 2.25e9 steps of roundoff; the fixed ceiling of
    # 2**23 steps still refuses 8e8 steps up front.
    t0 = time.perf_counter()
    with pytest.raises(UnsupportedParameterError, match="shift steps"):
        gb_eval(1e9 + 0.3j, 0.8, EvalConfig(rel_tol=1e-6))
    assert time.perf_counter() - t0 < 1.0


def test_strip_sum_memory_stays_bounded_near_an_edge():
    # One point at Re z = 1e-3 needs about 86,000 nodes; summed in blocks,
    # the batch's memory must not grow with that count.
    m = as_modulus(0.8)
    rng = np.random.default_rng(7)
    mid = (0.3 + 0.4 * rng.random(39)) * m.Q.real + 1j * rng.uniform(-1, 1, 39)
    zs = np.append(mid, 1e-3 + 0.2j)
    tracemalloc.start()
    try:
        logs = core.log_gb_strip(zs, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6
    assert np.max(np.abs(logs[:-1] - core.log_gb_strip(mid, m))) < 1e-13
    assert abs(logs[-1] - cmath.log(gb_eval(zs[-1], m))) < 1e-13


def test_asymptotic_direction_values_disagree_off_axis():
    # The two vertical asymptotics differ by the reflection Gaussian; they
    # must not be interchangeable.
    m = as_modulus(0.8)
    z = 0.5 * m.Q + 9.0j
    up = gb_asymptotic(z, m, "up")
    dn = gb_asymptotic(z, m, "down")
    assert rel(up, dn) > 1e-2
    with pytest.raises(ValueError, match="direction"):
        gb_asymptotic(z, m, "sideways")


@pytest.mark.parametrize("re_z", [0.0, -0.3, 0.8 + 1 / 0.8, 4.0])
def test_strip_sum_refuses_points_off_the_open_strip(re_z):
    # The strip sum does no reduction: a point on an edge or outside is a
    # typed error, even beside a good one.
    with pytest.raises(StripDomainError, match="open strip"):
        core.log_gb_strip([1.0 + 0.2j, re_z + 0.2j], 0.8)


def test_extended_precision_agrees_with_standard():
    m = as_modulus(0.8)
    z = 0.37 * m.Q + 0.6j
    a = gb_eval(z, m, EvalConfig(precision="standard"))
    c = gb_eval(z, m, EvalConfig(precision="extended"))
    assert rel(a, c) < 2e-10


def _direct_strip_sum(z0s, m, cfg):
    """The strip sum as one (points x nodes) table of exponentials.

    Same nodes, weights and node range (whole rows of core._ROW nodes) as
    core._log_gb_strip_batch, without its factoring: the reference for the
    factored sum.
    """
    tail = cfg.rel_tol * 10.0 ** (-cfg.trunc_margin)
    reach = -math.log(tail) + 4.0
    c = math.pi * m.min_re_step
    h = 2.0 * math.pi * core._TRAP_DEPTH * c / math.log(1e3 / tail)
    a_lo = math.floor(-reach / z0s.real.min() / h / core._ROW)
    a_hi = math.ceil(reach / (m.Q.real - z0s.real.max()) / h / core._ROW)
    k = np.arange(a_lo * core._ROW, a_hi * core._ROW)
    ctype = np.clongdouble if cfg.precision == "extended" else np.complex128
    out = np.empty(len(z0s), dtype=complex)
    for rows, side in ((z0s.imag >= 0, 1.0), (z0s.imag < 0, -1.0)):
        z, zc = z0s[rows].astype(ctype), z0s[rows]
        t = (k + 0.25) * ctype(h).real + np.asarray(1j * side * c, dtype=ctype)
        s = np.where(k >= 0, -1.0, 1.0)
        w = h / (t * one_minus_exp(s * m.b * t) * one_minus_exp(s * m.b_inv * t))
        e = np.exp(np.where(k >= 0, np.outer(z - m.Q, t), np.outer(z, t)))
        base = -m.log_zeta if side > 0 else m.log_zeta + 1j * math.pi * zc * (zc - m.Q)
        out[rows] = base - (e @ w).astype(complex)
    return out


@pytest.mark.parametrize("b", [0.8, 0.6, 0.6 + 0.1j, 1.0, 0.3])
def test_factored_strip_sum_matches_direct_sum(b):
    m = as_modulus(b)
    rng = np.random.default_rng(11)
    top = 0.95 * core._ASYM_THRESHOLD / m.min_re_step
    batches = [np.array([0.4 * m.Q.real + 0.3j]), np.array([0.6 * m.Q.real - 0.3j])]
    for n, (lo, hi) in ((20, (0.05, 0.95)), (384, (0.25, 0.75))):
        re = (lo + (hi - lo) * rng.random(n)) * m.Q.real
        batches.append(re + 1j * rng.uniform(-top, top, n))
    # Re z = 1e-3 takes the node range across dozens of blocks.
    batches.append(np.append(batches[2][:5], 1e-3 + 0.2j))
    cfg = EvalConfig()
    for zs in batches:
        got = core._log_gb_strip_batch(zs, m, cfg)
        assert np.max(np.abs(got - _direct_strip_sum(zs, m, cfg))) < 1e-14
    # In extended precision too, on the band batch and on the batch whose
    # row heads restart at each of its blocks.
    ext = EvalConfig(precision="extended")
    for zs in (batches[2], batches[-1]):
        got = core._log_gb_strip_batch(zs, m, ext)
        assert np.max(np.abs(got - _direct_strip_sum(zs, m, ext))) < 1e-14


def test_strip_sum_matches_the_product_truth_table():
    # log G_b at b = 0.6+0.1i from the double product in mpmath at 30 digits
    # (tools/golden_strip.py): band points in both half-planes and four near
    # the strip edges, summed as one batch and one by one.  The table's logs
    # are principal, so the difference is taken mod 2 pi i.
    path = pathlib.Path(__file__).parent / "data" / "strip_log_gb_b0.6+0.1i.json"
    table = json.loads(path.read_text())
    rows = np.array(table["points"])
    b = complex(*table["b"])
    zs, ref = rows[:, 0] + 1j * rows[:, 1], rows[:, 2] + 1j * rows[:, 3]
    lone = np.array([core.log_gb_strip([z], b)[0] for z in zs])
    for got in (core.log_gb_strip(zs, b), lone):
        d = got - ref
        d.imag = np.remainder(d.imag + math.pi, 2.0 * math.pi) - math.pi
        assert np.max(np.abs(d)) <= 1e-14


@pytest.mark.parametrize("precision", ["standard", "extended"])
@pytest.mark.parametrize("b", [0.8, 0.6 + 0.1j])
def test_memoised_row_weights_keep_every_bit(b, precision):
    # Both half-planes, a lone point, and a point near the edge whose node
    # range spans many blocks, cold and then served from the memo.
    m, cfg = as_modulus(b), EvalConfig(precision=precision)
    batches = [
        np.array([0.4 * m.Q.real + 0.3j]),
        (np.linspace(0.1, 0.9, 12) * m.Q.real) + 1j * np.linspace(-2, 2, 12),
        np.array([1e-3 + 0.2j, 0.5 * m.Q.real - 0.4j]),
    ]
    core._row_weights.cache_clear()
    cold = [core.log_gb_strip(zs, m, cfg) for zs in batches]
    assert core._row_weights.cache_info().currsize > 0
    for zs, first in zip(batches, cold):
        warm = core.log_gb_strip(zs, m, cfg)
        assert warm.tobytes() == first.tobytes()


def test_row_weight_memo_stays_bounded():
    for b in np.linspace(0.3, 3.0, 40):
        core.log_gb_strip([0.5 * (b + 1 / b) + 0.1j, 0.3 - 0.1j], b)
    assert core._row_weights.cache_info().currsize <= 32


def test_changed_step_gets_fresh_row_weights(monkeypatch):
    # A warm memo must not hand a changed step the rows of the old one.  At
    # depth 0.78 this point's rows span the same indices as at the default
    # depth, so only the step in the key tells the two apart; with a step
    # five times too coarse the sum still fails its check.
    m = as_modulus(0.8)
    z = [0.5 * m.Q.real + 0.2j]
    core.log_gb_strip(z, m)
    monkeypatch.setattr(core, "_TRAP_DEPTH", 0.78)
    warm = core.log_gb_strip(z, m)
    core._row_weights.cache_clear()
    assert warm.tobytes() == core.log_gb_strip(z, m).tobytes()
    monkeypatch.setattr(core, "_TRAP_DEPTH", 4.0)
    with pytest.raises(ConvergenceError):
        gb_eval(0.3 + 0.2j, m)


def test_nearest_lattice_point_identifies_origin():
    m = as_modulus(0.8)
    n1, n2, point, d = nearest_lattice_point(1e-5 + 0j, m)
    assert (n1, n2) == (0, 0)
    assert point == 0j
    assert d == pytest.approx(1e-5, rel=1e-9)
    n1, n2, point, d = nearest_lattice_point(m.b + m.b_inv + 1e-6, m)
    assert (n1, n2) == (1, 1)
    assert d == pytest.approx(1e-6, abs=1e-9)


@pytest.mark.parametrize("block", [core._BLOCK, 5])
@pytest.mark.parametrize("b", [0.8, 0.6, 0.6 + 0.1j])
def test_lattice_scan_matches_brute_force(b, block, monkeypatch):
    # The cone {n1 b + n2 / b} below Re 45 lies inside a 60 x 60 grid, so the
    # grid's minimum is the exact nearest distance for these points.  A tiny
    # block makes every point take its n1 over several blocks.
    monkeypatch.setattr(core, "_BLOCK", block)
    m = as_modulus(b)
    n = np.arange(60)
    cone = (n[:, None] * m.b + n[None, :] * m.b_inv).ravel()
    rng = np.random.default_rng(11)
    w = rng.uniform(-5, 25, 200) + 1j * rng.uniform(-2, 2, 200)
    w = np.concatenate([w, cone[[0, 61, 125]] + 1e-13, cone[[1, 60]] - 1e-13j])
    n1, n2, d = core._nearest_lattice(w, m)
    brute = np.abs(w[:, None] - cone).min(axis=1)
    assert np.allclose(d, brute, rtol=1e-12, atol=1e-15)
    assert np.all(d[-5:] < 1e-12)
    # The returned indices name a lattice point at that distance.
    assert np.all(n1 >= 0) and np.all(n2 >= 0)
    assert np.allclose(np.abs(w - n1 * m.b - n2 * m.b_inv), d, rtol=1e-12, atol=1e-15)
    pole, zero = core._near_lattice([-w[-1], m.Q + w[-2]], m, 1e-12)
    assert list(pole) == [True, False] and list(zero) == [False, True]


@pytest.mark.parametrize("block", [core._BLOCK, 3])
@pytest.mark.parametrize("b", [0.8, 0.6 + 0.1j, 1.3])
def test_shift_product_matches_scalar_shift_equation(b, block, monkeypatch):
    # func_eq_general multiplies the same factors one at a time.  The greedy
    # walk moves one way only, so G(z) = C G(z0) gives C = 1 / P(z; n1, n2)
    # for steps up to z0 and C = P(z0; -n1, -n2) for steps down.
    monkeypatch.setattr(core, "_BLOCK", block)
    m = as_modulus(b)
    rng = np.random.default_rng(5)
    zs = rng.uniform(-30, 30, 40) + 1j * rng.uniform(-1, 1, 40)
    z0, n1, n2 = core._strip_reduce_many(zs, m)
    c = core._shift_product(z0, n1, n2, m)
    for z, w, k1, k2, got in zip(zs, z0, n1.tolist(), n2.tolist(), c):
        if k1 >= 0 and k2 >= 0:
            want = 1.0 / func_eq_general(z, k1, k2, m)
        else:
            want = func_eq_general(w, -k1, -k2, m)
        assert rel(got, want) < 1e-12


@pytest.mark.parametrize("block", [core._BLOCK, 3])
@pytest.mark.parametrize("b", [0.8, 0.6 + 0.1j, 1.3])
def test_shift_product_forms_each_factor_once(b, block, monkeypatch):
    # One factor per step a walk takes, however long the other walks of the
    # call are, and each value as the walk alone gives it.  Block 3 cuts the
    # long walks into pieces and the call into many chunks.  The long legs
    # go the way whose factors stay near 1 at b = 0.6+0.1i (down by b, up
    # by 1/b); the other way their product leaves double range.
    monkeypatch.setattr(core, "_BLOCK", block)
    m = as_modulus(b)
    n1 = np.array([0, 1, -1, 2, -2, -40, -41, 0, 3, -39, 1, 0])
    n2 = np.array([0, 0, 2, -1, 1, 2, 0, 42, 40, 1, -1, 1])
    z0 = 0.5 * m.Q.real + np.linspace(-0.2, 0.2, len(n1)) + 0.3j
    sizes = []
    real = core.one_minus_exp

    def counting(w):
        sizes.append(np.size(w))
        return real(w)

    monkeypatch.setattr(core, "one_minus_exp", counting)
    c = core._shift_product(z0, n1, n2, m)
    assert sum(sizes) == np.abs(n1).sum() + np.abs(n2).sum()
    assert max(sizes) <= block
    assert np.isfinite(c).all()
    alone = [core._shift_product(z0[i : i + 1], n1[i : i + 1], n2[i : i + 1], m)
             for i in range(len(z0))]
    assert c.tobytes() == np.concatenate(alone).tobytes()


def test_far_point_raises_without_warnings():
    # The shift product of Re z = 1000 overflows; that must surface as the
    # typed error alone, with no numpy warning on the way.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UnsupportedParameterError, match="not finite"):
            gb_eval_many([1000 - 0.3j], 0.8)


def test_underflow_far_below_the_strip_raises():
    # At b = 0.8, |G_b| shrinks far below the strip.  A value still in the
    # normal double range is returned; below it (a subnormal at 1 - 4600i, a
    # 0 at 1 - 5000i), with no zero of G_b near either point, the typed error
    # names the point.
    m = as_modulus(0.8)
    v = gb_eval(1 - 3000j, m)
    assert v == pytest.approx(-7.891051e-206 - 2.059718e-205j, rel=1e-6)
    for z in (1 - 4600j, 1 - 5000j):
        with pytest.raises(UnsupportedParameterError, match="not finite") as err:
            gb_eval_many([0.5, z, 0.3], m)
        assert str(z) in str(err.value)


@pytest.mark.parametrize(
    "kwargs",
    [{"rel_tol": 0.0}, {"rel_tol": -1e-10}, {"rel_tol": 1.0}, {"rel_tol": math.nan},
     {"trunc_margin": math.nan}, {"trunc_margin": math.inf}, {"trunc_margin": -1.0},
     {"precision": "extnded"}],
)
def test_eval_config_refuses_values_outside_its_domain(kwargs):
    with pytest.raises(ParameterDomainError):
        EvalConfig(**kwargs)


def test_eval_config_accepts_its_domain_edges():
    cfg = EvalConfig(rel_tol=0.5, trunc_margin=0.0, precision="extended")
    assert (cfg.rel_tol, cfg.trunc_margin, cfg.precision) == (0.5, 0.0, "extended")


def test_one_minus_exp_small_argument_accuracy():
    w = 1e-9j
    # Direct form loses ~9 digits here; the helper must not.
    exact = -w - w * w / 2 - w**3 / 6
    assert abs(complex(one_minus_exp(w)) - exact) < 1e-24


def test_one_minus_exp_near_a_period():
    # At w = i (6 pi + d) the factor is small although w is not: 1 - e^w
    # computed directly loses about eps / d of relative accuracy.
    for d in (1e-4, -3e-7):
        y = 6.0 * math.pi + d
        exact = -2j * math.sin(y / 2) * cmath.exp(0.5j * y)
        assert rel(complex(one_minus_exp(1j * y)), exact) < 1e-15


def test_eval_many_matches_scalar_eval():
    m = as_modulus(0.8)
    zs = np.array([0.3 * m.Q + 0.1j, 0.6 * m.Q - 0.2j, 2.9 + 0.4j])
    batch = gb_eval_many(zs, m)
    for z, v in zip(zs, batch):
        assert rel(v, gb_eval(z, m)) < 1e-12


def test_eval_many_gives_each_point_the_bits_of_the_plain_call(monkeypatch):
    # Permuted, repeated, with a zero of G_b and points a walk away: each
    # value keeps its bits, and the call sorts once, by reduced point.
    m = as_modulus(0.8)
    zs = np.array([0.3 * m.Q + 0.1j, 2.9 + 0.4j, m.Q + m.b, -1.7 - 0.2j, 0.6 * m.Q])
    plain = gb_eval_many(zs, m)
    sorts = []
    distinct = core._distinct
    monkeypatch.setattr(core, "_distinct", lambda z: sorts.append(z) or distinct(z))
    idx = [3, 1, 1, 4, 2, 0, 3, 2, 0]
    assert gb_eval_many(zs[idx], m).tobytes() == plain[idx].tobytes()
    assert len(sorts) == 1 and plain[2] == 0


def test_eval_many_keeps_the_shape_of_its_input():
    # As a ufunc: a scalar gives a scalar, an array its own shape.
    m = as_modulus(0.8)
    grid = np.array([[0.5, 0.6 - 0.2j, 0.7], [1.1 + 0.3j, 0.5, m.Q]])
    flat = gb_eval_many(grid.ravel(), m)
    assert gb_eval_many(grid, m).tobytes() == flat.reshape(2, 3).tobytes()
    one = gb_eval_many(0.5, m)
    assert np.shape(one) == () and one == flat[0]
    assert gb_eval_many(np.array(0.5), m) == flat[0]
    with pytest.raises(PoleProximityError):
        gb_eval_many([[0.5, 0.6], [0.0, 0.7]], m)


def test_modulus_rejects_degenerate_b():
    with pytest.raises(ParameterDomainError):
        as_modulus(0.0)
    with pytest.raises(ParameterDomainError):
        as_modulus(-0.5)


@pytest.mark.parametrize(
    "b", [0.001 + 0.001j, 0.01 + 0.01j, 1e150 + 1e140j, 1e200, 1e-200, 1e-170 + 1e-171j]
)
def test_modulus_whose_constants_leave_double_range_is_unsupported(b):
    # exp(log zeta) overflows (the first two), zeta underflows to 0, b^2 or
    # b^-2 overflows, or q_tilde is infinite and zeta NaN (the last).
    with pytest.raises(UnsupportedParameterError, match="double range"):
        as_modulus(b)
