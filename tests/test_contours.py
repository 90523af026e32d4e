"""Contour planning geometry and the integration engine's contracts."""

import math

import numpy as np
import pytest

from qdilog import contour, suites
from qdilog.contour import (
    _FAN_CAP,
    ContourSpec,
    Indentation,
    IntegrationResult,
    _pole_set,
    integrate_contour,
    plan_contour,
    pole_sequences,
)
from qdilog.core import as_modulus
from qdilog.errors import ContourUnsupportedError, ConvergenceError, DegenerateParameterError
from qdilog.identities import six_nine_integrand, tau_binomial_integrand
from qdilog.operators import (
    kac_rhs_integral,
    make_rep_params,
    qbinomial_integral,
    rep_bindings,
)
from qdilog.symbolic import GaussRat, IntegrandSpec, Symbol, gauss_from_products, gen

M8 = as_modulus(0.8)


def tb_bindings(alpha, beta):
    return {"Q": M8.Q, "alpha": complex(alpha), "beta": complex(beta)}


def test_pole_sequences_of_beta_integrand():
    # Two fans: the reciprocal factor puts a descending fan with its top at
    # the origin, the direct factor an ascending fan starting at i*alpha.
    alpha = M8.Q / 6
    poles, zeros = pole_sequences(tau_binomial_integrand(), tb_bindings(alpha, alpha), M8)
    assert len(poles) == 2
    by_dir = {s.direction: s for s in poles}
    assert by_dir[-1].base == 0j
    assert by_dir[+1].base == pytest.approx(1j * alpha)
    assert all(s.weight == 1 for s in poles)
    assert len(zeros) == 2


def _reference_pole_set(pole_seqs, zero_seqs, im_lo, im_hi):
    """Fan points merged and cancelled one by one over Python lists."""

    def fan(seq):
        out = []
        s1, s2 = seq.step_b, seq.step_binv
        if seq.direction < 0:
            extent1 = (seq.base.imag - im_lo) / abs(s1.imag)
            extent2 = (seq.base.imag - im_lo) / abs(s2.imag)
        else:
            extent1 = (im_hi - seq.base.imag) / abs(s1.imag)
            extent2 = (im_hi - seq.base.imag) / abs(s2.imag)
        cap1 = min(_FAN_CAP, int(extent1) + 1) if extent1 >= 0 else -1
        cap2 = min(_FAN_CAP, int(extent2) + 1) if extent2 >= 0 else -1
        for n1 in range(cap1 + 1):
            p1 = seq.base + n1 * s1
            for n2 in range(cap2 + 1):
                p = p1 + n2 * s2
                if im_lo <= p.imag <= im_hi:
                    out.append(p)
        return out

    merged = []
    for seq in pole_seqs:
        for p in fan(seq):
            eps = 1e-9 * (1.0 + abs(p))
            for entry in merged:
                if abs(entry[0] - p) <= eps and entry[2] == seq.direction:
                    entry[1] += seq.weight
                    break
            else:
                merged.append([p, seq.weight, seq.direction])
    zero_pts = [(p, seq.weight) for seq in zero_seqs for p in fan(seq)]
    out = []
    for p, w, d in merged:
        eps = 1e-9 * (1.0 + abs(p))
        zw = sum(zw_ for zp, zw_ in zero_pts if abs(zp - p) <= eps)
        if zw < w:
            out.append((p, w - zw, d))
    return out


def test_pole_set_matches_list_reference():
    params = make_rep_params(0.8, alpha=0.5, s=0.4, u_samples=(0.1,))
    q = M8.Q
    cases = {
        # A = B = C: three ascending fans coincide and merge to weight 3.
        "six-nine named-2": (
            six_nine_integrand(),
            {"Q": q, "A": q / 8, "B": q / 8, "C": q / 8, "D": q / 3},
        ),
        # Fan ends at 0 and 0.32 on the axis itself.
        "q-binomial cluster": (qbinomial_integral().spec(), rep_bindings(params, 0.1)),
        # alpha = Q - b: the zeros of 1/G_b(Q + i v) cancel every pole of
        # G_b(alpha + i v) with n1 >= 1.
        "zero cancels a pole": (tau_binomial_integrand(), tb_bindings(q - M8.b, q / 6)),
    }
    for name, (spec, bindings) in cases.items():
        poles, zeros = pole_sequences(spec, bindings, M8)
        ims = [s.base.imag for s in poles]
        for box in ((min(ims) - 6.0, max(ims) + 6.0), (-1.0, 1.0)):
            pts, w, d = _pole_set(poles, zeros, *box)
            ref = _reference_pole_set(poles, zeros, *box)
            assert pts.tolist() == [p for p, _, _ in ref], name
            assert w.tolist() == [wt for _, wt, _ in ref], name
            assert d.tolist() == [dr for _, _, dr in ref], name
    poles, zeros = pole_sequences(*cases["six-nine named-2"], M8)
    assert max(_pole_set(poles, zeros, -1.0, 1.0)[1]) == 3
    poles, zeros = pole_sequences(*cases["zero cancels a pole"], M8)
    kept = _pole_set(poles, zeros, -1.0, 4.0)[0]
    assert 0 < len(kept) < len(_pole_set(poles, [], -1.0, 4.0)[0])


def test_beta_integrand_baseline_splits_the_gap():
    alpha = M8.Q / 6
    c = plan_contour(tau_binomial_integrand(), tb_bindings(alpha, alpha), M8)
    assert c.indentations == ()
    assert c.gap_lo == pytest.approx(0.0, abs=1e-12)
    assert c.gap_hi == pytest.approx(alpha.real)
    assert c.baseline == pytest.approx(0.5 * alpha.real)


def test_six_nine_baseline_below_smallest_ascending_fan():
    bnd = {
        "Q": M8.Q,
        "A": M8.Q / 6,
        "B": M8.Q / 7,
        "C": M8.Q / 9,
        "D": M8.Q / 4 + 0.1j,
    }
    c = plan_contour(six_nine_integrand(), bnd, M8)
    assert c.indentations == ()
    assert 0.0 < c.baseline < (M8.Q / 9).real
    assert c.gap_hi == pytest.approx((M8.Q / 9).real)


def test_binomial_contour_bumps_the_on_axis_cluster():
    # bs = 0.32 puts fan endpoints at 0 (descending) and bs (ascending) on
    # the axis itself; the planner must thread between them with two
    # semicircles of radius bs / 4.
    params = make_rep_params(0.8, alpha=0.5, s=0.4, u_samples=(0.1,))
    c = plan_contour(qbinomial_integral().spec(), rep_bindings(params, 0.1), M8)
    assert c.baseline == pytest.approx(0.0)
    assert len(c.indentations) == 2
    lo, hi = sorted(c.indentations, key=lambda i: i.center)
    assert lo.center == pytest.approx(0.0, abs=1e-12)
    assert lo.side == "above"
    assert hi.center == pytest.approx(0.32)
    assert hi.side == "below"
    for bump in (lo, hi):
        assert bump.radius == pytest.approx(0.08)


def test_composition_contour_bumps_every_cluster_point():
    params = make_rep_params(0.8, alpha=0.5, s=0.3, t=0.2, u_samples=(0.1,))
    c = plan_contour(kac_rhs_integral().spec(), rep_bindings(params, 0.1), M8)
    centers = sorted(i.center for i in c.indentations)
    assert centers == pytest.approx([-0.24, -0.16, -0.12, 0.0])
    sides = {i.center: i.side for i in c.indentations}
    assert sides[min(sides)] == "above"
    assert sides[max(sides)] == "below"
    # nearest-neighbor gap is 0.04, so radii stay at a quarter of that
    assert all(i.radius == pytest.approx(0.01) for i in c.indentations)


@pytest.mark.parametrize("exponent, baseline", [(1, -0.2), (-1, -1.25)])
def test_one_sided_gap_keeps_half_a_unit_off_the_fan(exponent, baseline):
    # One factor puts pole fans on one side only (ascending from Im = A for
    # a direct factor, descending from Im = A - Q for a reciprocal one), so
    # the baseline sits 0.5 off the nearest pole.
    spec = IntegrandSpec(Symbol.gb(gen("A") + gen("tau").scale(1j), exponent), "tau")
    c = plan_contour(spec, {"A": 0.3}, M8)
    assert c.baseline == pytest.approx(baseline, abs=1e-12)
    assert math.isinf(c.gap_lo if exponent > 0 else c.gap_hi)


def test_integrand_without_fans_keeps_the_real_axis():
    c = plan_contour(IntegrandSpec(Symbol.one(), "tau"), {}, M8)
    assert (c.baseline, c.gap_lo, c.gap_hi) == (0.0, -math.inf, math.inf)


def test_pinched_gap_is_refused():
    with pytest.raises(ContourUnsupportedError):
        plan_contour(tau_binomial_integrand(), tb_bindings(1e-9, M8.Q / 6), M8)


def test_inverted_fans_are_refused():
    # A negative weight puts the ascending fan below the descending one;
    # no horizontal contour separates them.
    with pytest.raises(ContourUnsupportedError):
        plan_contour(tau_binomial_integrand(), tb_bindings(-0.3, M8.Q / 6), M8)


def test_handed_in_contour_on_a_pole_is_refused():
    alpha = M8.Q / 6
    bad = ContourSpec(baseline=float(alpha.real))
    with pytest.raises(ContourUnsupportedError):
        integrate_contour(
            tau_binomial_integrand(), tb_bindings(alpha, alpha), M8, contour=bad
        )


@pytest.mark.parametrize(
    "slope, b, match",
    [(1, 0.8, "parallel"), (GaussRat(10, 1), 0.8 + 0.3j, "opposite vertical directions")],
)
def test_unclassifiable_pole_ladder_is_refused(slope, b, match):
    # Slope 1 at real b puts both ladder steps on the real axis; slope 10+i
    # at b = 0.8+0.3i sends the b-step up and the 1/b-step down.
    spec = IntegrandSpec(Symbol.gb(gen("tau").scale(slope)), "tau")
    with pytest.raises(DegenerateParameterError, match=match):
        plan_contour(spec, {}, as_modulus(b))


@pytest.mark.parametrize(
    "factor, coeff, match",
    [("tau", 1, "grows quadratically"), (1, 1j, "non-decaying")],
)
def test_tail_without_decay_is_refused(factor, coeff, match):
    # e^{pi tau^2} and e^{pi i tau} along the real axis.
    tau = gen("tau")
    spec = IntegrandSpec(Symbol.from_gauss(gauss_from_products([(tau, factor, coeff)])), "tau")
    with pytest.raises(ContourUnsupportedError, match=match):
        integrate_contour(spec, {}, M8)


def test_indentation_beyond_the_truncation_is_refused():
    v = gen("v")
    spec = IntegrandSpec(
        Symbol.from_gauss(gauss_from_products([(v, v, GaussRat.of(-2))])), "v"
    )
    far = ContourSpec(0.0, (Indentation(50.0, 0.1, "above"),), truncation=5.0)
    with pytest.raises(ContourUnsupportedError, match="indentation lies outside"):
        integrate_contour(spec, {}, M8, contour=far)


def test_pure_gaussian_needs_no_fans():
    v = gen("v")
    spec = IntegrandSpec(
        Symbol.from_gauss(gauss_from_products([(v, v, GaussRat.of(-2))])), "v"
    )
    res = integrate_contour(spec, {}, M8, rel_tol=1e-12)
    assert res.value == pytest.approx(2.0**-0.5, rel=1e-12)
    assert res.contour.indentations == ()


def test_fixed_truncation_is_respected():
    v = gen("v")
    spec = IntegrandSpec(
        Symbol.from_gauss(gauss_from_products([(v, v, GaussRat.of(-2))])), "v"
    )
    res = integrate_contour(
        spec, {}, M8, contour=ContourSpec(baseline=0.0, truncation=5.0)
    )
    assert res.truncation == (5.0, 5.0)
    assert res.value == pytest.approx(2.0**-0.5, rel=1e-10)


def test_contour_deformation_leaves_value_fixed():
    # Any baseline inside the gap encloses the same fans, so the value may
    # move only within the two error budgets.
    alpha = M8.Q / 6
    bnd = tb_bindings(alpha, alpha)
    spec = tau_binomial_integrand()
    base = integrate_contour(spec, bnd, M8, rel_tol=1e-9)
    shifted = ContourSpec(baseline=0.8 * alpha.real)
    moved = integrate_contour(spec, bnd, M8, contour=shifted, rel_tol=1e-9)
    budget = base.err_estimate + moved.err_estimate + 1e-13 * abs(base.value)
    assert abs(base.value - moved.value) <= budget


def test_bumped_contour_integrates_without_tripping_pole_guard():
    # Regression: the magnitude probe at x = 0 must ride the indentation
    # arc instead of sampling the bumped pole on the baseline.
    params = make_rep_params(0.8, alpha=0.5, s=0.4, u_samples=(0.1,))
    opint = qbinomial_integral()
    res = integrate_contour(opint.spec(), rep_bindings(params, 0.1), M8, rel_tol=1e-8)
    assert np.isfinite(res.value.real) and np.isfinite(res.value.imag)
    assert res.err_estimate < 1e-6 * abs(res.value)


@pytest.mark.parametrize("mirror, stretched", [(1, (6.0, 6.0 * 1.4**2)),
                                               (-1, (6.0 * 1.4**2, 6.0))],
                         ids=["right", "left"])
def test_tail_probe_re_extends_a_short_cutoff(monkeypatch, mirror, stretched):
    # A cutoff of 6 leaves one tail above the probe's limit (the right one,
    # or the left one once btau -> -btau mirrors the integrand), so that
    # side is stretched by 1.4 until the probe passes (twice); the value
    # stays within the error estimate of the unpatched integral.
    alpha = M8.Q / 6
    bnd = tb_bindings(alpha, alpha)
    symbol = tau_binomial_integrand().symbol.substitute("btau", gen("btau").scale(mirror))
    spec = IntegrandSpec(symbol, "btau")
    ref = integrate_contour(spec, bnd, M8, rel_tol=1e-8)
    monkeypatch.setattr(contour, "_tail_cutoff", lambda *args: 6.0)
    res = integrate_contour(spec, bnd, M8, rel_tol=1e-8)
    assert res.truncation == pytest.approx(stretched, rel=1e-15)
    assert abs(res.value - ref.value) <= res.err_estimate


def test_tail_probe_raises_when_three_stretches_fall_short(monkeypatch):
    # From a cutoff of 3, three stretches by 1.4 reach only 8.2 on the right,
    # where the tail is still above the probe's limit: a truncated value
    # would sit at the edge of its own error estimate, so the call raises.
    alpha = M8.Q / 6
    monkeypatch.setattr(contour, "_tail_cutoff", lambda *args: 3.0)
    with pytest.raises(ConvergenceError, match="after three stretches"):
        integrate_contour(
            tau_binomial_integrand(), tb_bindings(alpha, alpha), M8, rel_tol=1e-8
        )


def test_truncation_doubling_stays_within_budget():
    alpha = M8.Q / 6
    bnd = tb_bindings(alpha, alpha)
    spec = tau_binomial_integrand()
    base = integrate_contour(spec, bnd, M8, rel_tol=1e-9)
    t = 2.0 * max(base.truncation)
    doubled = integrate_contour(
        spec,
        bnd,
        M8,
        contour=ContourSpec(baseline=base.contour.baseline, truncation=t),
        rel_tol=1e-9,
    )
    budget = base.err_estimate + doubled.err_estimate + 1e-13 * abs(base.value)
    assert abs(base.value - doubled.value) <= budget


def test_consistency_cases_scale_by_the_values_they_compare(monkeypatch):
    # Base 1, deformed 10, truncation-doubled 1 + 1e-3: each case's relative
    # deviation is taken against its own two values.
    values = iter([1.0, 10.0, 1.0 + 1e-3])

    def stub(*args, **kwargs):
        return IntegrationResult(
            value=complex(next(values)),
            err_estimate=0.0,
            truncation=(1.0, 1.0),
            n_panels=0,
            n_evals=0,
            contour=ContourSpec(baseline=0.0),
        )

    monkeypatch.setattr(suites, "integrate_contour", stub)
    deformed, doubled = suites._consistency_pair(None, {}, M8, None, 1e-8)
    assert deformed["deviation"] == pytest.approx(9.0 / 10.0, rel=1e-12)
    assert doubled["deviation"] == pytest.approx(1e-3 / (1.0 + 1e-3), rel=1e-12)
