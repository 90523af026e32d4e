"""Quadrature driver checks against closed-form integrals."""

import numpy as np
import pytest

from qdilog import quadrature
from qdilog.errors import ConvergenceError
from qdilog.quadrature import (
    NODES15,
    WEIGHTS7,
    WEIGHTS15,
    Arc,
    Line,
    integrate_batch,
)


def test_rule_weights_integrate_constants():
    # Both embedded rules must integrate 1 over [-1, 1] exactly.
    assert WEIGHTS15.sum() == pytest.approx(2.0, abs=1e-15)
    assert WEIGHTS7.sum() == pytest.approx(2.0, abs=1e-15)
    assert NODES15.shape == (15,)
    np.testing.assert_allclose(NODES15, -NODES15[::-1], atol=1e-16)


def test_rule_polynomial_exactness_degree_20():
    # The 15-point Kronrod rule is exact through degree 22; the embedded
    # 7-point Gauss rule through degree 13.  Apply both directly.
    k15 = float(WEIGHTS15 @ NODES15**20)
    assert k15 == pytest.approx(2.0 / 21.0, rel=1e-14)
    g7 = float(WEIGHTS7 @ NODES15**12)
    assert g7 == pytest.approx(2.0 / 13.0, rel=1e-13)
    # Degree 14 breaks the Gauss rule but not Kronrod: the gap is what
    # the driver uses as its error estimate.
    assert abs(WEIGHTS15 @ NODES15**14 - 2.0 / 15.0) < 1e-15
    assert abs(WEIGHTS7 @ NODES15**14 - 2.0 / 15.0) > 1e-6


def test_driver_value_exact_despite_estimate_driven_refinement():
    res = integrate_batch(
        lambda z: (z**20)[None, :],
        [Line(-1.0, 1.0)],
        [1],
        rel_tol=1e-12,
    )
    assert res.values[0] == pytest.approx(2.0 / 21.0, rel=1e-14)


def test_gaussian_on_real_line():
    res = integrate_batch(
        lambda z: np.exp(-2.0 * np.pi * z**2)[None, :],
        [Line(-4.0, 4.0)],
        [8],
        rel_tol=1e-12,
    )
    assert res.values[0] == pytest.approx(2.0**-0.5, rel=1e-12)


def test_unit_circle_residue():
    # One counterclockwise loop of dz/z picks up 2 pi i.
    res = integrate_batch(
        lambda z: (1.0 / z)[None, :],
        [Arc(0.0, 1.0, 0.0, 2.0 * np.pi)],
        [8],
        rel_tol=1e-12,
    )
    assert res.values[0] == pytest.approx(2j * np.pi, rel=1e-12)


def test_batch_axis_alignment():
    # Three integrands in one pass; panels are shared, values are not.
    def fbatch(z):
        return np.stack([np.ones_like(z), z, z**2])

    res = integrate_batch(fbatch, [Line(0.0, 1.0)], [2], rel_tol=1e-12)
    np.testing.assert_allclose(res.values, [1.0, 0.5, 1.0 / 3.0], rtol=1e-13)
    assert res.n_evals == 15 * res.n_panels


def test_adaptive_refinement_resolves_needle():
    # A spike of width 1e-3 forces bisection but must still converge.
    def fbatch(z):
        return (1.0 / (z**2 + 1e-6))[None, :]

    res = integrate_batch(fbatch, [Line(-1.0, 1.0)], [4], rel_tol=1e-10)
    exact = 2.0 * np.arctan(1e3) / 1e-3
    assert res.values[0] == pytest.approx(exact, rel=1e-10)
    assert res.n_panels > 4


def test_panel_budget_exhaustion_raises(monkeypatch):
    def fbatch(z):
        return (1.0 / (z**2 + 1e-9))[None, :]

    monkeypatch.setattr(quadrature, "_MAX_PANELS", 8)
    with pytest.raises(ConvergenceError) as info:
        integrate_batch(fbatch, [Line(-1.0, 1.0)], [2], rel_tol=1e-13)
    assert info.value.achieved_error > info.value.target > 0


def test_abs_floor_accepts_zero_integrand():
    res = integrate_batch(
        lambda z: np.zeros_like(z)[None, :],
        [Line(-1.0, 1.0)],
        [1],
        rel_tol=1e-12,
        abs_floor=1e-14,
    )
    assert res.values[0] == 0.0


def test_segmented_path_matches_single_line():
    # Splitting the path must not change the value.
    def fbatch(z):
        return np.exp(1j * z)[None, :]

    whole = integrate_batch(fbatch, [Line(0.0, 2.0)], [4], rel_tol=1e-12)
    split = integrate_batch(
        fbatch, [Line(0.0, 0.7), Line(0.7, 2.0)], [2, 3], rel_tol=1e-12
    )
    assert whole.values[0] == pytest.approx(split.values[0], rel=1e-12)
    exact = (np.exp(2j) - 1.0) / 1j
    assert whole.values[0] == pytest.approx(exact, rel=1e-12)


def test_mismatched_panel_spec_rejected():
    with pytest.raises(ValueError):
        integrate_batch(
            lambda z: z[None, :], [Line(0.0, 1.0)], [1, 2], rel_tol=1e-8
        )
