"""Every numeric suite runs its cases in lockstep.

Each round of a suite sends every live case's G_b points in one
gb_eval_many call.  The public single-case functions run the same driver on
their one step generator (run_steps), so each of their calls holds only
their own points, and they give the same bits as when every case
integrated by itself.
"""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import qdilog
from qdilog import cli, core, identities, suites, symbolic
from qdilog.core import as_modulus
from qdilog.errors import PoleProximityError, UnsupportedParameterError
from qdilog.identities import six_nine_check, tau_binomial_check, tau_binomial_integrand
from qdilog.operators import kac_values, make_rep_params, qbinomial_value
from qdilog.quadrature import Arc, Line, integrate_batch
from qdilog.contour import integrate_contour

# Written by `python tests/test_lockstep.py` with the code at commit 38c3bde,
# where every case integrated by itself.  The integrals' bits are still those.
# Four cells were rewritten since: element [1], the closed form, of
# tau_binomial_check and six_nine_check at both moduli.  Those closed forms
# became exact Symbols, whose evaluation multiplies the G_b powers in the
# symbol's factor order with reciprocals, not as (g0 ... g5) / (g6 g7 g8), so
# their last bits moved, by 5e-17 to 5.4e-16 relative.
GOLDEN = pathlib.Path(__file__).parent / "data" / "check_values.json"
MODULI = {"0.8": 0.8, "0.6+0.1i": 0.6 + 0.1j}


def _bits(x) -> list:
    """Exact float bits of a number, a quadrature result or a tuple or dict
    of them."""
    if isinstance(x, dict):
        return {k: _bits(v) for k, v in x.items()}
    if isinstance(x, (tuple, list)):
        return [_bits(v) for v in x]
    if hasattr(x, "err_estimate"):
        return _bits((x.value, x.err_estimate, x.truncation, x.n_panels, x.n_evals))
    if hasattr(x, "n_panels"):
        return _bits((x.value, x.error, x.n_panels, x.n_evals))
    if isinstance(x, int):
        return x
    z = complex(x)
    return [z.real.hex(), z.imag.hex()]


def _record(b) -> dict:
    m = as_modulus(b)
    qbin = make_rep_params(m.b, alpha=0.5, s=0.4, u_samples=(0.1,))
    kac = make_rep_params(m.b, alpha=0.5, s=0.3, t=0.2, u_samples=(0.1,))
    tb = {"Q": m.Q, "alpha": m.Q / 4, "beta": m.Q / 3}
    return {
        "tau_binomial_check": tau_binomial_check(m.Q / 6, m.Q / 5, m, rel_tol=1e-8),
        "six_nine_check": six_nine_check(
            m.Q / 6, m.Q / 7, m.Q / 9, m.Q / 4 + 0.1j, m, rel_tol=1e-7
        ),
        "qbinomial_value": qbinomial_value(qbin, 0.1, rel_tol=1e-8),
        "kac_values": kac_values(kac, 0.1, rel_tol=1e-7),
        "integrate_contour": integrate_contour(tau_binomial_integrand(), tb, m),
        "integrate_batch": integrate_batch(
            lambda z: np.exp(-z * z) / (z - 3j),
            [Line(-5, -1), Arc(0j, 1.0, np.pi, 2 * np.pi), Line(1, 5)],
            [3, 2, 3],
            1e-11,
        ),
    }


@pytest.mark.parametrize("b_text", sorted(MODULI))
def test_single_case_functions_keep_their_bits(b_text):
    golden = json.loads(GOLDEN.read_text())[b_text]
    assert _bits(_record(MODULI[b_text])) == golden


def _counting(monkeypatch, fail_near=None):
    """Record the points of each gb_eval_many call at every name the package
    calls it by; with fail_near, raise PoleProximityError for a request
    holding that point."""
    calls = []
    original = core.gb_eval_many

    def counting(zs, *args, **kwargs):
        zs = np.asarray(zs)
        calls.append(zs)
        if fail_near is not None and (np.abs(zs - fail_near) < 1e-12).any():
            raise PoleProximityError(fail_near, fail_near, 0.0)
        return original(zs, *args, **kwargs)

    for mod in (qdilog, core, symbolic, identities, suites):
        monkeypatch.setattr(mod, "gb_eval_many", counting)
    return calls


def test_tau_binomial_merges_its_cases_calls(monkeypatch):
    calls = _counting(monkeypatch)
    rep = suites.run_tau_binomial()
    assert all(c.passed for c in rep.cases) and len(rep.cases) == 25
    # 156 calls when each case integrated by itself.
    assert len(calls) <= 20


def test_a_contour_suites_pass_makes_at_most_100_calls(monkeypatch):
    calls = _counting(monkeypatch)
    for name in ("tau-binomial", "six-nine", "q-binomial", "kac", "consistency"):
        rep = suites.run_suite(name, b=0.8, seed=1 if name == "six-nine" else None)
        assert all(c.passed for c in rep.cases)
    assert len(calls) <= 100


def test_a_raising_request_fails_only_its_case(monkeypatch):
    m = as_modulus(0.8)
    a = be = 2 * m.Q / 12
    poison = a + be  # only the closed form of case (a, be) asks for it
    _counting(monkeypatch, fail_near=poison)
    rep = suites.run_tau_binomial(n=2)
    with pytest.raises(PoleProximityError) as alone:
        tau_binomial_check(a, be, m, rel_tol=1e-8)
    detail = f"{type(alone.value).__name__}: {alone.value}"
    failed = [c for c in rep.cases if not c.passed]
    assert [(c.inputs["alpha"], c.inputs["beta"]) for c in failed] == [(a, be)]
    assert failed[0].flags == ("error",) and failed[0].detail == detail
    assert len(rep.cases) == 4


def test_a_lone_failing_request_is_evaluated_once(monkeypatch):
    # With one case, a round's merged call holds that case's points alone:
    # when it raises, the case gets its exception and the call is not made
    # again.
    m = as_modulus(0.8)
    a = be = m.Q / 12
    poison = a + be  # only the closed form asks for it
    calls = _counting(monkeypatch, fail_near=poison)
    rep = suites.run_tau_binomial(n=1)
    holding = [zs for zs in calls if (np.abs(zs - poison) < 1e-12).any()]
    assert len(holding) == 1
    assert len(rep.cases) == 1
    assert rep.cases[0].detail.startswith("PoleProximityError: ")


def test_a_refused_label_fails_only_its_own_case():
    # s = 1e-4 drags a dilogarithm argument onto the pole lattice.
    rep = suites.run_kac(tuples=[(1e-4, 0.2, 0.5, 0.1), (0.3, 0.2, 0.5, 0.1)])
    assert [c.passed for c in rep.cases] == [False, True]
    assert rep.cases[0].detail.startswith("DegenerateParameterError: ")


def _kac_report() -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(["verify", "--suite", "kac", "--grid", "small", "--format", "json"]) == 0
    return buf.getvalue()


def _steady(text: str) -> str:
    report = json.loads(text)
    report.pop("timestamp"), report.pop("elapsed_seconds")
    return json.dumps(report, sort_keys=True)


def test_kac_report_repeats_in_and_across_processes():
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    fresh = subprocess.run(
        [sys.executable, "-c",
         "import sys; from qdilog.cli import main; sys.exit(main(sys.argv[1:]))",
         "verify", "--suite", "kac", "--grid", "small", "--format", "json"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    ).stdout
    first, second = _steady(_kac_report()), _steady(_kac_report())
    assert first == second == _steady(fresh)


def test_a_failed_shared_batch_is_evaluated_once(monkeypatch):
    # At b = 0.05 the strip sum does not converge, so the reflection suite's
    # one batched call raises; every case reads that one exception.
    calls = _counting(monkeypatch)
    rep = suites.run_reflection(b=0.05)
    assert len(calls) == 1
    assert len(rep.cases) == 100
    assert len({c.detail for c in rep.cases}) == 1
    assert rep.cases[0].detail.startswith("ConvergenceError: ")


def test_a_point_the_oracle_refuses_fails_only_its_case(monkeypatch):
    # The product-oracle cases share one G_b request but run the oracle
    # each on its own.
    oracle = suites.gb_product_oracle

    def picky(x, b):
        if x.real < 0.2:
            raise UnsupportedParameterError("refused")
        return oracle(x, b)

    monkeypatch.setattr(suites, "gb_product_oracle", picky)
    rep = suites.run_product_oracle(n=6)
    assert [c.passed for c in rep.cases] == [False] + [True] * 5
    assert rep.cases[0].detail == "UnsupportedParameterError: refused"


def test_every_numeric_suite_asks_g_b_only_of_the_lockstep_driver(monkeypatch):
    # symbolic._answer keeps its gb_eval_many; every other name a suite
    # could reach G_b by refuses.
    def refuse(*args, **kwargs):
        raise AssertionError("G_b asked outside the lockstep driver")

    for mod in (core, suites):
        monkeypatch.setattr(mod, "gb_eval_many", refuse)
    for name in sorted(set(suites.SUITES) - {"theorem31-exact"}):
        b = 0.6 + 0.1j if name == "product-oracle" else 0.8
        rep = suites.run_suite(name, b=b, grid="small")
        assert rep.cases and all(c.passed for c in rep.cases), name


def test_pole_limits_asks_for_every_probe_in_one_call(monkeypatch):
    calls = _counting(monkeypatch)
    rep = suites.run_pole_limits(b=0.8)
    assert len(rep.cases) == 6 and all(c.passed for c in rep.cases)
    # 12 calls when each probe was evaluated by itself.
    assert [len(zs) for zs in calls] == [12]


def test_a_raising_strip_variant_fails_only_its_case(monkeypatch):
    original = core.gb_eval_many

    def no_extended(zs, b, cfg=None):
        if cfg is not None and cfg.precision == "extended":
            raise PoleProximityError(complex(zs[0]), complex(zs[0]), 0.0)
        return original(zs, b, cfg)

    monkeypatch.setattr(symbolic, "gb_eval_many", no_extended)
    rep = suites.run_consistency()
    assert [c.label for c in rep.cases if not c.passed] == ["strip extended precision"]


if __name__ == "__main__":
    print(json.dumps({k: _bits(_record(b)) for k, b in sorted(MODULI.items())}, indent=1))
