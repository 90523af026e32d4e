"""Acceptance gate: every verification suite at its contract tolerance.

Each criterion is one test emitting one summary line; a suite failure shows
the worst offending cases alongside the line.
"""

import time

from qdilog.suites import (
    DEFAULT_SEED,
    run_consistency,
    run_funceq,
    run_kac,
    run_pole_limits,
    run_product_oracle,
    run_q_binomial,
    run_reflection,
    run_six_nine,
    run_tau_binomial,
    run_theorem31_exact,
)


def _summarize(name, *reports):
    lines = []
    ok = all(r.passed for r in reports)
    for r in reports:
        devs = [c.deviation for c in r.cases if c.deviation is not None]
        worst = max(devs) if devs else None
        dev_txt = f"worst dev {worst:.3e}" if worst is not None else "exact"
        lines.append(
            f"{'PASS' if r.passed else 'FAIL'} {name} [{r.suite} b={r.b.real:g}"
            f"{f'{r.b.imag:+g}i' if r.b.imag else ''}]: {len(r.cases)} cases, "
            f"{dev_txt}, tol={r.tol}, {r.elapsed_seconds:.2f}s"
        )
        for c in r.cases:
            if not c.passed:
                lines.append(
                    f"      case {c.index} {c.label}: dev={c.deviation} "
                    f"flags={c.flags} {c.detail}"
                )
    print("\n".join(lines))
    assert ok, "\n".join(lines)


def test_criterion_01_reflection_grid_two_moduli():
    t0 = time.perf_counter()
    reps = [run_reflection(b=0.8, tol=1e-9, n=10), run_reflection(b=0.6, tol=1e-9, n=10)]
    elapsed = time.perf_counter() - t0
    _summarize("criterion-01", *reps)
    assert elapsed < 30.0, f"reflection criterion took {elapsed:.1f}s"


def test_criterion_02_functional_equation_all_orders():
    rep = run_funceq(tol=1e-9, max_order=2)
    orders = {(c.inputs["n1"], c.inputs["n2"]) for c in rep.cases}
    assert orders == {(n1, n2) for n1 in range(3) for n2 in range(3)}
    _summarize("criterion-02", rep)


def test_criterion_03_product_oracle_complex_modulus():
    rep = run_product_oracle(b=0.6 + 0.1j, tol=1e-8, n=20)
    assert len(rep.cases) == 20
    _summarize("criterion-03", rep)


def test_criterion_04_pole_and_zero_limits():
    rep = run_pole_limits(tol=1e-5)
    labels = {c.label for c in rep.cases}
    assert {"pole (0,0)", "pole (1,0)", "pole (0,1)"} <= labels
    assert {"zero (0,0)", "zero (1,0)", "zero (0,1)"} <= labels
    _summarize("criterion-04", rep)


def test_criterion_05_beta_integral_grid():
    rep = run_tau_binomial(tol=1e-6, n=5)
    assert len(rep.cases) == 25
    _summarize("criterion-05", rep)
    assert rep.elapsed_seconds < 5.0 * len(rep.cases)


def test_criterion_06_six_to_nine_with_substitution_tuple():
    rep = run_six_nine(tol=1e-5, seed=DEFAULT_SEED, n_random=10)
    assert sum(1 for c in rep.cases if c.label.startswith("random")) == 10
    assert any("kac-substitution" in c.label for c in rep.cases)
    _summarize("criterion-06", rep)
    assert rep.elapsed_seconds < 20.0 * len(rep.cases)


def test_criterion_07_exact_commutation_relations():
    rep = run_theorem31_exact(seed=DEFAULT_SEED, n=10)
    assert all(c.mode == "exact" for c in rep.cases)
    assert all(c.tol is None for c in rep.cases)
    assert len(rep.cases) == 11  # formal generators + 10 rational tuples
    _summarize("criterion-07", rep)


def test_criterion_08_binomial_expansion_tuples():
    rep = run_q_binomial(tol=1e-6)
    assert len(rep.cases) == 4
    _summarize("criterion-08", rep)


def test_criterion_09_product_law_two_moduli():
    t0 = time.perf_counter()
    reps = [run_kac(b=0.8, tol=1e-5), run_kac(b=0.6, tol=1e-5)]
    elapsed = time.perf_counter() - t0
    assert len(reps[0].cases) == 8 and len(reps[1].cases) == 4
    _summarize("criterion-09", *reps)
    assert elapsed < 600.0, f"product-law criterion took {elapsed:.1f}s"


def test_criterion_10_contour_independence_and_truncation():
    rep = run_consistency()
    for family in ("tau-binomial", "six-nine", "q-binomial", "kac"):
        assert any(c.label == f"{family} contour-deformed" for c in rep.cases)
        assert any(c.label == f"{family} truncation-doubled" for c in rep.cases)
    _summarize("criterion-10", rep)
