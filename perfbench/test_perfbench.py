"""Tests of the benchmark itself (not of qdilog).

    python3 -m pytest perfbench -q

The traced-pass tests start fresh interpreters on the real workloads and
take about half a minute.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest

import checks
import run
import tracing
import workloads

HERE = pathlib.Path(__file__).resolve().parent


# -- the checker ------------------------------------------------------------


def _pair(b, z):
    """An exact reflection pair: G(z) = 1 and G(Q - z) = e^{pi i z (z - Q)}."""
    Q = b + 1.0 / b
    return Q, z, 1.0 + 0j, complex(np.exp(1j * np.pi * z * (z - Q)))


def test_checker_passes_exact_pair():
    tally = checks.Tally()
    Q, z, gz, gqz = _pair(0.8, 0.3 + 0.2j)
    assert checks.check_pair(tally, 0.8, Q, z, gz, gqz)
    assert (tally.attempted, tally.failed) == (1, 0)
    assert tally.min_decades == pytest.approx(checks.DECADES_CAP, abs=7)


@pytest.mark.parametrize("bad", [complex("nan"), complex("inf"), None])
def test_checker_counts_non_finite_value(bad):
    tally = checks.Tally()
    Q, z, _, gqz = _pair(0.8, 12.0 + 0.5j)
    assert not checks.check_pair(tally, 0.8, Q, z, bad, gqz)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "non-finite" in tally.failures[0]


def test_checker_counts_over_tolerance_value():
    tally = checks.Tally()
    Q, z, gz, gqz = _pair(0.6, 0.4 - 0.3j)
    assert not checks.check_pair(tally, 0.6, Q, z, gz * (1 + 1e-8), gqz)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "reflection deviation" in tally.failures[0]


def test_checker_counts_far_band_failures_at_complex_b():
    b = 0.6 + 0.1j
    tally = checks.Tally()
    Q, z, _, gqz = _pair(b, -40.0 + 0.5j)
    assert not checks.check_pair(tally, b, Q, z, complex("nan"), gqz)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_checker_counts_over_tolerance_and_missing_suite_cases():
    report = {"cases": [
        {"index": 0, "passed": True, "mode": "numeric", "deviation": 1e-9, "tol": 1e-6},
        {"index": 1, "passed": True, "mode": "numeric", "deviation": 2e-6, "tol": 1e-6},
        {"index": 2, "passed": True, "mode": "numeric", "deviation": None, "tol": 1e-6},
        {"index": 3, "passed": False, "mode": "exact"},
        {"index": 4, "passed": True, "mode": "exact"},
    ]}
    tally = checks.Tally()
    checks.check_verify_report(tally, 1, json.dumps(report), "verify")
    assert (tally.attempted, tally.failed) == (5, 5)  # exit code 1 fails every case
    tally = checks.Tally()
    checks.check_verify_report(tally, 0, json.dumps(report), "verify")
    assert (tally.attempted, tally.failed) == (5, 3)
    assert tally.min_decades == pytest.approx(3.0)


def test_checker_counts_non_finite_eval_rows():
    b = 0.8
    Q, z, gz, gqz = _pair(b, 0.5 + 0.4j)
    header = ",".join(["index", "input_re", "input_im", "value_re", "value_im",
                       "err_estimate", "flags"])
    rows = [f"0,{z.real!r},{z.imag!r},nan,nan,,",
            f"1,{(Q - z).real!r},{(Q - z).imag!r},{gqz.real!r},{gqz.imag!r},,"]
    tally = checks.Tally()
    checks.check_eval_request(tally, b, Q, [z], 0, "\n".join([header, *rows]) + "\n")
    assert (tally.attempted, tally.failed) == (2, 2)


# -- inputs -----------------------------------------------------------------


def test_seed_changes_inputs_but_not_their_size():
    a, b = workloads.gb_table_inputs(1), workloads.gb_table_inputs(2)
    shape = lambda d: ([[len(c) for c in calls] for _, calls in d["sweep"]],
                       sorted(len(p) for _, p in d["requests"]))
    assert shape(a) == shape(b)
    assert a["sweep"][0][1][0] != b["sweep"][0][1][0]
    assert a["requests"][0][1] != b["requests"][0][1]
    for name in ("contour-suites", "exact-algebra"):
        x, y = workloads.make_inputs(name, 1), workloads.make_inputs(name, 2)
        assert len(x) == len(y) and x != y
        assert [len(v) for v in x] == [len(v) for v in y]


def test_gb_table_inputs_repeat_and_keep_off_the_lattice():
    a, b = workloads.gb_table_inputs(5), workloads.gb_table_inputs(5)
    assert a == b
    for mod, calls in a["sweep"]:
        Q = mod + 1.0 / mod
        pts = np.array([z for c in calls for z in c])
        assert np.all(workloads.lattice_distance(pts, mod) >= workloads.LATTICE_GAP)
        assert np.all(workloads.lattice_distance(Q - pts, mod) >= workloads.LATTICE_GAP)
        for prev, cur in zip(calls, calls[1:]):
            assert len(set(prev) & set(cur)) == len(cur) // 2
    swept = {z for _, calls in a["sweep"] for c in calls for z in c}
    assert not swept & {z for _, p in a["requests"] for z in p}


def test_gb_table_keeps_the_far_band_off_the_complex_modulus():
    a = workloads.gb_table_inputs(5)
    reach = {}
    for mod, pairs in [(m, z) for m, calls in a["sweep"] for z in calls] + a["requests"]:
        reach[mod] = max(reach.get(mod, 0.0), max(abs(z.real) for z in pairs))
    assert reach[0.8 + 0j] > workloads.NEAR_RE and reach[0.6 + 0j] > workloads.NEAR_RE
    assert reach[0.6 + 0.1j] <= workloads.NEAR_RE


def test_lattice_distance_matches_a_brute_force_scan():
    b = 0.6 + 0.1j
    n = np.arange(0, 120)
    cone = (n[:, None] * b + n[None, :] / b).ravel()
    zs = np.array([0.3 + 0.2j, -4.1 + 0.05j, 17.2 - 0.6j, -0.6 - 0.1j])
    Q = b + 1 / b
    brute = np.minimum(np.abs(-zs[:, None] - cone).min(axis=1),
                       np.abs(zs[:, None] - Q - cone).min(axis=1))
    assert np.all(brute < 1.0)  # the fast scan is exact below 1
    assert np.allclose(workloads.lattice_distance(zs, b), brute)


# -- metric names -----------------------------------------------------------


def test_benchmark_json_lists_what_the_harness_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_covered_takes_the_union_of_overlapping_children():
    assert tracing.covered(0.0, 10.0, [(1, 4), (2, 5), (7, 12)]) == 7.0


# -- traced passes ----------------------------------------------------------

REPEATING = ("core.strip_points", "quadrature.strip.panels", "quadrature.strip.evals",
             "core.reduction_steps", "core.gb_points")


def _traced(workload, seed):
    return run.run_pass(workload, seed, "trace", timeout=150)["layers"]


def test_traced_counts_repeat_at_a_seed():
    first, second = _traced("gb-table", 3), _traced("gb-table", 3)
    for name in REPEATING:
        assert first[name] == second[name] > 0, name
    other = _traced("gb-table", 4)
    assert other["core.gb_points"] == first["core.gb_points"]


def test_traced_outer_counts_repeat_on_the_suites():
    first, second = _traced("contour-suites", 3), _traced("contour-suites", 3)
    for name in ("quadrature.outer.evals", "quadrature.outer.panels",
                 "core.reduction_steps", "contour.integrate.calls"):
        assert first[name] == second[name] > 0, name
    assert first["suites.pool_busy_ratio"] > 0
