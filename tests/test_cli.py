"""Command-line interface: exit codes, report formats, config handling."""

import csv
import io
import json
import os
import pathlib
import subprocess
import sys
import threading
import warnings

import pytest

from qdilog.cli import (
    EXIT_NUMERIC,
    EXIT_PASS,
    EXIT_UNSUPPORTED,
    EXIT_USAGE,
    RunConfig,
    main,
    parse_complex,
)
from qdilog import cli, core, suites
from qdilog.core import EvalConfig, as_modulus, gb_eval, small_gb, strip_reduce
from qdilog.errors import ConvergenceError, PoleProximityError
from qdilog.reports import EVAL_CSV_COLUMNS, VERIFY_CSV_COLUMNS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_complex_accepts_both_imaginary_markers():
    assert parse_complex("0.6+0.1i") == pytest.approx(0.6 + 0.1j)
    assert parse_complex("0.6+0.1j") == pytest.approx(0.6 + 0.1j)
    assert parse_complex("-2") == pytest.approx(-2.0)
    with pytest.raises(ValueError):
        parse_complex("1+zz")


def test_verify_pass_exit_code(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "funceq", "--grid", "small", "--format", "json"
    )
    assert code == EXIT_PASS
    report = json.loads(out)
    assert report["passed"] is True
    assert report["suite"] == "funceq"
    assert report["n_failed"] == 0


def test_verify_numeric_failure_exit_code(capsys):
    # An absurd tolerance turns honest roundoff into failures, never a crash.
    code, out, _ = run(
        capsys,
        "verify",
        "--suite",
        "pole-limits",
        "--tol",
        "1e-13",
        "--format",
        "json",
    )
    assert code == EXIT_NUMERIC
    report = json.loads(out)
    assert report["passed"] is False
    assert report["n_failed"] > 0


def test_unsupported_parameters_exit_code(capsys):
    # The product-route suite needs a complex modulus; the default real one
    # must be reported as unsupported, not as a numeric failure.
    code, out, err = run(capsys, "verify", "--suite", "product-oracle")
    assert code == EXIT_UNSUPPORTED
    assert "unsupported" in err.lower()


def test_resonant_modulus_exit_code(capsys):
    # At b = 1 the residue limits are ill-defined (q^-2 = 1): the suite is
    # refused before any case runs.
    code, out, err = run(capsys, "verify", "--suite", "pole-limits", "--b", "1")
    assert code == EXIT_UNSUPPORTED
    assert out == ""
    assert "unsupported" in err.lower()


def test_modulus_out_of_double_range_is_unsupported(capsys):
    # At b = 0.001+0.001i, exp(log zeta) overflows.
    code, out, err = run(
        capsys, "eval", "--what", "Gb", "--b", "0.001+0.001j", "--points", "0.3"
    )
    assert code == EXIT_UNSUPPORTED
    assert out == ""
    assert "double range" in err


def test_uncaught_package_error_is_unsupported(monkeypatch, capsys):
    # Any QdilogError but ConvergenceError that leaves a command exits 2.
    def raise_pole(*args, **kwargs):
        raise PoleProximityError(0.3, 0.0, 1e-13)

    monkeypatch.setattr(cli, "run_suite", raise_pole)
    code, out, err = run(capsys, "verify", "--suite", "funceq")
    assert code == EXIT_UNSUPPORTED
    assert out == ""
    assert err.startswith("unsupported configuration: evaluation point")


def test_consistency_reports_a_failed_strip_evaluation(capsys):
    # At b = 0.04 the strip sum does not converge: every case that needs it
    # fails on its own, and the report still prints.  The reduction case
    # needs no strip sum and passes.
    code, out, _ = run(
        capsys, "verify", "--suite", "consistency", "--b", "0.04", "--grid", "small",
        "--format", "json",
    )
    assert code == EXIT_NUMERIC
    cases = json.loads(out)["cases"]
    assert len(cases) == 11
    details = {c["label"]: c["detail"] for c in cases}
    assert details.pop("reduction walk vs shift equation") == ""
    assert [c["flags"] for c in cases].count(["error"]) == 10
    assert details["strip extended precision"].startswith("ConvergenceError: ")
    assert details["kac truncation-doubled"].startswith("ConvergenceError: ")


@pytest.mark.parametrize(
    "suite, b, n_cases",
    [("reflection", "0.05", 16), ("funceq", "0.05", 36),
     ("product-oracle", "0.05+0.01i", 6)],
)
def test_batched_suites_report_a_failed_evaluation(capsys, suite, b, n_cases):
    # At these b the strip sum does not converge: the one batched G_b call
    # runs inside the cases, so each case fails on its own and the report
    # still prints.
    code, out, _ = run(
        capsys, "verify", "--suite", suite, "--b", b, "--grid", "small",
        "--format", "json",
    )
    assert code == EXIT_NUMERIC
    cases = json.loads(out)["cases"]
    assert len(cases) == n_cases
    assert all(c["flags"] == ["error"] for c in cases)
    assert all(c["detail"].startswith("ConvergenceError: ") for c in cases)


@pytest.mark.parametrize("b", [0.3, 0.1, 0.04])
def test_consistency_reduction_walk_takes_both_kinds_of_step(capsys, b):
    # For b < 1, three 1/b-steps and at least one b-step.
    _, out, _ = run(
        capsys, "verify", "--suite", "consistency", "--b", str(b), "--grid", "small",
        "--format", "json",
    )
    case = next(c for c in json.loads(out)["cases"]
                if c["label"] == "reduction walk vs shift equation")
    assert case["passed"]
    zr = complex(case["inputs"]["z"]["re"], case["inputs"]["z"]["im"])
    red = strip_reduce(zr, as_modulus(b))
    assert red.n2 == -3 and red.n1 <= -1


def test_product_oracle_runs_with_complex_modulus(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--suite",
        "product-oracle",
        "--b",
        "0.6+0.1i",
        "--format",
        "json",
    )
    assert code == EXIT_PASS
    assert json.loads(out)["passed"] is True


def test_usage_error_exit_codes(capsys):
    code, _, _ = run(capsys, "verify", "--suite", "no-such-suite")
    assert code == EXIT_USAGE
    code, _, err = run(capsys, "eval", "--what", "Gb", "--points", "1+bad")
    assert code == EXIT_USAGE
    code, _, err = run(capsys, "eval", "--what", "Gb")
    assert code == EXIT_USAGE  # Gb needs --points


def test_eval_gb_reflection_point_and_flagged_pole(capsys):
    m = as_modulus(0.8)
    code, out, _ = run(
        capsys,
        "eval",
        "--what",
        "Gb",
        "--points",
        f"{m.Q.real / 2},-0.0001",
        "--format",
        "json",
    )
    assert code == EXIT_PASS
    rows = json.loads(out)["rows"]
    v = rows[0]["value"]
    # |G_b(Q/2)| = 1 by the reflection product at the fixed point
    assert abs(complex(v["re"], v["im"])) == pytest.approx(1.0, rel=1e-10)
    assert rows[0]["flags"] == []
    assert "pole-proximity" in rows[1]["flags"]


def test_eval_zeta_row(capsys):
    m = as_modulus(0.8)
    code, out, _ = run(capsys, "eval", "--what", "zeta", "--format", "json")
    assert code == EXIT_PASS
    rows = json.loads(out)["rows"]
    assert len(rows) == 1
    v = complex(rows[0]["value"]["re"], rows[0]["value"]["im"])
    assert v == pytest.approx(m.zeta)


def test_eval_small_g_matches_library(capsys):
    code, out, _ = run(
        capsys, "eval", "--what", "gb", "--points", "0.3+0.2i", "--format", "json"
    )
    assert code == EXIT_PASS
    row = json.loads(out)["rows"][0]
    v = complex(row["value"]["re"], row["value"]["im"])
    assert v == pytest.approx(small_gb(0.3 + 0.2j, 0.8), rel=1e-10)


def test_json_report_deterministic_modulo_wall_clock(capsys):
    argv = ["verify", "--suite", "funceq", "--grid", "small", "--format", "json"]
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    r1, r2 = json.loads(out1), json.loads(out2)
    drop = {"timestamp", "elapsed_seconds"}
    for k in drop:
        r1.pop(k), r2.pop(k)
    assert r1 == r2


def test_csv_headers_are_stable(capsys):
    _, out, _ = run(
        capsys, "verify", "--suite", "funceq", "--grid", "small", "--format", "csv"
    )
    assert out.splitlines()[0] == ",".join(VERIFY_CSV_COLUMNS)
    _, out, _ = run(
        capsys, "eval", "--what", "zeta", "--format", "csv"
    )
    assert out.splitlines()[0] == ",".join(EVAL_CSV_COLUMNS)


@pytest.mark.parametrize("suite", ["funceq", "theorem31-exact"])
def test_verify_csv_carries_the_json_numbers(capsys, suite):
    argv = ("verify", "--suite", suite, "--grid", "small", "--format")
    _, out, _ = run(capsys, *argv, "json")
    cases = json.loads(out)["cases"]
    _, out, _ = run(capsys, *argv, "csv")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == len(cases)
    for row, case in zip(rows, cases):
        assert row["label"] == case["label"]
        cells = {k: case[k] for k in ("deviation", "tol", "err_estimate")}
        for side in ("lhs", "rhs"):
            for part in ("re", "im"):
                cells[f"{side}_{part}"] = None if case[side] is None else case[side][part]
        for column, x in cells.items():
            assert row[column] == ("" if x is None else repr(float(x)))


def test_out_file_duplicates_stdout(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "verify",
        "--suite",
        "funceq",
        "--grid",
        "small",
        "--format",
        "json",
        "--out",
        str(target),
    )
    assert code == EXIT_PASS
    assert target.read_text() == out
    # the report must not remember where it was written
    assert "out" not in json.loads(out)["config"]


def test_config_file_round_trip(tmp_path, capsys):
    cfg = RunConfig(b=0.6 + 0.0j, tol=1e-8, grid="small", threads=2)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    loaded = RunConfig.from_file(str(path))
    assert loaded == cfg
    code, out, _ = run(
        capsys,
        "verify",
        "--suite",
        "reflection",
        "--config",
        str(path),
        "--format",
        "json",
    )
    assert code == EXIT_PASS
    report = json.loads(out)
    assert report["b"] == {"im": 0.0, "re": 0.6}
    assert report["config"]["grid"] == "small"


def test_config_rejects_unknown_keys(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"bogus": 1}))
    code, _, err = run(capsys, "verify", "--suite", "funceq", "--config", str(path))
    assert code == EXIT_USAGE
    assert "bogus" in err


def test_command_line_overrides_config_file(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"tol": 1e-9, "format": "json"}))
    code, out, _ = run(
        capsys,
        "verify",
        "--suite",
        "pole-limits",
        "--config",
        str(path),
        "--tol",
        "1e-13",
    )
    assert code == EXIT_NUMERIC
    assert json.loads(out)["tol"] == 1e-13


def test_eval_out_of_range_value_is_an_error_row(capsys):
    # |G_b(1000 - 0.3i)| at b = 0.8 leaves double range: the row is flagged
    # and empty instead of carrying NaN, and no warning reaches stderr.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(
            capsys, "eval", "--what", "Gb", "--points", "1000-0.3i", "--format", "json"
        )
    assert code == EXIT_PASS
    assert err == ""
    row = json.loads(out)["rows"][0]
    assert "error" in row["flags"]
    assert row["value"] is None
    assert "UnsupportedParameterError" in row["detail"]


def test_eval_underflowing_point_is_an_error_row(capsys):
    # |G_b(1 - 5000i)| at b = 0.8 falls below the smallest normal double, far
    # from any zero of G_b: an error row instead of a 0, next to a value row.
    code, out, _ = run(
        capsys, "eval", "--what", "Gb", "--points", "0.5,1-5000i", "--format", "json"
    )
    assert code == EXIT_PASS
    value, under = json.loads(out)["rows"]
    assert value["flags"] == [] and value["value"] is not None
    assert under["flags"] == ["error"]
    assert under["value"] is None
    assert "UnsupportedParameterError" in under["detail"]


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "--what", "Gb", "--points", "0.5", "--rel-tol=-1"),
        ("eval", "--what", "Gb", "--points", "0.5", "--rel-tol", "0"),
        ("eval", "--what", "gb", "--points", "0.3", "--rel-tol", "1"),
        ("verify", "--suite", "tau-binomial", "--grid", "small", "--rel-tol", "nan"),
    ],
)
def test_rel_tol_outside_its_domain_is_unsupported(monkeypatch, capsys, argv):
    def unreachable(*args, **kwargs):
        raise AssertionError("a case ran")

    monkeypatch.setattr(suites, "tau_binomial_steps", unreachable)
    code, out, err = run(capsys, *argv)
    assert code == EXIT_UNSUPPORTED
    assert out == ""
    assert err.startswith("unsupported configuration: rel_tol")


def test_eval_non_finite_point_is_an_error_row(capsys):
    code, out, _ = run(
        capsys, "eval", "--what", "Gb", "--points", "inf,0.5,nan", "--format", "json"
    )
    assert code == EXIT_PASS
    rows = json.loads(out)["rows"]
    for row in (rows[0], rows[2]):
        assert row["flags"] == ["error"]
        assert row["value"] is None
        assert "ParameterDomainError" in row["detail"]
    assert rows[1]["flags"] == [] and rows[1]["value"] is not None


@pytest.mark.parametrize(
    "values",
    [{"format": "xml"}, {"b": [0.8]}, {"b": None}, {"tol": "x"}, {"seed": 1.5},
     {"grid": "huge"}, {"out": 3}],
)
def test_config_file_values_are_checked_like_flags(tmp_path, capsys, values):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(values))
    code, out, err = run(capsys, "verify", "--suite", "funceq", "--config", str(path))
    assert code == EXIT_USAGE
    assert out == ""  # refused before the suite ran
    assert err.startswith("usage error")


def test_unwritable_out_path_is_a_usage_error(capsys, tmp_path):
    code, out, err = run(capsys, "eval", "--what", "zeta", "--out", str(tmp_path))
    assert code == EXIT_USAGE
    assert "usage error: --out:" in err
    assert out == ""


def test_strip_quadrature_failure_is_a_typed_error(monkeypatch, capsys):
    # With a step five times too coarse the strip sum fails its step-2h
    # check; that must surface as ConvergenceError and as exit code 1.
    monkeypatch.setattr(core, "_TRAP_DEPTH", 4.0)
    with pytest.raises(ConvergenceError):
        gb_eval(0.3 + 0.2j, 0.8)
    code, _, _ = run(capsys, "verify", "--suite", "reflection", "--grid", "small")
    assert code == EXIT_NUMERIC


def test_eval_far_point_is_an_error_row(capsys):
    # Reducing Re z = 1e9 into the strip would take 8e8 shift steps, whose
    # roundoff alone exceeds rel_tol: refused before the walk starts.
    code, out, _ = run(
        capsys, "eval", "--what", "Gb", "--points", "1e9+0.3i", "--format", "json"
    )
    assert code == EXIT_PASS
    row = json.loads(out)["rows"][0]
    assert row["flags"] == ["error"]
    assert row["value"] is None
    assert "UnsupportedParameterError" in row["detail"]
    assert "shift steps" in row["detail"]


def test_eval_point_on_a_pole_is_a_flagged_empty_row(capsys):
    code, out, _ = run(
        capsys, "eval", "--what", "Gb", "--points", "0", "--format", "csv"
    )
    assert code == EXIT_PASS
    assert out.splitlines()[1] == "0,0.0,0.0,,,,pole-proximity"


def _gb_rows(capsys, points):
    code, out, _ = run(
        capsys, "eval", "--what", "Gb", "--points=" + ",".join(points), "--format", "json"
    )
    assert code == EXIT_PASS
    return json.loads(out)["rows"]


def test_eval_request_matches_per_point_evaluation(capsys):
    # G_b takes a request's points in one batch.  A point that fails sends
    # the request back to one point at a time, so every row, flag and error
    # detail reads as it does when that point is requested alone.
    good = ["0.5+0.2i", "1.3-0.4i", "-0.8+0.0005i", "2.9+0.4i"]
    mixed = [good[0], "0", good[1], "1e9+0.3i", "1000-0.3i", good[2], "nan", good[3]]
    for k, (p, row) in enumerate(zip(mixed, _gb_rows(capsys, mixed))):
        alone = {**_gb_rows(capsys, [p])[0], "index": k}
        assert json.dumps(row, sort_keys=True) == json.dumps(alone, sort_keys=True)
    m = as_modulus(0.8)
    for p, row in zip(good, _gb_rows(capsys, good)):
        v, z = complex(row["value"]["re"], row["value"]["im"]), parse_complex(p)
        assert abs(v - gb_eval(z, m)) <= 1e-14 * abs(v)
        assert row["flags"] == (["pole-proximity"] if p == good[2] else [])


def test_alpha_and_seed_default_to_the_suites_own(capsys):
    # No --alpha: kac runs each tuple at its own weight.
    code, out, _ = run(capsys, "verify", "--suite", "kac", "--format", "json")
    assert code == EXIT_PASS
    assert "alpha=0.65" in json.loads(out)["cases"][4]["label"]
    # No --seed: a suite that draws nothing reports none.
    code, out, _ = run(capsys, "verify", "--suite", "reflection", "--format", "json")
    assert code == EXIT_PASS
    assert json.loads(out)["seed"] is None


def test_rel_tol_reaches_the_evaluator(capsys):
    z = 0.5 + 0.2j
    code, out, _ = run(
        capsys, "eval", "--what", "Gb", "--points", "0.5+0.2i",
        "--rel-tol", "1e-8", "--format", "csv",
    )
    assert code == EXIT_PASS
    row = out.splitlines()[1].split(",")
    v = complex(float(row[3]), float(row[4]))
    assert v == gb_eval(z, 0.8, EvalConfig(rel_tol=1e-8))
    # The two tolerances give sums 4e-14 relative apart.
    assert abs(v - gb_eval(z, 0.8)) > 1e-14 * abs(v)
    assert float(row[5]) == 1e-8 * abs(v)


def test_verify_prints_pretty_by_default(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "funceq")
    assert code == EXIT_PASS
    last = out.splitlines()[-1]
    assert last.startswith("suite funceq: 36/36 cases within 1e-09 (PASS), ")


def test_raising_case_becomes_a_failed_error_case(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise ZeroDivisionError("injected")

    monkeypatch.setattr(suites, "tau_binomial_steps", broken)
    code, out, _ = run(
        capsys, "verify", "--suite", "tau-binomial", "--grid", "small",
        "--format", "json",
    )
    assert code == EXIT_NUMERIC
    cases = json.loads(out)["cases"]
    assert cases
    for case in cases:
        assert case["passed"] is False
        assert case["flags"] == ["error"]
        assert case["detail"] == "ZeroDivisionError: injected"


def test_every_case_runs_on_the_calling_thread(monkeypatch, capsys):
    steps = suites.tau_binomial_steps
    seen = []

    def recording(*args, **kwargs):
        seen.append(threading.get_ident())
        return (yield from steps(*args, **kwargs))

    monkeypatch.setattr(suites, "tau_binomial_steps", recording)
    code, _, _ = run(
        capsys, "verify", "--suite", "tau-binomial", "--grid", "small",
        "--threads", "4",
    )
    assert code == EXIT_PASS
    assert seen == [threading.get_ident()] * 4


def _fresh_report(*argv):
    """A JSON report from a fresh interpreter, without the fields that may vary."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from qdilog.cli import main; sys.exit(main(sys.argv[1:]))",
         *argv],
        capture_output=True, text=True, env=env, check=True,
    )
    report = json.loads(proc.stdout)
    report.pop("timestamp"), report.pop("elapsed_seconds"), report["config"].pop("threads")
    return json.dumps(report, sort_keys=True)


def test_report_does_not_depend_on_the_thread_count():
    argv = ("verify", "--suite", "kac", "--grid", "small", "--format", "json")
    assert _fresh_report(*argv, "--threads", "1") == _fresh_report(*argv, "--threads", "2")


def test_parser_is_built_once_and_keeps_no_state(capsys):
    cli._build_parser.cache_clear()
    code, out, _ = run(capsys, "eval", "--what", "zeta", "--format", "csv")
    assert code == EXIT_PASS and out.startswith(",".join(EVAL_CSV_COLUMNS))
    # No --format: pretty output, not the csv of the call before.
    code, out, _ = run(capsys, "eval", "--what", "zeta")
    assert code == EXIT_PASS and not out.startswith(",".join(EVAL_CSV_COLUMNS))
    assert "zeta" in out
    code, _, _ = run(capsys, "eval", "--what", "nope")
    assert code == EXIT_USAGE
    code, out, _ = run(
        capsys, "verify", "--suite", "funceq", "--grid", "small", "--format", "json"
    )
    assert code == EXIT_PASS and json.loads(out)["suite"] == "funceq"
    code, out, _ = run(capsys, "eval", "--what", "Gb", "--points", "0.5", "--format", "json")
    assert code == EXIT_PASS and json.loads(out)["what"] == "Gb"
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 4)


def _small_g_rows(capsys, points):
    code, out, _ = run(
        capsys, "eval", "--what", "gb", "--points=" + ",".join(points), "--format", "json"
    )
    assert code == EXIT_PASS
    return json.loads(out)["rows"]


def test_eval_small_g_request_matches_per_point_evaluation(capsys):
    # g_b, too, takes a request's points in one batch, and a failing point
    # sends it back to one point at a time.
    m = as_modulus(0.8)
    good = ["0.3+0.2i", "-1.5+0.1i", "2", "0.01-0.5i", "40+3i"]
    for p, row in zip(good, _small_g_rows(capsys, good)):
        v = complex(row["value"]["re"], row["value"]["im"])
        assert abs(v - small_gb(parse_complex(p), m)) <= 1e-13 * abs(v)
        assert row["flags"] == []
    mixed = [good[0], "0", good[1], "nan", good[2]]
    rows = _small_g_rows(capsys, mixed)
    for k, (p, row) in enumerate(zip(mixed, rows)):
        alone = {**_small_g_rows(capsys, [p])[0], "index": k}
        assert json.dumps(row, sort_keys=True) == json.dumps(alone, sort_keys=True)
    for row in rows[1], rows[3]:
        assert row["flags"] == ["error"] and "ParameterDomainError" in row["detail"]
