"""Command-line interface: exit codes, report formats, config handling."""

import json
import os
import pathlib
import subprocess
import sys
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
from qdilog import core, suites
from qdilog.core import EvalConfig, as_modulus, gb_eval
from qdilog.errors import ConvergenceError
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
    from qdilog.core import small_gb

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


def test_thread_count_is_clamped():
    from qdilog.suites import _thread_count

    assert _thread_count(4, 16) == 4
    assert _thread_count(None, 1) == 1


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


def test_rel_tol_reaches_the_evaluator(capsys):
    z = 0.5 + 0.2j
    code, out, _ = run(
        capsys, "eval", "--what", "Gb", "--points", "0.5+0.2i",
        "--rel-tol", "1e-12", "--format", "csv",
    )
    assert code == EXIT_PASS
    row = out.splitlines()[1].split(",")
    v = complex(float(row[3]), float(row[4]))
    assert v == gb_eval(z, 0.8, EvalConfig(rel_tol=1e-12))
    assert v != gb_eval(z, 0.8)  # the last bits tell the two tolerances apart
    assert float(row[5]) == 1e-12 * abs(v)


def test_verify_prints_pretty_by_default(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "funceq")
    assert code == EXIT_PASS
    last = out.splitlines()[-1]
    assert last.startswith("suite funceq: 36/36 cases within 1e-09 (PASS), ")


def test_raising_case_becomes_a_failed_error_case(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise ZeroDivisionError("injected")

    monkeypatch.setattr(suites, "tau_binomial_check", broken)
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
