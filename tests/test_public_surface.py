"""The public surface: package exports, CLI long flags and exit codes.

A change to any of these breaks callers and scripts, so it has to be made
here on purpose, together with its reason in CHANGES.md.
"""

import re
import types

import pytest

import qdilog
from qdilog import cli

EXPORTS = {
    "AffineForm", "ContourSpec", "ContourUnsupportedError", "ConvergenceError",
    "DegenerateParameterError", "EvalConfig", "GaussExponent", "GaussRat",
    "GbFactor", "Indentation", "IntegrandSpec", "IntegrationResult",
    "ModulusParam", "OpIntegral", "ParameterDomainError", "PoleProximityError",
    "PoleSeq", "QdilogError", "RepParams", "SUITES", "ShiftOp",
    "StripDomainError", "Symbol", "UnsupportedParameterError", "as_affine",
    "as_modulus", "compose", "const", "fan_points",
    "func_eq_general", "gauss_from_products", "gb_asymptotic", "gb_eval",
    "gb_eval_many", "gb_product_oracle", "gen", "integrate_contour", "kac_lhs",
    "kac_lhs_closed_form", "kac_rhs_integral", "kac_substitution_tuple",
    "kac_values", "log_gb_strip", "make_E_div", "make_F_div", "make_K_pow",
    "make_modulus", "make_rep_params", "nearest_lattice_point", "plan_contour",
    "pole_limit", "pole_sequences", "qbinomial_integral", "qbinomial_target",
    "qbinomial_value", "rep_bindings", "run_suite", "scalar_op",
    "six_nine_check", "six_nine_integrand", "small_gb", "strip_reduce",
    "symbol_equal_exact", "tau_binomial_check", "tau_binomial_integrand",
    "verify_EE", "verify_FF", "verify_KE", "verify_KF", "verify_KK",
    "verify_weyl", "weyl_power", "zero_limit",
}

COMMON_FLAGS = {
    "--help", "--b", "--alpha", "--tol", "--rel-tol", "--seed", "--threads",
    "--format", "--out", "--config",
}
FLAGS = {
    "eval": COMMON_FLAGS | {"--what", "--points"},
    "verify": COMMON_FLAGS | {"--suite", "--grid"},
}


def test_package_exports():
    public = {
        name
        for name in dir(qdilog)
        if not name.startswith("_")
        and not isinstance(getattr(qdilog, name), types.ModuleType)
    }
    assert public == EXPORTS


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_cli_long_flags(capsys, command):
    assert cli.main([command, "--help"]) == 0
    assert set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) == FLAGS[command]


def test_exit_codes():
    codes = (cli.EXIT_PASS, cli.EXIT_NUMERIC, cli.EXIT_UNSUPPORTED, cli.EXIT_USAGE)
    assert codes == (0, 1, 2, 3)
