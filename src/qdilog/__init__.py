"""Noncompact quantum dilogarithm, contour integrals of its symbols, and
the shift-operator algebra of complex divided powers built on top of it."""

from .core import (
    EvalConfig,
    ModulusParam,
    as_modulus,
    clear_cache,
    func_eq_general,
    gb_asymptotic,
    gb_eval,
    gb_eval_many,
    gb_product_oracle,
    log_gb_strip,
    make_modulus,
    nearest_lattice_point,
    pole_limit,
    small_gb,
    strip_reduce,
    zero_limit,
)
from .errors import (
    ContourUnsupportedError,
    ConvergenceError,
    DegenerateParameterError,
    ParameterDomainError,
    PoleProximityError,
    QdilogError,
    StripDomainError,
    UnsupportedParameterError,
)
from .symbolic import (
    AffineForm,
    GaussExponent,
    GaussRat,
    GbFactor,
    IntegrandSpec,
    Symbol,
    as_affine,
    const,
    gauss_from_products,
    gen,
    symbol_equal_exact,
)
from .contour import (
    ContourSpec,
    Indentation,
    IntegrationResult,
    PoleSeq,
    fan_points,
    integrate_contour,
    plan_contour,
    pole_sequences,
)
from .operators import (
    OpIntegral,
    RepParams,
    ShiftOp,
    compose,
    kac_lhs,
    kac_lhs_closed_form,
    kac_rhs_integral,
    kac_substitution_tuple,
    kac_values,
    make_E_div,
    make_F_div,
    make_K_pow,
    make_rep_params,
    qbinomial_integral,
    qbinomial_target,
    qbinomial_value,
    rep_bindings,
    scalar_op,
    verify_EE,
    verify_FF,
    verify_KE,
    verify_KF,
    verify_KK,
    verify_weyl,
    weyl_power,
)
from .identities import (
    six_nine_check,
    six_nine_integrand,
    tau_binomial_check,
    tau_binomial_integrand,
)
from .suites import SUITES, run_suite

__version__ = "0.1.0"
