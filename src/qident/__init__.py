"""Exact q-series and quadratic-form machinery with machine-checked identities.

Every name below is exported lazily (PEP 562): ``from qident import X``
imports only the submodule that defines X, so the per-n layer
(``oracles``, ``quadforms``, ``report``) loads without numpy.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "series": ("GaussianRational", "QSeries", "IndexBeyondOrder",
               "NonUnitConstantTerm", "pochhammer_inf", "series_eq"),
    "theta": ("J", "Jbar", "Jm", "Monomial", "NegativeQPower", "ThetaSpec",
              "InternalCrossCheckFailure", "jtheta", "mono",
              "product_side_series", "rep_count_product_series", "theta_j",
              "theta_j_sum", "verify_theta_suite"),
    "appell": ("AppellSpec", "NonUnitThetaDenominator", "PoleAtMonomialOne",
               "appell_m", "verify_appell_suite", "verify_changing_z"),
    "quadforms": ("BadDiscriminantResidue", "NotPositiveDefinite",
                  "QuadForm", "class_number_h", "enumerate_reduced",
                  "enumerate_reduced_bruteforce", "hurwitz_H",
                  "hurwitz_table", "is_reduced", "verify_hurwitz_doubling"),
    "oracles": ("d_mod4", "is_three_square_excluded", "iter_solution_triples",
                "r3_triangular", "rep_count", "rep_squares", "sigma",
                "signed_rep_count"),
    "counting": ("WrongParity", "classical_checks",
                 "parity_bijection_images", "signed_formula_even",
                 "signed_formula_odd", "sum_side_series",
                 "three_squares_parity_check", "triple_sum"),
    "bijections": ("ALL_EQUAL", "CaseMismatch", "NotASolution", "Triple",
                   "UnclassifiableForm", "classify_form", "classify_triple",
                   "map_triple", "solution_triples", "verify_case"),
    "report": ("Check", "VerificationReport"),
    "verify": ("Tables", "run_suites"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
