"""Exact q-series and quadratic-form machinery with machine-checked identities."""

from .series import (GaussianRational, QSeries, IndexBeyondOrder,
                     NonUnitConstantTerm, pochhammer_inf, series_eq)
from .theta import (J, Jbar, Jm, Monomial, NegativeQPower, ThetaSpec,
                    InternalCrossCheckFailure, jtheta, mono,
                    product_side_series, rep_count_product_series,
                    theta_j, theta_j_sum, verify_theta_suite)
from .appell import (AppellSpec, NonUnitThetaDenominator, PoleAtMonomialOne,
                     appell_m, verify_appell_suite, verify_changing_z)
from .quadforms import (BadDiscriminantResidue, NotPositiveDefinite, QuadForm,
                        class_number_h, enumerate_reduced,
                        enumerate_reduced_bruteforce, hurwitz_H,
                        hurwitz_table, is_reduced, verify_hurwitz_doubling)
from .counting import (WrongParity, classical_checks, d_mod4,
                       is_three_square_excluded, iter_solution_triples,
                       parity_bijection_images, r3_triangular, rep_count,
                       rep_squares, sigma, signed_formula_even,
                       signed_formula_odd, signed_rep_count, sum_side_series,
                       three_squares_parity_check, triple_sum)
from .bijections import (ALL_EQUAL, CaseMismatch, NotASolution, Triple,
                         UnclassifiableForm, classify_form, classify_triple,
                         map_triple, solution_triples, verify_case)
from .report import Check, VerificationReport
from .verify import Tables, run_suites

__version__ = "0.1.0"
