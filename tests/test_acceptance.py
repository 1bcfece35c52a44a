"""Acceptance gate: the ten headline criteria at full scale, all exact.

Each test prints one pass/fail line; heavy shared computations live in
module-scoped fixtures.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

from fractions import Fraction

import pytest

from qident import _kernels, bijections, counting
from qident.quadforms import (enumerate_reduced, enumerate_reduced_bruteforce,
                              hurwitz_H)
from qident.series import series_eq
from qident.theta import (product_side_pochhammer, product_side_theta,
                          verify_theta_suite)
from qident.appell import verify_appell_suite
from qident.verify import run_suites

SWEEP = 2000
BIG_SWEEP = 5000
BIJECTION_SWEEP = 500
CLASSICAL_SWEEP = 1000


def _criterion(num: int, description: str, ok: bool):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {num} failed: {description}"


@pytest.fixture(scope="module")
def product_series_big():
    # both product routes at order SWEEP + 1, cross-checked here once
    poch = product_side_pochhammer(SWEEP + 1)
    theta = product_side_theta(SWEEP + 1)
    assert series_eq(poch, theta, SWEEP + 1) is None
    return poch, theta


@pytest.fixture(scope="module")
def signed_tables_big():
    return _kernels.signed_rep_tables(BIG_SWEEP)


@pytest.fixture(scope="module")
def r3_table_big():
    return _kernels.square_rep_tables(3, SWEEP)


def test_criterion_1_main_identity_at_300():
    lhs = counting.sum_side_series(300)
    rhs = product_side_pochhammer(300)
    _criterion(1, "sum side equals product side to order 300, exactly",
               series_eq(lhs, rhs, 300) is None)


def test_criterion_2_four_route_agreement(product_series_big,
                                          signed_tables_big):
    poch, theta = product_series_big
    signed, _ = signed_tables_big
    lhs = counting.sum_side_series(SWEEP + 1)
    ok = series_eq(poch, theta, SWEEP + 1) is None
    ok = ok and series_eq(lhs, poch, SWEEP + 1) is None
    ok = ok and all(int(poch.coeff(n).re) == int(signed[n])
                    and not poch.coeff(n).im
                    for n in range(SWEEP + 1))
    # ground the batch enumeration in the simple per-n oracle on a sample
    sample = list(range(0, 250)) + [999, 1000, 1500, 1998, 1999, 2000]
    ok = ok and all(counting.signed_rep_count(n) == int(signed[n])
                    for n in sample)
    _criterion(2, f"four-route agreement for 0 <= n <= {SWEEP}", ok)


def test_criterion_3_residue_class_evaluations(product_series_big):
    poch, _ = product_series_big
    anchors = {1: -2, 2: -4, 3: 8, 4: 6, 5: -8, 6: -8, 7: 0, 9: -10, 11: 24}
    ok = all(int(poch.coeff(n).re) == v for n, v in anchors.items())
    (report,) = run_suites("theorem17", 8, SWEEP)
    ok = ok and report.passed
    _criterion(3, f"class-number evaluation of a(n) for n <= {SWEEP}", ok)


def test_criterion_4_coefficient_formulas(signed_tables_big):
    signed, _ = signed_tables_big
    ok = all((counting.signed_formula_even(n) if n % 2 == 0
              else counting.signed_formula_odd(n)) == int(signed[n])
             for n in range(1, SWEEP + 1))
    (report,) = run_suites("propositions", 8, SWEEP)
    ok = ok and report.passed
    _criterion(4, f"closed forms and residue propositions for n <= {SWEEP}", ok)


def test_criterion_5_triple_count_identities():
    (report,) = run_suites("theorem61", 8, SWEEP)
    _criterion(5, f"triple-count class-number identities for n <= {SWEEP}",
               report.passed)


def test_criterion_6_bijection_verification():
    failures = []
    for n in range(1, BIJECTION_SWEEP + 1):
        if n % 4 == 0:
            continue
        report = bijections.verify_case(n)
        if not report.passed:
            failures.append(n)
    _criterion(6, f"construction verified for qualifying n <= {BIJECTION_SWEEP}",
               not failures)


def test_criterion_7_theta_and_appell_suites():
    theta_report = verify_theta_suite(200)
    appell_report = verify_appell_suite(200)
    _criterion(7, "theta identity suite and Appell properties to order 200",
               theta_report.passed and appell_report.passed)


def test_criterion_8_doubling_and_local_global(signed_tables_big):
    signed, unsigned = signed_tables_big
    ok = all(hurwitz_H(4 * n) == 4 * hurwitz_H(n)
             for n in range(3, BIG_SWEEP + 1, 8))
    ok = ok and all(hurwitz_H(4 * n) == 2 * hurwitz_H(n)
                    for n in range(7, BIG_SWEEP + 1, 8))
    ok = ok and all(abs(int(signed[n])) == int(unsigned[n])
                    for n in range(BIG_SWEEP + 1))
    ok = ok and all((int(unsigned[n]) == 0)
                    == counting.is_three_square_excluded(n)
                    for n in range(BIG_SWEEP + 1))
    _criterion(8, f"class-number doubling and local-global for n <= {BIG_SWEEP}",
               ok)


def test_criterion_9_classical_suite():
    report = counting.classical_checks(CLASSICAL_SWEEP)
    _criterion(9, f"classical square-count identities for n <= {CLASSICAL_SWEEP}",
               report.passed)


def test_criterion_10_reduced_form_oracle():
    ok = all(enumerate_reduced(D) == enumerate_reduced_bruteforce(D)
             for D in range(-4, -201, -1) if D % 4 in (0, 1))
    spots = {0: Fraction(-1, 12), 3: Fraction(1, 3), 4: Fraction(1, 2),
             20: Fraction(2), 36: Fraction(5, 2)}
    ok = ok and all(hurwitz_H(n) == v for n, v in spots.items())
    _criterion(10, "reduced-form enumeration against brute force, H spot values",
               ok)
