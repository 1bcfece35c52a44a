"""Appell sums: the two special evaluations and the change-of-z relation."""

from fractions import Fraction

import pytest

from qident.appell import (AppellSpec, NonUnitThetaDenominator,
                           PoleAtMonomialOne, _expanded_term, appell_m,
                           changing_z_difference, verify_appell_suite)
from qident.series import GaussianRational, QSeries, series_eq
from qident.theta import I_UNIT, MINUS_I, MINUS_ONE, ONE, mono

UNITS = (ONE, I_UNIT, MINUS_ONE, MINUS_I)


def test_m_q_minus1_is_one_half():
    s = appell_m(AppellSpec(mono(1, 1), mono(-1, 0), 2), 200)
    assert s.coeff(0) == Fraction(1, 2)
    assert all(not s.coeff(n) for n in range(1, 200))


def test_m_minus1_q_is_zero():
    assert appell_m(AppellSpec(mono(-1, 0), mono(1, 1), 2), 200).is_zero()


def test_conjugate_symmetry():
    a = appell_m(AppellSpec(mono(-1, 1), mono(I_UNIT, 1), 2), 80)
    b = appell_m(AppellSpec(mono(-1, 1), mono(MINUS_I, 1), 2), 80)
    for n in range(80):
        assert a.coeff(n).conjugate() == b.coeff(n)
    # the conjugate pair sums to a real series
    for n in range(80):
        assert not (a.coeff(n) + b.coeff(n)).im


def test_constant_term_of_the_instance():
    a = appell_m(AppellSpec(mono(-1, 1), mono(I_UNIT, 1), 2), 30)
    assert a.coeff(0) == GaussianRational(Fraction(1, 2), Fraction(-1, 2))


def test_truncation_consistency():
    long = appell_m(AppellSpec(mono(-1, 1), mono(I_UNIT, 1), 2), 64)
    short = appell_m(AppellSpec(mono(-1, 1), mono(I_UNIT, 1), 2), 24)
    assert long.truncate(24) == short


def test_changing_z_instance_to_200():
    lhs, rhs = changing_z_difference(mono(-1, 1), mono(I_UNIT, 1), mono(-1, 0),
                                     2, 200)
    assert series_eq(lhs, rhs, 200) is None


def test_degenerate_difference_is_zero():
    lhs, rhs = changing_z_difference(mono(-1, 1), mono(I_UNIT, 1),
                                     mono(I_UNIT, 1), 2, 40)
    assert lhs.is_zero() and rhs.is_zero()


def test_pole_detection():
    # x*z = 1 at some r makes a term denominator vanish identically
    with pytest.raises(PoleAtMonomialOne):
        appell_m(AppellSpec(mono(1, 1), mono(1, 1), 2), 20)


def test_zero_theta_denominator():
    with pytest.raises(NonUnitThetaDenominator):
        appell_m(AppellSpec(mono(-1, 1), mono(1, 0), 2), 20)


def test_suite():
    report = verify_appell_suite(100)
    assert report.passed


def test_corrupted_rhs_reports_locus():
    from qident.report import series_check

    lhs, rhs = changing_z_difference(mono(-1, 1), mono(I_UNIT, 1), mono(-1, 0),
                                     2, 40)
    bad = rhs + QSeries.monomial(GaussianRational(0, 1), 7, 40)
    check = series_check("changing_z_corrupted", lhs, bad, 40)
    assert not check.passed and check.locus == 7


def power_loop_term(unit, base, zeta, e, order):
    """``unit * q**base / (1 - zeta*q**e)`` by GaussianRational powers:
    sum of unit * zeta**k * q**(base + k*e) for e > 0, and of
    -unit * zeta**-(k+1) * q**(base - (k+1)*e) for e < 0."""
    out = [GaussianRational(0)] * order
    k = 0
    while True:
        if e > 0:
            exp, coeff = base + k * e, unit * zeta ** k
        else:
            exp, coeff = base - (k + 1) * e, -unit * zeta ** -(k + 1)
        if exp >= order:
            return QSeries(out, order)
        out[exp] = coeff
        k += 1


@pytest.mark.parametrize("e", [-3, -1, 1, 2])
@pytest.mark.parametrize("zeta", UNITS)
@pytest.mark.parametrize("unit", UNITS)
def test_expanded_term_matches_a_power_loop(unit, zeta, e):
    for base, order in ((0, 23), (2, 23), (5, 6), (1, 1)):
        got = _expanded_term(unit, base, zeta, e, order)
        lead = base if e > 0 else base - e
        if lead >= order:
            assert got is None
        else:
            assert got == power_loop_term(unit, base, zeta, e, order)
