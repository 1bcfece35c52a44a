"""Truncated Appell sums m(x, z; q) for monomial arguments.

Each bilateral term is a monomial times a geometric-type factor
1/(1 - q**(m*(r-1)) * x * z).  The factor expands three ways depending on
the sign of its net q-exponent e: geometrically for e > 0, as the constant
1/(1 - unit) for e = 0 (the unit must not be 1), and through the algebraic
rewrite 1/(1-w) = -w**-1/(1 - w**-1) for e < 0 so everything stays in
non-negative powers of q.
"""

from __future__ import annotations

from dataclasses import dataclass

from .report import VerificationReport, series_check
from .series import (GaussianRational, QSeries, ONE, MINUS_ONE, I_UNIT,
                     MINUS_I, _I_POWERS, pochhammer_inf)
from .theta import (Monomial, NegativeQPower, ThetaSpec, _is_zero_theta,
                    _unit_index, mono, theta_j, unit_power)


class PoleAtMonomialOne(ArithmeticError):
    """A bilateral term has denominator 1 - q**0 * 1, a genuine pole."""


class NonUnitThetaDenominator(ArithmeticError):
    """j(z; q**m) has zero constant term, so 1/j(z;q**m) is not a series."""


@dataclass(frozen=True)
class AppellSpec:
    x: Monomial
    z: Monomial
    modulus: int

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be >= 1")


def _expanded_term(unit, base, zeta, e, order):
    """``unit * q**base / (1 - zeta*q**e)`` as a QSeries, or None if the
    term starts at or beyond the truncation order."""
    if e == 0:
        if zeta == ONE:
            raise PoleAtMonomialOne("term denominator vanishes identically")
        lead = base
    else:
        lead = base if e > 0 else base - e
    if lead >= order:
        return None
    if lead < 0:
        raise NegativeQPower(f"Appell term starts at q^{lead}")
    if e == 0:
        return QSeries.monomial(unit * (ONE - zeta).inverse(), base, order)
    # unit and zeta are fourth roots of unity (Monomial validates them), so
    # the coefficient of the k-th term is i**(u + k*z), an index mod 4
    u = _unit_index(unit)
    z = _unit_index(zeta)
    if e < 0:
        # the k-th term of -w**-1/(1 - w**-1), w = zeta*q**e, is
        # -unit * zeta**-(k+1) * q**(base - (k+1)*e), and -1 = i**2
        u, z, e = u + 2 - z, -z, -e
        base += e
    re = [0] * order
    im = [0] * order
    for exp in range(base, order, e):
        re[exp], im[exp] = _I_POWERS[u % 4]
        u += z
    return QSeries._raw(re, im, 1, order)


def appell_m(spec: AppellSpec, order: int) -> QSeries:
    """m(x, z; q**m) truncated to ``order``."""
    m = spec.modulus
    jz = theta_j(ThetaSpec(spec.z, m), order)
    if not jz.coeff(0):
        raise NonUnitThetaDenominator("j(z; q^m) has zero constant term")
    ez = spec.z.exponent
    ex = spec.x.exponent
    zeta_den = spec.x.unit * spec.z.unit
    total = QSeries.zeros(order)

    def term(r):
        # (-1)**r * z**r / (1 - q**(m*(r-1)) * x * z)
        unit = unit_power(MINUS_ONE, r) * unit_power(spec.z.unit, r)
        base = m * (r * (r - 1) // 2) + r * ez
        e = m * (r - 1) + ex + ez
        return _expanded_term(unit, base, zeta_den, e, order)

    # Quadratic exponent growth bounds the bilateral sum; scan each
    # direction until a margin of four consecutive terms falls beyond order.
    r, misses = 0, 0
    while misses < 4:
        t = term(r)
        if t is None:
            misses += 1
        else:
            misses = 0
            total = total + t
        r += 1
    r, misses = -1, 0
    while misses < 4:
        t = term(r)
        if t is None:
            misses += 1
        else:
            misses = 0
            total = total + t
        r -= 1

    return total / jz


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def _theta_quotient(x: Monomial, z1: Monomial, z0: Monomial, m: int,
                    order: int) -> QSeries:
    """The correction term relating m(x,z1;q**m) and m(x,z0;q**m)."""
    ratio = ThetaSpec(z1 * z0.inverse(), m)
    if _is_zero_theta(ratio):
        # z1 and z0 agree up to a full period: the whole correction vanishes.
        return QSeries.zeros(order)
    j1_cubed = pochhammer_inf(1, m, m, order) ** 3
    num = (theta_j(ratio, order)
           * theta_j(ThetaSpec(x * z1 * z0, m), order))
    den = (theta_j(ThetaSpec(z0, m), order) * theta_j(ThetaSpec(z1, m), order)
           * theta_j(ThetaSpec(x * z0, m), order)
           * theta_j(ThetaSpec(x * z1, m), order))
    quotient = j1_cubed * num / den * z0.unit
    return quotient.shift(z0.exponent).truncate(order)


def changing_z_difference(x: Monomial, z1: Monomial, z0: Monomial, m: int,
                          order: int) -> tuple[QSeries, QSeries]:
    """Both sides of the change-of-z relation, computed independently."""
    lhs = appell_m(AppellSpec(x, z1, m), order) - appell_m(AppellSpec(x, z0, m), order)
    rhs = _theta_quotient(x, z1, z0, m, order)
    return lhs, rhs


def verify_changing_z(order: int) -> VerificationReport:
    """The change-of-z relation at the instance used downstream plus the
    degenerate z1 == z0 sanity case."""
    if order < 8:
        raise ValueError("order must be >= 8")
    checks = []

    x = mono(-1, 1)
    z1 = mono(I_UNIT, 1)
    z0 = mono(-1, 0)
    lhs, rhs = changing_z_difference(x, z1, z0, 2, order)
    checks.append(series_check("changing_z_instance", lhs, rhs, order))

    lhs2, rhs2 = changing_z_difference(x, z1, z1, 2, order)
    zero = QSeries.zeros(order)
    checks.append(series_check("changing_z_degenerate_lhs", lhs2, zero, order))
    checks.append(series_check("changing_z_degenerate_rhs", rhs2, zero, order))

    return VerificationReport("appell_changing_z", {"order": order}, checks)


def verify_appell_suite(order: int) -> VerificationReport:
    """Appell specials plus the change-of-z relation."""
    half = QSeries.constant(GaussianRational(1) / 2, order)
    checks = [
        series_check("appell_m_q_minus1_q2_is_half",
                     appell_m(AppellSpec(mono(1, 1), mono(-1, 0), 2), order),
                     half, order),
        series_check("appell_m_minus1_q_q2_is_zero",
                     appell_m(AppellSpec(mono(-1, 0), mono(1, 1), 2), order),
                     QSeries.zeros(order), order),
    ]
    m_plus = appell_m(AppellSpec(mono(-1, 1), mono(I_UNIT, 1), 2), order)
    m_minus = appell_m(AppellSpec(mono(-1, 1), mono(MINUS_I, 1), 2), order)
    conj = QSeries([c.conjugate() for c in m_plus.coeffs()], order)
    checks.append(series_check("appell_conjugate_pair", conj, m_minus, order))
    checks.extend(verify_changing_z(order).checks)
    return VerificationReport("appell", {"order": order}, checks)
