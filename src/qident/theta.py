"""Theta functions on monomial arguments, with independent product and sum routes.

``theta_j`` expands the triple product; ``theta_j_sum`` expands the bilateral
signed sum.  Both normalise the argument exponent into ``[0, modulus)`` first,
tracking the exact monomial prefactor, and both refuse to silently produce
Laurent tails: a net negative power of q is a hard error.  The product route
keeps each base product ``j(zeta*q**a0; q**m)`` it builds in a bounded store
and serves shorter requests from its prefix (``_base_product``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .report import Check, VerificationReport, series_check
from .series import (GaussianRational, QSeries, pochhammer_inf,
                     pochhammer_inverse, product_store, series_eq,
                     stored_product, ONE, I_UNIT, MINUS_ONE, MINUS_I,
                     _I_POWERS, _UNIT_INDEX, _as_gaussian)


class NegativeQPower(ArithmeticError):
    """A theta/Appell expansion would need negative powers of q."""


class InternalCrossCheckFailure(AssertionError):
    """Two supposedly equal internal computation routes disagreed.

    ``locus`` is the first exponent where they differ, and ``expected`` and
    ``actual`` are the two coefficients there, when the raiser knows them.
    """

    def __init__(self, message, locus=None, expected=None, actual=None):
        super().__init__(message)
        self.locus, self.expected, self.actual = locus, expected, actual


_UNITS = tuple(GaussianRational(*w) for w in _I_POWERS)  # i**k, k = 0..3


def _unit_index(u: GaussianRational) -> int:
    k = _UNIT_INDEX.get((u.re, u.im))
    if k is None:
        raise ValueError(f"{u} is not a fourth root of unity")
    return k


def unit_power(u: GaussianRational, k: int) -> GaussianRational:
    """``u**k`` for a fourth root of unity, any integer k."""
    return _UNITS[(_unit_index(u) * k) % 4]


@dataclass(frozen=True)
class Monomial:
    """``unit * q**exponent`` with unit in {1, i, -1, -i}."""

    unit: GaussianRational = ONE
    exponent: int = 0

    def __post_init__(self):
        u = _as_gaussian(self.unit)
        if u is NotImplemented:
            raise TypeError("unit must be an exact scalar")
        object.__setattr__(self, "unit", u)
        _unit_index(u)  # validates unit**4 == 1

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(self.unit * other.unit, self.exponent + other.exponent)

    def inverse(self) -> "Monomial":
        return Monomial(self.unit.conjugate(), -self.exponent)

    def power(self, k: int) -> "Monomial":
        return Monomial(unit_power(self.unit, k), self.exponent * k)


@dataclass(frozen=True)
class ThetaSpec:
    """Argument and base for ``j(unit * q**exponent; q**modulus)``."""

    arg: Monomial
    modulus: int

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be >= 1")


def mono(unit, exponent: int) -> Monomial:
    return Monomial(_as_gaussian(unit), exponent)


def jtheta(unit, exponent: int, modulus: int) -> ThetaSpec:
    return ThetaSpec(mono(unit, exponent), modulus)


# ---------------------------------------------------------------------------
# normalisation
# ---------------------------------------------------------------------------


def _normalize(spec: ThetaSpec):
    """Reduce the argument exponent mod the modulus via the shift law.

    Returns ``(unit, net_exponent, reduced_arg_exponent)`` so that
    ``j(arg; q**m) = unit * q**net_exponent * j(zeta*q**reduced; q**m)``.
    ``net_exponent`` may be negative; callers decide whether that is fatal.
    """
    m = spec.modulus
    zeta = spec.arg.unit
    n, a0 = divmod(spec.arg.exponent, m)
    unit = unit_power(MINUS_ONE, n) * unit_power(zeta, -n)
    net = -m * (n * (n - 1) // 2) - n * a0
    return unit, net, a0


def _is_zero_theta(spec: ThetaSpec) -> bool:
    return spec.arg.unit == ONE and spec.arg.exponent % spec.modulus == 0


# (unit index of zeta, a0, m) -> the longest base product j(zeta*q**a0; q**m)
# built, 0 <= a0 < m (see ``theta_j_shifted``)
_bases = product_store()


def _base_product(zeta: GaussianRational, a0: int, m: int,
                  n: int) -> QSeries:
    """A fresh copy of ``j(zeta*q**a0; q**m)`` below ``q**n``, the product
    ``((zeta q**a0)_inf (q**m)_inf) (zeta**-1 q**(m - a0))_inf`` of three
    lane products, multiplied in that order.

    For 0 < a0 < m the first product runs over the distinct exponents
    ``a0 + k*m`` and ``m + k*m``, so its coefficients are signed counts of
    sets of distinct exponents: it is ``(q;q)_inf``, with coefficients in
    {0, 1, -1}, for ``j(q;q**2)``.  The two arguments' exponents coincide
    when ``2*a0 == m``, so multiplying them first would square
    ``(q;q**2)_inf`` for ``j(q;q**2)``: 106-bit coefficients below
    ``q**4000`` into 155-bit ones, and wider packed columns for both
    products of the build.

    The store keeps the longest product built per key (zeta, a0, m), the
    argument the build reads once ``_normalize`` has applied the shift law,
    and a request below a shorter order reads its prefix, which is the
    product built at that order: a prefix, not an identity.  The key is
    that argument and nothing more, so ``j(x)`` and ``j(q**m/x)`` are two
    keys wherever their normalised arguments differ, and the flip, split
    and shift checks stay comparisons of two builds."""
    def build(need):
        x = pochhammer_inf(zeta, a0, m, need)
        y = pochhammer_inf(unit_power(zeta, -1), m - a0, m, need)
        return x * pochhammer_inf(1, m, m, need) * y

    return stored_product(_bases, (_unit_index(zeta), a0, m), n,
                          build).truncate(n)


def _apply_prefactor(base: QSeries, unit, net: int, order: int) -> QSeries:
    if net >= order:
        return QSeries.zeros(order)
    return (base * unit).shift(net)


def theta_j_shifted(spec: ThetaSpec, order: int,
                    pre_unit=ONE, pre_exponent: int = 0) -> QSeries:
    """``pre_unit * q**pre_exponent * j(arg; q**modulus)`` as a power series.

    The prefactor may absorb the negative net power a normalisation can
    produce; if the combined power is still negative the result would be a
    genuine Laurent series and NegativeQPower is raised.  The base product
    at the normalised argument comes from the store of ``_base_product``.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if _is_zero_theta(spec):
        return QSeries.zeros(order)
    unit, net, a0 = _normalize(spec)
    unit = unit * _as_gaussian(pre_unit)
    net += pre_exponent
    if net < 0:
        raise NegativeQPower(
            f"j({spec.arg.unit}*q^{spec.arg.exponent}; q^{spec.modulus}) "
            f"lands at q^{net}")
    if net >= order:
        return QSeries.zeros(order)
    base = _base_product(spec.arg.unit, a0, spec.modulus, order - net)
    return _apply_prefactor(base, unit, net, order)


def theta_j(spec: ThetaSpec, order: int) -> QSeries:
    """``j(x; q**m) = (x)_inf (q**m/x)_inf (q**m)_inf``, product route."""
    return theta_j_shifted(spec, order)


def _raw_theta_sum(zeta: GaussianRational, a: int, m: int,
                   offset: int, order: int) -> QSeries:
    """Bilateral sum for ``q**offset * j(zeta*q**a; q**m)`` with no
    argument normalisation.  Every term exponent must be non-negative."""
    re = [0] * order
    im = [0] * order
    kz = _unit_index(zeta)

    def expo(k):
        return m * (k * (k - 1) // 2) + k * a + offset

    def add_term(k):
        e = expo(k)
        if e >= order:
            return False
        if e < 0:
            raise NegativeQPower(f"bilateral sum term at q^{e}")
        ur, ui = _I_POWERS[(2 * k + kz * k) % 4]  # (-1)**k * zeta**k
        re[e] += ur
        im[e] += ui
        return True

    # The exponent is a convex parabola in k; scan outward from the vertex.
    vertex = round(Fraction(m - 2 * a, 2 * m))
    k = vertex
    misses = 0
    while misses < 4:
        misses = misses + 1 if not add_term(k) else 0
        k += 1
    k = vertex - 1
    misses = 0
    while misses < 4:
        misses = misses + 1 if not add_term(k) else 0
        k -= 1
    return QSeries._raw(re, im, 1, order)


def theta_j_sum(spec: ThetaSpec, order: int) -> QSeries:
    """Same value as ``theta_j`` computed through the bilateral signed sum."""
    if _is_zero_theta(spec):
        # terms k and 1-k share an exponent and cancel in pairs
        return QSeries.zeros(order)
    unit, net, a0 = _normalize(spec)
    if net < 0:
        raise NegativeQPower("sum route lands at a negative power")
    if net >= order:
        return QSeries.zeros(order)
    base = _raw_theta_sum(spec.arg.unit, a0, spec.modulus, 0, order - net)
    return _apply_prefactor(base, unit, net, order)


# ---------------------------------------------------------------------------
# shorthands
# ---------------------------------------------------------------------------


def J(a: int, m: int, order: int) -> QSeries:
    if not 0 < a < m:
        raise ValueError("J(a, m) needs 0 < a < m")
    return theta_j(jtheta(1, a, m), order)


def Jbar(a: int, m: int, order: int) -> QSeries:
    if not 0 <= a < m:
        raise ValueError("Jbar(a, m) needs 0 <= a < m")
    return theta_j(jtheta(-1, a, m), order)


def Jm(m: int, order: int) -> QSeries:
    """The Euler product ``prod (1 - q**(m*i))``."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return pochhammer_inf(1, m, m, order)


# ---------------------------------------------------------------------------
# the two-route signed-count generating function
# ---------------------------------------------------------------------------


def product_side_pochhammer(order: int) -> QSeries:
    """((q;q)/(−q;q)) * ((q²;q²)/(−q²;q²))² via pochhammer quotients: s1,
    the lane's product (q;q) times the lane's inverse of its divisor, and
    s2, s1 with q -> q², a change of variable rather than a rebuild."""
    s1 = pochhammer_inf(1, 1, 1, order) * pochhammer_inverse(-1, 1, 1, order)
    s2 = s1.spread(2, order)
    return s1 * (s2 * s2)


def product_side_theta(order: int) -> QSeries:
    """The same series as ``j(q;q²) * j(q²;q⁴)²``, with ``j(q²;q⁴)`` read
    as ``j(q;q²)`` with q -> q², a change of variable rather than a
    rebuild."""
    a = J(1, 2, order)
    b = a.spread(2, order)
    return a * (b * b)


def product_side_series(order: int) -> QSeries:
    """Generating function of the signed x²+2y²+2z² representation counts.

    Computed through both product routes, which must agree exactly; the
    theta-route series is returned, so callers that need ``j(q;q²)
    j(q²;q⁴)²`` itself can use it.
    """
    p = product_side_pochhammer(order)
    t = product_side_theta(order)
    bad = series_eq(p, t, order)
    if bad is not None:
        raise InternalCrossCheckFailure(
            f"pochhammer and theta routes differ first at q^{bad}: "
            f"{p.coeff(bad)} vs {t.coeff(bad)}",
            bad, t.coeff(bad), p.coeff(bad))
    return t


def rep_count_product_series(order: int) -> QSeries:
    """Generating function of the unsigned counts: ``j(-q;q²) j(-q²;q⁴)²``."""
    a = Jbar(1, 2, order)
    b = Jbar(2, 4, order)
    return a * (b * b)


# ---------------------------------------------------------------------------
# the theta identity suite
# ---------------------------------------------------------------------------


def _check_shift_law(zeta, a, m, n, order, base) -> Check:
    """Shift law at displacement ``n``: bilateral sum at the shifted argument
    against prefactor times the triple product ``base`` at the base
    argument, ``theta_j(jtheta(zeta, a, m), order)``."""
    name = f"shift_law[zeta={zeta},a={a},m={m},n={n}]"
    unit, net, _ = _normalize(jtheta(zeta, a + n * m, m))
    try:
        if net >= 0:
            lhs = _raw_theta_sum(zeta, a + n * m, m, 0, order)
            rhs = (base * unit).shift(net).truncate(order)
        else:
            lhs = _raw_theta_sum(zeta, a + n * m, m, -net, order)
            rhs = base * unit
    except NegativeQPower as exc:
        return Check.fail(name, None, "a power series", str(exc))
    return series_check(name, lhs, rhs, order)


def _check_flip_law(zeta, a, m, order) -> Check:
    name = f"flip_law[zeta={zeta},a={a},m={m}]"
    lhs = theta_j(jtheta(zeta, a, m), order)
    rhs = theta_j(ThetaSpec(mono(zeta, a).inverse() * mono(1, m), m), order)
    return series_check(name, lhs, rhs, order)


def _check_split_law(zeta, a, mu, m, order) -> Check:
    """m-section of the theta series, base modulus mu, split parameter m."""
    name = f"split_law[zeta={zeta},a={a},base={mu},m={m}]"
    lhs = theta_j(jtheta(zeta, a, mu), order)
    rhs = QSeries.zeros(order)
    sign_m = unit_power(MINUS_ONE, m + 1)
    for k in range(m):
        pre_unit = unit_power(MINUS_ONE, k) * unit_power(zeta, k)
        pre_exp = mu * (k * (k - 1) // 2) + k * a
        inner = jtheta(sign_m * unit_power(zeta, m),
                       mu * (m * (m - 1) // 2 + m * k) + m * a,
                       mu * m * m)
        rhs = rhs + theta_j_shifted(inner, order, pre_unit, pre_exp)
    return series_check(name, lhs, rhs, order)


def _check_split_identity(zeta, a, order) -> Check:
    """``j(z;q) = j(-q z²; q⁴) - z j(-q³ z²; q⁴)`` for monomial z."""
    name = f"theta_half_split[zeta={zeta},a={a}]"
    lhs = theta_j(jtheta(zeta, a, 1), order)
    z2 = unit_power(zeta, 2)
    rhs = (theta_j_shifted(jtheta(MINUS_ONE * z2, 1 + 2 * a, 4), order)
           - theta_j_shifted(jtheta(MINUS_ONE * z2, 3 + 2 * a, 4), order,
                             zeta, a))
    return series_check(name, lhs, rhs, order)


def verify_theta_suite(order: int) -> VerificationReport:
    """All the theta-function identities the rest of the package leans on."""
    if order < 8:
        raise ValueError("order must be >= 8")
    checks = []
    N = order

    j1 = Jm(1, N)
    j2 = Jm(2, N)
    j4 = Jm(4, N)

    checks.append(series_check("jbar_0_1_eq_2_jbar_1_4",
                               Jbar(0, 1, N), Jbar(1, 4, N) * 2, N))
    checks.append(series_check("jbar_0_1_eq_2_J2sq_over_J1",
                               Jbar(0, 1, N), j2 * j2 / j1 * 2, N))
    checks.append(series_check("jbar_1_2_eta_quotient",
                               Jbar(1, 2, N),
                               j2 ** 5 / (j1 * j1 * j4 * j4), N))
    checks.append(series_check("j_1_2_eta_quotient",
                               J(1, 2, N), j1 * j1 / j2, N))
    checks.append(series_check("j_1_4_eta_quotient",
                               J(1, 4, N), j1 * j4 / j2, N))

    sum_specs = [(ONE, 1, 2), (MINUS_ONE, 0, 1), (I_UNIT, 1, 2),
                 (ONE, 1, 3), (MINUS_ONE, 2, 5), (MINUS_I, 3, 4)]
    for zeta, a, m in sum_specs:
        checks.append(series_check(
            f"sum_route_eq_product_route[zeta={zeta},a={a},m={m}]",
            theta_j_sum(jtheta(zeta, a, m), N),
            theta_j(jtheta(zeta, a, m), N), N))

    for zeta, a, m in [(ONE, 1, 2), (I_UNIT, 1, 2), (MINUS_ONE, 1, 3)]:
        base = theta_j(jtheta(zeta, a, m), N)
        for n in range(-3, 4):
            checks.append(_check_shift_law(zeta, a, m, n, N, base))

    for zeta, a, m in [(ONE, 1, 3), (I_UNIT, 1, 2), (MINUS_ONE, 0, 3),
                       (MINUS_ONE, 2, 5)]:
        checks.append(_check_flip_law(zeta, a, m, N))

    for m in (2, 3):
        for zeta, a, mu in [(ONE, 1, 2), (MINUS_ONE, 1, 2), (I_UNIT, 1, 2)]:
            checks.append(_check_split_law(zeta, a, mu, m, N))

    checks.append(series_check(
        "j_iq_q2_eta_quotient",
        theta_j(jtheta(I_UNIT, 1, 2), N),
        Jm(4, N) ** 2 / Jm(8, N), N))

    # exponents 0 and 1 are the whole power-series range at base modulus 1
    for zeta, a in [(ONE, 1), (MINUS_ONE, 0), (I_UNIT, 0), (MINUS_ONE, 1),
                    (I_UNIT, 1)]:
        checks.append(_check_split_identity(zeta, a, N))

    checks.append(series_check(
        "half_split_instance_j_1_2",
        J(1, 2, N), Jbar(4, 8, N) - Jbar(0, 8, N).shift(1).truncate(N), N))
    checks.append(series_check(
        "half_split_instance_j_2_4",
        J(2, 4, N), Jbar(8, 16, N) - Jbar(0, 16, N).shift(2).truncate(N), N))

    return VerificationReport("theta", {"order": order}, checks)
