"""Exact series arithmetic against independent references."""

import decimal
import itertools
import math
import random
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qident import series
from qident import theta as T, verify
from qident.series import (I_UNIT, MINUS_I, MINUS_ONE, ONE, GaussianRational,
                           IndexBeyondOrder, NonUnitConstantTerm, QSeries,
                           _conv, _conv_packed, _decimal_columns,
                           _factors_lane, _factors_loop, _lane_moduli,
                           _lane_prime, _partition_bound_bits,
                           clear_product_store, pochhammer_inf, series_eq)
from series_oracles import _conv_school


def is_integer(c: GaussianRational) -> bool:
    """The reference predicate: c is a plain integer."""
    return not c.im and c.re.denominator == 1


def naive_mul(a: QSeries, b: QSeries) -> QSeries:
    """Reference double loop over GaussianRational scalars."""
    order = min(a.order, b.order)
    out = [GaussianRational(0) for _ in range(order)]
    for i in range(order):
        ai = a.coeff(i)
        for j in range(order - i):
            out[i + j] = out[i + j] + ai * b.coeff(j)
    return QSeries(out, order)


scalars = st.builds(
    GaussianRational,
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
)
small_series = st.builds(
    QSeries,
    st.lists(scalars, min_size=1, max_size=8),
    st.just(8),
)


class TestGaussianRational:
    def test_basic_arithmetic(self):
        i = GaussianRational(0, 1)
        assert i * i == -1
        assert (1 + i) * (1 - i) == 2
        assert GaussianRational(Fraction(1, 2), Fraction(1, 2)).abs2() == Fraction(1, 2)

    def test_conjugation_involution(self):
        x = GaussianRational(Fraction(3, 4), Fraction(-2, 7))
        assert x.conjugate().conjugate() == x
        assert x.abs2() >= 0

    def test_inverse(self):
        x = GaussianRational(1, -1)
        assert x.inverse() == GaussianRational(Fraction(1, 2), Fraction(1, 2))
        assert x * x.inverse() == 1
        with pytest.raises(ZeroDivisionError):
            GaussianRational(0).inverse()

    def test_division(self):
        assert GaussianRational(2) / GaussianRational(0, 2) == GaussianRational(0, -1)


class TestQSeriesBasics:
    def test_addition_examples(self):
        one_plus = QSeries([1, 1], 5)
        one_minus = QSeries([1, -1], 5)
        assert (one_plus + one_minus) == QSeries([2], 5)
        a = QSeries([3, Fraction(1, 2)], 6)
        assert a + QSeries.zeros(6) == a
        s = QSeries([1, -2, 0, 0, 2], 5) + QSeries([0, 2], 5)
        assert s == QSeries([1, 0, 0, 0, 2], 5)

    def test_mul_examples(self):
        assert QSeries([1, 1], 6) * QSeries([1, -1], 6) == QSeries([1, 0, -1], 6)
        geom = QSeries([1] * 20, 20)
        assert QSeries([1, -1], 20) * geom == QSeries.one(20)

    def test_order_is_min_of_operands(self):
        a = QSeries([1, 2, 3], 3)
        b = QSeries([1], 7)
        assert (a + b).order == 3
        assert (a * b).order == 3

    @pytest.mark.parametrize("order", [0, -2])
    @pytest.mark.parametrize("build", [
        QSeries.zeros, QSeries.one,
        lambda order: QSeries.constant(3, order),
        lambda order: QSeries.monomial(3, 0, order),
    ], ids=["zeros", "one", "constant", "monomial"])
    def test_named_constructors_reject_orders_below_one(self, build, order):
        with pytest.raises(ValueError, match="order must be positive"):
            build(order)

    def test_coeff_bounds(self):
        a = QSeries([1, -2], 2)
        assert a.coeff(1) == -2
        with pytest.raises(IndexBeyondOrder):
            a.coeff(2)
        with pytest.raises(IndexBeyondOrder):
            series_eq(a, a, 3)

    def test_series_eq_reports_first_mismatch(self):
        a = QSeries([1, 2, 3, 4], 4)
        b = QSeries([1, 2, 5, 4], 4)
        assert series_eq(a, a, 4) is None
        assert series_eq(a, b, 4) == 2

    @given(small_series)
    def test_integral_coefficients_read_each_coefficient(self, a):
        assert a.integral_coefficients() == [is_integer(c)
                                             for c in a.coeffs()]

    def test_shift(self):
        a = QSeries([1, 2], 4)
        up = a.shift(2)
        assert up.order == 6 and up.coeff(2) == 1 and up.coeff(3) == 2
        assert up.shift(-2) == a
        with pytest.raises(ValueError):
            QSeries([1], 3).shift(-1)


class TestInvert:
    def test_geometric(self):
        inv = QSeries([1, -1], 12).invert()
        assert all(inv.coeff(n) == 1 for n in range(12))

    def test_constant(self):
        assert QSeries([2], 4).invert() == QSeries([Fraction(1, 2)], 4)

    def test_gaussian_constant_term(self):
        # constant term 1 - i inverts to (1 + i)/2
        s = QSeries([GaussianRational(1, -1), 5], 16)
        inv = s.invert()
        assert inv.coeff(0) == GaussianRational(Fraction(1, 2), Fraction(1, 2))
        assert (s * inv) == QSeries.one(16)

    def test_zero_constant_rejected(self):
        with pytest.raises(NonUnitConstantTerm):
            QSeries([0, 1], 4).invert()


def newton_reference(a: QSeries) -> QSeries:
    """The inverse by the full-length Newton step ``x <- x*(2 - a*x)``."""
    x = QSeries.constant(a.coeff(0).inverse(), 1)
    k = 1
    while k < a.order:
        k = min(2 * k, a.order)
        x = x._pad(k)
        x = x * (QSeries.constant(2, k) - a.truncate(k) * x)
    return x


def strided(coeffs, g, order):
    """The series sum coeffs[j] * q**(g*j) below q**order."""
    out = [0] * order
    for j, c in enumerate(coeffs[:len(range(0, order, g))]):
        out[g * j] = c
    return QSeries(out, order)


class TestNewtonHalfLength:
    @staticmethod
    def _cases(order):
        rng = random.Random(order)
        top = 1 << 200
        gauss = [GaussianRational(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                                  rng.randint(-4, 4)) for _ in range(order)]
        gauss[0] = GaussianRational(Fraction(2, 3), -1)
        wide = [rng.randrange(-top, top) for _ in range(order)]
        wide[0] = -1
        steps = [Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                 for _ in range(order)]
        steps[0] = 3
        return {"gaussian": QSeries(gauss, order),
                "200-bit unit": QSeries(wide, order),
                "q^2": strided(steps, 2, order),
                "q^3": strided(steps, 3, order)}

    @pytest.mark.parametrize("order", range(1, 71))
    def test_round_trip_at_every_order(self, order):
        one = QSeries.one(order)
        for name, a in self._cases(order).items():
            inv = a.invert()
            assert a * inv == one, name
            assert inv * a == one, name

    @pytest.mark.parametrize("order", [1, 2, 3, 5, 16, 17, 33, 64, 70])
    def test_same_series_as_the_full_length_step(self, order):
        for name, a in self._cases(order).items():
            assert a.invert() == newton_reference(a), name

    def test_inverse_of_a_q2_series_stays_in_q2(self):
        a = strided([1, -1], 2, 41)  # 1 - q^2
        assert a.invert() == strided([1] * 21, 2, 41)

    @pytest.mark.parametrize("order", [1, 2, 9])
    def test_zero_constant_term_still_rejected(self, order):
        with pytest.raises(NonUnitConstantTerm):
            QSeries.zeros(order).invert()
        with pytest.raises(NonUnitConstantTerm):
            strided([0, 5, 1], 2, order).invert()


# orders 1 to 9 (1, 2, 3 and the odd ones among them), so dividend and
# divisor come in unequal orders; the Fraction parts keep most
# denominators above 1.  One strategy per order, built once: a ``flatmap``
# would build a fresh strategy for every example.
any_order_series = st.one_of([
    st.builds(QSeries, st.lists(scalars, min_size=1, max_size=order),
              st.just(order))
    for order in range(1, 10)])
divisors = any_order_series.filter(lambda s: bool(s.coeff(0)))


class TestDivision:
    @settings(max_examples=300, deadline=None)
    @given(any_order_series, divisors)
    @example(QSeries([Fraction(1, 2)], 1), QSeries([Fraction(2, 3), 1], 2))
    @example(QSeries([1, Fraction(1, 3), 2], 3), QSeries([3, -1, 1], 9))
    def test_quotient_is_the_product_with_the_inverse(self, a, b):
        n = min(a.order, b.order)
        q = a / b
        assert q.order == n
        assert q == a * b.invert()
        assert q * b == a.truncate(n)

    @pytest.mark.parametrize("order", range(1, 20))
    def test_every_small_order(self, order):
        # order 1 is the quotient modulo q**h itself, h = ceil(1/2) = 1
        for name, b in TestNewtonHalfLength._cases(order).items():
            a = TestNewtonHalfLength._cases(order + 1)["gaussian"]
            assert a / b == a * b.invert(), name
            assert (a / b) * b == a.truncate(order), name

    @pytest.mark.parametrize("g", [2, 3])
    @pytest.mark.parametrize("order", [2, 7, 40, 301])
    def test_divisors_in_q_g(self, g, order):
        rng = random.Random(g * order)
        b = strided([1] + [rng.randint(-9, 9) for _ in range(order)], g,
                    order)
        dense = QSeries([Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                         for _ in range(order)], order)
        in_q_g = strided([rng.randint(-9, 9) for _ in range(order)], g,
                         order)
        for a in (dense, in_q_g):
            assert a / b == a * b.invert()
            assert (a / b) * b == a
        # a quotient of two series in q**g is one too
        q = in_q_g / b
        assert not any(q.coeff(j) for j in range(order) if j % g)

    def test_operands_of_unequal_order(self):
        a = QSeries([1, 2, 3, 4, 5, 6, 7], 7)
        b = QSeries([1, -1], 30)
        assert (a / b).order == 7 and (b / a).order == 7
        # a / (1 - q) is the running sum of a
        assert a / b == QSeries([1, 3, 6, 10, 15, 21, 28], 7)
        assert (b / a) * a == b.truncate(7)

    @pytest.mark.parametrize("order", [1, 2, 3, 9])
    def test_zero_constant_term_rejected(self, order):
        a = QSeries([1, 2], 12)
        for b in (QSeries.zeros(order), strided([0, 5, 1], 2, order),
                  QSeries.monomial(3, 1, order)):
            with pytest.raises(NonUnitConstantTerm):
                a / b


class TestPochhammer:
    def test_euler_pentagonal(self):
        p = pochhammer_inf(1, 1, 1, 13)
        expected = {0: 1, 1: -1, 2: -1, 5: 1, 7: 1, 12: -1}
        assert all(p.coeff(n) == expected.get(n, 0) for n in range(13))

    def test_minus_one_front_factor(self):
        lhs = pochhammer_inf(-1, 0, 1, 40)
        rhs = pochhammer_inf(-1, 1, 1, 40) * 2
        assert series_eq(lhs, rhs, 40) is None

    def test_vanishing(self):
        assert pochhammer_inf(1, 0, 1, 10).is_zero()

    def test_truncation_consistency(self):
        full = pochhammer_inf(-1, 1, 2, 50)
        assert full.truncate(20) == pochhammer_inf(-1, 1, 2, 20)

    def test_euler_product_rearrangement(self):
        # (q;q)(−q;q) = (q²;q²), and again one level up
        assert series_eq(pochhammer_inf(1, 1, 1, 60) * pochhammer_inf(-1, 1, 1, 60),
                         pochhammer_inf(1, 2, 2, 60), 60) is None
        assert series_eq(pochhammer_inf(1, 2, 2, 60) * pochhammer_inf(-1, 2, 2, 60),
                         pochhammer_inf(1, 4, 4, 60), 60) is None

    def test_gaussian_unit(self):
        # (i; q²) has constant term 1 - i
        p = pochhammer_inf(GaussianRational(0, 1), 0, 2, 8)
        assert p.coeff(0) == GaussianRational(1, -1)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            pochhammer_inf(1, -1, 1, 4)
        with pytest.raises(ValueError):
            pochhammer_inf(1, 1, 0, 4)


def naive_pochhammer(zeta, offset, modulus, order):
    """``prod (1 - zeta*q**e)`` as a product of QSeries factors."""
    out = QSeries.one(order)
    for e in range(offset, order, modulus):
        out = out * (QSeries.one(order) - QSeries.monomial(zeta, e, order))
    return out


def loop_pochhammer(zeta, offset, modulus, order):
    """``pochhammer_inf`` through the big-integer loop alone."""
    if offset:
        return _factors_loop(zeta, offset, modulus, order)
    return _factors_loop(zeta, modulus, modulus, order) * (1 - zeta)


UNITS = (ONE, I_UNIT, MINUS_ONE, MINUS_I)  # i**u at index u


def lane_pochhammer(zeta, offset, modulus, order):
    """``pochhammer_inf`` through the lane alone, past the product store."""
    unit = UNITS.index(zeta)
    if offset:
        return _factors_lane(unit, offset, modulus, order)
    return _factors_lane(unit, modulus, modulus, order) * (1 - zeta)


def is_strong_probable_prime(n, bases=(2, 3, 5, 7, 11, 13, 17, 19, 23, 29,
                                       31, 37, 41, 43, 47, 53)):
    """Miller-Rabin to the first sixteen prime bases."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        if all(pow(x, 2 ** r, n) != n - 1 for r in range(1, s)):
            return False
    return True


def distinct_partition_numbers(n_max):
    """q(0..n_max), the partitions into distinct parts, by the recurrence
    q_k(n) = q_(k-1)(n) + q_(k-1)(n - k) over the largest allowed part k."""
    q = [1] + [0] * n_max
    for k in range(1, n_max + 1):
        q[k:] = [a + b for a, b in zip(q[k:], q)]
    return q


class TestMultiModularLane:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(UNITS),
           st.integers(0, 5), st.integers(1, 5), st.integers(1, 400))
    def test_lane_matches_general_loop(self, zeta, offset, modulus, order):
        assert (lane_pochhammer(zeta, offset, modulus, order)
                == loop_pochhammer(zeta, offset, modulus, order))

    def test_coefficients_beyond_int64(self):
        order = 1500
        lane = pochhammer_inf(-1, 1, 1, order)
        assert lane == loop_pochhammer(MINUS_ONE, 1, 1, order)
        bits = max(abs(x) for x in lane._re).bit_length()
        assert 63 < bits <= _partition_bound_bits(order - 1)

    @pytest.mark.parametrize("order", [1, 2, 300, 4000, 20000])
    def test_moduli_are_large_primes_covering_the_bound(self, order):
        bits = _partition_bound_bits(order - 1)
        moduli = _lane_moduli(bits)
        assert len(set(moduli)) == len(moduli)
        for p in moduli:
            assert 2 ** 61 < p < 2 ** 62
            assert is_strong_probable_prime(p)
        assert math.prod(moduli) > 2 ** (bits + 2)
        assert moduli[0] == _lane_prime(0) == 2 ** 62 - 57

    def test_partition_bound(self):
        q = distinct_partition_numbers(3000)
        assert q[:12] == [1, 1, 1, 2, 2, 3, 4, 5, 6, 8, 10, 12]
        spare = [_partition_bound_bits(n) - q[n].bit_length()
                 for n in range(3001)]
        # q(0) = 1 against 3 bits; every n >= 1 keeps 4 bits in hand
        assert spare[0] == 2 and min(spare[1:]) >= 4

    @pytest.mark.parametrize("zeta", [2, Fraction(1, 2), GaussianRational(1, 1)])
    @pytest.mark.parametrize("offset,modulus", [(0, 1), (1, 1), (3, 2)])
    def test_non_unit_zeta_falls_back(self, zeta, offset, modulus):
        order = 24
        assert (pochhammer_inf(zeta, offset, modulus, order)
                == naive_pochhammer(zeta, offset, modulus, order))


def tail_levels(offset, modulus, order):
    """How many levels of the lane's tail start below ``q**order``: level i
    starts at ``i t + modulus i(i-1)/2``, t the tail start."""
    t = series._tail_start(offset, modulus, order)
    i = 0
    while (i + 1) * t + modulus * (i + 1) * i // 2 < order:
        i += 1
    return i


def first_orders(offset, modulus):
    """The first order below 700 of each tail shape that occurs: the tail
    starting at the first exponent ("first"), after exactly one factor
    ("one"), and with exactly 1, 2 and 3 levels below ``q**order``."""
    orders = {}
    for order in range(1, 700):
        t = series._tail_start(offset, modulus, order)
        shapes = [tail_levels(offset, modulus, order)]
        if t < order:
            shapes.append({offset: "first", offset + modulus: "one"}.get(t))
        for shape in shapes:
            if shape in ("first", "one", 1, 2, 3):
                orders.setdefault(shape, order)
    return orders


def half_start(e, modulus, order):
    """A tail start at ``ceil(order/2)``, where the tail has one level: the
    lane's older upper-half scan."""
    return -(-order // 2)


class TestUpperHalfScan:
    """The lane over small orders and at 1500, with its tail at the rule's
    start and, patched, at ``ceil(order/2)``, where the tail is one stride
    prefix-sum scan; each case is pinned to the big-integer loop."""

    @pytest.mark.parametrize("unit", range(4))
    def test_lane_equals_loop_over_small_orders(self, unit):
        zeta = UNITS[unit]
        for offset in range(1, 8):
            for modulus in range(1, 8):
                # below q**80 every order is a prefix of the loop product
                ref = _factors_loop(zeta, offset, modulus, 80)
                for order in range(1, 81):
                    assert (_factors_lane(unit, offset, modulus, order)
                            == ref.truncate(order)), (offset, modulus, order)
                for order in (127, 128, 257):
                    assert (_factors_lane(unit, offset, modulus, order)
                            == _factors_loop(zeta, offset, modulus, order)), (
                                offset, modulus, order)

    @pytest.mark.parametrize("unit", range(4))
    @pytest.mark.parametrize("offset,modulus,order,below", [
        (5, 1, 9, 0), (40, 3, 80, 0), (64, 7, 128, 0), (13, 2, 25, 0),
        (79, 1, 80, 0), (39, 1, 80, 1), (30, 11, 80, 1), (63, 1, 127, 1),
        (12, 2, 25, 1)])
    def test_scan_alone_and_after_one_factor(self, monkeypatch, unit, offset,
                                             modulus, order, below):
        # below = 0: the whole product is the scan; below = 1: one slice
        # update precedes it
        monkeypatch.setattr(series, "_tail_start", half_start)
        assert len(range(offset, half_start(offset, modulus, order),
                         modulus)) == below
        assert (_factors_lane(unit, offset, modulus, order)
                == _factors_loop(UNITS[unit], offset, modulus, order))

    @pytest.mark.parametrize("zeta,offset,modulus", [(MINUS_ONE, 1, 1),
                                                     (I_UNIT, 1, 3)])
    def test_lane_equals_loop_at_1500(self, zeta, offset, modulus):
        assert (_factors_lane(UNITS.index(zeta), offset, modulus, 1500)
                == _factors_loop(zeta, offset, modulus, 1500))

    def test_lane_peak_stays_below_its_share_of_series_bytes(self):
        _factors_lane(1, 1, 1, 50)  # moduli and primes found outside the trace
        tracemalloc.start()
        try:
            _factors_lane(1, 1, 1, 4000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < series._lane_bytes(4000) < series.series_bytes(4000)


class TestTail:
    """The lane applies factors one at a time below the tail start and the
    rest through the tail's levels, whatever the start; each case is pinned
    to the big-integer loop."""

    @pytest.mark.parametrize("unit", range(4))
    def test_lane_equals_loop_at_each_tail_shape(self, unit):
        zeta = UNITS[unit]
        pairs = {}
        for offset in range(1, 8):
            for modulus in range(1, 8):
                orders = first_orders(offset, modulus)
                assert {1, 2, 3} <= set(orders), (offset, modulus)
                ref = _factors_loop(zeta, offset, modulus,
                                    max(orders.values()))
                for shape, order in orders.items():
                    assert (_factors_lane(unit, offset, modulus, order)
                            == ref.truncate(order)), (shape, offset,
                                                      modulus, order)
                    pairs[shape] = pairs.get(shape, 0) + 1
        # a large modulus puts its second exponent past the start at every
        # order, so the first two shapes occur for some pairs only
        assert pairs["first"] and pairs["one"]

    @pytest.mark.parametrize("unit", range(4))
    @pytest.mark.parametrize("start", ["first exponent", "half", "order"])
    def test_product_does_not_depend_on_the_start(self, monkeypatch, unit,
                                                  start):
        pick = {"first exponent": lambda e, modulus, order: e,
                "half": half_start,
                "order": lambda e, modulus, order: order}[start]
        monkeypatch.setattr(series, "_tail_start", pick)
        zeta = UNITS[unit]
        for offset in range(1, 8):
            for modulus in range(1, 8):
                ref = _factors_loop(zeta, offset, modulus, 130)
                for order in (*range(1, 41), 97, 130):
                    assert (_factors_lane(unit, offset, modulus, order)
                            == ref.truncate(order)), (offset, modulus, order)

    @pytest.mark.parametrize("zeta,offset,modulus", [(MINUS_ONE, 1, 2),
                                                     (I_UNIT, 1, 3)])
    def test_lane_equals_loop_at_4000(self, zeta, offset, modulus):
        assert (_factors_lane(UNITS.index(zeta), offset, modulus, 4000)
                == _factors_loop(zeta, offset, modulus, 4000))


@pytest.fixture
def empty_store():
    clear_product_store()
    yield series._products
    clear_product_store()


class TestProductStore:
    @pytest.mark.parametrize("unit", range(4))
    def test_reused_keys_match_lane_and_loop(self, empty_store, unit):
        # every key with g = gcd(e, m) > 1 is served by substitution from
        # (e/g, m/g), built first at 600 and then read by prefix below it
        zeta = UNITS[unit]
        for modulus in range(2, 9):
            for e in range(1, modulus + 1):
                g = math.gcd(e, modulus)
                if g == 1:
                    continue
                empty_store.clear()
                for order in (600, 599, 61, 2, 1):
                    stored = pochhammer_inf(zeta, e, modulus, order)
                    assert stored == _factors_lane(unit, e, modulus, order)
                    assert stored == _factors_loop(zeta, e, modulus, order)
                key = (unit, e // g, modulus // g)
                assert list(empty_store) == [key]
                assert empty_store[key].order == -(-600 // g)

    def test_longer_request_rebuilds_the_key(self, empty_store,
                                             monkeypatch):
        builds = []
        real = series._factors_lane
        monkeypatch.setattr(series, "_factors_lane",
                            lambda *key: builds.append(key) or real(*key))
        for offset, order in ((1, 50), (2, 100), (2, 101), (1, 40), (3, 150)):
            assert (pochhammer_inf(-1, offset, offset, order)
                    == _factors_loop(MINUS_ONE, offset, offset, order))
        # (-q^2; q^2) below q^100 is (-q; q) below q^50 with q -> q^2, a hit;
        # below q^101 it needs (-q; q) below q^51, a rebuild; the last two
        # are prefixes of that
        assert builds == [(2, 1, 1, 50), (2, 1, 1, 51)]

    @pytest.mark.parametrize("offset,modulus", [(1, 2), (2, 4)])
    def test_calls_return_fresh_series(self, empty_store, offset, modulus):
        first = pochhammer_inf(I_UNIT, offset, modulus, 80)
        second = pochhammer_inf(I_UNIT, offset, modulus, 80)
        assert first == second and first is not second
        assert first._re is not second._re and first._im is not second._im
        first._re[2] += 7
        first._im[2] += 7
        second._re[:] = [0] * 80
        assert (pochhammer_inf(I_UNIT, offset, modulus, 80)
                == _factors_loop(I_UNIT, offset, modulus, 80))

    def test_store_keeps_its_limit_and_clears(self, empty_store,
                                              monkeypatch):
        monkeypatch.setattr(series, "PRODUCT_STORE_LIMIT", 3)
        for modulus in range(1, 7):
            pochhammer_inf(-1, 1, modulus, 30)
            assert len(empty_store) == min(modulus, 3)
        # the least recently used keys went first
        assert list(empty_store) == [(2, 1, 4), (2, 1, 5), (2, 1, 6)]
        pochhammer_inf(-1, 2, 8, 30)  # a hit on (2, 1, 4) moves it last
        assert list(empty_store) == [(2, 1, 5), (2, 1, 6), (2, 1, 4)]
        clear_product_store()
        assert not empty_store


class TestRingAxioms:
    @settings(max_examples=60, deadline=None)
    @given(small_series, small_series, small_series)
    def test_mul_associative_and_distributive(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=60, deadline=None)
    @given(small_series, small_series)
    def test_commutativity(self, a, b):
        assert a * b == b * a
        assert a + b == b + a

    @settings(max_examples=40, deadline=None)
    @given(small_series, small_series)
    def test_mul_matches_naive_reference(self, a, b):
        assert a * b == naive_mul(a, b)

    @settings(max_examples=30, deadline=None)
    @given(small_series)
    def test_invert_roundtrip(self, a):
        if not a.coeff(0):
            return
        assert a * a.invert() == QSeries.one(a.order)
        assert a.invert() * a == QSeries.one(a.order)


def test_mul_reference_at_order_64():
    import random

    rng = random.Random(7)
    a = QSeries([GaussianRational(rng.randint(-9, 9), rng.randint(-3, 3))
                 for _ in range(64)], 64)
    b = QSeries([GaussianRational(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
                 for _ in range(64)], 64)
    assert a * b == naive_mul(a, b)


def test_kronecker_path_matches_reference():
    import random

    rng = random.Random(11)
    # dense enough to route through the packed big-integer multiply
    a = QSeries([rng.randint(-50, 50) for _ in range(300)], 300)
    b = QSeries([rng.randint(-50, 50) for _ in range(300)], 300)
    prod = a * b
    spot = [0, 1, 17, 123, 299]
    for n in spot:
        acc = sum(a.coeff(i).re * b.coeff(n - i).re for i in range(n + 1))
        assert prod.coeff(n) == GaussianRational(acc)


def _spy(monkeypatch, name):
    """The list of n that each later call of ``series.<name>`` appends to,
    n its third argument."""
    calls = []
    real = getattr(series, name)

    def spy(u, v, n, *rest):
        calls.append(n)
        return real(u, v, n, *rest)

    monkeypatch.setattr(series, name, spy)
    return calls


def test_decimal_path_matches_reference(monkeypatch):
    # above the crossover, so every product takes the decimal radix
    rng = random.Random(13)
    order = 1000
    top = 1 << 64
    a = QSeries([rng.randrange(-top, top) for _ in range(order)], order)
    b = QSeries([GaussianRational(rng.randrange(-top, top),
                                  rng.randrange(-top, top))
                 for _ in range(order)], order)
    calls = _spy(monkeypatch, "_decimal_columns")
    prod = a * b
    assert calls == [order, order]
    assert prod._den == 1
    assert prod._re == _conv_school(a._re, b._re, order)
    assert prod._im == _conv_school(a._re, b._im, order)


@st.composite
def conv_cases(draw):
    """(u, v, n) for _conv_packed: signed coefficients with zeros, every
    coefficient at the offset bound, or operands that end in their most
    negative coefficient, so the top columns of the offset product are zero
    and its decimal string is shorter than n columns."""
    top = (1 << draw(st.sampled_from([1, 4, 30, 64, 130]))) - 1
    kind = draw(st.sampled_from(["signed", "bound", "sunk"]))
    if kind == "bound":
        coeff = st.sampled_from([-top, top])
    else:
        coeff = st.one_of(st.just(0), st.integers(-top, top))
    u = draw(st.lists(coeff, min_size=1, max_size=12))
    v = draw(st.lists(coeff, min_size=1, max_size=12))
    if kind != "sunk":
        return u, v, draw(st.integers(1, 2 * max(len(u), len(v)) + 2))
    n = draw(st.integers(1, min(len(u), len(v))))
    for vals in (u, v):
        k = draw(st.integers(0, n - 1))
        vals[k:n] = [-top] * (n - k)
    return u, v, n


@settings(max_examples=300, deadline=None)
@given(conv_cases())
@example(([1, -1, -1, -1], [1, -1, -1, -1], 4))
@example(([0, 0], [5, -3], 3))
@example(([7], [-7], 1))
def test_conv_packed_matches_school(case):
    u, v, n = case
    ref = _conv_school(u, v, n)
    # every case at or past the decimal threshold, then none
    for digits in (0, 10**9):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(series, "DECIMAL_MIN_DIGITS", digits)
            assert _conv_packed(u, v, n) == ref, digits


def _dense_operands(n, bits, seed):
    rng = random.Random(seed)
    top = 1 << bits
    return ([rng.randrange(-top, top) for _ in range(n)],
            [rng.randrange(-top, top) for _ in range(n)])


def _decimal_width(u, v, n):
    """Decimal digits of the packed product's column bound."""
    return len(str(4 * max(map(abs, u)) * max(map(abs, v)) * n))


def test_dense_products_up_to_64_terms_are_packed(monkeypatch):
    calls = _spy(monkeypatch, "_conv_packed")
    for n in range(33, 65):
        for bits in (4, 60, 200):
            u, v = _dense_operands(n, bits, n * bits)
            u = [x or 1 for x in u]
            v = [x or 1 for x in v]
            assert _conv(u, v, n) == _conv_school(u, v, n), (n, bits)
    assert calls == [n for n in range(33, 65) for _ in range(3)]


def test_decimal_path_leaves_the_thread_context_alone(monkeypatch):
    u, v = _dense_operands(200, 60, 17)
    monkeypatch.setattr(series, "DECIMAL_MIN_DIGITS", 0)
    calls = _spy(monkeypatch, "_decimal_columns")
    with decimal.localcontext() as ctx:
        # a thread context that would round or raise on any real use
        ctx.prec = 1
        ctx.Emax = 1
        ctx.Emin = -1
        for signal in ctx.traps:
            ctx.traps[signal] = True
        ctx.clear_flags()
        before = repr(ctx)
        out = _conv_packed(u, v, 200)
        assert decimal.getcontext() is ctx
        assert repr(ctx) == before
    assert calls == [200]
    assert out == _conv_school(u, v, 200)


def test_decimal_path_raises_rather_than_rounds(monkeypatch):
    u, v = _dense_operands(200, 60, 19)
    width = _decimal_width(u, v, 200)
    monkeypatch.setattr(series, "DECIMAL_MIN_DIGITS", 0)
    calls = _spy(monkeypatch, "_decimal_columns")
    # the packed operands fit, their product does not
    monkeypatch.setattr(series._DECIMAL, "prec", 200 * width)
    with pytest.raises((decimal.Inexact, decimal.Rounded)):
        _conv_packed(u, v, 200)
    assert calls == [200]


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int/str digit limit")
def test_columns_past_the_digit_limit_take_the_kronecker_path(monkeypatch):
    n = 100
    u, v = _dense_operands(n, 1100, 23)
    ref = _conv_school(u, v, n)
    mu = max(map(abs, u))
    mv = max(map(abs, v))
    width = _decimal_width(u, v, n)
    calls = _spy(monkeypatch, "_byte_columns")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(ValueError):
            _decimal_columns(u, v, n, mu, mv, width)
        out = _conv(u, v, n)
    finally:
        sys.set_int_max_str_digits(old)
    assert width > 640 and n * width >= series.DECIMAL_MIN_DIGITS
    assert calls == [n]
    assert out == ref


def _strided_ints(rng, g, n, bits, dense_from=0):
    """An int list of length n, nonzero only at multiples of g (and at every
    index from ``dense_from`` on, if that is positive)."""
    top = 1 << bits
    out = [0] * n
    for j in range(n):
        if j % g == 0 or 0 < dense_from <= j:
            out[j] = rng.randrange(-top, top) or 1
    return out


class TestStride:
    @pytest.mark.parametrize("g", [2, 3, 4])
    @pytest.mark.parametrize("terms", [5, 50, 300])
    def test_series_in_q_g_match_school(self, g, terms):
        rng = random.Random(g * 1000 + terms)
        for n in (g * terms, g * terms - 1, g * terms - g + 1):
            u = _strided_ints(rng, g, n, 40)
            v = _strided_ints(rng, g, n - rng.randrange(g), 70)
            assert _conv(u, v, n) == _conv_school(u, v, n), n

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_one_operand_dense_one_in_q_g(self, g):
        rng = random.Random(g)
        n = 61 * g + 1
        u = _strided_ints(rng, g, n, 30)
        v = _strided_ints(rng, 1, n, 30)
        assert _conv(u, v, n) == _conv_school(u, v, n)
        assert _conv(v, u, n) == _conv_school(v, u, n)
        # a dense tail past a q^g head is not in q^g either
        w = _strided_ints(rng, g, n, 30, dense_from=n - 1)
        assert _conv(u, w, n) == _conv_school(u, w, n)

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_constant_times_q_g(self, g):
        rng = random.Random(5 * g)
        n = 400 * g - 1
        u = _strided_ints(rng, g, n, 50)
        assert _conv([-7], u, n) == [-7 * x for x in u]
        assert _conv(u, [3, 0, 0], n) == [3 * x for x in u]

    def test_two_constants_are_not_compressed(self, monkeypatch):
        # the gcd of the exponents {0} is 0: there is no q**g to compress
        spread = _spy(monkeypatch, "_spread")
        for n in range(1, 6):
            assert _conv([6], [-7, 0], n) == [-42] + [0] * (n - 1)
        assert spread == []

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_complex_and_rational_series(self, g):
        rng = random.Random(17 * g)
        n = 23 * g - 1
        a = strided([GaussianRational(Fraction(rng.randint(-9, 9),
                                               rng.randint(1, 4)),
                                      rng.randint(-5, 5)) for _ in range(n)],
                    g, n)
        b = strided([Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                     for _ in range(n)], g, n)
        c = QSeries([GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
                     for _ in range(n)], n)
        for x, y in ((a, b), (a, a), (b, b), (a, c), (c, b)):
            assert x * y == naive_mul(x, y)

    def test_q2_product_above_the_crossover_runs_compressed(self,
                                                            monkeypatch):
        rng = random.Random(29)
        n = 1999
        a = QSeries(_strided_ints(rng, 2, n, 64), n)
        b_re = _strided_ints(rng, 2, n, 64)
        b_im = _strided_ints(rng, 2, n, 64)
        b = QSeries([GaussianRational(x, y) for x, y in zip(b_re, b_im)], n)
        m = -(-n // 2)
        width = _decimal_width(a._re[::2], b_re[::2], m)
        assert m * width >= series.DECIMAL_MIN_DIGITS
        calls = _spy(monkeypatch, "_decimal_columns")
        prod = a * b
        assert calls == [m, m]
        assert prod._re == _conv_school(a._re, b_re, n)
        assert prod._im == _conv_school(a._re, b_im, n)


def _sparse_ints(rng, n, k, sizes, g):
    """An int list of length n with k nonzero terms at distinct multiples of
    g, 0 among them, each a magnitude from ``sizes`` with a random sign."""
    out = [0] * n
    for j in [0] + rng.sample(range(g, n, g), k - 1):
        out[j] = rng.choice(sizes) * rng.choice((1, -1))
    return out


class TestRowPath:
    SIZES = {"unit": (1,), "small": (1, 2)}

    @pytest.mark.parametrize("sizes", ["unit", "small"])
    @pytest.mark.parametrize("n, bits", [(1000, 2), (1000, 40), (1000, 130)])
    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_rows_match_school_on_both_sides_of_the_rule(self, monkeypatch,
                                                         sizes, n, bits, g):
        rng = random.Random(n * bits + g)
        m = -(-n // g)  # the length the paths see
        # in q**g and shorter than n
        dense = _strided_ints(rng, g, n - 5 * g, bits)
        rows = _spy(monkeypatch, "_conv_rows")
        packed = _spy(monkeypatch, "_conv_packed")
        # the most nonzero terms that still take the row path
        k = (series.ROW_TERMS_OVER_BITS
             + max(map(abs, dense)).bit_length())
        for terms in (k, k + 1):
            sparse = _sparse_ints(rng, n, terms, self.SIZES[sizes], g)
            assert _conv(sparse, dense, n) == _conv_school(sparse, dense, n)
            assert _conv(dense, sparse, n) == _conv_school(dense, sparse, n)
        assert rows == [m, m] and packed == [m, m]

    @pytest.mark.parametrize("n", [300, 301])
    def test_rows_take_at_most_half_the_length(self, monkeypatch, n):
        rng = random.Random(n)
        dense = _strided_ints(rng, 1, n, 400)
        rows = _spy(monkeypatch, "_conv_rows")
        packed = _spy(monkeypatch, "_conv_packed")
        for terms in (n // 2, n // 2 + 1):
            sparse = _sparse_ints(rng, n, terms, (1, 2), 1)
            assert _conv(sparse, dense, n) == _conv_school(sparse, dense, n)
            assert _conv(dense, sparse, n) == _conv_school(dense, sparse, n)
        assert rows == [n, n] and packed == [n, n]

    @pytest.mark.parametrize("wide", [3, -3, 1 << 70])
    def test_a_sparse_coefficient_past_2_takes_the_packed_product(
            self, monkeypatch, wide):
        rng = random.Random(wide % 97)
        n, bits = 1000, 40
        dense = _strided_ints(rng, 1, n, bits)
        sparse = _sparse_ints(rng, n, 20, (1, 2), 1)
        sparse[0] = wide
        rows = _spy(monkeypatch, "_conv_rows")
        packed = _spy(monkeypatch, "_conv_packed")
        assert _conv(sparse, dense, n) == _conv_school(sparse, dense, n)
        assert _conv(dense, sparse, n) == _conv_school(dense, sparse, n)
        assert rows == [] and packed == [n, n]

    def test_rows_scale_every_magnitude(self):
        rng = random.Random(5)
        n = 300
        dense = _strided_ints(rng, 1, n, 60)
        sparse = _sparse_ints(rng, n, 12, (1, 2, 3, 1 << 70), 1)
        nz = [(j, x) for j, x in enumerate(sparse) if x]
        assert series._conv_rows(nz, dense, n) == _conv_school(sparse,
                                                                dense, n)

    def test_rows_reach_q_n_past_a_short_dense_operand(self):
        # the last row starts at n - 1 and the dense operand has 3 terms
        n = 400
        sparse = [0] * n
        for j in range(0, n, 9):
            sparse[j] = -1
        sparse[n - 1] = 2
        dense = [1 << 90, -(1 << 90), 5]
        nz = [(j, x) for j, x in enumerate(sparse) if x]
        out = series._conv_rows(nz, dense, n)
        assert len(out) == n and out == _conv_school(sparse, dense, n)


# the sparse magnitudes of the limb rows: the two that ``_conv`` sends,
# one past them, both sides of 2**31, from which a row is converted rather
# than scaled, the first magnitude whose scaled limbs could pass int64, and
# magnitudes of a full limb and wider
ROW_MAGNITUDES = (1, 2, 3, (1 << 31) - 1, 1 << 31, (1 << 31) + 1,
                  (1 << 32) - 1, 1 << 70)


@st.composite
def row_cases(draw):
    """(sparse, dense, n) in q**g, g = 1, 2 or 3: a sparse operand of up to
    64 terms of the ``ROW_MAGNITUDES``, either sign, and a dense one of 1 to
    n coefficients of up to 400 bits, random or at the two's complement
    edges ±2**b and ±(2**b - 1), which fill or just overflow the top limb
    when 32 divides b or b + 1."""
    n = draw(st.integers(1, 600))
    g = draw(st.sampled_from([1, 2, 3]))
    bits = draw(st.integers(1, 400))
    rng = random.Random(draw(st.integers(0, 2**32)))
    top = 1 << bits
    if draw(st.booleans()):
        values = [0, top, -top, top - 1, 1 - top]
        pick = lambda: rng.choice(values)
    else:
        pick = lambda: rng.randrange(-top, top + 1)
    dense = [0] * draw(st.integers(1, n))
    for j in range(0, len(dense), g):
        dense[j] = pick()
    sparse = [0] * n
    slots = range(0, n, g)
    for j in rng.sample(slots, draw(st.integers(1, min(64, len(slots))))):
        sparse[j] = rng.choice(ROW_MAGNITUDES) * rng.choice((1, -1))
    return sparse, dense, n


class TestLimbRows:
    @settings(max_examples=200, deadline=None)
    @given(row_cases())
    @example(([1], [-(1 << 400)], 1))
    @example(([1, 0, -2], [(1 << 31) - 1, -(1 << 31), 1 << 32], 3))
    @example(([-1] * 8, [-(1 << 63), (1 << 64) - 1], 8))
    def test_rows_and_conv_match_school(self, case):
        sparse, dense, n = case
        ref = _conv_school(sparse, dense, n)
        nz = [(j, x) for j, x in enumerate(sparse) if x]
        assert series._conv_rows(nz, dense, n) == ref
        assert _conv(sparse, dense, n) == ref
        assert _conv(dense, sparse, n) == _conv_school(dense, sparse, n)

    def test_guard_is_the_most_rows_int64_holds(self):
        # k rows of limbs below 2**32 sum to limbs below k * (2**32 - 1), and
        # each carry is at most k: k * 2**32 must stay below 2**63
        limit = series.LIMB_ROWS_LIMIT
        assert (limit - 1) * (1 << 32) < 1 << 63 <= limit * (1 << 32)

    @pytest.mark.parametrize("limit", [1, 2, 7])
    def test_guard_at_the_boundary(self, monkeypatch, limit):
        # every limb of the dense operand at its extreme, so each row adds
        # the most a row can
        n = 20
        dense = [(1 << 64) - 1, -(1 << 63)] * (n // 2)
        monkeypatch.setattr(series, "LIMB_ROWS_LIMIT", limit)
        for k in (limit - 1, limit):
            sparse = [0] * n
            for j in range(k):
                sparse[j] = -2 if j % 2 else 1
            nz = [(j, x) for j, x in enumerate(sparse) if x]
            if k < limit:
                if nz:
                    assert (series._conv_rows(nz, dense, n)
                            == _conv_school(sparse, dense, n))
            else:
                with pytest.raises(OverflowError):
                    series._conv_rows(nz, dense, n)

    def test_rows_product_at_4000_fits_the_list_term(self):
        # a rows product at order 4000 with a dense operand as wide as any
        # of dkm's there: (q;q) times the 155-bit (-q;q); series_bytes
        # counts 16 spare lists of 4000 ints at the partition bound, and the
        # product's scratch takes fewer than 4
        n = 4000
        unit = pochhammer_inf(ONE, 1, 1, n)._re
        dense = pochhammer_inf(MINUS_ONE, 1, 1, n)._re
        nz = [(j, x) for j, x in enumerate(unit) if x]
        one_list = n * (8 + series._int_bytes(series._partition_bound_bits(
            n - 1)))
        tracemalloc.start()
        try:
            out = series._conv_rows(nz, dense, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert series._takes_rows(nz, dense, n)
        # (q;q) (-q;q) = (q^2;q^2)
        assert out == pochhammer_inf(ONE, 2, 2, n)._re
        assert peak < 4 * one_list


def _big_eta(r, n):
    """The recurrence of ``eta_quotient`` in Python ints, from the per-n
    divisor sum: the coefficients and each step's largest partial sum."""
    from qident.oracles import sigma

    s = [0] + [-sum(e * m * sigma(1, k // m) for m, e in r.items()
                    if k % m == 0) for k in range(1, n)]
    c, peaks = [1], [0]
    for k in range(1, n):
        terms = [s[j] * c[k - j] for j in range(1, k + 1)]
        peaks.append(max(map(abs, itertools.accumulate(terms))))
        c.append(sum(terms) // k)
    return c, peaks


# name: (the exponents r[m] of prod (q^m;q^m)^r[m], the same product on the
# lane below q**n): the signed and unsigned products, the four Jbar factors
# of the propositions suite (Jbar(0, m) is twice its quotient), (q;q)^3 and
# the triangular quotient
ETA_CASES = {
    "signed": (verify.SIGNED_ETA, T.product_side_series),
    "unsigned": (verify.UNSIGNED_ETA, T.rep_count_product_series),
    "jbar_4_8": ({4: -2, 8: 5, 16: -2}, lambda n: T.Jbar(4, 8, n)),
    "jbar_0_8": ({8: -1, 16: 2},
                 lambda n: T.Jbar(0, 8, n) * Fraction(1, 2)),
    "jbar_8_16": ({8: -2, 16: 5, 32: -2}, lambda n: T.Jbar(8, 16, n)),
    "jbar_0_16": ({16: -1, 32: 2},
                  lambda n: T.Jbar(0, 16, n) * Fraction(1, 2)),
    "euler_cubed": ({1: 3}, lambda n: T.Jm(1, n) ** 3),
    "triangular": ({1: -3, 2: 6}, lambda n: T.Jm(2, n) ** 6 / T.Jm(1, n) ** 3),
}


class TestEtaQuotient:
    @pytest.mark.parametrize("name", sorted(ETA_CASES))
    def test_equals_the_lane_below_2001(self, name):
        r, lane = ETA_CASES[name]
        eta = series.eta_quotient(r, 2001)
        assert eta.dtype == np.int64 and len(eta) == 2001
        assert series_eq(QSeries._raw(eta.tolist(), None, 1, 2001),
                         lane(2001), 2001) is None

    def test_small_cases(self):
        assert series.eta_quotient({}, 5).tolist() == [1, 0, 0, 0, 0]
        assert series.eta_quotient({1: 1, 7: 3}, 1).tolist() == [1]
        # Euler's pentagonal numbers, and the partitions
        assert series.eta_quotient({1: 1}, 8).tolist() == [
            1, -1, -1, 0, 0, 1, 0, 1]
        assert series.eta_quotient({1: -1}, 8).tolist() == [
            1, 1, 2, 3, 5, 7, 11, 15]
        # factors past the order contribute nothing
        assert series.eta_quotient({3: 4, 9: -5}, 3).tolist() == [1, 0, 0]
        with pytest.raises(ValueError):
            series.eta_quotient({1: 1}, 0)
        with pytest.raises(ValueError):
            series.eta_quotient({0: 1}, 5)

    def test_reads_a_given_divisor_sum_table(self):
        from qident import _kernels

        r = ETA_CASES["unsigned"][0]
        want = series.eta_quotient(r, 300)
        for maxn in (299, 500):
            got = series.eta_quotient(r, 300, _kernels.sigma_table(maxn, 1))
            assert got.tolist() == want.tolist()
        with pytest.raises(ValueError):
            series.eta_quotient(r, 300, _kernels.sigma_table(298, 1))

    @pytest.mark.parametrize("bump, raises", [(1, True), (7, False)])
    def test_a_wrong_divisor_sum_fails_the_division_or_the_value(
            self, monkeypatch, bump, raises):
        from qident import _kernels

        real = _kernels.sigma_table

        def patched(maxn, k=0):
            out = real(maxn, k)
            if k == 1:
                out[7] += bump
            return out

        monkeypatch.setattr(_kernels, "sigma_table", patched)
        r = ETA_CASES["signed"][0]
        if raises:
            # s(7) = -2 sigma(7) is off by 2, which 7 does not divide
            with pytest.raises(series.InexactRecurrence):
                series.eta_quotient(r, 100)
        else:
            # off by 14: c(7) is off by 2, and the divisions stay exact up
            # to q**20 and leave a remainder at q**21
            assert series.eta_quotient(r, 21)[7] == _big_eta(r, 8)[0][7] - 2
            with pytest.raises(series.InexactRecurrence):
                series.eta_quotient(r, 22)

    def test_overflow_guard_trips_before_the_sum_wraps(self):
        r = {1: -1000}  # s(k) = 1000 sigma(k)
        n = 2
        while True:
            try:
                got = series.eta_quotient(r, n)
            except OverflowError:
                break
            n += 1
        c, peaks = _big_eta(r, n + 1)
        # every value before the guard is exact, and a partial sum of the
        # next step or the one after passes 2**63
        assert got.tolist() == c[:n - 1]
        assert max(peaks[:n - 1]) < 1 << 63
        assert max(peaks[n - 1:n + 1]) >= 1 << 63

    def test_overflow_guard_where_the_weights_pass_int64(self):
        # |s(1)| + |s(2)| = 2**61 * (1 + 3) = 2**63, one past int64
        assert series.eta_quotient({1: 1 << 61}, 2).tolist() == [
            1, -(1 << 61)]
        with pytest.raises(OverflowError, match=r"at q\*\*2 "):
            series.eta_quotient({1: 1 << 61}, 3)

    def test_overflow_guard_on_the_divisor_sums(self):
        # |s(2)| = 2**62 * sigma(2) passes 2**63
        series.eta_quotient({1: 1 << 62}, 2)
        with pytest.raises(OverflowError):
            series.eta_quotient({1: 1 << 62}, 3)
