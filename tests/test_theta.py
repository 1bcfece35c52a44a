"""Theta functions: route agreement, shorthand identities, the main series."""

import pytest

from qident.series import GaussianRational, QSeries, series_eq
from qident.theta import (I_UNIT, J, Jbar, Jm, Monomial, NegativeQPower,
                          jtheta, mono, product_side_pochhammer,
                          product_side_series, product_side_theta,
                          rep_count_product_series, theta_j, theta_j_shifted,
                          theta_j_sum, verify_theta_suite)


def is_integer(c: GaussianRational) -> bool:
    """The reference predicate: c is a plain integer."""
    return not c.im and c.re.denominator == 1


def ints(series, upto):
    out = []
    for n in range(upto):
        c = series.coeff(n)
        assert is_integer(c), (n, c)
        out.append(int(c.re))
    return out


def test_monomial_validation():
    with pytest.raises(ValueError):
        Monomial(GaussianRational(2), 1)
    m = mono(I_UNIT, 3)
    assert m.power(2).unit == -1 and m.power(2).exponent == 6
    assert (m * m.inverse()).exponent == 0


def test_j_q_q2_sum_of_signed_squares():
    s = theta_j(jtheta(1, 1, 2), 10)
    assert ints(s, 10) == [1, -2, 0, 0, 2, 0, 0, 0, 0, -2]


def test_j_minus_one_constant_term():
    assert Jbar(0, 1, 6).coeff(0) == 2


def test_product_and_sum_routes_agree():
    for zeta, a, m in [(1, 1, 2), (I_UNIT, 1, 2), (-1, 0, 1), (1, 2, 5)]:
        spec = jtheta(zeta, a, m)
        assert series_eq(theta_j(spec, 200), theta_j_sum(spec, 200), 200) is None


def test_sum_route_support_mod_4():
    s = theta_j_sum(jtheta(-1, 4, 8), 80)
    for n in range(80):
        if n % 4:
            assert not s.coeff(n)


def test_normalization_at_exponent_equal_modulus():
    # j(zeta*q^m; q^m) = -zeta^{-1} j(zeta; q^m), net power zero
    lhs = theta_j(jtheta(I_UNIT, 2, 2), 50)
    rhs = theta_j(jtheta(I_UNIT, 0, 2), 50) * GaussianRational(0, 1)
    assert series_eq(lhs, rhs, 50) is None


def test_laurent_arguments_are_hard_errors():
    with pytest.raises(NegativeQPower):
        theta_j(jtheta(1, 3, 2), 20)
    with pytest.raises(NegativeQPower):
        theta_j(jtheta(-1, -1, 2), 20)
    # but an absorbing prefactor makes them legal
    s = theta_j_shifted(jtheta(1, 3, 2), 20, pre_unit=1, pre_exponent=1)
    assert series_eq(s, -theta_j(jtheta(1, 1, 2), 20), 20) is None


def test_zero_theta():
    assert theta_j(jtheta(1, 0, 3), 10).is_zero()
    assert theta_j(jtheta(1, 6, 3), 10).is_zero()


def test_shorthand_preconditions():
    with pytest.raises(ValueError):
        J(0, 2, 10)
    with pytest.raises(ValueError):
        Jbar(4, 4, 10)
    assert Jm(3, 10).coeff(0) == 1


def test_invert_j_i_q2_constant_term():
    from fractions import Fraction

    ji = theta_j(jtheta(I_UNIT, 0, 2), 30)
    assert ji.coeff(0) == GaussianRational(1, -1)
    inv = ji.invert()
    assert inv.coeff(0) == GaussianRational(Fraction(1, 2), Fraction(1, 2))


def test_lemma_identity_j_iq_q2():
    lhs = theta_j(jtheta(I_UNIT, 1, 2), 120)
    rhs = Jm(4, 120) ** 2 * Jm(8, 120).invert()
    assert series_eq(lhs, rhs, 120) is None


def test_product_side_spot_values():
    ps = product_side_series(12)
    assert ints(ps, 12)[:6] == [1, -2, -4, 8, 6, -8]
    assert ints(ps, 12)[7] == 0
    from qident.counting import rep_squares
    assert ints(ps, 12)[4] == rep_squares(3, 4) == 6


def test_product_side_routes_cross_check():
    a = product_side_pochhammer(150)
    b = product_side_theta(150)
    assert series_eq(a, b, 150) is None


def test_rep_count_series_matches_enumeration():
    from qident.counting import rep_count
    rc = rep_count_product_series(60)
    assert ints(rc, 60) == [rep_count(n) for n in range(60)]


def test_q4m_residue_extraction():
    order = 201
    ps = product_side_series(order)
    A, C, D = Jbar(4, 8, order), Jbar(8, 16, order), Jbar(0, 16, order)
    residue0 = A * C * C + (A * D * D).shift(4).truncate(order)
    for n in range(0, order, 4):
        assert ps.coeff(n) == residue0.coeff(n)
        assert ps.coeff(n).re >= 0


def test_full_suite_at_200():
    report = verify_theta_suite(200)
    assert report.passed, [c for c in report.checks if not c.passed]


def test_route_disagreement_raises(monkeypatch):
    import qident.theta as T
    from qident.theta import InternalCrossCheckFailure

    real = T.product_side_theta

    def skewed(order):
        return real(order) + QSeries.monomial(1, 3, order)

    monkeypatch.setattr(T, "product_side_theta", skewed)
    with pytest.raises(InternalCrossCheckFailure):
        T.product_side_series(20)


def test_route_disagreement_carries_locus(monkeypatch):
    import qident.theta as T
    from qident.theta import InternalCrossCheckFailure

    real = T.product_side_theta

    def skewed(order):
        return real(order) + QSeries.monomial(1, 7, order)

    monkeypatch.setattr(T, "product_side_theta", skewed)
    with pytest.raises(InternalCrossCheckFailure) as info:
        T.product_side_series(20)
    exc = info.value
    assert exc.locus == 7
    assert (exc.expected, exc.actual) == (GaussianRational(1),
                                          GaussianRational(0))


def test_corrupted_series_is_reported_with_locus():
    from qident.report import series_check

    good = theta_j(jtheta(1, 1, 2), 40)
    bad = good + QSeries.monomial(1, 9, 40)
    check = series_check("jq_q2_corrupted", good, bad, 40)
    assert not check.passed
    assert check.locus == 9
    assert check.name == "jq_q2_corrupted"


# ---------------------------------------------------------------------------
# the store of base theta products
# ---------------------------------------------------------------------------


@pytest.fixture
def empty_theta_store():
    from qident import theta
    from qident.series import clear_product_store

    clear_product_store()
    yield theta._bases
    clear_product_store()


def fresh_theta(spec, order, pre_unit=1, pre_exponent=0):
    """``theta_j_shifted`` built with the theta store empty before and
    after, so nothing is read from it."""
    from qident import theta

    saved = dict(theta._bases)
    theta._bases.clear()
    try:
        return theta_j_shifted(spec, order, pre_unit, pre_exponent)
    finally:
        theta._bases.clear()
        theta._bases.update(saved)


# specs at base and shifted arguments, every unit, a0 = 0 included
STORE_SPECS = [(1, 1, 2, 0), (I_UNIT, 1, 2, 0), (-1, 0, 3, 0), (-1, 5, 3, 4),
               (GaussianRational(0, -1), 3, 4, 0), (1, 7, 2, 9),
               (-1, -2, 3, 5)]


@pytest.mark.parametrize("zeta, a, m, pre", STORE_SPECS)
def test_theta_store_hit_equals_a_fresh_build_at_every_prefix(
        empty_theta_store, zeta, a, m, pre):
    spec = jtheta(zeta, a, m)
    top = 90
    longest = theta_j_shifted(spec, top, 1, pre)
    assert longest == fresh_theta(spec, top, 1, pre)
    (key,) = empty_theta_store
    stored = empty_theta_store[key]
    for order in range(1, top + 1):
        hit = theta_j_shifted(spec, order, 1, pre)
        assert hit == fresh_theta(spec, order, 1, pre), order
        # a hit neither rebuilds nor shortens the entry
        assert list(empty_theta_store) == [key]
        assert empty_theta_store[key] is stored


def test_theta_store_serves_fresh_copies(empty_theta_store):
    spec = jtheta(I_UNIT, 1, 2)
    first = theta_j(spec, 60)
    first._re[3] += 5
    second = theta_j(spec, 60)
    assert second == fresh_theta(spec, 60) and second._re is not first._re
    (stored,) = empty_theta_store.values()
    assert stored._re is not second._re


def test_theta_store_keeps_the_longest_build(empty_theta_store, monkeypatch):
    import qident.theta as T

    calls = []
    real = T.pochhammer_inf
    monkeypatch.setattr(T, "pochhammer_inf",
                        lambda *args: calls.append(args[-1]) or real(*args))
    spec = jtheta(-1, 1, 2)
    for order in (40, 30, 41, 12, 41):
        theta_j(spec, order)
    # three lane factors at 40, none for the prefix at 30, three at 41
    assert calls == [40] * 3 + [41] * 3
    (stored,) = empty_theta_store.values()
    assert stored.order == 41


def test_clear_product_store_empties_the_theta_store(empty_theta_store,
                                                     monkeypatch):
    import qident.theta as T
    from qident.series import clear_product_store

    spec = jtheta(1, 1, 3)
    clean = theta_j(spec, 50)
    assert empty_theta_store
    clear_product_store()
    assert not empty_theta_store
    real = T.pochhammer_inf
    # a factor patched after the clear is read by the next build
    monkeypatch.setattr(T, "pochhammer_inf",
                        lambda z, e, m, n: real(z, e, m, n)
                        + QSeries.monomial(1, 7, n))
    assert theta_j(spec, 50) != clean


def test_theta_store_keeps_its_limit(empty_theta_store, monkeypatch):
    from qident import series

    monkeypatch.setattr(series, "PRODUCT_STORE_LIMIT", 3)
    for m in range(2, 8):
        theta_j(jtheta(1, 1, m), 30)
        assert len(empty_theta_store) == min(m - 1, 3)
    # the least recently used keys went first; a hit moves its key last
    assert list(empty_theta_store) == [(0, 1, 5), (0, 1, 6), (0, 1, 7)]
    theta_j(jtheta(1, 1, 5), 20)
    assert list(empty_theta_store) == [(0, 1, 6), (0, 1, 7), (0, 1, 5)]


@pytest.mark.parametrize("zeta, a, m", [(1, 1, 3), (I_UNIT, 1, 2),
                                        (-1, 2, 5)])
def test_flip_law_with_one_corrupted_factor_still_fails(
        empty_theta_store, monkeypatch, zeta, a, m):
    # j(x) and j(q^m/x) are two keys: the corrupted build of j(x) is not
    # served for j(q^m/x), which is built from clean factors.  (A flip
    # spec such as (-1, 0, 3), whose two arguments the shift law
    # normalises to one base product, compares that product with itself
    # with or without the store.)
    import qident.theta as T

    real = T.pochhammer_inf
    calls = []

    def first_call_corrupted(z, e, mod, n):
        calls.append(n)
        out = real(z, e, mod, n)
        return out + QSeries.monomial(1, 5, n) if len(calls) == 1 else out

    monkeypatch.setattr(T, "pochhammer_inf", first_call_corrupted)
    zeta = GaussianRational(zeta) if isinstance(zeta, int) else zeta
    check = T._check_flip_law(zeta, a, m, 60)
    assert not check.passed and check.locus == 5
    assert len(empty_theta_store) == 2


# ---------------------------------------------------------------------------
# the order of the three lane products in a base product
# ---------------------------------------------------------------------------


def loop_factor(zeta, e, m, n):
    """``(zeta*q**e; q**m)`` below ``q**n`` on the big-integer loop alone."""
    from qident.series import _factors_loop

    if e:
        return _factors_loop(zeta, e, m, n)
    return _factors_loop(zeta, m, m, n) * (1 - zeta)


@pytest.mark.parametrize("zeta, a, m, pre", STORE_SPECS)
def test_base_product_equals_three_loop_products(empty_theta_store, zeta, a,
                                                 m, pre):
    from qident import theta
    from qident.series import ONE, clear_product_store

    spec = jtheta(zeta, a, m)
    z = spec.arg.unit
    _, _, a0 = theta._normalize(spec)
    top = 90
    ref = (loop_factor(z, a0, m, top)
           * loop_factor(z.conjugate(), m - a0, m, top)
           * loop_factor(ONE, m, m, top))
    for order in range(1, top + 1):
        clear_product_store()  # a fresh build at every order
        assert theta._base_product(z, a0, m, order) == ref.truncate(order), (
            order)


@pytest.mark.parametrize("a, m", [(1, 2), (2, 4)])
def test_base_product_build_has_a_unit_operand_in_every_product(
        empty_theta_store, monkeypatch, a, m):
    # (q;q^2) (q^2;q^2) = (q;q) has coefficients in {0, 1, -1}: the build
    # multiplies it by (q;q^2) and never squares (q;q^2); the spy sees the
    # packed products and the row products, whose sparse operand comes as
    # (exponent, coefficient) pairs
    from qident import series

    narrower = []
    real_packed, real_rows = series._conv_packed, series._conv_rows

    def packed(u, v, n):
        narrower.append(min(max(map(abs, u)), max(map(abs, v))))
        return real_packed(u, v, n)

    def rows(nzu, v, n):
        narrower.append(min(max(abs(x) for _, x in nzu), max(map(abs, v))))
        return real_rows(nzu, v, n)

    monkeypatch.setattr(series, "_conv_packed", packed)
    monkeypatch.setattr(series, "_conv_rows", rows)
    J(a, m, 600)
    assert narrower and max(narrower) <= 1, narrower


# ---------------------------------------------------------------------------
# the Pochhammer route's quotients: products times inverses
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("order", [1, 2, 3, 150, 601])
def test_pochhammer_route_calls_no_invert(monkeypatch, order):
    # each quotient is the lane's product times the lane's inverse of the
    # divisor, so no Newton division runs
    orders = []
    real = QSeries.invert

    def spy(self):
        orders.append(self.order)
        return real(self)

    monkeypatch.setattr(QSeries, "invert", spy)
    assert product_side_pochhammer(order) == product_side_theta(order)
    assert orders == []


def test_only_the_pochhammer_route_builds_lane_inverses():
    # dkm's product routes stay apart: the Pochhammer route multiplies lane
    # products by lane inverses, the theta route builds base products only
    from package_calls import package_calls

    from qident.series import clear_product_store

    routes = {}
    for route in (product_side_pochhammer, product_side_theta):
        clear_product_store()
        routes[route] = {name for _, _, name in package_calls(route, 300)}
    clear_product_store()
    assert {"pochhammer_inverse", "_factors_lane"} <= routes[
        product_side_pochhammer]
    assert "invert" not in routes[product_side_pochhammer]
    assert "pochhammer_inverse" not in routes[product_side_theta]


def test_the_q2_halves_are_spreads_of_the_q_halves():
    # s2 = ((q²;q²)/(−q²;q²)) and j(q²;q⁴) are read as s1 and j(q;q²)
    # with q -> q²: each equals the rebuild of its own factors
    from qident.series import (clear_product_store, pochhammer_inf,
                               pochhammer_inverse)

    clear_product_store()
    try:
        for order in (*range(1, 301), 4000):
            s1 = (pochhammer_inf(1, 1, 1, order)
                  * pochhammer_inverse(-1, 1, 1, order))
            assert s1.spread(2, order) == (
                pochhammer_inf(1, 2, 2, order)
                * pochhammer_inverse(-1, 2, 2, order)), order
            assert J(1, 2, order).spread(2, order) == J(2, 4, order), order
    finally:
        clear_product_store()


@pytest.mark.parametrize("route, keys", [
    (product_side_pochhammer, {(1, 1, 1), (-1, 1, 1)}),
    (product_side_theta, {(1, 1, 2), (1, 2, 2)})])
def test_the_routes_build_no_q2_factor(route, keys):
    # each route asks for the factors of its q-half only, as (zeta,
    # offset, modulus): (q;q) and 1/(-q;q) for the Pochhammer route, and
    # for the theta route j(q;q²)'s base product, (q;q²) twice and
    # (q²;q²), none of them at modulus 4
    from package_calls import call_args

    from qident import series

    series.clear_product_store()
    try:
        built = {args[:3] for fn in (series.pochhammer_inf,
                                     series.pochhammer_inverse)
                 for args in call_args(fn, route, 600)}
    finally:
        series.clear_product_store()
    assert built == keys


def bump_minus_q(monkeypatch, e):
    """Make ``1/(-q;q)_inf``, the inverse of the divisor of the Pochhammer
    route's first quotient, gain q**e wherever theta builds it."""
    import qident.theta as T

    real = T.pochhammer_inverse

    def bumped(zeta, offset, modulus, order):
        out = real(zeta, offset, modulus, order)
        if (zeta, offset, modulus) == (-1, 1, 1) and e < order:
            out = out + QSeries.monomial(1, e, order)
        return out

    monkeypatch.setattr(T, "pochhammer_inverse", bumped)


def assert_bump_fails_the_cross_check(monkeypatch, order, e):
    from qident.theta import InternalCrossCheckFailure

    bump_minus_q(monkeypatch, e)
    with pytest.raises(InternalCrossCheckFailure) as info:
        product_side_series(order)
    assert info.value.locus == e


@pytest.mark.parametrize("order, e", [(200, 101), (200, 163), (200, 199),
                                      (601, 444)])
def test_a_divisor_bump_above_half_order_fails_the_cross_check(
        monkeypatch, order, e):
    assert order / 2 < e < order
    assert_bump_fails_the_cross_check(monkeypatch, order, e)


@pytest.mark.parametrize("order, e", [(200, 1), (200, 57), (200, 100),
                                      (601, 300)])
def test_a_divisor_bump_below_half_order_fails_the_cross_check(
        monkeypatch, order, e):
    assert 0 < e <= order / 2
    assert_bump_fails_the_cross_check(monkeypatch, order, e)


def test_a_divisor_bump_above_half_order_fails_dkm(monkeypatch, capsys):
    import json

    from qident.cli import main

    bump_minus_q(monkeypatch, 150)
    code = main(["verify", "--suite", "dkm", "--order", "200",
                 "--format", "json"])
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert code == 1
    failed = {c["name"]: c["locus"] for c in checks if c["status"] == "fail"}
    assert failed["pochhammer_route_eq_theta_route"] == 150


def test_product_routes_peak_below_series_bytes():
    import tracemalloc

    from qident.series import clear_product_store, series_bytes

    order = 1001
    clear_product_store()
    tracemalloc.start()
    try:
        product_side_series(order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        clear_product_store()
    assert peak < series_bytes(order), (peak, series_bytes(order))
