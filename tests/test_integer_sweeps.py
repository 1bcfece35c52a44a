"""The int64 sweeps against the per-n generator expressions they replace.

Each ``reference_*`` function below builds, with ``sweep_check``, the checks
that theorem17, propositions, theorem61, background and ``classical_checks``
build from whole int64 tables, from the same tables, n by n, on Fractions
and ``GaussianRational`` coefficients.  Every converted check must equal its
reference, failure values included, on clean and on corrupted tables.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qident import _kernels, counting, verify
from qident.counting import (check_sweep_int64, classical_checks,
                             is_three_square_excluded,
                             three_square_excluded_table)
from qident.quadforms import hurwitz_table
from qident.report import Check, series_check, sweep_check, table_check
from qident.series import GaussianRational, QSeries
from qident.theta import Jbar, Jm, rep_count_product_series


# ---------------------------------------------------------------------------
# the per-n references
# ---------------------------------------------------------------------------


def reference_theorem17(order, maxn, tables):
    a, r3, H = tables.product, tables.r3, tables.H

    def av(n):
        return int(a[n])

    def split(residues):
        return [n for n in range(1, maxn + 1) if n % 8 in residues]

    return [
        sweep_check("a_eq_minus_4H4n_for_1_2_5_6_mod_8",
                    ((n, -4 * H(4 * n), av(n))
                     for n in split((1, 2, 5, 6)))),
        sweep_check("a_eq_6H4n_for_3_mod_8",
                    ((n, 6 * H(4 * n), av(n)) for n in split((3,)))),
        sweep_check("a_eq_24Hn_for_3_mod_8",
                    ((n, 24 * H(n), av(n)) for n in split((3,)))),
        sweep_check("a_zero_for_7_mod_8",
                    ((n, Fraction(0), av(n)) for n in split((7,)))),
        sweep_check("a_eq_r3_for_0_mod_4",
                    ((n, Fraction(int(r3[n])), av(n))
                     for n in range(4, maxn + 1, 4))),
        sweep_check("r3_quarter_for_0_mod_4",
                    ((n, int(r3[n // 4]), int(r3[n]))
                     for n in range(4, maxn + 1, 4))),
    ]


def reference_propositions(order, maxn, tables):
    a = tables.product
    open_total, _, open_even_r = tables.open_triples
    sh_total, sh_signed, sh_even_r = tables.shifted_triples
    r3, sig0 = tables.r3, tables.sigma0

    def av(n):
        return int(a[n])

    top = maxn + 1
    A, B = Jbar(4, 8, top), Jbar(0, 8, top)
    C, D = Jbar(8, 16, top), Jbar(0, 16, top)
    residue0 = A * C * C + (A * D * D).shift(4).truncate(top)
    return [
        sweep_check("open_triples_have_odd_r",
                    ((n, 0, int(open_even_r[n]))
                     for n in range(2, maxn + 1, 4))),
        sweep_check("shifted_triples_have_even_r_1_mod_4",
                    ((n, int(sh_total[n]), int(sh_even_r[n]))
                     for n in range(1, maxn + 1, 4))),
        sweep_check("a_4m2_eq_minus4_sigma0_minus4_open",
                    ((n, -4 * int(sig0[n // 2]) - 4 * int(open_total[n]),
                      av(n)) for n in range(2, maxn + 1, 4))),
        sweep_check("a_4m1_eq_minus2_sigma0_minus4_shifted",
                    ((n, -2 * int(sig0[n]) - 4 * int(sh_total[n]), av(n))
                     for n in range(1, maxn + 1, 4))),
        sweep_check("a_8m3_eq_2_sigma0_plus4_shifted",
                    ((n, 2 * int(sig0[n]) + 4 * int(sh_total[n]), av(n))
                     for n in range(3, maxn + 1, 8))),
        sweep_check("a_8m7_eq_2_sigma0_minus4_signed_shifted",
                    ((n, 2 * int(sig0[n]) - 4 * int(sh_signed[n]), av(n))
                     for n in range(7, maxn + 1, 8))),
        sweep_check("a_8m7_vanishes",
                    ((n, 0, av(n)) for n in range(7, maxn + 1, 8))),
        sweep_check("a_4m_eq_r3_eq_r3_quarter",
                    ((n, (int(r3[n]), int(r3[n // 4])), (av(n), av(n)))
                     for n in range(4, maxn + 1, 4))),
        sweep_check("q4m_coefficients_match_residue0_products",
                    ((n, residue0.coeff(n), av(n))
                     for n in range(0, top, 4))),
        sweep_check("q4m_coefficients_nonnegative",
                    ((n, True, av(n) >= 0)
                     for n in range(0, top, 4))),
    ]


def reference_theorem61(order, maxn, tables):
    open_total, _, _ = tables.open_triples
    sh_total, sh_signed, _ = tables.shifted_triples
    sig0, H = tables.sigma0, tables.H
    return [
        sweep_check("open_count_2_mod_4",
                    ((n, H(4 * n) - int(sig0[n // 2]),
                      Fraction(int(open_total[n])))
                     for n in range(2, maxn + 1, 4))),
        sweep_check("shifted_count_1_mod_4",
                    ((n, H(4 * n) - Fraction(int(sig0[n]), 2),
                      Fraction(int(sh_total[n])))
                     for n in range(1, maxn + 1, 4))),
        sweep_check("shifted_count_3_mod_8",
                    ((n, 6 * H(n) - Fraction(int(sig0[n]), 2),
                      Fraction(int(sh_total[n])))
                     for n in range(3, maxn + 1, 8))),
        sweep_check("shifted_signed_7_mod_8",
                    ((n, Fraction(int(sig0[n]), 2),
                      Fraction(int(sh_signed[n])))
                     for n in range(7, maxn + 1, 8))),
    ]


def reference_background(order, maxn, tables):
    signed, unsigned = tables.signed_unsigned
    r3 = tables.r3
    # the suite reads the lane below the order and the eta route at every
    # n <= maxn; the lane at maxn + 1 has the values of both
    b_series = rep_count_product_series(maxn + 1)
    return [
        *reference_classical(maxn, tables.h12, r3),
        sweep_check("abs_signed_count_eq_unsigned_count",
                    ((n, abs(int(signed[n])), int(unsigned[n]))
                     for n in range(maxn + 1))),
        sweep_check("local_global_criterion",
                    ((n, is_three_square_excluded(n), int(unsigned[n]) == 0)
                     for n in range(maxn + 1))),
        sweep_check("unsigned_zero_iff_r3_zero",
                    ((n, int(r3[n]) == 0, int(unsigned[n]) == 0)
                     for n in range(maxn + 1))),
        sweep_check("unsigned_generating_function",
                    ((n, int(unsigned[n]), b_series.coeff(n))
                     for n in range(maxn + 1))),
    ]


def reference_classical(maxn, h12, r3):
    r2 = _kernels.square_rep_tables(2, maxn)
    r4 = _kernels.square_rep_tables(4, maxn)
    d1, d3 = _kernels.d_mod4_tables(maxn)
    sig = _kernels.sigma_no_mult4_table(maxn)
    tri = _kernels.triangular3_table(maxn)
    tri_sum = _kernels.triangular_sum_side(maxn + 1)
    order = maxn + 1
    gf = (Jm(2, order) ** 2 * Jm(1, order).invert()) ** 3
    pair, triple = _kernels.hlm_tables(maxn)

    def r3_class_pairs():
        for n in range(1, maxn + 1):
            res = n % 8
            if res in (1, 2, 5, 6):
                yield n, Fraction(int(h12[4 * n])), Fraction(int(r3[n]))
            elif res == 3:
                yield n, Fraction(2 * int(h12[n])), Fraction(int(r3[n]))
            elif res == 7:
                yield n, Fraction(0), Fraction(int(r3[n]))
            else:
                yield n, Fraction(int(r3[n // 4])), Fraction(int(r3[n]))

    return [
        sweep_check("four_square_divisor_formula",
                    ((n, 8 * int(sig[n]), int(r4[n]))
                     for n in range(1, maxn + 1))),
        sweep_check("two_square_divisor_formula",
                    ((n, 4 * (int(d1[n]) - int(d3[n])), int(r2[n]))
                     for n in range(1, maxn + 1))),
        sweep_check("triangular_triple_sum_side",
                    ((n, int(tri[n]), int(tri_sum[n]))
                     for n in range(maxn + 1))),
        series_check("triangular_triple_eta_quotient",
                     QSeries._raw(tri[:order].tolist(), None, 1, order), gf,
                     order),
        sweep_check("triangular_triple_positivity",
                    ((n, True, int(tri[n]) > 0) for n in range(maxn + 1))),
        sweep_check("three_square_signed_sum_formula",
                    ((n, (6 * int(pair[n]) + 4 * int(triple[n]))
                      * (1 if n % 2 else -1), int(r3[n]))
                     for n in range(1, maxn + 1))),
        sweep_check("three_square_class_number_relations", r3_class_pairs()),
    ]


REFERENCES = {
    "theorem17": reference_theorem17,
    "propositions": reference_propositions,
    "theorem61": reference_theorem61,
    "background": reference_background,
}


def assert_matches_reference(name, order, maxn, tables):
    """Run suite ``name`` on ``tables`` and compare every converted check
    with its reference; returns the suite's report."""
    report = verify._SUITES[name](order, maxn, tables)
    got = {c.name: c for c in report.checks}
    for want in REFERENCES[name](order, maxn, tables):
        assert got[want.name] == want, (name, maxn)
    return report


# ---------------------------------------------------------------------------
# clean tables
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(REFERENCES))
def test_every_suite_matches_the_reference_at_small_max(name):
    order = 8
    ran = 0
    for maxn in range(17):
        if verify.size_error(name, order, maxn) is None:
            report = assert_matches_reference(name, order, maxn,
                                              verify.Tables(maxn))
            assert report.passed, report.failures
            ran += 1
    # the suites with checks at n = 7 mod 8 need max >= 7, background and
    # the classical checks max >= 8
    assert ran == (9 if name == "background" else 10)


def test_run_suites_all_matches_the_reference_to_16():
    for maxn in range(8, 17):
        tables = verify.Tables(maxn)
        for name in REFERENCES:
            assert_matches_reference(name, 8, maxn, tables)


@pytest.mark.parametrize("maxn", [8, 9, 16, 17, 250])
def test_classical_checks_match_the_reference(maxn):
    h12, r3 = hurwitz_table(4 * maxn), _kernels.square_rep_tables(3, maxn)
    got = {c.name: c for c in classical_checks(maxn, h12, r3).checks}
    want = reference_classical(maxn, h12, r3)
    assert [c.name for c in want] == list(got)
    assert [got[c.name] for c in want] == want
    assert all(c.passed for c in want)


# ---------------------------------------------------------------------------
# corrupted tables past the prefix
# ---------------------------------------------------------------------------

MAXN = 240
ORDER = 40


def _copy(value):
    if isinstance(value, tuple):
        return tuple(a.copy() for a in value)
    return value.copy()


def _bump(member, index, n, by=1):
    """A corruption of ``Tables.member`` (entry ``index`` of a tuple member)
    at n."""
    def corrupt(tables):
        value = _copy(getattr(tables, member))
        (value if index is None else value[index])[n] += by
        tables.__dict__[member] = value
    return corrupt


def _zero(member, index, n):
    """Set entry n of ``Tables.member`` (of its tuple entry ``index``) to 0."""
    def corrupt(tables):
        value = _copy(getattr(tables, member))
        (value if index is None else value[index])[n] = 0
        tables.__dict__[member] = value
    return corrupt


# (what is corrupted, the corruption, the n where some converted check must
# fail); every n is past PER_N_PREFIX
_CORRUPTIONS = [
    ("h12 at N = 0 mod 4", _bump("h12", None, 4 * 209), 209),
    ("h12 at N = 3 mod 4", _bump("h12", None, 211), 211),
    ("sigma0", _bump("sigma0", None, 215), 215),
    ("open triple total", _bump("open_triples", 0, 218), 218),
    ("shifted triple total", _bump("shifted_triples", 0, 217), 217),
    ("signed shifted triple", _bump("shifted_triples", 1, 223), 223),
    ("r3", _bump("r3", None, 220), 220),
    ("r3 to zero", _zero("r3", None, 228), 228),
    ("unsigned", _bump("signed_unsigned", 1, 229), 229),
    ("product", _bump("product", None, 221), 221),
]


@pytest.mark.parametrize("what, corrupt, n", _CORRUPTIONS,
                         ids=[c[0] for c in _CORRUPTIONS])
def test_corruption_past_the_prefix_matches_the_reference(what, corrupt, n):
    assert n > verify.PER_N_PREFIX
    tables = verify.Tables(MAXN)
    corrupt(tables)
    failed_at = set()
    for name in REFERENCES:
        report = assert_matches_reference(name, ORDER, MAXN, tables)
        failed_at |= {c.locus for c in report.failures}
    assert n in failed_at


def test_clean_tables_fail_no_int64_comparison(monkeypatch):
    # every int64 expression is exact where its identity holds, so on clean
    # tables no per-n expression runs
    seen = []

    def spy(name, ns, fails, per_n):
        seen.append((name, bool(fails.any())))
        return table_check(name, ns, fails, per_n)

    monkeypatch.setattr(verify, "table_check", spy)
    monkeypatch.setattr(counting, "table_check", spy)
    tables = verify.Tables(MAXN)
    for name in REFERENCES:
        assert verify._SUITES[name](ORDER, MAXN, tables).passed
    assert len(seen) == 6 + 11 + 4 + 7 + 4
    assert not [name for name, failed in seen if failed]


# The product is an int64 table, so a coefficient that int64 cannot hold
# arises only in the lane that pins it on the prefix; each must fail the pin
# at its n, not read as the integer part int64 would give it.
_LANE_CORRUPTIONS = [
    ("product non-integral", Fraction(1, 2), 122),
    ("product imaginary", GaussianRational(0, 1), 123),
    ("product past int64", 1 << 70, 124),
]


@pytest.mark.parametrize("what, value, n", _LANE_CORRUPTIONS,
                         ids=[c[0] for c in _LANE_CORRUPTIONS])
def test_lane_corruption_on_the_prefix_fails_the_pin(monkeypatch, what,
                                                     value, n):
    assert n <= verify.PER_N_PREFIX
    real = verify.product_side_series

    def corrupted(order):
        return real(order) + QSeries.monomial(value, n, order)

    monkeypatch.setattr(verify, "product_side_series", corrupted)
    tables = verify.Tables(MAXN)
    a = verify.eta_quotient(verify.SIGNED_ETA, MAXN + 1)
    want = Check.fail("eta_route_eq_theta_route", n,
                      corrupted(n + 1).coeff(n), int(a[n]))
    assert tables.product == want
    for name in ("theorem17", "propositions"):
        assert verify._SUITES[name](ORDER, MAXN, tables).checks == [want]


def test_product_at_the_guard_is_an_overflow(monkeypatch):
    # |a(212)| at 2**63 // 12 raises, one below it is read: 12*a(n) must
    # fit int64 in every sweep
    assert verify.PRODUCT_LIMIT == (1 << 63) // 12
    real = verify.eta_quotient
    for value in (verify.PRODUCT_LIMIT, -verify.PRODUCT_LIMIT,
                  verify.PRODUCT_LIMIT - 1, 1 - verify.PRODUCT_LIMIT):

        def corrupted(r, n, *sigma1, value=value):
            out = real(r, n, *sigma1)
            out[212] = value
            return out

        monkeypatch.setattr(verify, "eta_quotient", corrupted)
        tables = verify.Tables(MAXN)
        if abs(value) == verify.PRODUCT_LIMIT:
            with pytest.raises(OverflowError, match=r"2\*\*63 // 12"):
                tables.product
            continue
        report = verify._SUITES["theorem17"](ORDER, MAXN, tables)
        (check,) = [c for c in report.checks
                    if c.name == "a_eq_r3_for_0_mod_4"]
        assert (check.locus, check.actual) == (212, str(value))


def test_a_fraction_that_int64_reads_as_zero_fails_residue0(monkeypatch):
    # A = Jbar(4, 8) gains 1/2 at q^28, where a(28) = r3(28) = 0: the
    # residue-0 products and the expansion there read 0 in int64, and the
    # mask of what int64 cannot hold sends n = 28 to the per-n comparison
    from qident.theta import jtheta

    real = verify.theta_j_sum
    bumped = jtheta(-1, 4, 8)

    def corrupted(spec, order):
        out = real(spec, order)
        if spec == bumped:
            out = out + QSeries.monomial(Fraction(1, 2), 28, order)
        return out

    monkeypatch.setattr(verify, "theta_j_sum", corrupted)
    tables = verify.Tables(MAXN)
    assert tables.product[28] == 0
    failures = verify._SUITES["propositions"](ORDER, MAXN, tables).failures
    assert failures == [
        Check.fail("half_split_six_term_expansion", 28, "1/2", "0"),
        Check.fail("q4m_coefficients_match_residue0_products", 28, "1/2",
                   "0")]


def test_corrupted_product_fails_the_cli(monkeypatch, capsys):
    # the run reads the lane only on the prefix, so the eta route, which
    # it reads at every n, is corrupted past it
    from qident.cli import main

    real = verify.eta_quotient

    def bumped(r, n, *sigma1):
        out = real(r, n, *sigma1)
        out[222] += 1
        return out

    monkeypatch.setattr(verify, "eta_quotient", bumped)
    assert main(["verify", "--suite", "theorem17", "--order", "32",
                 "--max", "240"]) == 1
    assert "[FAIL] a_eq_minus_4H4n_for_1_2_5_6_mod_8 at 222:" in (
        capsys.readouterr().out)


@pytest.mark.parametrize("attr, n", [("sigma_no_mult4_table", 231),
                                     ("d_mod4_tables", 233),
                                     ("hlm_tables", 234),
                                     ("square_rep_tables", 235)])
def test_classical_kernel_corruption_matches_the_reference(monkeypatch,
                                                           attr, n):
    real = getattr(_kernels, attr)

    def bumped(*args):
        out = _copy(real(*args))
        (out[0] if isinstance(out, tuple) else out)[n] += 1
        return out

    monkeypatch.setattr(_kernels, attr, bumped)
    h12, r3 = hurwitz_table(4 * MAXN), _kernels.square_rep_tables(3, MAXN)
    got = classical_checks(MAXN, h12, r3).checks
    want = reference_classical(MAXN, h12, r3)
    assert got == want
    assert n in {c.locus for c in got}


# ---------------------------------------------------------------------------
# the division-free eta-quotient check
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [0, 97, 120])
def test_eta_check_fails_at_a_corrupted_triangular_entry(monkeypatch, n):
    maxn = 120
    real = _kernels.triangular3_table

    def bumped(m):
        out = real(m).copy()
        out[n] += 1
        return out

    monkeypatch.setattr(_kernels, "triangular3_table", bumped)
    tri = bumped(maxn)
    (check,) = [c for c in classical_checks(maxn).checks
                if c.name == "triangular_triple_eta_quotient"]
    quotient = (Jm(2, maxn + 1) ** 2 * Jm(1, maxn + 1).invert()) ** 3
    assert check == Check.fail("triangular_triple_eta_quotient", n,
                               quotient.coeff(n), int(tri[n]))
    assert check.expected == str(int(tri[n]) - 1)


def test_eta_check_builds_no_inverse_when_it_passes(monkeypatch):
    calls = []
    real = QSeries.invert
    monkeypatch.setattr(QSeries, "invert",
                        lambda self: calls.append(self.order) or real(self))
    assert classical_checks(200).passed
    assert calls == []


# ---------------------------------------------------------------------------
# the pieces
# ---------------------------------------------------------------------------


def test_table_check_runs_the_per_n_expression_only_where_it_fails():
    ns = np.arange(3, 60, 4)
    calls = []

    def per_n(n):
        calls.append(n)
        return 0, int(n == 31)

    fails = np.isin(ns, (11, 31, 43))
    assert table_check("demo", ns, fails, per_n) == Check.fail("demo", 31,
                                                               0, 1)
    # 11 passes per n and is skipped; the sweep stops at 31
    assert calls == [11, 31]
    assert table_check("demo", ns, np.isin(ns, (11,)), per_n).passed


def _reference_int64(series):
    out = []
    for c in series.coeffs():
        whole = not c.im and c.re.denominator == 1
        out.append(whole and -(1 << 63) < c.re < 1 << 63)
    return out


coefficient = st.one_of(
    st.integers(-3, 3),
    st.integers(-(1 << 70), 1 << 70),
    st.sampled_from([(1 << 63) - 1, 1 << 63, -(1 << 63) + 1, -(1 << 63)]),
    st.fractions(max_denominator=4).filter(lambda f: abs(f) < 100),
    st.builds(GaussianRational, st.integers(-3, 3), st.integers(-2, 2)))


@settings(max_examples=60, deadline=None)
@given(st.lists(coefficient, min_size=1, max_size=12))
def test_int64_coefficients_read_each_coefficient(coeffs):
    series = QSeries(coeffs)
    values, exact = series.int64_coefficients()
    assert exact.tolist() == _reference_int64(series)
    for n in np.flatnonzero(exact):
        assert values[n] == series.coeff(int(n)).re
    assert not values[~exact].any()


def test_three_square_excluded_table_is_the_per_n_predicate():
    table = three_square_excluded_table(5000)
    assert table.tolist() == [is_three_square_excluded(n)
                              for n in range(5001)]
    assert three_square_excluded_table(0).tolist() == [False]


@pytest.mark.parametrize("name", sorted(REFERENCES))
def test_int64_sweeps_fit_at_the_suite_max_bound(name):
    # the guard holds over every --max the suite accepts; it binds only
    # past 4*10**10, far above them
    bound = min(verify._SIZES[name].max_bounds)
    check_sweep_int64(bound)
    assert 24 * counting.sweep_entry_bound(bound) < 1 << 63
    with pytest.raises(OverflowError):
        check_sweep_int64(5 * 10 ** 10)


def test_sweep_entry_bound_covers_the_tables():
    maxn = 3000
    bound = counting.sweep_entry_bound(maxn)
    tables = verify.Tables(maxn)
    for table in (tables.h12, tables.r3, tables.sigma0,
                  *tables.signed_unsigned, *tables.open_triples,
                  *tables.shifted_triples,
                  _kernels.square_rep_tables(4, maxn),
                  _kernels.sigma_no_mult4_table(maxn),
                  *_kernels.hlm_tables(maxn),
                  _kernels.triangular3_table(maxn)):
        assert np.abs(table).max() <= bound
