"""Suite orchestration: pass/fail reporting, determinism, corruption tests."""

import json

import numpy as np
import pytest

from package_calls import call_args, package_calls
from qident.report import Check, VerificationReport, series_check, sweep_check
from qident.series import GaussianRational, QSeries
from qident.theta import product_side_series
from qident import verify
from qident.verify import SUITE_NAMES, run_suites, size_error


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_each_suite_passes_small(name):
    (report,) = run_suites(name, 48, 120)
    assert report.suite == name
    assert report.passed, report.failures


def test_bijections_runs_every_check_from_max_7():
    # n = 7 is the first n = 7 mod 8, the last case to appear
    (small,) = run_suites("bijections", 1, 7)
    (large,) = run_suites("bijections", 48, 120)
    assert [c.name for c in small.checks] == [c.name for c in large.checks]
    assert len(small.checks) == 14
    with pytest.raises(ValueError):
        run_suites("bijections", 48, 6)


@pytest.mark.parametrize("name", ["corollary", "theorem17", "propositions",
                                  "theorem61"])
def test_smallest_max_reaches_every_residue_class(monkeypatch, name):
    # at the row's min_max every table and pinned check reads some n, and
    # one below it some check reads none, which would pass vacuously
    sizes = {}
    real_table, real_pinned = verify.table_check, verify._pinned_check

    def table(check, ns, *args, **kwargs):
        sizes[check] = len(ns)
        return real_table(check, ns, *args, **kwargs)

    def pinned(check, ns, *args, **kwargs):
        sizes[check] = len(ns)
        return real_pinned(check, ns, *args, **kwargs)

    monkeypatch.setattr(verify, "table_check", table)
    monkeypatch.setattr(verify, "_pinned_check", pinned)
    least = verify._SIZES[name].min_max
    for maxn, empty in ((least, False), (least - 1, True)):
        sizes.clear()
        (report,) = run_suites(name, 8, maxn)
        assert report.passed
        assert sizes and (0 in sizes.values()) == empty, (maxn, sizes)
    assert size_error(name, 8, least) is None
    assert size_error(name, 8, least - 1) == (
        f"suite {name} needs --max >= {least}")


def test_all_runs_every_suite_in_stable_order():
    reports = run_suites("all", 32, 60)
    assert [r.suite for r in reports] == list(SUITE_NAMES)
    again = run_suites("all", 32, 60)
    assert [r.to_dict() for r in reports] == [r.to_dict() for r in again]


def test_unknown_suite():
    with pytest.raises(KeyError):
        run_suites("nope", 32, 60)


def test_sweep_check_reports_first_failure():
    pairs = [(1, 1, 1), (2, 5, 5), (3, 7, 8), (4, 0, 9)]
    check = sweep_check("demo", iter(pairs))
    assert not check.passed
    assert check.locus == 3 and check.expected == "7" and check.actual == "8"


def test_series_check_failure_carries_exact_values():
    a = QSeries([1, 2, 3], 3)
    b = QSeries([1, 2, 4], 3)
    check = series_check("demo", a, b, 3)
    assert check.locus == 2
    assert check.expected == "4" and check.actual == "3"


def test_corrupted_table_fails_suite(monkeypatch):
    # breaking one input table must surface as a failing check, not silence
    from qident import _kernels

    real = _kernels.sigma_table

    def broken(maxn, k=0):
        table = real(maxn, k).copy()
        if maxn >= 35:
            table[35] += 1
        return table

    monkeypatch.setattr(_kernels, "sigma_table", broken)
    (report,) = run_suites("theorem61", 32, 60)
    assert not report.passed
    assert any(c.locus == 35 for c in report.failures)


def test_corrupted_class_number_fails_suite(monkeypatch):
    import qident.verify as V

    real = V.hurwitz_table

    def broken(X):
        table = real(X)
        table[4 * 21] += 12  # H(84) + 1
        return table

    monkeypatch.setattr(V, "hurwitz_table", broken)
    (report,) = run_suites("theorem17", 32, 60)
    assert not report.passed
    assert any(c.locus == 21 for c in report.failures)


@pytest.mark.parametrize("name", ["theorem17", "theorem61", "bijections",
                                  "background"])
def test_bumped_class_number_table_fails_suite(monkeypatch, name):
    # one unit of 12*H at N = 84 = 4*21 moves H(84) by 1/12
    import qident.verify as V

    real = V.hurwitz_table

    def bumped(X):
        table = real(X)
        table[4 * 21] += 1
        return table

    monkeypatch.setattr(V, "hurwitz_table", bumped)
    (report,) = run_suites(name, 32, 60)
    assert not report.passed
    assert {c.locus for c in report.failures} == {21}


def test_all_suites_share_one_table_context(monkeypatch):
    import qident.counting as C
    import qident.verify as V
    from qident import _kernels

    calls = []

    def counted(holder, attr):
        real = getattr(holder, attr)

        def wrapper(*args):
            calls.append((attr, args))
            return real(*args)

        monkeypatch.setattr(holder, attr, wrapper)

    counted(V, "product_side_series")
    counted(V, "eta_quotient")
    counted(V, "hurwitz_table")
    counted(C, "hurwitz_table")
    counted(_kernels, "triple_tables")
    counted(_kernels, "sigma_table")
    reports = run_suites("all", 32, 60)
    assert all(r.passed for r in reports)
    def args_of(attr):
        return [args for name, args in calls if name == attr]

    # the lane pins the eta route on n <= 60, the whole run
    assert args_of("product_side_series") == [(61,)]
    assert [a[:2] for a in args_of("eta_quotient")] == [
        (V.SIGNED_ETA, 61), (V.UNSIGNED_ETA, 61)]
    assert args_of("hurwitz_table") == [(240,)]
    assert [a for a in args_of("triple_tables") if a[0] == 60] == [
        (60, False), (60, True)]
    # sigma_0 is shared, and so is the sigma_1 of every eta quotient
    # (theorem17's product, then background's triangular and unsigned ones)
    assert args_of("sigma_table") == [(60, 1), (60, 0)]


def test_a_run_builds_each_divisor_sum_table_once():
    # recorded however the caller reaches sigma_table, not only through
    # the ``_kernels`` attribute that a patch replaces
    from qident import _kernels

    built = call_args(_kernels.sigma_table, run_suites, "all", 60, 250)
    assert sorted(built) == [(250, 0), (250, 1)]


def test_half_split_factors_share_no_code_with_the_product_routes():
    # the expansion's factors are bilateral theta sums: neither the lane
    # nor the eta recurrence that built the product it is compared with
    from qident import series

    a = verify.Tables(250).product
    series.clear_product_store()
    calls = {name for _, _, name in package_calls(
        verify._prop_residue_zero_series_checks, 251, a)}
    assert "theta_j_sum" in calls
    assert not calls & {"pochhammer_inf", "_stored_factors", "_factors_lane",
                        "eta_quotient", "theta_j", "theta_j_shifted"}


def test_no_lane_series_reaches_max_plus_one():
    # the lane builds the pin below q^201, dkm's and background's series
    # below q^60; nothing at --max
    from qident import series

    series.clear_product_store()
    orders = [args[3] for args in call_args(series.pochhammer_inf,
                                            run_suites, "all", 60, 250)]
    assert orders and max(orders) == verify.PER_N_PREFIX + 1


@pytest.mark.parametrize("name", ["theorem17", "propositions"])
def test_product_route_disagreement_fails_suite(monkeypatch, name):
    # the theta route gains q^21; the suite reports it as a failed check
    import qident.theta as T

    real = T.product_side_theta

    def skewed(order):
        return real(order) + QSeries.monomial(1, 21, order)

    monkeypatch.setattr(T, "product_side_theta", skewed)
    (report,) = run_suites(name, 32, 60)
    assert [(c.name, c.locus) for c in report.failures] == [
        ("pochhammer_route_eq_theta_route", 21)]


@pytest.mark.parametrize("name", ["theorem17", "propositions"])
def test_imaginary_part_fails_suite(monkeypatch, name):
    # a(21) gains an imaginary part while its real part stays correct
    import qident.verify as V

    real = V.product_side_series

    def broken(order):
        return real(order) + QSeries.monomial(GaussianRational(0, 1), 21,
                                              order)

    monkeypatch.setattr(V, "product_side_series", broken)
    (report,) = run_suites(name, 32, 60)
    assert not report.passed
    assert any(c.locus == 21 for c in report.failures)



def _bump_eta(monkeypatch, r, n):
    """Add 1 to the coefficient of q^n of the eta quotient ``r`` that the
    suites read."""
    real = verify.eta_quotient

    def bumped(exponents, order, *sigma1):
        out = real(exponents, order, *sigma1)
        if exponents == r:
            out[n] += 1
        return out

    monkeypatch.setattr(verify, "eta_quotient", bumped)


def test_signed_eta_past_the_prefix_fails_theorem17(monkeypatch, capsys):
    from qident.cli import main

    n = 221  # 5 mod 8, past the prefix the lane pins
    assert n > verify.PER_N_PREFIX
    _bump_eta(monkeypatch, verify.SIGNED_ETA, n)
    assert main(["verify", "--suite", "theorem17", "--order", "32",
                 "--max", "240"]) == 1
    assert f"[FAIL] a_eq_minus_4H4n_for_1_2_5_6_mod_8 at {n}:" in (
        capsys.readouterr().out)


@pytest.mark.parametrize("name", ["theorem17", "propositions"])
@pytest.mark.parametrize("maxn, n", [(240, 0), (240, 150), (240, 200),
                                     (60, 60)])
def test_signed_eta_on_the_prefix_fails_the_pin(monkeypatch, name, maxn, n):
    _bump_eta(monkeypatch, verify.SIGNED_ETA, n)
    (report,) = run_suites(name, 32, maxn)
    lane = product_side_series(n + 1).coeff(n)
    assert report.failures == [Check.fail("eta_route_eq_theta_route", n,
                                          lane, lane + 1)]


def test_a_pair_failure_prints_integers(monkeypatch):
    # a(240) = r3(240) = 0, bumped to 1: the pair of values prints as
    # integers, not as reprs of GaussianRational
    _bump_eta(monkeypatch, verify.SIGNED_ETA, 240)
    (report,) = run_suites("propositions", 32, 240)
    (check,) = [c for c in report.failures
                if c.name == "a_4m_eq_r3_eq_r3_quarter"]
    assert check == Check.fail("a_4m_eq_r3_eq_r3_quarter", 240, "(0, 0)",
                               "(1, 1)")


def test_wrong_divisor_sum_is_an_internal_error(monkeypatch, capsys):
    from qident import _kernels
    from qident.cli import main

    real = _kernels.sigma_table

    def patched(maxn, k=0):
        out = real(maxn, k)
        if k == 1:
            out[7] += 1
        return out

    monkeypatch.setattr(_kernels, "sigma_table", patched)
    assert main(["verify", "--suite", "theorem17", "--order", "32",
                 "--max", "240"]) == 3
    assert "InexactRecurrence" in capsys.readouterr().err


@pytest.mark.parametrize("route, n", [("eta", 229), ("lane", 30)])
def test_unsigned_product_fails_past_and_below_the_order(monkeypatch, route,
                                                         n):
    # order 40: the eta route alone covers 229, both routes cover 30
    from qident.cli import main

    if route == "eta":
        _bump_eta(monkeypatch, verify.UNSIGNED_ETA, n)
    else:
        real = verify.rep_count_product_series
        monkeypatch.setattr(verify, "rep_count_product_series",
                            lambda order: real(order)
                            + QSeries.monomial(1, n, order))
    (report,) = run_suites("background", 40, 240)
    unsigned = int(verify.Tables(240).signed_unsigned[1][n])
    assert report.failures == [Check.fail("unsigned_generating_function", n,
                                          unsigned, unsigned + 1)]
    assert main(["verify", "--suite", "background", "--order", "40",
                 "--max", "240"]) == 1

def test_report_json_roundtrip():
    (report,) = run_suites("dkm", 40, 50)
    blob = json.dumps(report.to_dict())
    parsed = VerificationReport.from_dict(json.loads(blob))
    assert json.dumps(parsed.to_dict()) == blob
    for c in parsed.checks:
        assert set(c.to_dict()) == {"name", "status", "locus", "expected",
                                    "actual"}


def test_check_constructors():
    ok = Check.ok("x")
    assert ok.passed and ok.locus is None
    bad = Check.fail("x", 5, 1, 2)
    assert not bad.passed and bad.expected == "1" and bad.actual == "2"


ALL_NAMES = SUITE_NAMES + ("all",)
FOLLOWS_ORDER = ("dkm", "background", "all")


def test_one_size_row_per_suite():
    assert list(verify._SIZES) == list(verify._SUITES) == list(SUITE_NAMES)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_size_error_max_bound_comes_from_the_int64_guards(monkeypatch, name):
    from qident import _kernels
    from qident.bijection_windows import WINDOW_N_LIMIT

    monkeypatch.setattr(verify, "BYTES_BUDGET", 1 << 200)
    # the window lane binds bijections, and so "all"; the kernel tables
    # bind every other suite but dkm, which has no bound
    bound = {"dkm": None, "bijections": WINDOW_N_LIMIT - 1,
             "all": WINDOW_N_LIMIT - 1}.get(name, _kernels.MAXN_LIMIT)
    if bound is None:
        assert size_error(name, 200, 10 ** 30) is None
        return
    assert size_error(name, 200, bound) is None
    assert size_error(name, 200, bound + 1) == (
        f"suite {name} needs --max <= {bound}")


@pytest.mark.parametrize("name", ALL_NAMES)
def test_size_error_order_bound_comes_from_the_kernel_bound(monkeypatch,
                                                            name):
    from qident import _kernels

    monkeypatch.setattr(verify, "BYTES_BUDGET", 1 << 200)
    # dkm builds kernel tables for n <= order - 1; background's series
    # follow order too; the other suites ignore it
    top = _kernels.MAXN_LIMIT + 1
    assert size_error(name, top, 10) is None
    if name in FOLLOWS_ORDER:
        assert size_error(name, top + 1, 10) == (
            f"suite {name} needs --order <= {top}")
    else:
        assert size_error(name, top + 1, 10) is None


def _table_bytes(name):
    return sum(verify._SIZES[n].table_bytes
               for n in (SUITE_NAMES if name == "all" else (name,)))


def _legs(name, order, maxn):
    """The flags and the kinds of bytes a refusal of ``name`` names: the
    series for the suites that follow --order, the tables for those that
    build any."""
    legs = ([(f"--order {order}", "series")] if name in FOLLOWS_ORDER
            else []) + ([(f"--max {maxn}", "tables")] if _table_bytes(name)
                        else [])
    return (" ".join(f for f, _ in legs), " and ".join(w for _, w in legs))


@pytest.mark.parametrize("name", ALL_NAMES)
def test_series_budget_bounds_max_for_the_suites_that_build_max_series(
        monkeypatch, name):
    from qident.series import series_bytes

    # the budget admits series below q^3001 and nothing longer; no suite
    # builds series at --max, so --max 3001 meets only its table bytes
    monkeypatch.setattr(verify, "BYTES_BUDGET", series_bytes(3001))
    assert size_error(name, 200, 3000) is None
    assert size_error(name, 200, 3001) is None
    # the series leg reads --order 200, never --max
    need = _table_bytes(name) * (10 ** 6 + 1) + (
        series_bytes(200) if name in FOLLOWS_ORDER else 0)
    err = size_error(name, 200, 10 ** 6)
    if name == "dkm":
        assert err is None
    else:
        assert f"would hold about {need >> 20} MiB" in err
    # --order counts for the suites that read it
    err = size_error(name, 3002, 10)
    if name in FOLLOWS_ORDER:
        assert "--order 3002" in err and "of series" in err
    else:
        assert err is None


@pytest.mark.parametrize("name", ALL_NAMES)
def test_series_budget_keeps_the_stress_size_and_refuses_a_large_max(name):
    # the table bytes alone bound --max: 200000 fits every suite, and
    # 2*10**7 is refused for every suite that builds tables
    assert size_error(name, 300, 3000) is None
    assert size_error(name, 200, 200_000) is None
    from qident.series import series_bytes

    err = size_error(name, 200, 2 * 10 ** 7)
    need = _table_bytes(name) * (2 * 10 ** 7 + 1) + (
        series_bytes(200) if name in FOLLOWS_ORDER else 0)
    flags, what = _legs(name, 200, 20000000)
    if name == "dkm":
        assert err is None
    else:
        assert err == (f"suite {name} at {flags} would hold about "
                       f"{need >> 20} MiB of {what}, past the 1024 MiB "
                       "budget")


def test_all_is_bounded_by_its_series_and_table_bytes():
    from qident.series import series_bytes

    # the cap of "all" at --order 300 within the 1 GiB budget: the series
    # below q^300 and 1711 bytes per n of tables
    series = series_bytes(300)
    assert size_error("all", 300, 100_000) is None
    cap = 626_963
    assert (series + (cap + 1) * 1711 <= verify.BYTES_BUDGET
            < series + (cap + 2) * 1711)
    assert size_error("all", 300, cap) is None
    assert size_error("all", 300, cap + 1) == (
        "suite all at --order 300 --max 626964 would hold about 1024 MiB "
        "of series and tables, past the 1024 MiB budget")
    # the tables alone at the old cap, and the series alone, each fit the
    # budget, but one run holds both
    assert 627_552 * 1711 <= verify.BYTES_BUDGET
    assert size_error("all", 300, 627_551) is not None
    assert "MiB of series and tables" in size_error("all", 1_000_000_001, 10)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_table_budget_bounds_max(monkeypatch, name):
    per_n = _table_bytes(name)
    if name == "dkm":
        assert per_n == 0
        return
    # a budget of exactly the tables at --max 10**6, and series that fit
    monkeypatch.setattr(verify, "series_bytes", lambda order: 0)
    monkeypatch.setattr(verify, "BYTES_BUDGET", per_n * (10 ** 6 + 1))
    assert size_error(name, 200, 10 ** 6) is None
    flags, what = _legs(name, 200, 1000001)
    refusal = (f"suite {name} at {flags} would hold about "
               f"{per_n * (10 ** 6 + 2) >> 20} MiB of {what}, past the "
               f"{per_n * (10 ** 6 + 1) >> 20} MiB budget")
    assert size_error(name, 200, 10 ** 6 + 1) == refusal
    # the series estimate reads --order alone, never --max
    calls = []
    monkeypatch.setattr(verify, "series_bytes",
                        lambda order: calls.append(order) or 0)
    assert size_error(name, 200, 10 ** 6 + 1) == refusal
    assert calls == ([200] if name in FOLLOWS_ORDER else [])


@pytest.mark.parametrize("name, per_n, mib", [("corollary", 249, 2374),
                                              ("all", 1711, 16317)])
def test_table_budget_counts_the_batch_sweeps(monkeypatch, name, per_n, mib):
    # corollary's row holds the triple tables and the sum side's build; the
    # propositions row adds the parity walk, the signed product and the
    # six-term expansion, and "all" adds every row
    assert _table_bytes(name) == per_n
    assert size_error(name, 300, 3000) is None
    monkeypatch.setattr(verify, "series_bytes", lambda order: 0)
    assert size_error(name, 300, verify.BYTES_BUDGET // per_n - 1) is None
    flags, what = _legs(name, 300, 10000000)
    assert size_error(name, 300, 10 ** 7) == (
        f"suite {name} at {flags} would hold about {mib} MiB of {what}, "
        "past the 1024 MiB budget")


def test_bijections_row_counts_the_sigma0_its_lane_reads():
    # h12 at 4*max + 1 entries (79 bytes per n), sigma0 (9) and the
    # progression cursors with a window (138)
    assert _table_bytes("bijections") == 79 + 9 + 138
    cap = 4_751_069
    assert (cap + 1) * 226 <= verify.BYTES_BUDGET < (cap + 2) * 226
    assert size_error("bijections", 300, cap) is None
    assert size_error("bijections", 300, cap + 1) == (
        "suite bijections at --max 4751070 would hold about 1024 MiB of "
        "tables, past the 1024 MiB budget")


def _bumped(monkeypatch, holder, attr, bump):
    """Patch ``holder.attr`` so that ``bump`` edits a copy of its result."""
    real = getattr(holder, attr)

    def patched(*args):
        out = real(*args)
        if isinstance(out, tuple):
            out = tuple(a.copy() for a in out)
        else:
            out = out.copy()
        bump(args, out)
        return out

    monkeypatch.setattr(holder, attr, patched)


def _bump_triples(n, shifted):
    def bump(args, out):
        if args[1] == shifted and len(out[1]) > n:
            out[1][n] += 1  # one signed triple more at n
    return bump


def _bump_h12(N):
    def bump(args, out):
        if len(out) > N:
            out[N] += 1
    return bump


def _bump_unsigned(n):
    def bump(args, out):
        if len(out[1]) > n:
            out[1][n] += 1
    return bump


# (suite, check, n, what the batch route reads, its corruption, whether the
# per-n oracle sees it too); every n is past PER_N_PREFIX
_PAST_THE_PREFIX = [
    ("corollary", "closed_form_odd_n", 301, "_kernels", "triple_tables",
     _bump_triples(301, True), False),
    ("corollary", "closed_form_even_n", 302, "_kernels", "triple_tables",
     _bump_triples(302, False), False),
    ("background", "hurwitz_doubling_7_mod_8", 303, "verify",
     "hurwitz_table", _bump_h12(4 * 303), False),
    ("propositions", "three_squares_parity_bijection", 304, "_kernels",
     "signed_rep_tables", _bump_unsigned(304), True),
]


@pytest.mark.parametrize("suite, check, n, module, attr, bump, per_n_sees",
                         _PAST_THE_PREFIX)
def test_batch_corruption_past_the_prefix_fails_at_that_n(
        monkeypatch, capsys, suite, check, n, module, attr, bump, per_n_sees):
    from qident import _kernels
    from qident.cli import main

    assert n > verify.PER_N_PREFIX
    _bumped(monkeypatch, {"_kernels": _kernels, "verify": verify}[module],
            attr, bump)
    (report,) = run_suites(suite, 32, 320)
    (failure,) = report.failures
    assert (failure.name, failure.locus) == (check, n)
    if per_n_sees:
        # the per-n oracle reads the same table: its values are reported
        assert (failure.expected, failure.actual) == ("True", "False")
    else:
        assert failure.actual == "only the batch tables fail"
        assert failure.expected.endswith(" and the batch tables agree")
    assert main(["verify", "--suite", suite, "--order", "32",
                 "--max", "320"]) == 1
    assert f"[FAIL] {check} at {n}:" in capsys.readouterr().out


def test_per_n_closed_form_pins_the_prefix(monkeypatch):
    from qident import _kernels, counting

    real = counting.signed_formula_odd
    monkeypatch.setattr(counting, "signed_formula_odd",
                        lambda n: real(n) + (n == 21))
    (report,) = run_suites("corollary", 32, 320)
    signed, _ = _kernels.signed_rep_tables(21)
    assert [(c.name, c.locus, c.expected, c.actual)
            for c in report.failures] == [
        ("closed_form_odd_n", 21, str(signed[21]), str(signed[21] + 1))]


def test_per_n_hurwitz_pins_the_prefix(monkeypatch):
    from fractions import Fraction

    from qident.quadforms import hurwitz_H

    monkeypatch.setattr(verify, "hurwitz_H",
                        lambda N: hurwitz_H(N) + (N == 44))
    (report,) = run_suites("background", 32, 320)
    assert [(c.name, c.locus, c.expected, c.actual)
            for c in report.failures] == [
        ("hurwitz_doubling_3_mod_8", 11, str(4 * hurwitz_H(11)),
         str(hurwitz_H(44) + 1))]
    assert hurwitz_H(44) + 1 != Fraction(4) * hurwitz_H(11)


@pytest.mark.parametrize("n", [13, 36])
def test_per_n_parity_images_pin_the_prefix(monkeypatch, n):
    # every n of the prefix runs the per-n arm, not only multiples of four
    from qident import counting

    real = counting.parity_bijection_images
    monkeypatch.setattr(counting, "parity_bijection_images",
                        lambda m: None if m == n else real(m))
    (report,) = run_suites("propositions", 32, 320)
    assert [(c.name, c.locus, c.expected, c.actual)
            for c in report.failures] == [
        ("three_squares_parity_bijection", n, "True", "False")]


@pytest.mark.parametrize("batch, per_n, want", [
    (None, None, None),
    (151, None, (151, "oracle and the batch tables agree",
                 "only the batch tables fail")),
    (None, 101, (101, "0", "1")),
    (151, 101, (101, "0", "1")),
    (101, 151, (101, "oracle and the batch tables agree",
                "only the batch tables fail")),
    (101, 101, (101, "0", "1")),
    (301, 301, (301, "0", "1")),   # past the prefix: one oracle call
])
def test_pinned_check_fails_at_the_first_failure_of_either_route(
        batch, per_n, want):
    ns = range(1, 400, 2)
    fails = np.array([n == batch for n in ns])
    calls = []

    def oracle(n):
        calls.append(n)
        return 0, int(n == per_n)

    check = verify._pinned_check("demo", ns, fails, oracle, "oracle")
    if want is None:
        assert check.passed
    else:
        assert (check.locus, check.expected, check.actual) == want
    stop = min(want[0] if want else 401, verify.PER_N_PREFIX + 1)
    # the oracle runs on the prefix up to the failure, then at it
    assert calls[:len(range(1, stop, 2))] == list(range(1, stop, 2))
    assert len(calls) <= len(range(1, stop, 2)) + 1
