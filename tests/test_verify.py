"""Suite orchestration: pass/fail reporting, determinism, corruption tests."""

import json

import pytest

from qident.report import Check, VerificationReport, series_check, sweep_check
from qident.series import GaussianRational, QSeries
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
    counted(V, "hurwitz_table")
    counted(C, "hurwitz_table")
    counted(_kernels, "triple_tables")
    counted(_kernels, "sigma_table")
    reports = run_suites("all", 32, 60)
    assert all(r.passed for r in reports)
    def args_of(attr):
        return [args for name, args in calls if name == attr]

    assert args_of("product_side_series") == [(61,)]
    assert args_of("hurwitz_table") == [(240,)]
    assert [a for a in args_of("triple_tables") if a[0] == 60] == [
        (60, False), (60, True)]
    assert args_of("sigma_table") == [(60, 0)]


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
MAX_SERIES = ("theorem17", "propositions", "background", "all")
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


@pytest.mark.parametrize("name", ALL_NAMES)
def test_series_budget_bounds_max_for_the_suites_that_build_max_series(
        monkeypatch, name):
    from qident.series import series_bytes

    # the budget admits series below q^3001 and nothing longer
    monkeypatch.setattr(verify, "BYTES_BUDGET", series_bytes(3001))
    if name in MAX_SERIES:
        assert size_error(name, 200, 3000) is None
        err = size_error(name, 200, 3001)
        assert err.startswith(f"suite {name} at --max 3001 ")
        assert "of series" in err and "budget" in err
    else:
        # only the tables may bind --max here
        assert "series" not in (size_error(name, 200, 10 ** 6) or "")
    # --order counts for the suites that read it
    err = size_error(name, 3002, 10)
    if name in FOLLOWS_ORDER:
        assert "--order 3002" in err and "of series" in err
    else:
        assert err is None


@pytest.mark.parametrize("name", ALL_NAMES)
def test_series_budget_keeps_the_stress_size_and_refuses_a_large_max(name):
    assert size_error(name, 300, 3000) is None
    err = size_error(name, 200, 200_000)
    if name in MAX_SERIES:
        assert "--max 200000" in err and "of series" in err
    else:
        assert err is None


@pytest.mark.parametrize("name", ALL_NAMES)
def test_table_budget_bounds_max(monkeypatch, name):
    from qident.series import series_bytes

    per_n = sum(verify._SIZES[n].table_bytes
                for n in (SUITE_NAMES if name == "all" else (name,)))
    if name == "dkm":
        assert per_n == 0
        return
    # a budget of exactly the tables at --max 10**6, and series that fit
    monkeypatch.setattr(verify, "series_bytes", lambda order: 0)
    monkeypatch.setattr(verify, "BYTES_BUDGET", per_n * (10 ** 6 + 1))
    assert size_error(name, 200, 10 ** 6) is None
    assert size_error(name, 200, 10 ** 6 + 1) == (
        f"suite {name} at --max 1000001 would hold about "
        f"{per_n * (10 ** 6 + 2) >> 20} MiB of tables, past the "
        f"{per_n * (10 ** 6 + 1) >> 20} MiB budget")
    # the series are checked first
    monkeypatch.setattr(verify, "series_bytes", series_bytes)
    if name in MAX_SERIES:
        assert "of series" in size_error(name, 200, 10 ** 6 + 1)

