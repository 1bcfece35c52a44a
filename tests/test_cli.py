"""CLI contract: exit codes, formats, column handling."""

import csv
import io
import json

import pytest

from qident.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_json_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "dkm",
                           "--order", "60", "--max", "80", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["suite"] == "dkm"
    assert payload["parameters"] == {"order": 60, "max": 80}
    for check in payload["checks"]:
        assert check["status"] == "pass"
        assert set(check) == {"name", "status", "locus", "expected", "actual"}


def test_verify_json_roundtrips(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "corollary",
                           "--order", "40", "--max", "60", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert json.loads(json.dumps(payload)) == payload


def test_verify_all_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "all",
                           "--order", "32", "--max", "60")
    assert code == 0
    assert out.count("suite:") == 7
    assert "FAIL" not in out


def test_verify_unknown_suite_is_usage_error(capsys):
    code = main(["verify", "--suite", "bogus"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("verify", "--order", "1"),
    ("verify", "--max", "5"),
    ("verify", "--max", "-3"),
    ("table", "--max", "-1"),
    ("verify", "--suite", "bijections", "--max", "6"),
    ("verify", "--suite", "bijections", "--max", "0"),
    # every suite with checks at n = 7 mod 8 refuses a --max that reads no
    # such n, and corollary one that reads no even n
    ("verify", "--suite", "theorem61", "--max", "0"),
    ("verify", "--suite", "theorem61", "--max", "6"),
    ("verify", "--suite", "theorem17", "--max", "6"),
    ("verify", "--suite", "propositions", "--max", "6"),
    ("verify", "--suite", "corollary", "--max", "0"),
    ("verify", "--suite", "corollary", "--max", "1"),
    ("table", "--columns", ","),
    ("table", "--columns", " "),
])
def test_out_of_range_sizes_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "theorem61", "--max", "300000000000000000"),
    ("verify", "--suite", "bijections", "--max", "268435456"),
])
def test_sizes_past_the_int64_guards_are_usage_errors(capsys, monkeypatch,
                                                      argv):
    from qident import verify

    def no_tables(maxn):
        raise AssertionError("a table was built")

    monkeypatch.setattr(verify, "Tables", no_tables)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "--max <=" in err


@pytest.mark.parametrize("suite", ["dkm", "background"])
def test_order_past_the_kernel_bound_is_a_usage_error(capsys, monkeypatch,
                                                      suite):
    from qident import verify

    def no_run(name, order, maxn):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(verify, "run_suites", no_run)
    code, out, err = run_cli(capsys, "verify", "--suite", suite,
                             "--order", "4611686018427387904")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "--order <=" in err


@pytest.mark.parametrize("suite", ["dkm", "background", "all"])
def test_order_past_the_series_budget_is_a_usage_error(capsys, monkeypatch,
                                                       suite):
    from qident import verify
    from qident.series import series_bytes

    ran = []
    monkeypatch.setattr(verify, "run_suites",
                        lambda name, order, maxn: ran.append(order) or [])
    # room for the series below q^4000 and the tables at --max 10, which
    # one run holds together
    per_n = sum(verify._SIZES[n].table_bytes
                for n in (verify.SUITE_NAMES if suite == "all" else (suite,)))
    monkeypatch.setattr(verify, "BYTES_BUDGET",
                        series_bytes(4000) + per_n * 11)
    code, out, err = run_cli(capsys, "verify", "--suite", suite,
                             "--order", "4001", "--max", "10")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "budget" in err
    assert run_cli(capsys, "verify", "--suite", suite, "--order", "4000",
                   "--max", "10")[0] == 0
    assert ran == [4000]


def test_series_budget_leaves_suites_that_ignore_order_alone(capsys,
                                                             monkeypatch):
    from qident import verify

    monkeypatch.setattr(verify, "run_suites", lambda name, order, maxn: [])
    # room for corollary's tables at --max 10, none for series at --order
    monkeypatch.setattr(verify, "BYTES_BUDGET", 1 << 20)
    assert run_cli(capsys, "verify", "--suite", "corollary",
                   "--order", "1000000001", "--max", "10")[0] == 0


@pytest.mark.parametrize("suite", ["theorem17", "propositions",
                                   "background", "all"])
def test_max_past_the_series_budget_is_a_usage_error(capsys, monkeypatch,
                                                     suite):
    # no suite builds series at --max: a budget of the series below q^3001
    # leaves --max 3001 alone, and --max is a usage error only once its
    # tables, with the series at --order for the suites that follow it,
    # pass the budget
    from qident import verify
    from qident.series import series_bytes

    ran = []
    monkeypatch.setattr(verify, "run_suites",
                        lambda name, order, maxn: ran.append(maxn) or [])
    budget = series_bytes(3001)
    monkeypatch.setattr(verify, "BYTES_BUDGET", budget)
    names = verify.SUITE_NAMES if suite == "all" else (suite,)
    per_n = sum(verify._SIZES[n].table_bytes for n in names)
    # the suites that follow --order hold their series below q^200 too
    follows = any(verify._SIZES[n].follows_order for n in names)
    top = (budget - (series_bytes(200) if follows else 0)) // per_n - 1
    assert top > 3001
    code, out, err = run_cli(capsys, "verify", "--suite", suite,
                             "--order", "200", "--max", str(top + 1))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and f"--max {top + 1}" in err
    assert "tables, past" in err and "budget" in err
    for maxn in (3001, top):
        assert run_cli(capsys, "verify", "--suite", suite, "--order", "200",
                       "--max", str(maxn))[0] == 0
    assert ran == [3001, top]


def test_a_max_past_the_real_series_budget_is_refused(capsys, monkeypatch):
    # no series estimate reads --max: --max 200000 runs, and "all" is
    # refused past the cap of its series and tables at the default --order
    # without running a suite
    from qident import verify

    ran = []
    monkeypatch.setattr(verify, "run_suites",
                        lambda name, order, maxn: ran.append(maxn) or [])
    assert run_cli(capsys, "verify", "--suite", "theorem17",
                   "--max", "200000")[0] == 0
    assert ran == [200000]

    def no_run(name, order, maxn):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(verify, "run_suites", no_run)
    code, out, err = run_cli(capsys, "verify", "--suite", "all",
                             "--max", "627169")
    assert code == 2
    assert out == ""
    assert err == ("error: suite all at --order 200 --max 627169 would "
                   "hold about 1024 MiB of series and tables, past the "
                   "1024 MiB budget\n")


def test_series_budget_admits_the_benchmark_orders_widely():
    from qident import verify
    from qident.series import series_bytes

    budget = verify.BYTES_BUDGET
    assert series_bytes(300) < series_bytes(4000) < budget // 50
    assert series_bytes(1_000_000_001) > budget


def test_a_max_past_the_real_table_budget_is_refused(capsys, monkeypatch):
    from qident import verify

    def no_tables(maxn):
        raise AssertionError("a table was built")

    monkeypatch.setattr(verify, "Tables", no_tables)
    code, out, err = run_cli(capsys, "verify", "--suite", "theorem61",
                             "--max", "1000000000")
    assert code == 2
    assert out == ""
    assert err == ("error: suite theorem61 at --max 1000000000 would hold "
                   "about 259399 MiB of tables, past the 1024 MiB budget\n")


def test_verify_failure_exit_code(capsys, monkeypatch):
    from qident import _kernels

    real = _kernels.sigma_table

    def broken(maxn, k=0):
        table = real(maxn, k).copy()
        table[-1] += 1
        return table

    monkeypatch.setattr(_kernels, "sigma_table", broken)
    code, out, _ = run_cli(capsys, "verify", "--suite", "theorem61",
                           "--order", "32", "--max", "59")
    assert code == 1
    assert "FAIL" in out


def test_internal_error_exits_3(capsys, monkeypatch):
    from qident import verify

    def broken(order, maxn, tables=None):
        raise RuntimeError("table missing")

    monkeypatch.setitem(verify._SUITES, "theorem61", broken)
    code, out, err = run_cli(capsys, "verify", "--suite", "theorem61",
                             "--order", "32", "--max", "60")
    assert code == 3
    assert out == ""
    assert err == "error: internal: RuntimeError: table missing\n"


def test_table_computes_only_the_requested_columns(capsys, monkeypatch):
    from qident import oracles

    _, full, _ = run_cli(capsys, "table", "--max", "40", "--format", "csv")

    def not_requested(*args):
        raise AssertionError("a column that was not asked for")

    for name in ("rep_squares", "rep_count", "signed_rep_count"):
        monkeypatch.setattr(oracles, name, not_requested)
    code, out, _ = run_cli(capsys, "table", "--max", "40", "--columns",
                           "n,H", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(full)))
    n, h = rows[0].index("n"), rows[0].index("H")
    assert list(csv.reader(io.StringIO(out))) == [[r[n], r[h]] for r in rows]


def test_table_columns_match_the_batch_tables(capsys):
    from fractions import Fraction

    from qident import _kernels
    from qident.quadforms import hurwitz_table

    maxn = 400
    code, out, _ = run_cli(capsys, "table", "--max", str(maxn), "--format",
                           "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [int(r["n"]) for r in rows] == list(range(maxn + 1))

    def column(name, parse=int):
        return [parse(r[name]) for r in rows]

    signed, unsigned = _kernels.signed_rep_tables(maxn)
    h12 = hurwitz_table(4 * maxn)
    assert column("a") == signed.tolist()
    assert column("b") == unsigned.tolist()
    assert column("r3") == _kernels.square_rep_tables(3, maxn).tolist()
    assert column("H", Fraction) == [Fraction(int(h12[n]), 12)
                                     for n in range(maxn + 1)]
    assert column("H4", Fraction) == [Fraction(int(h12[4 * n]), 12)
                                      for n in range(maxn + 1)]
    assert rows[0]["sigma0"] == ""
    assert ([int(r["sigma0"]) for r in rows[1:]]
            == _kernels.sigma_table(maxn, 0)[1:].tolist())


def test_table_walks_each_row_orthant_once(capsys, monkeypatch):
    from qident import cli, oracles, quadforms

    calls = dict.fromkeys(("signed_rep_count", "rep_count", "hurwitz_H",
                           "enumerate_reduced"), 0)

    def count_calls(module, name):
        original = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)

    # through the module bindings, as the benchmark's tracer wraps them
    count_calls(oracles, "signed_rep_count")
    count_calls(oracles, "rep_count")
    count_calls(cli, "hurwitz_H")
    count_calls(quadforms, "enumerate_reduced")
    oracles._orthant_solutions.cache_clear()
    maxn = 300
    code, out, _ = run_cli(capsys, "table", "--max", str(maxn), "--format",
                           "csv")
    assert code == 0
    walks = oracles._orthant_solutions.cache_info()
    assert (walks.misses, walks.hits) == (maxn + 1, maxn + 1)
    assert calls["signed_rep_count"] == calls["rep_count"] == maxn + 1
    # H and H4 at every row; the table lists no forms
    assert calls["hurwitz_H"] == 2 * (maxn + 1)
    assert calls["enumerate_reduced"] == 0

    monkeypatch.undo()
    want = [["n", "a", "b", "r3", "H", "H4", "sigma0"]]
    for n in range(maxn + 1):
        want.append([str(v) for v in (
            n, oracles.signed_rep_count(n), oracles.rep_count(n),
            oracles.rep_squares(3, n), quadforms.hurwitz_H(n),
            quadforms.hurwitz_H(4 * n))]
            + [str(oracles.sigma(0, n)) if n else ""])
    assert list(csv.reader(io.StringIO(out))) == want


def test_table_text_rows(capsys):
    code, out, _ = run_cli(capsys, "table", "--max", "7")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["n", "a", "b", "r3", "H", "H4", "sigma0"]
    assert lines[1].split() == ["0", "1", "1", "1", "-1/12", "-1/12", "-"]
    assert lines[4].split() == ["3", "8", "8", "8", "1/3", "4/3", "2"]
    assert lines[8].split() == ["7", "0", "0", "0", "1", "2", "2"]


def test_table_csv(capsys):
    code, out, _ = run_cli(capsys, "table", "--max", "3", "--format", "csv")
    assert code == 0
    assert "\r" not in out
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "a", "b", "r3", "H", "H4", "sigma0"]
    assert rows[1] == ["0", "1", "1", "1", "-1/12", "-1/12", ""]
    assert rows[4] == ["3", "8", "8", "8", "1/3", "4/3", "2"]


def test_table_json_column_subset(capsys):
    code, out, _ = run_cli(capsys, "table", "--max", "3",
                           "--columns", "n,a,H", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload[3] == {"n": 3, "a": 8, "H": "1/3"}
    assert payload[0]["H"] == "-1/12"


def test_table_unknown_column(capsys):
    code, _, err = run_cli(capsys, "table", "--columns", "n,zorp")
    assert code == 2
    assert "zorp" in err


def test_bijection_text(capsys):
    code, out, _ = run_cli(capsys, "bijection", "5")
    assert code == 0
    assert "(2,1,1) cat3 -> (2,2,3) cat3" in out
    assert "result: PASS" in out


def test_bijection_triple_preimages(capsys):
    code, out, _ = run_cli(capsys, "bijection", "11", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 11
    assert len(payload["triples"]) == 5
    images = [tuple(t["form"]) for t in payload["triples"] if t["case"] == "3b"]
    assert images.count((1, 1, 3)) == 3
    assert payload["summary"]["checks"]


def test_bijection_past_the_int64_bound_is_usage_error(capsys):
    from qident.counting import TRIPLE_N_LIMIT

    code, out, err = run_cli(capsys, "bijection", str(TRIPLE_N_LIMIT + 1))
    assert code == 2
    assert out == "" and "int64" in err


def test_bijection_rejects_0_mod_4(capsys):
    code, _, err = run_cli(capsys, "bijection", "4")
    assert code == 2
    assert "residue" in err
