"""The window lane of the bijection checks, pinned to the per-n route."""

import inspect
import itertools
import tracemalloc

import numpy as np
import pytest

import qident.bijection_windows as W
import qident.bijections as B
import qident.verify as V
from qident import _kernels
from qident import counting as C
from qident.cli import main
from qident.quadforms import enumerate_reduced, hurwitz_table
from qident.verify import run_suites
from package_calls import package_calls


def _add_failures(out, lo, failed):
    for name, fails in failed.items():
        for i in np.flatnonzero(fails):
            out.setdefault(lo + int(i), set()).add(name)


def lane_failures(maxn, h12=None):
    """{n: set of check names the lane fails at n} over 1..maxn."""
    h12 = hurwitz_table(4 * maxn) if h12 is None else h12
    out = {}
    for lo, failed in W.verify_windows(maxn, h12,
                                       _kernels.sigma_table(maxn, 0)):
        _add_failures(out, lo, failed)
    return out


def walked_failures(maxn, h12, width):
    """``lane_failures`` from windows of ``width`` n whose terms come from
    a walk of every pair up to the window's end, less the terms at
    n = 0 mod 4: the enumeration of the lane before its cursors."""
    sigma0 = _kernels.sigma_table(maxn, 0)
    out = {}
    for lo in range(1, maxn + 1, width):
        hi = min(lo + width - 1, maxn)
        terms = {}
        for family in (C.OPEN, C.SHIFTED, 4, 1):
            blocks = list(_kernels._term_blocks(
                _kernels._pair_blocks(family, hi), lo, hi))
            cols = [np.concatenate(col) for col in zip(*blocks)] or [
                np.zeros(0, dtype=np.int64)] * 4
            keep = cols[0] % 4 != 0
            terms[family] = tuple(col[keep] for col in cols)
        _add_failures(out, lo, W._window_failures(lo, hi, terms, h12,
                                                  sigma0))
    return out


def lane_arrays(maxn):
    """The lane's triples, -4n forms and -n forms for n <= maxn, window
    after window."""
    parts = [(W._window_triples(lo, terms[C.OPEN], terms[C.SHIFTED]),
              W._window_forms(lo, terms[4]), W._window_forms(lo, terms[1]))
             for lo, _, terms in W._term_windows(maxn)]
    return tuple(tuple(np.concatenate(col) for col in zip(*kind))
                 for kind in zip(*parts))


def test_lane_enumerates_the_per_n_triples_and_forms():
    (n, r, s, t), quarter, minus_n = lane_arrays(1500)
    for m in range(1, 1501):
        if m % 4 == 0:
            assert not (n == m).any()
            continue
        shape = C.OPEN if m % 4 == 2 else C.SHIFTED
        sel = n == m
        got = list(zip(r[sel].tolist(), s[sel].tolist(), t[sel].tolist()))
        assert got == list(C.iter_solution_triples(m, shape)), m
        for (fn, a, b, c), D in ((quarter, -4 * m), (minus_n, -m)):
            sel = fn == m
            got = list(zip(a[sel].tolist(), b[sel].tolist(), c[sel].tolist()))
            want = ([(f.a, f.b, f.c) for f in enumerate_reduced(D)]
                    if D % 4 == 0 or m % 4 == 3 else [])
            assert got == want, (m, D)


def test_per_n_route_shares_only_the_inverse_maps_with_the_lane():
    # verify_case pins the lane on the prefix, so the two enumerate their
    # triples, forms and class numbers apart.  Allowed: the inverse maps
    # (and their lambdas), the paper's formulas, which the lane imports so
    # that each route's own forward map is checked against them
    h12, sigma0 = hurwitz_table(4 * 250), _kernels.sigma_table(250, 0)
    per_n = package_calls(
        lambda: [B.verify_case(n) for n in range(1, 251) if n % 4])
    lane = package_calls(lambda: list(W.verify_windows(250, h12, sigma0)))
    spans = []
    for inverse in (B._open_inverse, B._shifted_inverse, B._half_inverse):
        lines, first = inspect.getsourcelines(inverse)
        spans.append(range(first, first + len(lines)))
    allowed = {
        (file, line, name) for file, line, name in per_n
        if file == "bijections.py" and any(line in span for span in spans)}
    # the recorder sees each route's enumeration, and the per-n divisor
    # count that the lane reads from its sigma0 table instead
    assert any(name == "iter_solution_triples" for _, _, name in per_n)
    assert any(name == "sigma" for _, _, name in per_n)
    assert ("_kernels.py", _kernels.ProgressionCursor.take.__code__
            .co_firstlineno, "take") in lane
    assert not (per_n & lane) - allowed, sorted((per_n & lane) - allowed)


def test_lane_classifies_and_maps_like_the_oracles():
    (n, r, s, t), (qn, qa, qb, qc), _ = lane_arrays(1500)
    chi = n % 2
    u, v = 2 * s - chi, 2 * t - chi
    cat = W._triple_categories(r, u, v)
    a, b, c = W._images(cat, r, u, v)
    for i in range(len(n)):
        tr = B.Triple(int(r[i]), int(s[i]), int(t[i]), int(n[i]),
                      C.OPEN if n[i] % 4 == 2 else C.SHIFTED)
        assert B.classify_triple(tr) == cat[i]
        f = B.map_triple(tr)
        halved = 2 if B.case_of(tr.n, tr.r) in ("3b", "4b") else 1
        assert (halved * f.a, halved * f.b, halved * f.c) == (a[i], b[i], c[i])
    fcat = W._form_categories(qn % 4, qa, qb, qc)
    for i in range(len(qn)):
        m = int(qn[i])
        case = {1: "2", 2: "1", 3: "3a"}[m % 4]
        f = B.QuadForm(int(qa[i]), int(qb[i]), int(qc[i]))
        assert B.classify_form(f, case, m) == fcat[i]


def test_lane_outcome_equals_verify_case_to_1500():
    lane = lane_failures(1500)
    for n in range(1, 1501):
        if n % 4:
            per_n = {c.name for c in B.verify_case(n).failures}
            assert lane.get(n, set()) == per_n, n


def test_lane_across_many_windows(monkeypatch):
    # one window against many: the same rows, and every window consecutive
    # and within its budget of kept terms, or a single n
    with monkeypatch.context() as mp:
        mp.setattr(_kernels, "BLOCK", 1 << 24)
        assert len(list(W._term_windows(1500))) == 1
        whole = lane_arrays(1500)
    monkeypatch.setattr(_kernels, "BLOCK", 4096)
    spans = [(lo, hi, sum(len(cols[0]) for cols in terms.values()))
             for lo, hi, terms in W._term_windows(1500)]
    assert len(spans) > 20
    assert [lo for lo, _, _ in spans] == [1] + [hi + 1
                                                for _, hi, _ in spans[:-1]]
    assert spans[-1][1] == 1500
    assert all(kept <= W._window_budget() or lo == hi
               for lo, hi, kept in spans)
    for got, want in zip(lane_arrays(1500), whole):
        assert [col.tolist() for col in got] == [col.tolist() for col in want]
    assert lane_failures(1500) == {}


@pytest.mark.parametrize("maxn, small", [(3000, 1 << 12), (18000, 1 << 15)])
def test_cursor_fails_where_the_walk_of_every_pair_fails(monkeypatch, maxn,
                                                          small):
    # with a late triple dropped and an h12 entry bumped, both past the
    # prefix, the lane fails the checks that the walked enumeration fails,
    # at the same n and nowhere else, with the default BLOCK and a small
    # one (many more windows); clean, it fails nowhere (at 18000 the
    # faulted runs show that everywhere but at the two faults)
    h12 = hurwitz_table(4 * maxn)
    blocks = (_kernels.BLOCK, small)
    if maxn <= 3000:
        for block in blocks:
            monkeypatch.setattr(_kernels, "BLOCK", block)
            assert lane_failures(maxn, h12) == {}
    dropped, bumped = maxn - 3, maxn // 2 + 1  # 1 mod 4, past the prefix
    h12[4 * bumped] += 12
    real = W._window_triples
    monkeypatch.setattr(W, "_window_triples",
                        lambda *args: _drop_first(real(*args), dropped))
    want = walked_failures(maxn, h12, 250)
    assert set(want) == {dropped, bumped}
    for block in blocks:
        monkeypatch.setattr(_kernels, "BLOCK", block)
        assert lane_failures(maxn, h12) == want


def _drop_first(arrays, at, disc=None):
    """The n-sorted rows ``(n, ...)`` without the first at n = ``at``
    (among the forms of discriminant ``disc``, when given)."""
    n = arrays[0]
    hit = n == at
    if disc is not None:
        _, a, b, c = arrays
        hit &= b * b - 4 * a * c == disc
    if not hit.any():
        return arrays
    keep = np.ones(len(n), dtype=bool)
    keep[np.flatnonzero(hit)[0]] = False
    return tuple(x[keep] for x in arrays)


@pytest.mark.parametrize("n, what", [
    (301, "triple"),     # 5 mod 8
    (302, "quarter"),    # -4n, 2 mod 4
    (307, "minus_n"),    # 3 mod 8
    (311, "minus_n"),    # 7 mod 8
    (301, "hurwitz"),
])
def test_corruption_past_the_prefix_fails_like_verify_case(monkeypatch, n,
                                                            what):
    # each corruption once in the lane (n > PER_N_PREFIX, so the suite has
    # only the lane there) and once in the per-n route; the failed check
    # names at n must agree.  A bumped h12 reaches only the lane, as the
    # per-n route takes its class numbers from hurwitz_H
    assert n > V.PER_N_PREFIX
    with monkeypatch.context() as mp:
        if what == "triple":
            real = W._window_triples
            mp.setattr(W, "_window_triples",
                       lambda *args: _drop_first(real(*args), n))
        elif what == "hurwitz":
            real = V.hurwitz_table

            def bumped(X):
                table = real(X)
                table[4 * n] += 1
                return table

            mp.setattr(V, "hurwitz_table", bumped)
        else:
            disc = -4 * n if what == "quarter" else -n
            real = W._window_forms
            mp.setattr(W, "_window_forms",
                       lambda *args: _drop_first(real(*args), n, disc))
        (report,) = run_suites("bijections", 32, 320)
    assert report.failures
    assert {c.locus for c in report.failures} == {n}
    lane = {c.name for c in report.failures}
    if what == "hurwitz":
        assert [(c.name, c.actual) for c in report.failures] == [
            ("count_identity", "only the window lane fails")]
        assert B.verify_case(n).passed
        return

    with monkeypatch.context() as mp:
        if what == "triple":
            real = B.iter_solution_triples
            mp.setattr(B, "iter_solution_triples",
                       lambda m, shape: itertools.islice(
                           real(m, shape), 1 if m == n else 0, None))
        else:
            D = -4 * n if what == "quarter" else -n
            real = B.enumerate_reduced
            mp.setattr(B, "enumerate_reduced",
                       lambda D_: real(D_)[1:] if D_ == D else real(D_))
        per_n = {c.name for c in B.verify_case(n).failures}
    assert lane == per_n


def test_lane_only_failure_fails_the_suite(monkeypatch):
    # the lane loses a triple at n = 21, inside the prefix, where
    # verify_case still passes: the disagreement is a failure
    real = W._window_triples
    monkeypatch.setattr(W, "_window_triples",
                        lambda *args: _drop_first(real(*args), 21))
    (report,) = run_suites("bijections", 32, 60)
    assert {c.locus for c in report.failures} == {21}
    assert all(c.actual == "only the window lane fails"
               for c in report.failures)


@pytest.mark.parametrize("target, error", [
    ("triples", B.NotASolution),
    ("forms", B.CaseMismatch),
])
def test_lane_raises_what_verify_case_raises(monkeypatch, target, error):
    # the same corruption in each route: r + 1 on every triple, or b + 1,
    # which moves the discriminant, on every reduced form
    if target == "triples":
        real = W._window_triples

        def broken(*args):
            n, r, s, t = real(*args)
            return n, r + 1, s, t
        monkeypatch.setattr(W, "_window_triples", broken)
        real_n = B.iter_solution_triples
        monkeypatch.setattr(B, "iter_solution_triples", lambda *args: (
            (r + 1, s, t) for r, s, t in real_n(*args)))
    else:
        real = W._window_forms

        def broken(*args):
            n, a, b, c = real(*args)
            return n, a, b + 1, c
        monkeypatch.setattr(W, "_window_forms", broken)
        real_n = B.enumerate_reduced
        monkeypatch.setattr(B, "enumerate_reduced", lambda D: [
            B.QuadForm(f.a, f.b + 1, f.c) for f in real_n(D)])
    with pytest.raises(error):
        lane_failures(60)
    with pytest.raises(error):
        B.verify_case(21)


@pytest.mark.parametrize("n", [21, 301])
def test_image_off_its_discriminant_fails_a_check(monkeypatch, capsys, n):
    # the image of n's first triple gets c + 1: still positive definite,
    # but off -4n; inside and past the prefix, both routes fail the same
    # checks at n, image_discriminant among them, and the CLI exits 1
    shape = C.OPEN if n % 4 == 2 else C.SHIFTED
    r, s, t = next(C.iter_solution_triples(n, shape))
    ruv = (r, 2 * s - n % 2, 2 * t - n % 2)  # one triple, so one n
    real_images, real_map = W._images, B._map_classified

    def images(cat, r_, u, v):
        a, b, c = real_images(cat, r_, u, v)
        return a, b, c + ((r_ == ruv[0]) & (u == ruv[1]) & (v == ruv[2]))

    def mapped(tr, cat):
        f = real_map(tr, cat)
        if (tr.n, tr.r, tr.s, tr.t) == (n, r, s, t):
            return B.QuadForm(f.a, f.b, f.c + 1)
        return f

    with monkeypatch.context() as mp:
        mp.setattr(W, "_images", images)
        lane = lane_failures(n + 3)
    with monkeypatch.context() as mp:
        mp.setattr(B, "_map_classified", mapped)
        per_n = {c.name for c in B.verify_case(n).failures}
    assert "image_discriminant" in per_n
    assert lane == {n: per_n}

    monkeypatch.setattr(W, "_images", images)
    monkeypatch.setattr(B, "_map_classified", mapped)
    assert main(["verify", "--suite", "bijections", "--max",
                 str(n + 3)]) == 1
    out = capsys.readouterr().out
    assert f"[FAIL] image_discriminant at {n}:" in out


def test_lane_overflow_guard():
    with pytest.raises(OverflowError):
        W.verify_windows(W.WINDOW_N_LIMIT, np.zeros(1, dtype=np.int64),
                         np.zeros(1, dtype=np.int64))


def test_lane_memory_is_bounded():
    h12, sigma0 = hurwitz_table(12000), _kernels.sigma_table(3000, 0)
    tracemalloc.start()
    try:
        for _ in W.verify_windows(3000, h12, sigma0):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
