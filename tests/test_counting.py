"""Counting oracles, kernels, and the sum-side series."""

import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qident import _kernels
from qident import counting as C
from qident.quadforms import (QuadForm, enumerate_reduced_bruteforce,
                              hurwitz_table, is_reduced)
from qident.series import series_eq
from qident.theta import product_side_series
from package_calls import package_calls


def test_divisor_functions():
    assert C.sigma(0, 12) == 6
    assert C.sigma(1, 6) == 12
    assert C.d_mod4(1, 5) - C.d_mod4(3, 5) == 2
    assert C.rep_squares(2, 5) == 8
    with pytest.raises(ValueError):
        C.d_mod4(2, 5)
    with pytest.raises(ValueError):
        C.sigma(0, 0)


def test_rep_squares_spot():
    assert C.rep_squares(3, 1) == 6
    assert C.rep_squares(3, 7) == 0
    assert C.rep_squares(4, 1) == 8
    with pytest.raises(ValueError):
        C.rep_squares(5, 3)


def test_d_mod4_needs_positive_n():
    for n in (0, -3):
        with pytest.raises(ValueError, match="n must be >= 1"):
            C.d_mod4(1, n)
        with pytest.raises(ValueError, match="n must be >= 1"):
            C.d_mod4(3, n)


def _every_vector_counts(coeffs, maxn, signed=False):
    """Count (or sign-count by (-1)**sum(v)) every integer vector v in
    [-m, m]**len(coeffs), m = isqrt(maxn), with sum(c*v*v) = n <= maxn."""
    m = math.isqrt(maxn)
    counts = [0] * (maxn + 1)
    for v in itertools.product(range(-m, m + 1), repeat=len(coeffs)):
        n = sum(c * x * x for c, x in zip(coeffs, v))
        if n <= maxn:
            counts[n] += (-1) ** sum(v) if signed else 1
    return counts


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_rep_squares_match_every_sign_vector(s):
    # the walk of s = 3 skips cells by n mod 4 and x mod 2: 300 covers
    # every residue mod 8 many times
    top = 300 if s == 3 else 100
    assert ([C.rep_squares(s, n) for n in range(top + 1)]
            == _every_vector_counts((1,) * s, top))


def test_rep_counts_match_every_sign_vector():
    assert ([C.rep_count(n) for n in range(301)]
            == _every_vector_counts((1, 2, 2), 300))
    assert ([C.signed_rep_count(n) for n in range(301)]
            == _every_vector_counts((1, 2, 2), 300, signed=True))


def _squares_by_recursion(s, n):
    """Sums of s <= 3 squares as a walk over x >= 0, weight 2 for x > 0,
    of the (s - 1)-square count of n - x^2: a second route to the chamber
    walk of ``rep_squares(3, n)``."""
    m = math.isqrt(n)
    if s == 1:
        return (2 if m else 1) if m * m == n else 0
    return sum((2 if x else 1) * _squares_by_recursion(s - 1, n - x * x)
               for x in range(m + 1))


def test_chamber_walks_match_the_kernels_to_3000():
    r3 = _kernels.square_rep_tables(3, 3000).tolist()
    signed, unsigned = (t.tolist() for t in _kernels.signed_rep_tables(3000))
    assert [C.rep_squares(3, n) for n in range(3001)] == r3
    assert [C.signed_rep_count(n) for n in range(3001)] == signed
    assert [C.rep_count(n) for n in range(3001)] == unsigned
    assert [_squares_by_recursion(3, n) for n in range(1001)] == r3[:1001]


# (n, a solution of n in the walked chamber that takes the weight named)
R3_WEIGHT_CASES = [
    (14, (1, 2, 3)),    # x < y < z: 6 permutations
    (6, (1, 1, 2)),     # x = y < z: 3
    (9, (1, 2, 2)),     # x < y = z: 3
    (13, (0, 2, 3)),    # a zero coordinate, 6 permutations of 4 signs
    *((k * k, (0, 0, k)) for k in range(1, 13)),           # 3 of 2 signs
    *((2 * k * k, (0, k, k)) for k in range(1, 13)),       # 3 of 4 signs
    *((3 * k * k, (k, k, k)) for k in range(1, 13)),       # 1 of 8 signs
]
REP_WEIGHT_CASES = [
    (11, (1, 1, 2)),    # y < z, no zero: 8 signs, doubled by the swap
    (5, (1, 1, 1)),     # y = z: not doubled
    (9, (1, 0, 2)),     # y = 0 < z
    (20, (0, 1, 3)),    # x = 0
    (36, (0, 3, 3)),    # x = 0 and y = z
    *((k * k, (k, 0, 0)) for k in range(1, 13)),           # y = z = 0
    *((2 * k * k, (0, 0, k)) for k in range(1, 13)),
    *((3 * k * k, (k, 0, k)) for k in range(1, 13)),
]


def test_chamber_weights_match_every_sign_vector():
    top = 3 * 12 ** 2
    squares = _every_vector_counts((1, 1, 1), top)
    unsigned = _every_vector_counts((1, 2, 2), top)
    signed = _every_vector_counts((1, 2, 2), top, signed=True)
    for n, (x, y, z) in R3_WEIGHT_CASES:
        assert 0 <= x <= y <= z and x * x + y * y + z * z == n
        assert (C.rep_squares(3, n) == squares[n]
                == _squares_by_recursion(3, n)), n
    for n, (x, y, z) in REP_WEIGHT_CASES:
        assert x >= 0 and 0 <= y <= z and x * x + 2 * y * y + 2 * z * z == n
        assert C.rep_count(n) == unsigned[n], n
        assert C.signed_rep_count(n) == signed[n], n


def test_oracle_guards():
    for n in (-1, -4):
        assert C.rep_count(n) == 0 and C.signed_rep_count(n) == 0
        assert all(C.rep_squares(s, n) == 0 for s in range(1, 5))
    for s in (-1, 0, 5):
        with pytest.raises(ValueError, match="s must be between 1 and 4"):
            C.rep_squares(s, 3)


def test_triangular_counts():
    assert C.r3_triangular(0) == 1
    assert C.r3_triangular(1) == 3
    assert C.r3_triangular(3) == 4


def test_signed_and_unsigned_counts():
    assert C.signed_rep_count(1) == -2 and C.rep_count(1) == 2
    assert C.signed_rep_count(5) == -8 and C.rep_count(5) == 8
    assert C.signed_rep_count(7) == 0 and C.rep_count(7) == 0
    assert C.signed_rep_count(4) == 6


def test_abs_signed_equals_unsigned_small():
    for n in range(200):
        assert abs(C.signed_rep_count(n)) == C.rep_count(n)


def test_triple_sum_examples():
    assert C.triple_sum(5, C.SHIFTED) == 1
    assert list(C.iter_solution_triples(5, C.SHIFTED)) == [(2, 1, 1)]
    assert C.triple_sum(14, C.OPEN) == 2
    assert C.triple_sum(7, C.SHIFTED, signed=True) == 1
    triples7 = set(C.iter_solution_triples(7, C.SHIFTED))
    assert triples7 == {(1, 1, 2), (1, 2, 1), (3, 1, 1)}


def test_triple_sum_parity_assertions():
    # open: r odd whenever n = 2 mod 4; shifted: r even whenever n = 1 mod 4
    for n in range(1, 300):
        if n % 4 == 2:
            C.triple_sum(n, C.OPEN)
        if n % 4 == 1:
            C.triple_sum(n, C.SHIFTED)


def test_closed_forms_share_no_code_with_the_sum_side():
    # the per-n closed forms pin the batch sum side in the corollary suite:
    # two independent routes to the signed triple sums, no package function
    # runs in both
    per_n = package_calls(lambda: [
        (C.signed_formula_odd if n % 2 else C.signed_formula_even)(n)
        for n in range(1, 251)])
    table = package_calls(C.sum_side_table, 250)
    # the recorder sees each route's enumeration
    assert ("oracles.py", C.iter_solution_triples.__code__.co_firstlineno,
            "iter_solution_triples") in per_n
    assert any(name == "_pair_blocks" for _, _, name in table)
    assert not per_n & table, sorted(per_n & table)


def test_triple_sum_parity_violation_raises(monkeypatch):
    # the parity check is an explicit raise, so it also holds under -O
    real = C.iter_solution_triples

    def with_even_r(n, shape):
        yield from real(n, shape)
        yield 2, 1, 1

    monkeypatch.setattr(C, "iter_solution_triples", with_even_r)
    with pytest.raises(C.TripleParityViolation, match="n = 14"):
        C.triple_sum(14, C.OPEN)


def test_ragged_blocks_split_rows_and_row_chunks(monkeypatch):
    lens = [0, 3, 1, 0, 0, 7, 2, 40, 0, 5]
    cells = [(i, j) for i, k in enumerate(lens, 1) for j in range(k)]
    for block in (1, 2, 3, 16, 17, 40, 64, 1000):
        monkeypatch.setattr(_kernels, "BLOCK", block)
        sizes, got = [], []
        for i, j in _kernels.ragged_blocks(
                1, len(lens), lambda rows: np.array(lens)[rows - 1]):
            sizes.append(len(i))
            got += zip(i.tolist(), j.tolist())
        assert got == cells, block
        assert all(0 < k <= block for k in sizes), block


def _plain_forms(m, n):
    """(a, b, c) of the reduced forms of discriminant -m*n with b = m
    mod 2, by a plain loop over a and b."""
    out = []
    a = 1
    while 3 * a * a <= m * n:
        for b in range(-a, a + 1):
            if (b - m) % 2 == 0 and (b * b + m * n) % (4 * a) == 0:
                f = QuadForm(a, b, (b * b + m * n) // (4 * a))
                if is_reduced(f):
                    out.append((f.a, f.b, f.c))
        a += 1
    return out


@pytest.mark.parametrize("block", [1, 7, 64])
@settings(max_examples=6, deadline=None)
@given(lo=st.integers(min_value=0, max_value=2000),
       width=st.integers(min_value=0, max_value=24))
@example(lo=0, width=0)
@example(lo=1, width=24)
@example(lo=1999, width=0)
def test_progression_terms_vs_loops(block, lo, width):
    # the cursor's terms of [lo, hi], after a first window [1, lo - 1]:
    # small blocks split the rows it opens, and blocks of form rows that
    # start above hi; it keeps every term at n = 1, 2, 3 mod 4
    hi = min(lo + width, 2000)
    got = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "BLOCK", block)
        for family in (C.OPEN, C.SHIFTED, 4, 1):
            cursor = _kernels.ProgressionCursor(family, hi)
            cursor.take(lo - 1)
            cursor.advance(lo - 1)
            got[family] = cursor.take(hi)
    for family, cols in got.items():
        assert [x.dtype for x in cols] == [np.int64] * 4
        n, p, q, k = (col[np.argsort(cols[0], kind="stable")] for col in cols)
        assert ((max(lo, 1) <= n) & (n <= hi)).all()
        for m in range(lo, hi + 1):
            sel = n == m
            rows = zip(p[sel].tolist(), q[sel].tolist(), k[sel].tolist())
            if family in (C.OPEN, C.SHIFTED):
                want = (list(C.iter_solution_triples(m, family))
                        if m % 4 else [])
                assert [(k + 1, s, t) for s, t, k in rows] == want, m
                continue
            forms = [(a, b, a + (b < 0) + k) for a, b, k in rows]
            assert forms == (_plain_forms(family, m) if m % 4 else []), (
                family, m)
            D = -family * m
            if 0 < -D <= 400 and D % 4 in (0, 1) and m % 4:
                assert forms == [(f.a, f.b, f.c)
                                 for f in enumerate_reduced_bruteforce(D)]


@pytest.mark.parametrize("family", [C.OPEN, C.SHIFTED, 4, 1])
def test_cursor_opens_exactly_the_pairs_with_a_kept_term(family):
    # a pair the cursor skips reaches only n = 0 mod 4: open pairs with
    # s + t even, and m = 4 pairs with 4 | a and 4 | first or with a = 2
    # mod 4 and their one term 0 mod 4; it opens every other pair with a
    # term, and no more but the odd-a m = 4 pairs, which filter n % 4
    maxn = 3000
    cursor = _kernels.ProgressionCursor(family, maxn)
    opened = set(zip(cursor.x.tolist(), cursor.y.tolist()))
    assert len(opened) == len(cursor.x)
    reach = {}
    for n, x, y, _ in _kernels._term_blocks(
            _kernels._pair_blocks(family, maxn), 0, maxn):
        for pair, m in zip(zip(x.tolist(), y.tolist()), n.tolist()):
            reach.setdefault(pair, set()).add(m % 4)
    kept = {pair for pair, res in reach.items() if res - {0}}
    filtered = {pair for pair in reach if family == 4 and pair[0] % 2}
    assert opened == kept | filtered
    skipped = set(reach) - opened
    assert all(reach[pair] == {0} for pair in skipped)
    assert bool(skipped) == (family in (C.OPEN, 4))


@functools.lru_cache(maxsize=None)
def _term_table_loops(maxn):
    """Loop values for n <= maxn: per shape the (total, signed, r_even)
    triple counts, per form family m the form count, and 12*H(N)."""
    out = {}
    for shape in (C.OPEN, C.SHIFTED):
        trs = [[]] + [list(C.iter_solution_triples(n, shape))
                      for n in range(1, maxn + 1)]
        out[shape] = (
            [len(t) for t in trs],
            [sum(_sign(r + s + u) for r, s, u in t) for t in trs],
            [sum(1 for r, _, _ in t if r % 2 == 0) for t in trs])
    forms = {m: [_plain_forms(m, n) for n in range(maxn + 1)] for m in (4, 1)}
    for m in (4, 1):
        out[m] = [len(f) for f in forms[m]]
    out["h12"] = [-1] + [
        sum(6 if b == 0 and a == c else 4 if a == b == c else 12
            for a, b, c in (forms[4][N // 4] if N % 4 == 0 else
                            forms[1][N] if N % 4 == 3 else []))
        for N in range(1, maxn + 1)]
    return out


# the kernels on the walk of ``_kernels._table_blocks``
_WALKED_TABLES = ("pair_tables", "hlm_tables", "triangular_sum_side",
                  "sigma_table", "d_mod4_tables", "sigma_no_mult4_table")


@pytest.mark.parametrize("block", [1, 7, 64, 448])
def test_term_block_tables_vs_loops(monkeypatch, block):
    # small blocks split the pair rows and every term expansion; the table
    # walks take blocks of 1 cell at the first three, of 7 at 448
    monkeypatch.setattr(_kernels, "BLOCK", block)
    want = _term_table_loops(300)
    for maxn in (0, 1, 7, 50, 300):
        for name, args, tables in _kernel_cases(maxn):
            if name in _WALKED_TABLES:
                got = getattr(_kernels, name)(*args)
                got = got if isinstance(got, tuple) else (got,)
                assert [t.tolist() for t in got] == tables, (name, args)
        for shape in (C.OPEN, C.SHIFTED):
            got = _kernels.triple_tables(maxn, shape == C.SHIFTED)
            assert [t.tolist() for t in got] == [
                t[:maxn + 1] for t in want[shape]], (shape, maxn)
        for family in (C.OPEN, C.SHIFTED, 4, 1):
            counts = (want[family][0] if family in (C.OPEN, C.SHIFTED)
                      else want[family])
            assert (_kernels.progression_counts(family, maxn).tolist()
                    == counts[:maxn + 1]), (family, maxn)
        assert hurwitz_table(maxn).tolist() == want["h12"][:maxn + 1], maxn


def test_triple_tables_at_scale_are_exact_and_small():
    # 7.6 M shifted terms: held at once in four int64 columns they would
    # take about 240 MB
    import tracemalloc

    maxn = 60_000
    for shape in (C.OPEN, C.SHIFTED):
        tracemalloc.start()
        try:
            total, signed, r_even = _kernels.triple_tables(
                maxn, shape == C.SHIFTED)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20, shape
        assert [t.dtype for t in (total, signed, r_even)] == [np.int64] * 3
        for n in range(maxn - 3, maxn + 1):
            assert int(total[n]) == C.triple_sum(n, shape), (shape, n)
            assert int(signed[n]) == C.triple_sum(n, shape, signed=True)
            assert int(r_even[n]) == sum(
                1 for r, _, _ in C.iter_solution_triples(n, shape)
                if r % 2 == 0)


def test_walked_tables_at_scale_are_exact_and_small():
    # hlm_tables walks about 30 M terms here, held at once they would take
    # about 1 GB
    import tracemalloc

    maxn = 60_000

    def traced(name, *args):
        tracemalloc.start()
        try:
            got = getattr(_kernels, name)(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        got = got if isinstance(got, tuple) else (got,)
        assert all(t.dtype == np.int64 and len(t) == maxn + 1 for t in got)
        # the tables, and at most half a MiB of intermediates beside them
        assert peak < sum(t.nbytes for t in got) + 2 ** 19, (name, peak)
        return got

    def divisors(n):
        return [d for d in range(1, n + 1) if n % d == 0]

    sig0, = traced("sigma_table", maxn, 0)
    d1, d3 = traced("d_mod4_tables", maxn)
    no4, = traced("sigma_no_mult4_table", maxn)
    even2, even4, odd = traced("pair_tables", maxn)
    pair, triple = traced("hlm_tables", maxn)
    tri_sum, = traced("triangular_sum_side", maxn + 1)
    for n in range(maxn - 3, maxn + 1):
        assert int(sig0[n]) == C.sigma(0, n), n
        assert (int(d1[n]), int(d3[n])) == (C.d_mod4(1, n), C.d_mod4(3, n))
        assert int(no4[n]) == sum(d for d in divisors(n) if d % 4), n
        assert int(pair[n]) == C._signed_divisor_pairs(n), n
        assert int(even2[n]) == (C._signed_divisor_pairs(n // 2)
                                 if n % 2 == 0 else 0), n
        assert int(even4[n]) == (C._signed_divisor_pairs(n // 4)
                                 if n % 4 == 0 else 0), n
        assert int(odd[n]) == sum(_sign((d + 1) // 2 + (n // d + 1) // 2)
                                  for d in divisors(n) if n % 2), n
        assert ((6 * int(pair[n]) + 4 * int(triple[n])) * _sign(n + 1)
                == C.rep_squares(3, n)), n
        assert int(tri_sum[n]) == C.r3_triangular(n), n


def test_iter_solution_triples_guards():
    with pytest.raises(ValueError, match="unknown shape"):
        next(C.iter_solution_triples(10, "bogus"))
    # refused before the first triple, just past the bound
    for shape in (C.OPEN, C.SHIFTED):
        triples = C.iter_solution_triples(C.TRIPLE_N_LIMIT, shape)
        with pytest.raises(OverflowError, match="int64"):
            next(triples)
    assert next(C.iter_solution_triples(C.TRIPLE_N_LIMIT - 3, C.SHIFTED))


def test_sum_side_low_coefficients():
    s = C.sum_side_series(8)
    assert int(s.coeff(0).re) == 1
    assert int(s.coeff(1).re) == -2
    assert int(s.coeff(2).re) == -4


def test_sum_side_matches_product_side():
    order = 150
    assert series_eq(C.sum_side_series(order), product_side_series(order),
                     order) is None


def test_sum_side_table_is_the_sum_side_series_and_the_signed_count():
    # one int64 expression: the dkm series below q^3001, and corollary's
    # batch reading, which equals the lattice count at every n >= 1
    maxn = 3000
    table = C.sum_side_table(maxn)
    assert table.dtype == np.int64 and len(table) == maxn + 1
    assert table[0] == 0
    series = C.sum_side_series(maxn + 1)
    assert [int(series.coeff(n).re) for n in range(1, maxn + 1)] == (
        table[1:].tolist())
    signed, _ = _kernels.signed_rep_tables(maxn)
    assert (table[1:] == signed[1:]).all()
    given = C.sum_side_table(
        maxn, _kernels.triple_tables(maxn + 5, False)[1],
        _kernels.triple_tables(maxn + 5, True)[1])
    assert (given == table).all()
    for n in (1, 2, 3, 4, 2999, 3000):
        formula = (C.signed_formula_even if n % 2 == 0
                   else C.signed_formula_odd)
        assert table[n] == formula(n)


def test_formula_parity_guards():
    with pytest.raises(C.WrongParity):
        C.signed_formula_even(3)
    with pytest.raises(C.WrongParity):
        C.signed_formula_odd(4)


def test_formula_examples():
    assert C.signed_formula_even(2) == -4
    assert C.signed_formula_odd(1) == -2
    assert C.signed_formula_odd(11) == 24


def test_formulas_against_enumeration():
    for n in range(1, 200):
        f = C.signed_formula_even(n) if n % 2 == 0 else C.signed_formula_odd(n)
        assert f == C.signed_rep_count(n), n


def test_local_global_form():
    excluded = [n for n in range(200) if C.is_three_square_excluded(n)]
    assert excluded[:6] == [7, 15, 23, 28, 31, 39]
    for n in excluded:
        assert C.rep_count(n) == 0


def test_parity_bijection_spot():
    for n in (0, 4, 9, 12, 16, 25, 36, 100):
        assert C.three_squares_parity_check(n)


def _parity_images_loop(n):
    """The loop oracle of ``parity_bijection_images``: sets of solutions
    and of images, one tuple at a time."""
    xm = math.isqrt(n)
    parity_solutions = set()
    for x in range(-xm, xm + 1):
        rx = n - x * x
        um = math.isqrt(rx)
        for u in range(-um, um + 1):
            rem = rx - u * u
            v = math.isqrt(rem)
            if v * v != rem:
                continue
            for vv in {v, -v}:
                if (u - vv) % 2 == 0:
                    parity_solutions.add((x, u, vv))
    images = set()
    for x, u, v in parity_solutions:
        y, z = (u + v) // 2, (u - v) // 2
        if x * x + 2 * y * y + 2 * z * z != n:
            return None
        if (x, y + z, y - z) != (x, u, v):
            return None
        images.add((x, y, z))
    if len(images) != len(parity_solutions):
        return None
    return len(images)


def test_parity_bijection_images_match_the_loop():
    for n in range(1001):
        assert C.parity_bijection_images(n) == _parity_images_loop(n), n


def test_parity_arm_is_one_loop_sharing_only_the_map_with_the_walk():
    per_n = package_calls(
        lambda: [C.parity_bijection_images(n) for n in range(201)])
    walk = package_calls(C.parity_bijection_walk, 200)
    # no _kernels walk, isqrt table or numpy image check; the dict of
    # squares is the arm's own comprehension
    assert {file for file, _, _ in per_n} == {"counting.py"}
    assert {name for _, _, name in per_n if not name.startswith("<")} == {
        "parity_bijection_images", "_parity_map"}
    assert {name for _, _, name in per_n & walk} == {"_parity_map"}
    assert any(file == "_kernels.py" for file, _, _ in walk)


def test_parity_bijection_images_guards_and_memory():
    import tracemalloc

    with pytest.raises(ValueError):
        C.parity_bijection_images(-1)
    with pytest.raises(OverflowError):
        C.parity_bijection_images(C.PARITY_N_LIMIT)
    tracemalloc.start()
    try:
        images = C.parity_bijection_images(3000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert images == C.rep_count(3000)
    assert peak < 2 ** 20


def test_parity_bijection_table_arm_matches_oracle():
    signed, unsigned = _kernels.signed_rep_tables(300)
    r3 = _kernels.square_rep_tables(3, 300)
    for n in range(301):
        assert C.parity_bijection_images(n) == C.rep_count(n), n
        assert C.three_squares_parity_check(n, (signed, unsigned, r3)), n


def test_parity_bijection_table_arm_reads_the_tables():
    signed, unsigned = _kernels.signed_rep_tables(40)
    r3 = _kernels.square_rep_tables(3, 40)
    for table, n in ((unsigned, 13), (signed, 36), (r3, 9), (r3, 36)):
        table[n] += 1
        bumped = [m for m in range(41)
                  if not C.three_squares_parity_check(m,
                                                      (signed, unsigned, r3))]
        table[n] -= 1
        # r3(9) is read as r3(36/4)
        assert bumped == [36 if table is r3 and n == 9 else n]


def test_parity_walk_matches_the_per_n_arm_to_2000():
    images, failed = C.parity_bijection_walk(2000)
    assert len(images) == len(failed) == 501 and not failed.any()
    for n in range(0, 2001, 4):
        assert images[n // 4] == C.parity_bijection_images(n), n


@pytest.mark.parametrize("block", [64, 1024, 4096])
def test_parity_walk_across_blocks(monkeypatch, block):
    # BLOCK // 64 cells per block: 1 cell walks every x row one cell per
    # block, 16 and 64 split the long rows across blocks
    images, failed = C.parity_bijection_walk(1200)
    monkeypatch.setattr(_kernels, "BLOCK", block)
    small, small_failed = C.parity_bijection_walk(1200)
    assert (small == images).all() and not small_failed.any()


@pytest.mark.parametrize("how, block", [
    pytest.param(how, block, id=how + ("" if block == _kernels.BLOCK
                                       else "-one-cell-blocks"))
    for block in (_kernels.BLOCK, 64) for how in ("off", "collapse")])
def test_parity_walk_flags_a_broken_map(monkeypatch, how, block):
    # "off": images of n = 52 and n = 400 leave x^2+2y^2+2z^2 = n; "collapse":
    # z -> |z| maps z and -z onto one image (and breaks the inverse) at
    # every n with a solution z != 0; with one cell per block the
    # solutions (u, v) and (v, u) of a collision fall in different blocks
    monkeypatch.setattr(_kernels, "BLOCK", block)
    real = C._parity_map

    def broken(x, u, v):
        y, z = real(x, u, v)
        if how == "off":
            n = x * x + u * u + v * v
            return y + ((n == 52) | (n == 400)), z
        return y, abs(z)

    monkeypatch.setattr(C, "_parity_map", broken)
    _, failed = C.parity_bijection_walk(800)
    flagged = [4 * int(k) for k in np.flatnonzero(failed)]
    per_n = [n for n in range(0, 801, 4)
             if C.parity_bijection_images(n) is None]
    assert flagged == per_n
    if how == "off":
        assert flagged == [52, 400]
    else:
        assert flagged and flagged[0] == 4


def test_parity_walk_guards_and_memory():
    import tracemalloc

    with pytest.raises(ValueError):
        C.parity_bijection_walk(-1)
    with pytest.raises(OverflowError):
        C.parity_bijection_walk(C.PARITY_N_LIMIT)
    assert [a.tolist() for a in C.parity_bijection_walk(0)] == [[1], [False]]
    tracemalloc.start()
    try:
        C.parity_bijection_walk(3000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # blocks of BLOCK // 64 cells keep it within one window of the
    # bijection lane (0.8 MB); it read 0.44 MB
    assert peak < 800 * 1024


def test_classical_checks():
    report = C.classical_checks(150)
    assert report.passed, report.failures


def test_classical_checks_reads_a_given_class_number_table():
    from qident.quadforms import hurwitz_table

    h12 = hurwitz_table(4 * 40)
    assert C.classical_checks(40, h12).passed
    h12[4 * 21] += 1
    (bad,) = C.classical_checks(40, h12).failures
    assert (bad.name, bad.locus) == ("three_square_class_number_relations", 21)


# ---------------------------------------------------------------------------
# per-n oracles for every kernel, up to ORACLE_MAX
# ---------------------------------------------------------------------------

ORACLE_MAX = 300


def _sign(k):
    return 1 if k % 2 == 0 else -1


def _naive_pair_tables(maxn):
    even2, even4, odd = ([0] * (maxn + 1) for _ in range(3))
    for r in range(1, maxn + 1):
        for s in range(1, maxn + 1):
            if 2 * r * s <= maxn:
                even2[2 * r * s] += _sign(r + s)
            if 4 * r * s <= maxn:
                even4[4 * r * s] += _sign(r + s)
            if (2 * r - 1) * (2 * s - 1) <= maxn:
                odd[(2 * r - 1) * (2 * s - 1)] += _sign(r + s)
    return even2, even4, odd


def _naive_hlm_tables(maxn):
    pair, triple = [0] * (maxn + 1), [0] * (maxn + 1)
    for r in range(1, maxn + 1):
        for s in range(1, maxn + 1):
            if r * s <= maxn:
                pair[r * s] += _sign(r + s)
            for t in range(1, maxn + 1):
                n = r * s + r * t + s * t
                if n > maxn:
                    break
                triple[n] += _sign(r + s + t)
    return pair, triple


def _naive_triangular_sum_side(order):
    out = [1] + [3] * (order - 1)
    for r in range(1, order):
        for s in range(1, order):
            if 2 * r * s + r + s < order:
                out[2 * r * s + r + s] += 3
            for t in range(1, order):
                if 2 * (r * s + r * t + s * t) - (r + s + t) >= order:
                    break
                for sign in (1, -1):
                    e = 2 * (r * s + r * t + s * t) + sign * (r + s + t)
                    if e < order:
                        out[e] += 1
    return out


def _naive_sigma_no_mult4(maxn):
    return [0] + [sum(d for d in range(1, n + 1) if n % d == 0 and d % 4)
                  for n in range(1, maxn + 1)]


@functools.cache
def _oracle_tables():
    """Every kernel's table at ORACLE_MAX, from per-n oracles only."""
    m = ORACLE_MAX
    ns = range(m + 1)
    tables = {
        "signed": [C.signed_rep_count(n) for n in ns],
        "unsigned": [C.rep_count(n) for n in ns],
        "triangular3": [C.r3_triangular(n) for n in ns],
        "sigma0": [0] + [C.sigma(0, n) for n in ns[1:]],
        "sigma1": [0] + [C.sigma(1, n) for n in ns[1:]],
        "d1": [0] + [C.d_mod4(1, n) for n in ns[1:]],
        "d3": [0] + [C.d_mod4(3, n) for n in ns[1:]],
        "sigma_no_mult4": _naive_sigma_no_mult4(m),
        "pair": _naive_pair_tables(m),
        "hlm": _naive_hlm_tables(m),
        "triangular_sum_side": _naive_triangular_sum_side(m + 1),
    }
    for s in (1, 2, 3, 4):
        tables[f"r{s}"] = [C.rep_squares(s, n) for n in ns]
    for shape in (C.OPEN, C.SHIFTED):
        trs = [[]] + [list(C.iter_solution_triples(n, shape)) for n in ns[1:]]
        tables[shape] = (
            [len(t) for t in trs],
            [sum(_sign(r + s + u) for r, s, u in t) for t in trs],
            [sum(1 for r, _, _ in t if r % 2 == 0) for t in trs])
    return tables


def _kernel_cases(maxn):
    """(kernel name, args, expected tables truncated to maxn) for each kernel."""
    o = _oracle_tables()

    def cut(*tables):
        return [t[:maxn + 1] for t in tables]

    return [
        ("signed_rep_tables", (maxn,), cut(o["signed"], o["unsigned"])),
        *(("square_rep_tables", (s, maxn), cut(o[f"r{s}"]))
          for s in (1, 2, 3, 4)),
        ("triangular3_table", (maxn,), cut(o["triangular3"])),
        ("triple_tables", (maxn, False), cut(*o[C.OPEN])),
        ("triple_tables", (maxn, True), cut(*o[C.SHIFTED])),
        ("pair_tables", (maxn,), cut(*o["pair"])),
        ("hlm_tables", (maxn,), cut(*o["hlm"])),
        ("triangular_sum_side", (maxn + 1,), cut(o["triangular_sum_side"])),
        ("sigma_table", (maxn, 0), cut(o["sigma0"])),
        ("sigma_table", (maxn, 1), cut(o["sigma1"])),
        ("d_mod4_tables", (maxn,), cut(o["d1"], o["d3"])),
        ("sigma_no_mult4_table", (maxn,), cut(o["sigma_no_mult4"])),
    ]


class TestKernelLanes:
    """Every kernel must agree with its per-n oracle."""

    def test_signed_rep_tables_vs_oracle(self):
        sg, un = _kernels.signed_rep_tables(150)
        for n in range(151):
            assert int(sg[n]) == C.signed_rep_count(n)
            assert int(un[n]) == C.rep_count(n)

    def test_square_tables_vs_oracle(self):
        for s in (1, 2, 3, 4):
            table = _kernels.square_rep_tables(s, 60)
            for n in range(61):
                assert int(table[n]) == C.rep_squares(s, n)

    def test_triangular_table_vs_oracle(self):
        table = _kernels.triangular3_table(80)
        for n in range(81):
            assert int(table[n]) == C.r3_triangular(n)

    def test_triple_tables_vs_oracle(self):
        for shape in (C.OPEN, C.SHIFTED):
            total, signed, r_even = _kernels.triple_tables(120,
                                                           shape == C.SHIFTED)
            for n in range(1, 121):
                trs = list(C.iter_solution_triples(n, shape))
                assert int(total[n]) == len(trs)
                assert int(signed[n]) == sum(
                    1 if (r + s + t) % 2 == 0 else -1 for r, s, t in trs)
                assert int(r_even[n]) == sum(1 for r, _, _ in trs if r % 2 == 0)

    def test_pair_tables_spot(self):
        even2, even4, odd = _kernels.pair_tables(12)
        # 2rs = 2 only from (1,1); (2s-1)(2t-1) = 1 only from (1,1)
        assert int(even2[2]) == 1
        assert int(odd[1]) == 1
        # 2rs = 4 from (1,2),(2,1), both odd sign
        assert int(even2[4]) == -2

    def test_sigma_tables(self):
        sig0 = _kernels.sigma_table(100, 0)
        sig1 = _kernels.sigma_table(100, 1)
        for n in range(1, 101):
            assert int(sig0[n]) == C.sigma(0, n)
            assert int(sig1[n]) == C.sigma(1, n)
        d1, d3 = _kernels.d_mod4_tables(100)
        for n in range(1, 101):
            assert int(d1[n]) == C.d_mod4(1, n)
            assert int(d3[n]) == C.d_mod4(3, n)

    def test_sigma_table_overflow_guard(self):
        # sigma_k(n) <= n**(k+1): the largest accepted size for k = 4 is the
        # largest maxn with maxn**5 < 2**63
        top = 6208
        assert top ** 5 < 2 ** 63 <= (top + 1) ** 5
        sig4 = _kernels.sigma_table(top, 4)
        for n in range(top - 60, top + 1):
            assert int(sig4[n]) == C.sigma(4, n), n
        with pytest.raises(OverflowError):
            _kernels.sigma_table(top + 1, 4)
        # refused before any allocation
        with pytest.raises(OverflowError):
            _kernels.sigma_table(3_037_000_500, 1)

    def test_kernels_refuse_maxn_past_the_limit(self):
        top = _kernels.MAXN_LIMIT
        # the module docstring's entry bounds hold at the limit
        assert 2 * (2 * math.isqrt(2 * top) + 1) ** 3 < 2 ** 63
        assert 9 * (top + 1) ** 2 < 2 ** 63 and top ** 2 < 2 ** 63
        # and one past it every kernel but sigma_table refuses, before any
        # allocation
        for name, args in [
                ("signed_rep_tables", (top + 1,)),
                *(("square_rep_tables", (s, top + 1)) for s in (1, 2, 3, 4)),
                ("triangular3_table", (top + 1,)),
                ("triple_tables", (top + 1, False)),
                ("triple_tables", (top + 1, True)),
                ("pair_tables", (top + 1,)),
                ("hlm_tables", (top + 1,)),
                ("triangular_sum_side", (top + 2,)),
                ("d_mod4_tables", (top + 1,)),
                ("sigma_no_mult4_table", (top + 1,))]:
            with pytest.raises(OverflowError):
                getattr(_kernels, name)(*args)

    def test_square_tables_reject_s_outside_1_to_4(self):
        for s in (0, 5):
            with pytest.raises(ValueError):
                _kernels.square_rep_tables(s, 10)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=ORACLE_MAX))
    @example(0)
    @example(ORACLE_MAX)
    def test_every_kernel_vs_oracle(self, maxn):
        for name, args, want in _kernel_cases(maxn):
            got = getattr(_kernels, name)(*args)
            got = got if isinstance(got, tuple) else (got,)
            assert [t.dtype for t in got] == [np.int64] * len(want), name
            assert [t.tolist() for t in got] == want, (name, args)

    def test_signed_rep_tables_at_scale(self):
        maxn = 100_000
        signed, unsigned = _kernels.signed_rep_tables(maxn)
        assert len(signed) == len(unsigned) == maxn + 1
        for n in (99_997, 99_998, 99_999, 100_000):
            assert int(signed[n]) == C.signed_rep_count(n), n
            assert int(unsigned[n]) == C.rep_count(n), n

