"""Batch enumeration kernels for the counting sweeps, and the progression
enumerator of solution triples and reduced forms.

Every table is exact int64 numpy with ``maxn + 1`` entries, one per n.

* Lattice counts (x^2 + 2y^2 + 2z^2, sums of squares, sums of triangular
  numbers) are truncated products of one-variable theta indicator tables,
  built by ``_times_sparse``.  That is the lattice sum factored by
  variable, not an identity, so these tables stay an independent route
  from the series they are checked against.
* Signed sums (pair, three-squares and triangular sums) add each
  arithmetic progression as one strided slice; the indices within one
  slice are distinct, so a slice add is exact.
* Triple sums and progression counts add the terms of ``_term_blocks``
  with ``np.add.at``, which is exact on int64 under repeated indices.
* Divisor tables are strided sieves.

Overflow bound: a lattice entry counts points of at most four variables,
each a square or a triangular number up to maxn, so each variable takes at
most ``2*isqrt(2*maxn) + 1`` values and the last at most two once the
others are fixed: the entry, and every partial product of
``_times_sparse``, is at most ``2*(2*isqrt(2*maxn) + 1)**3``.  A
signed-sum entry is a constant of at most 4 plus at most five unit terms
per pair ``(r, s)`` with ``1 <= r, s <= maxn`` (n fixes the third
variable), so it is at most ``9*(maxn + 1)**2``.  A triple-table entry
counts at most one term per pair ``(s, t)`` with ``1 <= s, t <= maxn``
(n fixes r), so it is at most ``maxn**2``.  A divisor count is at
most maxn and a divisor sum at most ``maxn**2``.  All are below 2**63 for
``maxn <= MAXN_LIMIT``; every kernel but ``sigma_table`` raises
``OverflowError`` above it, before it allocates.  ``sigma_table(maxn, k)``
is at most ``maxn**(k + 1)``; it raises ``OverflowError`` when that
reaches 2**63.  Memory is linear in ``maxn``.

``_pair_blocks`` is the one walk over the pairs whose progressions in n
hold the solution triples and the reduced forms, and ``_term_blocks`` the
one expansion of their terms over a range of n; ``progression_terms``,
``progression_counts`` and ``triple_tables`` read only these.
``ragged_blocks`` is the block iterator they and
``counting.parity_bijection_images`` walk: a ragged grid row-major in
blocks of at most ``BLOCK`` cells, so a call's memory does not grow with
its pair grid.
"""

from __future__ import annotations

import math

import numpy as np

# the benchmark's provenance probe reads this; there is one numpy lane
USE_NUMBA = False

# cells per block of ``ragged_blocks``
BLOCK = 1 << 16

# the largest maxn of a kernel table (see the overflow bound above)
MAXN_LIMIT = 10 ** 9


def _check_maxn(maxn):
    if maxn > MAXN_LIMIT:
        raise OverflowError(f"kernel tables for n <= {maxn} may exceed int64")


def _times_sparse(a, terms):
    """a * sum(c q^e for e, c in terms), truncated to len(a)."""
    n = len(a)
    out = np.zeros_like(a)
    for e, c in terms:
        out[e:] += c * a[:n - e]
    return out


def _unit(maxn):
    out = np.zeros(maxn + 1, dtype=np.int64)
    out[0] = 1
    return out


def _theta_terms(maxn, mult=1, signed=False):
    """Nonzero (e, c) of sum over integers x of (+-1)^x q^(mult x^2), e <= maxn."""
    terms = [(0, 1)]
    x = 1
    while mult * x * x <= maxn:
        # x and -x have the same parity, hence the same sign
        terms.append((mult * x * x, -2 if signed and x % 2 else 2))
        x += 1
    return terms


def _alternating(out, first, step, sign):
    """out[first + k*step] += sign * (-1)^k for k >= 0, within out."""
    out[first::2 * step] += sign
    out[first + step::2 * step] -= sign


# ---------------------------------------------------------------------------
# lattice counts
# ---------------------------------------------------------------------------


def signed_rep_tables(maxn):
    """(signed, unsigned) counts of x^2 + 2y^2 + 2z^2 = n for n <= maxn."""
    _check_maxn(maxn)
    tables = []
    for signed in (True, False):
        x = _theta_terms(maxn, 1, signed)
        yz = _theta_terms(maxn, 2, signed)
        tables.append(_times_sparse(_times_sparse(_times_sparse(
            _unit(maxn), x), yz), yz))
    return tuple(tables)


def square_rep_tables(s, maxn):
    """Ordered representations of n as a sum of s squares, 1 <= s <= 4."""
    if not 1 <= s <= 4:
        raise ValueError("s must be between 1 and 4")
    _check_maxn(maxn)
    theta = _theta_terms(maxn)
    out = _unit(maxn)
    for _ in range(s):
        out = _times_sparse(out, theta)
    return out


def triangular3_table(maxn):
    """Ordered triples of triangular numbers k(k+1)/2, k >= 0, summing to n."""
    _check_maxn(maxn)
    tri = []
    k = 0
    while k * (k + 1) // 2 <= maxn:
        tri.append((k * (k + 1) // 2, 1))
        k += 1
    return _times_sparse(_times_sparse(_times_sparse(
        _unit(maxn), tri), tri), tri)


# ---------------------------------------------------------------------------
# signed double sums: q^{2rs}, q^{4st}, q^{(2s-1)(2t-1)}
# ---------------------------------------------------------------------------


def pair_tables(maxn):
    """Signed sums of (-1)^(r+s) over 2rs = n, 4rs = n, (2r-1)(2s-1) = n."""
    _check_maxn(maxn)
    even2 = np.zeros(maxn + 1, dtype=np.int64)
    even4 = np.zeros(maxn + 1, dtype=np.int64)
    odd = np.zeros(maxn + 1, dtype=np.int64)
    for r in range(1, maxn // 2 + 1):
        # s = 1, 2, ... gives n = 2r, 4r, ... with sign (-1)^(r+1) at s = 1
        sign = 1 if r % 2 else -1
        _alternating(even2, 2 * r, 2 * r, sign)
        _alternating(even4, 4 * r, 4 * r, sign)
    for r in range(1, (maxn + 1) // 2 + 1):
        a = 2 * r - 1
        _alternating(odd, a, 2 * a, 1 if r % 2 else -1)
    return even2, even4, odd


# ---------------------------------------------------------------------------
# signed sums over rs = n and rs + rt + st = n (three-squares formula)
# ---------------------------------------------------------------------------


def hlm_tables(maxn):
    """Signed sums of (-1)^(r+s) over rs = n and (-1)^(r+s+t) over
    rs + rt + st = n, all variables >= 1."""
    _check_maxn(maxn)
    pair = np.zeros(maxn + 1, dtype=np.int64)
    triple = np.zeros(maxn + 1, dtype=np.int64)
    for r in range(1, maxn + 1):
        _alternating(pair, r, r, 1 if r % 2 else -1)
    r = 1
    while 2 * r + 1 <= maxn:  # s = t = 1
        s = 1
        while r * s + r + s <= maxn:
            _alternating(triple, r * s + r + s, r + s,
                         -1 if (r + s) % 2 == 0 else 1)
            s += 1
        r += 1
    return pair, triple


# ---------------------------------------------------------------------------
# triangular-number identity, sum side
# 1 + 3*sum q^r + 3*sum q^{2rs+r+s} + bilateral triple sums
# ---------------------------------------------------------------------------


def triangular_sum_side(order):
    """Sum side of the sum-of-three-triangular-numbers identity, q^0..q^(order-1)."""
    _check_maxn(order - 1)
    out = np.zeros(order, dtype=np.int64)
    out[0] = 1
    out[1:] += 3
    r = 1
    while 3 * r + 1 < order:
        out[3 * r + 1::2 * r + 1] += 3  # 2rs + r + s for s >= 1
        r += 1
    # two octants of 2(rs+rt+st) + sign*(r+s+t); the all-negative octant
    # maps to sign = -1 under (r,s,t) -> (-r,-s,-t)
    for sign in (1, -1):
        r = 1
        while 2 * r + sign * (r + 1) + 2 * r + 2 + sign < order:
            s = 1
            while True:
                step = 2 * r + 2 * s + sign
                first = 2 * r * s + sign * (r + s) + step  # t = 1
                if first >= order:
                    break
                out[first::step] += 1
                s += 1
            r += 1
    return out


# ---------------------------------------------------------------------------
# divisor tables (strided sieves)
# ---------------------------------------------------------------------------


def sigma_table(maxn: int, k: int = 0) -> np.ndarray:
    """sum of d**k over the divisors d of n; at most maxn**(k + 1)."""
    if maxn ** (k + 1) >= 2 ** 63:
        raise OverflowError(f"sigma_{k}(n) for n <= {maxn} may exceed int64")
    out = np.zeros(maxn + 1, dtype=np.int64)
    for d in range(1, maxn + 1):
        out[d::d] += d ** k
    return out


def d_mod4_tables(maxn: int):
    _check_maxn(maxn)
    d1 = np.zeros(maxn + 1, dtype=np.int64)
    d3 = np.zeros(maxn + 1, dtype=np.int64)
    for d in range(1, maxn + 1, 2):
        if d % 4 == 1:
            d1[d::d] += 1
        else:
            d3[d::d] += 1
    return d1, d3


def sigma_no_mult4_table(maxn: int) -> np.ndarray:
    """sum of divisors d of n with 4 not dividing d."""
    _check_maxn(maxn)
    out = np.zeros(maxn + 1, dtype=np.int64)
    for d in range(1, maxn + 1):
        if d % 4:
            out[d::d] += d
    return out


# ---------------------------------------------------------------------------
# ragged grids
# ---------------------------------------------------------------------------


def ragged_blocks(first, last, row_len, block=None):
    """Yield ``(i, j)`` int64 arrays over the cells ``0 <= j < row_len(i)``
    of the rows ``first <= i <= last``, row-major, at most ``block`` cells
    (``BLOCK`` unless given) at a time.  ``row_len`` maps an int64 array of
    rows to their lengths.  Rows are taken ``block // 16`` at a time, so
    their bookkeeping stays small beside a block; a row longer than
    ``block`` is split across blocks."""
    block = BLOCK if block is None else block
    rows_step = max(1, block // 16)
    for lo in range(first, last + 1, rows_step):
        rows = np.arange(lo, min(lo + rows_step, last + 1), dtype=np.int64)
        ends = row_len(rows).cumsum()
        begins = np.concatenate(((0,), ends[:-1]))
        total = int(ends[-1])
        for start in range(0, total, block):
            stop = min(start + block, total)
            # the rows that hold cells start .. stop - 1, and their share
            i0, i1 = ends.searchsorted((start, stop - 1), side="right")
            span = slice(i0, i1 + 1)
            share = (np.minimum(ends[span], stop)
                     - np.maximum(begins[span], start))
            j = np.arange(start, stop, dtype=np.int64)
            j -= begins[span].repeat(share)
            yield rows[span].repeat(share), j


# ---------------------------------------------------------------------------
# progressions in n: each pair (p, q) of a family carries n = first + step*k,
# k >= 0.  Solution triples (r, s, t) = (k + 1, p, q) of the shape "open",
# n = 2r(s + t) + 4st, or "shifted", n = 2r(s + t - 1) + (2s - 1)(2t - 1);
# reduced forms (a, b, c) = (p, q, c0 + k) of discriminant -m*n, m = 4 or 1,
# with b = m mod 2 in (-a, a] and c0 = a, or a + 1 for b < 0, so that every
# term is reduced (Cohen, A Course in Computational ANT, 5.3).
# ---------------------------------------------------------------------------

# m*hi below this (m = 1 for triples) keeps every intermediate in int64;
# the largest is 4a(a + 1) <= 4*m*hi/3 + 4*isqrt(m*hi/3)
PROGRESSION_LIMIT = 2 ** 62


def _pair_blocks(family, hi):
    """``(p, q, first, step)`` of the family's pairs, in pair order ((s, t)
    s-major, (a, b) lexicographic) and in ``ragged_blocks``: the triple
    rows hold exactly the pairs with first <= hi, the form rows every b of
    each a <= isqrt(m*hi/3), some starting above hi."""
    if family in ("open", "shifted"):
        shifted = family == "shifted"

        def row_len(s):
            if shifted:
                return (hi + 1) // (4 * s)
            return (hi - 2 * s) // (4 * s + 2)

        last = (hi + 1) // 4 if shifted else (hi - 2) // 6
        for s, t in ragged_blocks(1, last, row_len):
            t += 1  # cell j is t = j + 1
            if shifted:
                yield s, t, 4 * s * t - 1, 2 * (s + t - 1)
            else:
                yield s, t, 4 * s * t + 2 * (s + t), 2 * (s + t)
        return
    m, odd = family, family % 2
    for a, h in ragged_blocks(1, math.isqrt(m * hi // 3), lambda a: a):
        h -= (a + odd - 1) // 2  # b = 2h + odd, in place
        first = a + (h < 0)  # c0, then first = (4a*c0 - b^2)/m
        first *= a
        if odd:
            b = 2 * h + 1
            first *= 4
            first -= b * b
            yield a, b, first, 4 * a
        else:
            first -= h * h
            h *= 2
            yield a, h, first, a


def _check_family(family, hi):
    if family not in ("open", "shifted", 4, 1):
        raise ValueError(f"unknown progression family {family!r}")
    if (family if family in (4, 1) else 1) * hi >= PROGRESSION_LIMIT:
        raise OverflowError(f"progression terms of {family!r} for n <= {hi} "
                            "may exceed int64")


def _term_blocks(family, lo, hi):
    """Yield ``(n, p, q, k)`` int64 blocks of the family's terms with
    lo <= n <= hi, in pair order, ``BLOCK // 4`` terms at a time.

    That is also the lane's window budget: freed numpy buffers stay in the
    heap, and on ``verify --suite all --order 300 --max 3000`` full blocks
    here raised the peak RSS from 34.2 MB to 37.0 MB, quarter blocks to
    34.4 MB."""
    block = max(1, BLOCK // 4)
    for p, q, first, step in _pair_blocks(family, hi):
        k0 = np.maximum(-((first - lo) // step), 0)
        count = np.maximum((hi - first) // step + 1 - k0, 0)
        for i, k in ragged_blocks(0, len(count) - 1, count.__getitem__,
                                  block):
            k += k0[i]
            yield first[i] + step[i] * k, p[i], q[i], k


def progression_terms(family, lo, hi):
    """``(n, p, q, k)`` int64 arrays of the terms with lo <= n <= hi of the
    family ("open" or "shifted" triples, or m = 4 or 1 forms), sorted
    stably by n, so that within one n they come in the order of
    ``counting.iter_solution_triples`` and ``quadforms.enumerate_reduced``.
    A window's terms come from ``_term_blocks``; one n (lo == hi) keeps the
    pairs whose progression hits it.  ``m*hi >= PROGRESSION_LIMIT`` raises
    ``OverflowError``."""
    _check_family(family, hi)
    if lo != hi:
        parts = list(_term_blocks(family, lo, hi))
    else:
        parts = []
        for p, q, first, step in _pair_blocks(family, hi):
            d = np.subtract(hi, first, out=first)
            hit = d % step == 0
            if family in (4, 1):  # form rows may start above hi
                hit &= d >= 0
            i = hit.nonzero()[0]
            k = d[i]
            k //= step[i]
            parts.append((np.full(len(i), hi, dtype=np.int64), p[i], q[i], k))
    if not parts:
        return tuple(np.zeros(0, dtype=np.int64) for _ in range(4))
    cols = (parts[0] if len(parts) == 1
            else [np.concatenate(col) for col in zip(*parts)])
    if lo < hi:
        order = np.argsort(cols[0], kind="stable")
        cols = [col[order] for col in cols]
    return tuple(cols)


def progression_counts(family, hi):
    """The number of the family's terms at each n <= hi."""
    _check_family(family, hi)
    out = np.zeros(hi + 1, dtype=np.int64)
    for n, _, _, _ in _term_blocks(family, 0, hi):
        np.add.at(out, n, 1)
    return out


def triple_tables(maxn, shifted):
    """(total, signed, r_even) counts of the shape's solution triples
    (r, s, t) = (k + 1, s, t) for n <= maxn: the sums of 1, (-1)^(r+s+t)
    and [r even] over the terms of ``_term_blocks``."""
    _check_maxn(maxn)
    # column 2*[r even] + [r + s + t odd] of each n, flattened
    table = np.zeros((maxn + 1, 4), dtype=np.int64)
    flat = table.reshape(-1)
    for n, s, t, k in _term_blocks("shifted" if shifted else "open", 0, maxn):
        # r = k + 1 is even for odd k
        np.add.at(flat, 4 * n + 2 * (k % 2) + (k + 1 + s + t) % 2, 1)
    total = table.sum(axis=1)
    signed = table[:, 0] + table[:, 2] - table[:, 1] - table[:, 3]
    r_even = table[:, 2] + table[:, 3]
    return total, signed, r_even
