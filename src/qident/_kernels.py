"""Batch enumeration kernels for the counting sweeps, and the progression
enumerator of solution triples and reduced forms.

Every table is exact int64 numpy with ``maxn + 1`` entries, one per n, and
comes from one of two idioms:

* Lattice counts (x^2 + 2y^2 + 2z^2, sums of squares, sums of triangular
  numbers) are truncated products of one-variable theta indicator tables,
  built by ``_times_sparse``.  That is the lattice sum factored by
  variable, not an identity, so these tables stay an independent route
  from the series they are checked against.
* Every other table adds the terms of one blocked walk with ``np.add.at``,
  which is exact on int64 under repeated indices.  ``ragged_blocks`` walks
  a ragged grid row-major in blocks, so a call's memory does not grow with
  its grid; ``_pairs`` walks the pairs (p, q) = (stride*s - chi,
  stride*t - chi), s, t >= 1, of a family (stride, chi); ``_pair_blocks``
  gives each pair's progression in n, and ``_term_blocks`` expands its
  terms over a range of n.  The divisor tables and the signed pair sums
  add over the factorings n = pq.  A triple family carries the terms
  n = pq + r(p + q), r >= 1: the solution triples of the shapes open
  (2, 0) and shifted (2, 1), and the triples of rs + rt + st = n (1, 0)
  of the three-squares formula.  The reduced forms and the octants of the
  triangular sum side are progressions of their own.
  ``progression_terms`` and ``progression_counts`` list and count the
  triples and forms, and ``counting.parity_bijection_walk`` walks
  ``ragged_blocks`` too, one x row at a time.  ``budget_windows`` cuts the
  n range of the bijection window lane into windows of bounded size.

Overflow bound: a lattice entry counts points of at most four variables,
each a square or a triangular number up to maxn, so each variable takes at
most ``2*isqrt(2*maxn) + 1`` values and the last at most two once the
others are fixed: the entry, and every partial product of
``_times_sparse``, is at most ``2*(2*isqrt(2*maxn) + 1)**3``.  A walked
entry is a constant of at most 4 plus at most five unit terms per pair
``(s, t)`` with ``1 <= s, t <= maxn`` (n fixes the rest of the term), so
it is at most ``9*(maxn + 1)**2``, or a divisor sum of at most maxn terms,
at most ``maxn**2`` (``sigma_table(maxn, k)``: ``maxn**(k + 1)``).  Every
other value of a walk (p, q, first, step, n, the flat index ``4n + 3``)
is at most ``4*maxn + 3``.  All are below 2**63 for
``maxn <= MAXN_LIMIT``; every kernel but ``sigma_table`` raises
``OverflowError`` above it, before it allocates, and ``sigma_table``
raises it when ``maxn**(k + 1)`` reaches 2**63.  Memory is linear in
``maxn``.
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


def budget_windows(counts, first=0):
    """``(lo, hi)`` of consecutive windows over the indices
    ``first .. len(counts) - 1``, each holding at most ``BLOCK // 4`` of
    the int64 ``counts``, or a single index."""
    budget = max(1, BLOCK // 4)
    upto = np.cumsum(counts)
    lo = first
    while lo < len(upto):
        base = int(upto[lo - 1]) if lo else 0
        hi = max(lo, int(np.searchsorted(upto, base + budget,
                                         side="right")) - 1)
        yield lo, hi
        lo = hi + 1


# ---------------------------------------------------------------------------
# progressions in n: each pair (x, y) of a family carries n = first + step*k,
# k >= 0.  A triple family (stride, chi) has the pairs (p, q) = (stride*s -
# chi, stride*t - chi), s, t >= 1, and the terms n = pq + r(p + q), r = k + 1:
# the solution triples (r, s, t) of the shape "open", n = 2r(s + t) + 4st, or
# "shifted", n = 2r(s + t - 1) + (2s - 1)(2t - 1), and the triples of
# rs + rt + st = n ("hlm").  Reduced forms (a, b, c) = (x, y, c0 + k) of
# discriminant -m*n, m = 4 or 1, have b = m mod 2 in (-a, a] and c0 = a, or
# a + 1 for b < 0, so that every term is reduced (Cohen, A Course in
# Computational ANT, 5.3).
# ---------------------------------------------------------------------------

# m*hi below this (m = 1 for triples) keeps every intermediate in int64;
# the largest is 4a(a + 1) <= 4*m*hi/3 + 4*isqrt(m*hi/3)
PROGRESSION_LIMIT = 2 ** 62

# (stride, chi) of each triple family
_TRIPLES = {"open": (2, 0), "shifted": (2, 1), "hlm": (1, 0)}


def _pairs(stride, chi, hi, r, block=None):
    """``(s, t, p, q)`` int64 blocks of the pairs (p, q) = (stride*s - chi,
    stride*t - chi), s, t >= 1, with pq + r(p + q) <= hi, s-major in
    ``ragged_blocks``: r = 0 walks the factorings pq = n <= hi, r = 1 the
    first terms of a triple family."""
    c = r - chi  # p + r = stride*s + c

    def row_len(s):  # the t with (p + r)(q + r) <= hi + r*r
        if c:
            return ((hi + r * r) // (stride * s + c) - c) // stride
        return (hi + r * r) // (stride * s) // stride

    # the pairs are symmetric, so there are as many rows as t in row 1
    for s, t in ragged_blocks(1, row_len(1), row_len, block):
        t += 1  # cell j is t = j + 1
        p = s * stride
        q = t * stride
        if chi:
            p -= chi
            q -= chi
        yield s, t, p, q


def _pair_blocks(family, hi, block=None):
    """``(x, y, first, step)`` of the family's pairs, labelled (s, t) or
    (a, b), in pair order ((s, t) s-major, (a, b) lexicographic) and in
    ``ragged_blocks``: the triple rows hold exactly the pairs with
    first <= hi, the form rows every b of each a <= isqrt(m*hi/3), some
    starting above hi."""
    if family in _TRIPLES:
        for s, t, p, q in _pairs(*_TRIPLES[family], hi, 1, block):
            step = p + q
            p *= q  # first = pq + step, in place
            p += step
            yield s, t, p, step
        return
    m, odd = family, family % 2
    for a, h in ragged_blocks(1, math.isqrt(m * hi // 3), lambda a: a, block):
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


def _term_blocks(pairs, lo, hi, block=None):
    """Yield ``(n, x, y, k)`` int64 blocks of the terms with lo <= n <= hi
    of the ``(x, y, first, step)`` pair blocks ``pairs``, in pair order,
    ``block`` terms at a time.

    The default, ``BLOCK // 4``, is also the window budget of the bijection
    lane: freed numpy buffers stay in the heap, and on ``verify --suite all
    --order 300 --max 3000`` full blocks here raised the peak RSS from
    34.2 MB to 37.0 MB, quarter blocks to 34.4 MB."""
    block = max(1, BLOCK // 4) if block is None else block
    for x, y, first, step in pairs:
        k0 = np.maximum(-((first - lo) // step), 0)
        count = np.maximum((hi - first) // step + 1 - k0, 0)
        for i, k in ragged_blocks(0, len(count) - 1, count.__getitem__,
                                  block):
            k += k0[i]
            yield first[i] + step[i] * k, x[i], y[i], k
        # let this pair block go before the next one is built
        del x, y, first, step, k0, count


def progression_terms(family, lo, hi):
    """``(n, p, q, k)`` int64 arrays of the terms with lo <= n <= hi of the
    family ("open" or "shifted" triples, or m = 4 or 1 forms), from
    ``_term_blocks`` sorted stably by n, so that within one n they come in
    the order of ``oracles.iter_solution_triples`` and
    ``quadforms.enumerate_reduced``, the per-n loops they are pinned to.
    ``m*hi >= PROGRESSION_LIMIT`` raises ``OverflowError``."""
    _check_family(family, hi)
    parts = list(_term_blocks(_pair_blocks(family, hi), lo, hi))
    if not parts:
        return tuple(np.zeros(0, dtype=np.int64) for _ in range(4))
    cols = (parts[0] if len(parts) == 1
            else [np.concatenate(col) for col in zip(*parts)])
    order = np.argsort(cols[0], kind="stable")
    return tuple(col[order] for col in cols)


def progression_counts(family, hi):
    """The number of the family's terms at each n <= hi."""
    _check_family(family, hi)
    out = np.zeros(hi + 1, dtype=np.int64)
    for n, _, _, _ in _term_blocks(_pair_blocks(family, hi), 0, hi):
        np.add.at(out, n, 1)
    return out


# ---------------------------------------------------------------------------
# walked tables
# ---------------------------------------------------------------------------


def _table_blocks():
    """(grid cells, terms) per block of the hlm, divisor, pair and triangular
    table walks.  At maxn = 10**5 ``sigma_table`` peaked at 10.7 bytes per n
    with grids of ``BLOCK // 16`` cells, 8.7 with these; terms of
    ``BLOCK // 64`` made ``hlm_tables(60 000)`` about 2.5 times slower."""
    return max(1, BLOCK // 64), max(1, BLOCK // 16)


def triple_tables(maxn, shifted):
    """(total, signed, r_even) counts of the shape's solution triples
    (r, s, t) = (k + 1, s, t) for n <= maxn: the sums of 1, (-1)^(r+s+t)
    and [r even] over the terms of ``_term_blocks``."""
    _check_maxn(maxn)
    # column 2*[r even] + [r + s + t odd] of each n, flattened
    table = np.zeros((maxn + 1, 4), dtype=np.int64)
    flat = table.reshape(-1)
    pairs = _pair_blocks("shifted" if shifted else "open", maxn)
    for n, s, t, k in _term_blocks(pairs, 0, maxn):
        # r = k + 1 is even for odd k
        np.add.at(flat, 4 * n + 2 * (k % 2) + (k + 1 + s + t) % 2, 1)
    total = table.sum(axis=1)
    signed = table[:, 0] + table[:, 2] - table[:, 1] - table[:, 3]
    r_even = table[:, 2] + table[:, 3]
    return total, signed, r_even


def hlm_tables(maxn):
    """Signed sums of (-1)^(r+s) over rs = n and (-1)^(r+s+t) over
    rs + rt + st = n, all variables >= 1."""
    _check_maxn(maxn)
    cells, terms = _table_blocks()
    triple = np.zeros(maxn + 1, dtype=np.int64)
    for n, s, t, k in _term_blocks(_pair_blocks("hlm", maxn, cells), 0, maxn,
                                   terms):
        # r = k + 1, so r + s + t is odd exactly when k + s + t is even
        np.add.at(triple, n, (k + s + t) % 2 * 2 - 1)
    return _signed_pairs(maxn), triple


def _divisor_sums(maxn, *weights, stride=1, chi=0):
    """For each weight, the sum of ``weight(s, t)`` over the factorings
    n = pq of the pairs (p, q) = (stride*s - chi, stride*t - chi), for each
    n <= maxn, all from one walk; in the default family s is the divisor p."""
    outs = tuple(np.zeros(maxn + 1, dtype=np.int64) for _ in weights)
    for s, t, p, q in _pairs(stride, chi, maxn, 0, _table_blocks()[0]):
        p *= q
        for out, weight in zip(outs, weights):
            np.add.at(out, p, weight(s, t))
    return outs


def _signed_pairs(maxn, stride=1, chi=0):
    """The sum of (-1)^(s+t) over (stride*s - chi)(stride*t - chi) = n."""
    return _divisor_sums(maxn, lambda s, t: 1 - (s + t) % 2 * 2,
                         stride=stride, chi=chi)[0]


def pair_tables(maxn):
    """Signed sums of (-1)^(r+s) over 2rs = n, 4rs = n, (2r-1)(2s-1) = n."""
    _check_maxn(maxn)
    rs = _signed_pairs(maxn // 2)
    even2 = np.zeros(maxn + 1, dtype=np.int64)
    even4 = np.zeros(maxn + 1, dtype=np.int64)
    even2[::2] = rs
    even4[::4] = rs[:maxn // 4 + 1]
    return even2, even4, _signed_pairs(maxn, 2, 1)


def triangular_sum_side(order):
    """Sum side of the sum-of-three-triangular-numbers identity,
    q^0..q^(order-1): 1 + 3*sum q^r + 3*sum q^(2rs+r+s) + two octants of
    q^(2(rs+rt+st) + sign*(r+s+t)); the all-negative octant maps to
    sign = -1 under (r, s, t) -> (-r, -s, -t)."""
    _check_maxn(order - 1)
    cells, terms = _table_blocks()
    out = np.zeros(order, dtype=np.int64)
    out[0] = 1
    out[1:] += 3
    # 2rs + r + s = n is (2r + 1)(2s + 1) = 2n + 1
    for _, _, p, q in _pairs(2, -1, 2 * order - 1, 0, cells):
        np.add.at(out, p * q >> 1, 3)
    for sign in (1, -1):
        # with p = 2r + sign and q = 2s + sign the octant term is
        # (pq - 1)/2 + t(p + q - sign), and its t = 1 term is below order
        # exactly when pq + 2(p + q) <= 2*order - 1 + 2*sign
        def pairs(sign=sign):
            for r, s, p, q in _pairs(2, -sign, 2 * order - 1 + 2 * sign, 2,
                                     cells):
                step = p + q - sign
                yield r, s, (p * q >> 1) + step, step

        for n, _, _, _ in _term_blocks(pairs(), 0, order - 1, terms):
            np.add.at(out, n, 1)
    return out


def sigma_table(maxn: int, k: int = 0) -> np.ndarray:
    """sum of d**k over the divisors d of n; at most maxn**(k + 1)."""
    if maxn ** (k + 1) >= 2 ** 63:
        raise OverflowError(f"sigma_{k}(n) for n <= {maxn} may exceed int64")
    return _divisor_sums(maxn, lambda d, _: d ** k)[0]


def d_mod4_tables(maxn: int):
    """The numbers of divisors of n that are 1 and 3 mod 4."""
    _check_maxn(maxn)
    return _divisor_sums(maxn, lambda d, _: (d % 4 == 1).astype(d.dtype),
                         lambda d, _: (d % 4 == 3).astype(d.dtype))


def sigma_no_mult4_table(maxn: int) -> np.ndarray:
    """sum of divisors d of n with 4 not dividing d."""
    _check_maxn(maxn)
    return _divisor_sums(maxn, lambda d, _: d * (d % 4 != 0))[0]
