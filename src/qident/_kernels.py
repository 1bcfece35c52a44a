"""Batch enumeration kernels for the counting sweeps.

Every table is exact int64 numpy with ``maxn + 1`` entries, one per n.

* Lattice counts (x^2 + 2y^2 + 2z^2, sums of squares, sums of triangular
  numbers) are truncated products of one-variable theta indicator tables,
  built by ``_times_sparse``.  That is the lattice sum factored by
  variable, not an identity, so these tables stay an independent route
  from the series they are checked against.
* Progression counts (triple sums, signed pair sums) add each arithmetic
  progression as one strided slice; the indices within one slice are
  distinct, so a slice add is exact.
* Divisor tables are strided sieves.

Overflow bound: every entry is a signed or unsigned count of lattice
points or progression terms up to ``maxn``.  A lattice entry counts points
of at most four square variables, each in ``[-isqrt(maxn), isqrt(maxn)]``,
so it is at most ``(2*isqrt(maxn) + 1)**4``.  A progression entry is a
constant of at most 4 plus at most five unit terms per pair ``(r, s)`` with
``1 <= r, s <= maxn`` (n fixes the third variable), so it is at most
``9*(maxn + 1)**2``.  Both are below 2**63 for ``maxn <= 10**9``, past any
table that fits in memory (8 GB each).  ``sigma_table(maxn, k)`` is at most
``maxn**(k + 1)``; it raises ``OverflowError`` when that reaches 2**63.
Memory is linear in ``maxn``.

``ragged_blocks`` is the block iterator of the per-n lane
(``counting.solution_triple_arrays``, ``quadforms.enumerate_reduced``,
``counting.parity_bijection_images``) and of the bijection window lane:
it walks a ragged grid row-major in blocks of at most ``BLOCK`` cells, so
a per-n call's memory does not grow with n.
"""

from __future__ import annotations

import numpy as np

# the benchmark's provenance probe reads this; there is one numpy lane
USE_NUMBA = False

# cells per block of ``ragged_blocks``
BLOCK = 1 << 16


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
    theta = _theta_terms(maxn)
    out = _unit(maxn)
    for _ in range(s):
        out = _times_sparse(out, theta)
    return out


def triangular3_table(maxn):
    """Ordered triples of triangular numbers k(k+1)/2, k >= 0, summing to n."""
    tri = []
    k = 0
    while k * (k + 1) // 2 <= maxn:
        tri.append((k * (k + 1) // 2, 1))
        k += 1
    return _times_sparse(_times_sparse(_times_sparse(
        _unit(maxn), tri), tri), tri)


# ---------------------------------------------------------------------------
# triple sums over (2s - chi + r)(2t - chi + r) = n + r^2
#
# open shape   (chi = 0):  n = 2r(s+t) + 4st
# shifted shape (chi = 1): n = 2r(s+t-1) + (2s-1)(2t-1)
#
# for fixed (r, s) the n form the progression start + step*t, t >= 1
# ---------------------------------------------------------------------------


def triple_tables(maxn, shifted):
    """(total, signed, r_even) counts of the shape's triples for n <= maxn."""
    total = np.zeros(maxn + 1, dtype=np.int64)
    signed = np.zeros(maxn + 1, dtype=np.int64)
    r_even = np.zeros(maxn + 1, dtype=np.int64)
    r = 1
    while (2 * r + 1 if shifted else 4 * r + 4) <= maxn:
        s = 1
        while True:
            if shifted:
                step = 4 * s - 2 + 2 * r
                start = 2 * r * s - 2 * r - 2 * s + 1
            else:
                step = 2 * r + 4 * s
                start = 2 * r * s
            first = start + step  # t = 1
            if first > maxn:
                break
            total[first::step] += 1
            # (-1)^(r+s+t), and t = 1 is odd
            _alternating(signed, first, step, -1 if (r + s) % 2 == 0 else 1)
            if r % 2 == 0:
                r_even[first::step] += 1
            s += 1
        r += 1
    return total, signed, r_even


# ---------------------------------------------------------------------------
# signed double sums: q^{2rs}, q^{4st}, q^{(2s-1)(2t-1)}
# ---------------------------------------------------------------------------


def pair_tables(maxn):
    """Signed sums of (-1)^(r+s) over 2rs = n, 4rs = n, (2r-1)(2s-1) = n."""
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
    out = np.zeros(maxn + 1, dtype=np.int64)
    for d in range(1, maxn + 1):
        if d % 4:
            out[d::d] += d
    return out


# ---------------------------------------------------------------------------
# ragged grids for the per-n lane
# ---------------------------------------------------------------------------


def ragged_blocks(first, last, row_len):
    """Yield ``(i, j)`` int64 arrays over the cells ``0 <= j < row_len(i)``
    of the rows ``first <= i <= last``, row-major, at most ``BLOCK`` cells
    at a time.  ``row_len`` maps an int64 array of rows to their lengths.
    Rows are taken ``BLOCK // 16`` at a time, so their bookkeeping stays
    small beside a block; a row longer than ``BLOCK`` is split across
    blocks."""
    block = BLOCK
    rows_step = max(1, block // 16)
    for lo in range(first, last + 1, rows_step):
        rows = np.arange(lo, min(lo + rows_step, last + 1), dtype=np.int64)
        ends = np.cumsum(row_len(rows))
        begins = np.concatenate(((0,), ends[:-1]))
        total = int(ends[-1])
        for start in range(0, total, block):
            stop = min(start + block, total)
            # the rows that hold cells start .. stop - 1, and their share
            i0, i1 = np.searchsorted(ends, (start, stop - 1), side="right")
            span = slice(i0, i1 + 1)
            share = (np.minimum(ends[span], stop)
                     - np.maximum(begins[span], start))
            j = np.arange(start, stop, dtype=np.int64)
            j -= np.repeat(begins[span], share)
            yield np.repeat(rows[span], share), j
