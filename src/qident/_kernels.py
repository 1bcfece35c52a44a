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
  triangular sum side are progressions of their own.  Sums symmetric in
  s and t walk s <= t only, with weight 2 off the diagonal.
  ``progression_counts`` counts the triples and forms, and
  ``counting.parity_bijection_walk`` walks ``ragged_blocks`` too, one x
  row at a time.

The bijection window lane lists the triples and forms window by window
through one ``ProgressionCursor`` per family, which opens each pair once,
keeps its next k, and visits it only in the windows that hold one of its
terms at n = 1, 2 or 3 mod 4.

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


def _pairs(stride, chi, hi, r, block=None, half=False):
    """``(s, t, p, q)`` int64 blocks of the pairs (p, q) = (stride*s - chi,
    stride*t - chi), s, t >= 1, with pq + r(p + q) <= hi, s-major in
    ``ragged_blocks``: r = 0 walks the factorings pq = n <= hi, r = 1 the
    first terms of a triple family.  ``half`` walks only the pairs with
    s <= t, for sums symmetric in s and t."""
    c = r - chi  # p + r = stride*s + c

    def row_len(s):  # the t with (p + r)(q + r) <= hi + r*r
        if c:
            return ((hi + r * r) // (stride * s + c) - c) // stride
        return (hi + r * r) // (stride * s) // stride

    if half:
        # the rows with (p + r)^2 <= hi + r*r, each from t = s on
        rows = (1, (math.isqrt(hi + r * r) - c) // stride,
                lambda s: np.maximum(row_len(s) - s + 1, 0))
    else:
        # the pairs are symmetric, so there are as many rows as t in row 1
        rows = (1, row_len(1), row_len)
    for s, t in ragged_blocks(*rows, block):
        t += s if half else 1  # cell j is t = j + s, or t = j + 1
        p = s * stride
        q = t * stride
        if chi:
            p -= chi
            q -= chi
        yield s, t, p, q


def _pair_blocks(family, hi, block=None, half=False):
    """``(x, y, first, step)`` of the family's pairs, labelled (s, t) or
    (a, b), in pair order ((s, t) s-major, (a, b) lexicographic) and in
    ``ragged_blocks``: the triple rows hold exactly the pairs with
    first <= hi (with s <= t only, if ``half``), the form rows every b of
    each a <= isqrt(m*hi/3), some starting above hi."""
    if family in _TRIPLES:
        for s, t, p, q in _pairs(*_TRIPLES[family], hi, 1, block, half):
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

    The default is ``BLOCK // 4``: freed numpy buffers stay in the heap,
    and on ``verify --suite all --order 300 --max 3000`` full blocks here
    raised the peak RSS from 34.2 MB to 37.0 MB, quarter blocks to
    34.4 MB."""
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


def progression_counts(family, hi):
    """The number of the family's terms at each n <= hi."""
    _check_family(family, hi)
    out = np.zeros(hi + 1, dtype=np.int64)
    for n, _, _, _ in _term_blocks(_pair_blocks(family, hi), 0, hi):
        np.add.at(out, n, 1)
    return out


def _kept_steps(family, x, y):
    """``(step, kstep)`` of each pair: the n and the k between two of its
    terms that a ``ProgressionCursor`` keeps."""
    if family == "open":
        return 4 * (x + y), np.full_like(x, 2)
    if family == "shifted":
        return 2 * (x + y - 1), np.ones_like(x)
    if family == 1:
        return 4 * x, np.ones_like(x)
    kstep = np.where((x % 4 == 2) & (y % 4 == 0), 2, 1)
    return kstep * x, kstep


class ProgressionCursor:
    """The family's terms (n, x, y, k) with n = 1, 2 or 3 mod 4 and
    n <= maxn, in increasing windows [lo, hi] of n: ``take(hi)`` returns
    the terms in [lo, hi], and ``advance(hi)`` moves lo past hi.

    Each pair of ``_pair_blocks`` is opened once, here, and keeps its next
    term's k, in int32 columns ``x``, ``y`` and ``k``.  A pair none of
    whose terms the cursor keeps is never opened, and the others step over
    their n = 0 mod 4 terms where a rule finds them:

    * open: n = 4st + 2r(s + t) is 0 mod 4 for every r when s + t is even,
      and otherwise exactly for even r, so the pairs with s + t odd step by
      2(p + q) over odd r;
    * m = 4 forms: n = first + a*k; 4 | a fixes n mod 4, so such a pair
      with 4 | first is dropped, and for a = 2 mod 4 with first even n
      alternates between 0 and 2 mod 4, so the pair steps by 2a;
    * shifted triples and m = 1 forms have n odd and n = 3 mod 4 only;
    * the other m = 4 pairs, with a odd, keep every term but n = 0 mod 4.

    The pairs are bucketed by their next term: the cursor holds sorted runs
    of int64 keys ``n << shift | i`` (pair i, next term at n), and
    ``take(hi)`` pops the keys up to hi from the front of each run.  So a
    pair is visited only in windows that hold one of its terms, whatever
    its step, and no pass counts terms ahead of the windows.  ``advance``
    pushes the popped pairs back as one new run, and a run is merged with
    the one below it while that is at most twice its size, so there are
    O(log pairs) runs.  Within one n the terms come in pair order, so a
    stable sort by n gives the order of ``oracles.iter_solution_triples``
    and ``quadforms.enumerate_reduced``.

    Memory is the 12 bytes of the three columns and the 8 of a key per
    opened pair.  Overflow: a pair's next term n is at most maxn + step
    <= 3*maxn, and its k and x, y at most that, so the int32 columns hold
    them for maxn < 2**29 (``OverflowError`` otherwise); a key holds
    n <= maxn, so it is below (maxn + 1) << shift, 2**shift > the pairs,
    which the cursor checks against int64 before it sorts the keys.
    """

    def __init__(self, family, maxn):
        _check_family(family, maxn)
        if maxn >= 2 ** 29:
            raise OverflowError(f"progression cursor for n <= {maxn} may "
                                "exceed int32")
        self.family, self.maxn = family, maxn
        cols = [[np.zeros(0, dtype)]
                for dtype in (np.int32, np.int32, np.int32, np.int64)]
        for x, y, first, step in _pair_blocks(family, maxn):
            k = np.zeros_like(first)
            if family == "open":
                keep = (x + y) % 2 == 1
            elif family == 4:
                res = first % 4
                keep = (x % 4 != 0) | (res != 0)
                k[(x % 4 == 2) & (res == 0)] = 1
                first += step * k
            else:
                keep = np.ones(len(x), dtype=bool)
            keep &= first <= maxn
            for col, part in zip(cols, (x, y, k, first)):
                col.append(part[keep].astype(col[0].dtype))
            del x, y, first, step, k, keep
        # first is the key column, the n of each pair's first kept term;
        # each column's blocks go as soon as it is whole
        self.x, self.y, self.k, keys = (np.concatenate(cols.pop(0))
                                        for _ in range(4))
        self._shift = max(1, len(keys).bit_length())
        self._mask = (1 << self._shift) - 1
        if (maxn + 1) << self._shift >= 2 ** 63:
            raise OverflowError(f"progression cursor keys for n <= {maxn} "
                                "may exceed int64")
        keys <<= self._shift
        keys |= np.arange(len(keys))
        # every sort here is stable: numpy's default sort brings in its own
        # vectorized code, 0.25 MB more peak RSS at --max 3000
        keys.sort(kind="stable")
        self._runs = [keys]
        self._popped = None

    def take(self, hi):
        """``(n, x, y, k)`` int64 arrays of the kept terms in [lo, hi], in
        pair order and by n within a pair.  Until ``advance`` the same
        pairs stay popped: call it once after each ``take``."""
        bound = (hi + 1) << self._shift
        heads = []
        for i, run in enumerate(self._runs):
            cut = run.searchsorted(bound)
            heads.append(run[:cut])
            self._runs[i] = run[cut:]
        keys = np.concatenate(heads)
        keys = keys[np.argsort(keys & self._mask, kind="stable")]
        idx = keys & self._mask
        n = keys >> self._shift
        # int64 from here on: the int32 loops of numpy's arithmetic, run
        # nowhere else in a verify run, would cost their own code pages
        x, y, k = (col[idx].astype(np.int64)
                   for col in (self.x, self.y, self.k))
        step, kstep = _kept_steps(self.family, x, y)
        self._popped = idx, n, k, step, kstep
        count = (hi - n) // step + 1
        j = np.arange(int(count.sum()), dtype=np.int64)
        j -= np.repeat(count.cumsum() - count, count)
        terms = (np.repeat(n, count) + np.repeat(step, count) * j,
                 np.repeat(x, count), np.repeat(y, count),
                 np.repeat(k, count) + np.repeat(kstep, count) * j)
        if self.family == 4:  # the odd a
            keep = terms[0] % 4 != 0
            terms = tuple(col[keep] for col in terms)
        return terms

    def advance(self, hi):
        """Move the pairs of the last ``take`` past hi, and drop those
        with no term left below maxn."""
        idx, n, k, step, kstep = self._popped
        self._popped = None
        moved = np.maximum((hi - n) // step + 1, 0)
        n += step * moved
        self.k[idx] = k + kstep * moved
        live = n <= self.maxn
        keys = n[live]
        keys <<= self._shift
        keys |= idx[live]
        keys.sort(kind="stable")
        runs = [run for run in self._runs if len(run)] + [keys]
        while len(runs) > 1 and len(runs[-2]) <= 2 * len(runs[-1]):
            merged = np.concatenate((runs.pop(-2), runs.pop()))
            # two sorted runs: the stable sort (timsort) merges them
            merged.sort(kind="stable")
            runs.append(merged)
        self._runs = runs


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
    and [r even] over the terms of ``_term_blocks``.  Each sum is symmetric
    in s and t, so the walk takes s <= t, with weight 2 off the
    diagonal."""
    _check_maxn(maxn)
    # column 2*[r even] + [r + s + t odd] of each n, flattened
    table = np.zeros((maxn + 1, 4), dtype=np.int64)
    flat = table.reshape(-1)
    pairs = _pair_blocks("shifted" if shifted else "open", maxn, half=True)
    for n, s, t, k in _term_blocks(pairs, 0, maxn):
        # r = k + 1 is even for odd k
        n = 4 * n + 2 * (k % 2) + (k + 1 + s + t) % 2
        np.add.at(flat, n, 2)
        np.add.at(flat, n[s == t], -1)  # the diagonal counts once
    total = table.sum(axis=1)
    signed = table[:, 0] + table[:, 2] - table[:, 1] - table[:, 3]
    r_even = table[:, 2] + table[:, 3]
    return total, signed, r_even


def hlm_tables(maxn):
    """Signed sums of (-1)^(r+s) over rs = n and (-1)^(r+s+t) over
    rs + rt + st = n, all variables >= 1; the triple walk takes s <= t,
    with weight 2 off the diagonal, as its sum is symmetric in s and t."""
    _check_maxn(maxn)
    cells, terms = _table_blocks()
    triple = np.zeros(maxn + 1, dtype=np.int64)
    for n, s, t, k in _term_blocks(_pair_blocks("hlm", maxn, cells, True),
                                   0, maxn, terms):
        # r = k + 1, so r + s + t is odd exactly when k + s + t is even
        sign = (k + s + t) % 2 * 4 - 2
        np.add.at(triple, n, sign)
        diag = s == t  # counts once: half its weight back
        np.subtract.at(triple, n[diag], sign[diag] // 2)
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
    sign = -1 under (r, s, t) -> (-r, -s, -t).  An octant term is
    symmetric in r and s, so its walk takes r <= s, with weight 2 off the
    diagonal."""
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
                                     cells, True):
                step = p + q - sign
                yield r, s, (p * q >> 1) + step, step

        for n, r, s, _ in _term_blocks(pairs(), 0, order - 1, terms):
            np.add.at(out, n, 2)
            np.add.at(out, n[r == s], -1)  # the diagonal counts once
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
