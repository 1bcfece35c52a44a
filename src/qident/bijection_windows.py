"""The window lane of the bijection checks: every check of
``bijections.verify_case`` for all n of a window of consecutive n at once.

Its triples and forms come from one ``_kernels.ProgressionCursor`` per
family, which opens each pair once and walks only the terms at n = 1, 2
or 3 mod 4, and it reads no table but the ``hurwitz_table`` and
``sigma_table(maxn, 0)`` it is given.  The per-n route shares none of
these: its triples come from the loop ``oracles.iter_solution_triples``,
its forms from
``enumerate_reduced``'s own loop, its class numbers from ``hurwitz_H`` and
its divisor counts from ``oracles.sigma``.  Of the per-n code the lane runs
only the inverse maps of ``bijections``.
``verify.suite_bijections`` runs ``verify_case`` beside it on a prefix of
n; the enumeration is pinned by the tests to its loop oracles, and in
every run by ``count_identity`` (triples against ``hurwitz_table``) and
the preimage checks (triples against forms).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import _kernels
from ._kernels import WINDOW_N_LIMIT
from .bijections import (ALL_EQUAL, FORM_CATEGORY_OF_TRIPLE, CaseMismatch,
                         NotASolution, UnclassifiableForm, _half_inverse,
                         _open_inverse, _shifted_inverse)
from .counting import OPEN, SHIFTED

# With u = 2s - chi and v = 2t - chi, the category-k map sends (r, s, t) to
# (X + K, +-2K, Y + K), where (K, X, Y) is the permutation _PERM[k] of
# (r, u, v) and the sign of b is _SIGN[k]; the odd-r maps of the
# n = 3 mod 4 cases are these images halved.  Row 0, the all-equal triple,
# uses category 1, whose halved image is (r, r, r).
_PERM = np.array([(0, 1, 2), (0, 1, 2), (2, 0, 1), (1, 2, 0), (1, 0, 2),
                  (2, 1, 0), (0, 2, 1)])
_SIGN = np.array([1, 1, 1, 1, -1, -1, -1])
# the form category that triple category 0..6 must meet, by n mod 4; the
# all-equal triple has none
_EXPECTED = np.array(
    [[0] * 7] + [[0] + [FORM_CATEGORY_OF_TRIPLE[case][k] for k in range(1, 7)]
                 for case in ("2", "1", "3a")])


# the kept terms up to n are about this times n**1.5 (1.10 at n = 458, 1.16
# at 3000): the first window's guess, before the stream gives its own
_TERMS_PER_N15 = 1.1


def _window_budget():
    """The most kept terms a window of more than one n holds.  At ``--max
    3000`` a window's arrays then peak at about 0.8 MB (tracemalloc), as
    with the walked-term windows of ``BLOCK // 4`` before the cursor;
    freed numpy buffers stay in the heap, so larger windows raise the run's
    peak RSS."""
    return max(1, _kernels.BLOCK // 6)


def _term_windows(maxn):
    """Yield ``(lo, hi, terms)`` over consecutive windows of 1..maxn, where
    ``terms`` maps each family ("open", "shifted", 4, 1) to the
    ``(n, x, y, k)`` of ``_kernels.ProgressionCursor.take`` for [lo, hi].

    Windows are cut from the stream itself: the cursors give their terms
    up to a guess ``top``, from the number of terms so far as a multiple of
    n**1.5, and the window ends at the last n that keeps it within
    ``_window_budget()`` (at least at lo).  Terms past hi are dropped here
    and given again by the next window.  A window spans at most 2**16 n,
    for the 16-bit sort of ``_by_n``."""
    cursors = {family: _kernels.ProgressionCursor(family, maxn)
               for family in (OPEN, SHIFTED, 4, 1)}
    budget = _window_budget()
    lo, total = 1, 0
    while lo <= maxn:
        scale = total / (lo - 1) ** 1.5 if total else _TERMS_PER_N15
        top = int(((lo - 1) ** 1.5 + 0.95 * budget / scale) ** (2 / 3))
        top = min(max(top, lo), lo + 0xFFFF, maxn)
        terms = {family: c.take(top) for family, c in cursors.items()}
        kept = np.cumsum(sum(np.bincount(cols[0] - lo, minlength=top - lo + 1)
                             for cols in terms.values()))
        hi = lo + max(0, int(kept.searchsorted(budget, side="right")) - 1)
        if hi < top:
            terms = {family: tuple(col[cols[0] <= hi] for col in cols)
                     for family, cols in terms.items()}
        for c in cursors.values():
            c.advance(hi)
        yield lo, hi, terms
        total += int(kept[hi - lo])
        lo = hi + 1


def _by_n(n, lo):
    """The stable order of the n of one window [lo, lo + 2**16): the radix
    sort of 16-bit keys, so terms of one n keep their order."""
    return np.argsort((n - lo).astype(np.uint16), kind="stable")


def _window_triples(lo, opened, shifted):
    """``(n, r, s, t)`` of the solution triples of a window from lo on,
    given the cursors' open and shifted terms: by n, then in
    ``iter_solution_triples`` order."""
    # open n are even and shifted n odd, so one stable sort keeps the order
    n, s, t, k = (np.concatenate(col) for col in zip(opened, shifted))
    del opened, shifted
    order = _by_n(n, lo)
    return n[order], k[order] + 1, s[order], t[order]


def _window_forms(lo, terms):
    """``(n, a, b, c)`` of the reduced forms of discriminant -m*n of a
    window from lo on, given the cursor's m = 4 or 1 terms: by n, then in
    ``enumerate_reduced`` order."""
    order = _by_n(terms[0], lo)
    n, a, b, k = (col[order] for col in terms)
    return n, a, b, a + (b < 0) + k


def _triple_category_rule(r, u, v):
    """``classify_triple`` over arrays, u = 2s - chi and v = 2t - chi, -1
    where no category or several fit."""
    hits = [(r <= u) & (u <= v), (v <= r) & (r <= u), (u <= v) & (v <= r),
            (u < r) & (r < v), (v < u) & (u < r), (r < v) & (v < u)]
    equal = (r == u) & (u == v)
    cat = np.where(equal, ALL_EQUAL, np.select(hits, list(range(1, 7))))
    return np.where(equal | (sum(h.astype(np.int64) for h in hits) == 1),
                    cat, -1)


def _ordering(r, u, v):
    """0..26: the signs of r - u, u - v and v - r, which fix the triple
    category."""
    return 9 * np.sign(r - u) + 3 * np.sign(u - v) + np.sign(v - r) + 13


def _form_category_rule(res, a, b, c):
    """``classify_form`` over arrays, 0 where no category fits: ``res`` =
    n mod 4 picks case '2' (1), '1' (2) or '3a' (3), whose list '4a'
    shares."""
    out = np.zeros(len(a), dtype=np.int64)
    for case in (1, 2, 3):
        m = res == case
        a_, b_, c_ = a[m], b[m], c[m]
        pos = b_ > 0
        b4, b2 = b_ % 4 == 0, b_ % 4 == 2
        ao, co = a_ % 2 == 1, c_ % 2 == 1

        def signed(p, q):
            return np.where(pos, p, q)

        if case == 2:
            conds = [b_ == 0, b4 & ~co, b4 & co, b2 & ao & co]
            cats = [7, signed(2, 4), signed(3, 5), signed(1, 6)]
        elif case == 1:
            conds = [b_ == 0, b4 & ao & co, b2 & ao & ~co, b2 & ~ao & co]
            cats = [7, signed(1, 4), signed(2, 5), signed(3, 6)]
        else:
            conds = [b_ == 0, b4 & ao & co, b2 & ~ao & ~co,
                     b2 & ao & (c_ % 4 == 0), b2 & (a_ % 4 == 0) & co]
            cats = [8, signed(1, 6), 7, signed(2, 4), signed(3, 5)]
        out[m] = np.select(conds, cats)
    return out


def _residues(res, a, b, c):
    """0..1023: n mod 4, the sign of b, and b, a, c mod 4, which fix the
    form category."""
    return (res * 256 + np.where(b > 0, 128, np.where(b == 0, 64, 0))
            + b % 4 * 16 + a % 4 * 4 + c % 4)


@functools.cache
def _category_tables():
    """Each rule applied once, to a representative of every ordering
    (r, u, v in 0..2) and of every residue class (n mod 4, a and c in
    0..3, b in -4..7), for the windows to read; the cyclic orderings never
    occur and stay -1.  Built on first use, so an import of the lane costs
    no numpy work."""
    cells = np.indices((3, 3, 3)).reshape(3, -1)
    triple = np.full(27, -1)
    triple[_ordering(*cells)] = _triple_category_rule(*cells)
    cells = np.indices((4, 4, 12, 4)).reshape(4, -1) - [[0], [0], [4], [0]]
    form = np.zeros(1024, dtype=np.int64)
    form[_residues(*cells)] = _form_category_rule(*cells)
    return triple, form


def _triple_categories(r, u, v):
    """``classify_triple`` over arrays, u = 2s - chi and v = 2t - chi."""
    cat = _category_tables()[0][_ordering(r, u, v)]
    if (cat < 0).any():
        raise NotASolution("a triple matched no category or several")
    return cat


def _images(cat, r, u, v):
    """The category's image of each triple, on discriminant -4n."""
    k, x, y = (np.choose(_PERM[cat, i], (r, u, v)) for i in range(3))
    return x + k, 2 * _SIGN[cat] * k, y + k


def _form_categories(res, a, b, c):
    """``classify_form`` over arrays, 0 where no category fits."""
    return _category_tables()[1][_residues(res, a, b, c)]


def _reduced(a, b, c):
    return ((-a <= b) & (b <= a) & (a <= c)
            & ((b >= 0) | ((-b != a) & (a != c))))


def _find(keys, wanted):
    """Index into the sorted ``keys`` of each wanted key, and whether it
    is there."""
    if not len(keys):
        return (np.zeros(len(wanted), dtype=np.int64),
                np.zeros(len(wanted), dtype=bool))
    pos = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
    return pos, keys[pos] == wanted


def _lists_differ(n1, key1, n2, key2, lo, width):
    """Per n of the window: do two key lists, each sorted by n, differ?"""
    c1 = np.bincount(n1 - lo, minlength=width)
    c2 = np.bincount(n2 - lo, minlength=width)
    differ = c1 != c2
    g = n1 - lo
    same = ~differ[g]
    j = (np.cumsum(c2) - c2)[g] + np.arange(len(g)) - (np.cumsum(c1) - c1)[g]
    differ[g[same][key2[j[same]] != key1[same]]] = True
    return differ


def _incomplete_images(n, a, b, c, cat4):
    """The n of each image (a, b, c) whose preimages do not cover the
    case-4 categories 2, 3 and 4."""
    order = np.lexsort((c, b, a, n))
    n, a, b, c, cat4 = n[order], a[order], b[order], c[order], cat4[order]
    new = np.ones(len(n), dtype=bool)
    new[1:] = ((n[1:] != n[:-1]) | (a[1:] != a[:-1]) | (b[1:] != b[:-1])
               | (c[1:] != c[:-1]))
    image = np.cumsum(new) - 1
    complete = np.ones(int(image[-1]) + 1 if len(image) else 0, dtype=bool)
    for k in (2, 3, 4):
        complete &= np.bincount(image[cat4 == k], minlength=len(complete)) > 0
    return n[~complete[image]]


def _window_failures(lo, hi, terms, h12, sigma0):
    """Which checks of ``verify_case`` fail at each n of [lo, hi], given
    the window's ``terms`` from ``_term_windows``: a bool array per check
    name, indexed by n - lo (never true at a check's n outside its residue
    class).  Arrays are dropped once read for the last time, which bounds
    a window's memory."""
    width = hi - lo + 1
    ns = np.arange(lo, hi + 1)
    res4, res8 = ns % 4, ns % 8

    def count(n):
        return np.bincount(n - lo, minlength=width)

    def seen(n):
        return count(n) > 0

    sig = np.where(res4 != 0, sigma0[ns], 0)
    sig_half = np.where(res4 == 2, sigma0[ns // 2], 0)
    roots = np.arange(math.isqrt(lo - 1) + 1, math.isqrt(hi) + 1)
    square = np.zeros(width, dtype=np.int64)
    square[roots * roots - lo] = 1
    h4n, hn = h12[4 * ns], h12[ns]
    amax = math.isqrt(4 * hi // 3)

    def key(n, a, b):
        # (n, a, b) -> int, increasing; one-to-one on |b| <= a <= amax
        return (n * (amax + 1) + a) * (2 * amax + 1) + b + amax

    failed = {}
    n, r, s, t = _window_triples(lo, terms.pop(OPEN),
                                 terms.pop(SHIFTED))
    chi = n % 2
    u, v = 2 * s - chi, 2 * t - chi
    if ((np.minimum(np.minimum(r, s), t) < 1)
            | ((u + r) * (v + r) != n + r * r)).any():
        raise NotASolution("a triple fails its shape equation")
    cat = _triple_categories(r, u, v)
    res, odd = n % 4, r % 2 == 1
    # the odd-r triples of n = 3 mod 4 map onto -n; the rest onto -4n
    half = (res == 3) & odd
    failed["open_r_odd"] = seen(n[(res == 2) & ~odd])
    failed["shifted_r_even"] = seen(n[(res == 1) & odd])

    # n = 7 mod 8: the four-way split of the triples
    seven = n % 8 == 7
    u4, v4 = (u + r) % 4 == 0, (v + r) % 4 == 0
    cat4 = np.select([~odd, u4 & v4, ~u4 & v4, u4 & ~v4], [1, 2, 3, 4])
    if (seven & (cat4 == 0)).any():
        raise NotASolution("an odd-r triple has neither factor divisible "
                           "by 4")
    sizes = [12 * count(n[seven & (cat4 == k)]) for k in (1, 2, 3, 4)]
    failed["case4_category_sizes"] = (res8 == 7) & (
        (sizes[0] != hn - 6 * sig) | (sizes[1] != hn) | (sizes[2] != hn)
        | (sizes[3] != hn))
    n_count = count(n)
    odd_sign = count(n[seven & ((r + s + t) % 2 == 1)])
    failed["case4_signed_sum"] = (res8 == 7) & (
        2 * (n_count - 2 * odd_sign) != sig)
    failed["count_identity"] = np.select(
        [res4 == 2, res4 == 1, res8 == 3],
        [12 * n_count != h4n - 12 * sig_half, 12 * n_count != h4n - 6 * sig,
         12 * n_count != 6 * hn - 6 * sig], False)

    a, b, c = _images(cat, r, u, v)
    del chi, u, v, u4, v4
    # as in verify_case, an image off -4n fails its check and is neither
    # classified nor matched to a form
    wrong = ~half & (b * b - 4 * a * c != -4 * n)
    failed["image_discriminant"] = seen(n[wrong])
    a, b, c = (np.where(half, x // 2, x) for x in (a, b, c))
    reduced = _reduced(a, b, c)
    failed["image_reduced"] = seen(n[~half & ~reduced])
    classified = ~half & ~wrong
    form_cat = _form_categories(res, a, b, c)
    if (classified & (form_cat == 0)).any():
        raise UnclassifiableForm("an image fits no category of its case")
    failed["category_match"] = seen(n[classified & (form_cat
                                                    != _EXPECTED[res, cat])])
    del form_cat, classified
    # the inverse maps, each on a contiguous slice of one stable grouping
    # by (case, category): open 0..6, shifted onto -4n 7..13, halved 14..20
    group = (7 * np.where(res == 2, 0, 1 + half) + cat).astype(np.uint16)
    order = np.argsort(group, kind="stable")
    ends = np.bincount(group, minlength=21).cumsum()
    back = np.ones(len(n), dtype=bool)
    for case, inverse in enumerate((_open_inverse, _shifted_inverse,
                                    _half_inverse)):
        for k in range(1, 7):
            m = order[ends[7 * case + k - 1]:ends[7 * case + k]]
            rst = inverse(k, a[m], b[m], c[m])
            back[m] = (rst[0] == r[m]) & (rst[1] == s[m]) & (rst[2] == t[m])
    failed["map_inverse_roundtrip"] = seen(n[~half & ~back])
    del r, s, t
    named = cat != ALL_EQUAL
    ok = (half & reduced & (b * b - 4 * a * c == -n)
          & (~named | (back & ((b > 0) == (cat <= 3)))))
    del cat, named, back
    # each odd-r image collects one preimage per category 2, 3, 4
    g = half & seven
    failed["case4_one_preimage_per_category"] = seen(
        _incomplete_images(n[g], a[g], b[g], c[g], cat4[g]))
    # read only where reduced (-4n) or ok (-n), so that |b| <= a <= amax
    image_key = np.where(reduced, key(n, a, b), -1)
    del a, b, c, cat4, g, seven

    # categories 1-6 of the discriminant -4n list
    qn, qa, qb, qc = _window_forms(lo, terms.pop(4))
    if (qb * qb - 4 * qa * qc != -4 * qn).any():
        raise CaseMismatch("a form is off its discriminant -4n")
    qcat = _form_categories(qn % 4, qa, qb, qc)
    if (qcat == 0).any():
        raise UnclassifiableForm("a form fits no category of its case")
    qkey = key(qn, qa, qb)
    dbl = (qn % 4 == 3) & (qcat == 7)
    dn, dkey = qn[dbl], key(qn[dbl], qa[dbl] // 2, qb[dbl] // 2)
    del qa, qb, qc, dbl
    pos, found = _find(qkey, np.where(half | wrong, -1, image_key))
    outside = ~half & ~found
    outside[found] = qcat[pos[found]] > 6
    hits = np.bincount(pos[found], minlength=len(qkey))
    failed["preimage_exactly_one"] = (seen(n[outside])
                                      | seen(qn[(qcat <= 6) & (hits != 1)]))
    b0 = count(qn[qcat == np.where(qn % 4 == 3, 8, 7)])
    failed["b0_count"] = np.select(
        [res4 == 2, res4 == 1, res4 == 3],
        [b0 != sig_half, 2 * b0 != sig + square, 2 * b0 != sig], False)
    del qn, qcat, qkey, pos, found, outside, hits

    # n = 3 mod 4: the doubled forms and the odd-r maps onto -n
    pn, pa, pb, pc = _window_forms(lo, terms.pop(1))
    pkey = key(pn, pa, pb)
    failed["doubled_forms_count"] = (res4 == 3) & _lists_differ(
        dn, dkey, pn, pkey, lo, width)
    pos, found = _find(pkey, np.where(ok, image_key, -1))
    hits = np.bincount(pos[found], minlength=len(pkey))
    zzz = (pa == pb) & (pb == pc)
    failed["odd_r_preimages"] = (seen(n[half & ~found])
                                 | seen(pn[hits != np.where(zzz, 1, 3)]))
    return failed


def verify_windows(maxn: int, h12, sigma0):
    """Every check of ``verify_case`` for every n <= maxn, over windows of
    consecutive n: an iterator of ``(lo, failed)`` per window, where ``failed``
    maps each check name to a bool array, true at ``lo + i`` when the
    check fails there.  ``h12`` is ``12*H(N)`` for N <= 4*maxn, as from
    ``quadforms.hurwitz_table``, and ``sigma0`` the number of divisors of
    each n <= maxn, as from ``_kernels.sigma_table(maxn, 0)``.

    The windows, cut from the stream of kept terms by ``_term_windows``,
    hold at most ``_window_budget()`` terms each (or a single n).  Their
    triples and reduced forms are ordered by a stable 16-bit sort of
    n - lo, classified through tables of the category rules, mapped,
    inverted on the slices of one stable grouping by (case, category), and
    counted with array masks, and images are matched to forms by packed
    int64 ``(n, a, b)`` keys through ``searchsorted``.  Beside a window's
    arrays the lane holds the cursors, about 20 bytes per pair.  Where the
    per-n route raises (``NotASolution``, ``CaseMismatch``,
    ``UnclassifiableForm``), so does the lane.

    Overflow bound: r, s, t <= maxn, so u, v <= 2*maxn, image entries are
    at most 4*maxn, and every product, discriminant and key is at most
    80*maxn**2; maxn >= ``WINDOW_N_LIMIT`` raises ``OverflowError``.
    """
    if maxn >= WINDOW_N_LIMIT:
        raise OverflowError(f"window lane for n <= {maxn} may exceed int64")
    return ((lo, _window_failures(lo, hi, terms, h12, sigma0))
            for lo, hi, terms in _term_windows(maxn))
