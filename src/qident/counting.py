"""Solution triples, the sum side, and the classical identities.

The per-n counters (``sigma``, ``d_mod4``, ``rep_squares``,
``signed_rep_count``, ``rep_count``, ``r3_triangular``,
``is_three_square_excluded``, and ``iter_solution_triples``, the one
enumeration of the solution triples of one n) live in the stdlib-only
``oracles`` and are imported back here, so ``counting.X`` keeps naming them.
``triple_sum`` counts those triples for the closed forms
``signed_formula_*``, which pin the batch sum side on a prefix of n and so
share no walk with it.  The sweep-scale tables are the batch kernels in
``_kernels``, which callers read directly; tests pin every kernel against
the per-n oracles.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import _kernels
# the per-n oracles, imported back so that ``counting.X`` names each
from .oracles import (OPEN, SHIFTED, TRIPLE_N_LIMIT, _orthant_solutions,
                      d_mod4, is_three_square_excluded, iter_solution_triples,
                      r3_triangular, rep_count, rep_squares, sigma,
                      signed_rep_count)
from .quadforms import hurwitz_table
from .report import Check, VerificationReport, table_check
from .series import QSeries, eta_quotient


class WrongParity(ValueError):
    """The closed-form coefficient formulas are split by parity of n."""


class TripleParityViolation(ValueError):
    """A solution triple has the parity of r its residue class excludes."""


# ---------------------------------------------------------------------------
# solution triples of (2s - chi + r)(2t - chi + r) = n + r^2
# ---------------------------------------------------------------------------


def triple_sum(n: int, shape: str, signed: bool = False) -> int:
    """Count (or sign-count) the solution triples of the shape equation;
    the closed forms ``signed_formula_*`` take their signed sums here.

    For the residue classes where the count feeds an identity, the parity
    of r is forced, and a triple that breaks it raises
    ``TripleParityViolation``: open shape with n = 2 mod 4 has odd r,
    shifted shape with n = 1 mod 4 has even r.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    total = 0
    for r, s, t in iter_solution_triples(n, shape):
        if ((shape == OPEN and n % 4 == 2 and r % 2 == 0)
                or (shape == SHIFTED and n % 4 == 1 and r % 2 == 1)):
            raise TripleParityViolation(f"n = {n}, {shape} triple "
                                        f"{(r, s, t)}")
        total += (1 if (r + s + t) % 2 == 0 else -1) if signed else 1
    return total


# ---------------------------------------------------------------------------
# the sum side of the main identity
# ---------------------------------------------------------------------------


def sum_side_table(maxn: int, open_signed=None, shifted_signed=None):
    """The sum side's coefficients of q^1 .. q^maxn as an int64 table, 0 at
    n = 0: -4*even2 - 2*even4 - 2*odd - 4*open - 4*shifted, the signed pair
    sums of ``_kernels.pair_tables`` and the signed triple sums of
    ``_kernels.triple_tables``.  ``open_signed`` and ``shifted_signed`` are
    those triple tables, of at least ``maxn + 1`` entries, each built when
    not given.

    Overflow bound: each pair table entry is a sum of at most n unit terms,
    one per factoring, and each triple table entry of at most n*(1 + ln n),
    one per pair (s, t) with st <= n, so every entry is at most
    8n + 8n*(1 + ln n), below 2**63 for n <= ``_kernels.MAXN_LIMIT``.
    """
    even2, even4, odd = _kernels.pair_tables(maxn)
    if open_signed is None:
        open_signed = _kernels.triple_tables(maxn, False)[1]
    if shifted_signed is None:
        shifted_signed = _kernels.triple_tables(maxn, True)[1]
    out = open_signed[:maxn + 1] + shifted_signed[:maxn + 1]
    out += even2
    out *= 2
    out += even4
    out += odd
    out *= -2
    return out


def sum_side_series(order: int) -> QSeries:
    """1 - 4*sum q^{2rs}(-1)^{r+s} - 2*sum q^{4st}(-1)^{s+t}
       - 2*sum q^{(2s-1)(2t-1)}(-1)^{s+t} - 4*(open triples, signed)
       - 4*(shifted triples, signed), all truncated below ``order``: the
    coefficients of ``sum_side_table``."""
    if order < 1:
        raise ValueError("order must be >= 1")
    coeffs = sum_side_table(order - 1).tolist()
    coeffs[0] = 1
    return QSeries._raw(coeffs, None, 1, order)


def _signed_divisor_pairs(m: int) -> int:
    """Sum of (-1)**(r+s) over the ordered pairs r*s = m."""
    total = 0
    for d in range(1, math.isqrt(m) + 1):
        if m % d == 0:
            e = m // d
            total += (1 if (d + e) % 2 == 0 else -1) * (1 if d == e else 2)
    return total


def signed_formula_even(n: int) -> int:
    """Closed form for the signed count at even n."""
    if n < 1 or n % 2:
        raise WrongParity("needs positive even n")
    total = -4 * _signed_divisor_pairs(n // 2)
    if n % 4 == 0:
        total -= 2 * _signed_divisor_pairs(n // 4)
    return total - 4 * triple_sum(n, OPEN, signed=True)


def signed_formula_odd(n: int) -> int:
    """Closed form for the signed count at odd n."""
    if n < 1 or n % 2 == 0:
        raise WrongParity("needs positive odd n")
    total = 0
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            for a in {d, n // d}:
                s = (a + 1) // 2
                t = (n // a + 1) // 2
                total += -2 if (s + t) % 2 == 0 else 2
    return total - 4 * triple_sum(n, SHIFTED, signed=True)


# ---------------------------------------------------------------------------
# classical identities
# ---------------------------------------------------------------------------


# (2*isqrt(n) + 1)**3, the range of the image keys, stays below 2**63
PARITY_N_LIMIT = 2 ** 40


def _parity_map(x, u, v):
    """The explicit map of the parity bijection: the solution (x, u, v) of
    x^2+u^2+v^2 = n, u = v mod 2, goes to (x, y, z) = (x, (u+v)/2, (u-v)/2),
    a solution of x^2+2y^2+2z^2 = n; x is kept, and (y, z) returned."""
    return (u + v) // 2, (u - v) // 2


def _parity_images(x, u, v, m):
    """Map the solutions (x, u, v) >= 0 of x^2+u^2+v^2 = n, u = v mod 2,
    each with every sign of its nonzero entries (u = v mod 2 does not
    depend on the signs), by ``_parity_map``: ``(n, bad)`` per signed
    solution, its n = x^2 + u^2 + v^2 and whether it fails: its image is
    off x^2+2y^2+2z^2 = n, the inverse (y + z, y - z) does not give back
    (u, v), or an earlier solution of the call has the same image
    (``parity_bijection_walk`` passes one block of one x row a call).
    Images are compared as packed int64 keys, one-to-one while every
    n <= m**2."""
    cols = [x, u, v]
    for axis in range(3):
        nonzero = cols[axis] != 0
        cols = [np.concatenate((col, -col[nonzero] if k == axis
                                else col[nonzero]))
                for k, col in enumerate(cols)]
    x, u, v = cols
    n = x * x + u * u + v * v
    y, z = _parity_map(x, u, v)
    solves = x * x + 2 * y * y + 2 * z * z == n
    bad = ~solves | (y + z != u) | (y - z != v)
    # every |x|, |y|, |z| <= m on an image that solves x^2+2y^2+2z^2 = n
    i = np.flatnonzero(solves)
    width = 2 * m + 1
    key = ((x[i] + m) * width + y[i] + m) * width + z[i] + m
    order = np.argsort(key, kind="stable")
    key = key[order]
    bad[i[order[1:][key[1:] == key[:-1]]]] = True
    return n, bad


def parity_bijection_images(n: int) -> int | None:
    """The explicit arm of the three-squares parity bijection at n.

    Maps every solution of x^2+u^2+v^2 = n with u = v mod 2 to
    (x, (u+v)/2, (u-v)/2) and back.  Returns the number of distinct images,
    each a solution of x^2+2y^2+2z^2 = n, or None if a map or the inverse
    fails or two solutions share an image.

    One loop walks x, u >= 0 and looks v up in a dict of squares.  A square
    is 0 or 1 mod 4 and u = v mod 2 makes u^2 + v^2 = 0 or 2 mod 4, so x
    runs over the parity of n, and (n - x^2) mod 4 fixes the parity of u.
    Each solution is taken with every sign of its nonzero entries (u = v
    mod 2 does not depend on the signs), mapped by ``_parity_map``, and its
    image checked against the equation, the inverse (y + z, y - z) and the
    set of earlier images.  It shares only ``_parity_map`` with
    ``parity_bijection_walk``.  n >= ``PARITY_N_LIMIT``, the bound of the
    walk's packed keys, raises ``OverflowError``, so that both arms refuse
    the same n.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n >= PARITY_N_LIMIT:
        raise OverflowError(f"parity images for n = {n} may exceed int64")
    roots = {v * v: v for v in range(math.isqrt(n) + 1)}
    images = set()
    for x in range(n % 2, math.isqrt(n) + 1, 2):
        rx = n - x * x
        for u in range(rx % 4 // 2, math.isqrt(rx) + 1, 2):
            v = roots.get(rx - u * u)
            if v is None or (u - v) % 2:
                continue
            for sx in (x, -x) if x else (0,):
                for su in (u, -u) if u else (0,):
                    for sv in (v, -v) if v else (0,):
                        y, z = _parity_map(sx, su, sv)
                        if (sx * sx + 2 * y * y + 2 * z * z != n
                                or (y + z, y - z) != (su, sv)
                                or (sx, y, z) in images):
                            return None
                        images.add((sx, y, z))
    return len(images)


def parity_bijection_walk(maxn: int):
    """The explicit arm of the parity bijection at every multiple of four up
    to maxn, in one walk: ``(images, failed)``, indexed by n/4, the number
    of images at n and whether a map, an inverse or the distinctness test
    fails there; ``parity_bijection_images(n)`` is ``images[n/4]``, or None
    where ``failed``.

    A square is 0 or 1 mod 4, so n = 0 mod 4 leaves x, u and v all even,
    and u = v mod 2: the walk takes the cells (x, u, v) = 2(i, j, k),
    i, j, k >= 0, with x^2 + u^2 + v^2 <= maxn, each a solution at its n.
    It walks one x row i at a time, in ``_kernels.ragged_blocks`` of at
    most ``_kernels.BLOCK // 64`` cells (j, k), so of at most
    ``_kernels.BLOCK // 8`` signed solutions, and the solutions of a block
    go to ``_parity_images`` together; at maxn = 3000 the walk peaks at
    0.44 MB (tracemalloc), within the 0.8 MB of a bijection lane window.

    An image keeps its x, so only solutions of one row can share an image:
    within a block the packed keys see it, and of two solutions in
    different blocks with one image at most one passes the inverse, which
    gives back its own (u, v), so their n fails either way.  maxn >=
    ``PARITY_N_LIMIT`` raises ``OverflowError``.
    """
    if maxn < 0:
        raise ValueError("maxn must be >= 0")
    if maxn >= PARITY_N_LIMIT:
        raise OverflowError(f"parity images for n <= {maxn} may exceed "
                            "int64")
    top = maxn // 4  # i^2 + j^2 + k^2 <= top
    squares = np.arange(math.isqrt(top) + 1, dtype=np.int64) ** 2
    images = np.zeros(top + 1, dtype=np.int64)
    failed = np.zeros(top + 1, dtype=bool)
    for i in range(len(squares)):
        rest = top - i * i

        def k_len(j):  # the k with k^2 <= rest - j^2
            return squares.searchsorted(rest - j * j, side="right")

        for j, k in _kernels.ragged_blocks(0, math.isqrt(rest), k_len,
                                           max(1, _kernels.BLOCK // 64)):
            n, bad = _parity_images(np.full_like(j, 2 * i), 2 * j, 2 * k,
                                    math.isqrt(maxn))
            n >>= 2
            np.add.at(images, n, 1)
            failed[n[bad]] = True
    return images, failed


def three_squares_parity_check(n: int, counts=None) -> bool:
    """rep_count(n) equals the number of x^2+u^2+v^2 = n solutions with
    u = v mod 2, via the explicit mutually inverse maps; for n = 0 mod 4
    additionally r3(n) = r3(n/4) = signed_rep_count(n).

    ``counts`` is None, and the counts come from the per-n oracles, or a
    triple (signed, unsigned, r3) of tables indexed by n, as from the
    kernels ``signed_rep_tables`` and ``square_rep_tables(3, ...)``, read
    instead.
    """
    images = parity_bijection_images(n)
    if counts is None:
        if images is None or images != rep_count(n):
            return False
        return n % 4 != 0 or (rep_squares(3, n) == rep_squares(3, n // 4)
                              == signed_rep_count(n))
    signed, unsigned, r3 = counts
    if images is None or images != int(unsigned[n]):
        return False
    return n % 4 != 0 or int(r3[n]) == int(r3[n // 4]) == int(signed[n])


def sweep_entry_bound(maxn: int) -> int:
    """A bound on the modulus of every table entry an int64 sweep at
    ``maxn`` reads, from the bounds the tables' builders state:

    * 12*H(N) for N <= X = 4*maxn is at most 4X + 12*isqrt(X)
      (``hurwitz_table``);
    * a lattice count (r2, r3, r4, the signed and unsigned counts of
      x^2+2y^2+2z^2, the triangular triples) is at most
      2*(2*isqrt(2*maxn) + 1)**3 (``_kernels``);
    * a divisor count or sum (sigma0, d_mod4, the signed rs = n table of
      ``hlm_tables``, sigma of the divisors not divisible by four) is at
      most sigma_1(n) = sum over d | n of n/d, and a triple count (the
      open and shifted tables, signed or by the parity of r, and the
      triples of rs + rt + st = n) has at most one triple per pair (s, t)
      with st <= n; both are at most n*(1 + ln n), below
      maxn*(1 + bit_length(maxn)).
    """
    x = 4 * maxn
    return max(4 * x + 12 * math.isqrt(x),
               2 * (2 * math.isqrt(2 * maxn) + 1) ** 3,
               maxn * (1 + maxn.bit_length()))


def check_sweep_int64(maxn: int) -> None:
    """The overflow guard of the int64 sweeps at ``maxn``: those of
    ``classical_checks`` and of the theorem17, propositions, theorem61 and
    background suites of ``verify``.  Each side of a sweep's comparison
    adds table entries with integer weights whose moduli sum to at most 24
    (the heaviest is 24*h12[n], that is 24*H(n) in units of 12*H), so it
    stays below 24 times ``sweep_entry_bound(maxn)``; the signed product
    enters as int64 entries of modulus below 2**63 // 12 (the guard of
    ``verify.Tables.product``), and 12 times one fits.  Raises
    ``OverflowError`` when 24 times the entry bound reaches 2**63, which
    happens first at maxn = 41 623 914 865, above every ``--max`` bound of
    those suites in ``verify._SIZES`` (the tests pin that).
    """
    if 24 * sweep_entry_bound(maxn) >= 1 << 63:
        raise OverflowError(f"int64 sweeps at n <= {maxn} may exceed int64")


def three_square_excluded_table(maxn: int):
    """``is_three_square_excluded(n)`` for 0 <= n <= maxn as a bool table:
    n = 4**a * (8b + 7) is n = 7 * 4**a mod 8 * 4**a."""
    out = np.zeros(maxn + 1, dtype=bool)
    step = 8
    while 7 * step // 8 <= maxn:
        out[7 * step // 8::step] = True
        step *= 4
    return out


def classical_checks(maxn: int, h12=None, r3=None,
                     sigma1=None) -> VerificationReport:
    """The classical square-counting identities, swept to maxn.

    ``h12`` is a ``hurwitz_table`` of at least ``4*maxn + 1`` entries,
    ``r3`` a ``square_rep_tables(3, ...)`` table and ``sigma1`` a
    ``sigma_table(..., 1)`` table, each of at least ``maxn + 1``; each is
    built when not given.

    Every sweep compares whole int64 tables and runs its per-n expression
    only at the n where they fail (``report.table_check``); the bound of
    its int64 arithmetic is ``check_sweep_int64``.  The triangular triples
    meet the eta quotient ``((q^2;q^2)^2/(q;q))^3`` entry by entry, built in
    int64 by ``series.eta_quotient``.
    """
    if maxn < 8:
        raise ValueError("maxn must be >= 8")
    check_sweep_int64(maxn)
    if h12 is None:
        h12 = hurwitz_table(4 * maxn)
    if r3 is None:
        r3 = _kernels.square_rep_tables(3, maxn)
    checks = []
    ns = np.arange(maxn + 1)

    r2 = _kernels.square_rep_tables(2, maxn)
    r4 = _kernels.square_rep_tables(4, maxn)
    d1, d3 = _kernels.d_mod4_tables(maxn)
    sig = _kernels.sigma_no_mult4_table(maxn)

    checks.append(table_check(
        "four_square_divisor_formula", ns[1:], 8 * sig[1:] != r4[1:maxn + 1],
        lambda n: (8 * int(sig[n]), int(r4[n]))))
    checks.append(table_check(
        "two_square_divisor_formula", ns[1:],
        4 * (d1[1:] - d3[1:]) != r2[1:maxn + 1],
        lambda n: (4 * (int(d1[n]) - int(d3[n])), int(r2[n]))))

    tri = _kernels.triangular3_table(maxn)
    tri_sum = _kernels.triangular_sum_side(maxn + 1)
    checks.append(table_check(
        "triangular_triple_sum_side", ns, tri[:maxn + 1] != tri_sum[:maxn + 1],
        lambda n: (int(tri[n]), int(tri_sum[n]))))
    eta = eta_quotient({1: -3, 2: 6}, maxn + 1, sigma1)
    checks.append(table_check(
        "triangular_triple_eta_quotient", ns, tri[:maxn + 1] != eta,
        lambda n: (int(eta[n]), int(tri[n]))))
    checks.append(table_check(
        "triangular_triple_positivity", ns, tri[:maxn + 1] <= 0,
        lambda n: (True, int(tri[n]) > 0)))

    pair, triple = _kernels.hlm_tables(maxn)
    sign = np.where(ns % 2 == 1, 1, -1)
    checks.append(table_check(
        "three_square_signed_sum_formula", ns[1:],
        ((6 * pair[1:] + 4 * triple[1:]) * sign[1:] != r3[1:maxn + 1]),
        lambda n: ((6 * int(pair[n]) + 4 * int(triple[n]))
                   * (1 if n % 2 else -1), int(r3[n]))))

    # n = 1, 2 mod 4: r3(n) = 12H(4n); n = 3 mod 8: r3(n) = 24H(n); n = 7
    # mod 8: r3(n) = 0; n = 0 mod 4: r3(n) = r3(n/4)
    res = ns % 8
    expect = np.select(
        [np.isin(res, (1, 2, 5, 6)), res == 3, res == 7],
        [h12[4 * ns], 2 * h12[ns], 0], r3[ns // 4])

    def r3_class_pair(n):
        res = n % 8
        if res in (1, 2, 5, 6):
            return Fraction(int(h12[4 * n])), Fraction(int(r3[n]))
        if res == 3:
            return Fraction(2 * int(h12[n])), Fraction(int(r3[n]))
        if res == 7:
            return Fraction(0), Fraction(int(r3[n]))
        return Fraction(int(r3[n // 4])), Fraction(int(r3[n]))

    checks.append(table_check("three_square_class_number_relations", ns[1:],
                              expect[1:] != r3[1:maxn + 1], r3_class_pair))

    return VerificationReport("classical", {"max": maxn}, checks)

