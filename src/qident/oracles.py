"""Per-n arithmetic-function and lattice-point counters, standard library only.

These are deliberately simple loops: the trusted oracles that the batch
tables of ``_kernels`` are checked against, the columns of ``qident
table``, and the solution triples of one n that ``bijections`` and the
closed forms of ``counting`` read.  The lattice counters walk one symmetry
chamber of the coordinates and weigh each solution by the points it stands
for: its 2**k sign flips, k the number of nonzero coordinates, times its
distinct images under the coordinate swaps that fix the equation (the
permutations of x, y, z for r3, y <-> z for x^2+2y^2+2z^2).  A square is 0
or 1 mod 4, so the residue mod 4 of what is left for y and z fixes their
parities, or leaves them one of each: the walks step y by 2 where it is
fixed, skip an x that leaves no solution, and look z up in a dict of the
squares up to n.  The tests pin them to a brute force over every sign
vector.

The module imports nothing outside the standard library, so ``qident
table`` and ``qident bijection`` run without numpy; ``counting`` imports
every name back.
"""

from __future__ import annotations

import functools
import math


# ---------------------------------------------------------------------------
# divisor functions
# ---------------------------------------------------------------------------


def sigma(k: int, n: int) -> int:
    """Sum of d**k over the divisors d of n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    total = 0
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            total += d ** k
            e = n // d
            if e != d:
                total += e ** k
    return total


def d_mod4(k: int, n: int) -> int:
    """Number of divisors of n congruent to k mod 4 (k in {1, 3})."""
    if k not in (1, 3):
        raise ValueError("k must be 1 or 3")
    if n < 1:
        raise ValueError("n must be >= 1")
    count = 0
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            count += d % 4 == k
            e = n // d
            if e != d:
                count += e % 4 == k
    return count


# ---------------------------------------------------------------------------
# representation counters
# ---------------------------------------------------------------------------


def rep_squares(s: int, n: int) -> int:
    """Ordered representations of n as a sum of s squares, s <= 4.

    s = 3 walks the chamber 0 <= x <= y <= z once; a solution there stands
    for its distinct permutations (6, 3 or 1) times its 2**k sign vectors,
    k the number of nonzero coordinates.  A square is 0 or 1 mod 4, so
    n mod 4 is the number of odd coordinates: n = 0 mod 4 takes only even
    x and n = 3 mod 4 only odd x, and after x, y and z are both even, both
    odd (y steps by 2 from its parity) or one of each (y steps by 1); z is
    looked up in a dict of squares.  s = 2 and s = 4 walk x >= 0, weight 2
    for x > 0, s = 4 over ``rep_squares(3, n - x*x)``.
    """
    if not 1 <= s <= 4:
        raise ValueError("s must be between 1 and 4")
    if n < 0:
        return 0
    m = math.isqrt(n)
    if s == 1:
        return (2 if m else 1) if m * m == n else 0
    total = 0
    if s == 3:
        roots = {z * z: z for z in range(m + 1)}
        k = n % 4  # the number of odd coordinates
        # x <= y <= z: 3x^2 <= n, and 2y^2 <= n - x^2 leaves z >= y
        for x in range(k == 3, math.isqrt(n // 3) + 1,
                       2 if k in (0, 3) else 1):
            rx = n - x * x
            odd = k - x % 2  # among y and z
            top = math.isqrt(rx // 2) + 1
            for y in (range(x, top) if odd == 1
                      else range(x + (x + odd // 2) % 2, top, 2)):
                z = roots.get(rx - y * y)
                if z is not None:
                    w = 1 << ((x > 0) + (y > 0) + (z > 0))
                    if x < y < z:
                        w *= 6
                    elif x < z:
                        w *= 3
                    total += w
        return total
    for x in range(m + 1):
        rem = n - x * x
        if s == 2:
            y = math.isqrt(rem)
            c = (2 if y else 1) if y * y == rem else 0
        else:
            c = rep_squares(3, rem)
        total += 2 * c if x else c
    return total


@functools.lru_cache(maxsize=1)
def _orthant_solutions(n: int) -> tuple:
    """``(x + y + z, w)`` for each solution of x^2+2y^2+2z^2 = n with
    x >= 0 and 0 <= y <= z; w is the number of integer solutions it stands
    for, its 2**k sign vectors (k the number of nonzero coordinates),
    doubled when y != z for the swap of y and z.

    x runs over the parity of n, the only one that leaves n - x^2 even.
    A square is 0 or 1 mod 4, so rx = (n - x^2)/2 = y^2 + z^2 mod 4 is the
    number of odd ones among y and z: at 3 the x is skipped, at 0 and 2
    y steps by 2 from the parity of y and z, at 1 by 1; z is looked up in
    a dict of squares.  The solutions come by x, then by y.

    Neither a sign flip nor the swap changes the parity of x + y + z, so
    all w solutions carry the sign of the one listed.  The last n's tuple
    is kept, so ``signed_rep_count`` and ``rep_count`` at one n (a row of
    ``qident table``) walk it once.
    """
    out = []
    roots = {z * z: z for z in range(math.isqrt(n // 2) + 1)}
    for x in range(n % 2, math.isqrt(n) + 1, 2):
        rx = (n - x * x) // 2
        k = rx % 4
        if k == 3:
            continue
        # 2y^2 <= rx leaves z >= y
        top = math.isqrt(rx // 2) + 1
        for y in range(top) if k == 1 else range(k // 2, top, 2):
            z = roots.get(rx - y * y)
            if z is not None:
                w = 1 << ((x > 0) + (y > 0) + (z > 0))
                out.append((x + y + z, 2 * w if y < z else w))
    return tuple(out)


def signed_rep_count(n: int) -> int:
    """Sum of (-1)**(x+y+z) over integer solutions of x^2+2y^2+2z^2 = n."""
    if n < 0:
        return 0
    total = 0
    for xyz, w in _orthant_solutions(n):
        total += -w if xyz % 2 else w
    return total


def rep_count(n: int) -> int:
    """Number of integer solutions of x^2 + 2y^2 + 2z^2 = n."""
    if n < 0:
        return 0
    return sum(w for _, w in _orthant_solutions(n))


def r3_triangular(n: int) -> int:
    """Ordered triples of triangular numbers summing to n."""
    if n < 0:
        return 0
    tri = []
    k = 0
    while k * (k + 1) // 2 <= n:
        tri.append(k * (k + 1) // 2)
        k += 1
    tset = set(tri)
    return sum(1 for a in tri for b in tri if a + b <= n and n - a - b in tset)


def is_three_square_excluded(n: int) -> bool:
    """True exactly when n has the form 4**a * (8b + 7)."""
    while n % 4 == 0 and n:
        n //= 4
    return n % 8 == 7


# ---------------------------------------------------------------------------
# solution triples of (2s - chi + r)(2t - chi + r) = n + r^2
# ---------------------------------------------------------------------------


OPEN, SHIFTED = "open", "shifted"

# the bound of the progression walk, ``_kernels.PROGRESSION_LIMIT``, which
# the window lane and the triple tables read the same triples from; the loop
# refuses the same n.  Copied, not read, to keep numpy out of the per-n
# route; a test pins the two equal.
TRIPLE_N_LIMIT = 2 ** 62


def iter_solution_triples(n: int, shape: str):
    """Yield every (r, s, t) with r,s,t >= 1 solving the shape equation,
    by s, then by t.

    open:    (2s + r)(2t + r) = n + r^2,   i.e. n = 2r(s+t) + 4st
    shifted: (2s-1+r)(2t-1+r) = n + r^2,   i.e. n = 2r(s+t-1) + (2s-1)(2t-1)

    n >= ``TRIPLE_N_LIMIT`` raises ``OverflowError`` before any triple.
    """
    if n >= TRIPLE_N_LIMIT:
        raise OverflowError(f"n = {n} is not below TRIPLE_N_LIMIT = 2**62, "
                            "the int64 bound of the progression walk, which "
                            "this loop mirrors so that both refuse the same n")
    if shape == OPEN:
        s = 1
        while 4 * s + 2 * (s + 1) <= n:
            t = 1
            while True:
                num = n - 4 * s * t
                den = 2 * (s + t)
                if num < den:
                    break
                if num % den == 0:
                    yield num // den, s, t
                t += 1
            s += 1
    elif shape == SHIFTED:
        s = 1
        while (2 * s - 1) + 2 * s <= n:
            t = 1
            while True:
                num = n - (2 * s - 1) * (2 * t - 1)
                den = 2 * (s + t - 1)
                if num < den:
                    break
                if num % den == 0:
                    yield num // den, s, t
                t += 1
            s += 1
    else:
        raise ValueError(f"unknown shape {shape!r}")
