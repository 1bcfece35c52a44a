"""Binary quadratic forms: reduction, enumeration, class numbers, Hurwitz H.

Two independent routes give the class numbers.  The per-N route is the
textbook loop over b and the divisors a of (b² + N)/4 (Cohen, Alg.
5.3.5), ``_reduced_forms``: ``enumerate_reduced`` lists its forms, with
``enumerate_reduced_bruteforce`` as its slow oracle, and ``hurwitz_H``
sums their weights without building a form; it reads no numpy kernel.
The batch route, ``hurwitz_table``, counts the forms of every N <= X at
once on the progression walk of ``_kernels``, which the bijection window
lane reads too; it imports numpy and ``_kernels`` on its
first call, so the module loads only the standard library and ``qident
table`` runs without numpy (a test checks both).  All class-number values
are exact rationals.  Weighted forms are detected literally among reduced
representatives: a reduced multiple of x²+y² is exactly (a,0,a) and of
x²+xy+y² exactly (a,a,a).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .report import VerificationReport, sweep_check


class NotPositiveDefinite(ValueError):
    """Operation requires a positive definite form."""


class BadDiscriminantResidue(ValueError):
    """Discriminants must be negative and congruent to 0 or 1 mod 4."""


class QuadForm(NamedTuple):
    """The form a*x² + b*x*y + c*y².

    A named tuple: immutable, hashable and ordered by (a, b, c), so that
    ``enumerate_reduced`` builds its lists at tuple speed.  Being a tuple,
    it also compares equal to the plain tuple ``(a, b, c)``.
    """

    a: int
    b: int
    c: int

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    @property
    def is_positive_definite(self) -> bool:
        return self.a > 0 and self.discriminant < 0

    @property
    def content(self) -> int:
        return math.gcd(math.gcd(abs(self.a), abs(self.b)), abs(self.c))

    @property
    def is_primitive(self) -> bool:
        return self.content == 1

    def __str__(self):
        return f"({self.a},{self.b},{self.c})"


def is_reduced(f: QuadForm) -> bool:
    """|b| <= a <= c, with b >= 0 whenever |b| == a or a == c."""
    if not f.is_positive_definite:
        raise NotPositiveDefinite(f"{f} is not positive definite")
    if not (abs(f.b) <= f.a <= f.c):
        return False
    if (abs(f.b) == f.a or f.a == f.c) and f.b < 0:
        return False
    return True


def _check_discriminant(D: int) -> None:
    if D >= 0 or D % 4 not in (0, 1):
        raise BadDiscriminantResidue(f"{D} is not a negative discriminant")


# the bound of the progression walk, ``_kernels.PROGRESSION_LIMIT``, which
# the window lane reads the same forms from; ``enumerate_reduced`` refuses
# the same discriminants.  Copied, not read, to keep numpy out of the per-N
# route; a test pins the two equal.
REDUCED_D_LIMIT = 2 ** 62


def _reduced_forms(D: int):
    """Yield (a, b, c) for the reduced forms of discriminant D with b >= 0,
    in loop order: the divisor loop of Cohen, Alg. 5.3.5.

    With N = -D, each b = N mod 2 with 0 <= b <= isqrt(N/3) (b² <= ac
    and 4ac = b² + N) and each divisor a of q = (b² + N)/4 with
    max(b, 1) <= a <= isqrt(q) give the form (a, b, q/a).  Its mirror
    (a, -b, q/a) is reduced too exactly when 0 < b < a < q/a.  A bad D
    raises ``BadDiscriminantResidue`` and ``-D >= REDUCED_D_LIMIT``
    raises ``OverflowError``, both before the first form.
    """
    _check_discriminant(D)
    N = -D
    if N >= REDUCED_D_LIMIT:
        raise OverflowError(f"reduced forms of discriminant {D} exceed "
                            "the progression walk's int64 bound")
    for b in range(N % 2, math.isqrt(N // 3) + 1, 2):
        q = (b * b + N) // 4
        for a in range(max(b, 1), math.isqrt(q) + 1):
            if q % a == 0:
                yield a, b, q // a


def enumerate_reduced(D: int) -> list[QuadForm]:
    """All reduced positive definite forms of discriminant D, in
    lexicographic (a, b, c) order, each exactly once: the forms of
    ``_reduced_forms(D)`` and their mirrors (a, -b, c) where
    0 < b < a < c, sorted.  ``-D >= REDUCED_D_LIMIT`` raises
    ``OverflowError``.
    """
    out = []
    for a, b, c in _reduced_forms(D):
        out.append(QuadForm(a, b, c))
        if 0 < b < a < c:
            out.append(QuadForm(a, -b, c))
    out.sort()
    return out


def enumerate_reduced_bruteforce(D: int) -> list[QuadForm]:
    """Independent slow scan over 1 <= a <= c <= |D|, |b| <= a."""
    _check_discriminant(D)
    out = []
    for a in range(1, -D + 1):
        if 3 * a * a > -D:
            break
        for c in range(a, -D + 1):
            for b in range(-a, a + 1):
                f = QuadForm(a, b, c)
                if f.discriminant == D and is_reduced(f):
                    out.append(f)
    return sorted(out)


def class_number_h(D: int) -> int:
    """Number of primitive reduced positive definite forms of discriminant D."""
    return sum(1 for f in enumerate_reduced(D) if f.is_primitive)


def hurwitz_H(N: int) -> Fraction:
    """Hurwitz class number H(N), an exact rational.

    H(N) = 0 for N = 1, 2 mod 4; H(0) = -1/12; otherwise the reduced forms
    of discriminant -N counted with weight 1/2 for (a,0,a) forms and 1/3
    for (a,a,a) forms.  The integer weights are summed straight off
    ``_reduced_forms``, which yields each form with b >= 0 once, and
    divided by 12 once: 6 for (a,0,a), 4 for (a,a,a), 24 for a form
    with 0 < b < a < c, which stands for its mirror (a,-b,c) too, and 12
    for every other form.
    """
    if N < 0:
        raise ValueError("N must be non-negative")
    if N == 0:
        return Fraction(-1, 12)
    if N % 4 in (1, 2):
        return Fraction(0)
    total = 0
    for a, b, c in _reduced_forms(-N):
        if b == 0:
            total += 6 if a == c else 12
        elif b < a < c:
            total += 24
        else:
            total += 4 if a == b == c else 12
    return Fraction(total, 12)


# the size bound of ``hurwitz_table``
HURWITZ_X_LIMIT = 2 ** 60


def hurwitz_table(X: int) -> np.ndarray:
    """``12*H(N)`` for 0 <= N <= X, an exact int64 table.

    Twelve times the number of reduced forms of discriminant -N, from
    ``_kernels.progression_counts``: the m = 4 forms at n = N/4 for
    N = 0 mod 4, and the m = 1 forms, whose b is odd, at N = 3 mod 4.  The
    (a,0,a) and (a,a,a) forms, at N = 4a² and 3a², then weigh 6 and 4.
    N = 1, 2 mod 4 is never hit, and 12*H(0) = -1.

    Overflow bound: each pair (a, b) with |b| <= a and 3a² <= X has at most
    one form at each N, so every entry is below ``12*A*(A + 1)`` with
    ``A = isqrt(X // 3)``, at most ``4X + 12*isqrt(X)``, which is below
    2**63 for X < ``HURWITZ_X_LIMIT``; a larger X raises ``OverflowError``.
    """
    if X < 0:
        raise ValueError("X must be non-negative")
    if X >= HURWITZ_X_LIMIT:
        raise OverflowError(f"12*H(N) for N <= {X} may exceed int64")
    import numpy as np

    from . import _kernels

    out = _kernels.progression_counts(1, X)
    out[::4] += _kernels.progression_counts(4, X // 4)
    out *= 12
    a = np.arange(1, math.isqrt(X // 3) + 1, dtype=np.int64)
    out[4 * a[:math.isqrt(X // 4)] ** 2] -= 6   # (a, 0, a)
    out[3 * a * a] -= 8                          # (a, a, a)
    out[0] = -1
    return out


def verify_hurwitz_doubling(max_n: int) -> VerificationReport:
    """H(4n) = 4H(n) for n = 3 mod 8 and H(4n) = 2H(n) for n = 7 mod 8."""
    if max_n < 7:
        raise ValueError("max_n must be >= 7")
    checks = [
        sweep_check("hurwitz_doubling_3_mod_8",
                    ((n, 4 * hurwitz_H(n), hurwitz_H(4 * n))
                     for n in range(3, max_n + 1, 8))),
        sweep_check("hurwitz_doubling_7_mod_8",
                    ((n, 2 * hurwitz_H(n), hurwitz_H(4 * n))
                     for n in range(7, max_n + 1, 8))),
    ]
    return VerificationReport("hurwitz_doubling", {"max": max_n}, checks)
