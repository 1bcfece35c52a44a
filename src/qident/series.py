"""Exact scalars and truncated q-series over the Gaussian rationals.

A ``QSeries`` is a dense, eagerly evaluated power series known modulo
``q**order``.  Internally the coefficients live in two parallel integer
arrays (real and imaginary numerators) over one shared positive
denominator, so ring operations stay in arbitrary-precision integer
arithmetic; ``coeff`` materialises exact ``GaussianRational`` values on
demand.  Convolution first takes g, the gcd of the nonzero exponents of
both operands: for g > 1 both are series in q**g, and it multiplies every
g-th coefficient below ``q**ceil(n/g)`` and spreads the product back (the
change of variable q -> q**g).  On the compressed length it then takes a
sparse loop, shifted rows of the dense operand when the other has few
nonzero terms of modulus at most 2 (``ROW_TERMS_OVER_BITS``), or one packed
product.  The rows are added on int64 columns of 32-bit limbs: the dense
operand is converted once, each row is one slice add, and the carries are
normalised once, under an explicit int64 guard (``LIMB_ROWS_LIMIT``).
The packed product is a Kronecker substitution: both operands are offset
to non-negative columns of one width, multiplied once, and the offsets are
taken back out by a prefix sum.  Below ``DECIMAL_MIN_DIGITS`` packed
digits the columns are bytes in one Python int multiply; at or above it
they are decimal digits multiplied by libmpdec (the C library behind
``decimal``, which uses a number-theoretic transform for large operands),
in a private context that traps every lost digit.  A quotient ``a / b`` takes one Newton step
from the inverse of b at half length, and ``QSeries.invert`` is the
quotient ``1 / b``, so the inverses halve down to order 1 and no quotient
builds a full-length inverse.

``pochhammer_inf`` with a fourth root of unity ``zeta`` (every caller in the
package) runs on a multi-modular numpy lane: the product is formed in uint64
residues modulo the largest primes below ``2**62``, enough of them to cover
an a-priori bound on the coefficients (the number of partitions into
distinct parts), and rebuilt exactly by CRT.  Each factor below a tail
start of about ``sqrt(modulus * order * log2(order) / 2)`` is one slice
update; the factors from there on are multiplied in together, by counting
sets of their exponents: level i of the tail is a stride prefix sum of
level i - 1, added in at the least sum of i exponents.  Each lane product
is built once per process: a bounded store keeps the longest product per
reduced key ``(unit, e/g, m/g)``, g = gcd(e, m), and serves
``(zeta*q**e; q**m)`` below ``q**N`` from its prefix below
``q**ceil(N/g)`` with q -> q**g, a change of variable rather than an
identity.  Every call still returns a fresh series.
``product_store`` opens further stores under the same bound, which
``clear_product_store`` empties too (``theta`` keeps its base products in
one).
Any other scalar takes the big-integer loop, which also pins the lane in the
tests.  Every path is exact: no floats anywhere.

``eta_quotient`` builds a product of Euler products ``(q**m; q**m)_inf`` and
their inverses as one int64 table, from the product's logarithmic
derivative, with exact divisions and an explicit overflow guard: no lane
and no wide integers, for the series the suites read below ``q**(max+1)``.
"""

from __future__ import annotations

import decimal
import functools
import itertools
import math
import operator
import sys
from fractions import Fraction

import numpy as np

from . import _kernels


class NonUnitConstantTerm(ArithmeticError):
    """Inversion of, or division by, a series whose constant term is
    zero."""


class IndexBeyondOrder(IndexError):
    """Coefficient requested at or beyond the truncation order."""


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


class GaussianRational:
    """Exact ``a + b*i`` with arbitrary-precision rational ``a``, ``b``."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _frac(re)
        self.im = _frac(im)

    # -- basic protocol ----------------------------------------------------

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __eq__(self, other):
        other = _as_gaussian(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = _as_gaussian(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_gaussian(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _as_gaussian(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        other = _as_gaussian(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_gaussian(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _as_gaussian(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = GaussianRational(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- structure -----------------------------------------------------------

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        """Squared modulus ``re**2 + im**2`` (an exact rational)."""
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "GaussianRational":
        n = self.abs2()
        if not n:
            raise ZeroDivisionError("inverse of zero")
        return GaussianRational(self.re / n, -self.im / n)


def _as_gaussian(x):
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    return NotImplemented


ONE = GaussianRational(1)
I_UNIT = GaussianRational(0, 1)
MINUS_ONE = GaussianRational(-1)
MINUS_I = GaussianRational(0, -1)


# ---------------------------------------------------------------------------
# integer convolution (exact)
# ---------------------------------------------------------------------------


def _conv_sparse(nzu, nzv, n):
    out = [0] * n
    for j, x in nzu:
        for k, y in nzv:
            idx = j + k
            if idx < n:
                out[idx] += x * y
    return out


# Every trap a lost digit can raise is set, so the decimal radix is exact or
# raises; it is the only user of this context and never reads the thread's.
_DECIMAL = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                           Emin=decimal.MIN_EMIN,
                           traps=[decimal.Inexact, decimal.Rounded,
                                  decimal.Overflow, decimal.InvalidOperation])

# Packed digits (columns times column width) from which a packed product
# takes decimal columns rather than byte columns: the crossover of the two
# radices, measured on random signed operands (see README).
DECIMAL_MIN_DIGITS = 30_000


def _byte_columns(u, v, n, mu, mv, size):
    """The low n columns of the product of u + mu and v + mv packed into
    ``size``-byte columns, multiplied as one Python int."""
    def pack(vals, m):
        return int.from_bytes(
            b"".join([(x + m).to_bytes(size, "little") for x in vals]),
            "little")

    data = (pack(u, mu) * pack(v, mv)).to_bytes(2 * n * size, "little")
    return [int.from_bytes(data[i:i + size], "little")
            for i in range(0, n * size, size)]


def _decimal_columns(u, v, n, mu, mv, width):
    """The low n columns of the product of u + mu and v + mv packed into
    ``width``-digit columns, multiplied by libmpdec."""
    def pack(vals, m):
        # the highest column comes first
        return _DECIMAL.create_decimal(
            "".join([str(x + m).zfill(width) for x in reversed(vals)]))

    digits = _DECIMAL.to_sci_string(_DECIMAL.multiply(pack(u, mu),
                                                      pack(v, mv)))
    # Read the low n columns from the end.  Leading zeros are not printed,
    # so the highest column present may be short and the ones above it are
    # zero; a slice must never start below 0.
    top = len(digits)
    head = top % width
    stop = max(top - n * width, head)
    cols = [int(digits[j - width:j]) for j in range(top, stop, -width)]
    if head and len(cols) < n:
        cols.append(int(digits[:head]))
    cols.extend([0] * (n - len(cols)))
    return cols


def _conv_packed(u, v, n):
    """Kronecker substitution: both operands packed into fixed-width columns
    for one big-number multiply.  Both are padded to n columns and every
    coefficient is offset by its operand's largest magnitude, so every
    column is non-negative and at most ``4*mu*mv*n``; a column that holds
    that bound carries into no other.  Decimal columns from
    ``DECIMAL_MIN_DIGITS`` packed digits on, while a column also converts
    between str and int under the interpreter's digit limit (Python 3.10.7
    on; 0 is no limit), and byte columns otherwise."""
    u = u[:n] + [0] * (n - len(u))
    v = v[:n] + [0] * (n - len(v))
    # offsets of at least 1, so a column that holds the bound also holds
    # every packed coefficient, at most 2*mu or 2*mv
    mu = max(map(abs, u)) or 1
    mv = max(map(abs, v)) or 1
    bound = 4 * mu * mv * n
    # counted by libmpdec, so a bound past the digit limit is no error
    width = _DECIMAL.create_decimal(bound).adjusted() + 1
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if n * width >= DECIMAL_MIN_DIGITS and (not limit or width <= limit):
        cols = _decimal_columns(u, v, n, mu, mv, width)
    else:
        cols = _byte_columns(u, v, n, mu, mv, bound.bit_length() // 8 + 1)
    # Column i is c_i plus the offsets' share, mv*sum(u_j) + mu*sum(v_j)
    # + mu*mv over j <= i.
    shares = itertools.accumulate(mv * x + mu * y + mu * mv
                                  for x, y in zip(u, v))
    return list(map(operator.sub, cols, shares))


# The crossover of the row path and the packed product, fitted to the
# package's own products by the row replay of scripts/conv_crossover.py (see
# README): every product that reaches this choice in ``verify --suite dkm
# --order 4000``, ``verify --suite all --order 300 --max 3000`` and ``verify
# --suite theorem17 --max 18000`` (n = 37 to 4000, dense operands up to 155
# bits), timed through both paths.  A sparse operand of k nonzero terms, each
# of modulus at most 2, times a dense one whose largest coefficient has b
# bits takes rows when ``k <= ROW_TERMS_OVER_BITS + b``.  On int64 limbs a
# row costs a few numpy passes over n limb columns, so rows won 47 of the 51
# replayed products that pass the other two clauses, and lost only small
# ones (n <= 150, by at most 0.04 ms).  Of the offsets up to 36, 20 to 28
# left the least time over the faster path, 4.6 ms in 78 ms summed over the
# 195 replayed products; 24 is the middle.  Every offset from 60 on would
# leave 0.14 ms, by also taking the one narrow product of n = 4000 and 64
# terms, but past 36 the half-length clause hides the bits clause at
# n = 334 and 130 bits, a case the tests pin on both sides.  Wider sparse
# coefficients each cost a scaled row.  The sparse operand must also be zero
# at half its exponents or more, so a dense operand, n rows, never takes the
# path.
ROW_TERMS_OVER_BITS = 24


def _takes_rows(nzu, v, n):
    """Whether ``_conv`` multiplies the sparse operand with nonzero terms
    nzu by the dense operand v below q**n as shifted rows."""
    k = len(nzu)
    bits = max(map(abs, v)).bit_length()
    return (2 * k <= n and k <= ROW_TERMS_OVER_BITS + bits
            and all(-2 <= x <= 2 for _, x in nzu))


# The int64 guard of ``_conv_rows``: fewer rows than this.  Every limb of
# a row is below 2**32 in modulus, so k rows sum to limbs below
# k * (2**32 - 1), normalising the carries limb by limb keeps every carry
# at most k, and every int64 on the way is at most k * 2**32, below 2**63
# for k < 2**31.
LIMB_ROWS_LIMIT = 1 << 31


def _limbs(vals, width):
    """int64 rows of ``width + 1`` limbs of 32 bits, one row per int of
    vals: its two's complement in ``width`` limbs, the top one signed and
    the others unsigned, and a zero limb above them for the carries."""
    size = 4 * width
    words = np.frombuffer(
        b"".join([x.to_bytes(size, "little", signed=True) for x in vals]),
        "<u4").reshape(-1, width)
    out = np.zeros((len(vals), width + 1), np.int64)
    out[:, :width] = words
    out[:, width - 1] = words[:, -1].view("<i4")
    return out


def _carry(cols):
    """Normalise int64 limb rows in place, from the lowest limb up: each
    limb but the top keeps its low 32 bits and carries the rest (an
    arithmetic shift, so negative limbs borrow) into the next."""
    for i in range(cols.shape[1] - 1):
        cols[:, i + 1] += cols[:, i] >> 32
        cols[:, i] &= 0xFFFFFFFF
    return cols


def _conv_rows(nzu, v, n):
    """The sum of the rows ``x * q**j * v`` below q**n over the nonzero terms
    (j, x) of a sparse operand, on int64 limb columns.

    v, padded to n, is converted once to 32-bit limbs (``_limbs``), wide
    enough for every row.  Terms of one magnitude m share one row, m*v:
    the limbs of v times m with their carries normalised, or, for
    m >= 2**31 (where that product could pass int64), the limbs of the ints
    m*y.  Each term adds its row at its shift j as one slice of the
    flat limb array, or subtracts it for x < 0.  The carries are normalised
    once at the end, the last one into the spare top limb, and each
    coefficient is read back with one ``int.from_bytes``.  Exact: every
    limb of a row is below 2**32, and a product of ``LIMB_ROWS_LIMIT`` rows
    or more, which could pass int64, raises ``OverflowError``.
    """
    if len(nzu) >= LIMB_ROWS_LIMIT:
        raise OverflowError(f"{len(nzu)} rows would pass the int64 limbs")
    v = v[:n] + [0] * (n - len(v))
    top = max(abs(x) for _, x in nzu) * max(map(abs, v))
    width = top.bit_length() // 32 + 1
    step = width + 1
    base = _limbs(v, width)
    acc = np.zeros(n * step, np.int64)
    row, m = base.ravel(), 1
    for j, x in sorted(nzu, key=lambda term: abs(term[1])):
        if abs(x) != m:
            m = abs(x)
            row = (_carry(base * m) if m < 1 << 31
                   else _limbs([m * y for y in v], width)).ravel()
        if x > 0:
            acc[j * step:] += row[:(n - j) * step]
        else:
            acc[j * step:] -= row[:(n - j) * step]
    size = 4 * step
    data = _carry(acc.reshape(n, step)).astype("<u4").tobytes()
    return [int.from_bytes(data[i:i + size], "little", signed=True)
            for i in range(0, n * size, size)]


def _terms(u: list[int]) -> list[tuple[int, int]]:
    """The nonzero terms (j, x) of u, in order of j."""
    return list(zip(itertools.compress(itertools.count(), u), filter(None, u)))


def _spread(vals: list[int], g: int, order: int) -> list[int]:
    """A fresh list of the first ``order`` coefficients of ``f(q**g)``,
    where ``vals`` holds at least ``ceil(order/g)`` coefficients of f."""
    if g == 1:
        return vals[:order]
    out = [0] * order
    out[::g] = vals[:len(range(0, order, g))]
    return out


def _conv(u, v, n):
    """Exact truncated convolution of two int lists, length ``n``.

    With g the gcd of the nonzero exponents of both operands, g > 1 means
    both are series in q**g: their product below q**n is the product of
    ``u[::g]`` and ``v[::g]`` below ``q**ceil(n/g)`` with q -> q**g, so the
    paths below, and the radix threshold, see the compressed length: a
    sparse loop when few products of nonzero terms fall below q**n,
    ``_conv_rows`` when one operand has few nonzero terms, each of modulus
    at most 2, against both n and the other operand's bit width
    (``_takes_rows``), and ``_conv_packed`` otherwise.  The operands are
    counted and their exponents read at C speed (``list.count`` and
    ``itertools.compress``); the (exponent, coefficient) pairs are built
    only for an operand that the sparse loop or the rows read.
    """
    u = u[:n]
    v = v[:n]
    ku = len(u) - u.count(0)
    kv = len(v) - v.count(0)
    if not ku or not kv:
        return [0] * n
    g = math.gcd(*itertools.compress(range(len(u)), u),
                 *itertools.compress(range(len(v)), v))
    if g > 1:  # the compressed exponents have gcd 1: one level deep
        return _spread(_conv(u[::g], v[::g], -(-n // g)), g, n)
    if ku * kv <= max(1024, 4 * n):
        return _conv_sparse(_terms(u), _terms(v), n)
    if ku > kv:
        u, v = v, u
    nzu = _terms(u)
    if _takes_rows(nzu, v, n):
        return _conv_rows(nzu, v, n)
    return _conv_packed(u, v, n)


# ---------------------------------------------------------------------------
# QSeries
# ---------------------------------------------------------------------------


class QSeries:
    """Truncated power series in q with GaussianRational coefficients.

    ``order`` is explicit data: the series is known exactly modulo
    ``q**order``, and binary operations truncate to the minimum of the
    operand orders.  Instances are immutable by convention.
    """

    __slots__ = ("order", "_re", "_im", "_den")

    def __init__(self, coeffs=(), order=None):
        coeffs = list(coeffs)
        if order is None:
            order = max(len(coeffs), 1)
        if order < 1:
            raise ValueError("order must be positive")
        if len(coeffs) > order:
            raise ValueError("more coefficients than the truncation order")
        values = [_as_gaussian(c) for c in coeffs]
        if any(v is NotImplemented for v in values):
            raise TypeError("coefficients must be int, Fraction or GaussianRational")
        den = 1
        for v in values:
            den = math.lcm(den, v.re.denominator, v.im.denominator)
        re = [0] * order
        im = None
        for j, v in enumerate(values):
            re[j] = int(v.re * den)
            if v.im:
                if im is None:
                    im = [0] * order
                im[j] = int(v.im * den)
        self.order = order
        self._re = re
        self._im = im
        self._den = den

    # -- raw plumbing --------------------------------------------------------

    @classmethod
    def _raw(cls, re, im, den, order):
        self = object.__new__(cls)
        if len(re) != order or (im is not None and len(im) != order):
            raise AssertionError("raw arrays must match the order")
        if im is not None and not any(im):
            im = None
        if den < 0:
            den = -den
            re = [-x for x in re]
            im = None if im is None else [-x for x in im]
        if den == 0:
            raise AssertionError("zero denominator")
        if den != 1:
            g = den
            for x in re:
                if x:
                    g = math.gcd(g, x)
                    if g == 1:
                        break
            if g != 1 and im is not None:
                for x in im:
                    if x:
                        g = math.gcd(g, x)
                        if g == 1:
                            break
            if g > 1:
                den //= g
                re = [x // g for x in re]
                im = None if im is None else [x // g for x in im]
        self.order = order
        self._re = re
        self._im = im
        self._den = den
        return self

    @classmethod
    def zeros(cls, order):
        return cls.monomial(0, 0, order)

    @classmethod
    def one(cls, order):
        return cls.monomial(1, 0, order)

    @classmethod
    def constant(cls, value, order):
        return cls.monomial(value, 0, order)

    @classmethod
    def monomial(cls, value, exponent, order):
        """The series ``value * q**exponent`` to the given order."""
        if order < 1:
            raise ValueError("order must be positive")
        if exponent < 0:
            raise ValueError("monomial exponent must be non-negative")
        v = _as_gaussian(value)
        re = [0] * order
        im = None
        den = math.lcm(v.re.denominator, v.im.denominator)
        if exponent < order:
            re[exponent] = int(v.re * den)
            if v.im:
                im = [0] * order
                im[exponent] = int(v.im * den)
        return cls._raw(re, im, den, order)

    # -- inspection ----------------------------------------------------------

    def coeff(self, n: int) -> GaussianRational:
        """Exact coefficient of ``q**n``."""
        if not 0 <= n < self.order:
            raise IndexBeyondOrder(f"index {n} outside order {self.order}")
        im = 0 if self._im is None else self._im[n]
        return GaussianRational(Fraction(self._re[n], self._den),
                                Fraction(im, self._den))

    def coeffs(self):
        return [self.coeff(n) for n in range(self.order)]

    def integral_coefficients(self) -> list[bool]:
        """For each n below the order, whether the coefficient of ``q**n``
        is a plain integer, read from the numerators and the denominator."""
        den, im = self._den, self._im or [0] * self.order
        return [not y and x % den == 0 for x, y in zip(self._re, im)]

    def int64_coefficients(self):
        """``(values, exact)``, two numpy arrays over the n below the order:
        ``exact[n]`` is whether the coefficient of ``q**n`` is an integer of
        modulus below 2**63, read from the numerators and the denominator,
        and ``values[n]`` is that integer, or 0 where it is not."""
        den, im = self._den, self._im or [0] * self.order
        limit = 1 << 63
        values, exact = [], []
        for x, y in zip(self._re, im):
            c, r = divmod(x, den)
            ok = not (y or r) and -limit < c < limit
            values.append(c if ok else 0)
            exact.append(ok)
        return np.array(values, dtype=np.int64), np.array(exact, dtype=bool)

    def is_zero(self) -> bool:
        return not any(self._re) and (self._im is None or not any(self._im))

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        a, b = self._im or [0] * self.order, other._im or [0] * other.order
        return (self.order == other.order and self._den == other._den
                and self._re == other._re and a == b)

    __hash__ = None

    def __repr__(self):
        parts = []
        for n in range(self.order):
            c = self.coeff(n)
            if not c:
                continue
            cs = str(c)
            if "+" in cs[1:] or "-" in cs[1:]:
                cs = f"({cs})"
            parts.append(cs if n == 0 else (f"{cs}*q" if n == 1 else f"{cs}*q^{n}"))
            if len(parts) >= 8:
                parts.append("...")
                break
        body = " + ".join(parts) if parts else "0"
        return f"<{body} + O(q^{self.order})>"

    # -- ring operations -------------------------------------------------------

    def _scalar_mul(self, value):
        v = _as_gaussian(value)
        if not v:
            return QSeries.zeros(self.order)
        d = math.lcm(v.re.denominator, v.im.denominator)
        pr = int(v.re * d)
        pi = int(v.im * d)
        re = self._re
        im = self._im
        if pi == 0:
            new_re = [pr * x for x in re]
            new_im = None if im is None else [pr * x for x in im]
        else:
            imx = im if im is not None else [0] * self.order
            new_re = [pr * x - pi * y for x, y in zip(re, imx)]
            new_im = [pr * y + pi * x for x, y in zip(re, imx)]
        return QSeries._raw(new_re, new_im, self._den * d, self.order)

    def __add__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = QSeries.constant(other, self.order)
        if not isinstance(other, QSeries):
            return NotImplemented
        order = min(self.order, other.order)
        da, db = self._den, other._den
        d = math.lcm(da, db)
        fa, fb = d // da, d // db
        re = [fa * x + fb * y for x, y in zip(self._re[:order], other._re[:order])]
        if self._im is None and other._im is None:
            im = None
        else:
            ia = self._im or [0] * order
            ib = other._im or [0] * order
            im = [fa * x + fb * y for x, y in zip(ia[:order], ib[:order])]
        return QSeries._raw(re, im, d, order)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = QSeries.constant(other, self.order)
        if not isinstance(other, QSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        im = None if self._im is None else [-x for x in self._im]
        return QSeries._raw([-x for x in self._re], im, self._den, self.order)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self._scalar_mul(other)
        if not isinstance(other, QSeries):
            return NotImplemented
        order = min(self.order, other.order)
        ar, ai = self._re, self._im
        br, bi = other._re, other._im
        rr = _conv(ar, br, order)
        if ai is None and bi is None:
            re, im = rr, None
        elif ai is None:
            re = rr
            im = _conv(ar, bi, order)
        elif bi is None:
            re = rr
            im = _conv(ai, br, order)
        else:
            ii = _conv(ai, bi, order)
            re = [x - y for x, y in zip(rr, ii)]
            im = [x + y for x, y in zip(_conv(ar, bi, order),
                                        _conv(ai, br, order))]
        return QSeries._raw(re, im, self._den * other._den, order)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("only non-negative integer powers")
        out = QSeries.one(self.order)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def invert(self) -> "QSeries":
        """Two-sided inverse modulo ``q**order``: the quotient ``1 / self``.

        The division inverts ``self`` below q**ceil(order/2) and corrects
        once, so the inverses halve down to order 1, where the inverse is
        that of the constant term: Newton iteration with each correction at
        half length.  The inverse modulo q**order is unique, so this is the
        same series as the full-length step ``x*(2 - self*x)`` gives.
        """
        c0 = self.coeff(0)
        if not c0:
            raise NonUnitConstantTerm("constant term is zero")
        if self.order == 1:
            return QSeries.constant(c0.inverse(), 1)
        return QSeries.one(self.order) / self

    def __truediv__(self, other):
        """The quotient ``self / other`` modulo ``q**n``, n the smaller order,
        in one Newton step from half length (Karp and Markstein, ACM TOMS
        23(4), 1997).

        With h = ceil(n/2), x inverts ``other`` and y = self*x is the
        quotient modulo q**h.  The remainder ``self - other*y`` is zero below
        q**h, and the quotient is y + q**h * x*r modulo q**n, with r that
        remainder over q**h.  No product runs at more than length n, no
        inverse at more than length h, and the quotient modulo q**n is
        unique, so this is the same series as ``self * other.invert()``.
        """
        if not isinstance(other, QSeries):
            return NotImplemented
        n = min(self.order, other.order)
        h = -(-n // 2)
        x = other.truncate(h).invert()
        y = self.truncate(h) * x
        if h == n:
            return y
        y = y._pad(n)
        r = (self.truncate(n) - other.truncate(n) * y).shift(-h)
        return y + (x.truncate(n - h) * r).shift(h)

    def truncate(self, order: int) -> "QSeries":
        if not 1 <= order <= self.order:
            raise IndexBeyondOrder(f"cannot truncate order {self.order} to {order}")
        im = None if self._im is None else self._im[:order]
        return QSeries._raw(self._re[:order], im, self._den, order)

    def _pad(self, order: int) -> "QSeries":
        # Extend with zero coefficients; only for internal iteration schemes
        # that repair the padded tail (Newton), never for honest truncations.
        if order <= self.order:
            return self.truncate(order)
        pad = [0] * (order - self.order)
        im = None if self._im is None else self._im + pad
        return QSeries._raw(self._re + pad, im, self._den, order)

    def shift(self, k: int) -> "QSeries":
        """Multiply by ``q**k``.  Negative ``k`` must not drop nonzero terms."""
        if k == 0:
            return self
        if k > 0:
            pad = [0] * k
            im = None if self._im is None else pad + self._im
            return QSeries._raw(pad + self._re, im, self._den, self.order + k)
        k = -k
        if k >= self.order:
            raise ValueError("shift would exhaust the series")
        if any(self._re[:k]) or (self._im is not None and any(self._im[:k])):
            raise ValueError("negative shift would drop nonzero coefficients")
        im = None if self._im is None else self._im[k:]
        return QSeries._raw(self._re[k:], im, self._den, self.order - k)


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------


def series_eq(a: QSeries, b: QSeries, order: int):
    """First exponent below ``order`` where the series differ, or None."""
    if order > min(a.order, b.order):
        raise IndexBeyondOrder("comparison order exceeds a truncation order")
    ar, ai, da = a._re, a._im or (), a._den
    br, bi, db = b._re, b._im or (), b._den
    for n in range(order):
        x_im = ai[n] if ai else 0
        y_im = bi[n] if bi else 0
        if ar[n] * db != br[n] * da or x_im * db != y_im * da:
            return n
    return None


def pochhammer_inf(zeta, offset: int, modulus: int, order: int) -> QSeries:
    """The product ``(zeta*q**offset; q**modulus)_inf`` truncated to order.

    Factors whose exponent reaches the order contribute nothing below
    ``q**order`` and are skipped.  ``offset == 0`` with ``zeta == 1`` makes
    the first factor vanish, so the zero series is returned.  A fourth root
    of unity ``zeta`` runs on the multi-modular lane through the product
    store; any other exact scalar runs on the big-integer loop.  The result
    is always a fresh series that shares no list with the store.
    """
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    if offset < 0:
        raise ValueError("offset must be >= 0")
    if order < 1:
        raise ValueError("order must be >= 1")
    z = _as_gaussian(zeta)
    if z is NotImplemented:
        raise TypeError("zeta must be an exact scalar")

    scalar = None
    e = offset
    if e == 0:
        w = GaussianRational(1) - z
        if not w:
            return QSeries.zeros(order)
        scalar = w
        e = modulus

    unit = _UNIT_INDEX.get((z.re, z.im))
    if unit is None:
        out = _factors_loop(z, e, modulus, order)
    else:
        out = _stored_factors(unit, e, modulus, order)
    if scalar is not None:
        out = out * scalar
    return out


def _factors_loop(z: GaussianRational, e: int, modulus: int,
                  order: int) -> QSeries:
    """``prod (1 - z*q**k)`` over ``k = e, e + modulus, ...`` below order,
    in exact big integers over a common denominator, for any scalar z."""
    d = math.lcm(z.re.denominator, z.im.denominator)
    zr = int(z.re * d)
    zi = int(z.im * d)

    re = [0] * order
    re[0] = 1
    im = [0] * order
    den = 1
    while e < order:
        old_re, old_im = re, im
        re = [d * x for x in old_re]
        im = [d * x for x in old_im]
        for j in range(order - e):
            x = old_re[j]
            y = old_im[j]
            if x or y:
                re[j + e] -= zr * x - zi * y
                im[j + e] -= zr * y + zi * x
        den *= d
        e += modulus
    return QSeries._raw(re, im, den, order)


# ---------------------------------------------------------------------------
# multi-modular lane for unit zeta
# ---------------------------------------------------------------------------

# (re, im) of i**k for k = 0..3, and the inverse map: the fourth roots of
# unity the lane accepts
_I_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))
_UNIT_INDEX = {w: k for k, w in enumerate(_I_POWERS)}

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases, which is
    deterministic for every n below 3.3 * 10**24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@functools.cache
def _lane_prime(i: int) -> int:
    """The ``i``-th largest prime below ``2**62``, counting from 0."""
    p = (1 << 62 if i == 0 else _lane_prime(i - 1)) - 1
    while not _is_prime(p):
        p -= 1
    return p


def _partition_bound_bits(n: int) -> int:
    """A ``bits`` with ``q(n) < 2**bits``, where q(n) counts the partitions
    of n into distinct parts, in integers only.

    For 0 < x < 1, ``q(n) x**n <= prod (1 + x**k) = prod 1/(1 - x**(2k-1))``,
    whose log is ``sum_j x**j / (j (1 - x**(2j)))``.  With x = e**-t the
    j-th term is ``1/(2j sinh(jt)) <= 1/(2 j**2 t)``, so the log is at most
    ``pi**2/(12t)`` and ``log q(n) <= n t + pi**2/(12t)``.  Taking
    ``t = pi/sqrt(12n)`` gives ``q(n) <= exp(pi*sqrt(n/3))``: the exponent
    in base 2 is ``pi/(sqrt(3) ln 2) < 2.62`` times ``sqrt(n) < isqrt(n) + 1``.
    """
    return 262 * (math.isqrt(n) + 1) // 100 + 1


def _lane_moduli(bits: int) -> list[int]:
    """The largest primes below ``2**62``, as few as make a product above
    ``2**(bits + 2)``: balanced residues then cover ``|c| <= 2**bits``."""
    moduli, product = [], 1
    while product <= 1 << (bits + 2):
        p = _lane_prime(len(moduli))
        moduli.append(p)
        product *= p
    return moduli


def _reduce(s, p, op, out):
    # Residues are below p < 2**62.  A sum s = a + b cannot wrap, and s - p
    # wraps past s exactly when s < p; a difference s = a - b wraps past p
    # exactly when a < b, and s + p unwraps it.  Either way, with op the
    # inverse of the step, the minimum is the reduced value.
    op(s, p, out=out)
    np.minimum(s, out, out=out)


# Columns of residues that ``_crt`` turns into Python ints at a time
_CRT_BLOCK = 256


def _crt(rows, moduli: list[int]) -> list[int]:
    """Balanced integers from their residues, one uint64 row per modulus.
    The residues become Python ints ``_CRT_BLOCK`` columns at a time, so
    only the output list grows with the row length."""
    m = math.prod(moduli)
    half = m // 2
    weights = [(m // p) * pow(m // p, -1, p) for p in moduli]
    out = []
    for j in range(0, rows.shape[1], _CRT_BLOCK):
        for residues in rows[:, j:j + _CRT_BLOCK].T.tolist():
            x = sum(map(operator.mul, weights, residues)) % m
            out.append(x - m if x > half else x)
    return out


def _stride_prefix(c, p, stride: int, tmp):
    """``c[..., i] += c[..., i - stride] + c[..., i - 2*stride] + ...`` in
    place, each row mod its prime, with the temporaries in ``tmp``.
    Doubling steps: after adding the copy shifted by ``stride * 2**k``,
    c[i] sums the first ``2**(k + 1)`` terms."""
    n = c.shape[-1]
    shift = stride
    while shift < n:
        s = tmp[..., :n - shift]
        np.add(c[..., shift:], c[..., :n - shift], out=s)
        _reduce(s, p, np.subtract, c[..., shift:])
        shift *= 2


def _subtract_times(c, k: int, e: int, src, p, tmp):
    """``c -= i**k * q**e * src``, each row mod its prime, with the real
    part in ``c[0]`` and the imaginary part, if any, in ``c[1]``:
    ``i**k * (a + b*i)`` is (a, b), (-b, a), (-a, -b) or (b, -a).  src may
    overlap the columns written, so every unreduced sum goes to ``tmp``
    before any part is written."""
    n = src.shape[-1]
    if k % 2:
        groups = ((0, 1, k == 1), (1, 0, k == 3))
    else:
        groups = ((slice(None), slice(None), k == 2),)
    for part, other, add in groups:
        (np.add if add else np.subtract)(c[part, :, e:], src[other],
                                         out=tmp[part, :, :n])
    for part, _, add in groups:
        _reduce(tmp[part, :, :n], p, np.subtract if add else np.add,
                c[part, :, e:])


def _tail_start(e: int, modulus: int, order: int) -> int:
    """The first exponent of ``e, e + modulus, ...`` at or above
    ``sqrt(modulus * order * log2(order) / 2)``: where ``_factors_lane``
    stops applying factors one at a time (its docstring derives it)."""
    t = math.isqrt(modulus * order * order.bit_length() // 2)
    return e + max(0, -(-(t - e) // modulus)) * modulus


def _factors_lane(unit: int, e: int, modulus: int, order: int) -> QSeries:
    """``prod (1 - i**unit * q**k)`` over ``k = e, e + modulus, ...`` below
    order, computed modulo several primes and rebuilt by CRT.

    Each coefficient of the product is a signed count of sets of distinct
    exponents with a given sum, so its real and imaginary parts are at
    most q(n), the number of partitions of n into distinct parts, which
    ``_partition_bound_bits`` bounds.  Reduction mod p is a ring
    homomorphism, so only the final coefficients need to fit that bound.

    Each factor below the tail start t (``_tail_start``) is one slice
    update of all rows, giving a partial product A.  The factors from t on
    are multiplied in together by counting sets of exponents: i distinct
    exponents ``t + a_1 m < ... < t + a_i m`` (m the modulus) sum to
    ``i t + m i(i-1)/2`` plus m times a partition into at most i parts, so
    the tail is ``sum_i (-zeta)**i q**(i t + m i(i-1)/2) / (q**m; q**m)_i``
    (Andrews, *The Theory of Partitions*, Cor. 2.2).  Level i is
    ``A / (q**m; q**m)_i``, the stride-``i m`` prefix sum of level i - 1,
    taken in place below ``q**(order - i t - m i(i-1)/2)`` only, and each
    level is added into the product at its shift.  No level starts at or
    past the order, so there are fewer than ``order / t`` of them.

    The start balances column passes.  A factor at k costs one pass over
    ``order - k`` columns, so the factors below t cost about
    ``t order / m``.  A level costs one doubling prefix, about
    ``log2(order)`` passes over its length, and the levels' lengths fall
    from ``order - t`` towards 0 in steps of at least t, so the tail costs
    about ``order**2 log2(order) / (2 t)``.  The sum is least at
    ``t = sqrt(m order log2(order) / 2)``, which ``_tail_start`` takes with
    the bit length of the order for its log.  Every update writes in place
    through preallocated scratch rows.
    """
    moduli = _lane_moduli(_partition_bound_bits(order - 1))
    p = np.array(moduli, dtype=np.uint64)[:, None]
    # the real part, and the imaginary part for the odd units
    c = np.zeros((1 + unit % 2, len(moduli), order), dtype=np.uint64)
    c[0, :, 0] = 1
    tmp = np.empty_like(c)
    t = _tail_start(e, modulus, order)
    while e < min(t, order):
        _subtract_times(c, unit, e, c[..., :order - e], p, tmp)
        e += modulus
    level = c.copy()
    i, s = 1, e
    while s < order:
        n = order - s
        _stride_prefix(level[..., :n], p, i * modulus, tmp)
        # level i enters with -(-zeta)**i = i**k: k = unit at i = 1
        _subtract_times(c, (2 + i * (unit + 2)) % 4, s, level[..., :n], p,
                        tmp)
        s += e + i * modulus
        i += 1
    del level, tmp  # before _crt fills its lists
    return QSeries._raw(_crt(c[0], moduli),
                        _crt(c[1], moduli) if unit % 2 else None, 1, order)


# ---------------------------------------------------------------------------
# product store
# ---------------------------------------------------------------------------

# The most reduced keys the store keeps; past it the least recently used
# product is dropped.
PRODUCT_STORE_LIMIT = 32

# (unit, e, modulus) with gcd(e, modulus) == 1 -> the longest lane product
# built for it.  Its lists never leave the store: every hit is copied.
_products: dict[tuple[int, int, int], QSeries] = {}

# Every product store: the lane products above and the stores other modules
# open with ``product_store`` (the theta base products of ``theta``).
_stores = [_products]


def product_store() -> dict:
    """A new product store, for ``stored_product``, that
    ``clear_product_store`` empties."""
    store: dict = {}
    _stores.append(store)
    return store


def clear_product_store() -> None:
    """Drop every stored product: the lane products and the products of
    every store from ``product_store``."""
    for store in _stores:
        store.clear()


def stored_product(store: dict, key, need: int, build) -> QSeries:
    """The product ``store`` keeps for ``key``, known below ``q**need`` at
    least: the stored one if it is that long, else ``build(need)``, which
    replaces it.  The store keeps the ``PRODUCT_STORE_LIMIT`` keys used
    last.  The series returned is the stored one; callers copy from it."""
    have = store.pop(key, None)
    if have is None or have.order < need:
        have = build(need)
    store[key] = have
    while len(store) > PRODUCT_STORE_LIMIT:
        del store[next(iter(store))]
    return have


def _stored_factors(unit: int, e: int, modulus: int, order: int) -> QSeries:
    """``_factors_lane(unit, e, modulus, order)`` served from the store.

    With g = gcd(e, modulus), the product over ``k = e, e + modulus, ...``
    is the one over ``k = e/g, e/g + modulus/g, ...`` with q -> q**g, and
    below ``q**order`` it needs that product below ``q**ceil(order/g)``
    only, the prefix of any longer one.  A miss, or a stored product too
    short, builds the reduced product at the length asked for.
    """
    g = math.gcd(e, modulus)
    key = (unit, e // g, modulus // g)
    have = stored_product(_products, key, -(-order // g),
                          lambda need: _factors_lane(*key, need))
    im = None if have._im is None else _spread(have._im, g, order)
    return QSeries._raw(_spread(have._re, g, order), im, 1, order)


def _int_bytes(bits: int) -> int:
    """The size of an int of that many bits."""
    digits = -(-bits // sys.int_info.bits_per_digit)
    return int.__basicsize__ + int.__itemsize__ * max(digits, 1)


def _lane_bytes(order: int) -> int:
    """The lane term of ``series_bytes``: one build below ``q**order``.

    It counts, per column and per prime at the bound (every prime being
    above ``2**61``), four uint64 words and one int of 62 bits with its
    list slot: 76 bytes.  The build holds six uint64 rows per prime for
    the odd units (the real and imaginary rows, their level rows and
    their temporaries), 48 of those bytes.  ``_crt`` runs after the level
    rows and temporaries are freed and converts residues a block of
    columns at a time, so the rest is room for the two coefficient lists
    it fills: from order 3001 on they fit, and ``_factors_lane(1, 1, 1,
    N)`` peaks in tracemalloc at 0.63 MB for N = 3001 and 0.77 MB for
    4000, against 0.68 and 0.91 MB counted here.  Below that the lists
    outgrow the slots (51 against 23 KB at 300), and the list term of
    ``series_bytes`` covers them.
    """
    bits = _partition_bound_bits(max(order - 1, 0))
    rows = (bits + 2) // 61 + 1
    return rows * order * (4 * 8 + 8 + _int_bytes(62))


def series_bytes(order: int) -> int:
    """An upper estimate, computed without allocating, of the bytes the
    series layer holds for products below ``q**order``: the bound on
    ``--order`` (``verify.size_error``); no suite builds lane series at
    ``--max``.

    It counts one lane build (``_lane_bytes``) and the coefficient lists,
    every coefficient an int of the bound's size: two for each of
    ``PRODUCT_STORE_LIMIT`` stored products and 16 more, with room to
    spare, for the operands, products and quotients of the two product
    routes (each quotient holds an inverse and a remainder at half
    length).  A product's own scratch fits in those: a rows product at
    order 4000 with a dense operand as wide as any of dkm's there, (q;q)
    times the 155-bit ``(-q;q)``, peaks in tracemalloc at 0.68 MB in
    ``_conv_rows``, about three such lists, with its bytes per
    coefficient, limb rows and the list it returns.  The base products of the theta store are not counted apart:
    a theta series has at most two terms at each power of q, so their
    coefficients have modulus at most 2, CPython's shared small ints, and a
    full store holds ``16 * PRODUCT_STORE_LIMIT`` bytes per unit of order,
    about 4 % of this estimate at order 3001 (0.22 MB measured after
    ``verify --suite all --order 300 --max 3000``, against 13.2 MB).
    """
    bits = _partition_bound_bits(max(order - 1, 0))
    lists = 2 * PRODUCT_STORE_LIMIT + 16
    return _lane_bytes(order) + lists * order * (8 + _int_bytes(bits))


# ---------------------------------------------------------------------------
# eta quotients in int64
# ---------------------------------------------------------------------------


class InexactRecurrence(ArithmeticError):
    """A division of ``eta_quotient``'s recurrence left a remainder, so its
    divisor sums are wrong: a fault of the program, not a failed check."""


def eta_quotient(r: dict, n: int, sigma1=None) -> np.ndarray:
    """``prod_m (q**m; q**m)_inf ** r[m]`` below ``q**n`` as int64, from the
    logarithmic derivative of the product.

    With f that product, ``q f'/f = sum_k s(k) q**k``, where
    ``s(k) = -sum_{m | k} r[m] * m * sigma(k/m)`` (each factor
    ``1 - q**(m*j)`` adds ``-m*j*q**(m*j) / (1 - q**(m*j))``), so
    ``c(0) = 1`` and ``k*c(k) = sum_{j=1..k} s(j) c(k - j)``: the partition
    recurrence ``k p(k) = sum sigma(j) p(k - j)``, generalised.  No identity
    is used beyond that derivative.  sigma is ``sigma1``, a
    ``_kernels.sigma_table(N, 1)`` with ``N >= n - 1``, or is built as
    ``_kernels.sigma_table(n - 1, 1)`` when not given.

    Each division by k must be exact, or ``InexactRecurrence`` is raised.
    Overflow guard: each partial sum of ``s(k)`` is at most
    ``sum_m |r[m]| * m * max sigma``, and each partial sum of the dot
    product for c(k) at most ``sum_{j<=k} |s(j)|`` times the largest
    ``|c(i)|``, i < k; ``OverflowError`` is raised before either could
    reach 2**63.  The signed product's second bound is 8.8e13 at n = 90001.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if any(m < 1 for m in r):
        raise ValueError("eta quotient exponents are keyed by m >= 1")
    if sigma1 is None:
        sigma1 = _kernels.sigma_table(n - 1, 1)
    elif len(sigma1) < n:
        raise ValueError(f"sigma1 holds {len(sigma1)} entries, below the "
                         f"{n} that q**{n} needs")
    r = {m: e for m, e in r.items() if e and m < n}
    sig = sigma1[:n]
    if sum(abs(e) * m for m, e in r.items()) * int(sig.max()) >= 1 << 63:
        raise OverflowError(f"the eta quotient's divisor sums below q**{n} "
                            "may exceed int64")
    s = np.zeros(n, dtype=np.int64)
    for m, e in r.items():
        s[m::m] -= e * m * sig[1:(n - 1) // m + 1]
    # sum_{j<=k} |s(j)| in int64: each term is below 2**63, so the first
    # partial sum to reach 2**63 reads negative, and the guard stops there
    weight = np.cumsum(np.abs(s))
    # c reversed, so each dot product reads c(k - 1), ..., c(0) forwards
    rev = np.zeros(n, dtype=np.int64)
    rev[n - 1] = 1
    top = 1  # the largest |c(i)| so far
    for k in range(1, n):
        w = int(weight[k])
        if w < 0 or w * top >= 1 << 63:
            raise OverflowError(f"the eta quotient's recurrence at q**{k} "
                                "may exceed int64")
        c, rest = divmod(int(np.dot(s[1:k + 1], rev[n - k:])), k)
        if rest:
            raise InexactRecurrence(f"the eta quotient's recurrence leaves "
                                    f"{rest} over {k} at q**{k}")
        rev[n - 1 - k] = c
        top = max(top, abs(c))
    return rev[::-1].copy()
