"""Named verification suites over the whole identity stack.

Each suite returns a ``VerificationReport`` whose checks carry first-failure
loci with exact expected/actual values.  Suite names are the stable CLI
tokens, ``report.SUITE_NAMES``; ``run_suites`` resolves them and hands every suite one ``Tables``,
and ``size_error`` holds every rule on the sizes a suite accepts.

Four sweeps run a batch route on every n <= max and a per-n oracle on the
first ``PER_N_PREFIX`` n, which pins the batch reading in every run:

* ``bijections``: the window lane (``bijection_windows``) beside
  ``bijections.verify_case``;
* ``corollary``: ``Tables.sum_side`` beside ``counting.signed_formula_*``;
* the Hurwitz doubling checks of ``background``: ``Tables.h12`` beside
  ``quadforms.hurwitz_H``;
* the three-squares parity check of ``propositions``:
  ``counting.parity_bijection_walk`` at every multiple of four beside
  ``counting.three_squares_parity_check`` at every n.

A check fails at the first n where either route fails, with the per-n
oracle's values at that n; where only the batch route fails, the failure
names that disagreement.

Every other sweep over n <= max (those of theorem17, propositions,
theorem61 and background, and of ``counting.classical_checks``) compares
whole int64 tables, in units of 12*H where class numbers enter.  Only
where a comparison fails, or a series coefficient is not a real integer
that int64 holds, does its per-n expression on Fractions run
(``report.table_check``), so each check and its failure values are those of
the per-n sweep.  ``counting.check_sweep_int64`` bounds that arithmetic.

The products read at every n <= max are eta quotients built in int64
(``series.eta_quotient``): the signed product ``Tables.product``, the
unsigned product of background's ``unsigned_generating_function`` and the
triangular quotient of ``classical_checks``.  The lane's product routes pin
the signed one on the prefix and the unsigned one below ``--order``; its
two signed routes meet each other on the prefix here and below ``--order``
in dkm.  Propositions' half-split expansion builds its factors from
bilateral theta sums (``theta_j_sum``), which share no code with the lane
or the recurrence, so no suite builds a lane series at ``--max``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import _kernels, counting
from .quadforms import HURWITZ_X_LIMIT, hurwitz_H, hurwitz_table
from .report import (SUITE_NAMES, Check, VerificationReport, series_check,
                     sweep_check, table_check)
from .series import eta_quotient, series_bytes
from .theta import (InternalCrossCheckFailure, jtheta,
                    product_side_pochhammer, product_side_series,
                    product_side_theta, rep_count_product_series,
                    theta_j_sum, verify_theta_suite)

# Every n up to this bound also runs the per-n oracle beside the batch route
# of the bijection, corollary, Hurwitz doubling and three-squares parity
# sweeps (see the module docstring).
PER_N_PREFIX = 200

# The int64 bounds on ``--max`` (see the modules that raise past them).
_KERNELS = _kernels.MAXN_LIMIT  # sigma_table's own bound is wider at k = 0
_H12 = (HURWITZ_X_LIMIT - 1) // 4  # hurwitz_table(4*max)
_FORMS = (_kernels.PROGRESSION_LIMIT - 1) // 4  # reduced forms of -4n

# The exponents r[m] of the eta quotients prod_m (q^m;q^m)^r[m] that
# ``eta_quotient`` builds: by (1 + x)(1 - x) = 1 - x^2 factor by factor,
# j(q;q^2) j(q^2;q^4)^2 = (q;q)^2 (q^2;q^2)^3 / (q^4;q^4)^2 and
# j(-q;q^2) j(-q^2;q^4)^2 = (q^2;q^2) (q^4;q^4)^8 / ((q;q)^2 (q^8;q^8)^4).
SIGNED_ETA = {1: 2, 2: 3, 4: -2}
UNSIGNED_ETA = {1: -2, 2: 1, 4: 8, 8: -4}

# The bound on |a(n)| of ``Tables.product``: 12*a(n) fits int64 below it.
PRODUCT_LIMIT = (1 << 63) // 12


class _Size(NamedTuple):
    min_order: int
    min_max: int
    max_bounds: tuple[int, ...]  # the int64 bounds on --max
    follows_order: bool  # its series and kernel tables follow --order
    table_bytes: int  # bytes per n of max its int64 tables may hold


# Every size rule of every suite; ``size_error`` applies them.
#
# Minimums: dkm compares series from q**1 on.  A suite that sweeps residue
# classes of n needs --max to reach the first n of its last class, so that
# no check passes on an empty class: corollary n = 2 (its even n),
# theorem17, propositions, theorem61 and bijections n = 7 (their checks at
# n = 7 mod 8).  background runs the theta and Appell suites (order >= 8)
# and the classical square-count checks (max >= 8).
#
# Series: dkm's sum side builds kernel tables for n <= order - 1 and
# background's theta and Appell series follow order too.  No suite builds a
# lane series at --max: the products read there are int64 eta quotients,
# and propositions' expansion multiplies theta sums, counted below.
#
# Table bytes add up the build peak of each table a suite builds at max, per
# n, from tracemalloc at max = 10**5: signed/unsigned 33, r3 25, each triple
# table 92 (an older peak; 86 now), sigma0 9, sigma1 9, h12 79 (4*max + 1
# entries); each ``eta_quotient`` 32 (its divisor sums, guard weights and
# reversed coefficients, and the copy it returns), which ``Tables.product``
# adds nothing to at this size (its lane pin stops at ``PER_N_PREFIX``);
# corollary's sum side 32, with the pair tables it reads (29 alone) and
# drops (it holds 8); propositions' parity walk 11, its image counts and
# block scratch (10) and the comparisons of its counts, and its six-term
# expansion 176, the theta-sum products and their int64 readings (174 at
# 2*10**4); background's two eta quotients, and its
# ``classical_checks`` reads the run's r3 and adds r2 and r4 25 each,
# d_mod4 17, sigma_no_mult4 9, triangular3 25, triangular_sum_side 12 and
# hlm 17; bijections' window lane reads h12 and sigma0 and holds its
# progression cursors, 138 with a window (88 of them the cursors' 20 bytes
# per opened pair, the rest the merges of their key runs).  A sum of peaks
# bounds the peak of the tables held together;
# each build's fixed block scratch (``_kernels.BLOCK`` cells or fewer) is
# within its figure from max = 10**5 on.
#
# Bounds: ``counting.PARITY_N_LIMIT`` bounds the keys of the batch parity
# walk, and the per-n arm refuses the same n; the per-n oracles that report
# a failure past the prefix keep the bounds of their own enumerations
# (``_FORMS`` for ``hurwitz_H(4n)``, ``counting.TRIPLE_N_LIMIT`` for the
# closed forms); ``sigma_table(max, 0)`` refuses only max >= 2**63.  At
# max = 685220, above the budget's cap for "all" (627168 at --order 200),
# the eta quotients' guards have room: sum |s(k)| is 1.2e12 for the signed
# product there, so its largest |c| would have to pass 7.9e6, and it is
# 13368.
_SIZES = {
    "dkm": _Size(2, 0, (), True, 0),
    "corollary": _Size(1, 2, (_KERNELS, counting.TRIPLE_N_LIMIT - 1),
                       False, 33 + 2 * 92 + 32),
    "theorem17": _Size(1, 7, (_KERNELS, _H12), False, 25 + 79 + 9 + 32),
    "propositions": _Size(1, 7, (_KERNELS, counting.PARITY_N_LIMIT - 1),
                          False,
                          33 + 25 + 2 * 92 + 9 + 11 + 9 + 32 + 176),
    "theorem61": _Size(1, 7, (_KERNELS, _H12), False, 2 * 92 + 9 + 79),
    "bijections": _Size(1, 7, (_H12, _FORMS, _kernels.WINDOW_N_LIMIT - 1),
                        False, 79 + 9 + 138),
    "background": _Size(8, 8, (_KERNELS, _H12, _FORMS), True,
                        79 + 33 + 25 + 2 * 25 + 17 + 9 + 25 + 12 + 17
                        + 9 + 2 * 32),
}

# The most bytes the series at ``--order`` (``series.series_bytes``) and
# the int64 tables at ``--max`` may be estimated to hold together before
# the CLI refuses the size: 1 GiB, about 57 times the series estimate at
# order 4000.
BYTES_BUDGET = 1 << 30


def size_error(name: str, order: int, maxn: int) -> str | None:
    """Why suite ``name``, or "all", refuses ``(order, maxn)``, or None if
    it accepts them.  The checks run in a fixed order: the minimums, the
    int64 bounds on --order and --max, then the series bytes at --order
    (for the suites that follow it) plus the table bytes at --max against
    ``BYTES_BUDGET``, since one run holds both.  Nothing is allocated;
    "all" takes the tightest bound of every suite and adds up their table
    bytes (a shared table counts once per suite that reads it)."""
    names = SUITE_NAMES if name == "all" else (name,)
    rows = [_SIZES[n] for n in names]
    min_order = max(r.min_order for r in rows)
    min_max = max(r.min_max for r in rows)
    follows_order = any(r.follows_order for r in rows)
    max_max = min((b for r in rows for b in r.max_bounds), default=None)
    if order < min_order:
        return f"suite {name} needs --order >= {min_order}"
    if maxn < min_max:
        return f"suite {name} needs --max >= {min_max}"
    if follows_order and order > _KERNELS + 1:
        return f"suite {name} needs --order <= {_KERNELS + 1}"
    if max_max is not None and maxn > max_max:
        return f"suite {name} needs --max <= {max_max}"
    legs = []
    if follows_order:
        legs.append((f"--order {order}", series_bytes(order), "series"))
    per_n = sum(r.table_bytes for r in rows)
    if per_n:
        legs.append((f"--max {maxn}", per_n * (maxn + 1), "tables"))
    need = sum(b for _, b, _ in legs)
    if need > BYTES_BUDGET:
        return (f"suite {name} at {' '.join(f for f, _, _ in legs)} would "
                f"hold about {need >> 20} MiB of "
                f"{' and '.join(w for _, _, w in legs)}, past the "
                f"{BYTES_BUDGET >> 20} MiB budget")
    return None


class Tables:
    """The tables the suites of one run share, each built on first use.

    Every member depends on ``maxn`` alone; ``dkm``, the one suite whose
    series follow ``order``, builds its own.

    Members read the builders through their module bindings at first use
    (``hurwitz_table``, ``eta_quotient`` and ``product_side_series`` here,
    the rest ``_kernels`` attributes), so a patched one is seen.  Their
    memory at ``maxn`` is bounded before a run by ``size_error``.
    """

    def __init__(self, maxn: int):
        self.maxn = maxn

    @cached_property
    def signed_unsigned(self):
        """(signed, unsigned) counts of x^2+2y^2+2z^2 = n, n <= maxn."""
        return _kernels.signed_rep_tables(self.maxn)

    @cached_property
    def r3(self):
        return _kernels.square_rep_tables(3, self.maxn)

    @cached_property
    def open_triples(self):
        return _kernels.triple_tables(self.maxn, False)

    @cached_property
    def shifted_triples(self):
        return _kernels.triple_tables(self.maxn, True)

    @cached_property
    def sum_side(self):
        """The sum side's coefficients of q^1 .. q^maxn, 0 at n = 0."""
        return counting.sum_side_table(self.maxn, self.open_triples[1],
                                       self.shifted_triples[1])

    @cached_property
    def sigma0(self):
        return _kernels.sigma_table(self.maxn, 0)

    @cached_property
    def sigma1(self):
        """sigma_1(n), n <= maxn: the divisor sums that every eta quotient
        below q^(maxn+1) reads."""
        return _kernels.sigma_table(self.maxn, 1)

    @cached_property
    def h12(self):
        """12*H(N) for N <= 4*maxn."""
        return hurwitz_table(4 * self.maxn)

    def H(self, N: int) -> Fraction:
        return Fraction(int(self.h12[N]), 12)

    @cached_property
    def product(self) -> np.ndarray | Check:
        """The signed counts a(n), n <= maxn, as int64: the eta route
        (``SIGNED_ETA``) below q^(maxn+1), pinned on every
        n <= ``PER_N_PREFIX`` to the lane's theta route, or a failed check
        at the first exponent where the lane's two routes differ
        (``pochhammer_route_eq_theta_route``) or, failing that, where the
        eta route and the lane differ (``eta_route_eq_theta_route``).

        Overflow guard: ``OverflowError`` where some |a(n)| reaches
        ``PRODUCT_LIMIT``, so that 12*a(n), the largest multiple a sweep
        takes, fits int64."""
        order = self.maxn + 1
        pin = min(PER_N_PREFIX + 1, order)
        try:
            lane = product_side_series(pin)
        except InternalCrossCheckFailure as exc:
            return Check.fail("pochhammer_route_eq_theta_route", exc.locus,
                              exc.expected, exc.actual)
        a = eta_quotient(SIGNED_ETA, order, self.sigma1)
        if a.max() >= PRODUCT_LIMIT or a.min() <= -PRODUCT_LIMIT:
            raise OverflowError(f"the signed product below q**{order} "
                                "reaches 2**63 // 12")
        values, exact = lane.int64_coefficients()
        fails = ~exact | (values != a[:pin])
        if fails.any():
            bad = int(fails.argmax())
            return Check.fail("eta_route_eq_theta_route", bad,
                              lane.coeff(bad), a.item(bad))
        return a


def _pinned_check(name: str, ns: range, fails, per_n, oracle: str,
                  prefix: range | None = None) -> Check:
    """One check on the batch route, pinned to its per-n oracle.

    ``fails`` is the batch comparison, true where it fails, at each n of
    ``ns``; ``per_n(n)`` gives the oracle's ``(expected, actual)`` at n,
    which runs on every n of ``prefix`` (``ns`` unless given) up to
    ``PER_N_PREFIX``.  The check fails at the first n where either route
    fails, with the oracle's values at that n, or, where only the batch
    route fails, a failure naming that disagreement."""
    first = ns[int(fails.argmax())] if fails.any() else None
    prefix = ns if prefix is None else prefix
    stop = PER_N_PREFIX + 1
    if first is not None:
        stop = min(stop, first)
    check = sweep_check(name, (
        (n, *per_n(n))
        for n in range(prefix.start, min(prefix.stop, stop), prefix.step)))
    if not check.passed or first is None:
        return check
    expected, actual = per_n(first)
    if expected != actual:
        return Check.fail(name, first, expected, actual)
    return Check.fail(name, first, f"{oracle} and the batch tables agree",
                      "only the batch tables fail")


def suite_main_identity(order: int, maxn: int,
                        tables: Tables) -> VerificationReport:
    """Sum side equals product side, coefficient for coefficient.  Both
    product routes are built here at ``order``; ``tables`` is not read."""
    if order < 2:
        raise ValueError("order must be >= 2")
    checks = []
    lhs = counting.sum_side_series(order)
    poch = product_side_pochhammer(order)
    theta = product_side_theta(order)
    checks.append(series_check("pochhammer_route_eq_theta_route",
                               poch, theta, order))
    checks.append(series_check("sum_side_eq_product_side", lhs, poch, order))
    checks.append(sweep_check(
        "coefficients_are_plain_integers",
        ((n, True, ok) for n, ok in enumerate(poch.integral_coefficients()))))
    return VerificationReport("dkm", {"order": order, "max": maxn}, checks)


def suite_corollary(order: int, maxn: int,
                    tables: Tables) -> VerificationReport:
    """Per-parity closed forms against the direct signed enumeration: the
    batch sum side for every n <= maxn, the per-n ``signed_formula_*`` on
    the prefix."""
    signed, _ = tables.signed_unsigned
    sum_side = tables.sum_side
    checks = []
    for name, first, oracle in (
            ("closed_form_even_n", 2, "signed_formula_even"),
            ("closed_form_odd_n", 1, "signed_formula_odd")):
        formula = getattr(counting, oracle)
        checks.append(_pinned_check(
            name, range(first, maxn + 1, 2),
            signed[first::2] != sum_side[first::2],
            lambda n, formula=formula: (int(signed[n]), formula(n)), oracle))
    return VerificationReport("corollary", {"order": order, "max": maxn}, checks)


def suite_residue_classes(order: int, maxn: int,
                          tables: Tables) -> VerificationReport:
    """The signed count through Hurwitz class numbers, by residue mod 8.

    Each sweep compares int64 tables, in units of 12*H, and runs its per-n
    expression on Fractions only where they disagree
    (``report.table_check``)."""
    params = {"order": order, "max": maxn}
    a = tables.product
    if isinstance(a, Check):
        return VerificationReport("theorem17", params, [a])
    counting.check_sweep_int64(maxn)
    r3, H, h12 = tables.r3, tables.H, tables.h12
    av = a.item  # a(n) as an int

    def differs(ns, expected12):
        # a(n) equals expected12/12 exactly where 12*a(n) == expected12
        return 12 * a[ns] != expected12

    ns = np.arange(1, maxn + 1)
    odd = ns[np.isin(ns % 8, (1, 2, 5, 6))]
    three = np.arange(3, maxn + 1, 8)
    seven = np.arange(7, maxn + 1, 8)
    four = np.arange(4, maxn + 1, 4)
    checks = [
        table_check("a_eq_minus_4H4n_for_1_2_5_6_mod_8", odd,
                    differs(odd, -4 * h12[4 * odd]),
                    lambda n: (-4 * H(4 * n), av(n))),
        table_check("a_eq_6H4n_for_3_mod_8", three,
                    differs(three, 6 * h12[4 * three]),
                    lambda n: (6 * H(4 * n), av(n))),
        table_check("a_eq_24Hn_for_3_mod_8", three,
                    differs(three, 24 * h12[three]),
                    lambda n: (24 * H(n), av(n))),
        table_check("a_zero_for_7_mod_8", seven, differs(seven, 0),
                    lambda n: (Fraction(0), av(n))),
        table_check("a_eq_r3_for_0_mod_4", four,
                    differs(four, 12 * r3[four]),
                    lambda n: (Fraction(int(r3[n])), av(n))),
        table_check("r3_quarter_for_0_mod_4", four, r3[four // 4] != r3[four],
                    lambda n: (int(r3[n // 4]), int(r3[n]))),
    ]
    return VerificationReport("theorem17", params, checks)


def suite_propositions(order: int, maxn: int,
                       tables: Tables) -> VerificationReport:
    """The per-residue coefficient evaluations and the n = 0 mod 4 analysis.

    The sweeps compare int64 tables as ``suite_residue_classes`` does."""
    params = {"order": order, "max": maxn}
    a = tables.product
    if isinstance(a, Check):
        return VerificationReport("propositions", params, [a])
    counting.check_sweep_int64(maxn)
    open_total, _, open_even_r = tables.open_triples
    sh_total, sh_signed, sh_even_r = tables.shifted_triples
    r3, sig0 = tables.r3, tables.sigma0
    parity_counts = (*tables.signed_unsigned, r3)
    av = a.item  # a(n) as an int

    two = np.arange(2, maxn + 1, 4)
    one = np.arange(1, maxn + 1, 4)
    three = np.arange(3, maxn + 1, 8)
    seven = np.arange(7, maxn + 1, 8)
    four = np.arange(4, maxn + 1, 4)
    checks = [
        table_check("open_triples_have_odd_r", two, open_even_r[two] != 0,
                    lambda n: (0, int(open_even_r[n]))),
        table_check("shifted_triples_have_even_r_1_mod_4", one,
                    sh_total[one] != sh_even_r[one],
                    lambda n: (int(sh_total[n]), int(sh_even_r[n]))),
        table_check("a_4m2_eq_minus4_sigma0_minus4_open", two,
                    a[two] != -4 * sig0[two // 2] - 4 * open_total[two],
                    lambda n: (-4 * int(sig0[n // 2]) - 4 * int(open_total[n]),
                               av(n))),
        table_check("a_4m1_eq_minus2_sigma0_minus4_shifted", one,
                    a[one] != -2 * sig0[one] - 4 * sh_total[one],
                    lambda n: (-2 * int(sig0[n]) - 4 * int(sh_total[n]),
                               av(n))),
        table_check("a_8m3_eq_2_sigma0_plus4_shifted", three,
                    a[three] != 2 * sig0[three] + 4 * sh_total[three],
                    lambda n: (2 * int(sig0[n]) + 4 * int(sh_total[n]),
                               av(n))),
        table_check("a_8m7_eq_2_sigma0_minus4_signed_shifted", seven,
                    a[seven] != 2 * sig0[seven] - 4 * sh_signed[seven],
                    lambda n: (2 * int(sig0[n]) - 4 * int(sh_signed[n]),
                               av(n))),
        table_check("a_8m7_vanishes", seven, a[seven] != 0,
                    lambda n: (0, av(n))),
        table_check("a_4m_eq_r3_eq_r3_quarter", four,
                    (a[four] != r3[four]) | (r3[four // 4] != r3[four]),
                    lambda n: ((int(r3[n]), int(r3[n // 4])),
                               (av(n), av(n)))),
        _parity_check(maxn, parity_counts),
    ]
    checks.extend(_prop_residue_zero_series_checks(maxn + 1, a))
    return VerificationReport("propositions", params, checks)


def _parity_check(maxn: int, counts) -> Check:
    """The three-squares parity bijection: the batch walk at every multiple
    of four up to maxn, its image counts against ``unsigned`` and
    r3(n) = r3(n/4) = signed(n) there; ``three_squares_parity_check`` on
    every n of the prefix."""
    signed, unsigned, r3 = counts
    images, failed = counting.parity_bijection_walk(maxn)
    quarter = r3[:len(images)]
    fails = (failed | (images != unsigned[::4]) | (r3[::4] != quarter)
             | (signed[::4] != quarter))
    return _pinned_check(
        "three_squares_parity_bijection", range(0, maxn + 1, 4), fails,
        lambda n: (True, counting.three_squares_parity_check(n, counts)),
        "three_squares_parity_check", prefix=range(maxn + 1))


def _prop_residue_zero_series_checks(order: int, a) -> list[Check]:
    """The q^{4m} extraction: the only residue-0 products of the half-split
    expansion, their non-negativity, and the corrected six-term expansion.
    ``a`` is ``Tables.product``, the eta route below ``q**order``; the
    factors are bilateral theta sums, so the expansion compares two
    independent routes."""
    A, B, C, D = (theta_j_sum(jtheta(-1, r, m), order)
                  for r, m in ((4, 8), (0, 8), (8, 16), (0, 16)))
    checks = []

    # each product built once; residue0 reuses the expansion's A*C*C and
    # A*D*D
    AC, BC = A * C, B * C
    ACC = AC * C
    ADD4 = (A * D * D).shift(4).truncate(order)
    expansion = (ACC - (BC * C).shift(1).truncate(order)
                 - (AC * D).shift(2).truncate(order) * 2
                 + (BC * D).shift(3).truncate(order) * 2
                 + ADD4
                 - (B * D * D).shift(5).truncate(order))
    e, e_exact = expansion.int64_coefficients()
    checks.append(table_check(
        "half_split_six_term_expansion", np.arange(order),
        ~e_exact | (e != a), lambda n: (expansion.coeff(n), a.item(n))))

    residue0 = ACC + ADD4
    r0, r0_exact = residue0.int64_coefficients()
    ns = np.arange(0, order, 4)
    checks.append(table_check(
        "q4m_coefficients_match_residue0_products", ns,
        ~r0_exact[ns] | (r0[ns] != a[ns]),
        lambda n: (residue0.coeff(n), a.item(n))))
    checks.append(table_check(
        "q4m_coefficients_nonnegative", ns, a[ns] < 0,
        lambda n: (True, a.item(n) >= 0)))
    return checks


def suite_triple_counts(order: int, maxn: int,
                        tables: Tables) -> VerificationReport:
    """Triple counts against Hurwitz class numbers and divisor counts, on
    int64 tables in units of 12*H, with the per-n expressions on Fractions
    where they fail (``report.table_check``)."""
    counting.check_sweep_int64(maxn)
    open_total, _, _ = tables.open_triples
    sh_total, sh_signed, _ = tables.shifted_triples
    sig0, H, h12 = tables.sigma0, tables.H, tables.h12

    two = np.arange(2, maxn + 1, 4)
    one = np.arange(1, maxn + 1, 4)
    three = np.arange(3, maxn + 1, 8)
    seven = np.arange(7, maxn + 1, 8)
    checks = [
        table_check("open_count_2_mod_4", two,
                    h12[4 * two] - 12 * sig0[two // 2] != 12 * open_total[two],
                    lambda n: (H(4 * n) - int(sig0[n // 2]),
                               Fraction(int(open_total[n])))),
        table_check("shifted_count_1_mod_4", one,
                    h12[4 * one] - 6 * sig0[one] != 12 * sh_total[one],
                    lambda n: (H(4 * n) - Fraction(int(sig0[n]), 2),
                               Fraction(int(sh_total[n])))),
        table_check("shifted_count_3_mod_8", three,
                    6 * h12[three] - 6 * sig0[three] != 12 * sh_total[three],
                    lambda n: (6 * H(n) - Fraction(int(sig0[n]), 2),
                               Fraction(int(sh_total[n])))),
        table_check("shifted_signed_7_mod_8", seven,
                    6 * sig0[seven] != 12 * sh_signed[seven],
                    lambda n: (Fraction(int(sig0[n]), 2),
                               Fraction(int(sh_signed[n])))),
    ]
    return VerificationReport("theorem61", {"order": order, "max": maxn}, checks)


def suite_bijections(order: int, maxn: int,
                     tables: Tables) -> VerificationReport:
    """Every per-n construction check, aggregated with first-failure n.

    The window lane (``bijection_windows.verify_windows``) checks every
    n <= maxn from ``Tables.h12`` and ``Tables.sigma0``; ``verify_case``
    also checks every n <= ``PER_N_PREFIX``, which pins the lane to the
    per-n route in every run (the two share no enumeration of triples or
    forms, and the per-n route takes its class numbers from ``hurwitz_H``
    and its divisor counts from ``oracles.sigma``, not from the tables)
    and fixes the check names and their order.
    A check fails at the first n where either route fails it, with the
    expected and actual values of ``verify_case`` at that n, or, where
    only the lane fails, a failure naming the disagreement."""
    from . import bijection_windows, bijections  # loaded by this suite only

    if maxn < 7:
        raise ValueError("maxn must be >= 7")
    per_n = bijections.verify_case

    failing = {}  # the per-n reports on the prefix that fail a check
    first: dict[str, int | None] = {}
    for n in range(1, min(maxn, PER_N_PREFIX) + 1):
        if n % 4:
            report = per_n(n)
            for check in report.checks:
                first.setdefault(check.name, None)
                if first[check.name] is None and not check.passed:
                    first[check.name] = n
            if not report.passed:
                failing[n] = report
    for lo, failed in bijection_windows.verify_windows(maxn, tables.h12,
                                                       tables.sigma0):
        for name, fails in failed.items():
            if fails.any():
                n = lo + int(fails.argmax())
                if first[name] is None or n < first[name]:
                    first[name] = n

    checks = []
    for name, n in first.items():
        if n is None:
            checks.append(Check.ok(name))
            continue
        report = failing.get(n) or per_n(n)
        (check,) = (c for c in report.checks if c.name == name)
        checks.append(Check.fail(name, n, "verify_case and the window lane "
                                 "agree", "only the window lane fails")
                      if check.passed else check)
    return VerificationReport("bijections", {"order": order, "max": maxn},
                              checks)


def suite_background(order: int, maxn: int,
                     tables: Tables) -> VerificationReport:
    """Theta suite, Appell suite, classical checks, Hurwitz doubling, the
    unsigned generating function, and the local-global sweep.  Hurwitz
    doubling, H(4n) = 4H(n) for n = 3 mod 8 and 2H(n) for n = 7 mod 8 (the
    checks of ``quadforms.verify_hurwitz_doubling``), reads ``Tables.h12``
    for every n <= maxn and the per-N ``hurwitz_H`` on the prefix.  The
    other sweeps compare int64 tables (``report.table_check``); the
    local-global criterion reads ``counting.three_square_excluded_table``,
    with ``is_three_square_excluded`` where the tables disagree."""
    from .appell import verify_appell_suite  # loaded by this suite only

    counting.check_sweep_int64(maxn)
    checks = []
    checks.extend(verify_theta_suite(order).checks)
    checks.extend(verify_appell_suite(order).checks)
    h12 = tables.h12
    checks.extend(counting.classical_checks(maxn, h12, tables.r3,
                                            tables.sigma1).checks)
    for residue, mult in ((3, 4), (7, 2)):
        fails = (mult * h12[residue:maxn + 1:8]
                 != h12[4 * residue:4 * maxn + 1:32])
        checks.append(_pinned_check(
            f"hurwitz_doubling_{residue}_mod_8",
            range(residue, maxn + 1, 8), fails,
            lambda n, mult=mult: (mult * hurwitz_H(n), hurwitz_H(4 * n)),
            "hurwitz_H"))

    signed, unsigned = tables.signed_unsigned
    ns = np.arange(0, maxn + 1)
    checks.append(table_check(
        "abs_signed_count_eq_unsigned_count", ns,
        np.abs(signed) != unsigned,
        lambda n: (abs(int(signed[n])), int(unsigned[n]))))
    checks.append(table_check(
        "local_global_criterion", ns,
        counting.three_square_excluded_table(maxn) != (unsigned == 0),
        lambda n: (counting.is_three_square_excluded(n),
                   int(unsigned[n]) == 0)))
    r3 = tables.r3
    checks.append(table_check(
        "unsigned_zero_iff_r3_zero", ns, (r3 == 0) != (unsigned == 0),
        lambda n: (int(r3[n]) == 0, int(unsigned[n]) == 0)))

    # the eta route at every n <= maxn, the lane below the order
    b_order = min(order, maxn + 1)
    b_series = rep_count_product_series(b_order)
    b, b_exact = b_series.int64_coefficients()
    eta = eta_quotient(UNSIGNED_ETA, maxn + 1, tables.sigma1)
    lane_fails = ~b_exact | (b != unsigned[:b_order])
    fails = eta != unsigned
    fails[:b_order] |= lane_fails

    def unsigned_pair(n):
        if n < b_order and lane_fails[n]:
            return int(unsigned[n]), b_series.coeff(n)
        return int(unsigned[n]), int(eta[n])

    checks.append(table_check("unsigned_generating_function", ns, fails,
                              unsigned_pair))
    return VerificationReport("background", {"order": order, "max": maxn},
                              checks)


# keyed by ``report.SUITE_NAMES``, in its order
_SUITES = dict(zip(SUITE_NAMES, (
    suite_main_identity, suite_corollary, suite_residue_classes,
    suite_propositions, suite_triple_counts, suite_bijections,
    suite_background), strict=True))


def run_suites(name: str, order: int, maxn: int) -> list[VerificationReport]:
    """Run one named suite, or all of them in a stable order, over one
    shared ``Tables``."""
    if name != "all" and name not in _SUITES:
        raise KeyError(f"unknown suite {name!r}")
    tables = Tables(maxn)
    names = _SUITES if name == "all" else (name,)
    return [_SUITES[n](order, maxn, tables) for n in names]
