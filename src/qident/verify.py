"""Named verification suites over the whole identity stack.

Each suite returns a ``VerificationReport`` whose checks carry first-failure
loci with exact expected/actual values.  Suite names are the stable CLI
tokens; ``run_suites`` resolves them.
"""

from __future__ import annotations

from fractions import Fraction

from . import _kernels, bijections, counting
from .appell import verify_appell_suite
from .quadforms import hurwitz_H, verify_hurwitz_doubling
from .report import Check, VerificationReport, series_check, sweep_check
from .series import QSeries
from .theta import (Jbar, product_side_pochhammer, product_side_series,
                    product_side_theta, rep_count_product_series,
                    verify_theta_suite)

SUITE_NAMES = ("dkm", "corollary", "theorem17", "propositions", "theorem61",
               "bijections", "background")

# The smallest (order, max) a suite accepts; below them it raises.  dkm
# compares series from q**1 on; background runs the theta and Appell suites
# (order >= 8) and the classical square-count checks (max >= 8).
_MINIMUMS = {"dkm": (2, 0), "background": (8, 8)}


def suite_minimums(name: str) -> tuple[int, int]:
    """The smallest ``(order, max)`` that suite ``name``, or "all", accepts."""
    names = SUITE_NAMES if name == "all" else (name,)
    floors = [_MINIMUMS.get(n, (1, 0)) for n in names]
    return max(o for o, _ in floors), max(m for _, m in floors)


def suite_main_identity(order: int, maxn: int) -> VerificationReport:
    """Sum side equals product side, coefficient for coefficient."""
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
        ((n, True, c.is_integer) for n, c in enumerate(poch.coeffs()))))
    return VerificationReport("dkm", {"order": order, "max": maxn}, checks)


def suite_corollary(order: int, maxn: int) -> VerificationReport:
    """Per-parity closed forms against the direct signed enumeration."""
    signed, _ = counting.signed_rep_tables(maxn)

    def pairs(parity):
        for n in range(1, maxn + 1):
            if n % 2 == parity:
                f = (counting.signed_formula_even(n) if parity == 0
                     else counting.signed_formula_odd(n))
                yield n, int(signed[n]), f

    checks = [sweep_check("closed_form_even_n", pairs(0)),
              sweep_check("closed_form_odd_n", pairs(1))]
    return VerificationReport("corollary", {"order": order, "max": maxn}, checks)


def suite_residue_classes(order: int, maxn: int) -> VerificationReport:
    """The signed count through Hurwitz class numbers, by residue mod 8."""
    a = product_side_series(maxn + 1)
    r3 = counting.rep_squares_table(3, maxn)
    av = a.coeff  # exact: a nonzero imaginary part fails the comparison

    def split(residues):
        return [n for n in range(1, maxn + 1) if n % 8 in residues]

    checks = [
        sweep_check("a_eq_minus_4H4n_for_1_2_5_6_mod_8",
                    ((n, -4 * hurwitz_H(4 * n), av(n))
                     for n in split((1, 2, 5, 6)))),
        sweep_check("a_eq_6H4n_for_3_mod_8",
                    ((n, 6 * hurwitz_H(4 * n), av(n)) for n in split((3,)))),
        sweep_check("a_eq_24Hn_for_3_mod_8",
                    ((n, 24 * hurwitz_H(n), av(n)) for n in split((3,)))),
        sweep_check("a_zero_for_7_mod_8",
                    ((n, Fraction(0), av(n)) for n in split((7,)))),
        sweep_check("a_eq_r3_for_0_mod_4",
                    ((n, Fraction(int(r3[n])), av(n))
                     for n in range(4, maxn + 1, 4))),
        sweep_check("r3_quarter_for_0_mod_4",
                    ((n, int(r3[n // 4]), int(r3[n]))
                     for n in range(4, maxn + 1, 4))),
    ]
    return VerificationReport("theorem17", {"order": order, "max": maxn}, checks)


def suite_propositions(order: int, maxn: int) -> VerificationReport:
    """The per-residue coefficient evaluations and the n = 0 mod 4 analysis."""
    a = product_side_series(maxn + 1)
    open_total, _, open_even_r = counting.triple_sum_tables(maxn, counting.OPEN)
    sh_total, sh_signed, sh_even_r = counting.triple_sum_tables(
        maxn, counting.SHIFTED)
    r3 = counting.rep_squares_table(3, maxn)
    sig0 = _kernels.sigma_table(maxn, 0)
    av = a.coeff  # exact: a nonzero imaginary part fails the comparison

    checks = [
        sweep_check("open_triples_have_odd_r",
                    ((n, 0, int(open_even_r[n]))
                     for n in range(2, maxn + 1, 4))),
        sweep_check("shifted_triples_have_even_r_1_mod_4",
                    ((n, int(sh_total[n]), int(sh_even_r[n]))
                     for n in range(1, maxn + 1, 4))),
        sweep_check("a_4m2_eq_minus4_sigma0_minus4_open",
                    ((n, -4 * int(sig0[n // 2]) - 4 * int(open_total[n]), av(n))
                     for n in range(2, maxn + 1, 4))),
        sweep_check("a_4m1_eq_minus2_sigma0_minus4_shifted",
                    ((n, -2 * int(sig0[n]) - 4 * int(sh_total[n]), av(n))
                     for n in range(1, maxn + 1, 4))),
        sweep_check("a_8m3_eq_2_sigma0_plus4_shifted",
                    ((n, 2 * int(sig0[n]) + 4 * int(sh_total[n]), av(n))
                     for n in range(3, maxn + 1, 8))),
        sweep_check("a_8m7_eq_2_sigma0_minus4_signed_shifted",
                    ((n, 2 * int(sig0[n]) - 4 * int(sh_signed[n]), av(n))
                     for n in range(7, maxn + 1, 8))),
        sweep_check("a_8m7_vanishes",
                    ((n, 0, av(n)) for n in range(7, maxn + 1, 8))),
        sweep_check("a_4m_eq_r3_eq_r3_quarter",
                    ((n, (int(r3[n]), int(r3[n // 4])), (av(n), av(n)))
                     for n in range(4, maxn + 1, 4))),
        sweep_check("three_squares_parity_bijection",
                    ((n, True, counting.three_squares_parity_check(n))
                     for n in _parity_check_range(maxn))),
    ]
    checks.extend(_prop_residue_zero_series_checks(maxn + 1, a))
    return VerificationReport("propositions", {"order": order, "max": maxn},
                              checks)


def _parity_check_range(maxn: int):
    # every n on a modest prefix, then all multiples of four up to maxn
    seen = set()
    for n in list(range(min(maxn, 200) + 1)) + list(range(0, maxn + 1, 4)):
        if n not in seen:
            seen.add(n)
            yield n


def _prop_residue_zero_series_checks(order: int, a: QSeries) -> list[Check]:
    """The q^{4m} extraction: the only residue-0 products of the half-split
    expansion, their non-negativity, and the corrected six-term expansion."""
    A = Jbar(4, 8, order)
    B = Jbar(0, 8, order)
    C = Jbar(8, 16, order)
    D = Jbar(0, 16, order)
    checks = []

    lhs = product_side_theta(order)
    expansion = (A * C * C - (B * C * C).shift(1).truncate(order)
                 - (A * C * D).shift(2).truncate(order) * 2
                 + (B * C * D).shift(3).truncate(order) * 2
                 + (A * D * D).shift(4).truncate(order)
                 - (B * D * D).shift(5).truncate(order))
    checks.append(series_check("half_split_six_term_expansion",
                               lhs, expansion, order))

    residue0 = A * C * C + (A * D * D).shift(4).truncate(order)
    checks.append(sweep_check(
        "q4m_coefficients_match_residue0_products",
        ((n, residue0.coeff(n), a.coeff(n)) for n in range(0, order, 4))))
    checks.append(sweep_check(
        "q4m_coefficients_nonnegative",
        ((n, True, a.coeff(n).re >= 0) for n in range(0, order, 4))))
    return checks


def suite_triple_counts(order: int, maxn: int) -> VerificationReport:
    """Triple counts against Hurwitz class numbers and divisor counts."""
    open_total, _, _ = counting.triple_sum_tables(maxn, counting.OPEN)
    sh_total, sh_signed, _ = counting.triple_sum_tables(maxn, counting.SHIFTED)
    sig0 = _kernels.sigma_table(maxn, 0)

    checks = [
        sweep_check("open_count_2_mod_4",
                    ((n, hurwitz_H(4 * n) - int(sig0[n // 2]),
                      Fraction(int(open_total[n])))
                     for n in range(2, maxn + 1, 4))),
        sweep_check("shifted_count_1_mod_4",
                    ((n, hurwitz_H(4 * n) - Fraction(int(sig0[n]), 2),
                      Fraction(int(sh_total[n])))
                     for n in range(1, maxn + 1, 4))),
        sweep_check("shifted_count_3_mod_8",
                    ((n, 6 * hurwitz_H(n) - Fraction(int(sig0[n]), 2),
                      Fraction(int(sh_total[n])))
                     for n in range(3, maxn + 1, 8))),
        sweep_check("shifted_signed_7_mod_8",
                    ((n, Fraction(int(sig0[n]), 2),
                      Fraction(int(sh_signed[n])))
                     for n in range(7, maxn + 1, 8))),
    ]
    return VerificationReport("theorem61", {"order": order, "max": maxn}, checks)


def suite_bijections(order: int, maxn: int) -> VerificationReport:
    """Every per-n construction check, aggregated with first-failure n."""
    collected: dict[str, Check] = {}
    order_seen: list[str] = []
    for n in range(1, maxn + 1):
        if n % 4 == 0:
            continue
        for check in bijections.verify_case(n).checks:
            name = check.name
            if name not in collected:
                order_seen.append(name)
                collected[name] = Check.ok(name)
            if collected[name].passed and not check.passed:
                collected[name] = Check.fail(name, n, check.expected,
                                             check.actual)
    checks = [collected[name] for name in order_seen]
    return VerificationReport("bijections", {"order": order, "max": maxn},
                              checks)


def suite_background(order: int, maxn: int) -> VerificationReport:
    """Theta suite, Appell suite, classical checks, Hurwitz doubling, the
    unsigned generating function, and the local-global sweep."""
    checks = []
    checks.extend(verify_theta_suite(order).checks)
    checks.extend(verify_appell_suite(order).checks)
    checks.extend(counting.classical_checks(maxn).checks)
    checks.extend(verify_hurwitz_doubling(maxn).checks)

    signed, unsigned = counting.signed_rep_tables(maxn)
    checks.append(sweep_check(
        "abs_signed_count_eq_unsigned_count",
        ((n, abs(int(signed[n])), int(unsigned[n]))
         for n in range(maxn + 1))))
    checks.append(sweep_check(
        "local_global_criterion",
        ((n, counting.is_three_square_excluded(n), int(unsigned[n]) == 0)
         for n in range(maxn + 1))))
    r3 = counting.rep_squares_table(3, maxn)
    checks.append(sweep_check(
        "unsigned_zero_iff_r3_zero",
        ((n, int(r3[n]) == 0, int(unsigned[n]) == 0)
         for n in range(maxn + 1))))

    b_order = min(order, maxn + 1)
    b_series = rep_count_product_series(b_order)
    checks.append(sweep_check(
        "unsigned_generating_function",
        ((n, int(unsigned[n]), b_series.coeff(n))
         for n in range(b_order))))
    return VerificationReport("background", {"order": order, "max": maxn},
                              checks)


_SUITES = {
    "dkm": suite_main_identity,
    "corollary": suite_corollary,
    "theorem17": suite_residue_classes,
    "propositions": suite_propositions,
    "theorem61": suite_triple_counts,
    "bijections": suite_bijections,
    "background": suite_background,
}


def run_suites(name: str, order: int, maxn: int) -> list[VerificationReport]:
    """Run one named suite, or all of them in a stable order."""
    if name == "all":
        return [fn(order, maxn) for fn in _SUITES.values()]
    if name not in _SUITES:
        raise KeyError(f"unknown suite {name!r}")
    return [_SUITES[name](order, maxn)]
