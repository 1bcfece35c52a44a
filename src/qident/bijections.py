"""Explicit maps from solution triples onto reduced quadratic forms.

Solution triples of (2s - chi + r)(2t - chi + r) = n + r^2 (chi = 1 for odd
n, 0 for even n) are classified by the ordering of (r, 2s-chi, 2t-chi) into
six categories -- the first three with non-strict, the last three with
strict comparisons -- plus a distinguished all-equal triple that exists
exactly when n = 3k^2.  Each residue class of n gets its own six linear
maps onto reduced forms of discriminant -4n (or -n for odd r when
n = 3 mod 4), and ``verify_case`` machine-checks reducedness, discriminants,
category bookkeeping, injectivity, preimage multiplicities and the
resulting count identities.

Everything here works one n at a time and is the oracle behind
``qident bijection``; ``bijection_windows`` runs the same checks over
windows of consecutive n for the ``bijections`` suite, which compares the
two on a prefix of n.  The two share no enumeration: the triples come from
the loop ``oracles.iter_solution_triples`` here and the forms from
``enumerate_reduced``'s own loop, both from ``_kernels.ProgressionCursor``
in the lane.  The module imports only the per-n layer (``oracles``,
``quadforms``, ``report``), so ``qident bijection`` runs without numpy.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .oracles import OPEN, SHIFTED, iter_solution_triples, sigma
from .quadforms import QuadForm, enumerate_reduced, hurwitz_H, is_reduced
from .report import Check, VerificationReport


class NotASolution(ValueError):
    """The triple does not satisfy its shape equation."""


class CaseMismatch(ValueError):
    """The triple's shape or parity does not fit the residue class of n."""


class UnclassifiableForm(ValueError):
    """A reduced form fit none of the case's categories (must never fire)."""


ALL_EQUAL = 0


class Triple(NamedTuple):
    """A solution triple (r, s, t) of n in its shape, a named tuple as
    ``QuadForm`` is, so ``qident bijection`` loads no dataclasses."""

    r: int
    s: int
    t: int
    n: int
    shape: str

    def factors(self) -> tuple[int, int]:
        chi = 1 if self.shape == SHIFTED else 0
        return 2 * self.s - chi + self.r, 2 * self.t - chi + self.r

    def is_solution(self) -> bool:
        u, v = self.factors()
        return (min(self.r, self.s, self.t) >= 1
                and u * v == self.n + self.r * self.r)


def solution_triples(n: int) -> list[Triple]:
    """All solution triples for the shape that n's residue class uses."""
    shape = OPEN if n % 4 == 2 else SHIFTED
    if n % 4 == 0:
        raise CaseMismatch("n = 0 mod 4 has no triple correspondence")
    return [Triple(*rst, n, shape) for rst in iter_solution_triples(n, shape)]


# ---------------------------------------------------------------------------
# triple categories
# ---------------------------------------------------------------------------


def classify_triple(tr: Triple) -> int:
    """Category 1..6 by the ordering of (r, 2s-chi, 2t-chi); ALL_EQUAL (0)
    when the three coincide.  Exactly one category matches otherwise."""
    if not tr.is_solution():
        raise NotASolution(f"{tr} fails its shape equation")
    chi = 1 if tr.shape == SHIFTED else 0
    r, u, v = tr.r, 2 * tr.s - chi, 2 * tr.t - chi
    if r == u == v:
        return ALL_EQUAL
    conditions = (
        r <= u <= v,
        v <= r <= u,
        u <= v <= r,
        u < r < v,
        v < u < r,
        r < v < u,
    )
    hits = [i + 1 for i, ok in enumerate(conditions) if ok]
    if len(hits) != 1:
        raise NotASolution(f"{tr} matched categories {hits}")
    return hits[0]


def case_of(n: int, r: int) -> str:
    """Which construction applies: '1', '2', '3a', '3b', '4a' (even r) or
    '4b' (odd r)."""
    if n % 4 == 2:
        return "1"
    if n % 4 == 1:
        return "2"
    if n % 8 == 3:
        return "3a" if r % 2 == 0 else "3b"
    if n % 8 == 7:
        return "4a" if r % 2 == 0 else "4b"
    raise CaseMismatch(f"n = {n} has no case")


# Triple category -> form category, per the case's printed category list.
FORM_CATEGORY_OF_TRIPLE = {
    "1": {1: 1, 2: 2, 3: 3, 4: 4, 5: 5, 6: 6},
    "2": {1: 1, 2: 2, 3: 3, 4: 5, 5: 6, 6: 4},
    "3a": {1: 1, 2: 2, 3: 3, 4: 4, 5: 5, 6: 6},
    "4a": {1: 1, 2: 2, 3: 3, 4: 4, 5: 5, 6: 6},
}


# ---------------------------------------------------------------------------
# the maps
# ---------------------------------------------------------------------------


def _open_map(cat, r, s, t):
    return {
        1: (2 * s + r, 2 * r, 2 * t + r),
        2: (2 * t + r, 4 * t, 2 * t + 2 * s),
        3: (2 * t + 2 * s, 4 * s, 2 * s + r),
        4: (2 * s + r, -4 * s, 2 * t + 2 * s),
        5: (2 * t + 2 * s, -4 * t, 2 * t + r),
        6: (2 * t + r, -2 * r, 2 * s + r),
    }[cat]


def _shifted_map(cat, r, s, t):
    return {
        1: (2 * s - 1 + r, 2 * r, 2 * t - 1 + r),
        2: (2 * t - 1 + r, 4 * t - 2, 2 * t + 2 * s - 2),
        3: (2 * t + 2 * s - 2, 4 * s - 2, 2 * s - 1 + r),
        4: (2 * s - 1 + r, 2 - 4 * s, 2 * t + 2 * s - 2),
        5: (2 * t + 2 * s - 2, 2 - 4 * t, 2 * t - 1 + r),
        6: (2 * t - 1 + r, -2 * r, 2 * s - 1 + r),
    }[cat]


def _half_map(cat, r, s, t):
    # category 5 carries c = t + h: the mirror of category 2, which is the
    # only choice whose discriminant is -n on all of category 5
    h = (r - 1) // 2
    return {
        1: (s + h, r, t + h),
        2: (t + h, 2 * t - 1, s + t - 1),
        3: (t + s - 1, 2 * s - 1, s + h),
        4: (s + h, 1 - 2 * s, s + t - 1),
        5: (t + s - 1, 1 - 2 * t, t + h),
        6: (t + h, -r, s + h),
    }[cat]


def _open_inverse(cat, a, b, c):
    return {
        1: lambda: (b // 2, (a - b // 2) // 2, (c - b // 2) // 2),
        2: lambda: (a - b // 2, (c - b // 2) // 2, b // 4),
        3: lambda: (c - b // 2, b // 4, (a - b // 2) // 2),
        4: lambda: (a + b // 2, -b // 4, (c + b // 2) // 2),
        5: lambda: (c + b // 2, (a + b // 2) // 2, -b // 4),
        6: lambda: (-b // 2, (c + b // 2) // 2, (a + b // 2) // 2),
    }[cat]()


def _shifted_inverse(cat, a, b, c):
    return {
        1: lambda: (b // 2, (a - b // 2 + 1) // 2, (c - b // 2 + 1) // 2),
        2: lambda: (a - (b + 2) // 2 + 1, (c - (b + 2) // 2 + 2) // 2,
                    (b + 2) // 4),
        3: lambda: (c - (b + 2) // 2 + 1, (b + 2) // 4,
                    (a - (b + 2) // 2 + 2) // 2),
        4: lambda: (a - (2 - b) // 2 + 1, (2 - b) // 4,
                    (c - (2 - b) // 2 + 2) // 2),
        5: lambda: (c - (2 - b) // 2 + 1, (a - (2 - b) // 2 + 2) // 2,
                    (2 - b) // 4),
        6: lambda: (-b // 2, (c + b // 2 + 1) // 2, (a + b // 2 + 1) // 2),
    }[cat]()


def _half_inverse(cat, a, b, c):
    return {
        1: lambda: (b, a - (b - 1) // 2, c - (b - 1) // 2),
        2: lambda: (2 * (a - (b + 1) // 2) + 1, c - (b + 1) // 2 + 1,
                    (b + 1) // 2),
        3: lambda: (2 * (c - (b + 1) // 2) + 1, (b + 1) // 2,
                    a - (b + 1) // 2 + 1),
        4: lambda: (2 * (a - (1 - b) // 2) + 1, (1 - b) // 2,
                    c - (1 - b) // 2 + 1),
        5: lambda: (2 * (c - (1 - b) // 2) + 1, a - (1 - b) // 2 + 1,
                    (1 - b) // 2),
        6: lambda: (-b, c - (-b - 1) // 2, a - (-b - 1) // 2),
    }[cat]()


def map_triple(tr: Triple) -> QuadForm:
    """The case's reduced form of discriminant -4n (or -n for odd r in the
    n = 3 mod 4 cases)."""
    return _map_classified(tr, classify_triple(tr))


def _map_classified(tr: Triple, cat: int) -> QuadForm:
    """``map_triple`` for a triple already classified as ``cat``."""
    case = case_of(tr.n, tr.r)
    r, s, t = tr.r, tr.s, tr.t
    if case == "1":
        if tr.shape != OPEN:
            raise CaseMismatch("n = 2 mod 4 uses the open shape")
        abc = _open_map(cat if cat else 1, r, s, t)
    elif case in ("2", "3a", "4a"):
        if tr.shape != SHIFTED:
            raise CaseMismatch("odd n uses the shifted shape")
        abc = _shifted_map(cat if cat else 1, r, s, t)
    else:  # 3b / 4b
        if tr.shape != SHIFTED:
            raise CaseMismatch("odd n uses the shifted shape")
        if cat == ALL_EQUAL:
            # r = 2s-1 = 2t-1 maps straight to the (z,z,z) form, z = r
            return QuadForm(r, r, r)
        abc = _half_map(cat, r, s, t)
    return QuadForm(*abc)


def invert_map(case: str, cat: int, f: QuadForm) -> tuple[int, int, int]:
    """Solve the case's category-``cat`` map for (r, s, t)."""
    if case == "1":
        return _open_inverse(cat, f.a, f.b, f.c)
    if case in ("2", "3a", "4a"):
        return _shifted_inverse(cat, f.a, f.b, f.c)
    return _half_inverse(cat, f.a, f.b, f.c)


# ---------------------------------------------------------------------------
# form categories
# ---------------------------------------------------------------------------


def classify_form(f: QuadForm, case: str, n: int) -> int:
    """Index of the form among the case's divisibility categories.

    Cases '1' and '2' list seven categories (b = 0 last); '3a' (also used
    for the even-r part of n = 7 mod 8) lists eight, with the doubled
    forms at 7 and b = 0 at 8.
    """
    a, b, c = f.a, f.b, f.c
    if case == "1":
        if f.discriminant != -4 * n:
            raise CaseMismatch("wrong discriminant for case 1")
        if b == 0:
            return 7
        if b % 4 == 0:
            if b > 0:
                return 2 if c % 2 == 0 else 3
            return 4 if c % 2 == 0 else 5
        if a % 2 == 1 and c % 2 == 1:
            return 1 if b > 0 else 6
    elif case == "2":
        if f.discriminant != -4 * n:
            raise CaseMismatch("wrong discriminant for case 2")
        if b == 0:
            return 7
        if b % 4 == 0:
            if a % 2 == 1 and c % 2 == 1:
                return 1 if b > 0 else 4
        elif b % 2 == 0:
            if a % 2 == 1 and c % 2 == 0:
                return 2 if b > 0 else 5
            if a % 2 == 0 and c % 2 == 1:
                return 3 if b > 0 else 6
    elif case in ("3a", "4a"):
        if f.discriminant != -4 * n:
            raise CaseMismatch("wrong discriminant for case 3a")
        if b == 0:
            return 8
        if b % 4 == 0:
            if a % 2 == 1 and c % 2 == 1:
                return 1 if b > 0 else 6
        elif b % 2 == 0:
            if a % 2 == 0 and c % 2 == 0:
                return 7
            if a % 2 == 1 and c % 4 == 0:
                return 2 if b > 0 else 4
            if a % 4 == 0 and c % 2 == 1:
                return 3 if b > 0 else 5
    else:
        raise ValueError(f"no form category list for case {case!r}")
    raise UnclassifiableForm(f"{f} fits no category of case {case}")


def case4_triple_category(tr: Triple) -> int:
    """The four-way split used for n = 7 mod 8: 1 for even r, otherwise by
    which of the factors 2s-1+r, 2t-1+r are divisible by 4."""
    if tr.n % 8 != 7:
        raise CaseMismatch("only defined for n = 7 mod 8")
    if not tr.is_solution():
        raise NotASolution(str(tr))
    if tr.r % 2 == 0:
        return 1
    u, v = tr.factors()
    if u % 4 == 0 and v % 4 == 0:
        return 2
    if u % 4 != 0 and v % 4 == 0:
        return 3
    if v % 4 != 0 and u % 4 == 0:
        return 4
    raise NotASolution(f"{tr}: neither factor divisible by 4")


# ---------------------------------------------------------------------------
# per-case verification
# ---------------------------------------------------------------------------


def _verify_disc_4n_part(n, triples, case, checks):
    """Shared machinery: triples mapped onto categories 1-6 of the
    discriminant -4n list must be a category-respecting bijection."""
    forms = enumerate_reduced(-4 * n)
    expected_cat = FORM_CATEGORY_OF_TRIPLE[case]

    images = {}
    # each keeps the first offending triple, as every sweep does
    bad_reduced = bad_disc = bad_cat = bad_inverse = None
    for tr in triples:
        tcat = classify_triple(tr)
        f = _map_classified(tr, tcat)
        if bad_reduced is None and not is_reduced(f):
            bad_reduced = (tr, f)
        if f.discriminant != -4 * n:
            # not classified; it still counts as an image below
            if bad_disc is None:
                bad_disc = (tr, f)
        else:
            fcat = classify_form(f, case, n)
            if bad_cat is None and fcat != expected_cat[tcat]:
                bad_cat = (tr, f, tcat, fcat)
        if (bad_inverse is None
                and invert_map(case, tcat, f) != (tr.r, tr.s, tr.t)):
            bad_inverse = (tr, f)
        images.setdefault(f, []).append(tr)

    checks.append(Check.ok("image_reduced") if bad_reduced is None else
                  Check.fail("image_reduced", n, "reduced", f"{bad_reduced}"))
    checks.append(Check.ok("image_discriminant") if bad_disc is None else
                  Check.fail("image_discriminant", n, -4 * n, f"{bad_disc}"))
    checks.append(Check.ok("category_match") if bad_cat is None else
                  Check.fail("category_match", n, "matching category",
                             f"{bad_cat}"))
    checks.append(Check.ok("map_inverse_roundtrip") if bad_inverse is None else
                  Check.fail("map_inverse_roundtrip", n, "roundtrip",
                             f"{bad_inverse}"))

    cat_of = {f: classify_form(f, case, n) for f in forms}
    onto = all(len(images.get(f, [])) == 1
               for f in forms if cat_of[f] <= 6)
    # an image missing from the enumeration fails like one outside cats 1-6
    into = all(cat_of.get(f, 7) <= 6 for f in images)
    checks.append(Check.ok("preimage_exactly_one") if onto and into else
                  Check.fail("preimage_exactly_one", n,
                             "bijection onto cats 1-6",
                             f"onto={onto} into={into}"))
    return forms, cat_of


def _b0_expected(n: int) -> Fraction:
    root = math.isqrt(n)
    return Fraction(sigma(0, n) + (1 if root * root == n else 0), 2)


def verify_case(n: int) -> VerificationReport:
    """Machine-check the triple-to-form construction for one n, with the
    class numbers H(4n) and H(n) from the per-N ``hurwitz_H``."""
    if n < 1 or n % 4 == 0:
        raise CaseMismatch("n must be positive and not 0 mod 4")
    checks: list[Check] = []
    triples = solution_triples(n)
    h4n = hurwitz_H(4 * n)
    hn = hurwitz_H(n)
    sig0 = sigma(0, n)

    if n % 4 == 2:
        if any(tr.r % 2 == 0 for tr in triples):
            checks.append(Check.fail("open_r_odd", n, "all r odd",
                                     "even r seen"))
        else:
            checks.append(Check.ok("open_r_odd"))
        forms, cat_of = _verify_disc_4n_part(n, triples, "1", checks)
        b0 = sum(1 for f in forms if cat_of[f] == 7)
        checks.append(Check.ok("b0_count") if b0 == sigma(0, n // 2) else
                      Check.fail("b0_count", n, sigma(0, n // 2), b0))
        count_ok = len(triples) == h4n - sigma(0, n // 2)
        checks.append(Check.ok("count_identity") if count_ok else
                      Check.fail("count_identity", n, h4n - sigma(0, n // 2),
                                 len(triples)))

    elif n % 4 == 1:
        if any(tr.r % 2 for tr in triples):
            checks.append(Check.fail("shifted_r_even", n, "all r even",
                                     "odd r seen"))
        else:
            checks.append(Check.ok("shifted_r_even"))
        forms, cat_of = _verify_disc_4n_part(n, triples, "2", checks)
        b0 = sum(1 for f in forms if cat_of[f] == 7)
        checks.append(Check.ok("b0_count") if b0 == _b0_expected(n) else
                      Check.fail("b0_count", n, _b0_expected(n), b0))
        count_ok = len(triples) == h4n - Fraction(sig0, 2)
        checks.append(Check.ok("count_identity") if count_ok else
                      Check.fail("count_identity", n, h4n - Fraction(sig0, 2),
                                 len(triples)))

    elif n % 8 == 3:
        even = [tr for tr in triples if tr.r % 2 == 0]
        odd = [tr for tr in triples if tr.r % 2 == 1]
        forms, cat_of = _verify_disc_4n_part(n, even, "3a", checks)
        forms_n = enumerate_reduced(-n)
        _check_doubled_forms(n, forms, cat_of, forms_n, checks)
        b0 = sum(1 for f in forms if cat_of[f] == 8)
        checks.append(Check.ok("b0_count") if b0 == Fraction(sig0, 2) else
                      Check.fail("b0_count", n, Fraction(sig0, 2), b0))
        _check_half_preimages(n, odd, forms_n, checks)
        count_ok = len(triples) == 6 * hn - Fraction(sig0, 2)
        checks.append(Check.ok("count_identity") if count_ok else
                      Check.fail("count_identity", n,
                                 6 * hn - Fraction(sig0, 2), len(triples)))

    else:  # n = 7 mod 8
        even = [tr for tr in triples if tr.r % 2 == 0]
        odd = [tr for tr in triples if tr.r % 2 == 1]
        forms, cat_of = _verify_disc_4n_part(n, even, "4a", checks)
        forms_n = enumerate_reduced(-n)
        _check_doubled_forms(n, forms, cat_of, forms_n, checks)
        b0 = sum(1 for f in forms if cat_of[f] == 8)
        checks.append(Check.ok("b0_count") if b0 == Fraction(sig0, 2) else
                      Check.fail("b0_count", n, Fraction(sig0, 2), b0))
        odd_images = _check_half_preimages(n, odd, forms_n, checks)

        cat4 = [case4_triple_category(tr) for tr in triples]
        sizes = {1: 0, 2: 0, 3: 0, 4: 0}
        for c in cat4:
            sizes[c] += 1
        size_ok = (sizes[2] == sizes[3] == sizes[4] == hn
                   and sizes[1] == hn - Fraction(sig0, 2))
        checks.append(Check.ok("case4_category_sizes") if size_ok else
                      Check.fail("case4_category_sizes", n,
                                 f"[{hn - Fraction(sig0, 2)},{hn},{hn},{hn}]",
                                 str([sizes[i] for i in (1, 2, 3, 4)])))
        # each odd-r image must collect one preimage per category 2, 3, 4
        per_form = {}
        odd_cat4 = (c for tr, c in zip(triples, cat4) if tr.r % 2 == 1)
        for f, c in zip(odd_images, odd_cat4):
            per_form.setdefault(f, set()).add(c)
        cats_ok = all(v == {2, 3, 4} for v in per_form.values())
        checks.append(Check.ok("case4_one_preimage_per_category")
                      if cats_ok else
                      Check.fail("case4_one_preimage_per_category", n,
                                 "{2,3,4}", "mismatch"))
        signed = sum(1 if (tr.r + tr.s + tr.t) % 2 == 0 else -1
                     for tr in triples)
        checks.append(Check.ok("case4_signed_sum")
                      if signed == Fraction(sig0, 2) else
                      Check.fail("case4_signed_sum", n, Fraction(sig0, 2),
                                 signed))

    return VerificationReport("bijection_case", {"n": n}, checks)


def _check_doubled_forms(n, forms, cat_of, expected, checks):
    """Category 7 of the 3a list is exactly twice the reduced forms of
    discriminant -n, ``expected``."""
    doubled = sorted(QuadForm(f.a // 2, f.b // 2, f.c // 2)
                     for f in forms if cat_of[f] == 7)
    halved_ok = all(is_reduced(g) and g.discriminant == -n for g in doubled)
    ok = halved_ok and doubled == expected
    checks.append(Check.ok("doubled_forms_count") if ok else
                  Check.fail("doubled_forms_count", n, len(expected),
                             len(doubled)))


def _check_half_preimages(n, odd_triples, forms, checks):
    """Odd-r triples map onto ``forms``, the reduced forms of discriminant
    -n, with multiplicity three, except the all-equal form (z,z,z) which
    gets one; positive-b images come from categories 1-3, negative from
    4-6.  Returns the image of each triple."""
    cats = [classify_triple(tr) for tr in odd_triples]
    images = [_map_classified(tr, cat) for tr, cat in zip(odd_triples, cats)]
    image_count = {f: 0 for f in forms}
    bad = None
    for tr, cat, f in zip(odd_triples, cats, images):
        if not is_reduced(f) or f.discriminant != -n:
            bad = (tr, f, "not a reduced -n form")
            break
        if cat != ALL_EQUAL:
            if (f.b > 0) != (cat in (1, 2, 3)):
                bad = (tr, f, f"sign of b vs category {cat}")
                break
            if invert_map("3b", cat, f) != (tr.r, tr.s, tr.t):
                bad = (tr, f, "inverse roundtrip")
                break
        if f not in image_count:
            bad = (tr, f, "missing from the -n enumeration")
            break
        image_count[f] += 1
    if bad is None:
        for f, k in image_count.items():
            expected = 1 if f.a == f.b == f.c else 3
            if k != expected:
                bad = (f, k, f"expected {expected} preimages")
                break
    checks.append(Check.ok("odd_r_preimages") if bad is None else
                  Check.fail("odd_r_preimages", n, "multiplicity 3 (1 at zzz)",
                             str(bad)))
    return images
