"""Reduced forms, class numbers, and Hurwitz values against brute force."""

import math
from fractions import Fraction

import numpy as np
import pytest

from qident.quadforms import (HURWITZ_X_LIMIT, REDUCED_D_LIMIT,
                              BadDiscriminantResidue, NotPositiveDefinite,
                              QuadForm, _reduced_forms, class_number_h,
                              enumerate_reduced,
                              enumerate_reduced_bruteforce, hurwitz_H,
                              hurwitz_table, is_reduced,
                              verify_hurwitz_doubling)
from package_calls import package_calls


def test_is_reduced_examples():
    assert is_reduced(QuadForm(1, 1, 1))
    assert not is_reduced(QuadForm(2, -2, 3))
    assert is_reduced(QuadForm(3, -2, 5))


def test_is_reduced_requires_positive_definite():
    with pytest.raises(NotPositiveDefinite):
        is_reduced(QuadForm(1, 5, 1))
    with pytest.raises(NotPositiveDefinite):
        is_reduced(QuadForm(-1, 0, -1))


def test_enumerate_examples():
    assert enumerate_reduced(-3) == [QuadForm(1, 1, 1)]
    assert enumerate_reduced(-20) == [QuadForm(1, 0, 5), QuadForm(2, 2, 3)]
    assert enumerate_reduced(-36) == [QuadForm(1, 0, 9), QuadForm(2, 2, 5),
                                      QuadForm(3, 0, 3)]


def test_enumerate_rejects_bad_discriminants():
    for D in (0, 4, -2, -5, -10):
        with pytest.raises(BadDiscriminantResidue):
            enumerate_reduced(D)


def test_enumeration_invariants():
    for D in range(-3, -250, -1):
        if D % 4 not in (0, 1):
            continue
        forms = enumerate_reduced(D)
        assert len(set(forms)) == len(forms)
        assert forms == sorted(forms)
        for f in forms:
            assert is_reduced(f) and f.discriminant == D


def test_oracle_equivalence_to_200():
    for D in range(-3, -201, -1):
        if D % 4 in (0, 1):
            assert enumerate_reduced(D) == enumerate_reduced_bruteforce(D), D


def test_class_numbers():
    assert class_number_h(-3) == 1
    assert class_number_h(-20) == 2
    assert class_number_h(-12) == 1  # (2,2,2) is imprimitive


def test_hurwitz_values():
    assert hurwitz_H(0) == Fraction(-1, 12)
    assert hurwitz_H(1) == 0 and hurwitz_H(2) == 0
    assert hurwitz_H(3) == Fraction(1, 3)
    assert hurwitz_H(4) == Fraction(1, 2)
    assert hurwitz_H(20) == 2
    assert hurwitz_H(36) == Fraction(5, 2)


def test_hurwitz_vanishes_on_1_2_mod_4():
    for n in range(1, 300):
        if n % 4 in (1, 2):
            assert hurwitz_H(n) == 0


def test_hurwitz_value_lattice():
    # every value is 0, -1/12, or a positive multiple of 1/6
    for n in range(0, 300):
        h = hurwitz_H(n)
        if n == 0:
            assert h == Fraction(-1, 12)
        elif h:
            assert h > 0 and (6 * h).denominator == 1


def test_weighted_forms_only_change_weighted_counts():
    for n in range(3, 200):
        if n % 4 in (1, 2):
            continue
        forms = enumerate_reduced(-n)
        weighted = [f for f in forms
                    if (f.b == 0 and f.a == f.c) or f.a == f.b == f.c]
        assert (hurwitz_H(n) == len(forms)) == (not weighted)


def test_doubling_examples_and_sweep():
    assert hurwitz_H(12) == 4 * hurwitz_H(3)
    assert hurwitz_H(28) == 2 * hurwitz_H(7)
    assert verify_hurwitz_doubling(600).passed


def test_hurwitz_table_matches_oracle():
    table = hurwitz_table(4000)
    assert table.dtype == np.int64 and len(table) == 4001
    assert [Fraction(int(v), 12) for v in table] == [
        hurwitz_H(N) for N in range(4001)]
    table = hurwitz_table(40000)
    assert [Fraction(int(table[N]), 12) for N in range(39000, 40001)] == [
        hurwitz_H(N) for N in range(39000, 40001)]


def test_hurwitz_table_matches_a_plain_form_loop():
    # a third route beside hurwitz_H's divisor loop: every (a, b, c)
    X = 4000
    want = [0] * (X + 1)
    want[0] = -1
    a = 1
    while 3 * a * a <= X:
        for b in range(-a, a + 1):
            c = a
            while 4 * a * c - b * b <= X:
                f = QuadForm(a, b, c)
                if is_reduced(f):
                    want[-f.discriminant] += (6 if b == 0 and c == a else
                                              4 if b == a == c else 12)
                c += 1
        a += 1
    assert hurwitz_table(X).tolist() == want


def test_hurwitz_table_every_small_size():
    # the weighted starts (a,0,a) and (a,a,a) sit at the top of some tables
    for X in range(40):
        assert hurwitz_table(X).tolist() == [12 * hurwitz_H(N)
                                             for N in range(X + 1)], X


def test_hurwitz_table_guards():
    with pytest.raises(ValueError):
        hurwitz_table(-1)
    # below the limit every entry is at most 4X + 12*isqrt(X) < 2**63; from
    # it on the table is refused before any allocation
    top = HURWITZ_X_LIMIT - 1
    assert 4 * top + 12 * math.isqrt(top) < 2 ** 63
    for X in (HURWITZ_X_LIMIT, 2 ** 62):
        with pytest.raises(OverflowError):
            hurwitz_table(X)


def test_enumerate_across_blocks_matches_the_table():
    from qident import _kernels

    D = -400_004
    amax = math.isqrt(-D // 3)
    # cells of the table's (a, b) grid, b = D mod 2 and |b| <= a <= amax:
    # its walk crosses a block boundary below -D
    cells = sum(a + 1 - (a + D) % 2 for a in range(1, amax + 1))
    assert cells > _kernels.BLOCK
    forms = enumerate_reduced(D)
    assert forms == sorted(set(forms)) and forms[-1].a <= amax
    assert all(is_reduced(f) and f.discriminant == D for f in forms)
    weighted = sum(6 if f.b == 0 and f.a == f.c else
                   4 if f.a == f.b == f.c else 12 for f in forms)
    assert weighted == hurwitz_table(-D)[-D]


def test_enumerate_overflow_guard():
    from qident.quadforms import REDUCED_D_LIMIT

    # refused before any allocation, just past the bound
    with pytest.raises(OverflowError):
        enumerate_reduced(-REDUCED_D_LIMIT)


def test_reduced_form_bound_is_the_progression_bound():
    # quadforms and oracles copy the bound instead of reading _kernels; the
    # per-N forms, the per-n triples and the window lane share one bound
    from qident import _kernels, counting
    from qident.quadforms import REDUCED_D_LIMIT

    assert REDUCED_D_LIMIT == _kernels.PROGRESSION_LIMIT \
        == counting.TRIPLE_N_LIMIT


def test_enumerate_memory_is_bounded():
    import tracemalloc

    tracemalloc.start()
    try:
        forms = enumerate_reduced(-1_600_008)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert forms and all(f.discriminant == -1_600_008 for f in forms)
    assert peak < 8 * 2 ** 20


def test_quad_form_is_an_immutable_ordered_tuple():
    f = QuadForm(2, -1, 3)
    for name in ("a", "b", "c", "d"):
        with pytest.raises(AttributeError):
            setattr(f, name, 5)
    forms = [QuadForm(2, 1, 3), QuadForm(1, 0, 5), QuadForm(2, -1, 3),
             QuadForm(1, 1, 6), QuadForm(2, -1, 4)]
    assert sorted(forms) == sorted(forms, key=lambda g: (g.a, g.b, g.c))
    assert sorted(forms)[0] == QuadForm(1, 0, 5) < QuadForm(1, 1, 6)
    assert f == QuadForm(2, -1, 3) and f != QuadForm(2, 1, 3)
    assert hash(f) == hash(QuadForm(2, -1, 3))
    assert {f: 1, QuadForm(2, 1, 3): 2}[QuadForm(2, -1, 3)] == 1
    assert len({f, QuadForm(2, -1, 3), QuadForm(2, 1, 3)}) == 2
    assert repr(f) == "QuadForm(a=2, b=-1, c=3)"
    assert str(f) == f"{f}" == "(2,-1,3)"
    # the one difference a tuple makes: it equals its plain tuple
    assert f == (2, -1, 3)
    forms = enumerate_reduced(-4 * 105)
    assert forms and all(type(g) is QuadForm for g in forms)


def test_per_n_class_numbers_share_no_code_with_the_table():
    # the per-N route and the batch table are two independent routes to
    # 12*H(N): no package function runs in both
    per_n = package_calls(lambda: [hurwitz_H(N) for N in range(61)])
    table = package_calls(hurwitz_table, 60)
    # the recorder sees each route's enumeration
    assert ("quadforms.py", _reduced_forms.__code__.co_firstlineno,
            "_reduced_forms") in per_n
    assert any(name == "_pair_blocks" for _, _, name in table)
    assert not per_n & table, sorted(per_n & table)


def _weighted_form_count(N):
    """12*H(N) from the listed forms: weight 6 for (a,0,a), 4 for (a,a,a)
    and 12 for every other reduced form of discriminant -N."""
    return sum(6 if b == 0 and a == c else 4 if a == b == c else 12
               for a, b, c in enumerate_reduced(-N))


def test_per_n_class_numbers_are_the_weighted_form_lists():
    # hurwitz_H counts the forms with b >= 0 and doubles the mirrored ones
    # without listing them: pin it to the list of every form
    ns = [N for N in range(3, 4001) if N % 4 in (0, 3)]
    ns += [m * a * a for a in range(1, 301) for m in (3, 4)]
    ns += [999_999, 1_000_000, 1_000_003, 1_000_004]
    for N in ns:
        assert 12 * hurwitz_H(N) == _weighted_form_count(N), N
    # both refuse the same N
    with pytest.raises(OverflowError):
        hurwitz_H(REDUCED_D_LIMIT)
    with pytest.raises(OverflowError):
        enumerate_reduced(-REDUCED_D_LIMIT)


def test_per_n_class_numbers_equal_the_table_to_8000():
    X = 8000
    assert [12 * hurwitz_H(N) for N in range(X + 1)] == \
        hurwitz_table(X).tolist()
