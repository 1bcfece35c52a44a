"""Triple classification, the six maps per case, and preimage bookkeeping."""

import itertools

import pytest

from qident import counting as C
from qident.bijections import (ALL_EQUAL, CaseMismatch, NotASolution, Triple,
                               case4_triple_category, case_of, classify_form,
                               classify_triple, invert_map, map_triple,
                               solution_triples, verify_case)
from qident.quadforms import QuadForm, enumerate_reduced


def test_classify_examples():
    assert classify_triple(Triple(2, 1, 1, 5, "shifted")) == 3
    assert classify_triple(Triple(1, 1, 3, 11, "shifted")) == 1
    assert classify_triple(Triple(5, 1, 1, 11, "shifted")) == 3
    assert classify_triple(Triple(1, 1, 1, 3, "shifted")) == ALL_EQUAL


def test_classify_rejects_non_solutions():
    with pytest.raises(NotASolution):
        classify_triple(Triple(1, 1, 1, 10, "shifted"))


def test_map_examples():
    assert map_triple(Triple(2, 1, 1, 5, "shifted")) == QuadForm(2, 2, 3)
    assert map_triple(Triple(1, 2, 1, 14, "open")) == QuadForm(3, -2, 5)
    for tr in (Triple(1, 1, 3, 11, "shifted"), Triple(1, 3, 1, 11, "shifted"),
               Triple(5, 1, 1, 11, "shifted")):
        assert map_triple(tr) == QuadForm(1, 1, 3)
    assert map_triple(Triple(1, 1, 1, 3, "shifted")) == QuadForm(1, 1, 1)


def test_all_equal_image_has_right_discriminant():
    # n = 3k^2 instances: the all-equal triple maps onto (k, k, k)
    for n, k in ((3, 1), (27, 3), (75, 5), (147, 7)):
        tr = Triple(k, (k + 1) // 2, (k + 1) // 2, n, "shifted")
        assert classify_triple(tr) == ALL_EQUAL
        f = map_triple(tr)
        assert f == QuadForm(k, k, k) and f.discriminant == -n


def test_case_dispatch():
    assert case_of(14, 1) == "1"
    assert case_of(5, 2) == "2"
    assert case_of(11, 2) == "3a"
    assert case_of(11, 1) == "3b"
    assert case_of(7, 4) == "4a"
    assert case_of(7, 3) == "4b"
    with pytest.raises(CaseMismatch):
        case_of(8, 1)


def test_shape_mismatch_is_error():
    with pytest.raises(CaseMismatch):
        solution_triples(8)


def test_classify_form_examples():
    assert classify_form(QuadForm(1, 0, 14), "1", 14) == 7
    assert classify_form(QuadForm(3, 2, 5), "1", 14) == 1
    assert classify_form(QuadForm(3, -2, 5), "1", 14) == 6
    assert classify_form(QuadForm(2, 2, 6), "3a", 11) == 7
    assert classify_form(QuadForm(3, 0, 3), "2", 9) == 7


def test_classify_form_wrong_discriminant():
    with pytest.raises(CaseMismatch):
        classify_form(QuadForm(1, 0, 5), "1", 14)


def test_every_form_classifies():
    # exhaustiveness of the category lists over real discriminants
    for n in range(1, 400):
        if n % 4 == 0:
            continue
        case = "1" if n % 4 == 2 else ("2" if n % 4 == 1 else "3a")
        for f in enumerate_reduced(-4 * n):
            assert 1 <= classify_form(f, case, n) <= 8


def test_case4_categories_at_7():
    sizes = {}
    for tr in solution_triples(7):
        cat = case4_triple_category(tr)
        sizes[cat] = sizes.get(cat, 0) + 1
    assert sizes == {2: 1, 3: 1, 4: 1}


def test_preimage_multiplicity_at_11():
    images = {}
    for tr in solution_triples(11):
        if tr.r % 2:
            images.setdefault(map_triple(tr), 0)
            images[map_triple(tr)] += 1
    assert images == {QuadForm(1, 1, 3): 3}


def test_map_invert_roundtrip_sweep():
    for n in range(1, 300):
        if n % 4 == 0:
            continue
        for tr in solution_triples(n):
            cat = classify_triple(tr)
            if cat == ALL_EQUAL:
                continue
            case = case_of(n, tr.r)
            back = invert_map(case, cat, map_triple(tr))
            assert back == (tr.r, tr.s, tr.t), (n, tr, case, cat)


def test_verify_case_examples():
    for n in (7, 9, 3, 5, 14, 11, 23, 27, 49):
        report = verify_case(n)
        assert report.passed, (n, report.failures)


def test_verify_case_sweep():
    for n in range(1, 260):
        if n % 4 == 0:
            continue
        assert verify_case(n).passed, n


def test_square_n_case2_weight():
    # n = 9 exercises the weight-1/2 form (3,0,3) of discriminant -36
    report = verify_case(9)
    assert report.passed
    assert len(solution_triples(9)) == 1


def test_disc_4n_part_reports_the_first_offending_triple(monkeypatch):
    # the first two triples of n = 14 map to (3, 2, 5) and (3, -2, 5);
    # swapped to (5, -2, 3) and (5, 2, 3) they keep the discriminant and a
    # category, but fail reducedness, category and roundtrip
    import qident.bijections as B

    first, second = solution_triples(14)[:2]
    real = B._map_classified

    def swapped(tr, cat):
        f = real(tr, cat)
        return QuadForm(f.c, -f.b, f.a) if tr in (first, second) else f

    monkeypatch.setattr(B, "_map_classified", swapped)
    failures = {c.name: c for c in verify_case(14).failures}
    for name in ("image_reduced", "category_match", "map_inverse_roundtrip"):
        assert repr(first) in failures[name].actual, name
        assert repr(second) not in failures[name].actual, name


def test_dropped_triple_fails_bijections_and_corollary(monkeypatch):
    import qident.bijections as B
    from qident.verify import run_suites

    real = C.iter_solution_triples

    def one_short(n, shape):
        return itertools.islice(real(n, shape), 1 if n == 21 else 0, None)

    monkeypatch.setattr(C, "iter_solution_triples", one_short)
    monkeypatch.setattr(B, "iter_solution_triples", one_short)
    (bij,) = run_suites("bijections", 32, 60)
    assert bij.failures and {c.locus for c in bij.failures} == {21}
    (cor,) = run_suites("corollary", 32, 60)
    assert [(c.name, c.locus) for c in cor.failures] == [
        ("closed_form_odd_n", 21)]


@pytest.mark.parametrize("dropped, check", [
    (QuadForm(1, 0, 21), "b0_count"),
    (QuadForm(3, 0, 7), "b0_count"),
    (QuadForm(2, 2, 11), "preimage_exactly_one"),
    (QuadForm(5, 4, 5), "preimage_exactly_one"),
])
def test_missing_reduced_form_fails_a_check(monkeypatch, dropped, check):
    # an image outside the enumeration is a failed check, not a KeyError
    import qident.bijections as B
    from qident.verify import run_suites

    real = B.enumerate_reduced

    def without(D):
        return [f for f in real(D) if D != -84 or f != dropped]

    monkeypatch.setattr(B, "enumerate_reduced", without)
    assert check in {c.name for c in verify_case(21).failures}
    (report,) = run_suites("bijections", 32, 60)
    assert check in {c.name for c in report.failures}
    assert {c.locus for c in report.failures} == {21}


def test_missing_minus_n_form_fails_a_check(monkeypatch):
    # -n is enumerated once for n = 3 mod 4 and read by both of its checks
    import qident.bijections as B

    real = B.enumerate_reduced
    calls = []

    def without(D):
        calls.append(D)
        return [f for f in real(D) if D != -11]

    monkeypatch.setattr(B, "enumerate_reduced", without)
    report = verify_case(11)
    assert sorted(calls) == [-44, -11]
    assert {c.name for c in report.failures} == {"doubled_forms_count",
                                                 "odd_r_preimages"}
