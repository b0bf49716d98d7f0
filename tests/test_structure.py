"""Palindrome catalog: printed family examples, straddling/bordering
words, length sets, classification."""

import pytest

from kbona.counting import FormulaMode, border_max_length
from kbona.palindromes import distinct_factors, enumerate_maximal, is_palindrome
from kbona.structure import (
    PalFamily,
    StraddlingPair,
    allowed_lengths,
    catalog_elements,
    classify_palindrome,
    length_set,
    maximal_bordering_word,
    maximal_straddling_words,
)
from kbona.words import DomainError, Word, shift_add, word


def plains(elements):
    return {w.to_plain() for w, _ in elements}


def test_printed_catalog_k3():
    assert plains(catalog_elements(3, PalFamily.P1, 0)) == {"010"}
    assert plains(catalog_elements(3, PalFamily.P2, 0)) == {"10201"}
    assert plains(catalog_elements(3, PalFamily.P3, 1)) == {"343", "34343"}
    assert plains(catalog_elements(3, PalFamily.P4, 1)) == {
        "3435343",
        "435343534",
        "33",
    }


def test_printed_catalog_k4():
    assert plains(catalog_elements(4, PalFamily.P1, 0)) == {"010", "0102010"}
    assert plains(catalog_elements(4, PalFamily.P2, 0)) == {
        "10201",
        "1020103010201",
        "201030102",
    }
    assert plains(catalog_elements(4, PalFamily.P3, 1)) == {
        shift_add(4, Word.parse(t)).to_plain()
        for t in ("010", "01010", "0102010", "01020102010")
    }
    assert plains(catalog_elements(4, PalFamily.P4, 1)) == {
        shift_add(4, Word.parse(t)).to_plain()
        for t in ("010201030102010", "102010301020103010201", "00")
    }


def test_printed_catalog_k5():
    assert plains(catalog_elements(5, PalFamily.P2, 0)) == {
        "10201",
        "1020103010201",
        "10201030102010401020103010201",
        "201030102",
        "2010301020104010201030102",
        "30102010401020103",
    }
    assert plains(catalog_elements(5, PalFamily.P4, 1)) == {
        shift_add(5, Word.parse(t)).to_plain()
        for t in (
            "00",
            "102010301020104010201030102010401020103010201",
            "0102010301020104010201030102010",
        )
    }


@pytest.mark.parametrize("k", [3, 4, 5])
def test_catalog_soundness(k):
    for family in PalFamily:
        for element, cls in catalog_elements(k, family, 2):
            assert is_palindrome(element), (family, element)
            assert cls.family is family
            if cls.shift:
                assert min(element.digits) >= k * cls.shift


def test_catalog_shift_ranges():
    # P1/P2 start at shift 0, P3/P4 at shift 1
    for family, lo in [(PalFamily.P1, 0), (PalFamily.P2, 0),
                       (PalFamily.P3, 1), (PalFamily.P4, 1)]:
        shifts = {cls.shift for _, cls in catalog_elements(4, family, 3)}
        assert min(shifts) == lo and max(shifts) == 3


def test_maximal_bordering_word_examples():
    assert maximal_bordering_word(4, 4, 3).to_plain() == "1020103010201"
    assert maximal_bordering_word(4, 4, 2).to_plain() == "10201"
    assert maximal_bordering_word(3, 3, 2).to_plain() == "10201"
    with pytest.raises(DomainError):
        maximal_bordering_word(4, 6, 3)


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_bordering_word_length_and_occurrence(k):
    from kbona.words import kbonacci_number

    for n in range(k, 2 * k - 2):
        for j in range(n - k + 2, k):
            b = maximal_bordering_word(k, n, j)
            assert is_palindrome(b)
            assert len(b) == border_max_length(k, n, j)
            w = word(k, n)
            assert b.digits in w.digits
            # Lemma: the occurrence is centered right after the prefix W_j.
            center = kbonacci_number(k, j + k)
            half = (len(b) - 1) // 2
            assert w.factor(center - half, center + half) == b


def test_straddling_examples():
    concats = {p.concatenation.to_plain() for p in maximal_straddling_words(4, 9)}
    assert concats == {"4546454", "45464546454"}
    only = maximal_straddling_words(3, 5)
    assert [p.concatenation.to_plain() for p in only] == ["33"]
    assert maximal_straddling_words(4, 6) == []
    assert maximal_straddling_words(4, 11) == []


@pytest.mark.parametrize("k", [3, 4, 5, 6, 7, 8])
def test_straddling_words_occur_at_final_cut(k):
    from kbona.words import kbonacci_number

    for n in range(2 * k - 1, 3 * k - 1):
        w = word(k, n)
        cut = len(w) - kbonacci_number(k, n)  # final block = k ⊕ W_{n-k}
        for pair in maximal_straddling_words(k, n):
            assert is_palindrome(pair.concatenation)
            assert w.factor(cut - len(pair.left) + 1, cut) == pair.left
            assert w.factor(cut + 1, cut + len(pair.right)) == pair.right


@pytest.mark.parametrize("k", [3, 4, 5])
def test_straddling_size_bounds(k):
    for n in range(2 * k, 3 * k - 2):
        for pair in maximal_straddling_words(k, n):
            assert len(pair.left) <= 2 ** (n - 2 * k + 1)
            assert len(pair.right) <= 2 ** (n - 2 * k + 2) - 1
    for pair in maximal_straddling_words(k, 3 * k - 2):
        assert len(pair.left) <= 2 ** (k - 1)
        assert len(pair.right) <= 2 ** k - 1


def test_length_sets_k3():
    assert sorted(length_set(3, PalFamily.P2, FormulaMode.DERIVED).lengths) == [3, 5]
    assert sorted(length_set(3, PalFamily.P2, FormulaMode.AS_STATED).lengths) == [3, 5]
    assert sorted(length_set(3, PalFamily.P4, FormulaMode.AS_STATED).lengths) == [
        2, 3, 5, 7, 9, 11,
    ]
    assert sorted(length_set(3, PalFamily.P4, FormulaMode.DERIVED).lengths) == [
        2, 3, 5, 7, 9,
    ]


def test_length_sets_k4():
    for mode in FormulaMode:
        assert sorted(length_set(4, PalFamily.P1, mode).lengths) == [3, 5, 7]


def test_p4_is_the_only_discrepant_family():
    for k in (3, 4, 5):
        for family in PalFamily:
            stated = length_set(k, family, FormulaMode.AS_STATED).lengths
            derived = length_set(k, family, FormulaMode.DERIVED).lengths
            if family is PalFamily.P4:
                assert stated - derived == {3 * 2 ** (k - 1) - 1}
            else:
                assert stated == derived


def test_allowed_lengths():
    assert sorted(allowed_lengths(3, FormulaMode.AS_STATED).lengths) == [2, 3, 5, 7, 9, 11]
    assert sorted(allowed_lengths(3, FormulaMode.DERIVED).lengths) == [2, 3, 5, 7, 9]
    stated4 = allowed_lengths(4, FormulaMode.AS_STATED).lengths
    assert stated4 == frozenset({2}) | frozenset(range(3, 24, 2))


@pytest.mark.parametrize("k", [3, 4])
def test_derived_lengths_match_scan(k):
    observed = {len(p) for p in distinct_factors(word(k, 3 * k + 2), 2)}
    assert observed == set(allowed_lengths(k, FormulaMode.DERIVED).lengths)


def test_classify_examples():
    got = classify_palindrome(3, Word.parse("010"))
    assert {(c.family, c.shift, c.n) for c in got} == {(PalFamily.P1, 0, 2)}
    got = classify_palindrome(3, Word.parse("343"))
    assert {(c.family, c.shift) for c in got} == {(PalFamily.P1, 1), (PalFamily.P3, 1)}
    with pytest.raises(DomainError):
        classify_palindrome(3, Word.parse("0102"))


def test_classify_rejects_non_members():
    assert classify_palindrome(3, Word.parse("11")) == set()
    assert classify_palindrome(3, Word.parse("101")) == set()
    # 00 itself needs shift >= 1, so the unshifted word is not in the catalog
    assert classify_palindrome(3, Word.parse("00")) == set()
    assert classify_palindrome(3, Word()) == set()


@pytest.mark.parametrize("k,n", [(3, 10), (4, 10), (5, 9)])
def test_structure_completeness(k, n):
    for pal in enumerate_maximal(word(k, n), 2):
        assert classify_palindrome(k, pal), (k, n, pal)


@pytest.mark.parametrize("k", [3, 4])
def test_realizability(k):
    for family in PalFamily:
        for element, cls in catalog_elements(k, family, 1):
            n = 3 * k - 2 + k * cls.shift
            assert element.digits in word(k, n).digits, (family, cls, element)


def test_domain_errors():
    with pytest.raises(DomainError):
        catalog_elements(2, PalFamily.P1, 0)
    with pytest.raises(DomainError, match="i_max must be >= 0, got -1"):
        catalog_elements(3, PalFamily.P1, -1)
    for left, right in ((Word(), Word.parse("1")), (Word.parse("1"), Word())):
        with pytest.raises(DomainError, match="nonempty"):
            StraddlingPair(left, right)
    with pytest.raises(DomainError):
        allowed_lengths(2)
