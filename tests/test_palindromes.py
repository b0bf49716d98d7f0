"""Palindrome engine vs brute-force oracles, plus the engine's own
consistency laws."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from kbona import palindromes
from kbona.palindromes import (
    CutSpec,
    Occurrence,
    classify_crossing,
    count_occurrences,
    distinct_factors,
    enumerate_maximal,
    is_palindrome,
    maximal_radii,
)
from kbona.verify import decomposition_cuts
from kbona.words import DomainError, Word, shift_add, word

from oracles import (
    brute_count,
    brute_crossing,
    brute_distinct,
    brute_maximal,
    brute_radii,
)

random_digits = st.lists(st.integers(min_value=0, max_value=19), max_size=60)


def test_is_palindrome_examples():
    assert is_palindrome(Word())
    assert is_palindrome(Word.parse("10201"))
    assert not is_palindrome(Word.parse("0102"))


def test_radii_examples():
    profile = maximal_radii(Word.parse("0102010"))
    assert profile.lengths[0::2] == (1, 3, 1, 7, 1, 3, 1)
    assert all(v == 0 for v in profile.lengths[1::2])
    profile = maximal_radii(Word.parse("33"))
    assert profile.lengths == (1, 2, 1)
    assert maximal_radii(Word()).lengths == ()


def test_occurrence_geometry():
    occ = Occurrence(2, 5)
    assert occ.end == 6


def test_enumerate_examples():
    occs = enumerate_maximal(Word.parse("0102013"), 2)
    assert [(o.start, o.length) for o in occs] == [(1, 3), (2, 5)]
    assert [(o.start, o.length) for o in enumerate_maximal(Word.parse("33"), 2)] == [(1, 2)]
    assert enumerate_maximal(Word.parse("012"), 2) == []


def test_count_examples():
    assert count_occurrences(Word.parse("0102"), 2) == 1
    assert count_occurrences(Word.parse("01020103"), 2) == 5
    assert count_occurrences(Word.parse("010201030102014"), 2) == 14


def test_distinct_examples():
    got = distinct_factors(Word.parse("0102013"), 2)
    assert got == {Word.parse("010"), Word.parse("020"), Word.parse("10201")}
    assert distinct_factors(Word.parse("111"), 2) == {Word.parse("11"), Word.parse("111")}
    assert Word((3, 3)) in distinct_factors(word(3, 5), 2)
    # The empty word has no factor; a unary word has the longest
    # suffix-link chains and exactly one palindrome of each length.
    assert distinct_factors(Word(), 1) == set()
    n = 5000
    for min_len in (1, 2):
        got = distinct_factors(Word((0,) * n), min_len)
        assert sorted(map(len, got)) == list(range(min_len, n + 1))
        assert all(p.digits.count(0) == len(p) for p in got)


def test_min_len_domain():
    for fn in (count_occurrences, enumerate_maximal, distinct_factors):
        with pytest.raises(DomainError):
            fn(Word.parse("010"), 0)


@given(random_digits)
@settings(max_examples=300)
def test_radii_against_oracle(digits):
    w = Word(digits)
    assert list(maximal_radii(w).lengths) == brute_radii(w)


@given(random_digits, st.integers(min_value=1, max_value=3))
@settings(max_examples=300)
def test_counts_against_oracle(digits, min_len):
    w = Word(digits)
    assert count_occurrences(w, min_len) == brute_count(w, min_len)


@given(random_digits, st.integers(min_value=1, max_value=3))
@settings(max_examples=200)
def test_maximal_against_oracle(digits, min_len):
    w = Word(digits)
    assert enumerate_maximal(w, min_len) == brute_maximal(w, min_len)


@given(random_digits, st.integers(min_value=1, max_value=3))
@settings(max_examples=200)
def test_distinct_against_oracle(digits, min_len):
    w = Word(digits)
    assert distinct_factors(w, min_len) == brute_distinct(w, min_len)


def _random_word(rng):
    length = rng.randint(0, 300)
    sigma = rng.randint(1, 20)
    return Word(rng.randrange(sigma) for _ in range(length))


def test_random_battery():
    """Seeded sweep over longer words than hypothesis reaches."""
    rng = random.Random(20240811)
    for _ in range(120):
        w = _random_word(rng)
        for min_len in (1, 2, 3):
            assert count_occurrences(w, min_len) == brute_count(w, min_len)
        assert list(maximal_radii(w).lengths) == brute_radii(w)
        assert distinct_factors(w, 2) == brute_distinct(w, 2)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_engine_on_generated_words(k):
    for n in range(9):
        w = word(k, n)
        for min_len in (1, 2, 3):
            assert count_occurrences(w, min_len) == brute_count(w, min_len)
        assert enumerate_maximal(w, 2) == brute_maximal(w, 2)
        assert distinct_factors(w, 2) == brute_distinct(w, 2)


@given(random_digits, st.integers(min_value=0, max_value=7))
@settings(max_examples=150)
def test_shift_invariance(digits, d):
    w = Word(digits)
    shifted = shift_add(d, w)
    assert count_occurrences(shifted, 2) == count_occurrences(w, 2)
    assert distinct_factors(shifted, 2) == {
        shift_add(d, p) for p in distinct_factors(w, 2)
    }


@given(random_digits)
@settings(max_examples=200)
def test_count_consistency_with_maximal(digits):
    w = Word(digits)
    for min_len in (1, 2, 3):
        total = 0
        for occ in enumerate_maximal(w, 1):
            length = occ.length
            while length >= min_len:
                total += 1
                length -= 2
        assert count_occurrences(w, min_len) == total


def test_radius_profile_invariants():
    for w in (word(3, 6), Word.parse("3434343"), Word((5, 5, 5, 5))):
        profile = maximal_radii(w)
        for c, m in enumerate(profile.lengths):
            if c % 2 == 0:
                assert m % 2 == 1 and m >= 1
            else:
                assert m % 2 == 0 and m >= 0


def _cutspec_for(w, rng):
    positions = sorted(rng.sample(range(1, len(w)), rng.randint(1, len(w) - 1)))
    return CutSpec(tuple(positions))


def test_classify_crossing_against_oracle():
    # Alphabets of one or two digits give long palindromes that span
    # several cuts; up to len(w) - 1 cuts puts one between every digit.
    rng = random.Random(7)
    for _ in range(150):
        sigma = rng.choice((1, 2, 6))
        w = Word(rng.randrange(sigma) for _ in range(rng.randint(2, 80)))
        cuts = _cutspec_for(w, rng)
        for min_len in (1, 2, 3):
            got = classify_crossing(w, cuts, min_len)
            contained, bordering, straddling = brute_crossing(w, cuts, min_len)
            assert got.contained == contained
            assert got.bordering == bordering
            assert 0 not in got.bordering.values()
            assert got.straddling == straddling
            assert got.occurrences == got.total == brute_count(w, min_len)
            assert count_occurrences(w, min_len) == got.occurrences
            assert enumerate_maximal(w, min_len) == brute_maximal(w, min_len)


class _CountedDigits(tuple):
    """A digit tuple that counts its index reads and fails once they pass
    a budget, so a quadratic scan stops early instead of running long."""

    def __new__(cls, digits, budget):
        self = super().__new__(cls, digits)
        self.reads, self.budget = 0, budget
        return self

    def __getitem__(self, i):
        self.reads += 1
        assert self.reads <= self.budget, "scan reads digits more than linearly"
        return super().__getitem__(i)


def test_radii_linear_on_periodic_words():
    # Every centre of 0^n and of (01)^n lies inside a palindrome reaching
    # the nearer end of the word; a scan without the mirror bound expands
    # each one again from its centre and reads about n^2 / 2 digits. With
    # it, each successful comparison moves the right end of the furthest
    # palindrome on, so each parity class makes at most n successful and n
    # failed comparisons: 8n digit reads in all.
    n = 20_000
    for digits, expected in (
        ((0,) * n, [min(c + 1, 2 * n - 1 - c) for c in range(2 * n - 1)]),
        ((0, 1) * (n // 2), [0 if c % 2 else min(c + 1, 2 * n - 1 - c) for c in range(2 * n - 1)]),
    ):
        w = Word(digits)
        object.__setattr__(w, "digits", _CountedDigits(digits, 8 * n))
        assert maximal_radii(w).lengths == tuple(expected)


def test_classify_crossing_walks_only_cut_windows(monkeypatch):
    # Only a centre within reach = max(lengths) - 2 of a cut can cross
    # it, so at most 2 * reach + 1 centres per cut are bucketed one at a
    # time; a walk over every reaching centre of W_16 (k = 6) buckets
    # 28,074.
    k, n = 6, 16
    w, cuts = word(k, n), decomposition_cuts(k, n)
    reach = max(maximal_radii(w).lengths) - 2
    walked = []
    original = palindromes._bucket

    def counted(counts, gaps, c, m, min_len):
        walked.append(c)
        original(counts, gaps, c, m, min_len)

    monkeypatch.setattr(palindromes, "_bucket", counted)
    got = classify_crossing(w, cuts, 2)
    assert 0 < len(walked) <= len(cuts.cuts) * (2 * reach + 1)
    assert got.total == got.occurrences == count_occurrences(w, 2)


def test_classify_crossing_single_block():
    w = word(3, 5)
    got = classify_crossing(w, CutSpec(()), 2)
    assert got.contained == count_occurrences(w, 2)
    assert got.straddling == 0 and not got.bordering


def test_classify_crossing_invalid_cuts():
    w = Word.parse("0102")
    with pytest.raises(DomainError):
        classify_crossing(w, CutSpec((0,)), 2)
    with pytest.raises(DomainError):
        classify_crossing(w, CutSpec((2, 2)), 2)
    with pytest.raises(DomainError):
        classify_crossing(w, CutSpec((4,)), 2)
