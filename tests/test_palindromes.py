"""Palindrome engine vs brute-force oracles, plus the engine's own
consistency laws."""

import ast
import bisect
import functools
import hashlib
import random
import tracemalloc
import weakref
from array import array
from collections import Counter
from collections.abc import Sequence
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from kbona import palindromes, words
from kbona.palindromes import (
    CrossingCounts,
    classify_crossing,
    count_occurrences,
    count_prefix_occurrences,
    distinct_factors,
    enumerate_maximal,
    is_palindrome,
    maximal_radii,
)
from kbona.verify import decomposition_cuts
from kbona.words import (
    DomainError,
    Word,
    _shift_table,
    kbonacci_sizes,
    reduce_mod_k,
    shift_add,
    word,
)

from oracles import (
    brute_count,
    brute_crossing,
    brute_occurrences,
    brute_distinct,
    brute_maximal,
    brute_radii,
)

random_digits = st.lists(st.integers(min_value=0, max_value=19), max_size=60)


def test_oracles_import_only_word_from_the_engine():
    # The brute oracles stay independent of the engine: of kbona they
    # import the Word type alone.
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {f"{node.module}.{alias.name}" for alias in node.names}
    assert {name for name in imported if name.split(".")[0] == "kbona"} == {"kbona.words.Word"}


def test_is_palindrome_examples():
    assert is_palindrome(Word())
    assert is_palindrome(Word.parse("10201"))
    assert not is_palindrome(Word.parse("0102"))


def test_radii_examples():
    profile = maximal_radii(Word.parse("0102010"))
    # A read-only sequence of one length per centre, not a tuple: a
    # lookup is an int, and a slice a new 4-byte array of its own.
    lengths = profile.lengths
    assert isinstance(lengths, Sequence) and not isinstance(lengths, tuple)
    assert len(lengths) == 13 and lengths[6] == 7 and lengths[-1] == 1
    assert lengths[1:4] == array("i", [0, 3, 0]) and lengths[9:2:-3] == array("i", [0, 7, 0])
    assert list(profile.lengths[0::2]) == [1, 3, 1, 7, 1, 3, 1]
    assert all(v == 0 for v in profile.lengths[1::2])
    assert profile.longest == 7 and profile.totals[7] == 17
    profile = maximal_radii(Word.parse("33"))
    assert list(profile.lengths) == [1, 2, 1]
    assert profile.longest == 2 and profile.totals[2] == 4
    profile = maximal_radii(Word())
    assert list(profile.lengths) == [] and profile.longest == profile.totals[0] == 0


def _count_calls(monkeypatch, name):
    """Record the digit count of each call of palindromes.<name>: for
    `_whole_scan`, the digits it scans, those whose centres its lengths
    hold, and for any other, the digits it is given."""
    calls = []
    original = getattr(palindromes, name)

    def counted(ds, *args):
        calls.append((len(args[0]) + 1) // 2 if name == "_whole_scan" else len(ds))
        return original(ds, *args)

    monkeypatch.setattr(palindromes, name, counted)
    return calls


def test_profile_is_kept_on_the_word(monkeypatch):
    # One profile build serves every caller on one word, in scan-long's
    # order: a generated word is built once from its plan, whose walker
    # runs once and whose whole scan reads only W_0, one digit, and a
    # parsed word is scanned whole once.
    builds = _count_calls(monkeypatch, "_patched_levels")
    passes = _count_calls(monkeypatch, "_whole_scan")
    w = word(3, 8)
    profile = maximal_radii(w)
    assert maximal_radii(w) is profile
    assert count_occurrences(w, 2) == brute_count(w, 2)
    assert classify_crossing(w, decomposition_cuts(3, 8), 2).total == brute_count(w, 2)
    assert enumerate_maximal(w) == brute_maximal(w, 2)
    assert builds == [len(w)] and passes == [1]
    # An equal word built apart has its own profile.
    twin = Word.parse(w.to_plain())
    assert twin == w and hash(twin) == hash(w)
    assert maximal_radii(twin) is not profile
    assert builds == [len(w)] and passes == [1, len(w)]


def test_profile_is_read_only():
    w = Word.parse("0102010")
    profile = maximal_radii(w)
    with pytest.raises(TypeError):
        profile.lengths[0] = 5
    with pytest.raises(TypeError):
        profile.lengths[0:2] = profile.lengths[2:4]
    assert list(maximal_radii(w).lengths) == brute_radii(w)


@pytest.mark.parametrize("text", ["0102013010201", "0 300 0 1 300 0 2"])
def test_derived_words_are_scanned_afresh(text):
    w = Word.parse(text)
    maximal_radii(w)
    derived = [
        w.factor(2, len(w) - 1), w.reverse(), w + w.reverse(), w.drop_last(),
        shift_add(1, w), reduce_mod_k(3, w),
    ]
    for v in derived:
        assert list(maximal_radii(v).lengths) == brute_radii(v)
    assert list(maximal_radii(w).lengths) == brute_radii(w)


def test_profile_lives_as_long_as_its_word():
    w = word(3, 6)
    profile = maximal_radii(w)
    store = weakref.ref(profile.lengths)
    assert store() is not None
    del w, profile
    assert store() is None


def test_enumerate_examples():
    # The maximal palindromes of length >= 2 of 0102013 are 010 at
    # positions 1..3 and 10201 at 2..6.
    w = Word.parse("0102013")
    assert enumerate_maximal(w) == {w.factor(1, 3), w.factor(2, 6)}
    assert enumerate_maximal(Word.parse("33")) == {Word.parse("33")}
    assert enumerate_maximal(Word.parse("012")) == set()
    # A digit past 255 keeps the word in the tuple store; its byte-range
    # factors come back as canonical byte words, equal to the oracle's.
    w = Word((300, 1, 300, 2, 300, 1, 300, 7, 7, 1000, 7, 7))
    assert type(w.digits) is tuple
    assert enumerate_maximal(w) == brute_maximal(w, 2)
    assert Word((300, 1, 300, 2, 300, 1, 300)) in enumerate_maximal(w)
    assert Word((7, 7)) in enumerate_maximal(w)


def test_count_examples():
    assert count_occurrences(Word.parse("0102"), 2) == 1
    assert count_occurrences(Word.parse("01020103"), 2) == 5
    assert count_occurrences(Word.parse("010201030102014"), 2) == 14


def test_distinct_examples():
    got = distinct_factors(Word.parse("0102013"), 2)
    assert got == {Word.parse("010"), Word.parse("020"), Word.parse("10201")}
    assert distinct_factors(Word.parse("111"), 2) == {Word.parse("11"), Word.parse("111")}
    assert Word((3, 3)) in distinct_factors(word(3, 5), 2)
    # The empty word has no factor; a unary word has exactly one
    # palindrome of each length from 2.
    assert distinct_factors(Word()) == set()
    n = 5000
    got = distinct_factors(Word((0,) * n))
    assert sorted(map(len, got)) == list(range(2, n + 1))
    assert all(p.digits.count(0) == len(p) for p in got)


def _whole_profile(w: Word):
    """The whole scan's profile of w's digits: a word built from them
    alone carries no plan."""
    return maximal_radii(Word._unchecked(w.digits))


def _total(profile) -> int:
    """The total of a whole word's profile, kept under its length."""
    return profile.totals[(len(profile.lengths) + 1) // 2]


def _same_profile(a, b) -> bool:
    return (list(a.lengths), a.longest, _total(a)) == (list(b.lengths), b.longest, _total(b))


def _sweep_words():
    for k in range(2, 11):
        n = 0
        while len(w := word(k, n)) <= 1 << 16:
            yield w
            n += 1


# W_22 (k=3), W_20 (k=6) and W_18 (k=8): 1.93 M digits together.
LONG = [(3, 22), (6, 20), (8, 18)]


@functools.lru_cache(maxsize=None)
def _planless(k: int, n: int) -> Word:
    """A copy of W_n's digits with no plan, kept for the session: it keeps
    the profile of its own whole scan, so the tests that read the long
    words scan each one whole once."""
    return Word._unchecked(word(k, n).digits)


@pytest.mark.parametrize(
    "pairs", [lambda: ((w, Word._unchecked(w.digits)) for w in _sweep_words()),
              lambda: ((word(k, n), _planless(k, n)) for k, n in LONG),
              lambda: ((word(k, k), Word._unchecked(word(k, k).digits)) for k in range(11, 17))],
    ids=["up-to-2^16", "long", "large-k"])
def test_plan_build_equals_whole_scan(monkeypatch, pairs):
    # Every W_n of up to 2^16 digits for k = 2..10, the long words, and
    # W_k for k = 11..16, whose longest palindrome is nearly the whole
    # word: the whole scan of a generated word reads only W_0, one
    # digit, and its profile, built from the plan as it is trusted, is
    # the whole scan's of a copy with no plan, which is scanned whole.
    passes = _count_calls(monkeypatch, "_whole_scan")
    for w, planless in pairs():
        passes.clear()
        profile = maximal_radii(w)
        assert passes == [1]
        assert _same_profile(profile, maximal_radii(planless))


def test_profile_holds_the_kept_prefix_flat():
    # Every W_n of up to 2^16 digits for k = 3..10: the profile holds the
    # final lengths of the first |W_j| digits' centres, j = min(n, k - 1),
    # as the whole scan of a copy with no plan gives them, and the total
    # of every W_m with m <= n, the sum of the whole scan clamped to W_m.
    # A block's run whose source ends at the prefix's end, or one centre
    # past it, reads as the whole scan's.
    for k in range(3, 11):
        sizes = kbonacci_sizes(k)
        for n in range(bisect.bisect_right(sizes, 1 << 16)):
            w = word(k, n)
            profile = maximal_radii(w)
            scanned = maximal_radii(Word._unchecked(w.digits)).lengths
            kept = 2 * sizes[min(n, k - 1)] - 1
            assert profile.lengths._base == scanned[:kept], (k, n)
            for _, blocks, _ in w._plan[1]:
                for start, length, _ in blocks:
                    # The block's centres from lo on copy its source's
                    # from lo - 2 start, 0 or 1.
                    for lo in (2 * start, 2 * start + 1) if 2 * length - 1 > kept else ():
                        assert profile.lengths[lo : lo + kept] == scanned[lo : lo + kept]
            for size in sizes[: n + 1]:
                e = 2 * size - 1
                clamped = sum(map(min, scanned[:e], range(e, 0, -1)))
                assert profile.totals[size] == clamped, (k, n, size)


def test_plan_build_allocates_only_the_profile():
    # W_22 (k=3), 755,476 digits: the profile holds the lengths of W_2,
    # the walker's levels and the patched centres, and the build's peak
    # is that profile, 27.7 kB or about 0.04 bytes per digit, where an
    # entry per centre would take 8.
    w = word(3, 22)
    tracemalloc.start()
    try:
        maximal_radii(w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * len(w)


# W_n's digits changed: one digit of the last block or of the base
# changed, one digit fewer or more, or a digit past 255, which puts the
# word in the tuple store. A word made from them outside `word` carries
# no plan.
changed_digits = pytest.mark.parametrize("change", [
    lambda ds: ds[:-3] + bytes([ds[-3] ^ 1]) + ds[-2:],
    lambda ds: bytes([ds[0] + 1]) + ds[1:],
    lambda ds: ds[:-1],
    lambda ds: ds + bytes(1),
    lambda ds: tuple(ds[:-1]) + (300,),
], ids=["last-block", "base", "shorter", "longer", "tuple-store"])


@changed_digits
def test_plan_of_changed_digits_takes_the_whole_scan(monkeypatch, change):
    # A word made outside `word` is scanned whole, to the brute lengths.
    w = Word._unchecked(change(word(4, 12).digits))
    passes = _count_calls(monkeypatch, "_whole_scan")
    assert _same_profile(maximal_radii(w), _whole_profile(w))
    assert passes[-1] == len(w)
    assert list(maximal_radii(w).lengths) == brute_radii(w)


def _planned(base, levels) -> Word:
    """The word joined from a block plan: base digits, then per level the
    blocks (length, shift), each the prefix of that length shifted by
    that much, a digit past 255 - shift becoming 0. Each block is the
    base or the word at the end of an earlier level, a chain as `word`
    plans it. The word carries the plan, in the form `word` attaches,
    only when no shifted digit passes 255, as no generated digit does;
    else it carries none."""
    ds = bytes(base)
    plan, wraps, chain = [], False, {len(ds)}
    for level in levels:
        size, blocks = len(ds), []
        for length, shift in level:
            assert length in chain, (length, sorted(chain))
            wraps |= max(ds[:length]) >= 256 - shift
            blocks.append((len(ds), length, shift))
            ds += ds[:length].translate(_shift_table(shift))
        plan.append((size, tuple(blocks), len(ds)))
        chain.add(len(ds))
    w = Word._unchecked(ds)
    if not wraps:
        object.__setattr__(w, "_plan", (len(base), tuple(plan)))
    return w


def _scans(read, w):
    """read(w), and the digit count of each whole scan it makes."""
    with pytest.MonkeyPatch.context() as mp:
        passes = _count_calls(mp, "_whole_scan")
        return read(w), passes


def _base(w: Word) -> int:
    """The digits the whole scan of w reads: those before its plan's
    first level, else all."""
    size, levels = getattr(w, "_plan", (len(w), ()))
    return levels[0][0] if levels else size


@st.composite
def planned_words(draw, cap=None):
    """A random base of digits near 0 or near 255, and up to four levels
    of up to four blocks, each the base or the word at the end of an
    earlier level, with shifts 0 to 6. With a cap, no level starts once
    the word has cap digits, which keeps it within the brute oracles'
    reach."""
    digit = st.one_of(st.integers(0, 3), st.integers(250, 255))
    base = draw(st.lists(digit, min_size=1, max_size=10))
    levels, ends = [], [len(base)]
    for _ in range(draw(st.integers(0, 4))):
        if cap is not None and ends[-1] >= cap:
            break
        level = draw(st.lists(st.tuples(st.sampled_from(ends), st.integers(0, 6)),
                              min_size=1, max_size=4))
        levels.append(level)
        ends.append(ends[-1] + sum(length for length, _ in level))
    return _planned(base, levels)


@given(planned_words())
# A block shorter than the longest palindrome, 0 1 0 1 0: the block 0 1
# after it holds its source's 0 1 0 at the 1 cut to the 1 alone.
@example(_planned((0, 1), [[(2, 0)], [(2, 0)]]))
# A palindrome over three blocks: 1 0 1 spans the first level's 1, the
# 0 and the shifted 0.
@example(_planned((0,), [[(1, 1)], [(1, 0), (1, 1)]]))
# A base whose palindromic suffixes, 1 and 1 1, are not its prefixes, 0
# alone: the gap of 1 1 holds 0 1 1 0 once the block is appended.
@example(_planned((0, 1, 1), [[(3, 0)]]))
# A shift past 255: 255 254 shifted by 2 is 0 0, a palindrome its source
# is not, so the word carries no plan and is scanned whole.
@example(_planned((0, 255, 254), [[(3, 2)]]))
# Palindromic prefixes longer than the base: 0 0 and 0 0 0 0 are met as
# patches that reach digit 0, and the block 0 0 0 0 holds 0 0 at its
# centre 1, which reaches past the block in 0^8.
@example(_planned((0,), [[(1, 0)], [(2, 0)], [(4, 0)]]))
@settings(max_examples=300)
def test_plan_build_on_random_plans(w):
    profile, passes = _scans(maximal_radii, w)
    assert _same_profile(profile, _whole_profile(w))
    # A word with a plan scans its base whole, and one without scans
    # the word whole and nothing else.
    assert passes == [_base(w)]


@functools.lru_cache(maxsize=None)
def _scanned(k: int, n: int) -> array:
    """The lengths of every centre of W_n by the whole scan alone."""
    ds = word(k, n).digits
    out = array("i", (0,)) * (2 * len(ds) - 1)
    palindromes._whole_scan(ds, out)
    return out


# Every (k, n) with k = 3..8 and |W_n| at most 2^16 digits.
GENERATED = [(k, n) for k in range(3, 9)
             for n, size in enumerate(kbonacci_sizes(k)) if size <= 1 << 16]


@st.composite
def generated_reads(draw):
    """A generated word's (k, n) with some of its centres, each anywhere
    or within 8 of the gap before a block of some level."""
    k, n = draw(st.sampled_from(GENERATED))
    last = 2 * kbonacci_sizes(k)[n] - 2
    gaps = [2 * p - 1 for m in range(k, n + 1) for p in decomposition_cuts(k, m)]
    near = st.builds(lambda g, d: min(max(g + d, 0), last),
                     st.sampled_from(gaps or [0]), st.integers(-8, 8))
    return k, n, draw(st.lists(st.one_of(st.integers(0, last), near), min_size=2, max_size=20))


@given(generated_reads())
@settings(max_examples=100, deadline=None)
def test_resolved_lengths_equal_the_whole_scan(read):
    # A lookup, a slice [lo, hi) of the pairs of drawn centres, and a
    # full read each resolve through the plan to the whole scan's
    # lengths of the same digits.
    k, n, centres = read
    lengths, expected = maximal_radii(word(k, n)).lengths, _scanned(k, n)
    assert len(lengths) == len(expected)
    for c in centres:
        assert lengths[c] == expected[c], c
    for lo, hi in zip(centres[::2], centres[1::2]):
        lo, hi = min(lo, hi), max(lo, hi) + 1
        assert lengths[lo:hi] == expected[lo:hi], (lo, hi)
    assert list(lengths) == expected.tolist()


def test_distinct_plan_build_equals_whole_walk():
    # Every W_n of up to 2^16 digits for k = 2..10, built from its plan,
    # against a copy with no plan, whose every centre is sliced from the
    # whole scan and walked down.
    for w in _sweep_words():
        assert distinct_factors(w) == distinct_factors(Word._unchecked(w.digits))


@pytest.mark.parametrize("k, n, count, distinct, digest", [
    (3, 22, 339387, 63, "dce4eb4cd8e43fe2"),
    (6, 20, 1723364, 247, "00d8756d8a407a18"),
])
def test_benchmark_scan_calls_keep_their_results(k, n, count, distinct, digest):
    # The three calls of the benchmark's scan-long workload, made as
    # perfbench/worker.py makes them, with the floor 2 passed by
    # position, give what they gave when the floor was a parameter. No
    # palindrome of these words crosses a cut: the formulas give 0 for
    # every bordering and straddling count at this n.
    w = word(k, n)
    assert palindromes.count_occurrences(w, 2) == count
    crossing = palindromes.classify_crossing(w, decomposition_cuts(k, n), 2)
    assert (crossing.contained, crossing.bordering, crossing.straddling) == (count, {}, 0)
    assert crossing.occurrences == count
    factors = sorted(p.digits for p in palindromes.distinct_factors(w, 2))
    assert len(factors) == distinct
    assert hashlib.sha256(repr(factors).encode()).hexdigest()[:16] == digest


def test_distinct_on_long_words():
    # The long words built from their plans, against the copies with no
    # plan, whose every centre is sliced from the whole scan and walked
    # down.
    for k, n in LONG:
        assert distinct_factors(word(k, n), 2) == distinct_factors(_planless(k, n), 2)


@given(planned_words(cap=40))
# The empty suffix at a cut: 0 0 is centred on the cut and lies in
# neither block.
@example(_planned((0,), [[(1, 0)]]))
# A crossing palindrome that ends at the level's end: 0 1 0 extends the
# suffix 1 of the word before the level over the cut to the last digit.
@example(_planned((0,), [[(1, 1)], [(1, 0)]]))
# A suffix and a prefix as long as the longest palindrome so far, 3:
# 0 1 0 1 0 extends the suffix 1 0 1 of the word before the last level,
# and 2 0 1 0 2 the block's prefix 0 1 0.
@example(_planned((0,), [[(1, 1)], [(2, 0)], [(1, 0)]]))
@example(_planned((0, 1, 0, 2), [[(4, 0)]]))
# A shift past 255: 255 254 shifted by 2 is 0 0, a palindrome its source
# is not, so the word carries no plan and its whole profile is walked.
@example(_planned((0, 255, 254), [[(3, 2)]]))
@settings(max_examples=300)
def test_distinct_plan_build_on_random_plans(w):
    got, passes = _scans(distinct_factors, w)
    assert got == brute_distinct(w, 2)
    assert passes == [_base(w)]


@changed_digits
def test_distinct_of_changed_digits_walks_the_whole_profile(monkeypatch, change):
    # A word made outside `word` is a plan with no levels: every centre
    # of its whole profile, which the whole scan builds, is sliced and
    # walked down.
    w = Word._unchecked(change(word(4, 8).digits))
    passes = _count_calls(monkeypatch, "_whole_scan")
    assert distinct_factors(w) == brute_distinct(w, 2)
    assert passes[-1] == len(w)


def test_distinct_plan_build_scans_only_the_base(monkeypatch):
    # The plan build reads the word's own profile, whose build scans only
    # the base, W_0, whole; once the profile is kept on the word, no call
    # scans again. A copy with no plan is scanned whole.
    passes = _count_calls(monkeypatch, "_whole_scan")
    w = word(5, 14)
    distinct_factors(w, 2)
    assert passes == [1]
    maximal_radii(w)
    distinct_factors(w, 2)
    assert passes == [1]
    distinct_factors(Word._unchecked(w.digits), 2)
    assert passes == [1, len(w)]


def test_distinct_plan_build_memory():
    # W_23 (k=7), 7,805,695 digits: the build holds its 94 maximal
    # palindromes, the 500 distinct ones and the profile, about 0.03
    # bytes per digit, where a profile entry per centre would take 8.
    w = word(7, 23)
    tracemalloc.start()
    try:
        distinct_factors(w, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * len(w)


def test_distinct_plan_build_memory_at_k3():
    # W_22 (k=3), 755,476 digits: the build holds its maximal and
    # distinct palindromes and the profile, 29.4 kB at its peak or about
    # 0.04 bytes per digit, where a copy of its last block, W_19 shifted
    # by 3, would take 0.16.
    w = word(3, 22)
    tracemalloc.start()
    try:
        distinct_factors(w, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * len(w)


def test_maximal_plan_build_equals_comprehension(monkeypatch):
    # Every W_n of up to 2^16 digits for k = 3..8, built once from its
    # plan, against one slice per centre of the whole scan's lengths.
    builds = _count_calls(monkeypatch, "_maximal_ends")
    for k, n in GENERATED:
        w = word(k, n)
        builds.clear()
        got = enumerate_maximal(w)
        assert builds == [len(w)]
        ds = w.digits
        assert got == {Word._unchecked(ds[(c + 1 - m) // 2 : (c + 1 + m) // 2])
                       for c, m in enumerate(_scanned(k, n)) if m >= 2}


@given(planned_words(cap=40))
# 0 0: a palindrome at the gap of a cut alone.
@example(_planned((0,), [[(1, 0)]]))
# 0 1 0 holds the block 1 at its centre, whose source 0 is the maximal
# one at its own centre; the copy 1 is maximal nowhere.
@example(_planned((0,), [[(1, 1), (1, 0)]]))
# The block 4 5 is its source 0 1 shifted by 4.
@example(_planned((0, 1), [[(2, 4)]]))
# The block 1 6 7 relabels 0 5 6, but its 1 holds 6 1 6, where the 0 at
# the word's start holds 0 alone.
@example(_planned((0,), [[(1, 5), (1, 6)], [(3, 1)]]))
# The last block, 3 0 0, ends in the gap of 0 0, where its source's gap
# holds 3 0 0 3, which runs past the source; the last centre of the
# block 6 3 3 before it holds 3 3 3.
@example(_planned((3, 0, 0), [[(3, 0)], [(3, 3), (3, 0)]]))
# 0 1 0 1: the base's last centre, 1 alone in the base's scan, holds
# 0 1 0 once the level extends it.
@example(_planned((0, 1), [[(2, 0)]]))
# 0 1 1 2 1 2: the source 0 1's 1 reaches its last digit, so the 2 of
# the first shifted block is no copy of it; it is the centre of 1 2 1.
@example(_planned((0, 1), [[(2, 1)], [(2, 1)]]))
# 0 1 0 over two levels: the 1 that ends the first level holds 1 alone
# there, and 0 1 0 once the second level patches it again.
@example(_planned((0,), [[(1, 1)], [(1, 0)]]))
# A shift past 255: the word carries no plan, so it is scanned whole and
# every centre sliced.
@example(_planned((0, 255, 254), [[(3, 2)]]))
@settings(max_examples=300)
def test_maximal_plan_build_on_random_plans(w):
    got, passes = _scans(enumerate_maximal, w)
    assert got == brute_maximal(w, 2)
    assert passes == [_base(w)]


@changed_digits
def test_maximal_of_changed_digits_slices_every_centre(monkeypatch, change):
    # A word made outside `word` slices one palindrome at every centre
    # of its whole profile, which the whole scan builds.
    w = Word._unchecked(change(word(4, 8).digits))
    passes = _count_calls(monkeypatch, "_whole_scan")
    assert enumerate_maximal(w) == brute_maximal(w, 2)
    assert passes[-1] == len(w)


def test_walker_runs_once_per_word(monkeypatch):
    # The profile keeps the walker's levels and patches, and the maximal
    # and distinct builds read them from it, whichever call comes first.
    walks = _count_calls(monkeypatch, "_patched_levels")
    reads = (maximal_radii, enumerate_maximal, distinct_factors)
    for k, n in ((3, 12), (6, 16)):
        for order in (reads, reads[::-1]):
            w = word(k, n)
            walks.clear()
            for read in order:
                read(w)
            assert walks == [len(w)]


def test_profile_keeps_the_total_of_each_prefix():
    # The plan build of W_n keeps the total of the own profile of every
    # W_i with i <= n once n >= k; a word scanned whole keeps its own.
    for k, n in ((3, 9), (5, 5), (7, 12)):
        w = word(k, n)
        totals = maximal_radii(w).totals
        assert set(kbonacci_sizes(k)[: n + 1]) <= set(totals)
        for i in range(n + 1):
            assert totals[len(word(k, i))] == sum(brute_radii(word(k, i)))
    w = Word.parse("0102013")
    assert dict(maximal_radii(w).totals) == {7: sum(brute_radii(w))}
    with pytest.raises(TypeError):
        maximal_radii(w).totals[1] = 0


@given(planned_words(cap=40), st.data())
def test_prefix_counts_against_oracle(w, data):
    # A prefix whose total the profile keeps: the base or a level's end
    # of a planned word, and the whole word of a copy with no plan.
    for v in (w, Word._unchecked(w.digits)):
        size = data.draw(st.sampled_from(sorted(maximal_radii(v).totals)))
        assert count_prefix_occurrences(v, size) == brute_count(Word._unchecked(w.digits[:size]), 2)


@given(planned_words(cap=20), st.randoms(use_true_random=False))
# A prefix that cuts a palindrome of the word: 0 1 0 0 1 has 1 0 0 1,
# clamped to 0 0 in the prefix 0 1 0 0, the end of the third level.
@example(_planned((0,), [[(1, 1)], [(1, 0)], [(1, 0)], [(1, 1)]]), random.Random(0))
@settings(max_examples=100, deadline=None)
def test_prefix_classifier_against_oracle(w, rng):
    # Every prefix whose total the profile keeps, classified from the one
    # profile of the word against random valid cuts, buckets as the brute
    # listing of the prefix's own occurrences: those of the word that end
    # within it. A copy with no plan keeps the total of the whole word
    # alone.
    occurrences = list(brute_occurrences(w, 2))
    for profile in maximal_radii(w), maximal_radii(Word._unchecked(w.digits)):
        for size in sorted(profile.totals):
            cuts = tuple(sorted(rng.sample(range(1, size), rng.randint(0, size - 1))))
            inside = [(s, m) for s, m in occurrences if s + m - 1 <= size]
            buckets = brute_crossing(inside, cuts)
            got = palindromes._classify_prefix(profile, size, cuts)
            assert got.contained == buckets.count("contained")
            assert got.bordering == Counter(b for b in buckets if type(b) is int)
            assert got.straddling == buckets.count("straddling")
            assert got.occurrences == got.total == len(buckets)


def test_prefix_counts_domain():
    # Each size whose total the profile keeps counts, each W_m of W_n and
    # the whole word, and any other size raises, naming it.
    for w in word(3, 6), Word.parse("010"), Word():
        totals = maximal_radii(w).totals
        for size in range(-1, len(w) + 2):
            if size in totals:
                assert count_prefix_occurrences(w, size) == \
                    brute_count(Word._unchecked(w.digits[:size]), 2)
            else:
                with pytest.raises(DomainError, match=f"for size {size}$"):
                    count_prefix_occurrences(w, size)
    assert sorted(maximal_radii(word(3, 6)).totals) == list(kbonacci_sizes(3)[:7])


def test_min_len_domain():
    # Palindromes are counted from length 2 only: the three functions
    # that keep min_len give the same with or without the 2 and refuse
    # every other floor, and enumerate_maximal takes none.
    w = word(3, 8)
    cuts = decomposition_cuts(3, 8)
    assert count_occurrences(w, 2) == count_occurrences(w) == brute_count(w, 2)
    with_floor, without = classify_crossing(w, cuts, 2), classify_crossing(w, cuts)
    assert with_floor.total == without.total == brute_count(w, 2)
    for field in CrossingCounts.__slots__:
        assert getattr(with_floor, field) == getattr(without, field)
    assert distinct_factors(w, 2) == distinct_factors(w) == brute_distinct(w, 2)
    for floor in (0, 1, 3):
        for call in (lambda: count_occurrences(w, floor),
                     lambda: classify_crossing(w, cuts, floor),
                     lambda: distinct_factors(w, floor),
                     lambda: count_occurrences(w, min_len=floor)):
            with pytest.raises(DomainError, match="length 2"):
                call()
    with pytest.raises(TypeError):
        enumerate_maximal(w, 2)


@given(random_digits)
@settings(max_examples=300)
def test_radii_against_oracle(digits):
    w = Word(digits)
    profile, expected = maximal_radii(w), brute_radii(w)
    assert list(profile.lengths) == expected
    assert profile.longest == max(expected, default=0)
    assert profile.totals[len(w)] == sum(expected)


@given(random_digits)
@settings(max_examples=300)
def test_counts_against_oracle(digits):
    w = Word(digits)
    assert count_occurrences(w) == brute_count(w, 2)


# Digit alphabets: sizes 1, 2, 3 and 255 in the byte store, its top
# values included, and digits 256-300, which keep a word in the tuple
# store.
ALPHABETS = (
    (7,), (0, 1), (0, 128, 255), tuple(range(1, 256)),
    (256,), (256, 300), (256, 299, 300),
)


@st.composite
def planted_words(draw):
    """A word over one of ALPHABETS around a planted palindrome of
    up to 25 digits."""
    letter = st.sampled_from(draw(st.sampled_from(ALPHABETS)))
    prefix, half, suffix = (draw(st.lists(letter, max_size=12)) for _ in range(3))
    middle = draw(st.lists(letter, max_size=1))
    return Word(prefix + half + middle + half[::-1] + suffix)


@given(planted_words())
# A mirror copy: the 0 1 0 2 0 1 0 after the 3 lies inside the palindrome
# centred at the 3 and takes its length 7 from its mirror before the 3,
# which ends short of that palindrome's left end, so its first
# comparison fails.
@example(Word.parse("6 5 0 1 0 2 0 1 0 3 0 1 0 2 0 1 0 5 7"))
@settings(max_examples=400)
def test_whole_scan_at_planted_palindrome_edges(w):
    # The whole scan, Manacher's over every centre, on small and large
    # alphabets, with word edges and the planted palindrome's ends within
    # a few digits of each other.
    profile, expected = maximal_radii(w), brute_radii(w)
    assert list(profile.lengths) == expected
    # The total adds what the expansion, a mirror copy included, adds to
    # the 1 at each digit.
    assert profile.longest == max(expected, default=0)
    assert profile.totals[len(w)] == sum(expected)


@given(random_digits)
@settings(max_examples=200)
def test_maximal_against_oracle(digits):
    w = Word(digits)
    assert enumerate_maximal(w) == brute_maximal(w, 2)


@given(random_digits)
@settings(max_examples=200)
def test_distinct_against_oracle(digits):
    w = Word(digits)
    assert distinct_factors(w) == brute_distinct(w, 2)


def _assert_against_one_enumeration(w):
    """count_occurrences and distinct_factors against one brute
    enumeration of w's occurrences of length >= 2: their number, and
    the distinct slices."""
    occurrences = list(brute_occurrences(w, 2))
    assert count_occurrences(w) == len(occurrences)
    assert distinct_factors(w) == {
        Word(w.digits[start - 1 : start - 1 + length]) for start, length in occurrences
    }


def _random_word(rng):
    length = rng.randint(0, 300)
    sigma = rng.randint(1, 20)
    return Word(rng.randrange(sigma) for _ in range(length))


def test_random_battery():
    """Seeded sweep over longer words than hypothesis reaches."""
    rng = random.Random(20240811)
    for _ in range(120):
        w = _random_word(rng)
        _assert_against_one_enumeration(w)
        assert list(maximal_radii(w).lengths) == brute_radii(w)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_engine_on_generated_words(k):
    for n in range(9):
        w = word(k, n)
        _assert_against_one_enumeration(w)
        assert enumerate_maximal(w) == brute_maximal(w, 2)


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
    total = 0
    for length in maximal_radii(w).lengths:
        while length >= 2:
            total += 1
            length -= 2
    assert count_occurrences(w) == total


def test_radius_profile_invariants():
    for w in (word(3, 6), Word.parse("3434343"), Word((5, 5, 5, 5))):
        profile = maximal_radii(w)
        for c, m in enumerate(profile.lengths):
            if c % 2 == 0:
                assert m % 2 == 1 and m >= 1
            else:
                assert m % 2 == 0 and m >= 0


def _cuts_for(w, rng):
    return tuple(sorted(rng.sample(range(1, len(w)), rng.randint(1, len(w) - 1))))


def test_classify_crossing_against_oracle():
    # Alphabets of one or two digits give long palindromes that span
    # several cuts; up to len(w) - 1 cuts puts one between every digit.
    rng = random.Random(7)
    for _ in range(150):
        sigma = rng.choice((1, 2, 6))
        w = Word(rng.randrange(sigma) for _ in range(rng.randint(2, 80)))
        cuts = _cuts_for(w, rng)
        buckets = brute_crossing(list(brute_occurrences(w, 2)), cuts)
        got = classify_crossing(w, cuts)
        assert got.contained == buckets.count("contained")
        assert got.bordering == Counter(b for b in buckets if type(b) is int)
        assert 0 not in got.bordering.values()
        assert got.straddling == buckets.count("straddling")
        assert got.occurrences == got.total == len(buckets)
        assert count_occurrences(w) == got.occurrences
        assert enumerate_maximal(w) == brute_maximal(w, 2)


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
        profile = maximal_radii(w)
        assert list(profile.lengths) == expected
        assert profile.totals[len(w)] == sum(expected)


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

    def counted(counts, gaps, c, m):
        walked.append(c)
        original(counts, gaps, c, m)

    monkeypatch.setattr(palindromes, "_bucket", counted)
    got = classify_crossing(w, cuts, 2)
    assert 0 < len(walked) <= len(cuts) * (2 * reach + 1)
    assert got.total == got.occurrences == count_occurrences(w, 2)


def test_classify_crossing_single_block():
    w = word(3, 5)
    got = classify_crossing(w, (), 2)
    assert got.contained == count_occurrences(w, 2)
    assert got.straddling == 0 and not got.bordering
    # No cuts is one block on any word, the empty one included.
    got = classify_crossing(Word(), ())
    assert got.total == got.occurrences == 0


def test_classify_crossing_invalid_cuts():
    w = Word.parse("0102")
    for cuts in ((0,), (2, 2), (3, 1), (4,)):
        with pytest.raises(DomainError):
            classify_crossing(w, cuts, 2)
    with pytest.raises(DomainError, match="cut positions"):
        classify_crossing(Word(), (1,))


@pytest.mark.parametrize("k", range(3, 9))
def test_plan_read_profile_equals_the_built_words(k):
    # W_{3k+2} read by rule through its plan, never built, gives the
    # built word's profile, and its two maxima the lengths of the built
    # word's distinct palindromes.
    n = 3 * k + 2
    w = word(k, n)
    built = maximal_radii(w)
    read = palindromes._build_profile(words._PlanDigits(k), words._plan(k, n))
    assert (read.longest, dict(read.totals)) == (built.longest, dict(built.totals))
    assert read.lengths._patched == built.lengths._patched
    assert palindromes._length_set(read.lengths) == {len(p) for p in distinct_factors(w, 2)}


class _ReadLog:
    """A digit store with no length that records the slices read from
    it."""

    def __init__(self, ds):
        self.ds, self.slices = ds, []

    def __getitem__(self, i):
        if isinstance(i, slice):
            self.slices.append((i.start, i.stop, i.step))
        return self.ds[i]


def test_plan_build_reads_no_slice():
    # W_16 for k=16, whose palindromic prefixes and suffixes run nearly
    # the whole word: the walker reads them from centre lengths, and the
    # whole scan reads the base, W_0, in place, so every read is a digit
    # compare, and none asks the store its length.
    k = n = 16
    w = word(k, n)
    ds = _ReadLog(w.digits)
    profile = palindromes._build_profile(ds, w._plan)
    assert ds.slices == []
    assert _same_profile(profile, _whole_profile(w))


@given(st.one_of(random_digits, st.lists(st.integers(0, 2), max_size=60)))
@example([0, 0])
@example([0, 1, 0])
def test_length_set_of_a_planless_word(digits):
    w = Word(digits)
    assert palindromes._length_set(maximal_radii(w).lengths) == \
        {len(p) for p in brute_distinct(w, 2)}
