"""Word generation: printed fixtures, size laws, morphism identities."""

import copy
import pickle
import re
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from kbona import counting, palindromes, structure, verify, words
from kbona.words import (
    MAX_DIGIT,
    DigitOverflowError,
    DomainError,
    LengthGuardError,
    Word,
    apply_morphism,
    classical_word,
    kbonacci_number,
    morphism_word,
    reduce_mod_k,
    shift_add,
    suffix_pair,
    word,
)

from oracles import (
    ref_apply_morphism,
    ref_classical_word,
    ref_reduce_mod_k,
    ref_shift_add,
)

# Printed fixtures: (k, n, W_n, F_n).
PRINTED_WORDS = [
    (3, 0, "0", "0"),
    (3, 1, "01", "01"),
    (3, 2, "0102", "0102"),
    (3, 3, "0102013", "0102010"),
    (3, 4, "0102013010234", "0102010010201"),
    (3, 5, "010201301023401020133435", "010201001020101020100102"),
    (
        3,
        6,
        "01020130102340102013343501020130102343435346",
        "01020100102010102010010201020100102010102010",
    ),
    (
        4,
        6,
        "01020103010201401020103010245010201030102014010201034546",
        "01020103010201001020103010201010201030102010010201030102",
    ),
    (
        5,
        6,
        "0102010301020104010201030102015010201030102010401020103010256",
        "0102010301020104010201030102010010201030102010401020103010201",
    ),
    (
        6,
        6,
        "010201030102010401020103010201050102010301020104010201030102016",
        "010201030102010401020103010201050102010301020104010201030102010",
    ),
]


@pytest.mark.parametrize("k,n,w_expected,f_expected", PRINTED_WORDS)
def test_printed_words(k, n, w_expected, f_expected):
    assert word(k, n).to_plain() == w_expected
    assert classical_word(k, n).to_plain() == f_expected


def test_kbonacci_basics():
    assert kbonacci_number(3, 2) == 1
    assert kbonacci_number(3, 8) == 24
    assert kbonacci_number(4, 10) == 56
    assert [kbonacci_number(3, n) for n in range(8)] == [0, 0, 1, 1, 2, 4, 7, 13]


def test_kbonacci_memory_does_not_grow_with_k():
    # f_{k+j} = 2^j for 0 <= j < k. The k-1 leading zeros add nothing to
    # a sum, so the size table keeps the 63 terms up to 2^62, not a
    # window of k.
    tracemalloc.start()
    try:
        assert kbonacci_number(10**7, 10**7 + 20) == 2**20
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# The last k-bonacci number within the machine width, per k.
F74 = 7015254043203144209  # k = 3
LAST_SIZES = [
    (2, 92, 7540113804746346429),
    (3, 74, F74),
    (7, 70, 7305882881633980673),
    (10**7, 10**7 + 62, 2**62),
]


@pytest.mark.parametrize("k,m,f_m", LAST_SIZES, ids=[f"k={k}" for k, _, _ in LAST_SIZES])
def test_size_table_ends_at_the_machine_width(k, m, f_m):
    assert kbonacci_number(k, m) == f_m <= MAX_DIGIT
    assert words.kbonacci_sizes(k)[-1] == f_m
    assert len(words.kbonacci_sizes(k)) == m - k + 1 < 100
    with pytest.raises(DigitOverflowError, match=f"f_{m + 1} exceeds"):
        kbonacci_number(k, m + 1)


# word(3, n) against KBONA_MAX_LEN, where f_74 = |W_71| is the last size
# within the machine width: a request past the table overflows exactly
# when the guard admits every size in it.
GUARD_ROWS = [
    (MAX_DIGIT, [None, DigitOverflowError, DigitOverflowError]),
    (F74, [None, DigitOverflowError, DigitOverflowError]),
    (F74 - 1, [LengthGuardError] * 3),
]


@pytest.mark.parametrize("guard,raised", GUARD_ROWS, ids=["max-digit", "f74", "f74-1"])
def test_length_guard_at_the_machine_width(monkeypatch, guard, raised):
    monkeypatch.setenv("KBONA_MAX_LEN", str(guard))
    # Only the checks run: W_71 has f_74 digits.
    monkeypatch.setattr(words, "digits_at", lambda k, lo, hi: bytes(1))
    for n, error in zip((71, 72, 500), raised):
        if error is None:
            word(3, n)
            continue
        message = f"|W_{n}| = f_{n + 3} exceeds" if error is LengthGuardError else "f_75 exceeds"
        with pytest.raises(error, match=re.escape(message)):
            word(3, n)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7, 8])
def test_size_law(k):
    n_max = 14 if k <= 4 else 10
    for n in range(n_max + 1):
        assert len(word(k, n)) == kbonacci_number(k, n + k)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_generation_methods_agree(k):
    # The morphism route carries no plan; the recurrence carries one.
    for n in range(11):
        by_morphism, by_recurrence = morphism_word(k, n), word(k, n)
        assert by_morphism == by_recurrence
        assert not hasattr(by_morphism, "_plan") and hasattr(by_recurrence, "_plan")


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_prefix_chain(k):
    for n in range(12):
        shorter, longer = word(k, n), word(k, n + 1)
        assert longer.digits[: len(shorter)] == shorter.digits


def test_morphism_images():
    assert apply_morphism(3, Word.parse("0")).to_plain() == "01"
    assert apply_morphism(3, Word.parse("2")).to_plain() == "3"
    assert apply_morphism(3, Word.parse("012")).to_plain() == "01023"


def test_shift_add_examples():
    assert shift_add(5, Word.parse("01023")).to_plain() == "56578"
    w = Word.parse("0102")
    assert shift_add(0, w) == w
    assert shift_add(3, w).to_plain() == "3435"


def test_reduce_mod_k():
    assert reduce_mod_k(3, word(3, 5)) == classical_word(3, 5)
    assert reduce_mod_k(4, Word((4, 5, 4, 6, 4, 5, 4, 7))) == Word.parse("01020103")
    w = Word.parse("0102")
    assert reduce_mod_k(4, w) == w


@pytest.mark.parametrize("k", [3, 4, 5])
def test_mod_k_identity(k):
    for n in range(10):
        assert reduce_mod_k(k, word(k, n)) == classical_word(k, n)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_suffix_pair_matches_tails(k):
    for n in range(1, 13):
        w = word(k, n)
        if len(w) >= 2:
            assert suffix_pair(k, n) == (w.digits[-2], w.digits[-1])


def test_suffix_pair_examples():
    assert suffix_pair(3, 5) == (3, 5)
    assert suffix_pair(3, 6) == (4, 6)
    assert suffix_pair(4, 7) == (4, 7)
    with pytest.raises(DomainError):
        suffix_pair(3, 0)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_no_00_and_adjacency(k):
    for n in range(12):
        d = word(k, n).digits
        for a, b in zip(d, d[1:]):
            assert not (a == 0 and b == 0)
            assert b % k == 0 or a < b


@pytest.mark.parametrize("k", [3, 4, 5])
def test_last_digit(k):
    for n in range(1, 12):
        d = word(k, n).digits
        assert max(d) == n
        assert d.count(n) == 1
        assert d[-1] == n


@pytest.mark.parametrize("k", [3, 4])
def test_size_recurrence(k):
    sizes = [len(word(k, n)) for n in range(14)]
    for i in range(13):
        if i <= k - 2:
            assert sizes[i + 1] == 2 * sizes[i]
        elif i == k - 1:
            assert sizes[i + 1] == 2 * sizes[i] - 1
        else:
            assert sizes[i + 1] == 2 * sizes[i] - sizes[i - k]
        assert sizes[i + 1] <= 2 * sizes[i]


small_words = st.lists(st.integers(min_value=0, max_value=30), max_size=20).map(Word)


@given(small_words, st.integers(min_value=2, max_value=6))
def test_morphism_shift_commutation(w, k):
    assert apply_morphism(k, shift_add(k, w)) == shift_add(k, apply_morphism(k, w))


@pytest.mark.parametrize("k", [3, 4])
def test_power_commutation(k):
    for n in range(1, 7):
        for i in range(7):
            for j in range(7):
                lhs = Word((k * i + j,))
                rhs = Word((j,))
                for _ in range(n):
                    lhs = apply_morphism(k, lhs)
                    rhs = apply_morphism(k, rhs)
                assert lhs == shift_add(k * i, rhs)


@given(small_words)
def test_word_reversal_involution(w):
    assert w.reverse().reverse() == w


@given(small_words, small_words)
def test_concat_length(u, v):
    assert len(u + v) == len(u) + len(v)


def test_word_slicing_is_one_based():
    w = Word.parse("0102013")
    assert w.factor(2, 6).to_plain() == "10201"
    assert w.factor(3, 2) == Word()
    with pytest.raises(DomainError):
        w.factor(0, 3)


def test_parse_splits_on_any_whitespace_or_comma():
    expected = Word((3, 4, 13))
    for text in ("3 4 13", "3,4,13", "3\t4\t13", "3\n4\n13", "3\r\n4\r\n13\r\n",
                 " 3 ,\n 4,\v13 "):
        assert Word.parse(text) == expected, text
    # With no separator, each character is one digit.
    assert Word.parse("0102013") == Word((0, 1, 0, 2, 0, 1, 3))
    assert Word.parse("343\n") == Word((3, 4, 3))


def test_word_meets_only_words():
    assert Word.parse(" \t ") == Word()
    assert not Word((1,)) == (1,)
    with pytest.raises(TypeError):
        Word((1,)) + (1,)


def test_length_guard(monkeypatch):
    monkeypatch.setenv("KBONA_MAX_LEN", "50")
    with pytest.raises(LengthGuardError):
        word(3, 10)
    with pytest.raises(LengthGuardError):
        morphism_word(3, 10)
    with pytest.raises(LengthGuardError):
        classical_word(3, 10)
    monkeypatch.setenv("KBONA_MAX_LEN", "10000")
    assert len(word(3, 10)) == kbonacci_number(3, 13)


def test_domain_errors():
    with pytest.raises(DomainError):
        word(1, 3)
    with pytest.raises(DomainError):
        word(3, -1)
    with pytest.raises(DomainError):
        Word((-1,))
    with pytest.raises(DomainError):
        shift_add(-1, Word.parse("01"))
    with pytest.raises(DigitOverflowError):
        Word((2**63,))
    with pytest.raises(DomainError):
        Word((1.5,))
    with pytest.raises(DigitOverflowError):
        shift_add(1, Word((MAX_DIGIT,)))
    with pytest.raises(DigitOverflowError):
        apply_morphism(3, Word((MAX_DIGIT,)))
    with pytest.raises(DomainError):
        apply_morphism(1, Word.parse("0"))
    with pytest.raises(DigitOverflowError):
        shift_add(MAX_DIGIT, Word((1,)))
    with pytest.raises(DigitOverflowError):
        apply_morphism(3, Word((300, MAX_DIGIT)))
    with pytest.raises(DomainError):
        shift_add(1.5, Word.parse("01"))
    with pytest.raises(DomainError):
        reduce_mod_k(1, Word.parse("01"))
    with pytest.raises(DomainError):
        Word.parse("0x1")
    with pytest.raises(DomainError):
        Word((3, 300)).to_plain()
    with pytest.raises(DomainError):
        kbonacci_number(3, -1)
    for drop in (Word.drop_last, Word.drop_first):
        assert drop(Word.parse("012"), 3) == Word()
        with pytest.raises(DomainError):
            drop(Word.parse("012"), 4)
    # At the bound, and on the empty word, nothing overflows.
    assert shift_add(MAX_DIGIT, Word((0,))) == Word((MAX_DIGIT,))
    assert shift_add(MAX_DIGIT + 1, Word()) == Word()


@pytest.mark.parametrize(
    "entry",
    [
        lambda: counting.p_total(2, 3),
        lambda: structure.allowed_lengths(2),
        lambda: verify.verify_counts(2, 3),
    ],
    ids=["counting.p_total", "structure.allowed_lengths", "verify.verify_counts"],
)
def test_k_below_three_rejected_at_entry(entry):
    with pytest.raises(DomainError):
        entry()


def test_plain_format_refused_when_ambiguous():
    with pytest.raises(DomainError):
        word(3, 10).to_plain()
    assert Word((10, 3)).to_spaced() == "10 3"


# Digits on both sides of the byte boundary; small alphabets make factor
# matches likely.
byte_lists = st.lists(st.integers(0, 3) | st.integers(0, 255), max_size=16)
digit_lists = byte_lists | st.lists(
    st.integers(0, 3) | st.integers(254, 257) | st.integers(0, 300), max_size=16
)


def _assert_canonical(w, ds):
    """w holds the digits ds, in the form set by their content alone."""
    ds = list(ds)
    assert type(w.digits) is (bytes if all(d < 256 for d in ds) else tuple)
    assert list(w.digits) == ds
    assert w == Word(ds) and hash(w) == hash(Word(ds))


@given(digit_lists, digit_lists)
def test_canonical_store(xs, ys):
    u, v = Word(xs), Word(ys)
    _assert_canonical(u, xs)
    # The trailing comma selects separated parsing for one-digit words.
    _assert_canonical(Word.parse(",".join(map(str, xs)) + ","), xs)
    uv = u + v
    _assert_canonical(uv, xs + ys)
    _assert_canonical(v + u, ys + xs)
    _assert_canonical(uv.factor(1, len(xs)), xs)
    _assert_canonical(uv.factor(len(xs) + 1, len(xs) + len(ys)), ys)
    _assert_canonical(uv.drop_first(len(xs)), ys)
    _assert_canonical(uv.drop_last(len(ys)), xs)
    _assert_canonical(u.reverse(), xs[::-1])


def test_canonical_store_at_the_byte_boundary():
    assert Word().digits == b""
    assert Word.parse("255 0").digits == b"\xff\x00"
    assert Word.parse("256 0").digits == (256, 0)
    # A byte factor of a tuple word, and a tuple word reduced or dropped
    # below 256, take the bytes form.
    big = Word((256, 1, 2))
    assert big.factor(2, 3).digits == b"\x01\x02"
    assert big.drop_first().digits == b"\x01\x02"
    assert reduce_mod_k(3, big).digits == b"\x01\x01\x02"
    assert (Word((255,)) + big).digits == (255, 256, 1, 2)
    # shift_add up to 255 stays a byte word; one past it leaves the form.
    assert shift_add(1, Word((254, 0))).digits == b"\xff\x01"
    assert shift_add(2, Word((254, 0))).digits == (256, 2)
    assert shift_add(256, Word((0,))).digits == (256,)
    assert shift_add(0, big) == big


@pytest.mark.parametrize("w", [word(3, 5), Word((0, 300, 0, 1))], ids=["bytes", "tuple"])
def test_pickle_and_copy_round_trip(w):
    # Before and after a scan: a copy equals the word, keeps its store,
    # carries no profile and no block plan, and scans to the same lengths.
    for scanned in (False, True):
        if scanned:
            lengths = list(palindromes.maximal_radii(w).lengths)
        for clone in (pickle.loads(pickle.dumps(w)), copy.copy(w), copy.deepcopy(w)):
            assert clone == w and hash(clone) == hash(w)
            assert type(clone.digits) is type(w.digits)
            assert not any(hasattr(clone, a) for a in ("_radii", "_plan"))
            if scanned:
                assert list(palindromes.maximal_radii(clone).lengths) == lengths
    with pytest.raises(AttributeError):
        w._radii = None


@given(digit_lists, st.integers(0, 300))
def test_shift_add_matches_reference(ds, d):
    _assert_canonical(shift_add(d, Word(ds)), ref_shift_add(d, ds))


# Byte words at and past the last digits whose images stay in a byte.
BOUNDARY_WORDS = [(253,), (254,), (255,), (252, 253, 254, 255), tuple(range(256)),
                  (253, 256, 0)]


@pytest.mark.parametrize("k", range(2, 9))
def test_word_maps_match_references_at_the_byte_boundary(k):
    for ds in BOUNDARY_WORDS:
        w = Word(ds)
        _assert_canonical(apply_morphism(k, w), ref_apply_morphism(k, ds))
        _assert_canonical(reduce_mod_k(k, w), ref_reduce_mod_k(k, ds))
        for d in {0, 1, 2, k, max(255 - max(ds), 0), max(256 - max(ds), 0)}:
            _assert_canonical(shift_add(d, w), ref_shift_add(d, ds))


@settings(max_examples=30)
@given(digit_lists)
@pytest.mark.parametrize("k", range(2, 9))
def test_word_maps_match_references(k, ds):
    w = Word(ds)
    _assert_canonical(apply_morphism(k, w), ref_apply_morphism(k, ds))
    _assert_canonical(reduce_mod_k(k, w), ref_reduce_mod_k(k, ds))


@pytest.mark.parametrize("k", range(2, 9))
def test_classical_word_matches_reference(k):
    for n in range(13):
        _assert_canonical(classical_word(k, n), ref_classical_word(k, n))


@pytest.mark.parametrize("top", [9, 99, 255, 300])
@given(data=st.data())
def test_renderings_match_str_join(top, data):
    # Digits of one, two and three figures, the tuple store past 255, and
    # pieces short enough that a word spans several of them.
    ds = data.draw(st.lists(st.integers(0, 3) | st.integers(0, top), max_size=24))
    k = data.draw(st.integers(2, 12))
    w = Word(ds)
    reduced = [d % k for d in ds]
    for piece in (1, 5, words._PIECE):
        with mock.patch.object(words, "_PIECE", piece):
            assert w.to_spaced() == " ".join(map(str, ds))
            if all(d <= 9 for d in ds):
                assert w.to_plain() == "".join(map(str, ds))
            else:
                with pytest.raises(DomainError):
                    w.to_plain()
            ds_mod_k = reduce_mod_k(k, w).digits
            assert "".join(words._pieces(ds_mod_k, ", ")) == ", ".join(map(str, reduced))
            if all(d <= 9 for d in reduced):
                assert "".join(words._pieces(ds_mod_k, "")) == "".join(map(str, reduced))
            else:
                with pytest.raises(DomainError):
                    next(words._pieces(ds_mod_k, ""))


@pytest.mark.parametrize("piece", [1, 5, 64])
def test_plan_pieces_match_rendered_digits(piece):
    # Pieces of 1, 5 and 64 digits put W_n inside one leaf for small n,
    # and leaf edges and shifted leaves, mod k or not, past it. Words
    # past 2^13 digits are left out, which still reaches n = k + 3 for
    # every k. A refused plain format is refused before the first piece.
    with mock.patch.object(words, "_PIECE", piece):
        for k in range(2, 11):
            for n in range(3 * k + 3):
                if kbonacci_number(k, n + k) > 1 << 13:
                    break
                w = word(k, n)
                for sep in ("", " ", ", "):
                    for mod_k in (False, True):
                        ds = (reduce_mod_k(k, w) if mod_k else w).digits
                        try:
                            expected = "".join(words._pieces(ds, sep))
                        except DomainError:
                            with pytest.raises(DomainError, match="plain format"):
                                words._plan_pieces(k, n, sep, mod_k)
                            continue
                        got = "".join(words._plan_pieces(k, n, sep, mod_k))
                        assert got == expected, (k, n, sep, mod_k)


@pytest.mark.parametrize("piece", [1, 5, 64])
def test_leaf_joins_match_the_morphism(piece):
    # Leaves of 1, 5 and 64 digits put every W_n past the first few
    # levels on the leaf path, with leaves of one digit, of every shift,
    # and the level joins below them; the morphism route reads no plan.
    with mock.patch.object(words, "_PIECE", piece):
        for k in range(2, 11):
            w, n = Word((0,)), 0
            while len(w) <= 1 << 16:
                assert word(k, n).digits == w.digits, (k, n)
                w, n = apply_morphism(k, w), n + 1


def test_leaf_word_is_built_once_per_k():
    # word, digits_at and _plan_pieces all cut their leaves from one W_L
    # per (k, L), and W_L is the digits of word(k, L) itself.
    k = 5
    leaf = words._leaf_level(k)
    words._leaf_digits.cache_clear()
    assert word(k, 3).digits == morphism_word(k, 3).digits
    assert word(k, leaf).digits is words._leaf_digits(k, leaf)
    ds = word(k, leaf + 3).digits
    assert words.digits_at(k, 1000, 200_000) == ds[1000:200_000]
    assert "".join(words._plan_pieces(k, leaf + 3, " ", False)) == word(k, leaf + 3).to_spaced()
    assert words._leaf_digits.cache_info().misses == 1


def test_generation_copies_each_digit_once_per_level():
    # Past W_L, the word is one join of its plan's leaves, each made
    # once, so the peak is W_23 itself, about 7.8 M digits, and the few
    # leaves: 1.04 bytes per digit for k = 7.
    tracemalloc.start()
    try:
        ds = word(7, 23).digits
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ds) == kbonacci_number(7, 30)
    assert peak <= 1.1 * len(ds)


def _largest_n(k: int, cap: int = 1 << 20) -> int:
    """The largest n with |W_n| <= cap."""
    return max(n for n, size in enumerate(words.kbonacci_sizes(k)) if size <= cap)


@st.composite
def digit_ranges(draw):
    """(k, n, lo, hi) for a W_n of at most 2^20 digits, k = 2..10: a
    range anywhere in W_n, or one within a few digits of a chunk edge of
    the plan reader or of a leaf edge of the block plan."""
    k = draw(st.integers(2, 10))
    n = draw(st.integers(0, _largest_n(k)))
    size = words.kbonacci_sizes(k)[n]
    if draw(st.booleans()):
        lo = draw(st.integers(0, size))
        return k, n, lo, draw(st.integers(lo, size))
    leaves = [dst for dst, _, _ in words.regions(k, 0, size)]
    chunks = range(0, size, 1 << words._CHUNK_BITS)
    edge = draw(st.sampled_from(leaves + list(chunks)))
    lo = draw(st.integers(max(edge - 40, 0), min(edge, size)))
    return k, n, lo, draw(st.integers(lo, min(edge + 40, size)))


@settings(max_examples=200, deadline=None)
@given(digit_ranges())
@example((3, 22, 35888, 35893))  # across the end of the first leaf, W_17
@example((7, 20, 1023, 1025))  # across a chunk edge
def test_digits_at_equals_a_slice_of_the_built_word(case):
    k, n, lo, hi = case
    assert words.digits_at(k, lo, hi) == word(k, n).digits[lo:hi]


@pytest.mark.parametrize("k", range(2, 11))
def test_regions_tile_the_word(k):
    # The leaves of the whole of the largest W_n of at most 2^20 digits
    # follow one another and join to phi_k^n(0), which reads no plan:
    # every block of every level and its shift is checked.
    n = _largest_n(k)
    ds = morphism_word(k, n).digits
    small = word(k, words._leaf_level(k)).digits
    at, joined = 0, []
    for dst, m, s in words.regions(k, 0, len(ds)):
        assert dst == at and m <= words._leaf_level(k)
        at += words.kbonacci_sizes(k)[m]
        joined.append(small[: words.kbonacci_sizes(k)[m]].translate(words._shift_table(s)))
    assert b"".join(joined) == ds
    assert words.digits_at(k, 0, len(ds)) == ds
    assert list(words.regions(k, 5, 5)) == [] and words.digits_at(k, 5, 5) == b""
    for lo, hi in ((-1, 2), (3, 2), (0, words.kbonacci_sizes(k)[-1] + 1)):
        with pytest.raises(DomainError):
            words.digits_at(k, lo, hi)


@pytest.mark.parametrize("k, n", [(3, 13), (5, 16), (8, 20)])
def test_plan_reader_reads_the_built_word(k, n):
    # Every digit around each chunk edge of W_{n+1}, past |W_n| too, read
    # in a fresh reader and again from the chunks it keeps, as the built
    # word holds them; the reader is the fixed point's, so it reads
    # within the size table and refuses a digit past it.
    ds = word(k, n + 1).digits
    for reader in (words._PlanDigits(k),) * 2:
        for edge in range(0, len(ds) + 1, 1 << words._CHUNK_BITS):
            for i in range(max(edge - 2, 0), min(edge + 2, len(ds))):
                assert reader[i] == ds[i], i
    assert sorted(reader._chunks) == list(range(((len(ds) - 1) >> words._CHUNK_BITS) + 1))
    end = words.kbonacci_sizes(k)[-1]
    assert reader[end - 1] == words.digits_at(k, end - 1, end)[0]
    with pytest.raises(IndexError):
        reader[end]
    with pytest.raises(DomainError):
        reader[-1]
    fresh = words._PlanDigits(k)
    fresh[5], fresh[1023]
    assert sorted(fresh._chunks) == [0]
    fresh[2101]
    assert sorted(fresh._chunks) == [0, 2]
    assert fresh[2048] == ds[2048] and fresh[3071] == ds[3071]
