"""Word generation: printed fixtures, size laws, morphism identities."""

import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from kbona import counting, structure, verify
from kbona.words import (
    MAX_DIGIT,
    DigitOverflowError,
    DomainError,
    GenMethod,
    LengthGuardError,
    Word,
    apply_morphism,
    classical_word,
    kbonacci_number,
    reduce_mod_k,
    shift_add,
    suffix_pair,
    word,
)

from oracles import (
    brute_contains,
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
    # a sum, so reaching f_{k+20} keeps 21 terms, not a window of k.
    tracemalloc.start()
    try:
        assert kbonacci_number(10**7, 10**7 + 20) == 2**20
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7, 8])
def test_size_law(k):
    n_max = 14 if k <= 4 else 10
    for n in range(n_max + 1):
        assert len(word(k, n)) == kbonacci_number(k, n + k)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_generation_methods_agree(k):
    for n in range(11):
        assert word(k, n, GenMethod.MORPHISM) == word(k, n, GenMethod.RECURRENCE)


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


def test_length_guard():
    with pytest.raises(LengthGuardError):
        word(3, 10, max_len=50)
    with pytest.raises(LengthGuardError):
        classical_word(3, 10, max_len=50)
    assert len(word(3, 10, max_len=10_000)) == kbonacci_number(3, 13)


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


@given(digit_lists, st.integers(0, 300))
def test_shift_add_matches_reference(ds, d):
    _assert_canonical(shift_add(d, Word(ds)), ref_shift_add(d, ds))


@given(digit_lists, digit_lists, st.data())
def test_contains_matches_brute_search(xs, ys, data):
    i = data.draw(st.integers(0, len(xs)))
    j = data.draw(st.integers(i, len(xs)))
    for hay, needle in ((xs, ys), (ys, xs), (xs, xs[i:j]), (ys + xs[i:j], xs[i:j])):
        assert Word(hay).contains(Word(needle)) == brute_contains(hay, needle)


@pytest.mark.parametrize(
    "hay,needle,found",
    [
        ((1, 2, 3), (2, 3), True),  # bytes in bytes
        ((1, 2, 3), (3, 2), False),
        ((1, 2), (300,), False),  # tuple in bytes
        ((1, 300, 2), (300, 2), True),  # tuple in tuple
        ((1, 300, 2), (2, 300), False),
        ((1, 300, 2), (1,), True),  # bytes in tuple
        ((1, 300, 2), (1, 2), False),
        ((1, 300, 2), (), True),
        ((), (), True),
    ],
)
def test_contains_across_forms(hay, needle, found):
    assert Word(hay).contains(Word(needle)) is found


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
    ds = data.draw(st.lists(st.integers(0, 3) | st.integers(0, top), max_size=24))
    w = Word(ds)
    assert w.to_spaced() == " ".join(map(str, ds))
    if all(d <= 9 for d in ds):
        assert w.to_plain() == "".join(map(str, ds))
    else:
        with pytest.raises(DomainError):
            w.to_plain()
