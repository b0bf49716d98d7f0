"""Core word machinery: k-bonacci numbers and k-bonacci words over the
infinite alphabet of nonnegative integers.

Two independent routes generate W_n, one function each: `word` by the
block recurrence, with its block plan, and `morphism_word` as the last
word of the phi_k orbit of 0 (`_orbit`, which also iterates psi_k for
`classical_word`). They must agree everywhere; the tests hold them to it.

Digit store: `Word.digits` is a `bytes` object when every digit is below
256, and a tuple of ints otherwise. The form depends only on the digits,
so equal words have equal stores and hashes. Every generated word takes
the bytes form: the largest digit of W_n is n (of F_n, at most n), and
|W_n| = f_{n+k} passes the machine width before n reaches 100, so the
length checks admit no n near 256. Generation, the morphism, shifts,
mod-k reduction and rendering therefore run as C-level `bytes`
operations (`translate`, slicing, `join`), as do factor tests on the
digits (`in`, `find`); the tuple form serves only words from outside
input and shifts past 255.

The sizes |W_0|, |W_1|, ... are one cached table per k,
`kbonacci_sizes`, which ends at the machine width. Generation cuts its
views by it, the length guard compares one entry of it, and `verify`
reads its decomposition cuts, its default sweep bound and each prefix
W_{n2} of the structure suite's one word from it.

A long word is held once. W_L, the largest word of at most `_PIECE`
digits, is built once per k by `_leaf_digits`, the only code that joins
levels, each level W_m one `b"".join` of views of W_{m-1}, and is kept.
Past W_L, the block plan is a straight-line program whose leaves are
shifted prefixes of W_L. One walker, `regions`, walks it for the digits
lo..hi-1 of the fixed point, node s ⊕ W_m being node s ⊕ W_{m-1}
followed by level m's blocks, and enters only the nodes that meet them.
One leaf walk, `_plan_leaves`, makes each of those leaves from W_L, cut
to [lo, hi), once, and yields it again wherever the plan repeats it.
`digits_at` is the join of that walk, so each digit is written once, and
W_n is `digits_at` over all of it: a cut of W_L for n <= L, and one join
of |W_n| bytes past it. `_PlanDigits` reads the digits of W^(k) by
index for a radius profile built without the word: an index reads a
chunk by `digits_at` and keeps it. The blocks of each level come from
one function, `_block_levels`, and `word` keeps them on the word as its
block plan, rooted at W_0, from which `palindromes` builds the radius
profile: a chain, whose every block copies W_0 or the word at the end
of an earlier level. Only `word` attaches a plan, to the digits it
joined from it, so the plan is read as the word and never compared with
the digits. Text is rendered by one renderer, `_pieces`, in pieces of
`_PIECE` digits, and reduces no digit: `to_plain` and `to_spaced` join
its pieces. `kbona gen` renders W_n from the same leaf walk instead, by
`_plan_pieces`: each leaf, reduced mod k there under --mod-k, is rendered
by `_pieces` once and written again by reference wherever the plan
repeats it, so W_n is never built and no whole rendering is ever held.
"""

from __future__ import annotations

import bisect
import functools
import os
from collections.abc import Callable, Iterable, Iterator
from itertools import chain

# Digits are conceptually machine-width; anything past 2**63 - 1 is treated
# as arithmetic overflow rather than silently growing.
MAX_DIGIT = 2**63 - 1

# Generation guard: |W_n| grows like 2**n, so refuse absurd requests
# instead of filling memory. _check_request alone reads it and its
# override, the KBONA_MAX_LEN environment variable.
DEFAULT_MAX_LEN = 1 << 26


class DomainError(ValueError):
    """A parameter is outside the range an operation is defined on."""


class LengthGuardError(ValueError):
    """Generating the requested word would exceed the length guard."""


class DigitOverflowError(OverflowError):
    """A digit computation exceeded the machine-width contract."""


# The pad byte of the two-slot morphism images, deleted once an image is
# written: a byte word takes that path only while every image digit stays
# below it.
_PAD = 255
# d -> d + 1 for every byte digit below the pad.
_SUCCESSOR = bytes(range(1, 256)) + bytes([_PAD])
# The decimal columns of a byte digit: hundreds, tens, units. A column
# left of the digit's leading figure holds the pad byte 0.
_COLUMNS = tuple(
    bytes(ord("0") + d // p % 10 if d >= p or p == 1 else 0 for d in range(256))
    for p in (100, 10, 1)
)
# Digits per rendered piece: the temporaries of a piece stay a few hundred
# kB however long the word is, and the per-piece Python work is small
# against the C-level passes over 2^16 digits.
_PIECE = 1 << 16


def _store(ds: tuple[int, ...]) -> bytes | tuple[int, ...]:
    """The canonical digit store of nonnegative int digits: bytes when
    every digit fits in one, else the tuple itself."""
    try:
        return bytes(ds)
    except ValueError:
        return ds


@functools.lru_cache(maxsize=256)
def _bytes_below(bound: int) -> bytes:
    return bytes(range(bound))


def _all_below(ds: bytes, bound: int) -> bool:
    """Every digit of the byte store ds is below bound, in one C pass."""
    return not ds.translate(None, _bytes_below(bound))


class Word:
    """An immutable finite word of nonnegative integer digits.

    Public slicing is 1-based and inclusive on both ends, matching the
    usual W[j, j'] convention for factors. `digits` is bytes when every
    digit is below 256 and a tuple of ints otherwise (see the module
    docstring); indexing and iterating either yields ints.

    `_radii` holds the word's radius profile once `maximal_radii` has
    built it, and is unset before: the profile is computed once per
    word, is read-only, and lives as long as the word. It keeps the
    lengths of the plan's kept prefix, 8 bytes per digit of it, and
    resolves every other centre through the plan. `_plan` is set on a
    word that `word` generates by the recurrence, and unset on every
    other: it is the block plan the word was joined from, (|W_j|,
    levels 1..n of `_block_levels`), W_j = W_{min(n, k-1)} the kept
    prefix, from which `maximal_radii` builds the profile, and
    `enumerate_maximal` and `distinct_factors` their sets of palindromes
    from the profile. The digits are the plan's join, so the plan is
    trusted as it is. Equality, hashing, pickling and copying see the
    digits alone, so a copy carries neither a profile nor a plan.
    """

    __slots__ = ("digits", "_radii", "_plan")

    digits: bytes | tuple[int, ...]

    def __init__(self, digits: Iterable[int] = ()):
        ds = tuple(digits)
        for d in ds:
            if not isinstance(d, int) or d < 0:
                raise DomainError(f"digits must be nonnegative integers, got {d!r}")
            if d > MAX_DIGIT:
                raise DigitOverflowError(f"digit {d} exceeds machine width")
        object.__setattr__(self, "digits", _store(ds))

    @classmethod
    def _unchecked(cls, digits: bytes | Iterable[int]) -> "Word":
        # Skips the per-digit check: only for digits taken from existing
        # Words, or computed from them under a checked overflow bound.
        # A bytes store is canonical already; anything else is brought to
        # canonical form.
        w = object.__new__(cls)
        if type(digits) is not bytes:
            digits = _store(tuple(digits))
        object.__setattr__(w, "digits", digits)
        return w

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    def __reduce__(self):
        return (Word._unchecked, (self.digits,))

    @classmethod
    def parse(cls, text: str) -> "Word":
        """Parse a word from text: either contiguous single digits
        ("0102013") or whitespace/comma separated integers ("45 46 45")."""
        text = text.strip()
        if "," in text or any(map(str.isspace, text)):
            parts = text.replace(",", " ").split()
        else:
            parts = list(text)
        try:
            return cls(int(p) for p in parts)
        except ValueError as exc:
            raise DomainError(f"cannot parse word from {text!r}") from exc

    def __len__(self) -> int:
        return len(self.digits)

    def __eq__(self, other) -> bool:
        if isinstance(other, Word):
            return self.digits == other.digits
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.digits)

    def __add__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        a, b = self.digits, other.digits
        if type(a) is not type(b):
            a, b = tuple(a), tuple(b)
        return Word._unchecked(a + b)

    def factor(self, j: int, jp: int) -> "Word":
        """The factor W[j, j'] with 1-based inclusive bounds; empty when
        j' < j."""
        if jp < j:
            return Word()
        if not (1 <= j and jp <= len(self.digits)):
            raise DomainError(
                f"factor bounds [{j},{jp}] out of range 1..{len(self.digits)}"
            )
        return Word._unchecked(self.digits[j - 1 : jp])

    def reverse(self) -> "Word":
        return Word._unchecked(self.digits[::-1])

    def drop_last(self, count: int = 1) -> "Word":
        """Remove the last `count` digits (the paper's suffix-inverse)."""
        if count > len(self.digits):
            raise DomainError("cannot drop more digits than the word has")
        return Word._unchecked(self.digits[: len(self.digits) - count])

    def drop_first(self, count: int = 1) -> "Word":
        if count > len(self.digits):
            raise DomainError("cannot drop more digits than the word has")
        return Word._unchecked(self.digits[count:])

    def to_plain(self) -> str:
        """Contiguous decimal rendering; refused when any digit exceeds 9
        because the result would be ambiguous."""
        return "".join(_pieces(self.digits, ""))

    def to_spaced(self) -> str:
        return "".join(_pieces(self.digits, " "))

    def __repr__(self) -> str:
        ds = self.digits
        if type(ds) is bytes and _all_below(ds, 10):
            return f"Word({self.to_plain()!r})"
        return f"Word({self.to_spaced()!r})"


def _plain_refusal() -> DomainError:
    return DomainError("plain format is ambiguous for digits > 9; use spaced or json")


def _pieces(ds: bytes | tuple[int, ...], sep: str) -> Iterator[str]:
    """The decimal text of the digits of ds as they are, separated by sep,
    in pieces of _PIECE digits; every piece but the last ends with sep,
    so the pieces concatenate to the whole text. An empty sep is the
    plain format, refused with DomainError before the first piece when a
    digit exceeds 9, because the text would be ambiguous."""
    if not sep and (type(ds) is not bytes or not _all_below(ds, 10)):
        raise _plain_refusal()
    gap = sep.encode("ascii")
    for start in range(0, len(ds), _PIECE):
        piece = ds[start : start + _PIECE]
        last = start + _PIECE >= len(ds)
        if type(piece) is not bytes:
            yield sep.join(map(str, piece)) + ("" if last else sep)
            continue
        # Each digit takes a slot of `width` columns and the separator;
        # the pad bytes left of a narrower digit's leading figure are
        # deleted.
        big = piece.translate(None, _bytes_below(10))
        width = 1 if not big else 2 if _all_below(big, 100) else 3
        out = bytearray(bytes(width) + gap) * len(piece)
        for col, column in enumerate(_COLUMNS[3 - width :]):
            out[col :: width + len(gap)] = piece.translate(column)
        if last and gap:
            del out[-len(gap) :]
        out = out.translate(None, b"\0")  # frees the padded buffer
        yield out.decode("ascii")


def require_k(k: int, minimum: int = 2) -> None:
    """The one k-range check: word generation needs k >= 2, and the
    palindrome results (counting, structure, verification) need k >= 3."""
    if not isinstance(k, int) or k < minimum:
        raise DomainError(f"k must be an integer >= {minimum}, got {k!r}")


@functools.lru_cache(maxsize=256)
def kbonacci_sizes(k: int) -> tuple[int, ...]:
    """|W_0|, |W_1|, ...: the k-bonacci numbers f_k, f_{k+1}, ..., every
    one of them within the machine width (fewer than 100 for any k).

    f_m is the sum of the k terms before it. The k-1 leading zeros add
    nothing to it, so the sum reads at most the last k kept terms, from
    f_{k-1} = 1 on: the table costs the same for k = 10**7 as for k = 64."""
    require_k(k)
    terms = [1]
    while (nxt := sum(terms[-k:])) <= MAX_DIGIT:
        terms.append(nxt)
    return tuple(terms[1:])


def kbonacci_number(k: int, n: int) -> int:
    """The n-th k-bonacci number: k-1 leading zeros, then 1, then each
    term the sum of the previous k."""
    require_k(k)
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    if n <= k - 2:
        return 0
    if n == k - 1:
        return 1
    sizes = kbonacci_sizes(k)
    if n - k >= len(sizes):
        raise DigitOverflowError(
            f"k-bonacci number f_{k + len(sizes)} exceeds machine width"
        )
    return sizes[n - k]


@functools.lru_cache(maxsize=256)
def _shift_table(d: int) -> bytes:
    """x -> x + d for the bytes x < 256 - d (0 <= d < 256)."""
    return bytes(range(d, 256)) + bytes(d)


@functools.lru_cache(maxsize=256)
def _mod_table(k: int) -> bytes:
    """x -> x mod k for every byte x."""
    return bytes(x % k for x in range(256))


@functools.lru_cache(maxsize=256)
def _morphism_table(k: int) -> bytes:
    """The first image digit, d - j for j = d mod k <= k-2, and the pad
    for j = k-1, whose image is the single digit d + 1."""
    return bytes(d - d % k if d % k <= k - 2 else _PAD for d in range(256))


def _two_slot_image(ds: bytes, first: bytes, second: bytes) -> bytes:
    """The image of ds under a morphism sending digit d to
    first[d] second[d] with the pad bytes removed: each table fills one
    parity of a 2|ds| buffer."""
    out = bytearray(2 * len(ds))
    out[0::2] = ds.translate(first)
    out[1::2] = ds.translate(second)
    out = out.translate(None, bytes([_PAD]))  # frees the 2|ds| buffer
    return bytes(out)


def apply_morphism(k: int, w: Word) -> Word:
    """Image of w under the infinite-alphabet morphism:
    ki+j -> (ki)(ki+j+1) for 0 <= j <= k-2, and ki+(k-1) -> (ki+k)."""
    require_k(k)
    ds = w.digits
    if type(ds) is bytes and _all_below(ds, _PAD - 1):
        return Word._unchecked(_two_slot_image(ds, _morphism_table(k), _SUCCESSOR))
    if ds and max(ds) + 1 > MAX_DIGIT:
        raise DigitOverflowError("morphism image digit exceeds machine width")
    out: list[int] = []
    for d in ds:
        j = d % k
        if j <= k - 2:
            out.append(d - j)
        out.append(d + 1)
    return Word._unchecked(out)


def shift_add(d: int, w: Word) -> Word:
    """Add d to every digit (the paper's d ⊕ W)."""
    if not isinstance(d, int) or d < 0:
        raise DomainError(f"shift must be a nonnegative integer, got {d!r}")
    ds = w.digits
    if type(ds) is bytes and d < 256 and _all_below(ds, 256 - d):
        return Word._unchecked(ds.translate(_shift_table(d)))
    if ds and max(ds) + d > MAX_DIGIT:
        raise DigitOverflowError("shifted digit exceeds machine width")
    return Word._unchecked(tuple(x + d for x in ds))


def reduce_mod_k(k: int, w: Word) -> Word:
    require_k(k)
    ds = w.digits
    if type(ds) is bytes:
        return Word._unchecked(ds.translate(_mod_table(k)))
    return Word._unchecked(tuple(x % k for x in ds))


def _check_request(k: int, n: int) -> int:
    """The checks every generator makes first, and the one place that sets
    how many digits a word may have, which it returns: the KBONA_MAX_LEN
    environment variable (a positive integer) when set, else DEFAULT_MAX_LEN."""
    require_k(k)
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    raw = os.environ.get("KBONA_MAX_LEN", DEFAULT_MAX_LEN)
    try:
        guard = int(raw)
    except ValueError as exc:
        raise DomainError(f"KBONA_MAX_LEN must be an integer, got {raw!r}") from exc
    if guard <= 0:
        raise DomainError(f"KBONA_MAX_LEN must be a positive integer, got {guard}")
    # |W_n| = f_{n+k} is a table entry when it fits the machine width.
    # Past the table, the last entry stands for it: the sizes never
    # decrease, so the request is past the guard if that entry is, and is
    # an overflow only when the guard admits every size that fits.
    sizes = kbonacci_sizes(k)
    if sizes[min(n, len(sizes) - 1)] > guard:
        raise LengthGuardError(
            f"|W_{n}| = f_{n + k} exceeds the length guard {guard} (k={k})"
        )
    kbonacci_number(k, n + k)  # raises DigitOverflowError past the table
    return guard


@functools.lru_cache(maxsize=256)
def _block_levels(k: int) -> tuple[tuple[int, tuple[tuple[int, int, int], ...], int], ...]:
    """The block plan of every W_m up to the last in the size table: level
    m as (size, blocks, end), where W_m appends to W_{m-1}, its first
    `size` digits, the blocks (start, length, shift), each the prefix of
    that length shifted by that much, up to digit `end`. Entry m - 1 is
    level m, and every word of one k shares these tuples.

    Block recurrence: W_0 = 0; W_m = W_{m-1} ... W_0 m for m < k, where
    the digit m is m ⊕ W_0; W_m = W_{m-1} ... W_{m-k+1} (k ⊕ W_{m-k}) for
    m >= k. Each W_i with i < m is a prefix of W_{m-1}."""
    sizes = kbonacci_sizes(k)
    levels, size = [], sizes[0]
    for m in range(1, len(sizes)):
        blocks, end = [], size
        for i, shift in (*((i, 0) for i in range(m - 2, max(m - k, -1), -1)),
                         (max(m - k, 0), min(m, k))):
            blocks.append((end, sizes[i], shift))
            end += sizes[i]
        levels.append((size, tuple(blocks), end))
        size = end
    return tuple(levels)


def _leaf_level(k: int) -> int:
    """L, where W_L is the largest word of at most _PIECE digits."""
    return bisect.bisect_right(kbonacci_sizes(k), _PIECE) - 1


@functools.lru_cache(maxsize=16)
def _leaf_digits(k: int, leaf: int) -> bytes:
    """W_L, for leaf = L, built once per (k, L) and kept: every leaf of a
    plan is a shifted cut of it. Each level W_m is one join of views of
    W_{m-1}, each view cut at its size, so every digit is copied once
    per level; this is the only place that joins levels."""
    prev = bytes(1)
    for _, blocks, _ in _block_levels(k)[:leaf]:
        view = memoryview(prev)
        prev = b"".join([
            view,
            *(prev[:length].translate(_shift_table(shift)) if shift else view[:length]
              for _, length, shift in blocks),
        ])
        del view  # W_{m-1} is freed here, not during the next level
    return prev


def _plan(k: int, n: int) -> tuple:
    """The block plan of W_n that `word` attaches: (|W_j|, levels 1..n of
    `_block_levels`), W_j = W_{min(n, k-1)} the prefix the profile keeps."""
    return kbonacci_sizes(k)[min(n, k - 1)], _block_levels(k)[:n]


def word(k: int, n: int) -> Word:
    """The finite k-bonacci word W_n over the infinite alphabet, by the
    block recurrence: one join of the leaves of its plan, which it
    carries (`_plan`). Its digits are at most n, far below 256."""
    _check_request(k, n)
    w = Word._unchecked(digits_at(k, 0, kbonacci_sizes(k)[n]))
    object.__setattr__(w, "_plan", _plan(k, n))
    return w


def morphism_word(k: int, n: int) -> Word:
    """W_n = phi_k^n(0), the last word of the phi_k orbit of 0, under the
    length guard of `word`; it carries no plan."""
    _check_request(k, n)
    for w in _orbit(functools.partial(apply_morphism, k), Word._unchecked(bytes(1)), n):
        pass
    return w


def _orbit(image: Callable[[Word], Word], w: Word, count: int) -> Iterator[Word]:
    """w, image(w), ..., image^count(w), each made when it is reached."""
    yield w
    for _ in range(count):
        w = image(w)
        yield w


def _plan_pieces(k: int, n: int, sep: str, mod_k: bool) -> Iterator[str]:
    """The text of W_n, digits separated by sep and reduced mod k with
    mod_k, as _pieces renders word(k, n).digits, but rendered leaf by leaf
    from the block plan (`_plan_leaves`, leaves reduced mod k under mod_k)
    so that W_n is never built. Checks the request and refuses the plain
    format (the largest digit of W_n is n, or min(n, k - 1) after
    reduction) when called, before the first piece."""
    _check_request(k, n)
    if not sep and (min(n, k - 1) if mod_k else n) > 9:
        raise _plain_refusal()
    texts = _plan_leaves(k, 0, kbonacci_sizes(k)[n], k if mod_k else 0,
                         lambda ds: "".join(_pieces(ds, sep)))
    return chain([next(texts)], chain.from_iterable((sep, t) for t in texts))


def _plan_leaves(k: int, lo: int, hi: int, mod: int, make: Callable[[bytes], object]) -> Iterator:
    """make(ds) for each leaf of the block plan that holds the digits
    lo..hi-1 of the fixed point (`regions`), in order: ds is the leaf's
    digits cut to [lo, hi), a cut of W_L (`_leaf_digits`) shifted by the
    leaf's shift, then reduced mod `mod` when that is nonzero. Each
    (shift, cut) is made the first time it is reached, and every later
    use yields the same object again."""
    small = _leaf_digits(k, _leaf_level(k))
    sizes = kbonacci_sizes(k)
    made = {}
    for dst, m, s in regions(k, lo, hi):
        if mod:
            s %= mod
        key = s, max(lo - dst, 0), min(hi - dst, sizes[m])
        out = made.get(key)
        if out is None:
            ds = small[key[1] : key[2]]
            ds = ds.translate(_shift_table(s)) if s else ds
            out = made[key] = make(ds.translate(_mod_table(mod)) if mod else ds)
        yield out


def regions(k: int, lo: int, hi: int) -> Iterator[tuple[int, int, int]]:
    """The leaves of the block plan that hold the digits lo..hi-1 of the
    fixed point W^(k), in order, each as (dst, m, s): s ⊕ W_m with
    m <= L, the prefix of W_L of |W_m| digits shifted by s, starting at
    digit dst. The first leaf may start before lo and the last end past
    hi; an empty range has none.

    The walk starts from the shortest W_n that holds the range. A node
    (dst, m, s) stands for s ⊕ W_m at digit dst: past L it is node
    (dst, m - 1, s) followed by each block (start, |W_i|, t) of level m
    as node (dst + start, i, s + t), and a child that misses the range
    is not entered."""
    sizes = kbonacci_sizes(k)
    if not 0 <= lo <= hi <= sizes[-1]:
        raise DomainError(f"digit range [{lo}, {hi}) is outside 0..{sizes[-1]} (k={k})")
    levels = _block_levels(k)
    leaf = _leaf_level(k)
    stack = [(0, bisect.bisect_left(sizes, hi), 0)] if lo < hi else []
    while stack:
        dst, m, s = stack.pop()
        if m <= leaf:
            yield dst, m, s
            continue
        # Pushed in reverse, the children come off in word order.
        for start, length, t in reversed(levels[m - 1][1]):
            if dst + start < hi and lo < dst + start + length:
                stack.append((dst + start, bisect.bisect_left(sizes, length), s + t))
        if lo < dst + sizes[m - 1]:
            stack.append((dst, m - 1, s))


def digits_at(k: int, lo: int, hi: int) -> bytes:
    """The digits lo..hi-1 (0-based) of the fixed point W^(k), so of every
    W_n that holds them, read from the block plan without building W_n:
    one join of the leaves of `_plan_leaves`."""
    return b"".join(_plan_leaves(k, lo, hi, 0, bytes))


# A _PlanDigits keeps the digits it is asked for one at a time in chunks
# of 2^_CHUNK_BITS: the digits a profile build compares lie near block
# edges, a few hundred at each, so a chunk is about one edge's reads.
_CHUNK_BITS = 10
_CHUNK_MASK = (1 << _CHUNK_BITS) - 1


class _PlanDigits:
    """The digits of the fixed point W^(k) read by rule, by `ds[i]` only,
    for a radius profile built from a plan without its word: every W_n
    is a prefix of W^(k), and the profile build reads no digit past its
    word's end. An index reads the chunk of 2^_CHUNK_BITS digits that
    holds it by `digits_at` when first touched and keeps it, so a later
    index there costs one dict lookup."""

    __slots__ = ("_k", "_chunks")

    def __init__(self, k: int):
        self._k = k
        self._chunks = {}

    def __getitem__(self, index: int) -> int:
        j = index >> _CHUNK_BITS
        try:
            return self._chunks[j][index & _CHUNK_MASK]
        except KeyError:
            lo = j << _CHUNK_BITS
            hi = min(lo + (1 << _CHUNK_BITS), kbonacci_sizes(self._k)[-1])
            chunk = self._chunks[j] = digits_at(self._k, lo, hi)
            return chunk[index & _CHUNK_MASK]


def classical_word(k: int, n: int) -> Word:
    """The classical k-bonacci word F_n = psi_k^n(0) over {0, ..., k-1},
    the last word of the psi_k orbit of 0."""
    _check_request(k, n)
    for f in _orbit(_psi(k), Word._unchecked(bytes(1)), n):
        pass
    return f


def _psi(k: int) -> Callable[[Word], Word]:
    """psi_k: i -> 0(i+1) for i <= k-2, (k-1) -> 0, on words over
    {0, ..., k-1}, whose byte digits never reach the pad."""
    zeros = bytes(256)
    second = bytes(_SUCCESSOR[d] if d <= k - 2 else _PAD for d in range(256))
    return lambda f: Word._unchecked(_two_slot_image(f.digits, zeros, second))


def suffix_pair(k: int, n: int) -> tuple[int, int]:
    """The last two digits of W_n in closed form: (n-j, n) when
    n ≡ j (mod k) with 1 <= j <= k-1, and (n-k+1, n) when k divides n."""
    require_k(k, 3)
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    j = n % k
    if j == 0:
        return (n - k + 1, n)
    return (n - j, n)
