"""Core word machinery: k-bonacci numbers and k-bonacci words over the
infinite alphabet of nonnegative integers.

Two independent generation routes are provided (direct morphism iteration
and the block recurrence); they must agree everywhere and the test suite
holds them to that.

Digit store: `Word.digits` is a `bytes` object when every digit is below
256, and a tuple of ints otherwise. The form depends only on the digits,
so equal words have equal stores and hashes. Every generated word takes
the bytes form: the largest digit of W_n is n (of F_n, at most n), and
|W_n| = f_{n+k} passes the machine width before n reaches 100, so the
length checks admit no n near 256. Generation, the morphism, shifts,
mod-k reduction, rendering and the factor test therefore run as C-level
`bytes` operations (`translate`, slicing, `in`); the tuple form serves
only words from outside input and shifts past 255.
"""

from __future__ import annotations

import enum
import functools
from collections import deque
from collections.abc import Iterable, Iterator

# Digits are conceptually machine-width; anything past 2**63 - 1 is treated
# as arithmetic overflow rather than silently growing.
MAX_DIGIT = 2**63 - 1

# Generation guard: |W_n| grows like 2**n, so refuse absurd requests
# instead of filling memory. Overridable per call (and via KBONA_MAX_LEN in
# the CLI).
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
_PLAIN = bytes(range(ord("0"), ord("0") + 10)) + bytes(246)
# The decimal columns of a byte digit: hundreds, tens, units. A column
# left of the digit's leading figure holds the pad byte 0.
_COLUMNS = tuple(
    bytes(ord("0") + d // p % 10 if d >= p or p == 1 else 0 for d in range(256))
    for p in (100, 10, 1)
)


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
    """

    __slots__ = ("digits",)

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

    @classmethod
    def parse(cls, text: str) -> "Word":
        """Parse a word from text: either contiguous single digits
        ("0102013") or whitespace/comma separated integers ("45 46 45")."""
        text = text.strip()
        if not text:
            return cls()
        if any(sep in text for sep in (" ", ",", "\t")):
            parts = text.replace(",", " ").split()
        else:
            parts = list(text)
        try:
            return cls(int(p) for p in parts)
        except ValueError as exc:
            raise DomainError(f"cannot parse word from {text!r}") from exc

    def __len__(self) -> int:
        return len(self.digits)

    def __iter__(self) -> Iterator[int]:
        return iter(self.digits)

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

    def contains(self, other: "Word") -> bool:
        """Factor test."""
        a, b = self.digits, other.digits
        if type(a) is bytes:
            # A tuple word holds a digit past 255, which no byte word does.
            return type(b) is bytes and b in a
        b = tuple(b)
        m = len(b)
        return any(a[s : s + m] == b for s in range(len(a) - m + 1))

    def to_plain(self) -> str:
        """Contiguous decimal rendering; refused when any digit exceeds 9
        because the result would be ambiguous."""
        ds = self.digits
        if type(ds) is not bytes or not _all_below(ds, 10):
            raise DomainError(
                "plain format is ambiguous for digits > 9; use spaced or json"
            )
        return ds.translate(_PLAIN).decode("ascii")

    def to_spaced(self) -> str:
        ds = self.digits
        if type(ds) is not bytes:
            # One str per distinct digit, not per position.
            names = {d: str(d) for d in set(ds)}
            return " ".join(map(names.__getitem__, ds))
        # Each digit takes a slot of `width` columns and a space; the pad
        # bytes left of a narrower digit's leading figure are deleted.
        width = 3 if not _all_below(ds, 100) else 2 if not _all_below(ds, 10) else 1
        out = bytearray(b" ") * ((width + 1) * len(ds))
        for col, table in enumerate(_COLUMNS[3 - width :]):
            out[col :: width + 1] = ds.translate(table)
        del out[-1:]  # the space after the last digit
        return out.translate(None, b"\0").decode("ascii")

    def __repr__(self) -> str:
        if all(d <= 9 for d in self.digits):
            return f"Word({self.to_plain()!r})"
        return f"Word({self.to_spaced()!r})"


class GenMethod(enum.Enum):
    MORPHISM = "morphism"
    RECURRENCE = "recurrence"


def require_k(k: int, minimum: int = 2) -> None:
    """The one k-range check: word generation needs k >= 2, and the
    palindrome results (counting, structure, verification) need k >= 3."""
    if not isinstance(k, int) or k < minimum:
        raise DomainError(f"k must be an integer >= {minimum}, got {k!r}")


def _kbonacci_terms(k: int, n: int) -> Iterator[int]:
    """f_k, ..., f_n in order, each checked against the machine width.

    f_m is the running sum of the last k terms. The k-1 leading zeros
    add nothing to it, so only the terms from f_{k-1} = 1 on are kept,
    at most k of them: memory grows with n - k, not with k."""
    window = deque([1])
    total = 1  # f_m: the sum of the kept terms
    for m in range(k, n + 1):
        nxt = total
        if nxt > MAX_DIGIT:
            raise DigitOverflowError(f"k-bonacci number f_{m} exceeds machine width")
        window.append(nxt)
        total += nxt
        if len(window) > k:
            total -= window.popleft()
        yield nxt


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
    *_, last = _kbonacci_terms(k, n)
    return last


@functools.lru_cache(maxsize=256)
def _shift_table(d: int) -> bytes:
    """x -> x + d for the bytes x < 256 - d (0 <= d < 256)."""
    return bytes(range(d, 256)) + bytes(d)


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
    return bytes(out.translate(None, bytes([_PAD])))


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
        return Word._unchecked(ds.translate(bytes(x % k for x in range(256))))
    return Word._unchecked(tuple(x % k for x in ds))


def _check_request(k: int, n: int, max_len: int | None) -> None:
    """The checks word() and classical_word() make before generating."""
    require_k(k)
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    # Stop at the first of f_k, ..., f_{n+k} past the guard: the sequence
    # never decreases, so |W_n| = f_{n+k} is past it too, and no term that
    # could overflow is formed while the guard is below the machine width.
    guard = DEFAULT_MAX_LEN if max_len is None else max_len
    for size in _kbonacci_terms(k, n + k):
        if size > guard:
            raise LengthGuardError(
                f"|W_{n}| = f_{n + k} exceeds the length guard {guard} (k={k})"
            )


def _word_digits(k: int, n: int) -> bytes:
    # Block recurrence: W_0 = 0; W_m = W_{m-1}...W_0 m for m < k;
    # W_m = W_{m-1}...W_{m-k+1} (k ⊕ W_{m-k}) for m >= k. Each W_m begins
    # with W_{m-1}, so every earlier block is a prefix of the one growing
    # buffer, and only the sizes of the last k blocks are kept. The digits
    # are at most n, far below 256 (see the module docstring).
    out = bytearray(1)
    sizes = [1]  # sizes[-i] = |W_{m-i}| while W_m is built
    for m in range(1, n + 1):
        for size in sizes[-2 : -k : -1]:  # W_{m-2}, ... down to W_{m-k+1} or W_0
            out += out[:size]
        if m >= k:
            out += out[: sizes[-k]].translate(_shift_table(k))
        else:
            out.append(m)
        sizes.append(len(out))
        del sizes[:-k]
    return bytes(out)


def word(
    k: int,
    n: int,
    method: GenMethod = GenMethod.RECURRENCE,
    max_len: int | None = None,
) -> Word:
    """The finite k-bonacci word W_n over the infinite alphabet."""
    _check_request(k, n, max_len)
    if method is GenMethod.MORPHISM:
        w = Word((0,))
        for _ in range(n):
            w = apply_morphism(k, w)
        return w
    return Word._unchecked(_word_digits(k, n))


def classical_word(k: int, n: int, max_len: int | None = None) -> Word:
    """The classical k-bonacci word F_n over the alphabet {0, ..., k-1}."""
    _check_request(k, n, max_len)
    # Iterate the finite-alphabet morphism psi_k: i -> 0(i+1) for
    # i <= k-2, (k-1) -> 0, starting from the single digit 0. The digits
    # of F_n are at most n, which stays below 100, so never reach the pad.
    digits = bytes(1)
    zeros = bytes(256)
    second = bytes(_SUCCESSOR[d] if d <= k - 2 else _PAD for d in range(256))
    for _ in range(n):
        digits = _two_slot_image(digits, zeros, second)
    return Word._unchecked(digits)


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
