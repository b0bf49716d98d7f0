"""The palindrome catalog: the four families of maximal palindromic
factors, maximal bordering/straddling words, length sets read from the
templates' lengths, and a classifier of a palindrome's memberships.

Every family element is a k*i digit shift of a small base template, so
templates are materialized once per k and membership reduces to exact
template matching at the unique candidate shift.
"""

from __future__ import annotations

import enum
import functools
from typing import NamedTuple

from . import counting
from .palindromes import is_palindrome, lengths_up_to
from .words import (DigitOverflowError, DomainError, LengthGuardError, Word, _check_request,
                    kbonacci_sizes, require_k, shift_add, word)


class PalFamily(enum.Enum):
    P1 = "p1"
    P2 = "p2"
    P3 = "p3"
    P4 = "p4"


class PalClass(NamedTuple):
    """Membership token: family plus the parameters naming the element."""

    family: PalFamily
    shift: int
    n: int | None = None
    j: int | None = None
    m: int | None = None
    variant: str | None = None  # "double" | "triple" | "kk"

    def describe(self) -> str:
        parts = [self.family.value, f"i={self.shift}"]
        if self.n is not None:
            parts.append(f"n={self.n}")
        if self.j is not None:
            parts.append(f"j={self.j}")
        if self.m is not None:
            parts.append(f"m={self.m}")
        if self.variant is not None:
            parts.append(self.variant)
        return "(" + ", ".join(parts) + ")"


class _Parts(NamedTuple):
    left: Word
    right: Word


class StraddlingPair(_Parts):
    """A straddling palindrome split at the block boundary: left is the
    suffix part before the cut, right the prefix part after it."""

    __slots__ = ()

    def __new__(cls, left: Word, right: Word):
        if len(left) == 0 or len(right) == 0:
            raise DomainError("both parts of a straddling pair must be nonempty")
        return super().__new__(cls, left, right)

    @property
    def concatenation(self) -> Word:
        return self.left + self.right


class LengthSet(NamedTuple):
    lengths: frozenset[int]


def maximal_bordering_word(k: int, n: int, j: int) -> Word:
    """The maximal bordering palindrome of type j:
    (W_{j-1} ... W_{n-k+1})^R j (W_{j-1} ... W_{n-k+1})."""
    require_k(k, 3)
    if not (k <= n <= 2 * k - 3 and n - k + 2 <= j <= k - 1):
        raise DomainError(f"(n={n}, j={j}) outside the bordering range for k={k}")
    # W_j = W_{j-1} ... W_0 j for j < k, so the blocks are a prefix of it.
    tail = word(k, j).factor(1, sum(kbonacci_sizes(k)[n - k + 1 : j]))
    return tail.reverse() + Word((j,)) + tail


def _templates(k: int) -> tuple[tuple[Word, PalClass], ...]:
    """Base (shift 0) templates of all four families; the PalClass carries
    the minimal admissible shift. They are built once per k, but held to
    the length guard on every call, so a guard lowered after the build
    still refuses them: the longest word the build makes is the P4
    triple, 3|W_{k-1}| - 3 digits."""
    guard = _check_request(k, k - 1)
    if (longest := 3 * kbonacci_sizes(k)[k - 1] - 3) > guard:
        raise LengthGuardError(
            f"the P4 triple of {longest} digits exceeds the length guard {guard} (k={k})")
    return _build_templates(k)


@functools.lru_cache(maxsize=None)
def _build_templates(k: int) -> tuple[tuple[Word, PalClass], ...]:
    require_k(k, 3)
    out: list[tuple[Word, PalClass]] = []
    for n in range(2, k):
        out.append((word(k, n).drop_last(), PalClass(PalFamily.P1, 0, n=n)))
    for n in range(k, 2 * k - 2):
        for j in range(n - k + 2, k):
            out.append(
                (maximal_bordering_word(k, n, j), PalClass(PalFamily.P2, 0, n=n, j=j))
            )
    for m in range(1, k - 1):
        wm = word(k, m)
        core = wm.drop_last()
        out.append((wm + core, PalClass(PalFamily.P3, 1, m=m, variant="double")))
        out.append((wm + wm + core, PalClass(PalFamily.P3, 1, m=m, variant="triple")))
    wk1 = word(k, k - 1)
    out.append((wk1 + wk1.drop_last(), PalClass(PalFamily.P4, 1, variant="double")))
    triple = wk1.drop_first(1) + wk1 + wk1.drop_last(2)
    out.append((triple, PalClass(PalFamily.P4, 1, variant="triple")))
    out.append((Word((0, 0)), PalClass(PalFamily.P4, 1, variant="kk")))
    return tuple(out)


def catalog_elements(
    k: int, family: PalFamily, i_max: int
) -> list[tuple[Word, PalClass]]:
    """All elements of the family with shift at most i_max."""
    require_k(k, 3)
    if i_max < 0:
        raise DomainError(f"i_max must be >= 0, got {i_max}")
    out = []
    for template, base in _templates(k):
        if base.family is not family:
            continue
        for i in range(base.shift, i_max + 1):
            out.append((shift_add(k * i, template), base._replace(shift=i)))
    return out


def maximal_straddling_words(k: int, n: int) -> list[StraddlingPair]:
    """The maximal straddling palindromes of W_n as (suffix, prefix)
    pairs at the final block boundary; empty outside 2k-1 <= n <= 3k-2.
    They are the shift-1 P3/P4 elements whose largest digit is n-k+1, the
    last digit of the block W_{n-k+1} before the cut, each split right
    after the first occurrence of that digit."""
    require_k(k, 3)
    if n < 2 * k - 1 or n > 3 * k - 2:
        return []
    top = n - 2 * k + 1  # the largest digit before the shift by k
    pairs = []
    for template, base in _templates(k):
        if base.family in (PalFamily.P3, PalFamily.P4) and max(template.digits) == top:
            element = shift_add(k, template)
            cut = template.digits.index(top) + 1
            pairs.append(StraddlingPair(element.factor(1, cut), element.drop_first(cut)))
    return pairs


_AS_STATED_LONGEST = {
    PalFamily.P1: lambda k: (2 ** (k - 1) - 1,),
    PalFamily.P2: lambda k: (2**k - 3,),
    PalFamily.P3: lambda k: (3 * 2 ** (k - 2) - 1,),
    PalFamily.P4: lambda k: (3 * 2 ** (k - 1) - 1, 2),
}


def length_set(
    k: int,
    family: PalFamily,
    mode: counting.FormulaMode = counting.FormulaMode.DERIVED,
) -> LengthSet:
    """Admissible palindrome lengths of one family, `lengths_up_to` its
    printed longest (AS_STATED) or its templates' lengths, each template
    checked to be a palindrome (DERIVED); no template is scanned."""
    require_k(k, 3)
    if mode is counting.FormulaMode.AS_STATED:
        return LengthSet(lengths_up_to(_AS_STATED_LONGEST[family](k)))
    longest = []
    for template, base in _templates(k):
        if base.family is family:
            if not is_palindrome(template):
                raise DomainError(f"template {base.describe()} is not a palindrome")
            longest.append(len(template))
    return LengthSet(lengths_up_to(longest))


def allowed_lengths(
    k: int, mode: counting.FormulaMode = counting.FormulaMode.DERIVED
) -> LengthSet:
    """Union of the four family length sets: the palindrome lengths that
    occur (infinitely often) in the infinite word."""
    return LengthSet(frozenset().union(*(length_set(k, f, mode).lengths for f in PalFamily)))


def classify_palindrome(k: int, w: Word) -> set[PalClass]:
    """All catalog memberships of w; empty means w is not a maximal
    palindromic factor of the infinite word."""
    require_k(k, 3)
    if not is_palindrome(w):
        raise DomainError(f"{w!r} is not a palindrome")
    out: set[PalClass] = set()
    for template, base in _templates(k):
        if len(template) != len(w):
            continue
        i, r = divmod(w.digits[0] - template.digits[0], k)
        try:
            if not r and i >= base.shift and shift_add(k * i, template) == w:
                out.add(base._replace(shift=i))
        except DigitOverflowError:  # a shift past the machine width cannot equal w
            pass
    return out
