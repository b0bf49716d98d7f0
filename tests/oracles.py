"""Brute-force reference implementations used only as oracles.

These deliberately share no code with the engine under test: radii come
from naive center expansion and factor sets from explicit substring
enumeration.
"""

from __future__ import annotations

from kbona.words import Word


def brute_is_palindrome(digits) -> bool:
    """digits: a bytes or tuple digit store, or a slice of one."""
    return digits == digits[::-1]


def brute_radii(w: Word) -> list[int]:
    """Maximal palindrome length per center, by expansion. Center c is
    digit c/2 (0-based) for even c and the gap after digit (c-1)/2 for
    odd c."""
    n = len(w)
    d = w.digits
    out = []
    for c in range(max(2 * n - 1, 0)):
        if c % 2 == 0:
            lo = hi = c // 2
            length = 1
        else:
            lo, hi = (c - 1) // 2, (c + 1) // 2
            if d[lo] != d[hi]:
                out.append(0)
                continue
            length = 2
        while lo - 1 >= 0 and hi + 1 < n and d[lo - 1] == d[hi + 1]:
            lo -= 1
            hi += 1
            length += 2
        out.append(length)
    return out


def brute_occurrences(w: Word, min_len: int):
    """Every palindromic (start, length) pair, start 1-based, by
    substring check."""
    n = len(w)
    for start0 in range(n):
        for end0 in range(start0 + min_len - 1, n):
            if brute_is_palindrome(w.digits[start0 : end0 + 1]):
                yield start0 + 1, end0 - start0 + 1


def brute_count(w: Word, min_len: int) -> int:
    return sum(1 for _ in brute_occurrences(w, min_len))


def brute_maximal(w: Word, min_len: int) -> set[Word]:
    """The distinct factors that are the longest palindrome at some
    center, of length >= min_len, cut out at the expansion radii."""
    out = set()
    for c, m in enumerate(brute_radii(w)):
        if m >= min_len:
            start0 = (c + 1 - m) // 2
            out.add(Word(w.digits[start0 : start0 + m]))
    return out


def brute_distinct(w: Word, min_len: int) -> set[Word]:
    return {
        Word(w.digits[start - 1 : start - 1 + length])
        for start, length in brute_occurrences(w, min_len)
    }


def brute_crossing(w: Word, cuts: tuple[int, ...], min_len: int):
    """(contained, bordering dict, straddling) by direct bucketing; cuts
    are 1-based after-positions."""
    contained = 0
    bordering: dict[int, int] = {}
    straddling = 0
    final = cuts[-1] if cuts else None
    for start, length in brute_occurrences(w, min_len):
        end = start + length - 1
        crossed = [p for p in cuts if start <= p < end]
        if final is not None and final in crossed:
            straddling += 1
        elif crossed:
            b = sum(1 for p in cuts if p < start)  # block holding start
            bordering[b] = bordering.get(b, 0) + 1
        else:
            contained += 1
    return contained, bordering, straddling


# Per-digit references for the word maps, which the engine runs as
# C-level bytes operations; each returns a tuple of ints.


def ref_apply_morphism(k: int, digits) -> tuple[int, ...]:
    """phi_k: ki+j -> (ki)(ki+j+1) for j <= k-2, ki+(k-1) -> (ki+k)."""
    out: list[int] = []
    for d in digits:
        i, j = divmod(d, k)
        if j == k - 1:
            out.append(k * i + k)
        else:
            out.extend((k * i, d + 1))
    return tuple(out)


def ref_classical_word(k: int, n: int) -> tuple[int, ...]:
    """F_n = psi_k^n(0) with psi_k: i -> 0(i+1) for i <= k-2, k-1 -> 0."""
    digits: tuple[int, ...] = (0,)
    for _ in range(n):
        out: list[int] = []
        for d in digits:
            out.append(0)
            if d < k - 1:
                out.append(d + 1)
        digits = tuple(out)
    return digits


def ref_reduce_mod_k(k: int, digits) -> tuple[int, ...]:
    return tuple(d % k for d in digits)


def ref_shift_add(s: int, digits) -> tuple[int, ...]:
    return tuple(d + s for d in digits)


def brute_contains(haystack, needle) -> bool:
    """Factor test by comparing needle with every window of haystack."""
    hay, pat = tuple(haystack), tuple(needle)
    return any(hay[s : s + len(pat)] == pat for s in range(len(hay) - len(pat) + 1))
