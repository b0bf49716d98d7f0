"""Palindrome-count formulas: the closed form below k, the bordering and
straddling counts, and the full recurrence for P(n).

Two modes exist because the printed piecewise expression for the
recurrence increment disagrees with the sum of the constructive bordering
counts on k <= n < 2k - 3 (for k >= 4). DERIVED follows the constructive
counts and is validated against the scan oracle; AS_STATED reproduces the
printed expression verbatim so the difference can be reported.
"""

from __future__ import annotations

import enum

from .words import DomainError, kbonacci_number, require_k


class FormulaMode(enum.Enum):
    AS_STATED = "as-stated"
    DERIVED = "derived"


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise DomainError(msg)


def p_initial(k: int, n: int) -> int:
    """P(n) = 2^(n-1) (n-2) + 1 for 1 <= n <= k-1."""
    require_k(k, 3)
    _require(1 <= n <= k - 1, f"n={n} outside 1..k-1 for k={k}")
    return 2 ** (n - 1) * (n - 2) + 1


def b_count(k: int, n: int, j: int) -> int:
    """Number of bordering palindromes of type j: 2^j - 2^(n-k+1) inside
    the admissible rectangle, 0 everywhere else."""
    require_k(k, 3)
    if k <= n <= 2 * k - 3 and n - k + 2 <= j <= k - 1:
        return 2**j - 2 ** (n - k + 1)
    return 0


def s_count(k: int, n: int) -> int:
    """Number of straddling palindromes: nonzero only on
    2k-1 <= n <= 3k-2."""
    require_k(k, 3)
    if 2 * k - 1 <= n < 3 * k - 2:
        return 2 ** (n - 2 * k + 2) - 1
    if n == 3 * k - 2:
        return 2**k - 2
    return 0


def border_max_length(k: int, n: int, j: int) -> int:
    """Length of the maximal bordering palindrome of type j:
    2 (|W_j| - |W_{n-k+1}|) + 1."""
    require_k(k, 3)
    _require(
        k <= n <= 2 * k - 3 and n - k + 2 <= j <= k - 1,
        f"(n={n}, j={j}) outside the bordering range for k={k}",
    )
    return 2 * (kbonacci_number(k, j + k) - kbonacci_number(k, n + 1)) + 1


def alpha_border_closed(k: int, n: int) -> int:
    """Closed form of the bordering sum on k <= n <= 2k-3:
    2^k - (2k - n) 2^(n-k+1). Equals sum(b_count) there; kept separate so
    the counts suite can hold it to the scan rather than assume it."""
    require_k(k, 3)
    _require(k <= n <= 2 * k - 3, f"n={n} outside k..2k-3 for k={k}")
    return 2**k - (2 * k - n) * 2 ** (n - k + 1)


def alpha(k: int, n: int, mode: FormulaMode = FormulaMode.DERIVED) -> int:
    """The recurrence increment: P(n) = sum of the previous k values of P
    plus alpha(n), for n >= k."""
    require_k(k, 3)
    _require(n >= k, f"alpha is defined for n >= k, got n={n}")
    if mode is FormulaMode.DERIVED:
        border = sum(b_count(k, n, j) for j in range(n - k + 2, n))
        return border + s_count(k, n)
    # Printed piecewise expression.
    if k <= n <= 2 * k - 3:
        return 2**k + (k - 3) * 2 ** (n - k + 2) - n * 2 ** (n - k + 1)
    if n == 2 * k - 2:
        return 0
    if 2 * k - 1 <= n <= 3 * k - 3:
        return 2 ** (n - 2 * k + 2) - 1
    if n == 3 * k - 2:
        return 2**k - 2
    return 0


def p_total(k: int, n: int, mode: FormulaMode = FormulaMode.DERIVED) -> int:
    """Total number of palindromic occurrences (length >= 2) in W_n."""
    return p_series(k, n, mode)[n]


def p_series(k: int, n_max: int, mode: FormulaMode) -> list[int]:
    """P(0), ..., P(n_max) in one pass of the recurrence."""
    require_k(k, 3)
    _require(n_max >= 0, f"n must be >= 0, got {n_max}")
    values = [0]  # P(0) = 0: a single letter has no palindrome of length >= 2
    for n in range(1, n_max + 1):
        if n <= k - 1:
            values.append(p_initial(k, n))
        else:
            values.append(sum(values[n - k : n]) + alpha(k, n, mode))
    return values

