"""Counting formulas vs scans and vs each other."""

import pytest

from kbona import cli, counting
from kbona.counting import (
    FormulaMode,
    alpha,
    alpha_border_closed,
    b_count,
    border_max_length,
    p_initial,
    p_series,
    p_total,
    s_count,
)
from kbona.palindromes import count_occurrences
from kbona.words import DomainError, word

from oracles import brute_count


def test_p_initial_examples():
    assert p_initial(4, 3) == 5
    assert p_initial(5, 1) == 0
    assert p_initial(7, 1) == 0
    assert p_initial(5, 4) == 17
    with pytest.raises(DomainError):
        p_initial(4, 4)
    with pytest.raises(DomainError):
        p_initial(2, 1)


@pytest.mark.parametrize("k", [4, 5, 6])
def test_p_initial_step_law(k):
    for n in range(2, k):
        assert p_initial(k, n) == 2 * p_initial(k, n - 1) + 2 ** (n - 1) - 1


@pytest.mark.parametrize("k", [5, 6])
def test_p_initial_against_brute(k):
    for n in range(1, min(k, 7)):
        assert p_initial(k, n) == brute_count(word(k, n), 2)


def test_b_count_examples():
    assert b_count(4, 4, 3) == 6
    assert b_count(4, 4, 2) == 2
    assert b_count(3, 3, 2) == 2
    assert b_count(4, 6, 3) == 0
    assert b_count(4, 4, 1) == 0
    assert b_count(5, 9, 4) == 0  # n > 2k-3


def test_s_count_examples():
    assert s_count(4, 7) == 1
    assert s_count(4, 10) == 14
    assert s_count(4, 6) == 0
    assert s_count(4, 11) == 0
    assert s_count(3, 5) == 1
    assert s_count(3, 7) == 6


def test_vanishing_ranges():
    for k in (3, 4, 5):
        for n in range(0, 4 * k):
            inside_b = k <= n <= 2 * k - 3
            assert (any(b_count(k, n, j) for j in range(n + 2)) == inside_b) or not inside_b
            if not (2 * k - 1 <= n <= 3 * k - 2):
                assert s_count(k, n) == 0


def test_border_max_length_examples():
    assert border_max_length(4, 4, 3) == 13
    assert border_max_length(4, 5, 3) == 9
    assert border_max_length(3, 3, 2) == 5
    with pytest.raises(DomainError):
        border_max_length(4, 6, 3)


def test_alpha_examples():
    assert alpha(3, 3, FormulaMode.DERIVED) == 2
    assert alpha(4, 4, FormulaMode.AS_STATED) == 12
    assert alpha(4, 4, FormulaMode.DERIVED) == 8
    assert alpha(4, 10, FormulaMode.AS_STATED) == 14
    assert alpha(4, 10, FormulaMode.DERIVED) == 14
    with pytest.raises(DomainError):
        alpha(4, 3)


def test_alpha_corrected_closed_form():
    for k in (3, 4, 5, 6, 7):
        for n in range(k, 2 * k - 2):
            assert alpha_border_closed(k, n) == alpha(k, n, FormulaMode.DERIVED)


def test_alpha_mode_agreement_ranges():
    for k in (3, 4, 5, 6):
        for n in range(k, 3 * k + 4):
            stated = alpha(k, n, FormulaMode.AS_STATED)
            derived = alpha(k, n, FormulaMode.DERIVED)
            if n >= 2 * k - 3 or k == 3:
                assert stated == derived, (k, n)
            elif k >= 4 and n < 2 * k - 3:
                assert stated != derived, (k, n)


P3_EXPECTED = [0, 0, 1, 3, 4, 9, 19, 38, 66]
P4_EXPECTED = [0, 0, 1, 5, 14, 24, 44, 88, 173, 336, 655]


def test_p_total_fixed_series():
    assert [p_total(3, n) for n in range(9)] == P3_EXPECTED
    assert [p_total(4, n) for n in range(11)] == P4_EXPECTED
    for n in range(4, 11):
        assert P4_EXPECTED[n] == sum(P4_EXPECTED[n - 4 : n]) + alpha(4, n)
    for k in (3, 4, 5, 6):
        assert p_total(k, 2) == 1
        assert p_total(k, 2, FormulaMode.AS_STATED) == 1


@pytest.mark.parametrize("k", [3, 4, 5])
def test_p_total_matches_scan(k):
    for n in range(10):
        assert p_total(k, n) == count_occurrences(word(k, n), 2)


@pytest.mark.parametrize("mode", list(FormulaMode))
def test_p_series_matches_p_total(mode):
    for k in (3, 4, 5, 6):
        assert p_series(k, 30, mode) == [p_total(k, n, mode) for n in range(31)]
    with pytest.raises(DomainError):
        p_series(3, -1, mode)


def test_count_builds_the_series_once(monkeypatch, capsys):
    calls = 0
    real_alpha = counting.alpha

    def counted_alpha(*args):
        nonlocal calls
        calls += 1
        return real_alpha(*args)

    monkeypatch.setattr(counting, "alpha", counted_alpha)
    assert cli.main(["count", "--k", "3", "--n-max", "200"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 202 and rows[9] == "8\t66"
    assert calls <= 201


def test_k_below_three_rejected():
    for fn in (lambda: p_total(2, 3), lambda: s_count(2, 3), lambda: b_count(2, 3, 1)):
        with pytest.raises(DomainError):
            fn()
