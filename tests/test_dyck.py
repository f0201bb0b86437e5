import time

import pytest
from hypothesis import given, strategies as st

from qmmp import dyck
from qmmp.dyck import (
    DyckPath,
    PathStats,
    first_return_decompose,
    lift,
    phi,
    phi_inv,
    psi,
    psi_inv,
    stats,
)
from qmmp.mmp import quadrants_at
from qmmp.perm import P123, P132, Permutation, avoiders, left_to_right_minima
from qmmp.series import catalan

from path_words import all_path_words

GOLDEN = "DDRDDRRRDDRDRDRRDR"


def test_phi_checks_a_long_avoider_in_linear_time():
    # phi refuses a 132 before building the path; on the increasing word of
    # length 20000 a scan of every pair of entries takes seconds
    sigma = Permutation(tuple(range(1, 20001)))
    phi(sigma)
    start = time.perf_counter()
    path = phi(sigma)
    elapsed = time.perf_counter() - start
    assert path.word == "D" * 20000 + "R" * 20000
    assert elapsed < 0.2, f"{elapsed * 1000:.1f} ms"


def test_validation_diagnostics():
    with pytest.raises(ValueError, match="position 3"):
        DyckPath("DDX")
    with pytest.raises(ValueError, match="more right-steps .* position 1"):
        DyckPath("RD")
    with pytest.raises(ValueError, match="position 5"):
        DyckPath("DRDRR")
    with pytest.raises(ValueError, match="2 down-steps vs 1 right-steps at position 3"):
        DyckPath("DDR")
    assert DyckPath("").n == 0


def test_stats_example():
    st_ = stats(DyckPath(GOLDEN))
    assert st_.returns == frozenset({4, 8, 9})
    assert st_.ret == 3
    assert st_.hills == 1
    assert st_.peaks == ((1, 1), (2, 2), (5, 1), (6, 1), (7, 1), (9, 0))


def test_stats_extremes():
    saw = DyckPath("DR" * 5)
    assert stats(saw).ret == 5 and stats(saw).hills == 5
    block = DyckPath("D" * 5 + "R" * 5)
    assert stats(block).ret == 1 and stats(block).hills == 0
    empty = stats(DyckPath(""))
    assert empty.ret == 0 and empty.hills == 0 and empty.peaks == ()


def test_stats_match_a_step_by_step_reading():
    # returns, peaks and hills read one step at a time, over every path word
    # of semilength <= 10
    for n in range(11):
        for word in all_path_words(n):
            down = right = 0
            returns, peaks = set(), []
            for prev, step in zip(" " + word, word):
                if step == "D":
                    down += 1
                    continue
                right += 1
                if prev == "D":
                    peaks.append((right, down - right))
                if down == right:
                    returns.add(right)
            hills = sum(1 for _, diag in peaks if diag == 0)
            want = PathStats(frozenset(returns), len(returns), hills, tuple(peaks))
            assert stats(DyckPath(word)) == want, word


def test_phi_golden():
    sigma = Permutation.parse("867943251")
    assert phi(sigma).word == GOLDEN
    assert phi_inv(DyckPath(GOLDEN)) == sigma
    assert phi(Permutation((3, 2, 1))).word == "DRDRDR"
    assert phi(Permutation(())).word == ""


def test_psi_golden():
    sigma = Permutation.parse("869743251")
    assert psi(sigma).word == GOLDEN
    assert psi_inv(DyckPath(GOLDEN)) == sigma


def test_psi_lift_golden():
    sigma = Permutation.parse("869743251")
    lifted = psi_inv(lift(psi(sigma)))
    assert lifted.word == (8, 6, 10, 9, 4, 3, 2, 7, 1, 5)


def test_domain_checks():
    with pytest.raises(ValueError, match="132"):
        phi(Permutation((1, 3, 2)))
    with pytest.raises(ValueError, match="123"):
        psi(Permutation((1, 2, 3)))


def test_round_trips_exhaustive_small():
    for n in range(8):
        images = set()
        for sigma in avoiders(n, P132):
            path = phi(sigma)
            assert phi_inv(path) == sigma
            images.add(path.word)
        assert len(images) == catalan(n)
        images.clear()
        for sigma in avoiders(n, P123):
            path = psi(sigma)
            assert psi_inv(path) == sigma
            images.add(path.word)
        assert len(images) == catalan(n)


def test_peak_columns_are_left_to_right_minima():
    for n in range(8):
        for sigma in avoiders(n, P132):
            cols = tuple(c for c, _ in stats(phi(sigma)).peaks)
            assert cols == left_to_right_minima(sigma)


def test_peak_diagonal_counts_quadrant_one():
    for n in range(7):
        for sigma in avoiders(n, P132):
            path = phi(sigma)
            for col, diag in stats(path).peaks:
                assert quadrants_at(sigma, col)[0] == diag


def test_lift():
    assert lift(DyckPath("")).word == "DR"
    for sigma in avoiders(6, P132):
        if sigma.n == 0:
            continue
        path = phi(sigma)
        assert stats(lift(path)).ret == 1


def test_first_return_decompose():
    i, inner, tail = first_return_decompose(DyckPath(GOLDEN))
    assert i == 4
    assert inner.word == "DRDDRR"
    assert tail.word == "DDRDRDRRDR"
    assert first_return_decompose(DyckPath("DR")) == (1, DyckPath(""), DyckPath(""))
    i, inner, tail = first_return_decompose(DyckPath("DDDRRR"))
    assert i == 3 and inner.word == "DDRR" and tail.word == ""
    with pytest.raises(ValueError):
        first_return_decompose(DyckPath(""))


def test_decompose_reassembles():
    for sigma in avoiders(7, P123):
        if sigma.n == 0:
            continue
        path = psi(sigma)
        i, inner, tail = first_return_decompose(path)
        assert "D" + inner.word + "R" + tail.word == path.word
        assert i == min(stats(path).returns)


@st.composite
def balanced_words(draw, max_n=8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    word = []
    down = right = 0
    while len(word) < 2 * n:
        can_down = down < n
        can_right = right < down
        if can_down and can_right:
            step = draw(st.sampled_from("DR"))
        elif can_down:
            step = "D"
        else:
            step = "R"
        word.append(step)
        if step == "D":
            down += 1
        else:
            right += 1
    return "".join(word)


@given(balanced_words())
def test_random_path_round_trips(word):
    path = DyckPath(word)
    assert phi(phi_inv(path)).word == word
    assert psi(psi_inv(path)).word == word


def _staircase_by_words(word):
    # the word-level staircase that dyck._stair replaced: a new left-to-right
    # minimum v takes the path down to height v - 1
    steps = []
    height = len(word)
    for v in word:
        if v <= height:
            steps.append("D" * (height - v + 1))
            height = v - 1
        steps.append("R")
    return "".join(steps)


def test_staircase_steps_match_the_word_level_definition():
    # phi and psi build their paths from the per-column step; over every
    # avoider of both classes with n <= 8 it gives the word-level path
    for n in range(9):
        for tau in (P123, P132):
            for sigma in avoiders(n, tau):
                assert dyck._staircase(sigma.word) == _staircase_by_words(sigma.word)
