import re

import pytest
from hypothesis import given, strategies as st

from qmmp.perm import (
    P123,
    P132,
    Permutation,
    avoiders,
    left_to_right_minima,
    occurs,
    reduce,
)
from qmmp.series import catalan


def test_reduce_examples():
    assert reduce([2, 7, 5, 4]).word == (1, 4, 3, 2)
    assert reduce([]).word == ()
    assert reduce([10, 20, 30]).word == (1, 2, 3)


def test_reduce_rejects_duplicates():
    with pytest.raises(ValueError):
        reduce([1, 2, 2])


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((1, 3))
    with pytest.raises(ValueError):
        Permutation((1, 1))
    assert Permutation(()).n == 0


def test_parse_takes_ascii_digits_only():
    # str.isdigit and int() also accept superscripts and other scripts' digits
    for text in ("1²", "21٣", "2,1,٣", "²,1", "+1,2", "1,,2"):
        with pytest.raises(ValueError, match=re.escape(f"invalid permutation {text!r}")):
            Permutation.parse(text)
    assert Permutation.parse("2, 1,3").word == (2, 1, 3)


@given(st.permutations(list(range(1, 9))))
def test_reduce_is_idempotent_on_permutations(word):
    p = Permutation(tuple(word))
    assert reduce(p.word) == p


@given(st.permutations(list(range(1, 9))))
def test_involutions(word):
    p = Permutation(tuple(word))
    assert p.reverse().reverse() == p
    assert p.complement().complement() == p
    assert p.inverse().inverse() == p


def test_complement_entrywise():
    p = Permutation.parse("471569283")
    expect = tuple(10 - v for v in p.word)
    assert p.complement().word == expect
    assert str(p.complement()) == "639541827"


def test_serialization_round_trip():
    p = Permutation.parse("867943251")
    assert str(p) == "867943251"
    q = Permutation((8, 6, 10, 9, 4, 3, 2, 7, 1, 5))
    assert str(q) == "8,6,10,9,4,3,2,7,1,5"
    assert Permutation.parse(str(q)) == q
    assert Permutation.parse("") == Permutation(())


def test_occurs_examples():
    assert not occurs(P132, Permutation.parse("867943251"))
    assert not occurs(P123, Permutation.parse("869743251"))
    assert occurs(Permutation((1,)), Permutation.parse("312"))
    assert not occurs(Permutation((1,)), Permutation(()))
    assert occurs(Permutation((2, 1, 4, 3)), Permutation.parse("426315"))


def test_occurs_respects_reverse_complement():
    # exhaustive over all length-3 patterns and all sigma with n <= 6
    patterns = [Permutation(w) for w in
                [(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]]
    import itertools

    for n in range(7):
        for word in itertools.permutations(range(1, n + 1)):
            sigma = Permutation(word)
            for tau in patterns:
                base = occurs(tau, sigma)
                assert base == occurs(tau.reverse(), sigma.reverse())
                assert base == occurs(tau.complement(), sigma.complement())


def test_avoider_counts_are_catalan():
    for n in range(11):
        for tau in (P123, P132):
            assert len(avoiders(n, tau)) == catalan(n)


def test_avoiders_at_desk_scale():
    assert len(avoiders(12, P132)) == 208012


def test_avoiders_examples():
    assert len(avoiders(9, P123)) == 4862
    assert avoiders(0, P123) == (Permutation(()),)
    listed = avoiders(4, P132)
    assert listed == tuple(sorted(listed, key=lambda p: p.word))
    assert all(not occurs(P132, p) for p in listed)


def test_avoiders_generic_pattern():
    # against a filter over the full symmetric group
    import itertools

    tau = Permutation((2, 1, 4, 3))
    for n in range(7):
        expect = tuple(
            Permutation(w)
            for w in itertools.permutations(range(1, n + 1))
            if not occurs(tau, Permutation(w))
        )
        assert avoiders(n, tau) == expect


def test_avoiders_match_filter_for_hot_patterns():
    import itertools

    for tau in (P123, P132):
        for n in range(7):
            expect = tuple(
                Permutation(w)
                for w in itertools.permutations(range(1, n + 1))
                if not occurs(tau, Permutation(w))
            )
            assert avoiders(n, tau) == expect


def test_reverse_complement_closes_123_avoiders():
    for sigma in avoiders(7, P123):
        assert not occurs(P123, sigma.complement().reverse())


def test_left_to_right_minima():
    sigma = Permutation.parse("867943251")
    positions = left_to_right_minima(sigma)
    assert positions == (1, 2, 5, 6, 7, 9)
    assert tuple(sigma.word[i - 1] for i in positions) == (8, 6, 4, 3, 2, 1)
    assert left_to_right_minima(Permutation((1, 2, 3, 4))) == (1,)
    assert left_to_right_minima(Permutation((4, 3, 2, 1))) == (1, 2, 3, 4)
