import itertools
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
    # a bool is an int, and True == 1
    for word in ((True,), (2, True), (1, False)):
        with pytest.raises(ValueError, match=r"not a permutation of 1\.\.\d"):
            Permutation(word)


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
    assert occurs(Permutation(()), Permutation(()))
    # only patterns of length 0, 1 or 3, even against a shorter sigma
    for tau in ((2, 1), (2, 1, 4, 3)):
        with pytest.raises(ValueError, match="length 0, 1 or 3"):
            occurs(Permutation(tau), Permutation.parse("1"))


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


def test_occurs_matches_the_definition():
    # every sigma with n <= 7 and every length-3 pattern: sigma contains tau
    # exactly when three of its entries, in order, standardize to tau
    for n in range(8):
        for word in itertools.permutations(range(1, n + 1)):
            sigma = Permutation(word)
            found = {
                tuple(sorted(triple).index(v) + 1 for v in triple)
                for triple in itertools.combinations(word, 3)
            }
            for tau in itertools.permutations((1, 2, 3)):
                assert occurs(Permutation(tau), sigma) == (tau in found), (word, tau)


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


def test_generated_avoiders_are_valid_permutations():
    # avoiders builds its permutations without the public check; each equals
    # the checked Permutation of its word, in lexicographic order, and the
    # C_n distinct avoiders of the class are exactly that class
    for tau in (P123, P132):
        for n in range(11):
            listed = avoiders(n, tau)
            checked = [Permutation(list(sigma.word)) for sigma in listed]
            assert list(listed) == checked
            assert [hash(s) for s in listed] == [hash(s) for s in checked]
            assert all(type(s.word) is tuple for s in listed)
            assert [s.word for s in listed] == sorted({s.word for s in listed})
            assert len(listed) == catalan(n)
            assert not any(occurs(tau, s) for s in listed)
    # the public constructor still checks range and duplicates
    for word in ((1, 1), (0, 1)):
        with pytest.raises(ValueError, match=r"not a permutation of 1\.\.2"):
            Permutation(word)


def test_avoiders_reject_other_patterns():
    for tau in ((), (1,), (2, 1), (2, 1, 3), (3, 2, 1), (2, 1, 4, 3)):
        with pytest.raises(ValueError, match="123 or 132"):
            avoiders(4, Permutation(tau))


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
