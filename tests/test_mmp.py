import itertools
import random

import pytest

from qmmp.mmp import (
    EMPTY,
    QuadrantSpec,
    _append_tallies,
    bivariate_distribution,
    corner_frame_counts,
    distribution,
    distributions,
    fast_mmp_0k0l,
    match_counter,
    matches_at,
    mmp_count,
    quadrant_rows,
    quadrants_at,
    report_at,
)
from qmmp.oracle import _BandFields
from qmmp.perm import (
    P123,
    P132,
    Permutation,
    avoider_walk,
    avoiders,
    left_to_right_minima,
    occurs,
)
from qmmp.series import BiPoly, IntPoly, catalan

SIGMA = Permutation.parse("471569283")


def _tallies(sigma, i):
    """Quadrant I-IV tallies at position ``i``, by comparing positions and values."""
    v = sigma.word[i - 1]
    earlier = sigma.word[: i - 1]
    later = sigma.word[i:]
    return (
        sum(w > v for w in later),
        sum(w > v for w in earlier),
        sum(w < v for w in earlier),
        sum(w < v for w in later),
    )


def test_spec_parsing():
    spec = QuadrantSpec.parse("2,1,e,0")
    assert spec.coords == (2, 1, EMPTY, 0)
    assert str(spec) == "2,1,e,0"
    assert spec.compact() == "21e0"
    with pytest.raises(ValueError):
        QuadrantSpec.parse("1,2,3")
    with pytest.raises(ValueError):
        QuadrantSpec.parse("1,2,x,3")
    with pytest.raises(ValueError, match="invalid quadrant spec '0,²,0,0': bad slot '²'"):
        QuadrantSpec.parse("0,²,0,0")
    with pytest.raises(ValueError):
        QuadrantSpec(-1, 0, 0, 0)


def test_empty_is_not_zero():
    assert EMPTY != 0
    assert QuadrantSpec(0, 0, EMPTY, 0) != QuadrantSpec(0, 0, 0, 0)


def test_quadrants_at_examples():
    assert quadrants_at(SIGMA, 4) == (3, 1, 2, 2)
    assert quadrants_at(SIGMA, 3) == (6, 2, 0, 0)
    assert quadrants_at(Permutation((1,)), 1) == (0, 0, 0, 0)
    with pytest.raises(ValueError):
        quadrants_at(SIGMA, 0)
    with pytest.raises(ValueError):
        quadrants_at(SIGMA, 10)


def test_matches_at_examples():
    assert matches_at(SIGMA, 4, QuadrantSpec(2, 1, 2, 1))
    assert matches_at(SIGMA, 3, QuadrantSpec(4, 2, EMPTY, EMPTY))
    for i in range(1, 10):
        assert matches_at(SIGMA, i, QuadrantSpec(0, 0, 0, 0))
    report = report_at(SIGMA, 4, QuadrantSpec(2, 1, 2, 1))
    assert report.matched and sum(report.quadrant_counts) == SIGMA.n - 1


def test_mmp_count_examples():
    assert mmp_count(SIGMA, QuadrantSpec(2, 2, 0, 0)) == 2
    assert mmp_count(SIGMA, QuadrantSpec(0, 0, 0, 0)) == SIGMA.n
    for sigma in avoiders(6, P123):
        assert mmp_count(sigma, QuadrantSpec(1, 0, 1, 0)) == 0


def test_quadrant_counts_sum_on_random_pairs():
    rng = random.Random(20260808)
    for _ in range(10_000):
        n = rng.randint(1, 12)
        word = list(range(1, n + 1))
        rng.shuffle(word)
        sigma = Permutation(tuple(word))
        i = rng.randint(1, n)
        want = _tallies(sigma, i)
        assert sum(want) == n - 1
        assert quadrants_at(sigma, i) == want
        assert quadrant_rows(sigma)[i - 1] == want


def test_distribution_examples():
    assert distribution(3, P123, QuadrantSpec(0, 1, 0, 0)) == IntPoly({1: 3, 2: 2})
    assert distribution(4, P132, QuadrantSpec(0, 1, EMPTY, 0)) == IntPoly(
        {0: 1, 1: 6, 2: 6, 3: 1}
    )
    for n in range(8):
        got = distribution(n, P123, QuadrantSpec(2, 0, EMPTY, 1))
        assert got.mass() == catalan(n)
    with pytest.raises(ValueError):
        distribution(3, Permutation((2, 1, 3)), QuadrantSpec(0, 0, 0, 0))


def test_distribution_matches_direct_count():
    spec = QuadrantSpec(1, 1, EMPTY, 0)
    for n in range(7):
        hist = {}
        for sigma in avoiders(n, P132):
            m = mmp_count(sigma, spec)
            hist[m] = hist.get(m, 0) + 1
        assert distribution(n, P132, spec) == IntPoly(hist)


def _class_by_filter(n, tau):
    """Avoiders of ``tau`` by filtering the whole symmetric group (no ``avoiders``)."""
    perms = (Permutation(w) for w in itertools.permutations(range(1, n + 1)))
    return [sigma for sigma in perms if not occurs(tau, sigma)]


SPECS_012E = [QuadrantSpec(*coords) for coords in itertools.product((0, 1, 2, EMPTY), repeat=4)]


def test_distribution_audit_over_symmetric_group():
    # every spec with slots in {0, 1, 2, e}, both classes: the packed kernel
    # one spec at a time and all 256 specs in one call (11 walks of up to 24 lanes),
    # mmp_count and one match_counter over all the specs, against
    # per-permutation counts from tallies taken by the definition
    specs = SPECS_012E
    for tau in (P123, P132):
        for n in range(8):
            perms = _class_by_filter(n, tau)
            assert len(perms) == catalan(n)
            rows = [[_tallies(sigma, i) for i in range(1, n + 1)] for sigma in perms]
            counter = match_counter(specs, n)
            packed = [counter(sigma) for sigma in perms]
            batch = distributions(n, tau, specs)
            assert len(batch) == len(specs)
            for f, spec in enumerate(specs):
                hist = {}
                for sigma, row, counts in zip(perms, rows, packed):
                    m = sum(
                        1
                        for q in row
                        if all(x == 0 if c is EMPTY else x >= c for x, c in zip(q, spec.coords))
                    )
                    assert counts[f] == m and mmp_count(sigma, spec) == m, (sigma, spec)
                    hist[m] = hist.get(m, 0) + 1
                got = distribution(n, tau, spec)
                assert got == IntPoly(hist) == batch[f], (tau, n, spec)


def test_distributions_lanes():
    # each lane of a walk holds one spec's histogram, whose mass is C_n
    for tau in (P123, P132):
        for n in range(13):
            polys = distributions(n, tau, SPECS_012E)
            assert [poly.mass() for poly in polys] == [catalan(n)] * len(SPECS_012E), (tau, n)
        assert distributions(0, tau, SPECS_012E[:40]) == [IntPoly({0: 1})] * 40
        assert distributions(1, tau, [QuadrantSpec(0, 0, 0, 0), QuadrantSpec(1, 0, 0, 0)]) == [
            IntPoly({1: 1}),
            IntPoly({0: 1}),
        ]
        assert distributions(5, tau, []) == []
    # input order is kept, and a repeated spec gets its own lane, in the
    # same walk or in another
    spec = QuadrantSpec(1, EMPTY, 0, 1)
    assert distributions(6, P123, [spec, spec]) == [distribution(6, P123, spec)] * 2
    head = SPECS_012E[::-7]
    specs = head + SPECS_012E[:3] + head
    polys = distributions(6, P132, specs)
    assert polys == [distribution(6, P132, spec) for spec in specs]
    assert polys[: len(head)] == polys[-len(head) :]
    with pytest.raises(ValueError):
        distributions(3, Permutation((2, 1, 3)), SPECS_012E[:1])


def test_match_counter_checks_length():
    counter = match_counter([QuadrantSpec(0, 0, 0, 0)], 4)
    assert counter(Permutation((4, 3, 2, 1))) == (4,)
    assert match_counter([], 3)(Permutation((1, 2, 3))) == ()
    with pytest.raises(ValueError, match="length"):
        counter(Permutation((1, 2, 3)))


def test_bivariate_distribution_audit():
    for n in range(9):
        rows = []
        for sigma in _class_by_filter(n, P123):
            peaks = set(left_to_right_minima(sigma))
            rows.append([(i in peaks, _tallies(sigma, i)[1]) for i in range(1, n + 1)])
        for k1 in range(4):
            for k2 in range(4):
                hist = {}
                for row in rows:
                    m0 = sum(1 for peak, q2 in row if peak and q2 >= k1)
                    m1 = sum(1 for peak, q2 in row if not peak and q2 >= k2)
                    hist[(m0, m1)] = hist.get((m0, m1), 0) + 1
                assert bivariate_distribution(n, k1, k2) == BiPoly(hist), (n, k1, k2)


def test_bivariate_distribution_examples():
    assert bivariate_distribution(2, 0, 0) == BiPoly({(1, 1): 1, (2, 0): 1})
    for n in range(7):
        assert bivariate_distribution(n, 0, 0).mass() == catalan(n)
    # specializing recovers the univariate distribution
    for n in range(7):
        for k in range(3):
            expect = distribution(n, P123, QuadrantSpec(0, k, 0, 0))
            assert bivariate_distribution(n, k, k).to_univariate() == expect
    # x0=x1=x at (1,1), t^4 row
    assert bivariate_distribution(4, 1, 1).to_univariate() == IntPoly({2: 9, 3: 5})


def test_symmetry_lemmas_small():
    coords = (0, 1, 2, EMPTY)
    for n in range(6):
        for a in coords:
            for b in coords:
                for c in coords:
                    for d in coords:
                        assert distribution(n, P132, QuadrantSpec(a, b, c, d)) == distribution(
                            n, P132, QuadrantSpec(a, d, c, b)
                        )
                        assert distribution(n, P123, QuadrantSpec(a, b, c, d)) == distribution(
                            n, P123, QuadrantSpec(c, d, a, b)
                        )


def test_third_slot_collapse_over_123():
    # with a positive first slot, a zero third slot is as good as empty
    for n in range(7):
        for k in range(1, 3):
            for ell in range(3):
                for m in range(3):
                    assert distribution(n, P123, QuadrantSpec(k, ell, 0, m)) == distribution(
                        n, P123, QuadrantSpec(k, ell, EMPTY, m)
                    )


def test_corner_frame_counts():
    sigma = Permutation.parse("869743251")
    r, s = corner_frame_counts(sigma, 2, 1)
    assert r + s == 2 * (2 + 1)
    assert mmp_count(sigma, QuadrantSpec(0, 2, 0, 1)) == sigma.n - 2 * 3 + r
    # the decreasing permutation runs straight through the two corner blocks
    decreasing = Permutation((6, 5, 4, 3, 2, 1))
    assert corner_frame_counts(decreasing, 2, 1) == (3, 3)
    assert mmp_count(decreasing, QuadrantSpec(0, 2, 0, 1)) == 6 - 2 * 3 + 3
    # and a permutation dodging all four corners has r = 0
    dodger = Permutation((3, 1, 4, 2))
    assert corner_frame_counts(dodger, 1, 1) == (0, 4)
    with pytest.raises(ValueError):
        corner_frame_counts(Permutation((1, 2, 3)), 1, 1)


def _corner_frame_by_definition(sigma, k, ell):
    """(r, s) from the bands as sets of rows and columns."""
    n = sigma.n
    columns = set(range(1, k + 1)) | set(range(n - ell + 1, n + 1))
    rows = set(range(n - k + 1, n + 1)) | set(range(1, ell + 1))
    points = list(enumerate(sigma.word, start=1))
    r = sum(1 for i, v in points if i in columns and v in rows)
    s = sum(1 for i, v in points if i in columns or v in rows)
    return (r, s)


def test_corner_frame_bands():
    # corner_frame_counts and the theorem-12/13 walk entries share one band rule
    pairs = [(k, ell) for k in range(5) for ell in range(5)]
    for n in range(9):
        fields = _BandFields(pairs, n)
        walk = avoider_walk(n, P123.word, fields.entry)
        for sigma, (word, total) in zip(avoiders(n, P123), walk, strict=True):
            assert word == sigma.word
            for p, (k, ell) in enumerate(pairs):
                want = _corner_frame_by_definition(sigma, k, ell)
                assert corner_frame_counts(sigma, k, ell) == want, (sigma, k, ell)
                r, s, count = fields.numbers(total, p)
                assert (r, s) == want, (sigma, k, ell)
                assert count == mmp_count(sigma, QuadrantSpec(0, k, 0, ell)), (sigma, k, ell)
    with pytest.raises(ValueError):
        corner_frame_counts(Permutation((3, 2, 1)), 1, -1)


def test_avoider_walk():
    # the words come in the order of avoiders(); a total is the sum of the
    # entries of the avoider's positions, here a hash of the point and of
    # its tallies, which the test takes by the definition
    for tau in (P123, P132):
        for n in range(10):
            walk = avoider_walk(
                n, tau.word, lambda i, v, q2: hash((i, v, *_append_tallies(n, i, v, q2)))
            )
            for sigma, (word, total) in zip(avoiders(n, tau), walk, strict=True):
                assert word == sigma.word
                points = enumerate(sigma.word, start=1)
                assert total == sum(hash((j - 1, v, *_tallies(sigma, j))) for j, v in points)
    assert list(avoider_walk(0, P132.word, lambda i, v, q2: 1)) == [((), 0)]
    assert list(avoider_walk(1, P123.word, lambda i, v, q2: 1 << (i + v + q2))) == [((1,), 2)]
    with pytest.raises(ValueError):
        next(avoider_walk(3, (2, 1, 3), lambda i, v, q2: 0))


def test_fast_formula_row_bounds():
    # value clause is l < v <= n-k (the k/l swap in the other order is wrong)
    sigma = Permutation.parse("869743251")
    assert fast_mmp_0k0l(sigma, 2, 1) == 5
    assert mmp_count(sigma, QuadrantSpec(0, 2, 0, 1)) == 5
    assert sum(1 for j, v in enumerate(sigma.word, 1) if 2 < j <= 8 and 2 < v <= 8) == 4


def test_small_n_has_no_matches():
    for n in range(4):
        for sigma in avoiders(n, P123):
            assert mmp_count(sigma, QuadrantSpec(0, 2, 0, 2)) == 0


def test_0k0l_distribution_shape():
    # over 123-avoiders the (0,k,0,l) polynomial has at most k+l+1 terms,
    # with exponents confined to n-2(k+l)+r for r in 0..k+l
    for k in range(3):
        for ell in range(3):
            for n in range(k + ell + 1, 10):
                poly = distribution(n, P123, QuadrantSpec(0, k, 0, ell))
                allowed = {
                    n - 2 * (k + ell) + r
                    for r in range(k + ell + 1)
                    if n - 2 * (k + ell) + r >= 0
                }
                exponents = {e for e, _ in poly.items()}
                assert exponents <= allowed, (k, ell, n, exponents)
                assert len(exponents) <= k + ell + 1


def test_fast_mmp_0k0l():
    sigma = Permutation.parse("869743251")
    assert fast_mmp_0k0l(sigma, 2, 1) == sum(
        1 for j, v in enumerate(sigma.word, start=1) if 2 < j <= 8 and 1 < v <= 7
    )
    assert fast_mmp_0k0l(sigma, 0, 0) == sigma.n
    for n in range(8):
        for s in avoiders(n, P123):
            for k in range(3):
                for ell in range(3):
                    assert fast_mmp_0k0l(s, k, ell) == mmp_count(s, QuadrantSpec(0, k, 0, ell))
    with pytest.raises(ValueError):
        fast_mmp_0k0l(Permutation((1, 2, 3)), 1, 0)
