import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from qmmp.mmp import (
    _LANES,
    EMPTY,
    QuadrantSpec,
    _admits,
    _window,
    bivariate_distribution,
    bivariate_distributions,
    corner_frame_counts,
    distribution,
    distributions,
    fast_mmp_0k0l,
    matches_at,
    mmp_count,
    quadrant_rows,
    quadrants_at,
)
from qmmp.oracle import _band_values
from qmmp.perm import P123, P132, Permutation, avoiders, left_to_right_minima, occurs
from qmmp.series import BiPoly, IntPoly, catalan

from series_arith import to_univariate

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
    # a bool is an int, but True would render as a slot that parse rejects
    for slots in ((True, 0, False, 0), (0, 0, 0, False)):
        with pytest.raises(ValueError, match="natural number or EMPTY, got (True|False)"):
            QuadrantSpec(*slots)


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
    assert sum(quadrants_at(SIGMA, 4)) == SIGMA.n - 1


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
        assert quadrant_rows(sigma.word)[i - 1] == want


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
    # one spec at a time and all 256 specs in one call (3 walks of up to 96 lanes),
    # and mmp_count, against per-permutation counts from tallies taken by
    # the definition
    specs = SPECS_012E
    for tau in (P123, P132):
        for n in range(8):
            perms = _class_by_filter(n, tau)
            assert len(perms) == catalan(n)
            rows = [[_tallies(sigma, i) for i in range(1, n + 1)] for sigma in perms]
            batch = distributions(n, tau, specs)
            assert len(batch) == len(specs)
            for f, spec in enumerate(specs):
                hist = {}
                for sigma, row in zip(perms, rows):
                    m = sum(
                        1
                        for q in row
                        if all(x == 0 if c is EMPTY else x >= c for x, c in zip(q, spec.coords))
                    )
                    assert mmp_count(sigma, spec) == m, (sigma, spec)
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


def test_distributions_walk_group_boundaries():
    # one spec short of a full walk, a full walk, and a full walk plus a
    # one-lane walk, against one walk per spec; at n = 0 every lane is leaf
    specs = SPECS_012E[: _LANES + 1]
    for tau in (P123, P132):
        for n in (0, 1, 2, 9):
            alone = [distribution(n, tau, spec) for spec in specs]
            for count in (_LANES - 1, _LANES, _LANES + 1):
                assert distributions(n, tau, specs[:count]) == alone[:count], (tau, n, count)
        assert distributions(0, tau, specs) == [IntPoly({0: 1})] * len(specs)


def test_admits_is_the_per_tally_rule():
    # the running OR against the definition: per slot and tally, the OR of
    # the fields whose window admits that tally; thresholds k >= n admit none
    specs = [QuadrantSpec(*c) for c in itertools.product((0, 1, 2, 3, EMPTY), repeat=4)]
    for n in (0, 1, 2, 5, 9):
        windows = [_window(spec, n) for spec in specs]
        fields = [0b11 << 2 * f for f in range(len(windows))]
        want = [[0] * n for _ in range(4)]
        for field, window in zip(fields, windows):
            for admit, (lo, hi) in zip(want, window):
                for x in range(n):
                    if lo <= x <= hi:
                        admit[x] |= field
        assert _admits(windows, fields, n) == want, n
    window = _window(QuadrantSpec(2, 1, 0, EMPTY), 2)
    assert _admits([window], [1], 2) == [[0, 0], [0, 1], [1, 1], [1, 0]]


def test_distribution_walk_memory():
    # a walk holds two levels of prefix states, not an entry for each state
    tracemalloc.start()
    try:
        distribution(15, P132, QuadrantSpec(1, EMPTY, 2, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak


def test_lane_walk_memory():
    # the lanes interleave, so a state's histogram is only as wide as the
    # match counts its prefixes have reached, not n + 1 fields in every lane
    tracemalloc.start()
    try:
        distributions(12, P132, SPECS_012E[:96])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2**20, peak


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


def test_bivariate_distributions_lanes():
    # one walk per k1 holds each k2's distribution in its own lane, in input
    # order, repeats and thresholds beyond n included
    for n in range(10):
        for k1 in range(7):
            for k2s in (range(7 - k1), [3, 0, 3, 12, 1]):
                want = [bivariate_distribution(n, k1, k2) for k2 in k2s]
                assert bivariate_distributions(n, k1, k2s) == want, (n, k1, list(k2s))
    assert bivariate_distributions(5, 1, []) == []
    with pytest.raises(ValueError, match="k1, k2 must be nonnegative"):
        bivariate_distributions(5, 1, [0, -1])


def test_bivariate_distribution_examples():
    assert bivariate_distribution(2, 0, 0) == BiPoly({(1, 1): 1, (2, 0): 1})
    for n in range(7):
        assert bivariate_distribution(n, 0, 0).mass() == catalan(n)
    # specializing recovers the univariate distribution
    for n in range(7):
        for k in range(3):
            expect = distribution(n, P123, QuadrantSpec(0, k, 0, 0))
            assert to_univariate(bivariate_distribution(n, k, k)) == expect
    # x0=x1=x at (1,1), t^4 row
    assert to_univariate(bivariate_distribution(4, 1, 1)) == IntPoly({2: 9, 3: 5})


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


_SLOTS = st.one_of(st.integers(0, 5), st.just(EMPTY))

# lemma-sym over 132-avoiders and lemma-sym2 over 123-avoiders
_SYMMETRY = {
    P132: lambda a, b, c, d: QuadrantSpec(a, d, c, b),
    P123: lambda a, b, c, d: QuadrantSpec(c, d, a, b),
}


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 8),
    st.sampled_from([P123, P132]),
    st.lists(st.builds(QuadrantSpec, _SLOTS, _SLOTS, _SLOTS, _SLOTS), min_size=1, max_size=12),
)
def test_symmetry_lemmas_for_drawn_specs(n, tau, specs):
    # past test_symmetry_lemmas_small's {0,1,2,e}^4 and n < 6: each spec and
    # its image share one distributions walk
    images = [_SYMMETRY[tau](*spec.coords) for spec in specs]
    polys = distributions(n, tau, specs + images)
    assert polys[: len(specs)] == polys[len(specs) :], (n, tau, specs)


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


def _bands_by_definition(n, k, ell):
    """The row bands and the column bands of a length-n graph, as sets of rows and columns."""
    rows = set(range(n - k + 1, n + 1)) | set(range(1, ell + 1))
    columns = set(range(1, k + 1)) | set(range(n - ell + 1, n + 1))
    return rows, columns


def _corner_frame_by_definition(sigma, k, ell):
    """(r, s) from the bands as sets of rows and columns."""
    rows, columns = _bands_by_definition(sigma.n, k, ell)
    points = list(enumerate(sigma.word, start=1))
    r = sum(1 for i, v in points if i in columns and v in rows)
    s = sum(1 for i, v in points if i in columns or v in rows)
    return (r, s)


def _band_counts_by_definition(sigma, k, ell):
    """Violations, row-band, column-band and corner points of ``sigma``: a
    violation is a point that matches (0,k,0,l), with at least k points in
    quadrant II and ell in quadrant IV, exactly when it lies in the frame."""
    rows, columns = _bands_by_definition(sigma.n, k, ell)
    points = list(enumerate(sigma.word, start=1))
    matched = [q[1] >= k and q[3] >= ell for q in quadrant_rows(sigma.word)]
    return (
        sum(1 for (i, v), m in zip(points, matched) if m == (i in columns or v in rows)),
        sum(1 for i, v in points if v in rows),
        sum(1 for i, v in points if i in columns),
        sum(1 for i, v in points if i in columns and v in rows),
    )


def test_corner_frame_bands():
    # corner_frame_counts and the theorem-12/13 walk share one band rule:
    # each of the walk's four value sets per pair is the set of that count
    # taken avoider by avoider from the definitions
    pairs = tuple((k, ell) for k in range(5) for ell in range(5))
    for n in range(9):
        want = [(set(), set(), set(), set()) for _ in pairs]
        for sigma in avoiders(n, P123):
            for (k, ell), sets in zip(pairs, want):
                r_s = _corner_frame_by_definition(sigma, k, ell)
                assert corner_frame_counts(sigma, k, ell) == r_s, (sigma, k, ell)
                for values, count in zip(sets, _band_counts_by_definition(sigma, k, ell)):
                    values.add(count)
        assert _band_values(n, pairs) == want, n
    with pytest.raises(ValueError):
        corner_frame_counts(Permutation((3, 2, 1)), 1, -1)


def test_walk_checks_give_the_messages_of_avoiders():
    # the class and length checks of avoiders, with its messages, are those
    # of the distribution walks
    for n, tau_word in ((-1, P123.word), (3, (2, 1, 3)), (-1, (1, 2)), (0, (3, 2, 1))):
        with pytest.raises(ValueError) as listed:
            avoiders(n, Permutation(tau_word))
        with pytest.raises(ValueError) as walked:
            distributions(n, Permutation(tau_word), [])
        assert str(walked.value) == str(listed.value)


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


def test_negative_length_is_rejected():
    # the distributions give the message of avoiders
    spec = QuadrantSpec(0, 0, 0, 0)
    for call in (
        lambda: distribution(-1, P123, spec),
        lambda: distributions(-1, P132, [spec]),
        lambda: distributions(-1, P132, []),
        lambda: bivariate_distribution(-1, 0, 0),
        lambda: bivariate_distributions(-1, 0, [0, 1]),
        lambda: avoiders(-1, P132),
    ):
        with pytest.raises(ValueError, match="n must be nonnegative"):
            call()
