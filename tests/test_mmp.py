import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from qmmp import mmp
from qmmp.mmp import (
    _LANES,
    EMPTY,
    QuadrantSpec,
    _admits,
    _append_tallies,
    _in_window,
    _lane,
    _lane_walks,
    _packed_histogram,
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
from qmmp.perm import P123, P132, Permutation, avoiders, catalan_moves, left_to_right_minima, occurs
from qmmp.series import BiPoly, IntPoly, catalan, field_width, unpack

from band_reference import swapped_row_bounds
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
    # input order is kept, and a repeated spec shares its lane, however far
    # apart in the list
    spec = QuadrantSpec(1, EMPTY, 0, 1)
    assert distributions(6, P123, [spec, spec]) == [distribution(6, P123, spec)] * 2
    head = SPECS_012E[::-7]
    specs = head + SPECS_012E[:3] + head
    polys = distributions(6, P132, specs)
    assert polys == [distribution(6, P132, spec) for spec in specs]
    assert polys[: len(head)] == polys[-len(head) :]
    with pytest.raises(ValueError):
        distributions(3, Permutation((2, 1, 3)), SPECS_012E[:1])


def _distinct_lanes(tau, specs):
    """The specs of ``specs`` that no rule of :func:`_lane` merges at n >= 9
    (slot sums of 8 or less): over 123, those whose first and third slots
    are not both nonzero, unless both are EMPTY."""
    return [s for s in specs if tau is P132 or s.a == 0 or s.c == 0 or s.a is s.c is EMPTY]


def test_distributions_walk_group_boundaries(monkeypatch):
    # one lane short of a full walk, a full walk, and a full walk plus a
    # one-lane walk, against one walk per spec.  The specs are distinct lanes
    # at n = 9, so merging cannot shrink the walks, which the leaf bits count
    # (one set bit per lane); at n = 0 every spec takes the never lane.
    lanes, packed = [], mmp._packed_histogram

    def counted(n, tau_word, leaf, entry):
        lanes.append(leaf.bit_count())
        return packed(n, tau_word, leaf, entry)

    monkeypatch.setattr(mmp, "_packed_histogram", counted)
    for tau in (P123, P132):
        specs = _distinct_lanes(tau, SPECS_012E)[: _LANES + 1]
        assert len(specs) == _LANES + 1
        for n in (0, 1, 2, 9):
            alone = [distribution(n, tau, spec) for spec in specs]
            for count in (_LANES - 1, _LANES, _LANES + 1):
                lanes.clear()
                assert distributions(n, tau, specs[:count]) == alone[:count], (tau, n, count)
                if n == 9:
                    assert lanes == [min(count, _LANES)] + [1] * (count > _LANES), (tau, count)
        lanes.clear()
        assert distributions(0, tau, specs) == [IntPoly({0: 1})] * len(specs)
        assert lanes == [1]


def test_merged_lanes_are_the_unmerged_lanes():
    # every spec's own window, walked un-merged through _lane_walks, gives
    # the polynomial that distributions hands it from its shared lane; from
    # n = 9 on the 256 specs make 129 lanes over 123 and 256 over 132
    for tau in (P123, P132):
        for n in range(13):
            windows = [_window(spec, n) for spec in SPECS_012E]
            unmerged = _lane_walks(n, tau.word, windows, 0)
            assert distributions(n, tau, SPECS_012E) == unmerged, (tau, n)
        merged = {_lane(spec, 12, tau.word) for spec in SPECS_012E}
        assert len(merged) == (129 if tau is P123 else 256), tau


def test_lane_rules_keep_every_match():
    # a spec and its lane admit the same tally rows of every avoider: the
    # slot-sum rule and, over 123, the q1 * q3 = 0 rules merge only specs
    # that match alike, point by point
    for tau in (P123, P132):
        for n in range(9):
            rows = {q for sigma in avoiders(n, tau) for q in quadrant_rows(sigma.word)}
            for spec in SPECS_012E:
                window, lane = _window(spec, n), _lane(spec, n, tau.word)
                for q in rows:
                    assert _in_window(q, lane) == _in_window(q, window), (tau, n, spec, q)


def test_admits_is_the_per_tally_rule():
    # the running OR against the definition: per slot and tally, the OR of
    # the fields whose window admits that tally; thresholds k >= n admit
    # none, and an exact window (k, k), 0 < k < n, admits tally k alone
    specs = [QuadrantSpec(*c) for c in itertools.product((0, 1, 2, 3, EMPTY), repeat=4)]
    for n in (0, 1, 2, 5, 9):
        windows = [_window(spec, n) for spec in specs]
        for k in range(1, n):  # exact windows in the first and the fourth slot
            windows += [((k, k), *window[1:]) for window in windows[:9]]
            windows += [(*window[:3], (k, k)) for window in windows[:9]]
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


def test_bivariate_distributions_lanes(monkeypatch):
    # pairs of mixed k1 share walks, each pair's distribution in its own
    # lane, in input order, repeats and thresholds beyond n included
    pairs = [(k1, k2) for k1 in range(7) for k2 in range(7 - k1)]
    pairs += [(3, 0), (0, 3), (3, 0), (12, 1), (1, 12)]
    alone = {n: [bivariate_distribution(n, k1, k2) for k1, k2 in pairs * 2] for n in range(9)}
    for n, want in alone.items():
        assert bivariate_distributions(n, pairs) == want[: len(pairs)], n
    # A walk takes at most max(1, _LANES // (n + 1)) pairs, so with its
    # (n + 1)**2 fields a lane it holds no more fields than a full
    # distributions walk while n < _LANES; a longer list is split, the last
    # walk taking the rest.
    lanes, packed = [], mmp._packed_histogram

    def counted(n, tau_word, leaf, entry):
        lanes.append(leaf.bit_count())  # one set bit per lane
        return packed(n, tau_word, leaf, entry)

    monkeypatch.setattr(mmp, "_packed_histogram", counted)
    for n, budget in ((2, _LANES), (7, _LANES), (6, 5)):
        monkeypatch.setattr(mmp, "_LANES", budget)
        size = max(1, budget // (n + 1))
        for count in {size - 1, size, size + 1, 2 * size + 1} - {0}:
            lanes.clear()
            assert bivariate_distributions(n, (pairs * 2)[:count]) == alone[n][:count], (n, count)
            assert lanes == [size] * (count // size) + [count % size] * (count % size > 0)
    assert bivariate_distributions(5, []) == []
    for bad in ([(0, 1), (-1, 0)], [(0, -1)]):
        with pytest.raises(ValueError, match="k1, k2 must be nonnegative"):
            bivariate_distributions(5, bad)


def test_theorem_11_walk_memory():
    # theorem-11's 28 pairs in one call: at n = 12 a walk takes 7 of them,
    # and the traced peak is 1.32 MiB, that of one walk per k1; all 28 in
    # one walk would peak at 5.0 MiB
    pairs = [(k1, k2) for k1 in range(7) for k2 in range(7 - k1)]
    tracemalloc.start()
    try:
        bivariate_distributions(12, pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.4 * 2**20, peak


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
    # x1 = 1 keeps the peaks, the (0,k1,e,0) matches, and x0 = 1 the
    # non-peaks, the (0,k2,1,0) matches: each side of a lane has its window
    for n in range(9):
        for k1, k2 in itertools.product(range(4), repeat=2):
            biv = bivariate_distribution(n, k1, k2)
            for side, spec in enumerate((QuadrantSpec(0, k1, EMPTY, 0), QuadrantSpec(0, k2, 1, 0))):
                image = {}
                for exps, c in biv.items():
                    image[exps[side]] = image.get(exps[side], 0) + c
                assert IntPoly(image) == distribution(n, P123, spec), (n, k1, k2, side)


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


def _bands_by_definition(n, k, ell, top, bottom):
    """The row bands (the top ``top`` rows and the bottom ``bottom`` rows) and
    the column bands of a length-n graph, as sets of rows and columns."""
    grid = set(range(1, n + 1))
    rows = set(range(n - top + 1, n + 1)) | set(range(1, bottom + 1))
    columns = set(range(1, k + 1)) | set(range(n - ell + 1, n + 1))
    return rows & grid, columns & grid


def _corner_frame_by_definition(sigma, rows, columns):
    """(r, s) from the bands as sets of rows and columns."""
    points = list(enumerate(sigma.word, start=1))
    r = sum(1 for i, v in points if i in columns and v in rows)
    s = sum(1 for i, v in points if i in columns or v in rows)
    return (r, s)


def _has_violation_by_definition(sigma, k, ell, rows, columns):
    """Whether ``sigma`` has a violation: a point that matches (0,k,0,l),
    with at least k points in quadrant II and ell in quadrant IV, exactly
    when it lies in the frame."""
    points = enumerate(sigma.word, start=1)
    matched = [q[1] >= k and q[3] >= ell for q in quadrant_rows(sigma.word)]
    return any(m == (i in columns or v in rows) for (i, v), m in zip(points, matched))


def test_corner_frame_bands(monkeypatch):
    # corner_frame_counts and the theorem-12/13 walk share one band rule:
    # per pair the walk gives whether some avoider has a violating point and
    # the numbers of rows and columns in the bands, each taken from the
    # definitions, with the true bands and with the erratum's swapped row
    # bands, under which some pairs have violations
    pairs = tuple((k, ell) for k in range(5) for ell in range(5))
    for swapped in (False, True):
        if swapped:
            monkeypatch.setattr(mmp, "_bands", swapped_row_bounds)
        for n in range(9):
            bands = [
                _bands_by_definition(n, k, ell, *((ell, k) if swapped else (k, ell)))
                for k, ell in pairs
            ]
            violated = [False] * len(pairs)
            for sigma in avoiders(n, P123):
                for p, ((k, ell), (rows, columns)) in enumerate(zip(pairs, bands)):
                    r_s = _corner_frame_by_definition(sigma, rows, columns)
                    assert corner_frame_counts(sigma, k, ell) == r_s, (sigma, k, ell)
                    violated[p] |= _has_violation_by_definition(sigma, k, ell, rows, columns)
            want = [(v, len(rows), len(columns)) for v, (rows, columns) in zip(violated, bands)]
            assert _band_values(n, pairs) == want, (swapped, n)
        # at n = 8
        assert any(violated) == swapped
    with pytest.raises(ValueError):
        corner_frame_counts(Permutation((3, 2, 1)), 1, -1)


def test_tally_rows_of_123_avoiders_are_the_walked_rows():
    # A point with a smaller point before it (q3 > 0) and a larger one after
    # it (q1 > 0) is the 2 of a 123, so a 123-avoider's tally rows are among
    # the q with q1 + q2 + q3 + q4 = n - 1 and q1 * q3 = 0, and every such row
    # occurs.  The theorem-12/13 certificate checks the rows that the walk
    # asks its entry for, so it needs the walk to ask for each of them; the
    # walk's one table per level needs it to ask for each of them once.  A
    # row fixes its level, i = q2 + q3, so each row is one (level, row) pair.
    def walked(n, tau):
        asked = []
        _packed_histogram(n, tau.word, 1, lambda *q: asked.append(q) or 0)
        return sorted(asked)

    for n in range(13):
        candidates = itertools.product(range(n), repeat=4)
        want = {q for q in candidates if sum(q) == n - 1 and q[0] * q[2] == 0}
        assert walked(n, P123) == sorted(want), n
    for tau in (P123, P132):
        for n in range(10):
            rows = {q for sigma in avoiders(n, tau) for q in quadrant_rows(sigma.word)}
            assert walked(n, tau) == sorted(rows), (tau, n)


def _reference_walk(n, tau_word, leaf, entry):
    """The packed histograms of :func:`_packed_histogram`, with each state's moves
    from ``catalan_moves`` and each move's entry asked afresh: per level m, the
    entry of the state of the top m values; and the walk's counts of descents
    (below the least placed value) and ascents."""
    full = ((1 << n) - 1) << 1
    level = {0: leaf}
    tops = []
    descents = ascents = 0
    for i in range(n):
        tops.append(level[full ^ (1 << n - i + 1) - 2])  # values n-i+1..n
        after = {}
        for used, prefix in level.items():
            lowest = (used & -used).bit_length() - 1 if used else n + 1
            moves = catalan_moves(used, full, tau_word)
            while moves:
                bit = moves & -moves
                moves ^= bit
                v = bit.bit_length() - 1
                descents += v < lowest
                ascents += v > lowest
                m = entry(*_append_tallies(n, i, v, (used >> v).bit_count()))
                if not m:
                    moved = prefix
                elif isinstance(m, int):
                    moved = prefix << ~m
                else:
                    mask, s = m
                    moved = prefix - (prefix & mask) + ((prefix & mask) << s)
                after[used | bit] = after.get(used | bit, 0) + moved
        level = after
    return [*tops, level[full]], descents, ascents


def test_walk_kernel_is_the_reference_walk():
    # the kernel inlines catalan_moves: its descent lists and its one ascent
    # per state must walk the moves that catalan_moves gives, to the same
    # packed int, under entries of all three kinds, each row's kind and mask
    # fixed by the row; 2**n - 1 states make 2**n - 1 descents and
    # 2**n - n - 1 ascents.  The entry of the state of the top m values, as
    # level m starts, is that of the reference walk too, for every m, and
    # holds the length-m histogram: no move's entry shifts by tally q4 here
    lanes = 3
    for n in range(12):
        width = field_width(n)
        unit = lanes * width
        field = (1 << width) - 1
        lane = [sum(field << k * unit + j * width for k in range(n + 1)) for j in range(lanes)]
        leaf = sum(1 << j * width for j in range(lanes))
        kinds = set()

        def entry(q1, q2, q3, q4):
            r = (5 * q1 + 3 * q2 + 7 * q3 + q4) % 7
            if r < 2:
                m = ~unit if r else 0
            else:
                m = (sum(lane[j] for j in range(lanes) if r - 1 >> j & 1), unit)
            kinds.add(min(r, 2))
            return m

        for tau in (P123, P132):
            tops, descents, ascents = _reference_walk(n, tau.word, leaf, entry)
            assert _packed_histogram(n, tau.word, leaf, entry) == tops, (tau, n)
            assert (descents, ascents) == (2**n - 1, 2**n - n - 1), (tau, n)
            for m, top in enumerate(tops):
                assert [p.mass() for p in unpack(top, width, lanes, 0)] == [catalan(m)] * lanes
        if n >= 4:
            assert kinds == {0, 1, 2}, n


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
        lambda: bivariate_distributions(-1, [(0, 0), (0, 1)]),
        lambda: avoiders(-1, P132),
    ):
        with pytest.raises(ValueError, match="n must be nonnegative"):
            call()
