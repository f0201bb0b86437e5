"""Quadrant pattern specifications, matching, counting, and distributions.

A position ``i`` of a permutation splits the remaining points of the graph
into four quadrants relative to ``(i, sigma_i)``:

- I: later positions with larger values,
- II: earlier positions with larger values,
- III: earlier positions with smaller values,
- IV: later positions with smaller values.

A :class:`QuadrantSpec` puts one condition per quadrant: a number ``k``
requires at least ``k`` points there (0 is no condition), while ``EMPTY``
requires the quadrant to contain no points at all.  The 0-versus-EMPTY
distinction is load-bearing everywhere in this package.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Callable, Sequence, Union

from .perm import P123, Permutation, _Key, _check_n, _check_walk, occurs
from .series import BiPoly, IntPoly, field_width, unpack


class _EmptyType:
    """The 'quadrant must be empty' marker; a singleton distinct from 0."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "EMPTY"

    def __reduce__(self):
        return (_EmptyType, ())


EMPTY = _EmptyType()

Coord = Union[int, _EmptyType]


def _check_coord(v: Coord) -> None:
    if v is EMPTY:
        return
    if not isinstance(v, int) or isinstance(v, bool) or v < 0:
        raise ValueError(f"quadrant condition must be a natural number or EMPTY, got {v!r}")


class QuadrantSpec(_Key):
    """The four quadrant conditions ``(a, b, c, d)`` for quadrants I-IV, each a ``Coord``."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: Coord, b: Coord, c: Coord, d: Coord) -> None:
        for v in (a, b, c, d):
            _check_coord(v)
        self._set(a, b, c, d)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.c == other.c and self.d == other.d

    __hash__ = _Key.__hash__  # a class that defines __eq__ must restate its hash

    @property
    def coords(self) -> tuple[Coord, Coord, Coord, Coord]:
        return (self.a, self.b, self.c, self.d)

    @classmethod
    def parse(cls, text: str) -> "QuadrantSpec":
        """Parse the textual form ``"a,b,c,d"`` with ``e`` standing for EMPTY."""
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 4:
            raise ValueError(f"invalid quadrant spec {text!r}: expected 4 comma-separated slots")
        coords = []
        for p in parts:
            if p.lower() == "e":
                coords.append(EMPTY)
            elif p.isascii() and p.isdigit():  # str.isdigit alone takes "²"
                coords.append(int(p))
            else:
                raise ValueError(f"invalid quadrant spec {text!r}: bad slot {p!r}")
        return cls(*coords)

    def __str__(self) -> str:
        return ",".join("e" if v is EMPTY else str(v) for v in self.coords)

    def compact(self) -> str:
        """Slot string without separators, e.g. ``01e0`` (used in file names)."""
        return str(self).replace(",", "")


def _append_tallies(n: int, i: int, v: int, q2: int) -> tuple[int, int, int, int]:
    """Quadrant I-IV tallies of value ``v`` appended as entry ``i + 1`` of a length-n word.

    ``q2`` is the number of earlier larger values, ``popcount(used >> v)``
    when bit ``u`` of ``used`` is set for each earlier value ``u``; then
    ``q1 = n - v - q2``, ``q3 = i - q2`` and ``q4 = n - 1 - i - q1``.
    """
    q1 = n - v - q2
    return (q1, q2, i - q2, n - 1 - i - q1)


def quadrant_rows(word: Sequence[int]) -> tuple[tuple[int, int, int, int], ...]:
    """Quadrant I-IV tallies at every entry of the permutation ``word``, in one left-to-right pass.

    ``used`` has bit ``v`` set for each value placed so far, so at entry
    ``i + 1`` with value ``v`` the earlier larger values number
    ``q2 = popcount(used >> v)``, and the other tallies follow by
    :func:`_append_tallies`, as in the append-time walk
    :func:`_packed_histogram`.
    """
    n = len(word)
    used = 0
    rows = []
    for i, v in enumerate(word):
        rows.append(_append_tallies(n, i, v, (used >> v).bit_count()))
        used |= 1 << v
    return tuple(rows)


def quadrants_at(sigma: Permutation, i: int) -> tuple[int, int, int, int]:
    """Counts of graph points in quadrants I-IV relative to position ``i`` (1-based)."""
    if not 1 <= i <= sigma.n:
        raise ValueError(f"position {i} out of range 1..{sigma.n}")
    return quadrant_rows(sigma.word)[i - 1]


def _window(spec: QuadrantSpec, n: int) -> tuple[tuple[int, int], ...]:
    """Per slot, the closed range ``(lo, hi)`` of tallies that match at length ``n``: the
    one rule that turns a spec into match bounds.

    EMPTY is ``(0, 0)``: no points there.  A number ``k`` is ``(k, n)``: at
    least ``k`` points, since a tally is at most ``n - 1``.
    """
    return tuple([(0, 0) if v is EMPTY else (v, n) for v in spec.coords])


def _in_window(q: tuple[int, int, int, int], window: tuple[tuple[int, int], ...]) -> bool:
    return all(lo <= x <= hi for x, (lo, hi) in zip(q, window))


def _admits(windows, fields, n: int) -> list[list[int]]:
    """Per slot and tally 0..n-1, the OR of the ``fields`` whose window admits that tally.

    If no two fields share a bit, a move's tallies match window ``f``
    exactly when field ``f`` survives the AND of its four slots' entries.
    A range is *exact*, ``(k, k)``, as EMPTY's ``(0, 0)`` and the shifted
    EMPTY of :func:`_degree_lanes` are, or a run ``(k, n)``.  So each field
    is ORed once, into its own tally k or into the start k of its run, and
    one running OR over the tallies fills in the runs, one shared int from
    each start to the next; a range starting at ``k >= n`` admits no tally.
    """
    admits = []
    for slot in range(4):
        starts = [0] * (n + 1)
        exact: dict[int, int] = {}
        for field, window in zip(fields, windows):
            lo, hi = window[slot]
            if lo != hi:
                starts[min(lo, n)] |= field
            else:
                exact[lo] = exact.get(lo, 0) | field
        admit = list(accumulate(starts[:n], lambda run, begun: run | begun if begun else run))
        for k, own in exact.items():
            if k < n:
                admit[k] |= own
        admits.append(admit)
    return admits


def matches_at(sigma: Permutation, i: int, spec: QuadrantSpec) -> bool:
    """True iff position ``i`` of ``sigma`` satisfies every quadrant condition."""
    return _in_window(quadrants_at(sigma, i), _window(spec, sigma.n))


def mmp_count(sigma: Permutation, spec: QuadrantSpec) -> int:
    """Number of positions of ``sigma`` matching ``spec``."""
    window = _window(spec, sigma.n)
    return sum(1 for q in quadrant_rows(sigma.word) if _in_window(q, window))


# ---------------------------------------------------------------------------
# Distributions over avoidance classes (the brute-force ground truth)

# Lanes per walk of :func:`_lane_walks`, whose bivariate lanes hold n + 1
# times the fields.  A walk holds two levels of states, and a state's
# histogram only the indices it has reached, so a lane costs little memory:
# at 96 lanes verify-all runs 58 lane walks (189 at 24, 101 at 48, 50 at
# 128; the band subjects' 20 walks keep no lanes), and a warm run's traced
# peak is 1.20 MB (1.07 at 24 lanes, 1.10 at 48, 1.31 at 128), about 0.4 MB
# of it the engine series that the engine-vs-oracle subjects hold while
# they wait and 0.18 MB theorem-11's 28 bivariate engine series.
_LANES = 96


def _packed_histogram(
    n: int,
    tau_word: tuple[int, ...],
    leaf: int,
    entry: Callable[[int, int, int, int], int | tuple[int, int]],
) -> list[int]:
    """Match-count histograms over the length-n avoiders of 123 or 132, packed in one
    int, and at each level m the histogram of the state ``T_m`` of the top m values.

    The avoiders are built left to right, one level per entry; a state is
    the bitmask ``slot`` of the values placed so far (bit ``v - 1`` for
    value ``v``).  Its moves are those of :func:`qmmp.perm.catalan_moves`,
    inlined here: each keeps every free value placeable, so every prefix
    that reaches a state completes to an avoider in the same ways, and the
    avoiders are the paths from ``0`` to the state with bits 0..n-1.

    Entry ``slot`` of one list of ``2**n`` holds the histogram of the
    prefixes that reach ``slot``, from ``leaf`` at the empty prefix, and
    each level lists its states in the order first reached.  A move adds
    its parent's histogram, transformed, into its child's entry; the
    parent's entry is cleared as its moves are added, so at most two
    levels are live.

    A value ``v`` appended as entry ``i + 1`` has its tallies fixed at once
    (:func:`_append_tallies`, with ``q2 = popcount(slot >> v)``), and
    ``entry(q1, q2, q3, q4)`` says what a match there does to a histogram:
    0 leaves it as it is, ``~s`` moves all of it up by ``s`` bits, and a
    pair ``(mask, s)`` moves the bits under ``mask`` up by ``s`` bits.
    Each is a shift of whole lanes, so the transforms commute with each
    other and with addition, and summing over prefixes gives the ints that
    summing over suffixes would.  Histograms merge by addition, so a field
    must never carry.

    A *descent* places a free value ``v`` below the least placed value
    ``lowest``.  Every placed value lies above it, so ``q2 = i`` and its
    row is ``(n - v - i, i, 0, v - 1)``, fixed by ``(i, v)``: each level
    builds one list of the descents ``v = 1..n-i`` with their entries, and
    a state takes its first ``lowest - 1``.  Every i-subset of values is a
    state (placed in decreasing order), so the state of the top ``i``
    values takes them all, and each entry asked is that of a row that
    occurs.  The one *ascent* of a state, if any, places the largest free
    value (123) or the least free value above ``lowest`` (132).  Its row
    has ``q3 > 0``, so it is never a descent's, and a table per level,
    keyed by ``(v, q2)``, keeps its entries.  So ``entry`` is asked once
    for each tally row that a point of an avoider has (a row fixes its
    level, ``i = q2 + q3``) and for no other.  The ``2**n - 1`` states of
    levels 0..n-1 make ``2**n - 1`` descents and ``2**n - n - 1`` ascents.

    Entry m of the list returned is the histogram at ``T_m``, the state of
    the values ``n - m + 1..n``, as level m starts; entry n is that of the
    full state, entry 0 is ``leaf``.  The prefixes that reach ``T_m`` are
    the length-m avoiders shifted up by ``n - m``: each is a prefix of an
    avoider, and each completes by the other values in decreasing order,
    since a 123 or 132 needs its 1 before larger later values and every
    later value is below the whole prefix.  At ``T_m`` a point's q1, q2 and
    q3 are those of its length-m avoider, and its q4 is larger by ``n - m``,
    the bottom values all coming later.  So a lane whose fourth window is
    shifted up by ``n - m`` reads at ``T_m`` the length-m histogram of its
    unshifted window (:func:`_degree_lanes`).  No field carries there
    either: distinct prefixes that reach a state extend to distinct
    avoiders, so every count is at most ``C_n``.
    """
    full = (1 << n) - 1
    empty_low = 1 << n  # the least value of the empty prefix reads as n + 1
    bits = n.bit_length()
    least_above = tau_word != P123.word
    slots = [0] * (1 << n)
    slots[0] = leaf
    level = [0]
    tops = []
    for i in range(n):
        tops.append(slots[full ^ (1 << n - i) - 1])  # T_i: bits n-i..n-1
        down = [(1 << v - 1, entry(*_append_tallies(n, i, v, i))) for v in range(1, n - i + 1)]
        below = [down[:k] for k in range(n - i + 1)]  # the descents of lowest = k + 1
        entries: list[int | tuple[int, int] | None] = [None] * (n + 1 << bits)
        after = []
        for slot in level:
            prefix = slots[slot]
            slots[slot] = 0
            low = slot & -slot or empty_low
            for bit, m in below[low.bit_length() - 1]:
                if not m:
                    moved = prefix
                elif m.__class__ is int:
                    moved = prefix << ~m
                else:
                    mask, s = m
                    part = prefix & mask
                    moved = prefix - part + (part << s)
                child = slot | bit
                got = slots[child]
                if got:
                    slots[child] = got + moved
                else:
                    slots[child] = moved
                    after.append(child)
            above = (full ^ slot) & -low
            if not above:
                continue
            bit = above & -above if least_above else 1 << above.bit_length() - 1
            v = bit.bit_length()
            q2 = (slot >> v).bit_count()
            m = entries[v << bits | q2]
            if m is None:
                m = entries[v << bits | q2] = entry(*_append_tallies(n, i, v, q2))
            if not m:
                moved = prefix
            elif m.__class__ is int:
                moved = prefix << ~m
            else:
                mask, s = m
                part = prefix & mask
                moved = prefix - part + (part << s)
            child = slot | bit
            got = slots[child]
            if got:
                slots[child] = got + moved
            else:
                slots[child] = moved
                after.append(child)
        level = after
    tops.append(slots[full])
    return tops


def _lane_walks(n: int, tau_word, lanes, stride: int, reads=None) -> list[IntPoly | BiPoly]:
    """The polynomial of each lane in ``lanes``, in order, from shared walks.

    A lane is a :func:`_window` at ``stride = 0`` and a pair ``(peak,
    other)`` of windows at ``stride = n + 1``.  A point with q3 = 0 (a
    *peak*) matches it when its tallies lie in ``peak``, any other point
    when they lie in ``other``; a lone window is both.  Up to ``max(1,
    _LANES // max(stride, 1))`` lanes share a :func:`_packed_histogram`
    walk, interleaved: field ``index * L + j`` of a walk of ``L`` lanes,
    each ``field_width(n)`` bits, counts lane j's avoiders at that index,
    so a state's histogram is only as wide as the indices it has reached.
    A match moves its lanes up one step of ``L`` fields and a peak match
    ``max(stride, 1)`` steps, so the index is the match count at ``stride
    = 0`` and ``m0 * stride + m1`` for m0 peak and m1 other matches at
    ``stride = n + 1`` (:func:`qmmp.series.unpack`).  A move's entry ANDs
    the lanes that :func:`_admits` gives its four tallies.

    Each lane is read at the walk's full state, unless ``reads`` lists the
    pairs ``(j, m)`` to read: then one polynomial per pair, in order, is
    lane j's histogram at the walk's state of the top m values
    (:func:`_packed_histogram`), so a lane may be read at several lengths.
    """
    if reads is None:
        reads = [(j, n) for j in range(len(lanes))]
    width = field_width(n)
    step = max(stride, 1)
    size = max(1, _LANES // step)
    read: dict[tuple[int, int], IntPoly | BiPoly] = {}
    for start in range(0, len(lanes), size):
        group = lanes[start : start + size]
        unit = len(group) * width
        # the fields of lane 0, then of each lane
        lane = sum(((1 << width) - 1) << s * unit for s in range((n + 1) * step))
        fields = [lane << j * width for j in range(len(group))]
        every = (1 << (n + 1) * step * unit) - 1
        peaks, others = zip(*group) if stride else (group, group)
        peak = other = _admits(peaks, fields, n)
        if others != peaks:
            other = _admits(others, fields, n)
        del lane, fields  # the walk needs only the tables, not the masks

        # Defaults bind the tables as locals: entry runs once per distinct move.
        def entry(q1, q2, q3, q4, peak=peak, other=other, every=every, up=step * unit, unit=unit):
            (a1, a2, a3, a4), s = (other, unit) if q3 else (peak, up)
            mask = a1[q1] & a2[q2] & a3[q3] & a4[q4]
            return 0 if not mask else ~s if mask == every else (mask, s)

        leaf = sum(1 << j * width for j in range(len(group)))
        tops = _packed_histogram(n, tau_word, leaf, entry)
        for m in {m for j, m in reads if start <= j < start + size}:
            polys = unpack(tops[m], width, len(group), stride)
            read.update(((start + j, m), poly) for j, poly in enumerate(polys))
    return [read[pair] for pair in reads]


def _degree_lanes(spec: QuadrantSpec, n: int) -> tuple[list, list[tuple[int, int]]]:
    """The distinct lanes, and the reads of :func:`_lane_walks`, that give the
    distribution of ``spec`` at every length m = 0..n from one length-n walk.

    Length m reads at the state of the top m values, where a point's q4 is
    larger by ``n - m`` than in its length-m avoider (:func:`_packed_histogram`),
    so its lane is ``_window(spec, n)`` with the fourth slot shifted by
    ``n - m``: EMPTY becomes the exact ``(n - m, n - m)``, a number ``d >=
    1`` becomes ``(min(d + n - m, n), n)``, and 0 stays ``(0, n)``, one
    lane for every m.
    """
    *head, _ = _window(spec, n)
    d = spec.d
    lanes: dict[tuple[tuple[int, int], ...], int] = {}
    reads = []
    for m in range(n + 1):
        shift = n - m
        fourth = (shift, shift) if d is EMPTY else (min(d + shift, n), n) if d else (0, n)
        reads.append((lanes.setdefault((*head, fourth), len(lanes)), m))
    return list(lanes), reads


def _lane(spec: QuadrantSpec, n: int, tau_word: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """The window of the lane that ``spec`` takes at length n, by the rules of
    :func:`distributions`; the never lane is ``((n, n),) * 4``, which admits
    no tally."""
    window = _window(spec, n)
    (a, _), (b, _), (c, _), (d, _) = window
    class_123 = tau_word == P123.word
    if a + b + c + d >= n or class_123 and a and c:
        return ((n, n),) * 4
    if class_123 and (a or c):
        return ((a, n), window[1], (c, n), window[3])
    return window


def distributions(n: int, tau: Permutation, specs: Sequence[QuadrantSpec]) -> list[IntPoly]:
    """:func:`distribution` of each spec in ``specs``, in order, from shared walks.

    The x0 = x1 image of :func:`_lane_walks`, its ``stride = 0``, with one
    lane per distinct :func:`_lane`.  Specs that match the same points of
    every avoider share a lane, and so its walk and its polynomial, by two
    rules:

    - *Both classes.*  A spec whose numbers sum to n or more matches no
      point, since a point's four quadrants hold only the other n - 1
      points.  All such specs share one *never* lane, which is walked like
      any other, so its mass is still counted.
    - *123 only.*  A point with q1 >= 1 and q3 >= 1 is the 2 of a 123, so a
      spec with first and third slots both >= 1 takes the never lane, and
      when one of the two is >= 1 the other's tally is 0: an EMPTY there
      reads as 0.
    """
    _check_walk(n, tau.word)
    lanes: dict[tuple[tuple[int, int], ...], int] = {}
    index = [lanes.setdefault(_lane(spec, n, tau.word), len(lanes)) for spec in specs]
    polys = _lane_walks(n, tau.word, list(lanes), 0)
    return [polys[i] for i in index]


def distribution(n: int, tau: Permutation, spec: QuadrantSpec) -> IntPoly:
    """Match-count generating polynomial over the length-n avoiders of ``tau``.

    The coefficient of ``x^m`` is the number of avoiders with exactly ``m``
    matching positions; the total mass is the n-th Catalan number.
    """
    return distributions(n, tau, (spec,))[0]


def bivariate_distributions(n: int, pairs: Sequence[tuple[int, int]]) -> list[BiPoly]:
    """:func:`bivariate_distribution` of each ``(k1, k2)`` in ``pairs``, in order, from lane walks.

    The bivariate image of :func:`_lane_walks`, its ``stride = n + 1``, whose
    lanes are the windows of ``(0, k1, 0, 0)`` and ``(0, k2, 0, 0)``.
    """
    _check_n(n)
    if any(k < 0 for pair in pairs for k in pair):
        raise ValueError("k1, k2 must be nonnegative")
    lanes = [tuple(((0, n), (k, n), (0, n), (0, n)) for k in pair) for pair in pairs]
    return _lane_walks(n, P123.word, lanes, n + 1)


def bivariate_distribution(n: int, k1: int, k2: int) -> BiPoly:
    """Joint distribution over 123-avoiders, split by peak / non-peak positions.

    A position is a *peak* when its third quadrant is empty (equivalently, a
    left-to-right minimum).  ``x0`` counts peaks with at least ``k1`` points
    in quadrant II, ``x1`` counts non-peaks with at least ``k2`` points
    there.  Setting x0 = x1 = x with k1 = k2 = k recovers
    ``distribution(n, 123, (0, k, 0, 0))``.
    """
    return bivariate_distributions(n, ((k1, k2),))[0]


# ---------------------------------------------------------------------------
# Corner and frame bands over 123-avoiders


def _bands(j: int, v: int, n: int, k: int, ell: int) -> tuple[bool, bool]:
    """Whether the point ``(j, v)`` of a length-n graph lies in a row band, and in a column band.

    The row bands are the top ``k`` rows and bottom ``ell`` rows, the column
    bands the left ``k`` and right ``ell`` columns.  A point lies in a
    corner when it is in both, and in the frame when it is in either; the
    interior is the complement of the frame.
    """
    return v > n - k or v <= ell, j <= k or j > n - ell


def corner_frame_counts(sigma: Permutation, k: int, ell: int) -> tuple[int, int]:
    """Counts (r, s) of graph points in the corner and frame bands (:func:`_bands`).

    For n > k + ell the identity ``s = 2(k + ell) - r`` holds on every
    123-avoider.
    """
    if k < 0 or ell < 0:
        raise ValueError("k, ell must be nonnegative")
    if occurs(P123, sigma):
        raise ValueError(f"{sigma} contains an increasing triple; a 123-avoider is required")
    r = s = 0
    for j, v in enumerate(sigma.word, start=1):
        row, column = _bands(j, v, sigma.n, k, ell)
        r += row and column
        s += row or column
    return (r, s)


def fast_mmp_0k0l(sigma: Permutation, k: int, ell: int) -> int:
    """Match count for the spec ``(0, k, 0, ell)`` without scanning quadrants.

    On a 123-avoider this is just the number of points in the interior of
    the bands (:func:`_bands`), i.e. at positions ``k < j <= n - ell`` with
    values ``ell < sigma_j <= n - k``.
    """
    return sigma.n - corner_frame_counts(sigma, k, ell)[1]
