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
from operator import or_
from typing import Callable, Sequence, Union

from .perm import P123, Permutation, _Key, _check_n, _check_walk, catalan_moves, occurs
from .series import BiPoly, IntPoly, field_width, unpack_fields


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
    """Per slot, the closed range ``(lo, hi)`` of tallies that match at length ``n``.

    EMPTY is ``(0, 0)``: no points there.  A number ``k`` is ``(k, n)``: at
    least ``k`` points, since a tally is at most ``n - 1``.
    """
    return tuple((0, 0) if v is EMPTY else (v, n) for v in spec.coords)


def _in_window(q: tuple[int, int, int, int], window: tuple[tuple[int, int], ...]) -> bool:
    return all(lo <= x <= hi for x, (lo, hi) in zip(q, window))


def _admits(windows, fields, n: int) -> list[list[int]]:
    """Per slot and tally 0..n-1, the OR of the ``fields`` whose window admits that tally.

    If no two fields share a bit, a move's tallies match window ``f``
    exactly when field ``f`` survives the AND of its four slots' entries.
    A :func:`_window` range is ``(0, 0)`` or ``(k, n)``, so each field is
    ORed once, into tally 0 or into the start ``k`` of its run, and one
    running OR over the tallies fills in the rest; a run starting at
    ``k >= n`` admits no tally.
    """
    admits = []
    for slot in range(4):
        starts = [0] * (n + 1)
        empty = 0
        for field, window in zip(fields, windows):
            lo, hi = window[slot]
            if hi:
                starts[min(lo, n)] |= field
            else:
                empty |= field
        admit = list(accumulate(starts[:n], or_))
        if admit:
            admit[0] |= empty
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

# Specs per walk of :func:`distributions`.  A walk holds two levels of
# states, and a state's histogram only the match counts it has reached, so a
# lane costs little memory: at 96 lanes verify-all runs 128 distribution and
# bivariate walks (296 at 24, 123 at 128), besides the band subjects' 20, and
# its traced peak is 0.85 MB (0.80 at 24-64 lanes, 1.02 at 128), about 0.4 MB
# of it the engine series that the engine-vs-oracle subjects hold while they
# wait; from 48 lanes on, more are no faster.
_LANES = 96


def _packed_histogram(
    n: int,
    tau_word: tuple[int, ...],
    leaf: int,
    step: int,
    entry: Callable[[int, int, int, int], int],
) -> int:
    """Match-count histograms over the length-n avoiders of 123 or 132, packed in one int.

    The avoiders are built left to right, one level per entry; a state is
    the bitmask ``used`` of the values placed so far (bit ``v`` for value
    ``v``).  Its moves (:func:`qmmp.perm.catalan_moves`) are the free values
    below the running minimum, its lowest set bit, called *descents*, and
    one ascent.  Each move keeps every free value placeable, so every prefix
    that reaches a state completes to an avoider in the same ways, and the
    avoiders are the paths from ``0`` to the state with bits 1..n.

    Slot ``used >> 1`` of one list of ``2**n`` holds the histogram of the
    prefixes that reach ``used``, from ``leaf`` at the empty prefix, and
    each level lists its states' slots in the order first reached.  A
    move adds its parent's histogram, transformed, into its child's slot;
    the parent's slot is cleared as its moves are added, so at most two
    levels are live.

    A value ``v`` appended as entry ``i + 1`` has its tallies fixed at once
    (:func:`_append_tallies`, with ``q2 = popcount(used >> v)``), and
    ``entry(q1, q2, q3, q4)`` says what a match there does to a histogram:
    0 leaves it as it is, ``~s`` moves all of it up by ``s`` bits, and a
    mask ``m > 0`` moves the bits under ``m`` up by ``step``.  Each is a
    shift of whole lanes, so the transforms commute with each other and
    with addition, and summing over prefixes gives the ints that summing
    over suffixes would.  A descent has all ``i`` placed values above it,
    ``q2 = i``, so its entry comes from a list per level, built up front;
    only the ascent takes the popcount and a table of the level.  Histograms
    merge by addition, so a field must never carry into the next.
    """
    full = ((1 << n) - 1) << 1
    bits = n.bit_length()
    slots = [0] * (1 << n)
    slots[0] = leaf
    level = [0]
    for i in range(n):
        # indexed by the bit length v + 1 of a descent's bit
        descent = [0, 0] + [entry(*_append_tallies(n, i, v, i)) for v in range(1, n - i + 1)]
        ascent: list[int | None] = [None] * (n + 1 << bits)
        after = []
        for slot in level:
            prefix = slots[slot]
            slots[slot] = 0
            used = slot << 1
            moves = catalan_moves(used, full, tau_word)
            # from the empty prefix every move is a descent
            lowest = used & -used or 2 << n
            while moves:
                bit = moves & -moves
                moves ^= bit
                if bit < lowest:
                    m = descent[bit.bit_length()]
                else:
                    v = bit.bit_length() - 1
                    q2 = (used >> v).bit_count()
                    m = ascent[v << bits | q2]
                    if m is None:
                        m = ascent[v << bits | q2] = entry(*_append_tallies(n, i, v, q2))
                if not m:
                    moved = prefix
                elif m < 0:
                    moved = prefix << ~m
                else:
                    low = prefix & m
                    moved = prefix - low + (low << step)
                child = (used | bit) >> 1
                got = slots[child]
                if got:
                    slots[child] = got + moved
                else:
                    slots[child] = moved
                    after.append(child)
        level = after
    return slots[full >> 1]


def distributions(n: int, tau: Permutation, specs: Sequence[QuadrantSpec]) -> list[IntPoly]:
    """:func:`distribution` of each spec in ``specs``, in order, from shared walks.

    Up to 96 specs share one walk of :func:`_packed_histogram` as *lanes*
    interleaved as in :func:`bivariate_distributions`: field ``m * L + j`` of
    a walk of ``L`` lanes counts the avoiders with ``m`` matches of the j-th
    spec, so a state's histogram is only as wide as the match counts it has
    reached.  A field is ``field_width(n)`` bits wide
    (:func:`qmmp.series.field_width`), since a count is at most C_n.  A move
    shifts the lanes of the specs it matches up by ``L`` fields, all of the
    histogram when it matches every spec.
    """
    return _lane_polys(n, _lane_walks(n, tau, specs), len(specs))


def _lane_walks(n: int, tau: Permutation, specs: Sequence[QuadrantSpec]) -> list[int]:
    """The packed histograms of :func:`distributions`, one walk per group of up to 96 specs."""
    tau_word = tau.word
    _check_walk(n, tau_word)
    width = field_width(n)
    walks = []
    for start in range(0, len(specs), _LANES):
        windows = [_window(spec, n) for spec in specs[start : start + _LANES]]
        step = len(windows) * width
        # the fields of lane 0, one per match count
        lane = sum(((1 << width) - 1) << m * step for m in range(n + 1))
        every = (1 << (n + 1) * step) - 1
        # Per slot and tally, the lanes whose window admits that tally.
        a1, a2, a3, a4 = _admits(windows, [lane << j * width for j in range(len(windows))], n)

        # Defaults bind the tables as locals: entry runs once per distinct move.
        def entry(q1, q2, q3, q4, a1=a1, a2=a2, a3=a3, a4=a4, every=every, step=step):
            m = a1[q1] & a2[q2] & a3[q3] & a4[q4]
            return ~step if m == every else m

        leaf = sum(1 << j * width for j in range(len(windows)))
        walks.append(_packed_histogram(n, tau_word, leaf, step, entry))
    return walks


def _lane_fields(packed: int, width: int, lanes: int) -> list[dict[int, int]]:
    """Per lane j, the nonzero fields ``index * lanes + j`` of ``packed``, keyed by ``index``."""
    out: list[dict[int, int]] = [{} for _ in range(lanes)]
    for f, c in unpack_fields(packed, width).items():
        index, j = divmod(f, lanes)
        out[j][index] = c
    return out


def _lane_polys(n: int, walks: list[int], count: int) -> list[IntPoly]:
    """The ``count`` polynomials packed in the lanes of :func:`_lane_walks`' walks, in order."""
    width = field_width(n)
    out: list[IntPoly] = []
    for start, packed in zip(range(0, count, _LANES), walks):
        out += map(IntPoly._from_keys, _lane_fields(packed, width, min(_LANES, count - start)))
    return out


def distribution(n: int, tau: Permutation, spec: QuadrantSpec) -> IntPoly:
    """Match-count generating polynomial over the length-n avoiders of ``tau``.

    The coefficient of ``x^m`` is the number of avoiders with exactly ``m``
    matching positions; the total mass is the n-th Catalan number.
    """
    return distributions(n, tau, (spec,))[0]


def bivariate_distributions(n: int, k1: int, k2s: Sequence[int]) -> list[BiPoly]:
    """:func:`bivariate_distribution` of ``k1`` with each of ``k2s``, in order, from one walk.

    The avoiders with ``m0`` peak and ``m1`` non-peak matches for the j-th
    ``k2`` are counted in field ``(m0 * (n + 1) + m1) * len(k2s) + j`` of
    one :func:`_packed_histogram` walk, interleaved as in
    :func:`distributions`.  A peak matches in every lane or in none, since
    all lanes share ``k1``, and a match shifts the whole histogram by
    ``n + 1`` steps of ``len(k2s)`` fields; a non-peak match shifts the
    lanes whose ``k2`` it meets by one step.
    """
    _check_n(n)
    if k1 < 0 or any(k2 < 0 for k2 in k2s):
        raise ValueError("k1, k2 must be nonnegative")
    width = field_width(n)
    step = len(k2s) * width
    # the fields of lane 0, one per step
    lane = sum(((1 << width) - 1) << s * step for s in range((n + 1) ** 2))
    every = (1 << (n + 1) ** 2 * step) - 1
    # Per quadrant-II tally, the lanes whose k2 it meets.
    meets = [sum(lane << j * width for j, k2 in enumerate(k2s) if q2 >= k2) for q2 in range(n)]
    meets = [~step if m == every else m for m in meets]

    def entry(q1: int, q2: int, q3: int, q4: int) -> int:
        if q3 == 0:
            return ~(step * (n + 1)) if q2 >= k1 else 0
        return meets[q2]

    leaf = sum(1 << j * width for j in range(len(k2s)))
    packed = _packed_histogram(n, (1, 2, 3), leaf, step, entry)
    lanes = _lane_fields(packed, width, len(k2s))
    return [BiPoly({divmod(index, n + 1): c for index, c in lane.items()}) for lane in lanes]


def bivariate_distribution(n: int, k1: int, k2: int) -> BiPoly:
    """Joint distribution over 123-avoiders, split by peak / non-peak positions.

    A position is a *peak* when its third quadrant is empty (equivalently, a
    left-to-right minimum).  ``x0`` counts peaks with at least ``k1`` points
    in quadrant II, ``x1`` counts non-peaks with at least ``k2`` points
    there.  Setting x0 = x1 = x with k1 = k2 = k recovers
    ``distribution(n, 123, (0, k, 0, 0))``.
    """
    return bivariate_distributions(n, k1, (k2,))[0]


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


def _check_pair(sigma: Permutation, k: int, ell: int) -> None:
    if k < 0 or ell < 0:
        raise ValueError("k, ell must be nonnegative")
    if occurs(P123, sigma):
        raise ValueError(f"{sigma} contains an increasing triple; a 123-avoider is required")


def corner_frame_counts(sigma: Permutation, k: int, ell: int) -> tuple[int, int]:
    """Counts (r, s) of graph points in the corner and frame bands (:func:`_bands`).

    For n > k + ell the identity ``s = 2(k + ell) - r`` holds on every
    123-avoider.
    """
    _check_pair(sigma, k, ell)
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
    _check_pair(sigma, k, ell)
    n = sigma.n
    return sum(1 for j, v in enumerate(sigma.word, start=1) if not any(_bands(j, v, n, k, ell)))
