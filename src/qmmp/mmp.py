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

from dataclasses import dataclass
from typing import Callable, Sequence, Union

from .perm import P123, Permutation, _check_n, catalan_moves, occurs
from .series import BiPoly, IntPoly, catalan, unpack_fields


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


@dataclass(frozen=True)
class QuadrantSpec:
    """The four quadrant conditions ``(a, b, c, d)`` for quadrants I-IV."""

    a: Coord
    b: Coord
    c: Coord
    d: Coord

    def __post_init__(self) -> None:
        for v in (self.a, self.b, self.c, self.d):
            _check_coord(v)

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
        return "".join("e" if v is EMPTY else str(v) for v in self.coords)


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
    ``q2 = popcount(used >> v)``, and the other tallies follow by the
    formula of :func:`_append_tallies` (inlined here, where it runs once
    per position), as in the append-time walks :func:`_packed_histogram`
    and :func:`qmmp.perm.avoider_walk`.
    """
    n = len(word)
    used = 0
    rows = []
    for i, v in enumerate(word):
        q2 = (used >> v).bit_count()
        q1 = n - v - q2
        rows.append((q1, q2, i - q2, n - 1 - i - q1))
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
    """
    admits = [[0] * n for _ in range(4)]
    for field, window in zip(fields, windows):
        for admit, (lo, hi) in zip(admits, window):
            for x in range(lo, min(hi, n - 1) + 1):
                admit[x] |= field
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

# Specs per walk of :func:`distributions`.  Every lane widens every memo
# entry of a walk, so this bounds a walk's memory as well as its speed-up;
# verify-all peaks lower at 24 lanes than at 16 or 32.
_LANES = 24


def _packed_histogram(
    n: int,
    tau_word: tuple[int, ...],
    leaf: int,
    width: int,
    entry: Callable[[int, int, int, int], int],
) -> int:
    """Match-count histograms over the length-n avoiders of 123 or 132, packed in one int.

    The avoiders are built left to right by a DFS whose state is the bitmask
    ``used`` of the values placed so far (bit ``v`` for value ``v``); the
    running minimum is its lowest set bit.  From a state the moves
    (:func:`qmmp.perm.catalan_moves`) are:

    - any free value below the running minimum, which starts no occurrence;
    - one ascent: to the largest free value for 123, to the least free value
      above the minimum for 132.

    Every other ascent is a dead branch.  After an ascent ``lowest < v``, a
    later value above ``v`` completes a 123, and a later value strictly
    between ``lowest`` and ``v`` completes a 132, so a free value left there
    can never be placed.  Conversely each allowed move keeps every free value
    placeable, so the completions of a prefix, and with them the suffix
    histogram, depend on ``used`` alone; the memo is keyed by it, is local
    to the call, and holds at most 2^n entries.  ``leaf`` is the histogram
    of a complete permutation.

    A value ``v`` appended as entry ``i + 1`` has its quadrant tallies fixed
    at once: ``q2 = popcount(used >> v)``, ``q1 = n - v - q2``,
    ``q3 = i - q2`` and ``q4 = n - 1 - i - q1``.  ``entry(q1, q2, q3, q4)``
    says what a match there does to the suffix histogram ``child``: entry 0
    leaves it as it is, a negative entry ``~s`` moves all of it up by ``s``
    bits, and a positive entry ``m`` moves the bits under mask ``m`` up by
    ``width``.  Entries are kept per move ``(i, v, q2)`` in a table local to
    the call.  Histograms merge by integer addition, so a field must never
    carry into the next.
    """
    full = ((1 << n) - 1) << 1
    memo = {full: leaf}
    bits = (n + 1).bit_length()
    table: list[int | None] = [None] * (n << 2 * bits)

    def suffix(used: int) -> int:
        got = memo.get(used)
        if got is not None:
            return got
        i = used.bit_count()
        row = i << 2 * bits
        moves = catalan_moves(used, full, tau_word)
        total = 0
        while moves:
            bit = moves & -moves
            moves ^= bit
            v = bit.bit_length() - 1
            q2 = (used >> v).bit_count()
            key = row | v << bits | q2
            m = table[key]
            if m is None:
                q1 = n - v - q2
                m = table[key] = entry(q1, q2, i - q2, n - 1 - i - q1)
            child = suffix(used | bit)
            if not m:
                total += child
            elif m < 0:
                total += child << ~m
            else:
                low = child & m
                total += child - low + (low << width)
        memo[used] = total
        return total

    total = suffix(0)
    del suffix  # its closure refers to it: free the memo now, not at the next GC pass
    return total


def _require_class(tau: Permutation) -> tuple[int, ...]:
    if tau.word not in ((1, 2, 3), (1, 3, 2)):
        raise ValueError(f"unsupported avoidance class {tau!r}: only 123 and 132")
    return tau.word


def distributions(n: int, tau: Permutation, specs: Sequence[QuadrantSpec]) -> list[IntPoly]:
    """:func:`distribution` of each spec in ``specs``, in order, from shared walks.

    Up to 24 specs share one walk of :func:`_packed_histogram`, each in its
    own *lane* of ``n + 1`` fields, one per match count.  A field is
    ``catalan(n).bit_length()`` bits wide, since a count is at most C_n.  A
    move shifts the lanes of the specs it matches up by one field; when it
    matches every spec of the walk, the whole histogram shifts.
    """
    _check_n(n)
    tau_word = _require_class(tau)
    width = catalan(n).bit_length()
    lane = (n + 1) * width
    ones = (1 << lane) - 1
    out: list[IntPoly] = []
    for start in range(0, len(specs), _LANES):
        windows = [_window(spec, n) for spec in specs[start : start + _LANES]]
        leaf = sum(1 << (j * lane) for j in range(len(windows)))
        every = leaf * ones
        # Per slot and tally, the lanes whose window admits that tally.
        a1, a2, a3, a4 = _admits(windows, [ones << j * lane for j in range(len(windows))], n)

        # Defaults bind the tables as locals: entry runs once per distinct move.
        def entry(q1, q2, q3, q4, a1=a1, a2=a2, a3=a3, a4=a4, every=every, width=width):
            m = a1[q1] & a2[q2] & a3[q3] & a4[q4]
            return ~width if m == every else m

        packed = _packed_histogram(n, tau_word, leaf, width, entry)
        polys: list[dict[int, int]] = [{} for _ in windows]
        for f, count in unpack_fields(packed, width).items():
            j, m = divmod(f, n + 1)
            polys[j][m] = count
        out += map(IntPoly._from_keys, polys)
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
    one :func:`_packed_histogram` walk: the lanes interleave, so a memo
    entry is as wide as its largest match counts need.  A peak matches in
    every lane or in none, since all lanes share ``k1``, and a match shifts
    the whole histogram by ``n + 1`` steps of ``len(k2s)`` fields; a
    non-peak match shifts the lanes whose ``k2`` it meets by one step.
    """
    _check_n(n)
    if k1 < 0 or any(k2 < 0 for k2 in k2s):
        raise ValueError("k1, k2 must be nonnegative")
    width = catalan(n).bit_length()
    step = len(k2s) * width
    # the fields of lane 0, one per step
    lane = sum(((1 << width) - 1) << s * step for s in range((n + 1) ** 2))
    every = sum(lane << j * width for j in range(len(k2s)))
    # Per quadrant-II tally, the lanes whose k2 it meets.
    meets = [sum(lane << j * width for j, k2 in enumerate(k2s) if q2 >= k2) for q2 in range(n)]
    meets = [~step if m == every else m for m in meets]

    def entry(q1: int, q2: int, q3: int, q4: int) -> int:
        if q3 == 0:
            return ~(step * (n + 1)) if q2 >= k1 else 0
        return meets[q2]

    leaf = sum(1 << j * width for j in range(len(k2s)))
    polys: list[dict[tuple[int, int], int]] = [{} for _ in k2s]
    packed = _packed_histogram(n, (1, 2, 3), leaf, step, entry)
    for f, count in unpack_fields(packed, width).items():
        index, j = divmod(f, len(k2s))
        polys[j][divmod(index, n + 1)] = count
    return [BiPoly(poly) for poly in polys]


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
    """Whether the point ``(j, v)`` of a length-n graph lies in a corner, and in the frame.

    The frame is the union of the top ``k`` rows, bottom ``ell`` rows,
    left ``k`` columns and right ``ell`` columns; a corner is where a row
    band meets a column band.  The interior is the complement of the frame.
    """
    column = j <= k or j > n - ell
    row = v > n - k or v <= ell
    return row and column, row or column


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
        corner, frame = _bands(j, v, sigma.n, k, ell)
        r += corner
        s += frame
    return (r, s)


def fast_mmp_0k0l(sigma: Permutation, k: int, ell: int) -> int:
    """Match count for the spec ``(0, k, 0, ell)`` without scanning quadrants.

    On a 123-avoider this is just the number of points in the interior of
    the bands (:func:`_bands`), i.e. at positions ``k < j <= n - ell`` with
    values ``ell < sigma_j <= n - k``.
    """
    _check_pair(sigma, k, ell)
    n = sigma.n
    return sum(1 for j, v in enumerate(sigma.word, start=1) if not _bands(j, v, n, k, ell)[1])
