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
from typing import Callable, Union

from .perm import P123, Permutation, catalan_moves, occurs
from .series import BiPoly, IntPoly


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
    if not isinstance(v, int) or v < 0:
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
            elif p.isdigit():
                coords.append(int(p))
            else:
                raise ValueError(f"invalid quadrant spec {text!r}: bad slot {p!r}")
        return cls(*coords)

    def __str__(self) -> str:
        return ",".join("e" if v is EMPTY else str(v) for v in self.coords)

    def compact(self) -> str:
        """Slot string without separators, e.g. ``01e0`` (used in file names)."""
        return "".join("e" if v is EMPTY else str(v) for v in self.coords)


@dataclass(frozen=True)
class MatchReport:
    """Quadrant tallies at one position, plus whether the spec matched there."""

    quadrant_counts: tuple[int, int, int, int]
    matched: bool


def quadrants_at(sigma: Permutation, i: int) -> tuple[int, int, int, int]:
    """Counts of graph points in quadrants I-IV relative to position ``i`` (1-based)."""
    n = sigma.n
    if not 1 <= i <= n:
        raise ValueError(f"position {i} out of range 1..{n}")
    word = sigma.word
    v = word[i - 1]
    q2 = 0
    for j in range(i - 1):
        if word[j] > v:
            q2 += 1
    q1 = (n - v) - q2
    q3 = (i - 1) - q2
    q4 = (n - i) - q1
    return (q1, q2, q3, q4)


def _slot_ok(count: int, cond: Coord) -> bool:
    if cond is EMPTY:
        return count == 0
    return count >= cond


def matches_at(sigma: Permutation, i: int, spec: QuadrantSpec) -> bool:
    """True iff position ``i`` of ``sigma`` satisfies every quadrant condition."""
    q = quadrants_at(sigma, i)
    return all(_slot_ok(q[s], cond) for s, cond in enumerate(spec.coords))


def report_at(sigma: Permutation, i: int, spec: QuadrantSpec) -> MatchReport:
    q = quadrants_at(sigma, i)
    return MatchReport(q, all(_slot_ok(q[s], cond) for s, cond in enumerate(spec.coords)))


def mmp_count(sigma: Permutation, spec: QuadrantSpec) -> int:
    """Number of positions of ``sigma`` matching ``spec``."""
    return sum(1 for i in range(1, sigma.n + 1) if matches_at(sigma, i, spec))


# ---------------------------------------------------------------------------
# Distributions over avoidance classes (the brute-force ground truth)


def _packed_histogram(
    n: int, tau_word: tuple[int, ...], shift: Callable[[int, int, int, int], int]
) -> int:
    """Match-count histogram over the length-n avoiders of 123 or 132, packed in one int.

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
    to the call, and holds at most 2^n entries.

    A value ``v`` appended as entry ``i + 1`` has its quadrant tallies fixed
    at once: ``q2 = popcount(used >> v)``, ``q1 = n - v - q2``,
    ``q3 = i - q2`` and ``q4 = n - 1 - i - q1``.  ``shift(q1, q2, q3, q4)``
    returns the bit shift that a match at that position applies to the
    suffix histogram.  Fields are ``2n + 2`` bits wide; since every count is
    at most C_n < 4^n, no field carries into the next, and merging two
    histograms is integer addition.
    """
    full = ((1 << n) - 1) << 1
    memo = {full: 1}

    def suffix(used: int) -> int:
        got = memo.get(used)
        if got is not None:
            return got
        i = used.bit_count()
        moves = catalan_moves(used, full, tau_word)
        total = 0
        while moves:
            bit = moves & -moves
            moves ^= bit
            v = bit.bit_length() - 1
            q2 = (used >> v).bit_count()
            q1 = n - v - q2
            total += suffix(used | bit) << shift(q1, q2, i - q2, n - 1 - i - q1)
        memo[used] = total
        return total

    return suffix(0)


def _unpack(packed: int, width: int) -> dict[int, int]:
    """Field index -> count for the nonzero fields of a packed histogram."""
    mask = (1 << width) - 1
    out: dict[int, int] = {}
    index = 0
    while packed:
        count = packed & mask
        if count:
            out[index] = count
        packed >>= width
        index += 1
    return out


def _require_class(tau: Permutation) -> tuple[int, ...]:
    if tau.word not in ((1, 2, 3), (1, 3, 2)):
        raise ValueError(f"unsupported avoidance class {tau!r}: only 123 and 132")
    return tau.word


def distribution(n: int, tau: Permutation, spec: QuadrantSpec) -> IntPoly:
    """Match-count generating polynomial over the length-n avoiders of ``tau``.

    The coefficient of ``x^m`` is the number of avoiders with exactly ``m``
    matching positions; the total mass is the n-th Catalan number.
    """
    tau_word = _require_class(tau)
    # Slot s matches when lo_s <= q_s <= hi_s: EMPTY is [0, 0], k is [k, n].
    (lo1, lo2, lo3, lo4) = (0 if v is EMPTY else v for v in spec.coords)
    (hi1, hi2, hi3, hi4) = (0 if v is EMPTY else n for v in spec.coords)
    width = 2 * n + 2

    def shift(q1: int, q2: int, q3: int, q4: int) -> int:
        if lo1 <= q1 <= hi1 and lo2 <= q2 <= hi2 and lo3 <= q3 <= hi3 and lo4 <= q4 <= hi4:
            return width
        return 0

    return IntPoly(_unpack(_packed_histogram(n, tau_word, shift), width))


def bivariate_distribution(n: int, k1: int, k2: int) -> BiPoly:
    """Joint distribution over 123-avoiders, split by peak / non-peak positions.

    A position is a *peak* when its third quadrant is empty (equivalently, a
    left-to-right minimum).  ``x0`` counts peaks with at least ``k1`` points
    in quadrant II, ``x1`` counts non-peaks with at least ``k2`` points
    there.  Setting x0 = x1 = x with k1 = k2 = k recovers
    ``distribution(n, 123, (0, k, 0, 0))``.
    """
    if k1 < 0 or k2 < 0:
        raise ValueError("k1, k2 must be nonnegative")
    width = 2 * n + 2
    # Field index m0 * (n + 1) + m1 holds the avoiders with m0 peak and m1
    # non-peak matches.
    peak_width = width * (n + 1)

    def shift(q1: int, q2: int, q3: int, q4: int) -> int:
        if q3 == 0:
            return peak_width if q2 >= k1 else 0
        return width if q2 >= k2 else 0

    fields = _unpack(_packed_histogram(n, (1, 2, 3), shift), width)
    return BiPoly({divmod(index, n + 1): count for index, count in fields.items()})


# ---------------------------------------------------------------------------
# Corner/frame counting over 123-avoiders
#
# The public functions check their input; the private bodies serve callers
# that walk avoiders(n, P123), which are 123-avoiders by construction.


def _require_123_avoider(sigma: Permutation) -> None:
    if occurs(P123, sigma):
        raise ValueError(f"{sigma} contains an increasing triple; a 123-avoider is required")


def corner_frame_counts(sigma: Permutation, k: int, ell: int) -> tuple[int, int]:
    """Counts (r, s) of graph points in the corner and frame bands.

    The frame is the union of the top ``k`` rows, bottom ``ell`` rows,
    left ``k`` columns and right ``ell`` columns of the graph; the corner
    area is the union of the four row-band/column-band intersections.
    For n > k + ell the identity ``s = 2(k + ell) - r`` holds on every
    123-avoider.
    """
    if k < 0 or ell < 0:
        raise ValueError("k, ell must be nonnegative")
    _require_123_avoider(sigma)
    return _corner_frame_counts(sigma, k, ell)


def _corner_frame_counts(sigma: Permutation, k: int, ell: int) -> tuple[int, int]:
    n = sigma.n
    r = 0
    s = 0
    for i, v in enumerate(sigma.word, start=1):
        left = i <= k
        right = i > n - ell
        top = v > n - k
        bottom = v <= ell
        if left or right or top or bottom:
            s += 1
        if (top or bottom) and (left or right):
            r += 1
    return (r, s)


def fast_mmp_0k0l(sigma: Permutation, k: int, ell: int) -> int:
    """Match count for the spec ``(0, k, 0, ell)`` without scanning quadrants.

    On a 123-avoider this is just the number of positions that avoid the top
    ``k``/bottom ``ell`` rows and the left ``k``/right ``ell`` columns, i.e.
    ``k < j <= n - ell`` and ``ell < sigma_j <= n - k``.
    """
    if k < 0 or ell < 0:
        raise ValueError("k, ell must be nonnegative")
    _require_123_avoider(sigma)
    return _fast_mmp_0k0l(sigma, k, ell)


def _fast_mmp_0k0l(sigma: Permutation, k: int, ell: int) -> int:
    n = sigma.n
    return sum(
        1 for j, v in enumerate(sigma.word, start=1) if k < j <= n - ell and ell < v <= n - k
    )
