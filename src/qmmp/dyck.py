"""Balanced lattice paths and the bijections onto the two avoidance classes.

A path lives on an ``n x n`` grid whose rows are numbered top to bottom: a
``D`` step moves down one unit, an ``R`` step moves right one unit, and every
prefix must contain at least as many ``D`` as ``R`` (the path stays weakly
below the main diagonal).  Grid row ``r`` (from the top) corresponds to
permutation value ``n + 1 - r``, which makes the constructions below direct
transcriptions of the staircase pictures they come from.

Both bijections place a permutation's points on the grid and take the path
along the south-west boundary of the region north-east of the points; for a
132-avoider (phi) and for a 123-avoider (psi) that boundary is the staircase
through the left-to-right minima.  Both inverses run one per-column step
(``_column``) and differ only in how it fills the non-minimum values back in.
"""

from __future__ import annotations

from .perm import P123, P132, Permutation, _Frozen, occurs


def _validate_word(word: str) -> None:
    down = 0
    right = 0
    for pos, ch in enumerate(word, start=1):
        if ch == "D":
            down += 1
        elif ch == "R":
            right += 1
            if right > down:
                raise ValueError(
                    f"malformed path word: prefix has more right-steps than "
                    f"down-steps at position {pos}"
                )
        else:
            raise ValueError(f"malformed path word: invalid step {ch!r} at position {pos}")
    if down != right:
        raise ValueError(
            f"malformed path word: {down} down-steps vs {right} right-steps "
            f"at position {len(word)}"
        )


class DyckPath(_Frozen):
    """A balanced ``word`` (a str) over {D, R} whose prefixes never have more R than D."""

    __slots__ = ("word",)

    def __init__(self, word: str) -> None:
        _validate_word(word)
        self._set(word)

    @property
    def n(self) -> int:
        """Semilength."""
        return len(self.word) // 2

    def __str__(self) -> str:
        return self.word

    @classmethod
    def parse(cls, text: str) -> "DyckPath":
        return cls(text.strip())


class PathStats(_Frozen):
    """Returns, hills and peaks of a path.

    - ``returns`` (``frozenset[int]``): the diagonal points the path touches
      after the start;
    - ``ret`` (``int``): the number of returns;
    - ``hills`` (``int``): the number of peaks with diagonal index 0;
    - ``peaks`` (``tuple[tuple[int, int], ...]``): the DR corners as
      ``(column, diagonal index)`` pairs, the diagonal index being the
      number of diagonals below the main one.
    """

    __slots__ = ("returns", "ret", "hills", "peaks")

    def __init__(self, returns, ret, hills, peaks) -> None:
        self._set(returns, ret, hills, peaks)


def stats(path: DyckPath) -> PathStats:
    return _stats(path.word)


def _stats(word: str) -> PathStats:
    """The stats of a path word that is balanced by construction (not re-validated)."""
    down = hills = 0
    returns = set()
    peaks = []
    # the D steps before each R step; the last piece is empty
    for right, run in enumerate(word.split("R")[:-1], start=1):
        if run:
            down += len(run)
            peaks.append((right, down - right))
            hills += down == right
        if down == right:
            returns.add(right)
    return PathStats(frozenset(returns), len(returns), hills, tuple(peaks))


def _stair(height: int, v: int) -> tuple[int, int]:
    """The D run before the column of value ``v`` and the path's height after it.

    ``height`` is the path's distance above the bottom edge, in grid rows: a
    new left-to-right minimum ``v`` takes the path down to ``v - 1``.
    """
    return (height - v + 1, v - 1) if v <= height else (0, height)


def _staircase(word: tuple[int, ...]) -> str:
    """Path along the left-to-right-minima staircase of the permutation ``word``."""
    steps = []
    height = len(word)
    for v in word:
        run, height = _stair(height, v)
        steps.append("D" * run + "R")
    return "".join(steps)


def phi(sigma: Permutation) -> DyckPath:
    """Bijection from 132-avoiders to paths (boundary of the shaded staircase)."""
    if occurs(P132, sigma):
        raise ValueError(f"{sigma} contains a 132 pattern; phi needs a 132-avoider")
    return DyckPath(_staircase(sigma.word))


def psi(sigma: Permutation) -> DyckPath:
    """Bijection from 123-avoiders to paths (same staircase construction)."""
    if occurs(P123, sigma):
        raise ValueError(f"{sigma} contains a 123 pattern; psi needs a 123-avoider")
    return DyckPath(_staircase(sigma.word))


def _lowest_free(used: int, level: int, n: int) -> int:
    """The least value >= ``level`` whose bit is clear in ``used`` (phi's fill)."""
    free = ~used >> level << level
    return (free & -free).bit_length() - 1


def _highest_free(used: int, level: int, n: int) -> int:
    """The largest value of 1..n whose bit is clear in ``used`` (psi's fill)."""
    return ((1 << n + 1) - 2 & ~used).bit_length() - 1


def _column(used: int, down: int, corner: bool, n: int, fill) -> int:
    """The value that an inverse bijection places at a column's R step after ``down`` D steps.

    An outer corner (a DR peak) takes ``n - down + 1``, and any other column
    takes ``fill(used, n - down + 1, n)``, where ``used`` has bit ``v`` set
    for each value ``v`` placed so far.  The ``c - 1`` values placed before
    column ``c`` all lie at or above its level, which has ``down >= c``
    values, so both fills find a free value there; a corner further right
    lies deeper, below that level, so no fill takes its value.
    """
    level = n - down + 1
    return level if corner else fill(used, level, n)


def _place(word: str, n: int, fill) -> tuple[int, ...]:
    """The values that :func:`_column` places in the columns of ``word``, left to right.

    Raises ValueError unless the placed values are exactly 1..n.
    """
    values = []
    used = down = 0
    for run in word.split("R")[:-1]:  # the D steps before each R step
        down += len(run)
        v = _column(used, down, bool(run), n, fill)
        values.append(v)
        used |= 1 << v
    if used != (1 << n + 1) - 2:
        raise ValueError(f"path {word} does not place each of 1..{n} once: {values}")
    return tuple(values)


def phi_inv(path: DyckPath) -> Permutation:
    """Inverse of phi: each non-corner column takes the lowest free row above the path."""
    return Permutation(_place(path.word, path.n, _lowest_free))


def psi_inv(path: DyckPath) -> Permutation:
    """Inverse of psi: each non-corner column takes the highest free value (top free row)."""
    return Permutation(_place(path.word, path.n, _highest_free))


def lift(path: DyckPath) -> DyckPath:
    """Prepend a down-step and append a right-step (semilength grows by one)."""
    return DyckPath("D" + path.word + "R")


def first_return_decompose(path: DyckPath) -> tuple[int, DyckPath, DyckPath]:
    """Split ``P = D A R B`` at the first diagonal return.

    Returns ``(i, A, B)`` where ``i`` is the column of the first return,
    ``A`` spans the 2i-2 steps strictly inside the first arch and ``B`` is
    the remainder.
    """
    if path.n == 0:
        raise ValueError("cannot decompose the empty path")
    first = min(stats(path).returns)
    inner = DyckPath(path.word[1 : 2 * first - 1])
    tail = DyckPath(path.word[2 * first :])
    return (first, inner, tail)
