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
through the left-to-right minima.  The two inverses differ in how the
non-minimum values are filled back in.
"""

from __future__ import annotations

from dataclasses import dataclass

from .perm import P123, P132, Permutation, left_to_right_minima, occurs


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


@dataclass(frozen=True)
class DyckPath:
    """A balanced word over {D, R} whose prefixes never have more R than D."""

    word: str

    def __post_init__(self) -> None:
        _validate_word(self.word)

    @property
    def n(self) -> int:
        """Semilength."""
        return len(self.word) // 2

    def __str__(self) -> str:
        return self.word

    @classmethod
    def parse(cls, text: str) -> "DyckPath":
        return cls(text.strip())


@dataclass(frozen=True)
class PathStats:
    """Returns, hills and peaks of a path.

    ``returns`` are the diagonal points the path touches after the start;
    ``peaks`` are the DR corners as ``(column, diagonal index)`` pairs, the
    diagonal index being the number of diagonals below the main one; a hill
    is a peak with diagonal index 0.
    """

    returns: frozenset[int]
    ret: int
    hills: int
    peaks: tuple[tuple[int, int], ...]


def stats(path: DyckPath) -> PathStats:
    down = 0
    right = 0
    returns = set()
    peaks = []
    prev = ""
    for ch in path.word:
        if ch == "D":
            down += 1
        else:
            right += 1
            if prev == "D":
                peaks.append((right, down - right))
            if down == right:
                returns.add(right)
        prev = ch
    hills = sum(1 for _, diag in peaks if diag == 0)
    return PathStats(frozenset(returns), len(returns), hills, tuple(peaks))


def _staircase(p: Permutation) -> str:
    """Path along the left-to-right-minima staircase of ``p``."""
    n = p.n
    minima = left_to_right_minima(p)
    steps = []
    height = n  # distance of the path above the bottom edge, in grid rows
    for idx, pos in enumerate(minima):
        v = p.word[pos - 1]
        steps.append("D" * (height - (v - 1)))
        height = v - 1
        nxt = minima[idx + 1] if idx + 1 < len(minima) else n + 1
        steps.append("R" * (nxt - pos))
    return "".join(steps)


def phi(sigma: Permutation) -> DyckPath:
    """Bijection from 132-avoiders to paths (boundary of the shaded staircase)."""
    if occurs(P132, sigma):
        raise ValueError(f"{sigma} contains a 132 pattern; phi needs a 132-avoider")
    return DyckPath(_staircase(sigma))


def psi(sigma: Permutation) -> DyckPath:
    """Bijection from 123-avoiders to paths (same staircase construction)."""
    if occurs(P123, sigma):
        raise ValueError(f"{sigma} contains a 123 pattern; psi needs a 123-avoider")
    return DyckPath(_staircase(sigma))


def _column_scan(path: DyckPath) -> tuple[list[int], list[int], list[bool]]:
    """Column depths and outer corners of ``path``, shared by both inverses.

    Per column: the number of D steps before its R, and the value that an
    outer corner (a DR peak) places there, 0 in every other column; plus
    flags marking the placed values as used.
    """
    n = path.n
    depths = []
    word = []
    used = [False] * (n + 2)
    down = 0
    prev = ""
    for ch in path.word:
        if ch == "D":
            down += 1
        else:
            depths.append(down)
            if prev == "D":
                word.append(n - down + 1)
                used[n - down + 1] = True
            else:
                word.append(0)
        prev = ch
    return depths, word, used


def phi_inv(path: DyckPath) -> Permutation:
    """Inverse of phi.

    Phase one places the outer-corner values; phase two scans the remaining
    columns left to right, dropping each into the lowest free row that stays
    above the path.
    """
    n = path.n
    depths, word, used = _column_scan(path)
    for c in range(n):
        if word[c]:
            continue
        for v in range(n - depths[c] + 1, n + 1):
            if not used[v]:
                word[c] = v
                used[v] = True
                break
    return Permutation(tuple(word))


def psi_inv(path: DyckPath) -> Permutation:
    """Inverse of psi.

    Outer corners are placed as in phi; the i-th empty row from the top is
    then paired with the i-th empty column from the left.
    """
    n = path.n
    _, word, used = _column_scan(path)
    free_values = [v for v in range(n, 0, -1) if not used[v]]
    free_columns = [c for c in range(n) if not word[c]]
    for c, v in zip(free_columns, free_values):
        word[c] = v
    return Permutation(tuple(word))


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
