"""Permutations of {1..n}, classical pattern containment, and avoidance classes.

Conventions used throughout the package:

- a permutation is stored in one-line notation as a tuple of the values
  ``1..n``, each exactly once;
- positions are 1-based everywhere a position crosses a public API boundary;
- the *graph* of ``sigma`` is the point set ``{(i, sigma_i)}`` with columns
  numbered left to right and values bottom to top.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Iterator, Sequence


@dataclass(frozen=True)
class Permutation:
    """A permutation of ``{1..n}`` in one-line notation."""

    word: tuple[int, ...]

    def __post_init__(self) -> None:
        word = tuple(self.word)
        object.__setattr__(self, "word", word)
        n = len(word)
        seen = [False] * (n + 1)
        for v in word:
            if not isinstance(v, int) or isinstance(v, bool) or v < 1 or v > n or seen[v]:
                raise ValueError(f"not a permutation of 1..{n}: {word!r}")
            seen[v] = True

    @property
    def n(self) -> int:
        return len(self.word)

    def __len__(self) -> int:
        return len(self.word)

    def __iter__(self) -> Iterator[int]:
        return iter(self.word)

    def reverse(self) -> "Permutation":
        return Permutation(self.word[::-1])

    def complement(self) -> "Permutation":
        n = self.n
        return Permutation(tuple(n + 1 - v for v in self.word))

    def inverse(self) -> "Permutation":
        pos = [0] * self.n
        for i, v in enumerate(self.word):
            pos[v - 1] = i + 1
        return Permutation(tuple(pos))

    def __str__(self) -> str:
        # Digit string for n <= 9, comma-separated otherwise.
        if self.n <= 9:
            return "".join(str(v) for v in self.word)
        return ",".join(str(v) for v in self.word)

    @classmethod
    def parse(cls, text: str) -> "Permutation":
        """Parse either a digit string ("867943251") or a comma list ("8,6,10,...")."""
        text = text.strip()
        if text == "":
            return cls(())
        # str.isdigit and int also take non-ASCII digits such as "²" or "٣"
        parts = [part.strip() for part in text.split(",")] if "," in text else list(text)
        if not all(part.isascii() and part.isdigit() for part in parts):
            raise ValueError(f"invalid permutation {text!r}: expected digits or a comma list")
        return cls(tuple(int(part) for part in parts))


def reduce(word: Sequence[int]) -> Permutation:
    """Standardize a word of distinct integers to the order-isomorphic permutation.

    >>> reduce([2, 7, 5, 4]).word
    (1, 4, 3, 2)
    """
    values = list(word)
    if len(set(values)) != len(values):
        raise ValueError(f"duplicate entries in {values!r}")
    rank = {v: i + 1 for i, v in enumerate(sorted(values))}
    return Permutation(tuple(rank[v] for v in values))


def left_to_right_minima(p: Permutation) -> tuple[int, ...]:
    """1-based positions j such that every earlier entry is larger."""
    out = []
    current = p.n + 1
    for i, v in enumerate(p.word, start=1):
        if v < current:
            out.append(i)
            current = v
    return tuple(out)


# ---------------------------------------------------------------------------
# Pattern containment


def occurs(pattern: Permutation, sigma: Permutation) -> bool:
    """True iff some subsequence of ``sigma`` standardizes to ``pattern``.

    ``pattern`` has length 0, 1 or 3; any other length raises ValueError.
    """
    k = pattern.n
    if k not in (0, 1, 3):
        raise ValueError(f"patterns of length 0, 1 or 3 only, not {pattern.word!r}")
    if k > sigma.n:
        return False
    if k == 3:
        return _occurs3(pattern.word, sigma.word)
    return True


def _occurs3(tau: tuple[int, ...], word: tuple[int, ...]) -> bool:
    # Normalize (tau, sigma) by reverse/complement so tau becomes 123 or 132,
    # then run the linear/quadratic scans.  occurs(t, s) = occurs(t^r, s^r)
    # = occurs(t^c, s^c).
    transform, target = _CANONICAL3[tau]
    n = len(word)
    if "r" in transform:
        word = word[::-1]
    if "c" in transform:
        word = tuple(n + 1 - v for v in word)
    if target == (1, 2, 3):
        return _scan_123(word)
    return _scan_132(word)


_CANONICAL3 = MappingProxyType(
    {
        (1, 2, 3): ("", (1, 2, 3)),
        (3, 2, 1): ("r", (1, 2, 3)),
        (1, 3, 2): ("", (1, 3, 2)),
        (2, 3, 1): ("r", (1, 3, 2)),
        (3, 1, 2): ("c", (1, 3, 2)),
        (2, 1, 3): ("rc", (1, 3, 2)),
    }
)


def _scan_123(word: tuple[int, ...]) -> bool:
    # T = least value that tops an earlier ascent; any later value above T
    # completes an increasing triple.
    big = len(word) + 1
    lowest = big
    ascent_top = big
    for v in word:
        if v > ascent_top:
            return True
        if v > lowest:
            ascent_top = v
        else:
            lowest = v
    return False


def _scan_132(word: tuple[int, ...]) -> bool:
    n = len(word)
    big = n + 1
    prefix_min = []
    current = big
    for v in word:
        prefix_min.append(current)
        current = min(current, v)
    for j in range(n):
        wj = word[j]
        pm = prefix_min[j]
        if pm >= wj:
            continue
        for k in range(j + 1, n):
            if pm < word[k] < wj:
                return True
    return False


# ---------------------------------------------------------------------------
# Avoidance classes


def avoiders(n: int, tau: Permutation) -> tuple[Permutation, ...]:
    """All permutations of ``{1..n}`` avoiding 123 or 132, in lexicographic order.

    They come from :func:`avoider_walk`, which never enters a prefix that
    has no completion, and which raises ValueError for any other ``tau``.
    """
    return tuple(Permutation(word) for word, _ in avoider_walk(n, tau.word, _no_entry))


def _check_n(n: int) -> None:
    if n < 0:
        raise ValueError("n must be nonnegative")


def _no_entry(i: int, v: int, q2: int) -> int:
    return 0


def catalan_moves(used: int, full: int, tau_word: tuple[int, ...]) -> int:
    """Bitmask of the values that extend a 123- or 132-avoiding prefix to an avoider.

    ``used`` has bit ``v`` set for each value ``v`` already placed and
    ``full`` has bits 1..n.  Any free value below the running minimum is a
    move.  An ascent is a move only to the largest free value (123) or to
    the least free value above the minimum (132): after an ascent
    ``lowest < v``, a later value above ``v`` completes a 123 and a later
    value between ``lowest`` and ``v`` completes a 132, so any other ascent
    strands a free value that can never be placed.
    """
    lowest = (used & -used).bit_length() - 1 if used else full.bit_length()
    free = full & ~used
    above = free >> lowest << lowest
    moves = free ^ above
    if above:
        moves |= 1 << (above.bit_length() - 1) if tau_word == (1, 2, 3) else above & -above
    return moves


def _check_walk(n: int, tau_word: tuple[int, ...]) -> None:
    if tau_word not in ((1, 2, 3), (1, 3, 2)):
        raise ValueError(f"the walk takes 123 or 132, not {tau_word!r}")
    _check_n(n)


def avoider_walk(
    n: int, tau_word: tuple[int, ...], entry: Callable[[int, int, int], int]
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Each length-n avoider of 123 or 132 with a total taken at append time.

    The avoiders come in lexicographic order, as words, from an iterative
    DFS over :func:`catalan_moves`.  Appending value ``v`` as entry
    ``i + 1`` after the values in ``used`` adds ``entry(i, v, q2)`` to the
    running total, where ``q2 = popcount(used >> v)`` is the number of
    earlier larger values; the rest of the point's quadrant tallies follow
    from ``(n, i, v, q2)`` (:func:`qmmp.mmp._append_tallies`).  An entry
    is computed once per move ``(i, v, q2)`` and kept in a table local to
    the call, so a prefix shared by many avoiders is tallied once and a
    yielded total is the sum of its entries over the avoider's positions.
    """
    _check_walk(n, tau_word)
    if n == 0:
        yield (), 0
        return
    full = ((1 << n) - 1) << 1
    bits = (n + 1).bit_length()
    table: list[int | None] = [None] * (n << 2 * bits)
    word = [0] * n
    # per depth i: the values placed before entry i + 1, the total over
    # them, and the moves from there not yet taken
    used = [0] * n
    totals = [0] * n
    moves = [0] * n
    moves[0] = catalan_moves(0, full, tau_word)
    last = n - 1
    i = 0
    while i >= 0:
        m = moves[i]
        if not m:
            i -= 1
            continue
        bit = m & -m
        moves[i] = m ^ bit
        v = bit.bit_length() - 1
        placed = used[i]
        q2 = (placed >> v).bit_count()
        key = (i << bits | v) << bits | q2
        e = table[key]
        if e is None:
            e = table[key] = entry(i, v, q2)
        word[i] = v
        if i == last:
            yield tuple(word), totals[i] + e
            i -= 1
            continue
        i += 1
        used[i] = placed = placed | bit
        totals[i] = totals[i - 1] + e
        # the last entry is the one free value left
        moves[i] = full ^ placed if i == last else catalan_moves(placed, full, tau_word)


def avoider_totals(
    n: int, tau_word: tuple[int, ...], entry: Callable[[int, int, int], int]
) -> set[int]:
    """The set of the totals that :func:`avoider_walk` yields, from the prefix states alone.

    A prefix's completions depend only on its state, the bitmask ``used``
    of its values (:func:`catalan_moves`), and so does the set of its
    suffix totals.  A forward pass lists the reachable states level by
    level (a level is a prefix length, the popcount of ``used``); a
    backward pass then takes each state's set from those of the level
    below, whose sets it drops once the level is done.  Entries are
    computed once per move ``(i, v, q2)``, as in the walk.
    """
    _check_walk(n, tau_word)
    full = ((1 << n) - 1) << 1
    levels = [[0]]
    for _ in range(n):
        step = set()
        for used in levels[-1]:
            moves = catalan_moves(used, full, tau_word)
            while moves:
                bit = moves & -moves
                moves ^= bit
                step.add(used | bit)
        levels.append(list(step))
    below = {full: {0}}
    for i in range(n - 1, -1, -1):
        table: dict[tuple[int, int], int] = {}
        here = {}
        for used in levels[i]:
            totals: set[int] = set()
            moves = catalan_moves(used, full, tau_word)
            while moves:
                bit = moves & -moves
                moves ^= bit
                v = bit.bit_length() - 1
                q2 = (used >> v).bit_count()
                e = table.get((v, q2))
                if e is None:
                    e = table[v, q2] = entry(i, v, q2)
                child = below[used | bit]
                totals.update({t + e for t in child} if e else child)
            here[used] = totals
        below = here
    return below[0]


P123 = Permutation((1, 2, 3))
P132 = Permutation((1, 3, 2))
