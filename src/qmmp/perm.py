"""Permutations of {1..n}, classical pattern containment, and avoidance classes.

Conventions used throughout the package:

- a permutation is stored in one-line notation as a tuple of the values
  ``1..n``, each exactly once;
- positions are 1-based everywhere a position crosses a public API boundary;
- the *graph* of ``sigma`` is the point set ``{(i, sigma_i)}`` with columns
  numbered left to right and values bottom to top.
"""

from __future__ import annotations

import itertools
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
            if not isinstance(v, int) or v < 1 or v > n or seen[v]:
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
    """True iff some subsequence of ``sigma`` standardizes to ``pattern``."""
    k = pattern.n
    if k == 0:
        return True
    if k > sigma.n:
        return False
    if k == 1:
        return True
    if k == 3:
        return _occurs3(pattern.word, sigma.word)
    return _occurs_generic(pattern.word, sigma.word)


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


def _occurs_generic(tau: tuple[int, ...], word: tuple[int, ...]) -> bool:
    k = len(tau)
    n = len(word)

    def extend(start: int, chosen: list[int]) -> bool:
        depth = len(chosen)
        if depth == k:
            return True
        for p in range(start, n - (k - depth) + 1):
            v = word[p]
            if all((v > word[q]) == (tau[depth] > tau[m]) for m, q in enumerate(chosen)):
                chosen.append(p)
                if extend(p + 1, chosen):
                    return True
                chosen.pop()
        return False

    return extend(0, [])


# ---------------------------------------------------------------------------
# Avoidance classes


def avoiders(n: int, tau: Permutation) -> tuple[Permutation, ...]:
    """All permutations of ``{1..n}`` avoiding ``tau``, in lexicographic order.

    Enumeration is a prefix-pruned backtracking search: a prefix is abandoned
    as soon as appending a value would complete an occurrence of ``tau``.
    For 123 and 132 it is :func:`avoider_walk`, which never enters a prefix
    that has no completion.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if tau.word in ((1, 2, 3), (1, 3, 2)):
        words = [word for word, _ in avoider_walk(n, tau.word, _no_entry)]
    else:
        words = _avoiders_generic(n, tau.word)
    return tuple(Permutation(w) for w in words)


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
    if tau_word not in ((1, 2, 3), (1, 3, 2)):
        raise ValueError(f"the walk takes 123 or 132, not {tau_word!r}")
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


def _avoiders_generic(n: int, tau_word: tuple[int, ...]) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []
    prefix: list[int] = []
    k = len(tau_word)

    def completes_occurrence(v: int) -> bool:
        # Only occurrences ending at the appended value need checking.
        m = len(prefix)
        if k - 1 > m:
            return False
        if k == 0:
            return True
        for combo in itertools.combinations(range(m), k - 1):
            values = [prefix[i] for i in combo]
            values.append(v)
            ranks = sorted(values)
            if all(ranks[tau_word[j] - 1] == values[j] for j in range(k)):
                return True
        return False

    def rec(used: int) -> None:
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for v in range(1, n + 1):
            bit = 1 << v
            if used & bit or completes_occurrence(v):
                continue
            prefix.append(v)
            rec(used | bit)
            prefix.pop()

    if k == 0:
        return [] if n > 0 else [()]
    rec(0)
    return out


P123 = Permutation((1, 2, 3))
P132 = Permutation((1, 3, 2))
