"""Permutations of {1..n}, classical pattern containment, and avoidance classes.

Conventions used throughout the package:

- a permutation is stored in one-line notation as a tuple of the values
  ``1..n``, each exactly once;
- positions are 1-based everywhere a position crosses a public API boundary;
- the *graph* of ``sigma`` is the point set ``{(i, sigma_i)}`` with columns
  numbered left to right and values bottom to top.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterator, Sequence


class _Frozen:
    """An immutable value whose fields are its ``__slots__``.

    Equality, hash, ``repr`` and pickling go over the fields in slot order,
    and values of different classes are never equal.  A record whose
    instances are dict keys on a hot path spells its fields out in its own
    ``__eq__`` and derives from :class:`_Key`, which keeps its hash.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _set(self, *values) -> None:
        """Fill the fields, in slot order: for a constructor."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return (self.__class__, self._fields())


class _Key(_Frozen):
    """A record whose hash is taken once, when its fields are set.

    The hash is that of the fields, as on :class:`_Frozen`, kept in a slot
    of this base that is not one of the record's fields, so a dict lookup
    reads it instead of building and hashing the field tuple again.
    """

    __slots__ = ("_hash",)

    def _set(self, *values) -> None:
        super()._set(*values)
        object.__setattr__(self, "_hash", hash(values))

    def __hash__(self) -> int:
        return self._hash


class Permutation(_Key):
    """A permutation of ``{1..n}`` in one-line notation: ``word``, a tuple of ints."""

    __slots__ = ("word",)

    def __init__(self, word: Sequence[int]) -> None:
        word = tuple(word)
        n = len(word)
        seen = [False] * (n + 1)
        for v in word:
            if not isinstance(v, int) or isinstance(v, bool) or v < 1 or v > n or seen[v]:
                raise ValueError(f"not a permutation of 1..{n}: {word!r}")
            seen[v] = True
        self._set(word)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.word == other.word

    __hash__ = _Key.__hash__  # a class that defines __eq__ must restate its hash

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
    # then run the linear scans.  occurs(t, s) = occurs(t^r, s^r)
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
    # Right to left.  A value pops every smaller value off the stack: each
    # popped value is the "2" of a "32" whose "3" is that value.  Keep the
    # largest popped value as the "2", the easiest one to get under: any
    # smaller value further left completes a 132.  Linear: each value is
    # pushed and popped at most once.
    two = 0
    stack: list[int] = []
    for v in reversed(word):
        if v < two:
            return True
        while stack and stack[-1] < v:
            two = stack.pop()
        stack.append(v)
    return False


# ---------------------------------------------------------------------------
# Avoidance classes


def avoiders(n: int, tau: Permutation) -> tuple[Permutation, ...]:
    """All permutations of ``{1..n}`` avoiding 123 or 132, in lexicographic order.

    An iterative DFS over :func:`catalan_moves`, least value first, so no
    dead branch is ever entered.  Any other ``tau`` raises ValueError.
    """
    tau_word = tau.word
    _check_walk(n, tau_word)
    if n == 0:
        return (Permutation(()),)
    full = ((1 << n) - 1) << 1
    out = []
    word = [0] * n
    # per depth i: the values placed before entry i + 1, and the moves from
    # there not yet taken
    used = [0] * n
    moves = [0] * n
    moves[0] = catalan_moves(0, full, tau_word)
    i = 0
    while i >= 0:
        m = moves[i]
        if not m:
            i -= 1
            continue
        bit = m & -m
        moves[i] = m ^ bit
        word[i] = bit.bit_length() - 1
        if i == n - 1:
            out.append(_generated(tuple(word)))
        else:
            i += 1
            used[i] = used[i - 1] | bit
            moves[i] = catalan_moves(used[i], full, tau_word)
    return tuple(out)


def _generated(word: tuple[int, ...]) -> Permutation:
    """The Permutation of a word that :func:`avoiders` built, without the
    range and duplicate check: its moves place each value of 1..n once."""
    sigma = object.__new__(Permutation)
    sigma._set(word)
    return sigma


def _check_n(n: int) -> None:
    if n < 0:
        raise ValueError("n must be nonnegative")


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


P123 = Permutation((1, 2, 3))
P132 = Permutation((1, 3, 2))
