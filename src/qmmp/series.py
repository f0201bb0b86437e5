"""Exact integer polynomials and truncated power series.

Polynomial coefficients are Python ints (arbitrary precision), and a
:class:`TSeries` holds one full polynomial per power of ``t`` up to an
explicit truncation degree.  The engines do their series arithmetic on
packed ints (:mod:`qmmp.gf`), so a series here is only a container that
renders; there is deliberately no floating point and no symbolic
simplification.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

from .perm import _Frozen


class _Poly:
    """A polynomial with integer coefficients, stored sparsely.

    One dict maps packed exponent keys to nonzero coefficients; key 0 is the
    constant term.  A subclass fixes the variables: ``_key`` packs and checks
    an exponent, ``_exp`` unpacks a key, and ``_monomials`` maps a key to its
    printed monomial.  Only polynomials of the same subclass add, multiply or
    compare.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping | None = None):
        coeffs = coeffs or {}
        # every exponent is checked, also those with a zero coefficient
        self._c = {k: v for k, v in zip(map(self._key, coeffs), coeffs.values()) if v}

    @classmethod
    def _from_keys(cls, c: dict[int, int]):
        """Trusted constructor: ``c`` maps valid packed keys to nonzero ints."""
        out = cls.__new__(cls)
        out._c = c
        return out

    @classmethod
    def const(cls, c: int):
        return cls._from_keys({0: c} if c else {})

    def items(self) -> tuple:
        keys = sorted(self._c)
        return tuple(zip(map(self._exp, keys), map(self._c.__getitem__, keys)))

    def coeff(self, e) -> int:
        """The coefficient of exponent ``e``; 0 for an exponent out of range."""
        try:
            return self._c.get(self._key(e), 0)
        except ValueError:
            return 0

    def mass(self) -> int:
        """Value with every variable at 1 (the total coefficient mass)."""
        return sum(self._c.values())

    def __bool__(self) -> bool:
        return bool(self._c)

    def __add__(self, other):
        if isinstance(other, int):
            other = self.const(other)
        elif type(other) is not type(self):
            return NotImplemented
        c = dict(self._c)
        for k, v in other._c.items():
            w = c.get(k, 0) + v
            if w:
                c[k] = w
            elif k in c:
                del c[k]
        return self._from_keys(c)

    def __mul__(self, other):
        if isinstance(other, int):
            return self._from_keys({k: v * other for k, v in self._c.items()} if other else {})
        if type(other) is not type(self):
            return NotImplemented
        self._check_product(other)
        c: dict[int, int] = {}
        for k1, v1 in self._c.items():
            for k2, v2 in other._c.items():
                k = k1 + k2  # packed exponents add componentwise
                w = c.get(k, 0) + v1 * v2
                if w:
                    c[k] = w
                elif k in c:
                    del c[k]
        return self._from_keys(c)

    def _check_product(self, other) -> None:
        """Raise ValueError if the product's keys would not unpack."""

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self._c == ({0: other} if other else {})
        return type(other) is type(self) and self._c == other._c

    def __hash__(self) -> int:
        # a constant equals its int, so it must hash like it
        if self._c.keys() <= {0}:
            return hash(self._c.get(0, 0))
        return hash(tuple(sorted(self._c.items())))

    def render(self) -> str:
        """Ascending-key string, e.g. ``1+6x+6x^2+x^3``: one ``str.format`` call
        on the support's format string from ``_monomials``, where a coefficient
        of 1 or -1 prints as its sign alone, except on the constant."""
        if not self._c:
            return "0"
        keys = sorted(self._c)
        values = list(map(self._c.__getitem__, keys))
        text = self._monomials[tuple(keys)].format(values[0], *map(_SIGN.get, values, values))
        return text.replace("+-", "-")

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self.items())!r})"


_SIGN = {1: "", -1: "-"}


class _Monomials(dict):
    """Format strings of ``render`` by support, each built once, when first rendered.

    The support is the ascending tuple of a polynomial's packed keys, and
    ``spell`` prints the monomial of one key.  Field ``{i}`` stands before
    the monomial of the i-th key (from 1), and a constant term is field
    ``{0}`` alone, so ``render`` passes the raw constant first, e.g.
    ``"{0}+{2}x+{3}x^3"`` for the keys ``(0, 1, 3)``.
    """

    __slots__ = ("spell",)

    def __init__(self, spell) -> None:
        self.spell = spell

    def __missing__(self, keys: tuple[int, ...]) -> str:
        terms = (f"{{{i}}}{self.spell(k)}" if k else "{0}" for i, k in enumerate(keys, 1))
        self[keys] = text = "+".join(terms)
        return text


def _power(name: str, e: int) -> str:
    return "" if not e else name if e == 1 else f"{name}^{e}"


class IntPoly(_Poly):
    """A polynomial in ``x``: the key of ``x^e`` is ``e``."""

    __slots__ = ()
    # perfbench/spans.py wraps each class's own operators and render
    __add__ = __radd__ = _Poly.__add__; __mul__ = __rmul__ = _Poly.__mul__; render = _Poly.render
    _exp = int  # a key is its exponent

    @staticmethod
    def _key(e: int) -> int:
        if not isinstance(e, int) or e < 0:
            raise ValueError(f"bad exponent {e!r}")
        return e

    _monomials = _Monomials(lambda e: _power("x", e))

    @classmethod
    def x(cls, e: int = 1, c: int = 1) -> "IntPoly":
        return cls({e: c})


class BiPoly(_Poly):
    """A polynomial in ``x0, x1``: the key of ``x0^e0 x1^e1`` is ``e0 << 8 | e1``.

    Exponents are limited to 0..255 per variable, far beyond any truncation
    depth used here.  A product that would exceed the limit raises ValueError.
    """

    __slots__ = ()
    # perfbench/spans.py wraps each class's own operators and render
    __add__ = __radd__ = _Poly.__add__; __mul__ = __rmul__ = _Poly.__mul__; render = _Poly.render

    @staticmethod
    def _key(e: tuple[int, int]) -> int:
        e0, e1 = e
        if min(e0, e1) < 0 or max(e0, e1) > 255:
            raise ValueError(f"bad exponent pair {(e0, e1)!r}")
        return e0 << 8 | e1

    _exp = (256).__rdivmod__  # key -> (key >> 8, key & 255)

    _monomials = _Monomials(lambda k: _power("x0", k >> 8) + _power("x1", k & 255))

    def _check_product(self, other: "BiPoly") -> None:
        if self._c and other._c:
            # Packed exponents add without a carry only while each sum stays
            # within 0..255; the largest key holds the largest x0 exponent.
            e0 = (max(self._c) >> 8) + (max(other._c) >> 8)
            e1 = max(map((255).__and__, self._c)) + max(map((255).__and__, other._c))
            if max(e0, e1) > 255:
                raise ValueError(f"product reaches x0^{e0}, x1^{e1}; exponents are limited to 255")


Poly = _Poly


class TSeries(_Frozen):
    """A power series in ``t`` truncated at degree ``trunc``.

    ``coeffs[n]`` is the full, exact coefficient polynomial of ``t^n``
    (an :class:`IntPoly` or :class:`BiPoly`).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Poly]):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("a series needs at least the t^0 coefficient")
        self._set(coeffs)

    @property
    def trunc(self) -> int:
        return len(self.coeffs) - 1

    def poly(self, n: int) -> Poly:
        if n < 0 or n > self.trunc:
            raise ValueError(f"coefficient index {n} outside truncation {self.trunc}")
        return self.coeffs[n]

    def coeff(self, n: int, k) -> int:
        """The integer coefficient of ``t^n x^k`` (``k`` a pair for bivariate)."""
        return self.poly(n).coeff(k)

    def render_lines(self) -> list[str]:
        return [f"t^{n}: {c.render()}" for n, c in enumerate(self.coeffs)]

    def __repr__(self) -> str:
        return f"TSeries(trunc={self.trunc})"


def field_width(n: int) -> int:
    """Bits of a Kronecker field that holds any count up to ``C_n``.

    The one packing rule of the engines (:mod:`qmmp.gf`) and the brute-force
    walks (:mod:`qmmp.mmp`): each field of a packed polynomial counts some of
    at most ``C_n`` objects, so it never needs more bits than ``C_n`` has.
    """
    return catalan(n).bit_length()


def unpack(packed: int, width: int, lanes: int = 1, stride: int = 0) -> list[IntPoly | BiPoly]:
    """The polynomials in the ``width``-bit fields of ``packed >= 0``, one per lane.

    Field ``index * lanes + j`` holds lane j's coefficient of ``x^index``, or
    with ``stride > 0`` of ``x0^(index // stride) x1^(index % stride)``, while
    every coefficient is below ``2**width`` (Kronecker packing).  An int past
    64 fields is read in blocks of 64 cut from its bytes, so the time is
    linear in its size.  A :class:`BiPoly` exponent is checked once per int,
    not once per key: a stride outside 1..256, or a highest field whose x0
    exponent passes 255, raises ValueError.
    """
    if packed < 0 or width < 1:
        raise ValueError("a packed int must be >= 0 and its fields at least 1 bit wide")
    fields: dict[int, int] = {}
    if packed >> 64 * width:
        size = 8 * width  # the bytes of 64 fields
        data = packed.to_bytes((packed.bit_length() + 7) // 8, "little")
        for b in range(0, len(data), size):
            block = int.from_bytes(data[b : b + size], "little")
            _read_fields(block, width, b * 8 // width, fields)
    else:
        _read_fields(packed, width, 0, fields)
    if lanes == 1 and not stride:  # the engines' univariate path: no lane work per field
        return [IntPoly._from_keys(fields)]
    if stride and not (0 < stride <= 256 and max(fields, default=0) // lanes // stride < 256):
        raise ValueError(f"stride {stride} or a field past x0^255 does not fit a BiPoly key")
    # x0^e0 x1^e1 is read at index e0 * stride + e1 and keyed e0 * 256 + e1
    pad = 256 - stride
    if lanes == 1:  # the engines' bivariate path
        return [BiPoly._from_keys({f + f // stride * pad: c for f, c in fields.items()})]
    cls = BiPoly if stride else IntPoly
    polys: list[dict] = [{} for _ in range(lanes)]
    for f, c in fields.items():
        index, j = divmod(f, lanes)
        polys[j][index + index // stride * pad if stride else index] = c
    return [cls._from_keys(p) for p in polys]


def _read_fields(packed: int, width: int, first: int, fields: dict[int, int]) -> None:
    """Store each nonzero ``width``-bit field f of ``packed`` in ``fields[first + f]``."""
    mask = (1 << width) - 1
    f = first
    while packed:
        if c := packed & mask:
            fields[f] = c
        packed >>= width
        f += 1


# ---------------------------------------------------------------------------
# Catalan / Narayana machinery


def catalan(n: int) -> int:
    """The n-th Catalan number ``binom(2n, n) / (n + 1)``."""
    if n < 0:
        return 0
    return math.comb(2 * n, n) // (n + 1)


def narayana(n: int, p: int) -> int:
    """Number of balanced paths of semilength n with exactly p peaks."""
    if not 1 <= p <= n:
        return 0
    return math.comb(n, p) * math.comb(n, p - 1) // n
