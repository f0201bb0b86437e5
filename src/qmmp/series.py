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
from typing import Iterable, Mapping, Union


class IntPoly:
    """A polynomial in ``x`` with integer coefficients, stored sparsely."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        c = {}
        if coeffs:
            for e, v in coeffs.items():
                if not isinstance(e, int) or e < 0:
                    raise ValueError(f"bad exponent {e!r}")
                if v:
                    c[e] = v
        self._c = c

    @classmethod
    def const(cls, c: int) -> "IntPoly":
        return cls({0: c})

    @classmethod
    def x(cls, e: int = 1, c: int = 1) -> "IntPoly":
        return cls({e: c})

    def items(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self._c.items()))

    def coeff(self, e: int) -> int:
        return self._c.get(e, 0)

    def mass(self) -> int:
        """Value at x = 1 (the total coefficient mass)."""
        return sum(self._c.values())

    def __bool__(self) -> bool:
        return bool(self._c)

    def __add__(self, other: Union["IntPoly", int]) -> "IntPoly":
        if isinstance(other, int):
            other = IntPoly.const(other)
        if not isinstance(other, IntPoly):
            return NotImplemented
        c = dict(self._c)
        for e, v in other._c.items():
            w = c.get(e, 0) + v
            if w:
                c[e] = w
            elif e in c:
                del c[e]
        out = IntPoly()
        out._c = c
        return out

    __radd__ = __add__

    def __mul__(self, other: Union["IntPoly", int]) -> "IntPoly":
        if isinstance(other, int):
            out = IntPoly()
            if other:
                out._c = {e: v * other for e, v in self._c.items()}
            return out
        if not isinstance(other, IntPoly):
            return NotImplemented
        c: dict[int, int] = {}
        for e1, v1 in self._c.items():
            for e2, v2 in other._c.items():
                e = e1 + e2
                w = c.get(e, 0) + v1 * v2
                if w:
                    c[e] = w
                elif e in c:
                    del c[e]
        out = IntPoly()
        out._c = c
        return out

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = IntPoly.const(other)
        return isinstance(other, IntPoly) and self._c == other._c

    def __hash__(self) -> int:
        # a constant equals its int, so it must hash like it
        if self._c.keys() <= {0}:
            return hash(self._c.get(0, 0))
        return hash(self.items())

    def render(self) -> str:
        """Ascending-power string, e.g. ``1+6x+6x^2+x^3``."""
        if not self._c:
            return "0"
        parts = []
        for e, c in self.items():
            if e == 0:
                parts.append(str(c))
            else:
                xs = "x" if e == 1 else f"x^{e}"
                if c == 1:
                    parts.append(xs)
                elif c == -1:
                    parts.append(f"-{xs}")
                else:
                    parts.append(f"{c}{xs}")
        text = "+".join(parts)
        return text.replace("+-", "-")

    def __repr__(self) -> str:
        return f"IntPoly({dict(self.items())!r})"


class BiPoly:
    """A polynomial in ``x0, x1`` with integer coefficients.

    Exponent pairs are packed into single int keys; exponents are limited to
    0..255 per variable, far beyond any truncation depth used here.  A
    product that would exceed the limit raises ValueError.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping[tuple[int, int], int] | None = None):
        c = {}
        if coeffs:
            for (e0, e1), v in coeffs.items():
                if min(e0, e1) < 0 or max(e0, e1) > 255:
                    raise ValueError(f"bad exponent pair {(e0, e1)!r}")
                if v:
                    c[(e0 << 8) | e1] = v
        self._c = c

    @classmethod
    def const(cls, c: int) -> "BiPoly":
        return cls({(0, 0): c})

    def items(self) -> tuple[tuple[tuple[int, int], int], ...]:
        return tuple(((k >> 8, k & 255), v) for k, v in sorted(self._c.items()))

    def coeff(self, e: tuple[int, int]) -> int:
        return self._c.get((e[0] << 8) | e[1], 0)

    def mass(self) -> int:
        """Value at x0 = x1 = 1."""
        return sum(self._c.values())

    def __bool__(self) -> bool:
        return bool(self._c)

    def __add__(self, other: Union["BiPoly", int]) -> "BiPoly":
        if isinstance(other, int):
            other = BiPoly.const(other)
        if not isinstance(other, BiPoly):
            return NotImplemented
        c = dict(self._c)
        for k, v in other._c.items():
            w = c.get(k, 0) + v
            if w:
                c[k] = w
            elif k in c:
                del c[k]
        out = BiPoly()
        out._c = c
        return out

    __radd__ = __add__

    def __mul__(self, other: Union["BiPoly", int]) -> "BiPoly":
        if isinstance(other, int):
            out = BiPoly()
            if other:
                out._c = {k: v * other for k, v in self._c.items()}
            return out
        if not isinstance(other, BiPoly):
            return NotImplemented
        if self._c and other._c:
            # Packed exponents add without a carry only while each sum stays
            # within 0..255; the largest key holds the largest x0 exponent.
            e0 = (max(self._c) >> 8) + (max(other._c) >> 8)
            e1 = max(map((255).__and__, self._c)) + max(map((255).__and__, other._c))
            if max(e0, e1) > 255:
                raise ValueError(f"product reaches x0^{e0}, x1^{e1}; exponents are limited to 255")
        c: dict[int, int] = {}
        for k1, v1 in self._c.items():
            for k2, v2 in other._c.items():
                k = k1 + k2  # packed exponents add componentwise
                w = c.get(k, 0) + v1 * v2
                if w:
                    c[k] = w
                elif k in c:
                    del c[k]
        out = BiPoly()
        out._c = c
        return out

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = BiPoly.const(other)
        return isinstance(other, BiPoly) and self._c == other._c

    def __hash__(self) -> int:
        # a constant equals its int, so it must hash like it
        if self._c.keys() <= {0}:
            return hash(self._c.get(0, 0))
        return hash(tuple(sorted(self._c.items())))

    def render(self) -> str:
        if not self._c:
            return "0"
        parts = []
        for (e0, e1), c in self.items():
            vs = ""
            if e0:
                vs += "x0" if e0 == 1 else f"x0^{e0}"
            if e1:
                vs += "x1" if e1 == 1 else f"x1^{e1}"
            if not vs:
                parts.append(str(c))
            elif c == 1:
                parts.append(vs)
            elif c == -1:
                parts.append(f"-{vs}")
            else:
                parts.append(f"{c}{vs}")
        return "+".join(parts).replace("+-", "-")

    def __repr__(self) -> str:
        return f"BiPoly({dict(self.items())!r})"


Poly = Union[IntPoly, BiPoly]


class TSeries:
    """A power series in ``t`` truncated at degree ``trunc``.

    ``coeffs[n]`` is the full, exact coefficient polynomial of ``t^n``
    (an :class:`IntPoly` or :class:`BiPoly`).
    """

    __slots__ = ("trunc", "coeffs")

    def __init__(self, coeffs: Iterable[Poly]):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("a series needs at least the t^0 coefficient")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "trunc", len(coeffs) - 1)

    def __setattr__(self, name, value):
        raise AttributeError("TSeries is immutable")

    def poly(self, n: int) -> Poly:
        if n < 0 or n > self.trunc:
            raise ValueError(f"coefficient index {n} outside truncation {self.trunc}")
        return self.coeffs[n]

    def coeff(self, n: int, k) -> int:
        """The integer coefficient of ``t^n x^k`` (``k`` a pair for bivariate)."""
        return self.poly(n).coeff(k)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TSeries)
            and self.trunc == other.trunc
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def render_lines(self) -> list[str]:
        return [f"t^{n}: {c.render()}" for n, c in enumerate(self.coeffs)]

    def __repr__(self) -> str:
        return f"TSeries(trunc={self.trunc})"


def unpack_fields(packed: int, width: int) -> dict[int, int]:
    """The nonzero ``width``-bit fields of ``packed >= 0``, keyed by position.

    Field f holds bits ``f * width`` up to ``(f + 1) * width``: the inverse
    of packing a polynomial as ``sum(c << e * width)`` (Kronecker
    substitution) while every coefficient is below ``2**width``.
    """
    mask = (1 << width) - 1
    out = {}
    f = 0
    while packed:
        if packed & mask:
            out[f] = packed & mask
        packed >>= width
        f += 1
    return out


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
