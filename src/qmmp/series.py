"""Exact polynomial and truncated power-series arithmetic.

Everything here is exact integer arithmetic: polynomial coefficients are
Python ints (arbitrary precision), and a :class:`TSeries` holds one full
polynomial per power of ``t`` up to an explicit truncation degree.  There is
deliberately no floating point and no symbolic simplification.
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

    @property
    def degree(self) -> int:
        return max(self._c, default=-1)

    def is_zero(self) -> bool:
        return not self._c

    def mass(self) -> int:
        """Value at x = 1 (the total coefficient mass)."""
        return sum(self._c.values())

    def evaluate(self, x: int) -> int:
        return sum(c * x**e for e, c in self._c.items())

    def __bool__(self) -> bool:
        return bool(self._c)

    def __neg__(self) -> "IntPoly":
        out = IntPoly()
        out._c = {e: -v for e, v in self._c.items()}
        return out

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

    def __sub__(self, other: Union["IntPoly", int]) -> "IntPoly":
        if isinstance(other, int):
            other = IntPoly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

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

    @classmethod
    def term(cls, e0: int, e1: int, c: int = 1) -> "BiPoly":
        return cls({(e0, e1): c})

    def items(self) -> tuple[tuple[tuple[int, int], int], ...]:
        return tuple(((k >> 8, k & 255), v) for k, v in sorted(self._c.items()))

    def coeff(self, e: tuple[int, int]) -> int:
        return self._c.get((e[0] << 8) | e[1], 0)

    def is_zero(self) -> bool:
        return not self._c

    def mass(self) -> int:
        """Value at x0 = x1 = 1."""
        return sum(self._c.values())

    def __bool__(self) -> bool:
        return bool(self._c)

    def __neg__(self) -> "BiPoly":
        out = BiPoly()
        out._c = {k: -v for k, v in self._c.items()}
        return out

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

    def __sub__(self, other: Union["BiPoly", int]) -> "BiPoly":
        if isinstance(other, int):
            other = BiPoly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

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

    def to_univariate(self) -> IntPoly:
        """Substitute x0 = x1 = x."""
        c: dict[int, int] = {}
        for k, v in self._c.items():
            e = (k >> 8) + (k & 255)
            c[e] = c.get(e, 0) + v
        return IntPoly(c)

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
    (an :class:`IntPoly` or :class:`BiPoly`); operations never look past
    the truncation degree.
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

    @classmethod
    def one(cls, trunc: int) -> "TSeries":
        return cls([IntPoly.const(1)] + [IntPoly() for _ in range(trunc)])

    @classmethod
    def zero(cls, trunc: int) -> "TSeries":
        return cls([IntPoly() for _ in range(trunc + 1)])

    @classmethod
    def t_power(cls, j: int, trunc: int) -> "TSeries":
        if j > trunc:
            return cls.zero(trunc)
        return cls([IntPoly.const(1) if n == j else IntPoly() for n in range(trunc + 1)])

    def poly(self, n: int) -> Poly:
        if n < 0 or n > self.trunc:
            raise ValueError(f"coefficient index {n} outside truncation {self.trunc}")
        return self.coeffs[n]

    def coeff(self, n: int, k) -> int:
        """The integer coefficient of ``t^n x^k`` (``k`` a pair for bivariate)."""
        return self.poly(n).coeff(k)

    def truncate(self, trunc: int) -> "TSeries":
        if trunc >= self.trunc:
            return self
        return TSeries(self.coeffs[: trunc + 1])

    def _common(self, other: "TSeries") -> int:
        return min(self.trunc, other.trunc)

    def __add__(self, other: "TSeries") -> "TSeries":
        n = self._common(other)
        return TSeries([self.coeffs[i] + other.coeffs[i] for i in range(n + 1)])

    def __sub__(self, other: "TSeries") -> "TSeries":
        n = self._common(other)
        return TSeries([self.coeffs[i] - other.coeffs[i] for i in range(n + 1)])

    def __neg__(self) -> "TSeries":
        return TSeries([-c for c in self.coeffs])

    def __mul__(self, other) -> "TSeries":
        if isinstance(other, (int, IntPoly, BiPoly)):
            return TSeries([c * other for c in self.coeffs])
        if not isinstance(other, TSeries):
            return NotImplemented
        n = self._common(other)
        out = []
        for m in range(n + 1):
            acc = self.coeffs[0] * other.coeffs[m]
            for i in range(1, m + 1):
                acc = acc + self.coeffs[i] * other.coeffs[m - i]
            out.append(acc)
        return TSeries(out)

    def __rmul__(self, other):
        if isinstance(other, (int, IntPoly, BiPoly)):
            return self * other
        return NotImplemented

    def shift(self, j: int = 1) -> "TSeries":
        """Multiply by ``t^j`` (truncation degree unchanged)."""
        if j < 0:
            raise ValueError("negative shift")
        zero = self.coeffs[0] - self.coeffs[0]
        out = [zero] * min(j, self.trunc + 1) + list(self.coeffs[: self.trunc + 1 - j])
        return TSeries(out)

    def inverse(self) -> "TSeries":
        """Multiplicative inverse; requires the t^0 coefficient to be +/-1."""
        b0 = self.coeffs[0]
        if b0 != 1 and b0 != -1:
            raise ValueError("series is not invertible: t^0 coefficient must be +1 or -1")
        out = [b0]
        for n in range(1, self.trunc + 1):
            acc = self.coeffs[1] * out[n - 1]
            for i in range(2, n + 1):
                acc = acc + self.coeffs[i] * out[n - i]
            out.append(-(b0 * acc))
        return TSeries(out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TSeries)
            and self.trunc == other.trunc
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

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


def catalan_series(trunc: int) -> TSeries:
    """C(t) = 1 + t + 2t^2 + 5t^3 + ... to the requested depth."""
    return TSeries([IntPoly.const(catalan(n)) for n in range(trunc + 1)])


def catalan_xt_series(trunc: int) -> TSeries:
    """C(tx): the t^n coefficient is ``C_n x^n``."""
    return TSeries([IntPoly.x(n, catalan(n)) for n in range(trunc + 1)])


def narayana(n: int, p: int) -> int:
    """Number of balanced paths of semilength n with exactly p peaks."""
    if not 1 <= p <= n:
        return 0
    return math.comb(n, p) * math.comb(n, p - 1) // n


def solve_quadratic(a: TSeries, b: TSeries, c: TSeries, f0: IntPoly) -> TSeries:
    """The unique series F with ``a F^2 + b F + c = 0`` and ``F(0) = f0``.

    The t^n coefficient of F is obtained by equating coefficients; the
    recursion is well posed only when ``2 a(0) f0 + b(0)`` is a unit (+1/-1),
    otherwise a ValueError is raised.  The residual is re-checked after
    solving, so a returned series always satisfies the equation exactly
    through the truncation degree.
    """
    trunc = min(a.trunc, b.trunc, c.trunc)
    a, b, c = a.truncate(trunc), b.truncate(trunc), c.truncate(trunc)
    unit = a.coeffs[0] * f0 * 2 + b.coeffs[0]
    if unit == 1:
        sign = 1
    elif unit == -1:
        sign = -1
    else:
        raise ValueError(
            "ill-posed coefficient recursion: 2*a(0)*f(0) + b(0) must be +1 or -1, "
            f"got {unit.render()}"
        )
    f = [f0]
    for n in range(1, trunc + 1):
        acc = c.coeffs[n]
        for j in range(1, n + 1):
            acc = acc + b.coeffs[j] * f[n - j]
        # Quadratic part with the unknown f[n] left out: f[n] only pairs with
        # f[0] at i = 0, which is the solved-for term.
        for j in range(n):
            for m in range(j, n):
                i = n - j - m
                if i < 0:
                    break
                term = a.coeffs[i] * f[j] * f[m]
                acc = acc + (term + term if j != m else term)
        f.append(-acc if sign == 1 else acc)
    result = TSeries(f)
    residual = a * result * result + b * result + c
    if not residual.is_zero():
        raise ArithmeticError("quadratic solve left a nonzero residual")
    return result
