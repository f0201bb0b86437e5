"""Truncated power-series arithmetic on plain coefficient lists, as a reference.

A series is a list whose entry n is the ``IntPoly`` or ``BiPoly``
coefficient of ``t^n``; a sum or product stops at the shorter operand's
last degree.  The engines never run this code (they work on packed ints),
so the tests use it as an independent way to compute the paper's literal
formulas and the algebraic root of the Narayana base.
"""

from qmmp.series import BiPoly, IntPoly, catalan


def zero(trunc):
    return [IntPoly() for _ in range(trunc + 1)]


def one(trunc):
    return [IntPoly.const(1)] + zero(trunc - 1)


def t_power(j, trunc):
    return [IntPoly.const(1 if n == j else 0) for n in range(trunc + 1)]


def catalan_series(trunc):
    """C(t) = 1 + t + 2t^2 + 5t^3 + ..."""
    return [IntPoly.const(catalan(n)) for n in range(trunc + 1)]


def add(a, b):
    return [p + q for p, q in zip(a, b)]


def neg(a):
    return [p * -1 for p in a]


def sub(a, b):
    return add(a, neg(b))


def mul(a, b):
    out = []
    for m in range(min(len(a), len(b))):
        acc = a[0] * b[m]
        for i in range(1, m + 1):
            acc = acc + a[i] * b[m - i]
        out.append(acc)
    return out


def shift(a, j=1):
    """``a`` times ``t^j``, at the same truncation degree."""
    return [a[0] * 0] * min(j, len(a)) + a[: len(a) - j]


def inverse(a):
    """The multiplicative inverse; the t^0 coefficient must be +1 or -1."""
    if a[0] != 1 and a[0] != -1:
        raise ValueError("series is not invertible: t^0 coefficient must be +1 or -1")
    sign = 1 if a[0] == 1 else -1
    out = [a[0]]
    for n in range(1, len(a)):
        acc = a[1] * out[n - 1]
        for i in range(2, n + 1):
            acc = acc + a[i] * out[n - i]
        out.append(acc * -sign)
    return out


def solve_quadratic(a, b, c, f0):
    """The unique series F with ``a F^2 + b F + c = 0`` and ``F(0) = f0``.

    Coefficients are found by equating powers of t, which is well posed only
    when ``2 a(0) f0 + b(0)`` is +1 or -1 (otherwise ValueError); the
    residual is checked before returning.
    """
    trunc = min(len(a), len(b), len(c)) - 1
    unit = a[0] * f0 * 2 + b[0]
    if unit != 1 and unit != -1:
        raise ValueError(
            "ill-posed coefficient recursion: 2*a(0)*f(0) + b(0) must be +1 or -1, "
            f"got {unit.render()}"
        )
    sign = 1 if unit == 1 else -1
    f = [f0]
    for n in range(1, trunc + 1):
        acc = c[n]
        for j in range(1, n + 1):
            acc = acc + b[j] * f[n - j]
        # the quadratic part without the unknown f[n], which pairs only with
        # f[0] at i = 0
        for j in range(n):
            for m in range(j, min(n, n - j + 1)):
                term = a[n - j - m] * f[j] * f[m]
                acc = acc + (term + term if j != m else term)
        f.append(acc * -sign)
    residual = add(add(mul(a, mul(f, f)), mul(b, f)), c)
    if any(residual):
        raise ArithmeticError("quadratic solve left a nonzero residual")
    return f


def to_univariate(p: BiPoly) -> IntPoly:
    """Substitute x0 = x1 = x."""
    out = {}
    for (e0, e1), c in p.items():
        out[e0 + e1] = out.get(e0 + e1, 0) + c
    return IntPoly(out)
