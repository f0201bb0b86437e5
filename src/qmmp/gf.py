"""Generating-series engines for match-count polynomials.

One engine per family of quadrant specs, each computing the exact truncated
series whose t^n coefficient is the match-count polynomial over the length-n
avoidance class.  The engines multiply, shift and add only Python ints: each
coefficient polynomial is packed into one int with fixed-width fields
(Kronecker substitution), the engine caches hold the packed lists, and the
public entry points unpack them once per degree, checking each degree's mass
against the Catalan number.

Family naming follows the slot string of the quadrant spec: ``k0e0`` is
``(k, 0, EMPTY, 0)``, ``akel`` is ``(a, k, EMPTY, l)``, ``ekel`` is
``(EMPTY, k, EMPTY, l)``, and so on.  All six 132 families are
entry points over one recursion, ``_c_akel``, at different thresholds: it
assembles the t^n coefficient by convolving lower-order coefficients of
boundary engines at a first return, through the one kernel
``_first_return``.  The 123-avoider series for specs whose first or third
slot is positive transport to 132-avoider engines.  The genuinely two-sided
specs ``(0, k, 0, l)`` have, for small ``(k, l)``, closed coefficient
formulas that give every degree, and for ``l = 0`` one bottom-up walk,
``_peak_walk``, over the left-to-right minima and right-to-left maxima of a
123-avoider (peaks and non-peaks, tracked by x0 and x1).  The walk runs in
the image it is asked for: bivariate for ``q123_bivariate``, univariate at
x0 = x1 = x for ``q123_0k00``.

``KNOWN_ERRATA`` records the spots where a stated closed form, taken
literally, first diverges from the brute-force oracle; the shipped engines
use the corrected recursions, which the test suite re-validates against the
oracle.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import getitem, mul
from pathlib import Path

from .mmp import EMPTY, Coord, QuadrantSpec
from .perm import _Frozen
from .series import BiPoly, IntPoly, TSeries, catalan, field_width, narayana, unpack

DEFAULT_TRUNC = 13


class NoEngineError(ValueError):
    """No closed form or recurrence covers the requested spec."""


# ---------------------------------------------------------------------------
# Packed coefficients
#
# Every engine coefficient is a polynomial whose entries are nonnegative
# counts, so the engines keep it as one Python int with fixed-width fields,
# field f holding the coefficient of x^f (Kronecker substitution), and integer
# sums and products of such ints are the polynomial sums and products.  A
# field is ``field_width(trunc)`` bits wide, the bits of C_trunc.  No field can
# carry: every field of a sum or product the engines form is a sum of
# nonnegative counts, bounded by the same field of the finished t^n
# coefficient, which counts some of the C_n <= C_trunc avoiders of length n.
# The public entry points unpack once per degree, by the one reader
# ``series.unpack``, and check each degree's mass against C_n, so a carry
# (which changes the mass) raises instead of passing silently.

_width = lru_cache(maxsize=None)(field_width)


def _unpack(cls: type, trunc: int, n: int, packed: int) -> IntPoly | BiPoly:
    """The t^n coefficient in ``packed``: an ``IntPoly``, or a ``BiPoly`` of stride trunc + 1."""
    (poly,) = unpack(packed, _width(trunc), 1, 0 if cls is IntPoly else trunc + 1)
    mass = poly.mass()
    if mass != catalan(n):
        raise ArithmeticError(f"t^{n} coefficient has mass {mass}, not C_{n}: a field carried")
    return poly


def _series(packed: tuple[int, ...], trunc: int, cls: type = IntPoly) -> TSeries:
    return TSeries(_unpack(cls, trunc, n, v) for n, v in enumerate(packed))


@lru_cache(maxsize=None)
def _catalans(trunc: int) -> tuple[int, ...]:
    return tuple(catalan(i) for i in range(trunc + 1))


def _first_return(
    trunc: int, split: int, left, right, block=(), head=None, ell: int = 0, tail=None, low: int = 0
) -> tuple[int, ...]:
    """Packed coefficient list of a first-return decomposition, the kernel of ``_c_akel``.

    ``out[0] = 1`` and ``out[n] = C_n`` for ``n <= low`` (no match fits
    yet); for ``n > low``::

        out[n] = sum(block[i-1] * head(i)[n-i]  for 1 <= i < split)
               + sum(left[i-1] * right()[n-i]   for split <= i <= n - ell)
               + sum(C_j * tail(j)[n-1-j]       for 0 <= j < ell)

    Each term splits at a first return after ``i`` steps.  For ``i < split``
    the block before the return still lowers the threshold of what follows,
    and ``head(i)`` is the engine with the lowered threshold; for larger
    ``i`` the two sides are independent; when only ``j < ell`` steps follow
    the return, those ``C_j`` blocks lower the threshold of the part before
    it, and ``tail(j)`` is that engine.  ``left=None``, and a ``tail(j)`` of
    None, stand for the list being built.  Every entry is a packed int, so
    the products and sums are plain integer arithmetic, each sum one C-level
    ``sum(map(mul, ...))``.  No engine is fetched when ``low >= trunc``,
    and ``right()`` comes last.  Every caller passes
    ``low >= split + ell - 1``, so for ``low < n <= trunc`` no bound binds:
    ``split <= trunc``, ``ell < trunc`` and ``n - ell >= split``.
    """
    out = [catalan(n) for n in range(min(low, trunc) + 1)]
    if low >= trunc:
        return tuple(out)
    left = out if left is None else left
    heads = [head(i) for i in range(1, split)]
    tails = [tail(j) or out for j in range(ell)]
    right = right()
    cat = _catalans(trunc)
    for n in range(low + 1, trunc + 1):
        # heads[i - 1][n - i] and tails[j][n - 1 - j], up to the shorter list
        down = range(n - 1, -1, -1)
        total = sum(map(mul, block, map(getitem, heads, down)))
        total += sum(map(mul, cat, map(getitem, tails, down)))
        total += sum(map(mul, left[split - 1 : n - ell], reversed(right[ell : n - split + 1])))
        out.append(total)
    return tuple(out)


@lru_cache(maxsize=None)
def _narayana(trunc: int) -> tuple[int, ...]:
    """Packed ``sum_p N(n, p) x^p``, the ``(0, 0, EMPTY, 0)`` series: over
    132-avoiders x marks the left-to-right minima."""
    w = _width(trunc)
    return (1,) + tuple(
        sum(narayana(n, p) << p * w for p in range(1, n + 1)) for n in range(1, trunc + 1)
    )


# ---------------------------------------------------------------------------
# 132-avoider engines (third slot EMPTY), as cached packed coefficient lists


def _clamp(trunc: int, *thresholds: int) -> tuple[int, ...]:
    """The engine arguments of a public entry point: ``thresholds`` clamped to ``trunc``.

    A quadrant of a length-n permutation holds at most n - 1 points, so up
    to t^trunc a threshold of trunc or more never matches and they all give
    one series.  A negative depth or threshold raises ValueError.
    """
    if trunc < 0:
        raise ValueError("trunc must be nonnegative")
    if min(thresholds) < 0:
        raise ValueError("thresholds must be nonnegative")
    return tuple(min(k, trunc) for k in thresholds)


def _const(n: int) -> IntPoly:
    return IntPoly.const(catalan(n))


@lru_cache(maxsize=None)
def _c_akel(a: Coord, k: int, ell: int, trunc: int) -> tuple[int, ...]:
    """Packed ``(a, k, EMPTY, ell)`` series over 132-avoiders, every 132 family's engine.

    Lemma-sym comes first, for every ``(a, k, ell)``: σ ↦ σ⁻¹ keeps
    132-avoidance and swaps quadrants II and IV, so ``(a, k, EMPTY, ell)``
    and ``(a, ell, EMPTY, k)`` have one series, and the cache holds it once,
    under ``k >= ell``.  Each other call is one first-return split
    σ = α n β.  ``(k, 0, EMPTY, 0)``, ``(0, k, EMPTY, 0)``,
    ``(k, ell, EMPTY, 0)`` and ``(0, k, EMPTY, ell)`` are boundary cases of
    the one first-return call below, under two rules: ``a - 1`` clamps at 0
    in ``left`` and ``tail``, and a reference to the list being built is
    None (``left`` when ``a = ell = 0``, ``tail(0)`` when ``a = 0``).
    ``low = a + k + ell``, with 0 for an EMPTY ``a``, since a match needs
    that many other points.  An EMPTY ``a`` passes no ``tail``: n lies in
    quadrant I of every point of α, so α is any 132-avoider and none of its
    points matches.  ``k = 0`` (and so ``ell = 0``) is special:
    ``(0, 0, EMPTY, 0)`` is the Narayana series, and ``(a, 0, EMPTY, 0)`` is
    ``1 / (1 - t P)`` with P the series of ``(a - 1, 0, EMPTY, 0)``, or for
    an EMPTY ``a`` the Catalan series with x at t^0 (n is a hill when
    nothing comes before it).

    The dependencies are fetched deepest first: ``left`` and, through
    ``_first_return``, the heads (one step lower in ``k``) and tails come
    before ``right``, the ``(a, ell, EMPTY, 0)`` series, whose threshold
    ``ell <= k`` is the shallow one.  So a request too deep for the
    recursion meets the recursion limit before it computes any shallow
    series to t^trunc.
    """
    if k < ell:
        return _c_akel(a, ell, k, trunc)
    if k == 0:
        if a == 0:
            return _narayana(trunc)
        if a is EMPTY:
            part = (1 << _width(trunc),) + _catalans(trunc)[1:]
        else:
            # the smaller first slots in rising order, so that each finds the
            # one below it cached and the recursion stays one level deep
            part = [_c_akel(b, 0, 0, trunc) for b in range(a)][-1]
        return _first_return(trunc, 1, None, lambda: part)
    cat = _catalans(trunc)
    head = lambda i: _c_akel(a, k - i, ell, trunc)
    right = lambda: _c_akel(a, ell, 0, trunc)
    if a is EMPTY:
        left, span, tail, low = cat, 0, None, k + ell
    else:
        below = max(a - 1, 0)
        left = None if a == ell == 0 else _c_akel(below, k, 0, trunc)
        span, low = ell, a + k + ell
        tail = lambda j: None if a == j == 0 else _c_akel(below, k, ell - j, trunc)
    return _first_return(trunc, k, left, right, cat, head, span, tail, low)


def q132_k0e0(k: int, trunc: int = DEFAULT_TRUNC) -> TSeries:
    """Series for (k, 0, EMPTY, 0) over 132-avoiders."""
    return _series(_c_akel(*_clamp(trunc, k), 0, 0, trunc), trunc)


def q132_0ke0(k: int, trunc: int = DEFAULT_TRUNC) -> TSeries:
    """Series for (0, k, EMPTY, 0) over 132-avoiders."""
    return _series(_c_akel(0, *_clamp(trunc, k), 0, trunc), trunc)


def q132_kle0(k: int, ell: int, trunc: int = DEFAULT_TRUNC) -> TSeries:
    """Series for (k, ell, EMPTY, 0) over 132-avoiders."""
    return _series(_c_akel(*_clamp(trunc, k, ell), 0, trunc), trunc)


def q132_0kel(k: int, ell: int, trunc: int = DEFAULT_TRUNC) -> TSeries:
    """Series for (0, k, EMPTY, ell) over 132-avoiders."""
    return _series(_c_akel(0, *_clamp(trunc, k, ell), trunc), trunc)


def q132_akel(a: int, k: int, ell: int, trunc: int = DEFAULT_TRUNC) -> TSeries:
    """Series for (a, k, EMPTY, ell) over 132-avoiders."""
    return _series(_c_akel(*_clamp(trunc, a, k, ell), trunc), trunc)


def q132_ekel(k: int, ell: int, trunc: int = DEFAULT_TRUNC) -> TSeries:
    """Series for (EMPTY, k, EMPTY, ell) over 132-avoiders (hills at k = ell = 0)."""
    return _series(_c_akel(EMPTY, *_clamp(trunc, k, ell), trunc), trunc)


# ---------------------------------------------------------------------------
# 123-avoider engine for (0, k, 0, 0): peaks vs non-peaks


def _peak_walk(k1: int, k2: int, trunc: int, strides: tuple[int, int]) -> tuple[int, ...]:
    """Packed series over 123-avoiders, x0 marking the peaks with q2 >= k1 and
    x1 the non-peaks with q2 >= k2, by one bottom-up walk over a height h.

    Give a point of a 123-avoider its position i and its rank u from the
    top (value n + 1 - u).  It is a left-to-right minimum (L) or a
    right-to-left maximum (R), as one that is neither is the middle of a
    123; one that is both counts as L.  An L point has q3 = 0 and
    q2 = i - 1, so it is a peak and u >= i.  An R point has q1 = 0 and,
    not being L, q3 >= 1, so it is a non-peak with q2 = u - 1 and u < i.  The L points fall from left
    to right, and so do the R points, so L positions take L ranks in FIFO
    order, and R positions R ranks.  Step s reads position s and rank s: an
    L position waits in one queue for its rank, an R rank in another for its
    position, and both hold h entries.  By the types of position s and rank
    s the moves are (L,L) h -> h (push s, then the oldest L takes rank s),
    (L,R) h -> h + 1 and, as an R position needs an R rank already queued,
    (R,R) h -> h and (R,L) h -> h - 1 only from h >= 1.  So each avoider of
    length n is a path back to height 0 after step n, and a different one,
    since the types and the FIFO order fix every point.  Those paths (Motzkin
    paths with two-coloured level steps off height 0) number C_n, as the
    avoiders do, so each path is one avoider; ``_unpack``'s mass check
    re-counts them.

    An L point matches when its position s > k1 and an R point when its
    rank s > k2, so its weight goes on at the push, and neither test depends
    on n: one walk to ``trunc`` gives every degree.  ``strides`` are the
    field strides of x0 and x1: ``(trunc + 1, 1)`` for ``BiPoly``, ``(1, 1)``
    for x0 = x1 = x, and 0 for a variable set to 1.  A height over
    ``trunc - s`` cannot return to 0 in time, so it is dropped.
    """
    w = _width(trunc)
    out, heights = [1], [1]
    for s in range(1, trunc + 1):
        peak = strides[0] * w if s > k1 else 0
        non_peak = strides[1] * w if s > k2 else 0
        new = [0] * (len(heights) + 1)
        for h, v in enumerate(heights):
            new[h] += v << peak  # (L,L)
            new[h + 1] += v << peak << non_peak  # (L,R)
            if h:
                new[h] += v << non_peak  # (R,R)
                new[h - 1] += v  # (R,L)
        out.append(new[0])
        heights = new[: trunc - s + 1]
    return tuple(out)


def q123_bivariate(k1: int, k2: int, trunc: int = DEFAULT_TRUNC) -> TSeries:
    """Bivariate series over 123-avoiders: x0 tracks matching peaks (threshold
    k1 on quadrant II), x1 tracks matching non-peaks (threshold k2)."""
    k1, k2 = _clamp(trunc, k1, k2)
    if trunc > 255:
        raise ValueError(f"t^{trunc} reaches x0^{trunc}; exponents are limited to 255")
    return _series(_peak_walk(k1, k2, trunc, (trunc + 1, 1)), trunc, BiPoly)


def q123_0k00(k: int, trunc: int = DEFAULT_TRUNC) -> TSeries:
    """Series for (0, k, 0, 0) over 123-avoiders: the peak/non-peak walk of
    ``q123_bivariate`` run in its x0 = x1 = x image."""
    (k,) = _clamp(trunc, k)
    return _series(_peak_walk(k, k, trunc, (1, 1)), trunc)


# ---------------------------------------------------------------------------
# Closed coefficient formulas


# Top-coefficient families: how many of (k, l, m) are parameters.  Every
# family holds from n = k + l + m + 1 on.
_EXTREMAL_ARITY = {
    "theorem-4": 2,
    "corollary-4": 1,
    "theorem-04": 2,
    "corollary-04": 1,
    "corollary-05": 2,
    "theorem-004": 2,
    "theorem-0004": 3,
}


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"non-integer closed form: {num}/{den}")
    return q


def _hook_count(k: int, ell: int) -> int:
    return _exact_div((k + 1) * math.comb(k + 2 * ell, ell), k + ell + 1)


def extremal_coeff(family: str, k: int, ell: int, m: int, n: int) -> int:
    """Top-degree coefficient of the match-count polynomial, per closed form.

    ``family`` selects which closed form (and therefore which spec shape and
    validity regime) applies; see _EXTREMAL_ARITY.  Raises ValueError
    outside the family's regime.
    """
    fam = family.replace("thm-", "theorem-").replace("cor-", "corollary-")
    if fam not in _EXTREMAL_ARITY:
        raise ValueError(f"unknown extremal family {family!r}")
    if min(k, ell, m) < 0:
        raise ValueError("parameters must be nonnegative")
    arity = _EXTREMAL_ARITY[fam]
    if any((k, ell, m)[arity:]):
        extra = "only k is" if arity == 1 else "m is not"
        raise ValueError(f"{fam}: {extra} a parameter here")
    if fam == "theorem-0004" and k < 1:
        raise ValueError(f"{fam}: requires k >= 1")
    if n < k + ell + m + 1:
        raise ValueError(f"{fam}: requires n >= {' + '.join(('k', 'ell', 'm')[:arity])} + 1")
    if fam == "theorem-0004":
        return _hook_count(k, ell) * _hook_count(k, m)
    if fam == "theorem-004":
        return _hook_count(k, ell)
    if fam == "theorem-4":
        return catalan(k) * catalan(n - k - ell) * catalan(ell)
    if fam == "corollary-4":
        return catalan(k) * catalan(n - k)
    return catalan(k) * catalan(ell)  # theorem-04, corollary-04 (l = 0) and corollary-05


# The n from which the (0,k,0,ell) formulas hold as the paper states them
# (theorems 14-18).  Below it some terms fall at negative exponents; the
# terms sum to C_n at every n and those at x^1 and up are the counts, so
# closed_poly_0k0l folds the rest into x^0 (test_gf checks it to n = 9).
_CLOSED_0K0L_THRESHOLD = {(1, 0): 2, (2, 0): 4, (1, 1): 4, (2, 1): 5, (2, 2): 7}


def _closed_coeffs(k: int, ell: int, n: int) -> tuple[int, ...]:
    """The (0,k,0,ell) terms for r = 0..k+ell at any n; ValueError for a pair with none."""
    c = catalan
    if (k, ell) == (1, 0):
        return (c(n) - c(n - 1), c(n - 1))
    if (k, ell) == (2, 0):
        return (
            c(n) - 3 * c(n - 1) + c(n - 2),
            3 * (c(n - 1) - c(n - 2)),
            2 * c(n - 2),
        )
    if (k, ell) == (1, 1):
        return (
            c(n) - 2 * c(n - 1) + c(n - 2) - 2,
            2 * c(n - 1) - 2 * c(n - 2) + 2,
            c(n - 2),
        )
    if (k, ell) == (2, 1):
        return (
            c(n) - 4 * c(n - 1) + 4 * c(n - 2) - c(n - 3) - 2 * n + 6,
            4 * c(n - 1) - 9 * c(n - 2) + 4 * c(n - 3) + 2 * n - 12,
            5 * c(n - 2) - 5 * c(n - 3) + 6,
            2 * c(n - 3),
        )
    if (k, ell) != (2, 2):
        raise ValueError(f"no closed coefficient formula for (0,{k},0,{ell})")
    return (
        c(n) - 6 * c(n - 1) + 11 * c(n - 2) - 6 * c(n - 3) + c(n - 4) - 2 * n * n + 16 * n - 34,
        6 * c(n - 1) - 24 * c(n - 2) + 24 * c(n - 3) - 6 * c(n - 4) + 2 * n * n - 28 * n + 80,
        13 * c(n - 2) - 30 * c(n - 3) + 13 * c(n - 4) + 12 * n - 64,
        12 * c(n - 3) - 12 * c(n - 4) + 18,
        4 * c(n - 4),
    )


def closed_coeff_0k0l(k: int, ell: int, n: int, r: int) -> int:
    """Coefficient of ``x^(n - 2(k+ell) + r)`` in the (0,k,0,ell) polynomial
    over 123-avoiders, for the five small families with closed formulas.

    ``r`` is the number of graph points in the corner area (0..k+ell).
    Raises ValueError below the formula's threshold, the paper's regime.
    """
    terms = _closed_coeffs(k, ell, n)
    threshold = _CLOSED_0K0L_THRESHOLD[(k, ell)]
    if n < threshold:
        raise ValueError(f"(0,{k},0,{ell}) formulas require n >= {threshold}")
    if not 0 <= r <= k + ell:
        raise ValueError(f"r must lie in 0..{k + ell}")
    return terms[r]


def closed_poly_0k0l(k: int, ell: int, n: int) -> IntPoly:
    """Full (0,k,0,ell) polynomial at order n >= 0 from the closed formulas;
    below the threshold the terms at negative exponents fold into x^0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    terms = _closed_coeffs(k, ell, n)
    fold = n < _CLOSED_0K0L_THRESHOLD[(k, ell)]
    coeffs = {}
    for e, v in enumerate(terms, n - 2 * (k + ell)):
        if e < 0 and v and not fold:
            raise ArithmeticError(f"nonzero coefficient at negative exponent x^{e}")
        coeffs[max(e, 0)] = coeffs.get(max(e, 0), 0) + v
    return IntPoly(coeffs)


# ---------------------------------------------------------------------------
# Routing: the one map from (avoidance class, spec, engine kind) to an engine


ENGINE_KINDS = ("auto", "closed", "recurrence")

# The NoEngineError text of each (avoidance class, engine kind), with {} for the spec.
_NO_ENGINE_TEXT = {
    ("123", "auto"): "no engine covers MMP({}) over 123-avoiders; "
    "fall back to oracle.brute_series(123, ...)",
    ("123", "recurrence"): "no recurrence engine for MMP({}) over 123-avoiders; "
    "fall back to oracle.brute_series(123, ...)",
    ("123", "closed"): "no closed form for MMP({}) over 123-avoiders",
    **dict.fromkeys(
        (("132", "auto"), ("132", "recurrence")),
        "no engine for MMP({}) over 132-avoiders; fall back to oracle.brute_series(132, ...)",
    ),
    ("132", "closed"): "no closed-form engine for MMP({}) over 132-avoiders; "
    "applicable engines: recurrence, brute",
}


def engine_series(
    avoid: str, spec: QuadrantSpec, trunc: int = DEFAULT_TRUNC, engine: str = "auto"
) -> TSeries:
    """Series for ``spec`` over ``avoid``-avoiders from the engine of kind ``engine``.

    This is the only place that turns a spec into an engine call.  ``auto``
    tries a closed form before a recurrence.  Over 132-avoiders the engines
    cover numeric ``(a, b, EMPTY, d)`` and ``(EMPTY, b, EMPTY, d)``; the
    engines themselves swap the second and fourth slots where the second is
    the smaller (lemma-sym), so the router passes the slots as they are.
    Over 123-avoiders the closed forms cover ``(0, k, 0, l)`` for the small
    ``(k, l)`` with coefficient formulas (either orientation), every degree
    from its formulas; the recurrences cover
    ``(0, k, 0, 0)`` by the bivariate engine, a positive first and third
    slot by the constant ``C_n``, and one positive first or third slot by
    transport: the reverse-complement rotation
    ``(a, b, c, d) -> (c, d, a, b)`` where the third is the positive one,
    then a third slot of EMPTY, and on to the 132 dispatch.  Every other
    spec reaches the one NoEngineError, with the text of its class and kind.
    """
    if avoid not in ("123", "132"):
        raise ValueError(f"unsupported avoidance class {avoid!r}")
    if trunc < 0:
        raise ValueError("trunc must be nonnegative")
    if engine not in ENGINE_KINDS:
        raise ValueError(f"unknown engine {engine!r}; expected one of {', '.join(ENGINE_KINDS)}")
    a, b, c, d = spec.coords
    pos_a = a is not EMPTY and a >= 1
    pos_c = c is not EMPTY and c >= 1
    if avoid == "123" and engine != "recurrence" and EMPTY not in spec.coords and a == c == 0:
        if b == d == 0:
            return TSeries([IntPoly.x(n, catalan(n)) for n in range(trunc + 1)])
        # the reverse-complement symmetry swaps the second and fourth slots
        k, ell = (b, d) if (b, d) in _CLOSED_0K0L_THRESHOLD else (d, b)
        if (k, ell) in _CLOSED_0K0L_THRESHOLD:
            return TSeries(closed_poly_0k0l(k, ell, n) for n in range(trunc + 1))
    if avoid == "123" and engine != "closed":
        if pos_a and pos_c:
            # A position can never see points in both quadrants I and III here.
            return TSeries([_const(n) for n in range(trunc + 1)])
        if a == c == 0 and 0 in (b, d) and EMPTY not in (b, d):
            return q123_0k00(max(b, d), trunc)
        if pos_c:
            a, b, c, d = c, d, a, b
        c = EMPTY  # a third slot of 0 or EMPTY transports to EMPTY over 132
    # the 132 dispatch: 132 specs and the 123 specs rewritten above
    to_132 = engine != "closed" and (avoid == "132" or pos_a or pos_c)
    if to_132 and c is EMPTY and EMPTY not in (b, d):
        if a is EMPTY:
            return q132_ekel(b, d, trunc)
        if a == 0:
            return q132_0ke0(b, trunc) if d == 0 else q132_0kel(b, d, trunc)
        if d == 0:
            return q132_k0e0(a, trunc) if b == 0 else q132_kle0(a, b, trunc)
        return q132_akel(a, b, d, trunc)
    raise NoEngineError(_NO_ENGINE_TEXT[avoid, engine].format(spec))


def q132_series(spec: QuadrantSpec, trunc: int = DEFAULT_TRUNC) -> TSeries:
    """Series over 132-avoiders: ``engine_series("132", spec, trunc)``."""
    return engine_series("132", spec, trunc)


def transport_123(spec: QuadrantSpec, trunc: int = DEFAULT_TRUNC) -> TSeries:
    """Series over 123-avoiders: ``engine_series("123", spec, trunc)``."""
    return engine_series("123", spec, trunc)


def closed_series_123(spec: QuadrantSpec, trunc: int = DEFAULT_TRUNC) -> TSeries:
    """Closed-form series over 123-avoiders: ``engine_series(..., "closed")``."""
    return engine_series("123", spec, trunc, "closed")


def recurrence_series_123(spec: QuadrantSpec, trunc: int = DEFAULT_TRUNC) -> TSeries:
    """Recurrence series over 123-avoiders: ``engine_series(..., "recurrence")``."""
    return engine_series("123", spec, trunc, "recurrence")


# ---------------------------------------------------------------------------
# Errata: literal printed forms that diverge from the oracle


class ErrataRecord(_Frozen):
    """First divergence of a stated formula, read literally, from brute force.

    Every field is a str but ``n``, an int: the ``subject`` and its
    ``parameters``, the length ``n`` and the ``exponent`` where the two first
    differ, and the coefficient there as stated and as the oracle counts it.
    """

    __slots__ = ("subject", "parameters", "n", "exponent", "stated_value", "oracle_value")

    def __init__(self, subject, parameters, n, exponent, stated_value, oracle_value) -> None:
        self._set(subject, parameters, n, exponent, stated_value, oracle_value)

    def line(self) -> str:
        return (
            f"{self.subject}; {self.parameters}; n={self.n},exp={self.exponent}; "
            f"{self.stated_value}; {self.oracle_value}"
        )


KNOWN_ERRATA: tuple[ErrataRecord, ...] = (
    # The x^1-agreement half of the claim is false: the stated value is the
    # x^1 coefficient predicted by the (k,l,EMPTY,m) series, the oracle value
    # is the actual x^1 coefficient of the (k,l,0,m) polynomial.  Over
    # 132-avoiders: (i) every empty-slot match is a zero-slot match and every
    # permutation with a zero-slot match has an empty-slot match, so the x^0
    # coefficients agree for every n; (ii) the x^1 coefficients satisfy
    # empty-slot >= zero-slot, with equality for n < k+l+m+2; (iii) they
    # differ at n = k+l+m+2, as this record shows for k = l = m = 0.
    ErrataRecord("theorem-3", "k=0,l=0,m=0", 2, "1", "1", "0"),
    # Missing factor t on the product term: the literal right-hand side
    # already has constant term 2.
    ErrataRecord("theorem-7", "k=1,l=1", 0, "0", "2", "1"),
    # Head sums of the displayed numerator double-count below the threshold.
    ErrataRecord("theorem-8", "k=1,l=1", 2, "0", "4", "2"),
    # Displayed peak-side formula drops the last subtracted prefix term.
    ErrataRecord("theorem-11", "k1=1,k2=0", 1, "x0^0*x1^1", "1", "0"),
    # The stated position-count formula swaps the row bounds: the value
    # clause must be l < sigma_j <= n-k, not k < sigma_j <= n-l (only the
    # former is consistent with the frame identity and the direct count).
    ErrataRecord("theorem-12", "k=0,l=1,sigma=12", 2, "-", "1", "0"),
    # Prose gives 2*C(n-2) for the top coefficient; the stated formula
    # (and the series) has 2*C(n-3).
    ErrataRecord("theorem-17", "k=2,l=1", 5, "2", "10", "4"),
)


def errata_lines() -> list[str]:
    return [r.line() for r in KNOWN_ERRATA]


def write_errata(path) -> None:
    Path(path).write_text("".join(line + "\n" for line in errata_lines()), encoding="utf-8")
