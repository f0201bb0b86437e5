import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from qmmp import gf
from qmmp.mmp import QuadrantSpec
from qmmp.series import BiPoly, IntPoly, TSeries, catalan, narayana, unpack

from series_arith import (
    add,
    catalan_series,
    inverse,
    mul,
    neg,
    one,
    shift,
    solve_quadratic,
    sub,
    t_power,
    to_univariate,
    zero,
)


def test_catalan_values():
    assert [catalan(n) for n in range(10)] == [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862]
    assert catalan(12) == 208012


def test_catalan_series_defining_identity():
    n = 12
    c = catalan_series(n)
    assert add(one(n), mul(mul(c, c), t_power(1, n))) == c
    assert c[9].coeff(0) == 4862


def test_catalan_xt_series():
    # (0,0,0,0) matches every position, so its series over 123-avoiders is C(tx)
    s = gf.engine_series("123", QuadrantSpec(0, 0, 0, 0), 5)
    assert s.coeff(5, 5) == 42
    assert s.coeff(5, 4) == 0


def test_narayana():
    assert [narayana(4, p) for p in range(1, 5)] == [1, 6, 6, 1]
    assert narayana(5, 0) == 0 and narayana(5, 6) == 0
    assert narayana(7, 1) == 1
    assert sum(narayana(9, p) for p in range(1, 10)) == 4862


def test_intpoly_basics():
    p = IntPoly({0: 1, 2: 3})
    q = IntPoly({2: -3, 1: 5})
    assert (p + q) == IntPoly({0: 1, 1: 5})
    assert not p + p * -1
    assert (p * q).coeff(4) == -9
    assert p.render() == "1+3x^2"
    assert IntPoly().render() == "0"
    assert IntPoly({1: 1, 3: -1}).render() == "x-x^3"
    assert p.mass() == 4
    with pytest.raises(ValueError):
        IntPoly({-1: 2})


def test_constant_polynomials_hash_as_their_int():
    # equal objects must hash equal, and a constant polynomial equals its int
    for cls in (IntPoly, BiPoly):
        assert cls.const(3) == 3 and cls() == 0
        assert len({cls.const(3), 3}) == 1
        assert len({cls(), 0}) == 1
        assert len({cls.const(-2), -2, cls.const(3)}) == 2


def test_bipoly_basics():
    p = BiPoly({(1, 0): 1, (0, 1): 1})
    assert (p * p) == BiPoly({(2, 0): 1, (1, 1): 2, (0, 2): 1})
    assert to_univariate(p) == IntPoly({1: 2})
    assert not p + p * -1
    assert p.render() == "x1+x0"


def _shifted_fields(packed, width):
    """The nonzero fields of ``packed`` by position, one shift of the whole int per field."""
    mask = (1 << width) - 1
    out = {}
    f = 0
    while packed:
        if packed & mask:
            out[f] = packed & mask
        packed >>= width
        f += 1
    return out


@st.composite
def _packings(draw):
    """Lanes of polynomials with coefficients below ``2**width``, and a stride."""
    width = draw(st.integers(1, 80))
    # up to 256 * 5 fields, so ints of many 64-field blocks are drawn too
    coeffs = st.dictionaries(st.integers(0, 255), st.integers(1, 2**width - 1), max_size=12)
    lanes = draw(st.lists(coeffs, min_size=1, max_size=5))
    return width, lanes, draw(st.sampled_from([0, *range(1, 8)]))


@given(_packings())
def test_unpack_inverts_packing(packing):
    width, lanes, stride = packing
    packed = sum(
        c << (index * len(lanes) + j) * width
        for j, lane in enumerate(lanes)
        for index, c in lane.items()
    )
    if stride:
        want = [BiPoly({divmod(index, stride): c for index, c in lane.items()}) for lane in lanes]
    else:
        want = [IntPoly(lane) for lane in lanes]
    assert unpack(packed, width, len(lanes), stride) == want


def test_unpack_reads_a_deep_bivariate_coefficient_as_the_shifts_do():
    # 41 * 41 fields of 72 bits, the size of q123_bivariate(5, 5, 40)'s t^40
    # coefficient, with runs of zero fields across the 64-field blocks
    rng = random.Random(40)
    fields = [rng.getrandbits(72) if rng.random() < 0.7 else 0 for _ in range(41 * 41)]
    fields[64:200] = [0] * 136
    packed = sum(c << f * 72 for f, c in enumerate(fields))
    want = _shifted_fields(packed, 72)
    assert unpack(packed, 72) == [IntPoly(want)]
    assert unpack(packed, 72, stride=41) == [BiPoly({divmod(f, 41): c for f, c in want.items()})]


def test_unpack_rejects_what_a_bipoly_key_cannot_hold():
    # the exponent check runs once per int: a stride past 256 would let x1
    # carry into x0, so it is refused whatever the fields, and the highest
    # field's x0 must stay within 0..255
    for packed, lanes, stride in ((1, 1, 257), (1 << 256 * 8, 1, 257), (1, 3, -1)):
        with pytest.raises(ValueError):
            unpack(packed, 8, lanes, stride)
    for lanes, stride in ((1, 256), (3, 256), (2, 41)):
        top = (256 * stride - 1) * lanes  # the last field of x0^255
        assert unpack(1 << top * 8, 8, lanes, stride)[0] == BiPoly({(255, stride - 1): 1})
        with pytest.raises(ValueError):
            unpack(1 << (top + lanes) * 8, 8, lanes, stride)


def test_unpack_rejects_a_negative_int_or_width():
    # each would shift forever
    for packed, width in ((-1, 8), (5, 0), (5, -3)):
        with pytest.raises(ValueError):
            unpack(packed, width)


def test_bipoly_product_exponent_limit():
    # packed exponents must not carry from x1 into x0 (or grow past 255)
    def term(e0, e1):
        return BiPoly({(e0, e1): 1})

    with pytest.raises(ValueError, match="255"):
        term(0, 255) * term(0, 1)
    with pytest.raises(ValueError, match="255"):
        term(255, 0) * term(1, 0)
    with pytest.raises(ValueError, match="255"):
        BiPoly({(0, 200): 1, (3, 0): 1}) * BiPoly({(1, 56): 2})
    assert (term(0, 254) * term(0, 1)).render() == "x1^255"
    assert term(254, 0) * term(1, 0) == term(255, 0)
    assert not BiPoly() * term(0, 255)


def test_poly_edge_behaviour():
    # an exponent outside a type's range has coefficient 0, not an error
    assert IntPoly({1: 1}).coeff(-1) == 0
    assert BiPoly().coeff((300, 0)) == 0
    assert BiPoly({(1, 44): 5}).coeff((0, 300)) == 0  # key 300 is x0 x1^44
    # the two variable sets never mix, though both constants equal their int
    assert IntPoly.const(3) != BiPoly.const(3)
    assert IntPoly.const(3) == 3 and BiPoly.const(3) == 3
    for op in (operator.add, operator.mul):
        with pytest.raises(TypeError):
            op(IntPoly.x(), BiPoly.const(1))
        with pytest.raises(TypeError):
            op(BiPoly.const(1), IntPoly.x())
    assert repr(IntPoly({2: 3, 0: -1})) == "IntPoly({0: -1, 2: 3})"
    assert repr(BiPoly({(1, 2): 3, (0, 0): 1})) == "BiPoly({(0, 0): 1, (1, 2): 3})"
    assert repr(IntPoly()) == "IntPoly({})"
    # a bad exponent is refused even with a zero coefficient
    with pytest.raises(ValueError, match=r"^bad exponent -1$"):
        IntPoly({-1: 0})
    with pytest.raises(ValueError, match=r"^bad exponent 'a'$"):
        IntPoly({"a": 1})
    with pytest.raises(ValueError, match=r"^bad exponent pair \(0, 256\)$"):
        BiPoly({(0, 256): 1})


bipolys = st.dictionaries(
    st.tuples(st.integers(0, 20), st.integers(0, 20)), st.integers(-6, 6), max_size=6
).map(BiPoly)


@settings(max_examples=150, deadline=None)
@given(bipolys, bipolys)
def test_univariate_image_commutes_with_arithmetic(p, q):
    # x0 = x1 = x maps BiPoly arithmetic onto IntPoly arithmetic, so the one
    # shared + and * must agree under both key packings
    assert to_univariate(p + q) == to_univariate(p) + to_univariate(q)
    assert to_univariate(p * q) == to_univariate(p) * to_univariate(q)
    assert to_univariate(p).mass() == p.mass()
    assert to_univariate(p * 3 + 1) == to_univariate(p) * 3 + 1


polys = st.dictionaries(
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=-6, max_value=6),
    max_size=4,
).map(IntPoly)

# truncation degrees are drawn independently: products truncate to the min
series = st.integers(min_value=0, max_value=12).flatmap(
    lambda trunc: st.lists(polys, min_size=trunc + 1, max_size=trunc + 1)
)


# The reference series arithmetic of series_arith, which the engine
# cross-checks in test_gf and test_mmp rely on.


@settings(max_examples=120, deadline=None)
@given(series, series, series)
def test_mul_commutative_associative(a, b, c):
    assert mul(a, b) == mul(b, a)
    assert mul(mul(a, b), c) == mul(a, mul(b, c))


@settings(max_examples=60, deadline=None)
@given(series)
def test_additive_inverse(s):
    assert not any(add(s, neg(s)))
    assert mul(s, one(len(s) - 1)) == s


def test_inverse_round_trip():
    n = 10
    s = sub(one(n), shift(catalan_series(n)))
    assert mul(inverse(s), s) == one(n)
    with pytest.raises(ValueError):
        inverse(shift(catalan_series(4)))
    with pytest.raises(ValueError):
        inverse([p * 2 for p in catalan_series(4)])


def test_truncation_rules():
    a = catalan_series(8)
    b = catalan_series(5)
    assert len(mul(a, b)) == 6
    assert len(add(a, b)) == 6
    assert len(shift(a, 3)) == 9 and shift(a, 3)[3] == a[0]
    with pytest.raises(ValueError):
        TSeries(a).poly(9)
    with pytest.raises(ValueError, match=r"at least the t\^0 coefficient"):
        TSeries(())


def test_solve_quadratic_base_case():
    n = 9
    b = [IntPoly.const(-1), IntPoly({0: -1, 1: 1})] + zero(n - 2)
    f = solve_quadratic(t_power(1, n), b, one(n), IntPoly.const(1))
    # residual is checked internally; coefficients are the peak-count rows
    for m in range(n + 1):
        expect = IntPoly({p: narayana(m, p) for p in range(1, m + 1)}) if m else IntPoly.const(1)
        assert f[m] == expect
    assert all(f[m].mass() == catalan(m) for m in range(n + 1))


def test_solve_quadratic_linear_case():
    n = 8
    f = solve_quadratic(zero(n), one(n), neg(catalan_series(n)), IntPoly.const(1))
    assert f == catalan_series(n)


def test_solve_quadratic_ill_posed():
    n = 4
    with pytest.raises(ValueError, match="ill-posed"):
        solve_quadratic(zero(n), zero(n), one(n), IntPoly.const(1))
    with pytest.raises(ValueError, match="ill-posed"):
        solve_quadratic(zero(n), [p * 2 for p in catalan_series(n)], one(n), IntPoly.const(1))


def test_render_lines():
    s = TSeries([IntPoly.const(1), IntPoly({0: 1, 1: 1})])
    assert s.render_lines() == ["t^0: 1", "t^1: 1+x"]


def _render_per_term(p) -> str:
    """The reference renderer: one string per term, a coefficient of 1 or -1
    printed as its sign alone except on the constant, joined by "+"."""
    def power(name, e):
        return "" if not e else name if e == 1 else f"{name}^{e}"

    def monomial(e):
        return power("x", e) if isinstance(p, IntPoly) else power("x0", e[0]) + power("x1", e[1])

    items = p.items()
    if not items:
        return "0"
    parts = [f"{ {1: '', -1: '-'}.get(c, c)}{monomial(e)}" for e, c in items]
    if items[0][0] in (0, (0, 0)):
        parts[0] = str(items[0][1])
    return "+".join(parts).replace("+-", "-")


coefficients = st.one_of(st.sampled_from((1, -1)), st.integers(-(10**30), 10**30))


@settings(max_examples=300, deadline=None)
@given(
    st.dictionaries(st.integers(1, 300), coefficients, max_size=8),
    st.dictionaries(st.tuples(st.integers(0, 255), st.integers(0, 255)), coefficients, max_size=8),
    st.sampled_from((0, 1, -1, 2, -2)),
)
def test_render_is_the_per_term_renderer(ints, pairs, const):
    # sparse supports, coefficients of either sign and of ±1, a constant of
    # ±1 or none, the zero polynomial; each support builds one format string,
    # and a support rendered before builds none
    for p in (IntPoly({**ints, 0: const}), BiPoly({**pairs, (0, 0): const})):
        cache = type(p)._monomials
        support = tuple(sorted(p._c))
        size = len(cache) + (bool(support) and support not in cache)
        assert p.render() == _render_per_term(p)
        assert p.render() == _render_per_term(p)
        assert len(cache) == size and (not support or support in cache)
    assert IntPoly().render() == BiPoly().render() == "0"
