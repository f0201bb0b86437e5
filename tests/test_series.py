import pytest
from hypothesis import given, settings, strategies as st

from qmmp.series import (
    BiPoly,
    IntPoly,
    TSeries,
    catalan,
    catalan_series,
    catalan_xt_series,
    narayana,
    solve_quadratic,
    unpack_fields,
)


def test_catalan_values():
    assert [catalan(n) for n in range(10)] == [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862]
    assert catalan(12) == 208012


def test_catalan_series_defining_identity():
    n = 12
    c = catalan_series(n)
    assert TSeries.one(n) + c * c * TSeries.t_power(1, n) == c
    assert c.coeff(9, 0) == 4862


def test_catalan_xt_series():
    s = catalan_xt_series(5)
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
    assert (p - p).is_zero()
    assert (p * q).coeff(4) == -9
    assert p.render() == "1+3x^2"
    assert IntPoly().render() == "0"
    assert IntPoly({1: 1, 3: -1}).render() == "x-x^3"
    assert p.mass() == 4
    assert p.evaluate(2) == 13
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
    assert p.to_univariate() == IntPoly({1: 2})
    assert (p - p).is_zero()
    assert p.render() == "x1+x0"


@given(
    st.dictionaries(st.integers(0, 20), st.integers(1, 2**12 - 1), max_size=8),
    st.integers(12, 40),
)
def test_unpack_fields_inverts_packing(coeffs, width):
    assert unpack_fields(sum(c << e * width for e, c in coeffs.items()), width) == coeffs


def test_bipoly_product_exponent_limit():
    # packed exponents must not carry from x1 into x0 (or grow past 255)
    with pytest.raises(ValueError, match="255"):
        BiPoly.term(0, 255) * BiPoly.term(0, 1)
    with pytest.raises(ValueError, match="255"):
        BiPoly.term(255, 0) * BiPoly.term(1, 0)
    with pytest.raises(ValueError, match="255"):
        BiPoly({(0, 200): 1, (3, 0): 1}) * BiPoly({(1, 56): 2})
    assert (BiPoly.term(0, 254) * BiPoly.term(0, 1)).render() == "x1^255"
    assert BiPoly.term(254, 0) * BiPoly.term(1, 0) == BiPoly.term(255, 0)
    assert (BiPoly() * BiPoly.term(0, 255)).is_zero()


polys = st.dictionaries(
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=-6, max_value=6),
    max_size=4,
).map(IntPoly)

# truncation degrees are drawn independently: products truncate to the min
series = st.integers(min_value=0, max_value=12).flatmap(
    lambda trunc: st.lists(polys, min_size=trunc + 1, max_size=trunc + 1).map(TSeries)
)


@settings(max_examples=120, deadline=None)
@given(series, series, series)
def test_mul_commutative_associative(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)


@settings(max_examples=60, deadline=None)
@given(series)
def test_additive_inverse(s):
    assert (s + (-s)).is_zero()
    assert s * TSeries.one(s.trunc) == s


def test_inverse_round_trip():
    n = 10
    s = TSeries.one(n) - catalan_series(n).shift(1)
    assert s.inverse() * s == TSeries.one(n)
    with pytest.raises(ValueError):
        catalan_series(4).shift(1).inverse()
    with pytest.raises(ValueError):
        (catalan_series(4) * 2).inverse()


def test_truncation_rules():
    a = catalan_series(8)
    b = catalan_series(5)
    assert (a * b).trunc == 5
    assert (a + b).trunc == 5
    assert a.truncate(3).trunc == 3
    with pytest.raises(ValueError):
        a.poly(9)


def test_solve_quadratic_base_case():
    n = 9
    a = TSeries.t_power(1, n)
    b = TSeries([IntPoly.const(-1), IntPoly({0: -1, 1: 1})] + [IntPoly()] * (n - 1))
    f = solve_quadratic(a, b, TSeries.one(n), IntPoly.const(1))
    # residual is checked internally; coefficients are the peak-count rows
    for m in range(n + 1):
        expect = IntPoly({p: narayana(m, p) for p in range(1, m + 1)}) if m else IntPoly.const(1)
        assert f.poly(m) == expect
    assert all(f.poly(m).mass() == catalan(m) for m in range(n + 1))


def test_solve_quadratic_linear_case():
    n = 8
    f = solve_quadratic(TSeries.zero(n), TSeries.one(n), -catalan_series(n), IntPoly.const(1))
    assert f == catalan_series(n)


def test_solve_quadratic_ill_posed():
    n = 4
    with pytest.raises(ValueError, match="ill-posed"):
        solve_quadratic(TSeries.zero(n), TSeries.zero(n), TSeries.one(n), IntPoly.const(1))
    with pytest.raises(ValueError, match="ill-posed"):
        solve_quadratic(
            TSeries.zero(n), catalan_series(n) * 2, TSeries.one(n), IntPoly.const(1)
        )


def test_render_lines():
    s = TSeries([IntPoly.const(1), IntPoly({0: 1, 1: 1})])
    assert s.render_lines() == ["t^0: 1", "t^1: 1+x"]
