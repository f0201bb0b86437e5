import hashlib
import itertools
import json
from pathlib import Path

import pytest

from qmmp import cli, gf, oracle
from qmmp.mmp import EMPTY, QuadrantSpec, bivariate_distribution, distribution, distributions
from qmmp.perm import P123, P132
from qmmp.series import BiPoly, IntPoly, catalan

from series_arith import add, inverse, mul, one, shift, solve_quadratic, sub, t_power, to_univariate

ROOT = Path(__file__).resolve().parents[1]


def test_spot_values_from_reference_rows():
    assert gf.q132_0ke0(1, 4).poly(4) == IntPoly({0: 1, 1: 6, 2: 6, 3: 1})
    assert gf.q132_0ke0(5, 9).poly(9) == IntPoly({0: 429, 1: 1817, 2: 1962, 3: 612, 4: 42})
    assert gf.q132_kle0(2, 1, 4).poly(4) == IntPoly({0: 11, 1: 3})
    assert gf.q132_kle0(3, 3, 9).poly(9) == IntPoly({0: 2801, 1: 1506, 2: 507, 3: 48})
    assert gf.q132_0kel(1, 1, 3).poly(3) == IntPoly({0: 4, 1: 1})
    assert gf.q132_0kel(3, 3, 9).poly(9) == IntPoly({0: 2762, 1: 1649, 2: 426, 3: 25})
    assert gf.q132_akel(1, 1, 1, 4).poly(4) == IntPoly({0: 10, 1: 4})
    assert gf.q132_akel(3, 3, 3, 13).poly(13) == IntPoly(
        {0: 265047, 1: 273660, 2: 163720, 3: 38169, 4: 2304}
    )
    assert gf.q132_ekel(0, 0, 4).poly(4) == IntPoly({0: 6, 1: 4, 2: 3, 4: 1})
    assert gf.q132_ekel(1, 1, 3).poly(3) == IntPoly({0: 4, 1: 1})
    assert gf.q123_0k00(1, 4).poly(3) == IntPoly({1: 3, 2: 2})
    assert gf.q123_0k00(2, 5).poly(5) == IntPoly({1: 5, 2: 27, 3: 10})


def test_zero_hill_column_matches_known_sequence():
    fine = [gf.q132_ekel(0, 0, 9).poly(n).coeff(0) for n in range(10)]
    assert fine == [1, 0, 1, 2, 6, 18, 57, 186, 622, 2120]


def test_descent_interpretation_of_0ke0_k1():
    # one x per left-to-right minimum that has a larger element before it,
    # i.e. per descent of the 132-avoider
    from qmmp.perm import avoiders

    for n in range(8):
        hist = {}
        for sigma in avoiders(n, P132):
            des = sum(1 for i in range(n - 1) if sigma.word[i] > sigma.word[i + 1])
            hist[des] = hist.get(des, 0) + 1
        assert gf.q132_0ke0(1, n).poly(n) == IntPoly(hist)


def test_engines_match_oracle_small():
    n = 6
    for k in range(4):
        assert gf.q132_k0e0(k, n).coeffs == tuple(
            distribution(m, P132, QuadrantSpec(k, 0, EMPTY, 0)) for m in range(n + 1)
        )
        assert gf.q132_0ke0(k, n).coeffs == tuple(
            distribution(m, P132, QuadrantSpec(0, k, EMPTY, 0)) for m in range(n + 1)
        )
    # every threshold triple of the one (a, k, EMPTY, ell) recursion, an EMPTY
    # a included, through each entry point that reaches it: k < ell takes
    # lemma-sym and a = 0 the clamped a - 1, which the router never sends
    # there
    n = 7
    for a in (EMPTY, 0, 1, 2, 3):
        for k in range(4):
            for ell in range(4):
                want = tuple(
                    distribution(m, P132, QuadrantSpec(a, k, EMPTY, ell)) for m in range(n + 1)
                )
                if a is EMPTY:
                    assert gf.q132_ekel(k, ell, n).coeffs == want
                    continue
                assert gf.q132_akel(a, k, ell, n).coeffs == want
                if a == 0:
                    assert gf.q132_0kel(k, ell, n).coeffs == want
                if ell == 0:
                    assert gf.q132_kle0(a, k, n).coeffs == want
    # the bivariate walk with either threshold below, at or above the other
    n = 12
    for k1 in range(4):
        for k2 in range(4):
            assert gf.q123_bivariate(k1, k2, n).coeffs == tuple(
                bivariate_distribution(m, k1, k2) for m in range(n + 1)
            )


def test_lemma_sym_computes_each_orbit_once(monkeypatch):
    # over 132-avoiders σ ↦ σ⁻¹ swaps quadrants II and IV, so (a, k, e, l) and
    # (a, l, e, k) are one cached series, and each orbit {(a, k, l), (a, l, k)}
    # costs one first-return call, but for (0, 0, e, 0), the Narayana series
    trunc = 12
    triples = [(a, k, ell) for a in (EMPTY, 0, 1, 2, 3) for k in range(5) for ell in range(5)]
    calls = []
    first_return = gf._first_return
    monkeypatch.setattr(gf, "_first_return", lambda *args: calls.append(args) or first_return(*args))
    gf._c_akel.cache_clear()
    for a, k, ell in triples:
        assert gf._c_akel(a, k, ell, trunc) is gf._c_akel(a, ell, k, trunc)
    orbits = {(a, max(k, ell), min(k, ell)) for a, k, ell in triples}
    assert len(calls) == len(orbits) - 1


def test_paper_specs_match_pinned_digests():
    # The benchmark pins every rendered line of the 58 paper-table series at
    # t^40, the depth with the widest packed fields; the router must
    # reproduce all 41 lines of each.
    pinned = json.loads((ROOT / "perfbench" / "reference" / "engines-deep.json").read_text())
    assert [(avoid, QuadrantSpec.parse(text)) for avoid, text, _ in pinned["specs"]] == (
        cli.paper_table_specs()
    )
    for avoid, text, digests in pinned["specs"]:
        lines = gf.engine_series(avoid, QuadrantSpec.parse(text), 40).render_lines()
        got = [hashlib.sha256(line.encode()).hexdigest()[:16] for line in lines]
        assert len(digests) == 41 and got == digests, (avoid, text)


# sha256 prefixes of the rendered t^30 series of every (EMPTY, k, EMPTY, l)
# with k, l <= 4 that the paper tables do not pin
_EKEL_T30_DIGESTS = {
    "e,0,e,1": "2fa67d004f61d801",
    "e,0,e,2": "c735872193e58fbd",
    "e,0,e,3": "ef12c955c0b61682",
    "e,0,e,4": "aaf37709f216a391",
    "e,1,e,4": "a1a97b76a7aa835f",
    "e,2,e,1": "8ae6b5fb587775fe",
    "e,2,e,4": "07a5e4e95f8d4e01",
    "e,3,e,1": "037865301797fabc",
    "e,3,e,2": "33f4913d0975259d",
    "e,3,e,4": "f5d4ae1d33e125d4",
    "e,4,e,1": "a1a97b76a7aa835f",
    "e,4,e,2": "07a5e4e95f8d4e01",
    "e,4,e,3": "f5d4ae1d33e125d4",
    "e,4,e,4": "ad0a1c5cdfac8455",
}


def test_unpinned_ekel_specs_match_pinned_digests():
    # the oracle checks these only to n = 7; together with the paper tables
    # they cover every (EMPTY, k, EMPTY, l) with k, l <= 4 deep
    paper = set(cli.paper_table_specs())
    grid = [QuadrantSpec(EMPTY, k, EMPTY, ell) for k in range(5) for ell in range(5)]
    assert [str(s) for s in grid if ("132", s) not in paper] == list(_EKEL_T30_DIGESTS)
    for text, digest in _EKEL_T30_DIGESTS.items():
        lines = gf.engine_series("132", QuadrantSpec.parse(text), 30).render_lines()
        got = hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()
        assert len(lines) == 31 and got[:16] == digest, text


def _substitute(p: BiPoly, keep_x0: bool, keep_x1: bool) -> BiPoly:
    """``p`` with each dropped variable set to 1."""
    out: dict = {}
    for (e0, e1), c in p.items():
        key = (e0 * keep_x0, e1 * keep_x1)
        out[key] = out.get(key, 0) + c
    return BiPoly(out)


def test_bivariate_images_commute_with_substitution():
    # Setting x0 = x1 = x, x0 = 1 or x1 = 1 is a ring homomorphism, so the
    # walk run in an image equals the bivariate series substituted.
    n = 16
    for k1 in range(7):
        for k2 in range(7):
            biv = gf.q123_bivariate(k1, k2, n)
            if k1 == k2:
                assert gf.q123_0k00(k1, n).coeffs == tuple(map(to_univariate, biv.coeffs))
            for keep in ((False, True), (True, False), (False, False)):
                s0, s1 = map(int, keep)  # a dropped variable has stride 0
                image = gf._series(gf._peak_walk(k1, k2, n, ((n + 1) * s0, s1)), n, BiPoly)
                assert image.coeffs == tuple(_substitute(p, *keep) for p in biv.coeffs)
                univariate = gf._series(gf._peak_walk(k1, k2, n, (s0, s1)), n)
                assert univariate.coeffs == tuple(
                    to_univariate(_substitute(p, *keep)) for p in biv.coeffs
                )


def test_non_peak_thresholds_match_pinned_digests():
    # (0, k2): every L point is a matching peak from step 1 on; the oracle
    # checks the bivariate image only to n = 9, so these digests of the
    # rendered series to t^20 pin the deep coefficients.
    pinned = {
        1: "d22a3a007b35dc31",
        2: "73b0999806978b4c",
        3: "12a9aa186266ccaf",
        4: "79cb79f53b646d3c",
        5: "2e7c91305391129f",
        6: "2e58e9acd7cc22d7",
    }
    for k2, digest in pinned.items():
        text = "\n".join(gf.q123_bivariate(0, k2, 20).render_lines())
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest, k2


def test_shift_products_match_pinned_digests():
    # Both thresholds positive, in both images; the oracle checks these only
    # to n = 9, so digests of the rendered series pin the deep coefficients.
    bivariate = {
        (1, 1): "e7195238aea05e8a",
        (1, 2): "998db1e674a802c3",
        (1, 3): "0bd02fb3331e434d",
        (2, 1): "03a5ebfe765ea933",
        (2, 2): "5fa69cc2133af1cd",
        (2, 3): "f8ae21149a7a95f2",
        (3, 1): "20285e48d061c9ae",
        (3, 2): "36038c3dabd7f2b8",
        (3, 3): "99543fad2c4c16af",
    }
    for (k1, k2), digest in bivariate.items():
        text = "\n".join(gf.q123_bivariate(k1, k2, 24).render_lines())
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest, (k1, k2)
    univariate = {
        1: "be512d767a40f6db",
        2: "3b34d5147ba57bd7",
        3: "8112c9ceeed1b805",
        4: "bb59419f521036a7",
        5: "568a43868b6cc541",
        6: "09c35f212fab9e1f",
    }
    for k, digest in univariate.items():
        text = "\n".join(gf.q123_0k00(k, 40).render_lines())
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest, k


def test_unpack_rejects_a_carried_field():
    # t^1 fields are too narrow for C_5 = 42, which overflows field 0 and
    # carries into the fields above it; the mass check must see it.
    assert 1 << gf._width(1) <= 42 < 1 << gf._width(5)
    for cls in (IntPoly, BiPoly):
        with pytest.raises(ArithmeticError, match="carried"):
            gf._unpack(cls, 1, 5, 42)
        with pytest.raises(ArithmeticError, match="carried"):
            gf._unpack(cls, 3, 3, 5 + (1 << gf._width(3)))
        assert gf._unpack(cls, 5, 5, 42) == cls.const(42)
    w = gf._width(3)
    assert gf._unpack(IntPoly, 3, 3, 3 + (2 << w)) == IntPoly({0: 3, 1: 2})
    assert gf._unpack(BiPoly, 3, 3, 3 + (2 << w * 5)) == BiPoly({(0, 0): 3, (1, 1): 2})


def test_large_thresholds_clamp_to_the_depth():
    # A quadrant of a length-n permutation holds at most n - 1 points, so a
    # threshold past the depth is the depth itself, not a deep recursion.
    n = 4
    for series, spec in (
        (gf.q132_ekel(900, 0, n), QuadrantSpec(EMPTY, 900, EMPTY, 0)),
        (gf.q132_akel(900, 1, 900, n), QuadrantSpec(900, 1, EMPTY, 900)),
    ):
        assert series == oracle.brute_series(P132, spec, n)
    assert gf.q123_bivariate(900, 0, n).coeffs == tuple(
        bivariate_distribution(m, 900, 0) for m in range(n + 1)
    )
    assert gf.q123_0k00(900, n) == oracle.brute_series(P123, QuadrantSpec(0, 900, 0, 0), n)
    with pytest.raises(ValueError, match="nonnegative"):
        gf.q123_bivariate(-1, 900, n)
    with pytest.raises(ValueError, match="255"):
        gf.q123_bivariate(1, 1, 256)



def test_negative_depth_or_threshold_is_rejected():
    # each public engine entry point validates its thresholds and depth up
    # front, rather than recursing until it fails
    engines = {
        gf.q132_k0e0: 1,
        gf.q132_0ke0: 1,
        gf.q132_kle0: 2,
        gf.q132_0kel: 2,
        gf.q132_akel: 3,
        gf.q132_ekel: 2,
        gf.q123_0k00: 1,
        gf.q123_bivariate: 2,
    }
    for engine, arity in engines.items():
        for slot in range(arity):
            thresholds = [1] * arity
            thresholds[slot] = -1
            with pytest.raises(ValueError, match="thresholds must be nonnegative"):
                engine(*thresholds, 5)
        with pytest.raises(ValueError, match="trunc must be nonnegative"):
            engine(*[1] * arity, -1)
    for avoid, spec in (("132", "1,0,e,0"), ("123", "0,0,0,0"), ("123", "0,1,0,1")):
        for kind in gf.ENGINE_KINDS[:2]:
            with pytest.raises(ValueError, match="trunc must be nonnegative"):
                gf.engine_series(avoid, QuadrantSpec.parse(spec), -1, kind)
    assert gf.q132_ekel(1, 0, 0) == gf.engine_series("132", QuadrantSpec(EMPTY, 1, EMPTY, 0), 0)

def test_mass_is_catalan():
    engines = [
        gf.q132_k0e0(2, 8),
        gf.q132_0ke0(3, 8),
        gf.q132_kle0(2, 2, 8),
        gf.q132_0kel(1, 2, 8),
        gf.q132_akel(1, 1, 1, 8),
        gf.q132_ekel(1, 2, 8),
        gf.q123_0k00(3, 8),
        gf.q123_bivariate(2, 1, 8),
    ]
    for series in engines:
        for n in range(9):
            assert series.poly(n).mass() == catalan(n)


def test_routing_132():
    n = 7
    # symmetry rewrites land on the same engines
    assert gf.q132_series(QuadrantSpec(0, 0, EMPTY, 2), n) == gf.q132_0ke0(2, n)
    assert gf.q132_series(QuadrantSpec(1, 0, EMPTY, 2), n) == gf.q132_kle0(1, 2, n)
    assert gf.q132_series(QuadrantSpec(2, 1, EMPTY, 1), n) == gf.q132_akel(2, 1, 1, n)
    assert gf.q132_series(QuadrantSpec(EMPTY, 0, EMPTY, 2), n) == gf.q132_ekel(0, 2, n)
    assert gf.q132_series(QuadrantSpec(0, 0, EMPTY, 0), n).poly(3) == IntPoly(
        {1: 1, 2: 3, 3: 1}
    )
    with pytest.raises(gf.NoEngineError, match="brute"):
        gf.q132_series(QuadrantSpec(0, 1, 0, 0), n)
    with pytest.raises(gf.NoEngineError):
        gf.q132_series(QuadrantSpec(1, EMPTY, EMPTY, 0), n)


def test_transport_123_routes():
    n = 7
    assert gf.transport_123(QuadrantSpec(1, 1, 0, 1), n) == gf.q132_akel(1, 1, 1, n)
    assert gf.transport_123(QuadrantSpec(1, 1, EMPTY, 1), n) == gf.q132_akel(1, 1, 1, n)
    # third-slot-positive specs rotate onto the same engines
    for spec in (QuadrantSpec(0, 1, 2, 0), QuadrantSpec(EMPTY, 1, 2, 0)):
        series = gf.transport_123(spec, n)
        for m in range(n + 1):
            assert series.poly(m) == distribution(m, P123, spec)
    # both sides positive: nothing can match
    series = gf.transport_123(QuadrantSpec(1, 0, 1, 0), n)
    assert all(series.poly(m) == IntPoly.const(catalan(m)) for m in range(n + 1))
    # closed family
    assert gf.transport_123(QuadrantSpec(0, 1, 0, 1), n) == gf.closed_series_123(
        QuadrantSpec(0, 1, 0, 1), n
    )
    assert gf.transport_123(QuadrantSpec(0, 1, 0, 2), n) == gf.closed_series_123(
        QuadrantSpec(0, 2, 0, 1), n
    )
    with pytest.raises(gf.NoEngineError, match="brute"):
        gf.transport_123(QuadrantSpec(0, 3, 0, 1), n)
    with pytest.raises(gf.NoEngineError):
        gf.transport_123(QuadrantSpec(EMPTY, 1, EMPTY, 0), n)


def test_closed_series_123():
    for k, ell in ((1, 0), (2, 0), (1, 1), (2, 1), (2, 2)):
        series = gf.closed_series_123(QuadrantSpec(0, k, 0, ell), 9)
        for n in range(10):
            assert series.poly(n) == distribution(n, P123, QuadrantSpec(0, k, 0, ell))
    series = gf.closed_series_123(QuadrantSpec(0, 0, 0, 0), 6)
    assert all(series.poly(n) == IntPoly.x(n, catalan(n)) for n in range(7))


def test_extremal_coeff_values():
    assert gf.extremal_coeff("theorem-4", 1, 1, 0, 5) == 5
    assert gf.extremal_coeff("corollary-4", 2, 0, 0, 6) == catalan(2) * catalan(4)
    assert gf.extremal_coeff("theorem-04", 1, 2, 0, 6) == catalan(1) * catalan(2)
    assert gf.extremal_coeff("corollary-04", 3, 0, 0, 7) == catalan(3)
    assert gf.extremal_coeff("corollary-05", 2, 1, 0, 7) == catalan(2) * catalan(1)
    assert gf.extremal_coeff("theorem-004", 2, 1, 0, 4) == 3
    assert gf.extremal_coeff("thm-0004", 1, 1, 1, 4) == 4


def test_extremal_coeff_regime_errors():
    with pytest.raises(ValueError):
        gf.extremal_coeff("theorem-4", 1, 1, 0, 2)
    with pytest.raises(ValueError):
        gf.extremal_coeff("theorem-0004", 0, 1, 1, 9)
    with pytest.raises(ValueError):
        gf.extremal_coeff("corollary-4", 1, 1, 0, 9)
    with pytest.raises(ValueError):
        gf.extremal_coeff("no-such", 1, 0, 0, 5)


def test_closed_coeff_0k0l():
    assert gf.closed_coeff_0k0l(1, 0, 5, 1) == 14
    assert gf.closed_coeff_0k0l(2, 2, 8, 0) == 36
    assert gf.closed_coeff_0k0l(1, 1, 5, 1) == 20
    with pytest.raises(ValueError):
        gf.closed_coeff_0k0l(3, 0, 9, 0)
    with pytest.raises(ValueError):
        gf.closed_coeff_0k0l(2, 1, 4, 0)
    with pytest.raises(ValueError):
        gf.closed_coeff_0k0l(1, 1, 6, 3)
    # the whole polynomial of an uncovered pair raises the same ValueError
    with pytest.raises(ValueError, match=r"no closed coefficient formula for \(0,3,0,3\)"):
        gf.closed_poly_0k0l(3, 3, 9)


def test_closed_coeff_mass_is_catalan():
    for (k, ell), threshold in gf._CLOSED_0K0L_THRESHOLD.items():
        for n in range(threshold, 13):
            total = sum(gf.closed_coeff_0k0l(k, ell, n, r) for r in range(k + ell + 1))
            assert total == catalan(n), (k, ell, n)
        # the whole polynomial at every n, below the threshold by the fold
        # into x^0, and against the oracle to n = 9
        for n in range(13):
            poly = gf.closed_poly_0k0l(k, ell, n)
            assert poly.mass() == catalan(n), (k, ell, n)
            if n <= 9:
                assert poly == distribution(n, P123, QuadrantSpec(0, k, 0, ell)), (k, ell, n)
        with pytest.raises(ValueError, match="n must be nonnegative"):
            gf.closed_poly_0k0l(k, ell, -1)


_NO_ENGINE_TEXT = {
    ("132", "auto"): "no engine for MMP({}) over 132-avoiders; "
    "fall back to oracle.brute_series(132, ...)",
    ("132", "recurrence"): "no engine for MMP({}) over 132-avoiders; "
    "fall back to oracle.brute_series(132, ...)",
    ("132", "closed"): "no closed-form engine for MMP({}) over 132-avoiders; "
    "applicable engines: recurrence, brute",
    ("123", "auto"): "no engine covers MMP({}) over 123-avoiders; "
    "fall back to oracle.brute_series(123, ...)",
    ("123", "recurrence"): "no recurrence engine for MMP({}) over 123-avoiders; "
    "fall back to oracle.brute_series(123, ...)",
    ("123", "closed"): "no closed form for MMP({}) over 123-avoiders",
}


def test_engine_series_coverage():
    # Over every {0,1,2,e}^4 spec: how many specs each (class, engine kind)
    # covers, every covered series against brute force to t^7, and the exact
    # NoEngineError text of every uncovered one.
    n = 7
    covered = {key: 0 for key in _NO_ENGINE_TEXT}
    for avoid in ("123", "132"):
        tau = oracle.class_from_text(avoid)
        for slots in itertools.product("012e", repeat=4):
            spec = QuadrantSpec.parse(",".join(slots))
            brute = oracle.brute_series(tau, spec, n)
            for engine in gf.ENGINE_KINDS:
                try:
                    series = gf.engine_series(avoid, spec, n, engine)
                except gf.NoEngineError as exc:
                    assert str(exc) == _NO_ENGINE_TEXT[(avoid, engine)].format(spec)
                    continue
                covered[(avoid, engine)] += 1
                assert series == brute, (avoid, engine, str(spec))
    assert covered == {
        ("132", "auto"): 36,
        ("132", "recurrence"): 36,
        ("132", "closed"): 0,
        ("123", "auto"): 145,
        ("123", "recurrence"): 141,
        ("123", "closed"): 9,
    }
    assert gf.engine_series("132", QuadrantSpec(2, 1, EMPTY, 1), 6) == gf.q132_akel(2, 1, 1, 6)
    assert gf.engine_series("123", QuadrantSpec(0, 2, 0, 2), 6) == gf.closed_series_123(
        QuadrantSpec(0, 2, 0, 2), 6
    )
    with pytest.raises(gf.NoEngineError):
        gf.engine_series("132", QuadrantSpec(0, 1, 0, 0), 6)
    with pytest.raises(gf.NoEngineError):
        gf.engine_series("123", QuadrantSpec(0, 3, 0, 1), 6)
    with pytest.raises(ValueError, match="avoidance class"):
        gf.engine_series("213", QuadrantSpec(0, 0, 0, 0), 6)
    with pytest.raises(ValueError, match="unknown engine"):
        gf.engine_series("123", QuadrantSpec(0, 0, 0, 0), 6, "brute")


def test_router_against_the_oracle_with_thresholds_of_three():
    # Every {0,1,2,3,e}^4 spec, class and engine kind: each routed series
    # against mmp.distributions over all the specs at once, for every n <= 7.
    n = 7
    specs = [QuadrantSpec.parse(",".join(slots)) for slots in itertools.product("0123e", repeat=4)]
    covered = {key: 0 for key in _NO_ENGINE_TEXT}
    for avoid in ("123", "132"):
        tau = oracle.class_from_text(avoid)
        rows = [distributions(m, tau, specs) for m in range(n + 1)]
        for j, spec in enumerate(specs):
            for engine in gf.ENGINE_KINDS:
                try:
                    series = gf.engine_series(avoid, spec, n, engine)
                except gf.NoEngineError as exc:
                    assert str(exc) == _NO_ENGINE_TEXT[(avoid, engine)].format(spec)
                    continue
                covered[(avoid, engine)] += 1
                assert list(series.coeffs) == [row[j] for row in rows], (avoid, engine, str(spec))
    assert covered == {
        ("132", "auto"): 80,
        ("132", "recurrence"): 80,
        ("132", "closed"): 0,
        ("123", "auto"): 428,
        ("123", "recurrence"): 424,
        ("123", "closed"): 9,
    }


def test_narayana_base_is_the_quadratic_root():
    # t F^2 - (1 + t - t x) F + 1 = 0 with F(0) = 1, solved by coefficient
    # recursion, against the Narayana rows the (0,0,e,0) engine is built on.
    n = 20
    b = [IntPoly.const(-1), IntPoly({0: -1, 1: 1})] + [IntPoly()] * (n - 1)
    root = solve_quadratic(t_power(1, n), b, one(n), IntPoly.const(1))
    assert tuple(root) == gf.q132_series(QuadrantSpec(0, 0, EMPTY, 0), n).coeffs


def test_errata_lines_format():
    lines = gf.errata_lines()
    assert len(lines) == len(gf.KNOWN_ERRATA)
    for line in lines:
        parts = line.split("; ")
        assert len(parts) == 5


def test_errata_theorem_3_first_divergence():
    record = next(r for r in gf.KNOWN_ERRATA if r.subject == "theorem-3")
    empty_slot = distribution(record.n, P132, QuadrantSpec(0, 0, EMPTY, 0)).coeff(1)
    zero_slot = distribution(record.n, P132, QuadrantSpec(0, 0, 0, 0)).coeff(1)
    assert str(empty_slot) == record.stated_value
    assert str(zero_slot) == record.oracle_value
    assert empty_slot != zero_slot


def test_errata_theorem_7_literal_form_diverges():
    # literal right-hand side at k = l = 1: 1 + (sum is empty) + Q(0,1,e,0)*Q(1,0,e,0)
    n = 4
    literal = add(one(n), mul(gf.q132_0ke0(1, n).coeffs, gf.q132_k0e0(1, n).coeffs))
    record = next(r for r in gf.KNOWN_ERRATA if r.subject == "theorem-7")
    assert str(literal[record.n].coeff(0)) == record.stated_value
    assert str(gf.q132_kle0(1, 1, n).coeff(record.n, 0)) == record.oracle_value


def test_errata_theorem_8_literal_form_diverges():
    # literal numerator at k = l = 1, divided by (1 - t)
    n = 4
    q1 = list(gf.q132_0ke0(1, n).coeffs)
    head = [IntPoly.const(c) for c in (1, 1, 2)] + [IntPoly()] * (n - 2)
    head = sub(head, t_power(1, n))
    gamma = add(head, shift(mul(q1, sub(q1, one(n)))))
    literal = mul(gamma, inverse(sub(one(n), t_power(1, n))))
    record = next(r for r in gf.KNOWN_ERRATA if r.subject == "theorem-8")
    assert str(literal[record.n].coeff(0)) == record.stated_value
    assert str(gf.q132_0kel(1, 1, n).coeff(record.n, 0)) == record.oracle_value


def test_errata_theorem_11_oracle_side():
    record = next(r for r in gf.KNOWN_ERRATA if r.subject == "theorem-11")
    assert str(bivariate_distribution(1, 1, 0).coeff((0, 1))) == record.oracle_value


def test_errata_theorem_17_prose_value_diverges():
    record = next(r for r in gf.KNOWN_ERRATA if r.subject == "theorem-17")
    top = distribution(record.n, P123, QuadrantSpec(0, 2, 0, 1)).coeff(record.n - 3)
    assert str(top) == record.oracle_value
    assert str(2 * catalan(record.n - 2)) == record.stated_value
    assert gf.closed_coeff_0k0l(2, 1, record.n, 3) == top


def test_write_errata(tmp_path):
    target = tmp_path / "errata.txt"
    gf.write_errata(target)
    assert target.read_text().splitlines() == gf.errata_lines()
