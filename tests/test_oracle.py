import json
import re
import tracemalloc
from functools import cache
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qmmp import cli, dyck, mmp, oracle
from qmmp.mmp import EMPTY, QuadrantSpec, mmp_count, quadrant_rows
from qmmp.perm import P123, P132, Permutation, avoiders
from qmmp.series import IntPoly, TSeries, catalan, field_width

from band_reference import band_lines, swapped_row_bounds
from path_words import all_path_words

ROOT = Path(__file__).resolve().parents[1]


def test_brute_series_examples():
    s = oracle.brute_series(P123, QuadrantSpec(0, 1, 0, 0), 4)
    assert s.poly(3) == IntPoly({1: 3, 2: 2})
    s = oracle.brute_series(P132, QuadrantSpec(0, 0, 0, 0), 4)
    for n in range(5):
        assert s.poly(n) == IntPoly.x(n, catalan(n))
    left = oracle.brute_series(P123, QuadrantSpec(2, 1, EMPTY, 0), 6)
    right = oracle.brute_series(P132, QuadrantSpec(2, 1, EMPTY, 0), 6)
    assert left == right


def test_deep_brute_fallback_is_bounded():
    # no engine covers (0,1,0,0) over 132-avoiders; depth 16 is the default cap
    for tau in (P123, P132):
        s = oracle.brute_series(tau, QuadrantSpec(0, 1, 0, 0), 16)
        for n in range(17):
            assert s.poly(n).mass() == catalan(n)


def test_brute_series_checks_each_degree_mass(monkeypatch, capsys):
    # a walk that loses one avoider at n = 5 must not print a wrong series:
    # the library call and the CLI's brute path both name the degree
    walk = mmp._packed_histogram

    def dropping(n, tau_word, leaf, entry):
        packed = walk(n, tau_word, leaf, entry)
        if n != 5:
            return packed
        # one lane: drop one count from the lowest nonzero field
        width = field_width(n)
        return packed - (1 << ((packed & -packed).bit_length() - 1) // width * width)

    monkeypatch.setattr(mmp, "_packed_histogram", dropping)
    want = "t^5 coefficient has mass 41, not C_5"
    for tau in (P123, P132):
        with pytest.raises(ArithmeticError, match=re.escape(want)):
            oracle.brute_series(tau, QuadrantSpec(0, 1, 0, 0), 6)
        args = ["series", "--avoid", str(tau), "--spec", "0,1,0,0", "--engine", "brute"]
        assert cli.main([*args, "--max-n", "6"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {want}") and err.count("\n") == 1
        assert cli.main([*args, "--max-n", "4"]) == 0  # no walk at n = 5
        assert capsys.readouterr().out.count("\n") == 5


def test_class_from_text():
    assert oracle.class_from_text("123") == P123
    assert oracle.class_from_text("132") == P132
    with pytest.raises(ValueError):
        oracle.class_from_text("213")


def test_subject_aliases_and_unknown():
    report = oracle.verify("thm-12", 5)
    assert report.subject == "theorem-12" and report.passed
    report = oracle.verify("lemma-p1", 5)
    assert report.subject == "lemma-p1-2"
    with pytest.raises(ValueError, match="unknown subject"):
        oracle.verify("theorem-99")


def test_report_shape_and_determinism():
    first = oracle.verify("corollary-1", 6)
    second = oracle.verify("corollary-1", 6)
    assert first.lines() == second.lines()
    assert first.passed
    for line in first.lines():
        assert len(line.split("; ")) == 4
    assert "corollary-1" in first.summary()


def test_theorem_3_subject_reports_the_known_failures():
    report = oracle.verify("theorem-3", 5)
    assert not report.passed
    by_exp = {0: [], 1: []}
    for cell in report.cells:
        by_exp[int(cell.cell[-1])].append(cell)
    assert all(c.status == "pass" for c in by_exp[0])
    failing = [c for c in by_exp[1] if c.status == "fail"]
    assert failing and all("empty-slot" in c.detail for c in failing)


def test_engine_subjects_pass_small():
    for sid in ("theorem-2", "theorem-6", "theorem-7", "theorem-8",
                "theorem-9", "theorem-10", "theorem-11"):
        report = oracle.verify(sid, 6)
        assert report.passed, report.summary()


def test_structure_subjects_pass_small():
    for sid in ("theorem-12", "theorem-13", "lemma-sym", "lemma-sym2",
                "lemma-p1-2", "lemma-p1-3", "lemma-p2-2", "lemma-p2-3",
                "match-preservation", "hill-correspondence"):
        report = oracle.verify(sid, 6)
        assert report.passed, report.summary()


def test_coefficient_subjects_pass_small():
    for sid in ("theorem-4", "corollary-4", "theorem-04", "corollary-04",
                "corollary-05", "theorem-004", "theorem-0004",
                "theorem-14", "theorem-15", "theorem-16", "theorem-17", "theorem-18"):
        report = oracle.verify(sid, 8)
        assert report.passed, report.summary()


def test_skip_cells_carry_reasons():
    report = oracle.verify("theorem-0004", 3)
    skipped = [c for c in report.cells if c.status == "skip"]
    assert skipped and all("threshold" in c.detail for c in skipped)
    # a closed-formula subject below its threshold checks nothing, and says so
    for sid, label, threshold in (
        ("theorem-14", "k=1,l=0", 2),
        ("theorem-15", "k=2,l=0", 4),
        ("theorem-16", "k=1,l=1", 4),
        ("theorem-17", "k=2,l=1", 5),
        ("theorem-18", "k=2,l=2", 7),
    ):
        for max_n in (0, threshold - 1):
            report = oracle.verify(sid, max_n)
            detail = f"threshold n>={threshold} exceeds max_n={max_n}"
            assert report.lines() == [f"{sid}; {label}; skip; {detail}"]
            assert report.summary() == f"{sid}: PASS (0 pass, 0 fail, 1 skipped)"
        report = oracle.verify(sid, threshold)
        assert report.counts() == (1, 0, 0), report.lines()
    # so does a walk-pass member whose first n exceeds the depth
    report = oracle.verify("lemma-p1-2", 0)
    assert report.lines() == ["lemma-p1-2; n=1; skip; threshold n>=1 exceeds max_n=0"]


def test_no_report_passes_over_nothing():
    # a report without cells would print PASS while checking nothing
    for max_n in range(3):
        for report in oracle.verify_all(max_n):
            assert report.cells, (max_n, report.subject)


def test_conjecture_small():
    report = oracle.check_conjecture1(2, 8)
    assert report.passed
    cells = {c.cell for c in report.cells}
    assert cells == {"k=1,engines", "k=1,oracle", "k=2,engines", "k=2,oracle"}
    with pytest.raises(ValueError):
        oracle.check_conjecture1(0, 8)


def test_conjecture_k1_is_the_proved_case():
    from qmmp import gf

    assert gf.q132_0ke0(1, 9) == gf.q132_k0e0(1, 9)


def test_failure_carries_counterexample():
    report = oracle.verify("theorem-3", 4)
    fail = next(c for c in report.cells if c.status == "fail")
    assert "n=" in fail.detail and "zero-slot" in fail.detail


def _bumped(series, n):
    """``series`` with 1 added to its t^n coefficient."""
    return TSeries(p + IntPoly({0: 1}) if i == n else p for i, p in enumerate(series.coeffs))


def _fail_lines(report):
    return [line for line in report.lines() if "; fail; " in line]


def test_comparison_subjects_name_their_first_counterexample(monkeypatch):
    # one injected fault per family of two-distribution subjects, on the
    # engine side and on the oracle side of a comparison
    from qmmp import gf

    engine_series, q123_0k00, q132_kle0 = gf.engine_series, gf.q123_0k00, gf.q132_kle0

    def faulty_engine(avoid, spec, trunc, engine="auto"):
        series = engine_series(avoid, spec, trunc, engine)
        return _bumped(series, 5) if spec == QuadrantSpec(2, 1, EMPTY, 0) else series

    monkeypatch.setattr(gf, "engine_series", faulty_engine)
    assert _fail_lines(oracle.verify("theorem-7", 6)) == [
        "theorem-7; k=2,l=1; fail; n=5: got 24+16x+3x^2, expected 23+16x+3x^2"
    ]
    monkeypatch.setattr(gf, "engine_series", engine_series)

    def faulty_0k00(k, trunc):
        return _bumped(q123_0k00(k, trunc), 4) if k == 2 else q123_0k00(k, trunc)

    monkeypatch.setattr(gf, "q123_0k00", faulty_0k00)
    assert _fail_lines(oracle.verify("theorem-11", 6)) == [
        "theorem-11; specialized k=2; fail; n=4: got 2+9x+4x^2, expected 1+9x+4x^2"
    ]

    def faulty_kle0(k, ell, trunc):
        series = q132_kle0(k, ell, trunc)
        return _bumped(series, 5) if (k, ell) == (1, 2) else series

    monkeypatch.setattr(gf, "q132_kle0", faulty_kle0)
    assert _fail_lines(oracle.check_conjecture1(3, 7)) == [
        "conjecture-1; k=3,engines; fail; n=5: got 14+23x+5x^2, expected 15+23x+5x^2",
        "conjecture-1; k=3,oracle; fail; n=5 (1,k-1,e,0): got 15+23x+5x^2, expected 14+23x+5x^2",
    ]
    oracle_at = oracle._oracle_at

    faults = {(5, P132, QuadrantSpec(1, 0, EMPTY, 2)), (4, P132, QuadrantSpec(0, 2, 0, 1))}

    def perturbed(n, wanted):
        polys = oracle_at(n, wanted)
        for key in polys:
            if (n, *key) in faults:
                polys[key] = polys[key] + IntPoly({0: 1})
        return polys

    monkeypatch.setattr(oracle, "_oracle_at", perturbed)
    assert _fail_lines(oracle.verify("corollary-1", 6)) == [
        "corollary-1; k=1,l=0,m=2; fail; n=5 132 (k,l,e,m): got 15+23x+5x^2, expected 14+23x+5x^2"
    ]
    assert _fail_lines(oracle.verify("lemma-sym", 6)) == [
        "lemma-sym; spec=0,1,0,2; fail; n=4: got 12+2x, expected 13+2x",
        "lemma-sym; spec=1,0,e,2; fail; n=5: got 15+23x+5x^2, expected 14+23x+5x^2",
    ]


def test_band_rules_flag_each_failure_kind():
    # each theorem's predicate fails on the numbers built for each failure
    # kind and holds on numbers that meet every identity (r = k+l at the
    # edge), and each certificate refuses a band entry that breaks one of
    # its clauses alone
    pairs = ((1, 2), (0, 0), (3, 1))
    t12, t13 = oracle._theorem_12_holds, oracle._theorem_13_holds
    # (r, s, count) per pair at n = 9
    good13 = [(3, 3, 6), (0, 0, 9), (4, 4, 5)]
    good12 = [(2, 6, 3), (0, 0, 9), (1, 7, 2)]
    # each case breaks one clause for pair 0, (k, l) = (1, 2)
    cases = [
        (9, t13, good13, (4, 2, 7)),  # r > k+l
        (9, t13, good13, (1, 6, 3)),  # s != 2(k+l) - r
        (9, t13, good13, (1, 5, 5)),  # count != n - 2(k+l) + r
        (3, t13, [(2, 3, 0), (0, 0, 3), (1, 3, 0)], (2, 3, 1)),  # count != 0, n <= k+l
        (9, t12, good12, (1, 5, 3)),  # fast 4 != direct 3
    ]
    for n, holds, good, bad in cases:
        broken = [bad] + good[1:]
        for numbers in (good, broken):
            flagged = [not holds(n, k, ell, *xs) for (k, ell), xs in zip(pairs, numbers)]
            assert flagged == [numbers is broken, False, False], (holds, n, numbers)
    # (violated, R, C) for (k, l) = (1, 2) at n = 9 and at n = 3
    c12, c13 = oracle._theorem_12_certified, oracle._theorem_13_certified
    entry = (False, 3, 3)
    cases = [
        (c12, 9, 0, True),  # a violation
        (c13, 9, 0, True),  # a violation
        (c13, 3, 0, True),  # a violation, n <= k+l
        (c13, 3, 2, 2),  # a column off the column bands, n <= k+l
        (c13, 9, 1, 2),  # R != k+l
        (c13, 9, 2, 4),  # C != k+l
    ]
    for certified, n, clause, bad in cases:
        assert certified(n, 1, 2, *entry), (certified, n)
        broken = entry[:clause] + (bad,) + entry[clause + 1 :]
        assert not certified(n, 1, 2, *broken), (certified, n, broken)


def _rows_shifted_up(j, v, n, k, ell):
    # each row band one row higher: top k + 1 rows and bottom ell - 1 rows
    return v > n - k - 1 or v <= ell - 1, j <= k or j > n - ell


def _no_row_bands(j, v, n, k, ell):
    return False, j <= k or j > n - ell


def _no_column_bands_up_to_k_plus_l(j, v, n, k, ell):
    # refused by the theorem-13 certificate at n <= k+l, where the row bands
    # still fill the frame and no (0,k,0,l) match exists, so the theorems hold
    return v > n - k or v <= ell, n > k + ell and (j <= k or j > n - ell)


@pytest.mark.parametrize(
    "sid, failing, rule",
    [
        pytest.param("theorem-12", 6, swapped_row_bounds, id="theorem-12-6"),
        pytest.param("theorem-13", 12, swapped_row_bounds, id="theorem-13-12"),
        pytest.param("theorem-12", 9, _rows_shifted_up, id="theorem-12-shifted-9"),
        pytest.param("theorem-13", 16, _rows_shifted_up, id="theorem-13-shifted-16"),
        pytest.param("theorem-12", 8, _no_row_bands, id="theorem-12-no-rows-8"),
        pytest.param("theorem-13", 15, _no_row_bands, id="theorem-13-no-rows-15"),
        pytest.param("theorem-12", 0, _no_column_bands_up_to_k_plus_l, id="theorem-12-narrow-0"),
        pytest.param("theorem-13", 0, _no_column_bands_up_to_k_plus_l, id="theorem-13-narrow-0"),
    ],
)
def test_band_subjects_see_swapped_row_bounds(monkeypatch, sid, failing, rule):
    # the subjects report what the per-avoider reference does, with the true
    # bands and with each rebound rule, whose first counterexamples come from
    # the per-avoider fallback after the certificate refuses the pair
    assert oracle.verify(sid, 8).lines() == band_lines(sid, 8, mmp._bands)
    # the certificate walk and the per-avoider fallback (corner_frame_counts)
    # both read the rebound rule
    monkeypatch.setattr(mmp, "_bands", rule)
    report = oracle.verify(sid, 8)
    assert report.counts()[1] == failing
    assert report.lines() == band_lines(sid, 8, rule)


def test_verify_all_shape():
    reports = oracle.verify_all(4)
    assert [r.subject for r in reports] == list(oracle.subject_ids())
    failing = [r.subject for r in reports if not r.passed]
    # the refuted x^1 agreement is the only failing subject
    assert failing == ["theorem-3"]
    again = oracle.verify_all(4)
    assert [r.lines() for r in again] == [r.lines() for r in reports]


def _verify_all_matches_pinned_transcript():
    # The benchmark pins every line of `qmmp verify --subject all` at the
    # default depths, cell lines first and subject summaries last.
    pinned = json.loads((ROOT / "perfbench" / "reference" / "verify-all.json").read_text())
    reports = oracle.verify_all()
    lines = [line for report in reports for line in report.lines()]
    assert lines + [report.summary() for report in reports] == pinned["lines"]


def test_verify_all_matches_pinned_transcript():
    _verify_all_matches_pinned_transcript()


def test_default_depths_need_no_per_object_walk(monkeypatch):
    # the level passes certify every n of the bijection passes, and the band
    # certificates every pair of the band subjects, at the default depths; a
    # fallback that fired on every n would give the same lines
    def walked(*args):
        raise AssertionError("a per-object check ran")

    monkeypatch.setattr(oracle, "_path_failures", walked)
    monkeypatch.setattr(oracle, "_walk_failures", walked)
    monkeypatch.setattr(oracle, "avoiders", walked)
    monkeypatch.setattr(oracle, "corner_frame_counts", walked)
    _verify_all_matches_pinned_transcript()


def test_deep_verify_all_fails_only_theorem_3_x1():
    # at depth 14 every subject but theorem-3 passes, and theorem-3 fails
    # exactly its x^1 cells: the x^0 coefficients agree for every n
    reports = {r.subject: r for r in oracle.verify_all(14)}
    assert [sid for sid, r in reports.items() if not r.passed] == ["theorem-3"]
    cells = reports["theorem-3"].cells
    assert {c.cell[-3:] for c in cells} == {"x^0", "x^1"}
    for c in cells:
        assert c.status == ("pass" if c.cell.endswith("x^0") else "fail"), c


def test_drive_pools_each_n_and_releases_it(monkeypatch):
    # every subject waiting at the smallest n is served by one oracle call,
    # and the mapping a subject was sent is empty once the next step runs
    calls, kept = [], []
    oracle_at = oracle._oracle_at

    def recorded(n, wanted):
        calls.append((n, list(wanted)))
        return oracle_at(n, wanted)

    def subject(name, ns, spec):
        for n in ns:
            polys = yield n, [(P132, spec)]
            assert polys[P132, spec] == mmp.distribution(n, P132, spec)
            kept.append(polys)
        return name

    monkeypatch.setattr(oracle, "_oracle_at", recorded)
    a, b = QuadrantSpec(0, 1, 0, 0), QuadrantSpec(1, 0, EMPTY, 0)
    got = oracle._drive([subject("a", (2, 3), a), subject("none", (), a), subject("b", (3, 5), b)])
    assert got == ["a", "none", "b"]
    assert calls == [(2, [(P132, a)]), (3, [(P132, a), (P132, b)]), (5, [(P132, b)])]
    assert len(kept) == 4 and not any(kept)


SPECS_0123E = [QuadrantSpec(*c) for c in product((0, 1, 2, 3, EMPTY), repeat=4)]
_distribution = cache(mmp.distribution)


_bivariate = cache(mmp.bivariate_distribution)


@st.composite
def _mixed_requests(draw):
    # both classes, more than one walk's lanes of distinct specs each, and
    # peak / non-peak pairs, some keys asked for more than once, in any order
    distinct = [
        (tau, spec)
        for tau in (P123, P132)
        for spec in draw(st.lists(st.sampled_from(SPECS_0123E), min_size=97, max_size=150, unique=True))
    ]
    pairs = st.tuples(st.integers(0, 8), st.integers(0, 8))
    distinct += [(None, pair) for pair in draw(st.lists(pairs, max_size=30, unique=True))]
    repeats = draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=40))
    return draw(st.integers(0, 7)), draw(st.permutations(distinct + repeats))


@settings(max_examples=25, deadline=None)
@given(_mixed_requests())
def test_oracle_at_serves_each_distinct_request(asked):
    n, wanted = asked
    got = oracle._oracle_at(n, wanted)
    assert set(got) == set(wanted)
    for (tau, key), poly in got.items():
        assert poly == (_bivariate(n, *key) if tau is None else _distribution(n, tau, key))


def test_verify_all_walks_each_pooled_request_once(monkeypatch):
    # every oracle distribution of verify_all comes from _oracle_at, which
    # pools the subjects' requests of an n into one lane walk per class and
    # group of keys, each (n, class, spec) and each (n, pair) once
    walks, pooled, stray, open_calls, band_calls = [], [], [], [], []
    packed, distributions, oracle_at = mmp._packed_histogram, mmp.distributions, oracle._oracle_at
    band_values, bivariate = oracle._band_values, mmp.bivariate_distributions

    def counted(*args):
        if not band_calls:
            walks.append(args[0])
        return packed(*args)

    def banded(*args):
        # the band subjects' walks, counted exactly by the test below
        band_calls.append(args[0])
        try:
            return band_values(*args)
        finally:
            band_calls.pop()

    def requested(n, tau, specs):
        if not open_calls:
            stray.append(n)
        pooled.extend((n, tau.word, spec) for spec in specs)
        return distributions(n, tau, specs)

    def paired(n, pairs):
        if not open_calls:
            stray.append(n)
        pooled.extend((n, "pair", pair) for pair in pairs)
        return bivariate(n, pairs)

    def served(n, wanted):
        open_calls.append(n)
        try:
            return oracle_at(n, wanted)
        finally:
            open_calls.pop()

    monkeypatch.setattr(mmp, "_packed_histogram", counted)
    monkeypatch.setattr(mmp, "distributions", requested)
    monkeypatch.setattr(mmp, "bivariate_distributions", paired)
    monkeypatch.setattr(oracle, "_oracle_at", served)
    monkeypatch.setattr(oracle, "_band_values", banded)
    _verify_all_matches_pinned_transcript()
    assert not stray
    assert len(pooled) == len(set(pooled)) > 0
    # theorem-11's 28 pairs at each n <= 9
    assert sum(kind == "pair" for _, kind, _ in pooled) == 28 * 10
    # 548 walks when each distribution subject walked on its own, 208 when
    # the engine-vs-oracle subjects walked apart, 128 at up to 96 lanes a
    # walk, 80 since theorem-11's pairs of every k1 share walks, as _drive
    # serves them
    assert len(walks) <= 80


def test_negative_depth_is_rejected():
    # a negative depth checks no object: it must raise, not report PASS
    # (theorem-3 is refuted) or die inside a subject
    for sid in ("theorem-3", "theorem-7", "theorem-8", "lemma-p1-3", "conjecture-1"):
        with pytest.raises(ValueError, match="max_n must be nonnegative"):
            oracle.verify(sid, -1)
    with pytest.raises(ValueError, match="max_n must be nonnegative"):
        oracle.verify_all(-1)
    with pytest.raises(ValueError, match="trunc must be nonnegative"):
        oracle.check_conjecture1(4, -1)
    with pytest.raises(ValueError, match="trunc must be nonnegative"):
        oracle.brute_series(P132, QuadrantSpec(0, 1, 0, 0), -1)

def test_verify_all_equals_each_subject_alone():
    # the shared bijection passes and the pooled distribution walks of
    # verify_all change no report, at the default depths (None) too, the
    # n = 0 cells and lemma-p1-2's missing n = 0 cell included
    for m in (None, 0, 1, 3, 5, 6):
        grouped = oracle.verify_all(m)
        alone = [oracle.verify(sid, m) for sid in oracle.subject_ids()]
        assert [r.subject for r in grouped] == [r.subject for r in alone]
        for left, right in zip(grouped, alone):
            assert left.lines() == right.lines()
            assert left.summary() == right.summary()
    assert [c.cell for c in oracle.verify("lemma-p1-2", 1).cells] == ["n=1"]
    assert [c.cell for c in oracle.verify("lemma-p1-3", 0).cells] == ["n=0"]


def test_verify_all_runs_each_shared_pass_and_band_subject_once(monkeypatch):
    # the members of a shared pass share one registry function, which
    # verify_all drives once: the path and walk passes each certify n = 0..9
    # once, and the band subjects walk their avoiders once per n (n <= 8 for
    # theorem-12, n <= 10 for theorem-13); one member alone runs its pass once
    calls = dict.fromkeys(("_path_certified", "_walk_certified", "_band_values"), 0)

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)

        return call

    for name in calls:
        monkeypatch.setattr(oracle, name, counted(name, getattr(oracle, name)))
    oracle.verify_all()
    assert calls == {"_path_certified": 10, "_walk_certified": 10, "_band_values": 9 + 11}
    calls.update(dict.fromkeys(calls, 0))
    oracle.verify("lemma-p2-2")
    assert calls == {"_path_certified": 10, "_walk_certified": 0, "_band_values": 0}


BIJECTION_SUBJECTS = (
    "hill-correspondence",
    "lemma-p1-2",
    "lemma-p1-3",
    "lemma-p2-2",
    "lemma-p2-3",
    "match-preservation",
)


def _swap_last_two(column, fill):
    # the column step under ``fill`` only (one of the two inverse maps), with
    # the values of the last two columns exchanged: the next-to-last column
    # takes the value left over for the last, and the last the other one
    def swapped(used, down, corner, n, f):
        v = column(used, down, corner, n, f)
        free = (1 << n + 1) - 2 & ~used
        if f is fill and used.bit_count() == n - 2:
            return (free ^ 1 << v).bit_length() - 1
        return free.bit_length() - 1 if f is fill and used.bit_count() == n - 1 else v

    return swapped


def _swap_phi(column):
    return _swap_last_two(column, dyck._lowest_free)


def _swap_psi(column):
    return _swap_last_two(column, dyck._highest_free)


def _one_peak(_stair):
    # the first column takes every D step and no later column takes any, so
    # every staircase is D^n R^n
    return lambda height, v: (height, 0)


@pytest.mark.parametrize(
    "name, corrupt, failing",
    [
        ("_column", _swap_phi, {"lemma-p1-3", "match-preservation"}),
        ("_column", _swap_psi, {"lemma-p2-2", "lemma-p2-3", "match-preservation"}),
        ("_stair", _one_peak, {"lemma-p1-2", "hill-correspondence"}),
    ],
)
def test_bijection_subjects_see_a_corrupted_map(monkeypatch, name, corrupt, failing):
    # a rule rebound on the dyck module after import is what every member of
    # its pass checks, run alone or together with the other members
    monkeypatch.setattr(dyck, name, corrupt(getattr(dyck, name)))
    alone = {sid: oracle.verify(sid, 6) for sid in BIJECTION_SUBJECTS}
    grouped = {r.subject: r for r in oracle.verify_all(6) if r.subject in BIJECTION_SUBJECTS}
    for reports in (alone, grouped):
        assert {sid for sid, r in reports.items() if not r.passed} == failing
    for sid in BIJECTION_SUBJECTS:
        assert alone[sid].lines() == grouped[sid].lines()
    if name == "_column":
        # the public inverse runs the same corrupted step: (1, 2, 3) and
        # (1, 3, 2) are phi_inv and psi_inv of DDDRRR
        phi_side = corrupt is _swap_phi
        inverse = dyck.phi_inv if phi_side else dyck.psi_inv
        assert inverse(dyck.DyckPath("DDDRRR")).word == ((1, 3, 2) if phi_side else (1, 2, 3))
    else:
        # so does the public forward map
        assert dyck.phi(Permutation((2, 1, 3))).word == "DDDRRR"


def test_path_words_are_the_direct_generator():
    # the fallback's words, D before R, in the order of the reference
    for n in range(11):
        assert tuple(oracle._path_words(n)) == all_path_words(n)


def test_definitional_failures_pass_every_true_image():
    # every path word's true images pass each path check, and every
    # 132-avoider passes each walk check from its first n on, n <= 7
    for n in range(8):
        for word in all_path_words(n):
            path = dyck.DyckPath(word)
            images = [
                (p.word, quadrant_rows(p.word)) for p in (dyck.phi_inv(path), dyck.psi_inv(path))
            ]
            for image, failure in oracle._PATH_CHECKS.values():
                assert failure(word, *images[image]) is None, (word, failure)
        for sigma in avoiders(n, P132):
            count = mmp_count(sigma, QuadrantSpec(EMPTY, 0, EMPTY, 0))
            path_stats = dyck.stats(dyck.phi(sigma))
            for first, failure in oracle._WALK_CHECKS.values():
                if first <= n:
                    assert failure(sigma.word, count, path_stats) is None, (sigma, failure)


def test_path_images_take_corners_as_their_left_to_right_minima():
    # the premise of the path certificate's match-preservation proof, from
    # the definitions: on both images of every path word, n <= 10, the column
    # at entry i + 1 after `below` D steps has q2 = i and q1 = below - i - 1
    # if it is a corner, and q2 < i otherwise
    for n in range(11):
        for word in all_path_words(n):
            runs = [len(run) for run in word.split("R")[:-1]]
            for fill in (dyck._lowest_free, dyck._highest_free):
                below = 0
                for i, (run, q) in enumerate(zip(runs, quadrant_rows(dyck._place(word, n, fill)))):
                    below += run
                    if run:
                        assert q[:2] == (below - i - 1, i), (word, fill, i)
                    else:
                        assert q[1] < i, (word, fill, i)


def test_definitional_failures_name_a_bad_input():
    rows = quadrant_rows((1, 2, 3))
    # (1, 2, 3) is no psi image: its non-peaks 2 and 3 increase
    assert oracle._two_decreasing_failure("DDDRRR", (1, 2, 3), rows) == (
        "path=DDDRRR sigma=123: peaks=[1], non-peaks=[2, 3]"
    )
    # DRDDRR's first peak is a hill, but 1 has 2 points in quadrant I
    assert oracle._diag_failure("DRDDRR", (1, 2, 3), rows) == (
        "path=DRDDRR sigma=123 column=1: diagonal 0, quadrant-I 2"
    )
    # its first return is at column 1 and its one hill there, which the
    # 132-avoider 231 and a count of no matches do not meet
    path_stats = dyck.stats(dyck.DyckPath("DRDDRR"))
    assert oracle._first_return_failure((2, 3, 1), 0, path_stats) == (
        "sigma=231: position of n is 2, first return 1"
    )
    assert oracle._hill_failure((2, 3, 1), 0, path_stats) == "sigma=231: matches=0, hills=1"


def test_path_walk_raises_on_a_fill_that_reuses_a_value(monkeypatch):
    monkeypatch.setattr(dyck, "_lowest_free", lambda used, level, n: n)
    with pytest.raises(ValueError, match="each of 1..3 once"):
        oracle.verify("lemma-p1-3", 3)


def _reuse_top(_lowest_free):
    # the phi fill of the test above, which takes n every time
    return lambda used, level, n: n


def _all_highest(column):
    # every column of both images takes the highest free value: only the
    # corners' diagonals are wrong
    return lambda used, down, corner, n, fill: dyck._highest_free(used, n - down + 1, n)


def _phi_fill_both(column):
    # both images take phi's fill, so the psi image is the phi image: only
    # lemma-p2-2's decreasing non-peaks fail
    return lambda used, down, corner, n, fill: column(used, down, corner, n, dyck._lowest_free)


def _short_at_three(_stair):
    # at height 3 the new minimum 1 takes the path down two rows, not three:
    # only first returns are wrong
    return lambda height, v: (2, 1) if (height, v) == (3, 1) else _stair(height, v)


def _path_found(n):
    failed, matched = oracle._path_failures(n)
    return [*failed.values(), *matched.values()]


def _walk_found(n):
    return list(oracle._walk_failures(n).values())


def _finds_nothing(found, n):
    try:
        return not any(found(n))
    except ValueError:
        return False


@pytest.mark.parametrize(
    "name, corrupt",
    [
        (None, None),
        ("_column", _swap_phi),
        ("_column", _swap_psi),
        ("_stair", _one_peak),
        ("_lowest_free", _reuse_top),
        ("_column", _all_highest),
        ("_column", _phi_fill_both),
        ("_stair", _short_at_three),
    ],
)
def test_level_passes_certify_exactly_the_passing_sizes(monkeypatch, name, corrupt):
    # for each n <= 7 a level pass certifies n exactly when the definitional
    # check of every object of that n finds no failure and raises nothing.
    # _phi_fill_both and _short_at_three each break one check alone (psi's
    # decreasing non-peaks, first returns), so a certificate without it fails.
    # _all_highest breaks the corner diagonals, but not alone: it makes every
    # column a left-to-right minimum, so the path certificate's non-corner
    # check (q2 = i) refuses the same n; _first_at_one, in
    # test_path_certificate_needs_its_corner_and_range_checks, is the rule
    # that breaks the corner check alone
    if name:
        monkeypatch.setattr(dyck, name, corrupt(getattr(dyck, name)))
    for n in range(8):
        assert oracle._path_certified(n) == _finds_nothing(_path_found, n), n
        assert oracle._walk_certified(n) == _finds_nothing(_walk_found, n), n


def _first_at_one(column):
    # phi's first column takes 1 and every later column phi's fill, so each
    # value is placed once and no later column is a left-to-right minimum:
    # only the corners' tallies are wrong
    def rule(used, down, corner, n, fill):
        if fill is not dyck._lowest_free:
            return column(used, down, corner, n, fill)
        return fill(used, n - down + 1, n) if used else 1

    return rule


def _past_n(column):
    # phi's last column, when it is not a corner, takes n + 1, a value that
    # is unused and not a left-to-right minimum: only the range is wrong
    def rule(used, down, corner, n, fill):
        if fill is dyck._lowest_free and not corner and used.bit_count() == n - 1:
            return n + 1
        return column(used, down, corner, n, fill)

    return rule


@pytest.mark.parametrize("corrupt", [_first_at_one, _past_n])
def test_path_certificate_needs_its_corner_and_range_checks(monkeypatch, corrupt):
    # each rule breaks one check of the path certificate's step alone
    # (_first_at_one the corner's q2 and q1 together, _past_n the range
    # 1..n), so a certificate without
    # it would certify n >= 2; the corner's q2 check alone, its q1 check
    # alone and the non-corner check each follow from the other checks at
    # the same n, so no rule breaks one of them alone
    monkeypatch.setattr(dyck, "_column", corrupt(dyck._column))
    for n in range(8):
        assert oracle._path_certified(n) == _finds_nothing(_path_found, n) == (n < 2), n


def test_path_certificate_reaches_depth_14_in_little_memory():
    # each image's level pass holds one image's prefix states, not the joint
    # states of both, so the largest level stays small
    assert all(oracle._path_certified(n) for n in range(15))
    tracemalloc.start()
    try:
        oracle._path_certified(12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_walk_certificate_checks_each_move_for_a_hill(monkeypatch):
    # with (e,0,e,0) rebound to (e,0,0,0), the values with no later larger
    # one, only hill-correspondence fails (from n = 2), so only the walk
    # certificate's hill check can see it
    monkeypatch.setattr(oracle, "_HILL_SPEC", QuadrantSpec(EMPTY, 0, 0, 0))
    for n in range(8):
        assert oracle._walk_certified(n) == _finds_nothing(_walk_found, n) == (n < 2), n
    assert [r.passed for r in oracle._walk_pass(7).values()] == [True, False]


def test_column_rule_rejects_a_fill_that_reuses_a_value():
    # a fill that returns a value already placed leaves a value of 1..n
    # unplaced, and the rule raises instead of passing a non-permutation on
    assert dyck._place("DDRR", 2, dyck._lowest_free) == (1, 2)
    with pytest.raises(ValueError, match="each of 1..2 once"):
        dyck._place("DDRR", 2, lambda used, level, n: 1)
    with pytest.raises(ValueError, match="each of 1..3 once"):
        dyck._place("DDDRRR", 3, lambda used, level, n: used.bit_length() - 1)
