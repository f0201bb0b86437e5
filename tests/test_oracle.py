import json
from pathlib import Path

import pytest

from qmmp import dyck, oracle
from qmmp.mmp import EMPTY, QuadrantSpec, mmp_count, quadrant_rows
from qmmp.perm import P123, P132, Permutation, avoiders
from qmmp.series import IntPoly, catalan

from band_reference import band_lines
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


def _band_total(fields, numbers):
    """A walk total built field by field from each pair's (r, s, count)."""
    total = 0
    for p, (r, s, count) in enumerate(numbers):
        for f, x in enumerate((r, r + s, count + s, count)):
            total += x << (4 * p + f) * fields.width
    return total


def _band_unpack(fields, total, p):
    r, x, _, count = ((total >> (4 * p + f) * fields.width) & fields.ones for f in range(4))
    return r, x - r, count


def test_band_rules_flag_each_failure_kind():
    # the theorem-12/13 leaf checks: a total built for each failure kind is
    # flagged by the joint rule and by the failing pair's rule alone, a total
    # that holds every identity (r = k+l at the guard's edge) passes, and
    # every total decodes to the numbers it was built from
    pairs = [(1, 2), (0, 0), (3, 1)]
    big, small = oracle._BandFields(pairs, 9), oracle._BandFields(pairs, 3)
    t12, t13 = oracle._BandFields.theorem_12, oracle._BandFields.theorem_13
    # (r, s, count) per pair at n = 9
    holds13 = [(3, 3, 6), (0, 0, 9), (4, 4, 5)]
    holds12 = [(2, 6, 3), (0, 0, 9), (1, 7, 2)]
    # each case breaks pair 0, (k, l) = (1, 2)
    cases = [
        (big, t13, holds13, (4, 2, 7)),  # r > k+l
        (big, t13, holds13, (1, 6, 3)),  # s != 2(k+l) - r
        (big, t13, holds13, (1, 5, 5)),  # count != n - 2(k+l) + r
        (small, t13, [(2, 3, 0), (0, 0, 3), (1, 3, 0)], (2, 3, 1)),  # count != 0, n <= k+l
        (big, t12, holds12, (1, 5, 3)),  # fast 4 != direct 3
    ]
    for fields, rule_of, holds, bad in cases:
        rules = [rule_of(fields, p) for p in range(len(pairs))]
        offset, mask, expect = oracle._joint(rules)
        for numbers in (holds, [bad] + holds[1:]):
            total = _band_total(fields, numbers)
            flagged = [(total + o) & m != e for o, m, e in rules]
            assert flagged == [numbers[0] == bad, False, False], (rule_of, numbers)
            assert ((total + offset) & mask != expect) == flagged[0]
            for p, want in enumerate(numbers):
                assert fields.numbers(total, p) == _band_unpack(fields, total, p) == want


def _swapped_row_bounds(j, v, n, k, ell):
    # the theorem-12 erratum's row bands: top ell rows and bottom k rows
    column = j <= k or j > n - ell
    row = v > n - ell or v <= k
    return row and column, row or column


@pytest.mark.parametrize("sid, failing", [("theorem-12", 6), ("theorem-13", 12)])
def test_band_subjects_see_swapped_row_bounds(monkeypatch, sid, failing):
    # the subjects report what the per-avoider reference does, with the true
    # bands and with the erratum's, whose first counterexamples come from the
    # per-avoider walk after the distinct totals fail
    assert oracle.verify(sid, 8).lines() == band_lines(sid, 8, oracle._bands)
    monkeypatch.setattr(oracle, "_bands", _swapped_row_bounds)
    report = oracle.verify(sid, 8)
    assert report.counts()[1] == failing
    assert report.lines() == band_lines(sid, 8, _swapped_row_bounds)


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
    # the level passes certify every n of the bijection passes at the default
    # depths; a fallback that fired on every n would give the same lines
    def walked(*args):
        raise AssertionError("a per-object check ran")

    monkeypatch.setattr(oracle, "_path_failures", walked)
    monkeypatch.setattr(oracle, "_walk_failures", walked)
    _verify_all_matches_pinned_transcript()



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
    # the shared bijection passes of verify_all change no report, the n = 0
    # cells and lemma-p1-2's missing n = 0 cell included
    for m in (0, 1, 5):
        grouped = oracle.verify_all(m)
        alone = [oracle.verify(sid, m) for sid in oracle.subject_ids()]
        assert [r.subject for r in grouped] == [r.subject for r in alone]
        for left, right in zip(grouped, alone):
            assert left.lines() == right.lines()
            assert left.summary() == right.summary()
    assert [c.cell for c in oracle.verify("lemma-p1-2", 1).cells] == ["n=1"]
    assert [c.cell for c in oracle.verify("lemma-p1-3", 0).cells] == ["n=0"]


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
    # check of every object of that n finds no failure and raises nothing; the
    # last three rules each break one check alone (corner diagonals, psi's
    # decreasing non-peaks, first returns), so a certificate without it fails
    if name:
        monkeypatch.setattr(dyck, name, corrupt(getattr(dyck, name)))
    for n in range(8):
        assert oracle._path_certified(n) == _finds_nothing(_path_found, n), n
        assert oracle._walk_certified(n) == _finds_nothing(_walk_found, n), n


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
