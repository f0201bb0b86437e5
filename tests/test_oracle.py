import json
from pathlib import Path

import pytest

from qmmp import dyck, oracle
from qmmp.mmp import EMPTY, QuadrantSpec
from qmmp.perm import P123, P132, Permutation
from qmmp.series import IntPoly, catalan

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


def test_verify_all_shape():
    reports = oracle.verify_all(4)
    assert [r.subject for r in reports] == list(oracle.subject_ids())
    failing = [r.subject for r in reports if not r.passed]
    # the refuted x^1 agreement is the only failing subject
    assert failing == ["theorem-3"]
    again = oracle.verify_all(4)
    assert [r.lines() for r in again] == [r.lines() for r in reports]


def test_verify_all_matches_pinned_transcript():
    # The benchmark pins every line of `qmmp verify --subject all` at the
    # default depths, cell lines first and subject summaries last.
    pinned = json.loads((ROOT / "perfbench" / "reference" / "verify-all.json").read_text())
    reports = oracle.verify_all()
    lines = [line for report in reports for line in report.lines()]
    assert lines + [report.summary() for report in reports] == pinned["lines"]


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


def _swap_first_two(inverse):
    def swapped(path):
        word = inverse(path).word
        return Permutation(word[1::-1] + word[2:])

    return swapped


def _one_peak(_staircase):
    return lambda sigma: "D" * sigma.n + "R" * sigma.n


@pytest.mark.parametrize(
    "name, corrupt, failing",
    [
        ("phi_inv", _swap_first_two, {"lemma-p1-3", "match-preservation"}),
        ("psi_inv", _swap_first_two, {"lemma-p2-2", "lemma-p2-3", "match-preservation"}),
        ("_staircase", _one_peak, {"lemma-p1-2", "hill-correspondence"}),
    ],
)
def test_bijection_subjects_see_a_corrupted_map(monkeypatch, name, corrupt, failing):
    # a map rebound on the dyck module after import is what every member of
    # its pass checks, run alone or together with the other members
    monkeypatch.setattr(dyck, name, corrupt(getattr(dyck, name)))
    alone = {sid: oracle.verify(sid, 6) for sid in BIJECTION_SUBJECTS}
    grouped = {r.subject: r for r in oracle.verify_all(6) if r.subject in BIJECTION_SUBJECTS}
    for reports in (alone, grouped):
        assert {sid for sid, r in reports.items() if not r.passed} == failing
    for sid in BIJECTION_SUBJECTS:
        assert alone[sid].lines() == grouped[sid].lines()
