"""Acceptance suite: one test per acceptance criterion, exact comparisons only.

Each test prints a single ``criterion N: PASS/FAIL`` line (visible with
``pytest -s``) and enforces the stated runtime budget.

Criterion 7 asserts what is proved about the ``theorem-3`` subject, which
compares the ``(k,l,e,m)`` and ``(k,l,0,m)`` distributions over 132-avoiders.
For all k, l, m >= 0:

(i)   every empty-slot match is a zero-slot match, and a permutation with a
      zero-slot match has an empty-slot match (the smallest entry left of a
      zero-slot match that is not a left-to-right minimum is one), so the x^0
      coefficients agree for every n;
(ii)  hence the x^1 coefficients satisfy empty-slot >= zero-slot; they are
      equal for n < k+l+m+2, since a second zero-slot match is not a
      left-to-right minimum, so besides its own k + l + m quadrant entries
      it has the empty-slot match to its lower left;
(iii) at n = k+l+m+2 they differ: ``theorem_3_witness`` builds a 132-avoider
      with one empty-slot match and two zero-slot matches.

So the subject's x^0 cells pass and its x^1 cells fail, each with its first
counterexample at exactly n = k+l+m+2 (the x^1 agreement is a recorded
erratum in ``gf.KNOWN_ERRATA``).  The criterion checks that exact shape: a
distribution that treated EMPTY as 0 would make every x^1 cell agree and
fail it.
"""

import random
import re
import time
from contextlib import contextmanager

from qmmp import cli, gf, oracle
from qmmp.dyck import DyckPath, lift, phi, phi_inv, psi, psi_inv, stats
from qmmp.mmp import EMPTY, QuadrantSpec, distribution, mmp_count, quadrants_at
from qmmp.perm import P123, P132, Permutation, avoiders, occurs
from qmmp.series import catalan, narayana

from path_words import all_path_words
from reference_series import REFERENCE


@contextmanager
def criterion(num, budget=None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget is not None and elapsed >= budget:
            raise AssertionError(f"runtime {elapsed:.1f}s exceeded the {budget}s budget")
    except BaseException:
        print(f"criterion {num}: FAIL ({time.perf_counter() - start:.1f}s)")
        raise
    print(f"criterion {num}: PASS ({elapsed:.1f}s)")


def parse_poly_text(text):
    out = {}
    if text == "0":
        return out
    for term in text.split("+"):
        m = re.fullmatch(r"(\d+)?(?:x(?:\^(\d+))?)?", term)
        assert m, term
        out[int(m.group(2) or (1 if "x" in term else 0))] = int(m.group(1) or 1)
    return out


def parse_table(text):
    out = {}
    for line in text.strip().splitlines():
        head, _, poly = line.partition(": ")
        out[int(head[2:])] = parse_poly_text(poly)
    return out


GOLDEN_PATH = "DDRDDRRRDDRDRDRRDR"


def test_criterion_1_golden_bijections():
    with criterion(1):
        s132 = Permutation.parse("867943251")
        s123 = Permutation.parse("869743251")
        # warm-up so the timings measure the mappings, not import costs
        phi(s132), psi(s123), psi_inv(lift(psi(s123)))

        start = time.perf_counter()
        path = phi(s132)
        phi_elapsed = time.perf_counter() - start
        assert path.word == GOLDEN_PATH

        start = time.perf_counter()
        path = psi(s123)
        psi_elapsed = time.perf_counter() - start
        assert path.word == GOLDEN_PATH

        start = time.perf_counter()
        lifted = psi_inv(lift(psi(s123)))
        lift_elapsed = time.perf_counter() - start
        assert lifted.word == (8, 6, 10, 9, 4, 3, 2, 7, 1, 5)

        for elapsed in (phi_elapsed, psi_elapsed, lift_elapsed):
            assert elapsed < 1e-3, f"{elapsed * 1000:.3f} ms"


def test_criterion_2_roundtrips_and_path_lemmas():
    with criterion(2, budget=10):
        for n in range(10):
            images = set()
            for sigma in avoiders(n, P132):
                path = phi(sigma)
                assert phi_inv(path) == sigma
                images.add(path.word)
            assert len(images) == catalan(n)
            images = set()
            for sigma in avoiders(n, P123):
                path = psi(sigma)
                assert psi_inv(path) == sigma
                images.add(path.word)
            assert len(images) == catalan(n)
        for sid in ("lemma-p1-2", "lemma-p1-3", "lemma-p2-2", "lemma-p2-3"):
            report = oracle.verify(sid, 9)
            assert report.passed, report.summary()


def test_criterion_3_table_reproduction(tmp_path):
    with criterion(3, budget=60):
        out = tmp_path / "tables"
        names = cli.write_paper_tables(out)
        for (avoid, spec_str), data in sorted(REFERENCE.items()):
            file_name = cli.table_file_name(avoid, QuadrantSpec.parse(spec_str))
            assert file_name in names
            table = parse_table((out / file_name).read_text())
            for n, coeffs in sorted(data.items()):
                assert table[n] == coeffs, (avoid, spec_str, n)
        # named spotlights
        deep = parse_table((out / "Q_132_33e3.txt").read_text())
        assert deep[13] == {0: 265047, 1: 273660, 2: 163720, 3: 38169, 4: 2304}
        hills = parse_table((out / "Q_132_e0e0.txt").read_text())
        assert [hills[n].get(0, 0) for n in range(10)] == [1, 0, 1, 2, 6, 18, 57, 186, 622, 2120]
        k5 = parse_table((out / "Q_123_0500.txt").read_text())
        assert k5[13] == {3: 440, 4: 11340, 5: 89180, 6: 273000, 7: 308880, 8: 60060}
        # byte-stable regeneration
        out2 = tmp_path / "tables2"
        cli.write_paper_tables(out2)
        for name in names:
            assert (out / name).read_bytes() == (out2 / name).read_bytes()


def test_criterion_4_engines_vs_oracle():
    with criterion(4, budget=300):
        for sid in ("theorem-2", "theorem-6", "theorem-7", "theorem-8",
                    "theorem-9", "theorem-10", "theorem-11"):
            report = oracle.verify(sid, 9)
            assert report.passed, report.summary()


def test_criterion_5_closed_coefficient_theorems():
    with criterion(5, budget=120):
        assert catalan(12) == 208012
        for sid in ("theorem-14", "theorem-15", "theorem-16", "theorem-17", "theorem-18"):
            report = oracle.verify(sid, 12)
            assert report.passed, report.summary()


def test_criterion_6_extremal_coefficients():
    with criterion(6, budget=120):
        for sid in ("theorem-4", "corollary-4", "theorem-04", "corollary-04",
                    "corollary-05", "theorem-004", "theorem-0004"):
            report = oracle.verify(sid, 9)
            assert report.passed, report.summary()


def theorem_3_witness(k, ell, m):
    """The 132-avoider of length k+l+m+2 with one (k,l,e,m) and two (k,l,0,m) matches.

    The l largest values in decreasing order, then m+1, m+2, then m+3 .. m+k+2
    in increasing order, then m .. 1 in decreasing order: only m+1 is an
    empty-slot match, and m+1 and m+2 are the zero-slot matches.
    """
    n = k + ell + m + 2
    return Permutation(
        tuple(range(n, n - ell, -1))
        + (m + 1, m + 2)
        + tuple(range(m + 3, m + k + 3))
        + tuple(range(m, 0, -1))
    )


def test_criterion_7_equality_theorems():
    with criterion(7, budget=180):
        report = oracle.verify("corollary-1", 9)
        assert report.passed, report.summary()

        max_n = 9
        report = oracle.verify("theorem-3", max_n)
        cells = {c.cell: c for c in report.cells}
        grid = [(k, ell, m) for k in range(3) for ell in range(3) for m in range(3)]
        assert len(cells) == len(report.cells) == 2 * len(grid), report.summary()
        first = {}
        for k, ell, m in grid:
            name = f"k={k},l={ell},m={m}"
            # bound (i): the x^0 coefficients agree at every depth
            x0 = cells[f"{name},x^0"]
            assert x0.status == "pass", (x0.cell, x0.detail)
            # bounds (ii) and (iii): the x^1 coefficients first differ at
            # exactly n = k+l+m+2, with the empty-slot one the larger
            x1 = cells[f"{name},x^1"]
            assert x1.status == "fail", (x1.cell, x1.detail)
            found = re.fullmatch(r"n=(\d+): empty-slot (\d+), zero-slot (\d+)", x1.detail)
            assert found, (x1.cell, x1.detail)
            n, empty_slot, zero_slot = map(int, found.groups())
            assert n == k + ell + m + 2 and empty_slot > zero_slot, (x1.cell, x1.detail)
            first[name] = (n, str(empty_slot), str(zero_slot))
            # bound (ii) past the first divergence: empty-slot >= zero-slot
            for deeper in range(n + 1, max_n + 1):
                empty_slot = distribution(deeper, P132, QuadrantSpec(k, ell, EMPTY, m)).coeff(1)
                zero_slot = distribution(deeper, P132, QuadrantSpec(k, ell, 0, m)).coeff(1)
                assert empty_slot >= zero_slot, (name, deeper, empty_slot, zero_slot)
            # bound (iii): the hand-built witness
            sigma = theorem_3_witness(k, ell, m)
            assert sigma.n == k + ell + m + 2 and not occurs(P132, sigma), sigma
            assert mmp_count(sigma, QuadrantSpec(k, ell, EMPTY, m)) == 1, sigma
            assert mmp_count(sigma, QuadrantSpec(k, ell, 0, m)) == 2, sigma

        record = next(r for r in gf.KNOWN_ERRATA if r.subject == "theorem-3")
        assert (record.parameters, record.exponent) == ("k=0,l=0,m=0", "1")
        assert first[record.parameters] == (
            record.n, record.stated_value, record.oracle_value
        ), record.line()


def test_criterion_8_conjecture_report():
    with criterion(8):
        report = oracle.check_conjecture1(k_max=4, trunc=11)
        for line in report.lines():
            print(line)
        proven = [c for c in report.cells if not c.cell.startswith("k=4")]
        assert all(c.status == "pass" for c in proven), report.summary()
        k4 = [c for c in report.cells if c.cell.startswith("k=4")]
        assert k4, "k=4 must be checked and reported"
        for cell in k4:
            if cell.status == "fail":
                print(f"finding (reportable, not a build failure): {cell.cell}: {cell.detail}")


def test_criterion_9_property_suite():
    with criterion(9):
        trunc = 8
        engines = [gf.q132_k0e0(k, trunc) for k in range(4)]
        engines += [gf.q132_0ke0(k, trunc) for k in range(4)]
        engines += [gf.q132_kle0(k, ell, trunc) for k in (1, 2) for ell in (1, 2)]
        engines += [gf.q132_0kel(k, ell, trunc) for k in (1, 2) for ell in (1, 2)]
        engines += [gf.q132_akel(a, k, ell, trunc) for a in (1, 2) for k in (1, 2) for ell in (1,)]
        engines += [gf.q132_ekel(k, ell, trunc) for k in (0, 1, 2) for ell in (0, 1)]
        engines += [gf.q123_0k00(k, trunc) for k in range(4)]
        engines += [gf.q123_bivariate(k1, k2, trunc) for k1 in (0, 1, 2) for k2 in (0, 1)]
        engines += [
            gf.closed_series_123(QuadrantSpec(0, k, 0, ell), trunc)
            for k, ell in ((1, 0), (2, 0), (1, 1), (2, 1), (2, 2))
        ]
        engines.append(gf.transport_123(QuadrantSpec(1, 1, 0, 1), trunc))
        for series in engines:
            for n in range(trunc + 1):
                assert series.poly(n).mass() == catalan(n)

        rng = random.Random(20260808)
        for _ in range(10_000):
            n = rng.randint(1, 12)
            word = list(range(1, n + 1))
            rng.shuffle(word)
            sigma = Permutation(tuple(word))
            i = rng.randint(1, n)
            assert sum(quadrants_at(sigma, i)) == n - 1

        for n in range(10):
            hist = {}
            for word in all_path_words(n):
                p = len(stats(DyckPath(word)).peaks)
                hist[p] = hist.get(p, 0) + 1
            expect = {0: 1} if n == 0 else {p: narayana(n, p) for p in range(1, n + 1)}
            assert hist == expect
