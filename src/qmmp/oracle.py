"""Brute-force ground truth and the verification harness.

The oracle side of every comparison is direct enumeration through
:mod:`qmmp.perm` and :mod:`qmmp.mmp` only; it never touches the series or
engine code paths, which is what makes an engine-vs-oracle pass meaningful
evidence.  Each verification *subject* checks one implemented identity over
an explicit parameter grid and reports one cell per grid point, carrying a
concrete counterexample whenever a cell fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable

from . import dyck, gf
from .mmp import (
    EMPTY,
    QuadrantSpec,
    _corner_frame_counts,
    _fast_mmp_0k0l,
    bivariate_distribution,
    distribution,
    mmp_count,
    quadrants_at,
)
from .perm import P123, P132, Permutation, avoiders
from .series import TSeries


def class_from_text(text: str) -> Permutation:
    """Map "123"/"132" to the corresponding pattern permutation."""
    if text == "123":
        return P123
    if text == "132":
        return P132
    raise ValueError(f"unsupported avoidance class {text!r}: only 123 and 132")


def brute_series(tau: Permutation, spec: QuadrantSpec, trunc: int) -> TSeries:
    """Match-count series computed by direct enumeration of the avoidance class."""
    return TSeries([distribution(n, tau, spec) for n in range(trunc + 1)])


@lru_cache(maxsize=None)
def _all_path_words(n: int) -> tuple[str, ...]:
    """Every balanced word of semilength n, generated directly (no bijections)."""
    words: list[str] = []
    prefix: list[str] = []

    def rec(down: int, right: int) -> None:
        if down == n and right == n:
            words.append("".join(prefix))
            return
        if down < n:
            prefix.append("D")
            rec(down + 1, right)
            prefix.pop()
        if right < down:
            prefix.append("R")
            rec(down, right + 1)
            prefix.pop()

    rec(0, 0)
    return tuple(words)


def _rows(sigma: Permutation) -> tuple[tuple[int, int, int, int], ...]:
    return tuple(quadrants_at(sigma, i) for i in range(1, sigma.n + 1))


def _count_rows(rows, spec: QuadrantSpec) -> int:
    conds = tuple(enumerate(spec.coords))
    total = 0
    for q in rows:
        for s, cond in conds:
            if (q[s] != 0) if cond is EMPTY else (q[s] < cond):
                break
        else:
            total += 1
    return total


# ---------------------------------------------------------------------------
# Reports


@dataclass(frozen=True)
class CellResult:
    cell: str
    status: str  # "pass" | "fail" | "skip"
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    subject: str
    cells: tuple[CellResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.cells)

    def counts(self) -> tuple[int, int, int]:
        p = sum(1 for c in self.cells if c.status == "pass")
        f = sum(1 for c in self.cells if c.status == "fail")
        s = sum(1 for c in self.cells if c.status == "skip")
        return (p, f, s)

    def lines(self) -> list[str]:
        return [f"{self.subject}; {c.cell}; {c.status}; {c.detail}" for c in self.cells]

    def summary(self) -> str:
        p, f, s = self.counts()
        verdict = "PASS" if f == 0 else "FAIL"
        return f"{self.subject}: {verdict} ({p} pass, {f} fail, {s} skipped)"


class _Cells:
    """Accumulates one cell per grid point, recording the first counterexample."""

    def __init__(self) -> None:
        self.cells: list[CellResult] = []

    def check(self, cell: str, failures: list[str], scope: str = "") -> None:
        if failures:
            self.cells.append(CellResult(cell, "fail", failures[0]))
        else:
            self.cells.append(CellResult(cell, "pass", scope))

    def skip(self, cell: str, reason: str) -> None:
        self.cells.append(CellResult(cell, "skip", reason))

    def report(self, subject: str) -> VerificationReport:
        return VerificationReport(subject, tuple(self.cells))


def _poly_eq(failures: list[str], label: str, got, want) -> None:
    if got != want:
        failures.append(f"{label}: got {got.render()}, expected {want.render()}")


# ---------------------------------------------------------------------------
# Subjects


def _subject_corollary_1(max_n: int) -> VerificationReport:
    cells = _Cells()
    for k in range(1, 3):
        for ell in range(3):
            for m in range(3):
                failures: list[str] = []
                for n in range(max_n + 1):
                    base = distribution(n, P123, QuadrantSpec(k, ell, 0, m))
                    variants = (
                        ("123 (k,l,e,m)", distribution(n, P123, QuadrantSpec(k, ell, EMPTY, m))),
                        ("132 (k,l,e,m)", distribution(n, P132, QuadrantSpec(k, ell, EMPTY, m))),
                        ("123 (0,m,k,l)", distribution(n, P123, QuadrantSpec(0, m, k, ell))),
                        ("123 (e,m,k,l)", distribution(n, P123, QuadrantSpec(EMPTY, m, k, ell))),
                    )
                    for label, poly in variants:
                        _poly_eq(failures, f"n={n} {label}", poly, base)
                cells.check(f"k={k},l={ell},m={m}", failures, f"n<={max_n}")
    return cells.report("corollary-1")


def _subject_theorem_3(max_n: int) -> VerificationReport:
    # The x^0 and x^1 agreement claims get separate cells; each failing cell
    # carries its first counterexample.  Over 132-avoiders, for all k, l, m:
    # (i) every empty-slot match is a zero-slot match, and the smallest entry
    # left of a zero-slot match that is not a left-to-right minimum is an
    # empty-slot match, so the x^0 coefficients agree for every n; (ii) the
    # x^1 coefficients satisfy empty-slot >= zero-slot, with equality for
    # n < k+l+m+2; (iii) they differ at n = k+l+m+2, so every x^1 cell fails
    # there (see gf.KNOWN_ERRATA).
    cells = _Cells()
    for k in range(3):
        for ell in range(3):
            for m in range(3):
                per_exp: dict[int, list[str]] = {0: [], 1: []}
                for n in range(max_n + 1):
                    empty3 = distribution(n, P132, QuadrantSpec(k, ell, EMPTY, m))
                    zero3 = distribution(n, P132, QuadrantSpec(k, ell, 0, m))
                    for e in (0, 1):
                        if empty3.coeff(e) != zero3.coeff(e):
                            per_exp[e].append(
                                f"n={n}: empty-slot {empty3.coeff(e)}, zero-slot {zero3.coeff(e)}"
                            )
                for e in (0, 1):
                    cells.check(f"k={k},l={ell},m={m},x^{e}", per_exp[e], f"n<={max_n}")
    return cells.report("theorem-3")


_PAIRS = [(k, ell) for k in range(5) for ell in range(5 - k)]

# Top-degree coefficient subjects: (parameter grid, spec of the parameters).
# A cell checks x^(n - sum) at every n >= sum + 1, both classes, against
# gf.extremal_coeff of the subject's family.
_TOP_COEFF_GRIDS = {
    "theorem-4": (_PAIRS, lambda k, ell: QuadrantSpec(0, k, 0, ell)),
    "corollary-4": ([(k,) for k in range(5)], lambda k: QuadrantSpec(0, k, 0, 0)),
    "theorem-04": (_PAIRS, lambda k, ell: QuadrantSpec(0, k, EMPTY, ell)),
    "corollary-04": ([(k,) for k in range(5)], lambda k: QuadrantSpec(0, k, EMPTY, 0)),
    "corollary-05": (_PAIRS, lambda k, ell: QuadrantSpec(EMPTY, k, EMPTY, ell)),
    "theorem-004": (_PAIRS, lambda k, ell: QuadrantSpec(k, ell, EMPTY, 0)),
    "theorem-0004": (
        [(k, ell, m) for k in range(1, 5) for ell in range(5 - k) for m in range(5 - k - ell)],
        lambda k, ell, m: QuadrantSpec(k, ell, EMPTY, m),
    ),
}


def _top_coeff_subject(subject: str, max_n: int) -> VerificationReport:
    grid, spec_of = _TOP_COEFF_GRIDS[subject]
    cells = _Cells()
    for params in grid:
        failures: list[str] = []
        spec = spec_of(*params)
        top = sum(params)  # the top degree is n - top, from n = top + 1 on
        lo = top + 1
        k, ell, m = (*params, 0, 0)[:3]
        for n in range(lo, max_n + 1):
            expo = n - top
            want = gf.extremal_coeff(subject, k, ell, m, n)
            for text in ("123", "132"):
                got = distribution(n, class_from_text(text), spec).coeff(expo)
                if got != want:
                    failures.append(f"n={n} {text} x^{expo}: got {got}, expected {want}")
        label = ",".join(f"{name}={v}" for name, v in zip("klm", params))
        if lo > max_n:
            cells.skip(label, f"threshold n>={lo} exceeds max_n={max_n}")
        else:
            cells.check(label, failures, f"{lo}<=n<={max_n}")
    return cells.report(subject)


_POSITIVE_PAIRS = [(k, ell) for k in range(1, 6) for ell in range(1, 7 - k)]

# Engine-vs-oracle subjects over 132-avoiders: (parameter names, grid, spec of
# the parameters).  Each cell compares the routed recurrence with brute force.
_ENGINE_GRIDS = {
    "theorem-2": ("k", [(k,) for k in range(7)], lambda k: QuadrantSpec(k, 0, EMPTY, 0)),
    "theorem-6": ("k", [(k,) for k in range(7)], lambda k: QuadrantSpec(0, k, EMPTY, 0)),
    "theorem-7": ("kl", _POSITIVE_PAIRS, lambda k, ell: QuadrantSpec(k, ell, EMPTY, 0)),
    "theorem-8": ("kl", _POSITIVE_PAIRS, lambda k, ell: QuadrantSpec(0, k, EMPTY, ell)),
    "theorem-9": (
        "kl",
        [(k, ell) for k in range(7) for ell in range(7 - k)],
        lambda k, ell: QuadrantSpec(EMPTY, k, EMPTY, ell),
    ),
    "theorem-10": (
        "akl",
        [(a, k, ell) for a in range(1, 5) for k in range(1, 6 - a) for ell in range(1, 7 - a - k)],
        lambda a, k, ell: QuadrantSpec(a, k, EMPTY, ell),
    ),
}


def _engine_subject(subject: str, max_n: int) -> VerificationReport:
    names, grid, spec_of = _ENGINE_GRIDS[subject]
    cells = _Cells()
    for params in grid:
        failures: list[str] = []
        spec = spec_of(*params)
        engine = gf.engine_series("132", spec, max_n, "recurrence")
        for n in range(max_n + 1):
            _poly_eq(failures, f"n={n}", engine.poly(n), distribution(n, P132, spec))
        label = ",".join(f"{name}={v}" for name, v in zip(names, params))
        cells.check(label, failures, f"n<={max_n}")
    return cells.report(subject)


def _subject_theorem_11(max_n: int) -> VerificationReport:
    cells = _Cells()
    for k1 in range(7):
        for k2 in range(7 - k1):
            failures: list[str] = []
            engine = gf.q123_bivariate(k1, k2, max_n)
            for n in range(max_n + 1):
                got = engine.poly(n)
                want = bivariate_distribution(n, k1, k2)
                _poly_eq(failures, f"n={n}", got, want)
            cells.check(f"k1={k1},k2={k2}", failures, f"n<={max_n}")
    for k in range(7):
        failures = []
        engine = gf.q123_0k00(k, max_n)
        for n in range(max_n + 1):
            want = distribution(n, P123, QuadrantSpec(0, k, 0, 0))
            _poly_eq(failures, f"n={n}", engine.poly(n), want)
        cells.check(f"specialized k={k}", failures, f"n<={max_n}")
    return cells.report("theorem-11")


def _subject_theorem_12(max_n: int) -> VerificationReport:
    cells = _Cells()
    specs = {(k, ell): QuadrantSpec(0, k, 0, ell) for k in range(3) for ell in range(3)}
    fails: dict[tuple[int, int], list[str]] = {p: [] for p in specs}
    for n in range(max_n + 1):
        for sigma in avoiders(n, P123):
            rows = _rows(sigma)
            for (k, ell), spec in specs.items():
                if fails[(k, ell)]:
                    continue
                fast = _fast_mmp_0k0l(sigma, k, ell)
                slow = _count_rows(rows, spec)
                if fast != slow:
                    fails[(k, ell)].append(f"sigma={sigma}: fast={fast}, direct={slow}")
    for k, ell in specs:
        cells.check(f"k={k},l={ell}", fails[(k, ell)], f"n<={max_n}")
    return cells.report("theorem-12")


def _subject_theorem_13(max_n: int) -> VerificationReport:
    cells = _Cells()
    specs = {(k, ell): QuadrantSpec(0, k, 0, ell) for k in range(4) for ell in range(4)}
    fails: dict[tuple[int, int], list[str]] = {p: [] for p in specs}
    for n in range(max_n + 1):
        for sigma in avoiders(n, P123):
            rows = _rows(sigma)
            for (k, ell), spec in specs.items():
                if fails[(k, ell)]:
                    continue
                r, s = _corner_frame_counts(sigma, k, ell)
                count = _count_rows(rows, spec)
                if n > k + ell:
                    ok = (
                        0 <= r <= k + ell
                        and s == 2 * (k + ell) - r
                        and count == n - 2 * (k + ell) + r
                    )
                else:
                    ok = count == 0
                if not ok:
                    fails[(k, ell)].append(f"sigma={sigma}: r={r}, s={s}, count={count}")
    for k, ell in specs:
        cells.check(f"k={k},l={ell}", fails[(k, ell)], f"n<={max_n}")
    return cells.report("theorem-13")


def _closed_subject(subject: str, k: int, ell: int, max_n: int) -> VerificationReport:
    cells = _Cells()
    threshold = gf._CLOSED_0K0L_THRESHOLD[(k, ell)]
    spec = QuadrantSpec(0, k, 0, ell)
    for n in range(threshold, max_n + 1):
        failures: list[str] = []
        _poly_eq(failures, f"n={n}", gf.closed_poly_0k0l(k, ell, n), distribution(n, P123, spec))
        cells.check(f"n={n}", failures)
    return cells.report(subject)


_SYM_COORDS = (0, 1, 2, EMPTY)


def _coord_label(v) -> str:
    return "e" if v is EMPTY else str(v)


def _subject_lemma_sym(max_n: int) -> VerificationReport:
    # (a,b,c,d) ~ (a,d,c,b) over 132-avoiders
    cells = _Cells()
    order = {v: i for i, v in enumerate(_SYM_COORDS)}
    for a in _SYM_COORDS:
        for c in _SYM_COORDS:
            for b in _SYM_COORDS:
                for d in _SYM_COORDS:
                    if order[b] >= order[d]:
                        continue
                    failures: list[str] = []
                    for n in range(max_n + 1):
                        left = distribution(n, P132, QuadrantSpec(a, b, c, d))
                        right = distribution(n, P132, QuadrantSpec(a, d, c, b))
                        _poly_eq(failures, f"n={n}", left, right)
                    spec = QuadrantSpec(a, b, c, d)
                    cells.check(f"spec={spec}", failures, f"n<={max_n}")
    return cells.report("lemma-sym")


def _subject_lemma_sym2(max_n: int) -> VerificationReport:
    # (a,b,c,d) ~ (c,d,a,b) over 123-avoiders
    cells = _Cells()
    order = {v: i for i, v in enumerate(_SYM_COORDS)}
    for a in _SYM_COORDS:
        for b in _SYM_COORDS:
            for c in _SYM_COORDS:
                for d in _SYM_COORDS:
                    if (order[a], order[b]) >= (order[c], order[d]):
                        continue
                    failures: list[str] = []
                    for n in range(max_n + 1):
                        left = distribution(n, P123, QuadrantSpec(a, b, c, d))
                        right = distribution(n, P123, QuadrantSpec(c, d, a, b))
                        _poly_eq(failures, f"n={n}", left, right)
                    spec = QuadrantSpec(a, b, c, d)
                    cells.check(f"spec={spec}", failures, f"n<={max_n}")
    return cells.report("lemma-sym2")


def _subject_lemma_p1_2(max_n: int) -> VerificationReport:
    cells = _Cells()
    for n in range(1, max_n + 1):
        failures: list[str] = []
        for sigma in avoiders(n, P132):
            pos_n = sigma.word.index(n) + 1
            first_return = min(dyck.stats(dyck.phi(sigma)).returns)
            if pos_n != first_return:
                failures.append(f"sigma={sigma}: position of n is {pos_n}, first return {first_return}")
                break
        cells.check(f"n={n}", failures)
    return cells.report("lemma-p1-2")


def _diag_subject(subject: str, inverse_map, max_n: int) -> VerificationReport:
    # peak on the k-th diagonal <=> k points in quadrant I at that position
    cells = _Cells()
    for n in range(max_n + 1):
        failures: list[str] = []
        for word in _all_path_words(n):
            path = dyck.DyckPath(word)
            sigma = inverse_map(path)
            for col, diag in dyck.stats(path).peaks:
                q1 = quadrants_at(sigma, col)[0]
                if q1 != diag:
                    failures.append(
                        f"path={word} sigma={sigma} column={col}: diagonal {diag}, quadrant-I {q1}"
                    )
                    break
            if failures:
                break
        cells.check(f"n={n}", failures)
    return cells.report(subject)


def _subject_lemma_p1_3(max_n: int) -> VerificationReport:
    return _diag_subject("lemma-p1-3", dyck.phi_inv, max_n)


def _subject_lemma_p2_3(max_n: int) -> VerificationReport:
    return _diag_subject("lemma-p2-3", dyck.psi_inv, max_n)


def _subject_lemma_p2_2(max_n: int) -> VerificationReport:
    # psi-inverse permutations split into two decreasing subsequences:
    # the peaks (empty third quadrant) and the non-peaks.
    cells = _Cells()
    for n in range(max_n + 1):
        failures: list[str] = []
        for word in _all_path_words(n):
            sigma = dyck.psi_inv(dyck.DyckPath(word))
            rows = _rows(sigma)
            peaks = [v for i, v in enumerate(sigma.word) if rows[i][2] == 0]
            nonpeaks = [v for i, v in enumerate(sigma.word) if rows[i][2] != 0]
            if peaks != sorted(peaks, reverse=True) or nonpeaks != sorted(nonpeaks, reverse=True):
                failures.append(f"path={word} sigma={sigma}: peaks={peaks}, non-peaks={nonpeaks}")
                break
        cells.check(f"n={n}", failures)
    return cells.report("lemma-p2-2")


def _subject_match_preservation(max_n: int) -> VerificationReport:
    # For every path, its two preimages match (k,l,EMPTY,m) at the same rate.
    cells = _Cells()
    specs = [
        QuadrantSpec(k, ell, EMPTY, m)
        for k in range(1, 3)
        for ell in range(3)
        for m in range(3)
    ]
    fails: dict[QuadrantSpec, list[str]] = {spec: [] for spec in specs}
    for n in range(max_n + 1):
        for word in _all_path_words(n):
            path = dyck.DyckPath(word)
            rows132 = _rows(dyck.phi_inv(path))
            rows123 = _rows(dyck.psi_inv(path))
            for spec in specs:
                if fails[spec]:
                    continue
                left = _count_rows(rows132, spec)
                right = _count_rows(rows123, spec)
                if left != right:
                    fails[spec].append(f"path={word}: 132-side {left}, 123-side {right}")
    for spec in specs:
        cells.check(f"spec={spec}", fails[spec], f"n<={max_n}")
    return cells.report("match-preservation")


def _subject_hill_correspondence(max_n: int) -> VerificationReport:
    spec = QuadrantSpec(EMPTY, 0, EMPTY, 0)
    cells = _Cells()
    for n in range(max_n + 1):
        failures: list[str] = []
        for sigma in avoiders(n, P132):
            count = mmp_count(sigma, spec)
            hills = dyck.stats(dyck.phi(sigma)).hills
            if count != hills:
                failures.append(f"sigma={sigma}: matches={count}, hills={hills}")
                break
        cells.check(f"n={n}", failures)
    return cells.report("hill-correspondence")


def check_conjecture1(k_max: int = 4, trunc: int = 11) -> VerificationReport:
    """Coefficient-wise comparison of the (0,k,EMPTY,0) and (1,k-1,EMPTY,0)
    series, by engines to t^trunc and against brute force to t^min(trunc, 9)."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    cells = _Cells()
    brute_to = min(trunc, 9)
    for k in range(1, k_max + 1):
        left = gf.q132_0ke0(k, trunc)
        right = gf.q132_kle0(1, k - 1, trunc)
        failures: list[str] = []
        for n in range(trunc + 1):
            _poly_eq(failures, f"n={n}", left.poly(n), right.poly(n))
        cells.check(f"k={k},engines", failures, f"n<={trunc}")
        failures = []
        for n in range(brute_to + 1):
            want_l = distribution(n, P132, QuadrantSpec(0, k, EMPTY, 0))
            want_r = distribution(n, P132, QuadrantSpec(1, k - 1, EMPTY, 0))
            _poly_eq(failures, f"n={n} (0,k,e,0)", left.poly(n), want_l)
            _poly_eq(failures, f"n={n} (1,k-1,e,0)", right.poly(n), want_r)
        cells.check(f"k={k},oracle", failures, f"n<={brute_to}")
    return cells.report("conjecture-1")


def _subject_conjecture_1(max_n: int) -> VerificationReport:
    return check_conjecture1(k_max=4, trunc=max_n)


# ---------------------------------------------------------------------------
# Registry


_SUBJECTS: dict[str, tuple[Callable[[int], VerificationReport], int]] = {
    "corollary-1": (_subject_corollary_1, 8),
    "theorem-3": (_subject_theorem_3, 9),
    **{sid: (partial(_top_coeff_subject, sid), 9) for sid in _TOP_COEFF_GRIDS},
    **{sid: (partial(_engine_subject, sid), 9) for sid in _ENGINE_GRIDS},
    "theorem-11": (_subject_theorem_11, 9),
    "theorem-12": (_subject_theorem_12, 8),
    "theorem-13": (_subject_theorem_13, 10),
    "theorem-14": (partial(_closed_subject, "theorem-14", 1, 0), 9),
    "theorem-15": (partial(_closed_subject, "theorem-15", 2, 0), 9),
    "theorem-16": (partial(_closed_subject, "theorem-16", 1, 1), 9),
    "theorem-17": (partial(_closed_subject, "theorem-17", 2, 1), 9),
    "theorem-18": (partial(_closed_subject, "theorem-18", 2, 2), 9),
    "lemma-sym": (_subject_lemma_sym, 9),
    "lemma-sym2": (_subject_lemma_sym2, 8),
    "lemma-p1-2": (_subject_lemma_p1_2, 9),
    "lemma-p1-3": (_subject_lemma_p1_3, 9),
    "lemma-p2-2": (_subject_lemma_p2_2, 9),
    "lemma-p2-3": (_subject_lemma_p2_3, 9),
    "match-preservation": (_subject_match_preservation, 9),
    "hill-correspondence": (_subject_hill_correspondence, 9),
    "conjecture-1": (_subject_conjecture_1, 11),
}


def subject_ids() -> tuple[str, ...]:
    return tuple(sorted(_SUBJECTS))


def _canonical_subject(subject_id: str) -> str:
    sid = subject_id.strip().lower()
    sid = sid.replace("thm-", "theorem-").replace("cor-", "corollary-")
    if sid in ("lemma-p1", "lemma-p2"):
        # umbrella names resolve to part (2); parts are separate subjects
        sid = sid + "-2"
    if sid not in _SUBJECTS:
        raise ValueError(f"unknown subject id {subject_id!r}; known: {', '.join(subject_ids())}")
    return sid


def verify(subject_id: str, max_n: int | None = None) -> VerificationReport:
    """Run one verification subject over its (possibly capped) default grid."""
    sid = _canonical_subject(subject_id)
    fn, default_n = _SUBJECTS[sid]
    return fn(default_n if max_n is None else max_n)


def verify_all(max_n: int | None = None) -> list[VerificationReport]:
    """Run every subject; per-subject defaults apply when max_n is None."""
    return [verify(sid, max_n) for sid in subject_ids()]
