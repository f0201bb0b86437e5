"""Brute-force ground truth and the verification harness.

The oracle side of every comparison is direct enumeration through
:mod:`qmmp.perm` and :mod:`qmmp.mmp` only; it never touches the series or
engine code paths, which is what makes an engine-vs-oracle pass meaningful
evidence.  Each verification *subject* checks one implemented identity over
an explicit parameter grid and reports one cell per grid point, carrying a
concrete counterexample whenever a cell fails.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from typing import Callable

from . import dyck, gf
from .mmp import (
    EMPTY,
    QuadrantSpec,
    _fast_mmp_0k0l,
    bivariate_distribution,
    corner_frame_counter,
    distribution,
    distributions,
    match_counter,
    mmp_count,
    quadrant_rows,
)
from .perm import P123, P132, Permutation, avoiders
from .series import IntPoly, TSeries


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


def _oracle_at(n: int, wanted) -> dict[tuple[Permutation, QuadrantSpec], IntPoly]:
    """The length-n distribution of each ``(class, spec)`` in ``wanted``, keyed by it.

    All of a class's specs go to one :func:`distributions` call, so they
    share its walks.
    """
    out = {}
    for tau in (P123, P132):
        specs = [spec for t, spec in wanted if t == tau]
        out.update(zip([(tau, spec) for spec in specs], distributions(n, tau, specs)))
    return out


def _engine_failures(tau: Permutation, cells, max_n: int) -> list[list[str]]:
    """Engine-vs-oracle failures per cell, over n <= max_n.

    A cell is a list of ``(label, engine series, spec)``; each n's
    distributions of every cell's specs come from one call.
    """
    specs = [spec for cell in cells for _, _, spec in cell]
    fails: list[list[str]] = [[] for _ in cells]
    for n in range(max_n + 1):
        polys = iter(distributions(n, tau, specs))
        for cell, failures in zip(cells, fails):
            for label, engine, _ in cell:
                _poly_eq(failures, f"n={n}{label}", engine.poly(n), next(polys))
    return fails


# Corollary-1: each variant of (k, l, m) has the distribution of the base,
# (k,l,0,m) over 123-avoiders, which comes first.
_COROLLARY_1_SPECS = (
    ("", P123, lambda k, ell, m: QuadrantSpec(k, ell, 0, m)),
    ("123 (k,l,e,m)", P123, lambda k, ell, m: QuadrantSpec(k, ell, EMPTY, m)),
    ("132 (k,l,e,m)", P132, lambda k, ell, m: QuadrantSpec(k, ell, EMPTY, m)),
    ("123 (0,m,k,l)", P123, lambda k, ell, m: QuadrantSpec(0, m, k, ell)),
    ("123 (e,m,k,l)", P123, lambda k, ell, m: QuadrantSpec(EMPTY, m, k, ell)),
)


def _subject_corollary_1(max_n: int) -> VerificationReport:
    grid = [(k, ell, m) for k in range(1, 3) for ell in range(3) for m in range(3)]
    rows = [
        [(label, (tau, spec_of(*params))) for label, tau, spec_of in _COROLLARY_1_SPECS]
        for params in grid
    ]
    fails: list[list[str]] = [[] for _ in grid]
    for n in range(max_n + 1):
        polys = _oracle_at(n, [key for row in rows for _, key in row])
        for ((_, base), *variants), failures in zip(rows, fails):
            for label, key in variants:
                _poly_eq(failures, f"n={n} {label}", polys[key], polys[base])
    cells = _Cells()
    for (k, ell, m), failures in zip(grid, fails):
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
    grid = [(k, ell, m) for k in range(3) for ell in range(3) for m in range(3)]
    specs = [QuadrantSpec(k, ell, slot, m) for k, ell, m in grid for slot in (EMPTY, 0)]
    fails: list[dict[int, list[str]]] = [{0: [], 1: []} for _ in grid]
    for n in range(max_n + 1):
        polys = distributions(n, P132, specs)
        for empty3, zero3, per_exp in zip(polys[0::2], polys[1::2], fails):
            for e in (0, 1):
                if empty3.coeff(e) != zero3.coeff(e):
                    per_exp[e].append(
                        f"n={n}: empty-slot {empty3.coeff(e)}, zero-slot {zero3.coeff(e)}"
                    )
    cells = _Cells()
    for (k, ell, m), per_exp in zip(grid, fails):
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
    specs = [spec_of(*params) for params in grid]
    fails: list[list[str]] = [[] for _ in grid]
    for n in range(max_n + 1):
        # the top degree is n - sum(params), from n = sum(params) + 1 on
        live = [row for row in zip(grid, specs, fails) if sum(row[0]) < n]
        polys = _oracle_at(n, [(tau, spec) for _, spec, _ in live for tau in (P123, P132)])
        for params, spec, failures in live:
            expo = n - sum(params)
            k, ell, m = (*params, 0, 0)[:3]
            want = gf.extremal_coeff(subject, k, ell, m, n)
            for text in ("123", "132"):
                got = polys[class_from_text(text), spec].coeff(expo)
                if got != want:
                    failures.append(f"n={n} {text} x^{expo}: got {got}, expected {want}")
    cells = _Cells()
    for params, failures in zip(grid, fails):
        lo = sum(params) + 1
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
    specs = [spec_of(*params) for params in grid]
    rows = [[("", gf.engine_series("132", spec, max_n, "recurrence"), spec)] for spec in specs]
    cells = _Cells()
    for params, failures in zip(grid, _engine_failures(P132, rows, max_n)):
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
    rows = [[("", gf.q123_0k00(k, max_n), QuadrantSpec(0, k, 0, 0))] for k in range(7)]
    for k, failures in enumerate(_engine_failures(P123, rows, max_n)):
        cells.check(f"specialized k={k}", failures, f"n<={max_n}")
    return cells.report("theorem-11")


def _subject_theorem_12(max_n: int) -> VerificationReport:
    cells = _Cells()
    pairs = [(k, ell) for k in range(3) for ell in range(3)]
    fails: dict[tuple[int, int], list[str]] = {p: [] for p in pairs}
    for n in range(max_n + 1):
        counter = match_counter([QuadrantSpec(0, k, 0, ell) for k, ell in pairs], n)
        for sigma in avoiders(n, P123):
            for (k, ell), slow in zip(pairs, counter(sigma)):
                if fails[(k, ell)]:
                    continue
                fast = _fast_mmp_0k0l(sigma, k, ell)
                if fast != slow:
                    fails[(k, ell)].append(f"sigma={sigma}: fast={fast}, direct={slow}")
    for k, ell in pairs:
        cells.check(f"k={k},l={ell}", fails[(k, ell)], f"n<={max_n}")
    return cells.report("theorem-12")


def _subject_theorem_13(max_n: int) -> VerificationReport:
    cells = _Cells()
    pairs = [(k, ell) for k in range(4) for ell in range(4)]
    fails: dict[tuple[int, int], list[str]] = {p: [] for p in pairs}
    for n in range(max_n + 1):
        counter = match_counter([QuadrantSpec(0, k, 0, ell) for k, ell in pairs], n)
        frames = corner_frame_counter(pairs, n)
        for sigma in avoiders(n, P123):
            for (k, ell), count, (r, s) in zip(pairs, counter(sigma), frames(sigma)):
                if fails[(k, ell)]:
                    continue
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
    for k, ell in pairs:
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

# Symmetry subjects: (class, image of (a, b, c, d), slot loop order, outermost
# first).  A cell compares a spec with its image and is kept when the spec's
# key, its slots ranked in _SYM_COORDS order, sorts before the image's key.
_SYM_GRIDS = {
    "lemma-sym": (P132, lambda a, b, c, d: (a, d, c, b), "acbd"),
    "lemma-sym2": (P123, lambda a, b, c, d: (c, d, a, b), "abcd"),
}


def _sym_subject(subject: str, max_n: int) -> VerificationReport:
    tau, image_of, loop_order = _SYM_GRIDS[subject]
    rank = {v: i for i, v in enumerate(_SYM_COORDS)}
    pairs = []
    for slots in itertools.product(_SYM_COORDS, repeat=4):
        spec = QuadrantSpec(**dict(zip(loop_order, slots)))
        image = QuadrantSpec(*image_of(*spec.coords))
        if [rank[v] for v in spec.coords] < [rank[v] for v in image.coords]:
            pairs.append((spec, image))
    specs = [spec for pair in pairs for spec in pair]
    fails: list[list[str]] = [[] for _ in pairs]
    for n in range(max_n + 1):
        polys = distributions(n, tau, specs)
        for left, right, failures in zip(polys[0::2], polys[1::2], fails):
            _poly_eq(failures, f"n={n}", left, right)
    cells = _Cells()
    for (spec, _), failures in zip(pairs, fails):
        cells.check(f"spec={spec}", failures, f"n<={max_n}")
    return cells.report(subject)


def _first_return_failure(sigma: Permutation) -> str | None:
    pos_n = sigma.word.index(sigma.n) + 1
    first_return = min(dyck.stats(dyck.phi(sigma)).returns)
    if pos_n != first_return:
        return f"sigma={sigma}: position of n is {pos_n}, first return {first_return}"
    return None


def _diag_failure(inverse_map, word: str) -> str | None:
    # peak on the k-th diagonal <=> k points in quadrant I at that position
    path = dyck.DyckPath(word)
    sigma = inverse_map(path)
    rows = quadrant_rows(sigma)
    for col, diag in dyck.stats(path).peaks:
        q1 = rows[col - 1][0]
        if q1 != diag:
            return f"path={word} sigma={sigma} column={col}: diagonal {diag}, quadrant-I {q1}"
    return None


def _two_decreasing_failure(word: str) -> str | None:
    # psi-inverse permutations split into two decreasing subsequences:
    # the peaks (empty third quadrant) and the non-peaks.
    sigma = dyck.psi_inv(dyck.DyckPath(word))
    rows = quadrant_rows(sigma)
    peaks = [v for v, q in zip(sigma.word, rows) if q[2] == 0]
    nonpeaks = [v for v, q in zip(sigma.word, rows) if q[2] != 0]
    if peaks != sorted(peaks, reverse=True) or nonpeaks != sorted(nonpeaks, reverse=True):
        return f"path={word} sigma={sigma}: peaks={peaks}, non-peaks={nonpeaks}"
    return None


_HILL_SPEC = QuadrantSpec(EMPTY, 0, EMPTY, 0)


def _hill_failure(sigma: Permutation) -> str | None:
    count = mmp_count(sigma, _HILL_SPEC)
    hills = dyck.stats(dyck.phi(sigma)).hills
    if count != hills:
        return f"sigma={sigma}: matches={count}, hills={hills}"
    return None


# Per-n subjects: (first n, objects of length n, failure of one object or
# None).  A cell covers one n and carries its first counterexample.  The
# lambdas look up ``avoiders`` and the ``dyck`` maps at call time, so a
# rebinding of those names (as perfbench's span tracer does) is seen.
_PER_N_GRIDS = {
    "lemma-p1-2": (1, lambda n: avoiders(n, P132), _first_return_failure),
    "lemma-p1-3": (0, _all_path_words, lambda word: _diag_failure(dyck.phi_inv, word)),
    "lemma-p2-3": (0, _all_path_words, lambda word: _diag_failure(dyck.psi_inv, word)),
    "lemma-p2-2": (0, _all_path_words, _two_decreasing_failure),
    "hill-correspondence": (0, lambda n: avoiders(n, P132), _hill_failure),
}


def _per_n_subject(subject: str, max_n: int) -> VerificationReport:
    start, objects, failure = _PER_N_GRIDS[subject]
    cells = _Cells()
    for n in range(start, max_n + 1):
        first = next(filter(None, map(failure, objects(n))), None)
        cells.check(f"n={n}", [first] if first else [])
    return cells.report(subject)


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
        counter = match_counter(specs, n)
        for word in _all_path_words(n):
            path = dyck.DyckPath(word)
            counts132 = counter(dyck.phi_inv(path))
            counts123 = counter(dyck.psi_inv(path))
            for spec, left, right in zip(specs, counts132, counts123):
                if left != right and not fails[spec]:
                    fails[spec].append(f"path={word}: 132-side {left}, 123-side {right}")
    for spec in specs:
        cells.check(f"spec={spec}", fails[spec], f"n<={max_n}")
    return cells.report("match-preservation")


def check_conjecture1(k_max: int = 4, trunc: int = 11) -> VerificationReport:
    """Coefficient-wise comparison of the (0,k,EMPTY,0) and (1,k-1,EMPTY,0)
    series, by engines to t^trunc and against brute force to t^min(trunc, 9)."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    ks = range(1, k_max + 1)
    brute_to = min(trunc, 9)
    engines = [(gf.q132_0ke0(k, trunc), gf.q132_kle0(1, k - 1, trunc)) for k in ks]
    rows = [
        [
            (" (0,k,e,0)", left, QuadrantSpec(0, k, EMPTY, 0)),
            (" (1,k-1,e,0)", right, QuadrantSpec(1, k - 1, EMPTY, 0)),
        ]
        for k, (left, right) in zip(ks, engines)
    ]
    cells = _Cells()
    oracle_fails = _engine_failures(P132, rows, brute_to)
    for k, (left, right), oracle_failures in zip(ks, engines, oracle_fails):
        failures: list[str] = []
        for n in range(trunc + 1):
            _poly_eq(failures, f"n={n}", left.poly(n), right.poly(n))
        cells.check(f"k={k},engines", failures, f"n<={trunc}")
        cells.check(f"k={k},oracle", oracle_failures, f"n<={brute_to}")
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
    "lemma-sym": (partial(_sym_subject, "lemma-sym"), 9),
    "lemma-sym2": (partial(_sym_subject, "lemma-sym2"), 8),
    **{sid: (partial(_per_n_subject, sid), 9) for sid in _PER_N_GRIDS},
    "match-preservation": (_subject_match_preservation, 9),
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
