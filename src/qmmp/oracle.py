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
from types import MappingProxyType
from typing import Callable, Mapping

from . import dyck, gf
from .mmp import (
    EMPTY,
    QuadrantSpec,
    _admits,
    _append_tallies,
    _bands,
    _in_window,
    _window,
    bivariate_distributions,
    distribution,
    distributions,
    mmp_count,
    quadrant_rows,
)
from .perm import P123, P132, Permutation, avoider_totals, avoider_walk, avoiders, catalan_moves
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
    if trunc < 0:
        raise ValueError("trunc must be nonnegative")
    return TSeries([distribution(n, tau, spec) for n in range(trunc + 1)])


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


_PAIRS = tuple((k, ell) for k in range(5) for ell in range(5 - k))

# Top-degree coefficient subjects: (parameter grid, spec of the parameters).
# A cell checks x^(n - sum) at every n >= sum + 1, both classes, against
# gf.extremal_coeff of the subject's family.
_TOP_COEFF_GRIDS = MappingProxyType({
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
})


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


_POSITIVE_PAIRS = tuple((k, ell) for k in range(1, 6) for ell in range(1, 7 - k))

# Engine-vs-oracle subjects over 132-avoiders: (parameter names, grid, spec of
# the parameters).  Each cell compares the routed recurrence with brute force.
_ENGINE_GRIDS = MappingProxyType({
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
})


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
        k2s = range(7 - k1)
        engines = [gf.q123_bivariate(k1, k2, max_n) for k2 in k2s]
        fails: list[list[str]] = [[] for _ in k2s]
        for n in range(max_n + 1):
            polys = bivariate_distributions(n, k1, k2s)
            for engine, want, failures in zip(engines, polys, fails):
                _poly_eq(failures, f"n={n}", engine.poly(n), want)
        for k2, failures in zip(k2s, fails):
            cells.check(f"k1={k1},k2={k2}", failures, f"n<={max_n}")
    rows = [[("", gf.q123_0k00(k, max_n), QuadrantSpec(0, k, 0, 0))] for k in range(7)]
    for k, failures in enumerate(_engine_failures(P123, rows, max_n)):
        cells.check(f"specialized k={k}", failures, f"n<={max_n}")
    return cells.report("theorem-11")


class _BandFields:
    """Walk entries for theorem-12/13 over the length-n 123-avoiders.

    Each ``(k, l)`` pair has four fields, in order R, X, Y, C, that sum over
    a permutation to ``r``, ``r + s``, ``count + s`` and ``count``: ``r`` and
    ``s`` are its corner and frame counts (:func:`qmmp.mmp._bands`) and
    ``count`` its ``(0,k,0,l)`` match count.  A field is
    ``(2n).bit_length() + 1`` bits wide, so every sum (at most 2n) leaves the
    field's top bit, the *guard*, clear.  A *rule* ``(offset, mask, expect)``
    passes a total when ``(total + offset) & mask == expect``; an offset of
    ``guard - 1 - (k + l)`` on R carries into the guard exactly when
    ``r > k + l``.  No field carries into the next, so the rules of
    different pairs add up to one rule.

    An entry is the point's R, X and Y band fields, from one sweep of
    :func:`qmmp.mmp._bands` over the grid points ``(j, v)`` per n, plus its
    Y and C match fields: per slot, the fields of the pairs whose window
    admits the tally, ANDed over the four slots.
    """

    def __init__(self, pairs: list[tuple[int, int]], n: int) -> None:
        self.pairs = pairs
        self.n = n
        self.width = w = (2 * n).bit_length() + 1
        self.ones = (1 << w) - 1
        self.bases = [4 * w * p for p in range(len(pairs))]
        self.bands = [0] * (n + 1) ** 2  # the point (j, v) at j * (n + 1) + v
        for j, v in itertools.product(range(1, n + 1), repeat=2):
            for base, (k, ell) in zip(self.bases, pairs):
                corner, frame = _bands(j, v, n, k, ell)
                fields = corner | (corner + frame) << w | frame << 2 * w
                self.bands[j * (n + 1) + v] += fields << base
        windows = [_window(QuadrantSpec(0, k, 0, ell), n) for k, ell in pairs]
        self.admits = _admits(windows, [(1 << 2 * w | 1 << 3 * w) << b for b in self.bases], n)

    def entry(self, i: int, v: int, q2: int) -> int:
        q1, q2, q3, q4 = _append_tallies(self.n, i, v, q2)
        a1, a2, a3, a4 = self.admits
        return self.bands[(i + 1) * (self.n + 1) + v] + (a1[q1] & a2[q2] & a3[q3] & a4[q4])

    def numbers(self, total: int, p: int) -> tuple[int, int, int]:
        """``(r, s, count)`` of pair ``p`` from the fields R, X and C."""
        base, w = self.bases[p], self.width
        r, x, _, count = ((total >> (base + f * w)) & self.ones for f in range(4))
        return r, x - r, count

    def theorem_13(self, p: int) -> tuple[int, int, int]:
        """For n > k+l: r <= k+l, r + s = 2(k+l) and count + s = n; else count = 0."""
        kl = sum(self.pairs[p])
        w, base = self.width, self.bases[p]
        if self.n <= kl:
            return 0, self.ones << 3 * w << base, 0
        guard = 1 << (w - 1)
        mask = guard | self.ones << w | self.ones << 2 * w
        return (guard - 1 - kl) << base, mask << base, (2 * kl << w | self.n << 2 * w) << base

    def theorem_12(self, p: int) -> tuple[int, int, int]:
        """The fast count, the n - s points off the frame, equals the match count."""
        field = 2 * self.width + self.bases[p]
        return 0, self.ones << field, self.n << field


def _joint(rules) -> tuple[int, int, int]:
    """The one rule that passes a total exactly when every rule of ``rules`` does."""
    offset, mask, expect = map(sum, zip((0, 0, 0), *rules))
    return offset, mask, expect


def _band_subject(subject, pairs, rule_of, describe, max_n: int) -> VerificationReport:
    """Check one packed rule per pair on every 123-avoider with n <= max_n.

    All pairs are tested at once on each distinct total of the length-n
    avoiders (:func:`avoider_totals`).  Only when some total fails is each
    avoider's total from :func:`avoider_walk` tested in lexicographic
    order; the fields are decoded only when some pair fails, and a pair
    that has failed keeps its first counterexample and leaves the rule.
    """
    fails: dict[tuple[int, int], list[str]] = {p: [] for p in pairs}
    for n in range(max_n + 1):
        fields = _BandFields(pairs, n)
        rules = {p: rule_of(fields, p) for p, pair in enumerate(pairs) if not fails[pair]}
        offset, mask, expect = _joint(rules.values())
        totals = avoider_totals(n, P123.word, fields.entry)
        if all((total + offset) & mask == expect for total in totals):
            continue
        for word, total in avoider_walk(n, P123.word, fields.entry):
            if (total + offset) & mask == expect:
                continue
            sigma = Permutation(word)
            for p, (o, m, e) in list(rules.items()):
                if (total + o) & m != e:
                    fails[pairs[p]].append(describe(sigma, n, *fields.numbers(total, p)))
                    del rules[p]
            offset, mask, expect = _joint(rules.values())
    cells = _Cells()
    for k, ell in pairs:
        cells.check(f"k={k},l={ell}", fails[(k, ell)], f"n<={max_n}")
    return cells.report(subject)


def _subject_theorem_12(max_n: int) -> VerificationReport:
    return _band_subject(
        "theorem-12",
        [(k, ell) for k in range(3) for ell in range(3)],
        _BandFields.theorem_12,
        lambda sigma, n, r, s, count: f"sigma={sigma}: fast={n - s}, direct={count}",
        max_n,
    )


def _subject_theorem_13(max_n: int) -> VerificationReport:
    return _band_subject(
        "theorem-13",
        [(k, ell) for k in range(4) for ell in range(4)],
        _BandFields.theorem_13,
        lambda sigma, n, r, s, count: f"sigma={sigma}: r={r}, s={s}, count={count}",
        max_n,
    )


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
_SYM_GRIDS = MappingProxyType({
    "lemma-sym": (P132, lambda a, b, c, d: (a, d, c, b), "acbd"),
    "lemma-sym2": (P123, lambda a, b, c, d: (c, d, a, b), "abcd"),
})


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


# ---------------------------------------------------------------------------
# The bijection subjects run in two shared passes per n.  A per-n member's
# cell at n carries its first failure there.  Each pass first checks every
# move between the prefix states of an n once (:func:`_levels`), the one
# incremental encoding of its checks; only an n that this does not certify
# is checked object by object from the definitions, which decides and names
# the first counterexample.  The ``dyck`` rules are looked up at call time,
# so a rebinding of them (as perfbench's span tracer does) is seen.


def _levels(n: int, start: int, step) -> bool:
    """Whether every move of the n levels below the packed state ``start`` passes its checks.

    ``step(i, state)`` lists the states one move after a state at level i,
    or returns None when one of those moves fails.  Each level is one set
    of ints, dropped once the next is built.
    """
    level = {start}
    for i in range(n):
        below: set[int] = set()
        for state in level:
            try:
                children = step(i, state)
            except ValueError:  # the per-object check raises it again or names a failure
                return False
            if children is None:
                return False
            below.update(children)
        level = below
    return True


def _path_words(n: int):
    """Each path word of semilength n, D before R."""
    stack = [("", 0)]
    while stack:
        word, down = stack.pop()
        right = len(word) - down
        if right == n:
            yield word
            continue
        if right < down:
            stack.append((word + "R", down))
        if down < n:
            stack.append((word + "D", down + 1))


def _diag_failure(word: str, values, rows) -> str | None:
    # peak on the k-th diagonal <=> k points in quadrant I at that position
    for col, diag in dyck._stats(word).peaks:
        if (q1 := rows[col - 1][0]) != diag:
            sigma = Permutation(values)
            return f"path={word} sigma={sigma} column={col}: diagonal {diag}, quadrant-I {q1}"
    return None


def _two_decreasing_failure(word: str, values, rows) -> str | None:
    # psi-inverse permutations split into two decreasing subsequences:
    # the peaks (empty third quadrant) and the non-peaks.
    peaks = [v for v, q in zip(values, rows) if q[2] == 0]
    nonpeaks = [v for v, q in zip(values, rows) if q[2] != 0]
    if any(v < w for v, w in zip(nonpeaks, nonpeaks[1:])):
        return f"path={word} sigma={Permutation(values)}: peaks={peaks}, non-peaks={nonpeaks}"
    return None


# Per-n members of the path pass: (image, 0 for phi and 1 for psi; the failure
# of a word from that image's values and quadrant tallies).
_PATH_CHECKS = MappingProxyType({
    "lemma-p1-3": (0, _diag_failure),
    "lemma-p2-3": (1, _diag_failure),
    "lemma-p2-2": (1, _two_decreasing_failure),
})

# match-preservation: every path's two preimages match (k,l,EMPTY,m) at the
# same rate; one cell per spec over all n.
_MATCH_SPECS = tuple(
    QuadrantSpec(k, ell, EMPTY, m) for k in range(1, 3) for ell in range(3) for m in range(3)
)


def _path_certified(n: int) -> bool:
    """Whether every path word of semilength n passes every check of the path pass.

    A state is a prefix, empty or ending with R, packed into one int: its D
    steps, each image's ``used`` bitmask and psi's last value with an
    earlier smaller one.  Every prefix extends to a path word and every
    word is a path through the states, so a word fails only at a move: one
    that places a value outside 1..n or placed before, an outer corner of
    either image whose quadrant-I tally ``n - v - q2`` is not its diagonal
    (lemma-p1-3, lemma-p2-3), a psi value with an earlier smaller one
    (``i > q2``) above the last such value (lemma-p2-2; the peaks, left-to-
    right minima, decrease), or one whose images match different specs of
    match-preservation (their sums could still agree; the fallback decides).
    """
    windows = [_window(spec, n) for spec in _MATCH_SPECS]
    a1, a2, a3, a4 = _admits(windows, [1 << f for f in range(len(windows))], n)
    column, lowest, highest = dyck._column, dyck._lowest_free, dyck._highest_free
    w, bits = n + 1, (n + 1).bit_length()
    ones, mask = (1 << bits) - 1, (1 << w) - 1

    def step(i: int, state: int) -> list[int] | None:
        last, down, used = state & ones, state >> bits & ones, state >> 2 * bits
        phi, psi = used >> w, used & mask
        children = []
        for d in range(max(0, i + 1 - down), n - down + 1):
            below = down + d
            v, u = column(phi, below, d > 0, n, lowest), column(psi, below, d > 0, n, highest)
            if not (0 < v <= n and 0 < u <= n) or phi >> v & 1 or psi >> u & 1:
                return None
            r = (psi >> u).bit_count()
            p1, p2, p3, p4 = _append_tallies(n, i, v, (phi >> v).bit_count())
            s1, s2, s3, s4 = _append_tallies(n, i, u, r)
            # a corner off its diagonal, or a rise among psi's non-peaks
            if d and not p1 == s1 == below - i - 1 or i != r and u > last:
                return None
            if a1[p1] & a2[p2] & a3[p3] & a4[p4] != a1[s1] & a2[s2] & a3[s3] & a4[s4]:
                return None
            placed = (phi | 1 << v) << w | psi | 1 << u
            children.append((placed << bits | below) << bits | (u if i != r else last))
        return children

    return _levels(n, n + 1, step)


def _path_failures(n: int):
    """The path-pass members' first failures at n, word by word from the definitions.

    Each word's two images come from ``dyck._place``, which raises the
    column rule's ValueError at the first word whose image is not exactly
    1..n.  Returns the path checks' failures by subject and
    match-preservation's by spec.
    """
    windows = [_window(spec, n) for spec in _MATCH_SPECS]
    failed: dict[str, list[str]] = {sid: [] for sid in _PATH_CHECKS}
    matched: dict[QuadrantSpec, list[str]] = {spec: [] for spec in _MATCH_SPECS}
    for word in _path_words(n):
        images = []
        for fill in (dyck._lowest_free, dyck._highest_free):
            values = dyck._place(word, n, fill)
            images.append((values, quadrant_rows(values)))
        for sid, (image, failure) in _PATH_CHECKS.items():
            if not failed[sid] and (text := failure(word, *images[image])):
                failed[sid].append(text)
        for spec, window in zip(_MATCH_SPECS, windows):
            lhs, rhs = (sum(_in_window(q, window) for q in rows) for _, rows in images)
            if lhs != rhs and not matched[spec]:
                matched[spec].append(f"path={word}: 132-side {lhs}, 123-side {rhs}")
    return failed, matched


def _path_pass(max_n: int) -> dict[str, VerificationReport]:
    """Reports of the path-pass members: per n, :func:`_path_certified`, or
    the per-word :func:`_path_failures` where that does not certify the n."""
    cells = {sid: _Cells() for sid in (*_PATH_CHECKS, "match-preservation")}
    match_fails: dict[QuadrantSpec, list[str]] = {spec: [] for spec in _MATCH_SPECS}
    for n in range(max_n + 1):
        failed, matched = ({}, {}) if _path_certified(n) else _path_failures(n)
        for sid in _PATH_CHECKS:
            cells[sid].check(f"n={n}", failed.get(sid, []))
        for spec, failures in matched.items():
            match_fails[spec] = match_fails[spec] or failures
    for spec in _MATCH_SPECS:
        cells["match-preservation"].check(f"spec={spec}", match_fails[spec], f"n<={max_n}")
    return {sid: c.report(sid) for sid, c in cells.items()}


def _first_return_failure(word, count: int, path_stats) -> str | None:
    pos_n = word.index(len(word)) + 1
    first_return = min(path_stats.returns)
    if pos_n != first_return:
        return f"sigma={Permutation(word)}: position of n is {pos_n}, first return {first_return}"


def _hill_failure(word, count: int, path_stats) -> str | None:
    if count != path_stats.hills:
        return f"sigma={Permutation(word)}: matches={count}, hills={path_stats.hills}"


# Members of the walk pass: (first n, failure of one 132-avoider's word from
# its (e,0,e,0) match count and its path's stats).
_WALK_CHECKS = MappingProxyType({
    "lemma-p1-2": (1, _first_return_failure),
    "hill-correspondence": (0, _hill_failure),
})

_HILL_SPEC = QuadrantSpec(EMPTY, 0, EMPTY, 0)


def _walk_certified(n: int) -> bool:
    """Whether every 132-avoider of length n passes every check of the walk pass.

    A state is a prefix's ``used`` bitmask, the height and the D steps of
    its staircase so far (from ``dyck._stair``) and whether that has
    returned to the diagonal, packed into one int: what
    ``_stats(_staircase(word))`` reads of the prefix.  Under the true step
    the last three are functions of ``used``.  A move fails lemma-p1-2 when,
    before the first return, "this column is a return" differs from "this
    is value n", and hill-correspondence when whether it matches
    ``(e,0,e,0)`` differs from its hill bit (their sums could still agree;
    the per-avoider loop decides).  A step off the grid is left to that loop.
    """
    window = _window(_HILL_SPEC, n)
    stair = dyck._stair
    full, bits = (1 << n + 1) - 2, (n + 1).bit_length()
    ones = (1 << bits) - 1

    def step(i: int, state: int) -> list[int] | None:
        returned, down, height = state & 1, state >> 1 & ones, state >> 1 + bits & ones
        used = state >> 1 + 2 * bits
        children = []
        moves = catalan_moves(used, full, P132.word)
        while moves:
            bit = moves & -moves
            moves ^= bit
            v = bit.bit_length() - 1
            run, after = stair(height, v)
            below = down + run
            if not (run >= 0 and 0 <= after <= n and below <= n):
                return None
            ret = below == i + 1
            if not returned and ret != (v == n):
                return None
            tallies = _append_tallies(n, i, v, (used >> v).bit_count())
            if _in_window(tallies, window) != (run > 0 and ret):
                return None
            child = ((used | bit) << bits | after) << bits | below
            children.append(child << 1 | (returned or ret))
        return children

    return _levels(n, n << bits + 1, step)


def _walk_failures(n: int) -> dict[str, list[str]]:
    """The walk-pass members' first failures at n, avoider by avoider from the
    definitions: its (e,0,e,0) matches from its quadrant tallies and its
    path's stats from its staircase, without phi's 132 scan."""
    checks = {sid: failure for sid, (first, failure) in _WALK_CHECKS.items() if first <= n}
    failed: dict[str, list[str]] = {sid: [] for sid in checks}
    for sigma in avoiders(n, P132):
        count = mmp_count(sigma, _HILL_SPEC)
        path_stats = dyck._stats(dyck._staircase(sigma.word))
        for sid, failure in checks.items():
            if not failed[sid] and (text := failure(sigma.word, count, path_stats)):
                failed[sid].append(text)
    return failed


def _walk_pass(max_n: int) -> dict[str, VerificationReport]:
    """Reports of the walk-pass members, each from its first n on: per n,
    :func:`_walk_certified`, or the per-avoider :func:`_walk_failures` where
    that does not certify the n."""
    cells = {sid: _Cells() for sid in _WALK_CHECKS}
    for n in range(max_n + 1):
        failed = {} if _walk_certified(n) else _walk_failures(n)
        for sid, (first, _) in _WALK_CHECKS.items():
            if first <= n:
                cells[sid].check(f"n={n}", failed.get(sid, []))
    return {sid: c.report(sid) for sid, c in cells.items()}


# The shared passes: (pass, its members, their default depth).
_PASSES = (
    (_path_pass, (*_PATH_CHECKS, "match-preservation"), 9),
    (_walk_pass, tuple(_WALK_CHECKS), 9),
)


def _pass_subject(run, sid: str, max_n: int) -> VerificationReport:
    return run(max_n)[sid]


def check_conjecture1(k_max: int = 4, trunc: int = 11) -> VerificationReport:
    """Coefficient-wise comparison of the (0,k,EMPTY,0) and (1,k-1,EMPTY,0)
    series, by engines to t^trunc and against brute force to t^min(trunc, 9)."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if trunc < 0:
        raise ValueError("trunc must be nonnegative")
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


_SUBJECTS: Mapping[str, tuple[Callable[[int], VerificationReport], int]] = MappingProxyType({
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
    **{
        sid: (partial(_pass_subject, run, sid), depth)
        for run, members, depth in _PASSES
        for sid in members
    },
    "conjecture-1": (_subject_conjecture_1, 11),
})


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


def _check_depth(max_n: int | None) -> None:
    # a negative depth checks no object, and a subject would report PASS
    if max_n is not None and max_n < 0:
        raise ValueError("max_n must be nonnegative")


def verify(subject_id: str, max_n: int | None = None) -> VerificationReport:
    """Run one verification subject over its (possibly capped) default grid."""
    _check_depth(max_n)
    sid = _canonical_subject(subject_id)
    fn, default_n = _SUBJECTS[sid]
    return fn(default_n if max_n is None else max_n)


def verify_all(max_n: int | None = None) -> list[VerificationReport]:
    """Run every subject, each shared pass once for all its members;
    per-subject defaults apply when max_n is None."""
    _check_depth(max_n)
    reports: dict[str, VerificationReport] = {}
    for run, members, depth in _PASSES:
        reports.update(run(depth if max_n is None else max_n))
    return [reports[sid] if sid in reports else verify(sid, max_n) for sid in subject_ids()]
