"""Brute-force ground truth and the verification harness.

The oracle side of every comparison is direct enumeration through
:mod:`qmmp.perm` and :mod:`qmmp.mmp` only; it never touches the series or
engine code paths, which is what makes an engine-vs-oracle pass meaningful
evidence.  Each verification *subject* checks one implemented identity over
an explicit parameter grid and reports one cell per grid point, carrying a
concrete counterexample whenever a cell fails.

Every subject is a generator in one registry, ``_SUBJECTS``, and one runner,
:func:`_drive`, runs them.  The subjects that compare oracle distributions
with an engine, with one another or with a formula (theorem-2/6..11,
conjecture-1, corollary-1, theorem-3, the top-coefficient subjects,
theorem-14..18 and lemma-sym/lemma-sym2) ask for them instead of fetching
them: :func:`_drive` serves all of their length-n requests, theorem-11's
peak / non-peak pairs among them, from one deduplicated set of lane-packed
walks per class.  Those whose cells say that two distributions are equal
(corollary-1, lemma-sym, lemma-sym2, theorem-2/6..11 and conjecture-1) are
lists of rows, each two sides and a cell, run by one loop, :func:`_compare`.
The band subjects and the two bijection passes ask for nothing and finish
at its first step: each certifies its checks from one pass over the prefix
states per n (the band subjects from the tally rows that pass meets), and
checks object by object only what that does not certify.
"""

from __future__ import annotations

import itertools
from functools import partial
from types import MappingProxyType
from typing import Callable, Generator, Mapping

from . import dyck, gf, mmp
from .mmp import (
    EMPTY,
    QuadrantSpec,
    _admits,
    _append_tallies,
    _in_window,
    _window,
    corner_frame_counts,
    distribution,
    mmp_count,
    quadrant_rows,
)
from .perm import P123, P132, Permutation, _Frozen, avoiders, catalan_moves
from .series import TSeries, catalan


def class_from_text(text: str) -> Permutation:
    """Map "123"/"132" to the corresponding pattern permutation."""
    if text == "123":
        return P123
    if text == "132":
        return P132
    raise ValueError(f"unsupported avoidance class {text!r}: only 123 and 132")


def brute_series(tau: Permutation, spec: QuadrantSpec, trunc: int) -> TSeries:
    """Match-count series computed by direct enumeration of the avoidance class.

    Each degree's mass must be C_n, one count per avoider; a walk that
    drops or repeats a path raises ``ArithmeticError`` naming the degree.
    """
    if trunc < 0:
        raise ValueError("trunc must be nonnegative")
    polys = [distribution(n, tau, spec) for n in range(trunc + 1)]
    for n, poly in enumerate(polys):
        mass = poly.mass()
        if mass != catalan(n):
            raise ArithmeticError(
                f"t^{n} coefficient has mass {mass}, not C_{n}: the walk lost or repeated a path"
            )
    return TSeries(polys)


# ---------------------------------------------------------------------------
# Reports


class CellResult(_Frozen):
    """One grid point's verdict: ``cell``, ``status`` ("pass", "fail" or
    "skip") and ``detail``, all str."""

    __slots__ = ("cell", "status", "detail")

    def __init__(self, cell, status, detail="") -> None:
        self._set(cell, status, detail)


class VerificationReport(_Frozen):
    """A ``subject`` (a str) and its ``cells``, a ``tuple[CellResult, ...]``."""

    __slots__ = ("subject", "cells")

    def __init__(self, subject, cells) -> None:
        self._set(subject, cells)

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
    """A subject's ledger: its cells in grid order, as declared, each a pass
    with its scope until a failure replaces it; only the first counterexample
    of a cell is kept."""

    def __init__(self, cells=(), scope: str = "") -> None:
        self._cells = {cell: CellResult(cell, "pass", scope) for cell in cells}

    def add(self, cell: str, scope: str = "") -> None:
        self._cells[cell] = CellResult(cell, "pass", scope)

    def skip(self, cell: str, reason: str) -> None:
        self._cells[cell] = CellResult(cell, "skip", reason)

    def failed(self, cell: str) -> bool:
        return self._cells[cell].status == "fail"

    def fail(self, cell: str, text: str) -> None:
        if not self.failed(cell):
            self._cells[cell] = CellResult(cell, "fail", text)

    def report(self, subject: str) -> VerificationReport:
        return VerificationReport(subject, tuple(self._cells.values()))


def _poly_eq(cells: _Cells, cell: str, label: str, got, want) -> None:
    if got != want:
        cells.fail(cell, f"{label}: got {got.render()}, expected {want.render()}")


# ---------------------------------------------------------------------------
# Subjects

# A subject, run by _drive: it returns its report, or a shared pass a dict of
# its members' reports.
_Subject = Generator[tuple[int, list], dict, "VerificationReport | dict[str, VerificationReport]"]


def _oracle_at(n: int, wanted) -> dict:
    """The length-n distribution of each request key in ``wanted``, keyed by it.

    A key is ``(class, spec)``, or ``(None, (k1, k2))`` for the pair's peak /
    non-peak :class:`~qmmp.series.BiPoly` over 123-avoiders.  Each class's
    distinct keys, in the order first asked for, share the lane-packed walks
    of one :func:`qmmp.mmp.distributions` or
    :func:`qmmp.mmp.bivariate_distributions` call, looked up at call time.
    """
    groups = {P123: {}, P132: {}, None: {}}
    for tau, key in wanted:
        groups[tau][key] = None
    out = {}
    for tau, keys in groups.items():
        keys = list(keys)
        polys = mmp.distributions(n, tau, keys) if tau else mmp.bivariate_distributions(n, keys)
        out.update(zip([(tau, key) for key in keys], polys))
    return out


def _drive(subjects: list) -> list:
    """The return values of the subjects ``subjects``, run together, in order.

    A subject is a generator that yields ``(n, [key, ...])`` once per n, n
    rising, each key an :func:`_oracle_at` request, is sent the mapping from
    each of those keys to its length-n distribution, and returns its report;
    one that asks for nothing returns at the first step.  Each step serves
    every subject waiting at the smallest n, in order, from one
    :func:`_oracle_at` call, so a key that several subjects ask for is
    walked once.  The mapping is cleared after the step: a suspended subject
    keeps no earlier n's polynomials alive through the next walks.
    """
    reports: list = [None] * len(subjects)
    asks: dict[int, tuple[int, list]] = {}
    due = list(range(len(subjects)))
    polys = None
    while True:
        for i in due:
            try:
                asks[i] = subjects[i].send(polys)
            except StopIteration as done:
                reports[i] = done.value
        if polys is not None:
            polys.clear()
        if not asks:
            return reports
        n = min(n for n, _ in asks.values())
        due = [i for i, (m, _) in sorted(asks.items()) if m == n]
        polys = _oracle_at(n, [key for i in due for key in asks.pop(i)[1]])


def _compare(cells: _Cells, rows: list, max_n: int) -> Generator[tuple[int, list], dict, None]:
    """Record the failures of ``rows`` in ``cells``, over n <= max_n, for a
    subject to ``yield from``.

    A row is ``(cell, label, got, want)``, and each side is an
    :func:`_oracle_at` key or a function of n, such as an engine series' ``poly``.
    Each n's distributions of the rows' distinct keys are asked for in one
    request; rows without a key ask for nothing.
    """
    wanted = list(dict.fromkeys(side for row in rows for side in row[2:] if not callable(side)))
    for n in range(max_n + 1):
        polys = (yield n, wanted) if wanted else {}
        for cell, label, got, want in rows:
            got = got(n) if callable(got) else polys[got]
            want = want(n) if callable(want) else polys[want]
            _poly_eq(cells, cell, f"n={n}{label}", got, want)


def _subject_corollary_1(max_n: int) -> _Subject:
    # each variant of (k, l, m) has the distribution of (k,l,0,m) over 123-avoiders
    rows = []
    for k, ell, m in itertools.product(range(1, 3), range(3), range(3)):
        variants = {
            " 123 (k,l,e,m)": (P123, QuadrantSpec(k, ell, EMPTY, m)),
            " 132 (k,l,e,m)": (P132, QuadrantSpec(k, ell, EMPTY, m)),
            " 123 (0,m,k,l)": (P123, QuadrantSpec(0, m, k, ell)),
            " 123 (e,m,k,l)": (P123, QuadrantSpec(EMPTY, m, k, ell)),
        }
        base = (P123, QuadrantSpec(k, ell, 0, m))
        rows += [(f"k={k},l={ell},m={m}", label, key, base) for label, key in variants.items()]
    cells = _Cells((row[0] for row in rows), f"n<={max_n}")
    yield from _compare(cells, rows, max_n)
    return cells.report("corollary-1")


def _subject_theorem_3(max_n: int) -> _Subject:
    # The x^0 and x^1 agreement claims get separate cells; each failing cell
    # carries its first counterexample.  Over 132-avoiders, for all k, l, m:
    # (i) every empty-slot match is a zero-slot match, and the smallest entry
    # left of a zero-slot match that is not a left-to-right minimum is an
    # empty-slot match, so the x^0 coefficients agree for every n; (ii) the
    # x^1 coefficients satisfy empty-slot >= zero-slot, with equality for
    # n < k+l+m+2; (iii) they differ at n = k+l+m+2, so every x^1 cell fails
    # there (see gf.KNOWN_ERRATA).
    pairs = {
        f"k={k},l={ell},m={m}": [(P132, QuadrantSpec(k, ell, slot, m)) for slot in (EMPTY, 0)]
        for k in range(3)
        for ell in range(3)
        for m in range(3)
    }
    wanted = [key for pair in pairs.values() for key in pair]
    cells = _Cells([f"{cell},x^{e}" for cell in pairs for e in (0, 1)], f"n<={max_n}")
    for n in range(max_n + 1):
        polys = yield n, wanted
        for cell, (empty, zero) in pairs.items():
            for e in (0, 1):
                if (left := polys[empty].coeff(e)) != (right := polys[zero].coeff(e)):
                    cells.fail(f"{cell},x^{e}", f"n={n}: empty-slot {left}, zero-slot {right}")
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


def _top_coeff_subject(subject: str, max_n: int) -> _Subject:
    grid, spec_of = _TOP_COEFF_GRIDS[subject]
    cells = _Cells()
    rows = []
    for params in grid:
        lo = sum(params) + 1
        label = ",".join(f"{name}={v}" for name, v in zip("klm", params))
        if lo > max_n:
            cells.skip(label, f"threshold n>={lo} exceeds max_n={max_n}")
        else:
            cells.add(label, f"{lo}<=n<={max_n}")
        rows.append((params, spec_of(*params), label))
    for n in range(max_n + 1):
        # the top degree is n - sum(params), from n = sum(params) + 1 on
        live = [row for row in rows if sum(row[0]) < n]
        polys = yield n, [(tau, spec) for _, spec, _ in live for tau in (P123, P132)]
        for params, spec, label in live:
            expo = n - sum(params)
            k, ell, m = (*params, 0, 0)[:3]
            want = gf.extremal_coeff(subject, k, ell, m, n)
            for text in ("123", "132"):
                got = polys[class_from_text(text), spec].coeff(expo)
                if got != want:
                    cells.fail(label, f"n={n} {text} x^{expo}: got {got}, expected {want}")
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


def _engine_subject(subject: str, max_n: int) -> _Subject:
    names, grid, spec_of = _ENGINE_GRIDS[subject]
    rows = []
    for params in grid:
        spec = spec_of(*params)
        label = ",".join(f"{name}={v}" for name, v in zip(names, params))
        engine = gf.engine_series("132", spec, max_n, "recurrence")
        rows.append((label, "", engine.poly, (P132, spec)))
    cells = _Cells((row[0] for row in rows), f"n<={max_n}")
    yield from _compare(cells, rows, max_n)
    return cells.report(subject)


def _subject_theorem_11(max_n: int) -> _Subject:
    rows = [
        (f"k1={k1},k2={k2}", "", gf.q123_bivariate(k1, k2, max_n).poly, (None, (k1, k2)))
        for k1 in range(7) for k2 in range(7 - k1)
    ]
    rows += [
        (f"specialized k={k}", "", gf.q123_0k00(k, max_n).poly, (P123, QuadrantSpec(0, k, 0, 0)))
        for k in range(7)
    ]
    cells = _Cells((row[0] for row in rows), f"n<={max_n}")
    yield from _compare(cells, rows, max_n)
    return cells.report("theorem-11")


def _band_values(n: int, pairs: tuple[tuple[int, int], ...]) -> list[tuple[bool, int, int]]:
    """Per ``(k, l)`` pair, ``(violated, R, C)`` over the length-n 123-avoiders.

    ``violated`` says whether some point of some avoider is a *violation*,
    one whose ``(0,k,0,l)`` match bit equals its frame bit.  Both bits
    depend only on the point's tallies (q1, q2, q3, q4), since it sits at
    position q2 + q3 + 1 with value n - q1 - q2, so one
    :func:`qmmp.mmp._packed_histogram` walk collects the rows it asks its
    ``entry`` for, which are the rows of the avoiders' points, and each row
    is checked for every pair at once, one bit per pair, with match bits
    from ``_admits``.  R and C count the rows in a row band and the columns
    in a column band (:func:`qmmp.mmp._bands`, looked up at call time): a
    row band is a set of rows and a column band a set of columns, so one
    ``_bands(i, i, ...)`` per index gives row i by value and column i by
    position.
    """
    tallies: set[tuple[int, int, int, int]] = set()
    mmp._packed_histogram(n, P123.word, 1, lambda *q: tallies.add(q) or 0)
    units = [1 << p for p in range(len(pairs))]
    # per index i, the pairs whose row band holds row i and column band column i
    rows, columns = [0] * (n + 1), [0] * (n + 1)
    for i in range(1, n + 1):
        for bit, (k, ell) in zip(units, pairs):
            row, column = mmp._bands(i, i, n, k, ell)
            rows[i] |= row and bit
            columns[i] |= column and bit
    a1, a2, a3, a4 = _admits([_window(QuadrantSpec(0, k, 0, ell), n) for k, ell in pairs], units, n)
    violated = 0
    for q1, q2, q3, q4 in tallies:
        frame = rows[n - q1 - q2] | columns[q2 + q3 + 1]
        violated |= ~(a1[q1] & a2[q2] & a3[q3] & a4[q4] ^ frame)
    return [
        (bool(violated & bit), sum(b & bit > 0 for b in rows), sum(b & bit > 0 for b in columns))
        for bit in units
    ]


def _theorem_12_holds(n: int, k: int, ell: int, r: int, s: int, count: int) -> bool:
    """The fast count, the n - s points off the frame, equals the match count."""
    return n - s == count


def _theorem_13_holds(n: int, k: int, ell: int, r: int, s: int, count: int) -> bool:
    """For n > k+l: r <= k+l, r + s = 2(k+l) and count + s = n; else count = 0."""
    kl = k + ell
    return count == 0 if n <= kl else r <= kl and r + s == 2 * kl and count + s == n


def _theorem_12_certified(n: int, k: int, ell: int, violated: bool, R: int, C: int) -> bool:
    """No point of any avoider is a violation, so each avoider's match count
    is its n - s points off the frame."""
    return not violated


def _theorem_13_certified(n: int, k: int, ell: int, violated: bool, R: int, C: int) -> bool:
    """Every avoider has count = n - s, as in theorem-12's certificate, and,
    with one point per row and one per column, R points in a row band and C
    in a column band.  For n <= k+l, C = n puts every point in the frame, so
    count = 0.  Otherwise, at each point corner + frame = row + column, so
    r + s = R + C = 2(k+l), and r <= R = k+l since a corner lies in a row
    band."""
    kl = k + ell
    return not violated and (C == n if n <= kl else R == C == kl)


# Band subjects: (pairs, the certificate certified(n, k, l, violated, R, C),
# the theorem's predicate holds(n, k, l, r, s, count) on one avoider, the
# failure text from (sigma, n, r, s, count)).
_BAND_GRIDS = MappingProxyType({
    "theorem-12": (
        tuple((k, ell) for k in range(3) for ell in range(3)),
        _theorem_12_certified,
        _theorem_12_holds,
        lambda sigma, n, r, s, count: f"sigma={sigma}: fast={n - s}, direct={count}",
    ),
    "theorem-13": (
        tuple((k, ell) for k in range(4) for ell in range(4)),
        _theorem_13_certified,
        _theorem_13_holds,
        lambda sigma, n, r, s, count: f"sigma={sigma}: r={r}, s={s}, count={count}",
    ),
})


def _band_subject(subject: str, max_n: int) -> VerificationReport:
    """Check ``holds(n, k, l, r, s, count)`` for every pair on every 123-avoider with n <= max_n.

    Per n, one walk (:func:`_band_values`) gives each pair's violation bit
    and band sizes, and a pair that meets the subject's certificate holds
    on every avoider.  Only a pair that is not certified is checked avoider
    by avoider in lexicographic order, from
    :func:`qmmp.mmp.corner_frame_counts` and ``mmp_count``, which decides
    and names its first counterexample; a pair that has failed is not
    tested again.
    """
    pairs, certified, holds, describe = _BAND_GRIDS[subject]
    cell_of = {(k, ell): f"k={k},l={ell}" for k, ell in pairs}
    cells = _Cells(cell_of.values(), f"n<={max_n}")
    for n in range(max_n + 1):
        failing = [
            pair
            for pair, values in zip(pairs, _band_values(n, pairs))
            if not cells.failed(cell_of[pair]) and not certified(n, *pair, *values)
        ]
        for sigma in avoiders(n, P123) if failing else ():
            for k, ell in failing:
                r, s = corner_frame_counts(sigma, k, ell)
                count = mmp_count(sigma, QuadrantSpec(0, k, 0, ell))
                if not holds(n, k, ell, r, s, count):
                    cells.fail(cell_of[k, ell], describe(sigma, n, r, s, count))
            failing = [pair for pair in failing if not cells.failed(cell_of[pair])]
            if not failing:
                break
    return cells.report(subject)


def _closed_subject(subject: str, k: int, ell: int, max_n: int) -> _Subject:
    threshold = gf._CLOSED_0K0L_THRESHOLD[(k, ell)]
    cells = _Cells(f"n={n}" for n in range(threshold, max_n + 1))
    if threshold > max_n:
        cells.skip(f"k={k},l={ell}", f"threshold n>={threshold} exceeds max_n={max_n}")
    key = (P123, QuadrantSpec(0, k, 0, ell))
    for n in range(threshold, max_n + 1):
        polys = yield n, [key]
        _poly_eq(cells, f"n={n}", f"n={n}", gf.closed_poly_0k0l(k, ell, n), polys[key])
    return cells.report(subject)


_SYM_COORDS = (0, 1, 2, EMPTY)

# Symmetry subjects: (class, image of (a, b, c, d), slot loop order, outermost
# first).  A cell compares a spec with its image and is kept when the spec's
# key, its slots ranked in _SYM_COORDS order, sorts before the image's key.
_SYM_GRIDS = MappingProxyType({
    "lemma-sym": (P132, lambda a, b, c, d: (a, d, c, b), "acbd"),
    "lemma-sym2": (P123, lambda a, b, c, d: (c, d, a, b), "abcd"),
})


def _sym_subject(subject: str, max_n: int) -> _Subject:
    tau, image_of, loop_order = _SYM_GRIDS[subject]
    rank = {v: i for i, v in enumerate(_SYM_COORDS)}
    rows = []
    for slots in itertools.product(_SYM_COORDS, repeat=4):
        spec = QuadrantSpec(**dict(zip(loop_order, slots)))
        image = QuadrantSpec(*image_of(*spec.coords))
        if [rank[v] for v in spec.coords] < [rank[v] for v in image.coords]:
            rows.append((f"spec={spec}", "", (tau, spec), (tau, image)))
    cells = _Cells((row[0] for row in rows), f"n<={max_n}")
    yield from _compare(cells, rows, max_n)
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

    Each image has its own level pass over the prefixes, empty or ending
    with R: a state packs the D steps, the image's ``used`` bitmask and, for
    psi, its last non-corner value.  Every prefix extends to a path word and
    every word is a path through the states, so a word fails only at a move:
    a value outside 1..n or placed before, a corner (entry ``i + 1``, after
    ``below`` D steps) whose q2, q1 are not ``i, below - i - 1`` (lemma-p1-3,
    lemma-p2-3), another column with q2 = i, or a psi non-corner above the
    last one (lemma-p2-2).

    That proves match-preservation: every ``_MATCH_SPECS`` spec has c = EMPTY,
    so only a point with q3 = 0 can match.  A corner's tallies are
    ``(below - i - 1, i, 0, n - below)`` on both images, fixed by
    ``(n, i, below)``, and any other column has q3 >= 1 and matches nothing,
    so on every word the two images match each spec equally often.
    """
    column, bits = dyck._column, (n + 1).bit_length()
    ones = (1 << bits) - 1

    def step(fill, rises: bool, i: int, state: int) -> list[int] | None:
        last, down, used = state & ones, state >> bits & ones, state >> 2 * bits
        children = []
        for d in range(max(0, i + 1 - down), n - down + 1):
            below = down + d
            v = column(used, below, d > 0, n, fill)
            if not 0 < v <= n or used >> v & 1:
                return None
            q2 = (used >> v).bit_count()
            if (q2, n - v - q2) != (i, below - i - 1) if d else q2 == i or rises and v > last:
                return None
            placed = (used | 1 << v) << bits | below
            children.append(placed << bits | (v if rises and not d else last))
        return children

    fills = ((dyck._lowest_free, False), (dyck._highest_free, True))
    return all(_levels(n, n + 1, partial(step, fill, rises)) for fill, rises in fills)


def _path_failures(n: int):
    """The path-pass members' first failures at n, word by word from the definitions.

    Each word's two images come from ``dyck._place``, which raises the
    column rule's ValueError at the first word whose image is not exactly
    1..n.  Returns the first failure text of each failing path check by
    subject, and of each failing match-preservation spec by spec.
    """
    windows = [_window(spec, n) for spec in _MATCH_SPECS]
    failed: dict[str, str] = {}
    matched: dict[QuadrantSpec, str] = {}
    for word in _path_words(n):
        images = []
        for fill in (dyck._lowest_free, dyck._highest_free):
            values = dyck._place(word, n, fill)
            images.append((values, quadrant_rows(values)))
        for sid, (image, failure) in _PATH_CHECKS.items():
            if sid not in failed and (text := failure(word, *images[image])):
                failed[sid] = text
        for spec, window in zip(_MATCH_SPECS, windows):
            lhs, rhs = (sum(_in_window(q, window) for q in rows) for _, rows in images)
            if lhs != rhs and spec not in matched:
                matched[spec] = f"path={word}: 132-side {lhs}, 123-side {rhs}"
    return failed, matched


def _path_pass(max_n: int) -> dict[str, VerificationReport]:
    """Reports of the path-pass members: per n, :func:`_path_certified`, or
    the per-word :func:`_path_failures` where that does not certify the n."""
    cells = {sid: _Cells(f"n={n}" for n in range(max_n + 1)) for sid in _PATH_CHECKS}
    cells["match-preservation"] = _Cells((f"spec={s}" for s in _MATCH_SPECS), f"n<={max_n}")
    for n in range(max_n + 1):
        failed, matched = ({}, {}) if _path_certified(n) else _path_failures(n)
        for sid, text in failed.items():
            cells[sid].fail(f"n={n}", text)
        for spec, text in matched.items():
            cells["match-preservation"].fail(f"spec={spec}", text)
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


def _walk_failures(n: int) -> dict[str, str]:
    """The first failure text of each failing walk-pass member at n, avoider
    by avoider from the definitions: its (e,0,e,0) matches from its quadrant
    tallies and its path's stats from its staircase, without phi's 132 scan."""
    checks = {sid: failure for sid, (first, failure) in _WALK_CHECKS.items() if first <= n}
    failed: dict[str, str] = {}
    for sigma in avoiders(n, P132):
        count = mmp_count(sigma, _HILL_SPEC)
        path_stats = dyck._stats(dyck._staircase(sigma.word))
        for sid, failure in checks.items():
            if sid not in failed and (text := failure(sigma.word, count, path_stats)):
                failed[sid] = text
    return failed


def _walk_pass(max_n: int) -> dict[str, VerificationReport]:
    """Reports of the walk-pass members, each from its first n on: per n,
    :func:`_walk_certified`, or the per-avoider :func:`_walk_failures` where
    that does not certify the n.  A member whose first n exceeds max_n
    skips it."""
    cells = {}
    for sid, (first, _) in _WALK_CHECKS.items():
        cells[sid] = _Cells(f"n={n}" for n in range(first, max_n + 1))
        if first > max_n:
            cells[sid].skip(f"n={first}", f"threshold n>={first} exceeds max_n={max_n}")
    for n in range(max_n + 1):
        for sid, text in ({} if _walk_certified(n) else _walk_failures(n)).items():
            cells[sid].fail(f"n={n}", text)
    return {sid: c.report(sid) for sid, c in cells.items()}


# conjecture-1's default grid: k <= CONJECTURE_K_MAX, to t^CONJECTURE_TRUNC
CONJECTURE_K_MAX, CONJECTURE_TRUNC = 4, 11


def check_conjecture1(
    k_max: int = CONJECTURE_K_MAX, trunc: int = CONJECTURE_TRUNC
) -> VerificationReport:
    """Coefficient-wise comparison of the (0,k,EMPTY,0) and (1,k-1,EMPTY,0)
    series, by engines to t^trunc and against brute force to t^min(trunc, 9)."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if trunc < 0:
        raise ValueError("trunc must be nonnegative")
    return _drive([_subject_conjecture_1(k_max, trunc)])[0]


def _subject_conjecture_1(k_max: int, trunc: int) -> _Subject:
    brute_to = min(trunc, 9)
    cells = _Cells()
    engines, rows = [], []
    for k in range(1, k_max + 1):
        specs = QuadrantSpec(0, k, EMPTY, 0), QuadrantSpec(1, k - 1, EMPTY, 0)
        left, right = (gf.engine_series("132", spec, trunc).poly for spec in specs)
        cells.add(f"k={k},engines", f"n<={trunc}")
        cells.add(f"k={k},oracle", f"n<={brute_to}")
        engines.append((f"k={k},engines", "", left, right))
        rows += [
            (f"k={k},oracle", " (0,k,e,0)", left, (P132, specs[0])),
            (f"k={k},oracle", " (1,k-1,e,0)", right, (P132, specs[1])),
        ]
    yield from _compare(cells, engines, trunc)
    yield from _compare(cells, rows, brute_to)
    return cells.report("conjecture-1")


# ---------------------------------------------------------------------------
# Registry


def _unpooled(run, *args) -> _Subject:
    """A subject that asks for no distribution: ``run(*args)``'s report, at
    :func:`_drive`'s first step."""
    return run(*args)
    yield  # makes this a generator


# Every subject: (generator function of max_n, run by _drive; default depth).
# The members of a shared pass share one function, which returns a dict of
# their reports.  The subjects that ask for no distribution come first, so
# they finish before any pooled subject builds its engine series.
_SUBJECTS: Mapping[str, tuple[Callable[[int], _Subject], int]] = MappingProxyType({
    **dict.fromkeys((*_PATH_CHECKS, "match-preservation"), (partial(_unpooled, _path_pass), 9)),
    **dict.fromkeys(_WALK_CHECKS, (partial(_unpooled, _walk_pass), 9)),
    "theorem-12": (partial(_unpooled, _band_subject, "theorem-12"), 8),
    "theorem-13": (partial(_unpooled, _band_subject, "theorem-13"), 10),
    "corollary-1": (_subject_corollary_1, 8),
    "theorem-3": (_subject_theorem_3, 9),
    **{sid: (partial(_top_coeff_subject, sid), 9) for sid in _TOP_COEFF_GRIDS},
    "theorem-14": (partial(_closed_subject, "theorem-14", 1, 0), 9),
    "theorem-15": (partial(_closed_subject, "theorem-15", 2, 0), 9),
    "theorem-16": (partial(_closed_subject, "theorem-16", 1, 1), 9),
    "theorem-17": (partial(_closed_subject, "theorem-17", 2, 1), 9),
    "theorem-18": (partial(_closed_subject, "theorem-18", 2, 2), 9),
    "lemma-sym": (partial(_sym_subject, "lemma-sym"), 9),
    "lemma-sym2": (partial(_sym_subject, "lemma-sym2"), 8),
    **{sid: (partial(_engine_subject, sid), 9) for sid in _ENGINE_GRIDS},
    "theorem-11": (_subject_theorem_11, 9),
    "conjecture-1": (partial(_subject_conjecture_1, CONJECTURE_K_MAX), CONJECTURE_TRUNC),
})


def _run(entries, max_n: int | None) -> dict[str, VerificationReport]:
    """The reports, by subject, of the registry ``entries`` driven together,
    each distinct function once, at ``max_n`` or else its default depth."""
    runs = {fn: default_n if max_n is None else max_n for fn, default_n in entries}
    reports: dict[str, VerificationReport] = {}
    for done in _drive([fn(depth) for fn, depth in runs.items()]):
        reports.update(done if isinstance(done, dict) else {done.subject: done})
    return reports


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
    return _run([_SUBJECTS[sid]], max_n)[sid]


def verify_all(max_n: int | None = None) -> list[VerificationReport]:
    """Run every subject, each distinct registry function once (a shared pass
    once for all its members); per-subject defaults apply when max_n is None."""
    _check_depth(max_n)
    reports = _run(_SUBJECTS.values(), max_n)
    return [reports[sid] for sid in subject_ids()]
