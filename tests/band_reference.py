"""Theorem-12/13 report lines computed avoider by avoider, as a reference
independent of the oracle's packed fields and of its prefix-state pass."""

from qmmp.mmp import QuadrantSpec, mmp_count
from qmmp.perm import P123, avoiders

BAND_PAIRS = {
    "theorem-12": [(k, ell) for k in range(3) for ell in range(3)],
    "theorem-13": [(k, ell) for k in range(4) for ell in range(4)],
}


def _failure(subject, sigma, k, ell, bands):
    n = sigma.n
    r = s = 0
    for j, v in enumerate(sigma.word, start=1):
        row, column = bands(j, v, n, k, ell)
        r += row and column
        s += row or column
    count = mmp_count(sigma, QuadrantSpec(0, k, 0, ell))
    if subject == "theorem-12":
        if n - s != count:
            return f"sigma={sigma}: fast={n - s}, direct={count}"
    elif count if n <= k + ell else r > k + ell or r + s != 2 * (k + ell) or count + s != n:
        return f"sigma={sigma}: r={r}, s={s}, count={count}"
    return None


def band_lines(subject, max_n, bands):
    """The report lines of ``subject`` to ``max_n``: per pair, the first failing
    avoider by length, then in lexicographic order."""
    perms = [sigma for n in range(max_n + 1) for sigma in avoiders(n, P123)]
    lines = []
    for k, ell in BAND_PAIRS[subject]:
        failures = (_failure(subject, sigma, k, ell, bands) for sigma in perms)
        first = next((f for f in failures if f), None)
        status, detail = ("fail", first) if first else ("pass", f"n<={max_n}")
        lines.append(f"{subject}; k={k},l={ell}; {status}; {detail}")
    return lines
