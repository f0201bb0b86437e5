"""Output checks shared by the benchmark runner, its worker and the pinning script.

An *op* is one checked output: one rendered ``t^n`` line of a series (one
``(class, spec, n)`` polynomial) or one line of the ``verify all`` transcript.
Series lines are pinned by digest, transcript lines verbatim.
"""

from __future__ import annotations

import hashlib
import math


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


class Checker:
    """Compares each op, in order, with its pinned value.

    A series op passes when its line's digest matches and its polynomial's
    mass is the Catalan number of its degree; a transcript op passes when the
    line matches verbatim.  Missing and surplus ops count as failed.
    """

    def __init__(self, expected: list[str], verbatim: bool = False) -> None:
        self.expected = expected
        self.verbatim = verbatim
        self.seen = 0
        self.failed = 0
        self.mismatches: list[str] = []
        self._outputs = hashlib.sha256()

    def series_line(self, line: str, mass: int, n: int) -> None:
        self._check(line, mass == catalan(n))

    def line(self, line: str) -> None:
        self._check(line, True)

    def _check(self, text: str, extra_ok: bool) -> None:
        self._outputs.update(text.encode() + b"\n")
        i = self.seen
        self.seen += 1
        want = self.expected[i] if i < len(self.expected) else None
        got = text if self.verbatim else digest(text)
        if got != want or not extra_ok:
            self.failed += 1
            if len(self.mismatches) < 3:
                self.mismatches.append(f"op {i}: got {text[:120]!r}")

    def result(self) -> dict:
        missing = max(0, len(self.expected) - self.seen)
        return {
            "ops": max(self.seen, len(self.expected)),
            "failed": self.failed + missing,
            "mismatches": self.mismatches,
            "outputs": self._outputs.hexdigest(),
        }
