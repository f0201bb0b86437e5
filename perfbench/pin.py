"""Pin the reference outputs the benchmark checks every op against.

Run from the repository root: ``python3 perfbench/pin.py``.  It rewrites
``perfbench/reference/*.json`` from the ``src`` tree it finds there; run it
only at a commit whose outputs are known good.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import worker  # noqa: E402
from checks import catalan, digest  # noqa: E402

ENGINES_TRUNC = 40
BRUTE_TRUNC = 11


class Recorder:
    """Collects each op's pinned value; refuses a polynomial of wrong mass."""

    def __init__(self) -> None:
        self.values: list[str] = []

    def series_line(self, line: str, mass: int, n: int) -> None:
        if mass != catalan(n):
            raise SystemExit(f"mass {mass} != catalan({n}) at {line[:60]!r}")
        self.values.append(digest(line))

    def line(self, line: str) -> None:
        self.values.append(line)


def pin_series(run, inputs, trunc) -> list[list]:
    out = []
    for item in inputs:
        rec = Recorder()
        run([item], trunc, rec)
        out.append([*item, rec.values])
    return out


def main() -> None:
    ref = HERE / "reference"
    ref.mkdir(exist_ok=True)
    specs = worker.paper_specs()
    engines = {"trunc": ENGINES_TRUNC, "specs": pin_series(worker.engines_deep, specs, ENGINES_TRUNC)}
    pool = worker.uncovered_specs()
    brute = {
        "trunc": BRUTE_TRUNC,
        "pool": {
            avoid: pin_series(worker.brute_deep, [[avoid, s] for s in texts], BRUTE_TRUNC)
            for avoid, texts in pool.items()
        },
    }
    rec = Recorder()
    worker.verify_all(None, None, rec)
    verify = {"lines": rec.values}
    for name, data in (("engines-deep", engines), ("brute-deep", brute), ("verify-all", verify)):
        (ref / f"{name}.json").write_text(json.dumps(data, indent=0) + "\n", encoding="utf-8")
        print(f"wrote reference/{name}.json")


if __name__ == "__main__":
    main()
