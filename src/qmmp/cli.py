"""Command-line surface: series computation, verification, bijection tools.

Output formats are deterministic: ``table`` prints one t-power per line in
the same ascending-power style the library renders everywhere, ``csv`` emits
``n,xexp,coeff`` rows, and ``json`` emits coefficients as decimal strings so
consumers without big-integer support survive large truncation depths.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import gf, oracle
from .dyck import DyckPath, lift, phi, phi_inv, psi, psi_inv, stats
from .mmp import QuadrantSpec, EMPTY
from .perm import Permutation
from .series import TSeries

DEFAULT_MAX_N_CAP = 16

OUTPUT_FORMATS = ("table", "csv", "json")


def _max_n_cap() -> int:
    raw = os.environ.get("MMP_MAX_N", "").strip()
    if not raw:
        return DEFAULT_MAX_N_CAP
    # int() also takes "-3", "1_0" and non-ASCII digits such as "٣"
    if not (raw.isascii() and raw.isdigit()):
        raise ValueError(f"MMP_MAX_N must be a nonnegative integer, got {raw!r}")
    return int(raw)


def _cap_max_n(requested: int) -> int:
    if requested < 0:
        raise ValueError("--max-n must be nonnegative")
    cap = _max_n_cap()
    if requested > cap:
        print(
            f"note: --max-n {requested} capped to {cap} (MMP_MAX_N)",
            file=sys.stderr,
        )
        return cap
    return requested


def _note_brute_depth(depth: int) -> None:
    """Say on stderr what a brute-force walk to ``depth`` costs, past the default cap."""
    if depth > DEFAULT_MAX_N_CAP:
        # the walk of row n keeps up to 2^n prefix states
        print(
            f"note: brute force to t^{depth} (above the default cap {DEFAULT_MAX_N_CAP}) "
            f"walks up to 2^{depth} = {1 << depth} prefix states per row",
            file=sys.stderr,
        )


def _compute_series(avoid: str, spec: QuadrantSpec, trunc: int, engine: str) -> TSeries:
    tau = oracle.class_from_text(avoid)
    if engine != "brute":
        try:
            return gf.engine_series(avoid, spec, trunc, engine)
        except gf.NoEngineError:
            if engine != "auto":
                raise
    _note_brute_depth(trunc)
    return oracle.brute_series(tau, spec, trunc)


def _render_series(series: TSeries, fmt: str, avoid: str, spec: QuadrantSpec) -> str:
    if fmt == "table":
        return "\n".join(series.render_lines())
    if fmt == "csv":
        lines = ["n,xexp,coeff"]
        for n, poly in enumerate(series.coeffs):
            lines += (f"{n},{expo},{coeff}" for expo, coeff in poly.items())
        return "\n".join(lines)
    payload = {
        "avoid": avoid,
        "spec": str(spec),
        "trunc": series.trunc,
        "series": [
            {"n": n, "terms": [{"xexp": e, "coeff": str(c)} for e, c in poly.items()]}
            for n, poly in enumerate(series.coeffs)
        ],
    }
    return json.dumps(payload, indent=2)


def _cmd_series(args: argparse.Namespace) -> int:
    spec = QuadrantSpec.parse(args.spec)
    trunc = _cap_max_n(args.max_n)
    series = _compute_series(args.avoid, spec, trunc, args.engine)
    print(_render_series(series, args.format, args.avoid, spec))
    return 0


def _print_reports(reports) -> int:
    """Print every report's cell lines, then every summary; 0 iff all passed."""
    for report in reports:
        for line in report.lines():
            print(line)
    for report in reports:
        print(report.summary())
    return 0 if all(report.passed for report in reports) else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    max_n = None if args.max_n is None else _cap_max_n(args.max_n)
    if max_n is not None:
        _note_brute_depth(max_n)
    if args.subject == "all":
        reports = oracle.verify_all(max_n)
    else:
        reports = [oracle.verify(args.subject, max_n)]
    return _print_reports(reports)


def _cmd_conjecture(args: argparse.Namespace) -> int:
    trunc = _cap_max_n(args.max_n)
    return _print_reports([oracle.check_conjecture1(args.k_max, trunc)])


def _stats_text(path: DyckPath) -> str:
    st = stats(path)
    returns = ",".join(str(r) for r in sorted(st.returns))
    peaks = " ".join(f"({c},{d})" for c, d in st.peaks)
    return "\n".join(
        [
            f"path: {path.word}",
            f"semilength: {path.n}",
            f"returns: {returns}",
            f"ret: {st.ret}",
            f"hills: {st.hills}",
            f"peaks (column,diagonal): {peaks}".rstrip(),
        ]
    )


def _cmd_bijection(args: argparse.Namespace) -> int:
    text = args.input.strip()
    forward = phi if args.map == "phi" else psi
    inverse = phi_inv if args.map == "phi" else psi_inv
    if text and set(text) <= {"D", "R"}:
        path, sigma = DyckPath.parse(text), None
    else:
        sigma = Permutation.parse(text)
        path = forward(sigma)  # checks that sigma avoids the map's pattern
    if args.show == "path":
        print(path.word)
    elif args.show == "perm":
        print(inverse(path) if sigma is None else sigma)
    elif args.show == "stats":
        print(_stats_text(path))
    elif sigma is None:
        print(lift(path).word)
    else:
        # the induced permutation map: conjugate the path lift by the bijection
        print(inverse(lift(path)))
    return 0


TABLE_TRUNC = 13


def paper_table_specs() -> list[tuple[str, QuadrantSpec]]:
    """The (avoidance class, spec) pairs whose expansions ship as tables."""
    specs: list[tuple[str, QuadrantSpec]] = []
    for k in range(1, 6):
        specs.append(("132", QuadrantSpec(0, k, EMPTY, 0)))
    for k in range(1, 4):
        for ell in range(1, 4):
            specs.append(("132", QuadrantSpec(k, ell, EMPTY, 0)))
    for k in range(1, 4):
        for ell in range(k, 4):
            specs.append(("132", QuadrantSpec(0, k, EMPTY, ell)))
    for a in range(1, 4):
        for k in range(1, 4):
            for ell in range(k, 4):
                specs.append(("132", QuadrantSpec(a, k, EMPTY, ell)))
    for k in range(6):
        specs.append(("132", QuadrantSpec(EMPTY, k, EMPTY, 0)))
    for k in range(1, 4):
        for ell in range(k, 4):
            specs.append(("132", QuadrantSpec(EMPTY, k, EMPTY, ell)))
    for k in range(1, 6):
        specs.append(("123", QuadrantSpec(0, k, 0, 0)))
    specs.append(("123", QuadrantSpec(0, 1, 0, 1)))
    specs.append(("123", QuadrantSpec(0, 2, 0, 1)))
    specs.append(("123", QuadrantSpec(0, 2, 0, 2)))
    return specs


def table_file_name(avoid: str, spec: QuadrantSpec) -> str:
    return f"Q_{avoid}_{spec.compact()}.txt"


def write_paper_tables(out_dir: Path | str = ".", trunc: int = TABLE_TRUNC) -> list[str]:
    """Regenerate every shipped table (depth t^13 by default) plus the errata file.

    Output is byte-stable across runs; returns the file names written.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for avoid, spec in paper_table_specs():
        series = gf.engine_series(avoid, spec, trunc)
        name = table_file_name(avoid, spec)
        (out / name).write_text("\n".join(series.render_lines()) + "\n", encoding="utf-8")
        written.append(name)
    gf.write_errata(out / "errata.txt")
    written.append("errata.txt")
    return written


def _cmd_paper_tables(_args: argparse.Namespace) -> int:
    written = write_paper_tables(Path.cwd())
    print(f"wrote {len(written)} files")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmmp",
        description=(
            "Exact match-count distributions of quadrant conditions over "
            "123- and 132-avoiding permutations."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("series", help="print a match-count series")
    p.add_argument("--avoid", choices=("123", "132"), required=True)
    p.add_argument("--spec", required=True, help='quadrant spec "a,b,c,d" with e for empty')
    p.add_argument("--max-n", type=int, default=9, help="truncation degree (default 9)")
    p.add_argument(
        "--engine",
        choices=("auto", "brute", "recurrence", "closed"),
        default="auto",
        help="auto prefers closed form, then recurrence, then brute force",
    )
    p.add_argument("--format", choices=OUTPUT_FORMATS, default="table")
    p.set_defaults(fn=_cmd_series)

    p = sub.add_parser("verify", help="check implemented identities against brute force")
    p.add_argument("--subject", default="all", help='subject id or "all"')
    p.add_argument("--max-n", type=int, default=None, help="override the subject's default grid")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("conjecture", help="check the open series equality by engines and oracle")
    p.add_argument("--k-max", type=int, default=oracle.CONJECTURE_K_MAX)
    p.add_argument("--max-n", type=int, default=oracle.CONJECTURE_TRUNC)
    p.set_defaults(fn=_cmd_conjecture)

    p = sub.add_parser("bijection", help="map between permutations and lattice paths")
    p.add_argument("--map", choices=("phi", "psi"), required=True)
    p.add_argument("--input", required=True, help="permutation word or D/R path word")
    p.add_argument("--show", choices=("path", "perm", "stats", "lift"), default="path")
    p.set_defaults(fn=_cmd_bijection)

    p = sub.add_parser(
        "paper-tables",
        help="regenerate every shipped series table (plus errata.txt) in the current directory",
    )
    p.set_defaults(fn=_cmd_paper_tables)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        # The engines recurse top-down, a few frames per degree, so only an
        # explicit --max-n under a raised MMP_MAX_N gets here.
        print(
            f"error: depth {min(args.max_n, _max_n_cap())} is too deep for the engines' "
            "recursion; ask for a smaller --max-n (MMP_MAX_N sets the cap)",
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
