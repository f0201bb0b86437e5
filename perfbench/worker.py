"""One benchmark child process: import qmmp cold, run one workload, check it.

Usage: ``python3 -s worker.py MODE SRC`` with a JSON payload on stdin.  MODE is
``run`` (time a workload), ``probe`` (import only, for set-up time) or
``selftest`` (check the benchmark's own checks and inputs).  The last line of
standard output is a JSON object; ``ready`` is the ``perf_counter`` reading
just after the imports, which the parent subtracts from its spawn reading.

Times are reported in reference seconds: measured seconds multiplied by the
host's speed relative to a reference, as rated by :class:`SpeedProbe`.  On
the 2-vCPU machine of the baseline, speed drifted by up to 2x over minutes;
reference seconds cancel that drift (see README.md).
"""

from __future__ import annotations

import gc
import itertools
import json
import resource
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

PROBE_INTERVAL_S = 0.02
SETUP_PROBE_SAMPLES = 20
# About what one speed_loop() takes on the reference machine; only a scale.
REFERENCE_LOOP_S = 150e-6
_BIG = 3**200


def speed_loop() -> None:
    """Fixed pure-Python work: big-integer products kept in a dict, small tuple sorts."""
    acc: dict[int, int] = {}
    for i in range(150):
        acc[i & 15] = acc.get(i & 15, 0) + _BIG * (_BIG + i)
    for i in range(20):
        tuple(sorted((i * 7 + j * 13) % 11 for j in range(6)))


class SpeedProbe:
    """Rates the host's speed by timing ``speed_loop()`` on a wall-clock tick.

    Inside ``with``, a SIGALRM every ``PROBE_INTERVAL_S`` takes one sample
    while the workload runs, so the samples cover the same interval as the
    workload.  ``speed()`` is ``REFERENCE_LOOP_S`` times the mean of
    1/sample: work per second relative to the reference.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, *_signal_args) -> None:
        enabled = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        speed_loop()
        self.samples.append(perf_counter() - t0)
        if enabled:
            gc.enable()

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self) -> float:
        if not self.samples:
            self.sample()
        return REFERENCE_LOOP_S * statistics.fmean(1 / c for c in self.samples)


def engines_deep(inputs, trunc, check) -> None:
    """Route every paper-table spec as ``write_paper_tables`` does, then render."""
    from qmmp import gf
    from qmmp.mmp import QuadrantSpec

    for avoid, text in inputs:
        spec = QuadrantSpec.parse(text)
        series = gf.q132_series(spec, trunc) if avoid == "132" else gf.transport_123(spec, trunc)
        for n, line in enumerate(series.render_lines()):
            check.series_line(line, series.poly(n).mass(), n)


def brute_deep(inputs, trunc, check) -> None:
    """The brute-force fallback of ``qmmp series`` on specs no engine covers."""
    from qmmp import oracle
    from qmmp.mmp import QuadrantSpec

    for avoid, text in inputs:
        series = oracle.brute_series(oracle.class_from_text(avoid), QuadrantSpec.parse(text), trunc)
        for n, line in enumerate(series.render_lines()):
            check.series_line(line, series.poly(n).mass(), n)


def verify_all(_inputs, _trunc, check) -> None:
    """``qmmp verify all``: every cell line, then every subject summary."""
    from qmmp import oracle

    reports = oracle.verify_all()
    for report in reports:
        for line in report.lines():
            check.line(line)
    for report in reports:
        check.line(report.summary())


WORKLOADS = {"engines-deep": engines_deep, "brute-deep": brute_deep, "verify-all": verify_all}

SLOTS = ("0", "1", "2", "e")


def uncovered_specs() -> dict[str, list[str]]:
    """Specs with slots in {0,1,2,e} that the engine routers reject, per class."""
    from qmmp import gf
    from qmmp.mmp import QuadrantSpec

    routers = {"132": gf.q132_series, "123": gf.transport_123}
    pool: dict[str, list[str]] = {}
    for avoid, route in routers.items():
        pool[avoid] = []
        for slots in itertools.product(SLOTS, repeat=4):
            text = ",".join(slots)
            try:
                route(QuadrantSpec.parse(text), 0)
            except gf.NoEngineError:
                pool[avoid].append(text)
    return pool


def paper_specs() -> list[list[str]]:
    from qmmp import cli

    return [[avoid, str(spec)] for avoid, spec in cli.paper_table_specs()]


def selftest(payload) -> list[str]:
    """Problems with the benchmark's inputs or checks; empty when all is well."""
    from checks import Checker
    from qmmp import gf
    from qmmp.mmp import QuadrantSpec
    from qmmp.series import IntPoly

    problems = []
    if uncovered_specs() != payload["pool"]:
        problems.append("brute pool differs from the specs the routers reject")
    if paper_specs() != payload["paper_specs"]:
        problems.append("engines-deep specs differ from cli.paper_table_specs()")

    # A corrupted polynomial fails its op; the genuine one passes.
    _, text = payload["paper_specs"][0]
    expected = payload["paper_digests"][:7]
    series = gf.q132_series(QuadrantSpec.parse(text), 6)
    genuine = Checker(expected)
    corrupt = Checker(expected)
    for n, line in enumerate(series.render_lines()):
        poly = series.poly(n)
        genuine.series_line(line, poly.mass(), n)
        if n == 6:
            (e, c), *rest = poly.items()
            poly = IntPoly({e: c + 1, **dict(rest)})
            line = f"t^{n}: {poly.render()}"
        corrupt.series_line(line, poly.mass(), n)
    if genuine.result()["failed"] != 0 or corrupt.result()["failed"] != 1:
        problems.append("a corrupted polynomial is not reported as exactly one failed op")

    # An edited or missing verify line fails its op.
    transcript = payload["transcript"]
    edited = Checker(transcript, verbatim=True)
    for i, line in enumerate(transcript):
        edited.line(line.replace("; pass;", "; fail;") if i == 0 else line)
    dropped = Checker(transcript, verbatim=True)
    for line in transcript[:-1]:
        dropped.line(line)
    if edited.result()["failed"] != 1 or dropped.result()["failed"] != 1:
        problems.append("an edited or missing verify line is not reported as a failed op")
    return problems


def main() -> int:
    mode, src = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    import qmmp
    import qmmp.cli
    import qmmp.gf
    import qmmp.oracle

    ready = perf_counter()
    from checks import Checker  # after `ready`: set-up time covers qmmp alone

    if Path(qmmp.__file__).resolve().parent != Path(src, "qmmp").resolve():
        print(f"qmmp imported from {qmmp.__file__}, not from {src}", file=sys.stderr)
        return 2
    payload = json.load(sys.stdin)
    setup_probe = SpeedProbe()
    for _ in range(SETUP_PROBE_SAMPLES):
        setup_probe.sample()
    out: dict = {"ready": ready, "setup_speed": setup_probe.speed()}
    if mode == "selftest":
        out["problems"] = selftest(payload)
    elif mode == "run":
        tracer = None
        if payload["trace"]:
            import spans

            tracer = spans.Tracer()
            spans.install(tracer)
        check = Checker(payload["expected"], verbatim=payload["workload"] == "verify-all")
        with SpeedProbe() as probe:
            start = perf_counter()
            WORKLOADS[payload["workload"]](payload["inputs"], payload["trunc"], check)
            raw = perf_counter() - start
        speed = probe.speed()
        out["raw_wall_s"] = raw
        out["speed"] = speed
        out["wall_s"] = (raw - sum(probe.samples)) * speed
        out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out.update(check.result())
        if tracer is not None:
            layers = spans.layer_metrics(tracer)
            out["layers"] = {k: v * speed if isinstance(v, float) else v for k, v in layers.items()}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
