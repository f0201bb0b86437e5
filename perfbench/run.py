"""qmmp benchmark runner.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every measurement is a fresh child process (``worker.py``), so qmmp's caches
start cold as they do on every ``qmmp`` CLI call.  Load is a closed loop with
one client: one child at a time, no threads.  With ``--trace 0`` the run
repeats the workload in new children until the next one would end after
``--seconds`` (at least two) and reports medians of the end-to-end metrics.
With ``--trace 1`` it runs one untraced and two traced children and reports
the per-layer metrics named in ``BENCHMARK.json``, the tracing overhead, and
checks that the traced counts repeat exactly.  Times are in reference
seconds (see ``worker.SpeedProbe``).  The last line of standard output is the
JSON result; diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"

# Whole-run limit; each child is killed if it would run past it.
RUN_LIMIT_S = 170.0
SETUP_PROBES = 5
MIN_CHILDREN = 2
BRUTE_PICKS_PER_CLASS = 2


class ChildFailed(RuntimeError):
    pass


def spawn(mode: str, payload: dict, deadline: float) -> dict:
    """Run one worker to completion; add its set-up time to its result."""
    # A fixed hash seed makes every child repeat exactly the same work; qmmp
    # comes only from SRC, never from PYTHONPATH or user site-packages.
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    data = json.dumps(payload).encode()
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-s", str(WORKER), mode, str(SRC)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=ROOT,
        env=env,
    )
    try:
        out, err = proc.communicate(data, timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed(f"{mode} child exceeded the run time limit")
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} child exited {proc.returncode}: {err.decode()[-2000:]}")
    result = json.loads(out.decode().strip().splitlines()[-1])
    result["raw_setup_s"] = result["ready"] - t0
    result["setup_s"] = result["raw_setup_s"] * result["setup_speed"]
    result["elapsed_s"] = perf_counter() - t0
    return result


def load_reference(workload: str) -> dict:
    return json.loads((HERE / "reference" / f"{workload}.json").read_text(encoding="utf-8"))


def make_inputs(workload: str, seed: int) -> dict:
    """The workload's inputs for this seed, with the pinned value of every op."""
    rng = random.Random(seed)
    ref = load_reference(workload)
    if workload == "verify-all":
        return {"inputs": None, "trunc": None, "expected": ref["lines"]}
    if workload == "engines-deep":
        items = list(ref["specs"])
        rng.shuffle(items)
    else:
        items = [
            item
            for avoid in sorted(ref["pool"])
            for item in rng.sample(ref["pool"][avoid], BRUTE_PICKS_PER_CLASS)
        ]
    return {
        "inputs": [[avoid, spec] for avoid, spec, _ in items],
        "trunc": ref["trunc"],
        "expected": [d for _, _, digests in items for d in digests],
    }


def selftest_payload() -> dict:
    engines = load_reference("engines-deep")
    brute = load_reference("brute-deep")
    return {
        "pool": {avoid: [spec for _, spec, _ in items] for avoid, items in brute["pool"].items()},
        "paper_specs": [[avoid, spec] for avoid, spec, _ in engines["specs"]],
        "paper_digests": engines["specs"][0][2],
        "transcript": load_reference("verify-all")["lines"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("engines-deep", "brute-deep", "verify-all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "qmmp" / "__init__.py").is_file():
        print(f"error: no qmmp sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    begin = perf_counter()
    deadline = begin + RUN_LIMIT_S

    problems: list[str] = []
    payload = dict(make_inputs(args.workload, args.seed), workload=args.workload, trace=False)
    probes: list[dict] = []
    runs: list[dict] = []
    traced: list[dict] = []
    lost_ops = 0
    try:
        # The self-test child also compiles the sources, so later imports are warm on disk.
        problems += spawn("selftest", selftest_payload(), deadline)["problems"]
        if args.trace:
            runs.append(spawn("run", payload, deadline))
            traced = [spawn("run", dict(payload, trace=True), deadline) for _ in range(2)]
        else:
            probes = [spawn("probe", {}, deadline) for _ in range(SETUP_PROBES)]
            while len(runs) < MIN_CHILDREN or (
                perf_counter() - begin + runs[-1]["elapsed_s"] <= args.seconds
            ):
                runs.append(spawn("run", payload, deadline))
    except ChildFailed as exc:
        problems.append(str(exc))
        lost_ops = len(payload["expected"])

    children = runs + traced
    attempted = sum(c["ops"] for c in children) + lost_ops
    failed = sum(c["failed"] for c in children) + lost_ops
    for c in children:
        for m in c["mismatches"]:
            problems.append(f"output mismatch, {m}")
    if len({c["outputs"] for c in children}) > 1:
        problems.append("children (traced and untraced) produced different outputs")

    metrics: dict[str, dict] = {}
    if args.trace:
        if traced:
            layers = [t["layers"] for t in traced]
            # Counts are ints and must repeat exactly; times are floats.
            counts = [{k: v for k, v in lay.items() if isinstance(v, int)} for lay in layers]
            for key in sorted(counts[0].keys() | counts[1].keys()):
                if counts[0].get(key) != counts[1].get(key):
                    problems.append(f"count {key} differs between traced runs")
            merged = {key: statistics.median([lay.get(key, 0.0) for lay in layers]) for key in layers[0]}
            merged.update(counts[0])
            merged["trace.overhead_s"] = statistics.median([t["wall_s"] for t in traced]) - runs[0]["wall_s"]
            merged["raw.wall_s"] = runs[0]["raw_wall_s"]
            merged["host.speed"] = runs[0]["speed"]
            for m in bench["per_layer"]:
                metrics[m["name"]] = {"value": merged.get(m["name"], 0), "unit": m["unit"]}
    elif runs:
        values = {
            "wall_s": statistics.median([c["wall_s"] for c in runs]),
            "setup_s": statistics.median([c["setup_s"] for c in probes + runs]),
            "peak_rss_mb": statistics.median([c["rss_mb"] for c in runs]),
        }
        for m in bench["end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: "
        f"{len(runs)} untraced + {len(traced)} traced children, "
        f"walls {[round(c['wall_s'], 3) for c in children]}, "
        f"raw walls {[round(c['raw_wall_s'], 3) for c in children]}, "
        f"raw setup {statistics.median([c['raw_setup_s'] for c in probes + children] or [0]):.4f}, "
        f"{perf_counter() - begin:.1f}s total",
        file=sys.stderr,
    )
    correct = not problems and failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
