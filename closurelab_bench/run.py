"""closurelab benchmark: run one workload for a set time and print metrics.

    python3 closurelab_bench/run.py --workload survey --seed 1 \
        --seconds 30 --trace 0

Run from the root of a closurelab checkout.  The program is imported
from ``src/`` of that checkout and driven through ``closurelab.cli.main``
in this process, one command after another (a closed loop with one
client and one worker), on the kernel the package selects on import.

A run repeats whole rounds of the workload's commands until the timed
rounds add up to --seconds, then checks each round's outputs outside the
timed interval.  With --trace 0 it prints every end-to-end metric:
set-up time, peak memory and the median wall time of a round.  With
--trace 1 it wraps the program's layers (see tracer.py), prints every
per-layer metric instead, and writes the trace to closurelab_bench/out/.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 5


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing closurelab.

    One import runs first and is not counted: it compiles the bytecode
    cache, which a user pays once per checkout, not per run.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p])
    cmd = [sys.executable, "-c", "import closurelab"]
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=env, check=True)
        if i:
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def import_program():
    """closurelab from this checkout's src/, never an installed copy."""
    sys.path.insert(0, str(SRC))
    import closurelab
    import closurelab.cli

    if Path(closurelab.__file__).resolve().parent != SRC / "closurelab":
        raise ImportError(f"closurelab imported from {closurelab.__file__}, "
                          f"not from {SRC}")
    return closurelab


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="smoke-test input sizes (seconds per round)")
    args = parser.parse_args(argv)

    if not (SRC / "closurelab" / "__init__.py").is_file():
        print(f"no closurelab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    setup_s = None if args.trace else measure_setup()
    closurelab = import_program()
    OUT.mkdir(exist_ok=True)
    load = workloads.WORKLOADS[args.workload](args.seed, args.small, str(OUT))

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()

    round_times = []
    attempted = failed = 0
    failures: list[str] = []   # commands that crashed or printed no report
    problems: list[str] = []   # outputs that disagree with the checks
    while not round_times or sum(round_times) < args.seconds:
        if tracer:
            tracer.begin_round()
        t0 = time.perf_counter()
        # cli.main is looked up per command so that the traced run calls
        # the wrapper the tracer installed.
        results = [workloads.run_op(closurelab.cli.main, op)
                   for op in load.ops]
        wall = time.perf_counter() - t0
        if tracer:
            tracer.end_round(wall)
        round_times.append(wall)
        for res, check in zip(results, load.checks):
            attempted += 1
            workloads.parse_report(res)
            if res.error is not None:
                failed += 1
                failures.append(f"{' '.join(res.argv)}: {res.error}")
                continue
            try:
                problems.extend(check(res))
            except (KeyError, TypeError, ValueError, OSError) as exc:
                problems.append(f"{' '.join(res.argv)}: output not as "
                                f"expected: {type(exc).__name__}: {exc}")

    for kind, lines in (("failed", failures), ("wrong", problems)):
        for line in dict.fromkeys(lines):
            print(f"{kind}: {line}", file=sys.stderr)

    if tracer:
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json")
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in tracer.metrics().items()}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                / 1024.0, "unit": "MB"},
            "round_s": {"value": statistics.median(round_times),
                        "unit": "s"},
        }
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"backend={closurelab.KERNEL_BACKEND} round_s="
          f"{[round(t, 3) for t in round_times]}")
    print(json.dumps({"correct": finite and not problems,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
