"""One workload in a fresh process: closed loop, one operation at a time.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \\
        --mode plain|traced|probe --size full|toy --out-dir DIR

Imports bogospec from the `src/` directory next to this one, prints
`ready` once bogospec, numpy and scipy are imported, then repeats the
workload's operation for about S seconds (at least once) and
prints one JSON line: per-operation wall times, the times of the pace
kernel run between operations (pace.py), outputs, the peak RSS
of this process and, with --mode traced, the per-layer numbers and the
counter identities that broke.  --mode probe stops after `ready`, and
prints the CPU seconds this process had used by then.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import bogospec  # noqa: E402
import bogospec.cli  # noqa: E402
import bogospec.model  # noqa: E402

import pace  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("plain", "traced", "probe"), required=True)
    parser.add_argument("--size", choices=("full", "toy"), default="full")
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args()
    if not Path(bogospec.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.stderr.write(f"bogospec imported from {bogospec.__file__}, not {ROOT / 'src'}\n")
        return 2
    print("ready", flush=True)
    if args.mode == "probe":
        usage = resource.getrusage(resource.RUSAGE_SELF)
        print(json.dumps({"cpu_s": usage.ru_utime + usage.ru_stime}), flush=True)
        return 0

    out_dir = Path(args.out_dir)
    tracer = spans.Tracer() if args.mode == "traced" else None
    restore = tracer.install() if tracer else None
    ops = []
    pace.kernel_s()  # the first run pays for numpy's lookups
    kernel = pace.kernel_s()
    t_start = perf_counter()
    try:
        while True:
            i = len(ops)
            if tracer:
                tracer.begin_run(i)
            error = None
            t0 = perf_counter()
            try:
                outputs = workloads.run_operation(
                    args.workload, args.size, args.seed, str(out_dir / f"op{i}")
                )
            except Exception:  # a failed operation is measured, not fatal
                outputs = {}
                error = traceback.format_exc(limit=4)
            t1 = perf_counter()
            if tracer:
                tracer.end_run()
            after = pace.kernel_s()
            ops.append({"wall_s": t1 - t0, "kernel_s": [kernel, after],
                        "outputs": outputs, "error": error})
            kernel = after
            # start another operation only if it should end by S plus half an operation
            elapsed = perf_counter() - t_start
            if elapsed + 0.5 * elapsed / len(ops) >= args.seconds:
                break
    finally:
        if restore:
            restore()

    result = {
        "ops": ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "bogospec": bogospec.__version__,
        },
    }
    if tracer:
        result["layers"] = tracer.layer_metrics(len(ops))
        result["identity_failures"] = tracer.identity_failures()
        tracer.dump(out_dir.parent / f"spans-{args.workload}-{args.size}-seed{args.seed}.json")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
