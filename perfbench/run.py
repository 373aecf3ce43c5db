"""The bogospec benchmark: pinned workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S [--trace 0|1]

Run from the repository root; bogospec is imported from `src/`.  Each
workload runs in a fresh single-threaded worker process (worker.py), in
a closed loop of one operation at a time, for about S seconds.
Every operation's output is checked against `data/reference.json`; a
failure is an exception, a nonzero exit or output that misses the
reference.

--trace 0 reports the end-to-end metrics, with tracing off:
  wall_s       wall time of one operation, from the first call into the
               workload's entry point to the return of the last call,
               scaled to the reference pace of the host (pace.py): the
               median over the run's operations
  setup_s      CPU seconds from process start to `bogospec`, numpy and
               scipy imported, scaled to the pace of a reference start
               (pace.py): the median over several process starts, half
               of them before the workload process and half after it
  peak_rss_mb  peak resident set (ru_maxrss) of the worker process
--trace 1 runs one untraced and one traced worker for S/2 seconds each
and reports the per-layer numbers of spans.LAYER_METRICS, plus
trace.overhead_s, the traced minus the untraced wall_s.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it give each
metric with its unit and sample count, the unscaled wall times and the
first operation's, fail_rate, and the provenance.
`--workload all` prints these for every workload in turn.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pace
import reference
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"

#: process starts timed before the workload process, and again after it
SETUP_PROBES = 3
#: flag a run whose median operation is this many times below its first
WARM_FLAG = 2.0
WORKER_GRACE_S = 120.0
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class HarnessError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env.pop("BOGOSPEC_THREADS", None)  # unset: one worker thread
    env.update({k: "1" for k in THREAD_ENV})
    return env


def start_worker(argv: list[str], run_dir: Path) -> tuple[subprocess.Popen, float]:
    """Start worker.py; returns it and the seconds until it was ready."""
    cmd = [sys.executable, str(HERE / "worker.py"), *argv, "--out-dir", str(run_dir)]
    with open(run_dir / "worker-stderr.txt", "ab") as err:
        t0 = perf_counter()
        # unbuffered, so that reading `ready` takes nothing after it from
        # the pipe that communicate() would then miss
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=err, cwd=ROOT, env=worker_env(), bufsize=0
        )
    line = proc.stdout.readline()
    ready = perf_counter() - t0
    if line.strip() != b"ready":
        proc.kill()
        proc.communicate()
        raise HarnessError(f"worker did not start: {tail(run_dir)}")
    return proc, ready


def finish_worker(proc: subprocess.Popen, timeout: float, run_dir: Path) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise HarnessError(f"worker still running after {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise HarnessError(f"worker exit code {proc.returncode}: {tail(run_dir)}")
    return out.decode()


def tail(run_dir: Path) -> str:
    path = run_dir / "worker-stderr.txt"
    text = path.read_text(errors="replace") if path.exists() else ""
    return " | ".join(text.strip().splitlines()[-3:])


def setup_probe(run_dir: Path) -> dict[str, float]:
    """One process start, and a reference start right after it.

    setup_s counts CPU seconds: on a shared virtual machine the wall time
    of a start adds 0-0.3 s of waiting for a vCPU, and over thirty starts
    in a row the CPU time varied by 6% where the wall time varied by 20%
    (standard deviation over mean).
    """
    # what a worker imports does not depend on its workload
    proc, ready = start_worker(
        ["--workload", "verify-suite", "--seed", "0", "--seconds", "0", "--mode", "probe"],
        run_dir,
    )
    out = finish_worker(proc, WORKER_GRACE_S, run_dir)
    cpu = json.loads(out.strip().splitlines()[-1])["cpu_s"]
    try:
        reference = pace.reference_start_cpu_s(worker_env(), WORKER_GRACE_S)
    except (subprocess.SubprocessError, ValueError, KeyError) as exc:
        raise HarnessError(f"reference start failed: {exc}") from None
    return {"cpu_s": cpu, "wall_s": ready, "reference_cpu_s": reference}


def run_worker(
    workload: str, seed: int, seconds: float, mode: str, size: str, run_dir: Path
) -> dict:
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
            "--mode", mode, "--size", size]
    proc, _ = start_worker(argv, run_dir)
    out = finish_worker(proc, seconds + WORKER_GRACE_S, run_dir)
    return json.loads(out.strip().splitlines()[-1])


def measure(
    workload: str, seed: int, seconds: float, trace: bool, size: str, ref: dict
) -> dict:
    """One benchmark run: workers, correctness checks and metrics."""
    run_dir = OUT / f"{workload}-{size}-seed{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    pace.kernel_s()  # the first run pays for numpy's lookups
    try:
        if trace:
            plain = run_worker(workload, seed, seconds / 2, "plain", size, run_dir)
            traced = run_worker(workload, seed, seconds / 2, "traced", size, run_dir)
            results = [plain, traced]
        else:
            setup = [setup_probe(run_dir) for _ in range(SETUP_PROBES)]
            plain = run_worker(workload, seed, seconds, "plain", size, run_dir)
            setup += [setup_probe(run_dir) for _ in range(SETUP_PROBES)]
            results = [plain]
        failures = []
        for res in results:
            broken = res.get("identity_failures", {})
            label = "traced op" if "layers" in res else "op"
            for i, op in enumerate(res["ops"]):
                why = reference.check_operation(workload, op, ref) + broken.get(str(i), [])
                if why:
                    failures.append(f"{label} {i}: {why[0]}")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    walls = [op["wall_s"] for op in plain["ops"]]
    attempted = sum(len(res["ops"]) for res in results)
    run = {
        "workload": workload,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "walls": walls,
        "provenance": provenance(seed, seconds, size, plain["versions"]),
    }
    if trace:
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = wall_statistic(traced["ops"]) - wall_statistic(
            plain["ops"]
        )
        run["metrics"] = {
            name: {"value": metrics[name], "unit": unit}
            for name, unit, _ in spans.LAYER_METRICS
        }
    else:
        run["setup"] = setup
        values = {
            "wall_s": wall_statistic(plain["ops"]),
            "setup_s": statistics.median(
                pace.scaled_start(p["cpu_s"], p["reference_cpu_s"]) for p in setup
            ),
            "peak_rss_mb": plain["peak_rss_mb"],
        }
        run["metrics"] = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
    return run


def wall_statistic(ops: list[dict]) -> float:
    """One run's wall_s: the median operation, each at the reference pace."""
    return statistics.median(pace.scaled(op["wall_s"], *op["kernel_s"]) for op in ops)


def provenance(seed: int, seconds: float, size: str, versions: dict) -> dict:
    env = worker_env()
    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        **versions,
        "nproc": os.cpu_count(),
        "blas_threads": {k: env[k] for k in THREAD_ENV},
        "BOGOSPEC_THREADS": env.get("BOGOSPEC_THREADS", "1"),
        "load": "one worker process, closed loop, one operation at a time",
        "seed": seed,
        "program_seed": workloads.lanczos_seed(seed),
        "seconds": seconds,
        "size": size,
    }


def git_commit() -> str | None:
    """HEAD of the checkout; None outside a git tree or without git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "bogospec").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def report(run: dict, trace: bool, seed: int) -> list[str]:
    n = run["attempted"]
    lines = [f"{run['workload']}  seed {seed}  trace {int(trace)}  "
             f"(one process, closed loop, one operation at a time)"]
    if trace:
        for name, m in run["metrics"].items():
            lines.append(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    else:
        m = run["metrics"]
        walls = run["walls"]
        median = statistics.median(walls)
        lines += [
            f"  wall_s       {m['wall_s']['value']:.6g} s   median of {len(walls)} "
            "operations at the reference pace",
            f"  unscaled     {median:.6g} s   median (min {min(walls):.6g}, "
            f"max {max(walls):.6g})",
            f"  first_op_s   {walls[0]:.6g} s   the first operation, unscaled, "
            f"{walls[0] / median:.3g}x the median",
        ]
        if walls[0] > WARM_FLAG * median:
            # one CLI call is one process: a cache kept across operations in
            # one process speeds up every operation after the first, and
            # wall_s counts that as a gain a user of the CLI never sees
            lines.append(
                f"  warning: the first operation took {walls[0] / median:.3g}x the "
                "median; a cache kept across operations counts in wall_s, say so if "
                "it is one"
            )
        lines += [
            f"  setup_s      {m['setup_s']['value']:.6g} s   median CPU time of "
            f"{len(run['setup'])} process starts at the reference pace",
            f"  unscaled     {statistics.median(p['cpu_s'] for p in run['setup']):.6g} s"
            f"   median CPU time (wall {statistics.median(p['wall_s'] for p in run['setup']):.6g},"
            f" reference start {statistics.median(p['reference_cpu_s'] for p in run['setup']):.6g})",
            f"  peak_rss_mb  {m['peak_rss_mb']['value']:.6g} MB  ru_maxrss of the "
            "workload process",
        ]
    lines.append(f"  fail_rate    {run['failed'] / n:.6g}   ({run['failed']} of {n} operations)")
    lines += [f"  failure: {f}" for f in run["failures"][:5]]
    lines.append("provenance " + json.dumps(run["provenance"], sort_keys=True))
    return lines


def result_line(run: dict) -> str:
    return json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": run["metrics"],
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not (ROOT / "src" / "bogospec" / "__init__.py").is_file():
            raise HarnessError(f"no bogospec source under {ROOT / 'src'}")
        refs = json.loads(reference.REFERENCE.read_text())
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        runs = []
        for name in names:
            run = measure(name, args.seed, args.seconds, bool(args.trace), "full", refs[name])
            print("\n".join(report(run, bool(args.trace), args.seed)), flush=True)
            runs.append(run)
    except HarnessError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    if args.workload == "all":
        print(json.dumps({r["workload"]: json.loads(result_line(r)) for r in runs}))
    else:
        print(result_line(runs[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
