"""Fast self-test of the benchmark harness (about twenty seconds).

    python3 perfbench/smoke.py

Checks self-time arithmetic and the counter identities on synthetic span
trees, runs every workload at toy size (kappa = 1.2, N = 6, L = 8)
traced and untraced against references captured here, checks that
wrapping every function twice breaks the fock_ed identities, that the
correctness gate rejects perturbed references but accepts an ulp-level
change, and that BENCHMARK.json names the metrics the harness reports.
Exits nonzero on the first failure.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import sys

import reference
import run
import spans
import workloads

sys.path.insert(0, str(run.ROOT / "src"))


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"smoke: FAILED: {what}")
    print(f"ok  {what}")


def tree(*rows) -> spans.Tracer:
    """A tracer holding spans (name, start, end, parent, counts)."""
    tr = spans.Tracer()
    for name, start, end, parent, counts in rows:
        s = spans.Span(name, start, end, parent, 0)
        s.counts.update(counts)
        tr.spans.append(s)
    return tr


def synthetic() -> None:
    tr = tree(
        ("cli.main", 0.0, 10.0, -1, {"rows": 4}),
        ("excitations.enumerate_below", 1.0, 3.0, 0, {"records": 4}),
        ("model.lattice_points", 2.0, 5.0, 0, {"points": 7}),  # overlaps its sibling
        ("model.lattice_points", 2.5, 2.75, 2, {"points": 1}),  # grandchild of 0
        ("bogoliubov.bogoliubov_energy", 7.0, 12.0, 0, {"n_terms": 3}),  # ends late
        ("model.lattice_points", 8.0, 9.0, 4, {"points": 3}),
    )
    check(
        spans.self_times(tr.spans) == [10.0 - 4.0 - 3.0, 2.0, 2.75, 0.25, 4.0, 1.0],
        "self time = span minus the union of its children, clipped to the span",
    )
    check(tr.identity_failures() == {}, "identities hold on a consistent tree")
    tr.spans[1].counts["records"] = 5
    tr.spans[5].counts["points"] = 2
    check(len(tr.identity_failures()[0]) == 2, "each broken identity is reported")


def double_wrapped(out_dir) -> None:
    """Wrap every function twice, so that each call is counted twice."""
    tr = spans.Tracer()
    undo = [tr.install(), tr.install()]
    try:
        for i, name in enumerate(("ed-1d", "verify-suite")):
            tr.begin_run(i)
            with contextlib.redirect_stderr(io.StringIO()):
                workloads.run_operation(name, "toy", 1, str(out_dir / f"twice{i}"))
            tr.end_run()
    finally:
        for restore in reversed(undo):
            restore()
    broken = tr.identity_failures()
    for i, name in enumerate(("ed-1d", "verify-suite")):
        why = " ".join(broken.get(i, []))
        check("states_built" in why and "assemble_hamiltonian.nnz" in why,
              f"{name}: counting each call twice breaks the fock_ed identities")


def perturbed(name: str, ref: dict) -> tuple[dict, dict]:
    """The reference moved within tolerance, and moved beyond it."""
    ulp, wrong = copy.deepcopy(ref), copy.deepcopy(ref)
    if name == "spectrum-1d":
        key = sorted(ulp["sectors"])[0]
        ulp["sectors"][key]["fsum"] *= 1 + 4e-16
        wrong["sectors"][key]["lowest"][0] *= 1 + 1e-9
    elif name == "ed-1d":
        s = ulp["sectors"]["0"]
        s["values"][1] += 0.1 * ref["tol"] * s["norm"]
        s = wrong["sectors"]["0"]
        s["values"][1] += 3.0 * ref["tol"] * s["norm"]
    elif name == "lattice-3d":
        ulp["e_bog"] *= 1 + 4e-16
        wrong["n_terms"] += 1
    else:
        wrong["names"] = wrong["names"][:-1]
    return ulp, wrong


def workload(name: str, out_dir) -> None:
    ref = reference.capture(name, "toy", out_dir)
    run_ = run.measure(name, 1, 1.0, True, "toy", ref)
    check(run_["failed"] == 0, f"{name}: toy run passes, traced and untraced {run_['failures']}")
    check(
        list(run_["metrics"]) == [n for n, _, _ in spans.LAYER_METRICS],
        f"{name}: every per-layer metric reported",
    )
    with contextlib.redirect_stderr(io.StringIO()):  # the verify summary
        outputs = workloads.run_operation(name, "toy", 1, str(out_dir / "gate"))
    got = reference.summarize(name, outputs)
    ulp, wrong = perturbed(name, ref)
    compare = reference.COMPARE[name]
    check(compare(got, ulp) == [], f"{name}: gate accepts an output within tolerance")
    check(compare(got, wrong) != [], f"{name}: gate rejects a perturbed reference")


def end_to_end(out_dir) -> None:
    name = "verify-suite"
    run_ = run.measure(name, 1, 0.5, False, "toy", reference.capture(name, "toy", out_dir))
    check(
        run_["failed"] == 0 and list(run_["metrics"]) == [n for n, _ in run.END_TO_END]
        and all(m["value"] > 0 for m in run_["metrics"].values()),
        f"{name}: untraced run reports every end-to-end metric",
    )


def benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS), "BENCHMARK.json workloads")
    check([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END),
          "BENCHMARK.json end-to-end metrics")
    check([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
          == list(spans.LAYER_METRICS), "BENCHMARK.json per-layer metrics")


def main() -> int:
    synthetic()
    benchmark_json()
    out_dir = run.OUT / "smoke"
    try:
        for name in workloads.WORKLOADS:
            workload(name, out_dir)
        double_wrapped(out_dir)
        end_to_end(out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
