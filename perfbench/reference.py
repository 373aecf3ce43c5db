"""Reference outputs and the correctness gate.

Each workload's output is reduced to a summary and compared numerically
with a reference summary: integers and keys exactly, floating-point
values to a tight relative tolerance, so that an output change of a few
ulps does not count as a failure.

    python3 perfbench/reference.py

recaptures `data/reference.json` from the bogospec in `src/`.  The
eigenvalue reference of ed-1d comes from dense `eigh` of each assembled
sector, independent of the Lanczos path the benchmark exercises.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "data" / "reference.json"

RTOL = 1e-12
#: lowest energies per sector kept in the spectrum reference
KEEP_LOWEST = 5
LATTICE_FLOATS = ("e_bog", "e_bog_alt", "density_finite_L", "density_limit")


def close(a: float, b: float, rtol: float = RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(ln for ln in fh if not ln.startswith("#")))
    return rows[0], rows[1:]


# -- spectrum-1d -------------------------------------------------------------


def summarize_spectrum(path: str) -> dict:
    header, rows = read_csv(path)
    d = header.index("j")
    by_sector: dict[str, list[tuple[float, int]]] = {}
    for row in rows:
        key = " ".join(row[:d])
        by_sector.setdefault(key, []).append((float(row[d + 1]), int(row[d + 2])))
    sectors = {}
    for key, recs in by_sector.items():
        energies = [e for e, _ in recs]
        n_quasi: dict[str, int] = {}
        for _, n in recs:
            n_quasi[str(n)] = n_quasi.get(str(n), 0) + 1
        sectors[key] = {
            "count": len(recs),
            "n_quasi": n_quasi,
            "lowest": sorted(energies)[:KEEP_LOWEST],
            "max": max(energies),
            "fsum": math.fsum(energies),
        }
    return {"records": len(rows), "sectors": sectors}


def compare_spectrum(got: dict, ref: dict) -> list[str]:
    bad = []
    if got["records"] != ref["records"]:
        bad.append(f"records {got['records']} != {ref['records']}")
    if set(got["sectors"]) != set(ref["sectors"]):
        bad.append("sector keys differ")
        return bad
    for key, r in ref["sectors"].items():
        g = got["sectors"][key]
        if g["count"] != r["count"] or g["n_quasi"] != r["n_quasi"]:
            bad.append(f"sector {key}: counts {g['count']}/{g['n_quasi']} != {r['count']}/{r['n_quasi']}")
            continue
        pairs = list(zip(g["lowest"], r["lowest"])) + [
            (g["max"], r["max"]),
            (g["fsum"], r["fsum"]),
        ]
        if not all(close(a, b) for a, b in pairs):
            bad.append(f"sector {key}: energies differ")
    return bad


# -- ed-1d -------------------------------------------------------------------


def summarize_ed(path: str) -> dict:
    header, rows = read_csv(path)
    d = header.index("j")
    sectors: dict[str, list[list[float]]] = {}
    for row in rows:
        key = " ".join(row[:d])
        sectors.setdefault(key, []).append([float(x) for x in row[d + 1 : d + 4]])
    return {"sectors": sectors}


def compare_ed(got: dict, ref: dict) -> list[str]:
    """Eigenvalues and gaps within tol*||M||; residuals at most tol*||M||."""
    bad = []
    tol = ref["tol"]
    zero = ref["zero"]
    if set(got["sectors"]) != set(ref["sectors"]):
        return ["sector keys differ"]
    e_ground = ref["sectors"][zero]["values"][0]
    for key, r in ref["sectors"].items():
        rows = got["sectors"][key]
        if len(rows) != len(r["values"]):
            bad.append(f"sector {key}: {len(rows)} eigenvalues != {len(r['values'])}")
            continue
        limit = tol * r["norm"]
        gap_limit = limit + tol * ref["sectors"][zero]["norm"]
        for j, ((value, k_n, residual), want) in enumerate(zip(rows, r["values"]), 1):
            if abs(value - want) > limit:
                bad.append(f"sector {key} j={j}: eigenvalue {value!r} != {want!r}")
            if abs(k_n - (want - e_ground)) > gap_limit:
                bad.append(f"sector {key} j={j}: K_N {k_n!r} != {want - e_ground!r}")
            if not residual <= limit:
                bad.append(f"sector {key} j={j}: residual {residual!r} > {limit!r}")
    return bad


def dense_ed_reference(size: str) -> dict:
    """Lowest eigenvalues of each ed-1d sector by dense eigh, with ||M||_inf."""
    import numpy as np

    from bogospec import EDConfig, LatticeSpec, Potential, assemble_hamiltonian, build_basis

    p = workloads.ED[size]
    cfg = EDConfig(
        int(p["N"]),
        LatticeSpec(float(p["L"]), 1),
        Potential.gaussian(0.1, 5.0, 1),
        float(p["mode_radius"]),
        int(p["max_excited"]),
    )
    basis = build_basis(cfg)
    out = {}
    for key in workloads.ED_SECTORS.split(";"):
        m = assemble_hamiltonian(cfg, (int(key),), basis[(int(key),)]).matrix
        want = workloads.ED_COUNT + 1 if key == "0" else workloads.ED_COUNT
        values = np.linalg.eigvalsh(m.toarray())[: min(want, m.shape[0])]
        out[key] = {
            "norm": float(abs(m).sum(axis=1).max()),
            "values": [float(v) for v in values],
        }
    return {"tol": workloads.ED_TOL, "zero": "0", "sectors": out}


# -- lattice-3d --------------------------------------------------------------


def summarize_lattice(path: str, v0: float) -> dict:
    _, rows = read_csv(path)
    values = {name: value for name, value in rows}
    out = {name: float(values[name]) for name in LATTICE_FLOATS}
    out["n_terms"] = int(values["n_terms"])
    out["v0"] = v0
    return out


def compare_lattice(got: dict, ref: dict) -> list[str]:
    bad = []
    if got["n_terms"] != ref["n_terms"]:
        bad.append(f"n_terms {got['n_terms']} != {ref['n_terms']}")
    for name in LATTICE_FLOATS + ("v0",):
        if not close(got[name], ref[name]):
            bad.append(f"{name} {got[name]!r} != {ref[name]!r}")
    return bad


# -- verify-suite ------------------------------------------------------------


def summarize_verify(path: str) -> dict:
    """Check names and pass flags; names may hold commas, so split by hand."""
    lines = Path(path).read_text().splitlines()[1:]
    names, passed = [], []
    for line in lines:
        name, *_, flag = line.split(",", 1)[1].rsplit(",", 4)
        names.append(name)
        passed.append(flag == "True")
    return {"names": names, "all_passed": all(passed)}


def compare_verify(got: dict, ref: dict) -> list[str]:
    bad = []
    if got["names"] != ref["names"]:
        bad.append(f"{len(got['names'])} checks, names differ from the {len(ref['names'])} expected")
    if not got["all_passed"]:
        bad.append("a check failed")
    return bad


# -- dispatch ----------------------------------------------------------------


def summarize(workload: str, outputs: dict) -> dict:
    if workload == "spectrum-1d":
        return summarize_spectrum(outputs["csv"])
    if workload == "ed-1d":
        return summarize_ed(outputs["csv"])
    if workload == "lattice-3d":
        return summarize_lattice(outputs["csv"], outputs["v0"])
    return summarize_verify(outputs["csv"])


COMPARE = {
    "spectrum-1d": compare_spectrum,
    "ed-1d": compare_ed,
    "lattice-3d": compare_lattice,
    "verify-suite": compare_verify,
}


def check_operation(workload: str, op: dict, ref: dict) -> list[str]:
    """Why one operation failed: error, nonzero exit or wrong output."""
    if op["error"]:
        return [op["error"].strip().splitlines()[-1]]
    if op["outputs"]["rc"] != 0:
        return [f"exit code {op['outputs']['rc']}"]
    try:
        got = summarize(workload, op["outputs"])
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]
    return COMPARE[workload](got, ref)


def capture(workload: str, size: str, out_dir: Path) -> dict:
    """Reference summary of one operation run in this process."""
    if workload == "ed-1d":
        return dense_ed_reference(size)
    out_dir.mkdir(parents=True, exist_ok=True)
    with contextlib.redirect_stderr(io.StringIO()):  # the verify summary
        outputs = workloads.run_operation(workload, size, 0, str(out_dir / workload))
    if outputs["rc"] != 0:
        raise RuntimeError(f"{workload}: exit code {outputs['rc']}")
    return summarize(workload, outputs)


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    out_dir = HERE.parent / ".perfbench-out" / "capture"
    try:
        refs = {w: capture(w, "full", out_dir) for w in workloads.WORKLOADS}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
