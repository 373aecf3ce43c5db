"""Traced run: spans around bogospec's public functions, from outside it.

`Tracer.install` replaces each function in TARGETS under every module
name it is bound to (for example both `cli.enumerate_below` and
`verify.enumerate_below`) with one wrapper that records a span:
name, start, end, parent span and run id (the operation index).  Spans
stay in memory until `Tracer.dump` writes them out.

At each span the wrapper also records counts taken from the call's
arguments and result (records, states, nonzeros, points, ...).  From
these `Tracer.layer_metrics` derives the per-layer numbers, with self
time = span duration minus the union of its child spans, and
`Tracer.identity_failures` checks the exact counter identities.  Each
identity compares a count summed over the spans of one function with
the same count taken at another span boundary, so that a call counted
twice (a function wrapped twice) breaks it; a Hamiltonian solved without
an assemble_hamiltonian span breaks the nnz identity too.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

#: public functions wrapped in the traced run, by defining module
TARGETS = {
    "model": ("lattice_points", "periodized_value"),
    "bogoliubov": ("bogoliubov_energy", "energy_density_limit"),
    "excitations": ("enumerate_below",),
    "fock_ed": (
        "build_basis",
        "assemble_hamiltonian",
        "assemble_estimating",
        "assemble_kinetic",
        "assemble_excited_count",
        "lowest_eigenvalues",
        "many_body_excitations",
    ),
    "verify": ("check_sandwich", "compare_spectra", "run_default_suite"),
    "cli": ("main",),
}

#: per-layer metrics of the traced run: (name, unit, better)
LAYER_METRICS = (
    ("cli.main.s", "s", "lower"),
    ("cli.rows", "count", "higher"),
    ("cli.csv_bytes", "bytes", "lower"),
    ("excitations.enumerate_below.s", "s", "lower"),
    ("excitations.enumerate_below.records", "count", "higher"),
    ("excitations.enumerate_below.sectors", "count", "higher"),
    ("excitations.enumerate_below.records_per_s", "1/s", "higher"),
    ("fock_ed.build_basis.s", "s", "lower"),
    ("fock_ed.build_basis.calls", "count", "lower"),
    ("fock_ed.build_basis.states_built", "count", "lower"),
    ("fock_ed.build_basis.useful_ratio", "ratio", "higher"),
    ("fock_ed.assemble_hamiltonian.s", "s", "lower"),
    ("fock_ed.assemble_hamiltonian.calls", "count", "lower"),
    ("fock_ed.assemble_hamiltonian.dim_sum", "count", "lower"),
    ("fock_ed.assemble_hamiltonian.nnz", "count", "lower"),
    ("fock_ed.assemble_hamiltonian.us_per_nnz", "us", "lower"),
    ("fock_ed.assemble_estimating.s", "s", "lower"),
    ("fock_ed.assemble_estimating.nnz", "count", "lower"),
    ("verify.check_sandwich.s", "s", "lower"),
    ("fock_ed.lowest_eigenvalues.s", "s", "lower"),
    ("fock_ed.lowest_eigenvalues.calls_dense", "count", "lower"),
    ("fock_ed.lowest_eigenvalues.calls_lanczos", "count", "lower"),
    ("fock_ed.many_body_excitations.s", "s", "lower"),
    ("verify.compare_spectra.s", "s", "lower"),
    ("verify.run_default_suite.s", "s", "lower"),
    ("verify.checks", "count", "higher"),
    ("verify.checks_failed", "count", "lower"),
    ("model.lattice_points.s", "s", "lower"),
    ("model.lattice_points.points", "count", "lower"),
    ("model.periodized_value.s", "s", "lower"),
    ("bogoliubov.bogoliubov_energy.s", "s", "lower"),
    ("bogoliubov.bogoliubov_energy.n_terms", "count", "lower"),
    ("bogoliubov.energy_density_limit.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


#: metrics named by layer only, and the span counter they report
SHORT_NAMES = {
    "cli.rows": "cli.main.rows",
    "cli.csv_bytes": "cli.main.csv_bytes",
    "verify.checks": "verify.run_default_suite.checks",
    "verify.checks_failed": "verify.run_default_suite.checks_failed",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "run", "counts")

    def __init__(self, name: str, start: float, end: float, parent: int, run: int):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.run = run
        self.counts: dict[str, int] = {}


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its direct children."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out.append((s.end - s.start) - covered)
    return out


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[int] = []
        # objects seen in the current run, held so that their ids stay
        # unique until end_run: build_basis spans and the dicts they
        # returned; the sector lists of those dicts, by id; the dims that
        # assembly spans saw per (dict id, sector); assemble_hamiltonian
        # spans and their matrices; the Hamiltonians lowest_eigenvalues
        # received, by id
        self._built: list[tuple[Span, dict]] = []
        self._lists: dict[int, tuple[Span, dict, tuple]] = {}
        self._seen: dict[tuple[int, tuple], int] = {}
        self._assembled: list[tuple[Span, object]] = []
        self._solved: dict[int, tuple[object, int]] = {}
        # identities of the fock_ed layer that broke, by run id
        self._broken: dict[int, list[str]] = defaultdict(list)

    def begin_run(self, run: int) -> None:
        self.run = run

    def end_run(self) -> None:
        """Check the run's fock_ed identities, then drop its objects.

        states_built summed over build_basis spans equals, over the
        distinct dicts they returned, the dims the assembly spans saw plus
        the sizes of the sectors no assembly used.  nnz summed over the
        assemble_hamiltonian spans whose matrix reached lowest_eigenvalues
        equals the nnz of the distinct Hamiltonians lowest_eigenvalues
        received.
        """
        built = sum(span.counts["states_built"] for span, _ in self._built)
        sizes = 0
        for d in {id(d): d for _, d in self._built}.values():
            for key, states in d.items():
                sizes += self._seen.get((id(d), key), len(states))
        if built != sizes:
            self._broken[self.run].append(
                f"build_basis.states_built {built} != sector sizes {sizes}"
            )
        nnz = sum(
            span.counts["nnz"] for span, m in self._assembled if id(m) in self._solved
        )
        solved = sum(n for _, n in self._solved.values())
        if nnz != solved:
            self._broken[self.run].append(
                f"assemble_hamiltonian.nnz {nnz} != nnz solved {solved}"
            )
        self._built.clear()
        self._lists.clear()
        self._seen.clear()
        self._assembled.clear()
        self._solved.clear()

    def install(self):
        """Wrap every target under every name it has; returns an undo."""
        package = importlib.import_module("bogospec")
        modules = [package] + [
            importlib.import_module(f"bogospec.{m}") for m in TARGETS
        ]
        wrappers = {}
        for mod, names in TARGETS.items():
            defining = importlib.import_module(f"bogospec.{mod}")
            for fname in names:
                fn = getattr(defining, fname)
                wrappers[id(fn)] = (fn, self._wrap(f"{mod}.{fname}", fn))
        undo = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    undo.append((module, attr, value))

        def restore() -> None:
            for module, attr, value in undo:
                setattr(module, attr, value)

        return restore

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, 0.0, 0.0, parent, self.run)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if counter is not None:
                counter(self, span, signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    # -- counters, taken at the span boundary ------------------------------

    def _mark_used(self, basis, dim: int) -> None:
        """An assembly ran on `basis`; count it once per built sector."""
        build = self._lists.get(id(basis))
        if build is None:  # not a sector list build_basis returned
            return
        span, d, key = build
        if (id(d), key) not in self._seen:
            self._seen[(id(d), key)] = dim
            span.counts["useful"] = span.counts.get("useful", 0) + dim

    # -- results ------------------------------------------------------------

    def layer_metrics(self, n_runs: int) -> dict[str, float]:
        """Per-layer numbers, averaged per operation."""
        self_s: dict[str, float] = defaultdict(float)
        counts: dict[str, float] = defaultdict(float)
        for span, st in zip(self.spans, self_times(self.spans)):
            self_s[span.name] += st
            counts[span.name + ".calls"] += 1
            for k, v in span.counts.items():
                counts[f"{span.name}.{k}"] += v
        per_op = {k: v / n_runs for k, v in counts.items()}

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        out = {}
        for name, _, _ in LAYER_METRICS:
            if name.endswith(".s"):
                out[name] = self_s.get(name[:-2], 0.0) / n_runs
            else:
                out[name] = per_op.get(SHORT_NAMES.get(name, name), 0.0)
        out["excitations.enumerate_below.records_per_s"] = ratio(
            counts["excitations.enumerate_below.records"],
            self_s["excitations.enumerate_below"],
        )
        out["fock_ed.build_basis.useful_ratio"] = ratio(
            counts["fock_ed.build_basis.useful"], counts["fock_ed.build_basis.states_built"]
        )
        out["fock_ed.assemble_hamiltonian.us_per_nnz"] = ratio(
            1e6 * self_s["fock_ed.assemble_hamiltonian"],
            counts["fock_ed.assemble_hamiltonian.nnz"],
        )
        return out

    def identity_failures(self) -> dict[int, list[str]]:
        """Counter identities that break, by run id.

        The records enumerate_below returns are the rows its cli.main
        parent writes, and bogoliubov_energy's n_terms are the points of
        its lattice_points child; the fock_ed identities are those that
        `end_run` checked.
        """
        bad: dict[int, list[str]] = defaultdict(list)
        for run, why in self._broken.items():
            bad[run].extend(why)
        children: dict[int, list[Span]] = defaultdict(list)
        for s in self.spans:
            if s.parent >= 0:
                children[s.parent].append(s)

        def child_sum(i: int, name: str, key: str) -> int:
            return sum(c.counts.get(key, 0) for c in children[i] if c.name == name)

        for i, s in enumerate(self.spans):
            enumerated = any(c.name == "excitations.enumerate_below" for c in children[i])
            if s.name == "cli.main" and enumerated and "rows" in s.counts:
                records = child_sum(i, "excitations.enumerate_below", "records")
                if records != s.counts["rows"]:
                    bad[s.run].append(
                        f"enumerate_below.records {records} != cli.rows {s.counts['rows']}"
                    )
            if s.name == "bogoliubov.bogoliubov_energy" and "n_terms" in s.counts:
                points = child_sum(i, "model.lattice_points", "points")
                if points != s.counts["n_terms"]:
                    bad[s.run].append(
                        f"bogoliubov_energy.n_terms {s.counts['n_terms']} != "
                        f"lattice_points.points {points}"
                    )
        return dict(bad)

    def dump(self, path: Path) -> None:
        rows = [
            [s.name, s.start, s.end, s.parent, s.run, s.counts] for s in self.spans
        ]
        path.write_text(json.dumps({"spans": rows}) + "\n")


def _count_cli(tr: Tracer, span: Span, args: dict, result) -> None:
    argv = list(args.get("argv") or ())
    if "--out" not in argv:
        return
    data = Path(argv[argv.index("--out") + 1]).read_bytes()
    lines = [ln for ln in data.split(b"\n") if ln and not ln.startswith(b"#")]
    span.counts["rows"] = max(len(lines) - 1, 0)
    span.counts["csv_bytes"] = len(data)


def _count_enumerate(tr: Tracer, span: Span, args: dict, table) -> None:
    span.counts["records"] = sum(len(v) for v in table.sectors.values())
    span.counts["sectors"] = len(table.sectors)


def _count_build(tr: Tracer, span: Span, args: dict, sectors: dict) -> None:
    span.counts["states_built"] = sum(len(v) for v in sectors.values())
    tr._built.append((span, sectors))
    for key, states in sectors.items():
        tr._lists[id(states)] = (span, sectors, key)


def _count_assembly(tr: Tracer, span: Span, args: dict, m) -> None:
    span.counts["dim_sum"] = m.dim
    span.counts["nnz"] = m.matrix.nnz
    if span.name == "fock_ed.assemble_hamiltonian":
        tr._assembled.append((span, m))
    tr._mark_used(args.get("basis"), m.dim)


def _count_eigen(tr: Tracer, span: Span, args: dict, res) -> None:
    span.counts["calls_" + res.method] = 1
    m = args["m"]
    if getattr(m, "kind", None) == "H":  # what assemble_hamiltonian returns
        tr._solved[id(m)] = (m, m.matrix.nnz)


def _count_lattice(tr: Tracer, span: Span, args: dict, pts: list) -> None:
    span.counts["points"] = len(pts)


def _count_energy(tr: Tracer, span: Span, args: dict, summary) -> None:
    span.counts["n_terms"] = summary.n_terms


def _count_suite(tr: Tracer, span: Span, args: dict, report) -> None:
    results = [c.passed for c in report.checks] + [f.passed for f in report.scaling_fits]
    span.counts["checks"] = len(results)
    span.counts["checks_failed"] = results.count(False)


COUNTERS = {
    "cli.main": _count_cli,
    "excitations.enumerate_below": _count_enumerate,
    "fock_ed.build_basis": _count_build,
    "fock_ed.assemble_hamiltonian": _count_assembly,
    "fock_ed.assemble_estimating": _count_assembly,
    "fock_ed.assemble_kinetic": _count_assembly,
    "fock_ed.assemble_excited_count": _count_assembly,
    "fock_ed.lowest_eigenvalues": _count_eigen,
    "model.lattice_points": _count_lattice,
    "bogoliubov.bogoliubov_energy": _count_energy,
    "verify.run_default_suite": _count_suite,
}
