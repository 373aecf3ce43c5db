"""Command-line front end: compute, enumerate, diagonalize, verify.

Every run but `verify` echoes its fully resolved configuration into
`# bogospec` header lines.  `verify` writes a bare CSV report, its column
names and then one row per check, since perfbench's verify parser
(`perfbench/reference.py`) skips exactly one line; its summary, on
stderr and in the `.txt` beside `--out`, starts with the tolerance and
seed it ran with.  Identical configurations produce byte-identical CSV
output (fixed seeds, deterministic summation and ordering throughout).

The other commands format their CSV lines themselves, fields joined by
commas: none needs quoting, being an integer, a float's repr, a fixed
token or one of `enumerate`'s constituent labels (digits, spaces, minus
signs and semicolons).  `enumerate` and `figure` write their lines
straight from the search's ranked entries (`SpectrumTable.entries`),
formatting each distinct energy's text, and `enumerate` each rank's, once
per call; `enumerate` writes each entry's constituents text as the
search formed it, and `figure` skips that field and the index code beside
it; `dispersion` formats each shell |n|^2 = k once per call, its fields
depending on k alone.  Every command lists sectors in (|n|^2, n) order.

A command loads only what it runs.  The ED stack (`fock_ed`, and
`verify` on it) is imported inside `ed` and `verify`; the errors `main`
maps to exit codes, and the default seed, come from `model`.  numpy is
loaded by `energy`, whose quadrature uses it, and with the ED stack;
`enumerate`, `dispersion` and `figure` load none of it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Callable, Iterable, Iterator, NoReturn, Sequence, TextIO

from . import __version__
from .bogoliubov import bogoliubov_energy, coefficients, energy_density_limit
from .excitations import dispersion, enumerate_below
from .model import (
    DEFAULT_SEED,
    EigenConvergenceError,
    GroundSectorError,
    LatticeBudgetError,
    LatticeSpec,
    Momentum,
    Potential,
    PotentialRangeError,
    TailBoundError,
    lattice_coords,
    lattice_points,
    sector_order,
)


class UsageError(ValueError):
    pass


def parse_vhat(text: str, dimension: int) -> Potential:
    """Parse --vhat strings: gaussian:AMP:WIDTH or table:P,V;P,V;..."""
    family, _, rest = text.partition(":")
    try:
        if family == "gaussian":
            amp_s, _, width_s = rest.partition(":")
            return Potential.gaussian(_nonnegative(amp_s), _positive(width_s), dimension)
        if family == "table":
            pairs = [
                tuple(float(t) for t in chunk.split(","))
                for chunk in rest.split(";")
                if chunk
            ]
            return Potential.table(pairs, dimension)
    except (ValueError, TypeError, argparse.ArgumentTypeError) as exc:
        raise UsageError(f"--vhat: cannot parse {text!r}: {exc}") from exc
    raise UsageError(f"--vhat: unknown family {family!r} (use gaussian or table)")


def parse_sectors(text: str, dimension: int) -> list[tuple[int, ...]]:
    """Parse --sectors strings: "0;1;-1" (d=1) or "0 0;1 0" (d=2); blank is none."""
    out = []
    for chunk in text.split(";"):
        if not chunk.strip():
            continue
        try:
            coords = tuple(int(t) for t in chunk.split())
        except ValueError as exc:
            raise UsageError(f"--sectors: cannot parse {chunk!r}: {exc}") from exc
        if len(coords) != dimension:
            raise UsageError(
                f"--sectors: {chunk!r} has {len(coords)} coordinates, expected {dimension}"
            )
        out.append(coords)
    return out


def _emit(
    out: str | None, command: str, config: dict, columns: Sequence[str], lines: Iterable[str]
) -> None:
    """Write the header lines, column names and CSV lines to out, or to stdout.

    Lines are written as they are produced, ROWS_PER_WRITE at a time.  For
    out they go first to an anonymous temporary file, copied to out only
    once every line is written: a run that fails while producing lines
    leaves out as it was, and out is opened for writing as a plain write
    would open it (links followed, its mode kept).  On stdout the lines
    written before a failure stay.
    """
    if not out:
        _write_csv(sys.stdout, command, config, columns, lines)
        return
    with tempfile.TemporaryFile("w+") as staged:
        _write_csv(staged, command, config, columns, lines)
        staged.seek(0)
        with _out_file(out) as fh:
            shutil.copyfileobj(staged, fh)


@contextlib.contextmanager
def _out_file(path: str | Path, mode: str = "w") -> Iterator[TextIO]:
    """path opened for writing; failing to open or write it is a UsageError."""
    try:
        with Path(path).open(mode) as fh:
            yield fh
    except OSError as exc:
        raise UsageError(f"--out: cannot write {str(path)!r}: {exc.strerror or exc}") from exc


def _check_writable(path: Path) -> None:
    """Fail as writing path would, yet leave path as it was: it is opened
    to append, which truncates nothing, and a file the open made is removed."""
    made = not path.exists()
    with _out_file(path, "a"):
        pass
    if made:
        path.resolve().unlink()  # a dangling link keeps dangling


#: CSV lines joined in memory between two writes to the output: one
#: write per line costs a file several times what a join costs
ROWS_PER_WRITE = 4096


def _write_csv(
    fh: TextIO, command: str, config: dict, columns: Sequence[str], lines: Iterable[str]
) -> None:
    fh.write(f"# bogospec {__version__}\n# command: {command}\n"
             f"# config: {json.dumps(config, sort_keys=True)}\n{','.join(columns)}\n")
    lines = iter(lines)
    while block := "".join(itertools.islice(lines, ROWS_PER_WRITE)):
        fh.write(block)


def _line(row: Iterable) -> str:
    """A row's CSV line.  Its fields are ints, floats (whose str is their
    repr) and fixed tokens, none of which needs CSV quoting."""
    return ",".join(map(str, row)) + "\n"


class _Reprs(dict):
    """Each float's repr, computed at its first lookup.

    enumerate and figure make one per call, for their energies: mirrored
    multisets, e(n) = e(-n), sum to the same float, so a spectrum holds
    far fewer distinct energies than rows.  Keyed on the value, which is
    sound for them: every energy is finite and > 0 (the search refuses a
    zero-energy candidate), so no NaN, and never both 0.0 and -0.0.
    """

    def __missing__(self, x: float) -> str:
        text = self[x] = repr(x)
        return text


def _setup(args: argparse.Namespace, **extra) -> tuple[LatticeSpec, Potential, dict]:
    """The lattice and potential of a lattice command, and its `# config:`
    header: L, dimension and potential plus the command's own keys."""
    lattice = LatticeSpec(args.L, args.dim)
    pot = parse_vhat(args.vhat, args.dim)
    return lattice, pot, dict(L=args.L, dimension=args.dim, potential=pot.snapshot(), **extra)


def cmd_dispersion(args: argparse.Namespace) -> int:
    lattice, pot, cfg = _setup(args, window=args.window)
    coords = sector_order(lattice_coords(lattice, args.window, include_zero=False))

    def lines() -> Iterator[str]:
        # abs_p and the coefficients depend on n only through |n|^2, and
        # sector order lists each shell in one run: its tail is formatted once
        for _, run in itertools.groupby(coords, key=lambda n: sum(c * c for c in n)):
            shell = list(run)
            p = Momentum(shell[0], lattice.L)
            co = coefficients(p, pot)
            tail = _line([p.norm, co.e, co.alpha, co.c, co.s])
            for n in shell:
                yield "".join(f"{c}," for c in n) + tail

    cols = [f"n{i + 1}" for i in range(args.dim)] + ["abs_p", "energy", "alpha", "c", "s"]
    _emit(args.out, "dispersion", cfg, cols, lines())
    return 0


def cmd_energy(args: argparse.Namespace) -> int:
    lattice, pot, cfg = _setup(args, tail_tol=args.tail_tol, quad_step=args.quad_step)
    summary = bogoliubov_energy(lattice, pot, tail_tol=args.tail_tol)
    quad = energy_density_limit(pot, step=args.quad_step)
    rows = [
        ["e_bog", summary.e_bog],
        ["e_bog_alt", summary.e_bog_alt],
        ["n_terms", summary.n_terms],
        ["density_finite_L", summary.density_limit],
        ["density_limit", quad.value],
        ["density_limit_error_estimate", quad.error_estimate],
    ]
    _emit(args.out, "energy", cfg, ["quantity", "value"], map(_line, rows))
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    lattice, pot, cfg = _setup(args, kappa=args.kappa, window=args.window)
    table = enumerate_below(lattice, pot, args.kappa, args.window)
    # one text per distinct energy and per rank; the search formed each
    # constituents field
    text = _Reprs()
    ranks = [f"{j}," for j in range(1, max(map(len, table.entries.values()), default=0) + 1)]

    def lines() -> Iterator[str]:
        for key in sector_order(table.entries):
            head = "".join(f"{c}," for c in key)
            for rank, (energy, n_quasi, _, constituents) in zip(ranks, table.entries[key]):
                yield f"{head}{rank}{text[energy]},{n_quasi},{constituents}\n"

    cols = [f"n{i + 1}" for i in range(args.dim)] + ["j", "energy", "n_quasi", "constituents"]
    _emit(args.out, "enumerate", cfg, cols, lines())
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    lattice, pot, cfg = _setup(args, kappa=args.kappa, window=args.window)
    table = enumerate_below(lattice, pot, args.kappa, args.window)
    if args.require_complete_1qp:
        undetermined = [
            p.n
            for p in lattice_points(lattice, args.window, include_zero=False)
            if dispersion(p, pot) > args.kappa
        ]
        if undetermined:
            raise UsageError(
                "1qp curve unresolved (dispersion above kappa) in sectors: "
                + "; ".join(str(n) for n in undetermined)
            )
    h = lattice.spacing
    text = _Reprs()

    def lines() -> Iterator[str]:
        # the class sets the figure's marker: dot, triangle or square
        for key in sector_order(table.entries):
            head = "".join(f"{c}," for c in key) + "".join(f"{h * c!r}," for c in key)
            for energy, n_quasi, _, _ in table.entries[key]:
                cls = "1qp" if n_quasi == 1 else "2qp" if n_quasi == 2 else "3qp+"
                yield f"{head}{text[energy]},{n_quasi},{cls}\n"

    cols = (
        [f"n{i + 1}" for i in range(args.dim)]
        + [f"p{i + 1}" for i in range(args.dim)]
        + ["energy", "n_quasi", "class"]
    )
    _emit(args.out, "figure", cfg, cols, lines())
    return 0


#: the ed flag each --config key stands for
_CONFIG_FLAGS = {
    "N": "--N", "L": "--L", "dimension": "--dim", "mode_radius": "--mode-radius",
    "max_excited": "--max-excited", "sectors": "--sectors", "count": "--count",
    "tol": "--tol", "seed": "--seed", "potential": "--vhat",
}


def _vhat_text(pot: dict) -> str:
    """The --vhat text of a potential dict as Potential.snapshot writes it."""
    if pot["family"] == "table":
        return "table:" + ";".join(",".join(map(json.dumps, s)) for s in pot["samples"])
    return f"{pot['family']}:{json.dumps(pot['amplitude'])}:{json.dumps(pot['width'])}"


def _parse_with_config(
    parser: argparse.ArgumentParser, argv: list[str], cli: argparse.Namespace
) -> argparse.Namespace:
    """Parse argv again with the flags of the JSON file cli.config put first.

    The flags go right after the ed command, so that flags given on the
    command line win, in the --flag=value form, so that a sector list such
    as "-1;1" is not read as an option.  Values keep their JSON spelling
    ("3", 4.5, true, null), so the typed parser accepts exactly what it
    accepts on the command line.
    """
    path = cli.config
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"--config: cannot read {path!r}: {exc}") from exc
    if not isinstance(raw, dict):
        raise UsageError("--config: top level must be an object")
    flags = []
    for key, value in raw.items():
        flag = _CONFIG_FLAGS.get(key)
        if flag is None:
            raise UsageError(f"--config: unknown key {key!r}")
        try:
            if key == "potential":
                text = _vhat_text(value)
            elif key == "sectors":
                text = ";".join(" ".join(map(json.dumps, s)) for s in value)
            else:
                text = json.dumps(value)
        except KeyError as exc:
            raise UsageError(f"--config: key {key!r} lacks {exc}") from exc
        except TypeError as exc:
            raise UsageError(f"--config: key {key!r} is not a {flag} value: {exc}") from exc
        flags.append(f"{flag}={text}")
    start = argv.index("ed") + 1
    try:
        args = parser.parse_args(argv[:start] + flags + argv[start:])
    except UsageError as exc:
        raise UsageError(f"--config: {exc}") from exc
    if "potential" in raw and cli.vhat is None:
        # a potential keeps the dimension it was written for; compared as
        # JSON text, only the integer run dimension itself matches
        pot_dim = json.dumps(raw["potential"].get("dimension", args.dim))
        if pot_dim != str(args.dim):
            raise UsageError(f"--config: potential dimension {pot_dim} differs from "
                             f"the run's dimension {args.dim}")
    return args


def cmd_ed(args: argparse.Namespace) -> int:
    from .fock_ed import EDConfig, default_max_excited, many_body_excitations

    if args.N is None:
        raise UsageError("--N (or config key N) is required")
    if args.vhat is None:
        raise UsageError("a potential is required (--vhat or config)")
    if args.mode_radius is None:
        raise UsageError("--mode-radius (or config key mode_radius) is required")
    max_excited = default_max_excited(args.N) if args.max_excited is None else args.max_excited
    pot = parse_vhat(args.vhat, args.dim)
    cfg = EDConfig(args.N, LatticeSpec(args.L, args.dim), pot, args.mode_radius, max_excited)
    args.max_excited = cfg.effective_max_excited  # for the out-of-memory message of main
    sectors = parse_sectors(args.sectors, args.dim)
    result = many_body_excitations(cfg, sectors, args.count, tol=args.tol, seed=args.seed)
    rows = []
    for key in sector_order(result.sector_values):
        vals = result.sector_values[key]
        res = result.sector_residuals[key]
        for j, val in enumerate(vals):
            k_val = val - result.e_ground
            rows.append(list(key) + [j + 1, float(val), float(k_val), float(res[j])])
    cols = [f"sector_n{i + 1}" for i in range(cfg.lattice.d)] + [
        "j",
        "eigenvalue",
        "K_N",
        "residual",
    ]
    header = dict(cfg.snapshot(), sectors=list(result.sector_values),
                  count=args.count, tol=args.tol, seed=args.seed)
    _emit(args.out, "ed", header, cols, map(_line, rows))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from . import verify

    if args.out:
        out = Path(args.out)
        if out.suffix == ".txt":  # the summary's own path
            raise UsageError(f"--out: {args.out!r} ends in .txt, where the summary goes")
        # both checked before the suite runs, and written only after it: a
        # path that cannot be written stops the command with both as they were
        _check_writable(out)
        _check_writable(out.with_suffix(".txt"))
    report = verify.run_default_suite(tol=args.tol, seed=args.seed)
    csv_text = report.to_csv_text()
    summary = f"tol {args.tol!r}, seed {args.seed}\n" + report.summary()
    if args.out:
        with _out_file(out) as fh, _out_file(out.with_suffix(".txt")) as summary_fh:
            fh.write(csv_text)
            summary_fh.write(summary)
    else:
        sys.stdout.write(csv_text)
    sys.stderr.write(summary)
    return 0 if report.all_passed else 1


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a bad flag as a UsageError, which main turns into one line."""

    def error(self, message: str) -> NoReturn:
        raise UsageError(message)


def _checked(kind: type, ok: Callable[[float], bool], rule: str) -> Callable[[str], float]:
    """An argparse type: text read by kind, and kept only if ok(value)."""

    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse's "invalid int value: 'x'" names it
    return parse


_count = _checked(int, lambda v: v >= 1, ">= 1")
_natural = _checked(int, lambda v: v >= 0, ">= 0")
_dimension = _checked(int, lambda v: v in (1, 2, 3), "1, 2 or 3")
_positive = _checked(float, lambda v: 0.0 < v < math.inf, "finite and > 0")
_nonnegative = _checked(float, lambda v: 0.0 <= v < math.inf, "finite and >= 0")
_side = _checked(float, lambda v: 1.0 <= v < math.inf, "finite and >= 1")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The six-command parser, built once per process: main and
    _parse_with_config parse with it, and parsing does not change it."""
    parser = _ArgumentParser(
        prog="bogospec",
        description="Bogoliubov spectra and truncated-Fock-space diagonalization "
        "of a homogeneous Bose gas on a torus",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, need_vhat: bool = True) -> None:
        p.add_argument("--vhat", required=need_vhat, default=None,
                       help="potential, e.g. gaussian:0.1:5 or table:0,0.3;0.5,0;8,0")
        p.add_argument("--L", type=_side, default=2.0 * math.pi, help="torus side length")
        p.add_argument("--dim", type=_dimension, default=1, help="dimension (1, 2 or 3)")
        p.add_argument("--out", default=None, help="output CSV path (default stdout)")

    p = sub.add_parser("dispersion", help="elementary excitation curve over a window")
    common(p)
    p.add_argument("--window", type=_nonnegative, required=True,
                   help="momentum window |p| <= window")
    p.set_defaults(func=cmd_dispersion)

    p = sub.add_parser("energy", help="Bogoliubov energy and density limit")
    common(p)
    p.add_argument("--tail-tol", type=_positive, default=None)
    p.add_argument("--quad-step", type=_positive, default=0.005)
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("enumerate", help="all excitations below an energy cutoff")
    common(p)
    p.add_argument("--kappa", type=_nonnegative, required=True, help="energy cutoff")
    p.add_argument("--window", type=_nonnegative, required=True)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("figure", help="classified spectrum data (dots/triangles/squares)")
    common(p)
    p.add_argument("--kappa", type=_nonnegative, required=True)
    p.add_argument("--window", type=_nonnegative, required=True)
    p.add_argument("--require-complete-1qp", action="store_true",
                   help="error out if the 1qp curve is not fully below kappa")
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("ed", help="exact diagonalization of momentum sectors")
    common(p, need_vhat=False)
    p.add_argument("--config", default=None, help="JSON run configuration")
    p.add_argument("--N", type=_count, default=None, help="particle number")
    p.add_argument("--mode-radius", type=_nonnegative, default=None)
    p.add_argument("--max-excited", type=_natural, default=None)
    p.add_argument("--sectors", default="", help='e.g. "0;1;-1" (d=1), "0 0;1 0" (d=2)')
    p.add_argument("--count", type=_count, default=3)
    p.add_argument("--tol", type=_positive, default=1e-9)
    p.add_argument("--seed", type=_natural, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_ed)

    p = sub.add_parser("verify", help="run the verification suite; exit 0 iff all pass")
    p.add_argument("--out", default=None, help="report CSV path, not .txt (summary goes to .txt)")
    p.add_argument("--tol", type=_positive, default=1e-9)
    p.add_argument("--seed", type=_natural, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_verify)
    return parser


#: exit codes of main besides 0 (success) and 1 (a verify check failed)
EXIT_USAGE = 2
EXIT_EIGENSOLVER = 3
EXIT_GROUND_SECTOR = 4
EXIT_MEMORY = 5


def _eigensolver_message(exc: EigenConvergenceError, tol: float) -> str:
    finite = [float(r) for r in exc.residuals if r == r]  # NaN: no residual known
    worst = f"largest residual {max(finite):.3e}" if finite else "no converged residual"
    return f"eigensolver failed: {exc}; {worst} against tolerance {tol:g} x ||M||_inf"


#: the flags that set the radius of the lattice_points ball a command
#: lists.  enumerate meets its own EnumerationBudgetError first, and the
#: shell sum of v(0) runs only in verify, on its fixed configurations
_RADIUS_FLAGS = {
    "dispersion": "--window", "figure": "--window",
    "energy": "--L or the --vhat width", "ed": "--mode-radius",
}


def _memory_message(args: argparse.Namespace) -> str:
    if args.command == "ed" and args.max_excited is not None:
        return f"out of memory; try --max-excited below {args.max_excited}"
    return "out of memory"


def _join_negative_sectors(argv: list[str]) -> list[str]:
    """argv with each --sectors value that starts with "-" and a digit,
    such as "-1;1", joined onto its flag as --sectors=-1;1: argparse
    would read the value as an option.  Nothing else is joined, so
    "--sectors --count 1" still lacks its argument."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--sectors" and arg[:1] == "-" and arg[1:2].isdecimal():
            out[-1] = f"--sectors={arg}"
        else:
            out.append(arg)
    return out


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command; the failures below become one line on stderr.

    Exit codes: 0 success, 1 a verify check failed, 2 usage or input
    error, 3 eigensolver did not converge, 4 ground state outside the
    zero sector, 5 out of memory.
    """
    parser = build_parser()
    argv = _join_negative_sectors(sys.argv[1:] if argv is None else list(argv))
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            args = _parse_with_config(parser, argv, args)
        return args.func(args)
    except (PotentialRangeError, TailBoundError) as exc:  # always the potential's
        message, code = f"--vhat: {exc}", EXIT_USAGE
    except LatticeBudgetError as exc:
        message, code = f"{exc}; lower {_RADIUS_FLAGS[args.command]}", EXIT_USAGE
    except ValueError as exc:  # UsageError among them
        message, code = str(exc), EXIT_USAGE
    except EigenConvergenceError as exc:
        message, code = _eigensolver_message(exc, args.tol), EXIT_EIGENSOLVER
    except GroundSectorError as exc:
        message, code = f"ground-state check failed: {exc}", EXIT_GROUND_SECTOR
    except MemoryError:
        message, code = _memory_message(args), EXIT_MEMORY
    sys.stderr.write(f"bogospec: error: {message}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
