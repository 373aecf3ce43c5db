"""CLI surface: flags, CSV contracts, reproducibility, exit codes."""

import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bogospec
from bogospec import cli, fock_ed, verify
from bogospec.cli import ROWS_PER_WRITE, main, parse_sectors, parse_vhat
from bogospec.excitations import SpectrumTable, damping_scan, enumerate_below
from bogospec.model import TAU, LatticeSpec, Potential


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    header = [ln for ln in text.splitlines() if ln.startswith("#")]
    body = "\n".join(ln for ln in text.splitlines() if not ln.startswith("#"))
    rows = list(csv.reader(io.StringIO(body)))
    return header, rows[0], rows[1:]


def test_parse_vhat_forms():
    g = parse_vhat("gaussian:0.1:5", 1)
    assert g.family == "gaussian" and g.amplitude == 0.1 and g.width == 5.0
    t = parse_vhat("table:0,0.3;0.5,0;8,0", 1)
    assert t.family == "table" and t.samples[0] == (0.0, 0.3)
    with pytest.raises(ValueError):
        parse_vhat("lorentzian:1:2", 1)
    with pytest.raises(ValueError):
        parse_vhat("gaussian:abc:2", 1)


def test_parse_sectors():
    assert parse_sectors("0;1;-1", 1) == [(0,), (1,), (-1,)]
    assert parse_sectors("0 0;1 0", 2) == [(0, 0), (1, 0)]
    with pytest.raises(ValueError):
        parse_sectors("0 0", 1)


def test_dispersion_free_case(capsys):
    code, out, _ = run_cli(
        ["dispersion", "--vhat", "gaussian:0:1", "--L", str(2 * math.pi),
         "--dim", "1", "--window", "3"],
        capsys,
    )
    assert code == 0
    header, cols, rows = parse_csv(out)
    assert header[0].startswith("# bogospec ")
    assert any(h.startswith("# config:") for h in header)
    assert cols == ["n1", "abs_p", "energy", "alpha", "c", "s"]
    for row in rows:
        n, abs_p, energy = int(row[0]), float(row[1]), float(row[2])
        assert energy == pytest.approx(abs_p**2, rel=1e-12)
        assert float(row[3]) == 0.0
    # sorted by |p| then lexicographic n
    ns = [int(r[0]) for r in rows]
    assert ns == [-1, 1, -2, 2, -3, 3]


def test_dispersion_empty_window_header_only(capsys):
    code, out, _ = run_cli(
        ["dispersion", "--vhat", "gaussian:0.1:5", "--L", str(2 * math.pi),
         "--window", "0.5"],
        capsys,
    )
    assert code == 0
    _, cols, rows = parse_csv(out)
    assert cols and rows == []


def test_dispersion_past_a_compact_tables_last_sample_is_free(capsys):
    # the verify suite's k0 potential: 0 from |p| = 0.5 on, last sampled at 8
    code, out, err = run_cli(
        ["dispersion", "--vhat", "table:0,0.3;0.5,0;8,0", "--window", "10"], capsys)
    assert (code, err) == (0, "")
    _, cols, rows = parse_csv(out)
    assert cols == ["n1", "abs_p", "energy", "alpha", "c", "s"]
    assert [int(r[0]) for r in rows] == [n for k in range(1, 11) for n in (-k, k)]
    for n, abs_p, energy, alpha, c, s in rows[16:]:  # |p| = 9 and 10
        assert (abs_p, energy) == (f"{abs(int(n))}.0", f"{int(n) ** 2}.0")
        assert (alpha, c, s) == ("0.0", "1.0", "0.0")


def test_enumerate_past_a_compact_tables_last_sample(capsys):
    args = ["enumerate", "--vhat", "table:0,0.3;0.5,0;8,0", "--L", "1.5707963267948966",
            "--kappa", "150", "--window", "12"]
    code, out, err = run_cli(args, capsys)
    assert (code, err) == (0, "")
    _, _, rows = parse_csv(out)
    # spacing 4, and vhat = 0 from |p| = 0.5 on: each mode's energy is |p|^2,
    # the one at |p| = 12, past the last sample at 8, too
    assert ["3", "6", "144.0", "1", "3"] in rows
    assert ["-3", "6", "144.0", "1", "-3"] in rows


def test_byte_identical_reruns(tmp_path, capsys):
    args = ["dispersion", "--vhat", "gaussian:0.1:5", "--L", "41.887902047863905",
            "--window", "3"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# the rows at |p| = 1 are produced before |p| = 2 falls outside the table
FAILING_DISPERSION = ["dispersion", "--vhat", "table:0,0.3;1,0.2", "--L", "6.28318530718",
                      "--window", "3"]
FAILING_DISPERSION_ERR = (
    "bogospec: error: --vhat: |p| = 1.9999999999998683 outside table range [0.0, 1.0]\n"
)


def test_failure_while_writing_rows_leaves_no_out_file(tmp_path, capsys):
    out = tmp_path / "dispersion.csv"
    code, stdout, err = run_cli([*FAILING_DISPERSION, "--out", str(out)], capsys)
    assert code == 2
    assert stdout == ""
    assert err == FAILING_DISPERSION_ERR
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("mode", [0o644, 0o444])
def test_failure_while_writing_rows_leaves_an_existing_out_file_as_it_was(tmp_path, capsys, mode):
    out = tmp_path / "dispersion.csv"
    out.write_text("earlier results\n")
    out.chmod(mode)
    code, _, err = run_cli([*FAILING_DISPERSION, "--out", str(out)], capsys)
    assert (code, err) == (2, FAILING_DISPERSION_ERR)
    assert out.read_bytes() == b"earlier results\n"
    assert out.stat().st_mode & 0o777 == mode
    assert list(tmp_path.iterdir()) == [out]


def test_out_through_a_symlink_writes_its_target(tmp_path, capsys):
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text("earlier results\n")
    target.chmod(0o640)
    link.symlink_to(target)
    code, _, _ = run_cli([*FAILING_DISPERSION, "--out", str(link)], capsys)
    assert code == 2
    assert link.is_symlink() and target.read_bytes() == b"earlier results\n"
    args = ["dispersion", "--vhat", "gaussian:0.1:5", "--L", "6.28318530718", "--window", "2"]
    assert run_cli([*args, "--out", str(link)], capsys)[0] == 0
    code, stdout, _ = run_cli(args, capsys)
    assert link.is_symlink() and target.read_text() == stdout
    assert target.stat().st_mode & 0o777 == 0o640


def test_out_that_cannot_be_written_exits_2(tmp_path, capsys):
    # a directory, and a file in a directory that does not exist
    taken, missing = tmp_path / "taken", tmp_path / "missing" / "report.csv"
    taken.mkdir()
    args = ["enumerate", "--vhat", "gaussian:0:1", "--L", "6.28318530718", "--kappa", "5.5",
            "--window", "2", "--out", str(taken)]
    for args, out in ((args, taken), (["verify", "--out", str(missing)], missing)):
        code, stdout, err = run_cli(args, capsys)
        assert (code, stdout) == (2, "")
        assert err.startswith(f"bogospec: error: --out: cannot write {str(out)!r}: ")
        assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [taken] and list(taken.iterdir()) == []


def test_verify_writes_no_report_when_its_summary_cannot_be_written(tmp_path, capsys):
    # an earlier report keeps its bytes
    out = tmp_path / "report.csv"
    out.write_bytes(b"earlier report\n")
    out.with_suffix(".txt").mkdir()
    code, stdout, err = run_cli(["verify", "--out", str(out)], capsys)
    assert (code, stdout) == (2, "")
    summary = str(out.with_suffix(".txt"))
    assert err.startswith(f"bogospec: error: --out: cannot write {summary!r}: ")
    assert out.read_bytes() == b"earlier report\n"


def test_verify_checks_its_paths_before_running_the_suite(tmp_path, monkeypatch, capsys):
    # an unwritable summary stops the command before any check runs, and
    # leaves no report file behind
    def not_run(**kwargs):
        raise AssertionError("the suite ran")

    monkeypatch.setattr(verify, "run_default_suite", not_run)
    out = tmp_path / "report.csv"
    out.with_suffix(".txt").mkdir()
    code, stdout, err = run_cli(["verify", "--out", str(out)], capsys)
    assert (code, stdout) == (2, "") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [out.with_suffix(".txt")]


def test_verify_out_ending_in_txt_exits_2(tmp_path, capsys):
    # the summary would go to report.txt too, over the report
    out = tmp_path / "report.txt"
    code, stdout, err = run_cli(["verify", "--out", str(out)], capsys)
    assert (code, stdout) == (2, "")
    assert err.startswith("bogospec: error: --out: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_every_listing_keeps_the_sectors_on_the_window_sphere(capsys):
    # spacing 0.1 and window 0.3: h * 3 reads 0.30000000000000004, above
    # the window in floats, yet sectors +-3 lie on its sphere
    want = {(c,) for c in (-3, -2, -1, 1, 2, 3)}
    lattice = LatticeSpec(TAU / 0.1, 1)
    base = ["--vhat", "gaussian:0.1:5", "--L", repr(lattice.L), "--window", "0.3"]
    code, out, _ = run_cli(["enumerate", *base, "--kappa", "1"], capsys)
    assert code == 0 and {(int(r[0]),) for r in parse_csv(out)[2]} - {(0,)} == want
    code, out, _ = run_cli(["dispersion", *base], capsys)
    rows = parse_csv(out)[2]
    assert code == 0 and {(int(r[0]),) for r in rows} == want
    assert rows[-1][:2] == ["3", repr(0.1 * 3)]  # |p| prints an ulp above the window
    table = enumerate_below(lattice, Potential.gaussian(0.1, 5.0, 1), 1.0, 0.3)
    assert {row.sector for row in damping_scan(table)} == want
    code, _, err = run_cli(["figure", *base, "--kappa", "0.01", "--require-complete-1qp"],
                           capsys)
    assert code == 2
    assert set(err.rstrip("\n").split("sectors: ")[1].split("; ")) == set(map(str, want))


def test_enumerate_csv(capsys):
    code, out, _ = run_cli(
        ["enumerate", "--vhat", "gaussian:0:1", "--L", str(2 * math.pi),
         "--kappa", "5.5", "--window", "2"],
        capsys,
    )
    assert code == 0
    _, cols, rows = parse_csv(out)
    assert cols == ["n1", "j", "energy", "n_quasi", "constituents"]
    sector1 = [r for r in rows if r[0] == "1"]
    assert [float(r[2]) for r in sector1] == [1.0, 3.0, 5.0, 5.0]
    assert sector1[1][4] == "-1;1;1"


# enumerate and figure format their lines themselves; these tables cover
# 1D, 2D and 3D with negative coordinates, a table potential, and kappa = 0
# (no excitation)
ENUMERATE_TABLES = [
    (1, "gaussian:0.1:5", 41.8879020479, 1.2, 3.0),
    (2, "gaussian:0.1:5", 12.0, 3.0, 2.0),
    (3, "gaussian:0.1:5", 10.0, 1.5, 1.0),
    (1, "table:0,0.3;1.5,0.1;2.5,0", 9.0, 6.0, 3.0),
    (1, "gaussian:0.1:5", 6.28318530718, 0.0, 2.0),
    # the free gas: 2,887 rows over 17 distinct energies, several an ulp apart
    (3, "gaussian:0:1", 6.28318530718, 6.0, 2.0),
]


def _assert_lines_match_csv_writer(tmp_path, capsys, command, case, rows):
    """command's output on an ENUMERATE_TABLES case, to a file and to
    stdout, is its three header lines and then rows (the column names
    first) as csv.writer writes them."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    dim, vhat, side, kappa, window = case
    args = [command, "--vhat", vhat, "--dim", str(dim), "--L", repr(side),
            "--kappa", repr(kappa), "--window", repr(window)]
    out = tmp_path / "spectrum.csv"
    assert run_cli([*args, "--out", str(out)], capsys)[0] == 0
    code, stdout, _ = run_cli(args, capsys)
    assert code == 0 and out.read_text() == stdout
    lines = stdout.splitlines(keepends=True)
    assert [line[:2] for line in lines[:3]] == ["# "] * 3
    # compared as lists, which pytest reports at their first difference
    # where its diff of two long strings takes minutes
    assert lines[3:] == buf.getvalue().splitlines(keepends=True)
    assert (kappa == 0.0) == (stdout.count("\n") == 4)


def _records(table):
    """(key, record) over table.sectors, sectors in (|n|^2, n) order."""
    for key in sorted(table.sectors, key=lambda k: (sum(c * c for c in k), k)):
        for r in table.sectors[key]:
            yield key, r


@pytest.mark.parametrize("dim, vhat, side, kappa, window", ENUMERATE_TABLES)
def test_enumerate_lines_match_csv_writer(tmp_path, capsys, dim, vhat, side, kappa, window):
    # the records, written by csv.writer as rows of coordinates, rank,
    # energy, n_quasi and the "x y" constituent labels joined by ";"
    table = enumerate_below(LatticeSpec(side, dim), parse_vhat(vhat, dim), kappa, window)
    rows = [[f"n{i + 1}" for i in range(dim)] + ["j", "energy", "n_quasi", "constituents"]]
    for key, r in _records(table):
        text = ";".join(" ".join(map(str, m.n)) for m in r.constituents)
        rows.append([*key, r.rank, r.energy, r.n_quasi, text])
    _assert_lines_match_csv_writer(tmp_path, capsys, "enumerate",
                                   (dim, vhat, side, kappa, window), rows)


@pytest.mark.parametrize("dim, vhat, side, kappa, window", ENUMERATE_TABLES)
def test_figure_lines_match_csv_writer(tmp_path, capsys, dim, vhat, side, kappa, window):
    # the records, written by csv.writer as rows of coordinates, momenta
    # h * n, energy, n_quasi and the class with n_quasi clamped at 3
    table = enumerate_below(LatticeSpec(side, dim), parse_vhat(vhat, dim), kappa, window)
    h = table.lattice.spacing
    rows = [[f"n{i + 1}" for i in range(dim)] + [f"p{i + 1}" for i in range(dim)]
            + ["energy", "n_quasi", "class"]]
    for key, r in _records(table):
        cls = "1qp" if r.n_quasi == 1 else "2qp" if r.n_quasi == 2 else "3qp+"
        rows.append([*key, *(h * c for c in key), r.energy, r.n_quasi, cls])
    _assert_lines_match_csv_writer(tmp_path, capsys, "figure",
                                   (dim, vhat, side, kappa, window), rows)


@pytest.mark.parametrize("command", ["enumerate", "figure"])
def test_spectrum_commands_build_no_records(monkeypatch, capsys, command):
    # both write their lines from the ranked entries, never from the records
    def unbuilt(table):
        raise AssertionError("SpectrumTable.sectors was read")

    monkeypatch.setattr(SpectrumTable, "sectors", property(unbuilt))
    code, out, _ = run_cli([command, "--vhat", "gaussian:0.1:5", "--L", "41.8879020479",
                            "--kappa", "1.2", "--window", "3"], capsys)
    assert code == 0 and out.count("\n") > 1000


@pytest.mark.parametrize("args", [
    ["enumerate", "--vhat", "gaussian:0.1:5", "--L", "41.8879020479",
     "--kappa", "1.4", "--window", "3"],
    ["dispersion", "--vhat", "gaussian:0.1:5", "--dim", "2", "--window", "40"],
])
def test_stdout_and_out_get_the_same_bytes(tmp_path, capsys, args):
    # more lines than one ROWS_PER_WRITE block, so blocks join on both sinks
    out = tmp_path / "run.csv"
    assert run_cli([*args, "--out", str(out)], capsys)[0] == 0
    code, stdout, _ = run_cli(args, capsys)
    assert code == 0
    assert stdout.count("\n") > ROWS_PER_WRITE
    assert out.read_bytes() == stdout.encode()


def test_figure_csv_and_guard(capsys):
    base = ["figure", "--vhat", "gaussian:0.1:5", "--L", "41.887902047863905",
            "--kappa", "0.4", "--window", "0.4"]
    code, out, _ = run_cli(base, capsys)
    assert code == 0
    _, cols, rows = parse_csv(out)
    assert cols == ["n1", "p1", "energy", "n_quasi", "class"]
    assert {r[4] for r in rows} <= {"1qp", "2qp", "3qp+"}
    # with kappa below dispersion(0.3) the 1qp curve is incomplete
    low = ["figure", "--vhat", "gaussian:0.1:5", "--L", "41.887902047863905",
           "--kappa", "0.1", "--window", "0.4", "--require-complete-1qp"]
    code, _, err = run_cli(low, capsys)
    assert code == 2
    assert "unresolved" in err


def test_require_complete_1qp_at_kappa_zero(capsys):
    # every dispersion value in the window lies above kappa = 0
    args = ["figure", "--vhat", "gaussian:0.1:5", "--kappa", "0", "--require-complete-1qp"]
    code, out, err = run_cli(args + ["--window", "3"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("bogospec: error: 1qp curve unresolved") and "(1,)" in err
    # window 0 holds no nonzero point, so nothing is unresolved
    code, out, _ = run_cli(args + ["--window", "0"], capsys)
    assert code == 0 and out.count("\n") == 4


def test_energy_csv(capsys):
    code, out, _ = run_cli(
        ["energy", "--vhat", "gaussian:0.1:5", "--L", "41.887902047863905"],
        capsys,
    )
    assert code == 0
    _, cols, rows = parse_csv(out)
    vals = {r[0]: r[1] for r in rows}
    assert float(vals["e_bog"]) == pytest.approx(float(vals["e_bog_alt"]), rel=1e-10)
    assert float(vals["e_bog"]) < 0.0
    assert abs(float(vals["density_finite_L"]) - float(vals["density_limit"])) < 1e-3


def test_ed_csv(capsys):
    code, out, _ = run_cli(
        ["ed", "--vhat", "gaussian:0.1:5", "--L", str(2 * math.pi), "--N", "4",
         "--mode-radius", "2", "--sectors", "0;1", "--count", "2"],
        capsys,
    )
    assert code == 0
    header, cols, rows = parse_csv(out)
    assert cols == ["sector_n1", "j", "eigenvalue", "K_N", "residual"]
    zero_rows = [r for r in rows if r[0] == "0"]
    assert float(zero_rows[0][3]) == 0.0  # ground state gap
    cfg = json.loads(next(h for h in header if h.startswith("# config:"))[10:])
    assert cfg["N"] == 4 and cfg["max_excited"] == 4


def test_ed_config_file(tmp_path, capsys):
    cfg = {
        "N": 4,
        "L": 2 * math.pi,
        "dimension": 1,
        "mode_radius": 2.0,
        "max_excited": 4,
        "sectors": [[0], [1]],
        "count": 2,
        "potential": {"family": "gaussian", "amplitude": 0.1, "width": 5.0},
    }
    path = tmp_path / "run.json"
    # a sector list that starts with a negative number is no option
    for sectors, run in (([[0], [1]], [[0], [1]]), ([[-1], [1]], [[0], [-1], [1]])):
        path.write_text(json.dumps(dict(cfg, sectors=sectors)))
        code, out, _ = run_cli(["ed", "--config", str(path)], capsys)
        assert code == 0
        assert "eigenvalue" in out
        header, _, rows = parse_csv(out)
        assert json.loads(header[2][len("# config: "):])["sectors"] == run
        assert {r[0] for r in rows} == {str(s[0]) for s in run}


def test_header_config_reproduces_csv(tmp_path, capsys):
    # the `# config:` header of an ed run, fed back through --config,
    # gives the same bytes: a 2D gaussian and a 1D table potential
    for flags in (
        ["--vhat", "gaussian:0.1:5", "--dim", "2", "--L", "7.1", "--N", "5",
         "--mode-radius", "1.5", "--sectors", "1 0;0 0;1 1", "--count", "2", "--seed", "7"],
        ["--vhat", "table:0,0.3;1.5,-0.2;2.5,0", "--L", "9", "--N", "6", "--mode-radius", "3",
         "--max-excited", "3", "--sectors=-1;2", "--tol", "1e-10"],
    ):
        first, again, cfg = tmp_path / "first.csv", tmp_path / "again.csv", tmp_path / "cfg.json"
        assert main(["ed"] + flags + ["--out", str(first)]) == 0
        header = first.read_text().splitlines()[2]
        assert header.startswith("# config: ")
        cfg.write_text(header[len("# config: "):])
        assert main(["ed", "--config", str(cfg), "--out", str(again)]) == 0
        assert again.read_bytes() == first.read_bytes()
        # a flag given on the command line wins over the config's value
        assert main(["ed", "--config", str(cfg), "--count", "1", "--out", str(again)]) == 0
        assert main(["ed"] + flags + ["--count", "1", "--out", str(first)]) == 0
        assert again.read_bytes() == first.read_bytes()
    # the 1D table is written for its dimension, unless --vhat replaces it
    in_2d = ["ed", "--config", str(cfg), "--dim", "2", "--sectors", "0 0", "--out", str(again)]
    assert main(in_2d) == 2
    assert main(in_2d + ["--vhat", "table:0,0.3;1.5,-0.2;2.5,0"]) == 0


def test_main_builds_its_parser_once(tmp_path, monkeypatch):
    # two main calls, the second re-parsing through --config, build one
    # top-level parser, and the config still reproduces the CSV
    built = []

    class Counting(cli._ArgumentParser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            if self.prog == "bogospec":
                built.append(self)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(cli, "_ArgumentParser", Counting)
    first, again, cfg = tmp_path / "first.csv", tmp_path / "again.csv", tmp_path / "cfg.json"
    try:
        assert main(["ed", "--vhat", "gaussian:0.1:5", "--N", "4", "--mode-radius", "2",
                     "--sectors", "0;1", "--count", "2", "--out", str(first)]) == 0
        cfg.write_text(first.read_text().splitlines()[2][len("# config: "):])
        assert main(["ed", "--config", str(cfg), "--out", str(again)]) == 0
    finally:
        cli.build_parser.cache_clear()
    assert len(built) == 1
    assert again.read_bytes() == first.read_bytes()


def test_ed_repeated_sector_solved_and_listed_once(tmp_path):
    # the header lists the sectors solved, so a repeat changes no byte
    base = ["ed", "--vhat", "gaussian:0.1:5", "--N", "4", "--mode-radius", "2", "--count", "1"]
    for repeated, plain in (("1;1", "1"), ("1;0;1", "1;0")):
        first, again = tmp_path / "repeated.csv", tmp_path / "plain.csv"
        assert main(base + ["--sectors", repeated, "--out", str(first)]) == 0
        assert main(base + ["--sectors", plain, "--out", str(again)]) == 0
        assert first.read_bytes() == again.read_bytes()


GAUSS = {"family": "gaussian", "amplitude": 0.1, "width": 5.0}


@pytest.mark.parametrize("extra, named", [
    ({"max_excited": "3"}, "--max-excited"),
    ({"N": [4]}, "--N"),
    ({"sectors": 5}, "sectors"),
    ({"potential": {"family": "gaussian", "width": 5.0}}, "amplitude"),
    ({"potential": {"family": "table"}}, "samples"),
    ({"potential": [1, 2]}, "potential"),
    ({"N": 4.5}, "--N"),
    ({"max_excited": None}, "--max-excited"),
    ({"dimension": 1, "potential": dict(GAUSS, dimension=2)}, "dimension"),
    ({"count": 0}, "--count"),
    ({"seed": -1}, "argument --seed: must be >= 0, got -1"),
    ({"N": 0}, "argument --N: must be >= 1, got 0"),
    ({"dimension": 4}, "argument --dim: must be 1, 2 or 3, got 4"),
], ids=["max_excited-str", "N-list", "sectors-int", "gaussian-no-amplitude",
        "table-no-samples", "potential-list", "N-float", "max_excited-null", "dimension-mismatch",
        "count-zero", "seed-negative", "N-zero", "dimension-4"])
def test_ed_config_errors_exit_2(tmp_path, capsys, extra, named):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"N": 4, "mode_radius": 2, "potential": GAUSS, **extra}))
    code, out, err = run_cli(["ed", "--config", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("bogospec: error: --config: ") and err.count("\n") == 1
    assert named in err


@pytest.mark.parametrize("text, message", [
    (None, "cannot read '{path}': [Errno 2] No such file or directory: '{path}'"),
    ('{"N": 4,', "cannot read '{path}': "
                 "Expecting property name enclosed in double quotes: line 1 column 9 (char 8)"),
    ("[4, 2]", "top level must be an object"),
], ids=["missing", "invalid-json", "list"])
def test_ed_config_that_cannot_be_read_exits_2(tmp_path, capsys, text, message):
    path = tmp_path / "cfg.json"
    if text is not None:
        path.write_text(text)
    code, out, err = run_cli(["ed", "--config", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == f"bogospec: error: --config: {message.format(path=path)}\n"


def test_ed_config_rejects_unknown_key(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"N": 4, "wavelength": 2.0}))
    code, _, err = run_cli(["ed", "--config", str(path)], capsys)
    assert code == 2
    assert "wavelength" in err


def test_ed_config_potential_is_nested_only(tmp_path, capsys):
    # the potential has one spelling, the nested "potential" key
    path = tmp_path / "flat.json"
    path.write_text(json.dumps({"N": 4, "mode_radius": 2, **GAUSS}))
    code, out, err = run_cli(["ed", "--config", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err == "bogospec: error: --config: unknown key 'family'\n"


def test_ed_requires_potential(capsys):
    code, _, err = run_cli(
        ["ed", "--N", "4", "--mode-radius", "1", "--L", str(2 * math.pi)], capsys
    )
    assert code == 2
    assert "potential" in err


def test_ed_rejects_negative_max_excited(tmp_path, capsys):
    msg = "argument --max-excited: must be >= 0, got -1"
    base = ["ed", "--vhat", "gaussian:0.1:5", "--N", "4", "--mode-radius", "2"]
    code, out, err = run_cli(base + ["--max-excited", "-1"], capsys)
    assert code == 2
    assert out == ""
    assert err.strip() == f"bogospec: error: {msg}"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"N": 4, "mode_radius": 2, "max_excited": -1}))
    code, _, err = run_cli(["ed", "--vhat", "gaussian:0.1:5", "--config", str(path)], capsys)
    assert code == 2
    assert msg in err


def test_invalid_vhat_exit_code(capsys):
    code, _, err = run_cli(
        ["dispersion", "--vhat", "bogus:1", "--window", "1"], capsys
    )
    assert code == 2
    assert "vhat" in err


def test_verify_exit_zero_and_report_files(tmp_path, capsys):
    out_csv = tmp_path / "report.csv"
    code, _, err = run_cli(["verify", "--out", str(out_csv)], capsys)
    assert code == 0
    assert out_csv.exists()
    txt = out_csv.with_suffix(".txt").read_text()
    assert "ALL CHECKS PASSED" in txt
    assert out_csv.read_text().startswith("check,name,lhs,rhs,margin,pass")


def test_verify_summary_names_its_tolerance_and_seed(tmp_path, capsys):
    out_csv = tmp_path / "r.csv"
    code, _, err = run_cli(["verify", "--tol", "1e-3", "--seed", "23", "--out", str(out_csv)],
                           capsys)
    assert code == 0
    txt = out_csv.with_suffix(".txt").read_text()
    assert txt.startswith("tol 0.001, seed 23\n") and err == txt
    assert out_csv.read_text().startswith("check,name,lhs,rhs,margin,pass")


ED_1D = ["ed", "--vhat", "gaussian:0.1:5", "--L", repr(2 * math.pi), "--N", "3",
         "--mode-radius", "1", "--sectors", "0;1", "--count", "1"]


ED_4 = ["ed", "--vhat", "gaussian:0.1:5", "--N", "4", "--mode-radius", "2"]


@pytest.mark.parametrize("args, message", [
    (ED_4 + ["--count", "0"], "argument --count: must be >= 1, got 0"),
    (ED_4 + ["--count", "-1"], "argument --count: must be >= 1, got -1"),
    (ED_4 + ["--tol", "-1"], "argument --tol: must be finite and > 0, got -1"),
    (ED_4 + ["--tol", "nan"], "argument --tol: must be finite and > 0, got nan"),
    (["verify", "--tol", "0"], "argument --tol: must be finite and > 0, got 0"),
    (["energy", "--vhat", "gaussian:0.1:5", "--L", "inf"],
     "argument --L: must be finite and >= 1, got inf"),
    (["enumerate", "--vhat", "gaussian:0.1:5", "--kappa", "nan", "--window", "2"],
     "argument --kappa: must be finite and >= 0, got nan"),
    (["dispersion", "--vhat", "gaussian:0.1:5", "--window", "nan"],
     "argument --window: must be finite and >= 0, got nan"),
    (["ed", "--vhat", "gaussian:0.1:5", "--N", "4", "--mode-radius", "nan"],
     "argument --mode-radius: must be finite and >= 0, got nan"),
    (["energy", "--vhat", "gaussian:nan:5"],
     "--vhat: cannot parse 'gaussian:nan:5': must be finite and >= 0, got nan"),
    (["energy", "--vhat", "gaussian:0.1:inf"],
     "--vhat: cannot parse 'gaussian:0.1:inf': must be finite and > 0, got inf"),
    (["energy", "--vhat", "gaussian:0.1:5", "--tail-tol", "0"],
     "argument --tail-tol: must be finite and > 0, got 0"),
    (["energy", "--vhat", "gaussian:0.1:5", "--quad-step", "nan"],
     "argument --quad-step: must be finite and > 0, got nan"),
    (["energy", "--vhat", "table:0,nan;1,0"],
     "--vhat: cannot parse 'table:0,nan;1,0': table sample momenta and values must be finite"),
    (["enumerate", "--vhat", "table:0,0.3;1,nan", "--kappa", "2", "--window", "1"],
     "--vhat: cannot parse 'table:0,0.3;1,nan': table sample momenta and values must be finite"),
    (["dispersion", "--vhat", "table:0,inf;1,0", "--window", "1"],
     "--vhat: cannot parse 'table:0,inf;1,0': table sample momenta and values must be finite"),
    (ED_4 + ["--seed", "-1"], "argument --seed: must be >= 0, got -1"),
    (["ed", "--vhat", "gaussian:0.1:5", "--N", "32", "--mode-radius", "4", "--max-excited", "8",
      "--sectors", "0", "--seed", "-1"], "argument --seed: must be >= 0, got -1"),
    (["verify", "--seed", "-1"], "argument --seed: must be >= 0, got -1"),
    (["energy", "--vhat", "gaussian:0.1:5", "--dim", "4"],
     "argument --dim: must be 1, 2 or 3, got 4"),
    (["ed", "--vhat", "gaussian:0.1:5", "--N", "4", "--mode-radius", "1", "--dim", "5"],
     "argument --dim: must be 1, 2 or 3, got 5"),
    (["ed", "--vhat", "gaussian:0.1:5", "--N", "0", "--mode-radius", "1"],
     "argument --N: must be >= 1, got 0"),
    (["energy", "--vhat", "gaussian:1e200:5"], "--vhat: tail bound did not converge"),
    (["ed", "--vhat", "table:0,0.3;1,0.2", "--N", "4", "--mode-radius", "2"],
     "--vhat: |p| = 2.0 outside table range [0.0, 1.0]"),
    (["figure", "--vhat", "gaussian:0.1:5", "--kappa", "1e9", "--window", "0.5"],
     "enumeration below kappa 1e+09 exceeds the cap of 2,500,000 multisets; lower kappa"),
    (["enumerate", "--vhat", "gaussian:0.1:5", "--dim", "3", "--L", "10", "--kappa", "1e4",
      "--window", "1"],
     "enumeration below kappa 10000 exceeds the cap of 2,500,000 multisets; lower kappa"),
    (["energy", "--vhat", "gaussian:0.1:1e9", "--dim", "3", "--L", "10"],
     "lattice ball of radius 180721 exceeds the cap of 2,500,000 points; "
     "lower --L or the --vhat width"),
    (["dispersion", "--vhat", "gaussian:0.1:5", "--dim", "3", "--window", "1e3"],
     "lattice ball of radius 1000 exceeds the cap of 2,500,000 points; lower --window"),
    (["dispersion", "--vhat", "gaussian:0.1:5", "--dim", "3", "--window", "1.7e308"],
     "lattice ball of radius 1.7e+308 exceeds the cap of 2,500,000 points; lower --window"),
    (["figure", "--vhat", "gaussian:0.1:5", "--kappa", "1", "--window", "1.7e308",
      "--require-complete-1qp"],
     "lattice ball of radius 1.7e+308 exceeds the cap of 2,500,000 points; lower --window"),
    (["ed", "--vhat", "gaussian:0.1:5", "--N", "4", "--mode-radius", "1e300"],
     "lattice ball of radius 1e+300 exceeds the cap of 2,500,000 points; lower --mode-radius"),
    (["ed", "--vhat", "gaussian:0.1:5", "--mode-radius", "2"],
     "--N (or config key N) is required"),
    (["ed", "--vhat", "gaussian:0.1:5", "--N", "4"],
     "--mode-radius (or config key mode_radius) is required"),
    (ED_4 + ["--sectors", "0;x"],
     "--sectors: cannot parse 'x': invalid literal for int() with base 10: 'x'"),
], ids=["ed-count-0", "ed-count-negative", "ed-tol-negative", "ed-tol-nan", "verify-tol-0",
        "energy-L-inf", "enumerate-kappa-nan", "dispersion-window-nan", "ed-mode-radius-nan",
        "energy-amplitude-nan", "energy-width-inf", "energy-tail-tol-0", "energy-quad-step-nan",
        "energy-table-nan", "enumerate-table-nan", "dispersion-table-inf", "ed-seed-dense",
        "ed-seed-lanczos", "verify-seed-negative", "energy-dim-4", "ed-dim-5", "ed-N-0",
        "energy-tail-overflow", "ed-table-no-decay", "figure-kappa-budget",
        "enumerate-3d-budget", "energy-3d-lattice-budget", "dispersion-3d-lattice-budget",
        "dispersion-window-overflow", "figure-1qp-window-overflow", "ed-mode-radius-budget",
        "ed-no-N", "ed-no-mode-radius", "ed-sector-not-an-integer"])
def test_count_and_tol_range_exit_2(capsys, args, message):
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == ""
    assert err == f"bogospec: error: {message}\n"


#: the ed run of the extreme-potential cases: one sector of 8 states, solved densely
_EXTREME_ED = ["ed", "--L", "40", "--N", "3", "--mode-radius", "0.5", "--count", "16",
               "--tol", "2.5", "--max-excited", "16"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("args, code, message", [
    (["energy", "--vhat", "table:0,1e300;1,0", "--L", "12.5"], 2,
     "the Bogoliubov summand at |p| = 0.5026548245743669 is not finite "
     "(vhat = 4.973451754256331e+299)"),
    (_EXTREME_ED + ["--vhat", "gaussian:1e308:5"], 2,
     "the matrix of sector (0,) has a non-finite entry"),
    (_EXTREME_ED + ["--vhat", "gaussian:1e300:5"], 3,
     "eigensolver failed: dense solver gave a non-finite eigenvalue or residual; "
     "largest residual inf against tolerance 2.5 x ||M||_inf"),
    (["energy", "--vhat", "table:0,-1;1,0"], 2,
     "the density integrand at |p| = 0.0 is not finite (vhat = -1.0)"),
    (["energy", "--vhat", "gaussian:0:1e-9", "--dim", "2", "--L", "1e3", "--quad-step", "1e300"],
     2, "the density integrand at |p| = 1e+300 is not finite (vhat = 0.0)"),
    (["energy", "--vhat", "gaussian:1e-9:1e300", "--dim", "3", "--L", "10"], 2,
     "--vhat: tail bound did not converge"),
    # CI runs this at --window 3: its 716,000 listed coordinates would lift
    # this process's peak RSS past 256 MB, which the child of
    # test_kappa_budget_exits_2_under_an_address_space_limit inherits at exec
    (["dispersion", "--vhat", "gaussian:1e308:1", "--dim", "2", "--L", "1e3", "--window", "0.5"],
     2, "the Bogoliubov dispersion at |p| = 0.006283185307179587 is not finite "
     "(vhat = 9.99960522361658e+307)"),
    (["dispersion", "--vhat", "gaussian:1e308:0.1", "--dim", "1", "--L", "1e3", "--window", "0.5"],
     2, "the Bogoliubov dispersion at |p| = 0.006283185307179587 is not finite "
     "(vhat = 9.996052937409753e+307)"),
    (["dispersion", "--vhat", "gaussian:1e300:1", "--dim", "1", "--L", "1e3", "--window", "0.5"],
     2, "the Bogoliubov rotation at |p| = 0.006283185307179587 is singular: alpha rounds to 1 "
     "(vhat = 9.999605223616582e+299)"),
    *((argv, 2, "the Bogoliubov dispersion at |p| = 1.0 is imaginary (vhat = -2.0)")
      for argv in (["dispersion", "--vhat", "table:0,-3;3,0", "--window", "3"],
                   ["enumerate", "--vhat", "table:0,-3;3,0", "--kappa", "2", "--window", "3"],
                   ["figure", "--vhat", "table:0,-3;3,0", "--kappa", "2", "--window", "3"],
                   ["energy", "--vhat", "table:0,-3;3,0"])),
], ids=["energy-table-summand-overflow", "ed-matrix-overflow", "ed-residual-overflow",
        "energy-density-imaginary", "energy-density-grid-overflow", "energy-3d-tail-underflow",
        "dispersion-overflow-2d", "dispersion-overflow-1d", "dispersion-alpha-1",
        "dispersion-imaginary", "enumerate-imaginary", "figure-imaginary", "energy-imaginary"])
def test_extreme_potentials_exit_with_one_line(capsys, args, code, message):
    # one line, no traceback and no CSV row, so no nan or inf; numpy's
    # RuntimeWarnings are errors here, as in CI.  dispersion writes its
    # three header lines and column names before it forms its first row
    got, out, err = run_cli(args, capsys)
    assert (got, err) == (code, f"bogospec: error: {message}\n")
    assert len(out.splitlines()) == (4 if args[0] == "dispersion" else 0)
    assert not re.search(r"(?i)\b(nan|inf)\b", out)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_energy_past_the_tails_float_range_is_finite(capsys, dim):
    # width 1e-300: s = 2 / width = 2e300, where the 3D tail's s**1.5
    # overflows; vhat is 0 at every p != 0, so e_bog is -0.0
    code, out, err = run_cli(["energy", "--vhat", "gaussian:0.1:1e-300", "--dim", str(dim),
                              "--L", "12.5"], capsys)
    assert (code, err) == (0, "")
    _, cols, rows = parse_csv(out)
    assert cols == ["quantity", "value"]
    assert all(math.isfinite(float(value)) for _, value in rows)
    assert rows[0] == ["e_bog", "-0.0"]


def _src_env():
    """os.environ with this checkout's bogospec first on PYTHONPATH."""
    src = str(Path(bogospec.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def _run_under_address_space_limit(argv):
    """`bogospec argv` in a fresh interpreter limited to 3 GiB of address
    space, or less where the hard limit is lower (under `ulimit -v`): the
    finished process and its VmHWM in KiB, the peak RSS of its own address
    space (ru_maxrss would keep pytest's peak from before the exec)."""
    code = (
        "import resource, sys\n"
        "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
        "limit = 3 << 30 if hard == resource.RLIM_INFINITY else min(3 << 30, hard)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (limit, hard))\n"
        "from bogospec.cli import main\n"
        f"code = main({argv!r})\n"
        "print(next(line.split()[1] for line in open('/proc/self/status')"
        " if line.startswith('VmHWM:')))\n"
        "sys.exit(code)\n"
    )
    run = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                         capture_output=True, text=True, timeout=60)
    return run, int(run.stdout)


def test_kappa_budget_exits_2_under_an_address_space_limit():
    # kappa 1e9 is refused before the search, since its 63,244 candidates
    # alone charge past the cap; it peaks at about 32 MB of RSS
    run, vmhwm = _run_under_address_space_limit(
        ["figure", "--vhat", "gaussian:0.1:5", "--kappa", "1e9", "--window", "0.5"])
    assert run.returncode == 2
    assert run.stderr == (
        "bogospec: error: enumeration below kappa 1e+09 exceeds the cap of "
        "2,500,000 multisets; lower kappa\n"
    )
    assert vmhwm < 64 * 1024


def test_search_budget_exits_2_under_an_address_space_limit():
    # kappa 2.5 passes the cap inside the search, at a peak RSS of about
    # 103 MB.  A search order that held long encodings in millions of
    # pending entries outgrows the RSS bound, or the address-space limit
    # (then exit 5), and fails here instead of exhausting the machine
    run, vmhwm = _run_under_address_space_limit(
        ["enumerate", "--vhat", "gaussian:0.1:5", "--L", "41.8879020479",
         "--kappa", "2.5", "--window", "3"])
    assert run.returncode == 2
    assert run.stderr == (
        "bogospec: error: enumeration below kappa 2.5 exceeds the cap of "
        "2,500,000 multisets; lower kappa\n"
    )
    assert vmhwm < 208 * 1024


def _loaded_modules(code):
    """The modules a fresh interpreter holds after running code."""
    env = _src_env()
    code = f"import sys\n{code}\nprint(chr(10).join(sys.modules))"
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return set(run.stdout.split())


def _scipy_modules(loaded):
    return sorted(m for m in loaded if m.split(".")[0] == "scipy")


def test_startup_imports_load_no_scipy():
    loaded = _loaded_modules("import bogospec, bogospec.cli, bogospec.model")
    assert "bogospec.cli" in loaded
    assert _scipy_modules(loaded) == []


_COMMANDS = pytest.mark.parametrize("args", [
    ["energy", "--vhat", "gaussian:0.1:5", "--dim", "3", "--L", "10"],
    ["enumerate", "--vhat", "gaussian:0:1", "--kappa", "5.5", "--window", "2"],
    # sectors of 1-3 and 11 states, solved densely
    ED_4 + ["--sectors", "0;1"],
    # 526 states, past fock_ed.DENSE_FALLBACK_DIM: solved by Davidson
    ["ed", "--vhat", "gaussian:0.1:5", "--N", "32", "--mode-radius", "4",
     "--max-excited", "8", "--sectors", "0", "--count", "2"],
    ["verify", "--seed", "23"],
], ids=["energy-3d", "enumerate", "ed", "ed-davidson", "verify"])


def _loaded_by_command(tmp_path, args):
    """The modules a fresh interpreter holds after running the command."""
    out = tmp_path / "out.csv"
    loaded = _loaded_modules(
        f"from bogospec.cli import main\nassert main({args + ['--out', str(out)]!r}) == 0")
    # verify's CSV has no header lines
    assert out.read_text().startswith("check," if args[0] == "verify" else "# bogospec")
    return loaded


@_COMMANDS
def test_only_ed_loads_scipy(tmp_path, args):
    # no command loads any scipy module, an ed run whose sector is solved
    # by the Davidson solver included
    assert _scipy_modules(_loaded_by_command(tmp_path, args)) == []


@_COMMANDS
def test_no_command_loads_numpy_random(tmp_path, args):
    # the Davidson solver draws its start noise from the standard library's
    # random module, which the interpreter has loaded at start-up
    loaded = _loaded_by_command(tmp_path, args)
    assert sorted(m for m in loaded if m.split(".")[:2] == ["numpy", "random"]) == []


_SPACING_015 = ["--vhat", "gaussian:0.1:5", "--L", "41.8879020479"]
_CUBE_10 = ["--vhat", "gaussian:0.1:5", "--dim", "3", "--L", "10"]


@pytest.mark.parametrize("args", [
    None,
    ["enumerate", *_SPACING_015, "--kappa", "1.2", "--window", "3"],
    ["enumerate", *_CUBE_10, "--kappa", "1.2", "--window", "1"],
    ["dispersion", *_SPACING_015, "--window", "3"],
    ["dispersion", *_CUBE_10, "--window", "3"],
    ["figure", *_SPACING_015, "--kappa", "1.2", "--window", "3"],
    ["figure", *_CUBE_10, "--kappa", "1.2", "--window", "1", "--require-complete-1qp"],
], ids=["import", "enumerate-1d", "enumerate-3d", "dispersion-1d", "dispersion-3d",
        "figure-1d", "figure-3d"])
def test_light_commands_load_neither_numpy_nor_the_ed_stack(tmp_path, args):
    # the package's fock_ed and verify names resolve on first use, and
    # the quasiparticle commands never use them, nor numpy
    code = "import bogospec, bogospec.cli, bogospec.model"
    if args is not None:
        out = tmp_path / "out.csv"
        code += f"\nassert bogospec.cli.main({args + ['--out', str(out)]!r}) == 0"
    loaded = _loaded_modules(code)
    assert "bogospec.cli" in loaded
    if args is not None:
        assert out.read_text().startswith("# bogospec")
    heavy = sorted(m for m in loaded if m.split(".")[0] == "numpy"
                   or m in ("bogospec.fock_ed", "bogospec.verify"))
    assert heavy == []


def test_eigensolver_failure_exit_code(monkeypatch, capsys):
    def unconverged(m, count, tol=1e-9, seed=fock_ed.DEFAULT_SEED):
        raise fock_ed.EigenConvergenceError(
            "residuals exceed tolerance", np.array([2.5e-3, np.nan])
        )

    monkeypatch.setattr(fock_ed, "lowest_eigenvalues", unconverged)
    code, out, err = run_cli(ED_1D + ["--tol", "1e-08"], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("bogospec: error: ") and err.count("\n") == 1
    assert "2.500e-03" in err and "1e-08" in err


def test_davidson_iteration_cap_exit_code(monkeypatch, capsys):
    # the 526-state ed-1d sector, solved by Davidson, allowed one step
    monkeypatch.setattr(fock_ed, "DAVIDSON_MAX_ITER", 1)
    code, out, err = run_cli(["ed", "--vhat", "gaussian:0.1:5", "--N", "32",
                              "--mode-radius", "4", "--max-excited", "8",
                              "--sectors", "0", "--count", "2"], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("bogospec: error: eigensolver failed: Davidson solver did not "
                          "converge within its cap of 1 iterations") and err.count("\n") == 1
    assert "against tolerance 1e-09 x ||M||_inf" in err


def test_davidson_residual_check_exit_code(monkeypatch, capsys):
    # the ed-1d sector, whose Davidson result has its first vector turned
    # by 1e-3 towards the second: the final residual check fails
    davidson = fock_ed._davidson

    def perturbed(m, count, bound, seed):
        vals, vecs = davidson(m, count, bound, seed)
        vecs = vecs.copy()
        vecs[:, 0] += 1e-3 * vecs[:, 1]
        return vals, vecs / np.linalg.norm(vecs, axis=0)

    monkeypatch.setattr(fock_ed, "_davidson", perturbed)
    code, out, err = run_cli(["ed", "--vhat", "gaussian:0.1:5", "--N", "32",
                              "--mode-radius", "4", "--max-excited", "8",
                              "--sectors", "0", "--count", "2"], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("bogospec: error: eigensolver failed: Davidson solver residuals "
                          "exceed tolerance; largest residual ") and err.count("\n") == 1
    assert err.endswith(" against tolerance 1e-09 x ||M||_inf\n")


def _ed_rows_against_dense(out, cfg, tol=1e-9):
    """For each sector of an ed CSV: its eigenvalues and residuals, the
    sector's dense eigh spectrum, and tol * ||H||_inf."""
    _, cols, rows = parse_csv(out.read_text())
    d = cols.index("j")
    by_sector = {}
    for row in rows:
        by_sector.setdefault(tuple(int(c) for c in row[:d]), []).append(
            (float(row[d + 1]), float(row[d + 3])))
    got = {}
    for key, vals in by_sector.items():
        a = fock_ed.assemble_hamiltonian(cfg, key).toarray()
        got[key] = (np.array(vals), np.linalg.eigvalsh(a), tol * np.abs(a).sum(axis=1).max())
    return got


def test_ed_3d_zero_sector_reports_multiplets_whole(tmp_path, capsys):
    # 1,040 states: j = 5, 6 are a doublet at 4.8174360 and j = 7, 8, 9 a
    # triplet at 4.8200829.  --count 7 asks for j = 1..8, so the triplet
    # straddles the count, and it comes back whole: nine rows
    out = tmp_path / "ed.csv"
    code, _, _ = run_cli(["ed", "--vhat", "gaussian:0.1:5", "--dim", "3",
                          "--L", "6.28318530718", "--N", "16", "--mode-radius", "1.5",
                          "--max-excited", "6", "--sectors", "0 0 0", "--count", "7",
                          "--out", str(out)], capsys)
    assert code == 0
    cfg = fock_ed.EDConfig(16, bogospec.LatticeSpec(6.28318530718, 3),
                           bogospec.Potential.gaussian(0.1, 5.0, 3), 1.5, 6)
    (got, dense, bound), = _ed_rows_against_dense(out, cfg).values()
    assert len(dense) > fock_ed.DENSE_FALLBACK_DIM
    assert len(got) == 9
    assert np.abs(got[:, 0] - dense[:9]).max() <= bound
    assert np.all(got[:, 1] <= bound)
    assert dense[5] - dense[4] <= bound and dense[8] - dense[6] <= bound  # the multiplets
    assert dense[9] - dense[8] > bound  # and nothing past the triplet


def test_ed_output_of_the_pinned_davidson_case_matches_dense(tmp_path, capsys):
    # the first GOLDEN_ED case: five sectors of 515 to 526 states, each
    # solved by Davidson; its eigenvalues and residuals are within
    # tol * ||H||_inf of dense eigh's
    out = tmp_path / "ed.csv"
    flags, _ = GOLDEN_ED[0]
    code, _, _ = run_cli(_golden_ed_args(flags) + ["--out", str(out)], capsys)
    assert code == 0
    cfg = fock_ed.EDConfig(32, bogospec.LatticeSpec(2 * math.pi, 1),
                           bogospec.Potential.gaussian(0.1, 5.0, 1), 4.0, 8)
    checked = _ed_rows_against_dense(out, cfg)
    assert len(checked) == 5
    for got, dense, bound in checked.values():
        assert len(dense) > fock_ed.DENSE_FALLBACK_DIM
        assert np.abs(got[:, 0] - dense[:len(got)]).max() <= bound
        assert np.all(got[:, 1] <= bound)


def test_ed_solves_the_first_requested_member_of_an_orbit(tmp_path, capsys):
    # "-1;1" solves sector -1 by Davidson, and sector 1 reports its rows:
    # byte for byte those of a run that asks for -1 alone
    base = _golden_ed_args(["--N", "32", "--mode-radius", "4", "--max-excited", "8"])
    bodies = {}
    for sectors in ("-1;1", "-1"):
        out = tmp_path / f"ed{len(sectors)}.csv"
        code, _, _ = run_cli(base + [f"--sectors={sectors}", "--out", str(out)], capsys)
        assert code == 0
        bodies[sectors] = [ln.split(",", 1) for ln in out.read_text().splitlines()
                           if not ln.startswith("#")][1:]
    pair, alone = bodies["-1;1"], bodies["-1"]
    assert [s for s, _ in pair] == ["0"] * 4 + ["-1"] * 3 + ["1"] * 3
    assert [r for s, r in pair if s == "1"] == [r for s, r in alone if s == "-1"]
    assert [row for row in pair if row[0] != "1"] == alone


@pytest.mark.parametrize("dim, sectors", [("1", "-1;1"), ("2", "-1 0;1 0")])
def test_ed_reads_a_sector_list_that_starts_negative(tmp_path, capsys, dim, sectors):
    # argparse reads "-1;1" as an option; main joins it onto its flag
    base = ["ed", "--vhat", "gaussian:0.1:5", "--L", "6.28318530718", "--dim", dim,
            "--N", "6", "--mode-radius", "2", "--count", "3"]
    outs = {}
    for form in (["--sectors", sectors], [f"--sectors={sectors}"]):
        outs[len(form)] = tmp_path / f"ed{len(form)}.csv"
        code, out, err = run_cli(base + form + ["--out", str(outs[len(form)])], capsys)
        assert (code, out, err) == (0, "", "")
    assert outs[1].read_bytes() == outs[2].read_bytes()
    # a flag after --sectors is not its value
    code, out, err = run_cli(base + ["--sectors", "--count", "1"], capsys)
    assert (code, out) == (2, "")
    assert err == "bogospec: error: argument --sectors: expected one argument\n"


@pytest.mark.parametrize("args, sector", [
    (["--N", "32", "--mode-radius", "4", "--max-excited", "8", "--sectors", "1;-1"], "(1,)"),
    (["--dim", "3", "--N", "4", "--mode-radius", "2", "--max-excited", "4",
      "--sectors", "0 0 1;1 0 0"], "(0, 0, 1)"),
])
def test_ed_basis_cap_names_the_first_requested_member(monkeypatch, capsys, args, sector):
    # only the first requested member of an orbit is built, so it is the
    # one an overfull basis names
    monkeypatch.setattr(fock_ed, "MAX_BASIS_STATES", 10)
    code, out, err = run_cli(_golden_ed_args(args), capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"bogospec: error: sector {sector} basis has 11 states (cap 10); ")


def test_ground_sector_failure_exit_code(monkeypatch, capsys):
    # lower every nonzero sector so that the ground state leaves sector 0
    orig = fock_ed.assemble_hamiltonian

    def doctored(cfg, sector, basis=None):
        m = orig(cfg, sector, basis)
        if any(m.sector):
            m.data[m.indices == np.repeat(np.arange(m.dim), np.diff(m.indptr))] -= 100.0
        return m

    monkeypatch.setattr(fock_ed, "assemble_hamiltonian", doctored)
    code, out, err = run_cli(ED_1D, capsys)
    assert code == 4
    assert out == ""
    assert err.startswith("bogospec: error: ") and err.count("\n") == 1
    assert "sector (1,)" in err


def test_memory_error_exit_code(monkeypatch, capsys):
    def exhausted(cfg, sectors=None):
        raise MemoryError

    monkeypatch.setattr(fock_ed, "build_basis", exhausted)
    code, out, err = run_cli(ED_1D + ["--max-excited", "3"], capsys)
    assert code == 5
    assert out == ""
    assert err == "bogospec: error: out of memory; try --max-excited below 3\n"


@pytest.mark.parametrize("target, args", [
    ("enumerate_below", ["enumerate", "--vhat", "gaussian:0.1:5", "--kappa", "1",
                         "--window", "2"]),
    ("bogoliubov_energy", ["energy", "--vhat", "gaussian:0.1:5"]),
], ids=["enumerate", "energy"])
def test_memory_error_outside_ed_is_out_of_memory(monkeypatch, capsys, target, args):
    # only ed has a setting to name; every other command says the bare fact
    def exhausted(*_, **__):
        raise MemoryError

    monkeypatch.setattr(cli, target, exhausted)
    assert run_cli(args, capsys) == (5, "", "bogospec: error: out of memory\n")


# SHA-256 of `bogospec ed` CSV output, captured before the vectorised
# Hamiltonian assembly; the header names the package version, so a
# version bump changes them too.  The first case's sectors are solved by
# Davidson, and it was re-pinned when that solver replaced Lanczos: its
# eigenvalues moved by at most 39 ulps, its residuals from at most 3e-10
# to at most 1.1e-7, below tol * ||H||_inf = 1.2e-7 to 1.3e-7.  It was
# re-pinned again when the solver's start noise became uniform, drawn by
# random.Random: eigenvalues moved by at most 42 ulps and K_N by at most
# 72, and the largest residual went from 1.04e-7 to 8.6e-8.  It was
# re-pinned once more when one sector per orbit of keys began to be
# solved: the -1 and -2 rows became copies of the 1 and 2 rows, their
# eigenvalues moving by at most 22 ulps and K_N by at most 44, their
# residuals by at most 7.1e-9 (the largest, 6.0e-8 to 6.7e-8), all below
# tol * ||H||_inf = 1.18e-7 to 1.23e-7; the 0, 1 and 2 rows kept their bytes
GOLDEN_ED = [
    (["--N", "32", "--mode-radius", "4", "--max-excited", "8",
      "--sectors", "0;1;-1;2;-2"],
     "0791f8ceb2b655167f7d61c44b2a34d6e1b2cce191a5a8f4dccb8c21ed8faaad"),
    (["--dim", "2", "--N", "6", "--mode-radius", "1.5", "--sectors", "0 0;1 0;1 1"],
     "3aa974ea3d44fddd3c0dbb27c9f2d58aff543cd0373f305c541b4712e5c27d2d"),
]

# SHA-256 of `bogospec verify --seed 23` CSV output, captured before the
# per-sector basis walk (the suite makes 15 build_basis calls), and
# re-pinned when the variational_monotonicity rows began to print plain
# floats in place of np.float64(...), the same values to the ulp
GOLDEN_VERIFY = "4b615fa32c8e4774080f9141d4e4be59fdce4c7c25a44a45d4925f0d255039bc"

# SHA-256 of `bogospec enumerate` / `figure` CSV output, captured before
# the depth-first enumeration: exact energy ties (free gas), 2D, a table
# potential and the weak-coupling figure; and of `dispersion` output in
# 1D, 2D and for a table potential, captured before the shared header
# builder of the lattice commands
GOLDEN_ENUMERATE = [
    (["enumerate", "--vhat", "gaussian:0:1", "--L", repr(2 * math.pi),
      "--kappa", "7.5", "--window", "3"],
     "54d1ac4385359e0b8430a22f164eff0467bb4183b66aec40448551cf99698369"),
    (["enumerate", "--vhat", "gaussian:0.1:5", "--dim", "2", "--L", "12",
      "--kappa", "3", "--window", "2"],
     "747a3ecc86b055b889efe931970feb23e33b3ccd4ff8111c92f548260cd118e3"),
    (["enumerate", "--vhat", "table:0,0.3;1.5,0.1;2.5,0", "--L", "9",
      "--kappa", "6", "--window", "3"],
     "2827015be4b972f6a722125599f71c9fec0fc137bafa3c8a7d5a03784302c1c0"),
    (["figure", "--vhat", "gaussian:0.1:5", "--L", "41.8879020479",
      "--kappa", "1.2", "--window", "3"],
     "57a4a6f1638655e739667552fa14097d204c2ce7e36592b255fccb99775856ea"),
    (["dispersion", "--vhat", "gaussian:0.1:5", "--L", "41.8879020479", "--dim", "1",
      "--window", "3"],
     "769ede01ab6067aa06541cbb8bee71e386fd52ef26b73edd0b9f99d39160fcad"),
    (["dispersion", "--vhat", "gaussian:0.1:5", "--dim", "2", "--L", "12.5663706144",
      "--window", "2"],
     "f44b601b09cbddeb870bf9f313358db2430334c98648025b066a39e3409a6868"),
    (["dispersion", "--vhat", "table:0,0.3;1.5,0.1;3,0", "--L", "6.28318530718",
      "--window", "2.5"],
     "f998b1e9284e64ccbea0f99bf00d0129198ef845d746579a6b57f7d6a5569a20"),
    # the benchmark's spectrum-1d command: 10,119 records
    (["enumerate", "--vhat", "gaussian:0.1:5", "--L", "41.8879020479",
      "--kappa", "1.4", "--window", "3"],
     "87d9960777b9a4d941deeb3cd099b011b698c20038459056188f8b1b80032aa8"),
    # 3D, captured before enumerate formatted its lines from the search's
    # ranked entries
    (["enumerate", "--vhat", "gaussian:0.1:5", "--dim", "3", "--L", "10",
      "--kappa", "1.5", "--window", "1"],
     "99e1f66c2b11932284c571572aa8cd94daf8a3a1bafc1b6c7e257d7ab82ff3fe"),
]


# SHA-256 of `bogospec dispersion` CSV output, whose rows are
# lattice_coords' tuples in sector order, captured before the listings
# were built by C-level iterators: a 2D ball whose radius 0.3 at h = 0.1
# keeps the sphere |n| = 3, and a 3D ball.  The README's 1D case and a
# 2D case are pinned in GOLDEN_ENUMERATE
GOLDEN_DISPERSION = [
    (["--dim", "2", "--L", "62.8318530718", "--window", "0.3"],
     "6e5966225d137ff216bdfbd604ae44a5a40892a4977edb42c5af7afd1233bbb4"),
    (["--dim", "3", "--L", "10", "--window", "2"],
     "aaf85393c8b44921dc36ffac343501d92df2132a9392ec990e1be412f39f4baa"),
]

# SHA-256 of `bogospec energy` CSV output, captured before the shell-wise
# lattice sums: --vhat gaussian:0.1:5 in 3D at L = 10 (the lattice-3d
# workload) and L = 20 and in 2D, and a compact table potential in 3D
GOLDEN_ENERGY = [
    (["--dim", "3", "--L", "10.0"],
     "9ba6e4797c7281a83da143e433eec158019bf9d9301b0a6835727f6cbafecc1d"),
    (["--dim", "3", "--L", "20"],
     "747c7c503ce8227e3498564a3a818249f88cef9a76a72ea67cb8b1a23bc77446"),
    (["--dim", "2", "--L", "7"],
     "3e502f2effa41a631fccc3e6c1f01a9ecacad24c7ee8197c1305e9e0ad040bbf"),
    (["--vhat", "table:0,1;1,0.5;2,0", "--dim", "3", "--L", "10"],
     "5ef663250430fac0157361ec5bc92b50f5f5c58fdeed8d5d7589adaa6bdf0bc7"),
]


def _golden_ed_args(flags):
    return ["ed", "--vhat", "gaussian:0.1:5", "--L", repr(2 * math.pi)] + flags


def _golden_energy_args(flags):
    return ["energy"] + ([] if "--vhat" in flags else ["--vhat", "gaussian:0.1:5"]) + flags


def _golden_dispersion_args(flags):
    return ["dispersion", "--vhat", "gaussian:0.1:5"] + flags


@pytest.mark.parametrize("flags, digest", GOLDEN_ED)
def test_ed_output_bytes_pinned(tmp_path, capsys, flags, digest):
    out = tmp_path / "ed.csv"
    code, _, _ = run_cli(_golden_ed_args(flags) + ["--out", str(out)], capsys)
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("args, digest", GOLDEN_ENUMERATE)
def test_enumerate_output_bytes_pinned(tmp_path, capsys, args, digest):
    out = tmp_path / "spectrum.csv"
    code, _, _ = run_cli(args + ["--out", str(out)], capsys)
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("flags, digest", GOLDEN_ENERGY)
def test_energy_output_bytes_pinned(tmp_path, capsys, flags, digest):
    out = tmp_path / "energy.csv"
    code, _, _ = run_cli(_golden_energy_args(flags) + ["--out", str(out)], capsys)
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("flags, digest", GOLDEN_DISPERSION)
def test_dispersion_output_bytes_pinned(tmp_path, capsys, flags, digest):
    out = tmp_path / "dispersion.csv"
    code, _, _ = run_cli(_golden_dispersion_args(flags) + ["--out", str(out)], capsys)
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("args", [_golden_ed_args(flags) for flags, _ in GOLDEN_ED]
                         + [["verify", "--seed", "23"]]
                         + [args for args, _ in GOLDEN_ENUMERATE]
                         + [_golden_energy_args(flags) for flags, _ in GOLDEN_ENERGY]
                         + [_golden_dispersion_args(flags) for flags, _ in GOLDEN_DISPERSION],
                         ids=lambda args: args[0])
def test_golden_csv_bodies_need_no_quoting(tmp_path, capsys, args):
    # the commands join their fields with commas unquoted: read back by
    # csv.reader and written again by csv.writer, every body keeps its
    # bytes, and a field holding a comma would add a column.  verify's
    # check names may hold commas (perfbench's reader splits them off)
    out = tmp_path / "run.csv"
    assert run_cli(args + ["--out", str(out)], capsys)[0] == 0
    lines = out.read_text().splitlines(keepends=True)
    body = "".join(line for line in lines if not line.startswith("#"))
    rows = list(csv.reader(io.StringIO(body)))
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    assert buf.getvalue() == body
    if args[0] != "verify":
        assert {len(row) for row in rows} == {len(rows[0])}


def test_verify_output_bytes_pinned(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code, _, _ = run_cli(["verify", "--seed", "23", "--out", str(out)], capsys)
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_VERIFY


def test_verify_writes_to_stdout_the_bytes_it_writes_to_out(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code, stdout, err_out = run_cli(["verify", "--seed", "23", "--out", str(out)], capsys)
    assert (code, stdout) == (0, "")
    code, stdout, err = run_cli(["verify", "--seed", "23"], capsys)
    assert code == 0
    assert stdout.encode() == out.read_bytes()
    assert err == err_out == out.with_suffix(".txt").read_text()
    assert sorted(tmp_path.iterdir()) == [out, out.with_suffix(".txt")]


def test_verify_csv_fields_are_plain_floats(tmp_path, capsys):
    # each inequality row's lhs, rhs and margin read back with float(); a
    # name may hold commas, so rows are split as perfbench's reader splits them
    out = tmp_path / "report.csv"
    assert run_cli(["verify", "--seed", "23", "--out", str(out)], capsys)[0] == 0
    header, *lines = out.read_text().splitlines()
    assert header == "check,name,lhs,rhs,margin,pass"
    rows = [line.split(",", 1) for line in lines]
    assert sum(kind == "inequality" for kind, _ in rows) > 20
    for kind, rest in rows:
        name, *fields, flag = rest.rsplit(",", 4)
        if kind == "inequality":
            for field in fields:
                float(field)
