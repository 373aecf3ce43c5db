"""CLI surface: flags, CSV contracts, reproducibility, exit codes."""

import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bogospec
from bogospec import fock_ed
from bogospec.cli import main, parse_sectors, parse_vhat


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
    "bogospec: error: |p| = 1.9999999999998683 outside table range [0.0, 1.0]\n"
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
     "--vhat: tabulated potential does not decay to zero; cannot bound tail"),
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
], ids=["ed-count-0", "ed-count-negative", "ed-tol-negative", "ed-tol-nan", "verify-tol-0",
        "energy-L-inf", "enumerate-kappa-nan", "dispersion-window-nan", "ed-mode-radius-nan",
        "energy-amplitude-nan", "energy-width-inf", "energy-tail-tol-0", "energy-quad-step-nan",
        "energy-table-nan", "enumerate-table-nan", "dispersion-table-inf", "ed-seed-dense",
        "ed-seed-lanczos", "verify-seed-negative", "energy-dim-4", "ed-dim-5", "ed-N-0",
        "energy-tail-overflow", "ed-table-no-decay", "figure-kappa-budget",
        "enumerate-3d-budget", "energy-3d-lattice-budget", "dispersion-3d-lattice-budget",
        "dispersion-window-overflow", "figure-1qp-window-overflow", "ed-mode-radius-budget"])
def test_count_and_tol_range_exit_2(capsys, args, message):
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == ""
    assert err == f"bogospec: error: {message}\n"


def _loaded_modules(code):
    """The modules a fresh interpreter holds after running code."""
    src = str(Path(bogospec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
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


@pytest.mark.parametrize("args, sparse", [
    (["energy", "--vhat", "gaussian:0.1:5", "--dim", "3", "--L", "10"], False),
    (["enumerate", "--vhat", "gaussian:0:1", "--kappa", "5.5", "--window", "2"], False),
    # sectors of 1-3 and 11 states, solved densely
    (ED_4 + ["--sectors", "0;1"], False),
    # 526 states, past fock_ed.DENSE_FALLBACK_DIM: solved by Lanczos
    (["ed", "--vhat", "gaussian:0.1:5", "--N", "32", "--mode-radius", "4",
      "--max-excited", "8", "--sectors", "0", "--count", "2"], True),
    (["verify", "--seed", "23"], False),
], ids=["energy-3d", "enumerate", "ed", "ed-lanczos", "verify"])
def test_only_ed_loads_scipy(tmp_path, args, sparse):
    # only a sector above the dense limit loads scipy, for its Lanczos solve
    out = tmp_path / "out.csv"
    loaded = _loaded_modules(
        f"from bogospec.cli import main\nassert main({args + ['--out', str(out)]!r}) == 0")
    # verify's CSV has no header lines
    assert out.read_text().startswith("check," if args[0] == "verify" else "# bogospec")
    if sparse:
        assert "scipy.sparse.linalg" in loaded
    else:
        assert _scipy_modules(loaded) == []


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


# SHA-256 of `bogospec ed` CSV output, captured before the vectorised
# Hamiltonian assembly; the header names the package version, so a
# version bump changes them too
GOLDEN_ED = [
    (["--N", "32", "--mode-radius", "4", "--max-excited", "8",
      "--sectors", "0;1;-1;2;-2"],
     "5ddd53bef9f92fd35f02a6d0da920c598d7ab759fe7be06cf6fc37805d96a830"),
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


@pytest.mark.parametrize("flags, digest", GOLDEN_ED)
def test_ed_output_bytes_pinned(tmp_path, capsys, flags, digest):
    out = tmp_path / "ed.csv"
    code, _, _ = run_cli(
        ["ed", "--vhat", "gaussian:0.1:5", "--L", repr(2 * math.pi)] + flags
        + ["--out", str(out)],
        capsys,
    )
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
    vhat = [] if "--vhat" in flags else ["--vhat", "gaussian:0.1:5"]
    code, _, _ = run_cli(["energy"] + vhat + flags + ["--out", str(out)], capsys)
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_verify_output_bytes_pinned(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code, _, _ = run_cli(["verify", "--seed", "23", "--out", str(out)], capsys)
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_VERIFY


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
