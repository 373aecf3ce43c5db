"""Report machinery and the theorem-backed pass/fail checks."""

import math

import numpy as np
import pytest

import bogospec.fock_ed as fe
from bogospec.fock_ed import EDConfig, many_body_excitations
from bogospec.model import LatticeSpec, Potential
from bogospec import model, verify
from bogospec.verify import (
    Check,
    UnresolvedRanksError,
    VerificationReport,
    check_ground_bounds,
    check_ground_sector,
    check_kinetic_bound,
    check_sandwich,
    check_variational_monotonicity,
    compare_spectra,
    run_default_suite,
    scaling_fit,
)

LAT = LatticeSpec(2 * math.pi, 1)
V1 = Potential.gaussian(0.1, 5.0, 1)
ZERO = Potential.zero(1)
K0_POT = Potential.table([(0.0, 0.3), (0.5, 0.0), (8.0, 0.0)])
SECTORS = [(0,), (1,), (-1,), (2,), (-2,)]


def test_check_margin_convention():
    c = Check("demo", lhs=1.0, rhs=3.0, tolerance=0.0)
    assert c.margin == 2.0 and c.passed
    c = Check("demo", lhs=3.0, rhs=1.0, tolerance=0.0)
    assert not c.passed
    c = Check("demo", lhs=1.0, rhs=1.0 - 1e-12, tolerance=1e-9)
    assert c.passed
    strict = Check("demo", lhs=1.0, rhs=1.0, strict=True)
    assert not strict.passed


def test_ground_bounds_k0_exact_case():
    cfg = EDConfig(4, LAT, K0_POT, mode_radius=2.0, max_excited=4)
    ed = many_body_excitations(cfg, SECTORS, count=2)
    upper, lower = check_ground_bounds(ed)
    # both margins vanish: the condensate trial state is exact
    assert abs(upper.margin) < 1e-12
    assert abs(lower.margin) < 1e-12
    assert upper.passed and lower.passed


def test_ground_bounds_free_case():
    cfg = EDConfig(4, LAT, ZERO, mode_radius=2.0, max_excited=4)
    ed = many_body_excitations(cfg, SECTORS, count=2)
    for c in check_ground_bounds(ed):
        assert c.lhs == 0.0 and c.rhs == 0.0 and c.passed


def test_ground_bounds_read_the_configuration_v0real(monkeypatch):
    cfg = EDConfig(6, LAT, V1, mode_radius=2.0, max_excited=6)
    ed = many_body_excitations(cfg, SECTORS, count=1)
    expected = check_ground_bounds(ed)
    assert cfg.v0real == model.periodized_value(V1, LAT, (0.0,))
    calls = []
    for module in (model, fe, verify):
        if hasattr(module, "periodized_value"):
            monkeypatch.setattr(module, "periodized_value",
                                lambda *args: calls.append(args) or math.nan)
    assert check_ground_bounds(ed) == expected
    assert calls == []


def test_ground_bounds_gaussian_strictly_inside():
    cfg = EDConfig(6, LAT, V1, mode_radius=2.0, max_excited=6)
    ed = many_body_excitations(cfg, SECTORS, count=2)
    upper, lower = check_ground_bounds(ed)
    assert upper.margin > 1e-6
    assert lower.margin > 1e-3
    assert upper.passed and lower.passed


def test_sandwich_passes_on_small_interacting_sector():
    cfg = EDConfig(4, LAT, V1, mode_radius=1.0, max_excited=4)
    checks = check_sandwich(cfg, (0,), [0.25, 0.5, 1.0])
    assert len(checks) == 6
    assert all(c.passed for c in checks)


def test_sandwich_rejects_bad_eps():
    cfg = EDConfig(4, LAT, V1, mode_radius=1.0)
    with pytest.raises(ValueError):
        check_sandwich(cfg, (0,), [1.5])


def test_sandwich_detects_corrupted_pairing_sign(monkeypatch):
    orig = fe.assemble_estimating

    def corrupted(cfg, sector, eps, sign, basis=None):
        m = orig(cfg, sector, eps, sign, basis)
        off = m.indices != np.repeat(np.arange(m.dim), np.diff(m.indptr))
        m.data[off] = -m.data[off]
        return m

    monkeypatch.setattr(fe, "assemble_estimating", corrupted)
    cfg = EDConfig(4, LAT, V1, mode_radius=1.0, max_excited=4)
    checks = check_sandwich(cfg, (0,), [0.5])
    assert any(not c.passed for c in checks)


def test_kinetic_bound():
    cfg = EDConfig(6, LAT, V1, mode_radius=2.0, max_excited=6)
    for sector in ((0,), (1,), (3,)):
        assert check_kinetic_bound(cfg, sector).passed


def test_variational_monotonicity_mode_and_cap():
    small = EDConfig(6, LAT, V1, mode_radius=1.0, max_excited=4)
    large = EDConfig(6, LAT, V1, mode_radius=2.0, max_excited=4)
    checks = check_variational_monotonicity(small, large, (0,), count=3)
    assert checks and all(c.passed for c in checks)
    small = EDConfig(6, LAT, V1, mode_radius=2.0, max_excited=2)
    large = EDConfig(6, LAT, V1, mode_radius=2.0, max_excited=6)
    checks = check_variational_monotonicity(small, large, (0,), count=3)
    assert checks and all(c.passed for c in checks)


def test_ground_sector_check():
    cfg = EDConfig(4, LAT, V1, mode_radius=2.0, max_excited=4)
    ed = many_body_excitations(cfg, SECTORS, count=2)
    assert check_ground_sector(ed).passed


def test_compare_spectra_exact_cases():
    for pot in (K0_POT, ZERO):
        series = [
            EDConfig(n, LAT, pot, mode_radius=2.0, max_excited=min(n, 8))
            for n in (2, 4, 8)
        ]
        comp = compare_spectra(series, SECTORS, j_max=1)
        assert max(comp.ground_errors) < 1e-12


def test_compare_spectra_gaussian_series():
    series = [
        EDConfig(n, LAT, V1, mode_radius=2.0, max_excited=8) for n in (4, 8, 16)
    ]
    comp = compare_spectra(series, SECTORS, j_max=1)
    assert all(np.isfinite(comp.ground_errors))
    assert comp.ground_errors[0] > comp.ground_errors[1] > comp.ground_errors[2]
    assert all(c.passed for c in comp.checks)
    # relabeling p -> -p leaves the gap errors unchanged
    for j in (1,):
        a = comp.gap_errors[((1,), j)]
        b = comp.gap_errors[((-1,), j)]
        assert np.allclose(a, b, atol=1e-9)


def test_compare_spectra_solves_a_repeated_sector_once():
    # the keys of many_body_excitations: each sector once, zero put first
    series = [
        EDConfig(n, LAT, V1, mode_radius=2.0, max_excited=8) for n in (4, 8, 16)
    ]
    twice = compare_spectra(series, [(1,), (1,)], j_max=1)
    once = compare_spectra(series, [(1,)], j_max=1)
    assert list(twice.gap_errors) == [((0,), 1), ((1,), 1)]
    assert len(twice.gap_errors[((1,), 1)]) == 3
    assert twice.gap_errors == once.gap_errors


def test_compare_spectra_keys_are_the_solved_sectors():
    series = [EDConfig(n, LAT, V1, mode_radius=2.0, max_excited=8) for n in (4, 8)]
    requested = [(1,), (-1,), (1,)]
    comp = compare_spectra(series, requested, j_max=1)
    solved = list(many_body_excitations(series[0], requested, count=1).sector_values)
    assert [k for k, _ in comp.gap_errors] == solved


def test_compare_spectra_unresolved_ranks_are_typed():
    # mode radius 0 keeps the zero mode only: no excitation exists at any kappa
    series = [EDConfig(n, LAT, V1, mode_radius=0.0) for n in (2, 4)]
    with pytest.raises(UnresolvedRanksError, match="below kappa 1e6"):
        compare_spectra(series, [(0,)], j_max=1)


def test_compare_spectra_rejects_mismatched_modes():
    series = [
        EDConfig(4, LAT, V1, mode_radius=2.0),
        EDConfig(8, LAT, V1, mode_radius=1.0),
    ]
    with pytest.raises(ValueError):
        compare_spectra(series, SECTORS, j_max=1)


def test_scaling_fit_synthetic_power_law():
    pts = [(n, 2.7 * n**-0.5) for n in (4, 8, 16, 32)]
    fit = scaling_fit(pts)
    assert fit.slope == pytest.approx(-0.5, abs=1e-12)
    assert fit.passed


def test_scaling_fit_constant_errors_fail():
    fit = scaling_fit([(4, 0.3), (8, 0.3), (16, 0.3)])
    assert fit.slope == pytest.approx(0.0, abs=1e-12)
    assert not fit.passed


def test_scaling_fit_exact_series_refused():
    fit = scaling_fit([(4, 0.0), (8, 0.0), (16, 0.0)])
    assert fit.exact and fit.passed
    assert math.isnan(fit.slope)


def test_scaling_fit_needs_three_points():
    with pytest.raises(ValueError):
        scaling_fit([(4, 0.1), (8, 0.05)])


def test_report_serialization():
    report = VerificationReport(
        checks=[Check("a", 0.0, 1.0), Check("b", 2.0, 1.0)],
        scaling_fits=[scaling_fit([(4, 1.0), (8, 0.5), (16, 0.25)])],
    )
    csv_text = report.to_csv_text()
    assert csv_text.splitlines()[0] == "check,name,lhs,rhs,margin,pass"
    assert "inequality,a," in csv_text
    assert not report.all_passed
    summary = report.summary()
    assert "[PASS] a" in summary and "[FAIL] b" in summary
    assert "investigate the assembly" in summary


def test_default_suite_all_green():
    report = run_default_suite()
    assert report.all_passed
    names = [c.name for c in report.checks]
    assert any("upper_estimate_dominates" in n for n in names)
    assert any("kinetic_dominates" in n for n in names)
    assert any("variational_monotonicity" in n for n in names)
    assert report.scaling_fits and report.scaling_fits[0].passed
