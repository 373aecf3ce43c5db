"""Numerical pass/fail checks of the exact statements and scaling laws.

Each check records its raw left- and right-hand sides with the convention
margin = rhs - lhs, passing iff margin >= -tolerance (or margin > 0 for
strict checks).  The inequality checks encode theorems: on a correct
assembly they cannot fail, so a failure always points at an
implementation bug and the report says so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import fock_ed
from .bogoliubov import bogoliubov_energy_on_modes
from .excitations import enumerate_below
from .fock_ed import EDConfig, EDResult, default_max_excited
from .model import LatticeSpec, Potential

SANDWICH_DIM_LIMIT = 2000


class UnresolvedRanksError(ValueError):
    """compare_spectra found too few Bogoliubov records below kappa = 1e6."""


def _tol(*values: float) -> float:
    return 1e-9 * max(1.0, *(abs(v) for v in values))


@dataclass(frozen=True)
class Check:
    """One verified inequality lhs <= rhs, with margin = rhs - lhs."""

    name: str
    lhs: float
    rhs: float
    tolerance: float = 0.0
    strict: bool = False
    note: str = ""

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        if self.strict:
            return self.margin > 0.0
        return self.margin >= -self.tolerance


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares slope of log(error) against log(N)."""

    name: str
    slope: float
    slope_bound: float
    exact: bool

    @property
    def passed(self) -> bool:
        return self.exact or self.slope <= self.slope_bound


@dataclass
class VerificationReport:
    checks: list[Check] = field(default_factory=list)
    scaling_fits: list[ScalingFit] = field(default_factory=list)
    provenance: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks) and all(
            f.passed for f in self.scaling_fits
        )

    def extend(self, checks: Sequence[Check]) -> None:
        self.checks.extend(checks)

    def to_csv_text(self) -> str:
        lines = ["check,name,lhs,rhs,margin,pass"]
        for c in self.checks:
            lines.append(
                f"inequality,{c.name},{c.lhs!r},{c.rhs!r},{c.margin!r},{c.passed}"
            )
        for f in self.scaling_fits:
            slope = "exact" if f.exact else repr(f.slope)
            lines.append(f"scaling,{f.name},{slope},{f.slope_bound!r},,{f.passed}")
        return "\n".join(lines) + "\n"

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(
                f"[{status}] {c.name}: lhs={c.lhs:.12g} rhs={c.rhs:.12g} "
                f"margin={c.margin:.3e}"
                + (f"  ({c.note})" if c.note else "")
            )
        for f in self.scaling_fits:
            status = "PASS" if f.passed else "FAIL"
            slope = "exact (all errors zero)" if f.exact else f"{f.slope:.4f}"
            lines.append(
                f"[{status}] {f.name}: slope={slope} bound={f.slope_bound}"
            )
        verdict = "ALL CHECKS PASSED" if self.all_passed else (
            "CHECK FAILURES ABOVE ENCODE EXACT STATEMENTS: "
            "investigate the assembly, not the statement"
        )
        return "\n".join(lines + [verdict]) + "\n"


def check_ground_bounds(ed_result: EDResult) -> list[Check]:
    """Two-sided bound on the ground energy minus the condensate constant.

    The upper bound holds for the truncated value because the pure
    condensate state is always in the basis; the lower bound holds
    because truncation can only raise the ground energy.
    """
    cfg = ed_result.cfg
    n, pot, lattice = cfg.n_particles, cfg.pot, cfg.lattice
    v0hat = pot.vhat_radial(0.0)
    shift = ed_result.e_ground - 0.5 * v0hat * (n - 1)
    lower = 0.5 * (v0hat - lattice.volume * cfg.v0real)
    return [
        Check(
            "ground_energy_upper_bound",
            lhs=shift,
            rhs=0.0,
            tolerance=_tol(ed_result.e_ground),
            note="condensate trial state",
        ),
        Check(
            "ground_energy_lower_bound",
            lhs=lower,
            rhs=shift,
            tolerance=_tol(ed_result.e_ground, lower),
            note="mean-field completion of the square",
        ),
    ]


def check_sandwich(cfg: EDConfig, sector: Sequence[int], eps_list: Sequence[float]) -> list[Check]:
    """H_{N,-eps} <= H_N <= H_{N,+eps} as matrices on the sector."""
    if any(not 0.0 < e <= 1.0 for e in eps_list):
        raise ValueError("eps values must lie in (0, 1]")
    key, basis = fock_ed.sector_basis(cfg, sector)
    if len(basis) > SANDWICH_DIM_LIMIT:
        raise ValueError(
            f"sector dimension {len(basis)} exceeds dense limit {SANDWICH_DIM_LIMIT}"
        )
    h = fock_ed.assemble_hamiltonian(cfg, key, basis).toarray()
    checks = []
    for eps in eps_list:
        upper = fock_ed.assemble_estimating(cfg, key, eps, +1, basis).toarray()
        lower = fock_ed.assemble_estimating(cfg, key, eps, -1, basis).toarray()
        scale = max(1.0, float(np.abs(h).max(initial=0.0)),
                    float(np.abs(upper).max(initial=0.0)),
                    float(np.abs(lower).max(initial=0.0)))
        for name, diff in (
            (f"upper_estimate_dominates[eps={eps:g}]", upper - h),
            (f"lower_estimate_dominated[eps={eps:g}]", h - lower),
        ):
            w_min = float(np.linalg.eigvalsh(diff)[0]) if diff.size else 0.0
            checks.append(
                Check(name, lhs=0.0, rhs=w_min, tolerance=1e-9 * scale,
                      note=f"sector {key}, dim {len(basis)}")
            )
    return checks


def check_kinetic_bound(cfg: EDConfig, sector: Sequence[int]) -> Check:
    """T * L^2/(2 pi)^2 dominates N^> (both diagonal: per-state scalars)."""
    key, basis = fock_ed.sector_basis(cfg, sector)
    t = fock_ed.assemble_kinetic(cfg, key, basis).diagonal()
    ngt = fock_ed.assemble_excited_count(cfg, key, basis).diagonal()
    factor = (cfg.lattice.L / (2.0 * math.pi)) ** 2
    diff = factor * t - ngt
    w_min = float(diff.min()) if diff.size else 0.0
    scale = max(1.0, float(np.abs(factor * t).max(initial=0.0)))
    return Check(
        f"kinetic_dominates_excited_count[{key}]",
        lhs=0.0,
        rhs=w_min,
        tolerance=1e-9 * scale,
    )


def check_variational_monotonicity(
    cfg_small: EDConfig,
    cfg_large: EDConfig,
    sector: Sequence[int],
    count: int,
    tol: float = 1e-9,
    seed: int = fock_ed.DEFAULT_SEED,
) -> list[Check]:
    """Enlarging the basis never raises any reported eigenvalue."""
    vals = []
    for cfg in (cfg_small, cfg_large):
        key, basis = fock_ed.sector_basis(cfg, sector)
        mat = fock_ed.assemble_hamiltonian(cfg, key, basis)
        k = min(count, mat.dim)
        vals.append(fock_ed.lowest_eigenvalues(mat, k, tol=tol, seed=seed).values)
    small, large = vals
    k = min(len(small), len(large))
    checks = []
    for j in range(k):
        checks.append(
            Check(
                f"variational_monotonicity[{key},j={j + 1}]",
                lhs=float(large[j]),
                rhs=float(small[j]),
                tolerance=_tol(small[j], large[j]),
            )
        )
    return checks


def check_ground_sector(ed_result: EDResult) -> Check:
    """The ground state lives in the zero-momentum sector."""
    zero = (0,) * ed_result.cfg.lattice.d
    e0 = float(ed_result.sector_values[zero][0])
    others = [
        float(v[0]) for k, v in ed_result.sector_values.items() if k != zero
    ]
    rhs = min(others) if others else e0
    return Check(
        "ground_state_in_zero_sector",
        lhs=e0,
        rhs=rhs,
        tolerance=_tol(e0, rhs),
    )


@dataclass
class SpectraComparison:
    """Per-N distance between many-body and Bogoliubov spectra."""

    n_values: list[int]
    ground_errors: list[float]
    gap_errors: dict[tuple[tuple[int, ...], int], list[float]]
    e_bog_truncated: float
    checks: list[Check]


def compare_spectra(
    cfg_series: Sequence[EDConfig],
    sectors: Sequence[Sequence[int]],
    j_max: int = 1,
    tol: float = 1e-9,
    seed: int = fock_ed.DEFAULT_SEED,
) -> SpectraComparison:
    """|K_N^j(p) - K_Bog^j(p)| and the ground-energy error along a series.

    All configurations must share the lattice, potential and mode set;
    Bogoliubov quantities are evaluated on that same truncated mode set
    so the comparison isolates the N-dependence.
    """
    base = cfg_series[0]
    modes = base.modes()
    mode_keys = {m.n for m in modes}
    for cfg in cfg_series[1:]:
        if cfg.lattice != base.lattice or cfg.pot != base.pot:
            raise ValueError("series members use different lattice or potential")
        if {m.n for m in cfg.modes()} != mode_keys:
            raise ValueError("series members use different mode sets")
    eds = [
        fock_ed.many_body_excitations(cfg, sectors, count=j_max, tol=tol, seed=seed)
        for cfg in cfg_series
    ]
    keys = list(eds[0].sector_values)

    e_bog_trunc = bogoliubov_energy_on_modes(modes, base.pot)
    window = max(base.lattice.momentum(k).norm for k in keys)
    kappa = 1.0
    table = enumerate_below(base.lattice, base.pot, kappa, window, modes=modes)
    while any(len(table.sectors.get(k, [])) < j_max for k in keys):
        kappa *= 2.0
        if kappa > 1e6:
            raise UnresolvedRanksError(f"could not resolve Bogoliubov ranks j <= {j_max} "
                                       f"in sectors {keys} below kappa 1e6")
        table = enumerate_below(base.lattice, base.pot, kappa, window, modes=modes)

    v0hat = base.pot.vhat_radial(0.0)
    n_values: list[int] = []
    ground_errors: list[float] = []
    gap_errors: dict[tuple[tuple[int, ...], int], list[float]] = {
        (k, j): [] for k in keys for j in range(1, j_max + 1)
    }
    for ed in eds:
        n = ed.cfg.n_particles
        n_values.append(n)
        err = abs(ed.e_ground - 0.5 * v0hat * (n - 1) - e_bog_trunc)
        ground_errors.append(err)
        for k in keys:
            gaps = ed.sector_gaps[k]
            recs = table.sectors[k]  # the kappa loop left at least j_max records
            for j in range(1, j_max + 1):
                if j <= len(gaps):
                    gap_errors[(k, j)].append(abs(float(gaps[j - 1]) - recs[j - 1].energy))
                else:
                    gap_errors[(k, j)].append(float("nan"))
    checks = []
    for a, b, na, nb in zip(
        ground_errors, ground_errors[1:], n_values, n_values[1:]
    ):
        checks.append(
            Check(
                f"ground_error_decreases[N={na}->{nb}]",
                lhs=b,
                rhs=a,
                strict=True,
                note="exactness at both N makes the strict decrease vacuous"
                if a == 0.0 and b == 0.0
                else "",
            )
        )
    # exact special cases: both errors zero; replace strict checks
    if all(e == 0.0 for e in ground_errors):
        checks = [
            Check("ground_error_exact", lhs=max(ground_errors), rhs=0.0,
                  tolerance=1e-10)
        ]
    return SpectraComparison(
        n_values=n_values,
        ground_errors=ground_errors,
        gap_errors=gap_errors,
        e_bog_truncated=e_bog_trunc,
        checks=checks,
    )


def scaling_fit(
    error_series: Sequence[tuple[float, float]],
    slope_bound: float = -0.4,
    name: str = "ground_energy_rate",
) -> ScalingFit:
    """Slope of log(error) vs log(N); refuses exactly-zero errors."""
    if len(error_series) < 3:
        raise ValueError("need at least three points for a rate fit")
    if any(e == 0.0 for _, e in error_series):
        return ScalingFit(
            name=name,
            slope=float("nan"),
            slope_bound=slope_bound,
            exact=True,
        )
    if any(e < 0.0 for _, e in error_series):
        raise ValueError("errors must be positive")
    logn = np.log([float(n) for n, _ in error_series])
    loge = np.log([float(e) for _, e in error_series])
    slope = float(np.polyfit(logn, loge, 1)[0])
    return ScalingFit(
        name=name,
        slope=slope,
        slope_bound=slope_bound,
        exact=False,
    )


def run_default_suite(
    tol: float = 1e-9,
    seed: int = fock_ed.DEFAULT_SEED,
) -> VerificationReport:
    """The standard desk-scale verification profile.

    Exact special cases (interaction supported at k = 0 only, free gas),
    the theorem-backed inequalities on small interacting configurations,
    and the mean-field convergence-rate fit.
    """
    report = VerificationReport()
    lat = LatticeSpec(2.0 * math.pi, 1)
    gauss = Potential.gaussian(0.1, 5.0, 1)
    zero_pot = Potential.zero(1)
    # vhat supported at k = 0 only: interaction is an exact constant
    k0_pot = Potential.table([(0.0, 0.3), (0.5, 0.0), (8.0, 0.0)], 1)
    sectors1 = [(0,), (1,), (-1,), (2,), (-2,)]

    provenance: dict = {"tol": tol, "seed": seed}

    for label, pot, n in (
        ("k0_only", k0_pot, 4),
        ("free", zero_pot, 4),
        ("gaussian", gauss, 6),
    ):
        cfg = EDConfig(n, lat, pot, mode_radius=2.0, max_excited=default_max_excited(n))
        ed = fock_ed.many_body_excitations(cfg, sectors1, count=3, tol=tol, seed=seed)
        for c in check_ground_bounds(ed) + [check_ground_sector(ed)]:
            report.checks.append(replace(c, name=f"{label}:{c.name}"))

    # operator sandwich on a small interacting sector
    cfg_s = EDConfig(4, lat, gauss, mode_radius=1.0, max_excited=4)
    report.extend(check_sandwich(cfg_s, (0,), (0.25, 0.5, 1.0)))
    cfg_free = EDConfig(4, lat, zero_pot, mode_radius=1.0, max_excited=4)
    report.extend(check_sandwich(cfg_free, (0,), (0.5,)))

    # kinetic bound and variational monotonicity
    cfg_k = EDConfig(6, lat, gauss, mode_radius=2.0, max_excited=6)
    report.checks.append(check_kinetic_bound(cfg_k, (0,)))
    report.checks.append(check_kinetic_bound(cfg_k, (1,)))
    report.extend(
        check_variational_monotonicity(
            EDConfig(6, lat, gauss, mode_radius=2.0, max_excited=3),
            EDConfig(6, lat, gauss, mode_radius=2.0, max_excited=5),
            (0,),
            count=3,
            tol=tol,
            seed=seed,
        )
    )
    report.extend(
        check_variational_monotonicity(
            EDConfig(6, lat, gauss, mode_radius=1.0, max_excited=4),
            EDConfig(6, lat, gauss, mode_radius=2.0, max_excited=4),
            (0,),
            count=3,
            tol=tol,
            seed=seed,
        )
    )

    # convergence of the ground-energy error in N, with rate fit
    series = [
        EDConfig(n, lat, gauss, mode_radius=2.0, max_excited=8) for n in (4, 8, 16, 32)
    ]
    comp = compare_spectra(series, sectors1, j_max=1, tol=tol, seed=seed)
    report.extend(comp.checks)
    report.scaling_fits.append(
        scaling_fit(list(zip(comp.n_values, comp.ground_errors)))
    )
    provenance["ground_errors"] = comp.ground_errors
    provenance["n_values"] = comp.n_values
    report.provenance = provenance
    return report
