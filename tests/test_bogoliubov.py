"""Dispersion, transformation coefficients, energy sums, density limit."""

import math
import random
from collections import Counter
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from bogospec.bogoliubov import (
    _simpson,
    bogoliubov_energy,
    bogoliubov_energy_on_modes,
    coefficients,
    dispersion,
    energy_density_limit,
    identity_residuals,
)
from bogospec.model import (
    LatticeSpec,
    Momentum,
    Potential,
    PotentialRangeError,
    TailBoundError,
    ball_norm2,
    gaussian_lattice_tail,
    lattice_points,
    lattice_shells,
    summation_radius,
)

V1 = Potential.gaussian(0.1, 5.0, 1)
V2 = Potential.gaussian(7.5, 2.0, 1)
ZERO = Potential.zero(1)
LAT_015 = LatticeSpec(40 * math.pi / 3, 1)  # spacing 0.15

# independent high-precision scalar evaluations (40-digit arithmetic)
DISPERSION_V1_015 = 0.07061193591902907
ALPHA_V1_015 = 0.5167107250446132
PAIR_GROUND_SHIFT = -(2.0 - math.sqrt(3.0))  # -0.26794919243112270


def test_free_dispersion_is_p_squared():
    lat = LatticeSpec(2 * math.pi, 1)
    for n in (1, 2, 3):
        p = lat.momentum(n)
        assert dispersion(p, ZERO) == pytest.approx(p.norm2, rel=1e-15)


def test_dispersion_frozen_value():
    p = LAT_015.momentum(1)  # |p| = 0.15
    assert dispersion(p, V1) == pytest.approx(DISPERSION_V1_015, abs=1e-15)


def test_dispersion_even():
    for n in range(1, 30):
        p = LAT_015.momentum(n)
        assert dispersion(p, V1) == dispersion(-p, V1)


def test_dispersion_rejects_zero_mode():
    with pytest.raises(ValueError):
        dispersion(LAT_015.zero, V1)
    with pytest.raises(ValueError):
        coefficients(0.0, V1)


# a table negative near 0: |p|^2 + 2 vhat < 0 at |p| = 1, and vhat(0) < 0
DIPPED = Potential.table([(0.0, -3.0), (3.0, 0.0)])
HUGE = Potential.gaussian(1e300, 1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: bogoliubov_energy(LatticeSpec(2 * math.pi, 1), V1, tail_tol=0.0),
                 "tail_tol must be > 0", id="energy-tail_tol-0"),
    pytest.param(lambda: energy_density_limit(V1, step=0.0), "quadrature step must be > 0",
                 id="density-step-0"),
    pytest.param(lambda: dispersion(1.0, DIPPED),
                 "the Bogoliubov dispersion at |p| = 1.0 is imaginary (vhat = -2.0)",
                 id="dispersion-imaginary"),
    pytest.param(lambda: dispersion(1.0, Potential.gaussian(1e308, 1e300)),
                 "the Bogoliubov dispersion at |p| = 1.0 is not finite (vhat = 1e+308)",
                 id="dispersion-overflow"),
    pytest.param(lambda: coefficients(0.5, HUGE),
                 "the Bogoliubov rotation at |p| = 0.5 is singular: alpha rounds to 1 "
                 f"(vhat = {HUGE.vhat_radial(0.5)!r})", id="coefficients-alpha-1"),
    pytest.param(lambda: bogoliubov_energy(LatticeSpec(2 * math.pi, 1), DIPPED),
                 "the Bogoliubov dispersion at |p| = 1.0 is imaginary (vhat = -2.0)",
                 id="energy-imaginary"),
    pytest.param(lambda: energy_density_limit(Potential.table([(0.0, -1.0), (1.0, 0.0)])),
                 "the density integrand at |p| = 0.0 is not finite (vhat = -1.0)",
                 id="density-imaginary"),
    pytest.param(lambda: energy_density_limit(Potential.zero(2), step=1e300),
                 "the density integrand at |p| = 1e+300 is not finite (vhat = 0.0)",
                 id="density-grid-overflow"),
])
def test_inputs_out_of_range_are_refused_by_name(call, message):
    # each names its rule, or the first |p| where the formula leaves the
    # reals or the float range, before any value is returned
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_dispersion_past_a_compact_tables_last_sample_is_free():
    # the verify suite's k0 potential: 0 from |p| = 0.5 on, last sampled at 8
    k0 = Potential.table([(0.0, 0.3), (0.5, 0.0), (8.0, 0.0)])
    assert dispersion(9.0, k0) == 81.0
    assert dispersion(LatticeSpec(2 * math.pi, 1).momentum(-10), k0) == 100.0
    co = coefficients(9.0, k0)
    assert (co.A, co.B, co.alpha, co.c, co.s, co.e) == (81.0, 0.0, 0.0, 1.0, 0.0, 81.0)
    assert identity_residuals(9.0, k0) == (0.0, 0.0, 0.0)


def test_dispersion_lower_bounds():
    for n in range(1, 60):
        p = LAT_015.momentum(n)
        v = V1.vhat_radial(p.norm)
        e = dispersion(p, V1)
        assert e >= p.norm2 * (1 - 1e-14)
        assert e >= p.norm * math.sqrt(2 * v) * (1 - 1e-14)


def test_coefficients_free_case():
    p = LatticeSpec(2 * math.pi, 1).momentum(1)
    co = coefficients(p, ZERO)
    assert co.alpha == 0.0
    assert co.c == 1.0
    assert co.s == 0.0
    assert co.e == pytest.approx(p.norm2, rel=1e-15)


def test_coefficients_frozen_alpha():
    co = coefficients(LAT_015.momentum(1), V1)
    assert co.alpha == pytest.approx(ALPHA_V1_015, abs=1e-15)
    assert math.tanh(2 * co.beta) == pytest.approx(co.alpha, abs=1e-14)


def test_coefficient_invariants():
    for n in (1, 3, 7, 20):
        co = coefficients(LAT_015.momentum(n), V1)
        assert 0.0 <= co.alpha < 1.0
        assert co.c * co.c - co.s * co.s == pytest.approx(1.0, abs=1e-12)
        # sqrt(A^2 - B^2) agrees with the product form
        assert math.sqrt(co.A**2 - co.B**2) == pytest.approx(co.e, rel=1e-12)
        p = LAT_015.momentum(n)
        v = V1.vhat_radial(p.norm)
        lhs = (co.c - co.s) ** 2 * math.sqrt(p.norm2 + 2 * v)
        assert lhs == pytest.approx(p.norm, rel=1e-12)


def test_identity_residuals_zero_potential():
    res = identity_residuals(LatticeSpec(2 * math.pi, 1).momentum(2), ZERO)
    assert res == (0.0, 0.0, 0.0)


def test_identity_residuals_spec_points():
    # p = 0.15 for the weak potential, p = 1.05 for the strong one
    assert max(identity_residuals(LAT_015.momentum(1), V1)) < 1e-12
    assert max(identity_residuals(LAT_015.momentum(7), V2)) < 1e-12


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4000), st.sampled_from(["v1", "v2"]))
def test_identity_residuals_property(n, which):
    pot = V1 if which == "v1" else V2
    assert max(identity_residuals(LAT_015.momentum(n), pot)) < 1e-12


def test_bogoliubov_energy_zero_potential():
    out = bogoliubov_energy(LatticeSpec(2 * math.pi, 1), ZERO)
    assert out.e_bog == 0.0
    assert out.e_bog_alt == 0.0
    assert out.n_terms == 0
    assert out.density_limit == 0.0


def test_bogoliubov_energy_single_pair():
    # vhat = 1 exactly at |p| = 1 and zero at every other lattice point
    pot = Potential.table([(0.0, 0.0), (0.5, 0.0), (1.0, 1.0), (1.5, 0.0), (4.0, 0.0)])
    out = bogoliubov_energy(LatticeSpec(2 * math.pi, 1), pot)
    assert out.e_bog == pytest.approx(PAIR_GROUND_SHIFT, abs=1e-14)
    assert out.e_bog_alt == pytest.approx(PAIR_GROUND_SHIFT, abs=1e-14)


def test_bogoliubov_energy_direct_vs_rationalized():
    for L in (2 * math.pi, 40 * math.pi / 3, 200.0):
        out = bogoliubov_energy(LatticeSpec(L, 1), V1)
        assert out.e_bog <= 0.0
        assert out.e_bog == pytest.approx(out.e_bog_alt, rel=1e-10)


def test_bogoliubov_energy_tail_stability():
    # tightening the tail tolerance (larger summation radius) moves the
    # value by less than the looser tolerance
    loose = bogoliubov_energy(LAT_015, V1, tail_tol=1e-8)
    tight = bogoliubov_energy(LAT_015, V1, tail_tol=1e-13)
    assert abs(loose.e_bog - tight.e_bog) < 1e-8
    assert tight.n_terms >= loose.n_terms


def _energy_radius(lattice, pot):
    """bogoliubov_energy's summation radius at its default tolerance."""
    h = lattice.spacing
    a2 = pot.amplitude * pot.amplitude

    def tail(r):
        r_eff = max(r, h)
        return 0.5 * (gaussian_lattice_tail(lattice, a2, 2.0 / pot.width, r) / (r_eff * r_eff))

    return summation_radius(pot, h, tail, 1e-10)


def _per_point_energy(lattice, pot):
    """(e_bog, e_bog_alt, n_terms, density_limit, radius) at
    bogoliubov_energy's default tolerance, one term per lattice point of a cube scan, each sum
    taken by one math.fsum: the reference its shell grouping must meet."""
    radius = _energy_radius(lattice, pot)
    K = math.floor(ball_norm2(lattice, radius))
    m = math.isqrt(K)
    direct, rational = [], []
    for n in product(range(-m, m + 1), repeat=lattice.d):
        q = Momentum(n, lattice.L)
        if q.is_zero or q.norm2_int > K:
            continue
        r = q.norm
        v = pot.vhat_radial(r)
        a = r * r + v
        e = r * math.sqrt(r * r + 2.0 * v)
        direct.append(a - e)
        rational.append(v * v / (a + e))
    e_bog = -0.5 * math.fsum(direct)
    density = 0.5 * pot.vhat_radial(0.0) * (1.0 - 1.0 / lattice.volume) + e_bog / lattice.volume
    return e_bog, -0.5 * math.fsum(rational), len(direct), density, radius


ENERGY_CASES = [
    (d, amplitude, width, L)
    for d, sides in ((1, (10.0, 41.8879020479, 200.0)), (2, (10.0, 20.0, 40.0)),
                     (3, (5.0, 7.5, 10.0)))
    for amplitude, width in ((0.1, 5.0), (7.5, 2.0))
    for L in sides
]


@pytest.mark.parametrize("d, amplitude, width, L", ENERGY_CASES)
def test_bogoliubov_energy_is_the_per_point_sum_bit_for_bit(d, amplitude, width, L):
    lattice, pot = LatticeSpec(L, d), Potential.gaussian(amplitude, width, d)
    out = bogoliubov_energy(lattice, pot)
    e_bog, e_bog_alt, n_terms, density, radius = _per_point_energy(lattice, pot)
    assert (out.e_bog, out.e_bog_alt, out.n_terms, out.density_limit) == (
        e_bog, e_bog_alt, n_terms, density)
    shells = lattice_shells(lattice, radius)
    assert shells[0] == (0, 1)
    assert out.n_terms == sum(count for _, count in shells[1:])


@pytest.mark.parametrize("amplitude, width", [(0.1, 5.0), (7.5, 2.0)])
def test_bogoliubov_energy_reads_no_momentum_norm(monkeypatch, amplitude, width):
    # the shells are counted from the points' integer coordinates: no
    # Momentum property runs per point
    lattice, pot = LatticeSpec(10.0, 3), Potential.gaussian(amplitude, width, 3)
    e_bog, e_bog_alt, n_terms, density, _ = _per_point_energy(lattice, pot)

    def refuse(self):
        raise AssertionError("a Momentum norm was read")

    monkeypatch.setattr(Momentum, "norm2_int", property(refuse))
    monkeypatch.setattr(Momentum, "norm", property(refuse))
    out = bogoliubov_energy(lattice, pot)
    assert (out.e_bog, out.e_bog_alt, out.n_terms, out.density_limit) == (
        e_bog, e_bog_alt, n_terms, density)


def test_bogoliubov_energy_rejects_nondecaying_table():
    pot = Potential.table([(0.0, 1.0), (2.0, 0.5)])
    with pytest.raises(TailBoundError):
        bogoliubov_energy(LatticeSpec(2 * math.pi, 1), pot)


def test_bogoliubov_energy_raises_when_tail_bound_never_converges():
    # amplitude^2 overflows, so no radius bounds the tail; the sum used to
    # go on at the radius of the 200th growth and never finish
    pot = Potential.gaussian(1e200, 5.0)
    with pytest.raises(TailBoundError, match="did not converge"):
        bogoliubov_energy(LatticeSpec(2 * math.pi, 1), pot)


def test_bogoliubov_energy_names_the_first_momentum_whose_summand_overflows():
    # vhat^2 passes the float range from the first shell on: its rational
    # summand is inf, which has no integer ratio for the exact shell sum
    pot = Potential.table([(0.0, 1e300), (1.0, 0.0)])
    lattice = LatticeSpec(12.5, 1)
    r = lattice.spacing
    with pytest.raises(ValueError) as exc:
        bogoliubov_energy(lattice, pot)
    assert str(exc.value) == (f"the Bogoliubov summand at |p| = {r!r} is not finite "
                              f"(vhat = {pot.vhat_radial(r)!r})")


def test_bogoliubov_energy_on_modes_matches_restriction():
    lat = LatticeSpec(2 * math.pi, 1)
    modes = [lat.momentum(n) for n in (-2, -1, 0, 1, 2)]
    val = bogoliubov_energy_on_modes(modes, V1)
    direct = 0.0
    for n in (1, 2):
        p = lat.momentum(n)
        v = V1.vhat_radial(p.norm)
        a = p.norm2 + v
        e = dispersion(p, V1)
        direct += -(a - e)  # both members of the +/- pair
    assert val == pytest.approx(direct, rel=1e-12)


MODE_CASES = [
    (d, L, radius, amplitude, width)
    for d, L, radius in ((1, 41.8879020479, 3.0), (2, 7.3, 3.5), (3, 6.28318530718, 2.5))
    for amplitude, width in ((0.1, 5.0), (7.5, 2.0))
]


@pytest.mark.parametrize("d, L, radius, amplitude, width", MODE_CASES)
def test_bogoliubov_energy_on_modes_is_the_per_mode_sum_bit_for_bit(d, L, radius, amplitude,
                                                                     width):
    # mode sets whose largest shells hold 2, 8 and 24 modes, listed in
    # lattice order and shuffled, against one term per mode summed by one math.fsum
    lat, pot = LatticeSpec(L, d), Potential.gaussian(amplitude, width, d)
    modes = lattice_points(lat, radius, include_zero=True)
    assert max(Counter(m.norm2_int for m in modes).values()) == (2, 8, 24)[d - 1]
    terms = []
    for q in modes:
        if q.is_zero:
            continue
        r = q.norm
        v = pot.vhat_radial(r)
        e = r * math.sqrt(r * r + 2.0 * v)
        terms.append(v * v / (r * r + v + e))
    expected = -0.5 * math.fsum(terms)
    assert bogoliubov_energy_on_modes(modes, pot) == expected
    random.Random(d).shuffle(modes)
    assert bogoliubov_energy_on_modes(modes, pot) == expected


def test_bogoliubov_energy_on_modes_past_a_tables_last_sample():
    lat = LatticeSpec(2 * math.pi, 1)
    modes = [lat.momentum(n) for n in (-2, -1, 0, 1, 2)]
    # a compact table adds nothing past its last sample at |p| = 1.5
    compact = Potential.table([(0.0, 0.3), (1.5, 0.0)])
    assert bogoliubov_energy_on_modes(modes, compact) == bogoliubov_energy_on_modes(
        [m for m in modes if abs(m.n[0]) < 2], compact)
    # one that does not decay has no value there
    no_decay = Potential.table([(0.0, 0.3), (1.5, 0.2)])
    with pytest.raises(PotentialRangeError, match="outside table range"):
        bogoliubov_energy_on_modes(modes, no_decay)


def test_density_limit_zero_potential():
    out = energy_density_limit(ZERO)
    assert out.value == 0.0


def test_density_limit_step_halving_within_estimate():
    coarse = energy_density_limit(V1, step=0.02)
    fine = energy_density_limit(V1, step=0.01)
    assert abs(fine.value - coarse.value) < coarse.error_estimate


@pytest.mark.parametrize("step", [12.0, 100.0, 1e9])
def test_density_limit_estimate_covers_the_error_at_a_step_past_r_max(step):
    # a step of r_max or more clamps the coarse grid to 2 intervals; the
    # fine grid takes 4, so the estimate is more than the tail term (7.7e-29
    # here) and covers the distance to the converged value, 0.0111
    ref = energy_density_limit(V1)
    out = energy_density_limit(V1, step=step)
    assert out.r_max <= step
    assert abs(out.value - ref.value) + ref.error_estimate <= out.error_estimate


def test_density_limit_matches_lattice_density():
    # the full-lattice Riemann sum is the oracle for the quadrature
    quad = energy_density_limit(V1)
    lat_sum = bogoliubov_energy(LatticeSpec(200.0, 1), V1)
    assert quad.value == pytest.approx(lat_sum.density_limit, abs=1e-5)


@pytest.mark.parametrize("step", [0.005, 0.0025, 0.02, 100.0])
@pytest.mark.parametrize("pot", [
    V1, V2, Potential.gaussian(0.2, 3.0, 2), Potential.gaussian(1.0, 0.5, 3),
    Potential.table([(0.0, 0.3), (0.5, 0.2), (2.0, 0.0)], 1),
], ids=["gauss-1d", "gauss-1d-strong", "gauss-2d", "gauss-3d", "table-1d"])
def test_simpson_matches_scipy_bit_for_bit(pot, step):
    # the grids and integrand of energy_density_limit, at both of its steps
    r_max = energy_density_limit(pot, step=step).r_max
    for h, least in ((step, 2), (0.5 * step, 4)):
        n = max(least, math.ceil(r_max / h))
        grid = np.linspace(0.0, r_max, n + n % 2 + 1)
        v = np.array([pot.vhat_radial(float(t)) for t in grid])
        y = (grid * grid + v - grid * np.sqrt(grid * grid + 2.0 * v)) * grid ** (pot.dimension - 1)
        assert _simpson(y, grid) == float(simpson(y, x=grid))
        if step == 100.0 and not pot.compactly_supported:
            assert len(grid) == least + 1


def test_density_limit_2d():
    pot = Potential.gaussian(0.2, 3.0, 2)
    out = energy_density_limit(pot, step=0.01)
    # value below the mean-field half-amplitude, correction negative
    assert out.value < 0.5 * 0.2
    assert out.error_estimate < 1e-8
