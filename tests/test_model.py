"""Potential and lattice layer: Fourier values, periodization, point sets."""

import copy
import dataclasses
import gc
import math
import pickle
import random
import tracemalloc
from collections import Counter
from decimal import Decimal, getcontext, localcontext
from functools import cache
from itertools import chain, product, repeat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc as scipy_erfc

from bogospec import model
from bogospec.model import (
    TAU,
    LatticeBudgetError,
    LatticeSpec,
    Momentum,
    Potential,
    PotentialRangeError,
    TailBoundError,
    cube_exceeds,
    default_tail_tol,
    fourier_at,
    gaussian_integral_tail,
    gaussian_lattice_tail,
    lattice_coords,
    lattice_points,
    lattice_shells,
    periodized_value,
    summation_radius,
    validate_potential,
)

V1 = Potential.gaussian(0.1, 5.0, 1)
V2 = Potential.gaussian(7.5, 2.0, 1)

# dense quadrature oracle (1/2pi) * integral of vhat1 = 0.1*sqrt(5*pi)/(2*pi)
PERIODIZED_V1_AT_0 = 0.06307831305050400


def test_gaussian_values_at_zero():
    assert fourier_at(V1, 0.0) == pytest.approx(0.1, abs=0.0)
    assert fourier_at(V2, 0.0) == pytest.approx(7.5, abs=0.0)


def test_fourier_accepts_momentum_scalar_and_vector():
    lat = LatticeSpec(2 * math.pi, 1)
    p = lat.momentum(2)
    assert fourier_at(V1, p) == fourier_at(V1, 2.0) == fourier_at(V1, [2.0])


@given(st.floats(-8, 8, allow_nan=False))
def test_fourier_even_symmetry(p):
    assert fourier_at(V1, p) == fourier_at(V1, -p)
    assert fourier_at(V2, p) == fourier_at(V2, -p)


def test_gaussian_bounded_by_amplitude():
    for k in range(50):
        assert fourier_at(V1, 0.3 * k) <= 0.1


def test_momentum_integer_norm():
    m = Momentum((3, -4), 2 * math.pi)
    assert m.norm2_int == 25
    assert m.norm == pytest.approx(5.0, rel=1e-15)
    assert (-m).n == (-3, 4)


def test_momentum_is_a_slotted_frozen_value():
    m = Momentum((3, -4, 0), 2 * math.pi)
    ref = ((3, -4, 0), 2 * math.pi)
    assert Momentum.__slots__ == ("n", "L")
    assert not hasattr(m, "__dict__")
    for name, value in (("n", (1, 2, 3)), ("L", 1.0)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(m, name, value)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(m, name)
    # no other attribute either: Python 3.11's frozen slotted __setattr__
    # raises TypeError here, not FrozenInstanceError
    with pytest.raises((AttributeError, TypeError)):
        m.x = 0
    assert (m.n, m.L) == ref
    assert m == Momentum(*ref) and m != Momentum((3, -4, 1), ref[1])
    assert m != Momentum(ref[0], 2.0) and m != ref
    assert hash(m) == hash(ref) == hash(Momentum(*ref))
    assert repr(m) == f"Momentum(n={ref[0]!r}, L={ref[1]!r})"
    assert Momentum(n=ref[0], L=ref[1]) == m
    assert dataclasses.replace(m, L=1.0) == Momentum(ref[0], 1.0)
    assert dataclasses.astuple(m) == ref
    for clone in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        assert type(clone) is Momentum and clone == m and hash(clone) == hash(ref)
        assert (clone.n, clone.L) == ref


def test_momentum_coordinates_must_be_integers():
    lat = LatticeSpec(2 * math.pi, 1)
    for c in (2, 2.0, np.int64(2), np.float64(2.0), (2,), [2.0]):
        n = lat.momentum(c).n
        assert n == (2,) and type(n[0]) is int
    assert LatticeSpec(2 * math.pi, 3).momentum(1, np.int32(-2), 0.0).n == (1, -2, 0)
    for c, name in ((1.5, "1.5"), (-0.9, "-0.9"), (math.inf, "inf"), (math.nan, "nan"),
                    (np.float64(0.5), "0.5"), ("2", "'2'")):
        with pytest.raises(ValueError, match=f"momentum coordinate .*{name}.* is not an integer"):
            lat.momentum(c)
        with pytest.raises(ValueError, match="is not an integer"):
            lat.momentum((c,))


def test_lattice_spec_validation():
    with pytest.raises(ValueError):
        LatticeSpec(0.5, 1)
    with pytest.raises(ValueError):
        LatticeSpec(2.0, 4)


def test_table_requires_zero_start_and_monotone_grid():
    with pytest.raises(ValueError):
        Potential.table([(0.5, 1.0), (1.0, 0.0)])
    with pytest.raises(ValueError):
        Potential.table([(0.0, 1.0), (1.0, 0.5), (1.0, 0.0)])


def test_table_interpolation_and_range_error():
    pot = Potential.table([(0.0, 1.0), (2.0, 0.0)])
    assert pot.vhat_radial(1.0) == pytest.approx(0.5)
    # compact support: zero past the last sample
    assert pot.vhat_radial(2.5) == 0.0
    # no decay: no value is known past the last sample
    no_decay = Potential.table([(0.0, 1.0), (2.0, 0.3)])
    with pytest.raises(PotentialRangeError, match=r"2.5 outside table range \[0.0, 2.0\]"):
        no_decay.vhat_radial(2.5)


def test_fourier_at_reads_zero_past_a_compact_tables_last_sample():
    # the verify suite's k0 potential: 0 from |p| = 0.5 on, last sampled at 8
    k0 = Potential.table([(0.0, 0.3), (0.5, 0.0), (8.0, 0.0)])
    assert fourier_at(k0, 8.0) == 0.0
    assert fourier_at(k0, 9.0) == 0.0
    assert fourier_at(k0, (6.0, 8.0)) == 0.0  # |p| = 10
    assert fourier_at(k0, LatticeSpec(2 * math.pi, 1).momentum(-12)) == 0.0


def test_potential_rejects_non_finite_parameters():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="must be finite"):
            Potential.table([(0.0, bad), (1.0, 0.0)])
        with pytest.raises(ValueError, match="must be finite"):
            Potential.table([(0.0, 0.3), (bad, 0.0)])
        with pytest.raises(ValueError, match="finite amplitude"):
            Potential.gaussian(bad, 5.0)
        with pytest.raises(ValueError, match="finite width"):
            Potential.gaussian(0.1, bad)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: Potential.gaussian(0.1, 5.0, 4), "dimension must be 1, 2 or 3, got 4",
                 id="potential-dim-4"),
    pytest.param(lambda: Potential.table([(0.0, 0.3)]),
                 "table potential needs at least two samples", id="table-one-sample"),
    pytest.param(lambda: Potential("yukawa", 1), "unknown potential family 'yukawa'",
                 id="unknown-family"),
    pytest.param(lambda: periodized_value(V1, LatticeSpec(2 * math.pi, 1), 0.0, tail_tol=0.0),
                 "tail_tol must be > 0", id="periodized-tail_tol-0"),
    pytest.param(lambda: periodized_value(V1, LatticeSpec(2 * math.pi, 1), (0.0, 0.0)),
                 "x must have 1 coordinates, got 2", id="periodized-x-length"),
])
def test_potential_and_periodization_inputs_are_refused_by_name(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_summation_radius_rule():
    # compact support first, then the non-decaying table, then the growth
    never = lambda r: pytest.fail("a tail bound was evaluated")
    assert summation_radius(Potential.table([(0, 1), (1.5, 0)]), 1.0, never, 1e-9) == 1.5
    assert summation_radius(Potential.zero(2), 1.0, never, 1e-9) == 0.0
    with pytest.raises(TailBoundError, match="does not decay"):
        summation_radius(Potential.table([(0, 1), (2, 0.5)]), 1.0, never, 1e-9)
    # the first start * 1.5^k whose bound falls strictly below tail_tol:
    # 1/4.5 ties with tail_tol at R = 4.5, so R grows once more
    assert summation_radius(V1, 2.0, lambda r: 1.0 / r, 1.0 / 4.5) == 2.0 * 1.5**3
    with pytest.raises(TailBoundError, match="did not converge"):
        summation_radius(V1, 1.0, lambda r: 1.0, 1.0)


def test_non_decaying_table_cannot_bound_tail():
    pot = Potential.table([(0.0, 1.0), (2.0, 0.3)])
    lat = LatticeSpec(2 * math.pi, 1)
    with pytest.raises(TailBoundError):
        periodized_value(pot, lat, 0.0)


def test_lattice_points_examples():
    lat = LatticeSpec(2 * math.pi, 1)
    pts = lattice_points(lat, 2.5)
    assert [p.n for p in pts] == [(-2,), (-1,), (1,), (2,)]
    assert lattice_points(lat, 0.5) == []
    lat2 = LatticeSpec(2 * math.pi, 2)
    pts2 = lattice_points(lat2, 1.0)
    assert sorted(p.n for p in pts2) == [(-1, 0), (0, -1), (0, 1), (1, 0)]


def test_lattice_points_zero_flag_and_order():
    lat = LatticeSpec(2 * math.pi, 1)
    pts = lattice_points(lat, 1.0, include_zero=True)
    assert [p.n for p in pts] == [(-1,), (0,), (1,)]


@settings(max_examples=60, deadline=None)
@given(
    st.floats(1.0, 12.0),
    st.floats(0.0, 4.0),
    st.integers(1, 2),
)
def test_lattice_points_match_box_scan(L, radius, d):
    lat = LatticeSpec(L, d)
    pts = lattice_points(lat, radius)
    h = lat.spacing
    m = int(math.ceil(radius / h)) + 1
    count = 0
    for n in product(range(-m, m + 1), repeat=d):
        nn = sum(c * c for c in n)
        if nn and h * math.sqrt(nn) <= radius:
            count += 1
    assert len(pts) == count
    assert len({p.n for p in pts}) == len(pts)


def test_lattice_budget_checks_the_cube_first(monkeypatch):
    lat = LatticeSpec(TAU, 2)  # spacing 1
    monkeypatch.setattr(model, "MAX_LATTICE_POINTS", 25)
    # radius 2: the cube 5^2 is at the cap and its ball of 13 points is listed
    assert len(lattice_points(lat, 2.0, include_zero=True)) == 13
    with pytest.raises(LatticeBudgetError, match="radius 3 exceeds the cap of 25 points"):
        lattice_points(lat, 3.0)
    # lattice_shells lists no point: the point cap does not bind it
    assert sum(r for _, r in lattice_shells(lat, 3.0)) == 29
    # the ball's bound is inf here, which has no floor, and radius / spacing
    # overflows to inf at the largest side
    for lattice, radius in [(LatticeSpec(TAU, 3), 1.7e308), (LatticeSpec(1e300, 1), 1e300)]:
        assert cube_exceeds(lattice, radius, 10**9)
        with pytest.raises(LatticeBudgetError) as err:
            lattice_points(lattice, radius)
        assert err.value.radius == radius and isinstance(err.value, ValueError)


def test_lattice_shells_budget_counts_its_counters(monkeypatch):
    monkeypatch.setattr(model, "MAX_SHELL_COUNTERS", 9)
    # spacing 1: 1D holds m + 1 shells, 2D and 3D an array over |n|^2 <= K,
    # K = m^2 at an integer radius m: K + 1 counters, 5 at m = 2, 10 at m = 3
    for d, admitted, over in [(1, 8.0, 9.0), (2, 2.0, 3.0), (3, 2.0, 3.0)]:
        lat = LatticeSpec(TAU, d)
        assert lattice_shells(lat, admitted)
        with pytest.raises(LatticeBudgetError,
                           match=f"radius {over:g} exceeds the cap of 9 shell counters"):
            lattice_shells(lat, over)
    # near the largest float the ball's bound is inf, which has no floor
    with pytest.raises(LatticeBudgetError) as err:
        lattice_shells(LatticeSpec(TAU, 3), 1.7e308)
    assert err.value.radius == 1.7e308


@pytest.mark.parametrize("L", [30.0, 40.0])
def test_periodized_value_at_3d_boxes_past_the_point_cap(L):
    # the tail radius (about 16) spans a cube of 8.6M points at L = 40,
    # past MAX_LATTICE_POINTS; the shell sum at x = 0 lists none of them
    pot = Potential.gaussian(0.1, 5.0, 3)
    assert periodized_value(pot, LatticeSpec(L, 3), (0.0, 0.0, 0.0)) == 0.025098063309714314


def _reference_lattice_points(lattice, radius, include_zero=False):
    """The cube scan over [-m, m]^d that lattice_points replaced."""
    h = lattice.spacing
    m = int(math.floor(radius / h + 1e-9))
    pts = []
    for n in product(range(-m, m + 1), repeat=lattice.d):
        nn = sum(c * c for c in n)
        if nn == 0 and not include_zero:
            continue
        if h * math.sqrt(nn) <= radius:
            pts.append(Momentum(n, lattice.L))
    return pts


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("L", [1.0, 2 * math.pi, 7.0, 13.3])
def test_lattice_points_and_shells_match_cube_scan(d, L):
    lat = LatticeSpec(L, d)
    h = lat.spacing
    # 0; a radius exactly on the shell |n|^2 = 5; 1.9 h, where m = 1 but
    # |n|^2 = 2 and 3 still lie inside for d >= 2; and larger radii
    for radius in (0.0, h * math.sqrt(5), 1.9 * h, 3.5 * h, 5.2):
        m = int(math.floor(radius / h + 1e-9))
        for include_zero in (False, True):
            ref = _reference_lattice_points(lat, radius, include_zero)
            pts = lattice_points(lat, radius, include_zero)
            assert pts == ref
        ref = _reference_lattice_points(lat, radius, include_zero=True)
        shells = lattice_shells(lat, radius)
        assert shells == sorted(Counter(p.norm2_int for p in ref).items())
        assert sum(count for _, count in shells) == len(ref)
        if radius == h * math.sqrt(5) and d >= 2:
            assert any(p.norm2_int == 5 for p in pts)
        if radius == 1.9 * h and d >= 2:
            assert m == 1 and max(p.norm2_int for p in pts) == d


def _cube_filter(lattice, radius, include_zero):
    """The points of the cube [-m, m]^d with |n|^2 <= floor(ball_norm2), in
    lexicographic order: product's order, with no walk over the ball."""
    K = math.floor(model.ball_norm2(lattice, radius))
    m = math.isqrt(K)
    return [n for n in product(range(-m, m + 1), repeat=lattice.d)
            if sum(c * c for c in n) <= K and (include_zero or any(n))]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("include_zero", [False, True])
# radius 0; radius 0.3 at h = 0.1, which reads below 3 h and keeps the
# sphere |n| = 3 only by ball_norm2's widening; and larger balls
@pytest.mark.parametrize("L, radius", [(TAU, 0.0), (TAU / 0.1, 0.3), (7.0, 3.1), (13.3, 5.2)])
def test_listings_match_a_filter_of_the_cube(d, include_zero, L, radius):
    lat = LatticeSpec(L, d)
    ref = _cube_filter(lat, radius, include_zero)
    if radius == 0.3:
        assert max(sum(c * c for c in n) for n in ref) == 9
    coords = lattice_coords(lat, radius, include_zero)
    assert type(coords) is list and coords == ref
    pts = lattice_points(lat, radius, include_zero)
    assert type(pts) is list and len(pts) == len(ref)
    for p, n in zip(pts, ref):
        q = Momentum(n, L)
        assert type(p) is Momentum and (p.n, p.L) == (n, L)
        assert p == q and hash(p) == hash(q) and repr(p) == repr(q)
        assert type(p.n) is tuple and all(type(c) is int for c in p.n)


@pytest.mark.parametrize("listing", [lattice_points, lattice_coords])
def test_listings_restore_the_collector_state(monkeypatch, listing):
    lat = LatticeSpec(TAU, 3)

    def refused():
        with pytest.raises(LatticeBudgetError):
            listing(lat, 1e6)

    def broken_midway():
        # the third repeat, in the second run of the last axis, raises
        # after the first run is listed
        calls = []

        def repeat_until_third(*args):
            calls.append(args)
            if len(calls) == 3:
                raise ArithmeticError("midway")
            return repeat(*args)

        with monkeypatch.context() as m:
            m.setattr(model, "repeat", repeat_until_third)
            with pytest.raises(ArithmeticError, match="midway"):
                listing(lat, 2.0)

    was_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            assert len(listing(lat, 2.0)) == 32
            assert gc.isenabled() is enabled
            refused()
            assert gc.isenabled() is enabled
            broken_midway()
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


@cache
def _sphere_size(d, k2):
    """The integer points n of Z^d with |n|^2 = k2, counted on their cube."""
    b = math.isqrt(k2)
    return sum(sum(c * c for c in n) == k2 for n in product(range(-b, b + 1), repeat=d))


def test_a_decimal_radius_on_a_lattice_sphere_keeps_the_sphere():
    # radius k * h written in decimal, as a --window or --mode-radius is:
    # at h = 0.1 the radius 0.3 reads below h * 3 = 0.30000000000000004,
    # and a strict float test |p| <= radius drops the sphere |n| = 3
    for h in (0.05, 0.1, 0.15, 0.2, 0.25, 0.3):
        for d in (1, 2, 3):
            lat = LatticeSpec(TAU / h, d)
            for k in range(1, 21):
                radius, k2 = round(k * h, 10), k * k
                size = _sphere_size(d, k2)
                coords = lattice_coords(lat, radius)
                assert sum(sum(c * c for c in n) == k2 for n in coords) == size
                assert max(sum(c * c for c in n) for n in coords) == k2
                assert lattice_shells(lat, radius)[-1] == (k2, size)


def test_lattice_shells_1d_builds_no_array_over_k():
    # the radius periodized_value sums V1 over at L = 400: m = 778 and
    # K = m^2, so an int64 array indexed by k up to K would take 4.8 MB
    lat = LatticeSpec(400.0, 1)
    radius = summation_radius(
        V1, 4.0 * lat.spacing,
        lambda r: (1.0 / lat.volume) * gaussian_lattice_tail(lat, V1.amplitude, 1.0 / V1.width, r),
        default_tail_tol(V1))
    m = int(math.floor(radius / lat.spacing + 1e-9))
    assert m == 778
    tracemalloc.start()
    try:
        shells = lattice_shells(lat, radius)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert shells == [(0, 1)] + [(c * c, 2) for c in range(1, m + 1)]
    assert peak < 1_000_000


def _reference_periodized_at_zero(pot, lattice):
    """(1/L^d) * fsum of vhat over the points of the cube scan, one per point."""
    radius = summation_radius(
        pot, 4.0 * lattice.spacing,
        lambda r: (1.0 / lattice.volume) * gaussian_lattice_tail(
            lattice, pot.amplitude, 1.0 / pot.width, r),
        default_tail_tol(pot))
    terms = [pot.vhat_radial(p.norm)
             for p in _reference_lattice_points(lattice, radius, include_zero=True)]
    return math.fsum(terms) / lattice.volume


@pytest.mark.parametrize("d, L", [(1, 40 * math.pi / 3), (2, 7.0), (3, 10.0)])
def test_periodized_at_zero_matches_per_point_sum(d, L):
    lat = LatticeSpec(L, d)
    for pot in (
        Potential.gaussian(0.1, 5.0, d),
        Potential.gaussian(7.5, 2.0, d),
        Potential.table([(0, 1), (1, 0.5), (2, 0)], d),
    ):
        ref = _reference_periodized_at_zero(pot, lat)
        assert periodized_value(pot, lat, (0.0,) * d) == ref  # bit for bit
        assert periodized_value(pot, lat, (-0.0,) * d) == ref


def test_fsum_repeated_matches_fsum_of_the_repeats():
    # 300 seeded shell lists: values of either sign at magnitudes 1e-300
    # to 1e5 (subnormals included), counts up to 10^4, and sums
    # that cancel to zero or to a few ulps
    rng = random.Random(20261018)
    cases = [[], [(0.0, 5)], [(0.1, 3), (-0.3, 1)], [(1e-300, 7), (-1e-300, 7)]]
    for _ in range(296):
        shells = [(rng.choice((-1, 1)) * 10.0 ** rng.uniform(-300, 5) * rng.random(),
                   rng.randint(1, 10_000)) for _ in range(rng.randint(1, 12))]
        if rng.random() < 0.2:
            shells += [(-v, c) for v, c in shells[:2]]
        cases.append(shells)
    for shells in cases:
        want = math.fsum(chain.from_iterable(repeat(v, c) for v, c in shells))
        got = model._fsum_repeated(shells)
        assert (got, math.copysign(1.0, got)) == (want, math.copysign(1.0, want)), shells


def test_periodized_zero_potential():
    lat = LatticeSpec(2 * math.pi, 1)
    pot = Potential.zero(1)
    for x in (0.0, 0.7, 3.0):
        assert periodized_value(pot, lat, x) == 0.0


def test_periodized_value_matches_quadrature_oracle():
    lat = LatticeSpec(40 * math.pi / 3, 1)
    val = periodized_value(V1, lat, 0.0)
    assert val == pytest.approx(PERIODIZED_V1_AT_0, abs=1e-12)


def test_periodized_is_periodic():
    lat = LatticeSpec(40 * math.pi / 3, 1)
    tol = 1e-12
    for x in (0.3, 1.7):
        a = periodized_value(V1, lat, x, tail_tol=tol)
        b = periodized_value(V1, lat, x + lat.L, tail_tol=tol)
        assert a == pytest.approx(b, abs=1e-11)


def test_periodized_refinement_converges():
    lat = LatticeSpec(40 * math.pi / 3, 1)
    prev = periodized_value(V1, lat, 0.0, tail_tol=1e-8)
    for tol in (1e-10, 1e-12, 1e-14):
        cur = periodized_value(V1, lat, 0.0, tail_tol=tol)
        assert abs(cur - prev) < 1e-8
        prev = cur


def test_periodized_2d():
    lat = LatticeSpec(2 * math.pi, 2)
    pot = Potential.gaussian(0.5, 3.0, 2)
    v0 = periodized_value(pot, lat, (0.0, 0.0))
    # all-cosine sum at the origin dominates any other point
    assert v0 > periodized_value(pot, lat, (1.0, 2.0))
    assert v0 > 0.0


def test_validate_gaussian_ok():
    lat = LatticeSpec(2 * math.pi, 1)
    res = validate_potential(V1, lat, 5.0)
    assert res.ok and not res.violations


def test_validate_flags_negative_sample():
    lat = LatticeSpec(2 * math.pi, 1)
    pot = Potential.table([(0.0, 1.0), (1.0, -0.2), (2.0, 0.0)])
    res = validate_potential(pot, lat, 2.0)
    assert not res.ok
    bad_p, bad_v = res.violations[0]
    assert bad_v < 0.0


@pytest.mark.parametrize("d, first_uncovered, negative", [
    (1, "3", [(-1,), (1,)]),
    (2, "2.23607", [(-1, 0), (0, -1), (0, 1), (1, 0)]),
])
def test_validate_scans_shells_outward_to_the_end_of_a_table(d, first_uncovered, negative):
    # the table covers |p| <= 2 and does not decay: the scan checks every
    # shell it covers, vhat(1) = -0.2 among them, and stops at the first
    # it does not; no tail bound gives v(0)
    lat = LatticeSpec(2 * math.pi, d)
    pot = Potential.table([(0.0, 1.0), (1.0, -0.2), (2.0, 0.3)], dimension=d)
    res = validate_potential(pot, lat, 3.0)
    assert not res.ok
    assert res.violations == [(lat.momentum(n), -0.2) for n in negative]
    assert res.warnings == [
        "tabulated potential does not decay to zero; tail bounds unavailable",
        f"table does not cover |p| = {first_uncovered}; scan truncated",
        "real-space check at x = 0 skipped: tail unboundable",
    ]


def test_validate_flags_a_negative_value_at_the_origin():
    # vhat(0) = -1 and 0 from |p| = 1 on: v(0) = -1/L
    lat = LatticeSpec(2 * math.pi, 1)
    pot = Potential.table([(0.0, -1.0), (1.0, 0.0)])
    res = validate_potential(pot, lat, 2.0)
    assert not res.ok and res.warnings == []
    assert res.violations == [(lat.zero, -1.0), ("v(0)", -1.0 / lat.L)]


def test_validate_radius_zero_vacuous():
    lat = LatticeSpec(2 * math.pi, 1)
    res = validate_potential(V1, lat, 0.0)
    assert res.ok
    assert res.warnings


def test_validate_rejects_negative_radius():
    lat = LatticeSpec(2 * math.pi, 1)
    with pytest.raises(ValueError):
        validate_potential(V1, lat, -1.0)


def _ed_config(lat, mode_radius):
    from bogospec.fock_ed import EDConfig

    return EDConfig(4, lat, V1, mode_radius)


# (call on a lattice and a radius, the argument its message names)
NAN_RADIUS_CALLS = {
    "ball_norm2": (model.ball_norm2, "radius"),
    "lattice_points": (lattice_points, "radius"),
    "lattice_coords": (lattice_coords, "radius"),
    "lattice_shells": (lattice_shells, "radius"),
    "validate_potential": (lambda lat, r: validate_potential(V1, lat, r), "radius"),
    "EDConfig": (_ed_config, "mode_radius"),
}


@pytest.mark.parametrize("call, name", NAN_RADIUS_CALLS.values(), ids=NAN_RADIUS_CALLS.keys())
def test_a_nan_radius_is_refused_by_name(call, name):
    # NaN passes a `radius < 0.0` test, and math.floor then fails on it
    # with a message that names no argument
    with pytest.raises(ValueError, match=rf"^{name} must be >= 0, got nan$"):
        call(LatticeSpec(2 * math.pi, 1), math.nan)


def _decimal_pi() -> Decimal:
    """pi by Machin's formula, to the precision of the current decimal context."""
    eps = Decimal(10) ** -(getcontext().prec + 2)

    def atan_inv(k: int) -> Decimal:
        x = Decimal(1) / k
        term = total = x
        n = 1
        while abs(term) > eps:
            term *= -x * x
            n += 2
            total += term / n
        return total

    return 16 * atan_inv(5) - 4 * atan_inv(239)


def _reference_erfc(x: float) -> float:
    """erfc at the exact binary value of x >= 0, in decimal arithmetic, from
    the all-positive series erf(x) = 2/sqrt(pi) exp(-x^2) sum_n (2x^2)^n x / (2n+1)!!."""
    with localcontext() as ctx:
        # 1 - erf cancels about x^2 / ln 10 digits; 30 more are kept
        ctx.prec = int(x * x / 2.3) + 30
        X = Decimal(x)
        term = total = X
        n = 0
        while term > total.scaleb(-ctx.prec):
            n += 1
            term = term * 2 * X * X / (2 * n + 1)
            total += term
        return float(1 - 2 * (-X * X).exp() * total / _decimal_pi().sqrt())


def _tail_form(s, r, d, erfc):
    """The closed form of gaussian_integral_tail, step for step, with the given erfc."""
    if d == 1:
        return math.sqrt(math.pi / s) * erfc(math.sqrt(s) * r)
    if d == 2:
        return (math.pi / s) * math.exp(-s * r * r)
    return 2.0 * TAU * (
        r * math.exp(-s * r * r) / (2.0 * s)
        + math.sqrt(math.pi) * erfc(math.sqrt(s) * r) / (4.0 * s**1.5)
    )


def _ulps(a: float, b: float) -> int:
    """Distance in units in the last place between two floats >= 0."""
    return abs(int(np.float64(a).view(np.int64)) - int(np.float64(b).view(np.int64)))


def test_gaussian_integral_tail_within_4_ulps_of_exact_erfc():
    # math.erfc is within 4 ulps of a correctly rounded erfc in the same
    # form.  Where the old scipy.special.erfc form differs by more than 4
    # ulps, it is the old form that is further off: scipy's erfc loses about
    # 0.75 x^2 ulps in the far tail (502 ulps at d = 1, s = 6.7, r = 9.95).
    for s in (0.4, 2.0, 6.7):
        for i in range(201):
            r = 0.05 * i
            exact_erfc = _reference_erfc(math.sqrt(s) * r)
            for d in (1, 2, 3):
                got = gaussian_integral_tail(s, r, d)
                exact = _tail_form(s, r, d, lambda x: exact_erfc)
                old = _tail_form(s, r, d, lambda x: float(scipy_erfc(x)))
                assert _ulps(got, exact) <= 4, (s, r, d)
                if _ulps(got, old) > 4:
                    assert _ulps(old, exact) > _ulps(got, exact), (s, r, d)


def test_gaussian_integral_tail_below_the_float_range_never_converges():
    # s = 2e-300: the 3D form's s**1.5 underflows to 0, and its erfc term is
    # its limit +inf; the 1D and 2D tails are past any tolerance too, so
    # every dimension's sum refuses the width the same way
    assert gaussian_integral_tail(2e-300, 1.0, 3) == math.inf
    assert gaussian_integral_tail(2e-300, 1.0, 1) > 1e149
    assert gaussian_integral_tail(2e-300, 1.0, 2) > 1e299
    for d in (1, 2, 3):
        pot = Potential.gaussian(1e-9, 1e300, d)
        with pytest.raises(TailBoundError, match="^tail bound did not converge$"):
            periodized_value(pot, LatticeSpec(10.0, d), [0.0] * d)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_gaussian_integral_tail_past_the_float_range_is_its_limit(d):
    # s = 2e300: the 3D form's s**1.5 overflows, and its erfc term is its
    # limit 0, as the whole tail is in 1D and 2D past r = 0
    assert gaussian_integral_tail(2e300, 0.5, d) == 0.0
    assert 0.0 <= gaussian_integral_tail(2e300, 0.0, d) < 2e-150
