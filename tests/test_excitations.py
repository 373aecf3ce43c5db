"""Spectrum enumeration: oracle equivalence, completeness, damping, figures."""

import itertools
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bogospec import excitations
from bogospec.excitations import (
    EnumerationBudgetError,
    OutOfWindowError,
    damping_scan,
    enumerate_below,
    kth_excitation,
    oracle_enumerate,
)
from bogospec.bogoliubov import dispersion
from bogospec.cli import main
from bogospec.model import LatticeSpec, MomentumCode, Potential

LAT = LatticeSpec(2 * math.pi, 1)
ZERO = Potential.zero(1)
V1 = Potential.gaussian(0.1, 5.0, 1)
LAT_015 = LatticeSpec(40 * math.pi / 3, 1)
LAT_1D_SPECTRUM = LatticeSpec(41.8879020479, 1)


def _multisets(table, key):
    return [tuple(m.n for m in r.constituents) for r in table.sectors.get(key, [])]


def _figure_rows(capsys, lattice, vhat, kappa, window):
    """`bogospec figure`'s rows for a 1D run: (sector, energy, n_quasi, class)."""
    assert main(["figure", "--vhat", vhat, "--L", repr(lattice.L),
                 "--kappa", repr(kappa), "--window", repr(window)]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if not ln.startswith("#")]
    assert lines[0] == "n1,p1,energy,n_quasi,class"
    return [((int(n1),), float(e), int(nq), cls)
            for n1, _, e, nq, cls in (ln.split(",") for ln in lines[1:])]


def test_free_case_sector_one():
    table = enumerate_below(LAT, ZERO, 5.5, momentum_window=3.0)
    recs = table.sectors[(1,)]
    assert [r.energy for r in recs] == [1.0, 3.0, 5.0, 5.0]
    assert _multisets(table, (1,)) == [
        ((1,),),
        ((-1,), (1,), (1,)),
        ((-1,), (2,)),
        ((-1,), (-1,), (1,), (1,), (1,)),
    ]
    assert [r.rank for r in recs] == [1, 2, 3, 4]


def test_free_case_sector_zero():
    # oracle-derived list; the {-2, 1, 1} multiset also lands at energy 6
    table = enumerate_below(LAT, ZERO, 6.5, momentum_window=3.0)
    assert [r.energy for r in table.sectors[(0,)]] == [2.0, 4.0, 6.0, 6.0, 6.0]


def test_free_energies_are_exact_integers():
    table = enumerate_below(LAT, ZERO, 7.5, momentum_window=3.0)
    for recs in table.sectors.values():
        for r in recs:
            assert r.energy == float(sum(m.norm2_int for m in r.constituents))


def test_kappa_zero_empty():
    table = enumerate_below(LAT, V1, 0.0, momentum_window=2.0)
    assert table.sectors == {}
    assert kth_excitation(table, (1,), 1) is None


def test_negative_kappa_rejected():
    with pytest.raises(ValueError):
        enumerate_below(LAT, V1, -1.0, momentum_window=1.0)


def test_nan_kappa_and_window_rejected():
    nan = float("nan")
    with pytest.raises(ValueError, match="kappa must be >= 0, got nan"):
        enumerate_below(LAT, V1, nan, 1.0)
    with pytest.raises(ValueError, match="momentum window must be >= 0, got nan"):
        enumerate_below(LAT, V1, 1.0, nan)
    with pytest.raises(ValueError, match="kappa must be >= 0, got nan"):
        oracle_enumerate(LAT, V1, nan, (1,))
    # an infinite window keeps every sector the search reaches
    assert enumerate_below(LAT, ZERO, 7.5, math.inf).entries == \
        enumerate_below(LAT, ZERO, 7.5, 100.0).entries


def test_repeated_modes_rejected():
    # listed twice, p = 1 would count as two 1-quasiparticle records in (1,)
    p1, m1 = LAT.momentum(1), LAT.momentum(-1)
    with pytest.raises(ValueError, match=r"modes list \(1,\) more than once"):
        enumerate_below(LAT, ZERO, 4.0, 2.0, modes=[p1, m1, p1])
    with pytest.raises(ValueError, match=r"modes list \(1,\) more than once"):
        oracle_enumerate(LAT, ZERO, 4.0, (1,), modes=[p1, m1, p1])
    assert _multisets(enumerate_below(LAT, ZERO, 4.0, 2.0, modes=[p1, m1]), (1,)) == \
        [((1,),), ((-1,), (1,), (1,))]


def test_kth_excitation_semantics():
    table = enumerate_below(LAT, ZERO, 7.5, momentum_window=3.0)
    assert kth_excitation(table, (1,), 3) == 5.0
    assert kth_excitation(table, (1,), 1) == 1.0
    assert kth_excitation(table, (1,), 99) is None
    with pytest.raises(OutOfWindowError):
        kth_excitation(table, (17,), 1)
    with pytest.raises(ValueError):
        kth_excitation(table, (1,), 0)


def test_sector_takes_the_searchs_window_test():
    # h * sqrt(9) = 0.30000000000000004 > 0.3, yet the search keeps sector
    # (3,) by its |n|^2 test, widened by 1e-12; sector() makes the same test
    table = enumerate_below(LatticeSpec(2 * math.pi / 0.1, 1), V1, 1.0, 0.3)
    assert (3,) in table.entries and (4,) not in table.entries
    assert kth_excitation(table, (3,), 1) == table.entries[(3,)][0][0]
    assert kth_excitation(table, (-3,), 1) == table.entries[(-3,)][0][0]
    with pytest.raises(OutOfWindowError):
        kth_excitation(table, (4,), 1)
    with pytest.raises(ValueError, match="expected 1 integer coordinates"):
        table.sector((1, 0))


def test_sector_rejects_a_coordinate_that_is_not_an_integer():
    # int() would read (1.5,) as sector (1,) and (-0.9,) as the zero sector
    table = enumerate_below(LAT, ZERO, 7.5, momentum_window=3.0)
    for c in (1.5, -0.9, math.inf, math.nan):
        with pytest.raises(ValueError, match=f"momentum coordinate {c!r} is not an integer"):
            kth_excitation(table, (c,), 1)
        with pytest.raises(ValueError, match="is not an integer"):
            table.sector((c,))
    assert kth_excitation(table, (1.0,), 1) == kth_excitation(table, (1,), 1) == 1.0
    assert table.sector((-2.0,)) == table.sector((-2,)) == table.sectors[(-2,)]


@pytest.mark.parametrize("key, message", [
    ((1.5,), "momentum coordinate 1.5 is not an integer"),
    ((-0.9,), "momentum coordinate -0.9 is not an integer"),
    (("1",), "momentum coordinate '1' is not an integer"),
    ((1, 0), r"expected 1 integer coordinates, got \(1, 0\)"),
])
def test_oracle_keys_its_sector_as_the_table_does(key, message):
    # int() would read (1.5,) as sector (1,), and a key of another
    # dimension would match no total and list nothing
    table = enumerate_below(LAT, V1, 3.0, momentum_window=2.0)
    for lookup in (table.sector, lambda k: oracle_enumerate(LAT, V1, 3.0, k)):
        with pytest.raises(ValueError, match=f"^{message}$"):
            lookup(key)
    assert oracle_enumerate(LAT, V1, 3.0, (1.0,)) == oracle_enumerate(LAT, V1, 3.0, (1,))
    assert oracle_enumerate(LAT, V1, 3.0, [-1]) == oracle_enumerate(LAT, V1, 3.0, LAT.momentum(-1))


def test_record_invariants():
    table = enumerate_below(LAT, V1, 3.0, momentum_window=2.0)
    for key, recs in table.sectors.items():
        energies = [r.energy for r in recs]
        assert energies == sorted(energies)
        for r in recs:
            total = tuple(sum(c) for c in zip(*(m.n for m in r.constituents)))
            assert total == key
            assert r.n_quasi == len(r.constituents)
            assert all(not m.is_zero for m in r.constituents)
            s = math.fsum(dispersion(m, V1) for m in r.constituents)
            assert r.energy == pytest.approx(s, abs=1e-12)


def test_records_are_built_once_from_the_ranked_entries():
    table = enumerate_below(LatticeSpec(12.0, 2), Potential.gaussian(0.1, 5.0, 2), 3.0, 2.0)
    assert "sectors" not in vars(table)  # built on first read, not by the search
    sectors = table.sectors
    assert table.sectors is sectors
    assert sectors.keys() == table.entries.keys()
    assert any(c < 0 for key in sectors for c in key)
    for key, recs in sectors.items():
        entries = table.entries[key]
        assert entries == sorted(entries)
        assert [r.rank for r in recs] == list(range(1, len(recs) + 1))
        for r, (energy, n_quasi, code, text) in zip(recs, entries, strict=True):
            enc = tuple(map(ord, code))
            assert (r.total_momentum.n, r.energy, r.n_quasi) == (key, energy, n_quasi)
            assert r.constituents == tuple(table.candidates[i] for i in enc)
            assert all(m is table.candidates[i] for m, i in zip(r.constituents, enc))
            assert enc == tuple(table.candidates.index(m) for m in r.constituents)
            assert text == ";".join(" ".join(map(str, m.n)) for m in r.constituents)
    with pytest.raises(TypeError):
        excitations.SpectrumTable(table.lattice, table.pot, 3.0, 2.0, sectors=sectors)


@pytest.mark.parametrize("case", ["1d", "2d", "3d", "modes", "free-ties"])
def test_entry_text_is_the_join_of_its_constituents(case):
    lat2, lat3 = LatticeSpec(12.0, 2), LatticeSpec(8.0, 3)
    table = {
        "1d": lambda: enumerate_below(LAT_1D_SPECTRUM, V1, 1.2, 3.0),
        "2d": lambda: enumerate_below(lat2, Potential.gaussian(0.1, 5.0, 2), 3.0, 2.0),
        "3d": lambda: enumerate_below(lat3, Potential.gaussian(0.1, 5.0, 3), 4.0, 1.5),
        "modes": lambda: enumerate_below(
            lat2, Potential.gaussian(0.1, 5.0, 2), 6.0, 3.0,
            modes=[lat2.momentum(n) for n in [(2, -1), (0, 1), (-1, 0), (1, 1), (0, -1)]],
        ),
        "free-ties": lambda: enumerate_below(LAT, ZERO, 7.5, 3.0),
    }[case]()
    rows = 0
    for key, recs in table.sectors.items():
        for r, (_, _, _, text) in zip(recs, table.entries[key], strict=True):
            assert text == ";".join(" ".join(map(str, m.n)) for m in r.constituents)
            rows += 1
    assert rows > 20 and any(r.n_quasi >= 3 for recs in table.sectors.values() for r in recs)


def test_canonicality_no_duplicate_multisets():
    table = enumerate_below(LAT, ZERO, 7.5, momentum_window=3.0)
    for key in table.sectors:
        ms = _multisets(table, key)
        assert len(ms) == len(set(ms))


def test_downward_closure():
    table = enumerate_below(LAT, ZERO, 7.5, momentum_window=10.0)
    all_sets = {key: set(_multisets(table, key)) for key in table.sectors}
    for key, recs in table.sectors.items():
        for r in recs:
            cons = tuple(m.n for m in r.constituents)
            if len(cons) == 1:
                continue
            for i in range(len(cons)):
                sub = cons[:i] + cons[i + 1 :]
                sub_total = tuple(sum(c) for c in zip(*sub))
                assert sub in all_sets[sub_total]


def test_monotone_cutoff_prefix():
    small = enumerate_below(LAT, ZERO, 5.5, momentum_window=3.0)
    large = enumerate_below(LAT, ZERO, 7.5, momentum_window=3.0)
    for key, recs in small.sectors.items():
        big = large.sectors[key]
        for j, r in enumerate(recs):
            assert big[j].energy == r.energy
            assert [m.n for m in big[j].constituents] == [m.n for m in r.constituents]
            assert big[j].rank == r.rank


@settings(max_examples=30, deadline=None)
@given(st.floats(0.0, 6.0), st.floats(0.0, 6.0))
def test_monotone_cutoff_property(k1, k2):
    lo, hi = sorted((k1, k2))
    small = enumerate_below(LAT, ZERO, lo, momentum_window=2.0)
    large = enumerate_below(LAT, ZERO, hi, momentum_window=2.0)
    for key, recs in small.sectors.items():
        assert [r.energy for r in recs] == [
            r.energy for r in large.sectors[key][: len(recs)]
        ]


def test_oracle_matches_main_free():
    # kappa 4 is exactly the dispersion at n = 2, so (4.0, [(2,)]) is kept
    for kappa in (7.5, 4.0):
        table = enumerate_below(LAT, ZERO, kappa, momentum_window=3.0)
        for key in ((0,), (1,), (2,), (-3,)):
            main = [
                (r.energy, tuple(m.n for m in r.constituents))
                for r in table.sectors.get(key, [])
            ]
            assert oracle_enumerate(LAT, ZERO, kappa, key) == main
    assert (4.0, ((2,),)) in oracle_enumerate(LAT, ZERO, 4.0, (2,))


def test_oracle_matches_main_interacting():
    table = enumerate_below(LAT, V1, 3.0, momentum_window=2.0)
    for key in ((0,), (1,)):
        main = [
            (r.energy, tuple(m.n for m in r.constituents))
            for r in table.sectors.get(key, [])
        ]
        oracle = oracle_enumerate(LAT, V1, 3.0, key)
        assert [o[1] for o in oracle] == [m[1] for m in main]
        for (eo, _), (em, _) in zip(oracle, main):
            assert em == pytest.approx(eo, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.floats(2 * math.pi, 4 * math.pi), st.floats(0.0, 0.5), st.floats(0.05, 1.0))
def test_oracle_matches_main_property(L, amplitude, frac):
    # kappa <= 8 e(2 pi / L) keeps the oracle's multiset-size guard
    lat = LatticeSpec(L, 1)
    pot = Potential.gaussian(amplitude, 5.0, 1)
    kappa = frac * 8.0 * dispersion(lat.momentum(1), pot)
    table = enumerate_below(lat, pot, kappa, momentum_window=5 * lat.spacing)
    for key in ((0,), (1,), (-2,), (3,)):
        main = [
            (r.energy, tuple(m.n for m in r.constituents))
            for r in table.sectors.get(key, [])
        ]
        assert oracle_enumerate(lat, pot, kappa, key) == main


def test_oracle_matches_main_2d():
    lat2 = LatticeSpec(2 * math.pi, 2)
    z2 = Potential.zero(2)
    table = enumerate_below(lat2, z2, 4.5, momentum_window=2.0)
    for key in ((0, 0), (1, 0), (1, 1)):
        main = [
            (r.energy, tuple(m.n for m in r.constituents))
            for r in table.sectors.get(key, [])
        ]
        assert oracle_enumerate(lat2, z2, 4.5, key) == main


@pytest.mark.parametrize("pot", [Potential.zero(3), Potential.gaussian(0.1, 5.0, 3)],
                         ids=["free", "gaussian"])
def test_oracle_matches_main_3d(pot):
    lat3 = LatticeSpec(2 * math.pi, 3)
    table = enumerate_below(lat3, pot, 3.0, momentum_window=2.5)
    for key in ((0, 0, 0), (1, 0, 0), (0, -1, 1), (1, 1, 1), (2, 0, 0), (-1, 2, 0), (0, 0, -2)):
        main = [
            (r.energy, tuple(m.n for m in r.constituents))
            for r in table.sectors.get(key, [])
        ]
        assert oracle_enumerate(lat3, pot, 3.0, key) == main


def test_oracle_matches_main_at_the_extreme_totals():
    # the eight corners (+-1, +-1, +-1), of energy about 3, below kappa
    # 21.5: seven constituents at the largest coordinate sum to the
    # farthest totals the search reaches, such as (7, 7, 7), and the
    # window holds them
    lat3, z3 = LatticeSpec(2 * math.pi, 3), Potential.zero(3)
    corners = [lat3.momentum(n) for n in itertools.product((-1, 1), repeat=3)]
    table = enumerate_below(lat3, z3, 21.5, momentum_window=12.5, modes=corners)
    assert table.sectors[(7, 7, 7)][0].constituents == (lat3.momentum(1, 1, 1),) * 7
    for key in ((7, 7, 7), (-7, -7, -7), (7, -7, 7), (6, 6, 6), (0, 0, 0), (1, -1, 1)):
        main = [
            (r.energy, tuple(m.n for m in r.constituents))
            for r in table.sectors.get(key, [])
        ]
        assert main and oracle_enumerate(lat3, z3, 21.5, key, modes=corners) == main


def test_oracle_guards():
    with pytest.raises(ValueError):
        oracle_enumerate(LAT, ZERO, 9.0, (1,))  # size bound 9 > 8
    with pytest.raises(ValueError):
        oracle_enumerate(LAT, ZERO, 40.0, (1,))  # shells beyond |n|=5
    with pytest.raises(ValueError):
        # 20 candidates, sizes <= 9: about 1e7 multisets
        oracle_enumerate(LatticeSpec(2 * math.pi, 2), Potential.zero(2), 8.0, (1, 0))


def test_oracle_empty_at_zero_cutoff():
    assert oracle_enumerate(LAT, ZERO, 0.0, (1,)) == []


def test_budget_counts_every_multiset_formed(monkeypatch):
    # candidates -1, 1 below kappa 2; each multiset below kappa, the empty
    # one included, is extended by every candidate from its last one on:
    # {} by 2, {-1} by 2, {1} by 1, {-1,-1} by 2, {-1,1} by 1, {1,1} by 1
    monkeypatch.setattr(excitations, "MAX_MULTISETS", 9)
    assert len(enumerate_below(LAT, ZERO, 2.0, 2.0).sectors[(0,)]) == 1
    monkeypatch.setattr(excitations, "MAX_MULTISETS", 8)
    with pytest.raises(EnumerationBudgetError, match="kappa 2 exceeds the cap of 8 multisets"):
        enumerate_below(LAT, ZERO, 2.0, 2.0)


def test_budget_count_is_exact_with_leaf_pruning(monkeypatch):
    # counted independently of the search: each multiset below kappa, the
    # empty one included, is charged every candidate from the index of its
    # last constituent on; leaves, whose extensions are never formed, too
    cand = [dispersion(LAT.momentum(n), ZERO) for n in (-2, -1, 1, 2)]  # those <= 5.5
    formed = len(cand)
    for size in itertools.count(1):
        below = 0
        for combo in itertools.combinations_with_replacement(range(len(cand)), size):
            energy = 0.0
            for i in combo:
                energy += cand[i]
            if energy <= 5.5:
                below += 1
                formed += len(cand) - combo[-1]
        if not below:
            break
    monkeypatch.setattr(excitations, "MAX_MULTISETS", formed)
    enumerate_below(LAT, ZERO, 5.5, 2.0)
    monkeypatch.setattr(excitations, "MAX_MULTISETS", formed - 1)
    with pytest.raises(EnumerationBudgetError):
        enumerate_below(LAT, ZERO, 5.5, 2.0)


def _charge(energies, kappa):
    """The search's charge, counted apart from it: n, and n - i for every
    multiset below kappa whose last index is i, each summed left to right
    in index order."""
    n = len(energies)
    charge = n
    for size in itertools.count(1):
        below = 0
        for combo in itertools.combinations_with_replacement(range(n), size):
            energy = 0.0
            for i in combo:
                energy += energies[i]
            if energy <= kappa:
                below += 1
                charge += n - combo[-1]
        if not below:
            return charge


@pytest.mark.parametrize("lattice, pot, kappa, reverse", [
    (LAT_1D_SPECTRUM, V1, 0.5, False),
    (LatticeSpec(2 * math.pi, 2), Potential.zero(2), 4.5, False),
    (LAT, V1, 5.0, True),
], ids=["1d-gaussian", "2d-zero", "reversed-modes"])
def test_budget_charge_does_not_depend_on_visiting_order(monkeypatch, lattice, pot, kappa,
                                                         reverse):
    # the search visits each node's children cheapest first; the charge
    # is the one of index order, on candidates listed here from the cube
    cube = itertools.product(range(-5, 6), repeat=lattice.d)
    points = [lattice.momentum(nv) for nv in cube if any(nv)]
    energies = [e for e in (dispersion(p, pot) for p in points) if e <= kappa]
    assert energies != sorted(energies)  # cheapest-first is not index order
    charge = _charge(energies, kappa)
    modes = points[::-1] if reverse else None
    monkeypatch.setattr(excitations, "MAX_MULTISETS", charge)
    enumerate_below(lattice, pot, kappa, 2.0, modes)
    monkeypatch.setattr(excitations, "MAX_MULTISETS", charge - 1)
    with pytest.raises(EnumerationBudgetError):
        enumerate_below(lattice, pot, kappa, 2.0, modes)


def test_budget_refuses_up_front_where_the_candidates_alone_pass_the_cap(monkeypatch):
    # the empty multiset forms all n candidates and candidate i is charged
    # n - i: n + n(n+1)/2 is a floor of the search's charge, refused before
    # the search builds its momentum code
    codes = []

    def counting_code(*args):
        codes.append(args)
        return MomentumCode(*args)

    monkeypatch.setattr(excitations, "MomentumCode", counting_code)
    lat2 = LatticeSpec(2 * math.pi, 2)
    # the first two charge exactly the floor (every candidate is a leaf);
    # kappa 2 on LAT forms {-1,-1}, {-1,1} and {1,1} too, 9 against a floor of 5
    for lat, pot, kappa, n, charge in [(LAT, ZERO, 1.5, 2, 5),
                                       (lat2, Potential.zero(2), 1.5, 4, 14),
                                       (LAT, ZERO, 2.0, 2, 9)]:
        floor = n + n * (n + 1) // 2
        monkeypatch.setattr(excitations, "MAX_MULTISETS", charge)
        enumerate_below(lat, pot, kappa, 2.0)
        assert len(codes) == 1
        for cap in range(floor, charge):  # the search's own refusal
            monkeypatch.setattr(excitations, "MAX_MULTISETS", cap)
            with pytest.raises(EnumerationBudgetError):
                enumerate_below(lat, pot, kappa, 2.0)
        assert len(codes) == 1 + charge - floor
        monkeypatch.setattr(excitations, "MAX_MULTISETS", floor - 1)
        with pytest.raises(EnumerationBudgetError, match=f"cap of {floor - 1} multisets"):
            enumerate_below(lat, pot, kappa, 2.0)
        assert len(codes) == 1 + charge - floor
        codes.clear()


def test_budget_checks_candidates_before_allocating(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("lattice_points allocated the candidates")

    monkeypatch.setattr(excitations, "lattice_points", unreachable)
    # a 319^3 coordinate cube at L = 10, kappa 1e4; near the largest float
    # the ball's squared norms would overflow math.sqrt
    for kappa in (1e4, 1.7e308):
        with pytest.raises(EnumerationBudgetError) as err:
            enumerate_below(LatticeSpec(10.0, 3), Potential.gaussian(0.1, 5.0, 3), kappa, 1.0)
        assert err.value.kappa == kappa and isinstance(err.value, ValueError)
    # sqrt(kappa) / spacing overflows to inf: over the cap before m is formed
    with pytest.raises(EnumerationBudgetError):
        enumerate_below(LatticeSpec(1e300, 1), V1, 1e300, 1.0)


def test_budget_refuses_a_candidate_of_zero_energy():
    # at L = 1e300 the free dispersion |p|^2 of n = 1 underflows to 0, so
    # its repeats stay below any kappa and no count bounds the multisets
    lat = LatticeSpec(1e300, 1)
    assert dispersion(lat.momentum(1), ZERO) == 0.0
    with pytest.raises(EnumerationBudgetError):
        enumerate_below(lat, ZERO, 1.0, 1.0, modes=[lat.momentum(1)])


def test_budget_admits_the_1d_spectrum_at_kappa_2_4():
    # 2,188,263 multisets formed; window 0 keeps only the zero sector's records
    table = enumerate_below(LAT_1D_SPECTRUM, V1, 2.4, 0.0)
    assert list(table.sectors) == [(0,)]


def test_constituents_may_leave_window():
    # {2, -1} lands in sector 1 although |2| exceeds the window
    table = enumerate_below(LAT, ZERO, 5.5, momentum_window=1.0)
    assert ((-1,), (2,)) in _multisets(table, (1,))
    assert (2,) not in table.sectors


def test_classify_rows(capsys):
    rows = _figure_rows(capsys, LAT, "gaussian:0:1", 5.5, 2.0)
    by_class = Counter(cls for *_, cls in rows)
    assert set(by_class) == {"1qp", "2qp", "3qp+"}
    one_qp = [r for r in rows if r[0] == (1,) and r[3] == "1qp"]
    assert len(one_qp) == 1 and one_qp[0][1] == 1.0
    for _, _, n_quasi, cls in rows:
        assert cls == {1: "1qp", 2: "2qp"}.get(n_quasi, "3qp+")


def test_damping_free_case():
    table = enumerate_below(LAT, ZERO, 6.5, momentum_window=2.0)
    rows = {r.sector: r for r in damping_scan(table)}
    assert rows[(2,)].unstable is True
    assert rows[(2,)].min_multi_energy == 2.0
    assert rows[(1,)].unstable is False
    assert rows[(1,)].min_multi_energy == 3.0


def test_damping_undetermined_when_kappa_small():
    # kappa below dispersion(2) = 4 and below any 2qp in that sector
    table = enumerate_below(LAT, ZERO, 1.5, momentum_window=2.0)
    rows = {r.sector: r for r in damping_scan(table)}
    assert rows[(2,)].unstable is None
    assert rows[(1,)].unstable is False


def test_damping_weak_gaussian_low_momentum_unstable():
    table = enumerate_below(LAT_015, V1, 0.5, momentum_window=0.5)
    rows = {r.sector: r for r in damping_scan(table)}
    unstable = [k for k, r in rows.items() if r.unstable]
    assert (2,) in unstable
    assert rows[(1,)].unstable is False


def _first_max_then_min(values):
    """Index pair (i, j), i < j, of a strict local max followed by a min."""
    imax = None
    for i in range(1, len(values) - 1):
        if imax is None and values[i] > values[i - 1] and values[i] > values[i + 1]:
            imax = i
        elif imax is not None and values[i] < values[i - 1] and values[i] < values[i + 1]:
            return imax, i
    return None


def test_strong_coupling_maxon_roton():
    # ten times the weak figure amplitude: the dispersion develops a
    # maxon/roton pair, resolvable on the 0.15-spaced lattice
    strong = Potential.gaussian(75.0, 2.0, 1)
    curve = [dispersion(LAT_015.momentum(n), strong) for n in range(1, 41)]
    hit = _first_max_then_min(curve)
    assert hit is not None
    imax, imin = hit
    assert curve[imax] > curve[imin]


def test_weak_figure_potential_sectors_sorted(capsys):
    rows = _figure_rows(capsys, LAT_015, "gaussian:0.1:5", 0.4, 0.4)
    keys = [r[0] for r in rows]
    assert len(set(keys)) > 1
    assert keys == sorted(keys, key=lambda k: (sum(c * c for c in k), k))
