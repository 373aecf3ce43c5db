"""Basis construction, operator assembly, eigensolvers, many-body gaps."""

import gc
import itertools
import json
import math
import random
import time
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from bogospec import fock_ed
from bogospec.excitations import enumerate_below
from bogospec.fock_ed import (
    BasisSizeError,
    EDConfig,
    GroundSectorError,
    assemble_bogoliubov_quadratic,
    assemble_estimating,
    assemble_excited_count,
    assemble_hamiltonian,
    assemble_kinetic,
    build_basis,
    default_max_excited,
    lowest_eigenvalues,
    many_body_excitations,
    sector_basis,
)
from bogospec.model import LatticeSpec, Momentum, Potential, PotentialRangeError, periodized_value

LAT = LatticeSpec(2 * math.pi, 1)
V1 = Potential.gaussian(0.1, 5.0, 1)
ZERO = Potential.zero(1)
# interaction carried by the zero mode only: vhat(0) = 0.3, vhat = 0 at
# every other lattice point and every transfer
K0_POT = Potential.table([(0.0, 0.3), (0.5, 0.0), (8.0, 0.0)])

PAIR_GROUND_SHIFT = -(2.0 - math.sqrt(3.0))


def _vhat1(r: float) -> float:
    return 0.1 * math.exp(-r * r / 5.0)


def test_build_basis_stars_and_bars():
    cfg = EDConfig(3, LAT, V1, mode_radius=1.0)
    basis = build_basis(cfg)
    assert sum(len(v) for v in basis.values()) == 10  # C(5, 2)
    assert basis[(0,)] == [(0, 3, 0), (1, 1, 1)]


def test_build_basis_max_excited_zero():
    cfg = EDConfig(5, LAT, V1, mode_radius=2.0, max_excited=0)
    basis = build_basis(cfg)
    assert list(basis) == [(0,)]
    assert basis[(0,)] == [(0, 0, 5, 0, 0)]


def _compositions(total, parts):
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _reference_basis(cfg):
    """Every sector, by compositions of each excited count over the excited modes."""
    modes = cfg.modes()
    zero_idx = next(i for i, m in enumerate(modes) if m.is_zero)
    excited = [i for i in range(len(modes)) if i != zero_idx]
    sectors = {}
    for m_exc in range(cfg.effective_max_excited + 1):
        for comp in _compositions(m_exc, len(excited)):
            occ = [0] * len(modes)
            for idx, c in zip(excited, comp):
                occ[idx] = c
            occ[zero_idx] = cfg.n_particles - m_exc
            total = tuple(
                sum(occ[i] * modes[i].n[k] for i in range(len(modes)))
                for k in range(cfg.lattice.d)
            )
            sectors.setdefault(total, []).append(tuple(occ))
    for key in sectors:
        sectors[key].sort()
    return sectors


@pytest.mark.parametrize("cfg", [
    EDConfig(5, LAT, V1, mode_radius=2.0, max_excited=4),
    EDConfig(6, LAT, V1, mode_radius=3.0),
    EDConfig(5, LAT, V1, mode_radius=2.0, max_excited=0),
    EDConfig(3, LAT, V1, mode_radius=0.0),
    EDConfig(3, LAT, V1, mode_radius=0.0, max_excited=-1),
    EDConfig(6, LatticeSpec(2 * math.pi, 2), Potential.gaussian(0.1, 5.0, 2), mode_radius=1.5),
    EDConfig(5, LatticeSpec(2 * math.pi, 2), Potential.gaussian(0.1, 5.0, 2), mode_radius=2.0,
             max_excited=4),
    EDConfig(4, LatticeSpec(2 * math.pi, 3), Potential.gaussian(0.1, 5.0, 3), mode_radius=1.5,
             max_excited=3),
    EDConfig(4, LatticeSpec(2 * math.pi, 3), Potential.gaussian(0.1, 5.0, 3), mode_radius=1.0),
    EDConfig(3, LatticeSpec(2 * math.pi, 3), Potential.gaussian(0.1, 5.0, 3), mode_radius=1.5,
             max_excited=0),
])
def test_build_basis_matches_reference(cfg):
    ref = _reference_basis(cfg)
    assert build_basis(cfg) == ref
    d = cfg.lattice.d
    zero, one, far = (0,) * d, (1,) + (0,) * (d - 1), (99,) * d
    # each reachable sector on its own, then a request with repeats and an
    # unreachable key, in request order
    for key in ref:
        assert build_basis(cfg, [key]) == {key: ref[key]}
    wanted = [one, zero, far, one, list(zero)]
    got = build_basis(cfg, wanted)
    assert list(got) == [one, zero, far]
    for key in got:
        assert got[key] == ref.get(key, [])
    assert build_basis(cfg, [far]) == {far: []}
    assert build_basis(cfg, [zero + (0,)]) == {zero + (0,): []}  # wrong dimension
    assert build_basis(cfg, []) == {}


@pytest.mark.parametrize("d, n, radius", [(1, 5, 2.0), (2, 4, 1.5), (3, 3, 1.5)])
def test_build_basis_requests_match_reference(d, n, radius):
    # every cap from 0 to N; seeded requests of 1-3 keys drawn from the box
    # the old per-coordinate interval test admitted, so most are unreachable
    # though in that box, plus a fixed request with a repeated key, an
    # unreachable key and keys whose fewest excited particles is the cap
    rng = random.Random(20261018 + d)
    lattice = LatticeSpec(2 * math.pi, d)
    pot = Potential.gaussian(0.1, 5.0, d)
    for cap in range(n + 1):
        cfg = EDConfig(n, lattice, pot, mode_radius=radius, max_excited=cap)
        ref = _reference_basis(cfg)
        zero_idx = cfg.modes().index(lattice.zero)
        fewest = {k: n - max(s[zero_idx] for s in v) for k, v in ref.items()}
        at_cap = [k for k in ref if fewest[k] == cap]
        assert at_cap
        reach = cap * max(max(map(abs, m.n)) for m in cfg.modes())
        box = range(-reach - 1, reach + 2)
        requests = [at_cap[:2] + [(99,) * d, at_cap[0]]]
        for _ in range(12):
            keys = [tuple(rng.choice(box) for _ in range(d)) for _ in range(rng.randint(1, 3))]
            requests.append(keys + [keys[0]] * rng.randint(0, 1))
        for keys in requests:
            got = build_basis(cfg, keys)
            assert list(got) == list(dict.fromkeys(keys))
            assert got == {k: ref.get(k, []) for k in keys}


def test_build_basis_cap_error_two_keys_2d(monkeypatch):
    lattice = LatticeSpec(2 * math.pi, 2)
    pot = Potential.gaussian(0.1, 5.0, 2)
    for basis_cap, keys, sector, suggestion in [
        (10, [(0, 0), (1, 1)], (1, 1), 3),
        (20, [(1, -1), (2, 0)], (2, 0), 4),
    ]:
        monkeypatch.setattr(fock_ed, "MAX_BASIS_STATES", basis_cap)
        cfg = EDConfig(6, lattice, pot, mode_radius=1.5, max_excited=6)
        with pytest.raises(BasisSizeError) as err:
            build_basis(cfg, keys)
        assert (err.value.sector, err.value.size, err.value.suggestion) == (
            sector, basis_cap + 1, suggestion)


def test_sector_basis_keeps_a_given_basis_or_builds_one():
    cfg = EDConfig(4, LAT, V1, mode_radius=2.0, max_excited=4)
    given = [(4, 0, 0, 0, 0)]
    assert sector_basis(cfg, [0.0], given) == ((0,), given)
    assert sector_basis(cfg, (0,), given)[1] is given
    for sector in ((0,), (1,), (-2,), (99,)):
        assert sector_basis(cfg, sector) == (sector, build_basis(cfg, [sector])[sector])


def test_build_basis_cap_error(monkeypatch):
    monkeypatch.setattr(fock_ed, "MAX_BASIS_STATES", 5)

    def cfg(max_excited):
        return EDConfig(8, LAT, V1, mode_radius=2.0, max_excited=max_excited)

    with pytest.raises(BasisSizeError) as err:
        build_basis(cfg(8))
    suggestion = err.value.suggestion
    assert suggestion == 3
    # the suggestion is the largest cap that builds under the same basis cap
    build_basis(cfg(suggestion))
    with pytest.raises(BasisSizeError):
        build_basis(cfg(suggestion + 1))
    # both sectors overflow; the one named is the first the walk overfills,
    # giving each mode 0, 1, ... particles in turn
    with pytest.raises(BasisSizeError) as err:
        build_basis(cfg(8), [(0,), (1,)])
    assert err.value.sector == (1,)


def test_build_basis_cap_counts_requested_sectors_only(monkeypatch):
    # at max_excited 8, sector (6,) has 21 states and sector (0,) has 33
    monkeypatch.setattr(fock_ed, "MAX_BASIS_STATES", 21)
    cfg = EDConfig(8, LAT, V1, mode_radius=2.0, max_excited=8)
    assert len(build_basis(cfg, [(6,)])[(6,)]) == 21
    with pytest.raises(BasisSizeError):
        build_basis(cfg)
    with pytest.raises(BasisSizeError) as err:
        build_basis(cfg, [(6,), (0,)])
    assert err.value.sector == (0,)
    assert err.value.size == 22
    suggestion = err.value.suggestion
    assert suggestion == 6
    small = EDConfig(8, LAT, V1, mode_radius=2.0, max_excited=suggestion)
    build_basis(small, [(6,), (0,)])
    larger = EDConfig(8, LAT, V1, mode_radius=2.0, max_excited=suggestion + 1)
    with pytest.raises(BasisSizeError):
        build_basis(larger, [(6,), (0,)])


def test_build_basis_cap_error_on_a_huge_sector_builds_no_sector(monkeypatch):
    # sector 0 here holds 8,908,546 states; a full build would hold them
    # all.  The error names the sector, size and suggestion of the
    # depth-first walk that stops at its first overflow.  With sectors=None
    # a cut of (2 * span + 1)^d * MAX_BASIS_STATES + 1 nodes a level peaked at 74 MB
    monkeypatch.setattr(fock_ed, "MAX_BASIS_STATES", 1000)
    cfg = EDConfig(64, LAT, V1, mode_radius=8.0, max_excited=16)
    for keys, sector in (([(0,)], (0,)), ([(3,), (0,), (-5,)], (3,)), (None, (84,))):
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(BasisSizeError) as err:
                build_basis(cfg, keys)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (err.value.sector, err.value.size, err.value.suggestion) == (sector, 1001, 5)
        assert str(err.value) == (f"sector {sector} basis has 1001 states (cap 1000); "
                                  "try max_excited <= 5")
        assert elapsed < 1.0
        assert peak < 20e6


def test_build_basis_leaves_no_reference_cycle(monkeypatch):
    # garbage the cyclic collector would have to free, after full walks,
    # sector walks and an overflow with its bisected suggestion
    cfg = EDConfig(4, LAT, V1, mode_radius=2.0)
    over = EDConfig(8, LAT, V1, mode_radius=2.0, max_excited=8)
    most = fock_ed.MAX_BASIS_STATES
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            monkeypatch.setattr(fock_ed, "MAX_BASIS_STATES", most)
            build_basis(cfg)
            build_basis(cfg, [(0,), (1,)])
            monkeypatch.setattr(fock_ed, "MAX_BASIS_STATES", 5)  # over overflows
            try:
                build_basis(over, [(0,)])
            except BasisSizeError:
                pass
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_default_max_excited():
    assert default_max_excited(4) == 4
    assert default_max_excited(50) == 8


def test_hand_derived_two_state_sector():
    cfg = EDConfig(2, LAT, V1, mode_radius=1.0)
    m = assemble_hamiltonian(cfg, (0,))
    assert m.basis == [(0, 2, 0), (1, 0, 1)]
    expected = np.array(
        [
            [_vhat1(0) / 2, _vhat1(1) / math.sqrt(2)],
            [_vhat1(1) / math.sqrt(2), 2 + (_vhat1(0) + _vhat1(2)) / 2],
        ]
    )
    assert np.abs(m.matrix.toarray() - expected).max() < 1e-13


def _reference_hamiltonian(cfg, states):
    """Slow per-state assembly of H: loop over states, then (p, q, t2)."""
    modes = cfg.modes()
    nmode = len(modes)
    index = {s: i for i, s in enumerate(states)}
    norm2 = [m.norm2 for m in modes]
    mode_n = [m.n for m in modes]
    mode_of = {m.n: i for i, m in enumerate(modes)}
    inv2n = 1.0 / (2.0 * cfg.n_particles)
    entries = {}
    for i, s in enumerate(states):
        kin = math.fsum(norm2[m] * s[m] for m in range(nmode) if s[m])
        entries[(i, i)] = entries.get((i, i), 0.0) + kin
        for p_i in (m for m in range(nmode) if s[m]):
            amp_p = math.sqrt(s[p_i])
            s1 = list(s)
            s1[p_i] -= 1
            for q_i in range(nmode):
                if not s1[q_i]:
                    continue
                amp_q = amp_p * math.sqrt(s1[q_i])
                for t2_i in range(nmode):
                    t1_n = tuple(
                        a + b - c for a, b, c in zip(mode_n[p_i], mode_n[q_i], mode_n[t2_i])
                    )
                    t1_i = mode_of.get(t1_n)
                    if t1_i is None:
                        continue
                    kvec = tuple(a - b for a, b in zip(mode_n[t2_i], mode_n[p_i]))
                    v = cfg.pot.vhat_radial(Momentum(kvec, cfg.lattice.L).norm)
                    if v == 0.0:
                        continue
                    s3 = list(s1)
                    s3[q_i] -= 1
                    amp = amp_q * math.sqrt(s3[t1_i] + 1)
                    s3[t1_i] += 1
                    amp *= math.sqrt(s3[t2_i] + 1)
                    s3[t2_i] += 1
                    j = index.get(tuple(s3))
                    if j is None:
                        continue
                    entries[(j, i)] = entries.get((j, i), 0.0) + inv2n * v * amp
    return _reference_csr(entries, len(states))


def _reference_estimating(cfg, states, eps, sign):
    """Slow per-state assembly of H_{N,sign*eps}: loop over states, then modes."""
    modes = cfg.modes()
    nmode = len(modes)
    index = {s: i for i, s in enumerate(states)}
    zero_idx = next(i for i, m in enumerate(modes) if m.is_zero)
    norm2 = [m.norm2 for m in modes]
    vhat_m = [cfg.pot.vhat_radial(m.norm) for m in modes]
    neg_of = {i: next(j for j, mm in enumerate(modes) if mm.n == tuple(-c for c in modes[i].n))
              for i in range(nmode)}
    n_part = cfg.n_particles
    v0hat = cfg.pot.vhat_radial(0.0)
    v0real = periodized_value(cfg.pot, cfg.lattice, (0.0,) * cfg.lattice.d)
    eps_signed = sign * eps
    coef_last = (1.0 + 1.0 / eps_signed) * v0real * cfg.lattice.volume / (2.0 * n_part)
    const = 0.5 * v0hat * (n_part - 1)
    entries = {}
    for i, s in enumerate(states):
        n0 = s[zero_idx]
        ngt = n_part - n0
        diag = const
        diag += math.fsum(
            (norm2[m] + vhat_m[m]) * s[m] for m in range(nmode) if m != zero_idx and s[m]
        )
        diag -= (
            math.fsum(
                (vhat_m[m] + 0.5 * v0hat) * s[m]
                for m in range(nmode)
                if m != zero_idx and s[m]
            )
            * ngt
            / n_part
        )
        diag += 0.5 * v0hat * ngt / n_part
        diag += (
            eps_signed
            / n_part
            * n0
            * math.fsum(
                (vhat_m[m] + v0hat) * s[m] for m in range(nmode) if m != zero_idx and s[m]
            )
        )
        diag += coef_last * ngt * (ngt - 1)
        entries[(i, i)] = entries.get((i, i), 0.0) + diag
        for m in range(nmode):
            if m == zero_idx or vhat_m[m] == 0.0:
                continue
            mm = neg_of[m]
            if s[m] and (s[mm] - (1 if mm == m else 0)) > 0:
                t = list(s)
                amp = math.sqrt(t[m])
                t[m] -= 1
                amp *= math.sqrt(t[mm])
                t[mm] -= 1
                amp *= math.sqrt(t[zero_idx] + 1)
                t[zero_idx] += 1
                amp *= math.sqrt(t[zero_idx] + 1)
                t[zero_idx] += 1
                j = index.get(tuple(t))
                if j is not None:
                    entries[(j, i)] = entries.get((j, i), 0.0) + vhat_m[m] * amp / (
                        2.0 * n_part
                    )
            if s[zero_idx] >= 2:
                t = list(s)
                amp = math.sqrt(t[zero_idx])
                t[zero_idx] -= 1
                amp *= math.sqrt(t[zero_idx])
                t[zero_idx] -= 1
                amp *= math.sqrt(t[mm] + 1)
                t[mm] += 1
                amp *= math.sqrt(t[m] + 1)
                t[m] += 1
                j = index.get(tuple(t))
                if j is not None:
                    entries[(j, i)] = entries.get((j, i), 0.0) + vhat_m[m] * amp / (
                        2.0 * n_part
                    )
    return _reference_csr(entries, len(states))


def _reference_kinetic(cfg, states):
    norm2 = [m.norm2 for m in cfg.modes()]
    entries = {
        (i, i): math.fsum(norm2[m] * s[m] for m in range(len(norm2)) if s[m])
        for i, s in enumerate(states)
    }
    return _reference_csr(entries, len(states))


def _reference_excited_count(cfg, states):
    zero_idx = next(i for i, m in enumerate(cfg.modes()) if m.is_zero)
    entries = {(i, i): float(cfg.n_particles - s[zero_idx]) for i, s in enumerate(states)}
    return _reference_csr(entries, len(states))


def _reference_quadratic(modes, pot, max_occupation):
    """Slow per-state assembly of the quadratic Bogoliubov Hamiltonian."""
    modes = sorted(modes, key=lambda m: m.n)
    nmode = len(modes)
    neg_of = {
        i: next(j for j, mm in enumerate(modes) if mm.n == tuple(-c for c in modes[i].n))
        for i in range(nmode)
    }
    diag_w = [m.norm2 + pot.vhat_radial(m.norm) for m in modes]
    vhat_m = [pot.vhat_radial(m.norm) for m in modes]
    states = list(itertools.product(range(max_occupation + 1), repeat=nmode))
    index = {s: i for i, s in enumerate(states)}
    entries = {}
    for i, s in enumerate(states):
        entries[(i, i)] = math.fsum(diag_w[m] * s[m] for m in range(nmode))
        for m in range(nmode):
            if vhat_m[m] == 0.0:
                continue
            mm = neg_of[m]
            if s[mm] and (s[m] - (1 if m == mm else 0)) > 0:
                t = list(s)
                amp = math.sqrt(t[mm])
                t[mm] -= 1
                amp *= math.sqrt(t[m])
                t[m] -= 1
                j = index.get(tuple(t))
                if j is not None:
                    entries[(j, i)] = entries.get((j, i), 0.0) + 0.5 * vhat_m[m] * amp
            t = list(s)
            amp = math.sqrt(t[mm] + 1)
            t[mm] += 1
            amp *= math.sqrt(t[m] + 1)
            t[m] += 1
            j = index.get(tuple(t))
            if j is not None:
                entries[(j, i)] = entries.get((j, i), 0.0) + 0.5 * vhat_m[m] * amp
    return _reference_csr(entries, len(states))


def _reference_csr(entries, dim):
    """CSR matrix of a {(row, col): value} dict, explicit zeros kept."""
    if not entries:
        return sp.csr_matrix((dim, dim))
    keys = sorted(entries)
    rows = np.array([k[0] for k in keys], dtype=np.int64)
    cols = np.array([k[1] for k in keys], dtype=np.int64)
    vals = np.array([entries[k] for k in keys], dtype=np.float64)
    return sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim))


def _assert_same_csr(got, want):
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


# (config, sector) pairs on which every vectorised sector assembly must
# reproduce its per-state loop bit for bit
ORACLE_CASES = [
    # sector 0 holds moves with p == q (two particles leave one mode) and
    # with t1 == t2 (two land in one mode)
    (EDConfig(6, LAT, V1, mode_radius=2.0, max_excited=5), (0,)),
    (EDConfig(6, LAT, V1, mode_radius=2.0, max_excited=5), (1,)),
    (EDConfig(6, LAT, V1, mode_radius=2.0, max_excited=5), (-3,)),
    (EDConfig(32, LAT, V1, mode_radius=4.0, max_excited=4), (0,)),
    # here adding a pair's two diagonal terms in the other order changes
    # the last bit of some diagonal entries
    (EDConfig(9, LatticeSpec(7.3, 1), Potential.gaussian(0.7, 3.0, 1),
              mode_radius=2.0, max_excited=6), (0,)),
    # 2D, 13 modes: a base-(N+1) integer key would need 33^13 > 2^63
    (EDConfig(32, LatticeSpec(2 * math.pi, 2), Potential.gaussian(0.5, 2.0, 2),
              mode_radius=2.0, max_excited=3), (0, 0)),
    (EDConfig(32, LatticeSpec(2 * math.pi, 2), Potential.gaussian(0.5, 2.0, 2),
              mode_radius=2.0, max_excited=3), (1, 1)),
    # compact table: transfers |k| >= 2.5 have v == 0, so some variants
    # of a move drop out and some moves vanish
    (EDConfig(7, LAT, Potential.table([(0.0, 0.3), (1.5, -0.2), (2.5, 0.0)]),
              mode_radius=3.0, max_excited=4), (0,)),
    (EDConfig(7, LAT, Potential.table([(0.0, 0.3), (1.5, -0.2), (2.5, 0.0)]),
              mode_radius=3.0, max_excited=4), (2,)),
    # one state, and no state at all
    (EDConfig(2, LAT, V1, mode_radius=1.0), (2,)),
    (EDConfig(2, LAT, V1, mode_radius=1.0), (9,)),
    # the estimating raising terms of p and -p multiply their roots in
    # another order; here reusing one of them for both changes the bits
    (EDConfig(9, LatticeSpec(7.3, 1), V1, mode_radius=3.0, max_excited=5), (1,)),
    (EDConfig(9, LatticeSpec(7.3, 1), V1, mode_radius=3.0, max_excited=5), (-2,)),
    # 3D, 19 modes, the mode set of the 1,040-state sector CI solves
    (EDConfig(4, LatticeSpec(2 * math.pi, 3), Potential.gaussian(0.1, 5.0, 3),
              mode_radius=1.5), (0, 0, 0)),
    (EDConfig(4, LatticeSpec(2 * math.pi, 3), Potential.gaussian(0.1, 5.0, 3),
              mode_radius=1.5), (1, 0, 0)),
    # 3D, 33 modes: the packed keys need two uint64 words (TWO_WORD_CASES)
    (EDConfig(3, LatticeSpec(2 * math.pi, 3), Potential.gaussian(0.1, 5.0, 3),
              mode_radius=2.0), (0, 0, 0)),
    (EDConfig(3, LatticeSpec(2 * math.pi, 3), Potential.gaussian(0.1, 5.0, 3),
              mode_radius=2.0), (1, 0, 0)),
]
TWO_WORD_CASES = ORACLE_CASES[-2:]


# (eps, sign) of the estimating Hamiltonians checked against the reference
ESTIMATES = [(0.25, 1), (0.25, -1), (0.5, 1), (0.5, -1), (1.0, 1), (1.0, -1), (3.0, 1)]


def _sector_assemblies(cfg):
    """(assemble(sector, states), reference(states)) per sector operator."""
    pairs = [
        (lambda k, s: assemble_hamiltonian(cfg, k, s), lambda s: _reference_hamiltonian(cfg, s)),
        (lambda k, s: assemble_kinetic(cfg, k, s), lambda s: _reference_kinetic(cfg, s)),
        (lambda k, s: assemble_excited_count(cfg, k, s),
         lambda s: _reference_excited_count(cfg, s)),
    ]
    for eps, sign in ESTIMATES:
        pairs.append((
            lambda k, s, eps=eps, sign=sign: assemble_estimating(cfg, k, eps, sign, s),
            lambda s, eps=eps, sign=sign: _reference_estimating(cfg, s, eps, sign),
        ))
    return pairs


@pytest.mark.parametrize("cfg, sector", ORACLE_CASES)
def test_assembly_matches_reference_bit_for_bit(cfg, sector):
    states = build_basis(cfg).get(sector, [])
    for assemble, reference in _sector_assemblies(cfg):
        _assert_same_csr(assemble(sector, states).matrix, reference(states))


@pytest.mark.parametrize("bound", [1, 2**62])
@pytest.mark.parametrize("cfg, sector", ORACLE_CASES)
def test_assembly_does_not_depend_on_the_slice_bound(monkeypatch, cfg, sector, bound):
    # one (state, move) pair per slice, so a move or diagonal term per
    # slice, and every move of a sector in a single slice
    monkeypatch.setattr(fock_ed, "PAIR_SLICE", bound)
    states = build_basis(cfg).get(sector, [])
    _assert_same_csr(assemble_hamiltonian(cfg, sector, states).matrix,
                     _reference_hamiltonian(cfg, states))


def test_move_table_built_once_per_config(monkeypatch):
    calls = []
    orig = fock_ed._move_table

    def counted(cfg):
        calls.append(cfg)
        return orig(cfg)

    monkeypatch.setattr(fock_ed, "_move_table", counted)
    cfg = EDConfig(5, LAT, V1, mode_radius=2.0, max_excited=4)
    first = assemble_hamiltonian(cfg, (0,)).matrix
    for sector in ((0,), (1,), (-2,), (9,)):
        assemble_hamiltonian(cfg, sector)
    many_body_excitations(cfg, [(0,), (1,)], 2)
    assert [c is cfg for c in calls] == [True]
    # an equal configuration builds its own table, to the same matrix
    fresh = EDConfig(5, LAT, V1, mode_radius=2.0, max_excited=4)
    _assert_same_csr(assemble_hamiltonian(fresh, (0,)).matrix, first)
    assert [c is fresh for c in calls] == [False, True]


def test_a_transfer_past_a_table_raises_only_in_a_sector_that_needs_it():
    # a table that does not decay has no vhat past |k| = 1; the modes
    # -1, 0, 1 reach |k| = 2 only through a state holding both -1 and 1
    pot = Potential.table([(0.0, 0.3), (1.0, 0.2)])
    cfg = EDConfig(2, LatticeSpec(2 * math.pi, 1), pot, mode_radius=1.0, max_excited=2)
    basis = build_basis(cfg)
    assert basis[(0,)] == [(0, 2, 0), (1, 0, 1)]
    for sector, states in (((0,), [(0, 2, 0)]), ((1,), basis[(1,)])):
        _assert_same_csr(assemble_hamiltonian(cfg, sector, states).matrix,
                         _reference_hamiltonian(cfg, states))
    with pytest.raises(PotentialRangeError, match=r"\|p\| = 2.0 outside table range"):
        assemble_hamiltonian(cfg, (0,))


def test_move_table_reads_vhat_once_per_transfer_shell(monkeypatch):
    # 2D modes of radius 2: 69 distinct transfer vectors on 13 shells |k|^2,
    # read outward at h sqrt(|k|^2), which differs from sqrt(h^2 |k|^2) at
    # |k|^2 = 2 and 8 for this L
    cfg = EDConfig(4, LatticeSpec(7.1, 2), Potential.gaussian(0.1, 5.0, 2), mode_radius=2.0)
    n = [m.n for m in cfg.modes()]
    transfers = {tuple(b - a for a, b in zip(p, q)) for p in n for q in n}
    shells = sorted({sum(c * c for c in k) for k in transfers})
    assert (len(transfers), len(shells)) == (69, 13)
    radii, vhat_radial = [], Potential.vhat_radial

    def recorded(pot, r):
        radii.append(r)
        return vhat_radial(pot, r)

    monkeypatch.setattr(Potential, "vhat_radial", recorded)
    fock_ed._move_table(cfg)
    assert radii == [cfg.lattice.spacing * math.sqrt(k) for k in shells]


def test_two_word_cases_take_two_key_words():
    for cfg, sector in TWO_WORD_CASES:
        states = build_basis(cfg, [sector])[sector]
        assert len(states) == {(0, 0, 0): 91, (1, 0, 0): 74}[sector]
        assert fock_ed._Occupations(states, len(cfg.modes())).keys.shape == (len(states), 2)


def test_assembly_matches_reference_on_a_mode_capped_basis():
    # every occupation 0..2 of each mode, any particle number: a move that
    # puts two particles into a mode holding 2 makes a digit of 4, which a
    # radix of max + 2 would carry into a key that another state holds
    cfg = EDConfig(6, LAT, V1, mode_radius=2.0)
    states = list(itertools.product(range(3), repeat=len(cfg.modes())))
    for assemble, reference in _sector_assemblies(cfg):
        _assert_same_csr(assemble((0,), states).matrix, reference(states))


def test_assembly_matches_reference_on_any_basis_order():
    cfg = EDConfig(5, LAT, V1, mode_radius=2.0, max_excited=4)
    basis = build_basis(cfg)
    states = basis[(1,)] + basis[(0,)]
    states = [states[i] for i in np.random.default_rng(5).permutation(len(states))]
    for assemble, reference in _sector_assemblies(cfg):
        _assert_same_csr(assemble((0,), states).matrix, reference(states))


def test_assembly_rejects_repeated_state():
    cfg = EDConfig(3, LAT, V1, mode_radius=1.0)
    states = build_basis(cfg)[(0,)]
    for assemble, _ in _sector_assemblies(cfg):
        with pytest.raises(ValueError):
            assemble((0,), states + states[:1])


@pytest.mark.parametrize("pot", [ZERO, V1, Potential.table([(0.0, 0.3), (1.5, -0.2), (2.5, 0.0)])])
@pytest.mark.parametrize("pairs, cutoff", [(1, 0), (1, 3), (1, 21), (2, 0), (2, 3)])
def test_quadratic_matches_reference_bit_for_bit(pot, pairs, cutoff):
    modes = [LAT.momentum(k) for j in range(1, pairs + 1) for k in (j, -j)]
    got = assemble_bogoliubov_quadratic(modes, pot, cutoff)
    _assert_same_csr(got.matrix, _reference_quadratic(modes, pot, cutoff))


# the ed-1d benchmark sector: 526 states, solved by Davidson
ED_1D_CASE = (EDConfig(32, LatticeSpec(6.28318530718, 1), V1, mode_radius=4.0, max_excited=8),
              (0,))


def _assembled(cfg, sector):
    """Every sector operator of the configuration on the sector, and the
    quadratic Hamiltonian on its first +/- mode pair."""
    states = build_basis(cfg).get(sector, [])
    mats = [assemble(sector, states) for assemble, _ in _sector_assemblies(cfg)]
    pair = [cfg.lattice.momentum((1,) + (0,) * (cfg.lattice.d - 1))]
    return mats + [assemble_bogoliubov_quadratic(pair + [-pair[0]], cfg.pot, 3)]


@pytest.mark.parametrize("cfg, sector", ORACLE_CASES + [ED_1D_CASE])
def test_csr_arrays_match_scipy(monkeypatch, cfg, sector):
    # _csr's arrays are scipy's COO -> CSR arrays of the same entries,
    # index dtype included; the scipy view shares them, and the dense
    # matrix and diagonal are scipy's, bit for bit
    calls = []
    orig = fock_ed._csr

    def recording(rows, cols, vals, dim):
        got = orig(rows, cols, vals, dim)
        entries = [np.concatenate(a) for a in (rows, cols, vals)]
        calls.append((got, entries, dim))
        return got

    monkeypatch.setattr(fock_ed, "_csr", recording)
    mats = _assembled(cfg, sector)
    assert len(calls) == len(mats)
    for (indptr, indices, data), (rows, cols, vals), dim in calls:
        want = sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim))
        _assert_same_csr(fock_ed.SectorMatrix(None, [], indptr, indices, data, ""), want)
    for m in mats:
        for name in ("indptr", "indices", "data"):
            ours = getattr(m, name)
            assert np.shares_memory(getattr(m.matrix, name), ours) or not ours.size, name
        assert m.nnz == m.matrix.nnz
        assert m.toarray().tobytes() == m.matrix.toarray().tobytes()
        assert m.diagonal().tobytes() == m.matrix.diagonal().tobytes()


def _handmade():
    """A 6 x 6 SectorMatrix with an empty row (2), an explicit zero and a
    stored -0.0, and a row (0) whose sum depends on its order."""
    entries = {
        (0, 0): 1.0, (0, 1): 1e16, (0, 2): -1e16,
        (1, 1): 0.0, (1, 4): 0.75,
        (3, 3): -0.0,
        (4, 0): 0.1, (4, 1): -3e-17, (4, 2): 7.0, (4, 3): -0.3, (4, 4): 1e-3, (4, 5): 2.2,
        (5, 5): 2.5,
    }
    keys = list(entries)[::-1]  # _csr takes its entries in any order
    arrays = fock_ed._csr([np.array([k[0] for k in keys])], [np.array([k[1] for k in keys])],
                          [np.array([entries[k] for k in keys])], 6)
    return fock_ed.SectorMatrix(None, [], *arrays, "test")


def test_matvec_matches_scipy_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(7)
    hand = _handmade()
    assert hand.nnz == 13 and np.diff(hand.indptr)[2] == 0
    assert hand.toarray().tobytes() == hand.matrix.toarray().tobytes()
    mats = [hand] + _assembled(*ORACLE_CASES[3]) + _assembled(*ORACLE_CASES[5])
    # row blocks of the default size, then every row its own block
    for bound in (fock_ed.PAIR_SLICE, 1):
        monkeypatch.setattr(fock_ed, "PAIR_SLICE", bound)
        for m in mats:
            xs = np.concatenate([np.ones((m.dim, 1)), rng.standard_normal((m.dim, 3)),
                                 np.exp(rng.uniform(-30, 30, (m.dim, 2)))], axis=1)
            block = m.matvec(xs)
            for j in range(xs.shape[1]):
                want = (m.matrix @ xs[:, j]).tobytes()
                assert m.matvec(xs[:, j]).tobytes() == want
                assert block[:, j].copy().tobytes() == want
    # the sums tell the order apart: row 0 summed right to left is 1.0,
    # where scipy's left-to-right sum is 0.0
    x = np.ones(6)
    products = hand.data[:3] * x[hand.indices[:3]]
    assert sum(reversed(products.tolist())) == 1.0
    assert (hand.matrix @ x)[0] == 0.0 == hand.matvec(x)[0]


def test_free_hamiltonian_is_diagonal():
    cfg = EDConfig(4, LAT, ZERO, mode_radius=2.0, max_excited=4)
    m = assemble_hamiltonian(cfg, (0,))
    a = m.matrix.toarray()
    assert np.abs(a - np.diag(np.diag(a))).max() == 0.0
    kin = assemble_kinetic(cfg, (0,)).matrix.toarray()
    assert np.abs(a - kin).max() == 0.0


def test_k0_interaction_is_constant():
    cfg = EDConfig(4, LAT, K0_POT, mode_radius=2.0, max_excited=4)
    h = assemble_hamiltonian(cfg, (1,)).matrix.toarray()
    t = assemble_kinetic(cfg, (1,)).matrix.toarray()
    const = 0.5 * 0.3 * (4 - 1)
    assert np.abs(h - t - const * np.eye(len(h))).max() < 1e-12


def _assert_hermitian(m):
    """|M - M^T| <= 1e-13 max(max |M|, 1) entrywise; assembly keeps the
    asymmetry near machine eps."""
    a = m.toarray()
    assert np.abs(a - a.T).max(initial=0.0) <= 1e-13 * max(np.abs(a).max(initial=0.0), 1.0)


def test_hermiticity_and_momentum_blocks():
    cfg = EDConfig(5, LAT, V1, mode_radius=2.0, max_excited=4)
    basis = build_basis(cfg)
    for key in ((0,), (1,), (3,)):
        _assert_hermitian(assemble_hamiltonian(cfg, key, basis[key]))
    # assembling on the union of two sector bases stays block diagonal
    union = basis[(0,)] + basis[(2,)]
    m = assemble_hamiltonian(cfg, (0,), union)
    a = m.matrix.toarray()
    n0 = len(basis[(0,)])
    assert np.abs(a[:n0, n0:]).max() == 0.0
    assert np.abs(a[n0:, :n0]).max() == 0.0


@settings(max_examples=20, deadline=None)
@given(
    st.integers(2, 5),
    st.floats(0.05, 2.0),
    st.floats(1.0, 6.0),
    st.integers(0, 2),
)
def test_hermiticity_property(n, amp, width, sector):
    pot = Potential.gaussian(amp, width, 1)
    cfg = EDConfig(n, LAT, pot, mode_radius=2.0, max_excited=min(n, 3))
    _assert_hermitian(assemble_hamiltonian(cfg, (sector,)))


def test_estimating_condensate_sector_is_scalar():
    cfg = EDConfig(6, LAT, V1, mode_radius=2.0, max_excited=0)
    for sign in (+1, -1):
        m = assemble_estimating(cfg, (0,), 0.5, sign)
        assert m.dim == 1
        assert m.matrix.toarray()[0, 0] == pytest.approx(0.5 * 0.1 * 5, rel=1e-14)


def test_estimating_free_case_reduces_to_kinetic():
    cfg = EDConfig(4, LAT, ZERO, mode_radius=1.0, max_excited=4)
    kin = assemble_kinetic(cfg, (0,)).matrix.toarray()
    for sign in (+1, -1):
        m = assemble_estimating(cfg, (0,), 0.5, sign).matrix.toarray()
        assert np.abs(m - kin).max() == 0.0


def test_estimating_validates_eps():
    cfg = EDConfig(4, LAT, V1, mode_radius=1.0)
    with pytest.raises(ValueError):
        assemble_estimating(cfg, (0,), 0.0, +1)
    with pytest.raises(ValueError):
        assemble_estimating(cfg, (0,), 1.5, -1)
    with pytest.raises(ValueError):
        assemble_estimating(cfg, (0,), 0.5, 2)


def test_estimating_constants_computed_once_per_config(monkeypatch):
    # the mode set and the periodized potential at 0 are per configuration:
    # both estimates at every eps, and every sector, reuse them
    calls = {"lattice_points": 0, "periodized_value": 0}
    for name in calls:
        orig = getattr(fock_ed, name)

        def counted(*args, orig=orig, name=name, **kwargs):
            calls[name] += 1
            return orig(*args, **kwargs)

        monkeypatch.setattr(fock_ed, name, counted)
    cfg = EDConfig(4, LAT, V1, mode_radius=1.0, max_excited=4)
    first = assemble_estimating(cfg, (0,), 0.5, +1).matrix.toarray()
    for sector in ((0,), (1,)):
        for eps in (0.25, 1.0):
            for sign in (+1, -1):
                assemble_estimating(cfg, sector, eps, sign)
    assert calls == {"lattice_points": 1, "periodized_value": 1}
    modes = cfg.modes()
    modes.clear()  # a caller's copy: the configuration's mode set is unchanged
    assert cfg.modes() == fock_ed.lattice_points(LAT, 1.0, include_zero=True)
    fresh = EDConfig(4, LAT, V1, mode_radius=1.0, max_excited=4)
    assert np.array_equal(assemble_estimating(fresh, (0,), 0.5, +1).matrix.toarray(), first)


def test_sandwich_at_unit_eps():
    cfg = EDConfig(4, LAT, V1, mode_radius=1.0, max_excited=4)
    h = assemble_hamiltonian(cfg, (0,)).matrix.toarray()
    lower = assemble_estimating(cfg, (0,), 1.0, -1).matrix.toarray()
    w = np.linalg.eigvalsh(h - lower)
    assert w.min() >= -1e-9 * max(1.0, np.abs(h).max())


def test_excited_count_diagonal():
    cfg = EDConfig(4, LAT, V1, mode_radius=1.0, max_excited=4)
    m = assemble_excited_count(cfg, (0,))
    for state, val in zip(m.basis, m.matrix.diagonal()):
        assert val == 4 - state[1]  # zero mode is the middle of (-1, 0, 1)


def test_quadratic_single_pair_ground():
    pot = Potential.table([(0.0, 0.0), (0.5, 0.0), (1.0, 1.0), (1.5, 0.0), (4.0, 0.0)])
    modes = [LAT.momentum(1), LAT.momentum(-1)]
    # A larger cutoff compresses H onto a larger occupation basis that
    # contains the smaller one, so the lowest eigenvalue never rises and
    # never falls below the exact pair ground -(2 - sqrt 3).  Both hold to
    # the error bar of lowest_eigenvalues: each value lies within its
    # reported residual of an eigenvalue, plus roundoff 4 eps ||M||_inf.
    eps = np.finfo(float).eps
    prev = None
    for mocc in (10, 20, 40):
        m = assemble_bogoliubov_quadratic(modes, pot, mocc)
        res = lowest_eigenvalues(m, 1)
        val, resid = float(res.values[0]), float(res.residuals[0])
        roundoff = 4.0 * eps * float(abs(m.matrix).sum(axis=1).max())
        assert val >= PAIR_GROUND_SHIFT - (resid + roundoff)
        if prev is not None:
            prev_val, prev_resid = prev
            assert val <= prev_val + prev_resid + resid + roundoff
        prev = (val, resid)
    assert abs(prev[0] - PAIR_GROUND_SHIFT) < 1e-6


def test_quadratic_single_pair_excited_levels():
    # occupation cutoff 21 keeps the dimension below the dense-solver
    # threshold so degenerate multiplicities are resolved exactly
    pot = Potential.table([(0.0, 0.0), (0.5, 0.0), (1.0, 1.0), (1.5, 0.0), (4.0, 0.0)])
    modes = [LAT.momentum(1), LAT.momentum(-1)]
    m = assemble_bogoliubov_quadratic(modes, pot, 21)
    vals = lowest_eigenvalues(m, 6).values
    e = math.sqrt(3.0)  # sqrt(A^2 - B^2) at A=2, B=1
    expected = sorted(
        PAIR_GROUND_SHIFT + e * (np_ + nm) for np_ in range(3) for nm in range(3)
    )[:6]
    assert np.abs(vals - np.array(expected)).max() < 1e-5


def test_quadratic_free_case_diagonal():
    modes = [LAT.momentum(1), LAT.momentum(-1)]
    m = assemble_bogoliubov_quadratic(modes, ZERO, 6)
    a = m.matrix.toarray()
    assert np.abs(a - np.diag(np.diag(a))).max() == 0.0
    assert lowest_eigenvalues(m, 1).values[0] == 0.0


def test_quadratic_rejects_unpaired_modes():
    with pytest.raises(ValueError):
        assemble_bogoliubov_quadratic([LAT.momentum(1)], V1, 4)
    with pytest.raises(ValueError):
        assemble_bogoliubov_quadratic([LAT.momentum(0), LAT.momentum(1)], V1, 4)


@pytest.mark.parametrize("pairs, cutoff, fits", [(4, 5, 4), (1, 700, 631), (3, 10, 7)])
def test_quadratic_refusal_names_its_cap_and_a_setting_that_fits(monkeypatch, pairs, cutoff, fits):
    # (fits + 1) ** (2 * pairs) <= 400,000 < (fits + 2) ** (2 * pairs):
    # 5**8 = 390,625, 632**2 = 399,424 and 8**6 = 262,144 states fit
    modes = [LAT.momentum(s * n) for n in range(1, pairs + 1) for s in (1, -1)]
    dim = (cutoff + 1) ** len(modes)
    assert (fits + 1) ** len(modes) <= 400_000 < (fits + 2) ** len(modes) <= dim
    # refused before any state is built
    monkeypatch.setattr(fock_ed, "itertools", None)
    monkeypatch.setattr(fock_ed, "_Occupations", None)
    with pytest.raises(ValueError, match=rf"^occupation basis has {dim} states \(cap 400000\); "
                                         rf"try max_occupation <= {fits}$"):
        assemble_bogoliubov_quadratic(modes, V1, cutoff)


_PAIR = [LAT.momentum(1), LAT.momentum(-1)]


@pytest.mark.parametrize("call, what", [
    pytest.param(lambda cfg: build_basis(cfg, [(0,), (1.5,)]), "momentum coordinate 1.5",
                 id="build_basis"),
    pytest.param(lambda cfg: build_basis(cfg, ["1"]), "momentum coordinate '1'",
                 id="build_basis-str"),
    pytest.param(lambda cfg: sector_basis(cfg, (1.5,)), "momentum coordinate 1.5",
                 id="sector_basis"),
    pytest.param(lambda cfg: assemble_hamiltonian(cfg, (0.7,)), "momentum coordinate 0.7",
                 id="assemble_hamiltonian"),
    pytest.param(lambda cfg: assemble_estimating(cfg, (1.5,), 0.5, 1), "momentum coordinate 1.5",
                 id="assemble_estimating"),
    pytest.param(lambda cfg: assemble_kinetic(cfg, (-0.5,)), "momentum coordinate -0.5",
                 id="assemble_kinetic"),
    pytest.param(lambda cfg: assemble_excited_count(cfg, (1.5,)), "momentum coordinate 1.5",
                 id="assemble_excited_count"),
    pytest.param(lambda cfg: many_body_excitations(cfg, [(1.5,)], 1), "momentum coordinate 1.5",
                 id="many_body-key"),
    pytest.param(lambda cfg: many_body_excitations(cfg, [(1,)], 1.5), "count 1.5",
                 id="many_body-count"),
    pytest.param(lambda cfg: lowest_eigenvalues(assemble_hamiltonian(cfg, (0,)), 1.5), "count 1.5",
                 id="lowest_eigenvalues-count"),
    pytest.param(lambda cfg: assemble_bogoliubov_quadratic(_PAIR, V1, 1.5), "max_occupation 1.5",
                 id="quadratic-max_occupation"),
    pytest.param(lambda cfg: EDConfig(4.5, LAT, V1, mode_radius=1.0), "n_particles 4.5",
                 id="EDConfig-n_particles"),
    pytest.param(lambda cfg: EDConfig(4, LAT, V1, mode_radius=1.0, max_excited=1.5),
                 "max_excited 1.5", id="EDConfig-max_excited"),
    pytest.param(lambda cfg: EDConfig("4", LAT, V1, mode_radius=1.0), "n_particles '4'",
                 id="EDConfig-str"),
])
def test_a_count_or_key_that_is_not_an_integer_is_refused(call, what):
    # int() would read 1.5 as 1, 0.7 as 0 and "1" as 1; a float count or
    # cap would fail in numpy indexing instead
    cfg = EDConfig(4, LAT, V1, mode_radius=1.0)
    with pytest.raises(ValueError, match=f"^{what} is not an integer$"):
        call(cfg)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: EDConfig(0, LAT, V1, mode_radius=1.0), "need at least one particle",
                 id="EDConfig-N-0"),
    pytest.param(lambda: EDConfig(4, LAT, Potential.gaussian(0.1, 5.0, 2), mode_radius=1.0),
                 "potential and lattice dimensions differ", id="EDConfig-dimension"),
    pytest.param(lambda: assemble_bogoliubov_quadratic(_PAIR, V1, -1),
                 "max_occupation must be >= 0", id="quadratic-max_occupation-negative"),
])
def test_an_integer_out_of_range_or_a_dimension_mismatch_is_refused(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_integer_valued_counts_and_keys_are_taken_as_ints():
    cfg = EDConfig(4, LAT, V1, mode_radius=2.0, max_excited=4)
    same = EDConfig(4.0, LAT, V1, mode_radius=2.0, max_excited=np.int64(4))
    assert same == cfg and hash(same) == hash(cfg)
    assert type(same.n_particles) is int and type(same.max_excited) is int
    assert json.loads(json.dumps(same.snapshot())) == cfg.snapshot()
    got = many_body_excitations(same, [(np.int64(1),), (2.0,)], 2.0)
    want = many_body_excitations(cfg, [(1,), (2,)], 2)
    assert list(got.sector_values) == [(0,), (1,), (2,)]
    assert all(type(c) is int for k in got.sector_values for c in k)
    for field in ("sector_values", "sector_gaps", "sector_residuals"):
        assert list(getattr(got, field)) == list(getattr(want, field))
        for k, v in getattr(want, field).items():
            assert getattr(got, field)[k].tobytes() == v.tobytes()
    m = assemble_hamiltonian(cfg, (0,))
    assert lowest_eigenvalues(m, 2.0).values.tobytes() == lowest_eigenvalues(m, 2).values.tobytes()
    quad = assemble_bogoliubov_quadratic(_PAIR, V1, np.int64(3)).toarray()
    assert quad.tobytes() == assemble_bogoliubov_quadratic(_PAIR, V1, 3).toarray().tobytes()
    # a key of another dimension is still reached by no walk
    assert build_basis(cfg, [(0, 0), [1.0]]) == {(0, 0): [], (1,): build_basis(cfg, [(1,)])[(1,)]}


def _wrapped(a):
    """The CSR arrays of a scipy matrix as a SectorMatrix."""
    c = sp.csr_matrix(a)
    return fock_ed.SectorMatrix(None, [], c.indptr, c.indices, c.data, "csr")


def test_lowest_eigenvalues_diagonal():
    m = _wrapped(np.diag([3.0, 1.0, 2.0]))
    res = lowest_eigenvalues(m, 2)
    assert list(res.values) == [1.0, 2.0]
    assert res.method == "dense"


def test_lowest_eigenvalues_free_two_state_sector():
    cfg = EDConfig(2, LAT, ZERO, mode_radius=1.0)
    m = assemble_hamiltonian(cfg, (0,))
    res = lowest_eigenvalues(m, 2)
    assert list(res.values) == [0.0, 2.0]


def test_lowest_eigenvalues_dense_vs_davidson():
    rng = np.random.default_rng(3)
    dim = 600
    a = sp.random(dim, dim, density=0.01, random_state=rng, format="csr")
    a = a + a.T + sp.diags(np.linspace(0.0, 3.0, dim))
    tol = 1e-10
    it = lowest_eigenvalues(_wrapped(a), 4, tol=tol)
    assert it.method == "davidson"
    dense = np.linalg.eigvalsh(a.toarray())[:4]
    norm = np.abs(a).sum(axis=1).max()
    assert np.abs(it.values - dense).max() < tol * norm * 10
    # reproducible across calls with the same seed
    again = lowest_eigenvalues(_wrapped(a), 4, tol=tol)
    assert np.array_equal(it.values, again.values)


def _dense_reference(m, tol=1e-9):
    """Every eigenvalue of m by dense eigh, and tol * ||m||_inf."""
    a = m.toarray()
    return np.linalg.eigvalsh(a), tol * np.abs(a).sum(axis=1).max()


@pytest.mark.parametrize("cfg, sector, count, seed", [
    # 1D, the ed-1d sector at count 4: its 4th and 5th values lie 5.7e-7
    # apart, and single-vector Lanczos from this seed returned the 5th
    (ED_1D_CASE[0], (0,), 4, 2072744897),
    # 3D sector (1,0,0), 891 states: its 3rd and 4th values are a doublet,
    # of which single-vector Lanczos returned one member
    (EDConfig(16, LatticeSpec(6.28318530718, 3), Potential.gaussian(0.1, 5.0, 3),
              mode_radius=1.5, max_excited=6), (1, 0, 0), 6, fock_ed.DEFAULT_SEED),
], ids=["1d-ed-1d-count-4", "3d-100-count-6"])
def test_davidson_matches_dense_with_multiplicities(cfg, sector, count, seed):
    m = assemble_hamiltonian(cfg, sector)
    assert m.dim > fock_ed.DENSE_FALLBACK_DIM
    res = lowest_eigenvalues(m, count, seed=seed)
    dense, bound = _dense_reference(m)
    assert res.method == "davidson"
    # no cluster straddles count here: exactly count values come back
    assert dense[count] - dense[count - 1] > bound
    assert len(res.values) == count
    assert np.abs(res.values - dense[:count]).max() <= bound
    assert np.all(res.residuals <= bound)
    if sector == (1, 0, 0):
        assert abs(res.values[3] - res.values[2]) <= bound  # the doublet, whole


def test_davidson_solves_a_diagonal_matrix():
    # the free Hamiltonian is diagonal, so the Jacobi preconditioner is its
    # exact inverse; the 4th value, 6, is a triplet, returned whole
    cfg = EDConfig(32, LatticeSpec(6.28318530718, 1), ZERO, mode_radius=4.0, max_excited=8)
    m = assemble_hamiltonian(cfg, (0,))
    assert m.dim > fock_ed.DENSE_FALLBACK_DIM and m.nnz == m.dim
    res = lowest_eigenvalues(m, 4)
    dense, bound = _dense_reference(m)
    assert res.method == "davidson"
    assert len(res.values) == 6
    assert np.abs(res.values - dense[:6]).max() <= bound
    assert dense[6] - dense[5] > bound
    assert np.all(res.residuals <= bound)


def test_davidson_agrees_with_eigsh():
    # ARPACK's eigsh as an independent reference, on the ed-1d sector
    import scipy.sparse.linalg as spla

    m = assemble_hamiltonian(*ED_1D_CASE)
    tol = 1e-9
    _, bound = _dense_reference(m, tol)
    want = spla.eigsh(m.matrix, k=3, which="SA", tol=tol,
                      v0=np.random.default_rng(5).standard_normal(m.dim))[0]
    for seed in (1, 2, fock_ed.DEFAULT_SEED):
        got = lowest_eigenvalues(m, 3, tol=tol, seed=seed)
        assert np.abs(got.values - np.sort(want)).max() <= bound


_CUBE_16 = EDConfig(16, LatticeSpec(6.28318530718, 3), Potential.gaussian(0.1, 5.0, 3),
                    mode_radius=1.5, max_excited=6)


@pytest.mark.parametrize("cfg, sector", [
    (ED_1D_CASE[0], (0,)),  # 526 states
    (ED_1D_CASE[0], (1,)),  # 519
    (EDConfig(10, LatticeSpec(6.28318530718, 2), Potential.gaussian(0.1, 5.0, 2),
              mode_radius=1.5), (0, 0)),  # 538
    (_CUBE_16, (1, 0, 0)),  # 891: its 3rd and 4th values are a doublet
    (_CUBE_16, (0, 0, 0)),  # 1,040: a doublet (5th, 6th) and a triplet (7th-9th)
], ids=["1d-0", "1d-1", "2d-00", "3d-100", "3d-000"])
def test_davidson_sweep_matches_dense_under_the_multiplet_rule(cfg, sector):
    # every count from 2 to 6 from several seeds: exactly count values come
    # back, extended through any cluster within tol * ||H||_inf that
    # straddles count, and each value and residual is within that bound
    m = assemble_hamiltonian(cfg, sector)
    assert m.dim > fock_ed.DENSE_FALLBACK_DIM
    dense, bound = _dense_reference(m)
    for seed, count in itertools.product((0, 1, 2, fock_ed.DEFAULT_SEED), range(2, 7)):
        want = count
        while dense[want] - dense[want - 1] <= bound:
            want += 1
        res = lowest_eigenvalues(m, count, seed=seed)
        assert res.method == "davidson"
        assert len(res.values) == want, (seed, count)
        assert np.abs(res.values - dense[:want]).max() <= bound, (seed, count)
        assert np.all(res.residuals <= bound), (seed, count)


def test_dense_path_returns_a_straddling_cluster_whole():
    # 3D N = 4, mode radius 1, zero sector of 14 states: its 2nd and 3rd
    # values are a doublet at 2.2075388366959, an ulp apart.  A count that
    # ends inside the doublet is extended through it
    cfg = EDConfig(4, LatticeSpec(2 * math.pi, 3), Potential.gaussian(0.1, 5.0, 3),
                   mode_radius=1.0)
    m = assemble_hamiltonian(cfg, (0, 0, 0))
    dense, bound = _dense_reference(m)
    assert m.dim <= fock_ed.DENSE_FALLBACK_DIM
    assert dense[2] - dense[1] <= bound < min(dense[1] - dense[0], dense[3] - dense[2])
    for count, want in ((1, 1), (2, 3), (3, 3), (4, 4)):
        res = lowest_eigenvalues(m, count)
        assert res.method == "dense"
        assert len(res.values) == want
        assert np.abs(res.values - dense[:want]).max() <= bound
        assert np.all(res.residuals <= bound)


def _huge_ed_1d(amplitude):
    """The ed-1d configuration with the Gaussian amplitude given."""
    cfg, sector = ED_1D_CASE
    return EDConfig(cfg.n_particles, cfg.lattice, Potential.gaussian(amplitude, 5.0, 1),
                    mode_radius=cfg.mode_radius, max_excited=cfg.max_excited), sector


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("cfg, sector", [
    (EDConfig(3, LatticeSpec(40.0, 1), Potential.gaussian(1e308, 5.0, 1), mode_radius=0.5,
              max_excited=16), (0,)),  # 8 states: the dense path
    _huge_ed_1d(1e308),  # 526 states: the Davidson path; the assembly overflows
], ids=["dense", "davidson"])
def test_non_finite_hamiltonian_raises_before_any_solve(cfg, sector):
    m = assemble_hamiltonian(cfg, sector)
    assert not np.isfinite(m.data).all()
    with pytest.raises(ValueError, match=r"^the matrix of sector \(0,\) has a non-finite entry$"):
        lowest_eigenvalues(m, 2)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("dim", [8, 600], ids=["dense", "davidson"])
def test_residual_past_the_float_range_raises(monkeypatch, dim):
    # finite entries near 1e300, whose residual norms square past the float
    # range; the Davidson path stops at its iteration cap, cut to 3 here
    monkeypatch.setattr(fock_ed, "DAVIDSON_MAX_ITER", 3)
    off = np.ones(dim - 1)
    m = _wrapped(1e300 * sp.diags([off, np.linspace(1.0, 3.0, dim), off], [-1, 0, 1]))
    assert np.isfinite(m.data).all()
    with pytest.raises(fock_ed.EigenConvergenceError) as exc:
        lowest_eigenvalues(m, 2)
    assert not np.isfinite(exc.value.residuals).all()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_davidson_recovers_from_residuals_past_the_float_range():
    # at amplitude 1e160 the start block's residuals square past the float
    # range, yet the converged ones do not: the result is the 1e150 one,
    # scaled by 1e10 to within the bound
    m = assemble_hamiltonian(*_huge_ed_1d(1e160))
    res = lowest_eigenvalues(m, 3)
    want = lowest_eigenvalues(assemble_hamiltonian(*_huge_ed_1d(1e150)), 3)
    assert res.method == "davidson" and np.isfinite(res.residuals).all()
    _, bound = _dense_reference(m)
    assert np.abs(res.values - 1e10 * want.values).max() <= bound


def test_davidson_iteration_cap_raises(monkeypatch):
    m = assemble_hamiltonian(*ED_1D_CASE)
    monkeypatch.setattr(fock_ed, "DAVIDSON_MAX_ITER", 1)
    with pytest.raises(fock_ed.EigenConvergenceError,
                       match="Davidson solver did not converge") as exc:
        lowest_eigenvalues(m, 3)
    assert len(exc.value.residuals) == 3 and np.all(exc.value.residuals > 0)


def test_davidson_result_past_the_residual_bound_raises(monkeypatch):
    # the final check of lowest_eigenvalues, on a Davidson result whose
    # first vector is turned by 1e-3 towards the second
    m = assemble_hamiltonian(*ED_1D_CASE)
    davidson = fock_ed._davidson

    def perturbed(m, count, bound, seed):
        vals, vecs = davidson(m, count, bound, seed)
        vecs = vecs.copy()
        vecs[:, 0] += 1e-3 * vecs[:, 1]
        vecs[:, 0] /= np.linalg.norm(vecs[:, 0])
        return vals, vecs

    monkeypatch.setattr(fock_ed, "_davidson", perturbed)
    _, bound = _dense_reference(m)
    with pytest.raises(fock_ed.EigenConvergenceError,
                       match="^Davidson solver residuals exceed tolerance$") as exc:
        lowest_eigenvalues(m, 3)
    residuals = exc.value.residuals
    assert len(residuals) == 3
    assert residuals[0] > 1e3 * bound and np.all(residuals[1:] <= bound)


def test_orthonormal_extension_takes_a_second_pass_on_a_small_pivot(monkeypatch):
    # columns v and v + 1e-5 w: the QR pivot of the second is about 1e-5,
    # below 1e-2, so the passes and the QR run again on the QR'd columns
    rng = np.random.default_rng(7)
    basis = np.linalg.qr(rng.standard_normal((50, 3)))[0]
    v, w = rng.standard_normal(50), rng.standard_normal(50)
    pivots, qr = [], np.linalg.qr

    def recorded(a):
        q, r = qr(a)
        pivots.append(np.abs(np.diag(r)))
        return q, r

    monkeypatch.setattr(np.linalg, "qr", recorded)
    q = fock_ed._orthonormal_extension(basis, np.column_stack([v, v + 1e-5 * w]))
    assert len(pivots) == 2
    assert pivots[0][0] == pytest.approx(1.0) and 1e-6 < pivots[0][1] < 1e-4
    assert np.all(pivots[1] >= 1e-2)
    assert q.shape == (50, 2)
    assert np.abs(q.T @ q - np.eye(2)).max() < 1e-12
    assert np.abs(basis.T @ q).max() < 1e-12


def test_a_matrix_with_no_stored_entries():
    # ||m||_inf of no entries is 0.0, so every gap is within the cluster
    # bound and the count-1 request returns all three zeros as one cluster
    m = fock_ed.SectorMatrix(None, [], np.zeros(4, dtype=np.int64),
                             np.empty(0, dtype=np.int64), np.empty(0), "csr")
    assert m.nnz == 0 and fock_ed._inf_norm(m) == 0.0
    res = lowest_eigenvalues(m, 1)
    assert res.method == "dense"
    assert list(res.values) == [0.0, 0.0, 0.0] and list(res.residuals) == [0.0, 0.0, 0.0]


def test_lowest_eigenvalues_count_validation():
    m = _wrapped(np.eye(3))
    with pytest.raises(ValueError):
        lowest_eigenvalues(m, 0)
    with pytest.raises(ValueError):
        lowest_eigenvalues(m, 4)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_tol_must_be_finite_and_positive(tol):
    cfg = EDConfig(2, LAT, ZERO, mode_radius=1.0)
    with pytest.raises(ValueError, match="tol must be finite and > 0"):
        many_body_excitations(cfg, [(0,)], count=1, tol=tol)
    with pytest.raises(ValueError, match="tol must be finite and > 0"):
        lowest_eigenvalues(_wrapped(np.eye(3)), 1, tol=tol)


def test_many_body_count_must_be_positive():
    cfg = EDConfig(2, LAT, ZERO, mode_radius=1.0)
    with pytest.raises(ValueError, match="count must be >= 1"):
        many_body_excitations(cfg, [(0,)], count=0)


def test_many_body_exact_k0_case():
    for n in (2, 4, 6):
        cfg = EDConfig(n, LAT, K0_POT, mode_radius=2.0, max_excited=min(n, 8))
        ed = many_body_excitations(cfg, [(0,), (1,), (2,)], count=3)
        assert ed.e_ground == pytest.approx(0.5 * 0.3 * (n - 1), abs=1e-10)
        basis = build_basis(cfg)
        for key in ((1,), (2,)):
            kin = sorted(
                sum(s[i] * m.norm2_int for i, m in enumerate(cfg.modes()))
                for s in basis[key]
            )
            gaps = ed.sector_gaps[key]
            for got, want in zip(gaps, kin):
                assert got == pytest.approx(want, abs=1e-10)


def test_many_body_free_case():
    cfg = EDConfig(4, LAT, ZERO, mode_radius=2.0, max_excited=4)
    ed = many_body_excitations(cfg, [(0,), (1,)], count=2)
    assert ed.e_ground == 0.0
    assert ed.sector_gaps[(1,)][0] == 1.0


def test_many_body_matches_bogoliubov_at_moderate_n():
    cfg = EDConfig(6, LAT, V1, mode_radius=2.0, max_excited=6)
    ed = many_body_excitations(cfg, [(0,), (1,)], count=2)
    table = enumerate_below(LAT, V1, 4.0, 2.0, modes=cfg.modes())
    k_bog = table.sectors[(1,)][0].energy
    k_n = ed.sector_gaps[(1,)][0]
    # measured relative distance ~1.1% at N=6; a few percent allowed
    assert abs(k_n - k_bog) / k_bog < 0.05


def test_many_body_solves_each_sector_once_zero_first(monkeypatch):
    # a repeated sector is assembled once, and the zero sector, left out,
    # is solved first; the values equal those of the plain request
    import bogospec.fock_ed as fe

    cfg = EDConfig(4, LAT, V1, mode_radius=1.0)
    want = fe.many_body_excitations(cfg, [(0,), (1,)], count=1)
    orig = fe.assemble_hamiltonian
    assembled = []

    def counting(cfg, sector, basis=None):
        assembled.append(sector)
        return orig(cfg, sector, basis)

    monkeypatch.setattr(fe, "assemble_hamiltonian", counting)
    got = fe.many_body_excitations(cfg, [(1,), (1,)], count=1)
    assert assembled == [(0,), (1,)]
    assert list(got.sector_values) == [(0,), (1,)]
    assert got.e_ground == want.e_ground
    for field in ("sector_values", "sector_gaps", "sector_residuals"):
        for key in ((0,), (1,)):
            np.testing.assert_array_equal(getattr(got, field)[key], getattr(want, field)[key])


ORBIT_CASES = [
    # the ed-1d benchmark configuration: sectors of 515 to 519 states, so
    # each solve takes the Davidson path
    (EDConfig(32, LatticeSpec(6.28318530718, 1), V1, mode_radius=4.0, max_excited=8),
     [(1,), (-2,), (2,), (-1,)], [(1,), (-2,)]),
    # the second GOLDEN_ED configuration: the members of (1, 0) and (1, 1)
    (EDConfig(6, LatticeSpec(2 * math.pi, 2), Potential.gaussian(0.1, 5.0, 2), mode_radius=1.5),
     [(1, 1), (0, -1), (-1, 1), (1, 0), (-1, 0), (1, -1), (0, 1), (-1, -1)],
     [(1, 1), (0, -1)]),
    # 3D: the six members of (1, 0, 0), 459 states each
    (EDConfig(4, LatticeSpec(2 * math.pi, 3), Potential.gaussian(0.1, 5.0, 3), mode_radius=2.0,
              max_excited=4),
     [(0, 0, -1), (1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, 0, 1), (0, -1, 0)], [(0, 0, -1)]),
]


@pytest.mark.parametrize("cfg, keys, solved", ORBIT_CASES)
def test_many_body_solves_one_sector_per_orbit(monkeypatch, cfg, keys, solved):
    # a signed coordinate permutation g maps sector k onto g.k with the same
    # spectrum: only the first requested member of each orbit is solved, and
    # every member's rows agree with its own solve within tol * ||H||_inf
    import bogospec.fock_ed as fe

    calls = []

    def counting(m, count, tol=1e-9, seed=fe.DEFAULT_SEED):
        calls.append(m.sector)
        return lowest_eigenvalues(m, count, tol=tol, seed=seed)

    monkeypatch.setattr(fe, "lowest_eigenvalues", counting)
    zero = (0,) * cfg.lattice.d
    ed = fe.many_body_excitations(cfg, keys, count=3)
    assert calls == [zero] + solved
    assert list(ed.sector_values) == [zero] + keys
    for key in keys:
        mat = assemble_hamiltonian(cfg, key)
        own = lowest_eigenvalues(mat, 3)
        bound = 1e-9 * fe._inf_norm(mat)
        got = ed.sector_values[key]
        assert len(own.values) == len(got) == len(ed.sector_residuals[key])
        assert np.abs(own.values - got).max() <= bound
        assert np.all(ed.sector_residuals[key] <= bound)
    # each member holds its own arrays: the last key shares the first's orbit
    first, other = solved[0], keys[-1]
    assert sorted(map(abs, first)) == sorted(map(abs, other))
    values, residuals = ed.sector_values[other].copy(), ed.sector_residuals[other].copy()
    ed.sector_values[first][:] = np.nan
    ed.sector_residuals[first][:] = np.nan
    np.testing.assert_array_equal(ed.sector_values[other], values)
    np.testing.assert_array_equal(ed.sector_residuals[other], residuals)


def test_many_body_rejects_empty_sector():
    cfg = EDConfig(2, LAT, V1, mode_radius=1.0)
    with pytest.raises(ValueError):
        many_body_excitations(cfg, [(0,), (9,)], count=1)


def test_ground_sector_violation_detected(monkeypatch):
    # physical configurations cannot put the ground state off the zero
    # sector, so lower a nonzero sector artificially and expect the guard
    import bogospec.fock_ed as fe

    orig = fe.assemble_hamiltonian

    def doctored(cfg, sector, basis=None):
        m = orig(cfg, sector, basis)
        if any(m.sector):
            m.data[m.indices == np.repeat(np.arange(m.dim), np.diff(m.indptr))] -= 100.0
        return m

    monkeypatch.setattr(fe, "assemble_hamiltonian", doctored)
    cfg = EDConfig(2, LAT, ZERO, mode_radius=1.0)
    with pytest.raises(GroundSectorError):
        fe.many_body_excitations(cfg, [(0,), (1,)], count=1)
