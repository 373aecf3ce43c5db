"""Multi-quasiparticle excitation spectrum below an energy cutoff.

An excitation is a finite multiset of nonzero lattice momenta; its energy
and momentum are the sums over constituents.  Enumeration is depth-first
over canonically ordered constituent sequences (each extension appends a
momentum that is lexicographically >= the last one), so every multiset is
generated exactly once; each sector is then sorted once on (energy,
number of quasiparticles, constituent encoding).  The search carries a
multiset as two strings.  Its code spells the indices into the candidate
list, which is sorted by coordinates, as code points (index i is chr(i)):
strings compare by code point as index tuples compare, and index order is
the coordinates' order, so the sort and every rank come out as they would
on the coordinate tuples.  Its text is the CSV constituents field, each
constituent's coordinates joined by spaces and the constituents by ";",
formed by one concatenation from its parent's.  It carries a total
momentum as one integer (model's `MomentumCode`), so a step adds one
integer, and looks each distinct total up once, for its window verdict
and its sector; each kept total is decoded to its coordinates once, at
the end.

A multiset is recorded where it is formed, as a child of the node being
extended.  A node visits its children, the candidates from its last
index on, cheapest first (ties by index) and stops at the first past
kappa: float addition is monotone, so every later one is past it too.
Neither the sorted entries nor the budget's charge (below) depends on
that order.  A child whose energy plus the lowest candidate energy from
its last index on already exceeds kappa is a leaf: by the same
monotonicity none of its extensions could stay below kappa, and it is
never pushed.  The table keeps the sorted entries; its records are
NamedTuples, built on first read of `sectors`.  Every window test here
is model's ball test (`ball_norm2`), as in the CLI's other listings.

Completeness below the cutoff kappa is certified by dispersion(k) >= |k|^2:
each constituent satisfies dispersion(k) <= kappa, hence |k| <= sqrt(kappa),
and the multiset size is bounded by kappa over the smallest dispersion.

The search is budgeted.  It counts each multiset below kappa (the empty
one too) extended by every candidate from its last constituent on, kept
or not, a leaf's extensions included although it skips forming them:
the candidates are the 1-multisets.  A pushed multiset is charged when
it is popped, a leaf when it is formed; the total, and so whether it
passes the cap, does not depend on when.  Past MAX_MULTISETS formed it
raises EnumerationBudgetError.  It raises before listing the candidates
when the cube [-m, m]^d around their ball already holds more points,
and before searching when a candidate of zero energy would repeat
without end, or when the n candidates alone charge more: the empty
multiset forms all n, and candidate i is charged n - i, so n + n(n+1)/2
is a floor of the charge.  That refuses only what the search would
refuse, and keeps every index below chr's limit.  Counting what is
formed, not only what is kept, bounds the time: a kappa of 1e9 keeps
few of the multisets it forms.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from operator import mul
from typing import NamedTuple

from .bogoliubov import dispersion
from .model import (
    MAX_LATTICE_POINTS,
    LatticeSpec,
    Momentum,
    MomentumCode,
    Potential,
    ball_norm2,
    cube_exceeds,
    lattice_coords,
    lattice_points,
    sector_order,
)

#: multisets one enumeration may form.  kappa = 2.4 on the 1D spectrum's
#: lattice (L = 41.8879020479, Gaussian 0.1/5) forms 2,188,263 and keeps
#: 284,944, of which 271,642 lie in window 3.  The lattice cap itself, so
#: the candidates' cube check below is the one lattice_points would make
MAX_MULTISETS = MAX_LATTICE_POINTS


class OutOfWindowError(ValueError):
    """A sector outside the enumerated momentum window was requested."""


class EnumerationBudgetError(ValueError):
    """The enumeration below kappa would form more than MAX_MULTISETS multisets."""

    def __init__(self, kappa: float):
        self.kappa = kappa
        super().__init__(
            f"enumeration below kappa {kappa:g} exceeds the cap of "
            f"{MAX_MULTISETS:,} multisets; lower kappa"
        )


class ExcitationRecord(NamedTuple):
    """One excitation: momentum sector, energy, constituents and rank."""

    total_momentum: Momentum
    energy: float
    constituents: tuple[Momentum, ...]
    rank: int
    n_quasi: int


@dataclass
class SpectrumTable:
    """Complete spectrum below kappa, binned by total momentum.

    Sector keys are integer coordinate tuples; a missing key inside the
    window means no excitation of that momentum exists below kappa.
    entries holds each sector's (energy, n_quasi, code, text) in rank
    order.  code spells the constituents' indices into candidates as code
    points, in candidate order (index i is chr(i), so
    `tuple(map(ord, code))` gives the indices), and ties in energy and
    n_quasi rank by it; text is the constituents' CSV field, each one's
    coordinates joined by spaces and the constituents by ";".  sectors
    holds the same excitations as ExcitationRecords, built the first time
    it is read.
    The keys of both come in the order the search first reached each
    total, which is no order to rely on: a listing takes `sector_order`,
    a lookup `.get`.
    """

    lattice: LatticeSpec
    pot: Potential
    kappa: float
    window: float
    candidates: tuple[Momentum, ...]
    entries: dict[tuple[int, ...], list[tuple[float, int, str, str]]]

    @cached_property
    def sectors(self) -> dict[tuple[int, ...], list[ExcitationRecord]]:
        # Momentum is frozen, so records share one object per candidate and sector
        moms, make, L = self.candidates, ExcitationRecord._make, self.lattice.L
        return {
            total: [
                make((p, energy, tuple(moms[ord(c)] for c in code), rank, cnt))
                for rank, (energy, cnt, code, _) in enumerate(entries, 1)
            ]
            for total, entries in self.entries.items()
            for p in [Momentum(total, L)]
        }

    def sector(self, p: Momentum | tuple[int, ...]) -> list[ExcitationRecord]:
        """The records of sector p; OutOfWindowError where the search did not
        look, by the window's ball test (`ball_norm2`)."""
        key = self.lattice.momentum(p.n if isinstance(p, Momentum) else tuple(p)).n
        if sum(map(mul, key, key)) > ball_norm2(self.lattice, self.window):
            raise OutOfWindowError(f"sector {key} outside momentum window {self.window}")
        return self.sectors.get(key, [])


def _reject_repeated(modes: list[Momentum]) -> None:
    """A mode listed twice would count each multiset of it more than once."""
    repeated = sorted(n for n, c in Counter(m.n for m in modes).items() if c > 1)
    if repeated:
        raise ValueError("modes list " + ", ".join(map(str, repeated)) + " more than once")


def _candidates(
    lattice: LatticeSpec,
    pot: Potential,
    kappa: float,
    modes: list[Momentum] | None,
) -> list[tuple[tuple[int, ...], float]]:
    if modes is None:
        radius = math.sqrt(kappa) if kappa > 0.0 else 0.0
        # the cube of the ball bounds the candidates before lattice_points lists them
        if cube_exceeds(lattice, radius, MAX_MULTISETS):
            raise EnumerationBudgetError(kappa)
        modes = lattice_points(lattice, radius, include_zero=False)
    else:
        _reject_repeated(modes)
    out = []
    for m in sorted(modes, key=lambda q: q.n):
        if m.is_zero:
            continue
        e = dispersion(m, pot)
        if e <= kappa:
            out.append((m.n, e))
    return out


def enumerate_below(
    lattice: LatticeSpec,
    pot: Potential,
    kappa: float,
    momentum_window: float,
    modes: list[Momentum] | None = None,
) -> SpectrumTable:
    """Enumerate every excitation with energy <= kappa, exactly once.

    Each node's children are visited cheapest first, up to the first past
    kappa; neither the sorted entries nor the charge depends on that order.
    Constituents may lie outside the momentum window; only the total
    momentum is filtered, at emission.  Ties in energy are ranked by
    (number of quasiparticles, lexicographic constituent encoding).
    kappa and the window must be >= 0 (not NaN; an infinite window is
    valid), and given modes distinct: a repeated one raises ValueError.
    """
    if not kappa >= 0.0:  # NaN too
        raise ValueError(f"kappa must be >= 0, got {kappa}")
    if not momentum_window >= 0.0:
        raise ValueError(f"momentum window must be >= 0, got {momentum_window}")
    cand = _candidates(lattice, pot, kappa, modes)
    n = len(cand)
    energies = [e for _, e in cand]
    e_min = min(energies, default=math.inf)
    if e_min == 0.0:  # repeats of that candidate stay below kappa without end
        raise EnumerationBudgetError(kappa)
    # the root forms every candidate, and candidate i is charged n - i: a
    # floor of the search's own charge, which also keeps chr(i) in range
    if n + n * (n + 1) // 2 > MAX_MULTISETS:
        raise EnumerationBudgetError(kappa)
    # a multiset below kappa has at most kappa / e_min constituents (the
    # budget stops the search before one has MAX_MULTISETS), each with
    # coordinates in [-m, m]: the code's half-width bounds every total
    size = int(min(kappa / e_min, MAX_MULTISETS)) + 1
    m = max((abs(c) for nv, _ in cand for c in nv), default=0)
    code = MomentumCode(lattice.d, size * m)
    steps = [code.step(nv) for nv, _ in cand]
    moms = tuple(Momentum(nv, lattice.L) for nv, _ in cand)
    chars = [chr(i) for i in range(n)]
    # a constituent's CSV label; a child of the root takes it bare, any other
    # child after its parent's text and a ";"
    labels = [" ".join(map(str, nv)) for nv, _ in cand]
    tails = [";" + s for s in labels]
    del cand  # the search's stack reuses the pairs' memory
    # floor[i]: the lowest candidate energy from index i on (inf past the end)
    floor = list(itertools.accumulate(reversed(energies), min, initial=math.inf))
    floor.reverse()
    # orders[start]: the indices from start on, cheapest first and ties by
    # index; the root's is one sort, each other start's filters it when a
    # node with that start is first popped
    by_energy = sorted(range(n), key=energies.__getitem__)
    orders = {0: by_energy}
    win2 = ball_norm2(lattice, momentum_window)
    entries: dict[tuple[int, ...], list[tuple[float, int, str, str]]] = {}
    # each coded total reached: its sector's list in entries, or None outside the window
    found: dict[int, list[tuple[float, int, str, str]] | None] = {}
    # stack entries: (energy, index code, text, coded total, next candidate
    # index, the labels its children append)
    stack = [(0.0, "", "", code.origin, 0, labels)]
    tried = 0
    while stack:
        energy, enc, text, total, start, after = stack.pop()
        tried += n - start
        if tried > MAX_MULTISETS:
            raise EnumerationBudgetError(kappa)
        try:
            order = orders[start]
        except KeyError:
            order = orders[start] = [i for i in by_energy if i >= start]
        for i in order:
            ne = energy + energies[i]
            if ne > kappa:  # every later child costs at least as much
                break
            child, t = enc + chars[i], total + steps[i]
            child_text = text + after[i]
            try:
                sector = found[t]
            except KeyError:
                nv, sector = code.decode(t), None
                if sum(map(mul, nv, nv)) <= win2:
                    sector = entries[nv] = []
                found[t] = sector
            if sector is not None:
                sector.append((ne, len(child), child, child_text))
            # float addition is monotone: no extension of a leaf stays below
            # kappa, so its extensions are charged here and never formed
            if ne + floor[i] > kappa:
                tried += n - i
            else:
                stack.append((ne, child, child_text, t, i, tails))
    if tried > MAX_MULTISETS:  # the last leaves' charges
        raise EnumerationBudgetError(kappa)
    for sector in entries.values():
        sector.sort()
    return SpectrumTable(lattice, pot, kappa, momentum_window, moms, entries)


def kth_excitation(
    table: SpectrumTable, p: Momentum | tuple[int, ...], j: int
) -> float | None:
    """The j-th smallest energy in sector p, or None if unresolved.

    None means "not resolved below kappa", never "does not exist".
    """
    if j < 1:
        raise ValueError(f"rank j must be >= 1, got {j}")
    recs = table.sector(p)
    return recs[j - 1].energy if j <= len(recs) else None


@dataclass(frozen=True)
class DampingRow:
    sector: tuple[int, ...]
    e_p: float
    min_multi_energy: float | None
    unstable: bool | None


def damping_scan(table: SpectrumTable) -> list[DampingRow]:
    """Per-sector stability of the single quasiparticle.

    unstable is True when some multi-quasiparticle state of the same
    momentum lies strictly below the dispersion, False when completeness
    below kappa certifies there is none, and None (undetermined) when
    kappa is too small to decide.
    """
    rows: list[DampingRow] = []
    for n in sector_order(lattice_coords(table.lattice, table.window, include_zero=False)):
        e_p = dispersion(Momentum(n, table.lattice.L), table.pot)
        multi = [r.energy for r in table.sectors.get(n, []) if r.n_quasi >= 2]
        m = min(multi) if multi else None
        if m is not None and m < e_p:
            unstable: bool | None = True
        elif e_p <= table.kappa:
            unstable = False
        else:
            unstable = None
        rows.append(DampingRow(n, e_p, m, unstable))
    return rows


def oracle_enumerate(
    lattice: LatticeSpec,
    pot: Potential,
    kappa: float,
    p: Momentum | tuple[int, ...],
    modes: list[Momentum] | None = None,
) -> list[tuple[float, tuple[tuple[int, ...], ...]]]:
    """Brute-force reference enumeration of one sector (tests only).

    Lists its own candidates, apart from the search's: the nonzero points
    of the ball of radius sqrt(kappa), or the given modes, with
    dispersion <= kappa, sorted by coordinates.  Tries every multiset of
    them of each size up to the bound kappa / (smallest dispersion) + 1,
    via combinations_with_replacement, and keeps those with energy <=
    kappa and the requested total; returns (energy, constituents) sorted
    exactly like the main search.  Energies are summed left to right, as
    there, so near-ties rank alike.  Guarded to small instances:
    constituent shells |n| <= 5, multiset size <= 8 and at most 10^6
    multisets tried.  Refuses a NaN kappa and repeated modes, as the
    search does.  Keys p as SpectrumTable.sector does, through
    LatticeSpec.momentum: a coordinate that is not an integer, or a key
    of another dimension, raises ValueError.
    """
    if not kappa >= 0.0:  # NaN too
        raise ValueError(f"kappa must be >= 0, got {kappa}")
    target = lattice.momentum(p.n if isinstance(p, Momentum) else tuple(p)).n
    if modes is not None:
        _reject_repeated(modes)
    pts = lattice_points(lattice, math.sqrt(kappa)) if modes is None else modes
    cand = sorted((m.n, dispersion(m, pot)) for m in pts if not m.is_zero)
    cand = [(nv, e) for nv, e in cand if e <= kappa]
    if any(max(abs(c) for c in nv) > 5 for nv, _ in cand):
        raise ValueError("oracle guard: constituent shells beyond |n| = 5")
    if not cand:
        return []
    min_e = min(e for _, e in cand)
    if kappa / min_e > 8.0:
        raise ValueError("oracle guard: multiset size bound exceeds 8")
    max_size = int(kappa / min_e) + 1
    # the brute force does not prune, so bound the multisets it tries
    if math.comb(len(cand) + max_size, max_size) > 10**6:
        raise ValueError("oracle guard: more than 10^6 multisets to try")
    found: list[tuple[float, int, tuple]] = []
    for size in range(1, max_size + 1):
        for combo in itertools.combinations_with_replacement(cand, size):
            energy = 0.0
            for _, e in combo:
                energy += e
            seq = tuple(nv for nv, _ in combo)
            total = tuple(sum(col) for col in zip(*seq))
            if energy <= kappa and total == target:
                found.append((energy, size, seq))
    found.sort()
    return [(e, seq) for e, _, seq in found]
