"""Truncated-Fock-space exact diagonalization in momentum-conserving blocks.

Basis states are occupation tuples over a finite symmetric mode set
(|p| <= mode_radius, zero mode always kept) with the particle number fixed
and the excited-particle count optionally capped.  `build_basis` builds
only the sectors asked for, by a walk over the excited modes that numpy
runs one mode (level) at a time, pruned exactly by a reach table that
gives, per mode and partial momentum, the fewest particles still needed
to reach a requested sector; momenta there, and the pair momenta of the
move table, are single integers (model's MomentumCode).  Assembled
matrices are exact compressions P H P of the second-quantized operators
to that basis, so operator inequalities survive as matrix inequalities
per sector.  The cube's signed coordinate permutations leave the mode
set, the cap, |p|^2 and the radial vhat unchanged, so sectors k and g.k
share a spectrum, and `many_body_excitations` solves one sector per
orbit of its keys.  Counts and sector keys follow model's one integer
rule (`as_int`): EDConfig's particle number and cap, the solvers' count,
the quadratic's max_occupation and every sector coordinate take a value
of integer value (2.0, a numpy integer) as that int and refuse any other
with a ValueError that names it; none is truncated.

Every operator, number-conserving or not, is assembled on one
representation of its basis: the (n_states, n_modes) occupation array
and one packed integer key per state, its occupations as the digits of a
mixed-radix number (`_Occupations`), packed once, at construction.
Every move, the +/- pair moves of the estimating and quadratic
Hamiltonians included (`_Occupations.pair_entries`), finds its target by
key arithmetic: the target key is the source key plus the place values
of the modes the move fills, less those of the modes it empties, and is
looked up in the sorted keys.  Moves are vectorised
over the states, and each entry adds the same terms in the same order as
a per-state loop would, so the matrices equal that loop's bit for bit
(see `assemble_hamiltonian`).  The Hamiltonian's interaction
coefficients and mode moves form a move table (`_MoveTable`) that each
EDConfig builds once, vectorised, for its whole mode set.  A sector then
lists the (state, mode pair) entries its states can empty and takes only
those pairs' moves, in slices of about PAIR_SLICE (state, move) pairs, a
few numpy calls per slice, which bounds the memory a slice holds.

A SectorMatrix holds its own CSR arrays, built by numpy (`_csr`), and
gives the dense matrix, its diagonal and a row-by-row product.  np.bincount
adds its weights one at a time, in order, onto 0.0: the product's rows
sum as scipy's CSR product sums them, and the Hamiltonian's diagonal
terms onto each state's kinetic energy as the per-state loop sums them,
both bit for bit.  A sector of at most DENSE_FALLBACK_DIM states is
solved densely, a larger one by a numpy block Davidson solver on that
product; both report a degenerate multiplet that straddles the count
whole.  The solver's only randomness is its start noise, uniform on
[-1, 1) and drawn by the standard library's `random.Random(seed)`, so
`--seed` seeds that generator and nothing else, and no command loads
`numpy.random`.  Neither path loads scipy: it is imported only where
something reads `SectorMatrix.matrix`, a scipy view over the same
arrays.  So no command of the CLI loads scipy at all.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .model import (  # the errors and DEFAULT_SEED are re-exported
    DEFAULT_SEED,
    EigenConvergenceError,
    GroundSectorError,
    LatticeSpec,
    Momentum,
    MomentumCode,
    Potential,
    PotentialRangeError,
    as_int,
    lattice_points,
    periodized_value,
)

#: occupation vector over the mode list, basis element of a sector
FockState = tuple[int, ...]

DENSE_FALLBACK_DIM = 512

#: the vectors the Davidson block carries past the eigenvalues asked for:
#: enough to hold the triplets of the cubic group whole
DAVIDSON_GUARD = 3
#: the Davidson subspace restarts where it would pass this many columns
#: (or three times the block, if that is more)
DAVIDSON_SUBSPACE = 40
#: the half-width of the seeded noise in the Davidson start vectors,
#: uniform on [-DAVIDSON_NOISE, DAVIDSON_NOISE), next to their unit part:
#: large enough to give every symmetry class a component, small enough to
#: leave the start close to the unit vectors (on the ed-1d sector, normal
#: noise of standard deviation 1e-2 took about 1.5 times the products of
#: 1e-4)
DAVIDSON_NOISE = 1e-4
#: Rayleigh-Ritz steps before the Davidson solver gives up
DAVIDSON_MAX_ITER = 1000
#: a new Davidson direction whose norm falls below this, after it was
#: normalised and orthogonalised against the subspace, is left out
DAVIDSON_DEPENDENT = 1e-8

#: about the most (state, move) pairs, or diagonal (state, pair) entries,
#: one slice of `assemble_hamiltonian` handles (more only by the moves of
#: one entry).  Each pair holds its packed target key (8
#: bytes a key word), its indices, roots and coefficients: about 140
#: bytes at peak (tracemalloc, 1D N = 64 and 3D sectors of 13-17k
#: states), so a slice's arrays grow with this bound.  On the ed-1d
#: benchmark sector (526 states, 9 modes, 18,476 (state, move) pairs)
#: slices of 2**13 hold 0.9 MB (1.3%) more peak RSS than 2**11 and run no
#: faster (medians of 6 alternating benchmark runs each).  The small
#: sectors of verify still take all their moves in one slice.
PAIR_SLICE = 2**11

#: states one requested sector's basis may hold, else BasisSizeError
MAX_BASIS_STATES = 2_000_000


class BasisSizeError(ValueError):
    """A sector basis exceeded MAX_BASIS_STATES states."""

    def __init__(self, sector: tuple[int, ...], size: int, cap: int, suggestion: int):
        self.sector = sector
        self.size = size
        self.suggestion = suggestion
        super().__init__(
            f"sector {sector} basis has {size} states (cap {cap}); "
            f"try max_excited <= {suggestion}"
        )


def default_max_excited(n_particles: int) -> int:
    """Default excited-particle cap used by the drivers."""
    return min(n_particles, 8)


@dataclass(frozen=True)
class EDConfig:
    """One diagonalization setup; mean-field coupling L^d/N is implied.

    n_particles and max_excited are stored as Python ints by model's
    integer rule (`as_int`): 4.0 and np.int64(4) give the configuration
    of 4, and 4.5 raises ValueError.  A negative or NaN mode_radius
    raises ValueError naming it.
    """

    n_particles: int
    lattice: LatticeSpec
    pot: Potential
    mode_radius: float
    max_excited: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_particles", as_int(self.n_particles, "n_particles"))
        if self.max_excited is not None:
            object.__setattr__(self, "max_excited", as_int(self.max_excited, "max_excited"))
        if self.n_particles < 1:
            raise ValueError("need at least one particle")
        if self.pot.dimension != self.lattice.d:
            raise ValueError("potential and lattice dimensions differ")
        if not self.mode_radius >= 0.0:  # NaN too
            raise ValueError(f"mode_radius must be >= 0, got {self.mode_radius}")

    @property
    def effective_max_excited(self) -> int:
        if self.max_excited is None:
            return self.n_particles
        return min(self.max_excited, self.n_particles)

    def modes(self) -> list[Momentum]:
        """Symmetric mode set, zero mode included, lexicographic order."""
        return list(self._modes)

    # computed once per configuration, however many sectors are assembled
    @cached_property
    def _modes(self) -> tuple[Momentum, ...]:
        return tuple(lattice_points(self.lattice, self.mode_radius, include_zero=True))

    @cached_property
    def v0real(self) -> float:
        """The periodized potential v(0) at x = 0, computed once per configuration."""
        return periodized_value(self.pot, self.lattice, (0.0,) * self.lattice.d)

    @cached_property
    def _moves(self) -> _MoveTable:
        # the interaction's move table, built once per configuration
        return _move_table(self)

    def snapshot(self) -> dict:
        return {
            "N": self.n_particles,
            "L": self.lattice.L,
            "dimension": self.lattice.d,
            "mode_radius": self.mode_radius,
            "max_excited": self.max_excited,
            "potential": self.pot.snapshot(),
        }


def build_basis(
    cfg: EDConfig, sectors: Iterable[Sequence[int]] | None = None
) -> dict[tuple[int, ...], list[FockState]]:
    """Occupation vectors with sum N and excited count <= cap, by sector.

    Returns exactly the requested sectors, deduplicated, each sorted (empty
    if unreachable); None means every reachable sector, in the order the
    walk first reaches them.  The walk gives each excited mode, in index
    order, 0..left particles (left: what the cap still allows) and the
    zero mode the rest.  It runs level by level in numpy: each level
    expands the frontier of partial states by one excited mode, children
    in increasing count, so the frontier keeps the order of a depth-first
    walk, and holds only each child's parent and count; the states are
    read back from the leaves at the end.  Momenta are single integers
    (`MomentumCode`).  With sectors the walk keeps only nodes that reach
    one: the reach table (`_reach_table`) tells whether the particles
    left, on the modes still to come, can carry the momentum so far to a
    requested sector.

    Only a requested sector over MAX_BASIS_STATES raises BasisSizeError,
    naming the sector the walk overfills first.  Every node kept owns at
    least one leaf, so a walk that cuts each level to its first limit
    nodes ends in exactly limit leaves, a prefix of the full walk's.  With
    sectors, limit = len(sectors) * MAX_BASIS_STATES + 1 and a cut prefix
    overfills some sector; with sectors=None limit starts at
    MAX_BASIS_STATES + 1 and doubles while a cut walk overfills none.  That
    bounds the memory by the walk's own prefix and keeps the first
    overflow.  Its suggestion, the largest max_excited at which all sectors
    fit, is bisected by trial walks cut the same way.
    """
    keys = None if sectors is None else list(dict.fromkeys(map(_sector_key, sectors)))
    modes = cfg._modes
    d = cfg.lattice.d
    zero = modes.index(cfg.lattice.zero)
    excited = [i for i in range(len(modes)) if i != zero]
    cap = cfg.effective_max_excited
    most = MAX_BASIS_STATES
    if cap < 0:
        return {k: [] for k in keys or ()}
    # cap particles carry each coordinate at most span from 0
    span = cap * max((abs(c) for i in excited for c in modes[i].n), default=0)
    code = MomentumCode(d, 2 * span)
    steps = [code.step(modes[i].n) for i in excited]
    small = np.min_scalar_type(cfg.n_particles)  # holds every count and occupation
    if keys is None:
        reach = None
    else:
        # a key of another dimension, or past span, is reached by no walk
        near = [code(k) for k in keys if len(k) == d and max(map(abs, k)) <= span]
        table = _reach_table(near, steps, cap)
        # the table's momenta in order, then one past every momentum, which
        # reaches no key
        reach_at = np.array([*sorted(table), code.base**d], dtype=np.int64)
        reach = np.array([*map(table.get, reach_at[:-1].tolist()), [-1] * (cap + 1)],
                         dtype=np.int64)

    def kept(total: np.ndarray, left: np.ndarray, level: int) -> np.ndarray:
        # the nodes whose left particles, on the modes from level on, reach a key
        at = reach_at.searchsorted(total)
        return (reach_at[at] == total) & (reach[at, left] >= level)

    def grow(top: int, limit: int) -> tuple[np.ndarray, np.ndarray, list]:
        # (total, left) of the leaves at excited cap top, in walk order, and
        # each level's (parent, count), every level cut to its first limit nodes
        index = np.int32 if limit <= 2**31 else np.int64  # indexes those nodes
        total, left = np.array([code.origin], dtype=np.int64), np.array([top], dtype=np.int64)
        if reach is not None:
            on = kept(total, left, 0)
            total, left = total[on], left[on]
        levels = []
        for j, step in enumerate(steps):
            # every parent's children 0..left, parent by parent: walk order
            width = left + 1
            if reach is None:  # the parents of the first limit children
                width = width[:width.cumsum().searchsorted(limit) + 1]
            parent = np.arange(len(width), dtype=index).repeat(width)
            c = np.arange(len(parent)) - (width.cumsum() - width).repeat(width)
            total, left = total[parent] + c * step, left[parent] - c
            on = slice(limit) if reach is None else kept(total, left, j + 1).nonzero()[0][:limit]
            parent, c, total, left = parent[on], c[on], total[on], left[on]
            levels.append((parent, c.astype(small)))
        return total, left, levels

    def overflows(total: np.ndarray) -> bool:
        return len(total) > most and np.unique(total, return_counts=True)[1].max() > most

    def walk(top: int) -> tuple[np.ndarray, np.ndarray, list]:
        # a cut walk ends in exactly limit leaves; doubled while those fit
        limit = (1 if keys is None else len(keys)) * most + 1
        while len((grown := grow(top, limit))[0]) == limit and not overflows(grown[0]):
            limit *= 2
        return grown

    total, left, levels = walk(cap)
    if overflows(total):
        _, sector, size = np.unique(total, return_inverse=True, return_counts=True)
        over = min(int(np.flatnonzero(sector == s)[most])
                   for s in np.flatnonzero(size > most).tolist())
        fits = bisect.bisect_left(range(cap), True, key=lambda m: overflows(walk(m)[0]))
        key = code.decode(int(total[over]))
        raise BasisSizeError(key, most + 1, most, max(fits - 1, 0))
    occ = np.empty((len(modes), len(total)), dtype=small)
    occ[zero] = cfg.n_particles - cap + left
    at = np.arange(len(total))
    for j in range(len(steps) - 1, -1, -1):
        parent, c = levels[j]
        occ[excited[j]] = c[at]
        at = parent[at]
    # by sector, then each sector's states in tuple order
    order = np.lexsort((*occ[::-1], total))
    states: list[FockState] = []
    for lo in range(0, len(order), 2**14):  # no list of lists of the whole basis
        states += map(tuple, occ[:, order[lo:lo + 2**14]].T.tolist())
    total = total[order]
    cut = ((total[1:] != total[:-1]).nonzero()[0] + 1).tolist()
    built, first = {}, {}
    for lo, hi in zip([0, *cut], [*cut, len(total)] if len(total) else []):
        key = code.decode(int(total[lo]))
        built[key], first[key] = states[lo:hi], int(order[lo:hi].min())
    return {k: built.get(k, []) for k in (sorted(built, key=first.get) if keys is None else keys)}


def _reach_table(keys: list[int], steps: list[int], cap: int) -> dict[int, list[int]]:
    """reach[t][v]: the largest j such that v particles on the modes of
    steps[j:] can carry the momentum t to some key, else -1; a t that no
    v <= cap carries is left out.  Momenta and steps are
    `MomentumCode` integers and their steps.

    The fewest particles that do so, need(j, t), can only fall as j falls,
    so the row of t records the level at which it first drops to each v,
    and a node at level j with left particles reaches a key iff
    reach[t][left] >= j.  need is relaxed from the last mode down, one
    level at a time: c particles on mode j take t - c * step to t at a
    cost of c.  Only entries below cap can extend, and a chain stops at
    an entry no dearer, whose own chain covers the rest.
    """
    best = dict.fromkeys(keys, 0)  # need(j, t) at the level being relaxed
    reach = {k: [len(steps)] * (cap + 1) for k in keys}
    cheap = dict(best) if cap > 0 else {}  # the entries of best below cap
    for j in range(len(steps) - 1, -1, -1):
        step = steps[j]
        for t, cost in list(cheap.items()):
            for v in range(cost + 1, cap + 1):
                t -= step
                have = best.get(t, cap + 1)
                if have <= v:
                    break
                best[t] = v
                if v < cap:
                    cheap[t] = v
                reach.setdefault(t, [-1] * (cap + 1))[v:have] = [j] * (have - v)
    return reach


@dataclass
class SectorMatrix:
    """Sparse symmetric operator block on one sector basis, held as the
    CSR arrays `_csr` builds: row i has the entries data[a:b] in the
    columns indices[a:b], a = indptr[i] and b = indptr[i + 1], columns
    increasing, explicit zeros kept."""

    sector: tuple[int, ...] | None
    basis: list[FockState]
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    kind: str  # the assembler's tag, "H" for assemble_hamiltonian; perfbench's tracer reads it

    @property
    def dim(self) -> int:
        return len(self.indptr) - 1

    @property
    def nnz(self) -> int:
        return len(self.data)

    @cached_property
    def matrix(self) -> "scipy.sparse.csr_matrix":
        """A scipy CSR matrix over the same arrays, built (and scipy.sparse
        imported) when first read."""
        import scipy.sparse as sp

        return sp.csr_matrix((self.data, self.indices, self.indptr), shape=(self.dim, self.dim))

    @cached_property
    def _rows(self) -> np.ndarray:
        """The row of each stored entry."""
        return np.repeat(np.arange(self.dim), np.diff(self.indptr))

    def toarray(self) -> np.ndarray:
        """The dense matrix; each entry is added onto 0.0, as scipy's
        toarray adds it, so a stored -0.0 reads +0.0."""
        dense = np.zeros((self.dim, self.dim))
        dense[self._rows, self.indices] += self.data
        return dense

    def diagonal(self) -> np.ndarray:
        """The diagonal, each entry added onto 0.0 as in toarray."""
        on = self.indices == self._rows
        diag = np.zeros(self.dim)
        diag[self.indices[on]] += self.data[on]
        return diag

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """M @ x for a vector x, or for each column of a (dim, k) array,
        bit for bit as scipy's CSR product: for each column, np.bincount
        adds each row's products data * x[col] one at a time, in storage
        order, onto 0.0."""
        x = np.asarray(x)
        vecs = x.reshape(self.dim, -1)
        out = np.empty(vecs.shape)
        for j in range(vecs.shape[1]):
            # a contiguous copy of the column gathers faster than the strided column
            gathered = np.ascontiguousarray(vecs[:, j]).take(self.indices)
            out[:, j] = np.bincount(self._rows, self.data * gathered, self.dim)
        return out.reshape(x.shape)


def _negation_index(modes: Sequence[Momentum]) -> list[int]:
    """neg[i] is the index of the mode -modes[i]; the set must be symmetric."""
    index = {m.n: i for i, m in enumerate(modes)}
    return [index[tuple(-c for c in m.n)] for m in modes]


class _Occupations:
    """A basis as its (n_states, n_modes) int64 occupation array and one
    packed integer key per state, packed once, at construction.

    The key writes the occupations in mixed radix, the first mode the
    most significant digit, so keys sort as the states do.  Mode m's
    radix is its largest occupation in the basis + 3.  Every move finds
    its target by key arithmetic, its source's key plus and minus the
    place values of the modes moved (`place`), as no digit of a target
    carries or borrows: a Hamiltonian move adds at most 2 to a mode and
    empties only occupied modes (`_occupied_pairs`), and a +/- pair move
    keeps only the states whose changed digits stay in [0, radix)
    (`pair_entries`).  The modes are split, in order, over as few uint64
    words as hold their digits: keys is (n_states, words), searched as
    uint64 with one word and with more as words * 8-byte void, the words
    big-endian, so that their bytes compare as the keys do and the sorted
    keys stay in state order.  A basis that lists a state twice is rejected.
    """

    def __init__(self, states: Sequence[FockState], nmode: int):
        self.occ = np.array(states, dtype=np.int64).reshape(len(states), nmode)
        self.radix = self.occ.max(axis=0, initial=0) + 3
        radix = self.radix.tolist()
        words: list[list[int]] = []
        size = 2**64  # the digits the word being filled holds
        for m, r in enumerate(radix):
            if size * r > 2**64:
                words.append([])
                size = 1
            words[-1].append(m)
            size *= r
        place = [[0] * len(words) for _ in range(nmode)]
        for w, modes in enumerate(words):
            value = 1
            for m in reversed(modes):
                place[m][w] = value
                value *= radix[m]
        #: place[m]: the key of one particle in mode m, one uint64 per word
        self.place = np.array(place, dtype=np.uint64).reshape(nmode, len(words))
        self._word = np.dtype(np.uint64 if len(words) == 1 else ">u8")
        self._search = np.dtype(np.uint64 if len(words) == 1 else (np.void, 8 * len(words)))
        self.keys = self.occ.astype(np.uint64) @ self.place  # each digit below its radix
        searched = self._searched(self.keys)
        self._order = np.argsort(searched)
        self._sorted = searched[self._order]
        if np.any(self._sorted[1:] == self._sorted[:-1]):
            raise ValueError("basis lists a state twice")

    def _searched(self, keys: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(keys, dtype=self._word).view(self._search).ravel()

    def find(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(hit, rows): keys[hit] are basis states, at basis indices rows."""
        keys = self._searched(keys)
        pos = np.searchsorted(self._sorted, keys)
        hit = np.flatnonzero(self._sorted[np.minimum(pos, len(self._sorted) - 1)] == keys)
        return hit, self._order[pos[hit]]

    def fsum(self, weight: np.ndarray) -> np.ndarray:
        """math.fsum over the modes of weight[m] * n_m, per state."""
        return np.array([math.fsum(row) for row in (self.occ * weight).tolist()])

    def pair_entries(
        self, modes: list[int], change: tuple[int, ...], lowering: Callable, raising: Callable
    ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """[lowering, raising]: the (rows, cols, entries) of the +/- pair
        p, q = modes[:2], p < q = -p, moving the occupations of modes by
        change, and by -change.  Each target key is the source key plus the
        change times the modes' place values, in uint64, which wraps where
        the change is negative; states whose changed digits would leave
        [0, radix), then those whose target is not in the basis, are
        dropped.  lowering(x, m, -m) and raising(x, m, -m) give mode m's
        term on the source occupations x; each entry adds p's and q's onto
        0.0 in that order.
        """
        p, q = modes[:2]
        change, out = np.array(change), []
        for step, term in ((change, lowering), (-change, raising)):
            digits = self.occ[:, modes] + step
            # a borrow would leave a digit of max + 1 or + 2, which no state has; checked anyway
            inside = np.flatnonzero(((digits >= 0) & (digits < self.radix[modes])).all(axis=1))
            hit, rows = self.find(self.keys[inside] + step.astype(np.uint64) @ self.place[modes])
            hit = inside[hit]
            x = self.occ[hit]
            out.append((rows, hit, (0.0 + term(x, p, q)) + term(x, q, p)))
        return out


@dataclass(frozen=True)
class _MoveTable:
    """The interaction's coefficients and mode moves on one mode set.

    pair_coef[a, b] is inv2n * vhat(k) of the transfer k = mode b - mode
    a, the coefficient of the diagonal terms (t2 in {p, q}).  The moves
    {p <= q} -> {t1 <= t2} of one source pair, in (t1, t2) order, are
    the rows [move_start[p * n_modes + q], move_start[p * n_modes + q + 1])
    of target and coef; coef holds inv2n * v of the four ordered variants
    (p, q, t2, t1), (p, q, t1, t2), (q, p, t2, t1), (q, p, t1, t2) in loop
    order, 0.0 for a variant that repeats an earlier one.  A move whose
    every variant has v == 0 is left out.  Where vhat_radial raised (a
    transfer past the last sample of a table that does not decay), the
    coefficient is NaN and vhat_error holds the PotentialRangeError,
    raised by the first sector that needs such a transfer.
    """

    pair_coef: np.ndarray  # (n_modes, n_modes)
    move_start: np.ndarray  # (n_modes**2 + 1,)
    target: np.ndarray  # (moves, 2): t1, t2
    coef: np.ndarray  # (moves, 4 variant slots)
    vhat_error: PotentialRangeError | None

    def check(self, coef: np.ndarray, at: np.ndarray | tuple[np.ndarray, ...]) -> None:
        """Raise vhat_error if one of the coefficients coef[at] a sector needs is NaN."""
        if self.vhat_error is not None and np.isnan(coef[at]).any():
            raise PotentialRangeError(*self.vhat_error.args)


def _move_table(cfg: EDConfig) -> _MoveTable:
    """The configuration's `_MoveTable`, vectorised over its mode set.

    vhat follows model's one shell rule: it is read once per distinct
    transfer |k|^2, outward, at h sqrt(|k|^2), the float Momentum.norm
    gives, so no Momentum is built per transfer vector.  vhat_error is
    the error of the smallest |k| past a table that does not decay.
    """
    modes = cfg._modes
    nmode = len(modes)
    d = cfg.lattice.d
    mode_n = np.array([m.n for m in modes], dtype=np.int64).reshape(nmode, d)
    # vhat of every transfer mode b - mode a, once per distinct |k|^2
    transfer = (mode_n[None, :, :] - mode_n[:, None, :]).reshape(-1, d)
    shells, kindex = np.unique((transfer * transfer).sum(axis=1), return_inverse=True)
    h = cfg.lattice.spacing
    kvals, error = [], None
    for k in shells.tolist():
        try:
            kvals.append(cfg.pot.vhat_radial(h * math.sqrt(k)))
        except PotentialRangeError as exc:
            kvals.append(math.nan)
            error = error or exc
    vhat = np.array(kvals, dtype=np.float64)[kindex].reshape(nmode, nmode)
    inv2n = 1.0 / (2.0 * cfg.n_particles)

    # two pairs of one total momentum are equal or disjoint, so the moves
    # are the ordered (source, target) pairs of distinct pairs in a group
    first, second = np.triu_indices(nmode)  # pairs p <= q in (p, q) order
    # a sum of two modes has coordinates in [-half, half]: one integer key per sum
    key = MomentumCode(d, 2 * int(np.abs(mode_n).max()))
    _, group = np.unique(key(mode_n[first] + mode_n[second]), return_inverse=True)
    members = np.argsort(group, kind="stable")  # each group's pairs in (p, q) order
    group_size = np.bincount(group)
    size = group_size[group]  # the size of each pair's group
    group_start = (np.cumsum(group_size) - group_size)[group]
    source = np.repeat(np.arange(len(group)), size)
    run_start = np.cumsum(size) - size
    target = members[np.arange(size.sum()) + np.repeat(group_start - run_start, size)]
    keep = source != target
    source, target = source[keep], target[keep]
    p, q, t1, t2 = first[source], second[source], first[target], second[target]
    same_p, same_t = p == q, t1 == t2
    v = np.stack([
        vhat[p, t1],
        np.where(same_t, 0.0, vhat[p, t2]),
        np.where(same_p, 0.0, vhat[q, t1]),
        np.where(same_p | same_t, 0.0, vhat[q, t2]),
    ], axis=1)
    keep = (v != 0.0).any(axis=1)  # NaN counts as nonzero
    pair = p[keep] * nmode + q[keep]
    return _MoveTable(
        inv2n * vhat,
        np.concatenate([[0], np.cumsum(np.bincount(pair, minlength=nmode * nmode))]),
        np.stack([t1[keep], t2[keep]], axis=1),
        inv2n * v[keep],
        error,
    )


def _csr(
    rows: Sequence[np.ndarray], cols: Sequence[np.ndarray], vals: Sequence[np.ndarray], dim: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(indptr, indices, data) of distinct (row, col) entries given in any
    order: rows in order, each row's columns increasing, explicit zeros
    kept.  These are the arrays scipy's COO -> CSR conversion gives, index
    dtype included: int32 while dim and the entry count fit it."""
    rows, cols, vals = np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
    order = np.argsort(rows * dim + cols)  # distinct keys: any sort gives one order
    index = np.int32 if max(dim, len(vals)) <= np.iinfo(np.int32).max else np.int64
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=dim))])
    return indptr.astype(index), cols[order].astype(index), vals[order]


def sector_basis(
    cfg: EDConfig, sector: Sequence[int], basis: list[FockState] | None = None
) -> tuple[tuple[int, ...], list[FockState]]:
    """(key, basis) of one sector: its integer coordinate tuple, and the
    given basis unchanged or else the one build_basis builds for it."""
    key = _sector_key(sector)
    return key, basis if basis is not None else build_basis(cfg, [key])[key]


def _sector_key(sector: Sequence[int]) -> tuple[int, ...]:
    # a key of any length: one of another dimension is reached by no walk
    return tuple(as_int(c, "momentum coordinate") for c in sector)


def _occupied_pairs(occ: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(state, p, q) of every ordered mode pair (p, q) that a_q a_p can
    empty on a state, a particle in p and another in q, sorted by
    (state, p, q)."""
    st, md = np.nonzero(occ)  # occupied (state, mode), by state then mode
    count = np.bincount(st, minlength=len(occ))
    k = count[st]  # each occupied mode pairs with the k occupied modes of its state
    e = np.repeat(np.arange(len(st)), k)
    partner = np.arange(len(e)) + np.repeat((np.cumsum(count) - count)[st] - (np.cumsum(k) - k), k)
    s, p, q = st[e], md[e], md[partner]
    ok = (p != q) | (occ[s, p] >= 2)
    return s[ok], p[ok], q[ok]


def assemble_hamiltonian(
    cfg: EDConfig, sector: Sequence[int], basis: list[FockState] | None = None
) -> SectorMatrix:
    """Full many-body Hamiltonian on one momentum sector.

    Kinetic part sum_p |p|^2 n_p on the diagonal; interaction
    (1/2N) sum vhat(k) a+_{p+k} a+_{q-k} a_q a_p with the transfer k
    evaluated at exact lattice momenta (which may exceed the mode
    radius; only the modes themselves are truncated).

    The mode moves a_q a_p -> a+_{t2} a+_{t1} (t1 = p + q - t2) come from
    the configuration's move table (`_MoveTable`), built once per
    EDConfig.  Each call lists the mode pairs p <= q each state can
    empty (`_occupied_pairs`) and vectorises over those (state, pair)
    entries and their moves, in slices of about PAIR_SLICE, so its work
    follows the pairs the sector's states occupy, not the whole mode
    set.  Each entry is
    still summed in the order of a loop over states, then (p, q, t2): the
    kinetic fsum first, then each term
    (v/2N) * (sqrt(a) sqrt(b) sqrt(c+1) sqrt(e+1)), its factors
    multiplied in that order, terms with v == 0 left out.  The diagonal
    terms (t2 in {p, q}) of a state are added one at a time in (p, q, t2)
    order, over ordered pairs (`_diagonal`); a term with v == 0 adds
    exactly zero there.  Off the diagonal, momentum conservation makes
    {p, q} and {t1, t2} disjoint, so an entry comes from a single
    unordered move {p <= q} -> {t1 <= t2}; its ordered variants (at most
    four) are summed one slot at a time in loop order and the entry is
    written once.  Target states are found by exact search of their
    packed keys (`_Occupations`).  A basis that lists a state twice is
    rejected.  A transfer past the last sample of a table that does not
    decay raises PotentialRangeError, only in a sector that needs it.
    """
    key, states = sector_basis(cfg, sector, basis)
    # an entry past the float range is kept as inf or NaN: lowest_eigenvalues refuses it
    with np.errstate(over="ignore", invalid="ignore"):
        rows, cols, vals = _hamiltonian_entries(cfg, _Occupations(states, len(cfg._modes)))
    return SectorMatrix(key, states, *_csr(rows, cols, vals, len(states)), "H")


def _diagonal(
    kinetic: np.ndarray,
    table: _MoveTable,
    root: Callable[[int | np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    s: np.ndarray,
    p: np.ndarray,
    q: np.ndarray,
) -> np.ndarray:
    """kinetic plus the diagonal terms (t2 in {p, q}) of the ordered pairs
    `_occupied_pairs` lists, each state's added one at a time in
    (p, q, t2) order, as the per-state loop adds them: np.bincount adds
    its weights in order, each state's kinetic energy first.

    An ordered pair (a, b) gives two cells, in increasing t2: the t2 = a
    term pair_coef[a, a] * (((ra rb) rb) ra) and the t2 = b term
    pair_coef[a, b] * (((ra rb) ra) rb), or 0.0 when a = b, which adds
    exactly nothing onto a sum that starts at kinetic >= 0.  Terms are
    computed in slices of PAIR_SLICE pairs.  bincount's sums start at
    0.0, and 0.0 + kinetic is kinetic, as kinetic is never -0.0; they are
    int64 where there are no states, hence the cast.
    """
    terms = np.empty((len(s), 2))
    for lo in range(0, len(s), PAIR_SLICE):
        i, a, b = s[lo:lo + PAIR_SLICE], p[lo:lo + PAIR_SLICE], q[lo:lo + PAIR_SLICE]
        table.check(table.pair_coef, (a, b))
        ra, rb = root(1, a, i), root(1 - (a == b), b, i)
        own = table.pair_coef[a, a] * (((ra * rb) * rb) * ra)  # t2 = a: vhat(0)
        other = np.where(a == b, 0.0, table.pair_coef[a, b] * (((ra * rb) * ra) * rb))
        terms[lo:lo + PAIR_SLICE, 0] = np.where(a <= b, own, other)
        terms[lo:lo + PAIR_SLICE, 1] = np.where(a <= b, other, own)
    n = len(kinetic)
    at = np.concatenate([np.arange(n), np.repeat(s, 2)])
    return np.bincount(at, np.concatenate([kinetic, terms.ravel()]), n).astype(float)


def _hamiltonian_entries(
    cfg: EDConfig, basis_occ: _Occupations
) -> tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray]]:
    """(rows, cols, values) of `assemble_hamiltonian`'s entries: the
    diagonal first, then the moves of each slice."""
    modes = cfg._modes
    nmode = len(modes)
    occ = basis_occ.occ
    n = len(occ)
    table = cfg._moves
    # roots[((1 + s) * nmode + m) * n + i] = sqrt(n_m + s) on state i,
    # s = -1..2: every square root a term takes, each rounded once as
    # math.sqrt rounds it (n_m - 1 < 0 is clipped and read only by a zero term)
    roots = np.sqrt(np.maximum(occ.T + np.arange(-1, 3)[:, None, None], 0).astype(np.float64))
    roots = roots.ravel()

    def root(level: int | np.ndarray, m: np.ndarray, i: np.ndarray) -> np.ndarray:
        """sqrt(n_m + level - 1) on states i."""
        return roots.take((level * nmode + m) * n + i)

    s, p, q = _occupied_pairs(occ)
    kinetic = basis_occ.fsum(np.array([m.norm2 for m in modes]))
    diag = _diagonal(kinetic, table, root, s, p, q)

    # Off the diagonal: every (state, source pair p <= q) entry takes each
    # move of its pair.  Entries go by source pair, then state, and a
    # slice's (state, move) pairs by move, so the targets a slice searches
    # come nearly in basis order.  Slices hold whole entries, so a slice
    # holds about PAIR_SLICE (state, move) pairs, more only by one entry's moves
    pair = p * nmode + q
    by_pair = np.flatnonzero(p <= q)  # the entries: the pairs p <= q
    # numpy sorts keys of 16 bits or fewer stably by radix
    by_pair = by_pair[np.argsort(pair[by_pair].astype(np.min_scalar_type(nmode * nmode)),
                                 kind="stable")]
    s, p, q, pair = s[by_pair], p[by_pair], q[by_pair], pair[by_pair]
    start = table.move_start[pair]
    count = table.move_start[pair + 1] - start
    # sqrt(n_p) sqrt(n_q - [p == q]), the first two factors of every variant
    # of an entry's moves: (q, p, ...) multiplies the same two roots in the
    # other order, which rounds the same, and is a 0.0 slot when p == q
    pair_root = root(1, p, s) * root(1 - (p == q), q, s)
    # each entry's source key less one particle in p and one in q; a move
    # adds its t1 and t2 to give its target's key, no digit out of range
    place = basis_occ.place
    emptied = basis_occ.keys.take(s, axis=0) - place.take(p, axis=0) - place.take(q, axis=0)
    end = np.cumsum(count)
    cuts = np.searchsorted(end, np.arange(PAIR_SLICE, end[-1] if len(end) else 0, PAIR_SLICE),
                           side="right")
    bounds = [0, *cuts.tolist(), len(end)]
    rows, cols, vals = [np.arange(n)], [np.arange(n)], [diag]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        c = count[lo:hi]
        entry = np.repeat(np.arange(lo, hi), c)  # each (state, move) pair's entry
        if not len(entry):
            continue
        move = np.arange(len(entry)) + np.repeat(start[lo:hi] - (np.cumsum(c) - c), c)
        span = start[hi - 1] + c[-1] - start[lo]  # moves from start[lo] on
        by_move = np.argsort((move - start[lo]).astype(np.min_scalar_type(span)), kind="stable")
        entry, move = entry[by_move], move[by_move]
        table.check(table.coef, move)
        i = s.take(entry)
        t1, t2 = table.target.take(move, axis=0).T
        target = emptied.take(entry, axis=0) + place.take(t1, axis=0) + place.take(t2, axis=0)
        hit, target_rows = basis_occ.find(target)
        entry, move, i, t1, t2 = entry[hit], move[hit], i[hit], t1[hit], t2[hit]
        # variants (., ., t2, t1) end sqrt(n_t2 + 1) sqrt(n_t1 + 1 + [t1 == t2]),
        # variants (., ., t1, t2) the other way round
        at = i + 2 * nmode * n  # root level 2 of mode 0 on state i
        rise = (t1 == t2) * (nmode * n)
        sources = pair_root.take(entry)
        amp_21 = (sources * roots.take(at + t2 * n)) * roots.take(at + t1 * n + rise)
        amp_12 = (sources * roots.take(at + t1 * n)) * roots.take(at + t2 * n + rise)
        coef = table.coef.take(move, axis=0)
        value = np.zeros(len(hit))
        for j, amp in enumerate((amp_21, amp_12, amp_21, amp_12)):
            value += coef[:, j] * amp
        rows.append(target_rows)
        cols.append(i)
        vals.append(value)
    return rows, cols, vals


def assemble_estimating(
    cfg: EDConfig,
    sector: Sequence[int],
    eps: float,
    sign: int,
    basis: list[FockState] | None = None,
) -> SectorMatrix:
    """Estimating Hamiltonian H_{N,+eps} (sign=+1) or H_{N,-eps} (sign=-1).

    H_{N,-eps} bounds the Hamiltonian from below for 0 < eps <= 1 and
    H_{N,+eps} from above for eps > 0; both inequalities survive the
    compression to the truncated basis.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if eps <= 0.0:
        raise ValueError("eps must be > 0")
    if sign < 0 and eps > 1.0:
        raise ValueError("lower estimate requires 0 < eps <= 1")
    key, states = sector_basis(cfg, sector, basis)
    modes = cfg._modes
    nmode = len(modes)
    basis_occ = _Occupations(states, nmode)
    zero_idx = modes.index(cfg.lattice.zero)
    neg_of = _negation_index(modes)
    excited = np.arange(nmode) != zero_idx
    norm2 = np.array([m.norm2 for m in modes])
    vhat_m = np.array([cfg.pot.vhat_radial(m.norm) for m in modes])
    n_part = cfg.n_particles
    v0hat = cfg.pot.vhat_radial(0.0)
    v0real = cfg.v0real
    # the signed eps flips both the condensate-weighted term and the
    # coefficient (1 + 1/(sign*eps)) of the excited-pair repulsion
    eps_signed = sign * eps
    coef_last = (1.0 + 1.0 / eps_signed) * v0real * cfg.lattice.volume / (2.0 * n_part)
    const = 0.5 * v0hat * (n_part - 1)
    n0 = basis_occ.occ[:, zero_idx]
    ngt = n_part - n0
    diag = const + basis_occ.fsum(np.where(excited, norm2 + vhat_m, 0.0))
    diag -= basis_occ.fsum(np.where(excited, vhat_m + 0.5 * v0hat, 0.0)) * ngt / n_part
    diag += 0.5 * v0hat * ngt / n_part
    diag += eps_signed / n_part * n0 * basis_occ.fsum(np.where(excited, vhat_m + v0hat, 0.0))
    diag += coef_last * ngt * (ngt - 1)
    n = len(states)
    entries = [(np.arange(n), np.arange(n), 0.0 + diag)]

    # pairing (1/2N) sum_{p != 0} vhat(p) (a0+ a0+ a_p a_{-p} + hc); the
    # raising terms of p and -p multiply the same roots in another order
    def lowering(x, m, mm):  # a0+ a0+ a_{-m} a_m
        z = x[:, zero_idx]
        amp = np.sqrt(x[:, m]) * np.sqrt(x[:, mm]) * np.sqrt(z + 1) * np.sqrt(z + 2)
        return vhat_m[m] * amp / (2.0 * n_part)

    def raising(x, m, mm):  # a+_m a+_{-m} a0 a0
        z = x[:, zero_idx]
        amp = np.sqrt(z) * np.sqrt(z - 1) * np.sqrt(x[:, mm] + 1) * np.sqrt(x[:, m] + 1)
        return vhat_m[m] * amp / (2.0 * n_part)

    for p, q in enumerate(neg_of):  # the zero mode is its own negation
        if p < q and vhat_m[p] != 0.0:
            entries += basis_occ.pair_entries([p, q, zero_idx], (-1, -1, 2), lowering, raising)
    kind = "H+eps" if sign > 0 else "H-eps"
    return SectorMatrix(key, states, *_csr(*zip(*entries), n), kind)


def assemble_kinetic(
    cfg: EDConfig, sector: Sequence[int], basis: list[FockState] | None = None
) -> SectorMatrix:
    """Kinetic energy sum_p |p|^2 n_p (diagonal)."""
    key, states = sector_basis(cfg, sector, basis)
    modes = cfg._modes
    diag = _Occupations(states, len(modes)).fsum(np.array([m.norm2 for m in modes]))
    idx = np.arange(len(states))
    return SectorMatrix(key, states, *_csr([idx], [idx], [diag], len(states)), "T")


def assemble_excited_count(
    cfg: EDConfig, sector: Sequence[int], basis: list[FockState] | None = None
) -> SectorMatrix:
    """Excited-particle number N^> (diagonal)."""
    key, states = sector_basis(cfg, sector, basis)
    modes = cfg._modes
    n0 = _Occupations(states, len(modes)).occ[:, modes.index(cfg.lattice.zero)]
    diag = (cfg.n_particles - n0).astype(np.float64)
    idx = np.arange(len(states))
    return SectorMatrix(key, states, *_csr([idx], [idx], [diag], len(states)), "Ngt")


def assemble_bogoliubov_quadratic(
    modes: list[Momentum], pot: Potential, max_occupation: int
) -> SectorMatrix:
    """Quadratic Bogoliubov Hamiltonian on a per-mode occupation cutoff.

    sum_{p != 0} (|p|^2 + vhat(p)) a+_p a_p
    + (1/2) sum_{p != 0} vhat(p) (a_p a_{-p} + a+_p a+_{-p})
    on modes given in +/- pairs; particle number is not conserved so the
    truncation caps each mode's occupation instead.  A basis of more than
    400,000 states is refused before any state is built, with the largest
    max_occupation that fits.
    """
    max_occupation = as_int(max_occupation, "max_occupation")
    if max_occupation < 0:
        raise ValueError("max_occupation must be >= 0")
    modes = sorted(modes, key=lambda m: m.n)
    if any(m.is_zero for m in modes):
        raise ValueError("the zero mode does not enter the quadratic Hamiltonian")
    keys = {m.n for m in modes}
    if len(keys) != len(modes) or any(tuple(-c for c in k) not in keys for k in keys):
        raise ValueError("modes must come in distinct +/- pairs")
    nmode = len(modes)
    dim = (max_occupation + 1) ** nmode
    if dim > 400_000:
        per_mode = round(400_000 ** (1 / nmode))  # occupations 0..per_mode - 1 fit
        while per_mode**nmode > 400_000:
            per_mode -= 1
        raise ValueError(f"occupation basis has {dim} states (cap 400000); "
                         f"try max_occupation <= {per_mode - 1}")
    neg_of = _negation_index(modes)
    vhat_m = np.array([pot.vhat_radial(m.norm) for m in modes])
    diag_w = np.array([m.norm2 for m in modes]) + vhat_m
    states = list(itertools.product(range(max_occupation + 1), repeat=nmode))
    basis_occ = _Occupations(states, nmode)
    entries = [(np.arange(dim), np.arange(dim), basis_occ.fsum(diag_w))]

    def lowering(x, m, mm):  # (1/2) vhat(p) a_p a_{-p}: annihilate -p first, then p
        return 0.5 * vhat_m[m] * (np.sqrt(x[:, mm]) * np.sqrt(x[:, m]))

    def raising(x, m, mm):  # (1/2) vhat(p) a+_p a+_{-p}: create -p first, then p
        return 0.5 * vhat_m[m] * (np.sqrt(x[:, mm] + 1) * np.sqrt(x[:, m] + 1))

    for p, q in enumerate(neg_of):
        if p < q and vhat_m[p] != 0.0:
            entries += basis_occ.pair_entries([p, q], (-1, -1), lowering, raising)
    return SectorMatrix(None, states, *_csr(*zip(*entries), dim), "HBog")


@dataclass(frozen=True)
class EigenResult:
    values: np.ndarray
    residuals: np.ndarray
    method: str


def _require_tol(tol: float) -> None:
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol}")


def lowest_eigenvalues(
    m: SectorMatrix,
    count: int,
    tol: float = 1e-9,
    seed: int = DEFAULT_SEED,
) -> EigenResult:
    """The `count` smallest eigenvalues with residual norms, ascending.

    Dense solve up to DENSE_FALLBACK_DIM states, else a block Davidson solve
    (`_davidson`) on `SectorMatrix.matvec`'s products, whose start and
    growth vectors take their noise from `random.Random(seed)`.  Its block
    carries DAVIDSON_GUARD vectors past the count asked for, so it holds
    every member of a multiplet up to that size, and it stops only when
    all the block's residuals are at most tol * ||M||_inf.  Where the
    count-th and (count + 1)-th values lie within that bound, a cluster
    straddles count, and both paths return it whole, so more than count
    values come back: the bound is computed once, before the path is
    chosen, and on both paths `_multiplet_end` extends count while the
    next value lies within it of the last; the Davidson block grows until
    it holds the cluster and DAVIDSON_GUARD more.  Residuals are |M x - value x|
    with the products of matvec, which sums as scipy's CSR product does;
    the Davidson path raises EigenConvergenceError if one of them exceeds
    the bound.  Neither path loads scipy, nor numpy.random.
    A matrix with a non-finite entry raises ValueError before any solve;
    a value or residual that overflows (numpy's warnings are off while
    they form) raises EigenConvergenceError.
    """
    _require_tol(tol)
    dim = m.dim
    count = as_int(count, "count")
    if count < 1 or count > dim:
        raise ValueError(f"count must be in [1, {dim}], got {count}")
    if not np.isfinite(m.data).all():
        raise ValueError(f"the matrix of sector {m.sector} has a non-finite entry")
    with np.errstate(over="ignore", invalid="ignore"):  # the checks below see what overflows
        bound = tol * _inf_norm(m)
        if dim <= DENSE_FALLBACK_DIM or count >= dim - 1:
            w, v = np.linalg.eigh(m.toarray())  # ascending
            want = _multiplet_end(w, count, bound)
            vals, vecs, method = w[:want], v[:, :want], "dense"
        else:
            vals, vecs = _davidson(m, count, bound, seed)
            method = "davidson"
        product = m.matvec(vecs)
        residuals = np.array([float(np.linalg.norm(product[:, j] - vals[j] * vecs[:, j]))
                              for j in range(len(vals))])
    if not np.isfinite(residuals).all():  # a non-finite value has one too
        raise EigenConvergenceError(
            f"{method} solver gave a non-finite eigenvalue or residual", residuals)
    if method == "davidson" and np.any(residuals > bound):  # dense ones are reported, not checked
        raise EigenConvergenceError("Davidson solver residuals exceed tolerance", residuals)
    return EigenResult(values=vals, residuals=residuals, method=method)


def _multiplet_end(values: np.ndarray, count: int, bound: float) -> int:
    """count, extended while the next of the ascending values lies within
    bound of the last: a multiplet that straddles count is kept whole."""
    while count < len(values) and values[count] - values[count - 1] <= bound:
        count += 1
    return count


def _inf_norm(m: SectorMatrix) -> float:
    """||m||_inf, the largest absolute row sum, each row summed as scipy's
    sum(axis=1) sums it."""
    if not m.nnz:
        return 0.0
    starts = m.indptr[np.flatnonzero(np.diff(m.indptr))]
    return float(np.add.reduceat(np.abs(m.data), starts).max())


def _davidson(
    m: SectorMatrix, count: int, bound: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """(values, vectors) of the lowest eigenpairs of m by block Davidson
    (E. R. Davidson, J. Comput. Phys. 17, 87 (1975)): count of them, or
    more where a cluster straddles count (`lowest_eigenvalues`).

    The block of count + DAVIDSON_GUARD vectors starts as unit vectors on
    the smallest diagonal entries plus DAVIDSON_NOISE times values uniform
    on [-1, 1) drawn by `random.Random(seed)` (`_uniform`), which gives it
    a component in every symmetry class; the columns a growing block adds
    come from the same generator.  Each step takes the Rayleigh-Ritz pairs
    of the orthonormal subspace V, and stops once every pair of the block
    has residual at most bound.
    Otherwise each unconverged residual r of a Ritz pair (value, x) is
    Jacobi-preconditioned with Olsen's correction (J. Olsen et al., Chem.
    Phys. Lett. 169, 463 (1990)): t = P (r - e x), with P = 1 / (value -
    diagonal) and e such that t is orthogonal to x.  Without e, t would
    be x itself where the diagonal is the whole matrix (a free
    Hamiltonian), and the solve would stall.  The corrections join V
    after two Gram-Schmidt passes against it and a QR among themselves
    (`_orthonormal_extension`).  Where V would pass DAVIDSON_SUBSPACE
    columns, it first restarts on its lowest 2 * block Ritz vectors: the
    block's and as many next ones, which speeds up the pairs at the
    block's upper edge (on the 13,081-state 3D zero sector, 55 steps
    where a restart on the block alone took 116).  Past DAVIDSON_MAX_ITER
    steps it raises EigenConvergenceError.
    """
    dim = m.dim
    diag = m.diagonal()
    noise = random.Random(seed)
    block = min(count + DAVIDSON_GUARD, dim)
    start = DAVIDSON_NOISE * _uniform(noise, dim, block)
    start[np.argsort(diag, kind="stable")[:block], np.arange(block)] += 1.0
    basis = _orthonormal_extension(np.empty((dim, 0)), start)
    image = m.matvec(basis)
    floor = max(bound, np.finfo(float).tiny)  # the preconditioner's least |value - diagonal|
    for _ in range(DAVIDSON_MAX_ITER):
        small = basis.T @ image
        theta, s = np.linalg.eigh(0.5 * (small + small.T))
        kept = s[:, :2 * block]  # the block's Ritz vectors and as many next ones
        ritz, ritz_image = basis @ kept, image @ kept
        theta = theta[:block]
        resid = ritz_image[:, :block] - ritz[:, :block] * theta
        norms = np.linalg.norm(resid, axis=0)
        open_ = np.flatnonzero(norms > bound)
        if not len(open_):
            want = _multiplet_end(theta, count, bound)
            if want + DAVIDSON_GUARD <= block or block == dim:
                return theta[:want], ritz[:, :want]
            # too few guard vectors behind the cluster: grow the block and go on
            block = min(want + DAVIDSON_GUARD, dim)
            extra = _uniform(noise, dim, max(0, block - basis.shape[1]))
        else:
            shift = theta[open_] - diag[:, None]
            shift = np.where(np.abs(shift) < floor, np.copysign(floor, shift), shift)
            x, extra, px = ritz[:, open_], resid[:, open_] / shift, ritz[:, open_] / shift
            # Olsen's term keeps each correction off its Ritz vector x
            num, den = np.sum(x * extra, axis=0), np.sum(x * px, axis=0)
            extra -= np.divide(num, den, out=np.zeros_like(num), where=den != 0) * px
        if basis.shape[1] + extra.shape[1] > max(DAVIDSON_SUBSPACE, 3 * block):
            basis, image = ritz, ritz_image
        new = _orthonormal_extension(basis, extra)
        basis = np.hstack([basis, new])
        image = np.hstack([image, m.matvec(new)])
    raise EigenConvergenceError(
        f"Davidson solver did not converge within its cap of {DAVIDSON_MAX_ITER} iterations "
        f"({block - len(open_)}/{block} Ritz pairs within tolerance)", norms[:count]
    )


def _uniform(noise: random.Random, rows: int, cols: int) -> np.ndarray:
    """A (rows, cols) array uniform on [-1, 1), in steps of 2**-52: the
    top 53 bits of each little-endian 8-byte word of noise's next
    8 * rows * cols random bytes, scaled."""
    words = np.frombuffer(noise.randbytes(8 * rows * cols), dtype="<u8")
    return ((words >> 11) * 2.0**-52 - 1.0).reshape(rows, cols)


def _orthonormal_extension(basis: np.ndarray, extra: np.ndarray) -> np.ndarray:
    """Orthonormal columns, orthogonal to basis's (orthonormal) ones, that
    span the part of extra's columns outside basis's span.

    Each column is normalised, taken through two Gram-Schmidt passes
    against basis, and normalised again; one the passes cut to
    DAVIDSON_DEPENDENT or below lies (nearly) in basis's span and is left
    out.  QR then makes the columns orthonormal.  Its pivot p on a column
    measures how far that column lies outside the span of the ones before
    it, and costs the QR'd columns about eps / p of their orthogonality
    to basis; so where a pivot is below 1e-2, all of it is done again on
    the QR'd columns, less those whose pivot fell to DAVIDSON_DEPENDENT.
    (On the ed-1d sector the pivots were 0.2-1.)
    """
    while extra.shape[1]:
        extra = extra / np.maximum(np.linalg.norm(extra, axis=0), np.finfo(float).tiny)
        for _ in range(2):
            extra = extra - basis @ (basis.T @ extra)
        norms = np.linalg.norm(extra, axis=0)
        extra = extra[:, norms > DAVIDSON_DEPENDENT] / norms[norms > DAVIDSON_DEPENDENT]
        q, r = np.linalg.qr(extra)
        pivots = np.abs(np.diag(r))
        if np.all(pivots >= 1e-2):
            return q
        extra = q[:, pivots > DAVIDSON_DEPENDENT]
    return extra


@dataclass
class EDResult:
    """Low spectrum per sector of one configuration: raw eigenvalues and
    gaps over the ground state, keyed by sector in request order, the zero
    sector first when it was not requested."""

    cfg: EDConfig
    e_ground: float
    sector_values: dict[tuple[int, ...], np.ndarray]
    sector_gaps: dict[tuple[int, ...], np.ndarray]
    sector_residuals: dict[tuple[int, ...], np.ndarray]


def many_body_excitations(
    cfg: EDConfig,
    sectors: Sequence[Sequence[int]],
    count: int,
    tol: float = 1e-9,
    seed: int = DEFAULT_SEED,
) -> EDResult:
    """Diagonalize the requested sectors and report excitation gaps.

    The keys keep request order, the zero sector, which hosts the ground
    state, put first when it is not requested.  A ground state found
    elsewhere signals a truncation artifact.  For the zero sector the
    ground state itself is skipped and subsequent gaps are reported.  Each
    sector reports a cluster that straddles its count whole, so it may
    hold more values than asked for (`lowest_eigenvalues`).

    One sector is solved per orbit of keys under the signed coordinate
    permutations g of the cube: the mode ball, |p|^2, the cap and the
    radial vhat are unchanged by g (a LatticeSpec has one side L, a
    Potential is radial), so sector g.k has the spectrum of sector k.  An
    orbit is named by its sorted absolute coordinates; its first
    requested member is built and solved, and every member reports that
    solve's values and residuals, each in its own array copy.
    """
    _require_tol(tol)
    count = as_int(count, "count")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    keys = list(dict.fromkeys(map(_sector_key, sectors)))
    zero = (0,) * cfg.lattice.d
    if zero not in keys:
        keys.insert(0, zero)
    first: dict[tuple[int, ...], tuple[int, ...]] = {}
    solved = {k: first.setdefault(tuple(sorted(map(abs, k))), k) for k in keys}
    basis_map = build_basis(cfg, first.values())
    missing = [k for k in keys if not basis_map[solved[k]]]
    if missing:
        raise ValueError(f"no basis states in sectors {missing}")

    spectra: dict[tuple[int, ...], EigenResult] = {}
    for key, basis in basis_map.items():
        want = count + 1 if key == zero else count
        want = min(want, len(basis))
        mat = assemble_hamiltonian(cfg, key, basis)
        spectra[key] = lowest_eigenvalues(mat, want, tol=tol, seed=seed)
    values = {k: spectra[s].values.copy() for k, s in solved.items()}
    residuals = {k: spectra[s].residuals.copy() for k, s in solved.items()}
    scale = max(float(np.max(np.abs(v))) for v in values.values())
    guard = tol * max(1.0, scale)
    e_ground = values[zero][0]
    for k, v in values.items():
        if k != zero and v[0] < e_ground - guard:
            raise GroundSectorError(
                f"lowest eigenvalue {v[0]} found in sector {k}, below sector-0 "
                f"value {e_ground}: truncation artifact"
            )
    # no gap is below -guard: each v ascends, and v[0] >= e_ground - guard
    gaps = {k: (v[1:] if k == zero else v) - e_ground for k, v in values.items()}
    return EDResult(cfg, float(e_ground), values, gaps, residuals)
