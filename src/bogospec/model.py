"""Pair potentials and the discrete momentum lattice of a cubic torus.

Momenta live on (2*pi/L)*Z^d and are stored through their integer
coordinates, so squared norms and degeneracies are exact at the integer
level.  One integer rule, as_int, turns what a caller passes into those
coordinates and into every particle count, cap and solver count of the
ED stack: a value of integer value (2.0, a numpy integer) becomes that
Python int, and anything else raises a ValueError that names it; nothing
is truncated.  A momentum of bounded coordinates can also be carried as one
integer (MomentumCode): the excitation search and the ED basis walk add
momenta by integer additions.  One rule, ball_norm2, decides which
points every window, mode radius and lattice sum holds; a walk over the
ball, never the enclosing cube, finds them.  One shell rule holds for
every radial sum and scan (periodized_value at x = 0, bogoliubov's
energy sums, the ED Hamiltonian's vhat, validate_potential): each shell
|n|^2 = k is evaluated once, at |p| = h * sqrt(k), and weighted by its
exact integer point count (_fsum_repeated).  Potentials enter only
through their radial Fourier transform vhat >= 0; real-space values are
recovered by periodized lattice sums with rigorously bounded Gaussian tails.

One rule, summation_radius, decides where every lattice sum and the
density integral stop: a compactly supported potential at its support,
anything else at the first radius start * 1.5^k whose tail bound is
below the tolerance.  A table that does not decay, or a bound that stays
above the tolerance for 200 growths, raises TailBoundError; nothing else
does; a Gaussian too wide for the float range is such a bound in every
dimension (gaussian_integral_tail).  vhat too has one rule,
Potential.vhat_radial, in every command: past a table's last sample it
reads 0.0 if the table is compactly supported (last value 0) and raises
PotentialRangeError if not.

The module loads no numpy at import: only lattice_shells in 2D and 3D
and MomentumCode.__call__ (which only the ED stack calls) use it, and
import it where they run, so the commands that never reach them
(enumerate, dispersion, figure) start without it.  The ED stack's errors and default seed live here too, with
the other typed errors, so that the CLI can catch and print them without
loading that stack.
"""

from __future__ import annotations

import bisect
import gc
import math
from collections import deque
from dataclasses import dataclass, field
from itertools import repeat
from operator import mul
from typing import TYPE_CHECKING, Callable, Iterable, Sequence, Union

if TYPE_CHECKING:
    import numpy as np

TAU = 2.0 * math.pi

#: surface area of the unit sphere S^{d-1} for d = 1, 2, 3
SPHERE_AREA = {1: 2.0, 2: TAU, 3: 2.0 * TAU}


class PotentialRangeError(ValueError):
    """A tabulated potential was queried outside its sampled range."""


class TailBoundError(ValueError):
    """The tail of a lattice sum cannot be bounded for this potential."""


class EigenConvergenceError(RuntimeError):
    """Iterative eigensolver failed; carries the best residual norms."""

    def __init__(self, message: str, residuals: np.ndarray):
        self.residuals = residuals
        super().__init__(message)


class GroundSectorError(RuntimeError):
    """The lowest eigenvalue was not found in the zero-momentum sector."""


#: the seed of the eigensolver's random start vectors, in ed and verify
DEFAULT_SEED = 1234


#: lattice points one lattice_points ball may span, counted on the cube
#: [-m, m]^d around it.  3D energy at L = 40 (803,142 points in a cube of
#: 1,520,875) takes 0.50 s on a 2-core Xeon VM and peaks at 126 MB
#: ru_maxrss against 29 MB at L = 2, about 120 bytes a point; 1D dispersion,
#: which sorts coordinate tuples and builds a Momentum per shell only, at
#: 56 MB against 16 MB for 200,002 rows
MAX_LATTICE_POINTS = 2_500_000

#: counters one lattice_shells call may hold: its m + 1 shells in 1D, an
#: array over |n|^2 <= K above, K + 1 counters.  3D at K = 2,499,877
#: (2,083,236 shells) takes 6 s and peaks at 355 MB RSS, most of it the
#: returned list; 3D v(0) of the Gaussian 0.1:5 fits up to L = 619
#: (K = 1,363,563), past which its tail radius grows a step
MAX_SHELL_COUNTERS = 2_500_000


class LatticeBudgetError(ValueError):
    """A lattice ball needs more than the cap of points or shell counters."""

    def __init__(self, radius: float, cap: int, unit: str):
        self.radius = radius
        super().__init__(
            f"lattice ball of radius {radius:g} exceeds the cap of {cap:,} {unit}"
        )


@dataclass(frozen=True)
class LatticeSpec:
    """Cubic torus of side L >= 1 in dimension d; momentum spacing 2*pi/L."""

    L: float
    d: int

    def __post_init__(self) -> None:
        if not self.L >= 1.0:
            raise ValueError(f"torus side must satisfy L >= 1, got {self.L}")
        if self.d not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.d}")

    @property
    def spacing(self) -> float:
        return TAU / self.L

    @property
    def volume(self) -> float:
        return self.L**self.d

    def momentum(self, *n: int) -> "Momentum":
        """The momentum of integer coordinates n, given as d arguments or
        one tuple or list.  A coordinate of integer value, 2.0 or a numpy
        integer too, is taken as that int; ValueError names any other."""
        if len(n) == 1 and isinstance(n[0], (tuple, list)):
            n = tuple(n[0])
        if len(n) != self.d:
            raise ValueError(f"expected {self.d} integer coordinates, got {n}")
        return Momentum(tuple(as_int(c, "momentum coordinate") for c in n), self.L)

    @property
    def zero(self) -> "Momentum":
        return Momentum((0,) * self.d, self.L)


def as_int(value: object, what: str) -> int:
    """value as a Python int, where it has an integer value (2, 2.0, a
    numpy integer); anything else raises ValueError naming what it is,
    as in "momentum coordinate 1.5 is not an integer".  The one rule for
    every particle count, cap, solver count and sector coordinate."""
    try:
        i = int(value)
    except (TypeError, ValueError, OverflowError):
        i = None
    if i is None or i != value:
        raise ValueError(f"{what} {value!r} is not an integer")
    return i


@dataclass(frozen=True, slots=True, init=False)
class Momentum:
    """Lattice momentum p = (2*pi/L) * n, stored via integer coordinates n.

    A slotted frozen value: equality, hash, repr, replace, copy and pickle
    are the dataclass's.  Its __init__ writes the two slots through their
    member descriptors, which skips the generated frozen __init__'s
    object.__setattr__ per field.  lattice_points does not go through
    __init__: it maps object.__new__ and the same two setters over its list.
    """

    n: tuple[int, ...]
    L: float

    def __init__(self, n: tuple[int, ...], L: float) -> None:
        _set_n(self, n)
        _set_L(self, L)

    @property
    def coords(self) -> tuple[float, ...]:
        h = TAU / self.L
        return tuple(h * c for c in self.n)

    @property
    def norm2_int(self) -> int:
        """|n|^2, exact."""
        return sum(map(mul, self.n, self.n))

    @property
    def norm2(self) -> float:
        # one multiplication past the exact integer |n|^2
        return (TAU / self.L) ** 2 * self.norm2_int

    @property
    def norm(self) -> float:
        return (TAU / self.L) * math.sqrt(self.norm2_int)

    @property
    def is_zero(self) -> bool:
        return self.norm2_int == 0

    def __neg__(self) -> "Momentum":
        return Momentum(tuple(-c for c in self.n), self.L)


_set_n, _set_L = Momentum.n.__set__, Momentum.L.__set__


MomentumLike = Union[Momentum, float, int, Sequence[float]]


def as_radius(p: MomentumLike) -> float:
    """Euclidean norm of a momentum given as Momentum, scalar or vector."""
    if isinstance(p, Momentum):
        return p.norm
    if isinstance(p, (int, float)):
        return abs(float(p))
    return math.sqrt(math.fsum(float(c) * float(c) for c in p))


@dataclass(frozen=True)
class Potential:
    """Interaction defined through its radial Fourier transform vhat.

    family "gaussian": vhat(p) = amplitude * exp(-|p|^2 / width).
    family "table": linear interpolation of (|p|, value) samples; the
    first sample must sit at |p| = 0.  A table whose last value is zero
    is compactly supported and reads 0.0 past its last sample; any other
    table raises PotentialRangeError there.  Every command and lattice
    sum evaluates vhat by this one rule, vhat_radial.
    """

    family: str
    dimension: int
    amplitude: float = 0.0
    width: float = 1.0
    samples: tuple[tuple[float, float], ...] = ()
    _grid: tuple[float, ...] = field(default=(), repr=False, compare=False)
    _values: tuple[float, ...] = field(default=(), repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.dimension not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.dimension}")
        if self.family == "gaussian":
            if not 0.0 <= self.amplitude < math.inf:
                raise ValueError("gaussian family requires a finite amplitude >= 0")
            if not 0.0 < self.width < math.inf:
                raise ValueError("gaussian family requires a finite width > 0")
        elif self.family == "table":
            if len(self.samples) < 2:
                raise ValueError("table potential needs at least two samples")
            grid = tuple(float(p) for p, _ in self.samples)
            vals = tuple(float(v) for _, v in self.samples)
            if not all(map(math.isfinite, grid + vals)):
                raise ValueError("table sample momenta and values must be finite")
            if grid[0] != 0.0:
                raise ValueError("table samples must start at |p| = 0")
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ValueError("table sample momenta must be strictly increasing")
            object.__setattr__(self, "_grid", grid)
            object.__setattr__(self, "_values", vals)
        else:
            raise ValueError(f"unknown potential family {self.family!r}")

    @classmethod
    def gaussian(cls, amplitude: float, width: float, dimension: int = 1) -> "Potential":
        return cls("gaussian", dimension, amplitude=float(amplitude), width=float(width))

    @classmethod
    def zero(cls, dimension: int = 1) -> "Potential":
        return cls.gaussian(0.0, 1.0, dimension)

    @classmethod
    def table(cls, samples: Iterable[Sequence[float]], dimension: int = 1) -> "Potential":
        samp = tuple((float(p), float(v)) for p, v in samples)
        return cls("table", dimension, samples=samp)

    def snapshot(self) -> dict:
        """The defining parameters as a JSON-ready dict (CSV config headers)."""
        if self.family == "gaussian":
            params: dict = {"amplitude": self.amplitude, "width": self.width}
        else:
            params = {"samples": [list(s) for s in self.samples]}
        return {"family": self.family, "dimension": self.dimension, **params}

    @property
    def support_radius(self) -> float:
        """Radius beyond which vhat is known to vanish (inf for gaussian)."""
        if self.family == "gaussian":
            return 0.0 if self.amplitude == 0.0 else math.inf
        return self._grid[-1]

    @property
    def compactly_supported(self) -> bool:
        if self.family == "gaussian":
            return self.amplitude == 0.0
        return self._values[-1] == 0.0

    @property
    def scale(self) -> float:
        """Typical magnitude of vhat, used for default tolerances."""
        if self.family == "gaussian":
            return self.amplitude
        return max(abs(v) for v in self._values)

    def vhat_radial(self, r: float) -> float:
        """vhat at |p| = r.  A table reads 0.0 past its last sample when
        it is compactly supported and raises PotentialRangeError there
        otherwise, since no value is known."""
        if self.family == "gaussian":
            return self.amplitude * math.exp(-(r * r) / self.width)
        if r > self._grid[-1] and self.compactly_supported:
            return 0.0
        if r < self._grid[0] or r > self._grid[-1]:
            raise PotentialRangeError(
                f"|p| = {r} outside table range [{self._grid[0]}, {self._grid[-1]}]"
            )
        i = bisect.bisect_right(self._grid, r)
        if i == len(self._grid):
            return self._values[-1]
        a, b = self._grid[i - 1], self._grid[i]
        va, vb = self._values[i - 1], self._values[i]
        return va + (vb - va) * (r - a) / (b - a)


def fourier_at(pot: Potential, p: MomentumLike) -> float:
    """vhat(p) for a momentum given as Momentum, scalar or real vector."""
    return pot.vhat_radial(as_radius(p))


def ball_norm2(lattice: LatticeSpec, radius: float) -> float:
    """The ball test: n has |p| <= radius iff |n|^2 <= (radius / h)^2,
    widened by 1e-12 so that a point on the sphere (h = 0.1, radius 0.3)
    stays in whatever the rounding of h and the radius."""
    if not radius >= 0.0:  # NaN too
        raise ValueError(f"radius must be >= 0, got {radius}")
    q = radius / lattice.spacing
    return q * q * (1.0 + 1e-12)  # inf, not OverflowError, for a huge radius


def axis_bound(lattice: LatticeSpec, radius: float) -> int:
    """Largest coordinate m = |c| in the ball: it lies in the cube [-m, m]^d.
    The caller bounds radius / spacing first: an infinite bound has no floor."""
    return math.isqrt(math.floor(ball_norm2(lattice, radius)))


def cube_exceeds(lattice: LatticeSpec, radius: float, cap: int) -> bool:
    """Whether the cube [-m, m]^d around the ball of the radius (m from
    axis_bound) holds more than cap points.  A quotient radius / spacing
    over cap, infinite ones too, is over before m is formed."""
    if radius / lattice.spacing > cap:
        return True
    return (2 * axis_bound(lattice, radius) + 1) ** lattice.d > cap


def lattice_points(
    lattice: LatticeSpec, radius: float, include_zero: bool = False
) -> list[Momentum]:
    """All momenta with |p| <= radius, in lexicographic order of n: the
    points of lattice_coords.  LatticeBudgetError if the cube around the
    ball holds more than MAX_LATTICE_POINTS points.

    No Python call is made per point: the list is object.__new__ mapped
    over the class, and the n and L member setters that Momentum.__init__
    uses are mapped over it.  The whole listing, coordinates included,
    runs with the cyclic garbage collector paused, as lattice_coords
    does; that is safe because a Momentum refers only to its tuple of
    ints and a float, so the points form no reference cycle.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        coords = lattice_coords(lattice, radius, include_zero)
        points = list(map(object.__new__, repeat(Momentum, len(coords))))
        deque(map(_set_n, points, coords), maxlen=0)
        deque(map(_set_L, points, repeat(lattice.L)), maxlen=0)
    finally:
        if enabled:
            gc.enable()
    return points


def lattice_coords(
    lattice: LatticeSpec, radius: float, include_zero: bool = False
) -> list[tuple[int, ...]]:
    """The integer coordinates n of every point with |p| <= radius, in
    lexicographic order, with no Momentum built.

    Coordinates are fixed one axis at a time; each ranges over
    |c| <= isqrt(K - sum of the squares fixed so far), K = floor(ball_norm2),
    so only points of the ball are visited.  Each prefix's run along the
    last axis is built by C-level iterators, zip(*map(repeat, prefix),
    range(...)), with no Python step per point.  LatticeBudgetError if
    the cube around the ball holds more than MAX_LATTICE_POINTS points.

    The listing runs with the cyclic garbage collector paused, and enables
    it again, on return or on an error, only if it was enabled on entry.
    With the collector on, every 700 new tuples start a collection, and
    the older generations rescan all the listing already holds: half the
    time of a 3D listing at L = 40.  Tuples of ints form no reference
    cycle, so the pause leaves nothing for the collector to free.  The
    collector is enabled again with nothing allocated before the return
    (a generator context manager would allocate its StopIteration there),
    so the collection it put off falls on the caller's next allocation,
    or on none if the caller drops the list first.
    """
    if cube_exceeds(lattice, radius, MAX_LATTICE_POINTS):
        raise LatticeBudgetError(radius, MAX_LATTICE_POINTS, "points")
    K = math.floor(ball_norm2(lattice, radius))
    enabled = gc.isenabled()
    gc.disable()
    try:
        # (prefix, squared norm still allowed) over the first d - 1 axes, in order
        level: list[tuple[tuple[int, ...], int]] = [((), K)]
        for _ in range(lattice.d - 1):
            level = [(prefix + (c,), left - c * c)
                     for prefix, left in level for c in _axis_range(left)]
        coords: list[tuple[int, ...]] = []
        for prefix, left in level:
            b = math.isqrt(left)
            # left == K only on the zero prefix, whose c = 0 is the zero point
            if left == K and not include_zero:
                runs = (range(-b, 0), range(1, b + 1))
            else:
                runs = (range(-b, b + 1),)
            for run in runs:
                coords += zip(*map(repeat, prefix), run)
    finally:
        if enabled:
            gc.enable()
    return coords


def _axis_range(left: int) -> range:
    b = math.isqrt(left)
    return range(-b, b + 1)


def sector_order(keys: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Integer coordinate tuples n in (|n|^2, n) order: shell by shell,
    lexicographic within a shell.  Every listing of sectors takes it."""
    return sorted(keys, key=lambda n: (sum(c * c for c in n), n))


class MomentumCode:
    """Lattice momenta with coordinates in [-half, half] as single integers:
    each coordinate, offset by half, is one digit in base 2 * half + 1.  The
    code of 0 is origin, and adding n to a momentum adds step(n) to its
    code, so a sum of momenta is coded by integer additions alone."""

    def __init__(self, d: int, half: int):
        self.d, self.half, self.base = d, half, 2 * half + 1
        self.origin = self.step((half,) * d)

    def __call__(self, t: Sequence[int] | np.ndarray) -> int | np.ndarray:
        """The code of one momentum, or of each row of a (..., d) array, in int64."""
        import numpy as np

        code = (np.asarray(t, dtype=np.int64) + self.half) @ self.base ** np.arange(self.d)
        return code if code.ndim else int(code)

    def step(self, n: Sequence[int]) -> int:
        """What adding n adds to a code, as a Python int of any size."""
        return sum(c * self.base**a for a, c in enumerate(n))

    def decode(self, code: int) -> tuple[int, ...]:
        return tuple(code // self.base**a % self.base - self.half for a in range(self.d))


def lattice_shells(lattice: LatticeSpec, radius: float) -> list[tuple[int, int]]:
    """(k, r(k)) for each nonempty shell |n|^2 = k with |p| <= radius.

    r(k) counts exactly the points of lattice_points(..., include_zero=True)
    on the shell, k = 0 included, up to K = floor(ball_norm2).  One axis
    gives 1 point at k = 0 and 2 at each c^2, c <= isqrt(K); each further
    axis shifts only the nonempty shells by c^2, in integers, cut at K.
    Shells come in increasing k.  No point is listed, so the budget is on
    the counters: LatticeBudgetError past MAX_SHELL_COUNTERS of them.
    """
    # a quotient radius / spacing over the cap, inf too, is over before K is formed
    over = radius / lattice.spacing > MAX_SHELL_COUNTERS
    if not over:
        K = math.floor(ball_norm2(lattice, radius))
        b = math.isqrt(K)  # axis_bound
        over = (b + 1 if lattice.d == 1 else K + 1) > MAX_SHELL_COUNTERS
    if over:
        raise LatticeBudgetError(radius, MAX_SHELL_COUNTERS, "shell counters")
    shells = [(0, 1)] + [(c * c, 2) for c in range(1, b + 1)]
    if lattice.d == 1:
        return shells
    import numpy as np

    counts = np.zeros(K + 1, dtype=np.int64)
    for k, r in shells:
        counts[k] = r
    for _ in range(lattice.d - 1):
        # one more axis: its coordinate 0 keeps k, +-c moves k to k + c^2
        nonempty = np.flatnonzero(counts)
        nxt = counts.copy()
        for c in range(1, b + 1):
            s = c * c
            src = nonempty[: np.searchsorted(nonempty, K - s, side="right")]
            nxt[src + s] += 2 * counts[src]
        counts = nxt
    return [(k, int(counts[k])) for k in np.flatnonzero(counts).tolist()]


def gaussian_integral_tail(s: float, r: float, d: int) -> float:
    """Closed form of S_{d-1} * int_r^inf exp(-s t^2) t^(d-1) dt.

    In 3D, where s**1.5 leaves the float range, the erfc term takes its
    limit: 0 where s**1.5 overflows, +inf where it underflows to 0, so an
    extreme width gives a tail of 0 or one that never converges, as the
    1D and 2D forms do.
    """
    r = max(r, 0.0)
    if d == 1:
        return math.sqrt(math.pi / s) * math.erfc(math.sqrt(s) * r)
    if d == 2:
        return (math.pi / s) * math.exp(-s * r * r)
    try:
        erfc_term = math.sqrt(math.pi) * math.erfc(math.sqrt(s) * r) / (4.0 * s**1.5)
    except OverflowError:  # s**1.5 past the float range: the term is 0, as its limit
        erfc_term = 0.0
    except ZeroDivisionError:  # s**1.5 below it: the term is +inf, as its limit
        erfc_term = math.inf
    return 2.0 * TAU * (r * math.exp(-s * r * r) / (2.0 * s) + erfc_term)


def gaussian_lattice_tail(lattice: LatticeSpec, a: float, s: float, radius: float) -> float:
    """Upper bound on sum over lattice |p| > radius of a * exp(-s|p|^2).

    Each lattice cell of side 2*pi/L holds one point; a point outside the
    ball of the given radius has its whole cell outside the ball shrunk by
    half a cell diagonal, so the sum is dominated by the integral over
    that region divided by the cell volume.
    """
    if a == 0.0:
        return 0.0
    delta = 0.5 * lattice.spacing * math.sqrt(lattice.d)
    shifted = max(radius - delta, 0.0)
    cell = lattice.spacing**lattice.d
    return a * gaussian_integral_tail(s, shifted, lattice.d) / cell


def default_tail_tol(pot: Potential) -> float:
    # 1e-12 in units of the potential amplitude
    s = pot.scale
    return 1e-12 * s if s > 0.0 else 1e-12


def summation_radius(
    pot: Potential, start: float, tail: Callable[[float], float], tail_tol: float
) -> float:
    """Where a lattice sum or radial integral of pot stops.

    A compactly supported potential stops at its support; a table that
    does not decay raises TailBoundError.  Otherwise the radius is the
    smallest start * 1.5^k, k < 200, whose tail bound tail(R) is below
    tail_tol, and TailBoundError if none is.
    """
    if pot.compactly_supported:
        return pot.support_radius
    if pot.family == "table":
        raise TailBoundError("tabulated potential does not decay to zero; cannot bound tail")
    r = start
    for _ in range(200):
        if tail(r) < tail_tol:
            return r
        r *= 1.5
    raise TailBoundError("tail bound did not converge")


def _fsum_repeated(terms: Iterable[tuple[float, int]]) -> float:
    """math.fsum of each finite value repeated count times, without the repeats.

    Each v * count is an exact integer over v's power-of-two denominator;
    the terms are summed as integers over their common denominator, and
    one correctly rounded int / int division gives the float.
    """
    ratios = [v.as_integer_ratio() + (count,) for v, count in terms]
    den = max((d for _, d, _ in ratios), default=1)
    return sum(num * count * (den // d) for num, d, count in ratios) / den


def periodized_value(
    pot: Potential,
    lattice: LatticeSpec,
    x: Union[float, Sequence[float]],
    tail_tol: float | None = None,
) -> float:
    """Torus-periodized potential (1/L^d) * sum_p vhat(p) exp(i p.x).

    The sum runs over lattice points until the omitted tail is below
    tail_tol; the imaginary part must vanish to tail_tol by symmetry.
    At x = 0 every phase is 1, so vhat is evaluated once per shell of
    lattice_shells and weighted exactly by the shell's point count
    (`_fsum_repeated`): the same float as the fsum of the per-point
    terms, at a cost per shell rather than per point.
    """
    if tail_tol is None:
        tail_tol = default_tail_tol(pot)
    if not tail_tol > 0.0:
        raise ValueError("tail_tol must be > 0")
    xv = (float(x),) if isinstance(x, (int, float)) else tuple(float(c) for c in x)
    if len(xv) != lattice.d:
        raise ValueError(f"x must have {lattice.d} coordinates, got {len(xv)}")
    radius = summation_radius(
        pot, 4.0 * lattice.spacing,
        lambda r: (1.0 / lattice.volume) * gaussian_lattice_tail(
            lattice, pot.amplitude, 1.0 / pot.width, r),
        tail_tol)
    if not any(xv):
        h = lattice.spacing
        shells = [(pot.vhat_radial(h * math.sqrt(k)), count)
                  for k, count in lattice_shells(lattice, radius)]
        return _fsum_repeated(shells) / lattice.volume
    re_terms: list[float] = []
    im_terms: list[float] = []
    for p in lattice_points(lattice, radius, include_zero=True):
        v = pot.vhat_radial(p.norm)
        if v == 0.0:
            continue
        phase = math.fsum(c * xc for c, xc in zip(p.coords, xv))
        re_terms.append(v * math.cos(phase))
        im_terms.append(v * math.sin(phase))
    re = math.fsum(re_terms) / lattice.volume
    im = math.fsum(im_terms) / lattice.volume
    if abs(im) >= tail_tol:
        raise ArithmeticError(f"periodized sum has imaginary part {im}")
    return re


@dataclass
class ValidationResult:
    """Outcome of a nonnegativity scan of vhat and of v at the origin."""

    ok: bool
    violations: list[tuple[object, float]]
    warnings: list[str]


def validate_potential(
    pot: Potential, lattice: LatticeSpec, radius: float
) -> ValidationResult:
    """Check vhat >= 0 on lattice points within radius and v(0) >= 0.

    The scan follows the one shell rule: vhat is read once per shell of
    lattice_shells, outward, and stops at the first shell a table that
    does not decay leaves uncovered, with a "scan truncated" warning.
    Only a negative shell lists lattice_points; its points are the
    violations, in lattice order.
    """
    if not radius >= 0.0:  # NaN too
        raise ValueError(f"radius must be >= 0, got {radius}")
    violations: list[tuple[object, float]] = []
    warnings: list[str] = []
    if radius == 0.0:
        warnings.append("radius 0: no lattice points checked (vacuous pass)")
        return ValidationResult(True, violations, warnings)
    if pot.family == "table" and not pot.compactly_supported:
        warnings.append(
            "tabulated potential does not decay to zero; tail bounds unavailable"
        )
    h = lattice.spacing
    negative: dict[int, float] = {}  # vhat < 0 on the shell |n|^2 = k
    for k, _ in lattice_shells(lattice, radius):
        r = h * math.sqrt(k)
        try:
            v = pot.vhat_radial(r)
        except PotentialRangeError:
            warnings.append(f"table does not cover |p| = {r:.6g}; scan truncated")
            break
        if v < 0.0:
            negative[k] = v
    if negative:
        violations += [(p, negative[p.norm2_int])
                       for p in lattice_points(lattice, radius, include_zero=True)
                       if p.norm2_int in negative]
    try:
        v0 = periodized_value(pot, lattice, (0.0,) * lattice.d)
        if v0 < 0.0:
            violations.append(("v(0)", v0))
    except TailBoundError:
        warnings.append("real-space check at x = 0 skipped: tail unboundable")
    return ValidationResult(not violations, violations, warnings)
