"""Closed-form Bogoliubov quantities: dispersion, transformation
coefficients, ground-state energy and its infinite-volume density.

Every formula is kept in a rationalized, cancellation-free form (the
difference A - sqrt(A^2 - B^2) is never evaluated through a subtraction
of nearly equal numbers unless that is the quantity under test), and
lattice sums go shell by shell through model._fsum_repeated, which rounds
the exact sum of each summand times its point count once, as math.fsum
rounds the per-point sum, so results reproduce bit-for-bit whatever the
order of the terms.
A formula that leaves the reals or the float range is refused by a
ValueError naming the first |p| where it does, and its vhat, before any
value is returned: the dispersion where |p|^2 + 2 vhat < 0 or it is not
finite, the rotation where alpha rounds to 1, an energy summand or a
density integrand that is not finite.
numpy is loaded only where it runs: by the density quadrature, and by
model.lattice_shells, which counts the shells of `bogoliubov_energy` in
integers (in 2D and 3D).  The lattice_points listing that
`bogoliubov_energy` keeps serves only its n_terms and its lattice budget.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Collection

from .model import (
    LatticeSpec,
    Momentum,
    MomentumLike,
    Potential,
    SPHERE_AREA,
    TAU,
    _fsum_repeated,
    as_radius,
    gaussian_integral_tail,
    gaussian_lattice_tail,
    lattice_points,
    lattice_shells,
    summation_radius,
)

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class BogoCoefficients:
    """Bogoliubov rotation data at one momentum.

    A = |p|^2 + vhat(p) and B = vhat(p) are the diagonal and pairing
    weights of the quadratic Hamiltonian; alpha = tanh(2*beta) in (0, 1),
    c = cosh(2*beta), s = sinh(2*beta) and e is the quasiparticle energy.
    """

    A: float
    B: float
    alpha: float
    beta: float
    c: float
    s: float
    e: float


def _radial_dispersion(r: float, v: float) -> float:
    """|p| sqrt(|p|^2 + 2 vhat) at |p| = r, vhat = v; ValueError naming
    both where it is imaginary (|p|^2 + 2 vhat < 0) or not finite."""
    q = r * r + 2.0 * v
    e = r * math.sqrt(q) if q >= 0.0 else math.nan
    if not math.isfinite(e):
        raise ValueError(f"the Bogoliubov dispersion at |p| = {r!r} is "
                         f"{'imaginary' if q < 0.0 else 'not finite'} (vhat = {v!r})")
    return e


def dispersion(p: MomentumLike, pot: Potential) -> float:
    """Elementary excitation energy |p| * sqrt(|p|^2 + 2 vhat(p)); ValueError
    naming |p| and vhat where it is imaginary or not finite."""
    r = as_radius(p)
    if r == 0.0:
        raise ValueError("dispersion undefined at p = 0; the zero mode is excluded")
    return _radial_dispersion(r, pot.vhat_radial(r))


def coefficients(p: MomentumLike, pot: Potential) -> BogoCoefficients:
    """Diagonalizing coefficients at p, computed without cancellation.

    ValueError, naming |p| and vhat, where the dispersion is imaginary or
    not finite (`_radial_dispersion`) or alpha rounds to 1, where beta
    and c would be infinite.
    """
    r = as_radius(p)
    if r == 0.0:
        raise ValueError("coefficients undefined at p = 0; the zero mode is excluded")
    v = pot.vhat_radial(r)
    r2 = r * r
    e = _radial_dispersion(r, v)
    # alpha = (A - sqrt(A^2 - B^2))/B rationalized; exact 0 when vhat = 0
    alpha = v / (r2 + v + e)
    if not abs(alpha) < 1.0:
        raise ValueError(f"the Bogoliubov rotation at |p| = {r!r} is singular: alpha rounds "
                         f"to 1 (vhat = {v!r})")
    beta = 0.5 * math.atanh(alpha)
    c = 1.0 / math.sqrt(1.0 - alpha * alpha)
    s = alpha * c
    return BogoCoefficients(A=r2 + v, B=v, alpha=alpha, beta=beta, c=c, s=s, e=e)


def identity_residuals(p: MomentumLike, pot: Potential) -> tuple[float, float, float]:
    """Residuals of the three hyperbolic-coefficient identities at p."""
    co = coefficients(p, pot)
    r = as_radius(p)
    v = co.B
    r2 = r * r
    root = math.sqrt(r2 + 2.0 * v)
    d = co.c - co.s
    res1 = abs(d * d - r / root)
    res2 = abs(co.s * d - v / (r2 + 2.0 * v + r * root))
    res3 = abs(2.0 * co.s * co.c * d * d - v / (r2 + 2.0 * v))
    return (res1, res2, res3)


@dataclass(frozen=True)
class EnergySummary:
    """Ground-state energy sum and the finite-volume energy density.

    e_bog is -1/2 sum_{p != 0} (A_p - e_p) evaluated by direct
    subtraction, e_bog_alt the algebraically equal rationalized sum
    B_p^2 / (A_p + e_p); density_limit is the full-lattice energy density
    vhat(0)/2 - (1/(2 L^d)) sum_{all p} (A_p - e_p), the finite-L value
    that converges to the infinite-volume density integral.
    """

    e_bog: float
    e_bog_alt: float
    n_terms: int
    density_limit: float


def bogoliubov_energy(
    lattice: LatticeSpec, pot: Potential, tail_tol: float | None = None
) -> EnergySummary:
    """Bogoliubov energy -1/2 sum_{p != 0} (A_p - sqrt(A_p^2 - B_p^2)).

    The sum runs over all lattice points within a radius chosen so that
    the omitted tail, each summand being at most vhat(p)^2/|p|^2, is
    below tail_tol.  It follows model's one shell rule: lattice_shells
    counts the points by |n|^2 = k in integers, each shell's summands are
    evaluated once at |p| = h sqrt(k), and `_energy_sums` weights them by
    the shell's point count, the same floats as the fsum of the per-point
    terms.  lattice_points lists the points only for n_terms and for its
    LatticeBudgetError, which comes before any the shell counters could
    raise.
    """
    # default honours tail_tol = 1e-10 * max(1, |e_bog|) >= 1e-10
    if tail_tol is None:
        tail_tol = 1e-10
    if not tail_tol > 0.0:
        raise ValueError("tail_tol must be > 0")
    h = lattice.spacing
    a2 = pot.amplitude * pot.amplitude

    def tail(r: float) -> float:
        # summand <= amplitude^2 * exp(-2|p|^2/width) / R^2 beyond radius R
        r_eff = max(r, h)
        return 0.5 * (gaussian_lattice_tail(lattice, a2, 2.0 / pot.width, r) / (r_eff * r_eff))

    radius = summation_radius(pot, h, tail, tail_tol)
    n_terms = len(lattice_points(lattice, radius, include_zero=False))
    shells = lattice_shells(lattice, radius)[1:]  # all but the zero point
    e_bog, e_bog_alt = _energy_sums([(h * math.sqrt(k), count) for k, count in shells], pot)
    v0 = pot.vhat_radial(0.0)
    density = 0.5 * v0 * (1.0 - 1.0 / lattice.volume) + e_bog / lattice.volume
    return EnergySummary(
        e_bog=e_bog, e_bog_alt=e_bog_alt, n_terms=n_terms, density_limit=density
    )


def _energy_sums(shells: Collection[tuple[float, int]], pot: Potential) -> tuple[float, float]:
    """-1/2 sum (A - e) and -1/2 sum B^2/(A + e) over shells (|p|, point
    count), each summand evaluated once per shell and weighted exactly by
    its count (`_fsum_repeated`): the fsum of the per-point terms.  A
    summand that is not finite raises ValueError naming its |p|."""
    direct, rational = [], []
    for r, count in shells:
        v = pot.vhat_radial(r)
        e = _radial_dispersion(r, v)
        a = r * r + v
        direct.append((a - e, count))
        rational.append((v * v / (a + e), count))
    try:
        return -0.5 * _fsum_repeated(direct), -0.5 * _fsum_repeated(rational)
    except (OverflowError, ValueError):  # an inf or NaN summand has no integer ratio
        r = next(r for (r, _), (a, _), (b, _) in zip(shells, direct, rational)
                 if not (math.isfinite(a) and math.isfinite(b)))
        raise ValueError(f"the Bogoliubov summand at |p| = {r!r} is not finite "
                         f"(vhat = {pot.vhat_radial(r)!r})") from None


def bogoliubov_energy_on_modes(modes: list[Momentum], pot: Potential) -> float:
    """Bogoliubov energy restricted to an explicit (truncated) mode set:
    the rationalized sum of `_energy_sums` over the modes grouped by |p|."""
    return _energy_sums(Counter(q.norm for q in modes if not q.is_zero).items(), pot)[1]


@dataclass(frozen=True)
class DensityLimit:
    value: float
    error_estimate: float
    r_max: float
    step: float


def energy_density_limit(pot: Potential, *, step: float = 0.005) -> DensityLimit:
    """Infinite-volume energy density.

    Returns vhat(0)/2 - (1/(2 (2 pi)^d)) * integral of
    |p|^2 + vhat(p) - |p| sqrt(|p|^2 + 2 vhat(p)) over R^d, in mean-field
    units, together with a quadrature + tail error estimate.  The integral
    is a composite Simpson rule of the given step, checked against half it;
    the grids take at least 2 and 4 intervals of [0, r_max], so the check
    grid is the finer one even where the step passes r_max.  An integrand
    that is not finite on either grid (vhat < 0 near p = 0, or a grid past
    the float range) raises ValueError naming its first such |p| and vhat.
    """
    if not step > 0.0:
        raise ValueError("quadrature step must be > 0")
    import numpy as np

    d = pot.dimension
    r_max = summation_radius(
        pot, 1.0, lambda r: _integrand_tail(pot, r), 1e-16 * max(1.0, pot.amplitude))
    if pot.compactly_supported:
        r_max, tail = max(r_max, 4.0 * step), 0.0
    else:
        tail = _integrand_tail(pot, r_max)

    def radial(r: np.ndarray) -> np.ndarray:
        v = np.array([pot.vhat_radial(t) for t in r.tolist()])
        with np.errstate(over="ignore", invalid="ignore"):  # refused below, by name
            f = (r * r + v - r * np.sqrt(r * r + 2.0 * v)) * r ** (d - 1)
        bad = ~np.isfinite(f)
        if bad.any():
            i = int(bad.argmax())  # the first
            raise ValueError(f"the density integrand at |p| = {float(r[i])!r} is not finite "
                             f"(vhat = {float(v[i])!r})")
        return f

    vals = []
    for h, least in ((step, 2), (0.5 * step, 4)):
        n = max(least, int(math.ceil(r_max / h)))
        if n % 2:
            n += 1
        grid = np.linspace(0.0, r_max, n + 1)
        vals.append(_simpson(radial(grid), grid))
    coarse, fine = vals
    norm = 2.0 * TAU**d
    value = 0.5 * pot.vhat_radial(0.0) - SPHERE_AREA[d] * fine / norm
    err = (SPHERE_AREA[d] * (abs(coarse - fine) + tail)) / norm
    return DensityLimit(value=value, error_estimate=err, r_max=r_max, step=step)


def _simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson rule over an odd number of samples y at points x.

    Takes the floating-point steps of scipy.integrate.simpson(y, x=x) for
    sample points (its per-pair weights for unequal spacings), so results
    match it bit for bit; np.linspace spacings are not exactly equal.
    """
    import numpy as np

    h = np.diff(x)
    h0, h1 = h[0::2], h[1::2]
    hsum = h0 + h1
    q = h0 / h1
    tmp = hsum / 6.0 * (
        y[:-2:2] * (2.0 - 1.0 / q) + y[1::2] * (hsum * (hsum / (h0 * h1))) + y[2::2] * (2.0 - q)
    )
    return float(np.sum(tmp))


def _integrand_tail(pot: Potential, r_max: float) -> float:
    """Bound on S_{d-1} * int_{r_max}^inf (A - e) r^(d-1) dr.

    Uses A - e <= vhat^2 / r^2 <= amplitude^2 exp(-2 r^2/width) for r >= 1;
    pot is a Gaussian.
    """
    a2 = pot.amplitude * pot.amplitude
    r_eff = max(r_max, 1.0)
    return a2 / (r_eff * r_eff) * gaussian_integral_tail(2.0 / pot.width, r_max, pot.dimension)
