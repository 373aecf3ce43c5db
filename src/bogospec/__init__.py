"""Bogoliubov excitation spectra of a homogeneous Bose gas on a torus,
cross-checked at desk scale by truncated-Fock-space exact diagonalization.

The names of `fock_ed` and `verify`, and those two modules themselves,
are resolved on first use (a PEP 562 module `__getattr__`): importing
the package, or running `enumerate`, `dispersion` or `figure`, then
neither compiles that stack nor loads numpy, which only it and the
energy quadrature use.  Every name stays in `__all__` and `dir()`.
"""

__version__ = "0.1.0"

from .bogoliubov import (
    BogoCoefficients,
    EnergySummary,
    bogoliubov_energy,
    coefficients,
    dispersion,
    energy_density_limit,
    identity_residuals,
)
from .excitations import (
    ExcitationRecord,
    SpectrumTable,
    damping_scan,
    enumerate_below,
    kth_excitation,
    oracle_enumerate,
)
from .model import (
    LatticeSpec,
    Momentum,
    Potential,
    PotentialRangeError,
    TailBoundError,
    fourier_at,
    lattice_coords,
    lattice_points,
    lattice_shells,
    periodized_value,
    validate_potential,
)

#: the names each deferred submodule gives the package
_DEFERRED = {
    "fock_ed": (
        "EDConfig",
        "EDResult",
        "SectorMatrix",
        "assemble_bogoliubov_quadratic",
        "assemble_estimating",
        "assemble_hamiltonian",
        "build_basis",
        "lowest_eigenvalues",
        "many_body_excitations",
    ),
    "verify": (
        "Check",
        "VerificationReport",
        "check_ground_bounds",
        "check_sandwich",
        "compare_spectra",
        "run_default_suite",
        "scaling_fit",
    ),
}
_SOURCE = {name: module for module, names in _DEFERRED.items() for name in names}

__all__ = sorted(
    [name for name in dir() if not name.startswith("_")] + [*_DEFERRED, *_SOURCE]
)


def __getattr__(name: str) -> object:
    module = name if name in _DEFERRED else _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    loaded = import_module(f".{module}", __name__)  # binds it on the package
    return loaded if module == name else getattr(loaded, name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
