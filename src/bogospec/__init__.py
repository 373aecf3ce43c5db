"""Bogoliubov excitation spectra of a homogeneous Bose gas on a torus,
cross-checked at desk scale by truncated-Fock-space exact diagonalization."""

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
from .fock_ed import (
    EDConfig,
    EDResult,
    SectorMatrix,
    assemble_bogoliubov_quadratic,
    assemble_estimating,
    assemble_hamiltonian,
    build_basis,
    lowest_eigenvalues,
    many_body_excitations,
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
from .verify import (
    Check,
    VerificationReport,
    check_ground_bounds,
    check_sandwich,
    compare_spectra,
    run_default_suite,
    scaling_fit,
)

__all__ = [name for name in dir() if not name.startswith("_")]
