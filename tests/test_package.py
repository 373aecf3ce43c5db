"""The package surface: every public name, resolved eagerly or on first use."""

import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import bogospec
from bogospec import fock_ed, model

#: bogospec.__all__ when every submodule was imported eagerly
PUBLIC = {
    "BogoCoefficients", "Check", "EDConfig", "EDResult", "EnergySummary",
    "ExcitationRecord", "LatticeSpec", "Momentum", "Potential", "PotentialRangeError",
    "SectorMatrix", "SpectrumTable", "TailBoundError", "VerificationReport",
    "assemble_bogoliubov_quadratic", "assemble_estimating", "assemble_hamiltonian",
    "bogoliubov", "bogoliubov_energy", "build_basis", "check_ground_bounds",
    "check_sandwich", "coefficients", "compare_spectra", "damping_scan", "dispersion",
    "energy_density_limit", "enumerate_below", "excitations", "fock_ed", "fourier_at",
    "identity_residuals", "kth_excitation", "lattice_coords", "lattice_points",
    "lattice_shells", "lowest_eigenvalues", "many_body_excitations", "model",
    "oracle_enumerate", "periodized_value", "run_default_suite", "scaling_fit",
    "validate_potential", "verify",
}


def test_all_keeps_every_public_name():
    assert set(bogospec.__all__) == PUBLIC
    assert len(bogospec.__all__) == len(PUBLIC)


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_each_name_is_the_object_of_its_defining_module(name):
    obj = getattr(bogospec, name)
    if isinstance(obj, types.ModuleType):
        assert obj is sys.modules[f"bogospec.{name}"]
    else:
        assert getattr(importlib.import_module(obj.__module__), name) is obj


def test_dir_and_star_import_list_every_name():
    assert PUBLIC <= set(dir(bogospec))
    # in a fresh interpreter, so that the star import is the first use
    code = ("from bogospec import *\n"
            "import bogospec\n"
            "assert EDConfig is fock_ed.EDConfig and Check is verify.Check\n"
            "print(sorted(n for n in bogospec.__all__ if n not in globals()))")
    src = str(Path(bogospec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout == "[]\n"


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        bogospec.no_such_name  # noqa: B018
    assert not hasattr(bogospec, "numpy")


@pytest.mark.parametrize("name", ["EigenConvergenceError", "GroundSectorError", "DEFAULT_SEED"])
def test_fock_ed_reexports_what_moved_to_model(name):
    assert getattr(fock_ed, name) is getattr(model, name)
