"""Residue-based spectra for exactly and quasi-exactly solvable potentials.

The quantum momentum function χ = ψ'/ψ of a solvable one-dimensional
potential has fixed poles (from the potential) and moving poles (from the
nodes of ψ).  Requiring the right pole structure fixes each fixed-pole
residue to a root of a quadratic; summing the residues against the behaviour
at infinity quantizes the energy; the surviving freedom is a polynomial
factor of ψ determined by a linear (generalized eigenvalue) system.  This
package implements that pipeline for a catalog of eight potential families
and cross-checks every spectrum against an independent grid solver.
"""

from importlib import import_module

from .errors import (EnergyRequiredError, GridTooCoarseError,
                     InvalidStateError, NoAdmissibleAssignmentError,
                     NonlinearEnergyError, ParameterError, QhjError,
                     SingularPointError, UnknownModelError,
                     UnsupportedExpansionError)
from .exactmath import ExactComplex, as_exact, exact_sqrt, to_complex, to_float
from .potential_catalog import (MODEL_CLASSES, MODEL_IDS, PARAM_SCHEMAS,
                                QES_RELATIONS, WavefunctionRecipe,
                                evaluate_potential, get_model, qes_family)
from .qmf_residues import (FixedPole, InfinityExpansion, ResidueBranch,
                           finite_pole_residues, infinity_residues,
                           moving_pole_residue)
from .quantization import (QuantizationOutcome, ResidueAssignment,
                           enumerate_assignments, quantize)
from .polynomial_system import (BandEdgeSolution, DefectivePencilWarning,
                                PencilSystem, PolynomialOnT, SpectrumResult,
                                build_fixed_system, build_pencil,
                                closed_form_deviation, solve_pencil,
                                solve_spectrum)
from .special_functions import (JacobiTriple, elliptic_K, jacobi_elliptic,
                                jacobi_polynomial, laguerre)
from .domain import OracleDomain

# the oracle and verification load scipy (see schrodinger_oracle), so their
# names resolve on first access: `qhj list` and closed-form solves load none
_LAZY = {name: module for module, names in (
    ("schrodinger_oracle", "OracleSpectrum count_nodes solve_band_edges solve_bound "
                           "solve_inverse_square_cell solve_oracle solve_pt"),
    ("wavefunction_assembly", "LevelCheck SampledWavefunction Verification WavefunctionReport "
                              "assemble overlap parity_deviation subspace_overlap verify "
                              "verify_against_oracle")) for name in names.split()}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(import_module("." + _LAZY[name], __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__version__ = "0.1.0"

__all__ = [
    "BandEdgeSolution", "DefectivePencilWarning", "EnergyRequiredError",
    "ExactComplex", "FixedPole", "GridTooCoarseError",
    "InfinityExpansion", "InvalidStateError", "JacobiTriple", "LevelCheck",
    "MODEL_CLASSES", "MODEL_IDS",
    "NoAdmissibleAssignmentError", "NonlinearEnergyError", "OracleDomain", "OracleSpectrum",
    "PARAM_SCHEMAS", "ParameterError", "PencilSystem", "PolynomialOnT",
    "QES_RELATIONS", "QhjError", "QuantizationOutcome", "ResidueAssignment",
    "ResidueBranch", "SampledWavefunction", "SingularPointError",
    "SpectrumResult", "UnknownModelError", "UnsupportedExpansionError",
    "Verification", "WavefunctionRecipe", "WavefunctionReport", "as_exact", "assemble",
    "build_fixed_system", "build_pencil", "closed_form_deviation",
    "count_nodes", "elliptic_K", "enumerate_assignments", "evaluate_potential", "exact_sqrt",
    "finite_pole_residues", "get_model", "infinity_residues",
    "jacobi_elliptic", "jacobi_polynomial", "laguerre",
    "moving_pole_residue", "overlap", "parity_deviation", "qes_family",
    "quantize", "solve_band_edges", "solve_bound",
    "solve_inverse_square_cell", "solve_oracle", "solve_pencil", "solve_pt",
    "solve_spectrum", "subspace_overlap", "to_complex", "to_float", "verify",
    "verify_against_oracle",
]
