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
from .exactmath import Surd, as_exact, sqrt, to_complex
from .potential_catalog import (MODEL_CLASSES, MODEL_IDS, PARAM_SCHEMAS,
                                QES_RELATIONS, WavefunctionRecipe, get_model,
                                qes_family)
from .qmf_residues import (FixedPole, InfinityExpansion, ResidueBranch,
                           finite_pole_residues, infinity_residues)
from .quantization import (QuantizationOutcome, ResidueAssignment,
                           enumerate_assignments, quantize)
from .special_functions import elliptic_K, jacobi_polynomial, laguerre
from .domain import OracleDomain

# the pencil solve loads numpy and scipy, and so do the oracle and verification
# (see schrodinger_oracle), so their names resolve on first access: `import
# qhj`, `qhj list` and closed-form solves load neither
_LAZY = {name: module for module, names in (
    ("polynomial_system", "BandEdgeSolution DefectivePencilWarning PencilSystem PolynomialOnT "
                          "SpectrumResult build_fixed_system build_pencil closed_form_deviation "
                          "solve_pencil solve_spectrum"),
    ("schrodinger_oracle", "OracleSpectrum solve_band_edges solve_bound "
                           "solve_inverse_square_cell solve_oracle solve_pt"),
    ("wavefunction_assembly", "LevelCheck Verification WavefunctionReport assemble "
                              "count_nodes overlap parity_deviation verify "
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
    "FixedPole", "GridTooCoarseError",
    "InfinityExpansion", "InvalidStateError", "LevelCheck",
    "MODEL_CLASSES", "MODEL_IDS",
    "NoAdmissibleAssignmentError", "NonlinearEnergyError", "OracleDomain", "OracleSpectrum",
    "PARAM_SCHEMAS", "ParameterError", "PencilSystem", "PolynomialOnT",
    "QES_RELATIONS", "QhjError", "QuantizationOutcome", "ResidueAssignment",
    "ResidueBranch", "SingularPointError",
    "SpectrumResult", "Surd", "UnknownModelError", "UnsupportedExpansionError",
    "Verification", "WavefunctionRecipe", "WavefunctionReport", "as_exact", "assemble",
    "build_fixed_system", "build_pencil", "closed_form_deviation",
    "count_nodes", "elliptic_K", "enumerate_assignments",
    "finite_pole_residues", "get_model", "infinity_residues",
    "jacobi_polynomial", "laguerre", "overlap", "parity_deviation", "qes_family",
    "quantize", "solve_band_edges", "solve_bound",
    "solve_inverse_square_cell", "solve_oracle", "solve_pencil", "solve_pt", "sqrt",
    "solve_spectrum", "to_complex", "verify",
    "verify_against_oracle",
]
