"""Sum-of-residues quantization: branch enumeration and level selection.

The quantization condition equates the residue of χ at infinity with the sum
of its finite-pole residues plus the count n of moving poles (nodes):

    Σ_i b_i + n = λ1 ,   n = 0, 1, 2, …

Each fixed pole contributes one of two quadratic branches, so a model with k
independent pole strengths yields 2^k candidate residue assignments ("sets").
Models with paired poles (elliptic, inverse-sin² cell) share one branch per
pair — that is the parity constraint, built into the enumeration.  Every set
then passes a filter pipeline (level positivity/integrality → finiteness at
walls → square-integrability/decay) and carries a machine-readable verdict.

Where the filters leave a closed-form energy (hydrogen-like, trigonometric
Scarf, inverse-sin² cell, complex Scarf), quantize() resolves levels exactly
in rational arithmetic whenever the parameters are rational.  The remaining
models keep the energy as a pencil unknown and are handed to the
polynomial-identity solver.

The per-family sets, filters and level formulas live on the catalog classes
(PotentialModel.assignments and .levels); this module holds the shared
records and the condition that ties them together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .errors import NoAdmissibleAssignmentError


@dataclass(frozen=True)
class ResidueAssignment:
    """One residue set: a branch choice per pole plus the infinity data.

    Set-level assignments describe a whole family (n may still be symbolic
    for closed-form models); level-resolved ones carry a concrete n and
    energy.  reason is the machine-readable rejection verdict; a set is
    admissible exactly when reason is None.
    """

    set_label: int
    pole_residues: Dict[str, object]
    lambda1: object
    a0: object
    n: Optional[object]
    reason: Optional[str] = None
    qes_relation: Optional[str] = None
    energy: Optional[object] = None

    @property
    def admissible(self):
        return self.reason is None

    def sum_rule_gap(self):
        """Σ residues + n − λ1 (exact zero for admissible resolved sets)."""
        if self.n is None or self.lambda1 is None:
            return None
        return sum(self.pole_residues.values()) + self.n - self.lambda1


@dataclass
class QuantizationOutcome:
    """Everything quantize() decides for one model."""

    kind: str
    assignments: List[ResidueAssignment]
    levels: List[ResidueAssignment]
    energy_formula: Optional[str] = None
    qes_relations: Optional[Tuple[str, ...]] = None
    notes: Tuple[str, ...] = ()

    def admissible_sets(self):
        return [a for a in self.assignments if a.admissible]


def level_verdict(n_val):
    """(reason, n) for a residue set whose sum rule gives n = n_val.

    n_val is exact (λ1 − Σ b from rational parameters).  The level count
    must be a nonnegative integer (reason None); a rejected set keeps n_val
    (non-integer) or the negative integer as its n.
    """
    if n_val.denominator != 1:
        return "non_integer_level", n_val
    n_int = int(n_val)
    if n_int < 0:
        return "negative_level", n_int
    return None, n_int


def enumerate_assignments(model):
    """All candidate residue sets for a model, each with an admissibility verdict.

    Paired poles (elliptic families, the inverse-sin² cell) share one branch
    per pair; mixed choices violate the parity constraint and are excluded
    structurally.  The sets themselves come from the model's catalog class.
    """
    return model.assignments()


def quantize(model, levels=4):
    """Apply the sum-of-residues condition and classify the outcome.

    Returns a QuantizationOutcome whose kind is one of es_spectrum,
    qes_condition, band_edge_group, pt_group.  Closed-form models get their
    levels resolved here (exactly, for rational parameters); pencil models
    keep E unknown and defer to the polynomial-identity solver.
    Raises NoAdmissibleAssignmentError when every set is rejected.
    """
    assignments = enumerate_assignments(model)
    if not any(a.admissible for a in assignments):
        raise NoAdmissibleAssignmentError(
            "no admissible residue assignment for %s with params %s: %s"
            % (model.id, model.describe_params(),
               "; ".join("set %d: %s" % (a.set_label, a.reason) for a in assignments)))
    return QuantizationOutcome(
        kind=model.spectrum_kind,
        assignments=assignments,
        levels=model.levels(assignments, levels),
        energy_formula=model.energy_formula,
        qes_relations=model.qes_relations,
        notes=model.notes,
    )
