"""Sum-of-residues quantization: branch enumeration and level selection.

The quantization condition equates the residue of χ at infinity with the sum
of its finite-pole residues plus the count n of moving poles (nodes):

    Σ_i b_i + n = λ1 ,   n = 0, 1, 2, …

Each fixed pole contributes one of two quadratic branches, so a model with k
independent pole strengths yields 2^k candidate residue assignments ("sets").
Models with paired poles (elliptic, inverse-sin² cell) share one branch per
pair — that is the parity constraint, built into the enumeration.  Every set
carries a machine-readable verdict: level_verdict's where λ1 fixes n, and
otherwise the boundary rule's (ψ must vanish at each end of the domain).

Where a coefficient of G that the sum rule reads has a nonzero slope in E
(hydrogen-like, trigonometric Scarf, inverse-sin² cell, complex Scarf),
closed_form_levels() solves the sum rule for E from its exact value and
slope, exactly: E is a Fraction or a Surd, as the residues are.  Where none
has, E stays a pencil unknown for the polynomial-identity solver.

PotentialModel.assignments builds every family's sets from the branch pairs
of its declared G, and PotentialModel.normalizable is the boundary rule; a
family declares only the ends of its domain and its set order.  This module
holds the shared records and the condition that ties them together.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
    structurally.  The sets come from PotentialModel.assignments.
    """
    return model.assignments()


def closed_form_levels(model, sets, count):
    """Rows n = 0 … count−1 of each admissible set, E solved from Σ b_i + n = λ1.

    Exactly one of G0, G2 and the pole strengths has a nonzero slope d.  With
    E-free residues λ1 = Σ b_i + n, and G0 + E·d = −a0² with a0 = −G1/(2λ1),
    or, when G0 = G1 = 0, G2 + E·d = λ1 − λ1².  The k poles with a slope keep
    the set's λ1 and each take b = (λ1 − n)/k, with g2 + E·d = b − b².
    A set's rows stop at the first level model.normalizable refuses.
    """
    if model.uses_pencil:
        return []
    expansion = model.infinity_expansion()
    (g0, g2), (d0, _, d2) = (expansion.G0, expansion.G2), expansion.slopes
    paired = [p for p in model.fixed_poles() if p.slope]
    rows = []
    for a in (a for a in sets if a.admissible):
        for n in range(count):
            a0, residues = a.a0, a.pole_residues
            lam = a.lambda1 if paired else sum(residues.values()) + n
            if paired:
                b = (lam - n) / len(paired)
                residues = {p.label: b for p in paired}
                energy = (b - b * b - paired[0].g2) / paired[0].slope
            elif d0:
                a0 = -expansion.G1 / (2 * lam)
                energy = (-a0 * a0 - g0) / d0
            else:
                energy = (lam - lam * lam - g2) / d2
            level = replace(a, pole_residues=residues, lambda1=lam, a0=a0, n=n,
                            energy=energy)
            if not model.normalizable(level):
                break
            rows.append(level)
    return rows


def quantize(model, levels=4):
    """Apply the sum-of-residues condition and classify the outcome.

    Returns a QuantizationOutcome whose kind is one of es_spectrum,
    qes_condition, band_edge_group, pt_group.  Closed-form models get their
    levels from closed_form_levels, exactly; pencil models
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
        levels=closed_form_levels(model, assignments, levels),
        energy_formula=model.energy_formula,
        qes_relations=model.qes_relations,
        notes=model.notes,
    )
