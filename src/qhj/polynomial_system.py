"""Polynomial identities for the node polynomial and their solution.

With ψ = Π_i (t−t_i)^{b_i} · e^{a0·t} · P_n(t) the transformed Schrödinger
equation becomes P'' + (2S/Π)·P' + R·P = 0, where Π(t) = Π_i (t−t_i) is the
*minimal* product of the fixed poles, D_i = Π/(t−t_i) and

    S = Σ_i b_i·D_i + a0·Π,
    R = Σ_i (b_i²−b_i)/(t−t_i)² + 2·Σ_{i<k} b_i b_k /((t−t_i)(t−t_k))
        + 2·a0·Σ_i b_i/(t−t_i) + a0² + G(t).

The b_i² terms and the cross terms of R make up (S/Π)², so
Π²R = S² − Σ_i b_i·D_i² + Π²G.  Because each b_i is a root of
b² − b + g2_i = 0 the double poles of R cancel, so clearing by Π gives the
polynomial identity  Π·P'' + NS·P' + NR·P = 0  with NS = 2S and NR = Π·R (the
division Π²R / Π is exact and asserted).  Reading off monomial coefficients yields
linear conditions on the coefficients of P.  For models whose pole data is
energy-free the identity is linear in E: rows split as M0 + E·M1, the square
block on the basis degrees is a generalized eigenvalue pencil, and the
overflow rows vanish identically.  Models whose pole data depends on E get
their energy from the closed-form quantization first; the square block is
then evaluated at that energy and its kernel is the node polynomial.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import List, Optional, Tuple

import numpy as np
from numpy.polynomial import polynomial as P
from scipy import linalg

from .errors import NonlinearEnergyError, QhjError
from .exactmath import to_complex
from .potential_catalog import WavefunctionRecipe, poly_eval
from .quantization import QuantizationOutcome, quantize

_DIV_TOL = 1e-10
_OVERFLOW_TOL = 1e-10
_DEDUP_TOL = 1e-8


class DefectivePencilWarning(UserWarning):
    """Eigenvalue multiplicity exceeded the kernel dimension."""


@dataclass(frozen=True)
class PolynomialOnT:
    """Node polynomial in the mapped variable: ascending coeffs + parity."""

    coeffs: Tuple[complex, ...]
    parity: str = "none"          # even | odd | none

    def __call__(self, t):
        return poly_eval(self.coeffs, t)


@dataclass
class PencilSystem:
    """Square generalized pencil M0 + E·M1 over the given monomial basis."""

    M0: np.ndarray
    M1: np.ndarray
    basis: Tuple[int, ...]
    overflow: Tuple[np.ndarray, np.ndarray]

    def overflow_magnitude(self):
        o0, o1 = self.overflow
        scale = max(1.0, np.max(np.abs(self.M0)) if self.M0.size else 1.0,
                    np.max(np.abs(self.M1)) if self.M1.size else 1.0)
        mags = [np.max(np.abs(o)) if o.size else 0.0 for o in (o0, o1)]
        return max(mags) / scale


@dataclass
class BandEdgeSolution:
    """One solved level: energy, node polynomial, recipe, degeneracy (distinct
    eigenfunctions at the energy) and the algebraic multiplicity of its
    pencil eigenvalue (1 for a closed-form level)."""

    energy: object
    polynomial: PolynomialOnT
    assignment: object
    recipe: WavefunctionRecipe
    degeneracy: int = 1
    bc_class: Optional[str] = None
    multiplicity: int = 1


# ---------------------------------------------------------------------------
# identity rows
# ---------------------------------------------------------------------------

def _exact_polydiv(num, den, what):
    quo, rem = P.polydiv(np.asarray(num, dtype=complex), np.asarray(den, dtype=complex))
    scale = max(1.0, float(np.max(np.abs(num))) if np.asarray(num).size else 1.0)
    if rem.size and np.max(np.abs(rem)) > _DIV_TOL * scale:
        raise QhjError("polynomial division for %s is not exact "
                       "(remainder %.3e); inconsistent residue branch data"
                       % (what, float(np.max(np.abs(rem)))))
    return quo


def _identity_parts(model, residues, a0):
    """(Π, NS, Π²R without the G part) for numeric residues and slope a0.

    With D_i = Π/(t−t_i) and S = Σ b_i·D_i + a0·Π: NS = 2S, Π²R = S² − Σ b_i·D_i².
    """
    poles = model.fixed_poles()
    locs = [to_complex(p.location) for p in poles]
    pi = P.polyfromroots(locs)
    s = to_complex(a0) * pi
    sq = np.zeros(1, dtype=complex)
    for i, p in enumerate(poles):
        b = to_complex(residues[p.label])
        d = P.polyfromroots(locs[:i] + locs[i + 1:])
        s = P.polyadd(s, b * d)
        sq = P.polyadd(sq, b * P.polymul(d, d))
    return pi, 2 * s, P.polysub(P.polymul(s, s), sq)


def _identity(model, assignment, g_part, what):
    """(basis, Π, NS, exact NR = (Π²R + g_part)/Π); what names g_part in errors."""
    pi, ns, pi2_r = _identity_parts(model, assignment.pole_residues, assignment.a0)
    nr = _exact_polydiv(P.polyadd(pi2_r, np.asarray(g_part, dtype=complex)), pi, what)
    n = int(assignment.n)
    basis = tuple(range(n % 2, n + 1, 2)) if model.parity_constraint else tuple(range(n + 1))
    return basis, pi, ns, nr


def _rows(basis, pi=(), ns=(), nr=()):
    """Coefficient rows of Π·P'' + NS·P' + NR·P over the basis monomials.

    Column j holds d(d−1)·Π·t^(d−2) + d·NS·t^(d−1) + NR·t^d for d = basis[j];
    returns (the square block on the basis degrees, every other row).
    """
    mat = np.zeros((max(basis) + max(len(pi), len(ns), len(nr)), len(basis)), dtype=complex)
    for j, d in enumerate(basis):
        for coeffs, scale, low in ((pi, d * (d - 1), d - 2), (ns, d, d - 1), (nr, 1, d)):
            if scale:
                mat[low:low + len(coeffs), j] += scale * np.asarray(coeffs)
    return mat[list(basis)], np.delete(mat, basis, axis=0)


def build_pencil(model, assignment):
    """Linear-in-energy identity rows for one residue assignment.

    Requires energy-free pole residues and slope (and an E-part of the
    stored Πclear²·G divisible by Πclear); otherwise the identity is not a
    linear pencil and NonlinearEnergyError is raised.
    """
    if not assignment.pole_residues or assignment.n is None:
        raise NonlinearEnergyError(
            "assignment for %s has energy-dependent pole data; solve its "
            "closed-form energies first" % model.id)
    a_poly, b_poly = model.pi2_g_polys()
    # E-part first: an energy-dependent set is refused as such, not as a remainder
    pi = P.polyfromroots([to_complex(p.location) for p in model.fixed_poles()])
    nr1, rem = P.polydiv(np.asarray(b_poly, dtype=complex), pi)
    if rem.size and np.max(np.abs(rem)) > _DIV_TOL * max(1.0, np.max(np.abs(b_poly))):
        raise NonlinearEnergyError(
            "energy enters the %s identity through the pole strengths; "
            "no linear pencil exists" % model.id)
    basis, pi, ns, nr0 = _identity(model, assignment, a_poly,
                                   "the energy-free identity part")
    m0, o0 = _rows(basis, pi, ns, nr0)
    m1, o1 = _rows(basis, nr=nr1)     # energy rows: only NR1·P contributes
    system = PencilSystem(M0=m0, M1=m1, basis=basis, overflow=(o0, o1))
    if system.overflow_magnitude() > _OVERFLOW_TOL:
        raise QhjError("overflow rows of the %s pencil do not vanish (%.2e); "
                       "the residue assignment is inconsistent"
                       % (model.id, system.overflow_magnitude()))
    return system


def build_fixed_system(model, assignment, energy=None):
    """Identity rows at a resolved energy (for closed-form-energy models)."""
    energy = assignment.energy if energy is None else energy
    if energy is None:
        raise QhjError("fixed system needs a resolved energy")
    a_poly, b_poly = model.pi2_g_polys()
    g_poly = P.polyadd(np.asarray(a_poly, dtype=complex),
                       to_complex(energy) * np.asarray(b_poly, dtype=complex))
    basis, pi, ns, nr = _identity(model, assignment, g_poly, "the resolved identity")
    sq, over = _rows(basis, pi, ns, nr)
    worst = float(np.max(np.abs(over), initial=0.0))
    if worst > 1e-7 * max(1.0, float(np.max(np.abs(sq))), worst):
        raise QhjError("identity rows above the node-polynomial degree do not "
                       "vanish at the quantized energy (%.2e); closed form and "
                       "identity disagree" % worst)
    return sq, basis


def _kernel_vectors(mat, rtol=1e-7):
    """Orthonormal kernel basis of a square matrix via SVD."""
    u, s, vh = np.linalg.svd(mat)
    smax = s[0] if s.size else 0.0
    if smax == 0.0:
        return [vh[i].conj() for i in range(vh.shape[0])]
    kernel = [vh[i].conj() for i in range(len(s)) if s[i] <= rtol * smax]
    if not kernel:
        kernel = [vh[-1].conj()]
    return kernel


def _normalize_leading(coeffs):
    coeffs = np.asarray(coeffs, dtype=complex)
    mags = np.abs(coeffs)
    if not mags.any():
        return coeffs
    lead = np.max(np.nonzero(mags > 1e-9 * mags.max())[0])
    out = coeffs[: lead + 1] / coeffs[lead]
    return out


def _expand_basis(vec, basis):
    full = np.zeros(max(basis) + 1, dtype=complex)
    full[list(basis)] = vec
    return full


def solve_pencil(system):
    """Eigenvalues/kernels of M0 + E·M1 = 0, deduplicated with multiplicity.

    Returns a list of (energy, coeffs, multiplicity) with coeffs the
    full ascending coefficient array normalized to leading coefficient 1.
    Emits DefectivePencilWarning when an eigenvalue's kernel is thinner than
    its multiplicity.
    """
    m0, m1 = system.M0, system.M1
    vals = linalg.eigvals(m0, -m1)
    finite = [v for v in vals if np.isfinite(v.real) and np.isfinite(v.imag)]
    cleaned = []
    for v in finite:
        if abs(v.imag) < 1e-9 * (1.0 + abs(v.real)):
            v = complex(v.real, 0.0)
        cleaned.append(v)
    cleaned.sort(key=lambda z: (z.real, z.imag))
    groups = []
    for v in cleaned:
        if groups and abs(v - groups[-1][0]) <= _DEDUP_TOL * max(1.0, abs(v)):
            groups[-1][1].append(v)
        else:
            groups.append([v, [v]])
    out = []
    for _rep, members in groups:
        e_mean = sum(members) / len(members)
        if abs(e_mean.imag) < 1e-9 * (1.0 + abs(e_mean.real)):
            e_mean = complex(e_mean.real, 0.0)
        kernel = _kernel_vectors(m0 + e_mean * m1)
        mult = len(members)
        if len(kernel) < mult:
            warnings.warn("pencil eigenvalue %s has multiplicity %d but kernel "
                          "dimension %d" % (e_mean, mult, len(kernel)),
                          DefectivePencilWarning)
        for vec in kernel[:mult]:
            coeffs = _normalize_leading(_expand_basis(vec, system.basis))
            out.append((e_mean, coeffs, mult))
    return out


# ---------------------------------------------------------------------------
# closed-form kernels
# ---------------------------------------------------------------------------

def closed_form_check(model, solution):
    """Classical-polynomial family matching the kernel, or None.

    Returns (family, indices, evaluator) where evaluator(t) reproduces the
    node polynomial up to overall scale.  Elliptic-family kernels have no
    classical closed form and return None.
    """
    return model.classical_polynomial(solution.assignment)


def closed_form_deviation(model, solution, npoints=20):
    """Max deviation (relative) between kernel and classical form, or None."""
    check = closed_form_check(model, solution)
    if check is None:
        return None
    _family, _indices, evaluator = check
    ts = np.linspace(*model.classical_range(int(solution.assignment.n)), npoints)
    kernel_vals = solution.polynomial(ts)
    ref_vals = np.asarray(evaluator(ts), dtype=complex)
    idx = int(np.argmax(np.abs(ref_vals)))
    if abs(ref_vals[idx]) == 0.0:
        return float(np.max(np.abs(kernel_vals)))
    scale = kernel_vals[idx] / ref_vals[idx]
    denom = max(np.max(np.abs(kernel_vals)), 1e-300)
    return float(np.max(np.abs(kernel_vals - scale * ref_vals)) / denom)


# ---------------------------------------------------------------------------
# spectrum orchestration
# ---------------------------------------------------------------------------

@dataclass
class SpectrumResult:
    """Deduplicated, sorted level list for one model."""

    outcome: QuantizationOutcome
    solutions: List[BandEdgeSolution]


def _poly_parity(coeffs):
    mags = np.abs(np.asarray(coeffs))
    if not mags.any():
        return "none"
    tol = 1e-9 * mags.max()
    even = np.any(mags[0::2] > tol)
    odd = np.any(mags[1::2] > tol)
    if even and not odd:
        return "even"
    if odd and not even:
        return "odd"
    return "none"


def _solution_samples(model, recipe):
    lo, hi = model.x_window()
    margin = 0.08 * (hi - lo)
    xs = np.linspace(lo + margin, hi - margin, 171)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.asarray(recipe(xs), dtype=complex)
        vals = vals / np.max(np.abs(vals))
    if not np.all(np.isfinite(vals)):
        raise QhjError("eigenfunction samples overflow or vanish on the x window")
    return vals / np.linalg.norm(vals)


def _solution(model, assignment, coeffs, multiplicity):
    """A solved level with its node polynomial, recipe and oracle channel."""
    parity = _poly_parity(coeffs)
    poly = PolynomialOnT(tuple(coeffs.tolist()), parity)
    return BandEdgeSolution(
        energy=assignment.energy, polynomial=poly, assignment=assignment,
        recipe=model.recipe(assignment, poly.coeffs),
        bc_class=model.bc_class(assignment, parity), multiplicity=multiplicity)


def solve_spectrum(model, levels=4):
    """Quantize, solve every admissible set, deduplicate, attach recipes."""
    outcome = quantize(model, levels=levels)
    if model.uses_pencil:
        kernels = [(replace(a, energy=energy), coeffs, mult)
                   for a in outcome.admissible_sets()
                   for energy, coeffs, mult in solve_pencil(build_pencil(model, a))]
    else:
        kernels = []
        for a in outcome.levels:
            sq, basis = build_fixed_system(model, a)
            vec = _kernel_vectors(sq)[0]     # one node polynomial per closed-form level
            kernels.append((a, _normalize_leading(_expand_basis(vec, basis)), 1))
    solutions = _deduplicate(model, [_solution(model, *kernel) for kernel in kernels])
    solutions.sort(key=lambda s: (to_complex(s.energy).real,
                                  to_complex(s.energy).imag,
                                  s.assignment.set_label,
                                  int(s.assignment.n)))
    return SpectrumResult(outcome=outcome, solutions=solutions)


def _same_energy(e, f):
    """Exact energies are one level only when equal; floats within _DEDUP_TOL."""
    if isinstance(e, Fraction) and isinstance(f, Fraction):
        return e == f
    e, f = to_complex(e), to_complex(f)
    return abs(e - f) <= _DEDUP_TOL * max(1.0, abs(e))


def _deduplicate(model, raw):
    """Merge identical eigenfunctions across sets; one energy and multiplicity per energy group."""
    if not raw:
        return []
    order = sorted(range(len(raw)),
                   key=lambda i: (to_complex(raw[i].energy).real,
                                  to_complex(raw[i].energy).imag))
    groups: List[List[int]] = []
    for idx in order:
        if groups and _same_energy(raw[idx].energy, raw[groups[-1][-1]].energy):
            groups[-1].append(idx)
        else:
            groups.append([idx])
    kept: List[BandEdgeSolution] = []
    for group in groups:
        group.sort(key=lambda k: (raw[k].assignment.set_label, int(raw[k].assignment.n)))
        unique, rank = group, 1
        if len(group) > 1:      # only levels that share an energy are sampled
            samples = {i: _solution_samples(model, raw[i].recipe) for i in group}
            unique = []
            for i in group:
                if not any(abs(np.vdot(samples[j], samples[i])) > 1 - 1e-8 for j in unique):
                    unique.append(i)
            gram = np.array([[np.vdot(samples[i], samples[j]) for j in unique] for i in unique])
            rank = int(np.linalg.matrix_rank(gram, tol=1e-6))
        for i in unique:
            sol = raw[i]
            sol.degeneracy = rank
            # one energy per group, so float noise cannot reorder its levels
            sol.energy = raw[group[0]].energy
            kept.append(sol)
    return kept
