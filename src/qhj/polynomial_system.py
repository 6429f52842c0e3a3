"""Polynomial identities for the node polynomial and their solution.

With ψ = Π_i (t−t_i)^{b_i} · e^{a0·t} · P_n(t) the transformed Schrödinger
equation becomes P'' + (2S/Π)·P' + R·P = 0, where Π(t) = Π_i (t−t_i) is the
*minimal* product of the fixed poles, D_i = Π/(t−t_i) and

    S = Σ_i b_i·D_i + a0·Π,
    R = Σ_i (b_i²−b_i)/(t−t_i)² + 2·Σ_{i<k} b_i b_k /((t−t_i)(t−t_k))
        + 2·a0·Σ_i b_i/(t−t_i) + a0² + G(t).

The b_i² terms and the cross terms of R make up (S/Π)², so
Π²R = S² − Σ_i b_i·D_i² + Π²G, with Π²G = A + E·B as the model declares it.
Because each b_i is a root of b² − b + g2_i = 0 the double poles of R cancel,
so clearing by Π gives the identity  Π·P'' + NS·P' + NR·P = 0  with NS = 2S
and NR = Π·R.  All three are built once, exactly, from the declared pole
groups: a pair ±√q of cofactor D = Π/(t² − q) with equal residues b adds
b·D·2t to S and b·D²·(2t² + 2q) to Σ b_i·D_i², so no surd enters, and NR is
one exact division by the monic Π (a remainder is refused).  Monomial
coefficients give linear conditions on P, in rows rounded once from these
polynomials.  For models whose pole data is energy-free the identity is
linear in E: rows split as M0 + E·M1, the square block on the basis degrees
is a generalized eigenvalue pencil, and the overflow rows vanish identically.
Closed-form models get their energy from the quantization first; the square
block is then evaluated at that energy.  It is upper triangular (Π·P'' and
NS·P' do not raise the degree, and the sum rule cancels NR's top coefficient)
and banded (a row of degree k reaches the degrees k … k+2 only), and its last
row vanishes, so the node polynomial is p_n = 1 plus one back-substitution
over the band for p_(n−1) … p_0.  Its rows are plain Python complex numbers,
so a closed-form solve loads no numpy unless two of its levels share an energy
(see _deduplicate).  Every residue, a0 and energy is exact (a Fraction or
an exactmath.Surd), so the division's remainder and the rows off the basis
degrees are exact too, and each must be zero: no tolerance enters.
"""

from __future__ import annotations

import warnings
from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from .errors import NonlinearEnergyError, QhjError
from .exactmath import Poly, as_exact, to_complex
from .potential_catalog import WavefunctionRecipe, poly_eval
from .quantization import QuantizationOutcome, quantize
from .special_functions import np     # numpy on first use: the pencil and sampling need it

_DEDUP_TOL = 1e-8


class DefectivePencilWarning(UserWarning):
    """Eigenvalue multiplicity exceeded the kernel dimension."""


@dataclass(frozen=True)
class PolynomialOnT:
    """Node polynomial in the mapped variable: ascending coeffs."""

    coeffs: Tuple[complex, ...]

    def __call__(self, t):
        return poly_eval(self.coeffs, t)


@dataclass
class PencilSystem:
    """Square generalized pencil M0 + E·M1 over the given monomial basis."""

    M0: np.ndarray
    M1: np.ndarray
    basis: Tuple[int, ...]


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

def _pole_sums(model, residues, a0):
    """(S, Σ_i b_i·D_i²), exact, S = Σ_i b_i·D_i + a0·Π, by pole groups: a pair ±√q of cofactor
    D carries one residue b and D_± = D·(t ± √q), so it adds b·D·2t and b·D²·(2t² + 2q)."""
    pi, groups, *_ = model.g_polynomials()
    s, sq = pi.scale(a0), Poly([[]])
    for labels, q, d in groups:
        b = residues[labels[0]]
        ds, dsq = ((0, 2 * b), (2 * b * q, 0, 2 * b)) if len(labels) == 2 else ((b,), (b,))
        s = s + d * Poly.of(ds)
        sq = sq + d * d * Poly.of(dsq)
    return s, sq


def _largest(values):
    """The largest |value| of exact values that refute an identity by not being zero."""
    return max(abs(to_complex(v)) for v in values)


def _identity(model, assignment):
    """(basis, Π, NS, NR), exact: NS = 2S, NR = (S² − Σ b_i·D_i² + A [+ E·B])/Π, with
    E·B at the assignment's energy, once it is resolved."""
    pi, _groups, a, b, _ = model.g_polynomials()
    s, sq = _pole_sums(model, assignment.pole_residues, assignment.a0)
    num = s * s - sq + a
    if assignment.energy is not None:
        num = num + b.scale(assignment.energy)
    nr, rem = num.divmod(pi)
    if rem:
        raise QhjError("polynomial division for the %s identity is not exact (remainder "
                       "%.3e); inconsistent residue branch data" % (model.id, _largest(rem)))
    n = int(assignment.n)
    basis = tuple(range(n % 2, n + 1, 2)) if model.parity_constraint else tuple(range(n + 1))
    return basis, pi, s.scale(2), nr


def _terms(basis, pi, ns, nr):
    """(row, column, scale, coefficient) of each term of Π·P'' + NS·P' + NR·P over
    the basis monomials: column j holds d(d−1)·Π·t^(d−2) + d·NS·t^(d−1) + NR·t^d
    for d = basis[j], and the entry in row k adds scale·coefficient."""
    for j, d in enumerate(basis):
        for coeffs, scale, low in ((pi, d * (d - 1), d - 2), (ns, d, d - 1), (nr, 1, d)):
            if scale:
                for k, c in enumerate(coeffs, low):
                    yield k, j, scale, c


def _rows(basis, pi=Poly([[]]), ns=Poly([[]]), nr=Poly([[]])):
    """The square block of Π·P'' + NS·P' + NR·P on the basis degrees, in floats: a
    list of rows of Python complex numbers.  The other rows vanish (_off_basis)."""
    pi, ns, nr = ([complex(c) for c in p.floats()] for p in (pi, ns, nr))
    mat = [[0j] * len(basis) for _ in range(max(basis) + max(len(pi), len(ns), len(nr)))]
    for k, j, scale, c in _terms(basis, pi, ns, nr):
        mat[k][j] += scale * c
    return [mat[d] for d in basis]


def _off_basis(basis, pi=Poly([[]]), ns=Poly([[]]), nr=Poly([[]])):
    """The nonzero entries of the rows off the basis degrees, exactly: _terms' exact
    entries summed per (row, column)."""
    on, entries = set(basis), {}
    for k, j, scale, c in _terms(basis, *(list(p) for p in (pi, ns, nr))):
        if c and k not in on:
            entries[k, j] = entries.get((k, j), 0) + scale * c
    return [v for v in entries.values() if v]


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
    nr1 = model.g_polynomials()[4]
    # E-part first: an energy-dependent set is refused as such, not as a remainder
    if nr1 is None:
        raise NonlinearEnergyError(
            "energy enters the %s identity through the pole strengths; "
            "no linear pencil exists" % model.id)
    basis, *identity = _identity(model, assignment)
    m0 = np.array(_rows(basis, *identity), dtype=complex)
    m1 = np.array(_rows(basis, nr=nr1), dtype=complex)     # energy rows: only NR1·P contributes
    off = _off_basis(basis, *identity) + _off_basis(basis, nr=nr1)
    if off:
        raise QhjError("overflow rows of the %s pencil do not vanish (%.2e); "
                       "the residue assignment is inconsistent" % (model.id, _largest(off)))
    return PencilSystem(M0=m0, M1=m1, basis=basis)


def build_fixed_system(model, assignment):
    """Identity rows at the assignment's resolved energy (for closed-form-energy
    models): the square block on the basis degrees, as rows of Python complex
    numbers, and the basis."""
    basis, *identity = _identity(model, assignment)
    off = _off_basis(basis, *identity)
    if off:
        raise QhjError("identity rows above the node-polynomial degree do not "
                       "vanish at the quantized energy (%.2e); closed form and "
                       "identity disagree" % _largest(off))
    return _rows(basis, *identity), basis


def _back_substitute(sq, basis):
    """The node polynomial's full ascending coefficients, p_n = 1 first: the block is
    upper triangular with a vanishing last row, and a row of degree k reaches
    the degrees k … k+2 only, so each coefficient takes at most two products."""
    p = [0j] * len(basis)
    p[-1] = 1 + 0j
    for i in range(len(basis) - 2, -1, -1):
        row, acc = sq[i], -sq[i][-1]
        top = min(bisect_right(basis, basis[i] + 2), len(basis) - 1)
        for j in range(top - 1, i, -1):     # last column first, as LAPACK sums
            acc -= row[j] * p[j]
        p[i] = acc / row[i]
    return _expand_basis(p, basis)


def _kernel_vectors(mat):
    """Orthonormal kernel basis of a square pencil matrix via SVD: the right
    singular vectors with σ ≤ 1e-7·σ_max, or the last one when none is."""
    _u, s, vh = np.linalg.svd(mat)
    return [vh[i].conj() for i in range(len(s)) if s[i] <= 1e-7 * s[0]] or [vh[-1].conj()]


def _normalize_leading(coeffs):
    coeffs = np.asarray(coeffs, dtype=complex)
    mags = np.abs(coeffs)
    if not mags.any():
        return coeffs
    lead = np.max(np.nonzero(mags > 1e-9 * mags.max())[0])
    out = coeffs[: lead + 1] / coeffs[lead]
    return out


def _expand_basis(vec, basis):
    full = [0j] * (max(basis) + 1)
    for d, c in zip(basis, vec):
        full[d] = c
    return full


def solve_pencil(system):
    """Eigenvalues/kernels of M0 + E·M1 = 0, deduplicated with multiplicity.

    Returns a list of (energy, coeffs, multiplicity) with coeffs the
    full ascending coefficient array normalized to leading coefficient 1.
    Emits DefectivePencilWarning when an eigenvalue's kernel is thinner than
    its multiplicity.
    """
    from scipy import linalg     # the one user of scipy here: closed-form solves load none
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

def closed_form_deviation(model, solution):
    """Max deviation (relative) between kernel and classical form at 20
    points of the classical range, or None."""
    check = model.classical_polynomial(solution.assignment)
    if check is None:
        return None
    _family, _indices, evaluator = check
    ts = np.linspace(*model.classical_range(int(solution.assignment.n)), 20)
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


def _sample_points(model):
    """171 points inside the x window, with the model's prefactors there."""
    lo, hi = model.x_window()
    margin = 0.08 * (hi - lo)
    xs = np.linspace(lo + margin, hi - margin, 171)
    return xs, model.prefactors(xs)


def _solution_samples(recipe, points):
    vals = recipe(*points)
    if not np.any(vals):
        raise QhjError("eigenfunction samples vanish on the x window")
    vals = vals / np.max(np.abs(vals))
    return vals / np.linalg.norm(vals)


def _solution(model, assignment, coeffs, multiplicity):
    """A solved level with its node polynomial, recipe and oracle channel."""
    poly = PolynomialOnT(tuple(map(complex, coeffs)))
    return BandEdgeSolution(
        energy=assignment.energy, polynomial=poly, assignment=assignment,
        recipe=model.recipe(assignment, poly.coeffs),
        bc_class=model.bc_class(assignment), multiplicity=multiplicity)


def solve_spectrum(model, levels=4):
    """Quantize, solve every admissible set, deduplicate, attach recipes."""
    outcome = quantize(model, levels=levels)
    if model.uses_pencil:
        kernels = [(replace(a, energy=energy), coeffs, mult)
                   for a in outcome.admissible_sets()
                   for energy, coeffs, mult in solve_pencil(build_pencil(model, a))]
    else:
        kernels = [(a, _back_substitute(*build_fixed_system(model, a)), 1)
                   for a in outcome.levels]
    solutions = _deduplicate(model, [_solution(model, *kernel) for kernel in kernels])
    solutions.sort(key=lambda s: (to_complex(s.energy).real,
                                  to_complex(s.energy).imag,
                                  s.assignment.set_label,
                                  int(s.assignment.n)))
    return SpectrumResult(outcome=outcome, solutions=solutions)


def _same_energy(e, f):
    """Exact energies are one level only when equal; floats within _DEDUP_TOL."""
    if as_exact(e) is not None and as_exact(f) is not None:
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
    points = None
    for group in groups:
        group.sort(key=lambda k: (raw[k].assignment.set_label, int(raw[k].assignment.n)))
        unique, rank = group, 1
        if len(group) > 1:      # only levels that share an energy are sampled
            points = points or _sample_points(model)
            samples = {i: _solution_samples(raw[i].recipe, points) for i in group}
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
