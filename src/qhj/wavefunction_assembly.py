"""Sampling assembled eigenfunctions and comparing them with grid vectors.

The residue machinery produces a multiplicative recipe (prefactors ×
polynomial × exponential); this module evaluates it on grids, normalizes,
locates zeros, and scores it against an oracle eigenvector.  Scores are
scale-free: overlap of unit vectors and sup-normalized modulus deviation,
so any nonzero rescaling of either side gives the identical report.
verify() runs both routes for one model and scores every solved level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import InvalidStateError, ParameterError
from .exactmath import to_complex
from .polynomial_system import BandEdgeSolution, solve_spectrum
from .schrodinger_oracle import OracleSpectrum, count_nodes, solve_oracle

SUP_NORM_ONE = "sup_norm_one"
L2_ONE = "l2_one"


@dataclass
class SampledWavefunction:
    """A wavefunction evaluated on a grid, normalized, with its zero set."""

    xs: np.ndarray
    values: np.ndarray
    normalization: str
    zero_locations: Tuple[float, ...]

    @property
    def is_real(self):
        scale = float(np.max(np.abs(self.values))) or 1.0
        return float(np.max(np.abs(self.values.imag))) <= 1e-10 * scale

    def node_count(self):
        return count_nodes(self.values)


def _find_zeros(xs, values):
    """Interior zeros: sign changes for real data, |ψ| dips for complex."""
    scale = float(np.max(np.abs(values)))
    if scale == 0.0:
        return ()
    if np.max(np.abs(values.imag)) <= 1e-10 * scale:
        re = values.real
        zeros = []
        floor = 1e-12 * scale
        for i in range(len(re) - 1):
            a, b = re[i], re[i + 1]
            if abs(a) <= floor and (i == 0 or abs(re[i - 1]) > floor):
                zeros.append(float(xs[i]))
            elif a * b < 0 and abs(a) > floor and abs(b) > floor:
                zeros.append(float(xs[i] - a * (xs[i + 1] - xs[i]) / (b - a)))
        return tuple(zeros)
    mags = np.abs(values)
    zeros = []
    for i in range(1, len(mags) - 1):
        if mags[i] < mags[i - 1] and mags[i] <= mags[i + 1] and mags[i] < 1e-8 * scale:
            zeros.append(float(xs[i]))
    return tuple(zeros)


def assemble(recipe, xs, normalization=SUP_NORM_ONE):
    """Evaluate a wavefunction recipe on a grid and normalize it."""
    xs = np.asarray(xs, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):   # refused below, with a reason
        values = np.asarray(recipe(xs), dtype=complex)
    if not np.all(np.isfinite(values)):
        raise InvalidStateError("wavefunction is not finite on the grid: it overflows "
                                "or the grid touches a singular point")
    if normalization == SUP_NORM_ONE:
        scale = float(np.max(np.abs(values)))
    elif normalization == L2_ONE:
        scale = float(np.linalg.norm(values) * np.sqrt(xs[1] - xs[0])) if len(xs) > 1 \
            else float(np.linalg.norm(values))
    else:
        raise InvalidStateError("unknown normalization %r" % (normalization,))
    if scale == 0.0:
        raise InvalidStateError("wavefunction vanishes identically on the grid")
    values = values / scale
    return SampledWavefunction(xs=xs, values=values, normalization=normalization,
                               zero_locations=_find_zeros(xs, values))


def _unit(v):
    n = np.linalg.norm(v)
    return v / n if n else v


def overlap(a, b):
    """|⟨a,b⟩| of the unit-normalized vectors (phase/scale independent)."""
    return float(abs(np.vdot(_unit(np.asarray(a, dtype=complex)),
                             _unit(np.asarray(b, dtype=complex)))))


def _project(vector, columns):
    """(orthonormal basis q of the columns, coordinates of the unit vector in q)."""
    q, _ = np.linalg.qr(np.asarray(columns, dtype=complex))
    return q, q.conj().T @ _unit(np.asarray(vector, dtype=complex))


def subspace_overlap(vector, basis_vectors):
    """Norm of the projection of a unit vector onto span(basis_vectors)."""
    _, coef = _project(vector, np.column_stack(basis_vectors))
    return float(np.linalg.norm(coef))


@dataclass
class WavefunctionReport:
    """Scale-free comparison between a recipe and an oracle eigenvector."""

    overlap: float
    modulus_deviation: float
    predicted_nodes: Optional[int]
    oracle_nodes: Optional[int]
    overlap_ok: bool
    modulus_ok: bool
    nodes_ok: bool

    @property
    def passed(self):
        return self.overlap_ok and self.modulus_ok and self.nodes_ok


def verify_against_oracle(recipe, oracle: OracleSpectrum, level,
                          cluster_levels: Optional[Sequence[int]] = None,
                          overlap_tol=1e-4, modulus_tol=5e-3,
                          check_nodes=True):
    """Score one assembled wavefunction against one oracle eigenvector.

    For a degenerate oracle cluster pass all cluster indices: the score is
    then the projection onto the cluster's span (a single level is a
    one-vector cluster).  The report is invariant under rescaling the recipe
    (e.g. by −3): only unit-normalized vectors and sup-normalized moduli
    enter it.
    """
    with np.errstate(over="ignore", invalid="ignore"):   # refused below, with a reason
        vals = np.asarray(recipe(oracle.xs), dtype=complex)
    if not np.all(np.isfinite(vals)):
        raise InvalidStateError("recipe not finite on the oracle grid")
    q, coef = _project(vals, oracle.eigenvectors[:, list(cluster_levels or [level])])
    ov = float(np.linalg.norm(coef))
    mod_ref = np.abs(q @ coef)
    mod_mine = np.abs(_unit(vals))
    denom = float(np.max(mod_ref)) or 1.0
    mod_dev = float(np.max(np.abs(mod_mine / (np.max(mod_mine) or 1.0)
                                  - mod_ref / denom)))
    predicted = oracle_n = None
    nodes_ok = True
    if check_nodes and oracle.node_counts is not None:
        predicted = count_nodes(vals, tag=oracle.bc_tags[level])
        oracle_n = oracle.node_counts[level]
        nodes_ok = predicted == oracle_n
    return WavefunctionReport(
        overlap=ov, modulus_deviation=mod_dev,
        predicted_nodes=predicted, oracle_nodes=oracle_n,
        overlap_ok=ov >= 1.0 - overlap_tol,
        modulus_ok=mod_dev <= modulus_tol,
        nodes_ok=nodes_ok)


@dataclass
class LevelCheck:
    """One solved level against its nearest compatible oracle level."""

    solution: BandEdgeSolution
    oracle_index: int
    oracle_energy: complex
    gap: float                     # |E_residue − E_oracle|
    report: WavefunctionReport
    passed: bool


@dataclass
class Verification:
    """verify() outcome: the energy tolerance used and one check per level."""

    tol: float
    checks: List[LevelCheck]

    @property
    def passed(self):
        return all(c.passed for c in self.checks)


def _oracle_candidates(solution, oracle):
    """Oracle levels tagged with the solution's bc_class, or all when none is."""
    tags = oracle.bc_tags
    return [i for i, t in enumerate(tags) if t == solution.bc_class] or list(range(len(tags)))


def verify(model, levels=4, tol=None):
    """Solve a model by residues and on the grid, and score each level.

    Each solved energy is paired with the nearest oracle level of the same
    channel and passes when the gap is within tol (default model.verify_tol)
    and its eigenfunction matches the oracle vector (overlap and node count).
    Raises ParameterError unless 0 < tol < inf.
    """
    tol = model.verify_tol if tol is None else tol
    if not 0.0 < tol < math.inf:
        raise ParameterError("tolerance must be positive and finite, got %r" % (tol,))
    result = solve_spectrum(model, levels=levels)
    tops = [to_complex(s.energy).real for s in result.solutions]
    oracle = solve_oracle(model, k=len(result.solutions) + 2,
                          emax=(max(tops) if tops else 0.0) + 0.5)
    checks = []
    for sol in result.solutions:
        e = to_complex(sol.energy)
        cands = _oracle_candidates(sol, oracle)
        gaps = [abs(complex(oracle.eigenvalues[i]) - e) for i in cands]
        pick = cands[int(np.argmin(gaps))]
        gap = min(gaps)
        cluster = [i for i in cands
                   if abs(complex(oracle.eigenvalues[i])
                          - complex(oracle.eigenvalues[pick]))
                   <= 1e-6 * (1.0 + abs(e))]
        report = verify_against_oracle(
            sol.recipe, oracle, pick, cluster_levels=cluster,
            overlap_tol=1e-3, modulus_tol=5e-2)
        checks.append(LevelCheck(solution=sol, oracle_index=pick,
                                 oracle_energy=complex(oracle.eigenvalues[pick]),
                                 gap=gap, report=report,
                                 passed=gap <= tol and report.overlap_ok
                                 and report.nodes_ok))
    return Verification(tol=tol, checks=checks)


def parity_deviation(recipe, center, half_width, parity, samples=201):
    """Max |ψ(2c−x) ∓ ψ(x)| (sup-normalized) for even/odd symmetry checks."""
    offs = np.linspace(-half_width, half_width, samples)
    left = np.asarray(recipe(center + offs), dtype=complex)
    right = np.asarray(recipe(center - offs), dtype=complex)
    scale = float(np.max(np.abs(left))) or 1.0
    sign = 1.0 if parity == "even" else -1.0
    return float(np.max(np.abs(right - sign * left)) / scale)
