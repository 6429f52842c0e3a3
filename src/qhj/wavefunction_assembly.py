"""Sampling assembled eigenfunctions and comparing them with grid vectors.

The residue machinery produces a multiplicative recipe (prefactors ×
polynomial × exponential); this module evaluates it on grids, sup-normalizes
it, counts its nodes, and scores it against an oracle eigenvector.  Scores are
scale-free: overlap of unit vectors and sup-normalized modulus deviation,
so any nonzero rescaling of either side gives the identical report.
verify() runs both routes for one model and scores every solved level.
The oracle, and with it scipy, is imported inside the functions that call
it, so sampling a wavefunction (`qhj wavefunction`) loads no scipy.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

from .errors import InvalidStateError, ParameterError
from .exactmath import to_complex
from .polynomial_system import BandEdgeSolution, solve_spectrum

if TYPE_CHECKING:
    from .schrodinger_oracle import OracleSpectrum

def assemble(recipe, xs):
    """The recipe's values on the grid xs, divided by their largest modulus."""
    values = recipe(np.asarray(xs, dtype=float))
    scale = float(np.max(np.abs(values)))
    if scale == 0.0:
        raise InvalidStateError("wavefunction vanishes identically on the grid")
    return values / scale


def count_nodes(values, tag=None):
    """Sign changes of a (real up to phase) sampled function.

    A sample of modulus ≤ 1e-10 of the largest has no sign.  On a
    "periodic" or "antiperiodic" tag the samples span one closed cell:
    the step from the last sample back to the first counts too, with the
    first sample's sign flipped on an antiperiodic level.  Otherwise only
    interior sign changes count.
    """
    vals = np.asarray(values)
    if vals.size < 2:
        return 0
    if np.iscomplexobj(vals):
        # rotate the dominant phase away; genuine bound states are real
        idx = int(np.argmax(np.abs(vals)))
        if abs(vals[idx]) > 0:
            vals = (vals * np.exp(-1j * np.angle(vals[idx]))).real
        else:
            vals = vals.real
    floor = 1e-10 * (np.max(np.abs(vals)) or 1.0)
    positive = vals[np.abs(vals) > floor] > 0
    if tag in ("periodic", "antiperiodic") and positive.size:
        positive = np.append(positive, positive[0] != (tag == "antiperiodic"))
    return int(np.count_nonzero(positive[1:] != positive[:-1]))


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
                          overlap_tol=1e-4, modulus_tol=5e-3):
    """Score one assembled wavefunction against one oracle eigenvector.

    For a degenerate oracle cluster pass all cluster indices: the score is
    then the projection onto the cluster's span (a single level is a
    one-vector cluster).  The report is invariant under rescaling the recipe
    (e.g. by −3): only unit-normalized vectors and sup-normalized moduli
    enter it.
    """
    vals = recipe(oracle.xs)
    q, coef = _project(vals, oracle.eigenvectors[:, list(cluster_levels or [level])])
    ov = float(np.linalg.norm(coef))
    mod_ref = np.abs(q @ coef)
    mod_mine = np.abs(_unit(vals))
    denom = float(np.max(mod_ref)) or 1.0
    mod_dev = float(np.max(np.abs(mod_mine / (np.max(mod_mine) or 1.0)
                                  - mod_ref / denom)))
    predicted = oracle_n = None
    nodes_ok = True
    if oracle.node_counts is not None:
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

    The oracle is asked for k levels per channel, k the most residue levels
    that share one bc_class (an untagged family is one channel), so each
    collocation channel solves only the lowest levels that are paired.
    Each solved energy is paired with the nearest oracle level of the same
    channel and passes when the gap is within tol (default model.verify_tol)
    and its eigenfunction matches the oracle vector (overlap and node count).
    Raises ParameterError unless 0 < tol < inf.
    """
    from .schrodinger_oracle import solve_oracle
    tol = model.verify_tol if tol is None else tol
    if not 0.0 < tol < math.inf:
        raise ParameterError("tolerance must be positive and finite, got %r" % (tol,))
    result = solve_spectrum(model, levels=levels)
    tops = [to_complex(s.energy).real for s in result.solutions]
    per_channel = Counter(s.bc_class for s in result.solutions).values()
    oracle = solve_oracle(model, k=max(per_channel, default=2),
                          emax=(max(tops) if tops else 0.0) + 0.5)
    checks = []
    grid = model.prefactors(oracle.xs) if result.solutions else None    # shared by every level
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
            partial(sol.recipe, prefactors=grid), oracle, pick, cluster_levels=cluster,
            overlap_tol=1e-3, modulus_tol=5e-2)
        checks.append(LevelCheck(solution=sol, oracle_index=pick,
                                 oracle_energy=complex(oracle.eigenvalues[pick]),
                                 gap=gap, report=report,
                                 passed=gap <= tol and report.overlap_ok
                                 and report.nodes_ok))
    return Verification(tol=tol, checks=checks)


def parity_deviation(recipe, center, half_width, parity):
    """Max |ψ(2c−x) ∓ ψ(x)| (sup-normalized) over 201 points, for even/odd symmetry checks."""
    offs = np.linspace(-half_width, half_width, 201)
    left = recipe(center + offs)
    right = recipe(center - offs)
    scale = float(np.max(np.abs(left))) or 1.0
    sign = 1.0 if parity == "even" else -1.0
    return float(np.max(np.abs(right - sign * left)) / scale)
