"""Independent grid diagonalization of −ψ'' + V ψ = E ψ.

This module never touches the residue/quantization machinery: it builds
finite-difference operators straight from the potential callable and
diagonalizes them, providing the cross-check spectra.

Techniques, chosen per boundary behaviour:

* bound states — second-order tridiagonal Dirichlet operator, eigenvalues
  at two resolutions combined by Richardson extrapolation;
* band edges of smooth periodic potentials — dense periodic and
  antiperiodic operators over one cell, merged and tagged;
* the inverse-square periodic cell — the naive operator only converges onto
  one wall behaviour, so each exponent channel is solved as a weighted
  Sturm–Liouville problem −(w²φ')' = ε w² φ with w = sin^μ x, whose natural
  boundary conditions select that channel;
* complex (PT-symmetric) potentials — dense non-Hermitian diagonalization,
  on a bent contour when the eigenfunctions only decay off the real axis;
  eigenvalues are kept only when stable across two resolutions.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy.linalg import eig, eigh, eigh_tridiagonal

from .errors import GridTooCoarseError, ParameterError

_MIN_POINTS = 64


def _workers():
    try:
        return max(1, int(os.environ.get("QHJ_NUM_THREADS", "2")))
    except ValueError:
        return 2


def _pooled(*calls):
    """Results of calls (fn, arg, ...) run on the oracle's thread pool.

    All calls are submitted in order before the first result is read, so
    coarse and fine solves of one operator run side by side.
    """
    with ThreadPoolExecutor(max_workers=_workers()) as pool:
        futures = [pool.submit(*call) for call in calls]
        return [f.result() for f in futures]


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on (lower, upper) with a boundary-condition tag."""

    lower: float
    upper: float
    points: int
    bc: str = "dirichlet"

    _BCS = ("dirichlet", "periodic", "antiperiodic",
            "exponent_plus", "exponent_minus", "contour")

    def __post_init__(self):
        if self.points < _MIN_POINTS:
            raise GridTooCoarseError(
                "grid needs at least %d points, got %d" % (_MIN_POINTS, self.points))
        if not self.upper > self.lower:
            raise ParameterError("grid interval is empty")
        if self.bc not in self._BCS:
            raise ParameterError("unknown boundary condition %r" % (self.bc,))

    @property
    def step(self):
        return (self.upper - self.lower) / self.points

    def interior(self):
        h = self.step
        return self.lower + h * np.arange(1, self.points)

    def cell(self):
        h = self.step
        return self.lower + h * np.arange(self.points)

    def midpoints(self):
        h = self.step
        return self.lower + h * (np.arange(self.points) + 0.5)


@dataclass
class OracleSpectrum:
    """Grid spectrum: energies, vectors (columns), per-level metadata."""

    eigenvalues: Tuple[complex, ...]
    eigenvectors: np.ndarray
    xs: np.ndarray
    bc_tags: Tuple[str, ...]
    node_counts: Optional[Tuple[int, ...]] = None
    error_estimates: Optional[Tuple[float, ...]] = None

    def __post_init__(self):
        if self.node_counts is not None:
            if any(b < a for a, b in zip(self.node_counts, self.node_counts[1:])):
                raise GridTooCoarseError(
                    "node counts are not monotone — grid cannot resolve the "
                    "requested levels")


def count_nodes(values, rel_floor=1e-10):
    """Interior sign changes of a (real up to phase) sampled function."""
    vals = np.asarray(values)
    if np.iscomplexobj(vals):
        # rotate the dominant phase away; genuine bound states are real
        idx = int(np.argmax(np.abs(vals)))
        if abs(vals[idx]) > 0:
            vals = (vals * np.exp(-1j * np.angle(vals[idx]))).real
        else:
            vals = vals.real
    floor = rel_floor * (np.max(np.abs(vals)) or 1.0)
    signs = [v for v in vals if abs(v) > floor]
    return sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))


def _richardson(coarse, fine):
    coarse = np.asarray(coarse, dtype=float)
    fine = np.asarray(fine, dtype=float)
    k = min(len(coarse), len(fine))
    extr = (4.0 * fine[:k] - coarse[:k]) / 3.0
    est = np.abs(fine[:k] - coarse[:k]) / 3.0
    return extr, est


def _dirichlet_lowest(model, grid, k):
    xs = grid.interior()
    h = grid.step
    diag = 2.0 / h ** 2 + np.asarray(model.potential(xs), dtype=float)
    off = np.full(len(xs) - 1, -1.0 / h ** 2)
    vals, vecs = eigh_tridiagonal(diag, off, select="i",
                                  select_range=(0, min(k, len(xs)) - 1))
    return xs, vals, vecs


def solve_bound(model, k, points=2400, tol=None):
    """Lowest k Dirichlet levels with Richardson extrapolation.

    Raises GridTooCoarseError when a requested tolerance exceeds the
    Richardson error estimate.
    """
    lo, hi = model.x_window()
    coarse = GridSpec(lo, hi, points, "dirichlet")
    fine = GridSpec(lo, hi, 2 * points, "dirichlet")
    (_, vals_c, _), (xs, vals_f, vecs) = _pooled(
        (_dirichlet_lowest, model, coarse, k), (_dirichlet_lowest, model, fine, k))
    extr, est = _richardson(vals_c, vals_f)
    if tol is not None and np.any(est > tol):
        raise GridTooCoarseError(
            "Richardson error estimate %.3e exceeds tolerance %.3e; "
            "increase the grid" % (float(est.max()), tol))
    nodes = tuple(count_nodes(vecs[:, i]) for i in range(vecs.shape[1]))
    return OracleSpectrum(
        eigenvalues=tuple(float(v) for v in extr),
        eigenvectors=vecs, xs=xs,
        bc_tags=tuple("dirichlet" for _ in extr),
        node_counts=nodes,
        error_estimates=tuple(float(v) for v in est))


# ---------------------------------------------------------------------------
# periodic cell (smooth potentials): dense periodic ∪ antiperiodic
# ---------------------------------------------------------------------------

def _cell_operator(model, grid, sign):
    xs = grid.cell()
    h = grid.step
    n = len(xs)
    mat = np.zeros((n, n))
    np.fill_diagonal(mat, 2.0 / h ** 2 + np.asarray(model.potential(xs), dtype=float))
    idx = np.arange(n - 1)
    mat[idx, idx + 1] = -1.0 / h ** 2
    mat[idx + 1, idx] = -1.0 / h ** 2
    mat[0, n - 1] = sign * (-1.0 / h ** 2)
    mat[n - 1, 0] = sign * (-1.0 / h ** 2)
    return xs, mat


def _cell_lowest(model, grid, k, sign):
    xs, mat = _cell_operator(model, grid, sign)
    vals, vecs = eigh(mat)
    return xs, vals[:k], vecs[:, :k]


def solve_band_edges(model, k=6, points=480, tol=None, emax=None):
    """Lowest band edges of a smooth periodic potential over one cell.

    Solves the periodic and the antiperiodic operator, Richardson-combines
    two resolutions per operator, and merges the results sorted by energy
    with their periodicity tags.  With ``emax`` the result keeps every edge
    up to that energy even when there are more than k of them (needed when
    the algebraic levels are a sparse subset of all edges).
    """
    lo, hi = model.x_window()
    keep = k + 2 if emax is None else max(k + 2, 40)
    # wrap-around coupling keeps the off-diagonal sign for periodic
    # closure and flips it for the antiperiodic one
    closures = ((+1.0, "periodic"), (-1.0, "antiperiodic"))
    results = _pooled(*[(_cell_lowest, model, GridSpec(lo, hi, npts, tag), keep, sign)
                        for sign, tag in closures for npts in (points, 2 * points)])
    merged = []
    for (_, tag), (_, vals_c, _), (xs, vals_f, vecs) in zip(
            closures, results[0::2], results[1::2]):
        extr, est = _richardson(vals_c, vals_f)
        for i, (e, err) in enumerate(zip(extr, est)):
            merged.append((float(e), tag, vecs[:, i], float(err)))
    merged.sort(key=lambda item: item[0])
    cut = min(k, len(merged))
    if emax is not None:
        while cut < len(merged) and merged[cut][0] <= emax:
            cut += 1
    # never truncate in the middle of a (near-)degenerate cluster
    while cut < len(merged) and abs(merged[cut][0] - merged[cut - 1][0]) \
            <= 1e-6 * (1.0 + abs(merged[cut][0])):
        cut += 1
    merged = merged[:cut]
    if tol is not None and any(item[3] > tol for item in merged):
        raise GridTooCoarseError("band-edge error estimate exceeds tolerance")
    vecs = np.column_stack([item[2] for item in merged])
    nodes = tuple(count_nodes(item[2]) for item in merged)
    return OracleSpectrum(
        eigenvalues=tuple(item[0] for item in merged),
        eigenvectors=vecs, xs=xs,
        bc_tags=tuple(item[1] for item in merged),
        node_counts=None if any(b < a for a, b in zip(nodes, nodes[1:])) else nodes,
        error_estimates=tuple(item[3] for item in merged))


# ---------------------------------------------------------------------------
# inverse-square periodic cell: weighted Sturm–Liouville per exponent channel
# ---------------------------------------------------------------------------

def _weighted_channel(model, grid, k, mu):
    """Lowest k levels of the sin^μ exponent channel on (0, π)."""
    s = float(model.s)
    xs = grid.midpoints()
    h = grid.step
    w2 = np.sin(xs) ** (2.0 * mu)
    edges = grid.lower + h * np.arange(grid.points + 1)
    w2_edge = np.sin(np.clip(edges, 0.0, np.pi)) ** (2.0 * mu)
    w2_edge[0] = 0.0
    w2_edge[-1] = 0.0
    diag = (w2_edge[1:] + w2_edge[:-1]) / (h ** 2 * w2)
    off = -w2_edge[1:-1] / (h ** 2 * np.sqrt(w2[:-1] * w2[1:]))
    eps, y = eigh_tridiagonal(diag, off, select="i",
                              select_range=(0, min(k, len(xs)) - 1))
    energies = eps + (s * s - 0.25) + mu
    # the symmetrized eigenvector is y = w·φ, which is ψ on the grid already
    return xs, energies, y


def solve_inverse_square_cell(model, k=4, points=1600, tol=None):
    """Band-edge (or bound) levels of the inverse-square cell potential.

    Each wall-exponent channel μ = 1/2 ± s is solved separately; for s > 1/2
    only the normalizable μ = 1/2 + s channel exists.
    """
    s = float(model.s)
    channels = [(0.5 + s, "exponent_plus")]
    if s < 0.5:
        channels.append((0.5 - s, "exponent_minus"))
    results = _pooled(*[(_weighted_channel, model, GridSpec(0.0, np.pi, npts, tag), k + 1, mu)
                        for mu, tag in channels for npts in (points, 2 * points)])
    merged = []
    for (_, tag), (_, vals_c, _), (xs, vals_f, vecs) in zip(
            channels, results[0::2], results[1::2]):
        extr, est = _richardson(vals_c, vals_f)
        for i, (e, err) in enumerate(zip(extr, est)):
            merged.append((float(e), tag, np.interp(
                np.linspace(0.0, np.pi, 1201)[1:-1], xs, vecs[:, i]),
                float(err)))
    merged.sort(key=lambda item: item[0])
    merged = merged[:2 * k if len(channels) == 2 else k]
    if tol is not None and any(item[3] > tol for item in merged):
        raise GridTooCoarseError("channel error estimate exceeds tolerance")
    xs_common = np.linspace(0.0, np.pi, 1201)[1:-1]
    return OracleSpectrum(
        eigenvalues=tuple(item[0] for item in merged),
        eigenvectors=np.column_stack([item[2] for item in merged]),
        xs=xs_common,
        bc_tags=tuple(item[1] for item in merged),
        error_estimates=tuple(item[3] for item in merged))


# ---------------------------------------------------------------------------
# complex potentials: dense non-Hermitian solves with stability filtering
# ---------------------------------------------------------------------------

def _line_operator(model, grid):
    """Dirichlet operator for a complex potential sampled on a line."""
    xs = grid.interior()
    h = grid.step
    n = len(xs)
    mat = np.zeros((n, n), dtype=complex)
    np.fill_diagonal(mat, 2.0 / h ** 2 + np.asarray(model.potential(xs), dtype=complex))
    idx = np.arange(n - 1)
    mat[idx, idx + 1] = -1.0 / h ** 2
    mat[idx + 1, idx] = -1.0 / h ** 2
    return xs, mat


def _bent_contour_operator(model, grid, bend=0.25 * np.pi, steepness=1.5):
    """Operator on x(σ) = σ + i·bend·tanh(steepness·σ) with Dirichlet ends."""
    sig = grid.interior()
    h = grid.step
    n = len(sig)
    sech2 = 1.0 / np.cosh(steepness * sig) ** 2
    xprime = 1.0 + 1j * bend * steepness * sech2
    xsecond = -2j * bend * steepness ** 2 * sech2 * np.tanh(steepness * sig)
    xcurve = sig + 1j * bend * np.tanh(steepness * sig)
    mat = np.zeros((n, n), dtype=complex)
    inv2 = 1.0 / xprime ** 2
    np.fill_diagonal(mat, 2.0 * inv2 / h ** 2
                     + np.asarray(model.potential(xcurve), dtype=complex))
    idx = np.arange(n - 1)
    mat[idx, idx + 1] = -inv2[idx] / h ** 2
    mat[idx + 1, idx] = -inv2[idx + 1] / h ** 2
    first = xsecond / xprime ** 3
    mat[idx, idx + 1] += first[idx] / (2.0 * h)
    mat[idx + 1, idx] += -first[idx + 1] / (2.0 * h)
    return sig, mat, xcurve


def _complex_eigs(mat):
    vals, vecs = eig(mat)
    order = np.argsort(vals.real + 1e-9 * vals.imag)
    return vals[order], vecs[:, order]


def solve_pt(model, points=640, max_real=40.0, stability_tol=5e-3):
    """Complex spectrum of a PT-symmetric model, filtered for grid stability.

    An eigenvalue is kept only when the coarse and fine grids agree on it;
    matched pairs are Richardson-combined.  Eigenfunctions of the bent
    contour are reported against the contour parameter.
    """
    lo, hi = model.x_window()
    bent = model.bent_contour

    def solve_at(npts):
        grid = GridSpec(lo, hi, npts, "contour" if bent else "dirichlet")
        if bent:
            xs, mat, xcurve = _bent_contour_operator(model, grid)
        else:
            xs, mat = _line_operator(model, grid)
            xcurve = xs
        vals, vecs = _complex_eigs(mat)
        return xs, xcurve, vals, vecs

    (_, _, vals_c, _), (xs, xcurve, vals_f, vecs_f) = _pooled(
        (solve_at, points // 2), (solve_at, points))

    kept = []
    for i, v in enumerate(vals_f):
        if abs(v.real) > max_real or abs(v.imag) > max_real:
            continue
        j = int(np.argmin(np.abs(vals_c - v)))
        gap = abs(vals_c[j] - v)
        if gap <= stability_tol * (1.0 + abs(v)):
            extr = (4.0 * v - vals_c[j]) / 3.0
            kept.append((extr, vecs_f[:, i], gap / 3.0))
    kept.sort(key=lambda item: (item[0].real, item[0].imag))
    if not kept:
        raise GridTooCoarseError("no grid-stable complex eigenvalues found")
    return OracleSpectrum(
        eigenvalues=tuple(complex(item[0]) for item in kept),
        eigenvectors=np.column_stack([item[1] for item in kept]),
        xs=np.asarray(xcurve),
        bc_tags=tuple("contour" if bent else "dirichlet" for _ in kept),
        error_estimates=tuple(float(item[2]) for item in kept))


def solve_oracle(model, k=4, **kwargs):
    """Dispatch to the solver the model declares (model.oracle)."""
    if model.oracle == "pt":
        return solve_pt(model, **kwargs)
    if model.oracle == "inverse_square_cell":
        return solve_inverse_square_cell(model, k=k, **kwargs)
    if model.oracle == "band_edges":
        return solve_band_edges(model, k=max(k, model.min_band_edges), **kwargs)
    return solve_bound(model, k=k, **kwargs)
