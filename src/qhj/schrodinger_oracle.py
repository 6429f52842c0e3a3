"""Independent grid diagonalization of −ψ'' + V ψ = E ψ.

This module never touches the residue/quantization machinery: it builds
operators straight from the potential callable and diagonalizes them,
providing the cross-check spectra.

Techniques, chosen per boundary behaviour:

* bound states — second-order tridiagonal Dirichlet operator, eigenvalues
  at two resolutions combined by Richardson extrapolation;
* band edges of smooth periodic potentials — Hill's method: the lowest
  `keep` eigenpairs of real Fourier matrices (one FFT of V) of the periodic
  and antiperiodic operators, merged and tagged; each error bar is the
  measured change as the Fourier cutoff doubles, plus a rounding floor;
* the inverse-square periodic cell — the naive operator only converges onto
  one wall behaviour, so each exponent channel is solved as a weighted
  Sturm–Liouville problem −(w²φ')' = ε w² φ with w = sin^μ x, whose natural
  boundary conditions select that channel;
* complex (PT-symmetric) potentials — dense non-Hermitian diagonalization,
  on a bent contour when the eigenfunctions only decay off the real axis;
  eigenvalues are kept only when stable across two resolutions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy.linalg import eig, eigh, eigh_tridiagonal

from .errors import GridTooCoarseError, ParameterError

_MIN_POINTS = 64


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on (lower, upper)."""

    lower: float
    upper: float
    points: int

    def __post_init__(self):
        if self.points < _MIN_POINTS:
            raise GridTooCoarseError(
                "grid needs at least %d points, got %d" % (_MIN_POINTS, self.points))
        if not self.upper > self.lower:
            raise ParameterError("grid interval is empty")

    @property
    def step(self):
        return (self.upper - self.lower) / self.points

    def interior(self):
        h = self.step
        return self.lower + h * np.arange(1, self.points)

    def midpoints(self):
        h = self.step
        return self.lower + h * (np.arange(self.points) + 0.5)


@dataclass
class OracleSpectrum:
    """Grid spectrum: energies, vectors (columns), per-level metadata.

    Node counts, where given, must not fall as the energy rises within one
    bc tag; a grid that breaks this cannot resolve the levels.
    """

    eigenvalues: Tuple[complex, ...]
    eigenvectors: np.ndarray
    xs: np.ndarray
    bc_tags: Tuple[str, ...]
    node_counts: Optional[Tuple[int, ...]] = None
    error_estimates: Optional[Tuple[float, ...]] = None

    def __post_init__(self):
        if self.node_counts is not None:
            for tag in set(self.bc_tags):
                counts = [n for n, t in zip(self.node_counts, self.bc_tags) if t == tag]
                if counts != sorted(counts):
                    raise GridTooCoarseError(
                        "node counts are not monotone — grid cannot resolve the "
                        "requested levels")


def count_nodes(values, rel_floor=1e-10, tag=None):
    """Sign changes of a (real up to phase) sampled function.

    On a "periodic" or "antiperiodic" tag the samples span one closed cell:
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
    floor = rel_floor * (np.max(np.abs(vals)) or 1.0)
    positive = vals[np.abs(vals) > floor] > 0
    if tag in ("periodic", "antiperiodic") and positive.size:
        positive = np.append(positive, positive[0] != (tag == "antiperiodic"))
    return int(np.count_nonzero(positive[1:] != positive[:-1]))


def _two_grid(solve, lo, hi, points, channels):
    """Richardson-combined levels of each channel, solved at two resolutions.

    For each (tag, arg) channel, solve(GridSpec(lo, hi, npts), arg) returns
    (xs, energies, vectors) at points and at 2·points.  Returns the
    fine xs and the (energy, tag, fine vector, error estimate) items of all
    channels, sorted by energy.
    """
    items = []
    for tag, arg in channels:
        _, vals_c, _ = solve(GridSpec(lo, hi, points), arg)
        xs, vals_f, vecs = solve(GridSpec(lo, hi, 2 * points), arg)
        # second-order scheme: the error shrinks fourfold as h halves
        items += [(float((4.0 * f - c) / 3.0), tag, vecs[:, i], float(abs(f - c) / 3.0))
                  for i, (c, f) in enumerate(zip(vals_c, vals_f))]
    items.sort(key=lambda item: item[0])
    return xs, items


def _spectrum(xs, items, tol, node_counts=None):
    """OracleSpectrum of (energy, tag, vector, error estimate) items.

    Raises GridTooCoarseError when an error estimate exceeds tol.
    """
    worst = max(item[3] for item in items)
    if tol is not None and worst > tol:
        raise GridTooCoarseError(
            "error estimate %.3e exceeds tolerance %.3e; refine the "
            "discretization" % (worst, tol))
    return OracleSpectrum(
        eigenvalues=tuple(item[0] for item in items),
        eigenvectors=np.column_stack([item[2] for item in items]),
        xs=xs,
        bc_tags=tuple(item[1] for item in items),
        node_counts=node_counts,
        error_estimates=tuple(item[3] for item in items))


def solve_bound(model, k, points=2400, tol=None):
    """Lowest k Dirichlet levels with Richardson extrapolation.

    Raises GridTooCoarseError when a requested tolerance exceeds the
    Richardson error estimate.
    """
    def lowest(grid, count):
        xs = grid.interior()
        h = grid.step
        diag = 2.0 / h ** 2 + np.asarray(model.potential(xs), dtype=float)
        off = np.full(len(xs) - 1, -1.0 / h ** 2)
        vals, vecs = eigh_tridiagonal(diag, off, select="i",
                                      select_range=(0, min(count, len(xs)) - 1))
        return xs, vals, vecs

    xs, items = _two_grid(lowest, *model.x_window(), points, [("dirichlet", k)])
    return _spectrum(xs, items, tol, tuple(count_nodes(item[2]) for item in items))


# ---------------------------------------------------------------------------
# periodic cell (smooth potentials): Hill's method, periodic ∪ antiperiodic
# ---------------------------------------------------------------------------

_HILL_MODES, _HILL_MAX_MODES = 24, 384   # first and largest Fourier cutoff M


def _hill(vhat, theta, modes, length):
    """Hill matrix of −d² + V on √2·cos(2πqx/L) (1 at q = 0), then √2·sin
    (q > 0), q = n + θ, n ≤ M; vhat[−p] = conj V̂_p for real V."""
    n, s = np.arange(modes + 1), int(theta == 0)
    dif, tot = np.subtract.outer(n, n), np.add.outer(n, n) + 1 - s
    re, im, w = vhat.real, vhat.imag, np.where(n < s, np.sqrt(0.5), 1.0)
    cs = (-im[tot] - im[-dif]) * w[:, None]
    return np.block([[(re[dif] + re[tot]) * np.outer(w, w), cs[:, s:]],
                     [cs[:, s:].T, (re[dif] - re[tot])[s:, s:]]]) \
        + np.diag((2.0 * np.pi / length * (np.concatenate([n, n[s:]]) + theta)) ** 2)


def solve_band_edges(model, k=6, tol=None, emax=None):
    """Lowest band edges of a smooth periodic potential over one cell, by Hill.

    Keeps the lowest ``keep`` eigenpairs per operator (keep = k + 2, or at
    least 40 with ``emax``; at most the matrix order), plus every edge up to
    ``emax``.  Estimate: |E(M) − E(2M)| + 4·eps·‖H‖.  M starts at 24 and
    doubles, to a cap, while one exceeds 1e-10·(1 + |E|) or the count ≤ emax
    changes.  Vectors are sampled on cell midpoints: odd edges vanish at x = 0, L/2.
    Node counts are taken on the closed cell, so each tag's counts rise with E.
    """
    keep, top = (k + 2, -np.inf) if emax is None else (max(k + 2, 40), emax)
    lo, hi = model.x_window()
    length, samples = hi - lo, 4 * _HILL_MAX_MODES
    vhat = np.fft.fft(np.asarray(model.potential(
        lo + length * np.arange(samples) / samples), dtype=float)) / samples
    xs = GridSpec(lo, hi, 960).midpoints()
    channels = (("periodic", 0.0), ("antiperiodic", 0.5))

    def lowest(theta, modes, vectors):
        mat = _hill(vhat, theta, modes, length)
        out = eigh(mat, subset_by_index=(0, min(keep, len(mat)) - 1), eigvals_only=not vectors)
        return (*out, 4.0 * np.finfo(float).eps * np.linalg.norm(mat, 1)) if vectors else out

    def synthesize(theta, vec):
        # w·u·cos + v·sin summed = Re Σ (w·u − i·v)·e^{2πi(n+θ)(j+½)/N}: one inverse FFT
        half, npts, s = (len(vec) + 1) // 2, len(xs), int(theta == 0)
        coef = np.concatenate([vec[:s] * np.sqrt(0.5), vec[s:half] - 1j * vec[half:]])
        return (np.exp(1j * np.pi * theta * (2 * np.arange(npts) + 1) / npts) * np.fft.ifft(
            coef * np.exp(1j * np.pi * np.arange(half) / npts), npts)).real

    modes, coarse = _HILL_MODES, [lowest(theta, _HILL_MODES, False) for _, theta in channels]
    while True:
        fine = [lowest(theta, 2 * modes, True) for _, theta in channels]
        merged = sorted(((float(e), tag, (theta, vecs[:, i]),
                          (abs(e - c[i]) if i < len(c) else np.inf) + floor)
                         for (tag, theta), c, (vals, vecs, floor) in zip(channels, coarse, fine)
                         for i, e in enumerate(vals)), key=lambda item: item[0])
        cut = max(min(k, len(merged)), sum(item[0] <= top for item in merged))
        # never truncate in the middle of a (near-)degenerate cluster
        while cut < len(merged) and abs(merged[cut][0] - merged[cut - 1][0]) \
                <= 1e-6 * (1.0 + abs(merged[cut][0])):
            cut += 1
        merged = merged[:cut]
        if 2 * modes >= _HILL_MAX_MODES or all(
                item[3] <= 1e-10 * (1.0 + abs(item[0])) for item in merged) and \
                sum(np.sum(c <= top) for c in coarse) == sum(np.sum(f[0] <= top) for f in fine):
            break
        modes, coarse = 2 * modes, [f[0] for f in fine]
    merged = [(e, tag, synthesize(*vec), est) for e, tag, vec, est in merged]
    return _spectrum(xs, merged, tol, tuple(count_nodes(v, tag=tag) for _, tag, v, _ in merged))


# ---------------------------------------------------------------------------
# inverse-square periodic cell: weighted Sturm–Liouville per exponent channel
# ---------------------------------------------------------------------------

def solve_inverse_square_cell(model, k=4, points=1600, tol=None):
    """Band-edge (or bound) levels of the inverse-square cell potential.

    Each wall-exponent channel μ = 1/2 ± s is solved separately; for s > 1/2
    only the normalizable μ = 1/2 + s channel exists.  Eigenvectors are
    reported on the cell midpoints of the fine grid.
    """
    s = float(model.s)

    def lowest(grid, mu):
        """Lowest k+1 levels of the sin^μ exponent channel on (0, π)."""
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
                                  select_range=(0, min(k + 1, len(xs)) - 1))
        # the symmetrized eigenvector is y = w·φ, which is ψ on the grid already
        return xs, eps + (s * s - 0.25) + mu, y

    channels = [("exponent_plus", 0.5 + s)]
    if s < 0.5:
        channels.append(("exponent_minus", 0.5 - s))
    xs, merged = _two_grid(lowest, 0.0, np.pi, points, channels)
    return _spectrum(xs, merged[:k * len(channels)], tol)


# ---------------------------------------------------------------------------
# complex potentials: dense non-Hermitian solves with stability filtering
# ---------------------------------------------------------------------------

def solve_pt(model, points=640, max_real=40.0, stability_tol=5e-3):
    """Complex spectrum of a PT-symmetric model, filtered for grid stability.

    An eigenvalue is kept only when the coarse and fine grids agree on it;
    matched pairs are Richardson-combined.  The operator acts along the
    contour x(σ) = σ + i·bend·tanh(steepness·σ) and eigenfunctions are
    reported against x(σ): bend = π/4 for models whose eigenfunctions only
    decay off the real axis, bend = 0 (the real line) otherwise.
    """
    lo, hi = model.x_window()
    tag = "contour" if model.bent_contour else "dirichlet"
    bend, steepness = (0.25 * np.pi if model.bent_contour else 0.0), 1.5

    def solve_at(npts):
        grid = GridSpec(lo, hi, npts)
        sig = grid.interior()
        h = grid.step
        sech2 = 1.0 / np.cosh(steepness * sig) ** 2
        xprime = 1.0 + 1j * bend * steepness * sech2
        xsecond = -2j * bend * steepness ** 2 * sech2 * np.tanh(steepness * sig)
        xs = sig + 1j * bend * np.tanh(steepness * sig)
        inv2 = 1.0 / xprime ** 2
        first = xsecond / xprime ** 3
        mat = np.diag(2.0 * inv2 / h ** 2 + np.asarray(model.potential(xs), dtype=complex))
        np.fill_diagonal(mat[1:], -inv2[1:] / h ** 2 - first[1:] / (2.0 * h))
        np.fill_diagonal(mat[:, 1:], -inv2[:-1] / h ** 2 + first[:-1] / (2.0 * h))
        vals, vecs = eig(mat)
        order = np.argsort(vals.real + 1e-9 * vals.imag)
        return xs, vals[order], vecs[:, order]

    _, vals_c, _ = solve_at(points // 2)
    xs, vals_f, vecs_f = solve_at(points)
    kept = []
    for i, v in enumerate(vals_f):
        if abs(v.real) > max_real or abs(v.imag) > max_real:
            continue
        j = int(np.argmin(np.abs(vals_c - v)))
        gap = abs(vals_c[j] - v)
        if gap <= stability_tol * (1.0 + abs(v)):
            kept.append((complex((4.0 * v - vals_c[j]) / 3.0), tag, vecs_f[:, i],
                         float(gap / 3.0)))
    kept.sort(key=lambda item: (item[0].real, item[0].imag))
    if not kept:
        raise GridTooCoarseError("no grid-stable complex eigenvalues found")
    return _spectrum(xs, kept, None)


def solve_oracle(model, k=4, emax=None):
    """Dispatch to the solver the model declares (model.oracle).

    emax reaches only the band-edge solver, which then keeps every edge up
    to it: the algebraic edges can be a sparse subset of all edges.
    """
    if model.oracle == "pt":
        return solve_pt(model)
    if model.oracle == "inverse_square_cell":
        return solve_inverse_square_cell(model, k=k)
    if model.oracle == "band_edges":
        return solve_band_edges(model, k=max(k, model.min_band_edges), emax=emax)
    return solve_bound(model, k=k)
