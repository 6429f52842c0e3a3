"""Independent grid diagonalization of −ψ'' + V ψ = E ψ.

This module never touches the residue/quantization machinery: it builds
operators straight from the potential callable and the domain each family
declares, and diagonalizes them, providing the cross-check spectra.

* Chebyshev collocation (Trefethen, *Spectral Methods in MATLAB*, 2000; Boyd,
  *Chebyshev and Fourier Spectral Methods*, 2001) for bound states,
  inverse-square cells and complex potentials: ψ = W·φ, where the wall factor
  W carries a root ρ = 1/2 ± √(1/4 + c) of ρ(ρ−1) = c at each wall V ≈ c/d²
  (one channel per choice of roots, see _channels), and φ is collocated on N
  Gauss–Chebyshev nodes with no endpoint rows.  A level's error estimate is
  the change from the solve at N to the one at 2N plus a rounding floor, and
  it counts when that is ≤ 1e-4·(1 + |E|).  The nodes are mirror images,
  s_{N−1−j} = −s_j, so the flip J of the node order carries a mirror symmetry
  of the potential over to the matrix; a family that declares one is
  diagonalized in reduced form.
  Parity (JHJ = H) splits H into an even and an odd block of order N/2; PT
  symmetry (JHJ = conj H) makes S*HS real for the unitary S = (I + iJ)/√2
  (Bender & Boettcher, PRL 80 (1998) 5243), so real levels come out exactly
  real and broken pairs as exact conjugates.  The nodes, D1, D2 and the
  960×N interpolation matrix depend on N alone: each is a read-only table
  built once per N, and the four sizes N = 32..256 bound them at about 5 MB.
* band edges of smooth periodic potentials — Hill's method: the lowest
  `keep` eigenpairs of real Fourier matrices (one FFT of V) of the periodic
  and antiperiodic operators, merged and tagged; each error bar is the
  measured change as the Fourier cutoff doubles, plus a rounding floor.

Every dense eigensolve goes through the module-level `eig` and `eigh`, which
run numpy.linalg's LAPACK with scipy.linalg's signature and return types.
The rest of the oracle's BLAS work is numpy's too, so one BLAS thread pool
serves a solve: where numpy and scipy each ship their own OpenBLAS, mixing
them leaves two pools spinning on the same cores.  `eigh_tridiagonal` is
bound only for the benchmark tracer, which wraps all three names; it is all
that loads scipy on `qhj verify`, and stays while the traced benchmark reads
scipy's import time from `qhj verify` children (a metric that must not read 0).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np
# unused here: bound only so that perfbench/tracer.py can wrap it with eig, eigh
from scipy.linalg import eigh_tridiagonal  # noqa: F401

from .domain import OracleDomain, channel_tag  # noqa: F401  (re-exported)
from .errors import GridTooCoarseError


def eig(a, right=True):
    """Eigenvalues of a, always complex as in scipy.linalg.eig, and with right
    the unit-norm right eigenvectors (columns), left as LAPACK returns them."""
    if not right:
        return np.linalg.eigvals(a).astype(complex, copy=False)
    w, v = np.linalg.eig(a)
    return w.astype(complex, copy=False), v


def eigh(a, subset_by_index, eigvals_only=False):
    """Eigenvalues lo..hi (ascending, inclusive) of the symmetric a, and unless
    eigvals_only their eigenvectors, from one full solve sliced to the range."""
    lo, hi = subset_by_index
    if eigvals_only:
        return np.linalg.eigvalsh(a)[lo:hi + 1]
    w, v = np.linalg.eigh(a)
    return w[lo:hi + 1], v[:, lo:hi + 1]


_SAMPLES = 960              # output grid points: midpoints of the cell, or of s ∈ (−1, 1)


@dataclass
class OracleSpectrum:
    """Grid spectrum: energies, vectors (columns), per-level metadata; node
    counts come from the oscillation theorem (Sturm's, or Hill's edge order)."""

    eigenvalues: Tuple[complex, ...]
    eigenvectors: np.ndarray
    xs: np.ndarray
    bc_tags: Tuple[str, ...]
    node_counts: Optional[Tuple[int, ...]] = None
    error_estimates: Optional[Tuple[float, ...]] = None


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


def _spectrum(xs, items):
    """OracleSpectrum of (energy, tag, vector, error estimate, node count or None) items."""
    energies, tags, vectors, estimates, nodes = zip(*items)
    return OracleSpectrum(energies, np.column_stack(vectors), xs, tags,
                          node_counts=None if None in nodes else nodes, error_estimates=estimates)


# ---------------------------------------------------------------------------
# Chebyshev collocation: bound levels, wall-exponent channels, complex spectra
# ---------------------------------------------------------------------------

_FIRST_NODES, _MAX_NODES, _PT_NODES = 32, 256, 128   # bound solves' first N; cap on 2N
_CONVERGED, _VECTORS_AGREE = 1e-4, 1e-2   # counting rule; bound solves' vector change
_PT_WINDOW = 40.0                         # |Re E|, |Im E| kept


def _frozen(*arrays):
    """The arrays, made read-only: each table below is shared by every solve."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=None)
def _nodes(n):
    """Gauss–Chebyshev nodes s_j = cos((2j+1)π/2n) and barycentric weights."""
    theta = np.pi * (2 * np.arange(n) + 1) / (2 * n)
    return _frozen(np.cos(theta), (-1.0) ** np.arange(n) * np.sin(theta))


@lru_cache(maxsize=None)
def _differentiation(n):
    """First and second differentiation matrices D1, D2 on the n nodes."""
    s, bw = _nodes(n)
    dif = np.subtract.outer(s, s) + np.eye(n)
    d1 = np.outer(1.0 / bw, bw) / dif - np.eye(n)
    d1 -= np.diag(d1.sum(axis=1))
    d2 = 2.0 * d1 * (np.diag(d1)[:, None] - 1.0 / dif) * (1.0 - np.eye(n))
    d2 -= np.diag(d2.sum(axis=1))
    return _frozen(d1, d2)


@lru_cache(maxsize=None)
def _interpolation(n):
    """960 midpoints t in s, barycentric matrix c from n node values to t, c's row sums."""
    t = (2.0 * np.arange(_SAMPLES) + 1.0) / _SAMPLES - 1.0
    s, bw = _nodes(n)
    c = bw / np.subtract.outer(t, s)
    return _frozen(t, c, c.sum(axis=1))


def _geometry(domain, rho, s):
    """x, dx/ds, d²x/ds², W, W'/W, W''/W at s, for the exponents rho at the ends:
    W = sin(π(1+s)/4)^ρ₋·sin(π(1−s)/4)^ρ₊ on a finite interval, ((1+s)/2)^ρ₋ on
    the half line and 1 on the line, so W ≤ 1."""
    (lo, hi), scale, zero = domain.ends, domain.scale, np.zeros_like(s)
    if np.isinf(lo):                       # line: σ = L·s/√(1−s²)
        q = 1.0 - s * s
        sig, d1, d2 = scale * s / np.sqrt(q), scale / q ** 1.5, 3.0 * scale * s / q ** 2.5
        w, w1, w2 = zero + 1.0, zero, zero
    elif np.isinf(hi):                     # half line: σ = lo + L(1+s)/(1−s)
        r, m = rho[0], 1.0 - s
        sig, d1, d2 = lo + scale * (1 + s) / m, 2 * scale / m ** 2, 4 * scale / m ** 3
        w, w1, w2 = ((1 + s) / 2) ** r, r / (1 + s), r * (r - 1) / (1 + s) ** 2
    else:                                  # finite interval: σ linear in s
        u, v, k = 0.25 * np.pi * (1 + s), 0.25 * np.pi * (1 - s), 0.25 * np.pi
        sig, d1, d2 = lo + 0.5 * (hi - lo) * (1 + s), zero + 0.5 * (hi - lo), zero
        w = np.sin(u) ** rho[0] * np.sin(v) ** rho[1]
        w1 = k * (rho[0] / np.tan(u) - rho[1] / np.tan(v))
        w2 = w1 ** 2 - k * k * (rho[0] / np.sin(u) ** 2 + rho[1] / np.sin(v) ** 2)
    if domain.contour is not None:
        x, c1, c2 = domain.contour(sig)
        sig, d1, d2 = x, c1 * d1, c2 * d1 ** 2 + c1 * d2
    return sig, d1, d2, w, w1, w2


def _operator(model, domain, rho, n):
    """Collocation matrix of φ ↦ (−ψ'' + Vψ)/W, ψ = W·φ, on n nodes."""
    (s, _), (d1, d2) = _nodes(n), _differentiation(n)
    x, p, q, _, w1, w2 = _geometry(domain, rho, s)
    a, b = 1.0 / p ** 2, q / p ** 3      # ψ_xx = a·ψ_ss − b·ψ_s
    return -a[:, None] * d2 + (b - 2.0 * a * w1)[:, None] * d1 \
        + np.diag(np.asarray(model.potential(x)) - a * w2 + b * w1)


def _sample(domain, rho, vecs):
    """(xs, W·φ) at the images of 960 midpoints in s, φ interpolated from its
    node values (the columns of vecs) by the barycentric formula."""
    t, c, rows = _interpolation(len(vecs))
    x, _, _, w, _, _ = _geometry(domain, rho, t)
    return x, (w / rows)[:, None] * (c @ vecs)


def _eig(mat, mirror, vectors=True):
    """Eigenvalues of mat and, when vectors is set, a map from column indices
    to those eigenvectors, from the module-bound eig on the reduced form the
    mirror symmetry allows (J is the flip mat[::-1, ::-1], h = N/2; N is even).

    parity, JHJ = H: even block a + b and odd block a − b, a = H[:h, :h],
    b = H[:h, h:]·J; the vectors are [u; Ju] and [u; −Ju].  pt, JHJ = conj H:
    S*HS = Re H − (Im H)·J is real, S = (I + iJ)/√2; ψ ∝ v + i·Jv."""
    if mirror == "parity":
        h = len(mat) // 2
        a, b, sign = mat[:h, :h], mat[:h, h:][:, ::-1], np.repeat([1.0, -1.0], h)
        blocks, lift = [a + b, a - b], lambda v, cols: np.vstack([v, sign[cols] * v[::-1]])
    elif mirror == "pt":
        blocks, lift = [mat.real - mat.imag[:, ::-1]], lambda v, cols: v + 1j * v[::-1]
    else:
        blocks, lift = [mat], lambda v, cols: v
    out = [eig(block, right=vectors) for block in blocks]
    if not vectors:
        return np.concatenate(out), None
    vecs = np.hstack([v for _, v in out])
    return np.concatenate([w for w, _ in out]), lambda cols: lift(vecs[:, cols], cols)


def _collocate(model, domain, rho, n, order, k=None, compare=True):
    """Levels of one wall-exponent channel from the solves at N = n and 2N.

    N doubles until the first k of the eigenvalues order(vals) lists at 2N
    all count (their estimate |E(2N) − E(N)| + 4·eps·‖H‖₁ is
    ≤ 1e-4·(1 + |E|)) and their sup-normalized vectors change by ≤ 1e-2, or
    until 2N = 256, where the first k that count are kept (all, for k None).
    Returns xs, (E, ψ, estimate) for each kept level, and the eigenvalues
    at 2N that do not count, as order(vals) lists them.  Without compare the
    solves at N give eigenvalues only and the vectors are not compared."""
    coarse, rough = _eig(_operator(model, domain, rho, n), domain.mirror, compare)
    while True:
        mat = _operator(model, domain, rho, 2 * n)
        vals, vector = _eig(mat, domain.mirror)
        near = np.argmin(np.abs(np.subtract.outer(vals, coarse)), axis=1)
        # the N/2N change plus the rounding floor of Hill's estimate, 4·eps·‖H‖₁
        est = np.abs(vals - coarse[near]) + 4.0 * np.finfo(float).eps * np.linalg.norm(mat, 1)
        ranked = order(vals)
        counts = est[ranked] <= _CONVERGED * (1.0 + np.abs(vals[ranked]))
        if counts[:k].all() or 2 * n >= _MAX_NODES:
            sel = ranked[counts][:k]
            xs, psi = _sample(domain, rho, vector(sel))
            change = np.zeros(len(sel))
            if compare:
                _, old = _sample(domain, rho, rough(near[sel]))
                peak = (np.argmax(np.abs(psi), axis=0), np.arange(len(sel)))
                change = np.max(np.abs(psi / psi[peak] - old / old[peak]), axis=0, initial=0.0)
            if np.all(change <= _VECTORS_AGREE) or 2 * n >= _MAX_NODES:
                return xs, [(vals[i], psi[:, j], float(est[i]))
                            for j, i in enumerate(sel)], vals[ranked[~counts]]
        n, coarse, rough = 2 * n, vals, vector


def _channels(model, k):
    """OracleSpectrum of the lowest k counted levels of each channel (only
    those k must converge for N to stop doubling), one channel per
    combination of roots: each wall takes the principal root, and the
    secondary one if distinct and positive (−1/4 < c < 0; Everitt, 2005).
    By Sturm, level j of a channel has j interior zeros; its matrix is real,
    so a conjugate pair is a mode of the grid, not a level.  A real
    eigenvalue at 2N that fails the counting rule at or below a kept level
    could shift the ranks: that raises GridTooCoarseError."""
    domain = model.oracle_domain()
    roots = [[(True, 0.5 + r)] + ([(False, 0.5 - r)] if 0 < r < 0.5 else [])
             for r in np.sqrt(0.25 + np.array(domain.walls))]
    items = []
    for channel in itertools.product(*roots):
        principal, rho = zip(*channel)
        tag = channel_tag(principal)
        xs, levels, loose = _collocate(model, domain, np.array(rho), _FIRST_NODES,
                                       lambda vals: np.argsort(vals.real), k)
        loose = loose.real[loose.imag == 0]          # in ascending order
        if levels and np.any(loose <= levels[-1][0].real):
            raise GridTooCoarseError(
                "channel %s (rho = %s): the eigenvalue at E = %.6g fails the counting rule below "
                "a kept level, so the levels' node counts are unknown"
                % (tag, ", ".join("%.4g" % r for r in rho), loose[0]))
        items += [(e.real, tag, psi, est, rank) for rank, (e, psi, est) in enumerate(levels)]
    if not items:
        raise GridTooCoarseError("no level converged by N = %d" % (_MAX_NODES // 2))
    return _spectrum(xs, sorted(items, key=lambda item: item[0]))


def solve_bound(model, k):
    """Lowest k levels of each wall-exponent channel of a bound problem.  Raises
    GridTooCoarseError when none converges."""
    return _channels(model, k)


def solve_inverse_square_cell(model, k=4):
    """Lowest k levels of each wall-exponent channel of an inverse-square cell."""
    return _channels(model, k)


def solve_pt(model):
    """Every counted eigenvalue with |Re E|, |Im E| ≤ 40 from the solves at
    N = 128 and 2N = 256, with eigenfunctions against x on the declared
    contour.  Raises GridTooCoarseError when none counts."""
    domain = model.oracle_domain()
    xs, levels, _ = _collocate(
        model, domain, 0.5 + np.sqrt(0.25 + np.array(domain.walls)), _PT_NODES,
        lambda vals: np.flatnonzero(np.maximum(abs(vals.real), abs(vals.imag)) <= _PT_WINDOW),
        compare=False)
    if not levels:
        raise GridTooCoarseError("no eigenvalue agrees between N = 128 and 256")
    levels.sort(key=lambda level: (level[0].real, level[0].imag))
    tag = channel_tag([True] * len(domain.walls))
    return _spectrum(xs, [(complex(e), tag, psi, est, None) for e, psi, est in levels])


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


def solve_band_edges(model, k=6, emax=None):
    """Lowest band edges of a smooth periodic potential over one cell, by Hill.

    Keeps the lowest ``keep`` eigenpairs per operator (keep = k + 2, or at
    least 40 with ``emax``; at most the matrix order), plus every edge up to
    ``emax``.  Estimate: |E(M) − E(2M)| + 4·eps·‖H‖.  M starts at 24 and
    doubles, to a cap, while one exceeds 1e-10·(1 + |E|) or the count ≤ emax
    changes.  Vectors are sampled on cell midpoints: odd edges vanish at x = 0, L/2.
    Edge i of its operator has 2⌈i/2⌉ zeros per cell if periodic, 2⌊i/2⌋ + 1
    if antiperiodic (Magnus & Winkler, *Hill's Equation*, 1966, Thm 2.1).
    """
    keep, top = (k + 2, -np.inf) if emax is None else (max(k + 2, 40), emax)
    lo, hi = model.x_window()
    length, samples = hi - lo, 4 * _HILL_MAX_MODES
    vhat = np.fft.fft(np.asarray(model.potential(
        lo + length * np.arange(samples) / samples), dtype=float)) / samples
    xs = lo + length / _SAMPLES * (np.arange(_SAMPLES) + 0.5)
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
                          (abs(e - c[i]) if i < len(c) else np.inf) + floor,
                          2 * ((i + 1) // 2) if theta == 0 else 2 * (i // 2) + 1)
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
    return _spectrum(xs, [(e, tag, synthesize(*vec), est, n) for e, tag, vec, est, n in merged])


def solve_oracle(model, k=4, emax=None):
    """Dispatch to the solver the model declares (model.oracle).

    k counts levels per channel: the lowest k of each collocation channel,
    or at least k band edges (and model.min_band_edges); solve_pt ignores
    it.  verify() passes the most residue levels of any one channel.  emax
    reaches only the band-edge solver, which then keeps every edge up to
    it: the algebraic edges can be a sparse subset of all edges.
    """
    if model.oracle == "pt":
        return solve_pt(model)
    if model.oracle == "inverse_square_cell":
        return solve_inverse_square_cell(model, k=k)
    if model.oracle == "band_edges":
        return solve_band_edges(model, k=max(k, model.min_band_edges), emax=emax)
    return solve_bound(model, k=k)
