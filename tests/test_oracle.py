"""Grid-diagonalization reference solver, checked against textbook spectra.

Free-particle boxes and cells have exact eigenvalues, which pins down the
discretization, the boundary handling, the Richardson extrapolation and the
Hill (Fourier) band-edge solver without any reference to the residue
machinery being verified elsewhere; Mathieu characteristic values give the
band-edge solver an independent reference with a nonzero potential.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from qhj import get_model, potential_catalog, schrodinger_oracle, special_functions
from qhj.errors import GridTooCoarseError, ParameterError
from qhj.schrodinger_oracle import (GridSpec, OracleSpectrum, count_nodes,
                                    solve_band_edges, solve_bound,
                                    solve_inverse_square_cell, solve_oracle,
                                    solve_pt)


class _FlatBox:
    """V = 0 on (0, pi): Dirichlet eigenvalues are exactly n^2."""

    id = "flat_box"

    def x_window(self):
        return (0.0, math.pi)

    def potential(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))


class _FlatCell(_FlatBox):
    """V = 0 on a 2*pi cell: band edges 0, 1, 1, 4, 4, ..."""

    id = "flat_cell"

    def x_window(self):
        return (0.0, 2 * math.pi)


class TestGridSpec:
    def test_rejects_coarse_grids(self):
        with pytest.raises(GridTooCoarseError):
            GridSpec(0.0, 1.0, 32)

    def test_rejects_empty_interval(self):
        with pytest.raises(ParameterError):
            GridSpec(1.0, 1.0, 128)

    def test_interior_excludes_the_walls(self):
        spec = GridSpec(0.0, 1.0, 100)
        xs = spec.interior()
        assert 0.0 < xs[0] and xs[-1] < 1.0
        assert len(xs) == 99
        assert spec.step == pytest.approx(0.01)


class TestDirichlet:
    def test_particle_in_a_box(self):
        spec = solve_bound(_FlatBox(), k=4)
        assert spec.eigenvalues == pytest.approx([1.0, 4.0, 9.0, 16.0],
                                                 abs=1e-6)
        assert list(spec.node_counts) == [0, 1, 2, 3]
        assert all(est < 1e-5 for est in spec.error_estimates)

    def test_box_eigenvectors_are_sines(self):
        spec = solve_bound(_FlatBox(), k=2)
        ref = np.sin(2 * spec.xs)
        vec = spec.eigenvectors[:, 1]
        overlap = abs(np.vdot(vec, ref)) / (np.linalg.norm(vec)
                                            * np.linalg.norm(ref))
        assert overlap > 1 - 1e-8

    def test_unreachable_tolerance_raises(self):
        with pytest.raises(GridTooCoarseError):
            solve_bound(_FlatBox(), k=2, points=256, tol=1e-30)

    def test_hydrogen_levels(self):
        model = get_model("hydrogen", e2=2, l=0)
        spec = solve_bound(model, k=3)
        assert spec.eigenvalues == pytest.approx([0.0, 0.75, 8.0 / 9.0],
                                                 abs=2e-4)


class TestBandEdges:
    def test_free_particle_edge_pattern(self):
        spec = solve_band_edges(_FlatCell(), k=5)
        assert spec.eigenvalues == pytest.approx([0.0, 0.25, 0.25, 1.0, 1.0],
                                                 abs=1e-6)
        assert list(spec.bc_tags) == ["periodic", "antiperiodic",
                                      "antiperiodic", "periodic", "periodic"]

    def test_emax_keeps_whole_clusters(self):
        spec = solve_band_edges(_FlatCell(), k=3, emax=1.05)
        # the cut must not split the doubly degenerate edge at 1.0
        assert spec.eigenvalues == pytest.approx([0.0, 0.25, 0.25, 1.0, 1.0],
                                                 abs=1e-6)

    def test_unreachable_tolerance_raises_with_the_estimate(self):
        with pytest.raises(GridTooCoarseError, match="exceeds tolerance 1.000e-30"):
            solve_band_edges(_FlatCell(), k=3, tol=1e-30)

    def test_lame_edges_match_the_pencil_values(self):
        spec = solve_band_edges(get_model("lame", j=2, m=Fraction(1, 2)), k=5)
        delta = math.sqrt(3) / 2
        assert spec.eigenvalues == pytest.approx(
            [0.0, 2 * delta - 1.5, 2 * delta, 2 * delta + 1.5, 4 * delta],
            abs=1e-10)


def _full_eigh(mat, subset_by_index, eigvals_only=False):
    """Reference band-edge eigensolve: every eigenpair, then the index range."""
    vals, vecs = scipy.linalg.eigh(mat)
    lo, hi = subset_by_index
    if eigvals_only:
        return vals[lo:hi + 1]
    return vals[lo:hi + 1], vecs[:, lo:hi + 1]


def _clusters(energies):
    """Index groups of (near-)degenerate energies, in order."""
    groups = [[0]]
    for i in range(1, len(energies)):
        if abs(energies[i] - energies[i - 1]) <= 1e-6 * (1.0 + abs(energies[i])):
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


class TestTargetedBandEdges:
    """The lowest-keep eigensolve gives what a full solve, sliced, gives."""

    @pytest.mark.parametrize("emax_above_top", [None, 0.5])
    def test_matches_the_full_solve_on_lame(self, monkeypatch, emax_above_top):
        model = get_model("lame", j=2, m=Fraction(1, 2))
        emax = None
        if emax_above_top is not None:
            top = solve_band_edges(model, k=5).eigenvalues[-1]
            emax = top + emax_above_top
        fast = solve_band_edges(model, k=5, emax=emax)
        monkeypatch.setattr(schrodinger_oracle, "eigh", _full_eigh)
        ref = solve_band_edges(model, k=5, emax=emax)
        assert len(fast.eigenvalues) == len(ref.eigenvalues) >= 5
        for e, r in zip(fast.eigenvalues, ref.eigenvalues):
            assert abs(e - r) <= 1e-9 * (1.0 + abs(r))
        assert fast.bc_tags == ref.bc_tags
        assert fast.node_counts == ref.node_counts
        for group in _clusters(ref.eigenvalues):
            basis, _ = np.linalg.qr(ref.eigenvectors[:, group])
            for i in group:
                v = fast.eigenvectors[:, i] / np.linalg.norm(fast.eigenvectors[:, i])
                assert np.linalg.norm(basis.T @ v) >= 1.0 - 1e-10

    def test_keep_beyond_the_matrix_takes_every_pair(self, monkeypatch):
        pairs = []

        def spy(mat, subset_by_index, eigvals_only=False):
            out = scipy.linalg.eigh(mat, subset_by_index=subset_by_index,
                                    eigvals_only=eigvals_only)
            pairs.append((len(mat), len(out if eigvals_only else out[0])))
            return out

        monkeypatch.setattr(schrodinger_oracle, "eigh", spy)
        # keep = k + 2 = 72 exceeds the order of both 24-mode matrices
        # (49 periodic, 50 antiperiodic), not of the 48-mode ones
        spec = solve_band_edges(_FlatCell(), k=70)
        assert pairs == [(49, 49), (50, 50), (97, 72), (98, 72)]
        assert len(spec.eigenvalues) >= 70
        assert set(spec.bc_tags) == {"periodic", "antiperiodic"}


class _MathieuCell:
    """V = 2q·cos 2x on (0, π): Mathieu's equation y'' + (a − 2q cos 2x) y = 0.

    The π-periodic edges are a_{2r} and b_{2r+2}, the π-antiperiodic ones
    a_{2r+1} and b_{2r+1}.
    """

    id = "mathieu_cell"

    def __init__(self, q):
        self.q = q

    def x_window(self):
        return (0.0, math.pi)

    def potential(self, x):
        return 2.0 * self.q * np.cos(2.0 * np.asarray(x, dtype=float))


def _mathieu_edges(q, count):
    """The lowest characteristic values with their periodicity tags."""
    tag = ("periodic", "antiperiodic")
    edges = [(scipy.special.mathieu_a(r, q), tag[r % 2]) for r in range(2 * count)]
    edges += [(scipy.special.mathieu_b(r, q), tag[r % 2]) for r in range(1, 2 * count)]
    return sorted(edges)[:count]


class TestHillBandEdges:
    """The Fourier band-edge solver against independent references."""

    @pytest.mark.parametrize("q", [0.5, 2.0, 6.0])
    def test_mathieu_characteristic_values(self, q):
        spec = solve_band_edges(_MathieuCell(q), k=10)
        want = _mathieu_edges(q, 10)
        assert spec.eigenvalues[:10] == pytest.approx([e for e, _ in want], abs=1e-9)
        assert list(spec.bc_tags[:10]) == [t for _, t in want]

    @settings(max_examples=25, deadline=None)
    @given(m=st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(999, 1000),
                          max_denominator=1000))
    def test_estimates_bound_the_error_on_lame_j1(self, m):
        # V = 2m·sn²: the edges are m (dn), 1 (cn) and 1 + m (sn)
        spec = solve_band_edges(get_model("lame", j=1, m=m, shift=0), k=3)
        mf = float(m)
        for e, est, exact in zip(spec.eigenvalues, spec.error_estimates,
                                 [mf, 1.0, 1.0 + mf]):
            assert abs(e - exact) <= est <= 1e-9

    @settings(max_examples=25, deadline=None)
    @given(m=st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(999, 1000),
                          max_denominator=1000))
    def test_estimates_bound_the_error_on_lame_j2(self, m):
        # the closed forms of acceptance criterion 4 (lowest edge shifted to 0)
        spec = solve_band_edges(get_model("lame", j=2, m=m), k=5)
        mf = float(m)
        delta = math.sqrt(1 - mf + mf * mf)
        exact = [0.0, 2 * delta - mf - 1, 2 * delta + 2 * mf - 1,
                 2 * delta - mf + 2, 4 * delta]
        for e, est, want in zip(spec.eigenvalues, spec.error_estimates, exact):
            assert abs(e - want) <= est <= 1e-9


class TestWeightedChannels:
    def test_band_phase_gives_both_exponent_towers(self):
        model = get_model("scarf_periodic", s=Fraction(3, 10))
        # k levels per exponent channel -> 2k eigenvalues in the band phase
        spec = solve_inverse_square_cell(model, k=3)
        towers = [(0.2 + n) ** 2 for n in range(3)]
        towers += [(0.8 + n) ** 2 for n in range(3)]
        assert spec.eigenvalues == pytest.approx(sorted(towers), abs=5e-4)
        assert spec.bc_tags[0] == "exponent_minus"
        assert spec.bc_tags[1] == "exponent_plus"

    def test_unreachable_tolerance_raises_with_the_estimate(self):
        model = get_model("scarf_periodic", s=Fraction(3, 10))
        with pytest.raises(GridTooCoarseError, match="exceeds tolerance 1.000e-30"):
            solve_inverse_square_cell(model, k=2, points=128, tol=1e-30)

    def test_bound_phase_keeps_one_tower(self):
        model = get_model("scarf_periodic", s=Fraction(3, 2))
        spec = solve_inverse_square_cell(model, k=3)
        assert spec.eigenvalues == pytest.approx([4.0, 9.0, 16.0], abs=5e-4)
        assert set(spec.bc_tags) == {"exponent_plus"}


class TestComplexSpectra:
    def test_pt_pair_is_grid_stable(self):
        model = get_model("complex_scarf", A=1, B=2)
        spec = solve_pt(model, points=480)
        target = complex(0.026387818865997253, 0.3476120479075805)
        found = [e for e in spec.eigenvalues
                 if abs(e - target) < 1e-3 or abs(e - target.conjugate()) < 1e-3]
        assert len(found) >= 2

    def test_impossible_stability_demand_raises(self):
        model = get_model("complex_scarf", A=1, B=2)
        with pytest.raises(GridTooCoarseError):
            solve_pt(model, points=480, stability_tol=1e-16)


def _count_nodes_reference(values, rel_floor=1e-10):
    """Sign changes counted point by point: the definition count_nodes keeps."""
    vals = np.asarray(values)
    if np.iscomplexobj(vals):
        idx = int(np.argmax(np.abs(vals)))
        if abs(vals[idx]) > 0:
            vals = (vals * np.exp(-1j * np.angle(vals[idx]))).real
        else:
            vals = vals.real
    floor = rel_floor * (np.max(np.abs(vals)) or 1.0)
    signs = [v for v in vals if abs(v) > floor]
    return sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))


class TestNodeBookkeeping:
    def test_count_nodes_on_a_sine(self):
        xs = np.linspace(0.01, math.pi - 0.01, 400)
        assert count_nodes(np.sin(3 * xs)) == 2

    def test_complex_profile_uses_dominant_phase(self):
        xs = np.linspace(0.01, math.pi - 0.01, 400)
        assert count_nodes(np.exp(0.7j) * np.sin(2 * xs)) == 1

    def test_closed_cell_counts_the_step_back_to_the_first_sample(self):
        xs = (np.arange(400) + 0.5) * 2 * math.pi / 400     # midpoints of one cell
        assert count_nodes(np.cos(xs)) == 2
        assert count_nodes(np.cos(xs), tag="periodic") == 2
        assert count_nodes(np.sin(xs / 2)) == 0
        assert count_nodes(np.sin(xs / 2), tag="antiperiodic") == 1
        assert count_nodes(np.cos(xs / 2), tag="antiperiodic") == 1
        assert count_nodes(np.sin(xs), tag="dirichlet") == 1

    def test_node_counts_rise_within_each_periodicity_class(self):
        OracleSpectrum(eigenvalues=(0.0, 1.0, 1.5), eigenvectors=np.eye(3),
                       xs=np.array([0.2, 0.5, 0.8]),
                       bc_tags=("periodic", "antiperiodic", "periodic"),
                       node_counts=(0, 3, 2))
        with pytest.raises(GridTooCoarseError):
            OracleSpectrum(eigenvalues=(0.0, 1.0, 1.5), eigenvectors=np.eye(3),
                           xs=np.array([0.2, 0.5, 0.8]),
                           bc_tags=("periodic", "antiperiodic", "antiperiodic"),
                           node_counts=(0, 3, 2))

    def test_empty_and_single_samples_have_no_nodes(self):
        assert count_nodes(np.array([])) == 0
        assert count_nodes(np.array([], dtype=complex)) == 0
        assert count_nodes(np.array([-2.0])) == 0
        assert count_nodes(np.array([1j])) == 0

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.one_of(st.just(0.0), st.floats(-1e-12, 1e-12),
                                      st.floats(-10.0, 10.0)),
                           min_size=2, max_size=60),
           phase=st.one_of(st.none(), st.floats(-math.pi, math.pi)))
    def test_matches_the_pointwise_definition(self, values, phase):
        vals = np.array(values)
        if phase is not None:
            vals = vals * np.exp(1j * phase)
        assert count_nodes(vals) == _count_nodes_reference(vals)

    def test_non_monotone_node_counts_are_rejected(self):
        with pytest.raises(GridTooCoarseError):
            OracleSpectrum(eigenvalues=(1.0, 2.0),
                           eigenvectors=np.eye(2),
                           xs=np.array([0.4, 0.6]),
                           bc_tags=("dirichlet", "dirichlet"),
                           node_counts=(1, 0))


class TestDispatcher:
    def test_each_family_routes_to_the_right_scheme(self):
        bound = solve_oracle(get_model("hydrogen", e2=2, l=0), k=2)
        assert set(bound.bc_tags) == {"dirichlet"}
        band = solve_oracle(get_model("lame", j=1, m=Fraction(1, 2)), k=3)
        assert set(band.bc_tags) <= {"periodic", "antiperiodic"}
        cell = solve_oracle(get_model("scarf_periodic", s=Fraction(3, 10)), k=2)
        assert set(cell.bc_tags) <= {"exponent_plus", "exponent_minus"}


class TestNoWastedWork:
    """Guards against full spectra and per-point loops on the verify path."""

    def test_band_edge_eigensolves_ask_for_an_index_range(self, monkeypatch):
        calls = []
        real_eigh = schrodinger_oracle.eigh

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return real_eigh(*args, **kwargs)

        monkeypatch.setattr(schrodinger_oracle, "eigh", spy)
        solve_oracle(get_model("lame", j=2, m=Fraction(1, 2)))
        assert calls
        assert all("subset_by_index" in kwargs for kwargs in calls)

    def test_band_edge_matrices_are_real_and_small(self, monkeypatch):
        mats = []
        real_eigh = schrodinger_oracle.eigh

        def spy(mat, **kwargs):
            mats.append(mat)
            return real_eigh(mat, **kwargs)

        monkeypatch.setattr(schrodinger_oracle, "eigh", spy)
        solve_oracle(get_model("lame", j=2, m=Fraction(1, 2)))
        assert mats
        assert all(np.isrealobj(mat) and len(mat) < 200 for mat in mats)

    def test_elliptic_potential_makes_no_pointwise_calls(self, monkeypatch):
        calls = []
        scalar = special_functions.jacobi_elliptic

        def spy(x, m):
            calls.append(x)
            return scalar(x, m)

        monkeypatch.setattr(special_functions, "jacobi_elliptic", spy)
        monkeypatch.setattr(potential_catalog, "jacobi_elliptic", spy, raising=False)
        model = get_model("lame", j=2, m=Fraction(1, 2))
        lo, hi = model.x_window()
        values = model.potential(np.linspace(lo, hi, 960))
        assert values.shape == (960,) and np.all(np.isfinite(values))
        assert calls == []
