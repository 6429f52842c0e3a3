"""Grid-diagonalization reference solver, checked against textbook spectra.

Free-particle boxes and cells have exact eigenvalues, which pins down the
discretization, the boundary handling, and the Richardson extrapolation
without any reference to the residue machinery being verified elsewhere.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from qhj import get_model
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
            GridSpec(0.0, 1.0, 32, "dirichlet")

    def test_rejects_empty_interval(self):
        with pytest.raises(ParameterError):
            GridSpec(1.0, 1.0, 128, "dirichlet")

    def test_rejects_unknown_boundary(self):
        with pytest.raises(ParameterError):
            GridSpec(0.0, 1.0, 128, "absorbing")

    def test_interior_excludes_the_walls(self):
        spec = GridSpec(0.0, 1.0, 100, "dirichlet")
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
            solve_band_edges(_FlatCell(), k=3, points=128, tol=1e-30)

    def test_lame_edges_match_the_pencil_values(self):
        spec = solve_band_edges(get_model("lame", j=2, m=Fraction(1, 2)), k=5)
        delta = math.sqrt(3) / 2
        assert spec.eigenvalues == pytest.approx(
            [0.0, 2 * delta - 1.5, 2 * delta, 2 * delta + 1.5, 4 * delta],
            abs=5e-4)


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


class TestNodeBookkeeping:
    def test_count_nodes_on_a_sine(self):
        xs = np.linspace(0.01, math.pi - 0.01, 400)
        assert count_nodes(np.sin(3 * xs)) == 2

    def test_complex_profile_uses_dominant_phase(self):
        xs = np.linspace(0.01, math.pi - 0.01, 400)
        assert count_nodes(np.exp(0.7j) * np.sin(2 * xs)) == 1

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
