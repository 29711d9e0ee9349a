import math
import os
import subprocess
import sys
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cumasim.geometry as geometry
from cumasim.analytic import sigma_sums
from cumasim.geometry import (
    CorrelationMatrix,
    PortGrid,
    correlation_entries,
    correlation_matrix,
    grid_from_aperture,
    offset_correlation,
    preset_grid,
    preset_names,
)
from cumasim.specfun import DomainError

APERTURE = (0.15, 0.08)


def ref_coords(k, grid):
    """1-based linear port index to 1-based (dim1, dim2) coordinates, dimension 1 fastest."""
    if not 1 <= k <= grid.total_ports:
        raise IndexError(f"port index {k} outside 1..{grid.total_ports}")
    return (k - 1) % grid.n1 + 1, (k - 1) // grid.n1 + 1


def ref_correlation(k, m, grid):
    """Sinc correlation of ports k and m, evaluated for that one pair."""
    (a1, a2), (b1, b2) = ref_coords(k, grid), ref_coords(m, grid)
    s1, s2 = grid.spacings
    x = 2.0 * np.pi * np.hypot((a1 - b1) * s1, (a2 - b2) * s2)
    if abs(x) < 1e-4:
        x2 = x * x
        return float(1.0 - x2 / 6.0 * (1.0 - x2 / 20.0))
    return float(np.sin(x) / x)


def ref_entries(grid):
    ports = range(1, grid.total_ports + 1)
    return np.array([[ref_correlation(k, m, grid) for m in ports] for k in ports])


def dense_eigenvalues(grid):
    """Reference spectrum: eigh of the whole N x N matrix, cut as `correlation_matrix` cuts."""
    eigvals = np.linalg.eigh(correlation_entries(grid))[0]
    return eigvals[eigvals > geometry._RANK_CUT * eigvals[-1]]


TABLE_CELLS = [
    (6e9, 0.5, (7, 4)),
    (6e9, 0.1, (31, 4)),
    (6e9, 0.05, (61, 4)),
    (26e9, 0.5, (27, 14)),
    (26e9, 0.1, (131, 14)),
    (26e9, 0.05, (261, 14)),
    (40e9, 0.5, (41, 22)),
    (40e9, 0.1, (201, 22)),
    (40e9, 0.05, (401, 22)),
]


class TestGridFromAperture:
    @pytest.mark.parametrize("freq,sp1,expected", TABLE_CELLS)
    def test_handset_layouts(self, freq, sp1, expected):
        g = grid_from_aperture(*APERTURE, freq, sp1)
        assert (g.n1, g.n2) == expected

    def test_preset_names_cover_all_cases(self):
        assert len(preset_names()) == 9
        assert preset_grid("40GHz-VC").total_ports == 401 * 22

    def test_rejects_spacing_larger_than_aperture(self):
        with pytest.raises(DomainError):
            grid_from_aperture(0.01, 0.08, 6e9, 0.5)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_nonfinite_or_nonpositive(self, bad):
        with pytest.raises(DomainError):
            grid_from_aperture(bad, 0.08, 6e9, 0.5)

    def test_port_grid_validation(self):
        with pytest.raises(DomainError):
            PortGrid(1, 4, 3.0, 1.6)
        with pytest.raises(DomainError):
            PortGrid(4, 4, -3.0, 1.6)


class TestPortIndexing:
    """The reference index map, and the matrix's port order against it."""

    @pytest.mark.parametrize("k,expected", [(1, (1, 1)), (7, (7, 1)), (8, (1, 2)), (28, (7, 4))])
    def test_known_positions(self, k, expected):
        grid = PortGrid(7, 4, 3.0, 1.6)
        assert ref_coords(k, grid) == expected
        row = [ref_correlation(k, m, grid) for m in range(1, 29)]
        assert np.array_equal(correlation_entries(grid)[k - 1], row)

    @pytest.mark.parametrize("k", [0, -3, 29])
    def test_out_of_range(self, k):
        with pytest.raises(IndexError):
            ref_coords(k, PortGrid(7, 4, 3.0, 1.6))

    @given(n1=st.integers(2, 12), n2=st.integers(2, 12))
    @settings(max_examples=40, deadline=None)
    def test_bijection(self, n1, n2):
        grid = PortGrid(n1, n2, 1.0 * n1, 1.0 * n2)
        seen = {ref_coords(k, grid) for k in range(1, n1 * n2 + 1)}
        assert seen == {(i, j) for i in range(1, n1 + 1) for j in range(1, n2 + 1)}


class TestCorrelation:
    def test_self_correlation_is_one(self):
        grid = PortGrid(7, 4, 3.0, 1.6)
        assert offset_correlation(grid)[0, 0] == 1.0
        assert np.all(np.diag(correlation_entries(grid)) == 1.0)

    def test_half_wavelength_null(self):
        # exact half-wavelength spacing in both dimensions
        grid = PortGrid(4, 3, 1.5, 1.0)
        assert abs(offset_correlation(grid)[1, 0]) < 1e-12

    def test_very_compact_neighbor_value(self):
        # adjacent ports 0.05 wavelengths apart
        grid = PortGrid(5, 2, 0.2, 0.05)
        want = float(mp.sin(mp.pi / 10) / (mp.pi / 10))
        got = offset_correlation(grid)[1, 0]
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(0.983632, abs=5e-7)

    @given(n1=st.integers(2, 9), n2=st.integers(2, 9))
    @settings(max_examples=80, deadline=None)
    def test_symmetry_and_bounds(self, n1, n2):
        # the gathered matrix equals the per-pair evaluation exactly
        grid = PortGrid(n1, n2, 0.37 * (n1 - 1), 0.41 * (n2 - 1))
        ent = correlation_entries(grid)
        assert np.array_equal(ent, ref_entries(grid))
        assert np.array_equal(ent, ent.T)
        assert np.all(np.abs(ent) <= 1.0)


class TestCorrelationMatrix:
    def test_diagonal_and_symmetry(self, case1_grid):
        ent = correlation_entries(case1_grid)
        assert np.all(np.diag(ent) == 1.0)
        assert np.array_equal(ent, ent.T)

    @pytest.mark.parametrize("preset", ["6GHz-NC", "6GHz-VC"])
    def test_factor_reconstructs_matrix(self, preset):
        grid = preset_grid(preset)
        cm = correlation_matrix(grid)
        assert cm.dim == grid.total_ports
        err = np.max(np.abs(cm.factor @ cm.factor.T - correlation_entries(grid)))
        assert err < 1e-8

    def test_repaired_matrix_stays_psd(self):
        cm = correlation_matrix(preset_grid("6GHz-VC"))
        eigvals = np.linalg.eigvalsh(cm.factor @ cm.factor.T)
        assert eigvals.min() >= -1e-10

    def test_matches_scalar_entries(self, case1_grid):
        ent = correlation_entries(case1_grid)
        for k, m in [(1, 2), (3, 17), (28, 1), (11, 11)]:
            assert ent[k - 1, m - 1] == ref_correlation(k, m, case1_grid)

    def test_beyond_tolerance_raises(self, monkeypatch):
        # the very compact layout carries tiny negative eigenvalues from
        # floating point in its parity blocks; an absurdly small budget must
        # trip the check on the smallest of them
        monkeypatch.setattr(geometry, "_PSD_TOL", 1e-18)
        with pytest.raises(DomainError):
            correlation_matrix(preset_grid("6GHz-VC"))

    def test_factor_is_immutable(self, case1_corr):
        with pytest.raises(ValueError):
            case1_corr.factor[0, 0] = 2.0

    def test_entrywise_assembly_agrees_with_offsets(self):
        grid = PortGrid(5, 3, 1.9, 0.8)
        assert np.array_equal(correlation_entries(grid), ref_entries(grid))

    def test_budget_admits_every_preset(self):
        for name in preset_names():
            assert geometry._factor_bytes(preset_grid(name)) <= geometry._FACTOR_BUDGET_BYTES

    def test_budget_refuses_before_allocating(self):
        # the ports axis at 331 rows, the first it refuses: 20,191 ports, whose
        # factor at full rank alone would be 3.0 GiB
        grid = PortGrid(61, 331, 3.0, 165.0)
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="GiB budget"):
                correlation_matrix(grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_offset_table_budget_refuses_before_allocating(self):
        # 61 x 1e7 offsets: the table with its pair sums would need about 32 GiB
        grid = PortGrid(61, 10**7, 3.0, 5e6)
        tracemalloc.start()
        try:
            for build in (offset_correlation, sigma_sums):
                with pytest.raises(DomainError, match="port-offset table .* GiB budget"):
                    build(grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_assembly_memory_bound(self):
        # the gather writes the N x N output once; an elementwise sinc over
        # all N^2 pairs would hold several N x N temporaries
        grid = preset_grid("26GHz-C")
        n = grid.total_ports
        tracemalloc.start()
        try:
            correlation_entries(grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * n * n * 8


# (n1, n2) parities (odd, odd), (odd, even), (even, odd), (even, even); the
# compact ones are cut below full rank
FOLD_GRIDS = [
    PortGrid(2, 2, 0.5, 0.5),
    PortGrid(3, 2, 0.2, 0.5),
    PortGrid(2, 3, 0.5, 0.2),
    PortGrid(3, 3, 1.0, 1.0),
    PortGrid(9, 7, 0.4, 3.0),
    PortGrid(12, 5, 1.1, 0.3),
    PortGrid(10, 9, 0.45, 4.0),
    PortGrid(16, 6, 0.75, 2.5),
    *(preset_grid(name) for name in ("6GHz-NC", "6GHz-C", "6GHz-VC", "26GHz-NC")),
]


class TestParityFold:
    """The folded factor against eigh of the whole matrix."""

    @pytest.mark.parametrize("grid", FOLD_GRIDS, ids=lambda g: f"{g.n1}x{g.n2}")
    def test_matches_dense_eigh(self, grid):
        eigvals = dense_eigenvalues(grid)
        f = correlation_matrix(grid).factor
        assert f.shape == (grid.total_ports, eigvals.size)
        assert np.max(np.abs(f @ f.T - correlation_entries(grid))) <= 1e-8
        gram = f.T @ f
        scale = eigvals[-1]
        # ascending eigenvalues on the diagonal, orthogonal columns off it
        assert np.max(np.abs(np.diag(gram) - eigvals)) <= 1e-10 * scale
        assert np.max(np.abs(gram - np.diag(np.diag(gram)))) <= 1e-10 * scale

    @pytest.mark.parametrize("grid", FOLD_GRIDS, ids=lambda g: f"{g.n1}x{g.n2}")
    def test_columns_are_even_or_odd_under_each_reflection(self, grid):
        cols = correlation_matrix(grid).factor.T.reshape(-1, grid.n2, grid.n1)
        for axis in (1, 2):
            mirrored = np.flip(cols, axis=axis)
            even = np.all(mirrored == cols, axis=(1, 2))
            odd = np.all(mirrored == -cols, axis=(1, 2))
            assert np.all(even | odd)

    def test_large_grid_rank_and_peak_memory(self):
        # 26GHz-VC, 3654 ports, in a fresh process: its dense eigh peaked at
        # about 570 MB; the folded factor must stay under 400 MB
        code = (
            "import resource; from cumasim.geometry import correlation_matrix, preset_grid; "
            "cm = correlation_matrix(preset_grid('26GHz-VC')); "
            "print(cm.factor.shape[1], resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"
        )
        src = os.path.dirname(os.path.dirname(geometry.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
        assert child.returncode == 0, child.stderr
        rank, max_rss_kib = map(int, child.stdout.split())
        assert rank == 515
        assert max_rss_kib * 1024 < 400e6
