"""Tensor atoms, coefficient windows, partial sums, duals, Parseval checks."""

import csv
import json
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

import subexp_wavelets as sw
from subexp_wavelets import construction, expansion, numerics
from subexp_wavelets.expansion import ExpansionError


class TestIndices:
    def test_bit_validation(self):
        with pytest.raises(ExpansionError):
            sw.WaveletIndex(epsilon=(2,), m=0, n=(0,))
        with pytest.raises(ExpansionError):
            sw.WaveletIndex(epsilon=(0,), m=0, n=(0,))  # all-zero pattern
        with pytest.raises(ExpansionError):
            sw.WaveletIndex(epsilon=(1, 0), m=0, n=(0,))  # dimension mismatch

    def test_window_size_formula(self):
        assert len(sw.IndexWindow(2, 8)) == 1 * 5 * 17
        assert len(sw.IndexWindow(1, 2, d=2)) == 3 * 3 * 25

    def test_window_enumeration_complete(self):
        w = sw.IndexWindow(1, 1)
        indices = list(w.indices())
        assert len(indices) == len(w)
        assert len(set(indices)) == len(w)

    def test_empty_window_rejected(self):
        with pytest.raises(ExpansionError):
            sw.IndexWindow(-1, 2)

    @pytest.mark.parametrize("sizes", [
        dict(M=1.5, N=2), dict(M=1, N=2.0), dict(M=1, N=2, d=1.0),
        dict(M="1", N=2), dict(M=None, N=2)])
    def test_non_integer_sizes_rejected(self, sizes):
        with pytest.raises(ExpansionError, match="integers"):
            sw.IndexWindow(**sizes)

    def test_numpy_integer_sizes_accepted(self):
        w = sw.IndexWindow(np.int64(1), np.int32(2), d=np.int8(1))
        assert len(w) == 3 * 5


class TestCoefficientSet:
    def test_missing_coefficient_rejected(self):
        w = sw.IndexWindow(0, 1)
        with pytest.raises(ExpansionError, match="missing"):
            sw.CoefficientSet(window=w, values=np.array([], dtype=complex))

    def test_nonfinite_rejected(self):
        w = sw.IndexWindow(0, 0)
        with pytest.raises(ExpansionError):
            sw.CoefficientSet(window=w, values=np.full((1, 1, 1), np.nan))

    def test_values_in_index_order(self):
        # values[p, m + M, n_1 + N, n_2 + N] is the coefficient of pattern p,
        # scale m and shift n, and the index view keys the same numbers
        w = sw.IndexWindow(1, 2, d=2)
        cs = sw.CoefficientSet(w, np.arange(len(w)).reshape(w.shape) * (1 + 1j))
        assert list(cs.coefficients) == list(w.indices())
        idx = sw.WaveletIndex(epsilon=(1, 0), m=-1, n=(2, -1))
        assert cs.coefficients[idx] == cs.values[w.patterns().index((1, 0)), 0, 4, 1]

    def test_array_path_builds_no_index(self, ws, band_function, expansion_grid,
                                        monkeypatch):
        # analysis, synthesis and Parseval read and write the window-shaped
        # arrays; WaveletIndex objects appear only when the index view is read
        from subexp_wavelets.testfuncs import gaussian, sample_2d
        built = []
        post_init = sw.WaveletIndex.__post_init__
        monkeypatch.setattr(sw.WaveletIndex, "__post_init__",
                            lambda index: built.append(index) or post_init(index))
        w1, w2 = sw.IndexWindow(2, 8), sw.IndexWindow(1, 2, d=2)
        g = sw.Grid1D.from_interval(-16.0, 16.0, 257)
        f2 = sample_2d(gaussian(), gaussian(), g, g)
        c1, c2 = sw.analyze(ws, band_function, w1), sw.analyze(ws, f2, w2)
        sw.synthesize_partial(ws, c1, expansion_grid)
        sw.synthesize_partial(ws, c2, (g, g))
        sw.parseval_check(ws, band_function, band_function, w1)
        sw.parseval_check(ws, f2, f2, w2)
        delta = sw.DualRepresentative(points=np.array([0.35]),
                                      weights=np.array([1.0]))
        sw.parseval_check(ws, delta, band_function, w1)
        assert built == []
        assert len(c2.coefficients) == len(built) == len(w2)


class TestAtoms:
    def test_unit_norm_1d(self, ws, expansion_grid):
        idx = sw.WaveletIndex(epsilon=(1,), m=2, n=(3,))
        vals = sw.tensor_atom(ws, idx, expansion_grid.points())
        norm = np.sqrt(np.sum(vals ** 2) * expansion_grid.spacing)
        assert abs(norm - 1.0) < 1e-9

    def test_unit_norm_2d(self, ws):
        g = sw.Grid1D.from_interval(-20.0, 20.0, 1281)
        idx = sw.WaveletIndex(epsilon=(1, 0), m=1, n=(2, -1))
        pts = np.stack(np.meshgrid(g.points(), g.points(), indexing="ij"),
                       axis=-1).reshape(-1, 2)
        vals = sw.tensor_atom(ws, idx, pts)
        norm = np.sqrt(np.sum(vals ** 2) * g.spacing ** 2)
        assert abs(norm - 1.0) < 1e-6

    def test_matches_scaled_translate(self, ws):
        x = np.linspace(-2.0, 2.0, 33)
        idx = sw.WaveletIndex(epsilon=(1,), m=3, n=(-5,))
        got = sw.tensor_atom(ws, idx, x)
        want = 2.0 ** 1.5 * ws.interpolator("psi")(8.0 * x + 5.0)
        assert np.max(np.abs(got - want)) < 1e-13

    def test_points_need_a_last_axis_of_length_d(self, ws):
        idx = sw.WaveletIndex(epsilon=(1, 0), m=0, n=(0, 1))
        for x in (np.zeros((4, 3)), np.zeros(3), 0.5):
            with pytest.raises(ExpansionError, match="points"):
                sw.tensor_atom(ws, idx, x)
        assert isinstance(sw.tensor_atom(ws, idx, [0.3, 0.4]), float)
        assert sw.tensor_atom(ws, idx, np.zeros((2, 5, 2))).shape == (10,)

    def test_one_dimensional_points_keep_their_forms(self, ws):
        idx = sw.WaveletIndex(epsilon=(1,), m=0, n=(1,))
        x = np.linspace(-1.0, 1.0, 12)
        assert isinstance(sw.tensor_atom(ws, idx, 0.5), float)
        assert sw.tensor_atom(ws, idx, [0.5]).shape == (1,)
        flat = sw.tensor_atom(ws, idx, x)
        assert np.array_equal(sw.tensor_atom(ws, idx, x.reshape(4, 3)), flat)


class TestAnalysis:
    def test_single_coefficient_oracle(self, ws, band_function, expansion_grid):
        cs = sw.analyze(ws, band_function, sw.IndexWindow(2, 8))
        idx = sw.WaveletIndex(epsilon=(1,), m=1, n=(3,))
        atom = sw.tensor_atom(ws, idx, expansion_grid.points())
        manual = np.dot(band_function.values * expansion_grid.trapezoid_weights(),
                        atom)
        assert abs(cs.coefficients[idx] - manual) < 1e-13

    def test_dimension_mismatch(self, ws, band_function):
        with pytest.raises(ExpansionError):
            sw.analyze(ws, band_function, sw.IndexWindow(1, 1, d=2))

    def test_window_beyond_grid_resolution_rejected(self, ws, band_function):
        # 2^M h 8pi/3 against 2 pi on the 1/128 grid: 4.19 at M = 6, 8.38 at 7
        assert len(sw.analyze(ws, band_function, sw.IndexWindow(6, 4))
                   .coefficients) == len(sw.IndexWindow(6, 4))
        with pytest.raises(ExpansionError, match="aliases"):
            sw.analyze(ws, band_function, sw.IndexWindow(7, 4))

    def test_partial_sum_error_shrinks_with_window(self, ws, band_function,
                                                   expansion_grid):
        errs = []
        for (M, N) in ((2, 8), (4, 16)):
            cs = sw.analyze(ws, band_function, sw.IndexWindow(M, N))
            ps = sw.synthesize_partial(ws, cs, expansion_grid)
            errs.append(np.max(np.abs(ps.values - band_function.values)))
        assert errs[1] < errs[0]

    def test_partial_sum_needs_one_grid_per_axis(self, ws, band_function):
        # one grid per axis
        g = sw.Grid1D.from_interval(-4.0, 4.0, 65)
        c1 = sw.analyze(ws, band_function, sw.IndexWindow(1, 2))
        c2, c3 = (sw.CoefficientSet(w, np.zeros(w.shape)) for w in (
            sw.IndexWindow(1, 2, d=2), sw.IndexWindow(0, 0, d=3)))
        for coeffs, grid in ((c1, (g, g)), (c2, g), (c2, (g,)), (c3, (g, g))):
            with pytest.raises(ExpansionError, match="grids"):
                sw.synthesize_partial(ws, coeffs, grid)

    def test_bessel_inequality(self, ws, band_function):
        gap = sw.bessel_gap(ws, band_function, sw.IndexWindow(2, 8))
        assert gap["excess"] <= 1e-9
        assert gap["coefficient_energy"] > 0.9  # most energy captured

    def test_2d_separable_coefficients(self, ws):
        from subexp_wavelets.testfuncs import gaussian, sample_2d
        g = sw.Grid1D.from_interval(-16.0, 16.0, 1025)
        f2 = sample_2d(gaussian(), gaussian(), g, g)
        w = sw.IndexWindow(1, 2, d=2)
        cs = sw.analyze(ws, f2, w)
        idx = sw.WaveletIndex(epsilon=(1, 1), m=0, n=(1, -1))
        pts = np.stack(np.meshgrid(g.points(), g.points(), indexing="ij"),
                       axis=-1).reshape(-1, 2)
        atom = sw.tensor_atom(ws, idx, pts).reshape(1025, 1025)
        wts = g.trapezoid_weights()
        manual = np.sum(f2.values * atom * wts[:, None] * wts[None, :])
        assert abs(cs.coefficients[idx] - manual) < 1e-12


@pytest.fixture(scope="module")
def separable_3d():
    """(grids, factors, f): f = f_1 (x) f_2 (x) f_3 on three distinct grids of
    spacing 1/4, one factor complex, so a swapped or misread axis shows."""
    grids = (sw.Grid1D.from_interval(-8.0, 8.0, 65),
             sw.Grid1D.from_interval(-6.0, 10.0, 65),
             sw.Grid1D.from_interval(-4.0, 8.0, 49))
    x1, x2, x3 = (g.points() for g in grids)
    factors = (np.exp(-x1 ** 2), np.exp(-((x2 - 1.5) / 1.3) ** 2),
               np.exp(-((x3 - 2.0) / 0.8) ** 2 + 1.5j * x3))
    return grids, factors, sw.SampledFunction(grids, np.einsum(
        "i,j,k->ijk", *factors))


class TestThreeDimensions:
    """d = 3 through the same per-axis operators as d = 1 and 2."""

    window = sw.IndexWindow(1, 2, d=3)

    @pytest.fixture(scope="class")
    def coeffs(self, ws, separable_3d):
        return sw.analyze(ws, separable_3d[2], self.window)

    def test_coefficients_are_products_of_1d_quadratures(self, ws, separable_3d,
                                                          coeffs):
        # per axis, bit and scale: one 1-D quadrature against each shift,
        # psi on the axes with epsilon_i = 1 and phi on the rest
        grids, factors, _ = separable_3d
        N = self.window.N
        shifts = np.arange(-N, N + 1)[:, None]
        quad = [[[ws.atom_values(bit, m, shifts, g.points())
                  @ (fac * g.trapezoid_weights()) for m in range(-1, 2)]
                 for bit in (0, 1)] for g, fac in zip(grids, factors)]
        want = np.stack([np.einsum("mi,mj,mk->mijk", *(
            np.array(quad[axis][bit]) for axis, bit in enumerate(eps)))
            for eps in self.window.patterns()])
        assert coeffs.values.shape == want.shape == self.window.shape
        assert np.max(np.abs(coeffs.values - want)) < 1e-12

    @pytest.mark.parametrize("index", [
        sw.WaveletIndex(epsilon=(1, 0, 1), m=1, n=(1, -2, 0)),
        sw.WaveletIndex(epsilon=(0, 1, 1), m=-1, n=(0, 2, -1))])
    def test_coefficient_matches_tensor_atom(self, ws, separable_3d, coeffs, index):
        grids, _, f = separable_3d
        pts = np.stack(np.meshgrid(*(g.points() for g in grids), indexing="ij"),
                       axis=-1)
        atom = sw.tensor_atom(ws, index, pts).reshape(f.values.shape)
        manual = sw.integrate(sw.SampledFunction(grids, f.values * atom))
        assert abs(coeffs.coefficients[index] - manual) < 1e-12

    def test_partial_sum_pairs_to_the_coefficient_energy(self, ws, separable_3d,
                                                         coeffs):
        grids, _, f = separable_3d
        partial = sw.synthesize_partial(ws, coeffs, grids)
        assert partial.values.shape == f.values.shape
        pairing = sw.inner_product(f, partial)
        energy = coeffs.energy()
        assert abs(pairing - energy) < 1e-10 * energy


def _per_shift_block(ws, bit, m, N, grid):
    return ws.atom_values(bit, m, np.arange(-N, N + 1)[:, None], grid.points())


@contextmanager
def _wrapped_interpolator(ws, wrap):
    """Every evaluator ``ws.interpolator(which, order)`` returns, passed
    through ``wrap(which, evaluator)`` while the block runs."""
    table = ws.interpolator
    ws.interpolator = lambda which, order=0: wrap(which, table(which, order))
    try:
        yield
    finally:
        del ws.interpolator


class TestShiftWindowedBlocks:
    N = 32

    def test_window_blocks_equal_per_shift_blocks(self, ws, expansion_grid):
        # on the dyadic expand grid the window rows evaluate the very same
        # arguments as the per-shift rows, so the blocks agree bit for bit
        for bit in (0, 1):
            for m in range(-6, 7):
                block, _ = construction._axis_block(ws, bit, m, self.N, expansion_grid, 0)
                assert not block.flags.owndata  # a view of one extended row
                np.testing.assert_array_equal(
                    block, _per_shift_block(ws, bit, m, self.N, expansion_grid))

    @pytest.mark.parametrize("grid, scales", [
        (sw.Grid1D.from_interval(-12.0, 12.0, 257), range(-6, 7)),  # s = 2^-m 32/3
        (sw.Grid1D(0.0, 1.0 / 128, 257), (-6,)),  # s = 8192 samples >= count
    ])
    def test_other_grids_evaluate_each_shift(self, ws, grid, scales):
        for m in scales:
            block, _ = construction._axis_block(ws, 1, m, self.N, grid, 0)
            assert block.flags.owndata
            np.testing.assert_array_equal(
                block, _per_shift_block(ws, 1, m, self.N, grid))

    def test_scaled_psi_table_scales_every_coefficient(self, ws, band_function):
        window = sw.IndexWindow(2, 8)
        before = sw.analyze(ws, band_function, window).coefficients
        # warm: the scale-0 row is kept, and the wrapped evaluator must miss it
        key = (ws.interpolator("psi"), 0, 0, band_function.grids[0], 8)
        assert key in ws._blocks._values
        with _wrapped_interpolator(ws, lambda which, f: (
                (lambda x: 1.01 * f(x)) if which == "psi" else f)):
            after = sw.analyze(ws, band_function, window).coefficients
        top = max(abs(c) for c in before.values())
        assert max(abs(after[i] - 1.01 * c) for i, c in before.items()) <= 1e-13 * top

    def test_window_route_evaluates_few_points(self, ws, band_function,
                                               expansion_grid):
        # the per-shift route would evaluate 13 * 65 * 20,481 = 17.3M points
        sizes = []
        with _wrapped_interpolator(ws, lambda which, f: (
                lambda x: sizes.append(np.size(x)) or f(x))):
            sw.analyze(ws, band_function, sw.IndexWindow(6, self.N))
        h, count = expansion_grid.spacing, expansion_grid.count
        bound = sum(count + 2 * self.N * round(2.0 ** -m / h) for m in range(-6, 7))
        assert len(sizes) == 13
        assert sum(sizes) <= bound


def _count_spline_points(monkeypatch):
    """Points every ``NaturalSpline`` call evaluates from now on."""
    sizes = []
    call = numerics.NaturalSpline.__call__
    monkeypatch.setattr(numerics.NaturalSpline, "__call__",
                        lambda self, x, order=0: sizes.append(np.size(x))
                        or call(self, x, order))
    return sizes


class TestAtomRows:
    N = 32

    def test_second_analysis_reads_the_kept_rows(self, ws, band_function,
                                                 expansion_grid, monkeypatch):
        window = sw.IndexWindow(6, self.N)
        first = sw.analyze(ws, band_function, window)
        blocks = [expansion._axis_block(ws, 1, m, self.N, expansion_grid, 0)[0]
                  for m in range(-6, 7)]
        sizes = _count_spline_points(monkeypatch)
        again = sw.analyze(ws, band_function, window)
        for m, block in zip(range(-6, 7), blocks):
            assert np.shares_memory(
                block, expansion._axis_block(ws, 1, m, self.N, expansion_grid, 0)[0])
        assert sizes == []
        np.testing.assert_array_equal(again.values, first.values)

    def test_per_shift_blocks_are_kept(self, ws, monkeypatch):
        # s = 2^-m 32/3 is never whole on 257 points over [-12, 12], so each
        # block is per shift; both axes share the grid and so the blocks
        g = sw.Grid1D.from_interval(-12.0, 12.0, 257)
        x = g.points()
        f = sw.SampledFunction((g, g), np.outer(np.exp(-0.5 * x ** 2),
                                                np.exp(-0.5 * (x - 1.0) ** 2)))
        window = sw.IndexWindow(2, 8, d=2)

        def fresh():
            return sw.WaveletSystem(ws.a, ws.rho2, ws.bell, ws.psi_hat, ws.phi_hat,
                                    ws.psi_samples, ws.phi_samples)

        system = fresh()
        sizes = _count_spline_points(monkeypatch)
        first = sw.analyze(system, f, window)
        assert len(sizes) == 10  # phi and psi at each of 5 scales
        sizes.clear()
        again = sw.analyze(system, f, window)
        partial = sw.synthesize_partial(system, again, (g, g))
        assert sizes == []
        np.testing.assert_array_equal(again.values, first.values)
        np.testing.assert_array_equal(
            partial.values, sw.synthesize_partial(fresh(), first, (g, g)).values)

    def test_kept_rows_are_read_only(self, ws, band_function):
        sw.analyze(ws, band_function, sw.IndexWindow(2, 8))
        assert ws._blocks._values
        for row in ws._blocks._values.values():
            assert not row.flags.writeable
        block, _ = expansion._axis_block(ws, 1, 0, 8, band_function.grids[0], 0)
        with pytest.raises(ValueError):
            block[0, 0] = 1.0

    def test_kept_rows_stay_within_their_bound(self, ws):
        # each grid's (6, 32) rows take 10.5 MB: five grids overflow the bound,
        # and the least recently used go first
        window = sw.IndexWindow(6, self.N)
        grids = [sw.Grid1D(-79.5 + 0.5 * k, 1.0 / 128, 20481) for k in range(5)]
        for g in grids:
            sw.analyze(ws, sw.SampledFunction(g, np.exp(-g.points() ** 2)), window)
        kept = [key[3] for key in ws._blocks._values]
        assert (sum(r.nbytes for r in ws._blocks._values.values())
                <= ws._blocks.budget)
        assert grids[0] not in kept
        assert kept[-13:] == [grids[-1]] * 13


class TestRealContraction:
    """The real blocks meet the real and imaginary parts of the data."""

    WINDOW = sw.IndexWindow(6, 32)

    @pytest.fixture(scope="class")
    def complex_input(self, band_function, expansion_grid):
        x = expansion_grid.points()
        return sw.SampledFunction(expansion_grid, band_function.values * (0.6 - 0.8j)
                                  + 0.3j * np.exp(-0.5 * (x - 1.0) ** 2))

    def test_analysis_is_linear_over_the_parts(self, ws, complex_input, expansion_grid):
        g, v = expansion_grid, complex_input.values
        got = sw.analyze(ws, complex_input, self.WINDOW).values
        re, im = (sw.analyze(ws, sw.SampledFunction(g, part), self.WINDOW).values
                  for part in (v.real, v.imag))
        fw = v * g.trapezoid_weights()
        per_shift = np.stack([_per_shift_block(ws, 1, m, 32, g) @ fw
                              for m in range(-6, 7)])
        top = np.abs(got).max()
        assert np.abs(got - (re + 1j * im)).max() <= 1e-14 * top
        assert np.abs(got[0] - per_shift).max() <= 1e-14 * top

    def test_synthesis_is_linear_over_the_parts(self, ws, complex_input,
                                                expansion_grid):
        coeffs = sw.analyze(ws, complex_input, self.WINDOW)
        got = sw.synthesize_partial(ws, coeffs, expansion_grid).values
        re, im = (sw.synthesize_partial(ws, sw.CoefficientSet(self.WINDOW, part),
                                        expansion_grid).values
                  for part in (coeffs.values.real, coeffs.values.imag))
        per_shift = sum(c @ _per_shift_block(ws, 1, m, 32, expansion_grid)
                        for m, c in zip(range(-6, 7), coeffs.values[0]))
        top = np.abs(got).max()
        assert np.abs(got - (re + 1j * im)).max() <= 1e-14 * top
        assert np.abs(got - per_shift).max() <= 1e-14 * top

    def test_warm_analysis_allocates_no_block(self, ws, band_function):
        # a complex copy of one (65, 20,481) block alone takes 21 MB
        sw.analyze(ws, band_function, self.WINDOW)
        tracemalloc.start()
        try:
            sw.analyze(ws, band_function, self.WINDOW)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    def test_warm_partial_sum_allocates_no_block(self, ws, band_function,
                                                 expansion_grid):
        coeffs = sw.analyze(ws, band_function, self.WINDOW)
        sw.synthesize_partial(ws, coeffs, expansion_grid)
        tracemalloc.start()
        try:
            sw.synthesize_partial(ws, coeffs, expansion_grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20


class TestWindowKernels:
    """``_window_apply`` and its transpose against the dense products of the
    windowed blocks, which read only the phases that meet the kept row's
    nonzero span."""

    @pytest.mark.parametrize("grid, N", [
        # expand's grid: a partial last phase at every scale
        (sw.Grid1D(-80.0, 1.0 / 128, 20481), 8),
        (sw.Grid1D(-80.0, 1.0 / 128, 20481), 32),
        # whole phases only at s = 64, 32, ...
        (sw.Grid1D(-8.0, 1.0 / 16, 256), 8),
    ])
    def test_kernels_match_dense_products(self, ws, grid, N):
        rng = np.random.default_rng(7)
        F = rng.standard_normal((grid.count, 3))
        C = rng.standard_normal((2, 3, 2 * N + 1))
        for m in range(-6, 7):
            B, geometry = construction._axis_block(ws, 1, m, N, grid)
            if geometry is None:
                continue
            dense = np.array(B)
            got = expansion._window_apply(B, *geometry, F)
            assert np.abs(got - dense @ F).max() <= 1e-14 * (np.abs(dense) @ np.abs(F)).max()
            got = expansion._window_transpose(B, *geometry, C)
            assert got.shape == (2, 3, grid.count)
            assert np.abs(got - C @ dense).max() <= 1e-14 * (np.abs(C) @ np.abs(dense)).max()
            # the skipped phases are zero, and a fall-back to every phase
            # exceeds the phases that meet the span on expand's grid
            s, (a, b) = geometry
            whole, _, q0, q1 = expansion._phases(B, *geometry)
            assert not whole[:q0].any() and not whole[q1:].any()
            assert q1 - q0 <= -(-(b - a) // s) + 2 * N + 1

    def test_span_covers_every_nonzero_sample(self, ws, expansion_grid):
        for m in range(-6, 7):
            s, (a, b) = construction._axis_block(ws, 1, m, 32, expansion_grid)[1]
            row = ws._blocks._values[(ws.interpolator("psi"), m, 0, expansion_grid, 32)]
            nonzero = np.flatnonzero(row)
            assert a <= nonzero[0] and nonzero[-1] < b
            assert b - a <= nonzero[-1] - nonzero[0] + 4

    def test_synthesis_is_the_transpose_of_analysis(self, ws, expansion_grid):
        # window (6, 32): the kernels skip the phases beyond each kept row's span
        rng = np.random.default_rng(2024)
        window = sw.IndexWindow(6, 32)
        c = sw.CoefficientSet(window, rng.standard_normal(window.shape)
                              + 1j * rng.standard_normal(window.shape))
        g = sw.SampledFunction(expansion_grid, rng.standard_normal(expansion_grid.count))
        partial = sw.synthesize_partial(ws, c, expansion_grid).values
        lhs = np.sum(expansion_grid.trapezoid_weights() * g.values * partial)
        rhs = np.sum(c.values * sw.analyze(ws, g, window).values)
        assert abs(lhs - rhs) <= 1e-13 * abs(rhs)


class TestCertificateRows:
    """``TWO_SCALE_CROSS`` and ``SCALING_LOWPASS`` read kept atom rows; an
    evaluator replaced after a warm suite must miss them and fail."""

    def _warm(self, ws):
        certs = construction.run_certificate_suite(ws)
        assert all(c["pass"] for c in certs.values())
        two_scale = sw.Grid1D.from_interval(-80.0, 80.0, 10241)
        lattice = sw.Grid1D(-250.0, 1.0 / 64, 501 * 64)
        assert (ws.interpolator("psi"), 0, 0, two_scale, 3) in ws._blocks._values
        assert (ws.interpolator("phi"), 0, 0, lattice, 0) in ws._blocks._values

    @pytest.mark.parametrize("which, name, deviation, gap", [
        ("psi", "TWO_SCALE_CROSS", "max_deviation", 2e-2),
        ("phi", "SCALING_LOWPASS", "max_partition_deviation", 1e-2)])
    def test_scaled_evaluator_fails_its_certificate(self, ws, which, name,
                                                    deviation, gap):
        self._warm(ws)
        with _wrapped_interpolator(ws, lambda w, f: (
                (lambda x: 1.01 * f(x)) if w == which else f)):
            certs = construction.run_certificate_suite(ws)
        assert [n for n, c in certs.items() if not c["pass"]] == [name]
        assert certs[name][deviation] == pytest.approx(gap, rel=0.01)


class TestParseval:
    def test_self_pairing_of_wavelet(self, ws, expansion_grid):
        # f = g = the mother wavelet: the pairing is ||psi||^2 = 1 and the
        # window (2, 4) already contains all significant coefficients
        f = sw.synthesize(ws.psi_hat, expansion_grid)
        chk = sw.parseval_check(ws, f, f, sw.IndexWindow(2, 4))
        assert abs(chk["lhs"] - 1.0) < 1e-10
        assert chk["gap"] < 1e-10

    def test_row_from_returned_coefficients_matches_check(self, ws,
                                                          band_function):
        window = sw.IndexWindow(2, 8)
        coeffs = sw.analyze(ws, band_function, window)
        assert (sw.parseval_from_coefficients(band_function, coeffs)
                == sw.parseval_check(ws, band_function, band_function, window))

    def test_point_mass_dual(self, ws, expansion_grid):
        # f = delta at x0: lhs is g(x0), coefficients are atom values at x0
        x0 = 0.35
        delta = sw.DualRepresentative(points=np.array([x0]),
                                      weights=np.array([1.0]))
        g = sw.synthesize(ws.psi_hat, expansion_grid)
        idx = sw.WaveletIndex(epsilon=(1,), m=1, n=(-2,))
        want = ws.atom_values(1, 1, -2, np.array([x0]))[0]
        got = delta.coefficients(ws, sw.IndexWindow(1, 2)).coefficients[idx]
        assert abs(got - want) < 1e-14
        # pair() reads g through a cubic spline of its samples: O(h^4)
        assert abs(delta.pair(g) - ws.evaluate_psi(x0)[0]) < 1e-7

    def test_derivative_dual_moves_onto_partner(self, ws, expansion_grid):
        # delta' pairs to minus the derivative of the partner at the point
        x0 = -0.6
        dual = sw.DualRepresentative(points=np.array([x0]),
                                     weights=np.array([1.0]),
                                     derivative_order=1)
        g = sw.synthesize(ws.psi_hat, expansion_grid)
        want = -ws.evaluate_psi(np.array([x0]), 1)[0]
        # spline-derivative accuracy is O(h^3) on the 1/128 sample grid
        assert abs(dual.pair(g) - want) < 1e-4

    def test_density_dual_of_order_zero_is_the_function(self, ws, band_function,
                                                        expansion_grid):
        # a density dual without derivatives acts as its density does
        window = sw.IndexWindow(2, 8)
        dual = sw.DualRepresentative(density=band_function)
        want = sw.analyze(ws, band_function, window)
        assert dual.coefficients(ws, window).coefficients == want.coefficients
        x = expansion_grid.points()
        g = sw.SampledFunction(expansion_grid, np.exp(-0.5 * (x - 0.3) ** 2))
        assert abs(dual.pair(g) - sw.pairing(band_function, g)) <= 1e-12

    @pytest.mark.parametrize("kwargs", [
        dict(points=[0.3], weights=[1.0], derivative_order=-1),
        dict(points=[0.3], weights=[1.0], derivative_order=1.5),
        dict(points=[0.3], weights=[1.0], derivative_order="1"),
        dict(points=[np.nan], weights=[1.0]),
        dict(points=[0.3], weights=[np.inf]),
        dict(points=[0.3]),  # no weights
        dict(weights=[1.0]),  # no points
        dict(),  # neither points nor a density
        dict(points=[0.3, 0.4], weights=[1.0]),
        dict(points=[[0.3]], weights=[[1.0]]),
        dict(points=["a"], weights=[1.0]),
        dict(points=[0.3], weights=[1.0],
             density=sw.SampledFunction(sw.Grid1D(0.0, 1.0, 3), np.ones(3))),
        dict(density=sw.SampledFunction((sw.Grid1D(0.0, 1.0, 3),) * 2,
                                        np.ones((3, 3)))),  # 2-D density
        dict(density=np.ones(3)),  # samples without their grid
        dict(density="gaussian"),
    ])
    def test_malformed_dual_rejected(self, kwargs):
        with pytest.raises(ExpansionError):
            sw.DualRepresentative(**kwargs)

    def test_numpy_integer_derivative_order_accepted(self, ws):
        got, want = (sw.DualRepresentative(points=[0.3], weights=[1.0],
                                           derivative_order=k)
                     .coefficients(ws, sw.IndexWindow(0, 1)).values
                     for k in (np.int64(1), 1))
        np.testing.assert_array_equal(got, want)

    def test_pairing_keeps_the_imaginary_part(self, ws, expansion_grid):
        delta = sw.DualRepresentative(points=np.array([0.3]),
                                      weights=np.array([1.0]))
        x = expansion_grid.points()
        g = sw.SampledFunction(expansion_grid, np.exp(-0.5 * x ** 2))
        gc = sw.SampledFunction(expansion_grid, (1 + 1j) * g.values)
        assert abs(delta.pair(g) - np.exp(-0.045)) < 1e-8
        assert delta.pair(gc) == (1 + 1j) * delta.pair(g)

    @pytest.mark.parametrize("order", [0, 1])
    def test_point_mass_parseval_gap_shrinks_with_window(self, ws, band_function,
                                                         order):
        # measured gaps: order 0 1.2e-5, 1.4e-6, 1.1e-9;
        # order 1 1.9e-4, 1.1e-5, 3.2e-7
        dual = sw.DualRepresentative(points=np.array([0.35]),
                                     weights=np.array([1.0]),
                                     derivative_order=order)
        gaps = [sw.parseval_check(ws, dual, band_function,
                                  sw.IndexWindow(M, N))["gap"]
                for (M, N) in ((2, 8), (4, 16), (6, 32))]
        assert gaps[0] > gaps[1] > gaps[2]


class TestSerialization:
    def test_csv_roundtrip(self, ws, band_function, tmp_path):
        from subexp_wavelets.expansion import (coefficients_header,
                                               coefficients_to_csv)
        w = sw.IndexWindow(1, 2)
        cs = sw.analyze(ws, band_function, w, source_descriptor="band")
        path = tmp_path / "coeffs.csv"
        coefficients_to_csv(cs, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epsilon_bits", "m", "n_1", "re", "im"]
        assert len(rows) == 1 + len(w)
        header = json.loads(coefficients_header(cs, ws))
        assert header["window"] == {"M": 1, "N": 2, "d": 1}
        assert header["certificate_digest"] == ws.certificate_digest()
        assert header["source"] == "band"
