"""Tensor atoms, coefficient windows, partial sums, spectral coefficients,
Parseval checks."""

import csv
import io
import json
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

import subexp_wavelets as sw
from subexp_wavelets import construction, expansion, numerics, projection
from subexp_wavelets.expansion import ExpansionError
from subexp_wavelets.testfuncs import (gaussian, gaussian_derivative, gevrey_band,
                                       sample)


def _tensor_atom(ws, index, x):
    """2^{md/2} prod_i f_{eps_i}(2^m x_i - n_i), f_0 = phi, f_1 = psi: the
    coefficient tests' oracle, one ``atom_values`` call per axis.

    ``x`` is (npts,) in d = 1 or (..., d); the values come out flat.
    """
    pts = np.asarray(x, dtype=float).reshape(-1, index.dimension)
    out = np.ones(pts.shape[0])
    for i, (bit, n) in enumerate(zip(index.epsilon, index.n)):
        out = out * ws.atom_values(bit, index.m, n, pts[:, i])
    return out


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
        sw.analyze_spectrum(ws, lambda xi: np.exp(-0.35j * xi), w1, 0.35)
        assert built == []
        assert len(c2.coefficients) == len(built) == len(w2)


class TestAtoms:
    def test_unit_norm_1d(self, ws, expansion_grid):
        idx = sw.WaveletIndex(epsilon=(1,), m=2, n=(3,))
        vals = _tensor_atom(ws, idx, expansion_grid.points())
        norm = np.sqrt(np.sum(vals ** 2) * expansion_grid.spacing)
        assert abs(norm - 1.0) < 1e-9

    def test_unit_norm_2d(self, ws):
        g = sw.Grid1D.from_interval(-20.0, 20.0, 1281)
        idx = sw.WaveletIndex(epsilon=(1, 0), m=1, n=(2, -1))
        pts = np.stack(np.meshgrid(g.points(), g.points(), indexing="ij"),
                       axis=-1).reshape(-1, 2)
        vals = _tensor_atom(ws, idx, pts)
        norm = np.sqrt(np.sum(vals ** 2) * g.spacing ** 2)
        assert abs(norm - 1.0) < 1e-6

    def test_matches_scaled_translate(self, ws):
        x = np.linspace(-2.0, 2.0, 33)
        idx = sw.WaveletIndex(epsilon=(1,), m=3, n=(-5,))
        got = _tensor_atom(ws, idx, x)
        want = 2.0 ** 1.5 * ws.interpolator("psi")(8.0 * x + 5.0)
        assert np.max(np.abs(got - want)) < 1e-13


class TestAnalysis:
    def test_single_coefficient_oracle(self, ws, band_function, expansion_grid):
        cs = sw.analyze(ws, band_function, sw.IndexWindow(2, 8))
        idx = sw.WaveletIndex(epsilon=(1,), m=1, n=(3,))
        atom = _tensor_atom(ws, idx, expansion_grid.points())
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
        atom = _tensor_atom(ws, idx, pts).reshape(1025, 1025)
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
        atom = _tensor_atom(ws, index, pts).reshape(f.values.shape)
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


def _moment_scales(grid, N, scales=range(-6, 7)):
    """The scales of ``scales`` whose (2N + 1)-shift block on ``grid`` the
    knot-moment route serves, from the table's layout alone: each knot
    interval holds ``r = 2^-m TABLE_SPACING / h`` samples, a whole number
    >= 4, ``2^m origin`` sits on a knot, and the windows stay inside
    [-TABLE_HALF, TABLE_HALF]: shift n reads the knots from ``2^m origin -
    n - 3 TABLE_SPACING`` to ``2^m origin - n + (P + 3) TABLE_SPACING``, P
    the knot intervals the grid meets."""
    spacing = Fraction(construction.TABLE_SPACING)
    half = Fraction(construction.TABLE_HALF)
    served = []
    for m in scales:
        start = Fraction(2) ** m * Fraction(grid.origin)
        r = spacing / (Fraction(2) ** m * Fraction(grid.spacing))
        if r.denominator != 1 or r < 4 or ((start + half) / spacing).denominator != 1:
            continue
        P = -(-grid.count // int(r))
        if -half <= start - N - 3 * spacing and start + N + (P + 3) * spacing <= half:
            served.append(m)
    return served


# expand's grid moved by one sample: 2^m origin is off the table's knots at
# every scale whose knot intervals hold four or more samples, so every scale
# keeps an atom row, while expand's grid itself reads the interpolant's
# samples at the coarse scales (``_moment_scales``)
_OFF_KNOTS = sw.Grid1D(-80.0 + 1.0 / 128, 1.0 / 128, 20481)


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
        # on a dyadic grid the window rows evaluate the very same arguments
        # as the per-shift rows, so the blocks agree bit for bit: expand's
        # grid keeps rows at the scales the knot moments do not serve, the
        # grid off the knots at every scale
        assert _moment_scales(_OFF_KNOTS, self.N) == []
        kept = [m for m in range(-6, 7) if m not in _moment_scales(expansion_grid, self.N)]
        for grid, scales in ((expansion_grid, kept), (_OFF_KNOTS, range(-6, 7))):
            for bit in (0, 1):
                for m in scales:
                    block, geometry = expansion._axis_block(ws, bit, m, self.N, grid)
                    assert len(geometry) == 2
                    assert not block.flags.owndata  # a view of one extended row
                    np.testing.assert_array_equal(
                        block, _per_shift_block(ws, bit, m, self.N, grid))

    @pytest.mark.parametrize("grid, scales", [
        (sw.Grid1D.from_interval(-12.0, 12.0, 257), range(-6, 7)),  # s = 2^-m 32/3
        # s = 8192 samples >= count, and 2^-6 origin off the knots
        (sw.Grid1D(2.0 ** -10, 1.0 / 128, 257), (-6,)),
    ])
    def test_other_grids_evaluate_each_shift(self, ws, grid, scales):
        for m in scales:
            block, _ = expansion._axis_block(ws, 1, m, self.N, grid)
            assert block.flags.owndata
            np.testing.assert_array_equal(
                block, _per_shift_block(ws, 1, m, self.N, grid))

    def test_scaled_psi_table_scales_every_coefficient(self, ws, band_function):
        window = sw.IndexWindow(2, 8)
        before = sw.analyze(ws, band_function, window).coefficients
        # warm: the scale-0 row is kept, and the wrapped evaluator must miss it
        key = (ws.interpolator("psi"), 0, band_function.grids[0], 8)
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


def _count_interpolant_points(monkeypatch):
    """Points every ``LagrangeInterpolant`` call evaluates from now on."""
    sizes = []
    call = numerics.LagrangeInterpolant.__call__
    monkeypatch.setattr(numerics.LagrangeInterpolant, "__call__",
                        lambda self, x: sizes.append(np.size(x)) or call(self, x))
    return sizes


class TestAtomRows:
    N = 32

    def test_second_analysis_reads_the_kept_rows(self, ws, band_function,
                                                 expansion_grid, monkeypatch):
        # the coarse scales read one window of the table's samples, the
        # others kept rows
        window = sw.IndexWindow(6, self.N)
        moments = _moment_scales(expansion_grid, self.N)
        rows = [m for m in range(-6, 7) if m not in moments]
        first = sw.analyze(ws, band_function, window)
        blocks = [expansion._axis_block(ws, 1, m, self.N, expansion_grid)[0]
                  for m in rows]
        sizes = _count_interpolant_points(monkeypatch)
        again = sw.analyze(ws, band_function, window)
        for m, block in zip(rows, blocks):
            assert np.shares_memory(
                block, expansion._axis_block(ws, 1, m, self.N, expansion_grid)[0])
        samples = ws.interpolator("psi").values
        for m in moments:
            Y, _ = expansion._axis_block(ws, 1, m, self.N, expansion_grid)
            assert np.shares_memory(Y, samples) and not Y.flags.writeable
        assert sizes == []
        np.testing.assert_array_equal(again.values, first.values)

    def test_second_coarse_analysis_evaluates_no_interpolant(self, ws, band_function,
                                                             monkeypatch):
        # (6, 64): a kept m = -6 row would take 8.6 MB, over a quarter of the
        # bound, and be evaluated afresh (1.07M points) on every call
        window = sw.IndexWindow(6, 64)
        first = sw.analyze(ws, band_function, window)
        sizes = _count_interpolant_points(monkeypatch)
        np.testing.assert_array_equal(sw.analyze(ws, band_function, window).values,
                                      first.values)
        assert sizes == []

    def test_coarse_scales_keep_no_rows(self, ws, band_function, expansion_grid):
        # rows of the scales the knot moments serve (m = -6..-2 at spacing
        # 1/128) would keep 8.9 of the window's 10.5 MB: their kept blocks
        # own the (r, 8) stencil weights alone
        system = _fresh_system(ws)
        sw.analyze(system, band_function, sw.IndexWindow(6, self.N))
        moments = _moment_scales(expansion_grid, self.N)
        kept = system._blocks._values
        rows = sorted(key[1] for key, entry in kept.items() if entry.owned.ndim == 1)
        assert rows == [m for m in range(-6, 7) if m not in moments]
        for (_, m, _, _), entry in kept.items():
            if m in moments:
                assert entry.owned.shape == (2 ** -m, numerics.STENCIL)
        assert sum(entry.nbytes for entry in kept.values()) <= 2.5e6

    def test_per_shift_blocks_are_kept(self, ws, monkeypatch):
        # s = 2^-m 32/3 is never whole on 257 points over [-12, 12], so each
        # block is per shift; both axes share the grid and so the blocks
        g = sw.Grid1D.from_interval(-12.0, 12.0, 257)
        x = g.points()
        f = sw.SampledFunction((g, g), np.outer(np.exp(-0.5 * x ** 2),
                                                np.exp(-0.5 * (x - 1.0) ** 2)))
        window = sw.IndexWindow(2, 8, d=2)

        def fresh():
            return sw.WaveletSystem(ws.a, ws.rho2, ws.bell, ws.psi_samples)

        system = fresh()
        sizes = _count_interpolant_points(monkeypatch)
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
        # the kept atom blocks, and projection's kept matrices beside them
        sw.analyze(ws, band_function, sw.IndexWindow(2, 8))
        assert ws._blocks._values
        for kept in ws._blocks._values.values():
            arrays = ((kept.block, kept.owned) if isinstance(kept, expansion._Block)
                      else (kept,))
            assert not any(a.flags.writeable for a in arrays)
        block, _ = expansion._axis_block(ws, 1, 0, 8, band_function.grids[0])
        with pytest.raises(ValueError):
            block[0, 0] = 1.0

    def test_kept_rows_stay_within_their_bound(self, ws):
        # off the knots each grid keeps (6, 32) rows at every scale, 10.5 MB:
        # five grids overflow the bound, and the least recently used go first
        window = sw.IndexWindow(6, self.N)
        grids = [sw.Grid1D(_OFF_KNOTS.origin + 0.5 * k, 1.0 / 128, 20481)
                 for k in range(5)]
        for g in grids:
            sw.analyze(ws, sw.SampledFunction(g, np.exp(-g.points() ** 2)), window)
        kept = [key[2] for key in ws._blocks._values]
        assert (sum(r.nbytes for r in ws._blocks._values.values())
                <= ws._blocks.budget)
        assert grids[0] not in kept
        assert kept[-13:] == [grids[-1]] * 13

    def test_per_shift_blocks_over_a_quarter_of_the_bound_are_not_kept(
            self, ws, monkeypatch):
        # 20,000 points over [-80, 80] make every scale's block per shift,
        # (65, 20000) floats or 10.4 MB, over a quarter of the bound: three
        # filled it, each evicted before its next use, and none was read again
        system = sw.WaveletSystem(ws.a, ws.rho2, ws.bell, ws.psi_samples)
        g = sw.Grid1D.from_interval(-80.0, 80.0, 20000)
        f = sw.SampledFunction(g, np.exp(-g.points() ** 2))
        sizes = _count_interpolant_points(monkeypatch)
        for _ in range(2):
            sw.analyze(system, f, sw.IndexWindow(6, self.N))
        assert len(sizes) == 26
        assert not system._blocks._values


def _fresh_system(ws):
    """A system sharing ws's bell and psi samples, with no table read and no
    block kept."""
    return sw.WaveletSystem(ws.a, ws.rho2, ws.bell, ws.psi_samples)


def _count_preparations(monkeypatch):
    """Calls of the two preparations of a block from now on: the Lagrange
    weights (of ``_knot_windows`` and of every interpolant evaluation) and
    the sliding windows."""
    calls = []
    weights, windows = numerics.lagrange_weights, expansion.sliding_window_view
    monkeypatch.setattr(numerics, "lagrange_weights", lambda *a, **k: (
        calls.append("lagrange_weights") or weights(*a, **k)))
    monkeypatch.setattr(expansion, "sliding_window_view", lambda *a, **k: (
        calls.append("sliding_window_view") or windows(*a, **k)))
    return calls


class TestPreparedBlocks:
    """Each block is prepared once and kept: a warm analysis or synthesis
    prepares nothing, and gives the bits of the first."""

    @staticmethod
    def _two_d():
        g = sw.Grid1D.from_interval(-12.0, 12.0, 257)
        x = g.points()
        return sw.SampledFunction((g, g), np.outer(np.exp(-0.5 * x ** 2),
                                                   np.exp(-0.5 * (x - 1.0) ** 2)))

    @pytest.mark.parametrize("case", ["expand (6, 32)", "2-D (2, 8)"])
    def test_warm_calls_prepare_nothing(self, ws, band_function, monkeypatch, case):
        f, window = ((band_function, sw.IndexWindow(6, 32)) if case.startswith("expand")
                     else (self._two_d(), sw.IndexWindow(2, 8, d=2)))
        system = _fresh_system(ws)
        calls = _count_preparations(monkeypatch)
        first = sw.analyze(system, f, window)
        partial = sw.synthesize_partial(system, first, f.grids)
        assert calls  # the cold call prepares
        calls.clear()
        again = sw.analyze(system, f, window)
        assert again.values.tobytes() == first.values.tobytes()
        assert (sw.synthesize_partial(system, again, f.grids).values.tobytes()
                == partial.values.tobytes())
        assert calls == []

    def test_wrapped_evaluator_misses_the_kept_blocks(self, ws, band_function,
                                                      monkeypatch):
        window = sw.IndexWindow(2, 8)
        system = _fresh_system(ws)
        sw.analyze(system, band_function, window)
        calls = _count_preparations(monkeypatch)
        with _wrapped_interpolator(system, lambda which, f: (lambda x: f(x))):
            sw.analyze(system, band_function, window)
        assert "sliding_window_view" in calls

    def test_windowed_block_is_charged_its_row(self, ws, band_function,
                                               expansion_grid):
        # the (65, 20,481) view would count 10.6 MB, over a quarter of the
        # bound, and never be kept
        system = _fresh_system(ws)
        sw.analyze(system, band_function, sw.IndexWindow(6, 32))
        entry = system._blocks._values[(system.interpolator("psi"), 0, expansion_grid, 32)]
        assert entry.geometry[0] == 128  # s samples a unit shift
        assert entry.block.nbytes == 65 * 20481 * 8
        assert entry.nbytes == entry.owned.nbytes == (20481 + 2 * 32 * 128) * 8
        assert np.shares_memory(entry.block, entry.owned)
        assert (sum(e.nbytes for e in system._blocks._values.values())
                <= system._blocks.budget)


class TestRealContraction:
    """The real blocks meet the real and imaginary parts of the data."""

    WINDOW = sw.IndexWindow(6, 32)

    @pytest.fixture(scope="class")
    def complex_input(self, band_function, expansion_grid):
        x = expansion_grid.points()
        return sw.SampledFunction(expansion_grid, band_function.values * (0.6 - 0.8j)
                                  + 0.3j * np.exp(-0.5 * (x - 1.0) ** 2))

    @pytest.fixture(scope="class")
    def per_shift(self, ws, complex_input, expansion_grid):
        """(analysis, partial sum) of ``complex_input`` through the dense
        per-shift blocks, each block built once for both."""
        g = expansion_grid
        fw = complex_input.values * g.trapezoid_weights()
        coeffs = sw.analyze(ws, complex_input, self.WINDOW).values[0]
        analysis, partial = [], 0.0
        for m, c in zip(range(-6, 7), coeffs):
            block = _per_shift_block(ws, 1, m, 32, g)
            analysis.append(block @ fw)
            partial = partial + c @ block
        return np.stack(analysis), partial

    def test_analysis_is_linear_over_the_parts(self, ws, complex_input, expansion_grid,
                                               per_shift):
        g, v = expansion_grid, complex_input.values
        got = sw.analyze(ws, complex_input, self.WINDOW).values
        re, im = (sw.analyze(ws, sw.SampledFunction(g, part), self.WINDOW).values
                  for part in (v.real, v.imag))
        top = np.abs(got).max()
        assert np.abs(got - (re + 1j * im)).max() <= 1e-14 * top
        assert np.abs(got[0] - per_shift[0]).max() <= 1e-14 * top

    def test_synthesis_is_linear_over_the_parts(self, ws, complex_input,
                                                expansion_grid, per_shift):
        coeffs = sw.analyze(ws, complex_input, self.WINDOW)
        got = sw.synthesize_partial(ws, coeffs, expansion_grid).values
        re, im = (sw.synthesize_partial(ws, sw.CoefficientSet(self.WINDOW, part),
                                        expansion_grid).values
                  for part in (coeffs.values.real, coeffs.values.imag))
        top = np.abs(got).max()
        assert np.abs(got - (re + 1j * im)).max() <= 1e-14 * top
        assert np.abs(got - per_shift[1]).max() <= 1e-14 * top

    def test_real_samples_give_exactly_real_results(self, ws, band_function,
                                                    expansion_grid):
        # one real part: the coefficients and their partial sums, in 1-D and
        # 2-D, have imaginary part 0, and a real part within rounding of the
        # two-part route's (a complex input whose real part is the samples)
        grid = sw.Grid1D.from_interval(-12.0, 12.0, 257)
        from subexp_wavelets.testfuncs import gevrey_band, sample_2d
        band_2d = sample_2d(gevrey_band(np.pi, 2 * np.pi),
                            gevrey_band(0.9 * np.pi, 2.1 * np.pi), grid, grid)
        for f, window, grids in ((band_function, self.WINDOW, expansion_grid),
                                 (band_2d, sw.IndexWindow(2, 8, 2), (grid, grid))):
            assert not f.values.imag.any()
            coeffs = sw.analyze(ws, f, window)
            partial = sw.synthesize_partial(ws, coeffs, grids).values
            assert not coeffs.values.imag.any() and not partial.imag.any()
            tagged = sw.analyze(ws, sw.SampledFunction(f.grid, f.values + 1e-300j), window)
            top = np.abs(coeffs.values).max()
            assert np.abs(tagged.values.real - coeffs.values.real).max() <= 1e-14 * top

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
        # expand's grid off the knots: a row and a partial last phase at
        # every scale
        (_OFF_KNOTS, 8),
        (_OFF_KNOTS, 32),
        # whole phases only at s = 64, 32, ...
        (sw.Grid1D(-8.0, 1.0 / 16, 256), 8),
    ])
    def test_kernels_match_dense_products(self, ws, grid, N):
        # three columns and (2, 3) rows, and the one part of real samples:
        # one column, one row
        rng = np.random.default_rng(7)
        F = rng.standard_normal((grid.count, 3))
        C = rng.standard_normal((2, 3, 2 * N + 1))
        for m in range(-6, 7):
            B, geometry = expansion._axis_block(ws, 1, m, N, grid)
            if geometry is None or len(geometry) != 2:  # not a windowed row
                continue
            dense = np.array(B)
            for F_, C_ in ((F, C), (F[:, :1], C[0, :1])):
                got = expansion._window_apply(B, *geometry, F_)
                assert got.shape == (2 * N + 1, F_.shape[1])
                assert (np.abs(got - dense @ F_).max()
                        <= 1e-14 * (np.abs(dense) @ np.abs(F_)).max())
                got = expansion._window_transpose(B, *geometry, C_)
                assert got.shape == C_.shape[:-1] + (grid.count,)
                assert (np.abs(got - C_ @ dense).max()
                        <= 1e-14 * (np.abs(C_) @ np.abs(dense)).max())
            # the skipped phases are zero, and a fall-back to every phase
            # exceeds the phases that meet the span on expand's grid
            s, (a, b) = geometry
            whole, _, q0, q1 = expansion._phases(B, *geometry)
            assert not whole[:q0].any() and not whole[q1:].any()
            assert q1 - q0 <= -(-(b - a) // s) + 2 * N + 1

    def test_span_covers_every_nonzero_sample(self, ws):
        for m in range(-6, 7):
            s, (a, b) = expansion._axis_block(ws, 1, m, 32, _OFF_KNOTS)[1]
            row = ws._blocks._values[(ws.interpolator("psi"), m, _OFF_KNOTS, 32)].owned
            nonzero = np.flatnonzero(row)
            assert a <= nonzero[0] and nonzero[-1] < b
            assert b - a <= nonzero[-1] - nonzero[0] + 4

    def test_synthesis_is_the_transpose_of_analysis(self, ws, expansion_grid):
        # windows (6, 32) and (6, 64): the kernels skip the phases beyond each
        # kept row's span, and the coarse scales read the table's samples by
        # moments
        rng = np.random.default_rng(2024)
        g = sw.SampledFunction(expansion_grid, rng.standard_normal(expansion_grid.count))
        for window in (sw.IndexWindow(6, 32), sw.IndexWindow(6, 64)):
            c = sw.CoefficientSet(window, rng.standard_normal(window.shape)
                                  + 1j * rng.standard_normal(window.shape))
            partial = sw.synthesize_partial(ws, c, expansion_grid).values
            lhs = np.sum(expansion_grid.trapezoid_weights() * g.values * partial)
            rhs = np.sum(c.values * sw.analyze(ws, g, window).values)
            assert abs(lhs - rhs) <= 1e-13 * abs(rhs)


_UNIT_ROUNDOFF = np.finfo(float).eps / 2
_LOG2_SPACING = int(np.log2(construction.TABLE_SPACING))  # -7: knots 1/128 apart
_needs_extended = pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps,
    reason="the exact reference needs an extended-precision longdouble")


def _exact(a, b):
    """a @ b in extended precision, the reference both routes round from."""
    return (np.asarray(a).astype(np.clongdouble, copy=False)
            @ np.asarray(b).astype(np.clongdouble, copy=False))


class TestKnotMoments:
    """Scales whose knot intervals hold r >= 4 samples, with ``2^m origin``
    on a knot, read the interpolant's samples y by interval moments
    (``_knot_windows``): the same sums against the same 8-point stencils,
    regrouped.  Against the exact products with the dense per-shift
    block B, their coefficients stay within 1e-15 of ``|B| |F|``, and their
    partial sums within ``(2N + 1) u |C| |B|``, the worst-case rounding of a
    sum of 2N + 1 products (u the unit roundoff; the dense product in
    double precision itself reaches 2.7e-15 here).  Every other scale keeps
    its row, whose block is the per-shift block bit for bit."""

    @pytest.fixture(scope="class")
    def dense(self, ws):
        """``(m, N, grid) ->`` the per-shift oracle block of a scale the knot
        moments serve, each built once for the class: a block of fewer shifts
        is the middle rows of a wider one already built, the same
        evaluations, so the largest N runs first.  The blocks of the other
        scales are compared once each and not kept."""
        built = {}

        def block(m, N, grid):
            wide = built.get((m, grid))
            if wide is None or wide.shape[0] < 2 * N + 1:
                wide = built[m, grid] = _per_shift_block(ws, 1, m, N, grid)
            W = wide.shape[0] // 2
            return wide[W - N:W + N + 1]

        return block

    @staticmethod
    def _check_scales(ws, dense, fs, window, moment_scales):
        """analyze and one-scale partial sums of each input of ``fs`` (all on
        one grid) against the dense blocks."""
        grid = fs[0].grids[0]
        fws = [f.values * grid.trapezoid_weights() for f in fs]
        coeffs = [sw.analyze(ws, f, window).values for f in fs]
        for m in range(-window.M, window.M + 1):
            B, geometry = expansion._axis_block(ws, 1, m, window.N, grid)
            assert (len(geometry) == 4) == (m in moment_scales), m
            if m not in moment_scales:
                np.testing.assert_array_equal(B, _per_shift_block(ws, 1, m, window.N, grid))
                continue
            dense_m = dense(m, window.N, grid)
            exact_m = dense_m.astype(np.clongdouble)  # converted once for four products
            for fw, c in zip(fws, coeffs):
                got = c[0, m + window.M]
                bound = np.abs(dense_m) @ np.abs(fw)
                assert np.all(np.abs(got - _exact(exact_m, fw)) <= 1e-15 * bound), m
                only = np.zeros(window.shape, dtype=complex)
                only[0, m + window.M] = got
                partial = sw.synthesize_partial(ws, sw.CoefficientSet(window, only),
                                                grid).values
                bound = (2 * window.N + 1) * _UNIT_ROUNDOFF * (np.abs(got) @ np.abs(dense_m))
                assert np.all(np.abs(partial - _exact(got, exact_m)) <= bound), m

    @_needs_extended
    @pytest.mark.parametrize("N", [64, 32])
    def test_every_scale_matches_the_dense_blocks(self, ws, dense, band_function,
                                                  expansion_grid, N):
        # real samples (one part) and complex samples (two parts)
        x = expansion_grid.points()
        complex_input = sw.SampledFunction(
            expansion_grid, band_function.values * (0.6 - 0.8j)
            + 0.3j * np.exp(-0.5 * ((x - 1.0) / 10.0) ** 2))
        self._check_scales(ws, dense, (band_function, complex_input),
                           sw.IndexWindow(6, N), _moment_scales(expansion_grid, N))

    @_needs_extended
    @pytest.mark.parametrize("origin, moment_scales", [
        # 2^m origin = -319 2^(m - 2) lies on a knot where m - 2 >= log2
        # TABLE_SPACING, and the intervals hold r = 2^-m TABLE_SPACING / h >= 4
        # samples where m <= log2 TABLE_SPACING + 5
        (-79.75, range(_LOG2_SPACING + 2, _LOG2_SPACING + 6)),
        # 2^m origin = -2559 2^(m - 5): on a knot only where r = 4
        (-80.0 + 1.0 / 32, (_LOG2_SPACING + 5,)),
    ])
    def test_origins_on_whole_knots(self, ws, dense, origin, moment_scales):
        grid = sw.Grid1D(origin, 1.0 / 128, 20481)
        x = grid.points()
        f = sw.SampledFunction(grid, np.exp(-0.5 * ((x - 3.0) / 10.0) ** 2))
        self._check_scales(ws, dense, (f,), sw.IndexWindow(6, 8), moment_scales)

    @_needs_extended
    def test_multi_column_kernels(self, ws, dense, expansion_grid):
        # three columns of samples, and (2, 3) rows of coefficients
        rng = np.random.default_rng(39)
        F = rng.standard_normal((expansion_grid.count, 3))
        C = rng.standard_normal((2, 3, 65))
        for m in _moment_scales(expansion_grid, 32):
            B, geometry = expansion._axis_block(ws, 1, m, 32, expansion_grid)
            dense_m = dense(m, 32, expansion_grid)
            got = expansion._block_apply(B, geometry, F)
            assert got.shape == (65, 3)
            assert np.all(np.abs(got - _exact(dense_m, F))
                          <= 1e-15 * (np.abs(dense_m) @ np.abs(F)))
            got = expansion._block_transpose(B, geometry, C)
            assert got.shape == (2, 3, expansion_grid.count)
            assert np.all(np.abs(got - _exact(C, dense_m))
                          <= 65 * _UNIT_ROUNDOFF * (np.abs(C) @ np.abs(dense_m)))

    @_needs_extended
    @pytest.mark.parametrize("origin, N", [
        (-80.0, 262),  # the windows of shift n = N reach knot 0
        (0.0, 263),  # those of n = -N stay 120 knots short of the table's end
        (60.0, 263),  # and here end on its last knot
    ])
    def test_windows_leaving_the_table_fall_back_to_rows(self, ws, origin, N):
        # 257 points: r = 64 at m = -6, where s = 8192 samples >= count makes
        # the fall-back a per-shift block
        grid = sw.Grid1D(origin, 1.0 / 128, 257)
        rng = np.random.default_rng(N)
        F, C = rng.standard_normal((257, 2)), rng.standard_normal((2, 2 * N + 1))
        B, geometry = expansion._axis_block(ws, 1, -6, N, grid)
        dense = _per_shift_block(ws, 1, -6, N, grid)
        assert len(geometry) == 4
        assert np.all(np.abs(expansion._block_apply(B, geometry, F) - _exact(dense, F))
                      <= 1e-15 * (np.abs(dense) @ np.abs(F)))
        assert np.all(np.abs(expansion._block_transpose(B, geometry, C) - _exact(C, dense))
                      <= (2 * N + 1) * _UNIT_ROUNDOFF * (np.abs(C) @ np.abs(dense)))
        B, geometry = expansion._axis_block(ws, 1, -6, N + 1, grid)
        assert geometry is None
        np.testing.assert_array_equal(B, _per_shift_block(ws, 1, -6, N + 1, grid))

    def test_tensor_axes_carry_trailing_columns(self, ws):
        # m = -3 takes moments on both axes (r = 8), the other axes' samples
        # and the two parts of complex samples as trailing columns
        grids = (sw.Grid1D(-4.0, 1.0 / 128, 1025), sw.Grid1D(-2.0, 1.0 / 128, 769))
        x1, x2 = (g.points() for g in grids)
        factors = (np.exp(-x1 ** 2), np.exp(-((x2 - 0.5) / 0.7) ** 2 + 1j * x2))
        window = sw.IndexWindow(3, 2, d=2)
        assert len(expansion._axis_block(ws, 1, -3, 2, grids[1])[1]) == 4
        got = sw.analyze(ws, sw.SampledFunction(grids, np.outer(*factors)), window)
        shifts = np.arange(-2, 3)[:, None]
        quad = [[np.array([ws.atom_values(bit, m, shifts, g.points())
                           @ (fac * g.trapezoid_weights()) for m in range(-3, 4)])
                 for bit in (0, 1)] for g, fac in zip(grids, factors)]
        want = np.stack([np.einsum("mi,mj->mij", quad[0][e1], quad[1][e2])
                         for e1, e2 in window.patterns()])
        assert np.abs(got.values - want).max() <= 1e-14 * np.abs(want).max()
        partial = sw.synthesize_partial(ws, got, grids)
        pairing = sw.inner_product(partial, sw.SampledFunction(grids, np.outer(*factors)))
        assert abs(pairing - got.energy()) <= 1e-14 * got.energy()

    def test_wrapped_evaluator_takes_rows_and_scales_every_coefficient(
            self, ws, expansion_grid):
        # a wrapped evaluator has no rows to read: every scale falls back to
        # evaluated rows, which move every coefficient by its factor; this
        # wide Gaussian's coefficients are largest at m = -6..-3, which the
        # knot moments serve without the wrapper
        x = expansion_grid.points()
        f = sw.SampledFunction(expansion_grid, np.exp(-0.5 * (x / 10.0) ** 2))
        window = sw.IndexWindow(6, 32)
        before = sw.analyze(ws, f, window).values
        with _wrapped_interpolator(ws, lambda which, g: (
                (lambda x: 1.01 * g(x)) if which == "psi" else g)):
            for m in _moment_scales(expansion_grid, 32):
                assert len(expansion._axis_block(ws, 1, m, 32, expansion_grid)[1]) == 2
            after = sw.analyze(ws, f, window).values
        top = np.abs(before).max()
        assert np.abs(before[0, :4]).max(axis=1).min() > 1e-4 * top
        assert np.abs(after - 1.01 * before).max() <= 1e-13 * top


class TestCertificateRows:
    """``TWO_SCALE_CROSS`` and ``SCALING_LOWPASS`` read the dense tables'
    knots and keep nothing, so a table scaled after a warm suite must fail
    its certificate."""

    @pytest.mark.parametrize("which, name, deviation, gap", [
        ("psi", "TWO_SCALE_CROSS", "max_deviation", 2e-2),
        ("phi", "SCALING_LOWPASS", "max_partition_deviation", 1e-2)])
    def test_scaled_evaluator_fails_its_certificate(self, ws, which, name,
                                                    deviation, gap):
        certs = construction.run_certificate_suite(ws)
        assert all(c["pass"] for c in certs.values())
        table = ws.dense_table

        def scaled(w, order=0):
            grid, values = table(w, order)
            return (grid, 1.01 * values) if w == which else (grid, values)
        ws.dense_table = scaled
        try:
            certs = construction.run_certificate_suite(ws)
        finally:
            del ws.dense_table
        assert [n for n, c in certs.items() if not c["pass"]] == [name]
        assert certs[name][deviation] == pytest.approx(gap, rel=0.01)


class TestParseval:
    def test_self_pairing_of_wavelet(self, ws, expansion_grid):
        # f = g = the mother wavelet: the pairing is ||psi||^2 = 1 and the
        # window (2, 4) already contains all significant coefficients
        f = sw.SampledFunction(expansion_grid, ws.evaluate_psi(expansion_grid.points()))
        chk = sw.parseval_check(ws, f, f, sw.IndexWindow(2, 4))
        assert abs(chk["lhs"] - 1.0) < 1e-10
        assert chk["gap"] < 1e-10

    def test_row_from_returned_coefficients_matches_check(self, ws,
                                                          band_function):
        window = sw.IndexWindow(2, 8)
        coeffs = sw.analyze(ws, band_function, window)
        assert (sw.parseval_from_coefficients(band_function, coeffs)
                == sw.parseval_check(ws, band_function, band_function, window))

    WINDOWS = [sw.IndexWindow(2, 8), sw.IndexWindow(4, 16), sw.IndexWindow(6, 32)]

    @staticmethod
    def _point_mass_gap(ws, k, x0, window):
        """(gap, max|c|): ``analyze_spectrum`` of delta^(k) at x0, spectrum
        ``(i xi)^k exp(-i x0 xi)``, against ``(-1)^k psi_{m,n}^(k)(x0) =
        (-1)^k 2^(m (1/2 + k)) psi^(k)(2^m x0 - n)`` by ``evaluate_psi``'s
        direct sums."""
        got = sw.analyze_spectrum(ws, _point_mass(k, x0), window, abs(x0)).values[0]
        ns = np.arange(-window.N, window.N + 1)
        want = np.array([(-1.0) ** k * 2.0 ** (m * (0.5 + k))
                         * ws.evaluate_psi(np.ldexp(x0, m) - ns, k)
                         for m in range(-window.M, window.M + 1)])
        return float(np.max(np.abs(got - want))), float(np.max(np.abs(want)))

    def test_point_mass_dual(self, ws):
        # measured 1.2e-13, 8.1e-14 and 1.2e-13 of max|c|
        for window in self.WINDOWS:
            gap, top = self._point_mass_gap(ws, 0, 0.3, window)
            assert gap <= 1e-12 * top

    def test_derivative_dual_moves_onto_partner(self, ws):
        # <delta^(k), psi_{m,n}> = (-1)^k psi_{m,n}^(k): measured at most
        # 4.0e-14 (k = 1) and 2.8e-14 (k = 2) of max|c|
        for k in (1, 2):
            for window in self.WINDOWS:
                gap, top = self._point_mass_gap(ws, k, 0.3, window)
                assert gap <= 1e-12 * top, (k, window)

    @staticmethod
    def _density_gap(ws, grid, order, window):
        """(gap, max|c|): the closed-form spectrum of the order-k derivative
        of exp(-x^2) against ``analyze`` of its samples on ``grid``."""
        got = sw.analyze_spectrum(ws, _gaussian_derivative_hat(order), window, 10.0)
        want = sw.analyze(ws, sample(gaussian_derivative(order), grid), window).values
        return float(np.max(np.abs(got.values - want))), float(np.max(np.abs(want)))

    def test_density_dual_of_order_zero_is_the_function(self, ws, expansion_grid):
        # measured 1.8e-13, 1.1e-13 and 2.0e-13 of max|c|
        for window in self.WINDOWS:
            gap, top = self._density_gap(ws, expansion_grid, 0, window)
            assert gap <= 1e-12 * top

    @pytest.mark.parametrize("center, scale", [(0.0, 1.0), (1.3, 1.4), (-2.2, 0.6)])
    def test_every_scale_of_a_sampled_gaussian_matches_its_closed_form(
            self, ws, expansion_grid, center, scale):
        # exp(-((x - x0) / s)^2) sampled on expand's grid against its
        # spectrum's coefficients; measured at most 1.8e-13, 1.7e-13 and
        # 1.2e-13 of max|c| over the scales.  A cubic interpolant of the
        # tables (error O(h^4)) reads about 3e-10 at m <= -2 and fails it
        window = sw.IndexWindow(6, 32)
        got = sw.analyze(ws, sample(gaussian(center, scale), expansion_grid), window)
        want = sw.analyze_spectrum(ws, lambda xi: scale * np.sqrt(np.pi) * np.exp(
            -0.25 * (scale * xi) ** 2 - 1j * center * xi), window, 10.0).values
        gaps = np.abs(got.values - want)[0].max(axis=1)
        assert np.all(gaps <= 5e-13 * np.abs(want).max()), gaps

    @pytest.mark.parametrize("order, M, N", [(1, 2, 8), (1, 4, 16), (2, 4, 16)])
    def test_density_dual_of_order_k_is_the_derivative(self, ws, expansion_grid,
                                                       order, M, N):
        # measured 9.0e-14, 1.2e-13 and 1.4e-13 of max|c|
        gap, top = self._density_gap(ws, expansion_grid, order, sw.IndexWindow(M, N))
        assert gap <= 1e-12 * top

    @pytest.mark.parametrize("kwargs", [
        dict(window=sw.IndexWindow(1, 2, d=2), reach=0.0),
        dict(window=sw.IndexWindow(1, 2), reach=-1.0),
        dict(window=sw.IndexWindow(1, 2), reach=np.nan),
        dict(window=sw.IndexWindow(1, 2), reach=np.inf),
        dict(window=sw.IndexWindow(1, 2), reach=-np.inf),
        dict(window=sw.IndexWindow(20, 2), reach=1.0),  # 2^20 + 394 nodes a side
        dict(window=sw.IndexWindow(1, 2 ** 20), reach=0.0),
        dict(window=sw.IndexWindow(2000, 2), reach=1.0),  # 2^2000 overflows
    ])
    def test_malformed_dual_rejected(self, ws, kwargs):
        # the spectral route's input checks, raised before fhat is called
        calls = []
        with pytest.raises(ExpansionError):
            sw.analyze_spectrum(ws, lambda xi: calls.append(xi) or np.ones_like(xi),
                                **kwargs)
        assert calls == []

    @pytest.mark.parametrize("order", [0, 1])
    def test_point_mass_parseval_gap_shrinks_with_window(self, ws, band_function,
                                                         order):
        # <delta^(k)_x0, g> = (-1)^k g^(k)(x0), read off the band function's
        # spectrum, against sum c(delta^(k)) c(g); measured gaps:
        # order 0 1.2e-5, 1.4e-6, 1.2e-9; order 1 1.9e-4, 1.1e-5, 1.4e-8
        x0, fn = 0.35, gevrey_band(np.pi, 2 * np.pi)
        lhs = (-1.0) ** order * 2.0 * sw.synthesize_values(fn.spectrum, x0, order)[0].real
        delta = _point_mass(order, x0)
        gaps = [abs(lhs - np.sum(sw.analyze_spectrum(ws, delta, w, x0).values
                                 * sw.analyze(ws, band_function, w).values))
                for w in self.WINDOWS]
        assert gaps[0] > gaps[1] > gaps[2]


def _point_mass(k, x0):
    """The spectrum of delta^(k) at x0, which pairs with g to (-1)^k g^(k)(x0)."""
    return lambda xi: (1j * xi) ** k * np.exp(-1j * x0 * xi)


def _gaussian_derivative_hat(k):
    """The spectrum of the k-th derivative of exp(-x^2)."""
    return lambda xi: (1j * xi) ** k * np.sqrt(np.pi) * np.exp(-0.25 * xi ** 2)


class TestSpectrumRoute:
    """``analyze_spectrum``: the coefficients of a functional from its
    spectrum and the analytic psi_hat, with no table and no interpolant."""

    def test_non_finite_spectrum_rejected(self, ws):
        with pytest.raises(ExpansionError):
            sw.analyze_spectrum(ws, lambda xi: np.where(xi > 10.0, np.nan, 1.0),
                                sw.IndexWindow(2, 4), 0.0)

    @pytest.mark.parametrize("M, N", [(2, 8), (4, 16)])
    def test_sampled_density_matches_its_closed_form(self, ws, M, N):
        # exp(-x^2) on 1,537 points of [-12, 12], read through
        # ``forward_transform_values``; measured 1.9e-16 to 1.9e-12 of max|c|.
        # Scale 6 would alias on the grid's spacing 1/64
        grid = sw.Grid1D.from_interval(-12.0, 12.0, 1537)
        f, window = sample(gaussian(), grid), sw.IndexWindow(M, N)
        for k in range(3):
            got = sw.analyze_spectrum(ws, lambda xi: (1j * xi) ** k
                                      * sw.forward_transform_values(f, xi), window, 12.0)
            want = sw.analyze_spectrum(ws, _gaussian_derivative_hat(k), window, 12.0)
            assert np.max(np.abs(got.values - want.values)) <= 1e-11 * want.sup_magnitude()

    def test_scaled_psi_table_moves_only_the_sampled_route(self, ws, expansion_grid):
        # two routes with different arithmetic: the psi table read 1.01 times
        # too large moves analyze by 1e-2 of max|c|, and the spectral route
        # not by a bit
        window, f = sw.IndexWindow(2, 8), sample(gaussian(), expansion_grid)
        routes = [lambda: sw.analyze(ws, f, window).values,
                  lambda: sw.analyze_spectrum(ws, _gaussian_derivative_hat(0),
                                              window, 10.0).values]
        before = [route() for route in routes]
        with _wrapped_interpolator(ws, lambda which, g: (
                (lambda x: 1.01 * g(x)) if which == "psi" else g)):
            after = [route() for route in routes]
        top = np.abs(before[0]).max()
        assert np.abs(after[0] - before[0]).max() == pytest.approx(1e-2 * top, rel=1e-6)
        np.testing.assert_array_equal(after[1], before[1])

    def test_scaled_psi_hat_moves_the_spectral_route(self, ws):
        window = sw.IndexWindow(2, 8)
        before = sw.analyze_spectrum(ws, _point_mass(1, 0.3), window, 0.3).values
        psi_hat = ws.psi_hat_fn
        ws.psi_hat_fn = lambda xi: (1 + 1e-6) * psi_hat(xi)
        try:
            after = sw.analyze_spectrum(ws, _point_mass(1, 0.3), window, 0.3).values
        finally:
            del ws.psi_hat_fn
        top = np.abs(before).max()
        assert np.abs(after - before).max() == pytest.approx(1e-6 * top, rel=1e-3)

    def test_non_tempered_ultradistribution_pairs_by_its_coefficients(self, ws):
        # T_hat = exp(|xi|^(1/2)) outgrows every polynomial, so T is no
        # tempered distribution; it pairs with g, the fourth derivative of
        # exp(-x^2), through sum c(T) c(g).  Measured gaps 1.2e-1, 9.7e-5,
        # 1.1e-7 and 1.4e-10
        def t_hat(xi):
            return np.exp(np.sqrt(np.abs(xi)))

        g_hat = _gaussian_derivative_hat(4)
        xi = np.linspace(-80.0, 80.0, 160001)
        pairing = np.trapezoid(t_hat(xi) * g_hat(-xi), xi).real / (2 * np.pi)
        assert pairing == pytest.approx(69.13989, abs=1e-5)
        gaps = []
        for M, N in ((2, 8), (4, 16), (6, 32), (8, 64)):
            window = sw.IndexWindow(M, N)
            c_t = sw.analyze_spectrum(ws, t_hat, window, 0.0).values
            c_g = sw.analyze_spectrum(ws, g_hat, window, 10.0).values
            gaps.append(abs(np.sum(c_t * c_g) - pairing))
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-9

    @pytest.mark.parametrize("rho2", [1.5, 2.0, 2.5])
    def test_psi_tail_is_inside_the_phi_margin(self, rho2):
        # analyze_spectrum sizes its nodes by phi's margin, for psi's tail:
        # measured 195.5 vs 196.1 (1.5), 390.6 vs 391.1 (2), 879.1 vs 879.6
        bell = construction.BellFunction(sw.build_bump(1.0, rho2))
        system = sw.WaveletSystem(1.0, rho2, bell, None)
        grid, vals = system.wide_table("psi")
        mid = grid.count // 2  # t = 0
        folded = np.maximum(np.abs(vals[mid:]), np.abs(vals[mid::-1]))
        sup = np.maximum.accumulate(folded[::-1])[::-1]
        assert np.argmax(sup < 1e-13) * grid.spacing <= projection._phi_tail(system)[2]


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

    @pytest.mark.parametrize("d", [1, 2])
    def test_csv_rows_are_those_of_the_window_indices(self, tmp_path, d):
        # the rows read off the window's layout are csv.writer's rows of
        # window.indices(), byte for byte
        from subexp_wavelets.expansion import CoefficientSet, coefficients_to_csv
        w = sw.IndexWindow(2, 3, d)
        rng = np.random.default_rng(5)
        values = rng.standard_normal(w.shape) + 1j * rng.standard_normal(w.shape)
        values.flat[:3] = [0.0, -0.0j, 1e-300]
        path = tmp_path / "coeffs.csv"
        coefficients_to_csv(CoefficientSet(w, values), path)
        want = io.StringIO()
        writer = csv.writer(want)
        writer.writerow(["epsilon_bits", "m"] + [f"n_{i + 1}" for i in range(d)] + ["re", "im"])
        for index, c in zip(w.indices(), values.ravel().tolist()):
            writer.writerow(["".join(str(b) for b in index.epsilon), index.m,
                             *index.n, repr(c.real), repr(c.imag)])
        assert path.read_bytes() == want.getvalue().encode()
