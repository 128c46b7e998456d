"""Grids, trapezoid quadrature, and band-limited synthesis vs closed forms.

Oracles used here are all independent of the library: the Gaussian integral
sqrt(pi), the Fourier pair rectangle <-> sin(x)/(pi x), and the Gaussian
transform pair exp(-x^2) <-> sqrt(pi) exp(-xi^2/4).  The lattice-factored
direct sum is checked against the plain ``exp(i outer) @ amp`` product, and
the chirp-z engine against the direct sum ``synthesize_values``.  The local
interpolant is checked against the polynomials it must reproduce, and
``next_fast_len`` against a brute-force search.
"""

import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subexp_wavelets as sw
from subexp_wavelets import numerics
from subexp_wavelets.numerics import NumericsError, _direct_sum


def _gaussian_samples(lo=-10.0, hi=10.0, n=2001):
    g = sw.Grid1D.from_interval(lo, hi, n)
    x = g.points()
    return g, sw.SampledFunction(g, np.exp(-x * x))


class TestGrid1D:
    def test_points_extent_last(self):
        g = sw.Grid1D(-2.0, 0.5, 9)
        assert np.array_equal(g.points(), -2.0 + 0.5 * np.arange(9))
        assert g.extent == 4.0
        assert g.last == 2.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(NumericsError):
            sw.Grid1D(0.0, -1.0, 5)
        with pytest.raises(NumericsError):
            sw.Grid1D(0.0, 1.0, 1)
        with pytest.raises(NumericsError):
            sw.Grid1D.from_interval(1.0, 1.0, 5)

    def test_interval_needs_two_points(self):
        # rejected before the spacing (hi - lo) / (count - 1) is formed
        with pytest.raises(NumericsError):
            sw.Grid1D.from_interval(0.0, 1.0, 1)

    def test_non_integral_count_rejected(self):
        with pytest.raises(NumericsError, match="integer"):
            sw.Grid1D(0.0, 0.5, 3.5)
        with pytest.raises(NumericsError, match="integer"):
            sw.Grid1D.from_interval(0.0, 1.0, 4.5)
        assert sw.Grid1D(0.0, 0.5, np.int64(4)).trapezoid_weights().size == 4

    def test_non_finite_origin_rejected(self):
        for origin in (np.nan, np.inf, -np.inf):
            with pytest.raises(NumericsError, match="origin"):
                sw.Grid1D(origin, 0.5, 4)

    def test_non_finite_spacing_rejected(self):
        for spacing in (np.inf, np.nan):
            with pytest.raises(NumericsError, match="spacing"):
                sw.Grid1D(0.0, spacing, 4)
        with pytest.raises(NumericsError, match="spacing"):
            sw.Grid1D.from_interval(0.0, np.inf, 4)

    def test_trapezoid_weights_sum_to_extent(self):
        g = sw.Grid1D.from_interval(0.0, 3.0, 7)
        assert np.isclose(np.sum(g.trapezoid_weights()), 3.0, atol=1e-15)

    def test_index_of_roundtrip(self):
        g = sw.Grid1D(-5.0, 0.25, 41)
        idx = g.index_of(g.points())
        assert np.array_equal(idx, np.arange(41))


class TestQuadrature:
    def test_gaussian_integral(self):
        # decays below 1e-43 at the window edge: trapezoid is superalgebraic
        _, f = _gaussian_samples()
        assert abs(sw.integrate(f) - np.sqrt(np.pi)) < 1e-13

    def test_inner_product_conjugate_symmetry(self):
        g = sw.Grid1D.from_interval(-8.0, 8.0, 1601)
        x = g.points()
        f = sw.SampledFunction(g, np.exp(-x * x) * (1 + 1j * x))
        h = sw.SampledFunction(g, np.exp(-0.5 * x * x) * (x - 2j))
        assert abs(sw.inner_product(f, h) - np.conj(sw.inner_product(h, f))) < 1e-12

    def test_pairing_is_bilinear_and_symmetric(self):
        g = sw.Grid1D.from_interval(-8.0, 8.0, 1601)
        x = g.points()
        f = sw.SampledFunction(g, np.exp(-x * x) * (1 + 1j * x))
        h = sw.SampledFunction(g, np.exp(-0.5 * x * x))
        assert abs(sw.pairing(f, h) - sw.pairing(h, f)) < 1e-14

    def test_norm_of_gaussian(self):
        # ||exp(-x^2)||_2 = (pi/2)^(1/4)
        _, f = _gaussian_samples()
        assert abs(sw.norm_l2(f) - (np.pi / 2) ** 0.25) < 1e-13

    def test_grid_mismatch_rejected(self):
        _, f = _gaussian_samples()
        _, h = _gaussian_samples(n=1001)
        with pytest.raises(NumericsError):
            sw.inner_product(f, h)

    @pytest.mark.parametrize("counts, shape", [((64,), (1, 64)), ((64,), (8, 8)),
                                               ((8, 8), (64,)), ((8, 8), (4, 16))],
                             ids=["1d-row", "1d-square", "2d-flat", "2d-4x16"])
    def test_values_must_have_the_grid_shape(self, counts, shape):
        # values of the right size used to be reshaped to the grid silently
        grids = tuple(sw.Grid1D(0.0, 1.0, n) for n in counts)
        with pytest.raises(NumericsError, match="on a grid of shape"):
            sw.SampledFunction(grids, np.ones(shape))

    @given(alpha=st.floats(min_value=-100.0, max_value=100.0,
                           allow_nan=False, allow_infinity=False))
    @settings(max_examples=25, deadline=None)
    def test_integrate_scaling_linearity(self, alpha):
        g, f = _gaussian_samples(n=401)
        scaled = sw.SampledFunction(g, alpha * f.values)
        assert abs(sw.integrate(scaled) - alpha * sw.integrate(f)) < 1e-10


class TestParts:
    def _bits(self, values):
        return np.ascontiguousarray(values).view(np.uint64)

    def test_exactly_zero_imaginary_part_gives_one_part(self):
        values = np.array([[1.5, -0.0], [2.0, 3.0]]) + 0j * np.array([1.0, -1.0])
        parts = numerics.split_parts(values)
        assert parts.shape == (2, 2, 1) and parts.dtype == np.float64
        assert np.array_equal(self._bits(parts[..., 0]), self._bits(values.real))
        assert np.array_equal(numerics.split_parts(values.real), parts)

    def test_two_parts_join_bit_for_bit(self):
        # -0.0 real parts survive the join, where re + 1j * im gives +0.0
        values = np.array([-0.0 + 1.0j, 2.5 - 0.0j, -0.0 - 3.0j, 1e-300 + 0.0j])
        parts = numerics.split_parts(values)
        assert parts.shape == (4, 2)
        joined = numerics.join_parts(parts)
        assert np.array_equal(self._bits(joined.view(float)), self._bits(values.view(float)))

    def test_join_reads_a_parts_axis_of_any_layout(self):
        rng = np.random.default_rng(3)
        values = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        strided = np.moveaxis(np.stack([values.real, values.imag]), 0, -1)
        assert not strided.flags.c_contiguous
        assert np.array_equal(numerics.join_parts(strided), values)
        one = numerics.join_parts(numerics.split_parts(values.real))
        assert one.dtype == complex and np.array_equal(one, values.real)
        assert not one.imag.any()


class TestSpectrumOnBand:
    def _rect(self, n=20001):
        g = sw.Grid1D.from_interval(-1.0, 1.0, n)
        return sw.SpectrumOnBand(band=(-1.0, 1.0), grid=g,
                                 values=np.ones(n, dtype=complex),
                                 declared_support=((-1.0, 1.0),))

    def test_literal_zero_enforcement(self):
        g = sw.Grid1D.from_interval(-2.0, 2.0, 101)
        vals = np.ones(101, dtype=complex)  # nonzero beyond [-1, 1]
        with pytest.raises(NumericsError):
            sw.SpectrumOnBand(band=(-2.0, 2.0), grid=g, values=vals,
                              declared_support=((-1.0, 1.0),))

    def test_support_must_sit_inside_band(self):
        g = sw.Grid1D.from_interval(-1.0, 1.0, 11)
        with pytest.raises(NumericsError):
            sw.SpectrumOnBand(band=(-1.0, 1.0), grid=g,
                              values=np.zeros(11, dtype=complex),
                              declared_support=((-1.0, 3.0),))

    def test_synthesis_matches_sinc(self):
        # (1/2pi) int_{-1}^{1} e^{i x xi} dxi = sin(x) / (pi x)
        spec = self._rect()
        x = np.array([0.5, 1.0, 2.0, 3.3, -4.7])
        got = sw.synthesize_values(spec, x)
        want = np.sin(x) / (np.pi * x)
        assert np.max(np.abs(got - want)) < 1e-7
        assert np.max(np.abs(got.imag)) < 1e-9

    def test_spectral_derivative_matches_closed_form(self):
        spec = self._rect()
        x = np.array([0.7, 1.9, -2.6])
        got = sw.synthesize_values(spec, x, order=1)
        want = (x * np.cos(x) - np.sin(x)) / (np.pi * x * x)
        assert np.max(np.abs(got - want)) < 1e-7

    @pytest.mark.parametrize("block_entries, bound_mb", [
        (numerics._BLOCK_ENTRIES, 16), (2 ** 12, 2)],
        ids=["default-blocks", "small-blocks"])
    def test_direct_sum_memory_is_bounded(self, ws, monkeypatch, block_entries,
                                          bound_mb):
        # 2,000 points against the 4,096 nodes of psi's band, A + B = 128
        # table entries a row: measured peaks 4.8 MB at the default block size
        # (one block of all rows) and 0.34 MB at 2^12 entries (32 rows a block)
        monkeypatch.setattr(numerics, "_BLOCK_ENTRIES", block_entries)
        x = np.linspace(-40.0, 40.0, 2000)
        tracemalloc.start()
        try:
            sw.synthesize_values(ws.psi_hat, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mb * 2 ** 20

    def test_derivative_order_cap(self):
        spec = self._rect(n=101)
        with pytest.raises(NumericsError):
            sw.synthesize_values(spec, [0.0], order=61)


class TestDirectSum:
    """The lattice-factored direct sum against the plain ``exp(i outer) @ amp``."""

    @staticmethod
    def _amplitudes(n, order):
        rng = np.random.default_rng(n)
        xi = -2.3 + 0.037 * np.arange(n)
        amp = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return xi, amp * (1j * xi) ** order

    @staticmethod
    def _close(got, want, amp):
        # relative to the sum of the term magnitudes, the scale of its rounding
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.sum(np.abs(amp))

    @pytest.mark.parametrize("n", [1, 2, 7, 101])  # 7 and 101 pad A * B
    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("x", [[0.37], [-3.1, 12.9], np.linspace(-60.0, 45.0, 333)],
                             ids=["one", "two", "many"])
    def test_matches_plain_sum(self, n, order, x):
        xi, amp = self._amplitudes(n, order)
        x = np.asarray(x)
        got = _direct_sum(x, xi[0], 0.037, amp, 1j)
        self._close(got, np.exp(1j * np.outer(x, xi)) @ amp, amp)

    @pytest.mark.parametrize("n", [1, 2, 7, 101])
    def test_far_point(self, n):
        # dyadic nodes and an integer point keep every angle exact (a few
        # million radians), so the two routes differ only in the factoring
        rng = np.random.default_rng(n)
        xi = -1.5 + np.arange(n) / 64.0
        amp = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = np.array([-1e6, 1e6])
        got = _direct_sum(x, -1.5, 1 / 64.0, amp, 1j)
        self._close(got, np.exp(1j * np.outer(x, xi)) @ amp, amp)

    def test_rows_beyond_one_block(self, monkeypatch):
        monkeypatch.setattr(numerics, "_BLOCK_ENTRIES", 64)
        xi, amp = self._amplitudes(101, 1)
        x = np.linspace(-7.0, 9.0, 50)  # 64 // (A + B) = 3 rows a block
        got = _direct_sum(x, xi[0], 0.037, amp, 1j)
        self._close(got, np.exp(1j * np.outer(x, xi)) @ amp, amp)

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_synthesize_values_matches_plain_sum(self, order):
        spec = TestChirpSynthesis._two_band_spectrum()
        g = spec.grid
        xi = g.points()
        amp = spec.values * g.trapezoid_weights() * (1j * xi) ** order / (2 * np.pi)
        x = np.array([-41.3, 0.0, 2.5, 1e3])
        got = sw.synthesize_values(spec, x, order=order)
        self._close(got, np.exp(1j * np.outer(x, xi)) @ amp, amp)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="long double has float64's precision here")
    @pytest.mark.parametrize("which", ["psi", "phi"])
    def test_wavelet_sums_match_a_long_double_sum(self, ws, which):
        # every term of the band's quadrature summed in long double, at 2,000
        # uniform points on [-40, 40] (as the benchmark's scattered points)
        # and three far ones.  Each term's exponential is the product of a
        # long-double exponential of x (xi0 + a B h) and one of x b h, so the
        # oracle is off by about 1e-18; the float64 sum is held to 5e-15.
        spec = ws.psi_hat if which == "psi" else ws.phi_hat
        x = np.concatenate([np.random.default_rng(41).uniform(-40.0, 40.0, 2000),
                            [1e3, -2.5e3, 1e4]])
        xi0, amp = numerics._hull_amplitudes(spec)
        n, h = amp.size, spec.grid.spacing
        B = int(np.ceil(np.sqrt(n)))
        A = -(-n // B)
        ld = np.longdouble
        xl = x.astype(ld)[:, None]
        xi = ld(xi0) + ld(h) * np.arange(n)
        amps = [amp.astype(np.clongdouble) * (1j * xi) ** order for order in range(3)]
        steps = np.zeros((3, A * B), dtype=np.clongdouble)
        for order, a in enumerate(amps):
            steps[order, :n] = a
        steps = steps.reshape(3 * A, B).T  # steps[b, order A + a] = amp[a B + b]
        baby = np.exp(1j * xl * (ld(h) * np.arange(B)))
        giant = np.exp(1j * xl * (ld(xi0) + ld(h) * B * np.arange(A)))
        sums = (baby @ steps).reshape(x.size, 3, A) @ giant[:, :, None]
        for order, a in enumerate(amps):
            got = sw.synthesize_values(spec, x, order=order)
            err = np.max(np.abs(got - sums[:, order, 0].astype(complex)))
            assert err <= 5e-15 * float(np.sum(np.abs(a))), (order, err)

    def test_forward_transform_matches_plain_sum(self):
        g, f = _gaussian_samples(n=101)
        amp = f.values * g.trapezoid_weights()
        xi = np.array([-3.3, 0.0, 0.9, 250.0])
        got = sw.forward_transform_values(f, xi)
        self._close(got, np.exp(-1j * np.outer(xi, g.points())) @ amp, amp)


class TestForwardTransform:
    def test_gaussian_pair(self):
        # F[exp(-x^2)](xi) = sqrt(pi) exp(-xi^2 / 4)
        _, f = _gaussian_samples(n=4001)
        xi = np.linspace(-4.0, 4.0, 17)
        got = sw.forward_transform_values(f, xi)
        want = np.sqrt(np.pi) * np.exp(-xi * xi / 4.0)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_roundtrip_through_band(self):
        # forward transform of a band-limited synthesis returns the spectrum
        g = sw.Grid1D.from_interval(-1.0, 1.0, 4001)
        xi = g.points()
        amp = np.zeros(g.count, dtype=complex)
        inner = np.abs(xi) < 1.0
        amp[inner] = np.exp(-1.0 / (1.0 - xi[inner] ** 2))
        spec = sw.SpectrumOnBand(band=(-1.0, 1.0), grid=g, values=amp,
                                 declared_support=((-1.0, 1.0),))
        xg = sw.Grid1D.from_interval(-220.0, 220.0, 14001)
        f = sw.synthesize(spec, xg)
        probe = np.linspace(-0.8, 0.8, 9)
        got = sw.forward_transform_values(f, probe)
        want = np.interp(probe, xi, amp.real)
        assert np.max(np.abs(got - want)) < 1e-6


class TestChirpSynthesis:
    """The chirp-z engine against the direct sum on uniform grids."""

    @staticmethod
    def _two_band_spectrum():
        # Gevrey bumps on both sign bands, with a phase, literal zeros between
        g = sw.Grid1D.from_interval(-3.0, 3.0, 6001)
        xi = g.points()
        t = (np.abs(xi) - 2.0) / 0.75
        amp = np.zeros(g.count, dtype=complex)
        inside = np.abs(t) < 1.0
        amp[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2) + 0.3j * xi[inside])
        return sw.SpectrumOnBand(band=(-3.0, 3.0), grid=g, values=amp,
                                 declared_support=((-2.75, -1.25), (1.25, 2.75)))

    # negative, off-lattice origin; the far ends sit in tails below 1e-12
    X_GRID = sw.Grid1D(-1500.25, 0.37, 8001)

    def test_synthesize_matches_direct_sum(self):
        spec = self._two_band_spectrum()
        got = sw.synthesize(spec, self.X_GRID).values
        want = sw.synthesize_values(spec, self.X_GRID.points())
        assert np.sum(np.abs(want) < 1e-12) > 100
        assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_engine_with_derivative_factor(self, order):
        spec = self._two_band_spectrum()
        g = spec.grid
        xi = g.points()
        coeffs = spec.values * g.trapezoid_weights() * (1j * xi) ** order / (2 * np.pi)
        x = self.X_GRID
        got = sw.chirp_synthesis(coeffs, g.origin, g.spacing, x.origin, x.spacing,
                                 x.count)
        want = sw.synthesize_values(spec, x.points(), order=order)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_trailing_axes_transform_column_by_column(self):
        rng = np.random.default_rng(3)
        coeffs = rng.standard_normal((40, 3)) + 1j * rng.standard_normal((40, 3))
        got = sw.chirp_synthesis(coeffs, -0.7, 0.05, 2.0, -0.3, 25)
        want = np.column_stack([sw.chirp_synthesis(coeffs[:, i], -0.7, 0.05, 2.0,
                                                   -0.3, 25) for i in range(3)])
        assert got.shape == (25, 3)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_single_output_and_single_node(self):
        got = sw.chirp_synthesis([2.0 - 1.0j], 0.7, 0.1, -3.0, 0.5, 4)
        x = -3.0 + 0.5 * np.arange(4)
        assert np.max(np.abs(got - (2.0 - 1.0j) * np.exp(0.7j * x))) < 1e-14
        coeffs = np.array([1.0, -0.5, 0.25j])
        got = sw.chirp_synthesis(coeffs, -1.0, 0.3, 2.5, 1.0, 1)
        want = np.sum(coeffs * np.exp(1j * 2.5 * (-1.0 + 0.3 * np.arange(3))))
        assert abs(got[0] - want) < 1e-14

    def test_empty_input_rejected(self):
        with pytest.raises(NumericsError):
            sw.chirp_synthesis([], 0.0, 1.0, 0.0, 1.0, 5)
        with pytest.raises(NumericsError):
            sw.chirp_synthesis([1.0], 0.0, 1.0, 0.0, 1.0, 0)
        # a declared support that falls between two spectral nodes
        spec = sw.SpectrumOnBand(band=(-1.0, 1.0), grid=sw.Grid1D(-1.0, 1.0, 3),
                                 values=np.zeros(3), declared_support=((0.2, 0.4),))
        with pytest.raises(NumericsError):
            sw.synthesize(spec, self.X_GRID)


def _fresh_plan_store(monkeypatch, budget=None):
    """An empty Bluestein plan store admitting as the process's does, with
    its budget unless one is given (the process's store is restored after
    the test)."""
    kept = numerics._CHIRP_PLANS
    store = numerics.Kept(budget or kept.budget, from_second=kept.from_second)
    monkeypatch.setattr(numerics, "_CHIRP_PLANS", store)
    return store


@pytest.fixture
def fresh_plans(monkeypatch):
    """An empty Bluestein plan store for one test."""
    return _fresh_plan_store(monkeypatch)


def _kept_bytes(store):
    return sum(v.nbytes for v in list(store._values.values()))


def _random_coeffs(shape, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestChirpPlans:
    GEOMETRY = (-0.7, 0.05, 2.0, -0.3, 25)

    @pytest.mark.parametrize("shape", [(40,), (40, 3), (40, 3, 2)],
                             ids=["1-axis", "2-axis", "3-axis"])
    def test_kept_plan_gives_the_bits_of_a_fresh_one(self, fresh_plans, shape):
        coeffs = _random_coeffs(shape)
        fresh = sw.chirp_synthesis(coeffs, *self.GEOMETRY)
        assert not fresh_plans._values
        kept = sw.chirp_synthesis(coeffs, *self.GEOMETRY)  # second request keeps
        assert len(fresh_plans._values) == 1
        hit = sw.chirp_synthesis(coeffs, *self.GEOMETRY)
        assert len(fresh_plans._values) == 1
        assert fresh.shape == (25,) + shape[1:]
        np.testing.assert_array_equal(kept, fresh)
        np.testing.assert_array_equal(hit, fresh)

    def test_blocks_give_the_bits_of_one_block(self, fresh_plans, monkeypatch):
        # 361 columns padded to 1,050 entries run in blocks of 62 rows: 6 blocks
        coeffs = _random_coeffs((725, 361), seed=1)
        geometry = (-16.75, 0.046, -10.0, 0.0625, 321)
        blocked = sw.chirp_synthesis(coeffs, *geometry)
        assert 361 > numerics._FFT_BLOCK_ENTRIES // numerics.next_fast_len(1045)
        monkeypatch.setattr(numerics, "_FFT_BLOCK_ENTRIES", 2 ** 30)
        np.testing.assert_array_equal(blocked, sw.chirp_synthesis(coeffs, *geometry))
        alone = sw.chirp_synthesis(coeffs[:, 200], *geometry)
        np.testing.assert_array_equal(blocked[:, 200], alone)

    def test_plans_are_read_only_and_never_returned(self, fresh_plans):
        coeffs = _random_coeffs((40, 3))
        outs = [sw.chirp_synthesis(coeffs, *self.GEOMETRY) for _ in range(3)]
        (plan,) = fresh_plans._values.values()
        for array in plan:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0
            assert not any(np.shares_memory(out, array) for out in outs)

    def test_once_requested_geometry_keeps_nothing(self, fresh_plans):
        sw.chirp_synthesis(_random_coeffs((40,)), *self.GEOMETRY)
        assert not fresh_plans._values
        assert len(fresh_plans._noted) == 1

    def test_dense_table_build_keeps_nothing(self, ws, fresh_plans):
        from subexp_wavelets import construction

        ws._even_table("psi", 0, construction.TABLE_HALF,
                       construction.TABLE_SPACING,
                       construction._TABLE_BAND_POINTS)
        assert not fresh_plans._values

    def test_kept_bytes_stay_within_the_budget(self, monkeypatch):
        # one plan here is (40 + 25 + 64) * 16 = 2,064 bytes, under a quarter
        # of the budget; room for four
        store = _fresh_plan_store(monkeypatch, budget=8400)
        coeffs = _random_coeffs((40,))
        geometries = [(-0.7, 0.05, 2.0 + shift, -0.3, 25) for shift in range(6)]
        for g in geometries:
            for _ in range(2):
                sw.chirp_synthesis(coeffs, *g)
                assert _kept_bytes(store) <= 8400
        assert len(store._values) == 4
        # the least recently used go first: the last four geometries stay
        assert [key[2] for key in store._values] == [
            np.array(g[:4]).tobytes() for g in geometries[2:]]
        # a plan larger than a quarter of the budget is not kept, nor does
        # it evict
        kept = dict(store._values)
        big = _random_coeffs((400,))
        for _ in range(2):
            sw.chirp_synthesis(big, -0.7, 0.05, 2.0, -0.3, 250)
        assert store._values == kept

    def test_values_over_a_quarter_of_the_budget_are_not_kept(self):
        store = numerics.Kept(4000)
        small, large = np.zeros(125), np.zeros(126)  # 1,000 and 1,008 bytes
        assert store.get("small", lambda: small) is small
        assert store.get("large", lambda: large) is large
        assert list(store._values) == ["small"]

    def test_each_geometry_field_keys_its_own_plan(self, fresh_plans):
        coeffs = _random_coeffs((40,))
        base = (-0.7, 0.05, 0.0, -0.3, 25)
        variants = [base, (0.7,) + base[1:], base[:1] + (0.06,) + base[2:],
                    base[:2] + (-0.0,) + base[3:], base[:3] + (0.3, 25),
                    base[:4] + (26,)]
        fresh = [sw.chirp_synthesis(coeffs, *g) for g in variants]
        fresh.append(sw.chirp_synthesis(coeffs[:39], *base))
        for _ in range(2):  # keep, then hit
            got = [sw.chirp_synthesis(coeffs, *g) for g in variants]
            got.append(sw.chirp_synthesis(coeffs[:39], *base))
            for a, b in zip(got, fresh):
                np.testing.assert_array_equal(a, b)
        assert len(fresh_plans._values) == len(variants) + 1

    def test_threads_share_the_store_safely(self, fresh_plans, monkeypatch):
        # more threads than cores, a short switch interval and a budget of
        # about four plans, so keeps, hits and evictions interleave
        coeffs = _random_coeffs((40, 2))
        geometries = [(-0.7, 0.05, 2.0 + shift, -0.3, 25) for shift in range(8)]
        want = [sw.chirp_synthesis(coeffs, *g) for g in geometries]
        store = _fresh_plan_store(monkeypatch, budget=9000)
        errors, budget_breaches = [], []

        def work(seed):
            order = np.random.default_rng(seed).integers(0, 8, 200)
            try:
                for i in order:
                    if not np.array_equal(sw.chirp_synthesis(coeffs, *geometries[i]),
                                          want[i]):
                        errors.append(f"geometry {i} changed")
                    if _kept_bytes(store) > 9000:
                        budget_breaches.append(seed)
            except Exception as exc:  # reported below, with the thread's seed
                errors.append(f"thread {seed}: {exc!r}")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,)) for seed in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert not budget_breaches
        assert store._values

    def test_2d_projection_memory_is_bounded(self, ws, fresh_plans):
        # the level-2 projection on 321 x 321 points: measured peaks 13.4 MB
        # with the blocked transforms and 17.5 MB with one padded array of
        # 322 x 1,050 entries a transform
        g = sw.Grid1D.from_interval(-10.0, 10.0, 321)
        x = g.points()
        f = sw.SampledFunction((g, g), np.outer(np.exp(-x * x),
                                                np.exp(-0.5 * (x - 1.0) ** 2)))
        pk = sw.build_kernel(ws, level=2, dimension=2)
        for _ in range(2):  # with a fresh store, then with the kept plans
            tracemalloc.start()
            try:
                sw.project(pk, f)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 17.5 * 2 ** 20


def _three_exponential_plan(n, count, xi0, dxi, x0, dx):
    """A Bluestein plan with its pre-chirp, chirp and post-chirp each from
    its own exponential over its own lags: the oracle of ``_chirp_plan``,
    which forms one chirp array and shares it."""
    theta = dx * dxi
    j = np.arange(n)
    k = np.arange(count)
    size = numerics.next_fast_len(n + count - 1)
    pre = np.exp(1j * (x0 * dxi * j + 0.5 * theta * (j * j)))
    d = np.arange(-(n - 1), count)
    chirp = np.exp(-0.5j * theta * (d * d))
    row = np.zeros(size, dtype=complex)
    row[:count] = chirp[n - 1:]
    row[size - (n - 1):] = chirp[:n - 1]
    post = np.exp(1j * (xi0 * (x0 + dx * k) + 0.5 * theta * (k * k)))
    return pre, np.fft.fft(row), post


def _plan_geometries():
    """33 seeded geometries ``(n, count, xi0, dxi, x0, dx)``: x0 = 0 with
    xi0 = 0 and xi0 != 0, dx = -1, n > count, n < count, n = 1 and count =
    1."""
    rng = np.random.default_rng(49)
    out = []
    for case in range(33):
        n, count = (int(v) for v in rng.integers(2, 3000, 2))
        if case % 11 == 0:
            n = 1
        elif case % 11 == 1:
            count = 1
        elif case % 11 == 2:
            n, count = max(n, count) + 7, min(n, count)  # n > count
        elif case % 11 == 3:
            n, count = min(n, count), max(n, count) + 7  # n < count
        xi0 = 0.0 if case % 3 == 0 else float(rng.uniform(-5.0, 5.0))
        x0 = 0.0 if case % 2 == 0 else float(rng.uniform(-300.0, 300.0))
        dxi = float(rng.uniform(1e-4, 0.1))
        dx = -1.0 if case % 4 == 1 else float(rng.uniform(-0.5, 0.5))
        out.append((n, count, xi0, dxi, x0, dx))
    return out


class TestChirpPlanBits:
    """One chirp array serves every lag of the chirp and, at x0 = 0 or
    xi0 = 0, the pre- and post-chirp: each plan holds the bits of three
    exponentials over their own lags."""

    @pytest.mark.parametrize("geometry", _plan_geometries())
    def test_plan_holds_the_bits_of_three_exponentials(self, geometry):
        plan = numerics._chirp_plan(*geometry)
        for got, want in zip(plan, _three_exponential_plan(*geometry)):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_every_table_plan_holds_the_same_bits(self, ws, fresh_plans, monkeypatch):
        # the dense tables of psi and phi (x0 = 0, and xi0 = 0 on phi's band)
        # and the wide ones
        from subexp_wavelets import construction

        plan, geometries = numerics._chirp_plan, []
        monkeypatch.setattr(numerics, "_chirp_plan", lambda *g: (
            geometries.append(g) or plan(*g)))
        for which in ("psi", "phi"):
            ws._even_table(which, 0, construction.TABLE_HALF,
                           construction.TABLE_SPACING, construction._TABLE_BAND_POINTS)
            ws._even_table(which, 0, construction._WIDE_HALF,
                           construction._WIDE_SPACING, construction._WIDE_BAND_POINTS)
        assert len(geometries) == 4
        assert [g[2] == 0 for g in geometries] == [False, False, True, True]
        for g in geometries:
            for got, want in zip(plan(*g), _three_exponential_plan(*g)):
                assert got.tobytes() == want.tobytes()

    def test_geometries_cover_every_case(self):
        cases = _plan_geometries()
        assert len(cases) >= 30
        assert any(x0 == 0 and xi0 == 0 for _, _, xi0, _, x0, _ in cases)
        assert any(x0 == 0 and xi0 != 0 for _, _, xi0, _, x0, _ in cases)
        assert any(dx == -1 for *_, dx in cases)
        assert any(n > count for n, count, *_ in cases)
        assert any(n < count for n, count, *_ in cases)
        assert any(n == 1 for n, *_ in cases)
        assert any(count == 1 for _, count, *_ in cases)


class TestLagrangeInterpolant:
    GRID = sw.Grid1D(-1.5, 0.125, 41)

    @staticmethod
    def _samples(n, seed=5):
        return np.random.default_rng(seed).standard_normal(n)

    @pytest.mark.parametrize("grid", [
        sw.Grid1D(-264.0, 1.0 / 256, 135169), sw.Grid1D(-1.5, 0.125, 41),
        sw.Grid1D(-1.5, 0.125, 7), sw.Grid1D(0.3, 0.5, 2)], ids=lambda g: str(g.count))
    def test_reads_every_knot_bit_for_bit(self, grid):
        # the product-form weights are exactly 1 and 0 at a knot
        y = self._samples(grid.count)
        f = numerics.LagrangeInterpolant(grid, y)
        assert np.array_equal(f(grid.points()), y)
        assert f(grid.last) == y[-1] and f(grid.origin) == y[0]

    def test_holds_its_samples_only(self):
        y = self._samples(self.GRID.count)
        f = numerics.LagrangeInterpolant(self.GRID, y)
        assert f.values is y
        assert [v for v in vars(f).values() if isinstance(v, np.ndarray)] == [y]

    @pytest.mark.parametrize("degree", range(8))
    def test_reproduces_polynomials_on_every_interval(self, degree):
        # eight knots reproduce degree 7 exactly, the three end intervals on
        # each side too, where the stencil shifts inward
        x = self.GRID.points()
        coeffs = np.random.default_rng(degree).standard_normal(degree + 1)
        f = numerics.LagrangeInterpolant(self.GRID, np.polyval(coeffs, x))
        probes = (x[:-1, None] + self.GRID.spacing * np.array([0.1, 0.37, 0.5, 0.93])).ravel()
        want = np.polyval(coeffs, probes)
        assert np.max(np.abs(f(probes) - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("count", [2, 7])
    def test_fewer_knots_than_the_stencil_read_them_all(self, count):
        # the one polynomial through all the knots, of degree count - 1
        grid = sw.Grid1D(-1.5, 0.125, count)
        x = grid.points()
        coeffs = np.random.default_rng(count).standard_normal(count)
        f = numerics.LagrangeInterpolant(grid, np.polyval(coeffs, x))
        probes = np.linspace(x[0], x[-1], 101)
        want = np.polyval(coeffs, probes)
        assert np.max(np.abs(f(probes) - want)) <= 1e-12 * np.max(np.abs(want))

    def test_zero_outside_the_knots_and_at_nan(self):
        f = numerics.LagrangeInterpolant(self.GRID, self._samples(self.GRID.count))
        lo, hi = self.GRID.origin, self.GRID.last
        x = np.array([-np.inf, -1e300, lo - 10.0, np.nextafter(lo, -np.inf),
                      np.nextafter(hi, np.inf), hi + 0.01, hi + 1e9, np.inf, np.nan])
        assert np.all(f(x) == 0.0)
        assert f(hi + 1.0) == 0.0 and isinstance(f(hi + 1.0), float)

    @pytest.mark.parametrize("seed", range(4))
    def test_blocked_evaluation_is_bit_identical(self, seed, monkeypatch):
        f = numerics.LagrangeInterpolant(self.GRID, self._samples(self.GRID.count))
        x = np.random.default_rng(seed).uniform(-2.0, 4.0, (3, 2 ** 16 + 5))
        lo, hi = self.GRID.origin, self.GRID.last
        x[0, :7] = np.nan, -np.inf, np.inf, -1e300, 1e300, lo, hi
        blocked = f(x)
        monkeypatch.setattr(numerics, "_INTERPOLANT_BLOCK", x.size)
        np.testing.assert_array_equal(blocked, f(x))
        assert blocked.shape == x.shape

    def test_blocked_evaluation_bounds_its_temporaries(self):
        # in one block, the temporaries of 2^20 points take about 170 MiB
        f = numerics.LagrangeInterpolant(self.GRID, self._samples(self.GRID.count))
        x = np.linspace(-2.0, 4.0, 2 ** 20)
        tracemalloc.start()
        try:
            f(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20


def _eleven_smooth(m, primes=(2, 3, 5, 7, 11)):
    for p in primes:
        while m % p == 0:
            m //= p
    return m == 1


def test_next_fast_len_is_the_least_eleven_smooth_size():
    for n in range(1, 5001):
        want = next(m for m in range(n, 2 * n + 1) if _eleven_smooth(m))
        assert numerics.next_fast_len(n) == want, n


def test_next_fast_len_takes_its_odd_primes():
    for n in range(1, 3001):
        want = next(m for m in range(n, 2 * n + 1) if _eleven_smooth(m, (2, 3, 5)))
        assert numerics.next_fast_len(n, (3, 5)) == want, n


class TestRealDft:
    """``real_dft`` and ``real_dft_sum`` against the DFT sums they stand for,
    written out as matrices whose phases are reduced in integers."""

    @staticmethod
    def _matrix(size, rows, cols, sign):
        turns = np.outer(np.arange(rows), np.arange(cols)) % size
        return np.exp(sign * 2j * np.pi * turns / size)

    @pytest.mark.parametrize("size, count", [(64, 20), (64, 33), (64, 50), (63, 50), (45, 45)],
                             ids=["low-bins", "to-nyquist", "past-nyquist", "odd", "all-bins"])
    @pytest.mark.parametrize("shape", [(40,), (40, 3), (40, 3, 2)],
                             ids=["1-axis", "2-axis", "3-axis"])
    def test_bins_and_sums_match_the_dft(self, size, count, shape):
        rng = np.random.default_rng(size + count)
        values = rng.standard_normal(shape)
        rows = values.reshape(shape[0], -1)
        got = numerics.real_dft(values, size, count)
        want = self._matrix(size, count, shape[0], -1) @ rows
        assert got.shape == (count,) + shape[1:]
        assert np.abs(got.reshape(count, -1) - want).max() < 1e-13
        coeffs = _random_coeffs((count,) + shape[1:])
        got = numerics.real_dft_sum(coeffs, size, shape[0])
        want = (self._matrix(size, shape[0], count, 1) @ coeffs.reshape(count, -1)).real
        assert got.shape == shape and got.dtype == np.float64
        assert np.abs(got.reshape(shape[0], -1) - want).max() < 1e-13

    @pytest.mark.parametrize("size, terms", [(16, 50), (15, 31), (16, 32)],
                             ids=["even", "odd", "whole-turns"])
    def test_sums_fold_terms_past_the_length(self, size, terms):
        # term k is the root of unity of k mod size
        coeffs = _random_coeffs((terms, 3))
        got = numerics.real_dft_sum(coeffs, size, size - 2)
        want = (self._matrix(size, size - 2, terms, 1) @ coeffs).real
        assert np.abs(got - want).max() < 1e-13

    def test_blocks_give_each_column_its_own_bits(self, monkeypatch):
        # 5 columns in blocks of 2: every column as it would be alone
        values = np.random.default_rng(3).standard_normal((40, 5))
        monkeypatch.setattr(numerics, "_FFT_BLOCK_ENTRIES", 2 * 64)
        bins = numerics.real_dft(values, 64, 50)
        sums = numerics.real_dft_sum(bins, 64, 40)
        for j in range(5):
            np.testing.assert_array_equal(bins[:, j], numerics.real_dft(values[:, j], 64, 50))
            np.testing.assert_array_equal(sums[:, j], numerics.real_dft_sum(bins[:, j], 64, 40))
