"""Projection kernels, projections, reproduction and their certificates.

The library projects on the Fourier side, from the analytic |phi_hat|.  Its
independent reference here is the lattice sum ``q_m(x, y) = 2^m sum_k
phi(2^m x - k) phi(2^m y - k)`` over the phi table (``_lattice_kernel``,
``_project_at``), which no command reads.
"""

import copy
import tracemalloc
import warnings
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest

import subexp_wavelets as sw
from subexp_wavelets import construction, metrics, numerics, projection
from subexp_wavelets.projection import ProjectionError
from subexp_wavelets.testfuncs import gaussian, gevrey_band, sample


@pytest.fixture(scope="module")
def pk(ws):
    return sw.build_kernel(ws)


@pytest.fixture(scope="module", params=[1.5, 2.0, 2.5], ids=lambda r: f"rho2={r}")
def order_kernel(request, ws):
    """The level-0 kernel of the a = 1 system at each of three Gevrey orders."""
    rho2 = request.param
    return sw.build_kernel(ws if rho2 == 2.0 else sw.build_wavelet_system(1.0, rho2))


def _decay_profile(pk):
    """(u, sup_x |q_0(x, x + u)|), the rows ``kernel_decay_certificate`` fits."""
    seen = []
    fit = metrics.subexp_decay_fit
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "subexp_decay_fit",
                   lambda samples, *a, **k: seen.append(samples) or fit(samples, *a, **k))
        sw.kernel_decay_certificate(pk)
    return seen[0].T


def _lattice_kernel(pk, x, y):
    """q_m(x, y) of a 1-D kernel by the lattice sum over the phi table, on
    coordinates that broadcast; terms beyond the truncation radius of both
    points are dropped (``pk.tail_bound`` bounds them)."""
    scale = 2.0 ** pk.level
    su, sv = (scale * np.asarray(p, dtype=float) for p in np.broadcast_arrays(x, y))
    K = pk.truncation_radius
    assert np.max(np.abs(su - sv), initial=0.0) + K <= construction.TABLE_HALF
    phi = pk.ws.interpolator("phi")
    out = np.zeros_like(su)
    lo = int(np.floor(min(su.min(), sv.min()))) - K
    for k in range(lo, int(np.ceil(max(su.max(), sv.max()))) + K + 1):
        near = (np.abs(su - k) <= K) | (np.abs(sv - k) <= K)
        if np.any(near):
            out[near] += phi(su[near] - k) * phi(sv[near] - k)
    return scale * out


def _project_at(pk, f, x_points):
    """``int f(y) q_m(x, y) dy`` at ``x_points`` by the lattice sum, for 1-D samples."""
    (grid,) = f.grids
    y = grid.points()
    fw = f.values * grid.trapezoid_weights()
    return np.array([fw @ _lattice_kernel(pk, xp, y) for xp in x_points])


def _lattice_rows(pk, probe_count, u):
    """q_0(x_p, x_p + u) from the lattice sum, one row per probe x_p = p / probe_count."""
    xs = np.arange(probe_count) / probe_count
    return _lattice_kernel(pk, xs[:, None], xs[:, None] + u)


@pytest.fixture(scope="module")
def gaussian_samples():
    grid = sw.Grid1D.from_interval(-12.0, 12.0, 1537)
    return sample(gaussian(), grid)


class TestKernelConstruction:
    def test_truncation_radius_regression(self, pk):
        assert pk.truncation_radius == 66
        assert pk.tail_bound < 1e-12

    def test_tail_bound_covers_dropped_terms(self, ws, pk):
        x = np.arange(64) / 64.0
        ks = np.arange(-200, 201)  # q_0(x, x) summed over |k| <= 200
        full = np.sum(ws.atom_values(0, 0, ks[:, None], x) ** 2, axis=0)
        dropped = _lattice_kernel(pk, x, x) - full
        assert np.max(np.abs(dropped)) <= pk.tail_bound

    def test_heavier_tail_raises_radius_and_margin(self, ws):
        grid, vals = ws.wide_table("phi")
        tampered = np.where(np.abs(grid.points()) > 40.0, 10.0 * vals, vals)
        heavy = SimpleNamespace(_fits={}, rho2=2.0,
                                wide_table=lambda which: (grid, tampered))
        _, K, margin = projection._phi_tail(ws)
        _, heavy_K, heavy_margin = projection._phi_tail(heavy)
        assert heavy_K > K and heavy_margin > margin
        assert sw.build_kernel(heavy).truncation_radius == heavy_K
        flat = SimpleNamespace(_fits={}, rho2=2.5,
                               wide_table=lambda which: (grid, np.ones_like(vals)))
        with pytest.raises(projection.PhiTailError, match="rho2 = 2.5: .*tail stays above"):
            projection._phi_tail(flat)

    def test_dimension_validated(self, ws):
        with pytest.raises(ProjectionError):
            sw.build_kernel(ws, dimension=0)

    @pytest.mark.parametrize("level", [0.5, 1.0, "1", None])
    def test_level_validated(self, ws, level):
        # level 0.5 used to build a kernel of no q_m; "1" and None failed
        # later, inside numpy
        with pytest.raises(ProjectionError, match="level must be an integer"):
            sw.build_kernel(ws, level=level)

    def test_numpy_integer_level_accepted(self, ws, pk):
        pk1 = sw.build_kernel(ws, level=np.int64(1))
        x = np.array([0.1, 0.3])
        assert np.array_equal(_lattice_kernel(pk1, x, x),
                              _lattice_kernel(sw.build_kernel(ws, level=1), x, x))


class TestKernelEvaluation:
    """Properties of q_m that the lattice-sum reference must have."""

    def test_symmetry(self, pk):
        x = np.linspace(-1.3, 1.7, 11)
        y = np.linspace(-0.9, 2.1, 11)
        assert np.max(np.abs(_lattice_kernel(pk, x, y)
                             - _lattice_kernel(pk, y, x))) < 1e-13

    def test_level_scaling_identity(self, ws, pk):
        # q_m(x, y) = 2^m q_0(2^m x, 2^m y), here at m = 1
        pk1 = sw.build_kernel(ws, level=1)
        x = np.linspace(-1.3, 1.7, 11)
        y = np.linspace(-0.9, 2.1, 11)
        got = _lattice_kernel(pk1, x, y)
        want = 2.0 * _lattice_kernel(pk, 2 * x, 2 * y)
        assert np.max(np.abs(got - want)) < 1e-13

    def test_integer_shift_invariance(self, pk):
        x = np.linspace(-0.4, 0.9, 7)
        y = x + 0.3
        assert np.max(np.abs(_lattice_kernel(pk, x + 1.0, y + 1.0)
                             - _lattice_kernel(pk, x, y))) < 1e-12


class TestProjection:
    def test_coefficient_and_kernel_routes_agree(self, pk, gaussian_samples):
        proj = sw.project(pk, gaussian_samples)
        (grid,) = proj.grids
        probes = np.arange(-4.0, 4.01, 0.5)  # on grid points: no interpolation
        spot = _project_at(pk, gaussian_samples, probes)
        on_grid = proj.values.real[grid.index_of(probes)]
        assert np.max(np.abs(spot.real - on_grid)) < 1e-10

    def test_idempotent_away_from_window_edge(self, pk, gaussian_samples):
        # projecting twice only differs through window truncation: the
        # projection's subexponential tail is cut at the grid edge, so the
        # comparison is restricted to the interior
        once = sw.project(pk, gaussian_samples)
        twice = sw.project(pk, once)
        (grid,) = once.grids
        inner = np.abs(grid.points()) <= 6.0
        assert np.max(np.abs((twice.values - once.values)[inner])) < 1e-5

    def test_window_too_small_for_level(self, ws):
        pk = sw.build_kernel(ws, level=-4)
        grid = sw.Grid1D.from_interval(-2.0, 2.0, 257)
        f = sample(gaussian(), grid)
        with pytest.raises(ProjectionError, match="window too small"):
            sw.project(pk, f)

    def test_deep_level_rejected_before_allocating(self, ws, gaussian_samples):
        pk = sw.build_kernel(ws, level=40)
        tracemalloc.start()
        try:
            with pytest.raises(ProjectionError, match="shifts"):
                sw.project(pk, gaussian_samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_absurd_level_rejected_before_any_overflow(self, ws, gaussian_samples):
        # 2^2000 overflows a double: the level must be refused before ldexp
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ProjectionError, match="shifts"):
                sw.project(sw.build_kernel(ws, level=2000), gaussian_samples)

    def test_level_beyond_the_grid_alias_refused(self, ws, gaussian_samples):
        # spacing 1/64: 2^6 * 4 pi / 3 ~ 268 stays below 2 pi / h ~ 402, and
        # 2^7 * 4 pi / 3 ~ 536 reaches it
        sw.project(sw.build_kernel(ws, level=6), gaussian_samples)
        with pytest.raises(projection.UnresolvedLevelError, match="level 7 aliases"):
            sw.project(sw.build_kernel(ws, level=7), gaussian_samples)

    def test_node_guard_counts_the_half_nodes(self, ws):
        # level 13 on [-50, 50]: 819,200 shifts, and 546,751 nodes eta >= 0,
        # within _MAX_NODES though the full set (twice that, less one) is not
        grid = sw.Grid1D(-50.0, 100.0 / 2 ** 20, 2 ** 20 + 1)
        L, eta, size = projection._eta_nodes(sw.build_kernel(ws, level=13), grid)
        assert eta.count == -(-2 * L // 3) + 1
        assert eta.count <= projection._MAX_NODES < 2 * eta.count - 1

    def test_too_many_half_nodes_refused_before_allocating(self, ws):
        # a probe at 150 stretches the span to 2^13 * 200: 1.09e6 nodes
        grid = sw.Grid1D(-50.0, 100.0 / 2 ** 20, 2 ** 20 + 1)
        pk = sw.build_kernel(ws, level=13)
        projection._phi_tail(ws)  # kept beside the tables, as after any projection
        tracemalloc.start()
        try:
            with pytest.raises(projection.UnresolvedLevelError,
                               match=r"needs 1\.09e\+06 eta nodes"):
                projection._eta_nodes(pk, grid, np.array([150.0]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_kernel_and_samples_must_share_dimension(self, ws, gaussian_samples):
        with pytest.raises(ProjectionError, match="dimension"):
            sw.project(sw.build_kernel(ws, dimension=2), gaussian_samples)

    def test_separable_2d_projection(self, ws):
        from subexp_wavelets.testfuncs import sample_2d
        pk2 = sw.build_kernel(ws, dimension=2)
        g = sw.Grid1D.from_interval(-8.0, 8.0, 513)
        f2 = sample_2d(gaussian(), gaussian(scale=1.5), g, g)
        proj = sw.project(pk2, f2)
        mid = g.count // 2
        # level-0 error of the 1-D factors bounds the product error loosely
        assert abs(proj.values[mid, mid] - f2.values[mid, mid]) < 0.05
        assert proj.values.shape == (513, 513)

    def test_2d_projection_on_unequal_axes(self, ws):
        # distinct grids per axis, so swapping the x and y atom blocks fails
        from subexp_wavelets.testfuncs import sample_2d
        fx, fy = gaussian(), gaussian(0.4, 1.2)
        gx = sw.Grid1D.from_interval(-8.0, 8.0, 257)
        gy = sw.Grid1D.from_interval(-6.0, 7.0, 193)
        proj = sw.project(sw.build_kernel(ws, level=1, dimension=2),
                          sample_2d(fx, fy, gx, gy))
        pk1 = sw.build_kernel(ws, level=1)
        want = np.outer(sw.project(pk1, sample(fx, gx)).values,
                        sw.project(pk1, sample(fy, gy)).values)
        assert proj.values.shape == (257, 193)
        assert np.max(np.abs(proj.values - want)) < 1e-12 * np.max(np.abs(want))

    def test_3d_projection_is_the_outer_product(self, ws):
        # three distinct grids, so a pass along the wrong axis fails
        from subexp_wavelets.testfuncs import sample_2d
        fns = (gaussian(), gaussian(0.4, 1.2), gaussian(-0.5, 0.9))
        grids = (sw.Grid1D.from_interval(-8.0, 8.0, 65),
                 sw.Grid1D.from_interval(-6.0, 7.0, 53),
                 sw.Grid1D.from_interval(-7.0, 9.0, 41))
        f12 = sample_2d(fns[0], fns[1], grids[0], grids[1]).values
        f3 = sample(fns[2], grids[2]).values
        f = sw.SampledFunction(grids, f12[:, :, None] * f3)
        proj = sw.project(sw.build_kernel(ws, level=1, dimension=3), f)
        pk1 = sw.build_kernel(ws, level=1)
        want = np.einsum("i,j,k->ijk", *(
            sw.project(pk1, sample(fn, g)).values for fn, g in zip(fns, grids)))
        assert proj.values.shape == (65, 53, 41)
        assert np.max(np.abs(proj.values - want)) < 1e-10 * np.max(np.abs(want))

    def test_routes_disagree_on_a_scaled_phi_table(self, ws, pk, gaussian_samples):
        # project reads the analytic phi_hat and _project_at the interpolant of the
        # phi table, so a table scaled by 1.01 must break their agreement
        table = ws.interpolator

        def scaled(which, order=0):
            f = table(which, order)
            return (lambda x: 1.01 * f(x)) if which == "phi" else f

        ws.interpolator = scaled
        try:
            proj = sw.project(pk, gaussian_samples)
            probes = np.arange(-4.0, 4.01, 0.5)
            spot = _project_at(pk, gaussian_samples, probes)
        finally:
            del ws.interpolator
        (grid,) = proj.grids
        on_grid = proj.values.real[grid.index_of(probes)]
        assert np.max(np.abs(spot.real - on_grid)) > 1e-10


def _fresh(ws, budget=None):
    """``ws`` with an empty block store: it shares the tables, not the kept values."""
    system = copy.copy(ws)
    system._blocks = numerics.Kept(budget or ws._blocks.budget)
    return system


def _projectors(system):
    return [key for key in system._blocks._values if key[0] == "projector"]


class TestRealRoute:
    """Every array the transforms see is real: samples carry their parts
    (``numerics.split_parts``), one for samples whose imaginary part is
    exactly zero, which project to an imaginary part that is exactly 0, and
    two for complex samples ``f + i g``.  Each part takes the route it would
    take alone, so on a 1-D grid ``f + i g`` gives the results of f and g
    combined bit for bit.  The kept matrix is one BLAS product over all
    columns: there the parts agree to 1e-14."""

    GRID = sw.Grid1D.from_interval(-12.0, 12.0, 385)  # resolves levels up to 4
    LEVELS = (0, 2, 4)

    def _parts(self, grid=GRID):
        x = grid.points()
        return gaussian(0.3, 1.4)(x), gaussian(-1.1, 0.8)(x) * np.sin(x)

    def test_complex_samples_project_as_their_parts(self, ws):
        f, g = self._parts()
        for m in self.LEVELS:
            pk = sw.build_kernel(ws, level=m)
            qf, qg = (sw.project(pk, sw.SampledFunction(self.GRID, v)).values
                      for v in (f, g))
            assert not qf.imag.any() and not qg.imag.any()
            got = sw.project(pk, sw.SampledFunction(self.GRID, f + 1j * g)).values
            np.testing.assert_array_equal(got.real, qf.real)
            np.testing.assert_array_equal(got.imag, qg.real)

    def test_2d_complex_samples_off_the_kept_matrix(self, ws):
        # both axes longer than 724 points: every pass takes the spectrum
        # route, with the parts axis last; against the outer product of 1-D
        # projections at the 2-D tests' 1e-12
        gx = sw.Grid1D.from_interval(-12.5, 12.5, 801)
        gy = sw.Grid1D.from_interval(-12.0, 12.0, 769)
        (f, g), h = self._parts(gx), gaussian(0.4, 1.2)(gy.points())
        system = _fresh(ws)
        pk2 = sw.build_kernel(system, level=1, dimension=2)
        qf, qg = (sw.project(pk2, sw.SampledFunction((gx, gy), np.outer(v, h))).values
                  for v in (f, g))
        got = sw.project(pk2, sw.SampledFunction((gx, gy), np.outer(f + 1j * g, h))).values
        assert _projectors(system) == []
        assert got.shape == (801, 769)
        np.testing.assert_array_equal(got.real, qf.real)
        np.testing.assert_array_equal(got.imag, qg.real)
        pk1 = sw.build_kernel(system, level=1)
        want = np.outer(sw.project(pk1, sw.SampledFunction(gx, f + 1j * g)).values,
                        sw.project(pk1, sw.SampledFunction(gy, h)).values)
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))

    def test_complex_samples_take_the_kept_matrix_as_their_parts(self, ws):
        grid = sw.Grid1D.from_interval(-8.0, 8.0, 129)
        (f, g), h = self._parts(grid), gaussian(0.4, 1.2)(grid.points())
        system = _fresh(ws)
        pk2 = sw.build_kernel(system, level=1, dimension=2)
        qf, qg = (sw.project(pk2, sw.SampledFunction((grid, grid), np.outer(v, h))).values
                  for v in (f, g))
        assert len(_projectors(system)) == 1
        assert not qf.imag.any() and not qg.imag.any()
        got = sw.project(pk2, sw.SampledFunction((grid, grid), np.outer(f + 1j * g, h)))
        assert np.abs(got.values - (qf + 1j * qg)).max() <= 1e-14 * np.abs(qf).max()

    def test_mra_rows_of_complex_samples_combine_their_parts(self, ws, monkeypatch):
        # the rows' sup errors, and the derivatives each row's seminorm reads
        f, g = self._parts()
        params = sw.SeminormParams(rho1=0.0, rho2=2.0, h=0.5, c=0.5, max_beta=2)
        estimate, seen = metrics.seminorm_estimate, []
        monkeypatch.setattr(metrics, "seminorm_estimate",
                            lambda d, *a: seen.append(d) or estimate(d, *a))
        runs = {}
        for name, v in (("f", f), ("g", g), ("f + ig", f + 1j * g)):
            seen.clear()
            rows = sw.mra_convergence_experiment(ws, sw.SampledFunction(self.GRID, v),
                                                 self.LEVELS, params)
            runs[name] = rows, list(seen)
        for i, m in enumerate(self.LEVELS):
            qf, qg = (sw.project(sw.build_kernel(ws, level=m),
                                 sw.SampledFunction(self.GRID, v)).values.real for v in (f, g))
            error = np.abs((qf - f) + 1j * (qg - g)).max()
            assert runs["f + ig"][0][i]["sup_error"] == error
            df, dg, got = (runs[name][1][i] for name in ("f", "g", "f + ig"))
            assert not df.imag.any() and not dg.imag.any()
            np.testing.assert_array_equal(got.real, df.real)
            np.testing.assert_array_equal(got.imag, dg.real)


class TestKeptProjector:
    """q_m along an axis of a small grid as a kept matrix (``_projector``)."""

    GRID = sw.Grid1D.from_interval(-8.0, 8.0, 129)

    @pytest.fixture
    def chirps(self, ws, monkeypatch):
        """The transforms of both routes from here on (chirp-z sums, and the
        real DFTs and their sums), after ``ws`` has built its wide phi table
        (``_phi_tail``), which its copies share."""
        projection._phi_tail(ws)
        calls = []
        for name in ("chirp_synthesis", "real_dft", "real_dft_sum"):
            engine = getattr(numerics, name)
            monkeypatch.setattr(numerics, name, lambda *args, engine=engine: (
                calls.append(args) or engine(*args)))
        return calls

    def _square(self, grid=GRID):
        from subexp_wavelets.testfuncs import sample_2d
        return sample_2d(gaussian(), gaussian(0.4, 1.2), grid, grid)

    def test_square_call_builds_once_and_repeats_take_no_chirp(self, ws, chirps):
        system = _fresh(ws)
        pk2 = sw.build_kernel(system, level=1, dimension=2)
        first = sw.project(pk2, self._square())
        assert len(chirps) == 2  # one build: both axes share the grid and level
        assert len(_projectors(system)) == 1
        (q,) = (system._blocks._values[key] for key in _projectors(system))
        assert q.dtype == np.float64 and q.flags.c_contiguous
        assert q.nbytes == 8 * self.GRID.count ** 2
        again = sw.project(pk2, self._square())
        assert len(chirps) == 2
        np.testing.assert_array_equal(again.values, first.values)

    def test_one_dimensional_call_keeps_no_projector(self, ws, chirps):
        system = _fresh(ws)
        sw.project(sw.build_kernel(system, level=1), sample(gaussian(), self.GRID))
        assert len(chirps) == 2
        assert [key[0] for key in system._blocks._values] == ["modulus"]

    def test_grid_over_the_cap_never_builds(self, ws, chirps, monkeypatch):
        # a matrix of 16 n^2 bytes is built only where the store keeps it
        store = _fresh(ws)._blocks
        assert store.fits(16 * 724 ** 2) and not store.fits(16 * 725 ** 2)
        project_1d, builds_seen = projection._project_1d, []
        monkeypatch.setattr(projection, "_project_1d", lambda pk, grid, values, *a: (
            builds_seen.append(np.array_equal(values, np.eye(grid.count)))
            or project_1d(pk, grid, values, *a)))
        for n, builds in ((65, True), (66, False)):
            system = _fresh(ws, budget=64 * 65 ** 2)
            chirps.clear()
            builds_seen.clear()
            grid = sw.Grid1D.from_interval(-8.0, 8.0, n)
            sw.project(sw.build_kernel(system, level=1, dimension=2), self._square(grid))
            assert len(chirps) == (2 if builds else 4)
            assert builds_seen == ([True] if builds else [False, False])
            assert len(_projectors(system)) == builds

    def test_kept_matrix_matches_both_routes(self, ws, chirps):
        # q_m is separable: the 2-D projection by the kept matrix is the
        # outer product of the 1-D projections, which take the chirp route
        grid = sw.Grid1D.from_interval(-12.0, 12.0, 385)
        fx, fy = gaussian(), gaussian(0.4, 1.2)
        system = _fresh(ws)
        pk = sw.build_kernel(system)
        kept = sw.project(sw.build_kernel(system, dimension=2),
                          self._square(grid)).values
        assert len(_projectors(system)) == 1
        chirps.clear()
        qx, qy = (sw.project(pk, sample(f, grid)).values for f in (fx, fy))
        assert len(chirps) == 4  # not the kept matrix
        chirp = np.outer(qx, qy)
        assert np.max(np.abs(kept - chirp)) < 1e-14 * np.max(np.abs(chirp))
        assert np.all(kept.imag == 0.0)  # a real matrix on real samples
        probes = np.arange(-4.0, 4.01, 0.5)  # on grid points
        spot = np.outer(*(_project_at(pk, sample(f, grid), probes) for f in (fx, fy)))
        on_grid = kept[np.ix_(grid.index_of(probes), grid.index_of(probes))]
        assert np.max(np.abs(spot - on_grid)) < 1e-10

    def test_kept_matrix_projects_complex_samples(self, ws):
        # real and imaginary parts go through the one real product; against
        # the outer product of 1-D projections, whose parts take the DFT
        # route, the gap measured 1.1e-15 to 1.3e-15 max|q f| at one and two
        # BLAS threads
        from subexp_wavelets.testfuncs import gevrey_band
        grid = sw.Grid1D.from_interval(-12.0, 12.0, 385)
        fa, fb, fc = (sample(f, grid).values for f in (
            gevrey_band(np.pi, 2 * np.pi), gevrey_band(0.5 * np.pi, 1.5 * np.pi, rho=3.0),
            gevrey_band(0.25 * np.pi, np.pi)))
        fx = fa + 1j * fb
        system = _fresh(ws)
        pk = sw.build_kernel(system)
        kept = sw.project(sw.build_kernel(system, dimension=2),
                          sw.SampledFunction((grid, grid), np.outer(fx, fc))).values
        assert len(_projectors(system)) == 1
        want = np.outer(*(sw.project(pk, sw.SampledFunction(grid, f)).values
                          for f in (fx, fc)))
        assert np.max(np.abs(kept - want)) < 1e-14 * np.max(np.abs(want))

    def test_replaced_modulus_misses_the_kept_matrix(self, ws, monkeypatch):
        system = _fresh(ws)
        pk2 = sw.build_kernel(system, level=1, dimension=2)
        before = sw.project(pk2, self._square()).values
        modulus = projection.scaling_modulus
        monkeypatch.setattr(projection, "scaling_modulus",
                            lambda bell, xi: 0.5 * modulus(bell, xi))
        after = sw.project(pk2, self._square()).values
        np.testing.assert_allclose(after, before / 16.0, atol=1e-15)

    def test_kept_modulus_gives_the_same_bits(self, ws, monkeypatch):
        system = _fresh(ws)
        modulus, calls = projection.scaling_modulus, []
        monkeypatch.setattr(projection, "scaling_modulus",
                            lambda bell, xi: calls.append(xi) or modulus(bell, xi))
        pk, f = sw.build_kernel(system, level=2), sample(gaussian(), self.GRID)
        first = sw.project(pk, f).values
        np.testing.assert_array_equal(sw.project(pk, f).values, first)
        assert len(calls) == 1

    def test_refused_level_allocates_no_identity(self, ws):
        grid = sw.Grid1D.from_interval(-8.0, 8.0, 513)  # its identity is 2 MB
        f = self._square(grid)
        pk = sw.build_kernel(_fresh(ws), level=40, dimension=2)
        tracemalloc.start()
        try:
            with pytest.raises(ProjectionError, match="shifts"):
                sw.project(pk, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def _as_spectrum(spectrum, part):
    """Part ``part`` of a ``_project_1d`` spectrum, mirrored from its nodes
    zeta >= 0 onto all by ``Q(-zeta) = conj Q(zeta)``, as one
    ``numerics.synthesize_values`` reads."""
    zeta, qhat = spectrum.zeta, spectrum.values[:, part]
    nodes = sw.Grid1D(-zeta.last, zeta.spacing, 2 * zeta.count - 1)
    band = (nodes.origin, nodes.last)
    return sw.SpectrumOnBand(band=band, grid=nodes,
                             values=np.concatenate([np.conj(qhat[:0:-1]), qhat]),
                             declared_support=(band,))


class TestChirpRoute:
    """The multiplier route of ``_project_1d`` against table atom blocks.

    Every test runs on a real input, one real column, and on a complex one,
    whose real and imaginary parts are two (``numerics.split_parts``); each
    column's spectrum is a Hermitian half.  On the session's MRA grid
    every ``2^m x_j - k`` is a node of the phi table, so ``atom_values``
    reads exact table values there.  The oracle is ``sum_k <f, phi_{m,k}>
    phi_{m,k}`` over the shifts within the truncation radius of the window,
    the coefficients ``A @ fw`` of the atom block ``A``.
    """

    GRID = sw.Grid1D.from_interval(-40.0, 40.0, 5121)
    LEVELS = range(7)
    KINDS = ("real", "complex")
    COLUMNS = {"real": [0], "complex": [1, 2]}  # each kind's parts in the oracle

    @pytest.fixture(scope="class")
    def inputs(self):
        """Real samples, and complex samples ``f + i g``, as their parts."""
        f, g = (sample(fn, self.GRID).values.real
                for fn in (gaussian(0.3, 1.4), gaussian(-1.1, 0.8)))
        return {"real": numerics.split_parts(f),
                "complex": numerics.split_parts(f + 1j * g * np.sin(self.GRID.points()))}

    @pytest.fixture(scope="class")
    def routes(self, ws, inputs):
        probes = np.sort(np.random.default_rng(11).uniform(-8.0, 8.0, 40))
        out = {}
        for kind, m in product(self.KINDS, self.LEVELS):
            pk = sw.build_kernel(ws, level=m)
            out[kind, m] = projection._project_1d(pk, self.GRID, inputs[kind], probes)
        return probes, out

    def _atom_coefficients(self, ws, m, values):
        """(ks, A @ fw) over the shifts within the truncation radius of the
        window, for ``values`` with one input a column, in blocks of 512 rows
        (a full block at m = 6 is 27 million table reads)."""
        K = sw.build_kernel(ws).truncation_radius
        ks = np.arange(np.floor(2.0 ** m * self.GRID.origin) - K,
                       np.ceil(2.0 ** m * self.GRID.last) + K + 1)
        x = self.GRID.points()
        fw = values * self.GRID.trapezoid_weights()[:, None]
        coeffs = np.concatenate([ws.atom_values(0, m, block[:, None], x) @ fw
                                 for block in np.array_split(ks, -(-ks.size // 512))])
        return ks, coeffs

    @pytest.fixture(scope="class")
    def oracle(self, ws, inputs):
        """m -> (ks, coefficients), one column per part (``COLUMNS``)."""
        values = np.column_stack([inputs[kind] for kind in self.KINDS])
        return {m: self._atom_coefficients(ws, m, values) for m in self.LEVELS}

    def test_weighted_transform_matches_direct_sum(self, inputs, routes):
        # every node of every level, relative to sum |w_j f_j|, the bound on
        # |F| (measured: up to 5.9e-14 at m = 6, 3,751 nodes)
        _, out = routes
        for kind, m in product(self.KINDS, self.LEVELS):
            zeta = out[kind, m].zeta
            got = projection._weighted_transform(self.GRID, inputs[kind], zeta)
            for part, values in enumerate(inputs[kind].T):
                f = sw.SampledFunction(self.GRID, values)
                scale = np.sum(np.abs(values) * self.GRID.trapezoid_weights())
                want = sw.forward_transform_values(f, -zeta.points())
                assert np.max(np.abs(got[:, part] - want)) < 1e-13 * scale

    def test_coefficients_and_projection_match_atom_blocks(self, ws, routes, oracle):
        # every 8th grid point against the sum over all shifts
        x = self.GRID.points()[::8]
        _, out = routes
        for kind, m in product(self.KINDS, self.LEVELS):
            ks, coeffs = oracle[m]
            got = projection._on_grid(out[kind, m], self.GRID)[::8]
            want = coeffs[:, self.COLUMNS[kind]].T @ ws.atom_values(0, m, ks[:, None], x)
            assert np.max(np.abs(got - want.T)) < 1e-11

    def test_edge_mass_projection_matches_atom_blocks(self, ws):
        # the eta nodes alias phi from far out onto the reads, and mass at
        # the window edges meets it: the echo of a linearly interpolated bump
        # primitive (1.5e-10 near |x| = 51,472) gives 4.1e-12 here, the C^1
        # primitive 4.1e-13
        x = self.GRID.points()
        f = gaussian(37.0)(x) + gaussian(-36.5, 0.8)(x)
        # f, then the parts of f + i g
        values = np.column_stack([f, f, gaussian(-37.5, 0.9)(x)])
        ks, coeffs = self._atom_coefficients(ws, 0, values)
        pk = sw.build_kernel(ws)
        for columns in self.COLUMNS.values():
            got = projection._on_grid(projection._project_1d(pk, self.GRID, values[:, columns]),
                                      self.GRID)
            want = coeffs[:, columns].T @ ws.atom_values(0, 0, ks[:, None], x)
            assert np.max(np.abs(got - want.T)) < 1e-12

    def test_spectrum_derivatives_match_atom_sums(self, ws, routes, oracle):
        # scaled by 2^(m order), the size of an atom's order-th derivative
        probes, out = routes
        for kind, m in product(self.KINDS, self.LEVELS):
            ks, coeffs = oracle[m]
            for part, col in enumerate(self.COLUMNS[kind]):
                spec = _as_spectrum(out[kind, m], part)
                for order in range(3):
                    got = numerics.synthesize_values(spec, probes, order)
                    phi = ws.interpolator("phi", order)  # the phi^(order) table
                    atoms = 2.0 ** (m * (0.5 + order)) * phi(np.ldexp(probes, m) - ks[:, None])
                    want = coeffs[:, col] @ atoms
                    assert np.max(np.abs(got - want)) < 1e-10 * 2.0 ** (m * order)

    def test_low_band_is_reproduced(self, ws, inputs, routes):
        # V_m contains every function band-limited to 2^m 2 pi / 3, and
        # (q_m f)^ vanishes beyond 2^m 4 pi / 3.  Every low-band node of each
        # part against the direct sum: on the chirp route (m = 0) to the
        # rounding of its phases, which reach the grid extent times the
        # band; on the DFT route (m >= 1), which has no such phases, to a
        # flat 1e-14 (measured: up to 2.1e-15)
        _, out = routes
        for kind, m in product(self.KINDS, self.LEVELS):
            qhat = out[kind, m].values
            nodes = out[kind, m].zeta.points()
            band = 2.0 ** m * 4 * np.pi / 3
            assert np.all(qhat[-1] == 0)  # the nodes cover the band
            low = nodes <= band / 2
            dft = out[kind, m].bins is not None
            assert dft == (m >= 1)
            rounding = 1e-14 if dft else np.finfo(float).eps * self.GRID.extent * band
            for part, values in enumerate(inputs[kind].T):
                f = sw.SampledFunction(self.GRID, values)
                scale = np.sum(np.abs(values) * self.GRID.trapezoid_weights())
                want = sw.forward_transform_values(f, nodes[low])
                assert np.max(np.abs(qhat[low, part] - want)) < rounding * scale
            assert np.all(qhat[nodes >= band] == 0)

    def test_seminorm_column_matches_direct_sums(self, ws, inputs):
        # one chirp-z pass over all orders against one direct sum per order
        # of the same spectrum, at the default probes
        params = sw.SeminormParams(rho1=0.0, rho2=2.0, h=0.5, c=0.5, max_beta=2)
        probes = np.linspace(-8.0, 8.0, 161)
        for kind in self.KINDS:
            f = sw.SampledFunction(self.GRID, numerics.join_parts(inputs[kind]))
            rows = sw.mra_convergence_experiment(ws, f, self.LEVELS, params)
            for m, row in zip(self.LEVELS, rows):
                pk = sw.build_kernel(ws, level=m)
                spectrum = projection._project_1d(pk, self.GRID, inputs[kind], probes)
                parts = [_as_spectrum(spectrum, part) for part in range(len(inputs[kind].T))]
                derivatives = [sum(1j ** part * numerics.synthesize_values(spec, probes, beta)
                                   for part, spec in enumerate(parts))
                               for beta in range(params.max_beta + 1)]
                want = sw.seminorm_estimate(derivatives, params, probes)
                assert abs(row["seminorm"] - want) <= 1e-12 * want


class TestDftRoute:
    """Samples on a grid whose spacing the eta nodes can match take the DFT
    route (``_dft_size``): f_hat on the nodes is one real FFT of the
    weighted samples' parts, and q_m f on the grid one more.  Every other
    caller keeps the chirp route on the least node count, ``L = ceil(span +
    margin)``."""

    GRID = sw.Grid1D.from_interval(-40.0, 40.0, 5121)  # ``sample_grid(40)``
    INPUTS = {"gaussian": gaussian(0.3, 1.4),
              "gevrey-band": gevrey_band(np.pi, 2 * np.pi)}

    @pytest.fixture
    def no_dft(self, monkeypatch):
        for name in ("real_dft", "real_dft_sum"):
            monkeypatch.setattr(numerics, name,
                                lambda *a, name=name: pytest.fail(f"{name} called"))

    @pytest.mark.parametrize("name", sorted(INPUTS))
    def test_low_band_nodes_match_direct_and_chirp_sums(self, ws, name):
        # against the direct sum at 1e-14 sum |w f| (measured: up to 2.7e-15),
        # and against the chirp-z sum on the same nodes at the chirp's floor
        f = sample(self.INPUTS[name], self.GRID)
        values = f.values.real
        scale = np.sum(np.abs(values) * self.GRID.trapezoid_weights())
        for m in range(1, 7):
            spectrum = projection._project_1d(sw.build_kernel(ws, level=m), self.GRID, values)
            assert spectrum.bins is not None
            nodes = spectrum.zeta.points()
            band = 2.0 ** m * 4 * np.pi / 3
            low = nodes <= band / 2
            got = spectrum.values[low]
            direct = sw.forward_transform_values(f, nodes[low])
            assert np.max(np.abs(got - direct)) <= 1e-14 * scale
            chirp = np.conj(projection._weighted_transform(self.GRID, values, spectrum.zeta))
            floor = np.finfo(float).eps * self.GRID.extent * band
            assert np.max(np.abs(got - chirp[low])) <= floor * scale

    def _least_nodes(self, ws, grid, levels, probes=()):
        margin = projection._phi_tail(ws)[2]
        reach = np.concatenate([[grid.origin, grid.last], np.ravel(probes)])
        for m in levels:
            L, _, size = projection._eta_nodes(sw.build_kernel(ws, level=m), grid, probes)
            span = np.ldexp(max(reach.max() - grid.origin, grid.last - reach.min()), m)
            assert size == 0 and L == int(np.ceil(span + margin))

    def test_complex_samples_take_the_dft_route(self, ws):
        # both parts on the DFT route from m = 1, with no chirp phase to
        # round: the sup error at m = 2..6 measured 2.4e-16 to 5.0e-16
        x = self.GRID.points()
        f = sw.SampledFunction(self.GRID, gaussian(0.3, 1.4)(x) * np.exp(0.5j * x))
        parts = numerics.split_parts(f.values)
        assert parts.shape == (self.GRID.count, 2)
        for m in range(1, 7):
            spectrum = projection._project_1d(sw.build_kernel(ws, level=m), self.GRID, parts)
            assert spectrum.bins is not None
        params = sw.SeminormParams(rho1=0.0, rho2=2.0, h=0.5, c=0.5, max_beta=2)
        rows = sw.mra_convergence_experiment(ws, f, range(2, 7), params)
        assert all(row["sup_error"] <= 1e-15 for row in rows)

    def test_kernel_decay_certificate_keeps_the_chirp_route(self, ws, pk, no_dft):
        masses = sw.Grid1D(0.0, 1.0 / 16, 17)
        self._least_nodes(ws, masses, (0,), 21.0)
        assert sw.kernel_decay_certificate(pk).r_squared > 0.95

    def test_grid_of_no_dyadic_spacing_keeps_the_chirp_route(self, ws, no_dft):
        grid = sw.Grid1D(-6.0, 2.0 / 99, 600)
        self._least_nodes(ws, grid, range(4))
        f = sample(gaussian(), grid)
        for m in range(4):
            assert not sw.project(sw.build_kernel(ws, level=m), f).values.imag.any()

    def test_project_error_floor_on_the_default_input(self, ws):
        # project's default input, e^{-x^2} on [-40, 40]: no chirp phase is
        # left to round at levels 3..6 (2.5e-13 on the chirp route)
        f = sample(gaussian(), construction.sample_grid(40.0))
        params = sw.SeminormParams(rho1=0.0, rho2=2.0, h=0.5, c=0.5, max_beta=2)
        rows = sw.mra_convergence_experiment(ws, f, range(3, 7), params)
        assert all(row["sup_error"] <= 1e-14 for row in rows)
        for m in range(3, 7):
            q = sw.project(sw.build_kernel(ws, level=m), f).values
            assert np.max(np.abs(q - f.values)) <= 1e-14


class TestCertificates:
    def test_kernel_decay_fit(self, pk):
        fit = sw.kernel_decay_certificate(pk)
        assert fit.rate_c > 0.0
        assert fit.exponent == 0.5
        assert fit.r_squared > 0.95

    @pytest.mark.parametrize("probe_count, u_max, per_unit", [(16, 20.0, 20)])
    def test_decay_profile_matches_kernel_rows(self, order_kernel, probe_count,
                                               u_max, per_unit):
        # the multiplier route against the lattice sum over the phi table,
        # at the tables' floor, on the certificate's fixed probes: measured
        # 3.4e-13, 5.3e-13 and 5.6e-13 at rho2 = 1.5, 2 and 2.5
        pk = order_kernel
        u, sup = _decay_profile(pk)
        assert np.array_equal(u, np.arange(round(u_max * per_unit) + 1) / per_unit)
        rows = _lattice_rows(pk, probe_count, u)
        assert np.max(np.abs(sup - np.abs(rows).max(axis=0))) <= 2e-12

    def test_decay_profile_reads_no_phi_table(self, ws, pk):
        # a phi table scaled by 1 + 1e-6 moves the lattice rows, and leaves
        # the certificate's profile bit for bit
        u, sup = _decay_profile(pk)
        rows = _lattice_rows(pk, 16, u)
        table = ws.interpolator

        def scaled(which, order=0):
            f = table(which, order)
            return (lambda t: (1.0 + 1e-6) * f(t)) if which == "phi" else f

        ws.interpolator = scaled
        try:
            scaled_u, scaled_sup = _decay_profile(pk)
            scaled_rows = _lattice_rows(pk, 16, u)
        finally:
            del ws.interpolator
        assert np.max(np.abs(scaled_rows - rows)) > 1e-7
        assert np.array_equal(scaled_u, u) and np.array_equal(scaled_sup, sup)

    def test_verify_suites_build_no_phi_table(self, ws):
        loaded = sw.WaveletSystem.from_json_dict(ws.to_json_dict())
        for check in construction.checks("verify").values():
            assert check(loaded)["pass"]
        assert ("phi", 0) not in loaded._tables

    def test_kernel_decay_keeps_its_shift_phases(self, ws, monkeypatch):
        # the phases exp(i zeta x_p) at 277 nodes and 16 probes are kept with
        # the system, as the modulus and the DFT phases are
        pk = sw.build_kernel(_fresh(ws), level=0)
        first = sw.kernel_decay_certificate(pk)
        (key,) = [key for key in pk.ws._blocks._values if key[0] == "shift"]
        kept = pk.ws._blocks._values[key]
        assert kept.shape == (277, 16) and not kept.flags.writeable
        reads, read = [], projection._kept
        monkeypatch.setattr(projection, "_kept",
                            lambda *args: reads.append(read(*args)) or reads[-1])
        second = sw.kernel_decay_certificate(pk)
        assert any(np.shares_memory(value, kept) for value in reads)
        assert second == first

    def test_kernel_decay_reads_the_level_0_kernel(self, ws):
        with pytest.raises(ProjectionError, match="level-0"):
            sw.kernel_decay_certificate(sw.build_kernel(ws, level=1))

    def test_polynomial_reproduction_low_degrees(self, pk):
        rep = sw.polynomial_reproduction(pk)
        dev = rep["max_deviation_per_degree"]
        assert dev[0] < 1e-10   # constants reproduced
        assert dev[1] < 1e-8    # first moment annihilated
        assert rep["probes"] == 32


class TestConvergenceExperiment:
    def test_error_drops_across_levels(self, ws, gaussian_samples):
        params = sw.SeminormParams(rho1=0.0, rho2=2.0, h=0.5, c=0.5, max_beta=2)
        rows = sw.mra_convergence_experiment(ws, gaussian_samples, (0, 1, 2),
                                             params)
        errs = [r["sup_error"] for r in rows]
        assert errs[1] < errs[0] and errs[2] < errs[1]
        assert errs[2] < 1e-9
        sems = [r["seminorm"] for r in rows]
        assert max(sems) <= 3.0 * sems[0]

    def test_seminorm_reuses_projection_coefficients(self, ws):
        # with beta = 0 and probes on grid points the seminorm column is the
        # weighted sup of the projection itself; the seminorm's probes (0.1
        # apart on [-8, 8]) are every 8th point of this grid
        params = sw.SeminormParams(rho1=0.0, rho2=2.0, h=0.5, c=0.5, max_beta=0)
        grid = sw.Grid1D.from_interval(-12.0, 12.0, 1921)
        f = sample(gaussian(), grid)
        x = projection._SEMINORM_PROBES.points()
        assert np.allclose(grid.points()[grid.index_of(x)], x, rtol=0, atol=1e-12)
        levels = (0, 1, 3)
        rows = sw.mra_convergence_experiment(ws, f, levels, params)
        weight = np.exp(0.5 * np.abs(x) ** 0.5)
        for m, row in zip(levels, rows):
            qf = sw.project(sw.build_kernel(ws, level=m), f)
            want = np.max(weight * np.abs(qf.values[grid.index_of(x)]))
            assert abs(row["seminorm"] - want) <= 1e-12 * want

    def test_phi_tail_measured_once_per_system(self, ws, gaussian_samples,
                                                monkeypatch):
        fresh = sw.WaveletSystem.from_json_dict(ws.to_json_dict())
        reads = []
        wide_table = fresh.wide_table
        monkeypatch.setattr(fresh, "wide_table",
                            lambda which: reads.append(which) or wide_table(which))
        monkeypatch.setattr(projection.metrics, "subexp_decay_fit",
                            lambda *a, **k: pytest.fail("decay fit"))
        params = sw.SeminormParams(rho1=0.0, rho2=2.0, h=0.5, c=0.5, max_beta=2)
        rows = sw.mra_convergence_experiment(fresh, gaussian_samples, (0, 1, 2),
                                             params)
        pk = sw.build_kernel(fresh, level=3)
        sw.project(pk, gaussian_samples)
        assert fresh._tables == {}  # no dense table on the projection route
        assert reads == ["phi"]
        assert rows == sw.mra_convergence_experiment(ws, gaussian_samples,
                                                     (0, 1, 2), params)
        assert pk.truncation_radius == 66

    def test_unresolved_level_refused_before_any_level_runs(self, ws,
                                                             gaussian_samples,
                                                             monkeypatch):
        monkeypatch.setattr(projection, "_project_1d",
                            lambda *a, **k: pytest.fail("a level ran"))
        params = sw.SeminormParams(rho1=0.0, rho2=2.0, h=0.5, c=0.5, max_beta=2)
        with pytest.raises(projection.UnresolvedLevelError, match="level 7"):
            sw.mra_convergence_experiment(ws, gaussian_samples, (5, 6, 7, 8), params)

    def test_levels_take_their_nodes_once(self, ws, gaussian_samples, monkeypatch):
        # the pre-check's nodes are the ones each level projects on
        eta_nodes, calls = projection._eta_nodes, []
        monkeypatch.setattr(projection, "_eta_nodes",
                            lambda pk, *a: calls.append(pk.level) or eta_nodes(pk, *a))
        params = sw.SeminormParams(rho1=0.0, rho2=2.0, h=0.5, c=0.5, max_beta=2)
        sw.mra_convergence_experiment(ws, gaussian_samples, (0, 1, 2, 3), params)
        assert calls == [0, 1, 2, 3]

    def test_csv_export(self, ws, gaussian_samples, tmp_path):
        params = sw.SeminormParams(rho1=0.0, rho2=2.0, h=0.5, c=0.5, max_beta=2)
        rows = sw.mra_convergence_experiment(ws, gaussian_samples, (0,), params)
        path = tmp_path / "rows.csv"
        from subexp_wavelets.projection import convergence_csv
        convergence_csv(rows, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "m,sup_error,seminorm,boundary_mass"
        assert len(lines) == 2

