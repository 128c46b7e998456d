"""Bell, spectra, dense tables, certificates, and serialization."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subexp_wavelets as sw
from subexp_wavelets import construction, numerics, projection
from subexp_wavelets.construction import (_CENTER_SHIFT, _TABLE_BAND_POINTS,
                                          _WIDE_BAND_POINTS, TABLE_HALF)

SQRT_HALF = np.sqrt(2.0) / 2.0

# psi(0) of the reference build (a = 1.0, rho2 = 2.0) as benchmarks/oracle.py
# computes it from the closed-form bump by adaptive quadrature, no tables
PSI_AT_ZERO = -0.7383702282176404


class TestBell:
    def test_edge_values(self, ws):
        # the bell passes through sqrt(2)/2 at the carrier frequencies pi
        # and 2 pi (half of the bump mass on each side of the crossover)
        assert abs(ws.bell(np.pi) - SQRT_HALF) < 1e-9
        assert abs(ws.bell(2 * np.pi) - SQRT_HALF) < 1e-9

    def test_literal_zeros_outside_support(self, ws):
        probes = np.concatenate([
            np.linspace(0.0, 2 * np.pi / 3 - 1e-9, 50),
            np.linspace(8 * np.pi / 3 + 1e-9, 40.0, 50)])
        assert np.all(ws.bell(probes) == 0.0)
        assert np.all(ws.bell(-probes) == 0.0)

    def test_flat_top(self, ws):
        # between pi + a and 2 pi - 2a both factors saturate at 1
        xi = np.linspace(np.pi + 1.0 + 1e-6, 2 * np.pi - 2.0 - 1e-6, 50)
        assert np.max(np.abs(ws.bell(xi) - 1.0)) < 1e-13

    @given(xi=st.floats(min_value=-30.0, max_value=30.0,
                        allow_nan=False, allow_infinity=False))
    @settings(max_examples=100, deadline=None)
    def test_values_in_unit_interval(self, ws, xi):
        v = float(ws.bell(xi))
        assert 0.0 <= v <= 1.0

    def test_bits_of_the_full_formula(self, ws):
        # the bell as first written, which read both primitives everywhere
        # and zeroed the off-support values after: the ends of the support
        # and of each factor's ramp, one ulp either side, their mirrors, 0,
        # +-inf and NaN keep their bits, as scalars and as arrays
        bell, a = ws.bell, ws.bell.bump.a
        ends = np.array([np.pi - a, np.pi + a, 2 * np.pi - 2 * a, 2 * np.pi + 2 * a])
        ends = np.concatenate([ends, -ends])
        probes = np.concatenate([np.nextafter(ends, -np.inf), ends,
                                 np.nextafter(ends, np.inf),
                                 [0.0, -4.0, np.inf, -np.inf, np.nan]])
        assert bell(probes).tobytes() == _bell_reference(bell, probes).tobytes()
        for x in probes:
            got, want = bell(x), _bell_reference(bell, x)
            assert type(got) is type(want) is float
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), x
            got = bell(np.array([x]))
            assert got.tobytes() == _bell_reference(bell, np.array([x])).tobytes()

    def test_nonnegative_below_upper_support_edge(self, ws):
        # just under 2 pi + 2a the bump primitive sits at its full mass, where
        # an overshoot of a few ulps would make the cos factor negative
        xi = np.linspace(8.2, 8.283, 20001)
        assert np.min(ws.bell(xi)) >= 0.0


def _bell_reference(bell, xi):
    """``BellFunction.__call__`` as first written: both primitives read at
    every point, the off-support values zeroed after."""
    xi = np.asarray(xi, dtype=float)
    scalar = xi.ndim == 0
    u = np.abs(np.atleast_1d(xi))
    b = np.sin(bell.bump.cumulative(u - np.pi)) * np.cos(bell.bump.cumulative(u / 2.0 - np.pi))
    b[(u <= bell.support_lo) | (u >= bell.support_hi)] = 0.0
    return float(b[0]) if scalar else b


def _wrap_bell(wrap):
    def tamper(ws, *_):
        bell = ws.bell
        wrapped = lambda xi: wrap(np.asarray(xi, dtype=float), bell(xi))  # noqa: E731
        # the bands are formed on the bell's support
        wrapped.support_lo, wrapped.support_hi = bell.support_lo, bell.support_hi
        ws.bell = wrapped
    return tamper


def _scale_dense_table(which):
    # the two-scale and low-pass certificates read the table's knots and
    # keep nothing, so a scaled table reaches them on every run
    def tamper(ws):
        table = ws.dense_table

        def scaled(w, order=0):
            grid, values = table(w, order)
            return (grid, 1.01 * values) if w == which else (grid, values)
        ws.dense_table = scaled
    return tamper


def _raise_wide_psi(ws):
    _, vals = ws.wide_table("psi")
    vals += 1e-6


def _scale_psi_hat(ws):
    ws.psi_hat.values[...] *= 1.01


# build certificate -> a tamper of a fresh copy of the system that must make it
# fail
BUILD_TAMPERS = {
    "SUPPORT": _wrap_bell(lambda xi, b: b + 1e-3 * (np.abs(xi) < 1)),
    "SHIFT_ORTHONORMALITY_PSI": _wrap_bell(lambda xi, b: 1.01 * b),
    "SHIFT_ORTHONORMALITY_PHI": _wrap_bell(lambda xi, b: 1.01 * b),
    "TWO_SCALE_CROSS": _scale_dense_table("psi"),
    "MOMENTS": _raise_wide_psi,
    "SCALING_LOWPASS": _scale_dense_table("phi"),
    "NORMALIZATION": _scale_psi_hat,
}


def _nudge_psi_sample(ws, monkeypatch):
    # one sample, psi(0), moved by 1e-12, ten times the suite's tolerance
    ws.psi_samples.values[ws.psi_samples.grids[0].count // 2] += 1e-12


def _scale_wide_phi(ws, monkeypatch):
    _, vals = ws.wide_table("phi")
    vals *= 1.01


def _linear_scaling_modulus(ws, monkeypatch):
    # continuous on the eta nodes' band [-4 pi / 3, 4 pi / 3], where it still
    # reads 1/2 at the ends: the multiplier jumps there, and q_0 decays
    # algebraically
    monkeypatch.setattr(projection, "scaling_modulus", lambda bell, xi: np.clip(
        1.5 - 3.0 * np.abs(xi) / (4 * np.pi), 0.0, 1.0))


# verify suite -> a tamper of a loaded system that must make it fail
VERIFY_TAMPERS = {
    "support": _wrap_bell(lambda xi, b: b + 1e-6 * (np.abs(xi) < 1)),
    "samples": _nudge_psi_sample,
    # psi's rise, which phi's modulus (the bell at 2 xi, |2 xi| > 4 pi / 3)
    # does not read, clear of the edge probes pi and 2 pi
    "orthonormality": _wrap_bell(
        lambda xi, b: b * np.where((np.abs(xi) > 2.3) & (np.abs(xi) < 3.0), 1 + 1e-6, 1.0)),
    "polynomial": _scale_wide_phi,
    "kernel-decay": _linear_scaling_modulus,
}


class TestCertificates:
    @pytest.mark.parametrize("name", list(construction.checks("build")))
    def test_every_build_certificate_fails_when_tampered(self, ws, name):
        # a new build certificate must come with a tamper that it catches
        assert name in BUILD_TAMPERS, f"no tamper for {name}"
        check = construction.checks("build")[name]
        # a loaded copy, as ``verify`` reads it: no tables yet
        fresh = sw.WaveletSystem.from_json_dict(ws.to_json_dict())
        assert check(fresh)["pass"]
        BUILD_TAMPERS[name](fresh)
        assert not check(fresh)["pass"]

    @pytest.mark.parametrize("name", list(construction.checks("verify")))
    def test_every_verify_suite_fails_when_tampered(self, ws, monkeypatch, name):
        # a new verify suite must come with a tamper that it catches
        assert name in VERIFY_TAMPERS, f"no tamper for {name}"
        check = construction.checks("verify")[name]
        loaded = sw.WaveletSystem.from_json_dict(ws.to_json_dict())
        assert check(loaded)["pass"]
        VERIFY_TAMPERS[name](loaded, monkeypatch)
        assert not check(loaded)["pass"]
        # and no other suite, but that a bell changed on psi's band changes
        # the rebuild of psi's samples too
        failed = {other for other, suite in construction.checks("verify").items()
                  if not suite(loaded)["pass"]}
        assert failed == ({name, "samples"} if name == "orthonormality" else {name})

    def test_all_pass(self, ws):
        assert ws.certificates, "reference build must carry certificates"
        failures = [name for name, cert in ws.certificates.items()
                    if not cert["pass"]]
        assert not failures, f"failing certificates: {failures}"

    def test_shift_orthonormality_margin(self, ws):
        for name in ("SHIFT_ORTHONORMALITY_PSI", "SHIFT_ORTHONORMALITY_PHI"):
            assert ws.certificates[name]["max_deviation"] < 1e-10

    def test_two_scale_margin(self, ws):
        assert ws.certificates["TWO_SCALE_CROSS"]["max_deviation"] < 1e-7

    def test_normalization(self, ws):
        assert abs(ws.certificates["NORMALIZATION"]["plancherel_norm"] - 1.0) < 1e-12

    def test_digest_is_stable_sha256(self, ws):
        d1 = ws.certificate_digest()
        d2 = ws.certificate_digest()
        assert d1 == d2
        assert len(d1) == 64
        int(d1, 16)  # hex


class TestSpectra:
    def test_psi_hat_modulus_is_bell(self, ws):
        xi = np.linspace(-9.0, 9.0, 301)
        assert np.max(np.abs(np.abs(ws.psi_hat_fn(xi)) - ws.bell(np.abs(xi)))) < 1e-13

    def test_phi_hat_low_frequency_plateau(self, ws):
        xi = np.linspace(-2 * np.pi / 3 + 1e-6, 2 * np.pi / 3 - 1e-6, 101)
        assert np.max(np.abs(np.abs(ws.phi_hat_fn(xi)) - 1.0)) < 1e-12

    def test_spectral_moments_vanish_identically(self, ws):
        # psi_hat is literally zero on a neighborhood of the origin, so every
        # spectral derivative there -- and hence every moment -- is zero
        m = sw.spectral_moments(ws)
        assert np.array_equal(m, np.zeros(11))


class TestEvaluation:
    def test_value_at_origin_regression(self, ws):
        assert abs(ws.evaluate_psi(0.0).real[0] - PSI_AT_ZERO) < 1e-11

    def test_phi_has_no_far_echo(self, ws):
        # a linearly interpolated bump primitive has kinks at its knot
        # spacing h, which echo in phi near |x| = 2 pi / h = 51,472
        # (1.5e-10); the C^1 primitive leaves about 3e-14 there
        eta = sw.Grid1D.from_interval(-4 * np.pi / 3, 4 * np.pi / 3, 2_000_001)
        band = (eta.origin, eta.last)
        spec = sw.SpectrumOnBand(band=band, grid=eta, declared_support=(band,),
                                 values=ws.phi_hat_fn(eta.points()))
        x = np.linspace(51_400.0, 51_550.0, 301)
        assert np.max(np.abs(sw.synthesize_values(spec, x))) < 1e-12

    def test_realness(self, ws):
        # the analytic spectra are Hermitian, so psi and phi are real and
        # their point values are 2 Re of the band's sum: the full hull's sum
        # has an imaginary part of rounding
        x = np.linspace(-17.0, 17.0, 401)
        for which in ("psi", "phi"):
            assert np.max(np.abs(sw.synthesize_values(_full_hull(ws, which), x).imag)) < 1e-12

    @pytest.mark.parametrize("which", ["psi", "phi"])
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_point_values_are_the_real_part_of_the_full_hull(self, ws, which, order):
        # 2 Re of the band's sum at x + shift against the sum of the analytic
        # spectrum, phase and all, over its band and the band's mirror: gate
        # 1e-14 times |xi|^order at the band end 8 pi / 3
        x = np.random.default_rng(2000).uniform(-40.0, 40.0, 2000)
        evaluate = ws.evaluate_psi if which == "psi" else ws.evaluate_phi
        got = evaluate(x, order)
        assert got.dtype == np.float64 and got.shape == x.shape
        full = sw.synthesize_values(_full_hull(ws, which), x, order).real
        assert np.max(np.abs(got - full)) <= 1e-14 * (8 * np.pi / 3) ** order

    def test_interpolator_matches_direct_synthesis(self, ws):
        x = np.array([-31.37, -7.21, -0.4, 0.93, 5.55, 18.01, 44.4])
        for which, direct in (("psi", ws.evaluate_psi), ("phi", ws.evaluate_phi)):
            table = ws.interpolator(which)(x)
            exact = direct(x).real
            # the table's interpolant against the direct sum of the band the
            # table is synthesized from; the seeded test below holds them to
            # the interpolation floor
            assert np.max(np.abs(table - exact)) < 1e-9

    def test_interpolator_matches_the_point_values_at_seeded_points(self, ws):
        # the 8-point interpolant of every dense table a session holds against
        # the direct sums, gated at 5e-13 for orders 0 and 1 and 1e-12 for
        # order 2: measured 1.5e-13 (psi), 4.4e-14 (phi), 1.1e-13 (phi') and
        # 2.7e-13 (phi'') at spacing 1/128, as at 1/256
        x = np.random.default_rng(7).uniform(-30.0, 30.0, 4000)
        for which, order, direct, gate in (
                ("psi", 0, ws.evaluate_psi, 5e-13), ("phi", 0, ws.evaluate_phi, 5e-13),
                ("phi", 1, ws.evaluate_phi, 5e-13), ("phi", 2, ws.evaluate_phi, 1e-12)):
            error = np.max(np.abs(ws.interpolator(which, order)(x) - direct(x, order)))
            assert error < gate, (which, order, error)

    def test_interpolator_zero_outside_table(self, ws):
        f = ws.interpolator("psi")
        assert f(TABLE_HALF + 1.0) == 0.0
        assert np.all(f(np.array([-400.0, 500.0])) == 0.0)

    def test_derivative_tables_match_spectral_derivatives(self, ws):
        x = np.array([-4.3, -1.1, 0.25, 2.7, 9.8])
        for order in (1, 2):
            table = ws.interpolator("psi", order)(x)
            exact = ws.evaluate_psi(x, order).real
            assert np.max(np.abs(table - exact)) < 5e-8

    @pytest.mark.parametrize("kind, which, order", [
        ("dense", "psi", 0), ("dense", "psi", 1), ("dense", "psi", 2),
        ("dense", "phi", 0), ("dense", "phi", 1), ("dense", "phi", 2),
        ("wide", "psi", 0), ("wide", "phi", 0)])
    def test_tables_match_direct_sum(self, ws, kind, which, order):
        # the chirp-z tables against the direct sum of the same quadrature,
        # at seeded probes plus the last 20 points at each end (deep tails)
        if kind == "dense":
            grid, vals = ws.dense_table(which, order)
            band = ws.band_spectrum(which, _TABLE_BAND_POINTS)
        else:
            grid, vals = ws.wide_table(which)
            band = ws.band_spectrum(which, _WIDE_BAND_POINTS)
        rng = np.random.default_rng(7)
        idx = np.concatenate([rng.integers(0, grid.count, 200), np.arange(20),
                              np.arange(grid.count - 20, grid.count)])
        x = grid.points()[idx] + _CENTER_SHIFT[which]
        direct = 2.0 * sw.synthesize_values(band, x, order=order).real
        assert np.max(np.abs(vals[idx] - direct)) < 1e-12

    def test_dense_table_build_memory(self, ws):
        fresh = sw.WaveletSystem.from_json_dict(ws.to_json_dict())  # no tables
        tracemalloc.start()
        try:
            fresh.dense_table("psi")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # measured 3.4 MB at spacing 1/128
        assert peak < 8 * 2 ** 20

    def test_tables_build_no_interpolant_and_each_is_built_once(self, ws, monkeypatch):
        fresh = sw.WaveletSystem.from_json_dict(ws.to_json_dict())  # no tables
        init, built = numerics.LagrangeInterpolant.__init__, []
        monkeypatch.setattr(numerics.LagrangeInterpolant, "__init__", lambda self, *a: (
            built.append(self) or init(self, *a)))
        for order in (0, 1, 2):
            grid, vals = fresh.dense_table("phi", order)
            assert not vals.flags.writeable
        assert built == []
        f = fresh.interpolator("phi", 1)
        assert built == [f] and f.values is fresh.dense_table("phi", 1)[1]
        assert fresh.interpolator("phi", 1) is f and len(built) == 1
        assert fresh.interpolator("phi") is not f and len(built) == 2

    def test_atom_values_scaling_identity(self, ws):
        x = np.linspace(-3.0, 3.0, 41)
        got = ws.atom_values(1, 2, 3, x)
        want = 2.0 * ws.interpolator("psi")(4.0 * x - 3.0)
        assert np.max(np.abs(got - want)) < 1e-14


def _full_hull(ws, which):
    """The analytic psi_hat or phi_hat on 8,191 nodes of [-8 pi / 3, 8 pi / 3],
    a grid symmetric about 0 whose nodes are not the band's."""
    end = construction.PSI_BAND[1]
    grid = sw.Grid1D.from_interval(-end, end, 8191)
    spectrum = ws.psi_hat_fn if which == "psi" else ws.phi_hat_fn
    return sw.SpectrumOnBand(band=(-end, end), grid=grid, declared_support=((-end, end),),
                             values=spectrum(grid.points()))


class TestCrossGram:
    def test_gram_is_the_weighted_product(self, ws):
        # the two-scale certificate's rows against the product with the
        # trapezoid weights applied to a copy
        grid = sw.Grid1D.from_interval(-80.0, 80.0, 10241)
        A = np.vstack([row for m, N in ((-1, 1), (0, 3), (1, 2))
                       for row in construction._knot_rows(ws, "psi", m, N, grid)])
        want = (A * grid.trapezoid_weights()) @ A.T
        got = construction._gram(A, grid)
        assert got.shape == (15, 15) and np.array_equal(got, got.T)
        assert np.max(np.abs(got - want)) < 1e-14

    def test_small_gram_is_identity(self, ws, cross_gram_fourier):
        G = cross_gram_fourier(ws, range(-1, 2), range(-1, 2))
        assert G.shape == (9, 9)
        assert np.max(np.abs(G - np.eye(9))) < 1e-10


class TestKnotRows:
    """The two-scale and low-pass certificates read atoms at the dense
    tables' knots (``_knot_rows``), where the interpolant returns the
    table's own samples."""

    TWO_SCALE = sw.Grid1D.from_interval(-80.0, 80.0, 10241)
    LATTICE = sw.Grid1D(-250.0, 1.0 / 64, 501 * 64)

    @pytest.mark.parametrize("which, ms, N, grid", [
        ("psi", (-1, 0, 1), 3, TWO_SCALE), ("phi", (0,), 0, LATTICE)])
    def test_rows_are_the_atom_values(self, ws, which, ms, N, grid):
        bit = int(which == "psi")
        for m in ms:
            rows = construction._knot_rows(ws, which, m, N, grid)
            want = ws.atom_values(bit, m, np.arange(-N, N + 1)[:, None], grid.points())
            assert np.vstack(rows).tobytes() == want.tobytes(), m

    def test_lattice_row_is_a_view_of_the_table(self, ws):
        (row,) = construction._knot_rows(ws, "phi", 0, 0, self.LATTICE)
        assert np.shares_memory(row, ws.dense_table("phi")[1])
        assert np.shares_memory(row.reshape(501, 64), row)

    def test_build_keeps_no_interpolant_or_block(self):
        fresh = sw.build_wavelet_system(1.0, 2.0)
        assert fresh._interpolants == {}
        assert not fresh._blocks._values

    @pytest.mark.parametrize("m, N, grid", [
        (-1, 3, sw.Grid1D(-80.0, 1.0 / 256, 10241)),  # 2^m h = 1/512, off the knots
        (0, 3, sw.Grid1D(-80.0 + 1.0 / 256, 1.0 / 64, 10241)),  # origin off the knots
        (0, 0, sw.Grid1D(200.0, 1.0 / 64, 64 * 100 + 1)),  # reaches 300
        (0, 20, LATTICE),  # shift n = 20 reaches -270
        (0, 0, sw.Grid1D(-264.0, 1.0 / 64, 528 * 64 + 2)),  # one point past 264
    ])
    def test_refuses_points_off_the_knots_or_past_the_table(self, ws, m, N, grid):
        with pytest.raises(construction.ConstructionError, match="knots"):
            construction._knot_rows(ws, "psi", m, N, grid)

    def test_reads_every_knot_of_the_table(self, ws):
        grid, values = ws.dense_table("psi")
        (row,) = construction._knot_rows(ws, "psi", 0, 0, grid)
        assert row.tobytes() == values.tobytes()


class TestDecayProfile:
    def test_shape_and_range(self, ws):
        table = sw.decay_profile(ws, 40.0)
        assert table.shape == (1281, 2)
        assert table[0, 0] == 0.0
        assert np.isclose(table[-1, 0], 40.0)
        assert np.all(table[:, 1] >= 0.0)

    def test_envelope_below_center_value(self, ws):
        table = sw.decay_profile(ws, 40.0)
        far = table[table[:, 0] > 5.0]
        assert np.all(far[:, 1] < abs(PSI_AT_ZERO))

    @pytest.mark.parametrize("which", ["psi", "phi"])
    def test_reads_the_table_at_thirty_seconds(self, ws, which):
        # the points i / 32 are the table's knots at stride 4
        table = sw.decay_profile(ws, TABLE_HALF, which)
        grid, values = ws.dense_table(which)
        assert table.shape == (32 * 264 + 1, 2)
        assert table[:, 0].tobytes() == (np.arange(32 * 264 + 1) / 32).tobytes()
        start = int(round(-grid.origin / grid.spacing))
        assert table[:, 1].tobytes() == np.abs(values[start::4]).tobytes()


class TestSerialization:
    def test_json_roundtrip(self, ws):
        # through JSON text, as ``build`` writes the file and the commands
        # read it: every array comes back bit for bit, the spectra too
        for built in (sw.build_wavelet_system(1.0, 1.5), ws,
                      sw.build_wavelet_system(1.0, 2.5)):
            doc = json.loads(json.dumps(built.to_json_dict(), sort_keys=True))
            # the spectra and phi's samples are rebuilt from the parameters,
            # not stored
            assert set(doc) == {"schema", "parameters", "psi_samples", "certificates"}
            loaded = sw.WaveletSystem.from_json_dict(doc)
            assert (loaded.a, loaded.rho2) == (built.a, built.rho2)
            for name in ("psi_hat", "phi_hat", "psi_samples", "phi_samples"):
                assert (getattr(loaded, name).values.tobytes()
                        == getattr(built, name).values.tobytes()), name
            assert loaded.certificate_digest() == built.certificate_digest()
        x = np.linspace(-5.0, 5.0, 21)
        assert np.max(np.abs(loaded.interpolator("psi")(x)
                             - built.interpolator("psi")(x))) < 1e-14

    def test_load_synthesizes_nothing(self, ws, monkeypatch):
        # the bands and phi's samples are formed on first read, each once
        calls = []
        for owner, name in ((numerics, "chirp_synthesis"),
                            (construction.WaveletSystem, "band_spectrum")):
            monkeypatch.setattr(owner, name, lambda *a, f=getattr(owner, name), n=name:
                                calls.append(n) or f(*a))
        loaded = sw.WaveletSystem.from_json_dict(ws.to_json_dict())
        assert calls == []
        for _ in range(2):
            for name in ("phi_samples", "psi_hat", "phi_hat"):
                assert (getattr(loaded, name).values.tobytes()
                        == getattr(ws, name).values.tobytes()), name
        assert sorted(calls) == ["band_spectrum", "band_spectrum", "chirp_synthesis"]

    def test_built_system_forms_phi_samples_on_first_read(self, ws):
        fresh = sw.build_wavelet_system(1.0, 2.0)
        assert "phi_samples" not in vars(fresh)
        assert fresh.phi_samples.values.tobytes() == ws.phi_samples.values.tobytes()
        assert fresh.phi_samples is fresh.phi_samples

    def test_samples_are_real(self, ws):
        # the file keeps the real part of the samples alone
        for f in (ws.psi_samples, ws.phi_samples):
            assert not f.values.imag.any()

    def test_unknown_schema_rejected(self, ws):
        doc = ws.to_json_dict()
        doc["schema"] = "something-else"
        with pytest.raises(sw.ConstructionError):
            sw.WaveletSystem.from_json_dict(doc)


class TestBuildValidation:
    def test_invalid_parameters_propagate(self):
        with pytest.raises(sw.BumpError):
            sw.build_wavelet_system(1.2, 2.0)
        with pytest.raises(sw.BumpError):
            sw.build_wavelet_system(1.0, 0.9)
