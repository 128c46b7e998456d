"""Bell, spectra, dense tables, certificates, and serialization."""

import dataclasses
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
    def tamper(ws):
        bell = ws.bell
        ws.bell = lambda xi: wrap(np.asarray(xi, dtype=float), bell(xi))
    return tamper


def _scale_interpolator(which):
    # a wrapped evaluator is a new key: the atom blocks kept under the
    # table's own interpolant miss
    def tamper(ws):
        table = ws.interpolator
        ws.interpolator = lambda w, order=0: (
            (lambda x: 1.01 * table(w, order)(x)) if w == which else table(w, order))
    return tamper


def _raise_wide_psi(ws):
    _, vals = ws.wide_table("psi")
    vals += 1e-6


def _skew_psi_hat(ws):
    # no longer Hermitian: psi_hat(-xi) != conj psi_hat(xi)
    ws.psi_hat.values[ws.psi_hat.grid.points() > 0] *= 1 + 1e-9j


def _scale_psi_hat(ws):
    ws.psi_hat.values[...] *= 1.01


# build certificate -> a tamper of a fresh copy of the system that must make it
# fail
BUILD_TAMPERS = {
    "SUPPORT": _wrap_bell(lambda xi, b: b + 1e-3 * (np.abs(xi) < 1)),
    "SHIFT_ORTHONORMALITY_PSI": _wrap_bell(lambda xi, b: 1.01 * b),
    "SHIFT_ORTHONORMALITY_PHI": _wrap_bell(lambda xi, b: 1.01 * b),
    "TWO_SCALE_CROSS": _scale_interpolator("psi"),
    "MOMENTS": _raise_wide_psi,
    "REALNESS": _skew_psi_hat,
    "SCALING_LOWPASS": _scale_interpolator("phi"),
    "NORMALIZATION": _scale_psi_hat,
}


def _write_spectrum(key, xi_target, value):
    """Widen ``key``'s declared support to the whole band, then write
    ``value`` at the stored node nearest ``xi_target``."""
    def tamper(ws, monkeypatch):
        spec = getattr(ws, key)
        values = spec.values.copy()
        values[np.argmin(np.abs(spec.grid.points() - xi_target))] = value
        setattr(ws, key, dataclasses.replace(spec, values=values,
                                             declared_support=(spec.band,)))
    return tamper


def _zero_psi_hat_top(ws, monkeypatch):
    # the translate energy sum of |psi_hat|^2 drops below 1
    xi = ws.psi_hat.grid.points()
    ws.psi_hat.values[(xi >= 2 * np.pi) & (xi <= 8 * np.pi / 3)] = 0.0


def _scale_psi_samples(ws, monkeypatch):
    ws.psi_samples.values[...] *= 1.01


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
    "support": _write_spectrum("phi_hat", 5.0, 1e-6),
    "moments": _write_spectrum("psi_hat", 0.1, 1e-6),
    "two-scale": _scale_psi_samples,
    "orthonormality": _zero_psi_hat_top,
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
        # the stored spectra are Hermitian: the full-hull sum's imaginary
        # part is rounding
        x = np.linspace(-17.0, 17.0, 401)
        for spec in (ws.psi_hat, ws.phi_hat):
            assert np.max(np.abs(sw.synthesize_values(spec, x).imag)) < 1e-12

    @pytest.mark.parametrize("which", ["psi", "phi"])
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_point_values_are_the_real_part_of_the_full_hull(self, ws, which, order):
        # 2 Re of the half band against the full hull's sum: gate 1e-14
        # times |xi|^order at the band end 8 pi / 3, ten times the 9.4e-16
        # a first measurement of order 0 gave
        x = np.random.default_rng(2000).uniform(-40.0, 40.0, 2000)
        spec, evaluate = ((ws.psi_hat, ws.evaluate_psi) if which == "psi"
                          else (ws.phi_hat, ws.evaluate_phi))
        got = evaluate(x, order)
        assert got.dtype == np.float64 and got.shape == x.shape
        full = sw.synthesize_values(spec, x, order).real
        assert np.max(np.abs(got - full)) <= 1e-14 * (8 * np.pi / 3) ** order

    def test_interpolator_matches_direct_synthesis(self, ws):
        x = np.array([-31.37, -7.21, -0.4, 0.93, 5.55, 18.01, 44.4])
        for which, direct in (("psi", ws.evaluate_psi), ("phi", ws.evaluate_phi)):
            table = ws.interpolator(which)(x)
            exact = direct(x).real
            # table interpolant and the stored-spectrum quadrature differ in
            # their discretizations; both sit below 1e-9 absolute
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


class TestCrossGram:
    def test_gram_is_the_weighted_product(self, ws):
        # the two-scale certificate's rows against the product with the
        # trapezoid weights applied to a copy
        grid = sw.Grid1D.from_interval(-80.0, 80.0, 10241)
        A = np.vstack([construction._axis_block(ws, 1, m, N, grid)[0]
                       for m, N in ((-1, 1), (0, 3), (1, 2))])
        want = (A * grid.trapezoid_weights()) @ A.T
        got = construction._gram(A, grid)
        assert got.shape == (15, 15) and np.array_equal(got, got.T)
        assert np.max(np.abs(got - want)) < 1e-14

    def test_small_gram_is_identity(self, ws, cross_gram_fourier):
        G = cross_gram_fourier(ws, range(-1, 2), range(-1, 2))
        assert G.shape == (9, 9)
        assert np.max(np.abs(G - np.eye(9))) < 1e-10


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
