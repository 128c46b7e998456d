"""Decay fitting, seminorms, and weighted sequence norms vs synthetic oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subexp_wavelets as sw
from subexp_wavelets.metrics import MetricsError


def _synthetic(rate, exponent, n=200, x_max=60.0):
    x = np.linspace(0.5, x_max, n)
    return np.column_stack([x, np.exp(-rate * x ** exponent)])


class TestDecayFit:
    def test_exact_square_root_decay(self):
        # samples of exp(-3 sqrt(x)): fixed and free modes must both recover it
        fit = sw.subexp_decay_fit(_synthetic(3.0, 0.5), "fixed", rho=2.0)
        assert abs(fit.rate_c - 3.0) < 0.03
        assert fit.r_squared > 0.999999
        free = sw.subexp_decay_fit(_synthetic(3.0, 0.5), "free")
        assert abs(free.exponent - 0.5) < 0.02
        assert abs(free.rate_c - 3.0) < 0.03

    def test_exact_exponential_decay(self):
        free = sw.subexp_decay_fit(_synthetic(1.0, 1.0), "free")
        assert abs(free.exponent - 1.0) < 0.05

    def test_oscillating_signal_uses_peak_envelope(self):
        x = np.linspace(0.5, 60.0, 4000)
        v = np.exp(-2.0 * np.sqrt(x)) * np.abs(np.cos(5.0 * x))
        fit = sw.subexp_decay_fit(np.column_stack([x, v]), "fixed", rho=2.0)
        assert abs(fit.rate_c - 2.0) < 0.05
        assert fit.r_squared > 0.999

    @given(log_alpha=st.floats(min_value=-6.0, max_value=6.0,
                               allow_nan=False, allow_infinity=False))
    @settings(max_examples=25, deadline=None)
    def test_scale_equivariance(self, log_alpha):
        # scaling the samples scales the amplitude, nothing else
        alpha = np.exp(log_alpha)
        base = _synthetic(2.0, 0.5)
        scaled = np.column_stack([base[:, 0], alpha * base[:, 1]])
        f0 = sw.subexp_decay_fit(base, "fixed", rho=2.0)
        f1 = sw.subexp_decay_fit(scaled, "fixed", rho=2.0)
        assert abs(f1.rate_c - f0.rate_c) < 1e-6
        assert abs(f1.exponent - f0.exponent) < 1e-12
        assert abs(f1.amplitude_C / f0.amplitude_C - alpha) < 1e-6 * alpha

    def test_insufficient_envelope(self):
        with pytest.raises(MetricsError, match="insufficient envelope"):
            sw.subexp_decay_fit(_synthetic(1.0, 0.5, n=5), "fixed", rho=2.0)

    def test_unknown_mode(self):
        with pytest.raises(MetricsError):
            sw.subexp_decay_fit(_synthetic(1.0, 0.5), "adaptive")

    def test_json_dict_keys(self):
        fit = sw.subexp_decay_fit(_synthetic(1.0, 0.5), "fixed", rho=2.0)
        doc = fit.to_json_dict()
        assert set(doc) == {"amplitude_C", "rate_c", "exponent", "r_squared",
                            "n_envelope_points"}


class TestSeminorm:
    def test_gaussian_hand_value(self):
        # f = exp(-x^2), max_beta = 0, weight exp(0.5 sqrt(|x|)): the probe
        # maximum of exp(0.5 sqrt(x) - x^2) over a fine probe set
        from subexp_wavelets.testfuncs import gaussian_derivative
        params = sw.SeminormParams(rho1=0.0, rho2=2.0, h=1.0, c=0.5, max_beta=0)
        probes = np.linspace(-3.0, 3.0, 2001)
        got = sw.seminorm_estimate([gaussian_derivative(0)(probes)], params, probes)
        want = np.max(np.exp(0.5 * np.sqrt(np.abs(probes)) - probes ** 2))
        assert abs(got - want) < 1e-12

    def test_overflow_probes_excluded(self):
        params = sw.SeminormParams(rho1=0.0, rho2=2.0, h=1.0, c=1.0, max_beta=0)
        # |x|^(1/2) * c > 700 overflows; those probes must be skipped cleanly
        probes = np.array([1.0, 1e12])
        got = sw.seminorm_estimate([np.ones_like(probes)], params, probes)
        assert np.isfinite(got)
        assert abs(got - np.exp(1.0)) < 1e-12

    def test_wavelet_seminorm_sharpness(self, ws):
        # weight rate below the fitted decay rate: finite and moderate;
        # weight rate far above it: the estimate explodes
        probes = np.linspace(-30.0, 30.0, 121)
        derivatives = [ws.evaluate_psi(probes, beta) for beta in range(3)]
        low = sw.seminorm_estimate(
            derivatives, sw.SeminormParams(rho1=0.0, rho2=2.0, h=0.5, c=0.9,
                                           max_beta=2), probes)
        high = sw.seminorm_estimate(
            derivatives, sw.SeminormParams(rho1=0.0, rho2=2.0, h=0.5, c=3.6,
                                           max_beta=2), probes)
        assert np.isfinite(low)
        assert high > 10.0 * low

    def test_invalid_params(self):
        with pytest.raises(MetricsError):
            sw.SeminormParams(rho1=0.0, rho2=0.0, h=1.0, c=1.0, max_beta=2)
        with pytest.raises(MetricsError):
            sw.SeminormParams(rho1=-1.0, rho2=2.0, h=1.0, c=1.0, max_beta=2)
        good = {"rho1": 0.0, "rho2": 2.0, "h": 1.0, "c": 1.0, "max_beta": 2}
        for key in ("rho2", "h", "c"):
            for bad in (np.nan, np.inf):
                with pytest.raises(MetricsError, match="finite"):
                    sw.SeminormParams(**{**good, key: bad})


def _manual_coeffs(values_by_shift):
    from subexp_wavelets.expansion import CoefficientSet, IndexWindow
    window = IndexWindow(0, 1)
    values = np.array([values_by_shift[n] for n in (-1, 0, 1)], dtype=complex)
    return CoefficientSet(window=window, values=values.reshape(window.shape))


class TestSequenceNorm:
    PARAMS = dict(s=3.0, t=4.0, rho1=0.0, rho2=2.0)

    def test_weight_hand_value(self):
        from subexp_wavelets.expansion import WaveletIndex
        p = sw.SequenceNormParams(**self.PARAMS)
        idx = WaveletIndex(epsilon=(1,), m=0, n=(3,))
        # (2^0)^(1/(t-rho2)) + (2^0)^(1/(s-rho1)) + 3^(1/t) = 2 + 3^0.25
        assert abs(sw.index_weight(idx, p) - (2.0 + 3.0 ** 0.25)) < 1e-14

    def test_k_zero_gives_sup(self):
        cs = _manual_coeffs({-1: 0.5, 0: -2.0, 1: 0.25j})
        p = sw.SequenceNormParams(k=0.0, **self.PARAMS)
        assert sw.sequence_norm(cs, p) == 2.0

    def test_hand_computed_norm(self):
        cs = _manual_coeffs({-1: 0.5, 0: 1.0, 1: 0.0})
        p = sw.SequenceNormParams(k=1.0, **self.PARAMS)
        want = max(0.5 * np.exp(3.0), np.exp(2.0))
        assert abs(sw.sequence_norm(cs, p) - want) < 1e-12

    def test_invalid_params(self):
        with pytest.raises(MetricsError):
            sw.SequenceNormParams(s=3.0, t=1.5, rho1=0.0, rho2=2.0)
        with pytest.raises(MetricsError):
            sw.SequenceNormParams(s=3.0, t=4.0, rho1=0.0, rho2=2.0, k=-1.0)


class TestFeasibleScale:
    PARAMS = dict(s=3.0, t=4.0, rho1=0.0, rho2=2.0)

    def test_all_zero_is_vacuous(self):
        cs = _manual_coeffs({-1: 0.0, 0: 0.0, 1: 0.0})
        k = sw.max_feasible_k(cs, sw.SequenceNormParams(**self.PARAMS), 1.0)
        assert k.vacuous
        assert float(k) == 64.0

    def test_bisection_hand_value(self):
        # single unit coefficient at n = 0: norm(k) = exp(2k), so the largest
        # feasible k for budget B is log(B) / 2
        cs = _manual_coeffs({-1: 0.0, 0: 1.0, 1: 0.0})
        p = sw.SequenceNormParams(**self.PARAMS)
        k = sw.max_feasible_k(cs, p, np.exp(4.0))
        assert not k.vacuous
        assert abs(float(k) - 2.0) < 2e-3

    def test_monotone_in_budget(self):
        cs = _manual_coeffs({-1: 0.5, 0: 1.0, 1: 0.125})
        p = sw.SequenceNormParams(**self.PARAMS)
        k_small = sw.max_feasible_k(cs, p, 2.0)
        k_large = sw.max_feasible_k(cs, p, 200.0)
        assert float(k_large) >= float(k_small)


class TestHalfplaneProbe:
    def test_finite_on_small_sample_set(self, ws, expansion_grid):
        x = expansion_grid.points()
        f = sw.SampledFunction(expansion_grid, np.exp(-x * x))
        params = sw.HalfplaneParams(h=0.2, t=4.0, tau1=2.0, tau2=2.0)
        samples = [(0.0, 1.0), (1.5, 0.5), (-2.0, 2.0)]
        got = sw.halfplane_norm_probe(ws, f, params, samples)
        assert np.isfinite(got) and got > 0.0

    def test_nonpositive_scale_rejected(self, ws, expansion_grid):
        x = expansion_grid.points()
        f = sw.SampledFunction(expansion_grid, np.exp(-x * x))
        params = sw.HalfplaneParams(h=0.2, t=4.0, tau1=2.0, tau2=2.0)
        with pytest.raises(MetricsError):
            sw.halfplane_norm_probe(ws, f, params, [(0.0, 0.0)])
