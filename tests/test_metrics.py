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

    @pytest.mark.parametrize("rho", [0.0, -2.0, np.nan, np.inf])
    def test_fixed_rho_must_be_positive_and_finite(self, rho):
        # rho = 0 used to divide by zero, nan to fail inside LAPACK, and
        # rho = -2 to return a fit with exponent -0.5
        with pytest.raises(MetricsError, match="rho must be positive"):
            sw.subexp_decay_fit(_synthetic(1.0, 0.5), "fixed", rho=rho)

    @pytest.mark.parametrize("samples", [np.arange(30.0), np.ones((30, 3))],
                             ids=["1d", "three-columns"])
    def test_samples_must_be_an_n_by_2_table(self, samples):
        # a 1-d array used to raise a bare IndexError; a third column was
        # silently dropped
        with pytest.raises(MetricsError, match=r"\(N, 2\) table"):
            sw.subexp_decay_fit(samples, "fixed", rho=2.0)

    @pytest.mark.parametrize("column, bad", [(1, np.inf), (1, np.nan), (0, np.nan)],
                             ids=["inf-value", "nan-value", "nan-x"])
    def test_samples_must_be_finite(self, column, bad):
        # an inf value used to give a nan fit, a nan value a clean fit over
        # the other samples, and a nan x a fit over a quarter of the envelope
        samples = _synthetic(3.0, 0.5)
        samples[100, column] = bad
        with pytest.raises(MetricsError, match="must be finite"):
            sw.subexp_decay_fit(samples, "fixed", rho=2.0)

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

    @pytest.mark.parametrize("rho1", [np.nan, np.inf])
    def test_rho1_must_be_finite(self, rho1):
        # rho1 = nan or inf used to pass, and the seminorm of a Gaussian
        # then read 0.0
        with pytest.raises(MetricsError, match="rho1 must be finite"):
            sw.SeminormParams(rho1=rho1, rho2=2.0, h=1.0, c=0.5, max_beta=0)

    @pytest.mark.parametrize("max_beta", [1.5, 2.0, "2", None, -1])
    def test_max_beta_must_be_a_nonnegative_integer(self, max_beta):
        with pytest.raises(MetricsError, match="max_beta must be a nonnegative integer"):
            sw.SeminormParams(rho1=0.0, rho2=2.0, h=1.0, c=0.5, max_beta=max_beta)

    @pytest.mark.parametrize("key", ["rho1", "rho2", "h", "c"])
    @pytest.mark.parametrize("bad", ["2", None])
    def test_non_numbers_are_rejected(self, key, bad):
        # a string or None used to reach np.isfinite and raise a bare TypeError
        good = {"rho1": 0.0, "rho2": 2.0, "h": 1.0, "c": 0.5, "max_beta": 0}
        with pytest.raises(MetricsError, match="finite"):
            sw.SeminormParams(**{**good, key: bad})

    def test_numpy_floats_accepted(self):
        params = sw.SeminormParams(rho1=np.float32(0.5), rho2=np.float64(2.0),
                                   h=np.float32(1.0), c=np.int64(1), max_beta=0)
        assert params.rho2 == 2.0

    def test_numpy_integer_max_beta_accepted(self):
        params = sw.SeminormParams(rho1=0.0, rho2=2.0, h=1.0, c=0.5,
                                   max_beta=np.int64(1))
        probes = np.linspace(-3.0, 3.0, 161)
        got = sw.seminorm_estimate(np.ones((2, probes.size)), params, probes)
        assert got > 0.0


def _manual_coeffs(values_by_shift):
    from subexp_wavelets.expansion import CoefficientSet, IndexWindow
    window = IndexWindow(0, 1)
    values = np.array([values_by_shift[n] for n in (-1, 0, 1)], dtype=complex)
    return CoefficientSet(window=window, values=values.reshape(window.shape))


def _index_weight(index, p):
    """w(lambda) of one index, with Euclidean |n|, from the closed form:
    (2^-m)^(1/(t-rho2)) + (2^m)^(1/(s-rho1)) + (|n| 2^-m)^(1/t)."""
    r = np.sqrt(sum(float(v) ** 2 for v in index.n))
    return ((2.0 ** -index.m) ** (1.0 / (p.t - p.rho2))
            + (2.0 ** index.m) ** (1.0 / (p.s - p.rho1))
            + (r * 2.0 ** -index.m) ** (1.0 / p.t))


class TestSequenceNorm:
    PARAMS = dict(s=3.0, t=4.0, rho1=0.0, rho2=2.0)

    def test_weight_hand_value(self):
        from subexp_wavelets.expansion import WaveletIndex
        p = sw.SequenceNormParams(**self.PARAMS)
        idx = WaveletIndex(epsilon=(1,), m=0, n=(3,))
        # (2^0)^(1/(t-rho2)) + (2^0)^(1/(s-rho1)) + 3^(1/t) = 2 + 3^0.25
        assert abs(_index_weight(idx, p) - (2.0 + 3.0 ** 0.25)) < 1e-14

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

    def test_nan_weight_scale_rejected(self):
        # k = nan used to pass and make every weighted entry vanish
        with pytest.raises(MetricsError, match="nonnegative"):
            sw.SequenceNormParams(k=np.nan, **self.PARAMS)

    @pytest.mark.parametrize("field, value", [
        ("s", "3"), ("s", np.inf), ("t", None), ("t", np.inf),
        ("rho1", None), ("rho1", -np.inf), ("rho2", "2"), ("rho2", -np.inf),
        ("k", np.inf), ("k", "1")])
    def test_params_must_be_finite_reals(self, field, value):
        # strings and None used to raise a bare TypeError from a comparison;
        # the infinities passed, and k = inf made every nonzero norm inf
        with pytest.raises(MetricsError, match="finite"):
            sw.SequenceNormParams(**{**self.PARAMS, "k": 1.0, field: value})

    @pytest.mark.parametrize("M, N, d", [(2, 4, 1), (2, 8, 2)])
    def test_weights_follow_the_index_order(self, M, N, d):
        # the weight array must sit in the layout of values: compare with
        # a loop over the index-keyed view and _index_weight
        from subexp_wavelets.expansion import CoefficientSet, IndexWindow
        window = IndexWindow(M, N, d)
        rng = np.random.default_rng(20190624)
        values = (rng.standard_normal(window.shape)
                  + 1j * rng.standard_normal(window.shape))
        cs = CoefficientSet(window=window, values=values)
        for k in (0.3, 1.0, 2.5):
            p = sw.SequenceNormParams(k=k, **self.PARAMS)
            want = max(abs(c) * np.exp(k * _index_weight(index, p))
                       for index, c in cs.coefficients.items())
            assert abs(sw.sequence_norm(cs, p) - want) <= 1e-12 * want


class TestFeasibleScale:
    PARAMS = dict(s=3.0, t=4.0, rho1=0.0, rho2=2.0)

    def test_all_zero_is_vacuous(self):
        cs = _manual_coeffs({-1: 0.0, 0: 0.0, 1: 0.0})
        k = sw.max_feasible_k(cs, sw.SequenceNormParams(**self.PARAMS), 1.0)
        assert k.vacuous
        assert float(k) == 64.0

    def test_closed_form_hand_value(self):
        # single unit coefficient at n = 0: norm(k) = exp(2k), so the largest
        # feasible k for budget B is log(B) / 2
        cs = _manual_coeffs({-1: 0.0, 0: 1.0, 1: 0.0})
        p = sw.SequenceNormParams(**self.PARAMS)
        k = sw.max_feasible_k(cs, p, np.exp(4.0))
        assert not k.vacuous
        assert abs(float(k) - 2.0) < 1e-12

    def test_norm_at_the_feasible_k_meets_the_budget(self):
        cs = _manual_coeffs({-1: 0.5, 0: 1.0, 1: 0.125j})
        budget = 7.0
        k = sw.max_feasible_k(cs, sw.SequenceNormParams(**self.PARAMS), budget)
        assert 0.0 < float(k) < 64.0
        at_k = sw.SequenceNormParams(k=float(k), **self.PARAMS)
        assert sw.sequence_norm(cs, at_k) <= budget * (1 + 1e-12)

    @pytest.mark.parametrize("budget", [np.nan, 0.0, -1.0, np.inf])
    def test_budget_must_be_positive(self, budget):
        # nan, 0 and -1 used to return k = 0 without a word; an infinite
        # budget bounds nothing
        cs = _manual_coeffs({-1: 0.5, 0: 1.0, 1: 0.125})
        with pytest.raises(MetricsError, match="budget"):
            sw.max_feasible_k(cs, sw.SequenceNormParams(**self.PARAMS), budget)

    def test_monotone_in_budget(self):
        cs = _manual_coeffs({-1: 0.5, 0: 1.0, 1: 0.125})
        p = sw.SequenceNormParams(**self.PARAMS)
        k_small = sw.max_feasible_k(cs, p, 2.0)
        k_large = sw.max_feasible_k(cs, p, 200.0)
        assert float(k_large) >= float(k_small)
