"""End-to-end acceptance checks for the reference build (a = 1.0, rho2 = 2.0).

One test per certified property; each prints a single PASS/FAIL line and
enforces its tolerance and runtime budget (measured over the check itself;
the shared reference build is a session fixture).

Known honest failure: the free-exponent decay fit.  The wavelet does decay
like exp(-c sqrt(x)) -- the fixed-exponent-0.5 fit has R^2 = 0.996 and beats
the pure-exponential model -- but its envelope carries an algebraic prefactor
(two band edges with different decay rates superpose), and the two-parameter
model log|f| = log C - c x^(1/rho) absorbs that prefactor by drifting the
grid-searched exponent below the nominal window.  On synthetic data the same
estimator recovers 0.500 exactly when no prefactor is present and 0.400 with
an x^(-3/4) prefactor, so the drift is a property of the estimator, not of
the construction.  The test reports the failure rather than widening the
band or reshaping the envelope to force a pass.
"""

import time
from math import factorial

import numpy as np
import pytest

import subexp_wavelets as sw
from subexp_wavelets import numerics, testfuncs

def _finish(name, budget, t0, ok, detail):
    elapsed = time.time() - t0
    line = f"{'PASS' if ok else 'FAIL'}: {name} ({detail}; {elapsed:.1f}s)"
    print(line)
    assert elapsed < budget, f"runtime budget exceeded: {elapsed:.1f}s > {budget}s"
    assert ok, line


def test_bell_support_and_edge_values(ws):
    t0 = time.time()
    outside = np.concatenate([np.linspace(0.0, 2 * np.pi / 3 - 1e-9, 200),
                              np.linspace(8 * np.pi / 3 + 1e-9, 60.0, 200)])
    zeros_ok = bool(np.all(ws.bell(outside) == 0.0)
                    and np.all(ws.bell(-outside) == 0.0))
    edge_dev = max(abs(float(ws.bell(np.pi)) - np.sqrt(2) / 2),
                   abs(float(ws.bell(2 * np.pi)) - np.sqrt(2) / 2))
    ok = zeros_ok and edge_dev < 1e-9
    _finish("bell support and crossover values", 1.0, t0, ok,
            f"exact zeros outside the band, edge deviation {edge_dev:.2e}")


def test_orthonormality(ws, cross_gram_fourier):
    t0 = time.time()
    xi = np.linspace(-np.pi, np.pi, 512)
    ks = np.arange(-6, 7)
    psi_sum = sum(np.abs(ws.psi_hat_fn(xi + 2 * np.pi * k)) ** 2 for k in ks)
    phi_sum = sum(np.abs(ws.phi_hat_fn(xi + 2 * np.pi * k)) ** 2 for k in ks)
    translate_dev = max(float(np.max(np.abs(psi_sum - 1.0))),
                        float(np.max(np.abs(phi_sum - 1.0))))
    gram = cross_gram_fourier(ws, range(-3, 4), range(-3, 4))
    gram_dev = float(np.max(np.abs(gram - np.eye(49))))
    ok = translate_dev < 1e-10 and gram_dev < 1e-7
    _finish("orthonormality", 30.0, t0, ok,
            f"translate-energy dev {translate_dev:.2e}, "
            f"49x49 Gram dev {gram_dev:.2e}")


def test_vanishing_moments(ws):
    """Moments through order 10 within 1e-7 * k!^2.

    The k-th moment of the wavelet equals i^k times the k-th derivative of
    its spectrum at frequency zero, and the spectrum is literally zero on a
    neighborhood of the origin -- so every moment vanishes identically; the
    spectral-derivative stencil evaluates that to exact zeros.  The
    physical-side quadrature corroborates k <= 2; beyond that, roundoff of
    any sampled table is amplified by x^k over the integration window past
    the stated tolerances, so the spectral route is the meaningful check.
    """
    t0 = time.time()
    spectral = sw.spectral_moments(ws)
    physical = numerics.moments(*ws.wide_table("psi"), 2)
    tols = np.array([1e-7 * factorial(k) ** 2 for k in range(11)])
    ok = bool(np.all(np.abs(spectral) < tols)
              and np.all(np.abs(physical) < tols[:3]))
    _finish("vanishing moments k = 0..10", 5.0, t0, ok,
            f"spectral max {np.max(np.abs(spectral)):.1e}, "
            f"physical k<=2 max {np.max(np.abs(physical)):.1e}")


def test_subexponential_decay_free_fit(ws):
    t0 = time.time()
    table = sw.decay_profile(ws, 40.0)
    table = table[table[:, 0] >= 5.0]
    free = sw.subexp_decay_fit(table, exponent_mode="free")
    exponential = sw.subexp_decay_fit(table, exponent_mode="fixed", rho=1.0)
    in_band = 0.40 <= free.exponent <= 0.60
    fit_ok = free.r_squared > 0.9
    beats_exponential = exponential.r_squared < free.r_squared
    ok = in_band and fit_ok and beats_exponential
    _finish("subexponential decay (free-exponent fit)", 5.0, t0, ok,
            f"exponent {free.exponent:.3f} (target [0.40, 0.60]), "
            f"R^2 {free.r_squared:.4f}, exponential R^2 "
            f"{exponential.r_squared:.4f}; known honest failure: the "
            f"algebraic prefactor of the envelope biases the two-parameter "
            f"estimator below the asymptotic 0.5 -- see the module docstring")


def test_kernel_decay(ws):
    t0 = time.time()
    pk = sw.build_kernel(ws)
    fit = sw.kernel_decay_certificate(pk)
    ok = fit.rate_c > 0.0 and fit.exponent == 0.5 and fit.r_squared > 0.95
    _finish("projection kernel off-diagonal decay", 10.0, t0, ok,
            f"rate {fit.rate_c:.3f}, R^2 {fit.r_squared:.4f}")


def test_polynomial_reproduction(ws):
    t0 = time.time()
    pk = sw.build_kernel(ws)
    rep = sw.polynomial_reproduction(pk)
    dev = rep["max_deviation_per_degree"]
    ok = dev[0] < 1e-8 and dev[1] < 1e-8 and rep["probes"] == 32
    _finish("kernel mass and first-moment annihilation", 10.0, t0, ok,
            f"degree-0 dev {dev[0]:.2e}, degree-1 dev {dev[1]:.2e} "
            f"at 32 probes")


def test_projection_convergence(ws):
    """Gaussian projection error drops level by level to below 1e-6.

    Past level ~2 the true error sits below double-precision quadrature
    resolution, so monotonicity is enforced up to a 1e-9 noise floor
    (observed floor fluctuation is ~5e-12).
    """
    t0 = time.time()
    grid = sw.Grid1D.from_interval(-12.0, 12.0, 1537)
    f = testfuncs.sample(testfuncs.gaussian(), grid)
    params = sw.SeminormParams(rho1=0.0, rho2=2.0, h=0.5, c=0.5, max_beta=2)
    rows = sw.mra_convergence_experiment(ws, f, range(7), params)
    errs = [r["sup_error"] for r in rows]
    sems = [r["seminorm"] for r in rows]
    floor = 1e-9
    monotone = all(errs[i + 1] <= max(errs[i], floor)
                   for i in range(len(errs) - 1))
    ok = monotone and errs[-1] < 1e-6 and max(sems) <= 3.0 * sems[0]
    _finish("projection convergence on a Gaussian", 60.0, t0, ok,
            f"errors {errs[0]:.1e} -> {errs[1]:.1e} -> ... -> {errs[-1]:.1e}, "
            f"seminorm ratio {max(sems) / sems[0]:.3f}")


def test_partial_sums_parseval_bessel(ws, band_function, expansion_grid):
    t0 = time.time()
    sups = []
    bessel_ok = True
    for (M, N) in ((2, 8), (4, 16), (6, 32)):
        window = sw.IndexWindow(M, N)
        coeffs = sw.analyze(ws, band_function, window)
        partial = sw.synthesize_partial(ws, coeffs, expansion_grid)
        sups.append(float(np.max(np.abs(partial.values
                                        - band_function.values))))
        gap = sw.bessel_gap(ws, band_function, window)
        bessel_ok = bessel_ok and gap["excess"] <= 1e-9
    decreasing = sups[0] > sups[1] > sups[2]
    parseval = sw.parseval_check(ws, band_function, band_function,
                                 sw.IndexWindow(6, 32))
    ok = decreasing and bessel_ok and parseval["gap"] < 1e-5
    _finish("partial sums, Parseval, and Bessel for a band function", 120.0,
            t0, ok,
            f"sup errors {sups[0]:.2e} > {sups[1]:.2e} > {sups[2]:.2e}, "
            f"Parseval gap {parseval['gap']:.2e}")


def test_coefficient_weight_feasibility(ws, band_function):
    t0 = time.time()
    coeffs = sw.analyze(ws, band_function, sw.IndexWindow(6, 32))
    params = sw.SequenceNormParams(s=3.0, t=4.0, rho1=0.0, rho2=2.0)
    k = sw.max_feasible_k(coeffs, params, 10.0 * coeffs.sup_magnitude())
    ok = (not k.vacuous) and float(k) > 0.1
    _finish("feasible exponential weight on the coefficients", 10.0, t0, ok,
            f"max feasible k = {float(k):.4f}")
