"""Analytic test functions: the grid route against the scattered-point route."""

import numpy as np
import pytest

import subexp_wavelets as sw
from subexp_wavelets import testfuncs


def test_gevrey_band_grid_route_matches_direct_sum(expansion_grid):
    # sample() synthesizes the whole grid with the chirp-z engine; the
    # callable itself is the direct sum of synthesize_values
    fn = testfuncs.gevrey_band(np.pi, 2 * np.pi)
    f = testfuncs.sample(fn, expansion_grid)
    rng = np.random.default_rng(20190624)
    n = expansion_grid.count
    idx = np.concatenate([rng.choice(n, 200, replace=False),
                          np.arange(20), np.arange(n - 20, n)])
    x = expansion_grid.points()[idx]
    assert np.max(np.abs(f.values[idx])) > 0.1  # probes reach the bulk too
    assert np.max(np.abs(f.values[idx] - fn(x))) <= 1e-12
    assert np.all(f.values.imag == 0.0)
    assert isinstance(fn(0.5), float)


def test_sample_2d_synthesizes_each_axis():
    fx = testfuncs.gevrey_band(np.pi, 2 * np.pi)
    fy = testfuncs.gevrey_band(0.5 * np.pi, 1.5 * np.pi, rho=3.0)
    gx = sw.Grid1D.from_interval(-20.0, 20.0, 321)
    gy = sw.Grid1D.from_interval(-15.0, 17.0, 257)
    f = testfuncs.sample_2d(fx, fy, gx, gy)
    want = np.outer(fx(gx.points()), fy(gy.points()))
    assert np.max(np.abs(f.values - want)) <= 1e-12


@pytest.mark.parametrize("center, scale, what", [
    pytest.param(0.0, 0.0, "scale", id="0.0"),
    pytest.param(0.0, -1.0, "scale", id="-1.0"),
    pytest.param(0.0, float("nan"), "scale", id="nan"),
    pytest.param(float("inf"), 1.0, "center", id="center-inf"),
    pytest.param(float("nan"), 1.0, "center", id="center-nan")])
def test_gaussian_rejects_a_scale_that_is_not_finite_and_positive(center, scale, what):
    # rejected before any sample is taken, so no division warns first; a
    # center that is not finite is rejected too (inf would sample zeros)
    with pytest.raises(testfuncs.TestFunctionError, match=what):
        testfuncs.gaussian(center=center, scale=scale)


@pytest.mark.parametrize("xi0, xi1, rho, what", [
    pytest.param(np.pi, 2 * np.pi, np.inf, "rho", id="rho-inf"),
    pytest.param(np.pi, 2 * np.pi, np.nan, "rho", id="rho-nan"),
    pytest.param(np.pi, 2 * np.pi, 1.0, "rho", id="rho-1"),
    pytest.param(np.pi, np.inf, 2.0, "xi1", id="xi1-inf"),
    pytest.param(np.nan, 2 * np.pi, 2.0, "xi1", id="xi0-nan"),
    pytest.param(2.0, 1.0, 2.0, "xi1", id="reversed"),
    pytest.param(-1.0, 1.0, 2.0, "xi1", id="negative")])
def test_gevrey_band_rejects_a_band_or_order_out_of_range(xi0, xi1, rho, what):
    # rejected before any sample is taken, so nothing warns first; rho = inf
    # would give a flat box spectrum, which is not Gevrey
    with pytest.raises(testfuncs.TestFunctionError, match=what):
        testfuncs.gevrey_band(xi0, xi1, rho=rho)


def test_gevrey_band_description_names_its_order():
    assert testfuncs.gevrey_band(np.pi, 2 * np.pi).description == \
        "gevrey-band(3.14159,6.28319)"
    assert testfuncs.gevrey_band(np.pi, 2 * np.pi, rho=3.0).description == \
        "gevrey-band(3.14159,6.28319,rho=3)"


@pytest.mark.parametrize("spec", ["gaussian-d2:5,7", "gaussian-d0:1", "gaussian-d3:"])
def test_gaussian_derivative_descriptor_takes_no_arguments(spec):
    # the arguments were dropped, and the report named the plain derivative
    with pytest.raises(testfuncs.TestFunctionError, match="no arguments"):
        testfuncs.parse_spec(spec)


@pytest.mark.parametrize("token", [".pi", "-.pi"])
def test_parse_scalar_rejects_a_pi_multiple_without_digits(token):
    # float(".") used to raise a bare ValueError, which the CLI let through
    # as a traceback
    with pytest.raises(testfuncs.TestFunctionError, match="cannot parse"):
        testfuncs.parse_scalar(token)


def test_parse_scalar_reads_a_pi_multiple_with_a_leading_point():
    assert testfuncs.parse_scalar(".5pi") == 0.5 * np.pi
    assert testfuncs.parse_scalar("-.5pi") == -0.5 * np.pi
