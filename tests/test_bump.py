"""Seed bump: closed-form values, primitive table, and input validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subexp_wavelets as sw
from subexp_wavelets.bump import _HALF_PANELS, BumpError, TARGET_INTEGRAL


@pytest.fixture(scope="module")
def bump():
    return sw.build_bump(1.0, 2.0)


def _edge_probes(*ends) -> np.ndarray:
    """Each of ``+-end`` and one ulp either side of it, 0, a negative
    value, +-inf and NaN."""
    ends = np.array(ends, dtype=float)
    ends = np.concatenate([ends, -ends])
    return np.concatenate([np.nextafter(ends, -np.inf), ends, np.nextafter(ends, np.inf),
                           [0.0, -0.3, np.inf, -np.inf, np.nan]])


def _cumulative_reference(bump, xi):
    """``GevreyBump.cumulative`` as first written, with ``nan_to_num``."""
    h = bump.a / _HALF_PANELS
    s = (np.clip(np.asarray(xi, dtype=float), -bump.a, bump.a) + bump.a) / h
    i = np.minimum(np.floor(np.nan_to_num(s)), 2 * _HALF_PANELS - 1).astype(np.intp)
    t = s - i
    y0, y1 = bump._cumtable[i], bump._cumtable[i + 1]
    d0, d1 = h * bump._slopes[i], h * bump._slopes[i + 1]
    out = y0 + t * t * (3.0 - 2.0 * t) * (y1 - y0) \
        + t * (1.0 - t) * ((1.0 - t) * d0 - t * d1)
    return np.clip(out, 0.0, TARGET_INTEGRAL)


class TestProfile:
    def test_closed_form_values(self, bump):
        # profile is N exp(-1 / (1 - x^2)) for rho = 2; check against the
        # stored normalization constant directly
        assert np.isclose(bump(0.0), bump.norm_constant * np.exp(-1.0),
                          rtol=1e-14)
        assert np.isclose(bump(0.5), bump.norm_constant * np.exp(-4.0 / 3.0),
                          rtol=1e-14)

    def test_support_is_exact(self, bump):
        assert bump(1.0) == 0.0
        assert bump(-1.0) == 0.0
        assert bump(1.5) == 0.0
        assert np.all(bump(np.linspace(1.0, 50.0, 100)) == 0.0)

    def test_even_symmetry(self, bump):
        x = np.linspace(0.0, 1.0, 257)
        assert np.array_equal(bump(x), bump(-x))

    def test_total_mass(self, bump):
        # independent quadrature of the normalized profile
        x = np.linspace(-1.0, 1.0, 200001)
        total = np.trapezoid(bump(x), dx=x[1] - x[0])
        assert abs(total - TARGET_INTEGRAL) < 1e-10


class TestCumulative:
    def test_endpoints_are_pinned(self, bump):
        assert bump.cumulative(-1.0) == 0.0
        assert bump.cumulative(1.0) == TARGET_INTEGRAL
        assert bump.cumulative(-5.0) == 0.0
        assert bump.cumulative(7.0) == TARGET_INTEGRAL

    def test_midpoint_is_half_mass(self, bump):
        assert abs(bump.cumulative(0.0) - TARGET_INTEGRAL / 2) < 1e-15

    def test_nan_stays_nan(self, bump):
        got = bump.cumulative(np.array([np.nan, 0.0]))
        assert np.isnan(got[0]) and got[1] == TARGET_INTEGRAL / 2

    @given(x=st.floats(min_value=-1.0, max_value=1.0,
                       allow_nan=False, allow_infinity=False))
    @settings(max_examples=100, deadline=None)
    def test_reflection_identity(self, bump, x):
        # symmetric knot table makes this hold to machine precision; the
        # bell orthonormality identities downstream rely on it
        got = bump.cumulative(x) + bump.cumulative(-x)
        assert abs(got - TARGET_INTEGRAL) < 1e-13

    def test_bits_of_the_nan_to_num_formula(self, bump):
        # the slot index as np.floor(np.nan_to_num(s)) formed it: every
        # value, NaN and the infinities included, keeps its bits
        for x in _edge_probes(bump.a):
            for arg in (x, np.array([x])):
                got, want = bump.cumulative(arg), _cumulative_reference(bump, arg)
                assert np.shape(got) == np.shape(want)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), x
        probes = _edge_probes(bump.a)
        assert bump.cumulative(probes).tobytes() == _cumulative_reference(
            bump, probes).tobytes()

    def test_monotone_nondecreasing(self, bump):
        # the endpoint knot is pinned to the exact mass, which can sit one
        # ulp below the accumulated sum: allow that much backlash
        x = np.linspace(-1.1, 1.1, 2001)
        c = bump.cumulative(x)
        assert float(np.min(np.diff(c))) >= -1e-13


class TestValidation:
    def test_width_constraint(self):
        with pytest.raises(BumpError, match="pi/3"):
            sw.build_bump(1.2, 2.0)
        with pytest.raises(BumpError):
            sw.build_bump(0.0, 2.0)

    def test_order_constraint(self):
        with pytest.raises(BumpError, match="exceed 1"):
            sw.build_bump(1.0, 1.0)

    @pytest.mark.parametrize("rho", [np.inf, np.nan])
    def test_order_must_be_finite(self, rho):
        # at rho = inf the exponent -1/(rho - 1) is -0 and the bump a box
        with pytest.raises(BumpError, match="finite"):
            sw.build_bump(1.0, rho)
