"""Shared fixtures: one reference wavelet system for the whole session.

Building the system (samples + certificate suite, which fills the dense
tables) takes well under a second; it is session-scoped so that the tables
are built once, and every test treats it as immutable.
"""

import numpy as np
import pytest

import subexp_wavelets as sw
from subexp_wavelets import testfuncs


@pytest.fixture(scope="session")
def ws():
    """Reference build (a = 1.0, rho2 = 2.0) with the full certificate suite."""
    return sw.build_wavelet_system(1.0, 2.0)


@pytest.fixture(scope="session")
def expansion_grid():
    """[-80, 80] at spacing 1/128.

    The spacing keeps the alias frequency (pi/h ~ 402 per unit, i.e. ~804
    rad) above the top band edge of every atom with |m| <= 6, and the window
    puts the tails of the band-limited test functions below ~1e-8.
    """
    return sw.Grid1D(-80.0, 1.0 / 128, 20481)


@pytest.fixture(scope="session")
def band_function(expansion_grid):
    """Unit-norm real function whose spectrum is a bump on [pi, 2pi]."""
    fn = testfuncs.gevrey_band(np.pi, 2 * np.pi)
    f = testfuncs.sample(fn, expansion_grid)
    return f
