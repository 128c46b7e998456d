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


def _cross_gram_fourier(ws, m_values, n_values):
    """Gram matrix of atoms psi_{m,n} computed on the Fourier side.

    Each atom's spectrum is 2^(-m/2) exp(-i xi n / 2^m) psi_hat(xi / 2^m),
    compactly supported, so a single fine trapezoid grid (32768 nodes)
    covering the union of the scaled bands gives every pairwise inner product
    at once: an oracle that reads no table or sample of the system.
    """
    m_values = list(m_values)
    n_values = list(n_values)
    top = max(2.0 ** m for m in m_values) * (8 * np.pi / 3)
    grid = sw.Grid1D.from_interval(-top, top, 32768)
    xi = grid.points()
    w = grid.trapezoid_weights()
    rows = []
    for m in m_values:
        scale = 2.0 ** (-m)
        base = 2.0 ** (-m / 2.0) * ws.psi_hat_fn(xi * scale)
        for n in n_values:
            rows.append(base * np.exp(-1j * xi * n * scale))
    A = np.array(rows)
    return ((A * w) @ np.conj(A.T)) / (2 * np.pi)


@pytest.fixture(scope="session")
def cross_gram_fourier():
    """``(ws, m_values, n_values) -> G``, the Fourier-side Gram oracle."""
    return _cross_gram_fourier
