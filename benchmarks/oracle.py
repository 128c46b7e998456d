"""Independent reference values for the benchmark's correctness checks.

Nothing here imports the program.  The seed bump comes from its closed form
with the normaliser found by ``scipy.integrate.quad``; its primitive is
another adaptive quadrature (never a table); the bell is built from that
primitive.  From these:

* ``psi(x) = (1/pi) int b(xi) cos(xi (x + 1/2)) dxi`` by oscillatory
  adaptive quadrature (QUADPACK QAWO), and
* the wavelet coefficients of the gevrey-band input, on the Fourier side,

      c_{m,n} = 2^{-m/2}/(2 pi) int f_hat(xi) conj(psi_hat(xi/2^m)) e^{i xi n/2^m} dxi
              = 2^{-m/2}/pi int_0^inf f_hat(xi) b(xi/2^m) cos(xi (n - 1/2)/2^m) dxi,

  with ``f_hat`` known in closed form.

The program evaluates the same quantities by trapezoid sums over a tabulated
primitive, spline interpolation of dense tables and physical-side quadrature,
so a fault in any of those cannot cancel out of a comparison.
"""

from __future__ import annotations

import math

from scipy.integrate import quad

_QUAD = {"epsabs": 1e-13, "epsrel": 1e-11, "limit": 400}


def _gevrey_profile(u: float, rho: float) -> float:
    """exp(-(1 - u^2)^(-1/(rho-1))) on |u| < 1, literal 0 outside."""
    t = 1.0 - u * u
    if t <= 0.0:
        return 0.0
    return math.exp(-t ** (-1.0 / (rho - 1.0)))


class WaveletOracle:
    """Closed-form bump, quadrature primitive and bell for parameters (a, rho)."""

    def __init__(self, a: float = 1.0, rho: float = 2.0):
        self.a = a
        self.rho = rho
        mass, _ = quad(self._raw, -a, a, **_QUAD)
        self.norm = (math.pi / 2) / mass
        self.support = (math.pi - a, 2 * math.pi + 2 * a)

    def _raw(self, x: float) -> float:
        return _gevrey_profile(x / self.a, self.rho)

    def cumulative(self, t: float) -> float:
        """int_{-a}^{t} bump, integrating over the shorter side for accuracy."""
        a = self.a
        if t <= -a:
            return 0.0
        if t >= a:
            return math.pi / 2
        if t <= 0.0:
            return self.norm * quad(self._raw, -a, t, **_QUAD)[0]
        return math.pi / 2 - self.norm * quad(self._raw, t, a, **_QUAD)[0]

    def bell(self, xi: float) -> float:
        u = abs(xi)
        lo, hi = self.support
        if u <= lo or u >= hi:
            return 0.0
        return (math.sin(self.cumulative(u - math.pi))
                * math.cos(self.cumulative(u / 2 - math.pi)))

    def psi(self, x: float) -> float:
        lo, hi = self.support
        val, _ = quad(self.bell, lo, hi, weight="cos", wvar=x + 0.5, **_QUAD)
        return val / math.pi


class GevreyBandSpectrum:
    """f_hat of the program's ``gevrey-band:xi0,xi1`` input, unit L2 norm.

    f(x) = (1/pi) int_{xi0}^{xi1} A(xi) cos(x xi) dxi / norm, so f_hat is the
    even function A(|xi|) / norm with norm^2 = (1/pi) int A^2.
    """

    def __init__(self, xi0: float, xi1: float, rho: float = 2.0):
        self.xi0, self.xi1, self.rho = xi0, xi1, rho
        energy, _ = quad(lambda xi: self._amp(xi) ** 2, xi0, xi1, **_QUAD)
        self.norm = math.sqrt(energy / math.pi)

    def _amp(self, xi: float) -> float:
        u = (2 * xi - self.xi0 - self.xi1) / (self.xi1 - self.xi0)
        return _gevrey_profile(u, self.rho)

    def __call__(self, xi: float) -> float:
        return self._amp(abs(xi)) / self.norm


def wavelet_coefficient(oracle: WaveletOracle, spectrum: GevreyBandSpectrum,
                        m: int, n: int) -> float:
    """<f, psi_{m,n}> from the Fourier side (real: f and psi are real)."""
    scale = 2.0 ** m
    lo = max(spectrum.xi0, scale * oracle.support[0])
    hi = min(spectrum.xi1, scale * oracle.support[1])
    if hi <= lo:
        return 0.0
    val, _ = quad(lambda xi: spectrum(xi) * oracle.bell(xi / scale), lo, hi,
                  weight="cos", wvar=(n - 0.5) / scale, **_QUAD)
    return 2.0 ** (-m / 2.0) * val / math.pi
