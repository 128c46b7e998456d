"""Compactly supported Gevrey-class seed bump and its primitive.

The seed is the classical family

    bump(x) = N * exp(-(1 - (x/a)^2)^(-1/(rho-1)))   for |x| < a,   0 otherwise,

which lies in Gevrey class ``rho`` (flatness exponent ``1/(rho-1)`` at the
support edge).  ``N`` is fixed so the total integral is pi/2, the mass
required by the bell construction downstream.

The primitive, which the bell evaluation calls millions of times, is a dense
table read as the cubic Hermite spline whose slopes are the bump values: C^1,
since linear interpolation would put kinks into the bell, and echoes of
about 1e-10 into phi and psi at 2 pi over the knot spacing.  Each panel is
``h/2 (v0 + v1) + h^2/12 (d0 - d1)``, the integral of the bump's cubic
Hermite interpolant with the analytic slope ``d``, and ``N`` comes from the
same sum.  The upper half of the table is ``pi/2 - cumulative(-x)`` and the
midpoint exactly pi/4, so ``cumulative(x) + cumulative(-x) = pi/2`` holds
to machine precision; the bell orthonormality identities downstream inherit
their accuracy from exactly this cancellation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lgamma

import numpy as np

TARGET_INTEGRAL = np.pi / 2
_HALF_PANELS = 8192  # panels on [-a, 0]; a power of 2, so 0 is an exact knot


class BumpError(ValueError):
    pass


def gevrey_profile(x: np.ndarray, a: float, rho: float) -> np.ndarray:
    """exp(-(1 - (x/a)^2)^(-1/(rho-1))) for |x| < a, 0 otherwise (unnormalized)."""
    out = np.zeros_like(x, dtype=float)
    inside = np.abs(x) < a
    t = 1.0 - (x[inside] / a) ** 2
    out[inside] = np.exp(-t ** (-1.0 / (rho - 1.0)))
    return out


@dataclass(frozen=True)
class GevreyBump:
    """Normalized even Gevrey bump supported exactly on [-a, a]."""

    a: float
    rho: float
    norm_constant: float
    _cumtable: np.ndarray = field(default=None, repr=False, compare=False)
    _slopes: np.ndarray = field(default=None, repr=False, compare=False)

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        out = self.norm_constant * gevrey_profile(x, self.a, self.rho)
        return out[0] if scalar else out

    def cumulative(self, xi) -> np.ndarray:
        """``int_{-inf}^{xi}`` of the bump (0 below -a, pi/2 above a), from the table."""
        h = self.a / _HALF_PANELS
        s = (np.clip(np.asarray(xi, dtype=float), -self.a, self.a) + self.a) / h
        # s >= 0 after the clip; fmax takes a NaN s to slot 0, where t is NaN
        i = np.minimum(np.fmax(np.floor(s), 0.0), 2 * _HALF_PANELS - 1).astype(np.intp)
        t = s - i
        y0, y1 = self._cumtable[i], self._cumtable[i + 1]
        d0, d1 = h * self._slopes[i], h * self._slopes[i + 1]
        out = y0 + t * t * (3.0 - 2.0 * t) * (y1 - y0) \
            + t * (1.0 - t) * ((1.0 - t) * d0 - t * d1)
        return np.clip(out, 0.0, TARGET_INTEGRAL)


def build_bump(a: float, rho: float) -> GevreyBump:
    """Construct and normalize the seed bump.

    Requires ``0 < a < pi/3`` (bell support constraint) and a finite
    ``rho > 1`` (compactly supported Gevrey functions only exist above order
    1; at ``rho = inf`` the profile is the box ``exp(-1)``).
    """
    if not (0 < a < np.pi / 3):
        raise BumpError("violates a < pi/3")
    if not (1 < rho < np.inf):
        raise BumpError(f"Gevrey order must be finite and exceed 1, got {rho!r}")
    h = a / _HALF_PANELS
    lower = -a + h * np.arange(_HALF_PANELS + 1)  # the knots of [-a, 0]
    v, d = gevrey_profile(lower, a, rho), np.zeros(_HALF_PANELS + 1)
    live = v > 0  # the analytic slope d, where the profile has not underflowed
    d[live] = (v[live] * -2.0 * lower[live] / (a * a * (rho - 1.0))
               * (1.0 - (lower[live] / a) ** 2) ** (-rho / (rho - 1.0)))
    panels = 0.5 * h * (v[:-1] + v[1:]) + h * h / 12.0 * (d[:-1] - d[1:])
    half = np.concatenate([[0.0], np.cumsum(panels)])
    norm_constant = 0.5 * TARGET_INTEGRAL / half[-1]
    half *= norm_constant
    half[-1] = 0.5 * TARGET_INTEGRAL
    cumtable = np.concatenate([half, TARGET_INTEGRAL - half[-2::-1]])
    slopes = norm_constant * np.concatenate([v, v[-2::-1]])
    return GevreyBump(a=a, rho=rho, norm_constant=float(norm_constant),
                      _cumtable=cumtable, _slopes=slopes)


def stencil(n: int, h: float) -> tuple[np.ndarray, np.ndarray]:
    """(offsets, coeff) of the central binomial stencil of order n and step h:
    f^(n)(x) ~ h^-n sum_k coeff_k f(x + offsets_k), coeff_k = (-1)^k C(n,k),
    offsets_k = (n/2 - k) h."""
    ks = np.arange(n + 1)
    coeff = (-1.0) ** ks * np.exp(
        lgamma(n + 1) - np.array([lgamma(k + 1) + lgamma(n - k + 1) for k in ks]))
    return (n / 2.0 - ks) * h, coeff
