"""Compactly supported Gevrey-class seed bump and its primitive.

The seed is the classical family

    bump(x) = N * exp(-(1 - (x/a)^2)^(-1/(rho-1)))   for |x| < a,   0 otherwise,

which lies in Gevrey class ``rho`` (flatness exponent ``1/(rho-1)`` at the
support edge).  ``N`` is fixed by quadrature so the total integral is pi/2,
the mass required by the bell construction downstream.

The primitive is precomputed as a dense antiderivative table with linear
interpolation between knots: the bell evaluation calls it millions of times.
The knot grid is symmetric about 0, which makes the reflection identity
``cumulative(x) + cumulative(-x) = pi/2`` hold to machine precision; the bell
orthonormality identities downstream inherit their accuracy from exactly this
cancellation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lgamma

import numpy as np

TARGET_INTEGRAL = np.pi / 2
_TABLE_KNOTS = 16385  # 16384 trapezoid panels, odd count so 0 is a knot
_MAX_CERTIFY_ORDER = 20


class BumpError(ValueError):
    pass


def _raw_profile(x: np.ndarray, a: float, rho: float) -> np.ndarray:
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
    target_integral: float = TARGET_INTEGRAL
    _knots: np.ndarray = field(default=None, repr=False, compare=False)
    _cumtable: np.ndarray = field(default=None, repr=False, compare=False)

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        out = self.norm_constant * _raw_profile(x, self.a, self.rho)
        return out[0] if scalar else out

    def cumulative(self, xi) -> np.ndarray:
        """``int_{-inf}^{xi}`` of the bump: 0 below -a, pi/2 above a."""
        xi = np.asarray(xi, dtype=float)
        scalar = xi.ndim == 0
        xi = np.atleast_1d(xi)
        out = np.interp(xi, self._knots, self._cumtable,
                        left=0.0, right=self.target_integral)
        return out[0] if scalar else out


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
    knots = np.linspace(-a, a, _TABLE_KNOTS)
    h = knots[1] - knots[0]
    raw = _raw_profile(knots, a, rho)
    total = np.trapezoid(raw, dx=h)
    norm_constant = TARGET_INTEGRAL / total
    vals = norm_constant * raw
    cumtable = np.concatenate([[0.0], np.cumsum(0.5 * h * (vals[1:] + vals[:-1]))])
    # the running sum can overshoot the mass by a few ulps just below +a,
    # which would turn cos(cumulative), and with it the bell, negative there
    cumtable = np.minimum(cumtable, TARGET_INTEGRAL)
    # pin the endpoint so saturation beyond +a is bit-exact
    cumtable[-1] = TARGET_INTEGRAL
    return GevreyBump(a=a, rho=rho, norm_constant=float(norm_constant),
                      _knots=knots, _cumtable=cumtable)


def stencil_derivative(f, n: int, x: np.ndarray, h: float) -> np.ndarray:
    """Central binomial stencil f^(n)(x) ~ h^-n sum_k (-1)^k C(n,k) f(x + (n/2-k)h)."""
    ks = np.arange(n + 1)
    coeff = (-1.0) ** ks * np.exp(
        lgamma(n + 1) - np.array([lgamma(k + 1) + lgamma(n - k + 1) for k in ks]))
    offsets = (n / 2.0 - ks) * h
    vals = f(x[:, None] + offsets[None, :])
    return (vals @ coeff) / h ** n


def certify_gevrey(bump: GevreyBump, max_order: int) -> dict:
    """Heuristic Gevrey-regularity certificate (not a proof).

    Estimates ``sup |bump^(n)|`` for n = 0..max_order by Richardson-extrapolated
    central differences (the bump is not band-limited, so spectral
    differentiation is unavailable) and forms the normalized ratios

        r_n = (sup |bump^(n)|)^(1/n) / n!^(rho/n).

    The certificate passes when the tail of ``{r_n}`` is bounded: max/min
    ratio of the last 5 terms below 10.
    """
    if max_order > _MAX_CERTIFY_ORDER:
        raise BumpError("finite-difference noise dominates beyond order 20")
    if max_order < 1:
        raise BumpError("max_order must be >= 1")
    x = np.linspace(-bump.a * 0.999, bump.a * 0.999, 801)
    sups = [float(bump(0.0))]  # n = 0: even, maximum at the origin
    for n in range(1, max_order + 1):
        # step tuned per order against 2^n eps / h^n roundoff
        h = (2.0 ** n * 1e-16) ** (1.0 / (n + 4))
        h = min(max(h, 1e-4), 0.15 * bump.a)
        d_h = stencil_derivative(bump, n, x, h)
        d_h2 = stencil_derivative(bump, n, x, h / 2.0)
        rich = (4.0 * d_h2 - d_h) / 3.0
        sups.append(float(np.max(np.abs(rich))))
    ratios = [sups[0]]
    for n in range(1, max_order + 1):
        ratios.append(sups[n] ** (1.0 / n) / np.exp(bump.rho * lgamma(n + 1) / n))
    tail = np.array(ratios[max(1, max_order - 4):])
    bounded = bool(tail.max() / tail.min() < 10.0)
    return {
        "sup_derivatives": sups,
        "ratios": ratios,
        "h_estimate": float(np.median(np.array(ratios[1:]))),
        "passes": bounded,
        "note": "heuristic certificate via Richardson-extrapolated stencils, not a proof",
    }
