"""Library of analytic test functions used by experiments and the CLI.

Gaussians and their derivatives (closed forms via Hermite polynomials), and
"band" functions whose Fourier transform is a compactly supported bump on a
chosen frequency interval — the natural moment-vanishing inputs for the
expansion experiments, since their spectra avoid the origin entirely.
"""

from __future__ import annotations

import re

import numpy as np
from numpy.polynomial.hermite import hermval

from . import numerics
from .bump import gevrey_profile
from .numerics import Grid1D, SampledFunction, SpectrumOnBand

_BAND_POINTS = 4096  # spectral nodes of a gevrey-band function


class TestFunctionError(ValueError):
    pass


def gaussian(center: float = 0.0, scale: float = 1.0):
    """x -> exp(-((x - center)/scale)^2); the center must be finite and the
    scale finite and positive."""
    if not np.isfinite(center):
        raise TestFunctionError(f"gaussian center must be finite, got {center!r}")
    if not (np.isfinite(scale) and scale > 0):
        raise TestFunctionError(f"gaussian scale must be finite and positive, got {scale!r}")

    def f(x):
        u = (np.asarray(x, dtype=float) - center) / scale
        return np.exp(-u * u)
    f.description = f"gaussian(center={center},scale={scale})"
    return f


def gaussian_derivative(order: int):
    """k-th derivative of exp(-x^2): (-1)^k H_k(x) exp(-x^2)."""
    if order < 0:
        raise TestFunctionError("derivative order must be nonnegative")
    e_k = np.zeros(order + 1)
    e_k[order] = 1.0

    def f(x):
        x = np.asarray(x, dtype=float)
        return (-1.0) ** order * hermval(x, e_k) * np.exp(-x * x)
    f.description = f"gaussian-d{order}"
    return f


def gevrey_band(xi0: float, xi1: float, rho: float = 2.0):
    """Real function whose spectrum is a Gevrey bump on [xi0, xi1] (+ mirror).

    f(x) = (1/pi) int_{xi0}^{xi1} A(xi) cos(x xi) dxi with
    A(xi) = exp(-(1 - u^2)^{-1/(rho-1)}) (the seed bump's ``gevrey_profile``),
    u the affine map of [xi0, xi1] onto [-1, 1]; normalized to unit L2 norm.
    When 0 < xi0 all moments vanish.
    The band must be finite and the order 1 < rho < inf (rho = inf would
    give a flat box, which is not Gevrey); both are checked before any
    sample is taken.
    f is ``2 Re`` of the synthesis of its one-sided spectrum ``f.spectrum``
    (direct sum at scattered points; ``sample`` uses the chirp-z engine).
    """
    if not (np.isfinite(xi1) and xi1 > xi0 >= 0):
        raise TestFunctionError(f"need 0 <= xi0 < xi1 < inf, got {xi0!r}, {xi1!r}")
    if not (np.isfinite(rho) and rho > 1):
        raise TestFunctionError(f"Gevrey order rho must be finite and exceed 1, got {rho!r}")
    grid = Grid1D.from_interval(xi0, xi1, _BAND_POINTS)
    amp = gevrey_profile((2 * grid.points() - xi0 - xi1) / (xi1 - xi0), 1.0, rho)
    amp /= np.sqrt(np.sum(amp * amp * grid.trapezoid_weights()) / np.pi)
    spectrum = SpectrumOnBand(band=(xi0, xi1), grid=grid, values=amp,
                              declared_support=((xi0, xi1),))

    def f(x):
        x = np.asarray(x, dtype=float)
        out = 2.0 * numerics.synthesize_values(spectrum, x).real
        return float(out[0]) if x.ndim == 0 else out
    f.description = (f"gevrey-band({xi0:.6g},{xi1:.6g})" if rho == 2.0
                     else f"gevrey-band({xi0:.6g},{xi1:.6g},rho={rho:.6g})")
    f.spectrum = spectrum
    return f


def _on_grid(fn, grid: Grid1D) -> np.ndarray:
    if hasattr(fn, "spectrum"):  # one chirp-z synthesis for the whole grid
        return 2.0 * numerics.synthesize(fn.spectrum, grid).values.real
    return fn(grid.points())


def sample(fn, grid: Grid1D) -> SampledFunction:
    return SampledFunction(grid, np.asarray(_on_grid(fn, grid), dtype=complex))


def sample_2d(fn_x, fn_y, gx: Grid1D, gy: Grid1D) -> SampledFunction:
    vals = np.outer(_on_grid(fn_x, gx), _on_grid(fn_y, gy))
    return SampledFunction((gx, gy), vals.astype(complex))


_PI_TOKEN = re.compile(r"^(-?\d*\.?\d*)\s*pi$")


def parse_scalar(token: str) -> float:
    """Parse '2pi', 'pi', '1.5pi', or a plain decimal; anything else, '.pi'
    included, raises ``TestFunctionError``."""
    token = token.strip().lower()
    match = _PI_TOKEN.match(token)
    number = match.group(1) if match else token
    if match and number in ("", "-"):
        number += "1"
    try:
        value = float(number)
    except ValueError as exc:
        raise TestFunctionError(f"cannot parse scalar {token!r}") from exc
    return value * np.pi if match else value


def parse_spec(spec: str):
    """Resolve a CLI test-function descriptor to a callable.

    Supported: 'gaussian', 'gaussian:center,scale', 'gaussian-d<k>' (no
    arguments), 'gevrey-band:xi0,xi1[,rho]'.
    """
    name, colon, args = spec.partition(":")
    name = name.strip().lower()
    if name == "gaussian":
        if args:
            parts = [parse_scalar(p) for p in args.split(",")]
            if len(parts) == 1:
                return gaussian(scale=parts[0])
            if len(parts) == 2:
                return gaussian(center=parts[0], scale=parts[1])
            raise TestFunctionError("gaussian takes scale or center,scale")
        return gaussian()
    match = re.match(r"^gaussian-d(\d+)$", name)
    if match:
        if colon:
            raise TestFunctionError(f"{name} takes no arguments: {spec!r}")
        return gaussian_derivative(int(match.group(1)))
    if name == "gevrey-band":
        parts = [parse_scalar(p) for p in args.split(",") if p.strip()]
        if len(parts) == 2:
            return gevrey_band(parts[0], parts[1])
        if len(parts) == 3:
            return gevrey_band(parts[0], parts[1], rho=parts[2])
        raise TestFunctionError("gevrey-band needs xi0,xi1[,rho]")
    raise TestFunctionError(f"unknown test function {spec!r}")
