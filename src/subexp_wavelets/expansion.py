"""Tensor-product wavelet atoms, coefficients, partial sums, and Parseval checks.

Atoms are indexed by lambda = (epsilon, m, n): a bit pattern epsilon (not all
zero) choosing scaling-function or wavelet factors per axis, a dyadic scale m,
and an integer shift n.  Coefficients are quadrature inner products
``c_lambda(f) = int f conj(atom)``; in one dimension each coefficient is also
the continuous wavelet transform sampled at (n 2^-m, 2^-m), and both routes
are computed and compared.

All coefficients are computed by direct quadrature (correctness over speed);
there is no filter-bank fast transform here.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from itertools import product

import numpy as np
from scipy.interpolate import CubicSpline

from . import numerics
from .construction import WaveletSystem
from .numerics import Grid1D, SampledFunction


class ExpansionError(ValueError):
    pass


@dataclass(frozen=True)
class WaveletIndex:
    epsilon: tuple
    m: int
    n: tuple

    def __post_init__(self):
        eps = tuple(int(e) for e in self.epsilon)
        n = tuple(int(v) for v in self.n)
        if len(eps) != len(n) or not eps:
            raise ExpansionError("epsilon and n must share the dimension")
        if any(e not in (0, 1) for e in eps):
            raise ExpansionError("epsilon entries must be bits")
        if not any(eps):
            raise ExpansionError("epsilon must not be all zeros")
        object.__setattr__(self, "epsilon", eps)
        object.__setattr__(self, "n", n)

    @property
    def dimension(self) -> int:
        return len(self.epsilon)


@dataclass(frozen=True)
class IndexWindow:
    M: int
    N: int
    d: int = 1

    def __post_init__(self):
        if self.M < 0 or self.N < 0 or self.d < 1:
            raise ExpansionError("window must be nonempty")

    def __len__(self):
        return (2 ** self.d - 1) * (2 * self.M + 1) * (2 * self.N + 1) ** self.d

    def patterns(self):
        return [eps for eps in product((0, 1), repeat=self.d) if any(eps)]

    def indices(self):
        shifts = range(-self.N, self.N + 1)
        for eps in self.patterns():
            for m in range(-self.M, self.M + 1):
                for n in product(shifts, repeat=self.d):
                    yield WaveletIndex(epsilon=eps, m=m, n=n)


@dataclass(frozen=True)
class CoefficientSet:
    window: IndexWindow
    coefficients: dict = field(repr=False)
    source_descriptor: str = ""

    def __post_init__(self):
        for index in self.window.indices():
            if index not in self.coefficients:
                raise ExpansionError(f"missing coefficient for {index}")
        for c in self.coefficients.values():
            if not np.isfinite(complex(c)):
                raise ExpansionError("invalid samples")

    def sup_magnitude(self) -> float:
        return max(abs(c) for c in self.coefficients.values())

    def energy(self) -> float:
        return float(sum(abs(c) ** 2 for c in self.coefficients.values()))


# ---------------------------------------------------------------------------
# atoms and the continuous transform
# ---------------------------------------------------------------------------

def tensor_atom(ws: WaveletSystem, index: WaveletIndex, x) -> np.ndarray:
    """2^{md/2} prod_i f_{eps_i}(2^m x_i - n_i), f_0 = phi, f_1 = psi.

    ``x`` is (npts,) in d = 1 or (npts, d) for d > 1.  Arguments beyond the
    dense-table range contribute literal zeros (the atom is below 1e-11 there).
    """
    d = index.dimension
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0 or (d > 1 and x.ndim == 1)
    pts = np.atleast_2d(x.reshape(-1, d) if d > 1 else x.reshape(-1, 1))
    out = np.ones(pts.shape[0])
    for i in range(d):
        out = out * ws.atom_values(index.epsilon[i], index.m, index.n[i], pts[:, i])
    return float(out[0]) if scalar else out


def cwt(ws: WaveletSystem, f: SampledFunction, b: float, a: float) -> complex:
    """W f(b, a) = (1/a) int f(x) conj(psi)((x - b)/a) dx, one dimension."""
    if not a > 0:
        raise ExpansionError("scale must be positive")
    if f.dimension != 1:
        raise ExpansionError("continuous transform implemented in d = 1 only")
    (grid,) = f.grids
    x = grid.points()
    psi = ws.interpolator("psi")
    vals = psi((x - b) / a)  # psi is real: conjugation is the identity
    return complex(np.dot(f.values * grid.trapezoid_weights(), vals) / a)


# ---------------------------------------------------------------------------
# analysis / synthesis
# ---------------------------------------------------------------------------

def analyze(ws: WaveletSystem, f: SampledFunction, window: IndexWindow,
            cross_check: bool = True,
            source_descriptor: str = "") -> CoefficientSet:
    """All coefficients over the window, two independent routes in d = 1.

    The direct route is quadrature against the atom; the second route samples
    the continuous wavelet transform at (n 2^-m, 2^-m).  Disagreement beyond
    1e-9 aborts (that has always meant an aliasing or windowing bug).
    """
    if f.dimension != window.d:
        raise ExpansionError("dimension mismatch between function and window")
    coeffs = {}
    ns = np.arange(-window.N, window.N + 1)
    if window.d == 1:
        (grid,) = f.grids
        x = grid.points()
        fw = f.values * grid.trapezoid_weights()
        for m in range(-window.M, window.M + 1):
            B = ws.atom_values(1, m, ns[:, None], x)
            direct = B @ fw
            if cross_check:
                scale = 2.0 ** (-m)
                sampled = np.array([2.0 ** (-m / 2.0) * cwt(ws, f, n * scale, scale)
                                    for n in ns])
                if np.max(np.abs(direct - sampled)) > 1e-9:
                    raise ExpansionError("coefficient consistency")
            for n, c in zip(ns, direct):
                coeffs[WaveletIndex(epsilon=(1,), m=m, n=(int(n),))] = complex(c)
        return CoefficientSet(window=window, coefficients=coeffs,
                              source_descriptor=source_descriptor)
    if window.d != 2:
        raise ExpansionError("analysis implemented for d = 1 and d = 2")
    gx, gy = f.grids
    wx, wy = gx.trapezoid_weights(), gy.trapezoid_weights()
    fw = f.values * wx[:, None] * wy[None, :]
    for eps in window.patterns():
        for m in range(-window.M, window.M + 1):
            B1 = ws.atom_values(eps[0], m, ns[:, None], gx.points())
            B2 = ws.atom_values(eps[1], m, ns[:, None], gy.points())
            C = B1 @ fw @ B2.T
            for i, n1 in enumerate(ns):
                for j, n2 in enumerate(ns):
                    coeffs[WaveletIndex(epsilon=eps, m=m,
                                        n=(int(n1), int(n2)))] = complex(C[i, j])
    return CoefficientSet(window=window, coefficients=coeffs,
                          source_descriptor=source_descriptor)


def synthesize_partial(ws: WaveletSystem, coeffs: CoefficientSet,
                       grid) -> SampledFunction:
    """Partial sum over the window on the given grid (Grid1D, or pair)."""
    window = coeffs.window
    ns = np.arange(-window.N, window.N + 1)
    if window.d == 1:
        g = grid if isinstance(grid, Grid1D) else grid[0]
        x = g.points()
        out = np.zeros(x.size, dtype=complex)
        for m in range(-window.M, window.M + 1):
            cvec = np.array([coeffs.coefficients[
                WaveletIndex(epsilon=(1,), m=m, n=(int(n),))] for n in ns])
            out += cvec @ ws.atom_values(1, m, ns[:, None], x)
        return SampledFunction(g, out)
    gx, gy = grid
    out = np.zeros((gx.count, gy.count), dtype=complex)
    for eps in window.patterns():
        for m in range(-window.M, window.M + 1):
            C = np.array([[coeffs.coefficients[
                WaveletIndex(epsilon=eps, m=m, n=(int(n1), int(n2)))]
                for n2 in ns] for n1 in ns])
            B1 = ws.atom_values(eps[0], m, ns[:, None], gx.points())
            B2 = ws.atom_values(eps[1], m, ns[:, None], gy.points())
            out += B1.T @ C @ B2
    return SampledFunction((gx, gy), out)


# ---------------------------------------------------------------------------
# dual representatives and the Parseval identity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DualRepresentative:
    """Extensional stand-in for an ultradistribution at desk scale.

    Either a finite point-mass combination (points, weights) or the k-th
    distributional derivative of an integrable density; pairings move the
    derivatives onto the smooth partner.
    """

    points: np.ndarray = None
    weights: np.ndarray = None
    density: SampledFunction = None
    derivative_order: int = 0

    def coefficient(self, ws: WaveletSystem, index: WaveletIndex) -> complex:
        if index.dimension != 1:
            raise ExpansionError("dual representatives implemented in d = 1")
        bit, m, n = index.epsilon[0], index.m, index.n[0]
        k = self.derivative_order
        if self.points is not None:
            vals = ws.atom_values(bit, m, n, np.asarray(self.points, dtype=float),
                                  order=k)
            return complex((-1.0) ** k * np.dot(np.asarray(self.weights), vals))
        (grid,) = self.density.grids
        vals = ws.atom_values(bit, m, n, grid.points(), order=k)
        w = grid.trapezoid_weights()
        return complex((-1.0) ** k * np.dot(self.density.values * w, vals))

    def pair(self, g: SampledFunction) -> complex:
        (grid,) = g.grids
        spline = CubicSpline(grid.points(), g.values.real)
        k = self.derivative_order
        if self.points is not None:
            target = spline.derivative(k) if k else spline
            return complex((-1.0) ** k * np.dot(np.asarray(self.weights),
                                                target(np.asarray(self.points))))
        target = spline.derivative(k) if k else spline
        (dgrid,) = self.density.grids
        w = dgrid.trapezoid_weights()
        return complex((-1.0) ** k * np.dot(self.density.values * w,
                                            target(dgrid.points())))


def _coefficients_of(ws, obj, window):
    """Coefficients of a sampled function or a dual representative over the window."""
    if isinstance(obj, DualRepresentative):
        return {index: obj.coefficient(ws, index) for index in window.indices()}
    return analyze(ws, obj, window, cross_check=False).coefficients


def parseval_check(ws: WaveletSystem, f, g: SampledFunction,
                   window: IndexWindow) -> dict:
    """Bilinear pairing <f, g> against the coefficient sum over the window.

    rhs = sum_lambda c^psi_lambda(f) * c^{psi-bar}_lambda(g); the second
    family uses the conjugate analyzing atom (equal to the atom itself here,
    since psi and phi are real).
    """
    if isinstance(f, DualRepresentative):
        lhs = f.pair(g)
    else:
        lhs = numerics.pairing(f, g)
    cf = _coefficients_of(ws, f, window)
    cg = _coefficients_of(ws, g, window)
    rhs = sum(cf[idx] * cg[idx] for idx in window.indices())
    return {"lhs": complex(lhs), "rhs": complex(rhs),
            "gap": abs(complex(lhs) - complex(rhs))}


def bessel_gap(ws: WaveletSystem, f: SampledFunction,
               window: IndexWindow) -> dict:
    """sum |c_lambda|^2 against ||f||^2; the sum must not exceed the norm."""
    cs = analyze(ws, f, window, cross_check=False)
    energy = cs.energy()
    norm_sq = float(numerics.inner_product(f, f).real)
    return {"coefficient_energy": energy, "norm_squared": norm_sq,
            "excess": energy - norm_sq}


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def coefficients_to_csv(coeffs: CoefficientSet, path) -> None:
    d = coeffs.window.d
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epsilon_bits", "m"] + [f"n_{i+1}" for i in range(d)]
                        + ["re", "im"])
        for index in coeffs.window.indices():
            c = coeffs.coefficients[index]
            writer.writerow(["".join(str(b) for b in index.epsilon), index.m,
                             *index.n, repr(c.real), repr(c.imag)])


def coefficients_header(coeffs: CoefficientSet, ws: WaveletSystem) -> str:
    doc = {
        "window": {"M": coeffs.window.M, "N": coeffs.window.N,
                   "d": coeffs.window.d},
        "build_parameters": {"a": ws.a, "rho2": ws.rho2},
        "certificate_digest": ws.certificate_digest(),
        "source": coeffs.source_descriptor,
    }
    return json.dumps(doc, sort_keys=True, indent=2)
