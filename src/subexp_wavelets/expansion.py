"""Tensor-product wavelet atoms, coefficients, partial sums, and Parseval checks.

Atoms are indexed by lambda = (epsilon, m, n): a bit pattern epsilon (not all
zero) choosing scaling-function or wavelet factors per axis, a dyadic scale m,
and an integer shift n.  Coefficients are quadrature inner products
``c_lambda(f) = int f conj(atom)``, each computed once.  The trapezoid sum
is exact only while the atoms' band lies below the grid's alias frequency,
so ``analyze`` rejects a window whose top scale M reaches it
(``check_resolution``).

Every coefficient, of a sampled function on one grid per axis or of a
dual representative (point masses or a density, with derivatives moved onto
the atom), comes from one loop, ``_analysis``, into one window-shaped array:
per pattern and scale, one atom block per axis fills a slot.
``synthesize_partial`` reads the slots through the same blocks.  This is
direct quadrature; there is no filter-bank fast transform here.  The system
keeps every block it evaluates on a uniform grid (``construction._axis_block``),
so a warm call evaluates no spline.  Where the shift step is a whole number
of samples s (every scale ``analyze`` allows on the dyadic grid of
``expand``), a block costs one spline row per scale instead of one per
shift: its rows are windows of one kept row.  The (6, 32) window on
expand's 20,481-point grid keeps 10.5 MB; a replaced or wrapped evaluator
misses the kept blocks.

Such a windowed block is not itself a BLAS operand (its rows overlap), so
one pair of window kernels multiplies with it: ``_window_apply`` (analysis)
and its exact transpose ``_window_transpose`` (partial sums) take one BLAS
product per phase of s columns that meets the atom's nonzero span.  The
blocks are real and the samples complex; the two parts of the samples meet
each block as the last axis of one real array, and no block is copied to
complex.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product

import numpy as np

from . import numerics
from .construction import PSI_BAND, WaveletSystem, _axis_block
from .numerics import Grid1D, NaturalSpline, SampledFunction


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
        if not all(isinstance(v, (int, np.integer)) for v in (self.M, self.N, self.d)):
            raise ExpansionError(f"window sizes must be integers: M={self.M!r}, "
                                 f"N={self.N!r}, d={self.d!r}")
        if self.M < 0 or self.N < 0 or self.d < 1:
            raise ExpansionError("window must be nonempty")

    def __len__(self):
        return (2 ** self.d - 1) * (2 * self.M + 1) * (2 * self.N + 1) ** self.d

    @property
    def shape(self) -> tuple:
        return (2 ** self.d - 1, 2 * self.M + 1) + (2 * self.N + 1,) * self.d

    def patterns(self):
        return [eps for eps in product((0, 1), repeat=self.d) if any(eps)]

    def indices(self):
        shifts = product(range(-self.N, self.N + 1), repeat=self.d)
        for eps, m, n in product(self.patterns(), range(-self.M, self.M + 1), shifts):
            yield WaveletIndex(epsilon=eps, m=m, n=n)


@dataclass(frozen=True, eq=False)
class CoefficientSet:
    """A window's coefficients as one complex array of shape ``window.shape``:
    ``values[p, m + M, n_1 + N, ..., n_d + N]`` belongs to pattern
    ``window.patterns()[p]``, scale m and shift n, in the C order of
    ``window.indices()``; ``coefficients`` keys the same numbers by index."""

    window: IndexWindow
    values: np.ndarray = field(repr=False)
    source_descriptor: str = ""

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        if values.shape != self.window.shape:
            raise ExpansionError(f"missing or extra coefficients: {values.shape}")
        if not np.isfinite(values).all():
            raise ExpansionError("invalid samples")
        object.__setattr__(self, "values", values)

    @cached_property
    def coefficients(self) -> dict:
        return dict(zip(self.window.indices(), self.values.ravel().tolist()))

    def sup_magnitude(self) -> float:
        return float(np.abs(self.values).max())

    def energy(self) -> float:
        return sum((np.abs(self.values) ** 2).ravel().tolist())  # in index order


# ---------------------------------------------------------------------------
# atoms
# ---------------------------------------------------------------------------

def tensor_atom(ws: WaveletSystem, index: WaveletIndex, x) -> np.ndarray:
    """2^{md/2} prod_i f_{eps_i}(2^m x_i - n_i), f_0 = phi, f_1 = psi.

    ``x`` is (npts,) in d = 1 or (..., d) in d > 1, where any other last axis
    raises ``ExpansionError``; one point gives a float.  Arguments beyond the
    dense-table range contribute literal zeros (the atom is below 1e-11 there).
    """
    d = index.dimension
    x = np.asarray(x, dtype=float)
    if d > 1 and x.shape[-1:] != (d,):
        raise ExpansionError(f"points of shape {x.shape} for an atom in {d} dimensions")
    pts = x.reshape(-1, d)
    out = np.ones(pts.shape[0])
    for i in range(d):
        out = out * ws.atom_values(index.epsilon[i], index.m, index.n[i], pts[:, i])
    return float(out[0]) if x.ndim == int(d > 1) else out  # one point: float


# ---------------------------------------------------------------------------
# analysis / synthesis: one loop over (epsilon, m) atom blocks
# ---------------------------------------------------------------------------

def _scale_blocks(ws: WaveletSystem, window: IndexWindow, axes, order: int):
    """(slot, blocks): slot (p, m + M) holds pattern p's scale-m shifts in an
    array; blocks[i] is axis i's ``(B, geometry)`` (``_axis_block``), where
    B[k, j] is the factor (derivative ``order``) at shift ``-N + k`` and the
    axis's j-th point.  Each axis is a ``Grid1D`` or an array of points.
    """
    for p, eps in enumerate(window.patterns()):
        for m in range(-window.M, window.M + 1):
            yield (p, m + window.M), [_axis_block(ws, e, m, window.N, axis, order)
                                      for e, axis in zip(eps, axes)]


def _phases(B: np.ndarray, s: int, span):
    """(whole, tail, q0, q1) of a windowed block B (K, n) of stride s.

    Reversed row i reads the kept row R from sample i s, so phase q (columns
    q s to (q + 1) s) holds the K consecutive pieces ``R[(q + i) s:][:s]``: a
    contiguous (K, s) matrix of samples q s to (q + K) s, one BLAS operand.
    ``whole[q]`` is phase q for the n // s whole phases, ``tail`` the last
    n % s columns (a (K, n % s) view of stride s).  Only phases
    ``q0 <= q < q1`` meet the samples ``span = (a, b)`` where R can be
    nonzero; every other whole phase is zero.
    """
    K, n = B.shape
    a, b = span
    R, cut = B[::-1], n - n % s
    q1 = min(-(-b // s), cut // s)
    q0 = max(a // s - K + 1, 0)
    return R[:, :cut].reshape(K, cut // s, s).transpose(1, 0, 2), R[:, cut:], q0, q1


def _window_apply(B: np.ndarray, s: int, span, F: np.ndarray) -> np.ndarray:
    """c_k = sum_j B[k, j] F_j for a windowed block (``_scale_blocks``), so
    ``c_k = sum_j R[(2N - k) s + j] F_j``; F is (n, columns).

    One product for the tail and one BLAS product per phase that meets the
    span (``_phases``), batched so that no temporary outgrows F.
    """
    K, n = B.shape
    whole, tail, q0, q1 = _phases(B, s, span)
    cut = whole.shape[0] * s
    c = tail @ F[cut:]
    parts = F[:cut].reshape(whole.shape[0], s, -1)
    step = max(1, n // K)  # phases per batch: a (step, K, columns) result
    for q in range(q0, q1, step):
        batch = slice(q, min(q + step, q1))
        c += np.matmul(whole[batch], parts[batch]).sum(axis=0)
    return c[::-1]


def _window_transpose(B: np.ndarray, s: int, span, C: np.ndarray) -> np.ndarray:
    """out_j = sum_k C_k B[k, j] for C of shape (..., K): the exact transpose
    of ``_window_apply``.  The tail and each phase that meets the span is one
    BLAS product written into its own columns; the other columns stay zero."""
    K, n = B.shape
    C2 = C.reshape(-1, K)
    out = np.zeros((C2.shape[0], n))
    whole, tail, q0, q1 = _phases(B, s, span)
    cut = whole.shape[0] * s
    rev = C2[:, ::-1]  # shifts in the order of the reversed rows
    np.matmul(rev, tail, out=out[:, cut:])
    np.matmul(rev, whole[q0:q1], out=out[:, :cut].reshape(-1, whole.shape[0], s)
              [:, q0:q1].transpose(1, 0, 2))
    return out.reshape(C.shape[:-1] + (n,))


def _analysis(ws: WaveletSystem, window: IndexWindow, axes, fw, order: int):
    """c_lambda = (-1)^order sum_j fw_j d^order atom_lambda(x_j) over the window.

    ``axes`` holds each axis (a ``Grid1D`` or its points) and ``fw`` the
    weighted samples on their product (quadrature weights times values, or
    point masses); one block per axis and scale gives every coefficient of
    that scale.  Returns the window-shaped array of ``CoefficientSet``.

    The real blocks meet the real and imaginary parts of ``fw`` as the last
    axis of one real array, so no block is copied to complex.  Each axis in
    turn, moved first, is ``_window_apply`` on a windowed block or one BLAS
    product on any other, and its shifts go next to the last axis.
    """
    out = np.empty(window.shape, dtype=complex)
    F = np.stack([fw.real, fw.imag], -1)
    for slot, blocks in _scale_blocks(ws, window, axes, order):
        C = F
        for b, geometry in blocks:
            rows = C.reshape(len(C), -1)
            rows = _window_apply(b, *geometry, rows) if geometry else b @ rows
            C = np.moveaxis(rows.reshape((-1,) + C.shape[1:]), 0, -2)
        out[slot] = (-1.0) ** order * C.view(complex)[..., 0]
    return out


def check_resolution(window: IndexWindow, grids) -> None:
    """Raise unless every grid resolves the window's finest atoms.

    psi at scale M occupies |xi| up to 2^M * PSI_BAND[1]; the trapezoid sum
    against it aliases once that band reaches 2 pi / h, so Bessel's
    inequality can fail without any other sign.
    """
    for g in grids:
        if np.ldexp(g.spacing, window.M) * PSI_BAND[1] >= 2.0 * np.pi:
            raise ExpansionError(
                f"scale {window.M} aliases on a grid of spacing {g.spacing}: "
                f"needs 2^M * h * {PSI_BAND[1]:.4f} < 2 pi")


def analyze(ws: WaveletSystem, f: SampledFunction, window: IndexWindow,
            cross_check: bool = True,
            source_descriptor: str = "") -> CoefficientSet:
    """All coefficients over the window, by quadrature against the atoms.

    Raises ``ExpansionError`` when a grid does not resolve the window
    (``check_resolution``).  ``cross_check`` selects nothing: it is kept
    only so that existing callers, positional ones included, still run.
    """
    if f.dimension != window.d:
        raise ExpansionError("dimension mismatch between function and window")
    check_resolution(window, f.grids)
    fw = f.values  # times the product trapezoid weights
    for axis, g in enumerate(f.grids):
        fw = fw * g.trapezoid_weights().reshape((-1,) + (1,) * (window.d - axis - 1))
    return CoefficientSet(window, _analysis(ws, window, f.grids, fw, 0),
                          source_descriptor)


def synthesize_partial(ws: WaveletSystem, coeffs: CoefficientSet,
                       grid) -> SampledFunction:
    """Partial sum over the window on ``grid``: a Grid1D, or one per axis."""
    window = coeffs.window
    grids = (grid,) if isinstance(grid, Grid1D) else tuple(grid)
    if len(grids) != window.d:
        raise ExpansionError(f"{len(grids)} grids for a window of dimension {window.d}")
    out = np.zeros((2,) + tuple(g.count for g in grids))  # real, imaginary
    for slot, blocks in _scale_blocks(ws, window, grids, 0):
        C = np.stack([coeffs.values[slot].real, coeffs.values[slot].imag])
        for b, geometry in blocks:
            C = np.moveaxis(C, 1, -1)
            C = _window_transpose(b, *geometry, C) if geometry else C @ b
        out += C
    return SampledFunction(grids if window.d > 1 else grids[0], out[0] + 1j * out[1])


# ---------------------------------------------------------------------------
# dual representatives and the Parseval identity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DualRepresentative:
    """Extensional stand-in for an ultradistribution at desk scale.

    Either a finite point-mass combination (points, weights) or the k-th
    distributional derivative of an integrable density; pairings move the
    derivatives onto the smooth partner.  Both kinds act through one
    (nodes, weights) form: the point masses, or the density's grid with its
    values times the trapezoid weights.  ``ExpansionError`` rejects anything
    but finite 1-D points and weights of one length, or a 1-D
    ``SampledFunction`` density alone, and a derivative order that is not a
    non-negative integer.
    """

    points: np.ndarray = None
    weights: np.ndarray = None
    density: SampledFunction = None
    derivative_order: int = 0

    def __post_init__(self):
        if (self.points is None) == (self.density is None) or (
                (self.points is None) != (self.weights is None)):
            raise ExpansionError("a dual representative takes points with "
                                 "weights, or a density")
        k = self.derivative_order
        if not isinstance(k, (int, np.integer)) or k < 0:
            raise ExpansionError(f"derivative order must be a non-negative "
                                 f"integer: {k!r}")
        if self.points is None:
            if not (isinstance(self.density, SampledFunction)
                    and self.density.dimension == 1):
                raise ExpansionError("a density must be a 1-D SampledFunction")
            return
        x, w = np.asarray(self.points), np.asarray(self.weights)
        if x.ndim != 1 or w.shape != x.shape:
            raise ExpansionError(f"points {x.shape} and weights {w.shape} must "
                                 f"be 1-D of one length")
        if (x.dtype.kind not in "iuf" or w.dtype.kind not in "iufc"
                or not (np.isfinite(x).all() and np.isfinite(w).all())):
            raise ExpansionError("points and weights must be finite numbers")
        object.__setattr__(self, "points", x.astype(float))
        object.__setattr__(self, "weights", w)

    def _nodes(self):
        """(x_j, w_j) with <self, g> = (-1)^k sum_j w_j g^(k)(x_j)."""
        if self.points is not None:
            return self.points, self.weights
        (grid,) = self.density.grids
        return grid.points(), self.density.values * grid.trapezoid_weights()

    def coefficients(self, ws: WaveletSystem, window: IndexWindow) -> CoefficientSet:
        """<self, atom_lambda> for every index of the (one-dimensional) window."""
        if window.d != 1:
            raise ExpansionError("dual representatives implemented in d = 1")
        x, w = self._nodes()
        # a density's grid takes the windowed blocks of ``analyze``
        axis = x if self.points is not None else self.density.grids[0]
        return CoefficientSet(window, _analysis(ws, window, [axis], w,
                                                self.derivative_order))

    def pair(self, g: SampledFunction) -> complex:
        (grid,) = g.grids
        k = self.derivative_order
        x, w = self._nodes()
        re, im = (np.dot(w, NaturalSpline(grid, part)(x, k))
                  for part in (g.values.real, g.values.imag))
        return complex((-1.0) ** k * (re + 1j * im))


def parseval_check(ws: WaveletSystem, f, g: SampledFunction,
                   window: IndexWindow) -> dict:
    """Bilinear pairing <f, g> against the coefficient sum over the window.

    rhs = sum_lambda c^psi_lambda(f) * c^{psi-bar}_lambda(g); the second
    family uses the conjugate analyzing atom (equal to the atom itself here,
    since psi and phi are real).  An input passed as both f and g is
    analyzed once.
    """
    if isinstance(f, DualRepresentative):
        lhs, cf = f.pair(g), f.coefficients(ws, window)
    else:
        lhs, cf = numerics.pairing(f, g), analyze(ws, f, window)
    cg = cf if g is f else analyze(ws, g, window)
    return _parseval(lhs, cf.values, cg.values)


def parseval_from_coefficients(f: SampledFunction,
                               coeffs: CoefficientSet) -> dict:
    """``parseval_check(ws, f, f, coeffs.window)`` from the coefficients of
    ``f`` that ``analyze`` already returned; nothing is analyzed again."""
    return _parseval(numerics.pairing(f, f), coeffs.values, coeffs.values)


def _parseval(lhs, cf: np.ndarray, cg: np.ndarray) -> dict:
    rhs = sum((cf * cg).ravel().tolist())  # in index order, as Python complex
    return {"lhs": complex(lhs), "rhs": complex(rhs),
            "gap": abs(complex(lhs) - complex(rhs))}


def bessel_gap(ws: WaveletSystem, f: SampledFunction,
               window: IndexWindow) -> dict:
    """sum |c_lambda|^2 against ||f||^2; the sum must not exceed the norm."""
    energy = analyze(ws, f, window).energy()
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
        for index, c in zip(coeffs.window.indices(), coeffs.values.ravel().tolist()):
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
