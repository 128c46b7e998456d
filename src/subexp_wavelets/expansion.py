"""Tensor-product wavelet atoms, coefficients, partial sums, and Parseval checks.

Atoms are indexed by lambda = (epsilon, m, n): a bit pattern epsilon (not all
zero) choosing scaling-function or wavelet factors per axis, a dyadic scale m,
and an integer shift n.  Coefficients are quadrature inner products
``c_lambda(f) = int f conj(atom)``, each computed once.  The trapezoid sum
is exact only while the atoms' band lies below the grid's alias frequency,
so ``analyze`` rejects a window whose top scale M reaches it
(``check_resolution``).

Every coefficient of a sampled function, on one grid per axis, comes from
one loop, ``_analysis``, into one window-shaped array: per pattern and
scale, one atom block per axis fills a slot.
``synthesize_partial`` reads the slots through the same blocks.  This is
direct quadrature; there is no filter-bank fast transform here.  A block
on a uniform grid (``_axis_block``) takes one of three forms, each kept
once prepared, so a warm call prepares nothing:

* where each knot interval of the table holds r >= 4 samples and
  ``2^m origin`` is a knot (m = -6..-2 on the dyadic grid of ``expand``),
  one window of the interpolant's own samples y: nothing is evaluated, and
  only the stencil's weights are kept.  ``_moments_apply`` takes each
  interval's eight moments of the data, one per stencil knot, in one
  product, folds them onto the knots and meets them with the window of y;
  ``_moments_transpose`` is its exact transpose.  The sums are those of
  the evaluated rows, regrouped, so coefficients move only by rounding;
* where the shift step is a whole number of samples s (the other scales
  ``analyze`` allows on expand's grid), windows of one kept atom row per
  scale instead of one row per shift;
* elsewhere a kept per-shift block.

The (6, 32) window on expand's 20,481-point grid keeps 1.6 MB of rows,
and a replaced or wrapped evaluator reads no samples and misses the kept
blocks.

A windowed block is not itself a BLAS operand (its rows overlap), so one
pair of window kernels multiplies with it: ``_window_apply`` (analysis) and
its exact transpose ``_window_transpose`` (partial sums) take one BLAS
product per phase of s columns that meets the atom's nonzero span.  The
blocks are real, and the data meet them as real parts on the last axis of
one real array, so no block is copied to complex.  Complex data carry two
parts, real and imaginary.  Data whose imaginary part is exactly zero (every
sampled test function) carry one: their coefficients, and the partial sums
of real coefficients, are real, and half the products drop out.

A functional known by its spectrum (point masses and their derivatives,
ultradistributions) takes ``analyze_spectrum``: one chirp-z sum in n per
scale over psi's band, of the analytic psi_hat, with no table or interpolant.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import numerics
from .construction import PSI_BAND, TABLE_HALF, WaveletSystem, resolves
from .numerics import Grid1D, LagrangeInterpolant, SampledFunction
from .projection import _MAX_NODES, _phi_tail


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
# analysis / synthesis: one loop over (epsilon, m) atom blocks
# ---------------------------------------------------------------------------

class _Block(NamedTuple):
    """A prepared atom block (``_axis_block``): B, its geometry, and the one
    array it owns, whose bytes are all the kept-block store charges it (a
    windowed B is a view of it, or of the interpolant's samples)."""

    block: np.ndarray
    geometry: tuple | None
    owned: np.ndarray

    @property
    def nbytes(self) -> int:
        return self.owned.nbytes


def _axis_block(ws: WaveletSystem, bit: int, m: int, N: int, axis: Grid1D):
    """(B, geometry): rows ``k`` = shift ``-N + k`` of one axis's scale-m atom
    factor on a grid, and how B lies in the rows it reads.

    The system keeps each prepared block (``_Block``: B, its geometry and
    the array B reads) in ``ws._blocks``, read-only, under the evaluator
    (the object ``interpolator`` returns), ``m``, the grid and ``N``, so a
    warm call prepares nothing and a replaced or wrapped evaluator misses.
    Where each knot interval of the table holds r >= 4 samples, B is a
    window of the interpolant's samples (``_knot_windows``), and the block
    owns only its ``(r, 8)`` weights.
    Shift n moves the atom by n s samples, s = 2^-m / h.  When s is a whole
    number below the count, the block owns one row on the grid extended
    by N s samples at each end, and B is a read-only strided view of windows
    of it: row k starts at sample ``(2N - k) s``.  Then ``geometry`` is
    ``(s, (a, b))``: samples ``a <= i < b`` of the row are the only
    ones that can be nonzero, since sample i sits at ``2^m x = 2^m origin +
    (i - N s) / s`` and the dense-table evaluator reads 0 beyond
    +-TABLE_HALF (one sample more at each end absorbs rounding).  For any
    other s, B itself is owned and ``geometry`` is None.
    """
    f = ws.interpolator("psi" if bit else "phi")
    ns = np.arange(-N, N + 1)[:, None]

    def make():
        moments = _knot_windows(f, m, N, axis)
        if moments is not None:
            return moments
        s = np.ldexp(1.0, -m) / axis.spacing
        s = int(s) if s.is_integer() and s < axis.count else 0  # 0: no windows
        x = axis.origin + axis.spacing * np.arange(-N * s, axis.count + N * s)
        # the row every window reads, or the grid's per-shift block
        row = _aligned(ws.atom_values(bit, m, 0, x)) if s else ws.atom_values(bit, m, ns, x)
        row.flags.writeable = False
        if not s:
            return _Block(row, None, row)
        centre = N * s - axis.origin / axis.spacing
        span = (max(int(np.floor(centre - TABLE_HALF * s)) - 1, 0),
                min(int(np.ceil(centre + TABLE_HALF * s)) + 2, row.size))
        return _Block(sliding_window_view(row, axis.count)[2 * N * s::-s], (s, span), row)

    return ws._blocks.get((f, m, axis, N), make)[:2]


def _aligned(values: np.ndarray) -> np.ndarray:
    """A copy of ``values`` whose data start on a 64-byte boundary.  Each
    phase of a windowed block starts at the kept row's own alignment when s
    is a multiple of 8, and the window kernels' BLAS products ran up to 1.7
    times faster on 64-byte aligned phases than on 16-byte aligned ones
    (OpenBLAS 0.3.31, one thread, a 2-core Xeon)."""
    buffer = np.empty(values.size + 8)
    start = (-buffer.ctypes.data % 64) // 8
    out = buffer[start:start + values.size].reshape(values.shape)
    out[...] = values
    return out


def _knot_windows(f, m: int, N: int, axis: Grid1D):
    """``_Block(Y, (t, span, W, count), W)``: the scale-m atom block of the
    interpolant f on ``axis`` as windows of its samples, or None where they
    do not serve.

    They serve when f is a ``LagrangeInterpolant`` (a wrapped or replaced
    evaluator has no samples to read), each knot interval holds a whole
    number ``r = 2^-m spacing_table / h >= 4`` of samples, ``2^m origin``
    sits on knot tau_0, and every stencil below lies inside the table, so
    none is shifted at an end.  Then sample ``j = p r + i`` of shift n lies
    in interval ``q = tau_0 + p - t n`` (t knots per unit shift) at ``u = i
    / r``, where f reads ``sum_o y_(q+o) L_o(u)`` over the offsets ``o =
    -3..4``.  Y is a read-only window of the samples y in the layout of a
    windowed block of stride t: shift n's row holds the P + 7 knots from
    ``tau_0 - t n - 3``, P the intervals that meet the grid.  ``W`` (r, 8)
    holds ``2^(m/2)`` times the eight weights of sample i.
    """
    if type(f) is not LagrangeInterpolant:
        return None
    table = f.grid
    r = np.ldexp(table.spacing, -m) / axis.spacing
    t = 1.0 / table.spacing
    tau0 = (np.ldexp(axis.origin, m) - table.origin) / table.spacing
    if not (r >= 4 and r.is_integer() and t.is_integer() and tau0.is_integer()):
        return None
    r, t, tau0 = int(r), int(t), int(tau0)
    P, width = -(-axis.count // r), numerics.STENCIL
    left = width // 2 - 1  # stencil knots before an interval
    lo = tau0 - N * t - left
    hi = lo + 2 * N * t + P + width - 1  # the windows read knots lo <= q < hi
    if lo < 0 or hi > table.count:
        return None
    Y = sliding_window_view(f.values[lo:hi], P + width - 1)[2 * N * t::-t]
    W = 2.0 ** (m * 0.5) * numerics.lagrange_weights(left + np.arange(r) / r).T
    W.flags.writeable = False
    return _Block(Y, (t, (0, hi - lo), W, axis.count), W)


def _scale_blocks(ws: WaveletSystem, window: IndexWindow, axes):
    """(slot, blocks): slot (p, m + M) holds pattern p's scale-m shifts in an
    array; blocks[i] is axis i's ``(B, geometry)`` (``_axis_block``), where
    B[k, j] is the factor at shift ``-N + k`` and the axis's j-th point (or,
    read from the interpolant's samples, the window that forms it).  Each
    axis is a ``Grid1D``.
    """
    for p, eps in enumerate(window.patterns()):
        for m in range(-window.M, window.M + 1):
            yield (p, m + window.M), [_axis_block(ws, e, m, window.N, axis)
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
    parts = F[:cut].reshape(whole.shape[0], s, F.shape[1])
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
    if len(rev) == 1:  # one reversed row multiplies 1.3-5 times faster contiguous
        rev = rev.copy()
    np.matmul(rev, tail, out=out[:, cut:])
    np.matmul(rev, whole[q0:q1], out=out[:, :cut].reshape(len(C2), whole.shape[0], s)
              [:, q0:q1].transpose(1, 0, 2))
    return out.reshape(C.shape[:-1] + (n,))


def _moments_apply(Y, t: int, span, W: np.ndarray, count: int,
                   F: np.ndarray) -> np.ndarray:
    """c = B F for a block read from the interpolant's samples
    (``_knot_windows``), F of shape (count, columns).

    One (P, r) @ (r, 8) product takes each knot interval's eight moments of
    F, one against each knot of its stencil.  Knot q gathers the moments of
    the eight intervals whose stencils hold it, and c is ``_window_apply``
    of Y on those sums.
    """
    r, width = W.shape
    P = Y.shape[1] - width + 1
    parts = np.zeros((F.shape[1], P * r))
    parts[:, :count] = F.T
    moments = (parts.reshape(-1, r) @ W).reshape(len(parts), P, width)
    G = np.zeros((Y.shape[1], len(parts)))  # by knot and column
    for o in range(width):
        G[o:o + P] += moments[:, :, o].T
    return _window_apply(Y, t, span, G)


def _moments_transpose(Y, t: int, span, W: np.ndarray, count: int,
                       C: np.ndarray) -> np.ndarray:
    """out_j = sum_k C_k B[k, j] for C of shape (..., K): the exact transpose
    of ``_moments_apply``.  ``_window_transpose`` gives each knot's sum, and
    one (P, 8) @ (8, r) product spreads each interval's eight stencil knots
    over its r samples."""
    r, width = W.shape
    G = _window_transpose(Y, t, span, C)
    P = G.shape[-1] - width + 1
    moments = np.stack([G[..., o:o + P] for o in range(width)], -1)  # (..., P, 8)
    out = moments.reshape(-1, width) @ W.T
    return out.reshape(C.shape[:-1] + (-1,))[..., :count]


def _block_apply(b, geometry, F: np.ndarray) -> np.ndarray:
    """B F for a block of ``_axis_block``, F of shape (n, columns)."""
    if geometry is None:
        return b @ F
    return (_window_apply if len(geometry) == 2 else _moments_apply)(b, *geometry, F)


def _block_transpose(b, geometry, C: np.ndarray) -> np.ndarray:
    """C B for a block of ``_axis_block``, C of shape (..., K)."""
    if geometry is None:
        return C @ b
    return (_window_transpose if len(geometry) == 2 else _moments_transpose)(
        b, *geometry, C)


def _analysis(ws: WaveletSystem, window: IndexWindow, axes, F):
    """c_lambda = sum_j F_j atom_lambda(x_j) over the window.

    ``axes`` holds each axis's ``Grid1D`` and ``F`` the weighted samples on
    their product (quadrature weights times values) as their parts on a
    last axis (``numerics.split_parts``); one block per axis and scale gives
    every coefficient of that scale.  Returns the window-shaped array of
    ``CoefficientSet``.

    The real blocks meet the parts as the last axis of one real array, so
    no block is copied to complex.  Each axis in turn, moved first, is
    ``_moments_apply`` on the interpolant's samples, ``_window_apply`` on a
    windowed block or one BLAS product on a per-shift block
    (``_block_apply``), and its shifts go next to the last axis.
    """
    out = np.empty(window.shape, dtype=complex)
    for slot, blocks in _scale_blocks(ws, window, axes):
        C = F
        for b, geometry in blocks:
            rows = _block_apply(b, geometry, C.reshape(len(C), -1))
            C = np.moveaxis(rows.reshape((-1,) + C.shape[1:]), 0, -2)
        out[slot] = numerics.join_parts(C)
    return out


def check_resolution(window: IndexWindow, grids) -> None:
    """Raise unless every grid resolves the window's finest atoms.

    psi at scale M occupies |xi| up to 2^M * PSI_BAND[1]; the trapezoid sum
    against it aliases once that band reaches 2 pi / h (``resolves``), so
    Bessel's inequality can fail without any other sign.
    """
    for g in grids:
        if not resolves(PSI_BAND[1], window.M, g.spacing):
            raise ExpansionError(
                f"scale {window.M} aliases on a grid of spacing {g.spacing}: "
                f"needs 2^M * h * {PSI_BAND[1]:.4f} < 2 pi")


def analyze(ws: WaveletSystem, f: SampledFunction, window: IndexWindow,
            cross_check: bool = True,
            source_descriptor: str = "") -> CoefficientSet:
    """All coefficients over the window, by quadrature against the atoms.

    Real samples (imaginary part exactly zero) give coefficients whose
    imaginary part is exactly 0.  Raises ``ExpansionError`` when a grid
    does not resolve the window (``check_resolution``).  ``cross_check``
    selects nothing: it is kept only so that existing callers, positional
    ones included, still run.
    """
    if f.dimension != window.d:
        raise ExpansionError("dimension mismatch between function and window")
    check_resolution(window, f.grids)
    F = numerics.split_parts(f.values)  # times the product trapezoid weights
    for axis, g in enumerate(f.grids):
        F = F * g.trapezoid_weights().reshape((-1,) + (1,) * (window.d - axis))
    return CoefficientSet(window, _analysis(ws, window, f.grids, F),
                          source_descriptor)


def synthesize_partial(ws: WaveletSystem, coeffs: CoefficientSet,
                       grid) -> SampledFunction:
    """Partial sum over the window on ``grid``: a Grid1D, or one per axis.

    Real coefficients (imaginary part exactly zero) give a sum whose
    imaginary part is exactly 0.
    """
    window = coeffs.window
    grids = (grid,) if isinstance(grid, Grid1D) else tuple(grid)
    if len(grids) != window.d:
        raise ExpansionError(f"{len(grids)} grids for a window of dimension {window.d}")
    parts = numerics.split_parts(coeffs.values)
    out = np.zeros(parts.shape[-1:] + tuple(g.count for g in grids))
    for slot, blocks in _scale_blocks(ws, window, grids):
        C = np.ascontiguousarray(np.moveaxis(parts[slot], -1, 0))
        for b, geometry in blocks:
            C = np.moveaxis(C, 1, -1)
            C = _block_transpose(b, geometry, C)
        out += C
    return SampledFunction(grids if window.d > 1 else grids[0],
                           numerics.join_parts(np.moveaxis(out, 0, -1)))


def analyze_spectrum(ws: WaveletSystem, fhat, window: IndexWindow,
                     reach: float) -> CoefficientSet:
    """The 1-D window's coefficients ``<f, psi_{m,n}>`` of a functional f
    from its spectrum ``fhat``, a callable on arrays of xi.

    f may be a function, a distribution (``delta^(k)_{x0}`` has spectrum
    ``(i xi)^k exp(-i x0 xi)``) or an ultradistribution whose spectrum
    outgrows every polynomial.  psi is real and band-limited, so each
    coefficient is a finite integral of the analytic ``ws.psi_hat_fn``,
    ``2^(m/2)/(2 pi) int fhat(2^m eta) conj(psi_hat(eta)) exp(i n eta)``
    over ``eta in +-PSI_BAND``.  Its trapezoid sum at spacing ``2 pi / L``
    is one ``chirp_synthesis`` in n per scale, the two band sides as two
    columns.  The sum aliases in the coefficients at shifts ``n + r L``, r
    != 0, whose atoms lie ``L - N - 2^m reach`` or more from f; ``L =
    ceil(2^m reach + N + margin)`` puts them where |phi|, and so |psi|,
    stays below 1e-13 (``projection._phi_tail``).  ``reach`` bounds |x| on
    the support of f, which no spectrum tells: ``max |x_j|`` for point
    masses, a grid's half-extent for samples, 0 at the origin.

    Before ``fhat`` is called, ``ExpansionError`` rejects d != 1, a
    ``reach`` that is negative or not finite, and a top scale that needs
    more than ``_MAX_NODES`` nodes a band side.
    """
    if window.d != 1:
        raise ExpansionError("spectral analysis is implemented in d = 1")
    if not 0.0 <= reach < np.inf:
        raise ExpansionError(f"reach must be finite and non-negative: {reach!r}")
    margin = _phi_tail(ws)[2]
    with np.errstate(over="ignore"):  # an infinite L fails the check below
        top = np.ceil(np.ldexp(reach, window.M) + window.N + margin)
    if not top + 1 <= _MAX_NODES:
        raise ExpansionError(f"scale {window.M} needs {top + 1:.3g} nodes a band "
                             f"side, more than {_MAX_NODES}")
    out = np.empty(window.shape, dtype=complex)
    for m in range(-window.M, window.M + 1):
        L = int(np.ceil(np.ldexp(reach, m) + window.N + margin))
        step = 2 * np.pi / L
        eta = PSI_BAND[0] + step * np.arange(L + 1)
        nodes = np.concatenate([eta, -eta])
        amp = np.conj(ws.psi_hat_fn(nodes)) * fhat(np.ldexp(nodes, m))
        amp *= 2.0 ** (m / 2) * step / (2 * np.pi)
        sums = numerics.chirp_synthesis(amp.reshape(2, -1).T, PSI_BAND[0], step,
                                        -window.N, 1.0, 2 * window.N + 1)
        # the negative side's exp(i n (-eta)) is the column's entry at -n
        out[0, m + window.M] = sums[:, 0] + sums[::-1, 1]
    return CoefficientSet(window, out)


# ---------------------------------------------------------------------------
# the Parseval identity
# ---------------------------------------------------------------------------

def parseval_check(ws: WaveletSystem, f: SampledFunction, g: SampledFunction,
                   window: IndexWindow) -> dict:
    """Bilinear pairing <f, g> against the coefficient sum over the window.

    rhs = sum_lambda c^psi_lambda(f) * c^{psi-bar}_lambda(g); the second
    family uses the conjugate analyzing atom (equal to the atom itself here,
    since psi and phi are real).  An input passed as both f and g is
    analyzed once.
    """
    cf = analyze(ws, f, window)
    cg = cf if g is f else analyze(ws, g, window)
    return _parseval(numerics.pairing(f, g), cf.values, cg.values)


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
