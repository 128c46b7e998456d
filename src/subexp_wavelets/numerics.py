"""Uniform grids, quadrature, splines, and band-limited synthesis.

Everything downstream (wavelet construction, projections, expansions) runs on
these primitives.  Conventions fixed here once and for all:

* forward transform  ``F g(xi) = int g(x) exp(-i x xi) dx``,
* inverse transform carries the single ``1/(2 pi)`` factor,
* all integrals are composite trapezoid sums on uniform grids, except the
  cumulative ones (``cumulative_simpson``).  For smooth integrands that
  vanish at both grid ends the rule is the periodic trapezoid rule and
  converges faster than any power of the spacing,
* synthesis onto a uniform grid is one chirp-z transform
  (``chirp_synthesis``); ``synthesize_values`` sums the same quadrature
  directly at scattered points and serves as its oracle.  The same engine
  sums the dyadic projection's transforms between uniform grids and uniform
  frequency nodes, with trailing axes carried along (one transform per
  column of a 2-D array, run through the FFTs in blocks of rows);
  ``forward_transform_values`` is the direct-sum oracle of its forward
  half.  A geometry's set-up (its chirps and the chirp's spectrum) is a
  plan, kept read-only from the geometry's second request on in a ``Kept``
  store (the one byte-budgeted LRU, which also keeps a system's atom
  blocks), so repeated transforms on the same grids skip it.  Both direct
  sums run over uniform nodes and factor them baby-step/giant-step
  (``_direct_sum``): about ``2 sqrt(n)`` exponentials a point and one
  matrix product, not ``n`` exponentials.
* tables are read between their nodes by ``NaturalSpline``, the natural
  cubic spline on uniform knots, which is literal zero outside them.

Everything here is numpy: the FFTs are ``numpy.fft`` at the 11-smooth sizes
of ``next_fast_len``.

Synthesized values are complex throughout, even when a quantity is
analytically real; realness is asserted by tests, never assumed by code.
The spline and the Simpson rule read real samples.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import lru_cache
from math import isfinite, isqrt
from numbers import Integral
from typing import NamedTuple

import numpy as np

DERIVATIVE_ORDER_CAP = 60
_BLOCK_ENTRIES = 2 ** 20  # table entries per block of rows of the direct sums
_SPLINE_BLOCK = 2 ** 16  # points a NaturalSpline call evaluates at a time
_FFT_BLOCK_ENTRIES = 2 ** 16  # padded entries per block of chirp_synthesis rows
_NOTED_KEYS = 4096  # keys a Kept store notes as requested once


class NumericsError(ValueError):
    """Raised on invalid grids, samples, or operation parameters."""


class Kept:
    """Values kept under their keys within ``budget`` bytes (their ``nbytes``).

    ``get(key, make)`` returns the value kept under ``key``, else ``make()``,
    which it keeps from the key's first request on, or with ``from_second``
    from its second, so that one-off keys keep nothing (a first request only
    notes the key, among the last ``_NOTED_KEYS``).  Beyond the budget the
    least recently used values go first; a value larger than the whole
    budget is never kept.  ``make`` returns a read-only value with the bits
    of a fresh call, so threads may share a store: one lock guards it, and
    ``make`` runs outside the lock.
    """

    def __init__(self, budget: int, from_second: bool = False):
        self.budget = budget
        self.from_second = from_second
        self._values: dict = {}  # key -> value, least recently used first
        self._noted: dict = {}  # keys requested once, oldest first
        self._lock = threading.Lock()

    def get(self, key, make):
        with self._lock:
            value = self._values.pop(key, None)
            if value is not None:
                self._values[key] = value
                return value
            keep = not self.from_second or self._noted.pop(key, False)
            if not keep:
                self._noted[key] = True
                while len(self._noted) > _NOTED_KEYS:
                    del self._noted[next(iter(self._noted))]
        value = make()
        if keep and value.nbytes <= self.budget:
            with self._lock:
                self._values.pop(key, None)  # kept meanwhile by another thread
                kept = sum(v.nbytes for v in self._values.values())
                while kept + value.nbytes > self.budget:
                    kept -= self._values.pop(next(iter(self._values))).nbytes
                self._values[key] = value
        return value


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid ``x_i = origin + i * spacing`` for ``0 <= i < count``."""

    origin: float
    spacing: float
    count: int

    def __post_init__(self):
        if not isinstance(self.count, Integral):
            raise NumericsError("grid point count must be an integer")
        if not isfinite(self.origin):
            raise NumericsError("grid origin must be finite")
        if not (self.spacing > 0 and isfinite(self.spacing)):
            raise NumericsError("grid spacing must be positive and finite")
        if self.count < 2:
            raise NumericsError("grid needs at least 2 points")

    @classmethod
    def from_interval(cls, lo: float, hi: float, count: int) -> "Grid1D":
        if not (hi > lo):
            raise NumericsError("empty interval")
        if count < 2:
            raise NumericsError("grid needs at least 2 points")
        return cls(origin=lo, spacing=(hi - lo) / (count - 1), count=count)

    def points(self) -> np.ndarray:
        return self.origin + self.spacing * np.arange(self.count)

    @property
    def extent(self) -> float:
        return self.spacing * (self.count - 1)

    @property
    def last(self) -> float:
        return self.origin + self.extent

    def trapezoid_weights(self) -> np.ndarray:
        w = np.full(self.count, self.spacing)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    def index_of(self, x: np.ndarray) -> np.ndarray:
        """Nearest grid index of each ``x`` (no bounds check)."""
        return np.rint((np.asarray(x, dtype=float) - self.origin) / self.spacing).astype(np.int64)


def _as_grids(grid) -> tuple[Grid1D, ...]:
    if isinstance(grid, Grid1D):
        return (grid,)
    return tuple(grid)


@dataclass(frozen=True)
class SampledFunction:
    """Complex values on a uniform grid (or a product of up to 3 grids)."""

    grid: object  # Grid1D or tuple of Grid1D
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        grids = _as_grids(self.grid)
        if not 1 <= len(grids) <= 3:
            raise NumericsError("dimension must be 1, 2, or 3")
        vals = np.asarray(self.values, dtype=complex)
        shape = tuple(g.count for g in grids)
        if vals.shape != shape:
            if vals.size == int(np.prod(shape)):
                vals = vals.reshape(shape)
            else:
                raise NumericsError("values length does not match grid point count")
        if not (np.all(np.isfinite(vals.real)) and np.all(np.isfinite(vals.imag))):
            raise NumericsError("invalid samples")
        object.__setattr__(self, "values", vals)

    @property
    def grids(self) -> tuple[Grid1D, ...]:
        return _as_grids(self.grid)

    @property
    def dimension(self) -> int:
        return len(self.grids)


@dataclass(frozen=True)
class SpectrumOnBand:
    """Fourier-side function with exact compact-support bookkeeping.

    ``declared_support`` is a union of at most two closed intervals inside
    ``band``; values are *literal* zeros at grid points outside it.
    """

    band: tuple[float, float]
    grid: Grid1D
    values: np.ndarray = field(repr=False)
    declared_support: tuple[tuple[float, float], ...]

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (self.grid.count,):
            raise NumericsError("values length does not match grid point count")
        if not (np.all(np.isfinite(vals.real)) and np.all(np.isfinite(vals.imag))):
            raise NumericsError("invalid samples")
        if not 1 <= len(self.declared_support) <= 2:
            raise NumericsError("declared_support must be 1 or 2 intervals")
        lo, hi = self.band
        for (slo, shi) in self.declared_support:
            if slo < lo - 1e-12 or shi > hi + 1e-12:
                raise NumericsError("band does not contain declared_support")
        outside = ~self.support_mask()
        if np.any(vals[outside] != 0):
            raise NumericsError("nonzero spectrum value outside declared_support")
        object.__setattr__(self, "values", vals)

    def support_mask(self) -> np.ndarray:
        xi = self.grid.points()
        mask = np.zeros(self.grid.count, dtype=bool)
        for (slo, shi) in self.declared_support:
            mask |= (xi >= slo - 1e-12) & (xi <= shi + 1e-12)
        return mask


def integrate(f: SampledFunction) -> complex:
    """Trapezoid approximation of the integral of ``f`` over its grid extent."""
    out = f.values
    for axis, g in reversed(list(enumerate(f.grids))):
        w = g.trapezoid_weights()
        out = np.tensordot(out, w, axes=([axis], [0]))
    return complex(out)


def moments(grid: Grid1D, values, k_max: int) -> np.ndarray:
    """Trapezoid moments ``int x^k f dx``, ``k = 0..k_max``, of samples on ``grid``."""
    x = grid.points()
    w = grid.trapezoid_weights()
    return np.array([np.dot(values * w, x ** k) for k in range(k_max + 1)])


def cumulative_simpson(y, dx: float) -> np.ndarray:
    """``int_{x_0}^{x_i} y``, ``0 <= i < n``, for samples ``y`` at spacing ``dx``.

    Cartwright's cumulative Simpson scheme for equal spacing: the quadratic
    through three consecutive samples integrates over its first interval
    forward and over its last interval backward, alternately, so
    each pair of intervals from an even node is Simpson's rule (exact on
    cubics there) and every node gets a value exact on quadratics.
    """
    y = np.asarray(y, dtype=float)
    if y.size < 3:
        raise NumericsError("Simpson integration needs at least 3 samples")

    def first_intervals(f):
        return dx / 3 * (5 * f[:-2] / 4 + 2 * f[1:-1] - f[2:] / 4)

    forward = first_intervals(y)
    backward = first_intervals(y[::-1])[::-1]
    pieces = np.empty(y.size - 1)
    pieces[:-1:2] = forward[::2]
    pieces[1::2] = backward[::2]
    pieces[-1] = backward[-1]
    return np.concatenate([[0.0], np.cumsum(pieces)])


# r = sqrt(3) - 2 solves r^2 + 4 r + 1 = 0, so r^|k| / (r - 1/r) inverts the
# (1, 4, 1) operator on all integers; its taps beyond |k| = 32 are below 1e-18
_R141 = np.sqrt(3.0) - 2.0
_INVERSE_141 = _R141 ** np.abs(np.arange(-32, 33)) / (_R141 - 1.0 / _R141)


def natural_second_differences(y) -> np.ndarray:
    """``h^2 s''(x_i)`` of the natural cubic spline ``s`` through uniform samples.

    They solve ``K_{i-1} + 4 K_i + K_{i+1} = 6 (y_{i+1} - 2 y_i + y_{i-1})``
    inside with ``K_0 = K_{n-1} = 0``.  One convolution with the inverse
    ``(1, 4, 1)`` taps solves the interior equations on all integers; the
    two homogeneous solutions ``A r^i + B r^{n-1-i}`` then make both end
    values zero, which the convolution alone gets right only for samples
    that vanish near their ends.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    rhs = np.zeros(n)
    rhs[1:-1] = 6.0 * (y[2:] - 2.0 * y[1:-1] + y[:-2])
    k = np.convolve(rhs, _INVERSE_141)[32:32 + n]
    q = _R141 ** (n - 1)
    a = (q * k[-1] - k[0]) / (1.0 - q * q)
    b = (q * k[0] - k[-1]) / (1.0 - q * q)
    tail = _R141 ** np.arange(min(n, 33))
    k[:tail.size] += a * tail
    k[n - tail.size:] += b * tail[::-1]
    return k


class NaturalSpline:
    """Natural cubic spline through samples on a uniform grid, 0 outside it.

    ``spline(x, order)`` is the ``order``-th derivative (0 to 3) at ``x``.
    Every slot of ``_poly`` holds a cubic in ``u = (x - x_i)/h``: a zero
    slot before the first knot, one per interval, one for the last knot
    alone (the last interval's cubic re-centred there, so it reads that
    sample exactly), and a zero slot past it.  The lookup is one clipped
    index, with no mask; NaN reads 0.  A knot reads its sample exactly
    wherever ``(x - origin) / spacing`` is exact, as on the dyadic tables.
    A call evaluates ``_SPLINE_BLOCK`` points at a time, which bounds its
    temporaries and changes no value.
    """

    def __init__(self, grid: Grid1D, values):
        y = np.asarray(values, dtype=float)
        if y.shape != (grid.count,):
            raise NumericsError("values length does not match grid point count")
        self.grid = grid
        k = natural_second_differences(y)
        # row p holds the u^p coefficients of the slots
        poly = np.zeros((4, grid.count + 2))
        a, b, c, d = poly[:, 1:-2]
        a[:] = y[:-1]
        b[:] = (y[1:] - y[:-1]) - (2.0 * k[:-1] + k[1:]) / 6.0
        c[:] = 0.5 * k[:-1]
        d[:] = (k[1:] - k[:-1]) / 6.0
        # the last interval's cubic at u = 1 + v, as a cubic in v
        poly[:, -2] = (y[-1], b[-1] + 2.0 * c[-1] + 3.0 * d[-1],
                       c[-1] + 3.0 * d[-1], d[-1])
        self._poly = poly

    def __call__(self, x, order: int = 0):
        if not 0 <= order <= 3:
            raise NumericsError("spline derivative order must be 0 to 3")
        poly = self._poly
        for _ in range(order):  # d/dx = (1/h) d/du, slot by slot
            powers = np.arange(1.0, poly.shape[0])[:, None]
            poly = poly[1:] * powers / self.grid.spacing
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape)
        flat_x, flat_out = x.reshape(-1), out.reshape(-1)
        for lo in range(0, flat_x.size, _SPLINE_BLOCK):
            flat_out[lo:lo + _SPLINE_BLOCK] = self._evaluate(
                poly, flat_x[lo:lo + _SPLINE_BLOCK])
        return float(out) if out.ndim == 0 else out

    def _evaluate(self, poly, x):
        last = self.grid.count - 1.0
        # clipped so that u stays in [-1, 1]; fmax reads NaN as before the grid
        t = np.fmin(np.fmax((x - self.grid.origin) / self.grid.spacing, -1.0),
                    last + 0.5)
        i = np.floor(t)
        i += x > self.grid.last  # past the last knot: the zero slot
        u = t - i
        j = i.astype(np.intp)
        j += 1
        out = poly[-1][j]
        for row in poly[-2::-1]:
            out *= u
            out += row[j]
        return out


def inner_product(f: SampledFunction, g: SampledFunction) -> complex:
    """Sesquilinear L2 product ``int f conj(g)``; grids must match exactly."""
    if f.grids != g.grids:
        raise NumericsError("grid mismatch")
    return integrate(SampledFunction(f.grid, f.values * np.conj(g.values)))


def pairing(f: SampledFunction, g: SampledFunction) -> complex:
    """Bilinear dual pairing ``int f g`` (no conjugation)."""
    if f.grids != g.grids:
        raise NumericsError("grid mismatch")
    return integrate(SampledFunction(f.grid, f.values * g.values))


def norm_l2(f: SampledFunction) -> float:
    return float(np.sqrt(inner_product(f, f).real))


def synthesize_values(spec: SpectrumOnBand, x_points, order: int = 0) -> np.ndarray:
    """Evaluate ``(1/2pi) int (i xi)^order spec(xi) exp(i x xi) dxi`` at ``x_points``.

    The quadrature of ``synthesize``, over the hull of the declared support
    (the gaps hold literal zeros), summed at scattered points by the
    lattice-factored direct sum ``_direct_sum``: ``A + B`` exponentials a
    point for ``n ~ A B`` nodes; deterministic summation order.
    """
    if order < 0 or order > DERIVATIVE_ORDER_CAP:
        raise NumericsError("derivative order cap")
    x = np.atleast_1d(np.asarray(x_points, dtype=float))
    if x.size == 0:
        raise NumericsError("no evaluation points")
    if not np.all(np.isfinite(x)):
        raise NumericsError("invalid samples")
    xi0, amp = _hull_amplitudes(spec)
    if order:
        amp = amp * (1j * (xi0 + spec.grid.spacing * np.arange(amp.size))) ** order
    return _direct_sum(x, xi0, spec.grid.spacing, amp, 1j)


def _hull_amplitudes(spec: SpectrumOnBand) -> tuple[float, np.ndarray]:
    """(first node, ``spec * trapezoid weights / 2 pi``) over the support's hull."""
    inside = np.flatnonzero(spec.support_mask())
    if inside.size == 0:
        raise NumericsError("no spectral grid point inside declared_support")
    lo, hi = inside[0], inside[-1] + 1
    g = spec.grid
    amp = spec.values[lo:hi] * g.trapezoid_weights()[lo:hi] / (2.0 * np.pi)
    return g.origin + g.spacing * lo, amp


def _direct_sum(rows, col0: float, dcol: float, amp, phase) -> np.ndarray:
    """``out[i] = sum_j amp[j] exp(phase * rows[i] * (col0 + j * dcol))``.

    The columns are uniform, so with ``j = a B + b`` and ``B = ceil(sqrt(n))``
    each exponential is a giant step ``exp(phase r (col0 + a B dcol))``
    times a baby step ``exp(phase r b dcol)``.  A block of rows takes one
    (h x B) baby table times ``amp`` as a (B x A) matrix, then a row-wise
    dot with the (h x A) giant table: ``A + B`` exponentials a row instead
    of ``n``.  Each still comes from its own angle, never from a power of a
    rounded ``exp``, so the sum is as accurate as the plain one.  Blocks of
    rows hold about ``_BLOCK_ENTRIES`` table entries, so the memory a call
    takes does not grow with the number of rows.
    """
    n = amp.size
    B = isqrt(n - 1) + 1
    A = -(-n // B)
    steps = np.zeros(A * B, dtype=complex)
    steps[:n] = amp
    steps = steps.reshape(A, B).T  # steps[b, a] = amp[a B + b], zero padded
    baby = phase * (dcol * np.arange(B))
    giant = phase * (col0 + (B * dcol) * np.arange(A))
    out = np.empty(rows.shape, dtype=complex)
    height = max(1, _BLOCK_ENTRIES // (A + B))
    for i in range(0, rows.size, height):
        r = rows[i:i + height, None]
        out[i:i + height] = np.einsum("ia,ia->i", np.exp(r * baby) @ steps,
                                      np.exp(r * giant))
    return out


@lru_cache(maxsize=1024)
def next_fast_len(n: int) -> int:
    """Smallest ``n' >= n`` whose prime factors are all at most 11.

    The FFT lengths ``chirp_synthesis`` pads to: each odd 11-smooth ``q`` up
    to the power of two that covers ``n``, times the least power of two
    that lifts it to ``n``.
    """
    cover = 1 << max(n - 1, 0).bit_length()
    odd = [1]
    for p in (3, 5, 7, 11):
        times_p = []
        for q in odd:
            while q <= cover:
                times_p.append(q)
                q *= p
        odd = times_p
    return min(q << (-(-n // q) - 1).bit_length() for q in odd)


class _ChirpPlan(NamedTuple):
    """What ``chirp_synthesis`` needs of one geometry besides the coefficients:
    the pre-chirp (length n), the spectrum of the padded chirp (length
    ``size``) and the post-chirp (length count), all read-only."""

    pre: np.ndarray
    chirp_spectrum: np.ndarray
    post: np.ndarray

    @property
    def nbytes(self) -> int:
        return self.pre.nbytes + self.chirp_spectrum.nbytes + self.post.nbytes


def _chirp_plan(n: int, count: int, xi0: float, dxi: float, x0: float,
                dx: float) -> _ChirpPlan:
    theta = dx * dxi
    j = np.arange(n)
    k = np.arange(count)
    size = next_fast_len(n + count - 1)
    pre = np.exp(1j * (x0 * dxi * j + 0.5 * theta * (j * j)))
    d = np.arange(-(n - 1), count)
    chirp = np.exp(-0.5j * theta * (d * d))
    row = np.zeros(size, dtype=complex)
    row[:count] = chirp[n - 1:]  # lags 0 .. count - 1
    row[size - (n - 1):] = chirp[:n - 1]  # lags -(n - 1) .. -1, wrapped
    post = np.exp(1j * (xi0 * (x0 + dx * k) + 0.5 * theta * (k * k)))
    plan = _ChirpPlan(pre, np.fft.fft(row, out=row), post)
    for a in plan:
        a.flags.writeable = False
    return plan


# Bluestein plans (``chirp_synthesis``); a warm session's projections at
# levels 0..6 and its 2-D projection keep about 8 MB
_CHIRP_PLANS = Kept(16 * 2 ** 20, from_second=True)


def chirp_synthesis(coeffs, xi0: float, dxi: float, x0: float, dx: float,
                    count: int) -> np.ndarray:
    """``out[k] = sum_j coeffs[j] exp(i (x0 + k dx)(xi0 + j dxi))``, ``0 <= k < count``.

    Bluestein's chirp-z transform (Rabiner, Schafer and Rader 1969).  With
    ``theta = dx * dxi`` and ``jk = (j^2 + k^2 - (k - j)^2) / 2`` the double
    sum is one linear convolution with the chirp ``exp(-i theta d^2 / 2)``,
    done by zero-padded FFTs of length ``size = next_fast_len(n + count - 1)``.
    Every chirp is evaluated from its own angle, with ``d^2`` an exact
    integer, and never as a power of a rounded ``exp(i theta)``: powers near
    ``1e7`` would raise that rounding to errors around 1e-11.

    The set-up of a geometry ``(n, count, xi0, dxi, x0, dx)`` is its plan
    (``_chirp_plan``): the pre-chirp (n values), the FFT of the padded chirp
    (``size``) and the post-chirp (count), all read-only.  ``_CHIRP_PLANS``
    keeps it from the geometry's second request on, under ``n``, ``count``
    and the bits of the four floats, so a warm caller that transforms on
    the same grids again skips every ``exp`` and the chirp's FFT, while a
    one-off geometry (the table syntheses of a build, every call of a cold
    process) keeps nothing.  A kept plan gives the same bits as a fresh
    one, and no output shares memory with it.

    The sum runs along axis 0; trailing axes of ``coeffs`` are carried
    along, one transform per column.  The columns run in blocks of about
    ``_FFT_BLOCK_ENTRIES`` padded entries: a block is pre-chirped straight
    into one padded buffer, transformed there forth and back in place, and
    post-chirped into the output, so the buffer stays small however many
    columns a call has.  Every column gets the bits it would get alone.
    Either spacing may be negative (``dx = -1`` gives ``sum_j c_j exp(-i k
    xi_j)``), which is how the dyadic projection reads its shift sums.
    """
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim == 0 or c.size == 0 or count < 1:
        raise NumericsError("no coefficients or no output points")
    c = np.moveaxis(c, 0, -1)  # the FFTs run along the contiguous last axis
    n = c.shape[-1]
    floats = (float(xi0), float(dxi), float(x0), float(dx))
    plan = _CHIRP_PLANS.get((n, count, np.array(floats).tobytes()),
                            lambda: _chirp_plan(n, count, *floats))
    size = plan.chirp_spectrum.size
    rows = c.reshape(-1, n)  # a view unless c has 3 axes and a mixed layout
    cols = rows.shape[0]
    out = np.empty((cols, count), dtype=complex)
    height = max(1, _FFT_BLOCK_ENTRIES // size)
    block = np.empty((min(height, cols), size), dtype=complex)
    for lo in range(0, cols, height):
        b = block[:min(height, cols - lo)]
        np.multiply(rows[lo:lo + height], plan.pre, out=b[:, :n])
        b[:, n:] = 0.0
        np.fft.fft(b, out=b)  # in place, as is the inverse
        b *= plan.chirp_spectrum
        np.fft.ifft(b, out=b)
        # post * values, in this order: complex products are not bitwise
        # commutative, and every table keeps the bits it had
        np.multiply(plan.post, b[:, :count], out=out[lo:lo + height])
    return np.moveaxis(out.reshape(c.shape[:-1] + (count,)), -1, 0)


def synthesize(spec: SpectrumOnBand, x_grid: Grid1D) -> SampledFunction:
    """Inverse-transform ``spec`` onto a uniform physical grid.

    Same quadrature as ``synthesize_values``, summed by ``chirp_synthesis``
    over the hull of the declared support (the gaps hold literal zeros).
    """
    xi0, amp = _hull_amplitudes(spec)
    vals = chirp_synthesis(amp, xi0, spec.grid.spacing, x_grid.origin,
                           x_grid.spacing, x_grid.count)
    return SampledFunction(x_grid, vals)


def forward_transform_values(f: SampledFunction, xi_points) -> np.ndarray:
    """Trapezoid approximation of ``int f(x) exp(-i x xi) dx`` (1-D only)."""
    if f.dimension != 1:
        raise NumericsError("forward transform implemented for 1-D samples")
    (g,) = f.grids
    amp = f.values * g.trapezoid_weights()
    xi = np.atleast_1d(np.asarray(xi_points, dtype=float))
    return _direct_sum(xi, g.origin, g.spacing, amp, -1j)
