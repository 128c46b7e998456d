"""Uniform grids, quadrature, interpolation, and band-limited synthesis.

Everything downstream (wavelet construction, projections, expansions) runs on
these primitives.  Conventions fixed here once and for all:

* forward transform  ``F g(xi) = int g(x) exp(-i x xi) dx``,
* inverse transform carries the single ``1/(2 pi)`` factor,
* all integrals are composite trapezoid sums on uniform grids.  For smooth
  integrands that vanish at both grid ends the rule is the periodic
  trapezoid rule and converges faster than any power of the spacing,
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
  blocks), so repeated transforms on the same grids skip it.  Where the
  frequency nodes are the bins of a DFT on the grid, real columns take
  ``real_dft`` and its real inverse ``real_dft_sum`` instead: one ``rfft``
  or ``irfft`` each, with no plan and no chirp phase.  Both direct
  sums run over uniform nodes and factor them baby-step/giant-step
  (``_direct_sum``), each step table itself the product of two smaller
  ones: about ``4 n^(1/4)`` exponentials a point and one matrix product,
  not ``n`` exponentials.  ``synthesize_real_values`` sums a Hermitian
  spectrum's half band alone, ``xi > 0``, as psi's and phi's point values
  do: 30 exponentials at psi's 2,730 nodes and 28 at phi's 1,820, where
  the full hulls (7,280 and 3,641 nodes) take 38 and 32.
* tables are read between their nodes by ``LagrangeInterpolant``, the
  local 8-point Lagrange interpolant on uniform knots, with no global
  solve; it is literal zero outside them.

Everything here is numpy: the FFTs are ``numpy.fft`` at the smooth sizes
of ``next_fast_len``.

Synthesized values are complex throughout, even when a quantity is
analytically real.  Realness is never assumed but observed exactly: the
projections and expansions carry values as real parts on a last axis
(``split_parts``, read back by ``join_parts``), one where the imaginary
part is exactly zero and two otherwise.  The interpolant reads real
samples.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import lru_cache
from math import factorial, isfinite, isqrt
from numbers import Integral
from typing import NamedTuple

import numpy as np

DERIVATIVE_ORDER_CAP = 60
# knots a LagrangeInterpolant reads per point: offsets -3..4 from its interval
STENCIL = 8
_BLOCK_ENTRIES = 2 ** 20  # table entries per block of rows of the direct sums
_INTERPOLANT_BLOCK = 2 ** 14  # points a LagrangeInterpolant call evaluates at a time
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
    least recently used values go first.  A value larger than a quarter of
    the budget is never kept (``fits``): a few such values, requested in
    turn, would evict one another, and everything else, before their next
    use.
    ``make`` returns a read-only value with the bits of a fresh call, so
    threads may share a store: one lock guards it, and ``make`` runs
    outside the lock.
    """

    def __init__(self, budget: int, from_second: bool = False):
        self.budget = budget
        self.from_second = from_second
        self._values: dict = {}  # key -> value, least recently used first
        self._noted: dict = {}  # keys requested once, oldest first
        self._lock = threading.Lock()

    def fits(self, nbytes: int) -> bool:
        """Whether a value of ``nbytes`` bytes would be kept."""
        return 4 * nbytes <= self.budget

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
        if keep and self.fits(value.nbytes):
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
            raise NumericsError(f"values of shape {vals.shape} on a grid of shape {shape}")
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


def split_parts(values: np.ndarray) -> np.ndarray:
    """``values`` as a float array whose last axis holds their parts: one,
    the real part, if their imaginary part is exactly zero, else two (real,
    imaginary).  ``join_parts`` is its inverse."""
    if not values.imag.any():
        return values.real[..., None]
    return np.stack([values.real, values.imag], -1)


def join_parts(parts: np.ndarray) -> np.ndarray:
    """The complex values whose parts (one or two) lie on the last axis of
    ``parts``; two are read as one complex number, every bit kept."""
    if parts.shape[-1] == 1:
        return parts[..., 0].astype(complex)
    return np.ascontiguousarray(parts).view(complex)[..., 0]


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
    weighted = values * grid.trapezoid_weights()
    return np.array([np.dot(weighted, x ** k) for k in range(k_max + 1)])


def lagrange_weights(v, width: int = STENCIL) -> np.ndarray:
    """``(width, ...)``: the Lagrange basis on the nodes ``0 .. width - 1``
    at each ``v``, ``L_j(v) = prod_(k != j) (v - k) / (j - k)``.

    The product form: at a node ``v = j`` every factor is an exact integer,
    so ``L_j`` is exactly 1 and every other weight an exact zero.  The
    products run in place in the one output array, with one scratch row.
    """
    v = np.asarray(v, dtype=float)
    w = np.empty((width,) + v.shape)
    w[-1] = 1.0
    for j in range(width - 2, -1, -1):  # prod_(k > j) (v - k)
        np.subtract(v, j + 1, out=w[j])
        w[j] *= w[j + 1]
    left, d = np.array(v), np.empty(v.shape)
    for j in range(1, width):  # times prod_(k < j) (v - k)
        w[j] *= left
        left *= np.subtract(v, j, out=d)
    for j in range(width):  # over prod_(k != j) (j - k)
        w[j] /= (-1) ** (width - 1 - j) * factorial(j) * factorial(width - 1 - j)
    return w


class LagrangeInterpolant:
    """Local Lagrange interpolant of samples on a uniform grid, 0 outside it.

    ``f(x)`` reads the ``STENCIL`` knots around x: those of offsets -3..4
    from x's interval, shifted inward where they would pass a table end, or
    every knot of a grid with fewer.  Its weights are ``lagrange_weights``
    at x's place in the stencil, so a knot reads its sample bit for bit
    wherever ``(x - origin) / spacing`` is exact, as on the dyadic tables.
    Its error is ``O(h^8 max|f^(8)|)`` for f sampled at spacing h (Berrut
    and Trefethen, SIAM Review 46, 2004), with no global solve.  The
    samples ``values`` (the caller's float array itself, not a copy) are
    its only row.  Points before the first knot, past the last, and NaN
    read 0.  A call evaluates ``_INTERPOLANT_BLOCK`` points at a time,
    which bounds its temporaries and changes no value.
    """

    def __init__(self, grid: Grid1D, values):
        y = np.asarray(values, dtype=float)
        if y.shape != (grid.count,):
            raise NumericsError("values length does not match grid point count")
        self.grid = grid
        self.values = y

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape)
        flat_x, flat_out = x.reshape(-1), out.reshape(-1)
        for lo in range(0, flat_x.size, _INTERPOLANT_BLOCK):
            self._evaluate(flat_x[lo:lo + _INTERPOLANT_BLOCK],
                           flat_out[lo:lo + _INTERPOLANT_BLOCK])
        return float(out) if out.ndim == 0 else out

    def _evaluate(self, x, out):
        g, y = self.grid, self.values
        width = min(STENCIL, g.count)
        outside = ~((x >= g.origin) & (x <= g.last))  # NaN is outside
        v = np.subtract(x, g.origin)
        v /= g.spacing
        v[outside] = 0.0
        start = np.floor(v)
        start -= STENCIL // 2 - 1
        np.clip(start, 0, g.count - width, out=start)
        v -= start
        knot = start.astype(np.intp)
        weights = lagrange_weights(v, width)
        np.multiply(weights[0], y.take(knot), out=out)
        for w in weights[1:]:
            knot += 1
            w *= y.take(knot)
            out += w
        out[outside] = 0.0


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
    lattice-factored direct sum ``_direct_sum``: about ``4 n^(1/4)``
    exponentials a point for ``n`` nodes; deterministic summation order.
    """
    x = _scattered_points(x_points, order)
    xi0, amp = _hull_amplitudes(spec, order)
    return _direct_sum(x, xi0, spec.grid.spacing, amp, 1j)


def synthesize_real_values(spec: SpectrumOnBand, x_points, order: int = 0) -> np.ndarray:
    """``synthesize_values`` of a Hermitian spectrum, ``spec(-xi) = conj
    spec(xi)`` (the transform of a real function), as a real array.

    The nodes ``xi < 0`` mirror those ``xi > 0``, so the sum is ``2 Re`` of
    the sum over the nodes ``xi > 0`` inside the declared support (their
    hull), each with the full grid's trapezoid weight and ``(i xi)^order``;
    a node at ``xi = 0`` (an odd count) counts half.  That pairing needs a
    grid symmetric about 0, ``origin == -last``, else ``NumericsError``.
    Hermitian symmetry is the caller's to know: this reads one half only.
    """
    g = spec.grid
    if g.origin != -g.last:
        raise NumericsError(f"spectral grid [{g.origin!r}, {g.last!r}] is not "
                            f"symmetric about 0")
    x = _scattered_points(x_points, order)
    half = g.count // 2
    xi0, amp = _hull_amplitudes(spec, order, half)
    if g.count % 2 and spec.support_mask()[half]:  # the hull starts at xi = 0
        amp[0] *= 0.5
    return 2.0 * _direct_sum(x, xi0, g.spacing, amp, 1j).real


def _scattered_points(x_points, order: int) -> np.ndarray:
    """The points of a scattered-point synthesis as a 1-D float array, after
    the checks of the points and the derivative order."""
    if order < 0 or order > DERIVATIVE_ORDER_CAP:
        raise NumericsError("derivative order cap")
    x = np.atleast_1d(np.asarray(x_points, dtype=float))
    if x.size == 0:
        raise NumericsError("no evaluation points")
    if not np.all(np.isfinite(x)):
        raise NumericsError("invalid samples")
    return x


def _hull_amplitudes(spec: SpectrumOnBand, order: int = 0,
                     first: int = 0) -> tuple[float, np.ndarray]:
    """(first node, ``spec (i xi)^order * trapezoid weights / 2 pi``) over
    the hull of the support's nodes from index ``first`` on."""
    inside = first + np.flatnonzero(spec.support_mask()[first:])
    if inside.size == 0:
        raise NumericsError("no spectral grid point inside declared_support")
    lo, hi = inside[0], inside[-1] + 1
    g = spec.grid
    amp = spec.values[lo:hi] * g.trapezoid_weights()[lo:hi] / (2.0 * np.pi)
    xi0 = g.origin + g.spacing * lo
    if order:
        amp = amp * (1j * (xi0 + g.spacing * np.arange(amp.size))) ** order
    return xi0, amp


def _direct_sum(rows, col0: float, dcol: float, amp, phase) -> np.ndarray:
    """``out[i] = sum_j amp[j] exp(phase * rows[i] * (col0 + j * dcol))``.

    The columns are uniform, so with ``j = a B + b`` and ``B = ceil(sqrt(n))``
    each exponential is a giant step ``exp(phase r (col0 + a B dcol))``
    times a baby step ``exp(phase r b dcol)``.  Each step is in turn the
    product of a coarse and a fine one: ``b = b1 C + b0`` with ``C =
    ceil(sqrt(B))``, and ``a = a1 E + a0`` with ``E = ceil(sqrt(A))`` and
    ``col0`` in the coarse giant step.  A block of h rows takes the (h x B)
    baby table, the outer product of its two factors, times ``amp`` as a (B
    x A) matrix, then contracts that with the fine giant steps over ``a0``
    and with the coarse ones over ``a1``.  So a row takes about ``4
    n^(1/4)`` exponentials (30 at psi's 2,730 nodes ``xi > 0``) instead of
    ``n``.  Each factor still comes from its own angle, never from a power
    of a rounded ``exp``, so the sum is as accurate as the plain one.
    Blocks of rows hold about ``_BLOCK_ENTRIES`` table entries, so the
    memory a call takes does not grow with the number of rows.
    """
    n = amp.size
    B = isqrt(n - 1) + 1
    A = -(-n // B)
    C, E = isqrt(B - 1) + 1, isqrt(A - 1) + 1
    B1, A1 = -(-B // C), -(-A // E)
    # steps[b, a] = amp[a B + b], zero padded to whole coarse steps
    steps = np.zeros((B1 * C, A1 * E), dtype=complex)
    steps[:B, :A] = np.concatenate([amp, np.zeros(A * B - n)]).reshape(A, B).T
    baby_coarse = phase * ((C * dcol) * np.arange(B1))
    baby_fine = phase * (dcol * np.arange(C))
    giant_coarse = phase * (col0 + (E * B * dcol) * np.arange(A1))
    giant_fine = phase * ((B * dcol) * np.arange(E))
    out = np.empty(rows.shape, dtype=complex)
    height = max(1, _BLOCK_ENTRIES // (A + B))
    for i in range(0, rows.size, height):
        r = rows[i:i + height, None]
        baby = np.exp(r * baby_coarse)[:, :, None] * np.exp(r * baby_fine)[:, None]
        part = (baby.reshape(r.size, -1) @ steps).reshape(r.size, A1, E)
        fine = np.einsum("ike,ie->ik", part, np.exp(r * giant_fine))
        out[i:i + height] = np.einsum("ik,ik->i", fine, np.exp(r * giant_coarse))
    return out


@lru_cache(maxsize=1024)
def next_fast_len(n: int, odd_primes: tuple = (3, 5, 7, 11)) -> int:
    """Smallest ``n' >= n`` whose odd prime factors are all in ``odd_primes``.

    The FFT lengths ``chirp_synthesis`` pads to (11-smooth): each odd
    smooth ``q`` up to the power of two that covers ``n``, times the least
    power of two that lifts it to ``n``.
    """
    cover = 1 << max(n - 1, 0).bit_length()
    odd = [1]
    for p in odd_primes:
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
    size = next_fast_len(n + count - 1)
    d = np.arange(max(n, count))
    chirp = np.exp(-0.5j * theta * (d * d))  # lag -d reads lag d
    row = np.zeros(size, dtype=complex)
    row[:count] = chirp[:count]  # lags 0 .. count - 1
    row[size - (n - 1):] = chirp[n - 1:0:-1]  # lags -(n - 1) .. -1, wrapped
    # at x0 == 0 (xi0 == 0) the pre-chirp (post-chirp) is the chirp's conjugate
    # bit for bit, but at d = 0: exp(i 0) is 1 + 0i, the conjugate 1 - 0i
    if x0 == 0:
        pre = np.conj(chirp[:n])
        pre[0] = 1.0
    else:
        j = np.arange(n)
        pre = np.exp(1j * (x0 * dxi * j + 0.5 * theta * (j * j)))
    if xi0 == 0:
        post = np.conj(chirp[:count])
        post[0] = 1.0
    else:
        k = np.arange(count)
        post = np.exp(1j * (xi0 * (x0 + dx * k) + 0.5 * theta * (k * k)))
    plan = _ChirpPlan(pre, np.fft.fft(row, out=row), post)
    for a in plan:
        a.flags.writeable = False
    return plan


# Bluestein plans (``chirp_synthesis``): one round of the benchmark's session
# keeps 6, 1.8 MB, the phi dense-table plan, 1.2 MB (the table's three orders
# share its geometry, so the second keeps it), the plan of phi's samples,
# 0.28 MB (the session reads the built and the reloaded system's, each formed
# on first read), two of 0.14 MB that sample its band-limited inputs and two
# of its kernel-decay certificate; its second round keeps 15, 2.5 MB, adding
# its level-0 projection and seminorm probes at levels 0..6 (the DFT route
# and the kept 2-D matrices need none).
# Plans are kept from a geometry's second request on because a cold command
# asks for most of its geometries once: keeping them from the first request
# raises the peak RSS of a cold ``build`` from 43 to 47 MB, ``expand
# --parseval`` from 42 to 44 MB, ``project --levels 0..6`` from 39 to 40 MB
# and ``verify`` from 41 to 43 MB (one BLAS thread, median of 3 cold runs)
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


def real_dft(values, size: int, count: int) -> np.ndarray:
    """``out[k] = sum_j values[j] exp(-2 pi i j k / size)``, ``0 <= k < count <= size``.

    The DFT of length ``size`` of real ``values`` (at most ``size`` of them,
    zero-padded), by one ``rfft``: a bin ``k`` past ``size / 2`` is the
    conjugate of bin ``size - k``.  Its phases are the FFT's own, exact
    roots of unity, so it carries no phase rounding that grows with the
    length.  The sum runs along axis 0, trailing axes carried along, in
    blocks of about ``_FFT_BLOCK_ENTRIES`` entries as in
    ``chirp_synthesis``.
    """
    v = np.asarray(values, dtype=float)
    rows = v.reshape(v.shape[0], -1).T  # the FFTs run along the last axis
    height, half = max(1, _FFT_BLOCK_ENTRIES // size), size // 2
    out = np.empty((rows.shape[0], count), dtype=complex)
    for lo in range(0, rows.shape[0], height):
        bins = np.fft.rfft(rows[lo:lo + height], size)
        out[lo:lo + height, :half + 1] = bins[:, :count]
        mirrored = bins[:, size - count + 1:size - half]  # bins size - k, k > size / 2
        out[lo:lo + height, half + 1:] = np.conj(mirrored[:, ::-1])
    return out.T.reshape((count,) + v.shape[1:])


def real_dft_sum(coeffs, size: int, count: int) -> np.ndarray:
    """``out[j] = Re sum_k coeffs[k] exp(2 pi i j k / size)``, ``0 <= j < count <= size``.

    The real inverse of ``real_dft``, by one ``irfft`` of length ``size``
    over at most ``size`` coefficients: a term ``k`` past ``size / 2``
    joins bin ``size - k`` conjugated, and every bin but 0 and ``size / 2``
    is halved (exactly), since ``irfft`` counts it twice.  Along axis 0,
    in blocks of columns.
    """
    c = np.asarray(coeffs, dtype=complex)
    rows = c.reshape(c.shape[0], -1).T
    height, half, terms = max(1, _FFT_BLOCK_ENTRIES // size), size // 2, c.shape[0]
    out = np.empty((rows.shape[0], count))
    for lo in range(0, rows.shape[0], height):
        block = rows[lo:lo + height]
        bins = np.zeros((block.shape[0], half + 1), dtype=complex)
        bins[:, :terms] = block[:, :half + 1]
        bins[:, size - terms + 1:size - half] += np.conj(block[:, half + 1:][:, ::-1])
        bins[:, 1:(size + 1) // 2] *= 0.5
        out[lo:lo + height] = np.fft.irfft(bins, size, norm="forward")[:, :count]
    return out.T.reshape((count,) + c.shape[1:])


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
    """Trapezoid approximation of ``int f(x) exp(-i x xi) dx`` (1-D only).

    The sum is periodic in xi with period ``2 pi / h`` (h the grid
    spacing), so beyond ``|xi| = pi / h`` it returns the periodic alias of
    the transform, with no error: the caller must keep xi inside.
    """
    if f.dimension != 1:
        raise NumericsError("forward transform implemented for 1-D samples")
    (g,) = f.grids
    amp = f.values * g.trapezoid_weights()
    xi = np.atleast_1d(np.asarray(xi_points, dtype=float))
    return _direct_sum(xi, g.origin, g.spacing, amp, -1j)
